"""Differential tests of the total-positivity routes against brute force.

Random small weight pairs (negative, zero and rational entries, and weights
chosen to make a minor 0) go through every route and are compared with
tests/oracle.all_minors_nonneg, which evaluates every minor of the section,
and with oracle.window_scan, which evaluates every contiguous principal
minor by its own elimination.  No route may claim TRUE where a minor is
negative, no minor route may refute where none is, the section route must
decide every section, and its witness must be a negative minor: a 1 x 1 one
its entry, any other the determinant of its window, which starts at row 0
or at a row k with t_k = 0.  The section route, which decides signs on the
integer chain, must give the leading-minor reports that the Fraction chain
(oracle.fraction_window_minors) gives, and dominance, which searches the
tails from the first index past both prefixes, the report of the probe of
every index up to the tails' root bound (oracle.probe_every_index_dominance).
"""

import json
from fractions import Fraction

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import catmoments.exact
from catmoments.cli import main
from catmoments.exact import FALSE, TRUE, as_rat, format_rat
from catmoments.jacobi import TPReport, tp_by_leading_minors, tp_certify, tp_sufficient_dominance
from catmoments.recursive import read_weights
from catmoments.seqspec import MAX_TAIL_DEGREE, ConstantTail, PolynomialTail, SequenceSpec
from oracle import (
    all_minors_nonneg,
    det_elimination,
    fraction_weights,
    fraction_window_minors,
    int_weights,
    jacobi_section,
    jacobi_window,
    probe_every_index_dominance,
    window_scan,
)

weights = st.one_of(
    st.just(Fraction(0)),
    st.integers(-2, 4).map(Fraction),
    st.builds(Fraction, st.integers(-6, 12), st.sampled_from((2, 3, 5))),
)


@st.composite
def weight_pairs(draw):
    """A weight pair with drawn prefixes and constant tails, and a section
    depth 0..5."""
    depth = draw(st.integers(0, 5))
    sigma = SequenceSpec(tuple(draw(st.lists(weights, max_size=depth + 1))),
                         ConstantTail(draw(weights)), start=0)
    tau = SequenceSpec(tuple(draw(st.lists(weights, max_size=depth))),
                       ConstantTail(draw(weights)), start=1)
    return sigma, tau, depth


def assert_negative_minor(report, s, t):
    """A FALSE report's witness is a negative minor of the section: a 1 x 1
    one its entry; any other the determinant of its window, which starts at
    row 0 or at a row k with t_k = 0.  A TRUE report has none."""
    assert report.verdict == (TRUE if report.witness is None else FALSE)
    if report.witness is None:
        return
    rows, cols = report.witness["rows"], report.witness["cols"]
    value = as_rat(report.witness["value"])
    assert value < 0
    if len(rows) == 1:
        assert value == jacobi_section(s, t)[rows[0], cols[0]]
    else:
        assert rows == cols == list(range(rows[0], rows[-1] + 1))
        assert value == det_elimination(jacobi_window(s, t, rows[0], rows[-1]))
        assert rows[0] == 0 or t[rows[0] - 1] == 0


@settings(max_examples=300, deadline=None)
@given(weight_pairs())
def test_no_route_contradicts_the_exhaustive_minor_scan(pair):
    sigma, tau, depth = pair
    s, t = fraction_weights(sigma, depth + 1), fraction_weights(tau, depth)
    oracle = all_minors_nonneg(jacobi_section(s, t), depth + 1).status
    reports = {
        "dominance": tp_sufficient_dominance(sigma, tau),
        "sections": tp_by_leading_minors(*read_weights(sigma, tau, depth + 1)),
        "certify": tp_certify(sigma, tau, depth),
    }
    if oracle == FALSE:
        assert [name for name, r in reports.items() if r.verdict == TRUE] == []
    else:
        # dominance FALSE only says its sufficient condition failed
        assert [name for name, r in reports.items()
                if r.verdict == FALSE and name != "dominance"] == []
    # the section route decides the section outright
    assert reports["sections"].verdict == oracle


@settings(max_examples=200, deadline=None)
@given(weight_pairs())
def test_contiguous_witness_matches_window_determinants(pair):
    sigma, tau, depth = pair
    s, t = fraction_weights(sigma, depth + 1), fraction_weights(tau, depth)
    report = tp_by_leading_minors(*read_weights(sigma, tau, depth + 1))
    assert report.verdict == window_scan(s, t).status
    assert_negative_minor(report, s, t)


@st.composite
def sections(draw):
    """Weight lists s_0..s_d and t_1..t_d, d = 0..6, drawn straight, then
    some s_k replaced by the weight that makes the minor of J on rows lo..k
    0, lo the first row of k's irreducible block."""
    depth = draw(st.integers(0, 6))
    s = draw(st.lists(weights, min_size=depth + 1, max_size=depth + 1))
    t = draw(st.lists(weights, min_size=depth, max_size=depth))
    zeros = draw(st.sets(st.integers(0, depth)))
    prev2, prev1 = Fraction(0), Fraction(1)
    for k in range(depth + 1):
        t_k = t[k - 1] if k else 0
        if t_k == 0:
            prev2, prev1 = Fraction(0), Fraction(1)
        if k in zeros and prev1:
            s[k] = t_k * prev2 / prev1
        prev2, prev1 = prev1, s[k] * prev1 - t_k * prev2
    return s, t


def fraction_leading_minors(s, t):
    """The leading-minor report of the section route from the Fraction chain
    (verdict, witness, detail), or None where that chain does not decide."""
    chain = fraction_window_minors(s, t, 0)
    detail = "minor chain " + ", ".join(map(format_rat, chain))
    for k, value in enumerate(chain):
        if value < 0:
            witness = {"rows": list(range(k + 1)), "cols": list(range(k + 1)),
                       "value": format_rat(value)}
            return FALSE, witness, detail
    if not all(w > 0 for w in t) or 0 in chain:
        return None
    return TRUE, None, detail


@settings(max_examples=300, deadline=None)
@given(sections())
def test_int_minor_routes_match_the_fraction_chain(section):
    s, t = section
    report = tp_by_leading_minors(*int_weights(s, t))
    leading = fraction_leading_minors(s, t)
    if leading is None:
        assert (report.criterion, report.detail) == ("contiguous_minors", None)
    else:
        assert (report.criterion, report.verdict, report.witness, report.detail) == (
            "leading_minors", *leading)
    assert report.depth == len(s) - 1
    assert_negative_minor(report, s, t)
    event(f"{report.criterion} {report.verdict}")


@settings(max_examples=300, deadline=None)
@given(sections())
def test_section_route_decides_every_section(section):
    # the verdict of the one section route is that of every minor and of
    # every window; tp_certify, which the zero tails keep off dominance,
    # answers by it, never inconclusively
    s, t = section
    report = tp_by_leading_minors(*int_weights(s, t))
    assert report.verdict == all_minors_nonneg(jacobi_section(s, t), len(s)).status
    assert report.verdict == window_scan(s, t).status
    sigma = SequenceSpec(tuple(s), ConstantTail(Fraction(0)), start=0)
    tau = SequenceSpec(tuple(t), ConstantTail(Fraction(0)), start=1)
    assert tp_certify(sigma, tau, len(s) - 1) == report


def _polynomial_spec(prefix, coeffs, start):
    return SequenceSpec(tuple(map(Fraction, prefix)), PolynomialTail(tuple(map(Fraction, coeffs))),
                        start=start)


@st.composite
def dominance_specs(draw):
    """sigma and tau, each over its own denominator from (1, 2, 3, 5, 7),
    with prefixes of length <= 2 and constant or polynomial tails of degree
    <= MAX_TAIL_DEGREE, signed rational coefficients (0 or +-1/den past the
    slope): a large constant and a small negative slope hold the condition
    past the first tail index, or break it late.  L, the LCM of both
    denominators, differs from each spec's own, so a tail put over the wrong
    one shows."""
    def spec(start):
        den = draw(st.sampled_from((1, 2, 3, 5, 7)))

        def signed(low, high):
            return st.integers(low * den, high * den).map(lambda n: Fraction(n, den))

        prefix = tuple(draw(st.lists(signed(-2, 6), max_size=2)))
        coeffs = [draw(signed(-4, 90)), draw(signed(-3, 3)),
                  *(Fraction(draw(st.integers(-1, 1)), den) for _ in range(MAX_TAIL_DEGREE - 1))]
        degree = draw(st.integers(0, MAX_TAIL_DEGREE))
        if degree == 0:
            return SequenceSpec(prefix, ConstantTail(coeffs[0]), start=start)
        return SequenceSpec(prefix, PolynomialTail(tuple(coeffs[:degree + 1])), start=start)

    return spec(0), spec(1)


# sigma = (2, 5/3, (3k^2 - 24k + 73)/15, ...) of the golden dominance cases,
# with tau = (1/3, 2/3, ...): TRUE, the gap (k - 4)^2/5 touching 0; with
# tau = (1/3, 5/6, ...): FALSE at k = 4, past the first tail index 2
DOMINANCE_SIGMA = _polynomial_spec([2, "5/3"], ["73/15", "-8/5", "1/5"], 0)
DOMINANCE_TAU = SequenceSpec((Fraction(1, 3),), ConstantTail(Fraction(2, 3)), start=1)
DOMINANCE_FALSE_TAU = SequenceSpec((Fraction(1, 3),), ConstantTail(Fraction(5, 6)), start=1)


# a late failure (s_k = 30 - k < 1 from k = 30), a failure at the first tail
# index alone (s_2 = 1 < t_2 + 1 = 2, and s_k - t_k - 1 = k - 3 from then on),
# a failure at k = 80 (s_k = 80 - k), TRUE with the gap falling at the first
# tail index (s_k = (k - 4)^2 + 1, t_k = 0 on a prefix, and
# s_k = (k - 38)^2 + 1, whose gap first falls for 37 indices), FALSE at k = 0,
# and the pairs the CLI golden test pins on dominance
@example((_polynomial_spec([2], [30, -1], 0), _polynomial_spec([], [0], 1)))
@example((_polynomial_spec([2, 2], [-1, 1], 0), _polynomial_spec([0], [1], 1)))
@example((_polynomial_spec([], [80, -1], 0), _polynomial_spec([], [0], 1)))
@example((_polynomial_spec([2, 2], [17, -8, 1], 0), _polynomial_spec([0], [0], 1)))
@example((_polynomial_spec([2], [1445, -76, 1], 0), _polynomial_spec([], [0], 1)))
@example((_polynomial_spec([], ["1/2"], 0), _polynomial_spec([], [1], 1)))
@example((DOMINANCE_SIGMA, DOMINANCE_TAU))
@example((DOMINANCE_SIGMA, DOMINANCE_FALSE_TAU))
@example((_polynomial_spec([], [10000, -200, 1], 0), _polynomial_spec([], [0], 1)))
@example((_polynomial_spec([], [200], 0), _polynomial_spec([], [100, -1], 1)))
@example((_polynomial_spec([], [10002, -200, 1], 0), _polynomial_spec([], [1], 1)))
@settings(max_examples=400, deadline=None)
@given(dominance_specs())
def test_dominance_matches_the_probe_of_every_index(specs):
    sigma, tau = specs
    report = tp_sufficient_dominance(sigma, tau)
    assert report == probe_every_index_dominance(sigma, tau)
    late = report.verdict == FALSE and report.depth >= max(sigma.tail_start(), tau.tail_start())
    event(f"{report.verdict}{' past the first tail index' if late else ''}")


def test_dominance_detail_past_the_first_tail_index_is_over_both_denominators():
    # s_4 and t_4 + 1 come off the tails as ints over L = lcm(15, 6) = 30
    assert (DOMINANCE_SIGMA.den, DOMINANCE_FALSE_TAU.den) == (15, 6)
    assert tp_sufficient_dominance(DOMINANCE_SIGMA, DOMINANCE_FALSE_TAU) == TPReport(
        "dominance", FALSE, depth=4, detail="s_4 = 5/3 < t_4 + 1 = 11/6")


def _spec(prefix, value, start):
    return SequenceSpec(tuple(Fraction(v) for v in prefix), ConstantTail(Fraction(value)),
                        start=start)


# three of the weight pairs the CLI golden test pins on the contiguous route;
# in the second, the section's blocks are rows 0, 1 and 2..6
CONTIGUOUS_PAIRS = [
    (_spec([3, 2, "5/2"], 3, 0), _spec([2, 1, 0], 1, 1), 12, None),
    (_spec([0, 2, 3, 3, 0], 3, 0), _spec([0, 0, 3, 2], 1, 1), 6,
     {"rows": [2, 3, 4], "cols": [2, 3, 4], "value": "-6"}),
    (_spec([], "12/5", 0), _spec([1, 0], "36/25", 1), 20, None),
]


def test_contiguous_route_evaluates_no_dense_determinant(monkeypatch):
    # the three-term chain alone: the Bareiss kernel eliminates no section
    calls = []
    real = catmoments.exact._minors_ints

    def counting(work):
        calls.append(len(work))
        return real(work)

    monkeypatch.setattr(catmoments.exact, "_minors_ints", counting)
    for sigma, tau, depth, witness in CONTIGUOUS_PAIRS:
        report = tp_by_leading_minors(*read_weights(sigma, tau, depth + 1))
        assert (report.criterion, report.verdict) == (
            "contiguous_minors", TRUE if witness is None else FALSE)
        assert report.witness == witness
    assert calls == []


# ROADMAP item 1: J has negative entries, yet dominance (first pair) and the
# leading minor chain (second pair) used to certify it
REPRODUCERS = [
    ({"prefix": ["1", "-1"], "tail": {"kind": "constant", "value": "5"}, "start": 0},
     {"prefix": ["-2"], "tail": {"kind": "constant", "value": "1"}, "start": 1}),
    ({"prefix": ["1", "-1"], "tail": {"kind": "constant", "value": "1"}, "start": 0},
     {"prefix": ["-3"], "tail": {"kind": "constant", "value": "1"}, "start": 1}),
]


@pytest.mark.parametrize("sigma, tau", REPRODUCERS)
def test_negative_weights_are_refuted(capsys, sigma, tau):
    code = main(["tp", "--sigma", json.dumps(sigma), "--tau", json.dumps(tau),
                 "--depth", "2", "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 1
    assert (data["verdict"], data["criterion"]) == (FALSE, "contiguous_minors")
    assert data["witness"] == {"rows": [1], "cols": [1], "value": "-1"}

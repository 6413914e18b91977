"""The Stieltjes routes against each other and against brute force.

stieltjes_weights reads both Hankel families of a weight pair off its
weights; stieltjes_check inverts explicit terms to weights, certifies them
by replay and reads the families off them, or falls back to the Hankel
sections of the terms (the Chebyshev walk that inverted them, elimination
past a zero leading minor), deciding a family with a zero leading minor by a symmetric
elimination.  Random small weight pairs and term lists (zero, negative and
rational entries, scaled by m_0, with a term changed) go through the
routes, every report is compared with the elimination report, and every
verdict with tests/oracle.principal_minors_nonneg on both Hankel sections.
Work counts: the weight route runs no elimination, terms that invert run
none either, and the weight route, the weight lists tp_by_leading_minors
takes (recursive.read_weights) and tp_sufficient_dominance read each weight
exactly once, as does tp_certify for its two minor routes together;
dominance reads none from the first index past both prefixes, whether or
not the tails certify the rest; stieltjes_check makes no weight past the
first whose running lcm passes the terms' denominator.  Reads are counted through
SequenceSpec.ints, the int reader every route uses; with eval and values,
the Fraction readers the package had, made to raise, every route and
command still runs, dominance included.  The int families, (num, den) pairs kept until printed,
must equal a Fraction reference built from tests/oracle (the products of
T_k and the minor chain) in values, verdict and witness, from a pair and
from its terms times m_0; two reports on different denominators are equal
by value, and so are hankel-det's minors over powers of L and the terms'
sections over their common denominator; and stieltjes and hankel-det make
no Fraction per determinant.
"""

import collections
import contextlib
import io
import itertools
import json
import math
import sys
from fractions import Fraction
from itertools import starmap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import catmoments.cli
import catmoments.exact
import catmoments.hankel
import catmoments.jacobi
import catmoments.recursive
from catmoments.cli import main
from catmoments.exact import (
    TRUE,
    _same_values,
    _scaled_ints,
    format_rat,
    negative_principal_minor,
)
from catmoments.hankel import (
    FAIL,
    PASS,
    StieltjesReport,
    _chebyshev_walk,
    _section_minors,
    _walk_weights,
    _weight_families,
    stieltjes_check,
    stieltjes_weights,
)
from catmoments.jacobi import (
    tp_by_leading_minors,
    tp_certify,
    tp_sufficient_dominance,
)
from catmoments.recursive import catalan_like, motzkin_oracle, read_weights
from catmoments.seqspec import ConstantTail, PolynomialTail, SequenceSpec, catalog_lookup
from oracle import (
    DenseMatrix,
    build_hankel,
    det_cofactor,
    fraction_det_products,
    fraction_weights,
    fraction_window_minors,
    principal_minors_nonneg,
    record_weight_reads,
    submatrix,
)

values = st.one_of(
    st.just(Fraction(0)),
    st.integers(-2, 4).map(Fraction),
    st.builds(Fraction, st.integers(-6, 12), st.sampled_from((2, 3, 5))),
)


def fractions(family) -> tuple[Fraction, ...]:
    """A report's family of (num, den) ints as Fractions."""
    return tuple(starmap(Fraction, family))


def walk_weights(terms, depth: int) -> tuple[list[Fraction], list[Fraction]]:
    """(s_0..s_depth, t_1..t_depth) of m / m_0, off the Chebyshev walk on the
    terms over their common denominator."""
    weights = list(_walk_weights(*_chebyshev_walk(_scaled_ints(terms)[0], depth)))
    return weights[:depth + 1], weights[depth + 1:]


@st.composite
def weight_pairs(draw, tau_values=values):
    """Drawn prefixes and constant tails, and a depth 0..4."""
    depth = draw(st.integers(0, 4))
    sigma = SequenceSpec(tuple(draw(st.lists(values, max_size=depth + 1))),
                         ConstantTail(draw(values)), start=0)
    tau = SequenceSpec(tuple(draw(st.lists(tau_values, max_size=depth))),
                       ConstantTail(draw(tau_values)), start=1)
    return sigma, tau, depth


@st.composite
def scaled_weight_terms(draw):
    """m_0 times the terms of a drawn weight pair, m_0 any drawn value, with
    one term changed half of the time."""
    sigma, tau, depth = draw(weight_pairs())
    m0 = draw(values)
    terms = [m0 * v for v in catalan_like(sigma, tau, 2 * depth + 1)]
    if draw(st.booleans()):
        terms[draw(st.integers(0, 2 * depth + 1))] += draw(values.filter(bool))
    return terms, depth


@st.composite
def term_lists(draw):
    """2 * depth + 2 drawn terms and a depth 0..3; small integers, so zero
    leading minors are common."""
    depth = draw(st.integers(0, 3))
    small = st.one_of(st.integers(-1, 2).map(Fraction), values)
    return draw(st.lists(small, min_size=2 * depth + 2, max_size=2 * depth + 2)), depth


@st.composite
def low_rank_term_lists(draw):
    """Moments of one or two point masses, m_n = sum w_i x_i^n, with one
    term changed: the sections have zero leading minors, and a change past
    the first few terms hides behind them."""
    depth = draw(st.integers(1, 3))
    atoms = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(-2, 2)),
                          min_size=1, max_size=2))
    terms = [sum(Fraction(w) * x ** n for w, x in atoms) for n in range(2 * depth + 2)]
    terms[draw(st.integers(0, 2 * depth + 1))] += draw(st.integers(-2, 2))
    return terms, depth


def both_sections_psd(seq, depth: int) -> bool:
    return all(principal_minors_nonneg(build_hankel(seq, depth, shift)) for shift in (0, 1))


def assert_witness_is_a_negative_principal_minor(seq, report):
    witness = report.witness
    if "rows" in witness:
        section = build_hankel(seq, report.depth, int(witness["family"][-1]))
        value = det_cofactor(submatrix(section, witness["rows"], witness["rows"]))
        assert format_rat(value) == witness["value"] and value < 0


@settings(max_examples=400, deadline=None)
@given(weight_pairs())
def test_weight_route_equals_elimination_and_brute_force(pair):
    sigma, tau, depth = pair
    seq = catalan_like(sigma, tau, 2 * depth + 1)
    report = stieltjes_weights(sigma, tau, depth)
    assert report == StieltjesReport.by_elimination(seq, depth)
    assert (report.verdict == PASS) == both_sections_psd(seq, depth)


@settings(max_examples=400, deadline=None)
@given(st.one_of(scaled_weight_terms(), low_rank_term_lists()))
def test_terms_report_equals_elimination(drawn):
    seq, depth = drawn
    assert stieltjes_check(seq, depth) == StieltjesReport.by_elimination(seq, depth)


@settings(max_examples=300, deadline=None)
@given(weight_pairs(tau_values=values.filter(bool)),
       st.builds(Fraction, st.integers(1, 9), st.integers(1, 4)))
def test_terms_round_trip_through_their_weights(pair, m0):
    # nonzero t_k: the terms determine the weights, and replay to themselves
    sigma, tau, depth = pair
    terms = [m0 * v for v in catalan_like(sigma, tau, 2 * depth + 1)]
    s, t = walk_weights(terms, depth)
    assert (s, t) == (fraction_weights(sigma, depth + 1), fraction_weights(tau, depth))
    replay = catalan_like(SequenceSpec(tuple(s), ConstantTail(0), 0),
                          SequenceSpec(tuple(t), ConstantTail(0), 1), 2 * depth + 1)
    assert [m0 * v for v in replay] == terms


@settings(max_examples=400, deadline=None)
@given(st.one_of(term_lists(), low_rank_term_lists()))
def test_terms_pass_exactly_when_both_sections_are_semidefinite(drawn):
    seq, depth = drawn
    report = stieltjes_check(seq, depth)
    assert (report.verdict == PASS) == both_sections_psd(seq, depth)
    if report.verdict == FAIL:
        assert_witness_is_a_negative_principal_minor(seq, report)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.one_of(values, st.integers(-2, 4)), min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_negative_principal_minor_decides_semidefiniteness(grid):
    # plain rows of ints and Fractions: an int pivot must not divide to a float
    n = len(grid)
    rows = [[grid[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    before = [list(row) for row in rows]
    found = negative_principal_minor(rows)
    symmetric = DenseMatrix(rows)
    assert rows == before
    assert (found is None) == principal_minors_nonneg(symmetric)
    if found is not None:
        minor_rows, value = found
        assert minor_rows == sorted(set(minor_rows))
        assert not isinstance(value, float)
        assert value < 0 and det_cofactor(submatrix(symmetric, minor_rows, minor_rows)) == value


@pytest.mark.parametrize("terms, depth, witness", [
    ("1,1,1,1,1,-1", 2, {"family": "det1", "rows": [0, 2], "value": "-2"}),
    ("2,0,0,-1", 1, {"family": "det1", "rows": [1], "value": "-1"}),
])
def test_weak_sylvester_terms_fail_with_a_principal_minor(capsys, terms, depth, witness):
    report = stieltjes_check(terms.split(","), depth)
    assert (report.verdict, report.witness) == (FAIL, witness)
    assert main(["stieltjes", "--terms", terms, "--depth", str(depth)]) == 1
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == f"first negative: det1 rows {witness['rows']} value {witness['value']}"


def test_zero_weight_passes_with_zero_dets():
    # t_2 = 0: both families vanish from k = 2 on, and the sections are
    # still semidefinite
    sigma = SequenceSpec((Fraction(2), Fraction(3)), ConstantTail(Fraction(3)), start=0)
    tau = SequenceSpec((Fraction(1), Fraction(0)), ConstantTail(Fraction(1)), start=1)
    report = stieltjes_weights(sigma, tau, 4)
    assert (fractions(report.family0), fractions(report.family1)) == \
        ((1, 1, 0, 0, 0), (2, 5, 0, 0, 0))
    assert report.verdict == PASS


def test_weight_route_refuses_negative_depth():
    entry = catalog_lookup("catalan")
    with pytest.raises(ValueError, match="depth must be >= 0"):
        stieltjes_weights(entry.sigma, entry.tau, -1)


# every entry point to the Hankel sections: the families' ints go to the
# Chebyshev walk, hankel._chebyshev_walk, and past a zero leading minor to
# elimination, _int_leading_minors; a section with a zero leading minor to
# negative_principal_minor; and the recurrence the replay runs,
# recursive._scaled_rows
GUARDED = ((catmoments.hankel, "_chebyshev_walk"), (catmoments.exact, "_int_leading_minors"),
           (catmoments.exact, "negative_principal_minor"), (catmoments.recursive, "_scaled_rows"))


@pytest.fixture
def guarded_calls(monkeypatch):
    """The names of the guarded functions called, wherever a module of the
    package has bound them."""
    seen = []
    modules = (catmoments.cli, catmoments.exact, catmoments.hankel, catmoments.jacobi,
               catmoments.recursive)
    for home, name in GUARDED:
        original = getattr(home, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            seen.append(_name)
            return _original(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    return seen


def test_weight_pair_runs_no_elimination(capsys, guarded_calls):
    assert main(["stieltjes", "--name", "catalan", "--depth", "20"]) == 0
    assert guarded_calls == []
    assert capsys.readouterr().out.startswith("verdict: PASS (depth 20)\n")


def test_terms_run_no_elimination_unless_they_fall_back(capsys, guarded_calls):
    # catalan's terms invert to its weights: one walk, one replay, no
    # Hankel matrix
    entry = catalog_lookup("catalan")
    terms = ",".join(format_rat(v) for v in catalan_like(entry.sigma, entry.tau, 41))
    guarded_calls.clear()               # the terms above ran the recurrence too
    assert main(["stieltjes", "--terms", terms, "--depth", "20", "--format", "json"]) == 0
    assert guarded_calls == ["_chebyshev_walk", "_scaled_rows"]
    named = main(["stieltjes", "--name", "catalan", "--depth", "20", "--format", "json"])
    from_terms, from_weights = capsys.readouterr().out.splitlines()
    assert named == 0 and json.loads(from_weights) == {"name": "catalan",
                                                        **json.loads(from_terms)}
    # the positive control of the guard: t_1 = 0 stops the inversion; the
    # walk stops at the zero leading minor H_1, one elimination per family
    # gives both families, and then each section is decided by its
    # principal minors
    guarded_calls.clear()
    assert main(["stieltjes", "--terms", "1,1,1,1,1,1", "--depth", "2"]) == 0
    assert sorted(set(guarded_calls)) == ["_chebyshev_walk", "_int_leading_minors",
                                          "negative_principal_minor"]
    assert guarded_calls.count("_chebyshev_walk") == 1
    assert guarded_calls.count("_int_leading_minors") == 2


def test_weights_over_a_larger_scale_than_the_terms_go_to_the_sections(guarded_calls):
    # m_n = 1/(n+1)^2, the moments of -log x on (0, 1]: the terms invert, but
    # their weights' common denominator L dwarfs the terms' D, so the report
    # comes from the terms' sections, with no replay, and equals the
    # weights' report by value
    terms = [Fraction(1, (n + 1) ** 2) for n in range(26)]
    guarded_calls.clear()
    report = stieltjes_check(terms, 12)
    assert guarded_calls == ["_chebyshev_walk"]
    (m0, *ints), scale = _scaled_ints([terms[0], *itertools.chain(*walk_weights(terms, 12))])
    assert scale.bit_length() > 10 * math.lcm(*(m.denominator for m in terms)).bit_length()
    weights = StieltjesReport.from_families(12, *_weight_families(ints[:13], ints[13:], scale, m0))
    assert report == weights and report.verdict == PASS


def test_weights_stop_at_the_first_scale_over_the_terms(monkeypatch):
    # the weights of 1/(n+1)^2 need a larger denominator from the first few
    # on: no weight is made past the one whose running lcm passes D
    built = []

    def counted(*args):
        built.append(Fraction(*args))
        return built[-1]

    monkeypatch.setattr(catmoments.hankel, "Fraction", counted)      # only the weights
    terms = [Fraction(1, (n + 1) ** 2) for n in range(62)]
    assert stieltjes_check(terms, 30) == StieltjesReport.by_elimination(terms, 30)
    assert 0 < len(built) < 2 * 30 + 1


@pytest.mark.parametrize("corrupt", ["s_d", "t_d"])
def test_weights_that_do_not_replay_fall_back(monkeypatch, guarded_calls, corrupt):
    # one recovered weight off by one: the replay misses a term, and the
    # report is the Hankel sections' off the same walk, with no second walk
    # and no elimination
    real = catmoments.hankel._walk_weights

    def corrupted(pivots, cs):
        weights = list(real(pivots, cs))    # s_0..s_depth, then t_1..t_depth
        weights[len(cs) - 1 if corrupt == "s_d" else -1] += 1
        return weights

    monkeypatch.setattr(catmoments.hankel, "_walk_weights", corrupted)
    terms = catalan_like(catalog_lookup("bell").sigma, catalog_lookup("bell").tau, 11)
    guarded_calls.clear()
    assert stieltjes_check(terms, 5) == StieltjesReport.by_elimination(terms, 5)
    assert guarded_calls == ["_chebyshev_walk", "_scaled_rows", "_chebyshev_walk"]


def test_verify_compares_the_whole_report(monkeypatch):
    entry = catalog_lookup("delannoy")
    real = stieltjes_weights

    def shifted_family_off_by_one(sigma, tau, depth):
        report = real(sigma, tau, depth)
        (num, den), *rest = report.family1
        return StieltjesReport(report.depth, report.family0, ((num + den, den), *rest),
                               report.verdict, report.witness)

    monkeypatch.setattr(catmoments.cli, "stieltjes_weights", shifted_family_off_by_one)
    checks = dict(catmoments.cli.verify_checks(entry, 4))
    assert checks["det_product"] is False
    assert [label for label, ok in checks.items() if not ok] == ["det_product"]


def test_sections_catch_weight_products_over_a_wrong_power_of_l(monkeypatch, capsys):
    # the Chebyshev walk reads only the terms, so weight products put over
    # one power of L too many fail verify's det_product and hankel-det's
    # comparison; delannoy's weights are integers (L = 1), so they are put
    # over 2L first, where a power of L shows
    real = catmoments.hankel._weight_families

    def wrong_power(s, t, scale, m0=None):
        rescaled = real([2 * x for x in s], [2 * x for x in t], 2 * scale,
                        2 * (scale if m0 is None else m0))
        return tuple([(p, 2 * scale * q) for p, q in family] for family in rescaled)

    for module in (catmoments.hankel, catmoments.cli):
        monkeypatch.setattr(module, "_weight_families", wrong_power)
    assert main(["verify", "--name", "delannoy", "--depth", "6"]) == 1
    failed = [line.split() for line in capsys.readouterr().out.splitlines()
              if line.endswith("  FAIL")]
    assert failed == [["det_product", "FAIL"]]
    assert main(["hankel-det", "--name", "delannoy", "--depth", "6"]) == 1
    assert capsys.readouterr().out.count(" MISMATCH\n") == 7


rationals = st.one_of(
    st.just(Fraction(0)),
    st.integers(-3, 5).map(Fraction),
    st.builds(Fraction, st.integers(-9, 12), st.sampled_from((2, 3, 4, 7))),
)
tails = st.one_of(st.builds(ConstantTail, rationals),
                  st.builds(lambda a, b: PolynomialTail((a, b)), rationals, rationals))


@st.composite
def rational_pairs(draw):
    """Prefixes of at most two rationals (zero and negative weights
    included), constant or linear tails, and a depth 0..12."""
    sigma = SequenceSpec(tuple(draw(st.lists(rationals, max_size=2))), draw(tails), start=0)
    tau = SequenceSpec(tuple(draw(st.lists(rationals, max_size=2))), draw(tails), start=1)
    return sigma, tau, draw(st.integers(0, 12))


def fraction_report(sigma, tau, depth, m0=Fraction(1)):
    """(dets0, dets1, verdict, witness) of m0 times the pair's terms, on
    Fractions: the products of T_k, the minor chain of J times them, and the
    first negative value, plain family before shifted at each k."""
    s, t = fraction_weights(sigma, depth + 1), fraction_weights(tau, depth)
    dets0 = fraction_det_products(t, m0)
    dets1 = [d * p for d, p in zip(fraction_window_minors(s, t, 0), dets0)]
    witness = next(({"family": f"det{shift}", "k": k, "value": format_rat(dets[k])}
                    for k in range(depth + 1)
                    for shift, dets in enumerate((dets0, dets1)) if dets[k] < 0), None)
    return tuple(dets0), tuple(dets1), PASS if witness is None else FAIL, witness


@settings(max_examples=200, deadline=None)
@given(rational_pairs())
def test_int_families_of_a_weight_pair_equal_the_fraction_reference(pair):
    sigma, tau, depth = pair
    report = stieltjes_weights(sigma, tau, depth)
    assert (fractions(report.family0), fractions(report.family1), report.verdict,
            report.witness) == \
        fraction_report(sigma, tau, depth)
    assert all(den > 0 for _, den in report.family0 + report.family1)


@settings(max_examples=150, deadline=None)
@given(rational_pairs(), st.builds(Fraction, st.integers(1, 9), st.integers(1, 7)))
def test_int_families_of_scaled_terms_equal_the_fraction_reference(pair, m0):
    # terms that invert and replay take the int weight route, and terms
    # with a zero t_k elimination, which must agree with it
    sigma, tau, depth = pair
    terms = [m0 * v for v in catalan_like(sigma, tau, 2 * depth + 1)]
    report = stieltjes_check(terms, depth)
    assert (fractions(report.family0), fractions(report.family1), report.verdict,
            report.witness) == \
        fraction_report(sigma, tau, depth, m0)


@settings(max_examples=100, deadline=None)
@given(rational_pairs(), st.sampled_from(("0", "1")))
def test_hankel_det_over_powers_of_l_equals_the_common_denominator(pair, shift):
    # hankel-det eliminates N_n = L^n m_n and puts each minor over its power
    # of L; the terms' sections over their common denominator have the same
    # values, also where a zero leading minor sends both to elimination
    sigma, tau, depth = pair
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["hankel-det", "--sigma", json.dumps(sigma.to_json()),
                     "--tau", json.dumps(tau.to_json()), "--depth", str(depth),
                     "--shift", shift, "--format", "json"]) == 0
    dets = [Fraction(row["det"]) for row in json.loads(out.getvalue())["rows"]]
    terms = catalan_like(sigma, tau, 2 * depth + int(shift))[int(shift):]
    family, = _section_minors(*_scaled_ints(terms), depth, (0,))
    assert _same_values([(d.numerator, d.denominator) for d in dets], family)


def test_reports_on_different_denominators_are_equal_by_value():
    # elimination scales the terms by the LCM of their denominators, the
    # weight route the weights by theirs: the ints differ, the values and
    # so the reports (what verify's det_product compares) do not
    sigma = SequenceSpec((Fraction(3, 2),), ConstantTail(Fraction(5, 2)), start=0)
    tau = SequenceSpec((Fraction(2, 3),), ConstantTail(Fraction(7, 5)), start=1)
    depth = 5
    weights = stieltjes_weights(sigma, tau, depth)
    elimination = StieltjesReport.by_elimination(catalan_like(sigma, tau, 2 * depth + 1), depth)
    assert weights.family0 != elimination.family0 and weights.family1 != elimination.family1
    assert weights == elimination and weights.verdict == PASS
    (num, den), *rest = elimination.family1
    assert weights != StieltjesReport(elimination.depth, elimination.family0,
                                      ((num - den, den), *rest), elimination.verdict,
                                      elimination.witness)


# the Fraction forms the int families replace: a determinant made a
# Fraction, a Fraction printed
WRAPPERS = ((catmoments.exact, "_over"), (catmoments.exact, "format_rat"))


@pytest.fixture
def wrapper_calls(monkeypatch):
    """Calls of the WRAPPERS, counted wherever a module of the package binds
    them."""
    calls = collections.Counter()
    for home, name in WRAPPERS:
        original = getattr(home, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "catmoments" and \
                    getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    return calls


def test_families_stay_ints_until_printed(capsys, wrapper_calls):
    catalan = ",".join(str(math.comb(2 * n, n) // (n + 1)) for n in range(18))
    assert main(["stieltjes", "--name", "factorial", "--depth", "20"]) == 0
    assert main(["stieltjes", "--terms", catalan, "--depth", "8", "--format", "json"]) == 0
    assert main(["hankel-det", "--name", "delannoy", "--depth", "24"]) == 0
    assert wrapper_calls == {}
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "verdict: PASS (depth 20)" and out[-1].endswith(" ok")
    # the positive control: t_1 = 0 sends these terms to elimination, whose
    # principal-minor witness is a Fraction
    assert main(["stieltjes", "--terms", "1,1,1,1,1,-1", "--depth", "2"]) == 1
    assert wrapper_calls == {"format_rat": 1}


@pytest.fixture
def weight_reads(monkeypatch):
    """Every weight a SequenceSpec hands out through SequenceSpec.ints, the
    reader of every route, as (spec, index) pairs in call order."""
    return record_weight_reads(monkeypatch)


# bell, and a prefix followed by a polynomial tail on either side; both have
# positive leading minors, so tp_by_leading_minors inspects every weight
READ_ONCE_PAIRS = {
    "bell": (catalog_lookup("bell").sigma, catalog_lookup("bell").tau),
    "prefix-polynomial": (
        SequenceSpec((Fraction(2), Fraction(3, 2)), PolynomialTail((1, 2)), start=0),
        SequenceSpec((Fraction(5, 11),), PolynomialTail((0, 1)), start=1)),
}


def assert_read_once_through(weight_reads, sigma, tau, last):
    expected = [(sigma, k) for k in range(last + 1)] + [(tau, k) for k in range(1, last + 1)]
    assert sorted(weight_reads, key=lambda read: (read[0] is tau, read[1])) == expected


@pytest.mark.parametrize("route", ["stieltjes_weights", "tp_by_leading_minors", "dominance"])
@pytest.mark.parametrize("pair", sorted(READ_ONCE_PAIRS))
def test_each_weight_is_read_once(weight_reads, route, pair):
    sigma, tau = READ_ONCE_PAIRS[pair]
    depth = 6
    if route == "stieltjes_weights":
        assert stieltjes_weights(sigma, tau, depth).verdict == PASS
    elif route == "tp_by_leading_minors":
        assert tp_by_leading_minors(*read_weights(sigma, tau, depth + 1)).verdict == TRUE
    else:
        # dominance reads the weights below the first index past both
        # prefixes, from where it searches the tails
        assert tp_sufficient_dominance(sigma, tau).verdict == TRUE
        depth = max(sigma.tail_start(), tau.tail_start()) - 1
    assert_read_once_through(weight_reads, sigma, tau, depth)


def test_dominance_reads_no_weight_past_its_first_failure(weight_reads):
    # factorial: both tails start at K = 1, so dominance reads s_0 alone; the
    # failure s_3 = 7 < t_3 + 1 = 10 comes off the tails, not off a read
    entry = catalog_lookup("factorial")
    assert tp_sufficient_dominance(entry.sigma, entry.tau).depth == 3
    assert weight_reads == [(entry.sigma, 0)]


def test_tp_certify_reads_each_weight_once_in_its_minor_routes(weight_reads):
    # sigma = (3, 2, 5/2, 3, ...), tau = (2, 1, 0, 1, ...): dominance reads
    # the 7 weights below K = 4 and fails at k = 1, and the zero t_3 splits
    # the section into blocks, whose chains run on the leading chain's read;
    # each minor route used to read all 25 weights itself
    sigma = SequenceSpec((3, 2, Fraction(5, 2)), ConstantTail(Fraction(3)), start=0)
    tau = SequenceSpec((2, 1, 0), ConstantTail(Fraction(1)), start=1)
    report = tp_certify(sigma, tau, 12)
    assert (report.criterion, report.verdict) == ("contiguous_minors", TRUE)
    assert_read_once_through(weight_reads[:7], sigma, tau, 3)     # dominance
    assert_read_once_through(weight_reads[7:], sigma, tau, 12)
    assert len(weight_reads) == 32


@pytest.fixture
def fraction_reads_refused(monkeypatch):
    """SequenceSpec.eval and values, the Fraction-per-weight readers the
    package had, refuse: a route that brings one back fails, dominance
    included."""
    def refusing(*args):
        raise AssertionError("a Fraction per weight")

    for name in ("eval", "values"):
        monkeypatch.setattr(SequenceSpec, name, refusing, raising=False)


# rational weights over 3 and 5 with a polynomial tail, so that no command
# takes the closed form's route (the golden thirds-fifths cases' pair)
GUARD_PAIR = (SequenceSpec((Fraction(2, 3), 3, 2, Fraction(-1, 3)),
                           PolynomialTail((Fraction(1, 3), Fraction(2, 3))), start=0),
              SequenceSpec((Fraction(7, 5), Fraction(9, 5), 0), ConstantTail(Fraction(6, 5)),
                           start=1))


def test_no_route_makes_a_fraction_per_weight(capsys, fraction_reads_refused):
    sigma, tau = GUARD_PAIR
    with pytest.raises(AssertionError, match="a Fraction per weight"):
        sigma.eval(0)                               # the positive control of the guard
    assert stieltjes_weights(sigma, tau, 6).verdict == PASS
    assert catalan_like(sigma, tau, 12)[2] == Fraction(4, 9) + Fraction(7, 5)
    assert motzkin_oracle(sigma, tau, 8) == catalan_like(sigma, tau, 8)[8]
    assert tp_by_leading_minors(*read_weights(sigma, tau, 9)).witness == {
        "rows": [3], "cols": [3], "value": "-1/3"}
    pair = ["--sigma", json.dumps(sigma.to_json()), "--tau", json.dumps(tau.to_json())]
    for argv in (["gen", *pair, "-n", "30"], ["matrix", *pair, "-n", "10"],
                 ["hankel-det", *pair, "--depth", "6"],
                 ["hankel-det", *pair, "--depth", "6", "--shift", "1"],
                 ["stieltjes", *pair, "--depth", "6"],
                 ["verify", "--name", "bell", "--depth", "8"],
                 ["verify", "--name", "catalan", "--depth", "8"]):
        assert main(argv) == 0, argv
    assert main(["tp", *pair, "--depth", "8"]) == 1      # dominance runs, guarded too
    assert capsys.readouterr().err == ""


def test_principal_minor_oracle():
    # a zero leading minor hides the negative entry from Sylvester's criterion
    assert not principal_minors_nonneg(DenseMatrix([[0, 0], [0, -1]]))
    assert principal_minors_nonneg(DenseMatrix([[2, 0], [0, 0]]))

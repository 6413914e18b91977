"""Tests for the coefficient matrix and its total-positivity routes."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import catmoments.jacobi

from catmoments.cli import TP_MAX_DEPTH
from catmoments.exact import FALSE, TRUE
from catmoments.jacobi import (
    JacobiParams,
    TPReport,
    _first_negative,
    _int_section,
    tp_by_leading_minors,
    tp_certify,
    tp_criterion_pqst,
    tp_sufficient_dominance,
)
from catmoments.recursive import read_weights
from catmoments.seqspec import (
    CATALOG,
    ConstantTail,
    PolynomialTail,
    SequenceSpec,
    _horner,
    catalog_lookup,
)
from oracle import (
    all_minors_nonneg,
    det_elimination,
    fraction_weights,
    int_weights,
    is_nondecreasing_from_one,
    jacobi_section,
    jacobi_window,
    pqst_matrix,
    window_minors,
)


def _weights(name, depth):
    """s_0..s_depth and t_1..t_depth of a catalog entry, as Fractions."""
    entry = catalog_lookup(name)
    return fraction_weights(entry.sigma, depth + 1), fraction_weights(entry.tau, depth)


def _ints(name, depth):
    """The same weights as the section routes take them: ints over one L."""
    entry = catalog_lookup(name)
    return read_weights(entry.sigma, entry.tau, depth + 1)


def _chain(sigma, tau, depth):
    """The leading minors D_0..D_depth of J of sigma and tau."""
    s, t = fraction_weights(sigma, depth + 1), fraction_weights(tau, depth)
    return tuple(window_minors(s, t, 0))


def test_section_layout():
    section = jacobi_section(*_weights("delannoy", 2))
    assert section[0, 0] == 3 and section[1, 1] == 3 and section[2, 2] == 3
    assert section[1, 0] == 4 and section[2, 1] == 2
    assert section[0, 1] == 1 and section[1, 2] == 1
    assert section[0, 2] == 0 and section[2, 0] == 0


def test_window_uses_absolute_indices():
    window = jacobi_window(*_weights("factorial", 6), 2, 4)
    assert [window[i, i] for i in range(3)] == [5, 7, 9]
    assert window[1, 0] == 9 and window[2, 1] == 16


def test_leading_minors_match_determinants_for_catalog():
    for entry in CATALOG.values():
        s, t = fraction_weights(entry.sigma, 11), fraction_weights(entry.tau, 10)
        chain = window_minors(s, t, 0)
        for n in range(11):
            assert chain[n] == det_elimination(jacobi_section(s[:n + 1], t[:n]))


def test_factorial_chain_is_shifted_factorials():
    chain = tuple(window_minors(*_weights("factorial", 6), 0))
    assert list(chain) == [1, 2, 6, 24, 120, 720, 5040]


def test_catalan_chain_is_all_ones():
    chain = tuple(window_minors(*_weights("catalan", 8), 0))
    assert set(chain) == {Fraction(1)}


def test_zero_diagonal_gives_negative_minor():
    chain = _chain(SequenceSpec.constant(0, start=0), SequenceSpec.constant(1, start=1), 1)
    assert chain[1] == -1


@pytest.mark.parametrize("s, t", [([], []), ([2, 2], [0, 1])])
@pytest.mark.parametrize("route", [jacobi_section, tp_by_leading_minors])
def test_section_routes_refuse_weight_lists_of_no_section(route, s, t):
    # s_0..s_d and t_1..t_d, d >= 0: no section at depth -1, and no t_0
    with pytest.raises(ValueError, match="need s_0..s_d and t_1..t_d"):
        route(s, t) if route is jacobi_section else route(*int_weights(s, t))


@pytest.mark.parametrize("s, t", [([], []), ([2, 2], [0, 1])])
def test_int_section_refuses_weight_lists_of_no_section(s, t):
    with pytest.raises(ValueError, match="need s_0..s_d and t_1..t_d"):
        _int_section(s, t, 1)


def test_int_section_is_the_dense_section_over_L():
    s = [Fraction(1, 2), Fraction(3), Fraction(-2, 3), Fraction(0)]
    t = [Fraction(5, 4), Fraction(0), Fraction(-7)]
    rows, scale = _int_section(*int_weights(s, t))
    assert scale == 12 and all(type(v) is int for row in rows for v in row)
    section = [[Fraction(v, scale) for v in row] for row in rows]
    assert section == [list(row) for row in jacobi_section(s, t).entries]
    assert _int_section([3], [], 1) == ([[3]], 1)


def test_params_reject_negative_values():
    with pytest.raises(ValueError):
        JacobiParams(1, -1, 2, 1)


def test_params_expand_to_weight_specs():
    assert read_weights(*pqst_matrix(JacobiParams(3, 4, 3, 2)), 3) == ([3, 3, 3], [4, 2], 1)


def test_criterion_classical_parameter_sets():
    assert tp_criterion_pqst(JacobiParams(3, 4, 3, 2)).verdict == TRUE
    assert tp_criterion_pqst(JacobiParams(2, 2, 2, 1)).verdict == TRUE
    assert tp_criterion_pqst(JacobiParams(1, 3, 2, 1)).verdict == FALSE


def test_criterion_negative_discriminant_is_false():
    assert tp_criterion_pqst(JacobiParams(5, 1, 1, 1)).verdict == FALSE


def test_criterion_boundary_squaring_branch():
    # (1,2,1,1/4): disc 0, 2q - ps = 3 > 0, 0 < 9: FALSE
    assert tp_criterion_pqst(JacobiParams(1, 2, 1, Fraction(1, 4))).verdict == FALSE
    # (1,2,2,0): disc 4, 2q - ps = 2 > 0, p^2 disc = (2q - ps)^2: boundary TRUE
    assert tp_criterion_pqst(JacobiParams(1, 2, 2, 0)).verdict == TRUE


def test_dominance_classical_verdicts():
    little = catalog_lookup("schroder_little")
    assert tp_sufficient_dominance(little.sigma, little.tau).verdict == TRUE

    delannoy = catalog_lookup("delannoy")
    report = tp_sufficient_dominance(delannoy.sigma, delannoy.tau)
    assert report.verdict == FALSE
    assert report.depth == 1

    bell = catalog_lookup("bell")
    assert tp_sufficient_dominance(bell.sigma, bell.tau).verdict == TRUE


def test_dominance_rejects_small_leading_weight():
    sigma = SequenceSpec.constant(Fraction(1, 2), start=0)
    tau = SequenceSpec.constant(0, start=1)
    report = tp_sufficient_dominance(sigma, tau)
    assert report.verdict == FALSE and report.depth == 0


def test_dominance_rejects_negative_subdiagonal_weight():
    # s_k >= t_k + 1 holds throughout, but t_1 = -2 is an entry of J
    sigma = SequenceSpec((Fraction(1), Fraction(-1)), ConstantTail(Fraction(5)), start=0)
    tau = SequenceSpec((Fraction(-2),), ConstantTail(Fraction(1)), start=1)
    report = tp_sufficient_dominance(sigma, tau)
    assert (report.verdict, report.depth, report.detail) == (FALSE, 1, "t_1 = -2 < 0")


def test_dominance_needs_a_nonnegative_subdiagonal_tail():
    # t_k = 100 - k turns negative at k = 101, while s_k - t_k - 1 = 99 + k
    # stays positive
    sigma = SequenceSpec.constant(200, start=0)
    tau = SequenceSpec.polynomial([100, -1], start=1)
    report = tp_sufficient_dominance(sigma, tau)
    assert (report.verdict, report.depth, report.detail) == (FALSE, 101, "t_101 = -1 < 0")


def test_dominance_bounded_verdict_when_tail_uncertifiable():
    # s_k - t_k - 1 = (k - 100)^2 - 1 dips negative at k = 100 alone, far
    # past the first tail index; the tails are searched, not probed
    sigma = SequenceSpec.polynomial([10000, -200, 1], start=0)
    tau = SequenceSpec.constant(0, start=1)
    report = tp_sufficient_dominance(sigma, tau)
    assert (report.verdict, report.depth, report.detail) == (
        FALSE, 100, "s_100 = 0 < t_100 + 1 = 1")


def test_dominance_holds_through_a_double_root_of_the_gap():
    # s_k - t_k - 1 = (k - 100)^2 touches 0 at k = 100 and never falls below
    sigma = SequenceSpec.polynomial([10002, -200, 1], start=0)
    tau = SequenceSpec.constant(1, start=1)
    assert tp_sufficient_dominance(sigma, tau) == TPReport(
        "dominance", TRUE, detail="condition holds for all k (tails decided exactly from k = 1)")


def _brute_first_negative(poly, lo):
    """Every k from lo up to the Cauchy root bound, past which P keeps the
    sign of its leading coefficient."""
    poly = list(itertools.dropwhile(lambda c: c == 0, poly))
    if not poly:
        return None
    bound = 2 + max(map(abs, poly[1:]), default=0) // abs(poly[0])
    values = _horner(poly, range(lo, max(lo, bound) + 1))
    return next((k for k, v in zip(itertools.count(lo), values) if v < 0), None)


@st.composite
def tail_polynomials(draw):
    """An int polynomial, highest degree first, of degree <= 6 and a start lo
    in -3..12: rational coefficients scaled to ints, either drawn, or a drawn
    polynomial times (k - r)^2, or a constant times (k - r_1)...(k - r_m)
    for m <= 4 roots, one of them maybe doubled, with each r at lo or in
    -3..12 (shapes that fall, rise and fall again); the last two shifted by
    a small constant, and all behind up to two leading zeros."""
    lo = draw(st.integers(-3, 12))
    coeff = st.fractions(-6, 6, max_denominator=6)
    root = st.one_of(st.just(lo), st.integers(-3, 12))
    shape = draw(st.sampled_from(("drawn", "double root", "roots")))
    if shape == "drawn":
        poly = draw(st.lists(coeff, min_size=1, max_size=7))
    else:
        if shape == "double root":
            poly, roots = draw(st.lists(coeff, min_size=1, max_size=5)), [draw(root)] * 2
        else:
            poly, roots = [draw(coeff)], draw(st.lists(root, min_size=1, max_size=4))
            roots += roots[:draw(st.integers(0, 1))]
        for r in roots:
            poly = [a - r * b for a, b in zip([*poly, 0], [0, *poly])]
        poly[-1] += draw(st.sampled_from((-1, 0, 0, Fraction(1, 2))))
    scale = math.lcm(*(c.denominator for c in poly))
    return [0] * draw(st.integers(0, 2)) + [int(c * scale) for c in poly], lo


@settings(max_examples=300, deadline=None)
@given(tail_polynomials())
def test_first_negative_matches_brute_force(case):
    poly, lo = case
    assert _first_negative(poly, lo) == _brute_first_negative(poly, lo)


def test_first_negative_finds_a_far_root_without_enumerating():
    big = 10**15
    assert _first_negative([1, -2 * big, big * big - 1], 0) == big
    assert _first_negative([1, -2 * big, big * big], 0) is None


def test_first_negative_evaluation_count(monkeypatch):
    # (k - R)^2 (k - 2R)^2 at R = 10^6, a degree-4 tail that touches 0 twice
    # (None), and the same minus 1 (negative from k = R): forward differences
    # split the search into monotone stretches, each bisected, with the
    # Cauchy bound closing a stretch that never ends.  Doubling past such a
    # stretch instead takes 349 and 114 evaluations, and false position,
    # which crawls toward a double root, hundreds of thousands on the first
    calls = []

    def counting(poly, indices):
        calls.append(len(indices))
        return _horner(poly, indices)

    monkeypatch.setattr(catmoments.jacobi, "_horner", counting)
    big = 10**6
    poly = [1, -6 * big, 13 * big**2, -12 * big**3, 4 * big**4]
    assert (_first_negative(poly, 0), sum(calls)) == (None, 316)
    calls.clear()
    assert (_first_negative([*poly[:-1], poly[-1] - 1], 0), sum(calls)) == (big, 92)


def test_dominance_chain_property_randomized():
    rng = random.Random(1118)
    for _ in range(40):
        t_values = [Fraction(rng.randint(0, 8), rng.randint(1, 4)) for _ in range(10)]
        s_values = [Fraction(1) + Fraction(rng.randint(0, 6), rng.randint(1, 3))]
        s_values += [t + 1 + Fraction(rng.randint(0, 6), rng.randint(1, 3))
                     for t in t_values]
        sigma = SequenceSpec(tuple(s_values), ConstantTail(Fraction(0)), start=0)
        tau = SequenceSpec(tuple(t_values), ConstantTail(Fraction(0)), start=1)
        chain = _chain(sigma, tau, 10)
        assert is_nondecreasing_from_one(chain)


def test_leading_minor_route_certifies_catalog():
    for entry in CATALOG.values():
        assert tp_by_leading_minors(*read_weights(entry.sigma, entry.tau, 9)).verdict == TRUE


def test_leading_minor_route_decides_reducible_matrices():
    # five 1 x 1 blocks, each the minor 1
    assert tp_by_leading_minors([1] * 5, [0] * 4, 1) == TPReport(
        "contiguous_minors", TRUE, depth=4)
    # blocks 0..1 and 2..3 of s = (1, 1, 1, 1), t = (1, 0, 2): the chain
    # 1, -1 of the second refutes, while the leading chain 1, 0, 0, 0 does not
    report = tp_by_leading_minors([1, 1, 1, 1], [1, 0, 2], 1)
    assert report.witness == {"rows": [2, 3], "cols": [2, 3], "value": "-1"}


def test_leading_minor_route_needs_positive_subdiagonal():
    # sigma = (1, -1, 1, ...), tau = (-3, 1, ...): chain 1, 2, 1, -1, ...
    # stays positive at depth 2 although J has negative entries
    sigma = SequenceSpec((Fraction(1), Fraction(-1)), ConstantTail(Fraction(1)), start=0)
    tau = SequenceSpec((Fraction(-3),), ConstantTail(Fraction(1)), start=1)
    assert _chain(sigma, tau, 2) == (1, 2, 1)
    report = tp_by_leading_minors(*read_weights(sigma, tau, 3))
    assert (report.criterion, report.verdict) == ("contiguous_minors", FALSE)
    assert report.witness == {"rows": [1], "cols": [1], "value": "-1"}


def test_leading_minor_route_decides_zero_minors():
    # s = (1, 1, ...), t = 1: chain 1, 0 at depth 1, the last minor of the
    # block (and the 2x2 section really is totally positive, so zero must not
    # be read as a refutation)
    ones = [Fraction(1)] * 4
    report = tp_by_leading_minors(*int_weights(ones[:2], ones[:1]))
    assert (report.criterion, report.verdict) == ("contiguous_minors", TRUE)
    assert all_minors_nonneg(jacobi_section(ones[:2], ones[:1]), 2).status == TRUE
    # one step deeper the chain turns negative: D_2 = -1 refutes outright,
    # zeros notwithstanding
    deeper = tp_by_leading_minors(*int_weights(ones, ones[:3]))
    assert deeper.verdict == FALSE
    assert deeper.witness["value"] == "-1"


def test_sections_catalan_depth_six():
    assert tp_by_leading_minors(*_ints("catalan", 6)).verdict == TRUE


def test_sections_refute_bad_parameters_with_witness():
    report = tp_by_leading_minors(*read_weights(*pqst_matrix(JacobiParams(1, 3, 2, 1)), 5))
    assert report.verdict == FALSE
    assert report.witness == {"rows": [0, 1], "cols": [0, 1], "value": "-1"}


def test_sections_one_by_one():
    assert tp_by_leading_minors([5], [], 1).verdict == TRUE
    assert tp_by_leading_minors([0], [], 1) == TPReport("contiguous_minors", TRUE, depth=0)


def test_sections_decide_reducible_pairs_at_the_depth_cap():
    # factorial's weights with t_1 = 0: blocks 0 and 1..2000, every minor
    # positive; sigma = tau = (0, 1, 1, ...): blocks 0 and 1..2000, whose
    # chain 1, 0, -1 refutes on rows 1..3
    factorial = (SequenceSpec((), PolynomialTail((1, 2)), start=0),
                 SequenceSpec((0,), PolynomialTail((0, 0, 1)), start=1))
    assert tp_certify(*factorial, TP_MAX_DEPTH) == TPReport(
        "contiguous_minors", TRUE, depth=TP_MAX_DEPTH)
    ones = tuple(SequenceSpec((0,), ConstantTail(1), start=start) for start in (0, 1))
    assert tp_certify(*ones, TP_MAX_DEPTH) == TPReport(
        "contiguous_minors", FALSE, depth=TP_MAX_DEPTH,
        witness={"rows": [1, 2, 3], "cols": [1, 2, 3], "value": "-1"})


def test_sections_agree_with_exhaustive_minor_scan():
    rng = random.Random(404)
    for _ in range(15):
        sigma = SequenceSpec(
            tuple(Fraction(rng.randint(0, 4)) for _ in range(5)),
            ConstantTail(Fraction(1)), start=0)
        tau = SequenceSpec(
            tuple(Fraction(rng.randint(0, 4)) for _ in range(4)),
            ConstantTail(Fraction(1)), start=1)
        s, t = fraction_weights(sigma, 5), fraction_weights(tau, 4)
        sections = tp_by_leading_minors(*int_weights(s, t))
        exhaustive = all_minors_nonneg(jacobi_section(s, t), 5)
        assert sections.verdict == exhaustive.status


def test_certify_prefers_strongest_applicable_route():
    catalan = catalog_lookup("catalan")
    report = tp_certify(catalan.sigma, catalan.tau, 8)
    assert report.verdict == TRUE and report.criterion == "dominance"

    factorial = catalog_lookup("factorial")
    report = tp_certify(factorial.sigma, factorial.tau, 8)
    assert report.verdict == TRUE and report.criterion == "leading_minors"

    bad = pqst_matrix(JacobiParams(1, 3, 2, 1))
    assert tp_certify(*bad, 6).verdict == FALSE


def test_certify_refuses_negative_depth():
    # catalan's dominance TRUE holds at every depth, but there is no depth -1
    entry = catalog_lookup("catalan")
    with pytest.raises(ValueError, match="depth must be >= 0"):
        tp_certify(entry.sigma, entry.tau, -1)


def test_report_json_shape():
    # s_0 = 1 and t_1 = 3: the leading chain 1, -1 refutes
    report = tp_by_leading_minors(*read_weights(*pqst_matrix(JacobiParams(1, 3, 2, 1)), 5))
    data = report.to_json()
    assert data["criterion"] == "leading_minors"
    assert data["verdict"] == FALSE
    assert data["depth"] == 4
    assert "witness" in data

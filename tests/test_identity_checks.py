"""The three structural identity checks and the path oracle on integers.

verify_RJ_identity, verify_step_factorization and verify_H_eq_RTRt certify
the rows of the recursive matrix, given as the (row, den) pairs of
recursive._scaled_rows, the int weights over L and the terms they are given,
forming each entry of a product with a banded or diagonal factor as a short
band sum of ints.
tests/oracle.py keeps the same three checks as dense Fraction products.
Changing any one entry of the recursive matrix or of the terms must make
each check FALSE, on integral weights (L = 1) and on rational ones, and on
random weight pairs (catalog, rational, zero and negative weights), with or
without such a change, each check must give the dense oracle's verdict.
verify only runs the checks on the integral catalog weights, so the random
pairs are what loads the scaling by L > 1.  motzkin_oracle, which walks its
paths on ints over L**n, must give column 0 of oracle.fraction_triangle.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import catmoments.cli
from catmoments.exact import FALSE, TRUE
from catmoments.hankel import verify_H_eq_RTRt
from catmoments.recursive import (
    _scaled_rows,
    catalan_like,
    motzkin_oracle,
    read_weights,
    verify_RJ_identity,
    verify_step_factorization,
)
from catmoments.seqspec import CATALOG, ConstantTail, PolynomialTail, SequenceSpec, catalog_lookup
from oracle import (
    dense_H_eq_RTRt,
    dense_RJ_identity,
    dense_step_factorization,
    fraction_rows,
    fraction_terms,
)

DEPTH = 4


def _rows(pair, depth: int):
    """The (row, den) pairs of rows 0..depth of R and the weights
    S = L s_0..L s_depth, T = L t_1..L t_depth and L they are built on."""
    weights = read_weights(*pair, depth + 1)
    return (list(_scaled_rows(*weights, depth)), *weights)


def _changed(rows: list, n: int, k: int, delta) -> list:
    """The rows with entry (n, k) moved by the rational delta = p / q; row n
    goes over den * q, off L**n when q > 1.  (n, k) past the last row is
    left alone."""
    rows = list(rows)
    if n < len(rows):
        row, den = rows[n]
        delta = Fraction(delta)
        row = [v * delta.denominator for v in row]
        row[k] += delta.numerator * den
        rows[n] = (row, den * delta.denominator)
    return rows


def _changed_terms(terms: list, q: int, delta) -> list:
    """A copy of terms with term q moved by delta."""
    terms = list(terms)
    terms[q] += delta
    return terms


CATALAN = catalog_lookup("catalan").sigma, catalog_lookup("catalan").tau
CATALAN_R, CATALAN_S, CATALAN_T, CATALAN_L = _rows(CATALAN, DEPTH + 1)
CATALAN_TERMS = catalan_like(*CATALAN, 2 * DEPTH)

# weights over 2, 3 and 5, every t nonzero: rows over L**n = 30**n
RATIONAL = (SequenceSpec((Fraction(1, 2),), ConstantTail(Fraction(3, 2)), start=0),
            SequenceSpec((Fraction(2, 3),), ConstantTail(Fraction(1, 5)), start=1))

# each changed-entry test runs on both pairs, moving the entry by each change
PAIRS = (CATALAN, RATIONAL)
CHANGES = (1, Fraction(-1, 2))

TRIANGLE = [(n, k) for n in range(DEPTH + 1) for k in range(n + 1)]


@pytest.mark.parametrize("n, k", TRIANGLE)
def test_shift_identity_rejects_a_changed_entry(n, k):
    for pair in PAIRS:
        R, s, t, scale = _rows(pair, DEPTH)
        assert verify_RJ_identity(R, s, t, scale, DEPTH) == TRUE
        for delta in CHANGES:
            assert verify_RJ_identity(_changed(R, n, k, delta), s, t, scale, DEPTH) == FALSE


@pytest.mark.parametrize("n, k", [(n, k) for n in range(DEPTH + 2) for k in range(n + 1)])
def test_step_factorization_rejects_a_changed_entry(n, k):
    for pair in PAIRS:
        R, s, t, scale = _rows(pair, DEPTH + 1)
        assert verify_step_factorization(R, s, t, scale, DEPTH) == TRUE
        for delta in CHANGES:
            assert verify_step_factorization(_changed(R, n, k, delta), s, t, scale, DEPTH) == FALSE


@pytest.mark.parametrize("n, k", TRIANGLE)
def test_hankel_factorization_rejects_a_changed_entry(n, k):
    for pair in PAIRS:
        R, _, t, scale = _rows(pair, DEPTH)
        terms = catalan_like(*pair, 2 * DEPTH)
        assert verify_H_eq_RTRt(R, t, scale, terms, DEPTH) == TRUE
        for delta in CHANGES:
            assert verify_H_eq_RTRt(_changed(R, n, k, delta), t, scale, terms, DEPTH) == FALSE


@pytest.mark.parametrize("q", range(2 * DEPTH + 1))
def test_hankel_factorization_rejects_a_changed_term(q):
    for pair in PAIRS:
        R, _, t, scale = _rows(pair, DEPTH)
        terms = catalan_like(*pair, 2 * DEPTH)
        for delta in CHANGES:
            assert verify_H_eq_RTRt(R, t, scale, _changed_terms(terms, q, delta), DEPTH) == FALSE


@pytest.mark.parametrize("check, args, message", [
    (verify_step_factorization, (CATALAN_R, CATALAN_S, CATALAN_T, CATALAN_L, -1),
     "n must be >= 0"),
    (verify_H_eq_RTRt, (CATALAN_R, CATALAN_T, CATALAN_L, CATALAN_TERMS, -1),
     "depth must be >= 0"),
])
def test_checks_refuse_a_negative_size(check, args, message):
    with pytest.raises(ValueError, match=message):
        check(*args)


@pytest.mark.parametrize("R, terms, message", [
    (CATALAN_R[:DEPTH], CATALAN_TERMS,
     rf"depth must be >= 0 and <= {DEPTH - 1}, got {DEPTH}"),
    (CATALAN_R, CATALAN_TERMS[:-1], rf"need {2 * DEPTH + 1} terms for depth {DEPTH}, have {2 * DEPTH}"),
], ids=["depth-beyond-R", "too-few-terms"])
def test_hankel_factorization_refuses_a_short_R_or_term_list(R, terms, message):
    with pytest.raises(ValueError, match=message):
        verify_H_eq_RTRt(R, CATALAN_T, CATALAN_L, terms, DEPTH)


@pytest.mark.parametrize("check, args, message", [
    (verify_RJ_identity, (CATALAN_R, CATALAN_S[:DEPTH], CATALAN_T, CATALAN_L, DEPTH),
     rf"need s_0\.\.s_{DEPTH} and t_1\.\.t_{DEPTH}"),
    (verify_RJ_identity, (CATALAN_R, CATALAN_S, CATALAN_T[:DEPTH - 1], CATALAN_L, DEPTH),
     rf"need s_0\.\.s_{DEPTH} and t_1\.\.t_{DEPTH}"),
    (verify_step_factorization, (CATALAN_R, CATALAN_S[:DEPTH], CATALAN_T, CATALAN_L, DEPTH - 1),
     rf"need s_0\.\.s_{DEPTH} and t_1\.\.t_{DEPTH}"),
    (verify_H_eq_RTRt, (CATALAN_R, CATALAN_T[:DEPTH - 1], CATALAN_L, CATALAN_TERMS, DEPTH),
     rf"need t_1\.\.t_{DEPTH}, have {DEPTH - 1} weights"),
], ids=["shift-short-s", "shift-short-t", "step-short-s", "hankel-short-t"])
def test_checks_refuse_weight_lists_short_of_the_depth(check, args, message):
    # a short list would otherwise end the band sums early, unseen
    with pytest.raises(ValueError, match=message):
        check(*args)


def test_step_factorization_needs_one_row_more_than_n():
    R = CATALAN_R[:DEPTH + 1]
    assert verify_step_factorization(R, CATALAN_S, CATALAN_T, CATALAN_L, DEPTH - 1) == TRUE
    with pytest.raises(ValueError, match=rf"depth must lie in 1\.\.{DEPTH}"):
        verify_step_factorization(R, CATALAN_S, CATALAN_T, CATALAN_L, DEPTH)


def test_step_factorization_pins_row_0():
    # R J = R-bar is linear in R, so only row 0 tells 2 R from R
    doubled = [([2 * v for v in row], den) for row, den in CATALAN_R]
    assert verify_RJ_identity(doubled, CATALAN_S, CATALAN_T, CATALAN_L, DEPTH + 1) == TRUE
    assert verify_step_factorization(doubled, CATALAN_S, CATALAN_T, CATALAN_L, DEPTH) == FALSE
    assert dense_step_factorization(fraction_rows(doubled), *CATALAN, DEPTH) == FALSE


def test_checks_take_rows_as_lists_or_tuples():
    for rows in ([(list(row), den) for row, den in CATALAN_R],
                 [(tuple(row), den) for row, den in CATALAN_R]):
        assert verify_RJ_identity(rows, CATALAN_S, CATALAN_T, CATALAN_L, DEPTH + 1) == TRUE
        assert verify_step_factorization(rows, CATALAN_S, CATALAN_T, CATALAN_L, DEPTH) == TRUE
        assert verify_H_eq_RTRt(rows, CATALAN_T, CATALAN_L, CATALAN_TERMS, DEPTH) == TRUE


def test_checks_read_each_row_over_its_own_den():
    # the same R with every row over three times its den passes; R / 3
    # (the ints kept, the dens tripled) passes the linear shift identity only
    for pair in PAIRS:
        R, s, t, scale = _rows(pair, DEPTH + 1)
        terms = catalan_like(*pair, 2 * DEPTH)
        same = [([3 * v for v in row], 3 * den) for row, den in R]
        third = [(row, 3 * den) for row, den in R]
        assert verify_step_factorization(same, s, t, scale, DEPTH) == TRUE
        assert verify_H_eq_RTRt(same, t, scale, terms, DEPTH) == TRUE
        assert verify_RJ_identity(third, s, t, scale, DEPTH + 1) == TRUE
        assert verify_step_factorization(third, s, t, scale, DEPTH) == FALSE
        assert verify_H_eq_RTRt(third, t, scale, terms, DEPTH) == FALSE


@pytest.mark.parametrize("depth", [0, DEPTH + 1])
def test_shift_identity_refuses_a_depth_outside_the_matrix(depth):
    with pytest.raises(ValueError, match=rf"depth must lie in 1\.\.{DEPTH}"):
        verify_RJ_identity(CATALAN_R[:DEPTH + 1], CATALAN_S, CATALAN_T, CATALAN_L, depth)


# ------------------------------------------------- against the dense oracle

DENOMINATORS = (1, 1, 2, 3, 5, 7)

weights = st.one_of(
    st.just(Fraction(0)),
    st.integers(-3, 6).map(Fraction),
    st.builds(Fraction, st.integers(-12, 24), st.sampled_from(DENOMINATORS)),
)
tails = st.one_of(
    weights.map(ConstantTail),
    st.lists(weights, min_size=1, max_size=3).map(lambda cs: PolynomialTail(tuple(cs))),
)


def _spec(start):
    return st.builds(lambda prefix, tail: SequenceSpec(tuple(prefix), tail, start=start),
                     st.lists(weights, max_size=4), tails)


ZERO_PAIR = (SequenceSpec.constant(0, start=0), SequenceSpec.constant(0, start=1))

pairs = st.one_of(
    st.sampled_from([(entry.sigma, entry.tau) for entry in CATALOG.values()]),
    st.just(ZERO_PAIR),
    st.tuples(_spec(0), _spec(1)),
)

# a change of one entry, or none (delta 0)
deltas = st.sampled_from((Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2)))


@settings(max_examples=80, deadline=None)
@given(pair=pairs, other=st.one_of(st.none(), pairs), depth=st.integers(1, 5),
       delta=deltas, data=st.data())
def test_shift_identity_agrees_with_the_dense_product(pair, other, depth, delta, data):
    n = data.draw(st.integers(0, depth))
    R = _changed(_rows(pair, depth)[0], n, data.draw(st.integers(0, n)), delta)
    weights = pair if other is None else other
    verdict = verify_RJ_identity(R, *read_weights(*weights, depth + 1), depth)
    assert verdict == dense_RJ_identity(fraction_rows(R), *weights, depth)
    if other is None:
        assert verdict == (TRUE if delta == 0 else FALSE)


@settings(max_examples=80, deadline=None)
@given(pair=pairs, n=st.integers(0, 5), delta=deltas, data=st.data())
def test_step_factorization_agrees_with_the_dense_product(pair, n, delta, data):
    row = data.draw(st.integers(0, n + 1))
    R, s, t, scale = _rows(pair, n + 1)
    R = _changed(R, row, data.draw(st.integers(0, row)), delta)
    verdict = verify_step_factorization(R, s, t, scale, n)
    assert verdict == dense_step_factorization(fraction_rows(R), *pair, n)
    assert verdict == (TRUE if delta == 0 else FALSE)


@settings(max_examples=80, deadline=None)
@given(pair=pairs, depth=st.integers(0, 4), change_terms=st.booleans(),
       delta=deltas, data=st.data())
def test_hankel_factorization_agrees_with_the_dense_product(pair, depth, change_terms,
                                                           delta, data):
    (R, _, t, scale), terms = _rows(pair, depth), catalan_like(*pair, 2 * depth)
    if change_terms:
        terms = _changed_terms(terms, data.draw(st.integers(0, 2 * depth)), delta)
    else:
        row = data.draw(st.integers(0, depth))
        R = _changed(R, row, data.draw(st.integers(0, row)), delta)
    verdict = verify_H_eq_RTRt(R, t, scale, terms, depth)
    assert verdict == dense_H_eq_RTRt(fraction_rows(R), pair[1], terms, depth)
    if delta == 0:
        assert verdict == TRUE


def test_path_oracle_gives_the_fraction_triangle_on_rational_weights():
    # L = 30: every step of a path weighs 30 times its weight, up steps too
    assert [motzkin_oracle(*RATIONAL, n) for n in range(11)] == fraction_terms(*RATIONAL, 10)


@settings(max_examples=60, deadline=None)
@given(pair=pairs, n=st.integers(0, 10))
def test_path_oracle_agrees_with_the_fraction_triangle(pair, n):
    assert motzkin_oracle(*pair, n) == fraction_terms(*pair, n)[n]


@pytest.mark.parametrize("step", [TRUE, FALSE])
def test_verify_checks_the_shift_identity_alone_only_past_a_failed_step(monkeypatch, step):
    # a TRUE step factorization is the shift identity one row deeper, so the
    # depth-d pass runs only when the step factorization fails
    calls = []
    real = catmoments.cli.verify_RJ_identity
    monkeypatch.setattr(catmoments.cli, "verify_step_factorization",
                        lambda R, s, t, scale, n: step)
    monkeypatch.setattr(catmoments.cli, "verify_RJ_identity", lambda R, s, t, scale, depth:
                        calls.append(depth) or real(R, s, t, scale, depth))
    checks = catmoments.cli.verify_checks(catalog_lookup("catalan"), DEPTH)
    assert [label for label, _ in checks[2:4]] == ["shift_identity", "step_factorization"]
    assert dict(checks)["shift_identity"] is True
    assert dict(checks)["step_factorization"] is (step == TRUE)
    assert calls == ([] if step == TRUE else [DEPTH])

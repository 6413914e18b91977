"""The three structural identity checks: band sums against dense products.

verify_RJ_identity, verify_step_factorization and verify_H_eq_RTRt certify
the rows of the recursive matrix, the weights and the terms they are given,
forming each entry of a product with a banded or diagonal factor as a short
band sum.
tests/oracle.py keeps the same three checks as dense Fraction products.
Changing any one entry of the recursive matrix or of the terms must make
each check FALSE, and on random weight pairs (catalog, rational, zero
weights), with or without such a change, each check must give the dense
oracle's verdict.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import catmoments.cli
from catmoments.exact import FALSE, TRUE
from catmoments.hankel import verify_H_eq_RTRt
from catmoments.recursive import (
    build_recursive,
    catalan_like,
    verify_RJ_identity,
    verify_step_factorization,
)
from catmoments.seqspec import CATALOG, ConstantTail, PolynomialTail, SequenceSpec, catalog_lookup
from oracle import dense_H_eq_RTRt, dense_RJ_identity, dense_step_factorization

DEPTH = 4


def _changed(R: list, n: int, k: int, delta) -> list:
    """The rows R with entry (n, k) moved by delta; (n, k) past the last row
    is left alone."""
    rows = [list(row) for row in R]
    if n < len(rows):
        rows[n][k] += delta
    return [tuple(row) for row in rows]


def _changed_terms(terms: list, q: int, delta) -> list:
    """A copy of terms with term q moved by delta."""
    terms = list(terms)
    terms[q] += delta
    return terms


CATALAN = catalog_lookup("catalan").sigma, catalog_lookup("catalan").tau
CATALAN_TAU = CATALAN[1]
CATALAN_R = build_recursive(*CATALAN, DEPTH + 1)
CATALAN_TERMS = catalan_like(*CATALAN, 2 * DEPTH)

TRIANGLE = [(n, k) for n in range(DEPTH + 1) for k in range(n + 1)]


@pytest.mark.parametrize("n, k", TRIANGLE)
def test_shift_identity_rejects_a_changed_entry(n, k):
    R = _changed(build_recursive(*CATALAN, DEPTH), n, k, 1)
    assert verify_RJ_identity(R, *CATALAN, DEPTH) == FALSE


@pytest.mark.parametrize("n, k", [(n, k) for n in range(DEPTH + 2) for k in range(n + 1)])
def test_step_factorization_rejects_a_changed_entry(n, k):
    assert verify_step_factorization(_changed(CATALAN_R, n, k, 1), *CATALAN, DEPTH) == FALSE


@pytest.mark.parametrize("n, k", TRIANGLE)
def test_hankel_factorization_rejects_a_changed_entry(n, k):
    R = _changed(build_recursive(*CATALAN, DEPTH), n, k, 1)
    assert verify_H_eq_RTRt(R, CATALAN_TAU, CATALAN_TERMS, DEPTH) == FALSE


@pytest.mark.parametrize("q", range(2 * DEPTH + 1))
def test_hankel_factorization_rejects_a_changed_term(q):
    terms = _changed_terms(CATALAN_TERMS, q, 1)
    assert verify_H_eq_RTRt(CATALAN_R, CATALAN_TAU, terms, DEPTH) == FALSE


@pytest.mark.parametrize("check, args, message", [
    (verify_step_factorization, (CATALAN_R, *CATALAN, -1), "n must be >= 0"),
    (verify_H_eq_RTRt, (CATALAN_R, CATALAN_TAU, CATALAN_TERMS, -1), "depth must be >= 0"),
])
def test_checks_refuse_a_negative_size(check, args, message):
    with pytest.raises(ValueError, match=message):
        check(*args)


@pytest.mark.parametrize("R, terms, message", [
    (build_recursive(*CATALAN, DEPTH - 1), CATALAN_TERMS,
     rf"depth must be >= 0 and <= {DEPTH - 1}, got {DEPTH}"),
    (CATALAN_R, CATALAN_TERMS[:-1], rf"need {2 * DEPTH + 1} terms for depth {DEPTH}, have {2 * DEPTH}"),
], ids=["depth-beyond-R", "too-few-terms"])
def test_hankel_factorization_refuses_a_short_R_or_term_list(R, terms, message):
    with pytest.raises(ValueError, match=message):
        verify_H_eq_RTRt(R, CATALAN_TAU, terms, DEPTH)


def test_step_factorization_needs_one_row_more_than_n():
    R = build_recursive(*CATALAN, DEPTH)
    assert verify_step_factorization(R, *CATALAN, DEPTH - 1) == TRUE
    with pytest.raises(ValueError, match=rf"depth must lie in 1\.\.{DEPTH}"):
        verify_step_factorization(R, *CATALAN, DEPTH)


def test_step_factorization_pins_row_0():
    # R J = R-bar is linear in R, so only row 0 tells 2 R from R
    doubled = [tuple(2 * v for v in row) for row in CATALAN_R]
    assert verify_RJ_identity(doubled, *CATALAN, DEPTH + 1) == TRUE
    assert verify_step_factorization(doubled, *CATALAN, DEPTH) == FALSE
    assert dense_step_factorization(doubled, *CATALAN, DEPTH) == FALSE


def test_checks_take_rows_as_lists_or_tuples():
    as_lists = [list(row) for row in CATALAN_R]
    assert verify_RJ_identity(as_lists, *CATALAN, DEPTH + 1) == TRUE
    assert verify_step_factorization(as_lists, *CATALAN, DEPTH) == TRUE
    assert verify_H_eq_RTRt(as_lists, CATALAN_TAU, CATALAN_TERMS, DEPTH) == TRUE


@pytest.mark.parametrize("depth", [0, DEPTH + 1])
def test_shift_identity_refuses_a_depth_outside_the_matrix(depth):
    with pytest.raises(ValueError, match=rf"depth must lie in 1\.\.{DEPTH}"):
        verify_RJ_identity(build_recursive(*CATALAN, DEPTH), *CATALAN, depth)


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
    R = _changed(build_recursive(*pair, depth), n, data.draw(st.integers(0, n)), delta)
    weights = pair if other is None else other
    verdict = verify_RJ_identity(R, *weights, depth)
    assert verdict == dense_RJ_identity(R, *weights, depth)
    if other is None and delta == 0:
        assert verdict == TRUE


@settings(max_examples=80, deadline=None)
@given(pair=pairs, n=st.integers(0, 5), delta=deltas, data=st.data())
def test_step_factorization_agrees_with_the_dense_product(pair, n, delta, data):
    row = data.draw(st.integers(0, n + 1))
    R = _changed(build_recursive(*pair, n + 1), row, data.draw(st.integers(0, row)), delta)
    verdict = verify_step_factorization(R, *pair, n)
    assert verdict == dense_step_factorization(R, *pair, n)
    assert verdict == (TRUE if delta == 0 else FALSE)


@settings(max_examples=80, deadline=None)
@given(pair=pairs, depth=st.integers(0, 4), change_terms=st.booleans(),
       delta=deltas, data=st.data())
def test_hankel_factorization_agrees_with_the_dense_product(pair, depth, change_terms,
                                                           delta, data):
    R, terms = build_recursive(*pair, depth), catalan_like(*pair, 2 * depth)
    if change_terms:
        terms = _changed_terms(terms, data.draw(st.integers(0, 2 * depth)), delta)
    else:
        row = data.draw(st.integers(0, depth))
        R = _changed(R, row, data.draw(st.integers(0, row)), delta)
    verdict = verify_H_eq_RTRt(R, pair[1], terms, depth)
    assert verdict == dense_H_eq_RTRt(R, pair[1], terms, depth)
    if delta == 0:
        assert verdict == TRUE


@pytest.mark.parametrize("step", [TRUE, FALSE])
def test_verify_checks_the_shift_identity_alone_only_past_a_failed_step(monkeypatch, step):
    # a TRUE step factorization is the shift identity one row deeper, so the
    # depth-d pass runs only when the step factorization fails
    calls = []
    real = catmoments.cli.verify_RJ_identity
    monkeypatch.setattr(catmoments.cli, "verify_step_factorization",
                        lambda R, sigma, tau, n: step)
    monkeypatch.setattr(catmoments.cli, "verify_RJ_identity",
                        lambda R, sigma, tau, depth: calls.append(depth)
                        or real(R, sigma, tau, depth))
    checks = catmoments.cli.verify_checks(catalog_lookup("catalan"), DEPTH)
    assert [label for label, _ in checks[2:4]] == ["shift_identity", "step_factorization"]
    assert dict(checks)["shift_identity"] is True
    assert dict(checks)["step_factorization"] is (step == TRUE)
    assert calls == ([] if step == TRUE else [DEPTH])

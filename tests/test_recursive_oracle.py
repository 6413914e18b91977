"""Differential tests: the integer recurrence kernel against the Fraction
recurrence oracle and the weighted-path enumeration."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catmoments.exact import format_rat
from catmoments.recursive import build_recursive, catalan_like, motzkin_oracle
from catmoments.seqspec import CATALOG, ConstantTail, PolynomialTail, SequenceSpec
from oracle import fraction_terms, fraction_triangle

# distinct primes, so that the common denominator of several weights grows
DENOMINATORS = (1, 1, 1, 2, 3, 5, 7, 11, 13)

weights = st.one_of(
    st.just(Fraction(0)),
    st.integers(-4, 9).map(Fraction),
    st.builds(Fraction, st.integers(-30, 60), st.sampled_from(DENOMINATORS)),
)
tails = st.one_of(
    weights.map(ConstantTail),
    st.lists(weights, min_size=1, max_size=3).map(lambda cs: PolynomialTail(tuple(cs))),
)


class SignCheckedSpec(SequenceSpec):
    """A weight sequence that raises on reading a negative value, so that
    the error shows which weight the recurrence read first."""

    def eval(self, k):
        value = super().eval(k)
        if value < 0:
            raise ValueError(f"negative value {format_rat(value)} at index {k}")
        return value


def specs(start, spec_type=SequenceSpec):
    return st.builds(lambda prefix, tail: spec_type(tuple(prefix), tail, start),
                     st.lists(weights, max_size=4), tails)


def outcome(build, *args):
    """The result of build(*args), or the message of the ValueError it raised."""
    try:
        return build(*args)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(specs(0), specs(1), st.integers(0, 30))
def test_rows_and_terms_match_fraction_oracle(sigma, tau, depth):
    rows = fraction_triangle(sigma, tau, depth)
    matrix = build_recursive(sigma, tau, depth)
    assert [list(matrix.row(n)) for n in range(depth + 1)] == rows
    terms = catalan_like(sigma, tau, depth)
    assert terms == [row[0] for row in rows]
    assert terms == [matrix.entry(n, 0) for n in range(depth + 1)]


@settings(max_examples=40, deadline=None)
@given(specs(0), specs(1), st.integers(0, 10))
def test_terms_match_path_enumeration(sigma, tau, n):
    terms = catalan_like(sigma, tau, n)
    assert terms == [motzkin_oracle(sigma, tau, m) for m in range(n + 1)]


@pytest.mark.parametrize("name", list(CATALOG))
def test_catalog_terms_match_fraction_oracle_at_depth_60(name):
    entry = CATALOG[name]
    assert catalan_like(entry.sigma, entry.tau, 60) == fraction_terms(entry.sigma, entry.tau, 60)


@settings(max_examples=60, deadline=None)
@given(specs(0, SignCheckedSpec), specs(1, SignCheckedSpec), st.integers(0, 12))
def test_sign_checked_weights_fail_like_the_oracle(sigma, tau, depth):
    rows = outcome(fraction_triangle, sigma, tau, depth)
    if isinstance(rows, str):
        assert outcome(catalan_like, sigma, tau, depth) == rows
        assert outcome(build_recursive, sigma, tau, depth) == rows
    else:
        assert catalan_like(sigma, tau, depth) == [row[0] for row in rows]


def test_weights_are_read_only_where_the_recurrence_uses_them():
    # row 0 reads no weight; row 1 reads s_0, s_1, t_1 and t_2
    sigma = SignCheckedSpec((), ConstantTail(Fraction(-1)), 0)
    tau = SignCheckedSpec((Fraction(1),), ConstantTail(Fraction(-1)), 1)
    assert catalan_like(sigma, tau, 0) == [1]
    assert build_recursive(sigma, tau, 0).row(0) == (1,)
    for build in (catalan_like, build_recursive, fraction_triangle):
        with pytest.raises(ValueError, match="at index 0"):
            build(sigma, tau, 1)
        with pytest.raises(ValueError, match="at index 2"):
            build(SignCheckedSpec((), ConstantTail(Fraction(1)), 0), tau, 1)

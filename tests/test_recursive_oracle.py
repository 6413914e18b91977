"""Differential tests: the integer recurrence kernel against the Fraction
recurrence oracle and the weighted-path enumeration, and the gen and matrix
output against the library's Fraction rows."""

import contextlib
import io
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catmoments.cli import main
from catmoments.exact import format_rat
from catmoments.recursive import catalan_like, motzkin_oracle
from catmoments.seqspec import CATALOG, ConstantTail, PolynomialTail, SequenceSpec
from oracle import (
    build_recursive,
    fraction_terms,
    fraction_triangle,
    fraction_weight,
    record_weight_reads,
)

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
    """A weight sequence whose int reader raises on handing out a negative
    value, so that the error shows which weight the recurrence read first."""

    def ints(self, count, den):
        values = super().ints(count, den)
        for k, value in enumerate(values, start=self.start):
            if value < 0:
                raise ValueError(f"negative value {format_rat(Fraction(value, den))} at index {k}")
        return values


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
    assert [list(row) for row in matrix] == rows
    terms = catalan_like(sigma, tau, depth)
    assert terms == [row[0] for row in rows]
    assert terms == [row[0] for row in matrix]


def polynomial_specs(start):
    return st.builds(lambda prefix, coeffs: SequenceSpec(tuple(prefix),
                                                         PolynomialTail(tuple(coeffs)), start),
                     st.lists(weights, max_size=4), st.lists(weights, min_size=1, max_size=3))


def cli_json(*argv):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main([*argv, "--format", "json"]) == 0
    return json.loads(stdout.getvalue())


@settings(max_examples=60, deadline=None)
@given(polynomial_specs(0), polynomial_specs(1), st.integers(0, 24))
def test_gen_and_matrix_print_the_fraction_rows(sigma, tau, n):
    # the CLI formats the scaled integer rows; the library's Fraction rows
    # are the reference
    pair = ["--sigma", json.dumps(sigma.to_json()), "--tau", json.dumps(tau.to_json())]
    assert cli_json("gen", *pair, "-n", str(n))["terms"] == [
        format_rat(v) for v in catalan_like(sigma, tau, n)]
    assert cli_json("matrix", *pair, "-n", str(n))["rows"] == [
        [format_rat(v) for v in row] for row in build_recursive(sigma, tau, n)]


@settings(max_examples=40, deadline=None)
@given(specs(0), specs(1), st.integers(0, 10))
def test_terms_match_path_enumeration(sigma, tau, n):
    terms = catalan_like(sigma, tau, n)
    assert terms == [motzkin_oracle(sigma, tau, m) for m in range(n + 1)]


@pytest.mark.parametrize("name", list(CATALOG))
def test_catalog_terms_match_fraction_oracle_at_depth_60(name):
    entry = CATALOG[name]
    assert catalan_like(entry.sigma, entry.tau, 60) == fraction_terms(entry.sigma, entry.tau, 60)


def read_failure(sigma, tau, s_last, t_last):
    """The error a SignCheckedSpec raises on the first negative weight among
    s_0..s_last, then t_1..t_last, or None when there is none."""
    reads = [(sigma, k) for k in range(s_last + 1)] + [(tau, k) for k in range(1, t_last + 1)]
    return next((f"negative value {format_rat(value)} at index {k}"
                 for spec, k in reads if (value := fraction_weight(spec, k)) < 0), None)


@settings(max_examples=60, deadline=None)
@given(specs(0, SignCheckedSpec), specs(1, SignCheckedSpec), st.integers(0, 12))
def test_sign_checked_weights_fail_like_the_oracle(sigma, tau, depth):
    # the terms read s_0..s_{(depth-1)//2} and t_1..t_{depth//2}, the whole
    # triangle s_0..s_{depth-1} and t_1..t_{depth-1}: no other weight meets a
    # nonzero cell, so a negative one fails the build exactly when the
    # Fraction oracle, which reads every weight of its formula, would have
    # used its value
    rows = fraction_triangle(*(SequenceSpec(spec.prefix, spec.tail, spec.start)
                               for spec in (sigma, tau)), depth)
    terms_failure = read_failure(sigma, tau, (depth - 1) // 2, depth // 2)
    assert outcome(catalan_like, sigma, tau, depth) == (
        terms_failure or [row[0] for row in rows])
    triangle_failure = read_failure(sigma, tau, depth - 1, depth - 1)
    if triangle_failure:
        assert outcome(build_recursive, sigma, tau, depth) == triangle_failure
    else:
        assert [list(row) for row in build_recursive(sigma, tau, depth)] == rows


def test_weights_are_read_only_where_the_recurrence_uses_them():
    # row 0 reads no weight; row 1 = (s_0, 1) reads s_0 alone
    sigma = SignCheckedSpec((), ConstantTail(Fraction(-1)), 0)
    tau = SignCheckedSpec((Fraction(1),), ConstantTail(Fraction(-1)), 1)
    assert catalan_like(sigma, tau, 0) == [1]
    assert build_recursive(sigma, tau, 0) == [(1,)]
    for build in (catalan_like, build_recursive):
        with pytest.raises(ValueError, match="at index 0"):
            build(sigma, tau, 1)
    # t_2 = -1 meets a nonzero cell from row 3 of the triangle on, and from
    # term 4 on; s_1 = -1 from row 2 and from term 3
    ones = SignCheckedSpec((Fraction(1),), ConstantTail(Fraction(1)), 0)
    assert catalan_like(ones, tau, 3) == [1, 1, 2, 4]
    assert build_recursive(ones, tau, 2)[2] == (2, 2, 1)
    for build, depth in ((catalan_like, 4), (build_recursive, 3)):
        with pytest.raises(ValueError, match="at index 2"):
            build(ones, tau, depth)
    s_1 = SignCheckedSpec((Fraction(1),), ConstantTail(Fraction(-1)), 0)
    plain_tau = SequenceSpec((), ConstantTail(Fraction(1)), 1)
    assert catalan_like(s_1, plain_tau, 2) == [1, 1, 2]
    for build, depth in ((catalan_like, 3), (build_recursive, 2)):
        with pytest.raises(ValueError, match="at index 1"):
            build(s_1, plain_tau, depth)


def test_terms_read_each_weight_they_use_once(monkeypatch):
    # terms 0..40 use s_0..s_19 and t_1..t_20: 40 reads, one per weight
    entry = CATALOG["factorial"]
    reads = record_weight_reads(monkeypatch)
    terms = catalan_like(entry.sigma, entry.tau, 40)
    assert terms[40] == math.factorial(40)
    assert [(spec is entry.tau, k) for spec, k in reads] == \
        [(False, k) for k in range(20)] + [(True, k) for k in range(1, 21)]

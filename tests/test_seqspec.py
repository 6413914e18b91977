"""Tests for weight sequence specs, their int reader, their JSON form, and
the catalog."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catmoments.recursive import catalan_like, read_weights
from catmoments.seqspec import (
    CATALOG,
    CATALOG_NAMES,
    ConstantTail,
    PolynomialTail,
    SequenceSpec,
    catalog_lookup,
    pqst_of,
    tail_from_json,
)
from oracle import fraction_horner, fraction_weight, fraction_weights


def test_eval_prefix_then_tail():
    spec = SequenceSpec.first_then_constant(4, 2, start=1)
    values = spec.ints(100, 1)
    assert (values[0], values[1], values[99]) == (4, 2, 2)
    assert values == fraction_weights(spec, 100)


def test_eval_polynomial_at_true_index():
    factorial_sigma = SequenceSpec.polynomial([1, 2], start=0)
    assert factorial_sigma.ints(4, 1)[3] == 7 == fraction_weight(factorial_sigma, 3)
    factorial_tau = SequenceSpec.polynomial([0, 0, 1], start=1)
    assert factorial_tau.ints(4, 1) == [1, 4, 9, 16] == fraction_weights(factorial_tau, 4)


def test_eval_constant_everywhere():
    spec = SequenceSpec.constant(Fraction(5, 2))
    assert spec.ints(78, 2) == [5] * 78
    assert fraction_weights(spec, 78) == [Fraction(5, 2)] * 78


def test_eval_below_start_errors():
    # a subdiagonal spec's first value is t_1; the reference reader has no t_0
    spec = SequenceSpec.first_then_constant(3, 1, start=1)
    assert spec.ints(1, 1) == [3] == fraction_weights(spec, 1)
    with pytest.raises(ValueError):
        fraction_weight(spec, 0)


def test_values_run_from_start():
    spec = SequenceSpec.first_then_constant(2, 1, start=1)
    assert spec.ints(4, 1) == [2, 1, 1, 1] == fraction_weights(spec, 4)


def test_polynomial_tail_degree_cap():
    with pytest.raises(ValueError):
        PolynomialTail((1, 1, 1, 1, 1, 1))
    with pytest.raises(ValueError):
        PolynomialTail(())


def test_start_must_be_zero_or_one():
    with pytest.raises(ValueError):
        SequenceSpec((), ConstantTail(Fraction(1)), start=2)
    for start in (True, 0.0):
        with pytest.raises(ValueError, match=f"start must be 0 or 1, got {start!r}"):
            SequenceSpec((), ConstantTail(Fraction(1)), start=start)


def test_json_round_trip():
    spec = SequenceSpec((Fraction(4),), ConstantTail(Fraction(2)), start=1)
    data = spec.to_json()
    assert data == {"prefix": ["4"], "tail": {"kind": "constant", "value": "2"}, "start": 1}
    assert SequenceSpec.from_json(data) == spec

    poly = SequenceSpec.polynomial(["1/2", 2], start=0)
    assert SequenceSpec.from_json(poly.to_json()) == poly


def test_from_json_validation():
    with pytest.raises(ValueError):
        SequenceSpec.from_json({"prefix": []})
    with pytest.raises(ValueError):
        SequenceSpec.from_json({"prefix": {}, "tail": {"kind": "constant", "value": "1"}, "start": 0})
    with pytest.raises(ValueError):
        SequenceSpec.from_json({"prefix": [], "tail": {"kind": "constant", "value": "1"}, "start": 3})
    with pytest.raises(ValueError):
        tail_from_json({"kind": "mystery"})
    with pytest.raises(ValueError):
        tail_from_json({"kind": "polynomial"})


@pytest.mark.parametrize("start", [True, False, 0.0, 1.0, "0"])
def test_from_json_refuses_a_start_that_is_not_an_int(start):
    # True == 1 and 0.0 == 0 in Python, so "start in (0, 1)" alone lets them by
    data = {"prefix": [], "tail": {"kind": "constant", "value": "1"}, "start": start}
    with pytest.raises(ValueError, match=f"'start' must be 0 or 1, got {start!r}"):
        SequenceSpec.from_json(data)


def test_from_json_refuses_unknown_fields():
    constant = {"kind": "constant", "value": "1"}
    with pytest.raises(ValueError, match="sequence spec JSON has unknown fields: prefx"):
        SequenceSpec.from_json({"prefix": [], "prefx": ["2"], "tail": constant, "start": 0})
    with pytest.raises(ValueError, match="constant tail JSON has unknown fields: coeffs"):
        tail_from_json({**constant, "coeffs": ["1"]})
    with pytest.raises(ValueError, match="polynomial tail JSON has unknown fields: value, x"):
        tail_from_json({"kind": "polynomial", "coeffs": ["1"], "value": "1", "x": 0})
    spec = SequenceSpec.first_then_constant(1, 2)
    assert SequenceSpec.from_json(spec.to_json()) == spec


def test_from_json_refuses_boolean_weights():
    with pytest.raises(ValueError, match="cannot interpret True"):
        SequenceSpec.from_json({"prefix": [True], "tail": {"kind": "constant", "value": "1"},
                                "start": 0})
    with pytest.raises(ValueError, match="cannot interpret False"):
        SequenceSpec.from_json({"prefix": [], "tail": {"kind": "constant", "value": False},
                                "start": 1})


@pytest.mark.parametrize("prefix", ["12", "3/4", b"12"])
def test_a_string_prefix_is_refused(prefix):
    # iterated, "12" would be the prefix (1, 2) and "3/4" fail on "/"
    with pytest.raises(ValueError, match="^prefix must be a sequence of values, not a "):
        SequenceSpec(prefix, ConstantTail(3))
    assert SequenceSpec(["1", "2"], ConstantTail(3)).prefix == (1, 2)


@pytest.mark.parametrize("coeffs", ["21", b"21"])
def test_string_coeffs_are_refused(coeffs):
    # iterated, "21" would be the coefficients (2, 1)
    with pytest.raises(ValueError, match="^coeffs must be a sequence of values, not a "):
        PolynomialTail(coeffs)
    assert PolynomialTail(["2", 1]).coeffs == (2, 1)


def test_catalog_has_the_eight_names():
    assert set(CATALOG_NAMES) == {
        "catalan", "central_binomial", "delannoy", "schroder_large",
        "schroder_little", "hexagonal", "bell", "factorial",
    }


def test_catalog_lookup_weights_match_classical_values():
    catalan = catalog_lookup("catalan")
    assert catalan.sigma.ints(4, 1) == [1, 2, 2, 2]
    assert catalan.tau.ints(3, 1) == [1, 1, 1]

    bell = catalog_lookup("bell")
    assert bell.sigma.ints(4, 1) == [1, 2, 3, 4]
    assert bell.tau.ints(4, 1) == [1, 2, 3, 4]

    factorial = catalog_lookup("factorial")
    assert factorial.sigma.ints(4, 1) == [1, 3, 5, 7]
    assert factorial.tau.ints(4, 1) == [1, 4, 9, 16]


def test_catalog_lookup_alias_and_unknown():
    assert catalog_lookup("restricted_hexagonal") is catalog_lookup("hexagonal")
    with pytest.raises(KeyError):
        catalog_lookup("fibonacci")


def test_catalog_gf_presence():
    with_gf = {name for name, entry in CATALOG.items() if entry.gf is not None}
    assert with_gf == {
        "catalan", "central_binomial", "delannoy", "schroder_large", "schroder_little",
    }


def test_reference_terms_match_recurrence():
    for entry in CATALOG.values():
        assert tuple(catalan_like(entry.sigma, entry.tau, 7)) == entry.reference_terms


def test_pqst_of_detects_constant_after_first_shape():
    delannoy = catalog_lookup("delannoy")
    assert pqst_of(delannoy.sigma, delannoy.tau) == (3, 4, 3, 2)
    bell = catalog_lookup("bell")
    assert pqst_of(bell.sigma, bell.tau) is None


def test_as_first_plus_constant_handles_redundant_prefix():
    spec = SequenceSpec((Fraction(3), Fraction(2), Fraction(2)), ConstantTail(Fraction(2)))
    assert spec.as_first_plus_constant() == (3, 2)
    ragged = SequenceSpec((Fraction(3), Fraction(1)), ConstantTail(Fraction(2)))
    assert ragged.as_first_plus_constant() is None
    degree_zero = SequenceSpec((), PolynomialTail((Fraction(5),)))
    assert degree_zero.as_first_plus_constant() == (5, 5)


def test_catalog_entry_to_json_shape():
    data = catalog_lookup("delannoy").to_json()
    assert data["name"] == "delannoy"
    assert data["sigma"]["start"] == 0
    assert data["tau"]["start"] == 1
    assert data["gf"] == {"kind": "named", "name": "delannoy"}
    assert data["reference_terms"][:4] == ["1", "3", "13", "63"]


@pytest.mark.parametrize("coeffs", [
    (3, 0, 2),                              # integers
    ("4/2", -1, "6/3"),                     # integers given as fractions
    ("1/2", 3, "-5/7"),                     # rationals
    (0, "7/3", 2, "-4/2", "1/9"),           # mixed, degree 4
    ("-8",),
])
def test_polynomial_tail_matches_fraction_horner(coeffs):
    # a polynomial tail is read off the spec's ints, at every index k >= 0
    spec = SequenceSpec.polynomial(coeffs)
    ints = spec.ints(70, spec.den)
    assert all(type(v) is int for v in ints)
    assert [Fraction(v, spec.den) for v in ints] == [
        fraction_horner([Fraction(c) for c in coeffs], k) for k in range(70)]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.one_of(st.integers(-10**9, 10**9).map(Fraction),
                          st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**9))),
                min_size=1, max_size=5),
       st.integers(0, 10**4))
def test_polynomial_tail_matches_fraction_horner_randomized(coeffs, k):
    spec = SequenceSpec.polynomial(coeffs)
    assert Fraction(spec.ints(k + 1, spec.den)[k], spec.den) == fraction_horner(coeffs, k)


# signed rationals over small denominators, zero included
spec_values = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))


@st.composite
def sequence_specs(draw, start=st.sampled_from((0, 1))):
    """A prefix of 0..3 values, then a constant tail or a polynomial one of
    degree <= 4."""
    prefix = tuple(draw(st.lists(spec_values, max_size=3)))
    tail = draw(st.one_of(
        st.builds(ConstantTail, spec_values),
        st.lists(spec_values, min_size=1, max_size=5).map(lambda c: PolynomialTail(tuple(c)))))
    return SequenceSpec(prefix, tail, draw(start))


@settings(max_examples=300, deadline=None)
@given(sequence_specs(), st.integers(0, 40), st.integers(1, 6))
def test_int_reader_over_its_denominator_is_the_values(spec, count, multiple):
    ints = spec.ints(count, spec.den)
    assert all(type(v) is int for v in ints)
    assert [Fraction(v, spec.den) for v in ints] == fraction_weights(spec, count)
    coeffs = getattr(spec.tail, "coeffs", None) or (spec.tail.value,)
    assert spec.den == math.lcm(*(v.denominator for v in (*spec.prefix, *coeffs)))
    # over any multiple of den the same values, and the tail rule's coefficients
    # highest degree first; over anything else a refusal
    scale = multiple * spec.den
    assert spec.ints(count, scale) == [multiple * v for v in ints]
    assert spec.tail_ints(scale) == [c * scale for c in reversed(coeffs)]
    if spec.den > 1:
        for read in (lambda den: spec.ints(count, den), spec.tail_ints):
            with pytest.raises(ValueError, match="is not a multiple of the denominator"):
                read(spec.den + 1)


@settings(max_examples=200, deadline=None)
@given(sequence_specs(st.just(0)), sequence_specs(st.just(1)), st.integers(0, 30),
       st.booleans())
def test_read_weights_are_both_fraction_lists_over_one_denominator(sigma, tau, depth, truncate):
    s, t, scale = read_weights(sigma, tau, depth, truncate)
    s_count, t_count = ((depth + 1) // 2, depth // 2) if truncate else (depth, depth - 1)
    assert scale == math.lcm(sigma.den, tau.den)
    assert [Fraction(v, scale) for v in s] == fraction_weights(sigma, s_count)
    assert [Fraction(v, scale) for v in t] == fraction_weights(tau, max(t_count, 0))

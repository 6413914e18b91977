"""Tests for the oracle's Hankel sections, the two-family Stieltjes check,
and the H = R T R^t factorization."""

import random
from fractions import Fraction
from itertools import starmap

import pytest

from catmoments.exact import TRUE
from catmoments.hankel import FAIL, PASS, StieltjesReport, stieltjes_check, verify_H_eq_RTRt
from catmoments.recursive import _scaled_rows, catalan_like, read_weights
from catmoments.seqspec import CATALOG, ConstantTail, SequenceSpec, catalog_lookup
from oracle import (
    build_hankel,
    det_elimination,
    fraction_weights,
    hankel_det_products,
    leading_principal_minors,
    to_lists,
    window_minors,
)


def _moments(name, count):
    entry = catalog_lookup(name)
    return catalan_like(entry.sigma, entry.tau, count - 1)


def fractions(family) -> tuple[Fraction, ...]:
    """A report's family of (num, den) ints as Fractions."""
    return tuple(starmap(Fraction, family))


def test_build_hankel_small_sections():
    seq = [1, 1, 2, 5, 14]
    assert to_lists(build_hankel(seq, 1)) == [[1, 1], [1, 2]]
    assert to_lists(build_hankel(seq, 1, shift=1)) == [[1, 2], [2, 5]]
    assert to_lists(build_hankel(seq, 0)) == [[1]]
    # terms go through as_rat: "p/q" strings are read exactly, floats refused
    assert to_lists(build_hankel(["1/2", 3], 0, shift=1)) == [[Fraction(3)]]
    assert build_hankel(["1/2"], 0)[0, 0] == Fraction(1, 2)
    with pytest.raises(ValueError, match="refusing float"):
        build_hankel([0.5], 0)


def test_build_hankel_entry_layout():
    seq = list(range(10, 17))
    H = build_hankel(seq, 2, shift=1)
    for i in range(3):
        for j in range(3):
            assert H[i, j] == 10 + i + j + 1


def test_build_hankel_rejects_bad_arguments():
    seq = [1, 1, 2]
    with pytest.raises(ValueError):
        build_hankel(seq, -1)
    with pytest.raises(ValueError):
        build_hankel(seq, 1, shift=2)
    with pytest.raises(ValueError, match="need 5 terms"):
        build_hankel(seq, 2)
    with pytest.raises(ValueError, match="need 4 terms"):
        build_hankel(seq, 1, shift=1)


def test_stieltjes_catalan_all_ones():
    report = stieltjes_check(_moments("catalan", 12), 5)
    assert report.verdict == PASS
    assert report.witness is None
    assert fractions(report.family0) == (1,) * 6
    assert fractions(report.family1) == (1,) * 6


def test_stieltjes_negative_control():
    # period-2 sequence: det[[1, 2], [2, 1]] = -3
    report = stieltjes_check([1, 2, 1, 2], 1)
    assert report.verdict == FAIL
    assert fractions(report.family0) == (1, -3)
    assert report.witness == {"family": "det0", "k": 1, "value": "-3"}


def test_stieltjes_witness_ordering():
    # shifted family can fail first ...
    report = stieltjes_check([1, -1], 0)
    assert report.witness == {"family": "det1", "k": 0, "value": "-1"}
    # ... the smallest k wins over the family, even with a later det0 negative
    report = stieltjes_check([1, -1, 0, 5], 1)
    assert fractions(report.family0)[1] < 0
    assert report.witness == {"family": "det1", "k": 0, "value": "-1"}
    # ... but at the same k the plain family is reported first
    report = stieltjes_check([1, 2, 1, 0], 1)
    assert fractions(report.family0)[1] < 0 and fractions(report.family1)[1] < 0
    assert report.witness == {"family": "det0", "k": 1, "value": "-3"}


def test_stieltjes_validation():
    seq = [1, 1, 2, 5, 14, 42]
    for check in (stieltjes_check, StieltjesReport.by_elimination):
        with pytest.raises(ValueError, match="^depth must be >= 0$"):
            check(seq, -1)
        with pytest.raises(ValueError, match="^need 8 terms for depth 3, have 6$"):
            check(seq, 3)
        with pytest.raises(ValueError, match="^need 2 terms for depth 0, have 0$"):
            check([], 0)


def test_every_term_list_is_read_alike_and_a_string_is_refused():
    # a str or bytes would be read as its characters: "1212" as 1, 2, 1, 2
    # and b"1212" as 49, 50, 49, 50
    entry = catalog_lookup("catalan")
    _, t, scale = weights = read_weights(entry.sigma, entry.tau, 3)
    rows = list(_scaled_rows(*weights, 2))
    zero = [(1, 1), (0, 1)]                         # a zero minor: the terms are read
    for call in (lambda: stieltjes_check("1212", 1), lambda: stieltjes_check(b"1212", 1),
                 lambda: StieltjesReport.by_elimination("1212", 1),
                 lambda: StieltjesReport.from_families(1, zero, zero, "1111"),
                 lambda: verify_H_eq_RTRt(rows, t, scale, "11252", 2)):
        with pytest.raises(ValueError, match="^terms must be a sequence of values"):
            call()
    # a tuple and "p/q" strings give the report of the Fractions: inverted to
    # weights, a zero minor decided by elimination, and a negative minor
    for terms, depth in (([Fraction(m, 3) for m in (1, 1, 2, 5, 14, 42)], 2),
                         (list(map(Fraction, (1, 1, 1, 1, 1, -1))), 2),
                         (list(map(Fraction, (1, 2, 1, 2))), 1)):
        for check in (stieltjes_check, StieltjesReport.by_elimination):
            expected = check(terms, depth)
            assert check(tuple(terms), depth) == check(list(map(str, terms)), depth) == expected
    catalan = _moments("catalan", 5)
    assert verify_H_eq_RTRt(rows, t, scale, tuple(map(str, catalan)), 2) == TRUE


def test_stieltjes_bell_superfactorials():
    # both families are running products of factorials
    report = stieltjes_check(_moments("bell", 10), 4)
    expected = (1, 1, 2, 12, 288)
    assert fractions(report.family0) == expected
    assert fractions(report.family1) == expected
    assert report.verdict == PASS


def test_stieltjes_positive_for_catalog_entries():
    for entry in CATALOG.values():
        report = stieltjes_check(catalan_like(entry.sigma, entry.tau, 9), 4)
        assert report.verdict == PASS, entry.name
        assert all(v > 0 for v in fractions(report.family0)), entry.name


def test_report_serialization():
    report = stieltjes_check([1, 2, 1, 2], 1)
    data = report.to_json()
    assert data["dets0"] == ["1", "-3"]
    assert data["dets1"] == ["2", "3"]
    assert data["verdict"] == FAIL
    assert data["witness"]["family"] == "det0"
    passing = stieltjes_check(_moments("catalan", 4), 1)
    assert "witness" not in passing.to_json()


def test_factorization_holds_across_catalog():
    for entry in CATALOG.values():
        _, t, scale = weights = read_weights(entry.sigma, entry.tau, 6)
        terms = catalan_like(entry.sigma, entry.tau, 10)
        R = list(_scaled_rows(*weights, 5))
        assert verify_H_eq_RTRt(R, t, scale, terms, 5) == TRUE, entry.name


def test_factorization_holds_for_random_rational_weights():
    rng = random.Random(20260818)
    for _ in range(10):
        sigma = SequenceSpec(
            tuple(Fraction(rng.randint(0, 6), rng.randint(1, 3)) for _ in range(4)),
            ConstantTail(Fraction(1)), start=0)
        tau = SequenceSpec(
            tuple(Fraction(rng.randint(0, 6), rng.randint(1, 3)) for _ in range(3)),
            ConstantTail(Fraction(1)), start=1)
        terms = catalan_like(sigma, tau, 8)
        _, t, scale = weights = read_weights(sigma, tau, 5)
        assert verify_H_eq_RTRt(list(_scaled_rows(*weights, 4)), t, scale, terms, 4) == TRUE


def test_det_product_known_values():
    def products(name, depth):
        return hankel_det_products(fraction_weights(catalog_lookup(name).tau, depth))

    assert products("catalan", 6) == [1] * 7
    assert products("central_binomial", 4) == [1, 2, 4, 8, 16]
    # delannoy: T = (1, 4, 8, 16), so the products are 1, 4, 32, 512
    assert products("delannoy", 3) == [1, 4, 32, 512]
    assert hankel_det_products([]) == [1]


def test_det_product_depends_only_on_subdiagonal_weights():
    # det H_n = T_0 ... T_n: sigma drops out because R is unit triangular
    rng = random.Random(7)
    tau = SequenceSpec(
        tuple(Fraction(rng.randint(1, 5)) for _ in range(4)),
        ConstantTail(Fraction(2)), start=1)
    products = hankel_det_products(fraction_weights(tau, 3))
    for _ in range(5):
        sigma = SequenceSpec(
            tuple(Fraction(rng.randint(0, 5)) for _ in range(5)),
            ConstantTail(Fraction(1)), start=0)
        seq = catalan_like(sigma, tau, 8)
        for n in range(4):
            assert det_elimination(build_hankel(seq, n)) == products[n]


def _shifted_family_is_chain_times_products(sigma, tau, depth):
    """det[m_{i+j+1}]_n = D_n * T_0 * ... * T_n for n = 0..depth."""
    seq = catalan_like(sigma, tau, 2 * depth + 1)
    chain = window_minors(fraction_weights(sigma, depth + 1), fraction_weights(tau, depth), 0)
    products = hankel_det_products(fraction_weights(tau, depth))
    shifted = leading_principal_minors(build_hankel(seq, depth, 1))
    return list(shifted) == [d * p for d, p in zip(chain, products)]


def test_shifted_family_product_form_across_catalog():
    for entry in CATALOG.values():
        assert _shifted_family_is_chain_times_products(entry.sigma, entry.tau, 12), entry.name


def test_shifted_family_product_form_for_random_rational_weights():
    rng = random.Random(1506)
    for _ in range(10):
        sigma = SequenceSpec(
            tuple(Fraction(rng.randint(1, 7), rng.randint(1, 4)) for _ in range(4)),
            ConstantTail(Fraction(rng.randint(1, 5), rng.randint(1, 3))), start=0)
        tau = SequenceSpec(
            tuple(Fraction(rng.randint(1, 7), rng.randint(1, 4)) for _ in range(3)),
            ConstantTail(Fraction(rng.randint(1, 5), rng.randint(1, 3))), start=1)
        assert _shifted_family_is_chain_times_products(sigma, tau, 7)

"""Acceptance gate: ten cross-validation criteria, one test each.

Every comparison is exact (integer or Fraction equality, tolerance zero)
and every criterion must finish inside its ten-second budget.  Run with
pytest -v to get one pass/fail line per criterion.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from catmoments.exact import FALSE, TRUE, as_rat
from catmoments.hankel import FAIL, PASS, stieltjes_check, verify_H_eq_RTRt
from catmoments.jacobi import (
    JacobiParams,
    tp_by_leading_minors,
    tp_criterion_pqst,
)
from catmoments.recursive import _scaled_rows, catalan_like, motzkin_oracle, read_weights
from catmoments.seqspec import CATALOG, ConstantTail, SequenceSpec, catalog_lookup
from catmoments.series import GFSpec, gf_expand, riordan_column_check
from oracle import (
    DenseMatrix,
    build_hankel,
    det_cofactor,
    det_elimination,
    fraction_weights,
    hankel_det_products,
    int_weights,
    is_nondecreasing_from_one,
    jacobi_section,
    jacobi_window,
    pqst_matrix,
    window_minors,
)

TIME_BUDGET = 10.0


@pytest.fixture(autouse=True)
def time_budget():
    start = time.monotonic()
    yield
    assert time.monotonic() - start < TIME_BUDGET


def test_criterion_01_catalan_hankel_families_are_all_ones():
    entry = catalog_lookup("catalan")
    terms = catalan_like(entry.sigma, entry.tau, 17)
    for n in range(9):
        assert det_elimination(build_hankel(terms, n, 0)) == 1
        assert det_elimination(build_hankel(terms, n, 1)) == 1


def test_criterion_02_factorial_leading_minors_both_routes():
    entry = catalog_lookup("factorial")
    s, t = fraction_weights(entry.sigma, 11), fraction_weights(entry.tau, 10)
    chain = window_minors(s, t, 0)
    for n in range(11):
        expected = math.factorial(n + 1)
        assert chain[n] == expected
        assert det_elimination(jacobi_section(s[:n + 1], t[:n])) == expected


def test_criterion_03_catalog_terms_agree_across_three_routes():
    for entry in CATALOG.values():
        terms = catalan_like(entry.sigma, entry.tau, 16)
        assert tuple(terms[:8]) == entry.reference_terms, entry.name
        for n in range(11):
            assert motzkin_oracle(entry.sigma, entry.tau, n) == terms[n], entry.name
        if entry.gf is not None:
            assert list(gf_expand(entry.gf, 16)) == terms, entry.name


def test_criterion_04_hankel_factorization_and_det_product():
    for entry in CATALOG.values():
        _, t, scale = weights = read_weights(entry.sigma, entry.tau, 9)
        R = list(_scaled_rows(*weights, 8))
        terms = catalan_like(entry.sigma, entry.tau, 17)
        for depth in range(9):
            assert verify_H_eq_RTRt(R, t, scale, terms, depth) == TRUE, entry.name
        products = hankel_det_products(fraction_weights(entry.tau, 8))
        for n in range(9):
            det = det_elimination(build_hankel(terms, n, 0))
            assert det == products[n], entry.name


def test_criterion_05_stieltjes_pass_catalog_fail_negative_control():
    for entry in CATALOG.values():
        terms = catalan_like(entry.sigma, entry.tau, 17)
        assert stieltjes_check(terms, 8).verdict == PASS, entry.name
    control = stieltjes_check([1, 2, 1, 2], 1)
    assert control.verdict == FAIL
    assert control.witness == {"family": "det0", "k": 1, "value": "-3"}


def test_criterion_06_randomized_dominance_chains():
    rng = random.Random(601)
    for _ in range(100):
        t_values = [Fraction(rng.randint(0, 9), rng.randint(1, 5)) for _ in range(10)]
        s_values = [Fraction(1) + Fraction(rng.randint(0, 8), rng.randint(1, 4))]
        s_values += [t + 1 + Fraction(rng.randint(0, 8), rng.randint(1, 4))
                     for t in t_values]
        sigma = SequenceSpec(tuple(s_values), ConstantTail(s_values[-1]), start=0)
        tau = SequenceSpec(tuple(t_values), ConstantTail(t_values[-1]), start=1)
        chain = window_minors(fraction_weights(sigma, 11), fraction_weights(tau, 10), 0)
        assert len(chain) == 11
        assert chain[0] >= 1
        for a, b in zip(chain, chain[1:]):
            assert a <= b
        assert is_nondecreasing_from_one(chain)


def test_criterion_07_randomized_pqst_criterion_vs_minor_search():
    rng = random.Random(701)
    seen = {TRUE: 0, FALSE: 0}
    refuted = not_refuted = 0
    for _ in range(100):
        params = JacobiParams(*[Fraction(rng.randint(0, 8), rng.randint(1, 4))
                                for _ in range(4)])
        verdict = tp_criterion_pqst(params).verdict
        seen[verdict] += 1
        sigma, tau = pqst_matrix(params)
        s, t = fraction_weights(sigma, 9), fraction_weights(tau, 8)
        if verdict == TRUE:
            assert tp_by_leading_minors(*int_weights(s[:7], t[:6])).verdict == TRUE, params
        else:
            # bounded refutation search: a verified negative window, or no
            # refutation at this depth -- but never a claim the criterion
            # was wrong
            scan = tp_by_leading_minors(*int_weights(s, t))
            assert scan.verdict in (TRUE, FALSE), params
            if scan.verdict == FALSE:
                lo, hi = scan.witness["rows"][0], scan.witness["rows"][-1]
                value = as_rat(scan.witness["value"])
                assert value < 0, params
                assert det_elimination(jacobi_window(s, t, lo, hi)) == value, params
                refuted += 1
            else:
                not_refuted += 1
    assert seen[TRUE] > 0 and seen[FALSE] > 0
    assert refuted > 0


def test_criterion_08_riordan_columns_match_generating_functions():
    for pqst in ((1, 1, 2, 1), (3, 4, 3, 2), (2, 2, 3, 2), (1, 2, 3, 2), (2, 2, 2, 1)):
        assert riordan_column_check(*pqst, order=16, k_max=5) == TRUE, pqst


def test_criterion_09_specializations_equal_general_closed_form():
    rng = random.Random(901)
    for _ in range(30):
        p = Fraction(rng.randint(0, 6), rng.randint(1, 3))
        s = Fraction(rng.randint(0, 6), rng.randint(1, 3))
        t = Fraction(rng.randint(1, 6), rng.randint(1, 3))
        for kind, params, general in (("tied_q", (p, s, t), (p, t, s, t)),
                                      ("tied_qp", (s, t), (s, t, s, t)),
                                      ("inverse_sqrt", (s, t), (s, 2 * t, s, t))):
            assert gf_expand(GFSpec(kind, params), 16) == \
                gf_expand(GFSpec("closed_form", general), 16), kind


def test_criterion_10_determinant_kernels_agree_on_random_matrices():
    rng = random.Random(1001)
    checked = 0
    for i in range(200):
        size = rng.randint(1, 6)
        grid = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                 for _ in range(size)] for _ in range(size)]
        if size > 1 and i % 10 == 0:
            # singular and zero-pivot shapes exercise the swap path
            grid[size - 1] = list(grid[0])
        if size > 1 and i % 10 == 5:
            grid[0][0] = Fraction(0)
        matrix = DenseMatrix(grid)
        assert det_elimination(matrix) == det_cofactor(matrix)
        checked += 1
    assert checked >= 200

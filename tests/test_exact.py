"""Tests for the exact rational helpers, and for the oracle's matrices,
determinants and minor scans, whose determinant runs the library's Bareiss
kernel."""

import random
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import catmoments.exact
from catmoments.exact import (
    FALSE,
    TRUE,
    _int_of,
    _int_str,
    as_rat,
    format_over,
    format_rat,
    format_row,
)
from oracle import (
    INCONCLUSIVE,
    DenseMatrix,
    all_minors_nonneg,
    count_minors,
    det_cofactor,
    det_elimination,
    identity,
    leading_principal_minors,
    matmul,
    submatrix,
    transpose,
)


def test_as_rat_accepts_ints_fractions_strings():
    assert as_rat(3) == Fraction(3)
    assert as_rat(Fraction(2, 7)) == Fraction(2, 7)
    assert as_rat("5/3") == Fraction(5, 3)
    assert as_rat("-4") == Fraction(-4)
    assert as_rat(" 1/2 ") == Fraction(1, 2)


def test_as_rat_rejects_floats_and_junk():
    with pytest.raises(ValueError):
        as_rat(0.5)
    with pytest.raises(ValueError):
        as_rat("abc")
    with pytest.raises(ValueError):
        as_rat("1/0")
    with pytest.raises(ValueError):
        as_rat(None)


@pytest.mark.parametrize("value", [True, False])
def test_as_rat_refuses_booleans(value):
    # bool is an int subclass: JSON true would otherwise read as 1
    with pytest.raises(ValueError, match=f"cannot interpret {value!r} as a rational"):
        as_rat(value)


@pytest.mark.parametrize("text", ["1e4301", "1e-4301", "1E+200000", "2.5e1_0000",
                                  "1e" + "9" * 30])
def test_as_rat_refuses_a_decimal_exponent_past_the_cap(text):
    with pytest.raises(ValueError, match="not a rational"):
        as_rat(text)


def test_as_rat_accepts_exponents_up_to_the_cap_and_long_digit_strings():
    assert as_rat("1e4300") == 10**4300
    assert as_rat(" 3E-0004300 ") == Fraction(3, 10**4300)
    assert as_rat("1_5e2") == 1500
    assert as_rat("7" * 4000) == int("7" * 4000)


def test_as_rat_reads_digit_strings_past_the_interpreter_limit():
    # what format_rat prints past 4,300 digits reads back, in halves, with
    # the interpreter's limit left as it is
    limit = sys.get_int_max_str_digits()
    digits = "12345678" * 2500                          # 20,000 digits
    value = as_rat(digits)
    assert value.denominator == 1 and value % 10**8 == 12345678
    assert 10**19999 < value < 10**20000 and format_rat(value) == digits
    assert as_rat(f" -{digits}/{'7' * 4400} ") == Fraction(-value, int("7" * 4000) * 10**400
                                                           + int("7" * 400))
    rng = random.Random(4300)
    for bits in (14_300, 30_000, 140_000):
        num, den = rng.getrandbits(bits), rng.getrandbits(bits // 3) | 1
        for v in (Fraction(num), Fraction(-num, den), Fraction(den, num)):
            assert as_rat(format_rat(v)) == v
    assert sys.get_int_max_str_digits() == limit


def test_as_rat_quotes_at_most_40_characters_of_a_refused_value():
    for text in ("9" * 5000 + "x", "1" * 5000 + "/0", "-" * 50):
        with pytest.raises(ValueError) as refused:
            as_rat(text)
        assert str(refused.value) == f"not a rational: {text[:18] + '...' + text[-18:]!r}"
    with pytest.raises(ValueError, match=r"^not a rational: '1e4301'$"):
        as_rat("1e4301")


def test_format_rat():
    assert format_rat(Fraction(7)) == "7"
    assert format_rat(Fraction(-3, 4)) == "-3/4"


def test_format_rat_past_the_interpreter_digit_limit():
    limit = sys.get_int_max_str_digits()
    assert format_rat(Fraction(10**5000 + 7)) == "1" + "0" * 4999 + "7"
    assert format_rat(Fraction(-(10**9000), 10**4400 + 1)) == (
        "-1" + "0" * 9000 + "/1" + "0" * 4399 + "1")
    # just past the limit, with a low half that needs its leading zeros
    big = 10**4300 * 3 + 10**2150 + 42
    assert format_rat(Fraction(big)) == "3" + "0" * 2149 + "1" + "0" * 2148 + "42"
    # each side of every rung P_j = 10**(600 * 2**j) of the splitting ladder,
    # low pieces that are zero or need leading zeros, bit lengths on either
    # side of the 600-digit piece (1,993.2 bits), and their negatives
    values = [p + d for j in range(5) for p in [10 ** (600 << j)] for d in (-1, 0, 1)]
    values += [7 * 10**4800 + 10**1199 + 3, 10**9600 * (10**600 - 1), 10**7000 + 10**600]
    values += [v for bits in (1800, 1993, 1994, 1995) for v in (1 << bits - 1, (1 << bits) - 1)]
    values += [-v for v in values]
    shown = [format_rat(Fraction(v)) for v in values]
    assert [as_rat(text) for text in shown] == values
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        assert shown == [str(v) for v in values]
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("j", [0, 1, 2])
def test_int_str_makes_no_rung_that_it_does_not_divide_by(monkeypatch, j):
    # 10**(600 * 2**(j+1)) - 1 is split at P_j: P_(j+1) is not made
    monkeypatch.setattr(catmoments.exact, "_LADDER", [catmoments.exact._PIECE])
    digits = 600 << (j + 1)
    assert _int_str(10**digits - 1) == "9" * digits
    assert len(catmoments.exact._LADDER) == j + 1


@pytest.mark.parametrize("j", [0, 1, 2])
def test_int_str_at_the_bit_lengths_that_choose_a_rung(j):
    # P_(j+1) has 2b - 1 bits, b those of P_j: the ints from P_(j+1) up to
    # 2**(2b) are split one rung low, and still print in full
    power, bits = 10**(600 << (j + 1)), (10**(600 << j)).bit_length()
    for n in (power - 1, power, power + 1, 2**(2 * bits) - 1, 2**(2 * bits), 2**(2 * bits + 1)):
        assert _int_str(n) == str(Decimal(n))
        assert _int_str(-n) == str(Decimal(-n))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 60000).flatmap(lambda bits: st.integers(1 - (1 << bits), (1 << bits) - 1)))
def test_int_str_reads_back_by_int_of(n):
    assert _int_of(_int_str(abs(n))) == abs(n)
    assert as_rat(_int_str(n)) == n


numerators = st.one_of(
    st.just(0),
    st.integers(-10**40, 10**40),
    # 3**e has 4,247 to 4,438 digits: past the interpreter's limit
    st.builds(lambda sign, e, low: sign * (3**e + low),
              st.sampled_from((1, -1)), st.integers(8900, 9300), st.integers(0, 10**9)),
)
denominators = st.one_of(
    st.integers(1, 10**12),
    st.builds(pow, st.sampled_from((2, 6, 35, 1001)), st.integers(0, 1500)),
)


@settings(max_examples=300, deadline=None)
@given(numerators, denominators, st.sampled_from((1, 6, 35, "den")))
def test_format_over_matches_format_rat(num, den, factor):
    # a factor shared with den: none, part of a power's base, or all of den
    num *= den if factor == "den" else factor
    assert format_over(num, den) == format_rat(Fraction(num, den))
    assert format_row([num, 0, -num], den) == [format_rat(Fraction(v, den))
                                               for v in (num, 0, -num)]


def test_matrix_construction_and_access():
    m = DenseMatrix([[1, 2], [3, "5/2"]])
    assert m.rows == 2 and m.cols == 2
    assert m[1, 1] == Fraction(5, 2)
    assert m.entries[0] == (Fraction(1), Fraction(2))
    assert m.is_square


def test_matrix_rejects_bad_shapes():
    with pytest.raises(ValueError):
        DenseMatrix([])
    with pytest.raises(ValueError):
        DenseMatrix([[]])
    with pytest.raises(ValueError):
        DenseMatrix([[1, 2], [3]])


def test_matrix_is_immutable():
    m = DenseMatrix([[1]])
    with pytest.raises(AttributeError):
        m.entries = ()


def test_matmul_transpose_identity():
    # the dense product is an oracle helper: the library has none
    a = DenseMatrix([[1, 2], [3, 4]])
    b = DenseMatrix([[0, 1], [1, 0]])
    assert matmul(a, b) == DenseMatrix([[2, 1], [4, 3]])
    assert transpose(a) == DenseMatrix([[1, 3], [2, 4]])
    assert matmul(a, identity(2)) == a
    with pytest.raises(ValueError):
        matmul(a, DenseMatrix([[1, 2]]))
    assert not hasattr(DenseMatrix, "__matmul__") and not hasattr(DenseMatrix, "transpose")


def test_submatrix():
    m = DenseMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert submatrix(m, (0, 2), (1, 2)) == DenseMatrix([[2, 3], [8, 9]])


def test_det_bareiss_identity_and_small_cases():
    assert det_elimination(identity(3)) == 1
    assert det_elimination(DenseMatrix([[1, 1], [1, 2]])) == 1
    assert det_elimination(DenseMatrix([[7]])) == 7


def test_det_bareiss_rational_entries():
    m = DenseMatrix([["1/2", "1/3"], ["1/4", "1/5"]])
    assert det_elimination(m) == Fraction(1, 10) - Fraction(1, 12)


def test_det_bareiss_zero_pivot_row_swap():
    m = DenseMatrix([[0, 1, 2], [1, 0, 3], [4, 5, 0]])
    assert det_elimination(m) == det_cofactor(m)


def test_det_bareiss_singular():
    m = DenseMatrix([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert det_elimination(m) == 0
    zero_col = DenseMatrix([[0, 1], [0, 2]])
    assert det_elimination(zero_col) == 0


def test_det_requires_square():
    m = DenseMatrix([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        det_elimination(m)
    with pytest.raises(ValueError):
        det_cofactor(m)
    with pytest.raises(ValueError):
        leading_principal_minors(m)


def test_det_cofactor_closed_forms():
    assert det_cofactor(DenseMatrix([[7]])) == 7
    a, b, c, d = Fraction(2), Fraction(3, 2), Fraction(-1), Fraction(5)
    assert det_cofactor(DenseMatrix([[a, b], [c, d]])) == a * d - b * c


def test_det_cofactor_dimension_cap():
    big = DenseMatrix([[1] * 10 for _ in range(10)])
    with pytest.raises(ValueError):
        det_cofactor(big)


def test_block_triangular_embedding_preserves_det():
    rng = random.Random(7)
    inner = DenseMatrix(
        [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3)]
         for _ in range(3)]
    )
    embedded = [[Fraction(0)] * 4 for _ in range(4)]
    embedded[0][0] = Fraction(1)
    for i in range(3):
        for j in range(3):
            embedded[i + 1][j + 1] = inner[i, j]
    assert det_elimination(DenseMatrix(embedded)) == det_elimination(inner)


def test_kernels_agree_on_random_matrices():
    rng = random.Random(20260818)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = DenseMatrix(
            [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
             for _ in range(n)]
        )
        assert det_elimination(m) == det_cofactor(m)


def test_all_minors_nonneg_true_case():
    scan = all_minors_nonneg(DenseMatrix([[1, 1], [1, 2]]), 2)
    assert scan.status == TRUE
    assert scan.witness is None
    assert scan.minors_checked == count_minors(2, 2, 2)


def test_all_minors_nonneg_false_witness():
    scan = all_minors_nonneg(DenseMatrix([[0, 1], [1, 0]]), 2)
    assert scan.status == FALSE
    assert scan.witness.value == -1
    assert scan.witness.row_idx == (0, 1)
    assert scan.witness.col_idx == (0, 1)


def test_all_minors_witness_is_lexicographically_first():
    # both 2x2 minors using rows (0,1) are negative; columns (0,1) come first
    m = DenseMatrix([[0, 1, 1], [1, 0, 0], [1, 0, 0]])
    scan = all_minors_nonneg(m, 2)
    assert scan.status == FALSE
    assert scan.witness.row_idx == (0, 1)
    assert scan.witness.col_idx == (0, 1)


def test_all_minors_budget_is_inconclusive_never_true():
    m = DenseMatrix([[1] * 6 for _ in range(6)])
    scan = all_minors_nonneg(m, 6, budget=10)
    assert scan.status == INCONCLUSIVE
    assert "budget" in scan.reason


def test_all_minors_monotone_in_order():
    m = DenseMatrix([[1, 1, 1], [1, 2, 3], [1, 3, 6]])
    assert all_minors_nonneg(m, 3).status == TRUE
    for order in (1, 2):
        assert all_minors_nonneg(m, order).status == TRUE


def test_all_minors_order_validation():
    m = DenseMatrix([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        all_minors_nonneg(m, 3)

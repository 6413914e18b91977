"""Test-side oracles: slow, independent routes the library is checked against.

fraction_triangle is the textbook evaluation of

    r_{n+1,k} = r_{n,k-1} + s_k * r_{n,k} + t_{k+1} * r_{n,k+1}

cell by cell on exact rationals, with every weight evaluated where it is
used.  The library runs the same recurrence on integer rows scaled by the
common denominator of the weights; the tests compare the two.

identity, to_lists, submatrix, transpose and matmul are the helpers on
DenseMatrix, the Fraction matrix only the tests need; build_hankel lays the
terms out as a Hankel section, jacobi_section the weights s_0..s_n, t_1..t_n
as the leading section of the coefficient matrix, and jacobi_window cuts a
contiguous principal window out of that; leading_principal_minors hands a
DenseMatrix made integral to the library's one-pass elimination, and
det_elimination keeps its last minor; pqst_matrix builds the weight pair
(sigma, tau) constant after their first entries.

recursive_section, step_matrix and the three dense_* checks are the
structural identities of the recursive matrix, given by its rows r_{n,0..n}
(cell reads r_{n,k} off them, zero outside the triangle), as dense Fraction
products, the textbook form of the band sums of ints the library checks
them by; fraction_rows turns the library's (row, den) pairs into such rows,
and build_recursive gives rows 0..depth of R that way, for the tests that
compare the library's recurrence with fraction_triangle cell by cell.

fraction_mul, fraction_divide and fraction_sqrt are the schoolbook series
kernels on Fraction coefficient lists, coefficient by coefficient, against
the library's three-term recurrences on integers; iterated_solve_h solves
h = A(x*h) by order+1 rounds of full re-evaluation with those kernels,
against the closed form the Riordan column check expands h by; solve_d is
d = 1 / (1 - p*x - q*x**2*h) by the schoolbook quotient, against the closed
forms of column 0, and fraction_riordan_check is the column check on
fraction_triangle and these kernels; LITERAL_FORMS writes each generating
function kind, and NAMED_LITERAL_FORMS each classical closed form, as the
literal formula c / (a0 + a1*x + e*sqrt(1 + r1*x + r2*x**2)), which
fraction_radical_quotient expands on the schoolbook kernels, against the
library's weights (p, q, s, t) and its one int recurrence;
fraction_horner evaluates a polynomial on Fractions.

fraction_weight reads one weight of a SequenceSpec on Fractions, off its
prefix and its tail's Fraction coefficients by fraction_horner, and
fraction_weights its first values: the reference of the library's one
reader, SequenceSpec.ints, which they never call.
int_weights puts Fraction weight lists over one denominator L as the
library's routes take them, (L s, L t, L), the triple read_weights reads;
record_weight_reads records every weight SequenceSpec.ints hands out.
window_minors and hankel_det_products are the Fraction forms of the
library's int minor chain and int weight products, on Fraction weights;
fraction_window_minors and fraction_det_products are the same chain and
products on Fractions, step by step, which the library runs on integers
over a common denominator.

probe_every_index_dominance is the weight-dominance route by enumeration:
every weight read by fraction_weight, on Fraction Horner steps, up to the
first index past the prefixes and past every real root of both tail
inequalities (a Cauchy bound); the library's route, which searches the tails
on ints, must give the same report.

det_cofactor is a determinant by Laplace expansion, independent of the
library's Bareiss kernel; condensation is a second one for Hankel
sections, a table of every contiguous Hankel minor by the Desnanot-Jacobi
identity (Dodgson condensation; Krattenthaler, Advanced determinant
calculus, 1999, section 2.3), independent of the library's pivot table;
principal_minors_nonneg evaluates every principal
minor with it, the brute-force definition of positive semidefiniteness the
Stieltjes verdicts must agree with; all_minors_nonneg scans every minor of a matrix
for negativity, the brute-force definition of total positivity the
library's structured routes must agree with, and window_scan every
contiguous principal minor of a section of J, each by its own elimination,
the classical test for a nonnegative tridiagonal matrix.
"""

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from catmoments.exact import (
    FALSE,
    TRUE,
    _int_leading_minors,
    _scaled_ints,
    as_rat,
    format_rat,
)
from catmoments.hankel import _weight_families
from catmoments.jacobi import TPReport, _minor_chain, _section_depth
from catmoments.recursive import _scaled_rows, read_weights
from catmoments.seqspec import SequenceSpec

# the verdict of all_minors_nonneg over its budget
INCONCLUSIVE = "INCONCLUSIVE"

COFACTOR_MAX_DIM = 9

# Upper bound on the number of minors an exhaustive scan may evaluate.
DEFAULT_MINOR_BUDGET = 2_000_000


@dataclass(frozen=True, slots=True)
class DenseMatrix:
    """Immutable rectangular matrix of exact rationals, built from any
    iterable of rows."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        grid = tuple(tuple(as_rat(x) for x in row) for row in self.entries)
        if not grid or not grid[0]:
            raise ValueError("matrix needs at least one row and one column")
        width = len(grid[0])
        if any(len(row) != width for row in grid):
            raise ValueError("matrix rows have unequal lengths")
        object.__setattr__(self, "entries", grid)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, index: tuple[int, int]) -> Fraction:
        i, j = index
        return self.entries[i][j]

    def __repr__(self) -> str:
        return f"DenseMatrix({self.rows}x{self.cols})"


def _hankel_terms(terms: Sequence, depth: int, shift: int) -> list[Fraction]:
    """m_shift..m_{2 depth+shift}, the terms of the (depth+1)-section."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if shift not in (0, 1):
        raise ValueError(f"shift must be 0 or 1, got {shift}")
    needed = 2 * depth + 1 + shift
    if len(terms) < needed:
        raise ValueError(f"need {needed} terms for depth {depth} shift {shift}, have {len(terms)}")
    return [as_rat(v) for v in terms[shift:needed]]


def build_hankel(terms: Sequence, depth: int, shift: int = 0) -> DenseMatrix:
    """The (depth+1) x (depth+1) matrix with entry (i, j) = m_{i+j+shift},
    from the terms m_0, m_1, ..."""
    window = _hankel_terms(terms, depth, shift)
    return DenseMatrix(window[i:i + depth + 1] for i in range(depth + 1))


def identity(n: int) -> DenseMatrix:
    return DenseMatrix(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def to_lists(matrix: DenseMatrix) -> list[list[Fraction]]:
    return [list(row) for row in matrix.entries]


def submatrix(matrix: DenseMatrix, row_idx, col_idx) -> DenseMatrix:
    return DenseMatrix(tuple(matrix.entries[i][j] for j in col_idx) for i in row_idx)


def transpose(matrix: DenseMatrix) -> DenseMatrix:
    return DenseMatrix(zip(*matrix.entries))


def matmul(a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    cols = transpose(b).entries
    return DenseMatrix(tuple(sum(x * y for x, y in zip(row, col)) for col in cols)
                       for row in a.entries)


def jacobi_section(s, t) -> DenseMatrix:
    """The leading section of J on the weights s_0..s_n and t_1..t_n."""
    n = _section_depth(s, t)
    return DenseMatrix(
        tuple(s[i] if j == i else t[j] if j == i - 1 else int(j == i + 1) for j in range(n + 1))
        for i in range(n + 1))


def leading_principal_minors(matrix: DenseMatrix) -> tuple[Fraction, ...]:
    """The determinants of the leading k x k sections, k = 1..n, by
    exact._int_leading_minors on the matrix made integral."""
    if not matrix.is_square:
        raise ValueError(f"leading minors need a square matrix, got {matrix!r}")
    n = matrix.rows
    ints, den = _scaled_ints([x for row in matrix.entries for x in row])
    return tuple(itertools.starmap(
        Fraction, _int_leading_minors([ints[i:i + n] for i in range(0, n * n, n)], den)))


def det_elimination(matrix: DenseMatrix) -> Fraction:
    return leading_principal_minors(matrix)[-1]


def jacobi_window(s, t, lo: int, hi: int) -> DenseMatrix:
    """The contiguous principal section on rows and columns lo..hi of J with
    diagonal s_0, s_1, ... and subdiagonal t_1, t_2, ..."""
    window = range(lo, hi + 1)
    return submatrix(jacobi_section(s[:hi + 1], t[:hi]), window, window)


def pqst_matrix(params) -> tuple[SequenceSpec, SequenceSpec]:
    """The weight pair of J with diagonal (p, s, s, ...) and subdiagonal
    (q, t, t, ...), from anything with fields p, q, s, t (a JacobiParams)."""
    return (SequenceSpec.first_then_constant(params.p, params.s, start=0),
            SequenceSpec.first_then_constant(params.q, params.t, start=1))


def fraction_rows(rows) -> list[tuple[Fraction, ...]]:
    """The (row, den) pairs of the library's integer rows as Fraction rows."""
    return [tuple(Fraction(v, den) for v in row) for row, den in rows]


def build_recursive(sigma, tau, depth: int) -> list[tuple[Fraction, ...]]:
    """Rows 0..depth of the recursive matrix of (sigma, tau) as Fractions, row
    n the tuple r_{n,0..n}: the library's integer rows, made Fraction rows."""
    return fraction_rows(_scaled_rows(*read_weights(sigma, tau, depth), depth))


def cell(R, n: int, k: int) -> Fraction:
    """r_{n,k} of the rows R, zero outside the triangle."""
    return R[n][k] if 0 <= k <= n < len(R) else Fraction(0)


def recursive_section(R, n: int) -> DenseMatrix:
    """The (n+1) x (n+1) leading section of the recursive matrix with rows R."""
    if n < 0 or n >= len(R):
        raise ValueError(f"section depth must lie in 0..{len(R) - 1}")
    return DenseMatrix(tuple(cell(R, i, j) for j in range(n + 1)) for i in range(n + 1))


def step_matrix(sigma, tau, n: int) -> DenseMatrix:
    """The (n+2) x (n+2) elimination factor L_n: unit diagonal, s_0..s_n on
    the first subdiagonal, t_1..t_n on the second."""
    size = n + 2
    rows = []
    for i in range(size):
        row = [Fraction(0)] * size
        row[i] = Fraction(1)
        if i >= 1:
            row[i - 1] = fraction_weight(sigma, i - 1)
        if i >= 2:
            row[i - 2] = fraction_weight(tau, i - 1)
        rows.append(row)
    return DenseMatrix(rows)


def dense_RJ_identity(R, sigma, tau, depth: int) -> str:
    """Rows 1..depth of R against rows 0..depth-1 of R_section @ J_section,
    J the coefficient matrix of sigma and tau."""
    J = jacobi_section(fraction_weights(sigma, depth + 1), fraction_weights(tau, depth))
    product = matmul(recursive_section(R, depth), J)
    shifted = (tuple(cell(R, n + 1, k) for k in range(depth + 1)) for n in range(depth))
    return TRUE if all(map(operator.eq, product.entries, shifted)) else FALSE


def dense_step_factorization(R, sigma, tau, n: int) -> str:
    """R_{n+1} against blockdiag(1, R_n) @ L_n, L_n from sigma and tau."""
    block = DenseMatrix([[int(i == j == 0) if min(i, j) == 0 else cell(R, i - 1, j - 1)
                          for j in range(n + 2)] for i in range(n + 2)])
    product = matmul(block, step_matrix(sigma, tau, n))
    return TRUE if recursive_section(R, n + 1) == product else FALSE


def dense_H_eq_RTRt(R, tau, terms, depth: int) -> str:
    """The (depth+1)-section of the Hankel matrix of the terms against
    R T R^t, T = diag(1, t_1, t_1 t_2, ...) from tau."""
    H = build_hankel(terms, depth, 0)
    section = recursive_section(R, depth)
    totals = [Fraction(1)]
    for k in range(1, depth + 1):
        totals.append(totals[-1] * fraction_weight(tau, k))
    T = DenseMatrix(tuple(totals[i] if i == j else 0 for j in range(depth + 1))
                    for i in range(depth + 1))
    return TRUE if H == matmul(matmul(section, T), transpose(section)) else FALSE


def fraction_triangle(sigma, tau, depth: int) -> list[list[Fraction]]:
    """Rows 0..depth of the recursive matrix; row n holds r_{n,0..n}."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    rows: list[list[Fraction]] = [[Fraction(1)]]
    for n in range(depth):
        prev = rows[n]

        def r(k: int) -> Fraction:
            return prev[k] if 0 <= k <= n else Fraction(0)

        rows.append([
            r(k - 1) + fraction_weight(sigma, k) * r(k) + fraction_weight(tau, k + 1) * r(k + 1)
            for k in range(n + 2)
        ])
    return rows


def fraction_terms(sigma, tau, depth: int) -> list[Fraction]:
    """Column 0 of fraction_triangle."""
    return [row[0] for row in fraction_triangle(sigma, tau, depth)]


def fraction_mul(a, b) -> list[Fraction]:
    """The product of two coefficient lists, to the shorter one's length."""
    n = min(len(a), len(b))
    out = []
    for k in range(n):
        acc = Fraction(0)
        for i in range(k + 1):
            if a[i]:
                acc += a[i] * b[k - i]
        out.append(acc)
    return out


def fraction_divide(f, g) -> list[Fraction]:
    """The quotient f / g of two coefficient lists, to the shorter one's length."""
    if g[0] == 0:
        raise ValueError("division requires a nonzero constant term")
    out: list[Fraction] = []
    for k in range(min(len(f), len(g))):
        acc = Fraction(f[k])
        for i in range(k):
            acc -= out[i] * g[k - i]
        out.append(acc / g[0])
    return out


def fraction_sqrt(f) -> list[Fraction]:
    """The square root of a coefficient list with constant term 1."""
    if f[0] != 1:
        raise ValueError("sqrt requires constant term 1")
    out: list[Fraction] = [Fraction(1)]
    for k in range(1, len(f)):
        acc = Fraction(f[k])
        for i in range(1, k):
            acc -= out[i] * out[k - i]
        out.append(acc / 2)
    return out


def shift(f) -> list[Fraction]:
    """x * f, cut to the length of f."""
    return [Fraction(0), *f[:-1]]


def iterated_solve_h(a_poly, order: int) -> list[Fraction]:
    """h = A(x*h) by order+1 rounds of h <- A(x*h), each pinning down one
    more coefficient; A(y) is evaluated by Horner with fraction_mul."""
    a = [Fraction(c) for c in a_poly]
    if not a or a[0] == 0:
        raise ValueError("A must have a nonzero constant term")
    h = [a[0]] + [Fraction(0)] * order
    for _ in range(order + 1):
        y = shift(h)
        acc = [a[-1]] + [Fraction(0)] * order
        for c in reversed(a[:-1]):
            acc = fraction_mul(acc, y)
            acc[0] += c
        h = acc
    return h


def solve_d(p, q, h) -> list[Fraction]:
    """d = 1 / (1 - p*x - q*x**2*h(x)) to the length of the coefficient list
    h: column 0 of the Riordan array (d, x*h) of weights (p, s, s, ...) over
    (q, t, t, ...), h = 1 + s*x*h + t*x**2*h**2 the series of (s, s, ...)
    over (t, t, ...)."""
    p, q, h = Fraction(p), Fraction(q), [Fraction(c) for c in h]
    one = [Fraction(1)] + [Fraction(0)] * (len(h) - 1)
    denom = [c - p * x - q * y for c, x, y in zip(one, shift(one), shift(shift(h)))]
    return fraction_divide(one, denom)


def fraction_riordan_check(p, q, s, t, order: int, k_max: int) -> str:
    """Columns 0..k_max of fraction_triangle of (p, s, s, ...) over
    (q, t, t, ...) against d (x h)^k, with h = iterated_solve_h([1, s, t])
    and d = solve_d(p, q, h) on the schoolbook kernels."""
    rows = fraction_triangle(SequenceSpec.first_then_constant(p, s, start=0),
                             SequenceSpec.first_then_constant(q, t, start=1), order)
    h = iterated_solve_h([1, s, t], order)
    column = solve_d(p, q, h)
    for k in range(k_max + 1):
        if column != [cell(rows, n, k) for n in range(order + 1)]:
            return FALSE
        column = fraction_mul(column, shift(h))
    return TRUE


#: the literal formula (c, a0, a1, e, r1, r2) of each classical closed form
#: c / (a0 + a1*x + e*sqrt(1 + r1*x + r2*x**2))
NAMED_LITERAL_FORMS = {
    "catalan": (2, 1, 0, 1, -4, 0),             # 2 / (1 + sqrt(1 - 4x))
    "central_binomial": (1, 0, 0, 1, -4, 0),    # 1 / sqrt(1 - 4x)
    "delannoy": (1, 0, 0, 1, -6, 1),            # 1 / sqrt(1 - 6x + x^2)
    "schroder_large": (2, 1, -1, 1, -6, 1),     # 2 / (1 - x + sqrt(1 - 6x + x^2))
    "schroder_little": (2, 1, 1, 1, -6, 1),     # 2 / (1 + x + sqrt(1 - 6x + x^2))
}

#: generating function kind -> map from its field values to its literal
#: formula (c, a0, a1, e, r1, r2), each specialization written from its own
#: formula, with sqrt(...) = sqrt(1 - 2*s*x + (s**2 - 4*t)*x**2)
LITERAL_FORMS = {
    # 2t / (2t - q + (q*s - 2*p*t)*x + q*sqrt(...)), t != 0
    "closed_form": lambda p, q, s, t: (2 * t, 2 * t - q, q * s - 2 * p * t, q, -2 * s,
                                       s * s - 4 * t),
    # q = t:  2 / (1 + (s - 2*p)*x + sqrt(...))
    "tied_q": lambda p, s, t: (2, 1, s - 2 * p, 1, -2 * s, s * s - 4 * t),
    # q = t, p = s:  2 / (1 - s*x + sqrt(...))
    "tied_qp": lambda s, t: (2, 1, -s, 1, -2 * s, s * s - 4 * t),
    # q = 2*t, p = s:  1 / sqrt(...)
    "inverse_sqrt": lambda s, t: (1, 0, 0, 1, -2 * s, s * s - 4 * t),
    "named": NAMED_LITERAL_FORMS.__getitem__,
}


def fraction_radical_quotient(c, a0, a1, e, r1, r2, order: int) -> list[Fraction]:
    """c / (a0 + a1*x + e*sqrt(1 + r1*x + r2*x**2)) to the given order, on
    the schoolbook kernels."""
    pad = [Fraction(0)] * order
    root = fraction_sqrt([Fraction(1), Fraction(r1), Fraction(r2), *pad][:order + 1])
    denom = [a + e * v for a, v in zip([Fraction(a0), Fraction(a1), *pad], root)]
    return fraction_divide([Fraction(c), *pad], denom)


def fraction_horner(coeffs, k: int) -> Fraction:
    """coeffs[0] + coeffs[1]*k + ... on Fractions."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * k + c
    return acc


def fraction_weight(spec, k: int) -> Fraction:
    """The value of spec at index k >= spec.start on Fractions: its prefix
    entry, or its tail's constant or polynomial at k."""
    if k < spec.start:
        raise ValueError(f"index {k} below start index {spec.start}")
    if k - spec.start < len(spec.prefix):
        return spec.prefix[k - spec.start]
    return fraction_horner(getattr(spec.tail, "coeffs", None) or (spec.tail.value,), k)


def fraction_weights(spec, count: int) -> list[Fraction]:
    """The first count values of spec from its start index (fraction_weight)."""
    return [fraction_weight(spec, spec.start + i) for i in range(count)]


def fraction_window_minors(s, t, lo: int) -> list[Fraction]:
    """D[lo..hi] for hi = lo..len(s) - 1 by D[lo..hi] = s_hi D[lo..hi-1] -
    t_hi D[lo..hi-2] on Fractions, from D[lo..lo-1] = 1, D[lo..lo-2] = 0,
    with s = [s_0, s_1, ...] and t = [t_1, t_2, ...]."""
    chain = [Fraction(0), Fraction(1)]
    for hi in range(lo, len(s)):
        chain.append(s[hi] * chain[-1] - (t[hi - 1] if hi > lo else 0) * chain[-2])
    return chain[2:]


def _root_bound(coeffs) -> int:
    """An int past every real root of the polynomial coeffs[0] + coeffs[1]*k
    + ... (Cauchy: 1 + max |c_i| / |lead|), or 0 when it is constant."""
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if len(coeffs) < 2:
        return 0
    return 2 + math.floor(max(map(abs, coeffs[:-1])) / abs(coeffs[-1]))


def probe_every_index_dominance(sigma, tau) -> TPReport:
    """s_0 >= 1, then t_k >= 0 and s_k >= t_k + 1 read by fraction_weight at
    every k from 1 up to B, the first index past both prefixes or past every
    real root of tau's tail and of sigma's minus tau's minus 1, whichever is
    larger.  From B on each tail keeps the sign of its leading coefficient,
    which the probe at B has read."""
    s0 = fraction_weight(sigma, 0)
    if s0 < 1:
        return TPReport("dominance", FALSE, depth=0, detail=f"s_0 = {format_rat(s0)} < 1")
    coeffs = [getattr(spec.tail, "coeffs", None) or (spec.tail.value,) for spec in (sigma, tau)]
    width = max(map(len, coeffs))
    s_tail, t_tail = ([*c, *[Fraction(0)] * (width - len(c))] for c in coeffs)
    diff = [a - b - (i == 0) for i, (a, b) in enumerate(zip(s_tail, t_tail))]
    first_tail = max(sigma.tail_start(), tau.tail_start(), 1)
    for k in range(1, max(first_tail, _root_bound(t_tail), _root_bound(diff)) + 1):
        s_k, t_k = fraction_weight(sigma, k), fraction_weight(tau, k)
        if t_k < 0:
            return TPReport("dominance", FALSE, depth=k, detail=f"t_{k} = {format_rat(t_k)} < 0")
        if s_k < t_k + 1:
            return TPReport("dominance", FALSE, depth=k, detail=(
                f"s_{k} = {format_rat(s_k)} < t_{k} + 1 = {format_rat(t_k + 1)}"))
    return TPReport("dominance", TRUE, detail=(
        f"condition holds for all k (tails decided exactly from k = {first_tail})"))


def int_weights(s, t) -> tuple[list[int], list[int], int]:
    """Fraction weight lists s_0.. and t_1.. as the library's routes take them,
    the triple recursive.read_weights reads: S = L s, T = L t and L, the LCM
    of their denominators."""
    ints, scale = _scaled_ints([*s, *t])
    return ints[:len(s)], ints[len(s):], scale


def record_weight_reads(monkeypatch) -> list:
    """Patch SequenceSpec.ints, the weight reader of every route, to record each
    weight it hands out, as (spec, index) pairs in call order: ints(count, den)
    reads indices start..start+count-1.  Returns the list the pairs go to."""
    reads = []
    ints = SequenceSpec.ints

    def counting_ints(spec, count, den):
        reads.extend((spec, spec.start + i) for i in range(count))
        return ints(spec, count, den)

    monkeypatch.setattr(SequenceSpec, "ints", counting_ints)
    return reads


def window_minors(s, t, lo: int) -> list[Fraction]:
    """D[lo..hi] for hi = lo..n, the contiguous principal minors of J on the
    Fraction weights s_0..s_n and t_1..t_n from row lo: the library's int
    chain (jacobi._minor_chain) over its powers of L."""
    return list(itertools.starmap(Fraction, _minor_chain(*int_weights(s, t), lo)))


def hankel_det_products(t, m0=Fraction(1)) -> list[Fraction]:
    """det[m_{i+j}] on the (n+1)-sections, n = 0..d, of m0 times the terms of
    a weight pair with subdiagonal weights t_1..t_d (H = R T R^t): the
    library's int products (hankel._weight_families) as Fractions."""
    (lead, *ints), scale = _scaled_ints([Fraction(m0), *t])
    return list(itertools.starmap(Fraction, _weight_families([], ints, scale, lead)[0]))


def fraction_det_products(t, m0) -> list[Fraction]:
    """T_0 * ... * T_n for n = 0..len(t), T_k = m0 t_1 ... t_k, on Fractions."""
    totals = itertools.accumulate(t, operator.mul, initial=Fraction(m0))
    return list(itertools.accumulate(totals, operator.mul))


def det_cofactor(matrix: DenseMatrix) -> Fraction:
    """Exact determinant by Laplace expansion; independent of det_elimination.

    Factorial cost, so the dimension is capped at COFACTOR_MAX_DIM.
    """
    if not matrix.is_square:
        raise ValueError(f"determinant needs a square matrix, got {matrix.rows}x{matrix.cols}")
    n = matrix.rows
    if n > COFACTOR_MAX_DIM:
        raise ValueError(f"cofactor expansion capped at {COFACTOR_MAX_DIM}x{COFACTOR_MAX_DIM}, got {n}")
    return _cofactor(to_lists(matrix))


def _cofactor(grid: list[list[Fraction]]) -> Fraction:
    n = len(grid)
    if n == 1:
        return grid[0][0]
    if n == 2:
        return grid[0][0] * grid[1][1] - grid[0][1] * grid[1][0]
    total = Fraction(0)
    for j, head in enumerate(grid[0]):
        if head == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in grid[1:]]
        term = head * _cofactor(minor)
        total += term if j % 2 == 0 else -term
    return total


def condensation(ints: list[int], depth: int) -> Optional[list[tuple[int, ...]]]:
    """det[ints[s+i+j]]_{i,j<n}, n = 1..depth+1, for each s < len(ints) - 2 depth, or
    None at a zero divisor: the rows of the table H_n^(k) of contiguous Hankel minors,
    H_0 = 1, H_1^(k) = ints[k] and H_n^(k) = (H_(n-1)^(k) H_(n-1)^(k+2) - H_(n-1)^(k+1)^2)
    // H_(n-2)^(k+2) (Desnanot-Jacobi), an exact division."""
    shifts = len(ints) - 2 * depth
    heads, row, prev = [ints[:shifts]], ints, [1] * len(ints)
    for _ in range(depth):
        if 0 in prev[2:len(row)]:
            return None
        prev, row = row, [(a * c - b * b) // e
                          for a, b, c, e in zip(row, row[1:], row[2:], prev[2:])]
        heads.append(row[:shifts])
    return list(zip(*heads))


def principal_minors_nonneg(matrix: DenseMatrix) -> bool:
    """Every principal minor of the square matrix is >= 0: for a symmetric
    matrix, positive semidefiniteness by definition."""
    return all(det_cofactor(submatrix(matrix, rows, rows)) >= 0
               for order in range(1, matrix.rows + 1)
               for rows in itertools.combinations(range(matrix.rows), order))


@dataclass(frozen=True)
class NegativeMinor:
    """Witness for a failed nonnegativity scan: the offending minor."""

    row_idx: tuple[int, ...]
    col_idx: tuple[int, ...]
    value: Fraction

    def to_json(self) -> dict:
        return {
            "rows": list(self.row_idx),
            "cols": list(self.col_idx),
            "value": format_rat(self.value),
        }


@dataclass(frozen=True)
class MinorScan:
    """Outcome of an exhaustive minor nonnegativity scan.

    status is TRUE, FALSE (with the lexicographically first negative minor
    as witness) or INCONCLUSIVE when the scan would exceed its budget; an
    over-budget scan never reports TRUE.
    """

    status: str
    witness: NegativeMinor | None = None
    minors_checked: int = 0
    reason: str | None = None


def count_minors(rows: int, cols: int, max_order: int) -> int:
    return sum(math.comb(rows, w) * math.comb(cols, w) for w in range(1, max_order + 1))


def all_minors_nonneg(
    matrix: DenseMatrix,
    max_order: int,
    budget: int = DEFAULT_MINOR_BUDGET,
) -> MinorScan:
    """Scan every minor of order <= max_order for negativity.

    Minors are enumerated by increasing order, then lexicographically by row
    subset and column subset, so a FALSE witness is deterministic.
    """
    if max_order < 0 or max_order > min(matrix.rows, matrix.cols):
        raise ValueError(
            f"max_order must lie in 0..{min(matrix.rows, matrix.cols)}, got {max_order}"
        )
    total = count_minors(matrix.rows, matrix.cols, max_order)
    if total > budget:
        return MinorScan(
            INCONCLUSIVE,
            reason=f"minor count {total} exceeds budget {budget}",
        )

    checked = 0
    for order in range(1, max_order + 1):
        for row_idx in itertools.combinations(range(matrix.rows), order):
            for col_idx in itertools.combinations(range(matrix.cols), order):
                if order == 1:
                    value = matrix.entries[row_idx[0]][col_idx[0]]
                else:
                    value = det_elimination(submatrix(matrix, row_idx, col_idx))
                checked += 1
                if value < 0:
                    return MinorScan(FALSE, NegativeMinor(row_idx, col_idx, value), checked)
    return MinorScan(TRUE, None, checked)


def window_scan(s, t) -> MinorScan:
    """The contiguous-minor scan of the section s_0..s_d, t_1..t_d: for a
    nonnegative tridiagonal matrix, total positivity iff every contiguous
    principal minor is nonnegative.  Entry signs first, then every window
    lo..hi by ascending lo and hi, each by its own elimination; FALSE with
    the first negative entry or window as witness."""
    for k, s_k in enumerate(s):
        if s_k < 0:
            return MinorScan(FALSE, NegativeMinor((k,), (k,), s_k))
        if k and t[k - 1] < 0:
            return MinorScan(FALSE, NegativeMinor((k,), (k - 1,), t[k - 1]))
    checked = 0
    for lo in range(len(s)):
        for hi in range(lo, len(s)):
            value = det_elimination(jacobi_window(s, t, lo, hi))
            checked += 1
            if value < 0:
                window = tuple(range(lo, hi + 1))
                return MinorScan(FALSE, NegativeMinor(window, window, value), checked)
    return MinorScan(TRUE, None, checked)


def is_nondecreasing_from_one(values) -> bool:
    """The chain property 1 <= D_0 <= D_1 <= ... of a leading-minor chain,
    claimed under the dominance condition."""
    if not values or values[0] < 1:
        return False
    return all(a <= b for a, b in zip(values, values[1:]))

"""Hankel matrices, the two-family Stieltjes determinant test, and the
factorization of the Hankel matrix through the recursive matrix.

A sequence (m_n) is a Stieltjes moment sequence exactly when both Hankel
sections [m_{i+j}] and [m_{i+j+1}] are positive semidefinite at every size.
Two routes evaluate both determinant families up to a stated depth and turn
them into a verdict, a bounded certificate that says so; both build the
report with one helper, so the same families give the same report.

  * stieltjes_weights, for a sequence generated by a weight pair, builds no
    Hankel matrix and generates no terms.  The Hankel matrix factors as
    H = R T R^t with R the unit lower triangular recursive matrix and T the
    diagonal of subdiagonal weight products T_k = t_1 ... t_k, and the
    shifted one as H^(1) = R (J T) R^t with J the coefficient matrix, so
    on every section det H_n = T_0 * ... * T_n (hankel_det_products) and
    det H^(1)_n = D_n * T_0 * ... * T_n with D_n the leading minor of J
    (jacobi.window_minors from row 0): O(depth) integer multiplications
    over weights read once (recursive.read_weights) and scaled integral.

  * stieltjes_check, for explicit terms (a plain sequence m_0, m_1, ...),
    inverts them first: the Chebyshev algorithm (Gautschi, Orthogonal
    Polynomials: Computation and Approximation, 2004, section 2.1) recovers
    the weights s_0..s_depth, t_1..t_depth of m / m_0 from m_0..m_{2 depth+1}
    column by column of the recursive matrix, O(depth^2) integer products.
    The recovered weights are certified by replay: m_0 times their
    Catalan-like numbers (recursive._scaled_rows) must give back every term,
    and only then are both families read off them as above, each scaled by
    m_0^(k+1).  Terms with m_0 <= 0, with a zero t_k (a zero leading minor
    of H) or that do not replay go to elimination instead.

Elimination is the fallback of stieltjes_check and the independent cross
check of the weight products (cli verify, cli hankel-det).  hankel_dets, the
only place a family is evaluated by elimination, scales the 2 depth+1 terms
of the family to integers over one denominator, and their windows are the
rows of the largest section: one symmetric fraction-free elimination
(exact._int_leading_minors) reads every leading minor off its pivots, about
depth^3/6 products per family and no DenseMatrix.  A negative leading
minor refutes.  Nonnegative leading minors prove semidefiniteness only when
all are positive, so a family with a zero one has its largest section
decided by exact.negative_principal_minor, whose witness names a negative
principal minor by its rows.

Why nonnegative leading minors suffice on the weight products: H_n and
H^(1)_n are congruent, through the invertible R_n, to the diagonal T_n and
to the symmetric tridiagonal (J T)_n, whose off-diagonal entries are T_1,
T_2, ...  For those two matrices nonnegative leading minors do decide
semidefiniteness.  A zero T_k zeroes every later T, so each matrix is an
irreducible leading block followed by zeros, and on that block a negative
T_k makes the first negative leading minor.  In an irreducible symmetric
tridiagonal matrix two consecutive leading minors are never both zero, so a
zero minor D_j T_0 ... T_j with T_{j+1} != 0 and a positive minor before it
makes the next leading minor negative.  Scaling by m_0 > 0 changes no sign.

verify_H_eq_RTRt checks the factorization on the int rows of R, the weights
and the terms by band sums of ints, not a dense product: O(depth^3), R being
triangular and T diagonal.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Optional, Sequence

from .exact import (
    FALSE,
    TRUE,
    DenseMatrix,
    _int_leading_minors,
    _over,
    _scaled_ints,
    as_rat,
    format_rat,
    negative_principal_minor,
)
from .jacobi import window_minors
from .recursive import _scaled_rows, read_weights
from .seqspec import SequenceSpec

DEFAULT_DEPTH = 8

PASS = "PASS"
FAIL = "FAIL"


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


def hankel_dets(terms: Sequence, depth: int, shift: int = 0) -> tuple[Fraction, ...]:
    """det[m_{i+j+shift}] on the (k+1) x (k+1) sections for k = 0..depth,
    all read off one elimination of the largest section, whose integer rows
    are windows of the terms scaled by one common denominator."""
    ints, den = _scaled_ints(_hankel_terms(terms, depth, shift))
    return _int_leading_minors([ints[i:i + depth + 1] for i in range(depth + 1)], den)


@dataclass(frozen=True)
class StieltjesReport:
    """Both determinant families up to a depth, with the verdict.

    dets0[k] = det[m_{i+j}] and dets1[k] = det[m_{i+j+1}] on (k+1)-sections.
    PASS means both largest sections are positive semidefinite.  FAIL
    carries a witness: the first negative determinant (smallest k, plain
    family before shifted) as family, k and value, or, when no determinant
    is negative, a negative principal minor as family, rows and value.
    Either way the claim is bounded by the stated depth.
    """

    depth: int
    dets0: tuple[Fraction, ...]
    dets1: tuple[Fraction, ...]
    verdict: str
    witness: Optional[dict] = None

    @classmethod
    def from_dets(cls, depth: int, dets0, dets1,
                  terms: Optional[Sequence] = None) -> "StieltjesReport":
        """The report on two determinant families.  terms, when given, have
        the Hankel sections of a family decided by elimination when that
        family has no negative leading minor but a zero one."""
        dets0, dets1 = tuple(dets0), tuple(dets1)
        witness = next(({"family": family, "k": k, "value": format_rat(dets[k])}
                        for k in range(depth + 1)
                        for family, dets in (("det0", dets0), ("det1", dets1))
                        if dets[k] < 0), None)
        if witness is None and terms is not None:
            for shift, dets in enumerate((dets0, dets1)):
                found = 0 in dets and negative_principal_minor(build_hankel(terms, depth, shift))
                if found:
                    witness = {"family": f"det{shift}", "rows": found[0],
                               "value": format_rat(found[1])}
                    break
        return cls(depth, dets0, dets1, PASS if witness is None else FAIL, witness)

    @classmethod
    def by_elimination(cls, terms: Sequence, depth: int) -> "StieltjesReport":
        """The report on both families of the explicit terms evaluated by
        elimination, each section with a zero leading minor decided too."""
        return cls.from_dets(depth, hankel_dets(terms, depth, 0),
                             hankel_dets(terms, depth, 1), terms)

    def to_json(self) -> dict:
        data = {
            "depth": self.depth,
            "dets0": [format_rat(v) for v in self.dets0],
            "dets1": [format_rat(v) for v in self.dets1],
            "verdict": self.verdict,
        }
        if self.witness is not None:
            data["witness"] = self.witness
        return data


def stieltjes_check(terms: Sequence, depth: int = DEFAULT_DEPTH) -> StieltjesReport:
    """Evaluate both Hankel determinant families of the explicit terms
    m_0, m_1, ... for k = 0..depth and decide both sections: from the
    weights the terms invert to when those replay to every term, by
    elimination otherwise (see the module docstring)."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    needed = 2 * depth + 2
    if len(terms) < needed:
        raise ValueError(f"need {needed} terms for depth {depth}, have {len(terms)}")
    terms = [as_rat(v) for v in terms[:needed]]
    m0 = terms[0]
    weights = _chebyshev_weights(terms, depth) if m0 > 0 else None
    if weights is None or not _replays(terms, *weights):
        return StieltjesReport.by_elimination(terms, depth)
    return _weight_report(depth, *weights, m0)


def stieltjes_weights(sigma: SequenceSpec, tau: SequenceSpec,
                      depth: int = DEFAULT_DEPTH) -> StieltjesReport:
    """The report stieltjes_check gives on the terms of the weight pair,
    read off the weights: both families as products, no Hankel matrix.
    Here nonnegative leading minors decide both sections (see the module
    docstring), so no elimination is needed past a zero one."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    return _weight_report(depth, *read_weights(sigma, tau, depth + 1))


def _weight_report(depth: int, s: list, t: list, m0=Fraction(1)) -> StieltjesReport:
    """The report on m0 times the Catalan-like numbers of s_0..s_depth and
    t_1..t_depth, both families read off the weights."""
    dets0 = hankel_det_products(t, m0)
    dets1 = map(operator.mul, window_minors(s, t, 0), dets0)
    return StieltjesReport.from_dets(depth, dets0, dets1)


def _chebyshev_weights(terms: list[Fraction], depth: int) -> Optional[tuple[list, list]]:
    """(s_0..s_depth, t_1..t_depth) of the weight pair whose Catalan-like
    numbers are m_n / m_0, from m_0..m_{2 depth+1} with m_0 > 0, or None
    when some t_k is zero.

    Walks the recursive matrix R of m / m_0 column by column: column k holds
    r_{n,k} for n = k..2 depth+1-k as ints over one denominator, which is
    the column's first int since r_{k,k} = 1.  The recurrence of R gives
    s_k = r_{k+1,k} - r_{k,k-1} and, with x_n = r_{n+1,k} - r_{n,k-1} -
    s_k r_{n,k}, t_{k+1} = x_{k+1} and r_{n,k+1} = x_n / t_{k+1}: the x_n
    over their common denominator are column k+1, up to one gcd.
    """
    col, _ = _scaled_ints(terms)        # column 0: r_{n,0} = m_n / m_0
    prev = [1] + [0] * (len(col) - 1)   # column -1: zeros over the denominator 1
    s, t = [], []
    for k in range(depth + 1):
        den, prev_den = col[0], prev[0]
        s.append(Fraction(col[1] * prev_den - prev[1] * den, den * prev_den))
        if k == depth:
            return s, t
        a, b = s[k].numerator, s[k].denominator
        common = math.lcm(den * b, prev_den)
        u, v = common // (den * b), common // prev_den
        x = [(col[i + 1] * b - col[i] * a) * u - prev[i + 1] * v
             for i in range(1, len(col) - 1)]
        if x[0] == 0:
            return None
        t.append(Fraction(x[0], common))
        g = math.gcd(*x) if x[0] > 0 else -math.gcd(*x)
        prev, col = col, [c // g for c in x]


def _replays(terms: list[Fraction], s: list, t: list) -> bool:
    """Whether m_0 times the Catalan-like numbers of the weights gives back
    every term: the certificate that the inversion found the weights.  The
    2 depth+2 terms use exactly s_0..s_depth and t_1..t_depth."""
    m0 = terms[0]
    rows = _scaled_rows(s, t, len(terms) - 1, True)
    return [m0 * Fraction(row[0], den) for row, den in rows] == terms


def verify_H_eq_RTRt(rows, t: list, terms: Sequence, depth: int) -> str:
    """Check the factorization H = R T R^t of the Hankel matrix of the terms
    m_0..m_{2 depth} on (depth+1)-sections, R given by the (row, den) pairs
    of _scaled_rows (r_{n,k} = row[k] / den) and T the diagonal of the
    running products T_0 = 1, T_k = t_1 ... t_k.

    Exact on sections because row n of R ends at column n.  Entry (i, j) of
    R T R^t is the sum over k <= min(i, j) of r_{i,k} T_k r_{j,k}; both
    sides are symmetric, so the lower triangle is compared with m_{i+j}, on
    ints: with L the LCM of the denominators of t_1..t_depth and P_k = L t_1
    ... L t_k, the sum of row_i[k] row_j[k] P_k L^(depth-k) is m_{i+j} den_i
    den_j L^depth.
    """
    if not 0 <= depth < len(rows):
        raise ValueError(f"depth must be >= 0 and <= {len(rows) - 1}, got {depth}")
    if len(terms) < 2 * depth + 1:
        raise ValueError(f"need {2 * depth + 1} terms for depth {depth}, have {len(terms)}")
    if len(t) < depth:
        raise ValueError(f"need t_1..t_{depth}, have {len(t)} weights")
    ints, scale = _scaled_ints(t[:depth])
    products = enumerate(accumulate(ints, operator.mul, initial=1))
    diagonal = [p * scale**(depth - k) for k, p in products]      # diagonal[0] = L^depth
    for i, (row_i, den_i) in enumerate(rows[:depth + 1]):
        row_iT, top = list(map(operator.mul, row_i, diagonal)), den_i * diagonal[0]
        for (row_j, den_j), m in zip(rows[:i + 1], terms[i:]):
            if sum(map(operator.mul, row_iT, row_j)) * m.denominator != m.numerator * den_j * top:
                return FALSE
    return TRUE


def hankel_det_products(t: Sequence[Fraction], m0: Fraction = Fraction(1)) -> list[Fraction]:
    """det[m_{i+j}] on the (n+1)-sections, n = 0..d, from the subdiagonal
    weights t_1..t_d alone: by H = R T R^t with R unit triangular, the
    running product T_0 * ... * T_n of T_0 = 1, T_k = t_1 * ... * t_k.  For
    m0 times the terms of the weights each T_k is scaled by m0, which
    scales the n-th product by m0^(n+1).  Over L, the LCM of the
    denominators of m0 and t, m0 T_k is an integer over L^(k+1)."""
    ints, den = _scaled_ints([m0, *t])
    products = accumulate(accumulate(ints, operator.mul), operator.mul)
    return [_over(p, den ** ((n + 1) * (n + 2) // 2)) for n, p in enumerate(products)]

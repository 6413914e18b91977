"""The two-family Stieltjes determinant test of Hankel sections, and the
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
    on every section det H_n = T_0 * ... * T_n and det H^(1)_n = D_n *
    T_0 * ... * T_n with D_n the leading minor of J (jacobi._minor_chain
    from row 0): O(depth) integer multiplications (_weight_families) on
    the weights as recursive.read_weights reads them, each once, as ints
    over one L straight from the specs.

  * stieltjes_check, for explicit terms (a plain sequence m_0, m_1, ...),
    walks m_0..m_{2 depth+1} once, as ints over their common denominator D
    (_chebyshev_walk, below), and reads off it the weights s_0..s_depth,
    t_1..t_depth of m / m_0.  With m_0 > 0, no zero t_k (a zero leading
    minor of H), the weights over an L no larger than D (else the sections
    cost less; no weight is made past the first whose running lcm passes D)
    and replay (m_0 times their Catalan-like numbers,
    recursive._scaled_rows, give back every term), both families are the
    weight products above, each scaled by m_0^(k+1); otherwise the walk's
    own families are the report (StieltjesReport.by_elimination).

Both families stay ints until they are printed: each determinant is an int
over a power of the weights' or the terms' common denominator.  Signs, the
verdict and the witness are read off the numerators, reports are compared
by cross-multiplication, and to_json prints with exact.format_over.

The Hankel sections of the terms, which never read the weights, are the
fallback of stieltjes_check and the independent cross check of the weight
products (cli verify, cli hankel-det).  _section_minors evaluates them on
the terms as ints over one denominator off one walk of the modified
Chebyshev algorithm (Gautschi, Orthogonal Polynomials, 2004, section 2.1),
O(depth^2) int operations on entries no larger than the terms on integral
weights: the leading minors H_k are products of its pivots, the shifted
family follows from its orthogonal polynomials at 0, and a zero H_k, k <
depth, sends each family to exact._int_leading_minors, O(depth^3).  A
negative leading minor refutes.  Nonnegative leading minors prove
semidefiniteness only when all are positive, so a family with a zero one
has its largest section, the windows of its terms as rows of Fractions,
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

verify_H_eq_RTRt checks the factorization by band sums of ints, O(depth^3).
Every entry point that takes explicit terms reads them by _terms, which
refuses a str or bytes, a negative depth and a short list.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import accumulate, starmap
from typing import Iterator, Optional, Sequence

from .exact import (
    FALSE,
    TRUE,
    _Value,
    _int_leading_minors,
    _same_values,
    _scaled_ints,
    _values,
    as_rat,
    format_over,
    format_rat,
    negative_principal_minor,
)
from .jacobi import _minor_chain
from .recursive import _scaled_rows, read_weights
from .seqspec import SequenceSpec

DEFAULT_DEPTH = 8

PASS = "PASS"
FAIL = "FAIL"


def _terms(terms: Sequence, count: int, depth: int) -> list[Fraction]:
    """The first count terms as Fractions; a str or bytes, depth < 0 or fewer terms refused."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    terms = _values(terms, "terms")
    if len(terms) < count:
        raise ValueError(f"need {count} terms for depth {depth}, have {len(terms)}")
    return [as_rat(v) for v in terms[:count]]


def _windows(values: list, depth: int) -> list[list]:
    """The rows of the (depth+1)-section whose row i is values[i:i + depth + 1]."""
    return [values[i:i + depth + 1] for i in range(depth + 1)]


def _chebyshev_walk(ints: list[int], depth: int) -> Optional[tuple[list, list]]:
    """The modified Chebyshev algorithm (Gautschi 2004, section 2.1) on m_n = ints[n]: its
    pivots p_k = H_k / H_(k-1) as (a_k, e_k) = (p_k e_k, e_k), k = 0..depth, and c_k, k =
    0..depth (k < depth if ints stop at m_(2 depth)); None at a zero H_k, k < depth.  Row k
    holds the modified moments sigma_k[l] = row[l-k] / e_k, l = k..len(ints)-1-k: sigma_0 =
    m, sigma_(-1) = 0, sigma_(k+1)[l] = sigma_k[l+1] - s_k sigma_k[l] - t_k sigma_(k-1)[l]
    with p_k = sigma_k[k], t_k = p_k / p_(k-1) and s_k = sigma_k[k+1] / p_k - sigma_(k-1)[k]
    / p_(k-1) = c_k / (a_k a_(k-1)), c_k = a_(k-1) row_k[1] - a_k row_(k-1)[1], a_(-1) = 1.
    s_k and t_k e_k / e_(k-1) = a_k / a_(k-1) go over their least common denominator u, row
    k+1 over u e_k, cut by its gcd, which is 1 on integral terms and weights: there
    sigma_k[l] = m_0 T_k r_{l,k} is an int no larger than the terms."""
    pivots, cs = [], []
    prev, row, b, e = [0] * len(ints), ints, 1, 1
    for k in range(depth + 1):
        a = row[0]
        pivots.append((a, e))
        if len(row) > 1:
            cs.append(c := b * row[1] - a * prev[1])
        if k == depth:
            return pivots, cs
        if a == 0:
            return None
        g = math.gcd(a * b, c, a * a)
        u, us, ut = a * b // g, c // g, a * a // g
        y = [u * x - us * z - ut * w for x, z, w in zip(row[2:], row[1:], prev[2:])]
        g = math.gcd(u * e, *y)
        prev, row, b, e = row, y if g == 1 else [v // g for v in y], a, u * e // g


def _walk_weights(pivots: list, cs: list) -> Iterator[Fraction]:
    """s_0..s_depth, then t_1..t_depth, of the terms _chebyshev_walk walked, one at a time,
    off its pivots, all nonzero, and c_0..c_depth: s_k = c_k / (a_k a_(k-1)),
    t_k = a_k e_(k-1) / (a_(k-1) e_k)."""
    lead = [(1, 1), *pivots]
    yield from (Fraction(c, a * b) for c, (a, _), (b, _) in zip(cs, pivots, lead))
    yield from (Fraction(a * f, b * e) for (a, e), (b, f) in zip(pivots[1:], pivots))


def _section_minors(ints: list[int], den: int, depth: int,
                    shifts: Sequence[int]) -> list[list[tuple[int, int]]]:
    """The leading minors, k = 0..depth, of the Hankel sections whose rows are the windows
    of ints[s:] over den, as (num, den^(k+1)) ints, a family for each s in shifts, each
    0 or 1 and below len(ints) - 2 depth: by _chebyshev_walk, or by elimination past a zero
    leading minor of the plain section."""
    return _walk_minors(_chebyshev_walk(ints, depth), ints, den, depth, shifts)


def _walk_minors(walk: Optional[tuple[list, list]], ints: list[int], den: int, depth: int,
                 shifts: Sequence[int]) -> list[list[tuple[int, int]]]:
    """_section_minors off walk, the _chebyshev_walk of ints, or by elimination if None.
    H_k = H_(k-1) p_k, and q_k = H_(k-1) P_k(0) of the monic orthogonal polynomials,
    P_(k+1)(0) = -s_k P_k(0) - t_k P_(k-1)(0), is q_(k+1) = -(c_k e_k q_k + a_k^2 a_(k-1)
    q_(k-1)) / (a_(k-1) e_k^2), exactly, also at H_depth = 0: (-1)^(k+1) det H^(1)_k."""
    if walk is None:
        return [_int_leading_minors(_windows(ints[s:], depth), den) for s in shifts]
    (pivots, cs), families, h, q_prev, q, b = walk, ([], []), 1, 0, 1, 1
    for k, (a, e) in enumerate(pivots):
        families[0].append(h := h * a // e)
        if len(cs) > depth:
            q_prev, q = q, -(cs[k] * e * q + a * a * b * q_prev) // (b * e * e)
            families[1].append(q if k % 2 else -q)
        b = a
    scales = list(accumulate([den] * (depth + 1), operator.mul))
    return [list(zip(families[s], scales)) for s in shifts]


class StieltjesReport(_Value):
    """Both determinant families up to a depth, with the verdict.

    family0[k] and family1[k] are det[m_{i+j}] and det[m_{i+j+1}] on the
    (k+1)-sections as (num, den) ints, den > 0.  Reports are equal when
    their values are, whatever the denominators, and so are their depths,
    verdicts and witnesses.  PASS means both largest sections are positive
    semidefinite.  FAIL carries a witness: the first negative determinant
    (smallest k, plain family before shifted) as family, k and value, or,
    when no determinant is negative, a negative principal minor as family,
    rows and value.  Either way the claim is bounded by the stated depth.
    """

    _compared = ("depth", "family0", "family1", "verdict", "witness")

    def __init__(self, depth: int, family0: tuple, family1: tuple, verdict: str,
                 witness: Optional[dict] = None):
        self.__dict__.update(depth=depth, family0=family0, family1=family1,
                             verdict=verdict, witness=witness)

    def __eq__(self, other) -> bool:
        if not isinstance(other, StieltjesReport):
            return NotImplemented
        return ((self.depth, self.verdict, self.witness)
                == (other.depth, other.verdict, other.witness)
                and _same_values(self.family0, other.family0)
                and _same_values(self.family1, other.family1))

    @classmethod
    def from_families(cls, depth: int, family0, family1,
                      terms: Optional[Sequence] = None) -> "StieltjesReport":
        """The report on two families of (num, den) ints, every sign read
        off a numerator.  terms, when given, have the Hankel sections of a
        family decided by elimination when that family has no negative
        leading minor but a zero one."""
        families = tuple(family0), tuple(family1)
        witness = next(({"family": f"det{shift}", "k": k, "value": format_over(*family[k])}
                        for k in range(depth + 1)
                        for shift, family in enumerate(families)
                        if family[k][0] < 0), None)
        if witness is None and terms is not None:
            for shift, family in enumerate(families):
                found = any(num == 0 for num, _ in family) and negative_principal_minor(
                    _windows(_terms(terms, 2 * depth + 1 + shift, depth)[shift:], depth))
                if found:
                    witness = {"family": f"det{shift}", "rows": found[0],
                               "value": format_rat(found[1])}
                    break
        return cls(depth, *families, PASS if witness is None else FAIL, witness)

    @classmethod
    def by_elimination(cls, terms: Sequence, depth: int) -> "StieltjesReport":
        """The report on both families of the explicit terms, from their Hankel
        sections (_section_minors), each with a zero leading minor decided too."""
        terms = _terms(terms, 2 * depth + 2, depth)
        families = _section_minors(*_scaled_ints(terms), depth, (0, 1))
        return cls.from_families(depth, *families, terms)

    def to_json(self) -> dict:
        data = {
            "depth": self.depth,
            "dets0": list(starmap(format_over, self.family0)),
            "dets1": list(starmap(format_over, self.family1)),
            "verdict": self.verdict,
        }
        if self.witness is not None:
            data["witness"] = self.witness
        return data


def stieltjes_check(terms: Sequence, depth: int = DEFAULT_DEPTH) -> StieltjesReport:
    """Evaluate both Hankel determinant families of the explicit terms
    m_0, m_1, ... for k = 0..depth and decide both sections: from the
    weights the terms invert to when those replay to every term, from
    their Hankel sections otherwise (see the module docstring)."""
    terms = _terms(terms, 2 * depth + 2, depth)
    ints, den = _scaled_ints(terms)
    walk = _chebyshev_walk(ints, depth)
    if walk is not None and terms[0] > 0 and walk[0][depth][0] != 0:   # so no t_k is 0
        weights, scale = [], terms[0].denominator
        for weight in _walk_weights(*walk):
            scale = math.lcm(scale, weight.denominator)
            if scale > den:
                break
            weights.append(weight)
        else:
            (m0, *scaled), scale = _scaled_ints([terms[0], *weights])
            s, t = scaled[:depth + 1], scaled[depth + 1:]
            if _replays(terms, s, t, scale):
                return StieltjesReport.from_families(depth, *_weight_families(s, t, scale, m0))
    families = _walk_minors(walk, ints, den, depth, (0, 1))
    return StieltjesReport.from_families(depth, *families, terms)


def stieltjes_weights(sigma: SequenceSpec, tau: SequenceSpec,
                      depth: int = DEFAULT_DEPTH) -> StieltjesReport:
    """The report stieltjes_check gives on the terms of the weight pair,
    read off the weights: both families as products, no Hankel matrix.
    Here nonnegative leading minors decide both sections (see the module
    docstring), so no elimination is needed past a zero one."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    return StieltjesReport.from_families(
        depth, *_weight_families(*read_weights(sigma, tau, depth + 1)))


def _weight_families(s: list[int], t: list[int], scale: int, m0=None) -> tuple[list, list]:
    """Both Hankel families of m_0 times the Catalan-like numbers of s_0..
    and t_1..t_d, given as S = L s, T = L t and m0 = L m_0 over L (m_0 = 1
    when m0 is None), as (num, den) int pairs, den > 0: det H_n for n = 0..d
    and det H^(1)_n for n = 0..min(d, len(s) - 1).

    L m_0 and L t_k make L^(k+1) m_0 T_k = (L m_0)(L t_1)...(L t_k), and
    their running product P_n is det H_n = m_0^(n+1) T_0 ... T_n over
    L^((n+1)(n+2)/2).  jacobi._minor_chain gives D'_n = L^(n+1) D_n, and
    det H^(1)_n = D_n det H_n is D'_n P_n over the product of the two scales."""
    lead = [scale if m0 is None else m0, *t]
    powers = accumulate([scale] * len(lead), operator.mul)          # L^(n+1)
    products = accumulate(accumulate(lead, operator.mul), operator.mul)
    family0 = list(zip(products, accumulate(powers, operator.mul)))
    chain = _minor_chain(s, t, scale, 0)
    return family0, [(d * p, c * q) for (d, c), (p, q) in zip(chain, family0)]


def _replays(terms: list[Fraction], s: list[int], t: list[int], scale: int) -> bool:
    """Whether m_0 times the Catalan-like numbers of the weights L s, L t over
    L gives back every term: the certificate that the inversion found the
    weights, by int cross-multiplication of m_0 row[0] / den with each term.
    The 2 depth+2 terms use exactly s_0..s_depth and t_1..t_depth."""
    a, b = terms[0].numerator, terms[0].denominator
    rows = _scaled_rows(s, t, scale, len(terms) - 1, True)
    return all(a * row[0] * m.denominator == m.numerator * b * den
               for (row, den), m in zip(rows, terms))


def verify_H_eq_RTRt(rows, t: list[int], scale: int, terms: Sequence, depth: int) -> str:
    """Check the factorization H = R T R^t of the Hankel matrix of the terms
    m_0..m_{2 depth} on (depth+1)-sections, R given by the (row, den) pairs
    of _scaled_rows (r_{n,k} = row[k] / den) and T the diagonal of the
    running products T_0 = 1, T_k = t_1 ... t_k of the weights L t_k over L.

    Exact on sections because row n of R ends at column n.  Entry (i, j) of
    R T R^t is the sum over k <= min(i, j) of r_{i,k} T_k r_{j,k}; both
    sides are symmetric, so the lower triangle is compared with m_{i+j}, on
    ints: with P_k = L t_1 ... L t_k, the sum of row_i[k] row_j[k] P_k L^(depth-k) is m_{i+j} den_i
    den_j L^depth.
    """
    if not 0 <= depth < len(rows):
        raise ValueError(f"depth must be >= 0 and <= {len(rows) - 1}, got {depth}")
    terms = _terms(terms, 2 * depth + 1, depth)
    if len(t) < depth:
        raise ValueError(f"need t_1..t_{depth}, have {len(t)} weights")
    products = enumerate(accumulate(t[:depth], operator.mul, initial=1))
    diagonal = [p * scale**(depth - k) for k, p in products]      # diagonal[0] = L^depth
    for i, (row_i, den_i) in enumerate(rows[:depth + 1]):
        row_iT, top = list(map(operator.mul, row_i, diagonal)), den_i * diagonal[0]
        for (row_j, den_j), m in zip(rows[:i + 1], terms[i:]):
            if sum(map(operator.mul, row_iT, row_j)) * m.denominator != m.numerator * den_j * top:
                return FALSE
    return TRUE


"""The recursive matrix of a weight pair and its structural identities.

Given diagonal weights sigma = (s_k)_{k>=0} and subdiagonal weights
tau = (t_k)_{k>=1}, the recursive matrix R is the unit lower triangular
matrix with r_{0,0} = 1 and

    r_{n+1,k} = r_{n,k-1} + s_k * r_{n,k} + t_{k+1} * r_{n,k+1},

where r_{n,k} = 0 unless n >= k >= 0.  Column 0 holds the sequence the rest
of the package certifies.  The same numbers count weighted lattice paths
(up/level/down steps staying nonnegative, level steps at height k weighted
s_k and down steps from height k weighted t_k); motzkin_oracle evaluates
that count by explicit path enumeration, independent of the recurrence, and
serves as the test oracle.

The recurrence runs on integers.  read_weights reads each weight it uses
once, as an int over L, the LCM of both specs' denominators, straight from
the specs' ints (SequenceSpec.ints: no Fraction per weight); then
L**n * r_{n,k} is an integer and row n+1 follows from row n with int
arithmetic only.  The library returns Fractions; matrix prints the ints
over L**n (exact.format_over), and gen prints column 0 the same way, for
weights not constant after their first entry.  For those that are, gen and
hankel-det take column 0 from series' closed-form recurrence at O(1)
operations a term, where row n here takes O(n).
catalan_like and the replay of stieltjes --terms stay on the triangle, the
independent route that verify checks the generating functions against.
Rows 0..depth use s_0..s_{depth-1} and t_1..t_{depth-1}.  catalan_like
keeps one row at a time and only the columns k <= depth - n, the cells from
which a path can still return to column 0 by the last row, so it uses only
s_0..s_{(depth-1)//2} and t_1..t_{depth//2}: a closed path of length depth
takes a level step at height k only if 2k + 1 <= depth, and a down step
from height k only if 2k <= depth.

The shift identity check takes the int rows of _scaled_rows and the int
weights over L, and forms each entry of R J as a three-term band sum of
ints, O(d^2) on a section of size d; past row 0 the step factorization is
that identity one row deeper.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact import FALSE, TRUE, _over
from .seqspec import SequenceSpec

ORACLE_MAX_LENGTH = 14


def read_weights(sigma: SequenceSpec, tau: SequenceSpec, depth: int, truncate: bool = False):
    """(S, T, L): L s_0.., L t_1.. as ints, L the LCM of the specs' denominators, each
    weight read once: those rows 0..depth use (truncate: their kept cells).  Also
    the weights of the TP routes and stieltjes_weights: s_0..s_d, t_1..t_d at depth d + 1."""
    s_count, t_count = ((depth + 1) // 2, depth // 2) if truncate else (depth, depth - 1)
    scale = math.lcm(sigma.den, tau.den)
    return sigma.ints(s_count, scale), tau.ints(t_count, scale), scale


def _scaled_rows(s: list[int], t: list[int], scale: int, depth: int, truncate: bool = False):
    """Yield (row, den) for n = 0..depth, row[k] = den * r_{n,k} as ints and
    den = L**n, from the weights S, T, L of read_weights(..., depth, truncate).
    Row n holds columns 0..n, or 0..min(n, depth - n) when truncate is set."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    pad = [0] * (depth + 1)
    s, t = s + pad, t + pad
    row, den = [1], 1
    yield row, den
    for n in range(depth):
        width = min(n + 2, depth - n) if truncate else n + 2
        padded = row + [0, 0]
        row = [scale * up + sk * level + tk * down
               for up, level, down, sk, tk in zip([0, *row], padded, padded[1:], s[:width], t)]
        den *= scale
        yield row, den


def catalan_like(sigma: SequenceSpec, tau: SequenceSpec, depth: int) -> list[Fraction]:
    """Column 0 of the recursive matrix: terms 0..depth of the sequence."""
    rows = _scaled_rows(*read_weights(sigma, tau, depth, True), depth, True)
    return [Fraction(row[0], den) for row, den in rows]


def motzkin_oracle(sigma: SequenceSpec, tau: SequenceSpec, n: int) -> Fraction:
    """Term n by explicit weighted path enumeration (independent oracle).

    Sums the weight of every up/level/down path of length n from height 0
    back to height 0 that never dips below 0: up steps weigh 1, a level step
    at height k weighs s_k, a down step from height k weighs t_k.  The only
    pruning is the feasibility bound height <= remaining steps, which
    discards no completable path.  Run on the ints of read_weights, steps
    weigh L, L s_k and L t_k; the total is over L**n.
    """
    if n < 0:
        raise ValueError("path length must be >= 0")
    if n > ORACLE_MAX_LENGTH:
        raise ValueError(
            f"oracle enumerates paths explicitly; length is capped at {ORACLE_MAX_LENGTH}"
        )
    total = 0
    # each weight read once: a path of length n stays at height <= n // 2
    s, t, scale = read_weights(sigma, tau, n // 2 + 1)
    t = [None, *t]

    def walk(remaining: int, height: int, weight: int):
        nonlocal total
        if height > remaining:
            return
        if remaining == 0:
            total += weight
            return
        walk(remaining - 1, height + 1, weight * scale)
        walk(remaining - 1, height, weight * s[height])
        if height > 0:
            walk(remaining - 1, height - 1, weight * t[height])

    walk(n, 0, 1)
    return _over(total, scale**n)


def verify_RJ_identity(rows, s: list[int], t: list[int], scale: int, depth: int) -> str:
    """Check that deleting row 0 of R equals R times the coefficient matrix J
    of s_0..s_depth and t_1..t_depth, R given by the (row, den) pairs of
    _scaled_rows: r_{n,k} = row[k] / den, row n ending at column n.  The
    weights are S = L s and T = L t over L (read_weights), and entry (n, k)
    of R J times L den_n is the int L r'_{n,k-1} + S_k r'_{n,k} + T_{k+1}
    r'_{n,k+1}, r' = row n, and row n+1 times L den_n / den_{n+1}; the two
    are compared cross-multiplied (by 1 when den_n = L**n, as in _scaled_rows).
    """
    if depth < 1 or depth >= len(rows):
        raise ValueError(f"depth must lie in 1..{len(rows) - 1}")
    if len(s) <= depth or len(t) < depth:
        raise ValueError(f"need s_0..s_{depth} and t_1..t_{depth}")
    t = [*t, 0]
    for (row, den), (below, below_den) in zip(rows, rows[1:depth + 1]):
        padded = [*row, 0, 0]
        product = [scale * up + sk * level + tk * down
                   for up, level, down, sk, tk in zip([0, *row], padded, padded[1:], s, t)]
        if [p * below_den for p in product] != [v * scale * den for v in below]:
            return FALSE
    return TRUE


def verify_step_factorization(rows, s: list[int], t: list[int], scale: int, n: int) -> str:
    """Check R_{n+1} = blockdiag(1, R_n) @ L_n, the one-step factorization
    that peels the recurrence off the leading section.  L_n has unit
    diagonal, s_0..s_n and t_1..t_n below it, so row 0 of the product is
    e_0 and entry (i, j) below it is r_{i-1,j-1} + s_j r_{i-1,j} +
    t_{j+1} r_{i-1,j+1}, entry (i-1, j) of R @ J: the shift identity on
    rows 0..n+1 of R (row, den pairs), S = L s_0..L s_{n+1}, T = L t_1..L t_{n+1}
    and L.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    row, den = rows[0]
    if list(row) != [den]:
        return FALSE
    return verify_RJ_identity(rows, s, t, scale, n + 1)

"""The tridiagonal coefficient matrix of a weight pair and its total
positivity certification.

The coefficient matrix J carries the diagonal weights s_0, s_1, ... on its
diagonal, the subdiagonal weights t_1, t_2, ... below, and 1 everywhere on
the superdiagonal.  Total positivity of J (all minors of all orders
nonnegative) is what makes the attached sequence a Stieltjes moment
sequence, and three routes certify it:

  * tp_sufficient_dominance: the weight-dominance condition s_0 >= 1,
    t_k >= 0 and s_k >= t_k + 1, decided exactly for the infinite matrix:
    explicitly below the first tail index, on the tail polynomials from it.
  * tp_criterion_pqst: for weights constant after the first entry, an exact
    if-and-only-if criterion, evaluated without floating point by case
    analysis and squaring.
  * tp_by_leading_minors: decides a finite section by the minor chain of
    each of its irreducible blocks.

A nonnegative tridiagonal matrix is totally positive iff all its contiguous
principal minors are nonnegative; each t_k = 0 splits the section into
irreducible blocks, J is block upper triangular, a window across blocks is
the product of its pieces, and the section is totally positive iff every
block is.  A block, all its t_k > 0, is diagonally similar to a symmetric
nonnegative tridiagonal matrix, totally positive iff positive semidefinite
(Pinkus, Totally Positive Matrices, 2010; Fallat and Johnson, Totally
Nonnegative Matrices, 2011), that is iff its leading minors are positive
but for the last, which may be 0.  A zero minor D_k before the block's end
makes the next one -t_(k+1) D_(k-1) < 0, so the block's chain decides: its
first negative minor, if any, is the witness.

Every contiguous principal minor of a tridiagonal matrix, the leading ones
included, follows one three-term recurrence,

    D[lo..hi] = s_hi D[lo..hi-1] - t_hi D[lo..hi-2],

so _minor_chain is the only determinant evaluation here, and hankel reads
the shifted Hankel family off the same chain: O(depth) multiplications for
a section.  The chain runs on integers: with L the LCM of the weights'
denominators, s' = L s and t' = L^2 t give D' = L^(hi-lo+1) D by the same
recurrence.  The section route decides each sign on D'; only a printed
minor is reduced (format_over).  It takes S = L s_0..L s_depth,
T = L t_1..L t_depth and L as recursive.read_weights(sigma, tau, depth + 1)
reads them, straight from the specs' ints (_int_section lays them out as
rows for verify's elimination).  Dominance reads the weights below the
first tail index K the same way, read_weights(sigma, tau, K), and none from
K on: there it searches the two tail polynomials, as ints over the same L
(SequenceSpec.tail_ints), for their first negative value.

Every verdict is TRUE or FALSE, and every report states the depth it
actually checked.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .exact import FALSE, TRUE, _Value, format_over, format_rat, nonneg_rats
from .recursive import read_weights
from .seqspec import SequenceSpec, _horner


class JacobiParams(_Value):
    """Weights constant after the first entry: diagonal (p, s, s, ...),
    subdiagonal (q, t, t, ...); all four nonnegative, held as Fractions."""

    _compared = ("p", "q", "s", "t")

    def __init__(self, p, q, s, t):
        p, q, s, t = nonneg_rats(zip("pqst", (p, q, s, t)), "parameter ")
        self.__dict__.update(p=p, q=q, s=s, t=t)

    def to_json(self) -> dict:
        return {name: format_rat(getattr(self, name)) for name in "pqst"}


class TPReport(_Value):
    """Outcome of one total-positivity route.

    criterion names the route; verdict is TRUE or FALSE;
    depth is the largest index actually inspected (None for purely
    symbolic verdicts); witness carries the refuting minor when FALSE.
    """

    _compared = ("criterion", "verdict", "depth", "witness", "detail")

    def __init__(self, criterion: str, verdict: str, depth: Optional[int] = None,
                 witness: Optional[dict] = None, detail: Optional[str] = None):
        self.__dict__.update(criterion=criterion, verdict=verdict, depth=depth,
                             witness=witness, detail=detail)

    def to_json(self) -> dict:
        data = {"criterion": self.criterion, "verdict": self.verdict, "depth": self.depth}
        if self.witness is not None:
            data["witness"] = self.witness
        if self.detail is not None:
            data["detail"] = self.detail
        return data


def _section_depth(s: list, t: list) -> int:
    """depth, for the weights s_0..s_depth and t_1..t_depth of a section."""
    if not s or len(t) != len(s) - 1:
        raise ValueError(f"need s_0..s_d and t_1..t_d, d >= 0; got {len(s)} and {len(t)}")
    return len(s) - 1


def _int_section(s: list[int], t: list[int], scale: int) -> tuple[list[list[int]], int]:
    """J's leading section on S = L s_0..L s_n and T = L t_1..L t_n as int rows
    over L: S on the diagonal, T below, L above."""
    n = _section_depth(s, t) + 1
    return [[s[i] if j == i else t[j] if j == i - 1 else scale * (j == i + 1)
             for j in range(n)] for i in range(n)], scale


def _minor_chain(s: list[int], t: list[int], den: int, lo: int) -> Iterator[tuple[int, int]]:
    """(D', L^(hi-lo+1)) for hi = lo..n, D' = L^(hi-lo+1) D[lo..hi], the
    contiguous principal minors of J from row lo on the scaled weights
    s = L s_0..L s_n and t = L t_1..L t_n over den = L, by D'[lo..hi] =
    s'_hi D'[lo..hi-1] - L t'_hi D'[lo..hi-2] from D'[lo..lo-1] = 1 and
    D'[lo..lo-2] = 0 (t_lo couples row lo to a row outside the window)."""
    prev2, prev1, scale = 0, 1, 1
    for s_k, t_k in zip(s[lo:], (0, *t[lo:])):
        prev2, prev1 = prev1, s_k * prev1 - den * t_k * prev2
        scale *= den
        yield prev1, scale


def tp_by_leading_minors(s: list[int], t: list[int], scale: int) -> TPReport:
    """Decide total positivity of the section on S = L s_0..L s_depth,
    T = L t_1..L t_depth over L (read_weights) in O(depth) steps.

    A negative leading minor refutes it (criterion leading_minors, the chain
    as detail).  With all t_k > 0 and no leading minor 0, all are positive
    and certify it.  Otherwise (criterion contiguous_minors) a negative entry
    refutes it with its 1 x 1 witness, and then each irreducible block's
    minor chain from its first row decides it: the first negative minor is
    the witness.  Signs are read off the int chains; only the printed minors
    are reduced.
    """
    depth = _section_depth(s, t)
    chain = tuple(_minor_chain(s, t, scale, 0))
    for k, (value, den) in enumerate(chain):
        if value < 0:
            rows = list(range(k + 1))
            return TPReport("leading_minors", FALSE, depth=depth, detail=_chain_detail(chain),
                            witness={"rows": rows, "cols": rows, "value": format_over(value, den)})
    if all(w > 0 for w in t) and all(value for value, _ in chain):
        return TPReport("leading_minors", TRUE, depth=depth, detail=_chain_detail(chain))
    for k in range(depth + 1):
        if s[k] < 0:
            return TPReport("contiguous_minors", FALSE, depth=depth,
                            witness={"rows": [k], "cols": [k], "value": format_over(s[k], scale)})
        if k and t[k - 1] < 0:
            return TPReport("contiguous_minors", FALSE, depth=depth, witness={
                "rows": [k], "cols": [k - 1], "value": format_over(t[k - 1], scale)})
    starts = [0, *(k for k in range(1, depth + 1) if t[k - 1] == 0)]
    for lo, end in zip(starts, [*starts[1:], depth + 1]):
        for hi, (value, den) in zip(range(lo, end), _minor_chain(s, t, scale, lo)):
            if value < 0:
                rows = list(range(lo, hi + 1))
                return TPReport("contiguous_minors", FALSE, depth=depth, witness={
                    "rows": rows, "cols": rows, "value": format_over(value, den)})
    return TPReport("contiguous_minors", TRUE, depth=depth)


def _chain_detail(chain: tuple[tuple[int, int], ...]) -> str:
    return "minor chain " + ", ".join(format_over(v, scale) for v, scale in chain)


def _first_negative(poly: list[int], lo: int) -> Optional[int]:
    """The least integer k >= lo with P(k) < 0, or None, for P with int
    coefficients poly, highest degree first.  P falls exactly where its forward
    difference dP(k) = P(k + 1) - P(k), one degree lower, is negative: the same
    search on dP skips each rising stretch, and a falling one that ends below
    zero, past the Cauchy root bound if it never ends, is bisected."""
    while poly and poly[0] == 0:
        poly = poly[1:]
    if len(poly) < 2:
        return lo if poly and poly[0] < 0 else None
    if _horner(poly, (lo,))[0] < 0:
        return lo
    shifted = list(poly)  # P(k + 1), by a Taylor shift by 1
    for end in range(len(poly) - 1, 0, -1):
        for j in range(1, end + 1):
            shifted[j] += shifted[j - 1]
    diff = [a - b for a, b in zip(shifted[1:], poly[1:])]
    rises = [-c for c in diff[:-1]] + [-diff[-1] - 1]  # < 0 exactly where dP >= 0
    while (falls := _first_negative(diff, lo)) is not None:
        ends = _first_negative(rises, falls)
        high = 2 + max(map(abs, poly[1:])) // abs(poly[0]) if ends is None else ends
        if _horner(poly, (high,))[0] < 0:
            while high - falls > 1:
                mid = (falls + high) // 2
                falls, high = (falls, mid) if _horner(poly, (mid,))[0] < 0 else (mid, high)
            return high
        lo = ends
    return None


def tp_sufficient_dominance(sigma: SequenceSpec, tau: SequenceSpec) -> TPReport:
    """The weight-dominance sufficient condition: s_0 >= 1, and t_k >= 0
    and s_k >= t_k + 1 for every k >= 1.

    Indices below K, the first past both prefixes, are checked explicitly
    on the weights read once as ints over L (read_weights).  From K on the
    condition is two polynomial inequalities on the tails, t(k) >= 0 and
    s(k) - t(k) - 1 >= 0, taken as ints over the same L, and _first_negative
    finds their first failure at any distance.  TRUE certifies the full
    infinite matrix; FALSE names the first failing k."""
    first_tail = max(sigma.tail_start(), tau.tail_start(), 1)
    s, t, scale = read_weights(sigma, tau, first_tail)
    if s[0] < scale:
        return TPReport("dominance", FALSE, depth=0,
                        detail=f"s_0 = {format_over(s[0], scale)} < 1")
    s_tail, t_tail = sigma.tail_ints(scale), tau.tail_ints(scale)
    gap = [a - b for a, b in zip([0] * len(t_tail) + s_tail, [0] * len(s_tail) + t_tail)]
    gap[-1] -= scale
    fails = {_first_negative(t_tail, first_tail), _first_negative(gap, first_tail)} - {None}
    for k in [*range(1, first_tail), *sorted(fails)[:1]]:
        if k < first_tail:
            s_k, t_k = s[k], t[k - 1]
        else:
            (s_k,), (t_k,) = _horner(s_tail, (k,)), _horner(t_tail, (k,))
        if t_k < 0:
            return TPReport("dominance", FALSE, depth=k,
                            detail=f"t_{k} = {format_over(t_k, scale)} < 0")
        if s_k < t_k + scale:
            return TPReport("dominance", FALSE, depth=k, detail=(
                f"s_{k} = {format_over(s_k, scale)} < t_{k} + 1 = "
                f"{format_over(t_k + scale, scale)}"))
    return TPReport("dominance", TRUE, depth=None, detail=(
        f"condition holds for all k (tails decided exactly from k = {first_tail})"))


def tp_criterion_pqst(params: JacobiParams) -> TPReport:
    """Exact total-positivity criterion for weights constant after the
    first entry: TP iff s**2 >= 4t and p*(s + sqrt(s**2-4t))/2 >= q.

    Float-free evaluation: with disc = s**2 - 4t >= 0, the second condition
    holds iff 2q <= ps, or failing that iff p**2 * disc >= (2q - ps)**2
    (both sides nonnegative, so squaring is lossless).
    """
    disc = params.s * params.s - 4 * params.t
    if disc < 0:
        return TPReport("pqst_criterion", FALSE,
                        detail=f"s^2 - 4t = {format_rat(disc)} < 0")
    gap = 2 * params.q - params.p * params.s
    if gap <= 0 or params.p * params.p * disc >= gap * gap:
        return TPReport("pqst_criterion", TRUE, detail="criterion satisfied")
    return TPReport("pqst_criterion", FALSE,
                    detail=f"p(s + sqrt(s^2-4t))/2 < q with 2q - ps = {format_rat(gap)}")


def tp_certify(sigma: SequenceSpec, tau: SequenceSpec, depth: int) -> TPReport:
    """Run the routes on J of sigma and tau in order of strength: dominance
    (certifies the infinite matrix), then the minor chains of the
    (depth+1)-section.  FALSE from dominance only means its sufficient
    condition failed; it refutes nothing, so the section route still runs."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    dominance = tp_sufficient_dominance(sigma, tau)
    if dominance.verdict == TRUE:
        return dominance
    return tp_by_leading_minors(*read_weights(sigma, tau, depth + 1))

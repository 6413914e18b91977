"""The tridiagonal coefficient matrix of a weight pair and its total
positivity certification.

The coefficient matrix J carries the diagonal weights s_0, s_1, ... on its
diagonal, the subdiagonal weights t_1, t_2, ... below, and 1 everywhere on
the superdiagonal.  Total positivity of J (all minors of all orders
nonnegative) is what makes the attached sequence a Stieltjes moment
sequence, and three routes certify it:

  * leading_minors: the determinant chain D_k of leading sections, via a
    three-term recurrence; for irreducible J (all t_k > 0), all D_k > 0 is
    equivalent to total positivity of the section.
  * tp_sufficient_dominance: the weight-dominance condition s_0 >= 1 and
    s_k >= t_k + 1, which certifies the infinite matrix outright; tails are
    analyzed symbolically where possible.
  * tp_criterion_pqst: for weights constant after the first entry, an exact
    if-and-only-if criterion, evaluated without floating point by case
    analysis and squaring.
  * tp_check_sections: brute force over all contiguous principal minors of
    a finite section, which for nonnegative tridiagonal matrices decides
    total positivity of the section; serves as fallback and cross-check.

All verdicts are TRUE / FALSE / INCONCLUSIVE, and every report states the
depth it actually checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exact import (
    DEFAULT_MINOR_BUDGET,
    FALSE,
    INCONCLUSIVE,
    TRUE,
    DenseMatrix,
    coerce_nonneg_fields,
    det_bareiss,
    format_rat,
)
from .seqspec import SequenceSpec

DOMINANCE_GUARD_INDEX = 64


@dataclass(frozen=True, slots=True)
class JacobiMatrix:
    """Tridiagonal coefficient matrix: diagonal sigma, subdiagonal tau,
    unit superdiagonal."""

    sigma: SequenceSpec
    tau: SequenceSpec

    def section(self, n: int) -> DenseMatrix:
        """The (n+1) x (n+1) leading section."""
        return self.window(0, n)

    def window(self, lo: int, hi: int) -> DenseMatrix:
        """The contiguous principal section on rows and columns lo..hi."""
        if lo < 0 or hi < lo:
            raise ValueError(f"invalid window {lo}..{hi}")
        size = hi - lo + 1
        rows = []
        for i in range(size):
            row = [Fraction(0)] * size
            row[i] = self.sigma.eval(lo + i)
            if i >= 1:
                row[i - 1] = self.tau.eval(lo + i)
            if i + 1 < size:
                row[i + 1] = Fraction(1)
            rows.append(row)
        return DenseMatrix(rows)

    def is_irreducible(self, depth: int) -> bool:
        """True when every subdiagonal entry t_1..t_depth is nonzero."""
        return all(self.tau.eval(k) != 0 for k in range(1, depth + 1))


@dataclass(frozen=True)
class JacobiParams:
    """Weights constant after the first entry: diagonal (p, s, s, ...),
    subdiagonal (q, t, t, ...); all four must be nonnegative."""

    p: Fraction
    q: Fraction
    s: Fraction
    t: Fraction

    def __post_init__(self):
        coerce_nonneg_fields(self, "parameter ")

    def sigma(self) -> SequenceSpec:
        return SequenceSpec.first_then_constant(self.p, self.s, start=0)

    def tau(self) -> SequenceSpec:
        return SequenceSpec.first_then_constant(self.q, self.t, start=1)

    def matrix(self) -> JacobiMatrix:
        return JacobiMatrix(self.sigma(), self.tau())

    def to_json(self) -> dict:
        return {name: format_rat(getattr(self, name)) for name in ("p", "q", "s", "t")}


@dataclass(frozen=True)
class MinorChain:
    """Leading principal minors D_0..D_n of a coefficient matrix."""

    values: tuple[Fraction, ...]


@dataclass(frozen=True)
class TPReport:
    """Outcome of one total-positivity route.

    criterion names the route; verdict is TRUE / FALSE / INCONCLUSIVE;
    depth is the largest index actually inspected (None for purely
    symbolic verdicts); witness carries the refuting minor when FALSE.
    """

    criterion: str
    verdict: str
    depth: Optional[int] = None
    witness: Optional[dict] = None
    detail: Optional[str] = None

    def to_json(self) -> dict:
        data = {"criterion": self.criterion, "verdict": self.verdict, "depth": self.depth}
        if self.witness is not None:
            data["witness"] = self.witness
        if self.detail is not None:
            data["detail"] = self.detail
        return data


def leading_minors(J: JacobiMatrix, n: int) -> MinorChain:
    """D_0..D_n by the three-term recurrence D_k = s_k D_{k-1} - t_k D_{k-2}
    (D_{-1} = 1), each D_k the determinant of the (k+1) x (k+1) section."""
    if n < 0:
        raise ValueError("n must be >= 0")
    values: list[Fraction] = []
    prev2 = Fraction(1)
    prev1 = J.sigma.eval(0)
    values.append(prev1)
    for k in range(1, n + 1):
        current = J.sigma.eval(k) * prev1 - J.tau.eval(k) * prev2
        values.append(current)
        prev2, prev1 = prev1, current
    return MinorChain(tuple(values))


def tp_by_leading_minors(J: JacobiMatrix, depth: int) -> TPReport:
    """Certify the (depth+1)-section through the leading minor chain.

    Requires irreducibility (all inspected t_k nonzero): then the section
    is totally positive iff all leading minors are positive.  A negative
    minor refutes total positivity outright; a zero minor or a reducible
    matrix yields INCONCLUSIVE (callers fall back to tp_check_sections).
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    chain = leading_minors(J, depth)
    for k, value in enumerate(chain.values):
        if value < 0:
            witness = {"rows": list(range(k + 1)), "cols": list(range(k + 1)),
                       "value": format_rat(value)}
            return TPReport("leading_minors", FALSE, depth=depth, witness=witness,
                            detail=_chain_detail(chain))
    if not J.is_irreducible(depth):
        return TPReport("leading_minors", INCONCLUSIVE, depth=depth,
                        detail="matrix is reducible at this depth; "
                               "use the contiguous-minor check")
    if any(value == 0 for value in chain.values):
        return TPReport("leading_minors", INCONCLUSIVE, depth=depth,
                        detail="zero leading minor; use the contiguous-minor check")
    return TPReport("leading_minors", TRUE, depth=depth, detail=_chain_detail(chain))


def _chain_detail(chain: MinorChain) -> str:
    return "minor chain " + ", ".join(format_rat(v) for v in chain.values)


def _poly_derivative(coeffs: list[Fraction]) -> list[Fraction]:
    return [coeffs[i] * i for i in range(1, len(coeffs))]


def _poly_eval(coeffs: list[Fraction], k: int) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * k + c
    return acc


def _eventually_nonneg(coeffs: list[Fraction], from_index: int) -> bool:
    """Sound sufficient test for P(k) >= 0 on all integers k >= from_index:
    P and all its derivatives nonnegative at from_index (Taylor expansion
    around from_index has only nonnegative terms)."""
    poly = list(coeffs)
    while poly:
        if _poly_eval(poly, from_index) < 0:
            return False
        poly = _poly_derivative(poly)
    return True


def _tail_poly(spec: SequenceSpec) -> list[Fraction]:
    tail = spec.tail
    if hasattr(tail, "coeffs"):
        return list(tail.coeffs)
    return [tail.value]


def tp_sufficient_dominance(
    sigma: SequenceSpec, tau: SequenceSpec, probe_depth: int = 8
) -> TPReport:
    """The weight-dominance sufficient condition: s_0 >= 1 and
    s_k >= t_k + 1 for every k >= 1.

    Explicit evaluation covers k up to a guard index; beyond both prefixes
    the inequality becomes a polynomial condition, certified symbolically
    when the difference polynomial and all its derivatives are nonnegative
    at the guard.  TRUE therefore certifies the full infinite matrix; when
    only the bounded checks succeed the verdict is INCONCLUSIVE, stating
    how far the condition was verified.
    """
    if probe_depth < 1:
        raise ValueError("probe_depth must be >= 1")
    s0 = sigma.eval(0)
    if s0 < 1:
        return TPReport("dominance", FALSE, depth=0,
                        detail=f"s_0 = {format_rat(s0)} < 1")
    guard = max(DOMINANCE_GUARD_INDEX, probe_depth,
                sigma.tail_start() + 1, tau.tail_start() + 1)
    for k in range(1, guard + 1):
        if sigma.eval(k) < tau.eval(k) + 1:
            return TPReport(
                "dominance", FALSE, depth=k,
                detail=f"s_{k} = {format_rat(sigma.eval(k))} < "
                       f"t_{k} + 1 = {format_rat(tau.eval(k) + 1)}")
    diff = _tail_poly(sigma)
    tail = _tail_poly(tau)
    width = max(len(diff), len(tail))
    diff.extend([Fraction(0)] * (width - len(diff)))
    for i, c in enumerate(tail):
        diff[i] -= c
    diff[0] -= 1
    if _eventually_nonneg(diff, guard + 1):
        return TPReport("dominance", TRUE, depth=None,
                        detail=f"condition holds for all k (symbolic beyond k = {guard})")
    return TPReport("dominance", INCONCLUSIVE, depth=guard,
                    detail=f"condition holds up to k = {guard}; "
                           "tail could not be certified symbolically")


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


def tp_check_sections(
    J: JacobiMatrix, depth: int, budget: int = DEFAULT_MINOR_BUDGET
) -> TPReport:
    """Decide total positivity of the (depth+1)-section by brute force.

    For a nonnegative tridiagonal matrix, the section is totally positive
    iff every contiguous principal minor (consecutive row/column window) is
    nonnegative; windows are scanned by ascending start then ascending end,
    and the first negative window is the witness.  A negative entry anywhere
    refutes immediately.  Exceeding the window budget is INCONCLUSIVE.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    for k in range(depth + 1):
        entry = J.sigma.eval(k)
        if entry < 0:
            return TPReport("contiguous_minors", FALSE, depth=depth,
                            witness={"rows": [k], "cols": [k], "value": format_rat(entry)})
        if k >= 1:
            entry = J.tau.eval(k)
            if entry < 0:
                return TPReport("contiguous_minors", FALSE, depth=depth,
                                witness={"rows": [k], "cols": [k - 1],
                                         "value": format_rat(entry)})
    windows = (depth + 1) * (depth + 2) // 2
    if windows > budget:
        return TPReport("contiguous_minors", INCONCLUSIVE, depth=depth,
                        detail=f"window count {windows} exceeds budget {budget}")
    for lo in range(depth + 1):
        for hi in range(lo, depth + 1):
            value = det_bareiss(J.window(lo, hi))
            if value < 0:
                witness = {"rows": list(range(lo, hi + 1)),
                           "cols": list(range(lo, hi + 1)),
                           "value": format_rat(value)}
                return TPReport("contiguous_minors", FALSE, depth=depth, witness=witness)
    return TPReport("contiguous_minors", TRUE, depth=depth)


def tp_certify(J: JacobiMatrix, depth: int, budget: int = DEFAULT_MINOR_BUDGET) -> TPReport:
    """Run the routes in order of strength: dominance (certifies the
    infinite matrix), then leading minors, then contiguous minors.

    FALSE from a minor route refutes outright; FALSE from dominance only
    means the sufficient condition failed, so the minor routes still run.
    """
    dominance = tp_sufficient_dominance(J.sigma, J.tau, probe_depth=max(depth, 1))
    if dominance.verdict == TRUE:
        return dominance
    structured = tp_by_leading_minors(J, depth)
    if structured.verdict != INCONCLUSIVE:
        return structured
    return tp_check_sections(J, depth, budget)

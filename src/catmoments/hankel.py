"""Hankel matrices, the two-family Stieltjes determinant test, and the
factorization of the Hankel matrix through the recursive matrix.

A sequence (m_n) is a Stieltjes moment sequence exactly when both Hankel
determinant families det[m_{i+j}] and det[m_{i+j+1}] are nonnegative at
every size.  hankel_dets evaluates one family exactly up to a stated depth,
and is the only place that does: one fraction-free elimination of the
largest section yields every smaller section's determinant as a pivot
(exact.leading_principal_minors), so a family costs O(depth^3), not one
elimination per size.  stieltjes_check runs it on both families and turns
them into a verdict, a bounded certificate that says so.

For a sequence generated by a weight pair, the Hankel matrix factors as
H = R T R^t with R the recursive matrix and T the diagonal of subdiagonal
weight products T_k = t_1 ... t_k.  Since R is unit triangular this gives
det H_n = T_0 * ... * T_n, which hankel_det_product evaluates directly and
hankel_det_products evaluates for every n up to a depth at once.  The
shifted family has a product form too, det[m_{i+j+1}]_n = D_n * T_0 * ... *
T_n with D_n the leading minor of the coefficient matrix J
(jacobi.leading_minors); hankel_dets still computes it by elimination,
and the tests hold the two routes against each other.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Optional, Sequence

from .exact import FALSE, TRUE, DenseMatrix, as_rat, format_rat, leading_principal_minors
from .recursive import build_recursive, catalan_like
from .seqspec import SequenceSpec

DEFAULT_DEPTH = 8

PASS = "PASS"
FAIL = "FAIL"


@dataclass(frozen=True)
class MomentSequence:
    """A finite run of exact sequence terms."""

    terms: tuple[Fraction, ...]

    def __post_init__(self):
        terms = tuple(as_rat(v) for v in self.terms)
        if not terms:
            raise ValueError("a moment sequence needs at least one term")
        object.__setattr__(self, "terms", terms)

    @classmethod
    def from_terms(cls, values: Sequence) -> "MomentSequence":
        return cls(tuple(values))

    @classmethod
    def from_recurrence(
        cls, sigma: SequenceSpec, tau: SequenceSpec, count: int
    ) -> "MomentSequence":
        """First `count` terms of the weight pair's sequence."""
        if count < 1:
            raise ValueError("count must be >= 1")
        return cls(tuple(catalan_like(sigma, tau, count - 1)))

    def __len__(self) -> int:
        return len(self.terms)


def build_hankel(seq: MomentSequence, n: int, shift: int = 0) -> DenseMatrix:
    """The (n+1) x (n+1) matrix with entry (i, j) = m_{i+j+shift}."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if shift not in (0, 1):
        raise ValueError(f"shift must be 0 or 1, got {shift}")
    needed = 2 * n + 1 + shift
    if len(seq) < needed:
        raise ValueError(f"need {needed} terms for depth {n} shift {shift}, have {len(seq)}")
    return DenseMatrix(
        tuple(seq.terms[i + j + shift] for j in range(n + 1)) for i in range(n + 1)
    )


def hankel_dets(seq: MomentSequence, depth: int, shift: int = 0) -> tuple[Fraction, ...]:
    """det[m_{i+j+shift}] on the (k+1) x (k+1) sections for k = 0..depth,
    all read off one elimination of the largest section."""
    return leading_principal_minors(build_hankel(seq, depth, shift))


@dataclass(frozen=True)
class StieltjesReport:
    """Both determinant families up to a depth, with the verdict.

    dets0[k] = det[m_{i+j}] and dets1[k] = det[m_{i+j+1}] on (k+1)-sections.
    PASS means every listed determinant is nonnegative; FAIL carries the
    first negative one (smallest k, plain family before shifted).  Either
    way the claim is bounded by the stated depth.
    """

    depth: int
    dets0: tuple[Fraction, ...]
    dets1: tuple[Fraction, ...]
    verdict: str
    witness: Optional[dict] = None

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


def stieltjes_check(seq: MomentSequence, depth: int = DEFAULT_DEPTH) -> StieltjesReport:
    """Evaluate both Hankel determinant families for k = 0..depth."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    needed = 2 * depth + 2
    if len(seq) < needed:
        raise ValueError(f"need {needed} terms for depth {depth}, have {len(seq)}")
    dets0 = hankel_dets(seq, depth, 0)
    dets1 = hankel_dets(seq, depth, 1)
    witness = None
    for k in range(depth + 1):
        if dets0[k] < 0:
            witness = {"family": "det0", "k": k, "value": format_rat(dets0[k])}
            break
        if dets1[k] < 0:
            witness = {"family": "det1", "k": k, "value": format_rat(dets1[k])}
            break
    verdict = PASS if witness is None else FAIL
    return StieltjesReport(depth, dets0, dets1, verdict, witness)


@dataclass(frozen=True)
class TotalsDiagonal:
    """Running products of the subdiagonal weights: T_0 = 1, T_k = t_1...t_k."""

    values: tuple[Fraction, ...]

    @classmethod
    def from_tau(cls, tau: SequenceSpec, n: int) -> "TotalsDiagonal":
        if n < 0:
            raise ValueError("n must be >= 0")
        values = [Fraction(1)]
        for k in range(1, n + 1):
            values.append(values[-1] * tau.eval(k))
        return cls(tuple(values))

    def matrix(self) -> DenseMatrix:
        size = len(self.values)
        return DenseMatrix(
            tuple(self.values[i] if i == j else Fraction(0) for j in range(size))
            for i in range(size)
        )


def verify_H_eq_RTRt(sigma: SequenceSpec, tau: SequenceSpec, depth: int) -> str:
    """Check the factorization H = R T R^t on (depth+1)-sections.

    Exact on sections because row n of R ends at column n, so the product
    never reaches truncated entries.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    seq = MomentSequence.from_recurrence(sigma, tau, 2 * depth + 1)
    H = build_hankel(seq, depth, 0)
    R = build_recursive(sigma, tau, depth).section(depth)
    T = TotalsDiagonal.from_tau(tau, depth).matrix()
    return TRUE if H == R @ T @ R.transpose() else FALSE


def hankel_det_products(tau: SequenceSpec, depth: int) -> list[Fraction]:
    """hankel_det_product(tau, n) for n = 0..depth, as one running product."""
    return list(accumulate(TotalsDiagonal.from_tau(tau, depth).values, operator.mul))


def hankel_det_product(tau: SequenceSpec, n: int) -> Fraction:
    """det of the depth-n plain Hankel section, via the factorization:
    the product T_0 * T_1 * ... * T_n."""
    return hankel_det_products(tau, n)[-1]

"""Exact rational linear algebra: dense matrices, determinants, minor scans.

Everything in this package runs on arbitrary-precision rationals
(fractions.Fraction); no floating point is ever involved.  This module holds
the shared scalar helpers, the dense matrix value type, two independent
determinant kernels, and the exhaustive minor scan used by the total
positivity checks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

# Verdict vocabulary shared by the certification routines.
TRUE = "TRUE"
FALSE = "FALSE"
INCONCLUSIVE = "INCONCLUSIVE"

# Upper bound on the number of minors an exhaustive scan may evaluate.
DEFAULT_MINOR_BUDGET = 2_000_000

COFACTOR_MAX_DIM = 9


def as_rat(value) -> Fraction:
    """Coerce an int, Fraction or "p/q" string to an exact Fraction.

    Floats are rejected outright: silently converting one would smuggle
    rounding into a library whose whole point is exactness.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational: {value!r}") from exc
    if isinstance(value, float):
        raise ValueError(f"refusing float {value!r}; pass an int, Fraction or 'p/q' string")
    raise ValueError(f"cannot interpret {value!r} as a rational")


def _int_str(n: int) -> str:
    """str(n) at any size.  Past the interpreter's digit limit (4,300 digits by
    default) n is split by divmod with a power of ten and rendered in halves,
    so the process-wide limit is left as it is."""
    try:
        return str(n)
    except ValueError:
        if n < 0:
            return "-" + _int_str(-n)
        half = n.bit_length() * 3 // 20          # about half the decimal digits
        high, low = divmod(n, 10**half)
        return _int_str(high) + _int_str(low).zfill(half)


def format_rat(value: Fraction) -> str:
    """Render a Fraction as "p" or "p/q" (never decimal)."""
    if value.denominator == 1:
        return _int_str(value.numerator)
    return f"{_int_str(value.numerator)}/{_int_str(value.denominator)}"


class DenseMatrix:
    """Immutable rectangular matrix of exact rationals."""

    __slots__ = ("entries",)

    def __init__(self, rows: Iterable[Iterable]):
        grid = tuple(tuple(as_rat(x) for x in row) for row in rows)
        if not grid or not grid[0]:
            raise ValueError("matrix needs at least one row and one column")
        width = len(grid[0])
        if any(len(row) != width for row in grid):
            raise ValueError("matrix rows have unequal lengths")
        object.__setattr__(self, "entries", grid)

    def __setattr__(self, name, value):
        raise AttributeError("DenseMatrix is immutable")

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

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"DenseMatrix({self.rows}x{self.cols})"

    def transpose(self) -> "DenseMatrix":
        return DenseMatrix(zip(*self.entries))

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "DenseMatrix":
        return DenseMatrix(
            tuple(self.entries[i][j] for j in col_idx) for i in row_idx
        )

    def __matmul__(self, other: "DenseMatrix") -> "DenseMatrix":
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(
                f"dimension mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        cols = other.transpose().entries
        return DenseMatrix(
            tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
            for row in self.entries
        )

    @classmethod
    def identity(cls, n: int) -> "DenseMatrix":
        return cls(
            tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)
        )

    def to_lists(self) -> list[list[Fraction]]:
        return [list(row) for row in self.entries]


def _require_square(matrix: DenseMatrix) -> int:
    if not matrix.is_square:
        raise ValueError(f"determinant needs a square matrix, got {matrix.rows}x{matrix.cols}")
    return matrix.rows


def det_bareiss(matrix: DenseMatrix) -> Fraction:
    """Exact determinant by fraction-free (Bareiss) elimination.

    Rows are first scaled integral by the LCM of their denominators (the
    scale product is tracked exactly), then eliminated with integer-only
    pivots.  Zero pivots are repaired by row swaps with sign tracking; a
    pivot column that is zero all the way down short-circuits to 0.
    """
    n = _require_square(matrix)
    scale = 1
    work: list[list[int]] = []
    for row in matrix.entries:
        den_lcm = 1
        for x in row:
            den_lcm = math.lcm(den_lcm, x.denominator)
        scale *= den_lcm
        work.append([x.numerator * (den_lcm // x.denominator) for x in row])

    sign = 1
    prev = 1
    for k in range(n - 1):
        if work[k][k] == 0:
            for r in range(k + 1, n):
                if work[r][k] != 0:
                    work[k], work[r] = work[r], work[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        pivot = work[k][k]
        row_k = work[k]
        for i in range(k + 1, n):
            row_i = work[i]
            factor = row_i[k]
            for j in range(k + 1, n):
                # exact integer division: the quotient is itself a minor
                row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot

    return Fraction(sign * work[n - 1][n - 1], scale)


def det_cofactor(matrix: DenseMatrix) -> Fraction:
    """Exact determinant by Laplace expansion; independent of det_bareiss.

    Factorial cost, so the dimension is capped at COFACTOR_MAX_DIM.
    """
    n = _require_square(matrix)
    if n > COFACTOR_MAX_DIM:
        raise ValueError(f"cofactor expansion capped at {COFACTOR_MAX_DIM}x{COFACTOR_MAX_DIM}, got {n}")
    return _cofactor(matrix.to_lists())


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
                    value = det_bareiss(matrix.submatrix(row_idx, col_idx))
                checked += 1
                if value < 0:
                    return MinorScan(FALSE, NegativeMinor(row_idx, col_idx, value), checked)
    return MinorScan(TRUE, None, checked)

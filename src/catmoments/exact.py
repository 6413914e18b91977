"""Exact rational linear algebra: dense matrices and determinants.

Everything in this package runs on arbitrary-precision rationals
(fractions.Fraction); no floating point is ever involved.  This module holds
the shared scalar helpers, the dense matrix value type and the fraction-free
determinant kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Sequence

# Verdict vocabulary shared by the certification routines.
TRUE = "TRUE"
FALSE = "FALSE"
INCONCLUSIVE = "INCONCLUSIVE"

# Upper bound on the number of minors an exhaustive scan may evaluate.
DEFAULT_MINOR_BUDGET = 2_000_000


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


def coerce_nonneg_fields(obj, label: str = "") -> None:
    """Coerce every field of the frozen dataclass obj to a Fraction in place,
    refusing a negative one with "<label><field> must be nonnegative"."""
    for field in fields(obj):
        value = as_rat(getattr(obj, field.name))
        if value < 0:
            raise ValueError(f"{label}{field.name} must be nonnegative, got {format_rat(value)}")
        object.__setattr__(obj, field.name, value)


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

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i]

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

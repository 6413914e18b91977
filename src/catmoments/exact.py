"""Exact rational arithmetic: scalar helpers and a general leading-minor elimination.

Everything in this package runs on exact rationals, as Fractions or as ints
over a known denominator; no floating point is ever involved.  This module
holds the shared scalar helpers and a fraction-free (Bareiss) elimination
on integer rows, _minors_ints.  It reads the determinant of every leading
section off its pivots (Sylvester's identity), all in one O(n^3) pass: a
zero pivot is repaired by a row swap that keeps the row set of every larger
section.  _int_leading_minors runs it on int rows over one common
denominator and returns each minor as an int over its power of that
denominator, no Fraction.  cli verify hands it J's section
(jacobi._int_section).  Hankel sections take an O(n^2) Chebyshev walk instead
(hankel._chebyshev_walk) and reach it only past a zero leading minor there.
Such (num, den) pairs are compared by cross-multiplication (_same_values)
and printed by format_over, one gcd a printed value and none over 1.  Where
a zero leading minor leaves positive semidefiniteness open,
negative_principal_minor decides it on a plain list of rows by a symmetric
elimination with diagonal pivoting.  The total-positivity routes need none
of these: the minors of the tridiagonal coefficient matrix follow a
three-term recurrence (see jacobi), and the identity checks use band sums.
The package's record classes share one immutable value base, _Value.

Ints are printed and read in decimal pieces of at most 600 digits, below the
lowest digit limit (640) the interpreter can be set to, so no conversion is
refused and the process-wide limit is never changed.  A wider int is split
by divmod at the ladder of powers P_j = 10**(600 * 2**j), each made once by
squaring the one before and kept (_int_str), and a longer digit string is
joined by multiplying by the same kept powers (_int_of).  One str() of a
600-digit piece is cheap, while the interpreter's str() and int() are
quadratic on a whole wide int, and a shared ladder spares building a fresh
power of ten at every level.  EXACT is the package's one decimal context:
series runs the recurrence of a wide integral pair on Decimals in it, as
libmpdec's str() is linear, and prints each by _decimal_str.
"""
from __future__ import annotations

import math
import operator
import re
from decimal import (MAX_EMAX, MAX_PREC, MIN_EMIN, Context, DivisionByZero, Inexact,
                     InvalidOperation, Overflow, Rounded)
from fractions import Fraction
from itertools import accumulate
from typing import Optional

# Verdict vocabulary shared by the certification routines.
TRUE = "TRUE"
FALSE = "FALSE"

# Largest decimal exponent magnitude a string may carry: the interpreter's
# default digit limit.  "1e200000" would otherwise build a 665,000-bit power
# of ten from eight characters.
MAX_DECIMAL_EXPONENT = 4300

# The decimal piece (see the module docstring): ints below 10**600, about
# 2**1993.2, go to str() whole.
_PIECE_DIGITS = 600
_PIECE = 10**_PIECE_DIGITS
_LADDER = [_PIECE]

# Entered by decimal.localcontext, so the thread's default (28 digits) never
# touches a value: ints of any width are exact, and a rounding raises (Inexact
# and Rounded are ArithmeticErrors).  Only +, -, * and divmod run in it.
EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN,
                traps=[InvalidOperation, DivisionByZero, Overflow, Inexact, Rounded])

_EXPONENT = re.compile(r"[eE][-+]?0*([0-9_]+)\s*\Z")
_INT_OVER_INT = re.compile(r"([-+]?)([0-9]+)(?:/([0-9]+))?")


def _power(j: int) -> int:
    """The ladder's P_j = 10**(_PIECE_DIGITS * 2**j), made once, on first use, by
    squaring P_(j-1), and kept in _LADDER."""
    while len(_LADDER) <= j:
        _LADDER.append(_LADDER[-1] ** 2)
    return _LADDER[j]


def _int_of(digits: str) -> int:
    """int(digits) at any length, the reverse of _int_str: a string of more than
    _PIECE_DIGITS digits is cut so its low part has _PIECE_DIGITS * 2**j
    digits, the largest such width at most half its length (or j = 0), and
    the two parts are joined by the kept P_j, so no power wider than half the
    string is made.  Every string handed to int() has at most _PIECE_DIGITS
    digits, under any digit limit the interpreter can be set to."""
    if len(digits) <= _PIECE_DIGITS:
        return int(digits)
    j = 0
    while _PIECE_DIGITS << (j + 2) <= len(digits):
        j += 1
    cut = len(digits) - (_PIECE_DIGITS << j)
    return _int_of(digits[:cut]) * _power(j) + _int_of(digits[cut:])


def _shown(value: str) -> str:
    """repr of value, cut to its first and last 18 characters past 40."""
    return repr(value if len(value) <= 40 else f"{value[:18]}...{value[-18:]}")


def as_rat(value) -> Fraction:
    """Coerce an int, Fraction, "p/q" or decimal string to an exact Fraction.

    Floats are rejected outright: silently converting one would smuggle
    rounding into a library whose whole point is exactness.  A decimal
    exponent beyond MAX_DECIMAL_EXPONENT in magnitude is refused too, since
    its cost grows with its value, not with the length of the string.  An
    int or "p/q" string longer than the interpreter's digit limit, as
    format_rat prints past 4,300 digits, is read by _int_of.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        exponent = _EXPONENT.search(value)
        digits = exponent.group(1).replace("_", "") if exponent else "0"
        # lengths first: a long exponent would be costly to convert itself
        if len(digits) > len(str(MAX_DECIMAL_EXPONENT)) or int(digits or 0) > MAX_DECIMAL_EXPONENT:
            raise ValueError(f"not a rational: {_shown(value)}")
        text = value.strip()
        try:
            try:
                return Fraction(text)
            except ValueError:
                # Fraction reads every such string below the digit limit
                long = _INT_OVER_INT.fullmatch(text)
                if long is None:
                    raise
                sign, num, den = long.groups()
                return Fraction(int(sign + "1") * _int_of(num), _int_of(den or "1"))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational: {_shown(value)}") from exc
    if isinstance(value, float):
        raise ValueError(f"refusing float {value!r}; pass an int, Fraction or 'p/q' string")
    raise ValueError(f"cannot interpret {value!r} as a rational")


def nonneg_rats(pairs, label: str = "") -> tuple[Fraction, ...]:
    """Coerce the value of each (name, value) pair to a Fraction, in order,
    refusing a negative one with "<label><name> must be nonnegative"."""
    values = []
    for name, value in pairs:
        value = as_rat(value)
        if value < 0:
            raise ValueError(f"{label}{name} must be nonnegative, got {format_rat(value)}")
        values.append(value)
    return tuple(values)


def _values(values, name: str) -> tuple:
    """values as a tuple, refusing a str or bytes, which would give its characters."""
    if isinstance(values, (str, bytes)):
        raise ValueError(f"{name} must be a sequence of values, not a {type(values).__name__}")
    return tuple(values)


class _Value:
    """An immutable value: each __init__ sets its fields once in __dict__, and
    the fields a subclass names in _compared compare, hash and show it."""

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compared])

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{type(self).__name__}({shown})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


def check_fields(data: dict, allowed, what: str) -> None:
    """Refuse a JSON object holding a key outside allowed, naming each one."""
    unknown = [str(key) for key in data if key not in allowed]
    if unknown:
        raise ValueError(f"{what} JSON has unknown fields: {', '.join(unknown)}")


def _int_str(n: int) -> str:
    """str(n) at any size.  Past _PIECE_DIGITS digits n is split by divmod at
    a P_j of the ladder not above it, the high part rendered the same way and
    the low one as _padded pieces, so every int handed to str() has at most
    _PIECE_DIGITS digits, under any digit limit the interpreter can be set
    to.  j is chosen by bit lengths: n >= P_(j+1) = P_j**2 when n has more
    than twice P_j's bits, so no rung is made that the split leaves unused
    (n just below that bound is split one rung low)."""
    if abs(n) < _PIECE:
        return str(n)
    if n < 0:
        return "-" + _int_str(-n)
    j = 0
    while n.bit_length() > 2 * _power(j).bit_length():
        j += 1
    high, low = divmod(n, _LADDER[j])
    return _int_str(high) + _padded(low, j)


def _padded(n: int, j: int) -> str:
    """n < P_j as exactly _PIECE_DIGITS * 2**j digits, with its leading zeros."""
    if j == 0:
        return str(n).zfill(_PIECE_DIGITS)
    high, low = divmod(n, _LADDER[j - 1])
    return _padded(high, j - 1) + _padded(low, j - 1)


def _decimal_str(value) -> str:
    """The digits of an integral Decimal of EXACT, as _int_str prints the same
    int: a negative zero, which decimal keeps, prints as 0."""
    return str(value) if value else "0"


def _format_reduced(num: int, den: int) -> str:
    return _int_str(num) if den == 1 else f"{_int_str(num)}/{_int_str(den)}"


def format_rat(value: Fraction) -> str:
    """Render a Fraction as "p" or "p/q" (never decimal)."""
    return _format_reduced(value.numerator, value.denominator)


def format_over(num: int, den: int) -> str:
    """format_rat(Fraction(num, den)) for den > 0, without the Fraction: one
    gcd, none when den is 1."""
    if den == 1:
        return _int_str(num)
    g = math.gcd(num, den)
    return _format_reduced(num // g, den // g)


def format_row(row: list[int], den: int) -> list[str]:
    """format_over of every entry of row over one den > 0."""
    return list(map(_int_str, row)) if den == 1 else [format_over(v, den) for v in row]


def _scaled_ints(values) -> tuple[list[int], int]:
    """Integers C and the LCM D of the denominators, with values[k] == C[k] / D."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _over(numerator: int, den: int) -> Fraction:
    """numerator / den, with no gcd when den is 1 (integral weights and terms)."""
    return Fraction(numerator, den) if den != 1 else Fraction(numerator)


def _bareiss_step(work: list[list[int]], k: int, prev: int) -> None:
    """Eliminate column k below the pivot work[k][k], fraction-free: each new
    entry is a minor, so the division by prev, the previous pivot (1 at
    first), is exact."""
    row_k = work[k]
    pivot = row_k[k]
    for row_i in work[k + 1:]:
        factor = row_i[k]
        row_i[k + 1:] = [(x * pivot - factor * y) // prev
                         for x, y in zip(row_i[k + 1:], row_k[k + 1:])]


def _minors_ints(work: list[list[int]]) -> list[int]:
    """The leading minors D_1..D_n of the square int matrix work, from one
    Bareiss elimination in place: D_(k+1) is the pivot of step k, times the
    sign of the row swaps made so far.  A zero pivot at k is repaired by
    swapping in the first row r below it with a nonzero entry in column k.
    The sections of sizes k+1..r then have a zero column in the eliminated
    block, so their minors are 0, and every larger section keeps its set of
    rows.  A column that is zero all the way down makes every later minor 0."""
    n = len(work)
    minors: list[int] = []
    sign = prev = 1
    zero_to = 0                                     # D_(k+1) = 0 while k < zero_to
    for k in range(n):
        if work[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if work[r][k] != 0), None)
            if swap is None:
                return minors + [0] * (n - k)
            work[k], work[swap] = work[swap], work[k]
            sign, zero_to = -sign, max(zero_to, swap)
        minors.append(sign * work[k][k] if k >= zero_to else 0)
        _bareiss_step(work, k, prev)
        prev = work[k][k]
    return minors


def _int_leading_minors(rows: list[list[int]], den: int) -> list[tuple[int, int]]:
    """The leading minors of the square matrix rows / den, k = 1..n, as
    (num, den^k) int pairs: those of the int rows (_minors_ints, on a copy)
    over den^k, all in one O(n^3) elimination."""
    scales = accumulate([den] * len(rows), operator.mul)
    return list(zip(_minors_ints([list(row) for row in rows]), scales))


def _same_values(a, b) -> bool:
    """Whether two sequences of (num, den) int pairs, every den > 0, hold the
    same values in the same order, by cross-multiplication: no gcd."""
    a, b = list(a), list(b)
    return len(a) == len(b) and all(p * s == r * q for (p, q), (r, s) in zip(a, b))


def negative_principal_minor(rows: list[list]) -> Optional[tuple[list[int], Fraction]]:
    """A negative principal minor of the symmetric matrix given by its rows of
    ints or Fractions, as (rows, value), or None when the matrix is positive
    semidefinite.

    Leading minors decide this only when they are all positive (Sylvester's
    criterion has no weak form), so this runs an exact symmetric (LDL^t)
    elimination in index order instead.  The product of the positive
    pivots taken so far is the principal minor on their rows P.  At index
    k, with d the diagonal entry of the Schur complement: d > 0 is the next
    pivot; d < 0 refutes, the minor on P + {k} being the product times d;
    d = 0 needs row k of the complement to be zero, else an entry a_kj != 0
    refutes, the minor on P + {k, j} being the product times -a_kj^2.
    """
    n = len(rows)
    work = [list(row) for row in rows]
    pivots: list[int] = []
    product = Fraction(1)
    for k in range(n):
        pivot = work[k][k]
        if pivot < 0:
            return pivots + [k], product * pivot
        if pivot == 0:
            j = next((j for j in range(k + 1, n) if work[k][j] != 0), None)
            if j is not None:
                return pivots + [k, j], -product * work[k][j] ** 2
            continue
        pivots.append(k)
        product *= pivot
        for row_i in work[k + 1:]:
            factor = Fraction(row_i[k], pivot)
            if factor:
                row_i[k + 1:] = [x - factor * y for x, y in zip(row_i[k + 1:], work[k][k + 1:])]
    return None

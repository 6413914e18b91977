"""Truncated formal power series over exact rationals, and the generating
function layer for recursive matrices with banded weight data.

A Series of order N holds the N+1 coefficients of x^0..x^N.  It has no
operators: radical_quotient builds it, and the Riordan column check works on
integer columns.

A generating function spec (GFSpec) names the ordinary generating function
of column 0 of a recursive matrix whose weight sequences are constant after
the first entry: diagonal weights (p, s, s, ...) over subdiagonal weights
(q, t, t, ...).  Every closed form here has one shape,

    c / (a0 + a1*x + e*sqrt(1 + r1*x + r2*x**2)),

and radical_quotient is the one routine that expands it; each kind of spec
is a map from its parameters to (c, a0, a1, e, r1, r2), and each named
classic a literal row of them.  Each generating function has one expansion
route, and the recurrence (recursive.catalan_like) is the independent
check on it.  The general closed form divides by 2t and refuses t = 0; the
Riordan column check needs no division by t (see riordan_column_check).

radical_quotient costs O(1) int operations per coefficient (the algebraic
=> D-finite route).  y = sqrt(P), P = 1 + r1*x + r2*x**2, obeys P y' = P' y / 2.
With r1 = R1/L, r2 = R2/L over one denominator L, U_k = y_k (4L)^k is an
integer, because 4^j binom(1/2, j) is, so the division in
(k+1) U_(k+1) = 2 R1 (1 - 2k) U_k + 16 L R2 (2 - k) U_(k-1) is exact.  Then
c / (A + e*y) = c (A - e*y) / Q with A = a0 + a1*x and Q = A**2 - e**2 P, of
degree at most 2, integral once scaled by M**2 L (M the LCM of the
denominators of a0, a1 and e).  Q's m zero low coefficients are dropped:
a0 + e != 0, so a zero Q_0 means a0 = e, and the numerator vanishes as far.
The rest, made primitive as G (its scale moved into c), divides by
F_k = G_0^k N_(k+m) - 4L G_1 F_(k-1) - (4L)^2 G_0 G_2 F_(k-2), over the one
running denominator G_0^(k+1) (4L)^(k+m) D, where N_k (4L)^k D is the
numerator's kth coefficient as an int.  When Q = 0, e*sqrt(P) = A is a
polynomial and the denominator is 2A.  gf_expand reduces each F_k over its
denominator to a Fraction; the Riordan check and series take the ints.

The same closed form gives the terms of a first-then-constant pair, which
gen and hankel-det print (_constant_tail_ints), with no denominator that
grows.  Write (p, q, s, t) = (p', q', s', t') / L over one L.  The terms
times L^k, mu_k = L^k m_k, are ints (recursive's triangle runs on them),
and their generating function M(L*x) = c / (A + e*sqrt(P)) has int data:
c = 2t', e = q', A = 2t' - q' + (q's' - 2p't') x and
P = 1 - 2s'x + (s'^2 - 4t'L) x^2 = (1 - s'x)^2 - 4t'L x^2, so sqrt(P) has int
coefficients (those of sqrt(1 - 4z) are) and the root recurrence runs on
them with no (4L)^k.  Q = A**2 - e**2 P loses m <= 2 low coefficients:
G_0 = 4t'(t' - q'), or 4t'^2 (s' - p') when q = t, or 4t'^3 L when also
p = s.  So G_0 mu_k = N_(k+m) - G_1 mu_(k-1) - G_2 mu_(k-2), N the int
numerator c (A - e*sqrt(P)), and the one division a term is exact; it is
checked all the same, and a remainder raises.  For t = 0, M(L*x) =
(1 - s'x) / (1 - (p' + s')x + (p's' - q'L) x^2), with no root.  The
triangle stays the independent route: verify compares gf_expand with
recursive.catalan_like, which runs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import mul

from .exact import FALSE, TRUE, _scaled_ints, as_rat, check_fields, format_rat, nonneg_rats

DEFAULT_ORDER = 16


@dataclass(frozen=True, slots=True)
class Series:
    """Truncated formal power series with exact rational coefficients, built
    from any sequence of rationals."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        values = tuple(as_rat(c) for c in self.coeffs)
        if not values:
            raise ValueError("a series needs at least one coefficient")
        object.__setattr__(self, "coeffs", values)

    @property
    def order(self) -> int:
        """Truncation order N: coefficients of x^0..x^N are stored."""
        return len(self.coeffs) - 1

    def __repr__(self) -> str:
        shown = ", ".join(format_rat(c) for c in self.coeffs[:8])
        tail = ", ..." if self.order > 7 else ""
        return f"Series([{shown}{tail}], order={self.order})"


def _exact_div(num: int, den: int) -> int:
    """num / den for a division the mathematics makes exact; a remainder means
    a broken invariant, so it raises rather than return a floor."""
    quotient, remainder = divmod(num, den)
    if remainder:
        raise ArithmeticError(f"{num} is not a multiple of {den}")
    return quotient


def _root_ints(a: int, b: int, count: int) -> list[int]:
    """V_0..V_(count-1) of V_0 = 1, (k+1) V_(k+1) = a (1 - 2k) V_k + b (2 - k) V_(k-1):
    the coefficients y_k w^k of y = sqrt(1 + r1*x + r2*x**2) when a = w r1 / 2
    and b = w**2 r2 (P y' = P' y / 2), each an int when the V_k are."""
    roots = [0, 1]                                               # V_-1, V_0, ...
    for k in range(count - 1):
        roots.append(_exact_div(a * (1 - 2 * k) * roots[-1] + b * (2 - k) * roots[-2], k + 1))
    return roots[1:]


def _quadratic_quotient(num: list[int], g0: int, g1: int, g2: int, count: int) -> list[int]:
    """The first count coefficients of num / (g0 + g1*x + g2*x**2), known to be
    ints: g0 v_k = num_k - g1 v_(k-1) - g2 v_(k-2), one exact division a term."""
    quot = [0, 0]
    for k in range(count):
        quot.append(_exact_div(num[k] - g1 * quot[-1] - g2 * quot[-2], g0))
    return quot[2:]


def _constant_tail_ints(p, q, s, t, n: int) -> tuple[list[int], int]:
    """Terms 0..n of the Catalan-like numbers of (p, s, s, ...) over
    (q, t, t, ...) as ints over powers of one L: term k = nums[k] / L**k,
    where L is the LCM of the denominators of p, q, s, t.  These are the
    recursive matrix's column 0 (recursive.catalan_like), from the closed
    form's recurrence at O(1) int operations a term; see the module notes."""
    if n < 0:
        raise ValueError("n must be >= 0")
    (p, q, s, t), scale = _scaled_ints([as_rat(v) for v in (p, q, s, t)])
    if t == 0:
        quad, num = (1, -p - s, p * s - q * scale), [1, -s, *[0] * n]
    else:
        c, a0, a1, e, r2 = 2 * t, 2 * t - q, q * s - 2 * p * t, q, s * s - 4 * t * scale
        quad = (a0 * a0 - e * e, 2 * a0 * a1 + 2 * e * e * s, a1 * a1 - e * e * r2)
        num = [-c * e * y for y in _root_ints(-s, r2, n + 3)]
        num[0] += c * a0
        num[1] += c * a1
    shift = next(i for i, v in enumerate(quad) if v)
    return _quadratic_quotient(num[shift:], *quad[shift:], *[0] * shift, n + 1), scale


def _radical_quotient_ints(c, a0, a1, e, r1, r2, order: int) -> tuple[list[int], list[int]]:
    """Numerators and running denominators of radical_quotient's coefficients,
    unreduced: coefficient k is nums[k] / dens[k], and each dens[k] divides
    dens[k + 1].  The denominators alternate in sign when G_0 < 0."""
    if order < 0:
        raise ValueError("order must be >= 0")
    c, a0, a1, e, r1, r2 = map(as_rat, (c, a0, a1, e, r1, r2))
    (big_a0, big_a1, big_e), m = _scaled_ints([a0, a1, e])
    (big_r1, big_r2), scale = _scaled_ints([r1, r2])
    if big_a0 + big_e == 0:
        raise ValueError("division requires a nonzero constant term")
    square_e = big_e * big_e
    quad = [(big_a0 * big_a0 - square_e) * scale, 2 * big_a0 * big_a1 * scale - square_e * big_r1,
            big_a1 * big_a1 * scale - square_e * big_r2]                 # Q M^2 L
    if not any(quad):
        first, ratio = c * m / (2 * big_a0), Fraction(-big_a1, big_a0)
        return (list(accumulate([first.numerator, *[ratio.numerator] * order], mul)),
                list(accumulate([first.denominator, *[ratio.denominator] * order], mul)))
    shift = next(i for i, v in enumerate(quad) if v)
    g0, g1, g2 = [*quad[shift:], *[0] * shift]
    content = math.gcd(g0, g1, g2)
    g0, g1, g2 = g0 // content, g1 // content, g2 // content
    # c (a0, a1, e) times G / Q = M^2 L / content, over dn
    n0, n1, ne = (c.numerator * m * scale * v for v in (big_a0, big_a1, big_e))
    dn = c.denominator * content
    lift = 4 * scale                                             # U_k = y_k (4L)^k
    num = [-ne * u for u in _root_ints(2 * big_r1, 16 * scale * big_r2, order + shift + 2)]
    num[0] += n0                                                 # N_k (4L)^k D
    num[1] += n1 * lift
    quot, step_1, step_2, power = [0, 0], lift * g1, lift * lift * g0 * g2, 1
    for k in range(order + 1):
        quot.append(power * num[k + shift] - step_1 * quot[-1] - step_2 * quot[-2])
        power *= g0
    return quot[2:], list(accumulate([g0 * dn * lift ** shift, *[g0 * lift] * order], mul))


def radical_quotient(c, a0, a1, e, r1, r2, order: int) -> Series:
    """Expand c / (a0 + a1*x + e*sqrt(1 + r1*x + r2*x**2)), the one shape every
    generating function spec has, by the recurrences of the module notes."""
    return Series(map(Fraction, *_radical_quotient_ints(c, a0, a1, e, r1, r2, order)))


def _closed_form(p, q, s, t) -> tuple:
    if t == 0:
        raise ValueError("closed form divides by 2*t; for t = 0 use kind tied_qp or inverse_sqrt")
    return 2 * t, 2 * t - q, q * s - 2 * p * t, q, -2 * s, s * s - 4 * t


#: radical_quotient coefficients (c, a0, a1, e, r1, r2) of the classical
#: closed forms, written from their literal formulas rather than via the
#: parameterized reductions, so the two routes can cross-check
_NAMED = {
    "catalan": (2, 1, 0, 1, -4, 0),             # 2 / (1 + sqrt(1 - 4x))
    "central_binomial": (1, 0, 0, 1, -4, 0),    # 1 / sqrt(1 - 4x)
    "delannoy": (1, 0, 0, 1, -6, 1),            # 1 / sqrt(1 - 6x + x^2)
    "schroder_large": (2, 1, -1, 1, -6, 1),     # 2 / (1 - x + sqrt(1 - 6x + x^2))
    "schroder_little": (2, 1, 1, 1, -6, 1),     # 2 / (1 + x + sqrt(1 - 6x + x^2))
}

NAMED_GF_NAMES = tuple(sorted(_NAMED))

#: kind -> (fields, map from the field values to radical_quotient's
#: coefficients); each specialization is written from its own formula, with
#: sqrt(...) = sqrt(1 - 2*s*x + (s**2 - 4*t)*x**2)
_KINDS = {
    "closed_form": (("p", "q", "s", "t"), _closed_form),
    # q = t:  2 / (1 + (s - 2*p)*x + sqrt(...))
    "tied_q": (("p", "s", "t"), lambda p, s, t: (2, 1, s - 2 * p, 1, -2 * s, s * s - 4 * t)),
    # q = t, p = s:  2 / (1 - s*x + sqrt(...))
    "tied_qp": (("s", "t"), lambda s, t: (2, 1, -s, 1, -2 * s, s * s - 4 * t)),
    # q = 2*t, p = s:  1 / sqrt(...)
    "inverse_sqrt": (("s", "t"), lambda s, t: (1, 0, 0, 1, -2 * s, s * s - 4 * t)),
    "named": (("name",), _NAMED.__getitem__),
}


def _fields(kind) -> tuple[str, ...]:
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValueError(f"unknown generating function kind {kind!r}")
    return _KINDS[kind][0]


@dataclass(frozen=True)
class GFSpec:
    """A column-0 generating function for weights (p, s, s, ...) over
    (q, t, t, ...): a kind and its parameters in the kind's field order.
    The rational kinds take nonnegative rationals; kind "named" takes the
    one name of a classical closed form."""

    kind: str
    params: tuple

    def __post_init__(self):
        fields = _fields(self.kind)
        params = tuple(self.params)
        if len(params) != len(fields):
            raise ValueError(
                f"generating function kind {self.kind!r} needs fields {', '.join(fields)}"
            )
        if self.kind != "named":
            params = nonneg_rats(zip(fields, [as_rat(v) for v in params]))
        elif not isinstance(params[0], str) or params[0] not in _NAMED:
            raise ValueError(
                f"unknown generating function {params[0]!r}; "
                f"choose from {', '.join(NAMED_GF_NAMES)}"
            )
        object.__setattr__(self, "params", params)


def _spec(gf) -> GFSpec:
    if not isinstance(gf, GFSpec):
        raise ValueError(f"not a generating function spec: {gf!r}")
    return gf


def gf_to_json(gf: GFSpec) -> dict:
    kind, params = _spec(gf).kind, gf.params
    values = params if kind == "named" else map(format_rat, params)
    return {"kind": kind, **dict(zip(_KINDS[kind][0], values))}


def gf_from_json(data: dict) -> GFSpec:
    if not isinstance(data, dict) or "kind" not in data:
        raise ValueError("generating function JSON needs a 'kind' field")
    kind, fields = data["kind"], _fields(data["kind"])
    if kind == "named" and "name" not in data:
        raise ValueError("named generating function JSON needs a 'name' field")
    check_fields(data, ("kind", *fields), f"{kind} generating function")
    return GFSpec(kind, tuple(data[f] for f in fields if f in data))


def _gf_ints(gf: GFSpec, order: int) -> tuple[list[int], list[int]]:
    """gf_expand's coefficient k as the unreduced nums[k] / dens[k], dens[k] of either sign."""
    if order < 0:
        raise ValueError("order must be >= 0")
    return _radical_quotient_ints(*_KINDS[_spec(gf).kind][1](*gf.params), order)


def gf_expand(gf: GFSpec, order: int = DEFAULT_ORDER) -> Series:
    """Expand a generating function spec to the given order."""
    return Series(map(Fraction, *_gf_ints(gf, order)))


def riordan_column_check(p, q, s, t, order: int = DEFAULT_ORDER, k_max: int = 5) -> str:
    """TRUE when columns 0..k_max of the recursive matrix of (p, s, s, ...)
    over (q, t, t, ...), run on integer rows, match x**k * h**k * d to the
    given order, where d = 1 / (1 - p*x - q*x**2*h) and h = 1 + s*x*h +
    t*x**2*h**2 is the tied_qp row, which never divides by t.  Column 0 times
    d's denominator must be 1, and each later column x * h times the one
    before; cell (n, k) is row[k] / L**n, and with h = H / dh, dh the last of
    the running denominators of h's expansion (of either sign), both sides
    are compared as ints scaled by dh * L**n."""
    from .recursive import _scaled_rows

    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    p, q, s, t = map(as_rat, (p, q, s, t))
    nums, dens = _radical_quotient_ints(*_KINDS["tied_qp"][1](s, t), order)
    dh = dens[-1]                                           # h_j = H_j / dh
    h = [v * (dh // d) for v, d in zip(nums, dens)]
    (p_int, q_int, _, _), scale = _scaled_ints([p, q, s, t])   # L of the rows
    lifted = list(map(mul, h, accumulate([scale] * (order + 1), mul)))   # H_j L^(j+1)

    def times_xh(column: list[int]) -> list[int]:
        return [sum(map(mul, lifted[:n], column[n - 1::-1])) for n in range(order + 1)]

    rows = [row for row, _ in _scaled_rows([p, *[s] * order], [q, *[t] * order], order)]
    column = [row[0] for row in rows]
    expected = [dh, *(dh * p_int * v + q_int * w for v, w in zip(column, times_xh(column)))]
    if [dh * v for v in column] != expected[:order + 1]:
        return FALSE
    for k in range(1, k_max + 1):
        previous, column = column, [row[k] if k < len(row) else 0 for row in rows]
        if [dh * v for v in column] != times_xh(previous):
            return FALSE
    return TRUE

"""Truncated formal power series over exact rationals, and the generating
function layer for recursive matrices with banded weight data.

A Series of order N holds the N+1 coefficients of x^0..x^N; the product
and the quotient truncate to the smaller operand order (the longer tail
would not be trustworthy anyway).  Square roots require constant term 1 and
division requires a nonzero constant term; both are computed coefficient by
coefficient, exactly.  There is no sum, shift or scalar operator: the few
coefficient lists that need one are written directly.

The three kernels run on integers: each operand is scaled to ints over the
common denominator of its coefficients, the O(N^2) loop runs on those, and
each output coefficient becomes one Fraction.  Product: with a = A/d_a and
b = B/d_b, [x^k] ab = (sum_i A_i B_(k-i)) / (d_a d_b).  Quotient f/g with
f = F/d_f, g = G/d_g: Q_k = q_k G_0^(k+1) d_f/d_g is an integer, since
Q_k = F_k G_0^k - sum_(i<k) Q_i G_(k-i) G_0^(k-1-i).  Square root of
f = F/L (constant term 1): U_k = u_k (4L)^k is an integer, because
4^j binom(1/2, j) is, and 2 U_k = F_k 4^k L^(k-1) - sum_(0<i<k) U_i U_(k-i).

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
"""

from __future__ import annotations

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

    def __mul__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        n = min(len(self.coeffs), len(other.coeffs))
        (a, da), (b, db) = _scaled_ints(self.coeffs[:n]), _scaled_ints(other.coeffs[:n])
        return Series(Fraction(sum(map(mul, a[:k + 1], b[k::-1])), da * db) for k in range(n))

    def divide(self, divisor: "Series") -> "Series":
        """Exact long division; the divisor's constant term must be nonzero."""
        if divisor.coeffs[0] == 0:
            raise ValueError("division requires a nonzero constant term")
        n = min(len(self.coeffs), len(divisor.coeffs))
        (f, df), (g, dg) = _scaled_ints(self.coeffs[:n]), _scaled_ints(divisor.coeffs[:n])
        powers = list(accumulate([1] + [g[0]] * n, mul))            # G_0^k
        lifted = [0] + [g[j] * powers[j - 1] for j in range(1, n)]   # G_j G_0^(j-1)
        quot: list[int] = []                                         # Q_k
        for k in range(n):
            quot.append(f[k] * powers[k] - sum(map(mul, quot, lifted[k:0:-1])))
        return Series(Fraction(q * dg, df * powers[k + 1]) for k, q in enumerate(quot))

    def sqrt(self) -> "Series":
        """Exact square root of a series with constant term 1."""
        if self.coeffs[0] != 1:
            raise ValueError("sqrt requires constant term 1")
        f, den = _scaled_ints(self.coeffs)
        roots, lift, scale = [1], 4, 4 * den                         # U_k; 4^k L^(k-1); 4L
        for k in range(1, len(f)):
            twice = f[k] * lift - sum(map(mul, roots[1:k], roots[k - 1:0:-1]))
            assert twice % 2 == 0, "2 U_k is even"
            roots.append(twice // 2)
            lift *= scale
        return Series(Fraction(u, scale ** k) for k, u in enumerate(roots))


def solve_d(p, q, h: Series) -> Series:
    """Compute d(x) = 1 / (1 - p*x - q*x**2*h(x)) to h's order: column 0 of
    the Riordan array (d, x*h) of weights (p, s, s, ...) over (q, t, t, ...),
    h = 1 + s*x*h + t*x**2*h**2 the series of (s, s, ...) over (t, t, ...)."""
    denom = [1, -as_rat(p), *(-as_rat(q) * c for c in h.coeffs)][:h.order + 1]
    return Series([1] + [Fraction(0)] * h.order).divide(Series(denom))


def radical_quotient(c, a0, a1, e, r1, r2, order: int) -> Series:
    """Expand c / (a0 + a1*x + e*sqrt(1 + r1*x + r2*x**2)), the one shape every
    generating function spec has.  The root is scaled only when e != 1, and
    a0, a1 are added to the first two coefficients only."""
    if order < 0:
        raise ValueError("order must be >= 0")
    pad = [Fraction(0)] * order
    denom = Series([1, r1, r2, *pad][:order + 1]).sqrt().coeffs
    if e != 1:
        denom = [as_rat(e) * v for v in denom]
    if a0 or a1:
        denom = [as_rat(a) + v for a, v in zip((a0, a1), denom)] + list(denom[2:])
    return Series([c, *pad]).divide(Series(denom))


def _closed_form(p, q, s, t) -> tuple:
    if t == 0:
        raise ValueError("closed form divides by 2*t; use solve_d for t = 0")
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


def gf_expand(gf: GFSpec, order: int = DEFAULT_ORDER) -> Series:
    """Expand a generating function spec to the given order."""
    if order < 0:
        raise ValueError("order must be >= 0")
    return radical_quotient(*_KINDS[_spec(gf).kind][1](*gf.params), order)


def riordan_column_check(p, q, s, t, order: int = DEFAULT_ORDER, k_max: int = 5) -> str:
    """TRUE when columns 0..k_max of the recursive matrix of (p, s, s, ...)
    over (q, t, t, ...), run on integer rows, match x**k * h**k * d to the
    given order.  h = 1 + s*x*h + t*x**2*h**2 is the tied_qp row, which never
    divides by t; d comes from solve_d, and each column is x * h times the
    one before.  Only the cells of columns 0..k_max become Fractions.
    """
    from .recursive import _scaled_rows

    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    p, q, s, t = as_rat(p), as_rat(q), as_rat(s), as_rat(t)
    h = radical_quotient(*_KINDS["tied_qp"][1](s, t), order)
    rows = _scaled_rows([p, *[s] * order], [q, *[t] * order], order)
    cells = [[Fraction(v, den) for v in row[:k_max + 1]] for row, den in rows]
    column = solve_d(p, q, h)
    for k in range(k_max + 1):
        if list(column.coeffs) != [row[k] if k < len(row) else 0 for row in cells]:
            return FALSE
        column = Series([0, *(column * h).coeffs[:-1]])
    return TRUE

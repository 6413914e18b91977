"""Truncated formal power series over exact rationals, and the generating
function layer for recursive matrices with banded weight data.

A Series of order N holds the N+1 coefficients of x^0..x^N; binary
operations truncate to the smaller operand order (the longer tail would not
be trustworthy anyway).  Square roots require constant term 1 and division
requires a nonzero constant term; both are computed coefficient by
coefficient, exactly.

The generating function types expand the ordinary generating function of
column 0 of a recursive matrix whose weight sequences are constant after the
first entry: diagonal weights (p, s, s, ...) over subdiagonal weights
(q, t, t, ...).  Two independent expansion routes are provided, a
fixed-point functional equation solver and explicit closed forms, so each
can certify the other.  The closed forms divide by 2t and refuse t = 0; the
fixed-point route covers that case.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exact import FALSE, TRUE, as_rat, coerce_nonneg_fields, format_rat

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

    @classmethod
    def from_poly(cls, coeffs: Sequence, order: int) -> "Series":
        """Embed a polynomial as a series of the given order."""
        if order < 0:
            raise ValueError("order must be >= 0")
        values = [as_rat(c) for c in coeffs[: order + 1]]
        values.extend([Fraction(0)] * (order + 1 - len(values)))
        return cls(values)

    @classmethod
    def constant(cls, value, order: int) -> "Series":
        return cls.from_poly([value], order)

    def __getitem__(self, k: int) -> Fraction:
        return self.coeffs[k]

    def __repr__(self) -> str:
        shown = ", ".join(format_rat(c) for c in self.coeffs[:8])
        tail = ", ..." if self.order > 7 else ""
        return f"Series([{shown}{tail}], order={self.order})"

    def __neg__(self) -> "Series":
        return Series(tuple(-c for c in self.coeffs))

    def __add__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        n = min(len(self.coeffs), len(other.coeffs))
        return Series(tuple(a + b for a, b in zip(self.coeffs[:n], other.coeffs[:n])))

    def __sub__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        return self + (-other)

    def scale(self, factor) -> "Series":
        f = as_rat(factor)
        return Series(tuple(f * c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, Series):
            n = min(len(self.coeffs), len(other.coeffs))
            a, b = self.coeffs, other.coeffs
            out = []
            for k in range(n):
                acc = Fraction(0)
                for i in range(k + 1):
                    if a[i]:
                        acc += a[i] * b[k - i]
                out.append(acc)
            return Series(out)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __truediv__(self, other):
        if isinstance(other, Series):
            return self.divide(other)
        return self.scale(Fraction(1) / as_rat(other))

    def divide(self, divisor: "Series") -> "Series":
        """Exact long division; the divisor's constant term must be nonzero."""
        if divisor.coeffs[0] == 0:
            raise ValueError("division requires a nonzero constant term")
        n = min(len(self.coeffs), len(divisor.coeffs))
        g = divisor.coeffs
        g0 = g[0]
        out: list[Fraction] = []
        for k in range(n):
            acc = self.coeffs[k]
            for i in range(k):
                acc -= out[i] * g[k - i]
            out.append(acc / g0)
        return Series(out)

    def sqrt(self) -> "Series":
        """Exact square root of a series with constant term 1."""
        if self.coeffs[0] != 1:
            raise ValueError("sqrt requires constant term 1")
        out: list[Fraction] = [Fraction(1)]
        for k in range(1, len(self.coeffs)):
            acc = self.coeffs[k]
            for i in range(1, k):
                acc -= out[i] * out[k - i]
            out.append(acc / 2)
        return Series(out)

    def mul_xk(self, k: int) -> "Series":
        """Multiply by x**k, keeping the order (tail coefficients drop off)."""
        if k < 0:
            raise ValueError("k must be >= 0")
        if k == 0:
            return self
        padded = (Fraction(0),) * k + self.coeffs
        return Series(padded[: len(self.coeffs)])

    def div_xk(self, k: int) -> "Series":
        """Divide by x**k; the first k coefficients must vanish."""
        if k < 0 or k > self.order:
            raise ValueError(f"k must lie in 0..{self.order}")
        if any(c != 0 for c in self.coeffs[:k]):
            raise ValueError(f"series is not divisible by x**{k}")
        return Series(self.coeffs[k:]) if k else self


def poly_eval(poly: Sequence, arg: Series) -> Series:
    """Evaluate a polynomial at a series argument (Horner)."""
    coeffs = [as_rat(c) for c in poly]
    if not coeffs:
        raise ValueError("empty polynomial")
    acc = Series.constant(coeffs[-1], arg.order)
    for c in reversed(coeffs[:-1]):
        acc = acc * arg + Series.constant(c, arg.order)
    return acc


def solve_h(a_poly: Sequence, order: int) -> Series:
    """Solve the fixed-point equation h(x) = A(x*h(x)), A a polynomial.

    Each iteration pins down one further coefficient, so order+1 rounds
    produce the unique solution exactly to the requested order.
    """
    a = [as_rat(c) for c in a_poly]
    if not a or a[0] == 0:
        raise ValueError("A must have a nonzero constant term")
    x = Series.from_poly([0, 1], order)
    h = Series.constant(a[0], order)
    for _ in range(order + 1):
        h = poly_eval(a, x * h)
    return h


def solve_d(z_poly: Sequence, h: Series) -> Series:
    """Compute d(x) = 1 / (1 - x*Z(x*h(x))), Z a polynomial, h from solve_h."""
    order = h.order
    x = Series.from_poly([0, 1], order)
    denom = Series.constant(1, order) - x * poly_eval(z_poly, x * h)
    return Series.constant(1, order).divide(denom)


def sqrt_discriminant(s, t, order: int) -> Series:
    """Expand sqrt(1 - 2*s*x + (s**2 - 4*t)*x**2)."""
    s, t = as_rat(s), as_rat(t)
    inner = Series.from_poly([1, -2 * s, s * s - 4 * t], order)
    return inner.sqrt()


def closed_form_h(s, t, order: int) -> Series:
    """Expand h(x) = (1 - s*x - sqrt(1 - 2*s*x + (s**2-4*t)*x**2)) / (2*t*x**2).

    Refuses t = 0, where the formula divides by zero; use solve_h there.
    """
    s, t = as_rat(s), as_rat(t)
    if t == 0:
        raise ValueError("closed form divides by 2*t; use solve_h for t = 0")
    # two extra working coefficients pay for the division by x**2
    num = Series.from_poly([1, -s], order + 2) - sqrt_discriminant(s, t, order + 2)
    return num.div_xk(2).scale(Fraction(1, 2) / t)


def closed_form_d(p, q, s, t, order: int) -> Series:
    """Expand d(x) = 2*t / (2*t - q + (q*s - 2*p*t)*x + q*sqrt(...)).

    Refuses t = 0, where the formula degenerates to 0/0; use solve_d there.
    """
    p, q, s, t = as_rat(p), as_rat(q), as_rat(s), as_rat(t)
    if t == 0:
        raise ValueError("closed form divides by 2*t; use solve_d for t = 0")
    root = sqrt_discriminant(s, t, order)
    denom = Series.from_poly([2 * t - q, q * s - 2 * p * t], order) + root.scale(q)
    return Series.constant(2 * t, order).divide(denom)


@dataclass(frozen=True)
class ClosedFormGF:
    """Column-0 generating function for weights (p, s, s, ...) over
    (q, t, t, ...), in full generality."""

    p: Fraction
    q: Fraction
    s: Fraction
    t: Fraction

    def __post_init__(self):
        coerce_nonneg_fields(self)

    def expand(self, order: int) -> Series:
        return closed_form_d(self.p, self.q, self.s, self.t, order)


@dataclass(frozen=True)
class TiedQGF:
    """Specialization q = t:  d(x) = 2 / (1 + (s - 2*p)*x + sqrt(...))."""

    p: Fraction
    s: Fraction
    t: Fraction

    def __post_init__(self):
        coerce_nonneg_fields(self)

    def expand(self, order: int) -> Series:
        denom = Series.from_poly([1, self.s - 2 * self.p], order) + sqrt_discriminant(
            self.s, self.t, order
        )
        return Series.constant(2, order).divide(denom)


@dataclass(frozen=True)
class TiedQPGF:
    """Specialization q = t, p = s:  d(x) = 2 / (1 - s*x + sqrt(...))."""

    s: Fraction
    t: Fraction

    def __post_init__(self):
        coerce_nonneg_fields(self)

    def expand(self, order: int) -> Series:
        denom = Series.from_poly([1, -self.s], order) + sqrt_discriminant(self.s, self.t, order)
        return Series.constant(2, order).divide(denom)


@dataclass(frozen=True)
class InverseSqrtGF:
    """Specialization q = 2*t, p = s:  d(x) = 1 / sqrt(...)."""

    s: Fraction
    t: Fraction

    def __post_init__(self):
        coerce_nonneg_fields(self)

    def expand(self, order: int) -> Series:
        one = Series.constant(1, order)
        return one.divide(sqrt_discriminant(self.s, self.t, order))


def _named_expand_catalan(order: int) -> Series:
    root = Series.from_poly([1, -4], order).sqrt()
    denom = Series.constant(1, order) + root
    return Series.constant(2, order).divide(denom)


def _named_expand_central_binomial(order: int) -> Series:
    root = Series.from_poly([1, -4], order).sqrt()
    return Series.constant(1, order).divide(root)


def _named_expand_delannoy(order: int) -> Series:
    root = Series.from_poly([1, -6, 1], order).sqrt()
    return Series.constant(1, order).divide(root)


def _named_expand_schroder_large(order: int) -> Series:
    root = Series.from_poly([1, -6, 1], order).sqrt()
    denom = Series.from_poly([1, -1], order) + root
    return Series.constant(2, order).divide(denom)


def _named_expand_schroder_little(order: int) -> Series:
    root = Series.from_poly([1, -6, 1], order).sqrt()
    denom = Series.from_poly([1, 1], order) + root
    return Series.constant(2, order).divide(denom)


#: classical closed forms, expanded from their literal formulas rather than
#: via the parameterized reductions, so the two routes can cross-check
_NAMED = {
    "catalan": _named_expand_catalan,
    "central_binomial": _named_expand_central_binomial,
    "delannoy": _named_expand_delannoy,
    "schroder_large": _named_expand_schroder_large,
    "schroder_little": _named_expand_schroder_little,
}

NAMED_GF_NAMES = tuple(sorted(_NAMED))


@dataclass(frozen=True)
class NamedGF:
    """One of the classical closed forms, identified by name."""

    name: str

    def __post_init__(self):
        if self.name not in _NAMED:
            raise ValueError(
                f"unknown generating function {self.name!r}; "
                f"choose from {', '.join(NAMED_GF_NAMES)}"
            )

    def expand(self, order: int) -> Series:
        return _NAMED[self.name](order)


GF_TYPES = (ClosedFormGF, TiedQGF, TiedQPGF, InverseSqrtGF, NamedGF)

_GF_KINDS = {
    "closed_form": (ClosedFormGF, ("p", "q", "s", "t")),
    "tied_q": (TiedQGF, ("p", "s", "t")),
    "tied_qp": (TiedQPGF, ("s", "t")),
    "inverse_sqrt": (InverseSqrtGF, ("s", "t")),
}


def gf_to_json(gf) -> dict:
    if isinstance(gf, NamedGF):
        return {"kind": "named", "name": gf.name}
    for kind, (cls, fields) in _GF_KINDS.items():
        if isinstance(gf, cls):
            return {"kind": kind, **{f: format_rat(getattr(gf, f)) for f in fields}}
    raise ValueError(f"not a generating function spec: {gf!r}")


def gf_from_json(data: dict):
    if not isinstance(data, dict) or "kind" not in data:
        raise ValueError("generating function JSON needs a 'kind' field")
    kind = data["kind"]
    if kind == "named":
        if "name" not in data:
            raise ValueError("named generating function JSON needs a 'name' field")
        return NamedGF(data["name"])
    if kind not in _GF_KINDS:
        raise ValueError(f"unknown generating function kind {kind!r}")
    cls, fields = _GF_KINDS[kind]
    missing = [f for f in fields if f not in data]
    if missing:
        raise ValueError(f"generating function kind {kind!r} needs fields {', '.join(fields)}")
    return cls(**{f: as_rat(data[f]) for f in fields})


def gf_expand(gf, order: int = DEFAULT_ORDER) -> Series:
    """Expand any of the generating function types to the given order."""
    if order < 0:
        raise ValueError("order must be >= 0")
    if not isinstance(gf, GF_TYPES):
        raise ValueError(f"not a generating function spec: {gf!r}")
    return gf.expand(order)


def riordan_column_check(p, q, s, t, order: int = DEFAULT_ORDER, k_max: int = 5) -> str:
    """Verify columns 0..k_max of the recursive matrix against x**k * h**k * d.

    Returns TRUE when every requested column of the matrix built from the
    recurrence matches its generating function expansion to the given order.
    h and d are expanded once (by the closed forms, or by the fixed-point
    route when t = 0) and each column is x * h times the one before.
    """
    from .recursive import build_recursive
    from .seqspec import SequenceSpec

    p, q, s, t = as_rat(p), as_rat(q), as_rat(s), as_rat(t)
    if t == 0:
        h = solve_h([1, s, t], order)
        d = solve_d([p, q], h)
    else:
        h = closed_form_h(s, t, order)
        d = closed_form_d(p, q, s, t, order)
    sigma = SequenceSpec.first_then_constant(p, s, start=0)
    tau = SequenceSpec.first_then_constant(q, t, start=1)
    matrix = build_recursive(sigma, tau, order)
    column = d
    for k in range(k_max + 1):
        if list(column.coeffs) != [matrix.entry(n, k) for n in range(order + 1)]:
            return FALSE
        column = (column * h).mul_xk(1)
    return TRUE

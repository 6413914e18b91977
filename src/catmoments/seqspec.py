"""Finite descriptions of infinite weight sequences, plus the catalog of
classical sequence families.

A recursive matrix is driven by two weight sequences: diagonal weights
(s_k) indexed from 0 and subdiagonal weights (t_k) indexed from 1.  A
SequenceSpec describes such a sequence by an explicit finite prefix followed
by a tail rule, either a constant or a polynomial in the index k (degree at
most 4; the catalog needs at most k**2).  Specs serialize to JSON with
rationals as "p/q" strings.  A spec holds its prefix and tail as ints over
den, the LCM of their denominators; SequenceSpec.ints hands out its first
values as ints over any multiple of den, no Fraction per value, as every
route reads them (recursive.read_weights), and SequenceSpec.tail_ints the
tail rule's coefficients over such a multiple, which dominance tests past
the prefixes by the same Horner loop (_horner); the tail classes only hold
and serialize the rule.

The catalog maps the eight classical names (catalan, central_binomial,
delannoy, schroder_large, schroder_little, hexagonal, bell, factorial) to
their weight pairs, frozen reference terms, and, for the five families with
a classical closed form, a generating function spec.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .exact import _scaled_ints, _Value, _values, as_rat, check_fields, format_rat
from .series import NAMED_GF_NAMES, GFSpec, gf_to_json

MAX_TAIL_DEGREE = 4


class ConstantTail(_Value):
    """Tail rule: every index past the prefix gets the same value, a Fraction."""

    _compared = ("value",)

    def __init__(self, value):
        self.__dict__["value"] = as_rat(value)

    def to_json(self) -> dict:
        return {"kind": "constant", "value": format_rat(self.value)}


class PolynomialTail(_Value):
    """Tail rule: value at index k is the polynomial evaluated at k.

    coeffs[i], a Fraction, is the coefficient of k**i; degree is capped at 4.
    """

    _compared = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(map(as_rat, _values(coeffs, "coeffs")))
        if not coeffs:
            raise ValueError("polynomial tail needs at least one coefficient")
        if len(coeffs) > MAX_TAIL_DEGREE + 1:
            raise ValueError(f"polynomial tail degree is capped at {MAX_TAIL_DEGREE}")
        self.__dict__["coeffs"] = coeffs

    def to_json(self) -> dict:
        return {"kind": "polynomial", "coeffs": [format_rat(c) for c in self.coeffs]}


def _horner(coeffs: list[int], indices) -> list[int]:
    """The polynomial with int coefficients coeffs, highest degree first, at
    each of the indices."""
    values = []
    for k in indices:
        acc = 0
        for c in coeffs:
            acc = acc * k + c
        values.append(acc)
    return values


def tail_from_json(data: dict):
    if not isinstance(data, dict) or "kind" not in data:
        raise ValueError("tail JSON needs a 'kind' field")
    kind = data["kind"]
    if kind == "constant":
        if "value" not in data:
            raise ValueError("constant tail JSON needs a 'value' field")
        check_fields(data, ("kind", "value"), "constant tail")
        return ConstantTail(as_rat(data["value"]))
    if kind == "polynomial":
        if "coeffs" not in data or not isinstance(data["coeffs"], list):
            raise ValueError("polynomial tail JSON needs a 'coeffs' list")
        check_fields(data, ("kind", "coeffs"), "polynomial tail")
        return PolynomialTail(tuple(as_rat(c) for c in data["coeffs"]))
    raise ValueError(f"unknown tail kind {kind!r}")


class SequenceSpec(_Value):
    """Prefix-plus-tail description of an infinite sequence u_k, k >= start.

    start is 0 for diagonal weight sequences and 1 for subdiagonal ones; the
    prefix, a tuple of Fractions, covers indices start, start+1, ... in
    order.  den and _ints, the prefix and tail as ints over den, are derived
    from them, so they are neither compared nor shown.
    """

    _compared = ("prefix", "tail", "start")

    def __init__(self, prefix, tail, start: int = 0):
        prefix = tuple(map(as_rat, _values(prefix, "prefix")))
        if not isinstance(tail, (ConstantTail, PolynomialTail)):
            raise ValueError("tail must be a ConstantTail or PolynomialTail")
        if type(start) is not int or start not in (0, 1):
            raise ValueError(f"start must be 0 or 1, got {start!r}")
        coeffs = (tail.value,) if isinstance(tail, ConstantTail) else tail.coeffs
        ints, den = _scaled_ints([*prefix, *coeffs[::-1]])
        self.__dict__.update(prefix=prefix, tail=tail, start=start, den=den,
                             _ints=(ints[:len(prefix)], ints[len(prefix):]))

    @classmethod
    def constant(cls, value, start: int = 0) -> "SequenceSpec":
        return cls((), ConstantTail(as_rat(value)), start)

    @classmethod
    def first_then_constant(cls, first, rest, start: int = 0) -> "SequenceSpec":
        return cls((as_rat(first),), ConstantTail(as_rat(rest)), start)

    @classmethod
    def polynomial(cls, coeffs, start: int = 0) -> "SequenceSpec":
        return cls((), PolynomialTail(tuple(as_rat(c) for c in coeffs)), start)

    def tail_ints(self, den: int) -> list[int]:
        """den times the tail rule's coefficients, highest degree first (one for a
        constant tail), for den a multiple of self.den."""
        factor, rest = divmod(den, self.den)
        if rest:
            raise ValueError(f"{den} is not a multiple of the denominator {self.den}")
        return [c * factor for c in self._ints[1]]

    def ints(self, count: int, den: int) -> list[int]:
        """den times the first `count` values, for den a multiple of self.den: the
        prefix's ints, then the tail's, a constant repeated, a polynomial by Horner."""
        poly = self.tail_ints(den)
        head = [v * (den // self.den) for v in self._ints[0][:max(count, 0)]]
        indices = range(self.start + len(head), self.start + count)
        if len(poly) == 1:
            return head + poly * len(indices)
        return head + _horner(poly, indices)

    def tail_start(self) -> int:
        """First index governed by the tail rule."""
        return self.start + len(self.prefix)

    def as_first_plus_constant(self) -> Optional[tuple[Fraction, Fraction]]:
        """Collapse to (first value, constant rest) if the spec has that shape.

        Returns None when the tail is a nonconstant polynomial or the prefix
        holds more than one distinct value beyond the first.
        """
        if isinstance(self.tail, ConstantTail):
            rest = self.tail.value
        elif len(self.tail.coeffs) == 1:
            rest = self.tail.coeffs[0]
        else:
            return None
        if any(v != rest for v in self.prefix[1:]):
            return None
        first = self.prefix[0] if self.prefix else rest
        return (first, rest)

    def to_json(self) -> dict:
        return {
            "prefix": [format_rat(c) for c in self.prefix],
            "tail": self.tail.to_json(),
            "start": self.start,
        }

    @classmethod
    def from_json(cls, data: dict) -> "SequenceSpec":
        if not isinstance(data, dict):
            raise ValueError("sequence spec JSON must be an object")
        missing = [key for key in ("prefix", "tail", "start") if key not in data]
        if missing:
            raise ValueError(f"sequence spec JSON lacks fields: {', '.join(missing)}")
        check_fields(data, ("prefix", "tail", "start"), "sequence spec")
        if not isinstance(data["prefix"], list):
            raise ValueError("sequence spec 'prefix' must be a list")
        prefix = tuple(as_rat(c) for c in data["prefix"])
        tail = tail_from_json(data["tail"])
        start = data["start"]
        # JSON true/false and 0.0 compare equal to 0 and 1 in Python
        if type(start) is not int or start not in (0, 1):
            raise ValueError(f"sequence spec 'start' must be 0 or 1, got {start!r}")
        return cls(prefix, tail, start)


def pqst_of(sigma: SequenceSpec, tau: SequenceSpec) -> Optional[tuple]:
    """Extract (p, q, s, t) when the weights are constant after their first
    entries: sigma = (p, s, s, ...), tau = (q, t, t, ...)."""
    sig = sigma.as_first_plus_constant()
    tav = tau.as_first_plus_constant()
    if sig is None or tav is None:
        return None
    p, s = sig
    q, t = tav
    return (p, q, s, t)


class CatalogEntry(_Value):
    """A named classical sequence: its weight pair, frozen reference terms,
    and (when one exists in closed form) its generating function."""

    _compared = ("name", "description", "sigma", "tau", "reference_terms", "gf", "aliases")

    def __init__(self, name: str, description: str, sigma: SequenceSpec, tau: SequenceSpec,
                 reference_terms: tuple[Fraction, ...], gf: Optional[GFSpec] = None,
                 aliases: tuple[str, ...] = ()):
        self.__dict__.update(name=name, description=description, sigma=sigma, tau=tau,
                             reference_terms=reference_terms, gf=gf, aliases=aliases)

    def to_json(self) -> dict:
        data = {
            "name": self.name,
            "description": self.description,
            "sigma": self.sigma.to_json(),
            "tau": self.tau.to_json(),
            "reference_terms": [format_rat(v) for v in self.reference_terms],
            "gf": None if self.gf is None else gf_to_json(self.gf),
        }
        if self.aliases:
            data["aliases"] = list(self.aliases)
        return data


def _entry(name, description, sigma, tau, terms, aliases=()):
    return CatalogEntry(
        name=name,
        description=description,
        sigma=sigma,
        tau=tau,
        reference_terms=tuple(Fraction(v) for v in terms),
        gf=GFSpec("named", (name,)) if name in NAMED_GF_NAMES else None,
        aliases=tuple(aliases),
    )


# reference_terms were computed by the weighted-path oracle (explicit
# enumeration, independent of the recurrence) and frozen here; the test
# suite re-derives them from both routes.
CATALOG: dict[str, CatalogEntry] = {
    entry.name: entry
    for entry in (
        _entry(
            "catalan",
            "Catalan numbers",
            SequenceSpec.first_then_constant(1, 2, start=0),
            SequenceSpec.constant(1, start=1),
            (1, 1, 2, 5, 14, 42, 132, 429),
        ),
        _entry(
            "central_binomial",
            "central binomial coefficients",
            SequenceSpec.constant(2, start=0),
            SequenceSpec.first_then_constant(2, 1, start=1),
            (1, 2, 6, 20, 70, 252, 924, 3432),
        ),
        _entry(
            "delannoy",
            "central Delannoy numbers",
            SequenceSpec.constant(3, start=0),
            SequenceSpec.first_then_constant(4, 2, start=1),
            (1, 3, 13, 63, 321, 1683, 8989, 48639),
        ),
        _entry(
            "schroder_large",
            "large Schroeder numbers",
            SequenceSpec.first_then_constant(2, 3, start=0),
            SequenceSpec.constant(2, start=1),
            (1, 2, 6, 22, 90, 394, 1806, 8558),
        ),
        _entry(
            "schroder_little",
            "little Schroeder numbers",
            SequenceSpec.first_then_constant(1, 3, start=0),
            SequenceSpec.constant(2, start=1),
            (1, 1, 3, 11, 45, 197, 903, 4279),
        ),
        _entry(
            "hexagonal",
            "restricted hexagonal numbers",
            SequenceSpec.constant(3, start=0),
            SequenceSpec.constant(1, start=1),
            (1, 3, 10, 36, 137, 543, 2219, 9285),
            aliases=("restricted_hexagonal",),
        ),
        _entry(
            "bell",
            "Bell numbers",
            SequenceSpec.polynomial([1, 1], start=0),
            SequenceSpec.polynomial([0, 1], start=1),
            (1, 1, 2, 5, 15, 52, 203, 877),
        ),
        _entry(
            "factorial",
            "factorial numbers",
            SequenceSpec.polynomial([1, 2], start=0),
            SequenceSpec.polynomial([0, 0, 1], start=1),
            (1, 1, 2, 6, 24, 120, 720, 5040),
        ),
    )
}

CATALOG_NAMES = tuple(CATALOG)

_ALIASES = {
    alias: entry.name for entry in CATALOG.values() for alias in entry.aliases
}


def catalog_lookup(name: str) -> CatalogEntry:
    """Fetch a catalog entry by canonical name or recorded alias."""
    key = name if name in CATALOG else _ALIASES.get(name)
    if key is None:
        raise KeyError(
            f"unknown catalog name {name!r}; choose from {', '.join(CATALOG_NAMES)}"
        )
    return CATALOG[key]

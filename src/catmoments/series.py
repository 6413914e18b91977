"""The generating function layer for recursive matrices whose weights are
constant after their first entry.

A generating function spec (GFSpec) names the ordinary generating function
of column 0 of the recursive matrix of diagonal weights (p, s, s, ...) over
subdiagonal weights (q, t, t, ...): its Catalan-like numbers.  Each kind of
spec is a map from its fields to that pair (p, q, s, t), and each named
classic a literal row of it.  _constant_tail is the one routine that
expands such a pair; gen and hankel-det print its terms, series and
gf_expand expand a spec by it, and the Riordan column check takes h from
it.  The recursive matrix's triangle stays the independent route: verify
compares gf_expand with recursive.catalan_like, which runs the triangle.

The generating function of such a pair is the radical quotient
c / (A + e*sqrt(P)), and _constant_tail runs its D-finite recurrence
at O(1) operations a term, with no denominator that grows.  Write
(p, q, s, t) = (p', q', s', t') / L over one L.  The terms times L^k,
mu_k = L^k m_k, are ints (recursive's triangle runs on them), and their
generating function M(L*x) = c / (A + e*sqrt(P)) has int data: c = 2t',
e = q', A = a0 + a1 x = 2t' - q' + (q's' - 2p't') x and
P = 1 - 2s'x + (s'^2 - 4t'L) x^2 = (1 - s'x)^2 - 4t'L x^2, so sqrt(P) has int
coefficients (those of sqrt(1 - 4z) are).  y = sqrt(P) obeys
P y' = P' y / 2, a three-term recurrence on them (_root_ints).  Then
c / (A + e*y) = c (A - e*y) / Q with Q = A**2 - e**2 P, which loses m <= 2
low coefficients: G_0 = 4t'(t' - q'), or 4t'^2 (s' - p') when q = t, or
4t'^3 L when also p = s.  Q has the factor 4t' and N = c (A - e*y) the
factor c = 2t', so Q's G_i and N's c a0, c a1, c e are divided by their gcd
before they are lifted (on 256-bit weights G_m falls from up to 770 bits to
at most 258).  Then G_m mu_k = N_(k+m) - G_(m+1) mu_(k-1) - G_(m+2) mu_(k-2),
and the one division a term is exact, yet checked: a remainder raises.  For
t = 0, M(L*x) = (1 - s'x) / (1 - (p' + s')x + (p's' - q'L) x^2), no root.

_constant_tail runs that recurrence on the divided data, each lifted first by
int or by exact.EXACT's create_decimal.  _constant_tail_strs prints the terms
for gen and series: term k is the int mu_k over L^k (exact.format_over),
unless L = 1 and the path bound B^n >= |m_n|, B = max(1 + |p| + |q|,
1 + |s| + |t|) at least every column sum of |J|, reaches exact._PIECE.  Such
terms are run on Decimals in EXACT for the same bytes, as int-to-str is
quadratic and libmpdec's str() linear; on catalan both routes take about as
long at that threshold.  hankel-det, gf_expand and the Riordan check take
the ints.
"""

from __future__ import annotations

import math
from decimal import localcontext
from fractions import Fraction
from itertools import accumulate, starmap
from operator import mul

from .exact import (_PIECE, EXACT, FALSE, TRUE, _decimal_str, _over, _scaled_ints, _Value,
                    _values, as_rat, check_fields, format_over, format_rat, nonneg_rats)

DEFAULT_ORDER = 16


def _exact_div(num, den):
    """num / den, ints or Decimals, for a division the mathematics makes exact;
    a remainder means a broken invariant, so it raises rather than return a
    floor (on Decimals, a quotient truncated toward 0).  The message names no
    value: an int past the digit limit would not print."""
    quotient, remainder = divmod(num, den)
    if remainder:
        raise ArithmeticError("an exact division left a remainder")
    return quotient


def _root_ints(a, b, count: int) -> list:
    """V_0..V_(count-1) of V_0 = 1, (k+1) V_(k+1) = a (1 - 2k) V_k + b (2 - k) V_(k-1):
    the coefficients y_k w^k of y = sqrt(1 + r1*x + r2*x**2) when a = w r1 / 2
    and b = w**2 r2 (P y' = P' y / 2), each an int when the V_k are."""
    roots = [0, 1]                                               # V_-1, V_0, ...
    for k in range(count - 1):
        roots.append(_exact_div(a * (1 - 2 * k) * roots[-1] + b * (2 - k) * roots[-2], k + 1))
    return roots[1:]


def _quadratic_quotient(num: list, g0, g1, g2, count: int) -> list:
    """The first count coefficients of num / (g0 + g1*x + g2*x**2), known to be
    ints: g0 v_k = num_k - g1 v_(k-1) - g2 v_(k-2), one exact division a term."""
    quot = [0, 0]
    for k in range(count):
        quot.append(_exact_div(num[k] - g1 * quot[-1] - g2 * quot[-2], g0))
    return quot[2:]


def _constant_tail(p: int, q: int, s: int, t: int, scale: int, n: int, lift) -> list:
    """mu_0..mu_n, mu_k = L**k m_k, of the scaled ints p' .. t' over scale = L,
    from the closed form's recurrence at O(1) operations a term, on its data
    divided by their gcd, then lifted (module notes); of the lift's type."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if t == 0:
        data, root = (1, -p - s, p * s - q * scale, 1, -s, 0), [0] * (n + 2)
    else:
        c, a0, a1, e, r2 = 2 * t, 2 * t - q, q * s - 2 * p * t, q, s * s - 4 * t * scale
        data = (a0 * a0 - e * e, 2 * a0 * a1 + 2 * e * e * s, a1 * a1 - e * e * r2,
                c * a0, c * a1, c * e)
        root = _root_ints(lift(-s), lift(r2), n + 3)
    content = math.gcd(*data)
    *quad, ca0, ca1, ce = (lift(v // content) for v in data)
    num = [-ce * y for y in root]
    num[0] += ca0
    num[1] += ca1
    shift = next(i for i, v in enumerate(quad) if v)
    return _quadratic_quotient(num[shift:], *quad[shift:], *[0] * shift, n + 1)


def _constant_tail_ints(p, q, s, t, n: int) -> tuple[list[int], int]:
    """Terms 0..n of the Catalan-like numbers of (p, s, s, ...) over
    (q, t, t, ...) as ints over powers of one L: term k = nums[k] / L**k,
    where L is the LCM of the denominators of p, q, s, t.  These are the
    recursive matrix's column 0 (recursive.catalan_like)."""
    (p, q, s, t), scale = _scaled_ints([as_rat(v) for v in (p, q, s, t)])
    return _constant_tail(p, q, s, t, scale, n, int), scale


def _constant_tail_strs(p, q, s, t, n: int) -> list[str]:
    """Terms 0..n of _constant_tail_ints as printed, on the route the module
    notes give.  B**n reaches _PIECE when (bit length of B - 1) * n reaches
    _PIECE's bit length, as 2**(bit length of B - 1) <= B."""
    (p, q, s, t), scale = _scaled_ints([as_rat(v) for v in (p, q, s, t)])
    if scale == 1:
        bound = max(1 + abs(p) + abs(q), 1 + abs(s) + abs(t))
        if (bound.bit_length() - 1) * n >= _PIECE.bit_length():
            with localcontext(EXACT) as context:
                terms = _constant_tail(p, q, s, t, 1, n, context.create_decimal)
                return list(map(_decimal_str, terms))
    nums = _constant_tail(p, q, s, t, scale, n, int)
    return list(map(format_over, nums, accumulate([1, *[scale] * n], mul)))


def _constant_tail_pairs(p, q, s, t, n: int) -> list[tuple[int, int]]:
    """Terms 0..n of _constant_tail_ints as (num, L**k) int pairs, unreduced."""
    nums, scale = _constant_tail_ints(p, q, s, t, n)
    return list(zip(nums, accumulate([1, *[scale] * n], mul)))


#: the weights (p, q, s, t) of each classical closed form, one literal row
#: each; tests/oracle.py holds their literal formulas, which the tests expand
#: on the schoolbook kernels against these rows
_NAMED = {
    "catalan": (1, 1, 2, 1),                    # 2 / (1 + sqrt(1 - 4x))
    "central_binomial": (2, 2, 2, 1),           # 1 / sqrt(1 - 4x)
    "delannoy": (3, 4, 3, 2),                   # 1 / sqrt(1 - 6x + x^2)
    "schroder_large": (2, 2, 3, 2),             # 2 / (1 - x + sqrt(1 - 6x + x^2))
    "schroder_little": (1, 2, 3, 2),            # 2 / (1 + x + sqrt(1 - 6x + x^2))
}

NAMED_GF_NAMES = tuple(sorted(_NAMED))

#: kind -> (fields, map from the field values to the weights (p, q, s, t)
#: whose column 0 the kind generates)
_KINDS = {
    "closed_form": (("p", "q", "s", "t"), lambda p, q, s, t: (p, q, s, t)),
    "tied_q": (("p", "s", "t"), lambda p, s, t: (p, t, s, t)),
    "tied_qp": (("s", "t"), lambda s, t: (s, t, s, t)),
    "inverse_sqrt": (("s", "t"), lambda s, t: (s, 2 * t, s, t)),
    "named": (("name",), _NAMED.__getitem__),
}


def _fields(kind) -> tuple[str, ...]:
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValueError(f"unknown generating function kind {kind!r}")
    return _KINDS[kind][0]


class GFSpec(_Value):
    """A column-0 generating function for weights (p, s, s, ...) over
    (q, t, t, ...): a kind and its parameters in the kind's field order.
    The rational kinds take nonnegative rationals; kind "named" takes the
    one name of a classical closed form."""

    _compared = ("kind", "params")

    def __init__(self, kind: str, params: tuple):
        fields = _fields(kind)
        params = _values(params, "params")
        if len(params) != len(fields):
            raise ValueError(
                f"generating function kind {kind!r} needs fields {', '.join(fields)}"
            )
        if kind != "named":
            params = nonneg_rats(zip(fields, [as_rat(v) for v in params]))
        elif not isinstance(params[0], str) or params[0] not in _NAMED:
            raise ValueError(
                f"unknown generating function {params[0]!r}; "
                f"choose from {', '.join(NAMED_GF_NAMES)}"
            )
        self.__dict__.update(kind=kind, params=params)


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


def _gf_weights(gf: GFSpec) -> tuple:
    """The weights (p, q, s, t) whose column 0 the spec generates."""
    return _KINDS[_spec(gf).kind][1](*gf.params)


def _gf_ints(gf: GFSpec, order: int) -> list[tuple[int, int]]:
    """gf_expand's coefficients as unreduced (num, L**k) int pairs."""
    return _constant_tail_pairs(*_gf_weights(gf), order)


def gf_expand(gf: GFSpec, order: int = DEFAULT_ORDER) -> tuple[Fraction, ...]:
    """The coefficients of x^0..x^order of a generating function spec."""
    if order < 0:
        raise ValueError("order must be >= 0")
    return tuple(starmap(_over, _gf_ints(gf, order)))


def riordan_column_check(p, q, s, t, order: int = DEFAULT_ORDER, k_max: int = 5) -> str:
    """TRUE when columns 0..k_max of the recursive matrix of (p, s, s, ...)
    over (q, t, t, ...), run on integer rows, match x**k * h**k * d to the
    given order, where d = 1 / (1 - p*x - q*x**2*h) and h = 1 + s*x*h +
    t*x**2*h**2 is the series of the tied_qp row (s, t, s, t), which never
    divides by t.  Column 0 times d's denominator must be 1, and each later
    column x * h times the one before.  Cell (n, k) is row[k] / L**n, and
    h_j = H_j / L_h**j with L_h dividing L, so both sides are ints over
    L**n: x * h times a column c is sum_j H_j (L / L_h)**j L c_(n-1-j)."""
    from .recursive import _scaled_rows

    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    if order < 0:
        raise ValueError("order must be >= 0")
    p, q, s, t = map(as_rat, (p, q, s, t))
    (p_int, q_int, s_int, t_int), scale = _scaled_ints([p, q, s, t])   # L of the rows
    h, h_scale = _constant_tail_ints(s, t, s, t, order)
    lifted = list(map(mul, h, accumulate([scale, *[scale // h_scale] * order], mul)))

    def times_xh(column: list[int]) -> list[int]:
        return [sum(map(mul, lifted[:n], column[n - 1::-1])) for n in range(order + 1)]

    rows = [row for row, _ in _scaled_rows([p_int, *[s_int] * order],
                                           [q_int, *[t_int] * order], scale, order)]
    column = [row[0] for row in rows]
    expected = [1, *(p_int * v + q_int * w for v, w in zip(column, times_xh(column)))]
    if column != expected[:order + 1]:
        return FALSE
    for k in range(1, k_max + 1):
        previous, column = column, [row[k] if k < len(row) else 0 for row in rows]
        if column != times_xh(previous):
            return FALSE
    return TRUE

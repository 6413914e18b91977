"""Tests for the generating function layer: every kind of spec, the named
forms and the Riordan check run on one int kernel, the closed form's
recurrence (_constant_tail_ints) on the weights (p, q, s, t) each kind
stands for.  Each kind is checked against its literal formula on the
schoolbook kernels (oracle.LITERAL_FORMS), against the recurrence's
triangle, and the Riordan check against its Fraction form and by refuting
any one raised cell of the columns it compares; the kernel's exact
divisions are checked, on ints and on Decimals, and so is that it divides
its data by their content.  Both of its lifts are compared with the triangle
on random signed pairs.  The decimal route of wide integral pairs prints
what the int route prints, is taken where the path bound says, and does not
read the thread's default context."""

import contextlib
import io
import json
import math
import random
from decimal import Context, Decimal, getcontext, localcontext, setcontext
from fractions import Fraction
from itertools import product, starmap

import pytest
from hypothesis import assume, given, settings, strategies as st

from catmoments.recursive import catalan_like
from catmoments.seqspec import SequenceSpec, catalog_lookup, pqst_of
from catmoments.series import (
    DEFAULT_ORDER,
    NAMED_GF_NAMES,
    GFSpec,
    _KINDS,
    _constant_tail_ints,
    _constant_tail_pairs,
    _constant_tail,
    _constant_tail_strs,
    _exact_div,
    _gf_ints,
    _quadratic_quotient,
    gf_expand,
    gf_from_json,
    gf_to_json,
    riordan_column_check,
)
import catmoments.recursive
import catmoments.series
from catmoments.cli import main
from catmoments.exact import EXACT, FALSE, TRUE, _decimal_str, _int_str, format_over, format_rat
from oracle import (
    LITERAL_FORMS,
    fraction_divide,
    fraction_mul,
    fraction_radical_quotient,
    fraction_riordan_check,
    fraction_sqrt,
    iterated_solve_h,
    solve_d,
)
from test_golden_cli import GOLDEN, run_digest
from test_golden_cli import cases as golden_cases

# small denominators, and pairwise coprime primes of 31, 32 and 61 bits
DENOMINATORS = (1, 2, 3, 7, 1_073_741_827, 4_294_967_291, 2**61 - 1)
coefficients = st.one_of(
    st.integers(-5, 5).map(Fraction),
    st.builds(Fraction, st.integers(-10**12, 10**12), st.sampled_from(DENOMINATORS)),
)
maybe_zero = st.just(Fraction(0)) | coefficients
orders = st.one_of(st.sampled_from((0, 1, 40)), st.integers(0, 12))
# nonnegative weights, as GFSpec takes them
weights = st.builds(Fraction, st.integers(0, 6), st.integers(1, 3))


def _random_rat(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def expand_pqst(p, q, s, t, order):
    """The one kernel's expansion of the weights (p, s, s, ...) over
    (q, t, t, ...), any rationals, as Fractions."""
    return tuple(starmap(Fraction, _constant_tail_pairs(p, q, s, t, order)))


def expand(kind, *params, order):
    """A kind's expansion at any rational fields, negative ones included,
    which GFSpec refuses: the one kernel on the kind's weights."""
    return expand_pqst(*_KINDS[kind][1](*params), order)


def gf(kind, *params):
    return GFSpec(kind, params)


def test_series_basics():
    # gf_expand gives the coefficients of x^0..x^order as a tuple of Fractions
    f = gf_expand(gf("named", "catalan"), 2)
    assert f == (1, 1, 2) and all(type(c) is Fraction for c in f)
    assert len(gf_expand(gf("named", "catalan"))) == DEFAULT_ORDER + 1
    assert f == gf_expand(gf("tied_q", "1", "2", "1"), 2)
    assert hash(f) == hash(gf_expand(gf("named", "catalan"), 2))


def test_series_is_immutable():
    f = gf_expand(gf("tied_qp", 2, 1), 3)
    with pytest.raises(TypeError):
        f[0] = 3


def test_series_rejects_bad_input():
    # the kernel takes no negative order and no float weight
    with pytest.raises(ValueError):
        gf_expand(gf("named", "catalan"), -1)
    with pytest.raises(ValueError, match="refusing float 0.5"):
        _constant_tail_ints(0.5, 1, 2, 1, 3)


def test_geometric_series_division():
    # t = 0 leaves no root: (1 - s x) / (1 - (p + s) x + (p s - q) x^2)
    assert expand_pqst(1, 0, 5, 0, 8) == (1,) * 9
    assert expand_pqst(Fraction(3, 2), 0, 7, 0, 4) == tuple(Fraction(3, 2) ** k for k in range(5))
    assert expand_pqst(1, 1, 0, 0, 9) == (1, 1, 2, 3, 5, 8, 13, 21, 34, 55)


def test_division_requires_nonzero_constant_term():
    # each term divides by g0, so a zero g0 raises rather than return a floor;
    # the kernel drops Q's zero low coefficients first (test_radical_quotient_pitfalls)
    with pytest.raises(ZeroDivisionError):
        _quadratic_quotient([1, 0, 0], 0, 1, 1, 3)


def test_multiply_divide_round_trip():
    # the expansion times its literal denominator a0 + a1 x + e sqrt(P) gives back c
    rng = random.Random(404)
    for _ in range(20):
        p, q, s, t = (_random_rat(rng) for _ in range(4))
        t = t or Fraction(1)                # the literal general form divides by 2t
        c, a0, a1, e, r1, r2 = LITERAL_FORMS["closed_form"](p, q, s, t)
        root = fraction_sqrt([Fraction(1), r1, r2, *[Fraction(0)] * 6])
        denom = [a + e * y for a, y in zip([a0, a1, *[0] * 7], root)]
        assert fraction_mul(list(expand_pqst(p, q, s, t, 8)), denom) == [c, *[0] * 8]


def test_sqrt_round_trip_and_known_expansion():
    # 1 / sqrt(1 - 4x): the central binomial coefficients
    assert expand("inverse_sqrt", 2, 1, order=5) == (1, 2, 6, 20, 70, 252)
    rng = random.Random(11)
    for _ in range(20):
        s, t = _random_rat(rng), _random_rat(rng)
        g = list(expand("inverse_sqrt", s, t, order=8))
        radicand = [Fraction(1), -2 * s, s * s - 4 * t, *[Fraction(0)] * 6]
        assert fraction_mul(fraction_mul(g, g), radicand) == [1] + [0] * 8


def riordan_h(s, t, order):
    """The h riordan_column_check expands, h = 1 + s*x*h + t*x**2*h**2: the
    tied_qp row, which takes any rational s and t."""
    return expand("tied_qp", s, t, order=order)


def test_solve_d_trivial_and_classical():
    h = riordan_h(3, 2, 4)
    assert solve_d(0, 0, h) == [1, 0, 0, 0, 0]
    assert solve_d(2, 0, [1, 0, 0, 0, 0]) == [1, 2, 4, 8, 16]
    assert solve_d(3, 4, h) == [1, 3, 13, 63, 321]
    # order 0: d = 1 whatever p, q and h
    assert solve_d(Fraction(-2, 3), 5, [7]) == [1]


def test_closed_form_h_known_expansions():
    assert riordan_h(2, 1, 4) == (1, 2, 5, 14, 42)
    assert riordan_h(3, 2, 4) == (1, 3, 11, 45, 197)
    # s = 0 aerates: odd coefficients vanish
    assert riordan_h(0, 1, 6) == (1, 0, 1, 0, 2, 0, 5)
    # t = 0 is the geometric series 1 / (1 - s*x), with no division by t
    assert riordan_h(3, 0, 4) == (1, 3, 9, 27, 81)
    assert riordan_h(Fraction(-1, 2), 0, 3) == (1, Fraction(-1, 2), Fraction(1, 4),
                                                       Fraction(-1, 8))


@settings(max_examples=40, deadline=None)
@given(weights, weights.map(lambda t: t + Fraction(1, 3)),
       st.one_of(st.sampled_from((0, 1, 16)), st.integers(2, 10)))
def test_closed_form_h_matches_fixed_point_solver(s, t, order):
    # nonnegative weights with t > 0, as GFSpec takes them: the radical route
    assert list(riordan_h(s, t, order)) == iterated_solve_h([1, s, t], order)


@settings(max_examples=40, deadline=None)
@given(coefficients, coefficients,
       st.one_of(st.sampled_from((0, 1, 16)), st.integers(2, 10)), st.booleans())
def test_solve_h_matches_iteration(s, t, order, t_zero):
    # h = A(x*h) for A = (1, s, t) with any rational s and t
    if t_zero:                  # A = (1, s, 0): the t = 0 geometric route
        t = Fraction(0)
    assert list(riordan_h(s, t, order)) == iterated_solve_h([1, s, t], order)


def test_solve_h_matches_iteration_at_order_40():
    for s, t in ((2, 1), (Fraction(-5, 7), 0), (Fraction(1, 3), Fraction(-2, 11))):
        assert list(riordan_h(s, t, 40)) == iterated_solve_h([1, s, t], 40)


@settings(max_examples=40, deadline=None)
@given(weights, weights, weights, weights.map(lambda t: t + Fraction(1, 3)),
       st.sampled_from((0, 1, 16)) | st.integers(2, 10))
def test_closed_form_d_matches_fixed_point_solver(p, q, s, t, order):
    h = riordan_h(s, t, order)
    assert list(gf_expand(gf("closed_form", p, q, s, t), order)) == solve_d(p, q, h)


@settings(max_examples=60, deadline=None)
@given(maybe_zero, maybe_zero, st.one_of(
    orders.flatmap(lambda n: st.lists(coefficients, min_size=n + 1, max_size=n + 1)),
    st.builds(lambda *args: list(riordan_h(*args)), coefficients, maybe_zero, orders)))
def test_solve_d_matches_fraction_kernels(p, q, h):
    # the reference d = 1 / (1 - p*x - q*x**2*h), with p, q and the t of the
    # Riordan check's h drawn 0 too: d times its denominator is 1 on the
    # schoolbook product
    order = len(h) - 1
    one = [Fraction(1)] + [Fraction(0)] * order
    x2h = [Fraction(0), Fraction(0), *h][:order + 1]
    denom = [c - p * int(k == 1) - q * y for k, (c, y) in enumerate(zip(one, x2h))]
    d = solve_d(p, q, h)
    assert d == fraction_divide(one, denom)
    assert fraction_mul(d, denom) == one


#: the weights each rational kind takes, in its field order
KIND_ARGS = {
    "closed_form": lambda p, q, s, t: (p, q, s, t),
    "tied_q": lambda p, q, s, t: (p, s, t),
    "tied_qp": lambda p, q, s, t: (s, t),
    "inverse_sqrt": lambda p, q, s, t: (s, t),
}


@settings(max_examples=60, deadline=None)
@given(st.lists(maybe_zero, min_size=4, max_size=4),
       st.sampled_from((0, 1, 2, 7)) | st.integers(0, 40))
def test_radical_quotient_matches_fraction_kernels(pqst, order):
    # the kernel at any rational weights, zeros and wide denominators
    # included, against the general literal formula, which divides by 2t
    p, q, s, t = pqst
    t = t or Fraction(1)
    assert list(expand_pqst(p, q, s, t, order)) == \
        fraction_radical_quotient(*LITERAL_FORMS["closed_form"](p, q, s, t), order)


@settings(max_examples=40, deadline=None)
@given(st.lists(coefficients.map(abs), min_size=4, max_size=4), st.booleans(),
       st.sampled_from((0, 1, 2, 40)) | st.integers(0, 40))
def test_radical_quotient_matches_fraction_kernels_on_every_kind(pqst, t_zero, order):
    # gf_expand of every kind and every named form against its literal
    # formula on the schoolbook kernels, t = 0 for the three specializations
    # (tied_qp's literal Q = 0 there); the general literal divides by 2t
    p, q, s, t = pqst
    t = t or Fraction(1)
    t_special = Fraction(0) if t_zero else t
    specs = [("named", (name,)) for name in NAMED_GF_NAMES]
    specs += [(kind, weights_of(p, q, s, t if kind == "closed_form" else t_special))
              for kind, weights_of in KIND_ARGS.items()]
    for kind, params in specs:
        assert list(gf_expand(GFSpec(kind, params), order)) == \
            fraction_radical_quotient(*LITERAL_FORMS[kind](*params), order), (kind, params)


def test_radical_quotient_pitfalls():
    # t = 0: no root, where tied_qp's literal Q = A^2 - e^2 P is 0
    assert gf_expand(gf("tied_qp", 3, 0), 5) == (1, 3, 9, 27, 81, 243)
    # Q's zero low coefficients: one at q = t (catalan's Q = 4x), two when also p = s
    assert gf_expand(gf("named", "catalan"), 9) == (1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862)
    for pqst in ((1, 2, 3, 2), (3, 2, 3, 2), (Fraction(-1, 2), 3, Fraction(-1, 2), 3)):
        for order in range(8):
            assert list(expand_pqst(*pqst, order)) == \
                fraction_radical_quotient(*LITERAL_FORMS["closed_form"](*pqst), order)


def test_named_forms_match_the_recurrence_at_order_300():
    for name in NAMED_GF_NAMES:
        entry = catalog_lookup(name)
        assert list(gf_expand(entry.gf, 300)) == catalan_like(entry.sigma, entry.tau, 300), name


def test_specializations_reduce_to_general_form():
    rng = random.Random(31337)
    for _ in range(10):
        p = Fraction(rng.randint(0, 4), rng.randint(1, 2))
        s = Fraction(rng.randint(0, 4), rng.randint(1, 2))
        t = Fraction(rng.randint(1, 4), rng.randint(1, 2))
        assert gf_expand(gf("tied_q", p, s, t)) == gf_expand(gf("closed_form", p, t, s, t))
        assert gf_expand(gf("tied_qp", s, t)) == gf_expand(gf("closed_form", s, t, s, t))
        assert gf_expand(gf("inverse_sqrt", s, t)) == \
            gf_expand(gf("closed_form", s, 2 * t, s, t))


#: each JSON kind's fields, and the column-0 weights (p, q, s, t) it stands for
KIND_WEIGHTS = {
    "closed_form": ("pqst", lambda p, q, s, t: (p, q, s, t)),
    "tied_q": ("pst", lambda p, s, t: (p, t, s, t)),
    "tied_qp": ("st", lambda s, t: (s, t, s, t)),
    "inverse_sqrt": ("st", lambda s, t: (s, 2 * t, s, t)),
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(KIND_WEIGHTS)), st.lists(weights, min_size=4, max_size=4),
       st.sampled_from((0, 1, 9)) | st.integers(0, 6))
def test_every_kind_matches_the_recurrence(kind, values, order):
    fields, weights_of = KIND_WEIGHTS[kind]
    params = dict(zip(fields, values))
    p, q, s, t = weights_of(**params)
    sigma = SequenceSpec.first_then_constant(p, s, start=0)
    tau = SequenceSpec.first_then_constant(q, t, start=1)
    expansion = gf_expand(GFSpec(kind, tuple(params.values())), order)
    assert list(expansion) == catalan_like(sigma, tau, order)


def test_specializations_expand_t0_to_a_geometric_series():
    assert gf_expand(gf("tied_q", 1, 3, 0), 4) == (1, 1, 1, 1, 1)
    assert gf_expand(gf("tied_qp", 2, 0), 4) == (1, 2, 4, 8, 16)
    assert gf_expand(gf("inverse_sqrt", 3, 0), 4) == (1, 3, 9, 27, 81)
    # the general form at t = 0 too: (1 - 3x) / (1 - 4x + x^2), no root
    assert gf_expand(gf("closed_form", 1, 2, 3, 0), 4) == (1, 1, 3, 11, 41)


@pytest.mark.parametrize("params", ["32", b"32"])
def test_string_params_are_refused(params):
    # iterated, "32" would be the tied_qp row s = 3, t = 2
    with pytest.raises(ValueError, match="^params must be a sequence of values, not a "):
        GFSpec("tied_qp", params)
    assert gf_expand(GFSpec("tied_qp", ["3", "2"]), 3) == (1, 3, 11, 45)


def test_gf_rejects_negative_parameters():
    with pytest.raises(ValueError, match="q must be nonnegative, got -1"):
        gf("closed_form", 1, -1, 2, 1)
    with pytest.raises(ValueError, match="s must be nonnegative"):
        gf("tied_qp", -2, 1)
    # every field is parsed before the first negative one is refused
    with pytest.raises(ValueError, match="not a rational: 'x'"):
        gf("tied_q", -1, "x", 1)
    with pytest.raises(ValueError, match="unknown generating function 'fibonacci'"):
        gf("named", "fibonacci")
    with pytest.raises(ValueError, match="unknown generating function kind 'polynomial'"):
        gf("polynomial", 1)
    with pytest.raises(ValueError, match="'tied_qp' needs fields s, t"):
        gf("tied_qp", 1)
    with pytest.raises(ValueError, match="'named' needs fields name"):
        gf("named")
    with pytest.raises(ValueError):
        gf("inverse_sqrt", 0.5, 1)


def test_named_forms_match_parameter_reductions_and_catalog():
    for name in NAMED_GF_NAMES:
        # the literal formula against the general one at the catalog weights
        entry = catalog_lookup(name)
        literal = gf_expand(gf("named", name), 16)
        assert entry.gf == gf("named", name)
        assert literal == gf_expand(GFSpec("closed_form", pqst_of(entry.sigma, entry.tau)), 16)
        assert literal[:8] == entry.reference_terms, name


def test_tied_qp_at_catalan_weights_is_the_shifted_sequence():
    # the q = t, p = s reduction at (s, t) = (2, 1) has column-0 weights
    # (2, 2, ...), so it generates 1, 2, 5, 14, ... -- one shift away from
    # the named catalan form, whose weights are (1, 2, 2, ...)
    assert gf_expand(gf("tied_qp", 2, 1), 5) == (1, 2, 5, 14, 42, 132)
    assert gf_expand(gf("named", "catalan"), 5) == gf_expand(gf("tied_q", 1, 2, 1), 5)
    assert gf_expand(gf("named", "catalan"), 5) == (1, 1, 2, 5, 14, 42)


def test_gf_json_round_trip():
    forms = [
        gf("closed_form", 1, Fraction(1, 2), 2, 1),
        gf("tied_q", 1, 2, 1),
        gf("tied_qp", 3, 2),
        gf("inverse_sqrt", 2, 1),
        gf("named", "schroder_large"),
    ]
    for spec in forms:
        assert gf_from_json(gf_to_json(spec)) == spec
    assert gf_to_json(gf("tied_qp", 3, 2)) == {"kind": "tied_qp", "s": "3", "t": "2"}
    assert gf_to_json(gf("tied_q", "1/2", 2, 1)) == {"kind": "tied_q", "p": "1/2", "s": "2",
                                                      "t": "1"}
    assert gf_to_json(gf("named", "catalan")) == {"kind": "named", "name": "catalan"}
    assert gf("tied_qp", "3", 2) == gf("tied_qp", 3, Fraction(2))


def test_gf_json_rejects_malformed_input():
    with pytest.raises(ValueError):
        gf_from_json({"s": "1"})
    with pytest.raises(ValueError, match="unknown generating function kind"):
        gf_from_json({"kind": "polynomial"})
    with pytest.raises(ValueError, match="needs fields s, t"):
        gf_from_json({"kind": "tied_qp", "s": "1"})
    with pytest.raises(ValueError, match="needs a 'name' field"):
        gf_from_json({"kind": "named"})
    with pytest.raises(ValueError, match="unknown generating function 'motzkin'"):
        gf_from_json({"kind": "named", "name": "motzkin"})
    with pytest.raises(ValueError, match="tied_qp generating function JSON has unknown fields: p"):
        gf_from_json({"kind": "tied_qp", "s": "3", "t": "2", "p": "5"})
    with pytest.raises(ValueError, match="named generating function JSON has unknown fields: s"):
        gf_from_json({"kind": "named", "name": "catalan", "s": "1"})
    with pytest.raises(ValueError):
        gf_to_json(object())


def test_gf_expand_dispatch():
    assert len(gf_expand(gf("named", "catalan"))) == DEFAULT_ORDER + 1
    assert gf_expand(gf("tied_q", 2, 3, 2), 4) == (1, 2, 6, 22, 90)
    with pytest.raises(ValueError):
        gf_expand(gf("named", "catalan"), -1)
    with pytest.raises(ValueError):
        gf_expand("catalan")


# nonnegative weights over small and wide denominators
wide_weights = st.one_of(weights, st.builds(Fraction, st.integers(0, 10**12),
                                            st.sampled_from(DENOMINATORS)))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([*KIND_WEIGHTS, "named"]), st.lists(wide_weights, min_size=4, max_size=4),
       st.sampled_from(NAMED_GF_NAMES), orders)
def test_series_command_prints_gf_expand(kind, values, name, order):
    # series prints the kernel's ints over the powers of L
    params = (name,) if kind == "named" else tuple(values[:len(KIND_WEIGHTS[kind][0])])
    spec = GFSpec(kind, params)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["series", "--gf", json.dumps(gf_to_json(spec)), "-n", str(order),
                     "--format", "json"]) == 0
    assert json.loads(out.getvalue())["coeffs"] == [format_rat(c)
                                                    for c in gf_expand(spec, order)]


def test_riordan_columns_match_recurrence():
    for name in NAMED_GF_NAMES:
        entry = catalog_lookup(name)
        p, q, s, t = pqst_of(entry.sigma, entry.tau)
        assert riordan_column_check(p, q, s, t, order=10, k_max=10) == TRUE, name
    # a degenerate subdiagonal takes the same route
    assert riordan_column_check(1, 1, 1, 0, order=8, k_max=8) == TRUE


@settings(max_examples=40, deadline=None)
@given(coefficients, coefficients, coefficients, st.just(Fraction(0)) | coefficients,
       st.integers(0, 10), st.integers(0, 6))
def test_riordan_column_check_holds_on_random_rational_weights(p, q, s, t, order, k_max):
    # negative weights, and t = 0, where h is the geometric series 1 / (1 - s x)
    assert riordan_column_check(p, q, s, t, order=order, k_max=k_max) == TRUE


def test_gf_expand_refuses_a_negative_order_by_its_name():
    with pytest.raises(ValueError, match="^order must be >= 0$"):
        gf_expand(GFSpec("named", ("catalan",)), -1)


def test_riordan_column_check_refuses_negative_order_and_k_max():
    # a negative k_max would compare no column and still answer TRUE
    with pytest.raises(ValueError, match="k_max must be >= 0"):
        riordan_column_check(1, 1, 1, 1, order=4, k_max=-1)
    for t in (0, 1):
        with pytest.raises(ValueError, match="order must be >= 0"):
            riordan_column_check(1, 1, 1, t, order=-1)


@settings(max_examples=60, deadline=None)
@given(maybe_zero, maybe_zero, maybe_zero, maybe_zero, st.booleans(),
       st.sampled_from((0, 1, 3)) | st.integers(0, 8), st.integers(0, 6))
def test_riordan_column_check_matches_fraction_kernels(p, q, s, t, t_zero, order, k_max):
    # orders 0 and 1, and k_max past the order, whose columns are all zero;
    # h comes from the tied_qp row at every t, and t = 0 on half the draws
    t = Fraction(0) if t_zero else t
    assert riordan_column_check(p, q, s, t, order=order, k_max=k_max) == \
        fraction_riordan_check(p, q, s, t, order, k_max) == TRUE


@pytest.mark.parametrize("order", [0, 1, 4])
def test_riordan_column_check_compares_column_0_at_every_order(monkeypatch, order):
    # the last cell of column 0 off by one: row `order` of the recurrence
    real = catmoments.recursive._scaled_rows

    def last_cell_of_column_0_off_by_one(*args):
        rows = list(real(*args))
        row, den = rows[-1]
        return iter([*rows[:-1], ([row[0] + 1, *row[1:]], den)])

    assert riordan_column_check(1, 2, 3, 4, order=order, k_max=order + 2) == TRUE
    monkeypatch.setattr(catmoments.recursive, "_scaled_rows", last_cell_of_column_0_off_by_one)
    assert riordan_column_check(1, 2, 3, 4, order=order, k_max=order + 2) == FALSE


@pytest.mark.parametrize("name", NAMED_GF_NAMES)
def test_radical_quotient_ints_are_its_coefficients_over_running_denominators(name):
    # the running denominators are the powers of L; integral weights: L = 1
    pairs = _gf_ints(gf("named", name), 12)
    assert list(starmap(Fraction, pairs)) == list(gf_expand(gf("named", name), 12))
    assert [den for _, den in pairs] == [1] * 13
    # (p, q, s, t) = (1/2, 2/3, 5/3, 1/3): L = 6, and term k is over 6**k
    rational = gf("closed_form", "1/2", "2/3", "5/3", "1/3")
    pairs = _gf_ints(rational, 12)
    assert [den for _, den in pairs] == [6**k for k in range(13)]
    assert list(starmap(Fraction, pairs)) == \
        fraction_radical_quotient(*LITERAL_FORMS["closed_form"](*rational.params), 12)


@contextlib.contextmanager
def one_cell_raised(n: int, k: int):
    """The recurrence's rows, as riordan_column_check reads them, with cell
    (n, k) raised by one."""
    real = catmoments.recursive._scaled_rows

    def mutated(*args):
        rows = list(real(*args))
        row, den = rows[n]
        rows[n] = ([*row[:k], row[k] + 1, *row[k + 1:]], den)
        return iter(rows)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(catmoments.recursive, "_scaled_rows", mutated)
        yield


@settings(max_examples=60, deadline=None)
@given(coefficients, coefficients, coefficients, maybe_zero, st.integers(0, 10), st.data())
def test_riordan_column_check_refutes_one_mutated_cell(p, q, s, t, order, data):
    k_max = data.draw(st.integers(0, order))
    k = data.draw(st.integers(0, k_max))
    n = data.draw(st.integers(k, order))
    assert riordan_column_check(p, q, s, t, order=order, k_max=k_max) == TRUE
    with one_cell_raised(n, k):
        assert riordan_column_check(p, q, s, t, order=order, k_max=k_max) == FALSE


@settings(max_examples=60, deadline=None)
@given(coefficients, maybe_zero, orders)
def test_sqrt_matches_fraction_kernel(r1, r2, order):
    # 1 / sqrt(1 + r1 x + r2 x^2): inverse_sqrt at s = -r1/2, t = (s^2 - r2)/4
    s = -r1 / 2
    radicand = [Fraction(1), r1, r2, *[Fraction(0)] * order][:order + 1]
    one = [Fraction(1)] + [Fraction(0)] * order
    assert list(expand("inverse_sqrt", s, (s * s - r2) / 4, order=order)) == \
        fraction_divide(one, fraction_sqrt(radicand))


def test_quadratic_quotient_raises_on_a_remainder():
    # 1 / (1 - x - x^2): the Fibonacci numbers; with g0 = 2 the first
    # division leaves a remainder, which a floor would hide as 0
    assert _quadratic_quotient([1, *[0] * 9], 1, -1, -1, 10) == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    with pytest.raises(ArithmeticError):
        _quadratic_quotient([1, *[0] * 9], 2, -1, -1, 10)


def test_constant_tail_ints_raise_on_a_wrong_g0(monkeypatch):
    original = catmoments.series._quadratic_quotient
    monkeypatch.setattr(catmoments.series, "_quadratic_quotient",
                        lambda num, g0, g1, g2, count: original(num, g0 + 1, g1, g2, count))
    with pytest.raises(ArithmeticError):
        _constant_tail_ints(1, 1, 2, 1, 10)


def test_constant_tail_ints_refuse_a_negative_n():
    with pytest.raises(ValueError, match="^n must be >= 0$"):
        _constant_tail_ints(1, 1, 2, 1, -1)


# integral weights of either sign, small (zeros and cancellations) or wide
integral = st.one_of(st.integers(-3, 3), st.integers(-10**40, 10**40))


@st.composite
def weight_pairs(draw, values):
    """(p, q, s, t) drawn from values, with t = 0, q = t or q = t and p = s
    (the shifts of the quotient) drawn often."""
    p, q, s, t = (draw(values) for _ in range(4))
    tie = draw(st.sampled_from(("none", "t = 0", "q = t", "q = t, p = s")))
    t = 0 if tie == "t = 0" else t
    return (s if tie == "q = t, p = s" else p), (q if tie == "none" else t), s, t


def test_exact_context_holds_wide_ints_and_traps_a_rounding():
    with localcontext(EXACT) as context:
        wide = context.create_decimal(3**20000)
        assert str(wide * 7 - 1) == _int_str(7 * 3**20000 - 1)
        with pytest.raises(ArithmeticError):
            context.create_decimal("2.5").to_integral_exact()


def test_exact_div_refuses_a_remainder_on_decimals():
    # divmod on Decimals truncates toward 0: -7 / 2 would be -3; and an int
    # past the digit limit is refused as such, not by failing to print
    with pytest.raises(ArithmeticError):
        _exact_div(10**5000 + 1, 10)
    with localcontext(EXACT) as context:
        assert _exact_div(context.create_decimal(-12), 4) == -3
        for num, den in ((7, 2), (-7, 2), (7, -2)):
            with pytest.raises(ArithmeticError):
                _exact_div(context.create_decimal(num), context.create_decimal(den))


def test_decimal_str_prints_a_negative_zero_as_zero():
    assert [_decimal_str(Decimal(v)) for v in ("-0", "0", "-12", "12")] == ["0", "0", "-12", "12"]


def _decimal_strs(p, q, s, t, n):
    """The decimal route, forced: terms 0..n of an integral pair as printed."""
    with localcontext(EXACT) as context:
        return list(map(_decimal_str, _constant_tail(p, q, s, t, 1, n, context.create_decimal)))


def _triangle(p, q, s, t, n):
    """Terms 0..n of (p, s, s, ...) over (q, t, t, ...) on the recursive
    matrix's triangle, the route independent of the closed form."""
    return catalan_like(SequenceSpec.first_then_constant(p, s, start=0),
                        SequenceSpec.first_then_constant(q, t, start=1), n)


@settings(max_examples=200, deadline=None)
@given(weight_pairs(integral), st.integers(0, 40))
def test_decimal_route_prints_the_int_route(pqst, n):
    # both lifts against the triangle: a wrong reduction of the data that
    # both share fails too
    terms = _triangle(*pqst, n)
    assert _constant_tail_ints(*pqst, n) == (terms, 1)
    assert _decimal_strs(*pqst, n) == list(map(str, terms))


def test_decimal_route_prints_the_int_route_on_a_small_box():
    # every (p, q, s, t) in {-3..3}**4 at n = 8: zero terms of either sign
    for pqst in product(range(-3, 4), repeat=4):
        terms = list(map(str, _triangle(*pqst, 8)))
        assert _decimal_strs(*pqst, 8) == terms, pqst
        assert list(map(str, _constant_tail_ints(*pqst, 8)[0])) == terms, pqst


@settings(max_examples=150, deadline=None)
@given(weight_pairs(maybe_zero), st.integers(0, 30))
def test_constant_tail_matches_the_triangle_on_rational_pairs(pqst, n):
    nums, scale = _constant_tail_ints(*pqst, n)
    assume(scale > 1)
    assert [Fraction(v, scale**k) for k, v in enumerate(nums)] == _triangle(*pqst, n)


@contextlib.contextmanager
def recorded_quotients():
    """The arguments of every _quadratic_quotient call made inside."""
    calls, original = [], catmoments.series._quadratic_quotient
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(catmoments.series, "_quadratic_quotient",
                      lambda *args: calls.append(args) or original(*args))
        yield calls


@settings(max_examples=200, deadline=None)
@given(st.tuples(integral, integral, integral, integral), st.sampled_from(DENOMINATORS))
def test_constant_tail_divides_its_data_by_their_content(pqst, scale):
    # at t != 0 and q != t (shift 0) the numerator num_k = ca0 + ca1 x -
    # ce y_k, y = sqrt((1 - s x)**2 - 4 t L x**2) = 1 - s x - 2 t L x**2 + ...,
    # gives back ce, ca0 and ca1; unreduced, 2t divides all of them and the
    # quadratic
    p, q, s, t = pqst
    assume(t != 0 and q != t)
    with recorded_quotients() as calls:
        _constant_tail(p, q, s, t, scale, 2, int)
    [(num, g0, g1, g2, _)] = calls
    ce, remainder = divmod(num[2], 2 * t * scale)
    assert remainder == 0
    assert math.gcd(g0, g1, g2, num[0] + ce, num[1] - ce * s) == 1


@pytest.mark.parametrize("tie", ["q = t", "none", "q = t, p = s"])
def test_constant_tail_divides_by_at_most_258_bits_on_256_bit_weights(tie):
    # unreduced, the divisor is G_1 = 4t^2 (s - p) at q = t (about 770 bits),
    # G_0 = 4t(t - q) otherwise (514) and G_2 = 4t^3 L at p = s (770)
    rng = random.Random(tie)
    for _ in range(5):
        p, q, s, t = (rng.getrandbits(256) for _ in range(4))
        q = t if tie != "none" else q
        p = s if tie == "q = t, p = s" else p
        with recorded_quotients() as calls:
            _constant_tail_strs(p, q, s, t, 70)
        [(_, divisor, *_)] = calls
        assert 0 < abs(int(divisor)).bit_length() <= 258


@pytest.mark.parametrize("weights, n, wide", [
    ((1, 1, 2, 1), 996, False),        # catalan: bound 4, 4**996 = 2**1992 < 10**600
    ((1, 1, 2, 1), 997, True),         # 4**997 = 2**1994 > 10**600
    ((Fraction(1, 2), 1, 2, 1), 1000, False),   # over L = 2: always the ints
    ((-2**70, 0, 2**70, -1), 29, True),         # bound 2**70 + 2, 70 * 29 = 2030 bits
    ((-2**70, 0, 2**70, -1), 28, False),        # 70 * 28 = 1960 bits
])
def test_constant_tail_strs_choose_the_decimal_route_by_the_path_bound(monkeypatch, weights,
                                                                       n, wide):
    calls = []
    monkeypatch.setattr(catmoments.series, "_decimal_str",
                        lambda value: calls.append(value) or _decimal_str(value))
    nums, scale = _constant_tail_ints(*weights, n)
    assert _constant_tail_strs(*weights, n) == [format_over(v, scale**k)
                                                for k, v in enumerate(nums)]
    assert bool(calls) == wide


def test_decimal_route_ignores_the_default_context():
    # a 5-digit default context that rounds silently must change no byte
    argvs = [golden_cases()[case] for case in ("gen-wide256-n70", "series-catalan-n2000")]
    saved = getcontext()
    setcontext(Context(prec=5, traps=[]))
    try:
        digests = [run_digest(argv) for argv in argvs]
    finally:
        setcontext(saved)
    assert [{"argv": argv, **digest} for argv, digest in zip(argvs, digests)] == \
        [GOLDEN["gen-wide256-n70"], GOLDEN["series-catalan-n2000"]]

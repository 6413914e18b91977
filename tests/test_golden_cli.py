"""Golden-output test of the command-line interface.

Each case runs `catmoments.cli.main(argv)` in-process and compares the
SHA-256 digests of its stdout and stderr, and its exit code, with the values
frozen in golden_cli.json.  Any change to a single output byte fails.

The cases cover every subcommand: every catalog entry under `gen -n 40`,
`matrix -n 12`, `hankel-det`, `stieltjes`, `verify` and `tp` in every
format, one weight pair with rational prefix and polynomial tails (gen,
matrix, both Hankel families, stieltjes and tp), the same commands on a
pair over different denominators (3 and 5) with a zero t_k and a negative
s_k (tp: its diagonal-entry witness), the matrix of a rational
pair with zero, negative and integral cells, gen on 256-bit constant
weights, integral and rational (terms past the 4,300-digit limit, the
integral ones in every format), on 64-bit constant weights at -n 100, on a
5,000-digit constant sigma, on a wide signed integral pair with a zero term
(text and json), on wide integral pairs whose first sigma differs from the
rest (256-bit with q = t and with q != t, and signed 100- to 200-digit), on
catalan at -n 996 and -n 997, where its path bound 4**n passes 10**600, on a
zero weight and on constant-tail pairs at t = 0, q = 0, q = t, q = t with
p = s and with negative rational weights, both
Hankel families
(also of a weight pair with a zero weight, and factorial's shifted family
at depth 24),
stieltjes on explicit weight pairs (PASS, FAIL in either family, a zero
weight, a witness value over a denominator), on term lists that invert to
weights (m_0 = 3, m_0 = 2/3, rational, factorial) or fall back to
elimination (a zero t_1), on terms whose leading minors are nonnegative
but not all positive (integral, and over a denominator: two negative
principal minors with rational values and the semidefinite sections of
(2/3) delta_1), and at depth 0 (also hankel-det), the (p, q, s, t)
criterion, the contiguous-minor TP route (with its single-entry witnesses),
tp at depth 0, tp on reducible pairs at the --depth cap 2000 (factorial's
weights with t_1 = 0, also at depth 1998, and sigma = tau = (0, 1, 1, ...);
text and json), the dominance route past the first tail index (TRUE at depth
8 and at depth 100, and FALSE at k = 4 past it, where the leading minors
answer; FALSE far past it, on the gap at k = 100 and on t at k = 101, where
the minor routes answer, and TRUE on a gap with a double root at k = 100),
verify on a catalog alias, which names the entry, deep Hankel sections
whose minors of high shift grow large (hexagonal's shifted family at depth
30, bell's plain one at depth 22, factorial's verify at depth 20) and term
lists led by m_0 = 0, with a nonzero and with a zero minor of shift 2,
both Hankel families at depth 20 of sigma = 0, tau = k (every odd term
0) and of a rational pair with polynomial tails, stieltjes on the terms
1/(n+1)^2, whose weights need a far larger denominator than the terms,
and on -1/(n+1)^2 (m_0 < 0), factorial's two families at depth 40 and
bell's verify at depth 30 (large integral minors), factorial's stieltjes
at depth 120 (minors of up to 70,602 bits), stieltjes on 1,1,1,1
at depth 1 (the last leading minor 0), every named and parameterised
generating function (the general form and the three specializations
also at t = 0, the
general form at -n 0, the general form, tied_qp and inverse_sqrt with
every field over a denominator, each named form at -n 400, catalan at
-n 2000, tied_qp with 80-digit fields at -n 300 and tied_q with 256-bit
fields at -n 120), the catalog listing, and the usage-error (exit 2)
path of each command, including one past the -n caps of gen, matrix and
series and the --depth caps of stieltjes, hankel-det, tp and verify,
each mix of weight sources (a name with --sigma, --terms or --pqst with a
weight pair) and a JSON spec, tail or generating function with an unknown
field, and the @path boundary: an unreadable file for gen, stieltjes and
series, and tp --pqst, which reads no file, on a value led by @.
After a deliberate output change, rewrite the file with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import hashlib
import io
import json
import math
import pathlib

from fractions import Fraction

import pytest

from catmoments.cli import main
from catmoments.exact import format_rat
from catmoments.recursive import catalan_like
from catmoments.seqspec import CATALOG_NAMES, SequenceSpec
from catmoments.series import NAMED_GF_NAMES

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_cli.json")

FORMATS = ("text", "json", "csv")

# distinct prime denominators in the prefix and in both polynomial tails
RATIONAL_SIGMA = json.dumps({"prefix": ["1/2", "-3/5"],
                             "tail": {"kind": "polynomial", "coeffs": ["1/3", "2/7"]},
                             "start": 0})
RATIONAL_TAU = json.dumps({"prefix": ["5/11"],
                           "tail": {"kind": "polynomial", "coeffs": ["1", "0", "1/13"]},
                           "start": 1})

# sigma = (2, 1, 1, ...), tau = (1, 1, 0, 1, ...): nonnegative weights whose
# leading minor chain 2, 1, -1, ... refutes total positivity at k = 2
TP_FALSE_SIGMA = json.dumps({"prefix": ["2"], "tail": {"kind": "constant", "value": "1"},
                             "start": 0})
TP_FALSE_TAU = json.dumps({"prefix": ["1", "1", "0"],
                           "tail": {"kind": "constant", "value": "1"}, "start": 1})


def _constant_tail_spec(prefix: list, value: str, start) -> str:
    return json.dumps({"prefix": prefix, "tail": {"kind": "constant", "value": value},
                       "start": start})


# weight pairs that neither dominance nor the leading minor chain decides
# (a zero weight makes J reducible, a negative one refutes by its entry), so
# the minor chains of J's irreducible blocks answer: TRUE at depth 12,
# FALSE with the window 2..4 (value -6) at depth 6, sigma = 12/5,
# tau = (1, 0, 36/25, ...) TRUE at depth 20, a rational pair with
# s_0 = t_1 = 0 whose windows from row 0 are all 0, FALSE with the window
# 1..4 (value -1874/315) at depth 8, and two single-entry witnesses: the
# subdiagonal entry t_2 = -1 (rows [2] cols [1]) at depth 4, and s_1 = -1
# (rows [1] cols [1]) refuting before t_1 = -3 at depth 2
CONTIGUOUS_CASES = {
    "true": (_constant_tail_spec(["3", "2", "5/2"], "3", 0),
             _constant_tail_spec(["2", "1", "0"], "1", 1), "12"),
    "false": (_constant_tail_spec(["0", "2", "3", "3", "0"], "3", 0),
              _constant_tail_spec(["0", "0", "3", "2"], "1", 1), "6"),
    "deep": (_constant_tail_spec([], "12/5", 0),
             _constant_tail_spec(["1", "0"], "36/25", 1), "20"),
    "rational-window": (_constant_tail_spec(["0", "2", "5/2", "2", "1/3"], "7/2", 0),
                        _constant_tail_spec(["0", "1/7", "2/3", "9/5"], "2", 1), "8"),
    "t-entry": (_constant_tail_spec([], "2", 0), _constant_tail_spec(["1", "-1"], "1", 1), "4"),
    "s-entry": (_constant_tail_spec(["1", "-1"], "1", 0), _constant_tail_spec(["-3"], "1", 1),
                "2"),
}

# weight pairs through the stieltjes product route: PASS; FAIL on det0 at
# k = 2 (value -1); FAIL on det1 at k = 1 (value -2); PASS with both
# families 0 from k = 2 on (t_2 = 0); FAIL on det0 at k = 2 with a value
# over a denominator (t = (1/2, -1/3, 1, ...): T_0 T_1 T_2 = -1/12)
STIELTJES_WEIGHT_CASES = {
    "pass": (_constant_tail_spec(["3/2"], "5/2", 0), _constant_tail_spec(["2/3"], "1", 1)),
    "det0-fail": (_constant_tail_spec(["2", "3"], "3", 0),
                  _constant_tail_spec(["1", "-1"], "1", 1)),
    "det1-fail": (_constant_tail_spec(["1", "1"], "3", 0), _constant_tail_spec(["2"], "1", 1)),
    "zero-weight": (_constant_tail_spec(["2", "3"], "3", 0),
                    _constant_tail_spec(["1", "0"], "1", 1)),
    "rational-witness": (_constant_tail_spec([], "3", 0),
                         _constant_tail_spec(["1/2", "-1/3"], "1", 1)),
}

# a rational pair whose matrix cells at -n 8 include zeros (t_3 = 0),
# negatives and integers over a denominator L**n != 1
MATRIX_MIXED_SIGMA = json.dumps({"prefix": ["-1/2", "0"],
                                 "tail": {"kind": "polynomial", "coeffs": ["3/2", "-1/2"]},
                                 "start": 0})
MATRIX_MIXED_TAU = json.dumps({"prefix": ["1/4"],
                               "tail": {"kind": "polynomial", "coeffs": ["-3/2", "1/2"]},
                               "start": 1})

# sigma = (1, 0, 0, ...), tau = 0: dominance fails at k = 1, so tp at
# depth 0 reaches the minor routes
SIGMA_DROP = _constant_tail_spec(["1", "0"], "0", 0)
TAU_ZERO = _constant_tail_spec([], "0", 1)

# 256-bit constant weights: term 70 has over 5,000 digits, past the
# interpreter's 4,300-digit limit on int-to-str conversion; and a rational
# pair of 256-bit numerators over 7 and 3 with distinct first entries,
# whose term 64 has a numerator of over 4,300 digits after reduction
WIDE_SIGMA = _constant_tail_spec([], str(2**256 - 189), 0)
WIDE_TAU = _constant_tail_spec([], str(2**255 + 95), 1)
WIDE_RATIONAL_SIGMA = _constant_tail_spec([str(2**256 - 357)], f"{2**255 + 95}/7", 0)
WIDE_RATIONAL_TAU = _constant_tail_spec([str(2**256 - 189)], f"{2**256 - 5}/3", 1)
# 64-bit constant weights: terms 29 to 100 have 1,800 to 6,400 bits; and a
# 5,000-digit constant sigma, read past the digit limit, with a run of zeros
# inside it
WIDE64_SIGMA = _constant_tail_spec([], str(2**64 - 59), 0)
WIDE64_TAU = _constant_tail_spec([], str(2**63 + 29), 1)
LONG_SIGMA = _constant_tail_spec([], "99" + "0" * 700 + "1234567" * 614, 0)
# a wide signed integral pair, sigma = -3*10**100 and tau = -3*10**200: its
# terms are wide, and m_3 = s**3 + 3*s*t is 0
WIDE_SIGNED_SIGMA = _constant_tail_spec([], str(-3 * 10**100), 0)
WIDE_SIGNED_TAU = _constant_tail_spec([], str(-3 * 10**200), 1)
# wide integral pairs on the decimal route with p != s: sigma =
# (2**256 - 357; 2**256 - 189, ...) over tau = 2**255 + 95 (q = t, the
# benchmark's gen-wide shape) and over tau = (2**256 - 5; 2**255 + 95, ...)
# (the general quotient), and a signed pair with both q != t and p != s
WIDE_FIRST_SIGMA = _constant_tail_spec([str(2**256 - 357)], str(2**256 - 189), 0)
WIDE_FIRST_TAU = _constant_tail_spec([str(2**256 - 5)], str(2**255 + 95), 1)
WIDE_SIGNED_FIRST_SIGMA = _constant_tail_spec([str(-3 * 10**100)], str(5 * 10**99), 0)
WIDE_SIGNED_FIRST_TAU = _constant_tail_spec([str(7 * 10**100)], str(-3 * 10**200), 1)
# tied_qp with 80-digit integral fields (the digits of pi and e)
WIDE_TIED_QP = {"kind": "tied_qp",
                "s": "3141592653589793238462643383279502884197"
                     "1693993751058209749445923078164062862089",
                "t": "2718281828459045235360287471352662497757"
                     "2470936999595749669676277240766303535475"}
# tied_q with 256-bit fields: q = t and p != s
WIDE_TIED_Q = {"kind": "tied_q", "p": str(2**256 - 357), "s": str(2**256 - 189),
               "t": str(2**255 + 95)}

# pairs constant after their first entry, (p, s, s, ...) over (q, t, t, ...),
# at each degenerate point of the closed form: t = 0 (no root), q = 0,
# q = t, q = t with p = s, and negative rational weights
CONSTANT_TAIL_CASES = {
    "t0": (_constant_tail_spec(["2"], "3", 0), _constant_tail_spec(["5/2"], "0", 1)),
    "q0": (_constant_tail_spec(["3"], "1", 0), _constant_tail_spec(["0"], "2", 1)),
    "tied-q": (_constant_tail_spec(["1"], "3", 0), _constant_tail_spec([], "2", 1)),
    "tied-qp": (_constant_tail_spec([], "5/2", 0), _constant_tail_spec([], "3/4", 1)),
    "negative": (_constant_tail_spec(["-1/2"], "3/4", 0),
                 _constant_tail_spec(["-2/3"], "5/7", 1)),
}


# sigma over 3 with a negative s_3, tau over 5 with a zero t_3: the leading
# chain 2/3, 3/5, 0, 0, ... has no negative minor, the zero t_3 leaves it
# undecided, and the section route refutes on the diagonal entry
# s_3 = -1/3 (rows [3] cols [3]); both Hankel families are 0 from k = 3 on
THIRDS_FIFTHS_SIGMA = json.dumps({"prefix": ["2/3", "3", "2", "-1/3"],
                                  "tail": {"kind": "polynomial", "coeffs": ["1/3", "2/3"]},
                                  "start": 0})
THIRDS_FIFTHS_TAU = _constant_tail_spec(["7/5", "9/5", "0"], "6/5", 1)

# factorial's weights sigma = 2k + 1, tau = k^2 with t_1 = 0
REDUCIBLE_SIGMA = json.dumps({"prefix": [], "tail": {"kind": "polynomial", "coeffs": ["1", "2"]},
                              "start": 0})
REDUCIBLE_TAU = json.dumps({"prefix": ["0"],
                            "tail": {"kind": "polynomial", "coeffs": ["0", "0", "1"]},
                            "start": 1})

# dominance past the first tail index K = 2 on sigma = (2, 5/3,
# (3k^2 - 24k + 73)/15, ...): with tau = (1/3, 2/3, ...) the gap
# s_k - t_k - 1 = (k - 4)^2/5 falls at first and touches 0 at k = 4, so tp is
# TRUE, the tails decided exactly from K, at depth 8 and at depth 100; with
# tau = (1/3, 5/6, ...) the gap is (6k^2 - 48k + 91)/30, negative first at
# k = 4, so dominance is FALSE there and tp answers by the leading minors
DOMINANCE_SIGMA = json.dumps({"prefix": ["2", "5/3"],
                              "tail": {"kind": "polynomial", "coeffs": ["73/15", "-8/5", "1/5"]},
                              "start": 0})
DOMINANCE_CASES = {
    "guard": (_constant_tail_spec(["1/3"], "2/3", 1), "8"),
    "depth100": (_constant_tail_spec(["1/3"], "2/3", 1), "100"),
    "false-past-tail": (_constant_tail_spec(["1/3"], "5/6", 1), "8"),
}


def _polynomial_spec(coeffs: list, start: int) -> str:
    return json.dumps({"prefix": [], "tail": {"kind": "polynomial", "coeffs": coeffs},
                       "start": start})


# dominance decided far past the first tail index, at tp --depth 8: with
# sigma = k^2 - 200k + 10000 and tau = 0 the gap (k - 100)^2 - 1 is negative
# first at k = 100; with sigma = 200 and tau = 100 - k, t_k is negative first
# at k = 101; either way tp answers by the leading minors.  With
# sigma = k^2 - 200k + 10002 and tau = 1 the gap is (k - 100)^2 >= 0, a double
# root, and dominance is TRUE
FAR_DOMINANCE_CASES = {
    "gap-far": (_polynomial_spec(["10000", "-200", "1"], 0), _constant_tail_spec([], "0", 1)),
    "t-far": (_constant_tail_spec([], "200", 0), _polynomial_spec(["100", "-1"], 1)),
    "double-root": (_polynomial_spec(["10002", "-200", "1"], 0),
                    _constant_tail_spec([], "1", 1)),
}


ZERO_SIGMA = _constant_tail_spec([], "0", 0)
IDENTITY_TAU = _polynomial_spec(["0", "1"], 1)
DEEP_RATIONAL_SIGMA = json.dumps({"prefix": ["3/2"],
                                  "tail": {"kind": "polynomial", "coeffs": ["5/3", "7/5"]},
                                  "start": 0})
DEEP_RATIONAL_TAU = _polynomial_spec(["2/7", "1/3", "1/2"], 1)


def _weight_terms(sigma: str, tau: str, count: int) -> str:
    spec = (SequenceSpec.from_json(json.loads(text)) for text in (sigma, tau))
    return ",".join(format_rat(v) for v in catalan_like(*spec, count - 1))


# explicit term lists for stieltjes --terms, with their depths: catalan's
# terms times 3 (m_0 = 3), factorial's, the terms of a positive rational
# pair (PASS) and of the rational polynomial-tail pair (FAIL on det1), all
# ones, whose weights t_1 = 0 stops the weight recovery: both families
# are 0 from k = 1 on and the sections are semidefinite, and catalan's
# terms times 2/3, so that every determinant has a denominator m_0^(k+1)
STIELTJES_TERM_CASES = {
    "catalan-times-3": (",".join(str(3 * math.comb(2 * n, n) // (n + 1)) for n in range(22)),
                        "10"),
    "factorial": (",".join(str(math.factorial(n)) for n in range(26)), "12"),
    "rational-pass": (_weight_terms(*STIELTJES_WEIGHT_CASES["pass"], 18), "8"),
    "rational-fail": (_weight_terms(RATIONAL_SIGMA, RATIONAL_TAU, 14), "6"),
    "zero-t": ("1,1,1,1,1,1", "2"),
    "catalan-times-two-thirds": (
        ",".join(format_rat(Fraction(2 * math.comb(2 * n, n), 3 * (n + 1))) for n in range(22)),
        "10"),
}

GF_SPECS = {
    "closed-form": {"kind": "closed_form", "p": "1", "q": "2", "s": "3", "t": "2"},
    "tied-q": {"kind": "tied_q", "p": "1", "s": "3", "t": "1/2"},
    "tied-qp": {"kind": "tied_qp", "s": "2", "t": "1"},
    "inverse-sqrt": {"kind": "inverse_sqrt", "s": "3", "t": "2"},
}

# every field over a denominator, so the coefficients are p/q strings
RATIONAL_GF_SPECS = {
    "closed-form": {"kind": "closed_form", "p": "1/2", "q": "2/3", "s": "5/3", "t": "1/3"},
    "tied-qp": {"kind": "tied_qp", "s": "3/2", "t": "2/5"},
    "inverse-sqrt": {"kind": "inverse_sqrt", "s": "4/3", "t": "3/7"},
}


def cases() -> dict[str, list[str]]:
    out = {}
    for f in FORMATS:
        for name in CATALOG_NAMES:
            out[f"gen-{name}-{f}"] = ["gen", "--name", name, "-n", "40", "--format", f]
            out[f"matrix-{name}-{f}"] = ["matrix", "--name", name, "-n", "12", "--format", f]
            out[f"hankel-det-{name}-{f}"] = ["hankel-det", "--name", name, "--depth", "8",
                                             "--format", f]
            out[f"stieltjes-{name}-{f}"] = ["stieltjes", "--name", name, "--depth", "6",
                                            "--format", f]
            out[f"verify-{name}-{f}"] = ["verify", "--name", name, "--depth", "6",
                                         "--format", f]
        rational = ["--sigma", RATIONAL_SIGMA, "--tau", RATIONAL_TAU, "--format", f]
        out[f"gen-rational-{f}"] = ["gen", *rational, "-n", "40"]
        for label, (sigma, tau) in CONSTANT_TAIL_CASES.items():
            out[f"gen-constant-tail-{label}-{f}"] = ["gen", "--sigma", sigma, "--tau", tau,
                                                     "-n", "40", "--format", f]
        out[f"matrix-rational-{f}"] = ["matrix", *rational, "-n", "12"]
        out[f"matrix-mixed-{f}"] = ["matrix", "--sigma", MATRIX_MIXED_SIGMA,
                                    "--tau", MATRIX_MIXED_TAU, "-n", "8", "--format", f]
        out[f"hankel-det-rational-{f}"] = ["hankel-det", *rational, "--depth", "6"]
        # the weight route and the leading-minor route on polynomial tails
        # with a negative weight: FAIL on det1 at k = 1, FALSE on D_1
        out[f"hankel-det-rational-shift-{f}"] = ["hankel-det", *rational, "--depth", "6",
                                                 "--shift", "1"]
        out[f"stieltjes-rational-{f}"] = ["stieltjes", *rational, "--depth", "6"]
        out[f"tp-rational-{f}"] = ["tp", *rational, "--depth", "6"]
        thirds_fifths = ["--sigma", THIRDS_FIFTHS_SIGMA, "--tau", THIRDS_FIFTHS_TAU,
                         "--format", f]
        out[f"gen-thirds-fifths-{f}"] = ["gen", *thirds_fifths, "-n", "30"]
        out[f"matrix-thirds-fifths-{f}"] = ["matrix", *thirds_fifths, "-n", "10"]
        out[f"stieltjes-thirds-fifths-{f}"] = ["stieltjes", *thirds_fifths, "--depth", "6"]
        for shift in ("0", "1"):
            out[f"hankel-det-thirds-fifths-shift{shift}-{f}"] = [
                "hankel-det", *thirds_fifths, "--depth", "6", "--shift", shift]
        out[f"tp-thirds-fifths-{f}"] = ["tp", *thirds_fifths, "--depth", "8"]
        out[f"hankel-det-shift-{f}"] = ["hankel-det", "--name", "bell", "--depth", "6",
                                        "--shift", "1", "--format", f]
        # t_2 = 0: both families are 0 from k = 2 on, so the elimination
        # repairs a zero pivot by a row swap
        for shift in ("0", "1"):
            out[f"hankel-det-zero-weight-shift{shift}-{f}"] = [
                "hankel-det", "--sigma", STIELTJES_WEIGHT_CASES["zero-weight"][0],
                "--tau", STIELTJES_WEIGHT_CASES["zero-weight"][1], "--depth", "6",
                "--shift", shift, "--format", f]
        # wide integers: the 25-section of the shifted family has 512 digits
        out[f"hankel-det-factorial-wide-{f}"] = ["hankel-det", "--name", "factorial",
                                                 "--depth", "24", "--shift", "1", "--format", f]
        for name in CATALOG_NAMES:
            out[f"tp-{name}-{f}"] = ["tp", "--jacobi-name", name, "--depth", "8",
                                     "--format", f]
        out[f"tp-pqst-true-{f}"] = ["tp", "--pqst", "2,1,3,2", "--format", f]
        out[f"tp-pqst-false-{f}"] = ["tp", "--pqst", "1,3,2,1", "--format", f]
        out[f"tp-weights-false-{f}"] = ["tp", "--sigma", TP_FALSE_SIGMA, "--tau", TP_FALSE_TAU,
                                        "--depth", "6", "--format", f]
        for label, (sigma, tau, depth) in CONTIGUOUS_CASES.items():
            out[f"tp-contiguous-{label}-{f}"] = ["tp", "--sigma", sigma, "--tau", tau,
                                                 "--depth", depth, "--format", f]
        for label, (tau, depth) in DOMINANCE_CASES.items():
            out[f"tp-dominance-{label}-{f}"] = ["tp", "--sigma", DOMINANCE_SIGMA, "--tau", tau,
                                                "--depth", depth, "--format", f]
        for label, (sigma, tau) in FAR_DOMINANCE_CASES.items():
            out[f"tp-dominance-{label}-{f}"] = ["tp", "--sigma", sigma, "--tau", tau,
                                                "--depth", "8", "--format", f]
        # depth 0 past dominance: a 1 x 1 section and no subdiagonal weight
        out[f"tp-depth-0-{f}"] = ["tp", "--sigma", SIGMA_DROP, "--tau", TAU_ZERO,
                                  "--depth", "0", "--format", f]
        for label, (sigma, tau) in STIELTJES_WEIGHT_CASES.items():
            out[f"stieltjes-weights-{label}-{f}"] = ["stieltjes", "--sigma", sigma, "--tau", tau,
                                                    "--depth", "4", "--format", f]
        for name in NAMED_GF_NAMES:
            out[f"series-{name}-{f}"] = ["series", "--gf", name, "--format", f]
        for kind, spec in GF_SPECS.items():
            out[f"series-{kind}-{f}"] = ["series", "--gf", json.dumps(spec), "-n", "12",
                                         "--format", f]
        out[f"series-closed-form-rational-{f}"] = [
            "series", "--gf", json.dumps(RATIONAL_GF_SPECS["closed-form"]), "-n", "16",
            "--format", f]
        out[f"catalog-{f}"] = ["catalog", "--format", f]
        for label, (terms, depth) in STIELTJES_TERM_CASES.items():
            out[f"stieltjes-terms-{label}-{f}"] = ["stieltjes", "--terms", terms,
                                                  "--depth", depth, "--format", f]
        out[f"stieltjes-terms-fail-{f}"] = ["stieltjes", "--terms", "1,2,1,2", "--depth", "1",
                                            "--format", f]
        # no negative leading minor, but a zero one and a negative principal minor
        out[f"stieltjes-weak-sylvester-0-{f}"] = ["stieltjes", "--terms", "1,1,1,1,1,-1",
                                                  "--depth", "2", "--format", f]
        out[f"stieltjes-weak-sylvester-1-{f}"] = ["stieltjes", "--terms", "2,0,0,-1",
                                                  "--depth", "1", "--format", f]
        # the same over denominators: the witness values -5/12 (rows [0, 2])
        # and -5/7 (rows [1]) are rational, and the measure (2/3) delta_1
        # has zero minors from k = 1 on and passes
        for label, terms, depth in (("rational-0", "1/2,1/2,1/2,1/2,1/2,-1/3", "2"),
                                    ("rational-1", "3/2,0,0,-5/7", "1"),
                                    ("zero-minors-pass", "2/3,2/3,2/3,2/3,2/3,2/3", "2")):
            out[f"stieltjes-weak-sylvester-{label}-{f}"] = ["stieltjes", "--terms", terms,
                                                           "--depth", depth, "--format", f]
        # depth 0: 1 x 1 sections, from a weight pair, from terms and in both
        # families of hankel-det
        out[f"stieltjes-depth-0-{f}"] = ["stieltjes", "--name", "catalan", "--depth", "0",
                                         "--format", f]
        out[f"stieltjes-terms-depth-0-{f}"] = ["stieltjes", "--terms", "1,1", "--depth", "0",
                                               "--format", f]
        for shift in ("0", "1"):
            out[f"hankel-det-depth-0-shift{shift}-{f}"] = ["hankel-det", "--name", "catalan",
                                                           "--depth", "0", "--shift", shift,
                                                           "--format", f]
    out["gen-wide256-n70"] = ["gen", "--sigma", WIDE_SIGMA, "--tau", WIDE_TAU, "-n", "70"]
    for f in ("json", "csv"):
        out[f"gen-wide256-n70-{f}"] = ["gen", "--sigma", WIDE_SIGMA, "--tau", WIDE_TAU,
                                       "-n", "70", "--format", f]
    out["gen-wide64-n100"] = ["gen", "--sigma", WIDE64_SIGMA, "--tau", WIDE64_TAU,
                              "-n", "100"]
    out["gen-long-sigma-n2"] = ["gen", "--sigma", LONG_SIGMA, "--tau", TAU_ZERO, "-n", "2"]
    for f in ("text", "json"):
        out[f"gen-wide-signed-n12-{f}"] = ["gen", "--sigma", WIDE_SIGNED_SIGMA,
                                           "--tau", WIDE_SIGNED_TAU, "-n", "12", "--format", f]
    out["gen-wide256-tied-q-n70"] = ["gen", "--sigma", WIDE_FIRST_SIGMA, "--tau", WIDE_TAU,
                                     "-n", "70"]
    out["gen-wide256-general-n60"] = ["gen", "--sigma", WIDE_FIRST_SIGMA,
                                      "--tau", WIDE_FIRST_TAU, "-n", "60"]
    out["gen-wide-signed-general-n30"] = ["gen", "--sigma", WIDE_SIGNED_FIRST_SIGMA,
                                          "--tau", WIDE_SIGNED_FIRST_TAU, "-n", "30"]
    out["series-catalan-n2000"] = ["series", "--gf", "catalan", "-n", "2000"]
    out["series-tied-qp-wide-n300"] = ["series", "--gf", json.dumps(WIDE_TIED_QP), "-n", "300"]
    out["series-tied-q-wide-n120"] = ["series", "--gf", json.dumps(WIDE_TIED_Q), "-n", "120"]
    # catalan's path bound max(1 + p + q, 1 + s + t) = 4: 4**996 = 2**1992 is
    # below 10**600 and 4**997 = 2**1994 above it
    for n in ("996", "997"):
        out[f"gen-catalan-n{n}"] = ["gen", "--name", "catalan", "-n", n]
    # determinants of up to 70,602 bits
    out["stieltjes-factorial-depth-120"] = ["stieltjes", "--name", "factorial",
                                            "--depth", "120"]
    out["gen-wide256-rational-n64"] = ["gen", "--sigma", WIDE_RATIONAL_SIGMA,
                                       "--tau", WIDE_RATIONAL_TAU, "-n", "64"]
    out["gen-zero-weight"] = ["gen", "--sigma", STIELTJES_WEIGHT_CASES["zero-weight"][0],
                              "--tau", STIELTJES_WEIGHT_CASES["zero-weight"][1], "-n", "20"]
    out["gen-n0"] = ["gen", "--name", "catalan", "-n", "0"]
    out["matrix-n0"] = ["matrix", "--name", "factorial", "-n", "0", "--format", "json"]
    out["gen-negative-n"] = ["gen", "--name", "catalan", "-n", "-1"]
    out["matrix-negative-n"] = ["matrix", "--name", "catalan", "-n", "-2"]
    # one past each size cap
    out["gen-n-over-cap"] = ["gen", "--name", "catalan", "-n", "4001"]
    out["matrix-n-over-cap"] = ["matrix", "--name", "catalan", "-n", "801", "--format", "json"]
    out["stieltjes-depth-over-cap"] = ["stieltjes", "--name", "catalan", "--depth", "231"]
    out["hankel-det-depth-over-cap"] = ["hankel-det", "--name", "catalan", "--depth", "86",
                                        "--format", "json"]
    out["tp-depth-over-cap"] = ["tp", "--jacobi-name", "catalan", "--depth", "2001"]
    # reducible pairs at the --depth cap: factorial's weights with t_1 = 0,
    # TRUE (also two below the cap), and sigma = tau = (0, 1, 1, ...), FALSE
    # with the window 1..3 (value -1)
    for f in ("text", "json"):
        for depth in ("1998", "2000"):
            out[f"tp-reducible-factorial-depth-{depth}-{f}"] = [
                "tp", "--sigma", REDUCIBLE_SIGMA, "--tau", REDUCIBLE_TAU, "--depth", depth,
                "--format", f]
        out[f"tp-reducible-ones-depth-2000-{f}"] = [
            "tp", "--sigma", _constant_tail_spec(["0"], "1", 0),
            "--tau", _constant_tail_spec(["0"], "1", 1), "--depth", "2000", "--format", f]
    out["verify-depth-over-cap"] = ["verify", "--name", "catalan", "--depth", "76",
                                    "--format", "csv"]
    out["series-n-over-cap"] = ["series", "--gf", "delannoy", "-n", "10001", "--format", "json"]
    out["gen-unknown-name"] = ["gen", "--name", "fibonacci"]
    out["gen-bad-json"] = ["gen", "--sigma", "{not json", "--tau", RATIONAL_TAU]
    out["gen-wrong-start"] = ["gen", "--sigma", RATIONAL_TAU, "--tau", RATIONAL_TAU]
    # JSON booleans are not numbers, neither as a weight nor as a start index
    out["gen-bool-weight"] = ["gen", "--sigma", _constant_tail_spec([True], "1", 0),
                              "--tau", RATIONAL_TAU]
    out["gen-bool-start"] = ["gen", "--sigma", RATIONAL_SIGMA,
                             "--tau", _constant_tail_spec([], "1", True)]
    out["verify-delannoy-depth-12"] = ["verify", "--name", "delannoy", "--depth", "12"]
    out["tp-pqst-negative"] = ["tp", "--pqst", "1,-2,3,4"]
    out["tp-pqst-count"] = ["tp", "--pqst", "1,2,3"]
    out["tp-pqst-not-rational"] = ["tp", "--pqst", "1,2,x,4", "--format", "json"]
    out["tp-no-weights"] = ["tp", "--sigma", TP_FALSE_SIGMA]
    out["tp-unknown-name"] = ["tp", "--jacobi-name", "fibonacci", "--format", "csv"]
    out["tp-negative-depth"] = ["tp", "--jacobi-name", "catalan", "--depth", "-1"]
    out["series-unknown-name"] = ["series", "--gf", "motzkin"]
    out["series-negative-field"] = ["series", "--gf", json.dumps(
        {"kind": "tied_q", "p": "1", "s": "3", "t": "-1/2"})]
    out["series-missing-field"] = ["series", "--gf", json.dumps(
        {"kind": "closed_form", "p": "1"}), "--format", "json"]
    out["series-bad-json"] = ["series", "--gf", "{not json"]
    # t = 0: no root; the general closed form expands it as the constant-tail
    # kernel does for gen, the three specializations to a geometric series
    out["series-closed-form-t0"] = ["series", "--gf", json.dumps(
        {"kind": "closed_form", "p": "1", "q": "2", "s": "3", "t": "0"})]
    for kind, spec in (("tied-q", {"kind": "tied_q", "p": "1", "s": "3", "t": "0"}),
                       ("tied-qp", {"kind": "tied_qp", "s": "2", "t": "0"}),
                       ("inverse-sqrt", {"kind": "inverse_sqrt", "s": "3", "t": "0"})):
        out[f"series-{kind}-t0"] = ["series", "--gf", json.dumps(spec), "-n", "8"]
    for kind in ("tied-qp", "inverse-sqrt"):
        out[f"series-{kind}-rational"] = ["series", "--gf", json.dumps(RATIONAL_GF_SPECS[kind]),
                                          "-n", "16"]
    for name in NAMED_GF_NAMES:
        out[f"series-{name}-n400"] = ["series", "--gf", name, "-n", "400"]
    out["series-unknown-kind"] = ["series", "--gf", json.dumps({"kind": "polynomial"})]
    out["series-named-no-name"] = ["series", "--gf", json.dumps({"kind": "named"})]
    out["series-named-unknown-name"] = ["series", "--gf", json.dumps(
        {"kind": "named", "name": "motzkin"})]
    # a kind or a name that is not a string is unknown, not a traceback
    out["series-kind-not-a-string"] = ["series", "--gf", json.dumps({"kind": ["x"]})]
    out["series-named-name-not-a-string"] = ["series", "--gf", json.dumps(
        {"kind": "named", "name": ["x"]})]
    # every field is parsed before the first negative one is refused
    out["series-negative-before-not-rational"] = ["series", "--gf", json.dumps(
        {"kind": "tied_q", "p": "-1", "s": "x", "t": "1"})]
    out["series-closed-form-n0"] = ["series", "--gf", json.dumps(GF_SPECS["closed-form"]),
                                    "-n", "0", "--format", "json"]
    out["series-negative-n"] = ["series", "--gf", "catalan", "-n", "-1"]
    out["stieltjes-too-few-terms"] = ["stieltjes", "--terms", "1,2,1", "--depth", "1"]
    out["stieltjes-not-rational"] = ["stieltjes", "--terms", "1,x", "--format", "csv"]
    out["stieltjes-no-terms"] = ["stieltjes", "--terms", " , "]
    out["stieltjes-exponent-cap"] = ["stieltjes", "--terms", "1e200000"]
    # an @path that cannot be read is named with the OS error and no flag;
    # --pqst reads no file, so its "@1" is a value that is not a rational
    missing = "@/nonexistent-catmoments/"
    out["gen-unreadable-path"] = ["gen", "--sigma", missing + "sigma.json", "--tau", "{}"]
    out["stieltjes-unreadable-path"] = ["stieltjes", "--terms", missing + "terms.txt"]
    out["series-unreadable-path"] = ["series", "--gf", missing + "gf.json"]
    out["tp-pqst-at-sign"] = ["tp", "--pqst", "@1,1,2,1"]
    out["stieltjes-negative-depth"] = ["stieltjes", "--name", "catalan", "--depth", "-1"]
    out["hankel-det-negative-depth"] = ["hankel-det", "--name", "catalan", "--depth", "-1"]
    out["hankel-det-unknown-name"] = ["hankel-det", "--name", "fibonacci", "--format", "json"]
    out["verify-unknown-name"] = ["verify", "--name", "fibonacci"]
    # one weight source per command: a name or --sigma/--tau, and for
    # stieltjes and tp either those or --terms and --pqst
    out["gen-name-and-sigma"] = ["gen", "--name", "catalan", "--sigma", RATIONAL_SIGMA]
    out["tp-name-and-sigma"] = ["tp", "--jacobi-name", "catalan", "--sigma", TP_FALSE_SIGMA,
                                "--tau", TP_FALSE_TAU]
    out["stieltjes-terms-and-name"] = ["stieltjes", "--terms", "1,1,2,5", "--depth", "1",
                                       "--name", "nosuch"]
    out["tp-pqst-and-name"] = ["tp", "--jacobi-name", "catalan", "--pqst", "1,1,2,1"]
    # a JSON field no reader knows is refused, not ignored
    out["series-unknown-field"] = ["series", "--gf", json.dumps(
        {"kind": "tied_qp", "s": "3", "t": "2", "p": "5"})]
    out["gen-tail-unknown-field"] = ["gen", "--sigma", json.dumps(
        {"prefix": [], "tail": {"kind": "constant", "value": "2", "coeffs": ["1"]},
         "start": 0}), "--tau", RATIONAL_TAU]
    out["gen-spec-unknown-field"] = ["gen", "--sigma", RATIONAL_SIGMA, "--tau", json.dumps(
        {"prefix": ["1"], "prefx": ["2"], "tail": {"kind": "constant", "value": "1"},
         "start": 1}), "--format", "json"]
    out["verify-alias"] = ["verify", "--name", "restricted_hexagonal", "--format", "json"]
    out["verify-depth-0"] = ["verify", "--name", "catalan", "--depth", "0", "--format", "json"]
    # Hankel sections whose minors of high shift grow large while the
    # leading ones stay small, or that meet a zero minor of higher shift:
    # hexagonal's shifted family and bell's plain one, factorial's verify,
    # and terms with m_0 = 0: factorial's led by 0, and 0,1,0,... whose
    # 1 x 1 minor of shift 2, m_2, is 0 too
    for f in FORMATS:
        out[f"hankel-det-hexagonal-deep-shift1-{f}"] = ["hankel-det", "--name", "hexagonal",
                                                        "--depth", "30", "--shift", "1",
                                                        "--format", f]
        out[f"hankel-det-bell-deep-{f}"] = ["hankel-det", "--name", "bell", "--depth", "22",
                                            "--format", f]
        # sigma = 0, tau = k: m_n = 0 at every odd n, so every Hankel minor
        # of odd shift is 0; and a rational pair over 2, 3, 5 and 7 with
        # polynomial tails, whose terms have a common denominator much
        # smaller than L^n
        for shift in ("0", "1"):
            out[f"hankel-det-zero-sigma-shift{shift}-{f}"] = [
                "hankel-det", "--sigma", ZERO_SIGMA, "--tau", IDENTITY_TAU, "--depth", "20",
                "--shift", shift, "--format", f]
            out[f"hankel-det-rational-deep-shift{shift}-{f}"] = [
                "hankel-det", "--sigma", DEEP_RATIONAL_SIGMA, "--tau", DEEP_RATIONAL_TAU,
                "--depth", "20", "--shift", shift, "--format", f]
    out["verify-factorial-depth-20"] = ["verify", "--name", "factorial", "--depth", "20",
                                        "--format", "json"]
    # m_n = 1/(n+1)^2, the moments of -log x on (0, 1]: its weights need a
    # common denominator far larger than the terms'
    out["stieltjes-terms-log-moments"] = [
        "stieltjes", "--terms", ",".join(f"1/{(n + 1) ** 2}" for n in range(26)),
        "--depth", "12"]
    out["stieltjes-terms-zero-divisor"] = ["stieltjes", "--terms", "0,1,0,1,2,3",
                                           "--depth", "2"]
    # large integral leading minors of both families of the terms' sections
    for f in FORMATS:
        for shift in ("0", "1"):
            out[f"hankel-det-factorial-deep-shift{shift}-{f}"] = [
                "hankel-det", "--name", "factorial", "--depth", "40", "--shift", shift,
                "--format", f]
    out["verify-bell-depth-30"] = ["verify", "--name", "bell", "--depth", "30",
                                   "--format", "json"]
    # H_1 = 0 at k = depth, where no later minor needs it as a divisor
    out["stieltjes-terms-last-minor-zero"] = ["stieltjes", "--terms", "1,1,1,1", "--depth", "1"]
    # m_0 < 0 over denominators: no inversion, the sections straight away
    out["stieltjes-terms-negative-log-moments"] = [
        "stieltjes", "--terms=" + ",".join(f"-1/{(n + 1) ** 2}" for n in range(22)),
        "--depth", "10"]
    out["stieltjes-terms-zero-first"] = ["stieltjes", "--terms", "0,1,2,6,24,120,720,5040",
                                         "--depth", "3"]
    return out


def run_digest(argv: list[str]) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return {
        "exit": code,
        "stdout_sha256": hashlib.sha256(stdout.getvalue().encode()).hexdigest(),
        "stderr_sha256": hashlib.sha256(stderr.getvalue().encode()).hexdigest(),
    }


GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


def test_golden_file_covers_every_case():
    assert sorted(GOLDEN) == sorted(cases())


def test_usage_errors_leave_stdout_empty():
    empty = hashlib.sha256(b"").hexdigest()
    errors = [case for case, golden in GOLDEN.items() if golden["exit"] == 2]
    assert len(errors) >= 20
    assert [case for case in errors if GOLDEN[case]["stdout_sha256"] != empty] == []


@pytest.mark.parametrize("case", sorted(cases()))
def test_cli_bytes_unchanged(case):
    assert {"argv": cases()[case], **run_digest(cases()[case])} == GOLDEN[case]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps({case: {"argv": argv, **run_digest(argv)}
                                       for case, argv in sorted(cases().items())},
                                      indent=1) + "\n")

"""End-to-end tests of the command-line interface: output formats, exit
codes, file arguments, range checks on the count options, each command's
parser kept for the process and answering as the full parser does, the
one-shot `python -m catmoments.cli` entry point, the same bytes under the
lowest digit limit the interpreter takes, json loaded only by a job
that reads or writes JSON, and gen's closed-form route on constant tails
against the triangle, with the commands that must and must not run the
triangle."""

import collections
import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import catmoments.cli
import catmoments.exact
import catmoments.hankel
import catmoments.recursive
from catmoments.cli import build_parser, main
from catmoments.exact import format_over
from catmoments.hankel import stieltjes_weights
from catmoments.jacobi import tp_certify
from catmoments.recursive import _scaled_rows, catalan_like, motzkin_oracle
from catmoments.seqspec import CATALOG, SequenceSpec, catalog_lookup, pqst_of
from catmoments.series import _constant_tail_ints
from oracle import DenseMatrix, fraction_terms, int_weights, record_weight_reads
from test_golden_cli import cases as golden_cases

SIGMA_DROP = json.dumps(
    {"prefix": ["1", "0"], "tail": {"kind": "constant", "value": "0"}, "start": 0}
)
TAU_ZERO = json.dumps(
    {"prefix": [], "tail": {"kind": "constant", "value": "0"}, "start": 1}
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_text(capsys):
    code, out, err = run(capsys, "gen", "--name", "catalan", "-n", "7")
    assert code == 0 and err == ""
    assert out.strip() == "1 1 2 5 14 42 132 429"


def test_gen_json(capsys):
    code, out, _ = run(capsys, "gen", "--name", "bell", "-n", "6", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["name"] == "bell"
    assert data["terms"] == ["1", "1", "2", "5", "15", "52", "203"]
    assert data["sigma"]["tail"] == {"kind": "polynomial", "coeffs": ["1", "1"]}


def test_gen_csv(capsys):
    code, out, _ = run(capsys, "gen", "--name", "catalan", "-n", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["n,term", "0,1", "1,1", "2,2"]


def test_gen_explicit_weights(capsys):
    sigma = json.dumps(
        {"prefix": ["1"], "tail": {"kind": "constant", "value": "2"}, "start": 0}
    )
    tau = json.dumps(
        {"prefix": [], "tail": {"kind": "constant", "value": "1"}, "start": 1}
    )
    code, out, _ = run(capsys, "gen", "--sigma", sigma, "--tau", tau, "-n", "5")
    assert code == 0
    assert out.strip() == "1 1 2 5 14 42"


def test_gen_rejects_unknown_name(capsys):
    code, _, err = run(capsys, "gen", "--name", "fibonacci")
    assert code == 2
    assert "fibonacci" in err


def test_gen_requires_weights(capsys):
    code, _, err = run(capsys, "gen")
    assert code == 2
    assert "--sigma" in err


@pytest.mark.parametrize("argv, first, second", [
    (["gen", "--name", "catalan", "--sigma", SIGMA_DROP], "--name", "--sigma"),
    (["matrix", "--name", "catalan", "--tau", TAU_ZERO], "--name", "--sigma/--tau"),
    (["tp", "--jacobi-name", "catalan", "--sigma", SIGMA_DROP, "--tau", TAU_ZERO],
     "--jacobi-name", "--sigma/--tau"),
    (["stieltjes", "--terms", "1,1,2,5", "--depth", "1", "--name", "nosuch"],
     "--terms", "--name"),
    (["stieltjes", "--terms", "1,1,2,5", "--depth", "1", "--tau", TAU_ZERO],
     "--terms", "--sigma/--tau"),
    (["tp", "--pqst", "1,1,2,1", "--jacobi-name", "catalan"], "--pqst", "--jacobi-name"),
    (["tp", "--pqst", "1,1,2,1", "--sigma", SIGMA_DROP], "--pqst", "--sigma/--tau"),
])
def test_two_weight_sources_are_refused(capsys, argv, first, second):
    # no source wins silently: a name, explicit specs, --terms and --pqst
    # exclude each other
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"give {first} or" in err and second in err and err.endswith("not both\n")


def test_gen_rejects_wrong_start(capsys):
    # a start-1 payload in the start-0 slot
    code, _, err = run(capsys, "gen", "--sigma", TAU_ZERO, "--tau", TAU_ZERO)
    assert code == 2
    assert "start must be 0" in err


def test_gen_rejects_bad_json(capsys):
    code, _, err = run(capsys, "gen", "--sigma", "{not json", "--tau", TAU_ZERO)
    assert code == 2
    assert "not valid JSON" in err


def test_gen_prints_terms_past_the_digit_limit(capsys):
    # 256-bit weights: the last terms have over 5,000 decimal digits
    s, t = 2**255 + 12345, 2**256 - 189
    sigma = json.dumps({"prefix": [], "tail": {"kind": "constant", "value": str(s)},
                        "start": 0})
    tau = json.dumps({"prefix": [], "tail": {"kind": "constant", "value": str(t)},
                      "start": 1})
    code, out, err = run(capsys, "gen", "--sigma", sigma, "--tau", tau, "-n", "70")
    assert code == 0 and err == ""
    expected = fraction_terms(SequenceSpec.constant(s), SequenceSpec.constant(t, start=1), 70)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert max(len(term) for term in out.split()) > 5000
        assert [int(term) for term in out.split()] == expected
    finally:
        sys.set_int_max_str_digits(limit)


def test_matrix_text(capsys):
    code, out, _ = run(capsys, "matrix", "--name", "catalan", "-n", "2")
    assert code == 0
    assert out.splitlines() == ["1", "1 1", "2 3 1"]


def test_matrix_json(capsys):
    code, out, _ = run(capsys, "matrix", "--name", "catalan", "-n", "3",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["rows"] == [["1"], ["1", "1"], ["2", "3", "1"], ["5", "9", "5", "1"]]
    assert data["sigma"] == CATALOG["catalan"].sigma.to_json()


def test_stieltjes_pass(capsys):
    code, out, _ = run(capsys, "stieltjes", "--name", "catalan", "--depth", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "verdict: PASS (depth 5)"
    assert lines[2] == "0 1 1"


def test_stieltjes_negative_control(capsys):
    code, out, _ = run(capsys, "stieltjes", "--terms", "1,2,1,2", "--depth", "1")
    assert code == 1
    assert "verdict: FAIL" in out
    assert "first negative: det0 at k=1 value -3" in out


def test_stieltjes_csv(capsys):
    code, out, _ = run(capsys, "stieltjes", "--name", "catalan", "--depth", "2",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["k,det0,det1", "0,1,1", "1,1,1", "2,1,1"]
    code, out, _ = run(capsys, "stieltjes", "--terms", "1,2,1,2", "--depth", "1",
                       "--format", "csv")
    assert code == 1
    assert out == "k,det0,det1\n0,1,2\n1,-3,3\n"


def test_stieltjes_json_round_trip(capsys):
    code, out, _ = run(capsys, "stieltjes", "--name", "hexagonal", "--depth", "3",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["name"] == "hexagonal"
    assert data["verdict"] == "PASS"
    assert len(data["dets0"]) == 4


def test_stieltjes_terms_from_file(capsys, tmp_path):
    path = tmp_path / "terms.txt"
    path.write_text("1 1 2 5\n14 42\n")
    code, out, _ = run(capsys, "stieltjes", "--terms", f"@{path}", "--depth", "2")
    assert code == 0
    assert "verdict: PASS" in out


def test_gen_terms_read_back_past_the_digit_limit(capsys, tmp_path):
    # factorial's term 1600 has 4,437 digits, past the interpreter's limit:
    # gen prints it, and --terms reads the whole printed list back
    code, out, _ = run(capsys, "gen", "--name", "factorial", "-n", "1600")
    assert code == 0 and len(out.split()[-1]) > 4300
    path = tmp_path / "terms.txt"
    path.write_text(out)
    code, out, err = run(capsys, "stieltjes", "--terms", f"@{path}", "--depth", "3")
    assert (code, err) == (0, "") and out.startswith("verdict: PASS (depth 3)")


def test_stieltjes_insufficient_terms(capsys):
    code, _, err = run(capsys, "stieltjes", "--terms", "1,1,2", "--depth", "3")
    assert code == 2
    assert "need 8 terms" in err


@pytest.mark.parametrize("argv, low, depth", [
    (("stieltjes", "--name", "catalan"), 0, -1),
    (("stieltjes", "--terms", "1,1"), 0, -3),
    (("hankel-det", "--name", "catalan"), 0, -1),
    (("verify", "--name", "catalan"), 1, 0),
    (("tp", "--jacobi-name", "catalan"), 0, -1),
    (("tp", "--pqst", "2,1,3,2"), 0, -2),
])
def test_depth_below_range(capsys, argv, low, depth):
    code, out, err = run(capsys, *argv, "--depth", str(depth))
    assert (code, out, err) == (2, "", f"error: --depth must be >= {low}, got {depth}\n")


@pytest.mark.parametrize("argv", [
    ("gen", "--name", "catalan"),
    ("matrix", "--name", "factorial"),
    ("series", "--gf", "catalan"),
])
def test_n_below_range(capsys, argv):
    code, out, err = run(capsys, *argv, "-n", "-1")
    assert (code, out, err) == (2, "", "error: -n must be >= 0, got -1\n")


def count_argv(command: str, value: int) -> list[str]:
    """catalan through the command, with its count option (-n or --depth) at value."""
    option = "-n" if command in ("gen", "matrix", "series") else "--depth"
    source = {"tp": "--jacobi-name", "series": "--gf"}.get(command, "--name")
    return [command, source, "catalan", option, str(value)]


@pytest.mark.parametrize("command, cap", [("gen", 4000), ("matrix", 800), ("stieltjes", 230),
                                          ("hankel-det", 85), ("tp", 2000), ("verify", 75),
                                          ("series", 10000)])
def test_n_above_cap(capsys, monkeypatch, command, cap):
    # refused before the name is looked up or any weight is read
    monkeypatch.setattr(catmoments.cli, "read_weights", None)
    monkeypatch.setattr(catmoments.cli, "catalog_lookup", None)
    monkeypatch.setattr(catmoments.cli, "parse_gf_arg", None)
    code, out, err = run(capsys, *count_argv(command, cap + 1))
    option = count_argv(command, 0)[3]
    assert (code, out, err) == (2, "", f"error: {option} must be <= {cap}, got {cap + 1}\n")


@pytest.mark.parametrize("command, cap_name", [
    ("gen", "GEN_MAX_N"), ("matrix", "MATRIX_MAX_N"), ("stieltjes", "STIELTJES_MAX_DEPTH"),
    ("hankel-det", "HANKEL_DET_MAX_DEPTH"), ("tp", "TP_MAX_DEPTH"),
    ("verify", "VERIFY_MAX_DEPTH"), ("series", "SERIES_MAX_N")])
def test_n_at_cap_is_accepted(capsys, monkeypatch, command, cap_name):
    monkeypatch.setattr(catmoments.cli, cap_name, 5)
    assert run(capsys, *count_argv(command, 5))[0] == 0
    assert run(capsys, *count_argv(command, 6))[0] == 2


def test_hankel_det_reads_each_weight_once(capsys, monkeypatch):
    reads = record_weight_reads(monkeypatch)
    code, _, _ = run(capsys, "hankel-det", "--name", "factorial", "--depth", "24")
    assert code == 0
    assert sorted((spec.start, k) for spec, k in reads) == \
        [(0, k) for k in range(24)] + [(1, k) for k in range(1, 25)]


def test_tp_accepts_depth_zero(capsys):
    code, out, _ = run(capsys, "tp", "--sigma", SIGMA_DROP, "--tau", TAU_ZERO, "--depth", "0")
    assert code == 0
    assert out == "verdict: TRUE (criterion leading_minors, depth 0)\nminor chain 1\n"


def test_hankel_det_product_column(capsys):
    code, out, _ = run(capsys, "hankel-det", "--name", "delannoy", "--depth", "2")
    assert code == 0
    assert out.splitlines()[2] == "k=2 det=32 product=32 ok"


def test_hankel_det_shifted_family(capsys):
    # checked against D_k T_0 ... T_k, as the plain family against T_0 ... T_k
    code, out, _ = run(capsys, "hankel-det", "--name", "catalan", "--depth", "2",
                       "--shift", "1", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["k,det,product,match", "0,1,1,true", "1,1,1,true",
                                "2,1,1,true"]


@pytest.mark.parametrize("shift", [0, 1])
def test_hankel_det_reports_a_product_that_differs(capsys, monkeypatch, shift):
    # the product of k = 1 raised by 1/3: that row alone misses, prints the
    # product's own value and makes the exit code 1
    real = catmoments.cli._weight_families

    def off_at_k1(s, t, scale):
        families = real(s, t, scale)
        (num, den) = families[shift][1]
        families[shift][1] = (3 * num + den, 3 * den)
        return families

    monkeypatch.setattr(catmoments.cli, "_weight_families", off_at_k1)
    code, out, _ = run(capsys, "hankel-det", "--name", "bell", "--depth", "2",
                       "--shift", str(shift), "--format", "json")
    rows = json.loads(out)["rows"]
    assert code == 1 and [row["match"] for row in rows] == [True, False, True]
    assert Fraction(rows[1]["product"]) == Fraction(rows[1]["det"]) + Fraction(1, 3)
    code, out, _ = run(capsys, "hankel-det", "--name", "bell", "--depth", "2",
                       "--shift", str(shift))
    assert code == 1 and out.splitlines()[1].endswith(" MISMATCH")


def test_tp_pqst_true(capsys):
    code, out, _ = run(capsys, "tp", "--pqst", "1,1,2,1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "TRUE"
    assert data["criterion"] == "pqst_criterion"


def test_tp_pqst_false(capsys):
    code, out, _ = run(capsys, "tp", "--pqst", "1,3,2,1")
    assert code == 1
    assert "verdict: FALSE" in out


@pytest.mark.parametrize("argv, line", [
    (("--pqst", "1,1,2,1"), "verdict: TRUE (criterion pqst_criterion)"),
    (("--jacobi-name", "catalan"), "verdict: TRUE (criterion dominance)"),
])
def test_tp_symbolic_verdict_states_no_depth(capsys, argv, line):
    code, out, _ = run(capsys, "tp", *argv)
    assert code == 0
    assert out.splitlines()[0] == line


def test_tp_pqst_arity(capsys):
    code, _, err = run(capsys, "tp", "--pqst", "1,2,3")
    assert code == 2
    assert "need exactly 4" in err


def test_tp_catalog_name(capsys):
    code, out, _ = run(capsys, "tp", "--jacobi-name", "factorial", "--depth", "6",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "TRUE"
    assert data["criterion"] == "leading_minors"
    assert "1, 2, 6, 24, 120, 720, 5040" in data["detail"]


def test_series_named(capsys):
    code, out, _ = run(capsys, "series", "--gf", "delannoy", "-n", "4")
    assert code == 0
    assert out.strip() == "1 3 13 63 321"


def test_series_json_spec(capsys):
    spec = json.dumps({"kind": "tied_qp", "s": "3", "t": "2"})
    code, out, _ = run(capsys, "series", "--gf", spec, "-n", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["spec"] == {"kind": "tied_qp", "s": "3", "t": "2"}
    assert data["order"] == 3
    assert data["coeffs"] == ["1", "3", "11", "45"]


def test_series_spec_from_file(capsys, tmp_path):
    path = tmp_path / "gf.json"
    path.write_text(json.dumps({"kind": "inverse_sqrt", "s": "2", "t": "1"}))
    code, out, _ = run(capsys, "series", "--gf", f"@{path}", "-n", "4")
    assert code == 0
    assert out.strip() == "1 2 6 20 70"


def test_series_rejects_unknown_name(capsys):
    code, _, err = run(capsys, "series", "--gf", "motzkin")
    assert code == 2
    assert "motzkin" in err


def test_verify_catalog_entry(capsys):
    code, out, _ = run(capsys, "verify", "--name", "catalan", "--depth", "5",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "PASS"
    labels = [c["check"] for c in data["checks"]]
    assert "gf_terms" in labels and "riordan_columns" in labels
    assert all(c["status"] == "PASS" for c in data["checks"])


@pytest.mark.parametrize("command", [["verify", "--name"], ["gen", "-n", "3", "--name"],
                                     ["tp", "--jacobi-name"]])
def test_an_alias_is_named_by_its_entry(capsys, command):
    # every command looks a name up the same way and prints the entry's name
    code, out, _ = run(capsys, *command, "restricted_hexagonal", "--format", "json")
    assert code == 0
    assert json.loads(out)["name"] == "hexagonal"


def test_verify_entry_without_gf(capsys):
    code, out, _ = run(capsys, "verify", "--name", "bell", "--depth", "4",
                       "--format", "json")
    assert code == 0
    labels = [c["check"] for c in json.loads(out)["checks"]]
    assert "gf_terms" not in labels
    assert "riordan_columns" not in labels


def test_verify_builds_the_matrix_and_the_terms_once(monkeypatch):
    # every run of the recurrence goes through _scaled_rows: the full
    # triangle (truncate False) is the matrix, column 0 alone (True) the
    # terms; bell has no (p, q, s, t) form, so no Riordan check runs its own
    runs = []
    original = catmoments.recursive._scaled_rows

    def counting(s, t, scale, depth, truncate=False):
        runs.append((depth, truncate))
        return original(s, t, scale, depth, truncate)

    for module in (catmoments.cli, catmoments.hankel, catmoments.recursive):
        if getattr(module, "_scaled_rows", None) is original:
            monkeypatch.setattr(module, "_scaled_rows", counting)
    checks = catmoments.cli.verify_checks(catalog_lookup("bell"), 6)
    assert [label for label, ok in checks if not ok] == []
    assert sorted(runs) == [(7, False), (16, True)]


@pytest.mark.parametrize("name", ["factorial", "catalan"])
def test_verify_reads_each_weight_of_its_matrix_checks_once(monkeypatch, name):
    # R, the three identity checks and J's section share one read of
    # s_0..s_{d+1} and t_1..t_{d+1}; each other route reads its own weights,
    # counted here by running it alone
    entry, depth = CATALOG[name], 6
    sigma, tau = entry.sigma, entry.tau
    recorded = record_weight_reads(monkeypatch)
    catalan_like(sigma, tau, max(2 * depth + 1, 16))
    for n in range(min(depth, 10) + 1):
        motzkin_oracle(sigma, tau, n)
    stieltjes_weights(sigma, tau, depth)
    tp_certify(sigma, tau, depth)
    pqst_of(sigma, tau)
    others = collections.Counter((spec is tau, k) for spec, k in recorded)
    recorded.clear()
    assert all(ok for _, ok in catmoments.cli.verify_checks(entry, depth))
    shared = collections.Counter([(False, k) for k in range(depth + 2)]
                                 + [(True, k) for k in range(1, depth + 2)])
    assert collections.Counter((spec is tau, k) for spec, k in recorded) == others + shared


rationals = st.one_of(st.just(Fraction(0)), st.integers(-6, 6).map(Fraction),
                     st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)))


@st.composite
def constant_tail_weights(draw):
    """(p, q, s, t), with the tied points q = t and q = t, p = s drawn often."""
    p, q, s, t = (draw(rationals) for _ in range(4))
    tie = draw(st.sampled_from(("none", "q = t", "q = t, p = s")))
    return (s if tie == "q = t, p = s" else p), (q if tie == "none" else t), s, t


@settings(max_examples=300, deadline=None)
@given(constant_tail_weights(), st.integers(0, 40))
def test_gen_on_constant_tails_matches_the_triangle(pqst, n):
    # the closed form's recurrence against column 0 of the recursive matrix
    p, q, s, t = pqst
    rows = list(_scaled_rows(*int_weights([p, *[s] * n], [q, *[t] * n]), n, True))
    nums, scale = _constant_tail_ints(p, q, s, t, n)
    assert [Fraction(v, scale**k) for k, v in enumerate(nums)] == \
        [Fraction(row[0], den) for row, den in rows]
    specs = (SequenceSpec.first_then_constant(p, s, start=0),
             SequenceSpec.first_then_constant(q, t, start=1))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["gen", "--sigma", json.dumps(specs[0].to_json()),
                     "--tau", json.dumps(specs[1].to_json()), "-n", str(n)]) == 0
    assert stdout.getvalue() == " ".join(format_over(row[0], den) for row, den in rows) + "\n"


@pytest.fixture
def triangle_calls(monkeypatch):
    """Calls of recursive._scaled_rows and catalan_like, counted wherever the
    package binds them."""
    calls = collections.Counter()
    for name in ("_scaled_rows", "catalan_like"):
        original = getattr(catmoments.recursive, name)

        def counting(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "catmoments" and \
                    getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    return calls


def test_gen_and_hankel_det_on_constant_tails_run_no_triangle(capsys, triangle_calls):
    code, out, _ = run(capsys, "gen", "--name", "catalan", "-n", "200")
    assert code == 0 and out.split()[200] == str(math.comb(400, 200) // 201)
    assert run(capsys, "hankel-det", "--name", "delannoy", "--depth", "8")[0] == 0
    assert triangle_calls == {}
    # polynomial tails still take the triangle
    assert run(capsys, "gen", "--name", "bell", "-n", "20")[0] == 0
    assert run(capsys, "hankel-det", "--name", "factorial", "--depth", "4")[0] == 0
    assert triangle_calls == {"_scaled_rows": 2}


def test_verify_checks_the_generating_function_against_the_triangle(capsys, triangle_calls):
    code, out, _ = run(capsys, "verify", "--name", "catalan")
    assert code == 0 and "gf_terms" in out
    assert triangle_calls["catalan_like"] == 1 and triangle_calls["_scaled_rows"] >= 2


class Forbidden(Exception):
    """Raised by a name the verify bundle must not reach."""


def matrix_classes() -> list[str]:
    """Every class named like a matrix that a module of the package defines
    or binds, as module.name."""
    return [f"{name}.{attr}" for name, module in sys.modules.items()
            if name.split(".")[0] == "catmoments"
            for attr, value in vars(module).items()
            if isinstance(value, type) and "matrix" in value.__name__.lower()]


@pytest.fixture
def no_fraction_matrices(monkeypatch):
    """No module of the package has a matrix class, and
    negative_principal_minor, its one elimination on rows of Fractions,
    raises Forbidden.  The dense matrices and the Fraction rows of R
    (build_recursive) are test-side only."""
    assert matrix_classes() == []

    def refuse(*args, **kwargs):
        raise Forbidden

    monkeypatch.setattr(catmoments.hankel, "negative_principal_minor", refuse)


def test_verify_builds_no_fraction_matrix(capsys, no_fraction_matrices):
    for name in CATALOG:
        code, out, err = run(capsys, "verify", "--name", name, "--depth", "6")
        assert (code, err) == (0, ""), name
        assert out.endswith("verdict: PASS (depth 6)\n"), name


def test_fraction_matrix_guard_trips_on_a_zero_hankel_minor(monkeypatch, no_fraction_matrices):
    # t_1 = 0 leaves the terms to elimination, and their zero leading minor
    # sends the Fraction windows of the terms to the semidefiniteness test
    with pytest.raises(Forbidden):
        main(["stieltjes", "--terms", "1,1,1,1,1,-1", "--depth", "2"])
    assert [name for name, module in sys.modules.items() if name.split(".")[0] == "catmoments"
            and hasattr(module, "build_recursive")] == []
    # and the scan finds a matrix class bound in the package
    monkeypatch.setattr(catmoments.exact, "Grid", DenseMatrix, raising=False)
    assert matrix_classes() == ["catmoments.exact.Grid"]


def test_verify_accepts_alias(capsys):
    code, out, _ = run(capsys, "verify", "--name", "restricted_hexagonal",
                       "--depth", "4")
    assert code == 0
    assert "verdict: PASS" in out


def test_verify_unknown_name(capsys):
    code, _, err = run(capsys, "verify", "--name", "lucas")
    assert code == 2
    assert "lucas" in err


def test_catalog_listing(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    for name in CATALOG:
        assert name in out
    code, out, _ = run(capsys, "catalog", "--format", "json")
    data = json.loads(out)
    assert sorted(e["name"] for e in data) == sorted(CATALOG)
    code, out, _ = run(capsys, "catalog", "--format", "csv")
    assert len(out.splitlines()) == len(CATALOG) + 1


# ------------------------------------------- one parser per command, kept

COMMAND_NAMES = ("gen", "matrix", "stieltjes", "hankel-det", "tp", "series", "verify",
                 "catalog")

SIGMA_HALF = json.dumps({"prefix": ["1/2"], "tail": {"kind": "constant", "value": "2"},
                         "start": 0})
TAU_THIRD = json.dumps({"prefix": [], "tail": {"kind": "constant", "value": "1/3"},
                        "start": 1})

# usage errors from argparse and from the commands, every format, and a
# subcommand called by --name and then by --sigma/--tau
MIXED_ARGV = [
    ("gen", "--bogus"),
    ("gen", "--name", "catalan", "-n", "6", "--format", "json"),
    ("gen", "--sigma", SIGMA_HALF, "--tau", TAU_THIRD, "-n", "6", "--format", "csv"),
    ("gen", "--sigma", SIGMA_HALF, "-n", "6"),
    ("stieltjes", "--name", "bell", "--depth", "4"),
    ("stieltjes", "--sigma", SIGMA_HALF, "--tau", TAU_THIRD, "--depth", "3",
     "--format", "json"),
    ("stieltjes", "--terms", "1,1,2,5,14,42", "--depth", "2", "--format", "csv"),
    ("matrix", "-n", "-1", "--name", "hexagonal"),
    ("matrix", "--name", "factorial", "-n", "3", "--format", "csv"),
    ("hankel-det", "--name", "delannoy", "--depth", "3", "--shift", "1"),
    ("tp", "--jacobi-name", "catalan", "--depth", "5", "--format", "json"),
    ("tp", "--sigma", SIGMA_HALF, "--tau", TAU_THIRD, "--depth", "5"),
    ("tp", "--pqst", "1,2,3"),
    ("series", "--gf", "catalan", "-n", "6", "--format", "csv"),
    ("verify", "--name", "schroder_large", "--depth", "3"),
    ("verify", "--depth", "3"),
    ("catalog", "--format", "json"),
    (),
]


def outcome(capsys, argv):
    """(exit code, stdout, stderr) of one main call, usage exits included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def fresh_parser():
    """main's parsers, dropped before and after the test."""
    def drop():
        catmoments.cli._parser.cache_clear()
        catmoments.cli._command_parser.cache_clear()

    drop()
    yield drop
    drop()


def test_reused_parser_answers_in_any_order(capsys, fresh_parser):
    forward = [outcome(capsys, argv) for argv in MIXED_ARGV]
    backward = [outcome(capsys, argv) for argv in reversed(MIXED_ARGV)][::-1]
    assert backward == forward
    assert catmoments.cli._parser.cache_info().currsize == 1
    assert catmoments.cli._command_parser.cache_info().currsize == len(COMMAND_NAMES)
    # and new parsers for each call give the same
    for argv, expected in zip(MIXED_ARGV, forward):
        fresh_parser()
        assert outcome(capsys, argv) == expected
    assert [code for code, _, _ in forward] == [2, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0, 0, 2,
                                                0, 0, 2, 0, 2]
    assert "usage:" in forward[0][2] and forward[0][1] == ""


def test_main_builds_each_parser_at_most_once(capsys, monkeypatch, fresh_parser):
    built = []
    monkeypatch.setattr(catmoments.cli, "build_parser", lambda: built.append(1) or build_parser())
    for argv in MIXED_ARGV * 2:
        outcome(capsys, argv)
    info = catmoments.cli._command_parser.cache_info()
    assert info.misses == info.currsize == len(COMMAND_NAMES)
    assert len(built) == 1
    # the full parser only for the argv a command's parser cannot answer
    fallback = []
    for argv in [*MIXED_ARGV, ("stieltjes", "--name", "bell", "--depth", "4")]:
        catmoments.cli._parser.cache_clear()
        built.clear()
        outcome(capsys, argv)
        fallback += [argv] * len(built)
    assert fallback == [("gen", "--bogus"), ()]


def test_build_parser_is_a_factory():
    first, second = build_parser(), build_parser()
    assert first is not second
    assert first.format_help() == second.format_help()


def subparsers(parser) -> dict:
    """A full parser's subparsers by command name."""
    return next(action.choices for action in parser._actions if isinstance(action.choices, dict))


def test_each_command_parser_prints_its_subparser_help(fresh_parser):
    full = subparsers(build_parser())
    assert tuple(full) == COMMAND_NAMES
    for name in COMMAND_NAMES:
        assert catmoments.cli._command_parser(name).format_help() == full[name].format_help()


class NoCommandFirst(dict):
    """COMMANDS as main sees it when no argv[0] names a command, so that
    every argv goes through the full parser."""

    def __contains__(self, name):
        return False


# argv at the edge of the fast path: help, '--', abbreviations, unknown and
# missing options, extra positionals, invalid values, an option before the
# command and unknown commands
EDGE_ARGV = [
    (), ("--help",), ("-h",), ("--",), ("--", "gen"), ("gen", "--"), ("gen", "--", "-n", "3"),
    ("hankel-det", "--name", "bell", "--dep", "3"), ("hankel-det", "--name", "bell", "--de", "3"),
    ("tp", "--jacobi", "catalan"), ("gen", "--he"), ("gen", "--name=catalan", "-n3"),
    ("gen", "--bogus"), ("gen", "--name", "catalan", "extra"), ("gen", "--name", "catalan",
                                                                 "x", "y"),
    ("stieltjes", "--terms", "1,1", "--depth", "0", "--", "x"), ("series",), ("verify",),
    ("gen", "-n"), ("hankel-det", "--name", "bell", "--shift", "2"),
    ("catalog", "--format", "xml"), ("--format", "json", "gen", "--name", "catalan"),
    ("nosuch",), ("GEN",), ("ge",), ("gen", "--name", "catalan", "-n", "2", "--help"),
    *((name, flag) for name in COMMAND_NAMES for flag in ("-h", "--help")),
]


def test_fast_path_answers_as_the_full_parser(capsys, monkeypatch, fresh_parser):
    everything = [*map(tuple, golden_cases().values()), *EDGE_ARGV]
    fast = [outcome(capsys, argv) for argv in everything]
    monkeypatch.setattr(catmoments.cli, "COMMANDS", NoCommandFirst(catmoments.cli.COMMANDS))
    full = [outcome(capsys, argv) for argv in everything]
    assert catmoments.cli._command_parser.cache_info().misses == len(COMMAND_NAMES)
    assert [argv for argv, one, other in zip(everything, fast, full) if one != other] == []
    assert {code for code, _, _ in fast} == {0, 1, 2}
    assert [code for code, _, _ in fast[-2 * len(COMMAND_NAMES):]] == [0] * 2 * len(COMMAND_NAMES)


SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def python(*args):
    """Run the interpreter on ARGS as a new process, with src/ importable."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)


def shell(*args):
    """`python -m catmoments.cli ARGS`, as a shell user runs it."""
    return python("-m", "catmoments.cli", *args)


def test_closed_stdout_exits_141_without_a_traceback():
    # as `gen ... | head -c 20`: the reader takes 20 bytes of about 420 kB
    # and closes the pipe, so print meets EPIPE past the pipe's buffer
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    with subprocess.Popen([sys.executable, "-m", "catmoments.cli", "gen", "--name",
                           "factorial", "-n", "600"], env={**os.environ, "PYTHONPATH": path},
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as process:
        assert process.stdout.read(20) == b"1 1 2 6 24 120 720 5"
        process.stdout.close()
        assert process.wait(timeout=120) == catmoments.cli.EXIT_BROKEN_PIPE == 141
        assert process.stderr.read() == b""


def test_one_shot_entry_point():
    result = shell("--help")
    assert result.returncode == 0
    for command in ("gen", "matrix", "stieltjes", "hankel-det", "tp", "series", "verify",
                    "catalog"):
        assert command in result.stdout
    result = shell("catalog")
    assert result.returncode == 0 and "catalan" in result.stdout
    result = shell("gen", "-n", "-1")
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == "error: -n must be >= 0, got -1\n"


def test_the_lowest_digit_limit_prints_the_same_bytes():
    # 640 digits is the lowest limit the interpreter can be set to: no piece
    # handed to str() or int() may be longer, on terms of 5,382 digits and on
    # a 5,000-digit string read and printed back
    digits = "99" + "0" * 700 + "1234567" * 614
    read_back = ("import sys; from catmoments.exact import as_rat, format_rat; "
                 "print(*(format_rat(as_rat(v)) for v in sys.argv[1:]))")
    for args in (("-m", "catmoments.cli", *golden_cases()["gen-wide256-n70"]),
                 ("-c", read_back, digits, f"-{digits}/7")):
        lowest, default = python("-X", "int_max_str_digits=640", *args), python(*args)
        assert (lowest.returncode, lowest.stderr) == (0, "")
        assert lowest.stdout == default.stdout and len(max(default.stdout.split(), key=len)) > 5000


def test_import_builds_no_parser():
    result = python("-c", "import catmoments.cli as c; print(c._parser.cache_info().currsize, "
                          "c._command_parser.cache_info().currsize)")
    assert (result.returncode, result.stdout) == (0, "0 0\n")


def test_import_loads_json_only_when_a_job_needs_it():
    # a text job on a named entry reads and writes no JSON; a JSON job loads it
    code = ("import sys, catmoments.cli as c; loaded = 'json' in sys.modules; "
            "c.main(['gen', '--name', 'catalan', '-n', '3']); text = 'json' in sys.modules; "
            "c.main(['gen', '--name', 'catalan', '-n', '3', '--format', 'json']); "
            "print(loaded, text, 'json' in sys.modules)")
    result = python("-c", code)
    assert (result.returncode, result.stdout.splitlines()[-1]) == (0, "False False True")


# ------------------------------------------------- the JSON input boundary

VALID_GF_SPECS = (
    {"kind": "closed_form", "p": "1", "q": "2", "s": "3", "t": "2"},
    {"kind": "tied_q", "p": "1", "s": "3", "t": "1/2"},
    {"kind": "tied_qp", "s": "2", "t": "1"},
    {"kind": "inverse_sqrt", "s": "3", "t": "2"},
    {"kind": "named", "name": "catalan"},
)
VALID_SIGMA = {"prefix": ["1/2", "2"], "tail": {"kind": "polynomial", "coeffs": ["1", "1/3"]},
               "start": 0}
VALID_TAU = {"prefix": ["1"], "tail": {"kind": "constant", "value": "2"}, "start": 1}

# JSON values of every type, with strings that are valid somewhere among them
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6)
    | st.sampled_from(["named", "tied_q", "constant", "polynomial", "catalan", "-1", "1/0"]),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


def _replaced(spec: dict, path: tuple, value) -> dict:
    """A deep copy of spec with the field at path set to value."""
    spec = json.loads(json.dumps(spec))
    *parents, last = path
    inner = spec
    for key in parents:
        inner = inner[key]
    inner[last] = value
    return spec


def _field_paths(spec: dict) -> list[tuple]:
    """Every field of spec, and every field of an object nested in it."""
    paths = []
    for key, value in spec.items():
        paths.append((key,))
        if isinstance(value, dict):
            paths.extend((key, sub) for sub in value)
    return paths


@settings(max_examples=150, deadline=None)
@given(data=st.data(), value=json_values)
def test_any_json_field_exits_0_or_2(data, value):
    target = data.draw(st.sampled_from(("gf", "sigma", "tau")))
    if target == "gf":
        spec = data.draw(st.sampled_from(VALID_GF_SPECS))
        spec = _replaced(spec, data.draw(st.sampled_from(_field_paths(spec))), value)
        argv = ["series", "--gf", json.dumps(spec), "-n", "4"]
    else:
        weights = {"sigma": VALID_SIGMA, "tau": VALID_TAU}
        spec = weights[target]
        weights[target] = _replaced(spec, data.draw(st.sampled_from(_field_paths(spec))), value)
        argv = ["gen", "--sigma", json.dumps(weights["sigma"]),
                "--tau", json.dumps(weights["tau"]), "-n", "4"]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in (0, 2)
    if code == 2:
        assert stdout.getvalue() == "" and stderr.getvalue().startswith("error: ")

"""Command-line front end: generation, certification, series expansion, and
cross-verification with machine-readable output.

Subcommands: gen, matrix, stieltjes, hankel-det, tp, series, verify,
catalog.  Every number prints as an exact integer or "p/q" string; --format
selects text, json, or csv.  Exit codes: 0 for success or PASS, 1 for a
checked FAIL (or a certification that came back FALSE), 2
for usage and parse errors, including a count option (-n, --depth) out of
its range (gen, matrix and series cap -n; stieltjes, hankel-det, tp and
verify cap --depth), two weight sources at once (a name with --sigma/--tau,
or --terms or --pqst with either) and a JSON field no reader knows; 141
(128 + SIGPIPE) when stdout is closed before the output is written, as by
`| head`, with no traceback.  No environment variable is read.

stieltjes reads both Hankel families off weight products (see hankel): a
weight pair, named or given by --sigma/--tau, gives them directly, and
explicit --terms are inverted to their weights, which must replay to every
term.  Terms that do not invert or replay have their Hankel sections
evaluated instead, off the same Chebyshev walk that read their weights, which
a zero leading minor sends on to an exact semidefiniteness test.  The
sections of the terms stay the independent cross check of the products:
hankel-det prints each minor against its product, and verify
compares the whole report with the weight route's.  Both commands keep
every determinant an int over its known denominator, from the weights or
the terms to the printed digits: hankel-det hands the terms' ints L^n m_n
to the walk, puts each minor over its power of L and compares it with its
product by cross-multiplication, and no Fraction is made per determinant.

Each cmd_* function computes its whole result and returns it as (exit code,
JSON object, CSV rows with the header first, text), all built from the same
number strings (gen, matrix and series: from ints over their denominators,
or from exact Decimals, no Fraction per number); main prints the format
asked for, once, so a command that fails prints only its error message.
Every command reads the weights as ints over one L (recursive.read_weights)
and passes them on.  gen and hankel-det take the terms of weights constant
after their first entry, and series the coefficients of every generating
function spec, from one routine, the closed form's recurrence (O(1)
operations a term): hankel-det as ints over L^k, gen and series printed
(series._constant_tail_strs, on exact Decimals when L = 1 and the terms are
wide); gen takes those of any other pair from the recursive matrix's
triangle.  verify keeps the triangle
(recursive.catalan_like) as the independent check of the generating
functions, and compares J's minor chain with elimination as int pairs.

COMMANDS gives each command its help line, its options in help order and
its cmd_*.  main parses argv[1:] with the parser of the command argv[0]
names alone, built on first use and kept; argv led by no command (none,
--help, an unknown name), or with arguments that parser leaves over, goes
to the full parser, built once, whose help and usage errors name the whole
program.  build_parser returns a new full parser per call, from the same
table; importing the module builds no parser.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
from fractions import Fraction

from .exact import (
    TRUE,
    _int_leading_minors,
    _same_values,
    as_rat,
    format_over,
    format_rat,
    format_row,
)
from .hankel import (
    DEFAULT_DEPTH,
    FAIL,
    PASS,
    StieltjesReport,
    _section_minors,
    _weight_families,
    stieltjes_check,
    stieltjes_weights,
    verify_H_eq_RTRt,
)
from .jacobi import (
    JacobiParams,
    _int_section,
    _minor_chain,
    tp_certify,
    tp_criterion_pqst,
)
from .recursive import (
    ORACLE_MAX_LENGTH,
    _scaled_rows,
    catalan_like,
    motzkin_oracle,
    read_weights,
    verify_RJ_identity,
    verify_step_factorization,
)
from .seqspec import CATALOG, CatalogEntry, SequenceSpec, catalog_lookup, pqst_of
from .series import (
    DEFAULT_ORDER,
    GFSpec,
    _constant_tail_pairs,
    _constant_tail_strs,
    _gf_weights,
    gf_expand,
    gf_from_json,
    gf_to_json,
    riordan_column_check,
)


# exit code when stdout is closed before the output is written: 128 + SIGPIPE
EXIT_BROKEN_PIPE = 141


class UsageError(ValueError):
    """Bad command-line input; reported on stderr with exit code 2, like
    every ValueError a command raises."""


def _read_arg_payload(text: str) -> str:
    """Resolve @path arguments to file contents."""
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as handle:
                return handle.read()
        except OSError as exc:
            raise UsageError(f"cannot read {text[1:]}: {exc}") from exc
    return text


def parse_spec_arg(text: str, expected_start: int, flag: str) -> SequenceSpec:
    import json                     # on demand: a job that reads and writes no JSON skips it
    payload = _read_arg_payload(text)
    try:
        data = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{flag}: not valid JSON: {exc}") from exc
    try:
        spec = SequenceSpec.from_json(data)
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from exc
    if spec.start != expected_start:
        raise UsageError(f"{flag}: start must be {expected_start}, got {spec.start}")
    return spec


def parse_terms_arg(text: str) -> list[Fraction]:
    pieces = [p for p in re.split(r"[\s,]+", _read_arg_payload(text).strip()) if p]
    if not pieces:
        raise UsageError("--terms: no values given")
    try:
        return [as_rat(p) for p in pieces]
    except ValueError as exc:
        raise UsageError(f"--terms: {exc}") from exc


def parse_pqst_arg(text: str) -> JacobiParams:
    pieces = [p for p in re.split(r"[\s,]+", text.strip()) if p]
    if len(pieces) != 4:
        raise UsageError(f"--pqst: need exactly 4 values p,q,s,t, got {len(pieces)}")
    try:
        return JacobiParams(*[as_rat(p) for p in pieces])
    except ValueError as exc:
        raise UsageError(f"--pqst: {exc}") from exc


def parse_gf_arg(text: str):
    payload = _read_arg_payload(text)
    stripped = payload.strip()
    if not stripped.startswith("{"):
        try:
            return GFSpec("named", (stripped,))
        except ValueError as exc:
            raise UsageError(f"--gf: {exc}") from exc
    import json
    try:
        data = json.loads(stripped)
    except json.JSONDecodeError as exc:
        raise UsageError(f"--gf: not valid JSON: {exc}") from exc
    try:
        return gf_from_json(data)
    except ValueError as exc:
        raise UsageError(f"--gf: {exc}") from exc


# the largest -n, about where factorial, the fastest-growing catalog entry,
# takes 10 s as a process (polynomial tails set it: constant tails skip the
# triangle); matrix output grows as n**3 (770 MiB at 800);
# series by the slowest named form, delannoy or schroder_large
GEN_MAX_N, MATRIX_MAX_N, SERIES_MAX_N = 4000, 800, 10_000
# the largest --depth by the same rule, but for tp: its section route is
# linear in the depth and decides every section, far below that rule's cap
STIELTJES_MAX_DEPTH, HANKEL_DET_MAX_DEPTH, VERIFY_MAX_DEPTH, TP_MAX_DEPTH = 230, 85, 75, 2000


def check_count(option: str, value: int, low: int, high: float = math.inf) -> None:
    """Refuse a count option (-n, --depth) outside low..high before any work starts."""
    if not low <= value <= high:
        bound = f">= {low}" if value < low else f"<= {high}"
        raise UsageError(f"{option} must be {bound}, got {value}")


def lookup_entry(name: str) -> CatalogEntry:
    """The catalog entry of a name or alias; an unknown name is a usage error."""
    try:
        return catalog_lookup(name)
    except KeyError as exc:
        raise UsageError(str(exc.args[0])) from exc


def resolve_weights(args) -> tuple[SequenceSpec, SequenceSpec, str | None]:
    """Weight pair from --name (tp: --jacobi-name) or --sigma/--tau, plus the
    name when named; both sources at once is an error."""
    name = getattr(args, "name", None) or getattr(args, "jacobi_name", None)
    if name is not None:
        if (args.sigma, args.tau) != (None, None):
            flag = "--jacobi-name" if hasattr(args, "jacobi_name") else "--name"
            raise UsageError(f"give {flag} or --sigma/--tau, not both")
        entry = lookup_entry(name)
        return entry.sigma, entry.tau, entry.name
    if args.sigma is None or args.tau is None:
        raise UsageError("provide either a catalog name or both --sigma and --tau")
    return parse_spec_arg(args.sigma, 0, "--sigma"), parse_spec_arg(args.tau, 1, "--tau"), None


# what every cmd_* returns: (exit code, JSON value, CSV rows with the header
# first, text-mode output)
Rendered = tuple[int, object, list, str]


def _named(name: str | None, data: dict) -> dict:
    """A weight pair's JSON object, led by its catalog name when it has one."""
    return {"name": name, **data} if name else data


def _term_ints(sigma: SequenceSpec, tau: SequenceSpec, n: int, weights=None) -> list:
    """(num, den) of terms 0..n, term k = num / den.  Weights constant after
    their first entry go by the closed form's recurrence (series), O(1) int
    operations a term; any other pair by the triangle's column 0, on the
    int weights read_weights(sigma, tau, n, True) unless the caller has read them."""
    pqst = pqst_of(sigma, tau)
    if pqst is not None:
        return _constant_tail_pairs(*pqst, n)
    rows = _scaled_rows(*(weights or read_weights(sigma, tau, n, True)), n, True)
    return [(row[0], den) for row, den in rows]


def cmd_gen(args) -> Rendered:
    check_count("-n", args.n, 0, GEN_MAX_N)
    sigma, tau, name = resolve_weights(args)
    pqst = pqst_of(sigma, tau)
    terms = (_constant_tail_strs(*pqst, args.n) if pqst is not None
             else [format_over(num, den) for num, den in _term_ints(sigma, tau, args.n)])
    data = {"sigma": sigma.to_json(), "tau": tau.to_json(), "n": args.n, "terms": terms}
    return 0, _named(name, data), [("n", "term"), *enumerate(terms)], " ".join(terms)


def cmd_matrix(args) -> Rendered:
    check_count("-n", args.n, 0, MATRIX_MAX_N)
    sigma, tau, name = resolve_weights(args)
    rows = [format_row(row, den)
            for row, den in _scaled_rows(*read_weights(sigma, tau, args.n), args.n)]
    data = {"sigma": sigma.to_json(), "tau": tau.to_json(), "rows": rows}
    return 0, _named(name, data), rows, "\n".join(" ".join(row) for row in rows)


def cmd_stieltjes(args) -> Rendered:
    check_count("--depth", args.depth, 0, STIELTJES_MAX_DEPTH)
    if args.terms is not None:
        if (args.name, args.sigma, args.tau) != (None, None, None):
            raise UsageError("give --terms or a weight pair (--name, --sigma/--tau), not both")
        report, name = stieltjes_check(parse_terms_arg(args.terms), args.depth), None
    else:
        sigma, tau, name = resolve_weights(args)
        report = stieltjes_weights(sigma, tau, args.depth)
    data = _named(name, report.to_json())
    table = [("k", "det0", "det1"), *zip(range(report.depth + 1), data["dets0"], data["dets1"])]
    lines = [f"verdict: {report.verdict} (depth {report.depth})"]
    lines += [" ".join(map(str, row)) for row in table]
    if report.witness:
        w = report.witness
        where = f"at k={w['k']}" if "k" in w else f"rows {w['rows']}"
        lines.append(f"first negative: {w['family']} {where} value {w['value']}")
    return 0 if report.verdict == PASS else 1, data, table, "\n".join(lines)


def cmd_hankel_det(args) -> Rendered:
    check_count("--depth", args.depth, 0, HANKEL_DET_MAX_DEPTH)
    sigma, tau, name = resolve_weights(args)
    top = 2 * args.depth + args.shift
    # t_1..t_depth, and s_0..s_depth at shift 1: the terms and the products
    weights = read_weights(sigma, tau, top, True)
    pairs = _term_ints(sigma, tau, top, weights)
    # N_n = L^n m_n: [N_{i+j+shift}] is [m_{i+j+shift}] with row i times L^i and column j
    # times L^(j+shift), so each minor is over the product of the dens on its diagonal
    minors, = _section_minors([num for num, _ in pairs], 1, args.depth, (args.shift,))
    # each family against its weight-product form, det H_k = T_0 ... T_k and
    # det H^(1)_k = D_k T_0 ... T_k, by cross-multiplication; a product is
    # printed again only when it differs
    rows, lines, den = [], [], 1
    for k, ((num, _), (p, q)) in enumerate(zip(minors, _weight_families(*weights)[args.shift])):
        den *= pairs[2 * k + args.shift][1]
        det, match = format_over(num, den), num * q == p * den
        rows.append({"k": k, "det": det, "product": det if match else format_over(p, q),
                     "match": match})
        lines.append(f"k={k} det={det} product={rows[k]['product']} "
                     + ("ok" if match else "MISMATCH"))
    data = {"depth": args.depth, "shift": args.shift, "rows": rows}
    table = [tuple(rows[0]), *(tuple(row.values()) for row in rows)]
    code = 0 if all(row["match"] for row in rows) else 1
    return code, _named(name, data), table, "\n".join(lines)


def cmd_tp(args) -> Rendered:
    check_count("--depth", args.depth, 0, TP_MAX_DEPTH)
    if args.pqst is not None:
        if (args.jacobi_name, args.sigma, args.tau) != (None, None, None):
            raise UsageError("give --pqst or weights (--jacobi-name, --sigma/--tau), not both")
        params = parse_pqst_arg(args.pqst)
        report = tp_criterion_pqst(params)
        data = {"params": params.to_json(), **report.to_json()}
    else:
        sigma, tau, name = resolve_weights(args)
        report = tp_certify(sigma, tau, args.depth)
        data = _named(name, report.to_json())
    table = [("key", "value"), *((k, v) for k, v in data.items() if v is not None)]
    # a symbolic criterion holds at every depth and reports none
    depth = "" if report.depth is None else f", depth {report.depth}"
    lines = [f"verdict: {report.verdict} (criterion {report.criterion}{depth})"]
    if report.detail:
        lines.append(report.detail)
    if report.witness:
        w = report.witness
        lines.append(f"witness: rows {w['rows']} cols {w['cols']} value {w['value']}")
    return 0 if report.verdict == TRUE else 1, data, table, "\n".join(lines)


def cmd_series(args) -> Rendered:
    check_count("-n", args.n, 0, SERIES_MAX_N)
    gf = parse_gf_arg(args.gf)
    coeffs = _constant_tail_strs(*_gf_weights(gf), args.n)
    data = {"spec": gf_to_json(gf), "order": args.n, "coeffs": coeffs}
    return 0, data, [("n", "coeff"), *enumerate(coeffs)], " ".join(coeffs)


def verify_checks(entry: CatalogEntry, depth: int) -> list[tuple[str, bool]]:
    """The cross-check bundle for one catalog entry at one depth; the three
    identity checks and J's section share one read of s_0..s_{d+1} and
    t_1..t_{d+1} as ints over L, R as the recurrence's int rows, and one
    term list."""
    sigma, tau = entry.sigma, entry.tau
    terms = catalan_like(sigma, tau, max(2 * depth + 1, 16))
    s, t, scale = weights = read_weights(sigma, tau, depth + 2)
    R = list(_scaled_rows(*weights, depth + 1))
    checks: list[tuple[str, bool]] = []

    checks.append(("reference_terms",
                   tuple(terms[:8]) == entry.reference_terms))
    oracle_depth = min(depth, 10, ORACLE_MAX_LENGTH)
    checks.append(("oracle", all(
        motzkin_oracle(sigma, tau, n) == terms[n] for n in range(oracle_depth + 1))))
    # the step factorization is the shift identity one row deeper, so only
    # its failure leaves the shift identity at depth to check on its own
    step = verify_step_factorization(R, *weights, depth) == TRUE
    checks.append(("shift_identity", step or verify_RJ_identity(R, *weights, depth) == TRUE))
    checks.append(("step_factorization", step))
    checks.append(("hankel_factorization", verify_H_eq_RTRt(R, t, scale, terms, depth) == TRUE))
    stieltjes = StieltjesReport.by_elimination(terms, depth)
    # the terms' Hankel sections against the weight products, whole report
    checks.append(("det_product", stieltjes == stieltjes_weights(sigma, tau, depth)))
    checks.append(("stieltjes", stieltjes.verdict == PASS))
    section = (s[:depth + 1], t[:depth], scale)
    checks.append(("leading_minors_vs_det", _same_values(
        _minor_chain(*section, 0), _int_leading_minors(*_int_section(*section)))))
    checks.append(("tp_certified", tp_certify(sigma, tau, depth).verdict == TRUE))
    if entry.gf is not None:
        checks.append(("gf_terms", list(gf_expand(entry.gf, depth)) == terms[: depth + 1]))
    pqst = pqst_of(sigma, tau)
    if pqst is not None:
        checks.append(("riordan_columns",
                       riordan_column_check(*pqst, order=depth,
                                            k_max=min(5, depth)) == TRUE))
    return checks


def cmd_verify(args) -> Rendered:
    check_count("--depth", args.depth, 1, VERIFY_MAX_DEPTH)
    entry = lookup_entry(args.name)
    checks = [(label, PASS if ok else FAIL) for label, ok in verify_checks(entry, args.depth)]
    failed = [label for label, status in checks if status == FAIL]
    verdict = FAIL if failed else PASS
    data = {"name": entry.name, "depth": args.depth,
            "checks": [{"check": label, "status": status} for label, status in checks],
            "verdict": verdict}
    width = max(len(label) for label, _ in checks)
    lines = [f"{label:<{width}}  {status}" for label, status in checks]
    lines.append(f"verdict: {verdict} (depth {args.depth})"
                 + (f", first failing check: {failed[0]}" if failed else ""))
    return 1 if failed else 0, data, [("check", "status"), *checks], "\n".join(lines)


def cmd_catalog(args) -> Rendered:
    entries = list(CATALOG.values())
    rows = [(entry.name, " ".join(format_rat(v) for v in entry.reference_terms),
             entry.gf.params[0] if entry.gf else "") for entry in entries]
    width = max(len(name) for name, _, _ in rows)
    text = "\n".join(f"{name:<{width}}  {terms}" + (f"  gf={gf}" if gf else "")
                     for name, terms, gf in rows)
    return 0, [entry.to_json() for entry in entries], [("name", "terms", "gf"), *rows], text


def _opt(flag: str, help: str, **settings) -> tuple:
    return flag, {"help": help, **settings}


def _count(flag: str, what: str, cap: int, default: int = DEFAULT_DEPTH) -> tuple:
    return _opt(flag, f"{what} (default {default}, at most {cap})", type=int, default=default)


_FORMAT = _opt("--format", "output format (default: text)", choices=("text", "json", "csv"),
               default="text")
_WEIGHTS = (_FORMAT, _opt("--name", "catalog sequence name"),
            _opt("--sigma", "diagonal weight spec as JSON or @file (start 0)", metavar="SPEC"),
            _opt("--tau", "subdiagonal weight spec as JSON or @file (start 1)", metavar="SPEC"))

# name -> (help line, options in the order help prints them, cmd_*)
COMMANDS = {
    "gen": ("generate sequence terms 0..N", (*_WEIGHTS, _count("-n", "last index", GEN_MAX_N)),
            cmd_gen),
    "matrix": ("dump the recursive matrix triangle",
               (*_WEIGHTS, _count("-n", "last row", MATRIX_MAX_N)), cmd_matrix),
    "stieltjes": ("evaluate both Hankel determinant families", (
        *_WEIGHTS, _opt("--terms", "explicit comma-separated terms (alternative to specs)",
                        metavar="LIST"),
        _count("--depth", "largest section index", STIELTJES_MAX_DEPTH)), cmd_stieltjes),
    "hankel-det": ("Hankel determinants against the weight-product formula", (
        *_WEIGHTS, _count("--depth", "largest section index", HANKEL_DET_MAX_DEPTH),
        _opt("--shift", "0 for [m_{i+j}], 1 for [m_{i+j+1}] (default 0)", type=int,
             choices=(0, 1), default=0)), cmd_hankel_det),
    "tp": ("certify total positivity of a coefficient matrix", (
        _FORMAT, _opt("--pqst", "exact criterion for weights constant after the first entry",
                      metavar="P,Q,S,T"),
        _opt("--jacobi-name", "catalog name for the weight pair"),
        _opt("--sigma", "diagonal weight spec (start 0)", metavar="SPEC"),
        _opt("--tau", "subdiagonal weight spec (start 1)", metavar="SPEC"),
        _count("--depth", "section depth for bounded routes", TP_MAX_DEPTH)), cmd_tp),
    "series": ("expand a generating function spec", (
        _FORMAT, _opt("--gf", "named gf or JSON spec with a 'kind' field, or @file",
                      required=True, metavar="SPEC"),
        _count("-n", "truncation order", SERIES_MAX_N, DEFAULT_ORDER)), cmd_series),
    "verify": ("run the full cross-check bundle for a catalog entry", (
        _FORMAT, _opt("--name", "catalog sequence name", required=True),
        _count("--depth", "check depth", VERIFY_MAX_DEPTH)), cmd_verify),
    "catalog": ("list the catalog entries", (_FORMAT,), cmd_catalog),
}


def _add_options(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    for flag, settings in COMMANDS[name][1]:
        parser.add_argument(flag, **settings)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """A new full parser, every command a subparser."""
    parser = argparse.ArgumentParser(prog="catmoments", description=(
        "Exact generation and Stieltjes moment certification of sequences driven by "
        "three-term weight recurrences."))
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (line, _, _) in COMMANDS.items():
        _add_options(sub.add_parser(name, help=line), name)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The full parser main falls back to, built on first use and kept."""
    return build_parser()


@functools.cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    """One command's parser alone, as build_parser() builds its subparser; kept."""
    return _add_options(argparse.ArgumentParser(prog=f"catmoments {name}"), name)


def _csv_cell(value) -> str:
    if isinstance(value, (bool, dict)):
        import json
        return json.dumps(value)
    return str(value)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    name = argv[0] if argv and argv[0] in COMMANDS else None
    if name is not None:
        args, extra = _command_parser(name).parse_known_args(argv[1:])
    if name is None or extra:
        # no command first, or arguments left over: the full parser's answer
        args = _parser().parse_args(argv)
        name = args.command
    try:
        code, data, table, text = COMMANDS[name][2](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        import json
        text = json.dumps(data)
    elif args.format == "csv":
        text = "\n".join(",".join(map(_csv_cell, row)) for row in table)
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader has gone: point stdout at devnull, so the flush at exit
        # does not raise again, and exit as a process killed by SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

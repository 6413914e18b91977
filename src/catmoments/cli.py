"""Command-line front end: generation, certification, series expansion, and
cross-verification with machine-readable output.

Subcommands: gen, matrix, stieltjes, hankel-det, tp, series, verify,
catalog.  Every number prints as an exact integer or "p/q" string; --format
selects text, json, or csv.  Exit codes: 0 for success or PASS, 1 for a
checked FAIL (or a certification that came back FALSE or INCONCLUSIVE), 2
for usage and parse errors, including a count option (-n, --depth) out of
its range (gen, matrix and series cap -n; stieltjes, hankel-det, tp and
verify cap --depth), two weight sources at once (a name with --sigma/--tau,
or --terms or --pqst with either) and a JSON field no reader knows; 141
(128 + SIGPIPE) when stdout is closed before the output is written, as by
`| head`, with no traceback.  No environment variable is read.

stieltjes reads both Hankel families off weight products (see hankel): a
weight pair, named or given by --sigma/--tau, gives them directly, and
explicit --terms are inverted to their weights, which must replay to every
term.  Terms that do not invert or replay go through elimination on the
Hankel sections instead, which a zero leading minor sends on to an exact
semidefiniteness test.  Elimination stays the independent cross check of
the products: hankel-det prints it against them, and verify compares its
whole report with the weight route's.  Both commands keep every
determinant an int over its known denominator, from the weights or the
terms to the printed digits: hankel-det hands the terms' ints at one
common scale to the elimination and compares each minor with its product
by cross-multiplication, and no Fraction is made per determinant.

Each cmd_* function computes its whole result and returns it as
(exit code, JSON object, CSV rows with the header first, text), all built
from the same number strings (gen and matrix: from ints over powers of
one denominator, no Fraction per cell); main prints the format asked for,
once.  gen and hankel-det take the terms of weights constant after their
first entry from the closed form's recurrence (series, O(1) int operations
a term) and of any other pair from the recursive matrix's triangle; verify
keeps the triangle (recursive.catalan_like) as the independent check of
the generating functions.
Nothing reaches stdout before a command has finished, so a command that
fails prints only its error message.

build_parser returns a new parser on every call; main builds one on first
use, not at import, and keeps it for the process.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import operator
import os
import re
import sys
from fractions import Fraction
from itertools import accumulate, starmap

from .exact import TRUE, _int_leading_minors, _over, as_rat, format_over, format_rat, format_row
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
from .jacobi import JacobiParams, _int_section, tp_certify, tp_criterion_pqst, window_minors
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
    _constant_tail_ints,
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
# the largest --depth by the same rule; tp's contiguous scan passes its
# window budget at depth 1999, and the cap leaves that reachable
STIELTJES_MAX_DEPTH, HANKEL_DET_MAX_DEPTH, VERIFY_MAX_DEPTH, TP_MAX_DEPTH = 230, 85, 75, 2000


def check_count(option: str, value: int, low: int, high: float = math.inf) -> None:
    """Refuse a count option (-n, --depth) outside low..high before any work starts."""
    if not low <= value <= high:
        bound = f">= {low}" if value < low else f"<= {high}"
        raise UsageError(f"{option} must be {bound}, got {value}")


def resolve_weights(args) -> tuple[SequenceSpec, SequenceSpec, str | None]:
    """Weight pair from --name (tp: --jacobi-name) or --sigma/--tau, plus the
    name when named; both sources at once is an error."""
    name = getattr(args, "name", None) or getattr(args, "jacobi_name", None)
    if name is not None:
        if (args.sigma, args.tau) != (None, None):
            flag = "--jacobi-name" if hasattr(args, "jacobi_name") else "--name"
            raise UsageError(f"give {flag} or --sigma/--tau, not both")
        try:
            entry = catalog_lookup(name)
        except KeyError as exc:
            raise UsageError(str(exc.args[0])) from exc
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
    weights read_weights(sigma, tau, n, True) unless the caller has read them."""
    pqst = pqst_of(sigma, tau)
    if pqst is not None:
        nums, scale = _constant_tail_ints(*pqst, n)
        return list(zip(nums, accumulate([1, *[scale] * n], operator.mul)))
    rows = _scaled_rows(*(weights or read_weights(sigma, tau, n, True)), n, True)
    return [(row[0], den) for row, den in rows]


def cmd_gen(args) -> Rendered:
    check_count("-n", args.n, 0, GEN_MAX_N)
    sigma, tau, name = resolve_weights(args)
    terms = [format_over(num, den) for num, den in _term_ints(sigma, tau, args.n)]
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
    s, t = read_weights(sigma, tau, top, True)
    pairs = _term_ints(sigma, tau, top, (s, t))
    scale = pairs[-1][1]                            # L^top: every term's den divides it
    ints = [num * (scale // den) for num, den in pairs[args.shift:]]
    g = math.gcd(scale, *ints)                      # down to the LCM of the reduced dens
    minors = _section_minors([v // g for v in ints], scale // g, args.depth)
    # each family against its weight-product form, det H_k = T_0 ... T_k and
    # det H^(1)_k = D_k T_0 ... T_k, by cross-multiplication; a product is
    # printed again only when it differs
    rows, lines = [], []
    for k, ((num, den), (p, q)) in enumerate(zip(minors, _weight_families(s, t)[args.shift])):
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
    coeffs = [format_rat(c) for c in gf_expand(gf, args.n).coeffs]
    data = {"spec": gf_to_json(gf), "order": args.n, "coeffs": coeffs}
    return 0, data, [("n", "coeff"), *enumerate(coeffs)], " ".join(coeffs)


def verify_checks(entry: CatalogEntry, depth: int) -> list[tuple[str, bool]]:
    """The cross-check bundle for one catalog entry at one depth; the three
    identity checks and J's section share one read of s_0..s_{d+1} and
    t_1..t_{d+1}, R as the recurrence's int rows, and one term list."""
    sigma, tau = entry.sigma, entry.tau
    terms = catalan_like(sigma, tau, max(2 * depth + 1, 16))
    s, t = read_weights(sigma, tau, depth + 2)
    R = list(_scaled_rows(s, t, depth + 1))
    checks: list[tuple[str, bool]] = []

    checks.append(("reference_terms",
                   tuple(terms[:8]) == entry.reference_terms))
    oracle_depth = min(depth, 10, ORACLE_MAX_LENGTH)
    checks.append(("oracle", all(
        motzkin_oracle(sigma, tau, n) == terms[n] for n in range(oracle_depth + 1))))
    # the step factorization is the shift identity one row deeper, so only
    # its failure leaves the shift identity at depth to check on its own
    step = verify_step_factorization(R, s, t, depth) == TRUE
    checks.append(("shift_identity", step or verify_RJ_identity(R, s, t, depth) == TRUE))
    checks.append(("step_factorization", step))
    checks.append(("hankel_factorization", verify_H_eq_RTRt(R, t, terms, depth) == TRUE))
    stieltjes = StieltjesReport.by_elimination(terms, depth)
    # elimination on the terms against the weight products, whole report
    checks.append(("det_product", stieltjes == stieltjes_weights(sigma, tau, depth)))
    checks.append(("stieltjes", stieltjes.verdict == PASS))
    checks.append(("leading_minors_vs_det", tuple(window_minors(s[:depth + 1], t, 0)) == tuple(
        starmap(_over, _int_leading_minors(*_int_section(s[:depth + 1], t[:depth]))))))
    checks.append(("tp_certified", tp_certify(sigma, tau, depth).verdict == TRUE))
    if entry.gf is not None:
        expansion = gf_expand(entry.gf, depth)
        checks.append(("gf_terms", list(expansion.coeffs) == terms[: depth + 1]))
    pqst = pqst_of(sigma, tau)
    if pqst is not None:
        checks.append(("riordan_columns",
                       riordan_column_check(*pqst, order=depth,
                                            k_max=min(5, depth)) == TRUE))
    return checks


def cmd_verify(args) -> Rendered:
    check_count("--depth", args.depth, 1, VERIFY_MAX_DEPTH)
    try:
        entry = catalog_lookup(args.name)
    except KeyError as exc:
        raise UsageError(str(exc.args[0])) from exc
    checks = [(label, PASS if ok else FAIL) for label, ok in verify_checks(entry, args.depth)]
    failed = [label for label, status in checks if status == FAIL]
    verdict = FAIL if failed else PASS
    data = {"name": args.name, "depth": args.depth,
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


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "csv"), default="text",
                        help="output format (default: text)")

    named = argparse.ArgumentParser(add_help=False)
    named.add_argument("--name", help="catalog sequence name")
    named.add_argument("--sigma", metavar="SPEC",
                       help="diagonal weight spec as JSON or @file (start 0)")
    named.add_argument("--tau", metavar="SPEC",
                       help="subdiagonal weight spec as JSON or @file (start 1)")

    parser = argparse.ArgumentParser(
        prog="catmoments",
        description="Exact generation and Stieltjes moment certification of "
                    "sequences driven by three-term weight recurrences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[common, named],
                       help="generate sequence terms 0..N")
    p.add_argument("-n", type=int, default=DEFAULT_DEPTH,
                   help=f"last index (default 8, at most {GEN_MAX_N})")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("matrix", parents=[common, named],
                       help="dump the recursive matrix triangle")
    p.add_argument("-n", type=int, default=DEFAULT_DEPTH,
                   help=f"last row (default 8, at most {MATRIX_MAX_N})")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("stieltjes", parents=[common, named],
                       help="evaluate both Hankel determinant families")
    p.add_argument("--terms", metavar="LIST",
                   help="explicit comma-separated terms (alternative to specs)")
    p.add_argument("--depth", type=int, default=DEFAULT_DEPTH,
                   help=f"largest section index (default 8, at most {STIELTJES_MAX_DEPTH})")
    p.set_defaults(func=cmd_stieltjes)

    p = sub.add_parser("hankel-det", parents=[common, named],
                       help="Hankel determinants against the weight-product formula")
    p.add_argument("--depth", type=int, default=DEFAULT_DEPTH,
                   help=f"largest section index (default 8, at most {HANKEL_DET_MAX_DEPTH})")
    p.add_argument("--shift", type=int, choices=(0, 1), default=0,
                   help="0 for [m_{i+j}], 1 for [m_{i+j+1}] (default 0)")
    p.set_defaults(func=cmd_hankel_det)

    p = sub.add_parser("tp", parents=[common],
                       help="certify total positivity of a coefficient matrix")
    p.add_argument("--pqst", metavar="P,Q,S,T",
                   help="exact criterion for weights constant after the first entry")
    p.add_argument("--jacobi-name", help="catalog name for the weight pair")
    p.add_argument("--sigma", metavar="SPEC", help="diagonal weight spec (start 0)")
    p.add_argument("--tau", metavar="SPEC", help="subdiagonal weight spec (start 1)")
    p.add_argument("--depth", type=int, default=DEFAULT_DEPTH,
                   help=f"section depth for bounded routes (default 8, at most {TP_MAX_DEPTH})")
    p.set_defaults(func=cmd_tp)

    p = sub.add_parser("series", parents=[common],
                       help="expand a generating function spec")
    p.add_argument("--gf", required=True, metavar="SPEC",
                   help="named gf or JSON spec with a 'kind' field, or @file")
    p.add_argument("-n", type=int, default=DEFAULT_ORDER,
                   help=f"truncation order (default 16, at most {SERIES_MAX_N})")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("verify", parents=[common],
                       help="run the full cross-check bundle for a catalog entry")
    p.add_argument("--name", required=True, help="catalog sequence name")
    p.add_argument("--depth", type=int, default=DEFAULT_DEPTH,
                   help=f"check depth (default 8, at most {VERIFY_MAX_DEPTH})")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("catalog", parents=[common], help="list the catalog entries")
    p.set_defaults(func=cmd_catalog)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built on first use and kept for the process."""
    return build_parser()


def _csv_cell(value) -> str:
    return json.dumps(value) if isinstance(value, (bool, dict)) else str(value)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code, data, table, text = args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
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

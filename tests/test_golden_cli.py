"""Golden-output test of the command-line interface.

Each case runs `catmoments.cli.main(argv)` in-process and compares the
SHA-256 digests of its stdout and stderr, and its exit code, with the values
frozen in golden_cli.json.  Any change to a single output byte fails.

The cases cover every catalog entry under `gen -n 40` and `matrix -n 12` in
every format, one weight pair with rational prefix and polynomial tails,
both Hankel families, the Stieltjes check, verify and a few error paths.
After a deliberate output change, rewrite the file with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import hashlib
import io
import json
import pathlib

import pytest

from catmoments.cli import main
from catmoments.seqspec import CATALOG_NAMES

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_cli.json")

FORMATS = ("text", "json", "csv")

# distinct prime denominators in the prefix and in both polynomial tails
RATIONAL_SIGMA = json.dumps({"prefix": ["1/2", "-3/5"],
                             "tail": {"kind": "polynomial", "coeffs": ["1/3", "2/7"]},
                             "start": 0})
RATIONAL_TAU = json.dumps({"prefix": ["5/11"],
                           "tail": {"kind": "polynomial", "coeffs": ["1", "0", "1/13"]},
                           "start": 1})


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
        out[f"matrix-rational-{f}"] = ["matrix", *rational, "-n", "12"]
        out[f"hankel-det-rational-{f}"] = ["hankel-det", *rational, "--depth", "6"]
        out[f"hankel-det-shift-{f}"] = ["hankel-det", "--name", "bell", "--depth", "6",
                                        "--shift", "1", "--format", f]
    out["gen-n0"] = ["gen", "--name", "catalan", "-n", "0"]
    out["matrix-n0"] = ["matrix", "--name", "factorial", "-n", "0", "--format", "json"]
    out["gen-negative-n"] = ["gen", "--name", "catalan", "-n", "-1"]
    out["matrix-negative-n"] = ["matrix", "--name", "catalan", "-n", "-2"]
    out["gen-unknown-name"] = ["gen", "--name", "fibonacci"]
    out["gen-bad-json"] = ["gen", "--sigma", "{not json", "--tau", RATIONAL_TAU]
    out["gen-wrong-start"] = ["gen", "--sigma", RATIONAL_TAU, "--tau", RATIONAL_TAU]
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


@pytest.mark.parametrize("case", sorted(cases()))
def test_cli_bytes_unchanged(case):
    assert {"argv": cases()[case], **run_digest(cases()[case])} == GOLDEN[case]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps({case: {"argv": argv, **run_digest(argv)}
                                       for case, argv in sorted(cases().items())},
                                      indent=1) + "\n")

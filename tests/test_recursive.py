"""Tests for the recursive matrix, the path-enumeration oracle, and the
structural identities."""

import json
from fractions import Fraction

import pytest

from catmoments.cli import main
from catmoments.exact import FALSE, TRUE
from catmoments.recursive import (
    _scaled_rows,
    catalan_like,
    motzkin_oracle,
    read_weights,
    verify_RJ_identity,
    verify_step_factorization,
)
from catmoments.seqspec import CATALOG, ConstantTail, SequenceSpec, catalog_lookup
from oracle import (
    build_recursive,
    cell,
    det_elimination,
    fraction_weight,
    record_weight_reads,
    recursive_section,
    step_matrix,
)


def _specs(name):
    entry = catalog_lookup(name)
    return entry.sigma, entry.tau


def _rows(name, depth):
    """The (row, den) pairs of rows 0..depth of R for a catalog entry, and
    its weights L s_0..L s_depth, L t_1..L t_depth and L."""
    weights = read_weights(*_specs(name), depth + 1)
    return (list(_scaled_rows(*weights, depth)), *weights)


def test_zero_weights_degenerate_to_pure_shift():
    zero_sigma = SequenceSpec.constant(0, start=0)
    zero_tau = SequenceSpec.constant(0, start=1)
    matrix = build_recursive(zero_sigma, zero_tau, 3)
    assert matrix == [(1,), (0, 1), (0, 0, 1), (0, 0, 0, 1)]


def test_catalan_column_zero():
    sigma, tau = _specs("catalan")
    assert catalan_like(sigma, tau, 4) == [1, 1, 2, 5, 14]


def test_bell_column_zero():
    sigma, tau = _specs("bell")
    assert catalan_like(sigma, tau, 5) == [1, 1, 2, 5, 15, 52]


def test_triangle_shape_and_unit_diagonal():
    sigma, tau = _specs("delannoy")
    matrix = build_recursive(sigma, tau, 6)
    assert len(matrix) == 7
    for n in range(7):
        assert type(matrix[n]) is tuple and len(matrix[n]) == n + 1
        assert matrix[n][n] == 1


def test_out_of_triangle_reads_are_zero():
    # the rows end at the diagonal; the oracle reads zero past them
    sigma, tau = _specs("catalan")
    matrix = build_recursive(sigma, tau, 3)
    assert [len(row) for row in matrix] == [1, 2, 3, 4]
    assert cell(matrix, 2, 3) == 0
    assert cell(matrix, 1, -1) == 0
    assert cell(matrix, 4, 0) == 0


def test_entries_nonnegative_for_catalog_weights():
    for entry in CATALOG.values():
        matrix = build_recursive(entry.sigma, entry.tau, 8)
        for n in range(9):
            assert all(v >= 0 for v in matrix[n])


def test_section_is_unit_lower_triangular():
    sigma, tau = _specs("factorial")
    matrix = build_recursive(sigma, tau, 6)
    section = recursive_section(matrix, 6)
    assert det_elimination(section) == 1
    for i in range(7):
        for j in range(i + 1, 7):
            assert section[i, j] == 0


def test_oracle_trivial_lengths():
    sigma, tau = _specs("delannoy")
    assert motzkin_oracle(sigma, tau, 0) == 1
    assert motzkin_oracle(sigma, tau, 1) == fraction_weight(sigma, 0)


def test_oracle_catalan_length_two():
    # two paths: level-level (weight 1*1) and up-down (weight t_1 = 1)
    sigma, tau = _specs("catalan")
    assert motzkin_oracle(sigma, tau, 2) == 2


def test_oracle_matches_recurrence_for_catalog():
    for entry in CATALOG.values():
        terms = catalan_like(entry.sigma, entry.tau, 10)
        for n in range(11):
            assert motzkin_oracle(entry.sigma, entry.tau, n) == terms[n]


def test_oracle_reads_each_weight_once(monkeypatch):
    reads = record_weight_reads(monkeypatch)
    sigma = SequenceSpec((), ConstantTail(Fraction(1, 2)), 0)
    tau = SequenceSpec((Fraction(3),), ConstantTail(Fraction(2)), 1)
    terms = catalan_like(sigma, tau, 10)
    for n in range(11):
        reads.clear()
        assert motzkin_oracle(sigma, tau, n) == terms[n]
        half = range(n // 2 + 1)
        assert sorted((spec.start, k) for spec, k in reads) == \
            [(0, k) for k in half] + [(1, k) for k in half[1:]]


def test_oracle_rejects_long_paths():
    sigma, tau = _specs("catalan")
    with pytest.raises(ValueError):
        motzkin_oracle(sigma, tau, 15)


def test_oracle_handles_rational_weights():
    sigma = SequenceSpec.constant(Fraction(1, 2), start=0)
    tau = SequenceSpec.constant(Fraction(1, 3), start=1)
    assert motzkin_oracle(sigma, tau, 2) == Fraction(1, 4) + Fraction(1, 3)
    assert catalan_like(sigma, tau, 2)[2] == Fraction(1, 4) + Fraction(1, 3)


def test_shift_identity_holds_for_catalog():
    for name in ("catalan", "factorial"):
        assert verify_RJ_identity(*_rows(name, 6), 6) == TRUE


def test_shift_identity_rejects_mismatched_generators():
    matrix, *_ = _rows("catalan", 6)
    _, *weights = _rows("bell", 6)
    assert verify_RJ_identity(matrix, *weights, 6) == FALSE


def test_step_matrix_layout():
    sigma, tau = _specs("delannoy")
    L = step_matrix(sigma, tau, 1)
    assert L.rows == 3 and L.cols == 3
    assert [L[i, i] for i in range(3)] == [1, 1, 1]
    assert L[1, 0] == fraction_weight(sigma, 0) and L[2, 1] == fraction_weight(sigma, 1)
    assert L[2, 0] == fraction_weight(tau, 1)


def test_step_factorization_trivial_and_catalog():
    catalan = _rows("catalan", 6)
    assert verify_step_factorization(*catalan, 0) == TRUE
    assert verify_step_factorization(*catalan, 5) == TRUE
    assert verify_step_factorization(*_rows("bell", 6), 5) == TRUE


def test_step_factorization_all_catalog_depth_8():
    for name in CATALOG:
        assert verify_step_factorization(*_rows(name, 9), 8) == TRUE


def test_matrix_json_dump(capsys):
    # the JSON dump of the matrix is built by the matrix command
    assert main(["matrix", "--name", "catalan", "-n", "2", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["rows"] == [["1"], ["1", "1"], ["2", "3", "1"]]

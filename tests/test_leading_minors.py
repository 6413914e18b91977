"""Differential tests of the one-pass leading-minor kernel: against cofactor
expansion section by section, against one Bareiss elimination per Hankel
section, and a count of the per-section eliminations it still makes."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import catmoments.exact
from catmoments.exact import DenseMatrix, det_bareiss, leading_principal_minors
from catmoments.hankel import build_hankel, hankel_dets
from catmoments.recursive import catalan_like
from catmoments.seqspec import catalog_lookup
from oracle import det_cofactor, submatrix

# distinct primes, so that the row scales differ from row to row
DENOMINATORS = (1, 1, 1, 2, 3, 5, 7, 11, 13)

entries = st.one_of(
    st.just(Fraction(0)),
    st.integers(-4, 9).map(Fraction),
    st.builds(Fraction, st.integers(-30, 60), st.sampled_from(DENOMINATORS)),
)


@st.composite
def matrices(draw):
    """A square matrix of size 1..6 whose leading (k+1)-section is made
    singular for a drawn k, or left as drawn."""
    n = draw(st.integers(1, 6))
    grid = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]
    k = draw(st.one_of(st.none(), st.integers(0, n - 1)))
    if k == 0:
        grid[0][0] = Fraction(0)
    elif k is not None:
        grid[k][:k + 1] = grid[0][:k + 1]
    return DenseMatrix(grid)


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_leading_minors_match_cofactor_expansion(matrix):
    sections = range(1, matrix.rows + 1)
    expected = tuple(det_cofactor(submatrix(matrix, range(k), range(k))) for k in sections)
    assert leading_principal_minors(matrix) == expected


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 7).flatmap(
    lambda d: st.tuples(st.just(d), st.lists(entries, min_size=2 * d + 2, max_size=2 * d + 2))))
def test_hankel_dets_match_one_elimination_per_section(case):
    depth, seq = case
    for shift in (0, 1):
        assert hankel_dets(seq, depth, shift) == tuple(
            det_bareiss(build_hankel(seq, k, shift)) for k in range(depth + 1))


@pytest.mark.parametrize("terms, depth, dets0, dets1", [
    ("1,1,1,1,1,-1", 2, (1, 0, 0), (1, 0, 0)),
    ("2,0,0,-1", 1, (2, 0), (0, 0)),
])
def test_weak_sylvester_terms_keep_their_dets(terms, depth, dets0, dets1):
    # zero leading minors: the inputs on which "every minor >= 0" is too weak
    # a test; the dets are pinned here, the verdict in test_stieltjes_weights
    seq = terms.split(",")
    assert hankel_dets(seq, depth, 0) == dets0
    assert hankel_dets(seq, depth, 1) == dets1


@pytest.fixture
def bareiss_sizes(monkeypatch):
    """The sizes of the matrices det_bareiss is called on, in call order."""
    sizes = []

    def counting(matrix):
        sizes.append(matrix.rows)
        return det_bareiss(matrix)

    monkeypatch.setattr(catmoments.exact, "det_bareiss", counting)
    return sizes


@pytest.mark.parametrize("shift", (0, 1))
def test_hankel_dets_make_no_per_section_elimination(bareiss_sizes, shift):
    entry = catalog_lookup("catalan")
    seq = catalan_like(entry.sigma, entry.tau, 25)
    assert hankel_dets(seq, 12, shift) == (1,) * 13
    assert bareiss_sizes == []


@pytest.mark.parametrize("shift", (0, 1))
def test_only_sections_past_a_zero_minor_go_to_det_bareiss(bareiss_sizes, shift):
    seq = [1, 1, 1, 1, 1, -1]
    assert hankel_dets(seq, 2, shift) == (1, 0, 0)
    # the 1x1 minor is nonzero; the 2x2 is the first zero one
    assert bareiss_sizes == [2, 3]

"""Differential tests of the integer determinant kernels: the one-pass
leading-minor elimination on integer rows (symmetric or not), the Hankel
Chebyshev walk on int term lists (both routes, walk and fallback) against
Dodgson condensation, the Bareiss kernel and cofactor expansion, and the
Hankel families built on them against cofactor expansion section by
section and one Bareiss elimination per section, a count showing that a
family takes one walk and no elimination, and one elimination of its
largest section past a zero leading minor, the walk's entries on
factorial's terms no larger than the terms and on 1/(n+1)^2 smaller than
its leading minors, and the scaled three-term minor
chain and the running weight products against their Fraction forms."""

import itertools
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import catmoments.exact
import catmoments.hankel
from catmoments.cli import main
from catmoments.exact import _int_leading_minors, _minors_ints, _scaled_ints
from catmoments.hankel import _chebyshev_walk, _section_minors, _walk_minors, _windows
from catmoments.recursive import catalan_like
from catmoments.seqspec import catalog_lookup
from oracle import (
    DenseMatrix,
    _hankel_terms,
    build_hankel,
    condensation,
    det_cofactor,
    det_elimination,
    fraction_det_products,
    fraction_window_minors,
    hankel_det_products,
    leading_principal_minors,
    submatrix,
    window_minors,
)


def hankel_dets(terms, depth: int, shift: int = 0) -> tuple[Fraction, ...]:
    """det[m_{i+j+shift}] on the sections of sizes 1..depth+1, as the library
    evaluates a family of explicit terms from its Hankel sections
    (StieltjesReport.by_elimination), made Fractions."""
    family, = _section_minors(*_scaled_ints(_hankel_terms(terms, depth, shift)), depth, (0,))
    return tuple(itertools.starmap(Fraction, family))


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


@st.composite
def symmetric_matrices(draw):
    """A symmetric matrix of size 1..6 whose rows 0 and k are made equal for
    a drawn k, so that every section past k is singular, or left as drawn."""
    n = draw(st.integers(1, 6))
    grid = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            grid[i][j] = grid[j][i] = draw(entries)
    k = draw(st.one_of(st.none(), st.integers(1, n - 1) if n > 1 else st.nothing()))
    if k is not None:
        grid[k] = list(grid[0])
        for row in grid:
            row[k] = row[0]
    return DenseMatrix(grid)


@settings(max_examples=200, deadline=None)
@given(st.one_of(matrices(), symmetric_matrices()))
def test_int_leading_minors_match_each_section(matrix):
    # one common denominator, as hankel's families hand them over; the rows are
    # left as they were
    n = matrix.rows
    ints, den = _scaled_ints([x for row in matrix.entries for x in row])
    rows = [ints[i * n:(i + 1) * n] for i in range(n)]
    before = [list(row) for row in rows]
    sections = [submatrix(matrix, range(k), range(k)) for k in range(1, n + 1)]
    minors = tuple(itertools.starmap(Fraction, _int_leading_minors(rows, den)))
    assert minors == tuple(map(det_cofactor, sections)) == tuple(map(det_elimination, sections))
    assert rows == before


def test_int_leading_minors_on_a_symmetric_matrix_with_a_zero_pivot():
    # 2 x 2 minor 0: row 2 is swapped in, and the 3 x 3 minor is its pivot
    # with the sign flipped
    rows = [[1, 1, 2], [1, 1, 3], [2, 3, 4]]
    assert _int_leading_minors(rows, 2) == [(1, 2), (0, 4), (-1, 8)]


def point_mass_moments(masses):
    """m_n = a x^n + b y^n: the Hankel sections from size 3 on are singular."""
    (a, x), (b, y) = masses
    return [a * x ** n + b * y ** n for n in range(16)]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 6), st.one_of(
    st.lists(entries, min_size=14, max_size=14),
    st.lists(st.tuples(entries, entries), min_size=2, max_size=2).map(point_mass_moments)))
def test_hankel_dets_match_cofactor_expansion(depth, seq):
    for shift in (0, 1):
        assert hankel_dets(seq, depth, shift) == tuple(
            det_cofactor(build_hankel(seq, k, shift)) for k in range(depth + 1))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(entries, entries), min_size=1, max_size=10))
def test_window_minors_match_the_fraction_chain_at_every_start(weights):
    # t_lo couples row lo to a row outside the window and must not count
    s, t = map(list, zip(*weights))
    t = t[1:]                           # t_1..t_n
    for lo in range(len(s) + 1):
        assert window_minors(s, t, lo) == fraction_window_minors(s, t, lo)


@settings(max_examples=200, deadline=None)
@given(st.lists(entries, max_size=10), entries)
def test_det_products_match_the_fraction_products(t, m0):
    assert hankel_det_products(t, m0) == fraction_det_products(t, m0)


def test_hankel_dets_refuse_negative_depth():
    with pytest.raises(ValueError, match="^depth must be >= 0$"):
        hankel_dets([1, 1, 2], -1)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 7).flatmap(
    lambda d: st.tuples(st.just(d), st.lists(entries, min_size=2 * d + 2, max_size=2 * d + 2))))
def test_hankel_dets_match_one_elimination_per_section(case):
    depth, seq = case
    for shift in (0, 1):
        assert hankel_dets(seq, depth, shift) == tuple(
            det_elimination(build_hankel(seq, k, shift)) for k in range(depth + 1))


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


term_ints = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-10**6, 10**6))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 7).flatmap(lambda d: st.tuples(
    st.just(d), st.lists(term_ints, min_size=2 * d + 1, max_size=2 * d + 2))),
    st.sampled_from((1, 2, 6)), st.none())
# the 2 x 2 leading minor is 0 and a divisor of the last step: both
# families are eliminated instead
@example((2, [1, 1, 1, 1, 1, -1]), 1, "elimination")
# m_0 = 0, a divisor of the second step
@example((2, [0, 1, 0, 1, 2, 3]), 1, "elimination")
# every odd term 0: no leading minor is 0, so the walk runs through the
# zero minors of the shifted family
@example((3, [1, 0, 1, 0, 3, 0, 15, 0]), 1, "walk")
# H_depth = 0: the last pivot divides nothing, and the shifted family
# still follows from the one before it
@example((1, [1, 1, 1, 1]), 1, "walk")
@example((2, [2, 3, 5, 9, 17, 33]), 1, "walk")
# m_0 < 0; and den 6, with pivots over a denominator (H_1 / H_0 = 5/2)
@example((2, [-2, 3, -5, 7, -11, 13]), 1, "walk")
@example((3, [2, 3, 7, 1, 5, 8, 2, 9]), 6, "walk")
def test_condensation_matches_each_section(case, den, route):
    depth, ints = case
    shifts = range(len(ints) - 2 * depth)
    expected = [_minors_ints(_windows(ints[s:], depth)) for s in shifts]
    assert expected == [[det_cofactor(build_hankel(ints, k, s)) for k in range(depth + 1)]
                        for s in shifts]
    # the walk stops only at a zero leading minor before the last, and the
    # condensation oracle only at a zero divisor of its own
    walk, dodgson = _chebyshev_walk(ints, depth), condensation(ints, depth)
    if route is not None:
        assert route == ("elimination" if walk is None else "walk")
    if walk is None:
        assert 0 in expected[0][:depth]
    if dodgson is not None:
        assert list(map(list, dodgson)) == expected
    scales = [den ** (k + 1) for k in range(depth + 1)]
    assert _section_minors(ints, den, depth, shifts) == [list(zip(minors, scales))
                                                         for minors in expected]
    for s in shifts:
        assert _section_minors(ints, den, depth, (s,)) == [list(zip(expected[s], scales))]


@pytest.fixture
def kernel_calls(monkeypatch):
    """The Hankel kernels called, in call order: "walk" for the Chebyshev walk
    (hankel._chebyshev_walk), and the size of each matrix the Bareiss kernel
    (exact._minors_ints) eliminates."""
    calls = []
    walk, minors_ints = catmoments.hankel._chebyshev_walk, catmoments.exact._minors_ints

    def counting_walk(ints, depth):
        calls.append("walk")
        return walk(ints, depth)

    def counting_bareiss(work):
        calls.append(len(work))
        return minors_ints(work)

    monkeypatch.setattr(catmoments.hankel, "_chebyshev_walk", counting_walk)
    monkeypatch.setattr(catmoments.exact, "_minors_ints", counting_bareiss)
    return calls


@pytest.mark.parametrize("shift", (0, 1))
def test_hankel_dets_make_no_per_section_elimination(kernel_calls, shift):
    entry = catalog_lookup("catalan")
    seq = catalan_like(entry.sigma, entry.tau, 25)
    assert hankel_dets(seq, 12, shift) == (1,) * 13
    assert kernel_calls == ["walk"]


@pytest.mark.parametrize("shift", (0, 1))
def test_sections_past_a_zero_minor_make_no_per_section_elimination(kernel_calls, shift):
    # the 1x1 minor is nonzero, the 2x2 the first zero one: the walk stops
    # there, and one elimination of the 3x3 section gives all three minors
    seq = [1, 1, 1, 1, 1, -1]
    assert hankel_dets(seq, 2, shift) == (1, 0, 0)
    assert kernel_calls == ["walk", 3]


@pytest.mark.parametrize("shift", ("0", "1"))
def test_hankel_det_on_zero_odd_terms_makes_no_elimination(kernel_calls, capsys, shift):
    # sigma = 0, tau = k: every odd term is 0, so every minor of the shifted
    # family at an even k is 0; the plain family has none, and the walk
    # gives both
    zero = '{"prefix": [], "tail": {"kind": "constant", "value": "0"}, "start": 0}'
    k = '{"prefix": [], "tail": {"kind": "polynomial", "coeffs": ["0", "1"]}, "start": 1}'
    assert main(["hankel-det", "--sigma", zero, "--tau", k, "--depth", "40",
                 "--shift", shift]) == 0
    assert capsys.readouterr().out.count(" ok\n") == 41
    assert kernel_calls == ["walk"]


@pytest.mark.parametrize("shift", ("0", "1"))
def test_hankel_det_eliminates_only_the_family_it_prints(kernel_calls, capsys, shift):
    # t_2 = 0 makes the 3 x 3 leading minor 0: the walk stops there, and
    # one elimination of the printed family's largest section follows
    sigma = '{"prefix": ["2", "3"], "tail": {"kind": "constant", "value": "3"}, "start": 0}'
    tau = '{"prefix": ["1", "0"], "tail": {"kind": "constant", "value": "1"}, "start": 1}'
    assert main(["hankel-det", "--sigma", sigma, "--tau", tau, "--depth", "6",
                 "--shift", shift]) == 0
    assert capsys.readouterr().out.count(" ok\n") == 7
    assert kernel_calls == ["walk", 7]


def test_hankel_dets_of_a_zero_first_term_match_cofactor_expansion():
    # m_0 = 0: every pivot of the symmetric pass needs a swap from the start
    seq = [0, *(math.factorial(n) for n in range(1, 16))]
    for shift in (0, 1):
        assert hankel_dets(seq, 6, shift) == tuple(
            det_cofactor(build_hankel(seq, k, shift)) for k in range(7))


def widest_walk_entry(ints: list[int], depth: int) -> tuple[int, object]:
    """The bit length of the largest int the Chebyshev walk on ints holds in
    a row or a row's denominator, read off its frame line by line, and the
    walk."""
    widest = []

    def walk_lines(frame, event, arg):
        if event == "line" and "row" in frame.f_locals:
            local = frame.f_locals
            widest.append(max(abs(x).bit_length()
                              for x in (*local["row"], *local["prev"], local["e"], local["b"])))
        return walk_lines

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg:
                 walk_lines if frame.f_code is _chebyshev_walk.__code__ else None)
    try:
        walk = _chebyshev_walk(ints, depth)
    finally:
        sys.settrace(previous)
    assert walk is not None and len(widest) > depth
    return max(widest), walk


def test_walk_entries_stay_within_the_terms_on_factorial():
    # integral weights make every modified moment an int no larger than the
    # terms; the bordered minors grow as the leading minors do (31,763 bits
    # here), so this fails on any walk that carries them
    ints = [math.factorial(n) for n in range(172)]
    widest, walk = widest_walk_entry(ints, 85)
    assert widest == max(x.bit_length() for x in ints) == 1027
    family0, = _walk_minors(walk, ints, 1, 85, (0,))
    assert max(h.bit_length() for h, _ in family0) > 30 * 1027


def test_walk_entries_stay_below_the_minors_over_a_denominator():
    # 1/(n+1)^2 over its common denominator: the rows' gcd keeps their
    # entries (828 bits) below the largest leading minor (1,569 bits); rows
    # left uncut reach 9,151
    ints, _ = _scaled_ints([Fraction(1, (n + 1) ** 2) for n in range(42)])
    widest, walk = widest_walk_entry(ints, 20)
    family0, = _walk_minors(walk, ints, 1, 20, (0,))
    assert widest < max(h.bit_length() for h, _ in family0)

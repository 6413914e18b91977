"""Exhaustive small boxes: every input of a small domain through a certifying
route, against brute force.  A random test samples a domain; a box settles
it.

The first two boxes run over the weights s_0..s_3 and t_1..t_3 of J, each
in {-1, 0, 1, 2}: 4**7 = 16,384 weight tuples, with every shorter section of
them (depths 0..3).  The routes read the weights as ints over L = 1.  The
third runs over explicit term lists, halves among them.
"""

import itertools
from fractions import Fraction

from catmoments.exact import FALSE, TRUE
from catmoments.hankel import FAIL, PASS, StieltjesReport, stieltjes_check, stieltjes_weights
from catmoments.jacobi import tp_by_leading_minors
from catmoments.seqspec import ConstantTail, SequenceSpec
from oracle import all_minors_nonneg, build_hankel, jacobi_section, principal_minors_nonneg

VALUES = (-1, 0, 1, 2)
DEPTH = 3


def _sections():
    """(s_0..s_d, t_1..t_d) for every depth d <= DEPTH and every weight in VALUES:
    4 + 4**3 + 4**5 + 4**7 = 17,476 sections."""
    for depth in range(DEPTH + 1):
        for weights in itertools.product(VALUES, repeat=2 * depth + 1):
            yield list(weights[:depth + 1]), list(weights[depth + 1:])


def _terms(s: list, t: list) -> list:
    """m_0..m_(2d+1) of the section s_0..s_d, t_1..t_d as the corner entries
    (J**n)[0][0] of its matrix J: a closed path of length at most 2d + 1
    stays below height d + 1."""
    rows = [list(map(int, row)) for row in jacobi_section(s, t).entries]
    vector, terms = [1] + [0] * (len(rows) - 1), []
    for _ in range(2 * len(rows)):
        terms.append(vector[0])
        vector = [sum(v * row[j] for v, row in zip(vector, rows)) for j in range(len(rows))]
    return terms


def test_section_routes_match_every_minor():
    """tp_certify's section route on every section of the box, against every
    minor of the section (oracle.all_minors_nonneg): 17,476 sections, 69
    minors at most each, about 1.5 to 2 s."""
    for s, t in _sections():
        report = tp_by_leading_minors(s, t, 1)
        expected = all_minors_nonneg(jacobi_section(s, t), len(s)).status
        assert (report.verdict, expected) in ((TRUE, TRUE), (FALSE, FALSE)), (s, t)


def test_stieltjes_weights_match_every_principal_minor():
    """stieltjes_weights at depth d on every section of the box, weights past
    it 0, against every principal minor of both Hankel sections
    [m_(i+j)] and [m_(i+j+1)], 0 <= i, j <= d, of the terms as powers of J
    (_terms; oracle.principal_minors_nonneg): 17,476 sections, 30 principal
    minors at most each, 6 to 10 s."""
    for s, t in _sections():
        depth = len(s) - 1
        sigma = SequenceSpec(s, ConstantTail(0), 0)
        tau = SequenceSpec(t, ConstantTail(0), 1)
        terms = _terms(s, t)
        expected = all(principal_minors_nonneg(build_hankel(terms, depth, shift))
                       for shift in (0, 1))
        assert stieltjes_weights(sigma, tau, depth).verdict == (PASS if expected else FAIL), (s, t)


def test_term_lists_match_every_principal_minor():
    """stieltjes_check and StieltjesReport.by_elimination on every term list
    m_0..m_3 in {-1, 0, 1/2, 1, 2} at depth 1 and m_0..m_5 in {0, 1/2, 1, 2}
    at depth 2, against every principal minor of both Hankel sections
    (oracle.principal_minors_nonneg): 5**4 + 4**6 = 4,721 lists, 66 of them
    PASS, 0.5 to 1 s.  The two reports must be equal.  This is PASS as both
    sections positive semidefinite; ROADMAP item 2 replaces this oracle with
    the range test of a representing measure, which fails some of these PASS
    lists."""
    half = Fraction(1, 2)
    boxes = (((-1, 0, half, 1, 2), 1), ((0, half, 1, 2), 2))
    for values, depth in boxes:
        for terms in itertools.product(values, repeat=2 * depth + 2):
            report = stieltjes_check(terms, depth)
            assert report == StieltjesReport.by_elimination(terms, depth), terms
            expected = all(principal_minors_nonneg(build_hankel(terms, depth, shift))
                           for shift in (0, 1))
            assert report.verdict == (PASS if expected else FAIL), terms

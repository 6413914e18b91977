"""Test-side oracle for the recursive matrix: the recurrence on Fractions.

This is the textbook evaluation of

    r_{n+1,k} = r_{n,k-1} + s_k * r_{n,k} + t_{k+1} * r_{n,k+1}

cell by cell on exact rationals, with every weight evaluated where it is
used.  The library runs the same recurrence on integer rows scaled by the
common denominator of the weights; the tests compare the two.
"""

from fractions import Fraction


def fraction_triangle(sigma, tau, depth: int) -> list[list[Fraction]]:
    """Rows 0..depth of the recursive matrix; row n holds r_{n,0..n}."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    rows: list[list[Fraction]] = [[Fraction(1)]]
    for n in range(depth):
        prev = rows[n]

        def r(k: int) -> Fraction:
            return prev[k] if 0 <= k <= n else Fraction(0)

        rows.append([
            r(k - 1) + sigma.eval(k) * r(k) + tau.eval(k + 1) * r(k + 1)
            for k in range(n + 2)
        ])
    return rows


def fraction_terms(sigma, tau, depth: int) -> list[Fraction]:
    """Column 0 of fraction_triangle."""
    return [row[0] for row in fraction_triangle(sigma, tau, depth)]

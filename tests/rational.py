"""Exact rational references, from the standard library's ``fractions`` only.

Every float is a dyadic rational, so ``Fraction(float)`` is exact, and so
are the sums and products below: these are the answers that the float code
rounds, ties included.  A float answer may hold a near-tie that the exact
one lacks; it must not lose an exact one.
"""

from __future__ import annotations

from fractions import Fraction


def section_corners(coeffs, z: Fraction) -> list[list[list[Fraction]]]:
    """Each player's exact payoffs at the corners of the section at ``z``,
    ``[k][x][y]`` for player k + 1, from (2, 5) coefficient rows over
    {1, x, y, z, xy}."""
    return [
        [[c0 + c1 * x + c2 * y + c3 * z + c4 * x * y for y in (0, 1)] for x in (0, 1)]
        for c0, c1, c2, c3, c4 in ([Fraction(v) for v in row] for row in coeffs)
    ]


def pure_equilibria(coeffs, sign: int, z: Fraction) -> set[tuple[int, int]]:
    """The exact pure Nash equilibria (x, y) of the section at ``z``; ``sign``
    is +1 when the players maximize their payoffs, -1 when they minimize."""
    g1, g2 = section_corners(coeffs, z)
    return {
        (x, y)
        for x in (0, 1)
        for y in (0, 1)
        if sign * g1[x][y] >= sign * g1[1 - x][y] and sign * g2[x][y] >= sign * g2[x][1 - y]
    }

"""Von Neumann mixed extension of 2x2 bimatrix games.

The two pure strategies of each player embed into [0,1]: x is the row
player's probability of his first pure strategy, y the column player's of
hers.  Expected payoffs are then bilinear on the unit square, which makes
the whole equilibrium analysis exact: each player's preference between his
two pure strategies is a linear function of the opponent's mixture, and
support enumeration over the nine support profiles yields every
equilibrium component as a product of closed intervals.  Conservative
bi-values are closed forms too: the maximum of the lower of two lines.

Degenerate games produce continuum components (segments or rectangles);
they are reported through their extreme points plus a shape tag, and every
reported point is verified against both pure replies of each player.

A 2x2 game is eight numbers, so the analysis runs on Python floats, where
numpy's per-call cost would dominate.  One core answers each question:
``_equilibria`` takes each player's oriented advantage line plus the
coefficient rows that give the payoffs, and ``_conservative_value`` those
rows alone.  A finite game reads its lines off its table and its rows are
``bilinear_map``'s; a coopetitive section reads both off its coefficients
(see ``coopetitive``), so no section is turned into a table.  Every payoff
goes through ``geometry._component``, the one home of the payoff formula,
which gives floats the bits it gives arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from .errors import UnsupportedGameError
from .games import FiniteBimatrixGame, PayoffPoint
from .geometry import PayoffMap, _component

__all__ = [
    "MixedBistrategy",
    "EquilibriumComponent",
    "expected_payoff",
    "bilinear_map",
    "mixed_equilibrium_components",
    "conservative_bivalue_mixed",
]

#: Tolerance of the best-response verification, per unit of a player's sum
#: of |coefficients|: rounding in the expected payoffs grows with the payoffs.
VERIFY_TOL = 1e-12


@dataclass(frozen=True)
class MixedBistrategy:
    """A mixed strategy pair, encoded by first-strategy probabilities."""

    x: float
    y: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        if not (0.0 <= self.x <= 1.0 and 0.0 <= self.y <= 1.0):
            raise ValueError(f"probabilities must lie in [0,1], got ({self.x}, {self.y})")


@dataclass(frozen=True)
class EquilibriumComponent:
    """A maximal product-of-intervals set of mixed equilibria.

    ``extreme_points`` are the corners of x_interval x y_interval (1, 2 or
    4 of them, sorted by (x, y)); ``payoff_extremes`` are their expected
    payoffs in the same order.
    """

    extreme_points: tuple[MixedBistrategy, ...]
    description: Literal["isolated point", "segment", "rectangle"]
    payoff_extremes: tuple[PayoffPoint, ...]
    x_interval: tuple[float, float]
    y_interval: tuple[float, float]

    def contains(self, s: MixedBistrategy) -> bool:
        return (
            self.x_interval[0] <= s.x <= self.x_interval[1]
            and self.y_interval[0] <= s.y <= self.y_interval[1]
        )


def _require_2x2(game: FiniteBimatrixGame) -> None:
    if game.rows != 2 or game.cols != 2:
        raise UnsupportedGameError(
            f"mixed-extension analysis needs a 2x2 game, got {game.rows}x{game.cols}"
        )


def _bilinear_coeffs(t1: list, t2: list) -> list[list[float]]:
    """The coefficient rows over {1, x, y, z, xy} of the 2x2 tables ``t1``
    and ``t2``, nested lists; the z coefficient is 0.0."""
    return [
        [p[1][1], p[0][1] - p[1][1], p[1][0] - p[1][1], 0.0, p[0][0] - p[0][1] - p[1][0] + p[1][1]]
        for p in (t1, t2)
    ]


def bilinear_map(game: FiniteBimatrixGame) -> PayoffMap:
    """The expected-payoff polynomial of a 2x2 game over {1, x, y, xy}.

    Row 0 and column 0 are the probability-one strategies, so the corner
    (1, 1) reproduces the top-left table entry.
    """
    _require_2x2(game)
    return PayoffMap(_bilinear_coeffs(game.payoff1.tolist(), game.payoff2.tolist()), arity=2)


def expected_payoff(game: FiniteBimatrixGame, s: MixedBistrategy) -> PayoffPoint:
    """Bilinear interpolation of the four cell payoffs at mixture ``s``."""
    return bilinear_map(game).eval(s.x, s.y)


def _solve_linear(a: float, b: float, rel: str) -> tuple[float, float] | None:
    """Solution interval of ``a*t + b (rel) 0`` within [0,1], or None."""
    if a == 0.0:
        if rel == "eq":
            return (0.0, 1.0) if b == 0.0 else None
        ok = b >= 0.0 if rel == "ge" else b <= 0.0
        return (0.0, 1.0) if ok else None
    root = -b / a
    if rel == "eq":
        return (root, root) if 0.0 <= root <= 1.0 else None
    if (rel == "ge") == (a > 0.0):
        lo, hi = max(0.0, root), 1.0
    else:
        lo, hi = 0.0, min(1.0, root)
    return (lo, hi) if lo <= hi else None


def _intersect(u: tuple[float, float], v: tuple[float, float]) -> tuple[float, float] | None:
    lo, hi = max(u[0], v[0]), min(u[1], v[1])
    return (lo, hi) if lo <= hi else None


def _verify_equilibrium(sign: float, rows, x: float, y: float) -> PayoffPoint:
    """The payoff at (x, y) of the coefficient ``rows``, checked to be an
    equilibrium under orientation ``sign`` up to ``VERIFY_TOL`` per unit of
    each player's sum of |coefficients|, which bounds the payoffs."""
    # Own payoff is linear in the own mixture, so the two pure replies are
    # the exact best replies.
    c1, c2 = rows
    here = PayoffPoint(_component(c1, x, y, 0.0), _component(c2, x, y, 0.0))
    best1 = max(sign * _component(c1, t, y, 0.0) for t in (0.0, 1.0))
    best2 = max(sign * _component(c2, x, t, 0.0) for t in (0.0, 1.0))
    tol1, tol2 = (VERIFY_TOL * max(1.0, sum(map(abs, c))) for c in rows)
    if best1 > sign * here.p1 + tol1 or best2 > sign * here.p2 + tol2:
        raise AssertionError(
            f"best-response verification failed at ({x}, {y}); "
            "support enumeration produced a non-equilibrium"
        )
    return here


def _equilibria(sign: float, line1, line2, rows) -> list[EquilibriumComponent]:
    """Every equilibrium component, by support enumeration.

    ``line1`` is player 1's oriented advantage of x = 1 over x = 0 as
    (value at y = 0, slope in y), ``line2`` player 2's of y = 1 over y = 0
    as (value at x = 0, slope in x); ``rows`` are the coefficient rows over
    {1, x, y, z, xy} that give the payoffs, verified under ``sign``.  Each
    of the nine support profiles contributes a (possibly empty) closed box
    of solutions; boxes contained in others are dropped.
    """
    (b1, a1), (b2, a2) = line1, line2
    # (support box, required sign of the own advantage function)
    classes = [((1.0, 1.0), "ge"), ((0.0, 0.0), "le"), ((0.0, 1.0), "eq")]
    # Each support box of x with the y that player 1 allows on it, and each
    # of y with the x that player 2 allows.
    x_supports = [(box, _solve_linear(a1, b1, rel)) for box, rel in classes]
    y_supports = [(box, _solve_linear(a2, b2, rel)) for box, rel in classes]

    boxes: list[tuple[tuple[float, float], tuple[float, float]]] = []
    for x_box, y_cond in x_supports:
        if y_cond is None:
            continue
        for y_box, x_cond in y_supports:
            if x_cond is None:
                continue
            xi = _intersect(x_box, x_cond)
            yi = _intersect(y_box, y_cond)
            if xi is not None and yi is not None:
                boxes.append((xi, yi))

    def contains(outer, inner) -> bool:
        (oxl, oxh), (oyl, oyh) = outer
        (ixl, ixh), (iyl, iyh) = inner
        return oxl <= ixl and ixh <= oxh and oyl <= iyl and iyh <= oyh

    # Boxes inside others go; a set keeps the first of equal boxes (-0.0 == 0.0).
    kept = sorted({box for box in boxes if not any(contains(other, box) for other in boxes if other != box)})

    components = []
    for (xl, xh), (yl, yh) in kept:
        corners = sorted({(xl, yl), (xl, yh), (xh, yl), (xh, yh)})
        degenerate = int(xl == xh) + int(yl == yh)
        components.append(
            EquilibriumComponent(
                extreme_points=tuple(MixedBistrategy(cx, cy) for cx, cy in corners),
                description={2: "isolated point", 1: "segment", 0: "rectangle"}[degenerate],
                payoff_extremes=tuple(_verify_equilibrium(sign, rows, cx, cy) for cx, cy in corners),
                x_interval=(xl, xh),
                y_interval=(yl, yh),
            )
        )
    return components


def mixed_equilibrium_components(game: FiniteBimatrixGame) -> list[EquilibriumComponent]:
    """All Nash equilibria of the 2x2 mixed extension, as components.

    Player 1's advantage of row 0 over row 1 is linear in y, player 2's
    advantage of column 0 over column 1 linear in x; both lines are read
    off the oriented table, and the payoffs off its bilinear coefficients.
    """
    _require_2x2(game)
    s = game.orientation.sign
    t1, t2 = game.payoff1.tolist(), game.payoff2.tolist()
    (u00, u01), (u10, u11) = ([s * v for v in row] for row in t1)
    (v00, v01), (v10, v11) = ([s * v for v in row] for row in t2)
    line1 = (u01 - u11, (u00 - u10) - (u01 - u11))
    line2 = (v10 - v11, (v00 - v01) - (v10 - v11))
    return _equilibria(s, line1, line2, _bilinear_coeffs(t1, t2))


def _maximin_lines(line0: tuple[float, float], line1: tuple[float, float]) -> float:
    """max over u in [0, 1] of min(line0(u), line1(u)).

    Lines are given by their values at u = 0 and 1.  The maximum sits at an
    end or at an inner crossing: one division, correctly rounded for integer tables.
    """
    (p0, q0), (p1, q1) = line0, line1
    best = max(min(p0, p1), min(q0, q1))
    gap0, gap1 = p0 - p1, q0 - q1
    if gap0 < 0.0 < gap1 or gap1 < 0.0 < gap0:
        best = max(best, (p0 * q1 - q0 * p1) / (gap0 - gap1))
    return float(best)


def _conservative_value(sign: float, rows) -> PayoffPoint:
    """Conservative bi-value of the coefficient ``rows`` over {1, x, y, z,
    xy} under orientation ``sign``, from each player's payoffs at the four
    corners: ``_component`` of the rows on floats.

    The payoffs are bilinear, so the opponent's extremal reply is pure and
    each player's guarantee is the lower of two lines in their own mixture.
    """
    # g[i][j] is the oriented payoff at the corner x = i, y = j.
    g1, g2 = ([[sign * _component(c, x, y, 0.0) for y in (0.0, 1.0)] for x in (0.0, 1.0)] for c in rows)
    v1 = _maximin_lines((g1[0][0], g1[1][0]), (g1[0][1], g1[1][1]))
    v2 = _maximin_lines(g2[0], g2[1])
    # Adding 0.0 turns the -0.0 of a negated zero into 0.0.
    return PayoffPoint(sign * v1 + 0.0, sign * v2 + 0.0)


def conservative_bivalue_mixed(game: FiniteBimatrixGame) -> PayoffPoint:
    """Conservative bi-value of the mixed extension, in closed form.

    Under LOSS this is inf-sup of each player's expected payoff (own
    strategy outside, opponent inside), under GAIN sup-inf.  The corners
    are those of ``bilinear_map``, so the value has the bits of the sampled
    cloud's corners.
    """
    _require_2x2(game)
    rows = _bilinear_coeffs(game.payoff1.tolist(), game.payoff2.tolist())
    return _conservative_value(game.orientation.sign, rows)

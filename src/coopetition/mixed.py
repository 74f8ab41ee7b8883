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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import UnsupportedGameError
from .games import FiniteBimatrixGame, PayoffPoint
from .geometry import PayoffMap

__all__ = [
    "MixedBistrategy",
    "EquilibriumComponent",
    "expected_payoff",
    "bilinear_map",
    "mixed_equilibrium_components",
    "conservative_bivalue_mixed",
]

#: Tolerance of the best-response verification, per unit of the largest
#: table entry: rounding in the expected payoffs grows with the payoffs.
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


def bilinear_map(game: FiniteBimatrixGame) -> PayoffMap:
    """The expected-payoff polynomial of a 2x2 game over {1, x, y, xy}.

    Row 0 and column 0 are the probability-one strategies, so the corner
    (1, 1) reproduces the top-left table entry.
    """
    _require_2x2(game)
    coeffs = np.zeros((2, 5))
    for k, p in enumerate((game.payoff1, game.payoff2)):
        coeffs[k, 0] = p[1, 1]
        coeffs[k, 1] = p[0, 1] - p[1, 1]
        coeffs[k, 2] = p[1, 0] - p[1, 1]
        coeffs[k, 4] = p[0, 0] - p[0, 1] - p[1, 0] + p[1, 1]
    return PayoffMap(coeffs, arity=2)


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


def _verify_equilibrium(game: FiniteBimatrixGame, m: PayoffMap, x: float, y: float) -> None:
    # Own payoff is linear in the own mixture, so the two pure replies are
    # the exact best replies.
    s = game.orientation.sign
    pure = np.array([0.0, 1.0])
    best1 = (s * m.eval_arrays(pure, np.full(2, y))[0]).max()
    best2 = (s * m.eval_arrays(np.full(2, x), pure)[1]).max()
    here1, here2 = (s * v for v in m.eval_arrays(x, y))
    tol = VERIFY_TOL * max(1.0, np.abs(game.payoff1).max(), np.abs(game.payoff2).max())
    if best1 > here1 + tol or best2 > here2 + tol:
        raise AssertionError(
            f"best-response verification failed at ({x}, {y}); "
            "support enumeration produced a non-equilibrium"
        )


def mixed_equilibrium_components(game: FiniteBimatrixGame) -> list[EquilibriumComponent]:
    """All Nash equilibria of the 2x2 mixed extension, as components.

    Support enumeration: player 1's advantage of row 0 over row 1 is
    linear in y, player 2's advantage of column 0 over column 1 linear in
    x.  Each of the nine support profiles contributes a (possibly empty)
    closed box of solutions; boxes contained in others are dropped.
    """
    _require_2x2(game)
    s = game.orientation.sign
    p1 = s * game.payoff1
    p2 = s * game.payoff2
    # adv1(y) = a1*y + b1 > 0 means row 0 is strictly better for player 1.
    a1 = (p1[0, 0] - p1[1, 0]) - (p1[0, 1] - p1[1, 1])
    b1 = p1[0, 1] - p1[1, 1]
    # adv2(x) = a2*x + b2 > 0 means column 0 is strictly better for player 2.
    a2 = (p2[0, 0] - p2[0, 1]) - (p2[1, 0] - p2[1, 1])
    b2 = p2[1, 0] - p2[1, 1]

    # (support box, required sign of the own advantage function)
    x_classes = [((1.0, 1.0), "ge"), ((0.0, 0.0), "le"), ((0.0, 1.0), "eq")]
    y_classes = [((1.0, 1.0), "ge"), ((0.0, 0.0), "le"), ((0.0, 1.0), "eq")]

    boxes: list[tuple[tuple[float, float], tuple[float, float]]] = []
    for x_box, rel1 in x_classes:
        y_cond = _solve_linear(a1, b1, rel1)
        if y_cond is None:
            continue
        for y_box, rel2 in y_classes:
            x_cond = _solve_linear(a2, b2, rel2)
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

    kept: list[tuple[tuple[float, float], tuple[float, float]]] = []
    for box in boxes:
        if any(contains(other, box) for other in boxes if other != box):
            continue
        if box not in kept:
            kept.append(box)
    kept.sort()

    payoff = bilinear_map(game)
    components = []
    for (xl, xh), (yl, yh) in kept:
        xl, xh, yl, yh = float(xl), float(xh), float(yl), float(yh)
        corners = sorted({(xl, yl), (xl, yh), (xh, yl), (xh, yh)})
        for cx, cy in corners:
            _verify_equilibrium(game, payoff, cx, cy)
        degenerate = int(xl == xh) + int(yl == yh)
        description = {2: "isolated point", 1: "segment", 0: "rectangle"}[degenerate]
        components.append(
            EquilibriumComponent(
                extreme_points=tuple(MixedBistrategy(cx, cy) for cx, cy in corners),
                description=description,
                payoff_extremes=tuple(payoff.eval(cx, cy) for cx, cy in corners),
                x_interval=(xl, xh),
                y_interval=(yl, yh),
            )
        )
    return components


def _maximin_lines(line0: np.ndarray, line1: np.ndarray) -> float:
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


def conservative_bivalue_mixed(game: FiniteBimatrixGame) -> PayoffPoint:
    """Conservative bi-value of the mixed extension, in closed form.

    Under LOSS this is inf-sup of each player's expected payoff (own
    strategy outside, opponent inside), under GAIN sup-inf.  The payoffs
    are bilinear, so the opponent's extremal reply is pure and each
    player's guarantee is the lower of two lines in their own mixture.
    """
    _require_2x2(game)
    s = game.orientation.sign
    x, y = np.meshgrid((0.0, 1.0), (0.0, 1.0), indexing="ij")
    # g[i, j] is the oriented payoff at the corner x = i, y = j.
    g1, g2 = (s * p for p in bilinear_map(game).eval_arrays(x, y))
    v1 = _maximin_lines(g1[:, 0], g1[:, 1])
    v2 = _maximin_lines(g2[0, :], g2[1, :])
    # Adding 0.0 turns the -0.0 of a negated zero into 0.0.
    return PayoffPoint(s * v1 + 0.0, s * v2 + 0.0)

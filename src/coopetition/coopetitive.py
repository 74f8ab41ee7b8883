"""Two-player coopetitive games as z-indexed families of section games.

A coopetitive game is a payoff map on the unit cube: the players pick
(x, y) competitively while z is chosen jointly.  Fixing z yields a
normal-form section game, whose payoff map on the unit square is
``section_game(game, z)``, and the family of sections determines the game
(and vice versa); ``family_roundtrip_check`` witnesses that on a lattice.
The cooperative axis is discretized to ``c_grid``, so induced families
(Nash payoffs, extrema, conservative bi-values) become sampled set-valued
paths, and the solution concepts built on them (proper coopetitive,
transferable-utility compromise, win-win) operate on those samples.

With no xz or yz monomial, section z is the z = 0 section plus c_z * z per
player.  That constant changes no best reply, so every section has the z = 0
equilibrium components, and its conservative bi-value and corner extrema
move by exactly c_z * z: paths and the Nash zone analyse z = 0 once and
translate the result along ``c_grid`` as arrays.  The translation holds bit
for bit: each player's advantage line is read off the coefficients that the
z-fold leaves alone, (c1, c4) for player 1 and (d2, d4) for player 2.  The
conservative bi-value reads the section's ``_fold_z`` rows at the four
corners, on Python floats: the bits of the sampled lattice's corners.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Literal

import numpy as np

from .bargaining import SolutionPoint, compromise_solution
from .errors import EmptyPortion, MissingInitialZ, SameHalfPlane
from .games import Orientation, PayoffPoint, strictly_better
from .geometry import (
    _BLOCK,
    PayoffMap,
    PointCloud,
    TUBoundary,
    _component,
    _fold_z,
    _pick,
    _sample,
    facing_flavor,
    lattice_tu,
    orientation_best,
    pareto_filter,
    tu_line,
)
from .mixed import EquilibriumComponent, _conservative_value, _equilibria

__all__ = [
    "CoopetitiveGame",
    "SetValuedPath",
    "WinWinReport",
    "section_game",
    "family_roundtrip_check",
    "induced_path",
    "nash_zone",
    "proper_coopetitive_solution",
    "tu_crossing_solution",
    "core_supremum",
    "win_win_report",
    "standard_win_win_solution",
]

PathQuantity = Literal["nash_payoffs", "supremum", "infimum", "conservative"]


@dataclass(frozen=True, eq=False)
class CoopetitiveGame:
    """A payoff map on E x F x C with a discretized cooperative axis."""

    payoff: PayoffMap
    orientation: Orientation
    c_grid: np.ndarray
    initial_z: float | None = None

    def __post_init__(self) -> None:
        if self.payoff.arity != 3:
            raise ValueError("a coopetitive game needs an arity-3 payoff map")
        grid = np.array(self.c_grid, dtype=float).ravel()
        if len(grid) == 0:
            raise ValueError("c_grid must be non-empty")
        if (np.diff(grid) <= 0).any():
            raise ValueError("c_grid must be strictly increasing")
        if grid[0] < 0.0 or grid[-1] > 1.0:
            raise ValueError("c_grid values must lie in [0, 1]")
        grid.flags.writeable = False
        object.__setattr__(self, "c_grid", grid)
        if self.initial_z is not None:
            z0 = float(self.initial_z)
            if not np.abs(grid - z0).min() <= 1e-12:  # NaN is no member either
                raise ValueError(f"initial_z={z0} is not a member of c_grid")
            object.__setattr__(self, "initial_z", z0)

    @classmethod
    def with_uniform_grid(
        cls,
        payoff: PayoffMap,
        orientation: Orientation,
        c_grid_size: int = 65,
        initial_z: float | None = None,
    ) -> "CoopetitiveGame":
        if c_grid_size < 2:
            raise ValueError(f"c_grid_size must be at least 2, got {c_grid_size}")
        return cls(payoff, orientation, np.linspace(0.0, 1.0, c_grid_size), initial_z)


@dataclass(frozen=True, eq=False)
class SetValuedPath:
    """Samples of a per-section quantity along the cooperative axis."""

    samples: tuple[tuple[float, np.ndarray], ...]
    quantity: PathQuantity


@dataclass(frozen=True)
class WinWinReport:
    """Whether a candidate, which the caller holds, strictly beats the
    initial game's core supremum ``core_sup``, and by what ``margin``."""

    core_sup: PayoffPoint
    is_win_win: bool
    margin: PayoffPoint


def _height(z: float) -> float:
    """The cooperative strategy ``z`` as a float, refused outside [0, 1]."""
    z = float(z)
    if not 0.0 <= z <= 1.0:
        raise ValueError(f"z must lie in [0, 1], got {z}")
    return z


def section_game(game: CoopetitiveGame, z: float) -> PayoffMap:
    """The payoff map of the normal-form section game at cooperative
    strategy ``z`` in [0, 1]."""
    return game.payoff.section(_height(z))


def family_roundtrip_check(game: CoopetitiveGame, grid_n: int = 17) -> bool:
    """True iff the sections reassemble the payoff map on the lattice.

    Discrete witness of the bijection between a coopetitive game and its
    family of section games: for every z in ``c_grid`` and lattice (x, y),
    the section value must match the full map to 1e-12 per unit of the
    larger player's sum of |coefficients|, which bounds the payoffs (and
    so their rounding) over the cube.
    """
    t = np.linspace(0.0, 1.0, grid_n)
    x, y = t[:, None], t
    coeffs = game.payoff.coeffs
    tol = 1e-12 * max(1.0, np.abs(coeffs).sum(axis=1).max())
    z = game.c_grid[:, None, None]
    with np.errstate(over="ignore"):
        rows = _fold_z(coeffs, z)
    # ``PayoffMap.section`` refuses a section whose folded constant is not
    # finite, once the sections below it have been compared.
    folded = (np.isfinite(rows[0][0]) & np.isfinite(rows[1][0])).ravel()
    end = len(folded) if folded.all() else int(np.argmin(folded))
    # Sections a block of lattice points at a time, each compared on its own,
    # so a NaN error hides nothing in another section.
    step = max(1, _BLOCK // max(1, grid_n * grid_n))
    for i in range(0, end, step):
        block = slice(i, min(i + step, end))
        for (c0, *rest), c in zip(rows, coeffs):
            sec = _component((c0[block], *rest), x, y, 0.0)
            if (np.abs(sec - _component(c, x, y, z[block])).max(axis=(1, 2)) > tol).any():
                return False
    if end < len(folded):
        raise ValueError("coefficients must be finite")
    return True


def _section_components(game: CoopetitiveGame) -> list[EquilibriumComponent]:
    """The mixed equilibrium components of every section, priced at z = 0.

    Player 1's advantage of x = 1 over x = 0 is c1 + c4*y, and player 2's
    of y = 1 over y = 0 is d2 + d4*x: coefficients that the z-fold leaves
    alone, so every section has these components.  The payoffs are those
    of the z = 0 section's ``_fold_z`` rows."""
    s = game.orientation.sign
    rows = _fold_z(game.payoff.coeffs, 0.0)
    (_, c1, _, _, c4), (_, _, d2, _, d4) = rows
    return _equilibria(s, (s * c1, s * c4), (s * d2, s * d4), rows)


def _nash_lattice(game: CoopetitiveGame, grid_n: int) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) lattice over each Nash component of the z = 0 section, in order."""
    xs, ys = [], []
    for comp in _section_components(game):
        (xl, xh), (yl, yh) = comp.x_interval, comp.y_interval
        gx = [xl] if xl == xh else np.linspace(xl, xh, grid_n)
        gy = [yl] if yl == yh else np.linspace(yl, yh, grid_n)
        xs.append(np.repeat(gx, len(gy)))
        ys.append(np.tile(gy, len(gx)))
    return np.concatenate(xs), np.concatenate(ys)


def _section_payoffs(game: CoopetitiveGame, x: np.ndarray, y: np.ndarray, axis: int = -1) -> np.ndarray:
    """Payoffs at (x, y) in every section, the two components stacked along
    ``axis``: shape (len(c_grid), len(x), 2) by default.  Row k has the
    bits of ``section_game(game, c_grid[k]).eval_arrays(x, y)``."""
    rows = _fold_z(game.payoff.coeffs, game.c_grid[:, None])
    return np.stack([_component(c, x, y, 0.0) for c in rows], axis=axis)


def induced_path(game: CoopetitiveGame, quantity: PathQuantity, grid_n: int) -> SetValuedPath:
    """Sample the named per-section quantity along ``c_grid``.

    Nash payoff sets are sampled at ``grid_n`` points per interval of the
    sections' mixed equilibrium components; extrema (attained at the four
    corners of the unit square) and conservative bi-values are exact.  Every
    section has the components of the z = 0 section, and its conservative
    bi-value is that section's shifted by c_z * z, so one analysis serves all.
    """
    if quantity not in ("nash_payoffs", "supremum", "infimum", "conservative"):
        raise ValueError(f"unsupported path quantity {quantity!r}")
    if grid_n < 2:
        raise ValueError(f"grid_n must be at least 2, got {grid_n}")
    if quantity == "nash_payoffs":
        values = _section_payoffs(game, *_nash_lattice(game, grid_n))
    elif quantity == "conservative":
        v = _conservative_value(game.orientation.sign, _fold_z(game.payoff.coeffs, 0.0))
        values = (v.as_array() + game.payoff.coeffs[:, 3] * game.c_grid[:, None])[:, None]
    else:
        # Each component at the four corners, one row of sections per corner,
        # reduced row by row.  The corners are lattice points, whose zeros
        # share one sign (see ``lattice_tu``), so the order decides no bit.
        x, y = np.array([[0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0]])[:, :, None]
        best = np.maximum if quantity == "supremum" else np.minimum
        rows = _fold_z(game.payoff.coeffs, game.c_grid)
        values = np.stack([best.reduce(_component(c, x, y, 0.0)) for c in rows], axis=1)[:, None]
    values.flags.writeable = False
    return SetValuedPath(tuple(zip(game.c_grid.tolist(), values)), quantity)


def nash_zone(game: CoopetitiveGame, grid_n: int) -> PointCloud:
    """Union of the sections' Nash payoff sets, tagged with (x, y, z).

    The z = 0 section's component lattice is every section's, so rows run
    over ``c_grid``, then components, then each component's lattice.
    """
    if grid_n < 2:
        raise ValueError(f"grid_n must be at least 2, got {grid_n}")
    gx, gy = _nash_lattice(game, grid_n)
    nz, n = len(game.c_grid), len(gx)
    # Each column written through a (c_grid, lattice) view: column-major, as stored.
    preimages = np.empty((nz * n, 3), order="F")
    for k, column in enumerate((gx, gy, game.c_grid[:, None])):
        preimages[:, k].reshape(nz, n)[...] = column
    payoffs = _section_payoffs(game, gx, gy, axis=0).reshape(2, nz * n).T
    return PointCloud(payoffs, preimages, grid_step=1.0 / (grid_n - 1))


def proper_coopetitive_solution(
    game: CoopetitiveGame, grid_n: int, tol: float
) -> SolutionPoint:
    """Kalai-Smorodinsky over the Pareto boundary of the Nash zone.

    Cooperation happens on the z axis only; the players stay selfish on
    (x, y).  This is the ``pareto`` compromise of the zone's
    orientation-facing boundary: the bargaining problem runs from its
    worst corner to its best corner per orientation, and a single-point
    boundary is its own solution.
    """
    zone = nash_zone(game, grid_n)
    nstar = pareto_filter(zone, game.orientation, facing_flavor(game.orientation))
    return replace(compromise_solution("pareto", nstar, tol=tol), method="proper-coopetitive")


def _nearest_witness(tub: TUBoundary, point: np.ndarray) -> tuple[float, ...]:
    w, pre = tub.witness_payoffs, tub.witness_preimages
    return tuple(float(v) for v in pre[_pick(w, pre, tub.orientation, np.hypot(*(w - point).T))])


def tu_crossing_solution(
    tub: TUBoundary, a: PayoffPoint, b: PayoffPoint, method: str = "tu-compromise"
) -> SolutionPoint:
    """Crossing of the segment [a, b] with the TU line of ``tub``.

    ``a`` and ``b`` must straddle the line p1 + p2 = optimal sum, or one
    of them lie on it; the returned payoff is the crossing itself, and the
    reported preimage is the witness profile nearest it (the players
    realize the optimal total there and transfer utility to reach the
    agreed split).  Equidistant witnesses tie as bargaining picks do
    (``geometry._pick`` in ``tub``'s orientation): to the payoff better
    for player 1, then by preimage.  ``tub`` comes from ``tu_boundary``
    of a cloud or from ``lattice_tu`` of a payoff map, which on a cube
    builds no cloud.
    """
    m = tub.optimal_sum
    sum_a = a.p1 + a.p2
    sum_b = b.p1 + b.p2
    # One end on the line is a crossing (s = 0 or 1); two ends on the same
    # side, or both on the line, straddle nothing.  Signs, not a product,
    # so that two tiny same-side distances cannot underflow to a crossing.
    if np.sign(sum_a - m) == np.sign(sum_b - m):
        raise SameHalfPlane(
            f"threat sum {sum_a:.6g} and utopia sum {sum_b:.6g} do not straddle "
            f"the TU line p1+p2 = {m:.6g}"
        )
    s = (m - sum_a) / (sum_b - sum_a)
    crossing = np.array([a.p1 + s * (b.p1 - a.p1), a.p2 + s * (b.p2 - a.p2)])
    # Snap the coordinate sum exactly onto the line; the residual records
    # the (floating-point sized) adjustment.
    point = np.array([crossing[0], m - crossing[0]])
    return SolutionPoint(
        payoff=PayoffPoint(*point),
        preimage=_nearest_witness(tub, point),
        method=method,
        residual=float(np.hypot(*(point - crossing))),
        threat=a,
        utopia=b,
    )


def core_supremum(game: CoopetitiveGame, z: float, grid_n: int) -> PayoffPoint:
    """The orientation-worst corner of the payoff core of the section at ``z``.

    The paper reads it in a LOSS game, where it is the core's componentwise
    supremum; in a GAIN game it is the mirror, the componentwise infimum,
    so a game and its negated twin give negated answers.  The core is the
    portion of the section's orientation-facing Pareto boundary weakly
    better than its conservative bi-value ``v``.  It is read off the
    payoff columns that ``sample_image`` would give the section, sampled
    straight from its ``_fold_z`` coefficient rows, with no section map
    and no Pareto pass.

    Argue in the frame ``q = s*p``, with ``s`` the orientation's sign,
    where greater is better under either orientation.  Let ``S`` be the
    lattice rows with ``q >= s*v``, compared as ``payoff_core`` compares.
    Every row of ``S`` is weakly dominated by a row of the facing boundary,
    which is then weakly better than ``v`` and so in ``S`` too.  So the core
    is empty iff ``S`` is, and the core's two end points are lexicographic
    extremes of ``S``: the greatest q1 among the rows at ``S``'s greatest
    q2, and the greatest q2 among the rows at its greatest q1.  The worst
    corner takes q1 from the first and q2 from the second, times ``s``.

    The frame is never built: the raw payoff columns are compared and
    reduced with ``>=`` and ``max`` under GAIN, where the frame is the
    payoffs, and with ``<=`` and ``min`` under LOSS.  Negation is exact, so
    ``-a >= -b`` iff ``a <= b``, and the least payoff is the negated
    greatest frame value.  Only the sign of a zero could tell the two
    apart, and a component's zeros on a lattice share one sign (see
    ``lattice_tu``), so each reduction gives the bits of the core's worst
    corner.
    """
    rows = _fold_z(game.payoff.coeffs, _height(z))
    s = game.orientation.sign
    v = _conservative_value(s, rows)
    p1, p2 = _sample(rows, grid_n, 2).T
    weakly_better, best = (np.greater_equal, np.max) if s > 0 else (np.less_equal, np.min)
    mask = weakly_better(p1, v.p1)
    mask &= weakly_better(p2, v.p2)
    if not mask.any():
        raise EmptyPortion(f"the payoff core of the section at z={z} is empty")
    p1, p2 = p1[mask], p2[mask]
    return PayoffPoint(best(p1[p2 == best(p2)]), best(p2[p1 == best(p1)]))


def win_win_report(
    game: CoopetitiveGame, candidate: SolutionPoint, grid_n: int
) -> WinWinReport:
    """Check a candidate against the initial game's core supremum L.

    Win-win means strictly better than L in both components, read per
    orientation; the margin records the componentwise improvement.
    """
    if game.initial_z is None:
        raise MissingInitialZ("win-win analysis needs a game with initial_z set")
    L = core_supremum(game, game.initial_z, grid_n)
    s = game.orientation.sign
    margin = PayoffPoint(s * (candidate.payoff.p1 - L.p1), s * (candidate.payoff.p2 - L.p2))
    return WinWinReport(L, strictly_better(candidate.payoff, L, game.orientation), margin)


def standard_win_win_solution(
    game: CoopetitiveGame, grid_n: int, tol: float = 1e-6
) -> SolutionPoint:
    """TU compromise threatened by the initial core supremum L.

    The utopia point is the orientation-best corner of the TU-boundary
    portion weakly better than L.  Raises :class:`EmptyPortion` when the
    optimal collective payoff does not strictly improve on L's total, in
    which case no TU point can beat the initial game.
    """
    if game.initial_z is None:
        raise MissingInitialZ("the standard win-win solution needs initial_z set")
    L = core_supremum(game, game.initial_z, grid_n)
    tub, *box = lattice_tu(game.payoff, grid_n, game.orientation, tol)
    end_lo, end_hi = tu_line(tub, *box)
    m = tub.optimal_sum
    s = game.orientation.sign
    if not s * m > s * (L.p1 + L.p2):
        raise EmptyPortion(
            f"optimal collective payoff {m:.6g} does not improve on the "
            f"initial core supremum total {L.p1 + L.p2:.6g}"
        )
    # The portion weakly better than L lies between p1 = L.p1 and p1 =
    # m - L.p2 on the TU line: the test above orders the two by orientation.
    lo = max(end_lo.p1, min(L.p1, m - L.p2))
    hi = min(end_hi.p1, max(L.p1, m - L.p2))
    if lo > hi:
        raise EmptyPortion("no TU boundary point is weakly better than the core supremum")
    if lo == hi:
        # The improving portion is a single point, which is the solution.
        point = np.array([lo, m - lo])
        return SolutionPoint(
            payoff=PayoffPoint(*point),
            preimage=_nearest_witness(tub, point),
            method="standard-win-win",
            residual=0.0,
            threat=L,
            utopia=PayoffPoint(*point),
        )
    utopia = orientation_best(np.array([[lo, m - lo], [hi, m - hi]]), game.orientation)
    return tu_crossing_solution(tub, L, utopia, "standard-win-win")

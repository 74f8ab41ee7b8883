"""Two-player coopetitive games as z-indexed families of section games.

A coopetitive game is a payoff map on the unit cube: the players pick
(x, y) competitively while z is chosen jointly.  Fixing z yields a
normal-form section game, and the family of sections determines the game
(and vice versa); ``family_roundtrip_check`` witnesses that on a lattice.
The cooperative axis is discretized to ``c_grid``, so induced families
(Nash payoffs, extrema, conservative bi-values) become sampled set-valued
paths, and the solution concepts built on them (proper coopetitive,
transferable-utility compromise, win-win) operate on those samples.

With no xz or yz monomial, section z is the z = 0 section plus c_z * z per
player.  That constant changes no best reply, so every section has the z = 0
equilibrium components, and its conservative bi-value and corner extrema
move by exactly c_z * z: paths and the Nash zone analyse z = 0 once and
translate the result along ``c_grid`` as arrays.  That table is eight
numbers, so it is built and analysed on Python floats, by the one payoff formula.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Literal

import numpy as np

from .bargaining import SolutionPoint, compromise_solution
from .errors import EmptyPortion, MissingInitialZ, SameHalfPlane
from .games import FiniteBimatrixGame, Orientation, PayoffPoint, strictly_better
from .geometry import (
    PayoffMap,
    PointCloud,
    TUBoundary,
    _component,
    _lex_order,
    facing_flavor,
    lattice_tu,
    pareto_filter,
    sample_image,
    tu_line,
)
from .mixed import conservative_bivalue_mixed, mixed_equilibrium_components

__all__ = [
    "CoopetitiveGame",
    "SectionGame",
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
            if np.abs(grid - z0).min() > 1e-12:
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
class SectionGame:
    """The normal-form game obtained by fixing the cooperative strategy."""

    z: float
    map: PayoffMap


@dataclass(frozen=True, eq=False)
class SetValuedPath:
    """Samples of a per-section quantity along the cooperative axis."""

    samples: tuple[tuple[float, np.ndarray], ...]
    quantity: PathQuantity


@dataclass(frozen=True)
class WinWinReport:
    """Whether a candidate strictly beats the initial game's core supremum."""

    core_sup: PayoffPoint
    candidate: SolutionPoint
    is_win_win: bool
    margin: PayoffPoint


def section_game(game: CoopetitiveGame, z: float) -> SectionGame:
    """The section at cooperative strategy ``z`` in [0, 1]."""
    z = float(z)
    if not 0.0 <= z <= 1.0:
        raise ValueError(f"z must lie in [0, 1], got {z}")
    return SectionGame(z, game.payoff.section(z))


def family_roundtrip_check(game: CoopetitiveGame, grid_n: int = 17) -> bool:
    """True iff the sections reassemble the payoff map on the lattice.

    Discrete witness of the bijection between a coopetitive game and its
    family of section games: for every z in ``c_grid`` and lattice (x, y),
    the section value must match the full map to 1e-12 per unit of the
    larger player's sum of |coefficients|, which bounds the payoffs (and
    so their rounding) over the cube.
    """
    t = np.linspace(0.0, 1.0, grid_n)
    x, y = np.meshgrid(t, t, indexing="ij")
    tol = 1e-12 * max(1.0, np.abs(game.payoff.coeffs).sum(axis=1).max())
    for z in game.c_grid:
        sec = section_game(game, z)
        s1, s2 = sec.map.eval_arrays(x, y)
        f1, f2 = game.payoff.eval_arrays(x, y, np.full_like(x, z))
        if np.abs(s1 - f1).max() > tol or np.abs(s2 - f2).max() > tol:
            return False
    return True


def _section_table(game: CoopetitiveGame, z: float) -> FiniteBimatrixGame:
    """The 2x2 table of the section at ``z``; row 0 / column 0 is x = y = 1.

    ``_component`` on floats, c_z * z folded into the constant as by
    ``PayoffMap.section``: the bits of the section map's array evaluation."""
    tables = ([[_component((c0 + c3 * z, c1, c2, 0.0, c4), x, y, 0.0) for y in (1.0, 0.0)] for x in (1.0, 0.0)]
              for c0, c1, c2, c3, c4 in game.payoff.coeffs.tolist())
    return FiniteBimatrixGame(*tables, game.orientation)


def _nash_lattice(game: CoopetitiveGame, grid_n: int) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) lattice over each Nash component of the z = 0 section, in order."""
    xs, ys = [], []
    for comp in mixed_equilibrium_components(_section_table(game, 0.0)):
        (xl, xh), (yl, yh) = comp.x_interval, comp.y_interval
        gx, gy = np.meshgrid(
            [xl] if xl == xh else np.linspace(xl, xh, grid_n),
            [yl] if yl == yh else np.linspace(yl, yh, grid_n),
            indexing="ij",
        )
        xs.append(gx.ravel())
        ys.append(gy.ravel())
    return np.concatenate(xs), np.concatenate(ys)


def _section_payoffs(game: CoopetitiveGame, x: np.ndarray, y: np.ndarray, axis: int = -1) -> np.ndarray:
    """Payoffs at (x, y) in every section, the two components stacked along
    ``axis``: shape (len(c_grid), len(x), 2) by default."""
    c = game.payoff.coeffs
    const = c[:, 0] + c[:, 3] * game.c_grid[:, None]
    p = [const[:, k, None] + c[k, 1] * x + c[k, 2] * y + c[k, 4] * x * y for k in (0, 1)]
    return np.stack(p, axis=axis)


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
        v = conservative_bivalue_mixed(_section_table(game, 0.0))
        values = (v.as_array() + game.payoff.coeffs[:, 3] * game.c_grid[:, None])[:, None]
    else:
        x, y = np.array([[0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0]])
        corners = _section_payoffs(game, x, y)
        values = (np.max if quantity == "supremum" else np.min)(corners, axis=1, keepdims=True)
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
    # Component-major stacks, transposed: column-major clouds, as stored.
    preimages = np.stack([np.tile(gx, nz), np.tile(gy, nz), np.repeat(game.c_grid, n)]).T
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
    return tuple(float(v) for v in pre[_lex_order(w, pre, np.hypot(*(w - point).T))[0]])


def tu_crossing_solution(
    tub: TUBoundary, a: PayoffPoint, b: PayoffPoint, method: str = "tu-compromise"
) -> SolutionPoint:
    """Crossing of the segment [a, b] with the TU line of ``tub``.

    ``a`` and ``b`` must straddle the line p1 + p2 = optimal sum, or one
    of them lie on it; the returned payoff is the crossing itself, and the
    reported preimage is the witness profile nearest it (the players
    realize the optimal total there and transfer utility to reach the
    agreed split).  ``tub`` comes from ``tu_boundary`` of a cloud or from
    ``lattice_tu`` of a payoff map, which builds no cloud.
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
    """Componentwise supremum of the payoff core of the section at ``z``.

    The core is the portion of the section's orientation-facing Pareto
    boundary weakly better than its conservative bi-value ``v``; its
    supremum is taken componentwise over the samples.  It is read off the
    lattice's payoff columns, with no Pareto pass.

    Let ``S`` be the lattice rows weakly better than ``v``, compared as
    ``payoff_core`` compares.  Every row of ``S`` is weakly dominated by a
    row of the facing boundary, which is then weakly better than ``v`` and
    so in ``S`` too.  So the core is empty iff ``S`` is, and the core's two
    end points are lexicographic extremes of ``S``.  Under GAIN the
    supremum is ``(max p1, max p2)`` over ``S``.  Under LOSS its p1 is the
    least p1 among the rows of ``S`` at ``S``'s least p2, and its p2 the
    least p2 among the rows at ``S``'s least p1.  A component's zeros on
    a lattice share one sign (see ``lattice_tu``), so each reduction gives
    the bits of the core's componentwise maximum.
    """
    cloud = sample_image(section_game(game, z).map, grid_n)
    v = conservative_bivalue_mixed(_section_table(game, z))
    s = game.orientation.sign
    p1, p2 = cloud.payoffs.T
    mask = s * p1 >= s * v.p1
    mask &= s * p2 >= s * v.p2
    if not mask.any():
        raise EmptyPortion(f"the payoff core of the section at z={z} is empty")
    p1, p2 = p1[mask], p2[mask]
    if game.orientation is Orientation.GAIN:
        return PayoffPoint(p1.max(), p2.max())
    return PayoffPoint(p1[p2 == p2.min()].min(), p2[p1 == p1.min()].min())


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
    return WinWinReport(
        core_sup=L,
        candidate=candidate,
        is_win_win=strictly_better(candidate.payoff, L, game.orientation),
        margin=margin,
    )


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
    if game.orientation is Orientation.LOSS:
        lo = max(end_lo.p1, m - L.p2)
        hi = min(end_hi.p1, L.p1)
        utopia = PayoffPoint(lo, m - hi)
    else:
        lo = max(end_lo.p1, L.p1)
        hi = min(end_hi.p1, m - L.p2)
        utopia = PayoffPoint(hi, m - lo)
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
    return tu_crossing_solution(tub, L, utopia, "standard-win-win")

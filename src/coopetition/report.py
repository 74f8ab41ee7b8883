"""Deterministic text reports for the ``analyze`` command, and the context
every command reads a game file's solutions from.

Every number in a report is produced by exactly one operation of the core
modules with the same parameters, so it can be reproduced independently.
:class:`GameContext` is the one place that picks each solution concept's
default threat, utopia and tolerance, so ``analyze``, ``solve``, ``render``
and ``paper-demo`` give one answer per concept: the demo's coopetitive
answers equal ``solve``'s on the game file it emits.

:data:`CONCEPTS` names every concept :meth:`GameContext.solve` answers,
with the points a caller may set; the ``solve`` command offers them in its
order.  :func:`build_report` returns the ``analyze`` report as text.

This module answers and writes analysis text only; it draws nothing and
imports nothing from :mod:`render`, which builds the figures from a
:class:`GameContext`.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .bargaining import (
    BargainingProblem,
    SolutionPoint,
    compromise_solution,
    ks_solution,
    nash_bargaining,
)
from .coopetitive import (
    SetValuedPath,
    family_roundtrip_check,
    induced_path,
    nash_zone,
    proper_coopetitive_solution,
    standard_win_win_solution,
    tu_crossing_solution,
    win_win_report,
)
from .errors import SolverRefusal, UnsupportedGameError
from .gamefile import GameSpec
from .games import (
    FiniteBimatrixGame,
    PayoffPoint,
    conservative_bivalue,
    dominant_strategies,
    pure_nash_equilibria,
)
from .geometry import (
    ParetoBoundary,
    PointCloud,
    TUBoundary,
    extrema,
    facing_flavor,
    orientation_best,
    orientation_worst,
    pareto_filter,
    sample_image,
    tu_boundary,
)
from .mixed import (
    EquilibriumComponent,
    bilinear_map,
    conservative_bivalue_mixed,
    mixed_equilibrium_components,
)

__all__ = ["CONCEPTS", "GameContext", "build_report", "fmt", "fmt_point", "solution_lines"]

#: Every solution concept :meth:`GameContext.solve` answers, in the order
#: ``solve --solution`` lists them, with the points it reads: the
#: ``threat`` and ``utopia`` a caller may pass in place of the defaults.
CONCEPTS = {
    "ks": ("threat", "utopia"),
    "nash-bargaining": ("threat",),
    "tu": ("threat", "utopia"),
    "proper-coopetitive": (),
    "win-win": (),
    "compromise:pareto": (),
    "compromise:nash_pareto": ("threat",),
    "compromise:conservative_pareto": ("threat",),
}


def fmt(v: float) -> str:
    return f"{float(v):.10g}"


def fmt_point(p: PayoffPoint) -> str:
    return f"({fmt(p.p1)}, {fmt(p.p2)})"


class GameContext:
    """One game file at one grid: every solution concept reads it from here.

    The sampled cloud, its facing Pareto boundary and the default threat
    points are built on first use.  A default threat point that is read off
    a set of points (the conservative path of a coopetitive game, the Nash
    payoffs) is the set's orientation-worst corner, and the default utopia
    is the cloud's orientation-best corner: ``geometry.orientation_worst``
    and ``orientation_best``, so a game and its negated twin get negated
    defaults.  The tolerance is ``tol`` (the ``--tol``
    flag) if given, else the file's ``analysis.tol``, else a default per
    concept: three grid steps for the Kalai-Smorodinsky concepts, whose
    answer is a sampled point near a segment, and 1e-6 for the TU ones,
    whose witnesses lie within it of the optimal sum.  ``tu_tol`` is the
    one TU rule: every witness set a command prints, draws or picks from
    is read at it (``tu``, the report's TU line, the finite scene).
    """

    def __init__(self, spec: GameSpec, grid_n: int, tol: float | None = None):
        self.spec = spec
        self.grid_n = grid_n
        self.game = spec.game
        self.orientation = self.game.orientation
        tol = tol or spec.analysis.tol
        self.ks_tol = tol or 3.0 / (grid_n - 1)
        self.tu_tol = tol or 1e-6

    @cached_property
    def cloud(self) -> PointCloud:
        """The sampled image, built on first use: the coopetitive concepts never read it."""
        payoff_map = bilinear_map(self.game) if self.spec.kind == "finite" else self.game.payoff
        return sample_image(payoff_map, self.grid_n)

    @cached_property
    def boundary(self) -> ParetoBoundary:
        return pareto_filter(self.cloud, self.orientation, facing_flavor(self.orientation))

    @cached_property
    def tu(self) -> TUBoundary:
        """The cloud's TU optimum and witnesses at ``tu_tol``."""
        return tu_boundary(self.cloud, self.orientation, self.tu_tol)

    @cached_property
    def components(self) -> list[EquilibriumComponent]:
        """Mixed equilibrium components of a finite game."""
        return mixed_equilibrium_components(self.game)

    @cached_property
    def conservative_path(self) -> SetValuedPath:
        """Conservative bi-values along a coopetitive game's ``c_grid``."""
        return induced_path(self.game, "conservative", self.grid_n)

    @cached_property
    def conservative(self) -> PayoffPoint:
        """Conservative bi-value, or the orientation-worst corner of the conservative path."""
        if self.spec.kind == "finite":
            return conservative_bivalue_mixed(self.game)
        pts = np.concatenate([pts for _, pts in self.conservative_path.samples], axis=0)
        return orientation_worst(pts, self.orientation)

    @cached_property
    def nash_extreme(self) -> PayoffPoint:
        """Orientation-worst corner of the Nash payoffs: the mixed equilibrium
        components' extreme payoffs, or the Nash zone."""
        if self.spec.kind == "finite":
            pts = np.array([p.as_tuple() for c in self.components for p in c.payoff_extremes])
            return orientation_worst(pts, self.orientation)
        return orientation_worst(nash_zone(self.game, self.grid_n), self.orientation)

    def solve(
        self, name: str, threat: PayoffPoint | None = None, utopia: PayoffPoint | None = None
    ) -> SolutionPoint:
        """Solution concept ``name``, one of :data:`CONCEPTS`.

        ``threat`` and ``utopia`` replace the defaults: the conservative
        value (the Nash extreme for ``compromise:nash_pareto``) and the
        orientation-best corner of the cloud.
        """
        if name not in CONCEPTS:
            raise ValueError(f"unknown solution concept {name!r}")
        if name in ("proper-coopetitive", "win-win"):
            if self.spec.kind != "coopetitive":
                raise UnsupportedGameError(f"{name} solutions need a coopetitive game file")
            if name == "win-win":
                return standard_win_win_solution(self.game, self.grid_n, self.tu_tol)
            return proper_coopetitive_solution(self.game, self.grid_n, self.ks_tol)
        if name == "compromise:nash_pareto":
            threat = threat or self.nash_extreme
        elif name != "compromise:pareto":
            threat = threat or self.conservative
        if name.startswith("compromise:"):
            return compromise_solution(name.split(":", 1)[1], self.boundary, threat, self.ks_tol)
        if name == "nash-bargaining":
            return nash_bargaining(self.boundary, threat, self.orientation)
        utopia = utopia or orientation_best(self.cloud, self.orientation)
        if name == "ks":
            return ks_solution(BargainingProblem(self.boundary, threat, utopia), self.ks_tol)
        return tu_crossing_solution(self.tu, threat, utopia)


def solution_lines(sol: SolutionPoint) -> list[str]:
    """The preimage, residual, threat and utopia lines of a solution."""
    lines = []
    if sol.preimage is not None:
        lines.append(f"preimage: ({', '.join(fmt(v) for v in sol.preimage)})")
    lines.append(f"residual: {fmt(sol.residual)}")
    if sol.threat is not None:
        lines.append(f"threat a: {fmt_point(sol.threat)}")
    if sol.utopia is not None:
        lines.append(f"utopia b: {fmt_point(sol.utopia)}")
    return lines


def _concept_lines(ctx: GameContext, name: str, label: str) -> tuple[SolutionPoint | None, list[str]]:
    """Report block of one concept, or its "unavailable" line if the game refuses it."""
    try:
        sol = ctx.solve(name)
    except SolverRefusal as exc:
        return None, [f"{label}: unavailable ({exc})"]
    return sol, [f"{label}: payoff {fmt_point(sol.payoff)}"] + [f"  {v}" for v in solution_lines(sol)]


def _space_lines(ctx: GameContext) -> list[str]:
    """Extrema, boundary size and TU optimum of the sampled payoff space."""
    lo, hi = extrema(ctx.cloud)
    tub = ctx.tu
    return [
        f"image extrema: inf {fmt_point(lo)}, sup {fmt_point(hi)}",
        f"Pareto {facing_flavor(ctx.orientation)} boundary: {len(ctx.boundary)} points",
        f"TU optimal sum: {fmt(tub.optimal_sum)} "
        f"({len(tub.witness_payoffs)} witnesses, ends {fmt_point(tub.segment_ends[0])}"
        f" .. {fmt_point(tub.segment_ends[1])})",
    ]


def _strategy_set(game: FiniteBimatrixGame, player: int, ids: set[int]) -> str:
    labels = game.row_labels if player == 1 else game.col_labels
    names = [labels[i] if labels else str(i) for i in sorted(ids)]
    return "{" + ", ".join(names) + "}"


def _finite_sections(ctx: GameContext) -> list[tuple[str, list[str]]]:
    spec, game = ctx.spec, ctx.game
    summary = [
        f"kind: finite {game.rows}x{game.cols} ({game.orientation.value})",
        f"source: {spec.path}",
    ]
    if game.row_labels:
        summary.append(f"rows: {', '.join(game.row_labels)}")
    if game.col_labels:
        summary.append(f"cols: {', '.join(game.col_labels)}")
    sections = [("game", summary)]

    cells = sorted(pure_nash_equilibria(game), key=lambda c: (c.row, c.col))
    sections.append(("pure Nash equilibria", [game.label(c) for c in cells] or ["none"]))
    dom_lines = []
    for player in (1, 2):
        weak = _strategy_set(game, player, dominant_strategies(game, player, "weak"))
        strict = _strategy_set(game, player, dominant_strategies(game, player, "strict"))
        dom_lines.append(f"player {player}: weak {weak}, strict {strict}")
    sections.append(("dominant strategies", dom_lines))
    sections.append(("conservative bi-value", [fmt_point(conservative_bivalue(game))]))

    if (game.rows, game.cols) != (2, 2):
        sections.append(("mixed extension", ["skipped (only available for 2x2 games)"]))
        return sections

    comp_lines = []
    for comp in ctx.components:
        ext = ", ".join(f"({fmt(p.x)}, {fmt(p.y)})" for p in comp.extreme_points)
        pay = ", ".join(fmt_point(p) for p in comp.payoff_extremes)
        comp_lines.append(f"{comp.description}: extremes {ext}; payoffs {pay}")
    sections.append(("mixed equilibrium components", comp_lines))
    sections.append(
        (
            f"mixed extension (grid {ctx.grid_n})",
            [f"conservative bi-value: {fmt_point(ctx.conservative)}", *_space_lines(ctx)],
        )
    )
    sol_lines: list[str] = []
    for name in ("compromise:pareto", "compromise:nash_pareto", "compromise:conservative_pareto"):
        sol_lines.extend(_concept_lines(ctx, name, name)[1])
    sections.append(("solutions", sol_lines))
    return sections


def _coopetitive_sections(ctx: GameContext) -> list[tuple[str, list[str]]]:
    spec, game = ctx.spec, ctx.game
    z0 = "none" if game.initial_z is None else fmt(game.initial_z)
    sections = [
        (
            "game",
            [
                f"kind: coopetitive ({game.orientation.value})",
                f"source: {spec.path}",
                f"c_grid: {len(game.c_grid)} points in [{fmt(game.c_grid[0])}, "
                f"{fmt(game.c_grid[-1])}], initial_z: {z0}",
                f"family roundtrip check: {family_roundtrip_check(game)}",
            ],
        )
    ]

    first, last = ctx.conservative_path.samples[0], ctx.conservative_path.samples[-1]
    sections.append(
        (
            f"payoff space (grid {ctx.grid_n} per axis)",
            [
                *_space_lines(ctx),
                f"conservative path: z={fmt(first[0])} -> ({fmt(first[1][0][0])}, "
                f"{fmt(first[1][0][1])}); z={fmt(last[0])} -> ({fmt(last[1][0][0])}, "
                f"{fmt(last[1][0][1])})",
            ],
        )
    )

    _, sol_lines = _concept_lines(ctx, "proper-coopetitive", "proper-coopetitive")
    if game.initial_z is not None:
        www, lines = _concept_lines(ctx, "win-win", "standard-win-win")
        sol_lines.extend(lines)
        if www is not None:
            report = win_win_report(game, www, ctx.grid_n)
            sol_lines.append(
                f"  core supremum L: {fmt_point(report.core_sup)}, "
                f"margin {fmt_point(report.margin)}, win-win: {report.is_win_win}"
            )
    sections.append(("solutions", sol_lines))
    return sections


def build_report(ctx: GameContext) -> str:
    """The ``analyze`` report of the context's game: each section's heading,
    then its lines indented under it."""
    sections = _finite_sections(ctx) if ctx.spec.kind == "finite" else _coopetitive_sections(ctx)
    out = []
    for heading, lines in sections:
        out.append(heading)
        out.extend(f"  {line}" for line in lines)
    return "\n".join(out) + "\n"

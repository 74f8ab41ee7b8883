"""Deterministic text reports for the ``analyze`` command.

Every number in a report is produced by exactly one operation of the core
modules with the same parameters, so it can be reproduced independently.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bargaining import SolutionPoint, compromise_solution
from .coopetitive import (
    family_roundtrip_check,
    induced_path,
    proper_coopetitive_solution,
    standard_win_win_solution,
    win_win_report,
)
from .errors import (
    DegenerateProblem,
    EmptyPortion,
    NoIntersection,
    SameHalfPlane,
    UnsupportedGameError,
)
from .gamefile import GameSpec
from .games import (
    FiniteBimatrixGame,
    PayoffPoint,
    conservative_bivalue,
    dominant_strategies,
    pure_nash_equilibria,
)
from .geometry import extrema, facing_flavor, pareto_filter, sample_image, tu_boundary
from .mixed import (
    bilinear_map,
    conservative_bivalue_mixed,
    mixed_equilibrium_components,
    nash_extreme,
)

__all__ = ["AnalysisReport", "build_report", "fmt", "fmt_point"]


def fmt(v: float) -> str:
    return f"{float(v):.10g}"


def fmt_point(p: PayoffPoint) -> str:
    return f"({fmt(p.p1)}, {fmt(p.p2)})"


@dataclass(frozen=True)
class AnalysisReport:
    """Headed sections of report lines, renderable as stable text."""

    sections: tuple[tuple[str, tuple[str, ...]], ...]

    def to_text(self) -> str:
        out = []
        for heading, lines in self.sections:
            out.append(heading)
            out.extend(f"  {line}" for line in lines)
        return "\n".join(out) + "\n"


def _solution_lines(name: str, sol: SolutionPoint) -> list[str]:
    lines = [f"{name}: payoff {fmt_point(sol.payoff)}"]
    if sol.preimage is not None:
        lines.append(f"  preimage: ({', '.join(fmt(v) for v in sol.preimage)})")
    lines.append(f"  residual: {fmt(sol.residual)}")
    if sol.threat is not None:
        lines.append(f"  threat a: {fmt_point(sol.threat)}")
    if sol.utopia is not None:
        lines.append(f"  utopia b: {fmt_point(sol.utopia)}")
    return lines


def _strategy_set(game: FiniteBimatrixGame, player: int, ids: set[int]) -> str:
    labels = game.row_labels if player == 1 else game.col_labels
    names = [labels[i] if labels else str(i) for i in sorted(ids)]
    return "{" + ", ".join(names) + "}"


def build_finite_report(spec: GameSpec, grid_n: int, tol: float, mixed: bool | None) -> AnalysisReport:
    game = spec.finite
    assert game is not None
    sections: list[tuple[str, tuple[str, ...]]] = []
    summary = [
        f"kind: finite {game.rows}x{game.cols} ({game.orientation.value})",
        f"source: {spec.path}",
    ]
    if game.row_labels:
        summary.append(f"rows: {', '.join(game.row_labels)}")
    if game.col_labels:
        summary.append(f"cols: {', '.join(game.col_labels)}")
    sections.append(("game", tuple(summary)))

    cells = sorted(pure_nash_equilibria(game), key=lambda c: (c.row, c.col))
    sections.append(
        ("pure Nash equilibria", tuple(game.label(c) for c in cells) or ("none",))
    )
    dom_lines = []
    for player in (1, 2):
        weak = _strategy_set(game, player, dominant_strategies(game, player, "weak"))
        strict = _strategy_set(game, player, dominant_strategies(game, player, "strict"))
        dom_lines.append(f"player {player}: weak {weak}, strict {strict}")
    sections.append(("dominant strategies", tuple(dom_lines)))
    sections.append(
        ("conservative bi-value", (fmt_point(conservative_bivalue(game)),))
    )

    want_mixed = mixed if mixed is not None else (game.rows == 2 and game.cols == 2)
    if mixed and (game.rows, game.cols) != (2, 2):
        raise UnsupportedGameError(
            f"mixed-extension analysis needs a 2x2 game, got {game.rows}x{game.cols}"
        )
    if not want_mixed:
        sections.append(
            ("mixed extension", ("skipped (only available for 2x2 games)",))
        )
        return AnalysisReport(tuple(sections))

    comp_lines = []
    components = mixed_equilibrium_components(game)
    for comp in components:
        ext = ", ".join(f"({fmt(p.x)}, {fmt(p.y)})" for p in comp.extreme_points)
        pay = ", ".join(fmt_point(p) for p in comp.payoff_extremes)
        comp_lines.append(f"{comp.description}: extremes {ext}; payoffs {pay}")
    sections.append(("mixed equilibrium components", tuple(comp_lines)))

    v_mixed = conservative_bivalue_mixed(game)
    cloud = sample_image(bilinear_map(game), grid_n)
    lo, hi = extrema(cloud)
    flavor = facing_flavor(game.orientation)
    boundary = pareto_filter(cloud, game.orientation, flavor)
    tub = tu_boundary(cloud, game.orientation, 1e-9)
    sections.append(
        (
            f"mixed extension (grid {grid_n})",
            (
                f"conservative bi-value: {fmt_point(v_mixed)}",
                f"image extrema: inf {fmt_point(lo)}, sup {fmt_point(hi)}",
                f"Pareto {flavor} boundary: {len(boundary)} points",
                f"TU optimal sum: {fmt(tub.optimal_sum)} "
                f"({len(tub.witness_payoffs)} witnesses, ends {fmt_point(tub.segment_ends[0])}"
                f" .. {fmt_point(tub.segment_ends[1])})",
            ),
        )
    )

    sol_lines: list[str] = []
    for kind, kwargs in (
        ("pareto", {}),
        ("nash_pareto", {"nash_extreme": nash_extreme(components)}),
        ("conservative_pareto", {"conservative": v_mixed}),
    ):
        try:
            sol = compromise_solution(kind, boundary, tol=tol, **kwargs)
        except (DegenerateProblem, NoIntersection) as exc:
            sol_lines.append(f"compromise:{kind}: unavailable ({exc})")
            continue
        sol_lines.extend(_solution_lines(sol.method, sol))
    sections.append(("solutions", tuple(sol_lines)))
    return AnalysisReport(tuple(sections))


def build_coopetitive_report(spec: GameSpec, grid_n: int, tol: float) -> AnalysisReport:
    game = spec.coopetitive
    assert game is not None
    sections: list[tuple[str, tuple[str, ...]]] = []
    z0 = "none" if game.initial_z is None else fmt(game.initial_z)
    sections.append(
        (
            "game",
            (
                f"kind: coopetitive ({game.orientation.value})",
                f"source: {spec.path}",
                f"c_grid: {len(game.c_grid)} points in [{fmt(game.c_grid[0])}, "
                f"{fmt(game.c_grid[-1])}], initial_z: {z0}",
                f"family roundtrip check: {family_roundtrip_check(game)}",
            ),
        )
    )

    cloud = sample_image(game.payoff, grid_n)
    lo, hi = extrema(cloud)
    flavor = facing_flavor(game.orientation)
    boundary = pareto_filter(cloud, game.orientation, flavor)
    tub = tu_boundary(cloud, game.orientation, 1e-9)
    cons = induced_path(game, "conservative", grid_n)
    first, last = cons.samples[0], cons.samples[-1]
    sections.append(
        (
            f"payoff space (grid {grid_n} per axis)",
            (
                f"image extrema: inf {fmt_point(lo)}, sup {fmt_point(hi)}",
                f"Pareto {flavor} boundary: {len(boundary)} points",
                f"TU optimal sum: {fmt(tub.optimal_sum)} "
                f"({len(tub.witness_payoffs)} witnesses, ends {fmt_point(tub.segment_ends[0])}"
                f" .. {fmt_point(tub.segment_ends[1])})",
                f"conservative path: z={fmt(first[0])} -> ({fmt(first[1][0][0])}, "
                f"{fmt(first[1][0][1])}); z={fmt(last[0])} -> ({fmt(last[1][0][0])}, "
                f"{fmt(last[1][0][1])})",
            ),
        )
    )

    try:
        sol_lines = _solution_lines(
            "proper-coopetitive", proper_coopetitive_solution(game, grid_n, tol)
        )
    except (DegenerateProblem, NoIntersection) as exc:
        sol_lines = [f"proper-coopetitive: unavailable ({exc})"]
    if game.initial_z is not None:
        try:
            www = standard_win_win_solution(game, grid_n)
            sol_lines.extend(_solution_lines("standard-win-win", www))
            report = win_win_report(game, www, grid_n)
            sol_lines.append(
                f"  core supremum L: {fmt_point(report.core_sup)}, "
                f"margin {fmt_point(report.margin)}, win-win: {report.is_win_win}"
            )
        except (EmptyPortion, SameHalfPlane) as exc:
            sol_lines.append(f"standard-win-win: unavailable ({exc})")
    sections.append(("solutions", tuple(sol_lines)))
    return AnalysisReport(tuple(sections))


def build_report(
    spec: GameSpec, grid_n: int, tol: float, mixed: bool | None = None
) -> AnalysisReport:
    if spec.kind == "finite":
        return build_finite_report(spec, grid_n, tol, mixed)
    return build_coopetitive_report(spec, grid_n, tol)

"""End-to-end market-entry scenario behind the ``paper-demo`` command.

Two firms: an entrant choosing Enter/Not-enter and an incumbent choosing
High/Low prices, with gains table [[(4,2), (0,3)], [(0,3), (0,4)]].  The
pipeline negates the table into its loss frame, shifts it by (0, -4) into
a normalized loss game, takes the mixed extension (expected losses
(-4xy, x+y)), then extends coopetitively by a joint cost-cutting strategy
z that lowers both losses linearly: (-4xy-z, x+y-z).

Every derived constant the run asserts comes from a closed form that is
spelled out next to it; the run writes a report, figure analogues (CSV and
SVG), and the two game files, and fails loudly if any check drifts.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .bargaining import BargainingProblem, ks_solution, nash_bargaining, payoff_core
from .coopetitive import (
    CoopetitiveGame,
    nash_zone,
    proper_coopetitive_solution,
    standard_win_win_solution,
    tu_crossing_solution,
    win_win_report,
)
from .errors import CoopetitionError
from .games import (
    FiniteBimatrixGame,
    Orientation,
    PayoffPoint,
    StrategyCell,
    dominant_strategies,
    negate_orientation,
    pure_nash_equilibria,
    translate,
)
from .geometry import (
    PayoffMap,
    extrema,
    hausdorff_distance,
    pareto_filter,
    sample_image,
    tu_boundary,
    tu_line,
)
from .mixed import bilinear_map, conservative_bivalue_mixed, mixed_equilibrium_components
from .render import Scene, write_csv, write_svg
from .report import fmt, fmt_point

__all__ = [
    "DemoCheckError",
    "market_entry_table",
    "entry_loss_game",
    "normalized_loss_game",
    "mixed_loss_map",
    "coopetitive_loss_map",
    "coopetitive_entry_game",
    "finite_game_dict",
    "coopetitive_game_dict",
    "run_paper_demo",
]


#: Points per cooperative axis of the coopetitive entry game.
ENTRY_C_GRID = 65
#: Lattice points per axis of the figures on the square and on the cube.
FIGURE_GRID_2D = 129
FIGURE_GRID_3D = 33


class DemoCheckError(CoopetitionError):
    """A built-in scenario assertion failed."""


def market_entry_table() -> FiniteBimatrixGame:
    """The entry game in gains: rows Enter/Not-enter, columns High/Low."""
    return FiniteBimatrixGame(
        np.array([[4.0, 0.0], [0.0, 0.0]]),
        np.array([[2.0, 3.0], [3.0, 4.0]]),
        Orientation.GAIN,
        row_labels=("E", "N"),
        col_labels=("H", "L"),
    )


def entry_loss_game() -> FiniteBimatrixGame:
    """The same interaction written as losses (all gains negated)."""
    return negate_orientation(market_entry_table())


def normalized_loss_game() -> FiniteBimatrixGame:
    """The loss game shifted by (0, +4) so its worst cell sits at the origin."""
    return translate(entry_loss_game(), PayoffPoint(0.0, 4.0))


def mixed_loss_map() -> PayoffMap:
    """Expected losses (-4xy, x+y) of the normalized loss game."""
    return bilinear_map(normalized_loss_game())


def coopetitive_loss_map() -> PayoffMap:
    """Joint cost cutting z shifts both expected losses down: (-4xy-z, x+y-z)."""
    return PayoffMap(np.array([[0.0, 0.0, 0.0, -1.0, -4.0], [0.0, 1.0, 1.0, -1.0, 0.0]]), arity=3)


def coopetitive_entry_game() -> CoopetitiveGame:
    return CoopetitiveGame.with_uniform_grid(
        coopetitive_loss_map(), Orientation.LOSS, ENTRY_C_GRID, initial_z=0.0
    )


def finite_game_dict() -> dict:
    g = market_entry_table()
    return {
        "kind": "finite",
        "orientation": "gain",
        "payoff1": g.payoff1.tolist(),
        "payoff2": g.payoff2.tolist(),
        "row_labels": list(g.row_labels),
        "col_labels": list(g.col_labels),
    }


def coopetitive_game_dict() -> dict:
    m = coopetitive_loss_map()
    return {
        "kind": "coopetitive",
        "orientation": "loss",
        "coefficients": {"p1": m.coeffs[0].tolist(), "p2": m.coeffs[1].tolist()},
        "c_grid_size": ENTRY_C_GRID,
        "initial_z": 0.0,
        "analysis": {"grid_n": 65},
    }


def _close(p: PayoffPoint, q: PayoffPoint, tol: float) -> bool:
    return math.hypot(p.p1 - q.p1, p.p2 - q.p2) <= tol


def run_paper_demo(out_dir: str | Path) -> str:
    """Run the full scenario, write artifacts into ``out_dir``, return the report."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines: list[str] = ["market-entry demo"]

    def check(name: str, ok: bool, detail: str) -> None:
        if not ok:
            raise DemoCheckError(f"{name}: {detail}")
        lines.append(f"ok: {name} ({detail})")

    # Finite game structure.
    table = market_entry_table()
    nash = pure_nash_equilibria(table)
    check(
        "pure Nash equilibria",
        nash == {StrategyCell(0, 1), StrategyCell(1, 1)},
        "{(E,L), (N,L)}",
    )
    check("(E,H) is not an equilibrium", StrategyCell(0, 0) not in nash, "best response fails")
    check(
        "column L weakly dominates H",
        dominant_strategies(table, 2, "weak") == {1},
        "player 2 weak dominants = {L}",
    )

    # Loss-frame identity: negating the gains equals shifting the
    # normalized loss game by (0, -4).
    m_loss = entry_loss_game()
    m_norm = normalized_loss_game()
    shifted = translate(m_norm, PayoffPoint(0.0, -4.0))
    check(
        "loss-frame identity",
        np.array_equal(m_loss.payoff1, shifted.payoff1)
        and np.array_equal(m_loss.payoff2, shifted.payoff2),
        "negated gains = normalized losses + (0, -4)",
    )

    # Mixed extension of the normalized loss game.
    components = mixed_equilibrium_components(m_norm)
    check(
        "mixed equilibrium component",
        len(components) == 1
        and components[0].description == "segment"
        and components[0].x_interval == (0.0, 1.0)
        and components[0].y_interval == (0.0, 0.0),
        "one segment {(x, 0)}",
    )
    pay = components[0].payoff_extremes
    a_prime, b_prime = PayoffPoint(0.0, 0.0), PayoffPoint(0.0, 1.0)
    check(
        "equilibrium payoff segment ends",
        _close(pay[0], a_prime, 1e-12) and _close(pay[-1], b_prime, 1e-12),
        "(0,0) and (0,1)",
    )
    conservative = conservative_bivalue_mixed(m_norm)
    check(
        "conservative bi-value of the extension",
        conservative == b_prime,
        f"{fmt_point(conservative)} = (0, 1) in closed form",
    )

    # Payoff-space geometry of the expected losses.
    f0 = mixed_loss_map()
    cloud_513 = sample_image(f0, 513)
    boundary_513 = pareto_filter(cloud_513, Orientation.LOSS, "minimal")
    t = np.linspace(0.0, 1.0, 8193)
    curve = np.stack([-4.0 * t * t, 2.0 * t], axis=1)
    dist = hausdorff_distance(boundary_513, curve)
    check(
        "boundary matches the curve p1 = -p2^2",
        dist <= 3.0 / 512.0,
        f"Hausdorff {fmt(dist)} <= {fmt(3.0 / 512.0)}",
    )
    lo, hi = extrema(cloud_513)
    check(
        "image extrema",
        lo == PayoffPoint(-4.0, 0.0) and hi == PayoffPoint(0.0, 2.0),
        "inf (-4,0), sup (0,2)",
    )

    # Kalai-Smorodinsky from the conservative value to the image infimum.
    # Substituting the segment (0,1)+s(-4,-1) into p1 = -p2^2 gives
    # s^2 - 6s + 1 = 0, s = 3 - 2*sqrt(2).
    ks_exact = PayoffPoint(8.0 * math.sqrt(2.0) - 12.0, 2.0 * math.sqrt(2.0) - 2.0)
    solutions_513 = {}
    for grid_n, tol in ((513, 1e-2), (1025, 1e-3)):
        boundary = boundary_513 if grid_n == 513 else pareto_filter(
            sample_image(f0, grid_n), Orientation.LOSS, "minimal"
        )
        ks = ks_solution(BargainingProblem(boundary, b_prime, lo), tol=3.0 / (grid_n - 1))
        check(
            f"KS solution at grid {grid_n}",
            _close(ks.payoff, ks_exact, tol),
            f"{fmt_point(ks.payoff)} ~ {fmt_point(ks_exact)} within {tol}",
        )
        if grid_n == 513:
            solutions_513["K'"] = ks

    # Nash bargaining from the same disagreement point: maximizing
    # 4t^2(1-2t) gives t = 1/3 and payoff (-4/9, 2/3).
    nb = nash_bargaining(boundary_513, b_prime, Orientation.LOSS)
    nb_exact = PayoffPoint(-4.0 / 9.0, 2.0 / 3.0)
    check(
        "Nash bargaining solution",
        _close(nb.payoff, nb_exact, 1e-2),
        f"{fmt_point(nb.payoff)} ~ {fmt_point(nb_exact)}",
    )
    solutions_513["N'"] = nb

    # Core of the pre-coopetitive game and its named corner points.
    core = payoff_core(boundary_513, conservative)
    core_inf = PayoffPoint(*core.payoffs.min(axis=0))
    check(
        "core infimum",
        _close(core_inf, PayoffPoint(-1.0, 0.0), 1e-2),
        f"{fmt_point(core_inf)} ~ (-1, 0)",
    )
    ks2 = ks_solution(BargainingProblem(boundary_513, b_prime, core_inf), tol=3.0 / 512.0)
    solutions_513["K''"] = ks2

    # Pre-coopetitive collective gain: the gains table tops out at 6 on (E,H).
    gain_cloud = sample_image(bilinear_map(table), 513)
    gain_tu = tu_boundary(gain_cloud, Orientation.GAIN, 1e-9)
    check(
        "pre-coopetitive collective gain",
        abs(gain_tu.optimal_sum - 6.0) <= 1e-6
        and tuple(gain_tu.witness_preimages[0]) == (1.0, 1.0),
        "total gain 6 at (Enter, High prices)",
    )

    # TU solutions on the expected-loss space (optimal collective loss -2).
    tub_513 = tu_boundary(cloud_513, Orientation.LOSS, 1e-6)
    tu_h = tu_crossing_solution(tub_513, b_prime, lo)
    tu_k = tu_crossing_solution(tub_513, core_inf, lo)

    # Coopetitive extension.
    coop = coopetitive_entry_game()
    f = coop.payoff
    cloud_coop = sample_image(f, 65)
    coop_lo, coop_hi = extrema(cloud_coop)
    check(
        "coopetitive image extrema",
        coop_lo == PayoffPoint(-5.0, -1.0) and coop_hi == PayoffPoint(0.0, 2.0),
        "inf (-5,-1), sup (0,2)",
    )
    coop_tub = tu_boundary(cloud_coop, Orientation.LOSS, 1e-6)
    check(
        "optimal collective loss",
        abs(coop_tub.optimal_sum + 4.0) <= 1e-6
        and tuple(coop_tub.witness_preimages[0]) == (1.0, 1.0, 1.0),
        "-4 at (1, 1, 1)",
    )

    # TU compromise from the conservative value toward the image infimum:
    # the segment (0,1)+s(-5,-2) meets p1+p2 = -4 at s = 5/7.
    tu_exact = PayoffPoint(-25.0 / 7.0, -3.0 / 7.0)
    tu_coop = tu_crossing_solution(coop_tub, b_prime, coop_lo)
    check(
        "coopetitive TU compromise",
        _close(tu_coop.payoff, tu_exact, 1e-2),
        f"{fmt_point(tu_coop.payoff)} ~ {fmt_point(tu_exact)}",
    )

    # Proper coopetitive solution: the Nash zone is the parallelogram
    # {(-z, x-z)}, whose minimal boundary collapses to (-1, -1).
    proper = proper_coopetitive_solution(coop, 65, tol=3.0 / 64.0)
    check(
        "proper coopetitive solution",
        proper.payoff == PayoffPoint(-1.0, -1.0) and proper.preimage == (0.0, 0.0, 1.0),
        "payoff (-1, -1) at (x, y, z) = (0, 0, 1)",
    )

    # Standard win-win: threatened by the initial core supremum (0, 1).
    www = standard_win_win_solution(coop, 65)
    report = win_win_report(coop, www, 65)
    check(
        "standard win-win solution",
        report.is_win_win and report.margin.p1 > 0 and report.margin.p2 > 0,
        f"payoff {fmt_point(www.payoff)} beats L = {fmt_point(report.core_sup)} "
        f"by {fmt_point(report.margin)}",
    )

    # Enlarge the pie: back in the original gain frame (negate and undo the
    # (0, -4) shift) cooperation lifts the best collective gain from 6 to 8.
    gain_frame = PayoffMap(
        np.array([[0.0, 0.0, 0.0, 1.0, 4.0], [4.0, -1.0, -1.0, 1.0, 0.0]]), arity=3
    )
    pie = tu_boundary(sample_image(gain_frame, 65), Orientation.GAIN, 1e-9)
    check(
        "enlarge the pie",
        abs(pie.optimal_sum - 8.0) <= 1e-6,
        f"collective gain 6 -> {fmt(pie.optimal_sum)}",
    )

    # Figure analogues.
    _write_figures(out, solutions_513, (tu_h, tu_k), coop, lines)

    (out / "paper-finite.json").write_text(
        json.dumps(finite_game_dict(), indent=2) + "\n", encoding="utf-8"
    )
    (out / "paper-coopetitive.json").write_text(
        json.dumps(coopetitive_game_dict(), indent=2) + "\n", encoding="utf-8"
    )

    lines.append("solutions:")
    for name, sol in [
        ("K' = KS(B' -> game infimum)", solutions_513["K'"]),
        ("K'' = KS(B' -> core infimum)", solutions_513["K''"]),
        ("N' = Nash bargaining from B'", solutions_513["N'"]),
        ("H = TU(B' -> game infimum)", tu_h),
        ("K = TU(core infimum -> game infimum)", tu_k),
        ("coopetitive TU compromise", tu_coop),
        ("proper coopetitive", proper),
        ("standard win-win", www),
    ]:
        lines.append(f"  {name}: {fmt_point(sol.payoff)}")
    text = "\n".join(lines) + "\n"
    (out / "report.txt").write_text(text, encoding="utf-8")
    return text


def _write_figures(out, ks_solutions, tu_solutions, coop, lines) -> None:
    f0 = mixed_loss_map()
    cloud = sample_image(f0, FIGURE_GRID_2D)
    boundary = pareto_filter(cloud, Orientation.LOSS, "minimal")
    xs = np.linspace(0.0, 1.0, FIGURE_GRID_2D)
    nash_pre = np.stack([xs, np.zeros_like(xs)], axis=1)
    nash_pay = np.stack(list(f0.eval_arrays(xs, np.zeros_like(xs))), axis=1)

    fig2 = Scene("expected-loss space of the pre-coopetitive game", Orientation.LOSS, 2)
    fig2.add(cloud.preimages, cloud.payoffs, "cloud")
    fig2.add(boundary.preimages, boundary.payoffs, "pareto")
    fig2.add(nash_pre, nash_pay, "nash")
    fig2.add_solution("A'", (0.0, 0.0), PayoffPoint(0.0, 0.0))
    fig2.add_solution("B'", (1.0, 0.0), PayoffPoint(0.0, 1.0))
    _emit(out, "payoff_space", fig2, lines)

    fig3 = Scene("bargaining solutions on the expected-loss space", Orientation.LOSS, 2)
    fig3.add(cloud.preimages, cloud.payoffs, "cloud")
    fig3.add(boundary.preimages, boundary.payoffs, "pareto")
    for name, sol in ks_solutions.items():
        fig3.add_solution(name, sol.preimage, sol.payoff)
    _emit(out, "bargaining_solutions", fig3, lines)

    tub = tu_boundary(cloud, Orientation.LOSS, 1e-9)
    fig4 = Scene("transferable-utility solutions", Orientation.LOSS, 2)
    fig4.add(cloud.preimages, cloud.payoffs, "cloud")
    fig4.add(boundary.preimages, boundary.payoffs, "pareto")
    fig4.add(tub.witness_preimages, tub.witness_payoffs, "tu")
    fig4.tu_segment = tu_line(tub, *extrema(cloud))
    for name, sol in zip(("H", "K"), tu_solutions):
        fig4.add_solution(name, sol.preimage, sol.payoff)
    _emit(out, "tu_solutions", fig4, lines)

    coop_cloud = sample_image(coop.payoff, FIGURE_GRID_3D)
    coop_boundary = pareto_filter(coop_cloud, Orientation.LOSS, "minimal")
    fig5 = Scene("coopetitive payoff space", Orientation.LOSS, 3)
    fig5.add(coop_cloud.preimages, coop_cloud.payoffs, "cloud")
    fig5.add(coop_boundary.preimages, coop_boundary.payoffs, "pareto")
    _emit(out, "coopetitive_space", fig5, lines)

    zone = nash_zone(coop, FIGURE_GRID_3D)
    coop_tub = tu_boundary(coop_cloud, Orientation.LOSS, 1e-6)
    b_prime = PayoffPoint(0.0, 1.0)
    path_inf = PayoffPoint(-1.0, 0.0)
    game_inf, game_sup = extrema(coop_cloud)
    fig6 = Scene("coopetitive solutions", Orientation.LOSS, 3)
    fig6.add(coop_cloud.preimages, coop_cloud.payoffs, "cloud")
    fig6.add(coop_boundary.preimages, coop_boundary.payoffs, "pareto")
    fig6.add(zone.preimages, zone.payoffs, "nash")
    fig6.add(coop_tub.witness_preimages, coop_tub.witness_payoffs, "tu")
    fig6.tu_segment = tu_line(coop_tub, game_inf, game_sup)
    for name, threat in (("H'", b_prime), ("H''", path_inf)):
        sol = ks_solution(
            BargainingProblem(coop_boundary, threat, game_inf), tol=3.0 / (FIGURE_GRID_3D - 1)
        )
        fig6.add_solution(name, sol.preimage, sol.payoff)
    for name, threat in (("K'", b_prime), ("K''", path_inf)):
        sol = tu_crossing_solution(coop_tub, threat, game_inf)
        fig6.add_solution(name, sol.preimage, sol.payoff)
    _emit(out, "coopetitive_solutions", fig6, lines)


def _emit(out: Path, stem: str, scene: Scene, lines: list[str]) -> None:
    write_csv(out / f"{stem}.csv", scene)
    write_svg(out / f"{stem}.svg", scene)
    lines.append(f"wrote: {stem}.csv, {stem}.svg")

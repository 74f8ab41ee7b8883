"""Command-line front end.

Subcommands: ``analyze`` prints a deterministic report for a game file,
``solve`` runs one solution concept, ``render`` emits CSV/SVG scenes, and
``paper-demo`` reproduces the built-in market-entry scenario end to end.

Exit codes: 0 success, 1 demo assertion failure, 2 parse/schema error,
3 unsupported analysis, 4 solver failure (no intersection, empty feasible
set, same half-plane, empty portion, degenerate problem), 5 I/O failure.

The default sampling grid (513 per axis for finite games, 65 for
coopetitive ones) can be overridden per file via the ``analysis`` block,
globally via the ``COOPETITION_GRID`` environment variable, or per run
via ``--grid``.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from .bargaining import (
    BargainingProblem,
    compromise_solution,
    ks_solution,
    nash_bargaining,
)
from .coopetitive import (
    induced_path,
    nash_zone,
    proper_coopetitive_solution,
    standard_win_win_solution,
    tu_crossing_solution,
    win_win_report,
)
from .demo import DemoCheckError, run_paper_demo
from .errors import GameFileError, MissingInitialZ, SolverRefusal, UnsupportedGameError
from .gamefile import GameSpec, load_game_file, resolve_grid
from .games import PayoffPoint, pure_nash_equilibria
from .geometry import (
    PointCloud,
    extrema,
    facing_flavor,
    orientation_best,
    pareto_filter,
    sample_image,
    tu_boundary,
    tu_line,
)
from .mixed import (
    bilinear_map,
    conservative_bivalue_mixed,
    mixed_equilibrium_components,
    nash_extreme,
)
from .render import Scene, write_csv, write_svg
from .report import build_report, fmt, fmt_point

__all__ = ["main"]

SOLUTIONS = (
    "ks",
    "nash-bargaining",
    "tu",
    "proper-coopetitive",
    "win-win",
    "compromise:pareto",
    "compromise:nash_pareto",
    "compromise:conservative_pareto",
)

#: The point flags each concept reads; passing any other is a usage error.
POINT_FLAGS = {
    "ks": ("threat", "utopia"),
    "nash-bargaining": ("threat",),
    "tu": ("threat", "utopia"),
    "compromise:nash_pareto": ("threat",),
    "compromise:conservative_pareto": ("threat",),
}


def _point(text: str) -> PayoffPoint:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'p1,p2', got {text!r}")
    try:
        return PayoffPoint(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _tolerance(text: str) -> float:
    """A ``--tol`` value: a finite number greater than zero."""
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite positive number, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coopetition",
        description="Analyze coopetitive and finite two-player games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="print a deterministic analysis report")
    analyze.add_argument("path")
    analyze.add_argument("--grid", type=int, default=None, help="lattice points per axis")
    analyze.add_argument("--tol", type=_tolerance, default=None, help="solution tolerance")
    analyze.add_argument(
        "--mixed",
        action="store_true",
        default=None,
        help="force the mixed-extension analysis (errors on non-2x2 games)",
    )
    analyze.set_defaults(func=_cmd_analyze)

    solve = sub.add_parser("solve", help="run one solution concept")
    solve.add_argument("path")
    solve.add_argument("--solution", required=True, choices=SOLUTIONS)
    solve.add_argument("--threat", type=_point, default=None, help="threat point 'p1,p2'")
    solve.add_argument("--utopia", type=_point, default=None, help="utopia point 'p1,p2'")
    solve.add_argument("--grid", type=int, default=None)
    solve.add_argument("--tol", type=_tolerance, default=None)
    solve.set_defaults(func=_cmd_solve)

    render = sub.add_parser("render", help="emit CSV and/or SVG payoff-space scenes")
    render.add_argument("path")
    render.add_argument("--out-csv", default=None)
    render.add_argument("--out-svg", default=None)
    render.add_argument("--grid", type=int, default=None)
    render.set_defaults(func=_cmd_render)

    demo = sub.add_parser("paper-demo", help="run the built-in market-entry scenario")
    demo.add_argument("--out-dir", required=True)
    demo.set_defaults(func=_cmd_demo)
    return parser


class _SolveContext:
    """Cloud, boundary and default points for the requested game."""

    def __init__(self, spec: GameSpec, grid_n: int):
        self.spec = spec
        self.grid_n = grid_n
        self.game = spec.finite if spec.kind == "finite" else spec.coopetitive
        self.orientation = self.game.orientation
        self.grid_step = 1.0 / (grid_n - 1)

    @functools.cached_property
    def cloud(self) -> PointCloud:
        """The sampled image, built on first use: the coopetitive concepts never read it."""
        payoff_map = bilinear_map(self.game) if self.spec.kind == "finite" else self.game.payoff
        return sample_image(payoff_map, self.grid_n)

    def boundary(self):
        return pareto_filter(self.cloud, self.orientation, facing_flavor(self.orientation))

    def conservative(self) -> PayoffPoint:
        """Conservative bi-value, or the supremum of the conservative path."""
        if self.spec.kind == "finite":
            return conservative_bivalue_mixed(self.game)
        path = induced_path(self.game, "conservative", self.grid_n)
        pts = np.concatenate([pts for _, pts in path.samples], axis=0)
        return PayoffPoint(*pts.max(axis=0))

    def nash_extreme(self) -> PayoffPoint:
        """Supremum of the Nash zone in the payoff plane."""
        if self.spec.kind == "finite":
            return nash_extreme(mixed_equilibrium_components(self.game))
        return PayoffPoint(*nash_zone(self.game, self.grid_n).payoffs.max(axis=0))

    def default_utopia(self) -> PayoffPoint:
        return orientation_best(self.cloud, self.orientation)


def _cmd_analyze(args) -> int:
    spec = load_game_file(args.path)
    grid_n = resolve_grid(spec, args.grid)
    tol = args.tol or spec.analysis.tol or 3.0 / (grid_n - 1)
    report = build_report(spec, grid_n, tol, mixed=args.mixed)
    sys.stdout.write(report.to_text())
    return 0


def _cmd_solve(args) -> int:
    spec = load_game_file(args.path)
    grid_n = resolve_grid(spec, args.grid)
    ctx = _SolveContext(spec, grid_n)
    name = args.solution
    ks_tol = args.tol or spec.analysis.tol or 3.0 * ctx.grid_step
    tu_tol = args.tol or spec.analysis.tol or 1e-6

    extra_lines: list[str] = []
    if name in ("proper-coopetitive", "win-win") and spec.kind != "coopetitive":
        raise UnsupportedGameError(f"{name} solutions need a coopetitive game file")
    if name == "ks":
        threat = args.threat or ctx.conservative()
        utopia = args.utopia or ctx.default_utopia()
        sol = ks_solution(BargainingProblem(ctx.boundary(), threat, utopia), ks_tol)
    elif name == "nash-bargaining":
        threat = args.threat or ctx.conservative()
        sol = nash_bargaining(ctx.boundary(), threat, ctx.orientation)
    elif name == "tu":
        threat = args.threat or ctx.conservative()
        utopia = args.utopia or ctx.default_utopia()
        sol = tu_crossing_solution(tu_boundary(ctx.cloud, ctx.orientation, tu_tol), threat, utopia)
    elif name == "proper-coopetitive":
        sol = proper_coopetitive_solution(ctx.game, grid_n, ks_tol)
    elif name == "win-win":
        sol = standard_win_win_solution(ctx.game, grid_n, tu_tol)
        rep = win_win_report(ctx.game, sol, grid_n)
        extra_lines = [
            f"core supremum L: {fmt_point(rep.core_sup)}",
            f"margin: {fmt_point(rep.margin)}",
            f"is win-win: {str(rep.is_win_win).lower()}",
        ]
    else:
        kind = name.split(":", 1)[1]
        threat = None
        if kind == "nash_pareto":
            threat = args.threat or ctx.nash_extreme()
        elif kind == "conservative_pareto":
            threat = args.threat or ctx.conservative()
        sol = compromise_solution(kind, ctx.boundary(), threat, ks_tol)

    print(f"solution: {sol.method}")
    print(f"payoff: {fmt_point(sol.payoff)}")
    if sol.preimage is not None:
        print(f"preimage: ({', '.join(fmt(v) for v in sol.preimage)})")
    print(f"residual: {fmt(sol.residual)}")
    if sol.threat is not None:
        print(f"threat a: {fmt_point(sol.threat)}")
    if sol.utopia is not None:
        print(f"utopia b: {fmt_point(sol.utopia)}")
    for line in extra_lines:
        print(line)
    return 0


def _finite_scene(spec: GameSpec) -> Scene:
    game = spec.finite
    cells = np.array(
        [[float(r), float(c)] for r in range(game.rows) for c in range(game.cols)]
    )
    payoffs = np.array(
        [
            [game.payoff1[int(r), int(c)], game.payoff2[int(r), int(c)]]
            for r, c in cells
        ]
    )
    cloud = PointCloud(payoffs, cells, grid_step=1.0)
    boundary = pareto_filter(cloud, game.orientation, facing_flavor(game.orientation))
    nash = sorted(pure_nash_equilibria(game), key=lambda cell: (cell.row, cell.col))
    tub = tu_boundary(cloud, game.orientation, 1e-9)
    scene = Scene(f"finite {game.rows}x{game.cols} game ({game.orientation.value})",
                  game.orientation, 2)
    scene.add(cells, payoffs, "cloud")
    scene.add(boundary.preimages, boundary.payoffs, "pareto")
    for cell in nash:
        p = game.payoff_at(cell)
        scene.add([[float(cell.row), float(cell.col)]], [[p.p1, p.p2]], "nash")
    scene.add(tub.witness_preimages, tub.witness_payoffs, "tu")
    if (game.rows, game.cols) == (2, 2):
        sol = compromise_solution("pareto", boundary, tol=float("inf"))
        scene.add_solution("compromise-pareto", sol.preimage, sol.payoff)
    return scene


def _coopetitive_scene(spec: GameSpec, grid_n: int) -> Scene:
    game = spec.coopetitive
    cloud = sample_image(game.payoff, grid_n)
    boundary = pareto_filter(cloud, game.orientation, facing_flavor(game.orientation))
    zone = nash_zone(game, grid_n)
    tub = tu_boundary(cloud, game.orientation, 1e-6)
    scene = Scene(f"coopetitive payoff space ({game.orientation.value})",
                  game.orientation, 3)
    scene.add(cloud.preimages, cloud.payoffs, "cloud")
    scene.add(boundary.preimages, boundary.payoffs, "pareto")
    scene.add(zone.preimages, zone.payoffs, "nash")
    scene.add(tub.witness_preimages, tub.witness_payoffs, "tu")
    scene.tu_segment = tu_line(tub, *extrema(cloud))
    # A refused concept gets no marker, as analyze prints it "unavailable".
    try:
        sol = proper_coopetitive_solution(game, grid_n, 3.0 / (grid_n - 1))
        scene.add_solution("proper-coopetitive", sol.preimage, sol.payoff)
    except SolverRefusal:
        pass
    if game.initial_z is not None:
        try:
            www = standard_win_win_solution(game, grid_n)
            scene.add_solution("standard-win-win", www.preimage, www.payoff)
        except SolverRefusal:
            pass
    return scene


def _cmd_render(args) -> int:
    if args.out_csv is None and args.out_svg is None:
        raise GameFileError("render needs --out-csv and/or --out-svg", path=args.path)
    spec = load_game_file(args.path)
    grid_n = resolve_grid(spec, args.grid)
    if spec.kind == "finite":
        scene = _finite_scene(spec)
    else:
        scene = _coopetitive_scene(spec, grid_n)
    if args.out_csv is not None:
        write_csv(args.out_csv, scene)
        print(f"wrote {args.out_csv}")
    if args.out_svg is not None:
        write_svg(args.out_svg, scene)
        print(f"wrote {args.out_svg}")
    return 0


def _cmd_demo(args) -> int:
    text = run_paper_demo(args.out_dir)
    sys.stdout.write(text)
    return 0


def _merge_point_flags(argv: list[str]) -> list[str]:
    # Join '--threat -5,-1' into '--threat=-5,-1' so negative coordinates
    # are not mistaken for option strings.
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--threat", "--utopia") and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    args = parser.parse_args(_merge_point_flags(list(argv)))
    if args.command == "solve":
        for flag in ("threat", "utopia"):
            if getattr(args, flag) is not None and flag not in POINT_FLAGS.get(args.solution, ()):
                parser.error(f"argument --{flag}: not read by --solution {args.solution}")
    try:
        return args.func(args)
    except GameFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (UnsupportedGameError, MissingInitialZ) as exc:
        print(f"error: unsupported analysis: {exc}", file=sys.stderr)
        return 3
    except SolverRefusal as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    except DemoCheckError as exc:
        print(f"error: demo check failed: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())

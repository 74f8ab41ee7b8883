"""Command-line front end.

Subcommands: ``analyze`` prints a deterministic report for a game file,
``solve`` runs one solution concept, ``render`` emits CSV/SVG scenes, and
``paper-demo`` reproduces the built-in market-entry scenario end to end.

Exit codes: 0 success, 1 demo assertion failure, 2 parse/schema error,
3 unsupported analysis, 4 solver failure (no intersection, empty feasible
set, same half-plane, empty portion, degenerate problem), 5 I/O failure.

The default sampling grid (513 per axis for finite games, 65 for
coopetitive ones) can be overridden per file via the ``analysis`` block,
or per run via ``--grid``, which wins.  Nothing else sets it: a command's
output depends only on its game file and its flags.

This module parses arguments and prints: ``analyze`` prints the text of
:func:`report.build_report`, ``solve`` offers the concepts of
:data:`report.CONCEPTS` in its order and accepts only the ``--threat`` and
``--utopia`` flags a concept reads there, and ``render`` writes the one
scene that :func:`render.game_scene` builds for the file.

Every command reads its solutions from one :class:`report.GameContext`,
so a concept gives the same answer in ``analyze``, ``solve``, ``render``
and ``paper-demo``: the demo's coopetitive answers equal ``solve``'s on
the game file it emits.  The context's tolerance is ``--tol`` if given
(``render`` has no such flag), else the file's ``analysis.tol``, else
three grid steps for the Kalai-Smorodinsky concepts (``ks``,
``proper-coopetitive``, ``compromise:*``) and 1e-6 for the TU ones
(``tu``, ``win-win``, the TU line of ``analyze`` and the TU witnesses
that ``render`` draws, of finite and coopetitive files alike).
"""

from __future__ import annotations

import argparse
import math
import sys

from .coopetitive import win_win_report
from .demo import run_paper_demo
from .errors import DemoCheckError, GameFileError, MissingInitialZ, SolverRefusal, UnsupportedGameError
from .gamefile import MAX_PAYOFF, load_game_file, resolve_grid
from .games import PayoffPoint
from .render import game_scene, write_csv, write_svg
from .report import CONCEPTS, GameContext, build_report, fmt_point, solution_lines

__all__ = ["main"]

def _point(text: str) -> PayoffPoint:
    """A ``--threat``/``--utopia`` value, bounded like a game file's payoffs."""
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'p1,p2', got {text!r}")
    try:
        point = PayoffPoint(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if max(abs(point.p1), abs(point.p2)) > MAX_PAYOFF:
        raise argparse.ArgumentTypeError(
            f"coordinates must be at most {MAX_PAYOFF:.6g} in magnitude, got {text!r}"
        )
    return point


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
    analyze.set_defaults(func=_cmd_analyze)

    solve = sub.add_parser("solve", help="run one solution concept")
    solve.add_argument("path")
    solve.add_argument("--solution", required=True, choices=CONCEPTS)
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


def _context(args) -> GameContext:
    spec = load_game_file(args.path)
    return GameContext(spec, resolve_grid(spec, args.grid), getattr(args, "tol", None))


def _cmd_analyze(args) -> int:
    sys.stdout.write(build_report(_context(args)))
    return 0


def _cmd_solve(args) -> int:
    ctx = _context(args)
    sol = ctx.solve(args.solution, args.threat, args.utopia)
    lines = [f"solution: {sol.method}", f"payoff: {fmt_point(sol.payoff)}", *solution_lines(sol)]
    if args.solution == "win-win":
        rep = win_win_report(ctx.game, sol, ctx.grid_n)
        lines += [
            f"core supremum L: {fmt_point(rep.core_sup)}",
            f"margin: {fmt_point(rep.margin)}",
            f"is win-win: {str(rep.is_win_win).lower()}",
        ]
    print("\n".join(lines))
    return 0


def _cmd_render(args) -> int:
    if args.out_csv is None and args.out_svg is None:
        raise GameFileError("render needs --out-csv and/or --out-svg", path=args.path)
    scene = game_scene(_context(args))
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
            if getattr(args, flag) is not None and flag not in CONCEPTS[args.solution]:
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

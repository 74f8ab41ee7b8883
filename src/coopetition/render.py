"""Payoff-space scenes of a game file, and their deterministic CSV and SVG
emission.

Every scene a command draws is built here from a
:class:`report.GameContext`.  :func:`space_scene` holds a context's sampled
cloud and facing Pareto boundary, where every coopetitive figure and each
``paper-demo`` figure starts.  :func:`coopetitive_scene` adds a coopetitive
game's Nash zone, TU witnesses and TU line, and :func:`game_scene` builds
the figure the ``render`` command draws for a game file.

CSV columns are exactly ``x,y[,z],p1,p2,tag``; floats are written with
``repr`` so they round-trip bit-exactly, and a tag may hold no character
that CSV would quote.  SVG output is hand-assembled with fixed
formatting: payoff axes at 100 px per unit, an origin cross, and a text
legend.  Neither format embeds timestamps or locale-dependent
content, so identical inputs produce identical bytes.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

import numpy as np

from .bargaining import compromise_solution
from .coopetitive import nash_zone
from .errors import SolverRefusal
from .games import FiniteBimatrixGame, Orientation, PayoffPoint, pure_nash_equilibria
from .geometry import PointCloud, extrema, facing_flavor, pareto_filter, tu_boundary, tu_line
from .report import GameContext

__all__ = ["Scene", "coopetitive_scene", "game_scene", "space_scene", "write_csv", "write_svg"]

#: Cloud points drawn into an SVG are thinned to at most this many.
SVG_CLOUD_CAP = 4000
PX_PER_UNIT = 100.0
PAD_PX = 60.0
#: Rows formatted per write by ``write_csv``; bounds its string tables.
_CSV_CHUNK_ROWS = 1 << 14

_COLORS = {
    "cloud": "#b8b8b8",
    "pareto": "#1f77b4",
    "nash": "#2ca02c",
    "tu": "#d62728",
    "solution": "#7b2d8b",
}


@dataclass
class Scene:
    """Everything one figure shows, in emission order.

    ``blocks`` holds one ``(tag, preimages, payoffs)`` triple of float
    arrays per ``add`` or ``add_solution`` call.
    """

    title: str
    orientation: Orientation
    arity: int
    blocks: list[tuple[str, np.ndarray, np.ndarray]] = field(default_factory=list)
    tu_segment: tuple[PayoffPoint, PayoffPoint] | None = None

    def add(self, preimages, payoffs, tag: str) -> None:
        _check_tag(tag)
        preimages = np.atleast_2d(np.asarray(preimages, dtype=float))
        payoffs = np.atleast_2d(np.asarray(payoffs, dtype=float))
        # A short or misaligned block would be written as rows that do not
        # match the header, so it is refused here rather than in write_csv.
        short = preimages.shape[1] < self.arity or payoffs.shape[1] < 2
        if short or len(preimages) != len(payoffs):
            raise ValueError(
                f"block {tag!r} needs at least {self.arity} preimage and 2 payoff "
                f"columns in equal numbers of rows, got shapes {preimages.shape} "
                f"and {payoffs.shape}"
            )
        self.blocks.append((tag, preimages[:, : self.arity], payoffs[:, :2]))

    def add_solution(self, name: str, preimage, payoff: PayoffPoint) -> None:
        _check_tag(name)
        pre = tuple(float(v) for v in preimage) if preimage is not None else ()
        pre = pre + (0.0,) * (self.arity - len(pre))
        self.blocks.append(
            (f"solution:{name}", np.array([pre[: self.arity]]), np.array([[payoff.p1, payoff.p2]]))
        )


def _check_tag(tag: str) -> None:
    # write_csv writes tags unquoted, so a tag holding a delimiter, a quote
    # or a line break, which csv.writer would quote or a reader would split,
    # is refused rather than written differently.
    if any(c in tag for c in ',"\r\n'):
        raise ValueError(f"scene tag must not contain ',', '\"', CR or LF, got {tag!r}")


def _finite_scene(game: FiniteBimatrixGame, tu_tol: float) -> Scene:
    # One row per cell (row, col), in row-major order.
    cells = np.indices(game.payoff1.shape, dtype=float).reshape(2, -1).T
    payoffs = np.stack([game.payoff1.ravel(), game.payoff2.ravel()], axis=1)
    cloud = PointCloud(payoffs, cells, grid_step=1.0)
    boundary = pareto_filter(cloud, game.orientation, facing_flavor(game.orientation))
    nash = sorted(pure_nash_equilibria(game), key=lambda cell: (cell.row, cell.col))
    tub = tu_boundary(cloud, game.orientation, tu_tol)
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


def space_scene(ctx: GameContext, title: str) -> Scene:
    """The context's sampled cloud and its facing Pareto boundary; the
    caller adds the rest of its figure."""
    cloud = ctx.cloud
    scene = Scene(title, ctx.orientation, cloud.arity)
    scene.add(cloud.preimages, cloud.payoffs, "cloud")
    scene.add(ctx.boundary.preimages, ctx.boundary.payoffs, "pareto")
    return scene


def coopetitive_scene(ctx: GameContext, title: str) -> Scene:
    """A coopetitive game's :func:`space_scene` with its Nash zone and TU
    witnesses, and the TU line; the caller adds its solution markers."""
    tub = ctx.tu
    zone = nash_zone(ctx.game, ctx.grid_n)
    scene = space_scene(ctx, title)
    scene.add(zone.preimages, zone.payoffs, "nash")
    scene.add(tub.witness_preimages, tub.witness_payoffs, "tu")
    scene.tu_segment = tu_line(tub, *extrema(ctx.cloud))
    return scene


def game_scene(ctx: GameContext) -> Scene:
    """The figure ``render`` draws for a game file, chosen by its kind.

    A finite game shows its cells, their Pareto boundary, pure Nash cells
    and TU witnesses, and on a 2x2 table the Pareto compromise.  A
    coopetitive game shows :func:`coopetitive_scene` with the
    proper-coopetitive and (given ``initial_z``) win-win markers.
    """
    if ctx.spec.kind == "finite":
        return _finite_scene(ctx.game, ctx.tu_tol)
    scene = coopetitive_scene(ctx, f"coopetitive payoff space ({ctx.orientation.value})")
    # A refused concept gets no marker, as analyze prints it "unavailable".
    for name in ["proper-coopetitive"] + (["win-win"] if ctx.game.initial_z is not None else []):
        try:
            sol = ctx.solve(name)
        except SolverRefusal:
            continue
        scene.add_solution(sol.method, sol.preimage, sol.payoff)
    return scene


def write_csv(path: str | Path, scene: Scene) -> None:
    """Write ``scene`` as CSV rows ``x,y[,z],p1,p2,tag`` in emission order.

    Every float is written as its ``repr``, bit-exact, but each distinct
    value is formatted once per chunk of rows: the chunk's values are
    reduced to their distinct int64 bit patterns (bits, not floats, so
    ``-0.0`` and ``0.0`` stay apart) and the strings gathered back.  The
    bytes are those of ``csv.writer`` with a ``"\\n"`` line terminator,
    since no tag holds a character that it would quote.
    """
    header = ["x", "y", "z"][: scene.arity] + ["p1", "p2", "tag"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for tag, pre, pay in scene.blocks:
            end = repeat(tag + "\n")
            for start in range(0, len(pre), _CSV_CHUNK_ROWS):
                stop = start + _CSV_CHUNK_ROWS
                # One row per CSV column, so the stacked chunk is row-major
                # and ravels without a copy, whatever the blocks' layout.
                vals = np.vstack([pre[start:stop].T, pay[start:stop].T])
                bits, inverse = np.unique(vals.view(np.int64).ravel(), return_inverse=True)
                text = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
                cols = text[inverse.reshape(vals.shape)].tolist()
                fh.write("".join(map(",".join, zip(*cols, end))))


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _fmt_all(values: np.ndarray) -> Iterator[str]:
    """``_fmt`` of every value of a float array, in order."""
    return map("{:.2f}".format, values.tolist())


class _Frame:
    def __init__(self, points: np.ndarray):
        lo = np.minimum(points.min(axis=0), [0.0, 0.0])
        hi = np.maximum(points.max(axis=0), [0.0, 0.0])
        span = np.maximum(hi - lo, 1e-9)
        self.lo, self.hi = lo, hi
        self.width = span[0] * PX_PER_UNIT + 2 * PAD_PX
        self.height = span[1] * PX_PER_UNIT + 2 * PAD_PX

    def to_px(self, p1, p2):
        """Pixel coordinates of payoffs ``(p1, p2)``, floats or arrays."""
        x = PAD_PX + (p1 - self.lo[0]) * PX_PER_UNIT
        y = PAD_PX + (self.hi[1] - p2) * PX_PER_UNIT
        return x, y


def _thin(points: np.ndarray, cap: int) -> np.ndarray:
    if len(points) <= cap:
        return points
    stride = int(np.ceil(len(points) / cap))
    return points[::stride]


def _tagged(scene: Scene, tag: str) -> np.ndarray:
    """The payoffs of every block tagged ``tag``, in emission order."""
    return np.concatenate([pay for t, _, pay in scene.blocks if t == tag] or [np.empty((0, 2))])


def _circles(parts: list[str], frame: _Frame, points: np.ndarray, style: str) -> None:
    x, y = frame.to_px(points[:, 0], points[:, 1])
    parts.extend(f'<circle cx="{cx}" cy="{cy}" {style}/>' for cx, cy in zip(_fmt_all(x), _fmt_all(y)))


def write_svg(path: str | Path, scene: Scene) -> None:
    frame = _Frame(np.concatenate([pay for _, _, pay in scene.blocks]))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(frame.width)}" '
        f'height="{_fmt(frame.height)}" viewBox="0 0 {_fmt(frame.width)} {_fmt(frame.height)}">',
        f'<rect width="{_fmt(frame.width)}" height="{_fmt(frame.height)}" fill="white"/>',
    ]
    # Origin cross spanning the frame.
    ox, oy = frame.to_px(0.0, 0.0)
    parts.append(
        f'<line x1="{_fmt(ox)}" y1="0" x2="{_fmt(ox)}" y2="{_fmt(frame.height)}" '
        'stroke="#888888" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="0" y1="{_fmt(oy)}" x2="{_fmt(frame.width)}" y2="{_fmt(oy)}" '
        'stroke="#888888" stroke-width="1"/>'
    )

    legend = [scene.title]
    better = "up-right" if scene.orientation is Orientation.GAIN else "down-left"
    legend.append(f"orientation: {scene.orientation.value} (better = {better})")
    legend.append("scale: 1 payoff unit = 100 px")

    cloud = _tagged(scene, "cloud")
    if len(cloud):
        pts = _thin(cloud, SVG_CLOUD_CAP)
        _circles(parts, frame, pts, f'r="1.2" fill="{_COLORS["cloud"]}"')
        note = f" ({len(pts)} of {len(cloud)} shown)" if len(pts) < len(cloud) else ""
        legend.append(f"cloud: {len(cloud)} sampled payoffs{note}")

    pareto = _tagged(scene, "pareto")
    if len(pareto):
        # Stable, and -0.0 ties 0.0: the order of sorting (p1, p2) tuples.
        pts = pareto[np.lexsort((pareto[:, 1], pareto[:, 0]))]
        x, y = frame.to_px(pts[:, 0], pts[:, 1])
        path_d = "M" + " L".join(map(",".join, zip(_fmt_all(x), _fmt_all(y))))
        parts.append(
            f'<path d="{path_d}" fill="none" stroke="{_COLORS["pareto"]}" stroke-width="2"/>'
        )
        legend.append(f"pareto boundary: {len(pts)} points (blue)")

    nash = _tagged(scene, "nash")
    if len(nash):
        _circles(parts, frame, _thin(nash, SVG_CLOUD_CAP), f'r="1.6" fill="{_COLORS["nash"]}"')
        legend.append(f"nash zone: {len(nash)} points (green)")

    if scene.tu_segment is not None:
        (a, b) = scene.tu_segment
        x1, y1 = frame.to_px(a.p1, a.p2)
        x2, y2 = frame.to_px(b.p1, b.p2)
        parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{_COLORS["tu"]}" stroke-width="2"/>'
        )
        legend.append("tu line (red)")
    tu = _tagged(scene, "tu")
    if len(tu):
        _circles(
            parts, frame, tu,
            f'r="3" fill="none" stroke="{_COLORS["tu"]}" stroke-width="1.5"',
        )
        legend.append(f"tu witnesses: {len(tu)} points (red circles)")

    solution_tags = sorted({tag for tag, _, _ in scene.blocks if tag.startswith("solution:")})
    for tag in solution_tags:
        for p1, p2 in _tagged(scene, tag).tolist():
            x, y = frame.to_px(p1, p2)
            parts.append(
                f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="4" fill="{_COLORS["solution"]}"/>'
            )
            parts.append(
                f'<text x="{_fmt(x + 6)}" y="{_fmt(y - 6)}" font-size="12" '
                f'fill="{_COLORS["solution"]}">{tag.split(":", 1)[1]}</text>'
            )
            legend.append(f"{tag}: ({p1:.4g}, {p2:.4g})")

    for i, line in enumerate(legend):
        parts.append(
            f'<text x="8" y="{_fmt(16 + 14 * i)}" font-size="11" fill="#333333">{line}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")

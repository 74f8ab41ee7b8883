"""Loading and validation of JSON game files.

Two kinds are supported.  ``finite`` files carry the two payoff matrices
plus optional strategy labels; ``coopetitive`` files carry polynomial
coefficients per payoff component over the monomial basis {1, x, y, z, xy}
together with the cooperative grid size and an optional initial z.  Both
may carry an ``analysis`` block with default grid size and tolerance.

Schema violations raise :class:`GameFileError` anchored to the first line
of the offending key, so the CLI can report ``file:line: message``.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .coopetitive import CoopetitiveGame
from .errors import GameFileError
from .games import FiniteBimatrixGame, Orientation
from .geometry import PayoffMap

__all__ = [
    "GameSpec",
    "AnalysisDefaults",
    "load_game_file",
    "resolve_grid",
    "GRID_ENV_VAR",
    "MAX_LATTICE_POINTS",
    "MAX_PAYOFF",
    "DEFAULT_GRID_2D",
    "DEFAULT_GRID_3D",
]

#: Environment variable overriding the default sampling grid size.
GRID_ENV_VAR = "COOPETITION_GRID"
DEFAULT_GRID_2D = 513
DEFAULT_GRID_3D = 65
#: Most lattice points a run may sample (counted by ``resolve_grid``).
#: Sampling stores 16 bytes of payoffs a point, 0.27 GB; the preimages, 16-24
#: bytes more a point, are built only when the cloud is drawn.
MAX_LATTICE_POINTS = 2**24
#: Largest payoff magnitude a file may describe: a finite table's entries,
#: or a coopetitive player's sum of |coefficients|, which bounds the payoff
#: over the cube.  Differences of two payoffs are then at most 2 * MAX_PAYOFF,
#: so a sum of two of their squares (a distance, a dot product) is at most
#: half the float range and every payoff sum stays finite.
MAX_PAYOFF = math.sqrt(sys.float_info.max / 16)


@dataclass(frozen=True)
class AnalysisDefaults:
    grid_n: int | None = None
    tol: float | None = None


@dataclass(frozen=True)
class GameSpec:
    kind: str
    orientation: Orientation
    finite: FiniteBimatrixGame | None
    coopetitive: CoopetitiveGame | None
    analysis: AnalysisDefaults
    path: str


def _is_number(value) -> bool:
    """A JSON number; ``true``/``false`` load as Python ints but are not."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _float(value) -> float:
    """``float(value)``, reading an integer past the float range as infinite."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _line_of(text: str, key: str) -> int | None:
    needle = f'"{key}"'
    for i, line in enumerate(text.splitlines(), start=1):
        if needle in line:
            return i
    return None


class _Validator:
    def __init__(self, path: str, text: str, data):
        self.path = path
        self.text = text
        self.data = data

    def fail(self, key: str, message: str) -> GameFileError:
        return GameFileError(message, path=self.path, line=_line_of(self.text, key))

    def require(self, key: str):
        if key not in self.data:
            raise GameFileError(f"missing required key {key!r}", path=self.path, line=1)
        return self.data[key]

    def matrix(self, key: str) -> np.ndarray:
        raw = self.require(key)
        if (
            not isinstance(raw, list)
            or not raw
            or not all(isinstance(row, list) and row for row in raw)
        ):
            raise self.fail(key, f"{key} must be a non-empty list of non-empty rows")
        width = len(raw[0])
        if any(len(row) != width for row in raw):
            raise self.fail(key, f"{key} must be rectangular")
        if not all(_is_number(v) for row in raw for v in row):
            raise self.fail(key, f"{key} entries must be numbers")
        out = np.array([[_float(v) for v in row] for row in raw])
        if not np.isfinite(out).all():
            raise self.fail(key, f"{key} entries must be finite")
        if np.abs(out).max() > MAX_PAYOFF:
            raise self.fail(key, f"{key} entries must be at most {MAX_PAYOFF:.6g} in magnitude")
        return out

    def labels(self, key: str, count: int) -> tuple[str, ...] | None:
        if key not in self.data:
            return None
        raw = self.data[key]
        if not isinstance(raw, list) or not all(isinstance(s, str) for s in raw):
            raise self.fail(key, f"{key} must be a list of strings")
        if len(raw) != count:
            raise self.fail(key, f"{key} has {len(raw)} entries for {count} strategies")
        return tuple(raw)

    def coefficient_row(self, table, key: str) -> list[float]:
        if key not in table:
            raise self.fail("coefficients", f"coefficients must define {key!r}")
        raw = table[key]
        if not isinstance(raw, list) or len(raw) != 5:
            raise self.fail(key, f"coefficients.{key} must list 5 numbers over (1, x, y, z, xy)")
        if not all(_is_number(v) for v in raw):
            raise self.fail(key, f"coefficients.{key} entries must be numbers")
        row = [_float(v) for v in raw]
        if not all(np.isfinite(row)):
            raise self.fail(key, f"coefficients.{key} entries must be finite")
        if sum(abs(c) for c in row) > MAX_PAYOFF:
            raise self.fail(
                key, f"coefficients.{key} magnitudes must sum to at most {MAX_PAYOFF:.6g}"
            )
        return row


def load_game_file(path: str | Path) -> GameSpec:
    """Parse and validate a game file, raising :class:`GameFileError` on problems."""
    path = str(path)
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise GameFileError(f"cannot read file: {exc}", path=path) from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GameFileError(f"invalid JSON: {exc.msg}", path=path, line=exc.lineno) from exc
    if not isinstance(data, dict):
        raise GameFileError("top level must be a JSON object", path=path, line=1)

    v = _Validator(path, text, data)
    kind = v.require("kind")
    if kind not in ("finite", "coopetitive"):
        raise v.fail("kind", f"kind must be 'finite' or 'coopetitive', got {kind!r}")
    orient_raw = v.require("orientation")
    if orient_raw not in ("gain", "loss"):
        raise v.fail("orientation", f"orientation must be 'gain' or 'loss', got {orient_raw!r}")
    orientation = Orientation(orient_raw)

    analysis = AnalysisDefaults()
    if "analysis" in data:
        block = data["analysis"]
        if not isinstance(block, dict):
            raise v.fail("analysis", "analysis must be an object")
        grid_n = block.get("grid_n")
        if grid_n is not None and (not isinstance(grid_n, int) or grid_n < 2):
            raise v.fail("grid_n", f"analysis.grid_n must be an integer >= 2, got {grid_n!r}")
        tol = block.get("tol")
        if tol is not None:
            if not _is_number(tol) or not (math.isfinite(_float(tol)) and tol > 0):
                raise v.fail("tol", f"analysis.tol must be finite and > 0, got {tol!r}")
            tol = float(tol)
        analysis = AnalysisDefaults(grid_n=grid_n, tol=tol)

    finite = None
    coopetitive = None
    if kind == "finite":
        p1 = v.matrix("payoff1")
        p2 = v.matrix("payoff2")
        if p1.shape != p2.shape:
            raise v.fail("payoff2", f"payoff matrices differ in shape: {p1.shape} vs {p2.shape}")
        finite = FiniteBimatrixGame(
            p1,
            p2,
            orientation,
            row_labels=v.labels("row_labels", p1.shape[0]),
            col_labels=v.labels("col_labels", p1.shape[1]),
        )
    else:
        table = v.require("coefficients")
        if not isinstance(table, dict):
            raise v.fail("coefficients", "coefficients must be an object with p1 and p2")
        coeffs = np.array(
            [v.coefficient_row(table, "p1"), v.coefficient_row(table, "p2")]
        )
        c_size = data.get("c_grid_size", 65)
        if not isinstance(c_size, int) or not 2 <= c_size <= MAX_LATTICE_POINTS:
            raise v.fail(
                "c_grid_size",
                f"c_grid_size must be an integer in [2, {MAX_LATTICE_POINTS}], got {c_size!r}",
            )
        initial_z = data.get("initial_z")
        if initial_z is not None and not _is_number(initial_z):
            raise v.fail("initial_z", f"initial_z must be a number, got {initial_z!r}")
        try:
            coopetitive = CoopetitiveGame.with_uniform_grid(
                PayoffMap(coeffs, arity=3),
                orientation,
                c_grid_size=c_size,
                initial_z=None if initial_z is None else _float(initial_z),
            )
        except ValueError as exc:
            raise v.fail("initial_z", str(exc)) from exc

    return GameSpec(kind, orientation, finite, coopetitive, analysis, path)


def resolve_grid(spec: GameSpec, cli_grid: int | None) -> int:
    """Grid-size precedence: CLI flag, file analysis block, env var, default.

    From any source, a lattice over ``MAX_LATTICE_POINTS`` is rejected: ``grid_n**2``
    points, times ``max(grid_n, c_grid_size)`` for a coopetitive game.
    """
    env = os.environ.get(GRID_ENV_VAR)
    if cli_grid is not None:
        if cli_grid < 2:
            raise GameFileError(f"grid size must be at least 2, got {cli_grid}", path=spec.path)
        grid_n = cli_grid
    elif spec.analysis.grid_n is not None:
        grid_n = spec.analysis.grid_n
    elif env is not None:
        try:
            grid_n = int(env)
        except ValueError:
            raise GameFileError(
                f"{GRID_ENV_VAR} must be an integer, got {env!r}", path=spec.path
            ) from None
        if grid_n < 2:
            raise GameFileError(f"{GRID_ENV_VAR} must be at least 2, got {grid_n}", path=spec.path)
    else:
        grid_n = DEFAULT_GRID_2D if spec.kind == "finite" else DEFAULT_GRID_3D
    points = grid_n**2
    if spec.kind == "coopetitive":
        # The cloud, or a Nash zone holding a full section rectangle for every z.
        points *= max(grid_n, len(spec.coopetitive.c_grid))
    if points > MAX_LATTICE_POINTS:
        raise GameFileError(
            f"grid size {grid_n} asks for {points} lattice points, "
            f"more than the limit of {MAX_LATTICE_POINTS}",
            path=spec.path,
        )
    return grid_n

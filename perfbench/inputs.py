"""Seeded inputs for every workload.

All randomness comes from ``random.Random(seed)``, whose stream is fixed by
the Python language rather than by the numpy version, so one seed yields the
same games on every machine.  Coefficients are rounded to three decimals so
that game files written as JSON parse back to exactly the values used by the
in-process workloads and by the oracles.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

GAIN = "gain"
LOSS = "loss"

#: ``solve --solution`` concepts defined for finite 2x2 files.
FINITE_SOLUTIONS = (
    "ks",
    "nash-bargaining",
    "tu",
    "compromise:pareto",
    "compromise:nash_pareto",
    "compromise:conservative_pareto",
)
#: Coopetitive files additionally support the two coopetitive concepts.
COOP_SOLUTIONS = FINITE_SOLUTIONS + ("proper-coopetitive", "win-win")

#: CLI grid defaults that apply when no grid is given (513 and 65 per axis).
CLI_GRID_FINITE = 513
CLI_GRID_COOP = 65
CLI_C_GRID = 65

#: Every eighth CLI op is heavy (render and paper-demo alternate); of the
#: light ops, two in three read a finite file and one a coopetitive file.
#: At that split the 30 or so ops of a 35-second run reach every command.
CLI_HEAVY_EVERY = 8
CLI_COOP_EVERY = 3
CLI_SCHEDULE_LEN = 200


SWEEP_C_GRID = 257
SWEEP_GRID_N = 65
SWEEP_GAMES = 200

DENSE_GRID_2D = 1025
DENSE_GRID_3D = 129
#: Map shapes cycle through these (arity, duplicate-heavy, slopes) triples,
#: so every run sees 2D and 3D maps with and without shared payoff pairs.
#: A duplicate-heavy map's image is a segment (2D) or parallelogram (3D)
#: along x + y; with "opposed" slopes (the players' payoffs move in opposite
#: directions along it) the whole segment is Pareto, with "aligned" slopes a
#: single corner is.  Fixing that split keeps the boundary sizes, and so the
#: bargaining work, the same from seed to seed.
DENSE_SHAPES = (
    (2, True, "opposed"),
    (3, False, None),
    (2, False, None),
    (3, True, "opposed"),
    (2, True, "aligned"),
    (3, False, None),
    (2, False, None),
    (3, True, "aligned"),
)
DENSE_MAPS = 200


def _coef(rng: random.Random) -> float:
    return round(rng.uniform(-2.0, 2.0), 3)


def coop_coefficients(rng: random.Random) -> list[list[float]]:
    """A generic (2, 5) coefficient table over (1, x, y, z, xy)."""
    return [[_coef(rng) for _ in range(5)] for _ in range(2)]


def finite_payoffs(rng: random.Random) -> tuple[list[list[int]], list[list[int]]]:
    """Two random 2x2 integer payoff tables, entries in [-3, 6]."""
    return tuple(
        [[rng.randint(-3, 6) for _ in range(2)] for _ in range(2)] for _ in range(2)
    )


def finite_file(rng: random.Random, orientation: str) -> dict:
    p1, p2 = finite_payoffs(rng)
    return {"kind": "finite", "orientation": orientation, "payoff1": p1, "payoff2": p2}


def coop_file(rng: random.Random, orientation: str) -> dict:
    coeffs = coop_coefficients(rng)
    k = rng.randrange(CLI_C_GRID)
    return {
        "kind": "coopetitive",
        "orientation": orientation,
        "coefficients": {"p1": coeffs[0], "p2": coeffs[1]},
        "c_grid_size": CLI_C_GRID,
        "initial_z": k / (CLI_C_GRID - 1),
    }


def cli_schedule(seed: int) -> list[dict]:
    """The CLI op sequence: command, arguments and the game file it reads.

    The sequence of commands is the same for every seed: heavy every
    ``CLI_HEAVY_EVERY``-th op, light ops on finite files except every
    ``CLI_COOP_EVERY``-th (finite ops alternate ``analyze`` and a solve
    concept), orientation alternating in pairs, and each file kind's
    commands in a fixed rotation.  The seed draws only the games, so runs
    of different seeds time the same mix.  Light ops are mostly start-up,
    and keeping them the clear majority puts the median inside that band.
    """
    rng = random.Random(seed)
    # analyze, the command a user runs first, alternates with the solve
    # concepts on finite files.
    finite_cmds = [c for s in FINITE_SOLUTIONS for c in (("analyze", None), ("solve", s))]
    coop_cmds = [("analyze", None)] + [("solve", s) for s in COOP_SOLUTIONS]
    n_finite = n_coop = 0
    n_heavy = n_light = 0
    ops = []
    for i in range(CLI_SCHEDULE_LEN):
        orientation = (GAIN, LOSS)[(i // 2) % 2]
        if i % CLI_HEAVY_EVERY == CLI_HEAVY_EVERY - 1:
            if n_heavy % 2 == 0:
                ops.append({"kind": "render", "game": coop_file(rng, orientation), "solution": None})
            else:
                ops.append({"kind": "paper-demo", "game": None, "solution": None})
            n_heavy += 1
            continue
        n_light += 1
        if n_light % CLI_COOP_EVERY:
            cmd, sol = finite_cmds[n_finite % len(finite_cmds)]
            n_finite += 1
            kind = f"finite:{cmd}" + (f":{sol}" if sol else "")
            ops.append({"kind": kind, "game": finite_file(rng, orientation), "solution": sol})
        else:
            cmd, sol = coop_cmds[n_coop % len(coop_cmds)]
            n_coop += 1
            kind = f"coop:{cmd}" + (f":{sol}" if sol else "")
            ops.append({"kind": kind, "game": coop_file(rng, orientation), "solution": sol})
    return ops


def cli_mix() -> dict[str, float]:
    """Share of each op kind in the CLI schedule's design (seed-independent)."""
    heavy = 1.0 / CLI_HEAVY_EVERY
    finite = (1.0 - heavy) * (1.0 - 1.0 / CLI_COOP_EVERY)
    coop = (1.0 - heavy) / CLI_COOP_EVERY
    per_coop_cmd = coop / (1 + len(COOP_SOLUTIONS))
    mix = {"render": heavy / 2, "paper-demo": heavy / 2, "finite:analyze": finite / 2, "coop:analyze": per_coop_cmd}
    mix.update({f"finite:solve:{s}": finite / 2 / len(FINITE_SOLUTIONS) for s in FINITE_SOLUTIONS})
    mix.update({f"coop:solve:{s}": per_coop_cmd for s in COOP_SOLUTIONS})
    return mix


def write_cli_files(schedule: list[dict], directory: Path) -> list[str | None]:
    """Write each op's game file; returns the paths (None for paper-demo)."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, op in enumerate(schedule):
        if op["game"] is None:
            paths.append(None)
            continue
        path = directory / f"game{i:04d}.json"
        path.write_text(json.dumps(op["game"], indent=1) + "\n", encoding="utf-8")
        paths.append(str(path))
    return paths


def sweep_games(seed: int) -> list[dict]:
    """Coopetitive games for the section sweep, alternating orientation."""
    rng = random.Random(seed)
    return [
        {"coeffs": coop_coefficients(rng), "orientation": (GAIN, LOSS)[i % 2]}
        for i in range(SWEEP_GAMES)
    ]


def dense_maps(seed: int) -> list[dict]:
    """Payoff maps for the dense-geometry workload.

    Duplicate-heavy maps have no xy term and equal x and y coefficients,
    so each payoff depends on x + y (and z) only and many lattice points
    share a payoff pair.  Generic maps draw all five coefficients.
    """
    rng = random.Random(seed)
    maps = []
    for i in range(DENSE_MAPS):
        arity, duplicate_heavy, slopes = DENSE_SHAPES[i % len(DENSE_SHAPES)]
        coeffs = coop_coefficients(rng)
        if duplicate_heavy:
            same = (coeffs[0][1] > 0) == (coeffs[1][1] > 0)
            if same != (slopes == "aligned"):
                coeffs[1][1] = -coeffs[1][1]
            for row in coeffs:
                row[2] = row[1]
                row[4] = 0.0
        if arity == 2:
            for row in coeffs:
                row[3] = 0.0
        maps.append(
            {
                "arity": arity,
                "grid_n": DENSE_GRID_2D if arity == 2 else DENSE_GRID_3D,
                "coeffs": coeffs,
                "duplicate_heavy": duplicate_heavy,
                "slopes": slopes,
                "orientation": rng.choice((GAIN, LOSS)),
            }
        )
    return maps


def workload_inputs(workload: str, seed: int) -> list[dict]:
    if workload == "cli":
        return cli_schedule(seed)
    if workload == "section-sweep":
        return sweep_games(seed)
    if workload == "dense-geometry":
        return dense_maps(seed)
    raise ValueError(f"unknown workload {workload!r}")


def inputs_digest(inputs: list[dict]) -> str:
    """Canonical serialisation of the inputs, for reproducibility checks."""
    return json.dumps(inputs, sort_keys=True, separators=(",", ":"))

"""Float answers against the exact rational references of ``rational``."""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from coopetition.coopetitive import CoopetitiveGame, nash_zone  # noqa: E402
from coopetition.games import Orientation  # noqa: E402
from coopetition.geometry import PayoffMap  # noqa: E402
from perfbench.inputs import sweep_games  # noqa: E402
from rational import pure_equilibria  # noqa: E402


def test_every_exact_pure_equilibrium_is_in_a_float_component():
    # Every fourth section-sweep game of three seeds, seed 304's game 172
    # among them: player 1 ties exactly between the rows at y = 1 in every
    # section there, and a z = 0 table that rounded the tie apart lost
    # (x, y) = (0, 1) in all 17 sections.  A pure point of a component box
    # is one of its corners, so grid 2 lists it.
    checked = 0
    for seed in (1, 2, 304):
        for coeffs, orientation in ((g["coeffs"], g["orientation"]) for g in sweep_games(seed)[::4]):
            sign = 1 if orientation == "gain" else -1
            game = CoopetitiveGame.with_uniform_grid(
                PayoffMap(np.array(coeffs), arity=3), Orientation(orientation), 17
            )
            found = {tuple(row) for row in nash_zone(game, 2).preimages.tolist()}
            for k, z in enumerate(game.c_grid.tolist()):
                for x, y in pure_equilibria(coeffs, sign, Fraction(k, 16)):
                    assert (float(x), float(y), z) in found, (seed, coeffs, z, (x, y))
                    checked += 1
    assert checked > 2000

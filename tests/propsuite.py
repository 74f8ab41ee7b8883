"""Reusable property suites, each over a stated number of random draws.

``test_properties.py`` runs them at a quick size during development;
``test_acceptance.py`` runs every suite at the contractual 200 draws.
"""

from __future__ import annotations

import json
import random
import tempfile
from pathlib import Path

import numpy as np

from coopetition.bargaining import SolutionPoint
from coopetition.coopetitive import CoopetitiveGame, family_roundtrip_check
from coopetition.errors import CoopetitionError
from coopetition.gamefile import load_game_file
from coopetition.games import (
    Orientation,
    PayoffPoint,
    conservative_bivalue,
    negate_orientation,
    pure_nash_equilibria,
    translate,
)
from coopetition.geometry import PayoffMap, PointCloud, pareto_filter
from coopetition.report import CONCEPTS, GameContext

from oracles import brute_pareto_indices, random_cloud, random_game
from test_golden import negated_file


def check_translation_invariance(iterations: int, seed: int = 101) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(iterations):
        g = random_game(rng)
        v = PayoffPoint(*(rng.integers(-8, 9, size=2) / 2.0))
        moved = translate(g, v)
        assert pure_nash_equilibria(moved) == pure_nash_equilibria(g)
        assert conservative_bivalue(moved) == conservative_bivalue(g) + v


def _loss_file(rng: random.Random, kind: str) -> dict:
    """A LOSS game file of ``kind`` whose numbers have 0, 1 or 3 decimals."""
    digits = rng.choice((0, 1, 3))
    if kind == "finite":
        p1, p2 = ([[round(rng.uniform(-3, 6), digits) for _ in range(2)] for _ in range(2)] for _ in range(2))
        return {"kind": "finite", "orientation": "loss", "payoff1": p1, "payoff2": p2}
    c_grid_size = rng.choice((2, 5, 17, 65))
    return {
        "kind": "coopetitive",
        "orientation": "loss",
        "coefficients": {p: [round(rng.uniform(-2, 2), digits) for _ in range(5)] for p in ("p1", "p2")},
        "c_grid_size": c_grid_size,
        "initial_z": rng.randrange(c_grid_size) / (c_grid_size - 1),
    }


def _answers(path: Path, grid_n: int) -> dict[str, SolutionPoint | str]:
    """Every ``solve`` concept's answer on the file, or its error's class name."""
    ctx = GameContext(load_game_file(path), grid_n)
    answers = {}
    for name in CONCEPTS:
        try:
            answers[name] = ctx.solve(name)
        except CoopetitionError as exc:
            answers[name] = type(exc).__name__
    return answers


def _negated(p: PayoffPoint | None) -> PayoffPoint | None:
    return None if p is None else -p


#: A LOSS file whose ``tu`` and ``win-win`` answers sit at a nearest-witness
#: tie: the TU crossing (0.5, 0.5) is as near the witness (0, 1) as (1, 0).
#: The tie is ranked in the orientation's frame, so the twin reports the
#: same witness's preimage.
NEAREST_WITNESS_TIE = {
    "kind": "coopetitive",
    "orientation": "loss",
    "coefficients": {"p1": [-0.0, 2.0, 1.0, 2.0, -2.0], "p2": [1.0, -1.0, 2.0, 2.0, -2.0]},
    "c_grid_size": 65,
    "initial_z": 0.546875,
}


def check_twin_duality(game: dict) -> None:
    """Each ``solve`` concept, on the LOSS file ``game`` and on its negated
    GAIN twin, refuses with the same class (so the same exit code) on both,
    or answers with negated payoffs, threat and utopia (a zero equals its
    negation) and the same preimage.  Residuals may differ in the last
    bit.  Files are sampled on 17 points per axis."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / f"{name}.json" for name in ("loss", "gain")]
        for path, data in zip(paths, (game, negated_file(game))):
            path.write_text(json.dumps(data), encoding="utf-8")
        loss, gain = (_answers(path, 17) for path in paths)
    for name in CONCEPTS:
        a, b = loss[name], gain[name]
        where = f"{name} on {game}"
        if isinstance(a, str) or isinstance(b, str):
            assert a == b, where
            continue
        assert (b.method, b.payoff) == (a.method, -a.payoff), where
        assert (b.threat, b.utopia) == (_negated(a.threat), _negated(a.utopia)), where
        assert b.preimage == a.preimage, where


def check_orientation_duality(iterations: int, seed: int = 102) -> None:
    """Negating a game and its orientation negates every answer: random
    finite tables keep their pure equilibria, and random LOSS files (finite
    2x2 and coopetitive in turn) pass ``check_twin_duality``."""
    rng = np.random.default_rng(seed)
    for _ in range(iterations):
        g = random_game(rng)
        assert pure_nash_equilibria(negate_orientation(g)) == pure_nash_equilibria(g)
    draws = random.Random(seed)
    for i in range(iterations):
        game = _loss_file(draws, ("finite", "coopetitive")[i % 2])
        check_twin_duality(game)


def check_pareto_idempotence(iterations: int, seed: int = 103) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(iterations):
        payoffs, preimages = random_cloud(rng, int(rng.integers(1, 120)))
        flavor = "maximal" if rng.integers(2) else "minimal"
        once = pareto_filter(PointCloud(payoffs, preimages, 0.1), Orientation.GAIN, flavor)
        twice = pareto_filter(once, Orientation.GAIN, flavor)
        assert np.array_equal(once.payoffs, twice.payoffs)
        assert np.array_equal(once.preimages, twice.preimages)


def check_pareto_filter_vs_quadratic(iterations: int, seed: int = 104) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(iterations):
        payoffs, preimages = random_cloud(rng, int(rng.integers(1, 80)))
        flavor = "maximal" if rng.integers(2) else "minimal"
        fast = pareto_filter(PointCloud(payoffs, preimages, 0.1), Orientation.GAIN, flavor)
        idx = brute_pareto_indices(payoffs, preimages, flavor)
        want = sorted(map(tuple, np.hstack([payoffs[idx], preimages[idx]])))
        have = sorted(map(tuple, np.hstack([fast.payoffs, fast.preimages])))
        assert have == want


def check_family_roundtrip(iterations: int, seed: int = 105) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(iterations):
        coeffs = rng.integers(-6, 7, size=(2, 5)) / 2.0
        orientation = Orientation.GAIN if rng.integers(2) else Orientation.LOSS
        game = CoopetitiveGame.with_uniform_grid(
            PayoffMap(coeffs, arity=3), orientation, int(rng.integers(2, 9))
        )
        assert family_roundtrip_check(game, grid_n=7)


ALL_SUITES = (
    ("translation invariance of equilibria", check_translation_invariance),
    ("orientation duality", check_orientation_duality),
    ("Pareto filter idempotence", check_pareto_idempotence),
    ("sweep vs quadratic Pareto agreement", check_pareto_filter_vs_quadratic),
    ("family roundtrip", check_family_roundtrip),
)

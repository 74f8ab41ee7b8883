"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

import io
import json
import math
from contextlib import contextmanager, redirect_stdout

import numpy as np
import pytest

import propsuite
from coopetition.bargaining import BargainingProblem, ks_solution, nash_bargaining
from coopetition.cli import main
from coopetition.coopetitive import (
    proper_coopetitive_solution,
    standard_win_win_solution,
    tu_crossing_solution,
    win_win_report,
)
from coopetition.demo import coopetitive_game_dict, finite_game_dict
from coopetition.games import (
    Orientation,
    PayoffPoint,
    StrategyCell,
    dominant_strategies,
    negate_orientation,
    pure_nash_equilibria,
    translate,
)
from coopetition.geometry import (
    PayoffMap,
    hausdorff_distance,
    pareto_filter,
    sample_image,
    tu_boundary,
)
from coopetition.mixed import conservative_bivalue_mixed, mixed_equilibrium_components


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d}: FAIL  {description}")
        raise
    print(f"criterion {number:2d}: PASS  {description}")


def dist(p: PayoffPoint, q) -> float:
    return math.hypot(p.p1 - q[0], p.p2 - q[1])


def test_criterion_1_pure_nash_and_dominance(gain_table):
    with criterion(1, "pure Nash {(E,L),(N,L)}; (E,H) excluded; L weakly dominant"):
        nash = pure_nash_equilibria(gain_table)
        assert nash == {StrategyCell(0, 1), StrategyCell(1, 1)}
        assert StrategyCell(0, 0) not in nash
        assert 1 in dominant_strategies(gain_table, 2, "weak")


def test_criterion_2_loss_frame_identity(gain_table, norm_loss_game):
    with criterion(2, "negated gains equal normalized losses shifted by (0,-4), exactly"):
        negated = negate_orientation(gain_table)
        shifted = translate(norm_loss_game, PayoffPoint(0.0, -4.0))
        assert np.array_equal(negated.payoff1, shifted.payoff1)
        assert np.array_equal(negated.payoff2, shifted.payoff2)
        assert negated.orientation is shifted.orientation is Orientation.LOSS


def test_criterion_3_mixed_extension(norm_loss_game):
    with criterion(3, "equilibrium segment {(x,0)} with payoffs (0,0)..(0,1); B' = (0,1)"):
        comps = mixed_equilibrium_components(norm_loss_game)
        assert len(comps) == 1
        comp = comps[0]
        assert comp.description == "segment"
        assert comp.x_interval == (0.0, 1.0) and comp.y_interval == (0.0, 0.0)
        assert dist(comp.payoff_extremes[0], (0.0, 0.0)) <= 1e-12
        assert dist(comp.payoff_extremes[1], (0.0, 1.0)) <= 1e-12
        b_prime = conservative_bivalue_mixed(norm_loss_game)
        assert dist(b_prime, (0.0, 1.0)) <= 1e-6


def test_criterion_4_pareto_boundary_accuracy(f0_boundary_513):
    with criterion(4, "minimal boundary within 3/512 of the curve t -> (-4t^2, 2t)"):
        t = np.linspace(0.0, 1.0, 8193)
        curve = np.stack([-4.0 * t * t, 2.0 * t], axis=1)
        assert hausdorff_distance(f0_boundary_513, curve) <= 3.0 / 512.0


def test_criterion_5_ks_solution(f0, f0_boundary_513):
    exact = (8.0 * math.sqrt(2.0) - 12.0, 2.0 * math.sqrt(2.0) - 2.0)
    with criterion(5, "KS from (0,1) to (-4,0): 1e-2 at grid 513, 1e-3 at grid 1025"):
        sol = ks_solution(
            BargainingProblem(f0_boundary_513, PayoffPoint(0, 1), PayoffPoint(-4, 0)),
            tol=3.0 / 512,
        )
        assert dist(sol.payoff, exact) <= 1e-2
        fine = pareto_filter(sample_image(f0, 1025), Orientation.LOSS, "minimal")
        sol_fine = ks_solution(
            BargainingProblem(fine, PayoffPoint(0, 1), PayoffPoint(-4, 0)), tol=3.0 / 1024
        )
        assert dist(sol_fine.payoff, exact) <= 1e-3


def test_criterion_6_nash_bargaining(f0_boundary_513):
    with criterion(6, "Nash bargaining from (0,1) within 1e-2 of (-4/9, 2/3)"):
        sol = nash_bargaining(f0_boundary_513, PayoffPoint(0, 1), Orientation.LOSS)
        assert dist(sol.payoff, (-4.0 / 9.0, 2.0 / 3.0)) <= 1e-2


def test_criterion_7_coopetitive_tu(coop_game, coop_cloud_65):
    with criterion(7, "collective loss -4 at (1,1,1); TU compromise at (-25/7, -3/7)"):
        tub = tu_boundary(coop_cloud_65, Orientation.LOSS, 1e-6)
        assert abs(tub.optimal_sum - (-4.0)) <= 1e-6
        assert tuple(tub.witness_preimages[0]) == (1.0, 1.0, 1.0)
        sol = tu_crossing_solution(tub, PayoffPoint(0, 1), PayoffPoint(-5, -1))
        assert dist(sol.payoff, (-25.0 / 7.0, -3.0 / 7.0)) <= 1e-2


def test_criterion_8_proper_coopetitive(coop_game):
    with criterion(8, "proper coopetitive payoff (-1,-1) at (0,0,1)"):
        sol = proper_coopetitive_solution(coop_game, 65, tol=3.0 / 64)
        assert sol.payoff == PayoffPoint(-1.0, -1.0)
        assert sol.preimage == (0.0, 0.0, 1.0)


def test_criterion_9_win_win_and_pie(coop_game, gain_table):
    with criterion(9, "standard win-win beats L = (0,1); collective gain 6 -> 8"):
        sol = standard_win_win_solution(coop_game, 65)
        report = win_win_report(coop_game, sol, 65)
        assert report.is_win_win
        assert report.core_sup == PayoffPoint(0.0, 1.0)
        assert report.margin.p1 > 0 and report.margin.p2 > 0
        from coopetition.mixed import bilinear_map

        pre = tu_boundary(
            sample_image(bilinear_map(gain_table), 513), Orientation.GAIN, 1e-9
        )
        assert abs(pre.optimal_sum - 6.0) <= 1e-6
        gain_frame = PayoffMap(
            np.array([[0.0, 0, 0, 1, 4], [4.0, -1, -1, 1, 0]]), arity=3
        )
        post = tu_boundary(sample_image(gain_frame, 65), Orientation.GAIN, 1e-9)
        assert abs(post.optimal_sum - 8.0) <= 1e-6


@pytest.mark.parametrize(
    "name,suite", propsuite.ALL_SUITES, ids=[n for n, _ in propsuite.ALL_SUITES]
)
def test_criterion_10_property_suites(name, suite):
    with criterion(10, f"200 random draws: {name}"):
        suite(200)


def test_criterion_10_deterministic_cli(tmp_path):
    with criterion(10, "byte-identical CLI output on repeated runs"):
        coop = tmp_path / "coop.json"
        data = coopetitive_game_dict()
        data["analysis"] = {"grid_n": 17}
        coop.write_text(json.dumps(data))
        finite = tmp_path / "finite.json"
        finite.write_text(json.dumps(finite_game_dict()))

        outputs = []
        for _ in range(2):
            buf = io.StringIO()
            with redirect_stdout(buf):
                assert main(["analyze", str(coop)]) == 0
                assert main(["analyze", str(finite), "--grid", "129"]) == 0
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1]

        blobs = []
        for run in ("a", "b"):
            csv_path = tmp_path / f"{run}.csv"
            svg_path = tmp_path / f"{run}.svg"
            assert main(
                ["render", str(coop), "--out-csv", str(csv_path), "--out-svg", str(svg_path)]
            ) == 0
            blobs.append((csv_path.read_bytes(), svg_path.read_bytes()))
        assert blobs[0] == blobs[1]

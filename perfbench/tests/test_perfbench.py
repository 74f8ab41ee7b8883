"""Tests of the benchmark itself: reproducible inputs, stable metric names,
and oracles that reject perturbed answers.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

import coopetition as C  # noqa: E402
from coopetition.cli import main as cli_main  # noqa: E402
from perfbench import inputs as I  # noqa: E402
from perfbench import oracles as O  # noqa: E402
from perfbench import run as R  # noqa: E402

COEFFS = [[0.3, -1.2, 0.5, -0.8, -2.1], [0.1, 0.7, 0.9, -1.1, 0.4]]


# --- reproducible inputs ------------------------------------------------------


@pytest.mark.parametrize("workload", R.WORKLOADS)
def test_same_seed_same_inputs(workload):
    a = I.inputs_digest(I.workload_inputs(workload, 7))
    assert a == I.inputs_digest(I.workload_inputs(workload, 7))
    assert a != I.inputs_digest(I.workload_inputs(workload, 8))


def test_same_seed_byte_identical_game_files(tmp_path):
    schedule = I.cli_schedule(3)
    first = I.write_cli_files(schedule, tmp_path / "a")
    second = I.write_cli_files(I.cli_schedule(3), tmp_path / "b")
    for p, q in zip(first, second):
        assert (p is None) == (q is None)
        if p is not None:
            assert Path(p).read_bytes() == Path(q).read_bytes()


def test_cli_mix_covers_every_concept():
    kinds = {op["kind"] for op in I.cli_schedule(0)[:30]}
    for sol in I.FINITE_SOLUTIONS:
        assert f"finite:solve:{sol}" in kinds
    for sol in I.COOP_SOLUTIONS:
        assert f"coop:solve:{sol}" in kinds
    assert {"finite:analyze", "coop:analyze", "render", "paper-demo"} <= kinds
    assert [op["kind"] for op in I.cli_schedule(0)] == [op["kind"] for op in I.cli_schedule(1)]


def test_dense_maps_half_duplicate_heavy():
    maps = I.dense_maps(0)
    assert sum(m["duplicate_heavy"] for m in maps) * 2 == len(maps)
    for m in maps:
        c = np.array(m["coeffs"])
        if m["duplicate_heavy"]:
            assert (c[:, 1] == c[:, 2]).all() and (c[:, 4] == 0).all()
        if m["arity"] == 2:
            assert (c[:, 3] == 0).all()


# --- stable metric names --------------------------------------------------------


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(R.GATED)
    units = dict(R.END_TO_END)
    assert all(m["unit"] == units[m["name"]] for m in spec["end_to_end"])
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(R.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(R.WORKLOADS)


def test_end_to_end_names_are_fixed():
    assert [n for n, _ in R.END_TO_END] == [
        "ops_per_s", "latency_p50_s", "latency_tail_s", "fail_ratio", "peak_rss_mb", "setup_s",
    ]


def test_failed_ops_count_as_infinitely_slow():
    records = [{"kind": "k", "latency": 1.0, "failure": None}] * 3 + [{"kind": "k", "latency": 0.1, "failure": "X"}]
    m = R.end_to_end("section-sweep", records, 1.0, 1.0)
    assert m["latency_p50_s"] == 1.0
    assert m["fail_ratio"] == 0.25
    assert m["ops_per_s"] == pytest.approx(3 / 3.1)
    assert R.percentile([1.0, float("inf")], 75) == float("inf")


def test_refusals_are_not_failures():
    records = [{"kind": "k", "latency": 1.0, "failure": None, "refusal": None}] * 3
    records.append({"kind": "k", "latency": 0.1, "failure": None, "refusal": "EmptyPortion"})
    m = R.end_to_end("section-sweep", records, 1.0, 1.0)
    assert m["fail_ratio"] == 0.0
    assert m["latency_p50_s"] == 1.0
    assert m["ops_per_s"] == pytest.approx(4 / 3.1)


def test_cli_ops_per_s_uses_the_fixed_mix():
    def rec(kind, latency, failure=None):
        return {"kind": kind, "latency": latency, "failure": failure, "refusal": None}

    mix = I.cli_mix()
    assert sum(mix.values()) == pytest.approx(1.0)
    assert mix["render"] == mix["paper-demo"] == pytest.approx(0.5 / I.CLI_HEAVY_EVERY)
    latency = {kind: 1.0 + i for i, kind in enumerate(mix)}
    records = [rec(kind, t) for kind, t in latency.items()]
    mean = sum(mix[k] * t for k, t in latency.items())
    assert R.cli_ops_per_s(records) == pytest.approx(1.0 / mean)
    # More ops of one kind do not change the figure; a failed op scales it down.
    assert R.cli_ops_per_s(records + [rec("render", latency["render"])] * 3) == pytest.approx(1.0 / mean)
    failed = records + [rec("finite:analyze", 0.5, "exit1")]
    assert R.cli_ops_per_s(failed) == pytest.approx(len(records) / len(failed) / mean)


# --- oracles reject perturbed answers ---------------------------------------------


def coop_game(orientation="loss", c_grid=9):
    return C.CoopetitiveGame.with_uniform_grid(
        C.PayoffMap(np.array(COEFFS), 3), C.Orientation(orientation), c_grid, initial_z=0.0
    )


def rejects(fn, *args, **kwargs) -> None:
    with pytest.raises(O.CheckFailed):
        fn(*args, **kwargs)


@pytest.mark.parametrize("orientation", ["gain", "loss"])
def test_conservative_oracle(orientation):
    game = coop_game(orientation)
    values = np.concatenate([p for _, p in C.induced_path(game, "conservative", 17).samples])
    O.check_conservative_path(COEFFS, orientation, game.c_grid, values)
    values[3, 1] += 1e-6
    rejects(O.check_conservative_path, COEFFS, orientation, game.c_grid, values)


@pytest.mark.parametrize("which", ["supremum", "infimum"])
def test_extremum_oracle(which):
    game = coop_game()
    values = np.concatenate([p for _, p in C.induced_path(game, which, 17).samples])
    O.check_extremum_path(COEFFS, game.c_grid, values, which)
    values[0, 0] -= 1e-6
    rejects(O.check_extremum_path, COEFFS, game.c_grid, values, which)


def test_nash_path_oracle():
    game = coop_game("gain")
    samples = [p.copy() for _, p in C.induced_path(game, "nash_payoffs", 17).samples]
    O.check_nash_path(COEFFS, "gain", game.c_grid, samples)
    samples[2] = samples[2] + 1e-3
    rejects(O.check_nash_path, COEFFS, "gain", game.c_grid, samples)


def test_zone_and_proper_oracles():
    game = coop_game()
    zone = C.nash_zone(game, 17)
    idx = np.arange(len(zone))
    O.check_zone(COEFFS, "loss", game.c_grid, zone.preimages, zone.payoffs, idx)
    moved = zone.preimages.copy()
    moved[:, 0] = 1.0 - moved[:, 0]
    rejects(O.check_zone, COEFFS, "loss", game.c_grid, moved, zone.payoffs, idx)
    sol = C.proper_coopetitive_solution(game, 17, 3 / 16)
    args = (COEFFS, "loss", zone.payoffs, sol.preimage, sol.payoff.as_tuple(), sol.residual, 3 / 16)
    O.check_proper(*args)
    worse = (sol.payoff.p1 + 0.5, sol.payoff.p2 + 0.5)
    rejects(O.check_proper, COEFFS, "loss", zone.payoffs, sol.preimage, worse, sol.residual, 3 / 16)


def test_win_win_oracle():
    game = coop_game()
    sol = C.standard_win_win_solution(game, 17)
    args = [COEFFS, "loss", sol.payoff.as_tuple(), sol.threat.as_tuple(), sol.utopia.as_tuple(), sol.residual]
    O.check_win_win(*args)
    args[2] = (sol.payoff.p1 + 1e-3, sol.payoff.p2)
    rejects(O.check_win_win, *args)


@pytest.mark.parametrize("arity", [2, 3])
def test_geometry_oracles(arity):
    coeffs = np.array(COEFFS)
    if arity == 2:
        coeffs[:, 3] = 0.0
    n = 33 if arity == 2 else 17
    cloud = C.sample_image(C.PayoffMap(coeffs, arity), n)
    idx = np.arange(len(cloud))
    O.check_sample_image(coeffs, arity, n, cloud.payoffs, cloud.preimages, cloud.grid_step, idx)
    bad = cloud.payoffs.copy()
    bad[5, 0] += 1e-6
    rejects(O.check_sample_image, coeffs, arity, n, bad, cloud.preimages, cloud.grid_step, idx)

    for flavor in ("maximal", "minimal"):
        b = C.pareto_filter(cloud, C.Orientation.GAIN, flavor)
        O.check_boundary(cloud.payoffs, b.payoffs, flavor, idx)
        O.check_on_map(coeffs, b.preimages, b.payoffs)
        rejects(O.check_boundary, cloud.payoffs, b.payoffs[1:], flavor, idx)
        dominated = np.vstack([b.payoffs, cloud.payoffs.mean(axis=0)])
        rejects(O.check_boundary, cloud.payoffs, dominated, flavor, idx)
        rejects(O.check_on_map, coeffs, b.preimages, b.payoffs + 1e-6)

    tub = C.tu_boundary(cloud, C.Orientation.GAIN, 1e-9)
    O.check_tu(coeffs, arity, "gain", tub.optimal_sum, tub.witness_payoffs, 1e-9)
    rejects(O.check_tu, coeffs, arity, "gain", tub.optimal_sum - 1e-6, tub.witness_payoffs, 1e-9)


def test_bargaining_and_hausdorff_oracles():
    coeffs = np.array(COEFFS)
    coeffs[:, 3] = 0.0
    cloud = C.sample_image(C.PayoffMap(coeffs, 2), 65)
    b = C.pareto_filter(cloud, C.Orientation.GAIN, "maximal")
    threat, _ = O.worst_best_corners(cloud.payoffs, "gain")
    _, utopia = O.worst_best_corners(b.payoffs, "gain")
    tol = 3 / 64
    ks = C.ks_solution(C.BargainingProblem(b, C.PayoffPoint(*threat), C.PayoffPoint(*utopia)), tol)
    O.check_ks(b.payoffs, threat, utopia, ks.payoff.as_tuple(), ks.residual, tol)
    other = tuple(b.payoffs[0]) if tuple(b.payoffs[0]) != ks.payoff.as_tuple() else tuple(b.payoffs[-1])
    rejects(O.check_ks, b.payoffs, threat, utopia, other, ks.residual, tol)

    nb = C.nash_bargaining(b, C.PayoffPoint(*threat), C.Orientation.GAIN)
    O.check_nash_bargaining(b.payoffs, threat, "gain", nb.payoff.as_tuple())
    other = tuple(b.payoffs[0]) if tuple(b.payoffs[0]) != nb.payoff.as_tuple() else tuple(b.payoffs[-1])
    rejects(O.check_nash_bargaining, b.payoffs, threat, "gain", other)

    cp = C.compromise_solution("pareto", b, tol=tol)
    args = [b.payoffs, "gain", cp.payoff.as_tuple(), cp.residual, cp.threat.as_tuple(), cp.utopia.as_tuple(), tol]
    O.check_compromise_pareto(*args)
    args[4] = tuple(threat)
    rejects(O.check_compromise_pareto, *args)

    coarse = C.pareto_filter(C.sample_image(C.PayoffMap(coeffs, 2), 33), C.Orientation.GAIN, "maximal")
    d = C.hausdorff_distance(b, coarse)
    O.check_hausdorff(b.payoffs, coarse.payoffs, d)
    rejects(O.check_hausdorff, b.payoffs, coarse.payoffs, d * (1 + 1e-6) + 1e-9)


def test_brute_hausdorff_measures_every_pair():
    rng = np.random.default_rng(4)
    for n, m in ((1, 1), (7, 300), (600, 5), (900, 700)):
        a = rng.normal(size=(n, 2)) * [1.0, 50.0]
        b = rng.normal(size=(m, 2)) * [1.0, 50.0]
        d = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))
        want = max(d.min(axis=1).max(), d.min(axis=0).max())
        assert O.brute_hausdorff(a, b, chunk=64) == pytest.approx(want, rel=1e-14)


def test_cli_output_oracles(tmp_path, capsys):
    game = {"kind": "coopetitive", "orientation": "loss", "coefficients": {"p1": COEFFS[0], "p2": COEFFS[1]},
            "c_grid_size": 9, "initial_z": 0.0}
    path = tmp_path / "g.json"
    path.write_text(json.dumps(game))
    for solution in ("tu", "ks", "nash-bargaining"):
        assert cli_main(["solve", str(path), "--solution", solution, "--grid", "17"]) == 0
        out = capsys.readouterr().out
        O.check_solve_output(game, solution, out, 17)
        wrong = out.replace("payoff: (", "payoff: (1", 1)
        rejects(O.check_solve_output, game, solution, wrong, 17)
    assert cli_main(["analyze", str(path), "--grid", "17"]) == 0
    out = capsys.readouterr().out
    O.check_analyze_output(game, out)
    rejects(O.check_analyze_output, game, out.replace("payoff (", "payoff (1e6", 1))

    assert cli_main(["render", str(path), "--grid", "9", "--out-csv", str(tmp_path / "s.csv"),
                     "--out-svg", str(tmp_path / "s.svg")]) == 0
    assert O.check_csv(tmp_path / "s.csv", 3) > 0
    O.check_svg(tmp_path / "s.svg")
    rejects(O.check_csv, tmp_path / "s.csv", 2)
    (tmp_path / "bad.svg").write_text("<svg><circle></svg>")
    rejects(O.check_svg, tmp_path / "bad.svg")


def test_failure_class():
    assert O.failure_class(4, "error: NoIntersection: nearest point\n") == "NoIntersection"
    assert O.failure_class(3, "error: unsupported analysis: x\n") == "exit3"
    assert O.refusal_class(4, "error: EmptyPortion: no point\n") == "EmptyPortion"
    assert O.refusal_class(3, "error: unsupported analysis: x\n") is None
    assert O.refusal_class(1, "Traceback (most recent call last):\n") is None

"""CLI subcommands: reports, solvers, rendering, exit codes, determinism."""

import argparse
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from coopetition import cli, demo, report
from coopetition.cli import main
from coopetition.demo import coopetitive_game_dict, finite_game_dict, run_paper_demo
from coopetition.errors import DegenerateProblem, EmptyPortion, NoIntersection, SameHalfPlane
from coopetition.gamefile import MAX_PAYOFF, load_game_file
from coopetition.games import FiniteBimatrixGame, Orientation
from coopetition.geometry import PointCloud, pareto_filter
from test_golden import CONCEPTS as GOLDEN_CONCEPTS, GRID as GOLDEN_GRID, golden_games, negated_file


@pytest.fixture()
def finite_path(tmp_path):
    path = tmp_path / "finite.json"
    path.write_text(json.dumps(finite_game_dict()))
    return str(path)


@pytest.fixture()
def coop_path(tmp_path):
    data = coopetitive_game_dict()
    data["analysis"] = {"grid_n": 17}
    path = tmp_path / "coop.json"
    path.write_text(json.dumps(data))
    return str(path)


def loss_file(tmp_path, payoff1, payoff2):
    path = tmp_path / "loss.json"
    path.write_text(json.dumps(
        {"kind": "finite", "orientation": "loss", "payoff1": payoff1, "payoff2": payoff2}
    ))
    return str(path)


#: A GAIN game whose payoffs are all at most zero, -0.0 at the origin of the cube.
SIGNED_ZERO_GAME = {
    "kind": "coopetitive",
    "orientation": "gain",
    "coefficients": {"p1": [-0.0, -1, -1, -1, -1], "p2": [-0.0, -2, -1, -1, -3]},
    "c_grid_size": 5,
    "initial_z": 0.0,
    "analysis": {"grid_n": 9},
}


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


class TestAnalyze:
    def test_finite_report_lists_nash(self, finite_path):
        code, out, _ = run("analyze", finite_path, "--grid", "65")
        assert code == 0
        assert "(E,L)" in out and "(N,L)" in out
        assert "conservative bi-value" in out

    def test_zero_game_reports_all_cells(self, tmp_path):
        data = finite_game_dict()
        data["payoff1"] = [[0, 0], [0, 0]]
        data["payoff2"] = [[0, 0], [0, 0]]
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(data))
        code, out, _ = run("analyze", str(path), "--grid", "33")
        assert code == 0
        for cell in ("(E,H)", "(E,L)", "(N,H)", "(N,L)"):
            assert cell in out

    def test_coopetitive_report(self, coop_path):
        code, out, _ = run("analyze", coop_path)
        assert code == 0
        assert "proper-coopetitive" in out
        assert "win-win: True" in out

    def test_corrupted_file_exits_2_without_partial_output(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        code, out, err = run("analyze", str(path))
        assert code == 2
        assert out == ""
        assert "error" in err

    def test_3x3_report_skips_the_mixed_extension(self, tmp_path):
        data = finite_game_dict()
        data["payoff1"] = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
        data["payoff2"] = [[2, 1, 0], [0, 2, 1], [1, 0, 2]]
        del data["row_labels"], data["col_labels"]
        path = tmp_path / "rps.json"
        path.write_text(json.dumps(data))
        code, out, _ = run("analyze", str(path))
        assert code == 0
        assert "skipped" in out

    @pytest.mark.parametrize(
        "payoff1, payoff2, expected",
        [
            ([[-2, 4], [3, -3]], [[0, -2], [0, 4]], "(0.5, 0)"),
            # Player 1's guarantee peaks at 0 where the two replies cross.
            ([[3, -3], [-3, 3]], [[-3, 4], [3, 4]], "(0, 3)"),
        ],
    )
    def test_mixed_conservative_value_prints_no_negative_zero(
        self, tmp_path, payoff1, payoff2, expected
    ):
        path = loss_file(tmp_path, payoff1, payoff2)
        code, out, _ = run("analyze", path, "--grid", "65")
        assert code == 0
        assert f"  conservative bi-value: {expected}" in out.splitlines()
        assert "-0," not in out and "-0)" not in out

    def test_mixed_equilibrium_of_large_payoffs_verifies(self, tmp_path):
        # The indifference at the mixed equilibrium holds only to rounding,
        # which grows with the payoffs: an absolute tolerance rejected it.
        path = loss_file(
            tmp_path,
            [[813952, 795699], [-67579, 817223]],
            [[506717, 778527], [974281, -401401]],
        )
        code, out, err = run("analyze", path, "--grid", "33")
        assert code == 0, err
        assert "isolated point: extremes (0.8350158908, 0.02383465016)" in out

    def test_deterministic_output(self, coop_path):
        a = run("analyze", coop_path)
        b = run("analyze", coop_path)
        assert a == b


class TestSolve:
    def test_tu_paper_flags(self, coop_path):
        code, out, _ = run(
            "solve", coop_path, "--solution", "tu",
            "--threat", "0,1", "--utopia", "-5,-1", "--grid", "33",
        )
        assert code == 0
        assert "payoff: (-3.571428571, -0.4285714286)" in out

    def test_ks_degenerate_exits_4(self, finite_path):
        code, _, err = run(
            "solve", finite_path, "--solution", "ks",
            "--threat", "1,1", "--utopia", "1,1", "--grid", "33",
        )
        assert code == 4
        assert "DegenerateProblem" in err

    def test_win_win_reports_margin(self, coop_path):
        code, out, _ = run("solve", coop_path, "--solution", "win-win", "--grid", "33")
        assert code == 0
        assert "is win-win: true" in out
        assert "margin" in out

    def test_win_win_needs_coopetitive(self, finite_path):
        code, _, err = run("solve", finite_path, "--solution", "win-win", "--grid", "33")
        assert code == 3

    def test_win_win_without_initial_z_exits_3(self, tmp_path):
        data = coopetitive_game_dict()
        del data["initial_z"]
        data["analysis"] = {"grid_n": 17}
        path = tmp_path / "noz.json"
        path.write_text(json.dumps(data))
        code, _, err = run("solve", str(path), "--solution", "win-win")
        assert code == 3

    def test_nash_bargaining_defaults(self, finite_path):
        code, out, _ = run(
            "solve", finite_path, "--solution", "nash-bargaining", "--grid", "129"
        )
        assert code == 0
        assert "threat a: (0, 3)" in out

    def test_nash_bargaining_from_exact_conservative_value(self, tmp_path):
        # Player 2 can guarantee a loss of 4 and no less; a threat point
        # an ulp better than that leaves no feasible boundary point.
        path = loss_file(tmp_path, [[-2, -2], [4, 4]], [[4, 4], [1, -2]])
        code, out, err = run("solve", path, "--solution", "nash-bargaining")
        assert code == 0, err
        assert "payoff: (-2, 4)" in out.splitlines()

    def test_compromise_kinds(self, finite_path):
        for kind in ("compromise:pareto", "compromise:conservative_pareto"):
            code, out, _ = run("solve", finite_path, "--solution", kind, "--grid", "129")
            assert code == 0, kind
            assert f"solution: {kind}" in out

    def test_proper_coopetitive(self, coop_path):
        code, out, _ = run("solve", coop_path, "--solution", "proper-coopetitive")
        assert code == 0
        assert "payoff: (-1, -1)" in out
        assert "preimage: (0, 0, 1)" in out

    def test_proper_coopetitive_zero_is_the_section_maps(self, tmp_path):
        # Every coefficient is -0.0 or negative.  A section map adds its z
        # term as 0.0 * z = 0.0, so its zero payoffs are 0.0; the cube's
        # map adds -1 * 0.0 = -0.0 at z = 0, so its zeros are -0.0.
        path = tmp_path / "zeros.json"
        path.write_text(json.dumps(SIGNED_ZERO_GAME))
        code, out, _ = run("solve", str(path), "--solution", "proper-coopetitive")
        assert code == 0
        assert "payoff: (0, 0)" in out.splitlines()
        # The Nash bargaining compromise reads the cube.
        code, out, _ = run("solve", str(path), "--solution", "compromise:nash_pareto")
        assert code == 0
        assert "payoff: (-0, -0)" in out.splitlines()

    def test_grid_over_lattice_budget_exits_2(self, coop_path):
        code, out, err = run("solve", coop_path, "--solution", "tu", "--grid", "300")
        assert code == 2
        assert out == ""
        assert "limit of 16777216" in err

    def test_same_half_plane_exits_4(self, coop_path):
        code, _, err = run(
            "solve", coop_path, "--solution", "tu",
            "--threat", "0,1", "--utopia", "0,0", "--grid", "17",
        )
        assert code == 4
        assert "SameHalfPlane" in err


    def test_utopia_on_the_tu_line_is_answered(self, tmp_path):
        # The utopia sum equals the TU optimum 6.741, so the crossing is the utopia.
        path = tmp_path / "on_line.json"
        path.write_text(json.dumps({
            "kind": "coopetitive",
            "orientation": "gain",
            "coefficients": {
                "p1": [-0.191, 0.133, -0.088, 1.766, 0.797],
                "p2": [1.506, 1.769, -0.962, 0.238, 1.773],
            },
            "c_grid_size": 65,
            "initial_z": 0.890625,
        }))
        code, out, err = run("analyze", str(path))
        assert code == 0, err
        assert "standard-win-win: payoff" in out
        for solution in ("win-win", "tu"):
            code, out, err = run("solve", str(path), "--solution", solution)
            assert code == 0, err
            line = next(v for v in out.splitlines() if v.startswith("payoff: "))
            p1, p2 = (float(v) for v in line[len("payoff: ("):-1].split(", "))
            assert abs(p1 + p2 - 6.741) <= 1e-12

    def test_core_at_a_corner_value_is_answered(self, tmp_path):
        # The initial section's conservative value is a lattice corner's
        # payoff.  Read an ulp off that corner, it left the core empty
        # (win-win exited 4), and it made the default threat of
        # nash-bargaining miss the boundary vertex (exit 4).
        path = tmp_path / "corner.json"
        path.write_text(json.dumps({
            "kind": "coopetitive",
            "orientation": "gain",
            "coefficients": {
                "p1": [-0.503, 1.861, -1.447, 0.202, 0.016],
                "p2": [0.605, -1.565, 1.227, 0.036, 1.672],
            },
            "c_grid_size": 65,
            "initial_z": 0.78125,
        }))
        for solution in ("win-win", "nash-bargaining"):
            code, out, err = run("solve", str(path), "--solution", solution, "--grid", "17")
            assert code == 0, err
            assert out.startswith("solution: ")

    @pytest.mark.parametrize("orientation, p1, p2, solution", [
        ("loss", [[0.004, -1.838], [1.257, -1.616]], [[-0.88, -0.188], [-1.153, -0.203]], "nash-bargaining"),
        ("gain", [[0.421, 0.843], [-0.704, -0.904]], [[0.44, -1.064], [1.115, -1.661]], "tu"),
    ])
    def test_finite_threat_at_the_cloud_vertex_is_answered(self, tmp_path, orientation, p1, p2, solution):
        # The default threat is the pure corner (1, 1), a vertex of the
        # sampled cloud, whose bits differ from the table entries there by
        # an ulp.  A threat with the entries' bits would fail the exact
        # feasibility tests, and both concepts would refuse (exit 4).
        path = tmp_path / "vertex.json"
        path.write_text(json.dumps({"kind": "finite", "orientation": orientation, "payoff1": p1, "payoff2": p2}))
        code, out, err = run("solve", str(path), "--solution", solution, "--grid", "17")
        assert code == 0, err
        assert "preimage: (1, 1)" in out

    @pytest.mark.parametrize("solution", ["proper-coopetitive", "win-win"])
    def test_coopetitive_concepts_sample_no_cloud(self, coop_path, monkeypatch, solution):
        def refuse(*args):
            raise AssertionError("the command sampled the whole cloud")

        monkeypatch.setattr(report, "sample_image", refuse)
        code, _, err = run("solve", coop_path, "--solution", solution)
        assert code == 0, err


#: Each refusal a coopetitive solution concept can raise, and the concept.
REFUSALS = [
    (NoIntersection, "proper_coopetitive_solution"),
    (DegenerateProblem, "proper_coopetitive_solution"),
    (SameHalfPlane, "standard_win_win_solution"),
    (EmptyPortion, "standard_win_win_solution"),
]


@pytest.mark.parametrize("exc, concept", REFUSALS)
def test_coopetitive_report_names_unavailable_concepts(coop_path, monkeypatch, exc, concept):
    def refuse(*args, **kwargs):
        raise exc("forced")

    monkeypatch.setattr(report, concept, refuse)
    code, out, err = run("analyze", coop_path)
    assert code == 0, err
    label = "proper-coopetitive" if concept.startswith("proper") else "standard-win-win"
    assert f"  {label}: unavailable (forced)" in out.splitlines()
    other = "standard-win-win: payoff" if label == "proper-coopetitive" else "proper-coopetitive: payoff"
    assert other in out


@pytest.mark.parametrize(
    "command", [["analyze"], ["solve", "--solution", "ks"]], ids=["analyze", "solve-ks"]
)
@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_bad_tol_exits_2(finite_path, command, tol):
    err = io.StringIO()
    with redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main([command[0], finite_path, *command[1:], "--tol", tol])
    assert exc.value.code == 2
    assert err.getvalue().splitlines()[-1].endswith(
        f"argument --tol: must be a finite positive number, got '{tol}'"
    )


def test_concepts_are_the_solve_choices_in_order():
    # test_golden spells the concepts out, so the census can run its
    # commands on older revisions; they must stay report's, in its order.
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    solution = next(a for a in sub.choices["solve"]._actions if a.dest == "solution")
    assert GOLDEN_CONCEPTS == tuple(report.CONCEPTS) == tuple(solution.choices)


@pytest.mark.parametrize("name", ["bogus", "compromise:bogus", "KS"])
def test_context_refuses_a_name_outside_the_concepts(coop_path, name):
    ctx = report.GameContext(load_game_file(coop_path), 9)
    with pytest.raises(ValueError, match=f"unknown solution concept {name!r}"):
        ctx.solve(name)
    assert "cloud" not in vars(ctx)


IGNORED_POINT_FLAGS = [
    (concept, flag)
    for concept, flags in report.CONCEPTS.items()
    for flag in ("threat", "utopia")
    if flag not in flags
]


def test_ignored_point_flags_are_the_documented_nine():
    assert sorted(IGNORED_POINT_FLAGS) == sorted(
        [(c, f) for c in ("proper-coopetitive", "win-win", "compromise:pareto") for f in ("threat", "utopia")]
        + [(c, "utopia") for c in ("nash-bargaining", "compromise:nash_pareto", "compromise:conservative_pareto")]
    )


@pytest.mark.parametrize("concept, flag", IGNORED_POINT_FLAGS)
def test_point_flag_the_concept_ignores_exits_2(coop_path, concept, flag):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(["solve", coop_path, "--solution", concept, f"--{flag}", "-9,9"])
    assert exc.value.code == 2
    assert out.getvalue() == ""
    assert err.getvalue().splitlines()[-1].endswith(
        f"argument --{flag}: not read by --solution {concept}"
    )


READ_POINT_FLAGS = [(concept, flag) for concept, flags in report.CONCEPTS.items() for flag in flags]


@pytest.mark.parametrize("concept, flag", READ_POINT_FLAGS)
@pytest.mark.parametrize(
    "value",
    ["1e308,1e308", "1e200,1e200", f"0,{-float(np.nextafter(MAX_PAYOFF, np.inf))!r}"],
    ids=["overflowing", "squares-overflow", "just-beyond-bound"],
)
def test_point_beyond_max_payoff_exits_2(coop_path, concept, flag, value):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(["solve", coop_path, "--solution", concept, f"--{flag}={value}"])
    assert exc.value.code == 2
    assert out.getvalue() == ""
    assert err.getvalue().splitlines()[-1].endswith(
        f"argument --{flag}: coordinates must be at most {MAX_PAYOFF:.6g} in magnitude, got {value!r}"
    )


@pytest.mark.parametrize("concept, flag", READ_POINT_FLAGS)
@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["plus", "minus"])
def test_point_at_max_payoff_is_accepted(coop_path, concept, flag, sign):
    value = sign * MAX_PAYOFF
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run("solve", coop_path, "--solution", concept, f"--{flag}={value!r},{value!r}")
    # An answer or a documented refusal, never a usage error or a traceback.
    assert code in (0, 4)
    assert "Traceback" not in err


def _report_blocks(text: str) -> dict[str, list[str]]:
    """``analyze``'s solution blocks by label: the payoff and detail lines, or the refusal."""
    blocks: dict[str, list[str]] = {}
    lines = text.splitlines()
    for line in lines[lines.index("solutions") + 1:]:
        if line.startswith("    "):
            blocks[label].append(line.strip())
        else:
            label, rest = line.strip().split(": ", 1)
            blocks[label] = ["payoff: " + rest[len("payoff "):] if rest.startswith("payoff ") else rest]
    return blocks


def _check_one_answer_per_concept(tmp_path, path: str, tol_flag: list[str], grid: str) -> None:
    """``solve`` prints ``analyze``'s block for every concept, and ``render``
    marks exactly the concepts ``analyze`` does not call unavailable."""
    code, out, err = run("analyze", path, "--grid", grid, *tol_flag)
    assert code == 0, err
    blocks = _report_blocks(out)
    for label, block in blocks.items():
        concept = "win-win" if label == "standard-win-win" else label
        code, out, err = run("solve", path, "--solution", concept, "--grid", grid, *tol_flag)
        if block[0].startswith("unavailable ("):
            assert code == 4 and err.split(": ", 2)[2].rstrip() == block[0][len("unavailable ("):-1]
        else:
            assert code == 0, err
            shared = [v for v in out.splitlines()[1:] if not v.startswith(("core supremum", "margin", "is win"))]
            assert shared == [v for v in block if not v.startswith("core supremum")], concept
    if "proper-coopetitive" in blocks and not tol_flag:
        csv_path = tmp_path / "scene.csv"
        assert run("render", path, "--out-csv", str(csv_path), "--grid", grid)[0] == 0
        marked = {r["tag"][len("solution:"):] for r in csv.DictReader(csv_path.read_text().splitlines())
                  if r["tag"].startswith("solution:")}
        assert marked == {k for k, v in blocks.items() if not v[0].startswith("unavailable")}


def test_win_win_reads_tol_in_analyze_as_in_solve(coop_path):
    # analyze used to ignore --tol for win-win and print (1, 1, 1).
    code, out, err = run("analyze", coop_path, "--grid", "17", "--tol", "0.2")
    assert code == 0, err
    assert _report_blocks(out)["standard-win-win"][1] == "preimage: (0.9375, 1, 1)"
    code, out, err = run("solve", coop_path, "--solution", "win-win", "--grid", "17", "--tol", "0.2")
    assert code == 0, err
    assert "preimage: (0.9375, 1, 1)" in out.splitlines()


def test_render_reads_analysis_tol(tmp_path):
    # render used to draw proper-coopetitive at three grid steps whatever analysis.tol said.
    path = tmp_path / "tight.json"
    path.write_text(json.dumps({
        "kind": "coopetitive",
        "orientation": "gain",
        "coefficients": {"p1": [1.983, 0.408, 0.308, -1.832, -1.415],
                         "p2": [-0.234, -1.962, 0.441, 1.321, -0.455]},
        "c_grid_size": 65,
        "initial_z": 0.140625,
        "analysis": {"tol": 0.001},
    }))
    code, out, err = run("analyze", str(path), "--grid", "17")
    assert code == 0, err
    assert "  proper-coopetitive: unavailable (nearest boundary point is 0.00414409" in out
    csv_path = tmp_path / "scene.csv"
    assert run("render", str(path), "--out-csv", str(csv_path), "--grid", "17")[0] == 0
    tags = {r["tag"] for r in csv.DictReader(csv_path.read_text().splitlines())}
    assert "solution:proper-coopetitive" not in tags
    _check_one_answer_per_concept(tmp_path, str(path), [], "17")


def test_analyze_tu_line_reads_tol(finite_path):
    # analyze's TU line used to read its own 1e-9, and found 1 witness.
    code, out, err = run("analyze", finite_path, "--tol", "0.01")
    assert code == 0, err
    assert "  TU optimal sum: 6 (3 witnesses, ends (3.9921875, 2.001953125) .. (4, 2))" in out.splitlines()


def test_finite_render_reads_analysis_tol(tmp_path):
    # The finite scene's TU witnesses used to be read at 1e-9: only cell (0, 0).
    path = tmp_path / "finite.json"
    path.write_text(json.dumps(dict(finite_game_dict(), analysis={"tol": 2.5})))
    csv_path = tmp_path / "scene.csv"
    assert run("render", str(path), "--out-csv", str(csv_path))[0] == 0
    rows = [r for r in csv.DictReader(csv_path.read_text().splitlines()) if r["tag"] == "tu"]
    assert [(r["x"], r["y"]) for r in rows] == [("1.0", "1.0"), ("0.0", "0.0")]


@pytest.mark.parametrize("source", ["flag", "file"])
@pytest.mark.parametrize("tol", ["0.001", "0.2"])
@pytest.mark.parametrize("stem", list(golden_games()))
def test_one_answer_per_concept(tmp_path, stem, tol, source):
    game = golden_games()[stem]
    if source == "file":
        game = dict(game, analysis={"tol": float(tol)})
    path = tmp_path / f"{stem}.json"
    path.write_text(json.dumps(game))
    _check_one_answer_per_concept(
        tmp_path, str(path), ["--tol", tol] if source == "flag" else [], GOLDEN_GRID[game["kind"]]
    )


def _at_the_bound(data: dict) -> dict:
    """``data`` scaled so its payoffs just reach ``MAX_PAYOFF``, with a tolerance to match."""
    if data["kind"] == "finite":
        scale = MAX_PAYOFF / np.abs(np.array([data["payoff1"], data["payoff2"]])).max()
        tables = {k: (np.array(data[k]) * scale).tolist() for k in ("payoff1", "payoff2")}
    else:
        coeffs = np.array([data["coefficients"]["p1"], data["coefficients"]["p2"]])
        scale = MAX_PAYOFF / np.abs(coeffs).sum(axis=1).max() * (1 - 1e-12)
        tables = {"coefficients": dict(zip(("p1", "p2"), (coeffs * scale).tolist()))}
    return dict(data, **tables, analysis={"tol": 0.5 * scale})


BOUND_COMMANDS = (
    [("analyze",), ("render",)]
    + [("solve", name) for name in report.CONCEPTS]
)


@pytest.mark.parametrize("kind", ["finite", "coopetitive"])
@pytest.mark.parametrize("command", BOUND_COMMANDS, ids=" ".join)
def test_payoffs_at_the_bound_give_finite_residuals(tmp_path, kind, command):
    data = finite_game_dict() if kind == "finite" else coopetitive_game_dict()
    codes, texts = [], []
    for name, game in (("unit", dict(data, analysis={"tol": 0.5})), ("huge", _at_the_bound(data))):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(game))
        argv = [command[0], str(path), "--grid", "9"]
        if command[0] == "solve":
            argv += ["--solution", command[1]]
        elif command[0] == "render":
            argv += ["--out-csv", str(tmp_path / f"{name}.csv")]
        code, out, err = run(*argv)
        codes.append(code)
        texts.append(out + err)
    # Scaling the game refuses nothing the unit-scale game answers, and the reverse.
    assert codes[0] == codes[1], texts
    residuals = [v.split("residual: ")[1] for v in texts[1].splitlines() if "residual: " in v]
    assert all(np.isfinite(float(v)) for v in residuals), texts[1]
    assert codes[1] != 0 or residuals or command[0] == "render"
    if command[0] == "render":
        rows = list(csv.reader((tmp_path / "huge.csv").read_text().splitlines()))[1:]
        assert np.isfinite(np.array([r[:-1] for r in rows], dtype=float)).all()


def _probe(code: str, *argv: str) -> subprocess.CompletedProcess:
    """Run ``python -c code argv...`` with this checkout's package on the path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, timeout=120,
    )


# Blocks scipy, then runs the CLI as ``python -m coopetition.cli`` would (or
# only imports the package when given no arguments) and prints every scipy
# module loaded anyway.  An import of scipy raises ImportError.
_SCIPY_PROBE = """
import runpy, sys
sys.modules["scipy"] = None
if len(sys.argv) > 1:
    try:
        runpy.run_module("coopetition.cli", run_name="__main__")
    except SystemExit as exc:
        assert exc.code in (0, None), exc.code
else:
    import coopetition
print(sorted(m for m, mod in sys.modules.items() if m.split(".")[0] == "scipy" and mod is not None))
"""


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["analyze", "{finite}", "--grid", "33"],
        ["solve", "{finite}", "--solution", "ks", "--grid", "33"],
        ["render", "{coop}", "--out-csv", "{out}/c.csv", "--out-svg", "{out}/c.svg"],
        ["paper-demo", "--out-dir", "{out}/demo"],
    ],
    ids=["import", "analyze", "solve-ks", "render", "paper-demo"],
)
def test_commands_do_not_load_scipy(finite_path, coop_path, tmp_path, argv):
    argv = [a.format(finite=finite_path, coop=coop_path, out=tmp_path) for a in argv]
    proc = _probe(_SCIPY_PROBE, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_report_does_not_load_render():
    # The answers layer draws nothing; render builds the figures from it.
    proc = _probe("import sys, coopetition.report; print('coopetition.render' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def _render_games() -> dict[str, dict]:
    """The demo's finite and coopetitive files and their negations."""
    fin = finite_game_dict()
    coop = coopetitive_game_dict()
    return {
        "finite-gain": fin,
        "finite-loss": negated_file(fin),
        "coopetitive-loss": coop,
        "coopetitive-gain": negated_file(coop),
    }


#: SHA-256 of ``render --grid 9`` output on the files of ``_render_games``.
#: Any change to the scene contents or the CSV/SVG emission shows up here.
RENDER_SHA256 = {
    "finite-gain.csv": "f91841def0381201bbe8834239532eb17c0be82f37c193665f6d353b1e70b0f3",
    "finite-gain.svg": "276081bb1021672de93cb8cc8bc44fc72dcacdd51ece151f12fe2813caf2f1ed",
    "finite-loss.csv": "a1345a489fc0866492b4e407dc3e7fcd77e98e36ce92167697d4423fe7f9e936",
    "finite-loss.svg": "bd32a5c3c59be9c21e3435d0cce93760c2d7a36f1a4801c6877e9f9706873025",
    "coopetitive-loss.csv": "ce5859af8d328d2240b240f668c116b715867087110a09b1aef95a1ea48d0b46",
    "coopetitive-loss.svg": "776cf76699f6cdbeaf1c33e6b30f099edd87d8d00a7b1528ec9858d58c7e58a8",
    "coopetitive-gain.csv": "c5546785953f9d855b51cf6c6b46563e46f627e5baff00089e905ba1cd95815a",
    "coopetitive-gain.svg": "52b20612dfa7c9186949524050aa5fbdd839695b989c98ded4fd251ec967f65d",
}


class TestRender:
    def test_finite_csv_is_cell_scatter(self, finite_path, tmp_path):
        out_csv = tmp_path / "f.csv"
        code, _, _ = run("render", finite_path, "--out-csv", str(out_csv))
        assert code == 0
        rows = list(csv.DictReader(out_csv.read_text().splitlines()))
        cloud = [r for r in rows if r["tag"] == "cloud"]
        assert len(cloud) == 4
        assert {r["tag"] for r in rows} >= {"cloud", "pareto", "nash", "tu"}

    def test_csv_row_accounting(self, coop_path, tmp_path):
        out_csv = tmp_path / "c.csv"
        code, _, _ = run("render", coop_path, "--out-csv", str(out_csv), "--grid", "9")
        assert code == 0
        rows = list(csv.DictReader(out_csv.read_text().splitlines()))
        cloud = sum(1 for r in rows if r["tag"] == "cloud")
        assert cloud == 9**3
        markers = sum(1 for r in rows if r["tag"] != "cloud")
        assert len(rows) == cloud + markers

    def test_csv_roundtrip_refilters_to_same_boundary(self, coop_path, tmp_path):
        out_csv = tmp_path / "c.csv"
        run("render", coop_path, "--out-csv", str(out_csv), "--grid", "9")
        rows = list(csv.DictReader(out_csv.read_text().splitlines()))
        cloud_rows = [r for r in rows if r["tag"] == "cloud"]
        payoffs = np.array([[float(r["p1"]), float(r["p2"])] for r in cloud_rows])
        pre = np.array([[float(r["x"]), float(r["y"]), float(r["z"])] for r in cloud_rows])
        boundary = pareto_filter(
            PointCloud(payoffs, pre, 1.0 / 8), Orientation.LOSS, "minimal"
        )
        expected = sorted(
            (float(r["p1"]), float(r["p2"])) for r in rows if r["tag"] == "pareto"
        )
        assert sorted(map(tuple, boundary.payoffs)) == expected

    def test_svg_contents(self, coop_path, tmp_path):
        out_svg = tmp_path / "c.svg"
        code, _, _ = run("render", coop_path, "--out-svg", str(out_svg), "--grid", "9")
        assert code == 0
        svg = out_svg.read_text()
        assert svg.startswith("<svg")
        assert "<path" in svg  # boundary polyline
        assert "proper-coopetitive" in svg
        assert "tu line" in svg
        assert "better = down-left" in svg

    def test_byte_identical_reruns(self, coop_path, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run("render", coop_path, "--out-csv", str(a), "--grid", "9")
        run("render", coop_path, "--out-csv", str(b), "--grid", "9")
        assert a.read_bytes() == b.read_bytes()

    def test_io_failure_exits_5(self, coop_path, tmp_path):
        code, _, err = run(
            "render", coop_path, "--out-csv", str(tmp_path / "missing" / "c.csv"),
            "--grid", "9",
        )
        assert code == 5
        assert "I/O" in err

    def test_needs_an_output(self, coop_path):
        code, _, err = run("render", coop_path)
        assert code == 2

    @pytest.mark.parametrize("exc, concept", REFUSALS)
    def test_refused_concept_has_no_marker(self, coop_path, tmp_path, monkeypatch, exc, concept):
        def refuse(*args, **kwargs):
            raise exc("forced")

        monkeypatch.setattr(report, concept, refuse)
        out = {ext: tmp_path / f"c.{ext}" for ext in ("csv", "svg")}
        code, _, err = run("render", coop_path, "--out-csv", str(out["csv"]),
                           "--out-svg", str(out["svg"]), "--grid", "9")
        assert code == 0, err
        label = "proper-coopetitive" if concept.startswith("proper") else "standard-win-win"
        other = "standard-win-win" if label == "proper-coopetitive" else "proper-coopetitive"
        tags = {r["tag"] for r in csv.DictReader(out["csv"].read_text().splitlines())}
        assert f"solution:{other}" in tags and f"solution:{label}" not in tags
        svg = out["svg"].read_text()
        assert f">{other}</text>" in svg and label not in svg

    def test_no_intersection_game_renders(self, tmp_path):
        # proper-coopetitive refuses this game with NoIntersection.
        path = tmp_path / "no-intersection.json"
        path.write_text(json.dumps({
            "kind": "coopetitive", "orientation": "loss",
            "coefficients": {"p1": [-0.172, 1.153, 1.631, -0.124, -1.867],
                             "p2": [-0.691, -1.384, 0.046, -0.701, -0.726]},
            "c_grid_size": 257, "initial_z": 0,
        }))
        code, out, _ = run("analyze", str(path))
        assert code == 0
        assert "proper-coopetitive: unavailable (nearest boundary point" in out
        files = {ext: tmp_path / f"c.{ext}" for ext in ("csv", "svg")}
        code, _, err = run("render", str(path), "--out-csv", str(files["csv"]),
                           "--out-svg", str(files["svg"]))
        assert code == 0, err
        tags = {r["tag"] for r in csv.DictReader(files["csv"].read_text().splitlines())}
        assert "solution:standard-win-win" in tags and "solution:proper-coopetitive" not in tags
        assert files["svg"].read_text().startswith("<svg")

    @pytest.mark.parametrize("stem", sorted({name.split(".")[0] for name in RENDER_SHA256}))
    def test_output_matches_golden_hashes(self, tmp_path, stem):
        path = tmp_path / f"{stem}.json"
        path.write_text(json.dumps(_render_games()[stem]))
        out = {ext: tmp_path / f"{stem}.{ext}" for ext in ("csv", "svg")}
        code, _, _ = run(
            "render", str(path), "--grid", "9",
            "--out-csv", str(out["csv"]), "--out-svg", str(out["svg"]),
        )
        assert code == 0
        for ext, file in out.items():
            digest = hashlib.sha256(file.read_bytes()).hexdigest()
            assert digest == RENDER_SHA256[f"{stem}.{ext}"], file.name


#: SHA-256 of the paper-demo figure files.  Any change to the sampled
#: geometry, the solutions drawn or the CSV/SVG emission shows up here.
DEMO_FIGURE_SHA256 = {
    "payoff_space.csv": "c87dc5ad6f24d038882f85e73cffc51c453f418950440e44a59f543532f068ce",
    "payoff_space.svg": "72223a5627200083bb4529e4fc186abecbed8815e2091e63e06b5924f4c689b0",
    "bargaining_solutions.csv": "2f7e171342c0621890c9f53e1462afed0bc589080b10ede6e6af959f3cf3d07f",
    "bargaining_solutions.svg": "c1d280f860f296f0566d4e9930a21079323a5cc074c64127eb570732310dee1b",
    "tu_solutions.csv": "54b94efab0f0075065fd234784a3608f8c9766522737f87a2307dcc7958740d8",
    "tu_solutions.svg": "8f15398bfdc242fcb239f41d9eb4355fc1c46722b65217bc0212ab17c05e4528",
    "coopetitive_space.csv": "a49632622f7f44094649db909dfe1568f49516d709dac17e126c712e26725f94",
    "coopetitive_space.svg": "0c69073ec14e549a77923c560e7227c43f1ad1cf9c7f6dff24c84a59624be227",
    "coopetitive_solutions.csv": "a679395537c7c436f70fc88f68f9851f8aeecb3b2da4aa778da5ac430a2180ce",
    "coopetitive_solutions.svg": "87d857640dbd8de2a7e5f2e441ead56c91ea273544b6ed71fc121f4bb568d7f0",
}

#: SHA-256 of the paper-demo report (also its stdout) and its two game files,
#: so the printed solution values are pinned as well as the figures.
DEMO_REPORT_SHA256 = {
    "report.txt": "bad88e2b1550887db0f01777451bfb3e2b20d67490d829a1ed654aa560a4972a",
    "paper-finite.json": "bf33004baa4e9caa1b030112cc9cd0e1ffc1190d6cd739f20e9e1b40359dc630",
    "paper-coopetitive.json": "76adaaf5789dfad56627a32153e5cd021cf36304d8c616277e560a41817167aa",
}

#: Labels of the demo report's solution lines that ``solve`` must reproduce
#: on the emitted ``paper-coopetitive.json``.
DEMO_SOLVE_LABELS = {
    "tu": "coopetitive TU compromise",
    "proper-coopetitive": "proper coopetitive",
    "win-win": "standard win-win",
}


class TestPaperDemo:
    def test_writes_all_artifacts(self, tmp_path):
        out_dir = tmp_path / "demo"
        code, out, _ = run("paper-demo", "--out-dir", str(out_dir))
        assert code == 0
        assert "ok: enlarge the pie" in out
        names = {p.name for p in out_dir.iterdir()}
        assert "report.txt" in names
        assert "paper-finite.json" in names
        assert "paper-coopetitive.json" in names
        for stem in (
            "payoff_space",
            "bargaining_solutions",
            "tu_solutions",
            "coopetitive_space",
            "coopetitive_solutions",
        ):
            assert f"{stem}.csv" in names
            assert f"{stem}.svg" in names

    def test_figures_match_golden_hashes(self, tmp_path):
        run_paper_demo(tmp_path)
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in DEMO_FIGURE_SHA256
        }
        assert digests == DEMO_FIGURE_SHA256

    def test_report_and_game_files_match_golden_hashes(self, tmp_path):
        code, out, _ = run("paper-demo", "--out-dir", str(tmp_path))
        assert code == 0
        assert (tmp_path / "report.txt").read_text(encoding="utf-8") == out
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in DEMO_REPORT_SHA256
        }
        assert digests == DEMO_REPORT_SHA256

    def test_solve_on_the_emitted_file_prints_the_report_payoffs(self, tmp_path):
        report_lines = run_paper_demo(tmp_path).splitlines()
        for concept, label in DEMO_SOLVE_LABELS.items():
            code, out, err = run(
                "solve", str(tmp_path / "paper-coopetitive.json"), "--solution", concept
            )
            assert code == 0, err
            (payoff,) = [v for v in out.splitlines() if v.startswith("payoff: ")]
            assert f"  {label}: {payoff[len('payoff: '):]}" in report_lines, concept

    def test_failed_check_exits_1(self, tmp_path, monkeypatch):
        # Every cell of the all-zero table is an equilibrium, not the paper's two.
        zeros = FiniteBimatrixGame(np.zeros((2, 2)), np.zeros((2, 2)), Orientation.GAIN)
        monkeypatch.setattr(demo, "market_entry_table", lambda: zeros)
        code, out, err = run("paper-demo", "--out-dir", str(tmp_path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: demo check failed: pure Nash equilibria")

    def test_emitted_game_files_load(self, tmp_path):
        out_dir = tmp_path / "demo"
        run("paper-demo", "--out-dir", str(out_dir))
        code, out, _ = run("analyze", str(out_dir / "paper-finite.json"), "--grid", "33")
        assert code == 0
        assert "(N,L)" in out

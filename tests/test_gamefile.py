"""Game-file schema validation and grid resolution."""

import io
import json
from contextlib import redirect_stderr

import pytest

from coopetition.cli import main
from coopetition.demo import coopetitive_game_dict, finite_game_dict
from coopetition.errors import GameFileError
from coopetition.gamefile import (
    DEFAULT_GRID_2D,
    DEFAULT_GRID_3D,
    GRID_ENV_VAR,
    MAX_LATTICE_POINTS,
    load_game_file,
    resolve_grid,
)


def write(tmp_path, data, name="game.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data, indent=1) if isinstance(data, dict) else data)
    return path


def test_loads_finite_fixture(tmp_path):
    spec = load_game_file(write(tmp_path, finite_game_dict()))
    assert spec.kind == "finite"
    assert spec.finite.rows == 2
    assert spec.finite.row_labels == ("E", "N")


def test_loads_coopetitive_fixture(tmp_path):
    spec = load_game_file(write(tmp_path, coopetitive_game_dict()))
    assert spec.kind == "coopetitive"
    assert len(spec.coopetitive.c_grid) == 65
    assert spec.coopetitive.initial_z == 0.0
    assert spec.analysis.grid_n == 65


def test_invalid_json_reports_line(tmp_path):
    path = write(tmp_path, '{\n  "kind": "finite",\n  broken\n}')
    with pytest.raises(GameFileError) as exc:
        load_game_file(path)
    assert ":3:" in str(exc.value)


def test_missing_kind(tmp_path):
    with pytest.raises(GameFileError, match="kind"):
        load_game_file(write(tmp_path, {"orientation": "gain"}))


def test_bad_orientation(tmp_path):
    data = finite_game_dict()
    data["orientation"] = "up"
    with pytest.raises(GameFileError, match="orientation"):
        load_game_file(write(tmp_path, data))


def test_ragged_matrix_rejected_with_line(tmp_path):
    data = finite_game_dict()
    data["payoff1"] = [[1, 2], [3]]
    path = write(tmp_path, data)
    with pytest.raises(GameFileError, match="rectangular") as exc:
        load_game_file(path)
    line = int(str(exc.value).split(":")[1])
    assert path.read_text().splitlines()[line - 1].strip().startswith('"payoff1"')


def test_matrix_shape_mismatch(tmp_path):
    data = finite_game_dict()
    data["payoff2"] = [[1, 2, 3], [4, 5, 6]]
    with pytest.raises(GameFileError, match="shape"):
        load_game_file(write(tmp_path, data))


def test_nonfinite_entry_rejected(tmp_path):
    data = finite_game_dict()
    data["payoff1"][0][0] = 1e400
    text = json.dumps(data).replace("Infinity", "1e999")
    with pytest.raises(GameFileError):
        load_game_file(write(tmp_path, text))


def test_label_count_checked(tmp_path):
    data = finite_game_dict()
    data["row_labels"] = ["only-one"]
    with pytest.raises(GameFileError, match="row_labels"):
        load_game_file(write(tmp_path, data))


def test_coefficients_need_five_entries(tmp_path):
    data = coopetitive_game_dict()
    data["coefficients"]["p1"] = [1, 2, 3]
    with pytest.raises(GameFileError, match="5 numbers"):
        load_game_file(write(tmp_path, data))


def test_initial_z_off_grid_rejected(tmp_path):
    data = coopetitive_game_dict()
    data["initial_z"] = 0.013
    with pytest.raises(GameFileError, match="initial_z"):
        load_game_file(write(tmp_path, data))


def test_bad_c_grid_size(tmp_path):
    data = coopetitive_game_dict()
    data["c_grid_size"] = 1
    with pytest.raises(GameFileError, match="c_grid_size"):
        load_game_file(write(tmp_path, data))


def test_bad_analysis_block(tmp_path):
    data = finite_game_dict()
    data["analysis"] = {"grid_n": 1}
    with pytest.raises(GameFileError, match="grid_n"):
        load_game_file(write(tmp_path, data))


TABLE_3D = [[[1], [2]], [[3], [4]]]


@pytest.mark.parametrize(
    "kind, key, value",
    [
        ("finite", "tol", True),
        ("finite", "tol", float("inf")),
        ("finite", "grid_n", True),
        ("coopetitive", "c_grid_size", True),
        ("coopetitive", "initial_z", True),
        ("coopetitive", "c_grid_size", MAX_LATTICE_POINTS + 1),
        # 401-digit integer literals, past the float range.
        ("finite", "tol", 10**400),
        ("finite", "payoff1", 10**400),
        ("coopetitive", "p1", -(10**400)),
        ("coopetitive", "initial_z", 10**400),
        # Entries must be JSON numbers in a 2-D table.
        ("finite", "payoff1", True),
        ("finite", "payoff1", "1"),
        ("coopetitive", "p1", True),
        ("coopetitive", "p1", "2"),
        ("finite", "payoff1", {"payoff1": TABLE_3D}),
        ("finite", "payoff1", {"payoff1": TABLE_3D, "payoff2": TABLE_3D}),
    ],
    ids=[
        "tol-true", "tol-infinity", "grid_n-true", "c_grid_size-true", "initial_z-true",
        "c_grid_size-over-limit", "tol-huge", "payoff1-huge", "coefficient-huge",
        "initial_z-huge", "payoff1-true", "payoff1-string", "coefficient-true",
        "coefficient-string", "payoff1-3d", "both-payoffs-3d",
    ],
)
def test_bad_scalar_exits_2_at_its_line(tmp_path, kind, key, value):
    data = finite_game_dict() if kind == "finite" else coopetitive_game_dict()
    if key in ("tol", "grid_n"):
        data["analysis"] = {key: value}
    elif isinstance(value, dict):  # whole payoff tables
        data.update(value)
    elif key == "payoff1":
        data[key][0][0] = value
    elif key == "p1":
        data["coefficients"][key][0] = value
    else:
        data[key] = value
    path = write(tmp_path, data)
    err = io.StringIO()
    with redirect_stderr(err):
        code = main(["analyze", str(path), "--grid", "9"])
    assert code == 2
    lines = path.read_text().splitlines()
    line = next(i for i, text in enumerate(lines, start=1) if f'"{key}"' in text)
    assert f"{path}:{line}: " in err.getvalue()


class TestResolveGrid:
    def test_cli_flag_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv(GRID_ENV_VAR, "99")
        data = finite_game_dict()
        data["analysis"] = {"grid_n": 55}
        spec = load_game_file(write(tmp_path, data))
        assert resolve_grid(spec, 21) == 21

    def test_file_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(GRID_ENV_VAR, "99")
        data = finite_game_dict()
        data["analysis"] = {"grid_n": 55}
        spec = load_game_file(write(tmp_path, data))
        assert resolve_grid(spec, None) == 55

    def test_env_beats_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv(GRID_ENV_VAR, "99")
        spec = load_game_file(write(tmp_path, finite_game_dict()))
        assert resolve_grid(spec, None) == 99

    def test_defaults_by_kind(self, tmp_path, monkeypatch):
        monkeypatch.delenv(GRID_ENV_VAR, raising=False)
        finite = load_game_file(write(tmp_path, finite_game_dict(), "a.json"))
        assert resolve_grid(finite, None) == DEFAULT_GRID_2D
        data = coopetitive_game_dict()
        del data["analysis"]
        coop = load_game_file(write(tmp_path, data, "b.json"))
        assert resolve_grid(coop, None) == DEFAULT_GRID_3D

    def test_bad_env_value(self, tmp_path, monkeypatch):
        monkeypatch.setenv(GRID_ENV_VAR, "many")
        spec = load_game_file(write(tmp_path, finite_game_dict()))
        with pytest.raises(GameFileError, match=GRID_ENV_VAR):
            resolve_grid(spec, None)

    @pytest.mark.parametrize("source", ["flag", "file", "env"])
    def test_coopetitive_lattice_over_budget(self, tmp_path, monkeypatch, source):
        # 300 ** 3 = 2.7e7 lattice points.
        monkeypatch.delenv(GRID_ENV_VAR, raising=False)
        data = coopetitive_game_dict()
        del data["analysis"]
        if source == "file":
            data["analysis"] = {"grid_n": 300}
        elif source == "env":
            monkeypatch.setenv(GRID_ENV_VAR, "300")
        spec = load_game_file(write(tmp_path, data))
        with pytest.raises(GameFileError, match=f"limit of {MAX_LATTICE_POINTS}"):
            resolve_grid(spec, 300 if source == "flag" else None)

    def test_coopetitive_lattice_counts_c_grid(self, tmp_path):
        # 9 ** 2 * 300000 = 2.43e7 points: a Nash zone may hold a full
        # section rectangle for every z.
        data = coopetitive_game_dict()
        data["c_grid_size"] = 300000
        spec = load_game_file(write(tmp_path, data))
        with pytest.raises(GameFileError, match="grid size 9 asks for 24300000 lattice points"):
            resolve_grid(spec, 9)

    def test_finite_lattice_over_budget(self, tmp_path):
        # 4097 ** 2 is the first square above 2 ** 24.
        spec = load_game_file(write(tmp_path, finite_game_dict()))
        with pytest.raises(GameFileError, match=f"limit of {MAX_LATTICE_POINTS}"):
            resolve_grid(spec, 4097)

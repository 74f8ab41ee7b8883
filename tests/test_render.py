"""CSV emission: bytes against the row-by-row ``csv.writer`` reference, and tag checks."""

import numpy as np
import pytest

from coopetition import render
from coopetition.coopetitive import nash_zone
from coopetition.demo import coopetitive_entry_game
from coopetition.games import Orientation, PayoffPoint
from coopetition.geometry import facing_flavor, pareto_filter, sample_image
from coopetition.render import Scene, write_csv

from oracles import csv_reference

EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.7976931348623157e308,
               1.0, -3.0, 2.0**53, 1e16, 0.1, 1 / 3, -2.5e-310]


def assert_same_bytes(tmp_path, scene):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_csv(got, scene)
    csv_reference(want, scene)
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("arity", [2, 3])
def test_random_blocks_match_reference(tmp_path, arity):
    rng = np.random.default_rng(arity)
    scene = Scene("random", Orientation.GAIN, arity)
    for tag in ("cloud", "pareto", "nash", "tu"):
        n = int(rng.integers(1, 400))
        # Rounded values repeat, so distinct values are shared across rows and columns.
        scene.add(rng.random((n, arity)).round(2), rng.normal(size=(n, 2)).round(3), tag)
    assert_same_bytes(tmp_path, scene)


@pytest.mark.parametrize("arity", [2, 3])
def test_edge_values_match_reference(tmp_path, arity):
    rng = np.random.default_rng(7)
    vals = np.array(EDGE_VALUES)
    scene = Scene("edges", Orientation.LOSS, arity)
    # -0.0 and 0.0 share every column; each value appears in each column.
    pre = rng.permutation(np.tile(vals, 3))[:, None] * np.ones(arity)
    pay = np.stack([vals, vals[::-1]], axis=1)
    scene.add(pre[: len(vals)], pay, "cloud")
    scene.add(pre, np.tile(pay, (3, 1)), "pareto")
    scene.add([[0.0] * arity, [-0.0] * arity], [[-0.0, 0.0], [0.0, -0.0]], "nash")
    scene.add([[np.nan] * arity], [[np.inf, -np.inf]], "tu")
    out = tmp_path / "edges.csv"
    write_csv(out, scene)
    lines = out.read_text().splitlines()
    assert lines[-3].endswith(",-0.0,0.0,nash") and lines[-2].startswith("-0.0,-0.0,")
    assert_same_bytes(tmp_path, scene)


def test_empty_block_writes_no_row(tmp_path):
    scene = Scene("empty", Orientation.GAIN, 3)
    scene.add(np.empty((0, 3)), np.empty((0, 2)), "nash")
    scene.add([[0.5, 0.25, 1.0]], [[1.0, -1.0]], "cloud")
    scene.add(np.empty((0, 3)), np.empty((0, 2)), "tu")
    out = tmp_path / "empty.csv"
    write_csv(out, scene)
    assert out.read_text() == "x,y,z,p1,p2,tag\n0.5,0.25,1.0,1.0,-1.0,cloud\n"
    assert_same_bytes(tmp_path, scene)


def test_block_longer_than_a_chunk(tmp_path):
    n = 2 * render._CSV_CHUNK_ROWS + 3
    rng = np.random.default_rng(11)
    scene = Scene("long", Orientation.GAIN, 3)
    # Mostly distinct values, some repeated across the chunk boundaries.
    pay = rng.normal(size=(n, 2))
    pay[::97] = 0.5
    pay[1::89] = -0.0
    scene.add(rng.random((n, 3)), pay, "cloud")
    scene.add_solution("proper-coopetitive", (0.25, 0.5, 1.0), PayoffPoint(-0.0, 3.5))
    assert_same_bytes(tmp_path, scene)


def test_solution_rows_match_reference(tmp_path):
    scene = Scene("solutions", Orientation.LOSS, 3)
    scene.add_solution("A'", (0.0, 0.0), PayoffPoint(0.0, 0.0))
    scene.add_solution("B'", (1.0, 0.0), PayoffPoint(0.0, 1.0))
    scene.add_solution("ks", None, PayoffPoint(-1 / 3, 5e-324))
    scene.add_solution("standard-win-win", (0.1, 0.2, 0.3, 0.4), PayoffPoint(1e308, -0.0))
    out = tmp_path / "solutions.csv"
    write_csv(out, scene)
    assert out.read_text().splitlines()[1:3] == [
        "0.0,0.0,0.0,0.0,0.0,solution:A'", "1.0,0.0,0.0,0.0,1.0,solution:B'",
    ]
    assert_same_bytes(tmp_path, scene)


def test_demo_scene_matches_reference(tmp_path):
    game = coopetitive_entry_game()
    cloud = sample_image(game.payoff, 17)
    scene = Scene("demo", game.orientation, 3)
    scene.add(cloud.preimages, cloud.payoffs, "cloud")
    boundary = pareto_filter(cloud, game.orientation, facing_flavor(game.orientation))
    scene.add(boundary.preimages, boundary.payoffs, "pareto")
    zone = nash_zone(game, 17)
    scene.add(zone.preimages, zone.payoffs, "nash")
    assert_same_bytes(tmp_path, scene)


@pytest.mark.parametrize("bad", [",", '"', "\r", "\n"])
def test_tags_that_csv_would_quote_are_refused(bad):
    scene = Scene("tags", Orientation.GAIN, 2)
    with pytest.raises(ValueError, match="scene tag"):
        scene.add([[0.0, 0.0]], [[1.0, 1.0]], f"cloud{bad}")
    with pytest.raises(ValueError, match="scene tag"):
        scene.add_solution(f"ks{bad}x", (0.0, 0.0), PayoffPoint(1.0, 1.0))
    assert scene.blocks == []


@pytest.mark.parametrize(
    "preimages, payoffs",
    [
        ([[0.5, 0.25]], [[1.0, 2.0]]),
        ([[0.5, 0.25, 1.0]], [[1.0]]),
        ([[0.5, 0.25, 1.0], [0.0, 0.0, 0.0]], [[1.0, 2.0]]),
    ],
    ids=["fewer-preimage-columns-than-arity", "one-payoff-column", "row-counts-differ"],
)
def test_malformed_blocks_are_refused(preimages, payoffs):
    scene = Scene("shapes", Orientation.GAIN, 3)
    with pytest.raises(ValueError, match="needs at least 3 preimage and 2 payoff columns"):
        scene.add(preimages, payoffs, "cloud")
    assert scene.blocks == []

"""The census tool (``tests/census.py``) agrees with itself and reports a
difference by its first line."""

import census


def test_two_runs_of_the_working_tree_agree():
    games = census.corpus(seed=1, files=16)
    assert len(games) == 20
    first, second = census.records(games), census.records(games)
    assert len(first) == 200
    assert census.differences(first, second) == {}


def test_geometry_records_agree_with_themselves():
    # A duplicate-heavy square and a generic cube of the benchmark's maps.
    maps = census.I.dense_maps(1)[:2]
    first, second = census.geometry_records(maps), census.geometry_records(maps)
    assert sorted({key.split(" ", 1)[1] for key in first}) == [
        "extrema", "lattice_tu gain", "lattice_tu gain 1e-6", "lattice_tu loss", "lattice_tu loss 1e-6",
        "pareto_filter maximal", "pareto_filter minimal", "tu_boundary gain", "tu_boundary gain 1e-6",
        "tu_boundary loss", "tu_boundary loss 1e-6",
    ]
    assert len(first) == 7 + 11
    assert census.differences(first, second) == {}


def test_differences_name_the_first_differing_line():
    base = {
        "a solve ks": {"text": "0\nx\ny\n", "files": {}},
        "a render": {"text": "0\nw\n", "files": {"csv": "1", "svg": "2"}},
        "b analyze": {"text": "0\nx\n", "files": {}},
        "b solve tu": {"text": "0\n", "files": {}},
    }
    head = {
        "a solve ks": {"text": "0\nx\nz\n", "files": {}},
        "a render": {"text": "0\nw\n", "files": {"csv": "1", "svg": "3"}},
        "b analyze": {"text": "0\nx\nmore\n", "files": {}},
        "b solve win-win": {"text": "0\n", "files": {}},
    }
    assert census.differences(base, head) == {
        "solve ks": ["a: line 3: 'y' -> 'z'"],
        "render": ["a: svg bytes differ"],
        "analyze": ["b: line 3: '<no line>' -> 'more'"],
        "solve tu": ["b: run by the base only"],
        "solve win-win": ["b: run by the head only"],
    }

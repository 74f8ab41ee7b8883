"""The census tool (``tests/census.py``) agrees with itself and reports a
difference by its first line."""

import census


def test_two_runs_of_the_working_tree_agree():
    games = census.corpus(seed=1, files=16)
    assert len(games) == 20
    first, second = census.records(games), census.records(games)
    assert len(first) == 200
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

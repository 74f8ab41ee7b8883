"""Quick runs of the random-game property suites (full size in acceptance)."""

import pytest

import propsuite


@pytest.mark.parametrize("name,suite", propsuite.ALL_SUITES, ids=[n for n, _ in propsuite.ALL_SUITES])
def test_property_suite(name, suite):
    suite(50)


def test_nearest_witness_tie_is_dual():
    propsuite.check_twin_duality(propsuite.NEAREST_WITNESS_TIE)

"""mixed-extension: expected payoffs, equilibrium components, conservative values."""

import numpy as np
import pytest

from coopetition.coopetitive import CoopetitiveGame, _section_components, section_game
from coopetition.errors import UnsupportedGameError
from coopetition.gamefile import MAX_PAYOFF
from coopetition.games import (
    FiniteBimatrixGame,
    Orientation,
    PayoffPoint,
    translate,
)
from coopetition.geometry import PayoffMap, _fold_z
from coopetition.mixed import (
    MixedBistrategy,
    _conservative_value,
    _verify_equilibrium,
    bilinear_map,
    conservative_bivalue_mixed,
    expected_payoff,
    mixed_equilibrium_components,
)

from oracles import (
    corner_bivalue,
    exact_conservative_mixed,
    is_mixed_equilibrium,
    numpy_conservative_bivalue_mixed,
    numpy_map_components,
    numpy_mixed_equilibrium_components,
    random_game,
    section_corners,
)


def matching_pennies():
    return FiniteBimatrixGame(
        np.array([[1.0, -1.0], [-1.0, 1.0]]),
        np.array([[-1.0, 1.0], [1.0, -1.0]]),
        Orientation.GAIN,
    )


class TestExpectedPayoff:
    def test_pure_corner_top_left(self, norm_loss_game):
        assert expected_payoff(norm_loss_game, MixedBistrategy(1, 1)) == PayoffPoint(-4, 2)

    def test_pure_corner_bottom_right(self, norm_loss_game):
        assert expected_payoff(norm_loss_game, MixedBistrategy(0, 0)) == PayoffPoint(0, 0)

    def test_center(self, norm_loss_game):
        p = expected_payoff(norm_loss_game, MixedBistrategy(0.5, 0.5))
        assert p == PayoffPoint(-1.0, 1.0)
        # Explicit four-term bilinear sum as the oracle.
        w = [0.25, 0.25, 0.25, 0.25]
        p1 = sum(
            wi * norm_loss_game.payoff1[r, c]
            for wi, (r, c) in zip(w, [(0, 0), (0, 1), (1, 0), (1, 1)])
        )
        assert p.p1 == p1

    def test_all_corners_reproduce_table(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            g = random_game(rng, rows=2, cols=2)
            for (x, y), (r, c) in [((1, 1), (0, 0)), ((1, 0), (0, 1)),
                                   ((0, 1), (1, 0)), ((0, 0), (1, 1))]:
                p = expected_payoff(g, MixedBistrategy(x, y))
                assert p == PayoffPoint(g.payoff1[r, c], g.payoff2[r, c])

    def test_rejects_non_2x2(self):
        g = FiniteBimatrixGame(np.zeros((2, 3)), np.zeros((2, 3)), Orientation.GAIN)
        with pytest.raises(UnsupportedGameError):
            expected_payoff(g, MixedBistrategy(0, 0))

    def test_probability_bounds_enforced(self):
        with pytest.raises(ValueError):
            MixedBistrategy(1.5, 0.0)


class TestEquilibriumComponents:
    def test_normalized_loss_game_segment(self, norm_loss_game):
        comps = mixed_equilibrium_components(norm_loss_game)
        assert len(comps) == 1
        comp = comps[0]
        assert comp.description == "segment"
        assert comp.x_interval == (0.0, 1.0)
        assert comp.y_interval == (0.0, 0.0)
        assert comp.payoff_extremes == (PayoffPoint(0, 0), PayoffPoint(0, 1))

    def test_matching_pennies_isolated(self):
        comps = mixed_equilibrium_components(matching_pennies())
        assert len(comps) == 1
        comp = comps[0]
        assert comp.description == "isolated point"
        assert comp.extreme_points == (MixedBistrategy(0.5, 0.5),)

    def test_strict_dominance_pins_pure_point(self):
        g = FiniteBimatrixGame(
            np.array([[3.0, 2.0], [1.0, 0.0]]),
            np.array([[3.0, 1.0], [2.0, 0.0]]),
            Orientation.GAIN,
        )
        comps = mixed_equilibrium_components(g)
        assert len(comps) == 1
        assert comps[0].description == "isolated point"
        assert comps[0].extreme_points == (MixedBistrategy(1.0, 1.0),)

    def test_all_zero_game_is_one_rectangle(self):
        g = FiniteBimatrixGame(np.zeros((2, 2)), np.zeros((2, 2)), Orientation.GAIN)
        comps = mixed_equilibrium_components(g)
        assert len(comps) == 1
        assert comps[0].description == "rectangle"
        assert comps[0].x_interval == (0.0, 1.0)
        assert comps[0].y_interval == (0.0, 1.0)

    def test_every_extreme_and_midpoint_is_an_equilibrium(self):
        rng = np.random.default_rng(22)
        for _ in range(60):
            g = random_game(rng, rows=2, cols=2)
            for comp in mixed_equilibrium_components(g):
                for p in comp.extreme_points:
                    assert is_mixed_equilibrium(g, p.x, p.y)
                mx = 0.5 * (comp.x_interval[0] + comp.x_interval[1])
                my = 0.5 * (comp.y_interval[0] + comp.y_interval[1])
                assert is_mixed_equilibrium(g, mx, my)

    def test_components_cover_grid_equilibria(self):
        # Any grid point that passes the best-response check must belong
        # to some reported component.
        rng = np.random.default_rng(23)
        grid = np.linspace(0.0, 1.0, 9)
        for _ in range(40):
            g = random_game(rng, rows=2, cols=2)
            comps = mixed_equilibrium_components(g)
            for x in grid:
                for y in grid:
                    if is_mixed_equilibrium(g, x, y):
                        assert any(c.contains(MixedBistrategy(x, y)) for c in comps)

    def test_verification_rejects_a_unit_gain_at_large_scale(self):
        # Player 1 gains exactly 1 by leaving (row 0, col 0) for row 1; the
        # tolerance grows with the coefficients (to 1e-6 here) but stays far
        # below that.
        g = FiniteBimatrixGame(
            np.array([[1e6, 0.0], [1e6 + 1, 0.0]]),
            np.array([[1e6, 0.0], [0.0, 0.0]]),
            Orientation.GAIN,
        )
        rows = bilinear_map(g).coeffs.tolist()
        with pytest.raises(AssertionError, match="non-equilibrium"):
            _verify_equilibrium(g.orientation.sign, rows, 1.0, 1.0)
        _verify_equilibrium(g.orientation.sign, rows, 0.0, 1.0)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(24)
        for _ in range(30):
            g = random_game(rng, rows=2, cols=2)
            v = PayoffPoint(*(rng.integers(-6, 7, size=2) / 2.0))
            a = mixed_equilibrium_components(g)
            b = mixed_equilibrium_components(translate(g, v))
            assert [(c.x_interval, c.y_interval) for c in a] == [
                (c.x_interval, c.y_interval) for c in b
            ]
            for ca, cb in zip(a, b):
                for pa, pb in zip(ca.payoff_extremes, cb.payoff_extremes):
                    shifted = pa + v
                    assert abs(pb.p1 - shifted.p1) <= 1e-12
                    assert abs(pb.p2 - shifted.p2) <= 1e-12


class TestConservativeBivalueMixed:
    def test_normalized_loss_game(self, norm_loss_game):
        v = conservative_bivalue_mixed(norm_loss_game)
        assert abs(v.p1 - 0.0) <= 1e-9
        assert abs(v.p2 - 1.0) <= 1e-9

    def test_all_zero(self):
        g = FiniteBimatrixGame(np.zeros((2, 2)), np.zeros((2, 2)), Orientation.GAIN)
        assert conservative_bivalue_mixed(g) == PayoffPoint(0, 0)

    def test_translation_equivariance(self, norm_loss_game, loss_game):
        v = conservative_bivalue_mixed(loss_game)
        assert abs(v.p1 - 0.0) <= 1e-9
        assert abs(v.p2 - (-3.0)) <= 1e-9

    def test_exact_oracle_agreement(self):
        # For bilinear payoffs the guarantee function is piecewise linear
        # with breakpoints only where the two opponent replies tie, so the
        # exact value comes from a tiny candidate scan.
        rng = np.random.default_rng(25)
        for _ in range(40):
            g = random_game(rng, rows=2, cols=2)
            v = conservative_bivalue_mixed(g)
            e1, e2 = exact_conservative_mixed(g)
            assert abs(v.p1 - e1) <= 1e-9
            assert abs(v.p2 - e2) <= 1e-9

    def test_lattice_value_never_beats_refined(self):
        rng = np.random.default_rng(26)
        for _ in range(20):
            g = random_game(rng, rows=2, cols=2)
            v = conservative_bivalue_mixed(g)
            s = g.orientation.sign
            t = np.linspace(0, 1, 257)
            from coopetition.mixed import bilinear_map

            m = bilinear_map(g)
            x, y = np.meshgrid(t, t, indexing="ij")
            p1, p2 = m.eval_arrays(x, y)
            o1 = s * (s * p1).min(axis=1).max()
            o2 = s * (s * p2).min(axis=0).max()
            assert s * v.p1 >= s * o1 - 1e-12
            assert s * v.p2 >= s * o2 - 1e-12

    def test_exact_where_the_scan_was_off_by_an_ulp(self):
        # Whatever their mixture, player 2 can hold the loss to 4 and no
        # lower; a sampled search reported 3.9999999999999996.
        g = FiniteBimatrixGame(
            np.array([[-2.0, -2.0], [4.0, 4.0]]),
            np.array([[4.0, 4.0], [1.0, -2.0]]),
            Orientation.LOSS,
        )
        assert conservative_bivalue_mixed(g) == PayoffPoint(-2.0, 4.0)


def _bits(*values: float) -> bytes:
    """The values' float64 bit patterns, sign bits included."""
    return np.array(values, dtype=float).tobytes()


def _outcome(fn, game):
    """A comparable form of ``fn(game)``: every float field as bits, or the
    type of the exception raised."""
    try:
        out = fn(game)
    except AssertionError as exc:
        return type(exc)
    if isinstance(out, PayoffPoint):
        return _bits(out.p1, out.p2)
    return [
        (
            c.description,
            _bits(*c.x_interval, *c.y_interval),
            _bits(*(v for s in c.extreme_points for v in (s.x, s.y))),
            _bits(*(v for p in c.payoff_extremes for v in p)),
        )
        for c in out
    ]


class TestScalarSectionAnalysis:
    """Sections analysed from their coefficient rows, and finite games from
    their table, against the numpy forms kept in ``oracles``, bit for bit."""

    @staticmethod
    def assert_same(coeffs: np.ndarray) -> set[str]:
        """Compare ``coeffs``' analysis with an independent one of
        ``section_game(game, z)`` at a few sections, in both
        orientations: the components have that section's intervals, extreme
        points and shapes, and at z = 0 its payoffs too; the conservative
        bi-value of the ``_fold_z`` rows is that of the section map's
        corners.  Returns the component shapes seen."""
        shapes = set()
        for orientation in Orientation:
            game = CoopetitiveGame.with_uniform_grid(PayoffMap(coeffs, arity=3), orientation, 65)
            comps = _outcome(_section_components, game)
            for z in (0.0, *game.c_grid[[1, 31, 64]].tolist()):
                m = section_game(game, z)
                want = _outcome(lambda g: numpy_map_components(m, g.orientation), game)
                assert [c[:3] for c in comps] == [c[:3] for c in want]
                assert z != 0.0 or comps == want
                value = _conservative_value(orientation.sign, _fold_z(game.payoff.coeffs, z))
                assert _bits(*value) == _bits(*corner_bivalue(section_corners(game, z), orientation))
            shapes.update(c[0] for c in comps)
        return shapes

    def test_random_three_decimal_games(self):
        rng = np.random.default_rng(90)
        for _ in range(60):
            self.assert_same(np.round(rng.uniform(-2.0, 2.0, size=(2, 5)), 3))

    def test_half_integer_ties(self):
        rng = np.random.default_rng(91)
        for _ in range(60):
            self.assert_same(rng.integers(-4, 5, size=(2, 5)) / 2.0)

    def test_negative_zero_coefficients(self):
        rng = np.random.default_rng(92)
        for _ in range(60):
            coeffs = rng.choice([0.0, -0.0, 0.5, -0.5, 1.0], size=(2, 5))
            assert self.assert_same(coeffs)
        # An all -0.0 map has -0.0 table entries in places.
        assert self.assert_same(np.full((2, 5), -0.0)) == {"rectangle"}

    def test_degenerate_games_give_segments_and_rectangles(self):
        rng = np.random.default_rng(93)
        shapes = set()
        for _ in range(60):
            coeffs = rng.integers(-2, 3, size=(2, 5)) / 2.0
            # Player 1 or player 2 (or both) indifferent to the own mixture.
            for k in ([0], [1], [0, 1])[rng.integers(3)]:
                coeffs[k, [1 + k, 4]] = 0.0
            shapes |= self.assert_same(coeffs)
        assert {"segment", "rectangle"} <= shapes

    def test_coefficients_near_max_payoff(self):
        rng = np.random.default_rng(94)
        for _ in range(60):
            coeffs = rng.uniform(-1.0, 1.0, size=(2, 5))
            coeffs *= MAX_PAYOFF / np.abs(coeffs).sum(axis=1, keepdims=True) * (1 - 1e-12)
            self.assert_same(coeffs)

    def test_finite_games(self):
        rng = np.random.default_rng(95)
        signed_zeros = [-1.0, -0.0, 0.0, 0.5]
        for i in range(200):
            if i % 2:
                g = random_game(rng, rows=2, cols=2)
            else:
                g = FiniteBimatrixGame(
                    *rng.choice(signed_zeros, size=(2, 2, 2)), (Orientation.GAIN, Orientation.LOSS)[i % 4 // 2]
                )
            self.assert_same_finite(g)
        # Tables whose entries and bilinear evaluation round.
        rng = np.random.default_rng(96)
        for i in range(200):
            if i % 2:
                tables = np.round(rng.uniform(-2.0, 2.0, size=(2, 2, 2)), 3)
            else:
                tables = rng.uniform(-MAX_PAYOFF, MAX_PAYOFF, size=(2, 2, 2)) / 4
            self.assert_same_finite(FiniteBimatrixGame(*tables, (Orientation.GAIN, Orientation.LOSS)[i % 4 // 2]))

    @staticmethod
    def assert_same_finite(g: FiniteBimatrixGame) -> None:
        for fn, ref in (
            (mixed_equilibrium_components, numpy_mixed_equilibrium_components),
            (conservative_bivalue_mixed, numpy_conservative_bivalue_mixed),
        ):
            assert _outcome(fn, g) == _outcome(ref, g)

"""coopetition: sections, paths, Nash zone, TU and win-win solutions."""

import math
import random
from dataclasses import replace

import numpy as np
import pytest

from coopetition import coopetitive, geometry
from coopetition.coopetitive import (
    CoopetitiveGame,
    core_supremum,
    family_roundtrip_check,
    induced_path,
    nash_zone,
    proper_coopetitive_solution,
    section_game,
    standard_win_win_solution,
    tu_crossing_solution,
    win_win_report,
)
from coopetition.errors import EmptyPortion, MissingInitialZ, SameHalfPlane
from coopetition.games import Orientation, PayoffPoint
from coopetition.geometry import PayoffMap, PointCloud, extrema, lattice_tu, sample_image, tu_boundary
from coopetition.bargaining import SolutionPoint

from oracles import (
    SIGNED_ZERO_COEFFS,
    cloud_core_supremum,
    cloud_standard_win_win,
    cloud_tu_compromise,
    corner_bivalue,
    negated_frame_core_supremum,
    numpy_map_components,
    per_section_path,
    per_section_roundtrip,
    per_section_zone,
    section_corners,
    stacked_extreme_path,
    stacked_section_payoffs,
)

TU_POINT = PayoffPoint(-25.0 / 7.0, -3.0 / 7.0)


def err(p: PayoffPoint, q: PayoffPoint) -> float:
    return math.hypot(p.p1 - q.p1, p.p2 - q.p2)


def make_coop(coeffs, orientation=Orientation.LOSS, c_size=9, initial_z=None):
    return CoopetitiveGame.with_uniform_grid(
        PayoffMap(np.asarray(coeffs, dtype=float), arity=3), orientation, c_size, initial_z
    )


class TestSections:
    def test_section_at_zero_is_uncooperative_game(self, coop_game, f0):
        sec = section_game(coop_game, 0.0)
        t = np.linspace(0, 1, 9)
        x, y = np.meshgrid(t, t, indexing="ij")
        a = sec.eval_arrays(x, y)
        b = f0.eval_arrays(x, y)
        assert np.abs(a[0] - b[0]).max() == 0.0
        assert np.abs(a[1] - b[1]).max() == 0.0

    def test_section_at_one(self, coop_game):
        sec = section_game(coop_game, 1.0)
        assert sec.eval(0.5, 0.5) == PayoffPoint(-2.0, 0.0)
        assert sec.eval(1.0, 1.0) == PayoffPoint(-5.0, 1.0)

    def test_constant_in_z_sections_identical(self):
        g = make_coop([[1, 2, 0, 0, 0], [0, 0, 1, 0, 3]])
        a = section_game(g, 0.0)
        b = section_game(g, 0.7)
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_section_consistency_exact(self, coop_game):
        t = np.linspace(0, 1, 9)
        x, y = np.meshgrid(t, t, indexing="ij")
        for z in coop_game.c_grid[::16]:
            sec = section_game(coop_game, z)
            s1, s2 = sec.eval_arrays(x, y)
            f1, f2 = coop_game.payoff.eval_arrays(x, y, np.full_like(x, z))
            assert np.abs(s1 - f1).max() == 0.0
            assert np.abs(s2 - f2).max() == 0.0

    def test_z_out_of_range(self, coop_game):
        with pytest.raises(ValueError):
            section_game(coop_game, 1.5)

    def test_translation_family_structure(self, coop_game):
        # Section z equals section 0 shifted by -z in both components.
        t = np.linspace(0, 1, 17)
        x, y = np.meshgrid(t, t, indexing="ij")
        base = section_game(coop_game, 0.0).eval_arrays(x, y)
        for z in (0.25, 0.5, 1.0):
            sec = section_game(coop_game, z).eval_arrays(x, y)
            assert np.abs(sec[0] - (base[0] - z)).max() <= 1e-12
            assert np.abs(sec[1] - (base[1] - z)).max() <= 1e-12


class TestRoundtrip:
    def test_paper_game(self, coop_game):
        assert family_roundtrip_check(game=coop_game)

    def test_singleton_grid(self):
        g = CoopetitiveGame(
            PayoffMap(np.array([[0, 0, 0, -1.0, -4.0], [0, 1.0, 1.0, -1.0, 0]]), arity=3),
            Orientation.LOSS,
            np.array([0.5]),
        )
        assert family_roundtrip_check(g)

    @pytest.mark.parametrize("scale", [1.0, 1e2, 1e4, 1e5, 1e8, 1e12])
    def test_large_payoffs_roundtrip(self, scale):
        # Rounding grows with the payoffs: 1e4 and 1e5 failed an absolute 1e-12 on 11-18 of 50.
        rng = random.Random(1)
        for orientation in (Orientation.GAIN, Orientation.LOSS) * 25:
            coeffs = np.array([[round(rng.uniform(-2.0, 2.0), 3) for _ in range(5)] for _ in range(2)])
            game = CoopetitiveGame.with_uniform_grid(
                PayoffMap(coeffs * scale, arity=3), orientation, c_grid_size=65
            )
            assert family_roundtrip_check(game) is True

    def test_corrupted_section_detected(self, coop_game, monkeypatch):
        # Shift one section's folded constant away from the true map, with
        # the sections compared in one block, or in blocks of one or three.
        fold = coopetitive._fold_z
        shifted = coop_game.c_grid[3]

        def corrupt(coeffs, z):
            (c0, *rest), row2 = fold(coeffs, z)
            return [(c0 + 1e-6 * (z == shifted), *rest), row2]

        for block in (geometry._BLOCK, 17**2, 3 * 17**2):
            monkeypatch.setattr(coopetitive, "_BLOCK", block)
            monkeypatch.setattr(coopetitive, "_fold_z", fold)
            assert family_roundtrip_check(coop_game) is True
            monkeypatch.setattr(coopetitive, "_fold_z", corrupt)
            assert family_roundtrip_check(coop_game) is False

    @pytest.mark.parametrize("block", [geometry._BLOCK, 100])
    def test_matches_the_per_section_loop(self, monkeypatch, block):
        # Small blocks put a few sections, or one, in each block.
        monkeypatch.setattr(coopetitive, "_BLOCK", block)
        rng = np.random.default_rng(42)
        for scale in (1.0, 1e5, 1e12, 1e300):
            for _ in range(5):
                game = make_coop(np.round(rng.uniform(-2.0, 2.0, size=(2, 5)), 3) * scale, c_size=int(rng.integers(2, 40)))
                for grid_n in (1, 2, 5, 17):
                    with np.errstate(over="ignore", invalid="ignore"):
                        assert family_roundtrip_check(game, grid_n) is per_section_roundtrip(game, grid_n)

    def test_non_finite_section_raises(self):
        # The sections from z = 0.5 on fold c0 + c3*z past the float range.
        game = make_coop([[1e308, 0, 0, 1.7e308, 0], [1.0, 0, 0, 0, 0]], c_size=9)
        for check in (family_roundtrip_check, per_section_roundtrip):
            with np.errstate(over="ignore"), pytest.raises(ValueError, match="coefficients must be finite"):
                check(game)

    def test_random_polynomial_games(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            g = make_coop(rng.integers(-4, 5, size=(2, 5)) / 2.0, c_size=7)
            assert family_roundtrip_check(g)


class TestInducedPath:
    def test_nash_payoffs_are_shifted_segments(self, coop_game):
        path = induced_path(coop_game, "nash_payoffs", 33)
        assert [z for z, _ in path.samples] == list(coop_game.c_grid)
        for z, pts in path.samples[::16]:
            # Equilibrium payoffs of the section are {(-z, x-z)}.
            assert np.abs(pts[:, 0] + z).max() <= 1e-12
            diffs = pts[:, 1] - pts[:, 0]
            assert diffs.min() >= -1e-12 and diffs.max() <= 1.0 + 1e-12

    def test_conservative_path(self, coop_game):
        path = induced_path(coop_game, "conservative", 33)
        for z, pts in path.samples[::8]:
            assert abs(pts[0, 0] - (-z)) <= 1e-9
            assert abs(pts[0, 1] - (1.0 - z)) <= 1e-9

    def test_extrema_paths(self, coop_game):
        sup = induced_path(coop_game, "supremum", 17)
        inf = induced_path(coop_game, "infimum", 17)
        for (z, hi), (_, lo) in zip(sup.samples[::16], inf.samples[::16]):
            assert tuple(hi[0]) == (0.0 - z, 2.0 - z)
            assert tuple(lo[0]) == (-4.0 - z, 0.0 - z)

    def test_constant_game_constant_path(self):
        g = make_coop([[2, 0, 0, 0, 0], [3, 0, 0, 0, 0]], c_size=5)
        path = induced_path(g, "supremum", 17)
        for _, pts in path.samples:
            assert tuple(pts[0]) == (2.0, 3.0)

    def test_bad_quantity(self, coop_game):
        with pytest.raises(ValueError):
            induced_path(coop_game, "entropy", 17)


class TestNashZone:
    def test_parallelogram_membership(self, coop_game):
        zone = nash_zone(coop_game, 33)
        p1 = zone.payoffs[:, 0]
        p2 = zone.payoffs[:, 1]
        assert (p1 >= -1.0 - 1e-12).all() and (p1 <= 1e-12).all()
        assert (p2 >= p1 - 1e-12).all() and (p2 <= p1 + 1.0 + 1e-12).all()
        corners = {(0.0, 0.0), (0.0, 1.0), (-1.0, -1.0), (-1.0, 0.0)}
        have = set(map(tuple, zone.payoffs))
        assert corners <= have

    def test_singleton_grid_is_f0_segment(self):
        g = CoopetitiveGame(
            PayoffMap(np.array([[0, 0, 0, -1.0, -4.0], [0, 1.0, 1.0, -1.0, 0]]), arity=3),
            Orientation.LOSS,
            np.array([0.0]),
        )
        zone = nash_zone(g, 17)
        assert (zone.payoffs[:, 0] == 0.0).all()
        assert zone.payoffs[:, 1].min() == 0.0
        assert zone.payoffs[:, 1].max() == 1.0

    def test_unique_equilibrium_gives_curve(self):
        # Strict dominance at every section: one zone point per z.
        g = make_coop([[1, 2, 0, -1, 0], [1, 0, 2, -1, 0]], Orientation.GAIN, c_size=7)
        zone = nash_zone(g, 17)
        assert len(zone) == 7

    def test_zone_points_shift_with_z(self, coop_game):
        zone = nash_zone(coop_game, 17)
        # Equilibrium bistrategies are the same at every z; payoffs shift
        # by -z in both components.
        for row, pre in zip(zone.payoffs, zone.preimages):
            x, y, z = pre
            assert y == 0.0
            assert abs(row[0] - (0.0 - z)) <= 1e-12
            assert abs(row[1] - (x - z)) <= 1e-12


QUANTITIES = ("nash_payoffs", "supremum", "infimum", "conservative")


def assert_matches_per_section(game, grid_n, tol_for):
    """Translated paths and zone against one 2x2 analysis per section.

    ``tol_for(quantity)`` is the allowed deviation; 0 demands equal bits.
    """
    zone = nash_zone(game, grid_n)
    payoffs, preimages = per_section_zone(game, grid_n)
    assert zone.payoffs.shape == payoffs.shape
    assert np.abs(zone.payoffs - payoffs).max() <= tol_for("nash_payoffs")
    assert np.abs(zone.preimages - preimages).max() <= tol_for("nash_payoffs")
    assert np.array_equal(zone.preimages[:, 2], preimages[:, 2])
    for quantity in QUANTITIES:
        have = induced_path(game, quantity, grid_n).samples
        want = per_section_path(game, quantity, grid_n)
        assert [z for z, _ in have] == [z for z, _ in want]
        for (_, a), (_, b) in zip(have, want):
            assert a.shape == b.shape and not a.flags.writeable
            assert np.abs(a - b).max() <= tol_for(quantity), quantity


def one_formula_games():
    """Games with -0.0 and 0.0 coefficients, whose section payoffs often sum
    to zero, and generic three-decimal ones, each in both orientations."""
    rng = np.random.default_rng(57)
    coeffs = [SIGNED_ZERO_COEFFS]
    coeffs += [rng.choice([-0.0, 0.0, 1.0, -1.0, 0.5, -0.25, -2.0], size=(2, 5)) for _ in range(40)]
    coeffs += [np.round(rng.uniform(-2.0, 2.0, size=(2, 5)), 3) for _ in range(20)]
    for c in coeffs:
        for orientation in Orientation:
            yield make_coop(c, orientation, c_size=5)


class TestOneSectionFormula:
    """Paths, the Nash zone and the conservative bi-value carry the bits of the
    section map's own evaluation, sign of zero included."""

    def test_nash_payoffs_and_zone_are_the_section_maps(self):
        zeros = 0
        for game in one_formula_games():
            gx, gy = coopetitive._nash_lattice(game, 5)
            path = induced_path(game, "nash_payoffs", 5).samples
            zone = nash_zone(game, 5).payoffs.reshape(len(game.c_grid), len(gx), 2)
            for (z, values), rows in zip(path, zone, strict=True):
                want = np.stack(section_game(game, z).eval_arrays(gx, gy), axis=1)
                assert values.tobytes() == want.tobytes()
                assert rows.tobytes() == want.tobytes()
                zeros += int((want == 0.0).sum())
        assert zeros > 100

    def test_in_place_payoffs_match_the_stack(self):
        # Both layouts: the path's row-major (c_grid, lattice, 2) array and
        # the zone's column-major (c_grid * lattice, 2) payoffs.
        for game in one_formula_games():
            gx, gy = coopetitive._nash_lattice(game, 5)
            path = induced_path(game, "nash_payoffs", 5).values
            zone = nash_zone(game, 5).payoffs
            assert path.tobytes() == stacked_section_payoffs(game, gx, gy).tobytes()
            assert zone.tobytes(order="F") == stacked_section_payoffs(game, gx, gy, axis=0).tobytes()

    def test_conservative_value_is_the_section_maps_at_the_corners(self):
        for game in one_formula_games():
            for z in game.c_grid.tolist():
                value = coopetitive._conservative_value(game.orientation.sign, geometry._fold_z(game.payoff.coeffs, z))
                want = corner_bivalue(section_corners(game, z), game.orientation)
                assert np.array(value.as_tuple()).tobytes() == np.array(want.as_tuple()).tobytes()


def reduction_games():
    """Random three-decimal and half-integer games and the signed-zero
    game, each in both orientations."""
    rng = np.random.default_rng(58)
    coeffs = [SIGNED_ZERO_COEFFS]
    coeffs += [np.round(rng.uniform(-2.0, 2.0, size=(2, 5)), 3) for _ in range(15)]
    coeffs += [rng.integers(-8, 9, size=(2, 5)) / 2.0 for _ in range(15)]
    for c in coeffs:
        for orientation in Orientation:
            yield make_coop(c, orientation, c_size=17)


class TestArrayPath:
    """A path is one read-only array on the game's grid; ``samples`` splits
    it into per-section views on first read, and only then."""

    def test_values_and_samples(self):
        for game in reduction_games():
            k = {"nash_payoffs": len(coopetitive._nash_lattice(game, 5)[0])}
            for quantity in QUANTITIES:
                path = induced_path(game, quantity, 5)
                assert "samples" not in vars(path)
                assert path.c_grid is game.c_grid and path.quantity == quantity
                values = path.values
                assert values.shape == (len(game.c_grid), k.get(quantity, 1), 2)
                assert not values.flags.writeable
                samples = path.samples
                assert path.samples is samples and type(samples) is tuple
                want = tuple(zip(game.c_grid.tolist(), values))
                assert len(samples) == len(want)
                for (z, v), (wz, wv) in zip(samples, want):
                    assert type(z) is float and np.float64(z).tobytes() == np.float64(wz).tobytes()
                    assert type(v) is np.ndarray and v.shape == wv.shape
                    assert v.tobytes() == wv.tobytes()
                    assert not v.flags.writeable and np.shares_memory(v, values)


class TestRawFrameReductions:
    """Section extremes and the core supremum reduce the raw payoff columns
    with the bits of the reductions they replace, sign of zero included."""

    def test_extreme_paths_match_the_stacked_reduction(self):
        for game in reduction_games():
            for quantity in ("supremum", "infimum"):
                have = np.stack([v for _, v in induced_path(game, quantity, 5).samples])
                assert have.tobytes() == stacked_extreme_path(game, quantity).tobytes()

    def test_core_supremum_matches_the_negated_frame(self):
        answered = 0
        for game in reduction_games():
            for z in game.c_grid[::4].tolist():
                want = negated_frame_core_supremum(game, z, 17)
                if want is None:
                    with pytest.raises(EmptyPortion):
                        core_supremum(game, z, 17)
                    continue
                have = core_supremum(game, z, 17)
                assert np.array(have.as_tuple()).tobytes() == np.array(want.as_tuple()).tobytes()
                answered += 1
        assert answered >= 100

    @pytest.mark.parametrize("arity", [2, 3])
    def test_lattice_zeros_share_one_sign(self, arity):
        # The fact the raw-frame reductions rest on: on a lattice, each
        # payoff column's zeros are all 0.0 or all -0.0.
        rng = np.random.default_rng([59, arity])
        signs = set()
        for _ in range(400):
            c = rng.choice([-0.0, 0.0, -1.0, 1.0, 0.5, -0.25, -5e-324, 5e-324], size=(2, 5))
            if arity == 2:
                c[:, 3] = rng.choice([-0.0, 0.0], size=2)
            for column in geometry._sample(c, int(rng.choice([2, 3, 9])), arity).T:
                negative = np.signbit(column[column == 0.0])
                assert negative.all() or not negative.any()
                signs.update(negative.tolist())
        assert signs == {False, True}


class TestTranslatedSections:
    # Half-integer coefficients on dyadic c_grids keep every section's table
    # exact, so the translated answers must carry the per-section bits.  The
    # conservative value is the exception: the per-section closed form
    # rounds its crossing once, while the translation rounds it at z = 0 and
    # again when adding c_z * z, so it may differ in the last bit.
    @staticmethod
    def half_integer_tol(scale):
        return lambda q: 4 * np.finfo(float).eps * scale if q == "conservative" else 0.0

    def test_half_integer_games(self):
        rng = np.random.default_rng(51)
        for i in range(60):
            coeffs = rng.integers(-8, 9, size=(2, 5)) / 2.0
            orientation = Orientation.GAIN if i % 2 else Orientation.LOSS
            game = make_coop(coeffs, orientation, c_size=int(rng.choice([2, 5, 9, 17])))
            scale = max(1.0, np.abs(coeffs).max())
            assert_matches_per_section(game, int(rng.choice([2, 5, 9])), self.half_integer_tol(scale))

    def test_three_decimal_games(self):
        # Coefficients like the benchmark inputs: the two orders of rounding
        # may differ, by far less than the coefficients' scale.
        rng = np.random.default_rng(52)
        for i in range(20):
            coeffs = np.round(rng.uniform(-2.0, 2.0, size=(2, 5)), 3)
            orientation = Orientation.GAIN if i % 2 else Orientation.LOSS
            game = make_coop(coeffs, orientation, c_size=65)
            scale = max(1.0, np.abs(coeffs).max())
            assert_matches_per_section(game, 9, lambda q: 1e-12 * scale)

    def test_degenerate_games(self):
        # Zeroing a player's own-strategy terms makes them indifferent, so
        # components become segments and rectangles.
        rng = np.random.default_rng(53)
        seen = set()
        for i in range(60):
            coeffs = rng.integers(-8, 9, size=(2, 5)) / 2.0
            if rng.integers(2):
                coeffs[0, [1, 4]] = 0.0
            if rng.integers(2):
                coeffs[1, [2, 4]] = 0.0
            game = make_coop(coeffs, Orientation.GAIN if i % 2 else Orientation.LOSS, c_size=9)
            seen.update(c.description for c in numpy_map_components(section_game(game, 0.0), game.orientation))
            scale = max(1.0, np.abs(coeffs).max())
            assert_matches_per_section(game, 5, self.half_integer_tol(scale))
        assert {"segment", "rectangle"} <= seen

    @pytest.mark.parametrize("c_grid", [[0.5], [0.25, 0.75]])
    def test_c_grid_without_zero(self, c_grid):
        rng = np.random.default_rng(54)
        for i in range(30):
            coeffs = rng.integers(-8, 9, size=(2, 5)) / 2.0
            orientation = Orientation.GAIN if i % 2 else Orientation.LOSS
            game = CoopetitiveGame(PayoffMap(coeffs, arity=3), orientation, np.array(c_grid))
            scale = max(1.0, np.abs(coeffs).max())
            assert_matches_per_section(game, 5, self.half_integer_tol(scale))

    @pytest.mark.parametrize("c_size", [2, 9, 65])
    def test_one_section_analysis_per_call(self, coop_game, monkeypatch, c_size):
        import coopetition.coopetitive as mod

        calls = {"_equilibria": 0, "_conservative_value": 0, "section": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("_equilibria", "_conservative_value"):
            monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
        monkeypatch.setattr(PayoffMap, "section", counted("section", PayoffMap.section))
        game = CoopetitiveGame.with_uniform_grid(coop_game.payoff, coop_game.orientation, c_size)
        for run, want in (
            (lambda: nash_zone(game, 17), (1, 0)),
            (lambda: induced_path(game, "nash_payoffs", 17), (1, 0)),
            (lambda: induced_path(game, "conservative", 17), (0, 1)),
            (lambda: induced_path(game, "supremum", 17), (0, 0)),
        ):
            calls.update(dict.fromkeys(calls, 0))
            run()
            assert (calls["_equilibria"], calls["_conservative_value"]) == want
            assert calls["section"] <= 1

    def test_section_keeps_an_exact_tie_that_z0_rounds_apart(self):
        # Player 1's advantage of x = 1 at y = 1 is c1 + c4 = 0 in every
        # section, so (x, y) = (0, 1) is an equilibrium of section 1.  A z = 0
        # table read -1.6859999999999997 against -1.686 there and lost it.
        game = CoopetitiveGame.with_uniform_grid(
            PayoffMap(
                np.array([[-1.677, -0.397, -0.009, -0.185, 0.397], [-1.299, -0.263, 0.08, -1.179, -0.769]]),
                arity=3,
            ),
            Orientation.GAIN,
            257,
            initial_z=0.0,
        )
        z, payoffs = induced_path(game, "nash_payoffs", 65).samples[1]
        assert z == 1 / 256
        assert [-1.68672265625, -1.2236054687499998] in payoffs.tolist()


class TestProperCoopetitive:
    def test_paper_solution(self, coop_game):
        sol = proper_coopetitive_solution(coop_game, 65, tol=3.0 / 64)
        assert sol.payoff == PayoffPoint(-1, -1)
        assert sol.preimage == (0.0, 0.0, 1.0)

    def test_singleton_c_grid(self):
        g = CoopetitiveGame(
            PayoffMap(np.array([[0, 0, 0, -1.0, -4.0], [0, 1.0, 1.0, -1.0, 0]]), arity=3),
            Orientation.LOSS,
            np.array([0.0]),
        )
        sol = proper_coopetitive_solution(g, 17, tol=1e-6)
        assert sol.payoff == PayoffPoint(0, 0)

    def test_constant_single_equilibrium(self):
        g = make_coop([[1, 2, 0, 0, 0], [1, 0, 2, 0, 0]], Orientation.GAIN, c_size=5)
        sol = proper_coopetitive_solution(g, 17, tol=1e-6)
        assert sol.payoff == PayoffPoint(3.0, 3.0)


@pytest.fixture(scope="module")
def coop_tu(coop_game):
    """The entry game's TU pass on the lattice, keyed by points per axis."""
    return {n: lattice_tu(coop_game.payoff, n, coop_game.orientation, 1e-6)[0] for n in (33, 65)}


class TestTUCompromise:
    def test_paper_example(self, coop_tu):
        sol = tu_crossing_solution(coop_tu[65], PayoffPoint(0, 1), PayoffPoint(-5, -1))
        assert err(sol.payoff, TU_POINT) <= 1e-2
        assert sol.preimage == (1.0, 1.0, 1.0)

    def test_symmetric_crossing(self, coop_tu):
        sol = tu_crossing_solution(coop_tu[33], PayoffPoint(0, 0), PayoffPoint(-4, -4))
        assert err(sol.payoff, PayoffPoint(-2, -2)) <= 1e-9

    def test_points_on_line_rejected(self, coop_tu):
        with pytest.raises(SameHalfPlane):
            tu_crossing_solution(coop_tu[33], PayoffPoint(-2, -2), PayoffPoint(-3, -1))

    def test_same_side_rejected(self, coop_tu):
        with pytest.raises(SameHalfPlane):
            tu_crossing_solution(coop_tu[33], PayoffPoint(0, 1), PayoffPoint(0, 0))

    def test_nearest_witness_tie_in_the_orientations_frame(self):
        # The crossing (0.5, 0.5) is as near the witness (0, 1) as (1, 0).
        # The tie goes to the payoff better for player 1, (1, 0) under GAIN,
        # whose preimage the raw p1 order would not pick; the LOSS twin
        # picks the same witness, negated.
        for s, orientation in ((1.0, Orientation.GAIN), (-1.0, Orientation.LOSS)):
            cloud = PointCloud(s * np.array([[0.0, 1.0], [1.0, 0.0]]), [[0.0, 0.0], [1.0, 1.0]], 1.0)
            tub = tu_boundary(cloud, orientation)
            assert tub.orientation is orientation
            sol = tu_crossing_solution(tub, PayoffPoint(0, 0), PayoffPoint(s, s))
            assert sol.payoff == PayoffPoint(0.5 * s, 0.5 * s)
            assert sol.preimage == (1.0, 1.0)

    def test_end_on_the_line_is_the_crossing(self, coop_tu):
        # The TU line is p1 + p2 = -4; an end on it is the answer itself.
        on_line, off_line = PayoffPoint(-3, -1), PayoffPoint(0, 1)
        for a, b in ((off_line, on_line), (on_line, off_line)):
            sol = tu_crossing_solution(coop_tu[33], a, b)
            assert sol.payoff == on_line
            assert sol.residual == 0.0

    def test_coop_tu_beats_every_section(self, coop_game):
        coop_sum = tu_boundary(
            sample_image(coop_game.payoff, 33), Orientation.LOSS, 1e-9
        ).optimal_sum
        for z in coop_game.c_grid[::16]:
            sec_cloud = sample_image(section_game(coop_game, z), 33)
            sec_sum = tu_boundary(sec_cloud, Orientation.LOSS, 1e-9).optimal_sum
            assert coop_sum <= sec_sum + 1e-12


class TestWinWin:
    def test_core_supremum_is_conservative_point(self, coop_game):
        L = core_supremum(coop_game, 0.0, 513)
        assert err(L, PayoffPoint(0, 1)) <= 1e-9

    def test_core_supremum_matches_the_cloud_core(self):
        # Bits or refusal of the Pareto-boundary construction, both
        # orientations, on sweep-drawn games and on tie-heavy ones: small
        # integers with -0.0 coefficients, every other game a function of
        # x + y per player (c1 == c2, c4 == 0).  Matching pennies has an
        # empty core on the 2-point lattice.  The zero-sum game with payoffs
        # +-(3x - 1)(3y - 1) has a value of 0 that only x = 1/3 or y = 1/3
        # attains, so its core is empty on every dyadic lattice.
        rng = random.Random(3)
        values = (-2.0, -1.0, -0.0, 0.0, 1.0, 2.0)
        ties = []
        for i in range(40):
            coeffs = [[rng.choice(values) for _ in range(5)] for _ in range(2)]
            if i % 2:
                for c in coeffs:
                    c[2], c[4] = c[1], 0.0
            ties.append(make_coop(coeffs, c_size=5))
        pennies = make_coop([[1, -2, -2, 0, 4], [-1, 2, 2, 0, -4]], Orientation.GAIN)
        thirds = make_coop([[1, -3, -3, 0, 9], [-1, 3, 3, 0, -9]], Orientation.GAIN)
        games = [g for seed in (1, 2) for g in sweep_style_games(seed, 10)] + ties + [pennies, thirds]
        answers = refusals = negative_zeros = 0
        for base in games:
            for orientation in Orientation:
                game = replace(base, orientation=orientation)
                for z in (0.0, 1 / 256, 0.5, 57 / 64, 1.0):
                    for grid_n in (2, 3, 17, 65):
                        got = outcome(lambda: core_supremum(game, z, grid_n))
                        assert got == outcome(lambda: cloud_core_supremum(game, z, grid_n))
                        answers += got.startswith("PayoffPoint")
                        refusals += got.startswith("EmptyPortion")
                        negative_zeros += "-0.0" in got
        assert outcome(lambda: core_supremum(pennies, 0.0, 2)).startswith("EmptyPortion")
        assert answers > 1000 and refusals > 10 and negative_zeros > 10

    def test_core_keeps_the_corner_that_attains_the_value(self):
        # The conservative value is a lattice corner's payoff, so that corner
        # is in the core.  Re-evaluating the corners through a table's
        # bilinear coefficients set the value an ulp past it, and the core
        # came out empty at every grid.
        game = make_coop(
            [[-0.296, -1.776, 1.48, 0.28, -1.201], [0.019, -0.06, -0.573, -0.616, 0.154]],
            Orientation.LOSS,
            c_size=65,
        )
        for z in (0.0, 0.5):
            for grid_n in (2, 3, 17, 65):
                assert outcome(lambda: core_supremum(game, z, grid_n)).startswith("PayoffPoint")

    def test_report_on_known_candidate(self, coop_game):
        candidate = SolutionPoint(PayoffPoint(-2, 0), (0.5, 0.5, 1.0), "manual", 0.0)
        report = win_win_report(coop_game, candidate, 65)
        assert report.is_win_win
        assert report.margin.p1 > 0 and report.margin.p2 > 0

    def test_candidate_equal_to_l_fails(self, coop_game):
        candidate = SolutionPoint(PayoffPoint(0, 1), None, "manual", 0.0)
        report = win_win_report(coop_game, candidate, 65)
        assert not report.is_win_win

    def test_candidate_worse_in_one_component_fails(self, coop_game):
        candidate = SolutionPoint(PayoffPoint(-2, 2), None, "manual", 0.0)
        report = win_win_report(coop_game, candidate, 65)
        assert not report.is_win_win
        assert report.margin.p2 < 0

    def test_standard_solution_is_win_win(self, coop_game):
        sol = standard_win_win_solution(coop_game, 65)
        report = win_win_report(coop_game, sol, 65)
        assert report.is_win_win
        assert err(sol.payoff, TU_POINT) <= 1e-2

    def test_missing_initial_z(self):
        g = make_coop([[0, 0, 0, -1, -4], [0, 1, 1, -1, 0]], c_size=5)
        with pytest.raises(MissingInitialZ):
            standard_win_win_solution(g, 17)
        with pytest.raises(MissingInitialZ):
            win_win_report(g, SolutionPoint(PayoffPoint(0, 0), None, "m", 0.0), 17)

    def test_already_tu_optimal_raises_empty_portion(self):
        # Constant-in-z game whose TU optimum is reached by the core sup.
        g = make_coop([[0, 1, 0, 0, 0], [0, 0, 1, 0, 0]], Orientation.GAIN,
                      c_size=5, initial_z=0.0)
        with pytest.raises(EmptyPortion):
            standard_win_win_solution(g, 17)

    def test_symmetric_gain_game(self):
        # Gains (x+z, y+z): TU line sum = 4 at z=1; core sup of the initial
        # section is (1, 1); the crossing from (1,1) toward the portion's
        # best corner lands at (2, 2).
        g = make_coop([[0, 1, 0, 1, 0], [0, 0, 1, 1, 0]], Orientation.GAIN,
                      c_size=5, initial_z=0.0)
        sol = standard_win_win_solution(g, 17)
        assert err(sol.payoff, PayoffPoint(2, 2)) <= 1e-9


def sweep_style_games(seed: int, count: int):
    """Games drawn like the section-sweep benchmark's: coefficients in
    [-2, 2] to three decimals, alternating orientation, grid 65 along z;
    ``initial_z`` is any member of the grid."""
    rng = random.Random(seed)
    for i in range(count):
        coeffs = [[round(rng.uniform(-2.0, 2.0), 3) for _ in range(5)] for _ in range(2)]
        orientation = (Orientation.GAIN, Orientation.LOSS)[i % 2]
        yield make_coop(coeffs, orientation, c_size=65, initial_z=rng.randrange(65) / 64)


def outcome(solve) -> str:
    try:
        return repr(solve())
    except (EmptyPortion, SameHalfPlane) as exc:
        return f"{type(exc).__name__}: {exc}"


class TestLatticeSolutions:
    """Win-win and TU compromise read the TU data on the lattice, with the
    cloud path's answers."""

    # Utopia exactly on the TU line p1 + p2 = 6.741.
    ON_LINE = [[-0.191, 0.133, -0.088, 1.766, 0.797], [1.506, 1.769, -0.962, 0.238, 1.773]]

    def test_match_the_cloud_path(self, coop_game):
        games = [coop_game, make_coop(self.ON_LINE, Orientation.GAIN, 65, 57 / 64)]
        games += [g for seed in (1, 2) for g in sweep_style_games(seed, 30)]
        answered = 0
        for game in games:
            got = outcome(lambda: standard_win_win_solution(game, 65))
            assert got == outcome(lambda: cloud_standard_win_win(game, 65))
            answered += got.startswith("SolutionPoint")
            lo, hi = extrema(sample_image(game.payoff, 33))
            worst, best = (lo, hi) if game.orientation is Orientation.GAIN else (hi, lo)
            tub = lattice_tu(game.payoff, 33, game.orientation, 1e-6)[0]
            for a, b in ((worst, best), (best, worst), (best, best)):
                assert outcome(lambda: tu_crossing_solution(tub, a, b)) == outcome(
                    lambda: cloud_tu_compromise(game, a, b, 33)
                )
        assert answered >= 20

    def test_win_win_samples_no_cube(self, coop_game, monkeypatch):
        # Fails if win-win or the TU compromise falls back to the cube's cloud.
        # Every lattice is sampled by ``geometry._sample``, which
        # ``sample_image`` wraps and ``core_supremum`` calls on its section.
        arities = []
        sample = geometry._sample

        def recording(coeffs, grid_n, arity):
            arities.append(arity)
            return sample(coeffs, grid_n, arity)

        monkeypatch.setattr(geometry, "_sample", recording)
        monkeypatch.setattr(coopetitive, "_sample", recording)
        standard_win_win_solution(coop_game, 33)
        tub = lattice_tu(coop_game.payoff, 33, coop_game.orientation, 1e-6)[0]
        tu_crossing_solution(tub, PayoffPoint(0, 1), PayoffPoint(-5, -1))
        assert arities == [2]


class TestValidation:
    def test_c_grid_sorted_required(self):
        with pytest.raises(ValueError):
            CoopetitiveGame(
                PayoffMap(np.zeros((2, 5)), arity=3),
                Orientation.LOSS,
                np.array([0.5, 0.25]),
            )

    @pytest.mark.parametrize(
        "c_grid, message",
        [
            ([0.0, math.nan, 1.0], "strictly increasing"),
            ([0.0, 0.5, math.nan], "strictly increasing"),
            ([math.nan], r"lie in \[0, 1\]"),
        ],
        ids=["interior", "trailing", "alone"],
    )
    def test_c_grid_nan_refused(self, c_grid, message):
        with pytest.raises(ValueError, match=message):
            CoopetitiveGame(PayoffMap(np.zeros((2, 5)), arity=3), Orientation.GAIN, np.array(c_grid))

    def test_initial_z_must_be_on_grid(self):
        with pytest.raises(ValueError):
            CoopetitiveGame.with_uniform_grid(
                PayoffMap(np.zeros((2, 5)), arity=3),
                Orientation.LOSS,
                c_grid_size=5,
                initial_z=0.1,
            )

    def test_arity2_map_rejected(self):
        with pytest.raises(ValueError):
            CoopetitiveGame.with_uniform_grid(
                PayoffMap(np.zeros((2, 5)), arity=2), Orientation.LOSS, 5
            )

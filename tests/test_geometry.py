"""payoff-geometry: sampling, Pareto filtering, extrema, TU boundary, Hausdorff."""

import json
import tracemalloc
import warnings

import numpy as np
import pytest

from coopetition import geometry
from coopetition.demo import coopetitive_game_dict
from coopetition.gamefile import load_game_file
from coopetition.games import Orientation, PayoffPoint
from coopetition.geometry import (
    ParetoBoundary,
    PayoffMap,
    PointCloud,
    extrema,
    facing_flavor,
    hausdorff_distance,
    lattice_tu,
    pareto_filter,
    sample_image,
    tu_boundary,
)
from coopetition.report import GameContext

from oracles import (
    brute_hausdorff,
    brute_pareto_indices,
    drop_dominated,
    lattice_image,
    prefilter_sort_pareto,
    random_cloud,
    sort_pareto,
)


def make_cloud(payoffs, preimages=None, grid_step=0.5):
    payoffs = np.asarray(payoffs, dtype=float)
    if preimages is None:
        preimages = np.zeros((len(payoffs), 2))
        preimages[:, 0] = np.arange(len(payoffs))
    return PointCloud(payoffs, preimages, grid_step)


class TestPayoffMap:
    def test_section_folds_z(self):
        f = PayoffMap(np.array([[0, 0, 0, -1, -4], [0, 1, 1, -1, 0]], dtype=float), arity=3)
        sec = f.section(0.25)
        assert sec.arity == 2
        assert sec.eval(0.5, 0.5) == PayoffPoint(-1.25, 0.75)

    def test_arity2_rejects_z_coefficient(self):
        with pytest.raises(ValueError):
            PayoffMap(np.array([[0, 0, 0, 1.0, 0], [0, 0, 0, 0, 0]]), arity=2)

    def test_eval_matches_monomials(self):
        rng = np.random.default_rng(31)
        c = rng.normal(size=(2, 5))
        f = PayoffMap(c, arity=3)
        x, y, z = 0.3, 0.7, 0.2
        expect = c[:, 0] + c[:, 1] * x + c[:, 2] * y + c[:, 3] * z + c[:, 4] * x * y
        p = f.eval(x, y, z)
        assert np.allclose([p.p1, p.p2], expect, atol=1e-15)


class TestSampleImage:
    def test_f0_corners_at_grid2(self, f0):
        cloud = sample_image(f0, 2)
        assert len(cloud) == 4
        got = sorted(map(tuple, cloud.payoffs))
        assert got == [(-4.0, 2.0), (0.0, 0.0), (0.0, 1.0), (0.0, 1.0)]
        assert cloud.grid_step == 1.0

    def test_constant_map(self):
        f = PayoffMap(np.array([[2.0, 0, 0, 0, 0], [3.0, 0, 0, 0, 0]]), arity=2)
        cloud = sample_image(f, 5)
        assert (cloud.payoffs == [2.0, 3.0]).all()

    def test_coopetitive_corners(self, coop_game):
        cloud = sample_image(coop_game.payoff, 2)
        assert len(cloud) == 8
        assert (-5.0, 1.0) in set(map(tuple, cloud.payoffs))

    @pytest.mark.parametrize("arity", [2, 3])
    def test_matches_full_meshgrid(self, arity):
        rng = np.random.default_rng(66)
        for _ in range(4):
            c = np.round(rng.uniform(-2.0, 2.0, size=(2, 5)), 3)
            c[:, 0] = -0.0
            if arity == 2:
                c[:, 3] = 0.0
            f = PayoffMap(c, arity=arity)
            cloud = sample_image(f, 17)
            payoffs, preimages = lattice_image(f, 17)
            assert np.array_equal(cloud.payoffs, payoffs)
            assert np.array_equal(np.signbit(cloud.payoffs), np.signbit(payoffs))
            assert np.array_equal(cloud.preimages, preimages)

    def test_preimages_evaluate_back(self, f0):
        cloud = sample_image(f0, 17)
        p1, p2 = f0.eval_arrays(cloud.preimages[:, 0], cloud.preimages[:, 1])
        assert np.abs(np.stack([p1, p2], axis=1) - cloud.payoffs).max() <= 1e-12

    def test_grid_validation(self, f0):
        with pytest.raises(ValueError):
            sample_image(f0, 1)


class TestParetoFilter:
    def test_two_point_domination(self):
        cloud = make_cloud([[0.0, 0.0], [1.0, 1.0]])
        out = pareto_filter(cloud, Orientation.LOSS, "minimal")
        assert len(out) == 1
        assert tuple(out.payoffs[0]) == (0.0, 0.0)

    def test_f0_boundary_hugs_curve(self, f0_boundary_513):
        t = np.linspace(0, 1, 8193)
        curve = np.stack([-4 * t * t, 2 * t], axis=1)
        assert hausdorff_distance(f0_boundary_513, curve) <= 3.0 / 512

    def test_coopetitive_boundary_is_shifted_curve(self, coop_cloud_65):
        boundary = pareto_filter(coop_cloud_65, Orientation.LOSS, "minimal")
        t = np.linspace(0, 1, 4097)
        curve = np.stack([-4 * t * t - 1.0, 2 * t - 1.0], axis=1)
        assert hausdorff_distance(boundary, curve) <= 3.0 / 64
        # Every boundary point sits on the z = 1 slice.
        assert (boundary.preimages[:, 2] == 1.0).all()

    def test_agrees_with_quadratic_oracle(self):
        rng = np.random.default_rng(32)
        for _ in range(40):
            payoffs, preimages = random_cloud(rng, int(rng.integers(1, 60)))
            cloud = PointCloud(payoffs, preimages, 0.1)
            for flavor in ("minimal", "maximal"):
                got = pareto_filter(cloud, Orientation.LOSS, flavor)
                idx = brute_pareto_indices(payoffs, preimages, flavor)
                want = sorted(map(tuple, np.hstack([payoffs[idx], preimages[idx]])))
                have = sorted(map(tuple, np.hstack([got.payoffs, got.preimages])))
                assert have == want

    def test_idempotent(self):
        rng = np.random.default_rng(33)
        payoffs, preimages = random_cloud(rng, 200)
        cloud = PointCloud(payoffs, preimages, 0.1)
        once = pareto_filter(cloud, Orientation.GAIN, "maximal")
        twice = pareto_filter(once, Orientation.GAIN, "maximal")
        assert np.array_equal(once.payoffs, twice.payoffs)
        assert np.array_equal(once.preimages, twice.preimages)

    def test_duality_min_equals_negated_max(self):
        rng = np.random.default_rng(34)
        payoffs, preimages = random_cloud(rng, 300)
        minimal = pareto_filter(PointCloud(payoffs, preimages, 0.1), Orientation.LOSS, "minimal")
        maximal = pareto_filter(PointCloud(-payoffs, preimages, 0.1), Orientation.LOSS, "maximal")
        assert sorted(map(tuple, minimal.payoffs)) == sorted(map(tuple, -maximal.payoffs))

    def test_translation_equivariance(self):
        rng = np.random.default_rng(35)
        payoffs, preimages = random_cloud(rng, 250)
        v = np.array([1.5, -2.25])
        a = pareto_filter(PointCloud(payoffs, preimages, 0.1), Orientation.GAIN, "maximal")
        b = pareto_filter(PointCloud(payoffs + v, preimages, 0.1), Orientation.GAIN, "maximal")
        assert np.array_equal(a.payoffs + v, b.payoffs)
        assert np.array_equal(a.preimages, b.preimages)

    def test_members_come_from_cloud(self):
        rng = np.random.default_rng(36)
        payoffs, preimages = random_cloud(rng, 150)
        cloud = PointCloud(payoffs, preimages, 0.1)
        out = pareto_filter(cloud, Orientation.LOSS, "minimal")
        rows = set(map(tuple, np.hstack([payoffs, preimages])))
        for row in np.hstack([out.payoffs, out.preimages]):
            assert tuple(row) in rows

    def test_tie_collapse_keeps_lex_smallest_preimage(self):
        payoffs = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        preimages = np.array([[0.5, 0.9], [0.5, 0.2], [0.0, 0.0]])
        out = pareto_filter(PointCloud(payoffs, preimages, 1.0), Orientation.LOSS, "minimal")
        assert len(out) == 1
        assert tuple(out.preimages[0]) == (0.5, 0.2)


def dense_shaped_map(rng, arity, shape):
    """A map drawn like the dense-geometry benchmark's: three-decimal
    coefficients; duplicate-heavy maps depend on x + y only, with the two
    players' slopes along it opposed or aligned."""
    c = np.round(rng.uniform(-2.0, 2.0, size=(2, 5)), 3)
    if shape != "generic":
        if (c[0, 1] > 0) == (c[1, 1] > 0) != (shape == "aligned"):
            c[1, 1] = -c[1, 1]
        c[:, 2] = c[:, 1]
        c[:, 4] = 0.0
    if arity == 2:
        c[:, 3] = 0.0
    return PayoffMap(c, arity=arity)


def assert_matches_sort(cloud, orientation=Orientation.GAIN):
    """Both boundaries are the sort-everything filter's, bit for bit."""
    for flavor in ("maximal", "minimal"):
        got = pareto_filter(cloud, orientation, flavor)
        payoffs, preimages = sort_pareto(cloud.payoffs, cloud.preimages, flavor)
        assert np.array_equal(got.payoffs, payoffs)
        assert np.array_equal(np.signbit(got.payoffs), np.signbit(payoffs))
        assert np.array_equal(got.preimages, preimages)


class TestParetoPrefilter:
    @pytest.mark.parametrize("arity, grid_n", [(2, 129), (3, 33)])
    @pytest.mark.parametrize("seed, shape", [(0, "generic"), (1, "opposed"), (2, "aligned")])
    def test_dense_maps_match_sort(self, arity, grid_n, seed, shape):
        rng = np.random.default_rng([60, arity, seed])
        for _ in range(3):
            cloud = sample_image(dense_shaped_map(rng, arity, shape), grid_n)
            for orientation, sign in ((Orientation.GAIN, 1.0), (Orientation.LOSS, -1.0)):
                assert_matches_sort(
                    PointCloud(sign * cloud.payoffs, cloud.preimages, cloud.grid_step), orientation
                )

    def test_half_integer_and_shuffled_clouds(self):
        rng = np.random.default_rng(61)
        for _ in range(60):
            n = int(rng.integers(16, 3000))
            payoffs = rng.integers(-20, 21, size=(n, 2)) / 2.0
            preimages = rng.integers(0, 5, size=(n, 3)) / 4.0
            assert_matches_sort(PointCloud(payoffs, preimages, 0.25))
            perm = rng.permutation(n)
            assert_matches_sort(PointCloud(payoffs[perm], preimages[perm], 0.25))

    def test_signed_zeros_and_constant_p1(self):
        rng = np.random.default_rng(62)
        for _ in range(20):
            n = int(rng.integers(32, 800))
            payoffs = rng.choice([-0.0, 0.0, -1.0, 1.0], size=(n, 2))
            preimages = rng.integers(0, 3, size=(n, 2)) / 2.0
            assert_matches_sort(PointCloud(payoffs, preimages, 0.5))
            constant_p1 = np.column_stack([np.full(n, rng.choice([-0.0, 0.0])), payoffs[:, 1]])
            assert_matches_sort(PointCloud(constant_p1, preimages, 0.5))

    @pytest.mark.parametrize(
        "values", [[-1e308, 0.0, 1e308], [1.7e308, 1.79e308], [0.0, 5e-324, 1e-323], [-5e-324, 1e-300]]
    )
    def test_extreme_spans_raise_no_warning(self, values):
        rng = np.random.default_rng(63)
        payoffs = rng.choice(values, size=(500, 2))
        preimages = rng.integers(0, 4, size=(500, 2)) / 3.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_matches_sort(PointCloud(payoffs, preimages, 0.5))

    def test_refiltering_a_boundary(self):
        rng = np.random.default_rng(64)
        cloud = sample_image(dense_shaped_map(rng, 2, "opposed"), 129)
        for flavor in ("maximal", "minimal"):
            boundary = pareto_filter(cloud, Orientation.GAIN, flavor)
            assert len(boundary) >= 32
            assert_matches_sort(boundary)

    def test_prefilter_prunes_generic_3d_cloud(self, monkeypatch):
        # Fails when the prefilter switches itself off and every row is sorted.
        cloud = sample_image(dense_shaped_map(np.random.default_rng(65), 3, "generic"), 33)
        sizes = []
        sweep = geometry._pareto_sweep

        def recording(payoffs, preimages, rows, sign):
            sizes.append(len(rows))
            return sweep(payoffs, preimages, rows, sign)

        monkeypatch.setattr(geometry, "_pareto_sweep", recording)
        for flavor in ("maximal", "minimal"):
            pareto_filter(cloud, Orientation.GAIN, flavor)
        assert len(sizes) == 2
        assert max(sizes) < 0.05 * len(cloud)


def assert_matches_lexsort_path(payoffs, preimages):
    """Both boundaries are those of the full-key lexsort after the prefilter,
    byte for byte."""
    cloud = PointCloud(payoffs, preimages, 0.5)
    for flavor in ("maximal", "minimal"):
        got = pareto_filter(cloud, Orientation.GAIN, flavor)
        payoffs, preimages = prefilter_sort_pareto(cloud.payoffs, cloud.preimages, flavor)
        assert got.payoffs.tobytes() == payoffs.tobytes()
        assert got.preimages.tobytes() == preimages.tobytes()
        assert np.array_equal(np.signbit(got.payoffs), np.signbit(payoffs))
        assert np.array_equal(np.signbit(got.preimages), np.signbit(preimages))


class TestParetoSweep:
    """The one-key sweep against the full-key lexsort it replaced."""

    @pytest.mark.parametrize("arity, grid_n", [(2, 65), (3, 17)])
    @pytest.mark.parametrize("shape", ["generic", "opposed", "aligned"])
    def test_shuffled_lattice_clouds(self, arity, grid_n, shape):
        rng = np.random.default_rng([70, arity, len(shape)])
        for _ in range(4):
            cloud = sample_image(dense_shaped_map(rng, arity, shape), grid_n)
            assert_matches_lexsort_path(cloud.payoffs, cloud.preimages)
            perm = rng.permutation(len(cloud))
            assert_matches_lexsort_path(cloud.payoffs[perm], cloud.preimages[perm])

    @pytest.mark.parametrize("arity", [2, 3])
    def test_duplicated_whole_rows(self, arity):
        rng = np.random.default_rng([71, arity])
        for _ in range(10):
            cloud = sample_image(dense_shaped_map(rng, arity, "opposed"), 9)
            copies = rng.integers(0, len(cloud), size=3 * len(cloud))
            rows = rng.permutation(np.concatenate([np.arange(len(cloud)), copies]))
            assert_matches_lexsort_path(cloud.payoffs[rows], cloud.preimages[rows])

    @pytest.mark.parametrize("arity", [2, 3])
    def test_tie_heavy_integer_clouds(self, arity):
        rng = np.random.default_rng([72, arity])
        for _ in range(40):
            n = int(rng.integers(1, 2000))
            payoffs = rng.integers(-3, 4, size=(n, 2)).astype(float)
            preimages = rng.integers(0, 3, size=(n, arity)) / 2.0
            assert_matches_lexsort_path(payoffs, preimages)

    @pytest.mark.parametrize("arity", [2, 3])
    def test_signed_zero_payoffs_and_preimages(self, arity):
        # Copies that differ only in sign bits show which row was kept.
        rng = np.random.default_rng([73, arity])
        for _ in range(40):
            n = int(rng.integers(1, 1500))
            payoffs = rng.choice([-0.0, 0.0, 1.0, -1.0], size=(n, 2))
            preimages = rng.choice([-0.0, 0.0, 0.5], size=(n, arity))
            assert_matches_lexsort_path(payoffs, preimages)
            # A front of many runs, each with copies of its point.
            p1 = rng.integers(-3, 4, size=n).astype(float)
            front = np.column_stack([p1, rng.integers(0, 2, size=n) - p1])
            front[front == 0.0] = rng.choice([-0.0, 0.0], size=int((front == 0.0).sum()))
            assert_matches_lexsort_path(front, preimages)

    def test_nan_preimages_rank_last(self):
        rng = np.random.default_rng(74)
        for _ in range(20):
            n = int(rng.integers(1, 600))
            payoffs = rng.integers(-2, 3, size=(n, 2)).astype(float)
            preimages = rng.choice([np.nan, 0.0, 1.0], size=(n, 3))
            assert_matches_lexsort_path(payoffs, preimages)


    @pytest.mark.parametrize("arity, grid_n", [(2, 129), (3, 17)])
    @pytest.mark.parametrize("shape", ["opposed", "aligned"])
    def test_lattice_copies_ranked_without_preimages(self, monkeypatch, arity, grid_n, shape):
        # Row order is preimage order in a lattice cloud: its copies are ranked
        # by row index, and only the boundary's own preimages are read.
        reads = []
        built = geometry._LatticeCloud.preimages_at

        def recording(self, rows):
            reads.append(len(rows))
            return built(self, rows)

        monkeypatch.setattr(geometry._LatticeCloud, "preimages_at", recording)
        rng = np.random.default_rng([75, arity, len(shape)])
        copies = 0
        for _ in range(4):
            cloud = sample_image(dense_shaped_map(rng, arity, shape), grid_n)
            plain = PointCloud(cloud.payoffs, cloud.preimages, cloud.grid_step)
            for flavor in ("maximal", "minimal"):
                reads.clear()
                got = pareto_filter(cloud, Orientation.GAIN, flavor)
                assert reads == [len(got)]
                want = pareto_filter(plain, Orientation.GAIN, flavor)
                assert got.payoffs.tobytes() == want.payoffs.tobytes()
                assert got.preimages.tobytes() == want.preimages.tobytes()
                on_boundary = (cloud.payoffs[:, None, :] == got.payoffs[None, :, :]).all(axis=2)
                copies += on_boundary.sum() - len(got)
        # Boundary payoff pairs had copies in the cloud to rank.
        assert copies > 0

    @pytest.mark.parametrize("arity", [2, 3])
    def test_small_clouds_skip_the_prefilter(self, monkeypatch, arity):
        calls = []
        prefilter = geometry._prefilter

        def recording(payoffs, sign):
            calls.append(len(payoffs))
            return prefilter(payoffs, sign)

        monkeypatch.setattr(geometry, "_prefilter", recording)
        rng = np.random.default_rng([76, arity])
        cut = geometry._PREFILTER_MIN_ROWS
        for n in (1, 17, cut - 1, cut, cut + 1):
            calls.clear()
            payoffs = rng.integers(-40, 41, size=(n, 2)) / 4.0
            preimages = rng.integers(0, 5, size=(n, arity)) / 4.0
            assert_matches_lexsort_path(payoffs, preimages)
            assert calls == ([] if n < cut else [n, n])


def assert_prefilter_matches_frame(payoffs):
    """The column prefilter keeps the frame prefilter's rows, index for index,
    in both flavours and on row- and column-major input."""
    payoffs = np.asarray(payoffs, dtype=float)
    for sign in (1.0, -1.0):
        want = drop_dominated(np.ascontiguousarray(payoffs), sign)
        for layout in (np.ascontiguousarray, np.asfortranarray):
            assert np.array_equal(geometry._prefilter(layout(payoffs), sign)[0], want)


class TestColumnPrefilter:
    """``_prefilter``'s survivors on raw payoff columns against the frame it folds in."""

    @pytest.mark.parametrize("arity, grid_n", [(2, 65), (3, 17)])
    @pytest.mark.parametrize("shape", ["generic", "opposed", "aligned"])
    def test_dense_shapes(self, arity, grid_n, shape):
        rng = np.random.default_rng([80, arity, len(shape)])
        for _ in range(4):
            cloud = sample_image(dense_shaped_map(rng, arity, shape), grid_n)
            assert_prefilter_matches_frame(cloud.payoffs)
            assert_prefilter_matches_frame(-cloud.payoffs)

    @pytest.mark.parametrize(
        "p1_values",
        [[0.0], [-0.0, 0.0], [2.5], [-1e308, 1e308], [-1e308, 0.0, 1e308], [-8e307, 8e307], [0.0, 5e-324]],
    )
    def test_constant_and_extreme_p1_spans(self, p1_values):
        rng = np.random.default_rng(81)
        p1 = rng.choice(p1_values, size=3000)
        p2 = rng.integers(-50, 51, size=3000) / 8.0
        assert_prefilter_matches_frame(np.column_stack([p1, p2]))

    @pytest.mark.parametrize("n", [1, 2, 15, 16, 31, 32, 33])
    def test_small_clouds(self, n):
        rng = np.random.default_rng([82, n])
        for _ in range(20):
            assert_prefilter_matches_frame(rng.integers(-4, 5, size=(n, 2)) / 2.0)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_clouds_around_one_block(self, offset):
        n = geometry._BLOCK + offset
        rng = np.random.default_rng([83, offset + 1])
        assert_prefilter_matches_frame(rng.integers(-300, 301, size=(n, 2)) / 4.0)
        # A tight front in the last block, behind a mass of dominated rows.
        t = rng.random(n)
        front = np.column_stack([t, np.where(np.arange(n) >= n - 40, -t, 1.0 + rng.random(n))])
        assert_prefilter_matches_frame(front)

    def test_signed_zero_payoffs(self):
        rng = np.random.default_rng(84)
        for _ in range(30):
            n = int(rng.integers(32, 3000))
            assert_prefilter_matches_frame(rng.choice([-0.0, 0.0, -1.0, 1.0, 0.5], size=(n, 2)))
            assert_prefilter_matches_frame(rng.choice([-0.0, 0.0], size=(n, 2)))


class TestColumnMajorLayout:
    """Clouds and boundaries are stored column-major and read-only, with the
    bytes of the row-major arrays."""

    @staticmethod
    def assert_column_major(point_set):
        for a in (point_set.payoffs, point_set.preimages):
            assert a.flags.f_contiguous and not a.flags.writeable
            assert a.dtype == np.float64

    @pytest.mark.parametrize("arity", [2, 3])
    @pytest.mark.parametrize("grid_n", [2, 17, 65])
    def test_sample_image(self, arity, grid_n):
        payoff_map = dense_shaped_map(np.random.default_rng([85, arity, grid_n]), arity, "generic")
        cloud = sample_image(payoff_map, grid_n)
        self.assert_column_major(cloud)
        payoffs, preimages = lattice_image(payoff_map, grid_n)
        assert cloud.payoffs.tobytes() == payoffs.tobytes()
        assert cloud.preimages.tobytes() == preimages.tobytes()
        for flavor in ("maximal", "minimal"):
            self.assert_column_major(pareto_filter(cloud, Orientation.GAIN, flavor))

    def test_nash_zone(self, coop_game):
        from coopetition import coopetitive

        zone = coopetitive.nash_zone(coop_game, 17)
        self.assert_column_major(zone)
        gx, gy = coopetitive._nash_lattice(coop_game, 17)
        rows = coopetitive._section_payoffs(coop_game, gx, gy).reshape(-1, 2)
        assert zone.payoffs.tobytes() == rows.tobytes()
        self.assert_column_major(pareto_filter(zone, coop_game.orientation, "minimal"))

    def test_cloud_from_row_major_arrays(self):
        payoffs, preimages = random_cloud(np.random.default_rng(86), 50, arity=3)
        cloud = PointCloud(payoffs, preimages, 0.1)
        self.assert_column_major(cloud)
        assert cloud.payoffs.tobytes() == payoffs.tobytes()
        assert cloud.preimages.tobytes() == preimages.tobytes()
        # Column-major input is taken without a copy.
        columns = np.asfortranarray(payoffs)
        assert PointCloud(columns, preimages, 0.1).payoffs.base is columns

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_caller_arrays_stay_writeable(self, order):
        payoffs = np.zeros((4, 2), order=order)
        preimages = np.zeros((4, 3), order=order)
        cloud = PointCloud(payoffs, preimages, 0.5)
        self.assert_column_major(cloud)
        payoffs[0, 0] = 1.0
        preimages[0, 0] = 1.0
        # A column-major input is shared, so the cloud sees the write; a
        # row-major one was copied, so it does not.
        assert cloud.payoffs[0, 0] == cloud.preimages[0, 0] == (1.0 if order == "F" else 0.0)


class TestMemoryBound:
    """Whole-cloud passes keep no full-length temporary beyond their outputs.

    tracemalloc sees numpy's data buffers, so its peak above the traced
    memory at the call bounds what a pass holds at once.
    """

    SLACK = 2 << 20

    @staticmethod
    def traced_peak(call):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = call()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        return result, peak

    @pytest.mark.parametrize("arity", [2, 3])
    def test_sample_image(self, arity):
        payoff_map = dense_shaped_map(np.random.default_rng([87, arity]), arity, "generic")
        cloud, peak = self.traced_peak(lambda: sample_image(payoff_map, 129))
        assert peak <= cloud.payoffs.nbytes + cloud.preimages.nbytes + self.SLACK

    @pytest.mark.parametrize("arity", [2, 3])
    def test_sample_image_stores_only_payoffs(self, arity):
        payoff_map = dense_shaped_map(np.random.default_rng([87, arity]), arity, "generic")
        cloud, peak = self.traced_peak(lambda: sample_image(payoff_map, 129))
        assert peak <= cloud.payoffs.nbytes + self.SLACK

    @pytest.mark.parametrize("orientation", list(Orientation))
    def test_lattice_tu_on_a_square_holds_only_its_payoffs(self, orientation):
        # A square has no z faces to save work on, so its one full-size
        # array is the cloud's payoffs.
        payoff_map = dense_shaped_map(np.random.default_rng([87, 2]), 2, "generic")
        _, peak = self.traced_peak(lambda: lattice_tu(payoff_map, 1025, orientation))
        assert peak <= 16 * 1025**2 + self.SLACK

    @pytest.mark.parametrize("seed", [91, 95])
    @pytest.mark.parametrize("flavor", ["maximal", "minimal"])
    def test_pareto_filter_on_a_duplicate_heavy_cloud(self, seed, flavor):
        # Maps whose rows share their payoff pairs in long runs, and whose
        # prefilter keeps more than half of the rows.
        cloud = sample_image(dense_shaped_map(np.random.default_rng(seed), 2, "opposed"), 1025)
        _, peak = self.traced_peak(lambda: pareto_filter(cloud, Orientation.GAIN, flavor))
        assert peak <= 16 * len(cloud) + self.SLACK

    @pytest.mark.parametrize("flavor", ["maximal", "minimal"])
    def test_pareto_filter_on_a_generic_cloud(self, flavor):
        # A map whose prefilter leaves one or two rows, as most generic maps do.
        cloud = sample_image(dense_shaped_map(np.random.default_rng(92), 2, "generic"), 1025)
        boundary, peak = self.traced_peak(lambda: pareto_filter(cloud, Orientation.GAIN, flavor))
        assert len(boundary) <= 2
        # The int16 bucket and bool keep arrays are the only full-length ones.
        assert peak <= 3 * len(cloud) + self.SLACK

    @pytest.mark.parametrize("flavor", ["maximal", "minimal"])
    def test_pareto_filter_on_a_generic_cube(self, flavor):
        # Most blocks drop, so only the rows of the rest are gathered and
        # bucketed: 0.56 and 2.74 MiB measured, where the passes over the
        # whole cloud hold 7.2 MiB, 3 bytes a row.
        cloud = sample_image(dense_shaped_map(np.random.default_rng([87, 3]), 3, "generic"), 129)
        _, peak = self.traced_peak(lambda: pareto_filter(cloud, Orientation.GAIN, flavor))
        assert peak <= len(cloud) + self.SLACK

    @pytest.mark.parametrize("orientation", list(Orientation))
    def test_tu_boundary_on_a_generic_cube(self, orientation):
        # 0.25 MiB measured; the pass over the whole cloud holds 1.5 MiB.
        cloud = sample_image(dense_shaped_map(np.random.default_rng([87, 3]), 3, "generic"), 129)
        _, peak = self.traced_peak(lambda: tu_boundary(cloud, orientation))
        assert peak <= self.SLACK // 2

    #: The benchmark's ``dense_maps(6)[131]``: a duplicate-heavy cube with
    #: opposed slopes, whose boundaries hold 43.5k and 44.5k rows.  No block
    #: drops, so the passes read the whole cloud.
    OPPOSED_CUBE = [[0.634, -0.651, -0.651, 0.163, 0.0], [-0.174, 1.352, 1.352, -0.339, 0.0]]

    @pytest.mark.parametrize("flavor", ["maximal", "minimal"])
    def test_pareto_filter_on_an_opposed_cube(self, flavor):
        cloud = sample_image(PayoffMap(self.OPPOSED_CUBE, 3), 129)
        # Pinned at the peak of the passes over the whole cloud, 84.31 and
        # 84.33 MB traced (2.455 times the payoffs) before the block bounds
        # existed, so that the bounds never add to it.
        _, peak = self.traced_peak(lambda: pareto_filter(cloud, Orientation.GAIN, flavor))
        assert peak <= 2.46 * cloud.payoffs.nbytes

    def test_hausdorff_distance(self):
        # Scattered sets give every point a wide p1 band, so the pairwise
        # tables, at most 64 x 1024 floats each, are all that can grow.
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(5000, 2)), rng.normal(size=(5000, 2))
        _, peak = self.traced_peak(lambda: hausdorff_distance(a, b))
        assert peak <= 4 * (a.nbytes + b.nbytes) + self.SLACK


def corner_survivors(payoffs, sign):
    return geometry._drop_corner_dominated(payoffs, *geometry._prefilter(payoffs, sign), sign)


def strictly_dominated(frame):
    """``[i, j]``: row j of the minimal frame strictly dominates row i."""
    le = (frame[None, :, :] <= frame[:, None, :]).all(axis=2)
    lt = (frame[None, :, :] < frame[:, None, :]).any(axis=2)
    return le & lt


class TestCornerStep:
    """The corner step drops only rows that a kept row strictly dominates."""

    @staticmethod
    def assert_keeps_every_nondominated_row(payoffs):
        payoffs = np.asfortranarray(payoffs, dtype=float)
        for sign in (1.0, -1.0):
            before = geometry._prefilter(payoffs, sign)[0]
            after = corner_survivors(payoffs, sign)
            assert np.array_equal(after, np.unique(after))
            assert np.isin(after, before).all()
            dominated = strictly_dominated(sign * payoffs)
            # Every boundary row and every copy of a boundary pair is kept.
            assert np.isin(np.flatnonzero(~dominated.any(axis=1)), after).all()
            # Every dropped row is strictly dominated by a kept row.
            dropped = np.setdiff1d(np.arange(len(payoffs)), after)
            assert dominated[np.ix_(dropped, after)].any(axis=1).all()

    def test_tie_heavy_signed_zero_clouds(self):
        rng = np.random.default_rng(75)
        for _ in range(30):
            n = int(rng.integers(32, 1200))
            self.assert_keeps_every_nondominated_row(rng.choice([-0.0, 0.0, -1.0, 1.0, 0.5], size=(n, 2)))
            self.assert_keeps_every_nondominated_row(rng.choice([-0.0, 0.0], size=(n, 2)))
            p1 = rng.integers(-3, 4, size=n).astype(float)
            front = np.column_stack([p1, rng.integers(0, 2, size=n) - p1])
            front[front == 0.0] = rng.choice([-0.0, 0.0], size=int((front == 0.0).sum()))
            self.assert_keeps_every_nondominated_row(front)

    @pytest.mark.parametrize("arity, grid_n", [(2, 33), (3, 9)])
    @pytest.mark.parametrize("shape", ["generic", "opposed", "aligned"])
    def test_lattice_clouds(self, arity, grid_n, shape):
        rng = np.random.default_rng([76, arity, len(shape)])
        for _ in range(3):
            cloud = sample_image(dense_shaped_map(rng, arity, shape), grid_n)
            self.assert_keeps_every_nondominated_row(cloud.payoffs)
            self.assert_keeps_every_nondominated_row(-cloud.payoffs)

    def test_prunes_a_duplicate_heavy_cloud(self):
        cloud = sample_image(dense_shaped_map(np.random.default_rng(77), 2, "opposed"), 257)
        for sign in (1.0, -1.0):
            before = geometry._prefilter(cloud.payoffs, sign)[0]
            assert len(corner_survivors(cloud.payoffs, sign)) < 0.5 * len(before)


class TestLatticePreimages:
    """A lattice cloud derives its preimages from the row index."""

    @pytest.mark.parametrize("arity", [2, 3])
    @pytest.mark.parametrize("grid_n", [2, 17, 129])
    def test_preimages_at_matches_built_array(self, arity, grid_n):
        rng = np.random.default_rng([88, arity, grid_n])
        cloud = sample_image(dense_shaped_map(rng, arity, "generic"), grid_n)
        n = len(cloud)
        # Every row of the small lattices, a sample of the large one, and
        # enough rows for two blocks, in random order and with repeats.
        rows = np.concatenate([
            rng.choice(n, size=min(n, 3 * geometry._BLOCK), replace=False),
            rng.integers(0, n, size=geometry._BLOCK + 1),
            [0, n - 1],
        ])
        got = cloud.preimages_at(rows)
        assert "preimages" not in vars(cloud)
        assert got.tobytes() == cloud.preimages[rows].tobytes()
        assert cloud.preimages_at(rows[:0]).shape == (0, arity)

    @pytest.mark.parametrize("arity", [2, 3])
    def test_solvers_never_build_preimages(self, arity):
        cloud = sample_image(dense_shaped_map(np.random.default_rng([89, arity]), arity, "opposed"), 17)
        assert len(cloud) == 17**arity and cloud.arity == arity
        extrema(cloud)
        for flavor in ("maximal", "minimal"):
            pareto_filter(cloud, Orientation.GAIN, flavor)
        for orientation in Orientation:
            tu_boundary(cloud, orientation)
        assert "preimages" not in vars(cloud)
        # The check above sees a build.
        cloud.preimages
        assert "preimages" in vars(cloud)

    def test_ks_on_the_demo_file_never_builds_preimages(self, tmp_path):
        path = tmp_path / "paper-coopetitive.json"
        path.write_text(json.dumps(coopetitive_game_dict()))
        ctx = GameContext(load_game_file(path), 33)
        ctx.solve("ks")
        assert "preimages" not in vars(ctx.cloud)


class TestExtrema:
    def test_f0_extrema(self, f0_cloud_513):
        lo, hi = extrema(f0_cloud_513)
        assert lo == PayoffPoint(-4, 0)
        assert hi == PayoffPoint(0, 2)

    def test_coopetitive_extrema(self, coop_cloud_65):
        lo, hi = extrema(coop_cloud_65)
        assert lo == PayoffPoint(-5, -1)
        assert hi == PayoffPoint(0, 2)

    def test_singleton(self):
        cloud = make_cloud([[2.0, 3.0]])
        lo, hi = extrema(cloud)
        assert lo == hi == PayoffPoint(2, 3)

    def test_column_reductions_match_axis_reduction(self):
        # The reference is the (n, 2) reduction along axis 0, zero signs included.
        rng = np.random.default_rng(38)
        for i in range(400):
            n = int(rng.integers(1, 300))
            values = [-0.0, 0.0] if i % 2 else [-0.0, 0.0, -1.0, 1.0]
            cloud = make_cloud(rng.choice(values, size=(n, 2)))
            lo, hi = extrema(cloud)
            for got, want in ((lo, cloud.payoffs.min(axis=0)), (hi, cloud.payoffs.max(axis=0))):
                got = np.array(got.as_tuple())
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))


class TestTUBoundary:
    def test_f0_loss_optimum(self, f0_cloud_513):
        tub = tu_boundary(f0_cloud_513, Orientation.LOSS, 1e-9)
        assert abs(tub.optimal_sum - (-2.0)) <= 1e-12
        assert tuple(tub.witness_preimages[0]) == (1.0, 1.0)
        assert tub.segment_ends[0] == PayoffPoint(-4, 2)

    def test_coopetitive_optimum(self, coop_cloud_65):
        tub = tu_boundary(coop_cloud_65, Orientation.LOSS, 1e-9)
        assert abs(tub.optimal_sum - (-4.0)) <= 1e-12
        assert tuple(tub.witness_preimages[0]) == (1.0, 1.0, 1.0)

    def test_gain_table_mixed_extension(self, gain_table):
        from coopetition.mixed import bilinear_map

        cloud = sample_image(bilinear_map(gain_table), 129)
        tub = tu_boundary(cloud, Orientation.GAIN, 1e-9)
        assert abs(tub.optimal_sum - 6.0) <= 1e-12
        assert tuple(tub.witness_preimages[0]) == (1.0, 1.0)

    def test_permutation_invariant_and_monotone(self):
        rng = np.random.default_rng(37)
        payoffs, preimages = random_cloud(rng, 100)
        cloud = PointCloud(payoffs, preimages, 0.1)
        base = tu_boundary(cloud, Orientation.GAIN, 1e-9).optimal_sum
        perm = rng.permutation(100)
        shuffled = PointCloud(payoffs[perm], preimages[perm], 0.1)
        assert tu_boundary(shuffled, Orientation.GAIN, 1e-9).optimal_sum == base
        # Adding a dominated (worse-sum) point never changes the optimum.
        worse = np.vstack([payoffs, [payoffs.sum(axis=1).min() - 5.0, 0.0]])
        pre = np.vstack([preimages, [0.0, 0.0]])
        grown = PointCloud(worse, pre, 0.1)
        assert tu_boundary(grown, Orientation.GAIN, 1e-9).optimal_sum == base

    def test_negative_zero_optimum_reads_zero(self):
        for orientation in Orientation:
            s = 1.0 if orientation is Orientation.GAIN else -1.0
            cloud = make_cloud([[-0.0, -0.0], [-s, 0.5 * s], [0.5 * s, -s]])
            opt = tu_boundary(cloud, orientation, 1e-9).optimal_sum
            assert opt == 0.0 and not np.signbit(opt)

    def test_witnesses_within_tolerance(self):
        cloud = make_cloud([[0.0, 0.0], [0.5, -0.5 + 1e-10], [1.0, -2.0]])
        tub = tu_boundary(cloud, Orientation.GAIN, 1e-9)
        assert len(tub.witness_payoffs) == len(tub.witness_preimages) == 2
        for p1, p2 in tub.witness_payoffs.tolist():
            assert abs(p1 + p2 - tub.optimal_sum) <= 1e-9


def assert_lattice_matches_cloud(payoff_map, grid_n, orientation, tol=1e-9, cloud=None):
    """``lattice_tu`` is ``tu_boundary`` and ``extrema`` of the cloud, bit for bit."""
    if cloud is None:
        cloud = sample_image(payoff_map, grid_n)
    want = tu_boundary(cloud, orientation, tol)
    got, lo, hi = lattice_tu(payoff_map, grid_n, orientation, tol)
    assert repr(got.optimal_sum) == repr(want.optimal_sum)
    for a, b in ((got.witness_payoffs, want.witness_payoffs), (got.witness_preimages, want.witness_preimages)):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()
    pairs = [
        ([p.as_tuple() for p in got.segment_ends], [p.as_tuple() for p in want.segment_ends]),
        ([lo.as_tuple(), hi.as_tuple()], [p.as_tuple() for p in extrema(cloud)]),
    ]
    for a, b in pairs:
        assert np.array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))
    assert got.tolerance == want.tolerance
    assert got.orientation is want.orientation is orientation
    return got


def family_map(family, rng, arity):
    """A random map of one of the families the z-face argument must cover."""
    c = np.round(rng.uniform(-2.0, 2.0, size=(2, 5)), 3)
    if family == "linear":
        c[:, 4] = 0.0
    elif family == "z-xy-only":
        c[:, :3] = 0.0
    elif family == "scaled":
        c *= 1e6
    elif family == "constant-sum":
        c[1] = -c[0]
        c[1, 0] = 0.5
    elif family == "negative-zero":
        # No positive coefficient and a -0.0 constant: zero payoffs are -0.0.
        c = -np.abs(c)
        c[:, 0] = -0.0
        c[rng.random((2, 5)) < 0.3] = -0.0
    elif family == "opposite-z":
        c[0, 3], c[1, 3] = abs(c[0, 3]) + 0.5, -abs(c[1, 3]) - 0.5
    if arity == 2:
        c[:, 3] = 0.0
    return PayoffMap(c, arity)


FAMILIES = ["generic", "linear", "z-xy-only", "scaled", "constant-sum", "negative-zero", "opposite-z"]


class TestLatticeTU:
    @pytest.mark.parametrize("arity, grid_n", [(2, 2), (2, 17), (2, 65), (3, 2), (3, 17), (3, 65)])
    def test_random_three_decimal_maps(self, arity, grid_n):
        rng = np.random.default_rng([66, arity, grid_n])
        for _ in range(3):
            c = np.round(rng.uniform(-2.0, 2.0, size=(2, 5)), 3)
            if arity == 2:
                c[:, 3] = 0.0
            for orientation in Orientation:
                assert_lattice_matches_cloud(PayoffMap(c, arity), grid_n, orientation, 1e-6)

    @pytest.mark.parametrize("arity", [2, 3])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_map_families_grids_and_tolerances(self, family, arity):
        rng = np.random.default_rng([69, FAMILIES.index(family), arity])
        for _ in range(2):
            payoff_map = family_map(family, rng, arity)
            for grid_n in (2, 17, 65):
                cloud = sample_image(payoff_map, grid_n)
                for orientation in Orientation:
                    for tol in (1e-9, 1e-6, 0.05):
                        tub = assert_lattice_matches_cloud(payoff_map, grid_n, orientation, tol, cloud)
                        if family == "constant-sum":
                            assert len(tub.witness_payoffs) == grid_n**arity

    def test_optimum_inside_a_column_is_found(self):
        # A constant sum is computed with rounding errors that can put the
        # optimum strictly between a column's faces.  With the least
        # positive tolerance only that optimum's own rows are witnesses, so
        # the face test finds them only through its rounding slack.
        rng = np.random.default_rng(72)
        inside = 0
        for _ in range(20):
            payoff_map = family_map("constant-sum", rng, 3)
            cloud = sample_image(payoff_map, 17)
            sums = cloud.payoffs.sum(axis=1).reshape(17, 17, 17)
            for orientation in Orientation:
                s = orientation.sign
                faces = np.maximum(s * sums[:, :, 0], s * sums[:, :, -1])
                inside += (s * sums).max() > faces.max()
                assert_lattice_matches_cloud(payoff_map, 17, orientation, 5e-324, cloud)
        assert inside > 0

    def test_computed_columns_are_monotone_in_z(self):
        # The z-face lemma: along each (x, y) column a computed component
        # never turns.  Coefficients of mixed magnitudes make the rounding
        # of the z term visible, so a computation in which z enters twice
        # turns somewhere.
        rng = np.random.default_rng(70)
        t = np.linspace(0.0, 1.0, 65)
        axes = np.meshgrid(t, t, t, indexing="ij", sparse=True)
        for _ in range(40):
            c = rng.uniform(-1.0, 1.0, size=(2, 5)) * 10.0 ** rng.integers(-18, 4, size=(2, 5))
            for p in PayoffMap(c, 3).eval_arrays(*axes):
                steps = np.diff(p, axis=2)
                assert ((steps >= 0).all(axis=2) | (steps <= 0).all(axis=2)).all()

    def test_evaluates_two_faces_and_few_columns(self, monkeypatch, coop_game):
        evaluated = []
        eval_arrays = PayoffMap.eval_arrays

        def counting(self, *args):
            out = eval_arrays(self, *args)
            evaluated.append(out[0].size)
            return out

        monkeypatch.setattr(PayoffMap, "eval_arrays", counting)
        rng = np.random.default_rng(71)
        maps = [coop_game.payoff] + [family_map("generic", rng, 3) for _ in range(10)]
        for payoff_map in maps:
            for orientation in Orientation:
                evaluated.clear()
                lattice_tu(payoff_map, 65, orientation, 1e-6)
                assert sum(evaluated) <= 2 * 65**2 + 65 * 4
        # The worst case: every column holds a witness.
        evaluated.clear()
        lattice_tu(family_map("constant-sum", rng, 3), 65, Orientation.GAIN, 1e-6)
        assert sum(evaluated) == 2 * 65**2 + 65**3

    @pytest.mark.parametrize("grid_n", [2, 17, 65])
    def test_degenerate_maps_fill_edges_and_faces(self, grid_n):
        # With the sum's x, y, z or xy coefficient zero the optimum is
        # attained along an edge or over a face, so witnesses are many.
        rng = np.random.default_rng([67, grid_n])
        sizes = []
        flats = ((1,), (2,), (3,), (4,), (1, 4), (2, 4), (1, 2, 4), (3, 4), (1, 2, 3, 4))
        for i, flat in enumerate(flats * 2):
            c = np.round(rng.uniform(-2.0, 2.0, size=(2, 5)), 3)
            c[:, 0] = (-0.0, 0.0, 0.5)[i % 3]
            for k in flat:
                if rng.integers(2):
                    c[1, k] = -c[0, k]
                else:
                    c[:, k] = rng.choice([-0.0, 0.0], size=2)
            for orientation in Orientation:
                tub = assert_lattice_matches_cloud(PayoffMap(c, 3), grid_n, orientation)
                sizes.append(len(tub.witness_payoffs))
        assert max(sizes) >= grid_n**2

    def test_signed_zero_maps(self):
        rng = np.random.default_rng(68)
        for _ in range(200):
            arity = int(rng.integers(2, 4))
            c = rng.choice([-0.0, 0.0, -1.0, 1.0, 0.5, -0.25], size=(2, 5))
            if arity == 2:
                c[:, 3] = rng.choice([-0.0, 0.0], size=2)
            for orientation in Orientation:
                assert_lattice_matches_cloud(PayoffMap(c, arity), int(rng.choice([2, 5, 17])), orientation)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_overflowing_payoffs_raise_like_the_cloud(self, sign):
        m = PayoffMap(sign * np.array([[1e308, 1.7e308, 1e307, 0, 0], [1.0, 0, 0, 0, 0]]), arity=3)
        for build in (lambda: sample_image(m, 17), lambda: lattice_tu(m, 17, Orientation.GAIN)):
            with np.errstate(over="ignore"), pytest.raises(ValueError, match="payoffs must be finite"):
                build()

    def test_overflowing_sums_raise(self, monkeypatch):
        # Both payoffs finite, their sum not: no witness could be selected.
        m = PayoffMap(np.array([[1e308, 0, 0, 0, 0], [1e308, 0, 0, 0, 0]]), arity=3)
        far = []
        far_from_best = geometry._far_from_best
        monkeypatch.setattr(geometry, "_far_from_best", lambda *args: far.append(far_from_best(*args)) or far[-1])
        # The cloud of 17³ points is large enough for block bounds, 5³ not.
        for grid_n in (5, 17):
            far.clear()
            for build in (
                lambda: tu_boundary(sample_image(m, grid_n), Orientation.GAIN),
                lambda: lattice_tu(m, grid_n, Orientation.GAIN),
            ):
                with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                    ValueError, match="payoff sums must be finite"
                ):
                    build()
            # A sum overflows only where the sum of the |c| does, and so the
            # rounding slack: ``lattice_tu`` keeps every column and, on the
            # larger cloud, ``tu_boundary`` every block.
            assert len(far) == (1 if grid_n**3 < geometry._PREFILTER_MIN_ROWS else 2)
            assert not any(mask.any() for mask in far)

    def test_argument_checks(self, f0):
        with pytest.raises(ValueError, match="grid_n"):
            lattice_tu(f0, 1, Orientation.LOSS)
        for tol in (0.0, float("nan")):
            with pytest.raises(ValueError, match="tol"):
                lattice_tu(f0, 17, Orientation.LOSS, tol)


@pytest.fixture
def block_rows(monkeypatch):
    """Whether each call of ``geometry._block_rows`` took the pruned path."""
    taken = []
    rows = geometry._block_rows

    def recording(*args):
        kept = rows(*args)
        taken.append(kept is not None)
        return kept

    monkeypatch.setattr(geometry, "_block_rows", recording)
    return taken


def assert_pruned_paths_match(cloud, tols=(1e-9, 0.05)):
    """``pareto_filter`` is the sort-everything filter and ``tu_boundary``
    is ``_tu_witnesses`` on the whole payoff columns, bit for bit and sign
    bit for sign bit, under both orientations and flavors."""
    p1, p2 = cloud.payoffs[:, 0], cloud.payoffs[:, 1]
    for orientation in Orientation:
        assert_matches_sort(cloud, orientation)
        for tol in tols:
            want = geometry._tu_witnesses(p1, p2, cloud.preimages_at, orientation, tol)
            got = tu_boundary(cloud, orientation, tol)
            assert repr(got.optimal_sum) == repr(want.optimal_sum)
            for a, b in ((got.witness_payoffs, want.witness_payoffs), (got.witness_preimages, want.witness_preimages)):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
            ends = [[p.as_tuple() for p in tub.segment_ends] for tub in (got, want)]
            assert np.array_equal(*ends) and np.array_equal(*np.signbit(ends))
            assert got.tolerance == want.tolerance
            assert got.orientation is want.orientation is orientation


class TestBlockBounds:
    """Lattice clouds skip the blocks their corners prove out of the answer,
    and every output keeps its bits."""

    @staticmethod
    def assert_both_paths_match(monkeypatch, cloud, block_rows):
        # Once at the default share of dropped blocks, and once with none
        # required, so the pruned path runs whatever drops.
        assert_pruned_paths_match(cloud)
        with monkeypatch.context() as m:
            m.setattr(geometry, "_BOUND_MIN_DROPPED", 0.0)
            block_rows.clear()
            assert_pruned_paths_match(cloud)
            assert block_rows and all(block_rows)

    @pytest.mark.parametrize("arity, grids", [(2, (65, 150)), (3, (17, 26))])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_map_families(self, monkeypatch, block_rows, family, arity, grids):
        # The block edge divides n - 1 on the first grid and not on the second.
        rng = np.random.default_rng([90, FAMILIES.index(family), arity])
        for _ in range(2):
            payoff_map = family_map(family, rng, arity)
            for grid_n in grids:
                self.assert_both_paths_match(monkeypatch, sample_image(payoff_map, grid_n), block_rows)

    @pytest.mark.parametrize("arity, grid_n", [(2, 150), (3, 26)])
    @pytest.mark.parametrize("shape", ["generic", "opposed", "aligned"])
    def test_dense_shapes(self, monkeypatch, block_rows, arity, grid_n, shape):
        rng = np.random.default_rng([91, arity, len(shape)])
        for _ in range(3):
            cloud = sample_image(dense_shaped_map(rng, arity, shape), grid_n)
            self.assert_both_paths_match(monkeypatch, cloud, block_rows)

    @pytest.mark.parametrize("arity, grid_n", [(2, 1000), (3, 50)])
    def test_edge_not_dividing_a_large_grid(self, block_rows, arity, grid_n):
        cloud = sample_image(dense_shaped_map(np.random.default_rng([92, arity]), arity, "generic"), grid_n)
        assert (grid_n - 1) % geometry._BOUND_EDGE[arity] != 0
        assert_pruned_paths_match(cloud)
        # A generic map drops at least 7 blocks in 8 for every TU answer.
        # The Pareto boxes need many blocks per axis to drop as many, which
        # 1000² has (63) and 50³ (7) has not.
        pareto, tu = [True, True, False, False] * 2, [False, False, True, True] * 2
        assert block_rows == [t or (p and arity == 2) for p, t in zip(pareto, tu)]

    @pytest.mark.parametrize("scale", [2.0**1000, 2.0**-1000])
    @pytest.mark.parametrize("arity, grid_n", [(2, 65), (3, 17)])
    def test_extreme_scales(self, monkeypatch, block_rows, scale, arity, grid_n):
        rng = np.random.default_rng([93, arity])
        for shape in ("generic", "opposed"):
            payoff_map = dense_shaped_map(rng, arity, shape)
            scaled = PayoffMap(payoff_map.coeffs * scale, arity)
            self.assert_both_paths_match(monkeypatch, sample_image(scaled, grid_n), block_rows)

    def test_generic_cube_reads_few_rows(self, monkeypatch):
        cloud = sample_image(dense_shaped_map(np.random.default_rng(94), 3, "generic"), 65)
        sizes = []
        witnesses, undominated = geometry._tu_witnesses, geometry._undominated

        def recording(inner):
            def call(*args):
                sizes.append(len(args[0]))
                return inner(*args)
            return call

        monkeypatch.setattr(geometry, "_tu_witnesses", recording(witnesses))
        monkeypatch.setattr(geometry, "_undominated", recording(undominated))
        for orientation in Orientation:
            tu_boundary(cloud, orientation)
            pareto_filter(cloud, orientation, facing_flavor(orientation))
        assert len(sizes) == 4
        assert max(sizes) < len(cloud) / 8

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
    def test_bad_tolerances_raise(self, tol):
        cloud = sample_image(dense_shaped_map(np.random.default_rng(95), 3, "generic"), 17)
        for orientation in Orientation:
            with pytest.raises(ValueError, match="tol must be positive"):
                tu_boundary(cloud, orientation, tol)


class TestBlocks:
    """The whole-cloud passes give the same bits whatever their block size."""

    @staticmethod
    def outputs(payoff_map, grid_n):
        cloud = sample_image(payoff_map, grid_n)
        out = [cloud.payoffs, cloud.preimages]
        for orientation in Orientation:
            for flavor in ("maximal", "minimal"):
                boundary = pareto_filter(cloud, orientation, flavor)
                out += [boundary.payoffs, boundary.preimages]
            for tol in (1e-9, 0.05):
                tub = tu_boundary(cloud, orientation, tol)
                lat, lo, hi = lattice_tu(payoff_map, grid_n, orientation, tol)
                out += [np.array([tub.optimal_sum, lat.optimal_sum, *lo.as_tuple(), *hi.as_tuple()])]
                out += [tub.witness_payoffs, tub.witness_preimages, lat.witness_payoffs, lat.witness_preimages]
        return out

    @pytest.mark.parametrize("arity, grid_n", [(2, 40), (3, 12)])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_block_size_changes_no_bit(self, monkeypatch, family, arity, grid_n):
        payoff_map = family_map(family, np.random.default_rng([70, FAMILIES.index(family), arity]), arity)
        whole = self.outputs(payoff_map, grid_n)
        assert grid_n**arity <= geometry._BLOCK
        for block in (1, 7, 64, 300):
            monkeypatch.setattr(geometry, "_BLOCK", block)
            for a, b in zip(self.outputs(payoff_map, grid_n), whole, strict=True):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("arity, grid_n", [(2, 40), (3, 12)])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_bound_edge_changes_no_bit(self, monkeypatch, family, arity, grid_n):
        # With no share of dropped blocks required, every edge takes the
        # pruned path, blocks of one point and blocks wider than the
        # lattice included.
        payoff_map = family_map(family, np.random.default_rng([71, FAMILIES.index(family), arity]), arity)
        whole = self.outputs(payoff_map, grid_n)
        assert grid_n**arity >= geometry._PREFILTER_MIN_ROWS
        monkeypatch.setattr(geometry, "_BOUND_MIN_DROPPED", 0.0)
        for edge in (1, 3, 5, 16, 64):
            monkeypatch.setattr(geometry, "_BOUND_EDGE", {arity: edge})
            for a, b in zip(self.outputs(payoff_map, grid_n), whole, strict=True):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestHausdorff:
    def test_identical_clouds(self):
        cloud = make_cloud([[0.0, 0.0], [1.0, 2.0]])
        assert hausdorff_distance(cloud, cloud) == 0.0

    def test_vertical_offset(self):
        a = make_cloud([[0.0, 0.0], [1.0, 0.0]])
        b = make_cloud([[0.0, 0.25], [1.0, 0.25]])
        assert hausdorff_distance(a, b) == 0.25

    def test_matches_oracle(self):
        for seed, draws, max_size in ((38, 25, 40), (52, 50, 80)):
            rng = np.random.default_rng(seed)
            for _ in range(draws):
                a = rng.normal(size=(int(rng.integers(1, max_size)), 2))
                b = rng.normal(size=(int(rng.integers(1, max_size)), 2))
                assert abs(hausdorff_distance(a, b) - brute_hausdorff(a, b)) <= 1e-12

    @staticmethod
    def assert_matches_oracle(a, b):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        want = brute_hausdorff(a, b)
        assert hausdorff_distance(a, b) == pytest.approx(want, rel=1e-14, abs=1e-300)
        assert hausdorff_distance(b, a) == pytest.approx(want, rel=1e-14, abs=1e-300)

    def test_ties_in_x(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            # Few distinct x values, so runs of equal x straddle every block.
            a = np.stack([rng.integers(0, 4, 300) / 4, rng.normal(size=300)], axis=1)
            b = np.stack([rng.integers(0, 5, 40) / 4, rng.normal(size=40)], axis=1)
            self.assert_matches_oracle(a, b)

    def test_one_x_for_every_point(self):
        # The whole other set is in every block's band, wider than one band slice.
        rng = np.random.default_rng(4)
        a = np.stack([np.zeros(600), rng.normal(size=600)], axis=1)
        b = np.stack([np.zeros(5000), rng.normal(size=5000) * 3], axis=1)
        self.assert_matches_oracle(a, b)
        # Every point of b is the nearest point of one point of a.
        b = np.stack([np.zeros(5000), rng.permutation(5000).astype(float)], axis=1)
        a = np.concatenate([b[rng.permutation(5000)], [[0.0, 2500.25]]])
        assert hausdorff_distance(a, b) == 0.25

    def test_duplicate_points(self):
        rng = np.random.default_rng(5)
        base = rng.normal(size=(30, 2))
        a = np.concatenate([base, base[rng.integers(0, 30, 500)]])
        b = np.concatenate([base[:10], base[:10], rng.normal(size=(7, 2))])
        self.assert_matches_oracle(a, b)
        assert hausdorff_distance(a, np.concatenate([base, base])) == 0.0

    def test_single_points(self):
        assert hausdorff_distance([[1.0, 2.0]], [[4.0, 6.0]]) == 5.0
        assert hausdorff_distance([[1.0, 2.0]], [[1.0, 2.0]]) == 0.0
        rng = np.random.default_rng(6)
        for _ in range(10):
            self.assert_matches_oracle(rng.normal(size=(1, 2)), rng.normal(size=(300, 2)))

    def test_very_unequal_sizes(self):
        rng = np.random.default_rng(8)
        t = np.sort(rng.random(20000))
        curve = np.stack([t, -t * t], axis=1)
        for n in (1, 2, 3, 257):
            self.assert_matches_oracle(rng.random((n, 2)) * [1.0, -1.0], curve)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            hausdorff_distance([[0.0, bad]], [[0.0, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            hausdorff_distance([[0.0, 0.0]], [[bad, 0.0]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            hausdorff_distance(np.zeros((0, 2)), [[0.0, 0.0]])


class TestValidation:
    def test_empty_cloud_rejected(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((0, 2)), np.zeros((0, 2)), 0.1)

    def test_grid_step_positive(self):
        with pytest.raises(ValueError):
            make_cloud([[0.0, 0.0]], grid_step=0.0)

    def test_boundary_flavor_checked(self):
        with pytest.raises(ValueError):
            ParetoBoundary(np.zeros((1, 2)), np.zeros((1, 2)), Orientation.GAIN, "best")

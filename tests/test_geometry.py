"""payoff-geometry: sampling, Pareto filtering, extrema, TU boundary, Hausdorff."""

import warnings

import numpy as np
import pytest

from coopetition import geometry
from coopetition.games import Orientation, PayoffPoint
from coopetition.geometry import (
    ParetoBoundary,
    PayoffMap,
    PointCloud,
    extrema,
    hausdorff_distance,
    pareto_filter,
    sample_image,
    tu_boundary,
)

from oracles import brute_hausdorff, brute_pareto_indices, lattice_image, random_cloud, sort_pareto


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
        dedupe = geometry._dedupe_sorted

        def recording(payoffs, preimages):
            sizes.append(len(payoffs))
            return dedupe(payoffs, preimages)

        monkeypatch.setattr(geometry, "_dedupe_sorted", recording)
        for flavor in ("maximal", "minimal"):
            pareto_filter(cloud, Orientation.GAIN, flavor)
        assert len(sizes) == 2
        assert max(sizes) < 0.05 * len(cloud)


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

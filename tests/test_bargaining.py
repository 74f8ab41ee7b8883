"""bargaining: KS, Nash bargaining, payoff core, compromise constructions."""

import math

import numpy as np
import pytest

from coopetition.bargaining import (
    BargainingProblem,
    compromise_solution,
    ks_solution,
    nash_bargaining,
    payoff_core,
)
from coopetition.errors import DegenerateProblem, EmptyFeasibleSet, NoIntersection
from coopetition.games import Orientation, PayoffPoint
from coopetition.geometry import ParetoBoundary, pareto_filter, sample_image
from coopetition.mixed import conservative_bivalue_mixed

# Exact solutions on the curve p1 = -p2^2 (the minimal boundary of the
# expected-loss image), derived by intersecting threat-utopia segments.
KS_FROM_CONSERVATIVE = PayoffPoint(8 * math.sqrt(2) - 12, 2 * math.sqrt(2) - 2)
PARETO_COMPROMISE = PayoffPoint(-4 * (3 - math.sqrt(5)) / 2, 2 - (3 - math.sqrt(5)))
NASH_POINT = PayoffPoint(-4.0 / 9.0, 2.0 / 3.0)
B_PRIME = PayoffPoint(0.0, 1.0)


def err(p: PayoffPoint, q: PayoffPoint) -> float:
    return math.hypot(p.p1 - q.p1, p.p2 - q.p2)


def simple_boundary(points, orientation=Orientation.GAIN, flavor="maximal"):
    pts = np.asarray(points, dtype=float)
    pre = np.zeros((len(pts), 2))
    pre[:, 0] = np.arange(len(pts))
    return ParetoBoundary(pts, pre, orientation, flavor, grid_step=0.5)


class TestKSSolution:
    def test_paper_example(self, f0_boundary_513):
        problem = BargainingProblem(f0_boundary_513, B_PRIME, PayoffPoint(-4, 0))
        sol = ks_solution(problem, tol=3.0 / 512)
        assert err(sol.payoff, KS_FROM_CONSERVATIVE) <= 1e-2
        assert sol.residual <= 3.0 / 512

    def test_refinement_tightens(self, f0):
        boundary = pareto_filter(sample_image(f0, 1025), Orientation.LOSS, "minimal")
        sol = ks_solution(
            BargainingProblem(boundary, B_PRIME, PayoffPoint(-4, 0)), tol=3.0 / 1024
        )
        assert err(sol.payoff, KS_FROM_CONSERVATIVE) <= 1e-3

    def test_exact_midpoint_on_boundary(self):
        boundary = simple_boundary([[0.0, 2.0], [1.0, 1.0], [2.0, 0.0]])
        sol = ks_solution(
            BargainingProblem(boundary, PayoffPoint(0, 0), PayoffPoint(2, 2)), tol=1e-9
        )
        assert sol.payoff == PayoffPoint(1, 1)
        assert sol.residual == 0.0

    def test_coopetitive_boundary_example(self, coop_cloud_65):
        boundary = pareto_filter(coop_cloud_65, Orientation.LOSS, "minimal")
        sol = ks_solution(
            BargainingProblem(boundary, B_PRIME, PayoffPoint(-5, -1)), tol=3.0 / 64
        )
        s = (13 - math.sqrt(89)) / 8
        assert err(sol.payoff, PayoffPoint(-5 * s, 1 - 2 * s)) <= 3e-2

    def test_solution_lies_on_boundary(self, f0_boundary_513):
        problem = BargainingProblem(f0_boundary_513, B_PRIME, PayoffPoint(-4, 0))
        sol = ks_solution(problem, tol=1e-2)
        rows = set(map(tuple, f0_boundary_513.payoffs))
        assert sol.payoff.as_tuple() in rows

    def test_no_intersection_raises(self):
        boundary = simple_boundary([[10.0, 10.0]])
        with pytest.raises(NoIntersection):
            ks_solution(
                BargainingProblem(boundary, PayoffPoint(0, 0), PayoffPoint(1, 1)), tol=1e-3
            )

    def test_degenerate_threat_equals_utopia(self, f0_boundary_513):
        with pytest.raises(DegenerateProblem):
            BargainingProblem(f0_boundary_513, B_PRIME, B_PRIME)

    def test_threat_must_be_worse(self, f0_boundary_513):
        # Under LOSS the utopia must be componentwise smaller.
        with pytest.raises(DegenerateProblem):
            BargainingProblem(f0_boundary_513, PayoffPoint(-4, 0), B_PRIME)

    def test_doubling_stability(self, f0):
        sols = []
        for n in (257, 513):
            boundary = pareto_filter(sample_image(f0, n), Orientation.LOSS, "minimal")
            sols.append(
                ks_solution(
                    BargainingProblem(boundary, B_PRIME, PayoffPoint(-4, 0)), tol=3.0 / (n - 1)
                )
            )
        assert err(sols[0].payoff, sols[1].payoff) <= 6.0 / 256

    def test_affine_covariance(self, f0_boundary_513):
        # Positive componentwise affine maps move the solution to the image
        # of the original solution, up to grid resolution.
        alpha = (0.5, 2.0)
        beta = (1.0, -3.0)
        base = ks_solution(
            BargainingProblem(f0_boundary_513, B_PRIME, PayoffPoint(-4, 0)), tol=3.0 / 512
        )
        payoffs = f0_boundary_513.payoffs * alpha + beta
        mapped = ParetoBoundary(
            payoffs, f0_boundary_513.preimages, Orientation.LOSS, "minimal", grid_step=1 / 512
        )

        def tf(p):
            return PayoffPoint(alpha[0] * p.p1 + beta[0], alpha[1] * p.p2 + beta[1])

        sol = ks_solution(
            BargainingProblem(mapped, tf(B_PRIME), tf(PayoffPoint(-4, 0))), tol=3.0 / 512 * 2
        )
        assert err(sol.payoff, tf(base.payoff)) <= 6.0 / 512 * max(alpha)


class TestNashBargaining:
    def test_paper_example(self, f0_boundary_513):
        sol = nash_bargaining(f0_boundary_513, B_PRIME, Orientation.LOSS)
        assert err(sol.payoff, NASH_POINT) <= 1e-2

    def test_argmax_property(self, f0_boundary_513):
        sol = nash_bargaining(f0_boundary_513, B_PRIME, Orientation.LOSS)
        gains = B_PRIME.as_array() - f0_boundary_513.payoffs
        feasible = (gains >= 0).all(axis=1)
        products = gains[:, 0] * gains[:, 1]
        best = sol.payoff
        got = (B_PRIME.p1 - best.p1) * (B_PRIME.p2 - best.p2)
        assert got >= products[feasible].max() - 1e-15

    def test_dominating_disagreement_point(self):
        boundary = simple_boundary([[2.0, 2.0], [1.0, 3.0]])
        sol = nash_bargaining(boundary, PayoffPoint(2, 2), Orientation.GAIN)
        assert sol.payoff == PayoffPoint(2, 2)

    def test_symmetric_boundary(self):
        boundary = simple_boundary([[2.0, 0.0], [1.0, 1.0], [0.0, 2.0]])
        sol = nash_bargaining(boundary, PayoffPoint(0, 0), Orientation.GAIN)
        assert sol.payoff == PayoffPoint(1, 1)

    def test_empty_feasible_set(self):
        boundary = simple_boundary([[0.0, 0.0]])
        with pytest.raises(EmptyFeasibleSet):
            nash_bargaining(boundary, PayoffPoint(5, 5), Orientation.GAIN)


class TestPayoffCore:
    def test_paper_core(self, f0_boundary_513, norm_loss_game):
        conservative = conservative_bivalue_mixed(norm_loss_game)
        core = payoff_core(f0_boundary_513, conservative)
        assert len(core) > 0
        # Core points are exactly the boundary points with p2 <= 1.
        assert (core.payoffs[:, 1] <= 1.0 + 1e-9).all()
        expected = f0_boundary_513.payoffs[:, 1] <= conservative.p2
        assert len(core) == int(expected.sum())

    def test_conservative_worse_than_all(self, f0_boundary_513):
        core = payoff_core(f0_boundary_513, PayoffPoint(10, 10))
        assert len(core) == len(f0_boundary_513)

    def test_conservative_better_than_all(self, f0_boundary_513):
        core = payoff_core(f0_boundary_513, PayoffPoint(-10, -10))
        assert len(core) == 0

    def test_core_is_nondominated_subset(self, f0_boundary_513, norm_loss_game):
        conservative = conservative_bivalue_mixed(norm_loss_game)
        core = payoff_core(f0_boundary_513, conservative)
        refiltered = pareto_filter(core, Orientation.LOSS, "minimal")
        assert len(refiltered) == len(core)

    def test_flavor_mismatch_rejected(self, f0_boundary_513):
        wrong = ParetoBoundary(
            f0_boundary_513.payoffs,
            f0_boundary_513.preimages,
            Orientation.GAIN,
            "minimal",
        )
        with pytest.raises(ValueError):
            payoff_core(wrong, PayoffPoint(0, 0))


class TestCompromiseSolution:
    def test_pareto_kind(self, f0_boundary_513):
        sol = compromise_solution("pareto", f0_boundary_513, tol=3.0 / 512)
        assert err(sol.payoff, PARETO_COMPROMISE) <= 1e-2
        assert sol.threat == PayoffPoint(0, 2)
        assert sol.utopia == PayoffPoint(-4, 0)

    def test_nash_pareto_matches_ks(self, f0_boundary_513):
        sol = compromise_solution(
            "nash_pareto", f0_boundary_513, threat=B_PRIME, tol=3.0 / 512
        )
        ks = ks_solution(
            BargainingProblem(f0_boundary_513, B_PRIME, PayoffPoint(-4, 0)), tol=3.0 / 512
        )
        assert sol.payoff == ks.payoff

    def test_conservative_pareto(self, f0_boundary_513, norm_loss_game):
        conservative = conservative_bivalue_mixed(norm_loss_game)
        sol = compromise_solution(
            "conservative_pareto", f0_boundary_513, threat=conservative, tol=3.0 / 512
        )
        assert err(sol.payoff, KS_FROM_CONSERVATIVE) <= 1e-2

    def test_single_point_boundary(self):
        boundary = simple_boundary([[1.0, 2.0]])
        for kind in ("pareto", "nash_pareto", "conservative_pareto"):
            sol = compromise_solution(kind, boundary)
            assert sol.payoff == PayoffPoint(1, 2)

    def test_missing_inputs_rejected(self, f0_boundary_513):
        with pytest.raises(ValueError):
            compromise_solution("nash_pareto", f0_boundary_513)
        with pytest.raises(ValueError):
            compromise_solution("conservative_pareto", f0_boundary_513)
        with pytest.raises(ValueError):
            compromise_solution("best", f0_boundary_513)

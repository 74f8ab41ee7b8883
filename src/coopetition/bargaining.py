"""Bargaining problems over sampled Pareto boundaries and their solutions.

A bargaining problem pairs a boundary with a threat (initial) point and a
utopia point, read per orientation: under LOSS the threat is the
componentwise larger point.  On a discrete boundary the Kalai-Smorodinsky
solution is the argmin of distance to the threat-utopia segment with a
tolerance gate, which converges to the unique continuous intersection as
the sampling step shrinks; ties break toward the utopia point and then by
payoff and preimage, so results are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Literal

import numpy as np

from .errors import DegenerateProblem, EmptyFeasibleSet, NoIntersection
from .games import Orientation, PayoffPoint, strictly_better
from .geometry import ParetoBoundary, _lex_order, facing_flavor, orientation_best, orientation_worst

__all__ = [
    "BargainingProblem",
    "SolutionPoint",
    "ks_solution",
    "nash_bargaining",
    "payoff_core",
    "compromise_solution",
]

CompromiseKind = Literal["pareto", "nash_pareto", "conservative_pareto"]


@dataclass(frozen=True)
class SolutionPoint:
    """Uniform result wrapper for every solution concept.

    ``residual`` is the distance from the construction's ideal locus (the
    threat-utopia segment for KS-type solutions, the TU line crossing for
    transferable-utility ones); argmax-style solutions report 0.  The
    threat/utopia pair used to produce the point is recorded when there is
    one.
    """

    payoff: PayoffPoint
    preimage: tuple[float, ...] | None
    method: str
    residual: float
    threat: PayoffPoint | None = None
    utopia: PayoffPoint | None = None


@dataclass(frozen=True)
class BargainingProblem:
    """A boundary with a threat point ``initial`` and a utopia point.

    Construction checks that the utopia strictly improves on the threat
    per orientation; whether the threat-utopia segment actually reaches
    the boundary is checked by the solver against its tolerance (a few
    grid steps by default), since that is a sampling-resolution question.
    """

    boundary: ParetoBoundary
    initial: PayoffPoint
    utopia: PayoffPoint

    def __post_init__(self) -> None:
        if len(self.boundary) == 0:
            raise DegenerateProblem("bargaining needs a non-empty boundary")
        if self.initial == self.utopia:
            raise DegenerateProblem("threat and utopia coincide")
        if not strictly_better(self.utopia, self.initial, self.boundary.orientation):
            raise DegenerateProblem(
                f"utopia {self.utopia.as_tuple()} must be strictly better than "
                f"threat {self.initial.as_tuple()} in both components"
            )


def _segment_distances(points: np.ndarray, a: PayoffPoint, b: PayoffPoint) -> np.ndarray:
    av = a.as_array()
    ab = b.as_array() - av
    den = float(ab @ ab)
    t = np.clip((points - av) @ ab / den, 0.0, 1.0)
    proj = av + t[:, None] * ab
    return np.hypot(*(points - proj).T)


def _pick(boundary: ParetoBoundary, *leading: np.ndarray) -> int:
    """Deterministic argmin over (the leading keys in turn, payoff, preimage)."""
    return int(_lex_order(boundary.payoffs, boundary.preimages, *leading)[0])


def ks_solution(problem: BargainingProblem, tol: float) -> SolutionPoint:
    """Kalai-Smorodinsky (best compromise) solution of the problem.

    Returns the boundary point nearest the segment from threat to utopia.
    The continuous intersection is unique, so a single point is returned;
    equal distances break toward the point closest to the utopia.  Raises
    :class:`NoIntersection` when even the nearest point is farther than
    ``tol``, which signals a malformed problem or too coarse a grid.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    d = _segment_distances(problem.boundary.payoffs, problem.initial, problem.utopia)
    d_utopia = np.hypot(*(problem.boundary.payoffs - problem.utopia.as_array()).T)
    i = _pick(problem.boundary, d, d_utopia)
    if d[i] > tol:
        raise NoIntersection(
            f"nearest boundary point is {d[i]:.6g} from the threat-utopia "
            f"segment (tolerance {tol:.6g})"
        )
    return SolutionPoint(
        payoff=problem.boundary.tagged(i).payoff,
        preimage=problem.boundary.tagged(i).preimage,
        method="ks",
        residual=float(d[i]),
        threat=problem.initial,
        utopia=problem.utopia,
    )


def nash_bargaining(
    boundary: ParetoBoundary, disagreement: PayoffPoint, orientation: Orientation
) -> SolutionPoint:
    """Maximize the product of improvements over the disagreement point.

    Only boundary points weakly better than the disagreement point in both
    components are feasible; raises :class:`EmptyFeasibleSet` otherwise.
    """
    if len(boundary) == 0:
        raise EmptyFeasibleSet("empty boundary")
    s = orientation.sign
    gains = s * (boundary.payoffs - disagreement.as_array())
    feasible = (gains >= 0.0).all(axis=1)
    if not feasible.any():
        raise EmptyFeasibleSet(
            f"no boundary point weakly improves on {disagreement.as_tuple()}"
        )
    product = np.where(feasible, gains[:, 0] * gains[:, 1], -np.inf)
    i = _pick(boundary, -product)
    return SolutionPoint(
        payoff=boundary.tagged(i).payoff,
        preimage=boundary.tagged(i).preimage,
        method="nash-bargaining",
        residual=0.0,
        threat=disagreement,
        utopia=None,
    )


def payoff_core(boundary: ParetoBoundary, conservative: PayoffPoint) -> ParetoBoundary:
    """The boundary portion weakly better than the conservative bi-value.

    Requires the orientation-facing boundary (maximal for GAIN, minimal
    for LOSS).  May be empty; the caller decides what that means.
    """
    expected = facing_flavor(boundary.orientation)
    if boundary.flavor != expected:
        raise ValueError(
            f"payoff core needs the {expected} boundary under "
            f"{boundary.orientation.value}, got {boundary.flavor}"
        )
    s = boundary.orientation.sign
    mask = (s * boundary.payoffs >= s * conservative.as_array()).all(axis=1)
    return ParetoBoundary(
        boundary.payoffs[mask],
        boundary.preimages[mask],
        orientation=boundary.orientation,
        flavor=boundary.flavor,
        grid_step=boundary.grid_step,
    )


def compromise_solution(
    kind: CompromiseKind,
    boundary: ParetoBoundary,
    threat: PayoffPoint | None = None,
    tol: float = 1e-2,
) -> SolutionPoint:
    """The three compromise constructions, solved by Kalai-Smorodinsky.

    The utopia point is always the orientation-best extremum of the
    boundary.  The threat point is the orientation-worst extremum for
    ``pareto``, and the supplied ``threat`` for the other kinds: the
    Nash-zone extreme for ``nash_pareto``, the conservative value for
    ``conservative_pareto``.  A single-point boundary is its own solution
    for every kind.
    """
    if kind not in ("pareto", "nash_pareto", "conservative_pareto"):
        raise ValueError(f"unknown compromise kind {kind!r}")
    method = f"compromise:{kind}"
    if len(boundary) == 1:
        t = boundary.tagged(0)
        return SolutionPoint(t.payoff, t.preimage, method, residual=0.0)
    if kind == "pareto":
        threat = orientation_worst(boundary, boundary.orientation)
    elif threat is None:
        raise ValueError(f"{kind} compromise needs a threat point")
    utopia = orientation_best(boundary, boundary.orientation)
    return replace(ks_solution(BargainingProblem(boundary, threat, utopia), tol), method=method)

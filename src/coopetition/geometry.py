"""Sampled payoff-space geometry.

Payoff maps are polynomials over the monomial basis {1, x, y, z, xy} per
component, evaluated on uniform lattices of the unit square or cube.  The
resulting point clouds carry their preimages, so every extracted feature
(Pareto boundary, extrema, transferable-utility optimum) can report the
strategies achieving it.  Continuous regions from the underlying model are
represented as finite samples with an explicit ``grid_step``; downstream
accuracy statements are expressed in multiples of that step.

Equal payoff points are collapsed to the lexicographically smallest
preimage, which keeps all outputs deterministic and independent of how the
sampling was partitioned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .games import Orientation, PayoffPoint

__all__ = [
    "BASIS_NAMES",
    "PayoffMap",
    "TaggedPoint",
    "PointCloud",
    "ParetoBoundary",
    "TUBoundary",
    "sample_image",
    "pareto_filter",
    "extrema",
    "orientation_best",
    "orientation_worst",
    "facing_flavor",
    "tu_boundary",
    "hausdorff_distance",
]

#: Monomial basis of payoff-map coefficients, in storage order.
BASIS_NAMES = ("1", "x", "y", "z", "xy")


@dataclass(frozen=True, eq=False)
class PayoffMap:
    """A payoff function on [0,1]^arity, polynomial in {1, x, y, z, xy}.

    ``coeffs`` has shape (2, 5): one coefficient row per payoff component.
    Maps of arity 2 must have a zero z coefficient.
    """

    coeffs: np.ndarray
    arity: int

    def __post_init__(self) -> None:
        c = np.array(self.coeffs, dtype=float)
        if c.shape != (2, 5):
            raise ValueError(f"coefficients must have shape (2, 5), got {c.shape}")
        if not np.isfinite(c).all():
            raise ValueError("coefficients must be finite")
        if self.arity not in (2, 3):
            raise ValueError(f"arity must be 2 or 3, got {self.arity}")
        if self.arity == 2 and (c[:, 3] != 0).any():
            raise ValueError("arity-2 maps must not use the z monomial")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    def eval_arrays(self, x, y, z=None):
        """Vectorized evaluation; returns the (p1, p2) component arrays."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if self.arity == 3:
            if z is None:
                raise ValueError("arity-3 map needs z values")
            z = np.asarray(z, dtype=float)
        else:
            if z is not None:
                raise ValueError("arity-2 map takes no z values")
            z = 0.0
        c = self.coeffs
        out = []
        for k in range(2):
            out.append(c[k, 0] + c[k, 1] * x + c[k, 2] * y + c[k, 3] * z + c[k, 4] * x * y)
        return out[0], out[1]

    def eval(self, x: float, y: float, z: float | None = None) -> PayoffPoint:
        p1, p2 = self.eval_arrays(x, y, z)
        return PayoffPoint(float(p1), float(p2))

    def section(self, z: float) -> "PayoffMap":
        """Fix the cooperative coordinate, folding it into the constants."""
        if self.arity != 3:
            raise ValueError("only arity-3 maps have sections")
        c = self.coeffs.copy()
        c[:, 0] += c[:, 3] * float(z)
        c[:, 3] = 0.0
        return PayoffMap(c, arity=2)

    def translated(self, v: PayoffPoint) -> "PayoffMap":
        c = self.coeffs.copy()
        c[0, 0] += v.p1
        c[1, 0] += v.p2
        return PayoffMap(c, arity=self.arity)


@dataclass(frozen=True)
class TaggedPoint:
    """A payoff point together with the domain point that produced it."""

    payoff: PayoffPoint
    preimage: tuple[float, ...]


class _PointSet:
    """Shared array-backed storage for clouds and boundaries."""

    payoffs: np.ndarray
    preimages: np.ndarray

    def __len__(self) -> int:
        return len(self.payoffs)

    @property
    def arity(self) -> int:
        return self.preimages.shape[1]

    def tagged(self, i: int) -> TaggedPoint:
        return TaggedPoint(
            PayoffPoint(*self.payoffs[i]), tuple(float(v) for v in self.preimages[i])
        )

    @staticmethod
    def _freeze(payoffs: np.ndarray, preimages: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        payoffs = np.ascontiguousarray(payoffs, dtype=float)
        preimages = np.ascontiguousarray(preimages, dtype=float)
        if payoffs.ndim != 2 or payoffs.shape[1] != 2:
            raise ValueError(f"payoffs must have shape (n, 2), got {payoffs.shape}")
        if preimages.shape[0] != payoffs.shape[0]:
            raise ValueError("payoffs and preimages disagree in length")
        if preimages.ndim != 2 or preimages.shape[1] not in (2, 3):
            raise ValueError(f"preimages must have shape (n, 2|3), got {preimages.shape}")
        if not np.isfinite(payoffs).all():
            raise ValueError("payoffs must be finite")
        payoffs.flags.writeable = False
        preimages.flags.writeable = False
        return payoffs, preimages


@dataclass(frozen=True, eq=False)
class PointCloud(_PointSet):
    """A sampled payoff-space image with its sampling resolution."""

    payoffs: np.ndarray
    preimages: np.ndarray
    grid_step: float

    def __post_init__(self) -> None:
        payoffs, preimages = self._freeze(self.payoffs, self.preimages)
        if len(payoffs) == 0:
            raise ValueError("a point cloud must be non-empty")
        if not self.grid_step > 0:
            raise ValueError(f"grid_step must be positive, got {self.grid_step}")
        object.__setattr__(self, "payoffs", payoffs)
        object.__setattr__(self, "preimages", preimages)


@dataclass(frozen=True, eq=False)
class ParetoBoundary(_PointSet):
    """Pairwise non-dominated points of a cloud, maximal or minimal."""

    payoffs: np.ndarray
    preimages: np.ndarray
    orientation: Orientation
    flavor: Literal["maximal", "minimal"]
    grid_step: float | None = None

    def __post_init__(self) -> None:
        if self.flavor not in ("maximal", "minimal"):
            raise ValueError(f"flavor must be 'maximal' or 'minimal', got {self.flavor!r}")
        payoffs, preimages = self._freeze(self.payoffs, self.preimages)
        object.__setattr__(self, "payoffs", payoffs)
        object.__setattr__(self, "preimages", preimages)


@dataclass(frozen=True, eq=False)
class TUBoundary:
    """Optimal collective payoff and the sampled points achieving it."""

    optimal_sum: float
    witness_payoffs: np.ndarray
    witness_preimages: np.ndarray
    segment_ends: tuple[PayoffPoint, PayoffPoint]
    tolerance: float


def sample_image(payoff_map: PayoffMap, grid_n: int) -> PointCloud:
    """Evaluate the map on a uniform lattice with ``grid_n`` points per axis."""
    if grid_n < 2:
        raise ValueError(f"grid_n must be at least 2, got {grid_n}")
    t = np.linspace(0.0, 1.0, grid_n)
    if payoff_map.arity == 2:
        x, y = np.meshgrid(t, t, indexing="ij")
        pre = np.stack([x.ravel(), y.ravel()], axis=1)
        p1, p2 = payoff_map.eval_arrays(pre[:, 0], pre[:, 1])
    else:
        x, y, z = np.meshgrid(t, t, t, indexing="ij")
        pre = np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1)
        p1, p2 = payoff_map.eval_arrays(pre[:, 0], pre[:, 1], pre[:, 2])
    payoffs = np.stack([p1, p2], axis=1)
    return PointCloud(payoffs, pre, grid_step=1.0 / (grid_n - 1))


def _lex_order(payoffs: np.ndarray, preimages: np.ndarray) -> np.ndarray:
    """Indices sorting rows by (p1, p2, then the preimage lexicographically)."""
    keys = [preimages[:, k] for k in range(preimages.shape[1] - 1, -1, -1)]
    keys += [payoffs[:, 1], payoffs[:, 0]]
    return np.lexsort(tuple(keys))


def _dedupe_sorted(payoffs: np.ndarray, preimages: np.ndarray):
    """Sort by (p1, p2, preimage lex) and keep one row per payoff pair."""
    order = _lex_order(payoffs, preimages)
    p = payoffs[order]
    keep = np.empty(len(p), dtype=bool)
    keep[0] = True
    keep[1:] = np.any(p[1:] != p[:-1], axis=1)
    idx = order[keep]
    # Free the sorted copies before gathering: on a 129^3 cloud that lowers
    # the filter's peak memory by ~50 MB.
    del order, p
    return payoffs[idx], preimages[idx]


def pareto_filter(
    cloud: PointCloud | ParetoBoundary,
    orientation: Orientation,
    flavor: Literal["maximal", "minimal"],
) -> ParetoBoundary:
    """Extract the non-dominated points of a cloud.

    ``flavor`` is stated in the plane's numeric order: the minimal boundary
    keeps points with no other point componentwise <= and somewhere <, the
    maximal boundary the mirror image.  Equal payoff pairs collapse to the
    lexicographically smallest preimage.  Sort-and-sweep, O(n log n); the
    quadratic filter in the test suite serves as its oracle.
    """
    if flavor not in ("maximal", "minimal"):
        raise ValueError(f"flavor must be 'maximal' or 'minimal', got {flavor!r}")
    if len(cloud) == 0:
        raise ValueError("cannot filter an empty cloud")
    work = cloud.payoffs if flavor == "minimal" else -cloud.payoffs
    payoffs, preimages = _dedupe_sorted(work, cloud.preimages)
    # Rows are unique and sorted by (p1, p2), so a row is non-dominated iff
    # its p2 is strictly below the running minimum of all earlier rows.
    p2 = payoffs[:, 1]
    mask = np.empty(len(p2), dtype=bool)
    mask[0] = True
    mask[1:] = p2[1:] < np.minimum.accumulate(p2)[:-1]
    payoffs = payoffs[mask]
    preimages = preimages[mask]
    if flavor == "maximal":
        payoffs = -payoffs
        order = np.lexsort((payoffs[:, 1], payoffs[:, 0]))
        payoffs = payoffs[order]
        preimages = preimages[order]
    return ParetoBoundary(
        payoffs,
        preimages,
        orientation=orientation,
        flavor=flavor,
        grid_step=getattr(cloud, "grid_step", None),
    )


def extrema(cloud: PointCloud | ParetoBoundary) -> tuple[PayoffPoint, PayoffPoint]:
    """Componentwise (infimum, supremum) of the sampled payoffs."""
    if len(cloud) == 0:
        raise ValueError("cannot take extrema of an empty point set")
    lo = cloud.payoffs.min(axis=0)
    hi = cloud.payoffs.max(axis=0)
    return PayoffPoint(*lo), PayoffPoint(*hi)


def orientation_best(cloud: PointCloud | ParetoBoundary, orientation: Orientation) -> PayoffPoint:
    """The componentwise best corner of the set per orientation."""
    lo, hi = extrema(cloud)
    return hi if orientation is Orientation.GAIN else lo


def orientation_worst(cloud: PointCloud | ParetoBoundary, orientation: Orientation) -> PayoffPoint:
    """The componentwise worst corner of the set per orientation."""
    lo, hi = extrema(cloud)
    return lo if orientation is Orientation.GAIN else hi


def facing_flavor(orientation: Orientation) -> Literal["maximal", "minimal"]:
    """The Pareto flavor facing the orientation: maximal for GAIN, minimal for LOSS."""
    return "maximal" if orientation is Orientation.GAIN else "minimal"


def tu_boundary(
    cloud: PointCloud, orientation: Orientation, tol: float = 1e-9
) -> TUBoundary:
    """Best collective payoff p1+p2 over the cloud and its witnesses.

    The optimum is the max of the coordinate sum under GAIN and the min
    under LOSS; witnesses are the sampled points within ``tol`` of it,
    ordered by p1, and ``segment_ends`` are the extreme witness payoffs.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    sums = cloud.payoffs.sum(axis=1)
    opt = float(sums.max() if orientation is Orientation.GAIN else sums.min())
    sel = np.nonzero(np.abs(sums - opt) <= tol)[0]
    payoffs = cloud.payoffs[sel]
    preimages = cloud.preimages[sel]
    order = _lex_order(payoffs, preimages)
    payoffs = payoffs[order]
    preimages = preimages[order]
    ends = (PayoffPoint(*payoffs[0]), PayoffPoint(*payoffs[-1]))
    return TUBoundary(opt, payoffs, preimages, ends, tol)


def hausdorff_distance(a, b) -> float:
    """Symmetric Hausdorff distance between two payoff point sets.

    Accepts clouds, boundaries, or raw (n, 2) arrays.
    """
    # scipy's only use in the package: importing it here keeps its ~0.4 s
    # import off every command that measures no distance.
    from scipy.spatial import cKDTree

    pa = np.ascontiguousarray(getattr(a, "payoffs", a), dtype=float)
    pb = np.ascontiguousarray(getattr(b, "payoffs", b), dtype=float)
    if len(pa) == 0 or len(pb) == 0:
        raise ValueError("Hausdorff distance needs non-empty sets")
    d_ab = cKDTree(pb).query(pa, k=1)[0].max()
    d_ba = cKDTree(pa).query(pb, k=1)[0].max()
    return float(max(d_ab, d_ba))

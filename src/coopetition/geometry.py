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
    "lattice_tu",
    "tu_line",
    "hausdorff_distance",
]

#: Monomial basis of payoff-map coefficients, in storage order.
BASIS_NAMES = ("1", "x", "y", "z", "xy")

#: Points per block of the Hausdorff band sweep, and of the other set per
#: slice of its band: each pairwise table holds at most 256 x 4096 floats.
_HAUSDORFF_BLOCK = 256
_HAUSDORFF_BAND = 4096


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
            p = c[k, 0] + c[k, 1] * x + c[k, 2] * y + c[k, 3] * z
            # The same sum in the same order; adding the xy term in place
            # writes into the full-size temporary instead of a new array.
            p += c[k, 4] * x * y
            out.append(p)
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


def _lattice(payoff_map: PayoffMap, grid_n: int):
    """The uniform axis ``t``, sparse lattice axes and the (p1, p2) arrays on them."""
    if grid_n < 2:
        raise ValueError(f"grid_n must be at least 2, got {grid_n}")
    t = np.linspace(0.0, 1.0, grid_n)
    # Sparse axes broadcast inside eval_arrays in the same operation order as
    # full coordinate arrays, so the payoffs are identical without the
    # full-size coordinate temporaries.
    axes = np.meshgrid(*([t] * payoff_map.arity), indexing="ij", sparse=True)
    p1, p2 = payoff_map.eval_arrays(*axes)
    return t, axes, p1.ravel(), p2.ravel()


def sample_image(payoff_map: PayoffMap, grid_n: int) -> PointCloud:
    """Evaluate the map on a uniform lattice with ``grid_n`` points per axis."""
    _, axes, p1, p2 = _lattice(payoff_map, grid_n)
    payoffs = np.stack([p1, p2], axis=1)
    pre = np.stack(np.broadcast_arrays(*axes), axis=-1).reshape(-1, payoff_map.arity)
    return PointCloud(payoffs, pre, grid_step=1.0 / (grid_n - 1))


def _lex_order(payoffs: np.ndarray, preimages: np.ndarray, *leading: np.ndarray) -> np.ndarray:
    """Indices sorting rows by the ``leading`` keys in turn, then (p1, p2), then
    the preimage lexicographically: the package's one tie-break."""
    keys = [preimages[:, k] for k in range(preimages.shape[1] - 1, -1, -1)]
    keys += [payoffs[:, 1], payoffs[:, 0], *reversed(leading)]
    return np.lexsort(tuple(keys))


def _dedupe_sorted(payoffs: np.ndarray, preimages: np.ndarray):
    """Sort by (p1, p2, preimage lex) and keep one row per payoff pair."""
    order = _lex_order(payoffs, preimages)
    p = payoffs[order]
    keep = np.empty(len(p), dtype=bool)
    keep[0] = True
    keep[1:] = np.any(p[1:] != p[:-1], axis=1)
    idx = order[keep]
    return payoffs[idx], preimages[idx]


def _drop_dominated(work: np.ndarray, preimages: np.ndarray):
    """The O(n) prefilter of ``pareto_filter``, in the minimal frame.

    The p1 range is cut into ``k`` equal buckets, and a row is dropped when
    its p2 is no smaller than the least p2 of any earlier bucket.
    """
    # Tying k to the size keeps the buckets' fixed cost negligible on small
    # clouds (a Nash zone has a few thousand points).
    k = min(4096, len(work) // 16)
    if k < 2:
        return work, preimages
    p1 = work[:, 0]
    p2 = work[:, 1]
    lo = p1.min()
    # A constant p1 divides by zero, a span beyond the float range
    # overflows the subtraction and a subnormal span the division; none
    # leaves a usable bucket width.
    with np.errstate(over="ignore", divide="ignore"):
        scale = k / (p1.max() - lo)
    if not (np.isfinite(scale) and scale > 0):
        return work, preimages
    bucket = ((p1 - lo) * scale).astype(np.intp)
    np.minimum(bucket, k - 1, out=bucket)
    least = np.full(k, np.inf)
    np.minimum.at(least, bucket, p2)
    earlier = np.concatenate(([np.inf], np.minimum.accumulate(least[:-1])))
    keep = p2 < earlier[bucket]
    return work[keep], preimages[keep]


def pareto_filter(
    cloud: PointCloud | ParetoBoundary,
    orientation: Orientation,
    flavor: Literal["maximal", "minimal"],
) -> ParetoBoundary:
    """Extract the non-dominated points of a cloud.

    ``flavor`` is stated in the plane's numeric order: the minimal boundary
    keeps points with no other point componentwise <= and somewhere <, the
    maximal boundary the mirror image.  Equal payoff pairs collapse to the
    lexicographically smallest preimage.

    One O(n) pass first cuts the p1 range into equal buckets and drops
    every row whose p2 is no better than that of a row in an earlier
    bucket.  The output is still exactly that of sorting every row:

    - the bucket index is monotone in p1, so that earlier row has a
      strictly better p1 and the dropped row is strictly dominated;
    - equal payoff pairs share a bucket and so a decision, which leaves
      the lexicographically-smallest-preimage collapse as it was;
    - removing dominated rows removes no non-dominated one.

    The m survivors are sorted and swept (Kung, Luccio and Preparata's
    maxima algorithm), so the cost is O(n) plus O(m log m).  The
    quadratic filter in the test suite serves as the oracle.
    """
    if flavor not in ("maximal", "minimal"):
        raise ValueError(f"flavor must be 'maximal' or 'minimal', got {flavor!r}")
    if len(cloud) == 0:
        raise ValueError("cannot filter an empty cloud")
    work = cloud.payoffs if flavor == "minimal" else -cloud.payoffs
    payoffs, preimages = _dedupe_sorted(*_drop_dominated(work, cloud.preimages))
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
    # One reduction per column: numpy reduces an (n, 2) array along axis 0
    # two elements at a time, an order of magnitude slower.
    p1, p2 = cloud.payoffs[:, 0], cloud.payoffs[:, 1]
    return PayoffPoint(p1.min(), p2.min()), PayoffPoint(p1.max(), p2.max())


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


def _tu_witnesses(p1, p2, preimages_of, orientation: Orientation, tol: float) -> TUBoundary:
    """The TU rule on payoff columns; ``preimages_of(sel)`` gives the rows' preimages."""
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    sums = p1 + p2
    # A row of two -0.0 sums to -0.0; adding 0.0 reports a zero optimum
    # as 0.0 whatever the sign bits of the rows attaining it.
    opt = float(sums.max() if orientation is Orientation.GAIN else sums.min()) + 0.0
    # |sums - opt| in place: full-size temporaries cost more than the arithmetic.
    np.abs(np.subtract(sums, opt, out=sums), out=sums)
    sel = np.nonzero(sums <= tol)[0]
    payoffs = np.stack([p1[sel], p2[sel]], axis=1)
    preimages = preimages_of(sel)
    order = _lex_order(payoffs, preimages)
    payoffs = payoffs[order]
    preimages = preimages[order]
    ends = (PayoffPoint(*payoffs[0]), PayoffPoint(*payoffs[-1]))
    return TUBoundary(opt, payoffs, preimages, ends, tol)


def tu_boundary(
    cloud: PointCloud, orientation: Orientation, tol: float = 1e-9
) -> TUBoundary:
    """Best collective payoff p1+p2 over the cloud and its witnesses.

    The optimum is the max of the coordinate sum under GAIN and the min
    under LOSS; witnesses are the sampled points within ``tol`` of it,
    ordered by p1, and ``segment_ends`` are the extreme witness payoffs.
    For a payoff map, :func:`lattice_tu` reads the same witnesses on the
    lattice without building the cloud.
    """
    return _tu_witnesses(
        cloud.payoffs[:, 0], cloud.payoffs[:, 1], lambda sel: cloud.preimages[sel], orientation, tol
    )


def lattice_tu(
    payoff_map: PayoffMap, grid_n: int, orientation: Orientation, tol: float = 1e-9
) -> tuple[TUBoundary, PayoffPoint, PayoffPoint]:
    """``tu_boundary`` and ``extrema`` of ``sample_image(payoff_map, grid_n)``.

    The witnesses are read on the lattice without building the cloud: the
    payoff arrays are evaluated once, and preimages are formed for the
    witness rows only.  The results are bit for bit those of the cloud.
    Returns the TU boundary and the componentwise (infimum, supremum).
    """
    t, _, p1, p2 = _lattice(payoff_map, grid_n)
    # A lattice payoff is -0.0 only when each monomial term is, which needs
    # a -0.0 constant and no positive coefficient, and then no payoff is
    # +0.0.  So a column's zeros share one sign, and these contiguous
    # reductions give a zero extremum the sign that extrema's strided
    # column reductions of the cloud give it.
    ext = np.array([p1.min(), p2.min(), p1.max(), p2.max()])
    if not np.isfinite(ext).all():
        raise ValueError("payoffs must be finite")
    shape = (grid_n,) * payoff_map.arity

    def preimages_of(sel):
        return np.stack([t[i] for i in np.unravel_index(sel, shape)], axis=1)

    tub = _tu_witnesses(p1, p2, preimages_of, orientation, tol)
    return tub, PayoffPoint(*ext[:2]), PayoffPoint(*ext[2:])


def tu_line(tub: TUBoundary, lo: PayoffPoint, hi: PayoffPoint) -> tuple[PayoffPoint, PayoffPoint]:
    """The TU line p1 + p2 = optimal sum clipped to the extrema box [lo, hi].

    With transfers, any split of the optimal total between the payoff
    space's componentwise bounds is reachable, so this segment is the
    transferable-utility Pareto boundary.  The ends are ordered by p1.
    """
    m = tub.optimal_sum
    p1_lo = max(lo.p1, m - hi.p2)
    p1_hi = min(hi.p1, m - lo.p2)
    return PayoffPoint(p1_lo, m - p1_lo), PayoffPoint(p1_hi, m - p1_hi)


def _directed_hausdorff_sq(p: np.ndarray, q: np.ndarray) -> float:
    """Largest squared distance from a point of ``p`` to its nearest in ``q``.

    Both sets are sorted by their first column.
    """
    qx = q[:, 0]
    j = np.searchsorted(qx, p[:, 0])
    # Squared distance to the nearer of the two x-neighbours: an attained
    # upper bound on each point's nearest-neighbour distance.
    near = np.full(len(p), np.inf)
    for k in (np.maximum(j - 1, 0), np.minimum(j, len(q) - 1)):
        d = p - q[k]
        d *= d
        np.minimum(near, d[:, 0] + d[:, 1], out=near)
    worst = 0.0
    for i in range(0, len(p), _HAUSDORFF_BLOCK):
        pc, nc = p[i:i + _HAUSDORFF_BLOCK], near[i:i + _HAUSDORFF_BLOCK]
        # A nearer point lies within the bound in x, so only the band of q
        # within ``reach`` of the block's x range is measured.
        reach = np.sqrt(nc.max()) * (1.0 + 1e-9)
        lo = np.searchsorted(qx, pc[0, 0] - reach, "left")
        hi = np.searchsorted(qx, pc[-1, 0] + reach, "right")
        for k in range(lo, hi, _HAUSDORFF_BAND):
            qb = q[k:min(k + _HAUSDORFF_BAND, hi)]
            dx = pc[:, None, 0] - qb[None, :, 0]
            dy = pc[:, None, 1] - qb[None, :, 1]
            dx *= dx
            dy *= dy
            dx += dy
            np.minimum(nc, dx.min(axis=1), out=nc)
        worst = max(worst, float(nc.max()))
    return worst


def hausdorff_distance(a, b) -> float:
    """Symmetric Hausdorff distance between two payoff point sets.

    Accepts clouds, boundaries, or raw (n, 2) arrays of finite points.  The
    distance is exact, with no spatial index: both sets are sorted by p1,
    each point's nearest-neighbour distance is bounded by its two
    p1-neighbours in the other set, and only the pairs no further apart in
    p1 than that bound are measured, a block of points at a time.
    """
    pa = np.asarray(getattr(a, "payoffs", a), dtype=float)
    pb = np.asarray(getattr(b, "payoffs", b), dtype=float)
    if len(pa) == 0 or len(pb) == 0:
        raise ValueError("Hausdorff distance needs non-empty sets")
    if not (np.isfinite(pa).all() and np.isfinite(pb).all()):
        raise ValueError("Hausdorff distance needs finite points")
    pa = pa[np.argsort(pa[:, 0], kind="stable")]
    pb = pb[np.argsort(pb[:, 0], kind="stable")]
    return float(np.sqrt(max(_directed_hausdorff_sq(pa, pb), _directed_hausdorff_sq(pb, pa))))

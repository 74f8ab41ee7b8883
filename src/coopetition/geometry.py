"""Sampled payoff-space geometry.

Payoff maps are polynomials over the monomial basis {1, x, y, z, xy} per
component, evaluated on uniform lattices of the unit square or cube.  The
resulting point clouds give the preimage of each point, so every extracted
feature (Pareto boundary, extrema, transferable-utility optimum) can report
the strategies achieving it.  Continuous regions from the underlying model are
represented as finite samples with an explicit ``grid_step``; downstream
accuracy statements are expressed in multiples of that step.

Equal payoff points are collapsed to the lexicographically smallest
preimage, which keeps all outputs deterministic and independent of how the
sampling was partitioned.
"""

from __future__ import annotations

import ctypes
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Literal

import numpy as np

from .games import Orientation, PayoffPoint

__all__ = [
    "BASIS_NAMES",
    "PayoffMap",
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

#: Rows per block of the passes over a whole cloud (sampling, the Pareto
#: prefilter, the TU optimum), so that their temporaries stay below the
#: mmap threshold; sampling takes at least one x-plane per block.
_BLOCK = 1 << 16

#: ``mallopt`` parameters from glibc's <malloc.h>, and the size from which
#: every allocation gets its own mapping.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 1 << 20


def _fix_mmap_threshold() -> None:
    """Give every allocation of 1 MiB or more its own mapping, on glibc.

    glibc raises its mmap threshold to the size of each mapped block it
    frees, up to 32 MiB, and from then on serves blocks below it from the
    brk heap, keeping up to twice that size free there.  Clouds and their
    scratch arrays are such blocks, and where they then land among
    unrelated small allocations decides how much freed memory stays
    resident: the peak RSS of the same sampling run moved by 14 to 45 MB
    with the input seed.  With the threshold fixed, the large arrays are
    mapped and unmapped whole, and the heap holds only the block-sized
    temporaries, which are reused from one block to the next.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except AttributeError:  # a C library without mallopt
        return
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD)


_fix_mmap_threshold()

#: Clouds with fewer rows go straight to the Pareto sweep: the prefilter's
#: fixed cost outweighs what it saves below about 1,600 rows.  Lattice
#: clouds below it skip the block bounds too.
_PREFILTER_MIN_ROWS = 1600
#: Lattice points per block edge of the block bounds (``_block_rows``), by
#: arity: a block is 16 x 16 points of a square or 8 x 8 x 8 of a cube.
_BOUND_EDGE = {2: 16, 3: 8}
#: The block bounds' rows are read only when at least 7 blocks in 8 drop;
#: otherwise the passes read the whole cloud, as without the bounds.
_BOUND_MIN_DROPPED = 7 / 8
#: Points per block of the Hausdorff band sweep, and of the other set per
#: slice of its band: each pairwise table holds at most 64 x 1024 floats,
#: so it stays below the mmap threshold and is reused from the heap.
_HAUSDORFF_BLOCK = 64
_HAUSDORFF_BAND = 1024


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
        return _component(self.coeffs[0], x, y, z), _component(self.coeffs[1], x, y, z)

    def eval(self, x: float, y: float, z: float | None = None) -> PayoffPoint:
        p1, p2 = self.eval_arrays(x, y, z)
        return PayoffPoint(float(p1), float(p2))

    def section(self, z: float) -> "PayoffMap":
        """Fix the cooperative coordinate, folding it into the constants."""
        if self.arity != 3:
            raise ValueError("only arity-3 maps have sections")
        return PayoffMap(_fold_z(self.coeffs, float(z)), arity=2)


def _component(c, x, y, z, out: np.ndarray | None = None):
    """One payoff component ``c0 + c1*x + c2*y + c3*z + (c4*x)*y``.

    The one home of the payoff formula, so every caller gets the same
    bits.  The terms are summed left to right, and the z term is added
    even where z is 0.0, since ``c3*0.0`` can be -0.0 and so decide the
    sign of a zero sum.  The z term is added into ``out`` if given, else
    into a new value, and the xy term in place.  Given a coefficient list
    and Python floats, every operation is a float's own and the result is
    a float with the bits of the array evaluation, as IEEE arithmetic
    rounds each operation alike.
    """
    p = c[0] + c[1] * x + c[2] * y
    p = p + c[3] * z if out is None else np.add(p, c[3] * z, out=out)
    p += c[4] * x * y
    return p


def _fold_z(coeffs: np.ndarray, z):
    """The coefficient rows of the section at ``z``: ``(c0 + c3*z, c1, c2,
    0.0, c4)`` per component of the (2, 5) ``coeffs``.

    The one home of the fold.  ``z`` is a float, or an array of heights
    that the constant then takes the shape of.  The other entries are
    Python floats, and the constant has the bits of the same fold on
    float64 arrays, as IEEE arithmetic rounds each operation alike.
    """
    return [(c0 + c3 * z, c1, c2, 0.0, c4) for c0, c1, c2, c3, c4 in coeffs.tolist()]


class _PointSet:
    """Shared array-backed storage for clouds and boundaries.

    Payoffs, shape (n, 2), and preimages, shape (n, arity), are stored
    read-only and column-major, so each component is one contiguous vector
    for the O(n) passes over a cloud; indexing and ``tobytes()`` see the
    same rows as a row-major copy.
    """

    payoffs: np.ndarray
    preimages: np.ndarray

    def __len__(self) -> int:
        return len(self.payoffs)

    @property
    def arity(self) -> int:
        return self.preimages.shape[1]

    def preimages_at(self, rows: np.ndarray) -> np.ndarray:
        """The preimages of ``rows``, an index array: ``preimages[rows]``."""
        return self.preimages[rows]

    @staticmethod
    def _check_finite(payoffs: np.ndarray) -> None:
        # NaN propagates through a reduction and an infinity is an extreme,
        # so two reductions check every payoff without an (n, 2) mask.
        if not (np.isfinite(payoffs.min(initial=0.0)) and np.isfinite(payoffs.max(initial=0.0))):
            raise ValueError("payoffs must be finite")

    @staticmethod
    def _freeze(payoffs: np.ndarray, preimages: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        payoffs = np.asfortranarray(payoffs, dtype=float)
        preimages = np.asfortranarray(preimages, dtype=float)
        if payoffs.ndim != 2 or payoffs.shape[1] != 2:
            raise ValueError(f"payoffs must have shape (n, 2), got {payoffs.shape}")
        if preimages.shape[0] != payoffs.shape[0]:
            raise ValueError("payoffs and preimages disagree in length")
        if preimages.ndim != 2 or preimages.shape[1] not in (2, 3):
            raise ValueError(f"preimages must have shape (n, 2|3), got {preimages.shape}")
        _PointSet._check_finite(payoffs)
        # Views share the data without a copy but carry their own flags, so
        # the caller's arrays stay writeable.
        payoffs, preimages = payoffs.view(), preimages.view()
        payoffs.flags.writeable = False
        preimages.flags.writeable = False
        return payoffs, preimages


@dataclass(frozen=True, eq=False)
class PointCloud(_PointSet):
    """A sampled payoff-space image with its sampling resolution.

    ``payoffs`` and ``preimages`` are column-major (Fortran-ordered); input
    of any layout is copied into that layout, input already in it is not,
    and the read-only arrays stored are views that leave the caller's
    arrays writeable.
    """

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


class _LatticeCloud(PointCloud):
    """The cloud of ``sample_image``: payoffs stored, preimages derived.

    Row ``r`` of a lattice with ``n`` points per axis is the point whose
    axis indices are the base-``n`` digits of ``r``, x most significant,
    so ``preimages_at`` reads the preimages of a few rows off the lattice
    axis, and ``preimages`` is built only when read, as the array that
    ``PointCloud`` would store.
    """

    def __init__(self, payoffs: np.ndarray, grid_n: int, arity: int, coeffs: np.ndarray):
        payoffs.flags.writeable = False
        object.__setattr__(self, "payoffs", payoffs)
        object.__setattr__(self, "grid_step", 1.0 / (grid_n - 1))
        object.__setattr__(self, "_lattice", (grid_n, arity))
        # The map's coefficient rows, which bound the payoffs of a block of
        # the lattice (see ``_block_rows``).
        object.__setattr__(self, "_coeffs", coeffs)

    @property
    def arity(self) -> int:
        return self._lattice[1]

    @cached_property
    def preimages(self) -> np.ndarray:
        """Every row's preimage, column-major and read-only, built on first read."""
        grid_n, arity = self._lattice
        pre = np.empty((len(self), arity), order="F")
        # Each column is its broadcast axis, written through a lattice-shaped
        # view of the column.
        axes = np.meshgrid(*([_axis(grid_n)] * arity), indexing="ij", sparse=True)
        for k, axis in enumerate(axes):
            pre[:, k].reshape((grid_n,) * arity)[...] = axis
        pre.flags.writeable = False
        return pre

    def preimages_at(self, rows: np.ndarray) -> np.ndarray:
        return _lattice_preimages(rows, *self._lattice)


@dataclass(frozen=True, eq=False)
class ParetoBoundary(_PointSet):
    """Pairwise non-dominated points of a cloud, maximal or minimal.

    Stored column-major, like :class:`PointCloud`.
    """

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
    """Optimal collective payoff and the sampled points achieving it, read
    in ``orientation``'s frame as a :class:`ParetoBoundary` is."""

    optimal_sum: float
    witness_payoffs: np.ndarray
    witness_preimages: np.ndarray
    segment_ends: tuple[PayoffPoint, PayoffPoint]
    tolerance: float
    orientation: Orientation


def _axis(grid_n: int) -> np.ndarray:
    """The uniform lattice axis: ``grid_n`` points from 0 to 1."""
    if grid_n < 2:
        raise ValueError(f"grid_n must be at least 2, got {grid_n}")
    return np.linspace(0.0, 1.0, grid_n)


def _lattice_preimages(rows: np.ndarray, grid_n: int, arity: int) -> np.ndarray:
    """The preimages of lattice ``rows``, indices below ``grid_n**arity``:
    the lattice axis at each row's base-``grid_n`` digits, x the most
    significant; column-major.  The digits are taken a block of rows at a
    time, in buffers reused."""
    t = _axis(grid_n)
    out = np.empty((len(rows), arity), order="F")
    size = min(len(rows), _BLOCK)
    high, digit = np.empty(size, dtype=np.intp), np.empty(size, dtype=np.intp)
    for s in range(0, len(rows), _BLOCK):
        r = rows[s:s + _BLOCK]
        q, d = high[:len(r)], digit[:len(r)]
        np.copyto(q, r)
        for k in range(arity - 1, -1, -1):
            np.divmod(q, grid_n, out=(q, d))
            # A digit is in range; "clip" only skips the bounds check.
            np.take(t, d, out=out[s:s + len(r), k], mode="clip")
    return out


def sample_image(payoff_map: PayoffMap, grid_n: int) -> PointCloud:
    """Evaluate the map on a uniform lattice with ``grid_n`` points per axis.

    Only the payoffs are stored; the cloud derives a row's preimage from
    its index (see ``_LatticeCloud``).
    """
    payoffs = _sample(payoff_map.coeffs, grid_n, payoff_map.arity)
    return _LatticeCloud(payoffs, grid_n, payoff_map.arity, payoff_map.coeffs)


def _sample(coeffs, grid_n: int, arity: int) -> np.ndarray:
    """The (n, 2) column-major payoffs of the coefficient rows ``coeffs``
    on the lattice of ``sample_image``, checked finite."""
    # Sparse axes broadcast in the same operation order as full coordinate
    # arrays, so the payoffs are identical without the full-size coordinate
    # temporaries.  The map is evaluated a slab of x-planes at a time,
    # straight into the column-major output: the x axis varies slowest, so
    # each slab is a contiguous run of each payoff column.
    axes = np.meshgrid(*([_axis(grid_n)] * arity), indexing="ij", sparse=True)
    y, z = axes[1], axes[2] if arity == 3 else 0.0
    plane = grid_n ** (arity - 1)
    payoffs = np.empty((grid_n * plane, 2), order="F")
    step = max(1, _BLOCK // plane)
    for i in range(0, grid_n, step):
        x = axes[0][i:i + step]
        rows = slice(i * plane, (i + len(x)) * plane)
        for k in range(2):
            out = payoffs[rows, k].reshape((len(x),) + (grid_n,) * (arity - 1))
            _component(coeffs[k], x, y, z, out=out)
    _PointSet._check_finite(payoffs)
    return payoffs


def _lex_order(payoffs: np.ndarray, preimages: np.ndarray, *leading: np.ndarray) -> np.ndarray:
    """Indices sorting rows by the ``leading`` keys in turn, then (p1, p2), then
    the preimage lexicographically: the package's one tie-break."""
    keys = [preimages[:, k] for k in range(preimages.shape[1] - 1, -1, -1)]
    keys += [payoffs[:, 1], payoffs[:, 0], *reversed(leading)]
    return np.lexsort(tuple(keys))


def _pick(
    payoffs: np.ndarray, preimages: np.ndarray, orientation: Orientation, *leading: np.ndarray
) -> int:
    """Deterministic argmin over (the leading keys in turn, payoff, preimage).

    Payoffs rank in the frame ``-s*p``, with ``s`` the orientation's sign,
    so a tie goes to the payoff better for player 1: the smaller one under
    LOSS, the larger under GAIN.  Negation is exact, so a game and its
    negated twin pick the same row.
    """
    return int(_lex_order(-orientation.sign * payoffs, preimages, *leading)[0])


def _rounding_slack(coeffs, tol: float = 0.0) -> float:
    """``128*eps*(A + tol) + tiny``, with ``A`` the sum of the ``|c|`` of
    ``coeffs`` and ``tiny = 2**-1022``: a bound, with a wide margin, on
    how far rounding can carry a computed lattice payoff, or sum of the two
    payoffs, past a value read off other lattice points.

    ``coeffs`` is one coefficient row for a payoff component, as for the
    Pareto box of ``_dominated_blocks``, or both rows for the payoff sum, as
    for the TU tests of ``_far_from_best``.  Let ``u = eps/2`` be the unit
    roundoff.  Every monomial lies in [0, 1], and each term of a component
    passes through at most five roundings, the sum of the two components
    one more.  So a computed value is within ``E = 6u/(1 - 6u) * A +
    2**-1071 <= 4*eps*A + 2**-1071`` of the exact value ``sigma`` at the
    same lattice point, the second term bounding underflow in the
    products.  ``sigma`` is multilinear in the strategies, so over a box of
    the lattice (a block, or a z column) it is a convex combination of its
    values at the box's corners, and the computed values in the box lie
    within ``2E`` of the range of the computed corner values.

    *A Pareto box.*  With ``m`` the least computed corner value of a
    component, ``|m| <= A + E``, so the computed ``fl(m - slack)`` errs by at
    most ``u*(A + E + slack)`` and is still below ``m - 2E``: no row of the
    box is below it.

    *The TU test.*  Read the optimum as a maximum of ``s*sum``, with ``s``
    the orientation's sign, as negation is exact.  Let ``F`` be the best
    computed corner sum of a box, and ``M`` the best over all boxes; ``M`` is
    a lattice sum, so the optimum is at least ``M``.  A witness passes
    ``|fl(s(p) - opt)| <= tol``, and a subtraction errs by a factor ``1 +
    delta`` with ``|delta| <= u``, so ``s(p) >= opt - tol/(1 - u) >= M -
    tol/(1 - u)``, while ``s(p) <= F + 2E``.  A box that holds a witness so
    has ``M - F <= tol + eps*tol + 8*eps*A + 2**-1070``, which the computed
    ``tol + slack`` exceeds; rounding is monotone, so the computed gap
    ``fl(M - F)`` is at most ``fl(tol + slack)`` and the box is kept.

    An ``A`` beyond the float range gives an infinite slack, which drops
    nothing.
    """
    with np.errstate(over="ignore"):
        return 128.0 * np.finfo(float).eps * (np.abs(coeffs).sum() + tol) + np.finfo(float).tiny


def _over_blocks(ufunc, corners: np.ndarray) -> np.ndarray:
    """``ufunc`` of each block's corner values, from the corner grid: along
    each axis, of every two neighbouring corners."""
    for a in range(corners.ndim):
        head = (slice(None),) * a
        corners = ufunc(corners[head + (slice(None, -1),)], corners[head + (slice(1, None),)])
    return corners


def _dominated_blocks(coeffs, c1: np.ndarray, c2: np.ndarray, sign: float) -> np.ndarray:
    """The blocks every row of which a corner row strictly dominates in
    the minimal frame ``sign * payoffs``: a corner is below the block's
    Pareto box (``_rounding_slack``) in both components."""
    c1, c2 = sign * c1, sign * c2
    box1 = _over_blocks(np.minimum, c1) - _rounding_slack(coeffs[0])
    box2 = _over_blocks(np.minimum, c2) - _rounding_slack(coeffs[1])
    order = np.argsort(c1, axis=None)
    # ``least[j]`` is the least p2 among the corners of the j least p1.
    least = np.minimum.accumulate(np.append(np.inf, c2.ravel()[order]))
    return least[np.searchsorted(c1.ravel()[order], box1)] < box2


def _tu_blocks(coeffs, c1: np.ndarray, c2: np.ndarray, sign: float, tol: float) -> np.ndarray:
    """The blocks that cannot hold a TU witness: their best corner sum
    ``sign * (p1 + p2)`` is too far below the best (``_far_from_best``)."""
    return _far_from_best(_over_blocks(np.maximum, sign * (c1 + c2)), coeffs, tol)


def _far_from_best(best: np.ndarray, coeffs, tol: float) -> np.ndarray:
    """The boxes whose best computed sum ``best`` (read as a maximum) is
    too far below the best of all for a box to hold a TU witness (see
    ``_rounding_slack``).  A NaN gap, from an overflowing sum or a NaN tol,
    keeps its box, so the witness pass fails as it does on the cloud."""
    return best.max() - best > tol + _rounding_slack(coeffs, tol)


def _block_rows(cloud: PointCloud, dropped, *args) -> np.ndarray | None:
    """The rows of a lattice cloud's blocks that ``dropped`` keeps, or None.

    The lattice is cut into blocks of ``_BOUND_EDGE`` points per axis (the
    last block of an axis may be shorter), and a block's corners are the
    lattice points at its own first index and the next block's along each
    axis, the last index closing the last block.  ``dropped(coeffs, c1,
    c2, *args)`` reads the corner grids of the two payoffs and returns the
    mask of blocks no row of which can be in the answer; it is evaluated
    with overflow and invalid operations quiet, as infinities and NaN
    only keep blocks.  Its bound rests on the map being multilinear (see
    ``_rounding_slack``), so only a cloud of ``sample_image`` of at least
    ``_PREFILTER_MIN_ROWS`` rows is cut.

    Returns None, so that the caller reads the whole cloud, unless at
    least ``_BOUND_MIN_DROPPED`` (7 in 8) of the blocks drop: gathering the
    rows of more blocks costs more than it saves, and holds a copy of them.
    Measured on the benchmark's ``dense-geometry`` maps (2-core Xeon,
    Python 3.11, numpy 2.4): TU keeps at most 1.4% of the blocks of any
    of them, and Pareto a median 1.5% (cubes) and 3% (squares) of a generic
    map's, but 100% of a duplicate-heavy square's with opposed slopes and
    a median 18% of such a cube's.  Gathering whatever dropped took 144 to
    161 ops/s against 181 to 184 with the threshold, on seeds 2, 5 and 6,
    and raised peak RSS from 142 to 179, 177 to 225 and 208 to 257 MB.  The
    rows are returned block by block, not in ascending order.
    """
    if not isinstance(cloud, _LatticeCloud) or len(cloud) < _PREFILTER_MIN_ROWS:
        return None
    n, arity = cloud._lattice
    edge = _BOUND_EDGE[arity]
    at = np.ix_(*[np.append(np.arange(0, n, edge), n - 1)] * arity)
    corners = [cloud.payoffs[:, k].reshape((n,) * arity)[at] for k in range(2)]
    with np.errstate(over="ignore", invalid="ignore"):
        drop = dropped(cloud._coeffs, *corners, *args)
    if np.count_nonzero(drop) < _BOUND_MIN_DROPPED * drop.size:
        return None
    # The row (i*n + j)*n + k of each point (i, j, k) of a kept block,
    # built one axis at a time; a short last block has no point at n or past.
    rows, inside, offsets = 0, True, np.arange(edge)
    for a, b in enumerate(np.nonzero(~drop)):
        i = b.reshape((-1,) + (1,) * arity) * edge + offsets.reshape((-1,) + (1,) * (arity - 1 - a))
        rows, inside = rows * n + i, inside & (i < n)
    return rows[np.broadcast_to(inside, rows.shape)]


def _prefilter(payoffs: np.ndarray, sign: float):
    """The O(n) prefilter of ``pareto_filter``, in the minimal frame.

    The frame is ``sign * payoffs``.  The p1 range is cut into ``k`` equal
    buckets, and a row is dropped when its p2 is no smaller than the least
    p2 of any earlier bucket.  Returns the indices of the surviving rows,
    ascending, each row's bucket and each bucket's least frame p2, stored
    as the raw p2; the last two are None when the range is not cut.

    The frame is never built: the passes read the raw payoff columns, a
    block of rows at a time into preallocated buffers, and fold the sign
    in exactly, since negation is exact.  With ``m`` and ``M`` the least
    and greatest p1, the frame's p1 range is ``[m, M]`` or ``[-M, -m]``,
    of span ``fl(M - m)`` either way.  A row's offset into it is ``fl(p1 -
    m)`` in the minimal frame and ``fl(-p1 + M) = fl(M - p1)`` in the
    maximal one, as ``a - b`` is ``a + (-b)`` and addition commutes
    exactly.  In the maximal frame a bucket's least frame p2 is the
    negated greatest raw p2, and ``-p2 < -e`` iff ``p2 > e``, so
    ``np.maximum.at`` and ``>`` on the raw column take the decisions of
    ``np.minimum.at`` and ``<`` on the negated one.  A -0.0 and a 0.0
    compare equal, so which of them a reduction keeps decides nothing.
    The survivors are those of the frame, index for index.
    """
    n = len(payoffs)
    # Tying k to the size keeps the buckets' fixed cost negligible on small
    # clouds (a Nash zone has a few thousand points).
    k = min(4096, n // 16)
    if k < 2:
        return np.arange(n), None, None
    p1, p2 = payoffs[:, 0], payoffs[:, 1]
    lo, hi = p1.min(), p1.max()
    # A constant p1 divides by zero, a span beyond the float range
    # overflows the subtraction and a subnormal span the division; none
    # leaves a usable bucket width.
    with np.errstate(over="ignore", divide="ignore"):
        scale = k / (hi - lo)
    if not (np.isfinite(scale) and scale > 0):
        return np.arange(n), None, None
    minimal = sign > 0
    best, beats, worst = (np.minimum, np.less, np.inf) if minimal else (np.maximum, np.greater, -np.inf)
    blocks = [slice(s, min(s + _BLOCK, n)) for s in range(0, n, _BLOCK)]
    # Block buffers, shared by both passes.
    offset = np.empty(blocks[0].stop)
    index = np.empty(blocks[0].stop, dtype=np.intp)
    # k <= 4096, so a bucket index fits in 16 bits.
    bucket = np.empty(n, dtype=np.int16)
    front = np.full(k, worst)
    for rows in blocks:
        t, i = offset[:rows.stop - rows.start], index[:rows.stop - rows.start]
        if minimal:
            np.subtract(p1[rows], lo, out=t)
        else:
            np.subtract(hi, p1[rows], out=t)
        np.multiply(t, scale, out=t)
        # Truncates toward zero, as astype does.
        np.copyto(i, t, casting="unsafe")
        np.minimum(i, k - 1, out=i)
        best.at(front, i, p2[rows])
        bucket[rows] = i
    earlier = np.empty(k)
    earlier[0] = worst
    best.accumulate(front[:-1], out=earlier[1:])
    keep = np.empty(n, dtype=bool)
    for rows in blocks:
        t, i = offset[:rows.stop - rows.start], index[:rows.stop - rows.start]
        np.copyto(i, bucket[rows])
        # Every index is in range; "clip" only skips the bounds check.
        np.take(earlier, i, out=t, mode="clip")
        beats(p2[rows], t, out=keep[rows])
    # Gathering by index is an order of magnitude faster than by mask.
    return np.flatnonzero(keep), bucket, front


def _drop_corner_dominated(
    payoffs: np.ndarray, rows: np.ndarray, bucket: np.ndarray, front: np.ndarray, sign: float
) -> np.ndarray:
    """The corner step of ``pareto_filter`` on ``_prefilter``'s output.

    In the minimal frame a bucket's corner has the bucket's least p2,
    ``f``, and the least p1, ``c``, among its rows at ``f``.  A survivor
    is kept iff its p1 is below ``c`` or it is a copy of the corner,
    ``p1 == c and p2 == f``; as no row of the bucket has a p2 below ``f``,
    that is the negation of the drop rule argued in ``pareto_filter``.  A
    bucket's rows at ``f`` survive whenever any of its rows does, so
    ``front`` holds ``f`` and the corner is a survivor.  The sign is
    folded in as by ``_prefilter``.  The passes read a block of survivors
    at a time into buffers allocated once, so the cost is that of the
    survivors, and the kept rows are gathered at the front of ``rows``
    itself.  Returns them, ascending; without buckets, ``rows`` as given.
    """
    if bucket is None:
        return rows
    minimal = sign > 0
    best, beats, worst = (np.minimum, np.less, np.inf) if minimal else (np.maximum, np.greater, -np.inf)
    p1, p2 = payoffs[:, 0], payoffs[:, 1]
    m = len(rows)
    blocks = [slice(s, min(s + _BLOCK, m)) for s in range(0, m, _BLOCK)]
    # Block buffers, shared by both passes.  Every index taken is in range;
    # "clip" only skips the bounds check.
    size = blocks[0].stop
    b = np.empty(size, dtype=np.intp)
    v, w = np.empty(size), np.empty(size)
    at, keep = np.empty(size, dtype=bool), np.empty(size, dtype=bool)
    corner = np.full(len(front), worst)
    for blk in blocks:
        r = rows[blk]
        bb, y, f, aa = b[:len(r)], v[:len(r)], w[:len(r)], at[:len(r)]
        np.copyto(bb, bucket[r])
        np.take(p2, r, out=y, mode="clip")
        np.take(front, bb, out=f, mode="clip")
        sel = np.flatnonzero(np.equal(y, f, out=aa))
        best.at(corner, bb[sel], p1.take(r[sel], mode="clip"))
    # Kept rows are moved to the front of ``rows``, which the prefilter
    # allocated; a block's kept rows never outrun its start.
    end = 0
    for blk in blocks:
        r = rows[blk]
        bb, x, c, kk, eq = b[:len(r)], v[:len(r)], w[:len(r)], keep[:len(r)], at[:len(r)]
        np.copyto(bb, bucket[r])
        np.take(p1, r, out=x, mode="clip")
        np.take(corner, bb, out=c, mode="clip")
        beats(x, c, out=kk)
        # A row at the corner's p1 is kept iff it is at its p2 too.
        sel = np.flatnonzero(np.equal(x, c, out=eq))
        kk[sel] = p2.take(r[sel], mode="clip") == front.take(bb[sel], mode="clip")
        kept = np.compress(kk, r)
        rows[end:end + len(kept)] = kept
        end += len(kept)
    return rows[:end].copy()


def _first_of_runs(keys: np.ndarray) -> np.ndarray:
    """Mask of the entries that differ from their predecessor (the first always does)."""
    first = np.empty(len(keys), dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return first


def _run_ids(first: np.ndarray) -> np.ndarray:
    """The run index of every entry, from ``_first_of_runs``, in 32 bits."""
    ids = np.empty(len(first), dtype=np.int32)
    ids[0] = 0
    np.cumsum(first[1:], out=ids[1:])
    return ids


def _pareto_sweep(payoffs: np.ndarray, preimages_at, rows: np.ndarray, sign: float) -> np.ndarray:
    """The boundary among ``rows`` of the minimal frame ``sign * payoffs``.

    ``preimages_at(rows)`` gives the preimages of rows, which only the
    tie-break between copies of one payoff pair reads; None states that
    row order is preimage order, as in a lattice cloud, so the least row
    of the copies is kept and no preimage is read.  Returns the boundary's
    row indices by ascending frame p1; the equivalence with sorting every
    row is argued in ``pareto_filter``.
    """
    p1 = sign * payoffs[:, 0][rows]
    order = np.argsort(p1, kind="stable")
    rows = rows[order]
    first = _first_of_runs(p1[order])
    del p1, order
    starts = np.flatnonzero(first)
    p2 = sign * payoffs[:, 1][rows]
    least = np.minimum.reduceat(p2, starts)
    # The front: runs whose least p2 beats that of every earlier run.
    front = np.empty(len(least), dtype=bool)
    front[0] = True
    front[1:] = least[1:] < np.minimum.accumulate(least)[:-1]
    if len(starts) == len(rows):
        return rows[front]
    # Rows of a front run at its least p2; NaN marks the other runs.
    run = _run_ids(first)
    del first
    sel = np.flatnonzero(p2 == np.where(front, least, np.nan)[run])
    group = run[sel]
    del p2, run
    first = _first_of_runs(group)
    if first.all():
        return rows[sel]
    if preimages_at is None:
        return np.minimum.reduceat(rows[sel], np.flatnonzero(first))
    # ``group`` ascends, so ranking by it first keeps each group in place
    # and ``first`` still marks where the groups start.
    sel = sel[_lex_order(payoffs[rows[sel]], preimages_at(rows[sel]), group)]
    return rows[sel[first]]


def _undominated(payoffs: np.ndarray, sign: float) -> np.ndarray:
    """The rows that the prefilter and corner step keep, or every row of a
    cloud below ``_PREFILTER_MIN_ROWS``."""
    if len(payoffs) < _PREFILTER_MIN_ROWS:
        return np.arange(len(payoffs))
    return _drop_corner_dominated(payoffs, *_prefilter(payoffs, sign), sign)


def pareto_filter(
    cloud: PointCloud | ParetoBoundary,
    orientation: Orientation,
    flavor: Literal["maximal", "minimal"],
) -> ParetoBoundary:
    """Extract the non-dominated points of a cloud.

    ``flavor`` is stated in the plane's numeric order: the minimal boundary
    keeps points with no other point componentwise <= and somewhere <, the
    maximal boundary the mirror image.  Equal payoff pairs collapse to the
    lexicographically smallest preimage, and equal preimages to the first
    row.  The maximal boundary is the minimal one of the negated cloud, the
    *frame*; negation is exact, so the boundary's payoffs are the cloud's
    own rows, sign bits included.

    The reference is the sort-everything filter kept in the test suite:
    sort every row stably by the keys (p1, p2, preimage) in the frame,
    keep the first row of each payoff pair, and keep a row iff its p2 is
    strictly below the least p2 of all earlier rows (Kung, Luccio and
    Preparata's maxima algorithm).  Two cheaper passes give its output bit
    for bit.

    *The prefilter.*  One O(n) pass cuts the p1 range into equal buckets
    and drops every row whose p2 is no smaller than that of a row in an
    earlier bucket.  The bucket index is monotone in p1, so that earlier
    row has a strictly smaller p1 and the dropped row is strictly
    dominated.  Equal payoff pairs share a bucket and so a decision.
    Removing dominated rows removes no non-dominated one and no copy of
    one, and keeps the survivors in input order.

    *The corner step.*  The prefilter never compares rows of one bucket,
    so on a map with many copies of each payoff pair most survive it.  In
    the frame, let ``f`` be a bucket's least p2 and ``c`` the least p1
    among its rows at ``f``: the bucket's corner ``(c, f)`` is a real row.
    A survivor with ``p1 >= c and p2 > f`` or ``p1 > c and p2 >= f`` is
    dropped.  It is no smaller than the corner in either component and
    differs from it, so the corner strictly dominates it, and it is
    neither on the boundary nor a copy of a boundary pair.  The argument
    holds for any grouping of the rows; the prefilter's buckets are used
    because its pass has already found each bucket's ``f``, and a bucket
    with a survivor keeps all its rows at ``f``.  What is kept is the
    rows of p1 below ``c`` and the copies of the corner, in input order,
    at a cost linear in the survivors.

    *The sweep, one key sorted.*  The m survivors are sorted stably by p1
    alone, and ``!=`` cuts them into runs of equal p1; like the sort's
    ``<``, it holds -0.0 equal to 0.0.  In the reference order the first
    row of a run has the run's least p2, and the later ones have no
    smaller p2, so only a run's first row can be kept, and it is kept iff
    the run's least p2 is strictly below the least p2 of every earlier
    run.  That row is the reference's first among the run's rows at its
    least p2, which are copies of one payoff pair: the one with the least
    preimage, compared one coordinate at a time in the sort's order (-0.0
    equal to 0.0, NaN last), and among equal preimages the first in input
    order, which the stable p1 sort keeps within a run.  The copies are
    ranked by ``_lex_order``, the package's one tie-break, whose stable
    ``lexsort`` makes exactly these comparisons.  A run that holds one
    row needs no comparison at all.
    The boundary's p1 is strictly monotone, so the maximal boundary is
    the sweep's output reversed, which is the reference's final sort.

    *Small clouds.*  Below ``_PREFILTER_MIN_ROWS`` (1,600) rows the
    prefilter and corner step are skipped and every row is swept: the sweep
    is exact on any superset of the boundary, so the output is the same.
    The cut-off is measured (2-core Xeon, Python 3.11, numpy 2.4): a
    257-row Nash zone filters in about 70 us without the two passes
    against 180 us with them, and on generic 2D section clouds the two
    cost the same between 1,521 and 1,849 rows.

    *Block bounds.*  A cloud of ``sample_image`` is the image of a lattice
    under a map multilinear in the strategies, so over each block of the
    lattice (16 x 16 points, or 8 x 8 x 8) the exact payoffs lie in the
    convex hull of the block's corner images, and the computed ones in
    that hull's bounding box widened by ``_rounding_slack`` per component.
    Before the passes above, every block whose widened box corner, its
    least p1 and least p2 in the frame, is strictly beaten in both payoffs
    by a corner row is dropped: that corner row strictly dominates each of
    the block's rows, so none is on the boundary or a copy of a boundary
    pair.  The prefilter, corner step and sweep then run on the kept
    blocks' rows, and are exact on any such superset.  Unless at least 7
    blocks in 8 drop (``_block_rows``), the passes read the whole cloud,
    as gathering the kept rows would cost more than it saves; a generic
    map keeps a few percent of its blocks, a duplicate-heavy map with
    opposed slopes, whose rows are nearly all boundary copies, most.

    The cost is O(n) plus O(m log m) for one key, and a pruned lattice
    cloud's O(n) is that of its kept blocks and block corners.  The preimages read
    are those of the rows ranked among copies and of the boundary, through
    ``preimages_at``, so a lattice cloud's are never built.  A lattice
    cloud's rows are in preimage order, so its copies are ranked by row
    index and only the boundary's preimages are read.  The quadratic
    filter in the test suite serves as a second oracle.
    """
    if flavor not in ("maximal", "minimal"):
        raise ValueError(f"flavor must be 'maximal' or 'minimal', got {flavor!r}")
    if len(cloud) == 0:
        raise ValueError("cannot filter an empty cloud")
    sign = 1.0 if flavor == "minimal" else -1.0
    payoffs = cloud.payoffs
    kept = _block_rows(cloud, _dominated_blocks, sign)
    if kept is None:
        rows = _undominated(payoffs, sign)
    else:
        sub = np.empty((len(kept), 2), order="F")
        for k in range(2):
            np.take(payoffs[:, k], kept, out=sub[:, k], mode="clip")
        rows = kept[_undominated(sub, sign)]
    lattice = isinstance(cloud, _LatticeCloud)
    rows = _pareto_sweep(payoffs, None if lattice else cloud.preimages_at, rows, sign)
    if flavor == "maximal":
        rows = rows[::-1]
    return ParetoBoundary(
        payoffs[rows],
        cloud.preimages_at(rows),
        orientation=orientation,
        flavor=flavor,
        grid_step=getattr(cloud, "grid_step", None),
    )


def extrema(points: _PointSet | np.ndarray) -> tuple[PayoffPoint, PayoffPoint]:
    """Componentwise (infimum, supremum) of the payoffs of a cloud, a
    boundary or an (n, 2) array of payoff pairs."""
    if len(points) == 0:
        raise ValueError("cannot take extrema of an empty point set")
    payoffs = points if isinstance(points, np.ndarray) else points.payoffs
    # One reduction per column: over a contiguous vector for a point set,
    # whose payoffs are stored column-major.
    p1, p2 = payoffs[:, 0], payoffs[:, 1]
    return PayoffPoint(p1.min(), p2.min()), PayoffPoint(p1.max(), p2.max())


def orientation_best(points: _PointSet | np.ndarray, orientation: Orientation) -> PayoffPoint:
    """The componentwise best corner of the points per orientation."""
    lo, hi = extrema(points)
    return hi if orientation is Orientation.GAIN else lo


def orientation_worst(points: _PointSet | np.ndarray, orientation: Orientation) -> PayoffPoint:
    """The componentwise worst corner of the points per orientation: the
    componentwise maximum under LOSS, where the paper reads its threats,
    and the minimum under GAIN.  Every default threat read off a set of
    points is this corner."""
    lo, hi = extrema(points)
    return lo if orientation is Orientation.GAIN else hi


def facing_flavor(orientation: Orientation) -> Literal["maximal", "minimal"]:
    """The Pareto flavor facing the orientation: maximal for GAIN, minimal for LOSS."""
    return "maximal" if orientation is Orientation.GAIN else "minimal"


def _tu_witnesses(p1, p2, preimages_of, orientation: Orientation, tol: float) -> TUBoundary:
    """The TU rule on payoff columns; ``preimages_of(sel)`` gives the rows' preimages."""
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    s = orientation.sign
    # One pass, a block at a time, over the sums in the frame ``s*sum``,
    # where the optimum is a maximum; negation is exact.  A witness of the
    # final optimum is within tol of the running best too: its sum is at
    # most the running best r, which is at most the optimum, so
    # 0 >= sum - r >= sum - opt, and rounding keeps the order.  The
    # candidates' sums are formed again by the same operations, so with
    # the same bits, and filtered against the optimum at the end.
    run = None
    rows_near = []
    for start in range(0, len(p1), _BLOCK):
        q = p1[start:start + _BLOCK] + p2[start:start + _BLOCK]
        q *= s
        # The running best is NaN once any sum is, like a reduction of them all.
        run = q.max() if run is None else np.maximum(run, q.max())
        q -= run
        rows_near.append(np.flatnonzero(np.abs(q, out=q) <= tol) + start)
    # A row of two -0.0 sums to -0.0; adding 0.0 reports a zero optimum
    # as 0.0 whatever the sign bits of the rows attaining it.
    opt = s * float(run) + 0.0
    if not np.isfinite(opt):
        raise ValueError("payoff sums must be finite")
    near = np.concatenate(rows_near)
    sel = near[np.abs(s * (p1[near] + p2[near]) - run) <= tol]
    payoffs = np.stack([p1[sel], p2[sel]], axis=1)
    preimages = preimages_of(sel)
    order = _lex_order(payoffs, preimages)
    payoffs = payoffs[order]
    preimages = preimages[order]
    ends = (PayoffPoint(*payoffs[0]), PayoffPoint(*payoffs[-1]))
    return TUBoundary(opt, payoffs, preimages, ends, tol, orientation)


def tu_boundary(
    cloud: PointCloud, orientation: Orientation, tol: float = 1e-9
) -> TUBoundary:
    """Best collective payoff p1+p2 over the cloud and its witnesses.

    The optimum is the max of the coordinate sum under GAIN and the min
    under LOSS; witnesses are the sampled points within ``tol`` of it,
    ordered by p1, and ``segment_ends`` are the extreme witness payoffs.
    For a payoff map on the cube, :func:`lattice_tu` reads the same
    witnesses on the lattice without building the cloud.

    A cloud of ``sample_image`` is read a block of its lattice at a time:
    the map is multilinear, so a block's computed sums lie within twice
    the rounding error of its corner sums' range (``_rounding_slack``).
    A block whose best corner sum is too far below the best corner sum of
    all to hold a witness (``_far_from_best``, the test ``lattice_tu``
    makes per column) is skipped, and the witness pass reads the rest,
    which hold the optimum and every witness.  Witnesses are ordered by
    payoff and preimage, so which rows were read changes no bit.  Unless
    at least 7 blocks in 8 drop, as on a constant-sum map, the whole cloud
    is read (``_block_rows``).
    """
    p1, p2 = cloud.payoffs[:, 0], cloud.payoffs[:, 1]
    kept = _block_rows(cloud, _tu_blocks, orientation.sign, tol)
    if kept is None:
        return _tu_witnesses(p1, p2, cloud.preimages_at, orientation, tol)
    return _tu_witnesses(p1[kept], p2[kept], lambda sel: cloud.preimages_at(kept[sel]), orientation, tol)


def lattice_tu(
    payoff_map: PayoffMap, grid_n: int, orientation: Orientation, tol: float = 1e-9
) -> tuple[TUBoundary, PayoffPoint, PayoffPoint]:
    """``tu_boundary`` and ``extrema`` of ``sample_image(payoff_map, grid_n)``.

    Returns the TU boundary and the componentwise (infimum, supremum), bit
    for bit those of the cloud.  An arity-2 map has no z faces to save
    work on, so both are read off its cloud, whose ``tu_boundary`` reads
    only the blocks that can hold a witness.  A cube's cloud is never
    built: the map is evaluated on the lattice's two z-faces, ``z = 0``
    and ``z = 1``, and then in full only on the candidate ``(x, y)``
    columns; preimages are formed for the witness rows only.  Two
    arguments make this exact.

    *Extrema need no slack.*  ``eval_arrays`` computes a component as
    ``fl(fl(S + fl(c3*z)) + T)``, where ``S``, the rounded sum of the
    constant, x and y terms, and ``T = fl(fl(c4*x)*y)`` do not depend on
    ``z``.  Each step is monotone in its varying operand, since rounding
    is, so each computed component is monotone (non-strictly) in ``z``
    along a column, and its least and greatest values lie on a face.  No
    NaN can arise, as every sum has a finite right operand, and an
    overflow to an infinity is a column extremum, so it lies on a face
    too.  A lattice payoff is -0.0 only when each monomial term is, which
    needs a -0.0 constant and no positive coefficient, and then no payoff
    is +0.0.  So a component's zeros share one sign, and the face
    reductions give a zero extremum the sign that ``extrema``'s reductions
    of the cloud give it.

    *The TU sum needs a slack.*  A column is a box of the lattice whose
    corners are its two face points, so ``_far_from_best`` keeps every
    column whose best face sum is close enough to the best of all to hold a
    witness, with the slack that ``_rounding_slack`` proves; an infinite
    slack keeps every column.  The optimum is itself a witness, so the
    candidate rows have the lattice's optimum and exactly its witnesses.
    ``_tu_witnesses`` orders them by payoff and then by preimage, which is
    unique per lattice point, so the row order does not matter.

    A generic map keeps one column or a few; a constant-sum map keeps them
    all, which costs the full lattice plus its two faces.
    """
    if payoff_map.arity == 2:
        cloud = sample_image(payoff_map, grid_n)
        return (tu_boundary(cloud, orientation, tol), *extrema(cloud))
    t = _axis(grid_n)
    # The (x, y) point of each column, in one row: heights lead, so each
    # operation runs along a row of columns, not along a short column.  The
    # operations are those of the whole lattice, so the bits are too.
    xs = np.repeat(t, grid_n)[None, :]
    ys = np.tile(t, grid_n)[None, :]
    f1, f2 = payoff_map.eval_arrays(xs, ys, t[[0, -1], None])
    ext = np.array([f1.min(), f2.min(), f1.max(), f2.max()])
    if not np.isfinite(ext).all():
        raise ValueError("payoffs must be finite")
    sums = orientation.sign * (f1 + f2)
    cand = np.flatnonzero(~_far_from_best(np.maximum(sums[0], sums[-1]), payoff_map.coeffs, tol))
    p1, p2 = payoff_map.eval_arrays(xs[:, cand], ys[:, cand], t[:, None])

    def preimages_of(sel):
        # Witness sel is at height k over column col, lattice row cand[col]·n + k.
        k, col = divmod(sel, len(cand))
        return _lattice_preimages(cand[col] * grid_n + k, grid_n, 3)

    tub = _tu_witnesses(p1.ravel(), p2.ravel(), preimages_of, orientation, tol)
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

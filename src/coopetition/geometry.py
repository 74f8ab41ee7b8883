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
from functools import cached_property, lru_cache
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
#: prefilter, the TU witness pass), so that their temporaries stay below
#: the mmap threshold; sampling takes at least one x-plane per block.
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

#: Fewer rows to read, of a cloud, its kept blocks or a cube's face, go
#: straight to the Pareto sweep unread (``_undominated``): the bucket
#: passes' fixed cost outweighs what they save below about 1,600 rows.
#: Lattice clouds below it skip the block bounds too.
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

    def __init__(self, payoffs: np.ndarray, grid_n: int, payoff_map: PayoffMap):
        payoffs.flags.writeable = False
        object.__setattr__(self, "payoffs", payoffs)
        object.__setattr__(self, "grid_step", 1.0 / (grid_n - 1))
        object.__setattr__(self, "_lattice", (grid_n, payoff_map.arity))
        # The map, whose coefficients bound the payoffs of a block of the
        # lattice (``_block_rows``) and whose columns the TU pass evaluates
        # (``_column_witnesses``).
        object.__setattr__(self, "_map", payoff_map)

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
        for k, axis in enumerate(_sparse_axes(grid_n, arity)):
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


@lru_cache(maxsize=32)
def _axis(grid_n: int) -> np.ndarray:
    """The uniform lattice axis: ``grid_n`` points from 0 to 1.

    Built once per ``grid_n`` and shared by every caller, so it is
    read-only.  A ``grid_n`` below 2 raises on every call, as an exception
    is not cached."""
    if grid_n < 2:
        raise ValueError(f"grid_n must be at least 2, got {grid_n}")
    t = np.linspace(0.0, 1.0, grid_n)
    t.flags.writeable = False
    return t


def _sparse_axes(grid_n: int, arity: int) -> list[np.ndarray]:
    """The lattice's axes, x first, as views of ``_axis`` shaped to
    broadcast against each other: the values of ``np.meshgrid(...,
    indexing="ij", sparse=True)`` without building it."""
    t = _axis(grid_n)
    return [t.reshape((-1,) + (1,) * (arity - 1 - k)) for k in range(arity)]


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
    return _LatticeCloud(payoffs, grid_n, payoff_map)


def _sample(coeffs, grid_n: int, arity: int) -> np.ndarray:
    """The (n, 2) column-major payoffs of the coefficient rows ``coeffs``
    on the lattice of ``sample_image``, all finite: they are checked unless
    ``_cannot_overflow`` proves them so."""
    # Sparse axes broadcast in the same operation order as full coordinate
    # arrays, so the payoffs are identical without the full-size coordinate
    # temporaries.  The map is evaluated a slab of x-planes at a time,
    # straight into the column-major output: the x axis varies slowest, so
    # each slab is a contiguous run of each payoff column.
    axes = _sparse_axes(grid_n, arity)
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
    if not _cannot_overflow(coeffs):
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
    for the column test of ``_column_witnesses``.  Let ``u = eps/2`` be the
    unit roundoff.  Every monomial lies in [0, 1], and each term of a
    component passes through at most five roundings, the sum of the two
    components one more.  So a computed value is within ``E = 6u/(1 - 6u)
    * A + 2**-1071 <= 4*eps*A + 2**-1071`` of the exact value ``sigma`` at
    the same lattice point, the second term bounding underflow in the
    products.  ``sigma`` is multilinear in the strategies, so over a box of
    the lattice (a block, or a column along the last axis) it is a convex
    combination of its values at the box's corners, and the computed
    values in the box lie within ``2E`` of the range of the computed corner
    values.

    *A Pareto box.*  With ``m`` the least computed corner value of a
    component, ``|m| <= A + E``, so the computed ``fl(m - slack)`` errs by at
    most ``u*(A + E + slack)`` and is still below ``m - 2E``: no row of the
    box is below it.

    *The TU test.*  The boxes are the lattice's columns along its last
    axis, whose corners are their two ends, and they cover the lattice.
    Read the optimum as a maximum of ``s*sum``, with ``s`` the
    orientation's sign, as negation is exact.  Let ``F`` be the best
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


def _cannot_overflow(coeffs) -> bool:
    """Whether every lattice payoff of the coefficient rows ``coeffs`` is
    finite by proof: the sum of the ``|c|`` of each row, added left to
    right in float arithmetic, is finite.

    ``_component`` computes ``fl(fl(fl(fl(c0 + t1) + t2) + t3) + t4)``,
    with ``t1 = fl(c1*x)``, ``t2 = fl(c2*y)``, ``t3 = fl(c3*z)`` and ``t4 =
    fl(fl(c4*x)*y)``, and every monomial is in [0, 1].  Rounding is
    monotone and symmetric about zero, so ``|fl(a*m)| <= |a|`` for a float
    ``a`` and ``|m| <= 1``, and ``|fl(a + b)| = fl(|a + b|) <=
    fl(alpha + beta)`` whenever ``|a| <= alpha`` and ``|b| <= beta``.  By
    induction along the formula's own order of additions, each partial sum
    of a payoff is at most the same partial sum of ``|c0|, ..., |c4|`` in
    magnitude.  If the bound's last sum is finite, so is every partial sum
    of every payoff, and no NaN can arise, as it needs an infinite or NaN
    operand.  An infinite or NaN coefficient, as a section's folded
    constant can be, makes the bound infinite or NaN, and the payoffs are
    then checked.  The sums are taken on Python floats, which round as
    float64 and do not warn on overflow.
    """
    if isinstance(coeffs, np.ndarray):
        coeffs = coeffs.tolist()
    return all(abs(c0) + abs(c1) + abs(c2) + abs(c3) + abs(c4) < np.inf for c0, c1, c2, c3, c4 in coeffs)


def _over_blocks(corners: np.ndarray) -> np.ndarray:
    """Each block's least corner value, from the corner grid: along each
    axis, the lesser of every two neighbouring corners."""
    for a in range(corners.ndim):
        head = (slice(None),) * a
        corners = np.minimum(corners[head + (slice(None, -1),)], corners[head + (slice(1, None),)])
    return corners


def _dominated_blocks(coeffs, c1: np.ndarray, c2: np.ndarray, sign: float) -> np.ndarray:
    """The blocks every row of which a corner row strictly dominates in
    the minimal frame ``sign * payoffs``: a corner is below the block's
    Pareto box (``_rounding_slack``) in both components."""
    c1, c2 = sign * c1, sign * c2
    box1 = _over_blocks(c1) - _rounding_slack(coeffs[0])
    box2 = _over_blocks(c2) - _rounding_slack(coeffs[1])
    order = np.argsort(c1, axis=None)
    # ``least[j]`` is the least p2 among the corners of the j least p1.
    least = np.minimum.accumulate(np.append(np.inf, c2.ravel()[order]))
    return least[np.searchsorted(c1.ravel()[order], box1)] < box2


def _block_rows(cloud: PointCloud, sign: float) -> np.ndarray | None:
    """The rows of a lattice cloud's blocks that can hold a point of its
    Pareto boundary in the minimal frame ``sign * payoffs``, or None.

    The lattice is cut into blocks of ``_BOUND_EDGE`` points per axis (the
    last block of an axis may be shorter), and a block's corners are the
    lattice points at its own first index and the next block's along each
    axis, the last index closing the last block.  ``_dominated_blocks``
    reads the corner grids of the two payoffs and drops the blocks no row
    of which can be on the boundary; it is evaluated with overflow and
    invalid operations quiet, as infinities and NaN only keep blocks.  Its
    bound rests on the map being multilinear (see ``_rounding_slack``), so
    only a cloud of ``sample_image`` of at least ``_PREFILTER_MIN_ROWS``
    rows is cut.

    Returns None, so that the caller reads the whole cloud, unless at
    least ``_BOUND_MIN_DROPPED`` (7 in 8) of the blocks drop: gathering the
    rows of more blocks costs more than it saves, and holds a copy of them.
    Measured on the benchmark's ``dense-geometry`` maps (2-core Xeon,
    Python 3.11, numpy 2.4): a median 1.5% (cubes) and 3% (squares) of a
    generic map's blocks are kept, but 100% of a duplicate-heavy square's
    with opposed slopes.  A cube reaches the bound only when its z slopes
    are opposed in the frame (*Faces* in ``pareto_filter``), and such a
    duplicate-heavy cube with opposed slopes keeps a median 39% (50 calls,
    the first 96 maps of seeds 1 to 4).  Gathering whatever dropped took
    144 to 161 ops/s against 181 to 184 with the threshold, on seeds 2, 5
    and 6, and raised peak RSS from 142 to 179, 177 to 225 and 208 to 257
    MB.  The rows are returned block by block, not in ascending order.
    """
    if not isinstance(cloud, _LatticeCloud) or len(cloud) < _PREFILTER_MIN_ROWS:
        return None
    n, arity = cloud._lattice
    edge = _BOUND_EDGE[arity]
    at = np.ix_(*[np.append(np.arange(0, n, edge), n - 1)] * arity)
    corners = [cloud.payoffs[:, k].reshape((n,) * arity)[at] for k in range(2)]
    with np.errstate(over="ignore", invalid="ignore"):
        drop = _dominated_blocks(cloud._map.coeffs, *corners, sign)
    if np.count_nonzero(drop) < _BOUND_MIN_DROPPED * drop.size:
        return None
    # The row (i*n + j)*n + k of each point (i, j, k) of a kept block,
    # built one axis at a time; a short last block has no point at n or past.
    rows, inside, offsets = 0, True, np.arange(edge)
    for a, b in enumerate(np.nonzero(~drop)):
        i = b.reshape((-1,) + (1,) * arity) * edge + offsets.reshape((-1,) + (1,) * (arity - 1 - a))
        rows, inside = rows * n + i, inside & (i < n)
    return rows[np.broadcast_to(inside, rows.shape)]


def _undominated(payoffs: np.ndarray, sign: float, lattice: bool, kept: np.ndarray | None) -> np.ndarray:
    """The rows ``kept`` of a cloud, or all of them when ``kept`` is None,
    that ``pareto_filter``'s prefilter and corner step keep in the minimal
    frame ``sign * payoffs``; ``payoffs`` are the cloud's.

    Fewer than ``_PREFILTER_MIN_ROWS`` rows are returned unread, and rows
    whose p1 range has no usable bucket width are returned whole.
    Otherwise the rows ``kept`` are gathered column-major, the p1 range is
    cut into ``k`` equal buckets, and four passes read the rows, then the
    survivors, a block at a time into one set of buffers:

    - each row's bucket, and each bucket's least p2 ``f``;
    - the prefilter: a row survives iff its p2 is below the ``f`` of every
      earlier bucket;
    - each bucket's corner p1 ``c``, the least p1 among its survivors at
      ``f``; a bucket's rows at ``f`` survive whenever any of its rows
      does, so the corner is a survivor;
    - the corner step: a survivor is kept iff its p1 is below ``c`` or it
      is a copy of the corner, ``p1 == c and p2 == f``.  As no row of the
      bucket has a p2 below ``f``, that is the negation of the drop rule
      argued in ``pareto_filter``.  On a ``lattice`` cloud only the least
      cloud row among a bucket's copies of its corner is kept (*Copies* in
      ``pareto_filter``).

    The kept rows are returned as cloud rows, in the order of ``kept`` or
    ascending, and a lattice cloud's corner copies follow the others.

    The frame is never built: the passes read the raw payoff columns and
    fold the sign in exactly, since negation is exact.  With ``m`` and
    ``M`` the least and greatest p1, the frame's p1 range is ``[m, M]`` or
    ``[-M, -m]``, of span ``fl(M - m)`` either way.  A row's offset into it
    is ``fl(p1 - m)`` in the minimal frame and ``fl(-p1 + M) = fl(M - p1)``
    in the maximal one, as ``a - b`` is ``a + (-b)`` and addition commutes
    exactly.  In the maximal frame a least frame value is the negated
    greatest raw one, and ``-a < -b`` iff ``a > b``, so ``np.maximum`` and
    ``>`` on the raw columns take the decisions of ``np.minimum`` and ``<``
    on the negated ones.  A -0.0 and a 0.0 compare equal, so which of them
    a reduction keeps decides nothing.  The decisions are those of the
    frame, row for row.
    """
    n = len(payoffs) if kept is None else len(kept)
    if n < _PREFILTER_MIN_ROWS:
        return np.arange(n) if kept is None else kept
    if kept is not None:
        gathered = np.empty((n, 2), order="F")
        for j in range(2):
            np.take(payoffs[:, j], kept, out=gathered[:, j], mode="clip")
        payoffs = gathered
    p1, p2 = payoffs[:, 0], payoffs[:, 1]
    # Tying k to the size keeps the buckets' fixed cost negligible on small
    # clouds (a Nash zone has a few thousand points); the size gate makes
    # it at least 100.
    k = min(4096, n // 16)
    lo, hi = p1.min(), p1.max()
    # A constant p1 divides by zero, a span beyond the float range
    # overflows the subtraction and a subnormal span the division; none
    # leaves a usable bucket width.
    with np.errstate(over="ignore", divide="ignore"):
        scale = k / (hi - lo)
    if not (np.isfinite(scale) and scale > 0):
        return np.arange(n) if kept is None else kept
    minimal = sign > 0
    best, beats, worst = (np.minimum, np.less, np.inf) if minimal else (np.maximum, np.greater, -np.inf)
    # Block buffers, shared by the four passes.  Every index taken is in
    # range; "clip" only skips the bounds check.
    size = min(n, _BLOCK)
    b = np.empty(size, dtype=np.intp)
    v, w = np.empty(size), np.empty(size)
    at, keep = np.empty(size, dtype=bool), np.empty(size, dtype=bool)
    # k <= 4096, so a bucket index fits in 16 bits.
    bucket = np.empty(n, dtype=np.int16)
    front = np.full(k, worst)
    for s in range(0, n, _BLOCK):
        x = p1[s:s + _BLOCK]
        t, i = v[:len(x)], b[:len(x)]
        if minimal:
            np.subtract(x, lo, out=t)
        else:
            np.subtract(hi, x, out=t)
        np.multiply(t, scale, out=t)
        # Truncates toward zero, as astype does.
        np.copyto(i, t, casting="unsafe")
        np.minimum(i, k - 1, out=i)
        best.at(front, i, p2[s:s + _BLOCK])
        bucket[s:s + _BLOCK] = i
    earlier = np.empty(k)
    earlier[0] = worst
    best.accumulate(front[:-1], out=earlier[1:])
    survives = np.empty(n, dtype=bool)
    for s in range(0, n, _BLOCK):
        y = p2[s:s + _BLOCK]
        t, i = v[:len(y)], b[:len(y)]
        np.copyto(i, bucket[s:s + _BLOCK])
        np.take(earlier, i, out=t, mode="clip")
        beats(y, t, out=survives[s:s + _BLOCK])
    # Gathering by index is an order of magnitude faster than by mask.
    rows = np.flatnonzero(survives)
    del survives
    corner = np.full(k, worst)
    for s in range(0, len(rows), _BLOCK):
        r = rows[s:s + _BLOCK]
        bb, y, f, aa = b[:len(r)], v[:len(r)], w[:len(r)], at[:len(r)]
        np.copyto(bb, bucket[r])
        np.take(p2, r, out=y, mode="clip")
        np.take(front, bb, out=f, mode="clip")
        sel = np.flatnonzero(np.equal(y, f, out=aa))
        best.at(corner, bb[sel], p1.take(r[sel], mode="clip"))
    # Kept rows are moved to the front of ``rows``; a block's kept rows
    # never outrun its start.
    end = 0
    none = np.iinfo(np.intp).max
    least = np.full(k, none) if lattice else None
    for s in range(0, len(rows), _BLOCK):
        r = rows[s:s + _BLOCK]
        bb, x, c, kk, eq = b[:len(r)], v[:len(r)], w[:len(r)], keep[:len(r)], at[:len(r)]
        np.copyto(bb, bucket[r])
        np.take(p1, r, out=x, mode="clip")
        np.take(corner, bb, out=c, mode="clip")
        beats(x, c, out=kk)
        # A row at the corner's p1 is a copy of the corner iff it is at its
        # p2 too: kept, or on a lattice ranked by its cloud row.
        sel = np.flatnonzero(np.equal(x, c, out=eq))
        copy = p2.take(r[sel], mode="clip") == front.take(bb[sel], mode="clip")
        if least is None:
            kk[sel] = copy
        else:
            sel = sel[copy]
            np.minimum.at(least, bb[sel], r[sel] if kept is None else kept.take(r[sel], mode="clip"))
        survivors = np.compress(kk, r)
        rows[end:end + len(survivors)] = survivors
        end += len(survivors)
    rows = rows[:end] if kept is None else kept.take(rows[:end], mode="clip")
    # A copy, so that no view holds the survivors' buffer.
    return rows.copy() if least is None else np.concatenate((rows, least[least != none]))


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


def _better_face(cloud: _LatticeCloud, sign: float) -> int | None:
    """The z index of the cube face whose rows weakly dominate their
    columns in the minimal frame ``sign * payoffs``: 0 when ``sign * c3``
    is non-negative in both components, ``grid_n - 1`` when it is
    non-positive in both, else None, as for a square (*Faces* in
    ``pareto_filter``).  A zero counts as either sign."""
    grid_n, arity = cloud._lattice
    if arity != 3:
        return None
    c3 = [sign * c for c in cloud._map.coeffs[:, 3].tolist()]
    if min(c3) >= 0.0:
        return 0
    if max(c3) <= 0.0:
        return grid_n - 1
    return None


def _first_copies(payoffs: np.ndarray, rows: np.ndarray, grid_n: int) -> np.ndarray:
    """For each row of ``rows``, the first row of its lattice column (the
    ``grid_n`` rows that share its x and y) equal to it in both payoffs.
    The columns are read a block of them at a time, so no temporary holds
    more than ``_BLOCK`` rows, or one column."""
    first = np.empty_like(rows)
    height = np.arange(grid_n)
    step = max(1, _BLOCK // grid_n)
    for s in range(0, len(rows), step):
        r = rows[s:s + step]
        base = r - r % grid_n
        column = base[:, None] + height
        same = payoffs[:, 0].take(column) == payoffs[:, 0].take(r)[:, None]
        same &= payoffs[:, 1].take(column) == payoffs[:, 1].take(r)[:, None]
        first[s:s + step] = base + same.argmax(axis=1)
    return first


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

    *The prefilter.*  One O(n) pass (``_undominated``) cuts the p1 range
    into equal buckets and drops every row whose p2 is no smaller than
    that of a row in an earlier bucket.  The bucket index is monotone in
    p1, so that earlier row has a strictly smaller p1 and the dropped row
    is strictly dominated.  Equal payoff pairs share a bucket and so a
    decision.  Removing dominated rows removes no non-dominated one and
    no copy of one, and keeps the survivors in input order.

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
    at a cost linear in the survivors: ``_undominated`` runs both steps,
    on the raw payoff columns with the frame folded in.

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

    *Small clouds.*  Below ``_PREFILTER_MIN_ROWS`` (1,600) rows to read,
    of a cloud, its kept blocks or a face, ``_undominated`` returns them
    unread, and every one is swept: the sweep is exact on any superset of
    the boundary, so the output is the same.
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

    *Faces.*  In a cube of ``sample_image``, z enters a payoff once, as
    ``fl(fl(S + fl(c3*z)) + T)`` with ``S`` and ``T`` free of z, so each
    computed component is monotone in z along a lattice column, the rows
    that share x and y (``lattice_tu``'s argument): non-decreasing in the
    frame where ``sign * c3`` is positive or zero, non-increasing where it
    is negative or zero.  When that holds for both components in one
    direction, one z-face, z = 0 or z = 1 (``_better_face``), holds in
    each column a row no greater in the frame than any row of the column
    in both payoffs.  A row of the column that differs from its face row
    is strictly dominated, so it is neither on the boundary nor a copy of
    a boundary pair.  The cube's boundary pairs are then the face's, as a
    face row strictly dominated by a cube row would be by that row's face
    row, and the passes above run on the face's ``n**2`` rows alone, with
    no block bounds.  Rows are numbered ``(i*n + j)*n + k``, with ``k``
    the z index, so the least row holding a boundary pair lies in the
    least column whose face row holds it, the face row that the sweep
    keeps, and is the first row of that column equal to the pair.  On the
    z = 0 face that is the face row itself; on the z = 1 face each
    boundary row's column is scanned, a block of columns at a time
    (``_first_copies``).  A cube whose z slopes are opposed in the frame
    reads the whole cloud or its kept blocks.

    *Copies.*  Of the copies of a boundary pair, the sweep keeps the least
    row of a lattice cloud.  All copies of a pair share a bucket and every
    decision, so the copies of a bucket's corner that reach the corner
    step are all the copies of the corner's pair among the rows read.  On
    a lattice cloud ``_undominated`` keeps only the least cloud row among
    them, the row the sweep would keep, and the sweep is exact on any
    superset of the rows it keeps.  On a duplicate-heavy map with opposed
    slopes nearly every row is a copy of its bucket's corner, so about one
    row per bucket is left to sort, instead of nearly the whole cloud.

    The cost is O(n) plus O(m log m) for one key.  A pruned lattice
    cloud's O(n) is that of its kept blocks and block corners, and a cube
    with a better face reads its ``n**2`` face rows and ``n`` rows per
    boundary row on the z = 1 face.  The preimages read
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
    lattice = isinstance(cloud, _LatticeCloud)
    face = _better_face(cloud, sign) if lattice else None
    if face is None:
        kept = _block_rows(cloud, sign)
    else:
        grid_n = cloud._lattice[0]
        kept = np.arange(face, len(cloud), grid_n)
    rows = _undominated(payoffs, sign, lattice, kept)
    rows = _pareto_sweep(payoffs, None if lattice else cloud.preimages_at, rows, sign)
    if face:
        # A row of the z = 1 face is the last of its column, not the first.
        rows = _first_copies(payoffs, rows, grid_n)
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


def _column_witnesses(payoff_map: PayoffMap, grid_n: int, orientation: Orientation, tol: float, faces=None):
    """``tu_boundary`` of ``sample_image(payoff_map, grid_n)``, read off the
    map by the lattice's columns along its last axis: the ``grid_n`` rows
    that share every index but the last, y on a square and z on a cube.

    ``faces`` are the map's two components on the lattice's two end faces,
    last index 0 and ``grid_n - 1``, heights leading, as ``lattice_tu``
    evaluates them; they are evaluated here when None, and overwritten.
    The operations are those of the whole lattice on sparse axes, so the
    bits are the cloud's.  The map is affine along a column, so a column
    is a box of the lattice whose corners are its two ends, and a column
    whose best end sum is too far below the best of all cannot hold a
    witness, with the slack that ``_rounding_slack`` proves (*The TU
    test*); an infinite slack keeps every column, and so does a NaN gap,
    from an overflowing sum or a NaN tol, so that the witness pass fails
    as it does on the cloud.  The optimum is itself a witness, so the
    kept columns, evaluated in full, have the lattice's optimum and
    exactly its witnesses.  ``_tu_witnesses`` orders them by payoff and
    then by preimage, which is unique per lattice point, so the row order
    does not matter.  The preimages are formed for the witness rows only.

    A generic map keeps one column or a few; a constant-sum map, or one
    whose optimum runs along an edge across the columns, keeps them all,
    which costs the full lattice plus its two faces.
    """
    t = _axis(grid_n)
    if faces is None:
        arity = payoff_map.arity
        faces = payoff_map.eval_arrays(*_sparse_axes(grid_n, arity - 1), t[[0, -1]].reshape((2,) + (1,) * (arity - 1)))
    # The end sums in the frame, where the optimum is a maximum, and each
    # column's best of them, formed in place in the first component.
    sums = np.add(*faces, out=faces[0])
    sums *= orientation.sign
    best = np.maximum(sums[0], sums[1], out=sums[0])
    cand = np.flatnonzero(~(best.max() - best > tol + _rounding_slack(payoff_map.coeffs, tol)))
    # The axis indices of each candidate column, x first.
    at = np.unravel_index(cand, best.shape)
    p1, p2 = payoff_map.eval_arrays(*[t[i] for i in at], t[:, None])

    def preimages_of(sel):
        # Witness sel is at height k over candidate column col.
        k, col = divmod(sel, len(cand))
        return np.stack([*[t[i[col]] for i in at], t[k]], axis=1)

    return _tu_witnesses(p1.ravel(), p2.ravel(), preimages_of, orientation, tol)


def tu_boundary(cloud: PointCloud, orientation: Orientation, tol: float = 1e-9) -> TUBoundary:
    """Best collective payoff p1+p2 over the cloud and its witnesses.

    The optimum is the max of the coordinate sum under GAIN and the min
    under LOSS; witnesses are the sampled points within ``tol`` of it,
    ordered by p1, and ``segment_ends`` are the extreme witness payoffs.
    For a payoff map on the cube, :func:`lattice_tu` reads the same
    witnesses on the lattice without building the cloud.

    A cloud of ``sample_image`` is read off its map, not its rows
    (``_column_witnesses``): only the lattice columns along the last axis
    whose two ends can hold a witness are evaluated, with the bits of the
    cloud's rows.  Any other point set is read whole, a block of rows at
    a time.
    """
    if len(cloud) == 0:
        raise ValueError("cannot take the TU optimum of an empty point set")
    if isinstance(cloud, _LatticeCloud):
        return _column_witnesses(cloud._map, cloud._lattice[0], orientation, tol)
    return _tu_witnesses(cloud.payoffs[:, 0], cloud.payoffs[:, 1], cloud.preimages_at, orientation, tol)


def lattice_tu(
    payoff_map: PayoffMap, grid_n: int, orientation: Orientation, tol: float = 1e-9
) -> tuple[TUBoundary, PayoffPoint, PayoffPoint]:
    """``tu_boundary`` and ``extrema`` of ``sample_image(payoff_map, grid_n)``.

    Returns the TU boundary and the componentwise (infimum, supremum), bit
    for bit those of the cloud.  An arity-2 map has no z faces to read its
    extrema off, so a square still samples its cloud, for exact extrema,
    and its ``tu_boundary`` reads the cloud's y columns off the map.  A
    cube's cloud is never built: the map is evaluated on the lattice's two
    z-faces, ``z = 0`` and ``z = 1``, with the cached axis broadcast as
    sparse x, y and z views, which give the extrema, and the TU pass
    (``_column_witnesses``) reads the same faces and then evaluates in
    full only the candidate ``(x, y)`` columns.  Two arguments make this
    exact.

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

    *The TU sum needs a slack.*  The exact sum is affine along any column
    of the last axis, so a column is a box of the lattice whose corners
    are its two ends, and ``_column_witnesses`` keeps every column whose
    best end sum is close enough to the best of all to hold a witness,
    with the slack that ``_rounding_slack`` proves.
    """
    if payoff_map.arity == 2:
        cloud = sample_image(payoff_map, grid_n)
        return (tu_boundary(cloud, orientation, tol), *extrema(cloud))
    t = _axis(grid_n)
    # The two faces on sparse axes, heights leading, so each operation runs
    # along a row of columns, not along a short column.
    f1, f2 = faces = payoff_map.eval_arrays(t[:, None], t, t[[0, -1], None, None])
    ext = np.array([f1.min(), f2.min(), f1.max(), f2.max()])
    if not np.isfinite(ext).all():
        raise ValueError("payoffs must be finite")
    tub = _column_witnesses(payoff_map, grid_n, orientation, tol, faces)
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

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
        c = self.coeffs.copy()
        c[:, 0] += c[:, 3] * float(z)
        c[:, 3] = 0.0
        return PayoffMap(c, arity=2)


def _component(c: np.ndarray, x, y, z, out: np.ndarray | None = None):
    """One payoff component ``c0 + c1*x + c2*y + c3*z + (c4*x)*y``.

    The one home of the payoff formula, so every caller gets the same
    bits.  The terms are summed left to right, and the z term is added
    even where z is 0.0, since ``c3*0.0`` can be -0.0 and so decide the
    sign of a zero sum.  The z term is added into ``out`` if given, else
    into a new array, and the xy term in place.
    """
    p = np.add(c[0] + c[1] * x + c[2] * y, c[3] * z, out=out)
    p += c[4] * x * y
    return p


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

    def __init__(self, payoffs: np.ndarray, grid_n: int, arity: int):
        self._check_finite(payoffs)
        payoffs.flags.writeable = False
        object.__setattr__(self, "payoffs", payoffs)
        object.__setattr__(self, "grid_step", 1.0 / (grid_n - 1))
        object.__setattr__(self, "_lattice", (grid_n, arity))

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
    """Optimal collective payoff and the sampled points achieving it."""

    optimal_sum: float
    witness_payoffs: np.ndarray
    witness_preimages: np.ndarray
    segment_ends: tuple[PayoffPoint, PayoffPoint]
    tolerance: float


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
    # Sparse axes broadcast in the same operation order as full coordinate
    # arrays, so the payoffs are identical without the full-size coordinate
    # temporaries.  The map is evaluated a slab of x-planes at a time,
    # straight into the column-major output: the x axis varies slowest, so
    # each slab is a contiguous run of each payoff column.
    arity = payoff_map.arity
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
            _component(payoff_map.coeffs[k], x, y, z, out=out)
    return _LatticeCloud(payoffs, grid_n, arity)


def _lex_order(payoffs: np.ndarray, preimages: np.ndarray, *leading: np.ndarray) -> np.ndarray:
    """Indices sorting rows by the ``leading`` keys in turn, then (p1, p2), then
    the preimage lexicographically: the package's one tie-break."""
    keys = [preimages[:, k] for k in range(preimages.shape[1] - 1, -1, -1)]
    keys += [payoffs[:, 1], payoffs[:, 0], *reversed(leading)]
    return np.lexsort(tuple(keys))


def _drop_dominated(payoffs: np.ndarray, sign: float) -> np.ndarray:
    """The surviving rows of ``_prefilter``."""
    return _prefilter(payoffs, sign)[0]


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
    tie-break between copies of one payoff pair reads.  Returns the
    boundary's row indices by ascending frame p1; the equivalence with
    sorting every row is argued in ``pareto_filter``.
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
    pre = preimages_at(rows[sel])
    for k in range(pre.shape[1]):
        # Keep the copies at the group's least preimage coordinate k.  Like
        # a sort, fmin ranks NaN last, and an all-NaN group stays whole.
        v = pre[:, k]
        floor = np.fmin.reduceat(v, np.flatnonzero(first))
        ids = _run_ids(first)
        keep = v == floor[ids]
        if np.isnan(floor).any():
            keep |= np.isnan(floor)[ids]
        sel, group, pre = sel[keep], group[keep], pre[keep]
        first = _first_of_runs(group)
        if first.all():
            return rows[sel]
    # Copies left here agree in every key; the first in input order wins.
    return rows[sel[first]]


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
    order, which the stable p1 sort keeps within a run.  A run that holds one row needs no comparison at all.
    The boundary's p1 is strictly monotone, so the maximal boundary is
    the sweep's output reversed, which is the reference's final sort.

    The cost is O(n) plus O(m log m) for one key.  The preimages read
    are those of the rows ranked among copies and of the boundary, through
    ``preimages_at``, so a lattice cloud's are never built.  The quadratic
    filter in the test suite serves as a second oracle.
    """
    if flavor not in ("maximal", "minimal"):
        raise ValueError(f"flavor must be 'maximal' or 'minimal', got {flavor!r}")
    if len(cloud) == 0:
        raise ValueError("cannot filter an empty cloud")
    sign = 1.0 if flavor == "minimal" else -1.0
    payoffs = cloud.payoffs
    rows = _drop_corner_dominated(payoffs, *_prefilter(payoffs, sign), sign)
    rows = _pareto_sweep(payoffs, cloud.preimages_at, rows, sign)
    if flavor == "maximal":
        rows = rows[::-1]
    return ParetoBoundary(
        payoffs[rows],
        cloud.preimages_at(rows),
        orientation=orientation,
        flavor=flavor,
        grid_step=getattr(cloud, "grid_step", None),
    )


def extrema(cloud: PointCloud | ParetoBoundary) -> tuple[PayoffPoint, PayoffPoint]:
    """Componentwise (infimum, supremum) of the sampled payoffs."""
    if len(cloud) == 0:
        raise ValueError("cannot take extrema of an empty point set")
    # One reduction per column, each over a contiguous vector.
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
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    gain = orientation is Orientation.GAIN
    best, pick = (np.max, np.maximum) if gain else (np.min, np.minimum)
    # One pass, a block at a time, against the best sum so far.  A witness
    # of the final optimum is within tol of that running best too: under
    # GAIN its sum s is at most the running best r, which is at most the
    # optimum, so 0 >= s - r >= s - opt, and rounding keeps the order.
    # The candidates are filtered against the optimum at the end.
    run = None
    rows_near, sums_near = [], []
    for start in range(0, len(p1), _BLOCK):
        sums = p1[start:start + _BLOCK] + p2[start:start + _BLOCK]
        # The running best is NaN once any sum is, like a reduction of them all.
        run = best(sums) if run is None else pick(run, best(sums))
        gap = sums - run
        near = np.flatnonzero(np.abs(gap, out=gap) <= tol)
        rows_near.append(near + start)
        sums_near.append(sums[near])
    # A row of two -0.0 sums to -0.0; adding 0.0 reports a zero optimum
    # as 0.0 whatever the sign bits of the rows attaining it.
    opt = float(run) + 0.0
    if not np.isfinite(opt):
        raise ValueError("payoff sums must be finite")
    sel = np.concatenate(rows_near)[np.abs(np.concatenate(sums_near) - opt) <= tol]
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
        cloud.payoffs[:, 0], cloud.payoffs[:, 1], cloud.preimages_at, orientation, tol
    )


def _columns(payoff_map: PayoffMap, x: np.ndarray, y: np.ndarray, z: np.ndarray):
    """(p1, p2) on the lattice columns over the points ``(x[i], y[i])``.

    Row ``k`` holds the payoffs at height ``z[k]`` and column ``i`` those
    over ``(x[i], y[i])``; an arity-2 map has no height, so its one row
    holds the points themselves.  The operations are those of the whole
    lattice, so the bits are too.  Heights lead, so each operation runs
    along a row of columns, not along a short column.
    """
    if payoff_map.arity == 2:
        return payoff_map.eval_arrays(x[None, :], y[None, :])
    return payoff_map.eval_arrays(x[None, :], y[None, :], z[:, None])


def lattice_tu(
    payoff_map: PayoffMap, grid_n: int, orientation: Orientation, tol: float = 1e-9
) -> tuple[TUBoundary, PayoffPoint, PayoffPoint]:
    """``tu_boundary`` and ``extrema`` of ``sample_image(payoff_map, grid_n)``.

    Returns the TU boundary and the componentwise (infimum, supremum), bit
    for bit those of the cloud, which is never built.  The map is evaluated
    on the lattice's two z-faces, ``z = 0`` and ``z = 1``, and then in full
    only on the candidate ``(x, y)`` columns; preimages are formed for the
    witness rows only.  An arity-2 lattice is its own single face, and each
    of its columns a single point.  Two arguments make this exact.

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

    *The TU sum needs a slack.*  Read the optimum as a maximum of ``s*sum``
    with ``s`` the orientation's sign, as negation is exact.  Let ``u =
    eps/2`` be the unit roundoff and ``A`` the sum of all ten ``|c|``.
    Every monomial lies in [0, 1], and each term of a component passes
    through at most five roundings, the sum of the two components one
    more.  So a computed sum ``s(z)`` is within ``E = 6u/(1 - 6u) * A +
    2**-1071 <= 4*eps*A + 2**-1071`` of the exact sum ``sigma(z)`` at the
    same lattice point, the second term bounding underflow in the ten
    products.  ``sigma`` is affine in ``z``
    over a column, so ``s(z) <= sigma(z) + E <= max(sigma(0), sigma(1)) + E
    <= F + 2E``, where ``F`` is the column's best face sum.  Let ``M`` be
    the best face sum of all; it is a lattice sum, so the optimum is at
    least ``M``.  A witness passes ``|fl(s(z) - opt)| <= tol``, and a
    subtraction errs by a factor ``1 + delta`` with ``|delta| <= u``, so
    ``s(z) >= opt - tol/(1 - u) >= M - tol/(1 - u)``.  Together, ``M - F
    <= tol + eps*tol + 8*eps*A + 2**-1070``, which the computed ``tol +
    slack`` exceeds by a wide margin with ``slack = 128*eps*(A + tol) +
    tiny`` (``tiny = 2**-1022``).  Rounding is monotone, so the computed
    gap ``fl(M - F)`` is then at most the computed ``fl(tol + slack)``,
    and the test keeps every column that holds a witness; an infinite
    slack keeps every column.  The optimum is itself a witness, so the
    candidate rows have the lattice's optimum and exactly its witnesses.
    ``_tu_witnesses`` orders them by payoff and then by preimage, which is
    unique per lattice point, so the row order does not matter.

    A generic map keeps one column or a few; a constant-sum map keeps them
    all, which costs the full lattice plus its two faces.
    """
    t = _axis(grid_n)
    # The (x, y) point of each column.
    xs = np.repeat(t, grid_n)
    ys = np.tile(t, grid_n)
    f1, f2 = _columns(payoff_map, xs, ys, t[[0, -1]])
    ext = np.array([f1.min(), f2.min(), f1.max(), f2.max()])
    if not np.isfinite(ext).all():
        raise ValueError("payoffs must be finite")
    sums = orientation.sign * (f1 + f2)
    best = np.maximum(sums[0], sums[-1])
    eps = np.finfo(float).eps
    slack = 128.0 * eps * (np.abs(payoff_map.coeffs).sum() + tol) + np.finfo(float).tiny
    # A NaN gap (an overflowing sum, or a NaN tol) keeps its column, so the
    # witness pass fails as it does on the cloud.
    cand = np.flatnonzero(~(best.max() - best > tol + slack))
    xs, ys = xs[cand], ys[cand]
    p1, p2 = _columns(payoff_map, xs, ys, t)

    def preimages_of(sel):
        # Witness sel is at height k over column col, lattice row cand[col]·n + k.
        k, col = divmod(sel, len(cand))
        rows = cand[col] * grid_n + k if payoff_map.arity == 3 else cand[col]
        return _lattice_preimages(rows, grid_n, payoff_map.arity)

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

"""Independent brute-force oracles used to cross-check the implementations.

Everything here is deliberately naive: exhaustive deviation scans, O(n^2)
dominance filtering, full pairwise distance matrices.  The production code
must agree with these on every input the tests feed both sides.
"""

from __future__ import annotations

import csv

import numpy as np

from coopetition import geometry
from coopetition.bargaining import SolutionPoint, payoff_core
from coopetition.coopetitive import (
    CoopetitiveGame,
    section_game,
    tu_crossing_solution,
)
from coopetition.errors import EmptyPortion, MissingInitialZ
from coopetition.games import FiniteBimatrixGame, Orientation, PayoffPoint, StrategyCell
from coopetition.geometry import (
    PointCloud,
    extrema,
    facing_flavor,
    orientation_worst,
    pareto_filter,
    sample_image,
    tu_boundary,
    tu_line,
)
from coopetition.mixed import (
    VERIFY_TOL,
    EquilibriumComponent,
    MixedBistrategy,
    _intersect,
    _conservative_value,
    _maximin_lines,
    _solve_linear,
    bilinear_map,
)


#: Coefficients whose payoffs are all at most zero, -0.0 at the cube's origin.
SIGNED_ZERO_COEFFS = [[-0.0, -1, -1, -1, -1], [-0.0, -2, -1, -1, -3]]


def brute_pure_nash(game: FiniteBimatrixGame) -> set[StrategyCell]:
    """Pure equilibria by checking every unilateral deviation explicitly."""
    s = game.orientation.sign
    out = set()
    for r in range(game.rows):
        for c in range(game.cols):
            ok = True
            for r2 in range(game.rows):
                if s * game.payoff1[r2, c] > s * game.payoff1[r, c]:
                    ok = False
            for c2 in range(game.cols):
                if s * game.payoff2[r, c2] > s * game.payoff2[r, c]:
                    ok = False
            if ok:
                out.add(StrategyCell(r, c))
    return out


def brute_dominant(game: FiniteBimatrixGame, player: int, strict: bool) -> set[int]:
    s = game.orientation.sign
    m = s * game.payoff1 if player == 1 else (s * game.payoff2).T
    out = set()
    for i in range(m.shape[0]):
        good = True
        for j in range(m.shape[0]):
            if j == i:
                continue
            for k in range(m.shape[1]):
                if strict and not m[i, k] > m[j, k]:
                    good = False
                if not strict and not m[i, k] >= m[j, k]:
                    good = False
        if good:
            out.add(i)
    return out


def brute_conservative(game: FiniteBimatrixGame):
    s = game.orientation.sign
    v1 = s * max(min(s * game.payoff1[r, c] for c in range(game.cols)) for r in range(game.rows))
    v2 = s * max(min(s * game.payoff2[r, c] for r in range(game.rows)) for c in range(game.cols))
    return (v1, v2)


def brute_pareto_indices(payoffs: np.ndarray, preimages: np.ndarray, flavor: str) -> np.ndarray:
    """Indices of the non-dominated points, deduped like the fast filter.

    A point is dominated when another is componentwise at least as good
    and somewhere strictly better; equal payoff pairs keep the
    lexicographically smallest preimage.
    """
    sign = 1.0 if flavor == "maximal" else -1.0
    p = sign * payoffs
    n = len(p)
    keep = np.ones(n, dtype=bool)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if (p[j] >= p[i]).all() and (p[j] > p[i]).any():
                keep[i] = False
                break
    idx = [i for i in range(n) if keep[i]]
    # Collapse payoff duplicates onto the lexicographically smallest preimage.
    best: dict[tuple[float, float], int] = {}
    for i in idx:
        key = (payoffs[i, 0], payoffs[i, 1])
        if key not in best or tuple(preimages[i]) < tuple(preimages[best[key]]):
            best[key] = i
    return np.array(sorted(best.values()), dtype=int)


def dedupe_sorted(payoffs: np.ndarray, preimages: np.ndarray):
    """Sort by (p1, p2, preimage lex) and keep one row per payoff pair.

    The stable 4- or 5-key ``lexsort`` that ``pareto_filter`` ran before
    its one-key sweep; -0.0 and 0.0 tie, so equal rows keep input order.
    """
    keys = [preimages[:, k] for k in range(preimages.shape[1] - 1, -1, -1)]
    order = np.lexsort(tuple(keys + [payoffs[:, 1], payoffs[:, 0]]))
    p = payoffs[order]
    first = np.ones(len(p), dtype=bool)
    first[1:] = np.any(p[1:] != p[:-1], axis=1)
    return p[first], preimages[order[first]]


def running_min_sweep(payoffs: np.ndarray, preimages: np.ndarray):
    """Kung, Luccio and Preparata's sweep over unique rows sorted by (p1, p2).

    A row is on the minimal boundary iff its p2 is strictly below the
    running minimum of all earlier rows.
    """
    mask = np.ones(len(payoffs), dtype=bool)
    mask[1:] = payoffs[1:, 1] < np.minimum.accumulate(payoffs[:, 1])[:-1]
    return payoffs[mask], preimages[mask]


def sort_pareto(payoffs: np.ndarray, preimages: np.ndarray, flavor: str):
    """The sort-everything Pareto filter that ``pareto_filter`` must match.

    Every row is sorted by (p1, p2, preimage lex) in the minimal frame, one
    row is kept per payoff pair, and a running minimum of p2 sweeps out the
    dominated rows; the maximal boundary is mapped back and re-sorted by
    payoff.  Returns the boundary's (payoffs, preimages).
    """
    work = payoffs if flavor == "minimal" else -payoffs
    p, pre = running_min_sweep(*dedupe_sorted(work, preimages))
    if flavor == "maximal":
        p = -p
        order = np.lexsort((p[:, 1], p[:, 0]))
        p, pre = p[order], pre[order]
    return p, pre


def drop_dominated(payoffs: np.ndarray, sign: float) -> np.ndarray:
    """The bucket prefilter of ``pareto_filter`` on the negated frame itself.

    The frame ``sign * payoffs`` is built a block of rows at a time, its
    p1 range is cut into ``k`` equal buckets, and a row is dropped when its
    frame p2 is no smaller than the least frame p2 of any earlier bucket.
    This is the row-major form of the survivors that ``geometry._undominated``
    finds with passes over the raw payoff columns; returns the surviving row
    indices, ascending.
    """
    k = min(4096, len(payoffs) // 16)
    if k < 2:
        return np.arange(len(payoffs))
    p1 = payoffs[:, 0]
    lo, hi = (p1.min(), p1.max()) if sign > 0 else (-p1.max(), -p1.min())
    with np.errstate(over="ignore", divide="ignore"):
        scale = k / (hi - lo)
    if not (np.isfinite(scale) and scale > 0):
        return np.arange(len(payoffs))
    blocks = [slice(s, s + geometry._BLOCK) for s in range(0, len(payoffs), geometry._BLOCK)]
    bucket = np.empty(len(payoffs), dtype=np.int16)
    least = np.full(k, np.inf)
    for rows in blocks:
        b = ((sign * payoffs[rows, 0] - lo) * scale).astype(np.intp)
        np.minimum(b, k - 1, out=b)
        np.minimum.at(least, b, sign * payoffs[rows, 1])
        bucket[rows] = b
    earlier = np.concatenate(([np.inf], np.minimum.accumulate(least[:-1])))
    keep = np.empty(len(payoffs), dtype=bool)
    for rows in blocks:
        keep[rows] = sign * payoffs[rows, 1] < earlier[bucket[rows]]
    return np.flatnonzero(keep)


def prefilter_sort_pareto(payoffs: np.ndarray, preimages: np.ndarray, flavor: str):
    """``pareto_filter`` as it was before the one-key sweep.

    The survivors of the frame prefilter ``drop_dominated``, in input
    order, go through the full-key sort, dedupe and running-minimum sweep
    of ``sort_pareto``.
    """
    rows = drop_dominated(payoffs, 1.0 if flavor == "minimal" else -1.0)
    return sort_pareto(payoffs[rows], preimages[rows], flavor)


def lattice_image(payoff_map, grid_n: int):
    """Payoffs and preimages of a map on the full meshgrid, stacked by hand."""
    t = np.linspace(0.0, 1.0, grid_n)
    grids = np.meshgrid(*([t] * payoff_map.arity), indexing="ij")
    pre = np.stack([g.ravel() for g in grids], axis=1)
    p1, p2 = payoff_map.eval_arrays(*(pre[:, k] for k in range(payoff_map.arity)))
    return np.stack([p1, p2], axis=1), pre


def brute_hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    d = np.hypot(a[:, None, 0] - b[None, :, 0], a[:, None, 1] - b[None, :, 1])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def csv_reference(path, scene) -> None:
    """The scene CSV written row by row: ``csv.writer`` and ``repr`` per float."""
    header = ["x", "y", "z"][: scene.arity] + ["p1", "p2", "tag"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for tag, pre, pay in scene.blocks:
            writer.writerows([*map(repr, row), tag] for row in np.hstack([pre, pay]).tolist())


def is_mixed_equilibrium(game: FiniteBimatrixGame, x: float, y: float, grid: int = 101,
                         tol: float = 1e-12) -> bool:
    """Best-response check over a probability grid, per orientation."""
    m = bilinear_map(game)
    s = game.orientation.sign
    t = np.linspace(0.0, 1.0, grid)
    own1 = s * m.eval_arrays(t, np.full_like(t, y))[0]
    own2 = s * m.eval_arrays(np.full_like(t, x), t)[1]
    return bool(
        own1.max() <= s * m.eval_arrays(x, y)[0] + tol
        and own2.max() <= s * m.eval_arrays(x, y)[1] + tol
    )


def exact_conservative_mixed(game: FiniteBimatrixGame) -> tuple[float, float]:
    """Closed-form conservative bi-value of a 2x2 mixed extension.

    The inner extremum over the opponent's mixture of a bilinear payoff is
    attained at a pure reply, so each player's guarantee is the min (after
    orientation adjustment) of two linear functions of his own mixture, a
    concave piecewise-linear function maximized at 0, 1, or the tie point.
    """
    m = bilinear_map(game)
    s = game.orientation.sign
    out = []
    for component, own_is_x in ((0, True), (1, False)):

        def reply(own: float, opp: float) -> float:
            x, y = (own, opp) if own_is_x else (opp, own)
            return s * float(m.eval_arrays(x, y)[component])

        def guarantee(own: float) -> float:
            return min(reply(own, 0.0), reply(own, 1.0))

        candidates = [0.0, 1.0]
        # Tie point of the two replies: reply(t, 0) = reply(t, 1).
        d0 = reply(1.0, 0.0) - reply(0.0, 0.0)
        d1 = reply(1.0, 1.0) - reply(0.0, 1.0)
        c0 = reply(0.0, 0.0)
        c1 = reply(0.0, 1.0)
        if d0 != d1:
            t = (c1 - c0) / (d0 - d1)
            if 0.0 < t < 1.0:
                candidates.append(t)
        out.append(s * max(guarantee(t) for t in candidates))
    return out[0], out[1]


def section_corners(game: CoopetitiveGame, z: float) -> np.ndarray:
    """Each player's payoffs at the corners of the section at ``z``, shape
    (2, 2, 2) with ``[k, i, j]`` at x = i, y = j: one cell evaluation of the
    section map at a time."""
    m = section_game(game, z)
    cells = [[m.eval(float(x), float(y)).as_tuple() for y in (0, 1)] for x in (0, 1)]
    return np.moveaxis(np.array(cells), 2, 0)


def corner_bivalue(corners: np.ndarray, orientation: Orientation) -> PayoffPoint:
    """The conservative bi-value of a 2x2 game from its ``section_corners``:
    the maximin of two lines per player, as ``numpy_conservative_bivalue_mixed``."""
    s = orientation.sign
    g1, g2 = s * corners
    return PayoffPoint(s * _maximin_lines(g1[:, 0], g1[:, 1]) + 0.0, s * _maximin_lines(g2[0], g2[1]) + 0.0)


def numpy_bilinear_map(game: FiniteBimatrixGame) -> geometry.PayoffMap:
    """``mixed.bilinear_map`` filled entry by entry into a numpy array."""
    coeffs = np.zeros((2, 5))
    for k, p in enumerate((game.payoff1, game.payoff2)):
        coeffs[k, 0] = p[1, 1]
        coeffs[k, 1] = p[0, 1] - p[1, 1]
        coeffs[k, 2] = p[1, 0] - p[1, 1]
        coeffs[k, 4] = p[0, 0] - p[0, 1] - p[1, 0] + p[1, 1]
    return geometry.PayoffMap(coeffs, arity=2)


def _numpy_verify_equilibrium(game: FiniteBimatrixGame, m, x: float, y: float) -> None:
    s = game.orientation.sign
    pure = np.array([0.0, 1.0])
    best1 = (s * m.eval_arrays(pure, np.full(2, y))[0]).max()
    best2 = (s * m.eval_arrays(np.full(2, x), pure)[1]).max()
    here1, here2 = (s * v for v in m.eval_arrays(x, y))
    tol1, tol2 = VERIFY_TOL * np.maximum(1.0, np.abs(m.coeffs).sum(axis=1))
    if best1 > here1 + tol1 or best2 > here2 + tol2:
        raise AssertionError(f"best-response verification failed at ({x}, {y})")


def numpy_mixed_equilibrium_components(game: FiniteBimatrixGame) -> list[EquilibriumComponent]:
    """``mixed.mixed_equilibrium_components`` on numpy scalars and arrays:
    the oriented tables as arrays, each verification and payoff extreme an
    evaluation of ``bilinear_map``."""
    s = game.orientation.sign
    p1 = s * game.payoff1
    p2 = s * game.payoff2
    a1 = (p1[0, 0] - p1[1, 0]) - (p1[0, 1] - p1[1, 1])
    b1 = p1[0, 1] - p1[1, 1]
    a2 = (p2[0, 0] - p2[0, 1]) - (p2[1, 0] - p2[1, 1])
    b2 = p2[1, 0] - p2[1, 1]
    classes = [((1.0, 1.0), "ge"), ((0.0, 0.0), "le"), ((0.0, 1.0), "eq")]
    boxes = []
    for x_box, rel1 in classes:
        y_cond = _solve_linear(a1, b1, rel1)
        if y_cond is None:
            continue
        for y_box, rel2 in classes:
            x_cond = _solve_linear(a2, b2, rel2)
            if x_cond is None:
                continue
            xi = _intersect(x_box, x_cond)
            yi = _intersect(y_box, y_cond)
            if xi is not None and yi is not None:
                boxes.append((xi, yi))

    def contains(outer, inner) -> bool:
        (oxl, oxh), (oyl, oyh) = outer
        (ixl, ixh), (iyl, iyh) = inner
        return oxl <= ixl and ixh <= oxh and oyl <= iyl and iyh <= oyh

    kept = []
    for box in boxes:
        if any(contains(other, box) for other in boxes if other != box):
            continue
        if box not in kept:
            kept.append(box)
    kept.sort()
    payoff = numpy_bilinear_map(game)
    components = []
    for (xl, xh), (yl, yh) in kept:
        xl, xh, yl, yh = float(xl), float(xh), float(yl), float(yh)
        corners = sorted({(xl, yl), (xl, yh), (xh, yl), (xh, yh)})
        for cx, cy in corners:
            _numpy_verify_equilibrium(game, payoff, cx, cy)
        degenerate = int(xl == xh) + int(yl == yh)
        components.append(
            EquilibriumComponent(
                extreme_points=tuple(MixedBistrategy(cx, cy) for cx, cy in corners),
                description={2: "isolated point", 1: "segment", 0: "rectangle"}[degenerate],
                payoff_extremes=tuple(payoff.eval(cx, cy) for cx, cy in corners),
                x_interval=(xl, xh),
                y_interval=(yl, yh),
            )
        )
    return components


def numpy_conservative_bivalue_mixed(game: FiniteBimatrixGame) -> PayoffPoint:
    """``mixed.conservative_bivalue_mixed`` with the four oriented corner
    payoffs evaluated as one meshgrid."""
    s = game.orientation.sign
    x, y = np.meshgrid((0.0, 1.0), (0.0, 1.0), indexing="ij")
    g1, g2 = (s * p for p in numpy_bilinear_map(game).eval_arrays(x, y))
    v1 = _maximin_lines(g1[:, 0], g1[:, 1])
    v2 = _maximin_lines(g2[0, :], g2[1, :])
    return PayoffPoint(s * v1 + 0.0, s * v2 + 0.0)


def numpy_map_components(m: geometry.PayoffMap, orientation: Orientation) -> list[EquilibriumComponent]:
    """The mixed equilibrium components of an arity-2 coefficient map, on
    numpy scalars: player 1's advantage of x = 1 over x = 0 is c1 + c4*y and
    player 2's of y = 1 over y = 0 is d2 + d4*x, read off ``m.coeffs``.
    Every extreme is checked against both pure replies, up to ``VERIFY_TOL``
    per unit of the player's sum of |coefficients|, and its payoff is
    ``m.eval``."""
    s = orientation.sign
    c, d = m.coeffs
    classes = [((1.0, 1.0), "ge"), ((0.0, 0.0), "le"), ((0.0, 1.0), "eq")]
    boxes = []
    for x_box, rel1 in classes:
        y_cond = _solve_linear(s * c[4], s * c[1], rel1)
        for y_box, rel2 in classes:
            x_cond = _solve_linear(s * d[4], s * d[2], rel2)
            if y_cond is None or x_cond is None:
                continue
            xi, yi = _intersect(x_box, x_cond), _intersect(y_box, y_cond)
            if xi is not None and yi is not None:
                boxes.append((tuple(map(float, xi)), tuple(map(float, yi))))
    tol = VERIFY_TOL * np.maximum(1.0, np.abs(m.coeffs).sum(axis=1))
    components = []
    for xi, yi in sorted(set(boxes)):
        if any(o != (xi, yi) and o[0][0] <= xi[0] and xi[1] <= o[0][1] and o[1][0] <= yi[0] and yi[1] <= o[1][1]
               for o in boxes):
            continue
        corners = sorted({(cx, cy) for cx in xi for cy in yi})
        for cx, cy in corners:
            here = s * np.array(m.eval_arrays(cx, cy))
            best1 = (s * m.eval_arrays(np.array([0.0, 1.0]), np.full(2, cy))[0]).max()
            best2 = (s * m.eval_arrays(np.full(2, cx), np.array([0.0, 1.0]))[1]).max()
            if best1 > here[0] + tol[0] or best2 > here[1] + tol[1]:
                raise AssertionError(f"best-response verification failed at ({cx}, {cy})")
        components.append(
            EquilibriumComponent(
                extreme_points=tuple(MixedBistrategy(cx, cy) for cx, cy in corners),
                description=("rectangle", "segment", "isolated point")[(xi[0] == xi[1]) + (yi[0] == yi[1])],
                payoff_extremes=tuple(m.eval(cx, cy) for cx, cy in corners),
                x_interval=xi,
                y_interval=yi,
            )
        )
    return components


def _section_nash(game: CoopetitiveGame, z: float, grid_n: int):
    """Payoffs and (x, y) lattice of every Nash component of one section."""
    m = section_game(game, z)
    payoffs, lattice = [], []
    for comp in numpy_map_components(m, game.orientation):
        (xl, xh), (yl, yh) = comp.x_interval, comp.y_interval
        xs = np.array([xl]) if xl == xh else np.linspace(xl, xh, grid_n)
        ys = np.array([yl]) if yl == yh else np.linspace(yl, yh, grid_n)
        gx, gy = (a.ravel() for a in np.meshgrid(xs, ys, indexing="ij"))
        payoffs.append(np.stack(m.eval_arrays(gx, gy), axis=1))
        lattice.append(np.stack([gx, gy], axis=1))
    return np.concatenate(payoffs), np.concatenate(lattice)


def per_section_path(game: CoopetitiveGame, quantity: str, grid_n: int) -> list:
    """``induced_path`` samples by a separate 2x2 analysis of every section."""
    samples = []
    for z in game.c_grid:
        if quantity == "nash_payoffs":
            arr = _section_nash(game, z, grid_n)[0]
        elif quantity == "conservative":
            arr = np.array([corner_bivalue(section_corners(game, z), game.orientation).as_tuple()])
        else:
            corners = section_corners(game, z).reshape(2, 4).T
            arr = (corners.max if quantity == "supremum" else corners.min)(axis=0, keepdims=True)
        samples.append((float(z), arr))
    return samples


def per_section_zone(game: CoopetitiveGame, grid_n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nash zone payoffs and (x, y, z) preimages, one section at a time."""
    payoffs, preimages = [], []
    for z in game.c_grid:
        pay, lattice = _section_nash(game, z, grid_n)
        payoffs.append(pay)
        preimages.append(np.column_stack([lattice, np.full(len(lattice), z)]))
    return np.concatenate(payoffs), np.concatenate(preimages)


def whole_row_tu(cloud, orientation: Orientation, tol: float):
    """``tu_boundary`` read off every row of ``cloud``: on a plain
    ``PointCloud`` copy, as a ``sample_image`` cloud is read off its map by
    the column pass that ``lattice_tu`` runs too."""
    return tu_boundary(PointCloud(cloud.payoffs, cloud.preimages, cloud.grid_step), orientation, tol)


def cloud_tu_compromise(game: CoopetitiveGame, a, b, grid_n: int, tol: float = 1e-6):
    """The TU compromise with its TU pass on every row of the game's sampled cloud."""
    tub = whole_row_tu(sample_image(game.payoff, grid_n), game.orientation, tol)
    return tu_crossing_solution(tub, a, b)


def cloud_core_supremum(game: CoopetitiveGame, z: float, grid_n: int) -> PayoffPoint:
    """``core_supremum`` by its definition: the section's sampled cloud,
    its facing Pareto boundary, the portion weakly better than the
    conservative bi-value of the section map's corners, and that portion's
    orientation-worst corner (its componentwise maximum under LOSS)."""
    sec = section_game(game, z)
    boundary = pareto_filter(
        sample_image(sec, grid_n), game.orientation, facing_flavor(game.orientation)
    )
    core = payoff_core(boundary, corner_bivalue(section_corners(game, z), game.orientation))
    if len(core) == 0:
        raise EmptyPortion(f"the payoff core of the section at z={z} is empty")
    return orientation_worst(core, game.orientation)


def negated_frame_core_supremum(game: CoopetitiveGame, z: float, grid_n: int) -> PayoffPoint | None:
    """``core_supremum``'s four masked reductions on the negated copy ``q =
    s*p`` of the section's payoff columns, where greater is better under
    either orientation; None for an empty core."""
    rows = geometry._fold_z(game.payoff.coeffs, z)
    s = game.orientation.sign
    v = _conservative_value(s, rows)
    q1, q2 = s * geometry._sample(rows, grid_n, 2).T
    mask = (q1 >= s * v.p1) & (q2 >= s * v.p2)
    if not mask.any():
        return None
    q1, q2 = q1[mask], q2[mask]
    return PayoffPoint(s * q1[q2 == q2.max()].max(), s * q2[q1 == q1.max()].max())


def stacked_extreme_path(game: CoopetitiveGame, quantity: str) -> np.ndarray:
    """The supremum or infimum path as one (len(c_grid), 1, 2) array: every
    section's four corner payoffs stacked, then reduced over the corners."""
    rows = geometry._fold_z(game.payoff.coeffs, game.c_grid[:, None])
    x, y = np.array([[0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0]])
    corners = np.stack([geometry._component(c, x, y, 0.0) for c in rows], axis=-1)
    return (np.max if quantity == "supremum" else np.min)(corners, axis=1, keepdims=True)


def stacked_section_payoffs(
    game: CoopetitiveGame, x: np.ndarray, y: np.ndarray, axis: int = -1
) -> np.ndarray:
    """Payoffs at (x, y) in every section as one new array, the two
    components stacked along ``axis``: shape (len(c_grid), len(x), 2) by
    default, (2, len(c_grid), len(x)) with ``axis=0``."""
    rows = geometry._fold_z(game.payoff.coeffs, game.c_grid[:, None])
    return np.stack([geometry._component(c, x, y, 0.0) for c in rows], axis=axis)


def per_section_roundtrip(game: CoopetitiveGame, grid_n: int = 17) -> bool:
    """``family_roundtrip_check`` one section at a time: each section map
    against the full map on the full (x, y) meshgrid, in ``c_grid`` order."""
    t = np.linspace(0.0, 1.0, grid_n)
    x, y = np.meshgrid(t, t, indexing="ij")
    tol = 1e-12 * max(1.0, np.abs(game.payoff.coeffs).sum(axis=1).max())
    for z in game.c_grid:
        s1, s2 = section_game(game, z).eval_arrays(x, y)
        f1, f2 = game.payoff.eval_arrays(x, y, np.full_like(x, z))
        if np.abs(s1 - f1).max() > tol or np.abs(s2 - f2).max() > tol:
            return False
    return True


def cloud_standard_win_win(game: CoopetitiveGame, grid_n: int, tol: float = 1e-6) -> SolutionPoint:
    """``standard_win_win_solution`` from the public cloud functions.

    The core supremum comes from ``cloud_core_supremum``, and the TU data
    from ``whole_row_tu`` and ``extrema`` of ``sample_image`` of the whole
    cube, not from ``lattice_tu``.
    """
    if game.initial_z is None:
        raise MissingInitialZ("the standard win-win solution needs initial_z set")
    L = cloud_core_supremum(game, game.initial_z, grid_n)
    cloud = sample_image(game.payoff, grid_n)
    tub = whole_row_tu(cloud, game.orientation, tol)
    end_lo, end_hi = tu_line(tub, *extrema(cloud))
    m = tub.optimal_sum
    s = game.orientation.sign
    if not s * m > s * (L.p1 + L.p2):
        raise EmptyPortion(
            f"optimal collective payoff {m:.6g} does not improve on the "
            f"initial core supremum total {L.p1 + L.p2:.6g}"
        )
    if game.orientation is Orientation.LOSS:
        lo = max(end_lo.p1, m - L.p2)
        hi = min(end_hi.p1, L.p1)
        utopia = PayoffPoint(lo, m - hi)
    else:
        lo = max(end_lo.p1, L.p1)
        hi = min(end_hi.p1, m - L.p2)
        utopia = PayoffPoint(hi, m - lo)
    if lo > hi:
        raise EmptyPortion("no TU boundary point is weakly better than the core supremum")
    if lo == hi:
        # The single improving point is the solution, tagged with the
        # nearest witness (ties to the payoff better for player 1 in the
        # orientation's frame, -s*p, then to the smaller preimage).
        point = np.array([lo, m - lo])
        w, pre = tub.witness_payoffs, tub.witness_preimages
        best = min(
            range(len(w)),
            key=lambda i: (float(np.hypot(*(w[i] - point))), -s * w[i, 0], -s * w[i, 1], tuple(pre[i])),
        )
        nearest = tuple(float(v) for v in pre[best])
        return SolutionPoint(PayoffPoint(*point), nearest, "standard-win-win", 0.0, L, PayoffPoint(*point))
    return tu_crossing_solution(tub, L, utopia, "standard-win-win")


def random_game(rng: np.random.Generator, rows: int | None = None, cols: int | None = None,
                orientation: Orientation | None = None) -> FiniteBimatrixGame:
    """A random game with dyadic payoffs, so comparisons stay exact."""
    rows = rows if rows is not None else int(rng.integers(1, 4))
    cols = cols if cols is not None else int(rng.integers(1, 4))
    if orientation is None:
        orientation = Orientation.GAIN if rng.integers(2) else Orientation.LOSS
    p1 = rng.integers(-8, 9, size=(rows, cols)) / 2.0
    p2 = rng.integers(-8, 9, size=(rows, cols)) / 2.0
    return FiniteBimatrixGame(p1, p2, orientation)


def random_cloud(rng: np.random.Generator, n: int, arity: int = 2):
    """A random payoff cloud with dyadic coordinates (ties are common)."""
    payoffs = rng.integers(-12, 13, size=(n, 2)) / 4.0
    preimages = rng.integers(0, 9, size=(n, arity)) / 8.0
    return payoffs.astype(float), preimages.astype(float)

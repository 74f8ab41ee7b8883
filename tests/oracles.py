"""Independent brute-force oracles used to cross-check the implementations.

Everything here is deliberately naive: exhaustive deviation scans, O(n^2)
dominance filtering, full pairwise distance matrices.  The production code
must agree with these on every input the tests feed both sides.
"""

from __future__ import annotations

import csv

import numpy as np

from coopetition.bargaining import SolutionPoint
from coopetition.coopetitive import (
    CoopetitiveGame,
    core_supremum,
    section_game,
    tu_crossing_solution,
)
from coopetition.errors import EmptyPortion, MissingInitialZ
from coopetition.games import FiniteBimatrixGame, Orientation, PayoffPoint, StrategyCell
from coopetition.geometry import extrema, sample_image, tu_boundary, tu_line
from coopetition.mixed import bilinear_map, conservative_bivalue_mixed, mixed_equilibrium_components


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


def sort_pareto(payoffs: np.ndarray, preimages: np.ndarray, flavor: str):
    """The sort-everything Pareto filter that the bucket prefilter must match.

    Every row is sorted by (p1, p2, preimage lex) in the minimal frame, one
    row is kept per payoff pair, and a running minimum of p2 sweeps out the
    dominated rows; the maximal boundary is mapped back and re-sorted by
    payoff.  Returns the boundary's (payoffs, preimages).
    """
    work = payoffs if flavor == "minimal" else -payoffs
    keys = [preimages[:, k] for k in range(preimages.shape[1] - 1, -1, -1)]
    order = np.lexsort(tuple(keys + [work[:, 1], work[:, 0]]))
    p = work[order]
    first = np.ones(len(p), dtype=bool)
    first[1:] = np.any(p[1:] != p[:-1], axis=1)
    p, pre = p[first], preimages[order[first]]
    mask = np.ones(len(p), dtype=bool)
    mask[1:] = p[1:, 1] < np.minimum.accumulate(p[:, 1])[:-1]
    p, pre = p[mask], pre[mask]
    if flavor == "maximal":
        p = -p
        order = np.lexsort((p[:, 1], p[:, 0]))
        p, pre = p[order], pre[order]
    return p, pre


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


def section_table(game: CoopetitiveGame, z: float) -> FiniteBimatrixGame:
    """The 2x2 table of the section at ``z``, one cell evaluation at a time."""
    m = section_game(game, z).map
    table1 = [[m.eval(1.0, 1.0).p1, m.eval(1.0, 0.0).p1], [m.eval(0.0, 1.0).p1, m.eval(0.0, 0.0).p1]]
    table2 = [[m.eval(1.0, 1.0).p2, m.eval(1.0, 0.0).p2], [m.eval(0.0, 1.0).p2, m.eval(0.0, 0.0).p2]]
    return FiniteBimatrixGame(np.array(table1), np.array(table2), game.orientation)


def _section_nash(game: CoopetitiveGame, z: float, grid_n: int):
    """Payoffs and (x, y) lattice of every Nash component of one section."""
    m = section_game(game, z).map
    payoffs, lattice = [], []
    for comp in mixed_equilibrium_components(section_table(game, z)):
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
            arr = np.array([conservative_bivalue_mixed(section_table(game, z)).as_tuple()])
        else:
            table = section_table(game, z)
            corners = np.stack([table.payoff1.ravel(), table.payoff2.ravel()], axis=1)
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


def cloud_tu_compromise(game: CoopetitiveGame, a, b, grid_n: int, tol: float = 1e-6):
    """The TU compromise with its TU pass on the full sampled cloud of the game."""
    tub = tu_boundary(sample_image(game.payoff, grid_n), game.orientation, tol)
    return tu_crossing_solution(tub, a, b)


def cloud_standard_win_win(game: CoopetitiveGame, grid_n: int, tol: float = 1e-6) -> SolutionPoint:
    """``standard_win_win_solution`` from the public cloud functions.

    The TU data come from ``tu_boundary`` and ``extrema`` of
    ``sample_image`` of the whole cube, not from ``lattice_tu``.
    """
    if game.initial_z is None:
        raise MissingInitialZ("the standard win-win solution needs initial_z set")
    L = core_supremum(game, game.initial_z, grid_n)
    cloud = sample_image(game.payoff, grid_n)
    tub = tu_boundary(cloud, game.orientation, tol)
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
        # nearest witness (ties to the smaller payoff, then preimage).
        point = np.array([lo, m - lo])
        w, pre = tub.witness_payoffs, tub.witness_preimages
        best = min(
            range(len(w)),
            key=lambda i: (float(np.hypot(*(w[i] - point))), w[i, 0], w[i, 1], tuple(pre[i])),
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

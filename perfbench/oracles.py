"""Output checks from closed forms and invariants.

Nothing here imports the package under test: every expected value is
recomputed from the game coefficients with numpy, and every check raises
:class:`CheckFailed` with a reason.  Payoff maps are multilinear in
{1, x, y, z, xy}, so extrema and transferable-utility optima over the cube
(and over any lattice containing its vertices) are attained at vertices,
and each section's conservative value is a max-min of two lines.
"""

from __future__ import annotations

import itertools
import re
import xml.etree.ElementTree as ET

import numpy as np


class CheckFailed(Exception):
    """An operation returned an answer its oracle rejects."""


def sign_of(orientation: str) -> float:
    return 1.0 if orientation == "gain" else -1.0


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def scale(coeffs) -> float:
    """Tolerance scale: a bound on |payoff| over the unit cube."""
    return 1.0 + float(np.abs(np.asarray(coeffs, dtype=float)).sum(axis=1).max())


def evaluate(coeffs, x, y, z=0.0):
    """Payoff pair arrays of the polynomial map at (x, y, z)."""
    c = np.asarray(coeffs, dtype=float)
    x, y, z = (np.asarray(v, dtype=float) for v in (x, y, z))
    return tuple(c[k, 0] + c[k, 1] * x + c[k, 2] * y + c[k, 3] * z + c[k, 4] * x * y for k in (0, 1))


def vertices(arity: int) -> np.ndarray:
    return np.array(list(itertools.product((0.0, 1.0), repeat=arity)))


def vertex_payoffs(coeffs, arity: int) -> np.ndarray:
    v = vertices(arity)
    z = v[:, 2] if arity == 3 else 0.0
    return np.stack(evaluate(coeffs, v[:, 0], v[:, 1], z), axis=1)


def tu_optimum(coeffs, arity: int, orientation: str) -> float:
    """Best p1 + p2 over the cube: max under gain, min under loss."""
    sums = vertex_payoffs(coeffs, arity).sum(axis=1)
    return float(sums.max() if orientation == "gain" else sums.min())


def section_coeffs(coeffs, z: np.ndarray) -> np.ndarray:
    """Section maps at each z: array (len(z), 2, 4) over (1, x, y, xy)."""
    c = np.asarray(coeffs, dtype=float)
    z = np.asarray(z, dtype=float)
    out = np.empty((len(z), 2, 4))
    out[:, :, 0] = c[None, :, 0] + c[None, :, 3] * z[:, None]
    out[:, :, 1] = c[:, 1]
    out[:, :, 2] = c[:, 2]
    out[:, :, 3] = c[:, 4]
    return out


def _maximin_lines(a0, b0, a1, b1):
    """max over u in [0, 1] of min(a0 + b0 u, a1 + b1 u), vectorised."""
    cands = [np.minimum(a0, a1), np.minimum(a0 + b0, a1 + b1)]
    db = b0 - b1
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.where(db != 0.0, (a1 - a0) / np.where(db != 0.0, db, 1.0), -1.0)
    inside = (u > 0.0) & (u < 1.0)
    cross = np.where(inside, np.minimum(a0 + b0 * u, a1 + b1 * u), -np.inf)
    cands.append(cross)
    return np.max(np.stack(cands), axis=0)


def conservative_closed_form(coeffs, z: np.ndarray, orientation: str) -> np.ndarray:
    """Conservative bi-value of every section's mixed extension, (len(z), 2).

    Each player's guarantee in their own mixture u is the minimum of their
    payoff against the opponent's two pure strategies, two lines in u; the
    maximin sits at u = 0, u = 1 or the lines' crossing.  Read per
    orientation: sup-inf under gain, inf-sup under loss.
    """
    s = sign_of(orientation)
    sec = s * section_coeffs(coeffs, z)
    c, bx, by, bxy = (sec[:, :, k] for k in range(4))
    # Player 1 owns x; opponent pure y in {0, 1}.
    v1 = _maximin_lines(c[:, 0], bx[:, 0], c[:, 0] + by[:, 0], bx[:, 0] + bxy[:, 0])
    # Player 2 owns y; opponent pure x in {0, 1}.
    v2 = _maximin_lines(c[:, 1], by[:, 1], c[:, 1] + bx[:, 1], by[:, 1] + bxy[:, 1])
    return s * np.stack([v1, v2], axis=1)


def check_conservative_path(coeffs, orientation, zs, values, tol_rel=1e-9) -> None:
    expected = conservative_closed_form(coeffs, zs, orientation)
    err = np.abs(np.asarray(values, dtype=float) - expected).max()
    require(err <= tol_rel * scale(coeffs), f"conservative value off by {err:.3g}")


def section_corner_extrema(coeffs, zs) -> tuple[np.ndarray, np.ndarray]:
    """Componentwise (inf, sup) of each section over the unit square."""
    sec = section_coeffs(coeffs, zs)
    corners = np.stack(
        [sec[:, :, 0], sec[:, :, 0] + sec[:, :, 1], sec[:, :, 0] + sec[:, :, 2],
         sec[:, :, 0] + sec[:, :, 1] + sec[:, :, 2] + sec[:, :, 3]],
        axis=2,
    )
    return corners.min(axis=2), corners.max(axis=2)


def check_extremum_path(coeffs, zs, values, which: str, tol_rel=1e-12) -> None:
    lo, hi = section_corner_extrema(coeffs, zs)
    expected = hi if which == "supremum" else lo
    err = np.abs(np.asarray(values, dtype=float) - expected).max()
    require(err <= tol_rel * scale(coeffs), f"{which} path off the vertex optimum by {err:.3g}")


def pure_nash_payoffs(sec: np.ndarray, orientation: str) -> list[tuple[float, float]]:
    """Payoffs of the pure equilibria of one (2, 4) bilinear section."""
    s = sign_of(orientation)
    out = []
    for x, y in itertools.product((0.0, 1.0), repeat=2):
        p = [sec[k, 0] + sec[k, 1] * x + sec[k, 2] * y + sec[k, 3] * x * y for k in (0, 1)]
        dev1 = sec[0, 0] + sec[0, 1] * (1 - x) + sec[0, 2] * y + sec[0, 3] * (1 - x) * y
        dev2 = sec[1, 0] + sec[1, 1] * x + sec[1, 2] * (1 - y) + sec[1, 3] * x * (1 - y)
        if s * p[0] >= s * dev1 and s * p[1] >= s * dev2:
            out.append((p[0], p[1]))
    return out


def check_nash_path(coeffs, orientation, zs, samples, tol_rel=1e-9) -> None:
    """Every section has a Nash payoff inside its image box, pure ones included."""
    tol = tol_rel * scale(coeffs)
    secs = section_coeffs(coeffs, zs)
    lo, hi = section_corner_extrema(coeffs, zs)
    for i, pts in enumerate(samples):
        pts = np.asarray(pts, dtype=float)
        require(len(pts) > 0, f"section {i} has no Nash payoff")
        require(
            bool((pts >= lo[i] - tol).all() and (pts <= hi[i] + tol).all()),
            f"section {i} Nash payoff outside the section's image",
        )
        for p in pure_nash_payoffs(secs[i], orientation):
            require(
                bool((np.abs(pts - p).max(axis=1) <= tol).any()),
                f"section {i} misses the pure equilibrium payoff {p}",
            )


def check_equilibria(coeffs, orientation, preimages, payoffs, tol_rel=1e-9) -> None:
    """Each (x, y, z) is a Nash equilibrium of its section with that payoff."""
    tol = tol_rel * scale(coeffs)
    s = sign_of(orientation)
    pre = np.atleast_2d(np.asarray(preimages, dtype=float))
    x, y, z = pre[:, 0], pre[:, 1], pre[:, 2]
    p1, p2 = evaluate(coeffs, x, y, z)
    pay = np.atleast_2d(np.asarray(payoffs, dtype=float))
    require(
        bool(np.abs(pay - np.stack([p1, p2], axis=1)).max() <= tol),
        "payoff does not match the map at its preimage",
    )
    best1 = np.maximum(s * evaluate(coeffs, 0.0 * x, y, z)[0], s * evaluate(coeffs, 1.0 + 0 * x, y, z)[0])
    best2 = np.maximum(s * evaluate(coeffs, x, 0.0 * y, z)[1], s * evaluate(coeffs, x, 1.0 + 0 * y, z)[1])
    require(bool((s * p1 >= best1 - tol).all()), "player 1 has a profitable deviation")
    require(bool((s * p2 >= best2 - tol).all()), "player 2 has a profitable deviation")


def check_zone(coeffs, orientation, c_grid, preimages, payoffs, sample) -> None:
    pre = np.asarray(preimages, dtype=float)
    require(len(pre) > 0, "empty Nash zone")
    require(
        len(np.unique(pre[:, 2])) == len(c_grid),
        "Nash zone does not cover every section",
    )
    check_equilibria(coeffs, orientation, pre[sample], np.asarray(payoffs)[sample])


def check_sample_image(coeffs, arity, grid_n, payoffs, preimages, grid_step, sample) -> None:
    require(len(payoffs) == grid_n**arity, f"cloud has {len(payoffs)} points, want {grid_n**arity}")
    require(abs(grid_step - 1.0 / (grid_n - 1)) <= 1e-15, "wrong grid_step")
    pre = np.asarray(preimages)[sample]
    k = pre * (grid_n - 1)
    require(bool(np.abs(k - np.round(k)).max() <= 1e-9), "preimage off the lattice")
    z = pre[:, 2] if arity == 3 else 0.0
    want = np.stack(evaluate(coeffs, pre[:, 0], pre[:, 1], z), axis=1)
    err = np.abs(np.asarray(payoffs)[sample] - want).max()
    require(err <= 1e-12 * scale(coeffs), f"payoff differs from the map by {err:.3g}")


def check_boundary(cloud_payoffs, boundary_payoffs, flavor: str, sample) -> None:
    """Boundary points are mutually non-dominated and cover the sample.

    Sorted by p1, a non-dominated set must have p1 strictly increasing and
    p2 strictly decreasing.  A cloud point is covered when some boundary
    point is weakly better in both components (smaller for ``minimal``).
    """
    b = np.asarray(boundary_payoffs, dtype=float)
    require(len(b) > 0, "empty boundary")
    b = b[np.lexsort((b[:, 1], b[:, 0]))]
    require(
        bool((np.diff(b[:, 0]) > 0).all() and (np.diff(b[:, 1]) < 0).all()),
        "boundary points dominate one another",
    )
    cloud = np.asarray(cloud_payoffs, dtype=float)
    pts = cloud[sample]
    if flavor == "minimal":
        pts = np.concatenate([pts, cloud[[cloud[:, 0].argmin(), cloud[:, 1].argmin()]]])
        j = np.searchsorted(b[:, 0], pts[:, 0], side="right") - 1
        ok = (j >= 0) & (b[np.maximum(j, 0), 1] <= pts[:, 1])
    else:
        pts = np.concatenate([pts, cloud[[cloud[:, 0].argmax(), cloud[:, 1].argmax()]]])
        j = np.searchsorted(b[:, 0], pts[:, 0], side="left")
        ok = (j < len(b)) & (b[np.minimum(j, len(b) - 1), 1] >= pts[:, 1])
    require(bool(ok.all()), f"{int((~ok).sum())} sampled cloud points not covered by the boundary")


def check_on_map(coeffs, preimages, payoffs) -> None:
    """Reported points are images of their reported preimages."""
    pre = np.atleast_2d(np.asarray(preimages, dtype=float))
    z = pre[:, 2] if pre.shape[1] == 3 else 0.0
    want = np.stack(evaluate(coeffs, pre[:, 0], pre[:, 1], z), axis=1)
    err = np.abs(np.atleast_2d(np.asarray(payoffs, dtype=float)) - want).max()
    require(err <= 1e-12 * scale(coeffs), f"point is not the image of its preimage ({err:.3g})")


def check_tu(coeffs, arity, orientation, optimal_sum, witness_payoffs, tol) -> None:
    want = tu_optimum(coeffs, arity, orientation)
    require(
        abs(optimal_sum - want) <= 1e-12 * scale(coeffs),
        f"TU optimum {optimal_sum!r} differs from the vertex optimum {want!r}",
    )
    w = np.asarray(witness_payoffs, dtype=float)
    require(len(w) > 0, "no TU witnesses")
    require(bool(np.abs(w.sum(axis=1) - want).max() <= tol + 1e-12 * scale(coeffs)), "witness off the TU line")


def segment_distance(points, a, b) -> np.ndarray:
    p = np.atleast_2d(np.asarray(points, dtype=float))
    a = np.asarray(a, dtype=float)
    ab = np.asarray(b, dtype=float) - a
    t = np.clip((p - a) @ ab / float(ab @ ab), 0.0, 1.0)
    return np.hypot(*(p - (a + t[:, None] * ab)).T)


def _member(points, p) -> bool:
    return bool((np.abs(np.asarray(points, dtype=float) - np.asarray(p, dtype=float)).max(axis=1) == 0).any())


def check_ks(boundary_payoffs, threat, utopia, payoff, residual, tol) -> None:
    """KS point: on the boundary, nearest the threat-utopia segment, within tol."""
    b = np.asarray(boundary_payoffs, dtype=float)
    require(_member(b, payoff), "KS point is not a boundary point")
    d = float(segment_distance([payoff], threat, utopia)[0])
    require(residual <= tol, f"KS residual {residual:.3g} exceeds tol {tol:.3g}")
    require(abs(d - residual) <= 1e-12 * (1.0 + d), f"reported residual {residual!r}, measured {d!r}")
    best = float(segment_distance(b, threat, utopia).min())
    require(d <= best + 1e-12 * (1.0 + best), f"a boundary point is nearer the segment ({best:.3g} < {d:.3g})")


def worst_best_corners(points, orientation: str) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(points, dtype=float)
    lo, hi = p.min(axis=0), p.max(axis=0)
    return (lo, hi) if orientation == "gain" else (hi, lo)


def check_compromise_pareto(boundary_payoffs, orientation, payoff, residual, threat, utopia, tol) -> None:
    """KS from the boundary's worst to its best corner; one point is its own answer."""
    if len(boundary_payoffs) == 1:
        require(np.array_equal(payoff, boundary_payoffs[0]) and residual == 0.0, "single-point boundary is not its own solution")
        return
    worst, best = worst_best_corners(boundary_payoffs, orientation)
    require(np.array_equal(threat, worst), "threat is not the boundary's worst corner")
    require(np.array_equal(utopia, best), "utopia is not the boundary's best corner")
    check_ks(boundary_payoffs, worst, best, payoff, residual, tol)


def check_nash_bargaining(boundary_payoffs, disagreement, orientation, payoff) -> None:
    """The Nash product is maximal over the boundary points weakly better than d."""
    s = sign_of(orientation)
    b = np.asarray(boundary_payoffs, dtype=float)
    gains = s * (b - np.asarray(disagreement, dtype=float))
    feasible = (gains >= 0).all(axis=1)
    require(bool(feasible.any()), "no feasible point, yet a solution was returned")
    best = float((gains[feasible, 0] * gains[feasible, 1]).max())
    require(_member(b, payoff), "Nash bargaining point is not a boundary point")
    g = s * (np.asarray(payoff, dtype=float) - np.asarray(disagreement, dtype=float))
    require(bool((g >= 0).all()), "Nash bargaining point is worse than the disagreement point")
    prod = float(g[0] * g[1])
    require(prod >= best - 1e-12 * (1.0 + abs(best)), f"Nash product {prod!r} below the maximum {best!r}")


def brute_hausdorff(a, b, chunk: int = 256) -> float:
    """Exact Hausdorff distance from squared distances between point pairs.

    Points are taken in x order, ``chunk`` at a time.  A point's distance to
    the x-nearest points of the other set bounds its nearest-neighbour
    distance ``r``, so pairs further apart than ``r`` in x are skipped; every
    other pair is measured.
    """

    def directed(p, q):
        p = p[np.argsort(p[:, 0], kind="stable")]
        q = q[np.argsort(q[:, 0], kind="stable")]
        qx = q[:, 0]
        j = np.searchsorted(qx, p[:, 0])
        bound = np.full(len(p), np.inf)
        for k in (np.clip(j - 1, 0, len(q) - 1), np.clip(j, 0, len(q) - 1)):
            bound = np.minimum(bound, ((p - q[k]) ** 2).sum(axis=1))
        worst = 0.0
        for i in range(0, len(p), chunk):
            pc = p[i:i + chunk]
            reach = np.sqrt(bound[i:i + chunk].max()) * (1.0 + 1e-9)
            lo = np.searchsorted(qx, pc[0, 0] - reach, "left")
            hi = np.searchsorted(qx, pc[-1, 0] + reach, "right")
            dx = pc[:, None, 0] - q[None, lo:hi, 0]
            dy = pc[:, None, 1] - q[None, lo:hi, 1]
            dx *= dx
            dy *= dy
            dx += dy
            worst = max(worst, float(dx.min(axis=1).max()))
        return worst

    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.sqrt(max(directed(a, b), directed(b, a))))


def check_hausdorff(a, b, value) -> None:
    want = brute_hausdorff(a, b)
    require(abs(value - want) <= 1e-12 * (1.0 + want), f"Hausdorff distance {value!r}, brute force {want!r}")


def check_proper(coeffs, orientation, zone_payoffs, preimage, payoff, residual, tol) -> None:
    """A Nash equilibrium of its section that no Nash-zone point strictly beats."""
    s = sign_of(orientation)
    check_equilibria(coeffs, orientation, [preimage], [payoff])
    require(residual <= tol, f"residual {residual:.3g} exceeds tol {tol:.3g}")
    zone = s * np.asarray(zone_payoffs, dtype=float)
    p = s * np.asarray(payoff, dtype=float)
    require(not bool(((zone[:, 0] > p[0]) & (zone[:, 1] > p[1])).any()), "a Nash-zone point strictly beats the solution")


def check_win_win(coeffs, orientation, payoff, threat, utopia, residual) -> None:
    """On the TU line at the vertex optimum, between L and the utopia point."""
    sc = scale(coeffs)
    m = tu_optimum(coeffs, 3, orientation)
    p = np.asarray(payoff, dtype=float)
    require(abs(p.sum() - m) <= 1e-9 * sc, f"win-win sum {p.sum()!r} is off the TU optimum {m!r}")
    s = sign_of(orientation)
    L = np.asarray(threat, dtype=float)
    require(bool((s * (p - L) >= -1e-9 * sc).all()), "win-win point worse than the core supremum")
    require(float(segment_distance([p], L, utopia)[0]) <= 1e-9 * sc + residual, "win-win point off the threat-utopia segment")


# --- CLI output ------------------------------------------------------------

#: Solver refusals (CLI exit 4): the toolkit documents that the requested
#: solution does not exist for the game.  They are counted apart from
#: failures; any other exception or non-zero exit is a failure.
REFUSAL_CLASSES = ("NoIntersection", "SameHalfPlane", "EmptyPortion", "EmptyFeasibleSet", "DegenerateProblem")
SOLVE_METHODS = {"tu": "tu-compromise", "win-win": "standard-win-win"}
_NUM = r"(-?(?:inf|nan|[0-9.]+(?:e[-+]?[0-9]+)?))"
_POINT = re.compile(r"\(" + _NUM + r", " + _NUM + r"\)")
_ERROR_CLASS = re.compile(r"^error: ([A-Za-z]+): ", re.M)


def parse_point(text: str) -> tuple[float, float]:
    m = _POINT.fullmatch(text.strip())
    require(m is not None, f"unparseable point {text!r}")
    return float(m.group(1)), float(m.group(2))


def parse_solve(stdout: str) -> dict:
    fields = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        require(bool(sep), f"unparseable solve line {line!r}")
        fields[key] = value
    for key in ("solution", "payoff", "residual"):
        require(key in fields, f"solve output lacks {key!r}")
    out = {"method": fields["solution"], "payoff": parse_point(fields["payoff"]), "residual": float(fields["residual"])}
    for key, name in (("threat a", "threat"), ("utopia b", "utopia")):
        if key in fields:
            out[name] = parse_point(fields[key])
    return out


def game_coeffs(game: dict) -> tuple[np.ndarray, int]:
    """Coefficient table and arity of a game-file dict (finite 2x2 -> bilinear)."""
    if game["kind"] == "coopetitive":
        c = game["coefficients"]
        return np.array([c["p1"], c["p2"]], dtype=float), 3
    rows = []
    for p in (np.array(game["payoff1"], float), np.array(game["payoff2"], float)):
        # Row/column 0 are the probability-one strategies (x = y = 1).
        rows.append([p[1, 1], p[0, 1] - p[1, 1], p[1, 0] - p[1, 1], 0.0, p[0, 0] - p[0, 1] - p[1, 0] + p[1, 1]])
    return np.array(rows), 2


def check_solve_output(game: dict, solution: str, stdout: str, grid_n: int) -> None:
    """Parse ``solve`` output and check it against closed forms."""
    out = parse_solve(stdout)
    require(out["method"] == SOLVE_METHODS.get(solution, solution), f"method {out['method']!r} for {solution!r}")
    coeffs, arity = game_coeffs(game)
    orientation = game["orientation"]
    sc = scale(coeffs)
    # fmt() prints 10 significant digits.
    tol = 1e-9 * sc
    vp = vertex_payoffs(coeffs, arity)
    p = np.array(out["payoff"])
    require(bool((p >= vp.min(axis=0) - tol).all() and (p <= vp.max(axis=0) + tol).all()), "payoff outside the image")
    if solution in ("tu", "win-win"):
        m = tu_optimum(coeffs, arity, orientation)
        require(abs(p.sum() - m) <= tol, f"TU payoff sum {p.sum()!r} is not the vertex optimum {m!r}")
    elif solution == "nash-bargaining":
        s = sign_of(orientation)
        require(bool((s * (p - np.array(out["threat"])) >= -tol).all()), "worse than the disagreement point")
    else:
        ks_tol = 3.0 / (grid_n - 1)
        require(out["residual"] <= ks_tol * (1 + 1e-9), f"residual {out['residual']!r} exceeds {ks_tol!r}")


def check_analyze_output(game: dict, stdout: str) -> None:
    require(stdout.startswith("game\n"), "report does not start with the game section")
    coeffs, arity = game_coeffs(game)
    vp = vertex_payoffs(coeffs, arity)
    tol = 1e-9 * scale(coeffs)
    for m in re.finditer(r"payoff (\([^)]*\))", stdout):
        p = np.array(parse_point(m.group(1)))
        require(bool((p >= vp.min(axis=0) - tol).all() and (p <= vp.max(axis=0) + tol).all()), "reported payoff outside the image")
    require("solutions" in stdout or "mixed" in stdout, "report lacks its solution sections")


def check_csv(path, arity: int) -> int:
    """Header ``x,y[,z],p1,p2,tag`` and well-formed rows; returns the row count."""
    header = ",".join(["x", "y", "z"][:arity] + ["p1", "p2", "tag"])
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        require(first == header, f"CSV header {first!r}, want {header!r}")
        rows = 0
        for line in fh:
            rows += 1
            if rows <= 3:
                fields = line.rstrip("\n").split(",")
                require(len(fields) == arity + 3, f"CSV row with {len(fields)} fields")
                [float(v) for v in fields[: arity + 2]]
    require(rows > 0, "CSV has no rows")
    return rows


def check_svg(path) -> None:
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as exc:
        raise CheckFailed(f"SVG does not parse: {exc}") from None
    require(root.tag.endswith("svg"), f"SVG root is {root.tag!r}")


def failure_class(returncode: int, stderr: str) -> str:
    """Name a non-zero CLI exit by its documented exception class or exit code."""
    if returncode == 4:
        m = _ERROR_CLASS.search(stderr)
        if m:
            return m.group(1)
    return f"exit{returncode}"


def refusal_class(returncode: int, stderr: str) -> str | None:
    """The refusal class of a CLI exit, or None if the exit is a failure."""
    name = failure_class(returncode, stderr)
    return name if name in REFUSAL_CLASSES and "Traceback" not in stderr else None


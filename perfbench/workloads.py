"""The three workloads and the closed-loop op runner they share.

``cli``            one client, each op a fresh ``python -m coopetition.cli``
                   process timed from spawn to exit.
``section-sweep``  in-process, warm: the per-section loop along z
                   (``mixed`` + ``coopetitive``) on c_grid 257 at grid 65.
``dense-geometry`` in-process, warm: sampling, Pareto filtering, bargaining
                   and Hausdorff on 1025^2 and 129^3 lattices.

An op's latency covers only the call into the program; its output check
runs afterwards, untimed.  In a traced run every op runs twice on the same
input, untraced (timed and checked, as in an untraced run) and then traced,
so the difference is the tracing overhead.
"""

from __future__ import annotations

import json
import os
import re
import resource
import shutil
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np

from perfbench import inputs as I
from perfbench import oracles as O
from perfbench.trace import Tracer, summarize

#: Cloud points drawn per boundary-coverage and equilibrium check.
CHECK_SAMPLE = 4096
CLI_TIMEOUT_S = 150.0


class Deadline(Exception):
    """The run's measuring time is over; no further op starts."""


class Runner:
    """Runs ops until the deadline, recording latency and outcome per op.

    An op either answers (its answer is checked), is refused (it raises one
    of ``refusals``, the toolkit's documented "no such solution" errors) or
    fails (any other exception, or an answer its check rejects).
    """

    def __init__(self, seconds: float, trace: bool, refusals: tuple[type, ...]):
        self.seconds = seconds
        self.tracer = Tracer() if trace else None
        self.refusals = refusals
        self.records: list[dict] = []
        #: Input properties copied into each op's record (orientation, shape).
        self.context: dict = {}
        self.problems: list[str] = []
        self.spans: list[list] = []
        self.deadline = 0.0

    def start(self) -> None:
        self.deadline = time.perf_counter() + self.seconds

    def _check_deadline(self) -> None:
        if time.perf_counter() >= self.deadline:
            raise Deadline

    def _fail(self, kind: str, failure: str, detail: str) -> None:
        self.problems.append(f"{kind}: {failure}: {detail}")

    def op(self, kind: str, call, check=None):
        """Time ``call()``; check its result; return it (None unless answered)."""
        self._check_deadline()
        failure = refusal = None
        t0 = time.perf_counter()
        try:
            result = call()
        except self.refusals as exc:
            latency = time.perf_counter() - t0
            result, refusal = None, type(exc).__name__
        except Exception as exc:  # the run records the failure and goes on
            latency = time.perf_counter() - t0
            result, failure = None, type(exc).__name__
            self._fail(kind, failure, str(exc))
        else:
            latency = time.perf_counter() - t0
        record = {"kind": kind, **self.context, "latency": latency, "failure": failure, "refusal": refusal}
        if self.tracer is not None:
            record["traced_latency"] = self._traced(call)
        if failure is None and refusal is None and check is not None:
            try:
                check(result)
            except Exception as exc:  # an answer its check cannot read is rejected too
                record["failure"] = "CheckFailed"
                self._fail(kind, "CheckFailed", f"{type(exc).__name__}: {exc}")
                result = None
        self.records.append(record)
        return result

    def _traced(self, call) -> float:
        tracer = self.tracer
        tracer.op = len(self.records)
        with tracer:
            t0 = time.perf_counter()
            try:
                call()
            except Exception:  # same outcome as the untraced call, already recorded
                pass
            return time.perf_counter() - t0


def _unit_sample(n: int, rng: np.random.Generator) -> np.ndarray:
    return rng.choice(n, size=CHECK_SAMPLE, replace=False) if n > CHECK_SAMPLE else np.arange(n)


# --- section-sweep ---------------------------------------------------------


def sweep_game(C, spec: dict):
    return C.CoopetitiveGame.with_uniform_grid(
        C.PayoffMap(np.array(spec["coeffs"]), arity=3),
        C.Orientation(spec["orientation"]),
        c_grid_size=I.SWEEP_C_GRID,
        initial_z=0.0,
    )


def sweep_session(runner: Runner, C, spec: dict, rng: np.random.Generator) -> None:
    """All seven section-sweep ops on one game, in order."""
    game = sweep_game(C, spec)
    coeffs, orientation = spec["coeffs"], spec["orientation"]
    runner.context = {"orientation": orientation}
    zs = np.linspace(0.0, 1.0, I.SWEEP_C_GRID)
    n = I.SWEEP_GRID_N

    def path_values(path):
        O.require(np.array_equal([z for z, _ in path.samples], zs), "path is not sampled on c_grid")
        return [pts for _, pts in path.samples]

    checks = {
        "nash_payoffs": lambda p: O.check_nash_path(coeffs, orientation, zs, path_values(p)),
        "supremum": lambda p: O.check_extremum_path(coeffs, zs, np.concatenate(path_values(p)), "supremum"),
        "infimum": lambda p: O.check_extremum_path(coeffs, zs, np.concatenate(path_values(p)), "infimum"),
        "conservative": lambda p: O.check_conservative_path(coeffs, orientation, zs, np.concatenate(path_values(p))),
    }
    for quantity, check in checks.items():
        runner.op(f"induced_path:{quantity}", lambda q=quantity: C.induced_path(game, q, n), check)

    def check_zone(zone):
        sample = _unit_sample(len(zone), rng)
        O.check_zone(coeffs, orientation, zs, zone.preimages, zone.payoffs, sample)

    zone = runner.op("nash_zone", lambda: C.nash_zone(game, n), check_zone)
    if zone is None:
        return
    tol = 3.0 / (n - 1)

    def check_proper(sol):
        O.check_proper(coeffs, orientation, zone.payoffs, sol.preimage, sol.payoff.as_tuple(), sol.residual, tol)

    runner.op("proper_coopetitive_solution", lambda: C.proper_coopetitive_solution(game, n, tol), check_proper)

    def check_win_win(sol):
        O.check_win_win(coeffs, orientation, sol.payoff.as_tuple(), sol.threat.as_tuple(), sol.utopia.as_tuple(), sol.residual)

    runner.op("standard_win_win_solution", lambda: C.standard_win_win_solution(game, n), check_win_win)


def sweep_warmup(C, games: list[dict]) -> None:
    C.nash_zone(sweep_game(C, games[0]), I.SWEEP_GRID_N)


# --- dense-geometry --------------------------------------------------------


def dense_session(runner: Runner, C, spec: dict, rng: np.random.Generator) -> None:
    """Sample one map, filter both boundaries, bargain on the facing one."""
    coeffs, arity, n, orientation = spec["coeffs"], spec["arity"], spec["grid_n"], spec["orientation"]
    pmap = C.PayoffMap(np.array(coeffs), arity=arity)
    orient = C.Orientation(orientation)
    facing_flavor = "maximal" if orientation == "gain" else "minimal"
    shape = f"{arity}d-" + (f"duplicate-heavy-{spec['slopes']}" if spec["duplicate_heavy"] else "generic")
    runner.context = {"orientation": orientation, "shape": shape}

    def check_cloud(cloud):
        sample = _unit_sample(len(cloud), rng)
        O.check_sample_image(coeffs, arity, n, cloud.payoffs, cloud.preimages, cloud.grid_step, sample)

    cloud = runner.op("sample_image", lambda: C.sample_image(pmap, n), check_cloud)
    if cloud is None:
        return
    boundaries = {}
    for flavor in ("maximal", "minimal"):

        def check_boundary(b, flavor=flavor):
            O.check_boundary(cloud.payoffs, b.payoffs, flavor, _unit_sample(len(cloud), rng))
            O.check_on_map(coeffs, b.preimages, b.payoffs)

        boundaries[flavor] = runner.op(
            f"pareto_filter:{flavor}", lambda f=flavor: C.pareto_filter(cloud, orient, f), check_boundary
        )
    facing = boundaries[facing_flavor]
    if facing is None:
        return

    def check_tu(tub, reading):
        O.check_tu(coeffs, arity, reading, tub.optimal_sum, tub.witness_payoffs, 1e-9)
        O.check_on_map(coeffs, tub.witness_preimages, tub.witness_payoffs)

    # Best and worst collective payoff: the TU optimum under both readings.
    for reading in (orientation, "loss" if orientation == "gain" else "gain"):
        runner.op(
            "tu_boundary",
            lambda r=reading: C.tu_boundary(cloud, C.Orientation(r), 1e-9),
            lambda tub, r=reading: check_tu(tub, r),
        )
    threat, _ = O.worst_best_corners(cloud.payoffs, orientation)
    bargain(runner, C, facing, threat, C.PayoffPoint(*threat), orient, orientation)
    # The boundary at grid (n - 1) / 2 + 1 is an input of the Hausdorff op,
    # built untimed.
    coarse = C.pareto_filter(C.sample_image(pmap, (n - 1) // 2 + 1), orient, facing_flavor)
    runner.op(
        "hausdorff_distance",
        lambda: C.hausdorff_distance(facing, coarse),
        lambda d: O.check_hausdorff(facing.payoffs, coarse.payoffs, d),
    )


def bargain(runner: Runner, C, boundary, threat, threat_pt, orient, orientation: str) -> None:
    """KS, Nash bargaining and the Pareto compromise on one boundary.

    The KS tolerance is three grid steps of the boundary's lattice, as in
    the CLI.
    """
    tol = 3.0 * boundary.grid_step
    _, utopia = O.worst_best_corners(boundary.payoffs, orientation)
    utopia_pt = C.PayoffPoint(*utopia)
    runner.op(
        "ks_solution",
        lambda: C.ks_solution(C.BargainingProblem(boundary, threat_pt, utopia_pt), tol),
        lambda s: O.check_ks(boundary.payoffs, threat, utopia, s.payoff.as_tuple(), s.residual, tol),
    )
    runner.op(
        "nash_bargaining",
        lambda: C.nash_bargaining(boundary, threat_pt, orient),
        lambda s: O.check_nash_bargaining(boundary.payoffs, threat, orientation, s.payoff.as_tuple()),
    )
    runner.op(
        "compromise_solution:pareto",
        lambda: C.compromise_solution("pareto", boundary, tol=tol),
        lambda s: O.check_compromise_pareto(
            boundary.payoffs, orientation, s.payoff.as_tuple(), s.residual,
            s.threat and s.threat.as_tuple(), s.utopia and s.utopia.as_tuple(), tol,
        ),
    )


def dense_warmup(C, maps: list[dict]) -> None:
    spec = maps[0]
    C.sample_image(C.PayoffMap(np.array(spec["coeffs"]), arity=spec["arity"]), spec["grid_n"])


def run_in_process(runner: Runner, C, workload: str, items: list[dict], seed: int) -> None:
    session = sweep_session if workload == "section-sweep" else dense_session
    rng = np.random.default_rng(seed)
    runner.start()
    try:
        for i in range(10**9):
            session(runner, C, items[i % len(items)], rng)
    except Deadline:
        pass


# --- cli -------------------------------------------------------------------

_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)\s*$")


def parse_importtime(stderr: str) -> dict:
    """Seconds importing the package (top level, cumulative) and scipy (self)."""
    package = scipy = 0
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m is None:
            continue
        self_us, cumulative_us, indent, name = int(m.group(1)), int(m.group(2)), m.group(3), m.group(4)
        if indent == " " and name.split(".")[0] == "coopetition":
            package += cumulative_us
        if name.split(".")[0] == "scipy":
            scipy += self_us
    return {"import_s": package / 1e6, "import_scipy_s": scipy / 1e6}


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("COOPETITION_GRID", "COOPETITION_KERNELS")}
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(cmd: list[str], env: dict, cwd: Path, out_dir: Path) -> dict:
    """Run a child to completion; time it from spawn to exit, with its rusage."""
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "stdout", "w+b") as out, open(out_dir / "stderr", "w+b") as err:
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=cwd)
        killed = threading.Event()

        def kill() -> None:
            killed.set()
            proc.kill()

        timer = threading.Timer(CLI_TIMEOUT_S, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        latency = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return {
            "latency": latency,
            "spawned": spawned,
            "returncode": proc.returncode,
            "maxrss_kb": usage.ru_maxrss,
            "stdout": out.read().decode("utf-8", "replace"),
            "stderr": err.read().decode("utf-8", "replace"),
            "timed_out": killed.is_set(),
        }


def cli_argv(op: dict, path: str | None, tmp: Path) -> list[str]:
    kind = op["kind"]
    if kind == "render":
        return ["render", path, "--out-csv", str(tmp / "scene.csv"), "--out-svg", str(tmp / "scene.svg")]
    if kind == "paper-demo":
        return ["paper-demo", "--out-dir", str(tmp / "demo")]
    if op["solution"] is None:
        return ["analyze", path]
    return ["solve", path, "--solution", op["solution"]]


def check_cli(op: dict, result: dict, tmp: Path) -> None:
    kind, game = op["kind"], op["game"]
    if kind == "render":
        O.check_csv(tmp / "scene.csv", 3)
        O.check_svg(tmp / "scene.svg")
    elif kind == "paper-demo":
        demo = tmp / "demo"
        report = (demo / "report.txt").read_text(encoding="utf-8")
        O.require(report == result["stdout"], "paper-demo stdout differs from report.txt")
        for stem in ("payoff_space", "bargaining_solutions", "tu_solutions", "coopetitive_space", "coopetitive_solutions"):
            O.check_csv(demo / f"{stem}.csv", 3 if stem.startswith("coopetitive") else 2)
            O.check_svg(demo / f"{stem}.svg")
    elif op["solution"] is None:
        O.check_analyze_output(game, result["stdout"])
    else:
        grid = I.CLI_GRID_FINITE if game["kind"] == "finite" else I.CLI_GRID_COOP
        O.check_solve_output(game, op["solution"], result["stdout"], grid)


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class CliRun:
    """State of one cli-workload run: files, records, child measurements."""

    def __init__(self, runner: Runner, root: Path, work: Path, schedule: list[dict], paths: list):
        self.runner = runner
        self.root = root
        self.work = work
        self.schedule = schedule
        self.paths = paths
        self.env = child_env(root)
        self.maxrss_kb = 0
        self.startup: list[dict] = []
        self.bytes_written = 0

    def one(self, i: int) -> None:
        runner = self.runner
        runner._check_deadline()
        op, path = self.schedule[i], self.paths[i]
        tmp = self.work / f"op{i:05d}"
        tmp.mkdir(parents=True)
        try:
            argv = cli_argv(op, path, tmp)
            res = spawn([sys.executable, "-m", "coopetition.cli"] + argv, self.env, self.root, tmp / "untraced")
            self.maxrss_kb = max(self.maxrss_kb, res["maxrss_kb"])
            record = {"kind": op["kind"], "latency": res["latency"], "failure": None, "refusal": None}
            if op["game"] is not None:
                record["orientation"] = op["game"]["orientation"]
            rc = res["returncode"]
            if rc == 0:
                try:
                    check_cli(op, res, tmp)
                except (O.CheckFailed, OSError, ValueError) as exc:
                    record["failure"] = "CheckFailed"
                    runner._fail(op["kind"], "CheckFailed", str(exc))
            elif not res["timed_out"] and O.refusal_class(rc, res["stderr"]):
                record["refusal"] = O.failure_class(rc, res["stderr"])
            else:
                record["failure"] = "Timeout" if res["timed_out"] else O.failure_class(rc, res["stderr"])
                runner._fail(op["kind"], record["failure"], res["stderr"].strip()[-300:])
            if runner.tracer is not None:
                self.bytes_written += _dir_bytes(tmp) - _dir_bytes(tmp / "untraced")
                shutil.rmtree(tmp)
                tmp.mkdir(parents=True)
                record["traced_latency"] = self._traced(i, cli_argv(op, path, tmp), tmp)
            runner.records.append(record)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def _traced(self, i: int, argv: list[str], tmp: Path) -> float:
        spans_path = tmp / "spans.json"
        child = str(self.root / "perfbench" / "cli_child.py")
        res = spawn([sys.executable, "-X", "importtime", child, str(spans_path)] + argv, self.env, self.root, tmp / "traced")
        imports = parse_importtime(res["stderr"])
        data = json.loads(spans_path.read_text(encoding="utf-8"))
        op_id = len(self.runner.records)
        for span in data["spans"]:
            span[0] = op_id
        self.runner.spans.extend(data["spans"])
        for key, amount in data["counts"].items():
            self.runner.tracer.counts[key] += amount
        self.startup.append(
            {
                "interpreter_s": data["entry"] - res["spawned"],
                "modules_loaded": data["modules_loaded"],
                "latency": res["latency"],
                "top_level_s": summarize(data["spans"])["top_level_s"],
                **imports,
            }
        )
        return res["latency"]


def run_cli(runner: Runner, root: Path, work: Path, schedule: list[dict], paths: list) -> CliRun:
    state = CliRun(runner, root, work, schedule, paths)
    runner.start()
    try:
        for i in range(10**9):
            state.one(i % len(schedule))
    except Deadline:
        pass
    return state


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def outcome_table(records: list[dict]) -> tuple[Counter, Counter, dict]:
    """Failures and refusals by class, and [attempted, failed, refused] by kind."""
    failures = Counter(r["failure"] for r in records if r["failure"])
    refusals = Counter(r["refusal"] for r in records if r["refusal"])
    by_kind: dict[str, list[int]] = {}
    for r in records:
        entry = by_kind.setdefault(r["kind"], [0, 0, 0])
        entry[0] += 1
        entry[1] += r["failure"] is not None
        entry[2] += r["refusal"] is not None
    return failures, refusals, by_kind

"""Benchmark of the coopetition toolkit: one workload per run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cli|section-sweep|dense-geometry \\
        --seed N --seconds S --trace 0|1

Inputs are generated from ``--seed``; the program receives only the
generated game files (``cli``) or game objects (in-process workloads).
Ops run in a closed loop for ``--seconds`` seconds and every answer is
checked against the closed forms and invariants in ``oracles.py``.

End-to-end metrics (``--trace 0``):

* ``ops_per_s``       ops that did not fail per second of timed op time; on
                      ``cli``, at the schedule's fixed mix (``cli_ops_per_s``)
* ``latency_p50_s``   median op latency, a failed op counting as infinite
* ``latency_tail_s``  the workload's tail percentile (``TAIL_PERCENTILE``)
* ``fail_ratio``      failed / attempted ops (printed, and carried by the
                      ``attempted``/``failed`` fields of the result line)
* ``peak_rss_mb``     peak RSS: of the children for ``cli``, else of this process
* ``setup_s``         median of five set-ups (this process and four probe
                      processes): import the package, generate the inputs,
                      and, in-process, one untimed warm-up op

An op fails if it crashes, exits with an undocumented status or gives an
answer its check rejects.  A documented solver refusal (``REFUSAL_CLASSES``
in ``oracles.py``, CLI exit 4) is not a failure: it is the program's
specified outcome for that game, it counts with its real latency, and it is
reported per class (``ops.refused.*``, and in the human-readable lines).

``--trace 1`` runs each op a second time under span wrappers
(``trace.py``) and prints per-layer metrics instead.  Human-readable lines
come first; the last line of stdout is the JSON result.  Details, the
input properties, the machine and (traced) the spans are written under
``.bench_work/results/``.
"""

import time

ENTRY = time.perf_counter()
ENTRY_MONOTONIC = time.clock_gettime(time.CLOCK_MONOTONIC)

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.oracles import REFUSAL_CLASSES  # noqa: E402

WORKLOADS = ("cli", "section-sweep", "dense-geometry")
SETUP_SAMPLES = 5

#: Tail percentile per workload, fixed so runs of different commits compare
#: the same quantile.  Each has at least ten samples beyond it at the op
#: count a 35-second run reaches on the first measured commit (section-sweep
#: ~100, dense-geometry ~170 ops) and sits inside a latency tier rather
#: than on its edge: the conservative-path tier (one op in seven) on
#: section-sweep, the 3D duplicate-heavy Pareto tier on dense-geometry.
#: cli reaches ~30 cold processes a run, so no percentile above the median
#: has ten samples beyond it; its tail is the median.
TAIL_PERCENTILE = {"cli": 50, "section-sweep": 90, "dense-geometry": 92}

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("fail_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
#: ``fail_ratio`` can be 0 and is binomially noisy at these op counts, so
#: it is printed and carried by ``attempted``/``failed`` but not gated.
GATED = ("ops_per_s", "latency_p50_s", "latency_tail_s", "peak_rss_mb", "setup_s")

FAILURE_CLASSES = (
    "UnsupportedGameError",
    "MissingInitialZ",
    "exit1",
    "exit2",
    "exit3",
    "exit5",
    "CheckFailed",
    "Timeout",
    "Other",
)

#: Per-layer metrics: (name, unit).  Times and counts are per traced op.
PER_LAYER = (
    ("startup.interpreter_s", "s"),
    ("startup.import_s", "s"),
    ("startup.import_scipy_s", "s"),
    ("startup.modules_loaded", "count"),
    ("cli.main.self_s", "s/op"),
    ("gamefile.load_game_file.busy_s", "s/op"),
    ("report.build_report.self_s", "s/op"),
    ("games.busy_s", "s/op"),
    ("mixed.conservative_bivalue_mixed.calls", "1/op"),
    ("mixed.conservative_bivalue_mixed.busy_s", "s/op"),
    ("mixed.mixed_equilibrium_components.calls", "1/op"),
    ("mixed.mixed_equilibrium_components.busy_s", "s/op"),
    ("coopetitive.induced_path.self_s", "s/op"),
    ("coopetitive.sections", "1/op"),
    ("coopetitive.nash_zone.self_s", "s/op"),
    ("coopetitive.nash_zone.points", "1/op"),
    ("coopetitive.core_supremum.self_s", "s/op"),
    ("coopetitive.proper_coopetitive_solution.self_s", "s/op"),
    ("coopetitive.standard_win_win_solution.self_s", "s/op"),
    ("geometry.sample_image.busy_s", "s/op"),
    ("geometry.sample_image.points", "1/op"),
    ("geometry.pareto_filter.busy_s", "s/op"),
    ("geometry.pareto_filter.points_in", "1/op"),
    ("geometry.pareto_filter.points_out", "1/op"),
    ("geometry.pareto_filter.keep_ratio", "ratio"),
    ("geometry.pareto_filter.bytes_in", "B_computed/op"),
    ("geometry.cloud_unique_ratio", "ratio"),
    ("geometry.tu_boundary.busy_s", "s/op"),
    ("geometry.tu_boundary.witnesses", "1/op"),
    ("geometry.extrema.busy_s", "s/op"),
    ("geometry.hausdorff_distance.busy_s", "s/op"),
    ("bargaining.ks_solution.busy_s", "s/op"),
    ("bargaining.nash_bargaining.busy_s", "s/op"),
    ("bargaining.compromise_solution.self_s", "s/op"),
    ("bargaining.boundary_points", "1/op"),
    ("render.Scene.add.busy_s", "s/op"),
    ("render.rows", "1/op"),
    ("render.write_csv.busy_s", "s/op"),
    ("render.write_svg.busy_s", "s/op"),
    ("render.bytes_written", "B/op"),
    ("demo.run_paper_demo.self_s", "s/op"),
    *((f"share.{layer}", "ratio") for layer in (
        "startup", "cli", "gamefile", "games", "mixed", "geometry",
        "bargaining", "coopetitive", "report", "render", "demo", "other",
    )),
    *((f"ops.refused.{c}", "count") for c in REFUSAL_CLASSES),
    *((f"ops.failed.{c}", "count") for c in FAILURE_CLASSES),
    ("trace.overhead_s", "s/op"),
    ("trace.overhead_ratio", "ratio"),
)

HEAVY_CLI_KINDS = ("render", "paper-demo")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def require_source() -> None:
    """Refuse to run without the package source next to the benchmark."""
    if not (ROOT / "src" / "coopetition" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {ROOT / 'src' / 'coopetition'}; run from a repository checkout")
    for var in ("COOPETITION_GRID", "COOPETITION_KERNELS"):
        os.environ.pop(var, None)
    sys.path.insert(0, str(ROOT / "src"))


def setup(workload: str, seed: int, work: Path):
    """Import the package, generate the inputs and warm up; returns all three."""
    import coopetition as C

    from perfbench import inputs as I
    from perfbench import workloads as W

    items = I.workload_inputs(workload, seed)
    paths = None
    if workload == "cli":
        paths = I.write_cli_files(items, work / "games")
    elif workload == "section-sweep":
        W.sweep_warmup(C, items)
    else:
        W.dense_warmup(C, items)
    return C, items, paths


def probe_setups(args, count: int, importtime: bool) -> list[dict]:
    """Repeat the set-up in fresh processes; returns their reports."""
    from perfbench import workloads as W

    out = []
    env = W.child_env(ROOT)
    for i in range(count):
        cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
        cmd += [str(ROOT / "perfbench" / "run.py"), "--workload", args.workload, "--seed", str(args.seed), "--setup-probe"]
        res = W.spawn(cmd, env, ROOT, work_dir(args, f"probe{i}"))
        if res["returncode"] != 0:
            sys.exit(f"error: set-up probe failed:\n{res['stderr'][-2000:]}")
        report = json.loads(res["stdout"].strip().splitlines()[-1])
        report.update(W.parse_importtime(res["stderr"]))
        report["interpreter_s"] = report["entry_monotonic"] - res["spawned"]
        out.append(report)
    return out


def work_dir(args, name: str = "") -> Path:
    base = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    return base / name if name else base


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile; infinite values sort last."""
    v = sorted(values)
    pos = (len(v) - 1) * pct / 100.0
    lo = int(pos)
    frac = pos - lo
    if frac == 0.0 or lo + 1 >= len(v):
        return v[lo]
    if v[lo + 1] == float("inf"):
        return float("inf")
    return v[lo] + frac * (v[lo + 1] - v[lo])


def cli_ops_per_s(records: list[dict]) -> float:
    """Ops that did not fail per second, at the cli schedule's fixed mix.

    A 35-second run holds ~30 cold processes of which only three or four
    are heavy, so a plain count over time moves with how many heavy ops fit
    before the deadline.  Instead the mean latency is taken as each op
    kind's share of the schedule (``inputs.cli_mix``) times the kind's
    median latency in the run, and scaled by the share of ops that did not
    fail.  A kind the run never reached drops out of the mix.
    """
    from perfbench.inputs import cli_mix

    kinds: dict[str, list[float]] = {}
    for r in records:
        if r["failure"] is None:
            kinds.setdefault(r["kind"], []).append(r["latency"])
    shares = {k: w for k, w in cli_mix().items() if k in kinds}
    if not shares:
        return 0.0
    mean = sum(w * statistics.median(kinds[k]) for k, w in shares.items()) / sum(shares.values())
    ok = sum(len(v) for v in kinds.values())
    return ok / len(records) / mean


def end_to_end(workload: str, records: list[dict], peak_rss_mb: float, setup_s: float) -> dict:
    lat = [r["latency"] if r["failure"] is None else float("inf") for r in records]
    busy = sum(r["latency"] for r in records)
    ok = sum(r["failure"] is None for r in records)
    if workload == "cli":
        ops_per_s = cli_ops_per_s(records)
    else:
        ops_per_s = ok / busy if busy > 0 else 0.0
    return {
        "ops_per_s": ops_per_s,
        "latency_p50_s": percentile(lat, 50),
        "latency_tail_s": percentile(lat, TAIL_PERCENTILE[workload]),
        "fail_ratio": (len(records) - ok) / len(records) if records else 0.0,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
    }


def layer_shares(spans, latencies: list[float], startup_s: float) -> dict:
    """Each layer's self time over the program's time in the traced ops.

    The tracer's counters run inside the traced ops; their spans are left
    out of the denominator, so shares describe the program, and their cost
    shows in ``trace.overhead_*`` instead.
    """
    from perfbench.trace import summarize

    s = summarize(spans)
    counters = s["layers"].pop("perfbench", {}).get("self_s", 0.0)
    total = sum(latencies) - counters
    if total <= 0:
        return {}
    shares = {layer: v["self_s"] / total for layer, v in s["layers"].items()}
    shares["startup"] = startup_s / total
    shares["other"] = (total + counters - s["top_level_s"] - startup_s) / total
    return shares


def per_layer(workload, runner, cli_state, probes) -> tuple[dict, dict]:
    """Per-layer metrics from the spans of a traced run, plus details."""
    from perfbench.trace import summarize

    records = runner.records
    spans = runner.tracer.spans + runner.spans
    counts = runner.tracer.counts
    n = max(len(records), 1)
    s = summarize(spans)
    names, layers = s["names"], s["layers"]

    def nm(name, key):
        return names.get(name, {}).get(key, 0.0)

    if workload == "cli":
        startup_rows = cli_state.startup
        startup_total = sum(r["latency"] - r["top_level_s"] for r in startup_rows)
    else:
        startup_rows = probes
        startup_total = 0.0

    def med(key):
        return statistics.median(r[key] for r in startup_rows) if startup_rows else 0.0

    traced = [r["traced_latency"] for r in records]
    untraced = [r["latency"] for r in records]
    shares = layer_shares(spans, traced, startup_total)
    points_in = counts.get("geometry.pareto_filter.points_in", 0.0)
    m = {
        "startup.interpreter_s": med("interpreter_s"),
        "startup.import_s": med("import_s"),
        "startup.import_scipy_s": med("import_scipy_s"),
        "startup.modules_loaded": med("modules_loaded"),
        "cli.main.self_s": nm("cli.main", "self_s") / n,
        "gamefile.load_game_file.busy_s": nm("gamefile.load_game_file", "busy_s") / n,
        "report.build_report.self_s": nm("report.build_report", "self_s") / n,
        "games.busy_s": layers.get("games", {}).get("busy_s", 0.0) / n,
        "coopetitive.sections": nm("coopetitive.section_game", "calls") / n,
        "geometry.pareto_filter.keep_ratio": counts.get("geometry.pareto_filter.points_out", 0.0) / points_in if points_in else 0.0,
        "geometry.cloud_unique_ratio": counts.get("geometry.pareto_filter.unique_in", 0.0) / points_in if points_in else 0.0,
        "bargaining.boundary_points": sum(
            counts.get(f"bargaining.{f}.boundary_points", 0.0) for f in ("ks_solution", "nash_bargaining", "compromise_solution")
        ) / n,
        "render.rows": (counts.get("render.Scene.add.rows", 0.0) + counts.get("render.Scene.add_solution.rows", 0.0)) / n,
        "render.bytes_written": (cli_state.bytes_written if cli_state else 0) / n,
        "trace.overhead_s": (sum(traced) - sum(untraced)) / n,
        "trace.overhead_ratio": sum(traced) / sum(untraced) - 1.0 if sum(untraced) > 0 else 0.0,
    }
    for name, unit in PER_LAYER:
        if name in m:
            continue
        if name.startswith("share."):
            m[name] = shares.get(name[len("share."):], 0.0)
        elif name.startswith(("ops.failed.", "ops.refused.")):
            continue
        else:
            base, key = name.rsplit(".", 1)
            if key in ("calls", "busy_s", "self_s"):
                m[name] = nm(base, key) / n
            else:
                m[name] = counts.get(name, 0.0) / n
    by_class = {}
    for r in records:
        if r["failure"]:
            c = r["failure"] if r["failure"] in FAILURE_CLASSES else "Other"
            by_class[c] = by_class.get(c, 0) + 1
    for c in FAILURE_CLASSES:
        m[f"ops.failed.{c}"] = by_class.get(c, 0)
    for c in REFUSAL_CLASSES:
        m[f"ops.refused.{c}"] = sum(r["refusal"] == c for r in records)
    details = {"layer_shares": shares, "names": names}
    if workload == "cli":
        for group, kinds in (("heavy", HEAVY_CLI_KINDS), ("light", None)):
            idx = [i for i, r in enumerate(records) if (r["kind"] in HEAVY_CLI_KINDS) == (kinds is not None)]
            group_spans = [sp for sp in spans if sp[0] in set(idx)]
            group_startup = sum(startup_rows[i]["latency"] - startup_rows[i]["top_level_s"] for i in idx)
            details[f"layer_shares_{group}"] = layer_shares(group_spans, [traced[i] for i in idx], group_startup)
    return m, details


def machine_info(C) -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": C.KERNEL_BACKEND,
        "compiled_kernels_built": C.KERNEL_BACKEND == "compiled",
    }


def input_properties(workload: str, seed: int, records: list[dict]) -> dict:
    from collections import Counter

    from perfbench import inputs as I

    props = {
        "seed": seed,
        "op_mix": dict(Counter(r["kind"] for r in records)),
        "orientations": dict(Counter(r["orientation"] for r in records if "orientation" in r)),
    }
    if workload == "cli":
        props["grid"] = {"finite": I.CLI_GRID_FINITE, "coopetitive": I.CLI_GRID_COOP, "c_grid": I.CLI_C_GRID}
        props["heavy_share"] = 1.0 / I.CLI_HEAVY_EVERY
        props["coop_share_of_light"] = 1.0 / I.CLI_COOP_EVERY
    elif workload == "section-sweep":
        props["c_grid_len"] = I.SWEEP_C_GRID
        props["grid_n"] = I.SWEEP_GRID_N
        props["initial_z"] = 0.0
    else:
        props["cloud_points"] = {"2d": I.DENSE_GRID_2D**2, "3d": I.DENSE_GRID_3D**3}
        props["shapes"] = dict(Counter(r["shape"] for r in records if r["kind"] == "sample_image"))
    return props


def main(argv=None) -> int:
    args = parse_args(argv)
    require_source()
    work = work_dir(args)
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        if args.setup_probe:
            C, items, _ = setup(args.workload, args.seed, work)
            print(json.dumps({
                "setup_s": time.perf_counter() - ENTRY,
                "entry_monotonic": ENTRY_MONOTONIC,
                "modules_loaded": len(sys.modules),
            }))
            return 0
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, work: Path) -> int:
    C, items, paths = setup(args.workload, args.seed, work)
    own_setup = time.perf_counter() - ENTRY
    probes = probe_setups(args, SETUP_SAMPLES - 1, importtime=bool(args.trace))
    setup_s = statistics.median([own_setup] + [p["setup_s"] for p in probes])

    from perfbench import workloads as W

    runner = W.Runner(args.seconds, bool(args.trace), refusals=tuple(getattr(C, c) for c in REFUSAL_CLASSES))
    cli_state = None
    if args.workload == "cli":
        cli_state = W.run_cli(runner, ROOT, work / "ops", items, paths)
        peak = cli_state.maxrss_kb / 1024.0
    else:
        W.run_in_process(runner, C, args.workload, items, args.seed)
        peak = W.self_peak_rss_mb()
    records = runner.records
    metrics = end_to_end(args.workload, records, peak, setup_s)
    by_class, refused, by_kind = W.outcome_table(records)
    kind_latency = {}
    for r in records:
        kind_latency.setdefault(r["kind"], []).append(r["latency"])

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(
        f"  ops attempted {len(records)}, failed {sum(by_class.values())}, refused {sum(refused.values())}; "
        f"tail = p{TAIL_PERCENTILE[args.workload]}"
    )
    for name, unit in END_TO_END:
        print(f"  {name:<16} {metrics[name]:.6g} {unit}")
    print("  failures by class: " + (", ".join(f"{k} {v}" for k, v in sorted(by_class.items())) or "none"))
    print("  refusals by class: " + (", ".join(f"{k} {v}" for k, v in sorted(refused.items())) or "none"))
    for kind, (att, fail, ref) in sorted(by_kind.items()):
        median = statistics.median(kind_latency[kind])
        print(f"    {kind:<44} ops {att:4d}  failed {fail:3d}  refused {ref:3d}  median {median:.4f} s")
    for problem in runner.problems[:20]:
        print(f"  CHECK: {problem}")

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tail_percentile": TAIL_PERCENTILE[args.workload],
        "end_to_end": metrics,
        "failures_by_class": dict(by_class),
        "refusals_by_class": dict(refused),
        "outcomes_by_kind": by_kind,
        "problems": runner.problems,
        "inputs": input_properties(args.workload, args.seed, records),
        "machine": machine_info(C),
        "setup_samples": [own_setup] + [p["setup_s"] for p in probes],
        "records": records,
    }
    if args.trace:
        layer, details = per_layer(args.workload, runner, cli_state, probes)
        result["per_layer"] = layer
        result.update(details)
        shares = details["layer_shares"]
        print("  layer shares: " + ", ".join(f"{k} {v:.3f}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
        for group in ("light", "heavy"):
            if f"layer_shares_{group}" in details:
                g = details[f"layer_shares_{group}"]
                print(f"  {group} ops: " + ", ".join(f"{k} {v:.3f}" for k, v in sorted(g.items(), key=lambda kv: -kv[1])[:5]))
        out_metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        out_metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END if name in GATED}

    results = ROOT / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(result, indent=1, default=float) + "\n", encoding="utf-8")
    if args.trace:
        with open(results / f"{stem}-spans.json", "w", encoding="utf-8") as fh:
            json.dump(runner.tracer.spans + runner.spans, fh, separators=(",", ":"))
    print(json.dumps({
        "correct": not runner.problems,
        "attempted": len(records),
        "failed": sum(by_class.values()),
        "metrics": out_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Aggregate result files of several runs into a baseline table.

Usage: ``python3 perfbench/summarize.py <out.json> <program-commit> <results/*.json ...>``.
For every workload it records, over the untraced runs, each end-to-end
metric's median, quartiles and spread (interquartile range over median, as
``statistics.quantiles(values, n=4)`` gives them), and, from the traced
runs, the per-layer metrics and layer shares.
"""

from __future__ import annotations

import json
import statistics
import sys


def main(argv: list[str]) -> int:
    out_path, commit, paths = argv[0], argv[1], argv[2:]
    runs: dict[str, list[dict]] = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            result = json.load(fh)
        runs.setdefault(result["workload"], []).append(result)
    table = {}
    for workload, results in sorted(runs.items()):
        plain = [r for r in results if not r["trace"]]
        traced = [r for r in results if r["trace"]]
        entry = {
            "seeds": sorted(r["seed"] for r in plain),
            "tail_percentile": results[0]["tail_percentile"],
            "ops_attempted": [len(r["records"]) for r in plain],
            "end_to_end": {},
        }
        for name in plain[0]["end_to_end"] if plain else ():
            values = [r["end_to_end"][name] for r in plain]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
            entry["end_to_end"][name] = {
                "median": statistics.median(values),
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / statistics.median(values) if statistics.median(values) else None,
            }
        if plain:
            for outcome in ("failures_by_class", "refusals_by_class"):
                entry[outcome] = {}
                for r in plain:
                    for k, v in r[outcome].items():
                        entry[outcome][k] = entry[outcome].get(k, 0) + v
            entry["inputs"] = plain[0]["inputs"]
            entry["machine"] = plain[0]["machine"]
        if traced:
            t = traced[0]
            entry["traced_seed"] = t["seed"]
            for key in ("per_layer", "layer_shares", "layer_shares_light", "layer_shares_heavy"):
                if key in t:
                    entry[key] = t[key]
        table[workload] = entry
    seconds = sorted({r["seconds"] for results in runs.values() for r in results})
    baseline = {
        "program_commit": commit,
        "run_seconds": seconds[0] if len(seconds) == 1 else seconds,
        "note": "untraced: one run per seed; traced: one run; written by perfbench/summarize.py",
        "workloads": table,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(baseline, fh, indent=1)
        fh.write("\n")
    for workload, entry in table.items():
        for name, m in entry["end_to_end"].items():
            spread = "n/a" if m["spread"] is None else f"{m['spread']:.3f}"
            print(f"{workload:15s} {name:15s} median {m['median']:.6g}  spread {spread}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

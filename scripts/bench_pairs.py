#!/usr/bin/env python3
"""Paired benchmark runs of a parent and a changed checkout.

    python scripts/bench_pairs.py PARENT CHANGE --workload W --pairs 10 --seed S \\
        [--seconds 25] [--trace-seconds 10] [--claim METRIC] [--out BENCH_<slug>.json]

Each pair runs ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` once in each checkout, from its own directory; the parent runs
first in even pairs and the change first in odd ones.  The script prints each
pair's end-to-end figures, then for every end-to-end metric of the change's
``BENCHMARK.json`` the change's wins and each side's median and quartiles.

``--trace-seconds`` adds one traced run per side (``--trace 1``) and records
its per-layer figures.  ``--claim METRIC`` tests the rule for a claimed gain:
the change wins at least 9 pairs in 10 and the medians differ by more than the
parent's interquartile range.  Each metric's console line ends with its
bound verdict: ``within bound`` or ``OUTSIDE bound`` by where the change's
median lies against the metric's bound around the parent's, or
``unresolved`` when the parent's interquartile range over its median exceeds
the bound, so that the runs spread too widely to tell.  The script exits 1
when the claim is not met or a metric is outside its bound.  ``--out`` writes
the result as JSON, or merges this workload into the file if it exists, so
that one file can collect every workload of a change.  Only the standard
library is used, and nothing in either checkout is edited.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The result line of one ``perfbench/run.py`` run in ``checkout``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"bench_pairs: {' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                 f"{proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            **{name: m["value"] for name, m in result["metrics"].items()}}


def quartiles(values: list) -> tuple:
    """(q1, median, q3) by the inclusive method."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(runs: list, metrics: list) -> dict:
    """Each metric's medians, quartiles, the change's wins and its bound check."""
    out = {}
    for spec in metrics:
        name, lower = spec["name"], spec["better"] == "lower"
        before = [r["parent"][name] for r in runs]
        after = [r["change"][name] for r in runs]
        wins = sum((a < b) if lower else (a > b) for a, b in zip(after, before))
        bq1, bmed, bq3 = quartiles(before)
        aq1, amed, aq3 = quartiles(after)
        limit = bmed * (1 + spec["bound"]) if lower else bmed * (1 - spec["bound"])
        within = amed <= limit if lower else amed >= limit
        spread = (bq3 - bq1) / abs(bmed) if bmed else 0.0
        verdict = ("unresolved" if spread > spec["bound"]
                   else "within bound" if within else "OUTSIDE bound")
        out[name] = {
            "unit": spec["unit"], "better": spec["better"],
            "before_median": round(bmed, 4), "before_q1": round(bq1, 4),
            "before_q3": round(bq3, 4),
            "after_median": round(amed, 4), "after_q1": round(aq1, 4), "after_q3": round(aq3, 4),
            "before_iqr": round(bq3 - bq1, 4),
            "ratio_after_over_before": round(amed / bmed, 4) if bmed else None,
            "pairs_won_by_after": f"{wins}/{len(runs)}",
            "bound": spec["bound"],
            "within_bound": within,
            "bound_verdict": verdict,
        }
    return out


def claim(summary: dict, metric: str, pairs: int) -> dict:
    """The claimed-gain rule for ``metric``: at least 9 wins in 10, and the
    medians farther apart than the parent's interquartile range."""
    s = summary[metric]
    wins = int(s["pairs_won_by_after"].split("/")[0])
    difference = abs(s["after_median"] - s["before_median"])
    return {"metric": metric,
            "rule": "after wins at least 9 pairs in 10 and the medians differ by more than "
                    "the parent's interquartile range",
            "pairs_won_by_after": s["pairs_won_by_after"],
            "median_difference": round(difference, 4), "before_iqr": s["before_iqr"],
            "ratio_after_over_before": s["ratio_after_over_before"],
            "met": wins >= math.ceil(0.9 * pairs) and difference > s["before_iqr"]}


def host() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "machine": platform.machine()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace-seconds", type=float, default=0.0)
    parser.add_argument("--claim", metavar="METRIC")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    if args.claim and args.claim not in {m["name"] for m in metrics}:
        parser.error(f"--claim {args.claim!r} is not an end-to-end metric")
    sides = {"parent": args.parent, "change": args.change}
    runs = []
    for pair in range(args.pairs):
        order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
        run = {"pair": pair, "seed": args.seed, "first": order[0]}
        for side in order:
            run[side] = run_bench(sides[side], args.workload, args.seed, args.seconds, 0)
        runs.append(run)
        print(f"pair {pair} ({order[0]} first): " + "  ".join(
            f"{m['name']} {run['parent'][m['name']]:.4g} -> {run['change'][m['name']]:.4g}"
            for m in metrics), flush=True)
    summary = summarize(runs, metrics)
    for name, s in summary.items():
        print(f"{name:16} after won {s['pairs_won_by_after']:>5}  "
              f"parent {s['before_median']:.4g} [{s['before_q1']:.4g}, {s['before_q3']:.4g}]  "
              f"change {s['after_median']:.4g} [{s['after_q1']:.4g}, {s['after_q3']:.4g}]  "
              f"ratio {s['ratio_after_over_before']}  {s['bound_verdict']}")
    entry = {"seconds": args.seconds, "seed": args.seed, "runs": runs, "metrics": summary,
             "failed_ops": {side: sum(r[side]["failed"] for r in runs) for side in sides},
             "all_correct": all(r[side]["correct"] for r in runs for side in sides)}
    if args.claim:
        entry["claim"] = claim(summary, args.claim, args.pairs)
        print(f"claim {args.claim}: {'met' if entry['claim']['met'] else 'NOT met'}")
    if args.trace_seconds:
        entry["trace"] = {side: run_bench(sides[side], args.workload, args.seed,
                                          args.trace_seconds, 1) for side in sides}
    if args.out:
        doc = json.loads(args.out.read_text()) if args.out.exists() else {
            "slug": args.out.stem.removeprefix("BENCH_"),
            "command": "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0",
            "method": "scripts/bench_pairs.py: parent and change run from separate checkouts, "
                      "alternating which runs first (parent first in even pairs); medians and "
                      "quartiles over the pairs (inclusive method); ratios are the change's "
                      "median over the parent's.",
            "host": host(), "workloads": {}}
        doc["workloads"][args.workload] = entry
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    outside = any(s["bound_verdict"] == "OUTSIDE bound" for s in summary.values())
    return 1 if outside or (args.claim and not entry["claim"]["met"]) else 0


if __name__ == "__main__":
    sys.exit(main())

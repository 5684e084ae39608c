"""Smoke test of the runnable scripts."""

import json
import os
import subprocess
import sys
from pathlib import Path

import funcband

ROOT = Path(__file__).resolve().parents[1]


def test_demo_workflow_runs(tmp_path):
    src = str(Path(funcband.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "demo_workflow.py"),
         "--n", "20", "--p", "20", "--h", "0.1", "--out", str(tmp_path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        timeout=120, check=True)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "band_bootstrap.csv", "band_difference.csv", "band_normal.csv",
        "band_prediction.csv"]
    for tag in ("normal band", "bootstrap band", "prediction band", "lack-of-fit",
                "plrt benchmark", "two-sample comparison"):
        assert tag in out.stdout


def test_reproduce_tables_runs():
    src = str(Path(funcband.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_tables.py"),
         "--table", "2", "--reps", "2", "--bootstraps", "50"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        timeout=120, check=True)
    lines = out.stdout.strip().splitlines()
    assert lines[0].startswith("model,method,")
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    assert [(r["n"], r["method"]) for r in rows] == [
        (n, m) for n in ("10", "20", "50") for m in ("normal-scb", "bootstrap-scb")]
    assert all(r["reps"] == "2" and r["failures"] == "0" for r in rows)


def test_output_digests_runs():
    src = str(Path(funcband.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "output_digests.py")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        timeout=120, check=True)
    lines = [line.split() for line in out.stdout.strip().splitlines()]
    names = [name for name, _ in lines]
    assert {"normal-1d", "normal-2d", "bootstrap", "prediction", "two-sample", "gof",
            "plrt-known", "csv-round-trip"} <= set(names)
    assert len(set(names)) == len(names)
    assert all(len(sha) == 16 and int(sha, 16) >= 0 for _, sha in lines)


_STUB_RUN = '''\
import json, sys
from pathlib import Path
here = Path(__file__).resolve().parents[1]
with open(here.parent / "order.log", "a") as log:
    log.write(here.name + " " + " ".join(sys.argv[1:]) + "\\n")
p50 = {LATENCY}
metrics = {"setup_s": 0.2, "ops_per_s": 1000.0 / p50, "latency_ms.p50": p50,
           "latency_ms.p75": p50 + 5.0, "peak_rss_mb": 50.0}
print(json.dumps({"details": True}))
print(json.dumps({"correct": True, "attempted": 10, "failed": 0,
                  "metrics": {k: {"value": v, "unit": ""} for k, v in metrics.items()}}))
'''


def test_bench_pairs_alternates_and_writes_the_bench_file(tmp_path):
    # two stand-in checkouts whose perfbench/run.py reports fixed figures
    for side, latency in (("parent", 100.0), ("change", 90.0)):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(
            _STUB_RUN.replace("{LATENCY}", repr(latency)))
        (tmp_path / side / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    out = tmp_path / "BENCH_stub.json"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_pairs.py"), str(tmp_path / "parent"),
         str(tmp_path / "change"), "--workload", "cli-session", "--pairs", "2", "--seed", "5",
         "--seconds", "1", "--claim", "latency_ms.p50", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120, check=True)
    order = (tmp_path / "order.log").read_text().splitlines()
    assert [line.split()[0] for line in order] == ["parent", "change", "change", "parent"]
    assert all("--workload cli-session --seed 5 --seconds 1.0 --trace 0" in line
               for line in order)
    assert "claim latency_ms.p50: met" in proc.stdout
    doc = json.loads(out.read_text())
    assert doc["slug"] == "stub"
    entry = doc["workloads"]["cli-session"]
    p50 = entry["metrics"]["latency_ms.p50"]
    assert (p50["before_median"], p50["after_median"], p50["pairs_won_by_after"]) == \
        (100.0, 90.0, "2/2")
    assert p50["ratio_after_over_before"] == 0.9 and p50["within_bound"]
    assert entry["metrics"]["peak_rss_mb"]["pairs_won_by_after"] == "0/2"
    assert entry["claim"]["met"] and entry["all_correct"]

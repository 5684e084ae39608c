"""Smoke test of the runnable scripts."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def _bench_pairs(tmp_path, parent_latency, change_latency, *extra):
    """bench_pairs.py over two stand-in checkouts whose perfbench/run.py
    reports fixed figures, two pairs on cli-session."""
    for side, latency in (("parent", parent_latency), ("change", change_latency)):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(
            _STUB_RUN.replace("{LATENCY}", repr(latency)))
        (tmp_path / side / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_pairs.py"), str(tmp_path / "parent"),
         str(tmp_path / "change"), "--workload", "cli-session", "--pairs", "2", "--seed", "5",
         "--seconds", "1", *extra],
        capture_output=True, text=True, env=env, timeout=120)


def test_bench_pairs_alternates_and_writes_the_bench_file(tmp_path):
    out = tmp_path / "BENCH_stub.json"
    proc = _bench_pairs(tmp_path, 100.0, 90.0, "--claim", "latency_ms.p50", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    order = (tmp_path / "order.log").read_text().splitlines()
    assert [line.split()[0] for line in order] == ["parent", "change", "change", "parent"]
    assert all("--workload cli-session --seed 5 --seconds 1.0 --trace 0" in line
               for line in order)
    assert "claim latency_ms.p50: met" in proc.stdout
    verdicts = [line for line in proc.stdout.splitlines() if "after won" in line]
    assert len(verdicts) == 5 and all(line.endswith("within bound") for line in verdicts)
    doc = json.loads(out.read_text())
    assert doc["slug"] == "stub"
    entry = doc["workloads"]["cli-session"]
    p50 = entry["metrics"]["latency_ms.p50"]
    assert (p50["before_median"], p50["after_median"], p50["pairs_won_by_after"]) == \
        (100.0, 90.0, "2/2")
    assert p50["ratio_after_over_before"] == 0.9 and p50["within_bound"]
    assert entry["metrics"]["peak_rss_mb"]["pairs_won_by_after"] == "0/2"
    assert entry["claim"]["met"] and entry["all_correct"]
    assert p50["bound_verdict"] == "within bound"


@pytest.mark.parametrize("change_latency, claim, outside", [
    (105.0, ["--claim", "latency_ms.p50"], False),  # within every bound, claim not met
    (130.0, [], True),                               # 1.3x the parent's latency
])
def test_bench_pairs_exits_1_on_a_missed_claim_or_bound(tmp_path, change_latency, claim,
                                                        outside):
    proc = _bench_pairs(tmp_path, 100.0, change_latency, *claim)
    assert proc.returncode == 1, proc.stderr
    lines = {line.split()[0]: line for line in proc.stdout.splitlines() if "after won" in line}
    assert lines["latency_ms.p50"].endswith("OUTSIDE bound" if outside else "within bound")
    assert lines["peak_rss_mb"].endswith("within bound")
    if claim:
        assert "claim latency_ms.p50: NOT met" in proc.stdout


def test_bench_pairs_wide_parent_spread_is_unresolved():
    spec = importlib.util.spec_from_file_location("bench_pairs",
                                                  ROOT / "scripts" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    metric = {"name": "latency_ms.p50", "unit": "ms", "better": "lower", "bound": 0.2}
    # the parent's quartiles 75 and 125 around a median of 100: IQR/median 0.5 > 0.2
    runs = [{"parent": {"latency_ms.p50": b}, "change": {"latency_ms.p50": 200.0}}
            for b in (50.0, 75.0, 100.0, 125.0, 150.0)]
    s = bench_pairs.summarize(runs, [metric])["latency_ms.p50"]
    assert s["bound_verdict"] == "unresolved" and not s["within_bound"]

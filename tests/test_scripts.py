"""Smoke test of the runnable scripts."""

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

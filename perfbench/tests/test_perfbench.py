"""Tests of the benchmark itself: its validators, metric names and seeding.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run as bench  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def fb():
    return bench.import_program()


@pytest.fixture(scope="module")
def session(fb, tmp_path_factory):
    """A CLI session whose outputs passed the checks, kept for doctoring."""
    wl = workloads.CliSession(fb, 7, tmp_path_factory.mktemp("cli"))
    res = wl.run(1)
    assert res.problems == []
    return wl


def _doctor(src: Path, dst: Path, name: str, change) -> Path:
    shutil.copytree(src, dst)
    path = dst / name
    payload = json.loads(path.read_text())
    change(payload)
    path.write_text(json.dumps(payload))
    return dst


OK_CODES = {"scb": 0, "boot": 0, "gof": 0, "cmp": 0, "pred": 0}


def _cli_problems(codes, outdir):
    return checks.cli_session_problems(codes, outdir, workloads.GAMMA, workloads.EVAL_POINTS)


def test_validator_accepts_the_real_session(session):
    assert _cli_problems(OK_CODES, session.outdir) == []


def test_validator_rejects_a_shifted_center(session, tmp_path):
    def shift(band):
        band["center"] = [c + 10.0 for c in band["center"]]

    out = _doctor(session.outdir, tmp_path / "out", "scb.json", shift)
    assert any("lower <= center <= upper" in p for p in _cli_problems(OK_CODES, out))


@pytest.mark.parametrize("name,key", [("scb.json", "threshold"), ("gof.json", "c_alpha"),
                                      ("gof.json", "T"), ("gof.plrt.json", "p_value")])
def test_validator_rejects_a_nan_statistic(session, tmp_path, name, key):
    def poison(payload):
        payload[key] = float("nan")

    out = _doctor(session.outdir, tmp_path / "out", name, poison)
    assert _cli_problems(OK_CODES, out)


def test_validator_rejects_a_non_zero_exit(session):
    assert _cli_problems({**OK_CODES, "cmp": 3}, session.outdir) == ["cmp: exit code 3"]


def test_validator_rejects_a_missing_output(session, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(session.outdir, out)
    (out / "pred.json").unlink()
    assert _cli_problems(OK_CODES, out)


def test_sim_row_validator():
    good = {"method": "normal-scb", "model": "m1", "rate": 1.0, "median_threshold": 3.0}
    assert checks.sim_row_problems(good, 0.05, 100) == []
    for change in ({"median_threshold": float("nan")}, {"median_threshold": 1.0},
                   {"median_threshold": 9.0}, {"rate": 1.5}, {"rate": float("nan")}):
        assert checks.sim_row_problems({**good, **change}, 0.05, 100), change
    boot = {**good, "method": "bootstrap-scb", "median_threshold": 5.4}
    assert checks.sim_row_problems(boot, 0.05, 100) == []
    plrt = {**good, "method": "plrt-np", "median_threshold": float("nan")}
    assert checks.sim_row_problems(plrt, 0.05, 100) == []


def test_two_d_band_validator():
    center = np.linspace(0.0, 1.0, 625)
    half = np.full(625, 0.3)
    assert checks.symmetric_band_problems("2d", center, center - half, center + half, 3.0,
                                          (0.05, 625)) == []
    shifted = center + 0.1
    assert checks.symmetric_band_problems("2d", shifted, center - half, center + half, 3.0,
                                          (0.05, 625))
    assert checks.symmetric_band_problems("2d", center, center - half, center + half,
                                          float("nan"), (0.05, 625))


def test_gaussian_threshold_range():
    lo, hi = checks.gaussian_threshold_range(0.05, 100)
    assert lo == pytest.approx(1.96 * (1 - checks.MC_SLACK), abs=1e-3)
    assert hi == pytest.approx(3.4808 * (1 + checks.MC_SLACK), abs=1e-3)


def _inputs_digest(wl, index: int) -> str:
    h = hashlib.sha256()
    inputs = wl.inputs(index)
    if isinstance(wl, workloads.Simulation):
        h.update(repr(inputs).encode())
    elif isinstance(wl, workloads.CliSession):
        for _name, argv in inputs:
            h.update(" ".join(argv).encode())
        for path in sorted(wl.sets[index % wl.SETS].values()):
            h.update(Path(path).read_bytes())
    else:
        sample, seed = inputs
        h.update(sample.values.tobytes() + str(seed).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", bench.WORKLOADS)
def test_seed_changes_inputs(fb, tmp_path, name):
    for sub in "abc":
        (tmp_path / sub).mkdir()
    one = workloads.WORKLOADS[name](fb, 1, tmp_path / "a")
    again = workloads.WORKLOADS[name](fb, 1, tmp_path / "b")
    two = workloads.WORKLOADS[name](fb, 2, tmp_path / "c")
    assert _inputs_digest(one, 1) != _inputs_digest(two, 1)
    if name != "cli-session":  # its argv names the set-up directory
        assert _inputs_digest(one, 1) == _inputs_digest(again, 1)


def _expected(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("name", bench.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(name, trace):
    result, details = bench.run(name, 3, 0.05, trace, probes=0)
    assert result["correct"], details["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == _expected("per_layer" if trace else "end_to_end")
    for value in result["metrics"].values():
        assert math.isfinite(value["value"])
    assert set(details["host"]) >= {"nproc", "numpy", "scipy", "blas", "blas_threads"}
    assert details["summary"]["error_rate"]["attempted"] == result["attempted"]


def test_seed_does_not_change_metric_names():
    names = [set(bench.run("sim-gauss", seed, 0.05, False, probes=0)[0]["metrics"])
             for seed in (1, 2)]
    assert names[0] == names[1]


def test_traced_self_times_sum_to_op_wall_time(fb, tmp_path):
    wl = workloads.SimGauss(fb, 5, tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert hasattr(fb.gof.weight_matrix, "__wrapped__")
        assert fb.gof.weight_matrix is fb.smoothing.weight_matrix
        for index in (1, 2):
            tracer.begin_op(index)
            wl.run(index)
            tracer.end_op()
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["problems"] == []
    assert set(summary["wall_ns"]) == {1, 2}
    for op in (1, 2):
        assert sum(summary["self_ns"][op].values()) == summary["wall_ns"][op]
        assert summary["calls"][op]["supnorm.simulate_sup_norms"] == 2
        assert summary["calls"][op]["smoothing.weight_matrix"] == 3
    assert tracer.computed["supnorm.normals_drawn"] == 4 * 13000 * 100
    assert not hasattr(fb.smoothing.weight_matrix, "__wrapped__")


def test_benchmark_json_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert tuple(m["name"] for m in SPEC["end_to_end"]) == bench.GATED
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    bounds = [m["bound"] for m in SPEC["end_to_end"]]
    assert max(bounds) <= 0.25 and setup["bound"] == max(bounds)
    total = SPEC["run_seconds"] + 12  # set-up, probes and the repeated op
    assert (4 + 22 * len(SPEC["workloads"])) * total < 3420


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "lib-2d",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""

"""The benchmark's workloads: inputs made from the seed, one op, its checks.

Every workload is built from the ``funcband`` package handed to it and the
workload seed, and exposes ``inputs(index)`` (what op ``index`` feeds the
program) and ``run(index)`` (one op). Calls into the package go through module
attributes at call time, so a tracer that rebinds them sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

GAMMA = 0.05     # band tail probability and test level used everywhere
EVAL_POINTS = 100


@dataclass
class OpResult:
    """Outcome of one op. ``attempted``/``failed`` count in the workload's
    ``unit``, of which one op holds ``op_units``; ``seconds`` is the time spent inside the program; ``method_time``
    maps a simlab method to (replications, seconds)."""

    seconds: float
    attempted: int
    failed: int
    problems: list
    digest: str
    method_time: dict = field(default_factory=dict)


def op_seed(seed: int, index: int) -> int:
    """Seed handed to the program for op ``index`` of a run seeded ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
    return h.hexdigest()


def _exp_corr_sqrt(x: np.ndarray) -> np.ndarray:
    """Cholesky factor of 0.25^2 * 0.9^(20 |x - x'|), the exponential
    covariance of the paper's Gaussian curve models."""
    cov = 0.0625 * np.exp(20.0 * np.log(0.9) * np.abs(x[:, None] - x[None, :]))
    return np.linalg.cholesky(cov)


class Simulation:
    """Closed loop over simlab table rounds: one op runs ``run_experiment`` once
    per entry of ``PLAN`` with that entry's replication count."""

    unit = "replications"
    PLAN: tuple = ()

    def __init__(self, fb, seed: int, workdir: Path):
        self.fb = fb
        self.seed = seed
        self.op_units = sum(spec["reps"] for _method, spec in self.PLAN)

    def sizes(self) -> dict:
        return {method: spec for method, spec in self.PLAN}

    def inputs(self, index: int) -> list:
        s = op_seed(self.seed, index)
        return [self.fb.ModelSpec(seed=s, **spec) for _method, spec in self.PLAN]

    def run(self, index: int) -> OpResult:
        specs = self.inputs(index)
        rows, method_time = [], {}
        start = time.perf_counter()
        for (method, _spec), spec in zip(self.PLAN, specs):
            t = time.perf_counter()
            rows.append(self.fb.run_experiment(spec, method).to_dict())
            method_time[method] = (spec.reps, time.perf_counter() - t)
        seconds = time.perf_counter() - start
        attempted = failed = 0
        problems = []
        for row in rows:
            found = checks.sim_row_problems(row, GAMMA, EVAL_POINTS)
            problems += found
            attempted += row["reps"]
            failed += row["reps"] if found else row["failures"]
            del row["wall_time"]
        return OpResult(seconds, attempted, failed, problems,
                        _sha(json.dumps(rows, sort_keys=True)), method_time)


class SimGauss(Simulation):
    PLAN = (
        ("normal-scb", dict(model="m1", n=50, p=50, h=0.05, reps=1)),
        ("gof-scb", dict(model="m3-h0", n=50, p=50, h=0.035, reps=1)),
    )


class SimBootPlrt(Simulation):
    PLAN = (
        ("bootstrap-scb", dict(model="m2", n=20, p=50, h=0.05, bootstraps=2500, reps=1)),
        ("plrt-known", dict(model="m3-hn", n=50, p=50, h=0.05, reps=10)),
        ("plrt-np", dict(model="m3-hn", n=50, p=50, h=0.05, reps=10)),
        ("plrt-ar1", dict(model="m3-hn", n=50, p=50, h=0.05, reps=10)),
    )


class CliSession:
    """One op is one analyst session of five ``funcband`` subcommands, run in
    process through ``cli.main`` on curve CSVs written at set-up."""

    unit = "sessions"
    op_units = 1
    N, P, N_TEST, SETS = 50, 50, 25, 3

    def __init__(self, fb, seed: int, workdir: Path):
        self.fb = fb
        self.seed = seed
        self.outdir = workdir / "out"
        x = (np.arange(1, self.P + 1) - 0.5) / self.P
        mean = 10.0 * x**3 - 15.0 * x**4 + 6.0 * x**5
        root = _exp_corr_sqrt(x)
        self.sets = []
        for k in range(self.SETS):
            rng = np.random.default_rng([seed, k])
            files = {}
            for name, n, shift in (("a", self.N, 0.0), ("b", self.N, 0.1),
                                   ("test", self.N_TEST, 0.0)):
                values = mean + shift * np.sin(np.pi * x) + rng.standard_normal((n, self.P)) @ root.T
                path = workdir / f"set{k}_{name}.csv"
                path.write_text("\n".join(",".join(repr(float(v)) for v in row)
                                          for row in (x, *values)) + "\n")
                files[name] = str(path)
            self.sets.append(files)

    def sizes(self) -> dict:
        return {"n": self.N, "p": self.P, "n_test": self.N_TEST, "csv_sets": self.SETS,
                "grid_size": EVAL_POINTS}

    def inputs(self, index: int) -> list:
        files = self.sets[index % self.SETS]
        seed = str(op_seed(self.seed, index))
        out = str(self.outdir)
        a = ["--in", files["a"], "--seed", seed]
        return [
            ("scb", ["scb", *a, "--h", "cv", "--out", f"{out}/scb"]),
            ("boot", ["scb", *a, "--h", "cv", "--method", "bootstrap", "--out", f"{out}/boot"]),
            ("gof", ["gof", *a, "--h", "cv", "--also-plrt", "--out", f"{out}/gof"]),
            ("cmp", ["compare", *a, "--in2", files["b"], "--h", "cv", "--out", f"{out}/cmp"]),
            ("pred", ["predict", *a, "--h", "split", "--test", files["test"],
                      "--out", f"{out}/pred"]),
        ]

    def run(self, index: int) -> OpResult:
        shutil.rmtree(self.outdir, ignore_errors=True)
        self.outdir.mkdir(parents=True)
        argvs = self.inputs(index)
        codes = {}
        console = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(console), contextlib.redirect_stderr(console):
            for name, argv in argvs:
                codes[name] = self.fb.cli.main(argv)
        seconds = time.perf_counter() - start
        problems = checks.cli_session_problems(codes, self.outdir, GAMMA, EVAL_POINTS)
        outputs = sorted(self.outdir.iterdir())
        digest = _sha(console.getvalue(), *(p.name.encode() + p.read_bytes() for p in outputs))
        return OpResult(seconds, 1, int(bool(problems)), problems, digest)


class Lib2d:
    """One op is one ``normal_scb`` call on a 2-D design, rotating over
    samples generated at set-up."""

    unit = "calls"
    op_units = 1
    GRID, EVAL, N, H, SAMPLES = 15, 25, 40, (0.2, 0.2), 6

    def __init__(self, fb, seed: int, workdir: Path):
        self.fb = fb
        self.seed = seed
        self.eval = fb.make_eval_grid(self.EVAL, dim=2)
        grid = fb.uniform_design_grid(self.GRID, self.GRID)
        axis = grid.axes[0]
        root = np.kron(_exp_corr_sqrt(axis), _exp_corr_sqrt(axis)) / 0.25
        px, py = grid.points[:, 0], grid.points[:, 1]
        mean = np.sin(2.0 * np.pi * px) * np.cos(np.pi * py)
        self.samples = []
        for k in range(self.SAMPLES):
            rng = np.random.default_rng([seed, k])
            values = mean + rng.standard_normal((self.N, grid.n_points)) @ root.T
            self.samples.append(fb.FunctionalSample(grid=grid, values=values))

    def sizes(self) -> dict:
        return {"design": [self.GRID, self.GRID], "eval": [self.EVAL, self.EVAL],
                "m": self.EVAL**2, "n": self.N, "h": list(self.H), "samples": self.SAMPLES}

    def inputs(self, index: int):
        return self.samples[index % self.SAMPLES], op_seed(self.seed, index)

    def run(self, index: int) -> OpResult:
        sample, seed = self.inputs(index)
        start = time.perf_counter()
        band = self.fb.normal_scb(sample, self.eval, self.H, gamma=GAMMA, seed=seed)
        seconds = time.perf_counter() - start
        problems = checks.symmetric_band_problems(
            "normal_scb 2-d", band.center, band.lower, band.upper, band.threshold,
            (GAMMA, self.eval.n_points))
        digest = _sha(band.center.tobytes(), band.half_width.tobytes(), repr(band.threshold))
        return OpResult(seconds, 1, int(bool(problems)), problems, digest)


WORKLOADS = {
    "sim-gauss": SimGauss,
    "sim-boot-plrt": SimBootPlrt,
    "cli-session": CliSession,
    "lib-2d": Lib2d,
}

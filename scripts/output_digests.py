#!/usr/bin/env python3
"""Print a sha256 digest of each public band and test on fixed seeded inputs.

One line per case: the case name and the first 16 hex digits of the sha256 of
its outputs (arrays by their bytes, scalars by their repr).  Grids are built
only through the factory functions, so the script runs unchanged against any
checkout's sources; run it against two checkouts and compare the lines to show
that a change left every seeded output bit-identical:

    PYTHONPATH=src python scripts/output_digests.py

With ``--pin PATH`` it writes instead, as JSON, a few scalars of every case and
one small ``run_experiment`` row per method, which tests/test_seeded_values.py
compares at rtol 1e-10 (byte digests depend on the BLAS build).  A change that
moves a seeded output on purpose rewrites that table:

    PYTHONPATH=src python scripts/output_digests.py --pin tests/seeded_values.json
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import tempfile

import numpy as np

from funcband import (
    FunctionalSample,
    bootstrap_scb,
    cv_bandwidth,
    empirical_data_covariance,
    gamma_n_plugin,
    local_linear_weights,
    make_design_grid,
    make_eval_grid,
    normal_scb,
    plrt_test,
    polynomial_basis,
    prediction_band,
    read_curves_csv,
    scb_gof_test,
    split_half_bandwidth,
    two_sample_scb,
    uniform_design_grid,
    write_curves_csv,
)
from funcband import cli
from funcband.simlab import (METHODS, ModelSpec, analytic_covariance, gen_model1, gen_model3,
                             run_experiment)

PATHS = 2000


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part).tobytes() if isinstance(part, np.ndarray)
                 else repr(part).encode())
    return h.hexdigest()[:16]


def cases(built: list | None = None):
    """(name, run) per case; ``built``, if given, gains each band that a run hashes."""
    def band_parts(band) -> tuple:
        if built is not None:
            built.append(band)
        return band.center, band.half_width, band.threshold

    eval50 = make_eval_grid(50)
    s1 = gen_model1(30, 40, seed_or_rng=1)
    s1b = gen_model1(25, 40, seed_or_rng=2)
    s3 = gen_model3(30, 40, seed_or_rng=3, hypothesis="hn")
    line = polynomial_basis(1)
    yield "normal-1d", lambda: band_parts(normal_scb(s1, eval50, 0.1, paths=PATHS, seed=4))

    def normal_2d():
        grid = uniform_design_grid(9, 9)
        rng = np.random.default_rng(5)
        values = (np.sin(3.0 * grid.points[:, 0]) * grid.points[:, 1]
                  + rng.standard_normal((20, grid.n_points)))
        sample = FunctionalSample(grid=grid, values=values)
        return band_parts(normal_scb(sample, make_eval_grid(12, dim=2), (0.3, 0.3),
                                     paths=PATHS, seed=6))

    yield "normal-2d", normal_2d

    def normal_2d_eval():
        # a 2-D evaluation grid off the design, the bandwidth a tuple per axis
        grid = uniform_design_grid(8, 8)
        rng = np.random.default_rng(17)
        sample = FunctionalSample(grid=grid, values=grid.points[:, 0] * grid.points[:, 1]
                                  + rng.standard_normal((15, grid.n_points)))
        return band_parts(normal_scb(sample, make_eval_grid(10, 2), (0.3, 0.3), seed=18))

    yield "normal-2d-eval", normal_2d_eval
    yield "bootstrap", lambda: band_parts(bootstrap_scb(s1, eval50, 0.1, bootstraps=300, seed=7))
    yield "prediction", lambda: band_parts(prediction_band(s1, eval50, 0.1, paths=PATHS, seed=8))

    def two_sample():
        result = two_sample_scb(s1, s1b, eval50, 0.1, 0.12, paths=PATHS, seed=9)
        return band_parts(result.band) + (result.reject,)

    yield "two-sample", two_sample

    def split_half():
        best, coverages = split_half_bandwidth(s1, [0.08, 0.1, 0.2], paths=PATHS, seed=10)
        return best, sorted(coverages.items())

    yield "split-half", split_half

    def cv():
        best, scores = cv_bandwidth(s1, [0.06, 0.1, 0.2])
        return best, sorted(scores.items())

    yield "cv", cv

    def gof():
        report = scb_gof_test(s3, line, eval50, 0.1, paths=PATHS, seed=11)
        return (report.statistic, report.threshold, report.reject) + band_parts(report.band)

    yield "gof", gof
    yield "gamma-n-plugin", lambda: gamma_n_plugin(s3, line, eval50, 0.1)
    yield "data-covariance", lambda: empirical_data_covariance(s1)

    def plrt(mode, **known):
        def run():
            report = plrt_test(s3, line, 0.1, covariance_mode=mode, **known)
            return report.statistic, report.pvalue
        return run

    x = s3.grid.points
    sigma = analytic_covariance("m3-hn")(x[:, None], x[None, :])
    yield "plrt-np", plrt("nonparametric")
    yield "plrt-ar1", plrt("parametric-ar1")
    yield "plrt-known", plrt("known", known_covariance=sigma)

    def weights_1d():
        w = local_linear_weights(s1.grid, 0.37, 0.1)
        return w.indices, w.weights

    def weights_2d():
        w = local_linear_weights(uniform_design_grid(9, 9), [0.4, 0.55], (0.3, 0.3))
        return w.indices, w.weights

    yield "weights-1d", weights_1d
    yield "weights-2d", weights_2d

    def tabulated_design():
        t = np.linspace(0.0, 1.0, 41)
        grid = make_design_grid([(t, 1.0 + t)], (40,))
        sample = FunctionalSample(grid=grid, values=s1.values + grid.points)
        return (grid.points,) + band_parts(normal_scb(sample, eval50, 0.1, paths=PATHS, seed=12))

    yield "tabulated-design", tabulated_design

    def csv_round_trip():
        buf = io.StringIO()
        write_curves_csv(buf, s1)
        back = read_curves_csv(io.StringIO(buf.getvalue()))
        band = bootstrap_scb(back, eval50, 0.1, bootstraps=300, seed=13)
        return (back.grid.points, back.values) + band_parts(band)

    yield "csv-round-trip", csv_round_trip

    def cli_predict():
        # the prediction band on the design points, scored on test curves
        with tempfile.TemporaryDirectory() as tmp:
            train, test = os.path.join(tmp, "train.csv"), os.path.join(tmp, "test.csv")
            write_curves_csv(train, s1)
            write_curves_csv(test, gen_model1(10, 40, seed_or_rng=14))
            out = os.path.join(tmp, "pred")
            console = io.StringIO()
            with contextlib.redirect_stdout(console), contextlib.redirect_stderr(console):
                code = cli.main(["predict", "--in", train, "--test", test, "--h", "0.1",
                                 "--paths", str(PATHS), "--seed", "15", "--out", out])
            outputs = []
            for suffix in (".json", ".csv"):
                with open(out + suffix) as fh:
                    outputs.append(fh.read())
            return (code, console.getvalue().replace(tmp, "TMP"), *outputs)

    yield "cli-predict-test", cli_predict

    def simlab_row(model, method, seed):
        def run():
            spec = ModelSpec(model=model, n=20, p=20, h=0.1, reps=2, seed=seed, grid_size=30,
                             paths=PATHS)
            row = run_experiment(spec, method).to_dict()
            del row["wall_time"]
            return sorted(row.items())
        return run

    yield "simlab-normal-scb", simlab_row("m1", "normal-scb", 16)
    yield "simlab-gof-scb", simlab_row("m3-h0", "gof-scb", 19)


def _pin(key: str, part, out: dict) -> None:
    """Add the scalars that stand for ``part`` to ``out``, under names that
    start with ``key``: a number itself, the extremes of an array or a list
    of numbers, the entries of a tuple, of a mapping or of a list of (name,
    value) pairs, and of a string the JSON object it holds, if any."""
    if isinstance(part, str):
        try:
            part = json.loads(part)
        except ValueError:
            return
    if isinstance(part, list):
        part = (dict(part) if part and all(isinstance(v, tuple) for v in part)
                else np.asarray(part, dtype=float))
    if isinstance(part, (bool, int, float, np.number)):
        out[key] = part.item() if isinstance(part, np.number) else part
    elif isinstance(part, np.ndarray) and part.size:
        out[f"{key}.min"], out[f"{key}.max"] = float(part.min()), float(part.max())
    elif isinstance(part, dict):
        for name, value in part.items():
            _pin(f"{key}.{name}", value, out)
    elif isinstance(part, tuple):
        for i, value in enumerate(part):
            _pin(f"{key}[{i}]", value, out)


def pinned_values() -> dict:
    """Per case, the scalars of its outputs (see ``_pin``) and of each band it
    built the threshold's standard error, lambda and clipped mass; per method,
    the rate, failures and median threshold of a three-replication row."""
    table, built = {}, []
    for name, run in cases(built):
        built.clear()
        row = {}
        _pin("out", run(), row)
        for i, band in enumerate(built):
            for key in ("threshold_stderr", "shrinkage_lambda", "clipped_mass"):
                _pin(f"band{i}.{key}", band.details.get(key), row)
        table[name] = row
    models = {"normal-scb": "m1", "bootstrap-scb": "m2", "gof-scb": "m3-h0"}
    for method in METHODS:
        spec = ModelSpec(model=models.get(method, "m3-hn"), n=20, p=20, h=0.1, reps=3, seed=21,
                         grid_size=30, bootstraps=200)
        result = run_experiment(spec, method)
        table[f"row {method}"] = {"rate": result.rate, "failures": result.failures,
                                  "median_threshold": result.median_threshold}
    return table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pin", metavar="PATH", help="write the pinned scalars to PATH")
    args = parser.parse_args()
    if args.pin:
        with open(args.pin, "w") as fh:
            json.dump(pinned_values(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        return 0
    for name, run in cases():
        print(f"{name:<20} {digest(*run())}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

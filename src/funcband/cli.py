"""Command-line interface.

Subcommands: scb | gof | compare | predict | simulate.  All stochastic
subcommands require an explicit --seed and are pure functions of their
inputs, flags, and seed.  Each runner returns its summary and its --out
writers; ``main`` writes every file, then prints the summary, so a subcommand
that fails prints nothing on stdout.  Exit codes: 0 ok, 2 parse/config error,
3 degenerate statistics, 4 ill-posed bandwidth.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .bands import (_prediction_bands, bootstrap_scb, normal_scb, split_half_bandwidth,
                    two_sample_scb)
from .errors import (
    DegenerateVarianceError,
    FuncbandError,
    GridError,
    IllPosedBandwidthError,
    SampleValidationError,
    SingularDesignError,
)
from .gof import basis_model, polynomial_basis, scb_gof_test
from .grids import make_eval_grid, read_curves_csv
from .plrt import plrt_test
from .simlab import METHODS, ExperimentTable, ModelSpec, run_experiment
from .smoothing import _KERNELS, cv_bandwidth

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DEGENERATE = 3
EXIT_ILL_POSED = 4

_DEFAULT_CANDIDATE_STEPS = (2, 3, 4, 6, 8, 12, 16, 24, 32)


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _float_list(text: str) -> list[float]:
    """Comma-separated numbers, e.g. '0.05,0.1'."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from None


def _open_unit(text: str) -> float:
    """A level or alpha: a number strictly between 0 and 1."""
    try:
        if 0.0 < float(text) < 1.0:
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must lie in (0,1), got {text}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once.  No flag may be abbreviated, so a truncated
    ``--config`` key or flag is an error rather than another flag."""
    parser = argparse.ArgumentParser(prog="funcband", allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    def common(p, level_flag="--level", level_default=0.95):
        p.add_argument("--in", dest="infile", required=True, help="wide curves CSV")
        p.add_argument(level_flag, dest="level", type=_open_unit, default=level_default)
        p.add_argument("--h", default="cv", help="bandwidth: a number, 'cv', or 'split'")
        p.add_argument("--h-candidates", type=_float_list,
                       help="comma-separated candidate bandwidths")

    def shared(p):
        p.add_argument("--out", help="output path prefix (writes PREFIX.csv and PREFIX.json)")
        p.add_argument("--kernel", default="epanechnikov", choices=list(_KERNELS))
        p.add_argument("--grid-size", type=int, default=100)
        p.add_argument("--paths", type=int, help="Gaussian sample paths (default by p)")
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--config", help="JSON config file overriding flags")

    p_scb = add_parser("scb", help="simultaneous confidence band for the mean curve")
    common(p_scb)
    p_scb.add_argument("--method", choices=["normal", "bootstrap"], default="normal")
    p_scb.add_argument("--B", dest="bootstraps", type=int, default=2500)

    p_gof = add_parser("gof", help="sup-norm goodness-of-fit test")
    common(p_gof, level_flag="--alpha", level_default=0.05)
    p_gof.add_argument("--basis", default="poly:1",
                       help="'poly:K' or 'tab:FILE' (wide CSV of basis values)")
    p_gof.add_argument("--also-plrt", action="store_true",
                       help="also run the pseudo-likelihood ratio benchmark")

    p_cmp = add_parser("compare", help="two-sample mean curve comparison")
    common(p_cmp, level_flag="--alpha", level_default=0.05)
    p_cmp.add_argument("--in2", help="second curves CSV")
    p_cmp.add_argument("--label-column", action="store_true",
                       help="first field of each row is a class label")
    p_cmp.add_argument("--labels", help="comma-separated pair of labels to compare")

    p_pred = add_parser("predict", help="prediction band for new curves")
    common(p_pred)
    p_pred.add_argument("--test", help="held-out curves CSV to score coverage on")

    p_sim = add_parser("simulate", help="replicated coverage/size/power experiment")
    p_sim.add_argument("--model", required=True, choices=["1", "2", "3"])
    p_sim.add_argument("--hypothesis", choices=["h0", "hn"], default="h0")
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--p", type=int, required=True)
    p_sim.add_argument("--h", type=float, required=True)
    p_sim.add_argument("--reps", type=int, required=True)
    p_sim.add_argument("--method", default="normal-scb",
                       help="comma-separated subset of: " + ",".join(METHODS))
    p_sim.add_argument("--level", type=_open_unit, default=0.05,
                       help="gamma for bands / alpha for tests")
    p_sim.add_argument("--B", dest="bootstraps", type=int, default=2500)
    p_sim.add_argument("--format", choices=["csv", "json"], default="csv")
    for p in sub.choices.values():
        shared(p)
    return parser


def _config_args(path) -> list[str]:
    """The --config JSON object as flags: "--key=value" per key, or "--key"
    for true, so that the parser converts and checks every value."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read config: {exc}", EXIT_PARSE) from None
    if not isinstance(cfg, dict):
        raise CliError("config must be a JSON object", EXIT_PARSE)
    return [f"--{key}" if value is True else
            f"--{key}={value if isinstance(value, str) else json.dumps(value)}"
            for key, value in cfg.items()]


def _load_sample(path, label_column=False):
    try:
        return read_curves_csv(path, label_column=label_column)
    except (OSError, SampleValidationError, GridError) as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_PARSE) from None


def _resolve_h(args, sample):
    """--h as a number, or the bandwidth that cv or split picks from
    --h-candidates (by default k/p for the steps k with k/p <= 0.5)."""
    if args.h not in ("cv", "split"):
        try:
            return float(args.h)
        except ValueError:
            raise CliError(f"bad --h value {args.h!r}", EXIT_PARSE) from None
    p = sample.n_points
    cands = (args.h_candidates
             or [k / p for k in _DEFAULT_CANDIDATE_STEPS if k / p <= 0.5] or [2.0 / p])
    if args.h == "cv":
        best, _ = cv_bandwidth(sample, cands, args.kernel)
    else:
        best, _ = split_half_bandwidth(sample, cands, gamma=1.0 - args.level, kernel=args.kernel,
                                       paths=args.paths, seed=args.seed)
    return best[0]


def _smoothing(args, *samples):
    """The kernel, one resolved bandwidth per sample, and the evaluation grid."""
    hs = [_resolve_h(args, sample) for sample in samples]
    return args.kernel, hs, make_eval_grid(args.grid_size)


def _write_out(path, write) -> None:
    """Open ``path`` for writing and call ``write(fh)``; an OSError exits 2."""
    try:
        with open(path, "w", newline="") as fh:
            write(fh)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror or exc}", EXIT_PARSE) from None


def _band_outputs(band, **extra):
    """The band's ``--out`` files: the CSV table, and its JSON with ``extra``."""
    return {".csv": band.write_csv, ".json": lambda fh: json.dump({**band.to_dict(), **extra}, fh)}


def _band_summary(tag, sample, h, band, tail=""):
    return (f"{tag}  n={sample.n_curves} p={sample.n_points} h={h:.6g} "
            f"level={band.level:g} c={band.threshold:.4f} "
            f"half_width=[{band.half_width.min():.4g}, {band.half_width.max():.4g}]{tail}\n")


def _run_scb(args) -> tuple[str, dict]:
    sample = _load_sample(args.infile)
    kernel, (h,), eval = _smoothing(args, sample)
    gamma = 1.0 - args.level
    if args.method == "bootstrap":
        band = bootstrap_scb(sample, eval, h, kernel, gamma, args.bootstraps, args.seed)
    else:
        band = normal_scb(sample, eval, h, kernel, gamma, args.paths, args.seed)
    return _band_summary(f"scb[{args.method}]", sample, h, band), _band_outputs(band)


def _parse_basis(spec: str):
    if spec.startswith("poly:"):
        try:
            degree = int(spec.split(":", 1)[1])
        except ValueError:
            raise CliError(f"bad basis spec {spec!r}", EXIT_PARSE) from None
        return polynomial_basis(degree)
    if spec.startswith("tab:"):
        path = spec.split(":", 1)[1]
        try:
            tab = read_curves_csv(path)
        except (SampleValidationError, OSError) as exc:
            raise CliError(f"cannot read basis table: {exc}", EXIT_PARSE) from None
        xs = tab.grid.points

        def make(row):
            return lambda x: np.interp(np.asarray(x, dtype=float), xs, row)

        return basis_model([make(row) for row in tab.values])
    raise CliError(f"bad basis spec {spec!r} (use poly:K or tab:FILE)", EXIT_PARSE)


def _run_gof(args) -> tuple[str, dict]:
    sample = _load_sample(args.infile)
    basis = _parse_basis(args.basis)
    kernel, (h,), eval = _smoothing(args, sample)
    report = scb_gof_test(sample, basis, eval, h, kernel, args.level, args.paths, args.seed)
    text = (f"gof  T={report.statistic:.4f} c_alpha={report.threshold:.4f} "
            f"alpha={report.alpha:g} reject={report.reject}\n")
    outputs = {".json": lambda fh: json.dump(report.to_dict(), fh), ".csv": report.band.write_csv}
    if args.also_plrt:
        plrt = plrt_test(sample, basis, h, kernel, "nonparametric")
        text += (f"plrt F={plrt.statistic:.4f} p={plrt.pvalue:.4g} "
                 f"reject={plrt.pvalue < args.level}\n")
        outputs[".plrt.json"] = lambda fh: json.dump(plrt.to_dict(), fh)
    return text, outputs


def _run_compare(args) -> tuple[str, dict]:
    if args.label_column:
        samples = _load_sample(args.infile, label_column=True)
        labels = (args.labels.split(",") if args.labels else list(samples)[:2])
        if len(labels) != 2 or any(l not in samples for l in labels):
            raise CliError("need two valid labels to compare", EXIT_PARSE)
        sample_a, sample_b = samples[labels[0]], samples[labels[1]]
    else:
        if not args.in2:
            raise CliError("compare needs --in2 or --label-column", EXIT_PARSE)
        sample_a, sample_b = _load_sample(args.infile), _load_sample(args.in2)
    kernel, (h_a, h_b), eval = _smoothing(args, sample_a, sample_b)
    result = two_sample_scb(sample_a, sample_b, eval, h_a, h_b, kernel, args.level,
                            args.paths, args.seed)
    return (f"compare  c={result.band.threshold:.4f} alpha={args.level:g} "
            f"reject={result.reject}\n"), _band_outputs(result.band, reject=result.reject)


def _run_predict(args) -> tuple[str, dict]:
    sample = _load_sample(args.infile)
    test = _load_sample(args.test) if args.test else None
    kernel, (h,), eval = _smoothing(args, sample)
    # the test curves are scored against the band at their design points, drawn
    # with the evaluation band from one block of Gaussian paths
    grids = [eval, test.grid] if test else [eval]
    band, *design = _prediction_bands(sample, grids, h, kernel, 1.0 - args.level, args.paths,
                                      args.seed)
    extra = {}
    if design:
        extra["test_coverage"] = float(np.mean([design[0].covers(row) for row in test.values]))
    tail = f" test_coverage={extra['test_coverage']:.4f}" if extra else ""
    return _band_summary("predict", sample, h, band, tail), _band_outputs(band, **extra)


def _run_simulate(args) -> tuple[str, dict]:
    model = {"1": "m1", "2": "m2"}.get(args.model, "m3-" + args.hypothesis)
    methods = [m.strip() for m in args.method.split(",") if m.strip()]
    if not methods:
        raise CliError(f"no method given in --method {args.method!r}", EXIT_PARSE)
    for m in methods:
        if m not in METHODS:
            raise CliError(f"unknown method {m!r}", EXIT_PARSE)
    spec = ModelSpec(model=model, n=args.n, p=args.p, h=args.h, kernel=args.kernel,
                     level=args.level, reps=args.reps, seed=args.seed,
                     grid_size=args.grid_size, paths=args.paths,
                     bootstraps=args.bootstraps)
    table = ExperimentTable([run_experiment(spec, m) for m in methods])
    text = table.to_csv() if args.format == "csv" else table.to_json()
    return text, {".csv": lambda fh: fh.write(table.to_csv()),
                  ".json": lambda fh: fh.write(table.to_json())}


_RUNNERS = {
    "scb": _run_scb,
    "gof": _run_gof,
    "compare": _run_compare,
    "predict": _run_predict,
    "simulate": _run_simulate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.config:
            args = parser.parse_args(argv + _config_args(args.config))
        text, outputs = _RUNNERS[args.command](args)
        if args.out:
            for suffix, write in outputs.items():
                _write_out(args.out + suffix, write)
        sys.stdout.write(text)
        return EXIT_OK
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except DegenerateVarianceError as exc:
        print(f"degenerate statistics: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (IllPosedBandwidthError, SingularDesignError) as exc:
        print(f"ill-posed bandwidth: {exc}", file=sys.stderr)
        return EXIT_ILL_POSED
    except FuncbandError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())

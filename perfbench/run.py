"""funcband benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload sim-gauss --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` of the
checkout this file sits in. The workloads are described in
``perfbench/README.md``.

The run sets up (imports ``funcband``, makes the inputs from the seed, runs
op 0 once), repeats op 0 to check that it is deterministic, then runs ops with
one client in a closed loop for ``--seconds``, checking every output. End-to-end
times are calibrated against a reference kernel timed between ops (see
``reference.py``). The last line of standard output is the result:
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` every other op is traced
and the metrics are the per-layer ones. The line before it holds the details:
host, input sizes, raw (uncalibrated) times, per-method replication rates, and
the error rate with its base.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

# workloads, reference and tracer import numpy, so they are imported inside
# functions: set-up timing must start before numpy is loaded.
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("sim-gauss", "sim-boot-plrt", "cli-session", "lib-2d")
# Set-up is timed in this process and in this many fresh interpreters;
# setup_s is the median of all of them.
SETUP_PROBES = 3
# The end-to-end metrics of the result; the details also give the p90, which
# has fewer than ten samples beyond it in a cli-session or lib-2d run.
GATED = ("setup_s", "ops_per_s", "latency_ms.p50", "latency_ms.p75", "peak_rss_mb")
# The reference kernel is timed after an op once this long has passed since
# its last timing; each op is calibrated by the timings on either side of it.
KERNEL_INTERVAL_S = 0.5
PROBE_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_program():
    init = SRC / "funcband" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no funcband sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import funcband
    import funcband.cli  # noqa: F401  (not imported by the package itself)

    if Path(funcband.__file__).resolve() != init.resolve():
        raise BenchError(f"funcband was imported from {funcband.__file__}, not from {SRC}")
    return funcband


def run_op(wl, index: int):
    """One op; an exception from the program counts as a failed op."""
    import workloads

    start = time.perf_counter()
    try:
        return wl.run(index)
    except Exception as exc:  # the loop must go on and report the failure
        return workloads.OpResult(time.perf_counter() - start, wl.op_units, wl.op_units,
                                  [f"op {index} raised {exc!r}"], "")


def set_up(workload: str, seed: int, workdir: Path):
    """Import the program, make the inputs and run op 0 once.

    Returns the workload, op 0's result, and a set-up sample: the seconds all
    of that took, the reference kernel's time right after, and the two
    combined into calibrated seconds.
    """
    start = time.perf_counter()
    fb = import_program()
    import workloads

    wl = workloads.WORKLOADS[workload](fb, seed, workdir)
    first = run_op(wl, 0)
    seconds = time.perf_counter() - start
    import reference

    kernel = reference.Reference().speed()
    sample = {"setup_s": reference.calibrated(seconds, kernel), "raw_s": seconds,
              "kernel_s": kernel}
    return wl, first, sample


def probe_setup(workload: str, seed: int) -> dict:
    """A set-up sample measured in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def measure(wl, seconds: float, kernel, tracer=None) -> list:
    """Closed loop with one client: op i+1 starts when op i has returned.

    Returns ``(index, OpResult, traced, kernel_s)`` per op, ``kernel_s`` being the
    mean of the reference kernel timings just before and just after it. With a
    tracer, odd ops run untraced and even ops traced, and the loop runs at
    least one of each.
    """
    ops, pending = [], []
    before, timed_at = kernel.seconds(), time.perf_counter()
    deadline = timed_at + seconds
    index = 1
    while True:
        traced = tracer is not None and index % 2 == 0
        if traced:
            tracer.install()
            tracer.begin_op(index)
            try:
                res = run_op(wl, index)
            finally:
                tracer.end_op()
                tracer.uninstall()
        else:
            res = run_op(wl, index)
        pending.append((index, res, traced))
        index += 1
        now = time.perf_counter()
        done = now >= deadline and (tracer is None or index > 2)
        if done or now - timed_at >= KERNEL_INTERVAL_S:
            after = kernel.seconds()
            ops += [(i, r, t, 0.5 * (before + after)) for i, r, t in pending]
            pending = []
            before, timed_at = after, time.perf_counter()
        if done:
            return ops


@contextlib.contextmanager
def scratch_dir(prefix: str):
    """A fresh directory under the checkout's work directory, removed after."""
    WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=WORK))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):  # not empty while another run uses it
            WORK.rmdir()


def quantile(values: list, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _blas_threads(numpy_dir: Path):
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    libs = sorted((numpy_dir.parent / "numpy.libs").glob("lib*openblas*.so*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def host_info() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(Path(numpy.__file__).resolve().parent),
    }


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_metrics(timed: list, setup_samples: list, peak_rss_mb: float) -> dict:
    """End-to-end figures from ``(OpResult, kernel_s)`` pairs, calibrated;
    ``GATED`` names the ones in the result."""
    from reference import calibrated

    latency = [calibrated(r.seconds, k) * 1000.0 for r, k in timed]
    return {
        "setup_s": _metric(statistics.median(s["setup_s"] for s in setup_samples), "s"),
        "ops_per_s": _metric(len(latency) / (sum(latency) / 1000.0), "1/s"),
        "latency_ms.p50": _metric(statistics.median(latency), "ms"),
        "latency_ms.p75": _metric(quantile(latency, 0.75), "ms"),
        "latency_ms.p90": _metric(quantile(latency, 0.9), "ms"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }


def raw_figures(timed: list, setup_samples: list) -> dict:
    """The uncalibrated times, and the host's speed against the nominal."""
    from reference import NOMINAL_S

    latency = [r.seconds * 1000.0 for r, _ in timed]
    kernel = statistics.median(k for _, k in timed)
    return {
        "setup_s": statistics.median(s["raw_s"] for s in setup_samples),
        "latency_ms.p10": quantile(latency, 0.1),
        "latency_ms.p50": statistics.median(latency),
        "latency_ms.p90": quantile(latency, 0.9),
        "kernel_ms": kernel * 1000.0,
        "host_speed": NOMINAL_S / kernel,
    }


def per_layer_metrics(ops: list, tracer) -> tuple[dict, list]:
    """Per-layer metrics of the traced ops, as calibrated means per op."""
    import tracer as tracing
    from reference import calibrated

    summary = tracer.summary()
    kernel = {index: k for index, _, traced, k in ops if traced}
    n = len(kernel)

    def mean_ms(per_op: dict) -> float:
        return sum(calibrated(ns / 1e6, kernel[op]) for op, ns in per_op.items()) / n

    metrics = {}
    for name in tracing.NAMES + (tracing.ROOT,):
        metrics[f"{name}.self_ms"] = _metric(
            mean_ms({op: by_name.get(name, 0) for op, by_name in summary["self_ns"].items()}), "ms")
        if name != tracing.ROOT:
            calls = sum(by_name.get(name, 0) for by_name in summary["calls"].values())
            metrics[f"{name}.calls"] = _metric(calls / n, "count")
    metrics["trace.op_ms"] = _metric(mean_ms(summary["wall_ns"]), "ms")
    traced = statistics.fmean(calibrated(r.seconds, k) for _, r, is_traced, k in ops if is_traced)
    plain = statistics.fmean(calibrated(r.seconds, k) for _, r, is_traced, k in ops if not is_traced)
    metrics["trace.overhead_pct"] = _metric((traced / plain - 1.0) * 100.0, "%")
    for name, unit in tracing.COMPUTED_UNITS.items():
        metrics[name] = _metric(tracer.computed.get(name, 0) / n, unit)
    return metrics, summary["problems"]


def replication_rates(timed: list) -> dict:
    """Calibrated replications per second of each simlab method; the PLRT
    modes are also summed into ``plrt``."""
    from reference import calibrated

    totals: dict = {}
    for res, kernel in timed:
        for method, (reps, secs) in res.method_time.items():
            for key in {method, "plrt" if method.startswith("plrt") else method}:
                done, spent = totals.get(key, (0, 0.0))
                totals[key] = (done + reps, spent + calibrated(secs, kernel))
    return {f"reps_per_s.{k}": _metric(done / spent, "1/s") for k, (done, spent) in totals.items()}


def run(workload: str, seed: int, seconds: float, trace: bool,
        probes: int = SETUP_PROBES) -> tuple[dict, dict]:
    """One benchmark run; returns (result, details)."""
    with scratch_dir(f"{workload}-") as workdir:
        wl, first, own_setup = set_up(workload, seed, workdir)
        setup_samples = [own_setup] + [probe_setup(workload, seed) for _ in range(probes)]
        again = run_op(wl, 0)
        problems = first.problems + again.problems
        if again.digest != first.digest:
            problems.append("op 0 repeated with the same seed gave different output")
        tracer = None
        if trace:
            import tracer as tracing

            tracer = tracing.Tracer()
        import reference

        ops = measure(wl, seconds, reference.Reference(), tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    results = [r for _, r, _, _ in ops]
    for r in results:
        problems += r.problems
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    untraced = [(r, k) for _, r, traced, k in ops if not traced]
    e2e = end_to_end_metrics(untraced, setup_samples, peak_rss_mb)
    if trace:
        metrics, trace_problems = per_layer_metrics(ops, tracer)
        problems += trace_problems
    else:
        metrics = {name: e2e[name] for name in GATED}
    summary = {**e2e, **replication_rates(untraced),
               "error_rate": {"value": failed / attempted, "unit": "ratio",
                              "failed": failed, "attempted": attempted, "base": wl.unit}}
    details = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "loop": "closed", "clients": 1, "ops": len(results), "sizes": wl.sizes(),
        "setup_samples": setup_samples, "summary": summary,
        "raw": raw_figures(untraced, setup_samples), "host": host_info(),
        "problems": problems[:20],
    }
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, in this fresh interpreter, and print its seconds")
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            with scratch_dir("probe-") as workdir:
                _, _, sample = set_up(args.workload, args.seed, workdir)
            print(json.dumps(sample))
            return 0
        result, details = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

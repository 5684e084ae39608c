"""Span tracer that measures funcband's layers from outside the package.

``Tracer.install`` replaces each public function in ``TRACED``, in every
``funcband`` module namespace that holds it, by a wrapper that records a span
``[name, start, end, parent, op]`` in memory. ``uninstall`` puts the original
functions back. The benchmark opens one root span per op around its calls into
the package, so every span has a parent except the root.

A span's self time is its duration minus the durations of its direct
children. Timestamps are integer nanoseconds, so the self times of one op sum
exactly to the op's wall time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

TRACED = {
    "grids": ("read_curves_csv", "make_design_grid"),
    "smoothing": ("weight_matrix", "fit_mean", "cv_score", "cv_bandwidth"),
    "moments": ("empirical_correlation", "schafer_strimmer_lambda", "shrink_correlation",
                "empirical_data_covariance", "psd_repair"),
    "supnorm": ("simulate_sup_norms", "sup_quantile", "order_statistic_quantile"),
    "bands": ("normal_scb", "bootstrap_scb", "two_sample_scb", "prediction_band",
              "split_half_bandwidth"),
    "gof": ("residual_process", "gamma_n_plugin", "scb_gof_test", "polynomial_basis"),
    "plrt": ("plrt_statistic", "plrt_pvalue", "ar1_covariance_fit", "plrt_test"),
    "simlab": ("gen_model1", "gen_model2", "gen_model3", "run_experiment"),
    "cli": ("main",),
}
NAMES = tuple(f"{module}.{fn}" for module, fns in TRACED.items() for fn in fns)
ROOT = "bench.op"


def _sup_norm_work(args) -> dict:
    request = args["request"]
    m = request.table().shape[0]
    return {"supnorm.normals_drawn": request.paths * m,
            "supnorm.gemm_gflop": 2.0 * request.paths * m * m / 1e9}


def _bootstrap_work(args) -> dict:
    return {"bands.bootstrap_resamples": args["bootstraps"]}


# Operation counts computed from the arguments of a traced call, not measured.
COMPUTED = {
    "supnorm.simulate_sup_norms": _sup_norm_work,
    "bands.bootstrap_scb": _bootstrap_work,
}
COMPUTED_UNITS = {
    "supnorm.normals_drawn": "computed-count",
    "supnorm.gemm_gflop": "computed-GFLOP",
    "bands.bootstrap_resamples": "computed-count",
}


def _funcband_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if name == "funcband" or name.startswith("funcband.")]


class Tracer:
    """Records spans for the ops run between ``begin_op`` and ``end_op``."""

    def __init__(self):
        self.spans: list = []
        self.computed: dict = defaultdict(float)
        self._stack: list = []
        self._op = None
        self._bindings = self._find_bindings()

    def _find_bindings(self) -> list:
        namespaces = _funcband_modules()
        bindings = []
        for module_name, fns in TRACED.items():
            module = sys.modules[f"funcband.{module_name}"]
            for fn_name in fns:
                original = getattr(module, fn_name)
                wrapper = self._wrap(f"{module_name}.{fn_name}", original)
                for ns in namespaces:
                    for attr, value in vars(ns).items():
                        if value is original:
                            bindings.append((ns, attr, original, wrapper))
        return bindings

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        work = COMPUTED.get(name)
        signature = inspect.signature(fn) if work else None
        computed = self.computed

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if work is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in work(bound.arguments).items():
                    computed[key] += value
            span = [name, clock(), 0, stack[-1], self._op]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        for ns, attr, _original, wrapper in self._bindings:
            setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, original, _wrapper in self._bindings:
            setattr(ns, attr, original)

    def begin_op(self, op) -> None:
        if self._stack:
            raise RuntimeError("an op is already open")
        self._op = op
        self._stack.append(len(self.spans))
        self.spans.append([ROOT, time.perf_counter_ns(), 0, None, op])

    def end_op(self) -> None:
        span = self.spans[self._stack.pop()]
        span[2] = time.perf_counter_ns()
        if self._stack:
            raise RuntimeError("a traced call did not return")
        self._op = None

    def summary(self) -> dict:
        """Self time and calls per op and name, plus checks.

        Returns ``{"wall_ns": {op: ns}, "self_ns": {op: {name: ns}},
        "calls": {op: {name: count}}, "problems": [...]}``. A problem is an op
        whose self times do not sum to its wall time, or a span whose children
        outlast it.
        """
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent, op in spans:
            if parent is not None:
                child_ns[parent] += end - start
        self_ns: dict = defaultdict(lambda: defaultdict(int))
        calls: dict = defaultdict(lambda: defaultdict(int))
        wall_ns: dict = {}
        problems = []
        for i, (name, start, end, parent, op) in enumerate(spans):
            own = end - start - child_ns[i]
            if own < 0:
                problems.append(f"span {name} of op {op} is shorter than its children")
            self_ns[op][name] += own
            calls[op][name] += 1
            if parent is None:
                wall_ns[op] = end - start
        for op, wall in wall_ns.items():
            if sum(self_ns[op].values()) != wall:
                problems.append(f"op {op}: self times sum to {sum(self_ns[op].values())} ns, "
                                f"wall is {wall} ns")
        return {"wall_ns": wall_ns, "self_ns": self_ns, "calls": calls, "problems": problems}

"""The names the committed benchmark binds in the package.

``perfbench/tracer.py`` rebinds each function in its ``TRACED`` table by name
and reads the ``request`` argument of ``simulate_sup_norms``;
``perfbench/workloads.py`` calls the package through ``fb.*``.  Neither runs
under ``tests/``, so a removal that broke them would otherwise pass here.
"""

import importlib
import inspect
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import funcband
import funcband.cli  # noqa: F401  (the tracer rebinds cli.main)

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracer"), importlib.import_module("workloads")


def test_every_module_export_resolves():
    for info in pkgutil.iter_modules(funcband.__path__):
        module = importlib.import_module(f"funcband.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"funcband.{info.name}.{name}"
    for name, value in vars(funcband).items():
        home = getattr(value, "__module__", None)
        if not name.startswith("_") and home and home.startswith("funcband."):
            assert getattr(importlib.import_module(home), name) is value, name


def test_simulate_sup_norms_takes_request_first():
    params = list(inspect.signature(funcband.simulate_sup_norms).parameters)
    assert params[0] == "request"


def test_each_workload_op_runs_traced(bench, tmp_path, monkeypatch):
    tracing, workloads = bench
    drawn, work = [], tracing.COMPUTED["supnorm.simulate_sup_norms"]
    monkeypatch.setitem(tracing.COMPUTED, "supnorm.simulate_sup_norms",
                        lambda args: drawn.extend((args["request"], *args["more"])) or work(args))
    tracer = tracing.Tracer()          # fails if a TRACED name is missing
    for index, (name, make) in enumerate(workloads.WORKLOADS.items()):
        (tmp_path / name).mkdir()
        op = make(funcband, 5, tmp_path / name)
        tracer.install()
        try:
            tracer.begin_op(index)
            result = op.run(0)
            tracer.end_op()
        finally:
            tracer.uninstall()
        assert result.problems == [] and result.failed == 0, name
        # the tracer sizes the draw from request.table(): an m x m correlation
        for request in drawn:
            m = request.root.size
            table = request.table()
            assert table.shape == (m, m), name
            np.testing.assert_allclose(np.diag(table), 1.0, rtol=0, atol=1e-12, err_msg=name)
        drawn.clear()
    summary = tracer.summary()
    assert summary["problems"] == []
    # one draw per Gaussian band or shared candidate set: a change that splits
    # or duplicates a draw shows here.  cli-session makes 5: scb, gof, compare,
    # the split-half search, and predict --test, whose evaluation and
    # test-design bands share one draw
    calls = {name: summary["calls"][index].get("supnorm.simulate_sup_norms", 0)
             for index, name in enumerate(workloads.WORKLOADS)}
    assert calls == {"sim-gauss": 2, "sim-boot-plrt": 0, "cli-session": 5, "lib-2d": 1}
    assert tracer.computed["supnorm.normals_drawn"] > 0

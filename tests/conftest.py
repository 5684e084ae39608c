"""Shared fixtures and independent oracles used across the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from funcband import make_eval_grid, simlab
from funcband.supnorm import _MatrixRoot

settings.register_profile(
    "funcband",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    max_examples=50,
)
settings.load_profile("funcband")


def epa(u):
    """Straight-line Epanechnikov, independent of the library's kernel table."""
    u = np.asarray(u, dtype=float)
    return np.where(np.abs(u) < 1.0, 0.75 * np.maximum(1.0 - u * u, 0.0), 0.0)


def oracle_weights_1d(xs, x, h, kern=epa):
    """Symbol-by-symbol local linear weights for d=1.

    w_j(x) = (1/ph) (s2 - (x_j - x) s1) K((x_j - x)/h), with
    s_l = (1/ph) sum_j (x_j - x)^l K((x_j - x)/h); normalized to sum 1.
    """
    xs = np.asarray(xs, dtype=float)
    p = xs.size
    d = xs - x
    k = kern(d / h)
    s1 = float(np.sum(d * k)) / (p * h)
    s2 = float(np.sum(d * d * k)) / (p * h)
    w = (s2 - d * s1) * k / (p * h)
    return w / np.sum(w)


def oracle_weights_2d(pts, x, h, kern=epa):
    """Local linear weights for d=2 via the explicit weighted normal equations.

    Row of e1' (X' K X)^{-1} X' K with X = [1, u1, u2]; algebraically identical
    to the cofactor formula after normalization.
    """
    pts = np.asarray(pts, dtype=float)
    x = np.asarray(x, dtype=float)
    u = pts - x[None, :]
    k = kern(u[:, 0] / h[0]) * kern(u[:, 1] / h[1])
    design = np.column_stack([np.ones(len(pts)), u[:, 0], u[:, 1]])
    m = design.T @ (k[:, None] * design)
    row = np.linalg.solve(m, np.array([1.0, 0.0, 0.0])) @ (design.T * k[None, :])
    return row / np.sum(row)


def chunk_normals(seed, paths, width):
    """Each chunk's normals, redrawn at ``width`` from its own Philox substream."""
    sizes = [min(2048, paths - start) for start in range(0, paths, 2048)]
    streams = np.random.SeedSequence(seed).spawn(len(sizes))
    return [np.random.Generator(np.random.Philox(s)).standard_normal((k, width))
            for k, s in zip(sizes, streams)]


def oracle_sups(root, chunks):
    """sup |z L| of each path, z the first ``root.width`` columns of its chunk.
    A matrix root's product is taken point-major, L'z', as the draw takes it:
    BLAS may round a few of its entries one ulp away from z L's.  A thin root
    L = a I + V diag(d) V' is applied as the draw applies it, as
    a (z + (z V) diag(d/a) V')."""
    if type(root) is _MatrixRoot:
        sups = [np.abs(root.factor.T @ z[:, :root.width].T).max(axis=0) for z in chunks]
    else:
        vt, a = root._vt, root._a
        sups = [a * np.abs(z + (z @ vt.T * (root._d / a)) @ vt).max(axis=1)
                for z in (z[:, :root.width] for z in chunks)]
    return np.concatenate(sups)


@pytest.fixture(scope="session")
def eval100():
    return make_eval_grid(100)


@pytest.fixture
def cold_caches():
    """Empty every per-process cache of ``funcband.simlab`` now and whenever
    the returned function is called, so the next experiment builds its plan."""
    def clear():
        for value in vars(simlab).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()

    clear()
    return clear

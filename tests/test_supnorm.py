"""Gaussian sup-norm simulation and order-statistic quantiles."""

import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import chunk_normals, oracle_sups
from scipy.stats import kstest, norm

import funcband
from funcband import (
    FactorizationError,
    FuncbandError,
    SupQuantileRequest,
    default_path_count,
    empirical_correlation,
    gamma_n_plugin,
    make_eval_grid,
    polynomial_basis,
    scb_gof_test,
    simulate_sup_norms,
    sup_quantile,
)
from funcband import bands, moments, supnorm
from funcband.bands import _curve_root
from funcband.moments import _psd_root, correlation_from_covariance
from funcband.simlab import gen_model3
from funcband.supnorm import _MatrixRoot, _ThinRoot, _sorted_quantile, order_statistic_quantile


def _request(table, gamma=0.05, paths=20000, seed=0):
    return SupQuantileRequest(np.asarray(table, dtype=float), gamma, paths, seed)


class TestRequestValidation:
    def test_level_bounds(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(FuncbandError):
                _request([[1.0]], gamma=bad)

    def test_minimum_paths(self):
        with pytest.raises(FuncbandError):
            _request([[1.0]], paths=50)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None, True])
    def test_bad_seed(self, seed):
        with pytest.raises(FuncbandError, match="seed"):
            _request([[1.0]], seed=seed)

    def test_numpy_integer_seed(self):
        assert _request([[1.0]], seed=np.int64(3)).seed == 3

    def test_draw_limit(self):
        # 1e8 normals in all: 1e6 paths on 100 points is the most
        for paths in (10**6 + 1, 10**23):
            with pytest.raises(FuncbandError, match=f"paths={paths}"):
                _request(np.eye(100), paths=paths)


class TestSimulateSupNorms:
    def test_single_point_is_absolute_normal(self):
        # [TRIVIAL] 1x1 correlation: sup values are |N(0,1)| draws
        values, mass = simulate_sup_norms(_request([[1.0]], paths=50000))
        assert mass == 0.0
        # KS against the exact |N(0,1)| law
        stat = kstest(values, lambda t: 2 * norm.cdf(t) - 1).statistic
        assert stat < 0.01

    def test_all_ones_correlation_is_rank_one(self):
        # perfect dependence: every grid point of a path has the same |value|
        table = np.ones((7, 7))
        factor_paths, _ = simulate_sup_norms(_request(table, paths=1000))
        res_multi = sup_quantile(_request(table, paths=20000, seed=3))
        res_single = sup_quantile(_request([[1.0]], paths=20000, seed=3))
        # same distribution; with the same seed the chunking matches for m=1 vs m=7
        assert abs(res_multi.threshold - res_single.threshold) < 0.05

    def test_sign_flip_symmetry(self):
        # halves of the same run are exchangeable: two-sample KS at 1%
        from scipy.stats import ks_2samp
        values, _ = simulate_sup_norms(_request(np.eye(10), paths=40000, seed=4))
        stat, p = ks_2samp(values[::2], values[1::2])
        assert p > 0.01

    def test_determinism_for_same_seed(self):
        table = np.exp(-5.0 * np.abs(np.subtract.outer(np.arange(30), np.arange(30))) / 30)
        a, _ = simulate_sup_norms(_request(table, paths=9000, seed=5))
        b, _ = simulate_sup_norms(_request(table, paths=9000, seed=5))
        np.testing.assert_array_equal(a, b)


def _curves(n, m, seed):
    """n random-walk curves on m points."""
    return np.random.default_rng(seed).standard_normal((n, m)).cumsum(axis=1)


def _shrunk(raw, lam):
    """The oracle (1 - lam) R + lam I of a correlation table R."""
    return (1.0 - lam) * raw + lam * np.eye(len(raw))


class TestThinRoot:
    @pytest.mark.parametrize("n", [2, 8])
    @pytest.mark.parametrize("lam", [1e-6, 0.05, 0.5, 1.0])
    def test_matches_dense_root(self, n, lam):
        m = 40
        curves = _curves(n, m, seed=n)
        mean = curves.mean(axis=0)
        sd = curves.std(axis=0, ddof=1)
        raw = empirical_correlation(curves, mean, sd**2)
        table = _shrunk(raw, lam)
        root = _ThinRoot(curves, mean, sd, lam)
        thin = root.dense()
        assert type(thin) is _MatrixRoot and thin.mass == 0.0
        dense, mass = _psd_root(table, correlation=True)
        assert mass == 0.0
        np.testing.assert_allclose(thin.factor @ thin.factor, table, rtol=0, atol=1e-12)
        # A root of the float table is uncertain by its rounding (about m eps)
        # over 2 sqrt(lam); at lam = 1e-6 that exceeds 1e-12, for both roots.
        eps = np.finfo(float).eps
        tol = max(1e-12, 8 * eps * m / (2 * np.sqrt(lam)))
        np.testing.assert_allclose(thin.factor, dense, rtol=0, atol=tol)
        # the thin draw of the identity's rows: row i of L, as its sup
        sups = np.empty(m)
        root.sups(np.eye(m), np.empty(m * root.columns), sups)
        np.testing.assert_allclose(sups, np.abs(dense).max(axis=1), rtol=0, atol=tol)

    @pytest.mark.parametrize("n", [2, 8])
    def test_table_built_from_the_root(self, n):
        m, lam = 40, 0.3
        curves = _curves(n, m, seed=n + 10)
        mean, sd = curves.mean(axis=0), curves.std(axis=0, ddof=1)
        raw = empirical_correlation(curves, mean, sd**2)
        dense = _shrunk(raw, lam)
        request = SupQuantileRequest(_ThinRoot(curves, mean, sd, lam), 0.05, 1000, 0)
        np.testing.assert_allclose(request.table(), dense, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("where", ["curve", "sigma", "lambda"])
    def test_non_finite_input_raises(self, where):
        curves = _curves(5, 40, seed=4)
        mean, sd, lam = curves.mean(axis=0), curves.std(axis=0, ddof=1), 0.2
        if where == "curve":
            curves[2, 7] = np.nan
        elif where == "sigma":
            sd[3] = np.inf
        else:
            lam = np.nan
        # NaN curves fail in the SVD, an infinite sigma or NaN lambda after it
        with pytest.raises(FactorizationError, match="thin square root"):
            _ThinRoot(curves, mean, sd, lam)

    def test_request_needs_a_table_or_thin_root(self):
        with pytest.raises(FuncbandError, match="correlation table"):
            SupQuantileRequest(None, 0.05, 1000, 0)

    @pytest.mark.parametrize("n, lam", [(20, 0.5), (30, 0.5), (5, 0.0), (5, 9e-7)])
    def test_dense_root_where_thin_does_not_apply(self, n, lam):
        # 2n >= m, or lambda below 1e-6
        curves = _curves(n, 40, seed=3)
        root = _curve_root(curves, curves.mean(axis=0), curves.std(axis=0, ddof=1), lam)
        assert type(root) is _MatrixRoot and root.factor.shape == (40, 40)

    @pytest.mark.parametrize("n, lam", [(5, 0.2), (20, 0.5), (50, 0.5), (5, 0.0)],
                             ids=["thin", "2n = m", "n > m", "lambda 0"])
    def test_curve_root_forms_no_table(self, n, lam, monkeypatch):
        # thin or dense, a curve root comes from one thin SVD: no m x m
        # correlation, no eigh; its dense root squares to the shrunk table
        curves = _curves(n, 40, seed=5)
        mean, sd = curves.mean(axis=0), curves.std(axis=0, ddof=1)
        table = _shrunk(empirical_correlation(curves, mean, sd**2), lam)

        def refuse(*args, **kwargs):
            raise AssertionError("m x m correlation or its eigh taken")

        with monkeypatch.context() as patch:
            for module, name in [(supnorm, "_psd_root"), (moments, "_psd_root"),
                                 (supnorm, "_shrunk_table"), (bands, "_shrunk_table"),
                                 (moments, "_shrunk_table"), (np.linalg, "eigh")]:
                patch.setattr(module, name, refuse)
            root = _curve_root(curves, mean, sd, lam)
            simulate_sup_norms(SupQuantileRequest(root, 0.05, 500, 1))
        factor = root.dense().factor if isinstance(root, _ThinRoot) else root.factor
        assert root.mass == 0.0
        np.testing.assert_allclose(factor.T @ factor, table, rtol=0, atol=1e-12)


def _shrunk_request(n, m, lam, seed, paths, thin=True):
    """A request for the shrunk correlation of n random-walk curves, drawn
    through the thin root when ``thin`` and the dense root otherwise."""
    curves = _curves(n, m, seed=seed + 100)
    mean = curves.mean(axis=0)
    sd = curves.std(axis=0, ddof=1)
    raw = empirical_correlation(curves, mean, sd**2)
    table = _shrunk(raw, lam)
    return SupQuantileRequest(_ThinRoot(curves, mean, sd, lam) if thin else table, 0.05, paths,
                              seed)


class TestSharedDraw:
    """Requests that share seed and paths are simulated from one draw, as wide
    as the widest root; a root of width w reads its first w columns."""

    # 2048 k + r paths: two full chunks and a partial one
    PATHS = 2 * 2048 + 37

    @pytest.mark.parametrize("kinds", [("dense", "thin"), ("thin", "dense"), ("thin", "thin"),
                                       ("dense", "thin", "thin", "dense")])
    def test_matches_separate_calls(self, kinds):
        requests = [_shrunk_request(5, 40, 0.1 + 0.2 * i, 3, self.PATHS, thin=kind == "thin")
                    for i, kind in enumerate(kinds)]
        shared = simulate_sup_norms(*requests)
        assert len(shared) == len(requests)
        for request, (values, mass) in zip(requests, shared):
            alone, alone_mass = simulate_sup_norms(request)
            assert values.shape == (self.PATHS,)
            assert np.array_equal(values, alone) and mass == alone_mass

    @pytest.mark.parametrize("change", [dict(seed=4), dict(paths=PATHS + 1), dict(m=41)])
    def test_requests_must_share_seed_paths_and_grid(self, change):
        # a request on another grid shares the draw; another seed or path count raises
        base = dict(seed=3, paths=self.PATHS, m=40)
        first = _shrunk_request(5, 40, 0.3, 3, self.PATHS)
        other = {**base, **change}
        second = _shrunk_request(5, other["m"], 0.3, other["seed"], other["paths"])
        if "m" not in change:
            with pytest.raises(FuncbandError, match="must share seed and paths"):
                simulate_sup_norms(first, second)
            return
        (narrow, _), (wide, _) = simulate_sup_norms(first, second)
        assert np.array_equal(wide, simulate_sup_norms(second)[0])
        chunks = chunk_normals(3, self.PATHS, 41)
        assert np.array_equal(narrow, oracle_sups(first.root, chunks))

    def test_narrower_roots_read_the_first_columns(self):
        # the oracle redraws each chunk at the widest width, 100, and applies
        # each root to its first w columns
        requests = [_shrunk_request(30, 50, 0.2, 3, self.PATHS, thin=False),   # dense, w = 50
                    _factor_request(20, 60, 3, self.PATHS),                    # factor, w = 20
                    _shrunk_request(30, 100, 0.2, 3, self.PATHS, thin=False),  # dense, w = 100
                    _thin_request(5, 40, 3, self.PATHS)]                       # thin, w = 40
        shared = simulate_sup_norms(*requests)
        chunks = chunk_normals(3, self.PATHS, 100)
        for request, (values, _) in zip(requests, shared):
            assert np.array_equal(values, oracle_sups(request.root, chunks))
        assert np.array_equal(shared[2][0], simulate_sup_norms(requests[2])[0])

    @pytest.mark.parametrize("sizes", [(100, 50), (100, 100)])
    def test_dense_roots_share_the_draw_without_a_scratch_block(self, sizes):
        # two dense roots take no more memory than the wider one's own draw
        # and a second row of sups
        paths = 13000
        wide, narrow = (_shrunk_request(30, m, 0.2, 3, paths, thin=False) for m in sizes)
        assert _peak(wide, narrow) <= _peak(wide) + 8 * paths

    @pytest.mark.parametrize("sizes", [(100, 80), (100, 100)])
    def test_thin_roots_share_the_draw_in_two_buffers(self, sizes):
        # a thin root only reads the normals, so two thin roots, like two
        # dense ones, hold no block beside the normal and product buffers
        paths = 13000
        wide, narrow = (_thin_request(30, m, 3, paths) for m in sizes)
        assert isinstance(wide.root, _ThinRoot) and isinstance(narrow.root, _ThinRoot)
        assert _peak(wide, narrow) <= _peak(wide) + 8 * paths


def _peak(*requests, workers=1):
    """The peak traced memory of one ``simulate_sup_norms`` call on the
    requests, drawn by ``workers`` workers.  The gates above draw with one:
    each further worker's thread, chunk generator and numpy call bookkeeping
    add a few KB, which move between identical calls with the threads'
    timing.  ``TestWorkers`` bounds the peak of W workers by one worker's."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(supnorm, "_cpus", lambda: workers)
        simulate_sup_norms(*requests)           # numpy's first-call allocations
        tracemalloc.start()
        try:
            simulate_sup_norms(*requests)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def _factor_request(r, m, seed, paths, mass=0.0):
    """A request for a random rank-r correlation on m points, drawn through
    its r x m factor, which claims ``mass`` clipped."""
    x = np.random.default_rng(seed + 200).standard_normal((m, r))
    factor = (x / np.linalg.norm(x, axis=1)[:, None]).T
    return SupQuantileRequest(_MatrixRoot(factor, mass), 0.05, paths, seed)


class TestFactorRoot:
    PATHS = 2048 + 37

    def test_draws_r_normals_per_path(self):
        # the oracle redraws each chunk's (k, r) normals from its own substream
        request = _factor_request(7, 30, 5, self.PATHS, mass=1e-3)
        values, mass = simulate_sup_norms(request)
        streams = np.random.SeedSequence(5).spawn(2)
        z = np.vstack([np.random.Generator(np.random.Philox(s)).standard_normal((k, 7))
                       for k, s in zip((2048, 37), streams)])
        np.testing.assert_array_equal(values, np.abs(z @ request.root.factor).max(axis=1))
        assert mass == 1e-3

    def test_shares_a_draw_by_width(self):
        # a width-40 factor on 60 points and a dense root on 40 points
        requests = [_factor_request(40, 60, 3, self.PATHS), _shrunk_request(5, 40, 0.3, 3,
                                                                            self.PATHS, False)]
        for request, (values, mass) in zip(requests, simulate_sup_norms(*requests)):
            alone, alone_mass = simulate_sup_norms(request)
            assert np.array_equal(values, alone) and mass == alone_mass
        # a width-39 factor reads the first 39 of the dense root's 40 columns
        narrow = _factor_request(39, 60, 3, self.PATHS)
        (values, _), (wide, _) = simulate_sup_norms(narrow, requests[1])
        assert np.array_equal(wide, simulate_sup_norms(requests[1])[0])
        assert np.array_equal(values, oracle_sups(narrow.root, chunk_normals(3, self.PATHS, 40)))


def _thin_request(n, m, seed, paths):
    """A request drawn through the thin root of n random-walk curves on m points."""
    curves = _curves(n, m, seed=seed + 100)
    root = _ThinRoot(curves, curves.mean(axis=0), curves.std(axis=0, ddof=1), 0.2)
    return SupQuantileRequest(root, 0.05, paths, seed)


class TestBlockedDraw:
    """A chunk of 2048 paths is drawn in blocks of rows whose buffers hold at
    most 8 MiB each; the blocks give the values of one unblocked chunk."""

    @pytest.mark.parametrize("request_, rows", [
        (lambda: _shrunk_request(5, 512, 0.2, 1, 2500, thin=False),
         {1: [2048, 452], 2: [1024] * 2 + [452]}),
        (lambda: _shrunk_request(5, 513, 0.2, 1, 2500, thin=False),
         {1: [1024] * 2 + [452], 2: [512] * 4 + [452]}),
        (lambda: _thin_request(5, 512, 1, 2500), {1: [1024] * 2 + [452], 2: [512] * 4 + [452]}),
        (lambda: _thin_request(40, 625, 1, 2500), {1: [1024] * 2 + [452], 2: [512] * 4 + [452]}),
        (lambda: _factor_request(20, 1100, 1, 2500), {1: [512] * 4 + [452],
                                                      2: [256] * 9 + [196]}),
    ], ids=["dense m=512", "dense m=513", "thin m=512", "thin m=625", "factor w=20 m=1100"])
    def test_block_rows_bound_the_buffers(self, request_, rows, monkeypatch):
        # 2048 rows of at most 512 doubles fill 8 MiB; wider grids halve the
        # block (a thin root's rows also hold its n doubles of z V), and
        # W workers each take 1/W of it, so that they hold the buffers of one
        fills, chunks = [], supnorm.map_philox_chunks

        class Rng:
            def __init__(self, rng):
                self.rng = rng

            def standard_normal(self, out):
                fills.append(len(out))
                return self.rng.standard_normal(out=out)

        def counted(draw):
            return lambda rng, k, start: draw(Rng(rng), k, start)

        monkeypatch.setattr(supnorm, "map_philox_chunks", lambda total, chunk, seed, *draws:
                            chunks(total, chunk, seed, *map(counted, draws)))
        for workers in [1, 2] if supnorm._openblas_setter() else [1]:     # else one worker
            monkeypatch.setattr(supnorm, "_cpus", lambda: workers)
            fills.clear()
            simulate_sup_norms(request_())
            assert sorted(fills, reverse=True) == rows[workers]     # the workers' fills interleave

    @pytest.mark.parametrize("request_", [
        lambda: _shrunk_request(5, 600, 0.2, 2, 2048 + 1500, thin=False),
        lambda: _thin_request(40, 1100, 2, 2048 + 1500),
    ], ids=["dense m=600", "thin m=1100"])
    def test_matches_one_fill_per_chunk(self, request_):
        # the oracle fills each chunk's normals at once from its own substream;
        # 1500 paths in the last chunk are one full block and a partial one
        request = request_()
        oracle = oracle_sups(request.root, chunk_normals(request.seed, 2048 + 1500,
                                                         request.root.width))
        values, _ = simulate_sup_norms(request)
        np.testing.assert_allclose(values, oracle, rtol=1e-13, atol=0)

    def test_buffers_stay_under_8_mib_each(self):
        # unblocked, the normal and product buffers of 2048 x 2000 doubles
        # took 65 MB; blocked, 512 x 2000 doubles each
        request = _thin_request(40, 2000, 3, 2 * 2048 + 300)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            simulate_sup_norms(request)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20


def _gof_case(monkeypatch, n, p, shrinkage):
    """The root and clipped mass of ``scb_gof_test`` on m3 under H0 with a
    line model on m = 100 points, and the plug-in correlation it draws from."""
    sample, model = gen_model3(n, p, seed_or_rng=n + p), polynomial_basis(1)
    eval = make_eval_grid(100)
    requests, run = [], bands.simulate_sup_norms
    monkeypatch.setattr(bands, "simulate_sup_norms", lambda *r: requests.extend(r) or run(*r))
    report = scb_gof_test(sample, model, eval, 0.035, paths=500, seed=1, shrinkage=shrinkage)
    cov = gamma_n_plugin(sample, model, eval, 0.035, shrinkage=shrinkage)[0]
    rho = correlation_from_covariance(cov)
    return requests[0].root, report.diagnostics["clipped_mass"], rho


def _table_case(monkeypatch):
    table = np.exp(-5.0 * np.abs(np.subtract.outer(np.arange(40), np.arange(40))) / 40)
    return SupQuantileRequest(table, 0.05, 1000, 0).root, 0.0, table


def _thin_case(monkeypatch):
    curves = _curves(8, 40, seed=31)
    mean, sd = curves.mean(axis=0), curves.std(axis=0, ddof=1)
    raw = empirical_correlation(curves, mean, sd**2)
    table = _shrunk(raw, 0.2)
    return _curve_root(curves, mean, sd, 0.2), 0.0, table


class TestWorkers:
    """W workers, one per CPU, draw whole chunks at once; the values do not
    depend on W, the caller gets a worker's exception, and no thread or BLAS
    setting outlives the call."""

    # three chunks, the last of 37 paths
    PATHS = 2 * 2048 + 37

    @pytest.mark.parametrize("make", [
        lambda paths: [_shrunk_request(30, 100, 0.2, 4, paths, thin=False)],
        lambda paths: [_thin_request(40, 625, 4, paths)],
        lambda paths: [_factor_request(20, 1100, 4, paths)],
        lambda paths: [_shrunk_request(30, 50, 0.2, 4, paths, thin=False),
                       _factor_request(20, 60, 4, paths), _thin_request(5, 40, 4, paths)],
    ], ids=["dense", "thin", "factor", "shared widths"])
    def test_values_do_not_depend_on_the_workers(self, make, monkeypatch):
        requests = make(self.PATHS)
        drawn = {}
        for workers in (1, 2, 3):
            monkeypatch.setattr(supnorm, "_cpus", lambda: workers)
            pairs = simulate_sup_norms(*requests)
            drawn[workers] = [values for values, _ in (pairs if len(requests) > 1 else [pairs])]
        for workers in (2, 3):
            for values, one in zip(drawn[workers], drawn[1]):
                assert np.array_equal(values, one)

    # Each worker beyond the first: its thread, its chunk's generator and
    # numpy's call bookkeeping, 5 to 8.5 KB measured.  With numpy's default
    # ufunc buffer a thin root's calls took 64 KiB more per worker.
    PER_WORKER = 16 * 2**10

    @pytest.mark.parametrize("make", [
        lambda: [_shrunk_request(30, 100, 0.2, 4, 13000, thin=False)],
        lambda: [_thin_request(40, 625, 4, 13000)],
        lambda: [_thin_request(30, 100, 4, 13000), _thin_request(30, 80, 4, 13000)],
        lambda: [_factor_request(20, 1100, 4, 13000)],
    ], ids=["dense", "thin", "thin shared", "factor"])
    def test_workers_hold_the_buffers_of_one(self, make):
        # the traced peak of the whole draw, while the workers run: W workers
        # share the buffers of one, and each further one adds a constant
        requests = make()
        one = _peak(*requests)
        assert one >= 2 * 2048 * 100 * 8           # at least one worker's two buffers
        for workers in (2, 4):
            assert _peak(*requests, workers=workers) <= one + (workers - 1) * self.PER_WORKER

    @pytest.mark.parametrize("workers", [1, 2])
    def test_an_exception_in_a_chunk_is_raised(self, workers, monkeypatch):
        if workers > 1 and not supnorm._openblas_setter():
            pytest.skip("OpenBLAS's openblas_set_num_threads_local was not found: one worker")
        monkeypatch.setattr(supnorm, "_cpus", lambda: workers)
        request = _shrunk_request(5, 40, 0.3, 3, 2048 + 37, thin=False)
        sups = _MatrixRoot.sups

        def second_chunk_fails(root, z, y, out):
            if len(out) == 37:
                raise ValueError("the second chunk failed")
            sups(root, z, y, out)

        monkeypatch.setattr(_MatrixRoot, "sups", second_chunk_fails)
        threads = threading.active_count()
        with pytest.raises(ValueError, match="the second chunk failed"):
            simulate_sup_norms(request)
        assert threading.active_count() == threads
        monkeypatch.setattr(_MatrixRoot, "sups", sups)
        simulate_sup_norms(request)
        assert threading.active_count() == threads

    def test_an_exception_on_a_worker_thread_is_raised_by_the_caller(self):
        # the first draw works on the calling thread, the second on a thread
        # of its own; the caller's chunk waits until the thread has failed
        failed = threading.Event()

        def caller(rng, k, start):
            assert failed.wait(timeout=60)

        def thread(rng, k, start):
            failed.set()
            raise KeyError("thread")

        threads = threading.active_count()
        with pytest.raises(KeyError, match="thread"):
            supnorm.map_philox_chunks(1000, 100, 0, caller, thread)
        assert threading.active_count() == threads

    def test_more_workers_than_cpus_take_each_chunk_once(self):
        # 8 workers on short thread switches: each of 40 chunks is drawn once,
        # from its own substream, and the results come back in chunk order
        taken, lock = [], threading.Lock()

        def draw(rng, k, start):
            with lock:
                taken.append(start)
            return start, k, rng.standard_normal(3)

        serial = supnorm.map_philox_chunks(1000, 25, 9, draw)
        taken.clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = supnorm.map_philox_chunks(1000, 25, 9, *[draw] * 8)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(taken) == list(range(0, 1000, 25))
        assert [r[:2] for r in results] == [r[:2] for r in serial]
        assert all(np.array_equal(r[2], s[2]) for r, s in zip(results, serial))

    def test_concurrent_draws_give_back_the_blas_count(self, monkeypatch):
        # 8 callers of 2 workers each overlap their holds of one BLAS thread;
        # the last to end sets back the count found by the first
        setter = supnorm._openblas_setter()
        if setter is None:
            pytest.skip("OpenBLAS's openblas_set_num_threads_local was not found")
        monkeypatch.setattr(supnorm, "_cpus", lambda: 2)
        request = _shrunk_request(5, 40, 0.3, 3, 2048 + 37, thin=False)
        alone, drawn = simulate_sup_norms(request)[0], [None] * 8
        callers = [threading.Thread(target=lambda i=i: drawn.__setitem__(
            i, simulate_sup_norms(request)[0])) for i in range(8)]
        interval, saved = sys.getswitchinterval(), setter(2)
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
            assert not any(caller.is_alive() for caller in callers)
            assert setter(2) == 2
        finally:
            sys.setswitchinterval(interval)
            setter(saved)
        assert all(np.array_equal(values, alone) for values in drawn)

    def test_caller_blas_count_is_unchanged(self, monkeypatch):
        setter = supnorm._openblas_setter()
        if setter is None:
            pytest.skip("OpenBLAS's openblas_set_num_threads_local was not found")
        monkeypatch.setattr(supnorm, "_cpus", lambda: 2)
        request = _thin_request(40, 625, 5, self.PATHS)
        saved = setter(2)
        try:
            simulate_sup_norms(request)
            assert setter(2) == 2
            monkeypatch.setattr(_ThinRoot, "sups", lambda *args: 1 / 0)
            with pytest.raises(ZeroDivisionError):
                simulate_sup_norms(request)
            assert setter(2) == 2
        finally:
            setter(saved)

    def test_thin_draw_does_not_depend_on_blas_threads(self):
        # at a single-threaded draw, z V' of m = 625 points took other bits
        # under OpenBLAS's 2 threads than under 1
        if not supnorm._openblas_setter():
            pytest.skip("OpenBLAS's openblas_set_num_threads_local was not found")
        code = ("import hashlib, numpy as np\n"
                "from funcband.supnorm import SupQuantileRequest, _ThinRoot, simulate_sup_norms\n"
                "c = np.random.default_rng(7).standard_normal((40, 625)).cumsum(axis=1)\n"
                "root = _ThinRoot(c, c.mean(axis=0), c.std(axis=0, ddof=1), 0.2)\n"
                "v, _ = simulate_sup_norms(SupQuantileRequest(root, 0.05, 13000, 3))\n"
                "print(hashlib.sha256(v.tobytes()).hexdigest())\n")
        src = str(Path(funcband.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = src
        digests = [subprocess.run([sys.executable, "-c", code], env={**env, **extra},
                                  capture_output=True, text=True, timeout=120,
                                  check=True).stdout
                   for extra in ({}, {"OPENBLAS_NUM_THREADS": "1"})]
        assert len(digests[0]) == 65 and digests[0] == digests[1]


class TestRootProtocol:
    """Every root is a width x size array L, whose sups are those of z L, with
    L'L its table(): the given table, the gof factor's correlation or the
    shrunk correlation, each checked against a table built without the root.
    A thin root's array is its ``dense()`` factor."""

    @pytest.mark.parametrize("make, kind, width, size", [
        (_table_case, _MatrixRoot, 40, 40),
        # no shrinkage and n - 1 = 9 < p - L: a rank-9 factor that drops rounding mass
        (lambda mp: _gof_case(mp, 10, 50, False), _MatrixRoot, 9, 100),
        # p - L = 148 > m: the m x m R of the factor's QR
        (lambda mp: _gof_case(mp, 50, 150, True), _MatrixRoot, 100, 100),
        (_thin_case, _ThinRoot, 40, 40),
    ], ids=["dense table", "gof r < m", "gof r > m", "thin"])
    def test_identity_gives_a_root_of_the_table(self, make, kind, width, size, monkeypatch):
        root, mass, oracle = make(monkeypatch)
        assert type(root) is kind
        assert (root.width, root.size, root.mass) == (width, size, mass)
        assert (mass > 0.0) == (width == 9)
        factor = root.dense().factor if kind is _ThinRoot else root.factor
        assert factor.shape == (width, size)
        sups = np.empty(width)
        root.sups(np.eye(width), np.empty(width * root.columns), sups)    # the sup of row i of L
        np.testing.assert_allclose(sups, np.abs(factor).max(axis=1), rtol=0, atol=1e-12)
        np.testing.assert_allclose(factor.T @ factor, root.table(), rtol=0, atol=1e-12)
        np.testing.assert_allclose(root.table(), oracle, rtol=0, atol=1e-12)


class TestQuantileStderr:
    def test_ties_widen_the_window(self):
        # 2500 values on 7 atoms: the order statistics next to the 0.95
        # quantile all tie, yet the quantile is not known exactly
        vals = np.repeat(np.arange(7.0), [400, 300, 300, 400, 400, 350, 350])
        assert _sorted_quantile(vals, 0.05)[1] > 0.0
        assert _sorted_quantile(np.full(100, 2.0), 0.05) == (2.0, 0.0)


class TestSupQuantile:
    def test_single_point_95(self):
        # [DERIVED] c_0.05 for one point is the 0.975 normal quantile 1.959964
        res = sup_quantile(_request([[1.0]], paths=100000, seed=6))
        assert abs(res.threshold - 1.959964) <= 3 * res.stderr
        assert res.stderr < 0.03

    def test_independent_100_points(self):
        # [DERIVED] identity correlation m=100: Phi^-1((1 + 0.95^(1/100))/2) = 3.481
        target = norm.ppf((1 + 0.95 ** 0.01) / 2)
        res = sup_quantile(_request(np.eye(100), paths=50000, seed=7))
        assert abs(res.threshold - target) <= 3 * res.stderr

    def test_median_of_absolute_normal(self):
        # [DERIVED] gamma = 0.5 on one point: median of |N(0,1)| = 0.6745
        res = sup_quantile(_request([[1.0]], gamma=0.5, paths=100000, seed=8))
        assert abs(res.threshold - 0.674490) < 0.01

    def test_monotone_in_gamma(self):
        values, _ = simulate_sup_norms(_request(np.eye(20), paths=5000, seed=9))
        qs = [order_statistic_quantile(values, g) for g in (0.01, 0.05, 0.1, 0.5)]
        assert qs == sorted(qs, reverse=True)

    def test_dependence_reduces_threshold(self):
        # OU-style correlation vs independence at the same grid size
        x = np.linspace(0, 1, 50)
        table = 0.9 ** (20.0 * np.abs(x[:, None] - x[None, :]))
        dep = sup_quantile(_request(table, paths=30000, seed=10)).threshold
        ind = sup_quantile(_request(np.eye(50), paths=30000, seed=10)).threshold
        assert dep < ind

    def test_deterministic_given_seed(self):
        table = np.eye(12)
        a = sup_quantile(_request(table, paths=5000, seed=11))
        b = sup_quantile(_request(table, paths=5000, seed=11))
        assert a.threshold == b.threshold

    def test_doubling_paths_is_stable(self):
        table = np.eye(25)
        small = sup_quantile(_request(table, paths=20000, seed=12))
        big = sup_quantile(_request(table, paths=40000, seed=13))
        assert abs(small.threshold - big.threshold) <= 3 * small.stderr


class TestConventions:
    def test_order_statistic_convention(self):
        values = np.arange(1.0, 11.0)  # 1..10
        # ceil(0.95 * 10) = 10th order statistic
        assert order_statistic_quantile(values, 0.05) == 10.0
        # ceil(0.5 * 10) = 5th
        assert order_statistic_quantile(values, 0.5) == 5.0
        # single value: any gamma returns it
        assert order_statistic_quantile(np.array([2.5]), 0.05) == 2.5

    def test_default_path_schedule(self):
        assert default_path_count(10) == 8000
        assert default_path_count(20) == 10000
        assert default_path_count(50) == 13000
        assert default_path_count(100) == 13000

import dataclasses
import functools
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbmilt import iltmc, quadmoments
from fbmilt.covkernel import ModelConfig, cov_rh
from fbmilt.errors import ParameterError, QuadratureBudgetError
from fbmilt.fbmgen import FbmPath, FbmPathPair, TimeGrid, sample_pair
from fbmilt.iltmc import (
    discrete_mean,
    gauss_weight_sum,
    grid_for_eps,
    heat_kernel,
    ilt_epsilon,
    mc_moments,
)
from fbmilt.quadmoments import m1, m2

CFG = ModelConfig(hurst=0.5, dim=2, horizon=1.0)


def _zero_pair(n=8, d=2):
    grid = TimeGrid(1.0, n)
    z = FbmPath(grid, 0.5, np.zeros((n + 1, d)))
    return FbmPathPair(z, z, 0)


class TestHeatKernel:
    def test_peak(self):
        for eps, d in [(0.5, 2), (1.0, 3), (2.0, 4)]:
            want = (2 * math.pi * eps) ** (-d / 2)
            assert heat_kernel(np.zeros(d), eps, d) == pytest.approx(want, rel=1e-14)

    def test_unit_vector_value(self):
        want = math.exp(-0.5) / (2 * math.pi)
        assert heat_kernel(np.array([1.0, 0.0]), 1.0, 2) == pytest.approx(want, rel=1e-12)

    def test_normalization_gauss_hermite(self):
        # tensor Gauss-Hermite after x = sqrt(2 eps) y turns the integral
        # of the density into pi^(-d/2) sum w_i w_j e^... = 1
        eps, d = 0.7, 2
        nodes, weights = np.polynomial.hermite.hermgauss(40)
        x = math.sqrt(2 * eps) * nodes
        xx, yy = np.meshgrid(x, x)
        pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
        vals = heat_kernel(pts, eps, d).reshape(40, 40)
        # undo the e^{-y^2} weight folded into hermgauss nodes
        integral = float(
            (weights[:, None] * weights[None, :] * vals
             * np.exp(nodes[:, None] ** 2 + nodes[None, :] ** 2)).sum() * (2 * eps)
        )
        assert integral == pytest.approx(1.0, abs=1e-8)

    def test_bad_eps(self):
        with pytest.raises(ParameterError):
            heat_kernel(np.zeros(2), 0.0, 2)


def _double_loop(x, y, wx, wy, eps):
    """sum_{i,j} wx_i wy_j exp(-|x_i - y_j|^2 / (2 eps)) for one pair."""
    total = 0.0
    for xi, wi in zip(x.tolist(), wx.tolist()):
        for yj, wj in zip(y.tolist(), wy.tolist()):
            sq = sum((a - b) ** 2 for a, b in zip(xi, yj))
            total += wi * wj * math.exp(-sq / (2.0 * eps))
    return total


def _kernel_inputs(r, n, d, m=None):
    m = n if m is None else m
    rng = np.random.default_rng(100 * n + 10 * d + r)
    return (rng.normal(size=(r, n, d)), rng.normal(size=(r, m, d)),
            rng.random(n), rng.random(m))


class TestGaussWeightSum:
    @pytest.mark.parametrize("r", [1, 5])
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize(
        "n, m", [(1, 1), (7, 7), (64, 64), (300, 300), (1, 9), (7, 64), (300, 5)],
        ids=["1", "7", "64", "300", "1x9", "7x64", "300x5"])
    def test_matches_double_loop(self, n, m, d, r):
        x, y, wx, wy = _kernel_inputs(r, n, d, m)
        got = gauss_weight_sum(x, y, wx, wy, 0.3)
        assert got.shape == (r,)
        for p in range(r):
            assert got[p] == pytest.approx(_double_loop(x[p], y[p], wx, wy, 0.3), rel=1e-10)

    @pytest.mark.parametrize("cap_rows", [7, 64, 2 * 64])
    def test_blocks_agree(self, monkeypatch, cap_rows):
        # caps of 7 rows, one pair and two pairs of a 64-point grid: row
        # blocks with a short last block, one pair per block, and pair
        # blocks with a short last block
        x, y, wx, wy = _kernel_inputs(5, 64, 3)
        whole = gauss_weight_sum(x, y, wx, wy, 0.3)
        monkeypatch.setattr(iltmc, "_KERNEL_BLOCK_BYTES", 8 * 64 * cap_rows)
        np.testing.assert_allclose(gauss_weight_sum(x, y, wx, wy, 0.3), whole, rtol=1e-13)

    @settings(max_examples=60, deadline=None)
    @given(r=st.integers(1, 4), n=st.integers(1, 30), m=st.integers(1, 30),
           d=st.integers(1, 4), eps=st.floats(0.1, 10.0), cap_rows=st.integers(1, 130),
           scale=st.floats(0.0, 2.0), seed=st.integers(0, 2**32 - 1))
    def test_matches_double_loop_any_block(self, r, n, m, d, eps, cap_rows, scale, seed):
        # uniform coordinates keep every exponent above -330, far from underflow
        rng = np.random.default_rng(seed)
        x = rng.uniform(-scale, scale, (r, n, d))
        y = rng.uniform(-scale, scale, (r, m, d))
        wx, wy = rng.random(n), rng.random(m)
        with mock.patch.object(iltmc, "_KERNEL_BLOCK_BYTES", 8 * m * cap_rows):
            got = gauss_weight_sum(x, y, wx, wy, eps)
        for p in range(r):
            assert got[p] == pytest.approx(_double_loop(x[p], y[p], wx, wy, eps), rel=1e-10)

    def test_terms_clamped_at_one(self):
        # nearly coincident points far from the origin: rounding in the
        # exponent -|x|^2/2eps + x.y/eps - |y|^2/2eps reaches 3e-7 here, and
        # without the clamp at 0 about 45% of the terms would exceed 1
        x, _, wx, wy = _kernel_inputs(3, 40, 3)
        x = 1e4 + 1e-6 * x
        got = gauss_weight_sum(x, x, wx, wy, 0.3)
        assert np.all(got <= wx.sum() * wy.sum() * (1 + 1e-12))


class TestIltEpsilon:
    def test_constant_zero_paths(self):
        for eps in (0.25, 1.0):
            want = (2 * math.pi * eps) ** -1  # T^2 p_eps(0) with T=1, d=2
            assert ilt_epsilon(_zero_pair(), eps) == pytest.approx(want, rel=1e-12)

    def test_far_shift_decays(self):
        grid = TimeGrid(1.0, 8)
        z = FbmPath(grid, 0.5, np.zeros((9, 2)))
        far = FbmPath(grid, 0.5, np.full((9, 2), 100.0))
        assert ilt_epsilon(FbmPathPair(z, far, 0), 1.0) < 1e-100

    def test_nonnegative_and_deterministic(self):
        grid = TimeGrid(1.0, 64)
        for seed in range(20):
            pair = sample_pair(grid, CFG, seed)
            v1 = ilt_epsilon(pair, 0.5)
            v2 = ilt_epsilon(pair, 0.5)
            assert v1 >= 0.0
            assert v1 == v2

    def test_large_eps_flattens(self):
        grid = TimeGrid(1.0, 64)
        for seed in range(20):
            pair = sample_pair(grid, CFG, seed)
            assert ilt_epsilon(pair, 1e6) < ilt_epsilon(pair, 0.5)

    def test_grid_mismatch_rejected(self):
        a = FbmPath(TimeGrid(1.0, 8), 0.5, np.zeros((9, 2)))
        b = FbmPath(TimeGrid(1.0, 16), 0.5, np.zeros((17, 2)))
        with pytest.raises(ParameterError):
            ilt_epsilon(FbmPathPair(a, b, 0), 0.5)


def _exact_second_moment(cfg, eps, grid):
    """E[I_n^2] = (2 pi)^-d sum_ijkl w_i w_j w_k w_l det(C + eps I)^(-d/2),
    where C = (lam, mu; mu, rho) is the covariance of one coordinate of
    B_t - B~_s at the node pairs (t_i, s_j) and (t_k, s_l).  O(n^4)."""
    t = grid.times
    w = grid.trapezoid_weights()
    r = np.asarray(cov_rh(t[:, None], t[None, :], cfg.hurst))
    lam = np.diag(r)[:, None] + np.diag(r)[None, :] + eps  # (i, j)
    mu = r[:, None, :, None] + r[None, :, None, :]  # (i, j, k, l)
    det = lam[:, :, None, None] * lam[None, None] - mu**2
    ww = np.outer(w, w)
    total = np.einsum("ij,ijkl,kl->", ww, det ** (-0.5 * cfg.dim), ww)
    return (2 * math.pi) ** -cfg.dim * float(total)


def _bias_bound_met(cfg, eps, n):
    ref = m1(eps, cfg)
    bias = abs(discrete_mean(cfg, eps, TimeGrid(cfg.horizon, n)) - ref.value)
    return bias + ref.error_estimate <= iltmc.GRID_BIAS_REL_TOL * ref.value


class TestDiscreteMean:
    def test_matches_double_loop(self):
        # the variance form of each term: p_{eps + t^2H + s^2H}(0)
        for h, d, eps in [(0.5, 2, 0.5), (0.3, 3, 0.2), (0.7, 4, 1.5)]:
            cfg = ModelConfig(h, d, horizon=2.0)
            grid = TimeGrid(2.0, 8)
            t, w = grid.times.tolist(), grid.trapezoid_weights().tolist()
            want = sum(wi * wj * heat_kernel(np.zeros(d), eps + ti ** (2 * h) + sj ** (2 * h), d)
                       for ti, wi in zip(t, w) for sj, wj in zip(t, w))
            assert discrete_mean(cfg, eps, grid) == pytest.approx(want, rel=1e-14)

    def test_blocks_agree(self, monkeypatch):
        grid = TimeGrid(1.0, 64)
        whole = discrete_mean(CFG, 0.5, grid)
        monkeypatch.setattr(iltmc, "_KERNEL_BLOCK_BYTES", 8 * 65 * 7)
        assert discrete_mean(CFG, 0.5, grid) == pytest.approx(whole, rel=1e-14)

    def test_bias_shrinks_as_n_doubles(self):
        want = m1(0.5, CFG).value
        biases = [abs(discrete_mean(CFG, 0.5, TimeGrid(1.0, n)) - want)
                  for n in (16, 32, 64, 128, 256)]
        assert all(b < a for a, b in zip(biases, biases[1:]))

    def test_memory_bounded_at_cap(self):
        # a dense (n+1)^2 float64 array at n = GRID_CAP would take 134 MB
        grid = TimeGrid(1.0, iltmc.GRID_CAP)
        tracemalloc.start()
        try:
            discrete_mean(CFG, 1e-4, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * iltmc._KERNEL_BLOCK_BYTES

    def test_bad_eps(self):
        with pytest.raises(ParameterError):
            discrete_mean(CFG, 0.0, TimeGrid(1.0, 8))


class TestGridForEps:
    POINTS = [(0.25, 2, 0.4), (0.25, 3, 0.4), (0.5, 2, 0.5), (0.5, 3, 1.0),
              (0.7, 2, 1.0), (0.3, 2, 0.5)]

    @pytest.mark.parametrize("h, d, eps", POINTS)
    def test_smallest_n_meeting_bound(self, h, d, eps):
        cfg = ModelConfig(h, d)
        n = grid_for_eps(eps, cfg)
        assert _bias_bound_met(cfg, eps, n)
        assert n == 16 or not _bias_bound_met(cfg, eps, n - 1)

    def test_criterion_3_grids(self):
        got = [grid_for_eps(eps, ModelConfig(h, d))
               for h, d, eps in [(0.3, 2, 0.5), (0.5, 2, 0.5), (0.5, 3, 1.0), (0.7, 2, 1.0)]]
        assert got == [51, 16, 16, 16]

    def test_criterion_3_grids_from_ladder_m1(self):
        # the sweep's m1_ladder rung gives the same n as a fresh m1
        got = []
        for h, d, eps in [(0.3, 2, 0.5), (0.5, 2, 0.5), (0.5, 3, 1.0), (0.7, 2, 1.0)]:
            cfg = ModelConfig(h, d)
            ladder = [1.0, 0.5, 0.25, 0.125]
            rung = quadmoments.m1_ladder(ladder, cfg)[ladder.index(eps)]
            got.append(grid_for_eps(eps, cfg, m1=rung))
        assert got == [51, 16, 16, 16]

    def test_unconverged_m1_recomputed(self):
        rung = quadmoments.m1_ladder([0.5], CFG)[0]
        stale = dataclasses.replace(rung, value=2.0 * rung.value, status="budget")
        assert grid_for_eps(0.5, CFG, m1=stale) == grid_for_eps(0.5, CFG)

    def test_cap_warns(self, monkeypatch):
        # (0.25, 3, 0.4) needs n = 128: doubling reaches 64, then the cap
        monkeypatch.setattr(iltmc, "GRID_CAP", 100)
        with pytest.warns(RuntimeWarning, match="capped at 100"):
            n = grid_for_eps(0.4, ModelConfig(0.25, 3))
        assert n == 100

    def test_small_eps_below_cap(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            n = grid_for_eps(1e-4, CFG)
        assert 1024 < n < iltmc.GRID_CAP
        assert _bias_bound_met(CFG, 1e-4, n)

    def test_floor(self):
        assert grid_for_eps(100.0, CFG) == 16

    def test_m1_budget_error_propagates(self, monkeypatch):
        monkeypatch.setattr(quadmoments, "_M1_MAX_EVALS", 100)
        with pytest.raises(QuadratureBudgetError):
            grid_for_eps(0.5, CFG)


class TestMcMoments:
    def test_replication_guard(self):
        with pytest.raises(ParameterError):
            mc_moments(CFG, 0.5, TimeGrid(1.0, 16), 1, seed=0)

    def test_negative_seed_rejected(self):
        # numpy's SeedSequence would raise a bare ValueError
        with pytest.raises(ParameterError, match="seed"):
            mc_moments(CFG, 0.5, TimeGrid(1.0, 16), 10, seed=-1)

    def test_deterministic_and_worker_independent(self):
        grid = TimeGrid(1.0, 16)
        a = mc_moments(CFG, 1.0, grid, 600, seed=3, workers=1)
        b = mc_moments(CFG, 1.0, grid, 600, seed=3, workers=3)
        assert a == b

    def test_pool_capped_at_chunk_count(self, monkeypatch):
        # a serial stand-in for the pool: no process is started
        seen = []

        class SerialPool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(iltmc, "ProcessPoolExecutor", SerialPool)
        grid = TimeGrid(1.0, 8)
        est = mc_moments(CFG, 1.0, grid, 2 * iltmc._CHUNK, seed=3, workers=64)
        assert seen == [2]
        assert est == mc_moments(CFG, 1.0, grid, 2 * iltmc._CHUNK, seed=3, workers=1)

    def test_variance_identity(self):
        est = mc_moments(CFG, 1.0, TimeGrid(1.0, 16), 500, seed=1)
        assert est.variance == pytest.approx(
            est.second_moment - est.mean**2, rel=1e-12
        )
        assert est.variance >= 0.0

    def test_merge_is_stable(self):
        # a spread far below the mean: s2/r - mean^2 loses every digit here
        rng = np.random.default_rng(2)
        values = 1e6 + rng.normal(0.0, 1e-3, 1000)
        bounds = [0, 1, 4, 260, 517, 518, 900, 1000]
        parts = [iltmc._moments(values[a:b]) for a, b in zip(bounds, bounds[1:])]
        count, mean, m2 = functools.reduce(iltmc._merge, parts)
        assert count == 1000
        assert mean == pytest.approx(values.mean(), rel=1e-15)
        assert m2 / count == pytest.approx(np.var(values), rel=1e-6)

    def test_se_scales_with_replications(self):
        grid = TimeGrid(1.0, 16)
        a = mc_moments(CFG, 1.0, grid, 1000, seed=5)
        b = mc_moments(CFG, 1.0, grid, 4000, seed=5)
        assert b.se_mean == pytest.approx(a.se_mean / 2, rel=0.2)

    def test_mean_matches_quadrature(self):
        eps = 1.0
        grid = TimeGrid(1.0, grid_for_eps(eps, CFG))
        est = mc_moments(CFG, eps, grid, 4000, seed=11)
        want1 = m1(eps, CFG).value
        want2 = m2(eps, CFG).value
        assert abs(est.mean - want1) <= 3 * est.se_mean
        assert abs(est.second_moment - want2) <= 3 * est.se_second

    @pytest.mark.parametrize("h, d, eps", [(0.5, 2, 0.5), (0.3, 3, 0.4)])
    def test_matches_exact_discrete_moments(self, h, d, eps):
        # both moments of the n = 16 trapezoid sum are known exactly, so
        # this tests sampler and kernel without any discretization bias
        cfg = ModelConfig(h, d)
        grid = TimeGrid(1.0, 16)
        est = mc_moments(cfg, eps, grid, 4000, seed=7)
        assert abs(est.mean - discrete_mean(cfg, eps, grid)) <= 4 * est.se_mean
        assert abs(est.second_moment - _exact_second_moment(cfg, eps, grid)) <= 4 * est.se_second

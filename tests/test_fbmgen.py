import io
import math
import types
import warnings

import numpy as np
import pytest
from scipy.stats import ks_2samp, norm

from fbmilt import fbmgen
from fbmilt.covkernel import ModelConfig, cov_rh
from fbmilt.errors import ParameterError
from fbmilt.fbmgen import TimeGrid, path_to_csv, sample_pair, sample_paths


def _rng(*key):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(key))))


def _one(grid, cfg, stream, method):
    """One (n + 1, d) path: the count = 1 case of sample_paths."""
    return sample_paths(grid, cfg, stream, 1, method)[0]


class TestTimeGrid:
    def test_times(self):
        g = TimeGrid(2.0, 4)
        np.testing.assert_allclose(g.times, [0, 0.5, 1.0, 1.5, 2.0])
        assert g.step == 0.5

    def test_trapezoid_weights(self):
        w = TimeGrid(1.0, 4).trapezoid_weights()
        np.testing.assert_allclose(w, [0.125, 0.25, 0.25, 0.25, 0.125])
        assert w.sum() == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ParameterError):
            TimeGrid(0.0, 4)
        with pytest.raises(ParameterError):
            TimeGrid(1.0, 0)
        for n in (math.nan, math.inf):  # int() of these raises ValueError, OverflowError
            with pytest.raises(ParameterError):
                TimeGrid(1.0, n)


@pytest.mark.parametrize("method", ["cholesky", "circulant"])
class TestSamplerBasics:
    def test_starts_at_zero(self, method):
        p = _one(TimeGrid(1.0, 16), ModelConfig(0.7, 3), _rng(0), method)
        assert p.shape == (17, 3)
        np.testing.assert_array_equal(p[0], 0.0)

    def test_deterministic(self, method):
        g = TimeGrid(1.0, 32)
        cfg = ModelConfig(0.3, 2)
        a = _one(g, cfg, _rng(1), method)
        b = _one(g, cfg, _rng(1), method)
        np.testing.assert_array_equal(a, b)

    def test_seed_separation(self, method):
        g = TimeGrid(1.0, 32)
        cfg = ModelConfig(0.3, 2)
        a = _one(g, cfg, _rng(1), method)
        b = _one(g, cfg, _rng(2), method)
        assert not np.array_equal(a, b)

    def test_variance_at_horizon(self, method):
        cfg = ModelConfig(0.75, 2)
        g = TimeGrid(1.0, 16)
        R = 4000
        vals = np.array([_one(g, cfg, _rng(3, r), method)[-1] for r in range(R)])
        var = vals.var(axis=0)
        se = var * math.sqrt(2.0 / R)  # sd of a variance estimate, Gaussian data
        want = g.horizon ** (2 * cfg.hurst)
        assert np.all(np.abs(var - want) <= 4 * se + 4 * want * math.sqrt(2.0 / R))


class TestCholesky:
    def test_step_limit(self):
        with pytest.raises(ParameterError):
            _one(TimeGrid(1.0, 8192), ModelConfig(0.5, 2), _rng(0), "cholesky")

    def test_sample_covariance(self):
        # grid {0, 0.5, 1}: E[B_0.5 B_1] = R_H(0.5, 1)
        cfg = ModelConfig(0.75, 2)
        g = TimeGrid(1.0, 2)
        R = 20_000
        prods = np.empty(R)
        for r in range(R):
            v = _one(g, cfg, _rng(4, r), "cholesky")[:, 0]
            prods[r] = v[1] * v[2]
        want = cov_rh(0.5, 1.0, cfg.hurst)
        assert want == pytest.approx(0.5, rel=1e-12)
        se = prods.std() / math.sqrt(R)
        assert abs(prods.mean() - want) <= 4 * se

    def test_brownian_increment_independence(self):
        cfg = ModelConfig(0.5, 2)
        g = TimeGrid(1.0, 4)
        R = 10_000
        inc = np.empty((R, 2))
        for r in range(R):
            v = _one(g, cfg, _rng(5, r), "cholesky")[:, 0]
            inc[r] = (v[1] - v[0], v[3] - v[2])
        corr = np.corrcoef(inc.T)[0, 1]
        assert abs(corr) <= 4.0 / math.sqrt(R)


class TestCirculant:
    def test_matches_cholesky_distribution(self):
        cfg = ModelConfig(0.75, 2)
        g = TimeGrid(1.0, 64)
        R = 4000
        a = np.array([_one(g, cfg, _rng(6, r), "cholesky")[-1, 0] for r in range(R)])
        b = np.array([_one(g, cfg, _rng(7, r), "circulant")[-1, 0] for r in range(R)])
        assert ks_2samp(a, b).pvalue > 0.001

    def test_brownian_kurtosis(self):
        cfg = ModelConfig(0.5, 2)
        g = TimeGrid(1.0, 256)
        inc = np.diff(_one(g, cfg, _rng(8), "circulant")[:, 0]) / math.sqrt(g.step)
        kurt = np.mean(inc**4) / np.mean(inc**2) ** 2
        assert abs(kurt - 3.0) <= 4 * math.sqrt(24.0 / inc.size)

    def test_coordinate_independence(self):
        cfg = ModelConfig(0.6, 3)
        g = TimeGrid(1.0, 32)
        R = 5000
        last = np.array([_one(g, cfg, _rng(9, r), "circulant")[-1] for r in range(R)])
        c = np.corrcoef(last.T)
        off = c[np.triu_indices(3, 1)]
        assert np.all(np.abs(off) <= 4.0 / math.sqrt(R))

    def test_failed_embedding_raises(self):
        # no H in (0, 1) reaches this: at H = 1.5 (a stand-in config) the
        # "fGn" row is no autocovariance and its embedding has negative
        # eigenvalues
        cfg, g = types.SimpleNamespace(hurst=1.5, dim=2), TimeGrid(2.0, 16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError, match="hurst=1.5, n=16"):
                sample_paths(g, cfg, _rng(10), 3, method="circulant")

    @pytest.mark.parametrize("hurst", [0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999])
    def test_embedding_never_falls_back(self, hurst):
        # over 999 H in [0.001, 0.999] and 204 n up to 8192, min / max of
        # the eigenvalues is at least 1.06e-7, clear of the -1e-8 cutoff
        eigenvalues = fbmgen._circulant_eigenvalues.__wrapped__  # keeps the cache clean
        for n in (1, 2, 3, 5, 64, 1000, 1600, 4096, 8191, 8192):
            lam = eigenvalues(hurst, n)
            assert lam.min() >= 1e-7 * lam.max(), n


def test_cached_sampler_arrays_are_read_only():
    # the lru_cache hands every caller the same array: a write through one
    # would change the law of every later sample
    for arr in (fbmgen._cholesky_factor(0.6, 8), fbmgen._circulant_eigenvalues(0.6, 8)):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


def _max_z(a, b, var, cross):
    """Worst |z| over the entries of the sample cross-covariance of the rows
    of ``a`` and ``b`` against ``cross``: zero-mean Gaussian vectors whose
    entries all have variance ``var``."""
    reps = len(a)
    c_hat = a.T @ b / reps
    se = np.sqrt((np.outer(var, var) + cross * cross) / reps)
    return float((np.abs(c_hat - cross) / se).max())


@pytest.mark.parametrize("method", ["cholesky", "circulant"])
def test_batch_law_and_independence(method):
    # one batch of 2R paths, laid out as Monte Carlo uses it: the first R
    # and the last R paths are the two halves of R pairs.  Draw p*d + j is
    # coordinate j of path p; the circulant sampler takes draws 2i and
    # 2i + 1 from the real and imaginary parts of one FFT row, and d = 3
    # makes those partners both coordinates of one path and of adjacent
    # paths.
    cfg, grid, R = ModelConfig(0.6, 3), TimeGrid(1.0, 8), 6000
    paths = sample_paths(grid, cfg, _rng(11), 2 * R, method)
    assert paths.shape == (2 * R, 9, 3)
    np.testing.assert_array_equal(paths[:, 0], 0.0)
    vals = paths[:, 1:]
    t = grid.times[1:]
    cov = cov_rh(t[:, None], t[None, :], cfg.hurst)
    zero = np.zeros_like(cov)
    draws = vals.transpose(0, 2, 1).reshape(-1, grid.n_steps)
    checks = [(draws, draws, cov), (draws[0::2], draws[1::2], zero)]
    checks += [(vals[:, :, j], vals[:, :, k], zero) for j, k in [(0, 1), (0, 2), (1, 2)]]
    checks += [(vals[:R, :, j], vals[R:, :, j], zero) for j in range(3)]
    z_star = norm.ppf(1.0 - 0.01 / (2 * len(checks) * cov.size))
    for a, b, want in checks:
        assert _max_z(a, b, np.diag(cov), want) <= z_star


@pytest.mark.parametrize("count", [0, -1, 2.0])
def test_sample_paths_count_checked(count):
    with pytest.raises(ParameterError):
        sample_paths(TimeGrid(1.0, 8), ModelConfig(0.5, 2), _rng(12), count)


class TestSamplePair:
    def test_deterministic(self):
        g = TimeGrid(1.0, 32)
        cfg = ModelConfig(0.4, 2)
        p1 = sample_pair(g, cfg, 42)
        p2 = sample_pair(g, cfg, 42)
        assert p1.shape == (2, 33, 2)
        np.testing.assert_array_equal(p1, p2)

    def test_paths_differ(self):
        p = sample_pair(TimeGrid(1.0, 32), ModelConfig(0.4, 2), 42)
        assert not np.array_equal(p[0], p[1])

    def test_seeds_differ(self):
        g = TimeGrid(1.0, 32)
        cfg = ModelConfig(0.4, 2)
        assert not np.array_equal(sample_pair(g, cfg, 1)[0], sample_pair(g, cfg, 2)[0])

    @pytest.mark.parametrize("method", ["cholesky", "circulant"])
    def test_stream_layout(self, method):
        # path k comes from child k of SeedSequence(seed).spawn(2)
        g, cfg = TimeGrid(2.0, 16), ModelConfig(0.65, 3)
        for seed in (0, 5, 2**40):
            pair = sample_pair(g, cfg, seed, method)
            children = np.random.SeedSequence(seed).spawn(2)
            for k in range(2):
                want = sample_paths(g, cfg, children[k], 1, method)[0]
                np.testing.assert_array_equal(pair[k], want)

    def test_independence_of_paths(self):
        g = TimeGrid(1.0, 8)
        cfg = ModelConfig(0.6, 2)
        R = 5000
        prods = np.empty(R)
        for r in range(R):
            p = sample_pair(g, cfg, 10_000 + r)
            prods[r] = p[0, -1, 0] * p[1, -1, 0]
        se = prods.std() / math.sqrt(R)
        assert abs(prods.mean()) <= 4 * se

    @pytest.mark.parametrize("seed", [1.5, -1, np.random.SeedSequence(3), "7", None])
    def test_seed_must_be_nonnegative_integer(self, seed):
        with pytest.raises(ParameterError, match="seed"):
            sample_pair(TimeGrid(1.0, 8), ModelConfig(0.5, 2), seed)

    def test_numpy_integer_seed(self):
        g, cfg = TimeGrid(1.0, 8), ModelConfig(0.5, 2)
        np.testing.assert_array_equal(sample_pair(g, cfg, np.int64(3)), sample_pair(g, cfg, 3))

    def test_bad_method(self):
        with pytest.raises(ParameterError):
            sample_pair(TimeGrid(1.0, 8), ModelConfig(0.5, 2), 0, method="spectral")


class TestPathCsv:
    def test_header_and_rows(self):
        buf = io.StringIO()
        path_to_csv(TimeGrid(1.0, 2), np.arange(6, dtype=float).reshape(3, 2), buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "time,x1,x2"
        assert len(lines) == 4
        assert lines[1].startswith("0.0,0.0,1.0")

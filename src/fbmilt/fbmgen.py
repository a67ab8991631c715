"""Exact samplers for d-dimensional fractional Brownian motion paths.

Two methods of the same Gaussian law: a dense Cholesky factorization of
the covariance matrix (the correctness reference, any grid up to 4096
steps) and Davies-Harte circulant embedding of the fractional Gaussian
noise autocovariance (O(n log n), uniform grids).  Coordinates are
independent one-dimensional fBms.  ``sample_paths`` is the one sampler:
it draws a whole batch of paths from one stream with one matrix product
or one FFT, as an array of shape (count, n_steps + 1, dim).  That array
is the only form a path takes.  A batch of r pairs is a (2r, n+1, d)
array in which path p pairs with path r + p; ``sample_pair`` draws one
such pair, one path from each of two disjoint child streams of a seed.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .covkernel import ModelConfig, _check_int, _check_range, cov_rh
from .errors import ParameterError

__all__ = [
    "TimeGrid",
    "sample_pair",
    "sample_paths",
    "path_to_csv",
]

_CHOLESKY_MAX_STEPS = 4096


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_n = horizon with n_steps intervals."""

    horizon: float
    n_steps: int

    def __post_init__(self):
        _check_range("horizon", self.horizon, 0.0)
        _check_int("n_steps", self.n_steps, 1)

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)

    @property
    def step(self) -> float:
        return self.horizon / self.n_steps

    def trapezoid_weights(self) -> np.ndarray:
        w = np.full(self.n_steps + 1, self.step)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w


def _as_generator(stream):
    if isinstance(stream, np.random.Generator):
        return stream
    if isinstance(stream, np.random.SeedSequence):
        return np.random.Generator(np.random.Philox(stream))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(stream)))


@lru_cache(maxsize=32)
def _cholesky_factor(hurst, n):
    """Lower factor of the fBm covariance on the unit grid {1/n, ..., 1}."""
    t = np.arange(1, n + 1) / n
    cov = cov_rh(t[:, None], t[None, :], hurst)
    try:
        factor = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise ParameterError(
            f"covariance factorization failed for hurst={hurst}, n={n}: {exc}"
        ) from exc
    factor.setflags(write=False)  # shared by every caller through the cache
    return factor


def _cholesky_paths(grid, cfg, rng, count):
    """(count, n+1, d) paths from one ``L @ Z`` product.

    The factor is computed on the unit grid and scaled by horizon^H
    (self-similarity), so it is cached across horizons.  Column
    ``p * d + j`` of Z drives coordinate j of path p.
    """
    n, d = grid.n_steps, cfg.dim
    _check_range("cholesky n_steps", n, 1.0, _CHOLESKY_MAX_STEPS + 1, closed=True)
    L = _cholesky_factor(cfg.hurst, n)
    lz = L @ rng.standard_normal((n, count * d))
    lz *= grid.horizon**cfg.hurst
    values = np.zeros((count, n + 1, d))
    values[:, 1:] = lz.reshape(n, count, d).transpose(1, 0, 2)
    return values


@lru_cache(maxsize=32)
def _circulant_eigenvalues(hurst, n):
    """Eigenvalues of the circulant embedding of the fGn autocovariance.

    Returns the eigenvalue array of length 2n, or None when the embedding
    has a meaningfully negative eigenvalue.
    """
    h2 = 2.0 * hurst
    k = np.arange(n + 1, dtype=float)
    c = 0.5 * (np.abs(k + 1.0) ** h2 + np.abs(k - 1.0) ** h2 - 2.0 * k**h2)
    row = np.concatenate([c, c[n - 1:0:-1]])
    lam = np.fft.fft(row).real
    if lam.min() < -1e-8 * lam.max():
        return None
    lam = np.maximum(lam, 0.0)
    lam.setflags(write=False)  # shared by every caller through the cache
    return lam


def _circulant_paths(grid, cfg, rng, count):
    """(count, n+1, d) paths from one FFT (Davies & Harte, 1987).

    With W a vector of 2n i.i.d. standard complex normals, the real and
    imaginary parts of the first n entries of FFT(sqrt(lam / 2n) W) are
    two independent exact unit-spacing fGn draws.  FFT row i gives draws
    2i (real part) and 2i + 1 (imaginary part); draw ``p * d + j`` is
    coordinate j of path p.  Each draw is rescaled by step^H and summed
    into a path.  Falls back to the Cholesky sampler with a warning if
    the embedding fails.
    """
    n, d = grid.n_steps, cfg.dim
    lam = _circulant_eigenvalues(cfg.hurst, n)
    if lam is None:
        warnings.warn(
            "circulant embedding has a negative eigenvalue; "
            "falling back to the cholesky sampler",
            RuntimeWarning,
        )
        return _cholesky_paths(grid, cfg, rng, count)
    m = 2 * n
    draws = count * d
    rows = (draws + 1) // 2
    z = rng.standard_normal((rows, m, 2)).view(complex)[..., 0]
    z *= np.sqrt(lam / m)
    z = np.fft.fft(z)[:, :n]
    fgn = np.empty((2 * rows, n))
    fgn[0::2] = z.real
    fgn[1::2] = z.imag
    del z  # frees the FFT buffer before the paths are allocated
    fgn = fgn[:draws]
    fgn *= grid.step**cfg.hurst
    np.cumsum(fgn, axis=1, out=fgn)
    values = np.zeros((count, n + 1, d))
    values[:, 1:] = fgn.reshape(count, d, n).transpose(0, 2, 1)
    return values


_SAMPLERS = {"cholesky": _cholesky_paths, "circulant": _circulant_paths}


def sample_paths(grid: TimeGrid, cfg: ModelConfig, stream, count: int,
                 method: str = "circulant") -> np.ndarray:
    """``count`` independent exact fBm paths from one stream, as an array
    of shape (count, n_steps + 1, dim) whose [:, 0] is 0.

    All paths come from one matrix product (cholesky) or one FFT
    (circulant), so sampling a batch costs little more than its
    arithmetic.  ``stream`` is a numpy Generator, a SeedSequence or an
    integer seed.
    """
    _check_int("count", count, 1)
    if method not in _SAMPLERS:
        raise ParameterError(f"method must be one of {sorted(_SAMPLERS)}, got {method!r}")
    return _SAMPLERS[method](grid, cfg, _as_generator(stream), count)


def sample_pair(grid: TimeGrid, cfg: ModelConfig, seed: int,
                method: str = "circulant") -> np.ndarray:
    """Two independent paths as a (2, n_steps + 1, dim) array, path k
    drawn from child k of ``SeedSequence(seed).spawn(2)``."""
    _check_int("seed", seed, 0)
    return np.concatenate([sample_paths(grid, cfg, child, 1, method)
                           for child in np.random.SeedSequence(int(seed)).spawn(2)])


def path_to_csv(grid: TimeGrid, values, fileobj) -> None:
    """Debug dump of one (n_steps + 1, dim) path: one row per time,
    columns time, x1..xd."""
    writer = csv.writer(fileobj)
    writer.writerow(["time"] + [f"x{j + 1}" for j in range(values.shape[1])])
    for t, row in zip(grid.times, values):
        writer.writerow([repr(float(t))] + [repr(float(v)) for v in row])

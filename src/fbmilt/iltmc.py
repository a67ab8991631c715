"""Monte Carlo side: the smoothed intersection local time over sampled
path pairs and moment estimation across replications.

I_eps of a path pair is the tensor-product trapezoid discretization of
the double time integral of the heat kernel of the path difference.
``gauss_weight_sum`` computes its kernel sum for a batch of pairs at
once.  It augments each path with two coordinates, so that one matrix
product gives the exponent -|x_i - y_j|^2 / (2 eps) directly, then takes
one exp and one matrix-vector product per block.  A block holds whole
pairs, or rows of one pair, and at most ``_KERNEL_BLOCK_BYTES`` (1 MiB)
of float64 exponents, so that it stays in a core's L2 cache between the
passes.

The mean of that trapezoid sum is known in closed form
(``discrete_mean``), so ``grid_for_eps`` picks the smallest grid whose
exact discretization bias is within ``GRID_BIAS_REL_TOL`` (1e-3) of the
quadrature m1(eps).

Replications are addressed per chunk: chunk k holds replications
k * _CHUNK .. (k + 1) * _CHUNK - 1 and draws all of its paths from one
Philox stream keyed by (seed, k).  The chunk samples its paths with one
matrix product or FFT and sums them with one kernel call, unless the
sampler's FFT buffer would exceed ``_SAMPLER_BLOCK_BYTES`` (8 MiB; for a
full chunk, when d n > 1024); then it does so for consecutive
sub-batches that fit, drawn in order from the chunk's stream.  Each chunk
returns the count, mean and sum of squared deviations of I_eps and of
I_eps^2, and the chunks are merged in index order with the pairwise
update of Chan, Golub & LeVeque (1979), so results do not depend on the
worker count and the variance does not cancel when it is small against
the squared mean.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import quadmoments
from .covkernel import ModelConfig, _check_int
from .errors import ParameterError
# sample_pair is not called here; perfbench/tracing.py wraps it as iltmc.sample_pair.
from .fbmgen import FbmPathPair, TimeGrid, sample_pair, sample_paths  # noqa: F401

__all__ = [
    "MomentEstimate",
    "heat_kernel",
    "gauss_weight_sum",
    "ilt_epsilon",
    "discrete_mean",
    "grid_for_eps",
    "mc_moments",
]

GRID_CAP = 4096
GRID_BIAS_REL_TOL = 1e-3
_CHUNK = 256
_KERNEL_BLOCK_BYTES = 1 << 20
_SAMPLER_BLOCK_BYTES = 1 << 23


def _eps_value(eps) -> float:
    value = float(eps)
    if not (value > 0.0):
        raise ParameterError(f"eps must be positive, got {value}")
    return value


def heat_kernel(x, eps, dim: int):
    """Gaussian density p_eps(x) = (2 pi eps)^(-d/2) exp(-|x|^2 / 2 eps).

    ``x`` is a vector of length ``dim`` or an array of them (last axis the
    coordinate axis).
    """
    e = _eps_value(eps)
    x = np.asarray(x, dtype=float)
    sq = x * x if x.ndim == 0 else np.sum(x * x, axis=-1)
    out = (2.0 * math.pi * e) ** (-0.5 * dim) * np.exp(-0.5 * sq / e)
    return out if np.ndim(out) else float(out)


def gauss_weight_sum(x, y, wx, wy, eps) -> np.ndarray:
    """sum_{i,j} wx_i wy_j exp(-|x_{p,i} - y_{p,j}|^2 / (2 eps)) for each pair p.

    x: (r, n, d), y: (r, m, d), wx: (n,), wy: (m,).  Returns an array of
    r sums; the caller applies the (2 pi eps)^(-d/2) normalization.  With
    the augmented operands X = [x/eps, -|x|^2/(2 eps), 1] and
    Y = [y^T; 1; -|y|^2/(2 eps)], the matrix product X Y is the exponent,
    so the O(r n m d) work runs inside BLAS.  Each block of whole pairs
    (when one pair fits under _KERNEL_BLOCK_BYTES) or of rows of one pair
    then takes min(., 0), which keeps every term at most 1 where rounding
    makes the exponent of a near-zero distance positive, one exp and one
    matrix-vector product.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    wx = np.asarray(wx, dtype=float)
    wy = np.asarray(wy, dtype=float)
    r, n, d = x.shape
    m = y.shape[1]
    inv = 0.5 / eps
    xa = np.empty((r, n, d + 2))
    np.divide(x, eps, out=xa[..., :d])
    xa[..., d] = np.einsum("pid,pid->pi", x, x) * -inv
    xa[..., d + 1] = 1.0
    ya = np.empty((r, d + 2, m))
    ya[:, :d] = y.transpose(0, 2, 1)
    ya[:, d] = 1.0
    ya[:, d + 1] = np.einsum("pjd,pjd->pj", y, y) * -inv
    rows = max(1, min(n, _KERNEL_BLOCK_BYTES // (8 * m)))
    pairs = max(1, _KERNEL_BLOCK_BYTES // (8 * m * n)) if rows == n else 1
    buf = np.empty(min(pairs, r) * rows * m)
    out = np.zeros(r)
    for p0 in range(0, r, pairs):
        p1 = min(p0 + pairs, r)
        for i0 in range(0, n, rows):
            i1 = min(i0 + rows, n)
            sq = buf[:(p1 - p0) * (i1 - i0) * m].reshape(p1 - p0, i1 - i0, m)
            np.matmul(xa[p0:p1, i0:i1], ya[p0:p1], out=sq)
            np.minimum(sq, 0.0, out=sq)
            np.exp(sq, out=sq)
            out[p0:p1] += (sq @ wy) @ wx[i0:i1]
    return out


def ilt_epsilon(pair: FbmPathPair, eps) -> float:
    """Trapezoid discretization of int int p_eps(B_t - B~_s) ds dt >= 0."""
    e = _eps_value(eps)
    first, second = pair.first, pair.second
    if first.grid != second.grid or first.dim != second.dim:
        raise ParameterError("the two paths must share grid and dimension")
    w = first.grid.trapezoid_weights()
    raw = gauss_weight_sum(first.values[None], second.values[None], w, w, e)[0]
    return (2.0 * math.pi * e) ** (-0.5 * first.dim) * float(raw)


def discrete_mean(cfg: ModelConfig, eps, grid: TimeGrid) -> float:
    """Exact E[I_n] of the trapezoid sum on ``grid``:
    sum_ij w_i w_j (2 pi (eps + t_i^2H + s_j^2H))^(-d/2), since B_t - B~_s
    is centred Gaussian with covariance (t^2H + s^2H) I_d.

    O(n^2) work in row blocks of at most _KERNEL_BLOCK_BYTES, so no
    (n+1)^2 array is held at any n.
    """
    e = _eps_value(eps)
    lam = grid.times ** (2.0 * cfg.hurst)
    w = grid.trapezoid_weights()
    m = len(lam)
    rows = max(1, min(m, _KERNEL_BLOCK_BYTES // (8 * m)))
    buf = np.empty(rows * m)
    total = 0.0
    for i0 in range(0, m, rows):
        i1 = min(i0 + rows, m)
        block = buf[:(i1 - i0) * m].reshape(i1 - i0, m)
        np.add.outer(lam[i0:i1] + e, lam, out=block)
        block **= -0.5 * cfg.dim
        total += float(w[i0:i1] @ (block @ w))
    return (2.0 * math.pi) ** (-0.5 * cfg.dim) * total


def grid_for_eps(eps, cfg: ModelConfig, m1=None) -> int:
    """Smallest n >= 16 whose exact discretization bias is within
    GRID_BIAS_REL_TOL of m1(eps):
    |discrete_mean(n) - m1(eps)| + m1's claimed error <= 1e-3 m1(eps).

    ``m1`` is the caller's QuadratureResult for m1(eps), such as a rung of
    quadmoments.m1_ladder; it is computed here when not given or not
    converged.

    Searched by doubling from 16, then bisection, so the returned n meets
    the bound and n - 1 does not (unless n = 16).  Capped at GRID_CAP with
    a RuntimeWarning when the bound is not met below it.  Only n is chosen
    with the quadrature's help; the Monte Carlo estimate on that grid stays
    independent of it.  Raises QuadratureBudgetError if m1 does not
    converge.
    """
    e = _eps_value(eps)
    ref = m1 if m1 is not None and m1.status == "converged" else quadmoments.m1(e, cfg)
    bound = GRID_BIAS_REL_TOL * ref.value - ref.error_estimate

    def meets(n):
        grid = TimeGrid(cfg.horizon, n)
        return abs(discrete_mean(cfg, e, grid) - ref.value) <= bound

    # hi meets the bound; lo misses it or is below the floor of 16
    lo, hi = 15, 16
    while not meets(hi):
        if hi == GRID_CAP:
            warnings.warn(
                f"no grid of at most {GRID_CAP} steps has discretization bias "
                f"within {GRID_BIAS_REL_TOL:g} of m1; capped at {GRID_CAP}",
                RuntimeWarning,
            )
            return GRID_CAP
        lo, hi = hi, min(2 * hi, GRID_CAP)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if meets(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _moments(values):
    """(count, mean, sum of squared deviations) of ``values``, two-pass."""
    mean = float(np.mean(values))
    dev = values - mean
    return len(values), mean, float(dev @ dev)


def _merge(a, b):
    """Pairwise update of Chan, Golub & LeVeque (1979) for two
    (count, mean, sum of squared deviations) triples."""
    na, mean_a, m2_a = a
    nb, mean_b, m2_b = b
    n = na + nb
    delta = mean_b - mean_a
    return n, mean_a + delta * nb / n, m2_a + m2_b + delta * delta * (na * nb / n)


def _chunk_moments(cfg, e, grid, seed, method, index, count):
    """Moments of I_eps and of I_eps^2 over the ``count`` replications of
    chunk ``index``, all drawn from the chunk's own stream."""
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(index,))))
    w = grid.trapezoid_weights()
    # bytes of one replication's circulant FFT buffer: its 2d draws take
    # d FFT rows of 2n complex128 entries
    batch = max(1, _SAMPLER_BLOCK_BYTES // (32 * cfg.dim * grid.n_steps))
    raw = np.empty(count)
    for lo in range(0, count, batch):
        b = min(batch, count - lo)
        paths = sample_paths(grid, cfg, rng, 2 * b, method)
        raw[lo:lo + b] = gauss_weight_sum(paths[:b], paths[b:], w, w, e)
    vals = (2.0 * math.pi * e) ** (-0.5 * cfg.dim) * raw
    return _moments(vals), _moments(vals * vals)


@dataclass(frozen=True)
class MomentEstimate:
    """Moments of I_eps over ``replications`` pairs, and how they were made.

    ``grid_n`` is the grid's step count and ``pair_sums`` the number of
    kernel terms summed, replications * (grid_n + 1)^2.  There is no wall
    time field: estimates compare equal across worker counts.
    """

    mean: float
    second_moment: float
    variance: float
    se_mean: float
    se_second: float
    replications: int
    seed: int
    grid_n: int
    pair_sums: int


def mc_moments(cfg: ModelConfig, eps, grid: TimeGrid, replications: int,
               seed: int, method: str = "circulant", workers: int = 1) -> MomentEstimate:
    """Estimate E[I_eps] and E[I_eps^2] over i.i.d. replications.

    ``variance`` is the population variance of I_eps over the
    replications.  Standard errors are the population standard deviations
    of I_eps and of I_eps^2 divided by sqrt(replications).
    """
    _check_int("replications", replications, 2)
    _check_int("seed", seed, 0)
    e = _eps_value(eps)
    chunks = [
        (cfg, e, grid, seed, method, k, min(_CHUNK, replications - lo))
        for k, lo in enumerate(range(0, replications, _CHUNK))
    ]
    if workers > 1 and len(chunks) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
            parts = list(pool.map(_chunk_moments, *zip(*chunks)))
    else:
        parts = [_chunk_moments(*c) for c in chunks]
    r, mean, m2_first = reduce(_merge, (first for first, _ in parts))
    _, second, m2_second = reduce(_merge, (sq for _, sq in parts))
    variance = m2_first / r
    return MomentEstimate(
        mean=mean, second_moment=second, variance=variance,
        se_mean=math.sqrt(variance / r),
        se_second=math.sqrt(m2_second / r / r),
        replications=r, seed=seed,
        grid_n=grid.n_steps, pair_sums=r * (grid.n_steps + 1) ** 2,
    )

"""Globally adaptive cubature with an embedded-rule error estimator.

Genz-Malik degree-7 rule with the embedded degree-5 estimate, over
axis-aligned cells of a hyper-rectangle.  Cells live in flat arrays
indexed by creation order (bounds ``lo``/``hi`` of shape (cap, ndim), and
``value``, ``error``, ``split_dim`` and ``alive`` of shape (cap,)), which
grow by doubling.  Each refinement step takes the ``_BATCH`` alive,
splittable cells of largest error, ties going to the older cell, and
bisects all of them at once along each cell's direction of largest
fourth divided difference.  The running value and error are updated in
that order: every split cell subtracted, then every new cell added.
Integrands are called vectorized on an (npoints, ndim) array whose
columns are contiguous.

The error estimate is conservative (a straight sum of per-cell embedded
differences), so `status == "budget"` does not necessarily mean the value
is bad -- callers that only need the value may accept budget results.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["CubatureResult", "integrate", "genz_malik_rule"]

_BATCH = 128  # cells bisected per refinement step


@dataclass
class CubatureResult:
    value: float
    error: float
    nevals: int
    ncells: int
    status: str  # "converged" | "budget" | "exhausted"


@lru_cache(maxsize=8)
def genz_malik_rule(ndim):
    """Points and weights of the degree-7/5 Genz-Malik pair on [-1, 1]^ndim.

    Returns (points, w7, w5) with weights scaled to the 2^ndim cube volume.
    """
    n = ndim
    l2 = np.sqrt(9.0 / 70.0)
    l3 = np.sqrt(9.0 / 10.0)
    l5 = np.sqrt(9.0 / 19.0)
    pts = [np.zeros(n)]
    grp = [0]
    for i in range(n):
        for sign in (+1.0, -1.0):
            p = np.zeros(n)
            p[i] = sign * l2
            pts.append(p)
            grp.append(1)
    for i in range(n):
        for sign in (+1.0, -1.0):
            p = np.zeros(n)
            p[i] = sign * l3
            pts.append(p)
            grp.append(2)
    for i in range(n):
        for j in range(i + 1, n):
            for si in (+1.0, -1.0):
                for sj in (+1.0, -1.0):
                    p = np.zeros(n)
                    p[i] = si * l3
                    p[j] = sj * l3
                    pts.append(p)
                    grp.append(3)
    for mask in range(2**n):
        pts.append(np.array([l5 if (mask >> k) & 1 else -l5 for k in range(n)]))
        grp.append(4)
    pts = np.array(pts)
    grp = np.array(grp)
    twon = 2.0**n
    w7 = np.array(
        [
            twon * (12824.0 - 9120.0 * n + 400.0 * n * n) / 19683.0,
            twon * 980.0 / 6561.0,
            twon * (1820.0 - 400.0 * n) / 19683.0,
            twon * 200.0 / 19683.0,
            6859.0 / 19683.0,
        ]
    )
    w5 = np.array(
        [
            twon * (729.0 - 950.0 * n + 50.0 * n * n) / 729.0,
            twon * 245.0 / 486.0,
            twon * (265.0 - 100.0 * n) / 1458.0,
            twon * 25.0 / 729.0,
            0.0,
        ]
    )
    return pts, w7[grp], w5[grp]


def _initial_cells(lo, hi, init_splits):
    ndim = len(lo)
    if init_splits is None:
        axes = [np.array([lo[i], hi[i]]) for i in range(ndim)]
    else:
        axes = [np.asarray(a, dtype=float) for a in init_splits]
    idx = np.meshgrid(*[np.arange(len(a) - 1) for a in axes], indexing="ij")
    clo = np.stack([axes[k][idx[k].ravel()] for k in range(ndim)], axis=1)
    chi = np.stack([axes[k][idx[k].ravel() + 1] for k in range(ndim)], axis=1)
    return clo, chi


def _grown(a, cap):
    out = np.empty((cap,) + a.shape[1:], dtype=a.dtype)
    out[: len(a)] = a
    return out


def integrate(
    f,
    lo,
    hi,
    abs_tol=0.0,
    rel_tol=1e-6,
    max_evals=10_000_000,
    init_splits=None,
    min_width_frac=1e-10,
):
    """Adaptively integrate ``f`` over the box [lo, hi].

    ``f`` maps an (m, ndim) array to an (m,) array and must return finite
    values on the open box (boundary points are never sampled).
    ``init_splits``, when given, is a per-axis list of breakpoints defining
    the starting mesh (used to pre-grade toward known singular faces).
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    ndim = len(lo)
    pts, w7, w5 = genz_malik_rule(ndim)
    npts = len(pts)
    pts_t = np.ascontiguousarray(pts.T)
    ratio = (9.0 / 10.0) / (9.0 / 70.0)  # lambda3^2 / lambda2^2
    g1 = 1 + 2 * np.arange(ndim)  # the +/- lambda2 points of each axis: g1, g1 + 1
    g2 = g1 + 2 * ndim  # the +/- lambda3 points: g2, g2 + 1
    min_width = min_width_frac * (hi - lo)

    def eval_cells(clo, chi):
        m = len(clo)
        cen = 0.5 * (clo + chi)
        hw = 0.5 * (chi - clo)
        # coordinate-major, so each column x[:, k] the integrand reads is contiguous
        x = np.multiply(hw.T[:, :, None], pts_t[:, None, :], order="C")
        x += cen.T[:, :, None]
        vals = np.asarray(f(x.reshape(ndim, -1).T), dtype=float).reshape(m, npts)
        vol = np.prod(hw, axis=1)
        i7 = (vals * w7).sum(axis=1) * vol
        i5 = (vals * w5).sum(axis=1) * vol
        err = np.abs(i7 - i5)
        fc = vals[:, :1]
        diffs = np.abs(
            vals[:, g2] + vals[:, g2 + 1] - 2 * fc - ratio * (vals[:, g1] + vals[:, g1 + 1] - 2 * fc)
        )
        diffs = np.where(chi - clo > min_width[None, :], diffs, -1.0)
        split_dim = np.argmax(diffs, axis=1)
        splittable = diffs.max(axis=1) >= 0.0
        return i7, err, split_dim, splittable

    clo, chi = _initial_cells(lo, hi, init_splits)
    n = len(clo)
    cap = n + 2 * _BATCH
    cell_lo = _grown(clo, cap)
    cell_hi = _grown(chi, cap)
    value, error, split_dim, alive = (_grown(a, cap) for a in eval_cells(clo, chi))
    nevals = n * npts
    total = float(np.sum(value[:n]))
    toterr = float(np.sum(error[:n]))
    status = "converged"

    while True:
        if toterr <= max(abs_tol, rel_tol * abs(total)):
            break
        if nevals >= max_evals:
            status = "budget"
            break
        # the _BATCH live cells of largest error, ties to the older cell
        sel = np.flatnonzero(alive[:n])
        if len(sel) > _BATCH:
            err = error[sel]
            thr = np.partition(err, len(sel) - _BATCH)[len(sel) - _BATCH]
            keep = err > thr
            tied = np.flatnonzero(err == thr)
            keep[tied[: _BATCH - np.count_nonzero(keep)]] = True
            sel = sel[keep]
        if not len(sel):
            status = "exhausted"
            break
        sel = sel[np.argsort(-error[sel], kind="stable")]
        # bisect each along its split axis: lower half at 2j, upper at 2j + 1
        k = len(sel)
        rows = np.arange(k)
        d = split_dim[sel]
        new_lo = np.repeat(cell_lo[sel], 2, axis=0)
        new_hi = np.repeat(cell_hi[sel], 2, axis=0)
        mid = 0.5 * (new_lo[2 * rows, d] + new_hi[2 * rows, d])
        new_hi[2 * rows, d] = mid
        new_lo[2 * rows + 1, d] = mid
        v2, e2, sd2, sp2 = eval_cells(new_lo, new_hi)
        nevals += 2 * k * npts
        # all parents out, then all children in; cumsum adds strictly left to
        # right, so the sums carry the same bits as a cell-by-cell update
        total = np.cumsum(np.concatenate(([total], -value[sel], v2)))[-1]
        toterr = np.cumsum(np.concatenate(([toterr], -error[sel], e2)))[-1]
        alive[sel] = False
        m = n + 2 * k
        if m > len(value):
            cap = max(m, 2 * len(value))
            cell_lo, cell_hi, value, error, split_dim, alive = (
                _grown(a, cap) for a in (cell_lo, cell_hi, value, error, split_dim, alive)
            )
        cell_lo[n:m] = new_lo
        cell_hi[n:m] = new_hi
        value[n:m] = v2
        error[n:m] = e2
        split_dim[n:m] = sd2
        alive[n:m] = sp2
        n = m

    return CubatureResult(value=total, error=toterr, nevals=nevals, ncells=n, status=status)

"""Globally adaptive cubature with an embedded-rule error estimator.

Genz-Malik degree-7 rule with the embedded degree-5 estimate, over
axis-aligned cells of a hyper-rectangle.  The integrand may have K
components sharing one mesh, each with its own tolerance, in the manner
of DCUHRE (Berntsen, Espelid & Genz, 1991); a scalar integrand is the
K = 1 case.  Cells live in flat arrays indexed by creation order (bounds
``lo``/``hi`` of shape (cap, ndim), ``est`` of shape (2K, cap) with the
K values over the K errors, ``split_dim`` and ``alive`` of shape
(cap,)), which grow by doubling.  Each refinement step takes the
``_BATCH`` alive, splittable cells of largest error, ties going to the
older cell, and bisects all of them at once along each cell's direction
of largest fourth divided difference.  With several components the error
and the differences of a cell are the largest over the components still
short of their tolerance, each divided by that tolerance.  The running
values and errors are updated in that order: every split cell
subtracted, then every new cell added.  Integrands are called vectorized
on an (npoints, ndim) array whose columns are contiguous, on slices of
whole cells: at most one refinement step's children, and few enough that
one call's values stay under ``_BLOCK_BYTES``.  The first cell of the
starting mesh is evaluated alone, which tells the number of components
before any larger call.

The error estimate is conservative (a straight sum of per-cell embedded
differences), so `status == "budget"` does not necessarily mean the value
is bad -- callers that only need the value may accept budget results.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Union

import numpy as np

__all__ = ["CubatureResult", "integrate", "genz_malik_rule"]

_BATCH = 128  # cells bisected per refinement step
_BLOCK_BYTES = 1 << 20  # integrand values one integrand call returns, at most about
_MIN_WIDTH_FRAC = 1e-10  # of the box's width: a cell no wider on an axis is not split on it


@dataclass
class CubatureResult:
    value: Union[float, np.ndarray]  # (K,) for a K-component integrand
    error: Union[float, np.ndarray]
    nevals: int
    ncells: int
    status: str  # "converged" (every component) | "budget" | "exhausted"
    converged: Optional[np.ndarray] = None  # (K,) bool: each component within its tolerance


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


def _grown(a, cap, axis=0):
    """``a`` copied into a new array of ``cap`` entries along its cell ``axis``."""
    shape = list(a.shape)
    shape[axis] = cap
    out = np.empty(shape, dtype=a.dtype)
    if axis:
        out[:, : a.shape[1]] = a
    else:
        out[: len(a)] = a
    return out


def _steer(a, tol, short):
    """One per-cell quantity from the per-component ones ``a`` (K, m, ...):
    the largest over the components ``short`` of their tolerance, each
    divided by its tolerance ``tol``.  A single such component is used as
    is, so a K = 1 integrand is refined exactly as a scalar one."""
    idx = short.nonzero()[0]
    if len(idx) == 1:
        return a[idx[0]]
    w = 1.0 / np.maximum(tol[idx], np.finfo(float).tiny)
    return (a[idx] * w.reshape((-1,) + (1,) * (a.ndim - 1))).max(axis=0)


def integrate(
    f,
    lo,
    hi,
    abs_tol=0.0,
    rel_tol=1e-6,
    max_evals=10_000_000,
    init_splits=None,
):
    """Adaptively integrate ``f`` over the box [lo, hi].

    ``f`` maps an (m, ndim) array to an (m,) array, or to a (K, m) array
    for a K-component integrand, and must return finite values on the open
    box (boundary points are never sampled).  ``abs_tol`` and ``rel_tol``
    are scalars or length-K sequences, one per component.  All components
    share one mesh: each step bisects the cells of largest error scaled by
    the tolerance of the component, among those not yet within tolerance,
    that gives it, and the pass ends when every component is within its
    tolerance or ``max_evals`` (points of the mesh, each evaluating all
    components) is spent.  ``init_splits``, when given, is a per-axis list
    of breakpoints defining the starting mesh (used to pre-grade toward
    known singular faces).  No cell is split along an axis on which it is
    no wider than ``_MIN_WIDTH_FRAC`` of the box; the status is
    "exhausted" when no cell can be split.

    A (K, m) integrand gets (K,) arrays as ``value`` and ``error``; an
    (m,) one gets floats.  ``converged`` holds one flag per component.
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
    min_width = _MIN_WIDTH_FRAC * (hi - lo)
    per_call = 1  # cells per integrand call; set by each call from its K
    vector = False  # whether f returns (K, m) rather than (m,)

    def eval_cells(clo, chi):
        """(2K, m) values (rows 0..K-1) and errors (rows K..2K-1) and
        (K, m, ndim) fourth differences of the cells with bounds ``clo``,
        ``chi`` (m, ndim)."""
        m = len(clo)
        cen = 0.5 * (clo + chi)
        hw = 0.5 * (chi - clo)
        # coordinate-major, so each column x[:, k] the integrand reads is contiguous
        x = np.multiply(hw.T[:, :, None], pts_t[:, None, :], order="C")
        x += cen.T[:, :, None]
        nonlocal vector, per_call
        out = np.asarray(f(x.reshape(ndim, -1).T), dtype=float)
        vector = out.ndim == 2
        ncomp = len(out) if vector else 1
        per_call = max(1, min(2 * _BATCH, _BLOCK_BYTES // (8 * npts * ncomp)))
        vals = out.reshape(-1, npts)  # one row per (component, cell)
        vol = hw.prod(axis=1)
        i7 = ((vals * w7).sum(axis=1).reshape(-1, m)) * vol
        i5 = ((vals * w5).sum(axis=1).reshape(-1, m)) * vol
        fc = vals[:, :1]
        diffs = np.abs(
            vals[:, g2] + vals[:, g2 + 1] - 2 * fc
            - ratio * (vals[:, g1] + vals[:, g1 + 1] - 2 * fc)
        )
        return np.concatenate((i7, np.abs(i7 - i5))), diffs.reshape(-1, m, ndim)

    def evaluate(clo, chi):
        # slices of whole cells; cells are independent, so slicing changes no bit
        parts = []
        i = 0
        while i < len(clo):
            j = i + per_call
            parts.append(eval_cells(clo[i:j], chi[i:j]))  # the first call sets per_call
            i = j
        if len(parts) == 1:
            return parts[0]
        return tuple(np.concatenate(p, axis=1) for p in zip(*parts))

    def split_axes(diffs, width, tol, short):
        """Split axis and splittability of each cell."""
        comb = np.where(width > min_width, _steer(diffs, tol, short), -1.0)
        return comb.argmax(axis=1), comb.max(axis=1) >= 0.0

    clo, chi = _initial_cells(lo, hi, init_splits)
    est, diffs = evaluate(clo, chi)  # per cell: K values, then K errors
    ncomp = len(est) // 2
    abs_tol = np.asarray(abs_tol, dtype=float)  # scalar or (K,), broadcast against totals
    rel_tol = np.asarray(rel_tol, dtype=float)
    n = len(clo)
    nevals = n * npts
    sums = est.sum(axis=1)  # the running values, then the running errors
    tol = np.maximum(abs_tol, rel_tol * np.abs(sums[:ncomp]))
    short = ~(sums[ncomp:] <= tol)  # components not yet within tolerance
    if short.any():
        split_dim, alive = split_axes(diffs, chi - clo, tol, short)
    else:  # never refined
        split_dim, alive = np.zeros(n, dtype=np.intp), np.zeros(n, dtype=bool)
    cap = n + 2 * _BATCH
    cell_lo, cell_hi, split_dim, alive = (_grown(a, cap) for a in (clo, chi, split_dim, alive))
    est = _grown(est, cap, 1)
    status = "converged"

    while short.any():
        if nevals >= max_evals:
            status = "budget"
            break
        # the _BATCH live cells of largest steering error, ties to the older cell
        sel = alive[:n].nonzero()[0]
        score = _steer(est[ncomp:].take(sel, axis=1), tol, short)
        if len(sel) > _BATCH:
            thr = np.partition(score, len(sel) - _BATCH)[len(sel) - _BATCH]
            keep = score > thr
            tied = np.flatnonzero(score == thr)
            keep[tied[: _BATCH - np.count_nonzero(keep)]] = True
            sel = sel[keep]
            score = score[keep]
        if not len(sel):
            status = "exhausted"
            break
        sel = sel[np.argsort(-score, kind="stable")]
        # bisect each along its split axis: lower half at 2j, upper at 2j + 1
        k = len(sel)
        rows = 2 * np.arange(k)
        d = split_dim[sel]
        new_lo = cell_lo[sel].repeat(2, axis=0)
        new_hi = cell_hi[sel].repeat(2, axis=0)
        mid = 0.5 * (new_lo[rows, d] + new_hi[rows, d])
        new_hi[rows, d] = mid
        new_lo[rows + 1, d] = mid
        est2, diffs = evaluate(new_lo, new_hi)
        sd2, sp2 = split_axes(diffs, new_hi - new_lo, tol, short)
        nevals += 2 * k * npts
        # every parent out, then every child in; accumulate adds strictly left
        # to right, so the sums carry the same bits as a cell-by-cell update
        terms = np.concatenate((sums[:, None], -est.take(sel, axis=1), est2), axis=1)
        sums = np.add.accumulate(terms, axis=1)[:, -1]
        alive[sel] = False
        m = n + 2 * k
        if m > len(alive):
            cap = max(m, 2 * len(alive))
            cell_lo, cell_hi, split_dim, alive = (
                _grown(a, cap) for a in (cell_lo, cell_hi, split_dim, alive)
            )
            est = _grown(est, cap, 1)
        cell_lo[n:m] = new_lo
        cell_hi[n:m] = new_hi
        est[:, n:m] = est2
        split_dim[n:m] = sd2
        alive[n:m] = sp2
        n = m
        tol = np.maximum(abs_tol, rel_tol * np.abs(sums[:ncomp]))
        short = ~(sums[ncomp:] <= tol)

    total, toterr = sums[:ncomp], sums[ncomp:]
    if vector:
        return CubatureResult(value=total, error=toterr, nevals=nevals, ncells=n,
                              status=status, converged=~short)
    return CubatureResult(value=float(total[0]), error=float(toterr[0]), nevals=nevals,
                          ncells=n, status=status, converged=~short)

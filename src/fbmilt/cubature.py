"""Globally adaptive cubature with an embedded-rule error estimator.

One contract: ``integrate(f, axes, abs_tol, rel_tol, max_evals)``
integrates K components, sharing one mesh but each with its own
tolerance (DCUHRE: Berntsen, Espelid & Genz, 1991), over the box that the
starting breakpoints ``axes`` span, and returns (K,) arrays.  Genz-Malik
degree-7 rule with the embedded degree-5 estimate, over axis-aligned
cells.  Cells live in flat arrays indexed by creation order (bounds
``lo``/``hi`` of shape (cap, ndim), ``est`` of shape (2K, cap) with the
K values over the K errors, ``split_dim`` and ``alive`` of shape
(cap,)), which grow by doubling.  Each refinement step takes the
max(``_BATCH``, alive // ``_STEP_DIV``) alive, splittable cells of largest
error (32 until 2,112 cells are alive, then one in 64), ties going to the
older cell, and bisects all of them at once along each cell's direction
of largest fourth divided difference.  The rule is one matrix,
R = [w7 | w5 | D] of shape (npoints, 2 + ndim) with D the fourth-difference
stencil (genz_malik_rule), so one product of the (K cells, npoints)
values with R gives every cell's two estimates and its signed fourth
differences.  With several components the error
and the differences of a cell are the largest over the components still
short of their tolerance, each divided by that tolerance.  The running
values and errors are updated in that order: every split cell
subtracted, then every new cell added.  Integrands are called vectorized
on an (npoints, ndim) array whose columns are contiguous, on slices of
whole cells: at most one refinement step's children, and few enough that
one call's values stay under ``_BLOCK_BYTES``.  The first call, which
tells the number of components K, takes up to 2 ``_BATCH`` = 64 starting
cells (fewer if one component's values would not fit): its values stay
under ``_BLOCK_BYTES`` for K <= 35 in 4D, 62 in 3D, 120 in 2D and 292 in
1D.

The error estimate is conservative (a straight sum of per-cell embedded
differences), so `status == "budget"` does not necessarily mean the value
is bad -- callers that only need the value may accept budget results.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["CubatureResult", "integrate", "genz_malik_rule"]

_BATCH = 32  # cells bisected per refinement step, at least
_STEP_DIV = 64  # a step bisects one in this many alive cells once that exceeds _BATCH
_BLOCK_BYTES = 1 << 20  # integrand values one integrand call returns, at most about
_MIN_WIDTH_FRAC = 1e-10  # of the box's width: a cell no wider on an axis is not split on it


@dataclass
class CubatureResult:
    value: np.ndarray  # (K,): one per component
    error: np.ndarray  # (K,)
    nevals: int
    ncells: int
    status: str  # "converged" (every component) | "budget" | "exhausted"
    converged: np.ndarray  # (K,) bool: each component within its tolerance


@lru_cache(maxsize=8)
def genz_malik_rule(ndim):
    """Points and weights of the degree-7/5 Genz-Malik pair on [-1, 1]^ndim.

    Returns (points, w7, w5, R) with weights scaled to the 2^ndim cube
    volume.  R = [w7 | w5 | D], of shape (npoints, 2 + ndim), is the whole
    rule as one matrix: for values ``vals`` (rows of npoints), ``vals @ R``
    holds the degree-7 and degree-5 sums and, per axis i, the signed fourth
    difference f(+l3 e_i) + f(-l3 e_i) - 2 f(0)
    - (l3/l2)^2 (f(+l2 e_i) + f(-l2 e_i) - 2 f(0)) that D takes.
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
    ratio = (9.0 / 10.0) / (9.0 / 70.0)  # l3^2 / l2^2
    rule = np.zeros((len(pts), 2 + n))
    rule[:, 0] = w7[grp]
    rule[:, 1] = w5[grp]
    for i in range(n):
        g1 = 1 + 2 * i  # +/- l2 along axis i: g1, g1 + 1; +/- l3: g1 + 2n, g1 + 2n + 1
        rule[0, 2 + i] = 2.0 * ratio - 2.0
        rule[[g1, g1 + 1], 2 + i] = -ratio
        rule[[g1 + 2 * n, g1 + 2 * n + 1], 2 + i] = 1.0
    for a in (pts, rule):  # cached: shared by every caller
        a.flags.writeable = False
    return pts, rule[:, 0], rule[:, 1], rule


@lru_cache(maxsize=8)
def _points_t(ndim):
    """The rule's points transposed, (ndim, npoints), contiguous and cached."""
    pts_t = np.ascontiguousarray(genz_malik_rule(ndim)[0].T)
    pts_t.flags.writeable = False
    return pts_t


def _gemm(a, b):
    """``a @ b``, always by GEMM.  numpy hands a one-row ``a`` to GEMV, which
    sums in another order, so a row's bits would depend on whether other
    rows come along; a one-row ``a`` is doubled instead."""
    if len(a) == 1:
        return (a.repeat(2, axis=0) @ b)[:1]
    return a @ b


def _initial_cells(axes):
    """Bounds (lo, hi), each (cells, ndim), of the mesh of breakpoints ``axes``."""
    ndim = len(axes)
    clo = np.empty([len(a) - 1 for a in axes] + [ndim])
    chi = np.empty_like(clo)
    for k, a in enumerate(axes):  # axis k's breakpoints vary along mesh axis k
        along = [1] * ndim
        along[k] = -1
        clo[..., k] = a[:-1].reshape(along)
        chi[..., k] = a[1:].reshape(along)
    return clo.reshape(-1, ndim), chi.reshape(-1, ndim)


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
    is: scaled, distinct scores could round into ties, and the selection
    would no longer match the test suite's heap-based reference driver."""
    idx = short.nonzero()[0]
    if len(idx) == 1:
        return a[idx[0]]
    w = 1.0 / np.maximum(tol[idx], np.finfo(float).tiny)
    return (a[idx] * w.reshape((-1,) + (1,) * (a.ndim - 1))).max(axis=0)


def integrate(f, axes, abs_tol, rel_tol, max_evals):
    """Adaptively integrate ``f`` over the box that ``axes`` spans.

    ``axes`` holds each axis's increasing starting breakpoints: their
    product is the starting mesh (which may pre-grade toward known
    singular faces), their span the box.  ``f`` maps an (m, ndim) array to
    K m values, a (K, m) array or, for K = 1, an (m,) one, finite on the
    open box (boundary points are never sampled).  ``abs_tol`` and
    ``rel_tol`` are scalars or length-K sequences, one per component.  All
    components share one mesh: each step bisects the cells of largest
    error scaled by the tolerance of the component, among those not yet
    within tolerance, that gives it, and the pass ends when every
    component is within its tolerance or ``max_evals`` (points of the
    mesh, each evaluating all components) is spent.  No cell is split
    along an axis on which it is no wider than ``_MIN_WIDTH_FRAC`` of the
    box; the status is "exhausted" when no cell can be split.  ``value``,
    ``error`` and ``converged`` are (K,) arrays, one entry per component.
    """
    axes = [np.asarray(a, dtype=float) for a in axes]
    ndim = len(axes)
    rule = genz_malik_rule(ndim)[3]
    pts_t = _points_t(ndim)
    npts = pts_t.shape[1]
    min_width = _MIN_WIDTH_FRAC * np.array([a[-1] - a[0] for a in axes])
    block = max(1, _BLOCK_BYTES // (8 * npts))  # cells per call: as if K = 1, then each call's K

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
        nonlocal block
        out = np.asarray(f(x.reshape(ndim, -1).T), dtype=float)
        ncomp = out.size // (m * npts)
        block = max(1, _BLOCK_BYTES // (8 * npts * ncomp))
        # one row per (component, cell): degree-7 sum, degree-5 sum, fourth differences
        sums = _gemm(out.reshape(-1, npts), rule)
        vol = hw.prod(axis=1)
        i7 = sums[:, 0].reshape(-1, m) * vol
        i5 = sums[:, 1].reshape(-1, m) * vol
        diffs = np.abs(sums[:, 2:]).reshape(-1, m, ndim)
        return np.concatenate((i7, np.abs(i7 - i5))), diffs

    def evaluate(clo, chi, step):
        # slices of whole cells, at most one step's children and the block the
        # first call sets; cells are independent, so slicing changes no bit
        parts = []
        i = 0
        while i < len(clo):
            j = i + min(2 * step, block)
            parts.append(eval_cells(clo[i:j], chi[i:j]))
            i = j
        if len(parts) == 1:
            return parts[0]
        return tuple(np.concatenate(p, axis=1) for p in zip(*parts))

    def split_axes(diffs, width, tol, short):
        """Split axis and splittability of each cell."""
        comb = np.where(width > min_width, _steer(diffs, tol, short), -1.0)
        return comb.argmax(axis=1), comb.max(axis=1) >= 0.0

    clo, chi = _initial_cells(axes)
    est, diffs = evaluate(clo, chi, _BATCH)  # per cell: K values, then K errors
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
        # the step live cells of largest steering error, ties to the older cell
        sel = alive[:n].nonzero()[0]
        step = max(_BATCH, len(sel) // _STEP_DIV)
        score = _steer(est[ncomp:].take(sel, axis=1), tol, short)
        if len(sel) > step:
            thr = np.partition(score, len(sel) - step)[len(sel) - step]
            keep = score > thr
            tied = np.flatnonzero(score == thr)
            keep[tied[: step - np.count_nonzero(keep)]] = True
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
        est2, diffs = evaluate(new_lo, new_hi, step)
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

    return CubatureResult(value=sums[:ncomp], error=sums[ncomp:], nevals=nevals, ncells=n,
                          status=status, converged=~short)

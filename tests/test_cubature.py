import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbmilt import cubature
from fbmilt.cubature import CubatureResult, _initial_cells, genz_malik_rule, integrate


def test_rule_shapes():
    pts, w7, w5 = genz_malik_rule(2)
    assert pts.shape == (17, 2)
    pts4, w74, w54 = genz_malik_rule(4)
    assert pts4.shape == (57, 4)
    assert w7.shape == (17,) and w5.shape == (17,)


def test_rule_weights_sum_to_volume():
    # integrating f = 1 must give the cell volume for both rules
    for n in (2, 3, 4):
        _, w7, w5 = genz_malik_rule(n)
        assert w7.sum() == pytest.approx(2.0**n, rel=1e-13)
        assert w5.sum() == pytest.approx(2.0**n, rel=1e-13)


@pytest.mark.parametrize("powers", [(0, 0), (2, 0), (4, 2), (6, 0), (3, 4)])
def test_polynomial_exactness_degree7(powers):
    p, q = powers

    def f(x):
        return x[:, 0] ** p * x[:, 1] ** q

    def mono(k):  # integral of x^k over [-1, 1]
        return 0.0 if k % 2 else 2.0 / (k + 1)

    pts, w7, _ = genz_malik_rule(2)
    got = float((f(pts) * w7).sum())
    assert got == pytest.approx(mono(p) * mono(q), rel=1e-12, abs=1e-12)


def test_gaussian_2d():
    want = math.erf(1.0) ** 2 * math.pi / 4.0

    def f(x):
        return np.exp(-np.sum(x * x, axis=1))

    res = integrate(f, [0, 0], [1, 1], rel_tol=1e-10)
    assert res.status == "converged"
    assert res.value == pytest.approx(want, rel=1e-10)
    assert abs(res.value - want) <= max(res.error, 1e-13)


def test_gaussian_4d():
    want = (math.erf(1.0) * math.sqrt(math.pi) / 2.0) ** 4

    def f(x):
        return np.exp(-np.sum(x * x, axis=1))

    res = integrate(f, [0] * 4, [1] * 4, rel_tol=1e-8)
    assert res.status == "converged"
    assert res.value == pytest.approx(want, rel=1e-8)


def test_corner_singularity():
    # integrable singularity at the origin: exact value 4/3 (2 sqrt 2 - 2)
    def f(x):
        return 1.0 / np.sqrt(x[:, 0] + x[:, 1])

    want = 4.0 / 3.0 * (2.0 * math.sqrt(2.0) - 2.0)
    res = integrate(f, [0, 0], [1, 1], rel_tol=1e-7, max_evals=4_000_000)
    assert res.value == pytest.approx(want, rel=1e-6)


def test_budget_status():
    def f(x):
        return 1.0 / np.sqrt(x[:, 0] + x[:, 1])

    res = integrate(f, [0, 0], [1, 1], rel_tol=1e-12, max_evals=2000)
    assert res.status == "budget"
    assert res.nevals <= 2000 + 17 * 200


def test_init_splits_respected():
    calls = []

    def f(x):
        calls.append(len(x))
        return np.ones(len(x))

    res = integrate(f, [0, 0], [1, 1],
                    init_splits=[np.array([0, 0.25, 1.0]), np.array([0, 0.5, 1.0])])
    assert res.value == pytest.approx(1.0, rel=1e-13)
    assert res.ncells == 4


def test_anisotropic_split_direction():
    # all variation is along axis 0; adaptivity must still converge fast
    def f(x):
        return np.sin(40.0 * x[:, 0])

    want = (1.0 - math.cos(40.0)) / 40.0
    res = integrate(f, [0, 0], [1, 1], rel_tol=1e-9)
    assert res.status == "converged"
    assert res.value == pytest.approx(want, rel=1e-8, abs=1e-12)


# ---------------------------------------------------------------------------
# oracle: the heap-and-lists driver that the array driver replaced


def heap_integrate(f, lo, hi, abs_tol=0.0, rel_tol=1e-6, max_evals=10_000_000,
                   init_splits=None, min_width_frac=1e-10, batch=128):
    """Pop the worst ``batch`` cells off a heap keyed by (-error, index),
    bisect them one by one, push the children.  Every heap entry is an
    alive cell, so no alive flags are kept."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    ndim = len(lo)
    pts, w7, w5 = genz_malik_rule(ndim)
    npts = len(pts)
    ratio = (9.0 / 10.0) / (9.0 / 70.0)
    min_width = min_width_frac * (hi - lo)

    def eval_cells(clo, chi):
        cen, hw = 0.5 * (clo + chi), 0.5 * (chi - clo)
        x = cen[:, None, :] + hw[:, None, :] * pts[None, :, :]
        vals = np.asarray(f(x.reshape(-1, ndim)), dtype=float).reshape(len(clo), npts)
        vol = np.prod(hw, axis=1)
        i7, i5 = (vals * w7).sum(axis=1) * vol, (vals * w5).sum(axis=1) * vol
        fc = vals[:, 0]
        diffs = np.empty((len(clo), ndim))
        for i in range(ndim):
            p1, p3 = 1 + 2 * i, 1 + 2 * ndim + 2 * i
            diffs[:, i] = np.abs(vals[:, p3] + vals[:, p3 + 1] - 2 * fc
                                 - ratio * (vals[:, p1] + vals[:, p1 + 1] - 2 * fc))
        diffs = np.where(chi - clo > min_width[None, :], diffs, -1.0)
        return i7, np.abs(i7 - i5), np.argmax(diffs, axis=1), diffs.max(axis=1) >= 0.0

    clo, chi = _initial_cells(lo, hi, init_splits)
    vals0, errs0, sd0, sp0 = eval_cells(clo, chi)
    nevals = len(clo) * npts
    cell_lo, cell_hi, vals, errs, sds = list(clo), list(chi), list(vals0), list(errs0), list(sd0)
    heap = [(-errs0[i], i) for i in range(len(vals0)) if sp0[i]]
    heapq.heapify(heap)
    total, toterr = float(np.sum(vals0)), float(np.sum(errs0))
    while True:
        if toterr <= max(abs_tol, rel_tol * abs(total)):
            return CubatureResult(total, toterr, nevals, len(vals), "converged")
        if nevals >= max_evals:
            return CubatureResult(total, toterr, nevals, len(vals), "budget")
        popped = [heapq.heappop(heap)[1] for _ in range(min(batch, len(heap)))]
        if not popped:
            return CubatureResult(total, toterr, nevals, len(vals), "exhausted")
        new_lo, new_hi = [], []
        for i in popped:
            total -= vals[i]
            toterr -= errs[i]
            d = sds[i]
            mid = 0.5 * (cell_lo[i][d] + cell_hi[i][d])
            a1, b1, a2, b2 = cell_lo[i].copy(), cell_hi[i].copy(), cell_lo[i].copy(), cell_hi[i].copy()
            b1[d] = a2[d] = mid
            new_lo += [a1, a2]
            new_hi += [b1, b2]
        v2, e2, sd2, sp2 = eval_cells(np.array(new_lo), np.array(new_hi))
        nevals += len(new_lo) * npts
        for j in range(len(new_lo)):
            cell_lo.append(new_lo[j])
            cell_hi.append(new_hi[j])
            vals.append(v2[j])
            errs.append(e2[j])
            sds.append(sd2[j])
            total += v2[j]
            toterr += e2[j]
            if sp2[j]:
                heapq.heappush(heap, (-e2[j], len(vals) - 1))


def _bits(res):
    return (float(res.value).hex(), float(res.error).hex(), res.nevals, res.ncells, res.status)


def _inv_sqrt_sum(x):
    return 1.0 / np.sqrt(x[:, 0] + x[:, 1])


ORACLE_CASES = {
    # symmetric in x <-> y: mirrored cells carry exactly equal errors
    "symmetric-ties": (lambda x: np.cos(3.0 * x[:, 0]) * np.cos(3.0 * x[:, 1]),
                       [0, 0], [2, 2], dict(rel_tol=1e-13, max_evals=60_000), "budget"),
    "gaussian-4d": (lambda x: np.exp(-np.sum(x * x, axis=1)),
                    [0] * 4, [1] * 4, dict(rel_tol=1e-8), "converged"),
    "budget": (_inv_sqrt_sum, [0, 0], [1, 1], dict(rel_tol=1e-12, max_evals=20_000), "budget"),
    "init-splits": (_inv_sqrt_sum, [0, 0], [1, 1],
                    dict(rel_tol=1e-6, init_splits=[np.array([0.0, 0.25, 1.0]),
                                                    np.array([0.0, 0.1, 0.5, 1.0])]),
                    "converged"),
    "exhausted": (_inv_sqrt_sum, [0, 0], [1, 1], dict(rel_tol=1e-12, min_width_frac=0.05),
                  "exhausted"),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_matches_heap_driver(case, monkeypatch):
    f, lo, hi, kw, status = ORACLE_CASES[case]
    kw = dict(kw)
    min_width_frac = kw.pop("min_width_frac", cubature._MIN_WIDTH_FRAC)
    monkeypatch.setattr(cubature, "_MIN_WIDTH_FRAC", min_width_frac)
    got = integrate(f, lo, hi, **kw)
    assert _bits(got) == _bits(heap_integrate(f, lo, hi, min_width_frac=min_width_frac, **kw))
    assert got.status == status


@settings(max_examples=40, deadline=None)
@given(
    corner=st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=3),
    widths=st.lists(st.floats(0.1, 3.0), min_size=3, max_size=3),
    coef=st.lists(st.integers(-3, 3), min_size=6, max_size=6),
    powers=st.lists(st.integers(0, 4), min_size=6, max_size=6),
)
def test_matches_heap_driver_on_polynomials(corner, widths, coef, powers):
    ndim = len(corner)
    lo = np.array(corner)
    hi = lo + np.array(widths[:ndim])

    def f(x):
        out = np.full(len(x), 0.5)
        for j, c in enumerate(coef):
            out = out + c * x[:, j % ndim] ** powers[j] * x[:, (j + 1) % ndim] ** powers[-1 - j]
        return out

    kw = dict(rel_tol=1e-13, max_evals=30_000)
    assert _bits(integrate(f, lo, hi, **kw)) == _bits(heap_integrate(f, lo, hi, **kw))


# ---------------------------------------------------------------------------
# K-component integrands over one shared mesh


def _gauss(x):
    return np.exp(-np.sum(x * x, axis=1))


def _cos2(x):
    return np.cos(3.0 * x[:, 0]) * np.cos(2.0 * x[:, 1])


def _cubic(x):  # integrated exactly by the degree-7 rule on any mesh
    return 1.0 + x[:, 0] ** 3 * x[:, 1]


def _stacked(*fs):
    return lambda x: np.stack([g(x) for g in fs])


def test_components_match_their_scalar_runs():
    fs = (_gauss, _inv_sqrt_sum, _cos2)
    rel = [1e-9, 1e-6, 1e-8]
    got = integrate(_stacked(*fs), [0, 0], [1, 1], rel_tol=rel)
    assert got.status == "converged"
    assert got.converged.tolist() == [True, True, True]
    assert got.value.shape == got.error.shape == (3,)
    for k, (g, r) in enumerate(zip(fs, rel)):
        alone = integrate(g, [0, 0], [1, 1], rel_tol=r)
        assert abs(got.value[k] - alone.value) <= got.error[k] + alone.error
        assert got.error[k] <= r * abs(got.value[k])


def _edge(x):  # singular at the far corner, which the bump never refines
    return 1.0 / np.sqrt(2.0 - x[:, 0] - x[:, 1])


def _bump(x):
    return np.exp(-50.0 * ((x[:, 0] - 0.2) ** 2 + (x[:, 1] - 0.2) ** 2))


@pytest.mark.parametrize("edge_first", [True, False])
def test_met_component_does_not_steer(edge_first):
    # the edge component meets its tolerance on the starting mesh with cell
    # errors that would outrank the bump's late ones; the pass must refine
    # for the bump alone, cell for cell as the bump's scalar run does
    kw = dict(init_splits=[np.array([0.0, 0.5, 0.9, 0.99, 1.0])] * 2)
    start = integrate(_edge, [0, 0], [1, 1], max_evals=1, **kw)
    rel = [1.5 * start.error / start.value, 1e-8]
    fs = (_edge, _bump)
    if not edge_first:
        fs, rel = fs[::-1], rel[::-1]
    got = integrate(_stacked(*fs), [0, 0], [1, 1], rel_tol=rel, **kw)
    alone = integrate(_bump, [0, 0], [1, 1], rel_tol=1e-8, **kw)
    k = fs.index(_bump)
    assert got.converged.tolist() == [True, True]
    assert (got.nevals, got.ncells) == (alone.nevals, alone.ncells)
    assert got.value[k].hex() == alone.value.hex()
    assert got.error[k].hex() == alone.error.hex()


def test_budget_reports_each_component():
    got = integrate(_stacked(_cubic, _inv_sqrt_sum, _gauss), [0, 0], [1, 1],
                    rel_tol=[1e-6, 1e-12, 1e-6], max_evals=2000)
    assert got.status == "budget"
    assert got.converged.tolist() == [True, False, True]
    assert got.nevals <= 2000 + 17 * 256
    assert np.all(np.isfinite(got.value)) and got.error[1] > 1e-12 * got.value[1]


def test_slicing_changes_no_bit(monkeypatch):
    import fbmilt.cubature as cub

    sizes = []

    def f(x):
        sizes.append(len(x))
        return np.stack([_gauss(x), _inv_sqrt_sum(x), _cos2(x)])

    kw = dict(rel_tol=[1e-9, 1e-6, 1e-8])
    whole = integrate(f, [0, 0], [1, 1], **kw)
    assert max(sizes) > 17 * 64  # steps of up to 256 cells, one call each
    sizes.clear()
    monkeypatch.setattr(cub, "_BLOCK_BYTES", 3 * 17 * 8 * 10)  # ten cells a call
    sliced = integrate(f, [0, 0], [1, 1], **kw)
    assert max(sizes) == 17 * 10
    for a, b in ((whole.value, sliced.value), (whole.error, sliced.error)):
        assert [v.hex() for v in a] == [v.hex() for v in b]
    assert (whole.nevals, whole.ncells) == (sliced.nevals, sliced.ncells)


def test_starting_mesh_slices(monkeypatch):
    # a large starting mesh used to go to the integrand in slices sized for
    # one component, and not capped at one refinement step's children
    import fbmilt.cubature as cub

    sizes = []

    def counted(g):
        def f(x):
            sizes.append(len(x))
            return g(x)
        return f

    kw = dict(rel_tol=1e-6, init_splits=[np.linspace(0.0, 1.0, 41)] * 2)  # 1600 cells
    got = integrate(counted(_inv_sqrt_sum), [0, 0], [1, 1], **kw)
    assert sizes[0] == 17  # the first cell alone tells K
    assert max(sizes) == 2 * cub._BATCH * 17
    assert _bits(got) == _bits(heap_integrate(_inv_sqrt_sum, [0, 0], [1, 1], **kw))

    three = _stacked(_gauss, _inv_sqrt_sum, _cos2)
    whole = integrate(three, [0, 0], [1, 1], **kw)
    sizes.clear()
    monkeypatch.setattr(cub, "_BLOCK_BYTES", 3 * 17 * 8 * 10)  # ten cells of K = 3 a call
    sliced = integrate(counted(three), [0, 0], [1, 1], **kw)
    assert max(sizes) == 17 * 10
    for a, b in ((whole.value, sliced.value), (whole.error, sliced.error)):
        assert [v.hex() for v in a] == [v.hex() for v in b]
    assert (whole.nevals, whole.ncells) == (sliced.nevals, sliced.ncells)

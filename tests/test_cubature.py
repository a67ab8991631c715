import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbmilt import cubature
from fbmilt.covkernel import ModelConfig
from fbmilt.cubature import CubatureResult, _initial_cells, genz_malik_rule, integrate
from fbmilt.phasescan import EpsSchedule


def test_rule_shapes():
    pts, w7, w5, rule = genz_malik_rule(2)
    assert pts.shape == (17, 2)
    pts4, w74, w54, rule4 = genz_malik_rule(4)
    assert pts4.shape == (57, 4)
    assert w7.shape == (17,) and w5.shape == (17,)
    assert rule.shape == (17, 4) and rule4.shape == (57, 6)


def test_rule_weights_sum_to_volume():
    # integrating f = 1 must give the cell volume for both rules
    for n in (2, 3, 4):
        _, w7, w5, _ = genz_malik_rule(n)
        assert w7.sum() == pytest.approx(2.0**n, rel=1e-13)
        assert w5.sum() == pytest.approx(2.0**n, rel=1e-13)


@pytest.mark.parametrize("powers", [(0, 0), (2, 0), (4, 2), (6, 0), (3, 4)])
def test_polynomial_exactness_degree7(powers):
    p, q = powers

    def f(x):
        return x[:, 0] ** p * x[:, 1] ** q

    def mono(k):  # integral of x^k over [-1, 1]
        return 0.0 if k % 2 else 2.0 / (k + 1)

    pts, w7, _, _ = genz_malik_rule(2)
    got = float((f(pts) * w7).sum())
    assert got == pytest.approx(mono(p) * mono(q), rel=1e-12, abs=1e-12)


def test_gaussian_2d():
    want = math.erf(1.0) ** 2 * math.pi / 4.0

    def f(x):
        return np.exp(-np.sum(x * x, axis=1))

    res = integrate(f, [[0, 1]] * 2, 0.0, 1e-10, 10_000_000)
    assert res.status == "converged"
    assert res.value[0] == pytest.approx(want, rel=1e-10)
    assert abs(res.value[0] - want) <= max(res.error[0], 1e-13)


def test_gaussian_4d():
    want = (math.erf(1.0) * math.sqrt(math.pi) / 2.0) ** 4

    def f(x):
        return np.exp(-np.sum(x * x, axis=1))

    res = integrate(f, [[0, 1]] * 4, 0.0, 1e-8, 10_000_000)
    assert res.status == "converged"
    assert res.value[0] == pytest.approx(want, rel=1e-8)


def test_corner_singularity():
    # integrable singularity at the origin: exact value 4/3 (2 sqrt 2 - 2)
    def f(x):
        return 1.0 / np.sqrt(x[:, 0] + x[:, 1])

    want = 4.0 / 3.0 * (2.0 * math.sqrt(2.0) - 2.0)
    res = integrate(f, [[0, 1]] * 2, 0.0, 1e-7, 4_000_000)
    assert res.value[0] == pytest.approx(want, rel=1e-6)


def test_budget_status():
    def f(x):
        return 1.0 / np.sqrt(x[:, 0] + x[:, 1])

    res = integrate(f, [[0, 1]] * 2, 0.0, 1e-12, 2000)
    assert res.status == "budget"
    assert res.nevals <= 2000 + 17 * 200


def test_init_splits_respected():
    calls = []

    def f(x):
        calls.append(len(x))
        return np.ones(len(x))

    res = integrate(f, [np.array([0, 0.25, 1.0]), np.array([0, 0.5, 1.0])], 0.0, 1e-6,
                    10_000_000)
    assert res.value[0] == pytest.approx(1.0, rel=1e-13)
    assert res.ncells == 4
    assert calls == [17, 3 * 17]  # the first cell alone, then the other three


def test_anisotropic_split_direction():
    # all variation is along axis 0; adaptivity must still converge fast
    def f(x):
        return np.sin(40.0 * x[:, 0])

    want = (1.0 - math.cos(40.0)) / 40.0
    res = integrate(f, [[0, 1]] * 2, 0.0, 1e-9, 10_000_000)
    assert res.status == "converged"
    assert res.value[0] == pytest.approx(want, rel=1e-8, abs=1e-12)


@pytest.mark.parametrize("ndim", [1, 2, 3, 4])
def test_rule_matrix_matches_the_elementwise_rule(ndim):
    pts, w7, w5, rule = genz_malik_rule(ndim)
    vals = np.random.default_rng(ndim).standard_normal((50, len(pts)))
    ratio = (9.0 / 10.0) / (9.0 / 70.0)
    fc = vals[:, :1]
    terms = [vals * w7, vals * w5]  # each row's terms; the sum is its entry
    for i in range(ndim):
        p1, p3 = 1 + 2 * i, 1 + 2 * ndim + 2 * i
        terms.append(np.column_stack((vals[:, p3], vals[:, p3 + 1], -2.0 * fc[:, 0],
                                      -ratio * vals[:, p1], -ratio * vals[:, p1 + 1],
                                      2.0 * ratio * fc[:, 0])))
    want = np.column_stack([t.sum(axis=1) for t in terms])
    scale = np.column_stack([np.abs(t).sum(axis=1) for t in terms])
    got = vals @ rule
    assert np.all(np.abs(got - want) <= 1e-13 * scale)
    # each row's sums, alone or with others, carry the same bits
    for i in range(len(vals)):
        assert np.array_equal(cubature._gemm(vals[i : i + 1], rule), got[i : i + 1])


# ---------------------------------------------------------------------------
# oracle: the heap-and-lists driver that the array driver replaced


def heap_integrate(f, axes, abs_tol, rel_tol, max_evals, min_width_frac=1e-10):
    """Pop the worst ``cubature._BATCH`` cells off a heap keyed by
    (-error, index), bisect them one by one, push the children.  Every heap
    entry is an alive cell, so no alive flags are kept.  A scalar integrand
    only, with the driver's arguments and its (1,)-shaped results."""
    axes = [np.asarray(a, dtype=float) for a in axes]
    ndim = len(axes)
    pts, _, _, rule = genz_malik_rule(ndim)
    npts = len(pts)
    min_width = min_width_frac * np.array([a[-1] - a[0] for a in axes])

    def eval_cells(clo, chi):
        cen, hw = 0.5 * (clo + chi), 0.5 * (chi - clo)
        x = cen[:, None, :] + hw[:, None, :] * pts[None, :, :]
        vals = np.asarray(f(x.reshape(-1, ndim)), dtype=float).reshape(len(clo), npts)
        vol = np.prod(hw, axis=1)
        sums = cubature._gemm(vals, rule)
        i7, i5 = sums[:, 0] * vol, sums[:, 1] * vol
        diffs = np.where(chi - clo > min_width[None, :], np.abs(sums[:, 2:]), -1.0)
        return i7, np.abs(i7 - i5), np.argmax(diffs, axis=1), diffs.max(axis=1) >= 0.0

    clo, chi = _initial_cells(axes)
    vals0, errs0, sd0, sp0 = eval_cells(clo, chi)
    nevals = len(clo) * npts
    cell_lo, cell_hi, vals, errs, sds = list(clo), list(chi), list(vals0), list(errs0), list(sd0)
    heap = [(-errs0[i], i) for i in range(len(vals0)) if sp0[i]]
    heapq.heapify(heap)
    total, toterr = float(np.sum(vals0)), float(np.sum(errs0))

    def result(status):
        return CubatureResult(np.array([total]), np.array([toterr]), nevals, len(vals), status,
                              np.array([status == "converged"]))

    while True:
        if toterr <= max(abs_tol, rel_tol * abs(total)):
            return result("converged")
        if nevals >= max_evals:
            return result("budget")
        popped = [heapq.heappop(heap)[1] for _ in range(min(cubature._BATCH, len(heap)))]
        if not popped:
            return result("exhausted")
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
    return ([v.hex() for v in res.value.tolist()], [e.hex() for e in res.error.tolist()],
            res.converged.tolist(), res.nevals, res.ncells, res.status)


def _inv_sqrt_sum(x):
    return 1.0 / np.sqrt(x[:, 0] + x[:, 1])


ORACLE_CASES = {  # integrand, axes, (abs_tol, rel_tol, max_evals), _MIN_WIDTH_FRAC, status
    # symmetric in x <-> y: mirrored cells carry exactly equal errors
    "symmetric-ties": (lambda x: np.cos(3.0 * x[:, 0]) * np.cos(3.0 * x[:, 1]),
                       [[0, 2]] * 2, (0.0, 1e-13, 60_000), 1e-10, "budget"),
    "gaussian-4d": (lambda x: np.exp(-np.sum(x * x, axis=1)),
                    [[0, 1]] * 4, (0.0, 1e-8, 10_000_000), 1e-10, "converged"),
    "budget": (_inv_sqrt_sum, [[0, 1]] * 2, (0.0, 1e-12, 20_000), 1e-10, "budget"),
    "init-splits": (_inv_sqrt_sum, [np.array([0.0, 0.25, 1.0]), np.array([0.0, 0.1, 0.5, 1.0])],
                    (0.0, 1e-6, 10_000_000), 1e-10, "converged"),
    "exhausted": (_inv_sqrt_sum, [[0, 1]] * 2, (0.0, 1e-12, 10_000_000), 0.05, "exhausted"),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_matches_heap_driver(case, monkeypatch):
    f, axes, tols, min_width_frac, status = ORACLE_CASES[case]
    monkeypatch.setattr(cubature, "_MIN_WIDTH_FRAC", min_width_frac)
    got = integrate(f, axes, *tols)
    assert _bits(got) == _bits(heap_integrate(f, axes, *tols, min_width_frac=min_width_frac))
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
    axes = [[lo, lo + w] for lo, w in zip(corner, widths)]

    def f(x):
        out = np.full(len(x), 0.5)
        for j, c in enumerate(coef):
            out = out + c * x[:, j % ndim] ** powers[j] * x[:, (j + 1) % ndim] ** powers[-1 - j]
        return out

    tols = (0.0, 1e-13, 30_000)
    assert _bits(integrate(f, axes, *tols)) == _bits(heap_integrate(f, axes, *tols))


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
    got = integrate(_stacked(*fs), [[0, 1]] * 2, 0.0, rel, 10_000_000)
    assert got.status == "converged"
    assert got.converged.tolist() == [True, True, True]
    assert got.value.shape == got.error.shape == (3,)
    for k, (g, r) in enumerate(zip(fs, rel)):
        alone = integrate(g, [[0, 1]] * 2, 0.0, r, 10_000_000)
        assert abs(got.value[k] - alone.value[0]) <= got.error[k] + alone.error[0]
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
    axes = [np.array([0.0, 0.5, 0.9, 0.99, 1.0])] * 2
    start = integrate(_edge, axes, 0.0, 1e-6, 1)
    rel = [1.5 * start.error[0] / start.value[0], 1e-8]
    fs = (_edge, _bump)
    if not edge_first:
        fs, rel = fs[::-1], rel[::-1]
    got = integrate(_stacked(*fs), axes, 0.0, rel, 10_000_000)
    alone = integrate(_bump, axes, 0.0, 1e-8, 10_000_000)
    k = fs.index(_bump)
    assert got.converged.tolist() == [True, True]
    assert (got.nevals, got.ncells) == (alone.nevals, alone.ncells)
    assert got.value[k].hex() == alone.value[0].hex()
    assert got.error[k].hex() == alone.error[0].hex()


def test_budget_reports_each_component():
    got = integrate(_stacked(_cubic, _inv_sqrt_sum, _gauss), [[0, 1]] * 2, 0.0,
                    [1e-6, 1e-12, 1e-6], 2000)
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

    args = ([[0, 1]] * 2, 0.0, [1e-9, 1e-6, 1e-8], 10_000_000)
    whole = integrate(f, *args)
    assert max(sizes) == 2 * cub._BATCH * 17  # one call per refinement step
    sizes.clear()
    monkeypatch.setattr(cub, "_BLOCK_BYTES", 3 * 17 * 8 * 10)  # ten cells a call
    sliced = integrate(f, *args)
    assert max(sizes) == 17 * 10
    for a, b in ((whole.value, sliced.value), (whole.error, sliced.error)):
        assert [v.hex() for v in a] == [v.hex() for v in b]
    assert (whole.nevals, whole.ncells) == (sliced.nevals, sliced.ncells)


def test_one_call_per_step_at_the_sweeps_shape():
    # the default sweep's 4D passes have an m2 per rung and a gap per pair
    # of rungs, 23 components: every refinement step's 2 _BATCH children
    # must go to the integrand in one call
    count = EpsSchedule.default_for(ModelConfig(0.5, 4)).count
    assert 2 * count - 1 == 23
    sizes = []
    rates = np.linspace(1.0, 3.0, 2 * count - 1)

    def f(x):
        sizes.append(len(x))
        return np.exp(-rates[:, None] * np.sum(x * x, axis=1))

    splits = [np.array([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])] * 2 + [np.array([0.0, 0.5, 1.0])] * 2
    got = integrate(f, splits, 0.0, 1e-12, 60_000)
    assert got.status == "budget"
    step = 2 * cubature._BATCH * 57
    assert sizes[:2] == [57, 35 * 57]  # the first cell alone, then the rest of the 36
    assert len(sizes) > 10 and set(sizes[2:]) == {step}
    assert got.nevals == 36 * 57 + (len(sizes) - 2) * step


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

    args = ([np.linspace(0.0, 1.0, 41)] * 2, 0.0, 1e-6, 10_000_000)  # 1600 cells
    got = integrate(counted(_inv_sqrt_sum), *args)
    assert sizes[0] == 17  # the first cell alone tells K
    assert max(sizes) == 2 * cub._BATCH * 17
    assert _bits(got) == _bits(heap_integrate(_inv_sqrt_sum, *args))

    three = _stacked(_gauss, _inv_sqrt_sum, _cos2)
    whole = integrate(three, *args)
    sizes.clear()
    monkeypatch.setattr(cub, "_BLOCK_BYTES", 3 * 17 * 8 * 10)  # ten cells of K = 3 a call
    sliced = integrate(counted(three), *args)
    assert max(sizes) == 17 * 10
    for a, b in ((whole.value, sliced.value), (whole.error, sliced.error)):
        assert [v.hex() for v in a] == [v.hex() for v in b]
    assert (whole.nevals, whole.ncells) == (sliced.nevals, sliced.ncells)


def test_flat_values_are_one_component(monkeypatch):
    # (m,) values are K = 1, read from their size: the same values as
    # (1, m) give the same bits, (1,)-shaped results and the same cells
    # per integrand call
    monkeypatch.setattr(cubature, "_BLOCK_BYTES", 17 * 8 * 10)  # ten cells of K = 1 a call
    results, sizes = [], []
    for lead in ((), (1,)):
        calls = []

        def f(x, lead=lead, calls=calls):
            calls.append(len(x))
            return _inv_sqrt_sum(x).reshape(lead + (-1,))

        results.append(integrate(f, [np.linspace(0.0, 1.0, 5)] * 2, 0.0, 1e-8, 200_000))
        sizes.append(calls)
    flat, row = results
    assert flat.value.shape == flat.error.shape == flat.converged.shape == (1,)
    assert _bits(flat) == _bits(row)
    assert sizes[0] == sizes[1] and max(sizes[0]) == 17 * 10

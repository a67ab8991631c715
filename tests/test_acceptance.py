"""End-to-end acceptance suite.

Each test checks one numbered criterion and prints a one-line
[PASS]/[FAIL] verdict on the real stdout so the lines survive pytest's
capture. README.md's "Tests" section gives the time each criterion takes.
"""

import math
import sys
import time

import numpy as np
from scipy.stats import ks_2samp, norm

import conftest

from fbmilt import cubature
from fbmilt.covkernel import (
    ModelConfig,
    cov_rh,
    gamma_bound_excess,
    phi_det,
    superadditivity_violation,
)
from fbmilt.fbmgen import TimeGrid, sample_paths
from fbmilt.iltmc import grid_for_eps, mc_moments
from fbmilt.phasescan import fit_rate_offset, phase_grid
from fbmilt.quadmoments import a_t_integral, cauchy_gap, m1, m2, reduction_bound


def _verdict(num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line, file=sys.__stdout__, flush=True)
    conftest.record_verdict(line)
    assert ok, line


def test_criterion_1_phase_dichotomy():
    hs = [0.25, 0.4, 0.5, 0.6, 0.75, 0.9]
    ds = [2, 3, 4]
    t0 = time.monotonic()
    points = phase_grid(hs, ds)
    elapsed = time.monotonic() - t0
    correct = 0
    for pt in points:
        if pt.hurst * pt.dim < 2.0 - 1e-12:
            want = "Convergent"
        elif abs(pt.hurst * pt.dim - 2.0) < 1e-9:
            want = "Critical"
        else:
            want = "Divergent"
        correct += getattr(pt, "verdict", None) == want
    ok = correct == 18 and elapsed <= 900.0
    _verdict(1, ok, f"phase dichotomy {correct}/18 verdicts correct "
                    f"in {elapsed:.1f}s (limit 900s)")


def test_criterion_2_m1_closed_form():
    cfg = ModelConfig(0.5, 2)
    t0 = time.monotonic()
    worst = 0.0
    for eps in (0.0, 0.1, 1.0):
        if eps == 0.0:
            want = math.log(2.0) / math.pi
        else:
            want = (
                (eps + 2) * math.log(eps + 2)
                - 2 * (eps + 1) * math.log(eps + 1)
                + eps * math.log(eps)
            ) / (2.0 * math.pi)
        worst = max(worst, abs(m1(eps, cfg).value - want) / want)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-8 and elapsed < 1.0
    _verdict(2, ok, f"m1 antiderivative oracle, worst relative error "
                    f"{worst:.2e} (limit 1e-8) in {elapsed:.2f}s")


def test_criterion_3_mc_quadrature_coherence():
    points = [(0.3, 2, 0.5), (0.5, 2, 0.5), (0.5, 3, 1.0), (0.7, 2, 1.0)]
    reps, seeds = 10_000, 20
    t0 = time.monotonic()
    details = []
    ok = True
    for h, d, eps in points:
        cfg = ModelConfig(h, d)
        grid = TimeGrid(1.0, grid_for_eps(eps, cfg))
        want1 = m1(eps, cfg)
        want2 = m2(eps, cfg)
        hits = 0
        for seed in range(seeds):
            est = mc_moments(cfg, eps, grid, reps, seed=seed)
            ok1 = abs(est.mean - want1.value) <= 3 * est.se_mean + want1.error_estimate
            ok2 = (abs(est.second_moment - want2.value)
                   <= 3 * est.se_second + want2.error_estimate)
            hits += ok1 and ok2
        details.append(f"({h},{d},{eps}): {hits}/{seeds}")
        ok = ok and hits >= math.ceil(0.95 * seeds)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed <= 1800.0
    _verdict(3, ok, "MC within 3 combined SE of quadrature in "
                    + "; ".join(details) + f" seeds (need >=19/20), {elapsed:.0f}s")


def test_criterion_4_determinant_superadditivity():
    t0 = time.monotonic()
    worst = superadditivity_violation(1_000_000, np.random.default_rng(0))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-12 and elapsed < 10.0
    _verdict(4, ok, f"superadditivity over 3x10^6 quadruples, worst "
                    f"violation {worst:.2e} (limit 1e-12) in {elapsed:.1f}s")


def test_criterion_5_gamma_bound():
    t0 = time.monotonic()
    worst, checks = gamma_bound_excess()
    elapsed = time.monotonic() - t0
    ok = worst <= 0.0 and elapsed < 1.0
    _verdict(5, ok, f"incomplete-gamma bound, {checks} grid checks, "
                    f"worst excess {worst:.2e} in {elapsed:.2f}s")


def _direct_two_triangle_integral(cfg, rel_tol=1e-6):
    """Independent route for the two-triangle integral
    int_{v<t} int_{u<s} (phi(t,v) + phi(s,u))^(-d/2): direct 4D cubature
    in coordinates s = x1^2, t = x2^2, u = s*a, v = t*b with a smootherstep
    map on (a, b)."""
    h, d, T = cfg.hurst, cfg.dim, cfg.horizon

    def smoother(alpha):
        return alpha**3 * (10 - 15 * alpha + 6 * alpha**2), \
            30.0 * alpha**2 * (1 - alpha) ** 2

    def f(x):
        xi, ze, al, be = x[:, 0], x[:, 1], x[:, 2], x[:, 3]
        a, da = smoother(al)
        b, db = smoother(be)
        s = T * xi * xi
        t = T * ze * ze
        jac = (2 * T * xi) * (2 * T * ze) * (s * da) * (t * db)
        base = phi_det(t, t * b, h) + phi_det(s, s * a, h)
        with np.errstate(divide="ignore", over="ignore"):
            g = base ** (-0.5 * d)
        return np.where(np.isfinite(g), g, 0.0) * jac

    res = cubature.integrate(f, [np.array([0.0, 0.5, 1.0])] * 4, 0.0, rel_tol, 20_000_000)
    return res.value[0], res.error[0]


def test_criterion_6_fubini_route_equivalence():
    t0 = time.monotonic()
    details = []
    ok = True
    for h in (0.25, 0.4):
        cfg = ModelConfig(h, 2)
        rb = reduction_bound(cfg)
        direct, direct_err = _direct_two_triangle_integral(cfg)
        gap = abs(rb.value - direct)
        budget = rb.error_estimate + direct_err
        at = a_t_integral(cfg)
        bound_ok = at.value <= 4.0 * rb.value + 1e-6
        details.append(f"H={h}: |route gap| {gap:.2e} <= {budget:.2e}, "
                       f"A_T {at.value:.4f} <= 4x{rb.value:.4f}")
        ok = ok and gap <= budget and bound_ok
    elapsed = time.monotonic() - t0
    ok = ok and elapsed <= 300.0
    _verdict(6, ok, "; ".join(details) + f"; {elapsed:.0f}s")


def _covariance_ztest(method, h, n, reps):
    """Worst |z| over all entries of the one-coordinate sample covariance
    matrix against the exact covariance (known zero mean)."""
    cfg = ModelConfig(h, 2)
    grid = TimeGrid(1.0, n)
    vals = np.empty((reps, n))
    for r in range(reps):
        ss = np.random.SeedSequence(entropy=(1729, r))
        rng = np.random.Generator(np.random.Philox(ss))
        vals[r] = sample_paths(grid, cfg, rng, 1, method)[0, 1:, 0]
    c_hat = vals.T @ vals / reps
    tt = grid.times[1:]
    c = cov_rh(tt[:, None], tt[None, :], h)
    se = np.sqrt((np.outer(np.diag(c), np.diag(c)) + c * c) / reps)
    iu = np.triu_indices(n)
    z = np.abs(c_hat - c)[iu] / se[iu]
    return float(z.max()), vals[:, -1]


def test_criterion_7_sampler_exactness():
    n, reps = 64, 10_000
    n_tests = 2 * 3 * (n * (n + 1) // 2)
    z_star = float(norm.ppf(1.0 - 0.01 / (2 * n_tests)))
    t0 = time.monotonic()
    ok = True
    details = []
    for h in (0.25, 0.5, 0.75):
        z_chol, last_chol = _covariance_ztest("cholesky", h, n, reps)
        z_circ, last_circ = _covariance_ztest("circulant", h, n, reps)
        ks_p = ks_2samp(last_chol, last_circ).pvalue
        details.append(f"H={h}: max|z| {z_chol:.2f}/{z_circ:.2f}, KS p {ks_p:.3f}")
        ok = ok and z_chol <= z_star and z_circ <= z_star and ks_p > 0.001
    elapsed = time.monotonic() - t0
    ok = ok and elapsed <= 300.0
    _verdict(7, ok, f"covariance z-tests (threshold {z_star:.2f}) and "
                    f"cholesky-vs-circulant KS: " + "; ".join(details)
                    + f"; {elapsed:.0f}s")


def test_criterion_8_divergence_rate():
    t0 = time.monotonic()
    details = []
    ok = True
    eps = 2.0 ** -np.arange(4, 13)
    for h, d in [(0.75, 3), (0.9, 3)]:
        cfg = ModelConfig(h, d)
        vals = [m1(e, cfg).value for e in eps]
        rate = fit_rate_offset(eps, vals)
        want = 1.0 / h - d / 2.0
        rel = abs(rate - want) / abs(want)
        details.append(f"(H={h},d={d}): fitted {rate:.4f} vs {want:.4f} "
                       f"({100 * rel:.1f}%)")
        ok = ok and rel <= 0.10
    elapsed = time.monotonic() - t0
    ok = ok and elapsed <= 300.0
    _verdict(8, ok, "m1 rate within 10%: " + "; ".join(details) + f"; {elapsed:.0f}s")


def test_criterion_9_cauchy_gap_ladder():
    t0 = time.monotonic()

    def gaps(cfg, eps0, count=12):
        return [cauchy_gap(eps0 * 0.5**k, eps0 * 0.5 ** (k + 1), cfg).value
                for k in range(count)]

    cfg_c = ModelConfig(0.5, 2)
    g_c = gaps(cfg_c, cfg_c.horizon ** (2 * cfg_c.hurst) / 2.0)
    conv_ok = (
        all(g > 0.0 for g in g_c)
        and all(b < a for a, b in zip(g_c, g_c[1:]))
        and g_c[-1] < 1e-4
    )
    cfg_d = ModelConfig(0.75, 3)
    g_d = gaps(cfg_d, cfg_d.horizon ** (2 * cfg_d.hurst) / 2.0)
    div_ok = all(b > a for a, b in zip(g_d, g_d[1:]))
    elapsed = time.monotonic() - t0
    ok = conv_ok and div_ok and elapsed <= 600.0
    _verdict(9, ok, f"(0.5,2) gaps positive/decreasing, last {g_c[-1]:.2e} < 1e-4; "
                    f"(0.75,3) gaps increasing {g_d[0]:.2e} -> {g_d[-1]:.2e}; "
                    f"{elapsed:.0f}s")

import decimal
import itertools
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fbmilt import cubature, quadmoments
from fbmilt.covkernel import ModelConfig, det_var_z, lambda_var, phi_det
from fbmilt.cubature import integrate
from fbmilt.errors import ParameterError, QuadratureBudgetError
from fbmilt.phasescan import QUAD_REL_TOL, EpsSchedule
from fbmilt.quadmoments import (
    _SINGULAR_FACES,
    _cluster_both,
    _face_distance,
    _gamma_ratio,
    _limit_integrand,
    _moment_integrand,
    _radial_factor,
    _region_pieces,
    _shell_splits,
    a_t_integral,
    a_z,
    cauchy_gap,
    m1,
    m1_ladder,
    m2,
    m2_ladder,
    radial_rate,
    reduction_bound,
    var_limit,
)

CFG_H5D2 = ModelConfig(hurst=0.5, dim=2, horizon=1.0)


def m1_closed_form(eps, horizon=1.0):
    """Antiderivative of the first-moment integrand for hurst 1/2, dim 2."""
    T = horizon
    if eps == 0.0:
        return 2.0 * T * math.log(2.0) / (2.0 * math.pi)
    val = (
        (eps + 2 * T) * math.log(eps + 2 * T)
        - 2 * (eps + T) * math.log(eps + T)
        + eps * math.log(eps)
    )
    return val / (2.0 * math.pi)


def m1_limit_2d(cfg):
    """Independent route for m1(0) at Hd < 2: the 2D integral of
    (s^2H + t^2H)^(-d/2) (2 pi)^(-d/2) itself, with both times mapped by
    x -> T x^p; near the origin the mapped integrand is ~ r^(p(2-Hd)-2),
    bounded for p > 2/(2-Hd)."""
    h2, d, T = 2.0 * cfg.hurst, cfg.dim, cfg.horizon
    p = max(2, min(8, math.ceil(2.0 / (2.0 - cfg.hd)) + 1))
    pref = (2.0 * math.pi) ** (-0.5 * d)

    def f(x):
        s, t = T * x[:, 0] ** p, T * x[:, 1] ** p
        jac = (T * p) ** 2 * (x[:, 0] * x[:, 1]) ** (p - 1)
        return pref * (s**h2 + t**h2) ** (-0.5 * d) * jac

    return integrate(f, [0.0, 0.0], [1.0, 1.0], abs_tol=1e-10, rel_tol=1e-9,
                     max_evals=4_000_000, init_splits=[np.array([0.0, 0.25, 1.0])] * 2)


class TestM1:
    @pytest.mark.parametrize("eps", [0.0, 0.1, 1.0])
    def test_closed_form(self, eps):
        res = m1(eps, CFG_H5D2)
        assert not res.diverged
        assert res.value == pytest.approx(m1_closed_form(eps), rel=1e-8)

    def test_known_value_eps1(self):
        assert m1(1.0, CFG_H5D2).value == pytest.approx(
            (3 * math.log(3) - 4 * math.log(2)) / (2 * math.pi), rel=1e-9
        )

    def test_limit_value(self):
        assert m1(0.0, CFG_H5D2).value == pytest.approx(math.log(2) / math.pi, rel=1e-8)

    @pytest.mark.parametrize("h,d,want", [
        (0.95, 2, 2.47858388547527512102831588885),
        (0.49, 4, 0.628332450249270858374432918569),
        (0.66, 3, 4.02319525675035808621265390781),
    ], ids=["0.95-2", "0.49-4", "0.66-3"])
    def test_limit_converges_near_the_transition(self, h, d, want):
        # a 2D pass ran out of m1's budget here; want is a 30-digit mpmath
        # value of 2 (2pi)^(-d/2) / (2-Hd) int_0^1 (1 + b^2H)^(-d/2) db
        res = m1(0.0, ModelConfig(h, d))
        assert res.status == "converged"
        assert abs(res.value - want) <= res.error_estimate

    @pytest.mark.parametrize("h,d", [(0.75, 2), (0.6, 3), (0.45, 4)])
    def test_limit_matches_the_2d_integral(self, h, d):
        cfg = ModelConfig(h, d)
        res = m1(0.0, cfg)
        direct = m1_limit_2d(cfg)
        assert direct.status == "converged"
        assert abs(res.value - direct.value) <= res.error_estimate + direct.error

    def test_diverged_at_critical(self):
        res = m1(0.0, ModelConfig(hurst=0.5, dim=4))
        assert res.diverged
        assert res.divergence_evidence
        assert math.isinf(res.error_estimate)

    def test_diverged_above_critical(self):
        res = m1(0.0, ModelConfig(hurst=0.75, dim=3))
        assert res.diverged

    def test_negative_eps_rejected(self):
        with pytest.raises(ParameterError):
            m1(-0.1, CFG_H5D2)

    def test_budget_error_carries_partial(self, monkeypatch):
        monkeypatch.setattr(quadmoments, "_M1_MAX_EVALS", 500)
        with pytest.raises(QuadratureBudgetError) as exc:
            m1(0.0, ModelConfig(hurst=0.6, dim=3), rel_tol=1e-13)
        partial = exc.value.partial
        assert partial is not None
        assert partial.value > 0.0

    def test_reports_status_and_evaluations(self):
        res = m1(0.1, CFG_H5D2)
        assert res.status == "converged"
        assert res.nevals > 0
        assert res.subdivisions > 0

    def test_diverged_branch_takes_tolerance_and_budget(self, monkeypatch):
        cfg = ModelConfig(0.75, 3)
        default = m1(0.0, cfg)
        same = m1(0.0, cfg, rel_tol=quadmoments._M1_REL_TOL)
        assert (same.value, same.nevals) == (default.value, default.nevals)
        assert m1(0.0, cfg, rel_tol=1e-3).nevals < default.nevals
        assert default.status == "converged"
        monkeypatch.setattr(quadmoments, "_M1_MAX_EVALS", 100)
        assert m1(0.0, cfg).status == "budget"

    def test_monotone_in_eps(self):
        vals = [m1(e, CFG_H5D2).value for e in (0.0, 0.25, 0.5, 1.0, 2.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("c", [0.5, 2.0])
    def test_scaling_law(self, c):
        # substituting s -> cs, t -> ct rescales eps by c^2H and the
        # value by c^(2 - Hd)
        for cfg in (CFG_H5D2, ModelConfig(0.3, 2), ModelConfig(0.7, 2)):
            h2 = 2 * cfg.hurst
            base = m1(0.3, cfg).value
            scaled = m1(c**h2 * 0.3, ModelConfig(cfg.hurst, cfg.dim, c * cfg.horizon))
            assert scaled.value == pytest.approx(c ** (2 - cfg.hd) * base, rel=1e-7)


class TestM2:
    def test_positive_eps_required(self):
        with pytest.raises(ParameterError):
            m2(0.0, CFG_H5D2)

    def test_factorizes_without_cross_term(self):
        # with the cross covariance mu dropped, the m2 integrand
        # ((lam + e)(rho + e))^(-d/2) factorizes into two m1 integrands;
        # the two regions cover {t largest}, a quarter of [0, T]^4
        cfg, e = CFG_H5D2, 1.0
        total = 0.0
        for region in "AB":
            def f(x):
                lam, rho, _, jac = _region_pieces(x, region, cfg.hurst, cfg.horizon)
                return ((lam + e) * (rho + e)) ** (-0.5 * cfg.dim) * jac

            total += 4.0 * integrate(f, [0.0] * 4, [1.0] * 4, rel_tol=1e-5).value
        got = (2 * math.pi) ** (-cfg.dim) * total
        assert got == pytest.approx(m1(e, cfg).value ** 2, rel=1e-4)

    def test_second_moment_dominates_mean_squared(self):
        for eps in (0.25, 1.0):
            for cfg in (CFG_H5D2, ModelConfig(0.3, 2), ModelConfig(0.5, 3)):
                assert m2(eps, cfg).value >= m1(eps, cfg).value ** 2 - 1e-9

    def test_against_mc_integration(self):
        # independent oracle: uniform Monte Carlo on the raw integrand
        rng = np.random.default_rng(0)
        n = 2_000_000
        s, t, u, v = rng.random((4, n))
        lam = s + t
        rho = u + v
        mu = np.minimum(t, v) + np.minimum(s, u)
        f = ((lam + 1.0) * (rho + 1.0) - mu * mu) ** -1.0
        pref = (2 * math.pi) ** -2
        est = pref * f.mean()
        se = pref * f.std() / math.sqrt(n)
        got = m2(1.0, CFG_H5D2)
        assert abs(got.value - est) <= 3 * se + got.error_estimate

    def test_monotone_in_eps(self):
        vals = [m2(e, CFG_H5D2).value for e in (0.25, 0.5, 1.0, 2.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_default_tolerance_read_at_call_time(self, monkeypatch):
        cfg = ModelConfig(0.5, 2)
        given_tol = m2(0.5, cfg, rel_tol=1e-2)
        monkeypatch.setattr(quadmoments, "_M2_REL_TOL", 1e-2)
        assert m2(0.5, cfg).nevals == given_tol.nevals
        assert m2_ladder([0.5], cfg)[0][0].nevals == given_tol.nevals


def _cross_moment(eps, eta, cfg):
    """E[I_eps I_eta] from a pass of its own over m2's regions, to m2's
    tolerances: the column (P(eps, eta) + P(eta, eps)) / 2."""
    def integrand(region):
        def f(x):
            lam, rho, det, jac = _region_pieces(x, region, cfg.hurst, cfg.horizon)

            def p(a, b):
                return (det + a * rho + b * lam + a * b) ** (-0.5 * cfg.dim)

            return (0.5 * (p(eps, eta) + p(eta, eps)) * jac)[None]
        return f

    init = [np.array([0.0, 0.5, 1.0])] * 4
    (res,) = quadmoments._region_passes(cfg, quadmoments._M2_ABS_TOL, quadmoments._M2_REL_TOL,
                                        quadmoments._M2_MAX_EVALS,
                                        [(integrand(r), init) for r in "AB"])
    assert res.status == "converged"
    return res


class TestCauchyGap:
    def test_identical_regularizers(self):
        assert abs(cauchy_gap(0.5, 0.5, CFG_H5D2).value) < 1e-12

    def test_nonnegative(self):
        for eps in (1.0, 0.25, 2.0**-6):
            assert cauchy_gap(eps, eps / 2, CFG_H5D2).value >= -1e-12

    def test_matches_three_term_combination(self):
        eps, eta = 0.5, 0.25
        fused = cauchy_gap(eps, eta, CFG_H5D2).value
        separate = (
            m2(eps, CFG_H5D2).value
            + m2(eta, CFG_H5D2).value
            - 2 * _cross_moment(eps, eta, CFG_H5D2).value
        )
        assert fused == pytest.approx(separate, rel=2e-3)

    def test_shrinks_below_transition(self):
        gaps = [cauchy_gap(2.0**-k, 2.0**-(k + 1), CFG_H5D2).value for k in (1, 4, 7, 10)]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_grows_above_transition(self):
        cfg = ModelConfig(0.75, 3)
        gaps = [cauchy_gap(2.0**-k, 2.0**-(k + 1), cfg).value for k in (1, 4, 7)]
        assert all(b > a for a, b in zip(gaps, gaps[1:]))

    def test_budget_hit_is_raised(self, monkeypatch):
        # a gap used to come back as a bare float whatever its status
        monkeypatch.setattr(quadmoments, "_GAP_REL_TOL", 1e-12)
        monkeypatch.setattr(quadmoments, "_M2_MAX_EVALS", 500)
        with pytest.raises(QuadratureBudgetError) as exc:
            cauchy_gap(0.5, 0.25, CFG_H5D2)
        partial = exc.value.partial
        assert partial.status == "budget"
        assert partial.nevals > 0
        assert math.isfinite(partial.value) and partial.error_estimate > 0.0


NAN = math.nan


@pytest.mark.parametrize("call", [
    lambda: m1(NAN, CFG_H5D2),
    lambda: m2(NAN, CFG_H5D2),
    lambda: cauchy_gap(NAN, 0.1, CFG_H5D2),
    lambda: cauchy_gap(0.1, NAN, CFG_H5D2),
    lambda: m1_ladder([0.5, NAN], CFG_H5D2),
    lambda: m2_ladder([NAN], CFG_H5D2),
    lambda: a_z(NAN, CFG_H5D2),
], ids=["m1", "m2", "cauchy_gap-eps", "cauchy_gap-eta",
        "m1_ladder", "m2_ladder", "a_z"])
def test_nan_regularizer_rejected(call):
    # a comparison with NaN is false, so a guard written as "x <= 0"
    # or "min(...) <= 0" would let it through
    with pytest.raises(ParameterError):
        call()


class TestLadders:
    def test_positive_regularizers_required(self):
        with pytest.raises(ParameterError):
            m1_ladder([0.5, 0.0], CFG_H5D2)
        with pytest.raises(ParameterError):
            m2_ladder([0.5, -0.25], CFG_H5D2)
        with pytest.raises(ParameterError):
            m2_ladder([], CFG_H5D2)

    def test_gaps_follow_the_rungs(self):
        m2s, gaps = m2_ladder([1.0, 0.5, 0.25], CFG_H5D2)
        assert len(m2s) == len(gaps) == 3
        assert gaps[0] is None
        want = cauchy_gap(1.0, 0.5, CFG_H5D2)
        assert abs(gaps[1].value - want.value) <= gaps[1].error_estimate + want.error_estimate
        assert m2s[0].nevals == gaps[2].nevals > 0  # one shared pass

    def test_sweep_ladder_evaluation_count(self):
        # a sweep's 4D pass at (0.5, 4) made 742,368 evaluations when the
        # regions covered {v < t} rather than {t largest}
        cfg = ModelConfig(0.5, 4)
        m2s, gaps = m2_ladder(EpsSchedule.default_for(cfg).ladder(), cfg, rel_tol=QUAD_REL_TOL)
        assert all(r.status == "converged" for r in m2s + gaps[1:])
        assert m2s[0].nevals <= 400_000


class TestVarLimit:
    def test_finite_below_transition(self):
        res = var_limit(ModelConfig(0.25, 2))
        assert not res.diverged
        assert res.value > 0.0
        assert res.error_estimate < 1e-3 * res.value

    def test_dominated_by_a_t(self):
        cfg = ModelConfig(0.25, 2)
        vl = var_limit(cfg)
        at = a_t_integral(cfg)
        pref = (2 * math.pi) ** (-cfg.dim)
        assert vl.value <= pref * at.value + 1e-9

    def test_diverged_above_transition(self):
        res = var_limit(ModelConfig(0.75, 3))
        assert res.diverged
        assert "2.25" in res.divergence_evidence

    def test_diverged_reports_shell_budget_hits(self, monkeypatch):
        # a pass too small for the inner shells (the default pass takes
        # about 129k evaluations here) reports their budget hits; each
        # region may overshoot its half by one step of 2 * 128 cells of 33
        monkeypatch.setattr(quadmoments, "_M2_MAX_EVALS", 60_000)
        res = var_limit(ModelConfig(0.75, 3))
        assert res.diverged
        assert res.status == "budget"
        assert 0 < res.nevals <= 60_000 + 2 * 2 * 128 * 33
        assert res.shells[-1].status == "budget"


class TestDivergenceShells:
    @pytest.mark.parametrize("fn,h,d", [
        ("m1", 0.75, 3), ("m1", 0.5, 4), ("m1", 0.8, 3), ("m1", 0.7, 3), ("m1", 0.6, 4),
        ("m1", 0.9, 4), ("var_limit", 0.75, 3), ("var_limit", 0.5, 4), ("var_limit", 0.9, 3),
        ("var_limit", 0.9, 4), ("var_limit", 0.95, 3),
    ])
    def test_every_shell_converges_and_grows(self, fn, h, d):
        cfg = ModelConfig(h, d)
        res = m1(0.0, cfg) if fn == "m1" else var_limit(cfg)
        assert res.diverged and res.status == "converged"
        assert all(s.status == "converged" for s in res.shells)
        values = [s.value for s in res.shells]
        assert all(b > a > 0.0 for a, b in zip(values, values[1:]))
        assert all(b < a for a, b in zip(res.shell_widths, res.shell_widths[1:]))
        assert res.value == values[-1]
        # the message still ends with the shell sequence
        tail = res.divergence_evidence.rsplit(":", 1)[1]
        assert [float(v) for v in tail.split(",")] == [float(f"{v:.4g}") for v in values]
        assert res.shell_rate < 0.0
        assert res.radial_exponent == (1.0 - cfg.hd if fn == "m1" else radial_rate(cfg))
        if (fn, h, d) == ("var_limit", 0.9, 4):
            assert res.nevals <= 1_200_000  # the 4D pass took 2.76M

    @pytest.mark.parametrize("h,d,T", [(0.75, 3, 1.0), (0.5, 4, 2.0)])
    def test_m1_shells_match_the_2d_integral(self, h, d, T):
        # m1(0) outside [0, delta]^2 is the 2D integral over the rectangles
        # [delta, T] x [0, T] and [0, delta] x [delta, T], away from the origin
        cfg = ModelConfig(h, d, T)
        res = m1(0.0, cfg)
        pref = (2 * math.pi) ** (-0.5 * d)

        def f(x):
            return pref * (x[:, 0] ** (2 * h) + x[:, 1] ** (2 * h)) ** (-0.5 * d)

        for k in (1, 4, 7):
            delta, shell = res.shell_widths[k - 1], res.shells[k - 1]
            assert delta == T * 4.0**-k
            parts = [integrate(f, lo, hi, abs_tol=0.0, rel_tol=1e-9, max_evals=2_000_000)
                     for lo, hi in (([delta, 0.0], [T, T]), ([0.0, delta], [delta, T]))]
            assert all(p.status == "converged" for p in parts)
            direct = sum(p.value for p in parts)
            assert abs(shell.value - direct) <= shell.error_estimate + sum(p.error for p in parts)

    def test_m1_shells_continuous_at_the_transition(self):
        # within 1e-12 of Hd = 2 the radial factor, which m1(0) and the 3D
        # passes share, has no cancellation: the shells are finite, grow,
        # and match those at Hd = 2
        for fn in (lambda cfg: m1(0.0, cfg), var_limit):
            near, at = fn(ModelConfig(0.5 - 1e-13, 4)), fn(ModelConfig(0.5, 4))
            assert near.diverged and near.status == "converged"
            values = [s.value for s in near.shells]
            assert all(math.isfinite(v) for v in values)
            assert all(b > a > 0.0 for a, b in zip(values, values[1:]))
            for a, b in zip(near.shells, at.shells):
                assert a.value == pytest.approx(b.value, rel=1e-9)

    def test_m1_shell_rate_approaches_the_radial_integral(self):
        # m1(0) outside [0, delta]^2 grows like delta^(2 - Hd)
        for h, d in [(0.8, 3), (0.9, 4)]:
            cfg = ModelConfig(h, d)
            assert m1(0.0, cfg).shell_rate == pytest.approx(2.0 - cfg.hd, abs=0.05)

    def test_4d_shells_match_the_4d_integral(self):
        # a shell is A_T (2 pi)^-d outside the slab zeta < delta and the boxes
        # of width delta around the singular faces of the slice (w, alpha,
        # beta): here integrated in 4D, with the zeta axis split at delta
        cfg = ModelConfig(0.5, 4)
        res = var_limit(cfg)
        pref = (2 * math.pi) ** (-cfg.dim)
        widths = res.shell_widths[:2]
        direct = np.zeros(2)
        errs = np.zeros(2)
        for region, faces in _SINGULAR_FACES.items():
            def f(x, faces=faces, region=region):
                _, _, det, jac = _region_pieces(x, region, cfg.hurst, cfg.horizon)
                dist = np.minimum(x[:, 1], _face_distance(x[:, [0, 2, 3]], faces))
                return np.stack([(dist >= w) * det ** (-0.5 * cfg.dim) * jac for w in widths])

            splits = _shell_splits(faces, np.array(widths))
            init = [splits[0], np.array([0.0, *sorted(widths), 1.0]), splits[1], splits[2]]
            part = integrate(f, [0.0] * 4, [1.0] * 4, rel_tol=1e-3, max_evals=4_000_000,
                             init_splits=init)
            assert part.status == "converged"
            direct += 4.0 * pref * part.value
            errs += 4.0 * pref * part.error
        for shell, want, err in zip(res.shells, direct, errs):
            assert abs(shell.value - want) <= shell.error_estimate + err

    def test_shells_are_unions_of_starting_cells(self):
        # every starting cell lies wholly inside or outside each exclusion box
        for faces in _SINGULAR_FACES.values():
            splits = _shell_splits(faces, quadmoments._SHELL_WIDTHS)
            for i, ei, j, ej in faces:
                for w in quadmoments._SHELL_WIDTHS:
                    assert abs(ei - w) in splits[i] and abs(ej - w) in splits[j]


def _face_points(i, ei, j, ej, rng, n=50):
    """``n`` points of the mapped cube (w, zeta, alpha, beta) on the face
    {y_i = e_i, y_j = e_j} of the slice (w, alpha, beta), the other slice
    coordinate drawn from [0.25, 0.75] and zeta from [0.25, 1], away from
    the other faces and the time origin."""
    y = rng.uniform(0.25, 0.75, (n, 3))
    y[:, i] = ei
    y[:, j] = ej
    return np.insert(y, 1, rng.uniform(0.25, 1.0, n), axis=1)


class TestSingularFaces:
    @pytest.mark.parametrize("h", [0.3, 0.75])
    @pytest.mark.parametrize("region", ["A", "B"])
    def test_det_vanishes_on_the_time_origin(self, region, h):
        # zeta = 0 is t = 0, and every other time is at most t: the slab
        # zeta < delta of a shell is the radial factor, not a listed face
        x = np.random.default_rng(3).uniform(0.0, 1.0, (200, 4))
        x[:, 1] = 0.0
        lam, rho, det, _ = _region_pieces(x, region, h, 1.0)
        assert np.all(det == 0.0) and np.all(lam == 0.0) and np.all(rho == 0.0)

    @pytest.mark.parametrize("h", [0.3, 0.75])
    @pytest.mark.parametrize("region", ["A", "B"])
    def test_det_vanishes_on_the_listed_faces_only(self, region, h):
        # every codimension-2 face of the slice, at zeta in [0.25, 1]
        rng = np.random.default_rng(7)
        listed = set(_SINGULAR_FACES[region])
        assert len(listed) == (4 if region == "A" else 3)
        seen = set()
        for i, j in itertools.combinations(range(3), 2):
            for ei, ej in itertools.product((0.0, 1.0), repeat=2):
                seen.add((i, ei, j, ej))
                x = _face_points(i, ei, j, ej, rng)
                lam, rho, det, _ = _region_pieces(x, region, h, 1.0)
                if (i, ei, j, ej) in listed:
                    assert np.all(det <= 1e-14 * (lam + rho) ** 2)
                else:
                    assert np.all(det > 1e-6 * lam * rho)
        # and each codimension-1 face {y_i = e_i} of the slice, at zeta = 1
        # where the 3D passes integrate, away from the faces above
        for i, ei in itertools.product(range(3), (0.0, 1.0)):
            seen.add((i, ei))
            x = _face_points(i, ei, i, ei, rng)
            x[:, 1] = 1.0
            lam, rho, det, _ = _region_pieces(x, region, h, 1.0)
            assert np.all(det > 1e-6 * lam * rho)
        assert len(seen) == 18 and listed <= seen


class TestATIntegral:
    def test_diverged_above_transition(self):
        assert a_t_integral(ModelConfig(0.75, 3)).diverged

    def test_diverged_at_transition(self):
        assert a_t_integral(ModelConfig(0.5, 4)).diverged

    def test_bounded_by_reduction(self):
        for h in (0.25, 0.4):
            cfg = ModelConfig(h, 2)
            at = a_t_integral(cfg)
            rb = reduction_bound(cfg)
            assert not at.diverged
            assert at.value <= 4 * rb.value + 1e-6

    @pytest.mark.parametrize("h,d", [(0.25, 2), (0.4, 2), (0.3, 3)])
    def test_is_the_limit_of_m2(self, h, d):
        # A_T (2 pi)^-d is the m2 column at eps = 0 on the same map and
        # mesh; m2(eps) increases toward it as eps -> 0
        cfg = ModelConfig(h, d)
        pref = (2 * math.pi) ** (-d)
        at = a_t_integral(cfg)
        near = m2(1e-6, cfg)
        assert m2(1e-4, cfg).value < near.value
        assert abs(near.value - pref * at.value) <= near.error_estimate + pref * at.error_estimate

    @pytest.mark.parametrize("h,d", [(0.75, 2), (0.78, 2), (0.8, 2), (0.53, 3)])
    def test_converges_near_the_transition(self, h, d):
        cfg = ModelConfig(h, d)
        at, vl = a_t_integral(cfg), var_limit(cfg)
        assert at.status == vl.status == "converged"
        # a 4D pass over (w, zeta, alpha, beta) took 406k-596k evaluations
        assert at.nevals <= 300_000 and vl.nevals <= 300_000
        assert 0.0 < vl.value <= (2 * math.pi) ** (-d) * at.value
        if (h, d) == (0.75, 2):
            # 25.78209 +- 1.6e-3: the 3D integral over the face s = 1 times
            # the radial factor 4 T^(4-2Hd) / (4-2Hd), by homogeneity
            assert abs(at.value - 25.78209) <= at.error_estimate + 1.6e-3


def a_z_2d(z, cfg, rel_tol=1e-8, abs_tol=1e-13, max_evals=2_000_000):
    """Independent route for A(z): the double time integral itself, with
    v = t*b, phi(t, t*b) = t^4H psi(b), the smootherstep map on b and a
    quartic map t = T tau^4 that resolves the t ~ z^(-1/4H) scale."""
    h2, h4 = 2.0 * cfg.hurst, 4.0 * cfg.hurst
    T = cfg.horizon

    def f(x):
        tau, be = x[:, 0], x[:, 1]
        b, db = _cluster_both(be)
        t = T * tau**4
        jac = 4.0 * T * tau**3 * t * db
        return np.exp(-(t**h4) * phi_det(1.0, b, cfg.hurst) * z) * jac

    return integrate(f, [0.0, 0.0], [1.0, 1.0], abs_tol=abs_tol, rel_tol=rel_tol,
                     max_evals=max_evals, init_splits=[np.array([0.0, 0.5, 1.0])] * 2)


class TestGammaRatio:
    @pytest.mark.parametrize("a", [0.5 / 0.95, 1.0, 2.0, 10.0])
    def test_recurrence(self, a):
        # gamma(a+1, x) = a gamma(a, x) - x^a e^-x, i.e.
        # a G(a, x) = e^-x + x G(a+1, x): positive terms, across both branches
        x = np.concatenate(([0.0], np.logspace(-6, 4, 201), [a + 1.0, a + 2.0]))
        lhs = a * _gamma_ratio(a, x)
        rhs = np.exp(-x) + x * _gamma_ratio(a + 1.0, x)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-13, atol=0.0)

    def test_limits(self):
        x = np.array([0.0, 1e-300, 1e6, 1e300])
        for a in (0.5 / 0.999, 2.0, 500.0, 5000.0):  # H from 0.999 to 1e-4
            g = _gamma_ratio(a, x)
            assert np.all(np.isfinite(g)) and np.all(g >= 0.0)
            assert g[0] == g[1] == pytest.approx(1.0 / a, rel=1e-15)
            assert np.all(np.diff(g) <= 0.0)


class TestAZ:
    def test_at_zero(self):
        assert a_z(0.0, CFG_H5D2).value == pytest.approx(0.5, rel=1e-8)
        assert a_z(0.0, ModelConfig(0.5, 2, 2.0)).value == pytest.approx(2.0, rel=1e-8)

    def test_decreasing(self):
        cfg = ModelConfig(0.25, 2)
        vals = [a_z(z, cfg).value for z in (0.0, 0.5, 1.0, 10.0, 1e3, 1e6)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_against_mc_integration(self):
        cfg = CFG_H5D2
        rng = np.random.default_rng(1)
        n = 400_000
        t = rng.random(n)
        v = t * rng.random(n)
        phi = t * v - np.minimum(t, v) ** 2
        f = np.exp(-phi) * t  # jacobian of v = t*b
        est, se = f.mean(), f.std() / math.sqrt(n)
        assert abs(a_z(1.0, cfg).value - est) <= 3 * se

    def test_budget_hit_is_reported(self, monkeypatch):
        monkeypatch.setattr(quadmoments, "_A_Z_REL_TOL", 1e-15)
        monkeypatch.setattr(quadmoments, "_A_Z_MAX_EVALS", 200)
        res = a_z(1.0, CFG_H5D2)
        assert res.status == "budget"
        assert res.nevals >= 200

    def test_finite_at_large_z(self):
        # from z ~ 6.6e4 on the integrand gathers within 1e-9 of either
        # end of the angle interval, and psi must stay finite there
        res = a_z(1e5, ModelConfig(0.25, 2))
        assert math.isfinite(res.value) and res.value > 0.0
        assert res.status == "converged"

    @pytest.mark.parametrize("horizon", [1.0, 2.0])
    @pytest.mark.parametrize("h", [0.25, 0.4, 0.5])
    @pytest.mark.parametrize("z", [0.5, 10.0, 1e3, 1e5])
    def test_matches_double_time_integral(self, z, h, horizon):
        cfg = ModelConfig(h, 2, horizon)
        got = a_z(z, cfg)
        want = a_z_2d(z, cfg)
        assert got.status == want.status == "converged"
        assert abs(got.value - want.value) <= got.error_estimate + want.error

    def test_large_z_against_high_precision_value(self):
        # 30-digit mpmath value of the double integral; the 2D route
        # reports convergence here but is 8.4% low
        want = 5.49113458303096e-11
        res = a_z(1e6, ModelConfig(0.25, 2))
        assert res.status == "converged"
        assert res.value == pytest.approx(want, rel=1e-6)
        assert abs(res.value - want) <= res.error_estimate

    @pytest.mark.parametrize("h", [0.05, 0.25, 0.5, 0.95])
    def test_finite_positive_nonincreasing(self, h):
        cfg = ModelConfig(h, 2)
        vals = [a_z(z, cfg) for z in np.concatenate(([0.0], np.logspace(-3, 6, 19)))]
        assert all(r.status == "converged" for r in vals)
        assert all(math.isfinite(r.value) and r.value > 0.0 for r in vals)
        assert all(b.value <= a.value for a, b in zip(vals, vals[1:]))

    def test_negative_z_rejected(self):
        with pytest.raises(ParameterError):
            a_z(-1.0, CFG_H5D2)


class TestReductionBound:
    def test_domain_error_at_transition(self):
        with pytest.raises(ParameterError):
            reduction_bound(ModelConfig(0.5, 4))
        with pytest.raises(ParameterError):
            reduction_bound(ModelConfig(0.75, 3))

    def test_converged_at_criterion_6_points(self):
        for h in (0.25, 0.4):
            assert reduction_bound(ModelConfig(h, 2)).status == "converged"

    @pytest.mark.parametrize("h,d", [(0.5, 3), (0.4, 4), (0.45, 4)])
    def test_converged_where_the_tail_in_z_stalled(self, h, d):
        # the tail over z in [1, inf) stopped at quad's limit here; over
        # u = log z it converges
        res = reduction_bound(ModelConfig(h, d))
        assert res.status == "converged"
        assert res.error_estimate <= 1e-7 * res.value

    def test_outer_quadrature_failure_is_reported(self):
        # the tail integrand decays like z^(-1.17) here: quad reports
        # roundoff and no convergence, which must not read "converged"
        res = reduction_bound(ModelConfig(0.6, 3))
        assert math.isfinite(res.value)
        assert res.status == "budget"

    def test_tail_envelope(self):
        # z^(d/2-1) A(z)^2 decays at least as fast as the envelope
        # z^(d/2 - 1 - 1/H + 2*etilde) with etilde = (2 - Hd) / (8H);
        # the measured slope sits between that and the log-corrected
        # ideal rate d/2 - 1 - 1/H
        cfg = ModelConfig(0.25, 2)
        zs = np.logspace(2, 4, 9)
        g = [z ** (cfg.dim / 2 - 1) * a_z(z, cfg).value ** 2 for z in zs]
        slope = np.polyfit(np.log(zs), np.log(g), 1)[0]
        etilde = (2 - cfg.hd) / (8 * cfg.hurst)
        envelope = cfg.dim / 2 - 1 - 1 / cfg.hurst + 2 * etilde
        assert slope <= envelope
        assert slope >= cfg.dim / 2 - 1 - 1 / cfg.hurst - 0.05


class TestRadialRate:
    def test_values(self):
        assert radial_rate(CFG_H5D2) == pytest.approx(1.0)
        assert radial_rate(ModelConfig(0.5, 4)) == pytest.approx(-1.0)
        assert radial_rate(ModelConfig(0.75, 3)) == pytest.approx(-1.5)

    def test_integrability_boundary(self):
        # the radial integral of r^(3-2Hd) near 0 converges iff the
        # exponent exceeds -1, i.e. iff Hd < 2
        for h, d in [(0.25, 2), (0.6, 3), (0.5, 4), (0.9, 4)]:
            cfg = ModelConfig(h, d)
            assert (radial_rate(cfg) > -1.0) == (cfg.hd < 2.0)


class TestDivergenceConsistency:
    @pytest.mark.parametrize("h,d", [(0.25, 2), (0.5, 2), (0.6, 3), (0.5, 4), (0.75, 3)])
    def test_flags_match_radial_rate(self, h, d):
        cfg = ModelConfig(h, d)
        should_diverge = cfg.hd >= 2.0
        assert m1(0.0, cfg, rel_tol=1e-6).diverged == should_diverge


# Hd = 2 - 1e-10 and 2 - 2e-10: inside the Critical band |Hd - 2| < 1e-9,
# where classify reads Critical, so every eps = 0 integral reports divergence
_IN_BAND = [(1.0 - 5e-11, 2), (0.6666666666, 3)]


class TestCriticalBand:
    @pytest.mark.parametrize("h,d", _IN_BAND)
    def test_eps0_integrals_diverge(self, h, d):
        cfg = ModelConfig(h, d)
        assert cfg.regime == "Critical"
        for res in (m1(0.0, cfg), a_t_integral(cfg), var_limit(cfg)):
            assert res.diverged
            assert math.isinf(res.error_estimate)

    def test_evidence_names_the_band(self):
        # Hd = 2 - 1e-10 is not "Hd = 2 >= 2"; the shells still end the text
        res = m1(0.0, ModelConfig(1.0 - 5e-11, 2))
        text = res.divergence_evidence
        assert "|Hd - 2| < 1e-09 (Critical band)" in text
        assert ">= 2" not in text
        tail = text.rsplit(":", 1)[1]
        assert [float(v) for v in tail.split(",")] == [float(f"{s.value:.4g}") for s in res.shells]

    def test_evidence_above_the_band_unchanged(self):
        assert "since Hd = 2.25 >= 2;" in m1(0.0, ModelConfig(0.75, 3)).divergence_evidence

    @pytest.mark.parametrize("h,d", _IN_BAND)
    def test_reduction_bound_refuses(self, h, d):
        with pytest.raises(ParameterError, match="requires Hd < 2"):
            reduction_bound(ModelConfig(h, d))

    def test_m1_finite_just_outside(self):
        # Hd = 2 - 2e-9: Convergent, so m1(0) = c / (2 - Hd) is finite
        cfg = ModelConfig(1.0 - 1e-9, 2)
        assert cfg.regime == "Convergent"
        res = m1(0.0, cfg)
        assert not res.diverged
        assert res.status == "converged" and math.isfinite(res.value)


# ---------------------------------------------------------------------------
# the region geometry every 4D integrand, and every shared-mesh column, reads

# radii stop at 1e-3: below it the fourth powers of the times leave the
# normal range; the angles cover the whole open interval, endpoints included
_radius = st.floats(1e-3, 1.0)
_angle = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
_geometry = dict(
    x=st.tuples(_radius, _radius, _angle, _angle).map(list),
    h=st.floats(0.1, 0.95),
    horizon=st.floats(0.1, 3.0),
    region=st.sampled_from("AB"),
)
# and angles within 1e-8 of 1, where the smootherstep value rounds to 1
_near_one = st.floats(0.0, 1e-8).map(lambda e: 1.0 - e)
_geometry_near_one = dict(_geometry, x=st.tuples(
    _radius, _radius, st.one_of(_angle, _near_one), st.one_of(_angle, _near_one)).map(list))


def _angles(x):
    """The angle ratios (a, b) of a mapped unit-cube point."""
    return _cluster_both(x[2])[0], _cluster_both(x[3])[0]


def _times(x, region, horizon):
    """(s, t, u, v) of a mapped unit-cube point, rebuilt from the region maps."""
    a, b = _angles(x)
    r = horizon * x[1] ** 2
    p = r * x[0] ** 2
    if region == "A":  # s = t w^2, u = s a, v = t b
        return p, r, p * a, r * b
    return p * a, r, p, r * b  # u = t w^2, s = u a, v = t b


def _det_decimal(x, region, h):
    """det of a mapped unit-cube point from lambda rho - mu^2 in decimal
    arithmetic at the context's precision, with the angle ratios the
    float map gives and the times rebuilt exactly from them (T = 1)."""
    D = decimal.Decimal
    a, b = (D(float(y)) for y in _angles(x))
    w, ze = D(float(x[0])), D(float(x[1]))
    t = ze * ze
    p = t * w * w
    s, u = (p, p * a) if region == "A" else (p * a, p)
    v = t * b
    h2 = D(2.0 * h)

    def pw(y):
        return y**h2 if y else D(0)

    def cov(y, z):
        return (pw(y) + pw(z) - pw(abs(y - z))) / 2

    mu = cov(t, v) + cov(s, u)
    return (pw(t) + pw(s)) * (pw(v) + pw(u)) - mu * mu


def _rounding_slack(x, y, h):
    """A bound on the change of |x - y|^2H when x or y moves by one rounding."""
    h2 = 2.0 * h
    d = abs(x - y)
    e = 2.3e-16 * max(x, y)
    if h2 >= 1.0:
        return h2 * e * (d + e) ** (h2 - 1.0)
    return min(e**h2, h2 * e * d ** (h2 - 1.0)) if d else e**h2


class TestRegionPieces:
    @pytest.mark.parametrize("horizon", [1.0, 2.0])
    @pytest.mark.parametrize("region", ["A", "B"])
    def test_jacobian_integrates_to_the_region_volume(self, region, horizon):
        # {t largest, u < s} and {t largest, s < u}: T^4 / 8 each
        def f(x):
            return _region_pieces(x, region, 0.5, horizon)[3]

        res = integrate(f, [0.0] * 4, [1.0] * 4, abs_tol=0.0, rel_tol=1e-6)
        assert res.status == "converged"
        assert res.value == pytest.approx(horizon**4 / 8.0, rel=1e-8)
        assert abs(res.value - horizon**4 / 8.0) <= res.error

    @settings(max_examples=200, deadline=None)
    @given(x=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
           horizon=st.floats(0.1, 3.0), region=st.sampled_from("AB"))
    def test_t_is_the_largest_time(self, x, horizon, region):
        s, t, u, v = _times(x, region, horizon)
        assert max(s, u, v) <= t

    def test_angle_map_stays_in_unit_interval(self):
        alpha = np.concatenate([np.linspace(0.0, 1e-5, 1001), np.linspace(1.0 - 1e-5, 1.0, 1001)])
        val, dval = _cluster_both(alpha)
        assert np.all((val >= 0.0) & (val <= 1.0))
        assert np.all(dval >= 0.0)

    @settings(max_examples=200, deadline=None)
    @given(**_geometry)
    @example(x=[0.5, 0.5, 1.0 - 1e-6, 1.0 - 2.0**-53], h=0.3, horizon=1.0, region="A")
    def test_matches_covariance_kernel(self, x, h, horizon, region):
        lam, rho, det, _ = _region_pieces(np.array([x]), region, h, horizon)
        s, t, u, v = _times(x, region, horizon)
        assert lam[0] == pytest.approx(lambda_var(s, t, h), rel=1e-12)
        assert rho[0] == pytest.approx(lambda_var(u, v, h), rel=1e-12)
        # both are cancellation-free, but round differently where det << lam rho;
        # near a zero angle x both round 1 - x, an absolute error of about
        # eps * x (lam + rho)^2 in each; and the rebuilt times carry one
        # rounding each, which moves det by at most (lam + rho) times the
        # change of |t - v|^2H and |s - u|^2H
        want = det_var_z(s, t, u, v, h)
        scale = lam[0] + rho[0]
        ang = max(min(a, 1.0 - a) for a in _angles(x))
        tol = (1e-8 * want + 1e-12 * lam[0] * rho[0] + 1e-14 * ang * scale**2
               + 2.0 * scale * (_rounding_slack(t, v, h) + _rounding_slack(s, u, h)))
        assert abs(det[0] - want) <= tol

    @pytest.mark.parametrize("h", [0.15, 0.3, 0.5, 0.75, 0.9])
    @pytest.mark.parametrize("region", ["A", "B"])
    def test_det_keeps_its_digits_near_the_diagonal_face(self, region, h):
        # 1e-3 to 4e-3 from alpha = beta = 1, 1 - a and 1 - b are about
        # 1e-8 and det is of order (1 - b)^2H: a cross term formed as a
        # difference of order-1 terms would leave rounding of order 1e-16
        rng = np.random.default_rng(5)
        x = np.column_stack([rng.uniform(0.25, 1.0, (40, 2)),
                             1.0 - rng.uniform(1e-3, 4e-3, (40, 2))])
        _, _, det, _ = _region_pieces(x, region, h, 1.0)
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            for row, got in zip(x, det):
                want = float(_det_decimal(row, region, h))
                assert abs(got - want) <= 1e-8 * want

    @settings(max_examples=300, deadline=None)
    @given(**_geometry_near_one)
    @example(x=[0.5, 0.5, 1.0 - 1e-9, 1.0 - 1e-9], h=0.9, horizon=1.0, region="B")
    def test_det_at_most_lam_rho(self, x, h, horizon, region):
        # det = lam rho - mu^2 <= lam rho: the variance limit's max(P - X, 0)
        # relies on it.  Slack: 4 ulps of lam rho, since where mu ~ 0 (angles
        # near 0) the two sides agree and round apart by about one ulp
        lam, rho, det, _ = _region_pieces(np.array([x]), region, h, horizon)
        assert det[0] <= lam[0] * rho[0] * (1.0 + 4.0 * 2.0**-52)

    @settings(max_examples=200, deadline=None)
    @given(c=st.floats(0.1, 10.0), **_geometry)
    def test_det_homogeneous_of_degree_4h(self, c, x, h, horizon, region):
        # scaling the horizon scales (s, t, u, v) and leaves the angles alone
        pt = np.array([x])
        lam, rho, det, _ = _region_pieces(pt, region, h, horizon)
        lam_c, rho_c, det_c, _ = _region_pieces(pt, region, h, c * horizon)
        assert lam_c[0] == pytest.approx(c ** (2 * h) * lam[0], rel=1e-12)
        tol = 1e-9 * det_c[0] + 1e-13 * lam_c[0] * rho_c[0]
        assert abs(det_c[0] - c ** (4 * h) * det[0]) <= tol


# ---------------------------------------------------------------------------
# the second-moment integrand, column by column


def _near_faces(faces, rng, n=200):
    """``n`` points of the slice (w, alpha, beta), the first half each
    within 1e-4 to 0.1 of a face of ``faces`` on both of its axes, so every
    shell excludes some."""
    y = rng.uniform(0.0, 1.0, (n, 3))
    for k in range(n // 2):
        i, ei, j, ej = faces[k % len(faces)]
        y[k, i] = abs(ei - 10.0 ** rng.uniform(-4.0, -1.0))
        y[k, j] = abs(ej - 10.0 ** rng.uniform(-4.0, -1.0))
    return np.asfortranarray(y)  # as cubature passes it: contiguous columns


class TestMomentIntegrand:
    @pytest.mark.parametrize("region", ["A", "B"])
    def test_columns_match_their_direct_formulas(self, region):
        cfg = ModelConfig(0.4, 3)
        y = _near_faces(_SINGULAR_FACES[region], np.random.default_rng(11))
        x = np.asfortranarray(np.insert(y, 1, np.random.default_rng(12).uniform(0.0, 1.0, len(y)),
                                        axis=1))
        m2_eps, gaps = [0.5, 0.25, 0.0], [(0.5, 0.25), (0.25, 0.25)]
        got = _moment_integrand(cfg, region, m2_eps, gaps, True)(x)
        assert got.shape == (3 + 2 + 1, len(x))

        lam, rho, det, jac = _region_pieces(x, region, cfg.hurst, cfg.horizon)

        def p(a, b):
            return (det + a * rho + b * lam + a * b) ** (-0.5 * cfg.dim) * jac

        rows = iter(got)
        for e in m2_eps:
            assert next(rows) == pytest.approx(p(e, e), rel=1e-12, abs=0.0)
        for a, b in gaps:
            terms = (p(a, a), p(b, b), -p(a, b), -p(b, a))
            assert np.all(np.abs(next(rows) - sum(terms)) <= 1e-12 * sum(map(np.abs, terms)))
        var = np.maximum(p(0.0, 0.0) - (lam * rho) ** (-0.5 * cfg.dim) * jac, 0.0)
        assert np.all(np.abs(next(rows) - var) <= 1e-12 * p(0.0, 0.0))

    @pytest.mark.parametrize("var", [False, True])
    @pytest.mark.parametrize("region", ["A", "B"])
    def test_slice_columns_match_their_direct_formulas(self, region, var):
        # at zeta = 1, outside each box, times int_w^1 zeta^(7 - 4Hd) dzeta
        cfg = ModelConfig(0.4, 3)
        faces = _SINGULAR_FACES[region]
        y = _near_faces(faces, np.random.default_rng(13))
        widths = np.concatenate(([0.0], quadmoments._SHELL_WIDTHS))
        got = _limit_integrand(cfg, region, widths, var)(y)
        assert got.shape == (len(widths), len(y))
        lam, rho, det, jac = _region_pieces(np.insert(y, 1, 1.0, axis=1), region, cfg.hurst,
                                            cfg.horizon)
        at = det ** (-0.5 * cfg.dim) * jac
        col = np.maximum(at - (lam * rho) ** (-0.5 * cfg.dim) * jac, 0.0) if var else at
        dist = np.min([np.maximum(np.abs(y[:, i] - ei), np.abs(y[:, j] - ej))
                       for i, ei, j, ej in faces], axis=0)
        g = 8.0 - 4.0 * cfg.hd
        for row, w in zip(got, widths):
            radial = (1.0 - w**g) / g
            want = np.where(dist >= w, col * radial, 0.0)
            assert np.all(np.abs(row - want) <= 1e-12 * at * radial)  # var cancels pointwise
        assert np.any(dist < widths[1]) and np.any(dist < widths[-1])

    @pytest.mark.parametrize("g", [4.0, 1e-3, 0.0, -1e-3, -2.0])
    def test_radial_factor_is_the_radial_integral(self, g):
        for w in (0.0, 0.25, 4.0**-5):
            if g <= 0.0 and w == 0.0:
                continue  # infinite
            want = -math.log(w) if g == 0.0 else (1.0 - w**g) / g
            assert _radial_factor(g, w) == pytest.approx(want, rel=1e-12)

    def test_radial_factor_is_scipys_exprel_form(self):
        # (-L) exprel(g L), L = log(width), to 1e-14, inf where it is inf
        # (g < 0 at widths down to the smallest subnormal), and no warning
        from scipy.special import exprel

        tiny = [0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e-12, -1e-12, 1e-9, -1e-9]
        gs = np.concatenate((np.linspace(-20.0, 8.0, 281), tiny))
        widths = [4.0**-k for k in range(1, 8)] + [1e-300, 5e-324]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for g, w in itertools.product(gs, widths):
                L = math.log(w)
                with np.errstate(over="ignore"):
                    want = float(-L * exprel(g * L))
                got = _radial_factor(float(g), w)
                if math.isinf(want):
                    assert got == want, (g, w)
                else:
                    assert got == pytest.approx(want, rel=1e-14, abs=0.0), (g, w)
            for g in map(float, gs[gs > 0.0]):
                assert _radial_factor(g, 0.0) == 1.0 / g
        assert any(math.isinf(_radial_factor(g, 1e-300)) for g in gs)


def _ladder_pass():
    m2s, gaps = m2_ladder([2.0**-k for k in range(7)], ModelConfig(0.5, 3))
    return m2s + gaps[1:]


# BLAS runs inside the integrand and the rule: the passes must not depend on
# how the cubature slices cells into calls, nor on BLAS's thread count
_SLICING_PASSES = {  # the pass's results, its columns and the points of one cell
    "m2_ladder": (_ladder_pass, 13, 57),
    "shells": (lambda: var_limit(ModelConfig(0.75, 3)).shells, 5, 33),
    "a_t": (lambda: [a_t_integral(ModelConfig(0.25, 2))], 1, 33),
}


def _pass_bits(name):
    run = _SLICING_PASSES[name][0]
    return [[r.value.hex(), r.error_estimate.hex(), r.nevals, r.subdivisions] for r in run()]


@pytest.mark.parametrize("name", sorted(_SLICING_PASSES))
def test_pass_bits_do_not_depend_on_slicing_or_blas_threads(name, monkeypatch):
    want = _pass_bits(name)
    _, ncols, npts = _SLICING_PASSES[name]
    with monkeypatch.context() as patch:
        patch.setattr(cubature, "_BLOCK_BYTES", ncols * npts * 8 * 10)  # ten cells a call
        assert _pass_bits(name) == want
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([os.path.join(here, os.pardir, "src"), here]))
    code = f"import json, test_quadmoments as t; print(json.dumps(t._pass_bits({name!r})))"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=300).stdout
    assert json.loads(out) == want

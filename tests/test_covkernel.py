import decimal
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gamma as sp_gamma, gammainc

from fbmilt.covkernel import (
    ModelConfig,
    angular_ratios,
    cov_rh,
    cross_det,
    det_var_z,
    gamma_bound_excess,
    gamma_bound_k,
    lambda_var,
    lower_inc_gamma,
    mu_cov,
    phi_det,
)
from fbmilt.errors import ParameterError
from fbmilt.fbmgen import TimeGrid, sample_pair, sample_paths
from fbmilt.iltmc import discrete_mean, grid_for_eps, heat_kernel, ilt_epsilon, mc_moments
from fbmilt.phasescan import EpsSchedule
from fbmilt.quadmoments import a_z, cauchy_gap, m1, m1_ladder, m2, m2_ladder


class TestModelConfig:
    def test_valid(self):
        cfg = ModelConfig(hurst=0.5, dim=2, horizon=1.0)
        assert cfg.hd == 1.0

    @pytest.mark.parametrize("h", [0.0, 1.0, -0.1, 1.5])
    def test_bad_hurst(self, h):
        with pytest.raises(ParameterError):
            ModelConfig(hurst=h, dim=2)

    def test_bad_dim(self):
        # int() of NaN and inf raises ValueError and OverflowError
        for d in (1, 2.5, math.nan, math.inf):
            with pytest.raises(ParameterError):
                ModelConfig(hurst=0.5, dim=d)

    def test_bad_horizon(self):
        with pytest.raises(ParameterError):
            ModelConfig(hurst=0.5, dim=2, horizon=0.0)

    @pytest.mark.parametrize("h,d,regime", [
        (0.5, 4, "Critical"), (1.0 - 5e-11, 2, "Critical"), (0.6666666666, 3, "Critical"),
        (1.0 - 1e-9, 2, "Convergent"), (0.6, 3, "Convergent"), (0.25, 2, "Convergent"),
        (0.51, 4, "Divergent"), (0.75, 3, "Divergent")])
    def test_regime(self, h, d, regime):
        # Critical iff |Hd - 2| < 1e-9; (1 - 1e-9, 2) has Hd = 2 - 2e-9
        assert ModelConfig(h, d).regime == regime


# each integer input, as a call that passes it the value; the name its
# error gives is the input's name up to any "-" (which tells apart the
# inputs of one name)
_INTEGER_INPUTS = {
    "dim": lambda v: ModelConfig(0.5, v),
    "n_steps": lambda v: TimeGrid(1.0, v),
    "replications": lambda v: mc_moments(ModelConfig(0.5, 2), 1.0, TimeGrid(1.0, 4), v, 0),
    "seed": lambda v: mc_moments(ModelConfig(0.5, 2), 1.0, TimeGrid(1.0, 4), 3, v),
    "count": lambda v: EpsSchedule(1.0, 0.5, v),
    "workers": lambda v: mc_moments(ModelConfig(0.5, 2), 1.0, TimeGrid(1.0, 4), 3, 0, workers=v),
    "count-sample_paths": lambda v: sample_paths(TimeGrid(1.0, 4), ModelConfig(0.5, 2), 0, v),
    "seed-sample_pair": lambda v: sample_pair(TimeGrid(1.0, 4), ModelConfig(0.5, 2), v),
}


@pytest.mark.parametrize("name", list(_INTEGER_INPUTS))
@pytest.mark.parametrize("value, ok", [
    (3, True), (np.int64(3), True), (np.int32(3), True),
    (3.0, False), (2.5, False), (math.nan, False), (math.inf, False), (True, False)])
def test_integer_inputs_must_be_integers(name, value, ok):
    # a whole float passes a range check, then fails with TypeError where an
    # integer is needed (linspace, np.full, range): it is rejected up front;
    # so is a bool, which Python counts as the integer 1
    if ok:
        _INTEGER_INPUTS[name](value)
    else:
        with pytest.raises(ParameterError, match=name.split("-")[0]):
            _INTEGER_INPUTS[name](value)


_CFG = ModelConfig(0.5, 2)
_GRID = TimeGrid(1.0, 4)
_BELOW_0 = -5e-324  # the float just below a closed lower end of 0

# each real input, as name -> (the input's name in its error, a call that
# passes it the value, out-of-range values beside NaN and +-inf, an accepted value)
_REAL_INPUTS = {
    "ModelConfig-hurst": ("hurst", lambda v: ModelConfig(v, 2), (0.0, 1.0), 0.5),
    "ModelConfig-horizon": ("horizon", lambda v: ModelConfig(0.5, 2, v), (0.0,), 2.0),
    "TimeGrid-horizon": ("horizon", lambda v: TimeGrid(v, 8), (0.0,), 2.0),
    "cov_rh-hurst": ("hurst", lambda v: cov_rh(1.0, 2.0, v), (0.0, 1.0), 0.75),
    "cov_rh-s": ("s", lambda v: cov_rh(v, 1.0, 0.5), (_BELOW_0,), 0.0),
    "cov_rh-t": ("t", lambda v: cov_rh(1.0, v, 0.5), (_BELOW_0,), 0.0),
    "lambda_var-s": ("s", lambda v: lambda_var(v, 1.0, 0.5), (_BELOW_0,), 0.0),
    "lambda_var-t": ("t", lambda v: lambda_var(1.0, v, 0.5), (_BELOW_0,), 0.0),
    "phi_det-t": ("t", lambda v: phi_det(v, 1.0, 0.5), (_BELOW_0,), 0.0),
    "phi_det-v": ("v", lambda v: phi_det(1.0, v, 0.5), (_BELOW_0,), 0.0),
    "det_var_z-hurst": ("hurst", lambda v: det_var_z(1.0, 1.0, 0.5, 0.5, v), (0.0, 1.0), 0.5),
    "det_var_z-s": ("s", lambda v: det_var_z(v, 1.0, 0.5, 0.5, 0.5), (_BELOW_0,), 0.0),
    "det_var_z-t": ("t", lambda v: det_var_z(1.0, v, 0.5, 0.5, 0.5), (_BELOW_0,), 0.0),
    "det_var_z-u": ("u", lambda v: det_var_z(1.0, 1.0, v, 0.5, 0.5), (_BELOW_0,), 0.0),
    "det_var_z-v": ("v", lambda v: det_var_z(1.0, 1.0, 0.5, v, 0.5), (_BELOW_0,), 0.0),
    "m1-eps": ("eps", lambda v: m1(v, _CFG), (_BELOW_0,), 0.0),
    "m1_ladder-eps": ("eps", lambda v: m1_ladder([0.5, v], _CFG), (0.0,), 0.25),
    "m2-eps": ("eps", lambda v: m2(v, _CFG), (0.0,), 1.0),
    "cauchy_gap-eps": ("eps", lambda v: cauchy_gap(v, 0.5, _CFG), (0.0,), 1.0),
    "cauchy_gap-eta": ("eta", lambda v: cauchy_gap(1.0, v, _CFG), (0.0,), 0.5),
    "m2_ladder-eps": ("eps", lambda v: m2_ladder([v], _CFG), (0.0,), 1.0),
    "a_z-z": ("z", lambda v: a_z(v, _CFG), (_BELOW_0,), 0.0),
    "heat_kernel-eps": ("eps", lambda v: heat_kernel(np.zeros(2), v, 2), (0.0,), 1.0),
    "ilt_epsilon-eps": ("eps", lambda v: ilt_epsilon(sample_pair(_GRID, _CFG, 0), _GRID, v),
                        (0.0,), 1.0),
    "discrete_mean-eps": ("eps", lambda v: discrete_mean(_CFG, v, _GRID), (0.0,), 1.0),
    "grid_for_eps-eps": ("eps", lambda v: grid_for_eps(v, _CFG), (0.0,), 1.0),
    "mc_moments-eps": ("eps", lambda v: mc_moments(_CFG, v, _GRID, 3, 0), (0.0,), 1.0),
    "EpsSchedule-eps0": ("eps0", lambda v: EpsSchedule(v, 0.5, 5), (0.0,), 2.0),
    "EpsSchedule-factor": ("factor", lambda v: EpsSchedule(1.0, v, 5), (0.0, 1.0), 0.25),
    "lower_inc_gamma-alpha": ("alpha", lambda v: lower_inc_gamma(v, 1.0), (0.0,), 2.5),
    "gamma_bound_k-alpha": ("alpha", lambda v: gamma_bound_k(v), (0.0,), 2.5),
}


@pytest.mark.parametrize("key", list(_REAL_INPUTS))
def test_real_inputs_must_lie_in_range(key):
    # each input has one range check, so NaN and +-inf fail with the rest
    name, call, edges, ok = _REAL_INPUTS[key]
    for value in (math.nan, math.inf, -math.inf, *edges):
        with pytest.raises(ParameterError, match=rf"^{name} must lie in "):
            call(value)
    call(ok)


def test_lower_inc_gamma_takes_x_up_to_inf():
    # x = inf is the complete gamma function; NaN, -inf and x < 0 fail
    for value in (math.nan, -math.inf, _BELOW_0):
        with pytest.raises(ParameterError, match="^x must lie in "):
            lower_inc_gamma(2.5, value)
    assert lower_inc_gamma(2.5, 0.0) == 0.0
    assert lower_inc_gamma(2.5, math.inf) == math.gamma(2.5)


class TestCovRh:
    def test_diagonal(self):
        for t, h in [(0.3, 0.25), (1.7, 0.6), (2.0, 0.9)]:
            assert cov_rh(t, t, h) == pytest.approx(t ** (2 * h), rel=1e-14)

    def test_brownian_is_min(self):
        assert cov_rh(2.0, 3.0, 0.5) == pytest.approx(2.0, rel=1e-14)

    def test_hand_value(self):
        assert cov_rh(1.0, 2.0, 0.75) == pytest.approx(math.sqrt(2.0), rel=1e-12)

    @pytest.mark.parametrize("s,t,h", [(1e-100, 1.0, 0.75), (1e-100, 1.0, 0.25),
                                       (1.2e-200, 0.55, 0.66)])
    def test_keeps_its_digits_when_one_time_is_small(self, s, t, h):
        # R_H(s, t) = (s^2H + 2H s t^(2H-1)) / 2 to a relative O(s/t); as a
        # difference of powers it came out 0.0 here
        want = 0.5 * (s ** (2 * h) + 2 * h * s * t ** (2 * h - 1))
        assert cov_rh(s, t, h) == pytest.approx(want, rel=1e-14, abs=0.0)
        assert cov_rh(t, s, h) == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        s, t = rng.uniform(0, 2, (2, 1000))
        for h in (0.25, 0.5, 0.75):
            np.testing.assert_allclose(cov_rh(s, t, h), cov_rh(t, s, h), rtol=1e-13)

    def test_bad_args(self):
        with pytest.raises(ParameterError):
            cov_rh(1.0, 2.0, 1.5)
        with pytest.raises(ParameterError):
            cov_rh(-1.0, 2.0, 0.5)


class TestLambdaVar:
    def test_origin(self):
        assert lambda_var(0.0, 0.0, 0.7) == 0.0

    def test_unit_times(self):
        assert lambda_var(1.0, 1.0, 0.3) == pytest.approx(2.0, rel=1e-14)

    def test_hand_value(self):
        assert lambda_var(1.0, 2.0, 0.5) == pytest.approx(3.0, rel=1e-14)


class TestMuCov:
    def test_perfect_correlation(self):
        for (s, t), h in [((0.3, 0.8), 0.25), ((1.0, 2.0), 0.75)]:
            assert mu_cov(s, t, s, t, h) == pytest.approx(lambda_var(s, t, h), rel=1e-13)

    def test_origin_pair(self):
        assert mu_cov(0.5, 1.5, 0.0, 0.0, 0.6) == 0.0

    def test_hand_value(self):
        assert mu_cov(1.0, 1.0, 2.0, 2.0, 0.5) == pytest.approx(2.0, rel=1e-14)

    def test_pair_swap_symmetry(self):
        rng = np.random.default_rng(2)
        s, t, u, v = rng.uniform(0, 1, (4, 1000))
        for h in (0.25, 0.5, 0.75):
            np.testing.assert_allclose(
                mu_cov(s, t, u, v, h), mu_cov(u, v, s, t, h), rtol=1e-13
            )


class TestDetVarZ:
    def test_degenerate_diagonal(self):
        assert det_var_z(0.3, 0.8, 0.3, 0.8, 0.6) == pytest.approx(0.0, abs=1e-14)

    def test_hand_value(self):
        assert det_var_z(1.0, 1.0, 2.0, 2.0, 0.5) == pytest.approx(4.0, rel=1e-13)

    def test_scaling(self):
        rng = np.random.default_rng(3)
        s, t, u, v = rng.uniform(0.01, 1, (4, 200))
        for h in (0.25, 0.5, 0.75):
            for c in (0.5, 2.0, 7.3):
                np.testing.assert_allclose(
                    det_var_z(c * s, c * t, c * u, c * v, h),
                    c ** (4 * h) * det_var_z(s, t, u, v, h),
                    rtol=1e-10, atol=1e-13,
                )

    def test_nonnegative(self):
        rng = np.random.default_rng(4)
        s, t, u, v = rng.uniform(0, 1, (4, 100_000))
        for h in (0.25, 0.5, 0.75):
            assert det_var_z(s, t, u, v, h).min() >= 0.0

    def test_matches_raw_formula_away_from_diagonal(self):
        rng = np.random.default_rng(5)
        s, t, u, v = rng.uniform(0, 1, (4, 5000))
        for h in (0.25, 0.5, 0.75):
            raw = lambda_var(s, t, h) * lambda_var(u, v, h) - mu_cov(s, t, u, v, h) ** 2
            stable = det_var_z(s, t, u, v, h)
            scale = np.maximum(1.0, np.abs(raw))
            assert np.max(np.abs(stable - raw) / scale) < 1e-10

    @pytest.mark.parametrize("h,s,t,u,v", [
        (0.9, 0.5, 1.0, 0.5 * (1 - 2e-8), 1 - 3e-8),
        (0.75, 0.5, 1.0, 0.5 * (1 - 2e-8), 1 - 3e-8),
        (0.9, 0.2, 0.7, 0.2 * (1 - 1e-6), 0.7 * (1 + 4e-7)),
        (0.95, 0.8, 0.4, 0.8 * (1 - 3e-9), 0.4 * (1 - 1e-9)),
    ])
    def test_keeps_its_digits_near_the_diagonal(self, h, s, t, u, v):
        # near (s,t) = (u,v) det is tiny and the cross term, formed as a
        # difference of order-1 terms, would be all rounding (3.4e-3 off at
        # the first point, 24% at the last); reference: lambda rho - mu^2
        # in 40-digit decimal arithmetic at the same float times
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            D = decimal.Decimal
            ds, dt, du, dv = (D(x) for x in (s, t, u, v))
            h2 = D(2.0 * h)

            def cov(y, z):
                return (y**h2 + z**h2 - abs(y - z) ** h2) / 2

            mu = cov(dt, dv) + cov(ds, du)
            want = float((ds**h2 + dt**h2) * (du**h2 + dv**h2) - mu * mu)
        assert det_var_z(s, t, u, v, h) == pytest.approx(want, rel=1e-8, abs=0.0)

    def test_superadditivity(self):
        rng = np.random.default_rng(6)
        t = rng.uniform(0, 1, 100_000)
        v = t * rng.uniform(0, 1, t.size)
        s = rng.uniform(0, 1, t.size)
        u = s * rng.uniform(0, 1, t.size)
        for h in (0.25, 0.5, 0.75):
            lhs = det_var_z(s, t, u, v, h)
            rhs = phi_det(t, v, h) + phi_det(s, u, h)
            scale = np.maximum(1.0, lhs + rhs)
            assert np.max((rhs - lhs) / scale) <= 1e-12


_time = st.floats(0.0, 3.0)


class TestSwapSymmetries:
    # the role swap (s,t,u,v) -> (t,s,v,u) and the pair swap -> (u,v,s,t)
    # carry t to every coordinate, so the second-moment integrand over
    # [0,T]^4 is four times its integral over {t largest}
    @settings(max_examples=300, deadline=None)
    @given(s=_time, t=_time, u=_time, v=_time, h=st.floats(0.05, 0.95))
    # tiny t and u: a covariance of -5.6e-17 for a true 3.9e-123 once put
    # 1.6 in place of 0.58 into the role-swapped det
    @example(s=1.0, t=6.565372061971341e-123, u=1.6979482837829399e-74,
             v=0.6630338896083152, h=0.6630338896083152)
    def test_det_and_variances_under_the_swaps(self, s, t, u, v, h):
        det = det_var_z(s, t, u, v, h)
        lam, rho = lambda_var(s, t, h), lambda_var(u, v, h)
        tol = 1e-13 * (lam + rho) ** 2
        assert abs(det_var_z(t, s, v, u, h) - det) <= tol
        assert abs(det_var_z(u, v, s, t, h) - det) <= tol
        assert lambda_var(t, s, h) == pytest.approx(lam, rel=1e-15, abs=0.0)
        assert lambda_var(v, u, h) == pytest.approx(rho, rel=1e-15, abs=0.0)
        assert (lambda_var(u, v, h), lambda_var(s, t, h)) == (rho, lam)


class TestPhiDet:
    def test_degenerate(self):
        assert phi_det(0.7, 0.7, 0.3) == 0.0
        assert phi_det(0.7, 0.0, 0.3) == 0.0

    def test_hand_value(self):
        assert phi_det(2.0, 1.0, 0.5) == pytest.approx(1.0, rel=1e-13)

    def test_symmetry_and_nonnegativity(self):
        rng = np.random.default_rng(7)
        t, v = rng.uniform(0, 2, (2, 10_000))
        for h in (0.25, 0.5, 0.75):
            a = phi_det(t, v, h)
            np.testing.assert_allclose(a, phi_det(v, t, h), rtol=1e-13, atol=1e-300)
            assert a.min() >= 0.0

    def test_homogeneity(self):
        rng = np.random.default_rng(8)
        t, v = rng.uniform(0.01, 1, (2, 10_000))
        c = rng.uniform(0.01, 10.0, t.size)
        for h in (0.25, 0.5, 0.75):
            lhs = phi_det(c * t, c * v, h)
            rhs = c ** (4 * h) * phi_det(t, v, h)
            rel = np.abs(lhs - rhs) / np.maximum(np.abs(lhs), 1e-300)
            assert rel.max() <= 1e-10

    def test_near_diagonal_stability(self):
        # the two textbook terms cancel to ~1e-16 relative here; the
        # rearranged form must stay positive and match the small-gap
        # asymptotics phi ~ t^2H * gap^2H
        for h in (0.25, 0.5, 0.75):
            t = 1.0
            for gap in (1e-8, 1e-10, 1e-12):
                val = phi_det(t, t - gap, h)
                approx = t ** (2 * h) * gap ** (2 * h)
                assert val == pytest.approx(approx, rel=1e-3)


class TestPhiAngular:
    # phi_det on the unit circle, phi(cos theta, sin theta), theta in [0, pi/4]
    def test_endpoints(self):
        assert phi_det(1.0, 0.0, 0.5) == 0.0
        theta = math.pi / 4
        assert phi_det(math.cos(theta), math.sin(theta), 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_hand_value(self):
        want = math.sqrt(3) / 4 - 0.25
        theta = math.pi / 6
        assert phi_det(math.cos(theta), math.sin(theta), 0.5) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("h", [0.25, 0.5, 0.75])
    def test_asymptotics_both_ends(self, h):
        lo, hi = angular_ratios(h)
        assert 0.9 <= lo <= 1.1
        assert 0.9 <= hi <= 1.1


class TestLowerIncGamma:
    def test_zero(self):
        assert lower_inc_gamma(2.3, 0.0) == 0.0

    def test_exponential_case(self):
        assert lower_inc_gamma(1.0, 1.0) == pytest.approx(1 - math.exp(-1), rel=1e-13)

    def test_limit(self):
        assert lower_inc_gamma(2.5, math.inf) == pytest.approx(sp_gamma(2.5), rel=1e-13)
        assert lower_inc_gamma(2.5, 1e4) == pytest.approx(sp_gamma(2.5), rel=1e-12)

    def test_against_scipy(self):
        for alpha in (0.25, 0.5, 1.0, 2.0, 4.0, 7.5):
            for x in np.logspace(-6, 6, 49):
                want = gammainc(alpha, x) * sp_gamma(alpha)
                got = lower_inc_gamma(alpha, x)
                assert got == pytest.approx(want, rel=1e-10), (alpha, x)

    def test_monotone_in_x(self):
        # nondecreasing; strictness is lost to rounding once the value
        # saturates at Gamma(alpha)
        xs = np.logspace(-3, 2, 60)
        vals = [lower_inc_gamma(1.7, x) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert all(b > a for a, b in zip(vals[:40], vals[1:41]))

    def test_bad_args(self):
        with pytest.raises(ParameterError):
            lower_inc_gamma(0.0, 1.0)
        with pytest.raises(ParameterError):
            lower_inc_gamma(1.0, -1.0)


class TestGammaBoundK:
    def test_values(self):
        assert gamma_bound_k(1.0) == pytest.approx(1.0)
        assert gamma_bound_k(2.0) == pytest.approx(1.0)
        assert gamma_bound_k(0.5) == pytest.approx(2.0)

    def test_power_bound_grid(self):
        # the true worst excess, not one floored at 0: the bound is never
        # tight on the grid
        worst, checks = gamma_bound_excess()
        assert checks == 5 * 3 * 121
        assert worst < 0.0


class TestCrossDet:
    def test_nonnegative(self):
        rng = np.random.default_rng(9)
        s, t, u, v = rng.uniform(0, 1, (4, 50_000))
        for h in (0.25, 0.5, 0.75):
            assert cross_det(s, t, u, v, h).min() >= 0.0

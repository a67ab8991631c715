import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from fbmilt import phasescan, quadmoments
from fbmilt.covkernel import ModelConfig
from fbmilt.errors import IndeterminateError, ParameterError, QuadratureBudgetError
from fbmilt.phasescan import (
    EpsSchedule,
    PhaseError,
    PhasePoint,
    SweepRow,
    SweepSeries,
    classify,
    fit_rate_offset,
    phase_grid,
    sweep,
)


class TestEpsSchedule:
    def test_ladder(self):
        s = EpsSchedule(eps0=1.0, factor=0.5, count=4)
        np.testing.assert_allclose(s.ladder(), [1.0, 0.5, 0.25, 0.125])

    def test_default_starts_at_variance_scale(self):
        cfg = ModelConfig(0.75, 2, horizon=2.0)
        s = EpsSchedule.default_for(cfg)
        assert s.eps0 == pytest.approx(2.0**1.5)
        assert s.factor == 0.5
        assert s.count == 12

    def test_unset_eps0_starts_each_point_at_its_scale(self):
        # one schedule serves the grid: sweep resolves each point's start
        pts = phase_grid([0.25, 0.75], [2], EpsSchedule(factor=0.25, count=6), horizon=2.0)
        for pt, start in zip(pts, [2.0**0.5, 2.0**1.5], strict=True):
            assert isinstance(pt, PhasePoint)
            np.testing.assert_allclose([r.eps for r in pt.evidence.rows],
                                       start * 0.25 ** np.arange(6), rtol=1e-12)

    def test_validation(self):
        with pytest.raises(ParameterError):
            EpsSchedule(eps0=0.0, factor=0.5, count=5)
        with pytest.raises(ParameterError):
            EpsSchedule(eps0=1.0, factor=1.0, count=5)
        with pytest.raises(ParameterError):
            EpsSchedule(eps0=1.0, factor=0.5, count=2)
        for count in (math.nan, math.inf):  # int() of these raises ValueError, OverflowError
            with pytest.raises(ParameterError):
                EpsSchedule(eps0=1.0, factor=0.5, count=count)


class TestFits:
    @pytest.mark.parametrize("r", [-0.4, -0.1667, 0.11, 0.5])
    def test_offset_fit_recovers_exponent(self, r):
        eps = 2.0 ** -np.arange(2, 13)
        vals = 0.7 * eps**r + 1.3
        assert fit_rate_offset(eps, vals) == pytest.approx(r, abs=1e-4)

    @pytest.mark.parametrize("r", [-4.67, -3.5, 0.1, 2.0])
    def test_offset_fit_outside_the_starting_bracket(self, r):
        # -4.67 and -3.5 lie below the starting bracket (-3, 3), which
        # widens until the minimum is interior
        eps = 2.0 ** -np.arange(6, 12)
        assert fit_rate_offset(eps, 2.0 * eps**r + 1.0) == pytest.approx(r, abs=1e-6)

    def test_offset_fit_of_a_constant_is_finite(self):
        # every r fits equally well: no slope, so rate 0, not the end of a
        # bracket widened to its cap
        eps = 2.0 ** -np.arange(6, 12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for c in (0.3, 0.1, 1.0 / 3.0, 2.5e9, 0.0):
                assert fit_rate_offset(eps, np.full(len(eps), c)) == 0.0

    def test_offset_fit_beats_raw_slope_with_offset(self):
        eps = 2.0 ** -np.arange(2, 13)
        vals = 0.7 * eps**-0.1667 + 1.3
        raw = np.polyfit(np.log(eps), np.log(vals), 1)[0]
        assert abs(raw - -0.1667) > 0.05  # raw slope badly biased
        assert fit_rate_offset(eps, vals) == pytest.approx(-0.1667, abs=1e-3)


class TestSweep:
    def test_row_structure(self):
        cfg = ModelConfig(0.5, 2)
        series = sweep(cfg, EpsSchedule(1.0, 0.5, 4))
        assert len(series.rows) == 4
        eps = [r.eps for r in series.rows]
        assert all(b < a for a, b in zip(eps, eps[1:]))
        assert math.isnan(series.rows[0].cauchy_gap)
        for row in series.rows[1:]:
            assert row.cauchy_gap >= -1e-12
        for row in series.rows:
            assert row.variance >= -1e-9
            assert row.complete

    def test_m1_bounded_below_transition(self):
        series = sweep(ModelConfig(0.5, 2), EpsSchedule(1.0, 0.5, 8))
        m1s = [r.m1 for r in series.rows]
        assert all(b > a for a, b in zip(m1s, m1s[1:]))
        assert m1s[-1] < math.log(2) / math.pi

    def test_m1_ratio_above_transition(self):
        # successive values approach the pure power-law ratio
        cfg = ModelConfig(0.75, 3)
        series = sweep(cfg, EpsSchedule(2.0**-9, 0.5, 5))
        m1s = [r.m1 for r in series.rows]
        ratios = [b / a for a, b in zip(m1s, m1s[1:])]
        want = 0.5 ** (1 / cfg.hurst - cfg.dim / 2)
        # the constant background term decays slowly, so the ratio only
        # approaches the power-law limit from above
        assert all(b < a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] == pytest.approx(want, rel=0.04)

    def test_shared_pass_matches_per_rung_integrals(self):
        cfg = ModelConfig(0.5, 2)
        rows = sweep(cfg, EpsSchedule(1.0, 0.5, 4)).rows
        prev = None
        for row in rows:
            want1 = quadmoments.m1(row.eps, cfg)
            want2 = quadmoments.m2(row.eps, cfg, rel_tol=3e-4)
            assert abs(row.m1 - want1.value) <= row.m1_err + want1.error_estimate
            assert abs(row.m2 - want2.value) <= row.m2_err + want2.error_estimate
            if prev is not None:
                gap = quadmoments.cauchy_gap(prev, row.eps, cfg)
                assert abs(row.cauchy_gap - gap.value) <= row.gap_err + gap.error_estimate
            prev = row.eps

    def test_with_mc_fills_estimates(self):
        series = sweep(
            ModelConfig(0.5, 2), EpsSchedule(1.0, 0.5, 3),
            mc_params={"reps": 200, "seed": 1, "grid_n": 32},
        )
        for row in series.rows:
            assert math.isfinite(row.mc_mean)
            assert row.mc_se > 0.0
            assert abs(row.mc_mean - row.m1) <= 4 * row.mc_se

    def test_mc_grids_reuse_the_rows_m1(self, monkeypatch):
        # without grid_n each row's grid comes from its m1_ladder rung,
        # with no m1 pass of its own
        calls = []
        real = quadmoments.m1

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(quadmoments, "m1", counted)
        series = sweep(ModelConfig(0.5, 2), EpsSchedule(1.0, 0.5, 4),
                       mc_params={"reps": 20, "seed": 1})
        assert calls == []
        assert all(math.isfinite(row.mc_mean) for row in series.rows)

    def test_zero_grid_rejected(self):
        # a zero grid is an error, not a request for the default grid
        with pytest.raises(ParameterError):
            sweep(ModelConfig(0.5, 2), EpsSchedule(1.0, 0.5, 3),
                  mc_params={"reps": 200, "seed": 1, "grid_n": 0})


def _synthetic_series(eps, m1s, m2s):
    rows = []
    prev_m2 = None
    for k, (e, a, b) in enumerate(zip(eps, m1s, m2s)):
        gap = math.nan if k == 0 else abs(b - prev_m2) * 0.1
        rows.append(SweepRow(eps=e, m1=a, m1_err=0.0, m2=b, m2_err=0.0,
                             variance=b - a * a, cauchy_gap=gap))
        prev_m2 = b
    return SweepSeries(hurst=0.5, dim=2, horizon=1.0, rows=rows)


class TestClassify:
    def test_convergent(self):
        cfg = ModelConfig(0.5, 2)
        pt = classify(sweep(cfg), cfg)
        assert pt.verdict == "Convergent"
        assert pt.fitted_rate >= 0.02

    def test_divergent_with_rate(self):
        cfg = ModelConfig(0.75, 3)
        pt = classify(sweep(cfg), cfg)
        assert pt.verdict == "Divergent"
        want = 1 / cfg.hurst - cfg.dim / 2
        assert pt.fitted_rate == pytest.approx(want, rel=0.10)

    def test_critical_is_exact_input(self):
        cfg = ModelConfig(0.5, 4)
        pt = classify(sweep(cfg), cfg)
        assert pt.verdict == "Critical"

    @pytest.mark.parametrize("h,d", [(1.0 - 5e-11, 2), (0.6666666666, 3)])
    def test_critical_within_the_band(self, h, d):
        # Hd = 2 - 1e-10 and 2 - 2e-10, where m1(0) reports divergence too
        eps = [2.0**-k for k in range(5)]
        series = _synthetic_series(eps, [1.0 - e**0.5 for e in eps], [2.0] * 5)
        pt = classify(series, ModelConfig(h, d))
        assert pt.verdict == "Critical" and pt.fitted_rate is None

    def test_constant_m1_is_indeterminate(self):
        # a series with no slope reads neither Convergent nor Divergent
        eps = [2.0**-k for k in range(5)]
        series = _synthetic_series(eps, [0.7] * 5, [2.0] * 5)
        with pytest.raises(IndeterminateError) as exc:
            classify(series, ModelConfig(0.5, 2))
        assert exc.value.series is series

    def test_just_outside_the_band_follows_the_rate(self):
        # Hd = 2 - 2e-9: not Critical, so the synthetic convergent rate decides
        eps = [2.0**-k for k in range(5)]
        series = _synthetic_series(eps, [1.0 - e**0.5 for e in eps], [2.0] * 5)
        pt = classify(series, ModelConfig(1.0 - 1e-9, 2))
        assert pt.verdict == "Convergent"
        assert pt.fitted_rate == pytest.approx(0.5, abs=1e-3)

    def test_near_critical_is_not_critical(self):
        cfg = ModelConfig(0.6, 3)  # product 1.8
        pt = classify(sweep(cfg), cfg)
        assert pt.verdict == "Convergent"

    @pytest.mark.parametrize("h,d,verdict", [
        (0.95, 2, "Convergent"), (0.3, 6, "Convergent"), (0.51, 4, "Divergent")])
    def test_near_transition_follows_the_rate_sign(self, h, d, verdict):
        # Hd = 1.9, 1.8 and 2.04: the raw m1 slope and m2's growth over the
        # ladder once read Divergent at the first two
        cfg = ModelConfig(h, d)
        pt = classify(sweep(cfg), cfg)
        assert pt.verdict == verdict
        assert abs(pt.fitted_rate) >= 0.02

    def test_too_flat_near_transition_is_indeterminate(self):
        # Hd = 1.98: the fitted rate, 0.007, is inside the cutoff
        cfg = ModelConfig(0.99, 2)
        with pytest.raises(IndeterminateError):
            classify(sweep(cfg), cfg)

    def test_needs_five_complete_rows(self):
        cfg = ModelConfig(0.5, 2)
        series = sweep(cfg, EpsSchedule(1.0, 0.5, 5))
        with pytest.raises(ParameterError, match=">= 5 complete sweep rows, got 4"):
            classify(replace(series, rows=series.rows[:4]), cfg)
        # rows left incomplete by budget hits are a budget failure, not a
        # parameter one
        short = replace(series, rows=[replace(r, complete=False) for r in series.rows])
        with pytest.raises(QuadratureBudgetError, match="5 hit their quadrature budget"):
            classify(short, cfg)

    @pytest.mark.parametrize("h", [0.25, 0.5])
    def test_short_ladder_gets_no_verdict(self, h):
        # A eps^r + B fits any r through the last 2 of 3 or 4 rows, and a
        # raw slope over them once read Divergent at Hd < 2
        cfg = ModelConfig(h, 2)
        series = sweep(cfg, EpsSchedule(1.0, 0.5, 5))
        for count in (3, 4):
            with pytest.raises(ParameterError):
                classify(replace(series, rows=series.rows[:count]), cfg)
        assert classify(series, cfg).verdict == "Convergent"

    def test_indeterminate_on_flat_synthetic_series(self):
        # m1 growing like log(1/eps), the critical law, fits a rate of
        # about 0, which decides nothing
        def log_growth(eps):
            return 1.0 + 0.01 * math.log2(1.0 / eps)

        eps = [2.0**-k for k in range(12)]
        series = _synthetic_series(eps, [log_growth(e) for e in eps], [2.0] * 12)
        with pytest.raises(IndeterminateError) as exc:
            classify(series, ModelConfig(0.5, 2))
        assert exc.value.series is not None


class TestPhaseGrid:
    def test_singleton_matches_classify(self):
        cfg = ModelConfig(0.5, 2)
        pts = phase_grid([0.5], [2])
        assert len(pts) == 1
        assert isinstance(pts[0], PhasePoint)
        assert pts[0].verdict == classify(sweep(cfg), cfg).verdict

    def test_lexicographic_order(self):
        pts = phase_grid([0.4, 0.75], [3, 2], EpsSchedule(1.0, 0.5, 6))
        got = [(p.hurst, p.dim) for p in pts]
        assert got == [(0.4, 3), (0.4, 2), (0.75, 3), (0.75, 2)]

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            phase_grid([], [2])

    def test_whole_grid_checked_before_any_point_runs(self, monkeypatch):
        # a bad value used to raise only after the points before it had run
        ran = []
        monkeypatch.setattr(phasescan, "sweep", lambda cfg, *a, **kw: ran.append(cfg))
        with pytest.raises(ParameterError, match="hurst"):
            phase_grid([0.5, 1.5], [2])
        assert ran == []

    def test_verdict_stable_under_eps0_doubling(self):
        for h, d in [(0.5, 2), (0.75, 3)]:
            a = phase_grid([h], [d], EpsSchedule(1.0, 0.5, 12))[0]
            b = phase_grid([h], [d], EpsSchedule(2.0, 0.5, 12))[0]
            assert a.verdict == b.verdict


class TestSweepBudgets:
    def test_gap_budget_marks_row_incomplete(self, monkeypatch):
        # the gaps cannot meet their tolerance, so the shared pass stops at
        # its budget; the m2 columns met theirs and only gap rows fail
        monkeypatch.setattr(quadmoments, "_M2_MAX_EVALS", 100_000)
        monkeypatch.setattr(quadmoments, "_GAP_REL_TOL", 1e-12)
        series = sweep(ModelConfig(0.5, 2), EpsSchedule(1.0, 0.5, 3))
        assert series.rows[0].complete
        assert math.isnan(series.rows[0].gap_err)
        for row in series.rows[1:]:
            assert not row.complete
            assert math.isfinite(row.cauchy_gap)
            assert row.gap_err > 0.0
        assert 0 < series.nevals

    def test_budget_hit_recorded_as_budget(self, monkeypatch):
        # budget-incomplete rows used to be recorded as kind "parameter"
        monkeypatch.setattr(quadmoments, "_M2_MAX_EVALS", 500)
        (err,) = phase_grid([0.5], [2], EpsSchedule(1.0, 0.5, 4))
        assert isinstance(err, PhaseError)
        assert err.kind == "budget"
        assert "got 0" in err.message

    def test_gap_error_recorded(self):
        series = sweep(ModelConfig(0.5, 2), EpsSchedule(1.0, 0.5, 3))
        for row in series.rows[1:]:
            assert row.complete
            assert 0.0 <= row.gap_err < abs(row.cauchy_gap)

    def test_sweep_passes_its_tolerance_to_m2_ladder(self, monkeypatch):
        import fbmilt.phasescan as ps
        from fbmilt.quadmoments import QuadratureResult

        seen = []

        def fake_m1_ladder(eps, cfg):
            return [QuadratureResult(1.0, 0.0, 1) for _ in eps]

        def fake_m2_ladder(eps, cfg, rel_tol):
            seen.append((len(eps), rel_tol))
            return ([QuadratureResult(2.0, 0.0, 1) for _ in eps],
                    [None] + [QuadratureResult(0.5, 0.0, 1) for _ in eps[1:]])

        monkeypatch.setattr(ps.quadmoments, "m1_ladder", fake_m1_ladder)
        monkeypatch.setattr(ps.quadmoments, "m2_ladder", fake_m2_ladder)
        sweep(ModelConfig(0.5, 2), EpsSchedule(1.0, 0.5, 6), quad_rel_tol=1e-3)
        assert seen == [(6, 1e-3)]

    def test_none_tolerance_reaches_m2_ladder_as_default(self, monkeypatch):
        # a None quad_rel_tol used to reach m2_ladder, which read it as 1e-4
        seen = []

        def fake_m2_ladder(eps, cfg, rel_tol):
            seen.append(rel_tol)
            raise ParameterError("stop")

        monkeypatch.setattr(quadmoments, "m1_ladder", lambda eps, cfg: [])
        monkeypatch.setattr(quadmoments, "m2_ladder", fake_m2_ladder)
        schedule = EpsSchedule(1.0, 0.5, 6)
        with pytest.raises(ParameterError):
            sweep(ModelConfig(0.5, 2), schedule, quad_rel_tol=None)
        (err,) = phase_grid([0.5], [2], schedule, quad_rel_tol=None)
        assert err.kind == "parameter"
        assert seen == [3e-4, 3e-4]

"""Epsilon sweeps and the convergent/divergent/critical classification.

A sweep evaluates the quadrature moments (optionally with Monte Carlo
alongside) down a geometric epsilon ladder; classification reads the
Cauchy-gap tail and the growth of the moments off the sweep.  The
verdict thresholds are finite-evidence decision rules, recorded here and
surfaced in the outputs:

* Convergent: gap tail decreasing, last relative gap < 1e-3, relative
  change of m2 over the last two rows < 5%.
* Divergent: log-log slope of m1 over the last half of the ladder
  <= -0.02 with R^2 >= 0.99, or m2 blowing up by x1e3 over the sweep.
  The half has at least 3 points: a 2-point fit has R^2 = 1 whatever
  the data, so classification needs MIN_ROWS = 5 complete rows.
* Critical: reserved for exact Hurst*dim = 2 inputs, where no finite
  sweep separates logarithmic divergence from slow convergence.

Ties are resolved by extending the ladder one step; a remaining tie
falls back to the sign of an offset-aware power-law fit of m1 (see
fit_rate_offset) and otherwise raises an explicit Indeterminate error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List, Optional

import numpy as np
from scipy.optimize import minimize_scalar

from . import quadmoments
from .covkernel import ModelConfig
from .errors import IndeterminateError, ParameterError, QuadratureBudgetError
from .fbmgen import TimeGrid
from .iltmc import grid_for_eps, mc_moments

__all__ = [
    "EpsSchedule",
    "SweepRow",
    "SweepSeries",
    "PhasePoint",
    "PhaseError",
    "sweep",
    "classify",
    "phase_grid",
    "fit_loglog_slope",
    "fit_rate_offset",
]

GAP_REL_TOL = 1e-3
SLOPE_CUTOFF = -0.02
R2_CUTOFF = 0.99
BLOWUP_FACTOR = 1e3
BOUNDED_WINDOW = 0.05
CRITICAL_ATOL = 1e-9
RATE_SIGN_CUTOFF = 0.02
MIN_ROWS = 5
QUAD_REL_TOL = 3e-4  # m2 tolerance of the sweep rows, also used to extend them


@dataclass(frozen=True)
class EpsSchedule:
    """Geometric ladder eps0 * factor^k, k = 0..count-1."""

    eps0: float
    factor: float
    count: int

    def __post_init__(self):
        if not (self.eps0 > 0.0):
            raise ParameterError(f"eps0 must be positive, got {self.eps0}")
        if not (0.0 < self.factor < 1.0):
            raise ParameterError(f"factor must lie in (0, 1), got {self.factor}")
        if int(self.count) != self.count or self.count < 3:
            raise ParameterError(f"count must be an integer >= 3, got {self.count}")

    def ladder(self) -> np.ndarray:
        return self.eps0 * self.factor ** np.arange(self.count)

    @classmethod
    def default_for(cls, cfg: ModelConfig) -> "EpsSchedule":
        # start at the natural variance scale T^2H, span ~4 decades
        return cls(eps0=cfg.horizon ** (2.0 * cfg.hurst), factor=0.5, count=12)


@dataclass(frozen=True)
class SweepRow:
    eps: float
    m1: float
    m1_err: float
    m2: float
    m2_err: float
    variance: float
    cauchy_gap: float  # gap to the previous (larger) eps; nan in the first row
    gap_err: float = math.nan  # claimed error of cauchy_gap
    mc_mean: float = math.nan
    mc_se: float = math.nan
    complete: bool = True


@dataclass(frozen=True)
class SweepSeries:
    hurst: float
    dim: int
    horizon: float
    rows: List[SweepRow] = field(default_factory=list)
    quad_rel_tol: float = QUAD_REL_TOL
    nevals: int = 0  # integrand evaluations of every quadrature pass behind the rows

    @property
    def config(self) -> ModelConfig:
        return ModelConfig(hurst=self.hurst, dim=self.dim, horizon=self.horizon)


@dataclass(frozen=True)
class PhasePoint:
    hurst: float
    dim: int
    verdict: str  # "Convergent" | "Divergent" | "Critical"
    fitted_rate: Optional[float]
    evidence: SweepSeries


@dataclass(frozen=True)
class PhaseError:
    """A grid point whose classification raised; recorded, not re-raised."""

    hurst: float
    dim: int
    message: str
    kind: str  # "parameter" | "budget" | "indeterminate"


def _rows(cfg, ladder, prev_eps, quad_rel_tol, mc_params):
    """One SweepRow per rung of ``ladder``, whose m1s come from one shared
    2D pass and whose m2s and Cauchy gaps come from one shared 4D pass per
    region; ``prev_eps`` is the rung before ``ladder[0]``, if any.  Each
    row carries a Monte Carlo estimate of m1 if ``mc_params`` is given.

    A row is complete only if its own m1, m2 and gap met their
    tolerances.  Returns (rows, integrand evaluations of the passes).
    """
    r1 = quadmoments.m1_ladder(ladder, cfg)
    r2, rg = quadmoments.m2_ladder(ladder, cfg, prev_eps=prev_eps, rel_tol=quad_rel_tol)
    rows = []
    for eps, a, b, g in zip(ladder, r1, r2, rg):
        parts = [a, b] if g is None else [a, b, g]
        mc_mean = mc_se = math.nan
        if mc_params is not None:
            params = dict(mc_params)
            grid_n = params.pop("grid_n", None) or grid_for_eps(eps, cfg)
            grid = TimeGrid(horizon=cfg.horizon, n_steps=grid_n)
            est = mc_moments(
                cfg, eps, grid,
                replications=params.pop("reps", 1000),
                seed=params.pop("seed", 0),
                **params,
            )
            mc_mean, mc_se = est.mean, est.se_mean
        rows.append(SweepRow(
            eps=eps, m1=a.value, m1_err=a.error_estimate,
            m2=b.value, m2_err=b.error_estimate, variance=b.value - a.value**2,
            cauchy_gap=math.nan if g is None else g.value,
            gap_err=math.nan if g is None else g.error_estimate,
            mc_mean=mc_mean, mc_se=mc_se,
            complete=all(r.status == "converged" for r in parts),
        ))
    return rows, r1[0].nevals + r2[0].nevals


def sweep(cfg: ModelConfig, schedule: Optional[EpsSchedule] = None,
          mc_params: Optional[dict] = None, quad_rel_tol: float = QUAD_REL_TOL) -> SweepSeries:
    """One row of quadrature moments per ladder rung, with a Monte Carlo
    estimate of m1 alongside when ``mc_params`` is given (the keyword
    arguments of mc_moments, plus "reps" and "grid_n").

    Every rung's m1 comes from one 2D pass and every rung's m2 and Cauchy
    gap from one 4D pass per region, each over a shared mesh.  Budget
    hits, in m1, m2 or the row's Cauchy gap, leave the affected row
    marked incomplete instead of aborting the sweep.
    """
    if schedule is None:
        schedule = EpsSchedule.default_for(cfg)
    ladder = [float(e) for e in schedule.ladder()]
    rows, nevals = _rows(cfg, ladder, None, quad_rel_tol, mc_params)
    return SweepSeries(hurst=cfg.hurst, dim=cfg.dim, horizon=cfg.horizon, rows=rows,
                       quad_rel_tol=quad_rel_tol, nevals=nevals)


def fit_loglog_slope(eps, values):
    """Least-squares slope and R^2 of log(values) against log(eps)."""
    x = np.log(np.asarray(eps, dtype=float))
    y = np.log(np.asarray(values, dtype=float))
    A = np.stack([x, np.ones_like(x)], axis=1)
    coef, _, _, _ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0.0 else 1.0
    return float(coef[0]), r2


def fit_rate_offset(eps, values):
    """Exponent r of the two-term model values ~ A * eps^r + B.

    The raw log-log slope is biased whenever the constant term B is
    comparable to A at the sampled scales, which is the norm for the
    first-moment integral at desk-scale epsilon; profiling r with (A, B)
    solved by linear least squares removes that bias.
    """
    x = np.asarray(eps, dtype=float)
    y = np.asarray(values, dtype=float)

    def residual(r):
        A = np.stack([x**r, np.ones_like(x)], axis=1)
        coef, _, _, _ = np.linalg.lstsq(A, y, rcond=None)
        return float(np.sum((y - A @ coef) ** 2))

    best = minimize_scalar(residual, bounds=(-3.0, 3.0), method="bounded",
                           options={"xatol": 1e-8})
    return float(best.x)


def _decide(rows):
    """Apply the threshold rules; returns "Convergent", "Divergent" or None."""
    gaps = [r.cauchy_gap for r in rows[1:]]
    tail = gaps[-3:]
    m2_last, m2_prev = rows[-1].m2, rows[-2].m2
    last_rel_gap = gaps[-1] / max(abs(m2_last), 1e-300)
    bounded = abs(m2_last - m2_prev) / max(abs(m2_prev), 1e-300) < BOUNDED_WINDOW
    tail_decreasing = all(b < a for a, b in zip(tail, tail[1:]))
    convergent = tail_decreasing and last_rel_gap < GAP_REL_TOL and bounded

    half = rows[len(rows) // 2:]
    slope, r2 = fit_loglog_slope([r.eps for r in half], [r.m1 for r in half])
    blowup = m2_last > BLOWUP_FACTOR * rows[0].m2
    divergent = (slope <= SLOPE_CUTOFF and r2 >= R2_CUTOFF) or blowup

    if convergent and not divergent:
        return "Convergent"
    if divergent and not convergent:
        return "Divergent"
    return None


def classify(series: SweepSeries, cfg: ModelConfig) -> PhasePoint:
    """Verdict for one (H, d) point from its sweep evidence.

    A tie after the threshold rules extends the ladder by one factor step
    and retries; a remaining tie is broken by the sign of the offset-aware
    rate fit of m1, and failing that an Indeterminate error is raised with
    the series attached.  Fewer than MIN_ROWS complete rows raise
    QuadratureBudgetError when budget hits left rows incomplete, and
    ParameterError otherwise.
    """
    rows = [r for r in series.rows if r.complete]
    if len(rows) < MIN_ROWS:
        message = f"classification needs >= {MIN_ROWS} complete sweep rows, got {len(rows)}"
        dropped = len(series.rows) - len(rows)
        if dropped:
            raise QuadratureBudgetError(f"{message}; {dropped} hit their quadrature budget")
        raise ParameterError(message)
    if abs(cfg.hd - 2.0) < CRITICAL_ATOL:
        return PhasePoint(cfg.hurst, cfg.dim, "Critical", None, series)

    verdict = _decide(rows)
    if verdict is None:
        # extend the ladder once before deciding
        factor = rows[-1].eps / rows[-2].eps
        extra, nevals = _rows(cfg, [rows[-1].eps * factor], rows[-1].eps,
                              series.quad_rel_tol, None)
        rows = rows + extra
        series = replace(series, rows=series.rows + extra, nevals=series.nevals + nevals)
        verdict = _decide(rows)
    # the power law m1 ~ A eps^r + B only dominates at the small end of
    # the ladder; fit the rate on the lower-eps half
    half = rows[len(rows) // 2:]
    rate = fit_rate_offset([r.eps for r in half], [r.m1 for r in half])
    if verdict is None:
        if rate >= RATE_SIGN_CUTOFF:
            verdict = "Convergent"
        elif rate <= -RATE_SIGN_CUTOFF:
            verdict = "Divergent"
        else:
            raise IndeterminateError(
                f"no decisive convergence signal for hurst={cfg.hurst}, dim={cfg.dim}",
                series=series,
            )
    fitted = rate if verdict == "Divergent" else None
    return PhasePoint(cfg.hurst, cfg.dim, verdict, fitted, series)


def phase_grid(hs, ds, schedule: Optional[EpsSchedule] = None,
               quad_rel_tol: float = QUAD_REL_TOL, horizon: float = 1.0):
    """classify(sweep(...)) over the lexicographic (hurst, dim) grid, every
    point on the time horizon ``horizon``.

    Failures are recorded as PhaseError entries in place of the point.
    """
    if not hs or not ds:
        raise ParameterError("hurst and dim lists must be nonempty")
    out = []
    for h in hs:
        for d in ds:
            cfg = ModelConfig(hurst=h, dim=d, horizon=horizon)
            try:
                series = sweep(cfg, schedule, quad_rel_tol=quad_rel_tol)
                out.append(classify(series, cfg))
            except IndeterminateError as exc:
                out.append(PhaseError(h, d, str(exc), "indeterminate"))
            except QuadratureBudgetError as exc:
                out.append(PhaseError(h, d, str(exc), "budget"))
            except ParameterError as exc:
                out.append(PhaseError(h, d, str(exc), "parameter"))
    return out

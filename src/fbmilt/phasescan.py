"""Epsilon sweeps and the convergent/divergent/critical classification.

A sweep evaluates the quadrature moments (optionally with Monte Carlo
alongside) down a geometric epsilon ladder; classification reads one
number off it, the rate r of the offset-aware fit m1 ~ A eps^r + B
(fit_rate_offset) over the lower-eps half of the complete rows.  Above
Hd = 2, m1 grows like eps^(1/H - d/2), so r < 0; below it, m1(0) - m1(eps)
is a positive power of eps, so r > 0.  The decision rule, recorded here
and surfaced in the outputs:

* Convergent: r >= RATE_SIGN_CUTOFF.
* Divergent: r <= -RATE_SIGN_CUTOFF.
* Otherwise an explicit Indeterminate error, with the sweep attached.
* Critical: where ModelConfig.regime is, |Hd - 2| < 1e-9, as no finite
  sweep separates logarithmic divergence from slow convergence.

The two-term model fits any r through 2 points, so the half needs at
least 3 and classification needs MIN_ROWS = 5 complete rows.  Every row
keeps m2, its Cauchy gap and their errors as reported evidence.

phase_grid records a point whose classification raised as a PhaseError
of the kind errors.KINDS gives its exception.  sweep and phase_grid
resolve quad_rel_tol=None to QUAD_REL_TOL when called, and sweep each
point's eps ladder (EpsSchedule.for_point: an unset eps0 is its T^2H).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List, Optional

import numpy as np

from . import quadmoments
from .covkernel import ModelConfig, _check_int, _check_range
from .errors import KINDS, IndeterminateError, ParameterError, QuadratureBudgetError
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
    "fit_rate_offset",
]

RATE_SIGN_CUTOFF = 0.02
MIN_ROWS = 5
QUAD_REL_TOL = 3e-4  # m2 tolerance of the sweep rows
_RATE_BRACKET = (-3.0, 3.0)  # fit_rate_offset's starting bracket of r
_RATE_POINTS = 41  # grid points per search level
_RATE_WIDENINGS = 10  # cap on widening the bracket past an end
_RATE_TOL = 1e-8  # final grid step in r


@dataclass(frozen=True)
class EpsSchedule:
    """Geometric ladder eps0 * factor^k, k = 0..count-1, by default over
    about 4 decades from each point's variance scale T^2H (unset eps0)."""

    eps0: Optional[float] = None
    factor: float = 0.5
    count: int = 12

    def __post_init__(self):
        if self.eps0 is not None:
            _check_range("eps0", self.eps0, 0.0)
        _check_range("factor", self.factor, 0.0, 1.0)
        _check_int("count", self.count, 3)

    def for_point(self, cfg: ModelConfig) -> "EpsSchedule":
        eps0 = cfg.horizon ** (2.0 * cfg.hurst) if self.eps0 is None else self.eps0
        return replace(self, eps0=eps0)

    def ladder(self) -> np.ndarray:  # of a schedule with eps0 set, as for_point returns
        return self.eps0 * self.factor ** np.arange(self.count)

    @classmethod
    def default_for(cls, cfg: ModelConfig) -> "EpsSchedule":
        return cls().for_point(cfg)


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
    nevals: int = 0  # integrand evaluations of every quadrature pass behind the rows


@dataclass(frozen=True)
class PhasePoint:
    hurst: float
    dim: int
    verdict: str  # "Convergent" | "Divergent" | "Critical"
    fitted_rate: Optional[float]  # the rate the verdict rests on; None if Critical
    evidence: SweepSeries


@dataclass(frozen=True)
class PhaseError:
    """A grid point whose classification raised; recorded, not re-raised.

    Its ``kind`` is errors.KINDS at the class of the exception raised.
    """

    hurst: float
    dim: int
    message: str
    kind: str  # "parameter" | "budget" | "indeterminate"


def sweep(cfg: ModelConfig, schedule: Optional[EpsSchedule] = None,
          mc_params: Optional[dict] = None, quad_rel_tol: Optional[float] = None) -> SweepSeries:
    """One row of quadrature moments per rung of schedule.for_point(cfg)
    (schedule defaults to EpsSchedule()), with a Monte Carlo estimate of
    m1 alongside when ``mc_params`` is given (the keyword arguments of
    mc_moments, plus "reps" and "grid_n"; without "grid_n", grid_for_eps
    picks each row's grid from the row's m1).  m2 is integrated to
    ``quad_rel_tol`` (default QUAD_REL_TOL).

    Every rung's m1 comes from one 2D pass and every rung's m2 and Cauchy
    gap from one 4D pass per region, each over a shared mesh.  A row is
    complete only if its own m1, m2 and gap met their tolerances: budget
    hits leave the affected row marked incomplete instead of aborting the
    sweep.
    """
    schedule = (EpsSchedule() if schedule is None else schedule).for_point(cfg)
    if quad_rel_tol is None:
        quad_rel_tol = QUAD_REL_TOL
    ladder = [float(e) for e in schedule.ladder()]
    r1 = quadmoments.m1_ladder(ladder, cfg)
    r2, rg = quadmoments.m2_ladder(ladder, cfg, rel_tol=quad_rel_tol)
    rows = []
    for eps, a, b, g in zip(ladder, r1, r2, rg):
        parts = [a, b] if g is None else [a, b, g]
        mc_mean = mc_se = math.nan
        if mc_params is not None:
            params = dict(mc_params)
            grid_n = params.pop("grid_n", None)
            if grid_n is None:
                grid_n = grid_for_eps(eps, cfg, m1=a)
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
    return SweepSeries(hurst=cfg.hurst, dim=cfg.dim, horizon=cfg.horizon, rows=rows,
                       nevals=r1[0].nevals + r2[0].nevals)


def _projection_rss(log_eps, yc, rates):
    """Residual sum of squares of the best A * eps^r + B at each r in ``rates``.

    For fixed r the fit is linear: with p = eps^r and centred p_c, y_c, the
    best A is (p_c . y_c) / |p_c|^2 and B takes up the means.  The residual
    y_c - A p_c is summed directly, not as |y_c|^2 - (p_c . y_c)^2 / |p_c|^2,
    which cancels to half the digits near the minimum.  p is scaled to a
    maximum of 1 and taken less 1 by expm1, so it neither overflows at any
    r nor loses its spread near r = 0; at r = 0 the fit is the constant.
    """
    z = np.outer(rates, log_eps)
    q = np.expm1(z - z.max(axis=1, keepdims=True))
    pc = q - q.mean(axis=1, keepdims=True)
    norm = np.einsum("ij,ij->i", pc, pc)
    coef = np.divide(pc @ yc, norm, out=np.zeros_like(norm), where=norm > 0.0)
    res = yc - coef[:, None] * pc
    return np.einsum("ij,ij->i", res, res)


def fit_rate_offset(eps, values):
    """Exponent r of the two-term model values ~ A * eps^r + B.

    The raw log-log slope is biased whenever the constant term B is
    comparable to A at the sampled scales, which is the norm for the
    first-moment integral at desk-scale epsilon; profiling r with (A, B)
    solved in closed form (variable projection) removes that bias.

    r is searched on a grid of _RATE_POINTS over _RATE_BRACKET.  While the
    grid's minimum is at an end, the bracket widens past that end, at most
    _RATE_WIDENINGS times; then nested grids around the minimum refine r
    until the grid step is at most _RATE_TOL.  A series with no spread
    beyond the rounding of its mean, where every r fits equally well, has
    no slope to measure: its rate is 0.0.
    """
    log_eps = np.log(np.asarray(eps, dtype=float))
    y = np.asarray(values, dtype=float)
    yc = y - y.mean()
    if np.abs(yc).max() <= len(y) * np.finfo(float).eps * np.abs(y).max():
        return 0.0
    last = _RATE_POINTS - 1

    def grid_min(lo, hi):
        rates = np.linspace(lo, hi, _RATE_POINTS)
        return rates, int(np.argmin(_projection_rss(log_eps, yc, rates)))

    lo, hi = _RATE_BRACKET
    for _ in range(_RATE_WIDENINGS):
        rates, k = grid_min(lo, hi)
        if 0 < k < last:
            break
        width = hi - lo
        lo, hi = (lo - width, rates[1]) if k == 0 else (rates[-2], hi + width)
    while rates[1] - rates[0] > _RATE_TOL:
        rates, k = grid_min(rates[max(k - 1, 0)], rates[min(k + 1, last)])
    return float(rates[k])


def classify(series: SweepSeries, cfg: ModelConfig) -> PhasePoint:
    """Verdict for one (H, d) point from its sweep evidence.

    Critical iff cfg.regime is.  Otherwise the sign of the offset-aware
    rate of m1, fitted on the lower-eps half of the complete rows, where
    the power law dominates the constant term: Convergent at a rate >=
    RATE_SIGN_CUTOFF, Divergent at one <= -RATE_SIGN_CUTOFF, and an
    Indeterminate error, with the series attached, in between.  Fewer
    than MIN_ROWS complete rows raise QuadratureBudgetError when budget
    hits left rows incomplete, and ParameterError otherwise.
    """
    rows = [r for r in series.rows if r.complete]
    if len(rows) < MIN_ROWS:
        message = f"classification needs >= {MIN_ROWS} complete sweep rows, got {len(rows)}"
        dropped = len(series.rows) - len(rows)
        if dropped:
            raise QuadratureBudgetError(f"{message}; {dropped} hit their quadrature budget")
        raise ParameterError(message)
    if cfg.regime == "Critical":
        return PhasePoint(cfg.hurst, cfg.dim, "Critical", None, series)

    half = rows[len(rows) // 2:]
    rate = fit_rate_offset([r.eps for r in half], [r.m1 for r in half])
    if rate >= RATE_SIGN_CUTOFF:
        verdict = "Convergent"
    elif rate <= -RATE_SIGN_CUTOFF:
        verdict = "Divergent"
    else:
        raise IndeterminateError(
            f"no decisive convergence signal for hurst={cfg.hurst}, dim={cfg.dim}: "
            f"fitted m1 rate {rate:.3g}",
            series=series,
        )
    return PhasePoint(cfg.hurst, cfg.dim, verdict, rate, series)


def phase_grid(hs, ds, schedule: Optional[EpsSchedule] = None,
               quad_rel_tol: Optional[float] = None, horizon: float = 1.0):
    """classify(sweep(cfg, schedule, ...)) over the lexicographic (hurst,
    dim) grid, every point on the time horizon ``horizon``.

    Every point is checked before any runs; a failure while one runs is
    recorded as a PhaseError entry in place of the point.
    """
    if not hs or not ds:
        raise ParameterError("hurst and dim lists must be nonempty")
    cfgs = [ModelConfig(hurst=h, dim=d, horizon=horizon) for h in hs for d in ds]
    out = []
    for cfg in cfgs:
        try:
            out.append(classify(sweep(cfg, schedule, quad_rel_tol=quad_rel_tol), cfg))
        except tuple(KINDS) as exc:
            out.append(PhaseError(cfg.hurst, cfg.dim, str(exc), KINDS[type(exc)]))
    return out

"""Deterministic quadrature of the moment integrals of the smoothed
intersection local time.

The first moment is a 2D integral of (eps + s^2H + t^2H)^(-d/2), the
second moment and its cross-regularizer variants are 4D integrals of
((lambda+eps)(rho+eta) - mu^2)^(-d/2) over [0,T]^4.  The 4D integrands
concentrate near the origin and near the plane (s,t) = (u,v), so the
cube is split by the time orderings (v<t, u<s) / (v<t, u>s) -- the two
remaining orderings mirror these under swapping the pairs (s,t) and
(u,v) -- and each piece is integrated in ratio coordinates in which both
singular sets become axis-aligned faces.  Determinants are evaluated
through the cancellation-free decomposition
det = phi(t,v) + phi(s,u) + cross(s,t,u,v) of nonnegative terms.

The second-moment family (m2, cross moments, Cauchy gaps, and at eps = 0
A_T, the variance limit and the divergence shells) shares one integrand
map and one starting mesh: every column is a combination of
P(a, b) = (det + a rho + b lam + a b)^(-d/2) over the same region
geometry, so a whole epsilon ladder's m2 values and adjacent gaps are the
components of one vector integral over a shared mesh (m2_ladder), and
every rung's m1 likewise (m1_ladder).

At eps = 0 with Hd >= 2 the integrals diverge; this is decided by the
analytic radial exponent and corroborated by a sequence of growing
partial integrals over shrinking-exclusion shells, both recorded in the
result's divergence evidence.  A shell excludes a box of width delta
around every codimension-2 face of the mapped cube on which the
integrand is singular; the starting mesh has a breakpoint at every box
edge, so each shell is a union of whole cells and all shells are the
components of one pass per region.  A diverged result's status is
"budget" when any of its shells missed its tolerance.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np
from scipy.integrate import quad
from scipy.special import gammainc, gammaln

from . import cubature
from .covkernel import ModelConfig
from .errors import ParameterError, QuadratureBudgetError

__all__ = [
    "QuadratureResult",
    "m1",
    "m1_ladder",
    "m2",
    "m2_ladder",
    "m_cross",
    "cauchy_gap",
    "var_limit",
    "a_t_integral",
    "a_z",
    "reduction_bound",
    "radial_rate",
]

# tolerances and budgets, read at call time: those of m1 and of the
# second-moment family, the finite eps = 0 4D integrals included; a rel_tol
# given to m1, m2 or m2_ladder replaces the relative one
_M1_ABS_TOL = 1e-10
_M1_REL_TOL = 1e-9
_M1_MAX_EVALS = 4_000_000
_M2_ABS_TOL = 1e-9
_M2_REL_TOL = 1e-4
_M2_MAX_EVALS = 6_000_000
_GAP_REL_TOL = 1e-3
# of A(z), and of reduction_bound's outer quadrature over z
_A_Z_REL_TOL = 1e-8
_A_Z_ABS_TOL = 1e-13
_A_Z_MAX_EVALS = 2_000_000
_REDUCTION_REL_TOL = 1e-9

# divergence shells at eps = 0: exclusion widths, tolerances and budgets of
# the one pass (per region) that gives every shell; a rel_tol given to m1
# replaces _M1_SHELL_REL_TOL
_M1_SHELL_WIDTHS = 2.0 ** -np.arange(1, 8)  # mapped x = sqrt(s / T): [0, T 4^-k]^2
_M1_SHELL_REL_TOL = 1e-5
_M1_SHELL_MAX_EVALS = 4_000_000
_SHELL_WIDTHS = 4.0 ** -np.arange(1, 6)
_SHELL_REL_TOL = 3e-3
_SHELL_MAX_EVALS = 20_000_000

# the codimension-2 faces {x_i = e_i, x_j = e_j}, as (i, e_i, j, e_j), of
# each region's mapped cube (xi, zeta, alpha, beta) on which det vanishes:
# the time origin, the diagonal (s, t) = (u, v), and the faces where one
# of B_t - B~_s and B_v - B~_u is degenerate or the two coincide
_SINGULAR_FACES = {
    "A": ((0, 0.0, 1, 0.0), (0, 0.0, 3, 0.0), (0, 0.0, 3, 1.0), (1, 0.0, 2, 0.0),
          (1, 0.0, 2, 1.0), (2, 0.0, 3, 0.0), (2, 1.0, 3, 1.0)),
    "B": ((0, 0.0, 1, 0.0), (0, 0.0, 3, 0.0), (0, 0.0, 3, 1.0), (1, 0.0, 2, 0.0),
          (1, 0.0, 2, 1.0), (2, 1.0, 3, 1.0)),
}
_ORIGIN_FACE = ((0, 0.0, 1, 0.0),)  # of m1's (s, t) square


@dataclass
class QuadratureResult:
    """An integral with how it was obtained.

    ``status`` is "converged" when every underlying cubature met its
    tolerance and "budget" when any stopped short of it (its evaluation
    budget or its minimum cell width); ``nevals`` counts the integrand
    evaluations of all of them.
    """

    value: float
    error_estimate: float
    subdivisions: int
    diverged: bool = False
    divergence_evidence: Optional[str] = None
    status: str = "converged"
    nevals: int = 0
    # divergence evidence as data: the partial integrals, their exclusion
    # widths, the fitted exponent g of shells ~ width^g over the inner
    # three, and the exponent of the radial integrand near the origin
    shells: Optional[List["QuadratureResult"]] = None
    shell_widths: Optional[List[float]] = None
    shell_rate: Optional[float] = None
    radial_exponent: Optional[float] = None


# ---------------------------------------------------------------------------
# scaled covariance helpers (no validation; hot path of the integrands)

def _psi(x, h2, xc=None):
    """phi_det(1, x) for x in [0, 1], cancellation-safe at both endpoints;
    ``xc`` is 1 - x when the caller has it more accurately than 1 - x."""
    b = x**h2
    c = (1.0 - x if xc is None else xc) ** h2
    direct = b - 0.25 * (1.0 + b - c) ** 2
    expanded = 0.5 * (1.0 + b) * c - 0.25 * (1.0 - b) ** 2 - 0.25 * c * c
    return np.maximum(np.where(c < 0.5 * (1.0 + b), expanded, direct), 0.0)


def _mhalf(x, h2):
    """R_H(1, x) for x in [0, 1]: (1 + x^2H - (1-x)^2H) / 2."""
    return 0.5 * (1.0 + x**h2 - (1.0 - x) ** h2)


def _cluster_both(alpha):
    """Smootherstep map [0,1]->[0,1] clustering quadratically toward both 0
    and 1; returns (value, dvalue)."""
    # clipped: within about 4e-6 of 1 the polynomial rounds above 1
    val = np.minimum(alpha**3 * (10.0 - 15.0 * alpha + 6.0 * alpha**2), 1.0)
    dval = 30.0 * alpha**2 * (1.0 - alpha) ** 2
    return val, dval


def _region_pieces(x, region, h, horizon):
    """Geometry of one time-ordering region in mapped unit-cube coordinates.

    Region "A" is (v < t, u < s) via u = s*a, v = t*b; region "B" is
    (v < t, u > s) via s = u*a, v = t*b.  The first two coordinates carry
    a quadratic map toward the time origin, the angles a and b the
    smootherstep map toward both their ends.  Returns (lam, rho, det, jac).
    """
    h2 = 2.0 * h
    xi, ze, al, be = x[:, 0], x[:, 1], x[:, 2], x[:, 3]
    a, da = _cluster_both(al)
    b, db = _cluster_both(be)
    p = horizon * xi * xi  # s in region A, u in region B
    r = horizon * ze * ze  # t in both regions
    jac = (2.0 * horizon * xi) * (2.0 * horizon * ze) * (p * da) * (r * db)
    ph2 = p**h2
    rh2 = r**h2
    psi_a = _psi(a, h2)
    psi_b = _psi(b, h2)
    ma = _mhalf(a, h2)
    mb = _mhalf(b, h2)
    if region == "A":
        lam = ph2 + rh2
        rho = ph2 * a**h2 + rh2 * b**h2
        chi = np.maximum(a**h2 + b**h2 - 2.0 * ma * mb, 0.0)
    else:
        lam = ph2 * a**h2 + rh2
        rho = ph2 + rh2 * b**h2
        chi = np.maximum(1.0 + (a * b) ** h2 - 2.0 * ma * mb, 0.0)
    det = rh2 * rh2 * psi_b + ph2 * ph2 * psi_a + ph2 * rh2 * chi
    return lam, rho, det, jac


def _power(base, dexp):
    with np.errstate(divide="ignore", over="ignore"):
        out = base ** (-0.5 * dexp)
    return np.where(np.isfinite(out), out, 0.0)


def _face_distance(x, faces):
    """Chebyshev distance from each point of ``x`` to the nearest face
    {x_i = e_i, x_j = e_j} of ``faces``."""
    return np.minimum.reduce([
        np.maximum(np.abs(x[:, i] - ei), np.abs(x[:, j] - ej)) for i, ei, j, ej in faces
    ])


def _shell_splits(ndim, faces, widths):
    """Starting breakpoints of each axis of the unit cube: both ends and
    every edge of the exclusion boxes {|x_i - e_i| < w, |x_j - e_j| < w}
    around ``faces``, for each w in ``widths``.  Each starting cell, and
    so each cell of the mesh, lies wholly inside or wholly outside every
    box."""
    axes = [{0.0, 1.0} for _ in range(ndim)]
    for i, ei, j, ej in faces:
        axes[i].update(abs(ei - widths))
        axes[j].update(abs(ej - widths))
    return [np.array(sorted(a)) for a in axes]


def _scaled(res, c):
    """``res`` with its value and claimed error multiplied by ``c``."""
    return replace(res, value=c * res.value, error_estimate=c * res.error_estimate)


def _status(results):
    """The status "converged" if every one of ``results`` converged, else "budget"."""
    return "converged" if all(r.status == "converged" for r in results) else "budget"


def _result(value, err, runs):
    """A QuadratureResult over the cubature results ``runs``."""
    return QuadratureResult(
        value=value, error_estimate=err, subdivisions=sum(r.ncells for r in runs),
        status=_status(runs), nevals=sum(r.nevals for r in runs),
    )


def _columns(total, err, runs, scale):
    """One QuadratureResult per component of the K-component cubature
    results ``runs``, all over one mesh: ``scale`` times the summed
    ``total`` and ``err`` (K,), the status of that component in every run,
    and the cells and evaluations of the whole pass."""
    ok = np.logical_and.reduce([r.converged for r in runs])
    return [
        QuadratureResult(
            value=float(scale * total[i]), error_estimate=float(scale * err[i]),
            subdivisions=sum(r.ncells for r in runs),
            status="converged" if ok[i] else "budget",
            nevals=sum(r.nevals for r in runs),
        )
        for i in range(len(total))
    ]


def _require_converged(result, label):
    if result.status != "converged":
        raise QuadratureBudgetError(
            f"{label}: subdivision budget exhausted "
            f"(claimed error {result.error_estimate:.3e})",
            partial=result,
        )
    return result


def _diverges(cfg):
    """Whether the eps = 0 integrals are infinite: Hd >= 2, allowing for
    rounding in the product H * d."""
    return cfg.hd >= 2.0 - 1e-12


def _diverged(cfg, shells, widths, exponent, excluded):
    """A diverged result from the growing partial integrals ``shells`` over
    the complements of exclusions of ``widths`` (``excluded`` names them)
    and the exponent of the radial integrand near the origin.  Its value
    is the innermost shell's; its status "budget" if any shell missed its
    tolerance."""
    values = [r.value for r in shells]
    rate = float(np.polyfit(np.log(widths[-3:]), np.log(values[-3:]), 1)[0])
    evidence = (
        f"radial integrand ~ r^{exponent:g} near the origin, not integrable since "
        f"Hd = {cfg.hd:g} >= 2; partial integrals {excluded} grow like width^{rate:.3g}, "
        f"without bound: {', '.join(f'{v:.4g}' for v in values)}"
    )
    return QuadratureResult(
        value=values[-1], error_estimate=math.inf, subdivisions=shells[-1].subdivisions,
        diverged=True, divergence_evidence=evidence,
        status=_status(shells), nevals=shells[-1].nevals,
        shells=shells, shell_widths=[float(w) for w in widths], shell_rate=rate,
        radial_exponent=exponent,
    )


# ---------------------------------------------------------------------------
# first moment

def _m1_exponent_map(cfg, eps):
    if eps > 0.0 or cfg.hd >= 2.0:
        return 2
    return max(2, min(8, int(math.ceil(2.0 / (2.0 - cfg.hd))) + 1))


def _m1_columns(eps, cfg, p, abs_tol, rel_tol, max_evals, widths=()):
    """m1 at every regularizer in ``eps`` from one shared-mesh 2D pass,
    with the time axes mapped by x -> T x^p; one QuadratureResult each.

    Each width w in ``widths`` adds a column after them: the eps = 0
    integrand outside the square [0, w]^2 of the mapped coordinates.
    """
    h2 = 2.0 * cfg.hurst
    d = cfg.dim
    T = cfg.horizon
    pref = (2.0 * math.pi) ** (-0.5 * d)

    def f(x):
        xi, ze = x[:, 0], x[:, 1]
        sh = (T * xi**p) ** h2
        th = (T * ze**p) ** h2
        jac = (T * p) ** 2 * (xi * ze) ** (p - 1)
        out = np.empty((len(eps) + len(widths), len(jac)))
        for row, e in zip(out, eps):
            np.multiply(_power(e + sh + th, d), jac, out=row)
        if len(widths):
            base = _power(sh + th, d) * jac
            dist = _face_distance(x, _ORIGIN_FACE)
            for row, w in zip(out[len(eps):], widths):
                np.multiply(base, dist >= w, out=row)
        return out

    if len(widths):
        init = _shell_splits(2, _ORIGIN_FACE, widths)
    else:
        init = [np.array([0.0, 0.25, 1.0])] * 2
    res = cubature.integrate(
        f, [0.0, 0.0], [1.0, 1.0],
        abs_tol=abs_tol / pref, rel_tol=rel_tol, max_evals=max_evals, init_splits=init,
    )
    return _columns(res.value, res.error, [res], pref)


def m1(eps, cfg: ModelConfig, rel_tol=None):
    """First moment E[I_eps] = (2 pi)^(-d/2) * int (eps + s^2H + t^2H)^(-d/2).

    eps = 0 is allowed; the limiting integral is finite iff Hd < 2, and a
    diverged result with shell evidence is returned otherwise.  ``rel_tol``
    defaults to the relative tolerance of the branch taken: that of the
    integral (_M1_REL_TOL) or of its shells (_M1_SHELL_REL_TOL).
    """
    if eps < 0.0:
        raise ParameterError(f"eps must be nonnegative, got {eps}")
    diverged = eps == 0.0 and _diverges(cfg)
    if rel_tol is None:
        rel_tol = _M1_SHELL_REL_TOL if diverged else _M1_REL_TOL
    if diverged:
        return _diverged_m1(cfg, rel_tol)
    (res,) = _m1_columns([eps], cfg, _m1_exponent_map(cfg, eps), _M1_ABS_TOL, rel_tol,
                         _M1_MAX_EVALS)
    return _require_converged(res, "m1")


def m1_ladder(eps, cfg: ModelConfig):
    """m1 at every positive regularizer in ``eps``, from one 2D pass over a
    shared mesh that refines until every one meets m1's default tolerance,
    with the budget of one m1 call.

    Returns one QuadratureResult per regularizer, each carrying the cells
    and evaluations of the whole pass.  A budget hit is reported in the
    status of each result that missed its tolerance, not raised.
    """
    eps = [float(e) for e in eps]
    if not eps or min(eps) <= 0.0:
        raise ParameterError(f"a ladder needs positive regularizers, got {eps}")
    return _m1_columns(eps, cfg, 2, _M1_ABS_TOL, _M1_REL_TOL, _M1_MAX_EVALS)


def _diverged_m1(cfg, rel_tol):
    """Shell evidence for m1(0) when Hd >= 2: m1(0) outside [0, T 4^-k]^2
    for k = 1..7, from one 2D pass at ``rel_tol`` with the shells' budget."""
    shells = _m1_columns([], cfg, 2, 0.0, rel_tol, _M1_SHELL_MAX_EVALS,
                         widths=_M1_SHELL_WIDTHS)
    return _diverged(cfg, shells, cfg.horizon * _M1_SHELL_WIDTHS**2, 1.0 - cfg.hd,
                     "excluding [0,T*4^-k]^2")


# ---------------------------------------------------------------------------
# second moment family

def _moment_columns(cfg, abs_tol, rel_tol, max_evals, m2_eps=(), gaps=(), crosses=(),
                    var=False, shells=()):
    """The second-moment family over one shared mesh: one pass per region
    for the columns m2(e) for e in ``m2_eps``, the fused Cauchy gap for each
    pair in ``gaps``, the cross moment for each pair in ``crosses``, with
    ``var`` the variance limit, and one shell per width in ``shells``.

    With P(a, b) = (det + a rho + b lam + a b)^(-d/2), the integrands are
    P(e, e), P(a, a) + P(b, b) - P(a, b) - P(b, a),
    (P(a, b) + P(b, a)) / 2, max(P(0, 0) - (lam rho)^(-d/2), 0), and P(0, 0)
    outside every box of the width around the region's singular faces.
    Each P(e, e) is computed once per point and shared by every column
    that uses it.  ``rel_tol`` is a scalar or one per column.  Every
    column, at eps > 0 or eps = 0, shares one map (_region_pieces) and one
    starting mesh: [0, 1/2, 1] on each axis, or _shell_splits with shells.
    Returns one QuadratureResult per column; budget hits are reported in
    their statuses, not raised.
    """
    d = cfg.dim
    pref = (2.0 * math.pi) ** (-d)
    ncols = len(m2_eps) + len(gaps) + len(crosses) + var + len(shells)
    total = 0.0
    err = 0.0
    runs = []
    for region in ("A", "B"):
        faces = _SINGULAR_FACES[region]

        def f(x):
            lam, rho, det, jac = _region_pieces(x, region, cfg.hurst, cfg.horizon)
            diag = {}

            def same(e):
                if e not in diag:
                    diag[e] = _power(det + e * (lam + rho) + e * e, d)
                return diag[e]

            def mixed(a, b):
                return _power(det + a * rho + b * lam + a * b, d)

            dist = _face_distance(x, faces) if len(shells) else None
            cols = itertools.chain(  # lazily, one column's temporaries at a time
                map(same, m2_eps),
                (same(a) + same(b) - mixed(a, b) - mixed(b, a) for a, b in gaps),
                (0.5 * (mixed(a, b) + mixed(b, a)) for a, b in crosses),
                (np.maximum(same(0.0) - _power(lam * rho, d), 0.0) for _ in range(var)),
                (same(0.0) * (dist >= w) for w in shells),
            )
            out = np.empty((ncols, len(jac)))
            for row, col in zip(out, cols):
                np.multiply(col, jac, out=row)
            return out

        if len(shells):
            init = _shell_splits(4, faces, shells)
        else:
            init = [np.array([0.0, 0.5, 1.0])] * 4
        res = cubature.integrate(
            f, [0.0] * 4, [1.0] * 4,
            abs_tol=abs_tol / pref / 4.0, rel_tol=rel_tol,
            max_evals=max_evals // 2, init_splits=init,
        )
        total += 2.0 * res.value
        err += 2.0 * res.error
        runs.append(res)
    return _columns(total, err, runs, pref)


def m2(eps, cfg: ModelConfig, rel_tol=None):
    """Second moment E[I_eps^2], the 4D integral of
    ((lambda+eps)(rho+eps) - mu^2)^(-d/2) times (2 pi)^-d, to ``rel_tol``
    (default _M2_REL_TOL)."""
    if eps <= 0.0:
        raise ParameterError(f"eps must be positive, got {eps}")
    if rel_tol is None:
        rel_tol = _M2_REL_TOL
    (res,) = _moment_columns(cfg, _M2_ABS_TOL, rel_tol, _M2_MAX_EVALS, m2_eps=[eps])
    return _require_converged(res, "m2")


def m_cross(eps, eta, cfg: ModelConfig):
    """Cross moment E[I_eps I_eta]: asymmetric regularizers (lambda+eps),
    (rho+eta), symmetrized so the result is exactly invariant under
    eps <-> eta."""
    if eps <= 0.0 or eta <= 0.0:
        raise ParameterError("eps and eta must be positive")
    (res,) = _moment_columns(cfg, _M2_ABS_TOL, _M2_REL_TOL, _M2_MAX_EVALS,
                             crosses=[(eps, eta)])
    return _require_converged(res, "m_cross")


def cauchy_gap(eps, eta, cfg: ModelConfig):
    """L2 Cauchy gap ||I_eps - I_eta||^2 = m2(eps) + m2(eta) - 2 m_cross.

    Computed as a single fused integrand rather than a difference of
    separately computed integrals: the cancellation happens pointwise,
    where it is benign, instead of between finished quadratures.  Raises
    QuadratureBudgetError, carrying the partial result, when the budget
    runs out, as m2 does.
    """
    if eps <= 0.0 or eta <= 0.0:
        raise ParameterError("eps and eta must be positive")
    (res,) = _moment_columns(cfg, _M2_ABS_TOL, _GAP_REL_TOL, _M2_MAX_EVALS,
                             gaps=[(eps, eta)])
    return _require_converged(res, "cauchy_gap")


def m2_ladder(eps, cfg: ModelConfig, prev_eps=None, rel_tol=None):
    """m2 at every rung of the ladder ``eps`` and the Cauchy gap between
    each rung and the one before it, from one 4D pass per region over a
    shared mesh, with the budget of one m2 call.

    ``prev_eps`` is the rung before ``eps[0]``, if any.  m2 is integrated
    to ``rel_tol`` (default _M2_REL_TOL) and the gaps to cauchy_gap's
    tolerance; a component within its tolerance stops steering the
    refinement.  Returns (m2s, gaps), one
    QuadratureResult per rung each, ``gaps[k]`` being the gap to the
    previous rung (None for the first rung without ``prev_eps``); every
    result carries the cells and evaluations of the whole pass.  A budget
    hit is reported in the status of each result that missed its
    tolerance, not raised.
    """
    eps = [float(e) for e in eps]
    chain = eps if prev_eps is None else [float(prev_eps)] + eps
    if not eps or min(chain) <= 0.0:
        raise ParameterError(f"a ladder needs positive regularizers, got {chain}")
    pairs = list(zip(chain, chain[1:]))
    if rel_tol is None:
        rel_tol = _M2_REL_TOL
    tols = [rel_tol] * len(eps) + [_GAP_REL_TOL] * len(pairs)
    res = _moment_columns(cfg, _M2_ABS_TOL, tols, _M2_MAX_EVALS, m2_eps=eps, gaps=pairs)
    gaps = res[len(eps):]
    return res[: len(eps)], gaps if prev_eps is not None else [None] + gaps


def var_limit(cfg: ModelConfig):
    """Limit of Var[I_eps] as eps -> 0:
    int (lambda rho - mu^2)^(-d/2) - (lambda rho)^(-d/2), times (2 pi)^-d.

    Finite iff Hd < 2 (pointwise nonnegative integrand), integrated with
    m2's tolerances and budget; diverged result with the shells of A_T,
    times (2 pi)^-d, as evidence otherwise.
    """
    if _diverges(cfg):
        return _diverged_4d(cfg, 1.0)
    (res,) = _moment_columns(cfg, _M2_ABS_TOL, _M2_REL_TOL, _M2_MAX_EVALS, var=True)
    return _require_converged(res, "var_limit")


def a_t_integral(cfg: ModelConfig):
    """A_T = int_{[0,T]^4} (lambda rho - mu^2)^(-d/2): the m2 column at
    eps = 0 without its (2 pi)^-d, with m2's tolerances and budget; finite
    iff Hd < 2, diverged result with shell evidence otherwise."""
    unscale = (2.0 * math.pi) ** cfg.dim
    if _diverges(cfg):
        return _diverged_4d(cfg, unscale)
    (res,) = _moment_columns(cfg, _M2_ABS_TOL / unscale, _M2_REL_TOL, _M2_MAX_EVALS,
                             m2_eps=[0.0])
    return _require_converged(_scaled(res, unscale), "a_t_integral")


def _diverged_4d(cfg, scale):
    """Shell evidence for the eps = 0 4D integrals when Hd >= 2: A_T times
    (2 pi)^-d times ``scale``, outside boxes of width 4^-k around every
    singular face of both regions, k = 1..5, from one pass per region at
    the shells' tolerance and budget (_SHELL_*)."""
    shells = _moment_columns(cfg, 0.0, _SHELL_REL_TOL, _SHELL_MAX_EVALS, shells=_SHELL_WIDTHS)
    return _diverged(cfg, [_scaled(r, scale) for r in shells], _SHELL_WIDTHS, radial_rate(cfg),
                     "excluding width 4^-k around every singular face")


# ---------------------------------------------------------------------------
# appendix machinery

def _gamma_ratio(a, x):
    """G(a, x) = x^-a gamma(a, x), the lower incomplete gamma function
    (DLMF 8.2.1) over x^a, for a > 0 and x >= 0: decreasing in x from its
    value 1/a at x = 0.

    Below x = a + 1 (and below 700, so the partial sums stay finite) it is
    the series e^-x sum_n x^n / (a (a+1) ... (a+n)) (DLMF 8.7.1), whose
    terms decrease from the first, summed to the first term under 1e-17
    of the leading one; above, gammainc and gammaln in log space, where
    the regularized gamma(a, x) / Gamma(a) is at least about 1/2.
    x^-a is never formed: it overflows for small H.
    """
    out = np.empty_like(x)
    small = x < min(a + 1.0, 700.0)
    xs = x[small]
    xmax = xs.max(initial=0.0)
    term, nterms = 1.0, 0
    while term > 1e-17:
        nterms += 1
        term *= xmax / (a + nterms)
    ratios = xs / (a + np.arange(1.0, nterms + 1.0))[:, None]
    out[small] = np.exp(-xs) * (1.0 + np.cumprod(ratios, axis=0).sum(axis=0)) / a
    xl = x[~small]
    with np.errstate(divide="ignore"):  # log of an underflowed gammainc: G = 0
        out[~small] = np.exp(gammaln(a) + np.log(gammainc(a, xl)) - a * np.log(xl))
    return out


def a_z(z, cfg: ModelConfig):
    """A(z) = int_0^T int_0^t exp(-phi(t,v) z) dv dt, decreasing in z.

    With v = t*b and phi(t, t*b) = t^4H psi(b), the time integral has a
    closed form in the lower incomplete gamma function:
    A(z) = T^2 / (4H) int_0^1 G(1/(2H), z psi(b) T^4H) db with
    G(a, x) = x^-a gamma(a, x), so A(z) is a 1D adaptive integral over the
    angle b.  psi vanishes at both ends, where the integrand gathers at
    large z, so the interval is folded at b = 1/2 (angles b and 1 - b
    together, each end then near b = 0 where floats are dense) and b
    carries the smootherstep map over [0, 1/2].  The starting cells halve
    toward 0 down to the angle where z psi(b) T^4H ~ 1.  A budget hit is
    reported in the result's status, not raised.
    """
    if z < 0.0:
        raise ParameterError(f"z must be nonnegative, got {z}")
    h2 = 2.0 * cfg.hurst
    T = cfg.horizon
    a = 1.0 / h2
    scale = z * T ** (2.0 * h2)
    pref = T * T / (2.0 * h2)

    def f(x):
        b, db = _cluster_both(x[:, 0])
        psi = np.concatenate((_psi(b, h2), _psi(1.0 - b, h2, b)))  # angles b, 1 - b
        g = _gamma_ratio(a, scale * psi)
        return (g[: len(b)] + g[len(b):]) * db

    # psi(b) ~ b^2H and b ~ 10 alpha^3 near 0: z psi T^4H ~ 1 at
    # alpha ~ (scale^-a / 10)^(1/3)
    depth = 1
    if scale > 1.0:
        depth = math.ceil(min(1000.0, (a * math.log2(scale) + math.log2(10.0)) / 3.0))
    init = np.concatenate(([0.0], 0.5 ** np.arange(depth, 0, -1)))
    res = cubature.integrate(
        f, [0.0], [0.5],
        abs_tol=_A_Z_ABS_TOL / pref, rel_tol=_A_Z_REL_TOL, max_evals=_A_Z_MAX_EVALS,
        init_splits=[init],
    )
    return _scaled(_result(res.value, res.error, [res]), pref)


def reduction_bound(cfg: ModelConfig):
    """The z-transform route for int_T (phi(t,v) + phi(s,u))^(-d/2):
    (1 / Gamma(d/2)) int_0^inf z^(d/2-1) A(z)^2 dz, split at z = 1.

    Only established for Hd < 2 (the tail integrand decays like
    z^(d/2 - 1 - 1/H) up to logarithmic corrections).  Each A(z) is a 1D
    integral of the incomplete-gamma closed form (see a_z); both pieces
    are scipy quad calls at _REDUCTION_REL_TOL.  The status is "budget" when
    any A(z) evaluation hit its budget or either quad call reported a
    failure (its ier != 0: subdivision limit, roundoff, slow convergence),
    as at (0.6, 3), where the tail decays like z^-1.17.
    """
    if _diverges(cfg):
        raise ParameterError(
            f"reduction_bound requires Hd < 2, got Hd = {cfg.hd:g}"
        )
    d = cfg.dim
    cache = {}

    def g(z):
        if z not in cache:
            cache[z] = a_z(z, cfg)
        return z ** (0.5 * d - 1.0) * cache[z].value ** 2

    def piece(lo, hi):
        # with full_output, a fourth item (the message) means quad's ier != 0
        out = quad(g, lo, hi, epsrel=_REDUCTION_REL_TOL, epsabs=0.0, limit=200,
                   full_output=1)
        return out[0], out[1], len(out) == 3

    head, head_err, head_ok = piece(0.0, 1.0)
    tail, tail_err, tail_ok = piece(1.0, np.inf)
    gamma_half_d = math.gamma(0.5 * d)
    value = (head + tail) / gamma_half_d
    # claimed error: outer quadrature plus the propagated A(z) tolerance
    # (A enters squared, so its relative error roughly doubles).
    err = (head_err + tail_err) / gamma_half_d + 2.0 * _A_Z_REL_TOL * abs(value)
    ok = head_ok and tail_ok and _status(cache.values()) == "converged"
    return QuadratureResult(
        value=value, error_estimate=err, subdivisions=len(cache),
        status="converged" if ok else "budget", nevals=sum(r.nevals for r in cache.values()),
    )


def radial_rate(cfg: ModelConfig) -> float:
    """Exponent 3 - 2Hd of the radial factor in the spherical-coordinate
    lower bound; the radial integral converges iff it exceeds -1, i.e.
    iff Hd < 2."""
    return 3.0 - 2.0 * cfg.hd

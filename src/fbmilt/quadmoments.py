"""Deterministic quadrature of the moment integrals of the smoothed
intersection local time.

The first moment is a 2D integral of (eps + s^2H + t^2H)^(-d/2) (at
eps = 0, by homogeneity, a 1D one), the second moment and its
cross-regularizer variants are 4D integrals of
((lambda+eps)(rho+eta) - mu^2)^(-d/2) over [0,T]^4.  The 4D integrands
are unchanged by the role swap (s,t,u,v) -> (t,s,v,u) and by the pair
swap (s,t,u,v) -> (u,v,s,t), which between them carry t to every
coordinate, so each is four times its integral over {t largest}.  They
concentrate near the origin and near the plane (s,t) = (u,v), so
{t largest} is split by the orderings u < s and s < u, and each piece
is integrated in ratio coordinates in which both singular sets become
axis-aligned faces.  Determinants are evaluated by covkernel's _phi and
_cross, the cancellation-free decomposition
det = phi(t,v) + phi(s,u) + cross(s,t,u,v) of nonnegative terms, at ratio
coordinates: every term is homogeneous.

The second-moment family at eps > 0 (m2, Cauchy gaps)
shares one integrand map and one starting mesh: every column is a
combination of
P(a, b) = (det + a rho + b lam + a b)^(-d/2) over the same region
geometry, so a whole epsilon ladder's m2 values and adjacent gaps are the
components of one vector integral over a shared mesh (m2_ladder), and
every rung's m1 likewise (m1_ladder).  For each block of points, every
distinct P(a, b) is one row [a, b, ab, 1] of a coefficient matrix C:
the bases are the one product C @ [rho; lam; 1; det], raised to -d/2 in
one call, and the columns are the rows of M P for a combination matrix M
of +-1 and 1/2 (_moment_integrand).  m1's rungs are stacked the same way.

At eps = 0 the mapped integrand is zeta^(g-1), g = 8 - 4Hd, times its
value on the slice zeta = 1 (t = T): det is homogeneous of degree 4H in
the times, which scale as zeta^2, and the Jacobian carries zeta^7.  So
each eps = 0 integral is one 3D pass over (w, alpha, beta) times the
radial factor int_delta^1 zeta^(g-1) dzeta, finite at delta = 0 iff
Hd < 2.  Unless ModelConfig.regime is Convergent, the divergence
evidence is the radial exponent and shells growing as exclusions shrink:
[0, delta]^2 for m1(0), whose shells are radial factors of the same form,
and for the 4D integrals the slab zeta < delta and a box of width delta
around every singular face of the slice, each a union of starting cells.
A diverged result's status is "budget" when any shell missed its tolerance.

Every integral goes through one runner, _passes: a list of cubature
passes (an integrand and the starting mesh whose box it covers), each
with an equal share of the tolerance and budget, summed and scaled into
one QuadratureResult per component with its convergence status.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import List, Optional

import numpy as np

from . import cubature
from .covkernel import CRITICAL_TOL, ModelConfig, _check_range, _cross, _phi
from .errors import ParameterError, QuadratureBudgetError

__all__ = [
    "QuadratureResult",
    "m1",
    "m1_ladder",
    "m2",
    "m2_ladder",
    "cauchy_gap",
    "var_limit",
    "a_t_integral",
    "a_z",
    "reduction_bound",
    "radial_rate",
]

# tolerances and budgets, read at call time: those of m1 and of the
# second-moment family, the eps = 0 integrals included; a rel_tol
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

# divergence shells at eps = 0: m1(0)'s excluded squares [0, delta]^2 as
# delta / T, and the exclusion widths and tolerance of the 3D pass (per
# region) that gives every 4D shell
_M1_SHELL_WIDTHS = 4.0 ** -np.arange(1, 8)
_SHELL_WIDTHS = 4.0 ** -np.arange(1, 6)
_SHELL_REL_TOL = 3e-3

# the faces {x_i = e_i, x_j = e_j}, as (i, e_i, j, e_j), of each region's
# slice (w, alpha, beta) on which det vanishes: the diagonal (s,t) = (u,v)
# and where one of B_t - B~_s and B_v - B~_u is degenerate or the two
# coincide.  In 4D det also vanishes on the time origin zeta = 0
_SINGULAR_FACES = {
    "A": ((0, 0.0, 2, 0.0), (0, 0.0, 2, 1.0), (1, 0.0, 2, 0.0), (1, 1.0, 2, 1.0)),
    "B": ((0, 0.0, 2, 0.0), (0, 0.0, 2, 1.0), (1, 1.0, 2, 1.0)),
}


@dataclass
class QuadratureResult:
    """An integral with how it was obtained.

    ``status`` is "converged" when every underlying cubature met its
    tolerance and "budget" when any stopped short of it (its evaluation
    budget or its minimum cell width); ``nevals`` counts the integrand
    evaluations of all of them, ``subdivisions`` (a report's "cells")
    their cells, the starting ones plus two per split, and ``seconds`` the
    wall time of them all; a diverged result gives its innermost shell's.
    ``seconds`` takes no part in equality.  A result is ``diverged`` when
    it carries divergence shells.
    """

    value: float
    error_estimate: float
    subdivisions: int
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
    seconds: float = field(default=0.0, compare=False)

    @property
    def diverged(self) -> bool:
        return self.shells is not None


# ---------------------------------------------------------------------------
# region geometry (no validation; hot path of the integrands)

def _cluster_both(alpha):
    """Smootherstep map [0,1]->[0,1] clustering quadratically toward both 0
    and 1; returns (value, dvalue)."""
    a2 = alpha * alpha
    # clipped: within about 5e-6 of 1 the polynomial rounds above 1
    val = np.minimum(a2 * alpha * (10.0 + alpha * (6.0 * alpha - 15.0)), 1.0)
    dval = 30.0 * a2 * (1.0 - alpha) ** 2
    return val, dval


def _region_pieces(x, region, h, horizon):
    """Geometry of one time-ordering region in mapped unit-cube coordinates
    (w, zeta, alpha, beta).

    With t = T zeta^2 the largest time, region "A" is (u < s < t, v < t)
    via s = t w^2, u = s a, v = t b, and region "B" is (s < u < t, v < t)
    via u = t w^2, s = u a, v = t b: the map x -> T x^2 on the first
    coordinate with xi = zeta w, whose Jacobian carries the factor zeta.
    The angles a and b carry the smootherstep map toward both their ends.
    Returns (lam, rho, det, jac).
    """
    h2 = 2.0 * h
    w, ze, al, be = x[:, 0], x[:, 1], x[:, 2], x[:, 3]
    a, da = _cluster_both(al)
    b, db = _cluster_both(be)
    xi = ze * w
    p = horizon * xi * xi  # s in region A, u in region B
    r = horizon * ze * ze  # t in both regions
    jac = (2.0 * horizon * xi * ze) * (2.0 * horizon * ze) * (p * da) * (r * db)
    ph2 = p**h2
    rh2 = r**h2
    ah, ach = a**h2, (1.0 - a) ** h2
    bh, bch = b**h2, (1.0 - b) ** h2
    ar, br = np.sqrt(ah), np.sqrt(bh)
    if region == "A":
        lam = ph2 + rh2
        rho = ph2 * ah + rh2 * bh
        sh, uh = 1.0, ar
    else:
        lam = ph2 * ah + rh2
        rho = ph2 + rh2 * bh
        sh, uh = ar, 1.0
    # det = phi(t,v) + phi(s,u) + cross(s,t,u,v), each term homogeneous: in
    # ratio coordinates, (t, v) over t and (s, u) over p
    pa, pb = _phi(1.0, ah, ach), _phi(1.0, bh, bch)
    chi = _cross(1.0, br, sh, uh, 0.5 * (1.0 + bh - bch), 0.5 * (1.0 + ah - ach), pb, pa)
    det = rh2 * rh2 * pb + ph2 * ph2 * pa + ph2 * rh2 * chi
    return lam, rho, det, jac


def _power(base, dexp):
    """``base`` raised in place to -d/2 for d = ``dexp``, with 0 where that
    is not finite (a base that is 0 or so small that the power overflows).
    No general ``pow``: the reciprocal, raised to d // 2, times its square
    root when d is odd."""
    with np.errstate(divide="ignore", over="ignore"):
        np.reciprocal(base, out=base)
        root = np.sqrt(base) if dexp % 2 else None
        if dexp // 2 > 1:
            base **= dexp // 2
        if root is not None:
            base *= root
    base[~np.isfinite(base)] = 0.0
    return base


def _face_distance(x, faces):
    """Chebyshev distance from each point of ``x``, in the unit cube, to the
    nearest face {x_i = e_i, x_j = e_j} of ``faces``."""
    # distances to 0 and to 1 of each coordinate: |x - 1| is 1 - x exactly
    near = (x, 1.0 - x)
    dists = (np.maximum(near[int(ei)][:, i], near[int(ej)][:, j]) for i, ei, j, ej in faces)
    out = next(dists)
    for dist in dists:
        np.minimum(out, dist, out=out)
    return out


def _shell_splits(faces, widths):
    """Starting breakpoints of each axis of the slice: 0, 1/2, 1 and each
    edge of the boxes {|x_i - e_i| < w, |x_j - e_j| < w} around ``faces``,
    w in ``widths``: every cell lies wholly inside or outside each box."""
    axes = [{0.0, 0.5, 1.0} for _ in range(3)]
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


def _passes(passes, scale, abs_tol, rel_tol, max_evals):
    """``scale`` times the sum of the integrals of the pairs (f, axes) of
    ``passes``, each over the box its starting breakpoints ``axes`` span,
    with an equal share of ``abs_tol`` (of the scaled sum) and of
    ``max_evals``: one QuadratureResult per component, its status that
    component's in every pass, with the cells, evaluations and wall time of all."""
    start = time.perf_counter()
    n = len(passes)
    total = err = cells = evals = 0
    ok = True  # per component: within its tolerance in every pass
    for f, axes in passes:
        r = cubature.integrate(f, axes, abs_tol / scale / n, rel_tol, max_evals // n)
        total, err, ok = total + r.value, err + r.error, ok & r.converged
        cells, evals = cells + r.ncells, evals + r.nevals
    seconds = time.perf_counter() - start
    return [QuadratureResult(value=scale * v, error_estimate=scale * e, subdivisions=cells,
                             status="converged" if c else "budget", nevals=evals,
                             seconds=seconds)
            for v, e, c in zip(total.tolist(), err.tolist(), ok.tolist())]


def _require_converged(result, label):
    if result.status != "converged":
        raise QuadratureBudgetError(
            f"{label}: subdivision budget exhausted "
            f"(claimed error {result.error_estimate:.3e})",
            partial=result,
        )
    return result


def _radial_factor(g, width):
    """int_width^1 x^(g-1) dx for width in [0, 1): 1/g at width 0 (g > 0), else
    (-L) exprel(g L) with L = log(width) and exprel(x) = expm1(x) / x: finite
    at g = 0, no cancellation near it, inf where expm1 overflows (g < 0)."""
    if width == 0.0:
        return 1.0 / g
    L = math.log(width)
    x = g * L
    if abs(x) < 1e-5:  # exprel's series, to within x^3/24; no 0/0 at g = 0
        return -L * (1.0 + x / 2.0 + x * x / 6.0)
    with np.errstate(over="ignore"):
        return float(-L * (np.expm1(x) / x))


def _diverged(cfg, shells, widths, exponent, excluded):
    """A diverged result from the growing partial integrals ``shells`` over
    the complements of exclusions of ``widths`` (``excluded`` names them)
    and the exponent of the radial integrand near the origin.  Its value
    is the innermost shell's; its status "budget" if any shell missed its
    tolerance."""
    values = [r.value for r in shells]
    rate = float(np.polyfit(np.log(widths[-3:]), np.log(values[-3:]), 1)[0])
    if cfg.regime == "Critical":
        since = f"|Hd - 2| < {CRITICAL_TOL:g} (Critical band)"
    else:
        since = f"Hd = {cfg.hd:g} >= 2"
    evidence = (
        f"radial integrand ~ r^{exponent:g} near the origin, not integrable since "
        f"{since}; partial integrals {excluded} grow like width^{rate:.3g}, "
        f"without bound: {', '.join(f'{v:.4g}' for v in values)}"
    )
    return QuadratureResult(
        value=values[-1], error_estimate=math.inf, subdivisions=shells[-1].subdivisions,
        divergence_evidence=evidence,
        status=_status(shells), nevals=shells[-1].nevals,
        shells=shells, shell_widths=[float(w) for w in widths], shell_rate=rate,
        radial_exponent=exponent, seconds=shells[-1].seconds,
    )


# ---------------------------------------------------------------------------
# first moment

def _m1_columns(eps, cfg, rel_tol):
    """m1 at every regularizer in ``eps`` from one shared-mesh 2D pass,
    with the time axes mapped by x -> T x^2; one QuadratureResult each."""
    h2 = 2.0 * cfg.hurst
    d = cfg.dim
    T = cfg.horizon
    pref = (2.0 * math.pi) ** (-0.5 * d)
    rungs = np.array(eps)[:, None]

    def f(x):
        xi, ze = x[:, 0], x[:, 1]
        sh = (T * xi**2) ** h2
        th = (T * ze**2) ** h2
        jac = (2.0 * T) ** 2 * (xi * ze)
        out = _power(rungs + (sh + th), d)
        out *= jac
        return out

    return _passes([(f, [np.array([0.0, 0.25, 1.0])] * 2)], pref,
                   _M1_ABS_TOL, rel_tol, _M1_MAX_EVALS)


def m1(eps, cfg: ModelConfig, rel_tol=None):
    """First moment E[I_eps] = (2 pi)^(-d/2) * int (eps + s^2H + t^2H)^(-d/2),
    to ``rel_tol`` (default _M1_REL_TOL).

    eps = 0 is allowed; the limiting integral is finite iff Hd < 2, and a
    diverged result with shell evidence is returned unless cfg.regime is
    Convergent.  At eps = 0 it is one 1D integral by homogeneity: with
    s = t b on s < t the integrand is t^-Hd (1 + b^2H)^(-d/2), so with
    g = 2 - Hd and K = int_0^1 (1 + b^2H)^(-d/2) db, m1(0) = c / g for
    c = 2 (2 pi)^(-d/2) T^g K.  Where that diverges, the shell outside
    [0, delta]^2 is the part with t > delta on s < t:
    c int_delta^T t^(g-1) dt / T^g, the radial factor at delta / T.
    """
    _check_range("eps", eps, 0.0, closed=True)
    if rel_tol is None:
        rel_tol = _M1_REL_TOL
    if eps > 0.0:
        (res,) = _m1_columns([eps], cfg, rel_tol)
        return _require_converged(res, "m1")
    d, g = cfg.dim, 2.0 - cfg.hd
    (c,) = _passes([(lambda x: (1.0 + x[:, 0] ** (2.0 * cfg.hurst)) ** (-0.5 * d),
                     [np.array([0.0, 1.0])])],
                   2.0 * (2.0 * math.pi) ** (-0.5 * d) * cfg.horizon**g,
                   _M1_ABS_TOL, rel_tol, _M1_MAX_EVALS)
    if cfg.regime == "Convergent":
        return _require_converged(_scaled(c, _radial_factor(g, 0.0)), "m1")
    shells = [_scaled(c, _radial_factor(g, w)) for w in _M1_SHELL_WIDTHS]
    return _diverged(cfg, shells, cfg.horizon * _M1_SHELL_WIDTHS, 1.0 - cfg.hd,
                     "excluding [0,T*4^-k]^2")


def m1_ladder(eps, cfg: ModelConfig):
    """m1 at every positive regularizer in ``eps``, from one 2D pass over a
    shared mesh that refines until every one meets m1's default tolerance,
    with the budget of one m1 call.

    Returns one QuadratureResult per regularizer, each carrying the cells
    and evaluations of the whole pass.  A budget hit is reported in the
    status of each result that missed its tolerance, not raised.
    """
    eps = _check_range("eps", eps, 0.0).tolist()
    return _m1_columns(eps, cfg, _M1_REL_TOL)


# ---------------------------------------------------------------------------
# second moment family

def _moment_integrand(cfg, region, m2_eps=(), gaps=(), var=False):
    """One region's integrand of the second-moment family: maps (m, 4)
    mapped points to the (K, m) columns m2(e) for e in ``m2_eps``, the gap
    of each pair in ``gaps`` and the variance limit if ``var``, times the
    Jacobian.

    Each distinct P(a, b) = (det + a rho + b lam + ab)^(-d/2) is one row
    [a, b, ab, 1] of C: the bases are one GEMM C @ [rho; lam; 1; det] of
    nonnegative terms, raised to -d/2 together.  The m2 and gap columns
    are the rows of M P, M of +-1: P(e, e) and
    P(a, a) + P(b, b) - P(a, b) - P(b, a) (cancelling pointwise).  M is
    applied term by term: a GEMM over the 30-odd rows of P rounds a point
    by how many points share the call.
    The variance limit's is max(P(0, 0) - (lam rho)^(-d/2), 0).
    """
    d = cfg.dim
    pairs = [(e, e) for e in m2_eps]
    pairs += [ab for a, b in gaps for ab in ((a, a), (b, b), (a, b), (b, a))]
    if var:
        pairs.append((0.0, 0.0))
    index = {ab: i for i, ab in enumerate(dict.fromkeys(pairs))}  # row of each distinct P(a, b)
    coef = np.array([[a, b, a * b, 1.0] for a, b in index])
    diag = [index[e, e] for e in m2_eps]
    gap_rows = [(index[a, a], index[b, b], index[a, b], index[b, a]) for a, b in gaps]
    zero = index.get((0.0, 0.0))
    ncols = len(m2_eps) + len(gaps) + var

    def f(x):
        lam, rho, det, jac = _region_pieces(x, region, cfg.hurst, cfg.horizon)
        n = len(jac)
        p = _power(cubature._gemm(coef, np.stack((rho, lam, np.ones(n), det))), d)
        out = np.empty((ncols, n))
        cols = iter(out)
        for i in diag:
            np.copyto(next(cols), p[i])
        for i, j, k, l in gap_rows:
            col = np.add(p[i], p[j], out=next(cols))
            col -= p[k]
            col -= p[l]
        if var:
            np.maximum(p[zero] - _power(lam * rho, d), 0.0, out=next(cols))
        out *= jac
        return out

    return f


def _limit_integrand(cfg, region, widths, var):
    """One region's eps = 0 integrand on the slice zeta = 1 (t = T): maps
    (m, 3) points (w, alpha, beta) to the m2 column at eps = 0, or ``var``'s,
    outside the boxes of each width in ``widths`` around the singular faces,
    times its radial factor: the 4D integrand outside them and zeta < width."""
    f = _moment_integrand(cfg, region, m2_eps=[] if var else [0.0], var=var)
    radial = np.array([_radial_factor(8.0 - 4.0 * cfg.hd, w) for w in widths])[:, None]

    def on_slice(y):
        out = radial * f(np.insert(y.T, 1, 1.0, axis=0).T)  # zeta = 1
        if widths.any():  # a width 0 excludes nothing
            out *= _face_distance(y, _SINGULAR_FACES[region]) >= widths[:, None]
        return out

    return on_slice


def _moment_columns(cfg, rel_tol, m2_eps=(), gaps=()):
    """The second-moment family at eps > 0: one 4D pass per region of
    _moment_integrand's columns (which see) from [0, 1/2, 1] on each axis,
    times 4 (2 pi)^-d: {t largest} is a quarter of [0, T]^4.  Absolute
    tolerance _M2_ABS_TOL and budget _M2_MAX_EVALS."""
    init = [np.array([0.0, 0.5, 1.0])] * 4
    return _passes([(_moment_integrand(cfg, r, m2_eps, gaps), init) for r in "AB"],
                   4.0 * (2.0 * math.pi) ** (-cfg.dim), _M2_ABS_TOL, rel_tol, _M2_MAX_EVALS)


def m2(eps, cfg: ModelConfig, rel_tol=None):
    """Second moment E[I_eps^2], the 4D integral of
    ((lambda+eps)(rho+eps) - mu^2)^(-d/2) times (2 pi)^-d, to ``rel_tol``
    (default _M2_REL_TOL)."""
    _check_range("eps", eps, 0.0)
    if rel_tol is None:
        rel_tol = _M2_REL_TOL
    (res,) = _moment_columns(cfg, rel_tol, m2_eps=[eps])
    return _require_converged(res, "m2")


def cauchy_gap(eps, eta, cfg: ModelConfig):
    """L2 Cauchy gap ||I_eps - I_eta||^2 = m2(eps) + m2(eta) - 2 E[I_eps I_eta].

    Computed as a single fused integrand rather than a difference of
    separately computed integrals: the cancellation happens pointwise,
    where it is benign, instead of between finished quadratures.  Raises
    QuadratureBudgetError, carrying the partial result, when the budget
    runs out, as m2 does.
    """
    _check_range("eps", eps, 0.0)
    _check_range("eta", eta, 0.0)
    (res,) = _moment_columns(cfg, _GAP_REL_TOL, gaps=[(eps, eta)])
    return _require_converged(res, "cauchy_gap")


def m2_ladder(eps, cfg: ModelConfig, rel_tol=None):
    """m2 at every rung of the ladder ``eps`` and the Cauchy gap between
    each rung and the one before it, from one 4D pass per region over a
    shared mesh, with the budget of one m2 call.

    m2 is integrated to ``rel_tol`` (default _M2_REL_TOL) and the gaps to
    cauchy_gap's tolerance; a component within its tolerance stops
    steering the refinement.  Returns (m2s, gaps), one QuadratureResult
    per rung each, ``gaps[k]`` being the gap to the previous rung (None
    for the first rung); every result carries the cells and evaluations
    of the whole pass.  A budget hit is reported in the status of each
    result that missed its tolerance, not raised.
    """
    eps = _check_range("eps", eps, 0.0).tolist()
    pairs = list(zip(eps, eps[1:]))
    if rel_tol is None:
        rel_tol = _M2_REL_TOL
    tols = [rel_tol] * len(eps) + [_GAP_REL_TOL] * len(pairs)
    res = _moment_columns(cfg, tols, m2_eps=eps, gaps=pairs)
    return res[: len(eps)], [None] + res[len(eps):]


def var_limit(cfg: ModelConfig):
    """Limit of Var[I_eps] as eps -> 0:
    int (lambda rho - mu^2)^(-d/2) - (lambda rho)^(-d/2), times (2 pi)^-d.

    Finite iff Hd < 2 (pointwise nonnegative integrand), with m2's tolerances
    and budget; diverged, with A_T (2 pi)^-d's shells, unless Convergent.
    """
    return _limit(cfg, True, 1.0, "var_limit")


def a_t_integral(cfg: ModelConfig):
    """A_T = int_{[0,T]^4} (lambda rho - mu^2)^(-d/2): the m2 column at
    eps = 0 without its (2 pi)^-d, with m2's tolerances and budget; finite
    iff Hd < 2, diverged result with shell evidence unless Convergent."""
    return _limit(cfg, False, (2.0 * math.pi) ** cfg.dim, "a_t_integral")


def _limit(cfg, var, scale, label):
    """(2 pi)^-d ``scale`` times the variance limit (``var``) or A_T if
    Convergent to m2's tolerances, else A_T's shells at widths 4^-k, k = 1..5,
    to _SHELL_REL_TOL: one 3D pass per region of _limit_integrand, m2's budget."""
    diverged = cfg.regime != "Convergent"
    widths = _SHELL_WIDTHS if diverged else np.zeros(1)
    tols = (0.0, _SHELL_REL_TOL) if diverged else (_M2_ABS_TOL / scale, _M2_REL_TOL)
    passes = [(_limit_integrand(cfg, r, widths, var and not diverged),
               _shell_splits(_SINGULAR_FACES[r], widths)) for r in "AB"]
    res = [_scaled(r, scale)
           for r in _passes(passes, 4.0 * (2.0 * math.pi) ** (-cfg.dim), *tols, _M2_MAX_EVALS)]
    if not diverged:
        return _require_converged(res[0], label)
    return _diverged(cfg, res, _SHELL_WIDTHS, radial_rate(cfg),
                     "excluding width 4^-k around every singular face")


# ---------------------------------------------------------------------------
# appendix machinery

def _gamma_ratio(a, x):
    """G(a, x) = x^-a gamma(a, x), the lower incomplete gamma function
    (DLMF 8.2.1) over x^a, for a > 0 and x >= 0: decreasing in x from its
    value 1/a at x = 0.

    Below x = a + 1 (and below 700, where M, which grows like e^x, stays
    finite) it is e^-x M(1, a+1, x) / a (DLMF 8.5.1), M Kummer's function;
    above, gammainc and lgamma in log space, where the regularized
    gamma(a, x) / Gamma(a) is at least about 1/2.  x^-a is never formed:
    it overflows for small H.
    """
    from scipy.special import gammainc, hyp1f1  # only A(z) needs them; import fbmilt skips scipy

    def series(xs):
        return np.exp(-xs) * hyp1f1(1.0, a + 1.0, xs) / a

    def logspace(xl):
        with np.errstate(divide="ignore"):  # log of an underflowed gammainc: G = 0
            return np.exp(math.lgamma(a) + np.log(gammainc(a, xl)) - a * np.log(xl))

    small = x < min(a + 1.0, 700.0)
    if small.all():  # elementwise: the whole array takes the bits of its pieces
        return series(x)
    if not small.any():
        return logspace(x)
    out = np.empty_like(x)
    out[small] = series(x[small])
    out[~small] = logspace(x[~small])
    return out


def a_z(z, cfg: ModelConfig):
    """A(z) = int_0^T int_0^t exp(-phi(t,v) z) dv dt, decreasing in z.

    With v = t*b and phi(t, t*b) = t^4H psi(b), psi(b) = phi(1, b), the
    time integral has a closed form in the lower incomplete gamma function:
    A(z) = T^2 / (4H) int_0^1 G(1/(2H), z psi(b) T^4H) db with
    G(a, x) = x^-a gamma(a, x), so A(z) is a 1D adaptive integral over the
    angle b.  psi vanishes at both ends, where the integrand gathers at
    large z, so the interval is folded at b = 1/2 (angles b and 1 - b
    together, each end then near b = 0 where floats are dense) and b
    carries the smootherstep map over [0, 1/2].  The starting cells halve
    toward 0 down to the angle where z psi(b) T^4H ~ 1.  A budget hit is
    reported in the result's status, not raised.
    """
    _check_range("z", z, 0.0, closed=True)
    h2 = 2.0 * cfg.hurst
    T = cfg.horizon
    a = 1.0 / h2
    scale = z * T ** (2.0 * h2)
    pref = T * T / (2.0 * h2)

    def f(x):
        b, db = _cluster_both(x[:, 0])
        # rows b^2H and (1 - b)^2H, 1 - b exact where b is small; psi's rows
        # are the angles b and 1 - b, in one call
        powers = np.concatenate((b, 1.0 - b)).reshape(2, -1) ** h2
        g = _gamma_ratio(a, scale * _phi(1.0, powers, powers[::-1]))
        return (g[0] + g[1]) * db

    # psi(b) ~ b^2H and b ~ 10 alpha^3 near 0: z psi T^4H ~ 1 at
    # alpha ~ (scale^-a / 10)^(1/3)
    depth = 1
    if scale > 1.0:
        depth = math.ceil(min(1000.0, (a * math.log2(scale) + math.log2(10.0)) / 3.0))
    init = np.concatenate(([0.0], 0.5 ** np.arange(depth, 0, -1)))
    return _passes([(f, [init])], pref, _A_Z_ABS_TOL, _A_Z_REL_TOL, _A_Z_MAX_EVALS)[0]


def reduction_bound(cfg: ModelConfig):
    """The z-transform route for int_T (phi(t,v) + phi(s,u))^(-d/2):
    (1 / Gamma(d/2)) int_0^inf z^(d/2-1) A(z)^2 dz, split at z = 1.

    Only established for Hd < 2, so ParameterError unless cfg.regime is
    Convergent.  The tail over [1, inf) is integrated in u = log z, as
    int_0^inf e^(u d/2) A(e^u)^2 du, whose integrand decays like
    e^(-(1/H - d/2) u) up to logarithmic corrections; it is formed
    as the exponential of its logarithm, since e^(u d/2) overflows and
    A(e^u)^2 underflows long before their product is negligible.  Past
    u = log(max float), where e^u itself overflows, it is taken as 0; that
    cut is not negligible near Hd = 2, where (0.95, 2), (0.66, 3) and
    (0.49, 4) read "budget".  Each A(z) is a 1D integral of the
    incomplete-gamma closed form (see a_z); both pieces are scipy quad
    calls at _REDUCTION_REL_TOL.  The status is "budget" when any A(z)
    evaluation hit its budget or either quad call reported a failure (its
    ier != 0: subdivision limit, roundoff, slow convergence), as at
    (0.6, 3), where the tail decays like e^(-u / 6).
    """
    from scipy.integrate import quad  # only used here; import fbmilt skips it

    if cfg.regime != "Convergent":
        raise ParameterError(f"reduction_bound requires Hd < 2, got Hd = {cfg.hd:.12g}")
    start = time.perf_counter()
    d = cfg.dim
    parts = []  # the A(z) of each z the outer quadratures ask for; no z repeats

    def a(z):
        parts.append(a_z(z, cfg))
        return parts[-1].value

    def head(z):
        return z ** (0.5 * d - 1.0) * a(z) ** 2

    def tail(u):
        try:
            value = a(math.exp(u))
        except OverflowError:
            return 0.0
        return math.exp(0.5 * d * u + 2.0 * math.log(value)) if value > 0.0 else 0.0

    def piece(f, lo, hi):
        # with full_output, a fourth item (the message) means quad's ier != 0
        out = quad(f, lo, hi, epsrel=_REDUCTION_REL_TOL, epsabs=0.0, limit=200,
                   full_output=1)
        return out[0], out[1], len(out) == 3

    head_value, head_err, head_ok = piece(head, 0.0, 1.0)
    tail_value, tail_err, tail_ok = piece(tail, 0.0, np.inf)
    gamma_half_d = math.gamma(0.5 * d)
    value = (head_value + tail_value) / gamma_half_d
    # claimed error: outer quadrature plus the propagated A(z) tolerance
    # (A enters squared, so its relative error roughly doubles).
    err = (head_err + tail_err) / gamma_half_d + 2.0 * _A_Z_REL_TOL * abs(value)
    ok = head_ok and tail_ok and _status(parts) == "converged"
    return QuadratureResult(
        value=value, error_estimate=err, subdivisions=sum(r.subdivisions for r in parts),
        status="converged" if ok else "budget", nevals=sum(r.nevals for r in parts),
        seconds=time.perf_counter() - start,
    )


def radial_rate(cfg: ModelConfig) -> float:
    """Exponent 3 - 2Hd of t in the eps = 0 second-moment integrand on
    {t largest} at fixed angles (zeta^(g-1) dzeta, g = 8 - 4Hd, with
    t = T zeta^2): the radial integral converges iff it exceeds -1, i.e.
    iff Hd < 2."""
    return 3.0 - 2.0 * cfg.hd

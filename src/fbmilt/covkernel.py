"""Closed-form covariance algebra of a fractional Brownian motion pair.

Everything here is a pure function of time arguments and the Hurst
parameter: the fBm covariance R_H, the variances lambda/rho and covariance
mu of differences of the two independent processes, the associated
2x2 covariance determinants, and the lower incomplete gamma function with
its power bound.  All functions accept scalars or numpy arrays and
broadcast elementwise.  The determinants' cancellation-free algebra is
written once, in _phi and _cross, which take powers of the times without
validation: quadmoments' integrands call them at ratio coordinates.  The
lemma checks at the end are shared by ``fbmilt verify-lemmas`` and the
acceptance suite, each with its own bounds.

_check_range is the one owner of every real-valued input's range across
the package (Hurst index, horizon, times, regularizers, gamma arguments,
and the CLI's float flags), and _check_int of every integer input's (the
CLI's integer flags among them): each rejects NaN and +-inf.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

__all__ = [
    "ModelConfig",
    "cov_rh",
    "lambda_var",
    "mu_cov",
    "det_var_z",
    "cross_det",
    "phi_det",
    "lower_inc_gamma",
    "gamma_bound_k",
    "gamma_bound_excess",
    "superadditivity_violation",
    "homogeneity_mismatch",
    "angular_ratios",
]

# the lemma checks' Hurst indices, the (alpha, e = alpha * frac, x) grid of
# the power bound, and the angle of the unit-circle asymptotics
LEMMA_HURSTS = (0.25, 0.5, 0.75)
_GAMMA_ALPHAS = (0.25, 0.5, 1.0, 2.0, 4.0)
_GAMMA_FRACS = (0.25, 0.5, 0.75)
_GAMMA_XS = np.logspace(-6, 6, 121)
_ANGLE = 1e-5
CRITICAL_TOL = 1e-9  # |Hd - 2| below which ModelConfig.regime is Critical


@dataclass(frozen=True)
class ModelConfig:
    """The (H, d, T) triple every computation is parameterized by."""

    hurst: float
    dim: int
    horizon: float = 1.0

    def __post_init__(self):
        _check_range("hurst", self.hurst, 0.0, 1.0)
        _check_int("dim", self.dim, 2)
        _check_range("horizon", self.horizon, 0.0)

    @property
    def hd(self) -> float:
        return self.hurst * self.dim

    @property
    def regime(self) -> str:
        """Critical within CRITICAL_TOL of Hd = 2, else Convergent below it, Divergent above."""
        if abs(self.hd - 2.0) < CRITICAL_TOL:
            return "Critical"
        return "Convergent" if self.hd < 2.0 else "Divergent"


def _check_int(name, value, least):
    """Reject all but a Python or numpy integer >= ``least``: floats, whole
    ones included (they fail later where an integer is needed), and bools."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < least:
        raise ParameterError(f"{name} must be an integer >= {least}, got {value}")


def _check_range(name, x, low, high=math.inf, closed=False):
    """``x`` as a float array (0-d for a number) if it has entries and each
    lies in (low, high), or in [low, high) if ``closed``; else ParameterError
    naming ``name``.  NaN and +-inf always fail."""
    a = np.asarray(x, dtype=float)
    inside = (a >= low if closed else a > low) & (a < high)
    if not (a.size and inside.all()):
        bounds = f"{'[' if closed else '('}{low:g}, {high:g})"
        raise ParameterError(f"{name} must lie in {bounds}, got {x}")
    return a


def cov_rh(s, t, h):
    """fBm covariance R_H(s, t) = (t^2H + s^2H - |t-s|^2H) / 2.

    With lo <= hi the two times, hi^2H - (hi - lo)^2H is formed as
    -hi^2H expm1(2H log(1 - lo/hi)): as a difference of powers it loses
    every digit of a lo that is small against hi, down to a negative
    covariance.  log1p keeps the digits of a small lo/hi, and hi - lo is
    exact where lo > hi/2.
    """
    _check_range("hurst", h, 0.0, 1.0)
    s = _check_range("s", s, 0.0, closed=True)
    t = _check_range("t", t, 0.0, closed=True)
    h2 = 2.0 * h
    lo, hi = np.minimum(s, t), np.maximum(s, t)
    with np.errstate(divide="ignore", invalid="ignore"):  # hi = 0, or lo = hi
        q = lo / hi
        rest = np.where(q < 0.5, np.log1p(-q), np.log((hi - lo) / hi))
        gap = np.where(hi > 0.0, -hi**h2 * np.expm1(h2 * rest), 0.0)
    out = 0.5 * (lo**h2 + gap)
    return out if out.ndim else float(out)


def lambda_var(s, t, h):
    """Variance s^2H + t^2H of one coordinate of B_t - B~_s."""
    _check_range("hurst", h, 0.0, 1.0)
    s = _check_range("s", s, 0.0, closed=True)
    t = _check_range("t", t, 0.0, closed=True)
    out = s ** (2.0 * h) + t ** (2.0 * h)
    return out if out.ndim else float(out)


def mu_cov(s, t, u, v, h):
    """Covariance of (B_t - B~_s, B_v - B~_u) coordinates.

    Equals R_H(t, v) + R_H(s, u) by independence of the two processes,
    which matches the expanded six-power-term formula.
    """
    return cov_rh(t, v, h) + cov_rh(s, u, h)


def phi_det(t, v, h):
    """Determinant of Var(B_t, B_v) for a one-dimensional fBm,
    t^2H v^2H - R_H(t, v)^2, cancellation-free (see _phi)."""
    _check_range("hurst", h, 0.0, 1.0)
    t = _check_range("t", t, 0.0, closed=True)
    v = _check_range("v", v, 0.0, closed=True)
    h2 = 2.0 * h
    out = _phi(t**h2, v**h2, np.abs(t - v) ** h2)
    return out if out.ndim else float(out)


def _phi(a, b, c):
    """phi from the powers a = t^2H, b = v^2H and c = |t - v|^2H, no validation.

    Algebraically ab - (a + b - c)^2 / 4.  Near the diagonal t ~ v both
    terms are ~ t^4H and that form loses all significant digits, so there
    the exact rearrangement (a + b) c / 2 - (a - b)^2 / 4 - c^2 / 4 is
    used: stable when c is the small term, unstable when b (or a) is.
    Homogeneous of degree 2 in (a, b, c), and clipped at 0.
    """
    direct = a * b - 0.25 * (a + b - c) ** 2
    expanded = 0.5 * (a + b) * c - 0.25 * (a - b) ** 2 - 0.25 * c * c
    return np.maximum(np.where(c < 0.5 * (a + b), expanded, direct), 0.0)


def cross_det(s, t, u, v, h):
    """Mixed term t^2H u^2H + s^2H v^2H - 2 R_H(t,v) R_H(s,u).

    Nonnegative (by 0 <= R_H(t,v) <= t^H v^H); completes the exact identity
    det Var(Z) = phi(t,v) + phi(s,u) + cross_det(s,t,u,v).  Formed without
    cancellation near (s,t) = (u,v) (see _cross).
    """
    out = _det_terms(s, t, u, v, h)[2]
    return out if np.ndim(out) else float(out)


def det_var_z(s, t, u, v, h):
    """det Var(Z) = lambda(s,t) rho(u,v) - mu^2 for Z the difference pair.

    Computed through the exact decomposition
    phi(t,v) + phi(s,u) + cross_det(s,t,u,v), whose three terms are each
    nonnegative: the result is nonnegative by construction and does not
    suffer the lambda*rho vs mu^2 cancellation near (s,t) = (u,v).
    """
    out = sum(_det_terms(s, t, u, v, h))
    return out if np.ndim(out) else float(out)


def _det_terms(s, t, u, v, h):
    """(phi(t,v), phi(s,u), cross_det(s,t,u,v)), the phis computed once."""
    _check_range("hurst", h, 0.0, 1.0)
    s, t, u, v = (_check_range(name, x, 0.0, closed=True)
                  for name, x in (("s", s), ("t", t), ("u", u), ("v", v)))
    phi_tv, phi_su = phi_det(t, v, h), phi_det(s, u, h)
    cross = _cross(t**h, v**h, s**h, u**h, cov_rh(t, v, h), cov_rh(s, u, h), phi_tv, phi_su)
    return phi_tv, phi_su, cross


def _cross(th, vh, sh, uh, r_tv, r_su, phi_tv, phi_su):
    """cross_det from the powers t^H, v^H, s^H, u^H, R = R_H(t,v),
    R' = R_H(s,u) and the two phis, no validation: with X = t^H v^H and
    Y = s^H u^H, (t^H u^H - s^H v^H)^2 + 2 (XY - RR'), where
    XY - RR' = (X^2 phi(s,u) + R'^2 phi(t,v)) / (XY + RR') since
    phi = (time power product) - R^2; every term is nonnegative.
    Homogeneous of degree 2H in (t, v) and in (s, u) apart, so the powers
    may be of ratios: (t, v) over one time and (s, u) over another.
    """
    num = (th * vh) ** 2 * phi_su + r_su * r_su * phi_tv
    den = np.asarray(th * vh * sh * uh + r_tv * r_su)
    ratio = np.divide(num, den, out=np.zeros_like(den), where=den > 0.0)
    return (th * uh - sh * vh) ** 2 + 2.0 * ratio


def lower_inc_gamma(alpha, x):
    """Lower incomplete gamma function gamma(alpha, x) = int_0^x e^-y y^(alpha-1) dy.

    Gamma(alpha) times scipy's regularized gammainc; x = inf gives Gamma(alpha).
    """
    from scipy.special import gammainc  # only the gamma lemma check calls this; import fbmilt skips scipy

    _check_range("alpha", alpha, 0.0)
    if x != math.inf:
        _check_range("x", x, 0.0, closed=True)
    return math.gamma(alpha) * float(gammainc(alpha, x))


def gamma_bound_k(alpha):
    """Bounding constant K(alpha) = max(1/alpha, Gamma(alpha))."""
    _check_range("alpha", alpha, 0.0)
    return max(1.0 / alpha, math.gamma(alpha))


# lemma checks: each returns what it measures and applies no bound

def gamma_bound_excess():
    """(worst, checks): the largest gamma(alpha, x) - K(alpha) x^e over the
    grid of alpha, e = alpha * frac and x in [1e-6, 1e6], and the number
    of grid points.  The power bound holds on the grid iff worst <= 0."""
    excess = [lower_inc_gamma(alpha, x) - gamma_bound_k(alpha) * x ** (alpha * frac)
              for alpha in _GAMMA_ALPHAS for frac in _GAMMA_FRACS for x in _GAMMA_XS]
    return float(max(excess)), len(excess)


def superadditivity_violation(n, rng):
    """Largest violation of det Var(Z) >= phi(t, v) + phi(s, u), relative
    to max(1, lhs + rhs), or 0 if none: for each H, ``n`` draws from ``rng``
    of t, v = tU, s and u = sU in that order."""
    worst = 0.0
    for h in LEMMA_HURSTS:
        t = rng.uniform(0.0, 1.0, n)
        v = t * rng.uniform(0.0, 1.0, n)
        s = rng.uniform(0.0, 1.0, n)
        u = s * rng.uniform(0.0, 1.0, n)
        lhs = det_var_z(s, t, u, v, h)
        rhs = phi_det(t, v, h) + phi_det(s, u, h)
        worst = max(worst, float(((rhs - lhs) / np.maximum(1.0, lhs + rhs)).max()))
    return worst


def homogeneity_mismatch(n, rng):
    """Largest relative gap between phi(ct, cv) and c^4H phi(t, v) over
    ``n`` draws per H of t, v in [0.01, 1] and c in [0.01, 10] from ``rng``;
    near the diagonal, how ct - cv rounds sets it, so it depends on the draw."""
    worst = 0.0
    for h in LEMMA_HURSTS:
        t = rng.uniform(0.01, 1.0, n)
        v = rng.uniform(0.01, 1.0, n)
        c = rng.uniform(0.01, 10.0, n)
        base = phi_det(t, v, h)
        scaled = phi_det(c * t, c * v, h)
        rel = np.abs(scaled - c ** (4.0 * h) * base) / np.maximum(np.abs(scaled), 1e-300)
        worst = max(worst, float(rel.max()))
    return worst


def angular_ratios(h):
    """(lo, hi): phi_det(cos theta, sin theta) / delta^2H at theta = delta and
    pi/4 - delta, delta = 1e-5; on the unit circle phi vanishes like the 2H
    power of the angle at both ends of [0, pi/4], so both tend to 1."""
    scale = _ANGLE ** (2.0 * h)
    return tuple(phi_det(math.cos(theta), math.sin(theta), h) / scale
                 for theta in (_ANGLE, math.pi / 4.0 - _ANGLE))

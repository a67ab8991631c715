"""Closed-form covariance algebra of a fractional Brownian motion pair.

Everything here is a pure function of time arguments and the Hurst
parameter: the fBm covariance R_H, the variances lambda/rho and covariance
mu of differences of the two independent processes, the associated
2x2 covariance determinants, and the lower incomplete gamma function with
its power bound.  All functions accept scalars or numpy arrays and
broadcast elementwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc

from .errors import ParameterError

__all__ = [
    "ModelConfig",
    "cov_rh",
    "lambda_var",
    "mu_cov",
    "det_var_z",
    "cross_det",
    "phi_det",
    "phi_angular",
    "lower_inc_gamma",
    "gamma_bound_k",
]


@dataclass(frozen=True)
class ModelConfig:
    """The (H, d, T) triple every computation is parameterized by."""

    hurst: float
    dim: int
    horizon: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.hurst < 1.0):
            raise ParameterError(f"hurst must lie in (0, 1), got {self.hurst}")
        if int(self.dim) != self.dim or self.dim < 2:
            raise ParameterError(f"dim must be an integer >= 2, got {self.dim}")
        if not (self.horizon > 0.0):
            raise ParameterError(f"horizon must be positive, got {self.horizon}")

    @property
    def hd(self) -> float:
        return self.hurst * self.dim


def _check_hurst(h):
    if not (0.0 < h < 1.0):
        raise ParameterError(f"hurst must lie in (0, 1), got {h}")


def _check_nonneg(name, x):
    if np.any(np.asarray(x) < 0.0):
        raise ParameterError(f"{name} must be nonnegative")


def cov_rh(s, t, h):
    """fBm covariance R_H(s, t) = (t^2H + s^2H - |t-s|^2H) / 2."""
    _check_hurst(h)
    _check_nonneg("s", s)
    _check_nonneg("t", t)
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    h2 = 2.0 * h
    out = 0.5 * (t**h2 + s**h2 - np.abs(t - s) ** h2)
    return out if out.ndim else float(out)


def lambda_var(s, t, h):
    """Variance s^2H + t^2H of one coordinate of B_t - B~_s."""
    _check_hurst(h)
    _check_nonneg("s", s)
    _check_nonneg("t", t)
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    out = s ** (2.0 * h) + t ** (2.0 * h)
    return out if out.ndim else float(out)


def mu_cov(s, t, u, v, h):
    """Covariance of (B_t - B~_s, B_v - B~_u) coordinates.

    Equals R_H(t, v) + R_H(s, u) by independence of the two processes,
    which matches the expanded six-power-term formula.
    """
    return cov_rh(t, v, h) + cov_rh(s, u, h)


def phi_det(t, v, h):
    """Determinant of Var(B_t, B_v) for a one-dimensional fBm.

    Algebraically t^2H v^2H - (t^2H + v^2H - |t-v|^2H)^2 / 4.  Near the
    diagonal t ~ v both terms are ~ t^4H and the textbook form loses all
    significant digits, so an algebraically equivalent expansion around
    the |t-v|^2H term is used there.
    """
    _check_hurst(h)
    _check_nonneg("t", t)
    _check_nonneg("v", v)
    t = np.asarray(t, dtype=float)
    v = np.asarray(v, dtype=float)
    h2 = 2.0 * h
    a = t**h2
    b = v**h2
    c = np.abs(t - v) ** h2
    direct = a * b - 0.25 * (a + b - c) ** 2
    # phi = (a+b) c / 2 - (a-b)^2 / 4 - c^2 / 4, exact rearrangement:
    # stable when c is the small term, unstable when b (or a) is.
    expanded = 0.5 * (a + b) * c - 0.25 * (a - b) ** 2 - 0.25 * c * c
    out = np.where(c < 0.5 * (a + b), expanded, direct)
    out = np.maximum(out, 0.0)
    return out if out.ndim else float(out)


def cross_det(s, t, u, v, h):
    """Mixed term t^2H u^2H + s^2H v^2H - 2 R_H(t,v) R_H(s,u).

    Nonnegative (by R_H(t,v) <= t^H v^H); completes the exact identity
    det Var(Z) = phi(t,v) + phi(s,u) + cross_det(s,t,u,v).
    """
    _check_hurst(h)
    for name, x in (("s", s), ("t", t), ("u", u), ("v", v)):
        _check_nonneg(name, x)
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    h2 = 2.0 * h
    out = (t * u) ** h2 + (s * v) ** h2 - 2.0 * cov_rh(t, v, h) * cov_rh(s, u, h)
    out = np.maximum(out, 0.0)
    return out if out.ndim else float(out)


def det_var_z(s, t, u, v, h):
    """det Var(Z) = lambda(s,t) rho(u,v) - mu^2 for Z the difference pair.

    Computed through the exact decomposition
    phi(t,v) + phi(s,u) + cross_det(s,t,u,v), whose three terms are each
    nonnegative: the result is nonnegative by construction and does not
    suffer the lambda*rho vs mu^2 cancellation near (s,t) = (u,v).
    """
    out = phi_det(t, v, h) + phi_det(s, u, h) + cross_det(s, t, u, v, h)
    return out if np.ndim(out) else float(out)


def phi_angular(theta, h):
    """phi_det evaluated on the unit circle, phi(cos theta, sin theta).

    Defined for theta in [0, pi/4], the range the angular integrals run
    over; vanishes at both endpoints.
    """
    theta_arr = np.asarray(theta, dtype=float)
    if np.any(theta_arr < 0.0) or np.any(theta_arr > math.pi / 4 + 1e-15):
        raise ParameterError("theta must lie in [0, pi/4]")
    return phi_det(np.cos(theta_arr), np.sin(theta_arr), h)


def lower_inc_gamma(alpha, x):
    """Lower incomplete gamma function gamma(alpha, x) = int_0^x e^-y y^(alpha-1) dy.

    Gamma(alpha) times scipy's regularized gammainc.
    """
    if alpha <= 0.0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    if x < 0.0:
        raise ParameterError(f"x must be nonnegative, got {x}")
    return math.gamma(alpha) * float(gammainc(alpha, x))


def gamma_bound_k(alpha):
    """Bounding constant K(alpha) = max(1/alpha, Gamma(alpha))."""
    if alpha <= 0.0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    return max(1.0 / alpha, math.gamma(alpha))

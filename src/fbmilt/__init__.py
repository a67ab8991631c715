"""Intersection local time of two independent fractional Brownian motions:
exact path simulation, Monte Carlo estimation of the smoothed local time,
deterministic quadrature of its moment integrals, and classification of
the L2 phase transition at Hurst * dim = 2.
"""

from .covkernel import (
    ModelConfig,
    cov_rh,
    cross_det,
    det_var_z,
    gamma_bound_k,
    lambda_var,
    lower_inc_gamma,
    mu_cov,
    phi_det,
)
from .errors import IndeterminateError, ParameterError, QuadratureBudgetError
from .fbmgen import TimeGrid, sample_pair, sample_paths
from .iltmc import (
    MomentEstimate,
    discrete_mean,
    grid_for_eps,
    heat_kernel,
    ilt_epsilon,
    mc_moments,
)
from .phasescan import EpsSchedule, PhasePoint, SweepSeries, classify, phase_grid, sweep
from .quadmoments import (
    QuadratureResult,
    a_t_integral,
    a_z,
    cauchy_gap,
    m1,
    m2,
    radial_rate,
    reduction_bound,
    var_limit,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ModelConfig",
    "cov_rh",
    "lambda_var",
    "mu_cov",
    "det_var_z",
    "cross_det",
    "phi_det",
    "lower_inc_gamma",
    "gamma_bound_k",
    "ParameterError",
    "QuadratureBudgetError",
    "IndeterminateError",
    "TimeGrid",
    "sample_pair",
    "sample_paths",
    "MomentEstimate",
    "heat_kernel",
    "ilt_epsilon",
    "discrete_mean",
    "grid_for_eps",
    "mc_moments",
    "QuadratureResult",
    "m1",
    "m2",
    "cauchy_gap",
    "var_limit",
    "a_t_integral",
    "a_z",
    "reduction_bound",
    "radial_rate",
    "EpsSchedule",
    "SweepSeries",
    "PhasePoint",
    "sweep",
    "classify",
    "phase_grid",
]

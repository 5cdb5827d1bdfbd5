"""Terminal ray lengths in the rectangular half-Gilbert tessellation.

East growing rays (probability q seeds) and south growing rays interact in
the plane; this package evaluates the exact moment generating function of
the east test ray's terminal length, its closed-form and derivative-based
moments, and two independent Monte Carlo oracles that validate them.
"""

from .analytic import (
    ModelParams,
    MomentEntry,
    MomentReport,
    RESIDUAL_TOL,
    T_MAX,
    c_coefficient,
    closed_moments,
    integral_equation_residual,
    j_integral,
    k_integral,
    mgf,
    mgf_divergence_point,
    mgf_moments,
    mgf_special_half,
    ode_residual,
)
from .errors import (
    DenominatorError,
    DomainError,
    ExtrapolationError,
    NumericsError,
    PoleError,
    QuadratureConvergenceError,
    SeriesConvergenceError,
)
from .montecarlo import (
    PlaneConfig,
    SimConfig,
    SimStats,
    draw_samples,
    empirical_mgf,
    run_monte_carlo,
    simulate_plane,
)
from .specfun import (
    adaptive_quad,
    erfc_fn,
    gamma_fn,
    hermite_fn,
    hermite_fn_integral,
    kummer_1f1,
)

__version__ = "0.1.0"

__all__ = [
    "DenominatorError",
    "DomainError",
    "ExtrapolationError",
    "ModelParams",
    "MomentEntry",
    "MomentReport",
    "NumericsError",
    "PlaneConfig",
    "PoleError",
    "QuadratureConvergenceError",
    "RESIDUAL_TOL",
    "SeriesConvergenceError",
    "SimConfig",
    "SimStats",
    "T_MAX",
    "adaptive_quad",
    "c_coefficient",
    "closed_moments",
    "draw_samples",
    "empirical_mgf",
    "erfc_fn",
    "gamma_fn",
    "hermite_fn",
    "hermite_fn_integral",
    "integral_equation_residual",
    "j_integral",
    "k_integral",
    "kummer_1f1",
    "mgf",
    "mgf_divergence_point",
    "mgf_moments",
    "mgf_special_half",
    "ode_residual",
    "run_monte_carlo",
    "simulate_plane",
]

"""Closed-form layer for the east-ray length distribution.

Everything is expressed through the moment generating function

    M_t(y) = 1 + c(t) H_{q-1}((y - t)/sqrt(2)),

the expectation of exp(t X) where X is the horizontal distance still to be
covered when the live zone's left boundary has height y; M_t(0) is the MGF
of the terminal ray length itself.  The coefficient c(t) is fixed by the
defining integral equation of the process, and evaluating it requires the
closed forms of two erfc-times-Hermite integrals (`k_integral`,
`j_integral`).

All formulas here are for unit seed intensity.  The public moment
operations rescale by lam**(-k/2) for order k, which is exact: lengths in
a process of intensity lam are distributed as lengths at intensity one
divided by sqrt(lam).

Two residual probes (`ode_residual`, `integral_equation_residual`) tie the
implementation back to the equations that define it and are used by the
test suite and the validation report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DenominatorError, DomainError, ExtrapolationError
from .specfun import (
    _hermite_laplace,
    adaptive_quad,
    erfc_fn,
    gamma_fn,
    hermite_fn,
    kummer_1f1,
)

__all__ = [
    "ModelParams",
    "MomentEntry",
    "MomentReport",
    "RESIDUAL_TOL",
    "T_MAX",
    "c_coefficient",
    "closed_moments",
    "integral_equation_residual",
    "j_integral",
    "k_integral",
    "mgf",
    "mgf_divergence_point",
    "mgf_moments",
    "mgf_special_half",
    "ode_residual",
]

_SQRT2 = math.sqrt(2.0)
_SQRT_PI = math.sqrt(math.pi)
_SQRT_PI_OVER_2 = math.sqrt(0.5 * math.pi)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)

# Validated |t| domain for the MGF.  The closed forms are finite for all
# real t, but exp(t^2/2)-scale factors inside c(t) cancel against each
# other and digit loss grows past |t| ~ 5 (roughly two digits lost at the
# boundary); c_coefficient refuses to evaluate beyond it.
T_MAX = 5.0

_DENOMINATOR_EPS = 1e-12

# Largest ODE and integral-equation residual the validation verdict accepts.
RESIDUAL_TOL = 1e-5

# Derivative moments use central stencils with steps _FD_BASE_STEP / 2**i
# for i < _RICHARDSON_LEVELS, combined by Richardson extrapolation.
_FD_BASE_STEP = 0.1
_RICHARDSON_LEVELS = 4

_METHODS = ("closed", "mgf-derivative", "monte-carlo")


@dataclass(frozen=True)
class ModelParams:
    """Model parameters: H-seed probability q and seed intensity lam."""

    q: float
    lam: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.q < 1.0:
            raise ValueError(f"q must lie strictly inside (0, 1), got {self.q!r}")
        if not self.lam > 0.0:
            raise ValueError(f"lam must be positive, got {self.lam!r}")
        if not math.isfinite(self.lam):
            raise ValueError(f"lam must be finite, got {self.lam!r}")


@dataclass(frozen=True)
class MomentEntry:
    order: int
    value: float
    method: str
    std_error: float | None = None

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError("moment order must be a positive integer")
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got {self.method!r}")


@dataclass(frozen=True)
class MomentReport:
    """Ordered moment estimates with provenance and optional error bars."""

    params: ModelParams
    entries: tuple[MomentEntry, ...]

    def value(self, order: int) -> float:
        for entry in self.entries:
            if entry.order == order:
                return entry.value
        raise KeyError(f"no entry of order {order}")

    def std_error(self, order: int) -> float | None:
        for entry in self.entries:
            if entry.order == order:
                return entry.std_error
        raise KeyError(f"no entry of order {order}")


def _check_q(q: float) -> float:
    q = float(q)
    if not 0.0 < q < 1.0:
        raise DomainError(f"q must lie strictly inside (0, 1), got {q!r}")
    return q


def _check_t(t: float) -> float:
    t = float(t)
    if not math.isfinite(t):
        raise DomainError(f"t must be finite, got {t!r}")
    return t


# ---------------------------------------------------------------------------
# The two erfc * Hermite integrals
# ---------------------------------------------------------------------------


def k_integral(t: float, q: float) -> float:
    """Closed form of integral_{-t/sqrt(2)}^{0} erfc(z) H_{q-1}(z) dz.

    Composed of an integrated-by-parts boundary term in H_q and erfc plus a
    two-term 1F1 bracket at argument -t^2/2.  At t = 0 both pieces cancel
    to zero identically, which the tests use as an algebra check.
    """
    t = _check_t(t)
    q = _check_q(q)
    s = t / _SQRT2
    boundary = (
        2.0**q * _SQRT_PI / gamma_fn((1.0 - q) / 2.0)
        - erfc_fn(-s) * hermite_fn(q, -s)
    ) / (2.0 * q)
    half_pi_q = 0.5 * math.pi * q
    w = -0.5 * t * t
    bracket = _SQRT2 * t * math.cos(half_pi_q) * gamma_fn((q + 1.0) / 2.0) * kummer_1f1(
        (q + 1.0) / 2.0, 1.5, w
    ) + math.sin(half_pi_q) * gamma_fn(q / 2.0) * (kummer_1f1(q / 2.0, 0.5, w) - 1.0)
    return boundary + 2.0**q / (2.0 * q * math.pi) * bracket


def j_integral(t: float, q: float) -> float:
    """Closed form of integral_0^inf erfc((u-t)/sqrt(2)) H_{q-1}((u-t)/sqrt(2)) du.

    Equals sqrt(2) times k_integral plus a t-independent constant coming
    from the [0, inf) part of the shifted integration range.
    """
    t = _check_t(t)
    q = _check_q(q)
    constant = gamma_fn(-q / 2.0) / (4.0 * gamma_fn(1.0 - q)) - 2.0**q / (
        q * q * gamma_fn(-q / 2.0)
    )
    return _SQRT2 * (k_integral(t, q) + constant)


# ---------------------------------------------------------------------------
# MGF
# ---------------------------------------------------------------------------


def _mgf_denominator(t: float, q: float) -> float:
    # H_{q-1} enters differenced residual probes pointwise, so it is taken
    # from the cancellation-free Laplace route rather than the public
    # Kummer-combination evaluator (which loses ~exp(z^2) eps absolute for
    # z > 0); see specfun._hermite_laplace.
    return _SQRT_2_OVER_PI * math.exp(-0.5 * t * t) * _hermite_laplace(
        q - 1.0, -t / _SQRT2
    ) - q * j_integral(t, q)


def c_coefficient(t: float, q: float) -> float:
    """Coefficient c(t) multiplying the Hermite branch of the MGF.

    c(t) = t erfc(-t/sqrt(2)) / [ sqrt(2/pi) exp(-t^2/2) H_{q-1}(-t/sqrt(2))
                                  - q J(t, q) ].

    Raises DomainError outside |t| <= T_MAX and DenominatorError when the
    bracket falls below 1e-12 in magnitude.  The bracket has a simple zero
    at t* = mgf_divergence_point(q), where the underlying expectation
    E[exp(t X)] stops being finite; past t* the closed form continues
    analytically but no longer represents a moment generating function.
    """
    t = _check_t(t)
    q = _check_q(q)
    if abs(t) > T_MAX:
        raise DomainError(f"|t| = {abs(t)!r} exceeds the validated domain t_max = {T_MAX}")
    numerator = t * erfc_fn(-t / _SQRT2)
    denominator = _mgf_denominator(t, q)
    if abs(denominator) < _DENOMINATOR_EPS:
        raise DenominatorError(
            f"c(t) denominator {denominator!r} below {_DENOMINATOR_EPS} at t={t}, q={q}"
        )
    return numerator / denominator


def mgf_divergence_point(q: float, resolution: float = 1e-9) -> float:
    """Smallest t > 0 at which the MGF denominator vanishes, or inf.

    The terminal length has an exponential (not Gaussian) tail: a geometric
    number of sub-Gaussian hops compounds into P(X > x) ~ exp(-t* x) up to
    a slowly varying factor, so E[exp(t X)] diverges at the finite abscissa
    t*.  The closed form signals this through a simple zero of its
    denominator; this helper locates it by bisection on [0, T_MAX] (about
    1.53 at q = 0.2, 0.97 at q = 0.4, 0.27 at q = 0.8).  Returns inf when
    the denominator keeps its sign up to T_MAX.
    """
    q = _check_q(q)
    lo = 0.0
    hi = None
    step = 0.05
    t = step
    while t <= T_MAX + 1e-12:
        if _mgf_denominator(t, q) <= 0.0:
            hi = t
            lo = t - step
            break
        t += step
    if hi is None:
        return math.inf
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if _mgf_denominator(mid, q) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def mgf(t: float, y: float, q: float) -> float:
    """Moment generating function M_t(y) of the remaining horizontal distance.

    M_0(y) = 1 exactly (short-circuited); y must be nonnegative and t must
    lie inside the validated domain.  For t >= mgf_divergence_point(q) the
    expectation itself is infinite and the returned value is the analytic
    continuation of the closed form (it still satisfies the defining ODE
    and the y = 0 fixed-point relation, but it is not an MGF there).
    """
    t = _check_t(t)
    q = _check_q(q)
    y = float(y)
    if not y >= 0.0:
        raise DomainError(f"y must be nonnegative, got {y!r}")
    if t == 0.0:
        return 1.0
    # The defining ODE's general solution also carries an even 1F1 branch;
    # its coefficient is identically zero because that branch grows like
    # exp((y-t)^2/2) while M_t(y) -> 1 as y -> inf, so only the Hermite
    # branch appears here.
    return 1.0 + c_coefficient(t, q) * _hermite_laplace(q - 1.0, (y - t) / _SQRT2)


def mgf_special_half(t: float) -> float:
    """Ray-length MGF at q = 1/2, where the general form collapses to

        M(t) = 1 - 4 sqrt(2 pi) t H_{-1/2}(-t/sqrt(2))
                   / [ Gamma(-1/4) 1F1(-1/4; 1/2; t^2/2)
                       + sqrt(2) t Gamma(1/4) 1F1(1/4; 3/2; t^2/2) ].

    Kept as an independent formula (it never calls c_coefficient) so it can
    cross-check the general implementation.
    """
    t = _check_t(t)
    if abs(t) > T_MAX:
        raise DomainError(f"|t| = {abs(t)!r} exceeds the validated domain t_max = {T_MAX}")
    w = 0.5 * t * t
    numerator = 4.0 * math.sqrt(2.0 * math.pi) * t * hermite_fn(-0.5, -t / _SQRT2)
    denominator = gamma_fn(-0.25) * kummer_1f1(-0.25, 0.5, w) + _SQRT2 * t * gamma_fn(
        0.25
    ) * kummer_1f1(0.25, 1.5, w)
    if abs(denominator) < _DENOMINATOR_EPS:
        raise DenominatorError(f"q=1/2 MGF denominator vanished at t={t}")
    return 1.0 - numerator / denominator


# ---------------------------------------------------------------------------
# Moments
# ---------------------------------------------------------------------------


def closed_moments(
    params: ModelParams,
    orders: tuple[int, ...] = (1, 2, 3, 4),
    ray: str = "east",
) -> MomentReport:
    """Closed-form raw moments of terminal ray length for orders 1 to 4.

    All four are polynomials in G = Gamma((1-q)/2) / Gamma(1-q/2).  A south
    growing ray sees the marks inverted, so ray="south" evaluates the same
    formulas at 1-q.
    """
    if ray not in ("east", "south"):
        raise ValueError(f"ray must be 'east' or 'south', got {ray!r}")
    if not orders:
        raise ValueError("orders must be non-empty")
    if any(k not in (1, 2, 3, 4) for k in orders):
        raise ValueError(f"closed moments exist for orders 1..4 only, got {orders!r}")
    q = params.q if ray == "east" else 1.0 - params.q
    G = gamma_fn((1.0 - q) / 2.0) / gamma_fn(1.0 - 0.5 * q)
    by_order = {
        1: G / _SQRT2,
        2: q * G * G + 2.0,
        3: 3.0 * G / _SQRT2 * (1.0 + 2.0 * q + (q * G) ** 2),
        # The G^4 coefficient below is 3 q^3 / 4.  A circulated variant of
        # this formula carries 12/q instead, which contradicts both the
        # derivative-based values (e.g. 10512 vs 65.9721 at q = 0.4) and
        # the q -> 0 limit mu_4 -> 8; fitting the coefficient against
        # 50-digit MGF derivatives over q in {0.1, ..., 0.9} gives exactly
        # 3 q^3 / 4 (see README).
        4: 8.0 * (1.0 + q + q * (1.0 + 2.0 * q) * G * G + 0.75 * q**3 * G**4),
    }
    entries = tuple(
        MomentEntry(order=k, value=by_order[k] * params.lam ** (-0.5 * k), method="closed")
        for k in sorted(set(orders))
    )
    return MomentReport(params=params, entries=entries)


# Symmetric central-difference stencils with O(h^2) truncation error,
# as (offset, coefficient) pairs; divide by h**order.
_FD_STENCILS: dict[int, tuple[tuple[int, float], ...]] = {
    1: ((-1, -0.5), (1, 0.5)),
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
    3: ((-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)),
    4: ((-2, 1.0), (-1, -4.0), (0, 6.0), (1, -4.0), (2, 1.0)),
    5: ((-3, -0.5), (-2, 2.0), (-1, -2.5), (1, 2.5), (2, -2.0), (3, 0.5)),
    6: ((-3, 1.0), (-2, -6.0), (-1, 15.0), (0, -20.0), (1, 15.0), (2, -6.0), (3, 1.0)),
}


def _richardson_derivative(f, order: int, base_step: float) -> tuple[float, float]:
    """k-th derivative of f at 0 by stencils on base_step, base_step/2, ...
    plus Richardson extrapolation.

    Returns (value, uncertainty), the uncertainty being the difference of
    the two deepest extrapolants.  Raises ExtrapolationError when the
    extrapolation diagonal stops contracting by a wide margin, which
    signals that the step sizes are unusable for this function.
    """
    stencil = _FD_STENCILS[order]
    levels = _RICHARDSON_LEVELS
    estimates = []
    max_abs_f = 0.0
    for i in range(levels):
        h = base_step / 2.0**i
        values = [(coeff, f(offset * h)) for offset, coeff in stencil]
        max_abs_f = max(max_abs_f, max(abs(fv) for _, fv in values))
        estimates.append(math.fsum(c * fv for c, fv in values) / h**order)
    # Triangular Richardson table in powers of h^2.
    table = [estimates[0]]
    diffs: list[float] = []
    for i in range(1, levels):
        row = [estimates[i]]
        for j in range(1, i + 1):
            factor = 4.0**j
            row.append((factor * row[j - 1] - table[j - 1]) / (factor - 1.0))
        diffs.append(abs(row[i] - table[i - 1]))
        table = row
    value = table[-1]
    uncertainty = diffs[-1]
    # Diverged: halving h should shrink the diagonal differences fast.  A
    # final difference that fails to drop below half the best earlier one
    # signals that the h^2 error model does not hold, unless it is merely
    # the cancellation roundoff floor of the deepest stencil, which is
    # bounded by eps * sum|coeffs| * max|f| / h_min^order.
    h_min = base_step / 2.0 ** (levels - 1)
    coeff_mass = sum(abs(c) for _, c in stencil)
    roundoff_floor = 2.3e-16 * coeff_mass * max_abs_f / h_min**order
    if (
        len(diffs) >= 2
        and diffs[-1] > 0.5 * min(diffs[:-1])
        and diffs[-1] > max(50.0 * roundoff_floor, 1e-9 * (1.0 + abs(value)))
    ):
        raise ExtrapolationError(
            f"Richardson levels stopped contracting for order {order}: "
            f"diffs {['%.3e' % d for d in diffs]}"
        )
    return value, uncertainty


def mgf_moments(params: ModelParams, max_order: int = 4) -> MomentReport:
    """Raw moments mu_k = d^k/dt^k M_t(0) at t=0 for k = 1 .. max_order.

    Derivatives are taken numerically (central stencils plus Richardson
    extrapolation), so this path is independent of the closed-form moment
    expressions and works to order 6.
    """
    if not 1 <= max_order <= 6:
        raise ValueError(f"max_order must lie in [1, 6], got {max_order!r}")
    q = params.q

    def f(t: float) -> float:
        return mgf(t, 0.0, q)

    # The widest stencil reaches 3h, which must stay clear of the MGF pole
    # at t*(q) (0.13 at q = 0.9) or the difference quotients sample the
    # diverging branch and the extrapolation converges to garbage.
    base_step = _FD_BASE_STEP
    t_star = mgf_divergence_point(q, resolution=1e-6)
    if math.isfinite(t_star) and 3.0 * base_step > 0.7 * t_star:
        base_step = 0.7 * t_star / 3.0

    entries = []
    for k in range(1, max_order + 1):
        value, uncertainty = _richardson_derivative(f, k, base_step)
        scale = params.lam ** (-0.5 * k)
        entries.append(
            MomentEntry(
                order=k,
                value=value * scale,
                method="mgf-derivative",
                std_error=uncertainty * scale,
            )
        )
    return MomentReport(params=params, entries=tuple(entries))


# ---------------------------------------------------------------------------
# Residual probes
# ---------------------------------------------------------------------------


def ode_residual(t: float, y: float, q: float, h: float) -> float:
    """Residual of M'' - (y - t) M' - (1 - q) M = -(1 - q) in y.

    Derivatives are central differences with step h, so the expected
    magnitude for a correct MGF is the h^2 truncation error.  Requires
    y >= h > 0 to keep the stencil inside the domain.
    """
    if not h > 0.0:
        raise DomainError(f"h must be positive, got {h!r}")
    if not y >= h:
        raise DomainError(f"need y >= h for the central stencil, got y={y!r}, h={h!r}")
    m0 = mgf(t, y, q)
    mp = mgf(t, y + h, q)
    mm = mgf(t, y - h, q)
    d2 = (mp - 2.0 * m0 + mm) / (h * h)
    d1 = (mp - mm) / (2.0 * h)
    return d2 - (y - t) * d1 - (1.0 - q) * m0 + (1.0 - q)


def integral_equation_residual(t: float, q: float) -> float:
    """Residual of the defining fixed-point relation at y = 0:

        M_t(0) = (1-q) [1 + sqrt(pi/2) t e^(t^2/2) erfc(-t/sqrt(2))]
                 + q e^(t^2/2) sqrt(pi/2)
                   integral_0^inf erfc((u-t)/sqrt(2)) M_t(u) du.

    The u-integral is truncated at u = t + 9, where the erfc factor is
    below 3e-18 and M_t stays bounded, so the discarded tail is far below
    the 1e-6 scale this probe is read at.  This is the defining property
    of c(t): a wrong coefficient shows up here immediately.
    """
    t = _check_t(t)
    q = _check_q(q)
    upper = t + 9.0
    integral = adaptive_quad(
        lambda u: erfc_fn((u - t) / _SQRT2) * mgf(t, u, q), 0.0, upper
    )
    growth = math.exp(0.5 * t * t)
    rhs = (1.0 - q) * (
        1.0 + _SQRT_PI_OVER_2 * t * growth * erfc_fn(-t / _SQRT2)
    ) + q * growth * _SQRT_PI_OVER_2 * integral
    return mgf(t, 0.0, q) - rhs

"""Closed-form layer for the east-ray length distribution.

Everything is expressed through the moment generating function

    M_t(y) = 1 + c(t) H_{q-1}((y - t)/sqrt(2)),

the expectation of exp(t X) where X is the horizontal distance still to be
covered when the live zone's left boundary has height y; M_t(0) is the MGF
of the terminal ray length itself.  The coefficient c(t) is fixed by the
defining integral equation of the process.  The paper writes it through the
closed forms of two erfc-times-Hermite integrals (`k_integral`,
`j_integral`); their bracket equals erfc(-t/sqrt(2)) H_q(-t/sqrt(2)) /
sqrt(2), so c(t) = sqrt(2) t / H_q(-t/sqrt(2)), which is what is evaluated.
K and J stay as the oracle of that identity.

All formulas here are for unit seed intensity.  The public moment
operations rescale by lam**(-k/2) for order k, which is exact: lengths in
a process of intensity lam are distributed as lengths at intensity one
divided by sqrt(lam).

Two residual probes (`ode_residual`, `integral_equation_residual`) tie the
implementation back to the equations that define it and are used by the
test suite and the validation report.

c(t) depends on t alone, so M_t(.) at one t is a y-slice that shares one
c(t) across every y: the residual probes evaluate many y per t through one
slice.  `mgf_moments` needs no M_t at all beyond one check: its moments are
the t-series of M_t(0), a quotient of two Hermite-function series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DenominatorError, DomainError, NumericsError
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

# Validated |t| domain for the MGF; c_coefficient refuses to evaluate
# beyond it.  Nothing in the H_q form cancels past it: the bound stays only
# until the outputs there are pinned against a reference.
T_MAX = 5.0

_DENOMINATOR_EPS = 1e-12

# Largest ODE and integral-equation residual the validation verdict accepts.
RESIDUAL_TOL = 1e-5

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


def c_coefficient(t: float, q: float) -> float:
    """Coefficient c(t) = sqrt(2) t / H_q(-t/sqrt(2)) multiplying the Hermite
    branch of the MGF; the paper's form through K and J equals it (README).

    Raises DomainError outside |t| <= T_MAX and DenominatorError when
    H_q(-t/sqrt(2)) falls below 1e-12 in magnitude.  It has a simple zero at
    t* = mgf_divergence_point(q), where the underlying expectation
    E[exp(t X)] stops being finite; past t* the closed form continues
    analytically but no longer represents a moment generating function.
    """
    t = _check_t(t)
    q = _check_q(q)
    if abs(t) > T_MAX:
        raise DomainError(f"|t| = {abs(t)!r} exceeds the validated domain t_max = {T_MAX}")
    denominator = _hermite_laplace(q, -t / _SQRT2)
    if abs(denominator) < _DENOMINATOR_EPS:
        raise DenominatorError(
            f"c(t) denominator {denominator!r} below {_DENOMINATOR_EPS} at t={t}, q={q}"
        )
    return _SQRT2 * t / denominator


def mgf_divergence_point(q: float) -> float:
    """Smallest t > 0 at which H_q(-t/sqrt(2)), the denominator of c(t),
    vanishes, or inf when it keeps its sign up to T_MAX.

    The terminal length has an exponential (not Gaussian) tail: a geometric
    number of sub-Gaussian hops compounds into P(X > x) ~ exp(-t* x) / q,
    so E[exp(t X)] diverges at the finite abscissa t*.  The closed form
    signals this through a simple zero of its denominator, a pole
    M(t) ~ (t*/q) / (t* - t) (about 1.53 at q = 0.2, 0.97 at q = 0.4,
    0.27 at q = 0.8).

    f(t) = H_q(-t/sqrt(2)) has f' = -sqrt(2) q H_{q-1}(-t/sqrt(2)) < 0 and
    f'' = 2 q (q-1) H_{q-2}(-t/sqrt(2)) < 0, so Newton's method from t = 0
    overshoots t* once and then falls monotonically onto it; it stops when
    a step no longer moves t down.  The first step is clamped to T_MAX.
    """
    q = _check_q(q)
    t = 0.0
    f = _hermite_laplace(q, 0.0)
    while True:
        step = f / (_SQRT2 * q * _hermite_laplace(q - 1.0, -t / _SQRT2))
        next_t = min(t + step, T_MAX)
        if t > 0.0 and not next_t < t:
            return t
        t = next_t
        f = _hermite_laplace(q, -t / _SQRT2)
        if t == T_MAX and f > 0.0:
            return math.inf


def _mgf_in_y(t: float, q: float):
    """The slice y -> M_t(y) at fixed t and q, with c(t) computed once.

    The caller has checked t and q and checks each y.
    """
    if t == 0.0:
        return lambda y: 1.0
    # The defining ODE's general solution also carries an even 1F1 branch;
    # its coefficient is identically zero because that branch grows like
    # exp((y-t)^2/2) while M_t(y) -> 1 as y -> inf, so only the Hermite
    # branch appears here.
    c = c_coefficient(t, q)
    return lambda y: 1.0 + c * _hermite_laplace(q - 1.0, (y - t) / _SQRT2)


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
    return _mgf_in_y(t, q)(y)


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


def _rescale(value: float, lam: float, k: int) -> float:
    """value * lam**(-k/2): an order-k moment at unit intensity taken to
    intensity lam.  DomainError when the factor or the result overflows."""
    try:
        scaled = value * lam ** (-0.5 * k)
    except OverflowError:
        scaled = math.inf
    if not math.isfinite(scaled):
        raise DomainError(f"the order-{k} moment overflows a float at lam={lam!r}")
    return scaled


def closed_moments(
    params: ModelParams, orders: tuple[int, ...] = (1, 2, 3, 4)
) -> MomentReport:
    """Closed-form raw moments of the east ray's terminal length, orders 1 to 4.

    All four are polynomials in G = Gamma((1-q)/2) / Gamma(1-q/2).  A south
    growing ray sees the marks inverted, so its moments are these at 1-q.
    """
    if not orders:
        raise ValueError("orders must be non-empty")
    if any(k not in (1, 2, 3, 4) for k in orders):
        raise ValueError(f"closed moments exist for orders 1..4 only, got {orders!r}")
    q = params.q
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
        MomentEntry(order=k, value=_rescale(by_order[k], params.lam, k), method="closed")
        for k in sorted(set(orders))
    )
    return MomentReport(params=params, entries=entries)


def _hermite_series(nu: float, n: int) -> list[float]:
    """Coefficients of t^0 .. t^(n-1) in H_nu(-t/sqrt(2)).

    H_nu' = 2 nu H_(nu-1) and H_mu(0) = 2^mu sqrt(pi) / Gamma((1-mu)/2) give
    2^nu sqrt(pi) (-1/sqrt(2))^k nu (nu-1) ... (nu-k+1) / (k! Gamma((1-nu+k)/2)).
    """
    coeffs = []
    falling = 1.0
    for k in range(n):
        coeffs.append(
            2.0**nu * _SQRT_PI * (-1.0 / _SQRT2) ** k * falling
            / (math.factorial(k) * gamma_fn((1.0 - nu + k) / 2.0))
        )
        falling *= nu - k
    return coeffs


def mgf_moments(params: ModelParams, max_order: int = 4) -> MomentReport:
    """Raw moments mu_k = d^k/dt^k M_t(0) at t=0 for k = 1 .. max_order <= 6.

    The denominator of c(t) equals erfc(-t/sqrt(2)) H_q(-t/sqrt(2)) / sqrt(2),
    so M_t(0) = 1 + sqrt(2) t H_(q-1)(-t/sqrt(2)) / H_q(-t/sqrt(2)), and
    mu_k = k! sqrt(2) [t^(k-1)] of that quotient: one division of two power
    series whose coefficients are gamma ratios.  This path is independent of
    the closed-form moment expressions and has no truncation error.

    The gamma-ratio series shares no code with the quadrature route of c(t),
    so one M(h) is evaluated as a check, at h well inside the pole t*, which
    the ratio of the last two coefficients estimates; the two must agree to
    1e-6 relative to M(h) - 1, or NumericsError is raised.
    """
    if not 1 <= max_order <= 6:
        raise ValueError(f"max_order must lie in [1, 6], got {max_order!r}")
    q = params.q
    num = _hermite_series(q - 1.0, 6)
    den = _hermite_series(q, 6)
    c: list[float] = []
    for k in range(6):
        c.append((num[k] - math.fsum(c[j] * den[k - j] for j in range(k))) / den[0])
    h = min(0.05, abs(c[4] / c[5]) / 16.0)
    m = mgf(h, 0.0, q)
    s = 1.0 + _SQRT2 * h * math.fsum(ck * h**k for k, ck in enumerate(c))
    if not abs(m - s) <= 1e-6 * abs(m - 1.0):
        raise NumericsError(
            f"moment series gives M({h!r}) = {s!r} but the MGF is {m!r} at q={q}"
        )
    entries = tuple(
        MomentEntry(
            order=k,
            value=_rescale(math.factorial(k) * _SQRT2 * c[k - 1], params.lam, k),
            method="mgf-derivative",
        )
        for k in range(1, max_order + 1)
    )
    return MomentReport(params=params, entries=entries)


# ---------------------------------------------------------------------------
# Residual probes
# ---------------------------------------------------------------------------


def ode_residual(t: float, y: float, q: float, h: float) -> tuple[float, float]:
    """(residual, M_t(y)): the residual of M'' - (y - t) M' - (1 - q) M =
    -(1 - q) in y, and the value of M_t(y) it used.

    Derivatives are central differences with step h, so the expected
    magnitude for a correct MGF is the h^2 truncation error.  Requires
    y >= h > 0 to keep the stencil inside the domain.
    """
    if not h > 0.0:
        raise DomainError(f"h must be positive, got {h!r}")
    if not y >= h:
        raise DomainError(f"need y >= h for the central stencil, got y={y!r}, h={h!r}")
    m = _mgf_in_y(_check_t(t), _check_q(q))
    m0 = m(y)
    mp = m(y + h)
    mm = m(y - h)
    d2 = (mp - 2.0 * m0 + mm) / (h * h)
    d1 = (mp - mm) / (2.0 * h)
    return d2 - (y - t) * d1 - (1.0 - q) * m0 + (1.0 - q), m0


def _erfc_hermite_tail(q: float, w0: float) -> float:
    """I(w0) = integral_{w0}^inf erfc(w) H_{q-1}(w) dw, as one quadrature.

    Put H_{q-1}(w) = (1/Gamma(1-q)) integral_0^inf s^(-q) e^(-s^2-2sw) ds
    under the w-integral and swap the order.  By parts, as erfc' =
    -(2/sqrt(pi)) e^(-w^2), each inner integral_{w0}^inf erfc(w) e^(-2sw) dw
    is [erfc(w0) e^(-2s w0) - e^(s^2) erfc(w0 + s)] / (2s), so

        I(w0) = (1/(2 Gamma(1-q))) integral_0^inf s^(-q-1)
                [erfc(w0) e^(-s^2 - 2s w0) - erfc(w0 + s)] ds.

    The bracket is divided by erfc(w0), keeping the quadrature's absolute
    tolerance relative to I; its Taylor series is sum_{k>=1} s^k (c_k +
    r c_(k-1) / k), with c_k as in `_hermite_laplace` and r = (2/sqrt(pi))
    e^(-w0^2) / erfc(w0).  The head [0, 1/4] is integrated termwise against
    s^(-q-1), the rest by `adaptive_quad`.
    """
    e = erfc_fn(w0)
    r = 2.0 / _SQRT_PI * math.exp(-w0 * w0) / e
    delta = 0.25
    c_prev, c_curr = 0.0, 1.0
    terms = []
    for k in range(1, 200):
        c_prev, c_curr = c_curr, -(2.0 * w0 * c_curr + 2.0 * c_prev) / k
        terms.append((c_curr + r * c_prev / k) * delta ** (k - q) / (k - q))
        if k > 1 and max(abs(terms[-1]), abs(terms[-2])) < 1e-18 * abs(terms[0]):
            break
    bracket = lambda s: math.exp(-s * (s + 2.0 * w0)) - erfc_fn(w0 + s) / e
    rest = adaptive_quad(lambda s: s ** (-q - 1.0) * bracket(s), delta,
                         max(-w0, 0.0) + 8.0, abs_tol=1e-14, rel_tol=5e-14)
    return e * (math.fsum(terms) + rest) / (2.0 * gamma_fn(1.0 - q))


def integral_equation_residual(t: float, q: float) -> float:
    """Residual of the defining fixed-point relation at y = 0:

        M_t(0) = (1-q) [1 + sqrt(pi/2) t e^(t^2/2) erfc(-t/sqrt(2))]
                 + q e^(t^2/2) sqrt(pi/2)
                   integral_0^inf erfc((u-t)/sqrt(2)) M_t(u) du.

    With w0 = -t/sqrt(2) the u-integral is sqrt(2) integral_{w0}^inf erfc(w)
    [1 + c(t) H_{q-1}(w)] dw: sqrt(2) [e^(-w0^2)/sqrt(pi) - w0 erfc(w0)]
    plus sqrt(2) c(t) `_erfc_hermite_tail`, not `j_integral`, with which this
    would restate the paper-form identity.  A wrong c(t) shows up here.
    """
    t = _check_t(t)
    q = _check_q(q)
    w0 = -t / _SQRT2
    e = erfc_fn(w0)
    integral = _SQRT2 * (math.exp(-w0 * w0) / _SQRT_PI - w0 * e)
    m0 = 1.0
    if t != 0.0:
        c = c_coefficient(t, q)
        m0 += c * _hermite_laplace(q - 1.0, w0)
        integral += _SQRT2 * c * _erfc_hermite_tail(q, w0)
    growth = math.exp(0.5 * t * t)
    rhs = (1.0 - q) * (
        1.0 + _SQRT_PI_OVER_2 * t * growth * e
    ) + q * growth * _SQRT_PI_OVER_2 * integral
    return m0 - rhs

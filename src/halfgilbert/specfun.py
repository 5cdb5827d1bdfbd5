"""Real-argument special functions used by the closed-form layer.

Provides gamma (including negative non-integer arguments), the complementary
error function, the Kummer confluent hypergeometric function 1F1, and the
Hermite function H_v of non-integer order v, as a two-term 1F1
combination (`hermite_fn`) and, for -3 < v < 1, as the Laplace-type
integral the MGF layer evaluates.  The test suite checks both against
direct quadrature or a 40-digit reference.

Everything here is a pure function of its arguments and is safe to call
concurrently.
"""

from __future__ import annotations

import heapq
import math

from .errors import (
    DomainError,
    PoleError,
    QuadratureConvergenceError,
    SeriesConvergenceError,
)

__all__ = [
    "adaptive_quad",
    "erfc_fn",
    "gamma_fn",
    "hermite_fn",
    "kummer_1f1",
]

_SQRT_PI = math.sqrt(math.pi)

# Proximity to a non-positive integer at which gamma_fn refuses to evaluate.
# Explicit failure beats silent catastrophic digit loss next to a pole.
_POLE_EPS = 1e-9

# Lower z bound for _hermite_laplace: exp(z^2)-scale values overflow double
# precision once z^2 > 709, so 26^2 = 676 keeps a safety margin.
_HERMITE_Z_MAX = 26.0

# |z| bound for hermite_fn.  Its two 1F1 terms grow like exp(z^2) and
# cancel: against a 40-digit reference over -1 < v < 3 the error relative
# to max(|H|, 1) stays below 1e-8 for |z| <= 4 (worst 8.7e-9 at v = -0.95,
# z = 4), but H_{-0.6}(7) comes out as -459820 and |z| = 30 overflows.
_KUMMER_Z_MAX = 4.0

# Upper z bound for _hermite_laplace.  Its head series cancels more as z
# grows: against a 40-digit reference its relative error stays below
# 1.5e-12 up to z = 20 (v = -0.95, -0.6, -0.35, -0.05), but reaches 9e-11
# at z = 30 and 3e-6 at z = 50, and the value is garbage by z = 100.
_LAPLACE_Z_MAX = 20.0

# The 1F1 series stops once a term falls below this fraction of the partial
# sum twice in a row (guarding against an accidental zero crossing of one
# term), and raises SeriesConvergenceError after _SERIES_MAX_TERMS terms.
_SERIES_REL_TOL = 1e-16
_SERIES_MAX_TERMS = 500

# Panel budget of adaptive_quad before QuadratureConvergenceError.
_QUAD_MAX_PANELS = 400


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# gamma
# ---------------------------------------------------------------------------

# Lanczos approximation, g = 7, n = 9 (Godfrey's published coefficients).
# Relative error is below 3e-13 on (-5, 5) away from pole neighborhoods.
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _lanczos_gamma(x: float) -> float:
    # valid for x >= 0.5
    xm1 = x - 1.0
    acc = _LANCZOS_COEFFS[0]
    for i in range(1, len(_LANCZOS_COEFFS)):
        acc += _LANCZOS_COEFFS[i] / (xm1 + i)
    t = xm1 + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (xm1 + 0.5) * math.exp(-t) * acc


def gamma_fn(x: float) -> float:
    """Gamma function for real x away from its poles.

    Arguments below 1/2 are routed through the reflection identity
    Gamma(x) Gamma(1-x) = pi / sin(pi x), which covers negative non-integer
    x.  Raises PoleError when x is within 1e-9 of zero or a negative
    integer.
    """
    x = _require_finite("x", x)
    if x < 0.5:
        nearest = round(x)
        if nearest <= 0 and abs(x - nearest) < _POLE_EPS:
            raise PoleError(f"gamma pole: x={x!r} is within {_POLE_EPS} of {int(nearest)}")
        return math.pi / (math.sin(math.pi * x) * _lanczos_gamma(1.0 - x))
    return _lanczos_gamma(x)


def _reciprocal_gamma(x: float) -> float:
    """1/Gamma(x), returning exactly 0.0 at (near-)non-positive integers."""
    nearest = round(x)
    if nearest <= 0 and abs(x - nearest) < _POLE_EPS:
        return 0.0
    return 1.0 / gamma_fn(x)


# ---------------------------------------------------------------------------
# erfc
# ---------------------------------------------------------------------------


def erfc_fn(x: float) -> float:
    """Complementary error function erfc(x) = 1 - erf(x).

    Thin validated wrapper over the C library implementation; underflows
    to zero gracefully for large positive x.
    """
    x = _require_finite("x", x)
    return math.erfc(x)


# ---------------------------------------------------------------------------
# Kummer 1F1
# ---------------------------------------------------------------------------


def kummer_1f1(a: float, b: float, z: float) -> float:
    """Confluent hypergeometric function 1F1(a; b; z) for real arguments.

    Negative z is always rewritten through the Kummer transformation
    1F1(a;b;z) = exp(z) 1F1(b-a;b;-z) so the ascending series is summed
    with eventually same-signed terms (the direct series at z < 0
    alternates and cancels catastrophically).
    """
    a = _require_finite("a", a)
    b = _require_finite("b", b)
    z = _require_finite("z", z)
    nearest = round(b)
    if nearest <= 0 and abs(b - nearest) < _POLE_EPS:
        raise PoleError(f"1F1 parameter pole: b={b!r} is a non-positive integer")
    if z < 0.0:
        return math.exp(z) * _kummer_series(b - a, b, -z)
    return _kummer_series(a, b, z)


def _kummer_series(a: float, b: float, z: float) -> float:
    terms = [1.0]
    term = 1.0
    partial = 1.0
    small_streak = 0
    for k in range(_SERIES_MAX_TERMS):
        term *= (a + k) * z / ((b + k) * (k + 1.0))
        terms.append(term)
        partial += term
        if abs(term) <= _SERIES_REL_TOL * abs(partial):
            small_streak += 1
            if small_streak >= 2:
                # fsum removes accumulation roundoff; matters when large
                # terms cancel (z sizable, a < 0).
                return math.fsum(terms)
        else:
            small_streak = 0
    raise SeriesConvergenceError(
        f"1F1({a}, {b}, {z}) did not converge within {_SERIES_MAX_TERMS} terms"
    )


# ---------------------------------------------------------------------------
# Adaptive Gauss-Kronrod quadrature
# ---------------------------------------------------------------------------

# 15-point Kronrod rule with embedded 7-point Gauss rule (QUADPACK dqk15).
_XGK = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.0,
)
_WGK = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715526,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)
_WG = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
)

_EPS = 2.220446049250313e-16


def _gk15(f, a: float, b: float) -> tuple[float, float, float]:
    """One Kronrod panel. Returns (integral, error estimate, abs mass)."""
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = f(center)
    resk = _WGK[7] * fc
    resg = _WG[3] * fc
    resabs = _WGK[7] * abs(fc)
    fvals = [fc]
    for i in range(7):
        dx = half * _XGK[i]
        f1 = f(center - dx)
        f2 = f(center + dx)
        fvals.append(f1)
        fvals.append(f2)
        resk += _WGK[i] * (f1 + f2)
        resabs += _WGK[i] * (abs(f1) + abs(f2))
        if i % 2 == 1:
            resg += _WG[i // 2] * (f1 + f2)
    reskh = 0.5 * resk
    resasc = _WGK[7] * abs(fc - reskh)
    idx = 1
    for i in range(7):
        resasc += _WGK[i] * (abs(fvals[idx] - reskh) + abs(fvals[idx + 1] - reskh))
        idx += 2
    integral = resk * half
    resabs *= abs(half)
    resasc *= abs(half)
    err = abs((resk - resg) * half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > 0.0:
        err = max(_EPS * 50.0 * resabs, err)
    return integral, err, resabs


def adaptive_quad(
    f, a: float, b: float, *, abs_tol: float = 1e-10, rel_tol: float = 1e-10
) -> float:
    """Integrate f over [a, b] by adaptive bisection of Kronrod panels.

    Convergence is declared when the summed panel error estimates drop
    below max(abs_tol, rel_tol * |integral|, roundoff floor); the floor
    (50 eps times the accumulated absolute mass) keeps tolerance requests
    beyond double precision from spinning until the panel budget is
    exhausted.  Raises QuadratureConvergenceError if 400 panels are not
    enough, and ValueError unless both tolerances are positive.
    """
    if not abs_tol > 0.0:
        raise ValueError(f"abs_tol must be positive, got {abs_tol!r}")
    if not rel_tol > 0.0:
        raise ValueError(f"rel_tol must be positive, got {rel_tol!r}")
    a = _require_finite("a", a)
    b = _require_finite("b", b)
    if a == b:
        return 0.0
    # Start from several panels: a single Kronrod panel can agree with its
    # embedded Gauss rule by accident and report a spuriously small error.
    initial = max(2, min(16, math.ceil(abs(b - a))))
    edges = [a + (b - a) * i / initial for i in range(initial + 1)]
    # heap entries: (-error, tie-break counter, a, b, integral, mass)
    counter = 0
    panels = []
    for lo, hi in zip(edges, edges[1:]):
        integral, err, mass = _gk15(f, lo, hi)
        heapq.heappush(panels, (-err, counter, lo, hi, integral, mass))
        counter += 1
    while True:
        total_err = -math.fsum(p[0] for p in panels)
        total = math.fsum(p[4] for p in panels)
        total_mass = math.fsum(p[5] for p in panels)
        # Each panel's estimate is already floored at 50 eps x its mass, so
        # the acceptance floor must sit above the sum of those panel floors.
        floor = 200.0 * _EPS * total_mass
        if total_err <= max(abs_tol, rel_tol * abs(total), floor):
            return total
        if len(panels) >= _QUAD_MAX_PANELS:
            raise QuadratureConvergenceError(
                f"quadrature on [{a}, {b}] stalled at error {total_err:.3e} "
                f"after {len(panels)} panels"
            )
        neg_err, _, pa, pb, _, _ = heapq.heappop(panels)
        mid = 0.5 * (pa + pb)
        for lo, hi in ((pa, mid), (mid, pb)):
            integral, err, mass = _gk15(f, lo, hi)
            counter += 1
            heapq.heappush(panels, (-err, counter, lo, hi, integral, mass))


# ---------------------------------------------------------------------------
# Hermite function of non-integer order
# ---------------------------------------------------------------------------


def hermite_fn(v: float, z: float) -> float:
    """Hermite function H_v(z) for real order v > -1.

    Evaluated as the standard two-term Kummer combination

        H_v(z) = 2^v sqrt(pi) [ 1F1(-v/2; 1/2; z^2) / Gamma((1-v)/2)
                                - 2 z 1F1((1-v)/2; 3/2; z^2) / Gamma(-v/2) ]

    with 1/Gamma taken as zero at its poles, which reproduces the
    classical polynomials at integer v.  Raises DomainError for |z| > 4,
    where the two exp(z^2)-sized terms cancel into wrong digits or
    overflow.
    """
    v = _require_finite("v", v)
    z = _require_finite("z", z)
    if v <= -1.0:
        raise DomainError(f"Hermite order must exceed -1, got v={v!r}")
    if abs(z) > _KUMMER_Z_MAX:
        raise DomainError(
            f"|z| = {abs(z)!r} exceeds {_KUMMER_Z_MAX}; the 1F1 terms lose "
            "accuracy there"
        )
    z2 = z * z
    c1 = _reciprocal_gamma((1.0 - v) / 2.0)
    c2 = _reciprocal_gamma(-v / 2.0)
    t1 = c1 * kummer_1f1(-v / 2.0, 0.5, z2) if c1 != 0.0 else 0.0
    t2 = 2.0 * z * c2 * kummer_1f1((1.0 - v) / 2.0, 1.5, z2) if c2 != 0.0 else 0.0
    return 2.0**v * _SQRT_PI * (t1 - t2)


def _hermite_laplace(v: float, z: float) -> float:
    """H_v(z) for -3 < v < 1, v != 0, through the Laplace-type representation

    H_v(z) = (1/Gamma(-v)) integral_0^inf (exp(-s^2 - 2 s z) - [v > 0]) s^(-v-1) ds,

    where the 1 subtracted for v > 0 keeps the integral finite at s = 0.
    Unlike the two-term Kummer combination this route has no exp(z^2)-scale
    cancellation for z > 0.  The MGF layer takes every H_q, H_{q-1} and,
    for the ODE probe's exact derivatives, H_{q-2} and H_{q-3} from it;
    q - 3 is the lowest order the package asks for.  Not public.
    """
    v = _require_finite("v", v)
    z = _require_finite("z", z)
    if not (-3.0 < v < 1.0 and v != 0.0):
        raise DomainError(f"Laplace route requires -3 < v < 1, v != 0, got v={v!r}")
    if z < -_HERMITE_Z_MAX:
        raise DomainError(
            f"z = {z!r} below -{_HERMITE_Z_MAX}; exp(z^2) would overflow"
        )
    if z > _LAPLACE_Z_MAX:
        raise DomainError(
            f"z = {z!r} above {_LAPLACE_Z_MAX}; the Laplace route loses accuracy there"
        )
    alpha = -v
    kernel = math.exp if v < 0.0 else math.expm1

    def g(s: float) -> float:
        return kernel(-s * (s + 2.0 * z))

    # Head [0, delta]: expand exp(-2zs - s^2) = sum_k c_k s^k with
    # c_k = (-1)^k H_k(z)/k! (classical Hermite polynomials, from their
    # generating function) and integrate s^(alpha-1) s^k termwise, from k = 1
    # when v > 0.  This beats any substitution: the s^(alpha-1) weight is
    # handled exactly and no fractional-power kink is left for the quadrature
    # to chase.  The stop test is scaled by the k = 0 term even when that
    # term is subtracted, as c_1 = -2z vanishes at z = 0.
    delta = 0.25
    scale = delta**alpha / alpha
    c_prev = 0.0
    c_curr = 1.0
    terms = [scale] if v < 0.0 else []
    small_streak = 0
    for k in range(200):
        c_next = -(2.0 * z * c_curr + 2.0 * c_prev) / (k + 1.0)
        c_prev, c_curr = c_curr, c_next
        term = c_curr * delta ** (k + 1.0 + alpha) / (k + 1.0 + alpha)
        terms.append(term)
        if abs(term) < 1e-18 * abs(scale):
            small_streak += 1
            if small_streak >= 2:
                break
        else:
            small_streak = 0
    head = math.fsum(terms)
    upper = max(-z, 0.0) + 8.0
    rest = adaptive_quad(
        lambda s: s ** (alpha - 1.0) * g(s), delta, upper, abs_tol=1e-14, rel_tol=5e-14
    )
    if v > 0.0:
        rest += upper**alpha / alpha  # the -1 over [upper, inf)
    return (head + rest) / gamma_fn(alpha)

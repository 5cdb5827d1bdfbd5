"""Special-function layer: values, identities, and the dual Hermite paths."""

import math

import mpmath as mp
import numpy as np
import pytest

from halfgilbert import specfun as sf
from halfgilbert.errors import (
    DomainError,
    PoleError,
    QuadratureConvergenceError,
    SeriesConvergenceError,
)

# Reference values from a 50-digit offline evaluation.
GAMMA_0_3 = 2.9915689876875906283
ERFC_1 = 0.15729920705028513066
KUMMER_M025_05_0125 = 0.93548848045908709051  # 1F1(-1/4; 1/2; 0.125)
HERMITE_M06_AT_0 = 1.0044267253178584191  # 2^-0.6 sqrt(pi) / Gamma(0.8)
HERMITE_M06_AT_09 = 0.59690445652201398518
# H_v(20) from a 40-digit offline evaluation, at the Laplace route's z bound.
HERMITE_M06_AT_20 = 0.1092707965331408092640947
HERMITE_M095_AT_20 = 0.0300290579004510807459975


# H_v(z) from a 40-digit offline evaluation, inside hermite_fn's |z| <= 4.
HERMITE_40_DIGITS = {
    (-0.89, 4.0): 0.1533143939293283111866728,
    (-0.3, -3.5): 52927.76716115111590412172,
    (0.5, 2.5): 2.257017788762006081571788,
    (1.5, 3.0): 14.39371876559812807397354,
    (2.5, -4.0): -176522.406302080771825203,
}

# Finite upper limit substituted for infinity in hermite_fn_integral, whose
# integrand decays like exp(-u^2): the discarded tail is below
# exp(-144) ~ 4e-63.
_TAIL_CUTOFF = 12.0


def rel(a, b):
    return abs(a - b) / abs(b)


def hermite_fn_integral(v: float, z: float) -> float:
    """Hermite function H_v(z) by quadrature of its integral representation

        H_v(z) = 2^(v+1)/sqrt(pi) exp(z^2)
                 * integral_0^inf exp(-u^2) u^v cos(2 z u - pi v / 2) du,

    valid for v > -1: the oracle that sf.hermite_fn, a two-term 1F1
    combination, must match.  The two share no code.
    The integral is truncated at U = 12, where the remainder is bounded by
    exp(-U^2), about 4e-63.  For v < 0 the u^v endpoint singularity on
    [0, 1] is removed exactly by the substitution u = w^(1/(v+1)), under
    which u^v du becomes dw/(v+1); [1, U] is integrated directly.  The
    quadrature targets an error of 1e-10 in the returned value, absolute or
    relative, whichever is looser.  Requires |z| <= 26 so the exp(z^2)
    prefactor stays inside double range.
    """
    v = float(v)
    z = float(z)
    if not (math.isfinite(v) and math.isfinite(z)):
        raise DomainError(f"v and z must be finite, got v={v!r}, z={z!r}")
    if v <= -1.0:
        raise DomainError(f"Hermite order must exceed -1, got v={v!r}")
    if abs(z) > sf._HERMITE_Z_MAX:
        raise DomainError(
            f"|z| = {abs(z)!r} exceeds {sf._HERMITE_Z_MAX}; exp(z^2) would overflow"
        )
    phase = 0.5 * math.pi * v
    two_z = 2.0 * z

    def g(u: float) -> float:
        return math.exp(-u * u) * math.cos(two_z * u - phase)

    scale = 2.0 ** (v + 1.0) / math.sqrt(math.pi) * math.exp(z * z)
    # The 1e-10 tolerance applies to the returned value, so the inner
    # integral is taken to 1e-10 / scale (the roundoff floor in
    # adaptive_quad bounds what is achievable when scale is large).
    abs_tol = 1e-10 / scale
    if v < 0.0:
        power = 1.0 / (v + 1.0)
        head = sf.adaptive_quad(lambda w: g(w**power), 0.0, 1.0, abs_tol=abs_tol)
        tail = sf.adaptive_quad(lambda u: u**v * g(u), 1.0, _TAIL_CUTOFF, abs_tol=abs_tol)
        return scale * (head / (v + 1.0) + tail)
    return scale * sf.adaptive_quad(
        lambda u: u**v * g(u), 0.0, _TAIL_CUTOFF, abs_tol=abs_tol
    )


def hermite_j_oracle(v: float, z: float) -> float:
    """H_v(z) for -1 < v < 0 in the J-integral quadrature oracles, whose
    argument (u - t)/sqrt(2) runs up to about 6.4: sf.hermite_fn up to
    z = 4, where it stops, and the Laplace route past it, where the
    erfc(z) < 2e-8 weight makes the integrand tiny anyway."""
    return sf.hermite_fn(v, z) if z <= 4.0 else sf._hermite_laplace(v, z)


class TestGamma:
    def test_one(self):
        assert rel(sf.gamma_fn(1.0), 1.0) < 1e-14

    def test_half_is_sqrt_pi(self):
        assert rel(sf.gamma_fn(0.5), math.sqrt(math.pi)) < 1e-14

    def test_0_3_reference(self):
        assert rel(sf.gamma_fn(0.3), GAMMA_0_3) < 5e-13

    def test_negative_argument(self):
        expected = sf.gamma_fn(0.8) / (-0.2)
        got = sf.gamma_fn(-0.2)
        assert got < 0.0
        assert rel(got, expected) < 1e-13

    @pytest.mark.parametrize("x", [0.0, -1.0, -2.0, 1e-10, -3.0 + 5e-10])
    def test_pole_error(self, x):
        with pytest.raises(PoleError):
            sf.gamma_fn(x)

    def test_non_finite(self):
        with pytest.raises(DomainError):
            sf.gamma_fn(float("nan"))

    @pytest.mark.parametrize("x", [0.1, 0.3, 0.7, 0.9])
    def test_reflection(self, x):
        lhs = sf.gamma_fn(x) * sf.gamma_fn(1.0 - x)
        rhs = math.pi / math.sin(math.pi * x)
        assert rel(lhs, rhs) < 1e-12

    def test_recurrence_random(self):
        rng = np.random.default_rng(2024)
        accepted = 0
        while accepted < 50:
            x = float(rng.uniform(-5.0, 5.0))
            near_pole = any(
                round(v) <= 0 and abs(v - round(v)) < 1e-2 for v in (x, x + 1.0)
            )
            if near_pole:
                continue
            accepted += 1
            assert rel(sf.gamma_fn(x + 1.0), x * sf.gamma_fn(x)) < 1e-12


class TestErfc:
    def test_zero(self):
        assert sf.erfc_fn(0.0) == 1.0

    def test_large_positive_tail(self):
        value = sf.erfc_fn(12.0)
        assert 0.0 < value < 1e-40

    def test_reference(self):
        assert rel(sf.erfc_fn(1.0), ERFC_1) < 5e-13

    def test_symmetry_random(self):
        rng = np.random.default_rng(7)
        for x in rng.uniform(-6.0, 6.0, size=50):
            assert abs(sf.erfc_fn(float(x)) + sf.erfc_fn(float(-x)) - 2.0) < 1e-14

    def test_non_finite(self):
        with pytest.raises(DomainError):
            sf.erfc_fn(float("inf"))


class TestKummer:
    @pytest.mark.parametrize("a,b", [(0.3, 0.7), (-1.2, 1.5), (2.0, 0.5)])
    def test_at_zero(self, a, b):
        assert sf.kummer_1f1(a, b, 0.0) == 1.0

    @pytest.mark.parametrize("z", [-2.0, 0.5, 3.0])
    def test_exponential_identity(self, z):
        assert rel(sf.kummer_1f1(1.0, 1.0, z), math.exp(z)) < 1e-13

    def test_reference(self):
        assert rel(sf.kummer_1f1(-0.25, 0.5, 0.125), KUMMER_M025_05_0125) < 1e-11

    def test_transformation_consistency_random(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a = float(rng.uniform(-1.0, 1.0))
            b = float(rng.choice([0.5, 1.5]))
            z = float(rng.uniform(-10.0, 10.0))
            lhs = sf.kummer_1f1(a, b, z)
            rhs = math.exp(z) * sf.kummer_1f1(b - a, b, -z)
            assert rel(lhs, rhs) < 1e-9

    @pytest.mark.parametrize("b", [0.0, -1.0, -2.0])
    def test_parameter_pole(self, b):
        with pytest.raises(PoleError):
            sf.kummer_1f1(0.5, b, 1.0)

    def test_nonconvergence(self):
        # e^400: the terms only start to shrink after 400 of the 500 allowed
        with pytest.raises(SeriesConvergenceError):
            sf.kummer_1f1(1.0, 1.0, 400.0)


class TestHermite:
    @pytest.mark.parametrize("z", [-3.0, 0.0, 2.0])
    def test_order_zero(self, z):
        assert abs(sf.hermite_fn(0.0, z) - 1.0) < 1e-14

    @pytest.mark.parametrize("z", [-3.0, 0.0, 2.0])
    def test_order_one(self, z):
        assert abs(sf.hermite_fn(1.0, z) - 2.0 * z) < 1e-13 * (1.0 + abs(z))

    def test_closed_value_at_zero(self):
        got = sf.hermite_fn(-0.6, 0.0)
        assert rel(got, HERMITE_M06_AT_0) < 1e-12
        assert abs(hermite_fn_integral(-0.6, 0.0) - got) < 1e-9

    def test_integral_reproduces_order_zero(self):
        assert abs(hermite_fn_integral(0.0, 1.5) - 1.0) < 1e-9

    def test_integral_reproduces_order_one(self):
        assert abs(hermite_fn_integral(1.0, -0.7) + 1.4) < 1e-9

    def test_dual_path_example(self):
        a = sf.hermite_fn(-0.6, 0.9)
        b = hermite_fn_integral(-0.6, 0.9)
        assert abs(a - b) <= 1e-8
        assert rel(a, HERMITE_M06_AT_09) < 1e-12

    def test_dual_path_grid(self):
        for v in (-0.9, -0.6, -0.5, -0.3, 0.2, 0.5, 0.8):
            for i in range(17):
                z = -4.0 + 0.5 * i
                a = sf.hermite_fn(v, z)
                b = hermite_fn_integral(v, z)
                assert abs(a - b) <= 1e-8 * (1.0 + abs(a)), (v, z)

    def test_integer_order_collapse(self):
        classical = {
            0: lambda z: 1.0,
            1: lambda z: 2.0 * z,
            2: lambda z: 4.0 * z * z - 2.0,
            3: lambda z: 8.0 * z**3 - 12.0 * z,
        }
        for n, poly in classical.items():
            for i in range(13):
                z = -3.0 + 0.5 * i
                want = poly(z)
                assert abs(sf.hermite_fn(float(n), z) - want) <= 1e-10 * (
                    1.0 + abs(want)
                ), (n, z)

    @pytest.mark.parametrize("v", [-1.0, -1.5])
    def test_order_domain(self, v):
        with pytest.raises(DomainError):
            sf.hermite_fn(v, 0.3)
        with pytest.raises(DomainError):
            hermite_fn_integral(v, 0.3)

    def test_overflow_guard(self):
        with pytest.raises(DomainError):
            hermite_fn_integral(0.5, 27.0)

    @pytest.mark.parametrize("v,z", sorted(HERMITE_40_DIGITS))
    def test_forty_digit_values(self, v, z):
        want = HERMITE_40_DIGITS[(v, z)]
        assert abs(sf.hermite_fn(v, z) - want) <= 1e-8 * max(abs(want), 1.0)

    @pytest.mark.parametrize("z", [4.5, 7.0, 30.0, -30.0, 50.0, -50.0])
    def test_refuses_large_z(self, z):
        # the 1F1 terms cancel: at z = 7 they gave -459820, at |z| = 30 an
        # OverflowError, at 50 nan and at -50 inf
        with pytest.raises(DomainError):
            sf.hermite_fn(-0.6, z)

    def test_laplace_route_matches_kummer_route(self):
        for v in (-0.95, -0.6, -0.35, -0.05):
            for z in (-3.5, -1.0, 0.0, 0.5, 2.0, 3.5):
                a = sf._hermite_laplace(v, z)
                b = sf.hermite_fn(v, z)
                assert abs(a - b) <= 1e-9 * (1.0 + abs(a)), (v, z)
        assert rel(sf._hermite_laplace(-0.6, 0.9), HERMITE_M06_AT_09) < 1e-12

    def test_laplace_route_at_its_z_bound(self):
        assert rel(sf._hermite_laplace(-0.6, 20.0), HERMITE_M06_AT_20) < 1e-12
        assert rel(sf._hermite_laplace(-0.95, 20.0), HERMITE_M095_AT_20) < 1e-12

    @pytest.mark.parametrize(
        "v",
        [-2.999, -2.5, -2.0, -1.6, -1.0, -0.999, -0.6, -0.05,
         0.001, 0.05, 0.35, 0.6, 0.95, 0.999],
    )
    def test_laplace_route_positive_order(self, v):
        # the MGF layer takes H_q, H_(q-1), H_(q-2) and H_(q-3) from it;
        # relative to max(|H|, 1) because H_v has a zero on the negative axis
        # for v > 0
        for z in range(-26, 21):
            with mp.workdps(40):
                want = float(mp.hermite(v, z))
            got = sf._hermite_laplace(v, float(z))
            assert abs(got - want) <= 1e-13 * max(abs(want), 1.0), z

    @pytest.mark.parametrize("v", [0.0, 1.0, -3.0, -3.5])
    def test_laplace_route_order_domain(self, v):
        with pytest.raises(DomainError):
            sf._hermite_laplace(v, 0.5)

    @pytest.mark.parametrize("z", [20.5, 1e300])
    def test_laplace_route_refuses_large_z(self, z):
        # past z = 20 its head series cancels into wrong digits
        with pytest.raises(DomainError):
            sf._hermite_laplace(-0.6, z)


class TestAdaptiveQuad:
    def test_polynomial(self):
        got = sf.adaptive_quad(lambda x: x * x, 0.0, 1.0)
        assert rel(got, 1.0 / 3.0) < 1e-12

    def test_sine(self):
        got = sf.adaptive_quad(math.sin, 0.0, math.pi)
        assert rel(got, 2.0) < 1e-12

    def test_empty_interval(self):
        assert sf.adaptive_quad(math.exp, 1.0, 1.0) == 0.0

    def test_nonconvergence(self):
        # the integral of 1/x over [0, 1] diverges; 400 panels cannot hide it
        with pytest.raises(QuadratureConvergenceError):
            sf.adaptive_quad(lambda x: 1.0 / x, 0.0, 1.0)

    @pytest.mark.parametrize("name,value", [("abs_tol", -1e-10), ("rel_tol", 0.0)])
    def test_tolerance_must_be_positive(self, name, value):
        with pytest.raises(ValueError):
            sf.adaptive_quad(math.exp, 0.0, 1.0, **{name: value})

"""Closed-form layer: K/J integrals, c(t), the MGF, moments, residuals."""

import functools
import math

import numpy as np
import pytest
from scipy.integrate import quad

import reference
from halfgilbert import analytic as an
from halfgilbert import cli
from halfgilbert import montecarlo as mc
from halfgilbert.analytic import ModelParams, MomentEntry
from halfgilbert.errors import DenominatorError, DomainError, NumericsError
from halfgilbert.specfun import _hermite_laplace, adaptive_quad, erfc_fn, hermite_fn
from test_specfun import hermite_j_oracle

SQRT2 = math.sqrt(2.0)

# d^k/dt^k of the ray-length MGF at t = 0 for q = 2/5, from a 50-digit
# offline evaluation.
MU_Q04 = (
    1.8169599114702,
    4.6410746559118,
    15.570055649529,
    65.972135856568,
    342.24258570542,
    2115.5187022508,
)


def rel(a, b):
    return abs(a - b) / abs(b)


def std_error(report, order):
    """The std_error of a MomentReport's entry of the given order."""
    (entry,) = (e for e in report.entries if e.order == order)
    return entry.std_error


# Richardson derivatives of the evaluated M_t(0), which goes through c(t) at
# finite t: the oracle that ties that route to the series moments.


class ExtrapolationError(Exception):
    """Richardson extrapolation levels failed to contract."""


_RICHARDSON_LEVELS = 4

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


class TestModelParams:
    @pytest.mark.parametrize("q", [0.0, 1.0, -0.1, 1.1])
    def test_q_rejected(self, q):
        with pytest.raises(ValueError):
            ModelParams(q=q)

    @pytest.mark.parametrize("lam", [0.0, -2.0, math.inf])
    def test_lam_rejected(self, lam):
        with pytest.raises(ValueError):
            ModelParams(q=0.4, lam=lam)

    def test_tiny_q_accepted(self):
        ModelParams(q=1e-8)


class TestKIntegral:
    @pytest.mark.parametrize("q", [0.25, 0.5, 0.75])
    def test_vanishes_at_zero(self, q):
        # both closed-form brackets must cancel; only last-ulp residue allowed
        assert abs(an.k_integral(0.0, q)) < 1e-13

    @pytest.mark.parametrize("t,q", [(1.3, 0.4), (-0.7, 0.6)])
    def test_quadrature_oracle(self, t, q):
        oracle, _ = quad(
            lambda z: erfc_fn(z) * hermite_fn(q - 1.0, z), -t / SQRT2, 0.0, limit=200
        )
        assert abs(an.k_integral(t, q) - oracle) < 1e-8


class TestJIntegral:
    @pytest.mark.parametrize("t,q", [(0.9, 0.4), (0.0, 0.5)])
    def test_quadrature_oracle(self, t, q):
        # truncating at u = t + 9 leaves an erfc tail below 3e-18
        oracle, _ = quad(
            lambda u: erfc_fn((u - t) / SQRT2)
            * hermite_j_oracle(q - 1.0, (u - t) / SQRT2),
            0.0,
            t + 9.0,
            limit=200,
        )
        assert abs(an.j_integral(t, q) - oracle) < 1e-7

    def test_constant_offset_is_t_independent(self):
        q = 0.3
        offsets = [an.j_integral(t, q) - SQRT2 * an.k_integral(t, q) for t in (-1.0, 0.0, 2.0)]
        for other in offsets[1:]:
            assert rel(other, offsets[0]) < 1e-13


class TestPaperForm:
    """The paper's bracket, sqrt(2/pi) e^(-t^2/2) H_{q-1}(-t/sqrt(2)) - q J(t, q),
    against erfc(-t/sqrt(2)) H_q(-t/sqrt(2)) / sqrt(2), whose H_q gives c(t):
    K and J stay a live oracle of the identity."""

    def test_bracket_equals_hermite_form(self):
        for q in (0.1 * i for i in range(1, 10)):
            for t in (-2.0 + 0.25 * i for i in range(17)):
                z = -t / SQRT2
                bracket = math.sqrt(2.0 / math.pi) * math.exp(-0.5 * t * t) * (
                    _hermite_laplace(q - 1.0, z)
                ) - q * an.j_integral(t, q)
                hermite_form = erfc_fn(z) * _hermite_laplace(q, z) / SQRT2
                assert abs(bracket - hermite_form) < 5e-14, (q, t)


class TestCCoefficient:
    @pytest.mark.parametrize("q", [0.3, 0.6])
    def test_zero_at_origin(self, q):
        assert an.c_coefficient(0.0, q) == 0.0

    def test_continuity_at_origin(self):
        q = 0.4
        # Richardson slope of c at 0
        estimates = []
        for i in range(4):
            h = 0.05 / 2.0**i
            estimates.append(
                (an.c_coefficient(h, q) - an.c_coefficient(-h, q)) / (2.0 * h)
            )
        table = [estimates[0]]
        for i in range(1, 4):
            row = [estimates[i]]
            for j in range(1, i + 1):
                row.append((4.0**j * row[j - 1] - table[j - 1]) / (4.0**j - 1.0))
            table = row
        slope = table[-1]
        assert abs(an.c_coefficient(1e-8, q) - slope * 1e-8) < 1e-6

    def test_t_domain_guard(self):
        with pytest.raises(DomainError):
            an.c_coefficient(5.5, 0.4)

    def test_denominator_guard_at_divergence_point(self):
        t_star = an.mgf_divergence_point(0.4)
        with pytest.raises(DenominatorError):
            an.c_coefficient(t_star, 0.4)


class TestMgf:
    def test_normalization_exact(self):
        for y in [0.5 * i for i in range(11)] + [7.0, 1e300]:
            for q in [1e-9] + [0.1 * i for i in range(1, 10)] + [1.0 - 1e-9]:
                assert an.mgf(0.0, y, q) == 1.0

    def test_y_domain(self):
        with pytest.raises(DomainError):
            an.mgf(0.5, -0.1, 0.4)

    def test_special_half_agreement(self):
        worst = max(
            abs(an.mgf(-2.0 + 0.1 * i, 0.0, 0.5) - an.mgf_special_half(-2.0 + 0.1 * i))
            for i in range(41)
        )
        assert worst < 1e-9

    def test_first_derivative_reference(self):
        value, _ = _richardson_derivative(lambda t: an.mgf(t, 0.0, 0.4), 1, 0.1)
        assert rel(value, 1.81696) < 1e-4

    def test_shape_on_valid_domain(self):
        # monotone increasing, convex, and correctly ranged in t, up to the
        # divergence abscissa t*(q) (the length tail is exponential, so the
        # MGF blows up at finite t*; past t* the formula continues
        # analytically and these probabilistic properties no longer apply)
        for q in (0.2, 0.5, 0.8):
            t_star = an.mgf_divergence_point(q)
            grid = [t for t in (-3.0 + 0.1 * i for i in range(61)) if t < t_star - 0.05]
            values = [an.mgf(t, 0.0, q) for t in grid]
            assert all(b > a for a, b in zip(values, values[1:]))
            second = [
                values[i + 1] - 2.0 * values[i] + values[i - 1]
                for i in range(1, len(values) - 1)
            ]
            assert all(d >= 0.0 for d in second)
            for t, v in zip(grid, values):
                if t < 0.0:
                    assert 0.0 < v < 1.0
                elif t > 0.0:
                    assert v >= 1.0

    def test_divergence_point(self):
        coarse = {0.2: 1.5308, 0.4: 0.9733, 0.8: 0.2681}
        previous = math.inf
        for q, expected in coarse.items():
            t_star = an.mgf_divergence_point(q)
            assert abs(t_star - expected) < 2e-3
            assert t_star < previous
            previous = t_star
        # blows up approaching t* from below; continuation branch beyond
        q = 0.4
        t_star = an.mgf_divergence_point(q)
        assert an.mgf(t_star - 1e-4, 0.0, q) > 1e3
        assert an.mgf(t_star + 1e-3, 0.0, q) < 0.0


class TestReference:
    """The 30-digit paper-form reference, against the package and MU_Q04."""

    def test_moments_match_50_digit_values(self):
        for k, (value, expected) in enumerate(zip(reference.moments(0.4), MU_Q04), 1):
            assert rel(value, expected) < 1e-12, k

    @pytest.mark.parametrize("t", [-2.0, -0.5, 0.5, 0.9])
    def test_mgf_matches_package(self, t):
        assert rel(an.mgf(t, 0.0, 0.4), float(reference.mgf(t, 0.0, 0.4))) < 1e-12

    @pytest.mark.parametrize("q", [0.001, 0.05, 0.3, 0.7, 0.9, 0.95, 0.999])
    def test_divergence_point(self, q):
        assert abs(an.mgf_divergence_point(q) - float(reference.divergence_point(q))) < 1e-14

    @pytest.mark.parametrize("q", [0.01 + 0.098 * i for i in range(11)])
    def test_c_and_mgf_match_hermite_form(self, q):
        # 9 t from -5, where the paper form cancels at scale e^(t^2/2), to
        # 0.9 min(t*, 5)
        top = 0.9 * min(float(reference.divergence_point(q) or 5), 5.0)
        for t in (-5.0 + (top + 5.0) * j / 8 for j in range(9)):
            c = reference.c_coefficient_hermite(t, q)
            assert abs(an.c_coefficient(t, q) - c) <= 1e-13 * abs(c), t
            for y in (0.0, 1.0, 3.0, 8.0):
                m = reference.mgf_hermite(t, y, q)
                assert abs(an.mgf(t, y, q) - m) <= 1e-11 * abs(m), (t, y)

    @staticmethod
    def erfc_hermite_tail(t, q):
        """The w-integral from -t/sqrt(2), J(t) / sqrt(2); the paper's J at 30
        digits holds 23 of them even where it cancels, at t = -5."""
        mp = reference.mp
        return float(reference.j_integral(mp.mpf(t), mp.mpf(q)) / mp.sqrt(2))

    @pytest.mark.parametrize("q", [0.05, 0.1, 0.25, 0.4, 0.5, 0.75, 0.85, 0.95])
    def test_erfc_hermite_tail_matches_paper_j(self, q):
        for t in (-2.0, -1.0, 1.0, 2.0):
            exact = self.erfc_hermite_tail(t, q)
            assert abs(an._erfc_hermite_tail(q, -t / SQRT2) - exact) <= 1e-14 * exact, t

    @pytest.mark.parametrize("q", [0.05, 0.5, 0.95])
    def test_erfc_hermite_tail_out_to_t_max(self, q):
        for t in (-5.0, -3.5, 3.5, 5.0):
            exact = self.erfc_hermite_tail(t, q)
            assert abs(an._erfc_hermite_tail(q, -t / SQRT2) - exact) <= 2e-13 * exact, t

    @pytest.mark.parametrize("t", [-1.5, 1.0])
    def test_direct_w_integral_matches_paper_j(self, t):
        # J(t) = integral_0^inf erfc((u-t)/sqrt(2)) H_{q-1}((u-t)/sqrt(2)) du
        # is sqrt(2) times the w-integral from -t/sqrt(2): the one check of
        # the paper's closed J against its definition
        mp = reference.mp
        t, q = mp.mpf(t), mp.mpf(0.4)
        direct = mp.sqrt(2) * reference.erfc_hermite_tail(-t / mp.sqrt(2), q)
        assert abs(direct / reference.j_integral(t, q) - 1) < 1e-25


class TestSpecialHalf:
    def test_unit_at_zero(self):
        assert an.mgf_special_half(0.0) == 1.0

    @pytest.mark.parametrize("t", [1.0, -1.5])
    def test_cross_implementation(self, t):
        assert abs(an.mgf_special_half(t) - an.mgf(t, 0.0, 0.5)) < 1e-9

    def test_t_domain_guard(self):
        with pytest.raises(DomainError):
            an.mgf_special_half(6.0)


class TestClosedMoments:
    def test_reference_values(self):
        report = an.closed_moments(ModelParams(q=0.4))
        for k in range(1, 5):
            assert rel(report.value(k), MU_Q04[k - 1]) < 1e-12

    def test_rayleigh_limit(self):
        report = an.closed_moments(ModelParams(q=1e-8), orders=(1, 2))
        assert rel(report.value(1), math.sqrt(math.pi / 2.0)) < 1e-6
        assert rel(report.value(2), 2.0) < 1e-6

    def test_intensity_scaling_exact(self):
        base = an.closed_moments(ModelParams(q=0.4, lam=1.0))
        scaled = an.closed_moments(ModelParams(q=0.4, lam=4.0))
        for k in range(1, 5):
            assert scaled.value(k) == base.value(k) * 2.0**-k

    def test_variance_positive_across_q(self):
        for q in np.linspace(0.05, 0.95, 17):
            report = an.closed_moments(ModelParams(q=float(q)), orders=(1, 2))
            assert report.value(2) - report.value(1) ** 2 > 0.0

    def test_order_validation(self):
        with pytest.raises(ValueError):
            an.closed_moments(ModelParams(q=0.4), orders=(5,))
        with pytest.raises(ValueError):
            an.closed_moments(ModelParams(q=0.4), orders=())

    def test_overflowing_intensity_scale_raises(self):
        # the factor lam**(-3/2) overflows at lam = 1e-300; at lam = 1e-154
        # the factor 1e308 is finite but the scaled fourth moment is not
        with pytest.raises(DomainError):
            an.closed_moments(ModelParams(q=0.4, lam=1e-300))
        with pytest.raises(DomainError):
            an.closed_moments(ModelParams(q=0.4, lam=1e-154), orders=(4,))
        base = an.closed_moments(ModelParams(q=0.4)).value(4)
        report = an.closed_moments(ModelParams(q=0.4, lam=1e-150), orders=(4,))
        assert report.value(4) == base * 1e-150 ** -2.0

    def test_fourth_moment_coefficient_against_derivative_oracle(self):
        # the G^4 coefficient in the closed fourth moment is 3 q^3 / 4;
        # the series route is independent of the closed expressions
        for q in np.linspace(0.1, 0.9, 9):
            params = ModelParams(q=float(q))
            closed = an.closed_moments(params, orders=(4,)).value(4)
            derived = an.mgf_moments(params, max_order=4).value(4)
            assert rel(closed, derived) < 1e-13, q


class TestMgfMoments:
    def test_q04_against_references(self):
        # the series has no truncation error, so it reports none
        report = an.mgf_moments(ModelParams(q=0.4), max_order=6)
        for k in range(1, 7):
            assert rel(report.value(k), MU_Q04[k - 1]) < 1e-12
            assert std_error(report, k) is None

    @pytest.mark.parametrize("q", [1e-6, 0.05, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99])
    def test_against_30_digit_reference(self, q):
        # the reference takes K and J, the series the H_q identity
        report = an.mgf_moments(ModelParams(q=q), max_order=6)
        for k, expected in enumerate(reference.moments(q), 1):
            assert rel(report.value(k), expected) < 1e-13, k

    def test_tiny_q_order_five(self):
        # the finite-difference route printed 18.799825980235877 +- 2.1e-7
        # here, 6.2e-7 from the reference 18.799825356209781
        report = an.mgf_moments(ModelParams(q=1e-6), max_order=5)
        assert rel(report.value(5), reference.moments(1e-6)[4]) < 1e-13

    def test_matches_closed_at_half(self):
        closed = an.closed_moments(ModelParams(q=0.5), orders=(1,))
        derived = an.mgf_moments(ModelParams(q=0.5), max_order=1)
        assert rel(derived.value(1), closed.value(1)) < 1e-13

    def test_intensity_scaling_exact(self):
        base = an.mgf_moments(ModelParams(q=0.4, lam=1.0), max_order=3)
        scaled = an.mgf_moments(ModelParams(q=0.4, lam=4.0), max_order=3)
        for k in range(1, 4):
            assert scaled.value(k) == base.value(k) * 2.0**-k

    def test_order_validation(self):
        with pytest.raises(ValueError):
            an.mgf_moments(ModelParams(q=0.4), max_order=7)
        with pytest.raises(ValueError):
            an.mgf_moments(ModelParams(q=0.4), max_order=0)

    def test_overflowing_intensity_scale_raises(self):
        with pytest.raises(DomainError):
            an.mgf_moments(ModelParams(q=0.4, lam=1e-300), max_order=3)
        # the factor 1e306 is finite, the scaled sixth moment is not
        with pytest.raises(DomainError):
            an.mgf_moments(ModelParams(q=0.4, lam=1e-102), max_order=6)
        report = an.mgf_moments(ModelParams(q=0.4, lam=1e-102), max_order=5)
        assert math.isfinite(report.value(5))

    def test_high_q_matches_closed(self):
        # the pole t*(0.9) ~ 0.129 lies close to 0
        report = an.mgf_moments(ModelParams(q=0.9), max_order=4)
        closed = an.closed_moments(ModelParams(q=0.9))
        for k in range(1, 5):
            assert rel(report.value(k), closed.value(k)) < 1e-13

    def test_series_checked_against_the_evaluated_mgf(self, monkeypatch):
        # the t^1 coefficient of H_(q-1) off by 1e-3 moves S(h) from M(h)
        # by more than 1e-6 of M(h) - 1
        original = an._hermite_series

        def perturbed(nu, n):
            coeffs = original(nu, n)
            if nu < 0.0:
                coeffs[1] *= 1.0 + 1e-3
            return coeffs

        monkeypatch.setattr(an, "_hermite_series", perturbed)
        with pytest.raises(NumericsError, match="moment series"):
            an.mgf_moments(ModelParams(q=0.4), max_order=1)

    def test_divergence_detector(self):
        step = lambda t: 1.0 if t >= 0.03 else 0.0
        with pytest.raises(ExtrapolationError):
            _richardson_derivative(step, 1, 0.1)


class TestResiduals:
    def test_ode_examples(self):
        assert abs(an.ode_residual(1.0, 2.0, 0.4, 1e-3)[0]) < 1e-5
        assert abs(an.ode_residual(-1.2, 0.5, 0.7, 1e-3)[0]) < 1e-5

    def test_ode_trivial_at_zero(self):
        assert an.ode_residual(0.0, 1.5, 0.3, 1e-3)[0] == 0.0

    def test_ode_grid(self):
        worst = max(
            abs(an.ode_residual(t, y, q, 1e-3)[0])
            for t in (-2.0, -1.0, 0.0, 1.0, 2.0)
            for y in (0.5, 1.0, 3.0)
            for q in (0.3, 0.5, 0.7)
        )
        assert worst < 1e-5

    def test_ode_step_validation(self):
        with pytest.raises(DomainError):
            an.ode_residual(1.0, 0.5, 0.4, 0.0)
        with pytest.raises(DomainError):
            an.ode_residual(1.0, 1e-4, 0.4, 1e-3)

    @pytest.mark.parametrize("q", [0.3, 0.6])
    def test_integral_equation_at_zero(self, q):
        assert abs(an.integral_equation_residual(0.0, q)) < 1e-10

    @pytest.mark.parametrize("t,q", [(1.5, 0.4), (-2.0, 0.25)])
    def test_integral_equation_examples(self, t, q):
        assert abs(an.integral_equation_residual(t, q)) < 1e-6

    def test_integral_equation_grid(self):
        worst = max(
            abs(an.integral_equation_residual(t, q))
            for t in (-2.0, -1.0, 1.0, 2.0)
            for q in (0.25, 0.4, 0.75)
        )
        assert worst < 1e-6

    def test_integral_equation_validate_grid(self):
        # the exact residual is 0; what is left is roundoff at the scale of M
        for q in np.linspace(0.05, 0.95, 19).tolist():
            for t in cli._IE_T_GRID:
                bound = 1e-13 * max(1.0, abs(an.mgf(t, 0.0, q)))
                assert abs(an.integral_equation_residual(t, q)) <= bound, (q, t)

    def test_integral_equation_sees_a_wrong_c(self, monkeypatch):
        original = an.c_coefficient
        monkeypatch.setattr(
            an, "c_coefficient", lambda t, q: original(t, q) * (1.0 + 1e-10)
        )
        worst = max(abs(an.integral_equation_residual(t, 0.4)) for t in cli._IE_T_GRID)
        assert worst > 1e-9

# References on the per-call path: one mgf(t, y, q) call, and so one c(t),
# per evaluated point.  Production shares c(t) across y and must give the
# same floats in the ODE probe.  The integral-equation reference nests a
# Hermite quadrature in a u-quadrature; production swaps the order of
# integration, so the two agree to roundoff, not bit for bit.


def ode_residual_reference(t, y, q, h):
    m0 = an.mgf(t, y, q)
    mp = an.mgf(t, y + h, q)
    mm = an.mgf(t, y - h, q)
    d2 = (mp - 2.0 * m0 + mm) / (h * h)
    d1 = (mp - mm) / (2.0 * h)
    return d2 - (y - t) * d1 - (1.0 - q) * m0 + (1.0 - q)


def integral_equation_residual_reference(t, q):
    integral = adaptive_quad(
        lambda u: erfc_fn((u - t) / SQRT2) * an.mgf(t, u, q), 0.0, t + 9.0
    )
    growth = math.exp(0.5 * t * t)
    half_pi = math.sqrt(0.5 * math.pi)
    rhs = (1.0 - q) * (1.0 + half_pi * t * growth * erfc_fn(-t / SQRT2)) + (
        q * growth * half_pi * integral
    )
    return an.mgf(t, 0.0, q) - rhs


def mgf_moments_reference(q, max_order, m=None):
    """Moments as Richardson derivatives of M_t(0): locate t* and shrink the
    base step when the widest stencil, 3 h, passes 0.7 t*.  m(t) is M_t(0),
    by default one mgf call per stencil node.  Returns (value, uncertainty)
    per order."""
    m = m or (lambda t: an.mgf(t, 0.0, q))
    base_step = 0.1
    t_star = an.mgf_divergence_point(q)
    if math.isfinite(t_star) and 3.0 * base_step > 0.7 * t_star:
        base_step = 0.7 * t_star / 3.0
    return [_richardson_derivative(m, k, base_step) for k in range(1, max_order + 1)]


class TestOneCoefficientPerT:
    @pytest.fixture
    def c_calls(self, monkeypatch):
        calls = []
        original = an.c_coefficient

        def counted(t, q):
            calls.append(t)
            return original(t, q)

        monkeypatch.setattr(an, "c_coefficient", counted)
        return calls

    def test_mgf_checks_y_before_computing_c(self, c_calls):
        with pytest.raises(DomainError):
            an.mgf(0.5, -0.1, 0.4)
        assert c_calls == []

    def test_integral_equation_residual_computes_c_once(self, c_calls):
        an.integral_equation_residual(1.0, 0.4)
        assert c_calls == [1.0]

    @pytest.mark.parametrize("t,expected", [(-1.0, 1), (2.0, 1), (0.0, 0)])
    def test_ode_residual_computes_c_once(self, c_calls, t, expected):
        an.ode_residual(t, 1.0, 0.4, 1e-3)
        assert len(c_calls) == expected

    def test_mgf_moments_computes_c_once_per_distinct_node(self, c_calls):
        # the series needs no c; its one check evaluates M at one node
        an.mgf_moments(ModelParams(q=0.4), max_order=6)
        assert len(c_calls) == 1

    def test_validation_reuses_the_ode_probes_m(self, c_calls):
        # 1 series check, 12 ODE points and 4 integral-equation t; the ODE
        # normaliser reads the M_t(y) its probe computed
        config = mc.SimConfig(params=ModelParams(q=0.4), samples=2_000, seed=1)
        cli._validation_doc(config)
        assert len(c_calls) == 17

    @pytest.mark.parametrize("q", [0.05, 0.4, 0.9, 0.95])
    def test_residuals_bit_identical_to_per_call_path(self, q):
        for t in cli._ODE_T_GRID:
            for y in cli._ODE_Y_GRID:
                residual, m = an.ode_residual(t, y, q, cli._ODE_STEP)
                assert residual == ode_residual_reference(t, y, q, cli._ODE_STEP)
                assert m == an.mgf(t, y, q)
        for t in cli._IE_T_GRID:
            bound = 1e-12 * max(1.0, abs(an.mgf(t, 0.0, q)))
            swapped = an.integral_equation_residual(t, q)
            assert abs(swapped - integral_equation_residual_reference(t, q)) <= bound


class TestDerivativeOracle:
    """The series against Richardson derivatives of the evaluated M_t(0).

    The bounds are about twice the worst deviations over these q: 2.5e-9 at
    orders 1-2, 1.0e-6 at orders 3-4 and 6.5e-5 at orders 5-6, all of them
    the finite differences' own error.
    """

    BOUNDS = (5e-9, 5e-9, 2e-6, 2e-6, 1.3e-4, 1.3e-4)

    def test_across_q(self):
        for q in np.linspace(0.01, 0.99, 50).tolist():
            report = an.mgf_moments(ModelParams(q=q), max_order=6)
            m = functools.lru_cache(maxsize=None)(lambda t: an.mgf(t, 0.0, q))
            for k, (value, _) in enumerate(mgf_moments_reference(q, 6, m), 1):
                assert rel(value, report.value(k)) < self.BOUNDS[k - 1], (q, k)


class TestReportTypes:
    def test_entry_validation(self):
        with pytest.raises(ValueError):
            MomentEntry(order=0, value=1.0, method="closed")
        with pytest.raises(ValueError):
            MomentEntry(order=1, value=1.0, method="guesswork")

    def test_report_lookup(self):
        report = an.closed_moments(ModelParams(q=0.4), orders=(1, 2))
        assert report.value(2) > report.value(1)
        with pytest.raises(KeyError):
            report.value(3)
        assert std_error(report, 1) is None

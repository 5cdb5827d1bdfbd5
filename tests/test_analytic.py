"""Closed-form layer: K/J integrals, c(t), the MGF, moments, residuals."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from halfgilbert import analytic as an
from halfgilbert.analytic import ModelParams, MomentEntry, _richardson_derivative
from halfgilbert.errors import DenominatorError, DomainError, ExtrapolationError
from halfgilbert.specfun import erfc_fn, hermite_fn

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
            lambda u: erfc_fn((u - t) / SQRT2) * hermite_fn(q - 1.0, (u - t) / SQRT2),
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
        t_star = an.mgf_divergence_point(0.4, resolution=1e-13)
        with pytest.raises(DenominatorError):
            an.c_coefficient(t_star, 0.4)


class TestMgf:
    def test_normalization_exact(self):
        for y in [0.5 * i for i in range(11)] + [7.0]:
            for q in [0.1 * i for i in range(1, 10)]:
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

    def test_duality_relabeling_exact(self):
        # a south ray with H-probability p behaves like an east ray with
        # 1 - p; computing the complement here exactly as the relabeling
        # does makes the comparison bitwise
        for p in (1.0 - 0.2, 1.0 - 0.4):
            east = an.closed_moments(ModelParams(q=1.0 - p), ray="east")
            south = an.closed_moments(ModelParams(q=p), ray="south")
            for k in range(1, 5):
                assert east.value(k) == south.value(k)

    def test_variance_positive_across_q(self):
        for q in np.linspace(0.05, 0.95, 17):
            report = an.closed_moments(ModelParams(q=float(q)), orders=(1, 2))
            assert report.value(2) - report.value(1) ** 2 > 0.0

    def test_order_validation(self):
        with pytest.raises(ValueError):
            an.closed_moments(ModelParams(q=0.4), orders=(5,))
        with pytest.raises(ValueError):
            an.closed_moments(ModelParams(q=0.4), orders=())
        with pytest.raises(ValueError):
            an.closed_moments(ModelParams(q=0.4), ray="west")

    def test_fourth_moment_coefficient_against_derivative_oracle(self):
        # the G^4 coefficient in the closed fourth moment is 3 q^3 / 4;
        # the derivative route is independent of the closed expressions
        for q in np.linspace(0.1, 0.9, 9):
            params = ModelParams(q=float(q))
            closed = an.closed_moments(params, orders=(4,)).value(4)
            derived = an.mgf_moments(params, max_order=4).value(4)
            assert rel(closed, derived) < 1e-5, q


class TestMgfMoments:
    def test_q04_against_references(self):
        report = an.mgf_moments(ModelParams(q=0.4), max_order=6)
        bounds = (1e-7, 1e-7, 1e-7, 1e-7, 1e-6, 1e-6)
        for k in range(1, 7):
            assert rel(report.value(k), MU_Q04[k - 1]) < bounds[k - 1]
            assert report.std_error(k) is not None and report.std_error(k) >= 0.0

    def test_matches_closed_at_half(self):
        closed = an.closed_moments(ModelParams(q=0.5), orders=(1,))
        derived = an.mgf_moments(ModelParams(q=0.5), max_order=1)
        assert rel(derived.value(1), closed.value(1)) < 1e-6

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

    def test_high_q_step_shrinks_to_fit_domain(self):
        # the stencil must stay clear of t*(0.9) ~ 0.129
        report = an.mgf_moments(ModelParams(q=0.9), max_order=2)
        closed = an.closed_moments(ModelParams(q=0.9), orders=(1, 2))
        assert rel(report.value(1), closed.value(1)) < 1e-6
        assert rel(report.value(2), closed.value(2)) < 1e-6

    def test_divergence_detector(self):
        step = lambda t: 1.0 if t >= 0.03 else 0.0
        with pytest.raises(ExtrapolationError):
            _richardson_derivative(step, 1, 0.1)


class TestResiduals:
    def test_ode_examples(self):
        assert abs(an.ode_residual(1.0, 2.0, 0.4, 1e-3)) < 1e-5
        assert abs(an.ode_residual(-1.2, 0.5, 0.7, 1e-3)) < 1e-5

    def test_ode_trivial_at_zero(self):
        assert an.ode_residual(0.0, 1.5, 0.3, 1e-3) == 0.0

    def test_ode_grid(self):
        worst = max(
            abs(an.ode_residual(t, y, q, 1e-3))
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
        assert report.std_error(1) is None

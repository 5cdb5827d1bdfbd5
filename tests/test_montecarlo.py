"""Stochastic oracles: recursion sampler, plane simulator, reproducibility."""

import math

import numpy as np
import pytest

from halfgilbert import analytic as an
from halfgilbert import montecarlo as mc
from halfgilbert.analytic import ModelParams


def sample_ray_length(params, rng) -> float:
    """Scalar reference of the stopping-set hop law: one exact terminal
    ray length.

    Per hop, in this order: E ~ rng.exponential() gives the stopping-set
    area scaled by the intensity, so the base length solves
    lam (r^2/2 + r y) = E, i.e. r = -y + sqrt(y^2 + 2 E / lam); a mark draw
    rng.random() < q keeps the recursion going (H seed), otherwise the ray
    ends at x_accum + r; for an H stop the new left boundary height is
    rng.uniform(0, r + y).  The production sampler batches the same law
    over a chunk; `test_reference_matches_production_sampler` ties the two.
    """
    y = x_accum = 0.0
    while True:
        area = rng.exponential()
        r = -y + math.sqrt(y * y + 2.0 * area / params.lam)
        if rng.random() >= params.q:
            return x_accum + r
        y, x_accum = rng.uniform(0.0, r + y), x_accum + r


class ScriptedRng:
    """Feeds a fixed draw sequence to sample_ray_length.

    uniform() returns the scripted value directly (it already is the drawn
    height, not a unit variate).
    """

    def __init__(self, exps, marks, heights=()):
        self._exps = iter(exps)
        self._marks = iter(marks)
        self._heights = iter(heights)

    def exponential(self):
        return next(self._exps)

    def random(self):
        return next(self._marks)

    def uniform(self, low, high):
        value = next(self._heights)
        assert low <= value <= high
        return value


class CountingRng:
    """Real Philox stream that counts hops (one exponential per hop)."""

    def __init__(self, seed):
        self._g = np.random.Generator(
            np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
        )
        self.hops = 0

    def exponential(self):
        self.hops += 1
        return self._g.exponential()

    def random(self):
        return self._g.random()

    def uniform(self, low, high):
        return self._g.uniform(low, high)


class TestRecursionSampler:
    def test_single_hop(self):
        # first seed is V-type: L = r = sqrt(2 E) from y = 0
        rng = ScriptedRng(exps=[0.5], marks=[0.99])
        assert sample_ray_length(ModelParams(q=0.4), rng) == 1.0

    def test_two_hops(self):
        # H stop at r1 = 1 with height 0.5, then V stop:
        # r2 = -0.5 + sqrt(0.25 + 0.75) = 0.5, so L = 1.5
        rng = ScriptedRng(exps=[0.5, 0.375], marks=[0.1, 0.99], heights=[0.5])
        assert sample_ray_length(ModelParams(q=0.4), rng) == 1.5

    def test_intensity_enters_area_inversion(self):
        rng = ScriptedRng(exps=[0.5], marks=[0.99])
        got = sample_ray_length(ModelParams(q=0.4, lam=4.0), rng)
        assert got == 0.5

    @pytest.mark.parametrize("lam", [1.0, 0.3])
    @pytest.mark.parametrize("q", [0.05, 0.5, 0.95])
    def test_reference_matches_production_sampler(self, q, lam):
        # a one-sample run is chunk 0, keyed (seed, 0), with one ray: its
        # draws come in the scalar reference's order, so the two must agree
        # bit for bit
        params = ModelParams(q=q, lam=lam)
        for seed in [*range(200), 2**64 - 1]:
            rng = np.random.Generator(
                np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
            )
            config = mc.SimConfig(params=params, samples=1, seed=seed)
            assert mc.draw_samples(config)[0] == sample_ray_length(params, rng), seed

    def test_rayleigh_regime(self):
        stats = mc.run_monte_carlo(
            mc.SimConfig(params=ModelParams(q=1e-9), samples=100_000, seed=3)
        )
        target = math.sqrt(math.pi / 2.0)
        assert abs(stats.mean - target) <= 4.0 * stats.std_errors[0]

    def test_hop_count_is_geometric(self):
        params = ModelParams(q=0.4)
        rng = CountingRng(9)
        n = 100_000
        for _ in range(n):
            sample_ray_length(params, rng)
        expected = 1.0 / 0.6
        spread = math.sqrt(0.4) / 0.6 / math.sqrt(n)
        assert rng.hops / n <= expected + 3.0 * spread


class TestRunMonteCarlo:
    def test_against_table_values(self):
        stats = mc.run_monte_carlo(
            mc.SimConfig(params=ModelParams(q=0.4), samples=1_000_000, seed=42)
        )
        assert abs(stats.mean - 1.81696) <= 4.0 * stats.std_errors[0]
        assert abs(stats.raw_moments[1] - 4.64107) <= 4.0 * stats.std_errors[1]

    def test_intensity_scaling(self):
        stats = mc.run_monte_carlo(
            mc.SimConfig(params=ModelParams(q=0.4, lam=4.0), samples=100_000, seed=7)
        )
        assert abs(stats.mean - 1.81696 / 2.0) <= 4.0 * stats.std_errors[0]

    @pytest.mark.parametrize("q,seed", [(0.2, 101), (0.4, 102), (0.7, 103)])
    def test_moments_match_closed_forms(self, q, seed):
        params = ModelParams(q=q)
        stats = mc.run_monte_carlo(
            mc.SimConfig(params=params, samples=1_000_000, seed=seed)
        )
        closed = an.closed_moments(params, orders=(1, 2, 3))
        for k in (1, 2, 3):
            assert (
                abs(stats.raw_moments[k - 1] - closed.value(k))
                <= 4.0 * stats.std_errors[k - 1]
            ), (q, k)

    @pytest.mark.parametrize("q,seed", [(0.2, 101), (0.4, 102), (0.7, 103)])
    def test_empirical_mgf_matches_analytic(self, q, seed):
        samples = mc.draw_samples(
            mc.SimConfig(params=ModelParams(q=q), samples=1_000_000, seed=seed)
        )
        # t = 0.5 sits beyond the MGF divergence abscissa at q = 0.7
        # (t* ~ 0.418), where the expectation is infinite; only compare on
        # the finite side.
        t_grid = (-2.0, -1.0, -0.5, 0.5) if q < 0.6 else (-2.0, -1.0, -0.5)
        for t in t_grid:
            weights = np.exp(t * samples)
            estimate = float(weights.mean())
            se = float(weights.std(ddof=1)) / math.sqrt(weights.size)
            assert abs(estimate - an.mgf(t, 0.0, q)) <= 4.0 * se, t

    def test_bit_identical_across_runs_and_workers(self):
        base = mc.SimConfig(params=ModelParams(q=0.4), samples=50_000, seed=5, workers=1)
        wide = mc.SimConfig(params=ModelParams(q=0.4), samples=50_000, seed=5, workers=4)
        first = mc.run_monte_carlo(base)
        again = mc.run_monte_carlo(base)
        parallel = mc.run_monte_carlo(wide)
        assert first == again == parallel
        assert np.array_equal(mc.draw_samples(base), mc.draw_samples(wide))

    def test_stats_invariants(self):
        stats = mc.run_monte_carlo(
            mc.SimConfig(params=ModelParams(q=0.3), samples=10_000, seed=1)
        )
        assert stats.n == 10_000
        assert stats.raw_moments[1] >= stats.mean**2
        assert all(se > 0.0 for se in stats.std_errors)
        assert all(v > 0.0 for v in stats.raw_moments)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            mc.SimConfig(params=ModelParams(q=0.4), samples=0, seed=1)
        with pytest.raises(ValueError):
            mc.SimConfig(params=ModelParams(q=0.4), samples=10, seed=-1)
        with pytest.raises(ValueError):
            mc.SimConfig(params=ModelParams(q=0.4), samples=10, seed=1, workers=0)


class TestEmpiricalMgf:
    def test_exactly_one_at_zero(self):
        assert mc.empirical_mgf([0.3, 1.2, 5.0], 0.0) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mc.empirical_mgf([], -1.0)


class TestPlaneSimulator:
    def test_south_blocked_by_earlier_east(self):
        # east tip passes the crossing (1, 0) at time 1, south tip arrives
        # at time 2: east unblocked, south stops at distance 2
        stop_e, stop_s = mc._resolve_blockings(
            np.array([0.0]), np.array([0.0]), np.array([1.0]), np.array([2.0])
        )
        assert stop_e[0] == math.inf
        assert stop_s[0] == 2.0

    def test_east_blocked_by_earlier_south(self):
        stop_e, stop_s = mc._resolve_blockings(
            np.array([0.0]), np.array([0.0]), np.array([2.0]), np.array([1.0])
        )
        assert stop_e[0] == 2.0
        assert stop_s[0] == math.inf

    def test_simultaneous_arrival_stops_both(self):
        stop_e, stop_s = mc._resolve_blockings(
            np.array([0.0]), np.array([0.0]), np.array([1.0]), np.array([1.0])
        )
        assert stop_e[0] == 1.0
        assert stop_s[0] == 1.0

    def test_dead_blocker_does_not_stop(self):
        # the east ray at (1, 1.5) reaches x = 2 at time 1, before the
        # south ray from (2, 3) gets there at time 1.5, so the south ray
        # dies at distance 1.5 and never reaches the test ray's path: the
        # east ray at the origin keeps growing past x = 2
        stop_e, stop_s = mc._resolve_blockings(
            np.array([0.0, 1.0]),
            np.array([0.0, 1.5]),
            np.array([2.0]),
            np.array([3.0]),
        )
        assert stop_s[0] == 1.5
        assert stop_e[0] == math.inf
        assert stop_e[1] == math.inf

    def test_empty_window(self):
        config = mc.PlaneConfig(
            params=ModelParams(q=0.4),
            window_width=0.05,
            window_height=0.05,
            margin=0.0,
            seed=1,
        )
        stats = mc.simulate_plane(config)
        assert stats.n == 0
        assert stats.censored == 0
        assert math.isnan(stats.mean)
        assert stats.moment_sums == (0.0,) * 6

    def test_margin_validation(self):
        with pytest.raises(ValueError):
            mc.PlaneConfig(
                params=ModelParams(q=0.4),
                window_width=60.0,
                window_height=60.0,
                margin=40.0,
                seed=1,
            )

    def test_interior_mean_matches_recursion_sampler(self):
        # the two oracles share no code path; the window is small so the
        # comparison is read at the resolution its n allows
        params = ModelParams(q=0.4)
        plane = mc.simulate_plane(
            mc.PlaneConfig(
                params=params, window_width=40.0, window_height=40.0, margin=10.0, seed=7
            )
        )
        recursion = mc.run_monte_carlo(
            mc.SimConfig(params=params, samples=200_000, seed=7)
        )
        assert plane.n > 100
        assert abs(plane.mean - recursion.mean) / recursion.mean < 0.10

    def test_censoring_decreases_with_window_size(self):
        fractions = []
        for size in (5.0, 8.0, 14.0):
            stats = mc.simulate_plane(
                mc.PlaneConfig(
                    params=ModelParams(q=0.7),
                    window_width=size,
                    window_height=size,
                    margin=size / 4.0,
                    seed=5,
                )
            )
            total = stats.n + stats.censored
            fractions.append(stats.censored / total if total else 0.0)
        assert fractions[0] > 0.0
        assert fractions[0] >= fractions[1] >= fractions[2]

    def test_censoring_warning_flag(self):
        stats = mc.simulate_plane(
            mc.PlaneConfig(
                params=ModelParams(q=0.7),
                window_width=5.0,
                window_height=5.0,
                margin=1.25,
                seed=5,
            )
        )
        assert stats.censored > 0
        assert stats.censored_warning

    def test_deterministic(self):
        config = mc.PlaneConfig(
            params=ModelParams(q=0.4),
            window_width=20.0,
            window_height=20.0,
            margin=5.0,
            seed=3,
        )
        assert mc.simulate_plane(config) == mc.simulate_plane(config)

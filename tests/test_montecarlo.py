"""Stochastic oracles: recursion sampler, plane simulator, reproducibility."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfgilbert import analytic as an
from halfgilbert import montecarlo as mc
from halfgilbert.analytic import ModelParams
from halfgilbert.errors import DomainError


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


def empirical_mgf(samples, t: float) -> float:
    """Empirical MGF (1/n) sum exp(t * X_i) of a sample of lengths.

    Trustworthy for t <= 0.  For t > 0 the summand is heavy-tailed
    (E[exp(t X)] is infinite past the divergence abscissa of the MGF and
    its empirical variance explodes well before that), so keep t well
    below analytic.mgf_divergence_point(q).
    """
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        raise ValueError("empirical_mgf needs at least one sample")
    return float(np.exp(t * arr).mean())


def power_sums_reference(lengths: np.ndarray) -> list[float]:
    """The 12 power sums of stats_from_lengths, one fresh array per power."""
    sums = []
    power = lengths.copy()
    with np.errstate(over="ignore"):
        for _ in range(12):
            sums.append(float(power.sum()))
            power = power * lengths
    return sums


def assert_power_sums_match_reference(lengths: np.ndarray) -> None:
    """stats_from_lengths' sums are the reference's floats: the first six
    directly, orders 7-12 through the standard errors they feed (which need
    two lengths)."""
    stats = mc.stats_from_lengths(lengths)
    sums = power_sums_reference(lengths)
    n = lengths.size
    assert stats.moment_sums == tuple(sums[:6])
    if n < 2:
        return
    errors = tuple(
        math.sqrt(max(sums[2 * k - 1] / n - (sums[k - 1] / n) ** 2, 0.0) * n / (n - 1) / n)
        for k in range(1, 7)
    )
    assert stats.std_errors == errors


# All-pairs plane resolver with the blocking rule written out per case (a
# later south ray, a later east ray, a tie), built in east-ray blocks.  It
# is the oracle that montecarlo._resolve_blockings must match bit for bit.

def resolve_blockings_reference(
    east_x: np.ndarray,
    east_y: np.ndarray,
    south_x: np.ndarray,
    south_y: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Stop distances for interacting east and south rays.

    An east ray from (x0, y0) and a south ray from (a, b) with a > x0 and
    b > y0 cross at (a, y0); the east tip passes at time a - x0, the south
    tip at b - y0.  The later tip stops there iff the earlier ray still
    covered the crossing when its own tip passed (it was not stopped
    strictly before it); simultaneous arrival stops both.  Events are
    processed in increasing later-arrival time, which makes every lookup
    refer to already-settled history.  Returns stop distances, inf for
    rays that are never blocked.
    """
    n_east = east_x.size
    n_south = south_x.size
    stop_e = [math.inf] * n_east
    stop_s = [math.inf] * n_south
    if n_east == 0 or n_south == 0:
        return np.array(stop_e), np.array(stop_s)

    pair_e = []
    pair_s = []
    d_e_parts = []
    d_s_parts = []
    block = max(1, int(2**22 // max(n_south, 1)))
    for start in range(0, n_east, block):
        end = min(start + block, n_east)
        ex = east_x[start:end, None]
        ey = east_y[start:end, None]
        hit = (south_x[None, :] > ex) & (south_y[None, :] > ey)
        ii, jj = np.nonzero(hit)
        pair_e.append(ii + start)
        pair_s.append(jj)
        d_e_parts.append(south_x[jj] - east_x[ii + start])
        d_s_parts.append(south_y[jj] - east_y[ii + start])
    e_idx = np.concatenate(pair_e)
    s_idx = np.concatenate(pair_s)
    d_e = np.concatenate(d_e_parts)
    d_s = np.concatenate(d_s_parts)
    t_event = np.maximum(d_e, d_s)
    # Deterministic order: time, then tie-break on distances and indices.
    order = np.lexsort((s_idx, e_idx, d_s, d_e, t_event))

    e_list = e_idx[order].tolist()
    s_list = s_idx[order].tolist()
    de_list = d_e[order].tolist()
    ds_list = d_s[order].tolist()
    for i, j, de, ds in zip(e_list, s_list, de_list, ds_list):
        if de < ds:
            if stop_s[j] > ds and stop_e[i] >= de:
                stop_s[j] = ds
        elif ds < de:
            if stop_e[i] > de and stop_s[j] >= ds:
                stop_e[i] = de
        else:
            covered_e = stop_e[i] >= de
            covered_s = stop_s[j] >= ds
            hit_s = covered_e and stop_s[j] > ds
            hit_e = covered_s and stop_e[i] > de
            if hit_s:
                stop_s[j] = ds
            if hit_e:
                stop_e[i] = de
    return np.array(stop_e), np.array(stop_s)


def assert_resolves_like_reference(*rays):
    stop_e, stop_s = mc._resolve_blockings(*rays)
    ref_e, ref_s = resolve_blockings_reference(*rays)
    assert np.array_equal(stop_e, ref_e)
    assert np.array_equal(stop_s, ref_s)


def tie_heavy_grids(count):
    """`count` ray sets of 0-40 seeds on a 2..7 integer grid with a random
    east share, so equal arrival times, equal event times, rays through
    each other's seeds and events on the resolver's block edges are
    common."""
    rng = np.random.default_rng(17)
    for _ in range(count):
        n = int(rng.integers(0, 41))
        grid = int(rng.integers(2, 8))
        xs = rng.integers(0, grid, n).astype(float)
        ys = rng.integers(0, grid, n).astype(float)
        is_east = rng.random(n) < rng.random()
        yield rng, (xs[is_east], ys[is_east], xs[~is_east], ys[~is_east])


def resolve_all_by_reference(east_x, east_y, south_x, south_y, watch=None, spacing=1.0):
    """resolve_blockings_reference in the place of _resolve_blockings: it
    takes the `watch` mask and the seed spacing, and resolves every ray
    regardless."""
    return resolve_blockings_reference(east_x, east_y, south_x, south_y)


def reference_plane_lengths(config):
    """plane_lengths with resolve_blockings_reference patched in."""
    resolver = mc._resolve_blockings
    mc._resolve_blockings = resolve_all_by_reference
    try:
        return mc.plane_lengths(config)
    finally:
        mc._resolve_blockings = resolver


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

    def test_stats_of_no_and_one_length(self):
        # empty sums are 0.0, the moments need one length, the errors two
        empty = mc.stats_from_lengths(np.array([]), censored=3)
        assert (empty.n, empty.censored, empty.censored_warning) == (0, 3, True)
        assert empty.moment_sums == (0.0,) * 6
        assert all(math.isnan(v) for v in (empty.mean, *empty.raw_moments))
        assert all(math.isnan(se) for se in empty.std_errors)
        one = mc.stats_from_lengths(np.array([1.5]))
        assert one.raw_moments == one.moment_sums == tuple(1.5**k for k in range(1, 7))
        assert all(math.isnan(se) for se in one.std_errors)
        two = mc.stats_from_lengths(np.array([1.0, 3.0]))
        assert two.std_errors[0] == 1.0

    @pytest.mark.parametrize(
        "n", [1, 2, 7, 100, 12_345, mc.CHUNK_SIZE, mc.CHUNK_SIZE + 1, 999_999]
    )
    def test_power_sums_equal_reference(self, n):
        rng = np.random.default_rng(n)
        assert_power_sums_match_reference(rng.exponential(2.0, size=n))

    def test_power_sums_of_drawn_lengths_equal_reference(self):
        for seed in (1, 2, 3):
            config = mc.SimConfig(params=ModelParams(q=0.4), samples=1_000_000, seed=seed)
            assert_power_sums_match_reference(mc.draw_samples(config))

    # Arrays the exponential draws above never give: zeros, subnormals,
    # repeats and lengths twenty decades apart in one sum.
    @settings(derandomize=True, database=None)
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e20), min_size=2, max_size=300
        )
    )
    def test_power_sums_property(self, lengths):
        assert_power_sums_match_reference(np.array(lengths))

    def test_overflowing_power_sum_raises(self):
        # 1e30**12 overflows a float; the order-12 sum feeds the order-6 error
        with pytest.raises(DomainError):
            mc.stats_from_lengths(np.array([1e30, 2e30]))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            mc.SimConfig(params=ModelParams(q=0.4), samples=0, seed=1)
        with pytest.raises(ValueError):
            mc.SimConfig(params=ModelParams(q=0.4), samples=10, seed=-1)
        with pytest.raises(ValueError):
            mc.SimConfig(params=ModelParams(q=0.4), samples=10, seed=1, workers=0)


class TestEmpiricalMgf:
    def test_exactly_one_at_zero(self):
        assert empirical_mgf([0.3, 1.2, 5.0], 0.0) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_mgf([], -1.0)


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

    def test_matches_reference_on_tie_heavy_grids(self):
        ties = 0
        for _, rays in tie_heavy_grids(2_000):
            assert_resolves_like_reference(*rays)
            ex, ey, sx, sy = rays
            crossing = (sx > ex[:, None]) & (sy > ey[:, None])
            ties += bool(np.any(crossing & (sx - ex[:, None] == sy - ey[:, None])))
        assert ties > 500

    def test_watched_stops_match_reference_on_tie_heavy_grids(self):
        # event times of 4 = _BLOCK_T sit on the first block edge; the sweep
        # may end early, but never before a watched ray is settled
        on_edge = 0
        for rng, rays in tie_heavy_grids(2_000):
            watch = rng.random(rays[0].size) < rng.random()
            stop_e, _ = mc._resolve_blockings(*rays, watch=watch)
            ref_e, _ = resolve_blockings_reference(*rays)
            assert np.array_equal(stop_e[watch], ref_e[watch])
            ex, ey, sx, sy = rays
            de = sx - ex[:, None]
            ds = sy - ey[:, None]
            on_edge += bool(np.any((de > 0) & (ds > 0) & (np.maximum(de, ds) == 4.0)))
        assert on_edge > 200

    @pytest.mark.parametrize(
        "side,q,seed", [(30.0, 0.3, 1), (34.0, 0.4, 2), (37.0, 0.5, 3), (40.0, 0.6, 4)]
    )
    def test_matches_reference_on_philox_windows(self, side, q, seed):
        # the draws of plane_lengths at lam = 1
        rng = mc._chunk_generator(seed, mc._PLANE_STREAM_TAG)
        n = int(rng.poisson(side * side))
        xs = rng.uniform(0.0, side, n)
        ys = rng.uniform(0.0, side, n)
        is_east = rng.random(n) < q
        assert_resolves_like_reference(xs[is_east], ys[is_east], xs[~is_east], ys[~is_east])

    @pytest.mark.parametrize(
        "side,q,seed", [(40.0, 0.3, 11), (50.0, 0.45, 12), (60.0, 0.6, 13)]
    )
    def test_plane_lengths_match_reference_on_workload_windows(self, side, q, seed):
        config = mc.PlaneConfig(
            params=ModelParams(q=q),
            window_width=side,
            window_height=side,
            margin=15.0,
            seed=seed,
        )
        lengths, censored = mc.plane_lengths(config)
        ref_lengths, ref_censored = reference_plane_lengths(config)
        assert lengths.tobytes() == ref_lengths.tobytes()
        assert censored == ref_censored

    @pytest.mark.parametrize("lam,side", [(0.3, 70.0), (3.0, 24.0)])
    def test_plane_lengths_match_reference_at_other_intensities(self, lam, side):
        # blocks and cells of 4 and 1 times the seed spacing 1/sqrt(lam),
        # which is no longer a power of two
        config = mc.PlaneConfig(
            params=ModelParams(q=0.5, lam=lam),
            window_width=side,
            window_height=side,
            margin=side / 4.0,
            seed=14,
        )
        lengths, censored = mc.plane_lengths(config)
        ref_lengths, ref_censored = reference_plane_lengths(config)
        assert lengths.tobytes() == ref_lengths.tobytes()
        assert censored == ref_censored

    def test_plane_lengths_match_reference_on_censoring_heavy_windows(self):
        # small windows and wide bands leave interior rays unblocked, so the
        # sweep must run to the end of the window for them
        rng = np.random.default_rng(23)
        censored_total = 0
        for seed in range(36):
            side = float(rng.uniform(6.0, 35.0))
            config = mc.PlaneConfig(
                params=ModelParams(q=float(rng.uniform(0.2, 0.9))),
                window_width=side,
                window_height=side,
                margin=float(rng.uniform(0.0, 0.5 * side)),
                seed=seed,
            )
            lengths, censored = mc.plane_lengths(config)
            ref_lengths, ref_censored = reference_plane_lengths(config)
            assert lengths.tobytes() == ref_lengths.tobytes()
            assert censored == ref_censored
            censored_total += censored
        assert censored_total > 50

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

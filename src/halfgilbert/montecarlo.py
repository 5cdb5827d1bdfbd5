"""Two independent stochastic oracles for terminal ray length.

The first (`draw_samples`, `run_monte_carlo`) draws exact lengths
through the stopping-set recursion: grow a trapezoid of left height y into
the live zone until its exponentially distributed area is exhausted, stop
with probability 1-q (the blocking seed is a south ray), otherwise restart
from a uniformly placed left boundary.  The second (`simulate_plane`)
scatters actual seeds in a finite window, grows east and south rays at unit
rate and resolves every blocking chronologically; it shares no code with
the recursion sampler and validates the dead-zone reasoning behind it.

Reproducibility contract: all randomness is Philox keyed by (seed, stream
index).  The sample index space is cut into fixed-size chunks whose
substreams depend only on the seed and chunk index, so results are
bit-identical regardless of how many workers execute the chunks.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .analytic import ModelParams

__all__ = [
    "CHUNK_SIZE",
    "PlaneConfig",
    "SimConfig",
    "SimStats",
    "draw_samples",
    "empirical_mgf",
    "plane_lengths",
    "run_monte_carlo",
    "simulate_plane",
    "stats_from_lengths",
]

# Fixed chunk size for the recursion sampler; must not depend on the worker
# count or determinism across worker counts breaks.
CHUNK_SIZE = 1 << 14

# Tag mixed into the Philox key of the plane simulator so its stream never
# collides with a recursion chunk stream of the same seed.
_PLANE_STREAM_TAG = 0x504C414E45

_MAX_SEED = 2**64

_N_MOMENTS = 6


@dataclass(frozen=True)
class SimConfig:
    params: ModelParams
    samples: int
    seed: int
    workers: int = 1

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ValueError("samples must be at least 1")
        if not 0 <= self.seed < _MAX_SEED:
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")


@dataclass(frozen=True)
class PlaneConfig:
    params: ModelParams
    window_width: float
    window_height: float
    margin: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not (self.window_width > 0.0 and self.window_height > 0.0):
            raise ValueError("window dimensions must be positive")
        if not (math.isfinite(self.window_width) and math.isfinite(self.window_height)):
            raise ValueError("window dimensions must be finite")
        if not self.margin >= 0.0:  # also refuses NaN
            raise ValueError("margin must be nonnegative")
        if self.margin >= 0.5 * min(self.window_width, self.window_height):
            raise ValueError(
                "margin band is empty: margin must stay below half the "
                "smaller window dimension"
            )
        if not 0 <= self.seed < _MAX_SEED:
            raise ValueError("seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class SimStats:
    """Moment accumulators of one Monte Carlo run.

    raw_moments[k-1] estimates E[X^k] for k = 1..6 and std_errors carries
    the per-order standard error (sample std of X^k over sqrt(n)).  The
    plane simulator additionally reports rays whose termination fell
    outside the window as `censored`; they are excluded from the moments,
    never silently dropped, and censored_warning flags a censored fraction
    above 1%.
    """

    n: int
    moment_sums: tuple[float, ...]
    mean: float
    raw_moments: tuple[float, ...]
    std_errors: tuple[float, ...]
    seed: int
    censored: int = 0
    censored_warning: bool = False


def _chunk_generator(seed: int, index: int) -> np.random.Generator:
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _sample_chunk(q: float, lam: float, seed: int, index: int, count: int) -> np.ndarray:
    """Vectorised stopping-set recursion for one chunk.

    Hop law, per ray starting from y = x_accum = 0: E ~ Exp(1) is the
    stopping-set area scaled by the intensity, so the base length solves
    lam (r^2/2 + r y) = E, i.e. r = -y + sqrt(y^2 + 2 E / lam); a mark
    u < q keeps the recursion going (H seed), otherwise the ray ends at
    x_accum + r; for an H stop the new left boundary height is uniform on
    (0, r + y).  Terminates almost surely since every hop ends with
    probability 1 - q > 0.  Each round draws areas for all still-running
    rays, then marks, then (for the continuing subset) the new heights, so
    a one-ray chunk consumes the stream in the same order as the scalar
    reference in the test suite.
    """
    rng = _chunk_generator(seed, index)
    y = np.zeros(count)
    x_accum = np.zeros(count)
    out = np.empty(count)
    alive = np.arange(count)
    while alive.size:
        areas = rng.exponential(size=alive.size)
        y_alive = y[alive]
        r = -y_alive + np.sqrt(y_alive * y_alive + 2.0 * areas / lam)
        stopped = rng.random(size=alive.size) >= q
        done = alive[stopped]
        out[done] = x_accum[done] + r[stopped]
        cont = alive[~stopped]
        if cont.size:
            r_cont = r[~stopped]
            y[cont] = rng.random(size=cont.size) * (r_cont + y[cont])
            x_accum[cont] += r_cont
        alive = cont
    return out


def draw_samples(config: SimConfig) -> np.ndarray:
    """All terminal lengths for a SimConfig, in fixed chunk order.

    The returned array is bit-identical for any worker count: chunk i is
    always samples [i*CHUNK_SIZE, ...) generated from Philox key
    (seed, i), and workers only decide who computes which chunk.
    """
    q = config.params.q
    lam = config.params.lam
    n = config.samples
    counts = [
        min(CHUNK_SIZE, n - start) for start in range(0, n, CHUNK_SIZE)
    ]
    if config.workers == 1 or len(counts) == 1:
        chunks = [
            _sample_chunk(q, lam, config.seed, i, c) for i, c in enumerate(counts)
        ]
    else:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            futures = [
                pool.submit(_sample_chunk, q, lam, config.seed, i, c)
                for i, c in enumerate(counts)
            ]
            chunks = [f.result() for f in futures]
    return np.concatenate(chunks)


def stats_from_lengths(lengths: np.ndarray, seed: int, censored: int = 0) -> SimStats:
    """SimStats of finished terminal lengths, plus `censored` rays that did
    not finish; censored_warning is set when they exceed 1% of all rays."""
    n = int(lengths.size)
    censored_warning = n + censored > 0 and censored / (n + censored) > 0.01
    if n == 0:
        nan = float("nan")
        zeros = (0.0,) * _N_MOMENTS
        nans = (nan,) * _N_MOMENTS
        return SimStats(
            n=0,
            moment_sums=zeros,
            mean=nan,
            raw_moments=nans,
            std_errors=nans,
            seed=seed,
            censored=censored,
            censored_warning=censored_warning,
        )
    # Power sums up to order 12: the standard error of the order-k raw
    # moment needs the order-2k sum.
    sums = []
    power = lengths.copy()
    for _ in range(2 * _N_MOMENTS):
        sums.append(float(power.sum()))
        power = power * lengths
    raw = [sums[k - 1] / n for k in range(1, _N_MOMENTS + 1)]
    errs = []
    for k in range(1, _N_MOMENTS + 1):
        if n < 2:
            errs.append(float("nan"))
            continue
        variance = max(sums[2 * k - 1] / n - raw[k - 1] ** 2, 0.0) * n / (n - 1)
        errs.append(math.sqrt(variance / n))
    return SimStats(
        n=n,
        moment_sums=tuple(sums[:_N_MOMENTS]),
        mean=raw[0],
        raw_moments=tuple(raw),
        std_errors=tuple(errs),
        seed=seed,
        censored=censored,
        censored_warning=censored_warning,
    )


def run_monte_carlo(config: SimConfig) -> SimStats:
    """SimStats over config.samples independent recursion draws."""
    return stats_from_lengths(draw_samples(config), config.seed)


def empirical_mgf(samples, t: float) -> float:
    """Empirical MGF (1/n) sum exp(t * X_i) of a sample of lengths.

    Trustworthy for t <= 0.  For t > 0 the summand is heavy-tailed
    (E[exp(t X)] is infinite past the divergence abscissa of the MGF and
    its empirical variance explodes well before that), so keep t well
    below analytic.mgf_divergence_point(q) and treat the standard error
    with suspicion as t approaches it.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        raise ValueError("empirical_mgf needs at least one sample")
    return float(np.exp(t * arr).mean())


# ---------------------------------------------------------------------------
# Direct plane simulation
# ---------------------------------------------------------------------------


def _resolve_blockings(
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


def plane_lengths(config: PlaneConfig) -> tuple[np.ndarray, int]:
    """Terminal lengths of interior east rays, plus the censored count.

    Draw order (fixed for reproducibility): seed count, x coordinates,
    y coordinates, marks.
    """
    params = config.params
    rng = _chunk_generator(config.seed, _PLANE_STREAM_TAG)
    w = config.window_width
    h = config.window_height
    n_seeds = int(rng.poisson(params.lam * w * h))
    xs = rng.uniform(0.0, w, n_seeds)
    ys = rng.uniform(0.0, h, n_seeds)
    is_east = rng.random(n_seeds) < params.q

    east_x = xs[is_east]
    east_y = ys[is_east]
    stop_e, _ = _resolve_blockings(east_x, east_y, xs[~is_east], ys[~is_east])

    m = config.margin
    in_band = (
        (east_x >= m) & (east_x <= w - m) & (east_y >= m) & (east_y <= h - m)
    )
    band_stops = stop_e[in_band]
    finished = np.isfinite(band_stops)
    return band_stops[finished], int((~finished).sum())


def simulate_plane(config: PlaneConfig) -> SimStats:
    """Event-driven simulation of east/south rays in a finite window.

    Scatters Poisson(lam * area) seeds uniformly, marks each H (east
    growing) with probability q else V (south growing), resolves all
    blockings, and reports moment statistics over the terminal lengths of
    east rays whose seeds lie at least `margin` away from every window
    edge.  Interior east rays that are never blocked inside the window are
    counted as censored and excluded from the moments.
    """
    lengths, censored = plane_lengths(config)
    return stats_from_lengths(lengths, config.seed, censored)

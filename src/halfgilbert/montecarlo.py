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
from .errors import DomainError

__all__ = [
    "CHUNK_SIZE",
    "PlaneConfig",
    "SimConfig",
    "SimStats",
    "draw_samples",
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

# Time block of the plane resolver's sweep, and the side of the grid cells
# it files the south seeds in, in units of the seed spacing 1/sqrt(lam), so
# that the number of blocks and the seeds per cell do not depend on lam.
# Both set only its speed and memory, never its result.
_BLOCK_T = 4.0
_CELL = 1.0


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


def stats_from_lengths(lengths: np.ndarray, censored: int = 0) -> SimStats:
    """SimStats of finished terminal lengths, plus `censored` rays that did
    not finish; censored_warning is set when they exceed 1% of all rays.
    Empty sums are 0.0, the moments are NaN without a length and the errors
    without two; a power sum that overflows a float raises DomainError."""
    n = int(lengths.size)
    censored_warning = n + censored > 0 and censored / (n + censored) > 0.01
    # Power sums up to order 12: the standard error of the order-k raw
    # moment needs the order-2k sum.
    with np.errstate(over="ignore"):
        power = lengths * lengths
        sums = [float(lengths.sum()), float(power.sum())]
        for _ in range(2 * _N_MOMENTS - 2):
            np.multiply(power, lengths, out=power)
            sums.append(float(power.sum()))
    if not all(map(math.isfinite, sums)):
        raise DomainError(f"a power sum of {n} lengths overflows a float")
    raw = [s / n if n else math.nan for s in sums[:_N_MOMENTS]]
    errs = [math.nan] * _N_MOMENTS
    if n > 1:
        for k in range(1, _N_MOMENTS + 1):
            variance = max(sums[2 * k - 1] / n - raw[k - 1] ** 2, 0.0) * n / (n - 1)
            errs[k - 1] = math.sqrt(variance / n)
    return SimStats(
        n=n,
        moment_sums=tuple(sums[:_N_MOMENTS]),
        mean=raw[0],
        raw_moments=tuple(raw),
        std_errors=tuple(errs),
        censored=censored,
        censored_warning=censored_warning,
    )


def run_monte_carlo(config: SimConfig) -> SimStats:
    """SimStats over config.samples independent recursion draws."""
    return stats_from_lengths(draw_samples(config))


# ---------------------------------------------------------------------------
# Direct plane simulation
# ---------------------------------------------------------------------------


def _resolve_blockings(
    east_x: np.ndarray,
    east_y: np.ndarray,
    south_x: np.ndarray,
    south_y: np.ndarray,
    watch: np.ndarray | None = None,
    spacing: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Stop distances for interacting east and south rays.

    East ray i from (x0, y0) and south ray j from (a, b) with a > x0 and
    b > y0 cross at (a, y0); the east tip passes at time de = a - x0, the
    south tip at ds = b - y0.  The later tip stops there iff its blocker
    covered the crossing (was not stopped strictly before it):

        south j stops at ds iff de <= ds, stop_s[j] > ds, stop_e[i] >= de
        east i stops at de  iff ds <= de, stop_e[i] > de, stop_s[j] >= ds

    Both are read before either stop is written, so a tie stops each ray
    whose blocker covered the crossing.  Events are processed in
    increasing later-arrival time t = max(de, ds), so every lookup refers
    to settled history.

    The events are swept in time blocks (0, D], (D, 2D], ... with
    D = _BLOCK_T * spacing.  A block takes its candidate pairs from a grid
    of the south seeds with cells of side _CELL * spacing, padded by one
    cell against rounding of the cell index.  It keeps a pair only if
    a > x0 and b > y0, and puts it in the block iff t_lo < t <= t_hi on the
    same float t that orders the events.  So each crossing lands in exactly
    one block, equal times share a block, and sorting each block by
    (t, de, ds, i, j) on the callers' indices replays the global event
    order exactly; no all-pairs array is built.  `spacing` is the seed
    spacing (plane_lengths passes 1/sqrt(lam)); it scales the blocks and
    cells to the model and changes no result.

    With a boolean `watch` mask over the east rays the sweep ends after
    the first block whose end t_hi leaves every watched ray settled:
    stopped, or with max(south_x) - x0 <= t_hi, so that every later event
    of the ray has de < t and cannot stop it.  A stop, once set, is final,
    since it is only set at t = de and a later event of the ray has either
    de >= the stop or ds > de.  The watched stop_e are then exact, while
    stop_s and the unwatched stop_e may be left unresolved (inf).  Without
    `watch` the sweep runs to the last event.  Returns stop distances, inf
    for rays never blocked.
    """
    stop_e = [math.inf] * east_x.size
    stop_s = [math.inf] * south_x.size
    if east_x.size and south_x.size:
        block = _BLOCK_T * spacing
        candidates = _candidate_pairs(east_x, east_y, south_x, south_y, _CELL * spacing)
        reach = south_x.max() - east_x
        t_end = max(reach.max(), south_y.max() - east_y.min())
        t_hi = 0.0
        while True:  # each block starts at the very float the last one ended
            t_lo, t_hi = t_hi, t_hi + block
            ii, jj = candidates(t_lo, t_hi)
            keep = (south_x[jj] > east_x[ii]) & (south_y[jj] > east_y[ii])
            ii, jj = ii[keep], jj[keep]
            d_e = south_x[jj] - east_x[ii]
            d_s = south_y[jj] - east_y[ii]
            t = np.maximum(d_e, d_s)
            inside = (t_lo < t) & (t <= t_hi)
            ii, jj, d_e, d_s, t = (a[inside] for a in (ii, jj, d_e, d_s, t))
            # Deterministic order: time, then tie-break on distances and indices.
            order = np.lexsort((jj, ii, d_s, d_e, t))
            for i, j, de, ds in zip(*(a[order].tolist() for a in (ii, jj, d_e, d_s))):
                hit_s = de <= ds and stop_s[j] > ds and stop_e[i] >= de
                hit_e = ds <= de and stop_e[i] > de and stop_s[j] >= ds
                if hit_s:
                    stop_s[j] = ds
                if hit_e:
                    stop_e[i] = de
            if t_hi >= t_end:
                break
            if watch is not None:
                open_e = np.isinf(np.array(stop_e)) & (reach > t_hi)
                if not np.any(open_e & watch):
                    break
    return np.array(stop_e), np.array(stop_s)


def _candidate_pairs(east_x, east_y, south_x, south_y, side):
    """Files the south seeds in a grid of square cells of side `side` and
    returns a function of (t_lo, t_hi) that gives (east, south) index
    pairs: a superset of the crossings with t_lo < t <= t_hi.

    For an east ray from (x0, y0), the cell rows from y0's up to
    (y0 + t_hi)'s are read over the columns from x0's to (x0 + t_hi)'s.
    Rows below (y0 + t_lo)'s hold only ds < t_lo, so there the columns
    start at (x0 + t_lo)'s.  Every bound is widened by one cell, which
    covers the rounding of a cell index.
    """
    left = south_x.min()
    bottom = south_y.min()
    col = ((south_x - left) // side).astype(np.int64)
    n_cols = int(col.max()) + 1
    cell = ((south_y - bottom) // side).astype(np.int64) * n_cols + col
    # Row-major cell order, so the cells of one row segment are one
    # contiguous run of by_cell.
    by_cell = np.argsort(cell, kind="stable")
    cell = cell[by_cell]
    n_rows = int(cell[-1]) // n_cols + 1

    def index(v, origin):
        return ((v - origin) // side).astype(np.int64)

    def pairs(t_lo, t_hi):
        col_lo = np.maximum(index(east_x, left) - 1, 0)
        col_lo_inner = np.maximum(index(east_x + t_lo, left) - 1, 0)
        col_hi = np.minimum(index(east_x + t_hi, left) + 1, n_cols - 1)
        row_inner = index(east_y + t_lo, bottom) - 2
        row_lo = np.maximum(index(east_y, bottom) - 1, 0)
        row_hi = np.minimum(index(east_y + t_hi, bottom) + 1, n_rows - 1)
        rows = np.maximum(row_hi - row_lo + 1, 0)
        ray = np.repeat(np.arange(east_x.size), rows)
        row = row_lo[ray] + _ramp(rows)
        lo = np.where(row <= row_inner[ray], col_lo_inner[ray], col_lo[ray])
        hi = np.maximum(col_hi[ray], lo - 1)  # lo > hi: an empty segment
        first = np.searchsorted(cell, row * n_cols + lo)
        count = np.searchsorted(cell, row * n_cols + hi + 1) - first
        return np.repeat(ray, count), by_cell[np.repeat(first, count) + _ramp(count)]

    return pairs


def _ramp(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., c - 1 for each c in counts, concatenated."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if ends.size else 0) - np.repeat(ends - counts, counts)


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
    m = config.margin
    in_band = (
        (east_x >= m) & (east_x <= w - m) & (east_y >= m) & (east_y <= h - m)
    )
    stop_e, _ = _resolve_blockings(
        east_x, east_y, xs[~is_east], ys[~is_east], in_band, 1.0 / math.sqrt(params.lam)
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
    return stats_from_lengths(lengths, censored)

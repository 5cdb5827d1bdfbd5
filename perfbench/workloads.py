"""Workloads of the halfgilbert benchmark: seeded op generators and op checks.

An op is one call of ``halfgilbert.cli.main(argv)``.  Op ``i`` draws each
parameter as ``lo + frac(shift + i * alpha) * (hi - lo)``, with a shift
drawn from the workload seed per parameter and a fixed irrational
``alpha`` per parameter (a randomly shifted Kronecker sequence).  Every
value is uniform on its range and no two ops repeat, so caching across
calls shows only what a user would get.  Unlike independent draws, the
values of any stretch of consecutive ops are spread almost evenly over the
range (the three-gap theorem), so a run of a few dozen ops covers it the
same way whatever the seed, which keeps the run-to-run spread small.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Iterator

from halfgilbert import cli
from halfgilbert.analytic import ModelParams, closed_moments

# Golden-ratio and silver-ratio steps: badly approximable, so the sequence
# spreads evenly, and different, so two parameters of one op are unrelated.
_STEPS = ((5.0**0.5 - 1.0) / 2.0, 2.0**0.5 - 1.0)

# The closed-vs-MGF relative tolerances of the validate command, per order.
_CLOSED_VS_MGF_TOL = {1: 1e-5, 2: 1e-5, 3: 1e-4, 4: 1e-4}

# Monte Carlo estimates must lie within this many standard errors, as in
# the validate command.  A sampler run makes about 280 such tests (70 ops,
# orders 1-4), so at 4 errors per op a correct sampler fails a run now and
# then (one op at -4.02 in about 1500).  Each op is held to 5 errors, and
# the run to 4 errors on the sum of its ops' z-scores per order, which
# catches a bias of half a standard error per op.
_MC_SIGMAS = 4.0
_MC_OP_SIGMAS = 5.0

# Acceptance criterion 6: plane mean within 5% of mu_1, censored below 1%.
_PLANE_MEAN_REL_TOL = 0.05
_PLANE_CENSORED_MAX = 0.01

# The plane simulator's standard error treats the rays of one window as
# independent, but they block each other: over 160 windows of side 40 to
# 60 the error of the mean had a spread of 1.46 reported standard errors,
# with a heavier low tail (down to -6.2).  The mean is therefore held to
# this many reported standard errors where 5% is tighter than that.
_PLANE_SIGMAS = 8.0


def worker_count() -> int:
    """CPUs this process may run on; the sampler never gets more threads."""
    return min(os.cpu_count() or 1, len(os.sched_getaffinity(0)))


@dataclass(frozen=True)
class Op:
    """One generated CLI call and, once run, its outcome."""

    index: int
    values: dict[str, float]
    argv: list[str]
    rc: int | None = None
    out: str = ""
    error: str = ""
    seconds: float = 0.0
    scaled: float = 0.0
    traced: bool = False


@dataclass(frozen=True)
class Workload:
    """A CLI command, the ranges its arguments are drawn from, and its checks.

    ``ranges`` maps a parameter name to its flags and interval; every flag
    listed gets the same drawn value (the plane window is square).
    ``repeats`` lists the argv suffixes of the determinism check: the
    fastest op of a run is re-run once per suffix, and each output must be
    byte-identical to the original.  ``run_check`` checks all ops of a run
    together.  Each re-run and the run check count as one attempted op.
    """

    name: str
    command: tuple[str, ...]
    ranges: dict[str, tuple[tuple[str, ...], float, float]]
    check: Callable[[Op], str | None]
    fresh_seed: bool = True
    repeats: tuple[tuple[str, ...], ...] = ()
    run_check: Callable[[list[Op]], str | None] | None = None

    def __post_init__(self) -> None:
        if len(self.ranges) > len(_STEPS):
            raise ValueError(f"at most {len(_STEPS)} drawn parameters per workload")

    @property
    def checks_per_run(self) -> int:
        return len(self.repeats) + (self.run_check is not None)

    def ops(self, seed: int) -> Iterator[Op]:
        """Endless, seed-determined stream of ops."""
        rng = random.Random(seed)
        shifts = [rng.random() for _ in self.ranges]
        for index in itertools.count():
            values = {}
            argv = list(self.command)
            for (name, (flags, lo, hi)), shift, step in zip(
                self.ranges.items(), shifts, _STEPS
            ):
                values[name] = lo + (shift + index * step) % 1.0 * (hi - lo)
                for flag in flags:
                    argv += [flag, repr(values[name])]
            if self.fresh_seed:
                argv += ["--seed", str(rng.randrange(2**32))]
            yield Op(index=index, values=values, argv=argv)


def call_cli(argv: list[str]) -> tuple[int | None, str, str, float]:
    """Run ``cli.main(argv)`` in-process with stdout and stderr captured.

    Returns the exit code (None when main raised), stdout, stderr plus any
    traceback, and the wall time of the call.  ``cli.main`` is looked up at
    call time so a traced run times its wrapper.
    """
    out = io.StringIO()
    err = io.StringIO()
    rc: int | None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects its input this way
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # an op that raises is a failed op, not a dead run
        rc = None
        err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - start


def _closed(q: float):
    return closed_moments(ModelParams(q=q), orders=(1, 2, 3, 4))


def _exit_problem(op: Op) -> str | None:
    if op.rc != 0:
        return f"exit {op.rc}: {op.error.strip()[-300:]}"
    return None


def check_validate(op: Op) -> str | None:
    problem = _exit_problem(op)
    if problem:
        return problem
    verdict = json.loads(op.out)["verdict"]
    return None if verdict == "pass" else f"verdict {verdict}"


def check_moments(op: Op) -> str | None:
    problem = _exit_problem(op)
    if problem:
        return problem
    values = {e["order"]: e["value"] for e in json.loads(op.out)["entries"]}
    closed = _closed(op.values["q"])
    for order, tol in _CLOSED_VS_MGF_TOL.items():
        ref = closed.value(order)
        if not abs(values[order] - ref) <= tol * abs(ref):
            return f"order {order}: mgf {values[order]!r} vs closed {ref!r}"
    for order in (5, 6):
        value = values[order]
        if not (value is not None and math.isfinite(value) and value > 0.0):
            return f"order {order}: {value!r} is not finite and positive"
    return None


def _sampler_z(op: Op) -> list[float]:
    """(estimate - closed) / standard error for raw moments 1-4."""
    doc = json.loads(op.out)
    closed = _closed(op.values["q"])
    return [
        (doc["raw_moments"][k - 1] - closed.value(k)) / doc["std_errors"][k - 1]
        for k in range(1, 5)
    ]


def check_sampler(op: Op) -> str | None:
    problem = _exit_problem(op)
    if problem:
        return problem
    for order, z in enumerate(_sampler_z(op), start=1):
        if not abs(z) <= _MC_OP_SIGMAS:
            return f"order {order}: {z:+.2f} standard errors off closed"
    return None


def check_sampler_run(ops: list[Op]) -> str | None:
    """Every order's z-scores, summed over the run's ops, within 4 sigma."""
    zs = [_sampler_z(op) for op in ops if op.rc == 0]
    if not zs:
        return "no successful ops"
    for order, column in enumerate(zip(*zs), start=1):
        pooled = sum(column) / math.sqrt(len(column))
        if not abs(pooled) <= _MC_SIGMAS:
            return f"order {order}: pooled z {pooled:+.2f} over {len(column)} ops"
    return None


def _plane_mean_problem(windows) -> str | None:
    """Criterion 6's mean test over the interior rays of (doc, mu_1) pairs:
    the mean within 5% of mu_1, or within _PLANE_SIGMAS standard errors
    when that is wider (a side-40 window has about 40 interior east rays)."""
    excess = expected = variance = 0.0
    for doc, mu1 in windows:
        se = doc["std_errors"][0]
        excess += doc["n"] * (doc["mean"] - mu1)
        expected += doc["n"] * mu1
        variance += math.inf if se is None else (doc["n"] * se) ** 2
    if expected == 0.0:
        return "no interior rays"
    tol = max(_PLANE_MEAN_REL_TOL * expected, _PLANE_SIGMAS * math.sqrt(variance))
    if not abs(excess) <= tol:
        return (f"mean off mu_1 by {excess / expected:.2%}, "
                f"tolerance {tol / expected:.2%}")
    return None


def check_plane(op: Op) -> str | None:
    """Criterion 6's test on one window: censored share below 1%, mean
    near mu_1."""
    problem = _exit_problem(op)
    if problem:
        return problem
    doc = json.loads(op.out)
    total = doc["n"] + doc["censored"]
    if total == 0 or doc["censored"] / total >= _PLANE_CENSORED_MAX:
        return f"censored {doc['censored']} of {total}"
    return _plane_mean_problem([(doc, _closed(op.values["q"]).value(1))])


def check_plane_run(ops: list[Op]) -> str | None:
    """The mean test over every interior east ray of the run, where 5% is
    the binding tolerance."""
    return _plane_mean_problem(
        (json.loads(op.out), _closed(op.values["q"]).value(1))
        for op in ops
        if op.rc == 0
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="validate",
            command=("validate", "--samples", "1000000", "--format", "json"),
            ranges={"q": (("--q",), 0.1, 0.9)},
            check=check_validate,
        ),
        Workload(
            name="moments",
            command=("moments", "--method", "mgf", "--max-order", "6",
                     "--format", "json"),
            ranges={"q": (("--q",), 0.05, 0.95)},
            check=check_moments,
            fresh_seed=False,
        ),
        Workload(
            name="plane",
            command=("simulate", "--engine", "plane", "--margin", "15"),
            ranges={
                "side": (("--window-w", "--window-h"), 40.0, 60.0),
                "q": (("--q",), 0.3, 0.6),
            },
            check=check_plane,
            repeats=((),),
            run_check=check_plane_run,
        ),
        Workload(
            name="sampler",
            command=("simulate", "--engine", "recursion", "--samples",
                     "1000000", "--workers", str(worker_count())),
            ranges={"q": (("--q",), 0.5, 0.95)},
            check=check_sampler,
            repeats=((), ("--workers", "1")),
            run_check=check_sampler_run,
        ),
    )
}


def warm_up() -> None:
    """One tiny call of each command family, so lazy set-up is done."""
    for argv in (
        ["moments", "--q", "0.4", "--format", "json"],
        ["mgf", "--q", "0.4", "--steps", "3"],
        ["simulate", "--q", "0.4", "--samples", "1000"],
        ["simulate", "--q", "0.4", "--engine", "plane", "--window-w", "12",
         "--window-h", "12", "--margin", "5"],
    ):
        call_cli(argv)

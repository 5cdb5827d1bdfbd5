"""Benchmark of the halfgilbert command line, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload validate --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

One workload runs in this process: it imports the package from ``src/``,
measures set-up in fresh interpreters, then drives ``halfgilbert.cli.main``
in-process as one closed-loop client (the next op starts when the previous
one returns) for ``--seconds``, checks every op's output, and re-runs one op
to check that output is reproducible.  ``--trace 0`` reports the end-to-end
metrics named in BENCHMARK.json; ``--trace 1`` alternates untraced and
traced ops, reports the per-layer metrics and writes the spans to
``.perfbench_out/``.  ``--workload all`` runs every workload in a fresh
process of its own and prints a table.  The last line of stdout is always
one JSON object.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("validate", "moments", "plane", "sampler")

# Set-up is measured this many times, each in a fresh interpreter, and the
# median is reported.
SETUP_REPEATS = 5

# An op may take a few seconds; no single child process may take longer.
CHILD_TIMEOUT_S = 170

# On a shared host clock speed can change by up to 1.5x within seconds, and
# an op's wall time follows it: on the 2-vCPU Intel Xeon host the benchmark
# was defined on, a fixed pure-Python loop timed next to each validate op
# tracked the op's time within 9% where the raw time varied by 17%.  Op
# times are therefore scaled to the speed at which reference_loop() takes
# this long, its best time at full speed on that host.
REFERENCE_NOMINAL_S = 0.7e-3

_SETUP_CODE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.warm_up(); import time; print(time.monotonic())"
)


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package() -> None:
    """Put the checkout's own ``src/`` first on the path, or give up."""
    if not (SRC / "halfgilbert" / "cli.py").is_file():
        _fail(f"no halfgilbert sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import halfgilbert

    if Path(halfgilbert.__file__).resolve().parent != SRC / "halfgilbert":
        _fail(f"imported halfgilbert from {halfgilbert.__file__}, not {SRC}")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def environment() -> dict:
    import numpy

    from workloads import worker_count

    commit = "unknown"
    if (ROOT / ".git").exists():
        found = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        )
        commit = found.stdout.strip() or commit
    return {
        "commit": commit,
        "nproc": worker_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }


def measure_setup() -> float:
    """Median time from starting a fresh interpreter until an op can start:
    interpreter start, imports, and one tiny call of each command family.
    The child reports when it is ready on the system-wide monotonic clock."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(SRC), str(HERE)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            check=True,
        )
        times.append(float(done.stdout) - start)
    return statistics.median(times)


def reference_loop() -> float:
    """Best of three timings of a fixed pure-Python loop: the host's speed."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(10_000):
            total += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def run_ops(workload, seed: int, seconds: float, tracer=None) -> list:
    """Closed loop for ``seconds``; with a tracer, every second op is traced.

    Each op is bracketed by two reference_loop() timings, and its scaled
    time is its wall time at the speed the two timings average to.
    """
    from workloads import call_cli

    ops = []
    min_ops = 1 if tracer is None else 2
    generator = workload.ops(seed)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(ops) < min_ops:
        op = next(generator)
        traced = tracer is not None and op.index % 2 == 1
        before = reference_loop()
        if traced:
            tracer.enable(op.index)
        try:
            rc, out, err, elapsed = call_cli(op.argv)
        finally:
            if traced:
                tracer.disable()
        speed = 2.0 * REFERENCE_NOMINAL_S / (before + reference_loop())
        ops.append(dataclasses.replace(
            op, rc=rc, out=out, error=err, seconds=elapsed,
            scaled=elapsed * speed, traced=traced,
        ))
    return ops


def check_ops(workload, ops) -> list[str]:
    """Every failed op check, determinism re-run and run check."""
    from workloads import call_cli

    failures = [
        f"op {op.index} {' '.join(op.argv)}: {problem}"
        for op in ops
        if (problem := workload.check(op))
    ]
    if workload.repeats:
        base = min(ops, key=lambda op: op.seconds)
        for suffix in workload.repeats:
            argv = base.argv + list(suffix)
            rc, out, err, _ = call_cli(argv)
            if rc != 0 or out != base.out:
                failures.append(
                    f"determinism: {' '.join(argv)} exited {rc} and its "
                    f"output differs from the first run"
                )
    if workload.run_check and (problem := workload.run_check(ops)):
        failures.append(f"run check: {problem}")
    return failures


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it, never below the median."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 21:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(ops, failures: list[str], attempted: int) -> dict:
    times = [op.scaled for op in ops]
    raw = [op.seconds for op in ops]
    tail_s, tail_pct = tail(times)
    print(f"# op_tail_s is p{tail_pct:.1f} of {len(times)} ops")
    print(f"# unscaled wall times: p50 {statistics.median(raw):.6g} s, "
          f"tail {tail(raw)[0]:.6g} s, {len(raw) / sum(raw):.6g} ops/s")
    return {
        "setup_s": measure_setup(),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_s,
        "ops_per_s": len(times) / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": (attempted - len(failures)) / attempted,
    }


def per_layer(tracer, ops) -> dict:
    plain = [op.scaled for op in ops if not op.traced]
    traced = [op.scaled for op in ops if op.traced]
    overhead = (len(traced) / sum(traced)) / (len(plain) / sum(plain))
    stdout_bytes = statistics.fmean(
        len(op.out.encode()) for op in ops if op.traced
    )
    return tracer.metrics(overhead, stdout_bytes)


def write_spans(tracer, path: Path, env: dict) -> None:
    import numpy as np

    path.parent.mkdir(exist_ok=True)
    np.savez_compressed(
        path,
        names=np.array(tracer.names),
        env=np.array(json.dumps(env)),
        **tracer.arrays(),
    )


def run_one(workload, seed: int, seconds: float, trace: bool) -> dict:
    """One workload in this process; returns the result object."""
    from tracer import Tracer
    from workloads import warm_up

    spec = _spec()
    env = environment()
    print(f"# env {json.dumps(env)}")
    warm_up()
    tracer = Tracer() if trace else None
    ops = run_ops(workload, seed, seconds, tracer)
    failures = check_ops(workload, ops)
    attempted = len(ops) + workload.checks_per_run
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    if trace:
        values = per_layer(tracer, ops)
        write_spans(tracer, OUT_DIR / f"trace-{workload.name}.npz", env)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(ops, failures, attempted)
        wanted = spec["end_to_end"]
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in a fresh process of its own, then one table."""
    results = {}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            _fail(f"workload {name} exited {done.returncode}")
        lines = done.stdout.splitlines()
        for line in lines[:-1]:
            print(f"{name}: {line}")
        results[name] = json.loads(lines[-1])
    for name, result in results.items():
        ratio = result["failed"] / result["attempted"]
        print(f"\n{name}: failed_ratio {ratio:g} "
              f"({result['failed']} of {result['attempted']} ops)")
        for metric, value in result["metrics"].items():
            print(f"  {metric:<48} {value['value']:<14.6g} {value['unit']}")
    return results


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        _import_package()
        from workloads import WORKLOADS

        result = run_one(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
        )
    print(json.dumps(result))


if __name__ == "__main__":
    main()

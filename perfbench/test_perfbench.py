"""Fast self-test of the benchmark at tiny sizes.

Run from the repository root:

    python3 -m pytest perfbench -q

It runs every workload's generator, output checks, determinism re-runs and
traced run on tiny inputs, and checks that every metric named in
BENCHMARK.json is emitted with its unit.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PREDICTIONS = json.loads((HERE / "predictions.json").read_text())


def tiny(name: str) -> workloads.Workload:
    """The named workload with 1e6-sample runs cut to 2e4 and small windows."""
    workload = workloads.WORKLOADS[name]
    command = tuple("20000" if a == "1000000" else a for a in workload.command)
    ranges = dict(workload.ranges)
    if "side" in ranges:
        flags, _, _ = ranges["side"]
        ranges["side"] = (flags, 32.0, 36.0)
    return dataclasses.replace(workload, command=command, ranges=ranges)


def test_spec_follows_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    names = [w["name"] for w in SPEC["workloads"]]
    assert tuple(names) == run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    all_names = names + [m["name"] for m in metrics]
    assert len(all_names) == len(set(all_names))
    for name in all_names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for metric in metrics:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])
        assert metric["better"] in ("lower", "higher")
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0.0 < metric["bound"] <= 0.25
    assert max(SPEC["end_to_end"], key=lambda m: m["bound"])["name"] == "setup_s"
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])


def test_every_layer_metric_has_a_prediction():
    layer_names = {m["name"] for m in SPEC["per_layer"]}
    assert set(PREDICTIONS) == layer_names
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    for prediction in PREDICTIONS.values():
        assert set(prediction["moves"]) <= e2e
        assert set(prediction["workloads"]) <= set(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_generator_is_seeded_continuous_and_in_range(name):
    workload = workloads.WORKLOADS[name]

    def first(seed, count=40):
        stream = workload.ops(seed)
        return [next(stream) for _ in range(count)]

    ops = first(7)
    assert [op.argv for op in ops] == [op.argv for op in first(7)]
    assert [op.argv for op in ops] != [op.argv for op in first(8)]
    assert len({tuple(op.argv) for op in ops}) == len(ops)
    for param, (flags, lo, hi) in workload.ranges.items():
        values = sorted(op.values[param] for op in ops)
        assert lo <= values[0] and values[-1] < hi
        # Consecutive ops cover the range evenly: no gap wider than a tenth.
        gaps = [b - a for a, b in zip([lo] + values, values + [hi])]
        assert max(gaps) < 0.1 * (hi - lo)
        for op in ops:
            for flag in flags:
                assert float(op.argv[op.argv.index(flag) + 1]) == op.values[param]


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_traced_run_passes_checks_and_emits_every_layer(name):
    workload = tiny(name)
    tracer = Tracer()
    ops = run.run_ops(workload, seed=3, seconds=0.0, tracer=tracer)
    assert [op.traced for op in ops] == [False, True]
    assert run.check_ops(workload, ops) == []
    metrics = run.per_layer(tracer, ops)
    assert set(metrics) == set(PREDICTIONS)
    assert all(math.isfinite(v) and v >= 0.0 for v in metrics.values())
    # Tracing must leave the package as it found it.
    assert not hasattr(workloads.cli.main, "__wrapped__")
    assert metrics["cli.main.total_s"] > 0.0
    assert metrics["cli.stdout_bytes"] > 0.0
    busy = {
        "validate": ("analytic.integral_equation_residual.total_s",
                     "montecarlo.draw_samples.total_s",
                     "specfun.adaptive_quad.f_evals",
                     "analytic.c_coefficient.distinct_ratio"),
        "moments": ("analytic.mgf_moments.total_s",
                    "analytic.mgf_moments.mgf_calls",
                    "analytic.mgf_moments.max_rel_dev_vs_closed",
                    "specfun.gamma_fn.calls"),
        "plane": ("montecarlo.simulate_plane.total_s",
                  "montecarlo.simulate_plane.interior_rays_per_s"),
        "sampler": ("montecarlo.draw_samples.samples_per_s",
                    "montecarlo.draw_samples.total_s"),
    }[name]
    for metric in busy:
        assert metrics[metric] > 0.0, metric
    if name in ("plane", "sampler"):
        assert metrics["specfun.gamma_fn.calls"] == 0.0


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.enable(0)
    try:
        workloads.call_cli(["moments", "--q", "0.3", "--method", "mgf",
                            "--format", "json"])
    finally:
        tracer.disable()
    metrics = tracer.metrics(overhead_ratio=1.0, stdout_bytes=1.0)
    spans = tracer.arrays()
    assert (spans["end"] >= spans["start"]).all()
    assert (spans["parent"] < np.arange(spans["parent"].size)).all()
    assert 0.0 < metrics["cli.self_s"] < metrics["cli.main.total_s"]
    assert metrics["analytic.mgf.self_s"] > 0.0


def test_checks_catch_wrong_output():
    workload = tiny("sampler")
    ops = run.run_ops(workload, seed=5, seconds=0.0)
    op = ops[0]
    doc = json.loads(op.out)
    doc["raw_moments"][1] *= 1.5
    assert workloads.check_sampler(dataclasses.replace(op, out=json.dumps(doc)))
    assert workloads.check_sampler(dataclasses.replace(op, rc=3))
    changed = dataclasses.replace(op, out=op.out + "\n")
    failures = run.check_ops(workload, [changed])
    assert len(failures) == 2 and all("determinism" in f for f in failures)


def test_plane_mean_check_scales_with_the_rays_it_has():
    mu1 = workloads._closed(0.45).value(1)

    def window(n, mean, se):
        doc = {"n": n, "censored": 0, "mean": mean, "std_errors": [se]}
        return workloads.Op(index=0, values={"q": 0.45}, argv=[], rc=0,
                            out=json.dumps(doc))

    assert workloads.check_plane(window(400, 1.04 * mu1, 0.001)) is None
    assert workloads.check_plane(window(400, 1.06 * mu1, 0.001))
    assert workloads.check_plane(window(40, 1.3 * mu1, 0.1)) is None
    assert workloads.check_plane(window(40, 1.5 * mu1, 0.1))
    # Pooled over a run, the same wide windows are held to 5%.
    many = [window(40, 1.3 * mu1, 0.1)] * 100
    assert workloads.check_plane_run(many)


def test_end_to_end_result_names_every_metric_with_its_unit(capsys):
    result = run.run_one(tiny("sampler"), seed=2, seconds=0.0, trace=False)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 4
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0.0 for v in result["metrics"].values())
    assert "op_tail_s is p50.0 of 1 ops" in capsys.readouterr().out


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 50.0)
    times = [float(i) for i in range(30)]
    assert run.tail(times) == (19.0, pytest.approx(100.0 * 20 / 30))


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "moments",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout

"""Traced runs: time every call into halfgilbert's layers from outside.

The benchmark never edits the package.  ``Tracer.enable()`` replaces each
target function, in every halfgilbert module that holds a reference to it
(so analytic's ``from .specfun import _hermite_laplace`` is covered too),
with a wrapper that records a span; ``disable()`` puts the originals back.
A span is (name, start, end, parent span, op id).  Spans stay in memory
and are written once, when the run ends; per-layer metrics are computed
from them afterwards.  A span's self time is its duration minus the time
its child spans cover.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

import numpy as np

import halfgilbert
from halfgilbert import analytic, cli, montecarlo, specfun

# Public functions timed per layer, plus the private _hermite_laplace,
# which analytic imports and calls for every MGF value.
TARGETS = {
    specfun: ("_hermite_laplace", "adaptive_quad", "kummer_1f1", "hermite_fn",
              "gamma_fn"),
    analytic: ("c_coefficient", "mgf", "integral_equation_residual",
               "mgf_moments", "mgf_divergence_point", "ode_residual",
               "k_integral", "j_integral", "closed_moments"),
    montecarlo: ("draw_samples", "run_monte_carlo", "simulate_plane"),
    cli: ("main",),
}

_MODULES = (halfgilbert, specfun, analytic, montecarlo, cli)


def _span_name(module, name: str) -> str:
    return f"{module.__name__.rsplit('.', 1)[-1]}.{name}"


class Tracer:
    """Span recorder for the functions in TARGETS."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name = array("H")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("l")
        self._op = array("l")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.op_id = -1
        self.ops = 0
        self.f_evals = 0
        self.samples_drawn = 0
        self.plane_rays = 0
        self.plane_censored = 0
        self.moment_reports: list = []
        self.c_ratios: list[float] = []
        self._c_args: Counter = Counter()
        self._wrappers = {}
        for module, names in TARGETS.items():
            for name in names:
                original = getattr(module, name)
                self._wrappers[original] = self._wrap(_span_name(module, name), original)

    # -- recording ---------------------------------------------------------

    def _wrap(self, span_name: str, fn):
        name_id = len(self.names)
        self.names.append(span_name)
        suffix = span_name.replace(".", "_")
        before = getattr(self, "_before_" + suffix, None)
        after = getattr(self, "_after_" + suffix, None)
        names, starts, ends = self._name, self._start, self._end
        parents, ops, stack = self._parent, self._op, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            if before is not None:
                args = before(args, kwargs)
            starts[index] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _before_specfun_adaptive_quad(self, args, kwargs):
        f = args[0]

        def counted(x):
            self.f_evals += 1
            return f(x)

        return (counted,) + args[1:]

    def _before_analytic_c_coefficient(self, args, kwargs):
        self._c_args[(args, tuple(sorted(kwargs.items())))] += 1
        return args

    def _after_montecarlo_draw_samples(self, result) -> None:
        self.samples_drawn += int(result.size)

    def _after_montecarlo_simulate_plane(self, result) -> None:
        self.plane_rays += result.n
        self.plane_censored += result.censored

    def _after_analytic_mgf_moments(self, result) -> None:
        self.moment_reports.append(result)

    def enable(self, op_id: int) -> None:
        """Start tracing op ``op_id``: patch every reference to a target."""
        self.op_id = op_id
        self._c_args.clear()
        for module in _MODULES:
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(value) if callable(value) else None
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, value))

    def disable(self) -> None:
        """Stop tracing and restore every patched reference."""
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
        calls = sum(self._c_args.values())
        if calls:
            self.c_ratios.append(len(self._c_args) / calls)
        self.ops += 1

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self._name, dtype=np.uint16).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self._op, dtype=np.int64).copy(),
        }

    def metrics(self, overhead_ratio: float, stdout_bytes: float) -> dict[str, float]:
        """Per-layer metrics, as means per traced op unless a rate or ratio.

        Must run with tracing disabled: the accuracy figure calls
        closed_moments, which must not add spans.
        """
        spans = self.arrays()
        ids = {name: i for i, name in enumerate(self.names)}
        name, parent = spans["name"], spans["parent"]
        duration = spans["end"] - spans["start"]
        child = np.zeros_like(duration)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        per_op = 1.0 / max(self.ops, 1)

        def calls(span):
            return float(np.count_nonzero(name == ids[span])) * per_op

        def total(span):
            return float(duration[name == ids[span]].sum()) * per_op

        def self_time(span):
            mask = name == ids[span]
            return float((duration[mask] - child[mask]).sum()) * per_op

        # mgf calls made under mgf_moments: walk each mgf span's ancestors.
        under_moments = 0
        cursor = parent[name == ids["analytic.mgf"]]
        while cursor.size:
            cursor = cursor[cursor >= 0]
            hit = name[cursor] == ids["analytic.mgf_moments"]
            under_moments += int(hit.sum())
            cursor = parent[cursor[~hit]]

        def rate(count, span):
            busy = float(duration[name == ids[span]].sum())
            return count / busy if busy > 0.0 else 0.0

        rays = self.plane_rays + self.plane_censored
        out = {}
        for span in ("specfun._hermite_laplace", "specfun.adaptive_quad",
                     "specfun.kummer_1f1", "specfun.hermite_fn",
                     "specfun.gamma_fn", "analytic.c_coefficient",
                     "analytic.mgf"):
            out[span + ".calls"] = calls(span)
            out[span + ".self_s"] = self_time(span)
        out["specfun.adaptive_quad.f_evals"] = self.f_evals * per_op
        out["analytic.c_coefficient.distinct_ratio"] = (
            float(np.mean(self.c_ratios)) if self.c_ratios else 0.0
        )
        out["analytic.integral_equation_residual.total_s"] = total(
            "analytic.integral_equation_residual"
        )
        out["analytic.mgf_moments.total_s"] = total("analytic.mgf_moments")
        out["analytic.mgf_moments.mgf_calls"] = under_moments * per_op
        out["analytic.mgf_moments.max_rel_dev_vs_closed"] = self._max_rel_dev()
        out["analytic.mgf_divergence_point.calls"] = calls(
            "analytic.mgf_divergence_point"
        )
        out["analytic.mgf_divergence_point.total_s"] = total(
            "analytic.mgf_divergence_point"
        )
        out["analytic.ode_residual.total_s"] = total("analytic.ode_residual")
        out["analytic.k_integral.calls"] = calls("analytic.k_integral")
        out["analytic.j_integral.calls"] = calls("analytic.j_integral")
        out["analytic.closed_moments.total_s"] = total("analytic.closed_moments")
        out["montecarlo.draw_samples.total_s"] = total("montecarlo.draw_samples")
        out["montecarlo.draw_samples.samples_per_s"] = rate(
            self.samples_drawn, "montecarlo.draw_samples"
        )
        out["montecarlo.run_monte_carlo.total_s"] = total(
            "montecarlo.run_monte_carlo"
        )
        out["montecarlo.simulate_plane.total_s"] = total("montecarlo.simulate_plane")
        out["montecarlo.simulate_plane.interior_rays_per_s"] = rate(
            rays, "montecarlo.simulate_plane"
        )
        out["montecarlo.simulate_plane.censored_ratio"] = (
            self.plane_censored / rays if rays else 0.0
        )
        out["cli.main.total_s"] = total("cli.main")
        out["cli.self_s"] = self_time("cli.main")
        out["cli.stdout_bytes"] = stdout_bytes
        out["trace.overhead_ratio"] = overhead_ratio
        return out

    def _max_rel_dev(self) -> float:
        worst = 0.0
        for report in self.moment_reports:
            orders = tuple(e.order for e in report.entries if e.order <= 4)
            closed = analytic.closed_moments(report.params, orders=orders)
            for order in orders:
                ref = closed.value(order)
                worst = max(worst, abs(report.value(order) - ref) / abs(ref))
        return worst

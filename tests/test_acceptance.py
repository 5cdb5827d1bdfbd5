"""Acceptance suite: one test per release criterion, one line per verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL line
of every criterion as it completes.
"""

import json
import math
import subprocess
import sys
import time

import pytest

from halfgilbert import analytic as an
from halfgilbert import montecarlo as mc
from halfgilbert import specfun as sf
from halfgilbert.analytic import ModelParams
from test_specfun import hermite_fn_integral, hermite_j_oracle

# Six-significant-figure targets for q = 2/5 at unit intensity.
TABLE = (1.81696, 4.64107, 15.5701, 65.9721, 342.243)
MGF_MOMENT_RTOL = (1e-5, 1e-5, 1e-4, 1e-4, 1e-3)


def report(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number}] {status}: {description}{suffix}", flush=True)
    assert ok, f"criterion {number} failed: {description}{suffix}"


def round_sig(x, digits=5):
    exponent = math.floor(math.log10(abs(x)))
    return round(x, digits - 1 - exponent)


@pytest.fixture(scope="module")
def table_run():
    config = mc.SimConfig(params=ModelParams(q=0.4), samples=1_000_000, seed=42)
    start = time.time()
    stats = mc.run_monte_carlo(config)
    return stats, time.time() - start


def test_criterion_1_table_reproduction():
    params = ModelParams(q=0.4)
    closed = an.closed_moments(params, orders=(1, 2, 3))
    closed_ok = all(
        round_sig(closed.value(k)) == round_sig(TABLE[k - 1]) for k in (1, 2, 3)
    )
    start = time.time()
    derived = an.mgf_moments(params, max_order=5)
    elapsed = time.time() - start
    rels = [
        abs(derived.value(k) - TABLE[k - 1]) / TABLE[k - 1] for k in range(1, 6)
    ]
    derived_ok = all(r < tol for r, tol in zip(rels, MGF_MOMENT_RTOL))
    report(
        1,
        "closed moments 1-3 match the reference table to 5 significant "
        "figures; derivative moments 1-5 within stated relative tolerances",
        closed_ok and derived_ok,
        f"worst rel {max(rels):.2e}, runtime {elapsed:.2f}s",
    )


def test_criterion_2_monte_carlo_table_substitute(table_run):
    stats, elapsed = table_run
    deviations = [
        abs(stats.raw_moments[k - 1] - TABLE[k - 1]) / stats.std_errors[k - 1]
        for k in (1, 2, 3)
    ]
    ok = all(d <= 4.0 for d in deviations) and elapsed < 60.0
    report(
        2,
        "10^6-sample recursion run reproduces moments 1-3 within 4 standard "
        "errors in under a minute",
        ok,
        f"worst {max(deviations):.2f} sigma, runtime {elapsed:.1f}s",
    )


def test_criterion_3_special_half_agreement():
    worst = max(
        abs(an.mgf(-2.0 + 0.1 * i, 0.0, 0.5) - an.mgf_special_half(-2.0 + 0.1 * i))
        for i in range(41)
    )
    report(
        3,
        "general MGF and q=1/2 special form agree within 1e-9 over 41 points",
        worst < 1e-9,
        f"worst |diff| {worst:.2e}",
    )


def test_criterion_4_defining_equation_residuals():
    ode_worst = max(
        abs(an.ode_residual(t, y, q)[0])
        for t in (-2.0, -1.0, 0.0, 1.0, 2.0)
        for y in (0.5, 1.0, 3.0)
        for q in (0.3, 0.5, 0.7)
    )
    ie_worst = max(
        abs(an.integral_equation_residual(t, q)[0])
        for t in (-2.0, -1.0, 1.0, 2.0)
        for q in (0.25, 0.4, 0.75)
    )
    report(
        4,
        "ODE residual < 1e-13 and integral-equation residual < 1e-6 on the "
        "reference grids",
        ode_worst < 1e-13 and ie_worst < 1e-6,
        f"ODE {ode_worst:.2e}, IE {ie_worst:.2e}",
    )


def test_criterion_5_dual_path_special_functions():
    hermite_worst = 0.0
    for v in (-0.9, -0.6, -0.5, -0.3, 0.2, 0.5, 0.8):
        for i in range(17):
            z = -4.0 + 0.5 * i
            a = sf.hermite_fn(v, z)
            b = hermite_fn_integral(v, z)
            hermite_worst = max(hermite_worst, abs(a - b) / (1.0 + abs(a)))
    from scipy.integrate import quad

    sqrt2 = math.sqrt(2.0)
    k_worst = 0.0
    for t, q in ((1.3, 0.4), (-0.7, 0.6), (2.0, 0.25)):
        oracle, _ = quad(
            lambda z: sf.erfc_fn(z) * sf.hermite_fn(q - 1.0, z), -t / sqrt2, 0.0,
            limit=200,
        )
        k_worst = max(k_worst, abs(an.k_integral(t, q) - oracle))
    j_worst = 0.0
    for t, q in ((0.9, 0.4), (0.0, 0.5), (-1.0, 0.7)):
        oracle, _ = quad(
            lambda u: sf.erfc_fn((u - t) / sqrt2)
            * hermite_j_oracle(q - 1.0, (u - t) / sqrt2),
            0.0,
            t + 9.0,
            limit=200,
        )
        j_worst = max(j_worst, abs(an.j_integral(t, q) - oracle))
    ok = hermite_worst <= 1e-8 and k_worst < 1e-8 and j_worst < 1e-7
    report(
        5,
        "Hermite dual paths agree within 1e-8; K and J match their "
        "quadrature oracles within 1e-8 / 1e-7",
        ok,
        f"hermite {hermite_worst:.2e}, K {k_worst:.2e}, J {j_worst:.2e}",
    )


def test_criterion_6_plane_simulator_consistency():
    config = mc.PlaneConfig(
        params=ModelParams(q=0.4),
        window_width=60.0,
        window_height=60.0,
        margin=15.0,
        seed=11,
    )
    start = time.time()
    stats = mc.simulate_plane(config)
    elapsed = time.time() - start
    rel_err = abs(stats.mean - TABLE[0]) / TABLE[0]
    total = stats.n + stats.censored
    censored_fraction = stats.censored / total if total else 1.0
    ok = rel_err < 0.05 and censored_fraction < 0.01
    report(
        6,
        "plane-simulator interior mean within 5% of the exact first moment "
        "with censored fraction below 1%",
        ok,
        f"rel err {rel_err:.3f}, censored {stats.censored}/{total}, "
        f"runtime {elapsed:.1f}s",
    )


def test_criterion_7_limits_and_scaling():
    tiny = an.closed_moments(ModelParams(q=1e-8), orders=(1, 2))
    rayleigh_ok = (
        abs(tiny.value(1) - math.sqrt(math.pi / 2.0)) / math.sqrt(math.pi / 2.0) < 1e-6
        and abs(tiny.value(2) - 2.0) / 2.0 < 1e-6
    )
    mu4 = an.mgf_moments(ModelParams(q=1e-6), max_order=4).value(4)
    mu4_ok = abs(mu4 - 8.0) / 8.0 < 1e-3
    base = an.closed_moments(ModelParams(q=0.4, lam=1.0))
    scaled = an.closed_moments(ModelParams(q=0.4, lam=4.0))
    analytic_ok = all(
        scaled.value(k) == base.value(k) * 2.0**-k for k in range(1, 5)
    )
    stats = mc.run_monte_carlo(
        mc.SimConfig(params=ModelParams(q=0.4, lam=4.0), samples=100_000, seed=7)
    )
    mc_ok = abs(stats.mean - TABLE[0] / 2.0) <= 4.0 * stats.std_errors[0]
    report(
        7,
        "q -> 0 limits are Rayleigh (mu1, mu2, mu4) and moments scale as "
        "lam^(-k/2) both analytically and by Monte Carlo",
        rayleigh_ok and mu4_ok and analytic_ok and mc_ok,
        f"mu4(q->0) {mu4:.5f}",
    )


def test_criterion_8_fourth_moment_resolution():
    # the closed fourth moment carries 3 q^3 / 4 as its G^4 coefficient;
    # the derivative oracle fixes that coefficient on a q grid, and the
    # resulting form must hit the table value and the Rayleigh limit
    coeff_errors = []
    for i in range(1, 10):
        q = i / 10.0
        params = ModelParams(q=q)
        G = sf.gamma_fn((1.0 - q) / 2.0) / sf.gamma_fn(1.0 - 0.5 * q)
        mu4 = an.mgf_moments(params, max_order=4).value(4)
        fitted = (mu4 / 8.0 - 1.0 - q - q * (1.0 + 2.0 * q) * G * G) / G**4
        coeff_errors.append(abs(fitted - 0.75 * q**3))
    table_ok = round_sig(an.closed_moments(ModelParams(q=0.4)).value(4)) == round_sig(
        TABLE[3]
    )
    limit = an.closed_moments(ModelParams(q=1e-8), orders=(4,)).value(4)
    ok = max(coeff_errors) < 1e-6 and table_ok and abs(limit - 8.0) < 1e-6
    report(
        8,
        "G^4 coefficient of the closed fourth moment fitted from the "
        "derivative oracle is 3q^3/4, reproducing 65.9721 at q=0.4 and the "
        "limit 8 at q -> 0",
        ok,
        f"worst coefficient deviation {max(coeff_errors):.2e}",
    )


def test_criterion_9_cli_determinism():
    args = [
        sys.executable, "-m", "halfgilbert.cli",
        "simulate", "--q", "0.4", "--samples", "100000", "--seed", "42",
        "--engine", "recursion",
    ]
    outputs = []
    for workers in ("1", "4", "1"):
        proc = subprocess.run(
            args + ["--workers", workers], capture_output=True, text=True
        )
        assert proc.returncode == 0
        outputs.append(proc.stdout)
    ok = outputs[0] == outputs[1] == outputs[2]
    json.loads(outputs[0])
    report(
        9,
        "simulate output is byte-identical across repeated runs and across "
        "workers in {1, 4}",
        ok,
    )

"""Command-line surface: moments, MGF curves, simulation, validation.

Exit codes: 0 success (validation passed), 1 validation verdict failed,
2 argument error, 3 numerical-domain error.  Every --format json output is
a single JSON document with NaN mapped to null.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from . import montecarlo
from .analytic import (
    RESIDUAL_TOL,
    ModelParams,
    MomentEntry,
    integral_equation_residual,
    closed_moments,
    mgf,
    mgf_moments,
    mgf_special_half,
    ode_residual,
)
from .errors import NumericsError
from .montecarlo import PlaneConfig, SimConfig, draw_samples, simulate_plane

__all__ = ["main", "entrypoint"]

# Relative agreement required between closed-form and derivative moments,
# per order; order 5 has no closed form and is checked against Monte Carlo
# only.
_CLOSED_VS_MGF_TOL = {1: 1e-5, 2: 1e-5, 3: 1e-4, 4: 1e-4}

_MC_SIGMAS = 4.0

_SPECIAL_HALF_TOL = 1e-9

# validate refuses q beyond this: moments blow up as q -> 1 and every
# numerical layer degrades together.
_VALIDATE_Q_MAX = 0.95

_ODE_T_GRID = (-2.0, -1.0, 0.0, 1.0, 2.0)
_ODE_Y_GRID = (0.5, 1.0, 3.0)
_IE_T_GRID = (-2.0, -1.0, 1.0, 2.0)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _sanitize(obj):
    """Make a document strictly JSON-serializable (NaN/inf -> null)."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt(value)
    return str(value)


def _emit(doc: dict, fmt: str, rows: str | None = None, table=None) -> None:
    """Print a command's document as JSON, as CSV of its `rows` records (the
    header is their keys), or through the command's own table printer."""
    if fmt == "json":
        print(json.dumps(_sanitize(doc), indent=2, allow_nan=False))
    elif fmt == "csv":
        records = doc[rows]
        print(",".join(records[0]))
        for record in records:
            print(",".join(_csv_cell(v) for v in record.values()))
    else:
        table(doc)


def _params_doc(params: ModelParams) -> dict:
    return {"q": params.q, "lambda": params.lam}


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


def _moments_table(doc: dict) -> None:
    print(f"{'order':>5}  {'value':<22}  {'method':<14}  std_error")
    for e in doc["entries"]:
        err = _fmt(e["std_error"]) if e["std_error"] is not None else "-"
        print(f"{e['order']:>5}  {_fmt(e['value']):<22}  {e['method']:<14}  {err}")


def cmd_moments(args) -> int:
    params = ModelParams(q=args.q, lam=args.lam)
    if args.method == "mc":
        config = SimConfig(params=params, samples=args.samples, seed=args.seed)
    if not 1 <= args.max_order <= 6:
        raise ValueError(f"--max-order must lie in 1..6, got {args.max_order}")
    if args.method == "closed" and args.max_order > 4:
        raise ValueError(
            "closed-form moments exist for orders 1..4 only; "
            "use --method mgf or mc for higher orders"
        )
    orders = range(1, args.max_order + 1)
    if args.method == "mc":
        stats = montecarlo.run_monte_carlo(config)
        entries = [
            MomentEntry(k, raw, "monte-carlo", err)
            for k, raw, err in zip(orders, stats.raw_moments, stats.std_errors)
        ]
    elif args.method == "closed":
        entries = closed_moments(params, orders=tuple(orders)).entries
    else:
        entries = mgf_moments(params, max_order=args.max_order).entries
    doc = {"params": _params_doc(params), "entries": [asdict(e) for e in entries]}
    _emit(doc, args.format, "entries", _moments_table)
    return 0


# ---------------------------------------------------------------------------
# mgf
# ---------------------------------------------------------------------------


def cmd_mgf(args) -> int:
    ModelParams(q=args.q)
    # Written so that NaN fails every check.
    if not args.y >= 0.0:
        raise ValueError(f"--y must be nonnegative, got {args.y}")
    if args.steps < 1:
        raise ValueError(f"--steps must be at least 1, got {args.steps}")
    if not all(map(math.isfinite, (args.y, args.t_min, args.t_max))):
        raise ValueError("--y, --t-min and --t-max must be finite")
    if args.t_max < args.t_min:
        raise ValueError("--t-max must not be below --t-min")
    if args.steps == 1:
        grid = [args.t_min]
    else:
        step = (args.t_max - args.t_min) / (args.steps - 1)
        grid = [args.t_min + i * step for i in range(args.steps)]
    # Snap roundoff-sized t to zero so the t = 0 row is exactly 1.
    snap = 1e-12 * max(1.0, abs(args.t_min), abs(args.t_max))
    grid = [0.0 if abs(t) < snap else t for t in grid]
    doc = {
        "q": args.q,
        "y": args.y,
        "points": [{"t": t, "value": mgf(t, args.y, args.q)} for t in grid],
    }
    _emit(doc, args.format, "points")
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    params = ModelParams(q=args.q, lam=args.lam)
    if args.engine == "recursion":
        config = SimConfig(
            params=params, samples=args.samples, seed=args.seed, workers=args.workers
        )
        lengths = draw_samples(config)
        stats = montecarlo.stats_from_lengths(lengths)
        # The worker count is deliberately not echoed: output is required
        # to be byte-identical for any --workers value.
        doc = {
            "engine": "recursion",
            "params": _params_doc(params),
            "samples": args.samples,
            "seed": args.seed,
        }
    else:
        config = PlaneConfig(
            params=params,
            window_width=args.window_w,
            window_height=args.window_h,
            margin=args.margin,
            seed=args.seed,
        )
        if args.dump:
            lengths, censored = montecarlo.plane_lengths(config)
            stats = montecarlo.stats_from_lengths(lengths, censored)
        else:
            stats = simulate_plane(config)
        doc = {
            "engine": "plane",
            "params": _params_doc(params),
            "window_width": args.window_w,
            "window_height": args.window_h,
            "margin": args.margin,
            "seed": args.seed,
            "censored": stats.censored,
            "censored_warning": stats.censored_warning,
        }
    if args.dump:
        np.savetxt(args.dump, lengths, fmt="%.17g")
    doc.update(
        {
            "n": stats.n,
            "mean": stats.mean,
            "raw_moments": list(stats.raw_moments),
            "std_errors": list(stats.std_errors),
            "moment_sums": list(stats.moment_sums),
        }
    )
    _emit(doc, "json")
    return 0


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def _validation_doc(config: SimConfig) -> dict:
    params = config.params
    q = params.q
    closed = closed_moments(params, orders=(1, 2, 3, 4))
    derived = mgf_moments(params, max_order=5)
    stats = montecarlo.run_monte_carlo(config)
    rows = []
    for order in range(1, 6):
        closed_value = closed.value(order) if order <= 4 else None
        mgf_value = derived.value(order)
        mc_value = stats.raw_moments[order - 1]
        mc_se = stats.std_errors[order - 1]
        ok = abs(mc_value - mgf_value) <= _MC_SIGMAS * mc_se
        if closed_value is not None:
            ok = ok and (
                abs(closed_value - mgf_value)
                <= _CLOSED_VS_MGF_TOL[order] * abs(closed_value)
            )
        rows.append(
            {
                "order": order,
                "closed_value": closed_value,
                "mgf_value": mgf_value,
                "mc_value": mc_value,
                "mc_std_error": mc_se,
                "agreement": ok,
            }
        )
    # Both residuals are normalized by max(1, |M|): the exact residual is 0,
    # and what is left is roundoff that scales with |M|, which is huge near
    # and past the divergence abscissa t*(q).
    ode = [ode_residual(t, y, q) for t in _ODE_T_GRID for y in _ODE_Y_GRID]
    ie = [integral_equation_residual(t, q) for t in _IE_T_GRID]
    ode_max = max(abs(residual) / max(1.0, abs(m)) for residual, m in ode)
    ie_max = max(abs(residual) / max(1.0, abs(m)) for residual, m in ie)
    special = None
    if q == 0.5:
        special = max(
            abs(mgf(t, 0.0, 0.5) - mgf_special_half(t))
            for t in (-2.0 + 0.1 * i for i in range(41))
        )
    ok = (
        all(row["agreement"] for row in rows)
        and ode_max < RESIDUAL_TOL
        and ie_max < RESIDUAL_TOL
        and (special is None or special < _SPECIAL_HALF_TOL)
    )
    return {
        "params": _params_doc(params),
        "rows": rows,
        "ode_residual_max": ode_max,
        "ie_residual_max": ie_max,
        "special_half_max_diff": special,
        "residual_tol": RESIDUAL_TOL,
        "verdict": "pass" if ok else "fail",
    }


def _validation_table(doc: dict) -> None:
    print(
        f"{'order':>5}  {'closed':<20}  {'mgf-derivative':<20}  "
        f"{'monte-carlo':<20}  {'mc std err':<12}  agree"
    )
    for row in doc["rows"]:
        closed = _fmt(row["closed_value"]) if row["closed_value"] is not None else "-"
        print(
            f"{row['order']:>5}  {closed:<20.20}  {_fmt(row['mgf_value']):<20.20}  "
            f"{_fmt(row['mc_value']):<20.20}  {row['mc_std_error']:<12.4e}  "
            f"{'yes' if row['agreement'] else 'NO'}"
        )
    print(f"max |ODE residual|           : {doc['ode_residual_max']:.3e}")
    print(f"max |integral-eq residual|   : {doc['ie_residual_max']:.3e}")
    if doc["special_half_max_diff"] is not None:
        print(f"max |q=1/2 special-form diff|: {doc['special_half_max_diff']:.3e}")
    print(f"verdict: {doc['verdict']}")


def cmd_validate(args) -> int:
    config = SimConfig(params=ModelParams(q=args.q), samples=args.samples, seed=args.seed)
    if args.q > _VALIDATE_Q_MAX:
        print(
            f"error: q={args.q} is too close to 1 to validate: the moments "
            f"grow without bound as q -> 1 (the Gamma((1-q)/2) factor "
            f"diverges) and the Monte Carlo layer degrades with them; "
            f"validated range is q <= {_VALIDATE_Q_MAX}",
            file=sys.stderr,
        )
        return 3
    doc = _validation_doc(config)
    _emit(doc, args.format, "rows", _validation_table)
    return 0 if doc["verdict"] == "pass" else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="halfgilbert",
        description=(
            "Terminal ray lengths in the rectangular half-Gilbert "
            "tessellation: exact MGF, moments, and Monte Carlo oracles."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moments", help="moments of terminal ray length")
    p.add_argument("--q", type=float, required=True, help="H-seed probability in (0,1)")
    p.add_argument("--lambda", dest="lam", type=float, default=1.0, help="seed intensity")
    p.add_argument("--max-order", type=int, default=4, help="highest order, 1..6")
    p.add_argument(
        "--method", choices=("closed", "mgf", "mc"), default="closed",
        help="closed form, MGF derivative, or Monte Carlo",
    )
    p.add_argument("--samples", type=int, default=1_000_000, help="mc only")
    p.add_argument("--seed", type=int, default=0, help="mc only")
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("mgf", help="MGF curve M_t(y) over a t grid")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--y", type=float, default=0.0)
    p.add_argument("--t-min", type=float, default=-2.0)
    p.add_argument("--t-max", type=float, default=2.0)
    p.add_argument("--steps", type=int, default=41)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_mgf)

    p = sub.add_parser("simulate", help="Monte Carlo simulation")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=100_000, help="recursion engine")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1, help="recursion engine")
    p.add_argument("--engine", choices=("recursion", "plane"), default="recursion")
    p.add_argument("--window-w", type=float, default=60.0, help="plane engine")
    p.add_argument("--window-h", type=float, default=60.0, help="plane engine")
    p.add_argument("--margin", type=float, default=15.0, help="plane engine")
    p.add_argument("--dump", type=str, default=None, help="write one length per line")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("validate", help="cross-validate all moment routes")
    p.add_argument("--q", type=float, default=0.4)
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p.set_defaults(func=cmd_validate)
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except NumericsError as exc:
        print(f"numerical-domain error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # a bad argument, caught after its subclass
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()

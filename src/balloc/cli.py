"""Command-line interface: matrix generation, accounting, calibration, sweeps.

Exit codes: 0 success, 1 computational failure, 2 usage error.  All floats are
printed with 12 significant digits and every command is deterministic given
its flags (Monte Carlo commands therefore require an explicit --seed).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import calibrate as cal
from . import condcomp
from .mechanism import (
    Schedule,
    StrategyMatrix,
    build_identity,
    inv_sqrt_toeplitz_coefficients,
    invert_banded_toeplitz,
    read_matrix,
    sqrt_toeplitz_coefficients,
    write_matrix,
)

SCHEMA_VERSION = 1


class UsageError(ValueError):
    pass


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _json_ready(obj):
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    return obj


def _parse_epsilons(text: str) -> list[float]:
    try:
        eps = [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise UsageError(f"bad epsilon grid {text!r}") from exc
    if not all(math.isfinite(e) for e in eps):
        raise UsageError(f"epsilon grid must be finite, got {text!r}")
    if not eps or any(b <= a for a, b in zip(eps, eps[1:])):
        raise UsageError("epsilon grid must be non-empty and strictly ascending")
    return eps


def _load_schedule(args) -> Schedule:
    return Schedule(epochs=args.epochs, batches_per_epoch=args.batches)


def _load_matrix(args, schedule: Schedule) -> StrategyMatrix:
    strategy = read_matrix(args.matrix)
    if strategy.size != schedule.iterations:
        raise UsageError(
            f"matrix size {strategy.size} does not match epochs*batches = {schedule.iterations}"
        )
    return strategy


def _cmd_gen_matrix(args) -> int:
    if args.out is None:
        raise UsageError("gen-matrix requires --out")
    kind = args.kind
    if kind == "import":
        if args.in_path is None:
            raise UsageError("--kind import requires --in")
        strategy = read_matrix(args.in_path)
    elif kind == "identity":
        if args.n is None:
            raise UsageError("--kind identity requires --n")
        strategy = build_identity(args.n)
    elif kind in ("bsr", "bisr"):
        if args.n is None or args.bandwidth is None:
            raise UsageError(f"--kind {kind} requires --n and --bandwidth")
        if not 1 <= args.bandwidth <= args.n:
            raise UsageError(f"bandwidth must be in [1, {args.n}], got {args.bandwidth}")
        if kind == "bsr":
            strategy = StrategyMatrix.from_toeplitz(
                sqrt_toeplitz_coefficients(args.bandwidth), size=args.n
            )
        else:
            d = inv_sqrt_toeplitz_coefficients(args.bandwidth)
            strategy = invert_banded_toeplitz(d, args.n)
    elif kind == "toeplitz":
        if args.coeffs is None or args.n is None:
            raise UsageError("--kind toeplitz requires --n and --coeffs")
        coeffs = [float(v) for v in args.coeffs.split(",") if v.strip()]
        strategy = StrategyMatrix.from_toeplitz(coeffs, size=args.n)
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown kind {kind!r}")
    write_matrix(strategy, args.out)
    return 0


def _profile(args, epsilons):
    """The privacy profile of the command's accountant at the given epsilons."""
    schedule = _load_schedule(args)
    strategy = _load_matrix(args, schedule)
    if args.method == "mc" and args.seed is None:
        raise UsageError("--method mc requires --seed for reproducibility")
    return cal.profile(
        args.method,
        strategy,
        schedule,
        args.sigma,
        epsilons,
        delta_e=args.delta_e,
        alpha_set=tuple(range(2, args.alpha_max + 1)),
        bandwidth=args.bandwidth,
        allocation=args.allocation,
        n_samples=args.samples,
        seed=args.seed,
    )


def _cmd_account(args) -> int:
    point = _profile(args, [args.epsilon])[0]
    out = {
        "schema": SCHEMA_VERSION,
        "method": args.method,
        "epsilon": args.epsilon,
        "sigma": args.sigma,
        "delta": point.delta,
        "direction_breakdown": point.breakdown,
    }
    if point.alpha is not None:
        out["alpha"] = point.alpha
    if args.method in ("condcomp", "best"):
        out["delta_e"] = args.delta_e
        out["allocation"] = args.allocation
        if args.allocation == "global-max":
            out["allocation_note"] = "as-published"
    if point.estimate is not None:
        est = point.estimate
        out["ci"] = {"low": est.ci_low, "high": est.ci_high}
        out["hoeffding"] = {"low": est.hoeffding_low, "high": est.hoeffding_high}
        out["seed"] = args.seed
        out["samples"] = args.samples
    print(json.dumps(_json_ready(out)))
    return 0


def _cmd_calibrate(args) -> int:
    if not 0.0 < args.delta_e_frac < 1.0:
        raise UsageError(f"--delta-e-frac must lie in (0, 1), got {args.delta_e_frac}")
    schedule = _load_schedule(args)
    strategy = _load_matrix(args, schedule)
    sigma = cal.calibrate_sigma(
        args.method,
        strategy,
        schedule,
        args.epsilon,
        args.delta,
        tol=args.tol,
        delta_e_fraction=args.delta_e_frac,
        alpha_set=tuple(range(2, args.alpha_max + 1)),
        bandwidth=args.bandwidth,
        allocation=args.allocation,
    )
    print(_fmt(sigma))
    return 0


def _write_csv(path, header: str, rows) -> None:
    lines = [header] + [",".join(_fmt(v) for v in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_profile(args) -> int:
    points = _profile(args, _parse_epsilons(args.epsilons))
    _write_csv(args.out, "epsilon,delta", [(p.epsilon, p.delta) for p in points])
    return 0


def _cmd_compare(args) -> int:
    schedule = _load_schedule(args)
    strategy = _load_matrix(args, schedule)
    eps = _parse_epsilons(args.epsilons)
    if args.seed is None:
        raise UsageError("compare includes an MC reference and requires --seed")

    options = dict(
        tol=args.tol, alpha_set=tuple(range(2, args.alpha_max + 1)), bandwidth=args.bandwidth,
        allocation=args.allocation, n_samples=args.samples, seed=args.seed,
    )
    rows = [
        (e, *(cal.calibrate_sigma(m, strategy, schedule, e, args.delta, **options)
              for m in ("renyi", "condcomp", "mc")))
        for e in eps
    ]
    _write_csv(
        args.out, "epsilon,sigma_renyi,sigma_condcomp,sigma_mc_reference", rows
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="balloc",
        description="Deterministic DP accounting for matrix mechanisms under balls-in-bins batching",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help):
        # No prefix matching: `calibrate` would read --delta-e as --delta-e-frac.
        return sub.add_parser(name, help=help, allow_abbrev=False)

    g = command("gen-matrix", help="generate or import a strategy matrix file")
    g.add_argument("--kind", required=True, choices=["identity", "bsr", "bisr", "toeplitz", "import"])
    g.add_argument("--n", type=int)
    g.add_argument("--bandwidth", type=int)
    g.add_argument("--coeffs", type=str)
    g.add_argument("--in", dest="in_path", type=str)
    g.add_argument("--out", type=str)
    g.set_defaults(func=_cmd_gen_matrix)

    def common(p, sigma=False, epsilon=False, delta_e=False, seed=False):
        p.add_argument("--matrix", required=True)
        p.add_argument("--epochs", type=int, required=True)
        p.add_argument("--batches", type=int, required=True)
        if sigma:
            p.add_argument("--sigma", type=float, required=True)
        if epsilon:
            p.add_argument("--epsilon", type=float, required=True)
        p.add_argument("--alpha-max", type=int, default=64)
        p.add_argument("--bandwidth", type=int, default=None)
        if delta_e:
            p.add_argument("--delta-e", type=float, default=1e-6)
        p.add_argument("--allocation", choices=list(condcomp.STRATEGIES), default="hybrid")
        if seed:
            p.add_argument("--seed", type=int, default=None)

    a = command("account", help="delta at a fixed (sigma, epsilon)")
    common(a, sigma=True, epsilon=True, delta_e=True, seed=True)
    a.add_argument("--method", required=True, choices=["renyi", "condcomp", "mc", "best"])
    a.add_argument("--samples", type=int, default=10**6)
    a.set_defaults(func=_cmd_account)

    c = command("calibrate", help="smallest sigma reaching (epsilon, delta)")
    common(c, epsilon=True)
    c.add_argument("--method", required=True, choices=["renyi", "condcomp", "best"])
    c.add_argument("--delta", type=float, required=True)
    c.add_argument("--tol", type=float, default=1e-3)
    c.add_argument("--delta-e-frac", type=float, default=0.5)
    c.set_defaults(func=_cmd_calibrate)

    p = command("profile", help="delta(epsilon) sweep as CSV")
    common(p, sigma=True, delta_e=True, seed=True)
    p.add_argument("--method", required=True, choices=["renyi", "condcomp", "mc", "best"])
    p.add_argument("--epsilons", required=True)
    p.add_argument("--samples", type=int, default=10**5)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=_cmd_profile)

    m = command("compare", help="calibrated sigma per method over an epsilon grid")
    common(m, seed=True)
    m.add_argument("--delta", type=float, required=True)
    m.add_argument("--epsilons", required=True)
    m.add_argument("--tol", type=float, default=1e-3)
    m.add_argument("--samples", type=int, default=10**5)
    m.add_argument("--out", type=str, default=None)
    m.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValueError as exc:  # UsageError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # e.g. numpy's _ArrayMemoryError on an oversize run: a computational
        # failure, reported in one line rather than as a traceback.
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

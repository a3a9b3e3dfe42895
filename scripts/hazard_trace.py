#!/usr/bin/env python3
"""Dump the per-step reverse-hazard bound of the largest mixture component.

The hazard sequence drifts slowly within an epoch and jumps at epoch
boundaries (the ternary privacy loss widens when a new participation enters
the prefix).  This writes one CSV row per step so the effect can be plotted,
optionally comparing allocation strategies.

Example:
    python scripts/hazard_trace.py --n 400 --epochs 4 --sigma 5 --out trace.csv
"""

import argparse
import sys

from balloc.condcomp import AllocationPlan, step_hazards
from balloc.mechanism import Schedule, build_identity, mixture_means
from balloc.pld import DIRECTIONS


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=400)
    ap.add_argument("--epochs", type=int, default=4)
    ap.add_argument("--sigma", type=float, default=5.0)
    ap.add_argument("--delta-e", type=float, default=0.5e-5)
    ap.add_argument("--direction", choices=DIRECTIONS, default="remove")
    ap.add_argument(
        "--strategies", default="union,hybrid,global-max",
        help="comma-separated allocation strategies, one output column each",
    )
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    if args.n % args.epochs:
        raise SystemExit("n must be divisible by the number of epochs")
    schedule = Schedule(args.epochs, args.n // args.epochs)
    means = mixture_means(build_identity(args.n), schedule)

    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    columns = {}
    for strategy in strategies:
        plan = AllocationPlan(schedule, args.delta_e, strategy)
        lam = step_hazards(means, args.sigma, plan)
        columns[strategy] = lam[:, DIRECTIONS.index(args.direction), -1]
        print(f"{strategy}: done", file=sys.stderr)

    lines = ["step," + ",".join(f"lambda_b_{s}" for s in strategies)]
    for n in range(args.n):
        row = ",".join(f"{columns[s][n]:.12g}" for s in strategies)
        lines.append(f"{n + 1},{row}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

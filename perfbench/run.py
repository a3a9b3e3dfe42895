#!/usr/bin/env python3
"""Benchmark of the balloc command line, run from the root of a checkout.

    python3 perfbench/run.py --workload renyi-banded --seed 1 --seconds 35 --trace 0

Drives `balloc.cli.main(argv)` in-process from `src/`, one operation at a time
(closed loop, one client), repeating passes over the workload's operations
for about `--seconds` seconds.  With `--trace 0` it prints the end-to-end
metrics, measured untraced; with `--trace 1` it wraps balloc's layers
(spans.py) and prints the per-layer split instead.  Every operation is
checked: exit code, delta in [0, 1], sigma > 0, then (untimed) each
calibrated sigma is re-accounted against its target and each deterministic
delta is compared with a seeded Monte Carlo lower bound.  The last line of
standard output is the JSON result; the full record (environment, every
operation's argv and outputs, spans) goes to `.perfbench/`.

Times are wall seconds rescaled to a nominal machine speed: a fixed reference
kernel (reference.py) is timed between operations, and each operation's wall
time is multiplied by REFERENCE_S over the kernel time around it.

BLAS and OpenMP are pinned to one thread before numpy loads and
BALLOC_THREADS is removed, so each run is one single-threaded process.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# Before numpy loads (reference.py imports it), and inherited by set-up runs.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ.pop("BALLOC_THREADS", None)

from reference import REFERENCE_S, time_reference  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402
from workloads import PROFILE_EPSILONS, WORKLOADS, Op  # noqa: E402

OUT_DIR = ".perfbench"
SETUP_REPEATS = 3
MIN_PASSES = 3
MC_CONFIDENCE = 1.0 - 1e-6
DELTA_E_FRACTION = 0.5  # balloc calibrate's default --delta-e-frac

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "account_s": "s",
    "calibrate_s": "s",
    "profile_s": "s",
    "peak_rss_mb": "MB",
    "delta_geomean": "1",
    "sigma_geomean": "1",
}

_SELF = [
    "cli.main",
    "renyi.renyi_remove_dp",
    "renyi.renyi_add_bound",
    "renyi.curve_delta",
    "condcomp.step_hazards",
    "condcomp.apply_sharing",
    "condcomp.cond_comp_pld",
    "pld.discretize",
    "pld.compose",
    "pld.compose_power",
    "pld.auto_spacing",
    "pld.delta_at",
    "mechanism.mixture_means",
    "mechanism.gram_summary",
    "mechanism.read_matrix",
]
_CALLS = [
    "renyi.renyi_remove_dp",
    "renyi.renyi_curve",
    "condcomp.step_hazards",
    "pld.discretize",
    "pld.compose",
    "mechanism.mixture_means",
    "mechanism.gram_summary",
]
PER_LAYER = {
    "trace.run_s": "s",
    **{f"layer.{layer}.self_s": "s" for layer in LAYERS},
    **{f"{name}.self_s": "s" for name in _SELF},
    **{f"{name}.calls": "count" for name in _CALLS},
    "renyi.exact_share": "ratio",
    "condcomp.step_hazards.steps": "count",
    "pld.compose.points_in": "count",
    "pld.support_max": "count",
    "calibrate.probes": "count",
    "calibrate.probe_s": "s",
}


# -- running balloc -------------------------------------------------------


def call_cli(cli, argv):
    """(exit code, stdout, error text) of one in-process balloc command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except Exception:  # a crash is a failed operation, not a failed run
            code = None
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def parse_outputs(op: Op, stdout: str) -> dict:
    if op.command == "account":
        doc = json.loads(stdout)
        keys = ("delta", "alpha", "direction_breakdown")
        return {k: doc[k] for k in keys if k in doc}
    if op.command == "calibrate":
        return {"sigma": float(stdout)}
    lines = stdout.strip().splitlines()
    if lines[0] != "epsilon,delta":
        raise ValueError(f"unexpected profile header {lines[0]!r}")
    return {"rows": [[float(v) for v in line.split(",")] for line in lines[1:]]}


def _probability(x) -> bool:
    return isinstance(x, float) and math.isfinite(x) and 0.0 <= x <= 1.0


def gate(op: Op, code, outputs: dict | None) -> list[str]:
    """Reasons this operation failed, from its exit code and outputs."""
    if code != 0:
        return [f"exit code {code}"]
    if outputs is None:
        return ["unparseable output"]
    if op.command == "account" and not _probability(outputs["delta"]):
        return [f"delta {outputs['delta']!r} outside [0, 1]"]
    if op.command == "calibrate":
        sigma = outputs["sigma"]
        if not (math.isfinite(sigma) and sigma > 0.0):
            return [f"sigma {sigma!r} not positive"]
    if op.command == "profile":
        rows = outputs["rows"]
        if [r[0] for r in rows] != [float(e) for e in PROFILE_EPSILONS.split(",")]:
            return ["profile epsilon grid changed"]
        if not all(_probability(d) for _, d in rows):
            return ["profile delta outside [0, 1]"]
    return []


def run_op(cli, tracer, op: Op, index: int) -> dict:
    start = time.perf_counter()
    if tracer is None:
        code, stdout, err = call_cli(cli, op.argv)
    else:
        code, stdout, err = tracer.run_op(index, call_cli, cli, op.argv)
    wall = time.perf_counter() - start
    try:
        outputs = parse_outputs(op, stdout) if code == 0 else None
    except (ValueError, KeyError, IndexError):
        outputs = None
    record = {
        "op": index,
        "command": op.command,
        "argv": op.argv,
        "wall_s": wall,
        "exit_code": code,
        "outputs": outputs,
        "failures": gate(op, code, outputs),
    }
    if code != 0:
        record["stderr"] = err[-2000:]
    return record


# -- checks outside the timed region ----------------------------------------


class Oracle:
    """Sound-bound checks: re-accounting calibrated sigmas, MC lower bounds."""

    def __init__(self, balloc, cli, seed: int):
        self.balloc = balloc
        self.cli = cli
        self.seed = seed
        self._means = {}

    def _schedule_means(self, argv):
        opt = dict(zip(argv[1::2], argv[2::2]))
        key = (opt["--matrix"], opt["--epochs"], opt["--batches"])
        if key not in self._means:
            b = self.balloc
            schedule = b.Schedule(epochs=int(key[1]), batches_per_epoch=int(key[2]))
            self._means[key] = b.mixture_means(b.read_matrix(key[0]), schedule)
        return self._means[key]

    def lower_bounds(self, argv, sigma: float, epsilons, op_index: int) -> list[float]:
        """Max over directions of a Hoeffding lower bound on delta, per epsilon."""
        mc = self.balloc.mc
        means = self._schedule_means(argv)
        b = means.means.shape[0]
        # Sized so the check costs less than the operation it checks.
        n = int(min(20000, max(2000, 2e7 / b**2)))
        seed = self.seed * 1_000_003 + op_index
        samples = [mc.mc_loss_samples(means, sigma, d, n, seed) for d in (mc.REMOVE, mc.ADD)]
        return [
            max(
                mc.mc_delta_from_samples(s, eps, MC_CONFIDENCE, seed).hoeffding_low
                for s in samples
            )
            for eps in epsilons
        ]

    def check(self, op: Op, record: dict) -> None:
        out = record["outputs"]
        fails = record["failures"]
        if fails:
            return
        if op.command == "account":
            sigma, readouts = op.sigma, [(op.epsilon, out["delta"])]
        elif op.command == "profile":
            sigma, readouts = op.sigma, out["rows"]
        else:
            sigma = out["sigma"]
            argv = ["account"] + op.argv[1 : op.argv.index("--epsilon")]
            argv += ["--sigma", repr(sigma), "--epsilon", repr(op.epsilon)]
            if "condcomp" in argv:
                argv += ["--delta-e", repr(op.delta_target * DELTA_E_FRACTION)]
            code, stdout, _ = call_cli(self.cli, argv)
            delta = json.loads(stdout)["delta"] if code == 0 else None
            out["reaccount_delta"] = delta
            if delta is None or delta > op.delta_target:
                fails.append(f"re-accounted delta {delta!r} above target {op.delta_target!r}")
                return
            readouts = [(op.epsilon, delta)]
        lows = self.lower_bounds(op.argv, sigma, [e for e, _ in readouts], record["op"])
        out["mc_lower"] = lows
        for (eps, delta), low in zip(readouts, lows):
            if delta < low:
                fails.append(f"delta {delta!r} at epsilon {eps!r} below MC lower bound {low!r}")


# -- metrics ----------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values))


def geomean(values) -> float:
    """Geometric mean, with zeros floored at 1e-300 so one exact 0 stays finite."""
    logs = [math.log(max(v, 1e-300)) for v in values]
    return math.exp(sum(logs) / len(logs)) if logs else 0.0


def end_to_end(passes, setup_s: float, peak_rss_mb: float) -> dict:
    def command_s(p, command):
        return sum(r["scaled_s"] for r in p["records"] if r["command"] == command)

    # Tightness is read on the fixed design pass only: delta moves by orders of
    # magnitude across the sigma range, so drawn passes would measure the draw.
    design = [r for r in passes[0]["records"] if not r["failures"]]
    deltas = []
    for r in design:
        if r["command"] == "account":
            deltas.append(r["outputs"]["delta"])
        elif r["command"] == "profile":
            deltas += [d for _, d in r["outputs"]["rows"]]
    sigmas = [r["outputs"]["sigma"] for r in design if r["command"] == "calibrate"]
    return {
        "setup_s": setup_s,
        "run_s": median(p["scaled_s"] for p in passes),
        "account_s": median(command_s(p, "account") for p in passes),
        "calibrate_s": median(command_s(p, "calibrate") for p in passes),
        "profile_s": median(command_s(p, "profile") for p in passes),
        "peak_rss_mb": peak_rss_mb,
        "delta_geomean": geomean(deltas),
        "sigma_geomean": geomean(sigmas),
    }


def per_layer(passes, tracer: Tracer) -> tuple[dict, list]:
    """Per-pass sums of span self time, calls and counts; median over passes.

    Self times are rescaled by their operation's reference factor, like the
    end-to-end times.  Also returns every span name ranked by total self time.
    """
    pass_of = {r["op"]: i for i, p in enumerate(passes) for r in p["records"]}
    scale = {r["op"]: REFERENCE_S / r["ref_s"] for p in passes for r in p["records"]}
    self_s = [{} for _ in passes]
    calls = [{} for _ in passes]
    top = {}
    for name, op, dt in tracer.self_times():
        i = pass_of[op]
        dt *= scale[op]
        for key in (name, f"layer.{name.split('.', 1)[0]}"):
            self_s[i][key] = self_s[i].get(key, 0.0) + dt
        calls[i][name] = calls[i].get(name, 0) + 1
        top[name] = top.get(name, 0.0) + dt
    per_pass = []
    for i, p in enumerate(passes):
        counts = {}
        for r in p["records"]:
            for key, v in tracer.counts.get(r["op"], {}).items():
                merge = max if key == "pld.support_max" else (lambda a, b: a + b)
                counts[key] = merge(counts.get(key, 0), v)
        orders = counts.get("renyi.orders", 0)
        values = {}
        for metric in PER_LAYER:
            if metric == "trace.run_s":
                values[metric] = p["scaled_s"]
            elif metric == "renyi.exact_share":
                values[metric] = counts.get("renyi.orders_exact", 0) / orders if orders else 0.0
            elif metric.endswith(".self_s"):
                values[metric] = self_s[i].get(metric[: -len(".self_s")], 0.0)
            elif metric.endswith(".calls"):
                values[metric] = calls[i].get(metric[: -len(".calls")], 0)
            else:
                values[metric] = counts.get(metric, 0)
        per_pass.append(values)
    metrics = {m: median(v[m] for v in per_pass) for m in PER_LAYER}
    ranked = sorted(top.items(), key=lambda kv: -kv[1])
    return metrics, ranked


# -- set-up and environment -------------------------------------------------

_SETUP_CODE = """
import sys, time
start = time.perf_counter()
import balloc.cli
for argv in {argvs!r}:
    if balloc.cli.main(argv) != 0:
        sys.exit(1)
print(repr(time.perf_counter() - start))
"""


def measure_setup(workload, workdir: str) -> tuple[float, list]:
    """Import plus gen-matrix of the workload's matrices, in fresh interpreters.

    Returns the median rescaled time and the (wall, reference) samples.
    """
    argvs = [m.gen_argv(workdir) for m in workload.matrices]
    env = dict(os.environ, PYTHONPATH="src")
    samples = []
    for _ in range(SETUP_REPEATS):
        before = time_reference()
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE.format(argvs=argvs)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        after = time_reference()
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-500:]}")
        samples.append((float(proc.stdout.strip().splitlines()[-1]), (before + after) / 2))
    return median(wall * REFERENCE_S / ref for wall, ref in samples), samples


def environment() -> dict:
    import numpy
    import scipy

    openblas = None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "threads": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "BALLOC_THREADS")
        },
        "machine": platform.machine(),
    }


# -- main -------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not Path("src/balloc/cli.py").is_file():
        print("error: run from the root of a balloc checkout (src/balloc not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, "src")
    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    workdir = f"{OUT_DIR}/{tag}"
    os.makedirs(workdir, exist_ok=True)

    setup_s, setup_samples = measure_setup(workload, workdir)
    import balloc
    import balloc.cli as cli

    tracer = Tracer() if args.trace else None
    generator = workload.passes(workdir, args.seed)
    passes = []
    index = 0
    if tracer is not None:
        tracer.install(balloc)
    try:
        started = time.perf_counter()
        ref_before = time_reference()
        while True:
            elapsed = time.perf_counter() - started
            if passes:
                typical = elapsed / len(passes)
                short = len(passes) < MIN_PASSES and elapsed < 2 * args.seconds
                if not short and elapsed + typical > args.seconds:
                    break
            ops = next(generator)
            records = []
            for op in ops:
                record = run_op(cli, tracer, op, index)
                ref_after = time_reference()
                record["ref_s"] = (ref_before + ref_after) / 2
                record["scaled_s"] = record["wall_s"] * REFERENCE_S / record["ref_s"]
                records.append(record)
                ref_before = ref_after
                index += 1
            passes.append({
                "scaled_s": sum(r["scaled_s"] for r in records),
                "wall_s": sum(r["wall_s"] for r in records),
                "ops": ops,
                "records": records,
            })
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    oracle = Oracle(balloc, cli, args.seed)
    for p in passes:
        for op, record in zip(p["ops"], p["records"]):
            oracle.check(op, record)
    records = [r for p in passes for r in p["records"]]
    attempted = len(records)
    failed = sum(1 for r in records if r["failures"])

    e2e = end_to_end(passes, setup_s, peak_rss_mb)
    ranked = []
    if tracer is None:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    else:
        layer, ranked = per_layer(passes, tracer)
        metrics = {k: {"value": layer[k], "unit": u} for k, u in PER_LAYER.items()}

    full = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "reference_s": REFERENCE_S,
        "setup_samples": [{"wall_s": w, "ref_s": r} for w, r in setup_samples],
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "metrics": metrics,
        "end_to_end": e2e,
        "passes": [
            {"scaled_s": p["scaled_s"], "wall_s": p["wall_s"], "ops": [r["op"] for r in p["records"]]}
            for p in passes
        ],
        "ops": [dict(r, seed=args.seed) for r in records],
    }
    with open(f"{OUT_DIR}/{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(full, fh, indent=1)
    if tracer is not None:
        with open(f"{OUT_DIR}/{tag}.spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": tracer.spans}, fh)

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  passes {len(passes)}")
    print(f"attempted {attempted}  failed {failed}  failed_ratio {failed / attempted:g}")
    print(f"environment {json.dumps(full['environment'])}")
    for r in records:
        for reason in r["failures"]:
            print(f"  FAILED op {r['op']} ({r['command']}): {reason}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    if ranked:
        run_s = sum(p["scaled_s"] for p in passes)
        print("  self time by span, share of traced run time:")
        for name, dt in ranked[:8]:
            print(f"    {name:38s} {dt:8.3f} s  {dt / run_s:6.1%}")
    print(f"  full record: {OUT_DIR}/{tag}.json")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

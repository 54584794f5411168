#!/usr/bin/env python3
"""Benchmark for kummer-pf: three seeded workloads, end to end and per layer.

    python3 bench/run.py --workload {verify-all,derive,survey} --seed N \
        --seconds S --trace {0,1} [--points K]

Run it from the root of a checkout; it puts the checkout's ``src`` on the
path of every interpreter it starts.  Each repetition runs in a fresh
interpreter (bench/worker.py), one at a time, with numpy's BLAS pool
pinned to one thread, because a user runs one command per process.

--trace 0 starts two set-up-only interpreters, then repeats the workload
until the timed regions add up to --seconds (at least once), and reports
the end-to-end metrics: medians of wall_s, cpu_s and peak_rss_mb over the
repetitions and of setup_s over every set-up.  --trace 1 runs one untraced
and one traced repetition and reports the per-layer metrics.  --points
sets the number of survey base points (default 4; the self-test uses 1).

Every operation's output is checked; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  fail_frac = failed / attempted is printed above it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
WORKLOADS = ("verify-all", "derive", "survey")

SETUP_ONLY_CHILDREN = 2
CHILD_TIMEOUT_S = 170
RUN_BUDGET_S = 150  # no repetition starts that would end a run later than this


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"  # set iteration order, hence call counts, repeat exactly
    return env


def run_child(args: argparse.Namespace, trace: int, setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(trace)]
    if args.points is not None:
        cmd += ["--points", str(args.points)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"repetition exceeded {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"repetition exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    # time.monotonic is CLOCK_MONOTONIC on Linux, one clock for all processes
    record["setup_s"] = record.pop("setup_end") - start
    record["elapsed_s"] = time.monotonic() - start
    return record


def untraced_runs(args) -> tuple[list[dict], list[float]]:
    """Set-up-only interpreters first (they also warm the bytecode cache),
    then repetitions until the timed regions cover --seconds."""
    began = time.monotonic()
    setups = [run_child(args, 0, setup_only=True)["setup_s"]
              for _ in range(SETUP_ONLY_CHILDREN)]
    reps: list[dict] = []
    while not reps or sum(r["wall_s"] for r in reps) < args.seconds:
        if reps and time.monotonic() - began + reps[-1]["elapsed_s"] > RUN_BUDGET_S:
            break
        reps.append(run_child(args, 0))
        setups.append(reps[-1]["setup_s"])
    return reps, setups


def end_to_end_metrics(reps: list[dict], setups: list[float]) -> dict:
    return {
        "wall_s": {"value": statistics.median(r["wall_s"] for r in reps), "unit": "s"},
        "cpu_s": {"value": statistics.median(r["cpu_s"] for r in reps), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in reps),
                        "unit": "MB"},
    }


def per_layer_metrics(untraced: dict, traced: dict) -> dict:
    layers = tracing.layer_metrics(traced["spans"], traced["counts"], traced["rank5_sizes"],
                                   traced["wall_s"], untraced["wall_s"])
    return {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--points", type=int, default=None)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kummer_pf" / "__init__.py").is_file():
        print(f"bench: no kummer_pf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            reps = [run_child(args, 0), run_child(args, 1)]
            metrics = per_layer_metrics(*reps)
        else:
            reps, setups = untraced_runs(args)
            metrics = end_to_end_metrics(reps, setups)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    outcomes = [o for r in reps for o in r["outcomes"]]
    failed = [o for o in outcomes if not o["ok"]]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"repetitions={len(reps)} rejected_draws={reps[0]['rejected_draws']}")
    print("# repetition wall_s: " + " ".join(f"{r['wall_s']:.3f}" for r in reps))
    for name, m in metrics.items():
        print(f"# {name} = {m['value']} {m['unit']}")
    print(f"# fail_frac = {len(failed) / len(outcomes)} ({len(failed)}/{len(outcomes)})")
    for o in failed:
        print(f"# FAILED {o['name']}: {json.dumps(o['detail'], default=str)}")
    print(json.dumps({"correct": not failed, "attempted": len(outcomes),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark repetition in a fresh interpreter.

Run by run.py, never directly by users:

    python3 bench/worker.py --workload W --seed N [--points K] [--trace 0|1] [--setup-only]

It imports the package, builds the workload's inputs (set-up), runs the
timed region once and prints one JSON line: the monotonic time at which
set-up ended, wall and CPU seconds of the timed region, peak RSS, one
entry per operation, and with --trace 1 the raw spans and counters.
"""

from __future__ import annotations

import argparse
import json
import resource
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--points", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import workloads

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    setup, run = workloads.WORKLOADS[args.workload]
    state = setup(args.seed, args.points)
    setup_end = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_end": setup_end}))
        return 0

    cpu0, wall0 = time.process_time(), time.perf_counter()
    outcomes = run(state)
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    record = {
        "setup_end": setup_end,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "rejected_draws": state.get("rejected", 0),
        "outcomes": [{"name": o.name, "ok": o.ok, "detail": o.detail} for o in outcomes],
    }
    if tracer is not None:
        tracer.uninstall()
        record["spans"] = tracer.spans
        record["counts"] = dict(tracer.counts)
        record["rank5_sizes"] = tracer.rank5_sizes
    print(json.dumps(record, default=str))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

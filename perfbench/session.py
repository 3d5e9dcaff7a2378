"""One benchmark process: set up a workload, then optionally measure it.

Started by run.py, never by hand. Set-up imports the package from the
checkout's ``src``, builds the workload's inputs through the package's
public constructors and parsers, and makes one warm-up call; the process
then prints ``ready_at`` (a CLOCK_MONOTONIC reading, comparable with the
parent's) and, with ``--measure``, runs the timed closed loop: each call
starts after the previous one has returned and its output was checked.
Untraced, each call is followed by gauging the machine's speed with
``calibrate.py`` for GAUGE_SHARE of the call's time.
The last line of standard output is one JSON report.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import calibrate
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
MAX_REPORTED = 10  # mismatch and failure messages kept in the report
GAUGE_SHARE = 0.5  # after each untraced call, gauge the machine for this share of its time


def _import_program():
    sys.path.insert(0, SRC)
    import trinegamble

    where = os.path.realpath(trinegamble.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"imported trinegamble from {where}, not from {SRC}")


def _measure(workload, seconds: float, traced: bool, mismatches: list) -> dict:
    attempted = failed = rounds = 0
    busy = 0.0
    failures = {}
    gauge = calibrate.Gauge()
    clock = time.perf_counter
    start = clock()
    passes = 0
    while True:
        for op in workload.ops(passes):
            attempted += 1
            t0 = clock()
            try:
                out = op.call()
            except Exception as exc:  # a failed operation; the run goes on
                busy += clock() - t0
                failed += 1
                failures.setdefault(op.name, f"{type(exc).__name__}: {exc}")
                continue
            took = clock() - t0
            busy += took
            if not traced:
                gauge.run_for(GAUGE_SHARE * took)
            try:
                rounds += op.check(out)
            except Exception as exc:  # any unexpected output is a mismatch
                mismatches.append(f"{op.name}: {type(exc).__name__}: {exc}")
        passes += 1
        # the traced run makes exactly one pass, so its call counts repeat
        if traced or clock() - start >= seconds:
            break
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": not mismatches,
        "passes": passes,
        "rounds": rounds,
        "busy_s": busy,
        "gauge_units": gauge.units,
        "gauge_s": gauge.seconds,
        "wall_s": clock() - start,
        "mismatches": mismatches[:MAX_REPORTED],
        "failures": dict(list(failures.items())[:MAX_REPORTED]),
    }


def _peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus that of its worker processes, which
    run side by side; ru_maxrss is in KiB on Linux."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--measure", action="store_true")
    args = ap.parse_args(argv)
    _import_program()
    os.makedirs(OUT, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT)
    try:
        workload.warm_up()
        report = {"ready_at": time.monotonic()}
        if args.measure:
            # checks made before the timed loop, and outside the trace
            mismatches = workload.pre_check()
            tracer = tracing.Tracer().install() if args.trace else None
            report.update(_measure(workload, args.seconds, tracer is not None, mismatches))
            report["peak_rss_mb"] = _peak_rss_mb(workload.WORKERS)
            if tracer is not None:
                report["layers"] = tracer.metrics()
                report["absent_layers"] = tracer.absent
    finally:
        workload.close()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the trine-gambling simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory. With ``--trace 0`` the last line of standard output is
a JSON object with the end-to-end metrics ``setup_s``, ``rounds_per_s``
and ``peak_rss_mb``; with ``--trace 1`` it carries each layer's call count
and self time from one traced pass. Both times are given at the reference
speed of ``calibrate.py``, gauged alongside them, so that other tenants'
load on the machine cancels out. ``attempted`` and ``failed`` count
calls into the program; ``correct`` is false when any call that did not
fail returned output contradicting the reference. A summary goes to
standard error, and the full report to ``perfbench/out/``.

Every process is started here one after the other: SETUPS fresh
processes measure set-up time (``setup_s`` is their median, each one
preceded by SETUP_GAUGE_S of gauging) and the last of them goes on to the
timed closed loop.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUPS = 5
SETUP_GAUGE_S = 0.3  # the machine is gauged this long before each set-up
DEADLINE_S = 170.0  # the whole run, set-ups included, ends before this


def _child(args, measure: bool, deadline: float) -> tuple:
    """Run one session process; returns (start time, report)."""
    cmd = [sys.executable, os.path.join(HERE, "session.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if measure:
        cmd.append("--measure")
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        # the session and any worker processes it started share a group
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"{args.workload}: session did not finish in time")
    if proc.returncode != 0:
        raise SystemExit(f"{args.workload}: session exited with code {proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise SystemExit(f"{args.workload}: session printed no report")
    return started, json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark of the trine-gambling simulator.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "trinegamble", "__init__.py")):
        print(f"error: no trinegamble sources under {ROOT}/src", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    setups = []
    gauge = calibrate.Gauge()
    # the traced run measures layers only, so it skips the extra set-ups
    for i in range(1 if args.trace else SETUPS):
        if not args.trace:
            gauge.run_for(SETUP_GAUGE_S)
        started, report = _child(args, i == SETUPS - 1 or args.trace, deadline)
        setups.append(report["ready_at"] - started)

    if args.trace:
        metrics = report["layers"]
    else:
        # both times are reported at the reference speed of calibrate.py
        wall_rate = report["rounds"] / report["busy_s"]
        speed = calibrate.speed(report["gauge_units"], report["gauge_s"])
        report.update(wall_rounds_per_s=wall_rate, speed=speed, setup_speed=gauge.speed())
        metrics = {
            "setup_s": {"value": statistics.median(setups) * gauge.speed(), "unit": "s"},
            "rounds_per_s": {"value": wall_rate / speed, "unit": "1/s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    result = {"correct": report["correct"], "attempted": report["attempted"],
              "failed": report["failed"], "metrics": metrics}

    detail = dict(report, workload=args.workload, seed=args.seed, trace=args.trace,
                  setups_s=setups, result=result)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(detail, f, indent=1)
    print(f"{args.workload}: {report['passes']} pass(es), {report['rounds']} rounds in "
          f"{report['busy_s']:.2f} s of calls, {report['attempted']} calls, "
          f"{report['failed']} failed", file=sys.stderr)
    if not args.trace:
        print(f"  wall clock {wall_rate:.0f} rounds/s at machine speed {speed:.3f}",
              file=sys.stderr)
    for name, message in report["failures"].items():
        print(f"  failed: {name}: {message}", file=sys.stderr)
    for message in report["mismatches"]:
        print(f"  MISMATCH {message}", file=sys.stderr)
    if report.get("absent_layers"):
        print(f"  absent layers: {', '.join(report['absent_layers'])}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark a change against its parent in alternating pairs of runs.

    python3 tools/bench_pairs.py --parent DIR --change DIR --number N \\
        --workloads noisy-monitored-transcript,separable-sweep --seeds 1-10

PARENT and CHANGE are two source checkouts of this repository, each with
its own ``perfbench/``. For every workload and seed the script runs
``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0``
once in each checkout, one run after the other; the parent goes first in
odd-numbered pairs and the change in even-numbered ones, so that a drift
of the machine's load favours neither side. T is ``run_seconds`` from the
change's ``BENCHMARK.json`` unless ``--seconds`` is given.

The result is written to ``BENCH_<N>.json`` (in the repository holding
this script unless ``--out-dir`` says otherwise): every run's metrics,
``correct``, ``attempted``, ``failed`` and passes; per workload and metric
each side's median and quartiles, the change's wins and ties, the ratio of
the medians and whether the change stays within the benchmark's bound;
and a fingerprint of the machine (processor count, CPU model, Python and
numpy versions). Standard library only.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, dash, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if dash else [int(lo)])
    return seeds


def _git_head(checkout: str) -> str:
    """The checkout's commit, with "+dirty" when tracked files differ from it."""
    head = subprocess.run(["git", "-C", checkout, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    if head.returncode != 0:
        return "unknown"
    dirty = subprocess.run(["git", "-C", checkout, "status", "--porcelain", "--untracked-files=no"],
                           capture_output=True, text=True).stdout.strip()
    return head.stdout.strip() + ("+dirty" if dirty else "")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _numpy_version() -> str:
    # the interpreter the benchmark runs under, without importing numpy here
    proc = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def fingerprint() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _numpy_version(),
    }


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run in checkout; its result line plus the
    pass count and wall-clock throughput from its full report."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: {workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    report = os.path.join(checkout, "perfbench", "out", f"{workload}-seed{seed}-trace0.json")
    with open(report, encoding="utf-8") as f:
        detail = json.load(f)
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "passes": detail["passes"],
        "wall_rounds_per_s": detail["wall_rounds_per_s"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def _spread(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def summarize(pairs: list, metrics: list) -> dict:
    """Per metric: both sides' medians and quartiles, the change's wins,
    the ratio of medians and the bound check, given the benchmark's list
    of end-to-end metrics ({name, better, bound})."""
    out = {}
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        ties = sum(c == p for p, c in zip(parent, change))
        ps, cs = _spread(parent), _spread(change)
        ratio = cs["median"] / ps["median"]
        worse_by = (1.0 - ratio) if higher else (ratio - 1.0)
        out[name] = {
            "better": m["better"],
            "parent": ps,
            "change": cs,
            "ratio": ratio,
            "wins": wins,
            "ties": ties,
            "pairs": len(pairs),
            "within_bound": worse_by <= m["bound"],
            # the gain rule: nine tenths of the pairs won, and the medians
            # apart by more than the parent's interquartile range
            "gain": wins >= 0.9 * len(pairs)
                    and abs(cs["median"] - ps["median"]) > ps["q3"] - ps["q1"],
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--number", type=int, required=True, help="N in BENCH_<N>.json")
    ap.add_argument("--workloads", required=True, help="comma-separated workload names")
    ap.add_argument("--seeds", required=True, help="seeds, e.g. 1-10 or 1,4,7")
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--out-dir", default=ROOT, help="where BENCH_<N>.json goes")
    args = ap.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    record = {
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "machine": fingerprint(),
        "commits": {side: _git_head(path) for side, path in sides.items()},
        "run_seconds": seconds,
        "workloads": {},
    }
    n = 0
    for workload in args.workloads.split(","):
        pairs = []
        for seed in parse_seeds(args.seeds):
            n += 1
            order = ("parent", "change") if n % 2 else ("change", "parent")
            pair = {"first": order[0]}
            for side in order:
                pair[side] = run_once(sides[side], workload, seed, seconds)
                r = pair[side]
                print(f"{workload} seed {seed} {side}: {r['metrics']} passes {r['passes']} "
                      f"correct {r['correct']} failed {r['failed']}/{r['attempted']}",
                      file=sys.stderr, flush=True)
            pairs.append(pair)
        record["workloads"][workload] = {
            "pairs": pairs,
            "all_correct": all(p[s]["correct"] for p in pairs for s in sides),
            "failed_share": {s: sum(p[s]["failed"] for p in pairs)
                             / max(1, sum(p[s]["attempted"] for p in pairs)) for s in sides},
            "passes": {s: [p[s]["passes"] for p in pairs] for s in sides},
            "summary": summarize(pairs, bench["end_to_end"]),
        }
    path = os.path.join(args.out_dir, f"BENCH_{args.number}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

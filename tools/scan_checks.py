"""Replay a benchmark workload's calls and checks offline, without timing.

    python3 tools/scan_checks.py --workload entangled-scan --seeds 1-10 --passes 0:700 \\
        [--checkout DIR]

For every seed, the script builds the workload of ``perfbench/workloads.py``
as a benchmark run does, makes its checks made before the timed loop
(``pre_check``), then calls ``ops(k)`` for each pass k in the half-open range
``--passes A:B`` and checks every call's output. Nothing is timed, so the
scan reaches passes that a timed run of a faster program would reach, and
shows which of them the benchmark's checks would fail.

DIR is a source checkout of this repository (default: the one holding this
script); its ``perfbench/`` is imported read-only (no bytecode is written)
and the package from its ``src/``. One JSON line goes to standard output
for each failed call or failed check::

    {"workload": ..., "seed": ..., "pass": ..., "op": ..., "kind": "failed" | "mismatch",
     "message": ...}

with ``pass`` null for a ``pre_check`` mismatch. A summary goes to standard
error. The exit code is 1 when any line was printed, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from bench_pairs import parse_seeds

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _passes(text: str) -> range:
    lo, colon, hi = text.partition(":")
    if not colon:
        raise argparse.ArgumentTypeError(f"expected A:B, got {text!r}")
    return range(int(lo), int(hi))


def _import_workloads(checkout: str):
    sys.dont_write_bytecode = True
    src = os.path.join(checkout, "src")
    sys.path[:0] = [os.path.join(checkout, "perfbench"), src]
    import trinegamble
    import workloads

    where = os.path.realpath(trinegamble.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"imported trinegamble from {where}, not from {src}")
    return workloads


def scan(workloads, name: str, seed: int, passes: range, workdir: str):
    """Yield one record per failed call or failed check of the workload
    built from seed, over pre_check and the given passes."""
    base = {"workload": name, "seed": seed}
    workload = workloads.WORKLOADS[name](seed, workdir)
    try:
        for message in workload.pre_check():
            yield dict(base, **{"pass": None, "op": "pre_check", "kind": "mismatch",
                                "message": message})
        for k in passes:
            for op in workload.ops(k):
                where = dict(base, **{"pass": k, "op": op.name})
                try:
                    out = op.call()
                except Exception as exc:  # a failed call; the scan goes on, as a run does
                    yield dict(where, kind="failed", message=f"{type(exc).__name__}: {exc}")
                    continue
                try:
                    op.check(out)
                except Exception as exc:  # any unexpected output is a mismatch
                    yield dict(where, kind="mismatch", message=f"{type(exc).__name__}: {exc}")
    finally:
        workload.close()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload of perfbench/workloads.py")
    ap.add_argument("--seeds", required=True, type=parse_seeds, help="seeds, e.g. 1-10 or 1,4,7")
    ap.add_argument("--passes", required=True, type=_passes,
                    help="half-open range of pass indices A:B, e.g. 0:700")
    ap.add_argument("--checkout", default=ROOT, help="source checkout to scan")
    args = ap.parse_args(argv)
    workloads = _import_workloads(os.path.abspath(args.checkout))
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(sorted(workloads.WORKLOADS))}")
    found = 0
    with tempfile.TemporaryDirectory() as workdir:
        for seed in args.seeds:
            for record in scan(workloads, args.workload, seed, args.passes, workdir):
                found += 1
                print(json.dumps(record), flush=True)
    print(f"{args.workload}: {len(args.seeds)} seed(s), passes {args.passes.start}:"
          f"{args.passes.stop}, {found} failed call(s) or check(s)", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())

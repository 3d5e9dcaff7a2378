"""tools/bench_pairs.py: alternating benchmark pairs, recorded with why a
run was wrong."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = ROOT / "tools" / "bench_pairs.py"

# a checkout's benchmark: seed 2 reports a mismatch and a failed call
FAKE_RUN = '''
import argparse, json, os
ap = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    ap.add_argument(flag)
args = ap.parse_args()
bad = args.seed == "2"
mismatches = ["simulate-aligned: Mismatch: aligned mean gain: mean -2.5"] if bad else []
failures = {"simulate-cheat": "OpFailed: exit 1"} if bad else {}
here = os.path.dirname(os.path.abspath(__file__))
os.makedirs(os.path.join(here, "out"), exist_ok=True)
path = os.path.join(here, "out", f"{args.workload}-seed{args.seed}-trace0.json")
with open(path, "w") as f:
    json.dump({"passes": 7, "wall_rounds_per_s": 1000.0, "mismatches": mismatches,
               "failures": failures}, f)
print(json.dumps({"correct": not bad, "attempted": 21, "failed": len(failures),
                  "metrics": {"rounds_per_s": {"value": 500.0, "unit": "1/s"}}}))
'''

FAKE_BENCHMARK = {"run_seconds": 1,
                  "end_to_end": [{"name": "rounds_per_s", "better": "higher", "bound": 0.25}]}


def test_each_run_keeps_its_mismatches_and_failures(tmp_path):
    checkout = tmp_path / "checkout"
    (checkout / "perfbench").mkdir(parents=True)
    (checkout / "perfbench" / "run.py").write_text(FAKE_RUN)
    (checkout / "BENCHMARK.json").write_text(json.dumps(FAKE_BENCHMARK))
    proc = subprocess.run([sys.executable, str(PAIRS), "--parent", str(checkout),
                           "--change", str(checkout), "--number", "0", "--workloads", "fake",
                           "--seeds", "1-2", "--out-dir", str(tmp_path)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    record = json.loads((tmp_path / "BENCH_0.json").read_text())
    pairs = record["workloads"]["fake"]["pairs"]
    for side in ("parent", "change"):
        assert pairs[0][side]["mismatches"] == [] and pairs[0][side]["failures"] == {}
        assert pairs[1][side]["mismatches"] == [
            "simulate-aligned: Mismatch: aligned mean gain: mean -2.5"]
        assert pairs[1][side]["failures"] == {"simulate-cheat": "OpFailed: exit 1"}
    progress = [line for line in proc.stderr.splitlines() if line.startswith("fake seed")]
    assert len(progress) == 4
    for line in progress:
        clean = line.startswith("fake seed 1 ")
        assert ("first mismatch:" in line) is not clean
        assert clean or line.endswith(
            "first mismatch: simulate-aligned: Mismatch: aligned mean gain: mean -2.5")

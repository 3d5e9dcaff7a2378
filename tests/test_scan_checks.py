"""tools/scan_checks.py: the offline replay of the benchmark's checks."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCAN = ROOT / "tools" / "scan_checks.py"


def _scan(*args):
    return subprocess.run([sys.executable, str(SCAN), *args],
                          capture_output=True, text=True, timeout=120)


def test_the_first_passes_of_entangled_scan_are_clean():
    proc = _scan("--workload", "entangled-scan", "--seeds", "1", "--passes", "0:2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
    assert "0 failed call(s) or check(s)" in proc.stderr


def test_the_first_pass_of_separable_sweep_is_clean():
    # its checks recompute each sweep row's z from mc_stderr and hold the
    # mixture runs against the reference's exact gain
    proc = _scan("--workload", "separable-sweep", "--seeds", "1", "--passes", "0:1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
    assert "0 failed call(s) or check(s)" in proc.stderr


def test_the_first_pass_of_noisy_monitored_transcript_is_clean():
    # its checks read every transcript line back and recompute the counts,
    # the mean and the round on which the monitor trips
    proc = _scan("--workload", "noisy-monitored-transcript", "--seeds", "1", "--passes", "0:1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
    assert "0 failed call(s) or check(s)" in proc.stderr


FAKE_WORKLOADS = '''
from typing import NamedTuple

class Op(NamedTuple):
    name: str
    call: object
    check: object

def _fail():
    raise RuntimeError("refused")

def _check(out):
    if out == "bad":
        raise ValueError("wrong output")
    return 1

class Fake:
    def __init__(self, seed, workdir):
        self.seed = seed
    def pre_check(self):
        return ["split differs"] if self.seed == 2 else []
    def ops(self, k):
        return [Op("fails", _fail if k == 1 else (lambda: "ok"), _check),
                Op("checked", lambda: "bad" if k == 2 else "ok", _check)]
    def close(self):
        pass

WORKLOADS = {"fake": Fake}
'''


def test_every_failed_call_and_check_is_one_line(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "workloads.py").write_text(FAKE_WORKLOADS)
    (tmp_path / "src" / "trinegamble").mkdir(parents=True)
    (tmp_path / "src" / "trinegamble" / "__init__.py").write_text("")
    proc = _scan("--checkout", str(tmp_path), "--workload", "fake", "--seeds", "1-2",
                 "--passes", "1:3")
    assert proc.returncode == 1
    found = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [(f["seed"], f["pass"], f["op"], f["kind"]) for f in found] == [
        (1, 1, "fails", "failed"), (1, 2, "checked", "mismatch"),
        (2, None, "pre_check", "mismatch"),
        (2, 1, "fails", "failed"), (2, 2, "checked", "mismatch"),
    ]
    assert found[0]["message"] == "RuntimeError: refused"
    assert not list(tmp_path.rglob("__pycache__"))
    assert _scan("--checkout", str(tmp_path), "--workload", "fake", "--seeds", "1",
                 "--passes", "0:1").returncode == 0

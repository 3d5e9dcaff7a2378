"""tools/output_hashes.py: a checkout's seeded output, one record per line."""

import hashlib
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "output_hashes.py"

README = """# fake

Some prose, then the examples:

    trinegamble analytic --theta-a 3.14159 --rate-r 0.05 \\
        --penalty-R 98
    trinegamble simulate --alice honest --rounds 50 --output out.csv

Not a command:

    echo trinegamble

    for i in $(seq 3 4); do
        trinegamble simulate --alice entangled:random:$i --seed $i --rounds 30
    done
"""


def _run(*args):
    return subprocess.run([sys.executable, str(TOOL), *args],
                          capture_output=True, text=True, timeout=300)


def test_every_record_is_one_line_of_a_small_checkout(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    (tmp_path / "README.md").write_text(README)
    proc = _run("--checkout", str(tmp_path), "--rounds", "40", "--workers", "1,3")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    kinds = [line.split(" ", 1)[0] for line in lines]
    assert kinds == sorted(kinds, key=["simulate", "exact", "cli", "transcript"].index)

    simulated = [line for line in lines if line.startswith("simulate ")]
    # six families, two receivers, six points, two worker counts
    assert len(simulated) == 6 * 2 * 6 * 2
    assert all(" rounds=" in line and " mean_gain_alice=" in line for line in simulated)
    assert any(" R=7.3 " in line for line in simulated)
    # the float fields are in hex, and the result is the same for every worker count
    assert all("0x" in line.split(" mean_gain_alice=")[1] for line in simulated)
    by_config = {}
    for line in simulated:
        head, _, tail = line.partition(" workers=")
        by_config.setdefault(head, set()).add(tail.split(" ", 1)[1])
    assert all(len(results) == 1 for results in by_config.values())

    assert sum(line.startswith("exact ") and " g_alice=" in line for line in lines) == 6 * 6

    cli = [line for line in lines if line.startswith("cli ")]
    assert [line.split(" exit=")[0] for line in cli] == [
        "cli trinegamble analytic --theta-a 3.14159 --rate-r 0.05 --penalty-R 98",
        "cli trinegamble simulate --alice honest --rounds 50 --output out.csv",
        "cli trinegamble simulate --alice entangled:random:3 --seed 3 --rounds 30",
        "cli trinegamble simulate --alice entangled:random:4 --seed 4 --rounds 30",
    ]
    assert all(" exit=0 stdout=" in line for line in cli)
    # a command's output file is hashed; one that writes to a file prints nothing
    empty = hashlib.sha256(b"").hexdigest()
    assert cli[1].split(" stdout=")[1].startswith(f"{empty} out.csv=")
    assert len(cli[1].split("out.csv=")[1]) == 64

    # monitored, noisy transcript runs: two play every round, the cheat trips the monitor
    transcripts = [line for line in lines if line.startswith("transcript ")]
    assert [line.split(" --alice ")[1].split(" ")[0] for line in transcripts] == [
        "honest", "entangled:aligned", "fixed:theta_a=2.5,claim=a"]
    assert [line.split(" exit=")[1].split(" ")[0] for line in transcripts] == ["0", "0", "3"]
    assert all(len(line.split(" rounds.jsonl=")[1]) == 64 for line in transcripts)
    assert not list(tmp_path.rglob("__pycache__"))


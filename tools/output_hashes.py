"""Print a source checkout's seeded output as one line per record, so that
two checkouts can be compared with diff.

    python3 tools/output_hashes.py [--checkout DIR] [--rounds N] [--workers 1-4] > records.txt

DIR is a source checkout of this repository (default: the one holding this
script); the package is imported from its ``src/`` (no bytecode is written)
and its README's CLI examples are run. Four kinds of record, in a fixed
order:

    simulate <alice> bob=<bob> r=.. R=.. noise=.. monitor=<threshold/min checks|off>
        workers=<w> <every SimResult field; floats in hex>
    exact <alice> r=.. R=.. noise=.. monitor=.. g_alice=<hex>, then per row:
        <row name> <probability> <payoff>
    cli <command> exit=<code> stdout=<sha256> [<file>=<sha256> ...]
    transcript <command> exit=<code> stdout=<sha256> rounds.jsonl=<sha256>

simulate runs every sender family against both receivers at each point of
POINTS, whose penalties are integer (398, 40), dyadic (7.25) and not
dyadic (7.3, 19.1, 77.7), for every worker count of --workers, with N
rounds (default 20000) and seed 7. exact lists every enumerate_exact row
of each family at each point. cli runs each ``trinegamble ...`` line of the
README's indented code blocks (a ``for i in $(seq A B); do`` line before it
repeats it for each i) with ``python3 -m trinegamble`` in an empty
directory, and hashes its standard output and every file it leaves there.
transcript runs ``trinegamble simulate`` the same way for each sender of
TRANSCRIPT_SENDERS, with the abort monitor on, channel noise and a
transcript file, at TRANSCRIPT_ARGS whatever N is.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import re
import shlex
import subprocess
import sys
import tempfile

from bench_pairs import parse_seeds

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FAMILIES = ("honest", "fixed:theta_a=2.5,claim=a", "mixture:0.4:a:a;0.6:c:b",
            "entangled:aligned", "entangled:singlet", "entangled:random:0")
RECEIVERS = ("honest", "random")
# (r, R, noise, (abort threshold, minimum checks) or None)
POINTS = (
    (0.05, 398.0, 0.0, None),
    (0.3, 40.0, 0.1, (0.05, 50)),
    (0.05, 7.25, 0.1, None),
    (0.05, 7.3, 0.0, None),
    (0.3, 19.1, 0.1, None),
    (0.5, 77.7, 0.0, (0.1, 20)),
)
SEED = 7
# a separable and an entangled sender who play every round, over more than
# one chunk, and a cheat whom the monitor stops after her first chunk
TRANSCRIPT_SENDERS = ("honest", "entangled:aligned", "fixed:theta_a=2.5,claim=a")
TRANSCRIPT_ARGS = ("--rounds 70000 --seed 7 --rate-r 0.3 --noise 0.1 --abort-threshold 0.2 "
                   "--abort-min-checks 2000 --transcript rounds.jsonl")


def _import_package(checkout: str):
    sys.dont_write_bytecode = True
    src = os.path.join(checkout, "src")
    sys.path.insert(0, src)
    import trinegamble

    where = os.path.realpath(trinegamble.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"imported trinegamble from {where}, not from {src}")
    return trinegamble


def _hex(value) -> str:
    return float(value).hex() if isinstance(value, float) else repr(value)


def _point(point) -> str:
    r, R, noise, monitor = point
    watch = "off" if monitor is None else f"{monitor[0]}/{monitor[1]}"
    return f"r={r} R={R} noise={noise} monitor={watch}"


def _params(tg, point):
    r, R, noise, monitor = point
    threshold, min_checks = monitor or (None, 1)
    return tg.ProtocolParams(r=r, R=R, noise_lambda=noise, abort_threshold=threshold,
                             abort_min_checks=min_checks)


def simulate_records(tg, rounds: int, workers: list):
    for alice in FAMILIES:
        for bob in RECEIVERS:
            for point in POINTS:
                for w in workers:
                    config = tg.SimConfig(rounds=rounds, seed=SEED, params=_params(tg, point),
                                          alice=tg.parse_alice_spec(alice),
                                          bob=tg.parse_bob_spec(bob), workers=w)
                    fields = tg.simulate(config).to_record()
                    values = " ".join(f"{k}={_hex(v)}" for k, v in fields.items())
                    yield f"simulate {alice} bob={bob} {_point(point)} workers={w} {values}"


def exact_records(tg):
    for alice in FAMILIES:
        for point in POINTS:
            exact = tg.enumerate_exact(tg.parse_alice_spec(alice), _params(tg, point))
            where = f"exact {alice} {_point(point)}"
            yield f"{where} g_alice={_hex(exact.g_alice)}"
            for name, prob, payoff in exact.branch_table:
                yield f"{where} {name} {_hex(prob)} {_hex(payoff)}"


def readme_commands(text: str) -> list:
    """The README's example commands, continuation lines joined and
    shell loops over seq unrolled, in order."""
    commands, loop, pending = [], None, ""
    for raw in text.splitlines():
        if not raw.startswith("    "):
            loop, pending = None, ""
            continue
        line = pending + raw.strip()
        pending = ""
        if line.endswith("\\"):
            pending = line[:-1].rstrip() + " "
            continue
        seq = re.fullmatch(r"for (\w+) in \$\(seq (\d+) (\d+)\); do", line)
        if seq:
            loop = (seq.group(1), range(int(seq.group(2)), int(seq.group(3)) + 1))
        elif line == "done":
            loop = None
        elif line.startswith("trinegamble "):
            if loop is None:
                commands.append(line)
            else:
                var, values = loop
                commands.extend(line.replace(f"${var}", str(v)) for v in values)
    return commands


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_commands(checkout: str, kind: str, commands):
    """Run each ``trinegamble ...`` command in an empty directory: one
    record of its exit code and the hashes of its output and files."""
    env = {k: v for k, v in os.environ.items() if k != "TRINEGAMBLE_SEED"}
    env["PYTHONPATH"] = os.path.join(checkout, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for command in commands:
        argv = shlex.split(command)[1:]
        with tempfile.TemporaryDirectory() as workdir:
            proc = subprocess.run([sys.executable, "-m", "trinegamble", *argv], cwd=workdir,
                                  env=env, capture_output=True)
            files = []
            for name in sorted(os.listdir(workdir)):
                with open(os.path.join(workdir, name), "rb") as f:
                    files.append(f"{name}={_sha256(f.read())}")
        yield " ".join([f"{kind} {command} exit={proc.returncode}",
                        f"stdout={_sha256(proc.stdout)}", *files])


def cli_records(checkout: str):
    with open(os.path.join(checkout, "README.md"), encoding="utf-8") as f:
        return _run_commands(checkout, "cli", readme_commands(f.read()))


def transcript_records(checkout: str):
    return _run_commands(checkout, "transcript",
                         [f"trinegamble simulate --alice {alice} {TRANSCRIPT_ARGS}"
                          for alice in TRANSCRIPT_SENDERS])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--checkout", default=ROOT, help="source checkout to run")
    ap.add_argument("--rounds", type=int, default=20_000, help="rounds per simulate record")
    ap.add_argument("--workers", type=parse_seeds, default=[1, 2, 3, 4],
                    help="worker counts, e.g. 1-4 or 1,3")
    args = ap.parse_args(argv)
    checkout = os.path.abspath(args.checkout)
    tg = _import_package(checkout)
    for records in (simulate_records(tg, args.rounds, args.workers), exact_records(tg),
                    cli_records(checkout), transcript_records(checkout)):
        for record in records:
            print(record, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

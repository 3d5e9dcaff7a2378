"""Seeded output is pinned byte for byte, and no run leaks into the next.

The separable table compiles what is fixed for a run (the channel's
output, the receiver's POVM outcome cut-offs and the nine transcripts a
round can end in, per preparation) once per run and keeps it to itself,
and the CLI renders each transcript object's line once. None of that may
change a single output byte, leave anything on the sender's objects, or
let one run's values reach another run that shares the same objects.
"""

import dataclasses
import hashlib
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import trinegamble
from trinegamble import cli
from trinegamble.cli import main
from trinegamble.montecarlo import SimConfig, simulate
from trinegamble.protocol import ProtocolParams, received_state
from trinegamble.qubit import born_probabilities, depolarize, optimal_povm, trine_states
from trinegamble.strategies import (
    _HONEST_PREPS,
    BobStrategy,
    FixedStateCheat,
    HonestAlice,
    MixtureCheat,
    in_plane_state,
)

from separable_reference import prepare

# (name, argv, exit code, SHA-256 of stdout, SHA-256 of the transcript file
# or None for a run without one); recorded before the per-run memos existed
GOLDEN = [
    ("honest-noisy",
     ["simulate", "--alice", "honest", "--rounds", "3000", "--seed", "11", "--noise", "0.1"],
     0, "5620d42a23a8d8d1ea9a401bbd0af422fb14cffcf49ddb8914a0aae8dace0e4d",
     "54f89c07abb1d303392be9778317b14df94ca57d614e350bd8a032f7c287f3b2"),
    ("fixed-noisy",
     ["simulate", "--alice", "fixed:theta_a=0.7,claim=b", "--rounds", "3000", "--seed", "12",
      "--noise", "0.05", "--rate-r", "0.3"],
     0, "9ec606f7e852de08085f8242715de1dc7901bf8880cf8fcaaf7484b4d09a0372",
     "716175794e9faaebe436b4f6bc5e067e5fc2bcbed3adea0002aab6d78c01abd7"),
    ("mixture-noisy",
     ["simulate", "--alice", "mixture:0.3:a:a;0.45:1.1:c;0.25:b:b", "--rounds", "3000",
      "--seed", "13", "--noise", "0.2", "--rate-r", "0.2"],
     0, "05f8daab892e13bb8334ce7b30d60cc16dc2b2242bb924d637051107ed762080",
     "81d23e269f1b2f1eee6d7c6c5eebfcd9044de31309c6d104bffd5e64b31ed3ee"),
    ("monitor-trips",
     ["simulate", "--alice", "fixed:theta_a=2.5,claim=c", "--rounds", "3000", "--seed", "14",
      "--noise", "0.1", "--rate-r", "0.5", "--abort-threshold", "0.25",
      "--abort-min-checks", "20"],
     3, "80fa8bd2fd06de4187b35eecf0925279531214435c002ce82e1e4f3a351b437d",
     "194468b65a8c6de14f218f7acf942234923828adb1867be37e78d97b33bbddcd"),
    ("monitor-holds",
     ["simulate", "--alice", "honest", "--rounds", "3000", "--seed", "15", "--noise", "0.1",
      "--rate-r", "0.5", "--abort-threshold", "0.3", "--abort-min-checks", "20"],
     0, "715dc18d82a550395ffc172f9d4d72bd686525c01d97a4d32246936d9c947899",
     "62fe0690e76129d2d83351cd2c89ca30c8f203404738b9a9c289ad89db46fc90"),
    ("blind-noisy",
     ["simulate", "--alice", "honest", "--bob", "random", "--rounds", "3000", "--seed", "16",
      "--noise", "0.15", "--rate-r", "0.2"],
     0, "c15036155b6f713f0ed2997f746bdff9098e8facede5d0717580448fc5d182d5",
     "c318e952c7979298444edaa022cd76197f9bd8a1fec2e84796a9c1e3c4d19e02"),
    ("entangled-aligned",
     ["simulate", "--alice", "entangled:aligned", "--rounds", "3000", "--seed", "17",
      "--rate-r", "0.2"],
     0, "81c5037a41a506cff20965eff62fb58fea1d3c85de2f9f5bfdaaaf72c47a9664",
     "8d86d0eb928efe788d0b25fe2cb7fc610f013ddfed2054fe188b0318902cf8df"),
    ("entangled-table",
     ["simulate", "--alice", "entangled:aligned", "--rounds", "3000", "--seed", "17",
      "--rate-r", "0.2"],
     0, "81c5037a41a506cff20965eff62fb58fea1d3c85de2f9f5bfdaaaf72c47a9664", None),
    ("sweep-theta",
     ["sweep-theta", "--theta-list", "0.5,2.0", "--rounds", "2000", "--seed", "19",
      "--rate-r", "0.1", "--penalty-R", "150"],
     0, "0b50d81cc90d06271a569d377e07f9b401a5e9083f1640f29fdc127870f42df7", None),
    ("honest-clean",
     ["simulate", "--alice", "honest", "--rounds", "3000", "--seed", "18", "--rate-r", "0.2",
      "--format", "jsonl"],
     0, "78c592cd0141e7b13f23364fcc7c130cf99d002b252c54566a06eccbfc211d43",
     "cb0cd5d11ae9208d1aedd5bf9fb136a3c59dd340a4af0ada3a9405c54bdeef83"),
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name, argv, code, stdout_hash, transcript_hash", GOLDEN,
                         ids=[g[0] for g in GOLDEN])
def test_seeded_cli_output_is_pinned(tmp_path, capsys, name, argv, code, stdout_hash,
                                     transcript_hash):
    path = tmp_path / "rounds.jsonl"
    if transcript_hash is not None:
        argv = argv + ["--transcript", str(path)]
    assert main(argv) == code
    assert _sha256(capsys.readouterr().out.encode()) == stdout_hash
    if transcript_hash is not None:
        assert _sha256(path.read_bytes()) == transcript_hash


# ---------------------------------------------------------------------------
# no run leaks into the next


NOISES = (0.05, 0.2)
POINTS = ((0.3, 50.0), (0.1, 120.0))  # (r, R)
ROUNDS = 4_000
TESTS = Path(__file__).resolve().parent


def _sender(name):
    if name == "honest":
        return HonestAlice()
    theta, claim = {"fixed-a": (0.4, "a"), "fixed-b": (2.2, "b")}[name]
    return FixedStateCheat.from_angle(theta, claim)


def _simulate(alice, point, noise, seed):
    r, R = point
    params = ProtocolParams(r=r, R=R, noise_lambda=noise)
    return simulate(SimConfig(rounds=ROUNDS, seed=seed, params=params, alice=alice,
                              bob=BobStrategy.honest_optimal()))


def _fresh_result(name, point, noise, seed) -> str:
    """repr of the SimResult that a new interpreter computes for one run."""
    # this module and the package under test, wherever they were imported from
    paths = [str(TESTS), str(Path(trinegamble.__file__).resolve().parents[1])]
    script = (f"import sys; sys.path[:0] = {paths!r}\n"
              "import test_reproducibility as t\n"
              f"print(repr(t._simulate(t._sender({name!r}), {point!r}, {noise!r}, {seed!r})))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, check=True)
    return proc.stdout.strip()


def test_runs_sharing_state_objects_equal_fresh_runs():
    # one set of sender objects, so every memo one run leaves on them is
    # there when the next run starts (the honest sender's preparations are
    # module-level, shared by every HonestAlice): both (r, R) points and
    # both noise levels, in both orders. Each noise level plays both points
    # back to back, so leaves kept for the noise level alone would pay the
    # other point's penalty on an accusation.
    names = ("honest", "fixed-a", "fixed-b")
    alice = {name: _sender(name) for name in names}
    assert {prepare(alice["honest"], np.random.default_rng(i)) for i in range(20)} == set(
        _HONEST_PREPS)
    cases = [(name, point, noise) for name in names for noise in NOISES for point in POINTS]
    seeds = {case: 40 + i for i, case in enumerate(cases)}
    seen = {case: [] for case in cases}
    for order in (cases, cases[::-1]):
        for case in order:
            name, point, noise = case
            seen[case].append(repr(_simulate(alice[name], point, noise, seeds[case])))
    # a new interpreter per fresh run, two at a time
    with ThreadPoolExecutor(2) as pool:
        fresh = dict(zip(cases, pool.map(lambda case: _fresh_result(*case, seeds[case]), cases)))
    for case, results in seen.items():
        assert results[0] == results[1] == fresh[case]


# ---------------------------------------------------------------------------
# nothing is left on the objects a run reads


def _built_fields(obj) -> set:
    return {f.name for f in dataclasses.fields(obj)}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("noise", [0.0, 0.1])
def test_a_run_leaves_nothing_on_preparations_or_wires(workers, noise):
    senders = [HonestAlice(), FixedStateCheat.from_angle(1.3, "c"),
               MixtureCheat(((0.4, trine_states()["a"], "a"), (0.6, in_plane_state(1.1), "c")))]
    params = ProtocolParams(r=0.3, R=50.0, noise_lambda=noise)
    for alice in senders:
        for bob in (BobStrategy.honest_optimal(), BobStrategy.random_guess()):
            simulate(SimConfig(rounds=2_000, seed=5, params=params, alice=alice, bob=bob,
                               workers=workers))
        for _, prep in alice.preparations:
            assert set(vars(prep)) == _built_fields(prep)
            assert set(vars(prep.wire)) == _built_fields(prep.wire)
    # the channel's output is a fresh value on every call, and bad input
    # still raises
    wire = senders[1].state
    assert received_state(wire, 0.0) is wire
    rho = received_state(wire, 0.1)
    assert rho is not received_state(wire, 0.1)
    assert np.array_equal(rho.matrix, depolarize(wire.density(), 0.1).matrix)
    assert set(vars(wire)) == _built_fields(wire)
    with pytest.raises(ValueError):
        received_state(wire, 1.5)
    with pytest.raises(TypeError):
        born_probabilities("a", optimal_povm())


# (sender spec, distinct transcripts bound): a separable round ends in one of
# 9 leaves per preparation, an entangled one in one of her table's 18 branches
LEAF_BOUNDS = [
    ("honest", 3 * 9),
    ("fixed:theta_a=2.2,claim=b", 9),
    ("mixture:0.5:a:a;0.5:1.1:c", 2 * 9),
    ("entangled:aligned", 18),
]


@pytest.mark.parametrize("spec, bound", LEAF_BOUNDS, ids=[b[0] for b in LEAF_BOUNDS])
def test_a_run_hands_out_one_object_per_leaf_and_renders_each_once(tmp_path, monkeypatch,
                                                                   spec, bound):
    handed, rendered = [], []
    real_simulate, real_line = cli.simulate, cli.transcript_line

    def simulate_watched(config, transcript_sink=None):
        def sink(chunk):
            handed.extend(chunk)
            transcript_sink(chunk)
        return real_simulate(config, transcript_sink=sink)

    def line(t):
        rendered.append(t)
        return real_line(t)

    monkeypatch.setattr(cli, "simulate", simulate_watched)
    monkeypatch.setattr(cli, "transcript_line", line)
    path = tmp_path / "rounds.jsonl"
    assert main(["simulate", "--alice", spec, "--rounds", "6000", "--seed", "21",
                 "--noise", "0.1", "--rate-r", "0.5", "--transcript", str(path)]) == 0
    objects = {id(t): t for t in handed}
    # one object per leaf: equal transcripts are the same object
    assert len(objects) == len(set(handed)) <= bound
    assert len(rendered) == len(objects) == len({id(t) for t in rendered})
    assert path.read_text().splitlines() == [real_line(t) for t in handed]

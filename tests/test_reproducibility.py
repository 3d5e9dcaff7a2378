"""Seeded output is pinned byte for byte, and no run leaks into the next.

The scalar loop keeps values that are fixed for a run on the immutable
state objects (the channel's output, the receiver's POVM probabilities)
and the CLI renders each distinct transcript line once. None of that may
change a single output byte, nor let one run's values reach another run
that shares the same state objects.
"""

import hashlib
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import trinegamble
from trinegamble.cli import main
from trinegamble.montecarlo import SimConfig, simulate
from trinegamble.protocol import ProtocolParams, received_state
from trinegamble.qubit import (
    LABELS,
    DensityOperator,
    Povm,
    born_probabilities,
    cached_born_probabilities,
    depolarize,
    optimal_povm,
    trine_states,
)
from trinegamble.strategies import BobStrategy, FixedStateCheat, HonestAlice

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
ROUNDS = 4_000
TESTS = Path(__file__).resolve().parent


def _sender(name):
    if name == "honest":
        return HonestAlice()
    theta, claim = {"fixed-a": (0.4, "a"), "fixed-b": (2.2, "b")}[name]
    return FixedStateCheat.from_angle(theta, claim)


def _simulate(alice, noise, seed):
    params = ProtocolParams(r=0.3, R=50.0, noise_lambda=noise)
    return simulate(SimConfig(rounds=ROUNDS, seed=seed, params=params, alice=alice,
                              bob=BobStrategy.honest_optimal()))


def _fresh_result(name, noise, seed) -> str:
    """repr of the SimResult that a new interpreter computes for one run."""
    # this module and the package under test, wherever they were imported from
    paths = [str(TESTS), str(Path(trinegamble.__file__).resolve().parents[1])]
    script = (f"import sys; sys.path[:0] = {paths!r}\n"
              "import test_reproducibility as t\n"
              f"print(repr(t._simulate(t._sender({name!r}), {noise!r}, {seed!r})))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, check=True)
    return proc.stdout.strip()


def test_runs_sharing_state_objects_equal_fresh_runs():
    # one set of sender objects, so every memo one run leaves on them is
    # there when the next run starts: both noise levels, in both orders
    names = ("honest", "fixed-a", "fixed-b")
    alice = {name: _sender(name) for name in names}
    cases = [(name, noise) for name in names for noise in NOISES]
    seeds = {case: 40 + i for i, case in enumerate(cases)}
    seen = {case: [] for case in cases}
    for order in (cases, cases[::-1]):
        for name, noise in order:
            seen[name, noise].append(repr(_simulate(alice[name], noise, seeds[name, noise])))
    for (name, noise), results in seen.items():
        assert results[0] == results[1] == _fresh_result(name, noise, seeds[name, noise])


# ---------------------------------------------------------------------------
# the memos themselves


def test_received_state_is_built_once_per_state_and_strength():
    state = FixedStateCheat.from_angle(1.3, "c").state
    assert received_state(state, 0.0) is state
    first = received_state(state, 0.1)
    assert received_state(state, 0.1) is first
    other = received_state(state, 0.3)
    assert other is not first
    for lam, rho in ((0.1, first), (0.3, other), (0.1, received_state(state, 0.1))):
        assert isinstance(rho, DensityOperator)
        assert np.array_equal(rho.matrix, depolarize(state.density(), lam).matrix)
    with pytest.raises(ValueError):
        received_state(state, 1.5)


def test_cached_born_probabilities_follow_the_povm():
    povm = optimal_povm()
    flipped = Povm(tuple(reversed(povm.elements)), LABELS)
    for state in (*trine_states().values(), depolarize(trine_states()["b"].density(), 0.2),
                  FixedStateCheat.from_angle(0.9, "a").state):
        for p in (povm, flipped, povm):
            assert cached_born_probabilities(state, p) == born_probabilities(state, p)
        assert cached_born_probabilities(state, povm) is cached_born_probabilities(state, povm)
    with pytest.raises(TypeError):
        cached_born_probabilities("a", povm)


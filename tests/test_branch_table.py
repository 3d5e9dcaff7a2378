"""The branch-table engine against the scalar loop: same rows, same tuple.

An entangled sender compiled into its branch table must return exactly
the totals that playing each round through run_round returns, bit for
bit, for every receiver, checking rate, seed, offset and length; and it
must fail where the scalar round fails.
"""

import math

import numpy as np
import pytest

from trinegamble import montecarlo
from trinegamble.montecarlo import (
    _CHUNK,
    _NORMAL,
    SimConfig,
    _block_sums,
    _entangled_table,
    _result_from_sums,
    _scalar_sums,
    _table_branches,
    _table_sums,
    simulate,
)
from trinegamble.protocol import CheckResult, ProtocolParams, RoundKind
from trinegamble.qubit import LABELS, Povm, PureState, TwoQubitState, trine_states, uniform_label
from trinegamble.strategies import (
    BobStrategy,
    EntangledAlice,
    FixedStateCheat,
    aligned_pair,
    in_plane_state,
    random_entangled_policy,
    singlet_mirror,
)

from conftest import closed_form_attack

TRINE = trine_states()
BOBS = {"honest": BobStrategy.honest_optimal(), "blind": BobStrategy.random_guess()}
# the showcase point, one whose payoffs are not whole numbers, so that the
# order in which they are added shows in the sums, and one with no checking
# rounds at all
PARAMS = {
    0.0: ProtocolParams(r=0.0, R=398.0),
    0.05: ProtocolParams(r=0.05, R=398.0),
    0.5: ProtocolParams(r=0.5, R=77.7, p=0.7, lose_payout=0.7 / 0.3),
}
BIG_SEED = 2 ** 63 + 2 ** 40 + 29


def _blank_first_outcome():
    """Product state whose kept |0> is orthogonal to every basis[g][0]: the
    sender's outcome is always 1 and draws no uniform, so the check reads
    column 2; the sent state fails the check on "a" with 0 < p < 1."""
    kept = PureState(1.0, 0.0)
    psi = TwoQubitState.from_product(kept, in_plane_state(1.0))
    basis = {g: (kept.orthogonal(), kept) for g in LABELS}
    return EntangledAlice(psi, basis, {(g, j): "a" for g in LABELS for j in (0, 1)})


SENDERS = {
    "aligned": aligned_pair(),
    "singlet": singlet_mirror(),
    "attack": closed_form_attack(),
    "blank-first-outcome": _blank_first_outcome(),
    **{f"random:{i}": random_entangled_policy(np.random.default_rng(i)) for i in range(7)},
}


def test_the_blank_outcome_sender_exercises_the_shifted_check():
    table = _entangled_table(SENDERS["blank-first-outcome"], BOBS["honest"], PARAMS[0.5])
    assert np.all(table.p0_local == 0.0) and np.all(table.p0_normal == 0.0)
    reached = table.p_fail[1::2]  # the checks on outcome 1, the only one drawn
    assert np.all((0.0 < reached) & (reached < 1.0))


def _both(alice, bob, params, seed, start, count):
    table = _table_sums(_entangled_table(alice, bob, params), seed, start, count)
    scalar = _scalar_sums(alice, bob, params, seed, start, count)
    return table, scalar


@pytest.mark.parametrize("r", sorted(PARAMS))
@pytest.mark.parametrize("bob", sorted(BOBS))
@pytest.mark.parametrize("sender", sorted(SENDERS))
def test_table_matches_the_scalar_loop_bit_for_bit(sender, bob, r):
    for seed, start, count in ((BIG_SEED, 0, 3), (BIG_SEED, 77, 3), (5, 77, 1_500)):
        table, scalar = _both(SENDERS[sender], BOBS[bob], PARAMS[r], seed, start, count)
        assert table == scalar


@pytest.mark.parametrize("sender, bob, r", [
    ("blank-first-outcome", "honest", 0.5),
    ("blank-first-outcome", "blind", 0.05),
    ("attack", "honest", 0.05),
    ("random:0", "blind", 0.5),
])
def test_table_matches_the_scalar_loop_over_several_chunks(sender, bob, r):
    count = 70_000
    assert count > _CHUNK
    table, scalar = _both(SENDERS[sender], BOBS[bob], PARAMS[r], BIG_SEED, 77, count)
    assert table == scalar
    assert table[0] == count and table[5] > 0


def test_split_runs_match_the_scalar_split():
    # the pool's workers play their blocks from the table too; the totals
    # equal the scalar loop's blocks merged in the same order
    params = PARAMS[0.5]
    for name in ("attack", "random:3"):
        alice = SENDERS[name]
        config = SimConfig(rounds=9_001, seed=BIG_SEED, params=params, alice=alice,
                           bob=BOBS["honest"], workers=2)
        halves = [_scalar_sums(alice, BOBS["honest"], params, BIG_SEED, 0, 4_501),
                  _scalar_sums(alice, BOBS["honest"], params, BIG_SEED, 4_501, 4_500)]
        totals = [a + b for a, b in zip(*halves)]
        assert simulate(config) == _result_from_sums(*totals)


# ---------------------------------------------------------------------------
# row by row: the branch each row plays is the one its scalar round names


def _telling(alice):
    """alice with claims that tell her two outcomes apart, so that a round's
    transcript names its branch."""
    claims = {(g, j): LABELS[(i + j) % 3] for i, g in enumerate(LABELS) for j in (0, 1)}
    return EntangledAlice(alice.psi, alice.basis_policy, claims)


def _transcript_branch(alice, t):
    g = LABELS.index(t.guess)
    j = [alice.claim_policy[(t.guess, k)] for k in (0, 1)].index(t.verdict.claimed)
    if t.kind is RoundKind.NORMAL:
        return 2 * g + j
    return _NORMAL + 2 * (2 * g + j) + (t.check is CheckResult.ACCUSE)


def _rows_match(alice, bob, params, seed, start, count):
    played = []
    _scalar_sums(alice, bob, params, seed, start, count, sink=played.append)
    branch = _table_branches(_entangled_table(alice, bob, params),
                             montecarlo._round_rows(seed, start, count))
    assert branch.tolist() == [_transcript_branch(alice, t) for t in played]
    return branch


ROW_SENDERS = ("aligned", "singlet", "blank-first-outcome", "random:0", "random:1", "random:2")


@pytest.mark.parametrize("r", sorted(PARAMS))
@pytest.mark.parametrize("bob", sorted(BOBS))
@pytest.mark.parametrize("sender", ROW_SENDERS)
def test_each_row_plays_the_branch_its_scalar_round_names(sender, bob, r):
    branch = _rows_match(_telling(SENDERS[sender]), BOBS[bob], PARAMS[r], 5, 77, 3_000)
    checking = branch >= _NORMAL
    if r == 0.0:
        assert not checking.any()  # the gathered set of checking rows is empty
    else:
        assert checking.any() and not checking.all()


@pytest.mark.parametrize("bob", sorted(BOBS))
@pytest.mark.parametrize("sender", ROW_SENDERS)
def test_an_all_checking_chunk_matches_row_by_row(monkeypatch, sender, bob):
    real = montecarlo._round_rows

    def all_checking(seed, start, count):
        u = real(seed, start, count)
        u[:, 0] = 0.0
        return u

    monkeypatch.setattr(montecarlo, "_round_rows", all_checking)
    alice, params = _telling(SENDERS[sender]), PARAMS[0.05]
    branch = _rows_match(alice, BOBS[bob], params, BIG_SEED, 77, 3_000)
    assert (branch >= _NORMAL).all()
    table, scalar = _both(alice, BOBS[bob], params, BIG_SEED, 77, 3_000)
    assert table == scalar and table[5] == 3_000


# ---------------------------------------------------------------------------
# which runs take the table


class _OwnAdjudicate(EntangledAlice):
    def adjudicate(self, prep, guess, alice_system, rng):
        return super().adjudicate(prep, guess, alice_system, rng)


def test_only_plain_entangled_runs_take_the_table(monkeypatch):
    calls = []
    real = montecarlo._table_sums
    monkeypatch.setattr(montecarlo, "_table_sums", lambda *args: calls.append(1) or real(*args))
    alice = SENDERS["aligned"]
    plain = ProtocolParams(r=0.5, R=398.0)
    bob = BOBS["honest"]
    _block_sums(alice, bob, plain, 1, 0, 10)
    _block_sums(alice, BOBS["blind"], plain, 1, 0, 10)
    assert len(calls) == 2
    monitored = ProtocolParams(r=0.5, R=398.0, abort_threshold=0.9)
    subclass = _OwnAdjudicate(alice.psi, alice.basis_policy, alice.claim_policy)
    _block_sums(alice, bob, plain, 1, 0, 10, sink=lambda t: None)
    _block_sums(alice, bob, monitored, 1, 0, 10)
    _block_sums(subclass, bob, plain, 1, 0, 10)
    _block_sums(FixedStateCheat.from_angle(1.0, "a"), bob, plain, 1, 0, 10)
    with pytest.raises(ValueError, match="noise"):
        _block_sums(alice, bob, ProtocolParams(r=0.5, R=398.0, noise_lambda=0.1), 1, 0, 10)
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# the table fails where the scalar round fails


def _rows_of(row):
    def round_rows(seed, start, count):
        return np.tile(np.array(row, dtype=float), (count, 1))
    return round_rows


def _same_failure(monkeypatch, alice, bob, params, row):
    monkeypatch.setattr(montecarlo, "_round_rows", _rows_of(row))
    table = _entangled_table(alice, bob, params)
    errors = []
    for play in (lambda: _table_sums(table, 1, 0, 5),
                 lambda: _scalar_sums(alice, bob, params, 1, 0, 5)):
        with pytest.raises((AssertionError, ValueError)) as info:
            play()
        errors.append((info.type, str(info.value)))
    assert errors[0] == errors[1]
    return errors[0]


def test_a_sampled_zero_norm_measurement_branch_raises(monkeypatch):
    # the sender's first outcome has probability about 1e-14: a uniform of 0 hits it
    kept = PureState(1.0, 0.0)
    u = PureState.from_unnormalized(1e-7, 1.0)
    alice = EntangledAlice(TwoQubitState.from_product(kept, TRINE["b"]),
                           {g: (u, u.orthogonal()) for g in LABELS},
                           {(g, j): g for g in LABELS for j in (0, 1)})
    kind, message = _same_failure(monkeypatch, alice, BOBS["honest"],
                                  ProtocolParams(r=0.5, R=398.0), [0.0] * 8)
    assert kind is AssertionError and "zero-probability measurement" in message


def test_a_sampled_zero_norm_povm_branch_raises(monkeypatch):
    # the sent qubit is all but orthogonal to trine a: outcome a has
    # probability about 1e-14, and a uniform of 0 in a normal round hits it
    sent = in_plane_state(math.pi - 2e-7)
    alice = EntangledAlice(TwoQubitState.from_product(PureState(1.0, 0.0), sent),
                           {g: (TRINE[g], TRINE[g].orthogonal()) for g in LABELS},
                           {(g, j): g for g in LABELS for j in (0, 1)})
    kind, message = _same_failure(monkeypatch, alice, BOBS["honest"],
                                  ProtocolParams(r=0.5, R=398.0), [0.9] + [0.0] * 7)
    assert kind is AssertionError and "zero-probability POVM" in message


class _SlackBob:
    """A receiver whose POVM weights overshoot the identity by just under
    the tolerance, as a BobStrategy's duck type."""

    def __init__(self):
        w = (2.0 / 3.0) * (1.0 + 0.9e-9)
        self.povm = Povm.from_pure_states(tuple((w, TRINE[lab]) for lab in LABELS), LABELS)

    def measurement_povm(self):
        return self.povm

    def blind_guess(self, rng):
        return uniform_label(rng)


def test_povm_probabilities_off_their_sum_raise_in_normal_rounds(monkeypatch):
    psi = TwoQubitState(math.sqrt(1.0 + 0.9e-9), 0.0, 0.0, 0.0)
    alice = EntangledAlice(psi, {g: (TRINE[g], TRINE[g].orthogonal()) for g in LABELS},
                           {(g, j): g for g in LABELS for j in (0, 1)})
    params = ProtocolParams(r=0.5, R=398.0)
    kind, message = _same_failure(monkeypatch, alice, _SlackBob(), params, [0.9] + [0.5] * 7)
    assert kind is ValueError and "sum to 1" in message
    # checking rounds never sample the receiver's POVM, on either path
    monkeypatch.setattr(montecarlo, "_round_rows", _rows_of([0.1] + [0.5] * 7))
    table = _table_sums(_entangled_table(alice, _SlackBob(), params), 1, 0, 5)
    assert table == _scalar_sums(alice, _SlackBob(), params, 1, 0, 5)

"""The branch-table engine against the scalar reference round: same rows,
same result, same transcripts, same trip row.

An entangled sender plays only from her compiled branch table. The
reference (entangled_reference.run_round) plays her one uniform at a time,
through conftest.play_reference. For every receiver, checking rate, seed,
offset and length, the engine must hand on the same transcripts as the
reference, and its result, worked out from its row counts, must equal the
one recomputed from the reference's transcripts, bit for bit; both must
trip the abort monitor on the same row, and fail where the other fails.
"""

import dataclasses
import functools
import math

import numpy as np
import pytest

from trinegamble import montecarlo, verify
from trinegamble.montecarlo import (
    _CHUNK,
    _NORMAL,
    SimConfig,
    _block_counts,
    _entangled_table,
    _result,
    _table_branches,
    simulate,
)
from trinegamble.protocol import (
    CheckResult,
    ProtocolParams,
    RoundKind,
    transcript_line,
)
from trinegamble.qubit import LABELS, Povm, PureState, TwoQubitState, trine_states
from trinegamble.strategies import (
    BobStrategy,
    EntangledAlice,
    FixedStateCheat,
    aligned_pair,
    in_plane_state,
    random_entangled_policy,
    singlet_mirror,
)
from trinegamble.verify import check_table_rows

import entangled_reference
from conftest import (
    closed_form_attack,
    play_engine,
    play_reference,
    reference_result,
    words_of,
)

TRINE = trine_states()
BOBS = {"honest": BobStrategy.honest_optimal(), "blind": BobStrategy.random_guess()}
# the showcase point, one whose penalty is not a whole number, so that only
# exactly rounded totals match the reference's, and one with no checking
# rounds at all
PARAMS = {
    0.0: ProtocolParams(r=0.0, R=398.0),
    0.05: ProtocolParams(r=0.05, R=398.0),
    0.5: ProtocolParams(r=0.5, R=77.7),
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
    assert np.all(table.p0_local == 0) and np.all(table.p0_normal == 0)
    reached = table.p_fail[1::2]  # the checks on outcome 1, the only one drawn
    assert np.all((0 < reached) & (reached < 2 ** 53))


def _reference_run(alice, bob, params, seed, start, count, played):
    """The reference's result for the rounds it played into played."""
    play = functools.partial(entangled_reference.run_round, alice, bob, params)
    aborted = play_reference(play, params, seed, start, count, played)
    return reference_result(played, aborted)


@pytest.fixture
def reference():
    """Play entangled senders one round at a time through the reference
    round: the result recomputed from its transcripts, and those."""

    def run(alice, bob, params, seed, start, count):
        played = []
        return _reference_run(alice, bob, params, seed, start, count, played), played

    return run


def _unwatched(alice, bob, params, seed, start, count):
    """The engine's result with no sink, which skips transcripts."""
    table = _entangled_table(alice, bob, params)
    return _result(table, *_block_counts(table, params, seed, start, count))


def _play(play, alice, bob, params, seed, start, count):
    """A run's result and the transcript lines it wrote."""
    result, played = play(alice, bob, params, seed, start, count)
    rendered = {t: transcript_line(t) for t in set(played)}
    return result, [rendered[t] for t in played]


def _monitored(params, threshold, min_checks):
    return dataclasses.replace(params, abort_threshold=threshold, abort_min_checks=min_checks)


@pytest.mark.parametrize("r", sorted(PARAMS))
@pytest.mark.parametrize("bob", sorted(BOBS))
@pytest.mark.parametrize("sender", sorted(SENDERS))
def test_table_matches_the_scalar_loop_bit_for_bit(reference, sender, bob, r):
    alice, bob, params = SENDERS[sender], BOBS[bob], PARAMS[r]
    for seed, start, count in ((BIG_SEED, 0, 3), (BIG_SEED, 77, 3), (5, 77, 1_500)):
        table = _play(play_engine, alice, bob, params, seed, start, count)
        assert table == _play(reference, alice, bob, params, seed, start, count)
        assert len(table[1]) == count
        # the unwatched chunk loop, which skips transcripts, gives the same result
        assert _unwatched(alice, bob, params, seed, start, count) == table[0]


@pytest.mark.parametrize("r", sorted(PARAMS))
@pytest.mark.parametrize("bob", sorted(BOBS))
@pytest.mark.parametrize("sender", sorted(SENDERS))
def test_the_monitor_trips_on_the_same_row(reference, sender, bob, r):
    alice, bob, plain = SENDERS[sender], BOBS[bob], PARAMS[r]
    _, lines = _play(play_engine, alice, bob, plain, 5, 77, 1_500)
    accused = [i for i, line in enumerate(lines) if '"check":"accuse"' in line]
    exact = {name: p for name, p, _ in _entangled_table(alice, bob, plain).exact_rows}
    rate = math.fsum(p for name, p in exact.items() if name.endswith("accuse")) / r if r else 0.0
    for threshold, min_checks in ((0.0, 1), (rate, 10), (1.0, 1)):
        params = _monitored(plain, threshold, min_checks)
        table = _play(play_engine, alice, bob, params, 5, 77, 1_500)
        assert table == _play(reference, alice, bob, params, 5, 77, 1_500)
        result, played = table
        assert result.rounds == len(played) and played == lines[:len(played)]
        if threshold == 0.0:
            # trips on the first accusation, or never
            assert result.aborted == bool(accused)
            assert result.rounds == (accused[0] + 1 if accused else 1_500)
        if threshold == 1.0:
            assert not result.aborted and result.rounds == 1_500


@pytest.mark.parametrize("sender, bob", [("aligned", "honest"), ("attack", "blind")])
def test_the_monitor_trips_past_the_first_chunk(reference, sender, bob):
    # no trip before 35k checks, about 70k rows in at r = 0.5
    params = _monitored(PARAMS[0.5], 0.0, 35_000)
    count = 3 * _CHUNK
    table = _play(play_engine, SENDERS[sender], BOBS[bob], params, BIG_SEED, 77, count)
    assert table == _play(reference, SENDERS[sender], BOBS[bob], params, BIG_SEED, 77, count)
    result, lines = table
    assert result.aborted and result.check_count == 35_000
    assert _CHUNK < result.rounds == len(lines) < count
    assert '"kind":"checking"' in lines[-1]


@pytest.mark.parametrize("sender, bob, r", [
    ("blank-first-outcome", "honest", 0.5),
    ("blank-first-outcome", "blind", 0.05),
    ("attack", "honest", 0.05),
    ("random:0", "blind", 0.5),
])
def test_table_matches_the_scalar_loop_over_several_chunks(reference, sender, bob, r):
    count = 70_000
    assert count > _CHUNK
    alice, bob = SENDERS[sender], BOBS[bob]
    table = _unwatched(alice, bob, PARAMS[r], BIG_SEED, 77, count)
    assert table == reference(alice, bob, PARAMS[r], BIG_SEED, 77, count)[0]
    assert table.rounds == count and table.check_count > 0
    # a monitor that holds watches every chunk and changes nothing
    held = _play(play_engine, alice, bob, _monitored(PARAMS[r], 1.0, 1), BIG_SEED, 77, count)
    assert held[0] == table and len(held[1]) == count


def test_split_runs_match_the_scalar_split(reference):
    # the threads play their blocks from the one table too; the result
    # equals the one recomputed from the reference's blocks, joined in order
    params = PARAMS[0.5]
    for name in ("attack", "random:3"):
        alice = SENDERS[name]
        config = SimConfig(rounds=9_001, seed=BIG_SEED, params=params, alice=alice,
                           bob=BOBS["honest"], workers=2)
        halves = [reference(alice, BOBS["honest"], params, BIG_SEED, 0, 4_501)[1],
                  reference(alice, BOBS["honest"], params, BIG_SEED, 4_501, 4_500)[1]]
        assert simulate(config) == reference_result(halves[0] + halves[1], False)


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


def _rows_match(reference, alice, bob, params, seed, start, count):
    _, played = reference(alice, bob, params, seed, start, count)
    branch = _table_branches(_entangled_table(alice, bob, params),
                             montecarlo._round_words(seed, start, count))
    assert branch.tolist() == [_transcript_branch(alice, t) for t in played]
    return branch


ROW_SENDERS = ("aligned", "singlet", "blank-first-outcome", "random:0", "random:1", "random:2")


@pytest.mark.parametrize("r", sorted(PARAMS))
@pytest.mark.parametrize("bob", sorted(BOBS))
@pytest.mark.parametrize("sender", ROW_SENDERS)
def test_each_row_plays_the_branch_its_scalar_round_names(reference, sender, bob, r):
    branch = _rows_match(reference, _telling(SENDERS[sender]), BOBS[bob], PARAMS[r], 5, 77, 3_000)
    checking = branch >= _NORMAL
    if r == 0.0:
        assert not checking.any()  # the gathered set of checking rows is empty
    else:
        assert checking.any() and not checking.all()


@pytest.mark.parametrize("bob", sorted(BOBS))
@pytest.mark.parametrize("sender", ROW_SENDERS)
def test_an_all_checking_chunk_matches_row_by_row(monkeypatch, reference, sender, bob):
    real = montecarlo._round_words

    def all_checking(seed, start, count):
        w = real(seed, start, count)
        w[:, 0] = 0  # the word of the uniform 0.0
        return w

    monkeypatch.setattr(montecarlo, "_round_words", all_checking)
    alice, params = _telling(SENDERS[sender]), PARAMS[0.05]
    branch = _rows_match(reference, alice, BOBS[bob], params, BIG_SEED, 77, 3_000)
    assert (branch >= _NORMAL).all()
    table = _unwatched(alice, BOBS[bob], params, BIG_SEED, 77, 3_000)
    assert table == reference(alice, BOBS[bob], params, BIG_SEED, 77, 3_000)[0]
    assert table.check_count == 3_000


# ---------------------------------------------------------------------------
# which runs take the table


class _Subclass(EntangledAlice):
    """A subclass adds nothing an entangled round could call."""


def test_every_entangled_run_takes_the_table(monkeypatch):
    calls = []
    real = montecarlo._table_branches
    monkeypatch.setattr(montecarlo, "_table_branches",
                        lambda *args: calls.append(1) or real(*args))
    alice = SENDERS["aligned"]
    plain = ProtocolParams(r=0.5, R=398.0)
    bob = BOBS["honest"]
    play_engine(alice, bob, plain, 1, 0, 10)
    play_engine(alice, BOBS["blind"], plain, 1, 0, 10)
    _unwatched(alice, bob, plain, 1, 0, 10)
    play_engine(alice, bob, ProtocolParams(r=0.5, R=398.0, abort_threshold=0.9), 1, 0, 10)
    play_engine(alice, bob, ProtocolParams(r=0.5, R=398.0, noise_lambda=0.1), 1, 0, 10)
    play_engine(_Subclass(alice.psi, alice.basis_policy, alice.claim_policy), bob, plain, 1, 0, 10)
    assert len(calls) == 6
    play_engine(FixedStateCheat.from_angle(1.0, "a"), bob, plain, 1, 0, 10)
    assert len(calls) == 6


# ---------------------------------------------------------------------------
# the table fails where the scalar round fails


def _rows_of(row):
    """A stand-in for _round_words whose every row holds the words of the
    uniforms in row (conftest.words_of)."""
    def round_words(seed, start, count):
        return np.tile(words_of(row), (count, 1))
    return round_words


def _same_failure(monkeypatch, reference, alice, bob, params, row):
    monkeypatch.setattr(montecarlo, "_round_words", _rows_of(row))
    errors = []
    for play in (play_engine, reference):
        with pytest.raises((AssertionError, ValueError)) as info:
            play(alice, bob, params, 1, 0, 5)
        errors.append((info.type, str(info.value)))
    assert errors[0] == errors[1]
    return errors[0]


def _zero_norm_outcome():
    """The sender's first outcome has probability about 1e-14; her second
    leaves the sent half in trine b, which fails a check on a at 3/4."""
    kept = PureState(1.0, 0.0)
    u = PureState.from_unnormalized(1e-7, 1.0)
    return EntangledAlice(TwoQubitState.from_product(kept, TRINE["b"]),
                          {g: (u, u.orthogonal()) for g in LABELS},
                          {(g, j): g for g in LABELS for j in (0, 1)})


def test_a_sampled_zero_norm_measurement_branch_raises(monkeypatch, reference):
    # a uniform of 0 hits the sender's first outcome
    kind, message = _same_failure(monkeypatch, reference, _zero_norm_outcome(), BOBS["honest"],
                                  ProtocolParams(r=0.5, R=398.0), [0.0] * 8)
    assert kind is AssertionError and "zero-probability measurement" in message


# rows for _zero_norm_outcome at r = 0.5: a normal round the receiver wins,
# a checking round on guess a that accuses, and one that hits the zero-norm
# outcome; 0.9 and 0.1 stand for the stream's uniforms just below them
ROWS = {"normal": [0.9] + [0.5] * 7, "accuse": [0.0, 0.1, 0.5, 0.1] + [0.5] * 4,
        "fault": [0.0] * 8}


def _engine_outcome(alice, params, count):
    """The engine's result, or the error it raised, and the lines it wrote first."""
    lines = []
    table = _entangled_table(alice, BOBS["honest"], params)
    try:
        got = _result(table, *_block_counts(table, params, 1, 0, count,
                                            lambda chunk: lines.extend(map(transcript_line, chunk))))
    except AssertionError as exc:
        got = (type(exc), str(exc))
    return got, lines


def _reference_outcome(alice, params, count):
    """The reference's result, or the error it raised, and the lines of the
    rounds it played first."""
    played = []
    try:
        got = _reference_run(alice, BOBS["honest"], params, 1, 0, count, played)
    except AssertionError as exc:
        got = (type(exc), str(exc))
    return got, list(map(transcript_line, played))


@pytest.mark.parametrize("order, threshold, written", [
    (("normal", "accuse", "fault"), 0.5, 2),  # the trip comes first and wins
    (("normal", "fault", "accuse"), 0.5, 1),  # the fault comes first and raises
    (("normal", "accuse", "fault"), None, 2),  # nothing watches: the fault raises
])
def test_a_fault_row_raises_unless_the_monitor_tripped_first(monkeypatch, reference, order,
                                                             threshold, written):
    table = words_of([ROWS[name] for name in order])
    monkeypatch.setattr(montecarlo, "_round_words",
                        lambda seed, start, count: table[start:start + count].copy())
    params = ProtocolParams(r=0.5, R=398.0, abort_threshold=threshold)
    alice = _zero_norm_outcome()
    got = _engine_outcome(alice, params, 3)
    assert got == _reference_outcome(alice, params, 3)
    result, lines = got
    assert len(lines) == written
    if order.index("accuse") < order.index("fault") and threshold is not None:
        assert result.rounds == 2 and result.accuse_count == 1 and result.aborted is True
    else:
        assert result == (AssertionError, "sampled a zero-probability measurement branch")


@pytest.mark.parametrize("fault_at", [3, 7])  # in the first block of two, or the second
def test_a_fault_row_raises_the_same_error_from_any_block(monkeypatch, fault_at):
    # a block's thread raises, and the caller sees what one block raises
    stream = words_of([ROWS["fault" if i == fault_at else "normal"] for i in range(10)])
    monkeypatch.setattr(montecarlo, "_round_words",
                        lambda seed, start, count: stream[start:start + count].copy())
    errors = []
    for workers in (1, 2):
        config = SimConfig(rounds=10, seed=1, params=ProtocolParams(r=0.5, R=398.0),
                           alice=_zero_norm_outcome(), bob=BOBS["honest"], workers=workers)
        with pytest.raises(AssertionError) as info:
            simulate(config)
        errors.append((info.type, str(info.value)))
    assert errors == [(AssertionError, "sampled a zero-probability measurement branch")] * 2


def test_a_sampled_zero_norm_povm_branch_raises(monkeypatch, reference):
    # the sent qubit is all but orthogonal to trine a: outcome a has
    # probability about 1e-14, and a uniform of 0 in a normal round hits it
    sent = in_plane_state(math.pi - 2e-7)
    alice = EntangledAlice(TwoQubitState.from_product(PureState(1.0, 0.0), sent),
                           {g: (TRINE[g], TRINE[g].orthogonal()) for g in LABELS},
                           {(g, j): g for g in LABELS for j in (0, 1)})
    kind, message = _same_failure(monkeypatch, reference, alice, BOBS["honest"],
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


def test_povm_probabilities_off_their_sum_raise_in_normal_rounds(monkeypatch, reference):
    psi = TwoQubitState(math.sqrt(1.0 + 0.9e-9), 0.0, 0.0, 0.0)
    alice = EntangledAlice(psi, {g: (TRINE[g], TRINE[g].orthogonal()) for g in LABELS},
                           {(g, j): g for g in LABELS for j in (0, 1)})
    params = ProtocolParams(r=0.5, R=398.0)
    kind, message = _same_failure(monkeypatch, reference, alice, _SlackBob(), params,
                                  [0.9] + [0.5] * 7)
    assert kind is ValueError and "sum to 1" in message
    # checking rounds never sample the receiver's POVM, on either path
    monkeypatch.setattr(montecarlo, "_round_words", _rows_of([0.1] + [0.5] * 7))
    table = play_engine(alice, _SlackBob(), params, 1, 0, 5)
    assert table == reference(alice, _SlackBob(), params, 1, 0, 5)


# ---------------------------------------------------------------------------
# channel noise depolarizes the sent half


# the sampler and the exact oracle read these rows, so they are checked from
# outside by verify.check_table_rows: each row's name, probability and
# payoff, and its transcript, against verify.model_rows on a noisy channel


def _check_rows_of(monkeypatch, bob, families, seed):
    """check_table_rows over 50 trials of one receiver and the sender
    families that the slice families picks from verify._random_senders."""
    senders = verify._random_senders
    monkeypatch.setattr(verify, "_random_senders", lambda rng: senders(rng)[families])
    monkeypatch.setattr(verify, "_RECEIVERS", (BOBS[bob],))
    return check_table_rows(np.random.default_rng(seed), 50)


@pytest.mark.parametrize("bob", sorted(BOBS))
def test_a_noisy_table_matches_the_density_matrix(monkeypatch, bob):
    report = _check_rows_of(monkeypatch, bob, slice(0, 1), 2026)
    assert report.passed and "0 of 50 tables" in report.detail, report.detail


@pytest.mark.parametrize("bob", sorted(BOBS))
def test_every_separable_row_matches_the_density_matrix(monkeypatch, bob):
    report = _check_rows_of(monkeypatch, bob, slice(1, None), 2027)
    assert report.passed and "0 of 150 tables" in report.detail, report.detail


def test_a_fully_depolarizing_channel_leaves_the_receiver_nothing():
    params = ProtocolParams(r=0.3, R=398.0, noise_lambda=1.0)
    for alice in (SENDERS["aligned"], SENDERS["random:4"]):
        table = _entangled_table(alice, BOBS["honest"], params)
        # each word threshold read back as the least uniform at or above its float
        bounds = np.array(table.bounds) * 2.0 ** -53
        assert np.allclose(np.diff((0.0, *bounds, 1.0)), 1.0 / 3.0, atol=1e-15)
        p0_local = table.p0_local * 2.0 ** -53
        assert np.allclose(table.p0_normal * 2.0 ** -53,
                           p0_local[[LABELS.index(g) for g in LABELS]])
        assert np.allclose(table.p_fail * 2.0 ** -53, 0.5)

"""The transcript sink's contract, on both engines: simulate hands it one
list per chunk of rounds played, in round order.

Joined, the lists are the run's rounds as a per-round reference plays
them (round_player for a separable sender, entangled_reference.run_round
for an entangled one, each through conftest.play_reference). With the
abort monitor on, the tripping round is the last item handed on. A round
that raises is not handed on, and every round before it is. The sink is
called once per chunk played, never with an empty list.

The entangled engine's chunk is cut to _SMALL_CHUNK rows here, so that
the reference plays runs of several chunks quickly.
"""

import dataclasses
import functools
import math

import numpy as np
import pytest

from trinegamble import montecarlo
from trinegamble.montecarlo import _CHUNK, _SCALAR_CHUNK, SimConfig, round_player, simulate
from trinegamble.protocol import ProtocolParams, RoundKind
from trinegamble.qubit import LABELS, PureState, TwoQubitState, trine_states
from trinegamble.strategies import (
    BobStrategy,
    EntangledAlice,
    FixedStateCheat,
    HonestAlice,
    aligned_pair,
)

import entangled_reference
from conftest import play_reference, reference_result, transcript_player

TRINE = trine_states()
HONEST_BOB = BobStrategy.honest_optimal()
_SMALL_CHUNK = 1 << 10
# (sender, the per-round reference that plays her, the engine's chunk size,
# noise); the entangled reference takes no channel noise
ENGINES = {
    "separable": (HonestAlice(), transcript_player, _SCALAR_CHUNK, 0.1),
    "entangled": (aligned_pair(), functools.partial(functools.partial,
                                                    entangled_reference.run_round),
                  _SMALL_CHUNK, 0.0),
}


@pytest.fixture(params=sorted(ENGINES))
def engine(request, monkeypatch):
    monkeypatch.setattr(montecarlo, "_CHUNK", _SMALL_CHUNK)
    return ENGINES[request.param]


def _per_round(player, alice, params, seed, count):
    """The run's transcripts played one round at a time, stopping at the
    round that trips the monitor, and the result recomputed from them."""
    played = []
    aborted = play_reference(player(alice, HONEST_BOB, params), params, seed, 0, count, played)
    return played, reference_result(played, aborted)


def _chunks(alice, params, seed, count):
    chunks = []
    result = simulate(SimConfig(rounds=count, seed=seed, params=params, alice=alice,
                                bob=HONEST_BOB), transcript_sink=chunks.append)
    return result, chunks


def test_the_chunks_join_to_the_rounds_played_one_at_a_time(engine):
    alice, player, size, noise = engine
    params = ProtocolParams(r=0.05, R=398.0, noise_lambda=noise)
    count = 2 * size + 123
    result, chunks = _chunks(alice, params, 7, count)
    assert [len(c) for c in chunks] == [size, size, 123]
    assert all(type(c) is list for c in chunks)
    joined = [t for c in chunks for t in c]
    assert (joined, result) == _per_round(player, alice, params, 7, count)
    assert result.rounds == len(joined) and not result.aborted


def test_the_tripping_round_is_the_last_item_handed_on(engine):
    alice, player, size, noise = engine
    # a monitor that may trip only once about 1.5 chunks have played, with a
    # separable sender who is accused on most checks
    if player is transcript_player:
        alice = FixedStateCheat.from_angle(2.5, "a")
    params = ProtocolParams(r=0.5, R=398.0, noise_lambda=noise, abort_threshold=0.0,
                            abort_min_checks=3 * size // 4)
    result, chunks = _chunks(alice, params, 11, 4 * size)
    assert result.aborted and len(chunks) == 2 and len(chunks[0]) == size
    joined = [t for c in chunks for t in c]
    assert (joined, result) == _per_round(player, alice, params, 11, 4 * size)
    assert result.rounds == len(joined) and size < len(joined) < 2 * size
    last = joined[-1]
    assert last.kind is RoundKind.CHECKING
    assert sum(t.kind is RoundKind.CHECKING for t in joined) == result.check_count


def _zero_norm_outcome():
    """A sender whose first outcome has probability about 1e-14: a uniform
    of 0 in a checking round hits it, and that row's branch raises."""
    u = PureState.from_unnormalized(1e-7, 1.0)
    return EntangledAlice(TwoQubitState.from_product(PureState(1.0, 0.0), TRINE["b"]),
                          {g: (u, u.orthogonal()) for g in LABELS},
                          {(g, j): g for g in LABELS for j in (0, 1)})


def test_a_faulty_entangled_row_hands_on_every_earlier_row_then_raises(monkeypatch):
    monkeypatch.setattr(montecarlo, "_CHUNK", _SMALL_CHUNK)
    fault_at = _SMALL_CHUNK + 5
    real = montecarlo._round_words

    def rows_with_a_fault(seed, start, count):
        w = real(seed, start, count)
        # no other checking row hits the zero-norm outcome: the uniform 0.5 in word 2
        w[w[:, 0] < 1 << 63, 2] = 1 << 63
        if start <= fault_at < start + count:
            w[fault_at - start] = 0  # every uniform 0.0
        return w

    monkeypatch.setattr(montecarlo, "_round_words", rows_with_a_fault)
    alice, params = _zero_norm_outcome(), ProtocolParams(r=0.5, R=398.0)
    chunks = []
    with pytest.raises(AssertionError, match="zero-probability measurement"):
        simulate(SimConfig(rounds=3 * _SMALL_CHUNK, seed=3, params=params, alice=alice,
                           bob=HONEST_BOB), transcript_sink=chunks.append)
    assert [len(c) for c in chunks] == [_SMALL_CHUNK, 5]
    played = []
    with pytest.raises(AssertionError, match="zero-probability measurement"):
        play_reference(functools.partial(entangled_reference.run_round, alice, HONEST_BOB, params),
                       params, 3, 0, 3 * _SMALL_CHUNK, played)
    assert [t for c in chunks for t in c] == played


def test_a_faulty_entangled_first_row_hands_on_nothing(monkeypatch):
    monkeypatch.setattr(montecarlo, "_round_words",
                        lambda seed, start, count: np.zeros((count, 8), dtype=np.uint64))
    chunks = []
    with pytest.raises(AssertionError):
        simulate(SimConfig(rounds=10, seed=3, params=ProtocolParams(r=0.5, R=398.0),
                           alice=_zero_norm_outcome(), bob=HONEST_BOB),
                 transcript_sink=chunks.append)
    assert chunks == []


@pytest.mark.parametrize("monitor", ["off", "trips first", "trips after"])
def test_a_separable_round_that_raises_hands_on_every_earlier_round(monkeypatch, monitor):
    alice, params = HonestAlice(), ProtocolParams(r=0.05, R=398.0)
    fault_at = _SCALAR_CHUNK + 5
    if monitor != "off":
        # a monitor that trips in the second chunk, the raising round three
        # rounds after the tripping one or three before it
        alice = FixedStateCheat.from_angle(2.5, "a")
        params = ProtocolParams(r=0.5, R=398.0, abort_threshold=0.0,
                                abort_min_checks=3 * _SCALAR_CHUNK // 4)
        trip = len(_per_round(transcript_player, alice, params, 5, 3 * _SCALAR_CHUNK)[0]) - 1
        fault_at = trip + 3 if monitor == "trips first" else trip - 3

    def failing_player(alice, table, params):
        play = round_player(alice, table, params)
        seen = []

        def failing(rng):
            if len(seen) == fault_at:
                raise RuntimeError("round failed")
            seen.append(play(rng))
            return seen[-1]

        return failing

    monkeypatch.setattr(montecarlo, "round_player", failing_player)
    chunks = []
    config = SimConfig(rounds=3 * _SCALAR_CHUNK, seed=5, params=params, alice=alice,
                       bob=HONEST_BOB)
    expected, expected_result = _per_round(transcript_player, alice, params, 5, fault_at)
    if monitor == "trips first":
        result = simulate(config, transcript_sink=chunks.append)
        assert result == expected_result and result.aborted
        assert len(expected) == fault_at - 2 and expected[-1].kind is RoundKind.CHECKING
    else:
        with pytest.raises(RuntimeError, match="^round failed$"):
            simulate(config, transcript_sink=chunks.append)
        assert len(expected) == fault_at
    assert [len(c) for c in chunks] == [_SCALAR_CHUNK, len(expected) - _SCALAR_CHUNK]
    assert [t for c in chunks for t in c] == expected


@pytest.mark.parametrize("engine, size", [("separable", _SCALAR_CHUNK), ("entangled", _CHUNK)])
@pytest.mark.parametrize("count", [1, 4_095, 4_097, 65_537])
def test_the_sink_is_called_once_per_chunk_played(engine, size, count):
    # at the engines' own chunk sizes
    alice, _, _, noise = ENGINES[engine]
    params = ProtocolParams(r=0.05, R=398.0, noise_lambda=noise)
    result, chunks = _chunks(alice, params, 13, count)
    assert len(chunks) == math.ceil(count / size)
    assert [len(c) for c in chunks[:-1]] == [size] * (len(chunks) - 1)
    assert sum(map(len, chunks)) == result.rounds == count


def test_a_monitored_run_hands_on_what_an_unmonitored_one_does_up_to_the_trip():
    alice = FixedStateCheat.from_angle(1.0, "b")
    plain = ProtocolParams(r=0.3, R=398.0, noise_lambda=0.1)
    watched = dataclasses.replace(plain, abort_threshold=0.2, abort_min_checks=2_000)
    _, all_chunks = _chunks(alice, plain, 17, 3 * _SCALAR_CHUNK)
    result, chunks = _chunks(alice, watched, 17, 3 * _SCALAR_CHUNK)
    joined = [t for c in chunks for t in c]
    assert result.aborted and len(chunks) >= 2
    assert joined == [t for c in all_chunks for t in c][:len(joined)]

"""The lean separable round against the reference round: same rows, same
tuple, same transcripts, same trip row.

montecarlo.round_player rules each round from the claim the sender
committed to in prepare and bisects outcome bounds computed once per run
(or, for a mixture's component, once per sender). The reference
(separable_reference.run_round, installed over montecarlo.round_player)
asks the sender to adjudicate, validates her ruling and rebuilds the
bounds on every draw. Through montecarlo._scalar_sums both must return exactly the
same totals, bit for bit, for every sender family, receiver, checking
rate, noise strength, seed, offset and length; hand the sink equal
transcripts, and so write the same transcript lines; and trip the abort
monitor on the same row.
"""

import dataclasses
import functools

import pytest

from trinegamble import montecarlo
from trinegamble.montecarlo import _scalar_sums
from trinegamble.protocol import CheckResult, ProtocolParams, transcript_line
from trinegamble.qubit import trine_states
from trinegamble.strategies import (
    BobStrategy,
    FixedStateCheat,
    HonestAlice,
    MixtureCheat,
    in_plane_state,
)

import separable_reference

TRINE = trine_states()
SENDERS = {
    "honest": HonestAlice(),
    "fixed-near": FixedStateCheat.from_angle(0.7, "b"),
    "fixed-far": FixedStateCheat.from_angle(2.5, "c"),
    "mixture-even": MixtureCheat(((0.5, TRINE["a"], "a"), (0.5, in_plane_state(1.1), "c"))),
    "mixture-uneven": MixtureCheat(((0.15, TRINE["a"], "a"), (0.6, in_plane_state(1.1), "c"),
                                    (0.25, TRINE["b"], "b"))),
}
BOBS = {"honest": BobStrategy.honest_optimal(), "blind": BobStrategy.random_guess()}
# no checking rounds, the showcase point, and one whose payoffs are not
# whole numbers, so that the order in which they are added shows in the sums
RATES = {
    0.0: ProtocolParams(r=0.0, R=398.0),
    0.05: ProtocolParams(r=0.05, R=398.0),
    0.5: ProtocolParams(r=0.5, R=77.7, p=0.7, lose_payout=0.7 / 0.3),
}
NOISES = (0.0, 0.1)
SHORT = (5, 0, 3)
OFFSET = (2 ** 63 + 29, 77, 9_000)
LONG = (11, 0, 30_000)


def _params(r, noise, monitor=None):
    params = dataclasses.replace(RATES[r], noise_lambda=noise)
    if monitor is not None:
        threshold, min_checks = monitor
        params = dataclasses.replace(params, abort_threshold=threshold,
                                     abort_min_checks=min_checks)
    return params


def _play(alice, bob, params, seed, start, count):
    """The scalar loop's tuple and the transcripts it wrote, on the lean round."""
    transcripts = []
    sums = _scalar_sums(alice, bob, params, seed, start, count, transcripts.append)
    return sums, transcripts


@pytest.fixture
def reference(monkeypatch):
    """_play, with the reference round installed over montecarlo.round_player."""

    def play(*args):
        with monkeypatch.context() as m:
            m.setattr(montecarlo, "round_player",
                      functools.partial(functools.partial, separable_reference.run_round))
            return _play(*args)

    return play


@pytest.mark.parametrize("noise", NOISES)
@pytest.mark.parametrize("r", sorted(RATES))
@pytest.mark.parametrize("bob", sorted(BOBS))
@pytest.mark.parametrize("sender", sorted(SENDERS))
def test_lean_round_matches_the_reference_bit_for_bit(reference, sender, bob, r, noise):
    alice, bob, params = SENDERS[sender], BOBS[bob], _params(r, noise)
    for seed, start, count in (SHORT, OFFSET):
        lean = _play(alice, bob, params, seed, start, count)
        old = reference(alice, bob, params, seed, start, count)
        assert lean == old
        assert lean[0][0] == len(lean[1]) == count
    # a transcript line is a function of the transcript alone
    assert [transcript_line(t) for t in lean[1][:500]] == [
        transcript_line(t) for t in old[1][:500]]


@pytest.mark.parametrize("sender, bob, r, noise", [
    ("honest", "honest", 0.05, 0.1),
    ("fixed-near", "blind", 0.5, 0.0),
    ("fixed-far", "honest", 0.5, 0.1),
    ("mixture-even", "blind", 0.05, 0.0),
    ("mixture-uneven", "honest", 0.5, 0.1),
])
def test_lean_round_matches_the_reference_over_many_chunks(reference, sender, bob, r, noise):
    alice, bob, params = SENDERS[sender], BOBS[bob], _params(r, noise)
    assert LONG[2] > 7 * montecarlo._SCALAR_CHUNK
    lean = _play(alice, bob, params, *LONG)
    assert lean == reference(alice, bob, params, *LONG)
    assert lean[0][5] > 0


@pytest.mark.parametrize("r", [0.05, 0.5])
@pytest.mark.parametrize("bob", sorted(BOBS))
@pytest.mark.parametrize("sender", sorted(SENDERS))
def test_the_monitor_trips_on_the_same_row(reference, sender, bob, r):
    # on a noisy channel every sender is accused now and then
    alice, bob = SENDERS[sender], BOBS[bob]
    unwatched = _play(alice, bob, _params(r, 0.1), *OFFSET)
    rounds = unwatched[1]
    accused = [i for i, t in enumerate(rounds) if t.check is CheckResult.ACCUSE]
    for monitor in ((0.0, 1), (0.25, 20)):
        params = _params(r, 0.1, monitor)
        lean = _play(alice, bob, params, *OFFSET)
        assert lean == reference(alice, bob, params, *OFFSET)
        sums, played = lean
        assert sums[0] == len(played) and played == rounds[:len(played)]
        if monitor == (0.0, 1):
            # trips on the first accusation
            assert sums[7] and sums[0] == accused[0] + 1
    # a monitor that cannot trip watches every round and changes nothing
    held = _play(alice, bob, _params(r, 0.1, (1.0, 1)), *OFFSET)
    assert held[0][:7] == unwatched[0][:7] and not held[0][7] and held[1] == rounds


def test_the_grid_trips_and_holds():
    # the second monitor above trips for a far cheat and holds for an
    # honest sender
    params = _params(0.5, 0.1, (0.25, 20))
    honest = _play(SENDERS["honest"], BOBS["honest"], params, *OFFSET)[0]
    far = _play(SENDERS["fixed-far"], BOBS["honest"], params, *OFFSET)[0]
    assert not honest[7] and honest[6] > 0 and honest[0] == OFFSET[2]
    assert far[7] and far[5] >= 20 and far[0] < OFFSET[2]

"""The lean separable round against the reference round: same rows, same
result, same transcripts, same trip row.

montecarlo._separable_branches plays a chunk of rounds at once from the
sender's compiled table: each round is ruled from the claim of the
preparation drawn, and each Philox word is compared with word cut-offs
computed once per run. The reference (separable_reference.run_round,
played through conftest.play_reference) asks the sender to adjudicate,
validates her ruling and rebuilds the bounds on every draw. For every
sender family, receiver, checking rate, noise strength, seed, offset and
length, the table's run loop must hand its sink the transcripts the
reference plays, and so write the same
transcript lines; its result, worked out from its row counts, must equal
the one recomputed from the reference's transcripts, bit for bit; and
both must trip the abort monitor on the same row.
"""

import dataclasses
import functools
import random

import numpy as np
import pytest

from trinegamble import montecarlo
from trinegamble.protocol import CheckResult, ProtocolParams, transcript_line
from trinegamble.qubit import ATOL, LABELS, outcome_bounds, trine_states
from trinegamble.strategies import (
    BobStrategy,
    FixedStateCheat,
    HonestAlice,
    MixtureCheat,
    in_plane_state,
)

import separable_reference
from conftest import four_sigma, play_engine, play_reference, reference_result
from separable_reference import sample_outcome, uniform_label

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
# no checking rounds, the showcase point, and one whose penalty is not a
# whole number, so that only exactly rounded totals match the reference's
RATES = {
    0.0: ProtocolParams(r=0.0, R=398.0),
    0.05: ProtocolParams(r=0.05, R=398.0),
    0.5: ProtocolParams(r=0.5, R=77.7),
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


@pytest.fixture
def reference():
    """The reference round played one round at a time: the result recomputed
    from its transcripts, and those."""

    def play(alice, bob, params, seed, start, count):
        played = []
        aborted = play_reference(functools.partial(separable_reference.run_round, alice, bob,
                                                   params), params, seed, start, count, played)
        return reference_result(played, aborted), played

    return play


@pytest.mark.parametrize("noise", NOISES)
@pytest.mark.parametrize("r", sorted(RATES))
@pytest.mark.parametrize("bob", sorted(BOBS))
@pytest.mark.parametrize("sender", sorted(SENDERS))
def test_lean_round_matches_the_reference_bit_for_bit(reference, sender, bob, r, noise):
    alice, bob, params = SENDERS[sender], BOBS[bob], _params(r, noise)
    for seed, start, count in (SHORT, OFFSET):
        lean = play_engine(alice, bob, params, seed, start, count)
        old = reference(alice, bob, params, seed, start, count)
        assert lean == old
        assert lean[0].rounds == len(lean[1]) == count
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
    lean = play_engine(alice, bob, params, *LONG)
    assert lean == reference(alice, bob, params, *LONG)
    assert lean[0].check_count > 0


@pytest.mark.parametrize("r", [0.05, 0.5])
@pytest.mark.parametrize("bob", sorted(BOBS))
@pytest.mark.parametrize("sender", sorted(SENDERS))
def test_the_monitor_trips_on_the_same_row(reference, sender, bob, r):
    # on a noisy channel every sender is accused now and then
    alice, bob = SENDERS[sender], BOBS[bob]
    unwatched = play_engine(alice, bob, _params(r, 0.1), *OFFSET)
    rounds = unwatched[1]
    accused = [i for i, t in enumerate(rounds) if t.check is CheckResult.ACCUSE]
    for monitor in ((0.0, 1), (0.25, 20)):
        params = _params(r, 0.1, monitor)
        lean = play_engine(alice, bob, params, *OFFSET)
        assert lean == reference(alice, bob, params, *OFFSET)
        result, played = lean
        assert result.rounds == len(played) and played == rounds[:len(played)]
        if monitor == (0.0, 1):
            # trips on the first accusation
            assert result.aborted and result.rounds == accused[0] + 1
    # a monitor that cannot trip watches every round and changes nothing
    held = play_engine(alice, bob, _params(r, 0.1, (1.0, 1)), *OFFSET)
    assert held[0] == unwatched[0] and not held[0].aborted and held[1] == rounds


def test_the_grid_trips_and_holds():
    # the second monitor above trips for a far cheat and holds for an
    # honest sender
    params = _params(0.5, 0.1, (0.25, 20))
    honest = play_engine(SENDERS["honest"], BOBS["honest"], params, *OFFSET)[0]
    far = play_engine(SENDERS["fixed-far"], BOBS["honest"], params, *OFFSET)[0]
    assert not honest.aborted and honest.accuse_count > 0 and honest.rounds == OFFSET[2]
    assert far.aborted and far.check_count >= 20 and far.rounds < OFFSET[2]


# ---------------------------------------------------------------------------
# the reference round's sampling helpers


def test_sample_outcome_degenerate_and_deterministic():
    r = random.Random(5)
    assert all(sample_outcome((1.0, 0.0, 0.0), r) == 0 for _ in range(50))
    r1, r2 = random.Random(9), random.Random(9)
    seq1 = [sample_outcome((0.3, 0.3, 0.4), r1) for _ in range(200)]
    seq2 = [sample_outcome((0.3, 0.3, 0.4), r2) for _ in range(200)]
    assert seq1 == seq2


def test_sample_outcome_zero_probability_entries_never_fire():
    r = random.Random(17)
    assert all(sample_outcome((0.0, 1.0, 0.0), r) == 1 for _ in range(2000))
    draws = [sample_outcome((0.5, 0.5, 0.0), r) for _ in range(5000)]
    assert 2 not in draws


def test_sample_outcome_frequencies_match_born_weights():
    probs = (2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0)
    n = 1_000_000
    r = random.Random(123)
    counts = [0, 0, 0]
    for _ in range(n):
        counts[sample_outcome(probs, r)] += 1
    for k in range(3):
        assert abs(counts[k] / n - probs[k]) < four_sigma(probs[k], n)


def test_sample_outcome_validates_input():
    r = random.Random(0)
    with pytest.raises(ValueError):
        sample_outcome((0.5, 0.4), r)
    with pytest.raises(ValueError):
        sample_outcome((-0.2, 1.2), r)
    with pytest.raises(ValueError):
        sample_outcome((float("nan"), 1.0), r)


class _Uniform:
    """An rng whose every draw is the one given value."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def _cumulative_draw(probs, u):
    """The cumulative loop sample_outcome used to run itself: the first
    positive entry whose running total exceeds u, else the last index."""
    acc = 0.0
    for k in range(len(probs) - 1):
        if probs[k] > 0.0:
            acc += probs[k]
            if u < acc:
                return k
    return len(probs) - 1


def test_sample_outcome_matches_the_cumulative_loop():
    rng = np.random.default_rng(8)
    vectors = [(0.3, 0.3, 0.4), (0.0, 1.0, 0.0), (0.5, 0.0, 0.5), (2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0)]
    for _ in range(300):
        p = rng.random(int(rng.integers(2, 6)))
        p[rng.random(len(p)) < 0.3] = 0.0
        if p.sum() == 0.0:
            p[-1] = 1.0
        # leave rounding residue within the tolerance on either side of 1
        p *= (1.0 + float(rng.uniform(-0.9, 0.9)) * ATOL) / p.sum()
        vectors.append(tuple(float(x) for x in p))
    for probs in vectors:
        bounds = outcome_bounds(probs)
        assert len(bounds) == len(probs) - 1
        edges = [b for b in bounds if b > 0.0]
        for u in (0.0, 0.1, 0.5, 2.0 / 3.0, 0.99, 1.0 - 2.0 ** -53, *rng.random(20),
                  *edges, *np.nextafter(edges, 0.0)):
            u = float(u)
            if u < 1.0:
                assert sample_outcome(probs, _Uniform(u)) == _cumulative_draw(probs, u)
    with pytest.raises(ValueError):
        outcome_bounds((0.5, float("nan"), 0.5))


def test_uniform_label_spread():
    r = random.Random(31)
    n = 60_000
    counts = {lab: 0 for lab in LABELS}
    for _ in range(n):
        counts[uniform_label(r)] += 1
    for lab in LABELS:
        assert abs(counts[lab] / n - 1 / 3) < four_sigma(1 / 3, n)

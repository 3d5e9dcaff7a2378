"""The branch tables compare Philox words, not uniforms: the word rule
equals the float rule at every edge.

A word w's uniform is u = (w >> 11) * 2**-53, as numpy's Generator.random
makes it. For every threshold t, u < t exactly when (w >> 11) is below
_word_threshold(t), and u >= t exactly when it is not; int(u * 3.0) is the
count of montecarlo._THIRDS at or below (w >> 11). A separable table plays
the row the staged reference round plays on the words beside each of its
thresholds.
"""

import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from trinegamble import montecarlo
from trinegamble.montecarlo import (
    DRAWS_PER_ROUND,
    SimConfig,
    _THIRDS,
    _philox,
    _round_words,
    _separable_branches,
    _separable_table,
    _word_threshold,
    _word_thresholds,
    simulate,
)
from trinegamble.protocol import ProtocolParams, received_state
from trinegamble.qubit import born_probabilities, check_fail_probability, outcome_bounds
from trinegamble.strategies import (
    TRINE,
    BobStrategy,
    FixedStateCheat,
    HonestAlice,
    MixtureCheat,
    in_plane_state,
)

import separable_reference
from conftest import play_reference, words_beside

EDGES = [
    0.0,
    -0.0,
    5e-324,
    2.0 ** -53,
    1.0 / 3.0,
    2.0 / 3.0,
    1.0 - 2.0 ** -53,
    1.0,
    math.nextafter(1.0, 2.0),  # a probability a hair above 1 after rounding
    1.0 + 1e-12,
    -1e-300,
]
TOP = 2 ** 64 - 1


def _uniform(w: int) -> float:
    return (w >> 11) * 2.0 ** -53


def _third_by_words(w: int) -> int:
    return sum((w >> 11) >= k for k in _THIRDS)


@pytest.mark.parametrize("t", EDGES, ids=repr)
def test_the_word_rule_is_the_float_rule_at_each_edge(t):
    big_t = _word_threshold(t)
    assert 0 <= big_t <= 2 ** 53
    for w in words_beside(t):
        u = _uniform(w)
        assert ((w >> 11) < big_t) == (u < t)
        assert ((w >> 11) >= big_t) == (u >= t)
    # and the word threshold is positive exactly when the threshold is
    assert (big_t > 0) == (t > 0.0)


def test_edge_thresholds_take_their_expected_values():
    assert [_word_threshold(t) for t in EDGES] == [
        0, 0, 1, 1, 3002399751580331, 6004799503160661, 2 ** 53 - 1, 2 ** 53, 2 ** 53, 2 ** 53,
        0]


def test_a_nan_threshold_is_rejected_when_the_table_is_compiled():
    # no uniform is below NaN, and none is at or above it, so no word rule matches
    with pytest.raises(ValueError, match="NaN"):
        _word_threshold(math.nan)
    with pytest.raises(ValueError, match="NaN"):
        _word_thresholds([0.5, math.nan])


def test_the_thirds_are_the_float_rule_at_each_edge():
    # the cut-offs are those of 1/3 and 2/3 themselves
    assert _THIRDS == (_word_threshold(1.0 / 3.0), _word_threshold(2.0 / 3.0))
    for w in words_beside(1.0 / 3.0) + words_beside(2.0 / 3.0):
        assert _third_by_words(w) == int(_uniform(w) * 3.0)


def test_word_thresholds_are_read_only_uint64():
    a = _word_thresholds([0.0, 0.25, 1.0])
    assert a.dtype == np.uint64 and a.tolist() == [0, 2 ** 51, 2 ** 53]
    with pytest.raises(ValueError, match="read-only"):
        a[0] = 1


words = st.integers(min_value=0, max_value=TOP)
thresholds = st.one_of(st.floats(allow_nan=False), st.floats(min_value=0.0, max_value=1.0),
                       st.sampled_from(EDGES))


@given(t=thresholds, w=words)
def test_the_word_rule_is_the_float_rule_for_any_threshold_and_word(t, w):
    big_t = _word_threshold(t)
    u = _uniform(w)
    assert ((w >> 11) < big_t) == (u < t)
    assert ((w >> 11) >= big_t) == (u >= t)


@given(w=words)
def test_the_thirds_are_the_float_rule_for_any_word(w):
    assert _third_by_words(w) == int(_uniform(w) * 3.0)


@given(t=thresholds)
def test_the_word_rule_holds_beside_any_threshold(t):
    for w in words_beside(t):
        assert ((w >> 11) < _word_threshold(t)) == (_uniform(w) < t)


@pytest.mark.parametrize("seed, start, count", [
    (0, 0, 1), (5, 77, 1_500), (2 ** 63 + 2 ** 40 + 29, 3, 777), (2 ** 64 - 1, 12_345, 64),
])
def test_the_two_readers_are_one_stream(seed, start, count):
    w = _round_words(seed, start, count)
    assert w.dtype == np.uint64 and w.shape == (count, 8)
    u = np.random.Generator(_philox(seed, start)).random((count, DRAWS_PER_ROUND))
    assert np.array_equal(u, (w >> 11) * 2.0 ** -53)
    assert u.tobytes() == ((w >> 11) * 2.0 ** -53).tobytes()


# ---------------------------------------------------------------------------
# the separable table at every edge of its word cut-offs


SEPARABLE = {
    "honest": HonestAlice(),
    "fixed": FixedStateCheat.from_angle(1.0, "b"),
    "mixture": MixtureCheat(((0.15, TRINE["a"], "a"), (0.6, in_plane_state(1.1), "c"),
                             (0.25, TRINE["b"], "b"))),
    "mixture-one": MixtureCheat(((1.0, in_plane_state(2.0), "a"),)),
}
BOBS = {"honest": BobStrategy.honest_optimal(), "blind": BobStrategy.random_guess()}
# noise puts every check failure strictly between 0 and 1
EDGE_PARAMS = ProtocolParams(r=0.3, R=77.7, noise_lambda=0.1)


def _thresholds(alice, bob, params):
    """The thresholds a separable round compares its uniforms with, in the
    order it reads them, worked out as the reference round works them out:
    the preparation draw's (none for a fixed cheat), r, the receiver's
    outcome bounds of every preparation and the checking guess's thirds,
    and every preparation's check failure."""
    povm = bob.measurement_povm()
    outcome, fail = [1.0 / 3.0, 2.0 / 3.0], []
    for _, prep in alice.preparations:
        received = received_state(prep.wire, params.noise_lambda)
        if povm is not None:
            outcome += outcome_bounds(born_probabilities(received, povm))
        fail.append(check_fail_probability(received, prep.claim))
    columns = [[params.r], outcome, fail]
    if isinstance(alice, HonestAlice):
        columns.insert(0, [1.0 / 3.0, 2.0 / 3.0])
    elif isinstance(alice, MixtureCheat):
        columns.insert(0, list(outcome_bounds([p for p, _, _ in alice.components])) or [0.5])
    return columns


@pytest.mark.parametrize("bob", sorted(BOBS))
@pytest.mark.parametrize("sender", sorted(SEPARABLE))
def test_a_separable_row_is_the_reference_round_beside_every_threshold(monkeypatch, sender,
                                                                         bob):
    # every combination of the words beside each threshold a round's words meet
    alice, bob, params = SEPARABLE[sender], BOBS[bob], EDGE_PARAMS
    columns = [sorted({w for t in ts for w in words_beside(t)})
               for ts in _thresholds(alice, bob, params)]
    words = np.zeros((math.prod(map(len, columns)), DRAWS_PER_ROUND), dtype=np.uint64)
    words[:, :len(columns)] = list(itertools.product(*columns))
    table = _separable_table(alice, bob, params)
    played = []
    monkeypatch.setattr(montecarlo, "_round_words", lambda seed, start, count: words)
    play_reference(functools.partial(separable_reference.run_round, alice, bob, params), params,
                   0, 0, len(words), played)
    branch = _separable_branches(table, words)
    assert [table.transcripts[b] for b in branch.tolist()] == played
    # the words reach every row that has a nonzero probability
    reached = set(branch.tolist())
    assert reached == {b for b, (_, p, _) in enumerate(table.exact_rows) if p > 0}


class _Coin:
    """A separable sender with preparations and prepare, outside the three
    compiled families: her draw is not theirs."""

    preparations = ((0.5, HonestAlice.preparations[0][1]), (0.5, HonestAlice.preparations[1][1]))

    def prepare(self, rng):
        return self.preparations[rng.random() >= 0.5][1]


class _Honest(HonestAlice):
    """A subclass could draw her preparation otherwise."""


@pytest.mark.parametrize("alice", [_Coin(), _Honest()], ids=lambda a: type(a).__name__)
def test_a_separable_sender_outside_the_compiled_families_is_rejected(alice):
    params = ProtocolParams(r=0.05, R=398.0)
    with pytest.raises(ValueError, match=type(alice).__name__):
        _separable_table(alice, BobStrategy.honest_optimal(), params)
    with pytest.raises(ValueError, match=type(alice).__name__):
        simulate(SimConfig(rounds=10, seed=1, params=params, alice=alice,
                           bob=BobStrategy.honest_optimal()))

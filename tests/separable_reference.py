"""The separable round as the sender once ruled it, one uniform at a time:
the reference the package's separable table is checked against.

Here every round asks the sender to adjudicate herself, validates her
ruling against the guess, wraps the receiver's guess in a named tuple
(with the stored qubit in a checking round) and samples every outcome
with sample_outcome, which rebuilds the outcome bounds on each draw. A
mixture draws its component the same way from its weights, and prepare
draws each family's preparation itself. The package instead rules each
round from the claim of the drawn preparation, and
montecarlo._separable_branches plays a chunk of rounds at once, comparing
the Philox words of the same uniforms, in the same order, with cut-offs
computed once per run.

conftest.play_reference plays run_round one round at a time, on the rows
of uniforms the package reads, so the two can be compared row for row.
"""

import bisect
from typing import NamedTuple

from trinegamble.protocol import (
    CheckResult,
    RoundKind,
    RoundResult,
    RoundTranscript,
    Verdict,
    received_state,
    settle,
)
from trinegamble.qubit import (
    LABEL_INDEX,
    LABELS,
    born_probabilities,
    check_fail_probability,
    outcome_bounds,
)
from trinegamble.strategies import FixedStateCheat, HonestAlice


def sample_outcome(probs, rng) -> int:
    """Sample an index from a probability vector: the number of
    outcome_bounds at or below one uniform draw. Any rounding residue lands
    on the last index, zero-probability entries never fire."""
    return bisect.bisect_right(outcome_bounds(probs), rng.random())


def uniform_label(rng) -> str:
    """One of the three trine labels, uniformly. rng.random() < 1 always."""
    return LABELS[int(rng.random() * 3.0)]


class SenderFault(Exception):
    """The sender's ruling contradicts the guess or the trine alphabet."""


class MeasuredGuess(NamedTuple):
    guess: str


class StoredRandomGuess(NamedTuple):
    guess: str
    stored: object


def prepare(alice, rng):
    """The preparation a sender of the three families draws, with at most
    one rng.random(): honest play picks a trine state uniformly, a fixed
    cheat draws nothing, and a mixture samples a component by its weights."""
    if isinstance(alice, HonestAlice):
        return alice.preparations[int(rng.random() * 3.0)][1]
    if isinstance(alice, FixedStateCheat):
        return alice.preparations[0][1]
    return alice._preps[sample_outcome([p for p, _, _ in alice.components], rng)]


def adjudicate(alice, prep, guess):
    # a fixed cheat rules by her own claim, every other sender by the prepared one
    claim = alice.claim if isinstance(alice, FixedStateCheat) else prep.claim
    result = RoundResult.BOB_WON if guess == claim else RoundResult.BOB_LOST
    return Verdict(result, claim), None


def _validate_verdict(verdict, guess):
    if verdict.claimed not in LABEL_INDEX:
        raise SenderFault(f"claim outside the trine alphabet: {verdict.claimed!r}")
    expected = RoundResult.BOB_WON if guess == verdict.claimed else RoundResult.BOB_LOST
    if verdict.result is not expected:
        raise SenderFault("verdict inconsistent with the announced claim")


def act(bob, received, kind, rng):
    if kind is RoundKind.CHECKING:
        return StoredRandomGuess(uniform_label(rng), received)
    povm = bob.measurement_povm()
    if povm is None:
        return MeasuredGuess(uniform_label(rng))
    probs = born_probabilities(received, povm)
    return MeasuredGuess(povm.labels[sample_outcome(probs, rng)])


def bob_check(stored, claimed, rng):
    p_fail = check_fail_probability(stored, claimed)
    return CheckResult.ACCUSE if rng.random() < p_fail else CheckResult.PASS


def run_round(alice, bob, params, rng) -> RoundTranscript:
    prep = prepare(alice, rng)
    received = received_state(prep.wire, params.noise_lambda)
    kind = RoundKind.CHECKING if rng.random() < params.r else RoundKind.NORMAL
    guess_act = act(bob, received, kind, rng)
    guess = guess_act.guess
    verdict, _ = adjudicate(alice, prep, guess)
    _validate_verdict(verdict, guess)
    check = None
    if kind is RoundKind.CHECKING:
        check = bob_check(guess_act.stored, verdict.claimed, rng)
    alice_delta, bob_delta = settle(kind, verdict, check, params)
    return RoundTranscript(kind, prep.descriptor, guess, verdict, check,
                           alice_delta, bob_delta)

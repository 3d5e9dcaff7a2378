"""The scalar entangled round: the reference the branch table is checked against.

run_round plays one round of an EntangledAlice one uniform at a time,
straight from the qubit helpers: the round kind; in a normal round the
receiver's POVM outcome from remote_povm_branches (or his blind guess) and
the sender's outcome on her kept state; in a checking round a uniform
guess, the sender's outcome from local_measure_branches on the pair, and
the check on the collapsed sent half. It takes no channel noise.

The package plays entangled senders only from their compiled branch table.
conftest.play_reference plays run_round one round at a time, on the rows
of uniforms the table reads, so the two can be compared row for row.
"""

from trinegamble.protocol import (
    CheckResult,
    RoundKind,
    RoundResult,
    RoundTranscript,
    Verdict,
    settle,
)
from trinegamble.qubit import (
    check_fail_probability,
    local_measure_branches,
    remote_povm_branches,
)

from separable_reference import sample_outcome, uniform_label


def _outcome(p0, rng) -> int:
    # the sender's outcome draws a uniform only when outcome 0 is possible
    return 0 if (p0 > 0.0 and rng.random() < p0) else 1


def _collapse(alice, guess, rng):
    """The sender measures the unmeasured pair: her outcome and the sent half."""
    branches = local_measure_branches(alice.psi, alice.basis_policy[guess])
    j = _outcome(branches[0][0], rng)
    sent = branches[j][1]
    if sent is None:
        raise AssertionError("sampled a zero-probability measurement branch")
    return j, sent


def run_round(alice, bob, params, rng) -> RoundTranscript:
    if params.noise_lambda > 0.0:
        raise ValueError("the reference round plays no channel noise")
    kind = RoundKind.CHECKING if rng.random() < params.r else RoundKind.NORMAL
    check = None
    if kind is RoundKind.CHECKING:
        guess = uniform_label(rng)
        j, sent = _collapse(alice, guess, rng)
    else:
        povm = bob.measurement_povm()
        if povm is None:
            guess = uniform_label(rng)
            j, _ = _collapse(alice, guess, rng)
        else:
            branches = remote_povm_branches(alice.psi, povm)
            k = sample_outcome([p for p, _ in branches], rng)
            kept = branches[k][1]
            if kept is None:
                raise AssertionError("sampled a zero-probability POVM branch")
            guess = povm.labels[k]
            j = _outcome(alice.basis_policy[guess][0].fidelity(kept), rng)
    claim = alice.claim_policy[(guess, j)]
    verdict = Verdict(RoundResult.BOB_WON if guess == claim else RoundResult.BOB_LOST, claim)
    if kind is RoundKind.CHECKING:
        p_fail = check_fail_probability(sent, claim)
        check = CheckResult.ACCUSE if rng.random() < p_fail else CheckResult.PASS
    return RoundTranscript(kind, "entangled", guess, verdict, check,
                           *settle(kind, verdict, check, params))

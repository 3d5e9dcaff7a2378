"""Round engine for the two-party trine gambling game.

One round: the sender prepares a qubit and ships it (optionally through a
depolarizing channel). With probability 1 - r the receiver measures at
once with his discrimination POVM and announces the outcome as his guess
(normal round); with probability r he silently stores the qubit and
announces a uniform random guess (checking round). The round is then won
or lost for the receiver by the claim the sender committed to when she
prepared the qubit: he wins iff his guess names it. A checking round ends
with the receiver projecting the stored qubit onto {claimed state,
complement}; the complement outcome is an accusation and transfers the
penalty R instead of the round stake.

The receiver never fabricates accusations here. Check outcomes come out of
the projective test itself; a receiver lying about that outcome is outside
the modeled threat set.

This module holds the rules and nothing of how a game is tabulated:
leaf_transcript rules a round that ends in a given branch from the
committed claim and settles it, settle pays it, received_state is what
the channel delivers, abort_monitor is the receiver's tripwire, and
transcript_record and transcript_line are the export format. montecarlo
compiles every sender, separable or entangled, into one branch table
whose transcripts leaf_transcript builds, and both its sampler and its
exact oracle read that table.

A separable sender is one of the strategies module's three families,
whose preparations are (weight, Preparation) pairs, each a
strategies.Preparation (what she sends and what she claims); montecarlo
compiles her draw among them. A receiver is duck-typed:
he provides measurement_povm, the POVM he measures in normal rounds, or
None when he guesses blind. Everything else he does is fixed by the
protocol, and each round is ruled from the committed claim.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional

from .qubit import LABEL_INDEX, LABELS, depolarize


class RoundKind(Enum):
    NORMAL = "normal"
    CHECKING = "checking"


class RoundResult(Enum):
    BOB_WON = "bob_won"
    BOB_LOST = "bob_lost"


class CheckResult(Enum):
    PASS = "pass"
    ACCUSE = "accuse"


class MonitorDecision(Enum):
    CONTINUE = "continue"
    ABORT = "abort"


@dataclass(frozen=True)
class Verdict:
    """The ruling on one round and the claim it rests on.

    A separable sender commits to her claim when she prepares the qubit, an
    entangled one names it after hearing the guess; the checking path reuses
    it, and there is no separate reveal step.
    """

    result: RoundResult
    claimed: str

    def __post_init__(self):
        if self.claimed not in LABEL_INDEX:
            raise ValueError(f"claim outside the trine alphabet: {self.claimed!r}")


_VERDICT_WON = {lab: Verdict(RoundResult.BOB_WON, lab) for lab in LABELS}
_VERDICT_LOST = {lab: Verdict(RoundResult.BOB_LOST, lab) for lab in LABELS}


# The round stakes, at fair odds for the receiver's optimal success rate
# 2/3: he wins 1 with probability 2/3 and pays 2 with probability 1/3, so
# an honest round is worth nothing to either side before checking.
WIN_PAYOUT = 1.0
LOSE_PAYOUT = 2.0


@dataclass(frozen=True)
class ProtocolParams:
    """Game parameters: the checking rate r, the penalty R, the channel
    noise and the abort monitor. The round stakes are fixed (WIN_PAYOUT,
    LOSE_PAYOUT).

    abort_threshold None disables the accusation monitor (the default, so
    long cheating-strategy simulations run to completion); set it to the
    tolerated accusation rate to enable aborts.
    """

    r: float
    R: float
    noise_lambda: float = 0.0
    abort_threshold: Optional[float] = None
    abort_min_checks: int = 1

    def __post_init__(self):
        if not 0.0 <= self.r < 1.0:
            raise ValueError(f"checking rate must lie in [0, 1), got {self.r!r}")
        if not 0.0 < self.R < math.inf:
            raise ValueError(f"penalty must be positive and finite, got {self.R!r}")
        if not 0.0 <= self.noise_lambda <= 1.0:
            raise ValueError(f"noise strength must lie in [0, 1], got {self.noise_lambda!r}")
        if self.abort_threshold is not None and not 0.0 <= self.abort_threshold <= 1.0:
            raise ValueError(
                f"abort threshold must lie in [0, 1], got {self.abort_threshold!r}")
        if self.abort_min_checks < 1:
            raise ValueError(
                f"abort monitor needs at least one check, got {self.abort_min_checks!r}")


class RoundTranscript(NamedTuple):
    kind: RoundKind
    sent_descriptor: str
    guess: str
    verdict: Verdict
    check: Optional[CheckResult]
    alice_delta: float
    bob_delta: float


def settle(kind: RoundKind, verdict: Verdict, check: Optional[CheckResult],
           params: ProtocolParams) -> tuple:
    """Coin deltas (sender, receiver) for one adjudicated round.

    An accusation replaces the round stake entirely: the sender pays R and
    the win/lose settlement is skipped.
    """
    if check is CheckResult.ACCUSE:
        if kind is not RoundKind.CHECKING:
            raise ValueError("accusation outside a checking round")
        return (-params.R, params.R)
    if verdict.result is RoundResult.BOB_WON:
        return (-WIN_PAYOUT, WIN_PAYOUT)
    return (LOSE_PAYOUT, -LOSE_PAYOUT)


def received_state(wire, noise_lambda: float):
    """What the receiver holds when the pure state wire is sent: wire itself
    on a clean channel, otherwise its density after the depolarizing channel
    of strength noise_lambda."""
    if noise_lambda == 0.0:
        return wire
    return depolarize(wire.density(), noise_lambda)


def leaf_transcript(kind: RoundKind, descriptor: str, guess: str, claim: str,
                    check: Optional[CheckResult], params: ProtocolParams) -> RoundTranscript:
    """The transcript of a round that ends in the given branch: the receiver
    wins iff his guess is the claim."""
    verdict = (_VERDICT_WON if guess == claim else _VERDICT_LOST)[claim]
    return RoundTranscript(kind, descriptor, guess, verdict, check,
                           *settle(kind, verdict, check, params))


def abort_monitor(checks: int, accusations: int, params: ProtocolParams) -> MonitorDecision:
    """Receiver-side tripwire on the accusation rate.

    Abort iff at least abort_min_checks checks have run and the observed
    accusation rate accusations / checks exceeds abort_threshold. With the
    threshold unset the monitor never trips.
    """
    if params.abort_threshold is None:
        return MonitorDecision.CONTINUE
    if checks >= params.abort_min_checks:
        if accusations / checks > params.abort_threshold:
            return MonitorDecision.ABORT
    return MonitorDecision.CONTINUE


def transcript_record(t: RoundTranscript) -> dict:
    """Flatten one transcript to plain keys for line-delimited export."""
    return {
        "kind": t.kind.value,
        "sent": t.sent_descriptor,
        "guess": t.guess,
        "result": t.verdict.result.value,
        "claimed": t.verdict.claimed,
        "check": None if t.check is None else t.check.value,
        "alice_delta": t.alice_delta,
        "bob_delta": t.bob_delta,
    }


def transcript_line(t: RoundTranscript) -> str:
    return json.dumps(transcript_record(t), separators=(",", ":"))

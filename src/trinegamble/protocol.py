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

run_round plays one round of a separable sender, who sends a definite
qubit; each random choice is drawn by the rule the exact oracle reads
(qubit.outcome_bounds for the receiver's outcome, check_fail_probability
for the check). An entangled sender, who keeps half of a pair, is never
played here: her rounds come from the branch table montecarlo compiles,
which builds its transcripts with the same RoundTranscript, _verdict_for,
settle and abort_monitor.

Strategies are duck-typed: the sender object provides prepare, which
returns a strategies.Preparation (what she sends and what she claims);
the receiver object provides act, which returns his guess, and
measurement_povm. The protocol rules each round itself from the
committed claim. The strategies module supplies the standard
implementations.

What the channel delivers for a prepared state is fixed for the run: it
depends only on the state and the noise strength. received_state builds
that depolarized density once per state object and keeps it on the state,
and the honest receiver likewise keeps his POVM outcome bounds on the
state he receives (qubit.cached_outcome_bounds). Every round still draws
its uniforms in the same order and compares them with the same numbers,
which the same code computed once instead of once per round, so seeded
output is bit-identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional

from .qubit import LABEL_INDEX, LABELS, check_fail_probability, depolarize


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


def _verdict_for(guess: str, claim: str) -> Verdict:
    """The ruling on a round: the receiver wins iff his guess is the claim."""
    return _VERDICT_WON[claim] if guess == claim else _VERDICT_LOST[claim]


@dataclass(frozen=True)
class ProtocolParams:
    """Game parameters. Payouts satisfy the fair-odds relation
    lose_payout = p / (1 - p) with p the optimal discrimination rate 2/3.

    abort_threshold None disables the accusation monitor (the default, so
    long cheating-strategy simulations run to completion); set it to the
    tolerated accusation rate to enable aborts.
    """

    r: float
    R: float
    p: float = 2.0 / 3.0
    win_payout: float = 1.0
    lose_payout: float = 2.0
    noise_lambda: float = 0.0
    abort_threshold: Optional[float] = None
    abort_min_checks: int = 1

    def __post_init__(self):
        if not 0.0 <= self.r < 1.0:
            raise ValueError(f"checking rate must lie in [0, 1), got {self.r!r}")
        if not 0.0 < self.R < math.inf:
            raise ValueError(f"penalty must be positive and finite, got {self.R!r}")
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"success probability must lie in (0, 1), got {self.p!r}")
        if not self.win_payout > 0.0:
            raise ValueError(f"win payout must be positive, got {self.win_payout!r}")
        fair = self.p / (1.0 - self.p)
        if abs(self.lose_payout - fair) > 1e-9:
            raise ValueError(
                f"lose payout must equal p/(1-p) = {fair!r}, got {self.lose_payout!r}")
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
        return (-params.win_payout, params.win_payout)
    return (params.lose_payout, -params.lose_payout)


def received_state(wire, noise_lambda: float):
    """What the receiver holds when the pure state wire is sent: wire itself
    on a clean channel, otherwise its density after the depolarizing channel
    of strength noise_lambda.

    The density is built once per state object and kept on the (immutable)
    state, in one slot holding the strength it belongs to; another strength
    rebuilds and replaces it. Like qubit.cached_born_probabilities, the memo
    cannot grow and dies with the state.
    """
    if noise_lambda == 0.0:
        return wire
    memo = getattr(wire, "_received", None)
    if memo is None or memo[0] != noise_lambda:
        memo = (noise_lambda, depolarize(wire.density(), noise_lambda))
        object.__setattr__(wire, "_received", memo)
    return memo[1]


def run_round(alice, bob, params: ProtocolParams, rng) -> RoundTranscript:
    """Play one full round and return its transcript.

    The round kind is drawn here, Bernoulli(r), before the receiver touches
    the qubit; the sender never learns it except through the payout. The
    verdict follows from the claim she committed to in prepare, and a
    checking round tests that claim on the qubit the receiver stored.
    """
    prep = alice.prepare(rng)
    received = received_state(prep.wire, params.noise_lambda)
    kind = RoundKind.CHECKING if rng.random() < params.r else RoundKind.NORMAL
    guess = bob.act(received, kind, rng)
    verdict = _verdict_for(guess, prep.claim)
    check = None
    if kind is RoundKind.CHECKING:
        p_fail = check_fail_probability(received, prep.claim)
        check = CheckResult.ACCUSE if rng.random() < p_fail else CheckResult.PASS
    alice_delta, bob_delta = settle(kind, verdict, check, params)
    return RoundTranscript(kind, prep.descriptor, guess, verdict, check,
                           alice_delta, bob_delta)


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

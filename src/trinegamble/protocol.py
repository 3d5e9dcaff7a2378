"""Round engine for the two-party trine gambling game.

One round: the sender prepares a qubit and ships it (optionally through a
depolarizing channel). With probability 1 - r the receiver measures at
once with his discrimination POVM and announces the outcome as his guess
(normal round); with probability r he silently stores the qubit and
announces a uniform random guess (checking round). The sender then rules
the round won or lost for the receiver, naming the state she claims to
have sent. A checking round ends with the receiver projecting the stored
qubit onto {claimed state, complement}; the complement outcome is an
accusation and transfers the penalty R instead of the round stake.

The receiver never fabricates accusations here. Check outcomes come out of
the projective test itself; a receiver lying about that outcome is outside
the modeled threat set.

Strategies are duck-typed: the sender object provides prepare/adjudicate,
the receiver object provides act, measurement_povm and blind_guess. The
strategies module supplies the standard implementations.

What the channel delivers for a prepared state is fixed for the run: it
depends only on the state and the noise strength. received_state builds
that depolarized density once per state object and keeps it on the state,
and the honest receiver likewise keeps his POVM probabilities on the state
he receives (qubit.cached_born_probabilities). Every round still draws its
uniforms in the same order and compares them with the same numbers, which
the same code computed once instead of once per round, so seeded output is
bit-identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional

from .qubit import (
    LABEL_INDEX,
    CheckOutcome,
    depolarize,
    project_check,
    remote_povm_collapse,
    uniform_label,
)


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


class ProtocolFault(Exception):
    """A party broke the protocol; the round aborts with the fault attributed."""

    def __init__(self, party: str, message: str):
        self.party = party
        super().__init__(f"{party}: {message}")


@dataclass(frozen=True)
class Verdict:
    """The sender's ruling for one round, with her claim made explicit.

    The claim is announced once, at adjudication time, and the checking path
    reuses it; there is no separate reveal step.
    """

    result: RoundResult
    claimed: str

    def __post_init__(self):
        if self.claimed not in LABEL_INDEX:
            raise ValueError(f"claim outside the trine alphabet: {self.claimed!r}")


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


def bob_check(stored, claimed: str, rng) -> CheckResult:
    """Receiver-side verification: project the stored qubit onto the claim."""
    outcome = project_check(stored, claimed, rng)
    return CheckResult.ACCUSE if outcome is CheckOutcome.FAIL else CheckResult.PASS


def _validate_verdict(verdict, guess: str) -> None:
    claimed = verdict.claimed
    if claimed not in LABEL_INDEX:
        raise ProtocolFault("alice", f"claim outside the trine alphabet: {claimed!r}")
    expected = RoundResult.BOB_WON if guess == claimed else RoundResult.BOB_LOST
    if verdict.result is not expected:
        raise ProtocolFault("alice", "verdict inconsistent with the announced claim")


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
    the qubit; the sender never learns it except through the payout.
    """
    prep = alice.prepare(rng)
    wire = prep.wire
    joint = prep.joint
    if (wire is None) == (joint is None):
        raise ProtocolFault(
            "alice", "preparation must carry exactly one of a wire state or a joint state")
    check: Optional[CheckResult] = None

    if wire is not None:
        received = received_state(wire, params.noise_lambda)
        kind = RoundKind.CHECKING if rng.random() < params.r else RoundKind.NORMAL
        act = bob.act(received, kind, rng)
        guess = act.guess
        verdict, _ = alice.adjudicate(prep, guess, None, rng)
        _validate_verdict(verdict, guess)
        if kind is RoundKind.CHECKING:
            check = bob_check(act.stored, verdict.claimed, rng)
    else:
        if params.noise_lambda > 0.0:
            raise ValueError("transit noise is not supported for entangled senders")
        kind = RoundKind.CHECKING if rng.random() < params.r else RoundKind.NORMAL
        if kind is RoundKind.NORMAL:
            povm = bob.measurement_povm()
            if povm is not None:
                k, kept, _ = remote_povm_collapse(joint, povm, rng)
                guess = povm.labels[k]
                alice_system = kept
            else:
                guess = bob.blind_guess(rng)
                alice_system = joint
            verdict, _ = alice.adjudicate(prep, guess, alice_system, rng)
            _validate_verdict(verdict, guess)
        else:
            guess = uniform_label(rng)
            verdict, bob_after = alice.adjudicate(prep, guess, joint, rng)
            _validate_verdict(verdict, guess)
            if bob_after is None:
                raise ProtocolFault(
                    "alice", "entangled sender must surrender the collapsed qubit for checking")
            check = bob_check(bob_after, verdict.claimed, rng)

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

"""Shared helpers: tolerance-free randomness plumbing, binomial bars and
round counts recomputed from transcripts."""

import math
import random
from typing import NamedTuple

import numpy as np
import pytest

from trinegamble.protocol import CheckResult, RoundKind, RoundResult
from trinegamble.qubit import LABELS, PureState, TwoQubitState
from trinegamble.strategies import EntangledAlice, in_plane_state


def four_sigma(p: float, n: int) -> float:
    """4 binomial standard errors for a rate estimated from n draws."""
    return 4.0 * math.sqrt(p * (1.0 - p) / n)


def random_pure(rng: np.random.Generator) -> PureState:
    raw = rng.standard_normal(4)
    return PureState.from_unnormalized(complex(raw[0], raw[1]), complex(raw[2], raw[3]))


def random_basis(rng: np.random.Generator):
    u = random_pure(rng)
    return (u, u.orthogonal())


def random_pair(rng: np.random.Generator) -> TwoQubitState:
    raw = rng.standard_normal(8)
    return TwoQubitState.from_unnormalized(
        complex(raw[0], raw[1]), complex(raw[2], raw[3]),
        complex(raw[4], raw[5]), complex(raw[6], raw[7]),
    )


def closed_form_attack() -> EntangledAlice:
    """The entangled attack with gain 2 - r(R+2)(2 - sqrt 3)/4: phi_plus, the
    in-plane basis at angle(g) + pi/2, and the claim 2pi/3 on from g on
    outcome 0, 2pi/3 back on outcome 1."""
    after = {"a": "b", "b": "c", "c": "a"}
    before = {lab: prev for prev, lab in after.items()}
    basis = {}
    for g, angle in zip(LABELS, (0.0, 2.0 * math.pi / 3.0, -2.0 * math.pi / 3.0)):
        u = in_plane_state(angle + math.pi / 2.0)
        basis[g] = (u, u.orthogonal())
    claims = {(g, j): (after if j == 0 else before)[g] for g in LABELS for j in (0, 1)}
    return EntangledAlice(TwoQubitState.phi_plus(), basis, claims)


class Tally(NamedTuple):
    rounds: int
    wins: int
    losses: int
    checks: int
    accusations: int
    alice_total: float
    bob_total: float


def tally(transcripts) -> Tally:
    """Counts recomputed from transcripts, independently of the driver."""
    ts = list(transcripts)
    wins = sum(t.verdict.result is RoundResult.BOB_WON for t in ts)
    checks = [t for t in ts if t.kind is RoundKind.CHECKING]
    return Tally(len(ts), wins, len(ts) - wins, len(checks),
                 sum(t.check is CheckResult.ACCUSE for t in checks),
                 sum(t.alice_delta for t in ts), sum(t.bob_delta for t in ts))


@pytest.fixture
def rng():
    """Plain stdlib stream; anything with .random() drives the engine."""
    return random.Random(0xC0FFEE)

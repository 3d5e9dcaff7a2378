"""Shared helpers: tolerance-free randomness plumbing, binomial bars,
round counts and results recomputed from transcripts, and the loop that
plays a reference round one row of uniforms at a time.

The reference reads montecarlo._round_words, the Philox words the branch
table compares, and turns each into its uniform as numpy does, so a test
that swaps in other words drives the engine and the reference alike."""

import math
import random
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest

from trinegamble import montecarlo
from trinegamble.montecarlo import SimResult
from trinegamble.protocol import (
    CheckResult,
    MonitorDecision,
    RoundKind,
    RoundResult,
    abort_monitor,
)
from trinegamble.qubit import LABELS, PureState, TwoQubitState
from trinegamble.strategies import EntangledAlice, in_plane_state


def uniforms(words) -> np.ndarray:
    """The uniforms of Philox words, (w >> 11) * 2**-53, as Generator.random
    makes them."""
    return (np.asarray(words, dtype=np.uint64) >> 11) * 2.0 ** -53


def words_of(u) -> np.ndarray:
    """The word of the greatest uniform the stream can produce at or below
    each of u: a uniform it can produce maps to its own word, with the 11
    bits the uniform drops set to zero."""
    return np.floor(np.asarray(u, dtype=float) * 2.0 ** 53).astype(np.uint64) << 11


def words_beside(t: float) -> list:
    """The ends of the word range, and the words on either side of t's word
    threshold: the first and last word of the uniform just below it, and of
    the first uniform at or above it."""
    first = montecarlo._word_threshold(t) << 11
    near = [first - 2048, first - 1, first, first + 2047]
    return [0, 2 ** 64 - 1] + [w for w in near if 0 <= w < 2 ** 64]


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


def reference_result(transcripts, aborted) -> SimResult:
    """The SimResult of the given rounds, recomputed from them alone: the
    mean from math.fsum of the payoffs, which rounds their exact total
    once, and the sum of squares from exact rationals."""
    counts = tally(transcripts)
    n = counts.rounds
    payoffs = Counter(t.alice_delta for t in transcripts)
    mean = math.fsum(t.alice_delta for t in transcripts) / n
    s2 = float(sum(count * Fraction(d) ** 2 for d, count in payoffs.items()))
    stderr = 0.0
    if n > 1:
        var = (s2 - n * mean * mean) / (n - 1)
        stderr = math.nan if math.isnan(var) else math.sqrt(max(0.0, var) / n)
    return SimResult(n, mean, -mean, stderr, counts.wins, counts.losses, counts.checks,
                     counts.accusations, aborted)


def play_reference(play, params, seed, start, count, played) -> bool:
    """Play rounds [start, start + count) one at a time, each through
    play(rng) on its row of uniforms, and append each round's transcript to
    played. Stops after the round that trips the abort monitor and returns
    whether one did; a round that raises is not appended."""
    rng = montecarlo._RoundRng()
    checks = accs = 0
    for row in uniforms(montecarlo._round_words(seed, start, count)).tolist():
        rng.row, rng.pos = row, 0
        t = play(rng)
        played.append(t)
        if t.kind is RoundKind.CHECKING:
            checks += 1
            accs += t.check is CheckResult.ACCUSE
            if (params.abort_threshold is not None
                    and abort_monitor(checks, accs, params) is MonitorDecision.ABORT):
                return True
    return False


def play_engine(alice, bob, params, seed, start, count):
    """The package's result for rounds [start, start + count), from the
    block's row counts, and the transcripts it handed its sink."""
    table = montecarlo._compile(alice, bob, params)
    played = []
    counts, aborted = montecarlo._block_counts(alice, table, params, seed, start, count,
                                               played.extend)
    return montecarlo._result(table, counts, aborted), played


def transcript_player(alice, bob, params):
    """round_player over the separable table of alice and bob, returning
    each round's transcript instead of its row."""
    table = montecarlo._separable_table(alice, bob, params)
    play = montecarlo.round_player(alice, table, params)
    return lambda rng: table.transcripts[play(rng)]


@pytest.fixture
def rng():
    """Plain stdlib stream; anything with .random() drives the engine."""
    return random.Random(0xC0FFEE)

"""Monte Carlo driver and exact expectation oracle for the gambling game.

Reproducibility scheme: round i consumes at most eight uniforms, taken
from row i of an implicit Philox(key=seed) matrix of shape (rounds, 8).
Any contiguous block of rows regenerates bit-identically from the counter
offset, so every round's randomness is a pure function of (seed, round
index) no matter how rounds are partitioned across workers. Worker counts
only change float accumulation order in the reported means.

Abort monitoring and transcript streaming are inherently sequential (the
monitor reads the running counts in round order), so those runs play in
one process regardless of the configured worker count; identical per-round
randomness keeps the outcomes consistent either way.
"""

from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .protocol import (
    CheckResult,
    MonitorDecision,
    ProtocolParams,
    RoundKind,
    RoundResult,
    abort_monitor,
    run_round,
)
from .qubit import (
    LABELS,
    born_probabilities,
    check_fail_probability,
    depolarize,
    optimal_povm,
    trine_states,
)
from .strategies import FixedStateCheat, HonestAlice, MixtureCheat

DRAWS_PER_ROUND = 8
_CHUNK = 1 << 16
# payoff variance (and mean gap) below which a branch table counts as
# deterministic; zero-probability branches leave residue far below it
_DEGENERATE_TOL = 1e-12


class DeterministicDivergence(Exception):
    """A zero-variance simulation disagreed with its expected value."""


@dataclass(frozen=True)
class SimConfig:
    rounds: int
    seed: int
    params: ProtocolParams
    alice: object
    bob: object
    workers: int = 1

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError(f"need at least one round, got {self.rounds!r}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must be a uint64, got {self.seed!r}")
        if self.workers < 1:
            raise ValueError(f"need at least one worker, got {self.workers!r}")


@dataclass(frozen=True)
class SimResult:
    """Aggregates of one simulation; rounds is the executed count, which is
    short of the request only when the abort monitor tripped."""

    rounds: int
    mean_gain_alice: float
    mean_gain_bob: float
    stderr: float
    win_count: int
    lose_count: int
    check_count: int
    accuse_count: int
    aborted: bool

    def to_record(self) -> dict:
        return dataclasses.asdict(self)


class _RoundRng:
    """Cursor over one round's budgeted uniforms; exposes only random()."""

    __slots__ = ("row", "pos")

    def random(self) -> float:
        v = self.row[self.pos]
        self.pos += 1
        return v


def _round_rows(seed: int, start: int, count: int) -> list:
    bits = np.random.Philox(key=seed, counter=(start * DRAWS_PER_ROUND) // 4)
    return np.random.Generator(bits).random((count, DRAWS_PER_ROUND)).tolist()


def _block_sums(alice, bob, params, seed, start, count, sink=None):
    """Play rounds [start, start + count) in order and total them: (rounds,
    sum, sumsq, wins, losses, checks, accusations, aborted).

    Every round goes to sink, when given, before the abort monitor looks at
    it, so the round that trips the monitor is still written; rounds is
    short of count only when the monitor tripped.
    """
    rng = _RoundRng()
    s1 = 0.0
    s2 = 0.0
    wins = losses = checks = accs = 0
    monitor_on = params.abort_threshold is not None
    checking = RoundKind.CHECKING
    bob_won = RoundResult.BOB_WON
    accuse = CheckResult.ACCUSE
    abort = MonitorDecision.ABORT
    aborted = False
    done = 0
    while done < count and not aborted:
        n = min(_CHUNK, count - done)
        rows = _round_rows(seed, start + done, n)
        for row in rows:
            rng.row = row
            rng.pos = 0
            t = run_round(alice, bob, params, rng)
            kind, _, _, verdict, check, a_delta, _ = t
            s1 += a_delta
            s2 += a_delta * a_delta
            if verdict.result is bob_won:
                wins += 1
            else:
                losses += 1
            if kind is checking:
                checks += 1
                if check is accuse:
                    accs += 1
            if sink is not None:
                sink(t)
            if monitor_on and kind is checking:
                if abort_monitor(checks, accs, params) is abort:
                    aborted = True
                    break
        done += n
    return wins + losses, s1, s2, wins, losses, checks, accs, aborted


def _result_from_sums(n, s1, s2, wins, losses, checks, accs, aborted) -> SimResult:
    mean = s1 / n
    if n > 1:
        var = max(0.0, (s2 - n * mean * mean) / (n - 1))
        stderr = math.sqrt(var / n)
    else:
        stderr = 0.0
    return SimResult(n, mean, -mean, stderr, wins, losses, checks, accs, bool(aborted))


def _worker(args):
    return _block_sums(*args)


def simulate(config: SimConfig, transcript_sink=None) -> SimResult:
    """Run the configured number of rounds and aggregate.

    Per-round randomness depends only on (seed, round index); identical
    configs give bit-identical results. With the abort monitor enabled the
    run stops at the first tripping round and reports the partial totals
    with aborted = True.
    """
    params = config.params
    workers = min(config.workers, config.rounds)
    if transcript_sink is not None or params.abort_threshold is not None or workers <= 1:
        return _result_from_sums(*_block_sums(config.alice, config.bob, params, config.seed,
                                              0, config.rounds, transcript_sink))
    base, extra = divmod(config.rounds, workers)
    jobs = []
    start = 0
    for w in range(workers):
        count = base + (1 if w < extra else 0)
        jobs.append((config.alice, config.bob, params, config.seed, start, count))
        start += count
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(_worker, jobs))
    totals = parts[0]
    for part in parts[1:]:
        totals = [a + b for a, b in zip(totals, part)]
    return _result_from_sums(*totals)


@dataclass(frozen=True)
class ExactExpectation:
    """Exact per-round expectation from full branch enumeration."""

    g_alice: float
    branch_table: tuple

    def __post_init__(self):
        total = math.fsum(prob for _, prob, _ in self.branch_table)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"branch probabilities must sum to 1, got {total!r}")


def enumerate_exact(alice, params: ProtocolParams) -> ExactExpectation:
    """Expected sender gain against the honest receiver, exactly.

    Walks the full discrete outcome tree: mixture component x round kind x
    guess x check outcome. Separable senders only; entangled policies have
    no finite component decomposition here and are rejected (tests evaluate
    them through the joint distribution instead).
    """
    trine = trine_states()
    if isinstance(alice, HonestAlice):
        comps = [(1.0 / 3.0, trine[lab], lab, f"trine:{lab}") for lab in LABELS]
    elif isinstance(alice, FixedStateCheat):
        comps = [(1.0, alice.state, alice.claim, f"fixed:claim={alice.claim}")]
    elif isinstance(alice, MixtureCheat):
        comps = [(p, s, c, f"mix:{i}:claim={c}")
                 for i, (p, s, c) in enumerate(alice.components)]
    else:
        raise ValueError(
            f"exact enumeration supports separable senders only, got {type(alice).__name__}")

    povm = optimal_povm()
    lam = params.noise_lambda
    r = params.r
    win = params.win_payout
    lose = params.lose_payout
    rows = []
    for pc, state, claim, desc in comps:
        eff = depolarize(state.density(), lam) if lam > 0.0 else state
        probs = born_probabilities(eff, povm)
        w_normal = pc * (1.0 - r)
        for k, lab in enumerate(povm.labels):
            payoff = -win if lab == claim else lose
            rows.append((f"{desc}|normal|guess={lab}", w_normal * probs[k], payoff))
        q_fail = check_fail_probability(eff, claim)
        q_pass = 1.0 - q_fail
        w_check = pc * r / 3.0
        for lab in LABELS:
            payoff = -win if lab == claim else lose
            rows.append((f"{desc}|checking|guess={lab}|pass", w_check * q_pass, payoff))
            rows.append((f"{desc}|checking|guess={lab}|accuse", w_check * q_fail, -params.R))
    # fsum keeps the heavy cancellation between win and loss rows from
    # leaking rounding error into tight closed-form comparisons
    g = math.fsum(prob * payoff for _, prob, payoff in rows)
    return ExactExpectation(g, tuple(rows))


def compare_stats(result: SimResult, exact: ExactExpectation) -> float:
    """z-score of the simulated sender mean against the exact expectation.

    The spread is the run's own standard error, or, when the run shows none
    (one round, or equal payoffs by chance), the one the branch table
    predicts for that many rounds. A table with no spread (to _DEGENERATE_TOL)
    fixes every round's payoff: a run that misses its mean went wrong
    deterministically and no amount of extra rounds would fix it.
    """
    g = exact.g_alice
    var = math.fsum(prob * (payoff - g) ** 2 for _, prob, payoff in exact.branch_table)
    diff = result.mean_gain_alice - g
    if var <= _DEGENERATE_TOL:
        if abs(diff) <= _DEGENERATE_TOL * max(1.0, abs(g)):
            return 0.0
        raise DeterministicDivergence(
            f"zero-variance run produced {result.mean_gain_alice!r}, expected {g!r}")
    return diff / (result.stderr or math.sqrt(var / result.rounds))

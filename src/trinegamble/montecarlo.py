"""Monte Carlo driver and exact expectation oracle for the gambling game.

Reproducibility scheme: round i consumes at most eight uniforms, taken
from row i of an implicit Philox(key=seed) matrix of shape (rounds, 8).
Any contiguous block of rows regenerates bit-identically from the counter
offset, so every round's randomness is a pure function of (seed, round
index) no matter how rounds are partitioned across workers. Worker counts
only change float accumulation order in the reported means.

Two paths play a block of rows. The scalar loop hands each row to
protocol.run_round and is the reference. A sender that is exactly an
EntangledAlice, against a BobStrategy receiver, with no transcript sink,
no abort monitor and no channel noise, is compiled instead into its
branch table: eighteen branches (normal round: receiver's outcome or
blind guess x sender's outcome; checking round: guess x sender's outcome
x pass or accuse) with the thresholds each uniform is compared against.
numpy then plays a whole chunk of rows at once, reading the same uniforms
in the same order as run_round and adding the payoffs strictly left to
right, so the same rows give the same totals, bit for bit. Every other
run takes the scalar loop. Compiled against the honest receiver, the same
table is the exact oracle's answer for entangled senders.

The scalar loop computes each per-branch value once per run, not once
per round: the channel's output for each prepared state
(protocol.received_state) and the honest receiver's POVM probabilities for
each received state (qubit.cached_born_probabilities) are kept on the
immutable state objects, and the CLI renders each distinct transcript line
once. They are pure functions of the state, the noise strength and the
POVM, computed by the same code as before, and every round still draws the
same uniforms in the same order, so the totals are bit-identical to
computing them afresh each round. The scalar loop turns its rows into
Python floats _SCALAR_CHUNK rows at a time, about a megabyte of them; the
table path reads _CHUNK rows at a time. Either way the rows, and their
order, are the same.

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
from typing import NamedTuple, Optional

import numpy as np

from .protocol import (
    CheckResult,
    MonitorDecision,
    ProtocolParams,
    RoundKind,
    RoundResult,
    abort_monitor,
    received_state,
    run_round,
)
from .qubit import (
    LABELS,
    born_probabilities,
    check_fail_probability,
    local_measure_branches,
    optimal_povm,
    outcome_bounds,
    remote_povm_branches,
    trine_states,
)
from .strategies import BobStrategy, EntangledAlice, FixedStateCheat, HonestAlice, MixtureCheat

DRAWS_PER_ROUND = 8
_CHUNK = 1 << 16
_SCALAR_CHUNK = 1 << 12
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


def _round_rows(seed: int, start: int, count: int) -> np.ndarray:
    bits = np.random.Philox(key=seed, counter=(start * DRAWS_PER_ROUND) // 4)
    return np.random.Generator(bits).random((count, DRAWS_PER_ROUND))


def _block_sums(alice, bob, params, seed, start, count, sink=None):
    """Play rounds [start, start + count) in order and total them: (rounds,
    sum, sumsq, wins, losses, checks, accusations, aborted).

    An entangled sender plays from its branch table when nothing needs the
    rounds one by one; everything else takes the scalar loop. Both paths
    return the same tuple for the same rounds.
    """
    if (sink is None and params.abort_threshold is None and params.noise_lambda == 0.0
            and type(alice) is EntangledAlice and type(bob) is BobStrategy):
        return _table_sums(_entangled_table(alice, bob, params), seed, start, count)
    return _scalar_sums(alice, bob, params, seed, start, count, sink)


def _scalar_sums(alice, bob, params, seed, start, count, sink=None):
    """_block_sums through run_round, one round at a time: the reference.

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
        n = min(_SCALAR_CHUNK, count - done)
        rows = _round_rows(seed, start + done, n).tolist()
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


# normal-round branches come first in a branch table, checking rounds after
_NORMAL = 2 * len(LABELS)


class _BranchTable(NamedTuple):
    """An entangled sender and a receiver as a finite branch tree.

    Branch 2 * x + j is a normal round in which the receiver's outcome or
    blind guess has index x and the sender's outcome is j; branch
    _NORMAL + 2 * (2 * g + j) + fail is a checking round on guess g.
    exact_rows gives each branch's (name, probability, payoff); the arrays
    are what _table_branches compares the uniforms with and reads back.
    """

    r: float
    bounds: Optional[tuple]  # sample_outcome's interval ends; None for a blind receiver
    p0_normal: np.ndarray  # P(j = 0) per receiver outcome, from the kept state
    p0_local: np.ndarray  # P(j = 0) per guess, on the unmeasured pair
    p_fail: np.ndarray  # check failure per (guess, j), at 2 * g + j
    exact_rows: tuple
    delta: np.ndarray  # sender's payoff and its square, per branch
    delta_sq: np.ndarray
    won: np.ndarray  # the receiver's guess matched the claim
    accused: np.ndarray
    faults: tuple  # None, or the (exception type, message) a sampled branch raises


def _entangled_table(alice, bob, params) -> _BranchTable:
    """Compile an EntangledAlice and a BobStrategy into their branch table.

    Every threshold comes from the helper, and in the order, that the
    scalar round uses: the receiver's POVM intervals from outcome_bounds,
    the kept state's p0 as EntangledAlice.adjudicate computes it, and the
    check from check_fail_probability on the collapsed state. A branch the
    scalar round could not finish (an unnormalisable collapse, or POVM
    probabilities that do not sum to 1) carries the error it would raise.
    """
    psi, basis, claims = alice.psi, alice.basis_policy, alice.claim_policy
    r, R = params.r, params.R
    win, lose = params.win_payout, params.lose_payout
    exact_rows, deltas, won, accused, faults = [], [], [], [], []

    def branch(name, prob, guess, claim, accuse, fault):
        delta = -R if accuse else (-win if guess == claim else lose)
        exact_rows.append((f"entangled|{name}", prob, delta))
        deltas.append(delta)
        won.append(guess == claim)
        accused.append(accuse)
        faults.append(fault)

    def split(p0):
        # the sender's j = 0 fires when p0 > 0 and the uniform lies below p0
        q0 = min(p0, 1.0)
        return (q0, 1.0 - q0)

    p0_local, p_fail, local = [], [], []
    for g in LABELS:
        pairs = local_measure_branches(psi, basis[g])
        p0_local.append(pairs[0][0])
        for j, (_, state) in enumerate(pairs):
            claim = claims[(g, j)]
            if state is None:
                fault = (AssertionError, "sampled a zero-probability measurement branch")
                p_fail.append(0.0)
            else:
                fault = None
                p_fail.append(check_fail_probability(state, claim))
            local.append((g, j, claim, split(pairs[0][0])[j], fault))

    povm = bob.measurement_povm()
    if povm is None:
        bounds = None
        p0_normal = p0_local
        for g, j, claim, q, fault in local:
            branch(f"normal|guess={g}|j={j}", (1.0 - r) / 3.0 * q, g, claim, False, fault)
    else:
        pairs = remote_povm_branches(psi, povm)
        probs = [p for p, _ in pairs]
        try:
            bounds = outcome_bounds(probs)
            ends = (0.0, *bounds, 1.0)
            widths = [b - a for a, b in zip(ends, ends[1:])]
            sum_fault = None
        except ValueError as exc:
            bounds = (0.0,) * (len(probs) - 1)
            widths = probs  # their total is off, and the exact table says so
            sum_fault = (ValueError, str(exc))
        p0_normal = []
        for k, (guess, (_, kept)) in enumerate(zip(povm.labels, pairs)):
            if kept is None:
                p0 = 0.0
                fault = (AssertionError, "sampled a zero-probability POVM branch")
            else:
                p0 = basis[guess][0].fidelity(kept)
                fault = None
            p0_normal.append(p0)
            for j, q in enumerate(split(p0)):
                branch(f"normal|guess={guess}|j={j}", (1.0 - r) * widths[k] * q,
                       guess, claims[(guess, j)], False, sum_fault or fault)

    for (g, j, claim, q, fault), pf in zip(local, p_fail):
        w = r / 3.0 * q
        branch(f"checking|guess={g}|j={j}|pass", w * (1.0 - pf), g, claim, False, fault)
        branch(f"checking|guess={g}|j={j}|accuse", w * pf, g, claim, True, fault)

    return _BranchTable(
        r, bounds, np.array(p0_normal), np.array(p0_local), np.array(p_fail), tuple(exact_rows),
        np.array(deltas, dtype=float), np.array([float(d * d) for d in deltas]),
        np.array(won), np.array(accused), tuple(faults))


def _table_branches(t: _BranchTable, u: np.ndarray) -> np.ndarray:
    """The branch each row of uniforms plays, as run_round reads them:
    column 0 the round kind, 1 the guess or the receiver's outcome, 2 the
    sender's outcome j, and 3 the check, which reads column 2 instead when
    p0 == 0 (the sender's outcome then draws nothing)."""
    guess = (u[:, 1] * 3.0).astype(np.intp)
    p0 = t.p0_local[guess]
    local = 2 * guess + (u[:, 2] >= p0)
    check_u = np.where(p0 > 0.0, u[:, 3], u[:, 2])
    checking = _NORMAL + 2 * local + (check_u < t.p_fail[local])
    if t.bounds is None:
        normal = local
    else:
        outcome = np.searchsorted(t.bounds, u[:, 1], side="right")
        normal = 2 * outcome + (u[:, 2] >= t.p0_normal[outcome])
    return np.where(u[:, 0] < t.r, checking, normal)


def _accumulate(total: float, values: np.ndarray) -> float:
    # strictly left to right, as the scalar loop adds, so the sum is bit-identical
    values[0] += total
    return float(np.add.accumulate(values, out=values)[-1])


def _table_sums(t: _BranchTable, seed, start, count):
    """_block_sums from a branch table, one chunk of rows at a time."""
    s1 = s2 = 0.0
    counts = np.zeros(len(t.delta), dtype=np.int64)
    faulty = np.array([f is not None for f in t.faults])
    done = 0
    while done < count:
        n = min(_CHUNK, count - done)
        branch = _table_branches(t, _round_rows(seed, start + done, n))
        if faulty.any():
            hit = faulty[branch]
            if hit.any():
                kind, message = t.faults[branch[hit.argmax()]]
                raise kind(message)
        s1 = _accumulate(s1, t.delta[branch])
        s2 = _accumulate(s2, t.delta_sq[branch])
        counts += np.bincount(branch, minlength=len(counts))
        done += n
    wins = int(counts[t.won].sum())
    checks = int(counts[_NORMAL:].sum())
    accs = int(counts[t.accused].sum())
    return count, s1, s2, wins, count - wins, checks, accs, False


def _result_from_sums(n, s1, s2, wins, losses, checks, accs, aborted) -> SimResult:
    mean = s1 / n
    if n > 1:
        var = (s2 - n * mean * mean) / (n - 1)
        # max() would turn a NaN variance into 0.0 and hide it
        stderr = math.nan if math.isnan(var) else math.sqrt(max(0.0, var) / n)
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
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"branch probabilities must sum to 1, got {total!r}")


def enumerate_exact(alice, params: ProtocolParams) -> ExactExpectation:
    """Expected sender gain against the honest receiver, exactly.

    Walks the full discrete outcome tree. A separable sender's rows are
    mixture component x round kind x guess x check outcome. An entangled
    sender's rows are her branch table, the one the simulation plays:
    ``entangled|normal|guess=g|j=..`` for the receiver's outcome g and her
    outcome j, and ``entangled|checking|guess=g|j=..|pass`` or ``|accuse``.
    Entangled senders support no channel noise, as in the simulation.
    """
    if isinstance(alice, EntangledAlice):
        if params.noise_lambda > 0.0:
            raise ValueError("transit noise is not supported for entangled senders")
        table = _entangled_table(alice, BobStrategy.honest_optimal(), params)
        return _expectation(table.exact_rows)
    trine = trine_states()
    if isinstance(alice, HonestAlice):
        comps = [(1.0 / 3.0, trine[lab], lab, f"trine:{lab}") for lab in LABELS]
    elif isinstance(alice, FixedStateCheat):
        comps = [(1.0, alice.state, alice.claim, f"fixed:claim={alice.claim}")]
    elif isinstance(alice, MixtureCheat):
        comps = [(p, s, c, f"mix:{i}:claim={c}")
                 for i, (p, s, c) in enumerate(alice.components)]
    else:
        raise ValueError(f"exact enumeration does not support {type(alice).__name__}")

    povm = optimal_povm()
    lam = params.noise_lambda
    r = params.r
    win = params.win_payout
    lose = params.lose_payout
    rows = []
    for pc, state, claim, desc in comps:
        eff = received_state(state, lam)
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
    return _expectation(rows)


def _expectation(rows) -> ExactExpectation:
    # fsum keeps the heavy cancellation between win and loss rows from
    # leaking rounding error into tight closed-form comparisons
    return ExactExpectation(math.fsum(prob * payoff for _, prob, payoff in rows), tuple(rows))


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

"""Monte Carlo driver and exact expectation oracle for the gambling game.

Reproducibility scheme: round i consumes at most eight uniforms, taken
from row i of an implicit Philox(key=seed) matrix of shape (rounds, 8).
Any contiguous block of rows regenerates bit-identically from the counter
offset, so every round's randomness is a pure function of (seed, round
index) no matter how rounds are partitioned. simulate splits a run into
``workers`` contiguous blocks, totals them in block order and plays them on
at most os.cpu_count() processes: the worker count only changes float
accumulation order in the reported means, and the process count nothing.

Every sender is compiled, once per block, into one branch table: the
single description of her game, read by both the sampler and the exact
oracle. Each row carries its transcript (built by
protocol.leaf_transcript), its exact (name, probability, payoff), and
the table holds the thresholds each uniform is compared against. Every
threshold comes from one helper in qubit: outcome_bounds for the
receiver's POVM outcome, local_measure_branches and remote_povm_branches
for the pair, check_fail_probability for the check. enumerate_exact sums
the rows of the table compiled against the honest receiver.

A separable sender's table (_separable_table) has nine rows per
preparation: a normal round on each receiver outcome or blind guess, or
a checking round on each guess that passes or accuses. round_player is
a view over it: it turns one round's uniforms into a row index (prepare,
the round kind, the guess bisected into the preparation's outcome bounds
or drawn blind, then the check) and returns that row's transcript, and
the scalar loop plays it round by round. Separable senders stay on that
loop until the benchmark's statistical check stops raising false alarms
at the pass counts numpy would reach. An entangled sender's table
(_entangled_table) has eighteen rows (normal round: receiver's outcome or
blind guess x her outcome; checking round: guess x her outcome x pass or
accuse). numpy plays a chunk of its rows at once and adds the payoffs
strictly left to right, so the totals are bit-identical to playing the
rows one at a time (tests/entangled_reference.py). Each row does only the
work of its own round kind: at r = 0.05 that took the benchmark's
entangled-scan workload from 3.65M to 5.82M rounds/s (BENCH_8.json).
With the abort monitor on, a chunk's checking rows go through
abort_monitor in order and the chunk ends at the tripping row.

Both engines read the receiver only through measurement_povm(), keep
their table to themselves for the block, and hand out one prebuilt
transcript object per row, so the CLI renders each object's line once.
The scalar loop reads _SCALAR_CHUNK rows at a time, the table _CHUNK
rows. A transcript sink is called once per chunk, with the list of that
chunk's transcripts in round order; the list ends at the round that trips
the monitor, or before the round that raises.

Abort monitoring and transcript streaming are sequential (the monitor
reads the running counts in round order), so those runs play in one
process whatever the worker count.
"""

from __future__ import annotations

import dataclasses
import math
import os
from bisect import bisect_right
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
    RoundTranscript,
    abort_monitor,
    leaf_transcript,
    received_state,
)
from .qubit import (
    LABELS,
    born_probabilities,
    check_fail_probability,
    local_measure_branches,
    outcome_bounds,
    remote_povm_branches,
)
from .strategies import BobStrategy, EntangledAlice

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


class _SeparableTable(NamedTuple):
    """A separable sender and a receiver as rows, stride = len(labels) + 6
    of them per preparation. For preparation i, row i * stride + k is a
    normal round on the receiver's outcome or blind guess k, and row
    i * stride + len(labels) + 2 * g + fail a checking round on guess g
    that passes (fail = 0) or accuses. exact_rows gives each row's (name,
    probability, payoff) and transcripts the round a row on it plays;
    p_fail and bounds are what round_player compares the uniforms with.
    """

    labels: tuple  # the receiver's outcome labels; LABELS for a blind guess
    p_fail: tuple  # the check's failure probability per preparation
    bounds: Optional[tuple]  # outcome_bounds per preparation; None for a blind receiver
    exact_rows: tuple
    transcripts: tuple


def _separable_table(alice, bob, params) -> _SeparableTable:
    """Compile a separable sender and a receiver into their rows.

    Each (weight, preparation) of alice.preparations gives the
    received_state of its wire, the check's failure probability on that
    state for its claim, and the receiver's Born probabilities on it and
    their outcome_bounds; a blind receiver names each label with
    probability 1/3. Every row's transcript comes from leaf_transcript, so
    the sampler and the exact oracle read the same rows.
    """
    preparations = getattr(alice, "preparations", None)
    if preparations is None:
        raise ValueError(f"cannot tabulate {type(alice).__name__}: it is not entangled "
                         "and lists no preparations")
    povm = bob.measurement_povm()
    labels = LABELS if povm is None else povm.labels
    r = params.r
    p_fail, bounds, exact_rows, transcripts = [], [], [], []

    def row(prep, kind, prob, guess, check):
        t = leaf_transcript(kind, prep.descriptor, guess, prep.claim, check, params)
        name = f"{prep.descriptor}|{kind.value}|guess={guess}"
        exact_rows.append((name if check is None else f"{name}|{check.value}", prob,
                           t.alice_delta))
        transcripts.append(t)

    for pc, prep in preparations:
        received = received_state(prep.wire, params.noise_lambda)
        if povm is None:
            probs = (1.0 / 3.0,) * len(labels)
        else:
            probs = born_probabilities(received, povm)
            bounds.append(outcome_bounds(probs))
        q_fail = check_fail_probability(received, prep.claim)
        p_fail.append(q_fail)
        w_normal = pc * (1.0 - r)
        for lab, p in zip(labels, probs):
            row(prep, RoundKind.NORMAL, w_normal * p, lab, None)
        w_check = pc * r / 3.0
        q_pass = 1.0 - q_fail
        for g in LABELS:
            row(prep, RoundKind.CHECKING, w_check * q_pass, g, CheckResult.PASS)
            row(prep, RoundKind.CHECKING, w_check * q_fail, g, CheckResult.ACCUSE)
    return _SeparableTable(labels, tuple(p_fail), None if povm is None else tuple(bounds),
                           tuple(exact_rows), tuple(transcripts))


def round_player(alice, bob, params: ProtocolParams):
    """Compile a separable sender and a receiver for one run into their
    _separable_table and return play(rng), which plays one full round and
    returns the transcript of the row it lands on.

    The sender prepares first. The round kind is drawn next, Bernoulli(r),
    before the receiver touches the qubit; the sender never learns it
    except through the payout. In a checking round the receiver stores the
    qubit and guesses uniformly, and the check tests the claim she committed
    to in prepare; in a normal round he bisects one uniform into his POVM's
    outcome bounds, or guesses uniformly when he is blind.
    """
    table = _separable_table(alice, bob, params)
    transcripts, p_fail, bounds = table.transcripts, table.p_fail, table.bounds
    normal = len(table.labels)
    stride = normal + 2 * len(LABELS)
    # the bound method keeps the sender, and so her preparations and their ids
    index = {id(prep): i for i, (_, prep) in enumerate(alice.preparations)}
    prepare, r = alice.prepare, params.r

    def play(rng) -> RoundTranscript:
        i = index[id(prepare(rng))]
        if rng.random() < r:
            row = i * stride + normal + 2 * int(rng.random() * 3.0)
            return transcripts[row + (rng.random() < p_fail[i])]
        if bounds is None:
            return transcripts[i * stride + int(rng.random() * 3.0)]
        return transcripts[i * stride + bisect_right(bounds[i], rng.random())]

    return play


def _block_sums(alice, bob, params, seed, start, count, sink=None):
    """Play rounds [start, start + count) in order and total them: (rounds,
    sum, sumsq, wins, losses, checks, accusations, aborted).

    An entangled sender plays from her branch table with numpy, every
    other sender round by round through round_player.
    """
    if isinstance(alice, EntangledAlice):
        return _table_sums(_entangled_table(alice, bob, params), seed, start, count,
                           sink, params)
    return _scalar_sums(alice, bob, params, seed, start, count, sink)


def _scalar_sums(alice, bob, params, seed, start, count, sink=None):
    """_block_sums through round_player, compiled once for the block and
    played one round at a time.

    With a sink, each chunk's transcripts are collected in a list, in round
    order, and handed to sink in one call when the chunk ends: at its last
    row, at the round that trips the abort monitor (so that round is still
    written) or, before the error propagates, at a round that raises. A
    chunk that played no round is not handed on. rounds is short of count
    only when the monitor tripped.
    """
    play = round_player(alice, bob, params)
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
        played = []
        keep = played.append
        try:
            for row in rows:
                rng.row = row
                rng.pos = 0
                t = play(rng)
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
                    keep(t)
                if monitor_on and kind is checking:
                    if abort_monitor(checks, accs, params) is abort:
                        aborted = True
                        break
        finally:
            if played:
                sink(played)
        done += n
    return wins + losses, s1, s2, wins, losses, checks, accs, aborted


# normal-round branches come first in a branch table, checking rounds after
_NORMAL = 2 * len(LABELS)


class _BranchTable(NamedTuple):
    """An entangled sender and a receiver as a finite branch tree.

    Branch 2 * x + j is a normal round in which the receiver's outcome or
    blind guess has index x and the sender's outcome is j; branch
    _NORMAL + 2 * (2 * g + j) + fail is a checking round on guess g.
    exact_rows gives each branch's (name, probability, payoff) and
    transcripts the round a row on it plays; the arrays are what
    _table_branches compares the uniforms with and reads back.
    """

    r: float
    bounds: Optional[tuple]  # sample_outcome's interval ends; None for a blind receiver
    p0_normal: np.ndarray  # P(j = 0) per receiver outcome or blind guess
    p0_local: np.ndarray  # P(j = 0) per guess, on the unmeasured pair
    p_fail: np.ndarray  # check failure per (guess, j), at 2 * g + j
    exact_rows: tuple
    transcripts: tuple
    delta: np.ndarray  # sender's payoff and its square, per branch
    delta_sq: np.ndarray
    won: np.ndarray  # the receiver's guess matched the claim
    accused: np.ndarray
    faults: tuple  # None, or the (exception type, message) a sampled branch raises


def _entangled_table(alice, bob, params) -> _BranchTable:
    """Compile an EntangledAlice and a receiver into their branch table.

    The thresholds come from outcome_bounds on the receiver's POVM
    probabilities, the sender's odds on the pair (local_measure_branches)
    or on her kept state (remote_povm_branches), and check_fail_probability
    on the collapsed sent half. The channel depolarizes the sent half with
    weight lam, so the check reads its received_state, and the receiver's
    outcome k and the sender's j occur with probability
    (1 - lam) p_k |<u_j|kept_k>|^2 + lam (w_k / 2) P(j), w_k the element's
    weight and P(j) her odds on the pair. A branch that cannot be played
    (an unnormalisable collapse, or POVM probabilities that do not sum to
    1) carries the error it raises.
    """
    psi, basis, claims = alice.psi, alice.basis_policy, alice.claim_policy
    r, lam = params.r, params.noise_lambda
    exact_rows, transcripts, faults = [], [], []

    def branch(kind, name, prob, guess, claim, check, fault):
        t = leaf_transcript(kind, "entangled", guess, claim, check, params)
        exact_rows.append((f"entangled|{name}", prob, t.alice_delta))
        transcripts.append(t)
        faults.append(fault)

    def split(p0):
        # the sender's j = 0 fires when p0 > 0 and the uniform lies below p0
        q0 = min(p0, 1.0)
        return (q0, 1.0 - q0)

    local = {g: local_measure_branches(psi, basis[g]) for g in LABELS}
    p0_local = [local[g][0][0] for g in LABELS]
    unmeasured = []  # (guess, j, claim, P(j), check failure, fault) per checking branch
    for g, p0 in zip(LABELS, p0_local):
        for j, (_, sent) in enumerate(local[g]):
            claim = claims[(g, j)]
            if sent is None:
                unmeasured.append((g, j, claim, split(p0)[j], 0.0,
                                   (AssertionError, "sampled a zero-probability measurement branch")))
            else:
                pf = check_fail_probability(received_state(sent, lam), claim)
                unmeasured.append((g, j, claim, split(p0)[j], pf, None))

    povm = bob.measurement_povm()
    if povm is None:
        bounds = None
        p0_normal = p0_local
        for g, j, claim, q, _, fault in unmeasured:
            branch(RoundKind.NORMAL, f"normal|guess={g}|j={j}", (1.0 - r) / 3.0 * q,
                   g, claim, None, fault)
    else:
        pairs = remote_povm_branches(psi, povm)
        weights = [w for w, _ in povm.pure_components]
        probs = [(1.0 - lam) * p + lam * w / 2.0 if lam else p
                 for (p, _), w in zip(pairs, weights)]
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
        for k, (guess, (p, kept)) in enumerate(zip(povm.labels, pairs)):
            # on a clean channel p0 is the fidelity itself, not a ratio
            p0 = 0.0 if kept is None else basis[guess][0].fidelity(kept)
            if lam and probs[k]:
                p0 = ((1.0 - lam) * p * p0 + lam * weights[k] / 2.0 * local[guess][0][0]) / probs[k]
            fault = None
            if kept is None and not lam:
                fault = (AssertionError, "sampled a zero-probability POVM branch")
            p0_normal.append(p0)
            for j, q in enumerate(split(p0)):
                branch(RoundKind.NORMAL, f"normal|guess={guess}|j={j}",
                       (1.0 - r) * widths[k] * q, guess, claims[(guess, j)], None,
                       sum_fault or fault)

    for g, j, claim, q, pf, fault in unmeasured:
        w = r / 3.0 * q
        branch(RoundKind.CHECKING, f"checking|guess={g}|j={j}|pass", w * (1.0 - pf),
               g, claim, CheckResult.PASS, fault)
        branch(RoundKind.CHECKING, f"checking|guess={g}|j={j}|accuse", w * pf,
               g, claim, CheckResult.ACCUSE, fault)

    deltas = [t.alice_delta for t in transcripts]
    return _BranchTable(
        r, bounds, np.array(p0_normal), np.array(p0_local),
        np.array([u[4] for u in unmeasured]), tuple(exact_rows),
        tuple(transcripts), np.array(deltas, dtype=float),
        np.array([float(d * d) for d in deltas]),
        np.array([t.verdict.result is RoundResult.BOB_WON for t in transcripts]),
        np.array([t.check is CheckResult.ACCUSE for t in transcripts]), tuple(faults))


def _table_branches(t: _BranchTable, u: np.ndarray) -> np.ndarray:
    """The branch each row of uniforms plays: column 0 the round kind, 1 the
    guess or the receiver's outcome, 2 the sender's outcome j, and 3 the
    check, which reads column 2 instead when p0 == 0 (the sender's outcome
    then draws nothing).

    Every row is played as a normal round first; then only the checking
    rows (column 0 below r) are gathered and played again as checking
    rounds, so no row works out the branch of the other round kind."""
    if t.bounds is None:
        x = (u[:, 1] * 3.0).astype(np.intp)
    else:
        x = np.searchsorted(t.bounds, u[:, 1], side="right")
    branch = 2 * x + (u[:, 2] >= t.p0_normal[x])
    rows = np.flatnonzero(u[:, 0] < t.r)
    c = u[rows, 1:4]
    guess = (c[:, 0] * 3.0).astype(np.intp)
    p0 = t.p0_local[guess]
    local = 2 * guess + (c[:, 1] >= p0)
    check_u = np.where(p0 > 0.0, c[:, 2], c[:, 1])
    branch[rows] = _NORMAL + 2 * local + (check_u < t.p_fail[local])
    return branch


def _accumulate(total: float, values: np.ndarray) -> float:
    # strictly left to right, as the scalar loop adds, so the sum is bit-identical
    values[0] += total
    return float(np.add.accumulate(values, out=values)[-1])


def _trip_row(t: _BranchTable, branch: np.ndarray, counts: np.ndarray, params):
    """Index of the row of branch at which abort_monitor trips, or None.

    The chunk's checking rows go through the monitor in order, their
    checks and accusations running on from the earlier chunks' counts."""
    rows = np.flatnonzero(branch >= _NORMAL)
    checks = int(counts[_NORMAL:].sum())
    accs = np.cumsum(t.accused[branch[rows]]) + int(counts[t.accused].sum())
    for i, a in enumerate(accs.tolist()):
        if abort_monitor(checks + i + 1, a, params) is MonitorDecision.ABORT:
            return int(rows[i])
    return None


def _table_sums(t: _BranchTable, seed, start, count, sink=None, params=None):
    """_block_sums from a branch table, one chunk of rows at a time.

    With params whose abort monitor is on, a chunk ends at the row that
    trips it. sink, when given, then receives the transcripts of the
    chunk's rows as one list, in row order, so the tripping row is written.
    A row on a faulty branch raises after every row before it was handed
    on, unless the monitor tripped first. A chunk that played no row is not
    handed on.
    """
    s1 = s2 = 0.0
    counts = np.zeros(len(t.delta), dtype=np.int64)
    faulty = np.array([f is not None for f in t.faults])
    monitor_on = params is not None and params.abort_threshold is not None
    aborted = False
    done = 0
    while done < count and not aborted:
        n = min(_CHUNK, count - done)
        branch = _table_branches(t, _round_rows(seed, start + done, n))
        fault = None
        if faulty.any():
            hit = faulty[branch]
            if hit.any():
                first = int(hit.argmax())
                fault = t.faults[branch[first]]
                branch = branch[:first]
        if monitor_on:
            trip = _trip_row(t, branch, counts, params)
            if trip is not None:
                branch = branch[:trip + 1]
                aborted = True
                fault = None
        if sink is not None and len(branch):
            sink(list(map(t.transcripts.__getitem__, branch.tolist())))
        if fault is not None:
            kind, message = fault
            raise kind(message)
        s1 = _accumulate(s1, t.delta[branch])
        s2 = _accumulate(s2, t.delta_sq[branch])
        counts += np.bincount(branch, minlength=len(counts))
        done += len(branch)
    wins = int(counts[t.won].sum())
    checks = int(counts[_NORMAL:].sum())
    accs = int(counts[t.accused].sum())
    return done, s1, s2, wins, done - wins, checks, accs, aborted


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

    transcript_sink, when given, is called once per chunk of rounds played
    (at most _SCALAR_CHUNK rounds for a separable sender, _CHUNK for an
    entangled one) with a list of that chunk's RoundTranscripts in round
    order, never an empty one. The lists, joined, are every round of the
    run: the last item is the round that tripped the monitor, if it
    tripped; a round that raises is not in them, and every round before it
    is. Equal transcripts are the same object.
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
    # forking one process per block could start thousands; map keeps block order
    procs = min(workers, os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=procs) as pool:
        parts = list(pool.map(_worker, jobs, chunksize=-(-workers // procs)))
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
    """Expected sender gain against the honest receiver, exactly: the sum
    over the rows of the sender's branch table, the one the simulation
    plays. A separable sender's rows are preparation x round kind x guess
    x check outcome, named ``<descriptor>|normal|guess=g`` and
    ``<descriptor>|checking|guess=g|pass`` or ``|accuse``. An entangled
    sender's are ``entangled|normal|guess=g|j=..`` for the receiver's
    outcome g and her outcome j, and ``entangled|checking|guess=g|j=..|pass``
    or ``|accuse``.
    """
    compile_table = _entangled_table if isinstance(alice, EntangledAlice) else _separable_table
    return _expectation(compile_table(alice, BobStrategy.honest_optimal(), params).exact_rows)


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

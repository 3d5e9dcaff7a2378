"""Monte Carlo driver and exact expectation oracle for the gambling game.

Reproducibility scheme: round i consumes at most eight uniforms, taken
from row i of an implicit Philox(key=seed) matrix of shape (rounds, 8) of
64-bit words; word w stands for the uniform u = (w >> 11) * 2**-53, as
numpy's Generator.random makes it. Any contiguous block of rows
regenerates bit-identically from the counter offset, so every round's
randomness is a pure function of (seed, round index) no matter how rounds
are partitioned. simulate splits a run into at most ``workers``
contiguous blocks, one per thread and at most one per CPU, and every
thread plays the one table that simulate compiled; Philox and numpy
release the GIL, so the blocks play in parallel, and nothing is pickled.
A block counts the rounds that land on each row of the sender's table,
the blocks' counts add as integers, and _result works the totals out
once from them: payoff sums exactly, in integers over the payoffs' common
power-of-two denominator, then rounded once. So the result is the same for
every worker and thread count.

Every sender is compiled into one branch table: the single description
of her game, read by both the sampler and the exact oracle. A separable
sender is compiled once per simulate, an entangled one once per distinct
(sender, receiver, params) key, into a read-only table that every later
simulate and enumerate_exact of that key shares. Each row carries its
transcript (built by protocol.leaf_transcript), its exact (name,
probability, payoff), and the table holds the thresholds each uniform is
compared against. Every threshold comes from one helper in qubit:
outcome_bounds for the receiver's POVM outcome, local_measure_branches
and remote_povm_branches for the pair, check_fail_probability for the
check. enumerate_exact sums the rows of the table compiled against the
honest receiver.

Both tables are played the same way: numpy turns the Philox words of a
chunk of rounds into the row each round lands on, as played one uniform
at a time would (tests/separable_reference.py, tests/entangled_reference.py).
It reads the words themselves, never their floats: a table holds each
threshold t as the integer T = ceil(t * 2**53), clamped to [0, 2**53],
and u < t exactly when (w >> 11) < T; a bisection of u into a list of
bounds, or a guess int(u * 3.0), is the count of such cut-offs at or below
w >> 11. Every row is played as a normal round first, then only the
checking rows are gathered and played as checking rounds.

A separable sender's table (_separable_table) has nine rows per
preparation: a normal round on each receiver outcome or blind guess, or
a checking round on each guess that passes or accuses.
_separable_branches reads a round's words in the order the sender's own
round reads its uniforms: her preparation draw (none for a fixed cheat,
so her words shift by one), the round kind, then the receiver's outcome
bisected into that preparation's outcome bounds or drawn blind, or in a
checking round the guess and the check. Only the three sender families
whose draw the compiler knows are tabulated; any other separable sender
is rejected with a ValueError. An entangled sender's table
(_entangled_table) has eighteen rows (normal round: receiver's outcome
or blind guess x her outcome; checking round: guess x her outcome x pass
or accuse), and _table_branches plays them. With the table compiled once
per key, the benchmark's entangled-scan workload at r = 0.05 went from
5.33M to 6.52M rounds/s (BENCH_20.json), and reading words in place of
floats took it from 6.70M to 8.36M (BENCH_24.json). Playing separable
tables the same way, in place of one Python round at a time, took the
separable-sweep workload from 570k to 7.14M rounds/s (BENCH_26.json).

One loop, _block_counts, plays both tables. A table's chunk function
only turns a chunk of rounds (_SCALAR_CHUNK for a separable sender,
_CHUNK for an entangled one) into the row each round lands on and the
exception of the first round that raised, if any; only an entangled
table has rows that raise. The loop does the rest for both: the abort
monitor reads the chunk's checking rounds in order, through the checking
and accused masks compiled into each table, and cuts the chunk at the
round that trips it; a transcript sink gets the chunk's transcripts as
one list in round order; and the exception is raised after that, unless
the monitor tripped first. Both engines read the receiver only through
measurement_povm(), never write to their table, and hand out one
prebuilt transcript object per row, so the CLI renders each object's
line once.

Abort monitoring and transcript streaming are sequential (the monitor
reads the running counts in round order), so those runs play as one
block whatever the worker count.
"""

from __future__ import annotations

import dataclasses
import math
import operator
import os
from bisect import bisect_left
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .protocol import (
    CheckResult,
    MonitorDecision,
    ProtocolParams,
    RoundKind,
    RoundResult,
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
        for field in ("rounds", "seed", "workers"):
            # an int or numpy integer; a float such as 1.5 is not silently truncated
            try:
                object.__setattr__(self, field, operator.index(getattr(self, field)))
            except TypeError:
                raise ValueError(f"{field} must be an integer, "
                                 f"got {getattr(self, field)!r}") from None
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


def _philox(seed: int, start: int) -> np.random.Philox:
    return np.random.Philox(key=seed, counter=(start * DRAWS_PER_ROUND) // 4)


def _round_words(seed: int, start: int, count: int) -> np.ndarray:
    """Rounds [start, start + count) of the stream, one row of
    DRAWS_PER_ROUND Philox words each; word w stands for the uniform
    u = (w >> 11) * 2**-53."""
    words = _philox(seed, start).random_raw(count * DRAWS_PER_ROUND)
    return words.reshape(count, DRAWS_PER_ROUND)


def _word_threshold(t: float) -> int:
    """The count of the stream's uniforms below t: a word w, whose uniform
    is u = (w >> 11) * 2**-53, has u < t exactly when (w >> 11) < the count,
    and u >= t when not. t * 2**53 is exact below 1.0. A NaN threshold, which
    no uniform is either below or at or above, is rejected."""
    if math.isnan(t):
        raise ValueError("a branch threshold is NaN")
    return math.ceil(min(max(t, 0.0), 1.0) * 2.0 ** 53)


def _word_thresholds(values) -> np.ndarray:
    return _frozen(np.array([_word_threshold(v) for v in values], dtype=np.uint64))


# int(u * 3.0) is the count of these at or below w >> 11: the least w >> 11
# whose uniform gives int(u * 3.0) >= 1, then >= 2, in float arithmetic
_THIRDS = tuple(bisect_left(range(1 << 53), k, key=lambda x: int(x * 2.0 ** -53 * 3.0))
                for k in (1, 2))


def _frozen(values) -> np.ndarray:
    # a cached table is shared by every run that plays it
    a = np.array(values)
    a.flags.writeable = False
    return a


class _SeparableTable(NamedTuple):
    """A separable sender and a receiver as rows, stride = outcomes + 6 of
    them per preparation, outcomes the receiver's outcome count (3 for a
    blind guess). For preparation i, row i * stride + k is a normal round
    on the receiver's outcome or blind guess k, and row
    i * stride + outcomes + 2 * g + fail a checking round on guess g that
    passes (fail = 0) or accuses. exact_rows gives each row's (name,
    probability, payoff), transcripts the round a row on it plays, and
    checking and accused whether that round checks and accuses. The
    thresholds a round's uniforms are compared with are held as their
    _word_threshold, which _separable_branches compares the Philox words
    with.
    """

    prepare: Optional[np.ndarray]  # the preparation draw's cut-offs; None when she draws none
    r: int  # a round is a checking round below it
    bounds: np.ndarray  # per preparation, the receiver's outcome cut-offs; _THIRDS when blind
    p_fail: np.ndarray  # the check's failure per preparation
    exact_rows: tuple
    transcripts: tuple
    checking: np.ndarray
    accused: np.ndarray


def _preparation_cutoffs(alice) -> Optional[np.ndarray]:
    """The word cut-offs of the sender's preparation draw: preparation i is
    drawn when i of them lie at or below the round's first word >> 11.
    HonestAlice draws int(u * 3.0) from the round's first uniform u, and a
    MixtureCheat bisects u into the outcome_bounds of her weights (the
    count of bounds at or below it); a FixedStateCheat draws no uniform, so
    she gets None and the round kind reads the first word. A sender of
    another type, a subclass included, may draw otherwise, and is rejected."""
    kind = type(alice)
    if kind is HonestAlice:
        return _frozen(np.array(_THIRDS, dtype=np.uint64))
    if kind is MixtureCheat:
        return _word_thresholds(outcome_bounds([w for w, _ in alice.preparations]))
    if kind is FixedStateCheat:
        return None
    raise ValueError(f"cannot tabulate {kind.__name__}: its preparation draw is not one of "
                     "HonestAlice's, FixedStateCheat's or MixtureCheat's")


def _separable_table(alice, bob, params) -> _SeparableTable:
    """Compile a separable sender and a receiver into their rows.

    Each (weight, preparation) of alice.preparations gives the
    received_state of its wire, the check's failure probability on that
    state for its claim, and the receiver's Born probabilities on it and
    their outcome_bounds; a blind receiver names each label with
    probability 1/3. Every row's transcript comes from leaf_transcript, so
    the sampler and the exact oracle read the same rows. A sender who lists
    no preparations, or whose draw among them is not one of the three
    families', is rejected.
    """
    preparations = getattr(alice, "preparations", None)
    if preparations is None:
        raise ValueError(f"cannot tabulate {type(alice).__name__}: it is not entangled "
                         "and lists no preparations")
    prepare = _preparation_cutoffs(alice)
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
            bounds.append(_THIRDS)
        else:
            probs = born_probabilities(received, povm)
            bounds.append(tuple(map(_word_threshold, outcome_bounds(probs))))
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
    return _SeparableTable(prepare, _word_threshold(r),
                           _frozen(np.array(bounds, dtype=np.uint64)),
                           _word_thresholds(p_fail), tuple(exact_rows), tuple(transcripts),
                           _frozen([t.kind is RoundKind.CHECKING for t in transcripts]),
                           _frozen([t.check is CheckResult.ACCUSE for t in transcripts]))


def _separable_branches(t: _SeparableTable, w: np.ndarray) -> np.ndarray:
    """The row each row of Philox words plays, as a separable round reads
    its uniforms one at a time (tests/separable_reference.py): word 0 draws
    the preparation, unless she draws none, and the words after it the round
    kind, then the receiver's outcome or blind guess, or in a checking round
    the guess and then the check. Each word is read as w >> 11 against the
    table's word cut-offs. The kind is drawn after her preparation, so she
    never learns it but through the payout; a checking round's guess is
    uniform whatever the receiver, and its check tests the claim of her
    preparation.

    Every row is played as a normal round first; then only the checking
    rows are gathered and played again as checking rounds."""
    first = 0 if t.prepare is None else 1  # the round kind's word
    prep = np.zeros(len(w), dtype=np.intp)
    if first:
        draw = w[:, 0] >> 11
        for c in t.prepare:
            prep += draw >= c
    outcome = w[:, first + 1] >> 11
    normal = t.bounds.shape[1] + 1
    base = prep * (normal + 2 * len(LABELS))
    branch = base.copy()
    for cutoffs in t.bounds.T:
        branch += outcome >= cutoffs[prep]
    # r < 1, so its word cut-off t.r << 11 is a uint64 and the kind's word needs no shift
    rows = np.flatnonzero(w[:, first] < t.r << 11)
    c = w[rows, first + 1:first + 3] >> 11
    guess = np.zeros(len(rows), dtype=np.intp)
    for k in _THIRDS:
        guess += c[:, 0] >= k
    branch[rows] = base[rows] + normal + 2 * guess + (c[:, 1] < t.p_fail[prep[rows]])
    return branch


def _separable_chunk(t: _SeparableTable, seed, start, count):
    """The rows of rounds [start, start + count) of a separable table, and
    None: no separable round raises."""
    return _separable_branches(t, _round_words(seed, start, count)), None


def _compile(alice, bob, params):
    compile_table = _entangled_table if isinstance(alice, EntangledAlice) else _separable_table
    return compile_table(alice, bob, params)


def _block_counts(table, params, seed, start, count, sink=None):
    """Play rounds [start, start + count) of a table in order:
    (counts, aborted), counts[b] the rounds that landed on row b.

    A chunk at a time, the table's chunk function gives each round's row and
    the exception of the first round that raised, or None. The monitor
    cuts the chunk at the round that trips it; sink, when given, then gets
    the chunk's transcripts as one list in round order, never an empty
    one; and only then, unless the monitor tripped first, is the exception
    raised."""
    if isinstance(table, _BranchTable):
        size, play_chunk = _CHUNK, _table_chunk
    else:
        size, play_chunk = _SCALAR_CHUNK, _separable_chunk
    counts = np.zeros(len(table.transcripts), dtype=np.int64)
    monitor_on = params.abort_threshold is not None
    aborted = False
    done = 0
    while done < count and not aborted:
        branch, error = play_chunk(table, seed, start + done, min(size, count - done))
        if monitor_on:
            trip = _trip_row(table, branch, counts, params)
            if trip is not None:
                branch = branch[:trip + 1]
                aborted = True
                error = None
        if sink is not None and len(branch):
            sink(list(map(table.transcripts.__getitem__, branch.tolist())))
        if error is not None:
            raise error
        counts += np.bincount(branch, minlength=len(counts))
        done += len(branch)
    return counts.tolist(), aborted


def _trip_row(table, branch: np.ndarray, counts: np.ndarray, params):
    """Index of the row of branch at which abort_monitor trips, or None.

    The chunk's checking rows go through the monitor in order, their
    checks and accusations running on from the earlier chunks' counts."""
    rows = np.flatnonzero(table.checking[branch])
    checks = int(counts[table.checking].sum())
    accs = np.cumsum(table.accused[branch[rows]]) + int(counts[table.accused].sum())
    for i, a in enumerate(accs.tolist()):
        if abort_monitor(checks + i + 1, a, params) is MonitorDecision.ABORT:
            return int(rows[i])
    return None


# normal-round branches come first in a branch table, checking rounds after
_NORMAL = 2 * len(LABELS)


class _BranchTable(NamedTuple):
    """An entangled sender and a receiver as a finite branch tree.

    Branch 2 * x + j is a normal round in which the receiver's outcome or
    blind guess has index x and the sender's outcome is j; branch
    _NORMAL + 2 * (2 * g + j) + fail is a checking round on guess g.
    exact_rows gives each branch's (name, probability, payoff),
    transcripts the round a row on it plays, and checking and accused
    whether that round checks and accuses. Each threshold t that a round's
    uniform is compared with is held as _word_threshold(t), which
    _table_branches compares the Philox words with; p0 > 0 exactly when its
    word threshold is.
    """

    r: int  # a round is a checking round below it
    bounds: tuple  # sample_outcome's interval ends; for a blind receiver _THIRDS
    p0_normal: np.ndarray  # P(j = 0) per receiver outcome or blind guess
    p0_local: np.ndarray  # P(j = 0) per guess, on the unmeasured pair
    p_fail: np.ndarray  # check failure per (guess, j), at 2 * g + j
    exact_rows: tuple
    transcripts: tuple
    checking: np.ndarray
    accused: np.ndarray
    faults: tuple  # None, or the (exception type, message) a sampled branch raises
    faulty: Optional[np.ndarray]  # whether each branch raises; None when none does


# compiled tables kept; the least recently used is dropped first
_TABLE_CACHE_SIZE = 64


def _entangled_table(alice, bob, params) -> _BranchTable:
    """The branch table of an EntangledAlice and a receiver, compiled once
    per distinct key and shared by every later simulate and enumerate_exact.

    The key holds the sender's values (psi and both policies, so a policy
    edited between runs gets a fresh table), the receiver's POVM (the cache
    holds it, so its identity is a safe key), params and the exact text of
    params: a penalty of 398 compiles int payoffs where 398.0 compiles float
    ones, and r = -0.0 signed zero weights, though both compare equal. The
    states' amplitudes reach the rows only through squared magnitudes, so
    their value is key enough.
    """
    basis = tuple((g, tuple(pair)) for g, pair in alice.basis_policy.items())
    claims = tuple(alice.claim_policy.items())
    return _cached_entangled_table(alice.psi, basis, claims, bob.measurement_povm(), params,
                                   repr(params))


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _cached_entangled_table(psi, basis, claims, povm, params, params_text) -> _BranchTable:
    return _compile_entangled_table(psi, dict(basis), dict(claims), povm, params)


def _compile_entangled_table(psi, basis, claims, povm, params) -> _BranchTable:
    """Compile an EntangledAlice's pair, basis and claim policies and a
    receiver's POVM (None for a blind guess) into their branch table.

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

    faulty = [f is not None for f in faults]
    return _BranchTable(
        _word_threshold(r), _THIRDS if bounds is None else tuple(map(_word_threshold, bounds)),
        _word_thresholds(p0_normal), _word_thresholds(p0_local),
        _word_thresholds([u[4] for u in unmeasured]), tuple(exact_rows), tuple(transcripts),
        _frozen([t.kind is RoundKind.CHECKING for t in transcripts]),
        _frozen([t.check is CheckResult.ACCUSE for t in transcripts]), tuple(faults),
        _frozen(faulty) if any(faulty) else None)


def _table_branches(t: _BranchTable, w: np.ndarray) -> np.ndarray:
    """The branch each row of Philox words plays, as uint8: word 0 gives the
    round kind, 1 the guess or the receiver's outcome, 2 the sender's outcome
    j, and 3 the check, which reads word 2 instead when p0 == 0 (the sender's
    outcome then draws nothing). Each word is read as w >> 11 against the
    table's word thresholds, so a row lands where its uniforms would.

    Every row is played as a normal round first; then only the checking
    rows are gathered and played again as checking rounds, so no row works
    out the branch of the other round kind."""
    outcome = w[:, 1] >> 11
    x = np.zeros(len(w), dtype=np.uint8)
    for b in t.bounds:
        # the count of interval ends at or below the uniform: searchsorted's
        # side="right" index into the non-decreasing bounds, at a fraction of its cost
        x += outcome >= b
    branch = x + x
    branch += (w[:, 2] >> 11) >= t.p0_normal[x]
    # r < 1, so its word cut-off t.r << 11 is a uint64 and word 0 needs no shift
    rows = np.flatnonzero(w[:, 0] < t.r << 11)
    c = w[rows, 1:4] >> 11
    guess = np.zeros(len(rows), dtype=np.uint8)
    for k in _THIRDS:
        guess += c[:, 0] >= k
    p0 = t.p0_local[guess]
    local = 2 * guess + (c[:, 1] >= p0)
    check = np.where(p0 > 0, c[:, 2], c[:, 1])
    branch[rows] = _NORMAL + 2 * local + (check < t.p_fail[local])
    return branch


def _table_chunk(t: _BranchTable, seed, start, count):
    """The branches of rounds [start, start + count) from the table, and
    None, or the branches before the first row on a faulty branch and the
    error that branch raises."""
    branch = _table_branches(t, _round_words(seed, start, count))
    if t.faulty is not None:
        hit = t.faulty[branch]
        if hit.any():
            first = int(hit.argmax())
            kind, message = t.faults[branch[first]]
            return branch[:first], kind(message)
    return branch, None


def _quotient(num: int, den: int) -> float:
    # correctly rounded; past the float range an infinity, as a float sum gives
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _result(table, counts, aborted) -> SimResult:
    """The SimResult of a run that landed counts[b] times on row b of table.

    Each payoff is m / d with d a power of two, so over their largest d the
    payoff totals are integers, and one division rounds each of them once."""
    rows = [(c, t) for c, t in zip(counts, table.transcripts) if c]
    n = sum(c for c, _ in rows)
    wins = sum(c for c, t in rows if t.verdict.result is RoundResult.BOB_WON)
    checks = sum(c for c, t in rows if t.kind is RoundKind.CHECKING)
    accs = sum(c for c, t in rows if t.check is CheckResult.ACCUSE)
    ratios = [(c, *float(t.alice_delta).as_integer_ratio()) for c, t in rows]
    den = max(d for _, _, d in ratios)
    s1 = _quotient(sum(c * m * (den // d) for c, m, d in ratios), den)
    s2 = _quotient(sum(c * (m * (den // d)) ** 2 for c, m, d in ratios), den * den)
    mean = s1 / n
    if n > 1:
        var = (s2 - n * mean * mean) / (n - 1)
        # max() would turn a NaN variance into 0.0 and hide it
        stderr = math.nan if math.isnan(var) else math.sqrt(max(0.0, var) / n)
    else:
        stderr = 0.0
    return SimResult(n, mean, -mean, stderr, wins, n - wins, checks, accs, bool(aborted))


def simulate(config: SimConfig, transcript_sink=None) -> SimResult:
    """Run the configured number of rounds and aggregate.

    Per-round randomness depends only on (seed, round index); identical
    configs give bit-identical results, whatever the worker count. The
    rounds split into min(workers, rounds, os.cpu_count()) contiguous
    blocks, each played on its own thread from the one compiled table.
    With the abort monitor enabled the run stops at the first tripping
    round and reports the partial totals with aborted = True.

    transcript_sink, when given, is called once per chunk of rounds played
    (at most _SCALAR_CHUNK rounds for a separable sender, _CHUNK for an
    entangled one) with a list of that chunk's RoundTranscripts in round
    order, never an empty one. The lists, joined, are every round of the
    run: the last item is the round that tripped the monitor, if it
    tripped; a round that raises is not in them, and every round before it
    is (it raises only when the monitor did not trip first). Equal
    transcripts are the same object.
    """
    params, seed, rounds = config.params, config.seed, config.rounds
    table = _compile(config.alice, config.bob, params)
    if transcript_sink is not None or params.abort_threshold is not None or config.workers == 1:
        return _result(table, *_block_counts(table, params, seed, 0, rounds, transcript_sink))
    # one thread per block and at most one block per CPU: more threads play no faster
    blocks = min(config.workers, rounds, os.cpu_count() or 1)
    starts = [rounds * b // blocks for b in range(blocks + 1)]

    def play(b):
        return _block_counts(table, params, seed, starts[b], starts[b + 1] - starts[b])[0]

    with ThreadPoolExecutor(max_workers=blocks) as pool:
        parts = list(pool.map(play, range(blocks)))
    # the monitor is off on this path, so no block aborts
    return _result(table, [sum(column) for column in zip(*parts)], False)


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
    return _expectation(_compile(alice, BobStrategy.honest_optimal(), params).exact_rows)


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

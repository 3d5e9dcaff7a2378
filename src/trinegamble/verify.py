"""Internal invariant checks, run by ``trinegamble verify``.

Each check returns a CheckReport (name, pass/fail, one-line detail).
run_verify_checks runs six from one seed: the POVM's completeness and
positivity; table_rows, every row of the tables that simulate and
enumerate_exact read (montecarlo._compile) against model_rows, for random
senders of all four families, both receivers and a noisy channel;
no_signalling, the receiver's outcome odds in an entangled table against
the sent qubit's reduced state, whatever basis the sender measures in;
the closed-form gain against the exact sum; and the receiver's posterior
floor r/3. model_rows works each row out as a trace of density matrices,
from the states' amplitudes, the sender's policies and the POVM's
elements alone, none of the qubit helpers the tables are compiled from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import montecarlo
from .analytics import gain_total
from .montecarlo import enumerate_exact
from .protocol import LOSE_PAYOUT, WIN_PAYOUT, ProtocolParams
from .qubit import (
    LABELS,
    PureState,
    born_probabilities,
    depolarize,
    optimal_povm,
    partial_trace,
    trine_states,
)
from .strategies import (
    BobStrategy,
    EntangledAlice,
    FixedStateCheat,
    HonestAlice,
    MixtureCheat,
    posterior_unmeasured,
    random_entangled_policy,
)

_RECEIVERS = (BobStrategy.honest_optimal(), BobStrategy.random_guess())


@dataclass(frozen=True)
class CheckReport:
    name: str
    passed: bool
    detail: str


def check_povm_completeness(elements=None) -> CheckReport:
    """Sum of the measurement elements must be the identity."""
    if elements is None:
        elements = optimal_povm().elements
    total = np.zeros((2, 2), dtype=complex)
    for e in elements:
        total = total + np.asarray(e, dtype=complex)
    dev = float(np.max(np.abs(total - np.eye(2))))
    return CheckReport("povm_completeness", dev <= 1e-9, f"max |sum - I| = {dev:.3e}")


def check_povm_positivity(elements=None) -> CheckReport:
    """Every measurement element must be positive semidefinite."""
    if elements is None:
        elements = optimal_povm().elements
    low = min(float(np.linalg.eigvalsh(np.asarray(e, dtype=complex)).min()) for e in elements)
    return CheckReport("povm_positivity", low >= -1e-9, f"min eigenvalue = {low:.3e}")


def _projector(state):
    v = np.array([state.a0, state.a1], dtype=complex)
    return np.outer(v, v.conj())


def _trace(a, sigma) -> float:
    """Tr[a sigma] for a Hermitian a, whose conjugate is its transpose."""
    return np.vdot(a, sigma).real


def _sent_branches(alice, lam):
    """(row head, guess, row tail, claim, sigma) for each way the sent qubit
    leaves the sender on each guess: sigma is its density after the
    channel, weighted by the branch's probability, which is its trace.

    An EntangledAlice's pair after the channel has the 4x4 density
    (1 - lam) |psi><psi| + lam rho_kept x I/2; on guess g she finds u_j of
    her basis, and sigma is Tr_kept[(|u_j><u_j| x I) rho]. Any other sender
    lists her preparations (weight p, wire s), and sigma is
    p ((1 - lam) |s><s| + lam I/2) on every guess."""
    if isinstance(alice, EntangledAlice):
        v = alice.psi.vector()
        pure = np.outer(v, v.conj())
        kept = np.trace(pure.reshape(2, 2, 2, 2), axis1=1, axis2=3)
        rho = (1.0 - lam) * pure + lam * np.kron(kept, np.eye(2) / 2.0)
        for g in LABELS:
            for j, u in enumerate(alice.basis_policy[g]):
                joint = (np.kron(_projector(u), np.eye(2)) @ rho).reshape(2, 2, 2, 2)
                yield ("entangled", g, f"|j={j}", alice.claim_policy[(g, j)],
                       np.trace(joint, axis1=0, axis2=2))
    else:
        for pc, prep in alice.preparations:
            sigma = pc * ((1.0 - lam) * _projector(prep.wire) + lam * np.eye(2) / 2.0)
            for g in LABELS:
                yield prep.descriptor, g, "", prep.claim, sigma


def model_rows(alice, bob, params) -> dict:
    """Each row name of the table that alice and bob compile to under
    params, mapped to the row's (probability, payoff).

    A normal round on guess g has probability (1 - r) Tr[E_g sigma], E_g the
    receiver's element (I/3 when he guesses blind); a checking round on g
    passes with r/3 Tr[P_claim sigma] and accuses with the rest of
    r/3 Tr[sigma], P_claim the claimed trine state's projector. The receiver
    wins the stake iff his guess is the claim; an accusation pays R.
    """
    trine = trine_states()
    lam, r = params.noise_lambda, params.r
    povm = bob.measurement_povm()
    rows = {}
    for head, g, tail, claim, sigma in _sent_branches(alice, lam):
        seen = np.eye(2) / 3.0 if povm is None else povm.elements[LABELS.index(g)]
        weight = np.trace(sigma).real
        passed = _trace(_projector(trine[claim]), sigma)
        stake = -WIN_PAYOUT if g == claim else LOSE_PAYOUT
        rows[f"{head}|normal|guess={g}{tail}"] = ((1.0 - r) * _trace(seen, sigma), stake)
        rows[f"{head}|checking|guess={g}{tail}|pass"] = (r / 3.0 * passed, stake)
        rows[f"{head}|checking|guess={g}{tail}|accuse"] = (r / 3.0 * (weight - passed), -params.R)
    return rows


def _random_params(rng) -> ProtocolParams:
    return ProtocolParams(r=float(rng.uniform(0.0, 0.9)), R=float(rng.uniform(1.0, 500.0)),
                          noise_lambda=float(rng.uniform(0.0, 1.0)))


def _random_pure(rng) -> PureState:
    raw = rng.standard_normal(4)
    return PureState.from_unnormalized(complex(raw[0], raw[1]), complex(raw[2], raw[3]))


def _random_senders(rng):
    """One random sender of each family: entangled, honest, fixed, mixture."""
    entangled = random_entangled_policy(rng)
    claims = [LABELS[int(i)] for i in rng.integers(3, size=5)]
    weights = rng.dirichlet(np.ones(4))
    return (entangled, HonestAlice(), FixedStateCheat(_random_pure(rng), claims[0]),
            MixtureCheat(tuple((float(w), _random_pure(rng), c)
                               for w, c in zip(weights, claims[1:]))))


def _table_faults(table, want) -> bool:
    """Whether a compiled table's row names, signs or payoffs disagree with
    the model's rows, or a row's name or payoff with its transcript's."""
    if sorted(name for name, _, _ in table.exact_rows) != sorted(want):
        return True
    for (name, p, payoff), t in zip(table.exact_rows, table.transcripts):
        ruled = [t.sent_descriptor, t.kind.value, f"guess={t.guess}"]
        if t.check is not None:
            ruled.append(t.check.value)
        if ([part for part in name.split("|") if not part.startswith("j=")] != ruled
                or p < 0.0 or payoff != want[name][1] or payoff != t.alice_delta):
            return True
    return False


def check_table_rows(rng, trials: int = 100) -> CheckReport:
    """Every row of the compiled tables must match model_rows, for one
    random sender of each family against each receiver at random
    (r, R, noise), and each table's probabilities must sum to 1."""
    row_gap = sum_gap = 0.0
    faulty = tables = 0
    for _ in range(trials):
        params = _random_params(rng)
        for alice in _random_senders(rng):
            for bob in _RECEIVERS:
                table = montecarlo._compile(alice, bob, params)
                want = model_rows(alice, bob, params)
                tables += 1
                if _table_faults(table, want):
                    faulty += 1
                    continue
                row_gap = max(row_gap, max(abs(p - want[name][0])
                                           for name, p, _ in table.exact_rows))
                sum_gap = max(sum_gap, abs(math.fsum(p for _, p, _ in table.exact_rows) - 1.0))
    ok = faulty == 0 and row_gap <= 1e-12 and sum_gap <= 1e-12
    return CheckReport("table_rows", ok,
                       f"max |row - model| = {row_gap:.3e}, max |sum - 1| = {sum_gap:.3e}, "
                       f"{faulty} of {tables} tables off in names, signs or payoffs")


def check_no_signalling(rng, trials: int = 100) -> CheckReport:
    """The receiver's normal-round outcome x, summed over the entangled
    sender's outcome, must have probability (1 - r) P(x) in her compiled
    table, P the Born probabilities of the sent qubit's reduced state after
    the channel (1/3 each for a blind guess): her choice of basis signals
    nothing."""
    worst = 0.0
    for _ in range(trials):
        alice = random_entangled_policy(rng)
        params = _random_params(rng)
        sent = depolarize(partial_trace(alice.psi, keep=1), params.noise_lambda)
        for bob in _RECEIVERS:
            povm = bob.measurement_povm()
            odds = (1.0 / 3.0,) * 3 if povm is None else born_probabilities(sent, povm)
            rows = {name: p for name, p, _ in montecarlo._compile(alice, bob, params).exact_rows}
            for g, p in zip(LABELS, odds):
                got = sum(rows.get(f"entangled|normal|guess={g}|j={j}", math.inf)
                          for j in (0, 1))
                worst = max(worst, abs(got - (1.0 - params.r) * p))
    return CheckReport("no_signalling", worst <= 1e-12,
                       f"max |sum_j P(x, j) - (1 - r) P(x)| = {worst:.3e}")


def check_gain_closed_forms(grid_points: int = 50) -> CheckReport:
    """Closed-form per-round gain must match exhaustive branch enumeration
    of the fixed-state sender across a theta grid and two (r, R) settings."""
    worst = 0.0
    for r, R in ((0.05, 398.0), (0.01, 1998.0)):
        params = ProtocolParams(r=r, R=R)
        for theta in np.linspace(0.0, math.pi, grid_points):
            theta = float(theta)
            exact = enumerate_exact(FixedStateCheat.from_angle(theta, "a"), params).g_alice
            closed = gain_total(theta, r, R).g_total
            worst = max(worst, abs(exact - closed))
    return CheckReport("gain_closed_forms", worst <= 1e-12, f"max |closed - exact| = {worst:.3e}")


def check_posterior_bound() -> CheckReport:
    """Receiver's posterior on 'unmeasured' never drops below r/3."""
    worst = float("inf")
    for r in np.linspace(0.01, 0.99, 99):
        r = float(r)
        for matches in (True, False):
            worst = min(worst, posterior_unmeasured(r, matches) - r / 3.0)
    return CheckReport("posterior_floor", worst >= -1e-15, f"min (posterior - r/3) = {worst:.3e}")


def run_verify_checks(seed: int, trials: int, grid_points: int):
    rng = np.random.default_rng(seed)
    return [
        check_povm_completeness(),
        check_povm_positivity(),
        check_table_rows(rng, trials),
        check_no_signalling(rng, trials),
        check_gain_closed_forms(grid_points),
        check_posterior_bound(),
    ]

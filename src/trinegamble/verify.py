"""Internal invariant checks, run by ``trinegamble verify``.

Each check returns a CheckReport (name, pass/fail, one-line detail):
POVM completeness and positivity, remote steering (the sender's
measurement leaves the sent qubit's reduced state unchanged on average),
measurement-order invariance of the joint outcome distribution, the
closed-form gain against exhaustive branch enumeration, and the
receiver's posterior floor r/3. run_verify_checks runs all six in that
order from one seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytics import gain_total
from .montecarlo import enumerate_exact
from .protocol import ProtocolParams
from .qubit import (
    PureState,
    TwoQubitState,
    bloch_from_state,
    born_probabilities,
    local_measure_branches,
    optimal_povm,
    partial_trace,
    remote_povm_branches,
)
from .strategies import FixedStateCheat, posterior_unmeasured


@dataclass(frozen=True)
class CheckReport:
    name: str
    passed: bool
    detail: str


def _random_pair_state(rng) -> TwoQubitState:
    raw = rng.standard_normal(8)
    return TwoQubitState.from_unnormalized(
        complex(raw[0], raw[1]),
        complex(raw[2], raw[3]),
        complex(raw[4], raw[5]),
        complex(raw[6], raw[7]),
    )


def _random_basis(rng):
    raw = rng.standard_normal(4)
    u = PureState.from_unnormalized(complex(raw[0], raw[1]), complex(raw[2], raw[3]))
    return (u, u.orthogonal())


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


def check_steering_identity(rng, trials: int = 100) -> CheckReport:
    """Post-measurement ensemble on the sent qubit must average to its
    reduced state, for random shared states and random kept-side bases."""
    worst = 0.0
    for _ in range(trials):
        psi = _random_pair_state(rng)
        basis = _random_basis(rng)
        target = partial_trace(psi, keep=1).bloch()
        x = y = z = 0.0
        for p, branch in local_measure_branches(psi, basis):
            if branch is None:
                continue
            b = bloch_from_state(branch)
            x += p * b.x
            y += p * b.y
            z += p * b.z
        dev = max(abs(x - target.x), abs(y - target.y), abs(z - target.z))
        worst = max(worst, dev)
    return CheckReport("steering_identity", worst <= 1e-9, f"max component deviation = {worst:.3e}")


def check_order_invariance(rng, trials: int = 100) -> CheckReport:
    """Joint outcome distribution of one measurement per side must not
    depend on which side measures first."""
    povm = optimal_povm()
    worst = 0.0
    for _ in range(trials):
        psi = _random_pair_state(rng)
        basis = _random_basis(rng)
        keeper_first = []
        for p, branch in local_measure_branches(psi, basis):
            if branch is None:
                keeper_first.append((0.0, 0.0, 0.0))
            else:
                keeper_first.append(tuple(p * q for q in born_probabilities(branch, povm)))
        sender_first = [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
        for k, (p, kept) in enumerate(remote_povm_branches(psi, povm)):
            if kept is None:
                continue
            for j in range(2):
                sender_first[k][j] = p * basis[j].fidelity(kept)
        dev = max(
            abs(keeper_first[j][k] - sender_first[k][j]) for j in range(2) for k in range(3)
        )
        worst = max(worst, dev)
    return CheckReport("order_invariance", worst <= 1e-9, f"max joint probability gap = {worst:.3e}")


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
        check_steering_identity(rng, trials),
        check_order_invariance(rng, trials),
        check_gain_closed_forms(grid_points),
        check_posterior_bound(),
    ]

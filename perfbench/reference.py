"""Expected values of the trine gambling game, derived without the package.

Everything here follows from the protocol alone: three trine states in
the x-z Bloch plane, the optimal discriminator with elements
(2/3)|t_k><t_k|, a sender who pays 1 when the receiver's guess matches
her claim and receives 2 otherwise, and a penalty R in place of the stake
when a checking round's projection onto the claimed state fails. The
benchmark compares the program's outputs against these numbers, so this
module never imports trinegamble; entangled senders are read through
their public attributes only (amplitudes ``c00``..``c11`` and ``a0``/``a1``).
"""

from __future__ import annotations

import math

import numpy as np

LABELS = ("a", "b", "c")
# polar angle of each trine state in the x-z Bloch plane
PLANE_ANGLE = {"a": 0.0, "b": 2.0 * math.pi / 3.0, "c": -2.0 * math.pi / 3.0}
WIN_PAYOUT = 1.0   # sender pays this when the guess matches her claim
LOSE_PAYOUT = 2.0  # and receives this otherwise: fair odds at success rate 2/3


def in_plane(angle: float) -> np.ndarray:
    """Amplitudes of the pure state at polar angle ``angle`` in the x-z plane."""
    return np.array([math.cos(angle / 2.0), math.sin(angle / 2.0)], dtype=complex)


TRINE = {lab: in_plane(PLANE_ANGLE[lab]) for lab in LABELS}
POVM = {lab: (2.0 / 3.0) * np.outer(TRINE[lab], TRINE[lab].conj()) for lab in LABELS}


def overlap(state: np.ndarray, label: str) -> float:
    """|<t_label|state>|^2 for a normalized single-qubit state."""
    return float(abs(np.vdot(TRINE[label], state)) ** 2)


def noisy_overlap(c2: float, lam: float) -> float:
    """Overlap with the claimed state after the depolarizing channel of weight lam."""
    return (1.0 - lam) * c2 + lam / 2.0


def gain_from_overlap(c2: float, r: float, R: float) -> float:
    """The paper's per-round sender gain (1-r)*2(1-c2) + r*(c2 - (1-c2)R)."""
    return (1.0 - r) * 2.0 * (1.0 - c2) + r * (c2 - (1.0 - c2) * R)


def separable_gain(state: np.ndarray, claim: str, r: float, R: float, lam: float = 0.0) -> float:
    return gain_from_overlap(noisy_overlap(overlap(state, claim), lam), r, R)


def mixture_gain(components, r: float, R: float, lam: float = 0.0) -> float:
    """Component-weighted gain of (probability, state, claim) triples."""
    return sum(p * separable_gain(s, c, r, R, lam) for p, s, c in components)


def honest_gain(r: float, R: float, lam: float = 0.0) -> float:
    return mixture_gain([(1.0 / 3.0, TRINE[lab], lab) for lab in LABELS], r, R, lam)


def fixed_gain(theta: float, claim: str, r: float, R: float, lam: float = 0.0) -> float:
    """Gain of the state rotated in-plane by theta from the claimed trine state."""
    return separable_gain(in_plane(PLANE_ANGLE[claim] + theta), claim, r, R, lam)


def accusation_rate(state: np.ndarray, claim: str, lam: float = 0.0) -> float:
    """Chance that the check on the claimed state fails."""
    return 1.0 - noisy_overlap(overlap(state, claim), lam)


def discrimination_rate() -> float:
    """Chance that the discriminator names the uniformly sent trine state."""
    return sum(float(np.real(np.vdot(TRINE[lab], POVM[lab] @ TRINE[lab]))) for lab in LABELS) / 3.0


def _vec(state) -> np.ndarray:
    return np.array([state.a0, state.a1], dtype=complex)


def _payoff(guess: str, claim: str) -> float:
    return -WIN_PAYOUT if guess == claim else LOSE_PAYOUT


def entangled_gain(psi, basis_policy, claim_policy, r: float, R: float) -> float:
    """Exact per-round gain of a sender who keeps the first qubit of psi.

    After hearing guess g she measures her qubit in basis_policy[g] and
    claims claim_policy[(g, outcome)]. The two parties measure different
    qubits, so each joint outcome has probability |(<u| x <t|) psi|^2
    (times 2/3 for the discriminator's element) whichever side goes first.
    """
    m = np.array([[psi.c00, psi.c01], [psi.c10, psi.c11]], dtype=complex)

    def amp2(u, t):
        # kept qubit projected on u, sent qubit on t
        return float(abs(u.conj() @ m @ t.conj()) ** 2)

    normal = 0.0
    checking = 0.0
    for g in LABELS:
        basis = [_vec(u) for u in basis_policy[g]]
        for j, u in enumerate(basis):
            claim = claim_policy[(g, j)]
            normal += (2.0 / 3.0) * amp2(u, TRINE[g]) * _payoff(g, claim)
            branch = float(np.linalg.norm(u.conj() @ m) ** 2)
            passed = amp2(u, TRINE[claim])
            checking += (passed * _payoff(g, claim) - (branch - passed) * R) / 3.0
    return (1.0 - r) * normal + r * checking


def attack_policy():
    """The closed-form entangled attack as plain numbers.

    Share (|00> + |11>)/sqrt(2); on guess g measure in the in-plane basis at
    PLANE_ANGLE[g] + pi/2 and claim the trine state at PLANE_ANGLE[g] +
    2pi/3 on outcome 0, at PLANE_ANGLE[g] - 2pi/3 on outcome 1. Returns
    (basis angles per guess, claims per (guess, outcome)).
    """
    angles = {g: PLANE_ANGLE[g] + math.pi / 2.0 for g in LABELS}
    claims = {}
    for g in LABELS:
        for j, shift in enumerate((2.0 * math.pi / 3.0, -2.0 * math.pi / 3.0)):
            claims[(g, j)] = _label_at(PLANE_ANGLE[g] + shift)
    return angles, claims


def _label_at(angle: float) -> str:
    for lab in LABELS:
        d = (angle - PLANE_ANGLE[lab]) % (2.0 * math.pi)
        if min(d, 2.0 * math.pi - d) < 1e-9:
            return lab
    raise ValueError(f"no trine state at angle {angle!r}")


def attack_gain_closed_form(r: float, R: float) -> float:
    """2 - r(R+2)(2 - sqrt3)/4, the attack's gain by hand."""
    return 2.0 - r * (R + 2.0) * (2.0 - math.sqrt(3.0)) / 4.0

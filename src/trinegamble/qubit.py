"""Qubit algebra for the trine-state gambling protocol.

Pure qubit states are pairs of complex amplitudes, mixed states explicit
2x2 matrices, two-qubit pure states four amplitudes over the computational
basis |00>, |01>, |10>, |11> with the sender's kept qubit in the first
slot. Dimension is fixed at two, so everything runs on closed forms.

Every random choice of a round is described once, as a branch table that
the sampler and the exact oracle both read: outcome_bounds for a POVM's
outcomes, local_measure_branches and remote_povm_branches for either
party's measurement of a pair, and check_fail_probability for the claim
check. A draw over such a table is one uniform compared with its bounds.
This module draws nothing: montecarlo compiles the bounds into a sender's
table as integer word thresholds, and both its engines compare each
round's Philox words with them. The helpers are pure functions of
immutable values and keep nothing on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np

ATOL = 1e-9

LABELS = ("a", "b", "c")
LABEL_INDEX = MappingProxyType({"a": 0, "b": 1, "c": 2})

SQRT3_2 = math.sqrt(3.0) / 2.0


@dataclass(frozen=True)
class PureState:
    """Single-qubit pure state with amplitudes (a0, a1), normalized to 1e-9."""

    a0: complex
    a1: complex

    def __post_init__(self):
        a0 = complex(self.a0)
        a1 = complex(self.a1)
        object.__setattr__(self, "a0", a0)
        object.__setattr__(self, "a1", a1)
        n2 = a0.real * a0.real + a0.imag * a0.imag + a1.real * a1.real + a1.imag * a1.imag
        # NaN amplitudes fail this comparison and are rejected with the rest
        if not abs(n2 - 1.0) <= ATOL:
            raise ValueError(f"pure state must be normalized, got |psi|^2 = {n2!r}")

    @classmethod
    def from_unnormalized(cls, a0: complex, a1: complex) -> "PureState":
        a0 = complex(a0)
        a1 = complex(a1)
        norm = math.sqrt(abs(a0) ** 2 + abs(a1) ** 2)
        if norm < 1e-12:
            raise ValueError("cannot normalize a (near-)zero vector")
        return cls(a0 / norm, a1 / norm)

    def inner(self, other: "PureState") -> complex:
        """<self|other> with this state as the bra."""
        return self.a0.conjugate() * other.a0 + self.a1.conjugate() * other.a1

    def fidelity(self, other: "PureState") -> float:
        """|<self|other>|^2 clamped to [0, 1]."""
        v = self.inner(other)
        f = v.real * v.real + v.imag * v.imag
        return 0.0 if f < 0.0 else (1.0 if f > 1.0 else f)

    def orthogonal(self) -> "PureState":
        """The unique (up to phase) state orthogonal to this one."""
        return PureState(-self.a1.conjugate(), self.a0.conjugate())

    def density(self) -> "DensityOperator":
        a0, a1 = self.a0, self.a1
        return DensityOperator(
            [[a0 * a0.conjugate(), a0 * a1.conjugate()],
             [a1 * a0.conjugate(), a1 * a1.conjugate()]]
        )


@dataclass(frozen=True)
class BlochVector:
    x: float
    y: float
    z: float

    def __post_init__(self):
        n = self.norm()
        if not n <= 1.0 + ATOL:
            raise ValueError(f"Bloch vector must lie in the unit ball, |r| = {n!r}")

    def norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def dot(self, other: "BlochVector") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """2x2 density matrix: Hermitian, unit trace, positive semidefinite (1e-9)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"density matrix must be 2x2, got shape {m.shape}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        r00, r01, r10, r11 = complex(m[0, 0]), complex(m[0, 1]), complex(m[1, 0]), complex(m[1, 1])
        if abs(r00.imag) > ATOL or abs(r11.imag) > ATOL or abs(r01 - r10.conjugate()) > ATOL:
            raise ValueError("density matrix must be Hermitian")
        tr = r00.real + r11.real
        if abs(tr - 1.0) > ATOL:
            raise ValueError(f"density matrix must have unit trace, got {tr!r}")
        # closed-form 2x2 Hermitian eigenvalues: mean +- sqrt(d^2 + |off|^2)
        half = math.hypot((r00.real - r11.real) / 2.0, abs(r01))
        if tr / 2.0 - half < -ATOL:
            raise ValueError("density matrix must be positive semidefinite")
        object.__setattr__(self, "_flat", (r00, r01, r10, r11))

    def bloch(self) -> BlochVector:
        r00, r01, _, r11 = self._flat
        return BlochVector(2.0 * r01.real, -2.0 * r01.imag, r00.real - r11.real)

    def expectation(self, state: PureState) -> float:
        """<state| rho |state>, clamped to [0, 1]."""
        r00, r01, r10, r11 = self._flat
        b0, b1 = state.a0, state.a1
        v = (b0.conjugate() * (r00 * b0 + r01 * b1) + b1.conjugate() * (r10 * b0 + r11 * b1)).real
        return 0.0 if v < 0.0 else (1.0 if v > 1.0 else v)


@dataclass(frozen=True)
class TwoQubitState:
    """Pure two-qubit state; first slot is the kept qubit, second the sent one."""

    c00: complex
    c01: complex
    c10: complex
    c11: complex

    def __post_init__(self):
        amps = [complex(getattr(self, f)) for f in ("c00", "c01", "c10", "c11")]
        for name, v in zip(("c00", "c01", "c10", "c11"), amps):
            object.__setattr__(self, name, v)
        n2 = sum(v.real * v.real + v.imag * v.imag for v in amps)
        if not abs(n2 - 1.0) <= ATOL:
            raise ValueError(f"two-qubit state must be normalized, got |psi|^2 = {n2!r}")

    @classmethod
    def from_product(cls, kept: PureState, sent: PureState) -> "TwoQubitState":
        return cls(
            kept.a0 * sent.a0, kept.a0 * sent.a1,
            kept.a1 * sent.a0, kept.a1 * sent.a1,
        )

    @classmethod
    def from_unnormalized(cls, c00, c01, c10, c11) -> "TwoQubitState":
        amps = [complex(v) for v in (c00, c01, c10, c11)]
        norm = math.sqrt(sum(v.real * v.real + v.imag * v.imag for v in amps))
        if norm < 1e-9:
            raise ValueError("cannot normalize a near-zero two-qubit vector")
        return cls(*(v / norm for v in amps))

    @classmethod
    def phi_plus(cls) -> "TwoQubitState":
        s = 1.0 / math.sqrt(2.0)
        return cls(s, 0.0, 0.0, s)

    @classmethod
    def singlet(cls) -> "TwoQubitState":
        s = 1.0 / math.sqrt(2.0)
        return cls(0.0, s, -s, 0.0)

    def vector(self) -> np.ndarray:
        return np.array([self.c00, self.c01, self.c10, self.c11], dtype=complex)


_TRINE = MappingProxyType({
    "a": PureState(1.0, 0.0),
    "b": PureState(0.5, SQRT3_2),
    "c": PureState(0.5, -SQRT3_2),
})


def trine_states() -> MappingProxyType:
    """The three symmetric states, pairwise overlap 1/2, Bloch angle 2*pi/3."""
    return _TRINE


def bloch_from_state(state: PureState) -> BlochVector:
    """Bloch vector of a pure state.

    Frame convention: x = 2 Re(a0* a1), y = 2 Im(a0* a1), z = |a0|^2 - |a1|^2,
    which puts |0> at (0, 0, +1) and the trine in the x-z plane.
    """
    a0, a1 = state.a0, state.a1
    cross = a0.conjugate() * a1
    return BlochVector(2.0 * cross.real, 2.0 * cross.imag,
                       (a0.real ** 2 + a0.imag ** 2) - (a1.real ** 2 + a1.imag ** 2))


def state_from_bloch(v: BlochVector) -> PureState:
    """Pure state for a unit Bloch vector (fixed global phase: a0 real >= 0)."""
    n = v.norm()
    if abs(n - 1.0) > ATOL:
        raise ValueError(f"state_from_bloch needs a unit vector, |r| = {n!r}")
    z = min(1.0, max(-1.0, v.z))
    theta = math.acos(z)
    half = theta / 2.0
    phi = math.atan2(v.y, v.x)
    return PureState(math.cos(half), math.sin(half) * complex(math.cos(phi), math.sin(phi)))


@dataclass(frozen=True, eq=False)
class Povm:
    """A labeled POVM on one qubit: positive elements summing to the identity.

    ``pure_components`` optionally records each element as weight * |phi><phi|,
    which remote_povm_branches needs (rank-one elements only).
    """

    elements: tuple
    labels: tuple
    pure_components: tuple | None = None

    def __post_init__(self):
        elems = []
        flats = []
        total = np.zeros((2, 2), dtype=complex)
        for e in self.elements:
            m = np.array(e, dtype=complex)
            if m.shape != (2, 2):
                raise ValueError("POVM elements must be 2x2")
            e00, e01, e10, e11 = complex(m[0, 0]), complex(m[0, 1]), complex(m[1, 0]), complex(m[1, 1])
            if abs(e01 - e10.conjugate()) > ATOL or abs(e00.imag) > ATOL or abs(e11.imag) > ATOL:
                raise ValueError("POVM elements must be Hermitian")
            trace_half = (e00.real + e11.real) / 2.0
            half = math.hypot((e00.real - e11.real) / 2.0, abs(e01))
            if trace_half - half < -ATOL:
                raise ValueError("POVM elements must be positive semidefinite")
            m.flags.writeable = False
            elems.append(m)
            flats.append((e00, e01, e10, e11))
            total += m
        if len(elems) != len(self.labels):
            raise ValueError("one label per POVM element required")
        if not np.allclose(total, np.eye(2), rtol=0.0, atol=ATOL):
            raise ValueError("POVM elements must sum to the identity")
        if self.pure_components is not None:
            comps = tuple(self.pure_components)
            if len(comps) != len(elems):
                raise ValueError("one (weight, state) pair per element required")
            for (w, s), m in zip(comps, elems):
                if w < -ATOL:
                    raise ValueError("rank-one weights must be nonnegative")
                proj = np.array([[s.a0 * s.a0.conjugate(), s.a0 * s.a1.conjugate()],
                                 [s.a1 * s.a0.conjugate(), s.a1 * s.a1.conjugate()]])
                if not np.allclose(w * proj, m, rtol=0.0, atol=1e-8):
                    raise ValueError("pure_components inconsistent with elements")
            object.__setattr__(self, "pure_components", comps)
        object.__setattr__(self, "elements", tuple(elems))
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "_flats", tuple(flats))

    @classmethod
    def from_pure_states(cls, weighted_states, labels) -> "Povm":
        comps = tuple((float(w), s) for w, s in weighted_states)
        elems = []
        for w, s in comps:
            elems.append([[w * s.a0 * s.a0.conjugate(), w * s.a0 * s.a1.conjugate()],
                          [w * s.a1 * s.a0.conjugate(), w * s.a1 * s.a1.conjugate()]])
        return cls(tuple(elems), tuple(labels), comps)


@lru_cache(maxsize=1)
def optimal_povm() -> Povm:
    """Best trine discriminator: elements (2/3)|alpha><alpha|, success 2/3."""
    weighted = tuple((2.0 / 3.0, _TRINE[lab]) for lab in LABELS)
    return Povm.from_pure_states(weighted, LABELS)


def born_probabilities(state, povm: Povm) -> tuple:
    """Outcome probabilities of a POVM on a pure state or density operator.

    Each probability is clamped to [0, 1]; values below -1e-9 mean the
    inputs were inconsistent and raise.
    """
    probs = []
    if isinstance(state, PureState):
        a0, a1 = state.a0, state.a1
        c0, c1 = a0.conjugate(), a1.conjugate()
        for e00, e01, e10, e11 in povm._flats:
            p = (c0 * (e00 * a0 + e01 * a1) + c1 * (e10 * a0 + e11 * a1)).real
            if p < -ATOL:
                raise ValueError(f"negative Born probability {p!r}")
            probs.append(0.0 if p < 0.0 else (1.0 if p > 1.0 else p))
    elif isinstance(state, DensityOperator):
        r00, r01, r10, r11 = state._flat
        for e00, e01, e10, e11 in povm._flats:
            p = (e00 * r00 + e01 * r10 + e10 * r01 + e11 * r11).real
            if p < -ATOL:
                raise ValueError(f"negative Born probability {p!r}")
            probs.append(0.0 if p < 0.0 else (1.0 if p > 1.0 else p))
    else:
        raise TypeError(f"expected PureState or DensityOperator, got {type(state).__name__}")
    return tuple(probs)


def outcome_bounds(probs) -> tuple:
    """The upper ends of the fixed-order cumulative intervals of every index
    but the last; zero-probability entries add an empty interval. Raises
    ValueError unless probs is a probability vector to 1e-9."""
    total = acc = 0.0
    bounds = []
    for p in probs:
        if p < -ATOL:
            raise ValueError(f"negative probability {p!r}")
        total += p
        if p > 0.0:
            acc += p
        bounds.append(acc)
    # a NaN entry makes the total NaN, which fails this comparison
    if not abs(total - 1.0) <= ATOL:
        raise ValueError(f"probabilities must sum to 1, got {total!r}")
    return tuple(bounds[:-1])


def check_fail_probability(state, claimed: str) -> float:
    """Probability that the two-outcome projective test on the claimed trine
    state lands on its orthogonal complement. Exactly 0.0 for the claimed
    state itself."""
    target = _TRINE.get(claimed)
    if target is None:
        raise ValueError(f"unknown trine label {claimed!r}")
    if isinstance(state, PureState):
        # the claimed state itself must fail with probability exactly 0.0,
        # but <b|b> lands one ulp under 1 in floats; short-circuit identity
        if state is target or (state.a0 == target.a0 and state.a1 == target.a1):
            return 0.0
        q = target.fidelity(state)
    elif isinstance(state, DensityOperator):
        q = state.expectation(target)
    else:
        raise TypeError(f"expected PureState or DensityOperator, got {type(state).__name__}")
    return 1.0 - q


def partial_trace(state: TwoQubitState, keep: int) -> DensityOperator:
    """Reduced density operator of one slot (0 = kept qubit, 1 = sent qubit)."""
    c00, c01, c10, c11 = state.c00, state.c01, state.c10, state.c11
    if keep == 0:
        d00 = (c00 * c00.conjugate() + c01 * c01.conjugate()).real
        d01 = c00 * c10.conjugate() + c01 * c11.conjugate()
        d11 = (c10 * c10.conjugate() + c11 * c11.conjugate()).real
    elif keep == 1:
        d00 = (c00 * c00.conjugate() + c10 * c10.conjugate()).real
        d01 = c00 * c01.conjugate() + c10 * c11.conjugate()
        d11 = (c01 * c01.conjugate() + c11 * c11.conjugate()).real
    else:
        raise ValueError(f"keep must be 0 or 1, got {keep!r}")
    return DensityOperator([[d00, d01], [d01.conjugate(), d11]])


def local_measure_branches(state: TwoQubitState, basis):
    """Deterministic branch table of a kept-qubit projective measurement:
    ((probability, collapsed sent-qubit state or None), ...) per outcome.
    Branches below norm 1e-12 carry None instead of a normalized state."""
    u0, u1 = basis
    cross = abs(u0.inner(u1))
    if cross > ATOL:
        raise ValueError(f"measurement basis must be orthonormal, |<u0|u1>| = {cross!r}")
    c00, c01, c10, c11 = state.c00, state.c01, state.c10, state.c11
    table = []
    for u in basis:
        k0, k1 = u.a0.conjugate(), u.a1.conjugate()
        b0 = k0 * c00 + k1 * c10
        b1 = k0 * c01 + k1 * c11
        p = b0.real * b0.real + b0.imag * b0.imag + b1.real * b1.real + b1.imag * b1.imag
        if p < 1e-12:
            table.append((p, None))
        else:
            inv = 1.0 / math.sqrt(p)
            table.append((p, PureState(b0 * inv, b1 * inv)))
    return tuple(table)


def remote_povm_branches(state: TwoQubitState, povm: Povm):
    """Deterministic branch table of a rank-one POVM on the sent qubit:
    ((probability, conditional kept-qubit state or None), ...) per outcome.
    Branches below norm 1e-12 carry None instead of a normalized state."""
    if povm.pure_components is None:
        raise ValueError("remote collapse needs a POVM with rank-one components")
    c00, c01, c10, c11 = state.c00, state.c01, state.c10, state.c11
    table = []
    for w, phi in povm.pure_components:
        k0, k1 = phi.a0.conjugate(), phi.a1.conjugate()
        m0 = k0 * c00 + k1 * c01
        m1 = k0 * c10 + k1 * c11
        n2 = m0.real * m0.real + m0.imag * m0.imag + m1.real * m1.real + m1.imag * m1.imag
        p = w * n2
        p = 0.0 if p < 0.0 else (1.0 if p > 1.0 else p)
        if n2 < 1e-12:
            table.append((p, None))
        else:
            inv = 1.0 / math.sqrt(n2)
            table.append((p, PureState(m0 * inv, m1 * inv)))
    return tuple(table)


def depolarize(state: DensityOperator, lam: float) -> DensityOperator:
    """Depolarizing channel rho -> (1 - lam) rho + lam I/2."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"depolarizing strength must lie in [0, 1], got {lam!r}")
    r00, r01, _, r11 = state._flat
    keep = 1.0 - lam
    h = lam / 2.0
    m00 = keep * r00 + h
    m01 = keep * r01
    m11 = keep * r11 + h
    return DensityOperator([[m00, m01], [m01.conjugate(), m11]])

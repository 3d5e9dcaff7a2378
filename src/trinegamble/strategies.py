"""Sender and receiver strategies for the trine gambling game.

Sender kinds: honest uniform play, a fixed prepared state with a fixed
claim, a classical mixture of such pairs, and an entangled sender who
keeps half of a pure two-qubit state and picks her claim from lookup
tables after hearing the guess. Receivers: the honest optimal
discriminator and a blind receiver who guesses uniformly.

Strategies are data. One instance can serve any number of rounds and
runs, pickles cleanly across worker processes, and carries nothing from
one run to the next. montecarlo compiles every sender, with the
receiver, into one branch table, which its sampler plays and its exact
oracle sums: a separable sender's once per run, an entangled sender's
once per distinct sender, receiver and parameters. A separable sender
lists her finite preparations, each the qubit she sends and the claim
she commits to, with their weights, and prepare(rng) draws one with
rng.random(): the table holds nine rows per preparation, and
montecarlo.round_player plays the row that prepare, the round kind, the
guess and the check land on. A receiver is read only through
measurement_povm(). An entangled sender is a pair and two lookup tables,
compiled into eighteen rows that montecarlo plays on the random stream's
words directly; she has no prepare().
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import ClassVar, Optional

import numpy as np

from .qubit import (
    LABEL_INDEX,
    LABELS,
    BlochVector,
    Povm,
    PureState,
    TwoQubitState,
    local_measure_branches,
    optimal_povm,
    outcome_bounds,
    state_from_bloch,
    trine_states,
)

TRINE = trine_states()

# polar angle of each trine state in the x-z Bloch plane
_PLANE_ANGLE = {"a": 0.0, "b": 2.0 * math.pi / 3.0, "c": -2.0 * math.pi / 3.0}


def in_plane_state(angle: float) -> PureState:
    """Pure state at the given polar angle in the trine (x-z) plane."""
    return state_from_bloch(BlochVector(math.sin(angle), 0.0, math.cos(angle)))


@dataclass(frozen=True)
class Preparation:
    """What a separable sender fixed before transmission: the qubit she
    sends and the claim she committed to, which rules the round. An
    entangled sender prepares no single qubit; she plays from her branch
    table instead.
    """

    descriptor: str
    wire: PureState
    claim: str

    def __post_init__(self):
        if self.claim not in LABEL_INDEX:
            raise ValueError(f"claim outside the trine alphabet: {self.claim!r}")


_HONEST_PREPS = tuple(
    Preparation(f"trine:{lab}", TRINE[lab], lab) for lab in LABELS
)


@dataclass(frozen=True)
class HonestAlice:
    """Uniform trine preparation, truthful claim."""

    preparations: ClassVar[tuple] = tuple((1.0 / 3.0, prep) for prep in _HONEST_PREPS)

    def prepare(self, rng) -> Preparation:
        return _HONEST_PREPS[int(rng.random() * 3.0)]


@dataclass(frozen=True)
class FixedStateCheat:
    """Always prepare one fixed state and always make one fixed claim.

    The interesting family lives in the trine plane: from_angle(theta, c)
    prepares the state at Bloch angle theta from the claimed state c,
    rotated within the plane (theta = 2*pi/3 from claim "a" is exactly the
    trine state "b").
    """

    state: PureState
    claim: str = "a"

    def __post_init__(self):
        if self.claim not in LABEL_INDEX:
            raise ValueError(f"unknown trine label {self.claim!r}")
        theta = 2.0 * math.acos(min(1.0, math.sqrt(TRINE[self.claim].fidelity(self.state))))
        object.__setattr__(self, "_prep", Preparation(
            f"fixed:claim={self.claim},theta={theta:.6g}", self.state, self.claim))

    @classmethod
    def from_angle(cls, theta_a: float, claim: str = "a") -> "FixedStateCheat":
        if not 0.0 <= theta_a <= math.pi:
            raise ValueError(f"cheat angle must lie in [0, pi], got {theta_a!r}")
        if claim not in _PLANE_ANGLE:
            raise ValueError(f"unknown trine label {claim!r}")
        return cls(in_plane_state(_PLANE_ANGLE[claim] + theta_a), claim)

    @property
    def preparations(self) -> tuple:
        return ((1.0, self._prep),)

    def prepare(self, rng) -> Preparation:
        return self._prep


@dataclass(frozen=True)
class MixtureCheat:
    """Classical mixture of (probability, state, claim) components."""

    components: tuple

    def __post_init__(self):
        comps = tuple((float(p), s, c) for p, s, c in self.components)
        if not comps:
            raise ValueError("mixture needs at least one component")
        total = 0.0
        preps = []
        for i, (p, s, c) in enumerate(comps):
            if not 0.0 <= p < math.inf:
                raise ValueError(
                    f"component probability must be finite and nonnegative, got {p!r}")
            if not isinstance(s, PureState):
                raise ValueError("mixture components must carry PureState entries")
            total += p
            preps.append(Preparation(f"mix:{i}:claim={c}", s, c))
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"component probabilities must sum to 1, got {total!r}")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "_bounds", outcome_bounds([p for p, _, _ in comps]))
        object.__setattr__(self, "_preps", tuple(preps))

    @property
    def preparations(self) -> tuple:
        return tuple((p, prep) for (p, _, _), prep in zip(self.components, self._preps))

    def prepare(self, rng) -> Preparation:
        return self._preps[bisect_right(self._bounds, rng.random())]


def _nearest_trine(state: PureState) -> str:
    best, best_f = LABELS[0], -1.0
    for lab in LABELS:
        f = TRINE[lab].fidelity(state)
        if f > best_f:
            best, best_f = lab, f
    return best


def greedy_claims(psi: TwoQubitState, basis_policy: dict) -> dict:
    """Claim table that maximizes the check pass probability branch by
    branch: claim the trine state nearest to what the receiver now holds."""
    claims = {}
    for g in LABELS:
        for j, (_, bob_state) in enumerate(local_measure_branches(psi, basis_policy[g])):
            claims[(g, j)] = g if bob_state is None else _nearest_trine(bob_state)
    return claims


@dataclass(frozen=True, eq=False)
class EntangledAlice:
    """Keeps the first qubit of psi, sends the second.

    After hearing the guess g she measures her qubit in basis_policy[g]
    (an orthonormal pair) and claims claim_policy[(g, outcome)]. Both
    policies are finite lookup tables fixed before the game starts, so the
    whole game she plays is a finite branch tree: montecarlo's
    _entangled_table compiles it, and simulate and enumerate_exact play and
    sum it. She has no prepare of her own.
    """

    psi: TwoQubitState
    basis_policy: dict
    claim_policy: dict

    def __post_init__(self):
        if set(self.basis_policy) != set(LABELS):
            raise ValueError("basis policy must cover exactly the three guesses")
        for g, (u0, u1) in self.basis_policy.items():
            cross = abs(u0.inner(u1))
            if cross > 1e-9:
                raise ValueError(f"basis for guess {g!r} is not orthonormal, |<u0|u1>| = {cross!r}")
        expected_keys = {(g, j) for g in LABELS for j in (0, 1)}
        if set(self.claim_policy) != expected_keys:
            raise ValueError("claim policy must cover (guess, outcome) for all six branches")
        for key, lab in self.claim_policy.items():
            if lab not in LABEL_INDEX:
                raise ValueError(f"claim policy maps {key!r} to unknown label {lab!r}")


def singlet_mirror() -> EntangledAlice:
    """Singlet pair, measurement aligned with the guess, greedy claims."""
    psi = TwoQubitState.singlet()
    basis_policy = {g: (TRINE[g], TRINE[g].orthogonal()) for g in LABELS}
    return EntangledAlice(psi, basis_policy, greedy_claims(psi, basis_policy))


def aligned_pair() -> EntangledAlice:
    """Maximally correlated pair (|00> + |11>)/sqrt(2), guess-aligned bases,
    greedy claims. Steers the receiver's qubit onto the guessed state in
    one branch of every checking round."""
    psi = TwoQubitState.phi_plus()
    basis_policy = {g: (TRINE[g], TRINE[g].orthogonal()) for g in LABELS}
    return EntangledAlice(psi, basis_policy, greedy_claims(psi, basis_policy))


def random_entangled_policy(rng: np.random.Generator) -> EntangledAlice:
    """A randomly parameterized entangled sender: Gaussian-random pure pair,
    independent random measurement basis per guess, and one of three claim
    modes (greedy, always-confirm, uniform random table)."""
    raw = rng.standard_normal(8)
    psi = TwoQubitState.from_unnormalized(
        complex(raw[0], raw[1]), complex(raw[2], raw[3]),
        complex(raw[4], raw[5]), complex(raw[6], raw[7]),
    )
    basis_policy = {}
    for g in LABELS:
        comps = rng.standard_normal(4)
        u = PureState.from_unnormalized(complex(comps[0], comps[1]), complex(comps[2], comps[3]))
        basis_policy[g] = (u, u.orthogonal())
    mode = int(rng.integers(3))
    if mode == 0:
        claim_policy = greedy_claims(psi, basis_policy)
    elif mode == 1:
        claim_policy = {(g, j): g for g in LABELS for j in (0, 1)}
    else:
        claim_policy = {(g, j): LABELS[int(rng.integers(3))] for g in LABELS for j in (0, 1)}
    return EntangledAlice(psi, basis_policy, claim_policy)


_BOB_KINDS = ("honest_optimal", "random_guess")


@dataclass(frozen=True)
class BobStrategy:
    """Receiver behavior in normal rounds: the POVM he measures, or None for
    a blind guess. Checking rounds are fixed by the protocol (store the
    qubit, guess uniformly) for every kind."""

    kind: str = "honest_optimal"

    def __post_init__(self):
        if self.kind not in _BOB_KINDS:
            raise ValueError(f"unknown receiver kind {self.kind!r}")
        povm = optimal_povm() if self.kind == "honest_optimal" else None
        object.__setattr__(self, "_povm", povm)

    @classmethod
    def honest_optimal(cls) -> "BobStrategy":
        return cls("honest_optimal")

    @classmethod
    def random_guess(cls) -> "BobStrategy":
        return cls("random_guess")

    def measurement_povm(self) -> Optional[Povm]:
        return self._povm


def posterior_unmeasured(r: float, guess_matches_claim: bool) -> float:
    """Sender-side posterior that the receiver has NOT measured, given only
    his guess and her claim.

    Checking rounds hit either guess with probability r/3; normal rounds
    hit the sent label with probability 2/3 and each other label with 1/6.
    The posterior is bounded below by r/3 for every 0 < r < 1.
    """
    r = float(r)
    if not 0.0 < r < 1.0:
        raise ValueError(f"posterior needs 0 < r < 1, got {r!r}")
    unmeasured = r / 3.0
    measured = (1.0 - r) * (2.0 / 3.0 if guess_matches_claim else 1.0 / 6.0)
    return unmeasured / (unmeasured + measured)


def parse_alice_spec(spec: str):
    """Build a sender strategy from its plain-text form.

    Forms: ``honest``; ``fixed:theta_a=<rad>,claim=<a|b|c>``;
    ``mixture:<p:state:claim;...>`` where state is a trine label or a polar
    angle in the trine plane (radians); ``entangled:<singlet|aligned|random:N>``.
    """
    spec = spec.strip()
    if spec == "honest":
        return HonestAlice()
    head, _, rest = spec.partition(":")
    if head == "fixed":
        theta = None
        claim = "a"
        if not rest:
            raise ValueError("fixed strategy needs theta_a=<radians>")
        seen = set()
        for part in rest.split(","):
            key, eq, value = part.partition("=")
            if not eq:
                raise ValueError(f"malformed fixed parameter {part!r}")
            if key in seen:
                raise ValueError(f"repeated fixed parameter {key!r}")
            seen.add(key)
            if key == "theta_a":
                theta = _parse_float(value, "theta_a")
            elif key == "claim":
                claim = value
            else:
                raise ValueError(f"unknown fixed parameter {key!r}")
        if theta is None:
            raise ValueError("fixed strategy needs theta_a=<radians>")
        return FixedStateCheat.from_angle(theta, claim)
    if head == "mixture":
        if not rest:
            raise ValueError("mixture strategy needs components p:state:claim;...")
        comps = []
        for part in rest.split(";"):
            pieces = part.split(":")
            if len(pieces) != 3:
                raise ValueError(f"malformed mixture component {part!r}")
            p = _parse_float(pieces[0], "component probability")
            state = _parse_state(pieces[1])
            comps.append((p, state, pieces[2]))
        return MixtureCheat(tuple(comps))
    if head == "entangled":
        if rest == "singlet":
            return singlet_mirror()
        if rest == "aligned":
            return aligned_pair()
        sub, _, seed = rest.partition(":")
        if sub == "random" and seed:
            try:
                n = int(seed)
            except ValueError:
                raise ValueError(f"entangled:random needs an integer seed, got {seed!r}") from None
            if n < 0:
                raise ValueError(f"entangled:random needs a nonnegative seed, got {seed!r}")
            return random_entangled_policy(np.random.default_rng(n))
        raise ValueError(f"unknown entangled preset {rest!r}")
    raise ValueError(f"unknown sender strategy {spec!r}")


def parse_bob_spec(spec: str) -> BobStrategy:
    """Receiver strategies exposed to the command line: honest or random."""
    spec = spec.strip()
    if spec == "honest":
        return BobStrategy.honest_optimal()
    if spec == "random":
        return BobStrategy.random_guess()
    raise ValueError(f"unknown receiver strategy {spec!r}")


def _parse_float(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{what} must be a number, got {text!r}") from None


def _parse_state(text: str) -> PureState:
    if text in TRINE:
        return TRINE[text]
    angle = _parse_float(text, "state angle")
    if not math.isfinite(angle):
        raise ValueError(f"state angle must be finite, got {text!r}")
    return in_plane_state(angle)

"""Qubit algebra: trine geometry, Born rule, branch tables and their sampling.

Frozen expectations were derived by hand from the 2x2 linear algebra
(inner products of the stated amplitudes) or recomputed here with an
independent numpy kron oracle where the package uses staged scalar math.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from trinegamble.qubit import (
    LABELS,
    BlochVector,
    DensityOperator,
    Povm,
    PureState,
    TwoQubitState,
    bloch_from_state,
    born_probabilities,
    check_fail_probability,
    depolarize,
    local_measure_branches,
    optimal_povm,
    partial_trace,
    outcome_bounds,
    remote_povm_branches,
    state_from_bloch,
    trine_states,
)
from trinegamble.montecarlo import (
    _NORMAL,
    _entangled_table,
    _round_words,
    _table_branches,
    _word_threshold,
)
from trinegamble.protocol import ProtocolParams
from trinegamble.strategies import BobStrategy, EntangledAlice

from conftest import four_sigma, random_basis, random_pair

SQRT3_2 = math.sqrt(3.0) / 2.0


# ---------------------------------------------------------------------------
# hypothesis building blocks

finite = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def pure_states(draw):
    raw = [draw(finite) for _ in range(4)]
    norm2 = sum(v * v for v in raw)
    if norm2 < 1e-4:
        raw[0] = 1.0
    return PureState.from_unnormalized(complex(raw[0], raw[1]), complex(raw[2], raw[3]))


@st.composite
def pair_states(draw):
    raw = [draw(finite) for _ in range(8)]
    norm2 = sum(v * v for v in raw)
    if norm2 < 1e-4:
        raw[0] = 1.0
    return TwoQubitState.from_unnormalized(
        complex(raw[0], raw[1]), complex(raw[2], raw[3]),
        complex(raw[4], raw[5]), complex(raw[6], raw[7]),
    )


# ---------------------------------------------------------------------------
# trine geometry


def test_trine_amplitudes():
    t = trine_states()
    assert t["a"].a0 == 1.0 and t["a"].a1 == 0.0
    assert t["b"].a0 == 0.5 and t["b"].a1 == pytest.approx(SQRT3_2, abs=0)
    assert t["c"].a0 == 0.5 and t["c"].a1 == pytest.approx(-SQRT3_2, abs=0)


def test_trine_pairwise_overlap_squared_is_one_quarter():
    t = trine_states()
    for x, y in (("a", "b"), ("a", "c"), ("b", "c")):
        assert abs(t[x].fidelity(t[y]) - 0.25) < 1e-12


def test_trine_bloch_vectors_form_plane_trident():
    t = trine_states()
    vecs = {lab: bloch_from_state(t[lab]) for lab in LABELS}
    assert vecs["a"].x == pytest.approx(0.0, abs=1e-12)
    assert vecs["a"].z == pytest.approx(1.0, abs=1e-12)
    assert vecs["b"].x == pytest.approx(SQRT3_2, abs=1e-12)
    assert vecs["b"].z == pytest.approx(-0.5, abs=1e-12)
    for lab in LABELS:
        assert vecs[lab].y == 0.0
    # pairwise angle 2*pi/3
    for x, y in (("a", "b"), ("a", "c"), ("b", "c")):
        assert vecs[x].dot(vecs[y]) == pytest.approx(-0.5, abs=1e-12)


def test_pure_state_rejects_bad_norm_and_nan():
    with pytest.raises(ValueError):
        PureState(1.0, 1.0)
    with pytest.raises(ValueError):
        PureState(float("nan"), 0.0)
    with pytest.raises(ValueError):
        PureState.from_unnormalized(0.0, 0.0)


@given(pure_states())
def test_orthogonal_companion(s):
    o = s.orthogonal()
    assert abs(s.inner(o)) < 1e-12
    assert abs(abs(o.a0) ** 2 + abs(o.a1) ** 2 - 1.0) < 1e-9


@given(pure_states())
def test_bloch_round_trip(s):
    v = bloch_from_state(s)
    assert abs(v.norm() - 1.0) < 1e-9
    back = state_from_bloch(v)
    assert back.fidelity(s) > 1.0 - 1e-9


def test_state_from_bloch_rejects_non_unit():
    with pytest.raises(ValueError):
        state_from_bloch(BlochVector(0.5, 0.0, 0.0))
    with pytest.raises(ValueError):
        BlochVector(1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# mixtures and density operators


def test_uniform_trine_mixture_is_maximally_mixed():
    t = trine_states()
    rho = DensityOperator(sum(t[lab].density().matrix for lab in LABELS) / 3.0)
    b = rho.bloch()
    assert abs(b.x) < 1e-12 and abs(b.y) < 1e-12 and abs(b.z) < 1e-12


def test_density_operator_validation():
    with pytest.raises(ValueError):
        DensityOperator([[0.6, 0.0], [0.0, 0.6]])  # trace
    with pytest.raises(ValueError):
        DensityOperator([[1.2, 0.0], [0.0, -0.2]])  # eigenvalue
    with pytest.raises(ValueError):
        DensityOperator([[0.5, 0.3], [0.1, 0.5]])  # hermiticity


# ---------------------------------------------------------------------------
# the trine discriminator


def test_discriminator_elements_complete_and_positive():
    povm = optimal_povm()
    total = np.zeros((2, 2), dtype=complex)
    for e in povm.elements:
        m = np.asarray(e, dtype=complex)
        assert np.linalg.eigvalsh(m).min() > -1e-9
        total += m
    assert np.max(np.abs(total - np.eye(2))) < 1e-12
    assert povm.labels == LABELS


def test_born_rule_on_matching_trine_state():
    probs = born_probabilities(trine_states()["a"], optimal_povm())
    assert abs(probs[0] - 2.0 / 3.0) < 1e-12
    assert abs(probs[1] - 1.0 / 6.0) < 1e-12
    assert abs(probs[2] - 1.0 / 6.0) < 1e-12


def test_uniform_honest_input_guessed_correctly_two_thirds():
    povm = optimal_povm()
    t = trine_states()
    correct = sum(born_probabilities(t[lab], povm)[k] for k, lab in enumerate(LABELS)) / 3.0
    assert abs(correct - 2.0 / 3.0) < 1e-12


def test_born_on_maximally_mixed_is_uniform():
    probs = born_probabilities(DensityOperator(np.eye(2) / 2.0), optimal_povm())
    for p in probs:
        assert abs(p - 1.0 / 3.0) < 1e-12


@given(pure_states())
def test_born_output_is_probability_vector(s):
    probs = born_probabilities(s, optimal_povm())
    for p in probs:
        assert 0.0 <= p <= 1.0
    assert abs(sum(probs) - 1.0) < 1e-12


def test_born_rejects_non_states():
    with pytest.raises(TypeError):
        born_probabilities("a", optimal_povm())


def test_povm_constructor_rejects_incomplete_elements():
    half = np.eye(2) * 0.4
    with pytest.raises(ValueError):
        Povm((half, half), ("a", "b"), None)


def test_povm_completeness_tolerance_is_absolute():
    # numpy's default relative tolerance (1e-5) would let trine weights 5e-6
    # too heavy through, to fail later as probabilities that do not sum to 1
    heavy = tuple(((2.0 / 3.0) * (1.0 + 5e-6), trine_states()[lab]) for lab in LABELS)
    with pytest.raises(ValueError, match="sum to the identity"):
        Povm.from_pure_states(heavy, LABELS)
    # an overshoot just under the 1e-9 tolerance, as test_branch_table's
    # _SlackBob builds it, is still accepted
    slack = tuple(((2.0 / 3.0) * (1.0 + 0.9e-9), trine_states()[lab]) for lab in LABELS)
    assert Povm.from_pure_states(slack, LABELS).labels == LABELS


# ---------------------------------------------------------------------------
# the claim check


def test_check_fail_probability_frozen_points():
    t = trine_states()
    assert check_fail_probability(t["a"], "a") == 0.0
    assert check_fail_probability(t["b"], "b") == 0.0  # exact despite sqrt3 rounding
    assert abs(check_fail_probability(t["b"], "a") - 0.75) < 1e-12
    with pytest.raises(ValueError):
        check_fail_probability(t["a"], "d")


def test_check_fail_probability_follows_half_angle_law():
    # state at Bloch angle theta from the claimed trine direction
    for theta in np.linspace(0.0, math.pi, 40):
        s = state_from_bloch(BlochVector(math.sin(theta), 0.0, math.cos(theta)))
        want = 1.0 - math.cos(theta / 2.0) ** 2
        assert abs(check_fail_probability(s, "a") - want) < 1e-12


# ---------------------------------------------------------------------------
# channel noise


def test_depolarize_endpoints():
    t = trine_states()
    rho = t["b"].density()
    same = depolarize(rho, 0.0)
    assert np.allclose(same.matrix, rho.matrix, atol=1e-15)
    flat = depolarize(rho, 1.0)
    assert np.allclose(flat.matrix, np.eye(2) / 2.0, atol=1e-15)


def test_depolarize_makes_eigenstate_check_fail_at_half_lambda():
    t = trine_states()
    noisy = depolarize(t["a"].density(), 0.1)
    assert abs(check_fail_probability(noisy, "a") - 0.05) < 1e-12


def test_depolarize_validates_lambda():
    rho = trine_states()["a"].density()
    with pytest.raises(ValueError):
        depolarize(rho, -0.1)
    with pytest.raises(ValueError):
        depolarize(rho, 1.1)


@given(pure_states(), st.floats(0.0, 1.0, allow_nan=False))
def test_depolarize_keeps_valid_density(s, lam):
    rho = depolarize(s.density(), lam)  # constructor revalidates everything
    assert abs(rho.matrix[0, 0].real + rho.matrix[1, 1].real - 1.0) < 1e-9
    assert rho.bloch().norm() <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# two-qubit reductions and collapse


def test_partial_trace_of_correlated_pair_is_flat():
    rho = partial_trace(TwoQubitState.phi_plus(), keep=1)
    assert np.allclose(rho.matrix, np.eye(2) / 2.0, atol=1e-12)
    rho0 = partial_trace(TwoQubitState.singlet(), keep=0)
    assert np.allclose(rho0.matrix, np.eye(2) / 2.0, atol=1e-12)


def test_partial_trace_of_product_state_recovers_factors():
    t = trine_states()
    psi = TwoQubitState.from_product(t["a"], t["b"])
    assert partial_trace(psi, keep=0).expectation(t["a"]) == pytest.approx(1.0, abs=1e-12)
    assert partial_trace(psi, keep=1).expectation(t["b"]) == pytest.approx(1.0, abs=1e-12)


@given(pair_states())
def test_partial_trace_yields_valid_density(psi):
    for keep in (0, 1):
        rho = partial_trace(psi, keep)
        tr = rho.matrix[0, 0].real + rho.matrix[1, 1].real
        assert abs(tr - 1.0) < 1e-9


# the sender's outcome j, readable from her claim
_CLAIM_OUTCOME = {(g, j): "ab"[j] for g in LABELS for j in (0, 1)}


def _checking_outcomes(alice, n, seed):
    """The sender's outcome j in n checking rounds played from her
    compiled branch table, with the table."""
    table = _entangled_table(alice, BobStrategy.random_guess(), ProtocolParams(r=0.5, R=398.0))
    w = _round_words(seed, 0, n)
    w[:, 0] = 0  # every row a checking round: the word of the uniform 0.0
    return (_table_branches(table, w) - _NORMAL) // 2 % 2, table


def test_local_collapse_on_singlet_anticorrelates():
    psi = TwoQubitState.singlet()
    t = trine_states()
    basis = (t["a"], t["a"].orthogonal())
    branches = local_measure_branches(psi, basis)
    assert abs(branches[0][0] - 0.5) < 1e-12
    assert abs(branches[1][0] - 0.5) < 1e-12
    # outcome u leaves the partner in the orthogonal state
    assert branches[0][1].fidelity(basis[1]) > 1.0 - 1e-12
    assert branches[1][1].fidelity(basis[0]) > 1.0 - 1e-12


def test_local_collapse_on_product_state_is_inert():
    t = trine_states()
    psi = TwoQubitState.from_product(t["a"], t["b"])
    basis = (t["a"], t["a"].orthogonal())
    branches = local_measure_branches(psi, basis)
    assert abs(branches[0][0] - 1.0) < 1e-12
    assert branches[0][1].fidelity(t["b"]) > 1.0 - 1e-12
    assert branches[1][1] is None  # unreachable branch carries no state
    # the sender's outcome is always 0, and the check reads its collapsed state
    alice = EntangledAlice(psi, {g: basis for g in LABELS}, _CLAIM_OUTCOME)
    j, table = _checking_outcomes(alice, 5_000, 3)
    assert not j.any()
    p_fail = check_fail_probability(branches[0][1], "a")
    assert p_fail == pytest.approx(0.75) and table.p_fail[0] == _word_threshold(p_fail)


def test_local_collapse_requires_orthonormal_basis():
    t = trine_states()
    with pytest.raises(ValueError):
        local_measure_branches(TwoQubitState.singlet(), (t["a"], t["b"]))


def test_local_collapse_sampling_matches_branch_weights():
    # the sender draws her outcome on the pair from local_measure_branches,
    # and the check reads the collapsed state of the outcome drawn
    rng_np = np.random.default_rng(42)
    psi = random_pair(rng_np)
    basis = random_basis(rng_np)
    branches = local_measure_branches(psi, basis)
    alice = EntangledAlice(psi, {g: basis for g in LABELS}, _CLAIM_OUTCOME)
    n = 50_000
    j, table = _checking_outcomes(alice, n, 1234)
    for g in range(3):
        assert table.p0_local[g] == _word_threshold(branches[0][0])
        for k in (0, 1):
            assert table.p_fail[2 * g + k] == _word_threshold(
                check_fail_probability(branches[k][1], "ab"[k]))
    p0 = branches[0][0]
    assert abs(np.mean(j == 0) - p0) < four_sigma(p0, n)


def test_steering_average_recovers_reduced_state():
    """Probability-weighted collapsed Bloch vectors must average to the
    partner's reduced state, whatever basis the holder measures in."""
    rng_np = np.random.default_rng(2024)
    for _ in range(100):
        psi = random_pair(rng_np)
        basis = random_basis(rng_np)
        target = partial_trace(psi, keep=1).bloch()
        x = y = z = 0.0
        for p, branch in local_measure_branches(psi, basis):
            if branch is None:
                continue
            b = bloch_from_state(branch)
            x += p * b.x
            y += p * b.y
            z += p * b.z
        assert abs(x - target.x) < 1e-9
        assert abs(y - target.y) < 1e-9
        assert abs(z - target.z) < 1e-9


def _kron_joint_distribution(psi, basis, povm):
    """Independent oracle: joint outcome probabilities via explicit 4x4
    operators, no staged collapse."""
    v = psi.vector()
    eye = np.eye(2, dtype=complex)
    out = np.zeros((2, 3))
    for j, u in enumerate(basis):
        uv = np.array([u.a0, u.a1], dtype=complex)
        pj = np.outer(uv, uv.conj())
        for k, e in enumerate(povm.elements):
            op = np.kron(pj, np.asarray(e, dtype=complex))
            out[j, k] = (v.conj() @ op @ v).real
    return out


def test_measurement_order_does_not_matter():
    """Staged keeper-first and sender-first computations both reproduce the
    kron-oracle joint distribution."""
    povm = optimal_povm()
    rng_np = np.random.default_rng(7)
    for _ in range(100):
        psi = random_pair(rng_np)
        basis = random_basis(rng_np)
        oracle = _kron_joint_distribution(psi, basis, povm)

        keeper_first = np.zeros((2, 3))
        for j, (p, branch) in enumerate(local_measure_branches(psi, basis)):
            if branch is None:
                continue
            for k, q in enumerate(born_probabilities(branch, povm)):
                keeper_first[j, k] = p * q

        sender_first = np.zeros((2, 3))
        for k, (p, kept) in enumerate(remote_povm_branches(psi, povm)):
            if kept is None:
                continue
            for j in range(2):
                sender_first[j, k] = p * basis[j].fidelity(kept)

        assert np.max(np.abs(keeper_first - oracle)) < 1e-9
        assert np.max(np.abs(sender_first - oracle)) < 1e-9


def test_remote_collapse_needs_rank_one_elements():
    flat = np.eye(2, dtype=complex) / 3.0
    povm = Povm((flat, flat, flat), ("a", "b", "c"), None)
    with pytest.raises(ValueError):
        remote_povm_branches(TwoQubitState.singlet(), povm)
    alice = EntangledAlice(TwoQubitState.singlet(), {g: random_basis(np.random.default_rng(0))
                                                     for g in LABELS}, _CLAIM_OUTCOME)
    with pytest.raises(ValueError):
        _entangled_table(alice, _FixedPovmBob(povm), ProtocolParams(r=0.0, R=398.0))


class _FixedPovmBob:
    """A receiver measuring with the given POVM, as a BobStrategy's duck type."""

    def __init__(self, povm):
        self.povm = povm

    def measurement_povm(self):
        return self.povm


def test_remote_collapse_sampling_matches_branch_weights():
    # a normal round draws the receiver's outcome from remote_povm_branches
    # and the sender's outcome on that branch's kept state
    rng_np = np.random.default_rng(11)
    psi = random_pair(rng_np)
    povm = optimal_povm()
    branches = remote_povm_branches(psi, povm)
    t = trine_states()
    basis = {g: (t[g], t[g].orthogonal()) for g in LABELS}
    alice = EntangledAlice(psi, basis, _CLAIM_OUTCOME)
    table = _entangled_table(alice, BobStrategy.honest_optimal(), ProtocolParams(r=0.0, R=398.0))
    assert table.bounds == tuple(map(_word_threshold, outcome_bounds([p for p, _ in branches])))
    for k, (label, (_, kept)) in enumerate(zip(povm.labels, branches)):
        assert table.p0_normal[k] == _word_threshold(basis[label][0].fidelity(kept))
    n = 60_000
    k = _table_branches(table, _round_words(55, 0, n)) // 2
    for i in range(3):
        p = branches[i][0]
        assert abs(np.mean(k == i) - p) < four_sigma(p, n)

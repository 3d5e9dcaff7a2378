"""Sender and receiver strategy objects plus the strategy mini-language."""

import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from trinegamble.montecarlo import _compile_entangled_table
from trinegamble.protocol import ProtocolParams, RoundKind, RoundResult, received_state
from trinegamble.qubit import (
    LABELS,
    TwoQubitState,
    local_measure_branches,
    optimal_povm,
    trine_states,
)
from trinegamble.strategies import (
    BobStrategy,
    EntangledAlice,
    FixedStateCheat,
    HonestAlice,
    MixtureCheat,
    greedy_claims,
    in_plane_state,
    parse_alice_spec,
    parse_bob_spec,
    posterior_unmeasured,
    random_entangled_policy,
    singlet_mirror,
)

from conftest import four_sigma, random_basis, random_pair, transcript_player

TRINE = trine_states()


# ---------------------------------------------------------------------------
# geometry helper


def test_in_plane_state_hits_the_trine():
    assert in_plane_state(0.0).fidelity(TRINE["a"]) > 1.0 - 1e-12
    assert in_plane_state(2.0 * math.pi / 3.0).fidelity(TRINE["b"]) > 1.0 - 1e-12
    assert in_plane_state(-2.0 * math.pi / 3.0).fidelity(TRINE["c"]) > 1.0 - 1e-12


# ---------------------------------------------------------------------------
# honest sender


def test_honest_preparation_is_uniform_and_truthful(rng):
    alice = HonestAlice()
    counts = {lab: 0 for lab in LABELS}
    n = 30_000
    for _ in range(n):
        prep = alice.prepare(rng)
        assert prep.descriptor == f"trine:{prep.claim}"
        assert prep.wire is TRINE[prep.claim]
        counts[prep.claim] += 1
    for lab in LABELS:
        assert abs(counts[lab] / n - 1 / 3) < four_sigma(1 / 3, n)


def test_honest_adjudication_is_truthful(rng):
    # each round is ruled by the claim she committed to: the label she sent
    play = transcript_player(HonestAlice(), BobStrategy.honest_optimal(),
                             ProtocolParams(r=0.5, R=398.0))
    results = set()
    for _ in range(300):
        t = play(rng)
        assert t.sent_descriptor == f"trine:{t.verdict.claimed}"
        assert (t.verdict.result is RoundResult.BOB_WON) == (t.guess == t.verdict.claimed)
        results.add(t.verdict.result)
    assert results == set(RoundResult)


# ---------------------------------------------------------------------------
# fixed-state cheat


def test_fixed_cheat_from_angle_lands_on_neighbor_trine():
    cheat = FixedStateCheat.from_angle(2.0 * math.pi / 3.0, "a")
    assert cheat.state.fidelity(TRINE["b"]) > 1.0 - 1e-9


def test_fixed_cheat_descriptor_encodes_angle():
    cheat = FixedStateCheat.from_angle(1.0, "b")
    prep = cheat.prepare(random.Random(0))
    assert prep.descriptor == "fixed:claim=b,theta=1"
    assert prep.claim == "b" and prep.wire is cheat.state


def test_fixed_cheat_always_claims_its_label(rng):
    cheat = FixedStateCheat(TRINE["b"], claim="a")
    play = transcript_player(cheat, BobStrategy.random_guess(), ProtocolParams(r=0.5, R=398.0))
    guesses = set()
    for _ in range(300):
        t = play(rng)
        assert t.verdict.claimed == "a"
        assert (t.verdict.result is RoundResult.BOB_WON) == (t.guess == "a")
        guesses.add(t.guess)
    assert guesses == set(LABELS)


def test_fixed_cheat_validation():
    with pytest.raises(ValueError):
        FixedStateCheat.from_angle(-0.1, "a")
    with pytest.raises(ValueError):
        FixedStateCheat.from_angle(math.pi + 0.1, "a")
    with pytest.raises(ValueError):
        FixedStateCheat.from_angle(1.0, "d")
    with pytest.raises(ValueError):
        FixedStateCheat(TRINE["a"], claim="z")


# ---------------------------------------------------------------------------
# mixture cheat


def test_mixture_prepare_frequencies(rng):
    mix = MixtureCheat(((0.25, TRINE["a"], "a"), (0.75, TRINE["b"], "b")))
    n = 30_000
    first = sum(mix.prepare(rng).claim == "a" for _ in range(n))
    assert abs(first / n - 0.25) < four_sigma(0.25, n)


def test_mixture_zero_weight_component_never_fires(rng):
    mix = MixtureCheat(((0.0, TRINE["a"], "a"), (1.0, TRINE["b"], "b")))
    assert all(mix.prepare(rng).claim == "b" for _ in range(5_000))


def test_mixture_validation():
    with pytest.raises(ValueError):
        MixtureCheat(())
    with pytest.raises(ValueError):
        MixtureCheat(((0.5, TRINE["a"], "a"), (0.6, TRINE["b"], "b")))
    with pytest.raises(ValueError):
        MixtureCheat(((-0.5, TRINE["a"], "a"), (1.5, TRINE["b"], "b")))
    with pytest.raises(ValueError):
        MixtureCheat(((1.0, TRINE["a"], "d"),))
    with pytest.raises(ValueError):
        MixtureCheat(((1.0, "not a state", "a"),))
    for weight in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            MixtureCheat(((weight, TRINE["a"], "a"),))
        with pytest.raises(ValueError):
            MixtureCheat(((weight, TRINE["a"], "a"), (1.0, TRINE["b"], "b")))


# ---------------------------------------------------------------------------
# entangled sender


def test_greedy_claims_pick_the_closest_trine():
    gen = np.random.default_rng(5)
    for _ in range(20):
        psi = random_pair(gen)
        policy = {g: random_basis(gen) for g in LABELS}
        claims = greedy_claims(psi, policy)
        for g in LABELS:
            for j, (_, bob_state) in enumerate(local_measure_branches(psi, policy[g])):
                lab = claims[(g, j)]
                if bob_state is None:
                    assert lab == g
                    continue
                best = max(TRINE[x].fidelity(bob_state) for x in LABELS)
                assert TRINE[lab].fidelity(bob_state) > best - 1e-12


def test_entangled_policy_validation():
    psi = TwoQubitState.singlet()
    good_basis = {g: (TRINE[g], TRINE[g].orthogonal()) for g in LABELS}
    good_claims = {(g, j): g for g in LABELS for j in (0, 1)}
    EntangledAlice(psi, good_basis, good_claims)  # sanity
    with pytest.raises(ValueError):
        EntangledAlice(psi, {"a": good_basis["a"]}, good_claims)
    with pytest.raises(ValueError):
        bad = dict(good_basis)
        bad["b"] = (TRINE["b"], TRINE["c"])  # not orthonormal
        EntangledAlice(psi, bad, good_claims)
    with pytest.raises(ValueError):
        EntangledAlice(psi, good_basis, {("a", 0): "a"})
    with pytest.raises(ValueError):
        wrong = dict(good_claims)
        wrong[("a", 0)] = "z"
        EntangledAlice(psi, good_basis, wrong)


def test_random_entangled_policies_are_valid_and_reproducible():
    a1 = random_entangled_policy(np.random.default_rng(7))
    a2 = random_entangled_policy(np.random.default_rng(7))
    assert a1.psi == a2.psi and a1.claim_policy == a2.claim_policy
    modes = set()
    for seed in range(40):
        alice = random_entangled_policy(np.random.default_rng(seed))
        confirm = all(alice.claim_policy[(g, j)] == g for g in LABELS for j in (0, 1))
        greedy = alice.claim_policy == greedy_claims(alice.psi, alice.basis_policy)
        modes.add("confirm" if confirm else ("greedy" if greedy else "table"))
    assert modes == {"confirm", "greedy", "table"}


# ---------------------------------------------------------------------------
# receiver strategies


def _guesses(bob, r, rng, n, kind=RoundKind.NORMAL):
    """The guesses of the rounds of the given kind among n rounds against a
    sender who always sends the trine state a and claims it."""
    play = transcript_player(FixedStateCheat(TRINE["a"], "a"), bob,
                             ProtocolParams(r=r, R=398.0))
    return [t.guess for t in (play(rng) for _ in range(n)) if t.kind is kind]


def test_honest_receiver_measures_with_the_discriminator(rng):
    bob = BobStrategy.honest_optimal()
    assert bob.measurement_povm() is optimal_povm()
    n = 30_000
    hits = _guesses(bob, 0.0, rng, n).count("a")
    assert abs(hits / n - 2.0 / 3.0) < four_sigma(2.0 / 3.0, n)


class _PovmOnly:
    """A receiver with nothing but his POVM."""

    def __init__(self, povm):
        self.povm = povm

    def measurement_povm(self):
        return self.povm


@pytest.mark.parametrize("noise", [0.0, 0.1])
def test_a_receiver_is_read_only_through_his_povm(monkeypatch, noise):
    # the receiver is data: a round never hands him the qubit, and the
    # check reads what the channel delivers
    params = ProtocolParams(r=0.5, R=398.0, noise_lambda=noise)
    cheat = FixedStateCheat(TRINE["c"], claim="a")
    checked = []

    def recording(state, claimed):
        checked.append(state)
        return 0.25

    monkeypatch.setattr("trinegamble.montecarlo.check_fail_probability", recording)
    for bob in (BobStrategy.honest_optimal(), BobStrategy.random_guess()):
        stub = transcript_player(cheat, _PovmOnly(bob.measurement_povm()), params)
        play = transcript_player(cheat, bob, params)
        rng_stub, rng_bob = random.Random(3), random.Random(3)
        assert [stub(rng_stub) for _ in range(500)] == [play(rng_bob) for _ in range(500)]
    want = received_state(TRINE["c"], noise)
    assert len(checked) == 4
    for state in checked:
        assert state is want if noise == 0.0 else np.array_equal(state.matrix, want.matrix)


def test_checking_round_guess_is_uniform_for_every_kind(rng):
    n = 30_000
    for bob in (BobStrategy.honest_optimal(), BobStrategy.random_guess()):
        guesses = _guesses(bob, 0.999999, rng, n, RoundKind.CHECKING)
        hits = guesses.count("b")
        assert abs(hits / len(guesses) - 1 / 3) < four_sigma(1 / 3, len(guesses))


def test_blind_receivers(rng):
    blind = BobStrategy.random_guess()
    assert blind.measurement_povm() is None
    # a blind guess ignores the qubit: he names the sent state a third of
    # the time, not two thirds
    n = 30_000
    hits = _guesses(blind, 0.0, rng, n).count("a")
    assert abs(hits / n - 1 / 3) < four_sigma(1 / 3, n)


def test_receiver_validation():
    for kind in ("clairvoyant", "fixed_guess", "custom_povm"):
        with pytest.raises(ValueError):
            BobStrategy(kind)


# ---------------------------------------------------------------------------
# posterior that the receiver has not measured


def test_posterior_frozen_values():
    assert posterior_unmeasured(0.1, True) == pytest.approx(1.0 / 19.0, abs=1e-15)
    assert posterior_unmeasured(0.1, False) == pytest.approx(2.0 / 11.0, abs=1e-15)


def test_posterior_domain():
    with pytest.raises(ValueError):
        posterior_unmeasured(0.0, True)
    with pytest.raises(ValueError):
        posterior_unmeasured(1.0, False)


@given(st.floats(1e-6, 1.0 - 1e-6))
def test_posterior_never_falls_below_third_of_rate(r):
    assert posterior_unmeasured(r, True) >= r / 3.0
    assert posterior_unmeasured(r, False) >= r / 3.0


def test_posterior_small_rate_asymptotics():
    r = 1e-7
    assert posterior_unmeasured(r, True) == pytest.approx(r / 2.0, rel=1e-3)
    assert posterior_unmeasured(r, False) == pytest.approx(2.0 * r, rel=1e-3)


def test_posterior_mismatch_reveals_more():
    for r in (0.01, 0.1, 0.5, 0.9):
        assert posterior_unmeasured(r, False) > posterior_unmeasured(r, True)


# ---------------------------------------------------------------------------
# strategy mini-language


def test_parse_honest():
    assert isinstance(parse_alice_spec("honest"), HonestAlice)
    assert isinstance(parse_alice_spec("  honest  "), HonestAlice)


def test_parse_fixed():
    cheat = parse_alice_spec("fixed:theta_a=1.0,claim=b")
    assert isinstance(cheat, FixedStateCheat)
    assert cheat.claim == "b"
    want = in_plane_state(2.0 * math.pi / 3.0 + 1.0)
    assert cheat.state.fidelity(want) > 1.0 - 1e-12
    bare = parse_alice_spec("fixed:theta_a=0.5")
    assert bare.claim == "a"


def test_parse_fixed_errors():
    for bad in ("fixed:", "fixed:claim=b", "fixed:theta_a=x",
                "fixed:theta_a=1.0,swagger=9", "fixed:theta_a"):
        with pytest.raises(ValueError):
            parse_alice_spec(bad)
    # a repeated key is named, not silently overwritten by its last value
    for bad, key in (("fixed:theta_a=0.5,claim=a,claim=b", "claim"),
                     ("fixed:theta_a=0.5,theta_a=0.6", "theta_a")):
        with pytest.raises(ValueError, match=f"repeated fixed parameter '{key}'"):
            parse_alice_spec(bad)


def test_parse_mixture():
    mix = parse_alice_spec("mixture:0.5:a:a;0.5:1.5707:b")
    assert isinstance(mix, MixtureCheat)
    assert len(mix.components) == 2
    p0, s0, c0 = mix.components[0]
    assert p0 == 0.5 and s0 is TRINE["a"] and c0 == "a"
    _, s1, _ = mix.components[1]
    assert s1.fidelity(in_plane_state(1.5707)) > 1.0 - 1e-12


def test_parse_mixture_errors():
    for bad in ("mixture:", "mixture:0.5:a", "mixture:x:a:a", "mixture:1.0:a:d",
                "mixture:nan:a:a", "mixture:nan:a:a;1:b:b", "mixture:inf:a:a"):
        with pytest.raises(ValueError):
            parse_alice_spec(bad)
    # a component angle that is not finite is named, with its value
    for angle in ("inf", "-inf", "nan"):
        with pytest.raises(ValueError, match=f"state angle must be finite, got '{angle}'"):
            parse_alice_spec(f"mixture:1:{angle}:a")


def test_parse_entangled():
    assert isinstance(parse_alice_spec("entangled:singlet"), EntangledAlice)
    assert isinstance(parse_alice_spec("entangled:aligned"), EntangledAlice)
    e1 = parse_alice_spec("entangled:random:12")
    e2 = parse_alice_spec("entangled:random:12")
    assert isinstance(e1, EntangledAlice) and e1.psi == e2.psi


def test_parse_entangled_errors():
    for bad in ("entangled:", "entangled:ghz", "entangled:random:",
                "entangled:random:seven"):
        with pytest.raises(ValueError):
            parse_alice_spec(bad)
    # a negative seed is named with the spec, not left to numpy
    with pytest.raises(ValueError, match="entangled:random needs a nonnegative seed, got '-1'"):
        parse_alice_spec("entangled:random:-1")


def test_parse_unknown_sender():
    with pytest.raises(ValueError):
        parse_alice_spec("teleport")


_NUMBER = st.one_of(st.floats().map(repr), st.sampled_from(["nan", "-inf", "1e999", "x", ""]))
_LABEL = st.sampled_from(["a", "b", "c", "d", ""])
_COMPONENT = st.tuples(_NUMBER, st.one_of(_LABEL, _NUMBER), _LABEL).map(":".join)
_SPECS = st.one_of(
    st.text(max_size=40),
    st.lists(_COMPONENT, min_size=1, max_size=3).map(lambda cs: "mixture:" + ";".join(cs)),
    st.tuples(_NUMBER, _LABEL).map(lambda t: f"fixed:theta_a={t[0]},claim={t[1]}"),
    st.integers(-3, 2 ** 70).map(lambda n: f"entangled:random:{n}"),
    st.text(max_size=20).map(lambda t: "entangled:" + t),
)


@given(_SPECS)
def test_any_sender_spec_parses_or_raises_value_error(spec):
    try:
        alice = parse_alice_spec(spec)
    except ValueError:
        return
    # a separable sender plays round by round, an entangled one from her table
    assert isinstance(alice, EntangledAlice) or hasattr(alice, "prepare")
    if isinstance(alice, MixtureCheat):
        weights = [p for p, _, _ in alice.components]
        assert all(math.isfinite(p) and p >= 0.0 for p in weights)
        assert abs(math.fsum(weights) - 1.0) <= 1e-9


def test_parse_bob():
    assert parse_bob_spec("honest").kind == "honest_optimal"
    assert parse_bob_spec(" random ").kind == "random_guess"
    with pytest.raises(ValueError):
        parse_bob_spec("psychic")


# ---------------------------------------------------------------------------
# strategies must survive a worker boundary


def test_all_strategies_pickle():
    subjects = [
        HonestAlice(),
        FixedStateCheat.from_angle(1.0, "b"),
        MixtureCheat(((0.5, TRINE["a"], "a"), (0.5, TRINE["b"], "b"))),
        singlet_mirror(),
        random_entangled_policy(np.random.default_rng(3)),
        BobStrategy.honest_optimal(),
        BobStrategy.random_guess(),
    ]
    params = ProtocolParams(r=0.05, R=398.0)
    honest = BobStrategy.honest_optimal()

    def rounds(alice, bob):
        play, rng = transcript_player(alice, bob, params), random.Random(9)
        return [play(rng) for _ in range(200)]

    def compile_table(alice):
        return _compile_entangled_table(alice.psi, alice.basis_policy, alice.claim_policy,
                                        honest.measurement_povm(), params)

    for obj in subjects:
        clone = pickle.loads(pickle.dumps(obj))
        if isinstance(clone, EntangledAlice):
            # a worker compiles the same branch table; compiled past the
            # cache, which would hand both the one table of their equal values
            assert compile_table(clone).exact_rows == compile_table(obj).exact_rows
        elif isinstance(clone, BobStrategy):
            assert rounds(HonestAlice(), clone) == rounds(HonestAlice(), obj)
        else:
            # a worker plays the same rounds
            assert rounds(clone, honest) == rounds(obj, honest)

"""Simulation driver: reproducibility, partitioning, the exact oracle.

The oracle cross-checks are the heart of the file: closed forms from the
analytics module, the full branch enumeration, and sampled runs must all
tell the same story.
"""

import functools
import math
import multiprocessing.process
import os
import sys

import numpy as np
import pytest

from trinegamble import montecarlo
from trinegamble.analytics import gain_total
from trinegamble.montecarlo import (
    DRAWS_PER_ROUND,
    DeterministicDivergence,
    ExactExpectation,
    SimConfig,
    SimResult,
    _round_words,
    compare_stats,
    enumerate_exact,
    simulate,
)
from trinegamble.protocol import CheckResult, ProtocolParams, RoundResult
from trinegamble.strategies import (
    BobStrategy,
    EntangledAlice,
    FixedStateCheat,
    HonestAlice,
    MixtureCheat,
    aligned_pair,
    random_entangled_policy,
    singlet_mirror,
)
from trinegamble.qubit import LABELS, PureState, TwoQubitState, trine_states

from conftest import closed_form_attack, tally, transcript_player, uniforms
from entangled_reference import run_round as reference_round

TRINE = trine_states()
PARAMS = ProtocolParams(r=0.05, R=398.0)


def _config(alice, rounds, seed=0, params=PARAMS, workers=1, bob=None):
    return SimConfig(rounds=rounds, seed=seed, params=params, alice=alice,
                     bob=bob or BobStrategy.honest_optimal(), workers=workers)


# ---------------------------------------------------------------------------
# config validation


def test_sim_config_validation():
    with pytest.raises(ValueError):
        _config(HonestAlice(), 0)
    with pytest.raises(ValueError):
        _config(HonestAlice(), 10, seed=-1)
    with pytest.raises(ValueError):
        _config(HonestAlice(), 10, seed=2 ** 64)
    with pytest.raises(ValueError):
        _config(HonestAlice(), 10, workers=0)


@pytest.mark.parametrize("field, value", [
    ("seed", 1.5), ("seed", 1.9), ("seed", 1.0), ("seed", "1"), ("rounds", 2.5),
    ("rounds", 10.0), ("workers", 2.5), ("workers", np.float64(2.0)),
])
def test_sim_config_takes_only_integers(field, value):
    # a fractional seed used to play the truncated seed's stream, and a
    # fractional round or worker count to fail deep in the engine
    with pytest.raises(ValueError, match=field):
        _config(HonestAlice(), **{"rounds": 10, field: value})


def test_sim_config_takes_numpy_integers_as_ints():
    config = SimConfig(rounds=np.int64(2_000), seed=np.uint64(7), params=PARAMS,
                       alice=aligned_pair(), bob=BobStrategy.honest_optimal(),
                       workers=np.int32(1))
    assert all(type(v) is int for v in (config.rounds, config.seed, config.workers))
    assert simulate(config) == simulate(_config(aligned_pair(), 2_000, seed=7))


# ---------------------------------------------------------------------------
# deterministic replay


def test_identical_configs_replay_bit_identically():
    a = simulate(_config(HonestAlice(), 20_000, seed=7))
    b = simulate(_config(HonestAlice(), 20_000, seed=7))
    assert a == b


def test_different_seeds_diverge():
    a = simulate(_config(HonestAlice(), 5_000, seed=1))
    b = simulate(_config(HonestAlice(), 5_000, seed=2))
    assert a != b


def test_round_rows_regenerate_from_any_offset():
    whole = uniforms(_round_words(99, 0, 300))
    assert np.array_equal(whole[120:], uniforms(_round_words(99, 120, 180)))
    assert np.array_equal(whole[:50], uniforms(_round_words(99, 0, 50)))
    assert all(len(row) == DRAWS_PER_ROUND for row in whole)


def test_worker_partition_preserves_counts_and_means():
    solo = simulate(_config(FixedStateCheat.from_angle(1.0, "a"), 30_000, seed=3))
    split = simulate(_config(FixedStateCheat.from_angle(1.0, "a"), 30_000, seed=3,
                             workers=3))
    assert (solo.win_count, solo.lose_count, solo.check_count, solo.accuse_count) == \
           (split.win_count, split.lose_count, split.check_count, split.accuse_count)
    assert solo.rounds == split.rounds == 30_000
    # the blocks' row counts merge as integers: the totals are the same
    assert solo.mean_gain_alice == split.mean_gain_alice
    assert solo.stderr == split.stderr


@pytest.fixture
def pool_sizes(monkeypatch):
    # a stand-in for the thread pool: records its size, starts no thread
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", InlinePool)
    return sizes


def test_blocks_run_on_at_most_one_thread_per_cpu(pool_sizes):
    alice = FixedStateCheat.from_angle(1.0, "a")
    many = simulate(_config(alice, 20_000, seed=5, workers=10_000))
    assert pool_sizes == [min(10_000, os.cpu_count() or 1)]
    two = simulate(_config(alice, 20_000, seed=5, workers=2))
    assert (many.rounds, many.win_count, many.lose_count, many.check_count,
            many.accuse_count) == (two.rounds, two.win_count, two.lose_count,
                                   two.check_count, two.accuse_count)
    assert many.mean_gain_alice == two.mean_gain_alice
    assert many.stderr == two.stderr


# every family, against both receivers; the payoff -R of a penalty that is
# not dyadic makes float partial sums depend on where the blocks split
SPLIT_SENDERS = {
    "honest": HonestAlice(),
    "fixed": FixedStateCheat.from_angle(2.5, "a"),
    "mixture": MixtureCheat(((0.4, TRINE["a"], "a"), (0.6, TRINE["c"], "b"))),
    "aligned": aligned_pair(),
    "singlet": singlet_mirror(),
    "random:0": random_entangled_policy(np.random.default_rng(0)),
}


@pytest.mark.parametrize("R", [7.3, 19.1])
@pytest.mark.parametrize("noise", [0.0, 0.1])
@pytest.mark.parametrize("bob", ["honest", "random"])
@pytest.mark.parametrize("sender", sorted(SPLIT_SENDERS))
def test_results_do_not_depend_on_the_worker_count(pool_sizes, sender, bob, noise, R):
    bob = BobStrategy.honest_optimal() if bob == "honest" else BobStrategy.random_guess()
    params = ProtocolParams(r=0.05, R=R, noise_lambda=noise)
    results = [simulate(_config(SPLIT_SENDERS[sender], 10_007, seed=7, params=params,
                                workers=w, bob=bob)) for w in (1, 2, 3, 4)]
    assert results[0].accuse_count > 0 or (sender == "honest" and noise == 0.0)
    assert results[1:] == results[:1] * 3


@pytest.mark.parametrize("sender", ["fixed", "aligned"])
def test_simulate_starts_no_process(monkeypatch, sender):
    # the blocks play on threads of this process, from the one table it
    # compiled; a short switch interval interleaves the threads finely
    def refuse(process):
        raise AssertionError("simulate started a process")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    params = ProtocolParams(r=0.05, R=7.3)
    alice = SPLIT_SENDERS[sender]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = [simulate(_config(alice, 10_007, seed=7, params=params, workers=w))
                   for w in (1, 2, 3, 4)]
    finally:
        sys.setswitchinterval(interval)
    assert results[1:] == results[:1] * 3


def _played(alice, params, rounds, seed):
    played = []
    result = simulate(_config(alice, rounds, seed=seed, params=params),
                      transcript_sink=played.extend)
    return result, played


@pytest.mark.parametrize("R", [77.7, 7.3])
@pytest.mark.parametrize("sender", ["fixed", "mixture", "aligned", "random:0"])
def test_the_mean_is_the_correctly_rounded_total(sender, R):
    # fsum rounds the exact total of the payoffs once, as the engine must
    for params in (ProtocolParams(r=0.05, R=R, noise_lambda=0.1),
                   ProtocolParams(r=0.3, R=R, abort_threshold=0.05, abort_min_checks=200)):
        result, played = _played(SPLIT_SENDERS[sender], params, 20_000, 3)
        assert result.rounds == len(played)
        assert result.mean_gain_alice == math.fsum(t.alice_delta for t in played) / result.rounds
    assert result.aborted


@pytest.mark.parametrize("sender", ["fixed", "aligned"])
def test_totals_past_the_float_range_are_infinite(sender):
    # a total beyond the float range is an infinity, as a float sum makes it
    params = ProtocolParams(r=0.05, R=1.7e308)
    result = simulate(_config(SPLIT_SENDERS[sender], 2_000, seed=1, params=params))
    assert result.accuse_count >= 2
    assert result.mean_gain_alice == -math.inf and math.isnan(result.stderr)


def test_transcript_sink_is_exhaustive_and_consistent():
    seen = []
    cfg = _config(HonestAlice(), 4_000, seed=13, workers=4)
    res = simulate(cfg, transcript_sink=seen.extend)
    assert len(seen) == res.rounds == 4_000
    assert sum(t.kind.value == "checking" for t in seen) == res.check_count
    assert res == simulate(_config(HonestAlice(), 4_000, seed=13))


# ---------------------------------------------------------------------------
# per-round draw budget


class _StrictRow:
    """Replays one precomputed row and refuses to exceed the budget."""

    def __init__(self, row):
        self.row = row
        self.pos = 0

    def random(self):
        assert self.pos < DRAWS_PER_ROUND, "round exceeded its uniform budget"
        v = self.row[self.pos]
        self.pos += 1
        return v


def test_every_strategy_combo_fits_the_draw_budget():
    combos = [
        (HonestAlice(), BobStrategy.honest_optimal(), PARAMS),
        (HonestAlice(), BobStrategy.random_guess(), PARAMS),
        (HonestAlice(), BobStrategy.honest_optimal(),
         ProtocolParams(r=0.5, R=398.0, noise_lambda=0.3)),
        (FixedStateCheat.from_angle(1.0, "b"), BobStrategy.honest_optimal(),
         ProtocolParams(r=0.5, R=398.0)),
        (MixtureCheat(((0.5, TRINE["a"], "a"), (0.5, TRINE["b"], "b"))),
         BobStrategy.honest_optimal(), ProtocolParams(r=0.5, R=398.0)),
        (singlet_mirror(), BobStrategy.honest_optimal(), ProtocolParams(r=0.5, R=398.0)),
        (aligned_pair(), BobStrategy.random_guess(), ProtocolParams(r=0.5, R=398.0)),
    ]
    # both engines read fixed words of each round's row; the staged
    # reference rounds they match read those uniforms one at a time
    for i, (alice, bob, params) in enumerate(combos):
        if isinstance(alice, EntangledAlice):
            play = functools.partial(reference_round, alice, bob, params)
        else:
            play = transcript_player(alice, bob, params)
        for row in uniforms(_round_words(1000 + i, 0, 2_000)).tolist():
            play(_StrictRow(row))


# ---------------------------------------------------------------------------
# the exact oracle


def test_exact_honest_gain_is_the_checking_rate():
    for r in (0.0, 0.01, 0.05, 0.1, 0.5):
        params = ProtocolParams(r=r, R=398.0)
        exact = enumerate_exact(HonestAlice(), params)
        assert abs(exact.g_alice - r) < 1e-15


def test_exact_fixed_cheat_matches_closed_form():
    for r, R in ((0.05, 398.0), (0.01, 1998.0)):
        params = ProtocolParams(r=r, R=R)
        for theta in np.linspace(0.0, math.pi, 17):
            exact = enumerate_exact(FixedStateCheat.from_angle(theta, "a"), params)
            want = gain_total(theta, r, R).g_total
            assert abs(exact.g_alice - want) < 1e-12


def test_exact_cheat_gain_is_claim_invariant():
    for claim in ("a", "b", "c"):
        exact = enumerate_exact(FixedStateCheat.from_angle(1.3, claim), PARAMS)
        want = gain_total(1.3, PARAMS.r, PARAMS.R).g_total
        assert abs(exact.g_alice - want) < 1e-12


def test_exact_mixture_is_linear_in_components():
    comps = ((0.3, TRINE["a"], "a"), (0.7, TRINE["b"], "a"))
    mixed = enumerate_exact(MixtureCheat(comps), PARAMS)
    parts = [enumerate_exact(FixedStateCheat(s, claim=c), PARAMS).g_alice
             for _, s, c in comps]
    assert abs(mixed.g_alice - (0.3 * parts[0] + 0.7 * parts[1])) < 1e-12


def test_exact_honest_with_noise_closed_form():
    lam, r, R = 0.1, 0.05, 398.0
    params = ProtocolParams(r=r, R=R, noise_lambda=lam)
    exact = enumerate_exact(HonestAlice(), params)
    want = (1.0 - r) * lam + r * (1.0 - lam / 2.0 - lam * R / 2.0)
    assert abs(exact.g_alice - want) < 1e-12
    assert exact.g_alice == pytest.approx(-0.8525, abs=1e-12)


def test_exact_branch_table_is_a_distribution():
    exact = enumerate_exact(MixtureCheat(((0.5, TRINE["a"], "a"), (0.5, TRINE["b"], "b"))),
                            PARAMS)
    names = [name for name, _, _ in exact.branch_table]
    assert len(names) == len(set(names))
    assert all(prob >= 0.0 for _, prob, _ in exact.branch_table)
    assert abs(math.fsum(p for _, p, _ in exact.branch_table) - 1.0) < 1e-12


def test_exact_expectation_rejects_bad_tables():
    with pytest.raises(ValueError):
        ExactExpectation(0.0, (("only", 0.5, 1.0),))


def _joint_gain(alice, r, R):
    """Exact gain from the joint probabilities |(<u| x <t|) psi|^2 of the
    sender's outcome u and a projection t of the sent qubit, which do not
    depend on who measures first."""
    psi = alice.psi
    m = np.array([[psi.c00, psi.c01], [psi.c10, psi.c11]])

    def joint(u, t):
        return abs(np.array([u.a0, u.a1]).conj() @ m @ np.array([t.a0, t.a1]).conj()) ** 2

    normal = checking = 0.0
    for g in LABELS:
        for j, u in enumerate(alice.basis_policy[g]):
            claim = alice.claim_policy[(g, j)]
            stake = -1.0 if claim == g else 2.0
            normal += (2.0 / 3.0) * joint(u, TRINE[g]) * stake
            passed = joint(u, TRINE[claim])
            failed = joint(u, TRINE[claim].orthogonal())
            checking += (passed * stake - failed * R) / 3.0
    return (1.0 - r) * normal + r * checking


def test_exact_entangled_attack_matches_closed_form():
    for r, R in ((0.05, 398.0), (0.01, 1998.0)):
        exact = enumerate_exact(closed_form_attack(), ProtocolParams(r=r, R=R))
        assert abs(exact.g_alice - (2.0 - r * (R + 2.0) * (2.0 - math.sqrt(3.0)) / 4.0)) < 1e-12


def test_exact_entangled_matches_joint_probabilities():
    senders = [aligned_pair(), singlet_mirror()]
    senders += [random_entangled_policy(np.random.default_rng(500 + i)) for i in range(20)]
    for params in (PARAMS, ProtocolParams(r=0.5, R=7.0)):
        for alice in senders:
            exact = enumerate_exact(alice, params)
            assert abs(exact.g_alice - _joint_gain(alice, params.r, params.R)) < 1e-12


def test_exact_entangled_table_is_a_distribution():
    exact = enumerate_exact(random_entangled_policy(np.random.default_rng(3)), PARAMS)
    names = [name for name, _, _ in exact.branch_table]
    assert len(names) == len(set(names)) == 18
    assert names[0] == "entangled|normal|guess=a|j=0"
    assert names[-1] == "entangled|checking|guess=c|j=1|accuse"
    assert all(prob >= 0.0 for _, prob, _ in exact.branch_table)
    assert abs(math.fsum(p for _, p, _ in exact.branch_table) - 1.0) < 1e-12
    normal = math.fsum(p for name, p, _ in exact.branch_table if "|normal|" in name)
    assert abs(normal - (1.0 - PARAMS.r)) < 1e-12


def test_exact_entangled_gain_under_noise():
    # the aligned pair: every receiver outcome is 1/3 likely, noisy or not,
    # and the sender's kept qubit then agrees with it (j = 0) unless the
    # channel replaced the sent half, so j = 0 has odds 1 - lam/2
    alice = aligned_pair()
    for lam in (0.0, 0.1, 1.0):
        exact = enumerate_exact(alice, ProtocolParams(r=0.05, R=398.0, noise_lambda=lam))
        table = {name: p for name, p, _ in exact.branch_table}
        assert abs(math.fsum(table.values()) - 1.0) < 1e-12
        for g in LABELS:
            normal = [table[f"entangled|normal|guess={g}|j={j}"] for j in (0, 1)]
            assert abs(sum(normal) - 0.95 / 3.0) < 1e-12
            assert abs(normal[0] - 0.95 / 3.0 * (1.0 - lam / 2.0)) < 1e-12
    # noise only costs her: less agreement in normal rounds, more failed checks
    gains = [enumerate_exact(alice, ProtocolParams(r=0.05, R=398.0, noise_lambda=lam)).g_alice
             for lam in (0.0, 0.1, 0.5)]
    assert gains[0] > gains[1] > gains[2]


def test_simulated_noisy_entangled_gain_agrees_with_oracle():
    params = ProtocolParams(r=0.05, R=398.0, noise_lambda=0.1)
    for seed, alice in enumerate((aligned_pair(), random_entangled_policy(np.random.default_rng(5)))):
        assert abs(_z_for(alice, params, 200_000, seed=seed)) < 4.0


def test_exact_rejects_unknown_senders():
    with pytest.raises(ValueError):
        enumerate_exact(object(), PARAMS)


def test_exact_expectation_rejects_a_nan_table():
    with pytest.raises(ValueError):
        ExactExpectation(0.0, (("a", float("nan"), 1.0), ("b", 1.0, 1.0)))


# ---------------------------------------------------------------------------
# simulation against the oracle


def _z_for(alice, params, rounds, seed):
    result = simulate(SimConfig(rounds=rounds, seed=seed, params=params, alice=alice,
                                bob=BobStrategy.honest_optimal()))
    return compare_stats(result, enumerate_exact(alice, params))


def test_simulated_honest_gain_agrees_with_oracle():
    assert abs(_z_for(HonestAlice(), PARAMS, 100_000, seed=17)) < 4.0


def test_simulated_cheat_gain_agrees_with_oracle():
    alice = FixedStateCheat.from_angle(2.0, "a")
    assert abs(_z_for(alice, PARAMS, 100_000, seed=18)) < 4.0


def test_simulated_mixture_gain_agrees_with_oracle():
    alice = MixtureCheat(((0.4, TRINE["a"], "a"), (0.6, TRINE["c"], "b")))
    assert abs(_z_for(alice, PARAMS, 100_000, seed=19)) < 4.0


def test_simulated_noisy_honest_gain_agrees_with_oracle():
    params = ProtocolParams(r=0.05, R=398.0, noise_lambda=0.1)
    assert abs(_z_for(HonestAlice(), params, 100_000, seed=20)) < 4.0


def test_a_product_state_sender_claiming_by_guess_beats_r_past_the_threshold():
    """At (r, R) = (0.05, 78), k = r(R+2) = 4 > 2, a sender who sends one
    definite state per round but picks her claim from the guess, by the map
    f = (a->b, b->a, c->a), gains 2/sqrt(3), not r. Her state is the top
    eigenvector of sum_g W_{g,f(g)}, with W_gc the gain operator
    (1-r) pay(g,c) (2/3) P_g + (r/3) (pay(g,c) P_c - R (1 - P_c))."""
    r, R = 0.05, 78.0
    f = {"a": "b", "b": "a", "c": "a"}
    proj = {g: np.outer([TRINE[g].a0, TRINE[g].a1], [TRINE[g].a0, TRINE[g].a1]).real
            for g in LABELS}

    def gain_operator(g, c):
        pay = -1.0 if g == c else 2.0
        return ((1.0 - r) * pay * (2.0 / 3.0) * proj[g]
                + (r / 3.0) * (pay * proj[c] - R * (np.eye(2) - proj[c])))

    _, vectors = np.linalg.eigh(sum(gain_operator(g, f[g]) for g in LABELS))
    sent = PureState.from_unnormalized(vectors[0, -1], vectors[1, -1])
    kept = PureState(1.0, 0.0)
    alice = EntangledAlice(TwoQubitState.from_product(kept, sent),
                           {g: (kept, kept.orthogonal()) for g in LABELS},
                           {(g, j): f[g] for g in LABELS for j in (0, 1)})
    params = ProtocolParams(r=r, R=R)
    assert abs(enumerate_exact(alice, params).g_alice - 2.0 / math.sqrt(3.0)) < 1e-12
    assert abs(_z_for(alice, params, 200_000, seed=3)) < 4.0


def test_zero_angle_cheat_plays_like_conditioned_honest():
    """A sender who always prepares her claimed state is honest play
    conditioned on one label: the per-round payout samples must be
    statistically indistinguishable."""
    from scipy.stats import ks_2samp

    params = ProtocolParams(r=0.2, R=398.0)
    cheat_deltas = []
    simulate(_config(FixedStateCheat.from_angle(0.0, "a"), 30_000, seed=43,
                     params=params),
             transcript_sink=lambda chunk: cheat_deltas.extend(t.alice_delta for t in chunk))
    honest_deltas = []
    simulate(_config(HonestAlice(), 30_000, seed=44, params=params),
             transcript_sink=lambda chunk: honest_deltas.extend(
                 t.alice_delta for t in chunk if t.sent_descriptor == "trine:a"))
    assert len(honest_deltas) > 9_000
    _, p_value = ks_2samp(cheat_deltas, honest_deltas)
    assert p_value > 0.01


def test_z_scores_are_calibrated_across_seeds():
    """~1 in 16k runs should land outside 4 sigma; 100 tries all inside is
    the cheap but discriminating version."""
    exact = enumerate_exact(HonestAlice(), PARAMS)
    inside = 0
    for seed in range(100):
        result = simulate(_config(HonestAlice(), 2_000, seed=seed))
        if abs(compare_stats(result, exact)) < 4.0:
            inside += 1
    assert inside >= 99


# ---------------------------------------------------------------------------
# zero-variance guard


def _certain(payoff):
    """Exact table of a game whose every round pays the same."""
    return ExactExpectation(payoff, (("certain", 1.0, payoff),))


def test_zero_variance_match_is_fine():
    res = SimResult(10, 2.0, -2.0, 0.0, 0, 10, 0, 0, False)
    assert compare_stats(res, _certain(2.0)) == 0.0


def test_zero_variance_mismatch_raises():
    res = SimResult(10, 2.0, -2.0, 0.0, 0, 10, 0, 0, False)
    with pytest.raises(DeterministicDivergence):
        compare_stats(res, _certain(1.9))


def test_zero_spread_run_of_a_random_game_uses_the_table_spread():
    # one round has no sample spread, but the game itself has plenty
    exact = enumerate_exact(HonestAlice(), PARAMS)
    result = simulate(_config(HonestAlice(), 1, seed=0))
    assert result.stderr == 0.0
    var = math.fsum(p * (x - exact.g_alice) ** 2 for _, p, x in exact.branch_table)
    want = (result.mean_gain_alice - exact.g_alice) / math.sqrt(var)
    assert compare_stats(result, exact) == want
    assert abs(want) < 4.0


def test_orthogonal_cheat_at_zero_rate_is_a_real_zero_variance_run():
    # claim a, send the orthogonal state: the receiver never guesses a,
    # so with checking off every round pays the sender exactly +2
    params = ProtocolParams(r=0.0, R=398.0)
    alice = FixedStateCheat.from_angle(math.pi, "a")
    result = simulate(_config(alice, 5_000, seed=23, params=params))
    assert result.mean_gain_alice == 2.0 and result.stderr == 0.0
    # the enumeration keeps fp crumbs of the measure-zero guess branch,
    # which must not read as a divergence
    exact = enumerate_exact(alice, params)
    assert exact.g_alice == pytest.approx(2.0, abs=1e-12)
    assert compare_stats(result, exact) == 0.0


def test_single_round_has_no_spread_estimate():
    result = simulate(_config(HonestAlice(), 1, seed=2))
    assert result.stderr == 0.0 and result.rounds == 1


@pytest.mark.parametrize("sender", ["fixed", "aligned"])
def test_a_nan_variance_is_not_reported_as_zero_spread(sender):
    # the sum of squared payoffs overflows, so the variance is inf - inf:
    # the totals carry no spread estimate, and stderr says so
    params = ProtocolParams(r=0.05, R=1e200)
    result = simulate(_config(SPLIT_SENDERS[sender], 2_000, seed=1, params=params))
    assert math.isfinite(result.mean_gain_alice)
    assert math.isnan(result.stderr)


# ---------------------------------------------------------------------------
# abort monitor through the driver


def test_abusive_sender_trips_the_monitor():
    params = ProtocolParams(r=0.5, R=398.0, abort_threshold=0.25, abort_min_checks=10)
    alice = FixedStateCheat(TRINE["b"], claim="a")  # accused on 3/4 of checks
    result = simulate(_config(alice, 100_000, seed=29, params=params))
    assert result.aborted
    assert result.rounds < 100_000
    assert result.win_count + result.lose_count == result.rounds
    assert result.accuse_count / result.check_count > 0.25


def test_honest_sender_survives_the_monitor():
    params = ProtocolParams(r=0.5, R=398.0, abort_threshold=0.25, abort_min_checks=10)
    result = simulate(_config(HonestAlice(), 20_000, seed=31, params=params))
    assert not result.aborted and result.rounds == 20_000
    assert result.accuse_count == 0
    # a monitor that never trips leaves no trace on the run
    unmonitored = simulate(_config(HonestAlice(), 20_000, seed=31,
                                   params=ProtocolParams(r=0.5, R=398.0), workers=2))
    assert result == unmonitored


def test_monitor_trips_at_the_first_round_over_threshold():
    params = ProtocolParams(r=0.3, R=398.0, abort_threshold=0.2, abort_min_checks=25)
    alice = FixedStateCheat.from_angle(1.0, "b")  # accused on about 23% of checks
    for seed in range(40, 46):
        transcripts = []
        result = simulate(_config(alice, 2_000, seed=seed, params=params),
                          transcript_sink=transcripts.extend)
        checks = accs = 0
        trip = None
        for i, t in enumerate(transcripts, 1):
            if t.check is not None:
                checks += 1
                accs += t.check is CheckResult.ACCUSE
                if trip is None and checks >= 25 and accs / checks > 0.2:
                    trip = i
        # the sink sees the tripping round, and nothing after it
        assert trip == (len(transcripts) if result.aborted else None)
        assert result.rounds == len(transcripts)
        assert tally(transcripts)[:5] == (result.rounds, result.win_count, result.lose_count,
                                          result.check_count, result.accuse_count)


def test_driver_counts_every_verdict_once():
    transcripts = []
    result = simulate(_config(HonestAlice(), 3_000, seed=33,
                              params=ProtocolParams(r=0.3, R=398.0)),
                      transcript_sink=transcripts.extend)
    counts = tally(transcripts)
    assert (result.rounds, result.win_count, result.lose_count) == counts[:3] == (3_000, counts.wins, 3_000 - counts.wins)
    assert (result.check_count, result.accuse_count) == (counts.checks, 0)
    assert result.mean_gain_alice == pytest.approx(counts.alice_total / 3_000, abs=1e-12)
    assert counts.alice_total == -counts.bob_total


def test_driver_counts_the_verdict_of_an_accused_round():
    # the penalty replaces the stake, but the round still counts as won or lost
    transcripts = []
    result = simulate(_config(FixedStateCheat(TRINE["b"], claim="a"), 2_000, seed=34,
                              params=ProtocolParams(r=0.5, R=398.0)),
                      transcript_sink=transcripts.extend)
    accused = [t for t in transcripts if t.check is CheckResult.ACCUSE]
    assert {t.verdict.result for t in accused} == {RoundResult.BOB_WON, RoundResult.BOB_LOST}
    assert all(t.alice_delta == -398.0 for t in accused)
    counts = tally(transcripts)
    assert (result.win_count, result.lose_count) == (counts.wins, counts.losses)
    assert result.win_count + result.lose_count == result.rounds == 2_000
    assert (result.check_count, result.accuse_count) == (counts.checks, len(accused))


def test_entangled_sender_through_the_driver():
    result = simulate(_config(singlet_mirror(), 20_000, seed=37,
                              params=ProtocolParams(r=0.5, R=398.0)))
    assert result.win_count + result.lose_count == result.rounds == 20_000
    assert result.check_count > 9_000
    assert result.mean_gain_alice == -result.mean_gain_bob


def test_result_record_shape():
    rec = simulate(_config(HonestAlice(), 100, seed=41)).to_record()
    assert set(rec) == {"rounds", "mean_gain_alice", "mean_gain_bob", "stderr",
                        "win_count", "lose_count", "check_count", "accuse_count",
                        "aborted"}

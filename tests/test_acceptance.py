"""Acceptance suite: eleven numbered criteria, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute. Statistical criteria use 4-sigma bars on seeded runs;
exact criteria state their tolerance inline. Criterion 9 plays ten million
entangled rounds, which the branch-table engine does in a few seconds; the
million-round separable runs of criteria 1, 3 and 7, played round by
round, take the most time. The module runs in under a minute on one core.
"""

import math
import time

import numpy as np
import pytest

from trinegamble.analytics import (
    gain_total,
    optimal_cheat_angle,
    penalty_for_bias,
)
from trinegamble.montecarlo import SimConfig, compare_stats, enumerate_exact, simulate
from trinegamble.protocol import ProtocolParams
from trinegamble.qubit import TwoQubitState, born_probabilities, optimal_povm, trine_states
from trinegamble.strategies import (
    BobStrategy,
    EntangledAlice,
    FixedStateCheat,
    HonestAlice,
    in_plane_state,
    posterior_unmeasured,
    random_entangled_policy,
)
from trinegamble.verify import check_no_signalling, check_table_rows

from conftest import four_sigma

TRINE = trine_states()
MAIN = ProtocolParams(r=0.05, R=398.0)


def _criterion(num: int, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
    print(line, flush=True)
    assert ok, line


def _sim(alice, rounds, seed, params, sink=None):
    cfg = SimConfig(rounds=rounds, seed=seed, params=params, alice=alice,
                    bob=BobStrategy.honest_optimal(), workers=1)
    return simulate(cfg, transcript_sink=sink)


@pytest.fixture(scope="module")
def million_rounds_no_checks():
    """One shared million-round honest run at r = 0, timed for criterion 1."""
    t0 = time.monotonic()
    result = _sim(HonestAlice(), 1_000_000, seed=101,
                  params=ProtocolParams(r=0.0, R=398.0))
    return result, time.monotonic() - t0


def test_criterion_01_discriminator_success_rate(million_rounds_no_checks):
    povm = optimal_povm()
    born_dev = 0.0
    for i, lab in enumerate(("a", "b", "c")):
        probs = born_probabilities(TRINE[lab], povm)
        for k in range(3):
            want = 2.0 / 3.0 if k == i else 1.0 / 6.0
            born_dev = max(born_dev, abs(probs[k] - want))
    result, elapsed = million_rounds_no_checks
    n = result.rounds
    rate = result.win_count / n
    bar = four_sigma(2.0 / 3.0, n)
    ok = born_dev < 1e-12 and abs(rate - 2.0 / 3.0) < bar and elapsed < 30.0
    _criterion(1, ok,
               f"born deviation {born_dev:.2e} (tol 1e-12); win rate {rate:.6f} "
               f"vs 2/3 within {bar:.6f}; {n} rounds in {elapsed:.1f}s (< 30s)")


def test_criterion_02_fair_game_without_checks(million_rounds_no_checks):
    result, _ = million_rounds_no_checks
    bar = 4.0 * result.stderr
    ok = abs(result.mean_gain_bob) < bar
    _criterion(2, ok,
               f"mean receiver gain {result.mean_gain_bob:+.6f} within "
               f"{bar:.6f} of 0 at r = 0 over {result.rounds} rounds")


def test_criterion_03_honest_gain_equals_checking_rate():
    exact = enumerate_exact(HonestAlice(), MAIN)
    exact_err = abs(exact.g_alice - MAIN.r)
    result = _sim(HonestAlice(), 1_000_000, seed=103, params=MAIN)
    z = compare_stats(result, exact)
    ok = exact_err < 1e-15 and abs(z) < 4.0
    _criterion(3, ok,
               f"enumeration - r = {exact_err:.2e} (tol 1e-15); simulated mean "
               f"{result.mean_gain_alice:.6f} vs {MAIN.r} gives z = {z:+.2f}")


def test_criterion_04_cheat_gain_curve():
    worst = 0.0
    for r, R in ((0.05, 398.0), (0.01, 1998.0)):
        params = ProtocolParams(r=r, R=R)
        for theta in np.linspace(0.0, math.pi, 50):
            theta = float(theta)
            exact = enumerate_exact(FixedStateCheat.from_angle(theta, "a"), params)
            worst = max(worst, abs(exact.g_alice - gain_total(theta, r, R).g_total))
    spot_zs = []
    for i, theta in enumerate((0.0, math.pi / 3.0, 2.0 * math.pi / 3.0, math.pi)):
        alice = FixedStateCheat.from_angle(theta, "a")
        exact = enumerate_exact(alice, MAIN)
        result = _sim(alice, 100_000, seed=400 + i, params=MAIN)
        spot_zs.append(compare_stats(result, exact))
    ok = worst < 1e-12 and all(abs(z) < 4.0 for z in spot_zs)
    _criterion(4, ok,
               f"max |closed form - enumeration| = {worst:.2e} over 100 grid "
               f"points (tol 1e-12); spot-check z scores "
               f"{', '.join(f'{z:+.2f}' for z in spot_zs)}")


def test_criterion_05_best_cheat_flips_with_k():
    deterred = []
    tempted = []
    for r in (0.01, 0.05, 0.1):
        deterred.append(optimal_cheat_angle(r, 20.0 / r - 2.0))   # k = 20
        tempted.append(optimal_cheat_angle(r, 0.5 / r - 2.0))     # k = 0.5
    ok = all(v == 0.0 for v in deterred) and all(v == math.pi for v in tempted)
    _criterion(5, ok,
               f"argmax at k=20: {sorted(set(deterred))} (want [0.0]); "
               f"at k=0.5: {sorted(set(tempted))} (want [pi])")


def test_criterion_06_bias_penalty_tradeoff():
    worst = 0.0
    frozen = {0.1: 198.0, 0.05: 398.0, 0.01: 1998.0, 0.005: 3998.0}
    for delta, want_R in frozen.items():
        R = penalty_for_bias(delta, 20.0)
        worst = max(worst, abs(R - want_R), abs(delta * (R + 2.0) - 20.0))
    ok = worst < 1e-12
    _criterion(6, ok,
               f"max deviation from R = 20/delta - 2 and delta(R+2) = 20 is "
               f"{worst:.2e} over deltas {sorted(frozen)} (tol 1e-12)")


def test_criterion_07_posterior_floor():
    floor_worst = float("inf")
    for r in np.linspace(1e-3, 0.999, 200):
        r = float(r)
        for matches in (True, False):
            floor_worst = min(floor_worst, posterior_unmeasured(r, matches) - r / 3.0)
    tiny = 1e-8
    first_order = max(abs(posterior_unmeasured(tiny, True) / (tiny / 2.0) - 1.0),
                      abs(posterior_unmeasured(tiny, False) / (2.0 * tiny) - 1.0))

    counts = {"match": [0, 0], "mismatch": [0, 0]}  # [checking, total]
    def tally(chunk):
        for t in chunk:
            key = "match" if t.guess == t.verdict.claimed else "mismatch"
            counts[key][1] += 1
            if t.kind.value == "checking":
                counts[key][0] += 1

    _sim(HonestAlice(), 1_000_000, seed=107,
         params=ProtocolParams(r=0.1, R=398.0), sink=tally)
    gaps = {}
    for key, matches in (("match", True), ("mismatch", False)):
        want = posterior_unmeasured(0.1, matches)
        checking, total = counts[key]
        gaps[key] = (abs(checking / total - want), four_sigma(want, total))
    ok = (floor_worst >= -1e-15 and first_order < 1e-6
          and all(gap < bar for gap, bar in gaps.values()))
    _criterion(7, ok,
               f"min posterior - r/3 = {floor_worst:.2e} (floor); small-r "
               f"relative error {first_order:.1e}; empirical gaps at r=0.1: "
               f"match {gaps['match'][0]:.2e} < {gaps['match'][1]:.2e}, "
               f"mismatch {gaps['mismatch'][0]:.2e} < {gaps['mismatch'][1]:.2e}")


def test_criterion_08_remote_steering_is_order_free():
    """Every row of the compiled tables matches the density-matrix model,
    and the receiver's outcome odds do not depend on the basis the
    entangled sender measures in: her steering signals nothing."""
    rng = np.random.default_rng(108)
    rows = check_table_rows(rng, trials=100)
    signalling = check_no_signalling(rng, trials=100)
    ok = rows.passed and signalling.passed
    _criterion(8, ok, f"{rows.detail}; {signalling.detail} (tol 1e-12, 100 random "
                      f"games each)")


def test_criterion_09_entangled_attack_scan():
    """Statistical evidence, not proof: no randomly parameterized entangled
    sender in this scan beats the honest gain r. A policy family outside
    the sampled one is not excluded by this criterion."""
    worst_excess = -float("inf")
    offenders = 0
    for i in range(100):
        alice = random_entangled_policy(np.random.default_rng(1000 + i))
        result = _sim(alice, 100_000, seed=900 + i, params=MAIN)
        excess = result.mean_gain_alice - MAIN.r
        allowance = 4.0 * result.stderr
        worst_excess = max(worst_excess, excess - allowance)
        if excess > allowance:
            offenders += 1
    ok = offenders == 0
    _criterion(9, ok,
               f"{offenders} of 100 random entangled policies exceeded r + 4 "
               f"stderr at (r, R) = (0.05, 398); worst margin {worst_excess:+.4f} "
               f"(heuristic evidence over sampled policies, not a proof)")


def test_criterion_10_cross_trine_accusation_rate():
    result = _sim(FixedStateCheat(TRINE["b"], claim="a"), 200_000, seed=110,
                  params=ProtocolParams(r=0.5, R=398.0))
    checks = result.check_count
    rate = result.accuse_count / checks
    bar = four_sigma(0.75, checks)
    ok = checks >= 98_000 and abs(rate - 0.75) < bar
    _criterion(10, ok,
               f"accused on {rate:.4f} of {checks} checking rounds, expected "
               f"0.75 within {bar:.4f}")


def test_criterion_11_closed_form_entangled_attack():
    """An entangled sender beats the honest gain r: checking bounds
    separable cheats only. She shares (|00> + |11>)/sqrt(2); on guess g she
    measures in the in-plane basis at angle(g) + pi/2 and claims the trine
    state at angle(g) + 2pi/3 on outcome 0, at angle(g) - 2pi/3 on
    outcome 1. Her exact gain is 2 - r(R+2)(2 - sqrt 3)/4."""
    angle = {"a": 0.0, "b": 2.0 * math.pi / 3.0, "c": -2.0 * math.pi / 3.0}
    after = {"a": "b", "b": "c", "c": "a"}  # the trine state 2pi/3 further on
    before = {lab: prev for prev, lab in after.items()}
    basis = {}
    for g in angle:
        u = in_plane_state(angle[g] + math.pi / 2.0)
        basis[g] = (u, u.orthogonal())
    claims = {(g, j): (after if j == 0 else before)[g] for g in angle for j in (0, 1)}
    alice = EntangledAlice(TwoQubitState.phi_plus(), basis, claims)
    want = 2.0 - MAIN.r * (MAIN.R + 2.0) * (2.0 - math.sqrt(3.0)) / 4.0
    result = _sim(alice, 200_000, seed=111, params=MAIN)
    z = (result.mean_gain_alice - want) / result.stderr
    margin = (result.mean_gain_alice - MAIN.r) / result.stderr
    ok = abs(want - 0.660254) < 1e-6 and abs(z) < 4.0 and margin > 4.0
    _criterion(11, ok,
               f"mean gain {result.mean_gain_alice:.4f} +- {result.stderr:.4f} vs "
               f"closed form {want:.6f} (z = {z:+.2f}); {margin:.1f} stderr above "
               f"r = {MAIN.r} at (r, R) = (0.05, 398)")

"""Round engine: settlement table, round counting, faults, monitors.

Statistical assertions use 4-sigma binomial bars on seeded streams, so
they are deterministic in practice; everything else is exact.
"""

import dataclasses
import json
import math
import random

import pytest

from trinegamble.montecarlo import round_player
from trinegamble.protocol import (
    LOSE_PAYOUT,
    WIN_PAYOUT,
    CheckResult,
    MonitorDecision,
    ProtocolParams,
    RoundKind,
    RoundResult,
    Verdict,
    abort_monitor,
    settle,
    transcript_line,
    transcript_record,
)
from trinegamble.strategies import (
    BobStrategy,
    FixedStateCheat,
    HonestAlice,
    Preparation,
)
from trinegamble.qubit import BlochVector, state_from_bloch, trine_states

from conftest import four_sigma, tally

PARAMS = ProtocolParams(r=0.1, R=398.0)


# ---------------------------------------------------------------------------
# the claim check


def _checks(state, claim, rng, n):
    """The check results of n checking rounds of a sender who always sends
    state and claims claim."""
    alice, bob = FixedStateCheat(state, claim), BobStrategy.honest_optimal()
    play = round_player(alice, bob, ProtocolParams(r=0.999999, R=398.0))
    rounds = (play(rng) for _ in range(n))
    return [t.check for t in rounds if t.kind is RoundKind.CHECKING]


def test_bob_check_eigenstate_never_accuses():
    t = trine_states()
    r = random.Random(77)
    assert set(_checks(t["a"], "a", r, 10_000)) == {CheckResult.PASS}
    assert set(_checks(t["c"], "c", r, 10_000)) == {CheckResult.PASS}


def test_bob_check_cross_trine_accuses_three_quarters():
    t = trine_states()
    r = random.Random(88)
    checks = _checks(t["b"], "a", r, 100_000)
    n = len(checks)
    accusations = checks.count(CheckResult.ACCUSE)
    assert abs(accusations / n - 0.75) < four_sigma(0.75, n)


def test_bob_check_rate_at_arbitrary_angle():
    theta = 1.1
    s = state_from_bloch(BlochVector(math.sin(theta), 0.0, math.cos(theta)))
    want = 1.0 - math.cos(theta / 2.0) ** 2
    r = random.Random(99)
    checks = _checks(s, "a", r, 100_000)
    n = len(checks)
    accusations = checks.count(CheckResult.ACCUSE)
    assert abs(accusations / n - want) < four_sigma(want, n)


# ---------------------------------------------------------------------------
# settlement


def test_settle_frozen_table():
    won = Verdict(RoundResult.BOB_WON, "a")
    lost = Verdict(RoundResult.BOB_LOST, "a")
    assert settle(RoundKind.NORMAL, won, None, PARAMS) == (-1.0, 1.0)
    assert settle(RoundKind.NORMAL, lost, None, PARAMS) == (2.0, -2.0)
    assert settle(RoundKind.CHECKING, won, CheckResult.PASS, PARAMS) == (-1.0, 1.0)
    assert settle(RoundKind.CHECKING, lost, CheckResult.PASS, PARAMS) == (2.0, -2.0)
    # accusation replaces the stake, whatever the verdict said
    assert settle(RoundKind.CHECKING, won, CheckResult.ACCUSE, PARAMS) == (-398.0, 398.0)
    assert settle(RoundKind.CHECKING, lost, CheckResult.ACCUSE, PARAMS) == (-398.0, 398.0)


def test_settle_rejects_accusation_in_normal_round():
    won = Verdict(RoundResult.BOB_WON, "a")
    with pytest.raises(ValueError):
        settle(RoundKind.NORMAL, won, CheckResult.ACCUSE, PARAMS)


def test_verdict_requires_trine_claim():
    with pytest.raises(ValueError):
        Verdict(RoundResult.BOB_WON, "d")
    with pytest.raises(ValueError):
        Verdict(RoundResult.BOB_LOST, "")


# ---------------------------------------------------------------------------
# parameter validation


def test_params_accept_fair_defaults():
    # the stakes are fixed at fair odds for the 2/3 success rate: no
    # parameter set can move them off the closed forms
    assert (2.0 / 3.0) * WIN_PAYOUT == (1.0 / 3.0) * LOSE_PAYOUT
    assert [f.name for f in dataclasses.fields(ProtocolParams)] == [
        "r", "R", "noise_lambda", "abort_threshold", "abort_min_checks"]
    with pytest.raises(TypeError):
        ProtocolParams(r=0.05, R=398.0, win_payout=5.0)


def test_params_domain_checks():
    with pytest.raises(ValueError):
        ProtocolParams(r=1.0, R=10.0)
    with pytest.raises(ValueError):
        ProtocolParams(r=-0.1, R=10.0)
    with pytest.raises(ValueError):
        ProtocolParams(r=0.1, R=0.0)
    for R in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            ProtocolParams(r=0.1, R=R)
    with pytest.raises(ValueError):
        ProtocolParams(r=0.1, R=10.0, noise_lambda=1.5)
    with pytest.raises(ValueError):
        ProtocolParams(r=0.1, R=10.0, abort_threshold=-0.2)
    with pytest.raises(ValueError):
        ProtocolParams(r=0.1, R=10.0, abort_min_checks=0)


# ---------------------------------------------------------------------------
# abort monitor


def test_monitor_disabled_by_default():
    assert abort_monitor(10, 10, PARAMS) is MonitorDecision.CONTINUE


def test_monitor_frozen_examples():
    params = ProtocolParams(r=0.1, R=398.0, abort_threshold=0.25)
    assert abort_monitor(1000, 0, params) is MonitorDecision.CONTINUE
    assert abort_monitor(100, 50, params) is MonitorDecision.ABORT


def test_monitor_threshold_is_strict():
    params = ProtocolParams(r=0.1, R=398.0, abort_threshold=0.5)
    assert abort_monitor(100, 50, params) is MonitorDecision.CONTINUE
    assert abort_monitor(100, 51, params) is MonitorDecision.ABORT


def test_monitor_waits_for_minimum_checks():
    params = ProtocolParams(r=0.1, R=398.0, abort_threshold=0.25, abort_min_checks=200)
    assert abort_monitor(100, 50, params) is MonitorDecision.CONTINUE
    assert abort_monitor(200, 100, params) is MonitorDecision.ABORT


def test_monitor_no_checks_yet():
    params = ProtocolParams(r=0.1, R=398.0, abort_threshold=0.0)
    assert abort_monitor(0, 0, params) is MonitorDecision.CONTINUE


# ---------------------------------------------------------------------------
# full rounds


def _play(alice, bob, params, n, seed=0):
    rng = random.Random(seed)
    play = round_player(alice, bob, params)
    return tally(play(rng) for _ in range(n))


def test_zero_rate_means_no_checking_rounds():
    rng = random.Random(4)
    play = round_player(HonestAlice(), BobStrategy.honest_optimal(),
                        ProtocolParams(r=0.0, R=398.0))
    for _ in range(500):
        t = play(rng)
        assert t.kind is RoundKind.NORMAL and t.check is None


def test_checking_rate_matches_r():
    n = 20_000
    led = _play(HonestAlice(), BobStrategy.honest_optimal(),
                ProtocolParams(r=0.3, R=398.0), n, seed=11)
    assert abs(led.checks / n - 0.3) < four_sigma(0.3, n)


def test_honest_sender_is_never_accused():
    led = _play(HonestAlice(), BobStrategy.honest_optimal(),
                ProtocolParams(r=0.9, R=398.0), 5_000, seed=21)
    assert led.accusations == 0
    assert led.checks > 4_000


def test_ledger_invariants_over_a_run():
    led = _play(HonestAlice(), BobStrategy.honest_optimal(), PARAMS, 4_000, seed=31)
    assert led.wins + led.losses == led.rounds == 4_000
    assert led.accusations <= led.checks <= led.rounds
    assert led.alice_total == -led.bob_total


def test_honest_win_rate_near_two_thirds():
    n = 30_000
    led = _play(HonestAlice(), BobStrategy.honest_optimal(),
                ProtocolParams(r=0.0, R=398.0), n, seed=41)
    assert abs(led.wins / n - 2.0 / 3.0) < four_sigma(2.0 / 3.0, n)


def test_cross_trine_cheat_fails_checks_at_three_quarters():
    alice = FixedStateCheat(trine_states()["b"], claim="a")
    led = _play(alice, BobStrategy.honest_optimal(),
                ProtocolParams(r=0.5, R=398.0), 40_000, seed=51)
    rate = led.accusations / led.checks
    assert abs(rate - 0.75) < four_sigma(0.75, led.checks)


def test_noise_accuses_honest_sender_at_half_lambda():
    lam = 0.1
    led = _play(HonestAlice(), BobStrategy.honest_optimal(),
                ProtocolParams(r=0.5, R=398.0, noise_lambda=lam), 40_000, seed=61)
    rate = led.accusations / led.checks
    assert abs(rate - lam / 2.0) < four_sigma(lam / 2.0, led.checks)


def test_transcript_shape_and_export():
    rng = random.Random(71)
    play = round_player(HonestAlice(), BobStrategy.honest_optimal(),
                        ProtocolParams(r=0.5, R=398.0))
    saw_check = False
    for _ in range(200):
        t = play(rng)
        rec = transcript_record(t)
        assert set(rec) == {"kind", "sent", "guess", "result", "claimed",
                            "check", "alice_delta", "bob_delta"}
        assert rec["kind"] in ("normal", "checking")
        assert rec["guess"] in ("a", "b", "c") and rec["claimed"] in ("a", "b", "c")
        assert rec["sent"].startswith("trine:")
        assert json.loads(transcript_line(t)) == rec
        if t.kind is RoundKind.CHECKING:
            saw_check = True
            assert rec["check"] in ("pass", "accuse")
        else:
            assert rec["check"] is None
        assert rec["alice_delta"] == -rec["bob_delta"]
    assert saw_check


# ---------------------------------------------------------------------------
# a sender commits to a claim in the trine alphabet


def test_a_claim_outside_the_alphabet_is_rejected_at_preparation():
    with pytest.raises(ValueError, match="claim outside the trine alphabet: 'z'"):
        Preparation("lie", trine_states()["a"], "z")

"""Round engine: settlement table, round counting, faults, monitors.

Statistical assertions use 4-sigma binomial bars on seeded streams, so
they are deterministic in practice; everything else is exact.
"""

import json
import math
import random

import pytest

from trinegamble.protocol import (
    CheckResult,
    MonitorDecision,
    ProtocolFault,
    ProtocolParams,
    RoundKind,
    RoundResult,
    Verdict,
    abort_monitor,
    run_round,
    settle,
    transcript_line,
    transcript_record,
)
from trinegamble.strategies import (
    BobStrategy,
    FixedStateCheat,
    HonestAlice,
    Preparation,
    singlet_mirror,
)
from trinegamble.qubit import trine_states

from conftest import four_sigma, tally

PARAMS = ProtocolParams(r=0.1, R=398.0)


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
    p = ProtocolParams(r=0.05, R=398.0)
    assert p.p == 2.0 / 3.0 and p.lose_payout == 2.0


def test_params_accept_consistent_custom_odds():
    p = ProtocolParams(r=0.05, R=10.0, p=0.75, lose_payout=3.0)
    assert p.lose_payout == 3.0


def test_params_reject_unfair_odds():
    with pytest.raises(ValueError):
        ProtocolParams(r=0.05, R=10.0, lose_payout=2.5)
    with pytest.raises(ValueError):
        ProtocolParams(r=0.05, R=10.0, p=0.75)  # default lose_payout 2 != 3


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
    with pytest.raises(ValueError):
        ProtocolParams(r=0.1, R=10.0, win_payout=0.0)


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
# full rounds, separable senders


def _play(alice, bob, params, n, seed=0):
    rng = random.Random(seed)
    return tally(run_round(alice, bob, params, rng) for _ in range(n))


def test_zero_rate_means_no_checking_rounds():
    rng = random.Random(4)
    params = ProtocolParams(r=0.0, R=398.0)
    for _ in range(500):
        t = run_round(HonestAlice(), BobStrategy.honest_optimal(), params, rng)
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
    params = ProtocolParams(r=0.5, R=398.0)
    saw_check = False
    for _ in range(200):
        t = run_round(HonestAlice(), BobStrategy.honest_optimal(), params, rng)
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
# misbehaving senders trip faults


class _LyingAlice:
    """Claims the guessed label but rules the round lost anyway."""

    def prepare(self, rng):
        return Preparation("lie", trine_states()["a"], None, "a")

    def adjudicate(self, prep, guess, alice_system, rng):
        return Verdict(RoundResult.BOB_LOST, guess), None


class _TwoSystemAlice:
    def prepare(self, rng):
        from trinegamble.qubit import TwoQubitState
        return Preparation("both", trine_states()["a"], TwoQubitState.singlet(), "a")

    def adjudicate(self, prep, guess, alice_system, rng):
        return Verdict(RoundResult.BOB_WON, guess), None


class _NoSystemAlice:
    def prepare(self, rng):
        return Preparation("neither", None, None, "a")

    def adjudicate(self, prep, guess, alice_system, rng):
        return Verdict(RoundResult.BOB_WON, guess), None


class _WithholdingAlice:
    """Entangled sender who refuses to surrender the checked qubit."""

    def __init__(self):
        from trinegamble.qubit import TwoQubitState
        self._prep = Preparation("withhold", None, TwoQubitState.singlet(), None)

    def prepare(self, rng):
        return self._prep

    def adjudicate(self, prep, guess, alice_system, rng):
        # consistent verdict, but no surrendered qubit even when checked
        return Verdict(RoundResult.BOB_WON, guess), None


def test_inconsistent_verdict_is_a_sender_fault():
    rng = random.Random(81)
    with pytest.raises(ProtocolFault) as ei:
        run_round(_LyingAlice(), BobStrategy.honest_optimal(), PARAMS, rng)
    assert ei.value.party == "alice"


def test_preparation_must_carry_exactly_one_system():
    rng = random.Random(82)
    for alice in (_TwoSystemAlice(), _NoSystemAlice()):
        with pytest.raises(ProtocolFault) as ei:
            run_round(alice, BobStrategy.honest_optimal(), PARAMS, rng)
        assert ei.value.party == "alice"


def test_entangled_sender_must_surrender_checked_qubit():
    rng = random.Random(83)
    params = ProtocolParams(r=0.9, R=398.0)
    with pytest.raises(ProtocolFault) as ei:
        for _ in range(200):  # a checking round arrives almost immediately
            run_round(_WithholdingAlice(), BobStrategy.honest_optimal(), params, rng)
    assert ei.value.party == "alice"
    assert "surrender" in str(ei.value)


# ---------------------------------------------------------------------------
# entangled senders through the engine


def test_entangled_round_basics():
    led = _play(singlet_mirror(), BobStrategy.honest_optimal(),
                ProtocolParams(r=0.5, R=398.0), 10_000, seed=91)
    assert led.wins + led.losses == led.rounds == 10_000
    assert led.alice_total == -led.bob_total
    assert led.checks > 4_000


def test_entangled_sender_with_blind_receiver():
    # no POVM: the pair is never collapsed by the receiver in normal rounds
    led = _play(singlet_mirror(), BobStrategy.random_guess(),
                ProtocolParams(r=0.3, R=398.0), 5_000, seed=92)
    assert led.wins + led.losses == led.rounds == 5_000


def test_entangled_sender_rejects_transit_noise():
    rng = random.Random(93)
    params = ProtocolParams(r=0.1, R=398.0, noise_lambda=0.05)
    with pytest.raises(ValueError):
        run_round(singlet_mirror(), BobStrategy.honest_optimal(), params, rng)

"""Closed-form gain functions: frozen values, identities, argmax oracle.

The argmax oracle scans a dense theta grid per (r, R) point instead of
trusting the endpoint argument, so a wrong linearity claim would show up
here as a grid point beating the returned angle.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from trinegamble.analytics import (
    GainBreakdown,
    gain_checking,
    gain_normal,
    gain_total,
    optimal_cheat_angle,
    penalty_for_bias,
)
from trinegamble.qubit import (
    BlochVector,
    born_probabilities,
    check_fail_probability,
    optimal_povm,
    state_from_bloch,
)

angles = st.floats(0.0, math.pi, allow_nan=False)
rates = st.floats(0.0, 0.99, allow_nan=False)
penalties = st.floats(0.01, 1e4, allow_nan=False)


# ---------------------------------------------------------------------------
# frozen point values


def test_gain_normal_frozen():
    assert gain_normal(0.0) == 0.0
    assert gain_normal(math.pi / 2.0) == pytest.approx(1.0, abs=1e-15)
    assert gain_normal(math.pi) == pytest.approx(2.0, abs=1e-15)


def test_gain_checking_frozen():
    assert gain_checking(0.0, 398.0) == pytest.approx(1.0, abs=1e-15)
    assert gain_checking(0.0, 7.0) == pytest.approx(1.0, abs=1e-15)
    assert gain_checking(math.pi, 100.0) == pytest.approx(-100.0, abs=1e-12)


def test_gain_total_frozen():
    assert gain_total(math.pi, 0.05, 98.0).g_total == pytest.approx(-3.0, abs=1e-12)
    # cheating with the claimed state itself is just honest play: pays r
    for r in (0.001, 0.05, 0.3, 0.9):
        assert gain_total(0.0, r, 398.0).g_total == r


def test_penalty_for_bias_frozen():
    assert penalty_for_bias(0.01, 20.0) == pytest.approx(1998.0, abs=1e-12)
    assert penalty_for_bias(0.1, 20.0) == pytest.approx(198.0, abs=1e-12)
    assert penalty_for_bias(0.05, 20.0) == pytest.approx(398.0, abs=1e-12)
    assert penalty_for_bias(0.005, 20.0) == pytest.approx(3998.0, abs=1e-12)


def test_optimal_cheat_angle_frozen():
    assert optimal_cheat_angle(0.01, 998.0) == 0.0
    assert optimal_cheat_angle(0.001, 10.0) == math.pi
    # exact tie at r (R + 2) = 2 - r resolves to the quiet endpoint
    assert optimal_cheat_angle(0.1, 17.0) == 0.0
    # k slightly under 2 but above 2 - r: full deviation already loses
    assert optimal_cheat_angle(0.5, 1.8 / 0.5 - 2.0) == 0.0


# ---------------------------------------------------------------------------
# validation


def test_angle_domain():
    with pytest.raises(ValueError):
        gain_normal(-0.1)
    with pytest.raises(ValueError):
        gain_normal(math.pi + 0.1)
    with pytest.raises(ValueError):
        gain_checking(-0.1, 10.0)


def test_rate_domain():
    with pytest.raises(ValueError):
        gain_total(1.0, -0.01, 10.0)
    with pytest.raises(ValueError):
        gain_total(1.0, 1.0, 10.0)
    with pytest.raises(ValueError):
        optimal_cheat_angle(1.0, 10.0)


def test_penalty_domain():
    with pytest.raises(ValueError):
        gain_checking(1.0, 0.0)
    with pytest.raises(ValueError):
        gain_checking(1.0, -3.0)
    for R in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            gain_total(1.0, 0.05, R)
    with pytest.raises(ValueError):
        optimal_cheat_angle(0.1, -1.0)


def test_penalty_for_bias_domain():
    with pytest.raises(ValueError):
        penalty_for_bias(0.0, 20.0)
    with pytest.raises(ValueError):
        penalty_for_bias(1.0, 20.0)
    with pytest.raises(ValueError):
        penalty_for_bias(0.1, 2.0)
    with pytest.raises(ValueError):
        penalty_for_bias(0.1, 1.5)


@given(st.floats(0.001, 0.999), st.floats(2.001, 1e3))
def test_tradeoff_curve_round_trip(delta, k):
    assert delta * (penalty_for_bias(delta, k) + 2.0) == pytest.approx(k, rel=1e-12)


# ---------------------------------------------------------------------------
# identities and cross-module consistency


@given(angles, rates, penalties)
def test_breakdown_identity_exact(theta, r, R):
    b = gain_total(theta, r, R)
    assert b.g_total == (1.0 - r) * b.g_normal + r * b.g_checking


@given(angles)
def test_gain_normal_closed_form(theta):
    assert gain_normal(theta) == pytest.approx(2.0 * (1.0 - math.cos(theta / 2.0) ** 2),
                                               abs=1e-12)


@given(angles)
def test_gain_normal_monotone_in_angle(theta):
    eps = 1e-3
    hi = min(math.pi, theta + eps)
    assert gain_normal(theta) <= gain_normal(hi) + 1e-12


def _tilted_state(theta):
    return state_from_bloch(BlochVector(math.sin(theta), 0.0, math.cos(theta)))


def test_gain_normal_matches_born_rule_payoff():
    """2 - 3 * P(discriminator says the claimed label) for a state tilted by
    theta from that label's trine direction."""
    povm = optimal_povm()
    for theta in np.linspace(0.0, math.pi, 61):
        p = born_probabilities(_tilted_state(theta), povm)[0]
        assert abs(gain_normal(theta) - (2.0 - 3.0 * p)) < 1e-12


def test_gain_checking_matches_projective_check_payoff():
    """-R q + (1 - q) with q the stored-qubit check failure probability."""
    for R in (0.5, 17.0, 398.0):
        for theta in np.linspace(0.0, math.pi, 61):
            q = check_fail_probability(_tilted_state(theta), "a")
            assert abs(gain_checking(theta, R) - (-R * q + (1.0 - q))) < 1e-12


def test_gain_breakdown_is_frozen_dataclass():
    b = gain_total(1.0, 0.05, 398.0)
    assert isinstance(b, GainBreakdown)
    with pytest.raises(Exception):
        b.g_total = 0.0


# ---------------------------------------------------------------------------
# argmax oracle: dense scan beats nothing


def test_optimal_cheat_angle_grid_oracle():
    thetas = np.linspace(0.0, math.pi, 21)
    rs = np.linspace(0.005, 0.995, 100)
    Rs = np.geomspace(0.01, 1e4, 100)
    for r in rs:
        for R in Rs:
            best = optimal_cheat_angle(r, R)
            top = gain_total(best, r, R).g_total
            for theta in thetas:
                assert gain_total(theta, r, R).g_total <= top + 1e-12
            # endpoint comparison restated independently
            expect = 0.0 if r >= 2.0 - r * (R + 2.0) else math.pi
            assert best == expect


@given(rates.filter(lambda r: r > 0.0), penalties)
def test_optimal_angle_is_an_endpoint(r, R):
    assert optimal_cheat_angle(r, R) in (0.0, math.pi)

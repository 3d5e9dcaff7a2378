"""Closed-form expected gains for a sender who prepares one fixed state.

The cheat parameterization is the Bloch angle theta between the prepared
state and the trine state the sender will claim. theta = 0 is honest
(conditioned on that claim), theta = pi is the orthogonal state. All gains
are per round, from the sender's side; the receiver's gain is the negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class GainBreakdown:
    """Per-round expected sender gain split by round type.

    g_total = (1 - r) * g_normal + r * g_checking by construction.
    """

    g_normal: float
    g_checking: float
    g_total: float


def _check_angle(theta: float) -> float:
    theta = float(theta)
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"cheat angle must lie in [0, pi], got {theta!r}")
    return theta


def _check_rate(r: float) -> float:
    r = float(r)
    if not 0.0 <= r < 1.0:
        raise ValueError(f"checking rate must lie in [0, 1), got {r!r}")
    return r


def _check_penalty(R: float) -> float:
    R = float(R)
    if not 0.0 < R < math.inf:
        raise ValueError(f"penalty must be positive and finite, got {R!r}")
    return R


def gain_normal(theta_a: float) -> float:
    """Expected sender gain per normal round: 2 (1 - cos^2(theta_a/2)).

    Zero exactly at theta_a = 0; any deviation from the claimed state earns
    the sender money in normal play, which is what checking rounds punish.
    """
    theta_a = _check_angle(theta_a)
    c = math.cos(theta_a / 2.0)
    return 2.0 * (1.0 - c * c)


def gain_checking(theta_a: float, R: float) -> float:
    """Expected sender gain per checking round: -R (1 - cos^2) + cos^2."""
    theta_a = _check_angle(theta_a)
    R = _check_penalty(R)
    c2 = math.cos(theta_a / 2.0) ** 2
    return -R * (1.0 - c2) + c2


def gain_total(theta_a: float, r: float, R: float) -> GainBreakdown:
    """Combined per-round gain at checking rate r and penalty R.

    Equal to {2 - r (R + 2)} (1 - cos^2(theta_a/2)) + r cos^2(theta_a/2);
    computed as the (1 - r, r) mixture of the two branch gains so the
    breakdown identity holds exactly.
    """
    r = _check_rate(r)
    gn = gain_normal(theta_a)
    gc = gain_checking(theta_a, R)
    return GainBreakdown(gn, gc, (1.0 - r) * gn + r * gc)


def optimal_cheat_angle(r: float, R: float) -> float:
    """The cheat angle maximizing gain_total.

    The gain is linear in c = cos^2(theta/2), so the argmax is an endpoint:
    theta = 0 pays r, theta = pi pays 2 - r (R + 2). Ties resolve to 0.
    For r (R + 2) > 2 the optimum is always 0; for r (R + 2) < 2 it is pi
    whenever r < 2 - r (R + 2), which covers every small checking rate.
    """
    r = _check_rate(r)
    R = _check_penalty(R)
    at_zero = r
    at_pi = 2.0 - r * (R + 2.0)
    return 0.0 if at_zero >= at_pi else math.pi


def penalty_for_bias(delta: float, k: float) -> float:
    """Penalty R enforcing a maximum bias delta on the curve r (R + 2) = k.

    Only meaningful for k > 2 (otherwise full-deviation play beats honest
    play and no penalty enforces the bias); raises for k <= 2.
    """
    delta = float(delta)
    k = float(k)
    if not 0.0 < delta < 1.0:
        raise ValueError(f"bias must lie in (0, 1), got {delta!r}")
    if k <= 2.0:
        raise ValueError(f"penalty curve needs k > 2, got {k!r}")
    return k / delta - 2.0


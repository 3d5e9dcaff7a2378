"""A fixed unit of pure-Python work that gauges the machine's speed.

The benchmark shares its cores with other tenants, and their load slows
every process here by up to a third for seconds to minutes at a time. A
timed loop therefore alternates the program's calls with this unit, for
a fixed share of each call's time, and reports throughput at the
reference speed: the measured rate times the unit's reference time over
its measured time. A slowdown that hits the program and the unit alike
cancels; a change to the program does not touch the unit.

The unit does what a round of the simulator does most: small complex
arithmetic, attribute access on slotted objects, function calls and a
small dict per step. It imports nothing from the program.
"""

from __future__ import annotations

import time

STEPS = 500  # steps per unit
REFERENCE_UNIT_S = 8.0e-4  # about a unit's median time on the machine the README names


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: complex, b: complex):
        self.a = a
        self.b = b


def _step(v: _Pair, w: _Pair, k: int):
    amp = v.a * w.a.conjugate() + v.b * w.b.conjugate()
    p = (amp * amp.conjugate()).real
    return _Pair(v.b, 0.5 * v.a + p * w.b), {"k": k, "p": p}


def unit() -> float:
    """One unit of work; returns a value so that nothing is skipped."""
    start = _Pair(0.6 + 0.1j, 0.2 - 0.3j)
    v, w = start, _Pair(0.3 + 0.0j, 0.7 + 0.2j)
    acc = 0.0
    for k in range(STEPS):
        v, d = _step(v, w, k)
        acc += d["p"]
        if abs(v.a) > 10.0:
            v = start
    return acc


class Gauge:
    """Accumulates units run and the wall time they took."""

    def __init__(self):
        self.units = 0
        self.seconds = 0.0

    def run_for(self, seconds: float) -> None:
        """Run whole units until at least ``seconds`` of wall clock have gone."""
        clock = time.perf_counter
        start = clock()
        units = 0
        while True:
            unit()
            units += 1
            elapsed = clock() - start
            if elapsed >= seconds:
                break
        self.units += units
        self.seconds += elapsed

    def speed(self) -> float:
        return speed(self.units, self.seconds)


def speed(units: int, seconds: float) -> float:
    """Machine speed relative to the reference, from ``units`` run in
    ``seconds``: above 1 is faster."""
    return REFERENCE_UNIT_S * units / seconds

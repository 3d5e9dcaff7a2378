"""The entangled branch table: compiled once per (sender, receiver, params)
and never stale, with the receiver's outcome found by counting the interval
ends at or below each uniform."""

import math

import numpy as np
import pytest

from trinegamble import montecarlo
from trinegamble.montecarlo import (
    _TABLE_CACHE_SIZE,
    SimConfig,
    _cached_entangled_table,
    _compile_entangled_table,
    _entangled_table,
    _round_words,
    _table_branches,
    _word_threshold,
    enumerate_exact,
    simulate,
)
from trinegamble.protocol import ProtocolParams
from trinegamble.qubit import (
    LABELS,
    Povm,
    PureState,
    TwoQubitState,
    outcome_bounds,
    remote_povm_branches,
    trine_states,
)
from trinegamble.strategies import (
    BobStrategy,
    EntangledAlice,
    aligned_pair,
    in_plane_state,
    random_entangled_policy,
)

from conftest import uniforms, words_beside

TRINE = trine_states()
HONEST = BobStrategy.honest_optimal()
PARAMS = ProtocolParams(r=0.3, R=77.7)


@pytest.fixture(autouse=True)
def empty_cache():
    _cached_entangled_table.cache_clear()
    yield
    _cached_entangled_table.cache_clear()


def _uncached(alice, bob, params):
    return _compile_entangled_table(alice.psi, alice.basis_policy, alice.claim_policy,
                                    bob.measurement_povm(), params)


def _hex_rows(table):
    return [(name, float.hex(p), repr(payoff)) for name, p, payoff in table.exact_rows]


def _count_compiles(monkeypatch):
    calls = []
    real = montecarlo._compile_entangled_table
    monkeypatch.setattr(montecarlo, "_compile_entangled_table",
                        lambda *args: calls.append(1) or real(*args))
    return calls


class _FreshPovmBob:
    """A receiver that builds a new POVM, trine states turned by angle in
    their plane, on every call, as a BobStrategy's duck type."""

    def __init__(self, angle=0.0):
        self.angle = angle

    def measurement_povm(self):
        states = [in_plane_state(self.angle + k * 2.0 * math.pi / 3.0) for k in range(3)]
        return Povm.from_pure_states(tuple((2.0 / 3.0, s) for s in states), LABELS)


# ---------------------------------------------------------------------------
# the receiver's outcome: one comparison per interval end


def _sum_fault_table():
    """A pair whose probabilities under a POVM that overshoots the identity
    by just under the tolerance do not sum to 1: its bounds are all zero."""
    psi = TwoQubitState(math.sqrt(1.0 + 0.9e-9), 0.0, 0.0, 0.0)
    alice = EntangledAlice(psi, {g: (TRINE[g], TRINE[g].orthogonal()) for g in LABELS},
                           {(g, j): g for g in LABELS for j in (0, 1)})
    w = (2.0 / 3.0) * (1.0 + 0.9e-9)
    povm = Povm.from_pure_states(tuple((w, TRINE[lab]) for lab in LABELS), LABELS)
    return _compile_entangled_table(alice.psi, alice.basis_policy, alice.claim_policy, povm,
                                    PARAMS)


def _zero_width_sender():
    """A product pair whose sent qubit is orthogonal to trine a: the honest
    receiver's outcome a has probability exactly 0."""
    psi = TwoQubitState.from_product(PureState(1.0, 0.0), TRINE["a"].orthogonal())
    return EntangledAlice(psi, {g: (TRINE[g], TRINE[g].orthogonal()) for g in LABELS},
                          {(g, j): g for g in LABELS for j in (0, 1)})


def _zero_width_table():
    return _uncached(_zero_width_sender(), HONEST, PARAMS)


def _honest_bounds(alice):
    """The honest receiver's interval ends on a noiseless channel, as floats."""
    pairs = remote_povm_branches(alice.psi, HONEST.measurement_povm())
    return outcome_bounds([p for p, _ in pairs])


def _edge_words(bounds):
    """The words on either side of every bound's word threshold, and the
    ends of the word range."""
    return np.array([w for b in bounds for w in words_beside(b)], dtype=np.uint64)


SUM_FAULT_BOUNDS = (0.0, 0.0)
BOUNDS = [
    (1.0 / 3.0, 2.0 / 3.0),
    (0.25, 0.25),  # the middle outcome has probability 0
    (0.0, 0.5),  # the first
    (0.4, 1.0),  # the last
    (0.0, 1.0),
    SUM_FAULT_BOUNDS,
]


def test_the_fault_tables_carry_empty_intervals():
    assert _sum_fault_table().bounds == SUM_FAULT_BOUNDS
    bounds = _honest_bounds(_zero_width_sender())
    assert bounds[0] == 0.0 < bounds[1] < 1.0
    assert _zero_width_table().bounds == tuple(map(_word_threshold, bounds))


@pytest.mark.parametrize("bounds", BOUNDS + [_honest_bounds(_zero_width_sender())])
def test_interval_counting_equals_searchsorted(bounds):
    # r = 0 plays every row as a normal round, whose branch // 2 is the outcome
    t = _uncached(aligned_pair(), HONEST, PARAMS)._replace(
        r=0, bounds=tuple(map(_word_threshold, bounds)))
    for w1 in (_edge_words(bounds), _round_words(7, 0, 5_000)[:, 1],
               _round_words(2 ** 63 + 5, 3, 777)[:, 1]):
        w = np.full((len(w1), montecarlo.DRAWS_PER_ROUND), 1 << 63, dtype=np.uint64)
        w[:, 1] = w1
        expected = np.searchsorted(np.array(bounds), uniforms(w1), side="right")
        assert np.array_equal(_table_branches(t, w) // 2, expected)


def test_random_chunks_land_where_searchsorted_puts_them():
    # checking rows keep their own branch; normal rows' outcomes are searchsorted's
    alice = random_entangled_policy(np.random.default_rng(4))
    t = _uncached(alice, HONEST, PARAMS)
    w = _round_words(19, 1_000, 40_000)
    u = uniforms(w)
    branch = _table_branches(t, w)
    normal = u[:, 0] >= PARAMS.r
    expected = np.searchsorted(np.array(_honest_bounds(alice)), u[normal, 1], side="right")
    assert np.array_equal(branch[normal] // 2, expected)
    assert np.all(branch[~normal] >= montecarlo._NORMAL)


# ---------------------------------------------------------------------------
# the compile cache


def test_simulate_and_enumerate_exact_compile_once(monkeypatch):
    calls = _count_compiles(monkeypatch)
    alice = random_entangled_policy(np.random.default_rng(5))
    config = SimConfig(rounds=2_000, seed=3, params=PARAMS, alice=alice, bob=HONEST)
    first = simulate(config)
    exact = enumerate_exact(alice, PARAMS)
    assert len(calls) == 1
    # a fresh receiver object with the same POVM, and an equal fresh params
    again = SimConfig(rounds=2_000, seed=3, params=ProtocolParams(r=0.3, R=77.7), alice=alice,
                      bob=BobStrategy.honest_optimal())
    assert simulate(again) == first
    assert enumerate_exact(alice, PARAMS) == exact
    assert len(calls) == 1
    simulate(SimConfig(rounds=2_000, seed=3, params=PARAMS, alice=alice,
                       bob=BobStrategy.random_guess()))
    assert len(calls) == 2


@pytest.mark.parametrize("policy", ["claim", "basis"])
def test_a_policy_edited_between_runs_gets_fresh_rows(policy):
    alice = random_entangled_policy(np.random.default_rng(6))
    config = SimConfig(rounds=5_000, seed=8, params=PARAMS, alice=alice, bob=HONEST)
    before_rows = _hex_rows(_entangled_table(alice, HONEST, PARAMS))
    before = simulate(config)
    if policy == "claim":
        key = ("b", 1)
        alice.claim_policy[key] = LABELS[(LABELS.index(alice.claim_policy[key]) + 1) % 3]
    else:
        u = in_plane_state(0.7)
        alice.basis_policy["b"] = (u, u.orthogonal())
    after_rows = _hex_rows(_entangled_table(alice, HONEST, PARAMS))
    assert after_rows != before_rows
    assert after_rows == _hex_rows(_uncached(alice, HONEST, PARAMS))
    after = simulate(config)
    assert after != before
    # a new sender with the edited policies plays the same rounds
    fresh = EntangledAlice(alice.psi, dict(alice.basis_policy), dict(alice.claim_policy))
    _cached_entangled_table.cache_clear()
    assert simulate(SimConfig(rounds=5_000, seed=8, params=PARAMS, alice=fresh,
                              bob=HONEST)) == after


def test_a_receiver_with_a_fresh_povm_per_call_gets_its_own_rows():
    alice = random_entangled_policy(np.random.default_rng(7))
    for angle in (0.0, 0.9, 0.0, 0.9):
        bob = _FreshPovmBob(angle)
        assert (_hex_rows(_entangled_table(alice, bob, PARAMS))
                == _hex_rows(_uncached(alice, bob, PARAMS)))
    # the unturned POVM is the honest receiver's, so it plays his rounds
    config = SimConfig(rounds=3_000, seed=2, params=PARAMS, alice=alice, bob=HONEST)
    from_stub = SimConfig(rounds=3_000, seed=2, params=PARAMS, alice=alice, bob=_FreshPovmBob())
    assert simulate(from_stub) == simulate(config)
    for _ in range(_TABLE_CACHE_SIZE + 5):
        _entangled_table(alice, _FreshPovmBob(), PARAMS)
    assert _cached_entangled_table.cache_info().currsize == _TABLE_CACHE_SIZE


@pytest.mark.parametrize("first, second", [
    (ProtocolParams(r=0.5, R=398), ProtocolParams(r=0.5, R=398.0)),
    (ProtocolParams(r=0.0, R=398.0), ProtocolParams(r=-0.0, R=398.0)),
])
def test_params_equal_in_value_but_not_in_text_compile_apart(first, second):
    # 398 == 398.0 and 0.0 == -0.0, but the rows they compile differ
    alice = aligned_pair()
    for params in (first, second, first):
        assert (_hex_rows(_entangled_table(alice, HONEST, params))
                == _hex_rows(_uncached(alice, HONEST, params)))
    assert _hex_rows(_uncached(alice, HONEST, first)) != _hex_rows(_uncached(alice, HONEST, second))


def test_a_cached_table_is_read_only():
    table = _entangled_table(_zero_width_sender(), HONEST, PARAMS)
    arrays = [v for v in table if isinstance(v, np.ndarray)]
    assert len(arrays) == 6 and table.faulty is not None
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[0]
    assert _entangled_table(aligned_pair(), HONEST, PARAMS).faulty is None


@pytest.mark.parametrize("bob", [HONEST, BobStrategy.random_guess()], ids=["honest", "blind"])
def test_two_workers_count_what_one_counts(bob):
    alice = random_entangled_policy(np.random.default_rng(8))
    _entangled_table(alice, bob, PARAMS)  # every block's thread plays this one table
    one, two = (simulate(SimConfig(rounds=30_001, seed=4, params=PARAMS, alice=alice, bob=bob,
                                   workers=w)) for w in (1, 2))
    assert one == two

"""The branch table compares Philox words, not uniforms: the word rule
equals the float rule at every edge.

A word w's uniform is u = (w >> 11) * 2**-53, as numpy's Generator.random
makes it. For every threshold t, u < t exactly when (w >> 11) is below
_word_threshold(t), and u >= t exactly when it is not; int(u * 3.0) is the
count of montecarlo._THIRDS at or below (w >> 11).
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from trinegamble.montecarlo import (
    _THIRDS,
    _round_rows,
    _round_words,
    _word_threshold,
    _word_thresholds,
)

from conftest import words_beside

EDGES = [
    0.0,
    -0.0,
    5e-324,
    2.0 ** -53,
    1.0 / 3.0,
    2.0 / 3.0,
    1.0 - 2.0 ** -53,
    1.0,
    math.nextafter(1.0, 2.0),  # a probability a hair above 1 after rounding
    1.0 + 1e-12,
    -1e-300,
]
TOP = 2 ** 64 - 1


def _uniform(w: int) -> float:
    return (w >> 11) * 2.0 ** -53


def _third_by_words(w: int) -> int:
    return sum((w >> 11) >= k for k in _THIRDS)


@pytest.mark.parametrize("t", EDGES, ids=repr)
def test_the_word_rule_is_the_float_rule_at_each_edge(t):
    big_t = _word_threshold(t)
    assert 0 <= big_t <= 2 ** 53
    for w in words_beside(t):
        u = _uniform(w)
        assert ((w >> 11) < big_t) == (u < t)
        assert ((w >> 11) >= big_t) == (u >= t)
    # and the word threshold is positive exactly when the threshold is
    assert (big_t > 0) == (t > 0.0)


def test_edge_thresholds_take_their_expected_values():
    assert [_word_threshold(t) for t in EDGES] == [
        0, 0, 1, 1, 3002399751580331, 6004799503160661, 2 ** 53 - 1, 2 ** 53, 2 ** 53, 2 ** 53,
        0]


def test_a_nan_threshold_is_rejected_when_the_table_is_compiled():
    # no uniform is below NaN, and none is at or above it, so no word rule matches
    with pytest.raises(ValueError, match="NaN"):
        _word_threshold(math.nan)
    with pytest.raises(ValueError, match="NaN"):
        _word_thresholds([0.5, math.nan])


def test_the_thirds_are_the_float_rule_at_each_edge():
    # the cut-offs are those of 1/3 and 2/3 themselves
    assert _THIRDS == (_word_threshold(1.0 / 3.0), _word_threshold(2.0 / 3.0))
    for w in words_beside(1.0 / 3.0) + words_beside(2.0 / 3.0):
        assert _third_by_words(w) == int(_uniform(w) * 3.0)


def test_word_thresholds_are_read_only_uint64():
    a = _word_thresholds([0.0, 0.25, 1.0])
    assert a.dtype == np.uint64 and a.tolist() == [0, 2 ** 51, 2 ** 53]
    with pytest.raises(ValueError, match="read-only"):
        a[0] = 1


words = st.integers(min_value=0, max_value=TOP)
thresholds = st.one_of(st.floats(allow_nan=False), st.floats(min_value=0.0, max_value=1.0),
                       st.sampled_from(EDGES))


@given(t=thresholds, w=words)
def test_the_word_rule_is_the_float_rule_for_any_threshold_and_word(t, w):
    big_t = _word_threshold(t)
    u = _uniform(w)
    assert ((w >> 11) < big_t) == (u < t)
    assert ((w >> 11) >= big_t) == (u >= t)


@given(w=words)
def test_the_thirds_are_the_float_rule_for_any_word(w):
    assert _third_by_words(w) == int(_uniform(w) * 3.0)


@given(t=thresholds)
def test_the_word_rule_holds_beside_any_threshold(t):
    for w in words_beside(t):
        assert ((w >> 11) < _word_threshold(t)) == (_uniform(w) < t)


@pytest.mark.parametrize("seed, start, count", [
    (0, 0, 1), (5, 77, 1_500), (2 ** 63 + 2 ** 40 + 29, 3, 777), (2 ** 64 - 1, 12_345, 64),
])
def test_the_two_readers_are_one_stream(seed, start, count):
    w = _round_words(seed, start, count)
    assert w.dtype == np.uint64 and w.shape == (count, 8)
    u = _round_rows(seed, start, count)
    assert np.array_equal(u, (w >> 11) * 2.0 ** -53)
    assert u.tobytes() == ((w >> 11) * 2.0 ** -53).tobytes()

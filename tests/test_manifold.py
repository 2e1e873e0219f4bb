import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aaopt.manifold import IdentificationTracker, identification_iter, pattern_of, support_size
from aaopt.prox import BoxBounds
from oracles import identification_brute_force


def test_pattern_signs_and_zero_band():
    x = np.array([0.5, -2.0, 1e-12, 0.0, -1e-10])
    out = pattern_of(x)
    assert out.dtype == np.int8
    assert np.array_equal(out, np.array([1, -1, 0, 0, 0], dtype=np.int8))


def test_pattern_zero_tolerance_is_inclusive():
    out = pattern_of(np.array([1e-9, -1e-9, 1.1e-9]), zero_tol=1e-9)
    assert np.array_equal(out, np.array([0, 0, 1], dtype=np.int8))


def test_pattern_rejects_negative_tolerance():
    with pytest.raises(ValueError):
        pattern_of(np.zeros(2), zero_tol=-1.0)


def test_pattern_box_bounds():
    bounds = BoxBounds(lower=0.0, upper=10.0)
    x = np.array([0.0, 1e-10, 5.0, 10.0 - 1e-10, 10.0])
    out = pattern_of(x, zero_tol=1e-9, bounds=bounds)
    assert np.array_equal(out, np.array([-1, -1, 0, 1, 1], dtype=np.int8))


def test_pattern_infinite_bounds_are_never_active():
    bounds = BoxBounds(lower=-np.inf, upper=np.inf)
    out = pattern_of(np.array([-1e30, 0.0, 1e30]), bounds=bounds)
    assert np.array_equal(out, np.zeros(3, dtype=np.int8))


def test_pattern_degenerate_box_prefers_lower():
    bounds = BoxBounds(lower=2.0, upper=2.0)
    out = pattern_of(np.array([2.0]), bounds=bounds)
    assert np.array_equal(out, np.array([-1], dtype=np.int8))


def test_identification_iter_hand_example():
    patterns = [
        np.array([1, 0], dtype=np.int8),
        np.array([0, 0], dtype=np.int8),
        np.array([0, 0], dtype=np.int8),
        np.array([0, 0], dtype=np.int8),
    ]
    assert identification_iter(patterns, window=2) == 1


def test_identification_iter_immediate_and_absent():
    same = [np.array([1, -1], dtype=np.int8)] * 5
    assert identification_iter(same, window=3) == 0
    flip = [np.array([(-1) ** k], dtype=np.int8) for k in range(6)]
    assert identification_iter(flip, window=2) is None


def test_identification_iter_short_sequences():
    p = [np.array([1], dtype=np.int8)] * 3
    assert identification_iter(p, window=4) is None
    assert identification_iter([], window=1) is None


def test_identification_iter_window_validation():
    with pytest.raises(ValueError):
        identification_iter([np.zeros(1, dtype=np.int8)], window=0)
    with pytest.raises(ValueError):
        IdentificationTracker(window=0)


def test_identification_iter_monotone_in_window():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(3, 15))
        patterns = [np.array([s], dtype=np.int8) for s in rng.choice([-1, 0, 1], size=n)]
        prev = -1
        for window in (1, 2, 3):
            k = identification_iter(patterns, window=window)
            k = n + 1 if k is None else k
            assert k >= prev
            prev = k


def test_identification_is_the_first_full_window_not_the_last_change():
    # the final pattern held for a full window, left, and came back briefly
    a, b = np.array([1, 0], dtype=np.int8), np.array([0, 0], dtype=np.int8)
    patterns = [b, a, a, a, b, b, a]
    assert identification_iter(patterns, window=3) == 1
    assert identification_iter(patterns, window=4) is None


# Patterns drawn from a small alphabet, so runs of the final pattern that
# start, break off and resume are common.
ALPHABET = [np.array(p, dtype=np.int8) for p in ([0, 0, 0], [1, 0, -1], [1, 1, 0], [-1, 0, 0])]


@settings(max_examples=300, deadline=None)
@given(symbols=st.lists(st.integers(0, len(ALPHABET) - 1), max_size=40), window=st.integers(1, 6))
@example(symbols=[], window=1)
@example(symbols=[1, 1], window=3)
@example(symbols=[0, 1, 1, 1, 2, 1], window=1)
@example(symbols=[0, 1, 1, 1, 2, 2, 2, 1], window=3)
def test_streaming_identification_matches_brute_force(symbols, window):
    patterns = [ALPHABET[s].copy() for s in symbols]
    tracker = IdentificationTracker(window)
    for n, pattern in enumerate(patterns, start=1):
        tracker.push(pattern)
        assert tracker.identified_at == identification_brute_force(patterns[:n], window)
    assert identification_iter(patterns, window) == identification_brute_force(patterns, window)
    if len(patterns) < window:
        assert tracker.identified_at is None


def test_support_size_counts_nonzero_symbols():
    assert support_size(np.array([1, 0, -1, 0], dtype=np.int8)) == 2
    assert support_size(np.zeros(4, dtype=np.int8)) == 0

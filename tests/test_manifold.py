import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aaopt.manifold import (
    IdentificationTracker,
    identification_iter,
    pattern_limits,
    pattern_of,
    support_size,
)
from aaopt.prox import BoxBounds
from oracles import identification_brute_force, pattern_of_reference


def test_pattern_signs_and_zero_band():
    x = np.array([0.5, -2.0, 1e-12, 0.0, -1e-10])
    out = pattern_of(x, pattern_limits())
    assert out.dtype == np.int8
    assert np.array_equal(out, np.array([1, -1, 0, 0, 0], dtype=np.int8))


def test_pattern_zero_tolerance_is_inclusive():
    out = pattern_of(np.array([1e-9, -1e-9, 1.1e-9]), pattern_limits(1e-9))
    assert np.array_equal(out, np.array([0, 0, 1], dtype=np.int8))


def test_pattern_rejects_negative_tolerance():
    for zero_tol in (-1.0, math.nan):  # NaN fails the check too
        with pytest.raises(ValueError, match="zero_tol"):
            pattern_limits(zero_tol)


def test_pattern_box_bounds():
    bounds = BoxBounds(lower=0.0, upper=10.0)
    x = np.array([0.0, 1e-10, 5.0, 10.0 - 1e-10, 10.0])
    out = pattern_of(x, pattern_limits(1e-9, bounds))
    assert np.array_equal(out, np.array([-1, -1, 0, 1, 1], dtype=np.int8))


def test_pattern_infinite_bounds_are_never_active():
    bounds = BoxBounds(lower=-np.inf, upper=np.inf)
    out = pattern_of(np.array([-1e30, 0.0, 1e30]), pattern_limits(bounds=bounds))
    assert np.array_equal(out, np.zeros(3, dtype=np.int8))


def test_pattern_degenerate_box_prefers_lower():
    bounds = BoxBounds(lower=2.0, upper=2.0)
    out = pattern_of(np.array([2.0]), pattern_limits(bounds=bounds))
    assert np.array_equal(out, np.array([-1], dtype=np.int8))


# Values and bounds meet exactly often enough to exercise the tolerance band
# edges; floats() without NaN includes +-inf.
# Huge bounds with a huge tolerance overflow lo + tol to inf, and 5e-324 is
# the smallest subnormal, one step from zero.
EDGES = [0.0, -0.0, 1.0, 1e-9, -1e-9, 1.0 + 1e-9, math.inf, -math.inf, 1.7e308, -1.7e308, 5e-324]
VALUE = st.one_of(st.floats(allow_nan=False), st.sampled_from(EDGES))
TOLERANCE = st.sampled_from([0.0, 5e-324, 1e-9, 0.5, 1e308, math.inf])


@st.composite
def boxes(draw, n: int):
    """None, scalar bounds or per-coordinate bounds, lower <= upper, some degenerate."""
    kind = draw(st.sampled_from(["none", "scalar", "array"]))
    if kind == "none":
        return None
    count = 1 if kind == "scalar" else n
    pairs = []
    for _ in range(count):
        a, b = draw(VALUE), draw(VALUE)
        if draw(st.booleans()):
            b = a  # lower == upper
        pairs.append((min(a, b), max(a, b)))
    if kind == "scalar":
        return BoxBounds(*pairs[0])
    return BoxBounds(np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs]))


@settings(max_examples=400, deadline=None)
@given(data=st.data(), n=st.integers(0, 12), zero_tol=TOLERANCE)
def test_pattern_matches_reference(data, n, zero_tol):
    x = np.array(data.draw(st.lists(VALUE, min_size=n, max_size=n)), dtype=float)
    bounds = data.draw(boxes(n))
    got = pattern_of(x, pattern_limits(zero_tol, bounds))
    # the reference's infinite bound less an infinite tolerance is NaN, and
    # a huge bound plus a huge tolerance overflows; isfinite masks both out
    with np.errstate(invalid="ignore", over="ignore"):
        want = pattern_of_reference(x, zero_tol, bounds)
    assert got.dtype == np.int8 and got.shape == x.shape
    assert np.array_equal(got, want)


@pytest.mark.filterwarnings("error")
def test_pattern_reads_nan_as_zero_without_warning():
    x = np.array([np.nan, 2.0, -2.0, np.nan])
    assert pattern_of(x, pattern_limits()).tolist() == [0, 1, -1, 0]
    assert pattern_of(x, pattern_limits(bounds=BoxBounds(-2.0, 2.0))).tolist() == [0, 1, -1, 0]


def test_pattern_bounds_must_broadcast_to_the_shape_of_x():
    x = np.array([0.0, 0.5, 1.0])
    one = pattern_of(x, pattern_limits(bounds=BoxBounds(np.zeros(1), np.ones(1))))
    assert one.shape == x.shape and one.tolist() == [-1, 0, 1]
    for bounds in (
        BoxBounds(np.zeros(4), np.ones(4)),
        BoxBounds(np.zeros((2, 3)), np.ones((2, 3))),
        BoxBounds(0.0, np.ones((2, 3))),
        BoxBounds(np.zeros((2, 3)), 1.0),
    ):
        with pytest.raises(ValueError):
            pattern_of(x, pattern_limits(bounds=bounds))
        with pytest.raises(ValueError):
            pattern_of_reference(x, bounds=bounds)


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


@settings(max_examples=300, deadline=None)
@given(symbols=st.lists(st.integers(0, len(ALPHABET) - 1), max_size=60), window=st.integers(1, 6),
       cuts=st.lists(st.integers(0, 60), max_size=8), order=st.sampled_from("CF"))
@example(symbols=[1] * 20, window=3, cuts=[16], order="C")
@example(symbols=[0, 1, 1] + [1] * 16, window=4, cuts=[3], order="C")
@example(symbols=[2] * 5 + [1] * 3 + [2] * 8, window=5, cuts=[5, 8], order="F")
def test_any_split_into_blocks_identifies_as_one_at_a_time(symbols, window, cuts, order):
    patterns = [ALPHABET[s] for s in symbols]
    bounds = sorted({0, len(patterns), *(c for c in cuts if c <= len(patterns))})
    single, blocks = IdentificationTracker(window), IdentificationTracker(window)
    for lo, hi in zip(bounds, bounds[1:]):
        blocks.push_block(np.array(patterns[lo:hi], order=order))
        for pattern in patterns[lo:hi]:
            single.push(pattern)
        assert blocks.identified_at == single.identified_at == identification_brute_force(patterns[:hi], window)
    blocks.push_block(np.empty((0, 3), dtype=np.int8))
    assert blocks.identified_at == identification_brute_force(patterns, window)


def test_support_size_of_a_block_counts_each_row():
    block = np.array([[1, 0, -1, 0], [0, 0, 0, 0], [-1, -1, 1, 1]], dtype=np.int8)
    counts = support_size(block)
    assert counts.tolist() == [support_size(row) for row in block] == [2, 0, 4]
    assert type(support_size(block[0])) is int


def test_support_size_counts_nonzero_symbols():
    assert support_size(np.array([1, 0, -1, 0], dtype=np.int8)) == 2
    assert support_size(np.zeros(4, dtype=np.int8)) == 0

"""Active-manifold monitoring: sign/activity patterns and when they freeze."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .prox import BoxBounds

__all__ = ["pattern_of", "IdentificationTracker", "identification_iter", "support_size"]


def pattern_of(
    x: np.ndarray, zero_tol: float = 1e-9, bounds: BoxBounds | None = None
) -> np.ndarray:
    """Coordinatewise pattern as an int8 vector.

    Without bounds: -1 / 0 / +1 for negative / (within zero_tol of) zero /
    positive, and 0 for NaN.  With bounds: -1 at the lower bound, +1 at the
    upper bound (within zero_tol; lower checked first), 0 in the interior.
    Bounds must broadcast to the shape of x.
    """
    if zero_tol < 0:
        raise ValueError("pattern_of: zero_tol must be nonnegative")
    x = np.asarray(x, dtype=float)
    if bounds is None:
        # comparisons, so NaN reads as 0 rather than a cast of sign(NaN)
        return np.subtract(x > zero_tol, x < -zero_tol, dtype=np.int8)
    lo = np.asarray(bounds.lower, dtype=float)
    hi = np.asarray(bounds.upper, dtype=float)
    at_upper = (x >= hi - zero_tol) & np.isfinite(hi)
    at_lower = (x <= lo + zero_tol) & np.isfinite(lo)
    if at_upper.shape != x.shape or at_lower.shape != x.shape:
        raise ValueError("pattern_of: bounds do not broadcast to the shape %s of x" % (x.shape,))
    out = np.asarray(at_upper, dtype=np.int8)
    out[at_lower] = -1  # lower wins when a degenerate box pins both
    return out


class IdentificationTracker:
    """``identification_iter`` over a stream of patterns, without storing them.

    Feed the int8 patterns of iterations 0, 1, ... in order with ``push``;
    ``identified_at`` is then what ``identification_iter`` returns for the
    patterns fed so far.  The final pattern may already have held for a full
    window before it changed and came back, so the tracker remembers, for
    each pattern that has held for ``window`` consecutive iterations, where
    that run began the first time; its memory grows with the number of
    such patterns, not with the number of iterations.
    """

    def __init__(self, window: int = 10) -> None:
        if window < 1:
            raise ValueError("identification: window must be >= 1")
        self.window = window
        self._count = 0
        self._key: bytes | None = None  # the newest pattern's bytes
        self._run_start = 0  # where the newest pattern's current run began
        self._first_stable: dict[bytes, int] = {}

    def push(self, pattern: np.ndarray) -> None:
        key = np.asarray(pattern, dtype=np.int8).tobytes()
        if key != self._key:
            self._key = key
            self._run_start = self._count
        self._count += 1
        if self._count - self._run_start == self.window:
            self._first_stable.setdefault(key, self._run_start)

    @property
    def identified_at(self) -> int | None:
        return self._first_stable.get(self._key)


def identification_iter(patterns: Sequence[np.ndarray], window: int = 10) -> int | None:
    """First index k whose next ``window`` patterns all equal the final one.

    Returns None when no such run exists (including sequences shorter than
    the window).
    """
    tracker = IdentificationTracker(window)
    for pattern in patterns:
        tracker.push(pattern)
    return tracker.identified_at


def support_size(pattern: np.ndarray) -> int:
    """Number of coordinates off the pattern's zero/interior symbol."""
    return int(np.count_nonzero(np.asarray(pattern)))

"""Active-manifold monitoring: sign/activity patterns and when they freeze."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .prox import BoxBounds

__all__ = [
    "pattern_limits",
    "pattern_of",
    "IdentificationTracker",
    "identification_iter",
    "support_size",
]


def pattern_limits(zero_tol: float = 1e-9, bounds: BoxBounds | None = None) -> tuple:
    """The limits ``(lower, upper)`` that ``pattern_of`` compares against, built once.

    Without bounds: -1 / 0 / +1 for x < -zero_tol / |x| <= zero_tol /
    x > zero_tol, so the limits are the neighbours of -zero_tol and zero_tol
    away from zero (x > t exactly when x >= nextafter(t, inf)).  With bounds:
    -1 for x <= lower + zero_tol, else +1 for x >= upper - zero_tol, else 0;
    an infinite bound is never active, so its limit is NaN, which no
    comparison meets.  Where the upper limit would not lie above the lower
    one, it moves to just above it (NaN above +inf), so the lower bound wins
    a degenerate box without a masked write.  Scalar limits are floats,
    per-coordinate ones arrays.
    """
    # a negated comparison, so NaN fails the check
    if not zero_tol >= 0:
        raise ValueError("pattern_limits: zero_tol must be nonnegative")
    if bounds is None:
        if zero_tol == math.inf:  # nothing lies beyond an infinite tolerance
            return math.nan, math.nan
        return math.nextafter(-zero_tol, -math.inf), math.nextafter(zero_tol, math.inf)
    lo = np.asarray(bounds.lower, dtype=float)
    hi = np.asarray(bounds.upper, dtype=float)
    # lo + tol may overflow to inf, a limit every x but NaN meets; an infinite
    # bound with an infinite tol makes NaN, which the isfinite mask replaces anyway
    with np.errstate(over="ignore", invalid="ignore"):
        lower = np.where(np.isfinite(lo), lo + zero_tol, math.nan)
        upper = np.where(np.isfinite(hi), hi - zero_tol, math.nan)
        above = np.where(lower < math.inf, np.nextafter(lower, math.inf), math.nan)
        upper = np.where(upper <= lower, above, upper)
    return tuple(float(a) if a.ndim == 0 else a for a in (lower, upper))


def pattern_of(x: np.ndarray, limits: tuple) -> np.ndarray:
    """Coordinatewise activity pattern of x as an int8 vector.

    ``limits`` is ``pattern_limits(zero_tol, bounds)``: -1 where
    x <= lower, +1 where x >= upper, 0 elsewhere and at NaN.  The limits
    must broadcast to the shape of x.
    """
    lower, upper = limits
    x = np.asarray(x, dtype=float)
    out = np.subtract(x >= upper, x <= lower, dtype=np.int8)
    if out.shape != x.shape:
        raise ValueError("pattern_of: bounds do not broadcast to the shape %s of x" % (x.shape,))
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

"""Brute-force oracles shared by the test modules.

These deliberately avoid the library's own code paths: grid refinement for
1-D minimization, central differences for gradients, triple loops for matrix
products, and dense solves for affine fixed points.
"""

from __future__ import annotations

import numpy as np


def grid_minimize_1d(fun, lo: float, hi: float, npts: int = 201, rounds: int = 12) -> float:
    """Argmin of a convex scalar function by iterative grid refinement.

    ``fun`` must accept a numpy array.  Evaluation runs in extended precision
    so the flat float64 plateau around the minimum does not cap the accuracy.
    """
    assert hi > lo
    lo = np.longdouble(lo)
    hi = np.longdouble(hi)
    for _ in range(rounds):
        grid = np.linspace(lo, hi, npts, dtype=np.longdouble)
        vals = np.asarray(fun(grid))
        j = int(np.argmin(vals))
        step = (hi - lo) / (npts - 1)
        lo, hi = grid[j] - step, grid[j] + step
    return float((lo + hi) / 2)


def central_diff_grad(fun, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fun(x + e) - fun(x - e)) / (2.0 * h)
    return g


def matvec_loops(A: np.ndarray, x: np.ndarray, transpose: bool = False) -> np.ndarray:
    """Triple-checked matrix-vector product via explicit loops."""
    A = np.asarray(A, dtype=float)
    m, n = A.shape
    if transpose:
        out = np.zeros(n)
        for j in range(n):
            acc = 0.0
            for i in range(m):
                acc += A[i, j] * x[i]
            out[j] = acc
        return out
    out = np.zeros(m)
    for i in range(m):
        acc = 0.0
        for j in range(n):
            acc += A[i, j] * x[j]
        out[i] = acc
    return out


def affine_fixed_point(G: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Exact fixed point of H(x) = G x + c via a dense solve."""
    n = G.shape[0]
    return np.linalg.solve(np.eye(n) - G, c)


def shrink_objective(t, v: float, w: float, s: float):
    """The 1-D model whose minimizer weighted shrinkage must return."""
    return 0.5 * (t - v) ** 2 + s * w * np.abs(t)


def identification_brute_force(patterns, window: int):
    """Earliest k such that patterns[k : k + window] all equal the last pattern.

    Tries every start and compares every pattern of its window element by
    element; None when no start qualifies (including fewer than ``window``
    patterns).
    """
    n = len(patterns)
    for k in range(n - window + 1):
        if all(np.array_equal(patterns[j], patterns[-1]) for j in range(k, k + window)):
            return k
    return None

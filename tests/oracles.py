"""Brute-force oracles shared by the test modules.

These deliberately avoid the library's own code paths: grid refinement for
1-D minimization, central differences for gradients, triple loops for matrix
products, and dense solves for affine fixed points.  ``write_libsvm`` writes
the sparse datasets that the CSR tests load.
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


def svm_pcd_sweep_reference(A, y: np.ndarray, C: float, beta: float, x: np.ndarray) -> np.ndarray:
    """One PCD sweep on the SVM dual, written with numpy scalars and ``@``.

    This is the svm operator's sweep as it stood before it moved to Python
    floats and ``ndarray.dot``; the arithmetic, its order and the row
    extraction are unchanged, so the two must agree bit for bit.
    """
    m = A.shape[0]
    # rows of Z = y .* A, extracted once; the sweep keeps u = Z^T x current
    if hasattr(A, "tocsr") and not isinstance(A, np.ndarray):
        csr = A.tocsr()
        rows = [
            (csr.indices[csr.indptr[i] : csr.indptr[i + 1]],
             y[i] * csr.data[csr.indptr[i] : csr.indptr[i + 1]])
            for i in range(m)
        ]

        def row_dot(i: int, u: np.ndarray) -> float:
            idx, data = rows[i]
            return float(data @ u[idx])

        def row_axpy(i: int, coef: float, u: np.ndarray) -> None:
            idx, data = rows[i]
            u[idx] += coef * data
    else:
        Z = y[:, None] * np.asarray(A, dtype=float)

        def row_dot(i: int, u: np.ndarray) -> float:
            return float(Z[i] @ u)

        def row_axpy(i: int, coef: float, u: np.ndarray) -> None:
            u += coef * Z[i]

    x = np.array(x, dtype=float, copy=True)
    u = np.asarray(A.T @ (y * x)).ravel()
    for i in range(m):
        v = x[i] - beta * (row_dot(i, u) - 1.0)
        new = min(max(v, 0.0), C)
        delta = new - x[i]
        if delta != 0.0:
            row_axpy(i, delta, u)
            x[i] = new
    return x


def pattern_of_reference(x, zero_tol: float = 1e-9, bounds=None) -> np.ndarray:
    """Activity pattern built by sign, broadcast bounds and masked writes.

    The library's ``pattern_of`` as it stood before it moved to comparisons;
    it must agree on every input without NaN (``sign(NaN)`` cast to int8 is
    platform-dependent and warns).
    """
    x = np.asarray(x, dtype=float)
    if bounds is None:
        out = np.sign(x).astype(np.int8)
        out[np.abs(x) <= zero_tol] = 0
        return out
    lo = np.broadcast_to(np.asarray(bounds.lower, dtype=float), x.shape)
    hi = np.broadcast_to(np.asarray(bounds.upper, dtype=float), x.shape)
    out = np.zeros(x.shape, dtype=np.int8)
    at_upper = np.isfinite(hi) & (x >= hi - zero_tol)
    at_lower = np.isfinite(lo) & (x <= lo + zero_tol)
    out[at_upper] = 1
    out[at_lower] = -1  # lower wins when a degenerate box pins both
    return out


def write_libsvm(path, A: np.ndarray, labels: np.ndarray, drop_below: float = 0.5) -> None:
    """Write rows of A as LIBSVM text in %.17g, leaving out |a_ij| < drop_below.

    Every kept value reads back exactly, and the dropped ones make the rows
    genuinely sparse.
    """
    with open(path, "w", encoding="utf-8") as handle:
        for row, label in zip(A, labels):
            feats = " ".join("%d:%.17g" % (j + 1, v) for j, v in enumerate(row) if abs(v) >= drop_below)
            handle.write("%d %s\n" % (label, feats))

"""Brute-force oracles shared by the test modules.

These deliberately avoid the library's own code paths: grid refinement for
1-D minimization, central differences for gradients, and dense solves for
affine fixed points.  ``write_libsvm`` writes
the sparse datasets that the CSR tests load.  ``ListAaState`` with
``list_aa_step`` is the Anderson engine as it stood before its history moved
into buffers, kept as the reference the buffered engine must match bit for
bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


def soft_threshold_reference(v, t: float) -> np.ndarray:
    """Three-branch shrinkage: v - t above t, v + t below -t, else 0.0.

    The library's ``soft_threshold`` as it stood before it moved to a clip;
    ties |v| == t and NaN map to +0.0, and the two must agree bit for bit.
    """
    v = np.asarray(v, dtype=float)
    return np.where(v > t, v - t, np.where(v < -t, v + t, 0.0))


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


@dataclass
class ListAaState:
    """Newest-first history lists: h[j] = H(x^(k-j)), r[j] its residual."""

    x: np.ndarray
    h: list = field(default_factory=list)
    r: list = field(default_factory=list)
    norms: list = field(default_factory=list)
    reject_streak: int = 0


def list_init_state(apply, x0) -> ListAaState:
    x0 = np.asarray(x0, dtype=float)
    h0 = np.asarray(apply(x0), dtype=float)
    r0 = h0 - x0
    return ListAaState(x=x0, h=[h0], r=[r0], norms=[float(np.linalg.norm(r0))])


def list_compute_alpha(R: np.ndarray, tau: float) -> np.ndarray:
    """Sum-to-one weights by ``vstack`` and an SVD ``lstsq``, with the rank retry."""
    ncol = R.shape[1]
    if not np.all(np.isfinite(R)):
        raise ValueError("non-finite residual matrix")
    if ncol == 1:
        return np.ones(1)
    p = ncol - 1
    D = R[:, :-1] - R[:, 1:]
    c0 = R[:, 0]
    C = np.zeros((ncol, p))
    C[np.arange(p), np.arange(p)] = -1.0
    C[np.arange(p) + 1, np.arange(p)] = 1.0
    e0 = np.zeros(ncol)
    e0[0] = 1.0
    if tau > 0:
        root = math.sqrt(tau)
        lhs = np.vstack([D, root * C])
        rhs = np.concatenate([c0, -root * e0])
        theta, _, _, _ = np.linalg.lstsq(lhs, rhs, rcond=None)
    else:
        theta, _, rank, _ = np.linalg.lstsq(D, c0, rcond=None)
        if rank < p:
            retry_tau = 1e-10 * float(np.sum(R * R))
            if retry_tau > 0:
                return list_compute_alpha(R, retry_tau)
    alpha = e0 + C @ theta
    total = float(alpha.sum())
    if not np.isfinite(total) or total == 0.0:
        raise np.linalg.LinAlgError("singular weight solve")
    alpha = alpha / total
    for pick in (np.argmax, np.argmin):
        excess = math.fsum(alpha) - 1.0
        if excess == 0.0:
            break
        alpha[int(pick(np.abs(alpha)))] -= excess
    if not np.all(np.isfinite(alpha)) or abs(math.fsum(alpha) - 1.0) > 1e-12:
        raise np.linalg.LinAlgError("weights failed the sum-to-one contract")
    return alpha


def list_aa_step(apply, state: ListAaState, cfg):
    """One safeguarded AA step; returns (x_next, alpha, alpha_l1, accepted, norm).

    ``cfg`` carries the fields of ``AaConfig``.  The residual matrix is a
    ``column_stack`` copy, the candidate a sequential loop over the columns,
    and the history shifts by ``insert(0)``.
    """
    R = np.column_stack(state.r)
    tau = cfg.tikhonov if cfg.tikhonov is not None else 1e-10 * float(np.sum(R * R))
    alpha = list_compute_alpha(R, tau)
    alpha_l1 = float(np.sum(np.abs(alpha)))
    candidate = alpha[0] * state.h[0]
    for j in range(1, alpha.shape[0]):
        candidate += alpha[j] * state.h[j]

    best_stored = min(state.norms)
    accepted = False
    h_cand = r_cand = None
    if (cfg.alpha_cap is None or alpha_l1 <= cfg.alpha_cap) and np.all(np.isfinite(candidate)):
        h_cand = np.asarray(apply(candidate), dtype=float)
        r_cand = h_cand - candidate
        norm_cand = float(np.linalg.norm(r_cand))
        accepted = bool(np.isfinite(norm_cand) and norm_cand <= cfg.safeguard_factor * best_stored)

    if accepted:
        x_next, h_next, r_next, norm_next = candidate, h_cand, r_cand, norm_cand
        state.reject_streak = 0
    else:
        x_next = state.h[0]
        if h_cand is not None and len(state.h) == 1:
            h_next, r_next, norm_next = h_cand, r_cand, norm_cand
        else:
            h_next = np.asarray(apply(x_next), dtype=float)
            r_next = h_next - x_next
            norm_next = float(np.linalg.norm(r_next))
        state.reject_streak += 1
        if state.reject_streak >= cfg.restart_after_rejects:
            state.h.clear()
            state.r.clear()
            state.norms.clear()
            state.reject_streak = 0

    state.h.insert(0, h_next)
    state.r.insert(0, r_next)
    state.norms.insert(0, norm_next)
    del state.h[cfg.memory + 1 :]
    del state.r[cfg.memory + 1 :]
    del state.norms[cfg.memory + 1 :]
    state.x = x_next
    return x_next, alpha, alpha_l1, accepted, norm_next

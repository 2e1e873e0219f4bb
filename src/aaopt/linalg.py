"""Matrix-vector kernels shared by every solver in the package.

Matrices are plain numpy 2-D arrays or scipy CSR matrices; vectors are 1-D
numpy arrays.  Nothing here allocates beyond the output vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["matvec", "spectral_norm_sq", "cg_solve_spd", "CgResult"]


def _shape_of(A) -> tuple[int, int]:
    shape = getattr(A, "shape", None)
    if shape is None or len(shape) != 2:
        raise ValueError("expected a 2-D matrix, got %r" % (A,))
    return shape


def matvec(A, x: np.ndarray, transpose: bool = False) -> np.ndarray:
    """Compute A @ x (or A.T @ x) for a dense or CSR matrix.

    Raises ValueError on a dimension mismatch instead of letting numpy
    broadcast something silently.
    """
    rows, cols = _shape_of(A)
    x = np.asarray(x)
    if x.ndim != 1:
        raise ValueError("matvec expects a 1-D vector, got shape %s" % (x.shape,))
    need = rows if transpose else cols
    if x.shape[0] != need:
        raise ValueError(
            "dimension mismatch: matrix %s %s vector of length %d"
            % ((cols, rows) if transpose else (rows, cols), "(transposed) with" if transpose else "with", x.shape[0])
        )
    # .dot reaches the same BLAS kernels as @ with less dispatch per call
    out = A.T.dot(x) if transpose else A.dot(x)
    return np.asarray(out).ravel()


def spectral_norm_sq(A, tol: float = 1e-6, max_iter: int = 500) -> float:
    """Largest eigenvalue of A.T @ A (squared spectral norm) by power iteration.

    Deterministic: the start vector comes from a fixed-seed generator.  A zero
    matrix returns 0.0.  Stops when the Rayleigh estimate changes by less than
    ``tol`` relatively, or after ``max_iter`` rounds.
    """
    rows, cols = _shape_of(A)
    if rows == 0 or cols == 0:
        return 0.0
    v = np.random.default_rng(0).standard_normal(cols)
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(max_iter):
        w = matvec(A, matvec(A, v), transpose=True)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        new_est = float(v @ w)  # Rayleigh quotient, since ||v|| = 1
        v = w / nw
        if abs(new_est - est) <= tol * abs(new_est):
            return new_est
        est = new_est
    return est


@dataclass(frozen=True)
class CgResult:
    """Outcome of a conjugate-gradient solve."""

    x: np.ndarray
    iterations: int
    converged: bool
    residual_norm: float


def cg_solve_spd(
    apply: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    tol: float = 1e-12,
    max_iter: int = 500,
) -> CgResult:
    """Conjugate gradients for S x = b with S symmetric positive definite.

    ``apply`` evaluates S @ v.  Stops when ||S x - b|| <= tol * ||b||; if the
    iteration cap is hit first the result carries ``converged=False``.  A
    non-finite intermediate quantity is a hard error.

    Returns
    -------
    CgResult with the solution, iteration count, convergence flag and the true
    (recomputed) residual norm.
    """
    b = np.asarray(b, dtype=float)
    nb = float(np.linalg.norm(b))
    x = np.zeros_like(b)
    if nb == 0.0:
        return CgResult(x, 0, True, 0.0)
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    iterations = 0
    for iterations in range(1, max_iter + 1):
        Sp = apply(p)
        if not np.all(np.isfinite(Sp)):
            raise FloatingPointError("cg_solve_spd: operator returned a non-finite value")
        curv = float(p @ Sp)
        if curv <= 0.0:
            raise ValueError("cg_solve_spd: operator is not positive definite (p.S.p = %g)" % curv)
        step = rs / curv
        x += step * p
        r -= step * Sp
        rs_new = float(r @ r)
        if not np.isfinite(rs_new):
            raise FloatingPointError("cg_solve_spd: residual became non-finite")
        if np.sqrt(rs_new) <= tol * nb:
            break
        p = r + (rs_new / rs) * p
        rs = rs_new
    true_res = float(np.linalg.norm(apply(x) - b))
    return CgResult(x, iterations, true_res <= tol * nb, true_res)

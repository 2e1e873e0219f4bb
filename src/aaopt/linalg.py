"""Power iteration for a Lipschitz constant, conjugate gradients, and the
finiteness check the maps and the Anderson engine share.

Matrices are numpy 2-D arrays or scipy CSR matrices.  Both have ``.dot`` and
``.T``, so the package forms its products as ``A.dot(x)`` and ``A.T.dot(r)``
on either, and numpy or scipy rejects a vector of the wrong length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg.blas import ddot

__all__ = ["all_finite", "spectral_norm_sq", "cg_solve_spd", "CgResult"]


def all_finite(v: np.ndarray) -> bool:
    """Whether every entry of the float vector v is finite.

    A finite v.v rules out NaN and inf, so one BLAS ddot decides most calls;
    only a finite vector whose dot overflows needs the full scan.  ddot
    overflows without numpy's warning, but it takes no empty vector.
    """
    return not v.size or math.isfinite(ddot(v, v)) or bool(np.isfinite(v).all())


def spectral_norm_sq(A, tol: float = 1e-6, max_iter: int = 500) -> float:
    """Largest eigenvalue of A.T @ A (squared spectral norm) by power iteration.

    Deterministic: the start vector comes from a fixed-seed generator.  A zero
    or empty matrix returns 0.0 (its first product is 0), and inf comes at
    the first norm that is not finite.  Stops when the Rayleigh estimate
    changes by less than ``tol`` relatively, or after ``max_iter`` rounds.
    """
    v = np.random.default_rng(0).standard_normal(A.shape[1])
    v /= np.linalg.norm(v)
    est = 0.0
    At = A.T
    # the norm below handles an overflow, and a product that sums infs of both signs is NaN
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_iter):
            # sqrt of w.dot(w) is np.linalg.norm of a 1-D vector, without its dispatch
            w = At.dot(A.dot(v))
            nw = math.sqrt(float(w.dot(w)))
            if nw == math.inf and np.isfinite(w).all():  # only w.w overflows: scale w to 1 first
                scale = float(np.max(np.abs(w)))
                nw = scale * math.sqrt(float((w / scale).dot(w / scale)))
            if not 0.0 < nw < math.inf:  # a zero matrix, or a product that overflows or holds NaN
                return 0.0 if nw == 0.0 else math.inf
            new_est = float(v.dot(w))  # Rayleigh quotient, since ||v|| = 1
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

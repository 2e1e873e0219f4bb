"""Proximal operators and projections used by the fixed-point algorithms."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

__all__ = [
    "BoxBounds",
    "soft_threshold",
    "weighted_soft_threshold",
    "nonneg_project",
    "quadratic_ls_prox",
]


@dataclass(frozen=True)
class BoxBounds:
    """Elementwise bounds l <= x <= u; entries may be infinite."""

    lower: np.ndarray | float
    upper: np.ndarray | float

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if np.any(lo > hi):
            raise ValueError("BoxBounds: lower exceeds upper somewhere")


def soft_threshold(v: np.ndarray, t: float) -> np.ndarray:
    """sign(v) * max(|v| - t, 0), i.e. the prox of t * ||.||_1, for a vector v.

    Bit for bit the three-branch form: v - t above t, v + t below -t, and
    +0.0 in between, at ties |v| == t and at NaN.  It is computed as
    v - clip(v, -t, t), which is exactly v - t, v + t or v - v = +0.0.  At
    t == 0 numpy may clip -0.0 to +0.0 and leave -0.0 - +0.0 = -0.0, so that
    case is v + 0.0 instead.  NaN passes the clip; its entries are zeroed
    once a dot product of the result shows some entry is not finite.
    """
    if t < 0:
        raise ValueError("soft_threshold: threshold must be nonnegative")
    v = np.asarray(v, dtype=float)
    out = v + 0.0 if t == 0 else v - np.minimum(np.maximum(v, -t), t)
    if not math.isfinite(float(out.dot(out))):
        out = np.where(np.isnan(out), 0.0, out)
    return out


def weighted_soft_threshold(v: np.ndarray, w: np.ndarray, s: float) -> np.ndarray:
    """Coordinatewise shrinkage with per-coordinate thresholds s * w_i.

    Minimizes 0.5*(t - v_i)^2 + s*w_i*|t| in each coordinate; the three cases
    are v_i - s*w_i above, v_i + s*w_i below, 0 in between (ties to 0).
    """
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    if s < 0:
        raise ValueError("weighted_soft_threshold: scale must be nonnegative")
    if np.any(w < 0):
        raise ValueError("weighted_soft_threshold: weights must be nonnegative")
    if w.shape != v.shape:
        raise ValueError("weighted_soft_threshold: weight shape %s != input shape %s" % (w.shape, v.shape))
    thresh = s * w
    # three-branch shrinkage; ties |v| == thresh map to exactly 0
    return np.where(v > thresh, v - thresh, np.where(v < -thresh, v + thresh, 0.0))


def nonneg_project(v: np.ndarray) -> np.ndarray:
    """Projection onto the nonnegative orthant."""
    return np.maximum(np.asarray(v, dtype=float), 0.0)


def quadratic_ls_prox(
    A, y: np.ndarray, lam: float, scale_m: float, beta: float
) -> Callable[[np.ndarray, float], np.ndarray]:
    """prox_{beta f} for f(x) = ||A x - y||^2 / (2*scale_m) + lam*||x||^2.

    The prox at z solves (A.T A + s*I) x = A.T y + (scale_m/beta) z with
    s = scale_m*(1/beta + 2*lam): the first-order condition
    grad f(x) + (x - z)/beta = 0 multiplied by scale_m.  That matrix does not
    depend on z, so this factory forms the dense n x n Gram matrix A.T A once
    (for a CSR A too), takes its Cholesky factor with LAPACK dpotrf and hoists
    A.T y.  Each call of the returned ``prox(z, t)`` builds one right-hand side
    and runs one dpotrs pair of triangular solves; ``t`` must be ``beta``, the
    step the factor was built for, and ``z`` is not modified.

    Raises LinAlgError if the shifted Gram matrix is not positive definite.
    """
    if beta <= 0:
        raise ValueError("quadratic_ls_prox: beta must be positive")
    if scale_m <= 0:
        raise ValueError("quadratic_ls_prox: scale_m must be positive")
    gram = A.T @ A
    gram = gram.toarray() if hasattr(gram, "toarray") else np.asarray(gram, dtype=float)
    gram.flat[:: gram.shape[0] + 1] += scale_m * (1.0 / beta + 2.0 * lam)
    # gram is symmetric and gram.T is Fortran-ordered, so LAPACK factors it in
    # place without a copy
    factor, info = dpotrf(gram.T, lower=True, clean=False, overwrite_a=True)
    if info != 0:
        raise np.linalg.LinAlgError(
            "quadratic_ls_prox: shifted Gram matrix is not positive definite (dpotrf info %d)" % info
        )
    aty = A.T.dot(np.asarray(y, dtype=float))
    z_weight = scale_m / beta

    def prox(z: np.ndarray, t: float) -> np.ndarray:
        if t != beta:
            raise ValueError("quadratic_ls_prox: factored for step %r, called with %r" % (beta, t))
        x, _ = dpotrs(factor, aty + z_weight * np.asarray(z, dtype=float), lower=True, overwrite_b=True)
        if not np.isfinite(x).all():
            raise FloatingPointError("quadratic_ls_prox: non-finite result")
        return x

    return prox

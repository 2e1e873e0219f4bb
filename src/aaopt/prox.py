"""Proximal operators and projections used by the fixed-point algorithms."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg.blas import dtrsv
from scipy.linalg.lapack import dpotrf
from scipy.sparse import issparse

from .linalg import all_finite

__all__ = [
    "BoxBounds",
    "soft_threshold",
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
        # NaN > x is False, so the order check alone would let a NaN bound through
        for name, bound in (("lower", lo), ("upper", hi)):
            if np.isnan(bound).any():
                raise ValueError("BoxBounds: %s is NaN somewhere" % name)
        if np.any(lo > hi):
            raise ValueError("BoxBounds: lower exceeds upper somewhere")


def soft_threshold(v: np.ndarray, t: float | np.ndarray) -> np.ndarray:
    """sign(v) * max(|v| - t, 0), the prox of t * ||.||_1, for a vector v and a
    threshold t that is one number or an array of v's shape (IRL1's weights).

    Bit for bit the three-branch form: v - t above t, v + t below -t, and
    +0.0 in between, at ties |v| == t and at NaN.  It is computed as
    v - clip(v, -t, t), which is exactly v - t, v + t or v - v = +0.0.  Where
    t is 0 numpy may clip -0.0 to +0.0 and leave -0.0 - +0.0 = -0.0, so unless
    t is one positive number 0.0 is added, which changes nothing but -0.0.
    NaN passes the clip; its entries are zeroed once ``linalg.all_finite``
    finds some entry of the result is not finite.
    """
    v = np.asarray(v, dtype=float)
    vector = isinstance(t, np.ndarray)
    if vector and t.shape != v.shape:
        raise ValueError("soft_threshold: threshold shape %s != input shape %s" % (t.shape, v.shape))
    if not ((t >= 0).all() if vector else t >= 0):  # negated, so NaN fails too
        raise ValueError("soft_threshold: threshold must be nonnegative")
    out = v - np.minimum(np.maximum(v, -t), t)
    if vector or t == 0:
        out += 0.0
    if not all_finite(out):
        out = np.where(np.isnan(out), 0.0, out)
    return out


def nonneg_project(v: np.ndarray) -> np.ndarray:
    """Projection onto the nonnegative orthant."""
    return np.maximum(np.asarray(v, dtype=float), 0.0)


def quadratic_ls_prox(
    A, y: np.ndarray, lam: float, scale_m: float, beta: float
) -> Callable[[np.ndarray], np.ndarray]:
    """prox_{beta f} for f(x) = ||A x - y||^2 / (2*scale_m) + lam*||x||^2.

    The prox at z solves (A.T A + s*I) x = A.T y + (scale_m/beta) z with
    s = scale_m*(1/beta + 2*lam): the first-order condition
    grad f(x) + (x - z)/beta = 0 multiplied by scale_m.  That matrix does not
    depend on z, so this factory forms the dense n x n Gram matrix A.T A once
    (for a CSR A too), takes its Cholesky factor L with LAPACK dpotrf and
    hoists A.T y.  Each call of the returned ``prox(z)`` builds one fresh
    right-hand side and overwrites it with two BLAS dtrsv solves, by L and
    then by L.T.  dtrsv reads the factor in place, which needs it
    Fortran-ordered; LAPACK dpotrs would instead pack all of L for each of
    its two one-column solves.  The result is checked with
    ``linalg.all_finite``.  ``z`` is not modified.  The prox carries what
    its calls read as attributes: ``factor`` (L, Fortran-ordered), ``aty``
    and ``z_weight`` (scale_m/beta), from which ``algorithms.drs_step``
    builds its compiled map without factoring again.

    Raises ValueError if A has no columns, and LinAlgError if the shifted
    Gram matrix is not positive definite; ``prox(z)`` raises ValueError if
    z does not have shape (n,).
    """
    if not beta > 0:  # negated, so NaN fails too
        raise ValueError("quadratic_ls_prox: beta must be positive")
    if not scale_m > 0:
        raise ValueError("quadratic_ls_prox: scale_m must be positive")
    if A.shape[1] == 0:
        raise ValueError("quadratic_ls_prox: A has shape %s, with no columns" % (A.shape,))
    gram = A.T @ A
    gram = gram.toarray() if issparse(gram) else np.asarray(gram, dtype=float)
    gram.flat[:: gram.shape[0] + 1] += scale_m * (1.0 / beta + 2.0 * lam)
    # gram is symmetric and gram.T is Fortran-ordered, so LAPACK factors it in
    # place without a copy, and dtrsv reads the factor without one
    factor, info = dpotrf(gram.T, lower=True, clean=False, overwrite_a=True)
    if info != 0:
        raise np.linalg.LinAlgError(
            "quadratic_ls_prox: shifted Gram matrix is not positive definite (dpotrf info %d)" % info
        )
    aty = A.T.dot(np.asarray(y, dtype=float))
    z_weight = scale_m / beta
    n = aty.shape[0]

    def prox(z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if z.shape != (n,):
            raise ValueError("quadratic_ls_prox: z has shape %s, expected (%d,)" % (z.shape, n))
        x = dtrsv(factor, aty + z_weight * z, lower=1, overwrite_x=1)
        x = dtrsv(factor, x, lower=1, trans=1, overwrite_x=1)
        if not all_finite(x):
            raise FloatingPointError("quadratic_ls_prox: non-finite result")
        return x

    prox.factor, prox.aty, prox.z_weight = factor, aty, z_weight
    return prox

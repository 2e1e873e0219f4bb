"""Reference optima computed without aaopt, from scipy and numpy only.

Each oracle takes the problem instance a leg solved and returns the optimal
objective value, evaluated with its own numpy formula.  The benchmark
compares a converged leg's ``final_objective`` against it.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize, nnls

_LBFGS = {"maxiter": 50000, "maxfun": 100000, "ftol": 1e-16, "gtol": 1e-13}


def lasso_value(A: np.ndarray, y: np.ndarray, lam: float, x: np.ndarray) -> float:
    r = A @ x - y
    return 0.5 * float(r @ r) + lam * float(np.abs(x).sum())


def lasso_optimum(A: np.ndarray, y: np.ndarray, lam: float) -> float:
    """L-BFGS-B on the split x = u - v with u, v >= 0, then an exact polish.

    The polish solves the optimality system A_S^T (A_S x_S - y) + lam sign = 0
    on the support found by L-BFGS-B; it is kept only if it preserves the
    signs and lowers the objective.
    """
    n = A.shape[1]

    def fun(w):
        u, v = w[:n], w[n:]
        r = A @ (u - v) - y
        g = A.T @ r
        value = 0.5 * float(r @ r) + lam * float(w.sum())
        return value, np.concatenate([g + lam, -g + lam])

    res = minimize(fun, np.zeros(2 * n), jac=True, method="L-BFGS-B",
                   bounds=[(0.0, None)] * (2 * n), options=_LBFGS)
    x = res.x[:n] - res.x[n:]
    best = lasso_value(A, y, lam, x)
    support = np.abs(x) > 1e-9
    if support.any():
        sign = np.sign(x[support])
        As = A[:, support]
        xs, *_ = np.linalg.lstsq(As.T @ As, As.T @ y - lam * sign, rcond=None)
        if np.all(np.sign(xs) == sign):
            polished = np.zeros(n)
            polished[support] = xs
            best = min(best, lasso_value(A, y, lam, polished))
    return best


def svm_dual_optimum(A: np.ndarray, y: np.ndarray, C: float) -> float:
    """L-BFGS-B on min 0.5 ||Z^T x||^2 - sum(x) over the box [0, C]^m, Z = y .* A."""
    Z = y[:, None] * A
    m = Z.shape[0]

    def fun(x):
        w = Z.T @ x
        return 0.5 * float(w @ w) - float(x.sum()), Z @ w - 1.0

    res = minimize(fun, np.zeros(m), jac=True, method="L-BFGS-B",
                   bounds=[(0.0, C)] * m, options=_LBFGS)
    return float(res.fun)


def nnls_optimum(A: np.ndarray, y: np.ndarray, lam: float) -> float:
    """scipy's active-set NNLS on the augmented system [A/sqrt(m); sqrt(2 lam) I].

    Its squared residual is twice (1/2m)||A x - y||^2 + lam ||x||^2.
    """
    m, n = A.shape
    aug = np.vstack([A / np.sqrt(m), np.sqrt(2.0 * lam) * np.eye(n)])
    rhs = np.concatenate([y / np.sqrt(m), np.zeros(n)])
    x, _ = nnls(aug, rhs, maxiter=50 * n)
    r = A @ x - y
    return float(r @ r) / (2.0 * m) + lam * float(x @ x)

"""Fixed-point maps for nonsmooth first-order algorithms.

Each step function (for pcd_sweep, the sweep it builds) implements one
application x -> H(x) of the underlying iteration, so any of them can be
driven plainly or through the Anderson engine.  Prox callables follow the convention ``prox(v, t)`` = argmin
g(y) + ||y - v||^2 / (2 t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .problems import RegularizerPhi, phi_deriv
from .prox import weighted_soft_threshold

__all__ = [
    "FixedPointOperator",
    "pga_step",
    "FistaState",
    "fista_init",
    "fista_step",
    "pcd_sweep",
    "DrsParams",
    "drs_parts",
    "admm_step",
    "irl1_step",
    "irl1_beta_window",
]

Prox = Callable[[np.ndarray, float], np.ndarray]
Grad = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class FixedPointOperator:
    """A fixed-point map together with optional run-time diagnostics.

    ``apply`` must be deterministic.  ``objective`` (if given) evaluates the
    merit function being minimized at an iterate; ``monitor`` maps an iterate
    to the vector whose sign/activity pattern identifies the active manifold
    (defaults to the iterate itself).
    """

    dimension: int
    apply: Callable[[np.ndarray], np.ndarray]
    objective: Callable[[np.ndarray], float] | None = None
    monitor: Callable[[np.ndarray], np.ndarray] | None = None

    def residual(self, x: np.ndarray) -> np.ndarray:
        return self.apply(x) - x

    def monitor_vector(self, x: np.ndarray) -> np.ndarray:
        return x if self.monitor is None else self.monitor(x)


def _require_finite(v: np.ndarray, what: str) -> np.ndarray:
    # a finite v.v rules out NaN and inf; only an overflowing dot of a
    # finite vector needs the full scan
    if not math.isfinite(float(v.dot(v))) and not np.isfinite(v).all():
        raise FloatingPointError("%s is non-finite" % what)
    return v


def pga_step(grad_f: Grad, g_prox: Prox, beta: float, x: np.ndarray) -> np.ndarray:
    """Proximal-gradient step: H(x) = prox_{beta g}(x - beta grad f(x))."""
    if beta <= 0:
        raise ValueError("pga_step: beta must be positive")
    g = _require_finite(np.asarray(grad_f(x), dtype=float), "pga_step: gradient")
    return g_prox(x - beta * g, beta)


@dataclass(frozen=True)
class FistaState:
    """Momentum state (x, y, t) of the accelerated proximal gradient method."""

    x: np.ndarray
    y: np.ndarray
    t: float


def fista_init(x0: np.ndarray) -> FistaState:
    x0 = np.asarray(x0, dtype=float)
    return FistaState(x=x0, y=x0, t=1.0)


def fista_step(state: FistaState, apply: Callable[[np.ndarray], np.ndarray]) -> FistaState:
    """One FISTA update with H = ``apply``, the proximal-gradient map pga_step.

    The first step from fista_init equals one application of H.  This
    comparator is driven on its own momentum sequence and is never fed to the
    Anderson engine.
    """
    x_new = apply(state.y)
    t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * state.t**2))
    y_new = x_new + ((state.t - 1.0) / t_new) * (x_new - state.x)
    return FistaState(x=x_new, y=y_new, t=t_new)


def _per_row(value, m: int, what: str) -> list[float]:
    if not isinstance(value, (int, float)):  # a plain scalar skips numpy
        value = np.asarray(value, dtype=float)
        if value.ndim:
            if value.shape != (m,):
                raise ValueError("pcd_sweep: %s has shape %s, expected (%d,)" % (what, value.shape, m))
            return value.tolist()
    return [float(value)] * m


def pcd_sweep(Z, q, lower, upper, beta: float) -> Callable[[np.ndarray], np.ndarray]:
    """One cyclic sweep of proximal coordinate descent, built once for many calls.

    The problem is f(x) = 0.5*||Z.T x||^2 + q.T x on the box
    lower <= x <= upper, with Z an m x n dense array or CSR matrix (one row
    per coordinate) and q, lower, upper scalars or length-m vectors (bounds
    may be infinite).  The returned ``sweep(x)`` updates coordinate i to
    clip(x_i - beta*(z_i.u + q_i), lower_i, upper_i) for i = 0..m-1, each
    against the coordinates already updated, while keeping u = Z.T x current.
    It does not modify ``x``.

    The rows are extracted here; the sweep holds the iterate as Python floats
    and takes each row's dot with ndarray.dot, the same IEEE operations as
    numpy scalars and ``@`` at a fraction of the dispatch cost.
    """
    if beta <= 0:
        raise ValueError("pcd_sweep: beta must be positive")
    sparse = hasattr(Z, "tocsr") and not isinstance(Z, np.ndarray)
    Z = Z.tocsr() if sparse else np.asarray(Z, dtype=float)
    m = Z.shape[0]
    q, lower, upper = _per_row(q, m, "q"), _per_row(lower, m, "lower"), _per_row(upper, m, "upper")

    if sparse:
        ptr = Z.indptr
        rows = [(Z.indices[ptr[i] : ptr[i + 1]], Z.data[ptr[i] : ptr[i + 1]]) for i in range(m)]
        # Z.T as CSR, built once, so each sweep's u costs one product
        Zt = Z.T.tocsr()

        def sweep(x: np.ndarray) -> np.ndarray:
            x = np.asarray(x, dtype=float)
            xs = x.tolist()
            u = Zt.dot(x)
            for i, ((idx, data), qi, lo, hi) in enumerate(zip(rows, q, lower, upper)):
                xi = xs[i]
                v = xi - beta * (float(data.dot(u[idx])) + qi)
                new = min(max(v, lo), hi)
                delta = new - xi
                if delta != 0.0:
                    u[idx] += delta * data
                    xs[i] = new
            return np.array(xs, dtype=float)

        return sweep

    rows = list(Z)
    Zt = Z.T

    def sweep(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        xs = x.tolist()
        u = Zt.dot(x)
        for i, (z, qi, lo, hi) in enumerate(zip(rows, q, lower, upper)):
            xi = xs[i]
            v = xi - beta * (float(z.dot(u)) + qi)
            new = min(max(v, lo), hi)
            delta = new - xi
            if delta != 0.0:
                u += delta * z
                xs[i] = new
        return np.array(xs, dtype=float)

    return sweep


@dataclass(frozen=True)
class DrsParams:
    """Stepsize beta and relaxation delta in (0, 2) for Douglas--Rachford."""

    beta: float
    delta: float = 1.0

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("DrsParams: beta must be positive")
        if not (0.0 < self.delta < 2.0):
            raise ValueError("DrsParams: delta must lie in (0, 2)")


def drs_parts(
    f_prox: Prox, g_prox: Prox, params: DrsParams, z: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One DRS update, returning (x, y, z_next).

    x = prox_{beta f}(z), y = prox_{beta g}(2x - z), z_next = z + delta(y - x).
    """
    x = f_prox(z, params.beta)
    y = g_prox(2.0 * x - z, params.beta)
    return x, y, z + params.delta * (y - x)


def admm_step(
    phi1_min: Callable[[np.ndarray, np.ndarray], np.ndarray],
    phi2_min: Callable[[np.ndarray, np.ndarray], np.ndarray],
    A: np.ndarray,
    B: np.ndarray,
    b: np.ndarray,
    lam: float,
    state: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One ADMM cycle for min phi1(u) + phi2(w) s.t. A u + B w = b.

    The updates run in the order u, then the multiplier v, then w:

        u+ = argmin_u phi1(u) + <v, A u> + lam/2 ||A u + B w - b||^2
        v+ = v + lam (A u+ + B w - b)
        w+ = argmin_w phi2(w) + <v+, B w> + lam/2 ||A u+ + B w - b||^2

    ``phi1_min(w, v)`` and ``phi2_min(u, v)`` solve the two subproblems.
    With this order the iterates track DRS on the image functions exactly
    (x = A u, y = b - B w, z = A u - v/lam).
    """
    if lam <= 0:
        raise ValueError("admm_step: lam must be positive")
    u, v, w = state
    u_new = phi1_min(w, v)
    v_new = v + lam * (A @ u_new + B @ w - b)
    w_new = phi2_min(u_new, v_new)
    return u_new, v_new, w_new


def irl1_step(
    grad_f: Grad,
    phi: RegularizerPhi,
    lam: float,
    beta: float,
    mu: float,
    theta: np.ndarray,
) -> np.ndarray:
    """One iteratively-reweighted-l1 step on the extended variable theta = (x, eps).

    Weights are w_i = phi'(|x_i| + max(eps_i, 0)); the x-update is the
    closed-form weighted shrinkage of the gradient step, and eps shrinks
    geometrically, eps+ = mu * eps.  Returns the new (x, eps) as one vector.

    Anderson candidates may leave the domain eps >= 0, hence the clamp in the
    weights.  Where |x_i| + max(eps_i, 0) is 0 the coordinate is pinned at 0
    (the power penalty's infinite-weight limit), so the safeguard can judge
    such a candidate by its residual.
    """
    if beta <= 0:
        raise ValueError("irl1_step: beta must be positive")
    if not (0.0 < mu < 1.0):
        raise ValueError("irl1_step: mu must lie in (0, 1)")
    if lam < 0:
        raise ValueError("irl1_step: lam must be nonnegative")
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1 or theta.shape[0] % 2:
        raise ValueError("irl1_step: theta must be a vector (x, eps) of even length")
    n = theta.shape[0] // 2
    x, eps = theta[:n], theta[n:]
    t = np.abs(x) + np.maximum(eps, 0.0)
    inside = t > 0.0
    w = np.zeros(n)
    if inside.any():
        w[inside] = phi_deriv(phi, t[inside])
    g = _require_finite(np.asarray(grad_f(x), dtype=float), "irl1_step: gradient")
    x_new = np.where(inside, weighted_soft_threshold(x - beta * g, w, beta * lam), 0.0)
    return np.concatenate([x_new, mu * eps])


def irl1_beta_window(kappa: float, lam: float, l_omega: float, mu: float) -> tuple[float, float]:
    """Admissible stepsize interval endpoints for the reweighted-l1 iteration.

    Returns the two roots (ascending) of

        (kappa^2 + lam^2 L^2) beta^2 - 2 kappa beta + 2 mu - mu^2 = 0,

    where L bounds the weight-map Lipschitz constant and kappa the strong
    monotonicity modulus.  A negative discriminant means the smoothing decay
    mu is incompatible with (kappa, lam*L) and raises.
    """
    if kappa <= 0:
        raise ValueError("irl1_beta_window: kappa must be positive")
    if lam < 0 or l_omega < 0:
        raise ValueError("irl1_beta_window: lam and l_omega must be nonnegative")
    if not (0.0 < mu < 1.0):
        raise ValueError("irl1_beta_window: mu outside admissible window (needs 0 < mu < 1)")
    a = kappa**2 + (lam * l_omega) ** 2
    disc = 4.0 * kappa**2 - 4.0 * a * (2.0 * mu - mu**2)
    if disc < 0:
        raise ValueError(
            "irl1_beta_window: mu outside admissible window (discriminant %.6g < 0)" % disc
        )
    root = math.sqrt(disc)
    return ((2.0 * kappa - root) / (2.0 * a), (2.0 * kappa + root) / (2.0 * a))

"""Anderson acceleration with a residual-descent safeguard.

The engine wraps an arbitrary fixed-point map H.  At iteration k it keeps the
last min(m, k) + 1 evaluations H(x^j) and residuals r^j = H(x^j) - x^j
(newest first), solves the sum-constrained least-squares problem

    alpha = argmin ||R alpha||^2 + tau*||alpha||^2   s.t.  sum(alpha) = 1,

forms the candidate sum_j alpha_j H^(k-j), and accepts it only if its residual
norm is at most ``safeguard_factor`` times the smallest stored residual norm;
otherwise it falls back to the plain step H(x^k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "AaConfig",
    "AaState",
    "AaDiagnostics",
    "RateFit",
    "init_state",
    "compute_alpha",
    "aa_candidate",
    "safeguarded_step",
    "fit_linear_rate",
]


@dataclass
class AaConfig:
    """Tuning knobs for the accelerated iteration.

    Parameters
    ----------
    memory : history depth m >= 1; up to m+1 residual columns are kept.
    tikhonov : absolute ridge weight tau for the alpha solve, or None to use
        the scale-aware default 1e-10 * ||R||_F^2 each iteration.
    safeguard_factor : acceptance slack theta >= 1; the candidate is accepted
        iff its residual norm is <= theta * (smallest stored residual norm).
    restart_after_rejects : consecutive rejections that trigger a history
        restart from the current iterate.
    alpha_cap : optional bound on sum|alpha_i|; a candidate whose weights
        exceed it is rejected without evaluating the map.  None disables the
        check (the sum is still reported in the diagnostics).
    """

    memory: int = 10
    tikhonov: float | None = None
    safeguard_factor: float = 1.0
    restart_after_rejects: int = 5
    alpha_cap: float | None = None

    def __post_init__(self):
        # negated comparisons, so NaN fails each check
        if not self.memory >= 1:
            raise ValueError("AaConfig: memory must be >= 1")
        if self.tikhonov is not None and not self.tikhonov >= 0:
            raise ValueError("AaConfig: tikhonov must be nonnegative")
        if not self.safeguard_factor >= 1.0:
            raise ValueError("AaConfig: safeguard_factor must be >= 1")
        if not self.restart_after_rejects >= 1:
            raise ValueError("AaConfig: restart_after_rejects must be >= 1")
        if self.alpha_cap is not None and not self.alpha_cap >= 1.0:
            raise ValueError("AaConfig: alpha_cap must be >= 1 (alpha sums to 1)")


@dataclass
class AaState:
    """Iteration state: current iterate plus newest-first histories.

    h_hist[j] = H(x^(k-j)), r_hist[j] = H(x^(k-j)) - x^(k-j) and
    r_norms[j] = float(np.linalg.norm(r_hist[j])), cached when the residual
    is stored; the three lists always have the same length, at most memory+1.
    """

    x: np.ndarray
    h_hist: list[np.ndarray] = field(default_factory=list)
    r_hist: list[np.ndarray] = field(default_factory=list)
    r_norms: list[float] = field(default_factory=list)
    k: int = 0
    reject_streak: int = 0


@dataclass(frozen=True)
class AaDiagnostics:
    """Per-step record: weights, their l1 mass, acceptance, new residual norm."""

    alpha: np.ndarray
    alpha_l1: float
    accepted: bool
    residual_norm: float


@dataclass(frozen=True)
class RateFit:
    """Empirical linear rate gamma with the goodness of the log-linear fit."""

    gamma: float
    r_squared: float
    defined: bool = True


def init_state(apply: Callable[[np.ndarray], np.ndarray], x0: np.ndarray) -> AaState:
    """Evaluate H(x0) once and seed the histories."""
    x0 = np.asarray(x0, dtype=float)
    h0 = np.asarray(apply(x0), dtype=float)
    r0 = h0 - x0
    return AaState(x=x0, h_hist=[h0], r_hist=[r0], r_norms=[float(np.linalg.norm(r0))])


@lru_cache(maxsize=64)
def _difference_map(ncol: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (C, e0) with alpha = e0 + C theta summing to one for every theta.

    C is the ncol x (ncol-1) backward-difference map: -1 on the diagonal and
    +1 just below it.
    """
    p = ncol - 1
    C = np.zeros((ncol, p))
    diag = np.arange(p)
    C[diag, diag] = -1.0
    C[diag + 1, diag] = 1.0
    e0 = np.zeros(ncol)
    e0[0] = 1.0
    C.setflags(write=False)
    e0.setflags(write=False)
    return C, e0


def compute_alpha(R: np.ndarray, tau: float = 0.0) -> np.ndarray:
    """Solve min ||R a||^2 + tau*||a||^2 subject to sum(a) = 1.

    Columns of R are residuals ordered newest first.  The constraint is
    eliminated by the difference parametrization a = e_0 + C theta (which
    enforces the sum exactly), the resulting unconstrained least-squares
    problem is solved with an SVD, and the weights are renormalized before
    being returned.  A rank-deficient system with tau = 0 is retried once
    with tau = 1e-10 * ||R||_F^2.
    """
    R = np.asarray(R, dtype=float)
    if R.ndim != 2 or R.shape[1] < 1:
        raise ValueError("compute_alpha: R must have at least one column")
    if not np.all(np.isfinite(R)):
        raise ValueError("compute_alpha: residual matrix contains non-finite entries")
    if tau < 0:
        raise ValueError("compute_alpha: tau must be nonnegative")
    ncol = R.shape[1]
    if ncol == 1:
        return np.ones(1)

    p = ncol - 1
    # alpha = e0 + C theta with C the backward-difference map; sum(alpha) = 1
    # holds for every theta, and R alpha = c0 - D theta with D the matrix of
    # consecutive column differences.
    D = R[:, :-1] - R[:, 1:]
    c0 = R[:, 0]
    C, e0 = _difference_map(ncol)
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
                return compute_alpha(R, retry_tau)

    alpha = e0 + C @ theta
    total = float(alpha.sum())
    if not np.isfinite(total) or total == 0.0:
        raise np.linalg.LinAlgError("compute_alpha: weight solve is singular")
    alpha = alpha / total
    # An ill-conditioned solve can return weights so large that plain float
    # summation no longer resolves the sum constraint (the safeguard rejects
    # such candidates, but the weights it sees must still sum to one).
    # Redistribute the compensated-summation slack: first into the largest
    # weight, then the leftover rounding into the smallest.
    for pick in (np.argmax, np.argmin):
        excess = math.fsum(alpha) - 1.0
        if excess == 0.0:
            break
        alpha[int(pick(np.abs(alpha)))] -= excess
    if not np.all(np.isfinite(alpha)) or abs(math.fsum(alpha) - 1.0) > 1e-12:
        raise np.linalg.LinAlgError("compute_alpha: weights failed the sum-to-one contract")
    return alpha


def aa_candidate(h_values: Sequence[np.ndarray], alpha: np.ndarray) -> np.ndarray:
    """Affine combination sum_j alpha_j h_values[j] (newest-first pairing)."""
    alpha = np.asarray(alpha, dtype=float)
    if len(h_values) != alpha.shape[0]:
        raise ValueError(
            "aa_candidate: %d stored evaluations but %d weights" % (len(h_values), alpha.shape[0])
        )
    out = alpha[0] * h_values[0]
    term = np.empty_like(out)
    for j in range(1, alpha.shape[0]):
        np.multiply(alpha[j], h_values[j], out=term)
        out += term
    return out


def _push(state: AaState, h_new: np.ndarray, r_new: np.ndarray, r_norm: float, memory: int) -> None:
    state.h_hist.insert(0, h_new)
    state.r_hist.insert(0, r_new)
    state.r_norms.insert(0, r_norm)
    del state.h_hist[memory + 1 :]
    del state.r_hist[memory + 1 :]
    del state.r_norms[memory + 1 :]


def safeguarded_step(
    apply: Callable[[np.ndarray], np.ndarray],
    state: AaState,
    cfg: AaConfig,
) -> tuple[np.ndarray, AaDiagnostics]:
    """Advance one iteration, mutating ``state`` in place.

    Returns the next iterate and the step diagnostics.  The candidate is
    rejected (falling back to the plain step H(x^k), which is already stored)
    when its weights exceed ``alpha_cap``, when it is non-finite, or when its
    residual norm fails the safeguard test; ``restart_after_rejects``
    consecutive rejections clear the history to the current iterate.
    """
    R = np.column_stack(state.r_hist)
    tau = cfg.tikhonov if cfg.tikhonov is not None else 1e-10 * float(np.sum(R * R))
    alpha = compute_alpha(R, tau)
    alpha_l1 = float(np.sum(np.abs(alpha)))
    candidate = aa_candidate(state.h_hist, alpha)

    best_stored = min(state.r_norms)
    accepted = False
    h_cand = r_cand = None
    if (cfg.alpha_cap is None or alpha_l1 <= cfg.alpha_cap) and np.all(np.isfinite(candidate)):
        h_cand = np.asarray(apply(candidate), dtype=float)
        r_cand = h_cand - candidate
        norm_cand = float(np.linalg.norm(r_cand))
        # NaN residuals fail this comparison, i.e. reject
        accepted = np.isfinite(norm_cand) and norm_cand <= cfg.safeguard_factor * best_stored

    if accepted:
        x_next, h_next, r_next, norm_next = candidate, h_cand, r_cand, norm_cand
        state.reject_streak = 0
    else:
        x_next = state.h_hist[0]  # plain step H(x^k), already evaluated
        if h_cand is not None and len(state.h_hist) == 1:
            # with one column alpha = [1] and the candidate is x_next bit for
            # bit, so H was just evaluated there
            h_next, r_next, norm_next = h_cand, r_cand, norm_cand
        else:
            h_next = np.asarray(apply(x_next), dtype=float)
            r_next = h_next - x_next
            norm_next = float(np.linalg.norm(r_next))
        state.reject_streak += 1
        if state.reject_streak >= cfg.restart_after_rejects:
            state.h_hist.clear()
            state.r_hist.clear()
            state.r_norms.clear()
            state.reject_streak = 0

    _push(state, h_next, r_next, norm_next, cfg.memory)
    state.x = x_next
    state.k += 1
    diag = AaDiagnostics(alpha=alpha, alpha_l1=alpha_l1, accepted=accepted, residual_norm=norm_next)
    return x_next, diag


def fit_linear_rate(residual_norms: Sequence[float], tail_fraction: float = 0.3) -> RateFit:
    """Least-squares linear rate from the tail of a residual-norm sequence.

    Fits log ||r_k|| ~ a + k*log(gamma) over the last ``tail_fraction`` of the
    sequence and reports gamma = exp(slope) with the r^2 of the fit.  Exact
    zeros end the usable range (only points before the first zero are used);
    fewer than 5 usable tail points yields ``defined=False``.
    """
    r = np.asarray(residual_norms, dtype=float)
    if not (0 < tail_fraction <= 1):
        raise ValueError("fit_linear_rate: tail_fraction must be in (0, 1]")
    if np.any(r < 0):
        raise ValueError("fit_linear_rate: residual norms must be nonnegative")
    zeros = np.flatnonzero(r == 0.0)
    if zeros.size:
        r = r[: zeros[0]]
    n = r.shape[0]
    n_tail = int(math.ceil(tail_fraction * n))
    if n_tail < 5:
        return RateFit(math.nan, math.nan, defined=False)
    k = np.arange(n - n_tail, n, dtype=float)
    logr = np.log(r[n - n_tail :])
    slope, intercept = np.polyfit(k, logr, 1)
    fitted = slope * k + intercept
    ss_res = float(np.sum((logr - fitted) ** 2))
    ss_tot = float(np.sum((logr - logr.mean()) ** 2))
    if ss_tot <= 1e-30:
        r2 = 1.0 if ss_res <= 1e-20 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return RateFit(float(np.exp(slope)), r2, defined=True)

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
from dataclasses import dataclass
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
    """Iteration state: the current iterate plus the newest-first history.

    The history sits in two buffers with room for 2*(memory+1) entries,
    allocated at the first step.  The ncol stored entries occupy the window
    [head, head + ncol), newest first:

    - ``hbuf`` is C-ordered with one evaluation per row; row head + j is
      H(x^(k-j)).
    - ``rbuf`` is C-ordered with one residual per column; column head + j is
      r^j = H(x^(k-j)) - x^(k-j).  The window's columns are the weight
      solve's residual matrix R as a view, with the element layout of a
      column stack of the residuals.
    - ``r_norms[j]`` caches the norm of r^j; its length is ncol, at most
      memory+1.

    A new entry goes in just before the window, so a step copies no stored
    entry; only when the window reaches index 0 are the kept entries moved
    to the end of the buffers.  ``h_hist`` and ``r_hist`` are read-only
    (ncol x n) views of the stored evaluations and residuals, newest first.
    """

    x: np.ndarray
    hbuf: np.ndarray
    rbuf: np.ndarray
    r_norms: list[float]
    head: int = 0
    k: int = 0
    reject_streak: int = 0

    @property
    def h_hist(self) -> np.ndarray:
        return _read_only(self.hbuf[self.head : self.head + len(self.r_norms)])

    @property
    def r_hist(self) -> np.ndarray:
        return _read_only(self.rbuf[:, self.head : self.head + len(self.r_norms)].T)


def _read_only(view: np.ndarray) -> np.ndarray:
    view.flags.writeable = False
    return view


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
    """Evaluate H(x0) once and seed the history.

    The buffers hold this one entry; the first step grows them to the
    configured memory.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 1:
        raise ValueError("init_state: x0 must be a vector, got shape %s" % (x0.shape,))
    h0 = np.asarray(apply(x0), dtype=float)
    r0 = h0 - x0
    return AaState(
        x=x0, hbuf=h0[None, :].copy(), rbuf=r0[:, None].copy(), r_norms=[math.sqrt(float(r0.dot(r0)))]
    )


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
    if not np.isfinite(R).all():
        raise ValueError("compute_alpha: residual matrix contains non-finite entries")
    if tau < 0:
        raise ValueError("compute_alpha: tau must be nonnegative")
    n, ncol = R.shape
    if ncol == 1:
        return np.ones(1)

    p = ncol - 1
    # alpha = e0 + C theta with C the backward-difference map; sum(alpha) = 1
    # holds for every theta, and R alpha = c0 - D theta with D the matrix of
    # consecutive column differences.
    C, e0 = _difference_map(ncol)
    if tau > 0:
        # the stacked system [D; sqrt(tau) C] theta ~ [c0; -sqrt(tau) e0]
        root = math.sqrt(tau)
        lhs = np.empty((n + ncol, p))
        np.subtract(R[:, :-1], R[:, 1:], out=lhs[:n])
        np.multiply(root, C, out=lhs[n:])
        rhs = np.empty(n + ncol)
        rhs[:n] = R[:, 0]
        np.multiply(-root, e0, out=rhs[n:])
        theta = np.linalg.lstsq(lhs, rhs, rcond=None)[0]
    else:
        theta, _, rank, _ = np.linalg.lstsq(R[:, :-1] - R[:, 1:], R[:, 0], rcond=None)
        if rank < p:
            retry_tau = 1e-10 * float((R * R).sum())
            if retry_tau > 0:
                return compute_alpha(R, retry_tau)

    alpha = e0 + C @ theta
    total = float(alpha.sum())
    if not math.isfinite(total) or total == 0.0:
        raise np.linalg.LinAlgError("compute_alpha: weight solve is singular")
    alpha /= total
    # An ill-conditioned solve can return weights so large that plain float
    # summation no longer resolves the sum constraint (the safeguard rejects
    # such candidates, but the weights it sees must still sum to one).
    # Redistribute the compensated-summation slack: first into the largest
    # weight, then the leftover rounding into the smallest.
    excess = math.fsum(alpha.tolist()) - 1.0
    for pick in (np.argmax, np.argmin):
        if excess == 0.0:
            break
        alpha[int(pick(np.abs(alpha)))] -= excess
        excess = math.fsum(alpha.tolist()) - 1.0
    if not np.isfinite(alpha).all() or abs(excess) > 1e-12:
        raise np.linalg.LinAlgError("compute_alpha: weights failed the sum-to-one contract")
    return alpha


def aa_candidate(h_values: Sequence[np.ndarray] | np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Affine combination sum_j alpha_j h_values[j] (newest-first pairing).

    ``h_values`` is a sequence of evaluations or their (ncol x n) stack.  The
    weighted rows are added one at a time, in index order.
    """
    alpha = np.asarray(alpha, dtype=float)
    H = np.asarray(h_values, dtype=float)
    if H.shape[0] != alpha.shape[0]:
        raise ValueError("aa_candidate: %d stored evaluations but %d weights" % (H.shape[0], alpha.shape[0]))
    terms = alpha[:, None] * H
    if terms.shape[1] > 1:
        # axis 0 is the outer loop of a C-ordered stack; the initial -0.0
        # keeps the first row's signed zeros
        return np.add.reduce(terms, axis=0, initial=-0.0)
    # numpy sums a single column pairwise; accumulate keeps the order
    return np.add.accumulate(terms, axis=0)[-1]


def _push(state: AaState, h_new: np.ndarray, r_new: np.ndarray, r_norm: float, memory: int) -> None:
    """Store a new newest entry, keeping at most memory older ones."""
    keep = min(len(state.r_norms), memory)
    head = state.head
    if head == 0 or state.hbuf.shape[0] < 2 * (memory + 1):
        # no room before the window: move the kept entries to the end of
        # buffers wide enough that the two ranges never overlap
        hbuf, rbuf = state.hbuf, state.rbuf
        width = max(hbuf.shape[0], 2 * (memory + 1))
        if width > hbuf.shape[0]:
            state.hbuf = np.empty((width, hbuf.shape[1]))
            state.rbuf = np.empty((rbuf.shape[0], width))
        state.hbuf[width - keep :] = hbuf[head : head + keep]
        state.rbuf[:, width - keep :] = rbuf[:, head : head + keep]
        head = width - keep
    head -= 1
    state.hbuf[head] = h_new
    state.rbuf[:, head] = r_new
    state.head = head
    state.r_norms = [r_norm, *state.r_norms[:keep]]


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
    head, ncol = state.head, len(state.r_norms)
    R = state.rbuf[:, head : head + ncol]
    tau = cfg.tikhonov if cfg.tikhonov is not None else 1e-10 * float((R * R).sum())
    alpha = compute_alpha(R, tau)
    alpha_l1 = float(np.abs(alpha).sum())
    candidate = aa_candidate(state.hbuf[head : head + ncol], alpha)

    best_stored = min(state.r_norms)
    accepted = False
    h_cand = r_cand = None
    if (cfg.alpha_cap is None or alpha_l1 <= cfg.alpha_cap) and np.isfinite(candidate).all():
        h_cand = np.asarray(apply(candidate), dtype=float)
        r_cand = h_cand - candidate
        norm_cand = math.sqrt(float(r_cand.dot(r_cand)))
        # NaN residuals fail this comparison, i.e. reject
        accepted = math.isfinite(norm_cand) and norm_cand <= cfg.safeguard_factor * best_stored

    if accepted:
        x_next, h_next, r_next, norm_next = candidate, h_cand, r_cand, norm_cand
        state.reject_streak = 0
    else:
        # plain step H(x^k), already evaluated; copied, as later pushes reuse its row
        x_next = state.hbuf[head].copy()
        if h_cand is not None and ncol == 1:
            # with one column alpha = [1] and the candidate is x_next bit for
            # bit, so H was just evaluated there
            h_next, r_next, norm_next = h_cand, r_cand, norm_cand
        else:
            h_next = np.asarray(apply(x_next), dtype=float)
            r_next = h_next - x_next
            norm_next = math.sqrt(float(r_next.dot(r_next)))
        state.reject_streak += 1
        if state.reject_streak >= cfg.restart_after_rejects:
            state.r_norms = []
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

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
from typing import Callable, Sequence

import numpy as np

from . import _kernels
from ._kernels import C_INT_MAX, address
from .linalg import all_finite

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
    memory : history depth, an integer m >= 1; up to m+1 residual columns are kept.
    tikhonov : finite absolute ridge weight tau for the alpha solve, or None to use
        the scale-aware default 1e-10 * ||R||_F^2 each iteration.
    safeguard_factor : finite acceptance slack theta >= 1; the candidate is accepted
        iff its residual norm is <= theta * (smallest stored residual norm).
    restart_after_rejects : consecutive rejections that trigger a history
        restart from the current iterate, an integer >= 1.
    """

    memory: int = 10
    tikhonov: float | None = None
    safeguard_factor: float = 1.0
    restart_after_rejects: int = 5

    def __post_init__(self):
        # negated comparisons, so NaN fails each check
        if not (isinstance(self.memory, (int, np.integer)) and self.memory >= 1):
            raise ValueError("AaConfig: memory must be an integer >= 1")
        if self.tikhonov is not None and not 0 <= self.tikhonov < math.inf:
            raise ValueError("AaConfig: tikhonov must be finite and nonnegative")
        if not 1.0 <= self.safeguard_factor < math.inf:
            raise ValueError("AaConfig: safeguard_factor must be finite and >= 1")
        if not (isinstance(self.restart_after_rejects, (int, np.integer)) and self.restart_after_rejects >= 1):
            raise ValueError("AaConfig: restart_after_rejects must be an integer >= 1")


@dataclass
class AaState:
    """Iteration state: the newest-first history and the run of rejections.

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

    The state also holds the scratch that the compiled weight solve and
    candidate write, with the addresses of the buffers and the scratch,
    taken once for each pair of buffers (see ``_Scratch``).
    """

    hbuf: np.ndarray
    rbuf: np.ndarray
    r_norms: list[float]
    head: int = 0
    reject_streak: int = 0
    _scratch: _Scratch = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._scratch = _Scratch(self.hbuf, self.rbuf)

    def _bound(self) -> _Scratch:
        """The scratch of the current buffers, taken anew when they were replaced."""
        scratch = self._scratch
        if scratch.hbuf is not self.hbuf or scratch.rbuf is not self.rbuf:
            scratch = self._scratch = _Scratch(self.hbuf, self.rbuf)
        return scratch

    @property
    def h_hist(self) -> np.ndarray:
        return _read_only(self.hbuf[self.head : self.head + len(self.r_norms)])

    @property
    def r_hist(self) -> np.ndarray:
        return _read_only(self.rbuf[:, self.head : self.head + len(self.r_norms)].T)


class _Scratch:
    """The history buffers, the kernels' output arrays, and the addresses of all four.

    Reading an array's address through numpy takes microseconds (about
    2.5 us on a 2-core x86 host), so the engine takes them here, once for
    each pair of buffers: at ``init_state`` and after ``_push`` grows them.
    ``alpha`` has room for a weight per buffer entry and ``candidate`` for
    one evaluation; ``alpha_l1`` is the l1 norm of the weights of the last
    candidate formed here.  Holding the buffers keeps alive all that the
    addresses point at.
    """

    __slots__ = ("hbuf", "rbuf", "alpha", "candidate", "h_at", "r_at", "alpha_at", "candidate_at", "alpha_l1")

    def __init__(self, hbuf: np.ndarray, rbuf: np.ndarray):
        width, n = hbuf.shape
        for buf, shape in ((hbuf, (width, n)), (rbuf, (n, width))):
            if buf.dtype != np.float64 or buf.shape != shape or not (buf.flags.c_contiguous and buf.flags.aligned):
                raise ValueError("AaState: hbuf and rbuf must be C-ordered float arrays of shapes (w, n) and (n, w)")
        self.hbuf, self.rbuf = hbuf, rbuf
        self.alpha, self.candidate = np.empty(width), np.empty(n)
        self.h_at, self.r_at, self.alpha_at, self.candidate_at = map(address, (hbuf, rbuf, self.alpha, self.candidate))
        self.alpha_l1 = math.nan


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
    configured memory.  The compiled weight solve loads first, so a missing
    compiler fails before H is evaluated, not at the first two-column solve.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 1:
        raise ValueError("init_state: x0 must be a vector, got shape %s" % (x0.shape,))
    _kernels.library()
    h0 = np.asarray(apply(x0), dtype=float)
    r0 = h0 - x0
    return AaState(hbuf=h0[None, :].copy(), rbuf=r0[:, None].copy(), r_norms=[math.sqrt(float(r0.dot(r0)))])


_NONFINITE_R = "compute_alpha: residual matrix contains non-finite entries"
# aaopt_aa_weights's negative returns
_WEIGHT_FAILURES = {
    -1: (ValueError, _NONFINITE_R),
    -2: (np.linalg.LinAlgError, "SVD did not converge in Linear Least Squares"),
    -3: (MemoryError, "compute_alpha: no memory for the weight solve"),
    -4: (ValueError, "compute_alpha: the automatic tau 1e-10*||R||_F^2 overflows"),
    -5: (np.linalg.LinAlgError, "compute_alpha: weight solve is singular"),
}
# the tau that asks aaopt_aa_weights for the automatic one
_AUTOMATIC_TAU = -1.0


def compute_alpha(R: np.ndarray | AaState, tau: float | None = None) -> np.ndarray:
    """Solve min ||R a||^2 + tau*||a||^2 subject to sum(a) = 1.

    Columns of R are residuals ordered newest first; an ``AaState`` in place
    of R stands for its stored residuals.  ``tau=None`` is the automatic
    1e-10 * ||R||_F^2, bit for bit ``1e-10 * float((R*R).sum())``.  The
    constraint is eliminated by the difference parametrization a = e_0 +
    C theta (which enforces the sum exactly), the resulting unconstrained
    least-squares problem is solved with an SVD, and the weights are
    renormalized before being returned.  With tau = 0 there is no ridge: a
    rank-deficient system gets LAPACK's minimum-norm solution.

    The solve runs in C (``aaopt_aa_weights`` in ``_kernels.c``), which
    reads R in place, sums the automatic tau's squares in numpy's pairwise
    order, writes the system exactly as numpy's SVD least-squares solver
    would, calls LAPACK dgelsd through scipy's Cython API, and divides the
    weights by their sum as numpy sums them.  So the system may have at most
    2**31 - 1 rows.  The first solve with two or more columns loads the
    compiled library (see ``aaopt._kernels``).
    """
    if isinstance(R, AaState):
        scratch, head = R._bound(), R.head
        R = scratch.rbuf[:, head : head + len(R.r_norms)]
    else:
        scratch, R = None, np.asarray(R, dtype=float)
    if R.ndim != 2 or R.shape[1] < 1:
        raise ValueError("compute_alpha: R must have at least one column")
    n, ncol = R.shape
    # negated, so NaN fails too
    bad_tau = tau is not None and not 0.0 <= tau < math.inf
    if ncol == 1 or bad_tau:
        # no C call here, so R is scanned in Python; as in C, its check comes first
        if not np.isfinite(R).all():
            raise ValueError(_NONFINITE_R)
        if bad_tau:
            raise ValueError("compute_alpha: tau must be finite and nonnegative")
        return np.ones(1)
    # the rows and columns of the system; the automatic tau counts as a ridge
    if max(n if tau == 0.0 else n + ncol, ncol) > C_INT_MAX:
        raise ValueError("compute_alpha: R of shape %s makes a system larger than LAPACK takes" % (R.shape,))

    if scratch is None:
        # an aligned R has whole-element strides in every dimension longer than
        # one; a copy keeps R's memory order, the order of the automatic tau's sum
        R = R if R.flags.aligned else R.copy(order="K")
        out = np.empty(ncol)
        at, out_at = address(R), address(out)
    else:
        out, at, out_at = scratch.alpha, scratch.r_at + 8 * head, scratch.alpha_at
    rank = _kernels.library().aaopt_aa_weights(
        n, ncol, at, R.strides[0] // 8, R.strides[1] // 8, _AUTOMATIC_TAU if tau is None else tau, out_at)
    if rank < 0:
        error, message = _WEIGHT_FAILURES[rank]
        raise error(message)

    alpha = out if scratch is None else out[:ncol].copy()
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
    # a non-finite weight makes the excess inf or NaN, which fails this test too
    if not abs(excess) <= 1e-12:
        raise np.linalg.LinAlgError("compute_alpha: weights failed the sum-to-one contract")
    return alpha


def aa_candidate(h_values: Sequence[np.ndarray] | np.ndarray | AaState, alpha: np.ndarray) -> np.ndarray:
    """Affine combination sum_j alpha_j h_values[j] (newest-first pairing).

    ``h_values`` is a sequence of evaluations, their (ncol x n) stack in any
    memory layout, or an ``AaState``, which stands for its stored
    evaluations.  The weighted rows are added one at a time, in index order,
    by ``aaopt_aa_combine`` in ``_kernels.c``.
    """
    alpha = np.asarray(alpha, dtype=float)
    if isinstance(h_values, AaState):
        scratch, head = h_values._bound(), h_values.head
        H = scratch.hbuf[head : head + len(h_values.r_norms)]
    else:
        scratch, H = None, np.asarray(h_values, dtype=float)
    if H.ndim != 2:
        raise ValueError("aa_candidate: expected evaluations or their stack, got shape %s" % (H.shape,))
    if alpha.shape != H.shape[:1]:
        raise ValueError("aa_candidate: %d stored evaluations but weights of shape %s" % (H.shape[0], alpha.shape))
    ncol, n = H.shape
    if scratch is None:
        # aligned, so every stride is whole elements; the weights also in C order
        H, alpha = np.require(H, requirements="A"), np.require(alpha, requirements="CA")
        out = np.empty(n)
        at, alpha_at, out_at = address(H), address(alpha), address(out)
    else:
        scratch.alpha[:ncol] = alpha
        out = scratch.candidate
        at, alpha_at, out_at = scratch.h_at + 8 * n * head, scratch.alpha_at, scratch.candidate_at
    alpha_l1 = _kernels.library().aaopt_aa_combine(
        ncol, n, at, H.strides[0] // 8, H.strides[1] // 8, alpha_at, out_at)
    if scratch is None:
        return out
    scratch.alpha_l1 = alpha_l1
    return out.copy()


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
    when it is non-finite or when its residual norm fails the safeguard test;
    ``restart_after_rejects`` consecutive rejections clear the history to the
    current iterate.
    """
    head, ncol = state.head, len(state.r_norms)
    alpha = compute_alpha(state, cfg.tikhonov)
    candidate = aa_candidate(state, alpha)
    alpha_l1 = state._scratch.alpha_l1

    best_stored = min(state.r_norms)
    accepted = False
    h_cand = r_cand = None
    if all_finite(candidate):
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
    diag = AaDiagnostics(alpha=alpha, alpha_l1=alpha_l1, accepted=accepted, residual_norm=norm_next)
    return x_next, diag


def fit_linear_rate(residual_norms: Sequence[float], tail_fraction: float = 0.3) -> RateFit:
    """Least-squares linear rate from the tail of a residual-norm sequence.

    Fits log ||r_k|| ~ a + k*log(gamma) over the last ``tail_fraction`` of the
    sequence and reports gamma = exp(slope) with the r^2 of the fit.  Exact
    zeros and non-finite norms end the usable range (only points before the
    first of them are used); fewer than 5 usable tail points yields
    ``defined=False``.
    """
    r = np.asarray(residual_norms, dtype=float)
    if not (0 < tail_fraction <= 1):
        raise ValueError("fit_linear_rate: tail_fraction must be in (0, 1]")
    if np.any(r < 0):
        raise ValueError("fit_linear_rate: residual norms must be nonnegative")
    # negated, so NaN ends the range too
    unusable = np.flatnonzero(~((r > 0.0) & (r < math.inf)))
    if unusable.size:
        r = r[: unusable[0]]
    n = r.shape[0]
    n_tail = int(math.ceil(tail_fraction * n))
    if n_tail < 5:
        return RateFit(math.nan, math.nan, defined=False)
    # the least-squares line about the means of k and log r, in closed form:
    # two arrays of the tail's length, worked in place
    dk = np.arange(n_tail, dtype=float)
    dk -= (n_tail - 1) / 2.0
    dlog = np.log(r[n - n_tail :])
    dlog -= dlog.mean()
    slope = float(dk @ dlog) / float(dk @ dk)
    ss_tot = float(dlog @ dlog)
    dk *= slope
    dlog -= dk  # the fit's residuals
    ss_res = float(dlog @ dlog)
    if ss_tot <= 1e-30:
        r2 = 1.0 if ss_res <= 1e-20 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return RateFit(float(np.exp(slope)), r2, defined=True)

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
from ._kernels import C_INT_MAX

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


@dataclass(frozen=True)
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


# the slots of AaState.ints and AaState.reals, as _kernels.c numbers them
_N, _WIDTH, _HEAD, _NCOL, _MEMORY, _FINITE = range(6)
_TAU, _THETA, _NORM = range(3)
# the tau that asks aaopt_aa_weights for the automatic one
_AUTOMATIC_TAU = -1.0
_WRONG_SHAPE = "%s: H returned an array of shape %s, expected %s"
_BAD_LAYOUT = "AaState: the history arrays do not have the layout that init_state makes"


@dataclass
class AaState:
    """Iteration state: the newest-first history and the run of rejections.

    The history sits in three buffers with room for ``width`` entries, which
    the first step grows to 2*(memory+1).  The ncol stored entries occupy the
    window [head, head + ncol), newest first:

    - ``hbuf`` is (width x n), C-ordered; row head + j is H(x^(k-j)).
    - ``rbuf`` is (n x width), C-ordered; column head + j is
      r^j = H(x^(k-j)) - x^(k-j).  The window's columns are the weight
      solve's residual matrix R, which the solve reads in place.
    - ``norms[head + j]`` caches the norm of r^j.

    ``ints`` holds the scalars that the compiled kernels read and write: n,
    width, head, ncol, memory, and whether the last candidate was finite.
    ``reals`` holds tau (negative for the automatic one), the safeguard
    factor theta and the newest residual norm.  A new entry goes in just
    before the window, so a step copies no stored entry; only when the
    window reaches index 0 are the kept entries moved to the end of the
    buffers.  ``r_norms`` (a list), ``h_hist`` and ``r_hist`` read the
    state; the last two are read-only (ncol x n) views of the stored
    evaluations and residuals, newest first.

    The kernels are bound to the buffers once (see ``_Bound``), so later
    steps take no address and convert no argument.  A step grows the
    buffers, and so rebinds, only when its memory needs wider ones.
    """

    hbuf: np.ndarray
    rbuf: np.ndarray
    norms: np.ndarray
    ints: np.ndarray
    reals: np.ndarray
    reject_streak: int = 0
    _bound: _Bound | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def r_norms(self) -> list[float]:
        head = self.ints.item(_HEAD)
        return self.norms[head : head + self.ints.item(_NCOL)].tolist()

    @property
    def h_hist(self) -> np.ndarray:
        head = self.ints.item(_HEAD)
        return _read_only(self.hbuf[head : head + self.ints.item(_NCOL)])

    @property
    def r_hist(self) -> np.ndarray:
        head = self.ints.item(_HEAD)
        return _read_only(self.rbuf[:, head : head + self.ints.item(_NCOL)].T)


class _Bound:
    """The kernels of a step, bound to a state's buffers and to the step's scratch.

    ``alpha`` and ``candidate`` receive the weights and the candidate,
    ``h_in`` a value of H (see ``take``) and ``r`` its residual.  Reading an
    array's address through numpy takes about 2.5 us on a 2-core x86 host,
    and ctypes converts each argument of a call anew, so both happen here,
    once for each allocation of the buffers.  ``arrays`` keeps alive all
    that the bound calls point at.  ``given`` is the weights that
    ``compute_alpha`` last returned for the current window, None until then,
    and ``alpha_l1`` their l1 norm once ``aa_candidate`` has used them.
    """

    __slots__ = ("arrays", "alpha", "candidate", "h_in", "weights", "combine", "judge", "plain", "keep",
                 "given", "alpha_l1")

    def __init__(self, state: AaState):
        n, width = state.ints.item(_N), state.ints.item(_WIDTH)
        self.alpha, self.candidate, self.h_in, r = np.empty(width), np.empty(n), np.empty(n), np.empty(n)
        self.arrays = (state.ints, state.reals, state.hbuf, state.rbuf, state.norms, self.alpha,
                       self.candidate, self.h_in, r)
        ints, reals, hbuf, rbuf, norms, alpha, candidate, h_in, r = map(_kernels.address, self.arrays)
        self.weights = _kernels.bound("aaopt_aa_weights", ints, reals, rbuf, alpha)
        self.combine = _kernels.bound("aaopt_aa_combine", ints, hbuf, alpha, candidate)
        # aaopt_aa_push's modes: judge the candidate, push the plain step, keep the judged entry
        self.judge, self.plain, self.keep = (
            _kernels.bound("aaopt_aa_push", ints, reals, hbuf, rbuf, norms, h_in, candidate, r, mode)
            for mode in range(3))
        self.given, self.alpha_l1 = None, math.nan

    def take(self, value) -> None:
        """Copy a value of H into ``h_in``; one of another shape is refused, not broadcast."""
        h = np.asarray(value, dtype=float)
        if h.shape != self.h_in.shape:
            raise ValueError(_WRONG_SHAPE % ("safeguarded_step", h.shape, self.h_in.shape))
        self.h_in[...] = h


def _check_layout(state: AaState) -> None:
    """Refuse a state whose arrays lack the layout that ``init_state`` makes, which the kernels trust."""
    ints = state.ints
    if not (ints.dtype == np.int64 and ints.shape == (6,) and ints.flags.c_contiguous and ints.flags.writeable):
        raise ValueError(_BAD_LAYOUT)
    n, width, head, ncol = (ints.item(i) for i in (_N, _WIDTH, _HEAD, _NCOL))
    layout = ((state.hbuf, (width, n)), (state.rbuf, (n, width)), (state.norms, (width,)), (state.reals, (3,)))
    if not (0 <= head and 1 <= ncol and head + ncol <= width) or any(
            a.dtype != np.float64 or a.shape != shape or not (a.flags.c_contiguous and a.flags.aligned)
            or not a.flags.writeable for a, shape in layout):
        raise ValueError(_BAD_LAYOUT)


def _bind(state: AaState) -> _Bound:
    """Bind the kernels to the state's buffers as they are."""
    _check_layout(state)
    state._bound = _Bound(state)
    return state._bound


def _configure(state: AaState, memory: int, theta: float) -> _Bound:
    """Write a new memory and theta into the state, first growing its buffers to 2*(memory+1) entries if narrower."""
    if state._bound is None:
        _check_layout(state)
    ints = state.ints
    n, width, head, ncol = (ints.item(i) for i in (_N, _WIDTH, _HEAD, _NCOL))
    want = 2 * (memory + 1)
    if width < want:
        # a weight solve has at most n + memory + 1 rows
        if n + memory + 1 > C_INT_MAX:
            raise ValueError("safeguarded_step: vectors of length %d make a weight system larger than LAPACK takes" % n)
        # the stored entries go to the end of the new buffers
        start = want - ncol
        hbuf, rbuf, norms = np.empty((want, n)), np.empty((n, want)), np.empty(want)
        hbuf[start:] = state.hbuf[head : head + ncol]
        rbuf[:, start:] = state.rbuf[:, head : head + ncol]
        norms[start:] = state.norms[head : head + ncol]
        state.hbuf, state.rbuf, state.norms, state._bound = hbuf, rbuf, norms, None
        ints[_WIDTH], ints[_HEAD] = want, start
    ints[_MEMORY], state.reals[_THETA] = memory, theta
    return state._bound or _bind(state)


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
    if h0.shape != x0.shape:
        raise ValueError(_WRONG_SHAPE % ("init_state", h0.shape, x0.shape))
    r0 = h0 - x0
    norm = math.sqrt(float(r0.dot(r0)))
    return AaState(hbuf=h0[None, :].copy(), rbuf=r0[:, None].copy(), norms=np.array([norm]),
                   ints=np.array([x0.size, 1, 0, 1, 0, 1], dtype=np.int64),
                   reals=np.array([_AUTOMATIC_TAU, 1.0, norm]))


_NONFINITE_R = "compute_alpha: residual matrix contains non-finite entries"
# the negative returns of aaopt_aa_weights
_WEIGHT_FAILURES = {
    -1: (ValueError, _NONFINITE_R),
    -2: (np.linalg.LinAlgError, "SVD did not converge in Linear Least Squares"),
    -3: (MemoryError, "compute_alpha: no memory for the weight solve"),
    -4: (ValueError, "compute_alpha: the automatic tau 1e-10*||R||_F^2 overflows"),
    -5: (np.linalg.LinAlgError, "compute_alpha: weight solve is singular"),
    # math.fsum's own errors
    -6: (OverflowError, "intermediate overflow in fsum"),
    -7: (ValueError, "-inf + inf in fsum"),
    -8: (np.linalg.LinAlgError, "compute_alpha: weights failed the sum-to-one contract"),
}


def _check_weights(status: int) -> int:
    if status < 0:
        error, message = _WEIGHT_FAILURES[status]
        raise error(message)
    return status


def compute_alpha(state: AaState, tau: float | None = None) -> np.ndarray:
    """Solve min ||R a||^2 + tau*||a||^2 subject to sum(a) = 1.

    The columns of R are the state's stored residuals, newest first.  The
    weights come back read-only, and ``aa_candidate`` combines them until
    the window moves.  ``tau=None`` is the automatic 1e-10 * ||R||_F^2, bit
    for bit ``1e-10 * float((R*R).sum())`` of R in C order.  The constraint
    is eliminated by the difference parametrization a = e_0 + C theta
    (which enforces the sum exactly), the resulting unconstrained
    least-squares problem is solved with an SVD, and the weights are
    renormalized before being returned.  With tau = 0 there is no ridge: a
    rank-deficient system gets LAPACK's minimum-norm solution.

    The solve runs in C (``aaopt_aa_weights`` in ``_kernels.c``), which
    reads R in the state's buffer, writes the system exactly as numpy's SVD
    least-squares solver would, calls LAPACK dgelsd through scipy's Cython
    API, and divides the weights by their sum as numpy sums them.  An
    ill-conditioned solve can return weights so large that plain float
    summation no longer resolves the sum constraint (the safeguard rejects
    such candidates, but the weights it sees must still sum to one), so the
    kernel then moves the excess that ``math.fsum`` finds, ported to C, into
    the largest weight, and what is left into the smallest.  The kernels
    are bound to an unbound state here, as its buffers are.
    """
    bound = state._bound or _bind(state)
    # negated, so NaN fails too
    if tau is not None and not 0.0 <= tau < math.inf:
        # no C call here, so R is scanned in Python; as in C, its check comes first
        if not np.isfinite(state.r_hist).all():
            raise ValueError(_NONFINITE_R)
        raise ValueError("compute_alpha: tau must be finite and nonnegative")
    state.reals[_TAU] = _AUTOMATIC_TAU if tau is None else tau
    alpha = bound.given = bound.alpha[: _check_weights(bound.weights())].copy()
    return _read_only(alpha)


def aa_candidate(state: AaState) -> np.ndarray:
    """Affine combination sum_j alpha_j H^(k-j) of the state's stored evaluations.

    alpha is the weights that ``compute_alpha`` returned for the current
    window, read where the solve wrote them; a window whose weights were not
    solved is refused.  The weighted rows are added one at a time, in index
    order, by ``aaopt_aa_combine`` in ``_kernels.c``, which keeps the
    weights' l1 norm and whether the candidate is finite in the state for
    the engine.
    """
    bound = state._bound or _bind(state)
    if bound.given is None:
        raise ValueError("aa_candidate: the weights of the stored window were not solved; call compute_alpha first")
    bound.alpha_l1 = bound.combine()
    return bound.candidate.copy()


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
    current iterate.  H must return a vector of x's shape.  Everything but
    the evaluations of H runs in the kernels bound to the state: the
    residual, its norm, the safeguard and the push into the history run in
    ``aaopt_aa_push``.  The buffers grow, and the kernels are bound anew,
    only when ``cfg.memory`` needs wider buffers; a new memory or
    safeguard factor is written into the state.
    """
    bound, ints = state._bound, state.ints
    if bound is None or ints.item(_MEMORY) != cfg.memory or state.reals.item(_THETA) != cfg.safeguard_factor:
        bound = _configure(state, cfg.memory, cfg.safeguard_factor)
    ncol = ints.item(_NCOL)
    alpha = compute_alpha(state, cfg.tikhonov)
    candidate = aa_candidate(state)

    finite = ints.item(_FINITE)
    accepted = False
    if finite:
        bound.take(apply(candidate))
        accepted = bound.judge() == 1

    if accepted:
        x_next = candidate
        state.reject_streak = 0
    else:
        # plain step H(x^k), already evaluated; copied, as later pushes reuse its row
        x_next = state.hbuf[ints.item(_HEAD)].copy()
        if finite and ncol == 1:
            # with one column alpha = [1] and the candidate is x_next bit for
            # bit, so H was just evaluated there: the judged entry is pushed
            push = bound.keep
        else:
            bound.take(apply(x_next))
            push = bound.plain
        state.reject_streak += 1
        if state.reject_streak >= cfg.restart_after_rejects:
            ints[_NCOL] = 0
            state.reject_streak = 0
        push()
    bound.given = None  # the window moved
    diag = AaDiagnostics(alpha=alpha, alpha_l1=bound.alpha_l1, accepted=accepted,
                         residual_norm=state.reals.item(_NORM))
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

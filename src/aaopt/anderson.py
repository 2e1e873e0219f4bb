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


def _is_count(value) -> bool:
    """An integer >= 1.  A bool is an int to Python, and True would run as 1."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= 1


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
        if not _is_count(self.memory):
            raise ValueError("AaConfig: memory must be an integer >= 1")
        if self.tikhonov is not None and not 0 <= self.tikhonov < math.inf:
            raise ValueError("AaConfig: tikhonov must be finite and nonnegative")
        if not 1.0 <= self.safeguard_factor < math.inf:
            raise ValueError("AaConfig: safeguard_factor must be finite and >= 1")
        if not _is_count(self.restart_after_rejects):
            raise ValueError("AaConfig: restart_after_rejects must be an integer >= 1")


# the slots of AaState.ints and AaState.reals: the first six of ints and the
# first three of reals as _kernels.c numbers them, then those only Python uses
_N, _WIDTH, _HEAD, _NCOL, _MEMORY, _FINITE, _STREAK, _SOLVED = range(8)
_TAU, _THETA, _NORM, _L1 = range(4)
# the tau that asks aaopt_aa_weights for the automatic one
_AUTOMATIC_TAU = -1.0
_WRONG_SHAPE = "%s: H returned an array of shape %s, expected %s"
_BAD_LAYOUT = "AaState: the history arrays do not have the layout that init_state makes"


class AaState:
    """Iteration state for one ``AaConfig``: the newest-first history, its bound kernels, the rejections.

    ``init_state`` builds it.  The history sits in three buffers with room
    for ``width`` = 2*(memory+1) entries.  The ncol stored entries occupy the
    window [head, head + ncol), newest first:

    - ``hbuf`` is (width x n), C-ordered; row head + j is H(x^(k-j)).
    - ``rbuf`` is (n x width), C-ordered; column head + j is
      r^j = H(x^(k-j)) - x^(k-j).  The window's columns are the weight
      solve's residual matrix R, which the solve reads in place.
    - ``norms[head + j]`` caches the norm of r^j.

    ``ints`` holds the scalars that the compiled kernels read and write: n,
    width, head, ncol, memory, and whether the last candidate was finite;
    then the run of consecutive rejections (``reject_streak``) and whether
    the window's weights were solved.  ``reals`` holds tau (negative for
    the automatic one), the safeguard factor theta, the newest residual
    norm, and the l1 norm of the weights the last candidate used.  A new
    entry goes in just before the window, so a step copies no stored entry;
    only when the window reaches index 0 are the kept entries moved to the
    end of the buffers.  ``r_norms`` (a list), ``h_hist`` and ``r_hist``
    read the state; the last two are read-only (ncol x n) views of the
    stored evaluations and residuals, newest first.

    Building a state checks the layout that the kernels trust and binds
    them, once, to its arrays and to the step's scratch: ``_alpha`` and
    ``_candidate`` receive the weights and the candidate, ``_h_in`` a value
    of H and ``_r`` its residual.  Reading an array's address through numpy
    takes about 2.5 us on a 2-core x86 host, and ctypes converts each
    argument of a call anew, so no step does either.  The kernels would go
    on reading the arrays they were bound to, so a built state refuses to
    have any attribute set or deleted.  They trust what the arrays hold as
    well (a head or ncol out of range reads past the buffers), so the five
    arrays are handed out as read-only views; the engine writes ``ints``
    and ``reals`` through its own handles, ``_ints`` and ``_reals``.
    """

    __slots__ = ("hbuf", "rbuf", "norms", "ints", "reals", "_ints", "_reals", "_alpha", "_candidate", "_h_in",
                 "_r", "_weights", "_combine", "_judge", "_plain", "_keep", "cfg")

    def __init__(self, hbuf: np.ndarray, rbuf: np.ndarray, norms: np.ndarray, ints: np.ndarray,
                 reals: np.ndarray, cfg: AaConfig):
        _check_layout(hbuf, rbuf, norms, ints, reals, cfg)
        n, width = ints.item(_N), ints.item(_WIDTH)
        arrays = (hbuf, rbuf, norms, ints, reals)
        scratch = (np.empty(width), np.empty(n), np.empty(n), np.empty(n))
        hbuf, rbuf, norms, ints, reals, alpha, candidate, h_in, r = map(_kernels.address, arrays + scratch)
        calls = (_kernels.bound("aaopt_aa_weights", ints, reals, rbuf, alpha),
                 _kernels.bound("aaopt_aa_combine", ints, hbuf, alpha, candidate),
                 # aaopt_aa_push's modes: judge the candidate, push the plain step, keep the judged entry
                 *(_kernels.bound("aaopt_aa_push", ints, reals, hbuf, rbuf, norms, h_in, candidate, r, mode)
                   for mode in range(3)))
        views = tuple(_read_only(a.view()) for a in arrays)
        for name, value in zip(self.__slots__, (*views, *arrays[3:], *scratch, *calls, cfg), strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("AaState: its kernels are bound to the arrays it was built with, so %s cannot "
                             "change; build a new state with init_state" % name)

    def __delattr__(self, name):
        self.__setattr__(name, None)

    @property
    def reject_streak(self) -> int:
        return self.ints.item(_STREAK)

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

    def _take(self, value) -> None:
        """Copy a value of H into ``_h_in``; one of another shape is refused, not broadcast."""
        h = np.asarray(value, dtype=float)
        if h.shape != self._h_in.shape:
            raise ValueError(_WRONG_SHAPE % ("safeguarded_step", h.shape, self._h_in.shape))
        self._h_in[...] = h


def _check_layout(hbuf, rbuf, norms, ints, reals, cfg: AaConfig) -> None:
    """Refuse arrays that lack the layout that ``init_state`` makes for ``cfg``, which the kernels trust."""
    if not (ints.dtype == np.int64 and ints.shape == (8,) and ints.flags.c_contiguous and ints.flags.writeable):
        raise ValueError(_BAD_LAYOUT)
    n, width, head, ncol, memory = (ints.item(i) for i in (_N, _WIDTH, _HEAD, _NCOL, _MEMORY))
    layout = ((hbuf, (width, n)), (rbuf, (n, width)), (norms, (width,)), (reals, (4,)))
    # a push may move memory entries from the buffers' start to their end; 2*(memory+1) keeps them apart
    if not (0 <= head and 1 <= ncol and head + ncol <= width and memory == cfg.memory
            and 2 * (memory + 1) <= width) or any(
            a.dtype != np.float64 or a.shape != shape or not (a.flags.c_contiguous and a.flags.aligned)
            or not a.flags.writeable for a, shape in layout) or reals.item(_THETA) != cfg.safeguard_factor:
        raise ValueError(_BAD_LAYOUT)


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


def init_state(apply: Callable[[np.ndarray], np.ndarray], x0: np.ndarray, cfg: AaConfig) -> AaState:
    """Evaluate H(x0) once and build the state that runs ``cfg``.

    The buffers get their 2*(memory+1) entries here, H(x0) is stored as
    their last entry, and the kernels are bound to them.  Before H is
    evaluated, a vector too long for the weight solve is refused and the
    compiled kernels load, so a missing compiler fails here, not at the
    first two-column solve.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 1:
        raise ValueError("init_state: x0 must be a vector, got shape %s" % (x0.shape,))
    n, width = x0.size, 2 * (cfg.memory + 1)
    # a weight solve has at most n + memory + 1 rows
    if n + cfg.memory + 1 > C_INT_MAX:
        raise ValueError("init_state: vectors of length %d make a weight system larger than LAPACK takes" % n)
    _kernels.library()
    h0 = np.asarray(apply(x0), dtype=float)
    if h0.shape != x0.shape:
        raise ValueError(_WRONG_SHAPE % ("init_state", h0.shape, x0.shape))
    r0 = h0 - x0
    norm = math.sqrt(float(r0.dot(r0)))
    hbuf, rbuf, norms = np.empty((width, n)), np.empty((n, width)), np.empty(width)
    hbuf[-1], rbuf[:, -1], norms[-1] = h0, r0, norm
    return AaState(hbuf, rbuf, norms, ints=np.array([n, width, width - 1, 1, cfg.memory, 1, 0, 0], dtype=np.int64),
                   reals=np.array([_AUTOMATIC_TAU, cfg.safeguard_factor, norm, math.nan]), cfg=cfg)


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
    the largest weight, and what is left into the smallest.
    """
    # negated, so NaN fails too
    if tau is not None and not 0.0 <= tau < math.inf:
        # no C call here, so R is scanned in Python; as in C, its check comes first
        if not np.isfinite(state.r_hist).all():
            raise ValueError(_NONFINITE_R)
        raise ValueError("compute_alpha: tau must be finite and nonnegative")
    state._reals[_TAU] = _AUTOMATIC_TAU if tau is None else tau
    status = state._weights()
    state._ints[_SOLVED] = status > 0
    return _read_only(state._alpha[: _check_weights(status)].copy())


def aa_candidate(state: AaState) -> np.ndarray:
    """Affine combination sum_j alpha_j H^(k-j) of the state's stored evaluations.

    alpha is the weights that ``compute_alpha`` returned for the current
    window, read where the solve wrote them; a window whose weights were not
    solved is refused.  The weighted rows are added one at a time, in index
    order, by ``aaopt_aa_combine`` in ``_kernels.c``, which keeps the
    weights' l1 norm and whether the candidate is finite in the state for
    the engine.
    """
    if not state.ints.item(_SOLVED):
        raise ValueError("aa_candidate: the weights of the stored window were not solved; call compute_alpha first")
    state._reals[_L1] = state._combine()
    return state._candidate.copy()


def safeguarded_step(
    apply: Callable[[np.ndarray], np.ndarray],
    state: AaState,
) -> tuple[np.ndarray, AaDiagnostics]:
    """Advance one iteration of the state's config, mutating ``state`` in place.

    Returns the next iterate and the step diagnostics.  The candidate is
    rejected (falling back to the plain step H(x^k), which is already stored)
    when it is non-finite or when its residual norm fails the safeguard test;
    ``restart_after_rejects`` consecutive rejections clear the history to the
    current iterate.  H must return a vector of x's shape.  Everything but
    the evaluations of H runs in the kernels that ``init_state`` bound to
    the state: the residual, its norm, the safeguard and the push into the
    history run in ``aaopt_aa_push``.

    The step's last evaluation of H is always at the iterate it returns: at
    the candidate when it is accepted, and at the plain step when it is
    rejected (with one column the candidate is the plain step bit for bit,
    and is not evaluated again).  ``init_state``'s one evaluation is at x0.
    So whatever H leaves behind of its last call, such as the lasso and svm
    maps' ``readout``, belongs to the returned iterate; the run loop relies
    on this, and ``test_harness.py`` checks it against the objective.
    """
    ints, cfg = state._ints, state.cfg
    ncol = ints.item(_NCOL)
    alpha = compute_alpha(state, cfg.tikhonov)
    candidate = aa_candidate(state)

    finite = ints.item(_FINITE)
    accepted = False
    if finite:
        state._take(apply(candidate))
        accepted = state._judge() == 1

    if accepted:
        x_next = candidate
        ints[_STREAK] = 0
    else:
        # plain step H(x^k), already evaluated; copied, as later pushes reuse its row
        x_next = state.hbuf[ints.item(_HEAD)].copy()
        if finite and ncol == 1:
            # with one column alpha = [1] and the candidate is x_next bit for
            # bit, so H was just evaluated there: the judged entry is pushed
            push = state._keep
        else:
            state._take(apply(x_next))
            push = state._plain
        streak = ints.item(_STREAK) + 1
        if streak >= cfg.restart_after_rejects:
            ints[_NCOL] = streak = 0
        ints[_STREAK] = streak
        push()
    ints[_SOLVED] = 0  # the window moved
    reals = state.reals
    diag = AaDiagnostics(alpha=alpha, alpha_l1=reals.item(_L1), accepted=accepted, residual_norm=reals.item(_NORM))
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

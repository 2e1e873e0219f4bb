"""Fixed-point maps for nonsmooth first-order algorithms.

Each step function (for pga_step and pcd_sweep, the map each builds)
implements one application x -> H(x) of the underlying iteration, so any of
them can be driven plainly or through the Anderson engine.  A prox callable
is built for its map's step beta: ``prox(v)`` = argmin g(y) + ||y - v||^2 /
(2 beta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.sparse import issparse

from . import _kernels
from ._kernels import C_INT_MAX, address
from .linalg import all_finite
from .problems import phi_deriv
from .prox import BoxBounds, soft_threshold

__all__ = [
    "FixedPointOperator",
    "pga_step",
    "pcd_sweep",
    "drs_parts",
    "admm_step",
    "irl1_step",
    "irl1_beta_window",
]

Prox = Callable[[np.ndarray], np.ndarray]
Grad = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class FixedPointOperator:
    """A fixed-point map together with its run-time diagnostics.

    ``apply`` must be deterministic.  ``monitor`` maps an iterate to the
    vector whose sign/activity pattern identifies the active manifold
    (defaults to the iterate itself).  ``objective`` takes a block of monitor
    vectors, one per row, and returns the merit at each row's iterate, one
    value per row.  ``readout``, where the map has one (``pga_step`` and
    ``pcd_sweep``), is the array that every call of ``apply`` at x
    overwrites with ||H(x) - x|| and the objective at x; the run loop reads
    it in place of ``objective`` and of the residual it would form.
    """

    dimension: int
    apply: Callable[[np.ndarray], np.ndarray]
    objective: Callable[[np.ndarray], np.ndarray]
    monitor: Callable[[np.ndarray], np.ndarray] | None = None
    readout: np.ndarray | None = None

    def monitor_vector(self, x: np.ndarray) -> np.ndarray:
        return x if self.monitor is None else self.monitor(x)


def _require_finite(v: np.ndarray, what: str) -> np.ndarray:
    if not all_finite(v):
        raise FloatingPointError("%s is non-finite" % what)
    return v


def _checked_csr(M, what: str):
    """A new CSR on M's arrays, with float data, checked in full: scipy builds a CSR
    without checking its column indices or that indptr does not decrease, and C
    indexes with both.  ``what`` names M in the error."""
    try:
        M = type(M)((M.data.astype(float, copy=False), M.indices, M.indptr), shape=M.shape)
        M.check_format(full_check=True)
    except ValueError as exc:
        raise ValueError("%s is not a valid CSR matrix: %s" % (what, exc)) from None
    return M


def _csr_arrays(M) -> list[np.ndarray]:
    """The CSR M's indptr and indices as int64 and its data, each contiguous, for C."""
    return [np.ascontiguousarray(M.indptr, dtype=np.int64), np.ascontiguousarray(M.indices, dtype=np.int64),
            np.ascontiguousarray(M.data)]


def pga_step(A, y, lam: float, beta: float) -> Callable[[np.ndarray], np.ndarray]:
    """The lasso's proximal-gradient map, built once for many calls.

    For f(x) = 0.5*||A x - y||^2 and g = lam*||.||_1, with A an m x n dense
    array or CSR matrix (m, n >= 1) and y of length m, the returned
    ``step(x)`` is H(x) = soft_threshold(x - beta*A.T(A x - y), beta*lam).
    It does not modify ``x``, and raises FloatingPointError if the gradient
    A.T(A x - y) has a NaN or infinite entry.

    One C call (``_kernels.c``) forms H(x) bit for bit as numpy and scipy
    form A.dot(x) - y, A.T.dot(r), x - beta*g and ``prox.soft_threshold``.
    A dense A makes its products with the BLAS dgemv of scipy's Cython API,
    or with its ddot where numpy would, for a product with one output entry,
    so m and n are at most 2**31 - 1; a dense A that is not C-ordered and
    aligned is used as a C-ordered copy, whose bits every layout then gets.
    A CSR A is checked in full first, and its products add their terms in
    scipy's csr_matvec order, by A and by an A.T built once as CSR.  gcc
    compiles the C source on first use (see ``aaopt._kernels``), which
    ``pga_step`` itself makes happen.

    The same call writes the map's ``readout``, a read-only array of two
    entries: ||H(x) - x||, bit for bit numpy's sqrt of d.dot(d) for
    d = H(x) - x, and the objective f(x) = 0.5*||A x - y||^2 + lam*||x||_1,
    from the A x - y that H forms.  Each call overwrites it.

    The first call binds the compiled call: it allocates the buffers the
    map keeps, one for x (which holds H(x) - x after a call), one for
    A x - y and one for H(x), and converts every argument to ctypes once.
    Each call then copies x into its buffer, makes one call and returns a
    copy of the result buffer, so a result never shares memory with the
    map.  Those buffers and the readout make the map not reentrant: two
    threads must not call the same map at once.
    """
    if not beta > 0:  # negated, so NaN fails too
        raise ValueError("pga_step: beta must be positive")
    if not lam >= 0:
        raise ValueError("pga_step: lam must be nonnegative")
    _kernels.library()  # built or loaded now, so a missing gcc fails here, not at a step
    sparse = issparse(A)
    A = A.tocsr() if sparse else np.asarray(A)
    m, n = A.shape
    if not m or not n:
        raise ValueError("pga_step: A has shape %s, with no rows or no columns" % (A.shape,))
    y = np.require(y, float, "CA")
    if y.shape != (m,):
        raise ValueError("pga_step: y has shape %s, expected (%d,)" % (y.shape, m))
    if sparse:
        A = _checked_csr(A, "pga_step: A")
        # A.T as CSR, built once; each row's terms come in A's row order, as A.T.dot sums them
        arrays = _csr_arrays(A) + _csr_arrays(A.T.tocsr())
    else:
        if max(m, n) > C_INT_MAX:
            raise ValueError("pga_step: A has shape %s, larger than BLAS takes" % (A.shape,))
        A = np.require(A, float, "CA")
        arrays = [A]
    readout = _readout()
    bound = None

    def bind():
        x_buf, r_buf, out = np.empty(n), np.empty(m), np.empty(n)
        name = "aaopt_pga_csr" if sparse else "aaopt_pga_dense"
        call = _kernels.bound(name, m, n, *(address(a) for a in arrays), address(y), float(beta),
                              float(lam), address(x_buf), address(r_buf), address(out), address(readout))
        return call, x_buf, out, r_buf

    def step(x: np.ndarray) -> np.ndarray:
        nonlocal bound
        x = np.asarray(x, dtype=float)
        if x.shape != (n,):
            raise ValueError("pga_step: x has shape %s, expected (%d,)" % (x.shape, n))
        if bound is None:
            bound = bind()
        call, x_buf, out, _ = bound
        x_buf[:] = x
        if call():
            raise FloatingPointError("pga_step: gradient is non-finite")
        return out.copy()

    step.readout = readout
    return step


def _readout() -> np.ndarray:
    """A map's readout before its first call: two NaNs, read-only to Python, written by C."""
    readout = np.full(2, math.nan)
    readout.flags.writeable = False
    return readout


def _per_row(value, m: int, what: str) -> np.ndarray:
    """A scalar or a length-m vector as a new float64 array of length m."""
    value = np.asarray(value, dtype=float)
    if value.ndim and value.shape != (m,):
        raise ValueError("pcd_sweep: %s has shape %s, expected (%d,)" % (what, value.shape, m))
    return np.full(m, value)


def pcd_sweep(Z, q, box: BoxBounds, beta: float) -> Callable[[np.ndarray], np.ndarray]:
    """One cyclic sweep of proximal coordinate descent, built once for many calls.

    The problem is f(x) = 0.5*||Z.T x||^2 + q.T x on the box
    lower <= x <= upper, with Z an m x n dense array or CSR matrix (one row
    per coordinate), q a scalar or a length-m vector, and ``box`` the
    bounds, each a scalar or a length-m vector, already checked by
    ``BoxBounds``.  The returned ``sweep(x)`` updates coordinate i to
    clip(x_i - beta*(z_i.u + q_i), lower_i, upper_i) for i = 0..m-1, each
    against the coordinates already updated, while keeping u = Z.T x current.
    It does not modify ``x``.

    numpy forms u = Z.T x once per sweep; the loop over the rows runs in C
    (``_kernels.c``), with the same IEEE operations in the same order as the
    Python loop it replaced; its row dots and the readout's call the BLAS
    ddot of scipy's Cython API, in chunks that fit its C int length, as
    numpy's dot does.  A row of Z may still hold at most 2**31 - 1 entries,
    a limit from before the chunks.  gcc compiles the C source on first use
    into the package's ``__pycache__``, or into ``~/.cache/aaopt`` where the
    package cannot be written, and later runs find it there (see ``aaopt._kernels``).  A CSR Z is checked in full
    first.  A dense Z that is not C-ordered and aligned is swept as a
    C-ordered copy: the bits of numpy's Z.T x and of a BLAS dot at a stride
    other than one depend on the layout, and the copy gives every layout the
    C layout's.

    The same call writes the sweep's ``readout``, a read-only array of two
    entries: ||H(x) - x||, bit for bit numpy's sqrt of d.dot(d) for
    d = H(x) - x, and the objective f(x) = 0.5*||Z.T x||^2 + q.T x, from
    the u the sweep starts with.  Each sweep overwrites it.

    The first sweep binds the compiled call: it allocates the buffers the
    sweep keeps, one for x (which holds H(x) - x after a sweep), one for the
    iterate the sweep updates, one for u and, for a CSR Z, one to gather a
    row's entries of u, and converts every argument to ctypes once.  Each
    sweep then copies x and Z.T x into those buffers, makes one call and
    returns a copy of the iterate buffer, so a result never shares memory
    with the sweep.  Those buffers and the readout make a sweep not
    reentrant: two threads must not call the same sweep at once.
    """
    if not beta > 0:
        raise ValueError("pcd_sweep: beta must be positive")
    _kernels.library()  # built or loaded now, so a missing gcc fails here, not at a sweep
    sparse = issparse(Z)
    Z = Z.tocsr() if sparse else np.asarray(Z)
    m, n = Z.shape
    longest = (int(np.diff(Z.indptr).max()) if m else 0) if sparse else n  # before anything copies Z
    if longest > C_INT_MAX:
        raise ValueError("pcd_sweep: a row of Z has %d entries, more than BLAS takes" % longest)
    if sparse:
        Z = _checked_csr(Z, "pcd_sweep: Z")
        indptr, indices, data = _csr_arrays(Z)
        # Z.T as CSR, built once, so each sweep's u costs one product
        Zt = Z.T.tocsr()
    else:
        # aligned and in C order: the row dots then read Z with stride 1, and
        # numpy's Z.T x, whose bits depend on the layout, is the C layout's
        Z = np.require(Z, float, "CA")
        Zt = Z.T
    rows = (_per_row(q, m, "q"), _per_row(box.lower, m, "lower"), _per_row(box.upper, m, "upper"))
    readout = _readout()
    bound = None

    def bind():
        x_buf, u_buf, out = np.empty(m), np.empty(n), np.empty(m)
        if sparse:
            gather = np.empty(max(longest, 1))
            head = ("aaopt_pcd_csr", m, n, address(indptr), address(indices), address(data), address(gather))
        else:
            gather = None
            head = ("aaopt_pcd_dense", m, n, address(Z))
        call = _kernels.bound(*head, *(address(row) for row in rows), float(beta),
                              address(x_buf), address(u_buf), address(out), address(readout))
        return call, x_buf, u_buf, out, gather

    def sweep(x: np.ndarray) -> np.ndarray:
        nonlocal bound
        x = np.asarray(x, dtype=float)
        if x.shape != (m,):
            raise ValueError("pcd_sweep: x has shape %s, expected (%d,)" % (x.shape, m))
        if bound is None:
            bound = bind()
        call, x_buf, u_buf, out, _ = bound
        x_buf[:] = x
        u_buf[:] = Zt.dot(x)
        call()
        return out.copy()

    sweep.readout = readout
    return sweep


def drs_parts(
    f_prox: Prox, g_prox: Prox, delta: float, z: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One DRS update with relaxation delta in (0, 2), returning (x, y, z_next).

    x = prox_{beta f}(z), y = prox_{beta g}(2x - z), z_next = z + delta(y - x),
    with both proxes built for one step beta.
    """
    if not (0.0 < delta < 2.0):
        raise ValueError("drs_parts: delta must lie in (0, 2)")
    x = f_prox(z)
    y = g_prox(2.0 * x - z)
    return x, y, z + delta * (y - x)


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
    p: float,
    lam: float,
    beta: float,
    mu: float,
    theta: np.ndarray,
) -> np.ndarray:
    """One iteratively-reweighted-l1 step on the extended variable theta = (x, eps).

    Weights are w_i = phi'(|x_i| + max(eps_i, 0)) for the power penalty
    phi(t) = t**p, 0 < p < 1; the x-update is the closed-form weighted
    shrinkage of the gradient step, and eps shrinks geometrically,
    eps+ = mu * eps.  Returns the new (x, eps) as one vector.

    Anderson candidates may leave the domain eps >= 0, hence the clamp in the
    weights.  Where |x_i| + max(eps_i, 0) is 0 the weight and threshold are
    +inf, which pins x_i at 0, so the safeguard can judge such a candidate
    by its residual; with beta * lam = 0 the threshold is 0: no shrinkage.
    """
    if not beta > 0:  # negated, so NaN fails too
        raise ValueError("irl1_step: beta must be positive")
    if not (0.0 < mu < 1.0):
        raise ValueError("irl1_step: mu must lie in (0, 1)")
    if not (0.0 < p < 1.0):
        raise ValueError("irl1_step: p must lie in (0, 1)")
    if not lam >= 0:
        raise ValueError("irl1_step: lam must be nonnegative")
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1 or theta.shape[0] % 2:
        raise ValueError("irl1_step: theta must be a vector (x, eps) of even length")
    n = theta.shape[0] // 2
    x, eps = theta[:n], theta[n:]
    w = phi_deriv(p, np.abs(x) + np.maximum(eps, 0.0))
    g = _require_finite(np.asarray(grad_f(x), dtype=float), "irl1_step: gradient")
    scale = beta * lam
    # a zero scale would make 0 * inf = NaN where a weight is infinite
    x_new = soft_threshold(x - beta * g, scale * w if scale > 0 else 0.0)
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

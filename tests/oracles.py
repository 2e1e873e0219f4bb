"""Brute-force oracles shared by the test modules.

These deliberately avoid the library's own code paths: grid refinement for
1-D minimization, central differences for gradients, and dense solves for
affine fixed points.  ``objective_terms`` is each family's objective at one
point, the reference for the block objectives, and ``polyfit_rate_reference``
the rate fit by ``np.polyfit``.  ``write_libsvm`` writes
the sparse datasets that the CSR tests load.  ``ListAaState`` with
``list_aa_step`` is the Anderson engine as it stood before its history moved
into buffers, kept as the reference the buffered engine must match bit for
bit; ``candidate_reference`` is its candidate, a loop over the rows.
``state_with_window`` lays given residuals and evaluations out as the
buffered engine holds them, for ``compute_alpha`` and ``aa_candidate``.
``pcd_sweep_reference`` is the coordinate sweep as a Python loop, the
reference for the compiled one.  ``quadratic_ls_prox_reference`` is the
least-squares prox solved by LAPACK dpotrs, as it stood before its solve
moved to two BLAS dtrsv calls.  ``irl1_step_reference`` is the reweighted
step with its pinned coordinates masked out, as it stood before an infinite
threshold pinned them.  ``lasso_pga_reference`` is the lasso's
proximal-gradient map composed in numpy, as it stood before it moved to one
compiled call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from aaopt.anderson import AaState


def grid_minimize_1d(fun, lo: float, hi: float, npts: int = 201, rounds: int = 12) -> float:
    """Argmin of a convex scalar function by iterative grid refinement.

    ``fun`` must accept a numpy array.  Evaluation runs in extended precision
    so the flat float64 plateau around the minimum does not cap the accuracy.
    """
    assert hi > lo
    lo = np.longdouble(lo)
    hi = np.longdouble(hi)
    for _ in range(rounds):
        grid = np.linspace(lo, hi, npts, dtype=np.longdouble)
        vals = np.asarray(fun(grid))
        j = int(np.argmin(vals))
        step = (hi - lo) / (npts - 1)
        lo, hi = grid[j] - step, grid[j] + step
    return float((lo + hi) / 2)


def central_diff_grad(fun, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fun(x + e) - fun(x - e)) / (2.0 * h)
    return g


def affine_fixed_point(G: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Exact fixed point of H(x) = G x + c via a dense solve."""
    n = G.shape[0]
    return np.linalg.solve(np.eye(n) - G, c)


def shrink_objective(t, v: float, w: float, s: float):
    """The 1-D model whose minimizer weighted shrinkage must return."""
    return 0.5 * (t - v) ** 2 + s * w * np.abs(t)


def identification_brute_force(patterns, window: int):
    """Start of the final pattern's run if it spans at least ``window`` patterns.

    Tries every start k that leaves ``window`` patterns and compares every
    pattern from k to the end with the last one, element by element; the
    earliest start that qualifies is where the final run began.  None when no
    start qualifies (including fewer than ``window`` patterns).
    """
    n = len(patterns)
    for k in range(n - window + 1):
        if all(np.array_equal(patterns[j], patterns[-1]) for j in range(k, n)):
            return k
    return None


def svm_pcd_sweep_reference(A, y: np.ndarray, C: float, beta: float, x: np.ndarray) -> np.ndarray:
    """One PCD sweep on the SVM dual, written with numpy scalars and ``@``.

    This is the svm operator's sweep as it stood before it moved to Python
    floats and ``ndarray.dot``; the arithmetic, its order and the row
    extraction are unchanged, so the two must agree bit for bit.
    """
    m = A.shape[0]
    # rows of Z = y .* A, extracted once; the sweep keeps u = Z^T x current
    if hasattr(A, "tocsr") and not isinstance(A, np.ndarray):
        csr = A.tocsr()
        rows = [
            (csr.indices[csr.indptr[i] : csr.indptr[i + 1]],
             y[i] * csr.data[csr.indptr[i] : csr.indptr[i + 1]])
            for i in range(m)
        ]

        def row_dot(i: int, u: np.ndarray) -> float:
            idx, data = rows[i]
            return float(data @ u[idx])

        def row_axpy(i: int, coef: float, u: np.ndarray) -> None:
            idx, data = rows[i]
            u[idx] += coef * data
    else:
        Z = y[:, None] * np.asarray(A, dtype=float)

        def row_dot(i: int, u: np.ndarray) -> float:
            return float(Z[i] @ u)

        def row_axpy(i: int, coef: float, u: np.ndarray) -> None:
            u += coef * Z[i]

    x = np.array(x, dtype=float, copy=True)
    u = np.asarray(A.T @ (y * x)).ravel()
    for i in range(m):
        v = x[i] - beta * (row_dot(i, u) - 1.0)
        new = min(max(v, 0.0), C)
        delta = new - x[i]
        if delta != 0.0:
            row_axpy(i, delta, u)
            x[i] = new
    return x


def _per_row(value, m: int, what: str) -> list[float]:
    if not isinstance(value, (int, float)):  # a plain scalar skips numpy
        value = np.asarray(value, dtype=float)
        if value.ndim:
            if value.shape != (m,):
                raise ValueError("pcd_sweep: %s has shape %s, expected (%d,)" % (what, value.shape, m))
            return value.tolist()
    return [float(value)] * m


def pcd_sweep_reference(Z, q, lower, upper, beta: float):
    """``pcd_sweep`` as it stood before its row loop moved to C.

    The compiled sweep must agree with it bit for bit.  A dense Z is swept
    as a C-ordered copy, as the compiled sweep does: numpy's Z.T x and its
    row dots at a stride other than one need not give the C layout's bits.
    Its original docstring follows.

    One cyclic sweep of proximal coordinate descent, built once for many calls.

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
    Z = Z.tocsr() if sparse else np.array(Z, dtype=float, order="C")
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


def quadratic_ls_prox_reference(A, y, lam: float, scale_m: float, beta: float):
    """prox_{beta f} for f(x) = ||A x - y||^2 / (2*scale_m) + lam*||x||^2, by dpotrs.

    Solves (A.T A + scale_m*(1/beta + 2*lam) I) x = A.T y + (scale_m/beta) z
    with one dpotrs call on the dpotrf factor of the shifted Gram matrix.
    """
    gram = A.T @ A
    gram = gram.toarray() if hasattr(gram, "toarray") else np.array(gram, dtype=float)
    gram.flat[:: gram.shape[0] + 1] += scale_m * (1.0 / beta + 2.0 * lam)
    factor, info = dpotrf(gram, lower=True, clean=False)
    assert info == 0
    aty = A.T.dot(np.asarray(y, dtype=float))

    def prox(z):
        x, info = dpotrs(factor, aty + (scale_m / beta) * np.asarray(z, dtype=float), lower=True)
        assert info == 0
        return x

    return prox


def soft_threshold_reference(v, t) -> np.ndarray:
    """Three-branch shrinkage: v - t above t, v + t below -t, else 0.0.

    The library's ``soft_threshold`` as it stood before it moved to a clip,
    and, for an array ``t`` of v's shape, its ``weighted_soft_threshold``
    (with t = s * w) before IRL1 moved to ``soft_threshold``; ties |v| == t
    and NaN map to +0.0, and the library must agree with it bit for bit.
    """
    v = np.asarray(v, dtype=float)
    return np.where(v > t, v - t, np.where(v < -t, v + t, 0.0))


def lasso_pga_reference(A, y, lam: float, beta: float):
    """H(x) = soft_threshold(x - beta*A.T(A x - y), beta*lam), composed in numpy.

    The library's ``pga_step``, ``lasso_grad`` and ``soft_threshold`` as they
    stood before the map moved to one compiled call: A.dot(x) - y, then a
    product with A.T (for a CSR A, an A.T built once as CSR), a check that
    the gradient is finite, then v - clip(v, -t, t), with 0.0 added when t
    is 0 and NaN entries set to 0.0.  numpy's overflow warnings are off.
    """
    At = A.T.tocsr() if hasattr(A, "tocsr") else A.T
    t = beta * lam

    def step(x):
        with np.errstate(all="ignore"):
            g = np.asarray(At.dot(A.dot(x) - y), dtype=float)
            if not np.isfinite(g).all():
                raise FloatingPointError("pga_step: gradient is non-finite")
            v = x - beta * g
            out = v - np.minimum(np.maximum(v, -t), t)
            if t == 0:
                out += 0.0
            return np.where(np.isnan(out), 0.0, out)

    return step


def irl1_step_reference(grad_f, p: float, lam: float, beta: float, mu: float, theta) -> np.ndarray:
    """One IRL1 step on theta = (x, eps) with the pinned coordinates masked out.

    The library's ``irl1_step`` as it stood before an infinite weight pinned
    them: where |x_i| + max(eps_i, 0) is 0 the weight is left at 0 and
    ``np.where`` sets x_i to 0.0; elsewhere x shrinks by the three-branch
    form with threshold beta * lam * p * t_i**(p - 1).  For lam > 0 the
    library must agree with it bit for bit.
    """
    theta = np.asarray(theta, dtype=float)
    n = theta.shape[0] // 2
    x, eps = theta[:n], theta[n:]
    t = np.abs(x) + np.maximum(eps, 0.0)
    inside = t > 0.0
    w = np.zeros(n)
    w[inside] = p * np.power(t[inside], p - 1.0)
    g = np.asarray(grad_f(x), dtype=float)
    x_new = np.where(inside, soft_threshold_reference(x - beta * g, (beta * lam) * w), 0.0)
    return np.concatenate([x_new, mu * eps])


def pattern_of_reference(x, zero_tol: float = 1e-9, bounds=None) -> np.ndarray:
    """Activity pattern built by sign, broadcast bounds and masked writes.

    The library's ``pattern_of`` as it stood before it moved to comparisons;
    it must agree on every input without NaN (``sign(NaN)`` cast to int8 is
    platform-dependent and warns).
    """
    x = np.asarray(x, dtype=float)
    if bounds is None:
        out = np.sign(x).astype(np.int8)
        out[np.abs(x) <= zero_tol] = 0
        return out
    lo = np.broadcast_to(np.asarray(bounds.lower, dtype=float), x.shape)
    hi = np.broadcast_to(np.asarray(bounds.upper, dtype=float), x.shape)
    out = np.zeros(x.shape, dtype=np.int8)
    at_upper = np.isfinite(hi) & (x >= hi - zero_tol)
    at_lower = np.isfinite(lo) & (x <= lo + zero_tol)
    out[at_upper] = 1
    out[at_lower] = -1  # lower wins when a degenerate box pins both
    return out


def objective_terms(kind: str, inst, x: np.ndarray) -> list[float]:
    """The terms whose sum is a family's objective at one point x, each an fsum.

    One matrix-vector product for this point alone against a dense copy of
    the instance's matrix; the library takes a block of points through one
    matrix product, and the two agree to a few ulps of these terms' sizes.
    """
    A = inst.A.toarray() if hasattr(inst.A, "toarray") else np.asarray(inst.A, dtype=float)
    x = np.asarray(x, dtype=float)
    if kind == "svm":
        w = A.T @ (inst.y * x)
        return [0.5 * math.fsum(w * w), -math.fsum(x)]
    if kind == "logreg":
        t = inst.y * (A @ x)
        return [math.fsum(np.logaddexp(0.0, -t)) / A.shape[0], inst.lam * math.fsum(np.abs(x) ** inst.p)]
    r = A @ x - inst.y
    if kind == "lasso":
        return [0.5 * math.fsum(r * r), inst.lam * math.fsum(np.abs(x))]
    return [math.fsum(r * r) / (2.0 * A.shape[0]), inst.lam * math.fsum(x * x)]  # nnls


def polyfit_rate_reference(tail) -> tuple[float, float]:
    """(gamma, r^2) of a line fitted to log(tail) by ``np.polyfit``: ``fit_linear_rate`` as it
    stood before its closed form, over a tail of positive finite norms."""
    k = np.arange(len(tail), dtype=float)
    logr = np.log(np.asarray(tail, dtype=float))
    slope, intercept = np.polyfit(k, logr, 1)
    ss_res = float(np.sum((logr - (slope * k + intercept)) ** 2))
    ss_tot = float(np.sum((logr - logr.mean()) ** 2))
    if ss_tot <= 1e-30:
        return float(np.exp(slope)), 1.0 if ss_res <= 1e-20 else 0.0
    return float(np.exp(slope)), 1.0 - ss_res / ss_tot


def write_libsvm(path, A: np.ndarray, labels: np.ndarray, drop_below: float = 0.5) -> None:
    """Write rows of A as LIBSVM text in %.17g, leaving out |a_ij| < drop_below.

    Every kept value reads back exactly, and the dropped ones make the rows
    genuinely sparse.
    """
    with open(path, "w", encoding="utf-8") as handle:
        for row, label in zip(A, labels):
            feats = " ".join("%d:%.17g" % (j + 1, v) for j, v in enumerate(row) if abs(v) >= drop_below)
            handle.write("%d %s\n" % (label, feats))


@dataclass
class ListAaState:
    """Newest-first history lists: h[j] = H(x^(k-j)), r[j] its residual."""

    h: list = field(default_factory=list)
    r: list = field(default_factory=list)
    norms: list = field(default_factory=list)
    reject_streak: int = 0


def list_init_state(apply, x0) -> ListAaState:
    x0 = np.asarray(x0, dtype=float)
    h0 = np.asarray(apply(x0), dtype=float)
    r0 = h0 - x0
    return ListAaState(h=[h0], r=[r0], norms=[float(np.linalg.norm(r0))])


def list_compute_alpha(R: np.ndarray, tau: float) -> np.ndarray:
    """Sum-to-one weights by ``vstack`` and an SVD ``lstsq``; with tau = 0, its minimum-norm solution."""
    ncol = R.shape[1]
    if not np.all(np.isfinite(R)):
        raise ValueError("non-finite residual matrix")
    if ncol == 1:
        return np.ones(1)
    p = ncol - 1
    D = R[:, :-1] - R[:, 1:]
    c0 = R[:, 0]
    C = np.zeros((ncol, p))
    C[np.arange(p), np.arange(p)] = -1.0
    C[np.arange(p) + 1, np.arange(p)] = 1.0
    e0 = np.zeros(ncol)
    e0[0] = 1.0
    if tau > 0:
        root = math.sqrt(tau)
        lhs = np.vstack([D, root * C])
        rhs = np.concatenate([c0, -root * e0])
        theta, _, _, _ = np.linalg.lstsq(lhs, rhs, rcond=None)
    else:
        theta = np.linalg.lstsq(D, c0, rcond=None)[0]
    alpha = e0 + C @ theta
    total = float(alpha.sum())
    if not np.isfinite(total) or total == 0.0:
        raise np.linalg.LinAlgError("singular weight solve")
    alpha = alpha / total
    for pick in (np.argmax, np.argmin):
        excess = math.fsum(alpha) - 1.0
        if excess == 0.0:
            break
        alpha[int(pick(np.abs(alpha)))] -= excess
    if not np.all(np.isfinite(alpha)) or abs(math.fsum(alpha) - 1.0) > 1e-12:
        raise np.linalg.LinAlgError("weights failed the sum-to-one contract")
    return alpha


def state_with_window(R=None, H=None, head: int = 0, spare: int = 2) -> AaState:
    """An unbound ``AaState`` whose window holds the columns of R and the rows of H, newest first.

    R is n x ncol and H is ncol x n; either may be left out for zeros.  The
    window starts at ``head`` in buffers with ``spare`` entries after it, as
    ``init_state`` and the steps lay them out; every entry outside it is
    NaN, so a kernel that read one would show it.
    """
    R = np.zeros(np.shape(H)[::-1]) if R is None else np.asarray(R, dtype=float)
    n, ncol = R.shape
    H = np.zeros((ncol, n)) if H is None else np.asarray(H, dtype=float)
    width = head + ncol + spare
    hbuf, rbuf, norms = np.full((width, n), np.nan), np.full((n, width), np.nan), np.full(width, np.nan)
    hbuf[head : head + ncol], rbuf[:, head : head + ncol] = H, R
    with np.errstate(all="ignore"):
        norms[head : head + ncol] = [math.sqrt(float(r.dot(r))) for r in R.T]
    return AaState(hbuf=hbuf, rbuf=rbuf, norms=norms, ints=np.array([n, width, head, ncol, 0, 1], dtype=np.int64),
                   reals=np.array([-1.0, 1.0, norms[head]]))


def candidate_reference(H, alpha) -> np.ndarray:
    """sum_j alpha[j] * H[j] by a loop over the rows of H, each added whole in index order."""
    out = alpha[0] * H[0]
    for j in range(1, len(alpha)):
        out = out + alpha[j] * H[j]
    return out


def list_aa_step(apply, state: ListAaState, cfg):
    """One safeguarded AA step; returns (x_next, alpha, alpha_l1, accepted, norm).

    ``cfg`` carries the fields of ``AaConfig``.  The residual matrix is a
    ``column_stack`` copy, the candidate a sequential loop over the columns,
    and the history shifts by ``insert(0)``.
    """
    R = np.column_stack(state.r)
    tau = cfg.tikhonov if cfg.tikhonov is not None else 1e-10 * float(np.sum(R * R))
    alpha = list_compute_alpha(R, tau)
    alpha_l1 = float(np.sum(np.abs(alpha)))
    candidate = candidate_reference(state.h, alpha)

    best_stored = min(state.norms)
    accepted = False
    h_cand = r_cand = None
    if np.all(np.isfinite(candidate)):
        h_cand = np.asarray(apply(candidate), dtype=float)
        r_cand = h_cand - candidate
        norm_cand = float(np.linalg.norm(r_cand))
        accepted = bool(np.isfinite(norm_cand) and norm_cand <= cfg.safeguard_factor * best_stored)

    if accepted:
        x_next, h_next, r_next, norm_next = candidate, h_cand, r_cand, norm_cand
        state.reject_streak = 0
    else:
        x_next = state.h[0]
        if h_cand is not None and len(state.h) == 1:
            h_next, r_next, norm_next = h_cand, r_cand, norm_cand
        else:
            h_next = np.asarray(apply(x_next), dtype=float)
            r_next = h_next - x_next
            norm_next = float(np.linalg.norm(r_next))
        state.reject_streak += 1
        if state.reject_streak >= cfg.restart_after_rejects:
            state.h.clear()
            state.r.clear()
            state.norms.clear()
            state.reject_streak = 0

    state.h.insert(0, h_next)
    state.r.insert(0, r_next)
    state.norms.insert(0, norm_next)
    del state.h[cfg.memory + 1 :]
    del state.r[cfg.memory + 1 :]
    del state.norms[cfg.memory + 1 :]
    return x_next, alpha, alpha_l1, accepted, norm_next

"""Benchmark problems: data generators, objectives, gradients, penalties.

All generators are deterministic functions of their integer seed.  Matrices
are dense numpy arrays except where a dataset is loaded from a LIBSVM file,
which produces CSR.  Each objective takes a block X of points, one per row,
and returns one value per row from one matrix product over the block; a
single point gives a single value.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import IO, Iterable, Iterator

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

__all__ = [
    "phi_value",
    "phi_deriv",
    "LassoInstance",
    "SvmDualInstance",
    "NnlsInstance",
    "LogRegInstance",
    "gen_lasso",
    "gen_svm",
    "gen_nnls",
    "gen_logreg",
    "lasso_grad",
    "lasso_objective",
    "svm_dual_grad",
    "svm_dual_objective",
    "nnls_grad",
    "nnls_objective",
    "logreg_grad",
    "logreg_loss",
    "logreg_objective",
    "parse_libsvm",
    "load_libsvm",
    "subsample",
]


def phi_value(p: float, t: np.ndarray) -> np.ndarray:
    """The power penalty t**p, 0 < p < 1, on t >= 0 elementwise.

    Computed with ``**``, which numpy may take to a shortcut (``sqrt`` at
    p = 0.5) that ``np.power`` does not.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("phi_value: penalty arguments must be nonnegative")
    return t ** p


def phi_deriv(p: float, t: np.ndarray) -> np.ndarray:
    """Derivative p * t**(p - 1) elementwise; positive and decreasing on t > 0.

    It is +inf at t = 0, the penalty's unbounded slope there, and wherever
    p * t**(p - 1) overflows (a subnormal t at small p), without a warning.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("phi_deriv: penalty arguments must be nonnegative")
    with np.errstate(divide="ignore", over="ignore"):
        return p * np.power(t, p - 1.0)


# ---------------------------------------------------------------------------
# problem instances


@dataclass(frozen=True)
class LassoInstance:
    """min 0.5||A x - y||^2 + lam ||x||_1; ``x_true`` is gen_lasso's planted signal."""

    A: np.ndarray
    y: np.ndarray
    lam: float
    x_true: np.ndarray | None = None


@dataclass(frozen=True)
class SvmDualInstance:
    """Dual soft-margin SVM: min 0.5||(y .* A)^T x||^2 - sum(x) on [0, C]^M."""

    A: np.ndarray
    y: np.ndarray
    C: float


@dataclass(frozen=True)
class NnlsInstance:
    """min (1/2M)||A x - y||^2 + lam||x||^2 subject to x >= 0."""

    A: np.ndarray
    y: np.ndarray
    lam: float


@dataclass(frozen=True)
class LogRegInstance:
    """Sparse logistic regression with an l_p^p penalty, labels in {-1,+1}."""

    A: np.ndarray
    y: np.ndarray
    lam: float
    p: float


def gen_lasso(
    m: int, n: int, lam: float = 0.01, noise_var: float = 1e-4, seed: int = 0
) -> LassoInstance:
    """Random row-orthonormal design with a ±1 spike signal.

    A is m x n Gaussian with rows orthonormalized (QR of A^T), x_true has
    floor(n/10) nonzero entries equal to ±1 at random positions, and
    y = A x_true + noise with iid N(0, noise_var) noise in R^m.
    """
    if m >= n:
        raise ValueError("gen_lasso: needs m < n (rows cannot be orthonormal otherwise)")
    if n < 10:
        raise ValueError("gen_lasso: needs n >= 10 for a nonempty signal")
    if noise_var < 0:
        raise ValueError("gen_lasso: noise_var must be nonnegative")
    rng = np.random.default_rng(seed)
    A0 = rng.standard_normal((m, n))
    Q, _ = np.linalg.qr(A0.T)  # columns of Q = orthonormalized rows of A
    A = np.ascontiguousarray(Q.T)
    k = n // 10
    support = rng.choice(n, size=k, replace=False)
    x_true = np.zeros(n)
    x_true[support] = rng.choice([-1.0, 1.0], size=k)
    y = A @ x_true + np.sqrt(noise_var) * rng.standard_normal(m)
    return LassoInstance(A=A, y=y, x_true=x_true, lam=lam)


def gen_svm(m: int, n: int, seed: int = 0, C: float = 100.0, margin: float = 1.5) -> SvmDualInstance:
    """Two Gaussian clouds separated along a random direction."""
    rng = np.random.default_rng(seed)
    y = rng.choice([-1.0, 1.0], size=m)
    direction = rng.standard_normal(n)
    direction /= np.linalg.norm(direction)
    A = rng.standard_normal((m, n)) + margin * np.outer(y, direction)
    return SvmDualInstance(A=A, y=y, C=C)


def gen_nnls(m: int, n: int, lam: float = 0.001, seed: int = 0) -> NnlsInstance:
    """Gaussian design with a nonnegative ground truth and mild noise."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    x_true = np.maximum(rng.standard_normal(n), 0.0)
    y = A @ x_true + 0.05 * rng.standard_normal(m)
    return NnlsInstance(A=A, y=y, lam=lam)


def gen_logreg(
    m: int, n: int, lam: float = 0.001, p: float = 0.75, seed: int = 0
) -> LogRegInstance:
    """Labels from a sparse linear model with substantial flip noise.

    The noise scale is deliberately large relative to the signal so the
    classes are far from separable; near-separable label draws push the
    penalized optimum toward huge norms where reweighted iterations crawl.
    """
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    x_true = np.zeros(n)
    support = rng.choice(n, size=max(1, n // 5), replace=False)
    x_true[support] = rng.choice([-1.0, 1.0], size=support.size)
    margins = A @ x_true + 3.0 * rng.standard_normal(m)
    y = np.where(margins >= 0, 1.0, -1.0)
    return LogRegInstance(A=A, y=y, lam=lam, p=p)


# ---------------------------------------------------------------------------
# objectives and gradients


def lasso_grad(inst: LassoInstance, x: np.ndarray) -> np.ndarray:
    """Gradient A.T (A x - y) of the smooth part 0.5||A x - y||^2."""
    return inst.A.T.dot(inst.A.dot(x) - inst.y)


def _row_dots(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    return np.einsum("...i,...i->...", U, V)


def _residuals(A, X: np.ndarray, y: np.ndarray, out=None) -> np.ndarray:
    """The rows of X A^T - y, in ``out`` if given (a dense A only).  In ``out`` y is
    taken off row by row, as a broadcast subtraction would copy y once per row."""
    if out is None:
        return X @ A.T - y  # a CSR A computes (A @ X.T).T
    R = np.matmul(X, A.T, out=out[: len(X)])
    for row in R:
        row -= y
    return R


def lasso_objective(inst: LassoInstance, X: np.ndarray) -> np.ndarray:
    """0.5||A x - y||^2 + lam ||x||_1 for each row x of X."""
    R = _residuals(inst.A, X, inst.y)
    return 0.5 * _row_dots(R, R) + inst.lam * np.abs(X).sum(axis=-1)


def svm_dual_grad(inst: SvmDualInstance, x: np.ndarray) -> np.ndarray:
    """Gradient (Z Z^T) x - 1 of the dual objective, Z = y .* A, as two thin products."""
    return inst.y * inst.A.dot(inst.A.T.dot(inst.y * x)) - 1.0


def svm_dual_objective(inst: SvmDualInstance, X: np.ndarray) -> np.ndarray:
    """0.5*||A.T (y .* x)||^2 - sum(x) for each row x of X."""
    W = (X * inst.y) @ inst.A
    return 0.5 * _row_dots(W, W) - X.sum(axis=-1)


def nnls_grad(inst: NnlsInstance, x: np.ndarray) -> np.ndarray:
    m = inst.A.shape[0]
    return inst.A.T.dot(inst.A.dot(x) - inst.y) / m + 2.0 * inst.lam * x


def nnls_objective(inst: NnlsInstance, X: np.ndarray, out=None) -> np.ndarray:
    """(1/2M)||A x - y||^2 + lam||x||^2 for each row x of X; ``out`` holds A x - y if given."""
    R = _residuals(inst.A, X, inst.y, out)
    return _row_dots(R, R) / (2.0 * inst.A.shape[0]) + inst.lam * _row_dots(X, X)


def logreg_loss(inst: LogRegInstance, X: np.ndarray) -> np.ndarray:
    """Mean logistic loss for each row x of X, computed overflow-safe via logaddexp."""
    T = inst.y * (X @ inst.A.T)
    return np.logaddexp(0.0, -T).mean(axis=-1)


def logreg_grad(inst: LogRegInstance, x: np.ndarray) -> np.ndarray:
    """Gradient of the mean logistic loss; sigmoid evaluated overflow-safe."""
    m = inst.A.shape[0]
    t = inst.y * inst.A.dot(x)
    return -inst.A.T.dot(inst.y * expit(-t)) / m


def logreg_objective(inst: LogRegInstance, X: np.ndarray) -> np.ndarray:
    """Mean logistic loss + lam * sum |x_i|^p for each row x of X."""
    return logreg_loss(inst, X) + inst.lam * phi_value(inst.p, np.abs(X)).sum(axis=-1)


# ---------------------------------------------------------------------------
# datasets


def parse_libsvm(lines: Iterable[str] | IO[str]) -> tuple[sp.csr_matrix, np.ndarray]:
    """Parse LIBSVM-format text into a CSR matrix and a ±1 label vector.

    Each nonempty line is ``<label> <index>:<value> ...`` with 1-based,
    strictly ascending indices.  The matrix width is the largest index seen.
    Labels must form a subset of {-1,+1} or {0,1}; the latter is remapped to
    {-1,+1}.  Malformed tokens, non-finite feature values and nonascending
    indices raise with the line number.  An empty stream yields a 0 x 0 matrix.
    """
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    labels: list[float] = []
    ncols = 0
    row = 0
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        parts = stripped.split()
        try:
            labels.append(float(parts[0]))
        except ValueError:
            raise ValueError("line %d: label %r is not numeric" % (lineno, parts[0])) from None
        prev = 0
        for token in parts[1:]:
            idx_s, sep, val_s = token.partition(":")
            if not sep:
                raise ValueError("line %d: feature token %r has no ':'" % (lineno, token))
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise ValueError("line %d: malformed feature token %r" % (lineno, token)) from None
            if not math.isfinite(val):
                raise ValueError("line %d: feature value %r is not finite" % (lineno, token))
            if idx < 1:
                raise ValueError("line %d: index %d is not 1-based" % (lineno, idx))
            if idx <= prev:
                raise ValueError(
                    "line %d: index %d not ascending (previous %d)" % (lineno, idx, prev)
                )
            prev = idx
            rows.append(row)
            cols.append(idx - 1)
            vals.append(val)
            ncols = max(ncols, idx)
        row += 1
    X = sp.csr_matrix((vals, (rows, cols)), shape=(row, ncols))
    y = np.asarray(labels, dtype=float)
    present = set(np.unique(y).tolist())
    if present <= {-1.0, 1.0}:
        pass
    elif present <= {0.0, 1.0}:
        y = 2.0 * y - 1.0
    else:
        bad = sorted(present - {-1.0, 0.0, 1.0}) or sorted(present)
        raise ValueError("labels must be in {-1,+1} or {0,1}; saw %s" % (bad,))
    return X, y


@contextmanager
def _open_text(path: str, what: str) -> Iterator[IO[str]]:
    """``path`` open as UTF-8 text, past any byte order mark, holding a ``what``; an OSError or
    bytes that are not UTF-8 (a binary file, such as an .npz archive) raise an error naming the file."""
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            yield handle
    except OSError as exc:
        raise OSError("reading %s from %s: %s" % (what, path, exc)) from exc
    except UnicodeDecodeError as exc:
        raise ValueError("%s is not %s text: it is not UTF-8 (%s)" % (path, what, exc.reason)) from None


def load_libsvm(path: str) -> tuple[sp.csr_matrix, np.ndarray]:
    """parse_libsvm over the lines of a file."""
    with _open_text(path, "LIBSVM") as handle:
        return parse_libsvm(handle)


def subsample(X, y: np.ndarray, k: int, seed: int = 0):
    """k rows drawn uniformly without replacement; k == rows permutes."""
    rows = X.shape[0]
    if not (0 <= k <= rows):
        raise ValueError("subsample: k=%d outside [0, %d]" % (k, rows))
    idx = np.random.default_rng(seed).choice(rows, size=k, replace=False)
    return X[idx], np.asarray(y)[idx]

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from aaopt.linalg import CgResult, cg_solve_spd, spectral_norm_sq

SPECIAL = np.array([0.0, -0.0, 1.0, -1.0, 1e-300, 1e150, -1e150])


@st.composite
def csr_and_vector(draw):
    """A CSR matrix, possibly with unsorted and duplicate column indices and
    stored zeros, and a vector for its transposed product."""
    m, n = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def values(size):
        out = rng.standard_normal(size) * draw(st.sampled_from([1.0, 1e-8, 1e8]))
        special = rng.random(size) < draw(st.sampled_from([0.0, 0.2]))
        out[special] = rng.choice(SPECIAL, size=int(special.sum()))
        return out

    counts = rng.integers(0, 2 * n, size=m)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    indices = rng.integers(0, n, size=int(indptr[-1]))
    S = sp.csr_matrix((values(indices.size), indices, indptr), shape=(m, n))
    return S, values(m)


@settings(max_examples=300, deadline=None)
@given(case=csr_and_vector())
def test_csr_transpose_built_once_is_bitwise_the_transposed_matvec(case):
    # the svm builder keeps A.T as CSR, built once, for its objective; it must
    # sum exactly as A.T.dot(v) does
    S, v = case
    At = S.T.tocsr()
    assert At.dot(v).tobytes() == S.T.dot(v).tobytes()


def test_spectral_norm_sq_diag():
    # largest eigenvalue of A^T A for diag(3, 1) is 9
    assert spectral_norm_sq(np.diag([3.0, 1.0])) == pytest.approx(9.0, abs=1e-5)


def test_spectral_norm_sq_zero_matrix():
    assert spectral_norm_sq(np.zeros((4, 3))) == 0.0


def test_spectral_norm_sq_row_orthonormal_is_one():
    rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(rng.standard_normal((30, 8)))
    A = Q.T  # 8 x 30 with orthonormal rows
    assert spectral_norm_sq(A) == pytest.approx(1.0, abs=1e-6)


def test_spectral_norm_sq_bounds():
    # frobenius upper bound and max-column lower bound, random trials
    rng = np.random.default_rng(11)
    for _ in range(25):
        A = rng.standard_normal((rng.integers(1, 12), rng.integers(1, 12)))
        s = spectral_norm_sq(A)
        frob = float(np.sum(A * A))
        colmax = float(np.max(np.sum(A * A, axis=0)))
        assert s <= frob * (1 + 1e-6)
        assert s >= colmax * (1 - 1e-4)


def test_cg_matches_direct_solve():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 21))
        M = rng.standard_normal((n, n))
        S = M @ M.T + n * np.eye(n)
        b = rng.standard_normal(n)
        res = cg_solve_spd(lambda v: S @ v, b, tol=1e-12, max_iter=200)
        assert res.converged
        assert np.linalg.norm(res.x - np.linalg.solve(S, b)) <= 1e-8


def test_cg_residual_contract():
    rng = np.random.default_rng(8)
    n = 15
    M = rng.standard_normal((n, n))
    S = M @ M.T + np.eye(n)
    b = rng.standard_normal(n)
    res = cg_solve_spd(lambda v: S @ v, b, tol=1e-10, max_iter=500)
    assert np.linalg.norm(S @ res.x - b) <= 1e-10 * np.linalg.norm(b)


def test_cg_zero_rhs():
    res = cg_solve_spd(lambda v: 2.0 * v, np.zeros(5), tol=1e-12)
    assert res.converged and res.iterations == 0
    assert np.array_equal(res.x, np.zeros(5))


def test_cg_flags_nonconvergence():
    rng = np.random.default_rng(9)
    n = 40
    M = rng.standard_normal((n, n))
    S = M @ M.T + 1e-6 * np.eye(n)  # nasty conditioning
    b = rng.standard_normal(n)
    res = cg_solve_spd(lambda v: S @ v, b, tol=1e-14, max_iter=2)
    assert isinstance(res, CgResult)
    assert not res.converged


def test_cg_nonfinite_is_hard_error():
    b = np.ones(3)
    with pytest.raises(FloatingPointError):
        cg_solve_spd(lambda v: v * np.nan, b)

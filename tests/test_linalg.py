import re

import numpy as np
import pytest
import scipy.sparse as sp

from aaopt.linalg import CgResult, cg_solve_spd, matvec, spectral_norm_sq

from oracles import matvec_loops


def test_matvec_identity():
    x = np.array([1.0, -2.0, 3.0])
    assert np.array_equal(matvec(np.eye(3), x), x)


def test_matvec_matches_loops_dense_and_transpose():
    rng = np.random.default_rng(3)
    for _ in range(50):
        m, n = rng.integers(1, 9, size=2)
        A = rng.standard_normal((m, n))
        x = rng.standard_normal(n)
        z = rng.standard_normal(m)
        assert np.allclose(matvec(A, x), matvec_loops(A, x), atol=1e-12, rtol=0)
        assert np.allclose(
            matvec(A, z, transpose=True), matvec_loops(A, z, transpose=True), atol=1e-12, rtol=0
        )


def test_matvec_sparse_equals_dense():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((6, 9))
    A[rng.random((6, 9)) < 0.6] = 0.0
    S = sp.csr_matrix(A)
    x = rng.standard_normal(9)
    z = rng.standard_normal(6)
    assert np.allclose(matvec(S, x), A @ x, atol=1e-14)
    assert np.allclose(matvec(S, z, transpose=True), A.T @ z, atol=1e-14)


def test_matvec_is_bitwise_the_matmul():
    # matvec computes with .dot; it must give exactly what @ gives, for each
    # memory layout and transposed view it can meet
    rng = np.random.default_rng(8)
    for m, n in [(1, 1), (1, 7), (7, 1), (13, 5), (40, 200), (300, 200)]:
        A = rng.standard_normal((m, n))
        A[rng.random((m, n)) < 0.5] = 0.0
        x = rng.standard_normal(n)
        z = rng.standard_normal(m)
        for M in (A, np.asfortranarray(A), sp.csr_matrix(A)):
            assert matvec(M, x).tobytes() == np.asarray(M @ x).tobytes()
            assert matvec(M, z, transpose=True).tobytes() == np.asarray(M.T @ z).tobytes()
            assert matvec(M.T, z).tobytes() == np.asarray(M.T @ z).tobytes()
            assert matvec(M.T, x, transpose=True).tobytes() == np.asarray(M @ x).tobytes()


def test_matvec_dimension_mismatch():
    A = np.zeros((3, 4))
    with pytest.raises(ValueError, match=re.escape("dimension mismatch: matrix (3, 4) with vector of length 3")):
        matvec(A, np.zeros(3))
    with pytest.raises(
        ValueError, match=re.escape("dimension mismatch: matrix (4, 3) (transposed) with vector of length 4")
    ):
        matvec(A, np.zeros(4), transpose=True)
    with pytest.raises(ValueError, match=re.escape("matvec expects a 1-D vector, got shape (4, 1)")):
        matvec(A, np.zeros((4, 1)))


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

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aaopt.linalg import CgResult, all_finite, cg_solve_spd, spectral_norm_sq

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
    # the lasso builder keeps A.T as CSR, built once, for its gradient; it
    # must sum exactly as A.T.dot(v) does
    S, v = case
    At = S.T.tocsr()
    assert At.dot(v).tobytes() == S.T.dot(v).tobytes()


@pytest.mark.filterwarnings("error")
@settings(max_examples=500, deadline=None)
@given(st.lists(st.one_of(st.floats(), st.sampled_from([1e200, -1e200, 1.7e308, math.nan, math.inf, -math.inf])),
                max_size=16))
@example([1e200, -1e200, 3.0])  # finite, but v.v overflows to inf
@example([1e200, math.nan])
@example([-math.inf, 1.0])
@example([])
def test_all_finite_is_true_iff_every_entry_is_finite(entries):
    v = np.array(entries, dtype=float)
    assert all_finite(v) is bool(np.isfinite(v).all())


def test_spectral_norm_sq_diag():
    # largest eigenvalue of A^T A for diag(3, 1) is 9
    assert spectral_norm_sq(np.diag([3.0, 1.0])) == pytest.approx(9.0, abs=1e-5)


def test_spectral_norm_sq_zero_matrix():
    assert spectral_norm_sq(np.zeros((4, 3))) == 0.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
@pytest.mark.parametrize("form", ["dense", "csr"])
def test_spectral_norm_sq_of_an_empty_matrix_is_zero(shape, form):
    # the power loop's first product is a zero vector, as for a zero matrix
    A = np.zeros(shape) if form == "dense" else sp.csr_matrix(shape)
    assert spectral_norm_sq(A) == 0.0


@pytest.mark.parametrize("A", [
    np.full((5, 4), 1e200),  # the products overflow to inf
    np.random.default_rng(0).standard_normal((5, 4)) * 1e155,  # w.w overflows and v goes NaN
    np.array([[1.0, np.nan], [0.0, 1.0]]),
    sp.csr_matrix(np.array([[1e200, 0.0], [3e200, -1e200]])),
])
@pytest.mark.filterwarnings("error")  # inf, and no warning of numpy's on the way
def test_spectral_norm_sq_is_inf_at_a_non_finite_norm(A):
    # it returned inf or NaN by chance, and 1/L then made a step size of 0 or NaN
    assert spectral_norm_sq(A) == math.inf


@pytest.mark.filterwarnings("error")
def test_spectral_norm_sq_is_finite_where_only_the_square_of_a_norm_overflows():
    # ||A||^2 is about 9.2e160, so w.w passes 1e308 while w stays finite
    A = np.random.default_rng(0).standard_normal((5, 4)) * 1e80
    assert spectral_norm_sq(A) == pytest.approx(np.linalg.svd(A, compute_uv=False)[0] ** 2, rel=1e-6)


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

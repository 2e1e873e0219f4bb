import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aaopt.prox import (
    BoxBounds,
    nonneg_project,
    quadratic_ls_prox,
    soft_threshold,
    weighted_soft_threshold,
)

from oracles import grid_minimize_1d, shrink_objective, soft_threshold_reference


def test_soft_threshold_basic():
    v = np.array([3.0, -0.5, 1.0])
    out = soft_threshold(v, 1.0)
    assert np.array_equal(out, np.array([2.0, 0.0, 0.0]))  # tie at |1.0| maps to 0


def test_soft_threshold_zero_threshold_is_identity():
    v = np.random.default_rng(0).standard_normal(20)
    assert np.array_equal(soft_threshold(v, 0.0), v)


def test_soft_threshold_negative_threshold_raises():
    with pytest.raises(ValueError):
        soft_threshold(np.ones(2), -0.1)


SPECIALS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e308, -1e308]


@st.composite
def shrink_inputs(draw):
    """(v, t) with NaN, +-inf, +-0, subnormals and ties |v_i| == t mixed in."""
    t = draw(st.one_of(st.sampled_from([0.0, -0.0, math.inf, math.nan]),
                       st.floats(0.0, 1e300, allow_subnormal=True)))
    entry = st.one_of(st.floats(), st.sampled_from(SPECIALS + [t, -t]))
    return np.array(draw(st.lists(entry, max_size=24)), dtype=float), t


@settings(max_examples=500, deadline=None)
@given(shrink_inputs())
@example((np.array([-0.0, 0.0, math.nan, 1.0, -1.0]), 0.0))
@example((np.array([-0.0, 0.0, math.nan, 1.0, -1.0]), -0.0))
@example((np.array([math.inf, -math.inf, 2.0, math.nan]), math.inf))
@example((np.array([0.5, -0.5, 0.25, -0.0, 1e308, -1e308]), 0.5))
def test_soft_threshold_is_bitwise_the_three_branch_form(case):
    v, t = case
    before = v.tobytes()
    with np.errstate(all="ignore"):  # inf - inf and overflowing dots are the point here
        got = soft_threshold(v, t)
        want = soft_threshold_reference(v, t)
    assert v.tobytes() == before
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_weighted_matches_uniform_bitwise():
    rng = np.random.default_rng(1)
    for _ in range(100):
        v = rng.standard_normal(12) * 3
        s = float(rng.random() * 2)
        a = soft_threshold(v, s)
        b = weighted_soft_threshold(v, np.ones_like(v), s)
        assert np.array_equal(a, b)


def test_weighted_soft_threshold_three_branches():
    v = np.array([5.0, -5.0, 0.1])
    w = np.array([2.0, 2.0, 2.0])
    out = weighted_soft_threshold(v, w, 1.0)
    assert np.array_equal(out, np.array([3.0, -3.0, 0.0]))


def test_weighted_soft_threshold_zero_weight_passthrough():
    v = np.array([0.3, -0.7])
    out = weighted_soft_threshold(v, np.zeros(2), 5.0)
    assert np.array_equal(out, v)


def test_weighted_soft_threshold_rejects_negative_weights():
    with pytest.raises(ValueError):
        weighted_soft_threshold(np.ones(2), np.array([1.0, -1.0]), 1.0)


def test_weighted_soft_threshold_matches_grid_oracle():
    rng = np.random.default_rng(2)
    for _ in range(200):
        v = float(rng.uniform(-5, 5))
        w = float(rng.uniform(0, 3))
        s = float(rng.uniform(0, 2))
        got = weighted_soft_threshold(np.array([v]), np.array([w]), s)[0]
        lo = -abs(v) - 1.0
        hi = abs(v) + 1.0
        want = grid_minimize_1d(lambda t: shrink_objective(t, v, w, s), lo, hi)
        assert abs(got - want) <= 1e-8


def test_bad_bounds_raise():
    with pytest.raises(ValueError):
        BoxBounds(np.array([1.0]), np.array([0.0]))


def test_nonneg_project():
    out = nonneg_project(np.array([-2.0, 0.0, 3.0]))
    assert np.array_equal(out, np.array([0.0, 0.0, 3.0]))


def test_soft_threshold_nonexpansive():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        x = rng.standard_normal(5) * 3
        y = rng.standard_normal(5) * 3
        t = float(rng.random() * 2)
        assert (
            np.linalg.norm(soft_threshold(x, t) - soft_threshold(y, t))
            <= np.linalg.norm(x - y) + 1e-12
        )


def test_prox_quadratic_ls_zero_data_is_identity():
    z = np.array([1.0, -2.0, 0.5])
    out = quadratic_ls_prox(np.zeros((2, 3)), np.zeros(2), 0.0, 1.0, 1.0)(z, 1.0)
    assert np.allclose(out, z, atol=1e-12)


def test_prox_quadratic_ls_scalar_example():
    # min 0.5*(x-2)^2 + 0.5*x^2 has minimizer 1
    out = quadratic_ls_prox(np.eye(1), np.array([2.0]), 0.0, 1.0, 1.0)(np.array([0.0]), 1.0)
    assert out[0] == pytest.approx(1.0, abs=1e-12)


@st.composite
def ls_problems(draw):
    """(A, y, z, lam, beta): dense or CSR A with m < n, m = n or m > n."""
    m, n = draw(st.integers(1, 14)), draw(st.integers(1, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((m, n))
    if draw(st.booleans()):
        A[rng.random((m, n)) < draw(st.floats(0.0, 0.9))] = 0.0
        A = sp.csr_matrix(A)
    y = rng.standard_normal(m)
    z = rng.standard_normal(n) * draw(st.sampled_from([1.0, 1e-3, 1e3]))
    lam = draw(st.sampled_from([0.0, 1e-3, 0.1, 10.0]))
    beta = 10.0 ** draw(st.floats(-3.0, 3.0))
    return A, y, z, lam, beta


def dense(A) -> np.ndarray:
    return A.toarray() if sp.issparse(A) else A


@settings(max_examples=300, deadline=None)
@given(problem=ls_problems())
def test_prox_quadratic_ls_first_order_optimality(problem):
    A, y, z, lam, beta = problem
    m = A.shape[0]
    z_before = z.copy()
    x = quadratic_ls_prox(A, y, lam, float(m), beta)(z, beta)
    assert np.array_equal(z, z_before)
    D = dense(A)
    grad = D.T @ (D @ x - y) / m + 2 * lam * x + (x - z) / beta
    assert np.linalg.norm(grad) <= 1e-12 * (1 + np.linalg.norm(z))


@settings(max_examples=100, deadline=None)
@given(problem=ls_problems())
def test_prox_quadratic_ls_matches_dense_solve(problem):
    A, y, z, lam, beta = problem
    m, n = A.shape
    D = dense(A)
    S = np.eye(n) / beta + D.T @ D / m + 2 * lam * np.eye(n)
    want = np.linalg.solve(S, z / beta + D.T @ y / m)
    got = quadratic_ls_prox(A, y, lam, float(m), beta)(z, beta)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def test_prox_quadratic_ls_is_built_for_one_step():
    prox = quadratic_ls_prox(np.eye(2), np.ones(2), 0.0, 2.0, 0.5)
    prox(np.zeros(2), 0.5)
    with pytest.raises(ValueError, match="step"):
        prox(np.zeros(2), 0.25)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_prox_quadratic_ls_rejects_non_finite_input(bad):
    prox = quadratic_ls_prox(np.eye(3), np.ones(3), 0.0, 1.0, 1.0)
    z = np.array([1.0, bad, 0.0])
    with pytest.raises(FloatingPointError):
        prox(z, 1.0)
    assert np.array_equal(z, [1.0, bad, 0.0], equal_nan=True)


def test_prox_quadratic_ls_argument_checks():
    A, y = np.eye(2), np.ones(2)
    with pytest.raises(ValueError):
        quadratic_ls_prox(A, y, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        quadratic_ls_prox(A, y, 0.0, 0.0, 1.0)
    # lam = -1 shifts the diagonal of A.T A = I by 1 + 2*lam = -1
    with pytest.raises(np.linalg.LinAlgError):
        quadratic_ls_prox(A, y, -1.0, 1.0, 1.0)

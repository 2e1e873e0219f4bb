import math
import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aaopt.algorithms import (
    FixedPointOperator,
    admm_step,
    drs_parts,
    irl1_beta_window,
    irl1_step,
    pcd_sweep,
    pga_step,
)
from aaopt.algorithms import _require_finite
from aaopt.problems import LassoInstance, SvmDualInstance, lasso_objective, phi_deriv, svm_dual_objective
from aaopt.prox import BoxBounds, quadratic_ls_prox, soft_threshold
from oracles import irl1_step_reference


def l1_prox(lam, beta):
    """prox_{beta * lam * ||.||_1}."""
    return lambda v: soft_threshold(v, lam * beta)


# ---------------------------------------------------------------------------
# operator wrapper


def test_fixed_point_operator_monitor():
    objective = lambda X: np.zeros(len(X))
    op = FixedPointOperator(dimension=3, apply=lambda x: 0.5 * x, objective=objective)
    x = np.array([2.0, -4.0, 0.0])
    assert op.monitor_vector(x) is x  # defaults to the iterate itself

    op2 = FixedPointOperator(dimension=3, apply=lambda x: x, objective=objective, monitor=lambda x: x[:2])
    assert np.array_equal(op2.monitor_vector(x), x[:2])


def test_fixed_point_operator_requires_an_objective():
    with pytest.raises(TypeError, match="objective"):
        FixedPointOperator(dimension=3, apply=lambda x: 0.5 * x)


# ---------------------------------------------------------------------------
# proximal gradient


def test_pga_step_hand_value():
    # A = I and y = a: f(x) = 0.5||x - a||^2, g = 0.3 ||.||_1, beta = 1: one
    # step from a lands on the exact minimizer soft(a, 0.3).
    a = np.array([1.0, -0.1, 0.5])
    out = pga_step(np.eye(3), a, 0.3, 1.0)(a)
    assert np.array_equal(out, soft_threshold(a, 0.3))


def test_pga_step_fixed_point_at_minimizer():
    a = np.array([1.0])
    star = soft_threshold(a, 0.3)  # argmin 0.5(x-1)^2 + 0.3|x|
    out = pga_step(np.eye(1), a, 0.3, 1.0)(star)
    assert np.allclose(out, star, atol=1e-15)


def test_pga_step_nonfinite_gradient_raises():
    with pytest.raises(FloatingPointError):
        pga_step(np.eye(3), np.array([np.nan, 0.0, 0.0]), 1.0, 1.0)(np.ones(3))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_huge_finite_gradients_pass_silently_and_non_finite_ones_raise(bad):
    huge = np.array([1e200, -1e200, 3.0])  # finite, but huge.huge overflows
    assert _require_finite(huge, "v") is huge
    # A = I and y = -g make the gradient at 0 equal g
    out = pga_step(np.eye(3), -huge, 0.5, 1.0)(np.zeros(3))
    assert np.array_equal(out, [-1e200, 1e200, -2.5])
    with pytest.raises(FloatingPointError, match="gradient is non-finite"):
        pga_step(np.eye(3), -np.array([1e200, bad, 3.0]), 0.5, 1.0)(np.zeros(3))


def test_pga_step_rejects_bad_beta():
    with pytest.raises(ValueError):
        pga_step(np.eye(2), np.ones(2), 1.0, -1.0)


NAN_STEPS = [
    ("pga_step: beta must be positive", lambda: pga_step(np.eye(2), np.ones(2), 1.0, math.nan)),
    ("pga_step: lam must be nonnegative", lambda: pga_step(np.eye(2), np.ones(2), math.nan, 1.0)),
    ("pcd_sweep: beta must be positive",
     lambda: pcd_sweep(np.eye(2), 0.0, BoxBounds(0.0, 1.0), math.nan)),
    ("irl1_step: beta must be positive",
     lambda: irl1_step(lambda x: x, 0.5, 0.1, math.nan, 0.5, np.ones(4))),
    ("irl1_step: lam must be nonnegative",
     lambda: irl1_step(lambda x: x, 0.5, math.nan, 0.5, 0.5, np.ones(4))),
    ("quadratic_ls_prox: beta must be positive",
     lambda: quadratic_ls_prox(np.eye(2), np.ones(2), 0.0, 1.0, math.nan)),
    ("quadratic_ls_prox: scale_m must be positive",
     lambda: quadratic_ls_prox(np.eye(2), np.ones(2), 0.0, math.nan, 1.0)),
    ("soft_threshold: threshold must be nonnegative", lambda: soft_threshold(np.ones(2), math.nan)),
]


@pytest.mark.parametrize("message, call", NAN_STEPS, ids=[m.split(" must")[0] for m, _ in NAN_STEPS])
def test_a_nan_step_is_refused(message, call):
    # pga_step and pcd_sweep returned NaN vectors for a NaN beta without complaint
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


# ---------------------------------------------------------------------------
# coordinate descent


def test_pcd_sweep_box_quadratic_hand_values():
    # f = 0.5||x||^2 - a.x, i.e. Z = I and q = -a, on the box [0, 1]^2
    a = np.array([2.0, -1.0])
    sweep = pcd_sweep(np.eye(2), -a, BoxBounds(0.0, 1.0), 1.0)
    out = sweep(np.zeros(2))
    assert np.array_equal(out, np.array([1.0, 0.0]))
    # the clipped point is the constrained minimizer, hence a fixed point
    assert np.array_equal(sweep(out), out)


def test_pcd_sweep_sees_partial_updates():
    # f = 0.5 (x0 + x1)^2: the second coordinate must be updated against the
    # already-updated first one.
    out = pcd_sweep(np.ones((2, 1)), 0.0, BoxBounds(-np.inf, np.inf), 0.5)(np.array([1.0, 1.0]))
    assert np.array_equal(out, np.array([0.0, 0.5]))  # a Jacobi pass would give (0, 0)


def test_pcd_sweep_does_not_mutate_input():
    x = np.array([1.0, 1.0])
    pcd_sweep(np.eye(2), 0.0, BoxBounds(-np.inf, np.inf), 0.5)(x)
    assert np.array_equal(x, np.array([1.0, 1.0]))


def test_pcd_sweep_rejects_bad_beta():
    with pytest.raises(ValueError):
        pcd_sweep(np.eye(2), 0.0, BoxBounds(-np.inf, np.inf), 0.0)


@pytest.mark.parametrize("lower,upper,name", [
    (np.nan, 1.0, "lower"),
    (-1.0, np.nan, "upper"),
    (np.array([-1.0, np.nan]), 1.0, "lower"),
])
def test_pcd_sweep_rejects_nan_bounds(lower, upper, name):
    # the clip would drop a NaN bound and return a point outside the box;
    # the sweep takes a BoxBounds, which refuses one
    with pytest.raises(ValueError, match="BoxBounds: %s is NaN somewhere" % name):
        pcd_sweep(np.eye(2), -1.0, BoxBounds(lower, upper), 0.5)


@pytest.mark.parametrize("lower,upper", [
    (1.0, 0.0),
    (0.0, -np.inf),
    (np.array([-1.0, 2.0]), np.array([1.0, 1.5])),
    (0.0, np.array([1.0, -1.0])),
])
def test_pcd_sweep_rejects_an_empty_box(lower, upper):
    # the clip would return the upper bound from every point; BoxBounds refuses the box
    with pytest.raises(ValueError, match="BoxBounds: lower exceeds upper somewhere"):
        pcd_sweep(np.eye(2), 0.0, BoxBounds(lower, upper), 0.5)


def test_pcd_sweep_takes_a_box_of_one_point():
    sweep = pcd_sweep(np.eye(2), 0.0, BoxBounds(np.array([1.0, -2.0]), np.array([1.0, -2.0])), 0.5)
    assert np.array_equal(sweep(np.array([5.0, 5.0])), [1.0, -2.0])


def test_pcd_sweep_checks_per_coordinate_lengths():
    with pytest.raises(ValueError, match="upper"):
        pcd_sweep(np.eye(3), 0.0, BoxBounds(0.0, np.ones(2)), 1.0)


OPEN = st.sampled_from([False, False, True])  # a bound is infinite a third of the time


@st.composite
def box_quadratics(draw):
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 6))
    # about half the entries exactly zero, so rows may be empty
    values = draw(st.lists(st.floats(-10.0, 10.0), min_size=m * n, max_size=m * n))
    keep = draw(st.lists(st.booleans(), min_size=m * n, max_size=m * n))
    Z = np.where(keep, values, 0.0).reshape(m, n)
    q = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=m, max_size=m)))
    lower, upper = [], []
    for _ in range(m):
        a, b = sorted(draw(st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=2)))
        lower.append(-math.inf if draw(OPEN) else a)
        upper.append(math.inf if draw(OPEN) else b)
    x = np.array(draw(st.lists(st.floats(-20.0, 20.0), min_size=m, max_size=m)))
    scale = float(np.max(np.einsum("ij,ij->i", Z, Z)))
    beta = draw(st.floats(0.05, 1.0)) / max(scale, 1e-3)
    return Z, q, np.array(lower), np.array(upper), x, beta


@settings(max_examples=300, deadline=None)
@given(box_quadratics())
def test_pcd_sweep_on_csr_matches_the_dense_sweep(problem):
    Z, q, lower, upper, x, beta = problem
    before = x.tobytes()
    dense = pcd_sweep(Z, q, BoxBounds(lower, upper), beta)(x)
    csr = pcd_sweep(sp.csr_matrix(Z), q, BoxBounds(lower, upper), beta)(x)
    assert x.tobytes() == before
    assert csr.shape == dense.shape == x.shape
    scale = 1.0 + float(np.max(np.abs(x))) + float(np.max(np.abs(dense)))
    assert float(np.max(np.abs(csr - dense))) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# the maps' readout

U = 2.0**-53  # the unit roundoff of float64


@st.composite
def readout_maps(draw):
    """A lasso or svm map, dense or CSR, as the harness builds it; its objective; a point.

    The rows of the matrix span ten decades and about a third of its entries
    are exact zeros.  Returns the map, the problem's objective at one point,
    the matrix |M| by which the objective's quadratic vector is formed (A for
    lasso, Z = y .* A for svm), the vector |y| taken off it, and the weight
    of the linear term (lam for lasso, 1 for svm).
    """
    family, csr = draw(st.sampled_from(["lasso", "svm"])), draw(st.booleans())
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-5.0, 5.0, size=(m, 1))
    A[rng.random((m, n)) < 0.3] = 0.0
    y = rng.standard_normal(m) * 10.0 ** rng.uniform(-2.0, 2.0)
    step = draw(st.floats(0.1, 1.9))
    if family == "lasso":
        lam = draw(st.floats(0.0, 2.0))
        inst = LassoInstance(A=sp.csr_matrix(A) if csr else A, y=y, lam=lam)
        apply = pga_step(inst.A, y, lam, step / max(np.linalg.norm(A, 2) ** 2, 1e-300))
        return apply, lambda x: lasso_objective(inst, x), np.abs(A), np.abs(y), lam, n
    y = np.sign(y) + (y == 0.0)  # labels +-1
    Z = y[:, None] * A
    inst = SvmDualInstance(A=sp.csr_matrix(A) if csr else A, y=y, C=draw(st.floats(1e-3, 1e3)))
    if csr:  # A's sparsity structure, scaled row by row, as the harness builds it
        Zc = inst.A.copy()
        Zc.data *= np.repeat(y, np.diff(Zc.indptr))
    apply = pcd_sweep(Zc if csr else Z, -1.0, BoxBounds(0.0, inst.C),
                      step / max(float(np.max(np.einsum("ij,ij->i", Z, Z))), 1e-300))
    return apply, lambda x: svm_dual_objective(inst, x), np.abs(Z).T, np.zeros(n), 1.0, m


@settings(max_examples=400, deadline=None)
@given(case=readout_maps(), seed=st.integers(0, 2**32 - 1))
def test_each_evaluation_reads_out_the_residual_norm_and_the_objective(case, seed):
    apply, objective, M, y_abs, weight, dim = case
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(dim) * 10.0 ** rng.uniform(-3.0, 3.0, size=dim)
    assert np.isnan(apply.readout).all()
    with pytest.raises(ValueError, match="read-only"):
        apply.readout[0] = 0.0
    for _ in range(3):  # each evaluation overwrites the readout
        h = apply(x)
        d = h - x
        got_norm, got = apply.readout.tolist()
        assert got_norm == math.sqrt(float(d.dot(d)))
        # Each form of f = 0.5*w.w + weight*sum|x_i| (lasso) or - sum x_i (svm),
        # with w = M x - y, lies within gamma_k*(b.b + weight*||x||_1) + u*|f|
        # of the exact value, where b = |M||x| + |y| bounds each term of w and
        # gamma_k = k*u/(1 - k*u) with k = 2*(m + n) + 4 bounds the
        # accumulated rounding of w, of w.w and of the sums, in any order
        # (Higham, Accuracy and Stability of Numerical Algorithms, 3.1).  Two
        # forms are within twice that of each other.
        want = float(objective(x))
        b = M @ np.abs(x) + y_abs
        k = 2 * (M.shape[0] + M.shape[1]) + 4
        bound = 2.0 * k * U / (1.0 - k * U) * (float(b @ b) + weight * float(np.abs(x).sum()))
        assert abs(got - want) <= bound + U * (abs(got) + abs(want)), (got, want, bound)
        x = h


# ---------------------------------------------------------------------------
# Douglas--Rachford


def test_drs_parts_rejects_delta_outside_0_2():
    identity = lambda v: v
    for delta in (0.0, 2.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="delta must lie in"):
            drs_parts(identity, identity, delta, np.ones(2))


@pytest.mark.parametrize("delta", [1.0, 1.5])
def test_drs_converges_to_shrunk_minimizer(delta):
    # min 0.5||x - a||^2 + 0.4||x||_1 has minimizer soft(a, 0.4)
    a = np.array([2.0, -0.2, 1.0, 0.05])
    beta = 0.7
    f_prox = lambda v: (v + beta * a) / (1.0 + beta)
    g_prox = l1_prox(0.4, beta)
    z = np.zeros(4)
    for _ in range(300):
        x, y, z = drs_parts(f_prox, g_prox, delta, z)
    star = soft_threshold(a, 0.4)
    assert np.linalg.norm(x - star) <= 1e-10
    assert np.linalg.norm(y - star) <= 1e-10


# ---------------------------------------------------------------------------
# ADMM


def _coupled_quadratic_minimizers(P1, q1, P2, q2, A, B, b, lam):
    def phi1_min(w, v):
        rhs = -q1 - A.T @ v - lam * (A.T @ (B @ w - b))
        return np.linalg.solve(P1 + lam * A.T @ A, rhs)

    def phi2_min(u, v):
        rhs = -q2 - B.T @ v - lam * (B.T @ (A @ u - b))
        return np.linalg.solve(P2 + lam * B.T @ B, rhs)

    return phi1_min, phi2_min


def test_admm_one_step_hand_values():
    # min 0.5 u^2 + 0.5 w^2 subject to u + w = 1, lam = 1, from zeros.
    one = np.array([[1.0]])
    b = np.array([1.0])
    phi1_min, phi2_min = _coupled_quadratic_minimizers(
        one, np.zeros(1), one, np.zeros(1), one, one, b, 1.0
    )
    u, v, w = admm_step(phi1_min, phi2_min, one, one, b, 1.0, (np.zeros(1), np.zeros(1), np.zeros(1)))
    assert np.allclose(u, [0.5], atol=1e-15)
    assert np.allclose(v, [-0.5], atol=1e-15)
    assert np.allclose(w, [0.5], atol=1e-15)


def test_admm_tracks_drs_on_image_functions():
    # With x = A u, y = b - B w and beta = 1/lam, the ADMM iterates must
    # reproduce the DRS parts exactly: A u = x, b - B w = y, and the shadow
    # point b - B w - v/lam equals the updated z.
    P1 = np.array([[3.0, 1.0], [1.0, 2.0]])
    q1 = np.array([0.5, -1.0])
    P2 = np.array([[2.0, 0.0], [0.0, 1.0]])
    q2 = np.array([1.0, 0.0])
    A = np.array([[2.0, 0.0], [1.0, 1.0]])
    B = np.array([[1.0, 1.0], [0.0, 3.0]])
    b = np.array([1.0, -2.0])
    lam = 0.7

    phi1_min, phi2_min = _coupled_quadratic_minimizers(P1, q1, P2, q2, A, B, b, lam)

    t = 1.0 / lam  # the DRS step

    def f_prox(z):
        u = np.linalg.solve(P1 + (A.T @ A) / t, -q1 + (A.T @ z) / t)
        return A @ u

    def g_prox(z):
        w = np.linalg.solve(P2 + (B.T @ B) / t, -q2 + (B.T @ (b - z)) / t)
        return b - B @ w

    u = np.zeros(2)
    v = np.zeros(2)
    w = np.zeros(2)
    z = b - B @ w - v / lam
    for _ in range(25):
        x_drs, y_drs, z = drs_parts(f_prox, g_prox, 1.0, z)
        u, v, w = admm_step(phi1_min, phi2_min, A, B, b, lam, (u, v, w))
        assert np.allclose(A @ u, x_drs, atol=1e-10)
        assert np.allclose(b - B @ w, y_drs, atol=1e-10)
        assert np.allclose(b - B @ w - v / lam, z, atol=1e-10)


def test_admm_rejects_bad_lam():
    one = np.array([[1.0]])
    with pytest.raises(ValueError):
        admm_step(
            lambda w, v: w, lambda u, v: u, one, one, np.zeros(1), 0.0,
            (np.zeros(1), np.zeros(1), np.zeros(1)),
        )


# ---------------------------------------------------------------------------
# reweighted l1


def test_irl1_step_hand_values():
    # p = 0.5: the weight at |0.8| + 0.2 = 1 is 0.5 * 1^-0.5 = 0.5 exactly, so
    # the shrinkage threshold is beta * lam * w = 0.25.
    out = irl1_step(lambda x: np.zeros_like(x), 0.5, 0.5, 1.0, 0.5, np.array([0.8, 0.2]))
    assert out[0] == 0.8 - 0.25
    assert out[1] == 0.1
    # p = 0.75: the weight at |1.5| + 14.5 = 16 is 0.75 * 16^-0.25 = 0.375, so
    # the threshold is 0.125 * 0.375 and the gradient step moves x by 0.5 * 1.
    out = irl1_step(lambda x: np.full_like(x, -1.0), 0.75, 0.25, 0.5, 0.5, np.array([1.5, 14.5]))
    assert out[0] == pytest.approx(1.5 + 0.5 - 0.125 * 0.375, rel=1e-15)
    assert out[1] == 7.25


def test_irl1_eps_decays_geometrically():
    theta = np.array([1.0, 1.0, 1.0, 1.0, 2.0, 4.0])
    for _ in range(5):
        theta = irl1_step(lambda x: np.zeros_like(x), 0.5, 0.1, 0.5, 0.5, theta)
    assert np.array_equal(theta[3:], np.array([1.0, 2.0, 4.0]) * 0.5**5)


@pytest.mark.filterwarnings("error")
def test_irl1_step_pins_coordinates_where_the_power_weight_is_infinite():
    # An eps below the domain counts as 0 in the weights.  Coordinate 0 then
    # gets the weight 0.5 * 1^-0.5 (not 0.5 * 0.25^-0.5), so its threshold is
    # beta * lam * 0.5 = 0.025.  At coordinates 1 and 2 |x_i| + max(eps_i, 0)
    # is 0, where the LPN weight is +inf: they stay at 0 although the
    # gradient pushes them away.
    assert phi_deriv(0.5, np.array([1.0, 0.0, 0.0])).tolist() == [0.5, math.inf, math.inf]
    theta = np.array([1.0, 0.0, -0.0, -0.75, 0.0, -2.0])
    out = irl1_step(lambda x: np.full_like(x, -1.0), 0.5, 0.1, 0.5, 0.5, theta)
    assert out.tolist() == [1.0 + 0.5 - 0.025, 0.0, 0.0, -0.375, 0.0, -1.0]


TINY = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308])
# at most 1e300 in size, so that with beta <= 1 neither x - beta * g nor |x| + eps overflows
FINITE = st.one_of(TINY, st.floats(-1e300, 1e300, allow_subnormal=True))
NONPOSITIVE = st.one_of(st.sampled_from([0.0, -0.0, -5e-324]), st.floats(-1e300, 0.0))


@st.composite
def irl1_inputs(draw):
    """(p, lam, beta, mu, theta, g) with pinned coordinates, signed zeros and subnormal sums."""
    n = draw(st.integers(1, 6))
    x = [draw(FINITE) for _ in range(n)]
    # x = +-0 with eps <= 0 pins a coordinate
    eps = [draw(st.one_of(NONPOSITIVE, FINITE)) for _ in range(n)]
    g = [draw(st.one_of(st.just(0.0), FINITE)) for _ in range(n)]
    p = draw(st.one_of(st.just(0.01), st.floats(0.01, 0.99)))
    lam, beta, mu = draw(st.floats(1e-6, 1.0)), draw(st.floats(1e-3, 1.0)), draw(st.floats(0.01, 0.99))
    return p, lam, beta, mu, np.array(x + eps), np.array(g)


@pytest.mark.filterwarnings("error")
@settings(max_examples=500, deadline=None)
@given(irl1_inputs())
@example((0.5, 0.1, 0.5, 0.5, np.array([1.0, 0.0, -0.0, -0.75, 0.0, -2.0]), np.array([-1.0, -1.0, 1.0])))
@example((0.01, 0.5, 1.0, 0.9, np.array([1e-320, -0.0, 0.0, 5e-324, -0.0, 0.0]), np.array([2.0, -3.0, 1e-310])))
@example((0.3, 1e-6, 1e-3, 0.5, np.array([-0.0, 1e300, -1e300, 0.0]), np.array([1e300, -1e300])))
def test_irl1_step_matches_the_masked_step_bitwise(case):
    # an infinite threshold pins a coordinate as the masked step's np.where did
    p, lam, beta, mu, theta, g = case
    out = irl1_step(lambda x: g, p, lam, beta, mu, theta)
    with np.errstate(over="ignore"):  # the reference's weights overflow where the library's are inf
        want = irl1_step_reference(lambda x: g, p, lam, beta, mu, theta)
    assert out.tobytes() == want.tobytes()


@pytest.mark.filterwarnings("error")
def test_irl1_step_without_a_penalty_leaves_an_overflowing_weight_unshrunk():
    # p = 0.01 at |x_0| = 1e-320 overflows the weight to inf, and lam = 0 makes
    # the threshold 0, not 0 * inf = NaN
    out = irl1_step(lambda x: 0 * x, 0.01, 0.0, 0.5, 0.9, np.array([1e-320, 1.0, 0.0, 0.0]))
    assert out.tolist() == [1e-320, 1.0, 0.0, 0.0]


@pytest.mark.filterwarnings("error")
def test_irl1_step_without_a_penalty_takes_the_gradient_step_at_a_pinned_coordinate():
    # |x_0| + max(eps_0, 0) = 0 pins x_0 only under a penalty; lam = 0 steps it to -beta * g_0
    theta = np.array([0.0, 2.0, -0.5, 0.0])
    out = irl1_step(lambda x: np.array([-1.0, 0.5]), 0.5, 0.0, 0.5, 0.5, theta)
    assert out.tolist() == [0.5, 1.75, -0.25, 0.0]


def test_irl1_step_parameter_validation():
    theta = np.ones(2)
    grad = lambda x: np.zeros_like(x)
    with pytest.raises(ValueError):
        irl1_step(grad, 0.5, 0.1, 0.0, 0.5, theta)
    with pytest.raises(ValueError):
        irl1_step(grad, 0.5, 0.1, 0.5, 1.0, theta)
    with pytest.raises(ValueError):
        irl1_step(grad, 0.5, -0.1, 0.5, 0.5, theta)
    # the power must stay in (0, 1)
    for p in (1.0, 0.0, -0.5, math.nan):
        with pytest.raises(ValueError, match=re.escape("p must lie in (0, 1)")):
            irl1_step(grad, p, 0.1, 0.5, 0.5, theta)
    with pytest.raises(ValueError, match="even length"):
        irl1_step(grad, 0.5, 0.1, 0.5, 0.5, np.ones(3))
    with pytest.raises(FloatingPointError):
        irl1_step(lambda x: x * np.inf, 0.5, 0.1, 0.5, 0.5, theta)


def test_irl1_beta_window_hand_values():
    lo, hi = irl1_beta_window(1.0, 0.0, 0.0, 0.5)
    assert math.isclose(lo, 0.5, rel_tol=1e-15)
    assert math.isclose(hi, 1.5, rel_tol=1e-15)


def test_irl1_beta_window_rejects_incompatible_mu():
    with pytest.raises(ValueError, match="admissible window"):
        irl1_beta_window(1.0, 1.0, 1.0, 0.5)


def test_irl1_beta_window_roots_satisfy_quadratic():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 100:
        kappa = float(rng.uniform(0.2, 3.0))
        lam = float(rng.uniform(0.0, 1.0))
        l_omega = float(rng.uniform(0.0, 2.0))
        mu = float(rng.uniform(0.01, 0.99))
        a = kappa**2 + (lam * l_omega) ** 2
        if 4.0 * kappa**2 - 4.0 * a * (2.0 * mu - mu**2) < 0:
            continue
        lo, hi = irl1_beta_window(kappa, lam, l_omega, mu)
        assert lo <= hi
        for root in (lo, hi):
            val = a * root**2 - 2.0 * kappa * root + (2.0 * mu - mu**2)
            assert abs(val) <= 1e-12 * max(1.0, a)
        checked += 1


def test_irl1_beta_window_parameter_validation():
    with pytest.raises(ValueError):
        irl1_beta_window(0.0, 1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        irl1_beta_window(1.0, -1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        irl1_beta_window(1.0, 1.0, 1.0, 1.5)

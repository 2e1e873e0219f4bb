import math
import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aaopt.algorithms import (
    DrsParams,
    FixedPointOperator,
    FistaState,
    admm_step,
    drs_parts,
    fista_init,
    fista_step,
    irl1_beta_window,
    irl1_step,
    pcd_sweep,
    pga_step,
)
from aaopt.algorithms import _require_finite
from aaopt.problems import phi_deriv
from aaopt.prox import soft_threshold


def l1_prox(lam):
    return lambda v, t: soft_threshold(v, lam * t)


# ---------------------------------------------------------------------------
# operator wrapper


def test_fixed_point_operator_residual_and_monitor():
    op = FixedPointOperator(dimension=3, apply=lambda x: 0.5 * x)
    x = np.array([2.0, -4.0, 0.0])
    assert np.array_equal(op.residual(x), -0.5 * x)
    assert op.monitor_vector(x) is x  # defaults to the iterate itself

    op2 = FixedPointOperator(dimension=3, apply=lambda x: x, monitor=lambda x: x[:2])
    assert np.array_equal(op2.monitor_vector(x), x[:2])


# ---------------------------------------------------------------------------
# proximal gradient


def test_pga_step_hand_value():
    # f(x) = 0.5||x - a||^2, g = 0.3 ||.||_1, beta = 1: one step from a lands
    # on the exact minimizer soft(a, 0.3).
    a = np.array([1.0, -0.1, 0.5])
    out = pga_step(lambda x: x - a, l1_prox(0.3), 1.0, a)
    assert np.array_equal(out, soft_threshold(a, 0.3))


def test_pga_step_fixed_point_at_minimizer():
    a = np.array([1.0])
    star = soft_threshold(a, 0.3)  # argmin 0.5(x-1)^2 + 0.3|x|
    out = pga_step(lambda x: x - a, l1_prox(0.3), 1.0, star)
    assert np.allclose(out, star, atol=1e-15)


def test_pga_step_nonfinite_gradient_raises():
    with pytest.raises(FloatingPointError):
        pga_step(lambda x: x * np.nan, l1_prox(1.0), 1.0, np.ones(3))


@settings(max_examples=500, deadline=None)
@given(st.lists(st.one_of(st.floats(), st.sampled_from([1e200, -1e200, 1.7e308, math.nan, math.inf])),
                max_size=16))
@example([1e200, -1e200, 3.0])  # finite, but v.v overflows to inf
@example([1e200, math.nan])
@example([-math.inf, 1.0])
@example([])
def test_require_finite_raises_iff_an_entry_is_not_finite(entries):
    v = np.array(entries, dtype=float)
    with np.errstate(all="ignore"):  # the fast test's dot may overflow
        if np.isfinite(v).all():
            assert _require_finite(v, "v") is v
        else:
            with pytest.raises(FloatingPointError, match="v is non-finite"):
                _require_finite(v, "v")


def test_pga_step_rejects_bad_beta():
    with pytest.raises(ValueError):
        pga_step(lambda x: x, l1_prox(1.0), -1.0, np.ones(2))


# ---------------------------------------------------------------------------
# accelerated comparator


def test_fista_init_state():
    x0 = np.array([1.0, 2.0])
    st = fista_init(x0)
    assert np.array_equal(st.x, x0)
    assert np.array_equal(st.y, x0)
    assert st.t == 1.0


def test_fista_first_step_matches_plain_gradient_step():
    a = np.array([2.0, -1.0, 0.3])
    grad = lambda x: x - a
    x0 = np.array([5.0, 5.0, 5.0])
    apply = lambda x: pga_step(grad, l1_prox(0.2), 0.4, x)
    st = fista_step(fista_init(x0), apply)
    assert np.array_equal(st.x, apply(x0))
    # t0 = 1 means zero momentum on the first step
    assert np.array_equal(st.y, st.x)


def test_fista_t_sequence_recurrence():
    st = fista_init(np.zeros(1))
    apply = lambda x: pga_step(lambda v: v, l1_prox(0.0), 0.1, x)
    ts = [st.t]
    for _ in range(10):
        st = fista_step(st, apply)
        ts.append(st.t)
    assert math.isclose(ts[1], (1.0 + math.sqrt(5.0)) / 2.0, rel_tol=1e-15)
    for k in range(10):
        want = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * ts[k] ** 2))
        assert math.isclose(ts[k + 1], want, rel_tol=1e-15)
    assert all(b > a for a, b in zip(ts, ts[1:]))


def test_fista_converges_to_shrunk_minimizer():
    a = np.array([2.0, -0.15, 0.9, 0.0])
    star = soft_threshold(a, 0.3)
    apply = lambda x: pga_step(lambda v: v - a, l1_prox(0.3), 0.4, x)
    st = fista_init(np.array([10.0, -10.0, 10.0, -10.0]))
    for _ in range(150):
        st = fista_step(st, apply)
    assert np.linalg.norm(st.x - star) <= 1e-10


def test_fista_state_is_immutable():
    st = fista_init(np.zeros(2))
    with pytest.raises(AttributeError):
        st.t = 2.0
    assert isinstance(st, FistaState)


# ---------------------------------------------------------------------------
# coordinate descent


def test_pcd_sweep_box_quadratic_hand_values():
    # f = 0.5||x||^2 - a.x, i.e. Z = I and q = -a, on the box [0, 1]^2
    a = np.array([2.0, -1.0])
    sweep = pcd_sweep(np.eye(2), -a, 0.0, 1.0, 1.0)
    out = sweep(np.zeros(2))
    assert np.array_equal(out, np.array([1.0, 0.0]))
    # the clipped point is the constrained minimizer, hence a fixed point
    assert np.array_equal(sweep(out), out)


def test_pcd_sweep_sees_partial_updates():
    # f = 0.5 (x0 + x1)^2: the second coordinate must be updated against the
    # already-updated first one.
    out = pcd_sweep(np.ones((2, 1)), 0.0, -np.inf, np.inf, 0.5)(np.array([1.0, 1.0]))
    assert np.array_equal(out, np.array([0.0, 0.5]))  # a Jacobi pass would give (0, 0)


def test_pcd_sweep_does_not_mutate_input():
    x = np.array([1.0, 1.0])
    pcd_sweep(np.eye(2), 0.0, -np.inf, np.inf, 0.5)(x)
    assert np.array_equal(x, np.array([1.0, 1.0]))


def test_pcd_sweep_rejects_bad_beta():
    with pytest.raises(ValueError):
        pcd_sweep(np.eye(2), 0.0, -np.inf, np.inf, 0.0)


def test_pcd_sweep_checks_per_coordinate_lengths():
    with pytest.raises(ValueError, match="upper"):
        pcd_sweep(np.eye(3), 0.0, 0.0, np.ones(2), 1.0)


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
    dense = pcd_sweep(Z, q, lower, upper, beta)(x)
    csr = pcd_sweep(sp.csr_matrix(Z), q, lower, upper, beta)(x)
    assert x.tobytes() == before
    assert csr.shape == dense.shape == x.shape
    scale = 1.0 + float(np.max(np.abs(x))) + float(np.max(np.abs(dense)))
    assert float(np.max(np.abs(csr - dense))) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# Douglas--Rachford


def test_drs_params_validation():
    with pytest.raises(ValueError):
        DrsParams(beta=0.0)
    with pytest.raises(ValueError):
        DrsParams(beta=1.0, delta=2.0)
    with pytest.raises(ValueError):
        DrsParams(beta=1.0, delta=0.0)


@pytest.mark.parametrize("delta", [1.0, 1.5])
def test_drs_converges_to_shrunk_minimizer(delta):
    # min 0.5||x - a||^2 + 0.4||x||_1 has minimizer soft(a, 0.4)
    a = np.array([2.0, -0.2, 1.0, 0.05])
    f_prox = lambda v, t: (v + t * a) / (1.0 + t)
    g_prox = l1_prox(0.4)
    params = DrsParams(beta=0.7, delta=delta)
    z = np.zeros(4)
    for _ in range(300):
        x, y, z = drs_parts(f_prox, g_prox, params, z)
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

    def f_prox(z, t):
        u = np.linalg.solve(P1 + (A.T @ A) / t, -q1 + (A.T @ z) / t)
        return A @ u

    def g_prox(z, t):
        w = np.linalg.solve(P2 + (B.T @ B) / t, -q2 + (B.T @ (b - z)) / t)
        return b - B @ w

    params = DrsParams(beta=1.0 / lam, delta=1.0)
    u = np.zeros(2)
    v = np.zeros(2)
    w = np.zeros(2)
    z = b - B @ w - v / lam
    for _ in range(25):
        x_drs, y_drs, z = drs_parts(f_prox, g_prox, params, z)
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


def test_irl1_step_pins_coordinates_where_the_power_weight_is_infinite():
    # An eps below the domain counts as 0 in the weights.  Coordinate 0 then
    # gets the weight 0.5 * 1^-0.5 (not 0.5 * 0.25^-0.5), so its threshold is
    # beta * lam * 0.5 = 0.025.  At coordinates 1 and 2 |x_i| + max(eps_i, 0)
    # is 0, where the LPN weight is undefined: they stay at 0 although the
    # gradient pushes them away.
    with pytest.raises(ValueError, match="coordinate 1"):
        phi_deriv(0.5, np.array([1.0, 0.0, 0.0]))
    theta = np.array([1.0, 0.0, -0.0, -0.75, 0.0, -2.0])
    out = irl1_step(lambda x: np.full_like(x, -1.0), 0.5, 0.1, 0.5, 0.5, theta)
    assert out.tolist() == [1.0 + 0.5 - 0.025, 0.0, 0.0, -0.375, 0.0, -1.0]


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

import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aaopt import _kernels, anderson
from aaopt.anderson import (
    _WEIGHT_FAILURES,
    AaConfig,
    aa_candidate,
    compute_alpha,
    fit_linear_rate,
    init_state,
    safeguarded_step,
)

from aaopt.prox import soft_threshold
from oracles import (
    affine_fixed_point,
    candidate_reference,
    list_aa_step,
    list_compute_alpha,
    list_init_state,
    polyfit_rate_reference,
    state_with_window,
)


def run_aa(apply, x0, cfg, iters):
    """The state, the step diagnostics and the last iterate after ``iters`` steps."""
    state = init_state(apply, x0)
    diags = []
    for _ in range(iters):
        x, d = safeguarded_step(apply, state, cfg)
        diags.append(d)
    return state, diags, x


def test_compute_alpha_single_column():
    assert np.array_equal(compute_alpha(state_with_window(np.array([[2.0], [1.0]]))), np.array([1.0]))


def test_compute_alpha_orthogonal_columns():
    alpha = compute_alpha(state_with_window(np.array([[1.0, 0.0], [0.0, 2.0]])), 0.0)
    # weights split inversely to the squared norms; heavier on the unit column
    assert np.allclose(alpha, [0.8, 0.2], atol=1e-10)


def test_compute_alpha_identical_columns_regularized():
    c = np.array([1.0, 2.0, -1.0])
    alpha = compute_alpha(state_with_window(np.column_stack([c, c])), 1e-8)
    assert np.allclose(alpha, [0.5, 0.5], atol=1e-8)


def test_compute_alpha_sum_contract_random():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 8))
        p = int(rng.integers(1, 7))
        R = rng.standard_normal((n, p))
        tau = float(rng.choice([0.0, 1e-10, 1e-6]))
        alpha = compute_alpha(state_with_window(R), tau)
        assert abs(alpha.sum() - 1.0) <= 1e-12


def test_compute_alpha_reduces_residual_norm():
    # the constrained minimum can never be worse than the newest column alone
    rng = np.random.default_rng(1)
    for _ in range(100):
        R = rng.standard_normal((6, int(rng.integers(2, 6))))
        alpha = compute_alpha(state_with_window(R), 0.0)
        assert np.linalg.norm(R @ alpha) <= np.linalg.norm(R[:, 0]) + 1e-9


def test_compute_alpha_rejects_nonfinite():
    with pytest.raises(ValueError):
        compute_alpha(state_with_window(np.array([[np.nan, 1.0], [0.0, 1.0]])))


@pytest.mark.parametrize("R", [np.array([[np.inf], [1.0]]), np.array([[1.0, 2.0], [np.nan, 0.0]])])
@pytest.mark.parametrize("tau", [0.0, -1.0, math.nan])
def test_a_non_finite_residual_matrix_is_named_first(R, tau):
    # one column included: its weight needs no solve, but R is still checked
    with pytest.raises(ValueError, match="residual matrix contains non-finite entries"):
        compute_alpha(state_with_window(R), tau)


@pytest.mark.parametrize("ncol", [1, 3])
@pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf, -1.0])
def test_compute_alpha_rejects_a_bad_tau_without_calling_lapack(tau, ncol, capfd):
    # NaN used to fall through to the unregularised solve, and inf made
    # LAPACK print a complaint about an illegal argument before failing
    R = np.arange(1.0, 1.0 + 4 * ncol).reshape(4, ncol) ** 2
    with pytest.raises(ValueError, match="compute_alpha: tau must be finite and nonnegative"):
        compute_alpha(state_with_window(R), tau)
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("tau", [0.0, 1.0])
def test_an_overflowing_column_difference_fails_without_calling_lapack(tau, capfd):
    # R is finite but 1e308 - (-1e308) is not; given it, dgelsd printed a
    # DLASCL error before failing, and on some systems never returned
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge in Linear Least Squares"):
        compute_alpha(state_with_window(np.array([[1e308, -1e308], [1.0, 2.0]])), tau)
    assert capfd.readouterr() == ("", "")


def test_a_weight_system_larger_than_lapack_takes_is_refused_before_the_buffers_grow(monkeypatch):
    # a 6-vector with memory m makes systems of up to 6 + m + 1 rows; the
    # buffers of 2*(m+1) entries were allocated and filled before the refusal
    monkeypatch.setattr(anderson, "C_INT_MAX", 9)
    apply = lambda x: 0.5 * x + 1.0
    state = init_state(apply, np.arange(6.0))
    for width in (1, 6):
        hbuf = state.hbuf
        with pytest.raises(ValueError, match="vectors of length 6 make a weight system larger than LAPACK takes"):
            safeguarded_step(apply, state, AaConfig(memory=3))
        assert state.hbuf is hbuf and hbuf.shape == (width, 6) and state.ints.item(1) == width
        safeguarded_step(apply, state, AaConfig(memory=2))  # 6 + 2 + 1 rows fit


@pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning")  # the norms are inf
def test_a_one_column_step_takes_residuals_whose_squares_overflow():
    # the automatic tau of such a history is inf, but one column needs no solve
    apply = lambda x: x + np.array([1e160, -3e160]) * (1.5 + np.sin(x / 1e160))
    state = init_state(apply, np.zeros(2))
    cfg = AaConfig(memory=3, restart_after_rejects=1)
    for _ in range(4):
        assert len(state.r_norms) == 1
        safeguarded_step(apply, state, cfg)


_TAU_OVERFLOWS = re.escape("compute_alpha: the automatic tau 1e-10*||R||_F^2 overflows")


def test_an_overflowing_automatic_tau_is_named_without_a_warning():
    # each entry is finite, but the squares' sum is not; numpy's (R*R).sum()
    # warned, and the step then refused a tau that no caller gave
    state = state_with_window(np.array([[1e160, 2e160], [1.0, -3e160]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=_TAU_OVERFLOWS):
            compute_alpha(state, None)


@pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning")  # the norms are inf
def test_a_step_whose_automatic_tau_overflows_names_it():
    apply = lambda x: x + np.array([1e160, -3e160]) * (1.5 + np.sin(x / 1e160))
    state = init_state(apply, np.zeros(2))
    cfg = AaConfig(memory=3)
    safeguarded_step(apply, state, cfg)  # one column: no solve, so no tau
    with pytest.raises(ValueError, match=_TAU_OVERFLOWS):
        safeguarded_step(apply, state, cfg)


@st.composite
def weight_systems(draw):
    n = draw(st.one_of(st.integers(1, 12), st.integers(1, 300)))
    ncol = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["normal", "collinear", "small integers"]))
    if kind == "small integers":  # exact zeros of both signs, exact ties
        R = rng.choice([0.0, -0.0, 1.0, -1.0, 2.0], size=(n, ncol))
    else:
        spread = draw(st.sampled_from([0.0, 1e-15, 1e-8])) if kind == "collinear" else 1.0
        R = rng.standard_normal(n)[:, None] + spread * rng.standard_normal((n, ncol))
    max_exp = draw(st.integers(0, 150))
    R = R * 10.0 ** rng.integers(-max_exp, max_exp, size=ncol, endpoint=True)
    # None is the automatic tau; "auto" passes the same tau explicitly
    tau = draw(st.one_of(st.just(0.0), st.just(None), st.just("auto"), st.floats(1e-300, 1e3)))
    if tau == "auto":
        tau = 1e-10 * float((R * R).sum())
    return R, tau, draw(st.integers(0, 4))


@settings(max_examples=400, deadline=None)
@given(case=weight_systems())
@example(case=(np.array([[1.0, 2.0, 4.0]]), 0.0, 0))  # underdetermined: one row, two unknowns
@example(case=(np.array([[1.0, 1.0], [2.0, 2.0]]), 0.0, 1))  # rank deficient: the minimum-norm solution
# a duplicated column with tau = 0: no ridge, LAPACK's minimum-norm solution
@example(case=(np.array([[1.0, 2.0, 2.0], [0.0, -1.0, -1.0], [3.0, 1.0, 1.0]]), 0.0, 2))
@example(case=(np.zeros((3, 3)), 0.0, 0))  # rank 0: theta = 0, so alpha = e_0
@example(case=(np.array([[-0.0, -1.0], [1.0, 1.0]]), 0.0, 3))
@example(case=(np.array([[1.0, 1.0 + 2**-52], [2.0, 2.0]]), None, 0))  # nearly collinear: the ridge decides
@example(case=(np.zeros((3, 3)), None, 4))  # the automatic tau is 0: no ridge
def test_compute_alpha_is_bitwise_the_lstsq_reference(case):
    # the window sits at head in buffers of NaN, as the engine's moves along them
    R, tau, head = case
    state = state_with_window(R, head=head)
    before = state.rbuf.tobytes()
    try:
        want = list_compute_alpha(R, 1e-10 * float((R * R).sum()) if tau is None else tau)
    except (ValueError, np.linalg.LinAlgError) as exc:
        with pytest.raises(type(exc)):
            compute_alpha(state, tau)
    else:
        got = compute_alpha(state, tau)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert state.rbuf.tobytes() == before


@pytest.mark.parametrize("n, ncol", [(1, 5), (3, 2), (2, 4), (9, 5), (40, 3), (30, 5), (1000, 9), (20000, 11)])
def test_the_automatic_tau_is_numpys_sum_of_squares(n, ncol):
    # n*ncol below 8, from 8 to 128, above 128 and above numpy's 8192-element
    # buffer.  The columns are so nearly collinear that their differences
    # weigh about as much as the ridge, so tau's last bits move the weights;
    # the rows span 4 decades, so the order of the sum moves tau's last bits.
    rng = np.random.default_rng(n * 100 + ncol)
    for spread in (1e-6, 1e-5, 1e-4):
        R = rng.standard_normal(n)[:, None] + spread * rng.standard_normal((n, ncol))
        R *= 10.0 ** rng.uniform(-2, 2, size=(n, 1))
        state = state_with_window(R, head=2)
        want = compute_alpha(state, 1e-10 * float((R * R).sum()))
        assert compute_alpha(state, None).tobytes() == want.tobytes()
        assert compute_alpha(state).tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(ncol=st.integers(1, 29), n=st.integers(1, 6), zeros=st.floats(0.0, 0.9), head=st.integers(0, 4),
       seed=st.integers(0, 2**32 - 1))
@example(ncol=9, n=1, zeros=0.0, head=0, seed=0)  # one coordinate
@example(ncol=1, n=4, zeros=0.5, head=1, seed=1)  # one row
@example(ncol=12, n=3, zeros=0.0, head=3, seed=2)
def test_aa_candidate_adds_the_rows_in_index_order(ncol, n, zeros, head, seed):
    # A Fortran-ordered or transposed stack of 8 or more rows was summed
    # pairwise.  Entries span 16 decades, so the order moves bits, and a
    # share of them are zeros of either sign, whose sign the sum must keep.
    # The residuals' columns span 6 decades, and so do the weights.
    rng = np.random.default_rng(seed)
    H = rng.standard_normal((ncol, n)) * 10.0 ** rng.integers(-8, 8, size=(ncol, n))
    H[rng.random((ncol, n)) < zeros] = 0.0
    H *= rng.choice([-1.0, 1.0], size=(ncol, n))
    R = rng.standard_normal((n, ncol)) * 10.0 ** rng.integers(-3, 3, size=ncol)
    state = state_with_window(R, H, head=head)
    alpha = compute_alpha(state)
    assert aa_candidate(state).tobytes() == candidate_reference(H, alpha).tobytes()


def test_aa_candidate_scalar_example():
    # the residuals -0.25 and -0.5 of 0.5*x from 0.5 and 1 give the weights
    # (2, -1), which land the evaluations 0.25 and 0.5 exactly on 0
    state = state_with_window(np.array([[-0.25, -0.5]]), np.array([[0.25], [0.5]]))
    assert compute_alpha(state, 0.0).tolist() == [2.0, -1.0]
    assert aa_candidate(state)[0] == 0.0


def test_aa_candidate_refuses_a_window_whose_weights_were_not_solved():
    # it takes no weights: it combines those compute_alpha solved for the stored window
    apply = lambda x: 0.5 * x + 1.0
    for state in (state_with_window(np.ones((2, 3)), np.ones((3, 2)), head=1), init_state(apply, np.ones(2))):
        with pytest.raises(ValueError, match="aa_candidate: the weights of the stored window were not solved"):
            aa_candidate(state)
        alpha = compute_alpha(state)
        assert aa_candidate(state).tobytes() == candidate_reference(state.h_hist, alpha).tobytes()
    safeguarded_step(apply, state, AaConfig(memory=2))
    with pytest.raises(ValueError, match="were not solved"):
        aa_candidate(state)


def test_compute_alpha_and_aa_candidate_bind_a_state_without_growing_it(monkeypatch):
    # binding follows the buffers: the first step grows only what its memory needs
    binds = []
    real = _kernels.bound
    monkeypatch.setattr(_kernels, "bound", lambda *args: binds.append(args[0]) or real(*args))
    R, H = np.array([[1.0, 0.5, -2.0], [3.0, 1.0, 0.25]]), np.arange(6.0).reshape(3, 2)
    state = state_with_window(R, H, head=1, spare=4)
    buffers = state.hbuf, state.rbuf, state.norms
    alpha = compute_alpha(state, 0.0)
    assert aa_candidate(state).tobytes() == candidate_reference(H, alpha).tobytes()
    assert all(a is b for a, b in zip((state.hbuf, state.rbuf, state.norms), buffers))
    assert state.ints.tolist()[:4] == [2, 8, 1, 3]
    assert len(binds) == 5
    # its 8 entries serve memory 3, so the step binds nothing anew
    apply = lambda x: 0.5 * x + 1.0
    safeguarded_step(apply, state, AaConfig(memory=3))
    assert state.hbuf is buffers[0] and len(binds) == 5
    safeguarded_step(apply, state, AaConfig(memory=4))
    assert state.hbuf.shape == (10, 2) and len(binds) == 10


@pytest.mark.parametrize("tau", [None, 0.0, 1e-6])
def test_the_state_stands_for_its_history(tau):
    state, _, _ = run_aa(lambda x: np.cos(x) + 0.1 * x, np.linspace(-1.0, 2.0, 7), AaConfig(memory=4), 9)
    assert len(state.r_norms) == 5
    R = np.array(state.r_hist.T)
    alpha = compute_alpha(state, tau)
    assert alpha.tobytes() == list_compute_alpha(R, 1e-10 * float((R * R).sum()) if tau is None else tau).tobytes()
    candidate = aa_candidate(state)
    assert candidate.tobytes() == candidate_reference(state.h_hist, alpha).tobytes()
    # both are copies: a second solve and candidate leave the first ones as they were
    kept = candidate.copy(), alpha.copy()
    compute_alpha(state, 1.0)
    aa_candidate(state)
    assert candidate.tobytes() == kept[0].tobytes() and alpha.tobytes() == kept[1].tobytes()


def test_scalar_linear_map_two_steps():
    apply = lambda x: 0.5 * x
    _, diags, x = run_aa(apply, np.array([1.0]), AaConfig(memory=5, tikhonov=0.0), 2)
    assert np.allclose(diags[0].alpha, [1.0])
    assert np.allclose(diags[1].alpha, [2.0, -1.0], atol=1e-12)
    assert x[0] == pytest.approx(0.0, abs=1e-15)


def test_affine_exactness_small_dims():
    # with full memory an affine contraction is solved once the residual
    # space is spanned: residual 1e-10 within n+2 iterations
    rng = np.random.default_rng(5)
    for n in (2, 3, 5):
        M = rng.standard_normal((n, n))
        G = 0.85 * M / np.linalg.norm(M, 2)
        c = rng.standard_normal(n)
        apply = lambda x: G @ x + c
        cfg = AaConfig(memory=n + 2, safeguard_factor=10.0, tikhonov=0.0)
        state = init_state(apply, rng.standard_normal(n))
        hit = None
        for k in range(1, n + 3):
            x, d = safeguarded_step(apply, state, cfg)
            if d.residual_norm <= 1e-10:
                hit = k
                break
        assert hit is not None and hit <= n + 2
        assert np.linalg.norm(x - affine_fixed_point(G, c)) <= 1e-8


def test_memory_one_column_reduces_to_plain_iteration():
    # a step from a single stored column reproduces x <- H(x) bit for bit;
    # init_state holds exactly the newest column, as a truncated history does
    rng = np.random.default_rng(6)
    G = 0.5 * np.eye(3)
    c = np.array([1.0, -2.0, 0.5])
    apply = lambda x: G @ x + c

    cfg = AaConfig(memory=1, safeguard_factor=1.0)
    x = x_plain = rng.standard_normal(3)
    for _ in range(10):
        state = init_state(apply, x)
        assert len(state.h_hist) == len(state.r_hist) == len(state.r_norms) == 1
        x, _ = safeguarded_step(apply, state, cfg)
        x_plain = apply(x_plain)
        assert x.tobytes() == x_plain.tobytes()


def test_history_never_exceeds_memory_plus_one():
    apply = lambda x: 0.9 * x + 1.0
    cfg = AaConfig(memory=3, safeguard_factor=2.0)
    state = init_state(apply, np.array([5.0]))
    for steps in range(1, 13):
        safeguarded_step(apply, state, cfg)
        assert len(state.h_hist) == len(state.r_hist) <= 4
        if state.reject_streak == 0 and steps <= 3:
            assert len(state.r_hist) == min(cfg.memory, steps) + 1


def test_safeguard_rejects_and_restarts():
    # an operator whose candidate residual is always awful: H oscillates
    calls = {"n": 0}

    def nasty(x):
        calls["n"] += 1
        return np.array([1.0]) if x[0] < 0.5 else np.array([0.0])

    cfg = AaConfig(memory=4, safeguard_factor=1.0, restart_after_rejects=3)
    state = init_state(nasty, np.array([0.0]))
    rejected = 0
    for _ in range(6):
        _, d = safeguarded_step(nasty, state, cfg)
        rejected += not d.accepted
    assert rejected > 0
    # after a restart the history was rebuilt from the current iterate
    assert len(state.r_hist) <= 4


def test_rejected_one_column_step_evaluates_h_once():
    # With one stored column the candidate is H(x^k) itself.  H(x) = 2x makes
    # its residual grow, so it is rejected, and the plain step falls back to
    # that same point, where H was just evaluated.
    calls = {"n": 0}

    def apply(x):
        calls["n"] += 1
        return 2.0 * x

    x0 = np.array([1.0, -0.5])
    cfg = AaConfig(memory=3, restart_after_rejects=1)
    state = init_state(apply, x0)
    for k in range(1, 6):
        before = calls["n"]
        x, d = safeguarded_step(apply, state, cfg)
        assert calls["n"] == before + 1
        assert not d.accepted
        assert np.array_equal(x, 2.0**k * x0)
        assert len(state.h_hist) == 1
        assert np.array_equal(state.h_hist[0], 2.0 * x) and np.array_equal(state.r_hist[0], x)
        assert d.residual_norm == state.r_norms[0] == float(np.linalg.norm(x))


def test_nonfinite_candidate_is_rejected_not_raised():
    # map explodes off the segment [0, 1]; candidate extrapolations outside
    # produce non-finite residuals and must fall back to the plain step
    def apply(x):
        if np.any(x < -1e3):
            return np.full_like(x, np.nan)
        return 0.5 * x

    cfg = AaConfig(memory=3, safeguard_factor=1.0)
    state = init_state(apply, np.array([8.0]))
    for _ in range(5):
        x, d = safeguarded_step(apply, state, cfg)
        assert np.all(np.isfinite(x))


def test_monotone_residual_envelope_with_strict_safeguard():
    rng = np.random.default_rng(7)
    M = rng.standard_normal((6, 6))
    G = 0.95 * M / np.linalg.norm(M, 2)
    c = rng.standard_normal(6)
    apply = lambda x: G @ x + c
    cfg = AaConfig(memory=5, safeguard_factor=1.0)
    state = init_state(apply, rng.standard_normal(6))
    norms = [float(np.linalg.norm(state.r_hist[0]))]
    for _ in range(40):
        _, d = safeguarded_step(apply, state, cfg)
        norms.append(d.residual_norm)
    running = np.minimum.accumulate(norms)
    assert np.all(np.diff(running) <= 0)


def test_fit_linear_rate_exact_geometric():
    r = [0.5**k for k in range(30)]
    fit = fit_linear_rate(r, tail_fraction=0.5)
    assert fit.defined
    assert fit.gamma == pytest.approx(0.5, abs=1e-9)
    assert fit.r_squared >= 1.0 - 1e-12


def test_fit_linear_rate_noisy_geometric():
    rng = np.random.default_rng(8)
    r = [0.9**k * math.exp(0.01 * rng.standard_normal()) for k in range(200)]
    fit = fit_linear_rate(r, tail_fraction=0.3)
    assert 0.88 <= fit.gamma <= 0.92
    assert fit.r_squared > 0.98


def test_fit_linear_rate_constant():
    fit = fit_linear_rate([2.0] * 20)
    assert fit.defined and fit.gamma == pytest.approx(1.0, abs=1e-12)


def test_fit_linear_rate_truncates_at_zero():
    r = [0.5**k for k in range(20)] + [0.0, 0.3, 0.2]
    fit = fit_linear_rate(r, tail_fraction=1.0)
    assert fit.defined
    assert fit.gamma == pytest.approx(0.5, abs=1e-9)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_fit_linear_rate_truncates_at_a_non_finite_norm(bad):
    r = [0.5**k for k in range(20)] + [bad, 0.3, 0.2]
    fit = fit_linear_rate(r, tail_fraction=1.0)
    assert fit.defined
    assert fit.gamma == pytest.approx(0.5, abs=1e-9)
    short = fit_linear_rate([1.0, 0.5, bad] + [0.25] * 10, tail_fraction=1.0)
    assert not short.defined and math.isnan(short.gamma)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(5, 3000), rho=st.floats(0.9, 0.9999), noise=st.floats(0.0, 1.0),
       tail_fraction=st.floats(0.01, 1.0), seed=st.integers(0, 2**32 - 1))
def test_fit_linear_rate_fits_the_polyfit_line(n, rho, noise, tail_fraction, seed):
    # rho**3000 stays far above the smallest float, so no norm truncates the sequence
    r = rho ** np.arange(n) * np.exp(noise * np.random.default_rng(seed).standard_normal(n))
    fit = fit_linear_rate(r, tail_fraction)
    n_tail = math.ceil(tail_fraction * n)
    assert fit.defined == (n_tail >= 5)
    if fit.defined:
        gamma, r2 = polyfit_rate_reference(r[n - n_tail:])
        assert fit.gamma == pytest.approx(gamma, rel=1e-12)
        assert fit.r_squared == pytest.approx(r2, rel=1e-9, abs=1e-12)


def test_fit_linear_rate_allocates_at_most_32_bytes_a_point():
    # a long plain leg fits its whole identified tail; np.polyfit took about 64 B a point
    r = 0.999 ** np.arange(20001) * (1.0 + 0.01 * np.random.default_rng(0).random(20001))
    fit_linear_rate(r, tail_fraction=1.0)
    tracemalloc.start()
    try:
        fit = fit_linear_rate(r, tail_fraction=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fit.defined and fit.gamma == pytest.approx(0.999, rel=1e-4)
    assert peak <= 32 * r.size, peak


def test_fit_linear_rate_undefined_when_too_short():
    fit = fit_linear_rate([1.0, 0.5, 0.25], tail_fraction=1.0)
    assert not fit.defined
    assert math.isnan(fit.gamma)


def test_config_validation():
    with pytest.raises(ValueError):
        AaConfig(memory=0)
    with pytest.raises(ValueError):
        AaConfig(safeguard_factor=0.5)
    with pytest.raises(ValueError):
        AaConfig(tikhonov=-1.0)
    with pytest.raises(ValueError, match="tikhonov must be finite and nonnegative"):
        AaConfig(tikhonov=math.inf)  # the first step's weight solve would refuse it
    with pytest.raises(ValueError, match="memory must be an integer >= 1"):
        AaConfig(memory=2.5)  # the first step would size its history buffers with it
    with pytest.raises(ValueError):
        AaConfig(restart_after_rejects=0)
    # the config refuses these too (aa.safeguard, aa.restart)
    with pytest.raises(ValueError, match="safeguard_factor must be finite and >= 1"):
        AaConfig(safeguard_factor=math.inf)
    for restart in (2.5, math.inf):
        with pytest.raises(ValueError, match="restart_after_rejects must be an integer >= 1"):
            AaConfig(restart_after_rejects=restart)


def test_a_config_cannot_be_changed_after_it_is_checked():
    # memory 0 ran a one-entry history, and a NaN safeguard rejected every candidate
    cfg = AaConfig(memory=3)
    for name, value in [("memory", 0), ("safeguard_factor", math.nan), ("tikhonov", -1.0)]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, value)
    assert cfg == AaConfig(memory=3)


def test_init_state_needs_a_vector():
    with pytest.raises(ValueError):
        init_state(lambda x: x, np.zeros((2, 2)))


def test_history_views_are_read_only():
    state, _, _ = run_aa(lambda x: 0.5 * x + 1.0, np.array([3.0, -1.0]), AaConfig(memory=3), 5)
    with pytest.raises(ValueError):
        state.h_hist[0, 0] = 0.0
    with pytest.raises(ValueError):
        state.r_hist[0, 0] = 0.0


@pytest.mark.parametrize("value", [np.array([0.25]), np.zeros(5), np.zeros((4, 1)), 0.25])
def test_a_map_value_of_the_wrong_shape_is_refused(value):
    # a (1,) value was broadcast into the history as four rows of 0.25
    x0 = np.array([1.0, -2.0, 0.5, 3.0])
    shape = np.shape(value)
    with pytest.raises(ValueError, match=re.escape("init_state: H returned an array of shape %s, expected (4,)" % (shape,))):
        init_state(lambda x: value, x0)
    state, _, _ = run_aa(lambda x: 0.5 * x, x0, AaConfig(memory=3), 2)
    kept = state.h_hist.copy(), state.r_hist.copy(), state.r_norms
    message = "safeguarded_step: H returned an array of shape %s, expected (4,)" % (shape,)
    with pytest.raises(ValueError, match=re.escape(message)):
        safeguarded_step(lambda x: value, state, AaConfig(memory=3))
    assert state.h_hist.tobytes() == kept[0].tobytes() and state.r_hist.tobytes() == kept[1].tobytes()
    assert state.r_norms == kept[2]


def test_a_step_after_the_first_takes_no_address_and_binds_nothing(monkeypatch):
    # the first step grows the buffers and binds its kernels once
    calls = []
    for name in ("address", "bound"):
        real = getattr(_kernels, name)
        monkeypatch.setattr(_kernels, name, lambda *args, _real=real, _name=name: calls.append(_name) or _real(*args))
    rng = np.random.default_rng(3)
    G = rng.standard_normal((6, 6))
    G *= 1.1 / np.linalg.norm(G, 2)
    apply = lambda x: soft_threshold(G @ x + 1.0, 0.2)
    cfg = AaConfig(memory=3, restart_after_rejects=2)
    state = init_state(apply, rng.standard_normal(6))
    assert calls == []
    safeguarded_step(apply, state, cfg)
    assert "bound" in calls and "address" in calls
    calls.clear()
    diags = [safeguarded_step(apply, state, cfg)[1] for _ in range(40)]
    # accepted and rejected candidates, restarts, and the window moved to the end of the buffers
    assert any(d.accepted for d in diags) and not all(d.accepted for d in diags)
    assert calls == []


def test_a_new_memory_or_safeguard_rebinds_and_matches_the_list_reference():
    # each step may take another config; the history keeps min(ncol, memory) + 1 entries
    rng = np.random.default_rng(11)
    G = rng.standard_normal((5, 5))
    G *= 0.9 / np.linalg.norm(G, 2)
    apply = lambda x: soft_threshold(G @ x + 0.5, 0.1)
    x0 = rng.standard_normal(5)
    state, ref = init_state(apply, x0), list_init_state(apply, x0)
    for memory, safeguard in [(2, 1.0), (2, 1.0), (6, 1.0), (6, 1.5), (1, 1.5), (9, 1.0)] * 3:
        cfg = AaConfig(memory=memory, safeguard_factor=safeguard, restart_after_rejects=3)
        want = list_aa_step(apply, ref, cfg)
        x, diag = safeguarded_step(apply, state, cfg)
        assert x.tobytes() == want[0].tobytes() and diag.alpha.tobytes() == want[1].tobytes()
        assert (diag.alpha_l1, diag.accepted, diag.residual_norm) == want[2:]
        assert state.h_hist.tobytes() == np.array(ref.h).tobytes() and state.r_norms == ref.norms


def test_a_new_safeguard_or_a_memory_that_fits_the_buffers_binds_nothing(monkeypatch):
    # they are written into the state, which the bound kernels read at each call
    binds = []
    real = _kernels.bound
    monkeypatch.setattr(_kernels, "bound", lambda *args: binds.append(args[0]) or real(*args))
    apply = lambda x: soft_threshold(0.6 * x + 1.0, 0.1)
    state, ref = init_state(apply, np.zeros(4)), list_init_state(apply, np.zeros(4))
    for memory, safeguard in [(5, 1.0), (5, 1.5), (2, 1.5), (1, 1.0), (5, 2.0)] * 2:
        cfg = AaConfig(memory=memory, safeguard_factor=safeguard)
        x, diag = safeguarded_step(apply, state, cfg)
        assert x.tobytes() == list_aa_step(apply, ref, cfg)[0].tobytes()
        assert state.ints.item(4) == memory and state.reals.item(1) == safeguard
    assert len(binds) == 5


def test_a_numpy_integer_memory_runs_as_its_int():
    # AaConfig takes np.integer memories; the head they made was a numpy
    # integer, which ctypes refused as an address at the second step
    apply = lambda x: soft_threshold(0.5 * x + 1.0, 0.1)
    _, want, x_want = run_aa(apply, np.zeros(3), AaConfig(memory=3), 12)
    _, got, x_got = run_aa(apply, np.zeros(3), AaConfig(memory=np.int64(3)), 12)
    assert x_got.tobytes() == x_want.tobytes()
    assert [(d.alpha.tobytes(), d.residual_norm) for d in got] == [(d.alpha.tobytes(), d.residual_norm) for d in want]


def test_the_state_weights_are_read_only_and_serve_only_their_window():
    apply = lambda x: np.cos(x) + 0.1 * x
    state, diags, _ = run_aa(apply, np.linspace(-1.0, 2.0, 7), AaConfig(memory=4), 3)
    alpha = diags[-1].alpha  # what compute_alpha(state) returned in the last step
    with pytest.raises(ValueError):
        alpha[0] = 0.5
    # the window has grown since they were solved: no candidate until the new window's are
    assert len(alpha) == 3 and len(state.h_hist) == 4
    with pytest.raises(ValueError, match="the weights of the stored window were not solved"):
        aa_candidate(state)
    fresh = compute_alpha(state)
    assert aa_candidate(state).tobytes() == candidate_reference(state.h_hist, fresh).tobytes()


@pytest.mark.parametrize("field, value", [
    ("hbuf", np.zeros((1, 3))),                      # another n
    ("rbuf", np.zeros((1, 2))),                      # transposed
    ("norms", np.zeros(2)),
    ("reals", np.zeros(3, dtype=np.float32)),
    ("ints", np.array([2, 1, 0, 2, 0, 1])),          # more columns than the buffers hold
    ("ints", np.array([2, 1, 0, 1, 0, 1], dtype=np.int32)),
    ("hbuf", np.zeros((2, 2))[:, :1].T),             # (1, 2), but not C-ordered
])
def test_a_state_the_kernels_cannot_read_is_refused_before_binding(field, value):
    # the bound kernels read and write through raw addresses, by the layout init_state makes
    state = init_state(lambda x: 0.5 * x, np.array([1.0, 2.0]))
    setattr(state, field, value)
    with pytest.raises(ValueError, match="do not have the layout that init_state makes"):
        safeguarded_step(lambda x: 0.5 * x, state, AaConfig(memory=2))


def fsum_in_c(values):
    """``aaopt_fsum`` of the values: the sum, or the error ``compute_alpha`` raises for its status."""
    v = np.array(values, dtype=float)
    partials, out = np.empty(v.size), np.empty(1)
    status = _kernels.library().aaopt_fsum(v.size, _kernels.address(v), _kernels.address(partials),
                                           _kernels.address(out))
    return out.tobytes() if status == 0 else _WEIGHT_FAILURES[status]


def fsum_in_python(values):
    try:
        return np.float64(math.fsum(values)).tobytes()
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("values, want", [
    ([1e-16, 1.0, 1e16], 1e16 + 2.0),  # the half-even fix-up across partials
    ([math.inf, 1.0], math.inf),
    ([math.inf, -math.inf], (ValueError, "-inf + inf in fsum")),
    ([1e308, 1e308], (OverflowError, "intermediate overflow in fsum")),
    ([1.0, math.nan, 2.0], math.nan),
    ([-0.0, -0.0], 0.0),
    ([], 0.0),
])
def test_the_c_fsum_gives_math_fsum_on_its_edge_cases(values, want):
    got = fsum_in_c(values)
    assert got == fsum_in_python(values)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert got == np.float64(want).tobytes()


_WIDE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-16, 1e16])


@settings(max_examples=1500, deadline=None)
@given(terms=st.lists(_WIDE, max_size=40), negated=st.lists(st.integers(0, 39), max_size=12),
       nudged=st.lists(st.integers(0, 39), max_size=6), specials=st.lists(
           st.sampled_from([math.inf, -math.inf, math.nan]), max_size=2))
def test_the_c_fsum_is_math_fsum_bit_for_bit(terms, negated, nudged, specials):
    # terms spread over every exponent, with exact and near cancellations
    # (a term's negation, or its neighbour's) and now and then inf or NaN
    terms = terms + [-terms[i] for i in negated if i < len(terms)]
    terms += [-math.nextafter(terms[i], 0.0) for i in nudged if i < len(terms)]
    terms[len(terms) // 2 : len(terms) // 2] = specials
    assert fsum_in_c(terms) == fsum_in_python(terms)


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 12),
    memory=st.integers(1, 10),
    restart=st.integers(1, 4),
    safeguard=st.sampled_from([1.0, 1.5, 10.0]),
    tikhonov=st.sampled_from([None, 0.0, 1e-12, 1e-4]),
    steps=st.integers(1, 40),
)
# one coordinate and eight columns: numpy sums a lone column pairwise
@example(seed=0, n=1, memory=7, restart=1, safeguard=1.0, tikhonov=None, steps=8)
def test_buffered_engine_matches_list_reference_bitwise(seed, n, memory, restart, safeguard, tikhonov, steps):
    # A signed soft-threshold map: affine, shrunk, then reflected coordinate
    # by coordinate, so thresholded entries come out as -0.0 as well as +0.0.
    # The scale draws contractive and expansive maps, which with the strict
    # safeguard make rejections and restarts frequent.
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    G = rng.uniform(0.3, 1.3) * M / max(np.linalg.norm(M, 2), 1e-12)
    c = rng.standard_normal(n)
    lam = rng.uniform(0.0, 1.0)
    signs = rng.choice([-1.0, 1.0], size=n)
    apply = lambda x: signs * soft_threshold(G @ x + c, lam)
    cfg = AaConfig(memory=memory, tikhonov=tikhonov, safeguard_factor=safeguard,
                   restart_after_rejects=restart)
    x0 = rng.standard_normal(n)
    state, ref = init_state(apply, x0), list_init_state(apply, x0)
    assert state.r_norms == ref.norms
    for _ in range(steps):
        try:
            want = list_aa_step(apply, ref, cfg)
        except (ValueError, np.linalg.LinAlgError) as exc:
            with pytest.raises(type(exc)):
                safeguarded_step(apply, state, cfg)
            return
        x, diag = safeguarded_step(apply, state, cfg)
        got = (x, diag.alpha, diag.alpha_l1, diag.accepted, diag.residual_norm)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
        assert got[2:] == want[2:]
        assert state.h_hist.tobytes() == np.array(ref.h).tobytes()
        assert state.r_hist.tobytes() == np.array(ref.r).tobytes()
        assert state.r_norms == ref.norms and state.reject_streak == ref.reject_streak


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
    memory=st.integers(1, 5),
    safeguard=st.sampled_from([1.0, 1.5]),
    steps=st.integers(1, 30),
)
def test_history_and_norm_cache_stay_in_step(seed, n, memory, safeguard, steps):
    # affine map plus a prox: nonsmooth, and contractive or not by the draw
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    G = rng.uniform(0.3, 1.2) * M / np.linalg.norm(M, 2)
    c = rng.standard_normal(n)
    lam = rng.uniform(0.0, 0.5)
    apply = lambda x: soft_threshold(G @ x + c, lam)
    cfg = AaConfig(memory=memory, safeguard_factor=safeguard, restart_after_rejects=1)
    state = init_state(apply, rng.standard_normal(n))
    for _ in range(steps):
        window_min = min(state.r_norms)
        _, diag = safeguarded_step(apply, state, cfg)
        assert len(state.h_hist) == len(state.r_hist) == len(state.r_norms) <= memory + 1
        assert all(cached == float(np.linalg.norm(r)) for r, cached in zip(state.r_hist, state.r_norms))
        assert diag.residual_norm == state.r_norms[0]
        if diag.accepted:
            assert diag.residual_norm <= safeguard * window_min
        else:
            assert len(state.r_hist) == 1  # every rejection restarts


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 8),
    ncol=st.integers(1, 8),
    spread=st.sampled_from([0.0, 1e-15, 1e-8, 1.0]),
    max_exp=st.integers(0, 150),
    tau=st.sampled_from([None, 0.0, 1e-10, 1e-6]),
    head=st.integers(0, 4),
)
def test_compute_alpha_sums_to_one_or_raises(seed, n, ncol, spread, max_exp, tau, head):
    # columns near one shared direction (collinear when spread is 0), each
    # scaled by up to 10**+-max_exp; None is the automatic tau
    rng = np.random.default_rng(seed)
    R = rng.standard_normal(n)[:, None] + spread * rng.standard_normal((n, ncol))
    R = R * 10.0 ** rng.integers(-max_exp, max_exp, size=ncol, endpoint=True)
    try:
        alpha = compute_alpha(state_with_window(R, head=head), tau)
    except np.linalg.LinAlgError:
        return
    assert alpha.shape == (ncol,)
    assert np.all(np.isfinite(alpha))
    assert abs(math.fsum(alpha) - 1.0) <= 1e-12

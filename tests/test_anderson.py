import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aaopt.anderson import (
    AaConfig,
    aa_candidate,
    compute_alpha,
    fit_linear_rate,
    init_state,
    safeguarded_step,
)

from aaopt.prox import soft_threshold
from oracles import affine_fixed_point, list_aa_step, list_init_state


def run_aa(apply, x0, cfg, iters):
    state = init_state(apply, x0)
    diags = []
    for _ in range(iters):
        _, d = safeguarded_step(apply, state, cfg)
        diags.append(d)
    return state, diags


def test_compute_alpha_single_column():
    assert np.array_equal(compute_alpha(np.array([[2.0], [1.0]])), np.array([1.0]))


def test_compute_alpha_orthogonal_columns():
    R = np.array([[1.0, 0.0], [0.0, 2.0]])
    alpha = compute_alpha(R, 0.0)
    # weights split inversely to the squared norms; heavier on the unit column
    assert np.allclose(alpha, [0.8, 0.2], atol=1e-10)


def test_compute_alpha_identical_columns_regularized():
    c = np.array([1.0, 2.0, -1.0])
    alpha = compute_alpha(np.column_stack([c, c]), 1e-8)
    assert np.allclose(alpha, [0.5, 0.5], atol=1e-8)


def test_compute_alpha_sum_contract_random():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 8))
        p = int(rng.integers(1, 7))
        R = rng.standard_normal((n, p))
        tau = float(rng.choice([0.0, 1e-10, 1e-6]))
        alpha = compute_alpha(R, tau)
        assert abs(alpha.sum() - 1.0) <= 1e-12


def test_compute_alpha_reduces_residual_norm():
    # the constrained minimum can never be worse than the newest column alone
    rng = np.random.default_rng(1)
    for _ in range(100):
        R = rng.standard_normal((6, int(rng.integers(2, 6))))
        alpha = compute_alpha(R, 0.0)
        assert np.linalg.norm(R @ alpha) <= np.linalg.norm(R[:, 0]) + 1e-9


def test_compute_alpha_rejects_nonfinite():
    with pytest.raises(ValueError):
        compute_alpha(np.array([[np.nan, 1.0], [0.0, 1.0]]))


def test_aa_candidate_scalar_example():
    # weights (2, -1) on evaluations 0.25 and 0.5 land exactly on 0
    out = aa_candidate([np.array([0.25]), np.array([0.5])], np.array([2.0, -1.0]))
    assert out[0] == 0.0


def test_aa_candidate_length_mismatch():
    with pytest.raises(ValueError):
        aa_candidate([np.zeros(2)], np.array([0.5, 0.5]))


def test_scalar_linear_map_two_steps():
    apply = lambda x: 0.5 * x
    state, diags = run_aa(apply, np.array([1.0]), AaConfig(memory=5, tikhonov=0.0), 2)
    assert np.allclose(diags[0].alpha, [1.0])
    assert np.allclose(diags[1].alpha, [2.0, -1.0], atol=1e-12)
    assert state.x[0] == pytest.approx(0.0, abs=1e-15)


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
            _, d = safeguarded_step(apply, state, cfg)
            if d.residual_norm <= 1e-10:
                hit = k
                break
        assert hit is not None and hit <= n + 2
        assert np.linalg.norm(state.x - affine_fixed_point(G, c)) <= 1e-8


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
    for k in range(12):
        safeguarded_step(apply, state, cfg)
        assert len(state.h_hist) == len(state.r_hist) <= 4
        if state.reject_streak == 0 and k < 3:
            assert len(state.r_hist) == min(cfg.memory, state.k) + 1


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


def test_alpha_cap_pre_rejects_without_candidate_evaluation():
    calls = {"n": 0}

    def apply(x):
        calls["n"] += 1
        return 0.5 * x + np.array([1.0, 0.0])

    cfg = AaConfig(memory=4, safeguard_factor=5.0, alpha_cap=1.0 + 1e-9)
    state = init_state(apply, np.array([4.0, 4.0]))
    safeguarded_step(apply, state, cfg)  # k=1: single... two columns now
    before = calls["n"]
    _, d = safeguarded_step(apply, state, cfg)
    if d.alpha_l1 > cfg.alpha_cap:
        # pre-reject: only the plain step evaluation happened
        assert calls["n"] == before + 1
        assert not d.accepted


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
    with pytest.raises(ValueError):
        AaConfig(restart_after_rejects=0)


def test_init_state_needs_a_vector():
    with pytest.raises(ValueError):
        init_state(lambda x: x, np.zeros((2, 2)))


def test_history_views_are_read_only():
    state, _ = run_aa(lambda x: 0.5 * x + 1.0, np.array([3.0, -1.0]), AaConfig(memory=3), 5)
    with pytest.raises(ValueError):
        state.h_hist[0, 0] = 0.0
    with pytest.raises(ValueError):
        state.r_hist[0, 0] = 0.0


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
    alpha_cap=st.sampled_from([None, 1.5, 20.0]),
    steps=st.integers(1, 40),
)
# one coordinate and eight columns: numpy sums a lone column pairwise
@example(seed=0, n=1, memory=7, restart=1, safeguard=1.0, tikhonov=None, alpha_cap=None, steps=8)
def test_buffered_engine_matches_list_reference_bitwise(
    seed, n, memory, restart, safeguard, tikhonov, alpha_cap, steps
):
    # A signed soft-threshold map: affine, shrunk, then reflected coordinate
    # by coordinate, so thresholded entries come out as -0.0 as well as +0.0.
    # The scale draws contractive and expansive maps, which with the caps and
    # the strict safeguard make rejections and restarts frequent.
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    G = rng.uniform(0.3, 1.3) * M / max(np.linalg.norm(M, 2), 1e-12)
    c = rng.standard_normal(n)
    lam = rng.uniform(0.0, 1.0)
    signs = rng.choice([-1.0, 1.0], size=n)
    apply = lambda x: signs * soft_threshold(G @ x + c, lam)
    cfg = AaConfig(memory=memory, tikhonov=tikhonov, safeguard_factor=safeguard,
                   restart_after_rejects=restart, alpha_cap=alpha_cap)
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
        assert state.x.tobytes() == ref.x.tobytes()
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
    auto_tau=st.booleans(),
)
def test_compute_alpha_sums_to_one_or_raises(seed, n, ncol, spread, max_exp, auto_tau):
    # columns near one shared direction (collinear when spread is 0), each
    # scaled by up to 10**+-max_exp
    rng = np.random.default_rng(seed)
    R = rng.standard_normal(n)[:, None] + spread * rng.standard_normal((n, ncol))
    R = R * 10.0 ** rng.integers(-max_exp, max_exp, size=ncol, endpoint=True)
    tau = 1e-10 * float(np.sum(R * R)) if auto_tau else 0.0
    try:
        alpha = compute_alpha(R, tau)
    except np.linalg.LinAlgError:
        return
    assert alpha.shape == (ncol,)
    assert np.all(np.isfinite(alpha))
    assert abs(math.fsum(alpha) - 1.0) <= 1e-12

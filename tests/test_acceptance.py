"""Acceptance battery: twelve end-to-end criteria, one pass/fail line each.

Every criterion prints a single ``criterion NN <label>: PASS/FAIL (detail)``
line (visible with ``pytest -s``) and asserts the same condition, so the
verbose test report carries one line per criterion as well.  Tolerances and
iteration budgets are pinned here on purpose; loosening them is a contract
change, not a test fix.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from oracles import (
    affine_fixed_point,
    central_diff_grad,
    grid_minimize_1d,
    shrink_objective,
    state_with_window,
)

from aaopt.anderson import (
    AaConfig,
    compute_alpha,
    fit_linear_rate,
    init_state,
    safeguarded_step,
)
from aaopt.algorithms import (
    admm_step,
    drs_parts,
    irl1_beta_window,
    irl1_step,
    pcd_sweep,
)
from aaopt.harness import build_operator, config_from_mapping, run_experiment
from aaopt.linalg import spectral_norm_sq
from aaopt.manifold import identification_iter, pattern_limits, pattern_of
from aaopt.problems import (
    gen_lasso,
    gen_logreg,
    gen_nnls,
    gen_svm,
    lasso_grad,
    lasso_objective,
    logreg_grad,
    logreg_objective,
    nnls_grad,
    nnls_objective,
    svm_dual_grad,
    svm_dual_objective,
)
from aaopt.prox import BoxBounds, nonneg_project, quadratic_ls_prox, soft_threshold


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    line = "criterion %02d %s: %s (%s)" % (num, label, "PASS" if ok else "FAIL", detail)
    print(line)
    assert ok, line


def _cfg(pairs: dict) -> "ExperimentConfig":
    return config_from_mapping({k: str(v) for k, v in pairs.items()})


# ---------------------------------------------------------------------------
# criterion 1: exact collapse on affine maps


def _affine_problem(seed: int = 12345, n: int = 5):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    G = 0.5 * (G + G.T)  # symmetric, so the contraction factor is exactly 0.9
    G *= 0.9 / np.linalg.norm(G, 2)
    c = rng.standard_normal(n)
    x0 = rng.standard_normal(n)
    return G, c, x0


def test_criterion_01_affine_exactness():
    t0 = time.perf_counter()
    G, c, x0 = _affine_problem()
    apply = lambda x: G @ x + c

    cfg = AaConfig(memory=8, safeguard_factor=10.0, tikhonov=0.0)
    state = init_state(apply, x0, cfg)
    aa_iters = None
    for k in range(1, 8):
        x, diag = safeguarded_step(apply, state)
        if diag.residual_norm <= 1e-10:
            aa_iters = k
            break
    x_star = affine_fixed_point(G, c)
    oracle_gap = float(np.linalg.norm(x - x_star)) if aa_iters else math.inf

    plain_iters = 0
    xp = x0
    while np.linalg.norm(apply(xp) - xp) > 1e-10 and plain_iters < 10000:
        xp = apply(xp)
        plain_iters += 1

    elapsed = time.perf_counter() - t0
    ok = (
        aa_iters is not None
        and aa_iters <= 7
        and plain_iters >= 50
        and oracle_gap <= 1e-8
        and elapsed < 1.0
    )
    _report(
        1,
        "affine-exactness",
        ok,
        "aa %s iters, plain %d, oracle gap %.2e, %.2fs"
        % (aa_iters, plain_iters, oracle_gap, elapsed),
    )


# ---------------------------------------------------------------------------
# criterion 2: weight contract on every produced alpha


def test_criterion_02_alpha_contract():
    collected: list[np.ndarray] = []

    # Safeguarded drives: the affine problem above and a desk lasso run.
    G, c, x0 = _affine_problem()
    apply = lambda x: G @ x + c
    state = init_state(apply, x0, AaConfig(memory=8, safeguard_factor=10.0))
    for _ in range(30):
        _, diag = safeguarded_step(apply, state)
        collected.append(diag.alpha)

    ctx = build_operator(
        _cfg({"problem.kind": "lasso", "problem.rows": "40", "problem.cols": "200",
              "problem.lambda": "0.01", "algorithm.kind": "ista", "run.seed": "0"})
    )
    state = init_state(ctx.op.apply, ctx.x0, AaConfig(memory=10))
    for _ in range(400):
        _, diag = safeguarded_step(ctx.op.apply, state)
        collected.append(diag.alpha)
        if diag.residual_norm <= 1e-10:
            break

    # Direct solves including the ill-conditioned shapes an extended-variable
    # run produces: near-parallel geometric columns at extreme scales, exact
    # duplicates (with tau = 0 LAPACK gives the minimum-norm solution), and
    # generic Gaussian batches, each R held as a state's stored residuals.
    rng = np.random.default_rng(2024)
    u = rng.standard_normal(60)
    for scale in (1e-8, 1.0, 1e8):
        R = np.stack(
            [scale * (0.9**j) * u + scale * 1e-9 * rng.standard_normal(60) for j in range(11)],
            axis=1,
        )
        for tau in (0.0, 1e-10 * float(np.sum(R * R)), 1e-8 * float(np.sum(R * R))):
            collected.append(compute_alpha(state_with_window(R), tau))
    dup = rng.standard_normal((12, 4))
    dup[:, 2] = dup[:, 1]
    collected.append(compute_alpha(state_with_window(dup), 0.0))
    for _ in range(50):
        R = rng.standard_normal((9, 5)) * 10.0 ** rng.integers(-6, 7)
        collected.append(compute_alpha(state_with_window(R), 1e-10 * float(np.sum(R * R))))

    worst = max(abs(math.fsum(a) - 1.0) for a in collected)
    R_orth = np.array([[1.0, 0.0], [0.0, 2.0]])
    pair = compute_alpha(state_with_window(R_orth), 0.0)
    pair_gap = float(np.max(np.abs(pair - np.array([0.8, 0.2]))))

    ok = worst <= 1e-12 and pair_gap <= 1e-10
    _report(
        2,
        "alpha-contract",
        ok,
        "%d weight vectors, worst |sum-1| %.2e, orthogonal-pair gap %.2e"
        % (len(collected), worst, pair_gap),
    )


# ---------------------------------------------------------------------------
# criterion 3: weighted shrinkage against a grid oracle


def test_criterion_03_shrinkage_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(1000):
        v = float(rng.normal(scale=2.0))
        w = float(rng.uniform(0.05, 3.0))
        s = float(rng.uniform(0.01, 2.0))
        got = float(soft_threshold(np.array([v]), s * np.array([w]))[0])
        span = abs(v) + 1.0
        ref = grid_minimize_1d(lambda t: shrink_objective(t, v, w, s), -span, span, rounds=8)
        worst = max(worst, abs(got - ref))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 5.0
    _report(3, "shrinkage-oracle", ok, "1000 triples, worst gap %.2e, %.2fs" % (worst, elapsed))


# ---------------------------------------------------------------------------
# criterion 4: analytic gradients against central differences


def test_criterion_04_gradient_checks():
    rng = np.random.default_rng(4)
    cases = []
    inst = gen_lasso(20, 40, lam=0.01, noise_var=1e-4, seed=0)
    cases.append(("lasso", 40, lambda x: lasso_grad(inst, x),
                  lambda x: lasso_objective(inst, x) - inst.lam * np.abs(x).sum()))
    svm = gen_svm(30, 10, seed=1, C=100.0)
    cases.append(("svm", 30, lambda x: svm_dual_grad(svm, x),
                  lambda x: svm_dual_objective(svm, x)))
    nn = gen_nnls(25, 15, lam=0.001, seed=2)
    cases.append(("nnls", 15, lambda x: nnls_grad(nn, x),
                  lambda x: nnls_objective(nn, x)))
    lr = gen_logreg(30, 20, lam=0.001, p=0.75, seed=3)
    cases.append(("logreg", 20, lambda x: logreg_grad(lr, x),
                  lambda x: logreg_objective(lr, x) - lr.lam * (np.abs(x) ** lr.p).sum()))

    worst = 0.0
    for _, dim, grad, smooth in cases:
        for _ in range(10):
            x = rng.standard_normal(dim)
            g = grad(x)
            ref = central_diff_grad(smooth, x)
            rel = float(np.linalg.norm(g - ref) / (1.0 + np.linalg.norm(ref)))
            worst = max(worst, rel)
    ok = worst <= 1e-5
    _report(4, "gradient-checks", ok, "4 problems x 10 points, worst relative gap %.2e" % worst)


# ---------------------------------------------------------------------------
# criteria 5 and 6 share one battery of desk-scale lasso runs


def _iterations(summary: dict) -> float:
    return summary["iterations"] if summary["status"] == "converged" else math.inf


@pytest.fixture(scope="module")
def lasso_battery():
    t0 = time.perf_counter()
    aa_runs = []
    ista_iters = []
    fista_iters = []
    for seed in range(10):
        base = {
            "problem.kind": "lasso", "problem.rows": "40", "problem.cols": "200",
            "problem.lambda": "0.01", "algorithm.kind": "ista",
            "run.seed": seed, "run.tol": "1e-10", "run.max_iter": 20000,
            "run.zero_tol": "1e-4",
        }
        aa_cfg = _cfg({**base, "aa.enabled": "true", "aa.memory": "10",
                       "aa.safeguard": "1.0", "aa.restart": "1"})
        aa_runs.append(run_experiment(aa_cfg))
        ista_iters.append(_iterations(run_experiment(_cfg({**base, "aa.enabled": "false"}))[1]))
        fista_iters.append(_iterations(run_experiment(_cfg({**base, "algorithm.kind": "fista"}))[1]))
    return {
        "aa": aa_runs,
        "ista": ista_iters,
        "fista": fista_iters,
        "elapsed": time.perf_counter() - t0,
    }


def test_criterion_05_lasso_wins_and_identification(lasso_battery):
    wins = 0
    idents = 0
    for seed in range(10):
        _, summary = lasso_battery["aa"][seed]
        aa_iters = _iterations(summary)
        if aa_iters < lasso_battery["ista"][seed] and aa_iters < lasso_battery["fista"][seed]:
            wins += 1
        ident = summary["identification_iter"]
        if ident is not None and ident < 0.8 * summary["iterations"]:
            idents += 1
    elapsed = lasso_battery["elapsed"]
    ok = wins >= 8 and idents >= 8 and elapsed < 30.0
    _report(
        5,
        "lasso-desk-battery",
        ok,
        "aa beats ista+fista %d/10, identification before final 20%% %d/10, %.1fs"
        % (wins, idents, elapsed),
    )


def test_criterion_06_post_identification_rate(lasso_battery):
    fits = 0
    gammas = []
    for records, summary in lasso_battery["aa"]:
        ident = summary["identification_iter"]
        if ident is None:
            continue
        res = [r.residual_norm for r in records]
        fit = fit_linear_rate(res[ident:])
        if fit.defined and fit.gamma < 1.0 and fit.r_squared >= 0.9:
            fits += 1
            gammas.append(fit.gamma)
    ok = fits >= 8
    _report(
        6,
        "post-identification-rate",
        ok,
        "linear tail fit gamma<1 with r2>=0.9 on %d/10 runs, gamma in [%.3f, %.3f]"
        % (fits, min(gammas), max(gammas)),
    )


# ---------------------------------------------------------------------------
# criterion 7: splitting fixed-point relations on the nonneg least-squares desk run


def test_criterion_07_nnls_relations():
    cfg = _cfg({"problem.kind": "nnls", "problem.rows": "50", "problem.cols": "30",
                "problem.lambda": "0.001", "algorithm.kind": "drs",
                "run.tol": "1e-10", "run.max_iter": "20000", "run.seed": "0"})
    ctx = build_operator(cfg)
    z = ctx.x0
    for _ in range(20000):
        z_next = ctx.op.apply(z)
        done = np.linalg.norm(z_next - z) <= 1e-10
        z = z_next
        if done:
            break
    assert done, "nnls drs run did not reach 1e-10"

    inst = gen_nnls(50, 30, lam=0.001, seed=0)
    beta = 1.0 / (spectral_norm_sq(inst.A) / inst.A.shape[0])
    f_prox = quadratic_ls_prox(inst.A, inst.y, inst.lam, inst.A.shape[0], beta)
    x, y, _ = drs_parts(f_prox, nonneg_project, 1.0, z)
    fixed_gap = float(np.linalg.norm(x - y))
    pg = float(np.linalg.norm(y - nonneg_project(y - beta * nnls_grad(inst, y))))
    ok = fixed_gap <= 1e-8 and pg <= 1e-8
    _report(
        7,
        "nnls-relations",
        ok,
        "||prox_f point - feasible point|| %.2e, projected-gradient residual %.2e"
        % (fixed_gap, pg),
    )


# ---------------------------------------------------------------------------
# criterion 8: multiplier method matches splitting under the image mapping


def test_criterion_08_admm_drs_correspondence():
    rng = np.random.default_rng(77)
    n = 3
    M1 = rng.standard_normal((n, n))
    M2 = rng.standard_normal((n, n))
    P1 = M1 @ M1.T + 0.5 * np.eye(n)
    P2 = M2 @ M2.T + 0.5 * np.eye(n)
    q1 = rng.standard_normal(n)
    q2 = rng.standard_normal(n)
    A = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
    B = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
    b = rng.standard_normal(n)
    lam = 0.7

    def phi1_min(w, v):
        rhs = -q1 - A.T @ v - lam * (A.T @ (B @ w - b))
        return np.linalg.solve(P1 + lam * A.T @ A, rhs)

    def phi2_min(u, v):
        rhs = -q2 - B.T @ v - lam * (B.T @ (A @ u - b))
        return np.linalg.solve(P2 + lam * B.T @ B, rhs)

    t = 1.0 / lam  # the DRS step

    def f_prox(z):
        u = np.linalg.solve(P1 + (A.T @ A) / t, -q1 + (A.T @ z) / t)
        return A @ u

    def g_prox(z):
        w = np.linalg.solve(P2 + (B.T @ B) / t, -q2 + (B.T @ (b - z)) / t)
        return b - B @ w

    u = np.zeros(n)
    v = np.zeros(n)
    w = np.zeros(n)
    z = b - B @ w - v / lam
    worst = 0.0
    for _ in range(50):
        z_prev = z
        x_drs, y_drs, z = drs_parts(f_prox, g_prox, 1.0, z)
        u, v, w = admm_step(phi1_min, phi2_min, A, B, b, lam, (u, v, w))
        worst = max(
            worst,
            float(np.linalg.norm(A @ u - x_drs)),
            float(np.linalg.norm((b - B @ w) - y_drs)),
            float(np.linalg.norm((A @ u - v / lam) - z_prev)),
            float(np.linalg.norm((b - B @ w - v / lam) - z)),
        )
    ok = worst <= 1e-10
    _report(8, "admm-drs-correspondence", ok, "50 iterations, worst deviation %.2e" % worst)


# ---------------------------------------------------------------------------
# criterion 9: coordinate sweep against brute-force sequential minimization


def test_criterion_09_pcd_oracle():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        M = rng.standard_normal((n, n))
        Z = np.hstack([M, math.sqrt(0.5) * np.eye(n)])
        P = Z @ Z.T  # M M^T + 0.5 I
        q = rng.standard_normal(n)
        lo = -1.0 + 0.2 * rng.standard_normal(n)
        hi = lo + rng.uniform(0.5, 2.0, size=n)
        x0 = rng.uniform(lo, hi)
        beta = float(rng.uniform(0.1, 1.0))

        got = pcd_sweep(Z, q, BoxBounds(lo, hi), beta)(x0)

        ref = np.array(x0, dtype=float)
        for i in range(n):
            g = float((P @ ref + q)[i])
            xi = ref[i]
            li, ui = float(lo[i]), float(hi[i])
            # the box indicator is part of the 1-D subproblem; without the
            # penalty the refinement could walk past an active bound
            model = lambda t: np.where(
                (t < li) | (t > ui), np.inf, g * (t - xi) + (t - xi) ** 2 / (2.0 * beta)
            )
            ref[i] = grid_minimize_1d(model, li, ui, rounds=8)
        worst = max(worst, float(np.max(np.abs(got - ref))))
    ok = worst <= 1e-6
    _report(9, "pcd-oracle", ok, "100 box quadratics, worst coordinate gap %.2e" % worst)


# ---------------------------------------------------------------------------
# criterion 10: reweighted-l1 contract (schedule, stabilization, acceleration)


def test_criterion_10_irl1_contract():
    # Exact geometric schedule, independent sequential product as reference.
    # The start is on the wrong side of zero so the monitored sign actually
    # changes before it stabilizes.
    grad = lambda x: x - 3.0
    theta = np.array([-2.0, 1.0])  # (x, eps)
    ref = 1.0
    schedule_exact = True
    limits = pattern_limits(1e-9)
    patterns_1d = [pattern_of(theta[:1], limits)]
    for _ in range(60):
        theta = irl1_step(grad, 0.75, 0.3, 0.5, 0.9, theta)
        ref = ref * 0.9
        schedule_exact &= theta[1] == ref
        patterns_1d.append(pattern_of(theta[:1], limits))
    ident_1d = identification_iter(patterns_1d, window=10)
    sign_changed = patterns_1d[0][0] != patterns_1d[-1][0]

    desk = {"problem.kind": "logreg", "problem.rows": "100", "problem.cols": "30",
            "problem.lambda": "0.001", "problem.p": "0.75", "problem.mu": "0.9",
            "problem.eps0": "1", "algorithm.kind": "irl1",
            "run.tol": "1e-9", "run.max_iter": "40000"}
    _, desk_summary = run_experiment(_cfg({**desk, "run.seed": "0"}))
    ident_desk = desk_summary["identification_iter"]

    wins = 0
    for seed in range(10):
        _, sp = run_experiment(_cfg({**desk, "run.seed": seed}))
        _, sa = run_experiment(_cfg({**desk, "run.seed": seed, "aa.enabled": "true",
                                     "aa.memory": "10", "aa.safeguard": "1.0",
                                     "aa.restart": "1"}))
        if sa["status"] == "converged" and (
            sp["status"] != "converged" or sa["iterations"] < sp["iterations"]
        ):
            wins += 1

    ok = (
        schedule_exact
        and sign_changed
        and ident_1d is not None
        and ident_desk is not None
        and wins >= 8
    )
    _report(
        10,
        "irl1-contract",
        ok,
        "geometric schedule exact=%s, sign flips then stabilizes 1-d at %s / desk at %s, "
        "aa wins %d/10" % (schedule_exact, ident_1d, ident_desk, wins),
    )


# ---------------------------------------------------------------------------
# criterion 11: strict safeguard keeps the residual envelope monotone


def test_criterion_11_safeguard_monotonicity():
    suite = [
        ({"problem.kind": "lasso", "problem.rows": "40", "problem.cols": "200",
          "problem.lambda": "0.01", "algorithm.kind": "ista", "aa.memory": "5",
          "run.seed": "1", "run.max_iter": "2000"}, "lasso"),
        ({"problem.kind": "nnls", "problem.rows": "50", "problem.cols": "30",
          "problem.lambda": "0.001", "algorithm.kind": "drs", "aa.memory": "5",
          "run.seed": "2", "run.max_iter": "300"}, "nnls"),
        ({"problem.kind": "svm", "problem.rows": "40", "problem.cols": "8",
          "problem.c": "100", "algorithm.kind": "pcd", "aa.memory": "5",
          "run.seed": "3", "run.max_iter": "500"}, "svm"),
        ({"problem.kind": "logreg", "problem.rows": "100", "problem.cols": "30",
          "problem.lambda": "0.001", "problem.p": "0.75", "problem.mu": "0.9",
          "problem.eps0": "1", "algorithm.kind": "irl1", "aa.memory": "10",
          "run.seed": "4", "run.tol": "1e-9", "run.max_iter": "600"}, "logreg"),
    ]
    envelope_ok = True
    acceptance_ok = True
    for pairs, _name in suite:
        cfg = _cfg({**pairs, "run.tol": pairs.get("run.tol", "1e-10"),
                    "aa.enabled": "true", "aa.safeguard": "1.0", "aa.restart": "1000000"})
        records, _ = run_experiment(cfg)
        res = np.array([r.residual_norm for r in records])
        envelope_ok &= bool(np.all(np.diff(np.minimum.accumulate(res)) <= 0.0))

        # Engine-level form of the same guarantee: an accepted candidate never
        # exceeds the smallest residual the window currently holds.
        ctx = build_operator(cfg)
        state = init_state(ctx.op.apply, ctx.x0, cfg.aa)
        for _ in range(cfg.max_iter):
            window_min = min(float(np.linalg.norm(r)) for r in state.r_hist)
            _, diag = safeguarded_step(ctx.op.apply, state)
            if diag.accepted and diag.residual_norm > window_min * (1.0 + 1e-12):
                acceptance_ok = False
            if diag.residual_norm <= cfg.tol:
                break
    ok = envelope_ok and acceptance_ok
    _report(
        11,
        "safeguard-monotonicity",
        ok,
        "running-min nonincreasing=%s, accepted<=window-min=%s on 4 problem kinds"
        % (envelope_ok, acceptance_ok),
    )


# ---------------------------------------------------------------------------
# criterion 12: stepsize window roots against a polynomial-root oracle


def test_criterion_12_beta_window():
    with pytest.raises(ValueError):
        irl1_beta_window(1.0, 1.0, 1.0, 0.5)

    rng = np.random.default_rng(99)
    checked = 0
    worst = 0.0
    while checked < 100:
        kappa = float(rng.uniform(0.3, 2.5))
        lam = float(rng.uniform(0.0, 1.5))
        l_omega = float(rng.uniform(0.0, 1.5))
        mu = float(rng.uniform(0.001, 0.999))
        a = kappa**2 + (lam * l_omega) ** 2
        disc = 4.0 * kappa**2 - 4.0 * a * (2.0 * mu - mu**2)
        if disc <= 1e-8:
            continue
        lo, hi = irl1_beta_window(kappa, lam, l_omega, mu)
        roots = np.sort(np.real(np.roots([a, -2.0 * kappa, 2.0 * mu - mu**2])))
        scale = max(1.0, abs(roots[0]), abs(roots[1]))
        worst = max(worst, abs(lo - roots[0]) / scale, abs(hi - roots[1]) / scale)
        checked += 1
    ok = worst <= 1e-12
    _report(
        12,
        "beta-window",
        ok,
        "inadmissible mu rejected; 100 admissible draws, worst root gap %.2e" % worst,
    )

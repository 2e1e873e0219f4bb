import math
import re
import textwrap
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import aaopt.harness
import aaopt.linalg
import aaopt.prox
from aaopt.algorithms import DrsParams, drs_parts, pga_step
from aaopt.harness import (
    TRACE_HEADER,
    ConfigError,
    ExperimentConfig,
    TraceRecord,
    build_operator,
    config_from_mapping,
    format_summary,
    load_config,
    parse_config_text,
    read_trace,
    run_experiment,
    run_sweep,
    write_summary,
    write_trace,
)
from aaopt.problems import (
    gen_lasso,
    gen_nnls,
    gen_svm,
    lasso_grad,
    lasso_objective,
    load_libsvm,
    nnls_objective,
)
from aaopt.prox import nonneg_project, quadratic_ls_prox, soft_threshold
from oracles import svm_pcd_sweep_reference, write_libsvm

LASSO_SMALL = {
    "problem.kind": "lasso",
    "problem.rows": "10",
    "problem.cols": "20",
    "algorithm.kind": "ista",
    "run.max_iter": "5000",
    "run.tol": "1e-8",
    "run.seed": "3",
}


def lasso_cfg(**extra) -> ExperimentConfig:
    kv = dict(LASSO_SMALL)
    kv.update(extra)
    return config_from_mapping(kv)


def svm_beta(A, y) -> float:
    """The harness's one-over-L step for an svm instance: 1 / max_i ||Z_i||^2, Z = y .* A.

    Each row's squares are summed as the harness sums them; y = +-1 leaves them unchanged.
    """
    if isinstance(A, np.ndarray):
        Z = y[:, None] * A
        return 1.0 / float(np.einsum("ij,ij->i", Z, Z).max())
    return 1.0 / max(float(d @ d) for d in np.split(A.data, A.indptr[1:-1]))


def numeric_fields(records):
    return [(r.k, r.residual_norm, r.objective, r.alpha_l1, r.accepted, r.support_size) for r in records]


# ---------------------------------------------------------------------------
# config grammar


def test_parse_config_text_basic():
    text = textwrap.dedent(
        """
        # a comment line
        problem.kind = lasso   # trailing comment
        run.seed = 7

        aa.enabled = true
        """
    )
    assert parse_config_text(text) == {
        "problem.kind": "lasso",
        "run.seed": "7",
        "aa.enabled": "true",
    }


def test_parse_config_text_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("problem.kind lasso")
    with pytest.raises(ConfigError, match="no section prefix"):
        parse_config_text("kind = lasso")
    with pytest.raises(ConfigError, match="line 3: duplicate key"):
        parse_config_text("run.seed = 1\n# note\nrun.seed = 2")
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("run.seed = 1\nrun.tol =")


def test_config_rejects_unknown_keys_and_kinds():
    with pytest.raises(ConfigError, match="unknown config key"):
        config_from_mapping({**LASSO_SMALL, "problem.bogus": "1"})
    with pytest.raises(ConfigError, match="unknown config key"):
        config_from_mapping({**LASSO_SMALL, "runs.tol": "1"})
    with pytest.raises(ConfigError, match="unknown problem kind"):
        config_from_mapping({"problem.kind": "ridge", "algorithm.kind": "ista"})
    with pytest.raises(ConfigError, match="problem.kind is required"):
        config_from_mapping({"algorithm.kind": "ista"})
    with pytest.raises(ConfigError, match="algorithm.kind is required"):
        config_from_mapping({"problem.kind": "lasso"})


def test_config_algorithm_problem_pairing():
    with pytest.raises(ConfigError, match="does not apply"):
        config_from_mapping({"problem.kind": "lasso", "algorithm.kind": "drs"})
    with pytest.raises(ConfigError, match="does not apply"):
        config_from_mapping({"problem.kind": "svm", "algorithm.kind": "ista"})
    cfg = config_from_mapping({"problem.kind": "nnls", "algorithm.kind": "drs"})
    assert cfg.algorithm == "drs"


def test_config_fista_cannot_be_accelerated():
    with pytest.raises(ConfigError, match="never accelerated"):
        config_from_mapping(
            {"problem.kind": "lasso", "algorithm.kind": "fista", "aa.enabled": "true"}
        )


def test_config_memory_bounds():
    with pytest.raises(ConfigError):
        lasso_cfg(**{"aa.memory": "0"})
    with pytest.raises(ConfigError):
        lasso_cfg(**{"aa.memory": "65"})
    assert lasso_cfg(**{"aa.memory": "64"}).aa.memory == 64


def test_config_value_type_errors():
    with pytest.raises(ConfigError, match="expected an integer"):
        lasso_cfg(**{"problem.rows": "many"})
    with pytest.raises(ConfigError, match="expected a number"):
        lasso_cfg(**{"run.tol": "tiny"})
    with pytest.raises(ConfigError, match="expected a boolean"):
        lasso_cfg(**{"aa.enabled": "maybe"})


def test_config_aa_sentinels():
    cfg = lasso_cfg(**{"aa.tikhonov": "auto", "aa.alpha_cap": "none"})
    assert cfg.aa.tikhonov is None
    assert cfg.aa.alpha_cap is None
    cfg = lasso_cfg(**{"aa.tikhonov": "0", "aa.alpha_cap": "50"})
    assert cfg.aa.tikhonov == 0.0
    assert cfg.aa.alpha_cap == 50.0


def test_config_explicit_beta_rule():
    with pytest.raises(ConfigError, match="beta"):
        lasso_cfg(**{"algorithm.beta_rule": "explicit"})
    cfg = lasso_cfg(**{"algorithm.beta_rule": "explicit", "algorithm.beta": "0.5"})
    assert cfg.beta == 0.5
    with pytest.raises(ConfigError, match="beta_rule"):
        lasso_cfg(**{"algorithm.beta_rule": "fixed"})


def test_config_defaults():
    cfg = config_from_mapping({"problem.kind": "lasso", "algorithm.kind": "ista"})
    assert cfg.max_iter == 1000 and cfg.tol == 1e-10 and cfg.seed == 0
    assert cfg.window == 10 and cfg.zero_tol == 1e-9 and cfg.delta == 1.0
    assert not cfg.aa_enabled and cfg.aa.memory == 10


def test_load_config(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("problem.kind = lasso\nalgorithm.kind = ista\n", encoding="utf-8")
    cfg = load_config(str(path))
    assert cfg.problem_kind == "lasso"
    with pytest.raises(OSError, match="missing.cfg"):
        load_config(str(tmp_path / "missing.cfg"))


# ---------------------------------------------------------------------------
# operator construction


def test_x0_depends_only_on_seed_and_dimension():
    a = build_operator(lasso_cfg())
    b = build_operator(lasso_cfg(**{"aa.enabled": "true"}))
    assert np.array_equal(a.x0, b.x0)
    nnls = build_operator(
        config_from_mapping(
            {"problem.kind": "nnls", "algorithm.kind": "drs",
             "problem.rows": "30", "problem.cols": "20", "run.seed": "3"}
        )
    )
    # the starting-point stream is separate from the instance stream
    assert np.array_equal(nnls.x0, a.x0)


def test_svm_incremental_sweep_matches_generic_coordinate_descent():
    cfg = config_from_mapping(
        {"problem.kind": "svm", "algorithm.kind": "pcd",
         "problem.rows": "12", "problem.cols": "4", "problem.c": "10", "run.seed": "5"}
    )
    ctx = build_operator(cfg)
    inst = gen_svm(12, 4, seed=5, C=10.0)
    Z = inst.y[:, None] * inst.A
    K = Z @ Z.T
    beta = svm_beta(inst.A, inst.y)
    rng = np.random.default_rng(2)
    for _ in range(5):
        x = rng.uniform(-1.0, 11.0, size=12)
        fast = ctx.op.apply(x)
        # Gauss-Seidel on the full kernel, without an incremental Z^T x
        slow = x.copy()
        for i in range(12):
            slow[i] = min(max(slow[i] - beta * (K[i] @ slow - 1.0), 0.0), 10.0)
        assert np.linalg.norm(fast - slow) <= 1e-10 * (1.0 + np.linalg.norm(slow))


SWEEP_ROWS, SWEEP_C = 15, 100.0


@pytest.fixture(scope="module")
def svm_sweeps(tmp_path_factory):
    """(op.apply, A, y, beta) of a dense svm instance and of its CSR copy."""
    inst = gen_svm(SWEEP_ROWS, 6, seed=3, C=SWEEP_C)
    path = tmp_path_factory.mktemp("svm") / "data.libsvm"
    write_libsvm(path, inst.A, inst.y)
    X, y = load_libsvm(str(path))
    sweeps = {}
    for kind, keys, A, labels in (
        ("dense", {"problem.rows": str(SWEEP_ROWS), "problem.cols": "6", "run.seed": "3"}, inst.A, inst.y),
        ("csr", {"problem.dataset": str(path)}, X, y),
    ):
        ctx = build_operator(config_from_mapping({"problem.kind": "svm", "algorithm.kind": "pcd", **keys}))
        sweeps[kind] = (ctx.op.apply, A, labels, svm_beta(A, labels))
    return sweeps


COORDINATE = st.one_of(
    st.floats(0.0, SWEEP_C),  # inside the box
    st.floats(-3.0 * SWEEP_C, 4.0 * SWEEP_C),  # AA-like extrapolations, mostly outside
    st.sampled_from([0.0, -0.0, SWEEP_C]),  # exactly on a bound
    st.floats(-1e150, 1e150),
)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["dense", "csr"]),
       coords=st.lists(COORDINATE, min_size=SWEEP_ROWS, max_size=SWEEP_ROWS))
@example(kind="dense", coords=[-0.0] * SWEEP_ROWS)
@example(kind="csr", coords=[-0.0] * SWEEP_ROWS)
@example(kind="dense", coords=[SWEEP_C] * SWEEP_ROWS)
@example(kind="csr", coords=[1e150, -1e150] * 7 + [0.0])
def test_svm_sweep_is_bitwise_the_reference_sweep(svm_sweeps, kind, coords):
    apply, A, y, beta = svm_sweeps[kind]
    x = np.array(coords)
    before = x.tobytes()
    got = apply(x)
    want = svm_pcd_sweep_reference(A, y, SWEEP_C, beta, x)
    assert x.tobytes() == before
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_logreg_builder_validates_smoothing_controls():
    base = {"problem.kind": "logreg", "algorithm.kind": "irl1",
            "problem.rows": "20", "problem.cols": "6"}
    with pytest.raises(ConfigError, match="problem.mu"):
        build_operator(config_from_mapping({**base, "problem.mu": "1.5"}))
    with pytest.raises(ConfigError, match="problem.eps0"):
        build_operator(config_from_mapping({**base, "problem.eps0": "0"}))


@pytest.mark.parametrize("kind,algorithm", [("lasso", "ista"), ("nnls", "drs"), ("logreg", "irl1")])
@pytest.mark.parametrize("lam", ["-0.1", "-1e-300", "nan"])
def test_config_rejects_negative_lambda(kind, algorithm, lam):
    with pytest.raises(ConfigError, match=re.escape("problem.lambda must lie in [0, inf)")):
        config_from_mapping({"problem.kind": kind, "algorithm.kind": algorithm, "problem.lambda": lam})
    assert config_from_mapping({"problem.kind": kind, "algorithm.kind": algorithm,
                                "problem.lambda": "0"}).params["lambda"] == 0.0


@pytest.mark.parametrize("c", ["0", "-1", "nan"])
def test_config_rejects_nonpositive_svm_c(c):
    with pytest.raises(ConfigError, match=re.escape("problem.c must lie in (0, inf)")):
        config_from_mapping({"problem.kind": "svm", "algorithm.kind": "pcd", "problem.c": c})


def test_lasso_dataset_with_negative_lam_is_rejected(tmp_path):
    inst = gen_lasso(10, 20, seed=0)
    path = str(tmp_path / "lasso.npz")
    np.savez(path, A=inst.A, y=inst.y, x_true=inst.x_true, lam=-0.5)
    cfg = config_from_mapping({"problem.kind": "lasso", "algorithm.kind": "ista", "problem.dataset": path})
    with pytest.raises(ConfigError, match="lam must be nonnegative"):
        build_operator(cfg)
    # an explicit problem.lambda overrides the file's
    build_operator(replace(cfg, params={**cfg.params, "lambda": 0.5}))


# ---------------------------------------------------------------------------
# runs


def test_run_is_deterministic_up_to_timing():
    cfg = lasso_cfg(**{"aa.enabled": "true", "aa.memory": "5"})
    rec1, sum1 = run_experiment(cfg)
    rec2, sum2 = run_experiment(cfg)
    assert numeric_fields(rec1) == numeric_fields(rec2)
    s1 = {k: v for k, v in sum1.items() if k != "elapsed_s"}
    s2 = {k: v for k, v in sum2.items() if k != "elapsed_s"}
    assert format_summary(s1) == format_summary(s2)


def test_trace_starts_at_zero_and_indexes_match():
    records, summary = run_experiment(lasso_cfg())
    assert records[0].k == 0
    assert records[0].alpha_l1 == 0.0 and records[0].accepted == 0
    assert [r.k for r in records] == list(range(len(records)))
    assert summary["iterations"] == records[-1].k
    assert summary["final_residual"] == records[-1].residual_norm
    assert summary["status"] == "converged"
    assert summary["final_residual"] <= 1e-8


def test_plain_trace_replays_exactly():
    cfg = lasso_cfg(**{"run.max_iter": "40", "run.tol": "1e-30"})
    records, _ = run_experiment(cfg)
    ctx = build_operator(cfg)
    x = ctx.x0
    for rec in records:
        h = ctx.op.apply(x)
        assert rec.residual_norm == float(np.linalg.norm(h - x))
        assert rec.objective == float(ctx.op.objective(x))
        x = h


def test_max_iter_one_yields_two_records():
    records, summary = run_experiment(lasso_cfg(**{"run.max_iter": "1", "run.tol": "1e-300"}))
    assert [r.k for r in records] == [0, 1]
    assert summary["status"] == "max_iter"
    assert summary["iterations"] == 1


def test_divergent_run_is_flagged():
    cfg = lasso_cfg(
        **{"algorithm.beta_rule": "explicit", "algorithm.beta": "1000", "run.max_iter": "200"}
    )
    _, summary = run_experiment(cfg)
    assert summary["status"] == "diverged"
    assert summary["final_residual"] > 1e12


def test_fista_run_has_no_mixing_weights():
    cfg = lasso_cfg(**{"algorithm.kind": "fista", "run.max_iter": "300", "run.tol": "1e-6"})
    records, summary = run_experiment(cfg)
    assert summary["algorithm"] == "fista"
    assert all(r.alpha_l1 == 0.0 and r.accepted == 0 for r in records)


def test_aa_run_reports_mixing_weights():
    records, summary = run_experiment(lasso_cfg(**{"aa.enabled": "true", "aa.memory": "5"}))
    assert summary["aa"] is True and summary["memory"] == 5
    assert summary["alpha_l1_max"] >= 1.0  # weights sum to one
    assert any(r.accepted == 1 and r.alpha_l1 >= 1.0 for r in records[1:])


def test_converged_lasso_identifies_support():
    _, summary = run_experiment(lasso_cfg())
    assert summary["identification_iter"] is not None
    assert 0 <= summary["identification_iter"] <= summary["iterations"]


def test_nnls_run_monitors_feasible_point():
    cfg = config_from_mapping(
        {"problem.kind": "nnls", "algorithm.kind": "drs",
         "problem.rows": "25", "problem.cols": "12",
         "run.max_iter": "4000", "run.tol": "1e-8", "run.seed": "1"}
    )
    records, summary = run_experiment(cfg)
    assert summary["status"] == "converged"
    assert all(math.isfinite(r.objective) for r in records)
    assert all(0 <= r.support_size <= 12 for r in records)


NNLS_SMALL = {"problem.kind": "nnls", "algorithm.kind": "drs",
              "problem.rows": "50", "problem.cols": "30", "run.seed": "0"}


def nnls_reference_parts():
    """drs_parts of the NNLS_SMALL operator, built without the harness."""
    inst = gen_nnls(50, 30, lam=0.001, seed=0)
    m = inst.A.shape[0]
    beta = 1.0 / (aaopt.linalg.spectral_norm_sq(inst.A) / m)  # one over L = ||A||^2 / m
    f_prox = quadratic_ls_prox(inst.A, inst.y, inst.lam, m, beta)
    drs = DrsParams(beta=beta, delta=1.0)
    return inst, lambda z: drs_parts(f_prox, lambda v, t: nonneg_project(v), drs, z)


@pytest.mark.parametrize("aa", ["false", "true"])
def test_nnls_run_solves_each_drs_point_once(monkeypatch, aa):
    cfg = config_from_mapping({**NNLS_SMALL, "aa.enabled": aa})
    ctx = build_operator(cfg)
    caller = ["loop"]
    calls = {"apply": 0, "monitor": 0, "objective": 0}
    solves = {"loop": 0, "apply": 0, "monitor": 0, "objective": 0}
    real_solve = aaopt.prox.dpotrs

    def counted_solve(*args, **kwargs):
        solves[caller[0]] += 1
        return real_solve(*args, **kwargs)

    def inside(name, fn):
        def wrapped(z):
            calls[name] += 1
            caller[0] = name
            try:
                return fn(z)
            finally:
                caller[0] = "loop"
        return wrapped

    ctx.op = replace(ctx.op, **{name: inside(name, getattr(ctx.op, name)) for name in calls})
    monkeypatch.setattr(aaopt.prox, "dpotrs", counted_solve)
    monkeypatch.setattr(aaopt.harness, "build_operator", lambda _cfg: ctx)
    records, summary = run_experiment(cfg)
    assert summary["status"] == "converged"
    assert calls["monitor"] == calls["objective"] == len(records)
    if aa == "true":  # the engine both accepts and rejects on this run
        assert any(r.accepted for r in records[1:]) and not all(r.accepted for r in records[1:])
    else:
        assert calls["apply"] == len(records)
    assert solves == {"loop": 0, "apply": calls["apply"], "monitor": 0, "objective": 0}


def test_nnls_memoized_monitor_and_objective_match_direct_solve():
    ctx = build_operator(config_from_mapping(NNLS_SMALL))
    inst, parts = nnls_reference_parts()
    z = ctx.x0
    for _ in range(20):
        h = ctx.op.apply(z)
        _, y, z_next = parts(z)
        assert np.array_equal(h, z_next)
        assert np.array_equal(ctx.op.monitor(z), y)
        assert ctx.op.objective(z) == nnls_objective(inst, y)
        z = h


def test_nnls_memo_is_not_stale_after_in_place_mutation():
    ctx = build_operator(config_from_mapping(NNLS_SMALL))
    _, parts = nnls_reference_parts()
    z = ctx.x0.copy()
    ctx.op.apply(z)
    before = ctx.op.monitor(z)
    z += 1.0
    after = ctx.op.monitor(z)
    assert np.array_equal(after, parts(z)[1])
    assert not np.array_equal(after, before)


LASSO_MEMO = {**LASSO_SMALL, "problem.rows": "40", "problem.cols": "200", "problem.lambda": "0.01",
              "run.seed": "0", "aa.restart": "1"}


def lasso_reference():
    """The LASSO_MEMO instance and its map, built without the harness's memo."""
    inst = gen_lasso(40, 200, lam=0.01, seed=0)
    beta = 1.0 / aaopt.linalg.spectral_norm_sq(inst.A)
    g_prox = lambda v, t: soft_threshold(v, t * inst.lam)
    return inst, lambda x: pga_step(lambda z: lasso_grad(inst, z), g_prox, beta, x)


def build_counting_lasso(monkeypatch, cfg, caller: list, products: dict):
    """build_operator(cfg), with A x products (not A^T r) counted by caller from then on.

    The instance's matrix is an ndarray subclass, injected through the
    harness's gen_lasso, whose ``dot`` counts and then returns the plain
    product, so the run computes what it computes without it.
    """
    real = aaopt.harness.gen_lasso
    shape = None

    class CountingMatrix(np.ndarray):
        def dot(self, x):
            if self.shape == shape:  # A x; A.T is a view of the transposed shape
                products[caller[0]] += 1
            return np.asarray(self).dot(x)

    def gen_counting(*args, **kwargs):
        nonlocal shape
        inst = real(*args, **kwargs)
        shape = inst.A.shape
        return replace(inst, A=inst.A.view(CountingMatrix))

    monkeypatch.setattr(aaopt.harness, "gen_lasso", gen_counting)
    ctx = build_operator(cfg)
    products.update(dict.fromkeys(products, 0))  # the set-up's power iteration
    return ctx


@pytest.mark.parametrize("algorithm,aa", [("ista", "false"), ("ista", "true"), ("fista", "false")])
def test_lasso_run_forms_one_residual_per_evaluation(monkeypatch, algorithm, aa):
    cfg = config_from_mapping({**LASSO_MEMO, "algorithm.kind": algorithm, "aa.enabled": aa,
                               "run.max_iter": "600", "run.tol": "1e-9"})
    caller = ["loop"]
    calls = {"apply": 0, "objective": 0}
    products = {"loop": 0, "apply": 0, "objective": 0}
    ctx = build_counting_lasso(monkeypatch, cfg, caller, products)

    def inside(name, fn):
        def wrapped(x):
            calls[name] += 1
            caller[0] = name
            try:
                return fn(x)
            finally:
                caller[0] = "loop"
        return wrapped

    ctx.op = replace(ctx.op, **{name: inside(name, getattr(ctx.op, name)) for name in calls})
    monkeypatch.setattr(aaopt.harness, "build_operator", lambda _cfg: ctx)
    records, _ = run_experiment(cfg)
    assert calls["objective"] == len(records)
    if aa == "true":  # the engine both accepts and rejects on this run
        assert any(r.accepted for r in records[1:]) and not all(r.accepted for r in records[1:])
    elif algorithm == "ista":
        assert calls["apply"] == len(records)
    # FISTA's first two steps evaluate H at y = x, a point the monitor has
    # just evaluated, so they form no product
    hits = 2 if algorithm == "fista" else 0
    assert products == {"loop": 0, "apply": calls["apply"] - hits, "objective": 0}


def test_lasso_memoized_map_and_objective_match_direct_evaluation():
    ctx = build_operator(config_from_mapping(LASSO_MEMO))
    inst, apply = lasso_reference()
    x = ctx.x0
    for _ in range(20):
        h = ctx.op.apply(x)
        assert h.tobytes() == apply(x).tobytes()
        assert ctx.op.objective(x) == lasso_objective(inst, x)
        x = h


def test_lasso_memo_is_not_stale_after_in_place_mutation(monkeypatch):
    products = {"test": 0}
    ctx = build_counting_lasso(monkeypatch, config_from_mapping(LASSO_MEMO), ["test"], products)
    inst, _ = lasso_reference()
    x = ctx.x0.copy()
    ctx.op.apply(x)
    before = ctx.op.objective(x)
    assert products["test"] == 1
    x += 1.0
    after = ctx.op.objective(x)
    assert products["test"] == 2
    assert after == lasso_objective(inst, x) and after != before


def test_lasso_memo_treats_signed_zeros_as_different_points(monkeypatch):
    products = {"test": 0}
    ctx = build_counting_lasso(monkeypatch, config_from_mapping(LASSO_MEMO), ["test"], products)
    inst, _ = lasso_reference()
    x = soft_threshold(ctx.x0, 1.0)  # +0.0 off the support
    ctx.op.apply(x)
    negated = np.where(x == 0.0, -0.0, x)
    assert np.array_equal(negated, x) and negated.tobytes() != x.tobytes()
    got = ctx.op.objective(negated)
    assert products["test"] == 2
    assert got == lasso_objective(inst, negated)
    got = ctx.op.objective(x)
    assert products["test"] == 3
    assert got == lasso_objective(inst, x)


def test_logreg_run_converges_with_smoothing_floor():
    cfg = config_from_mapping(
        {"problem.kind": "logreg", "algorithm.kind": "irl1",
         "problem.rows": "30", "problem.cols": "8", "problem.lambda": "0.01",
         "problem.mu": "0.9", "problem.eps0": "0.1",
         "run.max_iter": "3000", "run.tol": "1e-6", "run.seed": "2"}
    )
    records, summary = run_experiment(cfg)
    assert summary["status"] == "converged"
    # support column counts pattern entries of the primal block only
    assert all(r.support_size <= 8 for r in records)


def test_run_writes_trace_file(tmp_path):
    path = tmp_path / "trace.csv"
    cfg = lasso_cfg(**{"run.trace": str(path), "run.max_iter": "30", "run.tol": "1e-30"})
    records, _ = run_experiment(cfg)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == TRACE_HEADER
    assert len(lines) == len(records) + 1


# ---------------------------------------------------------------------------
# sweep


def test_run_sweep_baseline_plus_memories(tmp_path):
    cfg = lasso_cfg(**{"run.trace": str(tmp_path / "t.csv"), "run.max_iter": "400",
                       "run.tol": "1e-6"})
    summaries = run_sweep(cfg, [2, 3])
    assert len(summaries) == 3
    assert summaries[0]["aa"] is False and summaries[0]["memory"] == 0
    assert [s["memory"] for s in summaries[1:]] == [2, 3]
    for name in ("t.baseline.csv", "t.m2.csv", "t.m3.csv"):
        assert (tmp_path / name).exists()
    with pytest.raises(ConfigError):
        run_sweep(cfg, [])


# ---------------------------------------------------------------------------
# trace and summary I/O


def test_trace_roundtrip_is_exact(tmp_path):
    records = [
        TraceRecord(0, math.pi, -1.0 / 3.0, 0.0, 0, 3, 17),
        TraceRecord(1, 1e-300, 2.0**-1074, 1.0 + 2**-52, 1, 0, 123456),
    ]
    path = tmp_path / "t.csv"
    write_trace(records, path=str(path))
    back = read_trace(str(path))
    assert back == records


def test_trace_overwrite_leaves_no_stale_tail(tmp_path):
    long = [TraceRecord(k, 1.0 / (k + 1), -float(k), 0.5 * k, k % 2, k % 7, 1000 * k) for k in range(500)]
    short = [TraceRecord(k, math.pi * k, 1e-300, 0.0, 1, 3, k) for k in range(7)]
    path, fresh = tmp_path / "t.csv", tmp_path / "fresh.csv"
    write_trace(long, str(path))
    write_trace(short, str(path))
    write_trace(short, str(fresh))
    assert path.read_bytes() == fresh.read_bytes()
    assert read_trace(str(path)) == short
    write_trace(long, str(path))  # growing again over the shorter file
    assert read_trace(str(path)) == long


def test_write_trace_names_the_path_on_failure(tmp_path):
    path = tmp_path / "missing" / "t.csv"
    with pytest.raises(OSError, match="writing trace to .*missing"):
        write_trace([TraceRecord(0, 1.0, 1.0, 0.0, 0, 0, 0)], str(path))


def test_read_trace_requires_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope\n1,2,3,4,5,6,7\n", encoding="utf-8")
    with pytest.raises(ValueError, match="missing trace header"):
        read_trace(str(path))


def test_summary_formatting(tmp_path):
    summary = {"problem": "lasso", "aa": True, "identification_iter": None, "tol": 0.5}
    text = format_summary(summary)
    assert text.splitlines() == ["problem=lasso", "aa=true", "identification_iter=none", "tol=0.5"]
    path = tmp_path / "s.txt"
    write_summary([summary, summary], str(path))
    content = path.read_text(encoding="utf-8")
    assert content.count("problem=lasso") == 2
    assert "\n\n" in content

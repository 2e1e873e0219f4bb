import gc
import math
import os
import re
import textwrap
import tracemalloc
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import aaopt._kernels
import aaopt.harness
import aaopt.linalg
import aaopt.prox
from aaopt.algorithms import drs_parts
from aaopt.cli import main
from aaopt.manifold import identification_iter, pattern_limits, pattern_of, support_size
from aaopt.harness import (
    TRACE_BLOCK,
    TRACE_HEADER,
    ConfigError,
    ExperimentConfig,
    Trace,
    TraceRecord,
    build_operator,
    config_from_mapping,
    format_summary,
    load_config,
    parse_config_text,
    read_trace,
    run_experiment,
    run_sweep,
    write_trace,
)
from aaopt.problems import (
    LassoInstance,
    gen_lasso,
    gen_nnls,
    gen_svm,
    lasso_objective,
    load_libsvm,
    nnls_objective,
    subsample,
)
from aaopt.prox import nonneg_project, quadratic_ls_prox, soft_threshold
from oracles import lasso_pga_reference, objective_terms, svm_pcd_sweep_reference, write_libsvm

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


def trace_of(rows) -> Trace:
    """A Trace holding ``rows``, each one record's fields after k."""
    trace = Trace()
    for row in rows:
        for column, value in zip(trace.columns, row, strict=True):
            column.append(value)
    return trace


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
    assert lasso_cfg(**{"aa.tikhonov": "auto"}).aa.tikhonov is None
    assert lasso_cfg(**{"aa.tikhonov": "0"}).aa.tikhonov == 0.0


def test_config_explicit_beta_rule():
    """algorithm.beta is an explicit step size, or auto for the 1/L rule."""
    assert lasso_cfg(**{"algorithm.beta": "0.5"}).beta == 0.5
    assert lasso_cfg(**{"algorithm.beta": "auto"}).beta is None
    assert lasso_cfg().beta is None
    with pytest.raises(ConfigError, match="algorithm.beta: expected a number"):
        lasso_cfg(**{"algorithm.beta": "fixed"})
    with pytest.raises(ConfigError, match="unknown config key 'algorithm.beta_rule'"):
        lasso_cfg(**{"algorithm.beta_rule": "explicit"})


def test_config_defaults():
    cfg = config_from_mapping({"problem.kind": "lasso", "algorithm.kind": "ista"})
    assert cfg.max_iter == 1000 and cfg.tol == 1e-10 and cfg.seed == 0
    assert cfg.window == 10 and cfg.zero_tol == 1e-9 and cfg.delta is None
    assert not cfg.aa_enabled and cfg.aa.memory == 10


def test_load_config(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("problem.kind = lasso\nalgorithm.kind = ista\n", encoding="utf-8")
    cfg = load_config(str(path))
    assert cfg.problem_kind == "lasso"
    with pytest.raises(OSError, match="missing.cfg"):
        load_config(str(tmp_path / "missing.cfg"))


def test_a_config_saved_with_a_byte_order_mark_runs(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("\ufeffproblem.kind = lasso\nalgorithm.kind = ista\nrun.max_iter = 5\n", encoding="utf-8")
    cfg = load_config(str(path))
    assert cfg.problem_kind == "lasso" and cfg.max_iter == 5
    _, summary = run_experiment(cfg)
    assert summary["iterations"] == 5


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


@pytest.fixture
def lasso_libsvm(tmp_path):
    """A 20 x 40 lasso instance as LIBSVM text: gen_lasso's design, the signs of its y."""
    inst = gen_lasso(20, 40, seed=0)
    path = tmp_path / "lasso.libsvm"
    write_libsvm(path, inst.A, np.where(inst.y >= 0.0, 1.0, -1.0), drop_below=0.1)
    return str(path)


def final_iterate(monkeypatch, cfg):
    """run_experiment(cfg) and the last iterate it recorded: the last monitor vector
    the loop takes (for lasso the monitor is the iterate)."""
    monitors = []
    (_, summary), _ = spied_run(monkeypatch, cfg, monitor=monitor_capture(monitors))
    return monitors[-1], summary


@pytest.mark.parametrize("aa", ["false", "true"])
def test_lasso_libsvm_run_ends_at_a_first_order_point(monkeypatch, lasso_libsvm, aa):
    lam = 0.05
    cfg = config_from_mapping({"problem.kind": "lasso", "algorithm.kind": "ista", "aa.enabled": aa,
                               "problem.dataset": lasso_libsvm, "problem.lambda": str(lam),
                               "run.tol": "1e-10", "run.max_iter": "5000"})
    x, summary = final_iterate(monkeypatch, cfg)
    assert summary["status"] == "converged"
    A, y = load_libsvm(lasso_libsvm)
    gap = x - soft_threshold(x - A.T.dot(A.dot(x) - y), lam)
    assert np.linalg.norm(gap) <= 1e-8, (np.linalg.norm(gap), summary["iterations"])


def test_lasso_reads_zero_one_labels_as_plus_minus_one(lasso_libsvm, tmp_path):
    A, y = load_libsvm(lasso_libsvm)
    zero_one = str(tmp_path / "zero_one.libsvm")
    write_libsvm(zero_one, A.toarray(), (y + 1.0) / 2.0, drop_below=0.1)
    ops = [build_operator(config_from_mapping({"problem.kind": "lasso", "algorithm.kind": "ista",
                                               "problem.dataset": path})).op
           for path in (lasso_libsvm, zero_one)]
    x = np.random.default_rng(1).standard_normal(40)
    assert ops[0].objective(x) == ops[1].objective(x)
    assert np.array_equal(ops[0].apply(x), ops[1].apply(x))


def test_lasso_subsample_thins_the_dataset(lasso_libsvm):
    cfg = config_from_mapping({"problem.kind": "lasso", "algorithm.kind": "ista", "run.seed": "4",
                               "problem.dataset": lasso_libsvm, "problem.subsample": "12",
                               "problem.lambda": "0.02"})
    op = build_operator(cfg).op
    X, y = subsample(*load_libsvm(lasso_libsvm), 12, seed=4)
    inst = LassoInstance(A=X, y=y, lam=0.02)
    x = np.random.default_rng(0).standard_normal(40)
    assert X.shape == (12, 40)
    assert op.objective(x) == lasso_objective(inst, x)


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
        # a block's product need not sum as one point's does, so to a tolerance
        assert math.isclose(rec.objective, ctx.op.objective(x), rel_tol=1e-12)
        x = h


def test_max_iter_one_yields_two_records():
    records, summary = run_experiment(lasso_cfg(**{"run.max_iter": "1", "run.tol": "1e-300"}))
    assert [r.k for r in records] == [0, 1]
    assert summary["status"] == "max_iter"
    assert summary["iterations"] == 1


@pytest.mark.parametrize("keys", [
    {"problem.kind": "lasso", "algorithm.kind": "ista"},
    {"problem.kind": "svm", "algorithm.kind": "pcd", "aa.enabled": "true"},
])
def test_run_builds_the_pattern_limits_once(monkeypatch, keys):
    # the limits depend only on run.zero_tol and the box, so building them
    # per recorded iterate is waste that this pins out; the patterns are
    # taken a block of TRACE_BLOCK iterates at a time
    calls = {"pattern_limits": 0, "pattern_of": 0}

    def spy(name):
        original = getattr(aaopt.harness, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(aaopt.harness, name, counted)

    spy("pattern_limits")
    spy("pattern_of")
    records, summary = run_experiment(config_from_mapping({**keys, "run.max_iter": "100", "run.tol": "1e-300"}))
    assert summary["iterations"] == 100 and len(records) == 101
    assert calls == {"pattern_limits": 1, "pattern_of": math.ceil(101 / aaopt.harness.TRACE_BLOCK)}


def spied_run(monkeypatch, cfg, **wrappers):
    """run_experiment(cfg) with each named operator field wrapped: ``name=lambda fn: new_fn``."""
    build = aaopt.harness.build_operator

    def spying_build(cfg):
        ctx = build(cfg)
        ctx.op = replace(ctx.op, **{name: wrap(getattr(ctx.op, name)) for name, wrap in wrappers.items()})
        spying_build.ctx = ctx
        return ctx

    monkeypatch.setattr(aaopt.harness, "build_operator", spying_build)
    return run_experiment(cfg), spying_build.ctx


# lasso and svm read each iterate's objective off their map's readout; nnls,
# whose readout holds only the residual norm, takes its objectives a block at a time
BLOCK_EDGE_RUNS = {
    "lasso": {"problem.kind": "lasso", "algorithm.kind": "ista", "problem.lambda": "0.3"},
    "svm": {"problem.kind": "svm", "algorithm.kind": "pcd", "aa.enabled": "true", "problem.c": "0.01"},
    "nnls": {"problem.kind": "nnls", "algorithm.kind": "drs", "aa.enabled": "true"},
}


def reads_objective(op) -> bool:
    """Whether the run loop reads the operator's objectives off its map's readout."""
    return op.readout is not None and op.readout.size == 2


def block_edge_cfg(family: str, max_iter: int) -> ExperimentConfig:
    return config_from_mapping({**BLOCK_EDGE_RUNS[family], "run.max_iter": str(max_iter),
                                "run.tol": "1e-300", "run.window": "3"})


def monitor_capture(monitors: list):
    """A ``spied_run`` wrapper for ``monitor`` that appends each monitor vector the loop takes to ``monitors``."""
    def capture(monitor):
        def captured(x):
            monitors.append(np.array(x if monitor is None else monitor(x)))  # unset: the iterate
            return monitors[-1]
        return captured
    return capture


def run_with_patterns(monkeypatch, cfg):
    """run_experiment(cfg)'s trace and summary, and the pattern of each iterate's monitor vector."""
    monitors = []
    (trace, summary), ctx = spied_run(monkeypatch, cfg, monitor=monitor_capture(monitors))
    limits = pattern_limits(cfg.zero_tol, ctx.bounds)
    return trace, summary, [pattern_of(v, limits) for v in monitors]


# a run of max_iter iterations records max_iter + 1 iterates, so these end
# short of a block, on a block's edge and past it
@pytest.mark.parametrize("max_iter", [TRACE_BLOCK - 2, TRACE_BLOCK - 1, TRACE_BLOCK, TRACE_BLOCK + 1,
                                      2 * TRACE_BLOCK])
@pytest.mark.parametrize("family", BLOCK_EDGE_RUNS)
def test_block_patterns_match_a_pattern_per_iterate(monkeypatch, family, max_iter):
    cfg = block_edge_cfg(family, max_iter)
    trace, summary, patterns = run_with_patterns(monkeypatch, cfg)
    assert len(trace) == len(patterns) == max_iter + 1
    assert list(trace.support_size) == [support_size(p) for p in patterns]
    assert summary["identification_iter"] == identification_iter(patterns, cfg.window)


def test_block_edge_runs_identify_across_an_edge():
    # the runs above are not all unidentified: with max_iter = 16 the lasso
    # run's final pattern holds over iterates 14, 15 and 16, across the edge
    # of its 16-row blocks; with max_iter = 32 svm's holds from 18
    assert TRACE_BLOCK == 16
    assert run_experiment(block_edge_cfg("lasso", 16))[1]["identification_iter"] == 14
    assert run_experiment(block_edge_cfg("svm", 32))[1]["identification_iter"] == 18


def test_every_iterate_from_identification_lies_on_the_final_pattern(monkeypatch):
    # the golden lasso FISTA run, seed 0: its final pattern held for a full
    # window early on, was left, and was entered for the last time at 848
    cfg = config_from_mapping({"problem.kind": "lasso", "problem.rows": "40", "problem.cols": "200",
                               "problem.lambda": "0.01", "algorithm.kind": "fista", "run.seed": "0",
                               "run.tol": "1e-10", "run.max_iter": "1500"})
    _, summary, patterns = run_with_patterns(monkeypatch, cfg)
    ident = summary["identification_iter"]
    assert ident is not None and len(patterns) - ident >= cfg.window
    assert all(np.array_equal(p, patterns[-1]) for p in patterns[ident:])
    assert ident == 0 or not np.array_equal(patterns[ident - 1], patterns[-1])


@pytest.mark.parametrize("keys", [
    {"problem.kind": "lasso", "algorithm.kind": "ista"},
    {"problem.kind": "nnls", "algorithm.kind": "drs", "aa.enabled": "true"},
])
def test_a_run_takes_its_objectives_a_block_at_a_time(monkeypatch, keys):
    blocks = []

    def counted(objective):
        def block_objective(block):
            blocks.append(len(block))
            return objective(block)
        return block_objective

    cfg = config_from_mapping({**keys, "run.max_iter": "100", "run.tol": "1e-300"})
    (trace, _), ctx = spied_run(monkeypatch, cfg, objective=counted)
    assert len(trace) == len(trace.objective) == 101
    if reads_objective(ctx.op):  # the lasso map reads each iterate's objective out
        assert blocks == []
    else:
        assert sum(blocks) == 101 and len(blocks) == math.ceil(101 / TRACE_BLOCK) == 7


@pytest.mark.parametrize("max_iter", [TRACE_BLOCK - 1, TRACE_BLOCK, TRACE_BLOCK + 1])
@pytest.mark.parametrize("family", BLOCK_EDGE_RUNS)
def test_block_objectives_match_an_objective_per_iterate(monkeypatch, family, max_iter):
    monitors, taken = [], []

    def capture_objective(objective):
        def captured(block):
            taken.extend(objective(block).tolist())
            return np.array(taken[-len(block):])
        captured.unwrapped = objective
        return captured

    cfg = block_edge_cfg(family, max_iter)
    (trace, summary), ctx = spied_run(monkeypatch, cfg, monitor=monitor_capture(monitors),
                                      objective=capture_objective)
    assert len(trace.objective) == len(monitors) == max_iter + 1
    # a map whose readout holds the objective leaves the operator's objective uncalled
    assert taken == ([] if reads_objective(ctx.op) else list(trace.objective))
    assert summary["final_objective"] == trace[-1].objective
    objective = ctx.op.objective.unwrapped
    for value, monitor in zip(trace.objective, monitors):  # one point's product sums apart from a block's
        assert math.isclose(value, objective(monitor[None])[0], rel_tol=1e-12)


def test_a_trace_that_cannot_be_written_fails_before_the_run(monkeypatch, tmp_path):
    calls = {"apply": 0}

    def counted(fn):
        def apply(x):
            calls["apply"] += 1
            return fn(x)
        return apply

    path = tmp_path / "missing" / "t.csv"
    with pytest.raises(OSError, match=r"^writing trace to .*missing/t\.csv: \[Errno 2\] No such file"):
        spied_run(monkeypatch, lasso_cfg(**{"run.trace": str(path)}), apply=counted)
    assert calls == {"apply": 0}


@pytest.mark.parametrize("old", [True, False], ids=["old-trace", "no-trace"])
def test_a_run_that_raises_leaves_the_trace_path_as_it_was(monkeypatch, tmp_path, old):
    path = tmp_path / "t.csv"
    if old:
        write_trace(trace_of((1.0 / (k + 1), 2.0, 0.0, 0, 3, k) for k in range(50)), str(path))
        before = path.read_bytes()

    def failing(fn):
        calls = []

        def apply(x):
            calls.append(None)
            if len(calls) > 5:
                raise FloatingPointError("a map that fails")
            return fn(x)
        return apply

    with pytest.raises(FloatingPointError, match="a map that fails"):
        spied_run(monkeypatch, lasso_cfg(**{"run.trace": str(path)}), apply=failing)
    if old:
        assert path.read_bytes() == before
    else:
        assert not path.exists()


def test_trace_reads_as_a_sequence_of_records():
    trace, _ = run_experiment(lasso_cfg(**{"aa.enabled": "true", "run.max_iter": "40", "run.tol": "1e-30"}))
    records = list(trace)
    assert isinstance(trace, Trace) and len(trace) == len(records) == 41
    assert all(type(r) is TraceRecord for r in records)
    assert [trace[k] for k in range(len(trace))] == records
    assert [trace[k] for k in range(-len(trace), 0)] == records
    assert [r.k for r in records] == list(range(41))
    for index in (41, -42):
        with pytest.raises(IndexError):
            trace[index]
    for cut in (slice(None), slice(1, None), slice(5, 30, 7), slice(None, None, -3), slice(-3, 100),
                slice(40, 2)):
        assert trace[cut] == records[cut]
    assert any(r.accepted for r in trace[1:]) and trace[-1].residual_norm == trace.residual_norm[-1]


def test_write_trace_writes_a_trace_as_its_records(tmp_path):
    trace, _ = run_experiment(lasso_cfg(**{"aa.enabled": "true", "run.max_iter": "60", "run.tol": "1e-30"}))
    path = tmp_path / "t.csv"
    write_trace(trace, str(path))
    rows = ("%d,%.17g,%.17g,%.17g,%d,%d,%d\n" % astuple(record) for record in trace)
    header = "k,residual_norm,objective,alpha_l1,accepted,support_size,elapsed_us\n"
    assert path.read_text(encoding="utf-8") == header + "".join(rows)
    assert list(read_trace(str(path))) == list(trace)


def test_read_trace_gives_back_the_runs_trace_bitwise(tmp_path):
    path, again = tmp_path / "t.csv", tmp_path / "again.csv"
    trace, _ = run_experiment(lasso_cfg(**{"aa.enabled": "true", "run.max_iter": "60", "run.tol": "1e-30",
                                           "run.trace": str(path)}))
    back = read_trace(str(path))
    assert type(back) is Trace and len(back) == len(trace) == 61
    for column, read in zip(trace.columns, back.columns, strict=True):
        assert read.typecode == column.typecode and read.tobytes() == column.tobytes()
    write_trace(back, str(again))
    assert again.read_bytes() == path.read_bytes()


def test_a_run_holds_at_most_64_bytes_per_record():
    # the columns take 41 bytes a record; a TraceRecord and an activity
    # pattern held per record take about 200, which this bound rules out
    cfg = config_from_mapping({"problem.kind": "lasso", "algorithm.kind": "ista",
                               "run.tol": "1e-10", "run.max_iter": "20000"})
    run_experiment(replace(cfg, max_iter=20))  # imports and caches, outside the count
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace, _ = run_experiment(cfg)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(trace) >= 10000
    assert held <= 64 * len(trace), (held, len(trace))


def test_divergent_run_is_flagged():
    cfg = lasso_cfg(**{"algorithm.beta": "1000", "run.max_iter": "200"})
    _, summary = run_experiment(cfg)
    assert summary["status"] == "diverged"
    assert summary["final_residual"] > 1e12


def test_fista_run_has_no_mixing_weights():
    cfg = lasso_cfg(**{"algorithm.kind": "fista", "run.max_iter": "300", "run.tol": "1e-6"})
    records, summary = run_experiment(cfg)
    assert summary["algorithm"] == "fista"
    assert all(r.alpha_l1 == 0.0 and r.accepted == 0 for r in records)


def test_fista_first_step_is_one_application_of_h():
    # t starts at 1, so the first step carries no momentum: both runs reach x1 = H(x0)
    fista, _ = run_experiment(lasso_cfg(**{"algorithm.kind": "fista", "run.max_iter": "1"}))
    ista, _ = run_experiment(lasso_cfg(**{"run.max_iter": "1"}))
    bits = lambda r: (r.residual_norm.hex(), r.objective.hex())
    assert bits(fista[1]) == bits(ista[1])


def test_fista_converges_to_the_ista_objective():
    _, fista = run_experiment(lasso_cfg(**{"algorithm.kind": "fista"}))
    _, ista = run_experiment(lasso_cfg())
    assert fista["status"] == ista["status"] == "converged"  # both reach run.tol
    assert math.isclose(fista["final_objective"], ista["final_objective"], rel_tol=1e-8)


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
    return inst, lambda z: drs_parts(f_prox, nonneg_project, 1.0, z)


def count_solve_pairs(monkeypatch, count):
    """Wrap the compiled DRS map, bound from now on, so that count() runs once per call,
    which makes one pair of triangular solves."""
    real_bound = aaopt._kernels.bound

    def bound_counting(name, *args):
        call = real_bound(name, *args)
        if name != "aaopt_drs_nonneg":
            return call

        def counted():
            count()
            return call()
        return counted

    monkeypatch.setattr(aaopt._kernels, "bound", bound_counting)


@pytest.mark.parametrize("aa", ["false", "true"])
def test_nnls_run_solves_each_drs_point_once(monkeypatch, aa):
    cfg = config_from_mapping({**NNLS_SMALL, "aa.enabled": aa})
    ctx = build_operator(cfg)
    caller = ["loop"]
    calls = {"apply": 0, "monitor": 0, "objective": 0}
    solves = {"loop": 0, "apply": 0, "monitor": 0, "objective": 0}

    def count():
        solves[caller[0]] += 1

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
    count_solve_pairs(monkeypatch, count)
    monkeypatch.setattr(aaopt.harness, "build_operator", lambda _cfg: ctx)
    records, summary = run_experiment(cfg)
    assert summary["status"] == "converged"
    assert calls["monitor"] == len(records)
    assert calls["objective"] == math.ceil(len(records) / TRACE_BLOCK)
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
        assert ctx.op.objective(ctx.op.monitor(z)[None]) == nnls_objective(inst, y[None])  # at the monitor
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


def test_nnls_memo_treats_signed_zeros_as_different_points(monkeypatch):
    solves = []
    count_solve_pairs(monkeypatch, lambda: solves.append(None))
    ctx = build_operator(config_from_mapping(NNLS_SMALL))
    _, parts = nnls_reference_parts()
    z = soft_threshold(ctx.x0, 1.0)  # +0.0 off the support
    negated = np.where(z == 0.0, -0.0, z)
    assert np.array_equal(negated, z) and negated.tobytes() != z.tobytes()
    want = {point.tobytes(): parts(point)[1].tobytes() for point in (z, negated)}
    solves.clear()
    ctx.op.apply(z)
    assert ctx.op.monitor(z).tobytes() == want[z.tobytes()] and len(solves) == 1
    assert ctx.op.monitor(negated).tobytes() == want[negated.tobytes()] and len(solves) == 2
    assert ctx.op.monitor(z).tobytes() == want[z.tobytes()] and len(solves) == 3


LASSO_40X200 = {**LASSO_SMALL, "problem.rows": "40", "problem.cols": "200", "problem.lambda": "0.01",
                "run.seed": "0", "aa.restart": "1"}


def lasso_reference():
    """The LASSO_40X200 instance and its map composed in numpy, built without the harness."""
    inst = gen_lasso(40, 200, lam=0.01, seed=0)
    beta = 1.0 / aaopt.linalg.spectral_norm_sq(inst.A)
    return inst, lasso_pga_reference(inst.A, inst.y, inst.lam, beta)


def build_counting_lasso(monkeypatch, cfg, caller: list, products: dict, kernel_calls: dict):
    """build_operator(cfg), with products by A (not by A^T) and calls of the compiled
    map counted by caller from then on.

    The instance's matrix is an ndarray subclass, injected through the
    harness's gen_lasso, that counts ``A.dot(x)`` and ``X @ A.T`` and then
    returns the plain product, so the run computes what it computes without it.
    The compiled map's bound call is wrapped, through ``_kernels.bound``, in a
    count of its own; the Anderson engine's bound kernels are left uncounted.
    """
    real, real_bound = aaopt.harness.gen_lasso, aaopt._kernels.bound
    shape = None

    class CountingMatrix(np.ndarray):
        def dot(self, x):
            if self.shape == shape:  # A x; A.T is a view of the transposed shape
                products[caller[0]] += 1
            return np.asarray(self).dot(x)

        def __rmatmul__(self, X):
            if self.shape == shape[::-1]:  # X A^T, a block's product
                products[caller[0]] += 1
            return X @ np.asarray(self)

    def gen_counting(*args, **kwargs):
        nonlocal shape
        inst = real(*args, **kwargs)
        shape = inst.A.shape
        return replace(inst, A=inst.A.view(CountingMatrix))

    def bound_counting(name, *args):
        call = real_bound(name, *args)
        if not name.startswith("aaopt_pga_"):
            return call

        def counted():
            kernel_calls[caller[0]] += 1
            return call()
        return counted

    monkeypatch.setattr(aaopt.harness, "gen_lasso", gen_counting)
    monkeypatch.setattr(aaopt._kernels, "bound", bound_counting)
    ctx = build_operator(cfg)
    products.update(dict.fromkeys(products, 0))  # the set-up's power iteration
    return ctx


@pytest.mark.parametrize("algorithm,aa", [("ista", "false"), ("ista", "true"), ("fista", "false")])
def test_lasso_run_forms_one_residual_per_evaluation(monkeypatch, algorithm, aa):
    cfg = config_from_mapping({**LASSO_40X200, "algorithm.kind": algorithm, "aa.enabled": aa,
                               "run.max_iter": "600", "run.tol": "1e-9"})
    caller = ["loop"]
    calls = {"apply": 0, "objective": 0}
    products = {"loop": 0, "apply": 0, "objective": 0}
    kernel_calls = dict(products)
    ctx = build_counting_lasso(monkeypatch, cfg, caller, products, kernel_calls)

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
    # the objective is read off the map's readout, never taken by the operator's
    assert calls["objective"] == 0 and len(records.objective) == len(records)
    if aa == "true":  # the engine both accepts and rejects on this run
        assert any(r.accepted for r in records[1:]) and not all(r.accepted for r in records[1:])
    elif algorithm == "ista":
        assert calls["apply"] == len(records)
    # no product by A outside the compiled map
    assert products == {"loop": 0, "apply": 0, "objective": 0}
    # one compiled call per evaluation of H, which forms A x once
    assert kernel_calls == {"loop": 0, "apply": calls["apply"], "objective": 0}


@pytest.mark.parametrize("keys", [
    {**LASSO_40X200, "algorithm.kind": "ista"},
    {**LASSO_40X200, "algorithm.kind": "ista", "aa.enabled": "true"},  # a restart at every rejection
    {**LASSO_40X200, "algorithm.kind": "fista"},
    {"problem.kind": "svm", "algorithm.kind": "pcd"},
    {"problem.kind": "svm", "algorithm.kind": "pcd", "aa.enabled": "true", "aa.restart": "2"},
], ids=["lasso", "lasso-aa", "lasso-fista", "svm", "svm-aa"])
def test_the_objective_column_is_the_operators_objective_at_each_recorded_iterate(monkeypatch, keys):
    # the readout is read after the map's last evaluation at the recorded
    # iterate: an accepted candidate, the plain step after a rejection, or
    # FISTA's main iterate before its momentum point
    monitors = []
    cfg = config_from_mapping({**keys, "run.max_iter": "400", "run.tol": "1e-12"})
    (trace, summary), ctx = spied_run(monkeypatch, cfg, monitor=monitor_capture(monitors))
    assert ctx.op.readout is not None and len(monitors) == len(trace)
    if cfg.aa_enabled:
        assert 0 < sum(not r.accepted for r in trace[1:]) < len(trace) - 1
    want = ctx.op.objective(np.array(monitors))
    assert all(math.isclose(got, value, rel_tol=1e-12) for got, value in zip(trace.objective, want))
    assert summary["final_objective"] == trace[-1].objective


def test_lasso_map_and_objective_match_direct_evaluation():
    ctx = build_operator(config_from_mapping(LASSO_40X200))
    inst, apply = lasso_reference()
    x = ctx.x0
    for _ in range(20):
        h = ctx.op.apply(x)
        assert h.tobytes() == apply(x).tobytes()
        terms = objective_terms("lasso", inst, x)
        assert math.isclose(ctx.op.objective(x), math.fsum(terms), rel_tol=1e-12)
        x = h


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


def test_run_sweep_refuses_a_repeated_memory_before_any_run(tmp_path):
    cfg = lasso_cfg(**{"run.trace": str(tmp_path / "t.csv"), "run.max_iter": "5"})
    with pytest.raises(ConfigError, match="^sweep lists aa.memory 5 twice$"):
        run_sweep(cfg, [5, 5])
    assert list(tmp_path.iterdir()) == []  # not even the baseline's trace


def test_run_sweep_keeps_a_trace_directory_as_it_is_and_refuses_it(tmp_path):
    runs = tmp_path / "runs"
    runs.mkdir()
    cfg = lasso_cfg(**{"run.trace": str(runs) + os.sep, "run.max_iter": "5"})
    with pytest.raises(OSError, match=r"^writing trace to %s: \[Errno 21\]" % re.escape(str(runs) + os.sep)):
        run_sweep(cfg, [5])
    assert list(runs.iterdir()) == []


def test_a_trace_path_that_is_not_a_regular_file_keeps_its_name_in_every_leg(tmp_path):
    variant = aaopt.harness._variant_path
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    for path in (os.devnull, str(fifo), str(tmp_path), str(tmp_path) + os.sep):
        assert variant(path, "baseline") == variant(path, "m5") == path
    (tmp_path / "t.csv").write_text("", encoding="utf-8")
    for name in ("t.csv", "new.csv"):  # a regular file, or none yet
        assert variant(str(tmp_path / name), "m5") == str(tmp_path / name.replace(".csv", ".m5.csv"))
    assert variant(None, "m5") is None


def test_sweep_trace_names_keep_their_directory(tmp_path):
    runs = tmp_path / "runs.v2"
    runs.mkdir()
    cfg = lasso_cfg(**{"run.trace": str(runs / "trace"), "run.max_iter": "5", "run.tol": "1e-30"})
    run_sweep(cfg, [5])
    assert sorted(p.name for p in runs.iterdir()) == ["trace.baseline", "trace.m5"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["runs.v2"]


# ---------------------------------------------------------------------------
# trace and summary I/O


def test_trace_roundtrip_is_exact(tmp_path):
    records = [
        TraceRecord(0, math.pi, -1.0 / 3.0, 0.0, 0, 3, 17),
        TraceRecord(1, 1e-300, 2.0**-1074, 1.0 + 2**-52, 1, 0, 123456),
    ]
    path = tmp_path / "t.csv"
    write_trace(trace_of(astuple(record)[1:] for record in records), path=str(path))
    back = read_trace(str(path))
    assert list(back) == records


def test_trace_overwrite_leaves_no_stale_tail(tmp_path):
    long = trace_of((1.0 / (k + 1), -float(k), 0.5 * k, k % 2, k % 7, 1000 * k) for k in range(500))
    short = trace_of((math.pi * k, 1e-300, 0.0, 1, 3, k) for k in range(7))
    path, fresh = tmp_path / "t.csv", tmp_path / "fresh.csv"
    write_trace(long, str(path))
    write_trace(short, str(path))
    write_trace(short, str(fresh))
    assert path.read_bytes() == fresh.read_bytes()
    assert list(read_trace(str(path))) == list(short)
    write_trace(long, str(path))  # growing again over the shorter file
    assert list(read_trace(str(path))) == list(long)


def test_write_trace_names_the_path_on_failure(tmp_path):
    path = tmp_path / "missing" / "t.csv"
    with pytest.raises(OSError, match="writing trace to .*missing"):
        write_trace(trace_of([(1.0, 1.0, 0.0, 0, 0, 0)]), str(path))


def test_read_trace_requires_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope\n1,2,3,4,5,6,7\n", encoding="utf-8")
    with pytest.raises(ValueError, match="missing trace header"):
        read_trace(str(path))


def test_read_trace_names_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_bytes(b"\x89PNG\r\n\x1a\n\x00\x00\x00\rIHDR")
    with pytest.raises(ValueError, match="^%s is not trace text: it is not UTF-8" % re.escape(str(path))):
        read_trace(str(path))


@pytest.mark.parametrize("row,why", [
    ("1,0.5,2,0,0,3", "expected 7|not enough values"),
    ("1,0.5,2,0,zero,3,7", "invalid literal for int"),
    ("1,0.5,2,0,0,3,7,8", "too many values"),
    ("5,0.5,2,0,0,3,7", "k is 5, not the row's index 1"),
    ("", "not enough values"),
    ("1,0.5,2,0,300,3,7", "signed char is greater than maximum"),
    ("1,0.5,2,0,0,3,%d" % 2**63, "int too big to convert"),
], ids=["six-fields", "not-an-integer", "eight-fields", "k-out-of-order", "blank", "accepted-300",
        "elapsed-2**63"])
def test_read_trace_names_the_line_of_a_malformed_row(tmp_path, row, why):
    path = tmp_path / "bad.csv"
    path.write_text("\n".join([TRACE_HEADER, "0,1,2,0,0,3,7", row, "2,0.25,2,0,0,3,9"]) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="^%s line 3: .*(%s)" % (re.escape(str(path)), why)):
        read_trace(str(path))


def test_read_trace_rejects_a_trace_whose_k_goes_back(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("\n".join([TRACE_HEADER, "5,1,2,0,0,3,7", "1,1,2,0,0,3,8"]) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="^%s line 2: k is 5, not the row's index 0" % re.escape(str(path))):
        read_trace(str(path))


def summary_option(tmp_path, monkeypatch, summaries: list[dict], target: str) -> None:
    """``aaopt sweep --summary target``, its runs giving ``summaries``."""
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("problem.kind = lasso\nalgorithm.kind = ista\n", encoding="utf-8")
    monkeypatch.setattr("aaopt.cli.run_sweep", lambda cfg, memories: summaries)
    assert main(["sweep", str(cfg), "--summary", target]) == 0


def test_summary_formatting(tmp_path, monkeypatch, capsys):
    summary = {"problem": "lasso", "aa": True, "identification_iter": None, "tol": 0.5}
    text = format_summary(summary)
    assert text.splitlines() == ["problem=lasso", "aa=true", "identification_iter=none", "tol=0.5"]
    path = tmp_path / "s.txt"
    summary_option(tmp_path, monkeypatch, [summary, summary], str(path))
    content = path.read_text(encoding="utf-8")
    assert content.count("problem=lasso") == 2
    assert "\n\n" in content
    assert capsys.readouterr().out == content


def test_the_summary_option_writes_to_dev_null_and_through_a_pipe(tmp_path, monkeypatch):
    summaries = [{"problem": "lasso", "tol": 0.5}, {"problem": "svm", "aa": False}]
    summary_option(tmp_path, monkeypatch, summaries, os.devnull)
    read_end, write_end = os.pipe()
    with open(read_end, encoding="utf-8") as reader:
        try:
            summary_option(tmp_path, monkeypatch, summaries, "/dev/fd/%d" % write_end)
        finally:
            os.close(write_end)
        assert reader.read() == "problem=lasso\ntol=0.5\n\nproblem=svm\naa=false\n"

import re

import numpy as np
import pytest
import scipy.sparse as sp

from aaopt.algorithms import irl1_step
from aaopt.harness import ConfigError, ExperimentConfig
from aaopt.problems import (
    gen_lasso,
    gen_logreg,
    gen_nnls,
    gen_svm,
    lasso_grad,
    lasso_objective,
    load_libsvm,
    logreg_grad,
    logreg_loss,
    logreg_objective,
    nnls_grad,
    nnls_objective,
    parse_libsvm,
    phi_deriv,
    phi_value,
    subsample,
    svm_dual_grad,
    svm_dual_objective,
)

from oracles import central_diff_grad


# ---------------------------------------------------------------------------
# the power penalty t**p


def test_phi_hand_values():
    assert np.allclose(phi_value(0.5, np.array([0.0, 1.0, 4.0])), [0.0, 1.0, 2.0])
    assert np.allclose(phi_value(0.75, np.array([16.0])), [8.0])
    assert np.allclose(phi_value(0.25, np.array([81.0])), [3.0])


def test_phi_deriv_hand_values():
    assert phi_deriv(0.5, np.array([4.0]))[0] == 0.25
    assert phi_deriv(0.5, np.array([1.0]))[0] == 0.5
    assert phi_deriv(0.75, np.array([16.0]))[0] == pytest.approx(0.375, rel=1e-15)
    assert phi_deriv(0.25, np.array([1.0 / 16.0]))[0] == pytest.approx(2.0, rel=1e-15)


def test_phi_deriv_positive_and_nonincreasing():
    t = np.logspace(-6, 3, 120)
    for p in (0.1, 0.5, 0.9):
        d = phi_deriv(p, t)
        assert np.all(d > 0)
        assert np.all(np.diff(d) <= 1e-15)


def test_phi_deriv_matches_difference_quotient():
    for p in (0.25, 0.5, 0.8):
        f = lambda v: phi_value(p, v)
        for t in (0.3, 1.0, 7.5):
            num = float((f(np.array([t + 1e-6])) - f(np.array([t - 1e-6])))[0] / 2e-6)
            assert abs(num - float(phi_deriv(p, np.array([t]))[0])) <= 1e-7


def test_phi_rejects_negative_arguments():
    with pytest.raises(ValueError):
        phi_value(0.5, np.array([-0.1]))
    with pytest.raises(ValueError):
        phi_deriv(0.5, np.array([-0.1]))


def test_lpn_deriv_at_zero_names_coordinate():
    with pytest.raises(ValueError, match="coordinate 2"):
        phi_deriv(0.5, np.array([1.0, 2.0, 0.0]))


def test_regularizer_validation():
    # the power must stay in (0, 1), both in a config and in the IRL1 step
    for p in (1.0, 0.0):
        with pytest.raises(ConfigError, match=re.escape("problem.p must lie in (0, 1)")):
            ExperimentConfig("logreg", "irl1", params={"p": p})
        with pytest.raises(ValueError, match=re.escape("p must lie in (0, 1)")):
            irl1_step(lambda x: np.zeros_like(x), p, 0.1, 0.5, 0.5, np.ones(2))
    ExperimentConfig("logreg", "irl1", params={"p": 0.5})


# ---------------------------------------------------------------------------
# generators


def test_gen_lasso_rows_orthonormal_and_signal_spiky():
    inst = gen_lasso(20, 50, seed=3)
    gram = inst.A @ inst.A.T
    assert np.allclose(gram, np.eye(20), atol=1e-12)
    support = np.flatnonzero(inst.x_true)
    assert support.size == 5  # floor(50 / 10)
    assert set(np.abs(inst.x_true[support]).tolist()) == {1.0}
    assert inst.y.shape == (20,)


def test_gen_lasso_noise_free_measurements():
    inst = gen_lasso(15, 40, noise_var=0.0, seed=1)
    assert np.array_equal(inst.y, inst.A @ inst.x_true)


def test_gen_lasso_deterministic_in_seed():
    a = gen_lasso(12, 30, seed=9)
    b = gen_lasso(12, 30, seed=9)
    c = gen_lasso(12, 30, seed=10)
    assert np.array_equal(a.A, b.A) and np.array_equal(a.y, b.y)
    assert not np.array_equal(a.A, c.A)


def test_gen_lasso_validation():
    with pytest.raises(ValueError):
        gen_lasso(30, 30)
    with pytest.raises(ValueError):
        gen_lasso(4, 8)
    with pytest.raises(ValueError):
        gen_lasso(10, 20, noise_var=-1.0)


def test_gen_svm_shapes_and_labels():
    inst = gen_svm(25, 6, seed=4)
    assert inst.A.shape == (25, 6)
    assert set(np.unique(inst.y).tolist()) <= {-1.0, 1.0}
    assert inst.C == 100.0
    b = gen_svm(25, 6, seed=4)
    assert np.array_equal(inst.A, b.A) and np.array_equal(inst.y, b.y)


def test_gen_nnls_and_logreg_deterministic():
    a, b = gen_nnls(9, 5, seed=2), gen_nnls(9, 5, seed=2)
    assert np.array_equal(a.A, b.A) and np.array_equal(a.y, b.y)
    c, d = gen_logreg(12, 7, seed=2), gen_logreg(12, 7, seed=2)
    assert np.array_equal(c.A, d.A) and np.array_equal(c.y, d.y)
    assert set(np.unique(c.y).tolist()) <= {-1.0, 1.0}


# ---------------------------------------------------------------------------
# objectives and gradients


def test_svm_k_apply_matches_dense_kernel():
    inst = gen_svm(10, 4, seed=5)
    Z = inst.y[:, None] * inst.A
    K = Z @ Z.T
    x = np.random.default_rng(0).standard_normal(10)
    assert np.allclose(inst.k_apply(x), K @ x, atol=1e-12)


def test_lasso_objective_hand_value():
    inst = gen_lasso(10, 20, lam=0.5, seed=0)
    x = np.zeros(20)
    assert np.isclose(lasso_objective(inst, x), 0.5 * float(inst.y @ inst.y))
    e = np.zeros(20)
    e[0] = 2.0
    r = inst.A @ e - inst.y
    assert np.isclose(lasso_objective(inst, e), 0.5 * float(r @ r) + 1.0)


def test_smooth_gradients_match_central_differences():
    rng = np.random.default_rng(11)

    lasso = gen_lasso(8, 16, seed=1)
    svm = gen_svm(10, 6, seed=1)
    nnls = gen_nnls(9, 5, seed=1)
    logreg = gen_logreg(12, 7, seed=1)

    cases = [
        (lambda x: 0.5 * float(np.sum((lasso.A @ x - lasso.y) ** 2)),
         lambda x: lasso_grad(lasso, x), 16),
        (lambda x: svm_dual_objective(svm, x), lambda x: svm_dual_grad(svm, x), 10),
        (lambda x: nnls_objective(nnls, x), lambda x: nnls_grad(nnls, x), 5),
        (lambda x: logreg_loss(logreg, x), lambda x: logreg_grad(logreg, x), 7),
    ]
    for fun, grad, n in cases:
        for _ in range(3):
            x = rng.standard_normal(n)
            g = grad(x)
            num = central_diff_grad(fun, x)
            assert np.linalg.norm(g - num) <= 1e-6 * (1.0 + np.linalg.norm(g))


def test_nnls_objective_includes_ridge_term():
    inst = gen_nnls(9, 5, lam=0.25, seed=3)
    x = np.ones(5)
    r = inst.A @ x - inst.y
    want = float(r @ r) / 18.0 + 0.25 * 5.0
    assert np.isclose(nnls_objective(inst, x), want)


def test_logreg_loss_overflow_safe():
    inst = gen_logreg(12, 7, seed=6)
    x = 1e4 * np.ones(7)
    assert np.isfinite(logreg_loss(inst, x))
    assert np.all(np.isfinite(logreg_grad(inst, x)))


def test_logreg_objective_adds_power_penalty():
    inst = gen_logreg(12, 7, lam=0.5, p=0.75, seed=6)
    x = np.zeros(7)
    x[0] = 16.0
    assert np.isclose(logreg_objective(inst, x), logreg_loss(inst, x) + 0.5 * 16.0**0.75)


# ---------------------------------------------------------------------------
# datasets


def test_parse_libsvm_basic():
    X, y = parse_libsvm(["1 1:1.5 3:-2.0", "-1 2:4.0"])
    assert X.shape == (2, 3)
    assert np.array_equal(X.toarray(), np.array([[1.5, 0.0, -2.0], [0.0, 4.0, 0.0]]))
    assert np.array_equal(y, np.array([1.0, -1.0]))


def test_parse_libsvm_remaps_zero_one_labels():
    _, y = parse_libsvm(["0 1:1.0", "1 1:2.0"])
    assert np.array_equal(y, np.array([-1.0, 1.0]))


def test_parse_libsvm_keeps_pm_one_labels():
    _, y = parse_libsvm(["-1 1:1.0", "1 1:2.0"])
    assert np.array_equal(y, np.array([-1.0, 1.0]))


def test_parse_libsvm_rejects_other_labels():
    with pytest.raises(ValueError, match="labels"):
        parse_libsvm(["2 1:1.0"])
    with pytest.raises(ValueError, match="labels"):
        parse_libsvm(["-1 1:1.0", "0 1:1.0", "1 1:1.0"])


def test_parse_libsvm_skips_blank_lines_but_counts_them():
    X, y = parse_libsvm(["1 1:1.0", "", "  ", "-1 1:2.0"])
    assert X.shape == (2, 1)
    with pytest.raises(ValueError, match="line 3"):
        parse_libsvm(["1 1:1.0", "", "1 oops"])


def test_parse_libsvm_error_messages_carry_line_numbers():
    with pytest.raises(ValueError, match="line 1: label 'abc'"):
        parse_libsvm(["abc 1:1.0"])
    with pytest.raises(ValueError, match="line 2: index 2 not ascending"):
        parse_libsvm(["1 1:1.0", "1 2:1.0 2:3.0"])
    with pytest.raises(ValueError, match="line 1: index 0 is not 1-based"):
        parse_libsvm(["1 0:5.0"])
    with pytest.raises(ValueError, match="line 1: malformed feature token"):
        parse_libsvm(["1 1:abc"])
    with pytest.raises(ValueError, match="no ':'"):
        parse_libsvm(["1 17"])


def test_parse_libsvm_empty_stream():
    X, y = parse_libsvm([])
    assert X.shape == (0, 0)
    assert y.shape == (0,)


def test_parse_libsvm_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    dense = np.round(rng.standard_normal((6, 5)), 6)
    dense[dense < 0.3] = 0.0
    dense[0, 4] = 1.25  # keep the full width represented
    labels = rng.choice([-1.0, 1.0], size=6)
    lines = []
    for i in range(6):
        feats = " ".join(
            "%d:%.17g" % (j + 1, dense[i, j]) for j in range(5) if dense[i, j] != 0.0
        )
        lines.append(("%g " % labels[i]) + feats)
    path = tmp_path / "data.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    X, y = load_libsvm(str(path))
    assert isinstance(X, sp.csr_matrix)
    assert np.array_equal(X.toarray(), dense)
    assert np.array_equal(y, labels)


def test_load_libsvm_missing_file():
    with pytest.raises(OSError, match="no/such/file"):
        load_libsvm("no/such/file")


def test_subsample_is_permutation_at_full_size():
    X = np.arange(20.0).reshape(10, 2)
    y = np.arange(10.0)
    Xs, ys = subsample(X, y, 10, seed=5)
    assert sorted(ys.tolist()) == y.tolist()
    assert np.array_equal(Xs[:, 0] / 2.0, ys)  # rows stay aligned with labels


def test_subsample_deterministic_and_validated():
    X = np.arange(30.0).reshape(10, 3)
    y = np.arange(10.0)
    a = subsample(X, y, 4, seed=1)
    b = subsample(X, y, 4, seed=1)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    with pytest.raises(ValueError):
        subsample(X, y, 11)
    Xs, ys = subsample(sp.csr_matrix(X), y, 3, seed=2)
    assert Xs.shape == (3, 3) and ys.shape == (3,)

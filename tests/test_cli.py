import numpy as np
import pytest

from aaopt.cli import main
from aaopt.problems import gen_lasso
from oracles import write_libsvm

LASSO_CFG = """\
problem.kind = lasso
problem.rows = 10
problem.cols = 20
algorithm.kind = ista
run.max_iter = 5000
run.tol = 1e-8
run.seed = 3
"""


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(LASSO_CFG, encoding="utf-8")
    return str(path)


def summary_map(text: str) -> dict:
    return dict(line.split("=", 1) for line in text.strip().splitlines() if "=" in line)


def test_run_prints_summary(cfg_path, capsys):
    assert main(["run", cfg_path]) == 0
    out = summary_map(capsys.readouterr().out)
    assert out["problem"] == "lasso"
    assert out["status"] == "converged"


def test_run_writes_summary_file(cfg_path, tmp_path, capsys):
    target = tmp_path / "summary.txt"
    assert main(["run", cfg_path, "--summary", str(target)]) == 0
    capsys.readouterr()
    assert "problem=lasso" in target.read_text(encoding="utf-8")


def test_run_overrides(cfg_path, capsys):
    assert main(["run", cfg_path, "--max-iter", "3", "--tol", "1e-300", "--seed", "4"]) == 0
    out = summary_map(capsys.readouterr().out)
    assert out["iterations"] == "3"
    assert out["status"] == "max_iter"
    assert out["seed"] == "4"


def test_run_missing_config_fails(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.cfg")]) == 2
    assert "error:" in capsys.readouterr().err


def test_run_invalid_config_fails(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("problem.kind = lasso\nalgorithm.kind = ista\nrun.bogus = 1\n", encoding="utf-8")
    assert main(["run", str(path)]) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_sweep_produces_block_per_run(cfg_path, capsys):
    assert main(["sweep", cfg_path, "--memory", "2,3", "--tol", "1e-6"]) == 0
    blocks = [b for b in capsys.readouterr().out.strip().split("\n\n") if b]
    assert len(blocks) == 3
    first = summary_map(blocks[0])
    assert first["aa"] == "false"
    assert [summary_map(b)["memory"] for b in blocks] == ["0", "2", "3"]


def test_sweep_rejects_bad_memory_list(cfg_path, capsys):
    assert main(["sweep", cfg_path, "--memory", "five"]) == 2
    assert "comma-separated integers" in capsys.readouterr().err


@pytest.mark.parametrize("memory,why", [
    ("5,,5", "--memory expects comma-separated integers, got '5,,5'"),
    ("5,", "--memory expects comma-separated integers, got '5,'"),
    ("5,10,5", "sweep lists aa.memory 5 twice"),
    ("0", "aa.memory must lie in [1, 64], got 0"),
    ("65", "aa.memory must lie in [1, 64], got 65"),
])
def test_sweep_rejects_a_bad_memory_value_before_any_run(tmp_path, memory, why, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(LASSO_CFG + "run.trace = %s\n" % (tmp_path / "t.csv"), encoding="utf-8")
    assert main(["sweep", str(cfg), "--memory", memory]) == 2
    assert capsys.readouterr().err == "error: %s\n" % why
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]  # no trace written


def test_run_reads_a_lasso_libsvm_dataset(tmp_path, capsys):
    inst = gen_lasso(12, 30, seed=7)
    data = tmp_path / "inst.libsvm"
    write_libsvm(data, inst.A, np.where(inst.y >= 0.0, 1.0, -1.0), drop_below=0.1)
    cfg = tmp_path / "ds.cfg"
    cfg.write_text(
        "problem.kind = lasso\nproblem.dataset = %s\nproblem.lambda = 0.1\nalgorithm.kind = ista\n"
        "run.max_iter = 8000\nrun.tol = 1e-8\n" % data,
        encoding="utf-8",
    )
    assert main(["run", str(cfg)]) == 0
    out = summary_map(capsys.readouterr().out)
    assert out["status"] == "converged"


def test_a_map_that_raises_floating_point_error_is_an_error_line(tmp_path, capsys):
    # entries of 1e200 with a fixed step make the lasso gradient overflow; this
    # used to end in a FloatingPointError traceback and exit status 1
    data = tmp_path / "huge.libsvm"
    data.write_text("1 1:1e200 2:3e200\n-1 1:-2e200 2:1e200\n", encoding="utf-8")
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("problem.kind = lasso\nproblem.dataset = %s\nalgorithm.kind = ista\n"
                   "algorithm.beta = 1\n" % data, encoding="utf-8")
    assert main(["run", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: pga_step: gradient is non-finite\n" and captured.out == ""

import numpy as np
import pytest

from aaopt.cli import main
from aaopt.harness import FAMILIES

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


def test_gen_lasso_roundtrips_through_run(tmp_path, capsys):
    npz = tmp_path / "inst.npz"
    assert main(["gen-lasso", "12", "30", "7", str(npz), "--lambda", "0.02"]) == 0
    assert "wrote" in capsys.readouterr().out
    data = np.load(str(npz))
    assert data["A"].shape == (12, 30)
    assert float(data["lam"]) == 0.02

    cfg = tmp_path / "ds.cfg"
    cfg.write_text(
        "problem.kind = lasso\nproblem.dataset = %s\nalgorithm.kind = ista\n"
        "run.max_iter = 5000\nrun.tol = 1e-8\n" % npz,
        encoding="utf-8",
    )
    assert main(["run", str(cfg)]) == 0
    out = summary_map(capsys.readouterr().out)
    assert out["status"] == "converged"


def test_gen_lasso_defaults_are_the_lasso_family_defaults(tmp_path, capsys):
    npz = tmp_path / "inst.npz"
    assert main(["gen-lasso", "12", "30", "7", str(npz)]) == 0
    capsys.readouterr()
    assert float(np.load(str(npz))["lam"]) == FAMILIES["lasso"].defaults["lambda"]


def test_gen_lasso_rejects_bad_shape(tmp_path, capsys):
    assert main(["gen-lasso", "30", "30", "0", str(tmp_path / "x.npz")]) == 2
    assert "error:" in capsys.readouterr().err

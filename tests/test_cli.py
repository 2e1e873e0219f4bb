import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import aaopt
from aaopt.cli import main
from aaopt.harness import TRACE_HEADER
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


def run_cli(tmp_path, *args: str, **kwargs) -> subprocess.CompletedProcess:
    """``python -m aaopt.cli *args`` in a child process, which must end within a minute."""
    src = str(Path(aaopt.__file__).parents[1])
    return subprocess.run([sys.executable, "-m", "aaopt.cli", *args], text=True, cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60, **kwargs)


def assert_trace_then_summary(lines: list[str]) -> int:
    """A trace CSV, then the summary of its run; returns the run's iterations."""
    iterations = int(summary_map("\n".join(lines[lines.index("problem=lasso"):]))["iterations"])
    rows = lines[1:iterations + 2]
    assert lines[0] == TRACE_HEADER
    assert [int(row.split(",")[0]) for row in rows] == list(range(iterations + 1))
    assert {len(row.split(",")) for row in rows} == {len(TRACE_HEADER.split(","))}
    assert lines[iterations + 2] == "problem=lasso"
    return iterations


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


@pytest.mark.parametrize("flag,value,why", [
    ("--tol", "-1", "run.tol must lie in (0, inf), got -1.0"),
    ("--tol", "nan", "run.tol must lie in (0, inf), got nan"),
    ("--max-iter", "0", "run.max_iter must lie in [1, inf), got 0"),
    ("--seed", "-2", "run.seed must lie in [0, inf), got -2"),
])
def test_a_bad_override_is_named_as_its_config_key(cfg_path, flag, value, why, capsys):
    assert main(["run", cfg_path, flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: %s\n" % why and captured.out == ""


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


@pytest.mark.parametrize("command", [["run"], ["sweep", "--memory", "5,10"]], ids=["run", "sweep"])
def test_an_unwritable_summary_path_is_refused_before_any_run(tmp_path, command, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(LASSO_CFG + "run.trace = %s\n" % (tmp_path / "t.csv"), encoding="utf-8")
    target = tmp_path / "absent" / "s.txt"
    assert main([command[0], str(cfg), *command[1:], "--summary", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no run printed its summary
    assert captured.err.startswith("error: writing summary to %s: " % target), captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]  # no trace written


def test_a_failed_sweep_leaves_no_summary_file(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(LASSO_CFG, encoding="utf-8")
    assert main(["sweep", str(cfg), "--memory", "5,5", "--summary", str(tmp_path / "s.txt")]) == 2
    assert capsys.readouterr().err == "error: sweep lists aa.memory 5 twice\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]


@pytest.mark.parametrize("command", [["run"], ["sweep", "--memory", "2,3"]], ids=["run", "sweep"])
def test_stdout_is_the_summary_file(cfg_path, tmp_path, command, capsys):
    target = tmp_path / "s.txt"
    assert main([command[0], cfg_path, *command[1:], "--tol", "1e-6", "--summary", str(target)]) == 0
    text = target.read_text(encoding="utf-8")
    # print ends the text with the newline that ends the file
    assert text.endswith("\n") and capsys.readouterr().out == text


def test_run_on_a_binary_config_names_the_file(tmp_path, capsys):
    path = tmp_path / "exp.cfg"
    path.write_bytes(b"\x89PNG\r\n\x1a\n\x00\x00\x00\rIHDR")
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: %s is not config text: it is not UTF-8 (invalid start byte)\n" % path
    assert captured.out == ""


def test_dev_null_takes_the_trace_and_the_summary(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(LASSO_CFG + "run.trace = %s\n" % os.devnull, encoding="utf-8")
    assert main(["run", str(cfg), "--summary", os.devnull]) == 0
    assert capsys.readouterr().err == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]


def test_a_trace_to_piped_stdout_comes_before_the_summary(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(LASSO_CFG + "run.trace = /dev/stdout\n", encoding="utf-8")
    out = run_cli(tmp_path, "run", str(cfg), "--max-iter", "30", "--tol", "1e-30", capture_output=True)
    assert out.returncode == 0 and out.stderr == ""
    assert assert_trace_then_summary(out.stdout.splitlines()) == 30


@pytest.mark.parametrize("mode", ["w", "a"], ids=[">", ">>"])
def test_a_trace_to_stdout_on_a_file_keeps_its_place(tmp_path, mode):
    # opened again by name, /dev/stdout would be written from offset 0 of the file
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(LASSO_CFG + "run.trace = /dev/stdout\n", encoding="utf-8")
    log = tmp_path / "log.txt"
    log.write_text("earlier line 1\nearlier line 2\n", encoding="utf-8")
    with open(log, mode, encoding="utf-8") as stdout:
        out = run_cli(tmp_path, "run", str(cfg), "--max-iter", "30", "--tol", "1e-30",
                      stdout=stdout, stderr=subprocess.PIPE)
    assert out.returncode == 0 and out.stderr == ""
    lines = log.read_text(encoding="utf-8").splitlines()
    earlier = ["earlier line 1", "earlier line 2"] if mode == "a" else []
    assert lines[:len(earlier)] == earlier
    assert assert_trace_then_summary(lines[len(earlier):]) == 30


def test_a_sweep_writes_each_trace_to_stdout_on_a_file(tmp_path):
    # /dev/stdout onto a regular file is used as it is by every leg, as a pipe is
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(LASSO_CFG + "run.trace = /dev/stdout\n", encoding="utf-8")
    log = tmp_path / "log.txt"
    with open(log, "w", encoding="utf-8") as stdout:
        out = run_cli(tmp_path, "sweep", str(cfg), "--memory", "2", "--max-iter", "30", "--tol", "1e-30",
                      stdout=stdout, stderr=subprocess.PIPE)
    assert out.returncode == 0 and out.stderr == ""
    lines = log.read_text(encoding="utf-8").splitlines()
    assert assert_trace_then_summary(lines[:32] + lines[64:]) == 30  # the baseline's trace
    assert assert_trace_then_summary(lines[32:]) == 30  # the m = 2 leg's
    assert [summary_map(block)["memory"] for block in "\n".join(lines[64:]).split("\n\n")] == ["0", "2"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg", "log.txt"]


def test_a_trace_to_a_fifo_reaches_its_reader(tmp_path):
    # a check that opened and closed the FIFO would end the reader's stream,
    # and the writer's open would then wait for a reader that never comes
    fifo = tmp_path / "trace.fifo"
    os.mkfifo(fifo)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(LASSO_CFG + "run.trace = %s\n" % fifo, encoding="utf-8")
    received: list[str] = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_text(encoding="utf-8")), daemon=True)
    reader.start()
    try:  # some 300 steps, so that a reader ended by such a check reads its end of file first
        out = run_cli(tmp_path, "run", str(cfg), "--tol", "1e-30", capture_output=True)
    finally:
        if reader.is_alive():  # a writer's open lets a reader still waiting in its own open go
            with open(fifo, "w", encoding="utf-8"):
                pass
        reader.join(10)
    assert not reader.is_alive()
    assert out.returncode == 0 and out.stderr == ""
    assert assert_trace_then_summary(received[0].splitlines() + out.stdout.splitlines()) > 100


def test_a_sweep_refuses_a_trace_path_of_a_later_leg_before_any_run(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(LASSO_CFG + "run.trace = %s\n" % (tmp_path / "t.csv"), encoding="utf-8")
    (tmp_path / "t.m10.csv").mkdir()
    assert main(["sweep", str(cfg), "--memory", "5,10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no run printed its summary
    assert captured.err.startswith("error: writing trace to %s: [Errno 21]" % (tmp_path / "t.m10.csv"))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg", "t.m10.csv"]  # no trace written

"""Every workload at a tiny size (one instance, one pass), untraced and traced.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Instance 0 at workload seed 0 is exactly `aaopt run` with run.seed = 0:
# (evaluations, iterations, rejects) of the AA leg, evaluations of the plain leg.
SEED0 = {
    "lasso-ista": ((671, 583, 87), 10495),
    "svm-pcd": ((265, 169, 95), 2858),
    "nnls-drs": ((102, 91, 10), 583),
}


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--instances", "1"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    return line


def saved_result(workload: str, trace: int) -> dict:
    return json.loads((HERE / "out" / ("%s-seed0-trace%d.json" % (workload, trace))).read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_seed0_counts(workload):
    line = result_line(bench(workload, 0))
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
    for name, metric in line["metrics"].items():
        assert math.isfinite(metric["value"]) and metric["value"] > 0, name

    leg = saved_result(workload, 0)["legs"][0]
    (aa_evals, aa_iters, aa_rejects), plain_evals = SEED0[workload]
    assert (leg["aa"]["evals"], leg["aa"]["iterations"], leg["aa"]["rejects"]) == (aa_evals, aa_iters, aa_rejects)
    assert leg["plain"]["evals"] == plain_evals
    aa_starts = [v["evals"] for key, v in leg.items() if key.startswith("aa")]
    assert line["metrics"]["aa_evals"]["value"] == pytest.approx(sum(aa_starts) / len(aa_starts))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_partitions_leg_time(workload):
    line = result_line(bench(workload, 1))
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared

    checks = saved_result(workload, 1)["checks"]
    assert checks["missing_targets"] == []
    assert checks["partition_gap_s"] == pytest.approx(0.0, abs=1e-9 * checks["traced_leg_wall_s"])
    m = {k: v["value"] for k, v in line["metrics"].items()}
    legs = saved_result(workload, 1)["legs"][0]
    aa_legs = [v for key, v in legs.items() if key.startswith("aa")]
    assert m["algorithms.evals"] == sum(v["evals"] for v in aa_legs) + legs["plain"]["evals"]
    assert m["anderson.steps"] == sum(v["iterations"] for v in aa_legs)
    assert math.isfinite(m["harness.tracing_overhead_s"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout

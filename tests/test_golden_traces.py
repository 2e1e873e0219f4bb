"""Golden traces: every numeric trace field and summary value, bitwise.

Each cell runs one small configured experiment through ``run_experiment``,
writes its trace CSV, and hashes (SHA-256) the CSV with the ``elapsed_us``
column dropped together with the summary block without ``elapsed_s``.  A
change that moves any recorded number in its last bit changes the hash; one
that only changes timing does not.  A change that is meant to move numbers
regenerates the tables and says so in CHANGES.md; from the repository root,

    python3 tests/test_golden_traces.py

prints ``GOLDEN`` and ``GOLDEN_CSR`` as computed by the current source tree.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

if __name__ == "__main__":  # run as a script: import aaopt from this checkout
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from aaopt.harness import config_from_mapping, format_summary, run_experiment
from aaopt.problems import gen_lasso, gen_nnls, gen_svm
from oracles import write_libsvm

# (problem and AA keys, max_iter) per family; max_iter keeps the file fast.
# lasso restarts on every rejection as in the README; the others keep the
# default of five, so rejections without a restart are covered too.
FAMILIES = {
    "lasso": ({"problem.kind": "lasso", "problem.rows": "40", "problem.cols": "200",
               "problem.lambda": "0.01", "aa.restart": "1"}, 1500),
    "svm": ({"problem.kind": "svm", "problem.rows": "100", "problem.cols": "20"}, 400),
    "nnls": ({"problem.kind": "nnls", "problem.rows": "50", "problem.cols": "30"}, 300),
    "logreg": ({"problem.kind": "logreg", "problem.rows": "100", "problem.cols": "30"}, 300),
}
CELLS = [
    ("lasso", "ista", False), ("lasso", "ista", True), ("lasso", "fista", False),
    ("svm", "pcd", False), ("svm", "pcd", True),
    ("nnls", "drs", False), ("nnls", "drs", True),
    ("logreg", "irl1", False), ("logreg", "irl1", True),
]

GOLDEN = {
    ("lasso", "ista", False, 0): "ae299ed15b8b95455613888bf1a200d68ebe25ffb71e173642a6349824769861",
    ("lasso", "ista", False, 1): "1584ce6e58a31e7948b1f01f42c57e1008d2fbdf8a62b63464073f98721cd05e",
    ("lasso", "ista", True, 0): "1ec33192f2f0125ae3e0b7a34e66a02992f059dcddb51a215cdd277a6c38569b",
    ("lasso", "ista", True, 1): "72942e85439782d12d0eca2d4d3a6d70e152c27aa9c0033696d29566389fe2e1",
    ("lasso", "fista", False, 0): "836794efc895be228452c14803978333a18a6bc091090b4e385294dc95defdb5",
    ("lasso", "fista", False, 1): "0f078c29f793722430ffcc261e488317268f2f7d2a242a6b16e6d9b368487576",
    ("svm", "pcd", False, 0): "fde5236ba4ada1073dcf4f7a46566e570467a9f799fb518fcdb5ba520090e682",
    ("svm", "pcd", False, 1): "9673ca22ffe398bc4a6670001af4166ee1bb97275aeb5cb3829c016a0f0a0351",
    ("svm", "pcd", True, 0): "3ea50f409b81b66f62b28cbef368cbe5775e5d0f0f4bc625de81cb8bd0defefa",
    ("svm", "pcd", True, 1): "eb374d1b3570209265539c7e8e0f072f33e03437b826c5500c5b94882dcbe596",
    ("nnls", "drs", False, 0): "e192d21fc1e8d4eed939348eb886600f0c4fd6fc018f30501f30042f837e605c",
    ("nnls", "drs", False, 1): "8cc09e2ba9571792d965d6c766b8addd268d3eddf65460b5a885cf750ee545c7",
    ("nnls", "drs", True, 0): "76d2e58ade610dbdc142f00a793bc2c80e3716115090120eb23ca63ebbab0a13",
    ("nnls", "drs", True, 1): "fb543ce7d0b9bb40d64aaa77a2f70b3792f9963f926626a7c303f1c49e7df6f8",
    ("logreg", "irl1", False, 0): "c174bb07f37a1412ec69abe382c40043bf42573fd3b87677be06524d0a0b707d",
    ("logreg", "irl1", False, 1): "8c2937fd3758a1814a01d87844bbf8d1d8aa67ffb31f45225df37cf76724c74d",
    ("logreg", "irl1", True, 0): "0d5a1f322aacab8822e4d5db9cb255112a3d57be2d20214f3013f2243e094ce6",
    ("logreg", "irl1", True, 1): "ce6fb08857627dd2720d92e71ba99f4ece0fc24a9e9d213851ec2b265da3f360",
}


# The same lasso, svm and nnls cells with the matrix loaded through
# problem.dataset, which makes it a CSR matrix.  The file holds the seed-0
# instance with every entry below 0.5 in magnitude left out (0.1 for lasso,
# whose orthonormal rows have entries near 0.07), so the rows are genuinely
# sparse; lasso and nnls keep only the signs of their targets, since LIBSVM
# labels are +-1.  Without the family's problem keys, lasso keeps the default
# of five rejections before a restart.
CSR_CELLS = [
    ("lasso", "ista", False), ("lasso", "ista", True),
    ("svm", "pcd", False), ("svm", "pcd", True),
    ("nnls", "drs", False), ("nnls", "drs", True),
]

GOLDEN_CSR = {
    ("lasso", "ista", False, 0): "58d8c69576f546c85fd62dae631117dc2f83a03e46778f08b1652017d9da7ecf",
    ("lasso", "ista", False, 1): "79dc855ca8b0e5b9043869de74f645201b313d28eb7e7df465038941eed4e43a",
    ("lasso", "ista", True, 0): "82d152227afb29f326a442d9e172717e4d007c91572da1d77fab0c4222f5c1d6",
    ("lasso", "ista", True, 1): "535ce824036750286eee519cc0cb19d73a722597263de933180de945926b63d3",
    ("svm", "pcd", False, 0): "185aa6a6193f93b7934cb79807b5ee8e9fdaf9382fdee208a02c6d7e9ecf3868",
    ("svm", "pcd", False, 1): "128e1992e13fdb190535ba8a7e451fda376cade8c89693de83e5961bdf14e241",
    ("svm", "pcd", True, 0): "f2a6c0e212b9f1f39a67585d5d9737ff08d760e59bb3b269c58f6f0cc1ce57a1",
    ("svm", "pcd", True, 1): "cf22d5f398bf34935e3aae6c0c7912707786a545daf7dcdaeea313e15c5d6976",
    ("nnls", "drs", False, 0): "5689280b36a31f786cc3f3921bc7530b0ddea61cba8153fca01b80306d92a4ee",
    ("nnls", "drs", False, 1): "ee9524e38c13a606582fe371d450bb25084e8bad7c777eb86ea80c40f040e820",
    ("nnls", "drs", True, 0): "c9ab2a8caa764fced10018ffde0420b1fbdb6fff92a725cccc12445ef6ea7bf9",
    ("nnls", "drs", True, 1): "acf5c4e38640f7d85a7d8a21487faa1a193d4451bd808c001885325f0e079588",
}


def write_dataset(family: str, path: str) -> None:
    if family == "lasso":
        inst = gen_lasso(40, 200, seed=0)
        write_libsvm(path, inst.A, np.where(inst.y >= 0.0, 1.0, -1.0), drop_below=0.1)
    elif family == "svm":
        inst = gen_svm(100, 20, seed=0)
        write_libsvm(path, inst.A, inst.y)
    else:
        inst = gen_nnls(50, 30, seed=0)
        write_libsvm(path, inst.A, np.where(inst.y >= 0.0, 1.0, -1.0))


def golden_hash(
    family: str, algorithm: str, aa: bool, seed: int, trace_path: str, dataset: str | None = None
) -> str:
    problem, max_iter = FAMILIES[family]
    if dataset is not None:
        problem = {"problem.kind": problem["problem.kind"], "problem.dataset": dataset}
    kv = {
        **problem,
        "algorithm.kind": algorithm,
        "aa.enabled": "true" if aa else "false",
        "aa.memory": "10",
        "run.seed": str(seed),
        "run.tol": "1e-10",
        "run.max_iter": str(max_iter),
        "run.trace": trace_path,
    }
    _, summary = run_experiment(config_from_mapping(kv))
    with open(trace_path, "r", encoding="utf-8") as handle:
        rows = [line.rsplit(",", 1)[0] for line in handle.read().splitlines()]
    summary.pop("elapsed_s")
    digest = hashlib.sha256()
    digest.update(("\n".join(rows) + "\n").encode())
    digest.update(format_summary(summary).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("family,algorithm,aa", CELLS)
def test_trace_and_summary_are_bitwise_unchanged(family, algorithm, aa, seed, tmp_path):
    got = golden_hash(family, algorithm, aa, seed, str(tmp_path / "trace.csv"))
    assert got == GOLDEN[(family, algorithm, aa, seed)]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("family,algorithm,aa", CSR_CELLS)
def test_csr_trace_and_summary_are_bitwise_unchanged(family, algorithm, aa, seed, tmp_path):
    dataset = str(tmp_path / (family + ".libsvm"))
    write_dataset(family, dataset)
    got = golden_hash(family, algorithm, aa, seed, str(tmp_path / "trace.csv"), dataset)
    assert got == GOLDEN_CSR[(family, algorithm, aa, seed)]


def print_tables() -> None:
    """Print GOLDEN and GOLDEN_CSR, ready to paste over the tables above."""
    with tempfile.TemporaryDirectory() as tmp:
        trace = str(Path(tmp) / "trace.csv")
        tables = {"GOLDEN": {}, "GOLDEN_CSR": {}}
        for family, algorithm, aa in CELLS:
            for seed in (0, 1):
                tables["GOLDEN"][(family, algorithm, aa, seed)] = golden_hash(family, algorithm, aa, seed, trace)
        for family, algorithm, aa in CSR_CELLS:
            dataset = str(Path(tmp) / (family + ".libsvm"))
            write_dataset(family, dataset)
            for seed in (0, 1):
                tables["GOLDEN_CSR"][(family, algorithm, aa, seed)] = golden_hash(
                    family, algorithm, aa, seed, trace, dataset
                )
    for name, table in tables.items():
        print("%s = {" % name)
        for key, digest in table.items():
            print('    ("%s", "%s", %r, %d): "%s",' % (*key, digest))
        print("}")


if __name__ == "__main__":
    print_tables()

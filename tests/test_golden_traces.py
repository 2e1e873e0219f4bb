"""Golden traces: every numeric trace field and summary value, bitwise.

Each cell runs one small configured experiment through ``run_experiment``,
writes its trace CSV, and hashes (SHA-256) the CSV with the ``elapsed_us``
column dropped together with the summary block without ``elapsed_s``.  A
change that moves any recorded number in its last bit changes the hash; one
that only changes timing does not.  A change that is meant to move numbers
regenerates the table with ``golden_hash`` and says so in CHANGES.md.
"""

from __future__ import annotations

import hashlib

import pytest

from aaopt.harness import config_from_mapping, format_summary, run_experiment

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
    ("nnls", "drs", False, 0): "71ae45875ad7cf27986a67df40d69946f1d9e7b0d253d556b9fb7787aa5e5357",
    ("nnls", "drs", False, 1): "442090214c02cc9d7b9ddb22eade2d8e7bf4b5805ca76992323fd68e8205d83d",
    ("nnls", "drs", True, 0): "a3bee84e99e12fa25f015199a4d0a7e435d6c681e2fc689ddb4b10036678b0e9",
    ("nnls", "drs", True, 1): "30bdb7329d9a5b9b6f75806828880ad11ceec139d0ced3e5f0ef4aea428930cb",
    ("logreg", "irl1", False, 0): "c174bb07f37a1412ec69abe382c40043bf42573fd3b87677be06524d0a0b707d",
    ("logreg", "irl1", False, 1): "8c2937fd3758a1814a01d87844bbf8d1d8aa67ffb31f45225df37cf76724c74d",
    ("logreg", "irl1", True, 0): "0d5a1f322aacab8822e4d5db9cb255112a3d57be2d20214f3013f2243e094ce6",
    ("logreg", "irl1", True, 1): "ce6fb08857627dd2720d92e71ba99f4ece0fc24a9e9d213851ec2b265da3f360",
}


def golden_hash(family: str, algorithm: str, aa: bool, seed: int, trace_path: str) -> str:
    problem, max_iter = FAMILIES[family]
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

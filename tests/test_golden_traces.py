"""Golden traces: every numeric trace field and summary value, bitwise.

Each cell runs one small configured experiment through ``run_experiment``,
writes its trace CSV, and hashes (SHA-256) the CSV with the ``elapsed_us``
column dropped together with the summary block without ``elapsed_s``.  A
change that moves any recorded number in its last bit changes the hash; one
that only changes timing does not.  A second hash leaves out the
``objective`` column and ``final_objective`` as well, so a change that moves
only the objective's bits shows as ``sha256`` moving alone.  Beside the
hashes each cell records its iterations, rejected AA steps,
``identification_iter`` and final residual, which are compared too, so a
failure names each field that moved and both of its values.  A change that is meant to move numbers regenerates the
tables and says so in CHANGES.md; from the repository root,

    python3 tests/test_golden_traces.py

prints ``GOLDEN`` and ``GOLDEN_CSR`` as computed by the current source tree,
then every field that differs from the committed tables, and ends with one
line per table: how many cells moved, and which fields besides ``sha256``.
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

# what each cell records: the two digests, then what a changed digest moved
FIELDS = ("sha256", "sha256_sans_objective", "iterations", "rejections", "identification_iter", "final_residual")

GOLDEN = {
    ("lasso", "ista", False, 0): (
        "862759674fe5422fd1703ec9f8a5029d33acd1293e686908f6f44600a3a09c4d",
        "825a64e2865108e8b1265e8e0f87753ba3f5a1ec69e626d31c121102a4722821", 1500, 0, 1129, 0.0003027451237377348),
    ("lasso", "ista", False, 1): (
        "71db05c77d45d78fac77c30ab82caef06adaa953a2b277c6d3d0d69d53c6680a",
        "707e312e3699ee42f2b0ab6acdc81a5b6581fbda32ef752448895a9620bd9b7f", 1500, 0, 1269, 0.00019066421291868258),
    ("lasso", "ista", True, 0): (
        "cb4517f9d3e8b35a304d653f9d0c59de4e15506d495fda86b0874bd6510bdc55",
        "be1fc06dc9f3d781fede3d50ee09cdee921a184fd4cf75fa27fa470df8f000ae", 583, 87, 482, 9.62863262766949e-11),
    ("lasso", "ista", True, 1): (
        "72942e85439782d12d0eca2d4d3a6d70e152c27aa9c0033696d29566389fe2e1",
        "efe20f514f80b70a027d8ec50a0f254e1e57a7b37d34484e23e329dbee2293c2", 653, 75, 396, 9.780620215512286e-11),
    ("lasso", "fista", False, 0): (
        "c2e356ccd4e50a436404dd78c28069cc6da0cedf247940f3c519ab0230c4dc8e",
        "1ee65c68633539864f375270d088bfc1b62038caf6fba93c49c0be02447a82dc", 1500, 0, 848, 6.79126844304827e-07),
    ("lasso", "fista", False, 1): (
        "7c66adee0b774ab1d955932d927a48f52c82736a0e4013b361b9c9328d5f3459",
        "1bb39204aecdb9e5a4c7694c08ffbd7b112638c20233b27f8bcf4173d5f3f685", 1500, 0, 309, 2.1275229875515146e-06),
    ("svm", "pcd", False, 0): (
        "54ca3af46d4fe9a610f63f0799a6b37b1df3cc7df28925e618c9753abce65ad0",
        "681794d56fedc11cb6618aaef52306be3124c4bd1c038b3c199ba48cbf6dd54a", 400, 0, 330, 0.017953053555458717),
    ("svm", "pcd", False, 1): (
        "7edc6e5afe2078218972dd761d2e87209885f41a0c1aad3f5100f9d2f3d015cb",
        "3511cb3b972bb7be5d43902bed5c4f6d13bd0798ecffd370cd916076c71c2e36", 400, 0, 383, 0.0013572779959019827),
    ("svm", "pcd", True, 0): (
        "a3eb5c38a6611ba958632bb8198ba39afc88e892eab59434ff7880640303642b",
        "e35a169d43e425a416c4b129d3e3f7787d99d2e4991addcdb78abbd8cf60dacd", 190, 95, 137, 8.738037839419379e-11),
    ("svm", "pcd", True, 1): (
        "7556aad888ee01e78bc4a1abc9977db77aefd02f8e7059747168317d83f4b733",
        "45df06df7bb1c20c6c2f2294fe0b095914add264361b98c6f0b6ccb7eb35685d", 175, 75, 148, 9.384547544934582e-11),
    ("nnls", "drs", False, 0): (
        "129acdd77d90426c15f603dde732f885eb9f63c6823c4774f48ff6470239800d",
        "2081e209c132903b17d57b90d87389aefaa36ef3df68a4588cc9f5c711ad7702", 300, 0, 86, 1.4029411510769017e-06),
    ("nnls", "drs", False, 1): (
        "01414852101238bebde136af150c11c6c4a8ad2cfda913b63a79cb3b0ece11c0",
        "dcee039c2926fa05d6187067a7852cb321f5a44d06b43991b6a41d7f4a25f806", 300, 0, 92, 9.871994598775739e-09),
    ("nnls", "drs", True, 0): (
        "96ced182a72fff1304af6f9cf93bc90738b4334bfa4331075094460714ad0e14",
        "ea8f0e7e141705e1d781fa717213e945a11952f121d396f0a57c6a5867ec8ad9", 61, 6, 27, 4.755250143403705e-11),
    ("nnls", "drs", True, 1): (
        "b5903a4e619f45809fd8dfbc395dd86d5cdb7af715fc6b5bf1b73d5966058bf4",
        "94fc893d6da315729c9ec9b49f22db8089b0e7160be2f362a448bf9f58b3be30", 59, 5, 31, 4.824590397958746e-11),
    ("logreg", "irl1", False, 0): (
        "546eea8798a483ad18f3be1e003e398fefa9e9786977b4d87e38373a9cf8ed68",
        "e1890ab580094821842830e3abe6de19e82e89311c90c48128573ff36f1af4a1", 300, 0, 58, 5.5677985521675604e-08),
    ("logreg", "irl1", False, 1): (
        "fb8b23c5507a6b57d54f1103a548744e41f854cf058ad3cf2401175baf913af5",
        "758209beec89ae11963d3324983712179c37047f02c9ec7a40f6db428eecb805", 300, 0, 51, 1.3251636111757961e-07),
    ("logreg", "irl1", True, 0): (
        "473cd3c5429132b52b08caaecc9d35a06f10dd363938d338b1de3a8f799534ca",
        "40329caf367c58cd7c8106d370d0e471335ed923309db049cfd8cf8b155c776f", 68, 8, 32, 6.725943616494415e-11),
    ("logreg", "irl1", True, 1): (
        "5327114215ab231f67ccac96dcd0bd6ccf7200d08fd252702670234e76f6112d",
        "6bc0f28fad745658b721479c6c1c0c0b662695b9a08de75d6e141efe6719d30a", 62, 2, 27, 9.594861356667695e-11),
}


# The same lasso, svm and nnls cells with the matrix loaded through
# problem.dataset, which makes it a CSR matrix.  The file holds the seed-0
# instance with every entry below 0.5 in magnitude left out (0.1 for lasso,
# whose orthonormal rows have entries near 0.07), so the rows are genuinely
# sparse; lasso and nnls keep only the signs of their targets, since LIBSVM
# labels are +-1.  Without the family's problem keys, lasso keeps the default
# of five rejections before a restart.
CSR_CELLS = [
    ("lasso", "ista", False), ("lasso", "ista", True), ("lasso", "fista", False),
    ("svm", "pcd", False), ("svm", "pcd", True),
    ("nnls", "drs", False), ("nnls", "drs", True),
]

GOLDEN_CSR = {
    ("lasso", "ista", False, 0): (
        "0015b1a5cb97c6d5b4a8c3c4bf8dbd0bb9b1851caf1a1a24c8e9b5001391eee4",
        "1bc3e3c38e834f9332643fff06ca5d385f4a0c4901aa9d42e0d37edc85812dff", 1500, 0, 1474, 0.003001636648751936),
    ("lasso", "ista", False, 1): (
        "59d5bcaf422e67acea3bb65c2c93276b6d6a8ea39bac4cc29f0a367e00f060e2",
        "b4ead5cab95cc5497aee597e06a259db7c9457695c215a99c4fe7e32d69ea5d9", 1500, 0, 1148, 0.0018742140900652223),
    ("lasso", "ista", True, 0): (
        "82d152227afb29f326a442d9e172717e4d007c91572da1d77fab0c4222f5c1d6",
        "38e3e9e2b13fe54459ba8322bd40c977e4c376d8c9a31ea44e7f6efc3eb24e97", 1352, 573, 1035, 7.623351100767888e-11),
    ("lasso", "ista", True, 1): (
        "535ce824036750286eee519cc0cb19d73a722597263de933180de945926b63d3",
        "1724620080eacbf6063725c0624c175836ea59bdedf8c20f71173d03467e1e3c", 1500, 440, 868, 3.0321109842299654e-06),
    ("lasso", "fista", False, 0): (
        "bed23d1b0f82e0b86007b9b47ba5b0ed58b51a86e378933b6da6479508e24cc8",
        "e41fe1835bcfe5f2952dacb5db2fa32aacebe8314c805e19bfbb5f4d1812e68b", 1500, 0, 844, 6.678468798161759e-06),
    ("lasso", "fista", False, 1): (
        "1e2cac0460dd231dce281b5ead30aa45e9c8e59d6d6cfcee31b9262e2c877d4b",
        "f91b6be45847c343f058edee16714b1dffbad9b8d71466e69eda45b7137d305c", 1500, 0, 661, 6.578533033820033e-06),
    ("svm", "pcd", False, 0): (
        "b1b3b5466473151efa1049b6afbbfef99a849e1933622a4016ce0c8f6c633c47",
        "9b48f9cd5157be6d1aec0d12c7fb42c57824c47f6a6be53af2e1e85bc4187f7e", 400, 0, 341, 0.008748418608834478),
    ("svm", "pcd", False, 1): (
        "03f5bae18a6cb19936f0e0c74851109426158c6e0e64ed1fb6a6bd691c8db256",
        "928221ed990c43e6f051c0e38c121fa632ab29ff60770f89796863587605941c", 400, 0, 289, 0.008953047122368003),
    ("svm", "pcd", True, 0): (
        "dbd8986e936d8cd2b3e22cfe67f94e44556c341a30cf71c4d3cf628b17677d60",
        "c2ba3d9454a3fe6d2cd5fcba00d21bcfb0c2b57bc121c85e3ac04d9505004387", 159, 61, 97, 7.16461569548593e-11),
    ("svm", "pcd", True, 1): (
        "a5278f7e48bc444cefd926cb627f0f4c507b3f91b1adc2db1c870f6df38b65e8",
        "0fc7515b25c8164901a33911c7426daea1a728667295a5b5b718426e232bbe6e", 193, 89, 130, 8.974284376141008e-11),
    ("nnls", "drs", False, 0): (
        "c165206e1e194eec28a4d83df8f30f73bd6d1767fdfa711112cf440bb10d9510",
        "ebcca5f4d3bc46d8d6c4a72af81042d083329beb710fec38411a0f7dd961341b", 290, 0, 43, 9.917369682383122e-11),
    ("nnls", "drs", False, 1): (
        "f4832cae8142d8a4cb0d52732ea9ead744ab2c1d12d4cada76e430d95c4acf28",
        "47f3c94b5ae590f0ee59f7e344e10e2e3b5c1c45c8143f863782308e75042ca1", 244, 0, 17, 9.427503064073281e-11),
    ("nnls", "drs", True, 0): (
        "0fb235f6573c1f1ff3e0518fea2e9825f73e95d5bb477e201d1369bfd956bf91",
        "65c145b84c04139a492bc4b4bfa876a6cc32f4047d25fe7364c13d052a80d54a", 47, 10, 19, 9.198773890251324e-11),
    ("nnls", "drs", True, 1): (
        "9e6ad536d8f661f038f26aa0646cb76543db79bc01776185d26f14a5747780ff",
        "83d9fffa2dfe53027bdbd6bb9132cb914ac9c4cd26c7218e78c80dc91fd2fbab", 47, 9, 13, 7.473954336484464e-11),
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


def digest_of(rows: list[str], summary: dict) -> str:
    digest = hashlib.sha256()
    digest.update(("\n".join(rows) + "\n").encode())
    digest.update(format_summary(summary).encode())
    return digest.hexdigest()


def golden_cell(
    family: str, algorithm: str, aa: bool, seed: int, trace_path: str, dataset: str | None = None
) -> tuple:
    """The cell's values in the order of ``FIELDS``."""
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
    trace, summary = run_experiment(config_from_mapping(kv))
    with open(trace_path, "r", encoding="utf-8") as handle:
        rows = [line.rsplit(",", 1)[0] for line in handle.read().splitlines()]
    summary.pop("elapsed_s")
    # the objective is the trace's third column
    sans_objective = [",".join(fields[:2] + fields[3:]) for fields in (row.split(",") for row in rows)]
    digests = (digest_of(rows, summary),
               digest_of(sans_objective, {k: v for k, v in summary.items() if k != "final_objective"}))
    # record 0 is the starting point; only an AA step can be rejected
    rejections = sum(not r.accepted for r in trace[1:]) if aa else 0
    return (*digests, summary["iterations"], rejections, summary["identification_iter"],
            summary["final_residual"])


def moved(key: tuple, got: tuple, want: tuple) -> list[str]:
    """One line for each field of a cell that differs, with both values."""
    return ["%s %s: %r -> %r" % (key, field, old, new)
            for field, old, new in zip(FIELDS, want, got) if repr(old) != repr(new)]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("family,algorithm,aa", CELLS)
def test_trace_and_summary_are_bitwise_unchanged(family, algorithm, aa, seed, tmp_path):
    key = (family, algorithm, aa, seed)
    got = golden_cell(family, algorithm, aa, seed, str(tmp_path / "trace.csv"))
    changes = moved(key, got, GOLDEN[key])
    assert not changes, "\n".join(changes)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("family,algorithm,aa", CSR_CELLS)
def test_csr_trace_and_summary_are_bitwise_unchanged(family, algorithm, aa, seed, tmp_path):
    key = (family, algorithm, aa, seed)
    dataset = str(tmp_path / (family + ".libsvm"))
    write_dataset(family, dataset)
    got = golden_cell(family, algorithm, aa, seed, str(tmp_path / "trace.csv"), dataset)
    changes = moved(key, got, GOLDEN_CSR[key])
    assert not changes, "\n".join(changes)


def print_tables() -> None:
    """Print GOLDEN and GOLDEN_CSR, ready to paste over the tables above, then what moved."""
    with tempfile.TemporaryDirectory() as tmp:
        trace = str(Path(tmp) / "trace.csv")
        tables = {"GOLDEN": {}, "GOLDEN_CSR": {}}
        for family, algorithm, aa in CELLS:
            for seed in (0, 1):
                tables["GOLDEN"][(family, algorithm, aa, seed)] = golden_cell(family, algorithm, aa, seed, trace)
        for family, algorithm, aa in CSR_CELLS:
            dataset = str(Path(tmp) / (family + ".libsvm"))
            write_dataset(family, dataset)
            for seed in (0, 1):
                tables["GOLDEN_CSR"][(family, algorithm, aa, seed)] = golden_cell(
                    family, algorithm, aa, seed, trace, dataset
                )
    changes, tallies = [], []
    for name, table in tables.items():
        print("%s = {" % name)
        cells, fields = 0, set()
        for key, cell in table.items():
            print('    ("%s", "%s", %r, %d): (' % key)
            print('        "%s",\n        "%s", %r, %r, %r, %r),' % cell)
            want = globals()[name][key]
            lines = moved(key, cell, want)
            changes += ["%s %s" % (name, line) for line in lines]
            cells += bool(lines)
            fields.update(f for f, old, new in zip(FIELDS, want, cell) if repr(old) != repr(new))
        print("}")
        others = [f for f in FIELDS[1:] if f in fields]
        tallies.append("# %s: %d of %d cells moved; fields other than sha256 that moved: %s"
                       % (name, cells, len(table), ", ".join(others) or "none"))
    print("\n# Against the committed tables:")
    print("\n".join(changes) if changes else "# nothing moved")
    print("\n".join(tallies))


if __name__ == "__main__":
    print_tables()

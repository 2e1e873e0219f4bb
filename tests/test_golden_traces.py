"""Golden traces: every numeric trace field and summary value, bitwise.

Each cell runs one small configured experiment through ``run_experiment``,
writes its trace CSV, and hashes (SHA-256) the CSV with the ``elapsed_us``
column dropped together with the summary block without ``elapsed_s``.  A
change that moves any recorded number in its last bit changes the hash; one
that only changes timing does not.  Beside the hash each cell records its
iterations, rejected AA steps, ``identification_iter`` and final residual,
which are compared too, so a failure names each field that moved and both
of its values.  A change that is meant to move numbers regenerates the
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

# what each cell records: the digest, then what a changed digest moved
FIELDS = ("sha256", "iterations", "rejections", "identification_iter", "final_residual")

GOLDEN = {
    ("lasso", "ista", False, 0): (
        "931cd5e66cb309fba2fba5f93c724f74096516e01e6ea53ff14e9125862b0ed9", 1500, 0, 1129, 0.0003027451237377348),
    ("lasso", "ista", False, 1): (
        "9e78b14c5392ec7614d43390cd39ea5c587614d538fae345910b630cfed27e6b", 1500, 0, 1269, 0.00019066421291868258),
    ("lasso", "ista", True, 0): (
        "23fce070e3cb0fab59bc3567dc2f697ffd3adc311e9cd656e9382983892bd30d", 583, 87, 482, 9.62863262766949e-11),
    ("lasso", "ista", True, 1): (
        "67c4133a1f549af985230326b692e93de026e71645846169861293d88e7be478", 653, 75, 396, 9.780620215512286e-11),
    ("lasso", "fista", False, 0): (
        "d972d0a589fdf1e8fb3c368a3d71b7df08c1428564602b09df71ebe4ce50b8c8", 1500, 0, 848, 6.79126844304827e-07),
    ("lasso", "fista", False, 1): (
        "a42b142044eaf78cad42d9997f2aedd83fd0af2e6fb339ffd0483fccab79b3ad", 1500, 0, 309, 2.1275229875515146e-06),
    ("svm", "pcd", False, 0): (
        "1edc9212ca3b573580ff0b53006f9570deffc4a44df322d552eb1646390def62", 400, 0, 330, 0.017953053555458717),
    ("svm", "pcd", False, 1): (
        "29026a9210abb252c5eaf36e869dd09ebb82e5237c5e924b287a00e53072fea3", 400, 0, 383, 0.0013572779959019827),
    ("svm", "pcd", True, 0): (
        "f543a0455c201ec1406fd23db8dcfcb1126c6d80e8093e14b5ff2777a578d716", 190, 95, 137, 8.738037839419379e-11),
    ("svm", "pcd", True, 1): (
        "6e7d9b401d44a5ca1601679be5b344a7eefaccd5d1dae50d9f8c897d9a82f08c", 175, 75, 148, 9.384547544934582e-11),
    ("nnls", "drs", False, 0): (
        "129acdd77d90426c15f603dde732f885eb9f63c6823c4774f48ff6470239800d", 300, 0, 86, 1.4029411510769017e-06),
    ("nnls", "drs", False, 1): (
        "01414852101238bebde136af150c11c6c4a8ad2cfda913b63a79cb3b0ece11c0", 300, 0, 92, 9.871994598775739e-09),
    ("nnls", "drs", True, 0): (
        "96ced182a72fff1304af6f9cf93bc90738b4334bfa4331075094460714ad0e14", 61, 6, 27, 4.755250143403705e-11),
    ("nnls", "drs", True, 1): (
        "b5903a4e619f45809fd8dfbc395dd86d5cdb7af715fc6b5bf1b73d5966058bf4", 59, 5, 31, 4.824590397958746e-11),
    ("logreg", "irl1", False, 0): (
        "546eea8798a483ad18f3be1e003e398fefa9e9786977b4d87e38373a9cf8ed68", 300, 0, 58, 5.5677985521675604e-08),
    ("logreg", "irl1", False, 1): (
        "fb8b23c5507a6b57d54f1103a548744e41f854cf058ad3cf2401175baf913af5", 300, 0, 51, 1.3251636111757961e-07),
    ("logreg", "irl1", True, 0): (
        "473cd3c5429132b52b08caaecc9d35a06f10dd363938d338b1de3a8f799534ca", 68, 8, 32, 6.725943616494415e-11),
    ("logreg", "irl1", True, 1): (
        "5327114215ab231f67ccac96dcd0bd6ccf7200d08fd252702670234e76f6112d", 62, 2, 27, 9.594861356667695e-11),
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
    ("lasso", "ista", False, 0): (
        "ab80ed8c22b6befca74646bba4838dc7651422f290360b5011c329f031cd1798", 1500, 0, 1474, 0.003001636648751936),
    ("lasso", "ista", False, 1): (
        "a5db6554a046713aa4806bbfc259ba6366c561af4d4665f293614e1f9a5ed415", 1500, 0, 1148, 0.0018742140900652223),
    ("lasso", "ista", True, 0): (
        "3febbab3b1fc72fefab194ccb397094fe4bcaa44cd28455fc58d2c25528a585d", 1352, 573, 1035, 7.623351100767888e-11),
    ("lasso", "ista", True, 1): (
        "8090929830ce51e05252b495c3ce8d509f50b31b2069120515ec953e4e7d0457", 1500, 440, 868, 3.0321109842299654e-06),
    ("svm", "pcd", False, 0): (
        "9a2eecb9ec98e19dee950e76ecac5efdfc0e9b7592f6489d8b95004afe3f65b7", 400, 0, 341, 0.008748418608834478),
    ("svm", "pcd", False, 1): (
        "5067080212300d1fc20d5879a75356469230dff70d4c21e74d77cc1c244c14bf", 400, 0, 289, 0.008953047122368003),
    ("svm", "pcd", True, 0): (
        "07616dac2f590265065e231a4f458df8f3e64495a0c3964d2bebd2e3cb836348", 159, 61, 97, 7.16461569548593e-11),
    ("svm", "pcd", True, 1): (
        "d55cdef8f2e3be359d22ae7b21346f524e5b191d5a8960d5e372b9b01485d7fa", 193, 89, 130, 8.974284376141008e-11),
    ("nnls", "drs", False, 0): (
        "c165206e1e194eec28a4d83df8f30f73bd6d1767fdfa711112cf440bb10d9510", 290, 0, 43, 9.917369682383122e-11),
    ("nnls", "drs", False, 1): (
        "f4832cae8142d8a4cb0d52732ea9ead744ab2c1d12d4cada76e430d95c4acf28", 244, 0, 17, 9.427503064073281e-11),
    ("nnls", "drs", True, 0): (
        "0fb235f6573c1f1ff3e0518fea2e9825f73e95d5bb477e201d1369bfd956bf91", 47, 10, 19, 9.198773890251324e-11),
    ("nnls", "drs", True, 1): (
        "9e6ad536d8f661f038f26aa0646cb76543db79bc01776185d26f14a5747780ff", 47, 9, 13, 7.473954336484464e-11),
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
    digest = hashlib.sha256()
    digest.update(("\n".join(rows) + "\n").encode())
    digest.update(format_summary(summary).encode())
    # record 0 is the starting point; only an AA step can be rejected
    rejections = sum(not r.accepted for r in trace[1:]) if aa else 0
    return (digest.hexdigest(), summary["iterations"], rejections, summary["identification_iter"],
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
            print('        "%s", %r, %r, %r, %r),' % cell)
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

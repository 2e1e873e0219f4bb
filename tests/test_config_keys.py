"""Every config value is checked once, and every key a config sets is read.

A value outside its key's range, a key its family never reads, and a key that
does nothing next to another are all config errors that name the key, raised
before anything runs.  The builders read exactly the ``problem.*`` keys their
family declares in ``FAMILIES``.
"""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aaopt.harness import (
    CONFIG_KEYS,
    FAMILIES,
    ConfigError,
    build_operator,
    config_from_mapping,
)
from aaopt.problems import gen_lasso, gen_logreg, gen_nnls, gen_svm
from oracles import write_libsvm

# the README quick start, without its trace file
README_LASSO = {
    "problem.kind": "lasso", "problem.rows": "40", "problem.cols": "200",
    "problem.lambda": "0.01", "algorithm.kind": "ista", "aa.enabled": "true",
    "aa.memory": "10", "aa.safeguard": "1.0", "aa.restart": "1",
    "run.seed": "0", "run.tol": "1e-10", "run.max_iter": "20000",
}
# small generated instances, so a drawn size keeps rows and cols <= 60
GENERATED = {
    "lasso": {"problem.kind": "lasso", "algorithm.kind": "ista",
              "problem.rows": "10", "problem.cols": "20"},
    "nnls": {"problem.kind": "nnls", "algorithm.kind": "drs",
             "problem.rows": "12", "problem.cols": "6"},
    "svm": {"problem.kind": "svm", "algorithm.kind": "pcd",
            "problem.rows": "12", "problem.cols": "4"},
    "logreg": {"problem.kind": "logreg", "algorithm.kind": "irl1",
               "problem.rows": "12", "problem.cols": "4"},
}
DATASET_ROWS = 30


@pytest.fixture(scope="module")
def datasets(tmp_path_factory):
    """One problem.dataset file of LIBSVM text per family."""
    root = tmp_path_factory.mktemp("datasets")
    paths = {name: str(root / (name + ".libsvm")) for name in FAMILIES}
    for name, inst in (("lasso", gen_lasso(DATASET_ROWS, 60, seed=0)),
                       ("svm", gen_svm(DATASET_ROWS, 6, seed=0)),
                       ("nnls", gen_nnls(DATASET_ROWS, 6, seed=0)),
                       ("logreg", gen_logreg(DATASET_ROWS, 6, seed=0))):
        # every entry kept, so no row of a subsample is all zeros
        write_libsvm(paths[name], inst.A, np.where(inst.y >= 0.0, 1.0, -1.0), drop_below=0.0)
    return paths


def base_config(family: str, dataset: str | None) -> dict:
    if dataset is None:
        return dict(GENERATED[family])
    return {"problem.kind": family, "algorithm.kind": FAMILIES[family].algorithms[0],
            "problem.dataset": dataset}


def names(message: str, key: str) -> bool:
    return re.search(re.escape(key) + r"(?!\w)", message) is not None


def builds_or_names(kv: dict, key: str) -> None:
    """config_from_mapping then build_operator builds, or raises a ConfigError naming ``key``."""
    try:
        build_operator(config_from_mapping(kv))
    except ConfigError as exc:
        assert names(str(exc), key), "%s not named in %r" % (key, str(exc))


# ---------------------------------------------------------------------------
# the property: every family x every key in the key table


def interval_ends(interval: str) -> tuple[float, float, bool, bool]:
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    return lo, hi, interval[0] == "(", interval[-1] == ")"


def numbers(key: str, spec) -> st.SearchStrategy:
    """Text for a numeric key: inside its interval, at and across its edges, and non-finite."""
    lo, hi, lo_open, hi_open = interval_ends(spec.interval)
    if spec.type is int:
        top = int(min(hi, lo + 59))
        inside = st.integers(int(lo), top)
        edges = [int(lo) - 1, int(lo), top] + ([int(hi), int(hi) + 1] if hi < math.inf else [])
        # rows and cols stay at most 60; any other count may be huge, as it sizes nothing built
        huge = [] if key in ("problem.rows", "problem.cols") else [10**25]
        outside = st.one_of(st.integers(-10**20, int(lo) - 1),
                            st.sampled_from(huge + ["1.5", "1e3", "x", ""]))
        texts = st.one_of(inside, st.sampled_from(edges), outside).map(str)
    else:
        inside = st.floats(lo, hi, exclude_min=lo_open, exclude_max=hi_open, allow_infinity=False)
        edges = [lo, math.nextafter(lo, -math.inf), math.nextafter(lo, math.inf), -1.0, 1e308]
        if hi < math.inf:
            edges += [hi, math.nextafter(hi, math.inf), math.nextafter(hi, -math.inf)]
        texts = st.one_of(inside, st.sampled_from(edges), st.floats()).map(repr)
        texts = st.one_of(texts, st.sampled_from(["x", ""]))
    specials = ["nan", "inf", "-inf", "NaN", "-nan"] + ([spec.unset] if spec.unset else [])
    return st.one_of(texts, st.sampled_from(specials))


def values(key: str, family: str, datasets: dict) -> st.SearchStrategy:
    spec = CONFIG_KEYS[key]
    if spec.interval is not None:
        return numbers(key, spec)
    if spec.type is bool:
        return st.sampled_from(["true", "false", "yes", "off", "1", "0", "TRUE", "maybe", "nan", ""])
    choices = {
        "problem.kind": [*FAMILIES, "ridge", ""],
        "algorithm.kind": sorted({a for f in FAMILIES.values() for a in f.algorithms} | {"newton"}),
        "run.trace": ["trace.csv", "nan"],
        # a file of the family's own data: what a file holds is data, not a config value
        "problem.dataset": [datasets[family]],
    }
    return st.sampled_from(choices[key])


@pytest.mark.parametrize("key", sorted(CONFIG_KEYS))
@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_every_value_of_every_key_builds_or_names_the_key(datasets, family, key, data):
    dataset = data.draw(st.sampled_from([None, datasets[family]]), label="dataset")
    kv = base_config(family, dataset)
    if data.draw(st.booleans(), label="explicit beta"):
        kv["algorithm.beta"] = "0.05"
    kv[key] = data.draw(values(key, family, datasets), label=key)
    builds_or_names(kv, key)


# ---------------------------------------------------------------------------
# every probe that was accepted, or failed without naming its key, before


# "DATASET" stands for the family's problem.dataset file, which replaces the generated base
PROBES = [
    # NaN values that ran and reported false results
    ("lasso", {"algorithm.beta": "nan"}, "algorithm.beta"),
    ("lasso", {"run.tol": "nan"}, "run.tol"),
    ("lasso", {"run.zero_tol": "nan"}, "run.zero_tol"),
    ("lasso", {"aa.safeguard": "nan"}, "aa.safeguard"),
    ("lasso", {"aa.alpha_cap": "nan"}, "aa.alpha_cap"),
    ("lasso", {"aa.tikhonov": "nan"}, "aa.tikhonov"),
    # keys that did nothing
    ("lasso", {"problem.c": "1"}, "problem.c"),
    ("svm", {"problem.lambda": "0.1"}, "problem.lambda"),
    ("svm", {"problem.noise_var": "0.1"}, "problem.noise_var"),
    ("lasso", {"problem.subsample": "5"}, "problem.subsample"),
    ("svm", {"problem.subsample": "5"}, "problem.subsample"),
    ("svm", {"problem.dataset": "DATASET", "problem.rows": "5"}, "problem.rows"),
    ("nnls", {"problem.dataset": "DATASET", "problem.cols": "5"}, "problem.cols"),
    ("lasso", {"problem.dataset": "DATASET", "problem.noise_var": "0.1"}, "problem.noise_var"),
    ("lasso", {"algorithm.delta": "1.5"}, "algorithm.delta"),
    ("logreg", {"algorithm.delta": "1"}, "algorithm.delta"),
    # out-of-range values that failed at build or run time without naming the key
    ("logreg", {"problem.p": "1.5"}, "problem.p"),
    ("lasso", {"problem.noise_var": "-1"}, "problem.noise_var"),
    ("lasso", {"problem.rows": "30", "problem.cols": "20"}, "problem.rows"),
    ("lasso", {"problem.rows": "5", "problem.cols": "8"}, "problem.cols"),
    ("svm", {"problem.rows": "0"}, "problem.rows"),
    ("nnls", {"problem.rows": "-3"}, "problem.rows"),
    ("nnls", {"algorithm.delta": "3"}, "algorithm.delta"),
    ("lasso", {"run.zero_tol": "-1"}, "run.zero_tol"),
    ("lasso", {"run.window": "0"}, "run.window"),
    ("svm", {"problem.dataset": "DATASET", "problem.subsample": str(DATASET_ROWS + 1)},
     "problem.subsample"),
    ("lasso", {"problem.dataset": "DATASET", "problem.subsample": str(DATASET_ROWS + 1)},
     "problem.subsample"),
]


@pytest.mark.parametrize("family,extra,key", PROBES)
def test_probe_is_a_config_error_naming_its_key(datasets, family, extra, key):
    if "problem.dataset" in extra:
        kv = base_config(family, datasets[family])
        extra = {k: v for k, v in extra.items() if k != "problem.dataset"}
    else:
        kv = dict(README_LASSO if family == "lasso" else GENERATED[family])
    kv.update(extra)
    with pytest.raises(ConfigError) as info:
        build_operator(config_from_mapping(kv))
    assert names(str(info.value), key), str(info.value)


@pytest.fixture(scope="module")
def bad_files(tmp_path_factory):
    """problem.dataset files that hold no instance: an empty one, and a binary .npz."""
    root = tmp_path_factory.mktemp("bad")
    empty = root / "empty.libsvm"
    empty.write_text("", encoding="utf-8")
    npz = str(root / "inst.npz")
    np.savez(npz, A=np.eye(3), y=np.ones(3))
    return {"empty": str(empty), "npz": npz}


@pytest.mark.parametrize("family,file", [("nnls", "empty"), ("logreg", "empty"), ("svm", "empty"),
                                         ("lasso", "empty"), ("lasso", "npz"), ("svm", "npz")])
def test_a_dataset_file_without_an_instance_names_the_key_and_the_file(bad_files, family, file):
    path = bad_files[file]
    with pytest.raises(ConfigError) as info:
        build_operator(config_from_mapping(base_config(family, path)))
    message = str(info.value)
    assert names(message, "problem.dataset") and path in message, message
    if file == "npz":
        assert "not LIBSVM text" in message, message


@pytest.fixture(scope="module")
def zero_data(tmp_path_factory):
    """A problem.dataset file whose matrix is all zeros, so the Lipschitz estimate is 0."""
    libsvm = tmp_path_factory.mktemp("zero") / "zero.libsvm"
    libsvm.write_text("1 1:0\n-1 1:0\n" * 4, encoding="utf-8")
    return str(libsvm)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_a_zero_lipschitz_estimate_names_the_beta_rule_and_the_dataset(zero_data, family):
    """The rule algorithm.beta = auto (1/L) cannot apply: the error names the key and the file."""
    with pytest.raises(ConfigError) as info:
        build_operator(config_from_mapping(base_config(family, zero_data)))
    message = str(info.value)
    assert names(message, "algorithm.beta") and names(message, "problem.dataset"), message
    assert "auto" in message and zero_data in message, message


def test_a_drs_prox_that_cannot_be_factored_names_beta_and_lambda():
    # the shift m*(1/beta + 2*lambda) underflows against A.T A, which has rank 5 < 30
    kv = {**GENERATED["nnls"], "problem.rows": "5", "problem.cols": "30", "problem.lambda": "0",
          "algorithm.beta": "1e300"}
    with pytest.raises(ConfigError) as info:
        build_operator(config_from_mapping(kv))
    message = str(info.value)
    assert names(message, "algorithm.beta") and names(message, "problem.lambda"), message


def test_a_replaced_value_is_checked_again():
    cfg = config_from_mapping(README_LASSO)
    for change, key in (({"tol": math.nan}, "run.tol"), ({"window": 0}, "run.window"),
                        ({"params": {"c": 1.0}}, "problem.c"),
                        ({"aa": replace(cfg.aa, memory=65)}, "aa.memory"),
                        ({"delta": 0.5}, "algorithm.delta")):  # read by drs only
        with pytest.raises(ConfigError, match=re.escape(key)):
            replace(cfg, **change)


# ---------------------------------------------------------------------------
# tooling: the keys a builder reads are the keys its family declares


class ReadRecorder(dict):
    """A params mapping that records every key read from it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read: set[str] = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_builders_read_exactly_the_declared_keys(datasets, family):
    spec = FAMILIES[family]
    read: set[str] = set()
    for dataset in (None, datasets[family]):
        cfg = config_from_mapping(base_config(family, dataset))
        params = ReadRecorder({**spec.defaults, **cfg.params})
        spec.build(cfg, params)
        read |= params.read
    assert read == set(spec.defaults)

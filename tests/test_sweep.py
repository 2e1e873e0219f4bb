"""The compiled coordinate sweep: bitwise equal to the Python loop, and its loader.

``pcd_sweep`` runs its row loop in C (``aaopt/_sweep.c``), compiled on first
use and cached.  ``oracles.pcd_sweep_reference`` is the Python loop it
replaced; the two must agree byte for byte on every layout of Z numpy and
scipy can hand over, on every kind of bound, and on signed zeros, values at
the bounds and huge coordinates.
"""

from __future__ import annotations

import gc
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aaopt import _sweep
from aaopt.algorithms import pcd_sweep
from oracles import pcd_sweep_reference

VALUE = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-10.0, 10.0), st.floats(-1e150, 1e150))
LAYOUTS = ["C", "F", "rows reversed", "columns reversed", "unaligned", "csr32", "csr64"]


def laid_out(Z: np.ndarray, keep: np.ndarray, layout: str):
    """Z in the given memory layout; a CSR stores exactly the entries where ``keep`` holds."""
    m, n = Z.shape
    if layout.startswith("csr"):
        rows, cols = np.nonzero(keep)
        S = sp.csr_matrix((Z[rows, cols], (rows, cols)), shape=(m, n))
        if layout == "csr64":  # scipy picks int32 for small matrices
            S.indices, S.indptr = S.indices.astype(np.int64), S.indptr.astype(np.int64)
        return S
    if layout == "F":
        return np.asfortranarray(Z)
    if layout == "rows reversed":
        return np.ascontiguousarray(Z[::-1])[::-1]
    if layout == "columns reversed":
        return np.ascontiguousarray(Z[:, ::-1])[:, ::-1]
    if layout == "unaligned":
        return np.frombuffer(b"\0" + Z.tobytes(), dtype=float, offset=1).reshape(m, n)
    return Z


def per_row(draw, m: int, values):
    """A scalar or a length-m vector."""
    if draw(st.booleans()):
        return draw(values)
    return np.array(draw(st.lists(values, min_size=m, max_size=m)))


@st.composite
def sweeps(draw):
    m = draw(st.integers(1, 7))
    n = draw(st.one_of(st.integers(1, 6), st.integers(16, 40)))  # BLAS unrolls rows of 16 and more
    values = draw(st.lists(VALUE, min_size=m * n, max_size=m * n))
    keep = np.array(draw(st.lists(st.booleans(), min_size=m * n, max_size=m * n))).reshape(m, n)
    Z = np.where(keep, np.array(values).reshape(m, n), 0.0)
    layout = draw(st.sampled_from(LAYOUTS))
    q = per_row(draw, m, VALUE)
    bound = st.one_of(st.just(-math.inf), st.just(math.inf), VALUE)
    lower, upper = per_row(draw, m, bound), per_row(draw, m, bound)
    # coordinates at the bounds, at signed zeros, or anywhere up to 1e150
    ends = np.concatenate([np.atleast_1d(lower), np.atleast_1d(upper)])
    special = st.sampled_from([float(v) for v in ends if math.isfinite(v)] + [0.0, -0.0])
    x = np.array(draw(st.lists(st.one_of(VALUE, special), min_size=m, max_size=m)))
    beta = draw(st.floats(1e-6, 10.0))
    return laid_out(Z, keep, layout), q, lower, upper, beta, x


@settings(max_examples=400, deadline=None)
@given(case=sweeps())
@example(case=(np.ones((1, 1)), -0.0, 0.0, 0.0, 1.0, np.array([-0.0])))
@example(case=(sp.csr_matrix((3, 4)), -1.0, 0.0, 1.0, 0.5, np.array([-0.0, 1.0, 2.0])))
@example(case=(np.ones((3, 1)), np.array([1.0, -1.0, 0.0]), -np.inf, np.inf, 0.5,
               np.array([1e150, -1e150, 0.0])))
def test_compiled_sweep_is_bitwise_the_python_loop(case):
    Z, q, lower, upper, beta, x = case
    inputs = [np.asarray(a).tobytes() for a in (q, lower, upper, x)]
    dense_before = None if sp.issparse(Z) else Z.tobytes()
    got, want = pcd_sweep(Z, q, lower, upper, beta), pcd_sweep_reference(Z, q, lower, upper, beta)
    a, b = x, x
    with np.errstate(over="ignore", invalid="ignore"):  # huge entries overflow, on both sides
        for _ in range(3):  # chained, so each sweep starts from a point the last one produced
            a, b = got(a), want(b)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
    assert [np.asarray(v).tobytes() for v in (q, lower, upper, x)] == inputs
    assert dense_before is None or Z.tobytes() == dense_before


@pytest.mark.parametrize("sparse", [False, True])
def test_a_sweep_built_from_temporaries_keeps_its_buffers(sparse):
    rng = np.random.default_rng(5)
    Z = rng.standard_normal((40, 9)) * (rng.random((40, 9)) < 0.6)
    x = rng.uniform(-1.0, 2.0, size=40)
    scaled = lambda: sp.csr_matrix(2.0 * Z) if sparse else 2.0 * Z
    # every array handed over is a temporary: the sweep alone keeps it alive
    sweep = pcd_sweep(scaled(), np.linspace(-1.0, 1.0, 40), -np.ones(40), np.full(40, 1.5), 0.01)
    gc.collect()
    litter = [np.full(size, np.nan) for size in (9, 40, 360, 400) for _ in range(20)]
    want = pcd_sweep_reference(scaled(), np.linspace(-1.0, 1.0, 40), -np.ones(40), np.full(40, 1.5), 0.01)
    assert sweep(x).tobytes() == want(x).tobytes()
    del litter


@pytest.mark.parametrize("x", [np.zeros(4), np.zeros((3, 1)), np.zeros((1, 3)), np.float64(0.0)])
def test_an_iterate_of_the_wrong_shape_is_rejected(x):
    for Z in (np.eye(3), sp.identity(3, format="csr")):
        with pytest.raises(ValueError, match=r"x has shape .*expected \(3,\)"):
            pcd_sweep(Z, 0.0, -1.0, 1.0, 0.5)(x)


@pytest.mark.parametrize("indices, indptr, why", [
    ([0, 3], [0, 1, 2], "indices must be < 3"),
    ([0, -1], [0, 1, 2], "indices must be >= 0"),
    ([0, 1], [0, 5, 2], "indptr must be a non-decreasing sequence"),
])
def test_an_invalid_csr_is_rejected_before_any_c_call(indices, indptr, why):
    # scipy builds each of these without complaint; C would read or write out of bounds
    Z = sp.csr_matrix((np.ones(2), np.array(indices), np.array(indptr)), shape=(2, 3))
    with pytest.raises(ValueError, match="Z is not a valid CSR matrix: " + why):
        pcd_sweep(Z, 0.0, -1.0, 1.0, 0.5)


def test_a_csr_is_checked_without_changing_it():
    Z = sp.csr_matrix(np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]]))
    # int64 indices, and stored arrays longer than indptr uses: a full check casts and prunes
    Z.indices, Z.indptr = np.array([0, 2, 1, 0], dtype=np.int64), Z.indptr.astype(np.int64)
    Z.data = np.array([1.0, 2.0, 3.0, 9.0])
    held = (Z.data, Z.indices, Z.indptr)
    before = [a.tobytes() for a in held]
    want = pcd_sweep_reference(Z, 0.5, -1.0, 1.0, 0.25)(np.ones(2))
    assert pcd_sweep(Z, 0.5, -1.0, 1.0, 0.25)(np.ones(2)).tobytes() == want.tobytes()
    assert all(a is b for a, b in zip((Z.data, Z.indices, Z.indptr), held))
    assert [a.tobytes() for a in held] == before


# ---------------------------------------------------------------------------
# building, caching and loading the library


def cache_files(directory) -> list[str]:
    return sorted(p.name for p in directory.iterdir())


@pytest.fixture
def compiles(monkeypatch):
    """Counts the compiles that ``_sweep.load`` asks for."""
    calls = []
    real = _sweep.compile_library

    def counting(target):
        calls.append(target)
        real(target)

    monkeypatch.setattr(_sweep, "compile_library", counting)
    return calls


def test_a_cold_cache_compiles_once_and_a_warm_one_never(tmp_path, compiles, monkeypatch):
    lib = _sweep.load(tmp_path)
    assert len(compiles) == 1
    assert cache_files(tmp_path) == [_sweep.library_path(tmp_path).name]  # no temporary left
    assert callable(lib.aaopt_pcd_dense) and callable(lib.aaopt_pcd_csr)

    def no_compiler(target):
        raise AssertionError("compiled although %s is cached" % target)

    monkeypatch.setattr(_sweep, "compile_library", no_compiler)
    _sweep.load(tmp_path)
    assert cache_files(tmp_path) == [_sweep.library_path(tmp_path).name]


def test_a_changed_source_builds_a_new_file(tmp_path, compiles, monkeypatch):
    first = _sweep.library_path(tmp_path)
    _sweep.load(tmp_path)
    edited = tmp_path / "src" / "_sweep.c"
    edited.parent.mkdir()
    edited.write_text(_sweep.SOURCE.read_text(encoding="utf-8") + "/* edited */\n", encoding="utf-8")
    monkeypatch.setattr(_sweep, "SOURCE", edited)
    second = _sweep.library_path(tmp_path)
    assert second != first
    _sweep.load(tmp_path)
    assert compiles == [first, second]
    assert first.exists() and second.exists()


def test_concurrent_builds_leave_one_complete_library(tmp_path):
    errors = []

    def build():
        try:
            _sweep.load(tmp_path)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=build) for _ in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert cache_files(tmp_path) == [_sweep.library_path(tmp_path).name]


def test_a_missing_compiler_names_gcc_and_the_source(tmp_path, monkeypatch):
    monkeypatch.setenv("PATH", str(tmp_path / "no-bin"))
    with pytest.raises(OSError, match=r"gcc not found.*_sweep\.c"):
        _sweep.load(tmp_path / "cache")
    assert cache_files(tmp_path / "cache") == []


def test_a_failed_compile_names_gcc_and_the_source(tmp_path, monkeypatch):
    broken = tmp_path / "_sweep.c"
    broken.write_text("#error not C\n", encoding="utf-8")
    monkeypatch.setattr(_sweep, "SOURCE", broken)
    with pytest.raises(OSError, match=r"gcc failed to compile .*_sweep\.c"):
        _sweep.load(tmp_path / "cache")
    assert cache_files(tmp_path / "cache") == []


@pytest.fixture
def read_only(monkeypatch):
    """Directories where ``mkstemp`` is refused, as in a root-owned site-packages.

    The refusal is patched in: mode bits do not stop root, who may run the suite.
    """
    refused = []
    real = _sweep.tempfile.mkstemp

    def mkstemp(*args, dir=None, **kwargs):
        if dir is not None and Path(dir) in refused:
            raise PermissionError(13, "Permission denied", str(dir))
        return real(*args, dir=dir, **kwargs)

    monkeypatch.setattr(_sweep.tempfile, "mkstemp", mkstemp)
    monkeypatch.setattr(_sweep, "_loaded", None)
    return refused


def test_a_read_only_package_cache_falls_back_to_the_user_cache(tmp_path, monkeypatch, read_only):
    package, user = tmp_path / "package", tmp_path / "user"
    package.mkdir()
    read_only.append(package)
    monkeypatch.setattr(_sweep, "CACHE_DIRS", (package, user))
    lib = _sweep.library()
    assert callable(lib.aaopt_pcd_dense)
    assert cache_files(package) == []
    assert cache_files(user) == [_sweep.library_path(user).name]


def test_a_library_already_in_a_read_only_cache_is_loaded_from_it(tmp_path, monkeypatch, read_only):
    package, user = tmp_path / "package", tmp_path / "user"
    _sweep.load(package)  # built when the package was installed
    read_only.append(package)
    monkeypatch.setattr(_sweep, "CACHE_DIRS", (package, user))
    _sweep.library()
    assert not user.exists()


def test_no_writable_cache_names_every_directory_and_the_source(tmp_path, monkeypatch, read_only):
    package, user = tmp_path / "package", tmp_path / "user"
    for d in (package, user):
        d.mkdir()
        read_only.append(d)
    monkeypatch.setattr(_sweep, "CACHE_DIRS", (package, user))
    with pytest.raises(OSError) as info:  # the CLI reports an OSError
        _sweep.library()
    message = str(info.value)
    assert "_sweep.c" in message and str(package) in message and str(user) in message
    assert "Permission denied" in message
    assert _sweep._loaded is None


def test_only_an_svm_build_needs_numpy_core(tmp_path):
    # numpy < 2.0 has no numpy._core; aaopt's own imports of it fail here, as they would there
    code = "\n".join([
        "import builtins",
        "real = builtins.__import__",
        "def imports(name, globals=None, *args):",
        "    if name.startswith('numpy._core') and (globals or {}).get('__name__', '').startswith('aaopt'):",
        "        raise ImportError('no numpy._core, as in numpy < 2.0')",
        "    return real(name, globals, *args)",
        "builtins.__import__ = imports",
        "from aaopt.harness import build_operator, config_from_mapping",
        "for kind, alg in (('lasso', 'ista'), ('nnls', 'drs'), ('svm', 'pcd')):",
        "    try:",
        "        build_operator(config_from_mapping({'problem.kind': kind, 'algorithm.kind': alg}))",
        "        print(kind, 'built')",
        "    except ImportError:",
        "        print(kind, 'needs numpy._core')",
    ])
    src = str(Path(_sweep.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         cwd=tmp_path, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.splitlines() == ["lasso built", "nnls built", "svm needs numpy._core"]


def test_a_missing_ddot_names_the_symbol_and_the_source(tmp_path, monkeypatch):
    monkeypatch.setattr(_sweep, "DDOT_SYMBOL", "no_such_ddot64_")
    with pytest.raises(OSError, match=r"no_such_ddot64_.*_sweep\.c"):
        _sweep.load(tmp_path)

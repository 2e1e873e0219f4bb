"""The compiled coordinate sweep and lasso map: bitwise equal to the Python code
they replaced, and the loader of the compiled kernels.

``pcd_sweep`` runs its row loop in C (``aaopt/_kernels.c``), compiled on first
use and cached; the Anderson weight solve in the same library is checked in
``test_anderson.py``.  ``oracles.pcd_sweep_reference`` is the Python loop it
replaced; the two must agree byte for byte on every layout of Z numpy and
scipy can hand over, on every kind of bound, and on signed zeros, values at
the bounds and huge coordinates.  ``pga_step`` forms the lasso map in one C
call; ``oracles.lasso_pga_reference`` is the numpy composition it replaced,
and the two must agree byte for byte on dense and CSR matrices of any shape,
on signed zeros, NaN and infinite iterates, and on zero thresholds.
"""

from __future__ import annotations

import ctypes
import math
import os
import re
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aaopt import _kernels, harness
from aaopt.algorithms import pcd_sweep, pga_step
from aaopt.prox import BoxBounds
from conftest import litter_the_heap, zeros_view
from oracles import lasso_pga_reference, pcd_sweep_reference

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
    if np.any(np.greater(lower, upper)):  # an empty box is rejected; order it
        lower, upper = np.minimum(lower, upper), np.maximum(lower, upper)
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
# Fortran order: scipy's and numpy's BLAS ddot disagreed at a stride other than one
@example(case=(np.asfortranarray(np.array([[0.0] * 4, [0.0] * 4, [0.0, -234.0, 0.0, 0.0], [0.0] * 4,
                                           [0.0, -3.0, 0.0, 1.0], [0.0] * 4, [0.0] * 4])),
               0.0, np.array([-np.inf] * 4 + [0.0] + [-np.inf] * 2), np.array([0.0] * 4 + [np.inf] + [0.0] * 2),
               2.0, np.eye(7)[2]))
def test_compiled_sweep_is_bitwise_the_python_loop(case):
    Z, q, lower, upper, beta, x = case
    inputs = [np.asarray(a).tobytes() for a in (q, lower, upper, x)]
    dense_before = None if sp.issparse(Z) else Z.tobytes()
    got = pcd_sweep(Z, q, BoxBounds(lower, upper), beta)
    want = pcd_sweep_reference(Z, q, lower, upper, beta)
    a, b = x, x
    with np.errstate(over="ignore", invalid="ignore"):  # huge entries overflow, on both sides
        for _ in range(3):  # chained, so each sweep starts from a point the last one produced
            a, b = got(a), want(b)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
    assert [np.asarray(v).tobytes() for v in (q, lower, upper, x)] == inputs
    assert dense_before is None or Z.tobytes() == dense_before


def test_every_dense_layout_sweeps_as_the_c_layout():
    # numpy's Z.T x, and a BLAS row dot at a stride other than one, differ
    # in their last bits between these layouts for most draws
    rng = np.random.default_rng(11)
    box = BoxBounds(-np.inf, np.inf)
    for _ in range(10):
        Z = rng.standard_normal((7, 24)) * 10.0 ** rng.uniform(-3.0, 3.0, (7, 24))
        x = rng.standard_normal(7)
        c = pcd_sweep(Z, 0.5, box, 1e-3)
        want = c(c(c(x))).tobytes()
        for layout in LAYOUTS:
            if not layout.startswith("csr"):
                got = pcd_sweep(laid_out(Z, Z != 0.0, layout), 0.5, box, 1e-3)
                assert got(got(got(x))).tobytes() == want, layout


@pytest.mark.parametrize("sparse", [False, True])
def test_a_sweep_built_from_temporaries_keeps_its_buffers(sparse):
    rng = np.random.default_rng(5)
    Z = rng.standard_normal((40, 9)) * (rng.random((40, 9)) < 0.6)
    x = rng.uniform(-1.0, 2.0, size=40)
    scaled = lambda: sp.csr_matrix(2.0 * Z) if sparse else 2.0 * Z
    # every array handed over is a temporary: the sweep alone keeps it alive
    sweep = pcd_sweep(scaled(), np.linspace(-1.0, 1.0, 40), BoxBounds(-np.ones(40), np.full(40, 1.5)),
                      0.01)
    litter = litter_the_heap()
    want = pcd_sweep_reference(scaled(), np.linspace(-1.0, 1.0, 40), -np.ones(40), np.full(40, 1.5), 0.01)
    assert sweep(x).tobytes() == want(x).tobytes()
    # the first sweep made the buffers it works in (for a CSR, the gather buffer too)
    litter += litter_the_heap()
    a, b = sweep(sweep(x)), want(want(x))
    assert a.tobytes() == b.tobytes()
    assert all(np.isnan(v).all() for v in litter)  # nor did it write into freed memory
    del litter


@pytest.mark.parametrize("sparse", [False, True])
def test_a_result_shares_no_memory_with_the_sweep(sparse):
    rng = np.random.default_rng(6)
    Z = rng.standard_normal((30, 8))
    Z = sp.csr_matrix(Z * (rng.random(Z.shape) < 0.5)) if sparse else Z
    sweep = pcd_sweep(Z, -1.0, BoxBounds(0.0, 1.0), 0.05)
    x, y = rng.uniform(0.0, 1.0, 30), rng.uniform(0.0, 1.0, 30)
    first = sweep(x)
    kept = first.copy()
    second = sweep(y)
    assert first.tobytes() == kept.tobytes()  # the next sweep did not write into it
    assert not np.shares_memory(first, second) and not np.shares_memory(second, y)
    second[:] = np.nan
    assert sweep(x).tobytes() == kept.tobytes()
    assert sweep(y).tobytes() == pcd_sweep_reference(Z, -1.0, 0.0, 1.0, 0.05)(y).tobytes()


def test_two_sweeps_called_in_turn_keep_their_own_buffers():
    rng = np.random.default_rng(7)
    cases = [(rng.standard_normal((12, 5)), 0.1), (sp.csr_matrix(rng.standard_normal((12, 9))), 0.02),
             (rng.standard_normal((12, 3)), 0.2)]
    sweeps = [(pcd_sweep(Z, -1.0, BoxBounds(0.0, 2.0), beta), pcd_sweep_reference(Z, -1.0, 0.0, 2.0, beta))
              for Z, beta in cases]
    points = [rng.uniform(0.0, 2.0, 12) for _ in cases]
    for _ in range(4):
        for k, (got, want) in enumerate(sweeps):
            a, b = got(points[k]), want(points[k])
            assert a.tobytes() == b.tobytes()
            points[k] = a


@pytest.mark.parametrize("x", [np.zeros(4), np.zeros((3, 1)), np.zeros((1, 3)), np.float64(0.0)])
def test_an_iterate_of_the_wrong_shape_is_rejected(x):
    Z, good = np.array([[1.0, 2.0], [0.0, -1.0], [3.0, 0.5]]), np.array([0.5, -0.25, 1.0])
    for Z in (Z, sp.csr_matrix(Z)):
        sweep = pcd_sweep(Z, -1.0, BoxBounds(-1.0, 1.0), 0.1)
        want = pcd_sweep_reference(Z, -1.0, -1.0, 1.0, 0.1)(good)
        for _ in range(2):  # before the first sweep binds the call, then after it
            with pytest.raises(ValueError, match=r"x has shape .*expected \(3,\)"):
                sweep(x)
            assert sweep(good).tobytes() == want.tobytes()


@pytest.mark.parametrize("indices, indptr, why", [
    ([0, 3], [0, 1, 2], "indices must be < 3"),
    ([0, -1], [0, 1, 2], "indices must be >= 0"),
    ([0, 1], [0, 5, 2], "indptr must be a non-decreasing sequence"),
])
def test_an_invalid_csr_is_rejected_before_any_c_call(indices, indptr, why):
    # scipy builds each of these without complaint; C would read or write out of bounds
    Z = sp.csr_matrix((np.ones(2), np.array(indices), np.array(indptr)), shape=(2, 3))
    with pytest.raises(ValueError, match="Z is not a valid CSR matrix: " + why):
        pcd_sweep(Z, 0.0, BoxBounds(-1.0, 1.0), 0.5)


def chunked_dot(a: np.ndarray, b: np.ndarray, chunk: int) -> float:
    """numpy's dot of two vectors whose ddot calls take at most ``chunk`` entries each."""
    if a.size == 1:
        return a[0] * b[0]
    total = 0.0
    for start in range(0, a.size, chunk):
        total += float(a[start:start + chunk].dot(b[start:start + chunk]))
    return total


def test_a_dot_longer_than_a_chunk_sums_its_chunks_as_numpy_does(tmp_path, monkeypatch):
    # numpy hands ddot at most 2**30 entries a call; a 3-entry chunk runs the same loop on short rows
    monkeypatch.setattr(_kernels, "FLAGS", _kernels.FLAGS + ("-DDOT_CHUNK=3",))
    lib = _kernels.load(tmp_path)
    rng = np.random.default_rng(7)
    m, n = 7, 5  # chunks of 3, 3 and 1, and of 3 and 2
    Z, q, x0 = rng.standard_normal((m, n)), rng.standard_normal(m), rng.standard_normal(m)
    lower, upper = np.full(m, -0.5), np.full(m, 0.5)
    u0 = Z.T.dot(x0)
    x, u, out, readout = x0.copy(), u0.copy(), np.empty(m), np.empty(2)
    addresses = [_kernels.address(a) for a in (Z, q, lower, upper)]
    lib.aaopt_pcd_dense(m, n, *addresses, 0.25, *(_kernels.address(a) for a in (x, u, out, readout)))
    d = out - x0
    assert x.tobytes() == d.tobytes()
    assert readout[0] == math.sqrt(chunked_dot(d, d, 3))
    assert readout[1] == 0.5 * chunked_dot(u0, u0, 3) + chunked_dot(q, x0, 3)
    # the rows went through the same loop: u is Z.T of the swept iterate, up to rounding
    np.testing.assert_allclose(u, Z.T.dot(out), rtol=1e-12, atol=1e-12)


def test_a_csr_is_checked_without_changing_it():
    Z = sp.csr_matrix(np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]]))
    # int64 indices, and stored arrays longer than indptr uses: a full check casts and prunes
    Z.indices, Z.indptr = np.array([0, 2, 1, 0], dtype=np.int64), Z.indptr.astype(np.int64)
    Z.data = np.array([1.0, 2.0, 3.0, 9.0])
    held = (Z.data, Z.indices, Z.indptr)
    before = [a.tobytes() for a in held]
    want = pcd_sweep_reference(Z, 0.5, -1.0, 1.0, 0.25)(np.ones(2))
    assert pcd_sweep(Z, 0.5, BoxBounds(-1.0, 1.0), 0.25)(np.ones(2)).tobytes() == want.tobytes()
    assert all(a is b for a, b in zip((Z.data, Z.indices, Z.indptr), held))
    assert [a.tobytes() for a in held] == before


# ---------------------------------------------------------------------------
# the lasso map


@st.composite
def lasso_maps(draw):
    """A, y, lam, beta and x for ``pga_step``.

    Shapes of one row or one column come often: there numpy forms a product
    by ddot or daxpy instead of dgemv.  A CSR stores each row's entries in
    any order, a column more than once, and zeros of either sign.
    """
    size = st.one_of(st.just(1), st.integers(1, 6), st.integers(16, 40))  # BLAS unrolls by 16 and more
    m, n = draw(size), draw(size)
    if draw(st.booleans()):
        if draw(st.booleans()):  # values of every magnitude, whose sums round differently in each order
            rng = np.random.default_rng(draw(st.integers(0, 2**32)))
            values = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-3.0, 3.0, (m, n))
        else:
            values = np.array(draw(st.lists(VALUE, min_size=m * n, max_size=m * n))).reshape(m, n)
        keep = np.array(draw(st.lists(st.booleans(), min_size=m * n, max_size=m * n))).reshape(m, n)
        A = np.where(keep, values, 0.0)
    else:
        indptr, indices, data = [0], [], []
        for _ in range(m):
            row = draw(st.lists(st.tuples(st.integers(0, n - 1), VALUE), max_size=min(2 * n, 12)))
            indices += [j for j, _ in row]
            data += [v for _, v in row]
            indptr.append(len(indices))
        matrix = draw(st.sampled_from([sp.csr_matrix, sp.csr_array]))
        A = matrix((np.array(data, dtype=float), np.array(indices, dtype=np.int32), np.array(indptr)),
                   shape=(m, n))
    y = np.array(draw(st.lists(VALUE, min_size=m, max_size=m)))
    lam = draw(st.one_of(st.just(0.0), st.floats(0.0, 10.0), st.floats(0.0, 1e150)))
    beta = draw(st.floats(1e-6, 10.0))
    special = st.sampled_from([-0.0, math.nan, math.inf, -math.inf])
    x = np.array(draw(st.lists(st.one_of(VALUE, special), min_size=n, max_size=n)))
    return A, y, lam, beta, x


def outcome(step, x):
    """``step(x)``, or the message of the FloatingPointError it raised."""
    try:
        return step(x)
    except FloatingPointError as exc:
        return str(exc)


@settings(max_examples=500, deadline=None)
@given(case=lasso_maps())
@example(case=(np.array([[1e-200], [-1e-200], [3.0]]), np.zeros(3), 0.0, 1.0, np.array([1e-200])))
@example(case=(np.array([[math.inf], [2.0]]), np.zeros(2), 0.5, 1.0, np.array([-0.0])))
@example(case=(np.array([[2.0, -1e-200, 0.5]]), np.array([1.0]), 0.0, 0.5, np.array([1e-200, 3.0, -0.0])))
@example(case=(sp.csr_matrix((np.array([-0.0, 1.0, 2.0, 0.0]), np.array([2, 0, 2, 1]), np.array([0, 3, 4])),
                             shape=(2, 3)), np.array([1.0, -1.0]), 0.1, 0.5, np.array([-0.0, math.nan, 1.0])))
def test_compiled_lasso_map_is_bitwise_the_numpy_composition(case):
    A, y, lam, beta, x = case
    before = [a.tobytes() for a in (y, x)] + [A.data.tobytes() if sp.issparse(A) else A.tobytes()]
    got, want = pga_step(A, y, lam, beta), lasso_pga_reference(A, y, lam, beta)
    point = x
    for _ in range(3):  # chained, so each step starts from a point the last one produced
        a, b = outcome(got, point), outcome(want, point)
        if isinstance(b, str):
            assert a == b == "pga_step: gradient is non-finite"
            break
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        again = got(point)
        assert again.tobytes() == a.tobytes()
        assert not np.shares_memory(again, a) and not np.shares_memory(a, point)
        point = a
    assert [a.tobytes() for a in (y, x)] + [A.data.tobytes() if sp.issparse(A) else A.tobytes()] == before


@pytest.mark.parametrize("sparse", [False, True])
def test_a_lasso_map_with_one_row_or_column_is_bitwise_the_numpy_composition(sparse):
    # numpy forms a product whose matrix has one row by ddot, which sums in
    # another order than dgemv, and a product with a vector of length 1 by daxpy
    rng = np.random.default_rng(13)
    for k in range(2, 65):
        for shape in ((1, k), (k, 1)):
            A = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3.0, 3.0, shape)
            y, x = rng.standard_normal(shape[0]), rng.standard_normal(shape[1])
            A = sp.csr_matrix(A) if sparse else A
            got = pga_step(A, y, 0.0, 0.1)(x)
            assert got.tobytes() == lasso_pga_reference(A, y, 0.0, 0.1)(x).tobytes(), shape


def test_every_dense_layout_maps_as_the_c_layout():
    rng = np.random.default_rng(12)
    for _ in range(10):
        A = rng.standard_normal((7, 24)) * 10.0 ** rng.uniform(-3.0, 3.0, (7, 24))
        y, x = rng.standard_normal(7), rng.standard_normal(24)
        c = pga_step(A, y, 0.1, 1e-3)
        want = c(c(c(x))).tobytes()
        assert want == lasso_pga_reference(A, y, 0.1, 1e-3)(c(c(x))).tobytes()
        for layout in LAYOUTS:
            if not layout.startswith("csr"):
                got = pga_step(laid_out(A, A != 0.0, layout), y, 0.1, 1e-3)
                assert got(got(got(x))).tobytes() == want, layout


@pytest.mark.parametrize("sparse", [False, True])
def test_a_lasso_map_built_from_temporaries_keeps_its_buffers(sparse):
    rng = np.random.default_rng(8)
    A = rng.standard_normal((9, 40)) * (rng.random((9, 40)) < 0.6)
    x = rng.standard_normal(40)
    scaled = lambda: sp.csr_matrix(2.0 * A) if sparse else 2.0 * A
    # every array handed over is a temporary: the map alone keeps it alive
    step = pga_step(scaled(), np.linspace(-1.0, 1.0, 9), 0.05, 0.01)
    litter = litter_the_heap()
    want = lasso_pga_reference(scaled(), np.linspace(-1.0, 1.0, 9), 0.05, 0.01)
    assert step(x).tobytes() == want(x).tobytes()
    litter += litter_the_heap()  # the first step made the buffers it works in
    a, b = step(step(x)), want(want(x))
    assert a.tobytes() == b.tobytes()
    assert all(np.isnan(v).all() for v in litter)  # nor did it write into freed memory
    del litter


@pytest.mark.parametrize("sparse", [False, True])
def test_a_lasso_map_binds_its_call_at_the_first_step(monkeypatch, sparse):
    # binding when the map is made would put the buffers and ctypes conversions into every set-up
    binds = []
    real = _kernels.bound
    monkeypatch.setattr(_kernels, "bound", lambda *args: binds.append(args[0]) or real(*args))
    A = np.arange(12.0).reshape(3, 4)
    step = pga_step(sp.csr_matrix(A) if sparse else A, np.ones(3), 0.1, 0.01)
    assert binds == []
    want = lasso_pga_reference(A, np.ones(3), 0.1, 0.01)
    for x in (np.ones(4), np.zeros(4)):
        assert step(x).tobytes() == want(x).tobytes()
    assert binds == ["aaopt_pga_csr" if sparse else "aaopt_pga_dense"]


@pytest.mark.parametrize("args, why", [
    ((np.zeros((0, 3)), np.zeros(0)), r"A has shape \(0, 3\), with no rows or no columns"),
    ((sp.csr_matrix((2, 0)), np.zeros(2)), r"A has shape \(2, 0\), with no rows or no columns"),
    ((np.ones((2, 3)), np.zeros(3)), r"y has shape \(3,\), expected \(2,\)"),
    ((sp.csr_matrix((np.ones(2), np.array([0, 3]), np.array([0, 1, 2])), shape=(2, 3)), np.zeros(2)),
     "A is not a valid CSR matrix: indices must be < 3"),
])
def test_a_lasso_map_refuses_what_c_cannot_take(args, why):
    with pytest.raises(ValueError, match="^pga_step: " + why):
        pga_step(*args, 0.1, 1.0)


def test_a_dense_lasso_matrix_larger_than_blas_takes_is_rejected_before_any_copy(no_big_allocation):
    # scipy's dgemv takes C int sizes; a zero-stride A would be copied whole
    with pytest.raises(ValueError, match=r"^pga_step: A has shape \(2, 2147483648\), larger than BLAS takes"):
        pga_step(zeros_view((2, 2**31)), np.zeros(2), 0.1, 1.0)


def test_a_lasso_iterate_of_the_wrong_shape_is_rejected():
    A = np.array([[1.0, 2.0, 0.0], [0.0, -1.0, 3.0]])
    for A in (A, sp.csr_matrix(A)):
        step, want = pga_step(A, np.ones(2), 0.1, 0.2), lasso_pga_reference(A, np.ones(2), 0.1, 0.2)
        for _ in range(2):  # before the first step binds the call, then after it
            with pytest.raises(ValueError, match=r"^pga_step: x has shape \(2,\), expected \(3,\)"):
                step(np.zeros(2))
            assert step(np.ones(3)).tobytes() == want(np.ones(3)).tobytes()


# ---------------------------------------------------------------------------
# building, caching and loading the library


def cache_files(directory) -> list[str]:
    return sorted(p.name for p in directory.iterdir())


@pytest.fixture
def compiles(monkeypatch):
    """Counts the compiles that ``_kernels.load`` asks for."""
    calls = []
    real = _kernels.compile_library

    def counting(target):
        calls.append(target)
        real(target)

    monkeypatch.setattr(_kernels, "compile_library", counting)
    return calls


def test_a_cold_cache_compiles_once_and_a_warm_one_never(tmp_path, compiles, monkeypatch):
    lib = _kernels.load(tmp_path)
    assert len(compiles) == 1
    assert cache_files(tmp_path) == [_kernels.library_path(tmp_path).name]  # no temporary left
    assert callable(lib.aaopt_pcd_dense) and callable(lib.aaopt_pcd_csr)

    def no_compiler(target):
        raise AssertionError("compiled although %s is cached" % target)

    monkeypatch.setattr(_kernels, "compile_library", no_compiler)
    _kernels.load(tmp_path)
    assert cache_files(tmp_path) == [_kernels.library_path(tmp_path).name]


def test_a_changed_source_builds_a_new_file(tmp_path, compiles, monkeypatch):
    first = _kernels.library_path(tmp_path)
    _kernels.load(tmp_path)
    edited = tmp_path / "src" / "_kernels.c"
    edited.parent.mkdir()
    edited.write_text(_kernels.SOURCE.read_text(encoding="utf-8") + "/* edited */\n", encoding="utf-8")
    monkeypatch.setattr(_kernels, "SOURCE", edited)
    second = _kernels.library_path(tmp_path)
    assert second != first
    _kernels.load(tmp_path)
    assert compiles == [first, second]
    assert first.exists() and second.exists()


def test_concurrent_builds_leave_one_complete_library(tmp_path):
    errors = []

    def build():
        try:
            _kernels.load(tmp_path)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=build) for _ in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert cache_files(tmp_path) == [_kernels.library_path(tmp_path).name]


def test_a_missing_compiler_names_gcc_and_the_source(tmp_path, monkeypatch):
    monkeypatch.setenv("PATH", str(tmp_path / "no-bin"))
    with pytest.raises(OSError, match=r"gcc not found.*_kernels\.c"):
        _kernels.load(tmp_path / "cache")
    assert cache_files(tmp_path / "cache") == []


def test_a_failed_compile_names_gcc_and_the_source(tmp_path, monkeypatch):
    broken = tmp_path / "_kernels.c"
    broken.write_text("#error not C\n", encoding="utf-8")
    monkeypatch.setattr(_kernels, "SOURCE", broken)
    with pytest.raises(OSError, match=r"gcc failed to compile .*_kernels\.c"):
        _kernels.load(tmp_path / "cache")
    assert cache_files(tmp_path / "cache") == []


ALGORITHM = {"lasso": "ista", "nnls": "drs", "logreg": "irl1", "svm": "pcd"}


def run_without_a_compiler(tmp_path, monkeypatch, kind: str, aa: bool):
    """Run ``kind`` with a cold library cache and no gcc on PATH; return the
    outcome and how many times H was evaluated."""
    monkeypatch.setattr(_kernels, "CACHE_DIRS", (tmp_path / "cache",))
    monkeypatch.setattr(_kernels, "_loaded", None)
    monkeypatch.setenv("PATH", str(tmp_path / "no-bin"))
    evaluations = []
    build = harness.build_operator

    def counting(cfg):
        ctx = build(cfg)
        apply = ctx.op.apply
        ctx.op = replace(ctx.op, apply=lambda x: evaluations.append(1) or apply(x))
        return ctx

    monkeypatch.setattr(harness, "build_operator", counting)
    cfg = harness.config_from_mapping({"problem.kind": kind, "algorithm.kind": ALGORITHM[kind],
                                       "aa.enabled": str(aa).lower(), "aa.memory": "5", "run.max_iter": "20"})
    try:
        return harness.run_experiment(cfg)[1], len(evaluations)
    except OSError as exc:
        return exc, len(evaluations)


# a plain nnls run needs gcc for its DRS map, as the test below checks
@pytest.mark.parametrize("kind", ["logreg"])
def test_a_plain_run_of_nnls_or_logreg_needs_no_compiler(tmp_path, monkeypatch, kind):
    summary, evaluations = run_without_a_compiler(tmp_path, monkeypatch, kind, aa=False)
    assert isinstance(summary, dict), summary
    assert summary["iterations"] == 20 and evaluations == 21
    assert _kernels._loaded is None


@pytest.mark.parametrize("kind, aa", [("lasso", False), ("lasso", True), ("nnls", False), ("nnls", True),
                                      ("logreg", True), ("svm", False), ("svm", True)])
def test_a_run_that_needs_the_compiler_fails_before_evaluating_the_map(tmp_path, monkeypatch, kind, aa):
    error, evaluations = run_without_a_compiler(tmp_path, monkeypatch, kind, aa)
    assert isinstance(error, OSError) and re.search(r"gcc not found.*_kernels\.c", str(error)), error
    assert evaluations == 0


@pytest.fixture
def read_only(monkeypatch):
    """Directories where ``mkstemp`` is refused, as in a root-owned site-packages.

    The refusal is patched in: mode bits do not stop root, who may run the suite.
    """
    refused = []
    real = _kernels.tempfile.mkstemp

    def mkstemp(*args, dir=None, **kwargs):
        if dir is not None and Path(dir) in refused:
            raise PermissionError(13, "Permission denied", str(dir))
        return real(*args, dir=dir, **kwargs)

    monkeypatch.setattr(_kernels.tempfile, "mkstemp", mkstemp)
    monkeypatch.setattr(_kernels, "_loaded", None)
    return refused


def test_a_read_only_package_cache_falls_back_to_the_user_cache(tmp_path, monkeypatch, read_only):
    package, user = tmp_path / "package", tmp_path / "user"
    package.mkdir()
    read_only.append(package)
    monkeypatch.setattr(_kernels, "CACHE_DIRS", (package, user))
    lib = _kernels.library()
    assert callable(lib.aaopt_pcd_dense)
    assert cache_files(package) == []
    assert cache_files(user) == [_kernels.library_path(user).name]


def test_a_library_already_in_a_read_only_cache_is_loaded_from_it(tmp_path, monkeypatch, read_only):
    package, user = tmp_path / "package", tmp_path / "user"
    _kernels.load(package)  # built when the package was installed
    read_only.append(package)
    monkeypatch.setattr(_kernels, "CACHE_DIRS", (package, user))
    _kernels.library()
    assert not user.exists()


def test_no_writable_cache_names_every_directory_and_the_source(tmp_path, monkeypatch, read_only):
    package, user = tmp_path / "package", tmp_path / "user"
    for d in (package, user):
        d.mkdir()
        read_only.append(d)
    monkeypatch.setattr(_kernels, "CACHE_DIRS", (package, user))
    with pytest.raises(OSError) as info:  # the CLI reports an OSError
        _kernels.library()
    message = str(info.value)
    assert "_kernels.c" in message and str(package) in message and str(user) in message
    assert "Permission denied" in message
    assert _kernels._loaded is None


def test_svm_and_accelerated_runs_need_no_library_of_numpy(tmp_path):
    # numpy's own BLAS could only be reached by opening its _multiarray_umath
    # file, which ctypes refuses here; the kernels load scipy's instead
    code = "\n".join([
        "import ctypes",
        "real = ctypes.CDLL.__init__",
        "def refuse(self, name, *args, **kwargs):",
        "    if '_multiarray_umath' in str(name):",
        "        raise OSError('refused to open %s' % name)",
        "    real(self, name, *args, **kwargs)",
        "ctypes.CDLL.__init__ = refuse",
        "from aaopt.harness import config_from_mapping, run_experiment",
        "for kind, alg, aa in (('svm', 'pcd', 'false'), ('lasso', 'ista', 'true')):",
        "    cfg = config_from_mapping({'problem.kind': kind, 'algorithm.kind': alg, 'aa.enabled': aa,",
        "                               'aa.memory': '5', 'run.max_iter': '20'})",
        "    _, summary = run_experiment(cfg)",
        # weights of L1 norm above one come from a solve with two or more columns
        "    print(kind, summary['iterations'], summary['alpha_l1_max'] > 1.0)",
    ])
    src = str(Path(_kernels.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         cwd=tmp_path, env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["svm 20 False", "lasso 20 True"]


C_TYPES = {"void": None, "int": ctypes.c_int, "int64_t": ctypes.c_int64, "double": ctypes.c_double}


def c_type(declaration: str):
    """The ctypes type of a C parameter or return type; any pointer passes as c_void_p."""
    if "*" in declaration:
        return ctypes.c_void_p
    return C_TYPES[declaration.replace("const", "").split()[0]]


def test_the_declared_signatures_match_the_c_prototypes():
    # an argtypes list that disagrees with the C prototype corrupts memory silently
    source = _kernels.SOURCE.read_text(encoding="utf-8")
    found = {}
    for ret, name, params in re.findall(r"^(\w+)\s+(aaopt_\w+)\(([^)]*)\)", source, re.M):
        found[name] = ([c_type(p) for p in params.split(",")], c_type(ret))
    assert found == _kernels._SIGNATURES


def test_a_kernel_bound_to_the_wrong_count_of_arguments_is_refused():
    # without argtypes, ctypes would pass any count, and C would read past them
    with pytest.raises(ValueError, match="zip"):
        _kernels.bound("aaopt_pcd_dense", 1, 1, 0)


def test_the_source_compiles_clean_under_strict_warnings(tmp_path):
    # FLAGS itself stays without -Werror, so a newer gcc's new warning cannot stop a user's first build
    # -Wconversion catches an implicit narrowing to the C ints that BLAS and LAPACK take
    out = subprocess.run([_kernels.COMPILER, *_kernels.FLAGS, "-Wall", "-Wextra", "-Wconversion", "-Werror",
                          "-o", str(tmp_path / "kernels.so"), str(_kernels.SOURCE)],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr

"""Build, cache and load the compiled kernels in ``_kernels.c``.

The library is compiled by gcc on first use and cached under a name keyed
by a hash of the source and the compiler flags, so an edited source or
changed flags build a new file.  The cache is the first of ``CACHE_DIRS``
that can be written: the package's ``__pycache__``, else ``~/.cache/aaopt``
(for a package installed where its user cannot write).  Each build is
written under a temporary name and moved into place with ``os.replace``, so
concurrent processes never load a partial file.

The kernels are the coordinate sweep, the lasso proximal-gradient map and
the Anderson step around the evaluations of H: the weight solve with its
sum-to-one fix-up (a port of CPython's ``math.fsum``), the candidate, and the
safeguard with the push into the history, each reading and writing the
engine's state in place, to which ``anderson.init_state`` binds them once
when it builds the state.  The two maps also write, at every evaluation,
a readout of ||H(x) - x|| and the objective at x into a 2-entry array that
each map owns, from the products it forms anyway.  The sweep's row dots and
the residual norms call BLAS ``ddot``, the dense lasso map ``dgemv`` and
``ddot``, and the weight solve LAPACK ``dgelsd``, all taken from the
function pointers that scipy's documented Cython API
(``scipy.linalg.cython_blas`` and ``cython_lapack``) publishes in every
scipy build, whatever its BLAS.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

from scipy.linalg import cython_blas, cython_lapack

SOURCE = Path(__file__).with_name("_kernels.c")
# "~" is expanded when the first directory cannot be written, not at import
CACHE_DIRS = (Path(__file__).with_name("__pycache__"), Path("~/.cache/aaopt"))
COMPILER = "gcc"
FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")
# scipy's BLAS and LAPACK take their sizes as C ints
C_INT_MAX = 2**31 - 1

_i64, _f64, _ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
# both sweeps end with the arrays q, lower, upper, then beta, x, u, out, readout
_TAIL = [_ptr, _ptr, _ptr, _f64, _ptr, _ptr, _ptr, _ptr]
# both lasso maps end with y, beta, lam, then x, r, out, readout
_PGA_TAIL = [_ptr, _f64, _f64, _ptr, _ptr, _ptr, _ptr]
_SIGNATURES = {
    "aaopt_set_blas": ([_ptr, _ptr, _ptr], None),
    "aaopt_pcd_dense": ([_i64, _i64, _ptr] + _TAIL, None),
    "aaopt_pcd_csr": ([_i64, _i64, _ptr, _ptr, _ptr, _ptr] + _TAIL, None),
    "aaopt_pga_dense": ([_i64, _i64, _ptr] + _PGA_TAIL, _i64),
    "aaopt_pga_csr": ([_i64, _i64] + [_ptr] * 6 + _PGA_TAIL, _i64),
    "aaopt_fsum": ([_i64, _ptr, _ptr, _ptr], _i64),
    "aaopt_aa_weights": ([_ptr] * 4, _i64),
    "aaopt_aa_combine": ([_ptr] * 4, _f64),
    "aaopt_aa_push": ([_ptr] * 8 + [_i64], _i64),
}

_loaded: ctypes.CDLL | None = None


class CacheNotWritable(OSError):
    """The compiled library cannot be written into a cache directory."""


def library_path(cache_dir: Path) -> Path:
    """Where the library for the current source and flags is cached."""
    digest = hashlib.sha256(SOURCE.read_bytes())
    digest.update(" ".join((COMPILER,) + FLAGS).encode())
    return Path(cache_dir) / ("_kernels-%s.so" % digest.hexdigest()[:16])


def compile_library(target: Path) -> None:
    """Compile ``SOURCE`` to ``target`` through a temporary file in its directory."""
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=target.name + ".", suffix=".tmp", dir=target.parent)
    except OSError as exc:
        raise CacheNotWritable("cannot write the library compiled from %s into %s: %s"
                               % (SOURCE, target.parent, exc.strerror or exc)) from None
    os.close(fd)
    try:
        try:
            subprocess.run([COMPILER, *FLAGS, "-o", tmp, str(SOURCE)],
                           check=True, capture_output=True, text=True)
        except FileNotFoundError:
            raise OSError("%s not found: it is needed once to compile %s" % (COMPILER, SOURCE)) from None
        except subprocess.CalledProcessError as exc:
            raise OSError("%s failed to compile %s:\n%s" % (COMPILER, SOURCE, exc.stderr)) from None
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def address(a) -> int:
    """The address of an array's first element."""
    return a.__array_interface__["data"][0]


def load(cache_dir: Path) -> ctypes.CDLL:
    """The compiled kernels, built into ``cache_dir`` unless they are cached there."""
    path = library_path(cache_dir)
    if not path.exists():
        compile_library(path)
    lib = ctypes.CDLL(str(path))
    for name, (argtypes, restype) in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.argtypes, fn.restype = argtypes, restype
    # scipy's Cython API holds each routine's address in a capsule named by its C signature
    api, obj = ctypes.pythonapi, ctypes.py_object
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, obj)(("PyCapsule_GetName", api))
    get_pointer = ctypes.PYFUNCTYPE(_ptr, obj, ctypes.c_char_p)(("PyCapsule_GetPointer", api))
    blas = cython_blas.__pyx_capi__
    capsules = blas["ddot"], blas["dgemv"], cython_lapack.__pyx_capi__["dgelsd"]
    lib.aaopt_set_blas(*(get_pointer(c, get_name(c)) for c in capsules))
    return lib


def bound(name: str, *values) -> functools.partial:
    """The kernel ``name`` bound to ``values``, each converted once to its declared type.

    The returned call takes no argument and converts nothing: its function
    pointer has no ``argtypes``, and it passes the ctypes objects made here.
    Pointers are given as addresses; the caller keeps what they point at alive.
    """
    argtypes, restype = _SIGNATURES[name]
    fn = library()[name]  # a pointer of its own, so the one ``load`` typed keeps its argtypes
    fn.restype = restype
    return functools.partial(fn, *(t(v) for t, v in zip(argtypes, values, strict=True)))


def library() -> ctypes.CDLL:
    """``load()`` once per process, from the first of ``CACHE_DIRS`` that serves."""
    global _loaded
    if _loaded is None:
        failures = []
        for cache_dir in CACHE_DIRS:
            try:
                _loaded = load(Path(cache_dir).expanduser())
                break
            except CacheNotWritable as exc:
                failures.append(str(exc))
        else:
            raise CacheNotWritable("; ".join(failures))
    return _loaded

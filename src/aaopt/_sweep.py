"""Build, cache and load the compiled coordinate sweep in ``_sweep.c``.

The library is compiled by gcc on first use and cached under a name keyed
by a hash of the source and the compiler flags, so an edited source or
changed flags build a new file.  The cache is the first of ``CACHE_DIRS``
that can be written: the package's ``__pycache__``, else ``~/.cache/aaopt``
(for a package installed where its user cannot write).  Each build is
written under a temporary name and moved into place with ``os.replace``, so
concurrent processes never load a partial file.

The row dots call the cblas ``ddot`` that ``ndarray.dot`` reaches, taken
from numpy's own BLAS, so the compiled sweep sums exactly as numpy does.
That BLAS is the scipy-openblas64 of numpy's PyPI wheels (numpy >= 2.0); a
numpy built on another BLAS exports no ``DDOT_SYMBOL`` and cannot run it.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

SOURCE = Path(__file__).with_name("_sweep.c")
# "~" is expanded when the first directory cannot be written, not at import
CACHE_DIRS = (Path(__file__).with_name("__pycache__"), Path("~/.cache/aaopt"))
COMPILER = "gcc"
FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")
# numpy's BLAS is a 64-bit-int OpenBLAS with a scipy_ symbol prefix
DDOT_SYMBOL = "scipy_cblas_ddot64_"

_i64, _f64, _ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
# both sweeps end with q, lower, upper (each an array or NULL, then a scalar), beta, x, u
_TAIL = [_ptr, _f64, _ptr, _f64, _ptr, _f64, _f64, _ptr, _ptr]
_SIGNATURES = {
    "aaopt_set_ddot": ([_ptr], None),
    "aaopt_pcd_dense": ([_i64, _i64, _ptr, _i64, _i64] + _TAIL, None),
    "aaopt_pcd_csr": ([_i64, _ptr, _ptr, _ptr, _i64] + _TAIL, ctypes.c_int),
}

_loaded: ctypes.CDLL | None = None


class CacheNotWritable(OSError):
    """The compiled library cannot be written into a cache directory."""


def library_path(cache_dir: Path) -> Path:
    """Where the library for the current source and flags is cached."""
    digest = hashlib.sha256(SOURCE.read_bytes())
    digest.update(" ".join((COMPILER,) + FLAGS).encode())
    return Path(cache_dir) / ("_sweep-%s.so" % digest.hexdigest()[:16])


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


def _ddot_address() -> int:
    from numpy._core import _multiarray_umath  # numpy >= 2.0; only the sweep needs it

    blas = ctypes.CDLL(_multiarray_umath.__file__)
    try:
        return ctypes.cast(getattr(blas, DDOT_SYMBOL), ctypes.c_void_p).value
    except AttributeError:
        raise OSError("numpy's BLAS exports no %s, which %s calls for its row dots"
                      % (DDOT_SYMBOL, SOURCE.name)) from None


def load(cache_dir: Path) -> ctypes.CDLL:
    """The compiled sweep, built into ``cache_dir`` unless it is cached there."""
    path = library_path(cache_dir)
    if not path.exists():
        compile_library(path)
    lib = ctypes.CDLL(str(path))
    for name, (argtypes, restype) in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.argtypes, fn.restype = argtypes, restype
    lib.aaopt_set_ddot(_ddot_address())
    return lib


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

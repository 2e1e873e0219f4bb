"""The compiled kernels' tests, run against a build with AddressSanitizer and UBSan.

The kernels read and write numpy buffers through raw addresses, so an index
one past a buffer can pass every value test while it corrupts memory.  The
test below builds ``_kernels.c`` with the sanitizers into a temporary cache
directory and runs the engine's and the compiled maps' tests against that
build, in a subprocess with the sanitizer runtimes preloaded.  A report
ends that subprocess, and the test fails with it: ASan writes its report to
a log file, and UBSan to stderr, which the subprocess's pytest leaves to
the C code (``--capture=sys``).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from aaopt import _kernels

ROOT = Path(__file__).resolve().parents[1]
SANITIZE = ("-O1", "-g", "-fno-omit-frame-pointer", "-fsanitize=address,undefined",
            "-fno-sanitize-recover=undefined")
# Left out: the tests that build or look for libraries (their gcc would run
# with the runtimes preloaded), those that cap the address space (below the
# sanitizer's shadow memory), the rate fit (no kernel), and the largest
# properties against Python references ("compile" also matches the compiled
# sweep's and lasso map's), whose examples would take most of the time for
# little more of the kernels' code.
KERNEL_TESTS = [
    "tests/test_anderson.py", "tests/test_algorithms.py", "tests/test_sweep.py", "-k",
    "not (compile or builds or library or cache_falls_back or writable_cache or blas_takes"
    " or fit_linear_rate or fsum_is_math_fsum_bit_for_bit or irl1_step_matches)",
]
# the subprocess loads the sanitized build from the temporary cache, and never compiles
BOOT = """
import sys
from aaopt import _kernels
_kernels.FLAGS, _kernels.CACHE_DIRS = %r, (%r,)
import pytest
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", "--capture=sys", *%r]))
"""


def runtime(name: str) -> str | None:
    """The path of a gcc runtime library; gcc echoes the bare name when it has none."""
    out = subprocess.run([_kernels.COMPILER, "-print-file-name=" + name], capture_output=True, text=True)
    path = out.stdout.strip()
    return path if os.path.isabs(path) else None


def test_the_kernel_tests_pass_under_address_and_undefined_behaviour_sanitizers(tmp_path, monkeypatch):
    runtimes = [runtime("libasan.so"), runtime("libubsan.so")]
    if None in runtimes:
        pytest.skip("%s gives no path for libasan.so or libubsan.so, so the sanitized build cannot run"
                    % _kernels.COMPILER)
    flags = _kernels.FLAGS + SANITIZE
    monkeypatch.setattr(_kernels, "FLAGS", flags)
    _kernels.compile_library(_kernels.library_path(tmp_path))
    log = tmp_path / "sanitizer"
    # a quarantine of 64 MB, not 256, holds the run's memory near 300 MB
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "LD_PRELOAD": " ".join(runtimes),
           "ASAN_OPTIONS": "detect_leaks=0:quarantine_size_mb=64:log_path=%s" % log,
           "UBSAN_OPTIONS": "print_stacktrace=1"}
    out = subprocess.run([sys.executable, "-c", BOOT % (flags, str(tmp_path), KERNEL_TESTS)],
                         cwd=ROOT, env=env, capture_output=True, text=True)
    report = next((path.read_text() for path in sorted(tmp_path.glob("sanitizer.*"))), None)
    assert report is None, report[:4000]
    assert out.returncode == 0, out.stderr[:4000] + out.stdout[-4000:]

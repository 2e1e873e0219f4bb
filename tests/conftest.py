"""Fixtures shared by the test modules."""

from __future__ import annotations

import gc
import os
import resource
from pathlib import Path

import numpy as np
import pytest


@pytest.fixture
def no_big_allocation():
    """Caps this process's address space at 2 GiB above its size while the test runs.

    The size checks below are tested on zero-stride views that allocate nothing;
    should a check come after a copy, the copy fails at once instead of taking
    16 GiB of memory.
    """
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    size = os.sysconf("SC_PAGE_SIZE") * int(Path("/proc/self/statm").read_text().split()[0])
    resource.setrlimit(resource.RLIMIT_AS, (size + 2**31, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def zeros_view(shape: tuple[int, ...], dtype=float) -> np.ndarray:
    """A read-only array of zeros of any shape, all of it one stored element."""
    one = np.zeros(1, dtype=dtype)
    return np.lib.stride_tricks.as_strided(one, shape, (0,) * len(shape), writeable=False)


def litter_the_heap(sizes=(*range(1, 41), 360, 400)) -> list[np.ndarray]:
    """Frees what was collectable and fills the freed memory with NaN arrays.

    numpy keeps freed blocks of under 1 KiB for reuse by size, so every size up
    to a row of Z and an iterate is asked for, more times than it keeps.
    """
    gc.collect()
    return [np.full(size, np.nan) for size in sizes for _ in range(10)]

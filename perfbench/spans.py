"""Span tracing from outside the program.

``Tracer`` wraps functions of the aaopt modules by public name and records
one span per call: its name, start, end and the span that was open when it
started (its parent).  Spans live in compact in-memory arrays and are
written out once, at the end.  Self time is a span's duration minus the
durations of its direct children, so the self times of a tree add up to the
duration of its root.
"""

from __future__ import annotations

import sys
import time
from array import array
from typing import Callable

import numpy as np

NO_PARENT = -1


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.parent = array("q")
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _intern(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, fn: Callable, name: str, after: Callable | None = None) -> Callable:
        """Return ``fn`` recording a span named ``name`` around each call.

        ``after(args, result)`` runs outside the span's interval, so its cost
        lands in the parent's self time.
        """
        nid = self._intern(name)
        stack, parent, name_id, start, end = self._stack, self.parent, self.name_id, self.start, self.end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1] if stack else NO_PARENT)
            name_id.append(nid)
            start.append(clock())
            end.append(0.0)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def span(self, name: str) -> "_Span":
        return _Span(self, self._intern(name))

    # -- patching module functions ---------------------------------------

    def patch(self, module, attr: str, name: str, after: Callable | None = None) -> bool:
        """Wrap ``module.attr`` and rebind every aaopt module global bound to it.

        Modules import functions by name (``from .linalg import cg_solve_spd``),
        so the wrapper replaces each such binding.  A missing target is
        recorded in ``missing`` and skipped.
        """
        original = getattr(module, attr, None)
        if not callable(original):
            self.missing.append(name)
            return False
        traced = self.wrap(original, name, after)
        package = module.__name__.split(".")[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, key, value))
                    setattr(mod, key, traced)
        return True

    def unpatch(self) -> None:
        while self._patched:
            mod, key, value = self._patched.pop()
            setattr(mod, key, value)

    # -- analysis ------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        """Write every span as one structured .npy array plus the name table."""
        a = self.arrays()
        table = np.zeros(len(a["start"]), dtype=[("parent", "i8"), ("name_id", "i4"),
                                                  ("start", "f8"), ("end", "f8")])
        for key in table.dtype.names:
            table[key] = a[key]
        np.save(path, table)
        with open(path + ".names", "w", encoding="utf-8") as handle:
            handle.write("\n".join(self.names) + "\n")


class _Span:
    def __init__(self, tracer: Tracer, nid: int) -> None:
        self._t = tracer
        self._nid = nid

    def __enter__(self) -> "_Span":
        t = self._t
        self._sid = len(t.start)
        t.parent.append(t._stack[-1] if t._stack else NO_PARENT)
        t.name_id.append(self._nid)
        t.start.append(time.perf_counter())
        t.end.append(0.0)
        t._stack.append(self._sid)
        return self

    def __exit__(self, *exc) -> None:
        t = self._t
        t.end[self._sid] = time.perf_counter()
        t._stack.pop()


class SpanTree:
    """Per-name totals, self times and counts over a finished set of spans."""

    def __init__(self, tracer: Tracer) -> None:
        a = tracer.arrays()
        self.names = tracer.names
        self.parent = a["parent"]
        self.name_id = a["name_id"]
        self.duration = a["end"] - a["start"]
        has_parent = self.parent >= 0
        child_time = np.bincount(self.parent[has_parent], weights=self.duration[has_parent],
                                 minlength=len(self.duration))
        self.self_time = self.duration - child_time

    def _mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.duration), dtype=bool)
        return self.name_id == self.names.index(name)

    def calls(self, name: str) -> int:
        return int(self._mask(name).sum())

    def total(self, name: str) -> float:
        return float(self.duration[self._mask(name)].sum())

    def self_total(self, name: str) -> float:
        return float(self.self_time[self._mask(name)].sum())

    def total_under(self, name: str, ancestors: tuple[str, ...]) -> float:
        """Duration of ``name`` spans that have an ancestor among ``ancestors``."""
        ids = [self.names.index(a) for a in ancestors if a in self.names]
        mask = self._mask(name)
        if not ids or not mask.any():
            return 0.0
        node = self.parent[mask]
        hit = np.zeros(node.shape[0], dtype=bool)
        while np.any(node >= 0):
            live = node >= 0
            hit[live] |= np.isin(self.name_id[node[live]], ids)
            node = np.where(live, self.parent[np.maximum(node, 0)], -1)
        return float(self.duration[mask][hit].sum())

"""In-memory span tracing and name patching for the qbutterfly benchmark.

The benchmark measures the program from outside: it replaces functions and
methods of the imported modules with wrappers and puts the originals back
afterwards. A module that did ``from .iedtc import run_round`` holds its own
reference, so a function is replaced in every module that looks it up by
name; a method is replaced once, on its class.
"""
from __future__ import annotations

import functools
import time
from array import array

import numpy as np


class Patcher:
    """Replaces attributes and restores the originals, last patch first."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner: object, attr: str, make) -> None:
        """Set ``owner.attr`` to ``make(original)``; raises if it is missing."""
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


class Tracer:
    """Records one span (name, start, end, parent) per wrapped call.

    Spans live in flat arrays so that a long traced run stays small; the
    parent of a span is the span that was open when it started (-1 at top
    level). A span's self time is its duration minus its children's.
    """

    def __init__(self, names: list[str]) -> None:
        self.names = list(names)
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._name = array("H")
        self._open = [-1]

    def wrapper(self, name: str):
        """A function turning a callable into one that records a span."""
        name_id = self.names.index(name)
        start, end, parent, names, open_ = self._start, self._end, self._parent, self._name, self._open
        clock = time.perf_counter

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                idx = len(start)
                parent.append(open_[-1])
                names.append(name_id)
                end.append(0.0)
                open_.append(idx)
                t0 = clock()
                start.append(t0)
                try:
                    return fn(*args, **kwargs)
                finally:
                    end[idx] = clock()
                    open_.pop()
            return traced
        return make

    def install(self, patcher: Patcher, targets: dict[str, list[tuple[object, str]]]) -> list[str]:
        """Wrap every (owner, attribute) of each span name; returns the missing ones."""
        missing = []
        for name, places in targets.items():
            for owner, attr in places:
                try:
                    patcher.wrap(owner, attr, self.wrapper(name))
                except AttributeError:
                    missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return missing

    @property
    def span_count(self) -> int:
        return len(self._start)

    def summary(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self seconds)."""
        dur = np.frombuffer(self._end, dtype=np.float64) - np.frombuffer(self._start, dtype=np.float64)
        parent = np.frombuffer(self._parent, dtype=np.int64)
        name = np.frombuffer(self._name, dtype=np.uint16)
        covered = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(covered, parent[nested], dur[nested])
        self_time = np.bincount(name, weights=dur - covered, minlength=len(self.names))
        calls = np.bincount(name, minlength=len(self.names))
        return {n: (int(calls[i]), float(self_time[i])) for i, n in enumerate(self.names)}


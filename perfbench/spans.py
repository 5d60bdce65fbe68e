"""Span recording and method wrapping for the traced benchmark run.

A :class:`SpanRecorder` keeps every span in memory as
``(name, start, end, parent)``; parents come from a call stack, so
nesting follows the real call structure of the single-threaded
coordinator.  :class:`Patcher` installs timing wrappers on classes and
module attributes and takes every one of them off again on exit.

Wrappers record only in the process that created the recorder: forked
engine workers inherit them but pass straight through, so worker-side
spans are never collected (and never slow the workers down).
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

_MISSING = object()


class SpanRecorder:
    """In-memory span log with a parent stack."""

    def __init__(self):
        self.pid = os.getpid()
        #: Parallel lists, one entry per span, in start order.
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        #: Free-form per-name counters filled by wrapper hooks.
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def enter(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def exit(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def dump(self) -> dict:
        """Compact serialisable form: a name table plus span rows."""
        table = sorted(set(self.names))
        code = {name: i for i, name in enumerate(table)}
        t0 = self.starts[0] if self.starts else 0.0
        rows = [
            [code[n], round(s - t0, 9), round(e - t0, 9), p]
            for n, s, e, p in zip(self.names, self.starts, self.ends,
                                  self.parents)
        ]
        return {"names": table, "columns": ["name", "start", "end", "parent"],
                "spans": rows}


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children of one span are merged as intervals first, so overlapping
    children (possible for spans recorded by different threads) are not
    subtracted twice.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for idx, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(idx)
    out = []
    for idx in range(len(starts)):
        lo, hi = starts[idx], ends[idx]
        covered = 0.0
        cur_lo = cur_hi = None
        for child in sorted(children.get(idx, ()), key=lambda c: starts[c]):
            c_lo, c_hi = max(starts[child], lo), min(ends[child], hi)
            if c_hi <= c_lo:
                continue
            if cur_hi is None or c_lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = c_lo, c_hi
            else:
                cur_hi = max(cur_hi, c_hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((hi - lo) - covered)
    return out


def group_stats(rec: SpanRecorder, names) -> tuple[int, float]:
    """(calls, inclusive seconds) of the spans named in ``names``.

    A span nested inside another span of the same group counts neither
    as a call nor as time, so a wrapped method that calls another
    wrapped method of its group (``feed_others_raw`` -> ``catch_up``)
    is counted once.
    """
    names = set(names)
    calls = 0
    total = 0.0
    for idx, name in enumerate(rec.names):
        if name not in names:
            continue
        parent = rec.parents[idx]
        while parent >= 0 and rec.names[parent] not in names:
            parent = rec.parents[parent]
        if parent >= 0:
            continue
        calls += 1
        total += rec.ends[idx] - rec.starts[idx]
    return calls, total


def group_self(rec: SpanRecorder, names, selfs) -> float:
    """Summed self time of the spans named in ``names``."""
    names = set(names)
    return sum(t for n, t in zip(rec.names, selfs) if n in names)


def top_level_seconds(rec: SpanRecorder) -> float:
    """Summed duration of the spans that have no parent."""
    return sum(
        rec.ends[i] - rec.starts[i]
        for i, parent in enumerate(rec.parents) if parent < 0
    )


def timed(rec: SpanRecorder, name: str, fn, hook=None):
    """Wrap ``fn`` so each call in the recording process is one span.

    ``hook(rec, args, kwargs, result)`` runs after the call (outside
    the span) to update counters from the arguments or the result.
    """
    def wrapper(*args, **kwargs):
        if os.getpid() != rec.pid:
            return fn(*args, **kwargs)
        idx = rec.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit(idx)
        if hook is not None:
            hook(rec, args, kwargs, result)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


def timed_generator(rec: SpanRecorder, name: str, fn):
    """Wrap a generator function so each ``next()`` is one span."""
    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        if os.getpid() != rec.pid:
            return gen
        return _TimedIter(rec, name, gen)

    wrapper.__wrapped__ = fn
    return wrapper


class _TimedIter:
    def __init__(self, rec, name, gen):
        self._rec, self._name, self._gen = rec, name, gen

    def __iter__(self):
        return self

    def __next__(self):
        idx = self._rec.enter(self._name)
        try:
            return next(self._gen)
        finally:
            self._rec.exit(idx)


class Patcher:
    """Installs attribute replacements and restores the originals.

    Use as a context manager; every replacement made through
    :meth:`method` or :meth:`attribute` is undone on exit, including on
    error paths.
    """

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def attribute(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def method(self, rec: SpanRecorder, cls, attr: str, name: str,
               hook=None) -> None:
        """Time ``cls.attr`` (looked up through the MRO) as span ``name``."""
        self.attribute(cls, attr, timed(rec, name, getattr(cls, attr), hook))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

"""Chunk sources: picklable stream *descriptions* with local materializers.

A :class:`ChunkSource` separates **describing** a stream from
**materializing** it.  The description — :meth:`ChunkSource.spec` — is a
small picklable dict (a generator name + parameters + seed + chunk
geometry, or a :class:`~repro.streams.store.ColumnarStreamStore` path +
row range); :meth:`ChunkSource.chunks` turns that description into the
actual :class:`~repro.streams.model.StreamChunk` sequence wherever the
spec happens to be.

That split is what lets the process engine ship *specs instead of
bytes*: the coordinator broadcasts the spec once at session start, every
worker rebuilds the source locally via :func:`source_from_spec`, and the
per-chunk coordinator traffic shrinks from megabytes of staged arrays to
a bare advance command.  Generator-backed sources regenerate chunks from
the same seed through the same chunked generator — NumPy draws are
bit-for-bit identical whether drawn monolithically or chunk by chunk, so
every worker sees exactly the stream the coordinator would have staged.
Store-backed sources memmap their *own* read-only view of the column
files post-fork and slice rows directly (zero-copy, page-cache shared).

Sequentiality contract: :meth:`chunks` materializes the stream **in
order** — generator state advances chunk by chunk, so there is no random
access.  The switching protocol drives chunks strictly in order, and
boundary/bisect replay works positionally *within* the current chunk, so
sequential materialization is all the engines need.
:meth:`chunk_lengths` states the chunk geometry up front without
materializing anything, which is how the coordinator drives workers
through a spec-shipped session while holding no stream data at all.
"""

from __future__ import annotations

import pathlib
from abc import ABC, abstractmethod
from collections.abc import Iterator

import numpy as np

from repro.streams.generators import CHUNKED_GENERATORS, SEEDLESS_CHUNKED
from repro.streams.model import StreamChunk
from repro.streams.store import DEFAULT_CHUNK_SIZE, ColumnarStreamStore

__all__ = [
    "ChunkSource",
    "GeneratorChunkSource",
    "StoreChunkSource",
    "source_from_spec",
    "as_chunk_source",
]


class ChunkSource(ABC):
    """A stream described by a picklable spec plus a local materializer."""

    #: Total number of updates the source yields.
    total: int
    #: Materialization granularity (last chunk may be shorter).
    chunk_size: int

    @abstractmethod
    def spec(self) -> dict:
        """The picklable description; ``source_from_spec`` round-trips it."""

    @abstractmethod
    def chunks(self) -> Iterator[StreamChunk]:
        """Materialize the stream, strictly in order."""

    def chunk_lengths(self) -> list[int]:
        """Per-chunk lengths, computed without materializing anything."""
        sizes = []
        remaining = self.total
        while remaining > 0:
            take = min(self.chunk_size, remaining)
            sizes.append(take)
            remaining -= take
        return sizes

    def __len__(self) -> int:
        return self.total


def _check_geometry(m: int, chunk_size: int) -> None:
    if m < 0:
        raise ValueError(f"stream length must be >= 0, got {m}")
    if chunk_size < 1:
        raise ValueError(f"chunk size must be >= 1, got {chunk_size}")


class GeneratorChunkSource(ChunkSource):
    """A synthetic stream described by (generator name, params, seed).

    ``name`` selects a chunked generator from
    :data:`repro.streams.generators.CHUNKED_GENERATORS`.  Seeded
    generators rebuild their RNG as ``np.random.default_rng(seed)`` on
    every :meth:`chunks` call, so materialization is repeatable and
    identical on every worker that holds the spec.
    """

    def __init__(
        self,
        name: str,
        n: int,
        m: int,
        seed: int | None = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        **params,
    ):
        if name not in CHUNKED_GENERATORS:
            known = ", ".join(sorted(CHUNKED_GENERATORS))
            raise ValueError(f"unknown chunked generator {name!r} (have: {known})")
        _check_geometry(m, chunk_size)
        if name in SEEDLESS_CHUNKED:
            if seed is not None:
                raise ValueError(f"generator {name!r} is deterministic; seed must be None")
        elif seed is None:
            raise ValueError(f"generator {name!r} needs a seed to be spec-shippable")
        self.name = name
        self.n = int(n)
        self.total = int(m)
        self.seed = seed
        self.chunk_size = int(chunk_size)
        self.params = dict(params)

    def spec(self) -> dict:
        return {
            "kind": "generator",
            "name": self.name,
            "n": self.n,
            "m": self.total,
            "seed": self.seed,
            "chunk_size": self.chunk_size,
            "params": dict(self.params),
        }

    def chunks(self) -> Iterator[StreamChunk]:
        fn = CHUNKED_GENERATORS[self.name]
        if self.name in SEEDLESS_CHUNKED:
            return fn(self.n, self.total, chunk_size=self.chunk_size, **self.params)
        rng = np.random.default_rng(self.seed)
        return fn(self.n, self.total, rng, chunk_size=self.chunk_size, **self.params)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"GeneratorChunkSource({self.name!r}, n={self.n}, m={self.total}, "
            f"seed={self.seed}, chunk_size={self.chunk_size})"
        )


class StoreChunkSource(ChunkSource):
    """A row range of an on-disk columnar store, materialized by memmap.

    The spec carries only the path and row range; every consumer —
    including each forked worker — opens its **own**
    :class:`ColumnarStreamStore` and memmaps its own read-only view, so
    no file handles cross the fork boundary and chunk views stay
    zero-copy (the OS shares the pages).
    """

    def __init__(
        self,
        path,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        start: int = 0,
        stop: int | None = None,
    ):
        store = ColumnarStreamStore(path)
        if stop is None:
            stop = store.updates
        if not 0 <= start <= stop <= store.updates:
            raise ValueError(
                f"row range [{start}, {stop}) out of bounds for "
                f"{store.updates} updates"
            )
        _check_geometry(stop - start, chunk_size)
        self.path = pathlib.Path(path)
        self.start = int(start)
        self.stop = int(stop)
        self.total = self.stop - self.start
        self.chunk_size = int(chunk_size)

    def spec(self) -> dict:
        return {
            "kind": "store",
            "path": str(self.path),
            "chunk_size": self.chunk_size,
            "start": self.start,
            "stop": self.stop,
        }

    def chunks(self) -> Iterator[StreamChunk]:
        store = ColumnarStreamStore(self.path)
        items = store.items
        deltas = store.deltas
        for lo in range(self.start, self.stop, self.chunk_size):
            hi = min(lo + self.chunk_size, self.stop)
            yield StreamChunk(
                items[lo:hi],
                store._unit_run(hi - lo) if deltas is None else deltas[lo:hi],
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"StoreChunkSource({str(self.path)!r}, rows=[{self.start}, "
            f"{self.stop}), chunk_size={self.chunk_size})"
        )


def source_from_spec(spec: dict) -> ChunkSource:
    """Rebuild a :class:`ChunkSource` from its picklable spec.

    This is the worker-side entry point: the process engine broadcasts
    ``source.spec()`` once per session and each worker materializes
    through the source this returns.
    """
    kind = spec.get("kind")
    if kind == "generator":
        return GeneratorChunkSource(
            spec["name"],
            n=spec["n"],
            m=spec["m"],
            seed=spec["seed"],
            chunk_size=spec["chunk_size"],
            **spec.get("params", {}),
        )
    if kind == "store":
        return StoreChunkSource(
            spec["path"],
            chunk_size=spec["chunk_size"],
            start=spec["start"],
            stop=spec["stop"],
        )
    raise ValueError(f"unknown chunk-source spec kind {kind!r}")


def as_chunk_source(obj, chunk_size: int = DEFAULT_CHUNK_SIZE):
    """Coerce ``obj`` to a :class:`ChunkSource`, or return ``None``.

    Accepts a :class:`ChunkSource` (returned as-is), a
    :class:`ColumnarStreamStore` or a store path (wrapped in a
    :class:`StoreChunkSource`).  Anything else — ad-hoc iterables,
    materialized arrays — returns ``None``: those streams have no
    picklable description, so the planner ships bytes instead and
    surfaces the reason in the ingest report.
    """
    if isinstance(obj, ChunkSource):
        return obj
    if isinstance(obj, ColumnarStreamStore):
        return StoreChunkSource(obj.path, chunk_size=chunk_size)
    if isinstance(obj, (str, pathlib.Path)):
        try:
            return StoreChunkSource(obj, chunk_size=chunk_size)
        except (OSError, ValueError):
            return None
    return None

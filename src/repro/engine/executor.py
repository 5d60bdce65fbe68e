"""Execution engines: serial and process-pool drivers for shard plans.

The paper's robustness frameworks multiply work — sketch switching runs
``Theta(eps^-1 log eps^-1)`` independent copies of a static sketch — and
that work is embarrassingly parallel per copy.  This module executes the
plans of :mod:`repro.engine.shards` two ways:

* :class:`SerialEngine` — everything on the calling process, but with the
  plan's shared-work hoists applied: the chunk is deduped/aggregated
  *once* and the result fanned out to every copy, instead of every copy
  re-deduping the same chunk.  This is also the deterministic fallback
  when process parallelism is unavailable.
* :class:`ProcessEngine` — copies (or merge partials) live in forked
  worker processes; chunks travel through shared-memory buffers (one
  ``memcpy`` in, zero copies out), and only tiny protocol messages cross
  the command pipes.  Each switching worker wraps its contiguous shard
  of the copies in a :meth:`~repro.core.copies.CopyManager.shard` —
  stacked copy groups included — and hosts the same
  :class:`~repro.core.copies.LocalCopyBackend` the serial paths run;
  the coordinator's :class:`_ProcessCopyBackend` only forwards backend
  calls and merges the replies.  Requires the ``fork`` start method (the
  workers inherit sketch state and factories by address space, not
  pickling); anywhere ``fork`` is unavailable the engine degrades to the
  serial path, bit-for-bit.

Both engines drive the **same**
:class:`~repro.core.sketch_switching.SwitchingProtocol` that serial
chunked ingestion (``update_chunk``) uses — the coordinator asks the
estimator's :class:`~repro.core.bands.BandPolicy` whether the boundary
estimate ``band.crossed(...)`` the publish band, and the protocol
resolves crossings by snapshot bisection of the active copy — per-item
exact for bisectable bands, cell-granularity coalescing for the
additive band (see :mod:`repro.core.bands`).  The engines differ from
``update_chunk`` only in *where the copies live* (a
:class:`~repro.core.copies.LocalCopyBackend` in process, or one per
forked worker) and in the shard plan's shared-work hoists; published
outputs, switch counts, and restart RNG draws agree across serial
chunked, SerialEngine, and ProcessEngine by construction — one drive
loop, one band implementation, one copy backend, one coordinator-side
replacement-RNG derivation.  This
covers every band policy: multiplicative (F0/Fp/L2), additive (entropy,
previously stuck on the serial path), and the heavy-hitters epoch
construction (:class:`EpochShardPlan`: the inner L2 switcher is driven
through the switching protocol while the CountSketch ring fans out as a
uniform feed with the epoch clock on the coordinator).

Bit-for-bit caveats are inherited from the chunked pipeline, not added
by the engines: exact-state sketches reproduce the per-item protocol
exactly; float accumulators match up to summation order; non-monotone
trackers (entropy) coalesce a transient band exit that fully reverts
within one clean chunk — the same oblivious-replay semantics the serial
``update_chunk`` documents.

The adversarial game is untouched: it stays per item, per update, on one
process — adaptivity requires round granularity.  Engines are an
**oblivious replay** surface, like the rest of the batched pipeline.
"""

from __future__ import annotations

import abc
import multiprocessing as mp
import os
import time
import traceback
from multiprocessing import shared_memory

import numpy as np

from repro.core.copies import CopyManager, LocalCopyBackend
from repro.obs import (
    NULL_TELEMETRY,
    MaterializeFaultEvent,
    PhasesEvent,
    SpecBroadcastEvent,
    WorkerTelemetry,
)
from repro.core.sketch_switching import REPLAY_LEAF, SwitchingProtocol
from repro.engine.shards import (
    EpochShardPlan,
    MergeShardPlan,
    SwitchingShardPlan,
    partition_copies,
    plan_shards,
    source_mode_for,
)
from repro.sketches.base import Sketch, aggregate_batch, as_batch_arrays
from repro.streams.sources import source_from_spec

#: Default shared-buffer capacity in updates; chunks larger than this are
#: split (each split gets its own boundary band check, so keep ingestion
#: chunk sizes at or below it for bit-for-bit serial equivalence).
DEFAULT_CHUNK_CAPACITY = 1 << 20


class EngineError(RuntimeError):
    """A worker process failed; the session is no longer usable."""


# ----------------------------------------------------------------------
# Process backend: where sharded copies live and how they are fed
# ----------------------------------------------------------------------


#: Backend methods whose result a worker sends back.  Every other
#: forwarded call is fire-and-forget; ``probe_sub`` replies through the
#: ``"sub"`` staging message that carries it.
_REPLIES = frozenset(
    {"probe_raw", "feed_probed", "step_probed", "scan_probed", "fetch"}
)


def _switching_worker(conn, copies: CopyManager, indices, views,
                      unique_hint: bool, worker_id: int = 0,
                      trace: bool = False) -> None:
    """Forked worker: hosts a LocalCopyBackend over its shard of copies.

    ``copies`` is the coordinator's manager, inherited through fork; the
    worker wraps the contiguous ``indices`` it owns in a shard manager
    (:meth:`CopyManager.shard`, which stacks every group keeping at
    least two copies in the shard) and runs the same
    :class:`~repro.core.copies.LocalCopyBackend` the serial paths run.
    Copy indices in every message are shard-local; the coordinator's
    proxy translates them.  ``views`` maps region name -> (items,
    deltas) NumPy views over the shared-memory buffers.

    Messages arrive in order per pipe, which is the only ordering the
    protocol relies on.  A forwarded backend call is ``(method, args)``
    and is answered only for the methods in :data:`_REPLIES`.  The
    control messages are:

    * ``("raw", count, ack)`` — stage ``raw[:count]``; with ``ack`` the
      reply is the coordinator's fence before it rewrites the buffer;
    * ``("sub", count, unit, assume_unique, probes)`` — stage
      ``sub[:count]`` (deltas all 1 when ``unit``) through ``stage_sub``,
      or through ``probe_sub`` with a reply when ``probes`` is given;
    * ``("source", spec)`` / ``("adv", count)`` — build the chunk-source
      materializer, then stage its next chunk;
    * ``("span", id)`` / ``("obs",)`` — telemetry tags and drain;
    * ``("collect",)`` / ``("stop",)``.

    Telemetry: the wall seconds of every call in
    :attr:`~repro.obs.WorkerTelemetry.PHASE_OF` accumulate into a
    :class:`~repro.obs.WorkerTelemetry` buffer (feeding
    ``IngestReport.phase_seconds``'s ``worker_*`` keys); with ``trace``
    on, the calls between two ``span`` tags become one ``worker-chunk``
    span.  Everything ships back in the ``("obs",)`` reply at collect
    time — workers never write to the coordinator's sinks (a forked
    ``Telemetry`` may hold an open file).
    """
    obs = WorkerTelemetry(worker_id, trace)
    # Spec-shipped sessions: the materializer iterator built from the
    # broadcast spec; each ("adv", count) pulls the next chunk locally.
    chunk_iter = None
    try:
        shard = copies.shard(indices)
        backend = LocalCopyBackend(shard, unique_hint)
        while True:
            msg = conn.recv()
            op = msg[0]
            tick = time.perf_counter()
            if op == "raw":
                _, count, ack = msg
                items, deltas = views["raw"]
                backend.stage(items[:count], deltas[:count])
                if ack:
                    conn.send(("ok", None))
            elif op == "sub":
                _, count, unit, assume_unique, probes = msg
                items, deltas = views["sub"]
                items = items[:count]
                deltas = None if unit else deltas[:count]
                if probes is None:
                    backend.stage_sub(items, deltas, assume_unique)
                else:
                    op = "probe_sub"
                    conn.send(("ok", backend.probe_sub(
                        items, deltas, assume_unique, probes)))
            elif op == "adv":
                chunk = next(chunk_iter)
                if len(chunk.items) != msg[1]:
                    raise RuntimeError(
                        f"chunk source yielded {len(chunk.items)} updates, "
                        f"coordinator expected {msg[1]}"
                    )
                backend.stage(chunk.items, chunk.deltas)
            elif op == "source":
                chunk_iter = source_from_spec(msg[1]).chunks()
            elif op == "span":
                obs.begin_span(msg[1])
            elif op == "obs":
                conn.send(("ok", obs.drain()))
            elif op == "collect":
                conn.send(("ok", shard.sketches))
            elif op == "stop":
                break
            else:
                out = getattr(backend, op)(*msg[1])
                if op in _REPLIES:
                    conn.send(("ok", out))
            if op in WorkerTelemetry.PHASE_OF:
                obs.op(op, time.perf_counter() - tick)
    except (EOFError, KeyboardInterrupt):  # coordinator went away
        pass
    except Exception:  # surface the traceback instead of hanging the pipe
        try:
            conn.send(("error", traceback.format_exc()))
        except (OSError, ValueError):
            pass
    finally:
        conn.close()


def _send(conn, msg) -> None:
    """Send a command, surfacing a dead worker's queued traceback.

    A worker that fails during a fire-and-forget command sends
    ``("error", traceback)`` and closes its pipe end; the coordinator
    only notices at its *next* send.  Drain that queued error into an
    :class:`EngineError` instead of leaking a bare ``BrokenPipeError``.
    """
    try:
        conn.send(msg)
    except (BrokenPipeError, OSError) as exc:
        detail = ""
        try:
            while conn.poll(0):
                kind, payload = conn.recv()
                if kind == "error":
                    detail = f":\n{payload}"
        except (EOFError, OSError):
            pass
        raise EngineError(f"engine worker died{detail}") from exc


def _recv_checked(conn):
    """Receive a reply, converting worker errors/deaths to EngineError."""
    try:
        kind, payload = conn.recv()
    except EOFError as exc:
        raise EngineError("engine worker died without a reply") from exc
    if kind == "error":
        raise EngineError(f"engine worker failed:\n{payload}")
    return payload


class _SharedBuffers:
    """Shared-memory chunk regions: raw stream arrays + preprocessed feed."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        nbytes = capacity * 8
        self._blocks = {
            name: shared_memory.SharedMemory(create=True, size=nbytes)
            for name in ("raw_i", "raw_d", "sub_i", "sub_d")
        }
        arr = {
            name: np.ndarray(capacity, dtype=np.int64, buffer=block.buf)
            for name, block in self._blocks.items()
        }
        self.views = {
            "raw": (arr["raw_i"], arr["raw_d"]),
            "sub": (arr["sub_i"], arr["sub_d"]),
        }

    def write(self, region: str, items, deltas) -> int:
        dst_i, dst_d = self.views[region]
        count = len(items)
        dst_i[:count] = items
        if deltas is not None:
            dst_d[:count] = deltas
        return count

    def close(self, unlink: bool) -> None:
        self.views = {}
        for block in self._blocks.values():
            block.close()
            if unlink:
                try:
                    block.unlink()
                except FileNotFoundError:  # pragma: no cover
                    pass
        self._blocks = {}


def _run_worker(inherited, target, conn, *args) -> None:
    # Drop the copies of the coordinator's pipe ends this child inherited
    # through fork, so the coordinator closing them really hangs up.
    for end in inherited:
        end.close()
    target(conn, *args)


def _start_worker(conns: list, procs: list, target, *args) -> None:
    """Fork ``target(conn, *args)`` on a fresh pipe; append its
    coordinator end and process to ``conns`` / ``procs``."""
    ctx = mp.get_context("fork")
    parent, child = ctx.Pipe()
    proc = ctx.Process(
        target=_run_worker, args=(conns + [parent], target, child, *args),
        daemon=True,
    )
    proc.start()
    child.close()
    conns.append(parent)
    procs.append(proc)


def _stop_workers(conns, procs) -> None:
    """Stop forked workers and close their pipes; safe on dead workers.

    The pipes close before the joins, so a worker blocked sending a
    reply nobody will read fails out instead of hanging its join.
    """
    for conn in conns:
        try:
            conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
    for conn in conns:
        conn.close()
    for proc in procs:
        proc.join(timeout=10)
        if proc.is_alive():  # pragma: no cover - hung worker
            proc.terminate()
            proc.join(timeout=5)


class _ProcessCopyBackend:
    """Copies of one :class:`CopyManager` sharded across forked workers.

    A proxy: each worker hosts a
    :class:`~repro.core.copies.LocalCopyBackend` over its contiguous
    shard (:meth:`CopyManager.shard`, stacked wherever a group keeps at
    least two copies in it), and every method here forwards the call to
    the workers owning the copies it names — global copy indices
    translated to shard-local ones — then merges the per-worker
    ``ndarray`` replies back by position.  Chunks reach the workers
    through shared-memory buffers, or, in a spec-shipped session, are
    materialized by each worker from the broadcast chunk source.  The
    coordinator's manager, stacks included, is left as it was until
    :meth:`collect_into` installs the workers' copies back.

    Every backend method is a real class attribute (callers look them up
    on the class), driven by the same
    :class:`~repro.core.sketch_switching.SwitchingProtocol` as the local
    backend.
    """

    def __init__(
        self,
        copies: CopyManager,
        shards: list[list[int]],
        unique_hint: bool,
        capacity: int,
        telemetry=None,
        spec: bool = False,
    ):
        self._tele = telemetry if telemetry is not None else copies.telemetry
        #: Per-phase worker wall seconds, summed across workers at
        #: collect time (None until then).
        self.worker_phases: dict[str, float] | None = None
        # Spec-shipped sessions skip shared memory entirely: each worker
        # materializes its own "raw" region from the broadcast source,
        # so there is nothing for the coordinator to copy in.
        self._buffers = None if spec else _SharedBuffers(capacity)
        self._shards = [list(indices) for indices in shards]
        #: Global copy index -> (worker, shard-local index).
        self._where: dict[int, tuple[int, int]] = {}
        self._conns = []
        self._procs = []
        #: Whether a fire-and-forget call that reads the staged arrays
        #: may still be running; the next stage fences on it.
        self._dirty = False
        views = {} if self._buffers is None else self._buffers.views
        for w, indices in enumerate(self._shards):
            _start_worker(self._conns, self._procs, _switching_worker,
                          copies, indices, views, unique_hint, w,
                          self._tele.enabled)
            for local, idx in enumerate(indices):
                self._where[idx] = (w, local)

    @property
    def workers(self) -> int:
        return len(self._procs)

    @property
    def capacity(self) -> int:
        # Spec mode has no shared buffers to overflow: chunk geometry is
        # the source's own, so advertise an effectively unbounded cap.
        return self._buffers.capacity if self._buffers is not None else 1 << 62

    def _tag_span(self) -> None:
        """Tag the workers' upcoming calls with the coordinator's current
        (chunk) span, so their worker-chunk spans merge back under it."""
        if self._tele.enabled:
            span_id = self._tele.current_span_id
            for conn in self._conns:
                _send(conn, ("span", span_id))

    def _split(self, probes) -> dict[int, tuple[list[int], list[int]]]:
        """Probed copies by owning worker: ``{w: (locals, positions)}``."""
        groups: dict[int, tuple[list[int], list[int]]] = {}
        for pos, idx in enumerate(probes):
            w, local = self._where[idx]
            entry = groups.get(w)
            if entry is None:
                entry = groups[w] = ([], [])
            entry[0].append(local)
            entry[1].append(pos)
        return groups

    def _gather(self, groups, count: int) -> np.ndarray:
        """Place each worker's estimate reply at its probe positions."""
        ys = np.empty(count, dtype=np.float64)
        for w, (_, positions) in groups.items():
            ys[positions] = _recv_checked(self._conns[w])
        return ys

    def _probe(self, method: str, args: tuple, probes) -> np.ndarray:
        groups = self._split(probes)
        for w, (local, _) in groups.items():
            _send(self._conns[w], (method, (*args, tuple(local))))
        return self._gather(groups, len(probes))

    def _tell_probed(self, method: str, probes) -> None:
        for w, (local, _) in self._split(probes).items():
            _send(self._conns[w], (method, (tuple(local),)))

    def _tell_others(self, method: str, args: tuple, exclude) -> None:
        """Forward a non-probed feed to every worker, ``exclude`` localized."""
        local = [[] for _ in self._conns]
        for idx in exclude:
            w, i = self._where[idx]
            local[w].append(i)
        for w, conn in enumerate(self._conns):
            _send(conn, (method, (*args, tuple(local[w]))))
        self._dirty = True

    def broadcast_source(self, spec: dict) -> None:
        """Ship the chunk-source spec to every worker, once per session.

        Fire-and-forget: workers build their own materializer from the
        spec (regenerating via the seeded RNG tree, or memmapping their
        own read-only store view) and subsequent :meth:`stage_spec`
        advance commands pull chunks locally.
        """
        for conn in self._conns:
            _send(conn, ("source", spec))

    def stage_spec(self, count: int) -> None:
        """Advance every worker's local source by one chunk of ``count``.

        No fence and no shared-buffer write: pipe ordering serializes
        the advance after each worker's prior ops, and there is no
        coordinator-written buffer to race on — this (plus the vanished
        per-chunk memcpy) is the spec-shipping win.
        """
        self._tag_span()
        for conn in self._conns:
            _send(conn, ("adv", count))

    def stage(self, items: np.ndarray, deltas: np.ndarray) -> None:
        if self._buffers is None:
            raise RuntimeError(
                "spec-mode backend has no shared buffers; "
                "drive it with feed_spec"
            )
        # The staging message doubles as the fence: while fire-and-forget
        # feeds may still read the previous chunk, each worker answers it
        # (after finishing them) before the buffer is overwritten.
        # Staging only slices the views, so it may precede the write.
        fence = self._dirty
        for conn in self._conns:
            _send(conn, ("raw", len(items), fence))
        if fence:
            for conn in self._conns:
                _recv_checked(conn)
            self._dirty = False
        self._buffers.write("raw", items, deltas)
        self._tag_span()

    def _stage_sub(self, items, deltas, assume_unique: bool,
                   probes=None) -> dict:
        """Write the pre-processed feed and stage it on every worker;
        the workers owning ``probes`` also probe it (and reply)."""
        if self._dirty:
            raise RuntimeError("stage the chunk before its pre-processed feed")
        count = self._buffers.write("sub", items, deltas)
        groups = {} if probes is None else self._split(probes)
        for w, conn in enumerate(self._conns):
            entry = groups.get(w)
            _send(conn, ("sub", count, deltas is None, assume_unique,
                         None if entry is None else tuple(entry[0])))
        return groups

    def stage_sub(self, items, deltas, assume_unique: bool) -> None:
        """Stage a pre-processed feed without probing (uniform fan-outs).

        Follows :meth:`stage`, whose fence covers this buffer too; the
        subsequent ``feed_others_sub(())`` then fans the staged arrays
        to every copy.
        """
        self._stage_sub(items, deltas, assume_unique)

    # -- probed-copy probe/search ops -----------------------------------

    def probe_sub(
        self, items, deltas, assume_unique: bool, probes: tuple[int, ...]
    ) -> np.ndarray:
        groups = self._stage_sub(items, deltas, assume_unique, probes)
        return self._gather(groups, len(probes))

    def probe_raw(self, probes: tuple[int, ...]) -> np.ndarray:
        return self._probe("probe_raw", (), probes)

    def keep_probed(self, probes: tuple[int, ...]) -> None:
        self._tell_probed("keep_probed", probes)

    def roll_probed(self, probes: tuple[int, ...]) -> None:
        self._tell_probed("roll_probed", probes)

    def snap_probed(self, probes: tuple[int, ...]) -> None:
        self._tell_probed("snap_probed", probes)

    def feed_probed(
        self, lo: int, hi: int, probes: tuple[int, ...]
    ) -> np.ndarray:
        return self._probe("feed_probed", (lo, hi), probes)

    def step_probed(self, pos: int, probes: tuple[int, ...]) -> np.ndarray:
        return self._probe("step_probed", (pos,), probes)

    def scan_probed(
        self, lo: int, hi: int, probe: int, published: float, band
    ) -> tuple[int, float] | None:
        w, local = self._where[probe]
        conn = self._conns[w]
        _send(conn, ("scan_probed", (lo, hi, local, published, band)))
        return _recv_checked(conn)

    # -- non-probed copies ----------------------------------------------

    def feed_others_sub(self, exclude: tuple[int, ...]) -> None:
        self._tell_others("feed_others_sub", (), exclude)

    def feed_others_raw(self, exclude: tuple[int, ...]) -> None:
        self._tell_others("feed_others_raw", (), exclude)

    def catch_up(self, lo: int, hi: int, exclude: tuple[int, ...]) -> None:
        self._tell_others("catch_up", (lo, hi), exclude)

    def replace(self, idx: int, rng: np.random.Generator) -> None:
        w, local = self._where[idx]
        _send(self._conns[w], ("replace", (local, rng)))

    def fetch(self, idx: int) -> Sketch:
        """Pull one copy's current state (epoch snapshot publishing)."""
        w, local = self._where[idx]
        _send(self._conns[w], ("fetch", (local,)))
        return _recv_checked(self._conns[w])

    def collect_into(self, copies: CopyManager) -> None:
        for conn in self._conns:
            _send(conn, ("collect",))
        for indices, conn in zip(self._shards, self._conns):
            for idx, sketch in zip(indices, _recv_checked(conn)):
                copies.install(idx, sketch)
        # Pull the workers' telemetry buffers: phase timings always
        # (they feed phase_seconds' worker_* keys), buffered events and
        # spans when tracing is on (merged into the coordinator bundle).
        for conn in self._conns:
            _send(conn, ("obs",))
        phases: dict[str, float] = {}
        for worker, conn in enumerate(self._conns):
            payload = _recv_checked(conn)
            for key, seconds in payload.get("phases", {}).items():
                phases[key] = phases.get(key, 0.0) + seconds
            self._tele.absorb_worker(worker, payload)
        self.worker_phases = phases

    def close(self) -> None:
        _stop_workers(self._conns, self._procs)
        self._conns, self._procs = [], []
        if self._buffers is not None:
            self._buffers.close(unlink=True)
            self._buffers = None


# ----------------------------------------------------------------------
# Merge (per-partial) process execution
# ----------------------------------------------------------------------


def _merge_worker(conn, partial: Sketch, views) -> None:
    """Forked worker owning one merge partial."""
    try:
        while True:
            msg = conn.recv()
            op = msg[0]
            if op == "feed":
                _, lo, hi = msg
                items, deltas = views["raw"]
                partial.update_batch(items[lo:hi], deltas[lo:hi])
                conn.send(("ok", None))
            elif op == "collect":
                conn.send(("ok", partial))
            elif op == "stop":
                break
            else:  # pragma: no cover - protocol bug
                raise RuntimeError(f"unknown command {op!r}")
    except (EOFError, KeyboardInterrupt):
        pass
    except Exception:
        try:
            conn.send(("error", traceback.format_exc()))
        except (OSError, ValueError):
            pass
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Sessions (what api.ingest and the runner drive)
# ----------------------------------------------------------------------


def _merge_phases(timings: dict, *backends) -> dict[str, float]:
    """Coordinator protocol timings + collected worker timings.

    Worker seconds land under separate ``worker_*`` keys rather than
    being summed into the coordinator phases: the coordinator's
    ``probe`` already *includes* the wall time spent blocked on worker
    probe replies (adding would double-count), while fire-and-forget
    feeds overlap the coordinator entirely (their cost only shows up
    worker-side).  Worker phases appear once the backend has collected
    (session finalize); multiple backends (the epoch session's ring +
    L2) sum per key.
    """
    phases = dict(timings)
    for backend in backends:
        worker_phases = getattr(backend, "worker_phases", None)
        if not worker_phases:
            continue
        for key, seconds in worker_phases.items():
            key = f"worker_{key}"
            phases[key] = phases.get(key, 0.0) + seconds
    return phases


class IngestSession(abc.ABC):
    """One engine-managed ingestion pass over an oblivious stream."""

    #: Human-readable execution mode, recorded by IngestReport/benchmarks.
    mode: str = "serial"

    #: Band-policy name driving this session, if any ("multiplicative",
    #: "additive", "epoch") — surfaced by IngestReport.  (The probe
    #: discipline is *not* mirrored here: IngestReport derives it from
    #: the one authoritative surface, ``api.discipline_state``.)
    policy: str | None = None

    #: Why the planner fell back to plain serial feeding, if it did —
    #: surfaced by IngestReport so a fallback is observable, not silent.
    fallback_reason: str | None = None

    #: True when this session ships the chunk-source *spec* to workers
    #: instead of chunk bytes; api.ingest then drives feed_source.
    spec_shipped: bool = False

    #: How the planner decided to execute a ChunkSource, if one was
    #: supplied: "spec" or "bytes: <reason>" — surfaced by IngestReport
    #: so the fallback to bytes-shipping is observable.
    source_mode: str | None = None

    def feed_source(self, source) -> None:
        """Ingest a whole :class:`~repro.streams.sources.ChunkSource`.

        Default: materialize on the coordinator and feed chunk bytes.
        Spec-shipped sessions override this to broadcast the spec once
        and drive per-chunk advance commands instead.
        """
        for chunk in source.chunks():
            self.feed(chunk.items, chunk.deltas)

    @property
    def phase_seconds(self) -> dict[str, float] | None:
        """Cumulative per-phase wall-clock (probe / band_test / feed /
        replace) for protocol-driven sessions; None when the session has
        no switching protocol to instrument."""
        return None

    @abc.abstractmethod
    def feed(self, items, deltas=None) -> None:
        """Ingest one chunk."""

    @abc.abstractmethod
    def query(self) -> float:
        """The estimator's current published output."""

    def finalize(self) -> None:
        """Sync all sharded state back into the estimator."""

    def close(self) -> None:
        """Release workers/buffers; idempotent, runs on every exit path."""

    def __enter__(self) -> "IngestSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is None:
                self.finalize()
        finally:
            self.close()


class _PlainSession(IngestSession):
    """Deterministic fallback: plain ``update_batch`` on this process."""

    def __init__(
        self, estimator: Sketch, mode: str = "serial",
        fallback_reason: str | None = None,
    ):
        self._est = estimator
        self.mode = mode
        self.fallback_reason = fallback_reason

    def feed(self, items, deltas=None) -> None:
        self._est.update_batch(items, deltas)

    def query(self) -> float:
        return self._est.query()


class _SwitchingSession(IngestSession):
    """Per-copy fan-out session for switching estimators (any band)."""

    def __init__(self, estimator, plan: SwitchingShardPlan, backend,
                 mode: str, spec_source=None):
        self._est = estimator
        self._plan = plan
        self._backend = backend
        # A spec-shipped session consumes the unaggregated stream
        # positionally: the coordinator never materializes a deduped
        # view to hand the workers, so the plan's seen-filter and
        # aggregate-once hoists are turned off and the workers' backends
        # do their own shared-work hoisting.
        hoists_off = spec_source is not None
        self._protocol = SwitchingProtocol(
            plan.switcher, backend,
            seen_filter=None if hoists_off else plan.hoists.make_seen_filter(),
            aggregate_once=False if hoists_off else plan.aggregate_once,
            unique_hint=False if hoists_off else plan.unique_hint,
        )
        self.mode = mode
        self.policy = plan.band.name
        self.spec_shipped = spec_source is not None
        self._tele = plan.switcher._copies.telemetry

    @property
    def phase_seconds(self) -> dict[str, float]:
        return _merge_phases(self._protocol.timings, self._backend)

    def feed(self, items, deltas=None) -> None:
        if self._tele.enabled:
            with self._tele.span("chunk"):
                self._protocol.feed(items, deltas)
        else:
            self._protocol.feed(items, deltas)

    def feed_source(self, source) -> None:
        if not self.spec_shipped:
            super().feed_source(source)
            return
        spec = source.spec()
        lengths = source.chunk_lengths()
        self._backend.broadcast_source(spec)
        if self._tele.enabled:
            self._tele.emit(SpecBroadcastEvent(
                source=spec["kind"],
                chunks=len(lengths),
                updates=source.total,
                workers=self._backend.workers,
            ))
        self._tele.metrics.counter(
            "engine_spec_broadcasts_total",
            "Chunk-source specs broadcast to process-engine workers",
        ).inc()
        try:
            for count in lengths:
                if self._tele.enabled:
                    with self._tele.span("chunk"):
                        self._protocol.feed_spec(count)
                else:
                    self._protocol.feed_spec(count)
        except EngineError as exc:
            # A worker died mid-materialization (bad spec, store I/O
            # fault, generator mismatch): surface a typed event before
            # re-raising so the failure is attributable in traces.
            if self._tele.enabled:
                self._tele.emit(MaterializeFaultEvent(detail=str(exc)))
            self._tele.metrics.counter(
                "engine_materialize_faults_total",
                "Worker-side chunk materialization failures",
            ).inc()
            raise

    def query(self) -> float:
        # The published value is coordinator state; no worker round trip.
        return self._est.query()

    def finalize(self) -> None:
        try:
            self._backend.collect_into(self._plan.switcher._copies)
        finally:
            self.close()
        if self._tele.enabled:
            self._tele.emit(PhasesEvent(phases=self.phase_seconds))

    def close(self) -> None:
        self._backend.close()


class _EpochSession(IngestSession):
    """Theorem 6.5 fan-out: L2 switching protocol + uniform ring feeds.

    The inner robust L2 tracker runs through the same switching protocol
    as any other switching estimator (its own backend); the point-query
    ring is fed every chunk uniformly through a copy backend of its own
    (aggregated once when the ring licenses it).  The epoch clock — the
    wrapper's :class:`~repro.core.bands.EpochBand` over the published L2
    estimate — ticks on the coordinator at chunk boundaries, exactly as
    the wrapper's own ``update_batch`` does, so published snapshots,
    epoch counts, and ring restarts agree with the direct chunked path.
    """

    def __init__(self, plan: EpochShardPlan, l2_backend, ring_backend, mode):
        self._wrapper = plan.wrapper
        self._plan = plan
        self._l2_backend = l2_backend
        self._ring_backend = ring_backend
        self._l2_protocol = SwitchingProtocol(
            plan.l2_plan.switcher, l2_backend,
            seen_filter=plan.l2_plan.hoists.make_seen_filter(),
            aggregate_once=plan.l2_plan.aggregate_once,
            unique_hint=plan.l2_plan.unique_hint,
        )
        self.mode = mode
        self.policy = "epoch"
        self._tele = plan.l2_plan.switcher._copies.telemetry

    @property
    def phase_seconds(self) -> dict[str, float]:
        # The inner L2 switcher is the protocol-driven half; ring feeds
        # are uniform fan-outs with no probe/band phases to attribute
        # coordinator-side (their worker seconds do show up).
        return _merge_phases(self._l2_protocol.timings,
                             self._ring_backend, self._l2_backend)

    def feed(self, items, deltas=None) -> None:
        if self._tele.enabled:
            with self._tele.span("chunk"):
                self._feed(items, deltas)
        else:
            self._feed(items, deltas)

    def _feed(self, items, deltas=None) -> None:
        items, deltas = as_batch_arrays(items, deltas)
        if len(items) == 0:
            return
        cap = min(self._l2_backend.capacity, self._ring_backend.capacity)
        for lo in range(0, len(items), cap):
            self._feed_one(items[lo:lo + cap], deltas[lo:lo + cap])
        # The epoch clock ticks once per *caller* chunk, after any
        # capacity splits, exactly where the wrapper's own update_batch
        # ticks it; the session only supplies the hooks that reach
        # copies living in worker processes.
        self._wrapper._tick_epoch_clock(fetch=self._ring_backend.fetch,
                                        replace=self._ring_backend.replace)

    def _feed_one(self, items: np.ndarray, deltas: np.ndarray) -> None:
        hoists = self._plan.ring_hoists
        # Both the L2 probe and the ring feed want the same aggregated
        # chunk; compute it once for whichever of them is licensed.
        aggregated = None
        if hoists.aggregate_once or self._plan.l2_plan.aggregate_once:
            aggregated = aggregate_batch(items, deltas)
        self._l2_protocol.feed(items, deltas, aggregated=aggregated)
        ring = self._ring_backend
        ring.stage(items, deltas)
        if hoists.aggregate_once:
            ring.stage_sub(aggregated[0], aggregated[1], hoists.unique_hint)
            ring.feed_others_sub(())
        else:
            ring.feed_others_raw(())

    def query(self) -> float:
        # Published snapshots and the L2 estimate are coordinator state.
        return self._wrapper.query()

    def finalize(self) -> None:
        try:
            self._ring_backend.collect_into(self._plan.ring)
            self._l2_backend.collect_into(self._plan.l2_plan.switcher._copies)
        finally:
            self.close()
        if self._tele.enabled:
            self._tele.emit(PhasesEvent(phases=self.phase_seconds))

    def close(self) -> None:
        self._ring_backend.close()
        self._l2_backend.close()


class _ProcessMergeSession(IngestSession):
    """Per-partial fan-out for one mergeable sketch.

    Worker partials are pure deltas (they start from ``empty_like``), so
    the sketch's pre-session state merges correctly.  Note that
    :meth:`query` must collect and merge every partial — boundary-judged
    runs (``run_relative(engine=...)``) pay one full state transfer per
    chunk boundary; the merged view is cached between feeds.
    """

    def __init__(self, plan: MergeShardPlan, workers: int, capacity: int):
        self._sketch = plan.sketch
        self._buffers = _SharedBuffers(capacity)
        self._conns = []
        self._procs = []
        for partial in plan.make_partials(workers):
            _start_worker(self._conns, self._procs, _merge_worker,
                          partial, self._buffers.views)
        self.mode = f"process[{len(self._procs)}]"
        self._finalized = False
        self._merged_view: Sketch | None = None

    def feed(self, items, deltas=None) -> None:
        items, deltas = as_batch_arrays(items, deltas)
        self._merged_view = None
        cap = self._buffers.capacity
        for start in range(0, len(items), cap):
            part_i = items[start:start + cap]
            part_d = deltas[start:start + cap]
            count = self._buffers.write("raw", part_i, part_d)
            workers = len(self._conns)
            bounds = np.linspace(0, count, workers + 1).astype(int)
            for conn, lo, hi in zip(self._conns, bounds[:-1], bounds[1:]):
                _send(conn, ("feed", int(lo), int(hi)))
            for conn in self._conns:
                _recv_checked(conn)

    def _collect(self) -> list[Sketch]:
        for conn in self._conns:
            _send(conn, ("collect",))
        return [_recv_checked(conn) for conn in self._conns]

    def query(self) -> float:
        if self._finalized:
            return self._sketch.query()
        if self._merged_view is None:
            merged = self._sketch.snapshot()
            for partial in self._collect():
                merged.merge(partial)
            self._merged_view = merged
        return self._merged_view.query()

    def finalize(self) -> None:
        if self._finalized:
            return
        try:
            for partial in self._collect():
                self._sketch.merge(partial)
            self._finalized = True
        finally:
            self.close()

    def close(self) -> None:
        _stop_workers(self._conns, self._procs)
        self._conns, self._procs = [], []
        if self._buffers is not None:
            self._buffers.close(unlink=True)
            self._buffers = None


# ----------------------------------------------------------------------
# Engines
# ----------------------------------------------------------------------


def _serial_session(estimator: Sketch, plan, src_mode,
                    reason) -> IngestSession:
    """The in-process session for ``plan``: what :class:`SerialEngine`
    always opens and :class:`ProcessEngine` opens when it does not fork."""
    if isinstance(plan, SwitchingShardPlan):
        session = _SwitchingSession(
            estimator, plan,
            LocalCopyBackend(plan.switcher._copies, plan.unique_hint),
            mode="serial",
        )
    elif isinstance(plan, EpochShardPlan):
        session = _EpochSession(
            plan,
            LocalCopyBackend(
                plan.l2_plan.switcher._copies, plan.l2_plan.unique_hint
            ),
            LocalCopyBackend(plan.ring, plan.ring_hoists.unique_hint),
            mode="serial",
        )
    else:
        session = _PlainSession(
            estimator, fallback_reason=getattr(plan, "reason", None)
        )
    if src_mode == "bytes":
        session.source_mode = f"bytes: {reason}"
    return session


def fork_available() -> bool:
    """Process engines need ``fork`` (state travels by address space)."""
    return "fork" in mp.get_all_start_methods()


class ExecutionEngine(abc.ABC):
    """Factory of :class:`IngestSession` objects for one estimator each."""

    name: str = "engine"

    @abc.abstractmethod
    def session(self, estimator: Sketch, source=None) -> IngestSession:
        """Open an ingestion session; use as a context manager.

        ``source`` is an optional :class:`~repro.streams.sources.ChunkSource`
        the caller intends to drive through :meth:`IngestSession.feed_source`;
        engines use it to pick a faster execution path (spec-shipping to
        process workers) when licensed.
        """


class SerialEngine(ExecutionEngine):
    """In-process execution of the shard plan's shared-work hoists.

    No extra processes: the win over plain ``update_batch`` is that a
    chunk is deduped/aggregated once on the coordinator instead of once
    per fanned-out copy.  Also the deterministic fallback everywhere
    process parallelism is unavailable.
    """

    name = "serial"

    def session(self, estimator: Sketch, source=None) -> IngestSession:
        plan = plan_shards(estimator)
        src_mode, reason = source_mode_for(plan, source, parallel=False)
        return _serial_session(estimator, plan, src_mode, reason)


class ProcessEngine(ExecutionEngine):
    """Shard copies/partials across forked worker processes.

    Parameters
    ----------
    workers:
        Worker process count (defaults to ``os.cpu_count()``).
    chunk_capacity:
        Shared-buffer size in updates; feeds larger than this are split.

    Falls back to :class:`SerialEngine` behaviour — same outputs — when
    ``fork`` is unavailable, when a plan has no parallel decomposition,
    or when one worker would own everything anyway.
    """

    name = "process"

    def __init__(
        self,
        workers: int | None = None,
        chunk_capacity: int = DEFAULT_CHUNK_CAPACITY,
    ):
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers or (os.cpu_count() or 1)
        if chunk_capacity < REPLAY_LEAF + 1:
            raise ValueError(
                f"chunk_capacity must exceed REPLAY_LEAF={REPLAY_LEAF}"
            )
        self.chunk_capacity = chunk_capacity

    def _process_backend(
        self, copies: CopyManager, unique_hint: bool, spec: bool = False
    ) -> _ProcessCopyBackend:
        return _ProcessCopyBackend(
            copies,
            partition_copies(copies.count, self.workers),
            unique_hint,
            self.chunk_capacity,
            spec=spec,
        )

    def session(self, estimator: Sketch, source=None) -> IngestSession:
        plan = plan_shards(estimator)
        parallel = self.workers > 1 and fork_available()
        src_mode, reason = source_mode_for(plan, source, parallel=parallel)
        if (parallel and isinstance(plan, SwitchingShardPlan)
                and plan.switcher.copies > 1):
            spec_mode = src_mode == "spec"
            backend = self._process_backend(
                plan.switcher._copies, plan.unique_hint, spec=spec_mode
            )
            session = _SwitchingSession(
                estimator, plan, backend, f"process[{backend.workers}]",
                spec_source=source if spec_mode else None,
            )
            if spec_mode:
                session.source_mode = "spec"
            return session
        if (parallel and isinstance(plan, EpochShardPlan)
                and plan.ring.count > 1):
            # The ring carries the bulk of the copies; the (smaller) L2
            # tracker stays on the coordinator.
            ring_backend = self._process_backend(
                plan.ring, plan.ring_hoists.unique_hint
            )
            session = _EpochSession(
                plan,
                LocalCopyBackend(
                    plan.l2_plan.switcher._copies, plan.l2_plan.unique_hint
                ),
                ring_backend,
                f"process[{ring_backend.workers}]",
            )
        elif parallel and isinstance(plan, MergeShardPlan):
            session = _ProcessMergeSession(
                plan, self.workers, self.chunk_capacity
            )
        else:
            return _serial_session(estimator, plan, src_mode, reason)
        if src_mode == "bytes":
            session.source_mode = f"bytes: {reason}"
        return session


def resolve_engine(spec) -> ExecutionEngine | None:
    """Normalise an engine spec: None, name string, worker count, instance.

    ``None`` → no engine (the historical direct path); ``"serial"`` →
    :class:`SerialEngine`; ``"process"`` / ``"process:N"`` / an int →
    :class:`ProcessEngine`; an :class:`ExecutionEngine` passes through.
    """
    if spec is None or isinstance(spec, ExecutionEngine):
        return spec
    if isinstance(spec, bool):
        raise ValueError("engine must be a name, worker count, or engine")
    if isinstance(spec, int):
        return ProcessEngine(workers=spec)
    if isinstance(spec, str):
        if spec == "serial":
            return SerialEngine()
        if spec == "process":
            return ProcessEngine()
        if spec.startswith("process:"):
            return ProcessEngine(workers=int(spec.split(":", 1)[1]))
    raise ValueError(
        f"unknown engine spec {spec!r}; expected None, 'serial', 'process', "
        f"'process:N', a worker count, or an ExecutionEngine"
    )

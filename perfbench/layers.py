"""Which public calls the traced run times, and the per-layer metrics.

Every wrapper sits on a call *into* a layer, installed from here and
removed after the traced repetition; nothing under ``src/`` changes.
Span names are ``<layer>.<call>``.  The per-layer metrics are read
from those spans, from ``IngestReport.phase_seconds`` (worker-side
totals) and from the ``ingest(telemetry="metrics")`` counters
(chunks, crossing chunks, switches).

Times are seconds per repetition, inclusive of nested calls into other
layers, except ``protocol.self_s`` (the protocol's own code only).
Because the traced repetition runs with telemetry on, a process-engine
chunk also carries the span-tag message telemetry sends each worker;
``executor.ipc_msgs`` counts it.
"""

from __future__ import annotations

from multiprocessing.connection import Connection

import repro.api
import repro.engine.executor as executor
from repro.core.copies import CopyManager, LocalCopyBackend
from repro.core.sketch_switching import SwitchingProtocol
from repro.engine.shards import SeenFilter

from spans import Patcher, SpanRecorder, group_self, group_stats, \
    self_times, timed, timed_generator, top_level_seconds

#: Copy-backend calls by role in the protocol.  Both backend classes
#: implement the same interface; whichever one the session built is
#: the one that records.
BACKEND_ROLES = {
    "probe": ("probe_raw", "probe_sub"),
    "fanout": ("feed_others_sub", "feed_others_raw", "catch_up"),
    "bisect": ("snap_probed", "feed_probed", "keep_probed", "roll_probed"),
    "leaf": ("step_probed", "scan_probed"),
    "other": ("stage", "stage_sub", "stage_spec", "broadcast_source",
              "replace", "collect_into"),
}
BACKEND_CLASSES = (LocalCopyBackend, executor._ProcessCopyBackend)
BOOKKEEPING = ("stack_plan", "install", "advance", "retire", "refresh")
STACK_CALLS = ("prepare", "subset", "feed", "query_all", "save", "restore",
               "install")
SKETCH_CALLS = ("update", "update_batch", "query", "snapshot")

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("streams.adapt_s", "s", "lower"),
    ("shards.plan_s", "s", "lower"),
    ("shards.seen_s", "s", "lower"),
    ("shards.seen_fresh_ratio", "ratio", "higher"),
    ("executor.open_s", "s", "lower"),
    ("executor.ipc_wait_s", "s", "lower"),
    ("executor.ipc_msgs", "msgs/chunk", "lower"),
    ("executor.close_s", "s", "lower"),
    ("executor.worker_probe_s", "s", "lower"),
    ("executor.worker_feed_s", "s", "lower"),
    ("executor.worker_generate_s", "s", "lower"),
    ("protocol.chunks", "count", "lower"),
    ("protocol.switches", "count", "lower"),
    ("protocol.crossing_share", "ratio", "lower"),
    ("protocol.self_s", "s", "lower"),
    ("backend.probe_s", "s", "lower"),
    ("backend.fanout_s", "s", "lower"),
    ("backend.bisect_s", "s", "lower"),
    ("backend.bisect_rounds", "count", "lower"),
    ("backend.bisect_keep_ratio", "ratio", "higher"),
    ("backend.leaf_s", "s", "lower"),
    ("backend.leaf_steps", "count", "lower"),
    ("copies.bookkeeping_s", "s", "lower"),
    ("copies.stack_plan_calls", "count", "lower"),
    ("copies.estimate_all_s", "s", "lower"),
    ("stack.prepare_s", "s", "lower"),
    ("stack.prepare_calls", "count", "lower"),
    ("stack.feed_s", "s", "lower"),
    ("stack.subset_s", "s", "lower"),
    ("stack.snapshot_s", "s", "lower"),
    ("stack.query_all_s", "s", "lower"),
    ("stack.query_all_calls", "count", "lower"),
    ("sketch.update_s", "s", "lower"),
    ("sketch.update_calls", "count", "lower"),
    ("sketch.update_batch_s", "s", "lower"),
    ("sketch.update_batch_calls", "count", "lower"),
    ("sketch.query_s", "s", "lower"),
    ("sketch.snapshot_s", "s", "lower"),
    ("disc.decide_s", "s", "lower"),
    ("disc.decide_calls", "count", "lower"),
    ("band.test_s", "s", "lower"),
    ("band.test_calls", "count", "lower"),
    ("game.adversary_s", "s", "lower"),
    ("game.referee_s", "s", "lower"),
    ("trace.overhead", "ratio", "higher"),
    ("trace.unattributed_s", "s", "lower"),
)


def _count_seen(rec, args, kwargs, result):
    rec.counts["seen.offered"] += len(args[1])
    rec.counts["seen.fresh"] += len(result)


def _count_scan(rec, args, kwargs, result):
    # scan_probed(self, lo, hi, ...) -> (pos, y) | None
    lo, hi = args[1], args[2]
    rec.counts["leaf.scan_steps"] += (hi - lo) if result is None \
        else result[0] - lo + 1


def _bisect_round(rec, args, kwargs, result):
    rec.counts["bisect.open"] = 1


def _bisect_keep(rec, args, kwargs, result):
    # keep_probed/roll_probed directly after feed_probed close one
    # bisection round; only a kept half counts as a useful probe.
    if rec.counts.get("bisect.open"):
        rec.counts["bisect.kept"] += 1
    rec.counts["bisect.open"] = 0


def _bisect_roll(rec, args, kwargs, result):
    rec.counts["bisect.open"] = 0


def install(patcher: Patcher, rec: SpanRecorder, *, sketch_classes,
            stack_classes, discipline, band) -> None:
    """Wrap every layer boundary the traced run measures."""
    patcher.attribute(repro.api, "chunk_updates", timed_generator(
        rec, "streams.chunk_updates", repro.api.chunk_updates))
    # The plan a session is opened with; the report-time lookups in
    # repro.api are not part of set-up and stay unwrapped.
    patcher.attribute(executor, "plan_shards", timed(
        rec, "shards.plan", executor.plan_shards))
    for attr in ("fresh", "mark", "reset"):
        patcher.method(rec, SeenFilter, attr, f"shards.seen_{attr}",
                       _count_seen if attr == "fresh" else None)
    for cls in (executor.SerialEngine, executor.ProcessEngine):
        patcher.method(rec, cls, "session", "executor.open")
    patcher.method(rec, executor.IngestSession, "__exit__", "executor.close")
    patcher.method(rec, Connection, "send", "executor.send")
    patcher.method(rec, Connection, "recv", "executor.recv")
    for attr in ("feed", "feed_spec"):
        patcher.method(rec, SwitchingProtocol, attr, "protocol.feed")
    hooks = {"scan_probed": _count_scan, "feed_probed": _bisect_round,
             "keep_probed": _bisect_keep, "roll_probed": _bisect_roll}
    for cls in BACKEND_CLASSES:
        for role, attrs in BACKEND_ROLES.items():
            for attr in attrs:
                if hasattr(cls, attr):
                    patcher.method(rec, cls, attr, f"backend.{attr}",
                                   hooks.get(attr))
    for attr in BOOKKEEPING + ("estimate_all",):
        patcher.method(rec, CopyManager, attr, f"copies.{attr}")
    for cls in stack_classes:
        for attr in STACK_CALLS:
            patcher.method(rec, cls, attr, f"stack.{attr}")
    for cls in sketch_classes:
        for attr in SKETCH_CALLS:
            patcher.method(rec, cls, attr, f"sketch.{attr}")
    patcher.method(rec, type(discipline), "decide", "disc.decide")
    for attr in ("within", "crossed"):
        patcher.method(rec, type(band), attr, f"band.{attr}")


def metrics(rec: SpanRecorder, *, wall_s: float, chunks: int,
            switches: int, crossings: int, phases: dict | None,
            overhead: float) -> dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    def total(*names):
        return group_stats(rec, names)[1]

    def calls(*names):
        return group_stats(rec, names)[0]

    def backend(role):
        return tuple(f"backend.{a}" for a in BACKEND_ROLES[role])

    selfs = self_times(rec.starts, rec.ends, rec.parents)
    phases = phases or {}
    offered = rec.counts.get("seen.offered", 0.0)
    rounds = calls("backend.feed_probed")
    out = {
        "streams.adapt_s": total("streams.chunk_updates"),
        "shards.plan_s": total("shards.plan"),
        "shards.seen_s": total("shards.seen_fresh", "shards.seen_mark",
                               "shards.seen_reset"),
        "shards.seen_fresh_ratio": (
            rec.counts.get("seen.fresh", 0.0) / offered if offered else 0.0),
        "executor.open_s": total("executor.open"),
        "executor.ipc_wait_s": total("executor.recv"),
        "executor.ipc_msgs": calls("executor.send") / chunks if chunks else 0.0,
        "executor.close_s": total("executor.close"),
        "executor.worker_probe_s": phases.get("worker_probe", 0.0),
        "executor.worker_feed_s": phases.get("worker_feed", 0.0),
        "executor.worker_generate_s": phases.get("worker_generate", 0.0),
        "protocol.chunks": chunks,
        "protocol.switches": switches,
        "protocol.crossing_share": crossings / chunks if chunks else 0.0,
        "protocol.self_s": group_self(
            rec, ("protocol.feed", "protocol.process_update"), selfs),
        "backend.probe_s": total(*backend("probe")),
        "backend.fanout_s": total(*backend("fanout")),
        "backend.bisect_s": total(*backend("bisect")),
        "backend.bisect_rounds": rounds,
        "backend.bisect_keep_ratio": (
            rec.counts.get("bisect.kept", 0.0) / rounds if rounds else 0.0),
        "backend.leaf_s": total(*backend("leaf")),
        "backend.leaf_steps": (calls("backend.step_probed")
                               + rec.counts.get("leaf.scan_steps", 0.0)),
        "copies.bookkeeping_s": total(*(f"copies.{a}" for a in BOOKKEEPING)),
        "copies.stack_plan_calls": calls("copies.stack_plan"),
        "copies.estimate_all_s": total("copies.estimate_all"),
        "stack.prepare_s": total("stack.prepare"),
        "stack.prepare_calls": calls("stack.prepare"),
        "stack.feed_s": total("stack.feed"),
        "stack.subset_s": total("stack.subset"),
        "stack.snapshot_s": total("stack.save", "stack.restore"),
        "stack.query_all_s": total("stack.query_all"),
        "stack.query_all_calls": calls("stack.query_all"),
        "sketch.update_s": total("sketch.update"),
        "sketch.update_calls": calls("sketch.update"),
        "sketch.update_batch_s": total("sketch.update_batch"),
        "sketch.update_batch_calls": calls("sketch.update_batch"),
        "sketch.query_s": total("sketch.query"),
        "sketch.snapshot_s": total("sketch.snapshot"),
        "disc.decide_s": total("disc.decide"),
        "disc.decide_calls": calls("disc.decide"),
        "band.test_s": total("band.within", "band.crossed"),
        "band.test_calls": calls("band.within", "band.crossed"),
        "game.adversary_s": total("game.adversary"),
        "game.referee_s": total("game.referee"),
        "trace.overhead": overhead,
        "trace.unattributed_s": wall_s - top_level_seconds(rec),
    }
    assert list(out) == [name for name, _, _ in PER_LAYER]
    return out

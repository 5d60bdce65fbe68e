"""The copy backend: worker shards, mid-chunk reseeding, cleanup.

Each process-engine worker wraps its contiguous slice of the copies in
:meth:`CopyManager.shard` and drives it through the same
:class:`~repro.core.copies.LocalCopyBackend` the serial paths use, so
a shard boundary may cut a copy group: the part keeping two or more
copies is stacked again, a single-copy remainder takes the object path.
These tests pin the shard rules, bit-for-bit equality of a shard-split
difference ladder with the per-item path, that a copy reseeded inside a
chunk is fed with its own hash columns on every stacked path, that a
killed worker fails the next chunk, and that a failed session leaves no
worker process and no shared-memory segment behind.
"""

import multiprocessing as mp
import os
import signal
from multiprocessing import shared_memory

import numpy as np
import pytest

import repro
from repro.core.bands import MultiplicativeBand
from repro.core.copies import CopyManager
from repro.core.disciplines import (
    ActiveCopyDiscipline,
    DifferenceAggregateDiscipline,
    PrivateAggregateDiscipline,
)
from repro.core.ladder import DifferenceLadder, LadderTier
from repro.core.sketch_switching import SwitchingEstimator
from repro.engine import (
    EngineError,
    ProcessEngine,
    SerialEngine,
    fork_available,
)
from repro.sketches.countmin import CountMinSketch
from repro.sketches.countsketch import CountSketch
from repro.sketches.kmv import KMVSketch
from repro.streams.sources import GeneratorChunkSource

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="process engine requires the fork start method"
)


def _cm(width):
    return lambda rng: CountMinSketch(width, 3, rng)


def _grouped(stacked=True):
    """Groups (0, 3) of width-8 and (3, 7) of width-16 CountMin copies."""
    return CopyManager.grouped(
        [(_cm(8), 3), (_cm(16), 4)], np.random.default_rng(5),
        stacked=stacked,
    )


class TestCopyManagerShard:
    def test_boundary_splits_a_group(self):
        parent = _grouped()
        before = parent.estimate_all(range(1, 6))
        shard = parent.shard(range(1, 6))
        assert shard.group_slices == ((0, 2), (2, 5))
        assert sorted(shard.stacks) == [0, 1]
        assert [s.planes for s in shard.stacks.values()] == [2, 3]
        # Adopted, not reseeded: the same objects, the same estimates.
        assert all(a is b for a, b in zip(shard.sketches,
                                          parent.sketches[1:6]))
        assert np.array_equal(shard.estimate_all(), before)

    def test_single_copy_remainder_stays_on_object_path(self):
        shard = _grouped().shard(range(2, 5))
        assert shard.group_slices == ((0, 1), (1, 3))
        assert list(shard.stacks) == [1]
        parts, rest = shard.stack_plan([0, 1, 2])
        assert rest == [(0, 0)]
        assert [planes for _, planes, _ in parts] == [[0, 1]]

    def test_factory_for_takes_local_indices(self):
        parent = _grouped()
        shard = parent.shard(range(2, 7))
        assert shard.factory_for(0) is parent.factory_for(2)
        assert shard.factory_for(1) is parent.factory_for(3)
        assert shard.factory_for(0)(np.random.default_rng(0)).width == 8
        assert shard.factory_for(4)(np.random.default_rng(0)).width == 16
        with pytest.raises(IndexError):
            shard.factory_for(5)

    def test_stacked_false_is_inherited(self):
        shard = _grouped(stacked=False).shard(range(0, 7))
        assert shard.group_slices == ((0, 3), (3, 7))
        assert not shard.stacks

    def test_unstackable_copies_keep_object_path(self):
        parent = CopyManager(
            lambda r: KMVSketch(16, r), 6, np.random.default_rng(0)
        )
        shard = parent.shard(range(3, 6))
        assert shard.group_slices == ((0, 3),) and not shard.stacks

    def test_rejects_non_contiguous_or_empty_ranges(self):
        parent = _grouped()
        for bad in ([], [0, 2], [3, 2]):
            with pytest.raises(ValueError):
                parent.shard(bad)
        with pytest.raises(IndexError):
            parent.shard(range(5, 8))


def _ladder_estimator(stacked=True, tier_budget=None):
    """DPDE ladder over 9 CountSketch copies in groups (0,2)/(2,5)/(5,9).

    Under ``ProcessEngine(workers=3)`` the shards are [0,3), [3,6) and
    [6,9): both tier groups are cut mid-group, leaving a stacked pair
    and a single-copy remainder in the first two workers.  Integer
    updates keep CountSketch's float tables exact, so every path must
    agree bit for bit.
    """
    ladder = DifferenceLadder([
        LadderTier(copies=2, noise_scale=0.08, capacity=3, span=0.3,
                   budget=tier_budget),
        LadderTier(copies=3, noise_scale=0.04, capacity=2, span=0.6,
                   budget=tier_budget),
    ])
    fac = lambda r: CountSketch(16, 3, r, track_candidates=0)
    manager = CopyManager.grouped(
        [(fac, 2), (fac, 3), (fac, 4)], np.random.default_rng(9),
        stacked=stacked,
    )
    return SwitchingEstimator(
        copies=manager, band=MultiplicativeBand(0.35),
        discipline=DifferenceAggregateDiscipline(
            ladder=ladder, noise_scale=0.04
        ),
    )


def _per_item_trace(est, items, chunk):
    trace = []
    for lo in range(0, len(items), chunk):
        for item in items[lo:lo + chunk]:
            est.update(int(item), 1)
        trace.append((est.query(), est.switches))
    return trace


def _engine_trace(est, items, chunk, engine):
    trace = []
    with engine.session(est) as session:
        for lo in range(0, len(items), chunk):
            session.feed(np.asarray(items[lo:lo + chunk], dtype=np.int64))
            trace.append((session.query(), est.switches))
    return trace


@needs_fork
class TestShardSplitLadder:
    def test_process3_matches_per_item(self):
        items = [i % 150 for i in range(900)] + list(range(150, 600))
        t0 = _per_item_trace(_ladder_estimator(), items, 128)
        est = _ladder_estimator()
        t1 = _engine_trace(est, items, 128, ProcessEngine(workers=3))
        assert t0 == t1
        assert t1[-1][1] > 0, "stream forced no publication"
        # Collect reinstalled the workers' copies into the live stacks.
        assert sorted(est._copies.stacks) == [0, 1, 2]
        twin = _ladder_estimator(stacked=False)
        _per_item_trace(twin, items, len(items))
        assert np.array_equal(est._copies.estimate_all(),
                              twin._copies.estimate_all())

    def test_tier_refresh_inside_split_groups(self):
        # Tier budget exhaustion reseeds tier copies mid-chunk through
        # the workers' replace, into a stacked plane or an object slot.
        # CountSketch's F2 estimate is not monotone, so the chunked
        # paths may coalesce a band exit that reverts inside a chunk;
        # they are held to each other and to the per-object twin.
        items = list(range(900))
        est = _ladder_estimator(tier_budget=2)
        t1 = _engine_trace(est, items, 128, ProcessEngine(workers=3))
        t0 = _engine_trace(_ladder_estimator(tier_budget=2), items, 128,
                           SerialEngine())
        twin = _engine_trace(_ladder_estimator(stacked=False, tier_budget=2),
                             items, 128, SerialEngine())
        assert t1 == t0 == twin
        assert est.discipline.ladder.tier_generations[0] >= 1, (
            "stream did not force a tier refresh"
        )


def _cs_ring(stacked=True):
    """Theorem 4.1 restart ring of CountSketch copies: every switch
    reseeds the burned slot, mostly inside a crossing chunk."""
    return SwitchingEstimator(
        factory=lambda r: CountSketch(32, 5, r, track_candidates=0),
        copies=8, rng=np.random.default_rng(1),
        band=MultiplicativeBand(0.5), restart=True,
        discipline=ActiveCopyDiscipline(), stacked=stacked,
    )


def _f2dp():
    """Stacked CountSketch copies under the DP aggregate."""
    return SwitchingEstimator(
        factory=lambda r: CountSketch(64, 5, r, track_candidates=0),
        copies=8, rng=np.random.default_rng(3),
        band=MultiplicativeBand(0.9),
        discipline=PrivateAggregateDiscipline(noise_scale=0.01),
    )


class TestMidChunkReseed:
    """A chunk prepared before a switch must not feed the reseeded copy
    with the burned copy's hash columns."""

    SOURCE = dict(kind="uniform", n=64, m=4_000, seed=9, chunk_size=777)

    def _source(self):
        spec = dict(self.SOURCE)
        return GeneratorChunkSource(spec.pop("kind"), **spec)

    def _chunked(self, est):
        for chunk in self._source().chunks():
            est.update_batch(chunk.items, chunk.deltas)
        return est.query(), est.switches

    def test_stacked_ring_matches_object_ring(self):
        twin = self._chunked(_cs_ring(stacked=False))
        assert twin[1] > 100, "stream forced too few restarts"
        assert self._chunked(_cs_ring()) == twin

    def test_universe_path_matches_bytes_path(self):
        # The source-fed engine session memoizes hash columns across
        # chunks; every reseeded plane must drop them.
        est = _cs_ring()
        src = self._source()
        with SerialEngine().session(est, source=src) as session:
            assert session.source_mode.startswith("bytes:")
            session.feed_source(src)
        assert (est.query(), est.switches) == \
            self._chunked(_cs_ring(stacked=False))


def _segment_gone(name):
    try:
        shm = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return True
    shm.close()
    return False


@needs_fork
class TestFailedSessionCleanup:
    def test_failed_finalize_leaks_nothing(self):
        est = repro.robust_estimator("distinct", n=4096, m=65536, eps=0.25)
        items = np.random.default_rng(0).integers(0, 4096, 8192)
        with pytest.raises(EngineError):
            with ProcessEngine(workers=2).session(est) as session:
                session.feed(items)
                backend = session._backend
                names = [b.name for b in backend._buffers._blocks.values()]
                victim = backend._procs[1]
                os.kill(victim.pid, signal.SIGKILL)
                victim.join(timeout=10)
                assert not victim.is_alive()
        assert mp.active_children() == []
        assert names and all(_segment_gone(n) for n in names)

    @pytest.mark.parametrize("path", ["bytes", "spec"])
    def test_dead_worker_fails_next_chunk(self, path):
        """A killed worker fails the next chunk, not a later finalize."""
        if path == "bytes":
            est = repro.robust_estimator("distinct", n=4096, m=65536,
                                         eps=0.25)
            items = np.random.default_rng(0).integers(0, 4096, 8192)
            session = ProcessEngine(workers=2).session(est)
            feed = lambda: session.feed(items)
        else:
            src = GeneratorChunkSource("uniform", n=256, m=4 * 8192, seed=3,
                                       chunk_size=8192)
            session = ProcessEngine(workers=2).session(_f2dp(), source=src)
            assert session.source_mode == "spec"
            session._backend.broadcast_source(src.spec())
            feed = lambda: session._protocol.feed_spec(src.chunk_size)
        try:
            feed()
            victim = session._backend._procs[1]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10)
            with pytest.raises(EngineError):
                feed()
        finally:
            session.close()
        assert mp.active_children() == []

    def test_close_is_idempotent(self):
        switching = repro.robust_estimator(
            "distinct", n=4096, m=65536, eps=0.25
        )
        heavy = repro.robust_estimator(
            "heavy-hitters", n=256, m=4096, eps=0.5
        )
        merge = CountMinSketch(64, 3, np.random.default_rng(0))
        items = np.arange(256, dtype=np.int64)
        for est in (switching, heavy, merge):
            session = ProcessEngine(workers=2).session(est)
            assert session.mode.startswith("process")
            session.feed(items)
            session.close()
            session.close()
        assert mp.active_children() == []

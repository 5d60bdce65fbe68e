"""Stacked copy groups: bit-for-bit equivalence with the per-object path.

The ISSUE 6 tentpole restructures :class:`~repro.core.copies.CopyManager`
so homogeneous copy groups hold their array state as one stacked NumPy
block and every bulk feed/probe runs as a single kernel over the stack —
one shared hash pass per chunk for all k copies.  The load-bearing claim
is that this is a pure execution-strategy change: published outputs,
switch counts, and every intermediate table are **bit-for-bit identical**
to the per-object twin (``stacked=False``).

Layers under test:

* kernel level — ``poly_eval_stacked`` / ``hash_many_stacked`` /
  ``sign_many_stacked`` against their per-hash counterparts;
* sketch level — each :class:`~repro.sketches.stacking.SketchStack`
  (CountMin, CountSketch, AMS) against per-object ``update_batch``,
  including dense and sparse chunks, subrange preps, save/restore,
  install (which must drop memoized hash columns), and leaf steps;
* manager level — stacking eligibility rules and the ndarray
  ``estimate_all`` contract;
* protocol level (Hypothesis) — whole switching estimators, stacked vs
  twin, across per-item / chunked / SerialEngine / ProcessEngine, with
  restart rings, DP budget-exhaustion refreshes, and difference-ladder
  tier refreshes forcing mid-stream retirement through the stacks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bands import MultiplicativeBand
from repro.core.copies import CopyManager
from repro.core.disciplines import (
    ActiveCopyDiscipline,
    DifferenceAggregateDiscipline,
    PrivateAggregateDiscipline,
)
from repro.core.ladder import DifferenceLadder, LadderTier
from repro.core.sketch_switching import SwitchingEstimator
from repro.engine import ProcessEngine, SerialEngine, fork_available
from repro.hashing.field import poly_eval_stacked, poly_eval_vec
from repro.hashing.kwise import (
    KWiseHash,
    KWiseSignHash,
    hash_many_stacked,
    sign_many_stacked,
    stack_coefficients,
)
from repro.sketches.ams import AMSSketch
from repro.sketches.countmin import CountMinSketch
from repro.sketches.countsketch import CountSketch
from repro.sketches.kmv import KMVSketch
from repro.sketches.stacking import DENSE_CAP

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="process engine requires the fork start method"
)


# ----------------------------------------------------------------------
# Kernel level
# ----------------------------------------------------------------------


class TestStackedHashKernels:
    def test_poly_eval_stacked_matches_per_poly(self):
        rng = np.random.default_rng(0)
        hashes = [KWiseHash(3, np.random.default_rng(i), out_bits=61)
                  for i in range(6)]
        xs = rng.integers(0, 1 << 50, size=513).astype(np.uint64)
        coeffs = stack_coefficients(hashes)
        stacked = poly_eval_stacked(coeffs, xs)
        for i in range(len(hashes)):
            assert np.array_equal(
                stacked[i], poly_eval_vec(list(coeffs[i]), xs)
            )

    def test_hash_many_stacked_matches_each_hash(self):
        rng = np.random.default_rng(1)
        hashes = [KWiseHash(2, np.random.default_rng(10 + i), out_bits=61)
                  for i in range(9)]
        xs = rng.integers(0, 1 << 40, size=300).astype(np.uint64)
        stacked = hash_many_stacked(hashes, xs)
        for i, h in enumerate(hashes):
            assert np.array_equal(stacked[i], h.hash_many(xs))

    def test_sign_many_stacked_matches_each_sign(self):
        rng = np.random.default_rng(2)
        signs = [KWiseSignHash(4, np.random.default_rng(20 + i))
                 for i in range(5)]
        xs = rng.integers(0, 1 << 32, size=257).astype(np.uint64)
        stacked = sign_many_stacked(signs, xs)
        for i, s in enumerate(signs):
            assert np.array_equal(stacked[i], s.sign_many(xs))

    def test_stack_coefficients_rejects_mixed_degree(self):
        a = KWiseHash(2, np.random.default_rng(0), out_bits=61)
        b = KWiseHash(4, np.random.default_rng(1), out_bits=61)
        with pytest.raises(ValueError):
            stack_coefficients([a, b])


# ----------------------------------------------------------------------
# Sketch level
# ----------------------------------------------------------------------


def _twins(cls, args, k, seed0=100, **kwargs):
    """Two identically-seeded copy lists: one stacked, one per-object."""
    obj = [cls(*args, np.random.default_rng(seed0 + i), **kwargs)
           for i in range(k)]
    stk = [cls(*args, np.random.default_rng(seed0 + i), **kwargs)
           for i in range(k)]
    return obj, cls.make_stack(stk)


STACKED_CASES = [
    (CountMinSketch, (32, 4), {}),
    (CountSketch, (32, 5), {}),
    (CountSketch, (32, 5), {"track_candidates": 4}),
    (AMSSketch, (6, 3), {}),
]


def _state(sketch):
    if isinstance(sketch, CountMinSketch):
        return sketch._table
    if isinstance(sketch, CountSketch):
        return sketch._table
    return sketch._y


def _candidates(sketch):
    return list(getattr(sketch, "_candidates", ()))


def _chunk(kind, rng, size, top):
    """Items below ``top`` with some at ``DENSE_CAP`` and above (a
    sparse chunk), or turnstile deltas with a zero-sum item."""
    items = rng.integers(0, top, size=size).astype(np.int64)
    if kind == "sparse":
        items[::7] += DENSE_CAP
        return items, None
    deltas = rng.choice([-2, -1, 1, 2], size=size).astype(np.int64)
    # Item top + 1 cancels to zero; it must stay in the chunk's support.
    return (np.concatenate([items, [top + 1, top + 1]]),
            np.concatenate([deltas, [3, -3]]))


CHUNK_CASES = [
    (kind, cls, args, kwargs)
    for kind in ("sparse", "turnstile")
    for cls, args, kwargs in STACKED_CASES
    if kind == "sparse" or cls.supports_deletions
]


class TestSketchStacks:
    @pytest.mark.parametrize("cls,args,kwargs", STACKED_CASES)
    def test_feed_matches_update_batch(self, cls, args, kwargs):
        rng = np.random.default_rng(7)
        items = rng.integers(0, 100, size=3000).astype(np.int64)
        obj, stack = _twins(cls, args, 4, **kwargs)
        stack.feed(stack.prepare(items, None), range(4))
        for o in obj:
            o.update_batch(items)
        for i in range(4):
            assert np.array_equal(_state(obj[i]), _state(stack.sketches[i]))
            assert obj[i].query() == stack.sketches[i].query()
            assert _candidates(obj[i]) == _candidates(stack.sketches[i])
        assert np.array_equal(
            stack.query_all(),
            np.array([o.query() for o in obj], dtype=np.float64),
        )

    @pytest.mark.parametrize("cls,args,kwargs", STACKED_CASES)
    def test_partial_plane_feed(self, cls, args, kwargs):
        rng = np.random.default_rng(8)
        items = rng.integers(0, 64, size=500).astype(np.int64)
        obj, stack = _twins(cls, args, 4, **kwargs)
        stack.feed(stack.prepare(items, None), [1, 3])
        obj[1].update_batch(items)
        obj[3].update_batch(items)
        for i in range(4):
            assert np.array_equal(_state(obj[i]), _state(stack.sketches[i]))

    @pytest.mark.parametrize("kind,cls,args,kwargs", CHUNK_CASES)
    def test_sparse_and_turnstile_chunks(self, kind, cls, args, kwargs):
        """Chunks off the dense path, or with zero-sum items, feed and
        subset exactly as the object path does."""
        rng = np.random.default_rng(13)
        # Few enough distinct items that candidate tracking keeps them all.
        items, deltas = _chunk(kind, rng, 1000, 12)
        part = slice(117, 803)
        sub = (items[part], None if deltas is None else deltas[part])
        obj, stack = _twins(cls, args, 3, **kwargs)
        full = stack.prepare(items, deltas)
        stack.feed(full, range(3))
        stack.feed(stack.subset(full, *sub), [0, 2])
        for i, o in enumerate(obj):
            o.update_batch(items, deltas)
            if i != 1:
                o.update_batch(*sub)
        for i in range(3):
            assert np.array_equal(_state(obj[i]), _state(stack.sketches[i]))
            assert _candidates(obj[i]) == _candidates(stack.sketches[i])

    @pytest.mark.parametrize("cls,args,kwargs", STACKED_CASES)
    def test_subset_prep_matches_fresh_prepare(self, cls, args, kwargs):
        rng = np.random.default_rng(9)
        items = rng.integers(0, 80, size=1000).astype(np.int64)
        lo, hi = 117, 803
        obj, stack = _twins(cls, args, 3, **kwargs)
        full = stack.prepare(items, None)
        stack.feed(stack.subset(full, items[lo:hi], None), range(3))
        _, fresh_stack = _twins(cls, args, 3, **kwargs)
        fresh_stack.feed(fresh_stack.prepare(items[lo:hi], None), range(3))
        for i in range(3):
            assert np.array_equal(
                _state(stack.sketches[i]), _state(fresh_stack.sketches[i])
            )

    @pytest.mark.parametrize("cls,args,kwargs", STACKED_CASES)
    def test_save_restore_roundtrip(self, cls, args, kwargs):
        rng = np.random.default_rng(10)
        items = rng.integers(0, 64, size=400).astype(np.int64)
        _, stack = _twins(cls, args, 4, **kwargs)
        stack.feed(stack.prepare(items, None), range(4))
        before = [_state(s).copy() for s in stack.sketches]
        queries = [s.query() for s in stack.sketches]
        saved = stack.save([0, 2])
        stack.feed(stack.prepare(items, None), [0, 2])
        stack.restore(saved)
        for i in range(4):
            assert np.array_equal(_state(stack.sketches[i]), before[i])
            assert stack.sketches[i].query() == queries[i]

    @pytest.mark.parametrize("cls,args,kwargs", STACKED_CASES)
    def test_install_rebinding(self, cls, args, kwargs):
        rng = np.random.default_rng(11)
        items = rng.integers(0, 64, size=300).astype(np.int64)
        # Mostly items the first chunk memoized, plus new ones.
        later = rng.integers(0, 96, size=300).astype(np.int64)
        obj, stack = _twins(cls, args, 3, **kwargs)
        stack.feed(stack.prepare(items, None), range(3))
        fresh = cls(*args, np.random.default_rng(999), **kwargs)
        stack.install(1, fresh)
        assert stack.sketches[1] is fresh
        assert np.shares_memory(_state(fresh), stack.tables
                                if hasattr(stack, "tables") else stack.ys)
        # Feeding through the stack reaches the installed copy's plane,
        # hashed with the installed copy's own functions.
        stack.feed(stack.prepare(later, None), range(3))
        obj[1] = cls(*args, np.random.default_rng(999), **kwargs)
        for i, o in enumerate(obj):
            if i != 1:
                o.update_batch(items)
            o.update_batch(later)
        for i in range(3):
            assert np.array_equal(_state(obj[i]), _state(stack.sketches[i]))

    @pytest.mark.parametrize("cls,args,kwargs", STACKED_CASES)
    def test_step_matches_template_updates(self, cls, args, kwargs):
        rng = np.random.default_rng(12)
        items = rng.integers(0, 64, size=300).astype(np.int64)
        obj, stack = _twins(cls, args, 4, **kwargs)
        stack.feed(stack.prepare(items, None), range(4))
        for o in obj:
            o.update_batch(items)
        # Memoized items, then one the memo has never seen.
        for item, delta in [(int(items[0]), 1), (int(items[1]), 3),
                            (int(items[0]), 2), (500, 1)]:
            stack.step([0, 2, 3], item, delta)
            for i in (0, 2, 3):
                obj[i].update(item, delta)
        for i in range(4):
            assert np.array_equal(_state(obj[i]), _state(stack.sketches[i]))
            assert _candidates(obj[i]) == _candidates(stack.sketches[i])


# ----------------------------------------------------------------------
# Manager level
# ----------------------------------------------------------------------


class TestCopyManagerStacking:
    def test_homogeneous_group_stacks(self):
        mgr = CopyManager(
            lambda r: CountMinSketch(16, 3, r), 5, np.random.default_rng(0)
        )
        assert mgr.stacks and 0 in mgr.stacks

    def test_stacked_false_disables(self):
        mgr = CopyManager(
            lambda r: CountMinSketch(16, 3, r), 5,
            np.random.default_rng(0), stacked=False,
        )
        assert not mgr.stacks

    def test_unstackable_sketch_keeps_object_path(self):
        mgr = CopyManager(
            lambda r: KMVSketch(16, r), 5, np.random.default_rng(0)
        )
        assert not mgr.stacks

    def test_single_copy_group_not_stacked(self):
        mgr = CopyManager.grouped(
            [(lambda r: CountMinSketch(16, 3, r), 1),
             (lambda r: KMVSketch(16, r), 2)],
            np.random.default_rng(0),
        )
        assert not mgr.stacks

    def test_estimate_all_is_ndarray_on_both_paths(self):
        for stacked in (True, False):
            mgr = CopyManager(
                lambda r: CountMinSketch(16, 3, r), 4,
                np.random.default_rng(0), stacked=stacked,
            )
            ys = mgr.estimate_all()
            assert isinstance(ys, np.ndarray) and ys.dtype == np.float64
            assert len(ys) == 4
            sub = mgr.estimate_all((2, 0))
            assert isinstance(sub, np.ndarray) and len(sub) == 2
            assert sub[0] == ys[2] and sub[1] == ys[0]


# ----------------------------------------------------------------------
# Protocol level: stacked estimator vs per-object twin (Hypothesis)
# ----------------------------------------------------------------------


def _cs_estimator(stacked, budget=None):
    return SwitchingEstimator(
        factory=lambda rng: CountSketch(24, 3, rng, track_candidates=0),
        copies=5, rng=np.random.default_rng(42),
        band=MultiplicativeBand(0.4),
        discipline=PrivateAggregateDiscipline(
            noise_scale=0.02, switch_budget=budget, on_exhausted="retire"
        ),
        stacked=stacked,
    )


def _cm_ring(stacked):
    return SwitchingEstimator(
        factory=lambda rng: CountMinSketch(24, 3, rng),
        copies=5, rng=np.random.default_rng(42),
        band=MultiplicativeBand(0.4),
        discipline=ActiveCopyDiscipline(), restart=True,
        stacked=stacked,
    )


def _ladder_estimator(stacked):
    ladder = DifferenceLadder([
        LadderTier(copies=2, noise_scale=0.1, capacity=3, span=0.35),
        LadderTier(copies=2, noise_scale=0.05, capacity=2, span=0.7),
    ])
    fac = lambda rng: AMSSketch(4, 3, rng)
    manager = CopyManager.grouped(
        [(fac, 2), (fac, 2), (fac, 4)],
        np.random.default_rng(42), stacked=stacked,
    )
    return SwitchingEstimator(
        copies=manager, band=MultiplicativeBand(0.4),
        discipline=DifferenceAggregateDiscipline(
            ladder=ladder, noise_scale=0.05, on_exhausted="retire"
        ),
        stacked=stacked,
    )


def _trace_chunked(est, items, chunk):
    trace = []
    for lo in range(0, len(items), chunk):
        est.update_chunk(np.asarray(items[lo:lo + chunk], dtype=np.int64))
        trace.append((est.query(), est.switches))
    return trace


def _trace_engine(est, items, chunk, engine):
    trace = []
    with engine.session(est) as session:
        for lo in range(0, len(items), chunk):
            session.feed(np.asarray(items[lo:lo + chunk], dtype=np.int64))
            trace.append((session.query(), est.switches))
    return trace


def _trace_per_item(est, items):
    trace = []
    for item in items:
        est.process_update(int(item), 1)
    trace.append((est.query(), est.switches))
    return trace


class TestStackedTwinEquivalence:
    """Stacked vs ``stacked=False`` twin along each execution path.

    Compared *per path* (not across paths): float-state sketches only
    promise cross-path equality up to summation order, but within one
    path the stacked run must be bit-for-bit the object run.
    """

    @settings(max_examples=12, deadline=None)
    @given(
        items=st.lists(st.integers(0, 63), min_size=100, max_size=600),
        chunk=st.sampled_from([37, 128, 250]),
    )
    def test_dp_chunked(self, items, chunk):
        t1 = _trace_chunked(_cs_estimator(True), items, chunk)
        t0 = _trace_chunked(_cs_estimator(False), items, chunk)
        assert t1 == t0

    @settings(max_examples=8, deadline=None)
    @given(items=st.lists(st.integers(0, 63), min_size=50, max_size=300))
    def test_dp_per_item(self, items):
        t1 = _trace_per_item(_cs_estimator(True), items)
        t0 = _trace_per_item(_cs_estimator(False), items)
        assert t1 == t0

    @settings(max_examples=10, deadline=None)
    @given(
        items=st.lists(st.integers(0, 63), min_size=100, max_size=600),
        chunk=st.sampled_from([64, 200]),
    )
    def test_dp_serial_engine(self, items, chunk):
        t1 = _trace_engine(_cs_estimator(True), items, chunk, SerialEngine())
        t0 = _trace_engine(_cs_estimator(False), items, chunk, SerialEngine())
        assert t1 == t0

    @needs_fork
    @settings(max_examples=4, deadline=None)
    @given(
        items=st.lists(st.integers(0, 63), min_size=100, max_size=400),
        chunk=st.sampled_from([64, 200]),
    )
    def test_dp_process_engine(self, items, chunk):
        engine = ProcessEngine(workers=2)
        t1 = _trace_engine(_cs_estimator(True), items, chunk, engine)
        t0 = _trace_engine(_cs_estimator(False), items, chunk, engine)
        assert t1 == t0
        # Serial-engine agreement too: the workers stack their shards
        # anew and collect installs their copies back plane by plane,
        # so this pins the shard / collect lifecycle.
        t2 = _trace_engine(_cs_estimator(True), items, chunk, SerialEngine())
        assert t1 == t2

    @settings(max_examples=10, deadline=None)
    @given(
        items=st.lists(st.integers(0, 63), min_size=200, max_size=800),
        chunk=st.sampled_from([50, 160, 320]),
    )
    def test_dp_budget_refresh_mid_stream(self, items, chunk):
        """A tiny SVT budget forces whole-copy-set retirement (every
        plane reseeded through ``CopyManager.install``) mid-stream."""
        a = _cs_estimator(True, budget=2)
        b = _cs_estimator(False, budget=2)
        t1 = _trace_chunked(a, items, chunk)
        t0 = _trace_chunked(b, items, chunk)
        assert t1 == t0
        assert a.discipline.generations == b.discipline.generations

    @settings(max_examples=12, deadline=None)
    @given(
        items=st.lists(st.integers(0, 63), min_size=100, max_size=600),
        chunk=st.sampled_from([48, 130, 260]),
    )
    def test_restart_ring_chunked(self, items, chunk):
        t1 = _trace_chunked(_cm_ring(True), items, chunk)
        t0 = _trace_chunked(_cm_ring(False), items, chunk)
        assert t1 == t0

    @settings(max_examples=8, deadline=None)
    @given(
        items=st.lists(st.integers(0, 31), min_size=150, max_size=600),
        chunk=st.sampled_from([64, 220]),
    )
    def test_difference_ladder_chunked(self, items, chunk):
        """Grouped AMS manager under the difference ladder: tier-group
        refreshes and strong checkpoints run through three stacks."""
        a = _ladder_estimator(True)
        b = _ladder_estimator(False)
        t1 = _trace_chunked(a, items, chunk)
        t0 = _trace_chunked(b, items, chunk)
        assert t1 == t0
        assert a.discipline.strong_charges == b.discipline.strong_charges

    @settings(max_examples=6, deadline=None)
    @given(
        items=st.lists(st.integers(0, 31), min_size=150, max_size=500),
        chunk=st.sampled_from([64, 200]),
    )
    def test_difference_ladder_serial_engine(self, items, chunk):
        t1 = _trace_engine(_ladder_estimator(True), items, chunk,
                           SerialEngine())
        t0 = _trace_engine(_ladder_estimator(False), items, chunk,
                           SerialEngine())
        assert t1 == t0

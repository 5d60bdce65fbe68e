"""Copy lifecycle for the switching protocols: allocate, burn, restart.

Every switching construction pays its robustness budget in *copies* —
independent instances of a static sketch, one active at a time.  The
:class:`CopyManager` owns that lifecycle and nothing else:

* **allocation** — ``copies`` instances from a factory, seeded through
  one ``SeedSequence.spawn`` pass so the independence assumption of
  Lemma 3.6 holds uniformly (plus one extra child generator kept as the
  fresh-randomness pool for replacements).  :meth:`CopyManager.grouped`
  allocates *heterogeneous copy groups* instead — contiguous index
  ranges each built by its own factory, one seeding pass across all of
  them — which is what the difference-estimator ladder
  (:mod:`repro.core.ladder`) uses: cheap difference-estimator tiers in
  the low groups, the strong checkpoint sketches in the last.  Grouped
  sets have no burn order (``advance`` raises); their lifecycle is
  per-group :meth:`refresh`, driven by a group-aware discipline;
* **burn-and-advance** — plain Algorithm 1 mode walks forward through
  the copy list and raises :class:`SketchExhaustedError` (or clamps)
  when the flip budget runs out; restart mode (Theorem 4.1) treats the
  list as a ring, replacing each burned slot with a freshly seeded
  instance;
* **replacement seeding** — :meth:`replacement_rng` derives each
  restarted copy's generator from the fresh pool with the same
  ``spawn_rngs`` derivation that seeded the initial copies.  Both the
  serial estimator and the engine's sharded drivers draw replacements
  from here *on the coordinator*, which is what makes restarted copies —
  and therefore published outputs — bit-for-bit identical across
  execution modes;
* **stacked copy groups** — homogeneous groups of a stackable sketch
  (CountMin, CountSketch, AMS) fuse their array state into one
  :class:`~repro.sketches.stacking.SketchStack` per group: one stacked
  array for all k copies, one shared per-chunk hash pass (over the
  items the stack's column memo does not hold yet), one vectorized
  ``query_all``.  The original sketch objects stay installed
  in :attr:`CopyManager.sketches` as *templates* whose array attributes
  are views into the stack, so per-item updates and individual queries
  keep working unchanged, and every result is bit-for-bit identical to
  the per-object path.  Any code that swaps a copy object while stacks
  are live must go through :meth:`CopyManager.install`;
* **shards** — :meth:`CopyManager.shard` wraps a contiguous range of
  the copies in a manager of its own, with the groups cut at the range
  ends and restacked; a process-engine worker drives its shard of the
  copies through one.

The band decision itself lives in :mod:`repro.core.bands`; the drive
loop in :mod:`repro.core.sketch_switching`.  :class:`LocalCopyBackend`
is the one implementation of the copy-backend interface the drive loop
talks to: the serial paths run it on the estimator's manager, and every
process-engine worker runs it on its shard (the engine's proxy only
forwards calls, see :mod:`repro.engine.executor`).
"""

from __future__ import annotations

import numpy as np

from repro.core.ladder import require_count
from repro.obs import (
    NULL_TELEMETRY,
    CopyBurnEvent,
    CopyRetireEvent,
    RingAdvanceEvent,
)
from repro.sketches.base import Sketch, SketchFactory, spawn_rngs


class SketchExhaustedError(RuntimeError):
    """All sketch copies were burned: the flip-number budget was exceeded.

    Under the theorems' preconditions this happens only with probability
    delta; in experiments it signals an undersized ``copies`` parameter.
    """


def _query_planes(out: np.ndarray, stack, planes, positions) -> None:
    """Write the estimates of ``planes`` of ``stack`` to ``out[positions]``.

    More than one plane costs one vectorized ``query_all`` reduction; a
    single plane reads its template directly (same value, bit for bit).
    """
    if len(planes) > 1:
        out[positions] = stack.query_all()[planes]
    else:
        out[positions[0]] = stack.sketches[planes[0]].query()


class CopyManager:
    """Owns the copies of one switching estimator and their lifecycle.

    Parameters
    ----------
    factory:
        Builds one independent static tracker per call.
    copies:
        Instance count: the flip-number bound in plain mode, or the
        Theorem 4.1 ring size in restart mode.
    rng:
        Seeds the copies (and the fresh-randomness replacement pool).
    restart:
        Ring mode: burned slots are replaced instead of abandoned.
    on_exhausted:
        Plain-mode behaviour when every copy is burned: ``"raise"``
        (default) or ``"clamp"`` (keep the last copy active).
    stacked:
        Whether eligible homogeneous groups fuse their array state into
        stacked copy groups (the default).  ``False`` forces the
        per-object path — the bit-for-bit twin the equivalence suite and
        the bench gates compare against.
    """

    def __init__(
        self,
        factory: SketchFactory,
        copies: int,
        rng: np.random.Generator,
        restart: bool = False,
        on_exhausted: str = "raise",
        stacked: bool = True,
    ):
        if copies < 1:
            raise ValueError(f"copies must be >= 1, got {copies}")
        rngs = spawn_rngs(rng, copies + 1)
        self._init(
            [factory(r) for r in rngs[:copies]], ((0, copies),), (factory,),
            rngs[copies], restart, on_exhausted, stacked,
        )

    def _init(self, sketches, slices, factories, fresh_rng, restart,
              on_exhausted, stacked) -> None:
        """Adopt already-built copies: the one initializer behind
        ``__init__``, :meth:`grouped` and :meth:`shard`."""
        if on_exhausted not in ("raise", "clamp"):
            raise ValueError(f"unknown on_exhausted mode {on_exhausted!r}")
        self.restart = restart
        self.on_exhausted = on_exhausted
        #: Telemetry hub for the whole switching stack: the estimator,
        #: the disciplines, and the ladder all bind to this manager, so
        #: installing an enabled bundle here makes every protocol seam
        #: observable.  Defaults to the no-op singleton.
        self.telemetry = NULL_TELEMETRY
        self._fresh_rng = fresh_rng
        self.sketches: list[Sketch] = list(sketches)
        #: Contiguous (lo, hi) index range per copy group; one group for
        #: the homogeneous manager, tiers-then-strong for grouped sets.
        self.group_slices: tuple[tuple[int, int], ...] = tuple(slices)
        self._group_factories: tuple[SketchFactory, ...] = tuple(factories)
        #: The last group's factory (the strong group of a grouped set);
        #: ungrouped surfaces that build whole-set replacements must go
        #: through `factory_for`.
        self.factory = self._group_factories[-1]
        #: Monotone activation counter; the active slot is ``rho % count``.
        self.rho = 0
        self._stack_enabled = stacked
        self._build_stacks()

    @classmethod
    def grouped(
        cls,
        groups,
        rng: np.random.Generator,
        on_exhausted: str = "raise",
        stacked: bool = True,
    ) -> "CopyManager":
        """Allocate heterogeneous copy groups: ``[(factory, count), ...]``.

        All copies across all groups are seeded through **one**
        ``spawn_rngs`` pass (plus the shared fresh pool), so the
        Lemma 3.6 independence argument is uniform across groups exactly
        as it is across a homogeneous set.  Groups occupy contiguous
        index ranges in declaration order; the convention of the
        difference ladder is cheap tiers first, strong group last.
        Grouped sets have no burn order — :meth:`advance` raises — and
        no restart ring; their lifecycle is per-group :meth:`refresh`.
        """
        specs = list(groups)
        if not specs:
            raise ValueError("need at least one copy group")
        for g, (_, count) in enumerate(specs):
            require_count(f"group {g} copy count", count)
        specs = [(factory, int(count)) for factory, count in specs]
        total = sum(count for _, count in specs)
        rngs = spawn_rngs(rng, total + 1)
        sketches, slices = [], []
        for factory, count in specs:
            lo = len(sketches)
            sketches.extend(factory(r) for r in rngs[lo:lo + count])
            slices.append((lo, lo + count))
        self = cls.__new__(cls)
        self._init(sketches, slices, [factory for factory, _ in specs],
                   rngs[total], False, on_exhausted, stacked)
        return self

    def shard(self, indices) -> "CopyManager":
        """A manager over the contiguous copy range ``indices``.

        What a process-engine worker drives: it adopts this manager's
        sketch objects as they are (no reseeding), with the group slices
        intersected with the range and renumbered from 0, so
        :meth:`factory_for` takes shard-local indices, and a group keeps
        at least two of its copies in the shard stacks again (unless
        ``stacked=False`` was set here).  A shard draws no replacement
        RNGs — the coordinator derives them and forwards each through
        ``replace`` — so it has no fresh pool.  Stacking rebinds the
        adopted objects' arrays to the shard's own stacks, out of reach
        of this manager's; hence only a forked worker, holding its own
        copies of the objects, shards a live manager.
        """
        idxs = list(indices)
        if not idxs or idxs != list(range(idxs[0], idxs[0] + len(idxs))):
            raise ValueError("a shard must be a non-empty contiguous range")
        start, stop = idxs[0], idxs[-1] + 1
        if stop > len(self.sketches):
            raise IndexError(f"copy index {stop - 1} out of range")
        slices, factories = [], []
        for (lo, hi), factory in zip(self.group_slices,
                                     self._group_factories):
            lo, hi = max(lo, start), min(hi, stop)
            if lo < hi:
                slices.append((lo - start, hi - start))
                factories.append(factory)
        sub = CopyManager.__new__(CopyManager)
        sub._init(self.sketches[start:stop], slices, factories, None,
                  self.restart, self.on_exhausted, self._stack_enabled)
        return sub

    # -- stacked copy groups --------------------------------------------

    def _build_stacks(self) -> None:
        """Fuse each eligible homogeneous group into a sketch stack.

        A group qualifies when it has at least two copies of one
        stackable sketch class; ``make_stack`` adopts the copies' arrays
        into one stacked block and rebinds them as plane views.  The
        copies stay in :attr:`sketches` as templates.
        """
        self.stacks: dict[int, "SketchStack"] = {}
        self._plane_of: dict[int, tuple[int, int]] = {}
        if not self._stack_enabled:
            return
        for g, (lo, hi) in enumerate(self.group_slices):
            if hi - lo < 2:
                continue
            group = self.sketches[lo:hi]
            cls = type(group[0])
            if not getattr(cls, "stackable", False):
                continue
            if any(type(s) is not cls for s in group):
                continue
            stack = cls.make_stack(group)
            if stack is None:
                continue
            self.stacks[g] = stack
            for plane, idx in enumerate(range(lo, hi)):
                self._plane_of[idx] = (g, plane)

    def stack_plan(self, indices):
        """Split copy indices into per-stack plane runs plus leftovers.

        Returns ``(parts, rest)``: ``parts`` is a list of
        ``(stack, planes, positions)`` triples — ``positions`` being the
        offsets of those copies inside ``indices`` so callers can
        reassemble per-copy results in request order — and ``rest`` the
        ``(position, index)`` pairs served by the object path.
        """
        parts: dict[int, tuple] = {}
        rest: list[tuple[int, int]] = []
        for pos, idx in enumerate(indices):
            hit = self._plane_of.get(idx)
            if hit is None:
                rest.append((pos, idx))
                continue
            g, plane = hit
            entry = parts.get(g)
            if entry is None:
                entry = parts[g] = (self.stacks[g], [], [])
            entry[1].append(plane)
            entry[2].append(pos)
        return list(parts.values()), rest

    def install(self, idx: int, sketch: Sketch) -> None:
        """Install ``sketch`` as the copy at ``idx``, stack-aware.

        The single sanctioned swap point while stacks are live: the
        incoming sketch's array state is copied into its plane and its
        array attribute rebound to the plane view, keeping template and
        stack coherent.  Falls back to a plain list assignment for
        unstacked copies.
        """
        hit = self._plane_of.get(idx)
        if hit is not None:
            g, plane = hit
            self.stacks[g].install(plane, sketch)
        self.sketches[idx] = sketch

    @property
    def count(self) -> int:
        return len(self.sketches)

    @property
    def group_count(self) -> int:
        return len(self.group_slices)

    def group_indices(self, group: int) -> tuple[int, ...]:
        """The contiguous copy indices of one group."""
        lo, hi = self.group_slices[group]
        return tuple(range(lo, hi))

    def factory_for(self, idx: int) -> SketchFactory:
        """The factory that builds (and rebuilds) the copy at ``idx``."""
        if not 0 <= idx < len(self.sketches):
            raise IndexError(f"copy index {idx} out of range")
        for (lo, hi), factory in zip(self.group_slices,
                                     self._group_factories):
            if lo <= idx < hi:
                return factory
        return self.factory  # pragma: no cover - slices always cover

    @property
    def active_index(self) -> int:
        return self.rho % len(self.sketches)

    @property
    def active(self) -> Sketch:
        return self.sketches[self.active_index]

    def replacement_rng(self) -> np.random.Generator:
        """Derive the next restarted copy's RNG from the fresh pool.

        Uses the same ``spawn_rngs`` derivation that seeded the initial
        copies, keeping the independence argument (Lemma 3.6) uniform
        across original and restarted instances.  The engine's parallel
        driver calls this on the coordinator so the RNG sequence — and
        therefore every restarted copy — is bit-for-bit the serial one.
        """
        return spawn_rngs(self._fresh_rng, 1)[0]

    def estimate_all(self, indices=None) -> np.ndarray:
        """Query a set of copies (default: all), in index order.

        The probe surface of the aggregate disciplines: the DP framework
        reads every copy's estimate per decision instead of the active
        one's.  Returns a float64 array; stacked groups answer with one
        vectorized ``query_all`` reduction instead of k Python calls
        (bit-for-bit the same values).  In-process only; the engines
        read sharded copies through their backend's probe ops.
        """
        if indices is None:
            indices = range(len(self.sketches))
        idxs = list(indices)
        out = np.empty(len(idxs), dtype=np.float64)
        parts, rest = self.stack_plan(idxs)
        for stack, planes, positions in parts:
            _query_planes(out, stack, planes, positions)
        for pos, idx in rest:
            out[pos] = self.sketches[idx].query()
        return out

    def retire(self, idx: int, replace=None) -> None:
        """Retire one copy: replace it with a freshly seeded instance.

        The DP disciplines' lifecycle primitive — unlike
        :meth:`advance`, retirement does not move the active cursor or
        consume the plain-mode flip budget; the slot is simply reborn.
        ``replace(index, rng)`` installs the rebuilt copy wherever it
        lives (the engines pass their backend's replace); the RNG is
        always derived here, on the coordinator.
        """
        rng = self.replacement_rng()
        if replace is None:
            self.install(idx, self.factory_for(idx)(rng))
        else:
            replace(idx, rng)
        tele = self.telemetry
        if tele.enabled:
            tele.emit(CopyRetireEvent(index=idx))
            tele.metrics.counter(
                "copies_retired_total", "copies reborn via retire/refresh"
            ).inc()

    def refresh(self, indices=None, replace=None) -> None:
        """Retire a set of copies (default: all), in index order.

        Used by :class:`~repro.core.disciplines.PrivateAggregateDiscipline`
        when the sparse-vector budget is exhausted: the whole copy set is
        reborn and the guarantee window restarts.  Deterministic across
        execution modes because each retirement draws its RNG through
        :meth:`replacement_rng` in index order.
        """
        if indices is None:
            indices = range(len(self.sketches))
        for idx in indices:
            self.retire(idx, replace=replace)

    def advance(self, switches: int, replace=None) -> None:
        """Burn the active copy and activate the next.

        ``replace(index, rng)`` builds and installs the restarted copy;
        the default builds it locally via the factory.  The engine passes
        its backend's replace so the instance is constructed wherever the
        burned copy lives (possibly a worker process) from a
        coordinator-derived RNG.  ``switches`` only feeds the exhaustion
        message.
        """
        if len(self.group_slices) > 1:
            raise RuntimeError(
                "grouped copy sets have no burn order; drive them with a "
                "group-aware discipline (difference ladder / private "
                "aggregate), not active-copy switching"
            )
        tele = self.telemetry
        if self.restart:
            burned = self.rho % len(self.sketches)
            rng = self.replacement_rng()
            if replace is None:
                self.install(burned, self.factory(rng))
            else:
                replace(burned, rng)
            self.rho += 1
            if tele.enabled:
                tele.emit(RingAdvanceEvent(slot=burned, rho=self.rho))
                tele.metrics.counter(
                    "copies_burned_total", "copies burned by switches"
                ).inc()
            return
        if self.rho + 1 >= len(self.sketches):
            if self.on_exhausted == "raise":
                raise SketchExhaustedError(
                    f"all {len(self.sketches)} copies burned after "
                    f"{switches} switches; flip-number budget exceeded"
                )
            return  # clamp: keep using the last copy
        if tele.enabled:
            tele.emit(CopyBurnEvent(index=self.rho % len(self.sketches)))
            tele.metrics.counter(
                "copies_burned_total", "copies burned by switches"
            ).inc()
        self.rho += 1


class LocalCopyBackend:
    """In-process copy backend: feeds and snapshots act on the manager.

    The copy backend the switching protocol drives, in process or
    inside each process-engine worker over its shard (the engine's
    proxy in :mod:`repro.engine.executor` forwards the same calls).
    Methods come in two groups: *probed-copy probe/search*
    ops, which snapshot/feed/step the copies the estimator's probe
    discipline reads (the active copy alone under
    :class:`~repro.core.disciplines.ActiveCopyDiscipline`, every copy
    under the private-aggregate discipline) — ``probes`` is always a
    tuple of copy indices — and *non-probed* fan-out feeds, whose
    ``exclude`` is the same tuple (empty for uniform fan-outs such as
    the heavy-hitters ring).

    When the manager carries stacked copy groups, the bulk feeds route
    through the stacks: a staged chunk is aggregated and hashed **once**
    per stack (``prepare``) and the resulting columns are reused across
    the probe feed, the non-probed fan-out, and any replay catch-ups
    over the same arrays — the shared hash pass that makes k copies cost
    one kernel invocation instead of k call chains.  Bisection-leaf
    steps go through the stack too (``SketchStack.step``).  Results are
    bit-for-bit those of the per-object path.
    """

    def __init__(self, copies: CopyManager, unique_hint: bool = False):
        self._copies = copies
        self._unique_hint = unique_hint
        self._items: np.ndarray | None = None
        self._deltas: np.ndarray | None = None
        self._sub: tuple[np.ndarray, np.ndarray | None] | None = None
        self._sub_unique = False
        #: Stack of per-probe snapshot records:
        #: {"stacks": [(stack, saved)], "objects": [(idx, snapshot)]}
        self._snap_stack: list[dict] = []
        #: Prepared-chunk cache: one aggregation + stacked hash pass per
        #: staged array region per stack, reused across probe/feed ops.
        self._prep: dict[tuple, object] = {}

    @property
    def capacity(self) -> int:
        return 1 << 62  # no buffer to overflow

    def stage(self, items: np.ndarray, deltas: np.ndarray) -> None:
        self._items, self._deltas = items, deltas
        self._prep.clear()

    def stage_sub(self, items, deltas, assume_unique: bool) -> None:
        """Stage a pre-processed (deduped/aggregated) feed without probing.

        Used by uniform fan-outs that have no copy to probe (the
        heavy-hitters ring): ``feed_others_sub(())`` then feeds every
        copy the staged arrays.
        """
        self._sub = (items, deltas)
        self._sub_unique = assume_unique
        self._prep.clear()

    def _feed_one(self, sketch: Sketch, items, deltas, assume_unique) -> None:
        if assume_unique and self._unique_hint:
            sketch.update_batch(items, deltas, assume_unique=True)
        else:
            sketch.update_batch(items, deltas)

    def _prepared(self, key: tuple, stack, items, deltas):
        prep = self._prep.get(key)
        if prep is None:
            prep = stack.prepare(items, deltas)
            self._prep[key] = prep
        return prep

    def _raw_prepared(self, stack, lo: int, hi: int):
        """Prepared chunk for ``raw[lo:hi]``, hashing each chunk once.

        Subranges (crossing-search bisection, catch-up replays) are
        derived from one full-chunk prep by gathering the slice's hash
        columns (:meth:`SketchStack.subset`), so a crossing costs one
        stacked hash pass instead of one per bisection round.  Only the
        full-chunk prep is cached: a crossing chunk asks for dozens of
        distinct subranges, each about once.
        """
        key = ("raw", id(stack))
        full = self._prep.get(key)
        if full is None:
            full = self._prep[key] = stack.prepare(self._items, self._deltas)
        if lo == 0 and hi == len(self._items):
            return full
        return stack.subset(full, self._items[lo:hi], self._deltas[lo:hi])

    def _feed_probes(self, probes, prep, feed_object,
                     save: bool = False) -> np.ndarray:
        """Feed the probed copies one staged range; return their estimates.

        ``prep(stack)`` gives the stacked groups' prepared chunk and
        ``feed_object(sketch)`` feeds a copy on the object path.  With
        ``save`` the probed copies are snapshotted first, as one record
        that :meth:`keep_probed` drops and :meth:`roll_probed` restores.
        """
        copies = self._copies
        ys = np.empty(len(probes), dtype=np.float64)
        parts, rest = copies.stack_plan(probes)
        record = {"stacks": [], "objects": []}
        for stack, planes, positions in parts:
            if save:
                record["stacks"].append((stack, stack.save(planes)))
            stack.feed(prep(stack), planes)
            _query_planes(ys, stack, planes, positions)
        for pos, idx in rest:
            sk = copies.sketches[idx]
            if save:
                record["objects"].append((idx, sk.snapshot()))
            feed_object(sk)
            ys[pos] = sk.query()
        if save:
            self._snap_stack.append(record)
        return ys

    def _feed_others(self, exclude, prep, feed_object) -> None:
        """Feed every copy outside ``exclude`` one staged range."""
        copies = self._copies
        excluded = set(exclude)
        others = [i for i in range(copies.count) if i not in excluded]
        parts, rest = copies.stack_plan(others)
        for stack, planes, _ in parts:
            stack.feed(prep(stack), planes)
        for _, idx in rest:
            feed_object(copies.sketches[idx])

    # -- probed-copy probe/search ops -----------------------------------

    def probe_sub(
        self, items, deltas, assume_unique: bool, probes: tuple[int, ...]
    ) -> np.ndarray:
        self.stage_sub(items, deltas, assume_unique)
        return self._feed_probes(
            probes,
            lambda stack: self._prepared(("sub", id(stack)), stack,
                                         items, deltas),
            lambda sk: self._feed_one(sk, items, deltas, assume_unique),
            save=True,
        )

    def probe_raw(self, probes: tuple[int, ...]) -> np.ndarray:
        self._sub = None
        items, deltas = self._items, self._deltas
        return self._feed_probes(
            probes,
            lambda stack: self._raw_prepared(stack, 0, len(items)),
            lambda sk: sk.update_batch(items, deltas),
            save=True,
        )

    def keep_probed(self, probes: tuple[int, ...]) -> None:
        self._snap_stack.pop()

    def roll_probed(self, probes: tuple[int, ...]) -> None:
        record = self._snap_stack.pop()
        for stack, saved in record["stacks"]:
            stack.restore(saved)
        for idx, snap in record["objects"]:
            self._copies.install(idx, snap)

    def snap_probed(self, probes: tuple[int, ...]) -> None:
        parts, rest = self._copies.stack_plan(probes)
        self._snap_stack.append({
            "stacks": [(stack, stack.save(planes))
                       for stack, planes, _ in parts],
            "objects": [
                (idx, self._copies.sketches[idx].snapshot()) for _, idx in rest
            ],
        })

    def feed_probed(
        self, lo: int, hi: int, probes: tuple[int, ...]
    ) -> np.ndarray:
        items, deltas = self._items[lo:hi], self._deltas[lo:hi]
        return self._feed_probes(
            probes,
            lambda stack: self._raw_prepared(stack, lo, hi),
            lambda sk: sk.update_batch(items, deltas),
        )

    def step_probed(self, pos: int, probes: tuple[int, ...]) -> np.ndarray:
        item, delta = int(self._items[pos]), int(self._deltas[pos])
        copies = self._copies
        ys = np.empty(len(probes), dtype=np.float64)
        # The per-copy updates and query reductions collapse into one
        # stacked pass per group.
        parts, rest = copies.stack_plan(probes)
        for stack, planes, positions in parts:
            stack.step(planes, item, delta)
            _query_planes(ys, stack, planes, positions)
        for i, idx in rest:
            sk = copies.sketches[idx]
            sk.update(item, delta)
            ys[i] = sk.query()
        return ys

    def scan_probed(
        self, lo: int, hi: int, probe: int, published: float, band
    ) -> tuple[int, float] | None:
        """Per-item scan for the first band crossing in [lo, hi).

        Single-probe fast path (identity-decide disciplines only): the
        band predicate is applied where the copy lives, with no
        round-trip per item.  Aggregating disciplines scan through
        :meth:`step_probed` with the decision made by the protocol.
        """
        sk = self._copies.sketches[probe]
        items = self._items[lo:hi].tolist()
        deltas = self._deltas[lo:hi].tolist()
        for off, (item, delta) in enumerate(zip(items, deltas)):
            sk.update(item, delta)
            y = sk.query()
            if band.crossed(published, y):
                return lo + off, y
        return None

    # -- non-probed copies ----------------------------------------------

    def feed_others_sub(self, exclude: tuple[int, ...]) -> None:
        items, deltas = self._sub
        self._feed_others(
            exclude,
            lambda stack: self._prepared(("sub", id(stack)), stack,
                                         items, deltas),
            lambda sk: self._feed_one(sk, items, deltas, self._sub_unique),
        )

    def feed_others_raw(self, exclude: tuple[int, ...]) -> None:
        self.catch_up(0, len(self._items), exclude)

    def catch_up(self, lo: int, hi: int, exclude: tuple[int, ...]) -> None:
        items, deltas = self._items[lo:hi], self._deltas[lo:hi]
        self._feed_others(
            exclude,
            lambda stack: self._raw_prepared(stack, lo, hi),
            lambda sk: sk.update_batch(items, deltas),
        )

    def replace(self, idx: int, rng: np.random.Generator) -> None:
        self._copies.install(idx, self._copies.factory_for(idx)(rng))
        # Prepared chunks carry per-plane hash columns, and a reseeded
        # copy hashes differently.
        self._prep.clear()

    def fetch(self, idx: int) -> Sketch:
        """The copy at ``idx`` (epoch wrappers snapshot it for publishing)."""
        return self._copies.sketches[idx]

    def collect_into(self, copies: CopyManager) -> None:
        pass  # copies never left the manager

    def close(self) -> None:
        self._snap_stack.clear()
        self._prep.clear()
        self._items = self._deltas = self._sub = None


"""Stacked array state for homogeneous groups of sketch copies.

The robustness constructions of Section 3 pay for adversarial robustness
in *copies*: a switching estimator keeps k independent instances of the
same static sketch and feeds every stream chunk to most of them.  With
the per-object representation that is k Python call chains per chunk —
k aggregations, k hash passes, k scatter-adds — even though the copies
differ only in their hash coefficients.

A :class:`SketchStack` stores the array state of one homogeneous copy
group as a single stacked NumPy array (one plane per copy) and turns the
per-copy loops into single kernels:

* ``prepare`` aggregates a chunk once and evaluates the hash columns for
  **all** planes in one stacked Horner sweep
  (:func:`repro.hashing.field.poly_eval_stacked`).  A *dense* chunk —
  items in a range small enough for :data:`DENSE_CAP` — aggregates by
  ``bincount`` instead of a sort, and its columns come from a per-item
  memo, so only items the stack has not seen before are hashed: a
  replay over a fixed universe hashes each item once per copy;
* ``feed`` scatter-adds a prepared chunk into any subset of planes, and
  ``step`` applies one update to several planes (bisection leaves);
* ``query_all`` reduces the whole stack to per-copy estimates in one
  vectorized pass.

The original sketch objects stay alive as *templates*: each template's
mutable array attribute is rebound to a view of its plane, so per-item
updates, point queries, snapshots, and scalar bookkeeping keep working
unchanged — in-place NumPy writes flow through the view into the stack.
Everything a stack computes is bit-for-bit identical to running the same
operations through the per-object path; the equivalence suite in
``tests/test_stacked_groups.py`` enforces this.

A sketch opts in by setting :attr:`repro.sketches.base.Sketch.stackable`
and implementing ``make_stack``.  Qualifying requires:

* array-valued mutable state of fixed shape (a counter table or
  accumulator vector) that all bulk updates mutate *in place*;
* hash families of equal degree across copies, so the stacked Horner
  sweep is well-formed;
* aggregation-invariant batch semantics, so one shared per-chunk
  aggregation feeds every plane.

List- or set-shaped state (KMV's sample list, MisraGries' counter map)
does not stack; those sketches keep the object path.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.sketches.base import aggregate_batch

#: Cap on ``top * planes * rows`` for a chunk to count as dense, where
#: every item lies in ``[0, top)``: dense chunks aggregate by
#: ``bincount`` and take their hash columns from a per-item memo of
#: ``planes * rows * top`` elements (at 16 bytes each, ~64 MB at most).
DENSE_CAP = 4_000_000


class SketchStack(abc.ABC):
    """Stacked state for a contiguous homogeneous group of sketch copies.

    Subclasses adopt the templates' arrays into one ``(planes, ...)``
    stack at construction and rebind each template's array attribute to
    its plane view.  All mutation of stacked state must go through the
    stack (``feed``/``install``/``restore``) or through in-place NumPy
    writes on a template's view; rebinding a template's array attribute
    outside :meth:`install` silently detaches it from the stack.

    A stack lives as long as its copy manager.  A forked process-engine
    worker inherits the templates and stacks its shard of them anew
    (:meth:`~repro.core.copies.CopyManager.shard`), which copies the
    planes it adopts; the coordinator's stack stays untouched until
    collect installs the workers' copies back, plane by plane.
    """

    #: Hash rows per plane; sizes the dense column memo.
    rows = 1
    #: Dtype of each array :meth:`_hash_columns` returns.
    _column_dtypes: tuple = ()

    def __init__(self, sketches):
        self.sketches = list(sketches)
        if not self.sketches:
            raise ValueError("a sketch stack needs at least one copy")
        self._adopt()
        #: Items below this bound make a chunk *dense*.
        self._dense_top = DENSE_CAP // (self.planes * self.rows)
        #: Dense memo of per-item hash columns, ``(planes, rows, size)``
        #: arrays, and which items it holds; ``None`` until first used.
        self._memo: tuple[np.ndarray, ...] | None = None
        self._known: np.ndarray | None = None

    @property
    def planes(self) -> int:
        return len(self.sketches)

    @abc.abstractmethod
    def _adopt(self) -> None:
        """Stack the templates' arrays and rebind them as plane views."""

    @abc.abstractmethod
    def prepare(self, items, deltas):
        """Aggregate a chunk and hash it once for all planes.

        Returns an opaque prepared-chunk object that :meth:`feed` can
        scatter into any subset of planes; the whole point is that one
        ``prepare`` is reused across probe, feed-others, and catch-up
        passes over the same staged chunk.  Must perform the same input
        validation, in the same order, as the sketch's ``update_batch``.
        """

    def _aggregate(self, items, deltas):
        """``aggregate_batch(items, deltas)``, by ``bincount`` when dense.

        The support is taken from occurrence counts, so zero-sum items
        stay, as they do in ``aggregate_batch``; per bin the weighted
        ``bincount`` adds in input order, so the sums are bit-for-bit
        ``aggregate_batch``'s.  ``items`` must be non-empty.
        """
        if int(items.min()) < 0 or int(items.max()) >= self._dense_top:
            return aggregate_batch(items, deltas)
        support = np.flatnonzero(np.bincount(items))
        summed = np.bincount(items, weights=deltas)[support]
        return support.astype(np.int64), summed.astype(np.int64)

    def _hash_columns(self, xs) -> tuple[np.ndarray, ...]:
        """Per-plane hash columns of ``xs``: one ``(planes, rows,
        len(xs))`` array per column kind.  Stacks that use
        :meth:`_columns` override it."""
        raise NotImplementedError

    def _columns(self, unique, full=None) -> tuple[np.ndarray, ...]:
        """:meth:`_hash_columns` of the sorted distinct ``unique``.

        Dense input is served from the memo, and only items not yet in
        it are hashed.  Other input is not stored: it is gathered out of
        ``full``, a prepared chunk of which ``unique`` covers a
        subrange (its items are all in ``full.unique``), or else hashed.
        """
        top = int(unique[-1]) + 1
        if unique[0] < 0 or top > self._dense_top:
            if full is None:
                return self._hash_columns(unique)
            idx = np.searchsorted(full.unique, unique)
            return tuple(cols[:, :, idx] for cols in full.columns)
        if self._known is None or len(self._known) < top:
            self._grow(top)
        missing = unique[~self._known[unique]]
        if len(missing):
            for memo, cols in zip(self._memo, self._hash_columns(missing)):
                memo[:, :, missing] = cols
            self._known[missing] = True
        if len(unique) == top:
            # unique is arange(top).  A view is safe: memo entries are
            # only ever written while unknown, and growth or install
            # replaces the arrays instead of writing into them.
            return tuple(memo[:, :, :top] for memo in self._memo)
        return tuple(memo[:, :, unique] for memo in self._memo)

    def _grow(self, top: int) -> None:
        """Widen the memo to hold items below ``top`` (at least doubling)."""
        held = 0 if self._known is None else len(self._known)
        size = min(self._dense_top, max(top, 2 * held))
        memo = tuple(
            np.empty((self.planes, self.rows, size), dtype=dtype)
            for dtype in self._column_dtypes
        )
        known = np.zeros(size, dtype=bool)
        if held:
            for new, old in zip(memo, self._memo):
                new[:, :, :held] = old
            known[:held] = self._known
        self._memo, self._known = memo, known

    def subset(self, prepared, items, deltas):
        """Prepared chunk for a *subrange* of an already-prepared chunk.

        ``prepared`` must be the result of :meth:`prepare` over a chunk
        of which ``items``/``deltas`` is a contiguous slice.  Subclasses
        whose prepare does per-plane hashing override this to take the
        subrange's hash columns from the memo or out of the full-chunk
        pass (:meth:`_columns`) instead of re-hashing — the
        crossing-search bisection requests many nested subranges of one
        staged chunk, so this turns O(log chunk) hash passes per
        crossing into at most one.  The default just re-prepares;
        results are bit-for-bit identical either way.
        """
        return self.prepare(items, deltas)

    def step(self, planes, item: int, delta: int) -> None:
        """One per-item update on the given planes (bisection leaves).

        The default makes the templates' own ``update`` calls, whose
        in-place writes flow through the plane views; subclasses may
        vectorize it, bit for bit.
        """
        for p in planes:
            self.sketches[p].update(item, delta)

    @abc.abstractmethod
    def feed(self, prepared, planes) -> None:
        """Scatter a prepared chunk into the given plane indices.

        Bit-for-bit identical to calling ``update_batch`` on each of the
        selected templates with the chunk the prepared object was built
        from.
        """

    @abc.abstractmethod
    def query_all(self) -> np.ndarray:
        """Per-plane estimates as one float64 array.

        ``query_all()[p]`` equals ``self.sketches[p].query()``
        bit-for-bit — same reduction ops applied per plane.
        """

    def install(self, plane: int, sketch) -> None:
        """Make ``sketch`` the template for ``plane``.

        Copies the incoming sketch's array state into the plane and
        rebinds its array attribute to the plane view.  This is the only
        sanctioned way to swap a copy (retire, restart-ring advance,
        rollback replacement, worker collect) while a stack is live.
        It drops the column memo, because a reseeded copy hashes
        differently.
        """
        self._install(plane, sketch)
        self.sketches[plane] = sketch
        self._memo = self._known = None

    @abc.abstractmethod
    def _install(self, plane: int, sketch) -> None:
        """Copy ``sketch``'s array state into ``plane`` and rebind its
        array attribute to the plane view."""

    @abc.abstractmethod
    def save(self, planes):
        """Snapshot the given planes (stacked array copy + scalar state)."""

    @abc.abstractmethod
    def restore(self, saved) -> None:
        """Undo the planes covered by a :meth:`save` snapshot in place.

        Restores array *and* scalar/auxiliary state onto the existing
        templates; template object identity is preserved, which no
        caller observes (the object path swaps in snapshot clones that
        share hashes with the originals).
        """


def stack_rows(arrays) -> np.ndarray:
    """Stack equal-shape arrays into one owned ``(planes, ...)`` block."""
    return np.stack([np.asarray(a) for a in arrays], axis=0)

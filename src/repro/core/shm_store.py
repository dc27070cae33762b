"""Shared-memory column pages: the cross-process SUM store backing.

The GIL serializes the Python half of every in-process commit, so PR 5's
sharded write plane never banked its measured win end to end.  This
module supplies the storage layer that lets each
:class:`~repro.core.sharded_store.ShardedSumStore` partition move to its
own OS process (:mod:`repro.streaming.procplane` supplies the transport):

* :class:`ShmArena` — an allocator whose arrays live in
  :class:`multiprocessing.shared_memory.SharedMemory` segments.  Plugged
  into :class:`~repro.core.sum_store.ColumnarSumStore` through its
  ``alloc`` hook, every dense block (family values/masks, user ids, EI)
  becomes a named segment any process can map — the writer process
  mutates in place and the serving process reads the *same physical
  pages* zero-copy.
* :func:`shard_layout` / :func:`adopt_layout` — the layout handshake:
  the writer process names its arrays (segment name/shape/dtype, column
  orders) in its barrier reply, and the serving process maps them.
* :class:`MultiProcSumStore` — a :class:`ShardedSumStore` whose
  partitions are arena-backed.  In-process it behaves exactly like the
  ``sharded`` backend (read-only row views, batch applies, save/load — the
  whole tier-1 surface); the process plane is engaged explicitly and
  hands each worker's barrier reply to :meth:`MultiProcSumStore.adopt_shard`.

Segment lifecycle
-----------------

``SharedMemory`` names live in ``/dev/shm`` until unlinked, and Python's
``resource_tracker`` (bpo-38119) would otherwise unlink a fork-inherited
segment when the *child* exits, yanking pages out from under the parent.
Every segment created or attached here is therefore immediately
unregistered from the tracker and owned by this module instead: arrays
are weakly tracked, dead arrays' segments are swept (closed + unlinked),
:meth:`ShmArena.close` releases everything an arena still holds, and an
``atexit`` hook closes every arena the process leaks.  Tests assert the
ledger is empty at session end (``tests/conftest.py``).
"""

from __future__ import annotations

import atexit
import weakref
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Iterable, Mapping

import numpy as np

from repro.analysis.contracts import (
    declare_lock,
    declare_order,
    guarded_by,
    make_lock,
    requires_lock,
)
from repro.core.sharded_store import ShardedSumStore
from repro.core.sum_store import ColumnarSumStore

declare_lock("ShmArena._lock")
# A shard on arena pages allocates them under its own store lock when
# it grows its rows or a column family, through the untyped ``alloc``
# callable the AST cannot follow, so the edge is declared.
declare_order("ColumnarSumStore._lock", "ShmArena._lock")

#: module-wide ledger of segment names this process created or attached
#: and has not yet released — the test-suite leak check reads it
_LIVE_SEGMENTS: dict[str, str] = {}

#: every arena this process built, for the atexit sweep (weak: an arena
#: collected after close() must not be kept alive by the hook)
_ARENAS: "weakref.WeakSet[ShmArena]" = weakref.WeakSet()


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Take a segment away from the resource tracker.

    The tracker unlinks every segment it knows about when the process
    that registered it exits — correct for one-process usage, fatal for
    fork-shared pages (the child's exit would unlink segments the parent
    still serves from).  Ownership moves to this module's explicit
    close/unlink paths instead.
    """
    try:
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker variations across 3.x
        pass


def live_segment_names() -> list[str]:
    """Names of segments this process still holds (leak-check surface)."""
    return sorted(_LIVE_SEGMENTS)


def _unlink_quiet(shm: shared_memory.SharedMemory) -> None:
    """Unlink without tracker noise.

    ``SharedMemory.unlink`` sends its own unregister message, which —
    after the creation-time :func:`_untrack` — would be the tracker's
    second and log a ``KeyError`` per segment.  Re-registering first
    balances the books.
    """
    try:
        resource_tracker.register(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker variations across 3.x
        pass
    try:
        shm.unlink()
    except FileNotFoundError:
        # the peer process already unlinked it — names are shared
        try:
            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:  # pragma: no cover
            pass


def _release_segment(
    shm: shared_memory.SharedMemory, unlink: bool
) -> bool:
    """Close (and optionally unlink) one segment; ``True`` when closed."""
    try:
        shm.close()
    except BufferError:
        # an ndarray still exports the buffer; retried on the next sweep
        return False
    if unlink:
        _unlink_quiet(shm)
    _LIVE_SEGMENTS.pop(shm.name, None)
    return True


@atexit.register
def _close_leaked_arenas() -> None:  # pragma: no cover - interpreter exit
    for arena in list(_ARENAS):
        arena.close()


@guarded_by("ShmArena._lock", "_entries", "_by_addr")
class ShmArena:
    """Allocates and tracks the shared-memory segments behind one store.

    ``alloc(shape, dtype)`` satisfies the
    :class:`~repro.core.sum_store.ColumnarSumStore` allocator contract:
    a zero-filled writable array (POSIX shm is zero pages by
    construction).  Each array maps 1:1 to one segment;
    :meth:`name_of` recovers the segment name from the array so the
    writer process can publish its layout, and :meth:`attach` maps a
    published segment in a peer process.

    Replaced arrays (capacity growth, compaction) are weakly tracked:
    once the array is garbage its segment is swept — closed and
    unlinked.  Unlinking only removes the *name*; processes that already
    map the segment keep valid pages, which is exactly the refresh
    protocol's window (the serving process re-attaches by name at the
    next sync, before the old name could be reused).
    """

    def __init__(self, tag: str = "sum") -> None:
        self.tag = str(tag)
        self._lock = make_lock("ShmArena._lock")
        #: segment name -> (segment, weakref to its array or None)
        self._entries: dict[
            str, tuple[shared_memory.SharedMemory, weakref.ref | None]
        ] = {}
        #: array data address -> segment name (name_of's index; addresses
        #: are stable for the array's lifetime and freed entries are
        #: dropped by the sweep before the address could be reused)
        self._by_addr: dict[int, str] = {}
        self._closed = False
        _ARENAS.add(self)

    # -- allocation ----------------------------------------------------------

    def alloc(self, shape: tuple[int, ...], dtype: Any) -> np.ndarray:
        """A zero-filled writable array on a fresh shared segment."""
        if self._closed:
            raise ValueError(f"arena {self.tag!r} is closed")
        dt = np.dtype(dtype)
        nbytes = max(1, int(np.prod(shape, dtype=np.int64)) * dt.itemsize)
        shm = shared_memory.SharedMemory(create=True, size=nbytes)
        _untrack(shm)
        array: np.ndarray = np.ndarray(shape, dtype=dt, buffer=shm.buf)
        with self._lock:
            self._register(shm, array)
            self._sweep_locked()
        return array

    def attach(
        self, name: str, shape: tuple[int, ...], dtype: Any
    ) -> np.ndarray:
        """Map a peer process's published segment as a writable array.

        Idempotent per name: re-attaching a segment this arena already
        maps returns the existing array (one mapping per process keeps
        ``name_of`` single-valued).
        """
        if self._closed:
            raise ValueError(f"arena {self.tag!r} is closed")
        with self._lock:
            entry = self._entries.get(name)
            if entry is not None:
                existing = entry[1]() if entry[1] is not None else None
                if existing is not None:
                    return existing
                # stale mapping (array died): drop the old handle before
                # remapping, or its fd would leak
                _release_segment(entry[0], unlink=False)
                del self._entries[name]
            shm = shared_memory.SharedMemory(name=name)
            _untrack(shm)
            array: np.ndarray = np.ndarray(
                tuple(shape), dtype=np.dtype(dtype), buffer=shm.buf
            )
            self._register(shm, array)
            return array

    @requires_lock("ShmArena._lock")
    def _register(
        self, shm: shared_memory.SharedMemory, array: np.ndarray
    ) -> None:
        address = int(array.__array_interface__["data"][0])
        self._entries[shm.name] = (shm, weakref.ref(array))
        self._by_addr[address] = shm.name
        _LIVE_SEGMENTS[shm.name] = self.tag

    # -- lookup ---------------------------------------------------------------

    def name_of(self, array: np.ndarray) -> str:
        """The segment name backing ``array`` (raises if not arena-backed)."""
        address = int(array.__array_interface__["data"][0])
        name = self._by_addr.get(address)
        if name is None:
            raise KeyError(
                f"array at {address:#x} is not backed by arena {self.tag!r}"
            )
        return name

    def segment_names(self) -> list[str]:
        return sorted(self._entries)

    # -- reclamation ----------------------------------------------------------

    @requires_lock("ShmArena._lock")
    def _sweep_locked(self) -> None:
        dead = [
            name
            for name, (__, ref) in self._entries.items()
            if ref is not None and ref() is None
        ]
        for name in dead:
            shm, __ = self._entries[name]
            if _release_segment(shm, unlink=True):
                del self._entries[name]
                self._by_addr = {
                    addr: seg
                    for addr, seg in self._by_addr.items()
                    if seg != name
                }

    def sweep(self) -> None:
        """Release segments whose arrays are garbage (growth leftovers)."""
        with self._lock:
            self._sweep_locked()

    def close(self) -> None:
        """Release every segment this arena holds (idempotent).

        Arrays still referencing a segment keep it mapped until they die
        (``BufferError`` entries are unlinked by name but stay open); the
        ledger is cleared regardless — after ``close()`` the arena owns
        nothing.
        """
        if self._closed:
            return
        self._closed = True
        with self._lock:
            for name, (shm, __) in list(self._entries.items()):
                if not _release_segment(shm, unlink=True):
                    # name gone from /dev/shm either way; pages live on
                    # until the exporting arrays die
                    _unlink_quiet(shm)
                    _LIVE_SEGMENTS.pop(name, None)
            self._entries.clear()
            self._by_addr.clear()


# -- layout (de)serialization helpers ----------------------------------------


def _array_spec(arena: ShmArena, array: np.ndarray) -> dict[str, Any]:
    return {
        "segment": arena.name_of(array),
        "shape": list(array.shape),
        "dtype": str(array.dtype),
    }


def shard_layout(arena: ShmArena, shard: ColumnarSumStore) -> dict[str, Any]:
    """The layout of one arena-backed shard, as a barrier reply carries it."""
    layout: dict[str, Any] = {
        "user_ids": _array_spec(arena, shard._user_ids),
        "ei": _array_spec(arena, shard._ei),
        # the per-row seqlock counters ride the manifest too: a reader
        # process that kept watching the pre-growth segment would miss
        # every odd window the writer opens on the replacement
        "row_gen": _array_spec(arena, shard.row_generations.cells),
        "row_capacity": int(shard._capacity),
        "families": {},
    }
    for name, family in shard._named_families():
        layout["families"][name] = {
            "values": _array_spec(arena, family.values),
            "mask": _array_spec(arena, family.mask),
            "order": list(family.order),
        }
    return layout


def adopt_layout(
    arena: ShmArena, shard: ColumnarSumStore, layout: Mapping[str, Any],
    n_users: int,
) -> None:
    """Point ``shard``'s arrays at the published segments (zero-copy).

    The reader-side half of the handshake: attach every segment the
    layout names (idempotent for segments already mapped), swap the
    arrays in, rebuild the per-family registries from the published
    orders, and re-derive the Python-side row index and cold state for
    rows the writer created.  Caller must know the writer is quiescent
    (post-``sync``) — the shard lock below serializes the swap against
    *this* process's readers, not the remote writer.
    """
    def attach(spec: Mapping[str, Any]) -> np.ndarray:
        return arena.attach(spec["segment"], spec["shape"], spec["dtype"])

    # arrays are swapped wholesale: inside one layout-epoch window, so
    # in-flight captures retry and none starts mid-swap
    with shard._lock, shard.layout_epoch.write(0):
        shard._user_ids = attach(layout["user_ids"])
        shard._ei = attach(layout["ei"])
        # swap the cells in place: families alias the same Seqlock
        # object, so rebinding .cells repoints every writer bump and
        # every lock-free reader at once
        shard.row_generations.cells = attach(layout["row_gen"])
        shard._capacity = int(layout["row_capacity"])
        for name, family in shard._named_families():
            published = layout["families"][name]
            family.values = attach(published["values"])
            family.mask = attach(published["mask"])
            order = [str(column) for column in published["order"]]
            # fresh registries (frozen captures share the old ones by
            # reference)
            family.index = {column: j for j, column in enumerate(order)}
            family.order = order
        n = int(n_users)
        shard._row_of = {
            int(uid): row for row, uid in enumerate(shard._user_ids[:n])
        }
        # Streaming creates rows with empty cold state (objective/EIT
        # writes never ride the event path), so parent-side placeholders
        # are exact.
        while len(shard._objective) < n:
            shard._objective.append({})
            shard._asked.append(set())
            shard._answered.append(set())
        shard._n = n


def copy_shard_into(src: ColumnarSumStore, dst: ColumnarSumStore) -> None:
    """Bulk-copy one shard's state into a freshly built (empty) shard.

    The recovery path: a checkpoint loads as a heap-backed
    :class:`ColumnarSumStore`, and the restarted worker needs that state
    on *arena* pages — so the plane allocates an empty arena-backed
    shard and writes each of ``src``'s rows into it, in user id order.
    """
    if len(dst):
        raise ValueError("copy_shard_into needs an empty destination shard")
    dst._write_models(src)


class MultiProcSumStore(ShardedSumStore):
    """A sharded SUM store whose partitions live on shared-memory pages.

    Constructing one spawns **no** processes: in-process it is a
    :class:`~repro.core.sharded_store.ShardedSumStore` whose every dense
    block happens to sit on named segments — the full store surface
    (read-only row views, ``batch_apply_ops``, caches, save/load, thread-based
    :class:`~repro.streaming.updater.StreamingUpdater`) works unchanged,
    which is what lets it ride the tier-1 backend matrix.  The process
    plane (:class:`~repro.streaming.procplane.MultiProcUpdater`) engages
    the cross-process half explicitly: it forks one writer process per
    shard, and :meth:`adopt_shard` maps each worker's layout in this
    (the serving) process from the worker's barrier reply.

    Ownership handshake: the parent mutates only while no worker process
    runs (or between ``sync`` barriers); while the plane runs, each
    shard's worker process is its sole writer.
    """

    def __init__(
        self, n_shards: int = 4, initial_capacity: int = 1024
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.arenas: tuple[ShmArena, ...] = tuple(
            ShmArena(tag=f"shard-{i:02d}") for i in range(int(n_shards))
        )
        arenas = self.arenas

        def factory(i: int, capacity: int) -> ColumnarSumStore:
            return ColumnarSumStore(
                initial_capacity=capacity, alloc=arenas[i].alloc
            )

        super().__init__(
            n_shards=n_shards,
            initial_capacity=initial_capacity,
            shard_factory=factory,
        )
        self._closed = False
        # last resort: unlink the segments when the store is collected
        # without an explicit close() (tests, interactive sessions)
        self._finalizer = weakref.finalize(self, _finalize_store, self.arenas)

    # -- cross-process sync ---------------------------------------------------

    def adopt_shard(
        self, shard_index: int, layout: Mapping[str, Any], n_users: int,
        wrote: bool,
    ) -> None:
        """Adopt one worker's barrier reply in this process.

        ``layout`` and ``n_users`` are the shard as its worker left it
        (:func:`shard_layout`, ``len(shard)``); ``wrote`` says whether
        the worker committed to it since its previous barrier.  Nothing
        is re-attached when the layout still names the arrays this
        process already maps — the layout epoch stays put, so no
        in-flight capture retries.  The writer must be quiescent
        (the plane's ``sync`` barrier) — see :func:`adopt_layout`.
        """
        i = int(shard_index)
        shard = self.shards[i]
        if n_users != len(shard) or layout != shard_layout(self.arenas[i], shard):
            adopt_layout(self.arenas[i], shard, layout, n_users)
        self.arenas[i].sweep()
        if wrote:
            # keep delta checkpoints honest: the writer process's commits
            # never touched the parent's mutation clock
            shard._clock.bump()

    def replace_shard(self, shard_index: int, shard: ColumnarSumStore) -> None:
        """Swap one partition for a rebuilt one (crash recovery).

        Mirrors the ``.shards`` rebuild the loader does — the store stays
        the same router object, so caches and services keep their
        reference.
        """
        i = int(shard_index)
        shards = list(self.shards)
        shards[i] = shard
        self.shards = tuple(shards)
        # the replacement's clock is unrelated to any recorded mark — a
        # coincidental match would hardlink stale pages, so force the
        # next save to rewrite everything
        self._checkpoint_marks.clear()

    def fresh_shard(self, shard_index: int, capacity: int) -> ColumnarSumStore:
        """An empty arena-backed partition (recovery scratch target)."""
        return ColumnarSumStore(
            initial_capacity=capacity, alloc=self.arenas[int(shard_index)].alloc
        )

    # -- lifecycle -------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Unlink every segment this store owns (idempotent).

        Call with the process plane stopped.  Live arrays in this
        process keep their pages until collected; the shared *names* are
        gone, so no new process can attach.
        """
        if self._closed:
            return
        self._closed = True
        self._finalizer.detach()
        _finalize_store(self.arenas)


def _finalize_store(arenas: Iterable[ShmArena]) -> None:
    for arena in arenas:
        arena.close()

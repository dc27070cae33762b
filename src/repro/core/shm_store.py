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
* :class:`ShardControlBlock` — one small fixed segment per shard holding
  the cross-process handshake: a seqlock-protected layout manifest
  (array → segment name/shape/dtype, column orders), plus commit /
  heartbeat / applied-sequence counters the liveness and recovery
  protocols read.
* :class:`MultiProcSumStore` — a :class:`ShardedSumStore` whose
  partitions are arena-backed.  In-process it behaves exactly like the
  ``sharded`` backend (scalar views, batch applies, save/load — the
  whole tier-1 surface); the process plane is engaged explicitly and
  re-synchronizes the parent's mappings from each shard's control block.

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
import json
import time
import weakref
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Iterable, Mapping

import numpy as np

from repro.analysis.contracts import (
    declare_lock,
    declare_seqlock,
    guarded_by,
    make_lock,
    requires_lock,
)
from repro.core.seqlock import Seqlock, SeqlockStarved
from repro.core.sharded_store import ShardedSumStore
from repro.core.sum_store import ColumnarSumStore

declare_lock("ShmArena._lock")
# Slot 0 of every control block is a one-cell seqlock over the layout
# manifest.  No writer lock: the shard's owning process is the single
# writer by protocol, and no lock could exclude it from another process
# anyway — so the only legal reader shape is Seqlock.read.
declare_seqlock(
    "ShardControlBlock.layout_seq",
    protects=("_read_published",),
)

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


class ShardControlBlock:
    """The per-shard cross-process handshake block (one small segment).

    Fixed int64 header slots::

        0  seqlock epoch   (odd = layout write in progress)
        1  commit version  (bumped once per barrier that wrote the shard)
        2  n_users         (rows the writer has published)
        3  heartbeat       (bumped by the worker loop; liveness)
        4  applied_seq     (last fully applied transport sequence)
        5  layout length   (bytes of JSON payload currently published)

    then ``LAYOUT_CAPACITY`` bytes of JSON: the shard's array layout
    (segment names, shapes, dtypes, column orders).  Slot 0 is a
    one-cell :class:`~repro.core.seqlock.Seqlock` living in the segment
    itself: the writer publishes inside its odd window, readers accept a
    read only across one unchanged even epoch — so a reader can never
    adopt a torn layout, whichever process it runs in.
    """

    SLOT_EPOCH = 0
    SLOT_COMMIT = 1
    SLOT_N_USERS = 2
    SLOT_HEARTBEAT = 3
    SLOT_APPLIED_SEQ = 4
    SLOT_LAYOUT_LEN = 5
    _N_SLOTS = 8
    _HEADER_BYTES = _N_SLOTS * 8
    LAYOUT_CAPACITY = 1 << 18  # 256 KiB of JSON — thousands of columns

    def __init__(self, shm: shared_memory.SharedMemory) -> None:
        self._shm = shm
        self._slots: np.ndarray = np.ndarray(
            (self._N_SLOTS,), dtype=np.int64, buffer=shm.buf
        )
        self._payload: np.ndarray = np.ndarray(
            (self.LAYOUT_CAPACITY,),
            dtype=np.uint8,
            buffer=shm.buf,
            offset=self._HEADER_BYTES,
        )
        self._layout_seq = Seqlock(
            self._slots[self.SLOT_EPOCH : self.SLOT_EPOCH + 1]
        )

    @classmethod
    def create(cls) -> "ShardControlBlock":
        shm = shared_memory.SharedMemory(
            create=True, size=cls._HEADER_BYTES + cls.LAYOUT_CAPACITY
        )
        _untrack(shm)
        _LIVE_SEGMENTS[shm.name] = "control"
        return cls(shm)

    @classmethod
    def attach(cls, name: str) -> "ShardControlBlock":
        shm = shared_memory.SharedMemory(name=name)
        _untrack(shm)
        _LIVE_SEGMENTS[shm.name] = "control"
        return cls(shm)

    @property
    def name(self) -> str:
        return self._shm.name

    def close(self, unlink: bool = False) -> None:
        # every view exporting the segment's buffer must go first
        self._layout_seq = None  # type: ignore[assignment]
        self._slots = None  # type: ignore[assignment]
        self._payload = None  # type: ignore[assignment]
        _release_segment(self._shm, unlink=unlink)

    # -- counters (single-word, torn-free on every 64-bit target) ------------

    def mark_commit(self) -> None:
        self._slots[self.SLOT_COMMIT] += 1

    @property
    def commit_version(self) -> int:
        return int(self._slots[self.SLOT_COMMIT])

    def beat(self) -> None:
        self._slots[self.SLOT_HEARTBEAT] += 1

    @property
    def heartbeat(self) -> int:
        return int(self._slots[self.SLOT_HEARTBEAT])

    @property
    def n_users(self) -> int:
        return int(self._slots[self.SLOT_N_USERS])

    @property
    def applied_seq(self) -> int:
        return int(self._slots[self.SLOT_APPLIED_SEQ])

    # -- layout (seqlock) -----------------------------------------------------

    def publish_layout(
        self, layout: Mapping[str, Any], n_users: int, applied_seq: int
    ) -> None:
        """Publish the shard's array layout + row count + applied seq.

        Single-writer by protocol (the shard's owning process), so the
        seqlock needs no CAS: epoch goes odd, payload and slots land,
        epoch goes even.
        """
        data = json.dumps(layout, sort_keys=True).encode("utf-8")
        if len(data) > self.LAYOUT_CAPACITY:
            raise ValueError(
                f"layout JSON is {len(data)} bytes; control block holds "
                f"{self.LAYOUT_CAPACITY}"
            )
        slots = self._slots
        with self._layout_seq.write(0):
            self._payload[: len(data)] = np.frombuffer(data, dtype=np.uint8)
            slots[self.SLOT_LAYOUT_LEN] = len(data)
            slots[self.SLOT_N_USERS] = int(n_users)
            slots[self.SLOT_APPLIED_SEQ] = int(applied_seq)

    def _read_published(self) -> tuple[bytes, int, int]:
        """One raw read of ``(payload bytes, n_users, applied_seq)``.

        Protected by the layout seqlock; decoded only after the read
        validated, so torn bytes never reach the JSON parser.
        """
        slots = self._slots
        length = int(slots[self.SLOT_LAYOUT_LEN])
        return (
            bytes(self._payload[:length]),
            int(slots[self.SLOT_N_USERS]),
            int(slots[self.SLOT_APPLIED_SEQ]),
        )

    def read_layout(
        self, timeout: float = 5.0
    ) -> tuple[dict[str, Any], int, int] | None:
        """``(layout, n_users, applied_seq)`` at one consistent epoch.

        Returns ``None`` when nothing was ever published.  A starved
        read cannot fall back to a lock — the writer is another process —
        so it waits and reads again; a writer stuck mid-publish past
        ``timeout`` raises (that process is gone or wedged — callers
        fall back to crash recovery).
        """
        deadline = time.monotonic() + timeout
        while True:
            if int(self._slots[self.SLOT_EPOCH]) == 0:
                return None
            try:
                data, n_users, applied_seq = self._layout_seq.read(
                    0, self._read_published
                )
                return json.loads(data.decode("utf-8")), n_users, applied_seq
            except SeqlockStarved:
                if time.monotonic() > deadline:
                    raise TimeoutError(
                        "shard control block seqlock held odd past "
                        f"{timeout}s; writer process wedged or dead"
                    ) from None
                time.sleep(0.0005)


# -- layout (de)serialization helpers ----------------------------------------


def _array_spec(arena: ShmArena, array: np.ndarray) -> dict[str, Any]:
    return {
        "segment": arena.name_of(array),
        "shape": list(array.shape),
        "dtype": str(array.dtype),
    }


def shard_layout(arena: ShmArena, shard: ColumnarSumStore) -> dict[str, Any]:
    """The publishable layout of one arena-backed shard."""
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

    with shard._lock:
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
        # arrays were swapped wholesale: advance the layout epoch (even
        # to even) so mirror captures staged against the old segments
        # restage everything instead of trusting stale stamps
        shard.layout_epoch.cells[0] += 2


def copy_shard_into(src: ColumnarSumStore, dst: ColumnarSumStore) -> None:
    """Bulk-copy one shard's state into a freshly built (empty) shard.

    The recovery path: a checkpoint loads as a heap-backed
    :class:`ColumnarSumStore`, and the restarted worker needs that state
    on *arena* pages — so the plane allocates an empty arena-backed
    shard and copies column-wise (no per-user object round trip).
    """
    if len(dst):
        raise ValueError("copy_shard_into needs an empty destination shard")
    ids = [int(uid) for uid in src.user_ids()]
    if not ids:
        return
    with dst._lock:
        rows = dst.rows_for(ids, create=True)
        src_rows = src.rows_for(ids)
        dst._ei[rows] = src._ei[src_rows]
        for (name, src_family), (__, dst_family) in zip(
            src._named_families(), dst._named_families()
        ):
            for column in src_family.order:
                sj = src_family.index[column]
                dj = dst_family.ensure_column(column)
                dst_family.values[rows, dj] = src_family.values[src_rows, sj]
                dst_family.mask[rows, dj] = src_family.mask[src_rows, sj]
        for r, sr in zip(rows, src_rows):
            dst._objective[r] = dict(src._objective[sr])
            dst._asked[r] = set(src._asked[sr])
            dst._answered[r] = set(src._answered[sr])


class MultiProcSumStore(ShardedSumStore):
    """A sharded SUM store whose partitions live on shared-memory pages.

    Constructing one spawns **no** processes: in-process it is a
    :class:`~repro.core.sharded_store.ShardedSumStore` whose every dense
    block happens to sit on named segments — the full store surface
    (scalar views, ``batch_apply_ops``, caches, save/load, thread-based
    :class:`~repro.streaming.updater.StreamingUpdater`) works unchanged,
    which is what lets it ride the tier-1 backend matrix.  The process
    plane (:class:`~repro.streaming.procplane.MultiProcUpdater`) engages
    the cross-process half explicitly: it forks one writer process per
    shard, and :meth:`resync` re-adopts each shard's published layout in
    this (the serving) process once writers are quiescent.

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
        self.controls: tuple[ShardControlBlock, ...] = tuple(
            ShardControlBlock.create() for __ in range(int(n_shards))
        )
        #: last commit_version observed per shard — worker processes bump
        #: their own copy-on-write Python clocks, so the parent derives
        #: "this shard changed" from the shared counter instead
        self._commit_seen = [0] * int(n_shards)
        self._closed = False
        # last resort: unlink the segments when the store is collected
        # without an explicit close() (tests, interactive sessions)
        self._finalizer = weakref.finalize(
            self, _finalize_store, self.arenas, self.controls
        )

    # -- cross-process sync ---------------------------------------------------

    def publish_shard(self, shard_index: int, applied_seq: int = 0) -> None:
        """Publish one shard's current layout to its control block.

        Called by whichever process currently owns the shard's mutation
        (the worker after commits; the parent before handing ownership
        over).
        """
        i = int(shard_index)
        shard = self.shards[i]
        self.controls[i].publish_layout(
            shard_layout(self.arenas[i], shard),
            n_users=len(shard),
            applied_seq=applied_seq,
        )

    def resync_shard(self, shard_index: int) -> int:
        """Adopt one shard's published layout in this process.

        Returns the shard's published ``applied_seq``.  No-op (beyond
        counter reads) when the layout still names the arrays this
        process already maps — the layout epoch stays put, so rows a
        serving mirror staged stay staged.  Writers must be quiescent
        (the plane's ``sync`` barrier) — see :func:`adopt_layout`.
        """
        i = int(shard_index)
        published = self.controls[i].read_layout()
        if published is None:
            return 0
        layout, n_users, applied_seq = published
        shard = self.shards[i]
        if n_users != len(shard) or layout != shard_layout(self.arenas[i], shard):
            adopt_layout(self.arenas[i], shard, layout, n_users)
        self.arenas[i].sweep()
        commit = self.controls[i].commit_version
        if commit != self._commit_seen[i]:
            # keep delta checkpoints honest: the writer process's commits
            # never touched the parent's mutation clock
            self._commit_seen[i] = commit
            self.shards[i]._clock.bump()
        return applied_seq

    def resync(self) -> list[int]:
        """Adopt every shard's published layout; per-shard applied seqs."""
        return [self.resync_shard(i) for i in range(len(self.shards))]

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
        _finalize_store(self.arenas, self.controls)


def _finalize_store(
    arenas: Iterable[ShmArena], controls: Iterable[ShardControlBlock]
) -> None:
    for arena in arenas:
        arena.close()
    for control in controls:
        control.close(unlink=True)

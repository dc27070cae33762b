"""Versioned per-user SUM snapshots for the serving path.

The serving layer must never observe a SUM mid-batch: a consumer worker
applying five reward ops should be invisible until the batch commits.
:class:`SumCache` provides that isolation with the cheapest possible
machinery:

* writers apply a whole batch and commit it while holding every
  touched user's lock (:meth:`SumCache.apply_batch_and_publish`, on
  every backend) — dropping the cached snapshots and bumping each
  user's monotonic version counter atomically with the mutation;
* readers receive **genuinely immutable** snapshots, rebuilt lazily on
  the first read after a publish.  A per-user snapshot is the
  repository's ``freeze_view`` on every backend: a sealed
  :class:`~repro.core.sum_model.SmartUserModel` built from one
  ``to_dict()``-shaped copy (on a columnar store, one row copy taken
  inside the row's seqlock window).  Batch readers of a columnar
  repository get whole column slices through :meth:`SumCache.batch`.
  A mutation attempt on a snapshot *raises* — one misbehaving reader
  can no longer poison every other reader at that version.

Version counters make staleness *observable*: a snapshot at
``version(user) == 3`` reflects every batch published up to 3 and
nothing later, and tests can assert "exactly one bump per applied batch"
instead of sleeping and hoping.

Columnar fast path
------------------

With a :class:`~repro.core.sum_store.ColumnarSumStore` underneath, the
cache keeps a :class:`~repro.core.sum_store.ColumnMirror` — a
copy-on-write staging copy of the emotional and sensibility columns.
The first read of a user after a publish copies that user's row slices
into the mirror **without blocking writers**: the copy is a
:meth:`~repro.core.seqlock.Seqlock.read` against the store's per-row
generation cells
(:attr:`~repro.core.sum_store.ColumnarSumStore.row_generations`; a
request's stale rows, when more than one, go as one ``read_many`` block),
retrying the handful of rows a writer is actively committing instead of
taking any lock.  Every later read at the same version is a pure column
slice with zero per-user work, so
:class:`~repro.serving.service.RecommendationService` takes the same
allocation-free batch path on *live streamed* state that it takes on a
bare store.  Writers never touch the mirror, so captures cannot observe
a half-applied batch — and a whole capture runs inside a layout-epoch
window, so :meth:`~repro.core.sum_store.ColumnarSumStore.compact_vocab`
can run against live mirrors without quiescing anyone.
"""

from __future__ import annotations

import threading
from typing import Iterable, Sequence

from repro.analysis.contracts import (
    declare_lock,
    declare_order,
    guarded_by,
    make_lock,
    manual_guard,
    requires_lock,
)
from repro.core.reward import ReinforcementPolicy
from repro.core.seqlock import SeqlockStarved
from repro.core.sum_model import SmartUserModel, SumRepository
from repro.core.sum_store import (
    ColumnMirror,
    ColumnarSumStore,
    FrozenSumBatch,
    validate_batch_ops,
)
from repro.core.updates import BatchItems
from repro.obs.metrics import MetricsRegistry, NullRegistry, resolve_registry


# The cache's locking protocol, as checkable declarations:
#
# * the registry lock hands out per-user locks (never held while taking
#   anything else);
# * per-user locks form one *family* — apply_batch_and_publish holds
#   many at once, made safe by sorted-id acquisition order;
# * each mirror shard's capture lock serializes that shard's refreshes
#   and captures against each other.  Captures no longer take user locks
#   or the store lock: row copies are lock-free Seqlock.read calls
#   against ColumnarSumStore.row_generations, and writers only flag
#   staleness (a GIL-atomic set.update) under their users' locks.
declare_lock("SumCache._registry_lock")
declare_lock(
    "SumCache._lock_for()",
    family=True,
    self_order="sorted user id",
    aliases=("SumCache.write_lock()",),
)
declare_lock("_MirrorShard.lock", reentrant=True)
# Applying ops under a user's write lock mutates the columnar store,
# which takes the store lock; hidden from the AST behind the
# duck-typed repository, so asserted here.
declare_order("SumCache._lock_for()", "ColumnarSumStore._lock")
# A starved seqlock read falls back to one copy under the store writer
# lock while holding its shard's capture lock.  Safe to nest this
# way because writers never take a shard lock (they only bump versions
# and flag staleness GIL-atomically), so the reverse edge cannot exist.
declare_order("_MirrorShard.lock", "ColumnarSumStore._lock")


@guarded_by("_MirrorShard.lock", "versions", "stale", "epoch")
class _MirrorShard:
    """One store partition's read-mirror state, isolated per shard.

    A sharded repository gets one of these per partition: its own
    copy-on-write mirror, its own ``uid -> staged version`` map, its own
    dirty set and its own capture lock — so a write burst on shard 3
    flags staleness (and serializes refreshes) only there, and shard 0's
    captures proceed untouched.  A single columnar store is the one-shard
    special case of the same machinery.
    """

    __slots__ = ("store", "mirror", "versions", "stale", "lock", "epoch")

    def __init__(self, store: ColumnarSumStore) -> None:
        self.store = store
        self.mirror = ColumnMirror(store)
        #: uid -> version stamp of the data staged in the mirror row
        self.versions: dict[int, int] = {}
        #: uids published since their last mirror refresh; writers add
        #: under the user's lock (GIL-atomic — see _commit_many),
        #: readers refresh-and-discard under the shard lock — so a read
        #: is O(writes since last read), not O(population)
        self.stale: set[int] = set()
        #: serializes this shard's mirror refreshes and captures against
        #: each other (writers never take it — they only bump versions)
        self.lock = make_lock("_MirrorShard.lock", reentrant=True)
        #: the store layout epoch the mirror rows were staged under; a
        #: mismatch at capture time means compact_vocab() moved columns
        #: and every staged row must restage before serving
        self.epoch = int(store.layout_epoch.cells[0])


@guarded_by("_registry_lock", "_user_locks", "_global_version")
@guarded_by("_lock_for()", "_snapshots", "_versions")
class SumCache:
    """Snapshot cache + version counters over a :class:`SumRepository`.

    Duck-types the repository read API (``get``, ``user_ids``,
    ``__contains__``, ``__len__`` — plus ``batch`` when the repository is
    columnar) so it can be handed to
    :class:`~repro.serving.service.RecommendationService` as its ``sums``.
    """

    def __init__(
        self,
        repository: SumRepository,
        telemetry: MetricsRegistry | NullRegistry | None = None,
    ) -> None:
        self.repository = repository
        self._snapshots: dict[int, SmartUserModel] = {}
        self._versions: dict[int, int] = {}
        self._global_version = 0
        self._registry_lock = make_lock("SumCache._registry_lock")
        self._user_locks: dict[int, threading.Lock] = {}
        self._columnar = callable(getattr(repository, "batch", None))
        if self._columnar:
            # One mirror per store partition: a sharded repository exposes
            # its partitions via ``shards`` and routes via ``shard_of``; a
            # single store is the one-shard special case (every uid maps
            # to mirror shard 0), so a write burst on one partition never
            # stalls or invalidates another partition's captures.
            partitions = getattr(repository, "shards", None)
            stores = list(partitions) if partitions is not None else [repository]
            self._shard_of = getattr(repository, "shard_of", lambda uid: 0)
            self._by_shard = getattr(repository, "by_shard", lambda ids: {0: ids})
            self._mirror_shards: list[_MirrorShard] = [
                _MirrorShard(store) for store in stores
            ]
            # The columnar resolver duck-type: RecommendationService
            # probes ``callable(sums.batch)`` to pick the zero-copy path,
            # so the attribute only exists when the backend can serve it.
            self.batch = self._snapshot_batch
        # Telemetry: counters recorded strictly after lock scopes release
        # (instrument locks are leaves); gauges are snapshot-time callbacks
        # reading GIL-atomic aggregates, so they take no cache lock at all.
        registry = resolve_registry(telemetry)
        self._m_publishes = registry.counter("cache.publishes")
        self._m_captures = registry.counter("cache.captures")
        self._m_refreshed_rows = registry.counter("cache.capture_refreshed_rows")
        self._m_starved_rows = registry.counter("cache.capture_starved_rows")
        registry.gauge(
            "cache.snapshots", fn=lambda: float(len(self._snapshots))
        )
        registry.gauge(
            "cache.global_version", fn=lambda: float(self._global_version)
        )
        if self._columnar:
            registry.gauge(
                "cache.mirror_stale_rows",
                fn=lambda: float(
                    sum(len(s.stale) for s in self._mirror_shards)
                ),
            )
            registry.gauge(
                "cache.mirrored_users", fn=lambda: float(self.mirrored_users)
            )

    @requires_lock("_lock_for()")
    @manual_guard(
        "writers flag staleness with a GIL-atomic set.update under the "
        "users' write locks, not the shard lock guarding `stale`: the "
        "capture side tolerates the flags landing at any point relative "
        "to its own discard because publishes bump every user's version "
        "*before* flagging any (see _capture_staged) — every "
        "interleaving converges to a refresh at the newest version"
    )
    def _commit_many(self, user_ids: Sequence[int]) -> None:
        """Publish the applied mutations of ``user_ids`` (unique ints).

        Caller holds every listed user's lock.  Drops the cached
        snapshots, bumps the versions, then flags the mirror rows stale
        — in that order: lock-free captures discard the stale flag
        *before* reading the version, so flagging last means a capture
        either reads the new version or leaves the flag set for the next
        capture to correct.  The one statement of that order: a batch
        commit and :meth:`invalidate` both come here.
        """
        snapshots, versions = self._snapshots, self._versions
        if snapshots:
            for user_id in user_ids:
                snapshots.pop(user_id, None)
        for user_id in user_ids:
            versions[user_id] = versions.get(user_id, 0) + 1
        if self._columnar:
            # flagged on whichever mirror shard is current *now*: a
            # capture may have replaced it for a swapped partition
            for owner, owned in self._by_shard(user_ids).items():
                self._mirror_shards[owner].stale.update(owned)

    # -- locking -----------------------------------------------------------

    def _lock_for(self, user_id: int) -> threading.Lock:
        lock = self._user_locks.get(user_id)  # GIL-atomic fast path
        if lock is None:
            with self._registry_lock:
                lock = self._user_locks.setdefault(
                    user_id, make_lock("SumCache._lock_for()")
                )
        return lock

    # -- write path --------------------------------------------------------

    def write_lock(self, user_id: int) -> threading.Lock:
        """The lock guarding one user's live model.

        Direct repository writers (the offline campaign loop) hold it
        across their mutation so snapshot builds and streamed applies
        serialize with them; pair with :meth:`invalidate` afterwards.
        """
        return self._lock_for(int(user_id))

    @manual_guard(
        "acquires every touched user's lock in sorted-id order via a "
        "loop + try/finally; loop-acquired locks are invisible to the "
        "with-scope analysis"
    )
    def apply_batch_and_publish(
        self, items: BatchItems, policy: ReinforcementPolicy
    ) -> tuple[list[int], dict[int, int]]:
        """Apply a whole batch's op slices and commit, all users at once.

        The one commit path, on every backend.  ``items`` is the
        :class:`~repro.core.updates.OpBatch` a shard worker made where it
        dequeued — or raw ``(user_id, ops)`` pairs, which
        :meth:`OpBatch.of <repro.core.updates.OpBatch.of>` makes one
        (same path from there on).  The batch is validated here, once,
        before any lock is taken; then every touched user's lock is
        acquired (in sorted-id order — other writers take one lock at a
        time, so no cycle is possible), the repository's
        ``batch_apply_ops`` applies it without looking at it again
        (vectorized against row ranges on a columnar store, sequentially
        on the object store), and one :meth:`_commit_many` drops the
        snapshots and bumps the version of every user with at least one
        op before the locks release.  Readers see old state at the old
        version or batch-applied state at the new one — never the
        mutation at the old version — and one bump per touched user.
        The mirror is *not* written here — it refreshes lazily on the
        next read, which sees the bumped version.  Returns ``(per-item
        applied counts, versions)``; bump the batch-level
        :attr:`global_version` separately with :meth:`mark_batch`.

        A batch rejected by validation raises with nothing touched.  If
        the apply itself raises, a prefix may be in place, so every user
        of the batch is published before the error propagates.
        """
        batch = validate_batch_ops(items)
        ids = sorted(batch.user_ids)
        locks = list(map(self._user_locks.get, ids))
        if None in locks:  # first contacts: mint their locks
            locks = [self._lock_for(user_id) for user_id in ids]
        for lock in locks:
            lock.acquire()
        try:
            try:
                counts = self.repository.batch_apply_ops(batch, policy)
            except BaseException:  # a prefix may be in place: publish it
                self._commit_many(batch.user_ids)
                raise
            touched = [uid for uid, ops in batch if ops]
            self._commit_many(touched)
            versions = {uid: self._versions.get(uid, 0) for uid in ids}
        finally:
            for lock in reversed(locks):
                lock.release()
        if touched:
            self._m_publishes.inc(len(touched))
        return counts, versions

    def mark_batch(self) -> int:
        """Count one applied batch; returns the new global version."""
        with self._registry_lock:
            self._global_version += 1
            return self._global_version

    def invalidate(self, user_ids: Iterable[int] | None = None) -> dict[int, int]:
        """Invalidate users written *outside* the streaming path.

        For writers that mutate the underlying repository directly —
        the offline campaign loop rewarding touched users, a bulk
        import — rather than through :meth:`apply_batch_and_publish`.  Drops
        the snapshots and bumps each user's version (``None`` means
        every user the repository knows); the whole call counts as one
        batch on :attr:`global_version`.
        """
        ids = (
            self.repository.user_ids()
            if user_ids is None
            else sorted({int(uid) for uid in user_ids})
        )
        versions: dict[int, int] = {}
        for user_id in ids:
            with self._lock_for(user_id):
                self._commit_many((user_id,))
                versions[user_id] = self._versions[user_id]
        if versions:
            with self._registry_lock:
                self._global_version += 1
            self._m_publishes.inc(len(versions))
        return versions

    # -- read path (repository duck-type) ----------------------------------

    def get(self, user_id: int) -> SmartUserModel:
        """Immutable snapshot of one user's SUM at their last published
        version: the repository's ``freeze_view``, a sealed
        :class:`~repro.core.sum_model.SmartUserModel` on every backend
        that raises on any mutation attempt.
        """
        user_id = int(user_id)
        snapshot = self._snapshots.get(user_id)
        if snapshot is not None:
            return snapshot
        with self._lock_for(user_id):
            snapshot = self._snapshots.get(user_id)
            if snapshot is None:
                snapshot = self.repository.freeze_view(user_id)
                self._snapshots[user_id] = snapshot
            return snapshot

    def get_or_create(self, user_id: int) -> SmartUserModel:
        """Repository parity; creating flows through to the live store."""
        self.repository.get_or_create(int(user_id))
        return self.get(user_id)

    def user_ids(self) -> list[int]:
        return self.repository.user_ids()

    def __contains__(self, user_id: object) -> bool:
        return user_id in self.repository

    def __len__(self) -> int:
        return len(self.repository)

    # -- columnar batch read path ------------------------------------------

    def _refresh_row_published(self, shard: _MirrorShard, row: int) -> int:
        """Copy one live row into the mirror — without any write lock.

        A :meth:`~repro.core.seqlock.Seqlock.read` over
        :attr:`~repro.core.sum_store.ColumnarSumStore.row_generations`:
        the copy is accepted only if the row's generation was even and
        unchanged across it.  Writers never block on this path, and a
        reader only spins while the specific row it wants is actually
        being written.

        A writer saturating the row (back-to-back batch commits keep the
        generation odd for essentially its whole duty cycle) starves the
        bounded read; the capture then falls back to one row copy under
        :attr:`~repro.core.sum_store.ColumnarSumStore.writer_lock` —
        holding the writers' own lock excludes every generation bump, so
        the copy needs no retry.  Writers still never wait on readers;
        only a starved reader ever waits on writers (returns 1 if so).
        """
        store = shard.store
        try:
            store.row_generations.read(row, shard.mirror.refresh_row, row)
        except SeqlockStarved:
            with store.writer_lock:  # starved: exclude writers outright
                shard.mirror.refresh_row(row)
            return 1
        return 0

    @requires_lock("_MirrorShard.lock")
    def _capture_staged(
        self, shard: _MirrorShard, shard_ids: list[int], rows
    ) -> tuple[FrozenSumBatch, int, int]:
        """One refresh + capture pass; ``(batch, rows refreshed, starved)``.

        Protected by the layout-epoch seqlock: everything here slices
        columns by position, so it must run inside one even window (or
        under the store writer lock).  A layout that moved since this
        mirror was staged — a ``compact_vocab()`` relocated columns, or a
        resync swapped the arrays — restages every row first.
        """
        store = shard.store
        epoch = int(store.layout_epoch.cells[0])
        if shard.epoch != epoch:
            shard.versions.clear()
            shard.epoch = epoch
        shard.mirror.sync_shape()
        mirrored = shard.versions
        stale = shard.stale
        # Staleness is O(writes since the last read), not O(batch): set
        # algebra runs in C, and only never-mirrored or freshly-published
        # users pay a row copy.
        ids_set = set(shard_ids)
        need = ids_set.difference(mirrored)
        if stale:
            need |= ids_set.intersection(stale)
        # Per row: discard before reading the version, and both before
        # the copy — a publish bumps the version *before* re-flagging,
        # so either we read the bumped version here or the flag lands
        # after our discard and survives for the next capture.
        starved = 0
        if len(need) > 1:
            # One validated block (the request's own rows when all are
            # stale): one indexed copy per array, only rows mid-commit
            # retried, the starved rest copied under the writer lock.
            need_ids = shard_ids if len(need) == len(shard_ids) else list(need)
            need_rows = rows if need_ids is shard_ids else store.rows_for(need_ids)
            stale.difference_update(need)
            versions = [self._versions.get(uid, 0) for uid in need_ids]
            try:
                store.row_generations.read_many(need_rows, shard.mirror.refresh_rows)
            except SeqlockStarved as lost:
                with store.writer_lock:  # starved: exclude writers outright
                    shard.mirror.refresh_rows(lost.rows)
                starved = len(lost.rows)
            mirrored.update(zip(need_ids, versions))
        elif need:  # one row, every recommend: the scalar read is 5x cheaper
            (uid,) = need
            stale.discard(uid)
            version = self._versions.get(uid, 0)
            starved = self._refresh_row_published(shard, store.row_index(uid))
            mirrored[uid] = version
        # Stamps only need to cover the requested ids: small reads build
        # them per id, population-scale reads take one C-level dict copy
        # (cheaper than a Python loop over the batch).  The batch
        # resolves per-user stamps lazily.
        if len(shard_ids) < len(mirrored) // 4:
            stamps = {uid: mirrored.get(uid, 0) for uid in shard_ids}
        else:
            stamps = dict(mirrored)
        batch = shard.mirror.capture(shard_ids, rows, stamps, resolve=self.get)
        return batch, len(need), starved

    def _capture_shard(
        self, shard: _MirrorShard, shard_ids: list[int], rows
    ) -> FrozenSumBatch:
        """Refresh + capture one mirror shard (its lock held throughout).

        The hot serving path: captures never take the store write lock or
        any user lock.  Stale rows are copied through the per-row seqlock
        (:meth:`_refresh_row_published`; more than one as a single
        ``read_many`` block), and the whole pass runs inside
        one layout-epoch window — if a
        :meth:`~repro.core.sum_store.ColumnarSumStore.compact_vocab`
        swaps the column layout mid-capture the pass restages and runs
        again, and a capture starved of a quiet window takes the store
        writer lock for one pass, like the row copy does.
        """
        store = shard.store
        with shard.lock:
            try:
                batch, refreshed, starved = store.layout_epoch.read(
                    0, self._capture_staged, shard, shard_ids, rows
                )
            except SeqlockStarved:
                with store.writer_lock:  # starved: exclude compaction
                    batch, refreshed, starved = self._capture_staged(
                        shard, shard_ids, rows
                    )
        # instruments only after the shard lock releases (leaf-lock rule)
        self._m_captures.inc()
        if refreshed:
            self._m_refreshed_rows.inc(refreshed)
        if starved:
            self._m_starved_rows.inc(starved)
        return batch

    def _mirror_shard(self, index: int) -> _MirrorShard:
        """Partition ``index``'s mirror — of the store that is that
        partition *now*.

        The cache follows ``repository.shards``: when a partition was
        swapped under it (``MultiProcSumStore.replace_shard`` after a
        worker crash), its mirror still copies rows out of the replaced
        store's pages, so a fresh one takes its place — nothing staged,
        every row restaged from the live partition on first read.
        """
        shard = self._mirror_shards[index]
        partitions = getattr(self.repository, "shards", None)
        if partitions is not None and shard.store is not partitions[index]:
            with self._registry_lock:
                shard = self._mirror_shards[index]
                if shard.store is not partitions[index]:
                    shard = _MirrorShard(partitions[index])
                    self._mirror_shards[index] = shard
        return shard

    def _snapshot_batch(self, user_ids: Sequence[int], create: bool = False):
        """Version-stamped columnar batch read — the serving fast path.

        The first read of a user after a publish copies that user's row
        slices into the copy-on-write mirror (lock-free, see
        :meth:`_refresh_row_published`); every subsequent read at the
        same version slices the mirror with zero per-user work.  The
        returned batch is frozen (bit-stable no matter how many batches
        land afterwards) and stamped with each user's version at
        capture: old state at the old version or batch-applied state at
        the new one, never a torn read.

        On a sharded repository each partition refreshes and captures
        under its own mirror lock; the per-shard captures gather into one
        :class:`~repro.core.sharded_store.ShardedBatch` in request order.

        Unknown users raise one
        :class:`~repro.core.sum_model.UnknownUserError` naming them all;
        ``create=True`` opts into streaming first-contact semantics.
        """
        ids = list(map(int, user_ids))
        if len(self._mirror_shards) == 1 or len(ids) == 1:  # one owner
            owner = self._shard_of(ids[0]) if len(self._mirror_shards) > 1 else 0
            shard = self._mirror_shard(owner)
            rows = shard.store.rows_for(ids, create=create)
            return self._capture_shard(shard, ids, rows)
        from repro.core.sharded_store import ShardedBatch, positions_by_shard

        # Resolve/create the whole batch first: one typed error naming
        # every unknown id across all shards, not shard-by-shard — and
        # the (shard, row) addresses the captures below read with.
        addresses = self.repository.rows_for(ids, create=create)
        parts = []
        grouped = positions_by_shard(addresses[:, 0], len(self._mirror_shards))
        for shard_index, positions in grouped.items():
            shard = self._mirror_shard(shard_index)
            shard_ids = [ids[p] for p in positions.tolist()]
            rows = addresses[positions, 1]
            parts.append((positions, self._capture_shard(shard, shard_ids, rows)))
        if len(parts) == 1:
            return parts[0][1]
        return ShardedBatch(ids, parts, resolve=self.get)

    # -- observability -----------------------------------------------------

    def version(self, user_id: int) -> int:
        """Monotonic per-user version (0 before the first publish)."""
        return self._versions.get(int(user_id), 0)

    @property
    def global_version(self) -> int:
        """Total number of published batches across all users."""
        return self._global_version

    @property
    def cached_users(self) -> int:
        """How many per-user snapshots are currently materialized."""
        return len(self._snapshots)

    @property
    def mirrored_users(self) -> int:
        """How many users have a current row staged in the read mirrors."""
        if not self._columnar:
            return 0
        return sum(len(shard.versions) for shard in self._mirror_shards)

    def versions_snapshot(self) -> dict[int, int]:
        """Point-in-time copy of every user's published version.

        The checkpoint path persists this alongside the column pages so
        replicas loaded from the generation report real per-user version
        floors (see :class:`~repro.serving.replica.Checkpointer`).
        """
        return dict(self._versions)

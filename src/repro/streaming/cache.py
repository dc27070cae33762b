"""Versioned per-user SUM snapshots for the serving path.

The serving layer must never observe a SUM mid-batch: a consumer worker
applying five reward ops should be invisible until the batch commits.
:class:`SumCache` provides that isolation with the cheapest possible
machinery:

* writers apply a whole batch and commit it while holding every
  touched user's lock (:meth:`SumCache.apply_batch_and_publish`, on
  every backend) — dropping the cached snapshots and bumping each
  user's monotonic version counter atomically with the mutation;
* writers that commit to the repository themselves — the campaign
  engine's passes, a process plane's barrier — take no cache lock and
  publish with :meth:`SumCache.invalidate` afterwards; their commit is
  one ``batch_apply_ops``, whose store lock (object store) or seqlock
  windows (columnar stores) keep every snapshot copy whole;
* readers receive **genuinely immutable** snapshots, rebuilt lazily on
  the first read after a publish.  A per-user snapshot is the
  repository's ``freeze_view`` on every backend: a sealed
  :class:`~repro.core.sum_model.SmartUserModel` built from one
  ``to_dict()``-shaped copy (on a columnar store, one row copy taken
  inside the row's seqlock window).  Batch readers get a frozen copy
  of the requested users' intensities and sensibilities through
  :meth:`SumCache.batch`, on every backend.
  A mutation attempt on a snapshot *raises* — one misbehaving reader
  can no longer poison every other reader at that version.

Version counters make staleness *observable*: a snapshot at
``version(user) == 3`` reflects every batch published up to 3 and
nothing later, and tests can assert "exactly one bump per applied batch"
instead of sleeping and hoping.

Batch reads
-----------

:meth:`SumCache.batch` is the version stamps plus ``repository.batch(...)``:
the stamps are read *before* the copy, and the copy is the store's own
(:meth:`~repro.core.sum_store.ColumnarSumStore.batch` — each row copied
straight out of the live columns across an even, unchanged row
generation, the whole copy inside one layout-epoch window, rows starved
of a quiet window copied under the writer lock; on the object store,
the models copied under the store lock its ``batch_apply_ops`` holds).
Writers publish data before they bump a version, so every row is at
least as new as its stamp, and neither a batch commit nor
``compact_vocab()`` can tear a row.  The cache keeps no per-shard state.
"""

from __future__ import annotations

import threading
from typing import Iterable, Sequence

import numpy as np

from repro.analysis.contracts import (
    declare_lock,
    declare_order,
    guarded_by,
    make_lock,
    manual_guard,
    requires_lock,
)
from repro.core.interned import Population
from repro.core.reward import ReinforcementPolicy
from repro.core.sum_model import SmartUserModel, SumRepository
from repro.core.sum_store import BatchRead, validate_batch_ops
from repro.core.updates import BatchItems
from repro.obs.metrics import MetricsRegistry, NullRegistry, resolve_registry


# The cache's locking protocol, as checkable declarations:
#
# * the registry lock hands out per-user locks (never held while taking
#   anything else);
# * per-user locks form one *family* — apply_batch_and_publish holds
#   many at once, made safe by sorted-id acquisition order.  Batch reads
#   take no cache lock at all: the store copies rows inside its seqlocks.
declare_lock("SumCache._registry_lock")
declare_lock(
    "SumCache._lock_for()",
    family=True,
    self_order="sorted user id",
)
# Applying ops under a user's write lock mutates the store, which takes
# its store lock; hidden from the AST behind the repository, so asserted
# here for both kinds of store.
declare_order("SumCache._lock_for()", "ColumnarSumStore._lock")
declare_order("SumCache._lock_for()", "SumRepository._lock")

# A batch read of at least ``len(versions) // _STAMP_COPY_DIVISOR`` ids
# copies the whole version map instead of looking each id up: measured
# (CPython 3.11, 8,346 versioned users, 2,000 ids) a ``dict`` copy costs
# ~5-6 ns per entry and the per-id comprehension ~90-150 ns per id, so
# the two meet near a sixteenth of the map.
_STAMP_COPY_DIVISOR = 16


@guarded_by("_registry_lock", "_user_locks", "_global_version")
@guarded_by("_lock_for()", "_snapshots", "_versions")
class SumCache:
    """Snapshot cache + version counters over any SUM backend.

    A :class:`~repro.core.sum_model.SumResolver`, like the store it
    wraps, so it can be handed to
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
        # Telemetry: counters recorded strictly after lock scopes release
        # (instrument locks are leaves); gauges are snapshot-time callbacks
        # reading GIL-atomic aggregates, so they take no cache lock at all.
        registry = resolve_registry(telemetry)
        self._m_publishes = registry.counter("cache.publishes")
        self._m_captures = registry.counter("cache.captures")
        self._m_starved_rows = registry.counter("cache.capture_starved_rows")
        registry.gauge(
            "cache.snapshots", fn=lambda: float(len(self._snapshots))
        )
        registry.gauge(
            "cache.global_version", fn=lambda: float(self._global_version)
        )

    @requires_lock("_lock_for()")
    def _commit_many(self, user_ids: Sequence[int]) -> None:
        """Publish the applied mutations of ``user_ids`` (unique ints).

        Caller holds every listed user's lock, and the data is already
        in the repository: drops the cached snapshots, then bumps the
        versions — so a batch read that takes its stamps before its copy
        never stamps a row newer than its data.  The one statement of
        that order: a batch commit and :meth:`invalidate` both come here.
        """
        snapshots, versions = self._snapshots, self._versions
        if snapshots:
            for user_id in user_ids:
                snapshots.pop(user_id, None)
        for user_id in user_ids:
            versions[user_id] = versions.get(user_id, 0) + 1

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
        op before the locks release.  Per-user snapshots see old state
        at the old version or batch-applied state at the new one — never
        the mutation at the old version — and one bump per touched user;
        a batch read's rows are at least as new as their stamps.
        Returns ``(per-item applied counts, versions)``; bump the batch-level
        :attr:`global_version` separately with :meth:`mark_batch`.

        A batch rejected by validation raises with nothing touched.  If
        the apply itself raises, a prefix may be in place, so every user
        of the batch is published before the error propagates.
        """
        batch = validate_batch_ops(items)
        ids = sorted(batch.user_ids)
        try:
            locks = list(map(self._user_locks.__getitem__, ids))
        except KeyError:  # first contacts: mint their locks
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

        For writers that commit to the underlying repository themselves —
        the offline campaign loop's ``batch_apply_ops``, a process
        plane's barrier, a bulk import — rather than through
        :meth:`apply_batch_and_publish`.  Drops
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

    # -- read path (the SumResolver surface) --------------------------------

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

    def population(self) -> Population:
        """The repository's population: what a select-all ranks."""
        return self.repository.population()

    def __contains__(self, user_id: object) -> bool:
        return user_id in self.repository

    def __len__(self) -> int:
        return len(self.repository)

    def rows_for(self, user_ids: Sequence[int], create: bool = False) -> np.ndarray:
        """The repository's ``rows_for``: validation (or creation) only."""
        return self.repository.rows_for(user_ids, create=create)

    def batch(
        self, user_ids: Sequence[int] | None = None, create: bool = False
    ) -> BatchRead:
        """Version-stamped batch read of ``user_ids`` (default: every
        user) — the serving read path.

        The stamps first, then ``repository.batch(user_ids, create)``: a
        frozen copy of the rows (see the module docstring), bit-stable no
        matter how many batches land afterwards, each row at least as new
        as its stamp.  Small reads stamp per id; a read of a sixteenth of
        the versioned users or more takes one C-level copy of the map
        (``_STAMP_COPY_DIVISOR``).

        Unknown users raise one
        :class:`~repro.core.sum_model.UnknownUserError` naming them all;
        ``create=True`` opts into streaming first-contact semantics.
        """
        if user_ids is None:
            user_ids = self.population()
        versions = self._versions
        if len(user_ids) < len(versions) // _STAMP_COPY_DIVISOR:
            stamps = {uid: versions.get(uid, 0) for uid in user_ids}
        else:
            stamps = dict(versions)
        batch = self.repository.batch(user_ids, create=create).stamped(stamps)
        self._m_captures.inc()
        if batch.starved:
            self._m_starved_rows.inc(batch.starved)
        return batch

    # -- observability -----------------------------------------------------

    def version(self, user_id: int) -> int:
        """Monotonic per-user version (0 before the first publish)."""
        return self._versions.get(int(user_id), 0)

    @property
    def global_version(self) -> int:
        """Total number of published batches across all users."""
        return self._global_version

    @property
    def snapshot_generation(self) -> int | None:
        """The repository's checkpoint generation (``None`` when live)."""
        return self.repository.snapshot_generation

    @property
    def cached_users(self) -> int:
        """How many per-user snapshots are currently materialized."""
        return len(self._snapshots)

    def versions_snapshot(self) -> dict[int, int]:
        """Point-in-time copy of every user's published version.

        The checkpoint path persists this alongside the column pages so
        replicas loaded from the generation report real per-user version
        floors (see :class:`~repro.serving.replica.Checkpointer`).
        """
        return dict(self._versions)

"""Partitioned SUM plane: N columnar stores behind one router.

The paper's SUM is per-user state updated by the Fig. 4 loop, which makes
the population trivially partitionable by user id.  PR 3/4 built the
columnar store and its mmap read replicas but left one global writer lock
in front of the whole population.  :class:`ShardedSumStore` finishes the
job: it owns ``P`` independent :class:`~repro.core.sum_store.
ColumnarSumStore` partitions keyed by the *same*
:func:`~repro.streaming.bus.partition_for` hash the event bus already
routes with — so the shard worker that owns a user's event stream is
also the only writer of that user's store partition, and writer threads
on different partitions never contend on a lock.

The router exposes the full store surface (``get``/``get_or_create``,
``batch``, ``rows_for``, ``freeze_view``, ``batch_apply_ops``,
``decay_tick``, ``feature_matrix``, ``dumps``/``loads``,
``save``/``load``, ``compact_vocab``), so every existing layer —
:class:`~repro.streaming.cache.SumCache`,
:class:`~repro.streaming.consumer.ShardWorker`,
:class:`~repro.serving.service.RecommendationService`, the campaign
engine — runs on top of it unchanged.  Vocabularies intern *per shard*:
a campaign attribute seen only by shard 3's users allocates columns only
there.

Persistence is the refresh protocol's on-disk contract
(:mod:`repro.serving.replica` drives it):

.. code-block:: text

    root/
      manifest.json          {"generation": 7, "n_shards": 4,
                              "path": "gen-000007", ...}
      gen-000006/            previous checkpoint (replicas may still map it)
      gen-000007/
        shard-00/            one Catalog directory per partition
        shard-01/ ...

Each :meth:`ShardedSumStore.save` writes a complete new generation
directory, renames it into place, then atomically replaces the manifest
— a replica polling ``manifest.json`` either sees the old complete
generation or the new complete generation, never a half-written one.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np

from repro.core.interned import InternedIds, Population, int_ids
from repro.core.sum_model import SmartUserModel, SumRepository, UnknownUserError
from repro.core.sum_store import (
    BatchRead,
    ColumnarSumStore,
    FrozenSumBatch,
    SumRowView,
    validate_batch_ops,
)
from repro.core.emotions import EMOTION_NAMES
from repro.core.four_branch import BRANCH_ORDER
from repro.core.updates import OpBatch
from repro.streaming.bus import partition_for

#: the refresh-protocol manifest file at the root of a sharded save dir
MANIFEST_NAME = "manifest.json"
_FORMAT = "sharded-sum-store"

#: one touched shard of a routed request: ``(shard, positions in the
#: request, its ids, its local rows)``
_Group = tuple[int, np.ndarray, Sequence[int], np.ndarray]


def read_manifest(directory: str | Path) -> dict[str, Any] | None:
    """The current manifest of a sharded save directory (``None`` if absent).

    Safe to call concurrently with :meth:`ShardedSumStore.save`: the
    manifest is replaced atomically (``os.replace``), so a reader sees
    either the previous or the new complete manifest, never a torn one.
    """
    path = Path(directory) / MANIFEST_NAME
    try:
        payload = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return None
    manifest = json.loads(payload)
    if manifest.get("format") != _FORMAT:
        raise ValueError(
            f"{path} is not a sharded SUM store manifest "
            f"(format={manifest.get('format')!r})"
        )
    return manifest


def generation_dirs(directory: str | Path) -> list[tuple[int, Path]]:
    """All complete generation directories under ``directory``, oldest first.

    Retention helpers use this to prune superseded checkpoints; the
    generation the manifest currently points at is always part of the
    listing (callers must keep it).
    """
    root = Path(directory)
    found: list[tuple[int, Path]] = []
    if not root.is_dir():
        return found
    for entry in root.iterdir():
        name = entry.name
        if entry.is_dir() and name.startswith("gen-") and not name.endswith(".tmp"):
            try:
                found.append((int(name[4:]), entry))
            except ValueError:
                continue
    found.sort()
    return found


def _link_tree(src: Path, dst: Path) -> None:
    """Replicate ``src`` into ``dst`` via hardlinks (copy fallback).

    The delta-checkpoint fast path: an untouched shard's page files are
    identical byte for byte, so the new generation links the previous
    generation's inodes instead of re-serializing megabytes of columns.
    Retention pruning (``shutil.rmtree`` on old generations) stays safe —
    the inodes live until their last link goes.  Filesystems without
    hardlinks (or cross-device roots) fall back to plain copies.
    """
    dst.mkdir(parents=True, exist_ok=True)
    for entry in src.iterdir():
        target = dst / entry.name
        if entry.is_dir():
            _link_tree(entry, target)
            continue
        try:
            os.link(entry, target)
        except OSError:
            shutil.copy2(entry, target)


def positions_by_shard(shard_of: np.ndarray, n_shards: int) -> dict[int, np.ndarray]:
    """``shard -> positions`` of a per-id shard-index vector.

    Touched shards only, in order of first appearance (what a per-id
    ``setdefault`` walk would build), positions ascending within each;
    callers assemble by position.
    """
    groups = [(s, np.flatnonzero(shard_of == s)) for s in range(n_shards)]
    return dict(sorted((g for g in groups if len(g[1])), key=lambda g: g[1][0]))


class ShardedBatch(BatchRead):
    """A cross-shard batch read: per-partition captures + a gather index.

    Duck-types :class:`~repro.core.sum_store.FrozenSumBatch` (``len``,
    ``versions``, ``starved``, the ``*_matrix`` reads),
    reassembling each partition's frozen copy into request order — so
    the Advice stage takes the same matrix path over a partitioned
    population as over a single store, bit-equal row for row.
    """

    __slots__ = ("parts",)

    def __init__(
        self,
        user_ids: Sequence[int],
        parts: Sequence[tuple[np.ndarray, FrozenSumBatch]],
    ) -> None:
        super().__init__(user_ids, sum(part.starved for __, part in parts))
        #: each partition's capture with the positions (indices into
        #: ``user_ids``) its rows occupy in the assembled request order
        self.parts = list(parts)

    def _gather(self, method: str, *args) -> np.ndarray:
        out: np.ndarray | None = None
        for positions, sub in self.parts:
            block = getattr(sub, method)(*args)
            if out is None:
                out = np.empty(
                    (len(self.user_ids), block.shape[1]), dtype=block.dtype
                )
            out[positions] = block
        if out is None:  # empty batch: width comes from the order argument
            return np.zeros((0, len(args[0])))
        return out

    def intensity_matrix(self, order: Sequence[str]) -> np.ndarray:
        """``(n_users, len(order))`` emotional intensities, request order."""
        return self._gather("intensity_matrix", order)

    def sensibility_matrix(
        self, order: Sequence[str], default: float = 1.0
    ) -> np.ndarray:
        """``(n_users, len(order))`` sensibilities; absent → ``default``."""
        return self._gather("sensibility_matrix", order, default)


class ShardedSumStore:
    """``P`` independent columnar SUM partitions behind one router.

    Routing is :func:`~repro.streaming.bus.partition_for` on the user id
    — deterministic, and identical to the event bus's partitioner, so a
    topic with the same partition count pins each shard worker to
    exactly one store partition.  Every partition is a full
    :class:`~repro.core.sum_store.ColumnarSumStore` with its own lock,
    its own dynamically interned vocabularies and its own page
    directory on disk.
    """

    def __init__(
        self,
        n_shards: int = 4,
        initial_capacity: int = 1024,
        shard_factory: Callable[[int, int], ColumnarSumStore] | None = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        per_shard = max(1, int(initial_capacity) // int(n_shards))
        #: ``shard_factory(shard_index, capacity)`` builds one partition —
        #: the hook :class:`~repro.core.shm_store.MultiProcSumStore` uses
        #: to back each partition's pages with shared memory
        factory = shard_factory if shard_factory is not None else (
            lambda __, capacity: ColumnarSumStore(initial_capacity=capacity)
        )
        self.shards: tuple[ColumnarSumStore, ...] = tuple(
            factory(i, per_shard) for i in range(int(n_shards))
        )
        self._snapshot_generation: int | None = None
        self._global_floor: int | None = None
        #: per save-root checkpoint marks for delta saves: resolved root
        #: -> (generation written, per-shard mutation-clock values at
        #: that write) — an untouched shard hardlinks the previous
        #: generation's page files instead of re-serializing them
        self._checkpoint_marks: dict[str, tuple[int, list[int]]] = {}
        #: the last :meth:`population`, replaced when its key moves
        self._population: Population | None = None

    # -- routing -------------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def shard_of(self, user_id: int) -> int:
        """The partition index owning ``user_id`` (stable hash routing).

        Identical to :func:`~repro.streaming.bus.partition_for` — which,
        for integer keys, is plain modulo; the router's hot loops inline
        that rather than pay a function call per id.
        """
        return partition_for(int(user_id), len(self.shards))

    def shard_for(self, user_id: int) -> ColumnarSumStore:
        """The partition store owning ``user_id``."""
        return self.shards[self.shard_of(user_id)]

    def by_shard(self, user_ids: Sequence[int]) -> Mapping[int, Sequence[int]]:
        """``user_ids`` (ints) grouped by owning partition, order kept.

        A one-owner list — every shard worker's batch, since bus
        partition and store partition are the same hash — comes back as
        the same list object, not a copy.
        """
        n = len(self.shards)
        owners = {uid % n for uid in user_ids}
        if len(owners) == 1:
            return {owners.pop(): user_ids}
        grouped: dict[int, list[int]] = {}
        for uid in user_ids:
            grouped.setdefault(uid % n, []).append(uid)
        return grouped

    # -- repository duck-type ------------------------------------------------

    def get_or_create(self, user_id: int) -> SumRowView:
        """A read-only view of a user's SUM, creating a row in the owning
        shard on first contact."""
        return self.shard_for(user_id).get_or_create(user_id)

    def get(self, user_id: int) -> SumRowView:
        """A read-only view of an existing SUM; raises for unknown users."""
        return self.shard_for(user_id).get(user_id)

    def freeze_view(self, user_id: int) -> SmartUserModel:
        """Immutable point-in-time copy of one user's SUM (see the shard)."""
        return self.shard_for(user_id).freeze_view(user_id)

    def __contains__(self, user_id: object) -> bool:
        shard = self.shards[partition_for(user_id, len(self.shards))]
        return user_id in shard

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def __iter__(self) -> Iterator[SumRowView]:
        for uid in self.user_ids():
            yield self.get(uid)

    def user_ids(self) -> list[int]:
        """Sorted user ids with a SUM, across every shard."""
        return list(self.population())

    def population(self) -> Population:
        """Every user across the shards, sorted and interned: the merge of
        the partitions' own populations, rebuilt only when one of them is
        a new object or a partition was replaced.  ``rows`` holds, per
        partition, its users' positions in the merged order and its
        population (whose ``rows`` are their local rows)."""
        shards = self.shards
        parts = [shard.population() for shard in shards]
        key = tuple(map(id, parts))  # parts stay alive in ``rows``
        population = self._population
        if population is None or population.source is not shards or population.key != key:
            ids = np.concatenate([np.asarray(part, dtype=np.int64) for part in parts])
            order = np.argsort(ids, kind="stable")
            cuts = np.cumsum([len(part) for part in parts])[:-1]
            rows = list(zip(np.split(np.argsort(order), cuts), parts))
            merged = parts[0] if len(parts) == 1 else ids[order]
            population = self._population = Population(merged, key, shards, rows)
        return population

    @property
    def readonly(self) -> bool:
        """Whether this store is a read-only (mmap-loaded) replica."""
        return bool(self.shards) and all(s.readonly for s in self.shards)

    # -- freshness floors ----------------------------------------------------

    @property
    def snapshot_generation(self) -> int | None:
        """Generation of the checkpoint this store was loaded from."""
        return self._snapshot_generation

    def version(self, user_id: int) -> int | None:
        """Persisted per-user version floor (replicas; ``None`` live)."""
        return self.shard_for(user_id).version(user_id)

    @property
    def global_version(self) -> int | None:
        """Persisted global version floor (``None`` on live stores)."""
        if self._global_floor is not None:
            return int(self._global_floor)
        return self._snapshot_generation

    # -- batch resolution ----------------------------------------------------

    def rows_for(
        self, user_ids: Sequence[int], create: bool = False
    ) -> np.ndarray:
        """``(len(ids), 2)`` array of ``(shard, local row)`` addresses.

        Same contract as the single store's ``rows_for`` — unknown users
        (with ``create=False``) raise one :class:`~repro.core.sum_model.
        UnknownUserError` naming every offending id *across all shards*;
        ``create=True`` creates missing rows in their owning shards.
        Ids are ints (every caller coerces): routing is ``uid % P``,
        bit-identical to :func:`partition_for`.
        """
        out = np.empty((len(user_ids), 2), dtype=np.intp)
        for s, positions, __, rows in self._route(user_ids, create):
            out[positions, 0] = s
            out[positions, 1] = rows
        return out

    def _route(
        self, user_ids: Sequence[int], create: bool = False
    ) -> list[_Group]:
        """One ``(shard, positions, shard's ids, shard's rows)`` group per
        touched shard, in first-appearance order (see
        :func:`positions_by_shard`), with :meth:`rows_for`'s contract."""
        n = len(self.shards)
        if n == 1 or len(user_ids) == 1:  # one owner: delegate outright
            s = int(user_ids[0]) % n if n > 1 else 0
            rows = self.shards[s].rows_for(user_ids, create=create)
            return [(s, np.arange(len(rows)), user_ids, rows)]
        # One pass: route the whole vector, then one rows_for per touched
        # shard (its dense map, or its dict where the map cannot answer);
        # unknown ids are collected by position so the error names them
        # in request order whatever shard they fell in.
        ids = np.asarray(user_ids, dtype=np.int64)  # interned: its vector
        groups: list[_Group] = []
        unknown: list[int] = []
        for s, positions in positions_by_shard(ids % n, n).items():
            shard_ids = InternedIds(ids[positions])
            try:
                rows = self.shards[s].rows_for(shard_ids, create=create)
            except UnknownUserError as error:
                missing = np.isin(shard_ids.vector, error.user_ids)
                unknown.extend(positions[missing].tolist())
                continue
            groups.append((s, positions, shard_ids, rows))
        if unknown:
            raise UnknownUserError(ids[np.sort(unknown)].tolist())
        return groups

    def batch(
        self, user_ids: Sequence[int] | None = None, create: bool = False
    ) -> BatchRead:
        """A frozen batch read of ``user_ids`` (default: every user).

        One capture per touched partition
        (:meth:`~repro.core.sum_store.ColumnarSumStore.batch`'s).  A
        one-owner request is that partition's
        :class:`~repro.core.sum_store.FrozenSumBatch`; otherwise a
        :class:`ShardedBatch` gathers the captures into request order.
        A :meth:`population` of these partitions brings its routing along.
        """
        shards = self.shards
        ids = self.population() if user_ids is None else user_ids
        if isinstance(ids, Population) and ids.source is shards:
            # a population of these partitions: routed when it was built
            groups: list[_Group] = [
                (s, positions, part, part.rows)
                for s, (positions, part) in enumerate(ids.rows)
                if len(part)
            ]
        else:
            # Validate (or create) the whole batch up front so unknown
            # users fail as one typed error naming every id, not shard by
            # shard; each capture reads its rows off the same routing.
            # Interned ints are routed on their own vector, unwalked.
            ids = int_ids(ids)
            groups = self._route(ids, create)
        if len(groups) == 1:  # one owner: that partition's capture
            s, __, __, rows = groups[0]
            return shards[s]._capture(ids, rows)
        parts = [
            (positions, shards[s]._capture(shard_ids, rows))
            for s, positions, shard_ids, rows in groups
        ]
        return ShardedBatch(ids, parts)

    def feature_matrix(
        self,
        user_ids: Sequence[int] | None = None,
        subjective_order: Sequence[str] = (),
        include_ei: bool = True,
    ) -> tuple[np.ndarray, list[int]]:
        """Cross-shard :meth:`ColumnarSumStore.feature_matrix` (row order
        preserved; bit-equal to the single-store slices per row)."""
        ids = (
            [int(uid) for uid in user_ids]
            if user_ids is not None
            else self.user_ids()
        )
        subjective_order = tuple(subjective_order)
        width = len(EMOTION_NAMES) + len(subjective_order) + (
            len(BRANCH_ORDER) if include_ei else 0
        )
        if not ids:
            return np.zeros((0, width)), []
        out = np.empty((len(ids), width))
        # one error naming every unknown id, before any shard reads
        for s, positions, shard_ids, __ in self._route(ids):
            block, __ = self.shards[s].feature_matrix(
                shard_ids, subjective_order, include_ei
            )
            out[positions] = block
        return out, ids

    # -- vectorized update path ----------------------------------------------

    def batch_apply_ops(self, items, policy) -> list[int]:
        """Apply per-user op sequences, each shard under its own lock.

        ``items`` is an :class:`~repro.core.updates.OpBatch` or raw
        ``(user_id, ops)`` pairs (made one, then the same path).  The
        whole cross-shard batch is validated *before any shard mutates*
        unless a layer above already did (the commit layer's contract: a
        call rejected by validation leaves every partition untouched); a
        one-owner batch goes to its partition as is, a cross-shard one is
        split, and writers hitting different partitions commit
        concurrently.  Returns the batch's ``counts``: applied ops per
        raw item, aligned with ``items``.
        """
        if self.readonly:
            raise TypeError(
                "store is a read-only mmap replica; updates must run "
                "against the writable primary"
            )
        batch = validate_batch_ops(items)
        groups = self.by_shard(batch.user_ids)
        ops_of = dict(batch) if len(groups) > 1 else None  # cross-shard
        for s, owned in groups.items():
            part = batch if ops_of is None else OpBatch(
                list(owned), [ops_of[uid] for uid in owned], validated=True,
                scalar_users=batch.scalar_users,
            )
            shard = self.shards[s]
            with shard._lock:
                shard._apply_batch_locked(part, policy)
        return batch.counts

    def decay_tick(self, policy, user_ids: Sequence[int] | None = None) -> int:
        """One decay tick (default: every user); returns rows touched.

        Unknown ids raise one :class:`~repro.core.sum_model.
        UnknownUserError` naming them all before any shard decays; each
        shard's rows then decay as one vectorized call under that
        shard's own lock, inside the rows' seqlock write window.
        """
        if self.readonly:
            raise TypeError(
                "store is a read-only mmap replica; updates must run "
                "against the writable primary"
            )
        if user_ids is None:
            return sum(shard.decay_tick(policy) for shard in self.shards)
        groups = self._route([int(uid) for uid in user_ids])
        return sum(
            self.shards[s].decay_tick(policy, shard_ids)
            for s, __, shard_ids, __ in groups
        )

    # -- maintenance ---------------------------------------------------------

    def compact_vocab(self) -> int:
        """Per-shard vocabulary compaction; returns total columns dropped."""
        return sum(shard.compact_vocab() for shard in self.shards)

    # -- JSON import/export (SumRepository-compatible) ------------------------

    def dumps(self) -> str:
        """Serialize to the exact :meth:`SumRepository.dumps` JSON format."""
        return json.dumps([m.to_dict() for m in self], sort_keys=True)

    @classmethod
    def loads(cls, payload: str, n_shards: int = 4) -> "ShardedSumStore":
        """Inverse of :meth:`dumps`; accepts any SUM collection's dumps
        (each entry validated and clamped by ``SmartUserModel.from_dict``)."""
        return cls.from_repository(
            map(SmartUserModel.from_dict, json.loads(payload)), n_shards
        )

    @classmethod
    def from_repository(cls, repository, n_shards: int = 4) -> "ShardedSumStore":
        """Partition any SUM collection (object/columnar/sharded), or any
        iterable of models."""
        store = cls(n_shards=n_shards)
        for model in repository:
            store.shard_for(model.user_id)._write_models((model,))
        return store

    def to_repository(self) -> SumRepository:
        """Export to an object-backed :class:`SumRepository` (deep copy)."""
        return SumRepository.loads(self.dumps())

    # -- generation-stamped persistence ---------------------------------------

    def save(
        self,
        directory: str | Path,
        *,
        versions: Mapping[int, int] | None = None,
        global_version: int | None = None,
    ) -> Path:
        """Write one complete checkpoint generation; returns its directory.

        The generation counter is monotonic per save root: each call
        reads the current manifest, writes ``gen-<g+1>/shard-XX`` page
        directories to a temp dir, renames the generation into place and
        atomically replaces ``manifest.json``.  ``versions`` (the
        streaming cache's per-user counters) is split per shard and
        persisted with the pages, so replicas report real version floors.

        Works on replicas too (save is a pure read) — re-checkpointing a
        served generation under a new root is how a standby seeds its own
        save directory.

        Checkpoint deltas: each save records every shard's mutation-clock
        value per save root.  A shard whose clock did not move since this
        store's previous save to the same root gets its page files
        *hardlinked* from that generation instead of re-serialized, so
        the checkpoint cost scales with the touched fraction of the
        population, not its size.  (A linked shard directory carries the
        per-shard meta of the generation it was first written in — the
        manifest's generation counter is the authoritative stamp, and
        version floors for an untouched shard are by definition
        unchanged under the streaming write path.)
        """
        root = Path(directory)
        root.mkdir(parents=True, exist_ok=True)
        manifest = read_manifest(root)
        generation = (int(manifest["generation"]) + 1) if manifest else 1
        gen_name = f"gen-{generation:06d}"

        by_shard: list[dict[int, int] | None] = [None] * len(self.shards)
        if versions is not None:
            by_shard = [{} for __ in self.shards]
            for uid, v in versions.items():
                by_shard[self.shard_of(int(uid))][int(uid)] = int(v)

        # Clocks are read *before* serializing: a write racing the save
        # leaves the recorded value behind the live clock, so the next
        # save re-serializes that shard — over-writing is safe, skipping
        # a dirty shard is not.  (The checkpoint protocol syncs writers
        # first anyway; this is belt and braces.)
        root_key = str(root.resolve())
        marks = self._checkpoint_marks.get(root_key)
        clocks = [shard.mutation_count for shard in self.shards]

        work = root / (gen_name + ".tmp")
        if work.exists():
            shutil.rmtree(work)
        for i, shard in enumerate(self.shards):
            shard_dir = work / f"shard-{i:02d}"
            if marks is not None and i < len(marks[1]) and marks[1][i] == clocks[i]:
                previous = root / f"gen-{marks[0]:06d}" / f"shard-{i:02d}"
                if previous.is_dir():  # pruned → fall through to a full save
                    _link_tree(previous, shard_dir)
                    continue
            shard.save(
                shard_dir,
                generation=generation,
                versions=by_shard[i],
                global_version=global_version,
            )
        target = root / gen_name
        if target.exists():  # leftover of a crashed save that never
            shutil.rmtree(target)  # published a manifest: safe to replace
        os.replace(work, target)

        payload = {
            "format": _FORMAT,
            "generation": generation,
            "n_shards": len(self.shards),
            "path": gen_name,
        }
        if global_version is not None:
            payload["global_version"] = int(global_version)
        tmp_manifest = root / (MANIFEST_NAME + ".tmp")
        tmp_manifest.write_text(
            json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8"
        )
        os.replace(tmp_manifest, root / MANIFEST_NAME)
        self._checkpoint_marks[root_key] = (generation, clocks)
        return target

    @classmethod
    def load(cls, directory: str | Path, mmap: bool = False) -> "ShardedSumStore":
        """Load the generation the manifest currently points at.

        With ``mmap=True`` every shard's column pages are memory-mapped
        read-only (the replica layout: one physical page-cache copy per
        host, every write raises).  The returned store carries the
        checkpoint's generation and version floors.
        """
        from repro.db.storage import StorageError

        root = Path(directory)
        manifest = read_manifest(root)
        if manifest is None:
            raise StorageError(f"no {MANIFEST_NAME} under {root}")
        n_shards = int(manifest["n_shards"])
        gen_dir = root / str(manifest["path"])
        # minimal capacity: these placeholder partitions are replaced by
        # the loaded ones on the next line, so don't size real arrays
        store = cls(n_shards=n_shards, initial_capacity=n_shards)
        store.shards = tuple(
            ColumnarSumStore.load(gen_dir / f"shard-{i:02d}", mmap=mmap)
            for i in range(n_shards)
        )
        store._snapshot_generation = int(manifest["generation"])
        global_floor = manifest.get("global_version")
        store._global_floor = (
            int(global_floor) if global_floor is not None else None
        )
        return store

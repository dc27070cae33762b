"""Cross-process shard transport: the multi-process streaming plane.

PR 5's in-process sharding parallelized the numpy half of every commit
but left the Python half GIL-serialized — end-to-end streamed replay
stayed at ~1x.  This module moves each shard's *entire* worker loop
(mapper → batch commit → version bump) into its own OS process, where
it runs as a one-shard
:class:`~repro.streaming.updater.StreamingUpdater` — the thread plane's
own stack, wired in one place, and never started: the process's one
thread reads a chunk, publishes it and works it off before it reads
the next command:

.. code-block:: text

    parent (serving) process                 one worker process per shard
    ────────────────────────                 (one thread)
    MultiProcUpdater.submit_many ──chunks──▶ mp.Queue ─▶ _worker_main
      │  route: partition_for(uid)               │  per slice ≤ capacity:
      │  replay journal (checkpoint_root)        │   updater.publish_many
      │                                          │   ShardWorker.work_off
      │                                          │  (commit → shm pages)
      ├─ sync ────token · persist─────────▶      │  drain · sweep
      │    ◀─ applied_seq · layout · wrote ──    ▼
      │       metrics · stats · new latencies
      │       (+ mapper state if persist)
      ▼
    MultiProcSumStore.adopt_shard(i, layout, n_users, wrote)
    + per-shard latency reservoir, stats, decay counters

The store's column pages live on shared memory
(:mod:`repro.core.shm_store`), so a worker's commits land directly on
the pages the parent serves from — nothing is copied back.  The parent
adopts structural changes (row growth, new interned columns) only at
``sync`` barriers, from the reply pipe: each reply carries the shard's
layout and row count, plus ``wrote`` (whether the shard moved since the
worker's previous barrier), which the parent turns into a clock bump
for delta checkpoints.  A reply is small and mostly whole (metrics
snapshot, stats), but carries only the latency samples recorded since
the previous barrier, and the mapper decay counters only when the
parent persists it (a checkpoint's, and ``stop``'s): the parent keeps
each shard's reservoir and last counters.  Serving captures
(:class:`~repro.streaming.cache.SumCache` snapshots and batch reads) are
point-in-time row copies taken inside the rows' seqlock windows, so they
stay bit-stable while workers commit, between barriers too.

Delivery contract: per-user FIFO (users are pinned to shards by the same
``partition_for`` hash the in-process plane uses; one command queue per
shard preserves chunk order), exactly-once on the recovery path (with a
``checkpoint_root`` the parent journals every chunk per shard; a
checkpoint persists each shard's ``applied_seq``, mapper decay counters
and stats, and trims the journal; a crashed worker restarts from the
last checkpoint generation, replays only journal entries *after* its
persisted ``applied_seq`` and counts on from the persisted stats).
Liveness: a worker that exits or stays silent through a barrier raises
:class:`WorkerDied`; the parent restarts dead workers via the same
generation/manifest machinery
:class:`~repro.serving.replica.ReplicaRefresher` consumes, so served
generations stay monotonic across crashes.

Fork is the start method: workers inherit the store's Python-side
registries by copy-on-write at spawn time — only the numpy pages are
shared — which is exactly the ownership split the plane needs.
Consequence: spawn workers *before* starting unrelated threads, and
restart (not reuse) an updater after ``stop()``.
"""

from __future__ import annotations

import json
import multiprocessing
import time
from collections import deque
from dataclasses import asdict, fields
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.analysis.contracts import declare_lock
from repro.core.reward import ReinforcementPolicy
from repro.core.sharded_store import read_manifest
from repro.core.shm_store import MultiProcSumStore, copy_shard_into, shard_layout
from repro.core.sum_store import ColumnarSumStore
from repro.lifelog.events import Event
from repro.obs.export import merge_metrics
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import NULL_TRACER
from repro.streaming.bus import partition_for
from repro.streaming.cache import SumCache
from repro.streaming.consumer import DecayTick, ShardWorker
from repro.streaming.control import ControlPlaneConfig
from repro.streaming.mapper import MapperConfig
from repro.streaming.updater import StreamingStats, StreamingUpdater

# The command/response channel of one worker is single-owner by protocol
# (the parent's updater thread), but the lock makes that explicit and
# keeps concurrent Checkpointer cadences safe.  multiprocessing.Lock —
# the fork-safe primitive — not threading.Lock (see repro.analysis).
declare_lock("ShardWorkerProcess._io_lock")

#: per-shard checkpoint metadata written next to each generation
PROCPLANE_META = "procplane.json"

#: how long a worker may stay silent through a barrier before it counts
#: as dead (``WorkerDied``)
DEFAULT_SYNC_TIMEOUT = 60.0


class WorkerDied(RuntimeError):
    """A shard worker process exited (or wedged) outside the protocol."""


def _zero_stats() -> dict[str, int]:
    return {field.name: 0 for field in fields(StreamingStats)}


def _worker_main(
    store: MultiProcSumStore,
    shard_index: int,
    item_emotions: Mapping[str, tuple[str, ...]],
    options: Mapping[str, Any],
    mapper_state: Mapping[int, int] | None,
    commands: Any,
    responses: Any,
) -> None:
    """One shard's worker process: a one-shard :class:`StreamingUpdater`
    that is never started.

    The child runs the thread plane's own stack against its own shard
    only, so bit-equality with sequential replay reduces to the per-shard
    FIFO the command queue already provides.  It holds one thread: each
    chunk is published to the updater's bus and worked off by the shard
    worker on this thread before the next command is read, in slices no
    larger than the partition, which an unconsumed publish would block
    on.  ``options`` are the updater's keyword arguments, built once by
    the parent.
    """
    shard = store.shards[shard_index]
    arena = store.arenas[shard_index]
    updater = StreamingUpdater(
        shard, item_emotions, n_shards=1,
        telemetry=MetricsRegistry(), tracer=NULL_TRACER, **options,
    )
    (worker,) = updater.workers
    capacity = worker.partition.capacity
    samples = worker.stats.latencies
    mapper = worker.mapper
    if mapper_state:
        # restored decay counters: replay after recovery ticks decay at
        # exactly the offsets the checkpointed run would have
        mapper._since_decay.update(mapper_state)
    received_seq = 0
    stamped = shard.mutation_count

    def barrier(token: Any, persist: bool) -> None:
        nonlocal stamped
        settled = updater.drain(30.0)
        # segments grown past since the last alloc: the parent never saw
        # their names, and a forked worker exits without atexit hooks
        arena.sweep()
        wrote = shard.mutation_count != stamped
        stamped = shard.mutation_count
        reply = {
            "token": token,
            "settled": settled,
            "applied_seq": received_seq,
            "n_users": len(shard),
            "layout": shard_layout(arena, shard),
            "wrote": wrote,
            "metrics": updater.telemetry.snapshot().as_dict(),
            "stats": asdict(updater.stats()),
            # the samples since the previous barrier: the parent keeps
            # the reservoir
            "latencies": samples[-ShardWorker.MAX_LATENCY_SAMPLES:],
        }
        samples.clear()
        if persist:
            reply["mapper_state"] = dict(mapper._since_decay)
        responses.send(reply)

    try:
        while True:
            message = commands.get()
            kind = message[0]
            if kind == "events":
                __, seq, chunk = message
                for start in range(0, len(chunk), capacity):
                    updater.publish_many(chunk[start:start + capacity])
                    worker.work_off()
                received_seq = int(seq)
            elif kind == "sync":
                barrier(message[1], persist=message[2])
            elif kind == "stop":
                # nothing to join: the updater never started a thread
                barrier("__stop__", persist=True)
                return
    finally:
        responses.close()


class ShardWorkerProcess:
    """Parent-side handle for one shard's worker process.

    Owns the command queue (events / sync / stop), the response pipe and
    the liveness view.  The worker holds one thread, which commits each
    chunk before it reads the next command, so ``sync`` is a full
    barrier for this shard: the worker answers with its ``applied_seq``,
    shard layout and row count, whether it wrote since its previous
    barrier, its metrics snapshot and :class:`StreamingStats` (as a
    dict), the latency samples recorded since its previous barrier, and,
    for a ``persist`` sync or a ``stop``, its mapper decay counters.
    """

    def __init__(
        self,
        store: MultiProcSumStore,
        shard_index: int,
        item_emotions: Mapping[str, tuple[str, ...]],
        options: Mapping[str, Any],
        mapper_state: Mapping[int, int] | None = None,
    ) -> None:
        ctx = multiprocessing.get_context("fork")
        self.shard_index = int(shard_index)
        self._io_lock = ctx.Lock()
        self.commands = ctx.Queue()
        self._resp_recv, resp_send = ctx.Pipe(duplex=False)
        self._token = 0
        self.process = ctx.Process(
            target=_worker_main,
            name=f"sum-shard-proc-{shard_index}",
            args=(
                store, shard_index, item_emotions, options, mapper_state,
                self.commands, resp_send,
            ),
            daemon=True,
        )
        self._resp_send = resp_send

    def start(self) -> "ShardWorkerProcess":
        self.process.start()
        # drop the parent's copy of the send end so a dead worker reads
        # as EOF instead of an eternal poll
        self._resp_send.close()
        return self

    def is_alive(self) -> bool:
        return self.process.is_alive()

    def send_events(self, seq: int, chunk: list) -> None:
        with self._io_lock:
            self.commands.put(("events", int(seq), list(chunk)))

    def _await_response(self, token: Any, timeout: float) -> dict[str, Any]:
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise WorkerDied(
                    f"shard {self.shard_index} worker silent for {timeout}s"
                )
            try:
                if self._resp_recv.poll(min(remaining, 0.2)):
                    payload = self._resp_recv.recv()
                    if payload.get("token") == token:
                        return payload
                    continue  # stale response from a pre-crash sync
            except (EOFError, OSError) as exc:
                raise WorkerDied(
                    f"shard {self.shard_index} worker closed its pipe"
                ) from exc
            if not self.process.is_alive():
                raise WorkerDied(
                    f"shard {self.shard_index} worker exited with code "
                    f"{self.process.exitcode}"
                )

    def sync(
        self, timeout: float = DEFAULT_SYNC_TIMEOUT, persist: bool = False
    ) -> dict[str, Any]:
        """One barrier; ``persist`` asks for the mapper decay counters too
        (the parent is about to write a checkpoint from this reply)."""
        with self._io_lock:
            self._token += 1
            token = self._token
            self.commands.put(("sync", token, bool(persist)))
            return self._await_response(token, timeout)

    def stop(self, timeout: float = DEFAULT_SYNC_TIMEOUT) -> dict[str, Any] | None:
        """Graceful stop: drain, answer a final sync payload."""
        payload: dict[str, Any] | None = None
        with self._io_lock:
            if self.process.is_alive():
                self.commands.put(("stop",))
                try:
                    payload = self._await_response("__stop__", timeout)
                except WorkerDied:
                    payload = None
        self.process.join(timeout=5.0)
        if self.process.is_alive():  # pragma: no cover - wedged worker
            self.process.terminate()
            self.process.join(timeout=5.0)
        self._drop_channel()
        return payload

    def kill(self) -> None:
        """SIGKILL the worker mid-flight (crash-recovery tests)."""
        self.process.kill()
        self.process.join(timeout=5.0)

    def _drop_channel(self) -> None:
        try:
            self.commands.close()
            self.commands.join_thread()
        except (OSError, ValueError):  # pragma: no cover
            pass
        try:
            self._resp_recv.close()
        except OSError:  # pragma: no cover
            pass


class MultiProcUpdater:
    """Drop-in streamed-update facade over per-shard worker processes.

    Mirrors the :class:`~repro.streaming.updater.StreamingUpdater`
    surface (``start``/``submit_many``/``tick``/``drain``/``stats``/
    ``latencies``/``stop``, context manager) so benches and services swap
    planes without code changes.  Differences worth knowing:

    * ``drain()`` is the visibility barrier: it syncs every worker and
      adopts the layout each one replies with, so new rows/columns appear
      to the parent *then* (committed values on existing rows are visible
      immediately — same physical pages).
    * Each worker process is one thread; a barrier reply ships the
      latency samples since the previous one, which this side keeps as
      each shard's newest ``MAX_LATENCY_SAMPLES``, and the mapper decay
      counters only for a checkpoint (and at ``stop``).  ``latencies()``,
      ``stats()`` and ``merged_metrics()`` answer from the last barrier.
    * ``checkpoint()`` persists store generations plus per-shard replay
      metadata; with a ``checkpoint_root`` the plane survives worker
      crashes exactly-once (see :meth:`recover`).
    * Write-behind event logging stays in the parent's hands (log events
      at ingest if needed); workers only own SUM mutation.
    """

    def __init__(
        self,
        store: MultiProcSumStore,
        item_emotions: Mapping[str, tuple[str, ...]],
        policy: ReinforcementPolicy | None = None,
        mapper_config: MapperConfig | None = None,
        checkpoint_root: str | Path | None = None,
        queue_capacity: int = 2_048,
        batch_max: int = 256,
        max_attempts: int = 3,
        chunk: int = 512,
        sync_timeout: float = DEFAULT_SYNC_TIMEOUT,
        cache: SumCache | None = None,
        control_plane: ControlPlaneConfig | None = None,
    ) -> None:
        if not isinstance(store, MultiProcSumStore):
            raise TypeError(
                "MultiProcUpdater needs a MultiProcSumStore (shared-memory "
                f"pages), got {type(store).__name__}"
            )
        self.store = store
        self.item_emotions = item_emotions
        self.policy = policy or ReinforcementPolicy()
        self.checkpoint_root = (
            Path(checkpoint_root) if checkpoint_root is not None else None
        )
        self.chunk = int(chunk)
        self.sync_timeout = float(sync_timeout)
        self.cache = cache
        #: tail-latency control plane, inherited by every worker process
        #: (picklable frozen dataclass); None = legacy behavior
        self.control_plane = control_plane
        #: keyword arguments of every worker's one-shard StreamingUpdater
        self._options: dict[str, Any] = dict(
            policy=self.policy,
            mapper_config=mapper_config,
            queue_capacity=int(queue_capacity),
            batch_max=int(batch_max),
            max_attempts=int(max_attempts),
            control_plane=control_plane,
        )
        n = len(store.shards)
        self.workers: list[ShardWorkerProcess] = []
        self._pending: list[list[Any]] = [[] for __ in range(n)]
        self._journals: list[list[tuple[int, list[Any]]]] = [
            [] for __ in range(n)
        ]
        self._seqs = [0] * n
        #: per shard: the last barrier reply (applied_seq, metrics, ...)
        self._last_sync: list[dict[str, Any] | None] = [None] * n
        #: per shard: the newest update-to-visible samples, fed by each
        #: reply's samples since the previous barrier
        self._latencies = [
            deque(maxlen=ShardWorker.MAX_LATENCY_SAMPLES) for __ in range(n)
        ]
        #: per shard: the decay counters of the last persisted barrier
        self._decay_counters: list[dict[int, int]] = [{} for __ in range(n)]
        #: per shard: StreamingStats counted before the live worker (a
        #: recovered shard's checkpoint), and that plus its last reply's
        self._stats_base = [_zero_stats() for __ in range(n)]
        self._stats = [_zero_stats() for __ in range(n)]
        self._submitted = 0
        #: users routed since the last barrier (what the next publishes)
        self._touched: set[int] = set()
        self.recoveries = 0
        self._started = False
        self._stopped = False

    # -- lifecycle -----------------------------------------------------------

    def _spawn(self, shard_index: int, mapper_state=None) -> ShardWorkerProcess:
        return ShardWorkerProcess(
            self.store, shard_index, self.item_emotions, self._options,
            mapper_state,
        ).start()

    def start(self) -> "MultiProcUpdater":
        """Baseline-checkpoint (when configured) and fork all workers."""
        if self._stopped:
            raise RuntimeError(
                "updater already stopped; create a new MultiProcUpdater"
            )
        if self._started:
            return self
        if self.checkpoint_root is not None:
            # generation 0 of the recovery chain: without it, a worker
            # crash before the first explicit checkpoint would have no
            # durable state to replay from
            if read_manifest(self.checkpoint_root) is None:
                self._write_checkpoint()
        self.workers = [
            self._spawn(i) for i in range(len(self.store.shards))
        ]
        self._started = True
        return self

    def stop(self, drain: bool = True, timeout: float | None = 30.0) -> None:
        """Stop every worker: the last barrier, publishing to the attached
        cache what was routed since the previous one, like :meth:`drain`."""
        if self._stopped:
            return
        if drain and self._started:
            self.drain(timeout)
        for i, worker in enumerate(self.workers):
            payload = worker.stop(self.sync_timeout)
            if payload is not None:
                self._adopt(i, payload)
        if self.cache is not None:
            self.cache.invalidate(self._touched)
        self._started = False
        self._stopped = True

    def __enter__(self) -> "MultiProcUpdater":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- ingestion -----------------------------------------------------------

    def _route(self, value: Any) -> None:
        user_id = int(value.user_id)
        self._touched.add(user_id)
        shard = partition_for(user_id, len(self.store.shards))
        bucket = self._pending[shard]
        bucket.append(value)
        self._submitted += 1
        if len(bucket) >= self.chunk:
            self._flush_shard(shard)

    def _flush_shard(self, shard: int) -> None:
        bucket = self._pending[shard]
        if not bucket:
            return
        self._pending[shard] = []
        self._seqs[shard] += 1
        seq = self._seqs[shard]
        if self.checkpoint_root is not None:
            # only recover() reads the journal, and it needs a checkpoint
            self._journals[shard].append((seq, bucket))
        self.workers[shard].send_events(seq, bucket)

    def submit(self, event: Event, timeout: float | None = None) -> int:
        """Buffer one event; returns its shard (flushes on chunk bound)."""
        self.submit_many((event,))
        return partition_for(int(event.user_id), len(self.store.shards))

    def submit_many(self, events: Iterable[Event]) -> int:
        """Buffer many events (shipped in chunks of ``chunk`` per shard);
        returns how many."""
        if not self._started:
            raise RuntimeError("updater not started; call start() first")
        count = 0
        for event in events:
            self._route(event)
            count += 1
        return count

    def tick(self, user_ids: Iterable[int]) -> int:
        """Schedule one decay tick per user (journaled like any event).

        With a control plane configured, each tick carries a value-level
        deadline (``tick_ttl`` from enqueue).  The deadline pickles with
        the tick into the journal, so a worker — live or replaying after
        recovery — makes the same drop decision for the same tick and
        exactly-once accounting holds: a tick is either applied once or
        dropped-and-counted once, never both."""
        control = self.control_plane
        deadline = None
        if control is not None and control.tick_ttl is not None:
            deadline = time.monotonic() + control.tick_ttl
        return self.submit_many(
            DecayTick(int(user_id), deadline=deadline) for user_id in user_ids
        )

    # -- synchronization ------------------------------------------------------

    def _adopt(self, shard: int, payload: dict[str, Any]) -> None:
        self.store.adopt_shard(
            shard, payload["layout"], payload["n_users"], payload["wrote"]
        )
        self._last_sync[shard] = payload
        self._latencies[shard].extend(payload["latencies"])
        if "mapper_state" in payload:
            self._decay_counters[shard] = payload["mapper_state"]
        base = self._stats_base[shard]
        self._stats[shard] = {
            name: base[name] + value
            for name, value in payload["stats"].items()
        }

    def _sync_shard(self, shard: int, persist: bool) -> dict[str, Any]:
        """Barrier one shard, restarting its worker once if it is dead,
        and adopt its reply at once: a later shard's failure must not
        lose this one's ``wrote``."""
        try:
            payload = self.workers[shard].sync(self.sync_timeout, persist)
        except WorkerDied:
            self.recover(shard)
            payload = self.workers[shard].sync(self.sync_timeout, persist)
        self._adopt(shard, payload)
        return payload

    def drain(self, timeout: float | None = 30.0) -> bool:
        """Flush, barrier every worker, adopt each worker's layout.

        After ``drain()`` the parent store reflects every submitted
        event: rows, columns and values — the cross-process equivalent
        of ``StreamingUpdater.drain``.

        The attached cache is then told what moved: ``invalidate`` of
        the users routed an event or tick since the previous barrier.
        A worker only writes a user it was routed a message of, so
        everyone else keeps their ``sum_version``.  Values are not
        published here: committed rows are on the shared pages at once,
        and the parent's ``cache.get`` and ``cache.batch`` copy them
        between barriers too, each row at least as new as its stamp.
        *Direct* repository commits are not this plane's to publish:
        pair them with ``cache.invalidate(ids)``.
        """
        return self._barrier(persist=False)

    def _barrier(self, persist: bool) -> bool:
        """:meth:`drain`; ``persist`` makes every reply carry its mapper
        decay counters, for the checkpoint written from it."""
        if not self._started:
            return True
        # taken before the flush: anything routed while the barrier runs
        # lands in the next barrier's set, never in neither
        touched, self._touched = self._touched, set()
        try:
            for shard in range(len(self.workers)):
                self._flush_shard(shard)
            settled = True
            for shard in range(len(self.workers)):
                payload = self._sync_shard(shard, persist)
                settled = settled and bool(payload.get("settled"))
        except BaseException:
            self._touched |= touched  # unpublished: the next barrier's
            raise
        if self.cache is not None:
            self.cache.invalidate(touched)
        return settled

    def ensure_alive(self) -> int:
        """Restart any dead worker from the last checkpoint; returns count."""
        restarted = 0
        for shard, worker in enumerate(self.workers):
            if not worker.is_alive():
                self.recover(shard)
                restarted += 1
        return restarted

    # -- durability -----------------------------------------------------------

    def _write_checkpoint(self) -> Path:
        """Persist the (quiescent) store + per-shard replay metadata."""
        assert self.checkpoint_root is not None
        path = self.store.save(self.checkpoint_root)
        shards_meta: dict[str, dict[str, Any]] = {}
        for i in range(len(self.store.shards)):
            payload = self._last_sync[i]
            applied = (
                int(payload["applied_seq"]) if payload else self._seqs[i]
            )
            shards_meta[str(i)] = {
                "applied_seq": applied,
                "mapper_state": {
                    str(k): int(v) for k, v in self._decay_counters[i].items()
                },
                # what the shard's workers counted up to here: a worker
                # recovered from this checkpoint counts on from it
                "stats": self._stats[i],
            }
        meta_path = path / PROCPLANE_META
        meta_path.write_text(
            json.dumps({"shards": shards_meta}, sort_keys=True),
            encoding="utf-8",
        )
        for i in range(len(self.store.shards)):
            floor = shards_meta[str(i)]["applied_seq"]
            self._journals[i] = [
                entry for entry in self._journals[i] if entry[0] > floor
            ]
        return path

    def checkpoint(self) -> Path:
        """Quiesce all shards, persist a generation, trim replay journals."""
        if self.checkpoint_root is None:
            raise RuntimeError("MultiProcUpdater built without checkpoint_root")
        if self._started:
            self._barrier(persist=True)
        return self._write_checkpoint()

    def _checkpoint_meta(self) -> tuple[Path, dict[str, Any]]:
        assert self.checkpoint_root is not None
        manifest = read_manifest(self.checkpoint_root)
        if manifest is None:
            raise RuntimeError(
                f"no checkpoint manifest under {self.checkpoint_root}"
            )
        gen_dir = self.checkpoint_root / str(manifest["path"])
        meta_path = gen_dir / PROCPLANE_META
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        return gen_dir, meta

    def recover(self, shard: int) -> None:
        """Rebuild one shard from the last checkpoint and replay its tail.

        Exactly-once: the checkpoint's ``applied_seq`` floor tells which
        journaled chunks the persisted state already contains; the dead
        worker's partial post-checkpoint writes are discarded with its
        shm pages (a fresh arena-backed shard replaces them), and
        everything after the floor replays in order through a fresh
        worker seeded with the checkpointed mapper decay counters.  The
        shard's stats restart from the checkpoint's, and its latency
        reservoir from empty.
        Every user of the rebuilt shard counts as routed: the next
        barrier to start republishes the whole shard to the cache.
        """
        if self.checkpoint_root is None:
            raise WorkerDied(
                f"shard {shard} worker died and no checkpoint_root is "
                "configured; state cannot be recovered"
            )
        old = self.workers[shard]
        if old.process.is_alive():  # wedged, not dead: put it down first
            old.kill()
        old._drop_channel()
        gen_dir, meta = self._checkpoint_meta()
        shard_meta = meta["shards"][str(shard)]
        applied = int(shard_meta["applied_seq"])
        checkpointed = ColumnarSumStore.load(gen_dir / f"shard-{shard:02d}")
        fresh = self.store.fresh_shard(
            shard, capacity=max(1024, len(checkpointed))
        )
        copy_shard_into(checkpointed, fresh)
        self.store.replace_shard(shard, fresh)
        worker = self._spawn(
            shard,
            mapper_state={
                int(uid): int(n)
                for uid, n in shard_meta["mapper_state"].items()
            },
        )
        self.workers[shard] = worker
        self._stats_base[shard] = {
            **_zero_stats(), **shard_meta.get("stats", {})
        }
        self._stats[shard] = dict(self._stats_base[shard])
        self._latencies[shard].clear()
        self._touched.update(fresh.user_ids())
        for seq, chunk in self._journals[shard]:
            if seq > applied:
                worker.send_events(seq, chunk)
                self._touched.update(int(v.user_id) for v in chunk)
        self.recoveries += 1

    # -- observability ---------------------------------------------------------

    def latencies(self) -> list[float]:
        """Each shard's newest ``MAX_LATENCY_SAMPLES`` update-to-visible
        samples (seconds) as of the last barrier."""
        samples: list[float] = []
        for reservoir in self._latencies:
            samples.extend(reservoir)
        return samples

    def metrics_snapshots(self) -> list[dict[str, Any]]:
        """Per-worker ``MetricsRegistry`` snapshots from the last barrier."""
        return [
            dict(payload["metrics"])
            for payload in self._last_sync
            if payload
        ]

    def merged_metrics(self) -> dict[str, dict[str, Any]]:
        """Fleet-wide fold of every worker's snapshot (see
        :func:`repro.obs.export.merge_metrics`)."""
        return merge_metrics(self.metrics_snapshots())

    def stats(self) -> StreamingStats:
        """The workers' :class:`StreamingStats` from the last barrier
        (a recovered shard's on top of its checkpoint's), summed field by
        field, with this side's ``submitted`` and ``pending_writes``
        (events routed, events not yet shipped)."""
        totals = _zero_stats()
        for counted in self._stats:
            for name, value in counted.items():
                totals[name] += value
        totals["submitted"] = self._submitted
        totals["pending_writes"] = sum(len(b) for b in self._pending)
        return StreamingStats(**totals)

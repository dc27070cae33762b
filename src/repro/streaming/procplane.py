"""Cross-process shard transport: the multi-process streaming plane.

PR 5's in-process sharding parallelized the numpy half of every commit
but left the Python half GIL-serialized — end-to-end streamed replay
stayed at ~1x.  This module moves each shard's *entire* worker loop
(mapper → batch commit → version bump) into its own OS process:

.. code-block:: text

    parent (serving) process                 one worker process per shard
    ────────────────────────                 ───────────────────────────
    MultiProcUpdater.submit_many ──chunks──▶ mp.Queue ─▶ _worker_main
      │  route: partition_for(uid)               │  1-partition EventBus
      │  per-shard replay journal                │  EventUpdateMapper
      │                                          │  ShardWorker thread
      ├─ sync ─────────token──────────────▶      │  SumCache.apply_batch…
      │    ◀─ applied_seq · mapper state ──      │  (commit → shm pages,
      │       metrics snapshot · stats           │   control.mark_commit)
      ▼                                          ▼
    MultiProcSumStore.resync()  ◀─ layout ─ ShardControlBlock (seqlock)

The store's column pages live on shared memory
(:mod:`repro.core.shm_store`), so a worker's commits land directly on
the pages the parent serves from — nothing is copied back.  The parent
adopts structural changes (row growth, new interned columns) only at
``sync`` barriers, reading each shard's seqlock-published layout; serving
captures (:class:`~repro.streaming.cache.SumCache` snapshots) are
point-in-time row copies, so they stay bit-stable while workers commit.

Delivery contract: per-user FIFO (users are pinned to shards by the same
``partition_for`` hash the in-process plane uses; one command queue per
shard preserves chunk order), exactly-once on the recovery path (the
parent journals every chunk per shard; a checkpoint persists each
shard's ``applied_seq`` + mapper decay counters and trims the journal;
a crashed worker restarts from the last checkpoint generation and
replays only journal entries *after* its persisted ``applied_seq``).
Liveness: workers heartbeat through their control block; the parent
restarts dead workers via the same generation/manifest machinery
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
import queue as queue_mod
import time
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.analysis.contracts import declare_lock
from repro.core.reward import ReinforcementPolicy
from repro.core.sharded_store import read_manifest
from repro.core.shm_store import MultiProcSumStore, copy_shard_into
from repro.core.sum_store import ColumnarSumStore
from repro.lifelog.events import Event
from repro.obs.export import merge_metrics
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import NULL_TRACER
from repro.streaming.bus import EventBus, partition_for
from repro.streaming.cache import SumCache
from repro.streaming.consumer import DecayTick, ShardWorker
from repro.streaming.control import ControlPlaneConfig
from repro.streaming.mapper import EventUpdateMapper, MapperConfig
from repro.streaming.updater import LIFELOG_TOPIC, StreamingStats

# The command/response channel of one worker is single-owner by protocol
# (the parent's updater thread), but the lock makes that explicit and
# keeps concurrent Checkpointer cadences safe.  multiprocessing.Lock —
# the fork-safe primitive — not threading.Lock (see repro.analysis).
declare_lock("ShardWorkerProcess._io_lock")

#: per-shard checkpoint metadata written next to each generation
PROCPLANE_META = "procplane.json"

#: how long a worker may stay silent before ensure_alive calls it wedged
DEFAULT_SYNC_TIMEOUT = 60.0


class WorkerDied(RuntimeError):
    """A shard worker process exited (or wedged) outside the protocol."""


class _CommitStampingCache(SumCache):
    """A SumCache that stamps the shard control block on every commit.

    Runs inside the worker process: each committed batch bumps the
    shard's shared ``commit_version`` so the parent can observe write
    progress (and the delta-checkpoint path can tell a shard was
    touched) without any cross-process call.
    """

    def __init__(self, *args: Any, control: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._control = control

    def apply_batch_and_publish(self, *args: Any, **kwargs: Any) -> Any:
        result = super().apply_batch_and_publish(*args, **kwargs)
        self._control.mark_commit()
        return result

    def apply_and_publish(self, *args: Any, **kwargs: Any) -> Any:
        result = super().apply_and_publish(*args, **kwargs)
        self._control.mark_commit()
        return result


def _worker_main(
    store: MultiProcSumStore,
    shard_index: int,
    item_emotions: Mapping[str, tuple[str, ...]],
    policy: ReinforcementPolicy,
    mapper_config: MapperConfig | None,
    batch_max: int,
    queue_capacity: int,
    max_attempts: int,
    commands: Any,
    responses: Any,
    mapper_state: Mapping[int, int] | None,
    control_plane: ControlPlaneConfig | None = None,
) -> None:
    """One shard's worker process: the whole in-process loop, relocated.

    The child reuses the real streaming stack unchanged — a one-partition
    :class:`~repro.streaming.bus.EventBus` topic, the
    :class:`~repro.streaming.consumer.ShardWorker` thread, the
    :class:`~repro.streaming.cache.SumCache` commit path — against its
    own shard only.  Bit-equality with sequential replay therefore
    reduces to the per-shard FIFO the command queue already provides.
    """
    shard = store.shards[shard_index]
    control = store.controls[shard_index]
    telemetry = MetricsRegistry()
    bus = EventBus(telemetry=telemetry, tracer=NULL_TRACER)
    topic = bus.create_topic(
        LIFELOG_TOPIC,
        partitions=1,
        capacity=queue_capacity,
        max_attempts=max_attempts,
    )
    cache = _CommitStampingCache(shard, telemetry=telemetry, control=control)
    mapper = EventUpdateMapper(item_emotions, mapper_config)
    if mapper_state:
        # restored decay counters: replay after recovery ticks decay at
        # exactly the offsets the checkpointed run would have
        mapper._since_decay.update(
            {int(uid): int(n) for uid, n in mapper_state.items()}
        )
    (partition,) = tuple(topic)
    worker = ShardWorker(
        partition=partition,
        mapper=mapper,
        cache=cache,
        policy=policy,
        batch_max=batch_max,
        telemetry=telemetry,
        tracer=NULL_TRACER,
        control=control_plane,
    )
    worker.start()
    received_seq = 0

    def _sync_payload(token: Any, settled: bool) -> dict[str, Any]:
        return {
            "token": token,
            "settled": settled,
            "applied_seq": received_seq,
            "n_users": len(shard),
            "mapper_state": dict(mapper._since_decay),
            "metrics": telemetry.snapshot().as_dict(),
            "worker": {
                "processed": worker.stats.processed,
                "ops_applied": worker.stats.ops_applied,
                "batches": worker.stats.batches,
                "failed": worker.stats.failed,
                "log_drops": worker.stats.log_drops,
                "expired_dropped": worker.stats.expired_dropped,
            },
            "latencies": worker.stats.latencies[-worker.MAX_LATENCY_SAMPLES:],
            "topic": {
                "redelivered": topic.redelivered,
                "dead_letters": len(topic.dead_letters),
                "depth": topic.depth,
            },
        }

    try:
        while True:
            control.beat()
            try:
                message = commands.get(timeout=0.2)
            except queue_mod.Empty:
                continue
            kind = message[0]
            if kind == "events":
                __, seq, chunk = message
                topic.publish_many(
                    [(value, value.user_id) for value in chunk]
                )
                received_seq = int(seq)
            elif kind == "sync":
                settled = topic.join(timeout=30.0)
                store.publish_shard(shard_index, applied_seq=received_seq)
                responses.send(_sync_payload(message[1], settled))
            elif kind == "stop":
                settled = topic.join(timeout=30.0)
                store.publish_shard(shard_index, applied_seq=received_seq)
                worker.request_stop()
                bus.close()
                worker.join(timeout=5.0)
                responses.send(_sync_payload("__stop__", settled))
                return
    finally:
        responses.close()


class ShardWorkerProcess:
    """Parent-side handle for one shard's worker process.

    Owns the command queue (events / sync / stop), the response pipe and
    the liveness view.  ``sync`` is a full barrier for this shard: the
    worker drains its topic, publishes its layout + ``applied_seq`` to
    the control block, and answers with its mapper state, metrics
    snapshot and counters.
    """

    def __init__(
        self,
        store: MultiProcSumStore,
        shard_index: int,
        item_emotions: Mapping[str, tuple[str, ...]],
        policy: ReinforcementPolicy,
        mapper_config: MapperConfig | None = None,
        batch_max: int = 256,
        queue_capacity: int = 2_048,
        max_attempts: int = 3,
        mapper_state: Mapping[int, int] | None = None,
        control: ControlPlaneConfig | None = None,
    ) -> None:
        ctx = multiprocessing.get_context("fork")
        self.store = store
        self.shard_index = int(shard_index)
        self._io_lock = ctx.Lock()
        self.commands = ctx.Queue()
        self._resp_recv, resp_send = ctx.Pipe(duplex=False)
        self._token = 0
        self.process = ctx.Process(
            target=_worker_main,
            name=f"sum-shard-proc-{shard_index}",
            args=(
                store,
                shard_index,
                item_emotions,
                policy,
                mapper_config,
                batch_max,
                queue_capacity,
                max_attempts,
                self.commands,
                resp_send,
                dict(mapper_state) if mapper_state else None,
                control,
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

    @property
    def heartbeat(self) -> int:
        return self.store.controls[self.shard_index].heartbeat

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

    def sync(self, timeout: float = DEFAULT_SYNC_TIMEOUT) -> dict[str, Any]:
        with self._io_lock:
            self._token += 1
            token = self._token
            self.commands.put(("sync", token))
            return self._await_response(token, timeout)

    def stop(self, timeout: float = DEFAULT_SYNC_TIMEOUT) -> dict[str, Any] | None:
        """Graceful stop: drain, publish, answer a final sync payload."""
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
      re-adopts published layouts, so new rows/columns appear to the
      parent *then* (committed values on existing rows are visible
      immediately — same physical pages).
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
        self.mapper_config = mapper_config
        self.checkpoint_root = (
            Path(checkpoint_root) if checkpoint_root is not None else None
        )
        self.queue_capacity = int(queue_capacity)
        self.batch_max = int(batch_max)
        self.max_attempts = int(max_attempts)
        self.chunk = int(chunk)
        self.sync_timeout = float(sync_timeout)
        self.cache = cache
        #: tail-latency control plane, inherited by every worker process
        #: (picklable frozen dataclass); None = legacy behavior
        self.control_plane = control_plane
        n = len(store.shards)
        self.workers: list[ShardWorkerProcess] = []
        self._pending: list[list[Any]] = [[] for __ in range(n)]
        self._journals: list[list[tuple[int, list[Any]]]] = [
            [] for __ in range(n)
        ]
        self._seqs = [0] * n
        self._last_sync: list[dict[str, Any] | None] = [None] * n
        self._submitted = 0
        #: users routed since the last barrier (what the next publishes)
        self._touched: set[int] = set()
        self.recoveries = 0
        self._started = False
        self._stopped = False

    # -- lifecycle -----------------------------------------------------------

    def _spawn(self, shard_index: int, mapper_state=None) -> ShardWorkerProcess:
        worker = ShardWorkerProcess(
            self.store,
            shard_index,
            self.item_emotions,
            self.policy,
            mapper_config=self.mapper_config,
            batch_max=self.batch_max,
            queue_capacity=self.queue_capacity,
            max_attempts=self.max_attempts,
            mapper_state=mapper_state,
            control=self.control_plane,
        )
        return worker.start()

    def start(self) -> "MultiProcUpdater":
        """Baseline-checkpoint (when configured) and fork all workers."""
        if self._stopped:
            raise RuntimeError(
                "updater already stopped; create a new MultiProcUpdater"
            )
        if self._started:
            return self
        for i in range(len(self.store.shards)):
            self.store.publish_shard(i, applied_seq=self._seqs[i])
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
                self._last_sync[i] = payload
        self.store.resync()
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
        self._journals[shard].append((seq, bucket))
        self.workers[shard].send_events(seq, bucket)

    def submit(self, event: Event, timeout: float | None = None) -> int:
        """Buffer one event; returns its shard (flushes on chunk bound)."""
        if not self._started:
            raise RuntimeError("updater not started; call start() first")
        shard = partition_for(int(event.user_id), len(self.store.shards))
        self._route(event)
        return shard

    def submit_many(self, events: Iterable[Event], chunk: int | None = None) -> int:
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
        if not self._started:
            raise RuntimeError("updater not started; call start() first")
        control = self.control_plane
        deadline = None
        if control is not None and control.tick_ttl is not None:
            deadline = time.monotonic() + control.tick_ttl
        count = 0
        for user_id in user_ids:
            self._route(DecayTick(int(user_id), deadline=deadline))
            count += 1
        return count

    # -- synchronization ------------------------------------------------------

    def _sync_shard(self, shard: int) -> dict[str, Any]:
        """Barrier one shard, restarting its worker once if it is dead."""
        try:
            payload = self.workers[shard].sync(self.sync_timeout)
        except WorkerDied:
            self.recover(shard)
            payload = self.workers[shard].sync(self.sync_timeout)
        self._last_sync[shard] = payload
        return payload

    def drain(self, timeout: float | None = 30.0) -> bool:
        """Flush, barrier every worker, adopt published layouts.

        After ``drain()`` the parent store reflects every submitted
        event: rows, columns and values — the cross-process equivalent
        of ``StreamingUpdater.drain``.

        The attached cache is then told what moved: ``invalidate`` of
        the users routed an event or tick since the previous barrier.
        A worker only writes a user it was routed a message of, so
        everyone else keeps their ``sum_version`` and staged mirror row.
        *Direct* repository writes are not this plane's to publish: pair
        them with ``cache.invalidate(ids)`` (``SumCache.write_lock``).
        """
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
                payload = self._sync_shard(shard)
                settled = settled and bool(payload.get("settled"))
        except BaseException:
            self._touched |= touched  # unpublished: the next barrier's
            raise
        self.store.resync()
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
            state = dict(payload["mapper_state"]) if payload else {}
            shards_meta[str(i)] = {
                "applied_seq": applied,
                "mapper_state": {str(k): int(v) for k, v in state.items()},
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
            self.drain()
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
        worker seeded with the checkpointed mapper decay counters.
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
        self.store.publish_shard(shard, applied_seq=applied)
        worker = self._spawn(
            shard,
            mapper_state={
                int(uid): int(n)
                for uid, n in shard_meta["mapper_state"].items()
            },
        )
        self.workers[shard] = worker
        self._touched.update(fresh.user_ids())
        for seq, chunk in self._journals[shard]:
            if seq > applied:
                worker.send_events(seq, chunk)
                self._touched.update(int(v.user_id) for v in chunk)
        self.recoveries += 1

    # -- observability ---------------------------------------------------------

    def latencies(self) -> list[float]:
        samples: list[float] = []
        for payload in self._last_sync:
            if payload:
                samples.extend(payload["latencies"])
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
        payloads = [p for p in self._last_sync if p]

        def total(*keys: str) -> int:
            out = 0
            for payload in payloads:
                value: Any = payload
                for key in keys:
                    value = value[key]
                out += int(value)
            return out

        return StreamingStats(
            submitted=self._submitted,
            applied=total("worker", "processed"),
            ops_applied=total("worker", "ops_applied"),
            batches=total("worker", "batches"),
            redelivered=total("topic", "redelivered"),
            dead_lettered=total("topic", "dead_letters"),
            failed=total("worker", "failed"),
            log_dropped=total("worker", "log_drops"),
            queue_depth=total("topic", "depth"),
            flushed_events=0,
            flush_count=0,
            pending_writes=sum(len(bucket) for bucket in self._pending),
            expired_dropped=sum(
                int(p["worker"].get("expired_dropped", 0)) for p in payloads
            ),
        )

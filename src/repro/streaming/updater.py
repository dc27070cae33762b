"""The streaming emotion-update subsystem, assembled.

:class:`StreamingUpdater` wires the whole live Fig. 4 loop together:

.. code-block:: text

    LifeLog events ──▶ EventBus topic "lifelog"
                          │  (hash-partitioned by user_id, bounded,
                          │   at-least-once)
                ┌─────────┼─────────┐
           ShardWorker  ShardWorker  …          one thread per partition
                │            │
                │ mapper: event ──▶ reward/punish/decay ops
                │ cache.apply_batch_and_publish: apply ops + version
                │   bumps under the touched users' locks
                │ write-behind ──▶ EventLog.extend (batched)
                └─▶ cache.mark_batch: one global bump per batch
                          │
                          ▼
          SumCache (versioned snapshots) ◀── RecommendationService.sums

    The Advice stage therefore serves from state at most one in-flight
    batch behind the stream, and the version counters say exactly how
    far behind.

Usage::

    updater = StreamingUpdater(sums, item_emotions, event_log=log)
    service = RecommendationService(sums=updater.cache, ...)
    with updater:                       # start()/stop()
        updater.submit_many(events)
        updater.drain()                 # all applied + flushed
        service.recommend(...)          # fresh emotional state
"""

from __future__ import annotations

from dataclasses import dataclass
from time import monotonic
from typing import Iterable, Mapping

from repro.core.reward import ReinforcementPolicy
from repro.core.sum_model import SumRepository
from repro.core.sum_store import ColumnarSumStore
from repro.lifelog.events import Event
from repro.lifelog.store import EventLog
from repro.obs.metrics import MetricsRegistry, NullRegistry, resolve_registry
from repro.obs.tracing import NULL_TRACER, NullTracer, Tracer
from repro.streaming.bus import EventBus, Topic
from repro.streaming.cache import SumCache
from repro.streaming.consumer import DecayTick, ShardWorker
from repro.streaming.control import ControlPlaneConfig
from repro.streaming.mapper import EventUpdateMapper, MapperConfig
from repro.streaming.writebehind import WriteBehindWriter

#: the single topic the subsystem runs on
LIFELOG_TOPIC = "lifelog"

#: events per ``publish_many`` call of :meth:`StreamingUpdater.submit_many`
PUBLISH_CHUNK = 512


@dataclass(frozen=True)
class StreamingStats:
    """Aggregate counters across the bus and all shard workers."""

    submitted: int
    applied: int
    ops_applied: int
    batches: int
    redelivered: int
    dead_lettered: int
    failed: int
    log_dropped: int
    queue_depth: int
    flushed_events: int
    flush_count: int
    pending_writes: int
    #: background messages shed at publish (full partition, drop-new or
    #: evicted by a user-class publish)
    shed_background: int = 0
    #: background messages shed at dequeue (bus-level deadline expired)
    shed_expired: int = 0
    #: decay ticks a worker dropped unapplied (value-level deadline)
    expired_dropped: int = 0


class StreamingUpdater:
    """Live incremental SUM updates from a LifeLog event stream.

    Parameters
    ----------
    sums:
        The live SUM collection to update — an object-backed
        :class:`~repro.core.sum_model.SumRepository` or the columnar
        :class:`~repro.core.sum_store.ColumnarSumStore`.  Workers commit
        whole batches through its ``batch_apply_ops`` and create SUMs on
        first contact, like the offline loop.
    item_emotions:
        ``str(item_id) -> emotions`` mapping for the update mapper (see
        :meth:`~repro.datagen.catalog.CourseCatalog.emotion_links`).
    policy:
        Reinforcement knobs shared with the offline loop (default
        :class:`~repro.core.reward.ReinforcementPolicy`).
    mapper_config:
        Per-category strengths and decay cadence.
    event_log:
        Optional :class:`~repro.lifelog.store.EventLog` for write-behind
        persistence of every applied event.
    n_shards:
        Consumer parallelism = topic partitions.  Per-user ordering holds
        for any value because users are hash-pinned to shards.
    queue_capacity:
        Bounded-queue size per partition (backpressure threshold).
    batch_max:
        Largest batch one worker applies (and the visibility quantum:
        versions bump once per applied batch).
    max_attempts:
        At-least-once redelivery budget before dead-lettering.
    flush_every:
        Write-behind buffer size, in events.
    telemetry:
        A :class:`~repro.obs.metrics.MetricsRegistry` to instrument the
        whole subsystem (bus, workers, cache, write-behind).  Default
        ``None`` runs on null instruments: no locks, no timestamps.
    tracer:
        A :class:`~repro.obs.tracing.Tracer` for per-event lifecycle
        spans (queue wait → map → commit → publish).  When ``telemetry``
        is enabled and no tracer is given, one is created — trace ids
        are then minted at ingest and stamped on every delivery.
    """

    def __init__(
        self,
        sums: "SumRepository | ColumnarSumStore",
        item_emotions: Mapping[str, tuple[str, ...]],
        policy: ReinforcementPolicy | None = None,
        mapper_config: MapperConfig | None = None,
        event_log: EventLog | None = None,
        n_shards: int = 4,
        queue_capacity: int = 2_048,
        batch_max: int = 256,
        max_attempts: int = 3,
        flush_every: int = 512,
        telemetry: MetricsRegistry | NullRegistry | None = None,
        tracer: Tracer | NullTracer | None = None,
        control_plane: ControlPlaneConfig | None = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.policy = policy or ReinforcementPolicy()
        #: tail-latency control plane (None = legacy fixed-batch,
        #: never-shed behavior, bit-exact with earlier releases)
        self.control_plane = control_plane
        self.telemetry = resolve_registry(telemetry)
        if tracer is None:
            # enabled telemetry implies tracing: ids minted at ingest
            self.tracer: Tracer | NullTracer = (
                Tracer() if self.telemetry.enabled else NULL_TRACER
            )
        else:
            self.tracer = tracer
        self.cache = SumCache(sums, telemetry=self.telemetry)
        self.bus = EventBus(telemetry=self.telemetry, tracer=self.tracer)
        self.topic: Topic = self.bus.create_topic(
            LIFELOG_TOPIC, partitions=n_shards,
            capacity=queue_capacity, max_attempts=max_attempts,
        )
        self.write_behind = (
            WriteBehindWriter(event_log, flush_every, telemetry=self.telemetry)
            if event_log is not None else None
        )
        # One mapper per shard: per-user decay counters stay with the
        # worker that owns the user, so they need no cross-thread locking.
        self.workers = [
            ShardWorker(
                partition=partition,
                mapper=EventUpdateMapper(item_emotions, mapper_config),
                cache=self.cache,
                policy=self.policy,
                write_behind=self.write_behind,
                batch_max=batch_max,
                telemetry=self.telemetry,
                tracer=self.tracer,
                control=control_plane,
            )
            for partition in self.topic
        ]
        self._started = False
        self._stopped = False
        self._submitted = 0
        self.telemetry.gauge(
            "streaming.submitted", fn=lambda: float(self._submitted)
        )

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "StreamingUpdater":
        """Start all shard workers (idempotent while running).

        An updater is single-use: worker threads and the bus cannot be
        restarted, so ``start()`` after :meth:`stop` raises — build a
        fresh updater instead (the SUM repository and event log carry
        all durable state, so nothing is lost).
        """
        if self._stopped:
            raise RuntimeError(
                "updater already stopped; create a new StreamingUpdater"
            )
        if not self._started:
            for worker in self.workers:
                worker.start()
            self._started = True
        return self

    def stop(self, drain: bool = True, timeout: float | None = 30.0) -> None:
        """Stop workers (terminal); with ``drain`` process everything first."""
        if self._stopped:
            return
        if drain and self._started:
            self.drain(timeout)
        for worker in self.workers:
            worker.request_stop()
        self.bus.close()
        for worker in self.workers:
            if worker.is_alive():
                worker.join(timeout)
        if self.write_behind is not None:
            self.write_behind.flush()
        self._started = False
        self._stopped = True

    def __enter__(self) -> "StreamingUpdater":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- ingestion ---------------------------------------------------------

    def submit(self, event: Event, timeout: float | None = None) -> int:
        """Publish one event (blocks under backpressure); returns shard."""
        if not self._started:
            raise RuntimeError("updater not started; call start() first")
        shard = self.topic.publish(event, key=event.user_id, timeout=timeout)
        self._submitted += 1
        return shard

    def submit_many(self, events: Iterable[Event]) -> int:
        """Publish many events on the batched path (one partition lock
        hold per :data:`PUBLISH_CHUNK` events instead of per event);
        returns how many."""
        if not self._started:
            raise RuntimeError("updater not started; call start() first")
        return self.publish_many(events)

    def publish_many(self, events: Iterable[Event]) -> int:
        """:meth:`submit_many` without the started check: the call that
        publishes into an updater whose partitions the caller works off
        itself (:meth:`ShardWorker.work_off
        <repro.streaming.consumer.ShardWorker.work_off>`) and which is
        never started.  Such a caller must publish at most a partition's
        capacity between work-offs, or the publish blocks forever."""
        pending: list[tuple[Event, int]] = []
        count = 0
        for event in events:
            pending.append((event, event.user_id))
            if len(pending) >= PUBLISH_CHUNK:
                count += self.topic.publish_many(pending)
                pending = []
        if pending:
            count += self.topic.publish_many(pending)
        self._submitted += count
        return count

    def tick(self, user_ids: Iterable[int]) -> int:
        """Schedule one decay tick per user (the between-touches decay).

        With a control plane configured, ticks ride the *background*
        service class: a saturated partition sheds them instead of
        blocking user-facing publishes, and ``tick_ttl`` stamps a
        deadline after which a queued tick is dropped unprocessed
        (exact-counted at whichever layer sheds it)."""
        if not self._started:
            raise RuntimeError("updater not started; call start() first")
        control = self.control_plane
        background = control is not None and control.priority_shedding
        deadline = None
        if control is not None and control.tick_ttl is not None:
            deadline = monotonic() + control.tick_ttl
        count = 0
        for user_id in user_ids:
            self.topic.publish(
                DecayTick(int(user_id), deadline=deadline),
                key=int(user_id),
                background=background,
                deadline=deadline,
            )
            self._submitted += 1
            count += 1
        return count

    # -- synchronization ---------------------------------------------------

    def drain(self, timeout: float | None = 30.0) -> bool:
        """Block until every submitted message is applied (or dead) and
        the write-behind buffer is flushed; returns ``True`` on success."""
        settled = self.topic.join(timeout)
        if self.write_behind is not None:
            self.write_behind.flush()
        return settled

    # -- observability -----------------------------------------------------

    def latencies(self) -> list[float]:
        """Update-to-visible latency samples (seconds) across workers."""
        samples: list[float] = []
        for worker in self.workers:
            samples.extend(worker.stats.latencies)
        return samples

    def stats(self) -> StreamingStats:
        return StreamingStats(
            submitted=self._submitted,
            applied=sum(w.stats.processed for w in self.workers),
            ops_applied=sum(w.stats.ops_applied for w in self.workers),
            batches=sum(w.stats.batches for w in self.workers),
            redelivered=self.topic.redelivered,
            dead_lettered=len(self.topic.dead_letters),
            failed=sum(w.stats.failed for w in self.workers),
            log_dropped=sum(w.stats.log_drops for w in self.workers),
            queue_depth=self.topic.depth,
            flushed_events=(
                self.write_behind.flushed_events
                if self.write_behind is not None else 0
            ),
            flush_count=(
                self.write_behind.flush_count
                if self.write_behind is not None else 0
            ),
            pending_writes=(
                self.write_behind.pending
                if self.write_behind is not None else 0
            ),
            shed_background=self.topic.shed_background,
            shed_expired=self.topic.shed_expired,
            expired_dropped=sum(
                w.stats.expired_dropped for w in self.workers
            ),
        )

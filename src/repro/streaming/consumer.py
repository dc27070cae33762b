"""Sharded consumer workers: one thread per partition, per-user order.

Each :class:`ShardWorker` owns exactly one partition of the ``lifelog``
topic, so the hash partitioning of :mod:`repro.streaming.bus` guarantees
it sees *all* events of its users, in publish order — the precondition
for the mapper's per-user decay counters and for equivalence with a
sequential replay.

Batch processing protocol (at-least-once, batch-atomic visibility):

1. take up to ``batch_max`` deliveries from the partition;
2. map every delivery exactly once (a malformed event nacks for
   redelivery *before* any of its ops apply, so retries never
   double-apply);
3. group by user — which makes the batch an
   :class:`~repro.core.updates.OpBatch`, canonical from here down — then
   commit it, on every SUM backend, through
   :meth:`SumCache.apply_batch_and_publish
   <repro.streaming.cache.SumCache.apply_batch_and_publish>`: validated
   once, applied by the store's ``batch_apply_ops`` under every touched
   user's lock, apply + version bump + snapshot invalidation in that
   one hold, exactly one version bump per touched user.  A delivery is
   applied whole or not at all: when validation rejects the batch, the
   deliveries invalid on their own are dead-lettered and the rest
   commit again;
4. hand the applied events to the write-behind writer and mark the batch
   (one global-version bump);
5. ack everything applied, recording update-to-visible latency samples.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from time import monotonic, perf_counter

from repro.core.reward import ReinforcementPolicy
from repro.core.sum_store import validate_batch_ops
from repro.core.updates import OpBatch
from repro.lifelog.events import Event
from repro.obs.metrics import (
    SIZE_BUCKETS,
    MetricsRegistry,
    NullRegistry,
    labelled,
    resolve_registry,
)
from repro.obs.tracing import NullTracer, Tracer, resolve_tracer
from repro.streaming.bus import Delivery, PartitionQueue
from repro.streaming.cache import SumCache
from repro.streaming.control import AdaptiveBatcher, ControlPlaneConfig
from repro.streaming.mapper import EventUpdateMapper
from repro.streaming.writebehind import WriteBehindWriter


@dataclass(frozen=True)
class DecayTick:
    """Control message: apply one scheduled decay tick to one user."""

    user_id: int
    #: ``time.monotonic()`` deadline stamped at enqueue; a worker that
    #: picks the tick up after this drops it (counted, acked, unapplied).
    #: Lives on the *value* — not the bus delivery — so it survives
    #: pickling onto the multiproc plane and journal replay sees the
    #: same expiry decision the live run made.
    deadline: float | None = None


@dataclass
class WorkerStats:
    """Counters one shard worker maintains (read under the worker lock)."""

    processed: int = 0
    ops_applied: int = 0
    batches: int = 0
    failed: int = 0
    #: applied events whose write-behind flush failed (state is committed
    #: and acked; the events stay buffered and retry on the next flush)
    log_drops: int = 0
    #: decay ticks dropped unapplied because their deadline had passed
    #: by the time the worker dequeued them
    expired_dropped: int = 0
    #: update-to-visible latency samples, seconds (the most recent ones)
    latencies: list[float] = field(default_factory=list)


class ShardWorker(threading.Thread):
    """One consumer thread bound to one partition queue."""

    #: a worker keeps its newest this many latency samples (< twice that)
    MAX_LATENCY_SAMPLES = 50_000

    def __init__(
        self,
        partition: PartitionQueue,
        mapper: EventUpdateMapper,
        cache: SumCache,
        policy: ReinforcementPolicy,
        write_behind: WriteBehindWriter | None = None,
        batch_max: int = 256,
        poll_timeout: float = 0.05,
        telemetry: MetricsRegistry | NullRegistry | None = None,
        tracer: Tracer | NullTracer | None = None,
        control: ControlPlaneConfig | None = None,
    ) -> None:
        super().__init__(name=f"sum-shard-{partition.partition}", daemon=True)
        if cache.repository.readonly:
            # Fail at wiring time, not per delivery: a read-only mmap
            # replica can never commit, so every commit would just
            # dead-letter the whole stream one batch at a time.
            raise TypeError(
                "cannot consume into a read-only (mmap-loaded) SUM store; "
                "run shard workers against the writable primary"
            )
        self.partition = partition
        self.mapper = mapper
        self.cache = cache
        self.policy = policy
        self.write_behind = write_behind
        self.batch_max = batch_max
        self.poll_timeout = poll_timeout
        self.control = control
        # Adaptive batching replaces the fixed batch_max with a size
        # derived from queue depth + observed commit cost; the batcher is
        # owned by the consuming thread alone (run() or work_off()).
        self.batcher = (
            AdaptiveBatcher(control, batch_max)
            if control is not None and control.adaptive_batching
            else None
        )
        self.stats = WorkerStats()
        self._stop_requested = threading.Event()
        # Instruments resolve once here; the batch loop never consults the
        # registry.  All recording happens with no component lock held —
        # instrument locks stay leaves of the process lock graph.
        registry = resolve_registry(telemetry)
        self.tracer = resolve_tracer(tracer)
        self._telemetry_on = registry.enabled
        shard = str(partition.partition)
        self._m_batch_size = registry.histogram(
            "streaming.batch_size", SIZE_BUCKETS
        )
        self._m_commit = registry.histogram(
            labelled("streaming.commit_seconds", shard=shard)
        )
        self._m_visible = registry.histogram(
            "streaming.update_visible_seconds"
        )
        self._m_applied = registry.counter("streaming.events_applied")
        self._m_failed = registry.counter("streaming.events_failed")
        self._m_log_drops = registry.counter("streaming.log_drops")
        self._m_expired = registry.counter("streaming.expired_dropped")

    # -- lifecycle ---------------------------------------------------------

    def request_stop(self) -> None:
        """Ask the worker to exit once its partition is drained."""
        self._stop_requested.set()

    def run(self) -> None:  # pragma: no cover - exercised via integration
        while True:
            batch = self.partition.get_batch(
                self._next_size(), self.poll_timeout
            )
            if batch:
                self._process(batch)
            elif self._stop_requested.is_set() and self.partition.depth == 0:
                return

    def work_off(self) -> None:
        """Process whatever is queued, on the caller's thread.

        :meth:`run`'s loop without the wait, for a worker that is never
        started: it returns once the partition is empty, redeliveries
        included, so every delivery queued before the call is settled."""
        while batch := self.partition.get_batch(self._next_size(), 0):
            self._process(batch)

    def _next_size(self) -> int:
        """The next batch's size: the adaptive batcher's, or ``batch_max``."""
        if self.batcher is None:
            return self.batch_max
        return self.batcher.next_size(self.partition.depth)

    # -- batch processing --------------------------------------------------

    def _ops_for(self, delivery: Delivery):
        value = delivery.value
        if isinstance(value, DecayTick):
            return int(value.user_id), self.mapper.tick_ops(value.user_id)
        if isinstance(value, Event):
            return int(value.user_id), self.mapper.ops(value)
        raise TypeError(f"shard worker got non-event message {value!r}")

    def _nack_in_order(
        self, deliveries: list[Delivery], settled: set[int]
    ) -> None:
        """Nack preserving FIFO: front-insertion needs reverse order."""
        self.stats.failed += len(deliveries)
        self._m_failed.inc(len(deliveries))
        for delivery in reversed(deliveries):
            settled.add(id(delivery))
            self.partition.nack(delivery)

    def _reject(self, deliveries: list[Delivery], settled: set[int]) -> None:
        """Dead-letter without retry — at-most-once past the apply stage."""
        self.stats.failed += len(deliveries)
        self._m_failed.inc(len(deliveries))
        for delivery in deliveries:
            settled.add(id(delivery))
            self.partition.reject(delivery)

    def _process(self, batch: list[Delivery]) -> None:
        """Process one batch, guaranteeing every delivery settles.

        A delivery left neither acked, nacked nor rejected would leak the
        partition's in-flight count and wedge ``join``/``drain`` forever,
        so an exception escaping the batch logic (which should itself
        settle everything) rejects whatever remains unsettled — the shard
        thread survives and the queue keeps moving.
        """
        settled: set[int] = set()
        try:
            self._process_settling(batch, settled)
        except Exception:
            self._reject([d for d in batch if id(d) not in settled], settled)

    def _drop_expired(
        self, batch: list[Delivery], settled: set[int]
    ) -> list[Delivery]:
        """Shed decay ticks whose value-level deadline has passed.

        An expired tick is acked (the at-least-once contract settles it —
        it will never redeliver, so the drop happens exactly once per
        tick) but its ops never apply and the mapper's decay counters
        never advance.  The count lands in ``stats.expired_dropped`` and
        the ``streaming.expired_dropped`` counter; user-facing events are
        never dropped here.
        """
        if self.control is None:
            return batch
        now = None
        kept: list[Delivery] = []
        expired: list[Delivery] = []
        for delivery in batch:
            value = delivery.value
            if isinstance(value, DecayTick) and value.deadline is not None:
                if now is None:
                    now = monotonic()
                if now >= value.deadline:
                    expired.append(delivery)
                    continue
            kept.append(delivery)
        if expired:
            for delivery in expired:
                settled.add(id(delivery))
            self.partition.ack_batch(expired)
            self.stats.expired_dropped += len(expired)
            self._m_expired.inc(len(expired))
        return kept

    def _process_settling(
        self, batch: list[Delivery], settled: set[int]
    ) -> None:
        # Map every delivery exactly once across its whole lifetime (the
        # mapper's decay counters are stateful, so a redelivered message
        # must reuse its memoized ops, not advance the counters again),
        # nacking malformed messages before anything applies; then group
        # per user so each user's whole slice of the batch is applied
        # under one lock hold (readers never see a half-batch).
        dequeued_at = perf_counter()
        batch = self._drop_expired(batch, settled)
        if not batch:
            return
        self._m_batch_size.observe(len(batch))
        per_user: dict[int, list[Delivery]] = {}
        unmappable: list[Delivery] = []
        for delivery in batch:
            if delivery.mapped is None:
                try:
                    delivery.mapped = self._ops_for(delivery)
                except Exception:
                    unmappable.append(delivery)
                    continue
            per_user.setdefault(delivery.mapped[0], []).append(delivery)
        if unmappable:
            self._nack_in_order(unmappable, settled)
        mapped_at = perf_counter()

        applied = self._commit(per_user, settled)
        committed_at = perf_counter()
        if self.batcher is not None and applied:
            self.batcher.record(len(applied), committed_at - mapped_at)

        if not applied:
            return
        if self.write_behind is not None:
            to_log = [
                d.value for d in applied if isinstance(d.value, Event)
            ]
            if to_log:
                try:
                    self.write_behind.add_batch(to_log)
                except Exception:
                    # State is already committed; a failing flush must not
                    # stall the partition or double-apply via redelivery.
                    # The writer kept the events buffered for the next
                    # flush — count them so the lag is observable.
                    self.stats.log_drops += len(to_log)
                    self._m_log_drops.inc(len(to_log))
        self.cache.mark_batch()
        visible_at = perf_counter()
        samples = self.stats.latencies
        samples.extend(visible_at - d.published_at for d in applied)
        if len(samples) >= 2 * self.MAX_LATENCY_SAMPLES:
            # keep the newest; trimmed in place (readers hold this list)
            # and only at twice the cap, so a batch never pays the memmove
            del samples[: len(samples) - self.MAX_LATENCY_SAMPLES]
        settled.update(id(d) for d in applied)
        self.partition.ack_batch(applied)
        self.stats.processed += len(applied)
        self.stats.batches += 1
        self._m_applied.inc(len(applied))
        self._m_commit.observe(committed_at - mapped_at)
        if self._telemetry_on:
            # update-to-visible is the *user-facing* SLO: background
            # decay rides the lower queue class and is deliberately
            # allowed to wait (burst-enqueued ticks queue behind each
            # other), so its latencies stay out of the user-facing
            # histogram
            observe = self._m_visible.observe
            for delivery in applied:
                if not delivery.background:
                    observe(visible_at - delivery.published_at)
        tracer = self.tracer
        if tracer.enabled:
            # one trace per event: queue wait, map, commit, publish spans
            for delivery in applied:
                trace_id = delivery.trace_id
                if trace_id is None:
                    continue
                tracer.add(
                    trace_id, "bus.queue", delivery.published_at, dequeued_at
                )
                tracer.add(trace_id, "worker.map", dequeued_at, mapped_at)
                tracer.add(trace_id, "worker.commit", mapped_at, committed_at)
                tracer.add(trace_id, "cache.publish", committed_at, visible_at)

    def _commit(
        self, per_user: dict[int, list[Delivery]], settled: set[int]
    ) -> list[Delivery]:
        """Commit the batch once, on any backend; returns what applied.

        ``per_user`` *is* the canonical batch — unique int ids in
        first-appearance order, each user's ops in delivery order — so
        it is handed down as an :class:`~repro.core.updates.OpBatch` and
        no layer below normalises it again.  A raising commit is one of
        two failures, told apart by ``batch.validated``:

        * *rejected* — validation failed, nothing was applied: the
          deliveries invalid on their own are dead-lettered and the rest
          commit again (if none is invalid alone, the whole batch is
          dead-lettered, so there is no loop);
        * *failed after validation* — a prefix may be applied, and the
          cache has published every user of the batch: the whole batch
          is dead-lettered, since a retry could double-apply.
        """
        if not per_user:
            return []
        ops = [
            slice_[0].mapped[1] if len(slice_) == 1
            else tuple(chain.from_iterable(d.mapped[1] for d in slice_))
            for slice_ in per_user.values()
        ]
        batch = OpBatch(list(per_user), ops)
        deliveries = list(chain.from_iterable(per_user.values()))
        try:
            counts, __ = self.cache.apply_batch_and_publish(batch, self.policy)
        except Exception:
            poison = [] if batch.validated else [
                d for d in deliveries if not _valid_alone(d)
            ]
        else:
            self.stats.ops_applied += sum(counts)
            return deliveries
        if not poison:  # failed after validation, or no culprit alone
            poison = deliveries
        self._reject(sorted(poison, key=attrgetter("offset")), settled)
        bad = set(map(id, poison))
        rest: dict[int, list[Delivery]] = {}
        for delivery in deliveries:
            if id(delivery) not in bad:
                rest.setdefault(delivery.mapped[0], []).append(delivery)
        return self._commit(rest, settled)


def _valid_alone(delivery: Delivery) -> bool:
    """Whether one delivery's ops pass batch validation on their own."""
    try:
        validate_batch_ops((delivery.mapped,))
    except (KeyError, TypeError, ValueError):
        return False
    return True

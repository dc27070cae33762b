"""In-process event bus: partitioned topics, bounded queues, at-least-once.

The smallest bus that has the three properties the live Fig. 4 loop
needs, shaped like the log-based brokers production emotion pipelines sit
on:

* **partitioned topics** — a topic is a fixed array of FIFO partition
  queues; ``publish`` routes by a stable hash of the message key, so all
  events of one user land on one partition and stay ordered;
* **bounded queues** — each partition holds at most ``capacity``
  in-flight messages; publishers block (backpressure) instead of letting
  a slow consumer balloon memory;
* **at-least-once delivery** — a delivery stays owned by the partition
  until the consumer ``ack``s it; ``nack`` requeues it at the *front*
  (order preserved) with an incremented attempt counter, and messages
  that exhaust ``max_attempts`` land in the partition's dead-letter list
  instead of poisoning the stream;
* **two service classes with priority shedding** — publishes tagged
  ``background=True`` (decay / maintenance) never stall a full
  partition: a full-queue background publish is *shed* (dropped and
  exact-counted) instead of blocking, a full-queue user-class publish
  first evicts the oldest queued background message before applying
  backpressure, and background work carrying an expired ``deadline`` is
  shed at dequeue.  User-facing work is never shed.  Both classes share
  one FIFO, so the relative order of surviving messages is exactly the
  publish order — when nothing is shed, the stream is bit-identical to a
  single-class bus.

Everything is plain :mod:`threading`; there is no cross-process story
here, only a faithful in-process model of the semantics.
"""

from __future__ import annotations

import numbers
import threading
import time
import zlib
from collections import deque
from dataclasses import dataclass
from typing import Any, Iterator

from repro.analysis.contracts import (
    declare_lock,
    guarded_by,
    make_lock,
    requires_lock,
)
from repro.obs.metrics import (
    MetricsRegistry,
    NullRegistry,
    labelled,
    resolve_registry,
)
from repro.obs.tracing import NullTracer, Tracer, next_trace_id, resolve_tracer


class BusClosed(RuntimeError):
    """Raised when publishing to or reading from a closed bus."""


class PublishTimeout(RuntimeError):
    """Raised when backpressure held a publish longer than its timeout."""


def partition_for(key: Any, n_partitions: int) -> int:
    """Stable hash-partitioning of a message key.

    Integer keys (user ids, numpy integers too; not ``bool``) partition by
    value; anything else goes through CRC-32 of its ``repr``.  Stable
    across processes and runs, so "which shard owned user *u*" is too.
    """
    if n_partitions < 1:
        raise ValueError(f"n_partitions must be >= 1, got {n_partitions}")
    if key.__class__ is int:  # the common case, ahead of the ABC check
        return key % n_partitions
    if isinstance(key, bool) or not isinstance(key, numbers.Integral):
        return zlib.crc32(repr(key).encode("utf-8")) % n_partitions
    return int(key) % n_partitions


@dataclass(slots=True)
class Delivery:
    """One message handed to a consumer, awaiting ack or nack."""

    value: Any
    key: Any
    partition: int
    offset: int
    attempt: int = 1
    published_at: float = 0.0  # time.perf_counter() at first publish
    #: service class: background (decay / maintenance) work is sheddable
    #: under pressure; user-facing work never is
    background: bool = False
    #: ``time.monotonic()`` deadline after which a *background* delivery
    #: is stale enough to shed at dequeue (``None`` = never expires)
    deadline: float | None = None
    #: consumer scratch: memoized mapping result, survives redelivery so
    #: stateful mappers are consulted exactly once per message
    mapped: Any = None
    #: telemetry: id minted at event ingest (``None`` when tracing is off);
    #: survives redelivery, so every span of one event shares one trace
    trace_id: int | None = None


class TopicInstruments:
    """Pre-resolved telemetry instruments shared by a topic's partitions.

    Resolved once at topic creation so the publish/ack hot paths never
    consult the registry.  All instrument locks are leaves of the lock
    graph: partition queues only touch these *after* releasing their own
    lock, and the null variants (the default) take no locks at all.
    """

    __slots__ = (
        "tracer",
        "published",
        "acked",
        "redelivered",
        "dead_letters",
        "backpressure_stalls",
        "backpressure_seconds",
        "shed_capacity",
        "shed_expired",
    )

    def __init__(
        self,
        telemetry: MetricsRegistry | NullRegistry | None = None,
        tracer: Tracer | NullTracer | None = None,
        topic: str = "",
    ) -> None:
        registry = resolve_registry(telemetry)
        self.tracer = resolve_tracer(tracer)
        labels = {"topic": topic} if topic else {}
        self.published = registry.counter(labelled("bus.published", **labels))
        self.acked = registry.counter(labelled("bus.acked", **labels))
        self.redelivered = registry.counter(
            labelled("bus.redelivered", **labels)
        )
        self.dead_letters = registry.counter(
            labelled("bus.dead_letters", **labels)
        )
        self.backpressure_stalls = registry.counter(
            labelled("bus.backpressure_stalls", **labels)
        )
        self.backpressure_seconds = registry.histogram(
            labelled("bus.backpressure_wait_seconds", **labels)
        )
        # shedding only ever touches the background class — user-facing
        # work blocks (backpressure) instead, so a nonzero user-class
        # shed count is structurally impossible, not merely unexpected
        self.shed_capacity = registry.counter(
            labelled(
                "bus.shed", op_class="background", reason="capacity", **labels
            )
        )
        self.shed_expired = registry.counter(
            labelled(
                "bus.shed", op_class="background", reason="expired", **labels
            )
        )


#: shared by every uninstrumented queue — all methods are no-ops
NULL_TOPIC_INSTRUMENTS = TopicInstruments()


declare_lock(
    "PartitionQueue._lock",
    aliases=(
        "PartitionQueue._not_full",
        "PartitionQueue._not_empty",
        "PartitionQueue._settled",
    ),
)
declare_lock("EventBus._lock")


@guarded_by(
    "_lock",
    "_queue",
    "_next_offset",
    "_in_flight",
    "_closed",
    "published",
    "acked",
    "redelivered",
    "dead_letters",
    "shed_user",
    "shed_background",
    "shed_expired",
    # the three condition variables wrap the same underlying lock, so
    # entering any of them counts as holding it
    aliases=("_not_full", "_not_empty", "_settled"),
)
class PartitionQueue:
    """One bounded FIFO partition with ack/nack redelivery."""

    def __init__(
        self,
        partition: int,
        capacity: int,
        max_attempts: int,
        instruments: TopicInstruments | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.partition = partition
        self.capacity = capacity
        self.max_attempts = max_attempts
        self._instruments = instruments or NULL_TOPIC_INSTRUMENTS
        self._queue: deque[Delivery] = deque()
        # Witness-wrapped under REPRO_LOCK_WITNESS: ContractLock forwards
        # _release_save/_acquire_restore/_is_owned, so the condition
        # variables' wait/notify keep the witness stack accurate.
        self._lock = make_lock("PartitionQueue._lock")
        self._not_full = threading.Condition(self._lock)
        self._not_empty = threading.Condition(self._lock)
        self._settled = threading.Condition(self._lock)
        self._closed = False
        self._next_offset = 0
        self._in_flight = 0
        # -- counters ------------------------------------------------------
        self.published = 0
        self.acked = 0
        self.redelivered = 0
        self.dead_letters: list[Delivery] = []
        # per-class shed accounting.  shed_user exists so fleet views and
        # the CI zero-unexpected-shed gate can assert the invariant
        # explicitly — nothing in this class ever increments it.
        self.shed_user = 0
        self.shed_background = 0
        self.shed_expired = 0

    # -- producer side -----------------------------------------------------

    @requires_lock("_lock")
    def _shed_oldest_background_locked(self) -> bool:
        """Evict the oldest queued background delivery to make room.

        Called by a user-class publish that found the partition full:
        user-facing work sheds background work before it ever blocks.
        Returns ``True`` if a message was evicted.  O(n) scan — only ever
        runs when the partition is already saturated.
        """
        queue = self._queue
        for i, delivery in enumerate(queue):
            if delivery.background:
                del queue[i]
                self.shed_background += 1
                return True
        return False

    def put(
        self,
        value: Any,
        key: Any,
        timeout: float | None = None,
        *,
        background: bool = False,
        deadline: float | None = None,
    ) -> int:
        """Enqueue one message; blocks while the partition is full.

        ``background=True`` marks the message sheddable: instead of
        blocking on a full partition it is dropped and counted, and a
        ``deadline`` (``time.monotonic()`` timebase) lets the consumer
        side shed it unprocessed once expired.  Returns the assigned
        offset, or ``-1`` if the message was shed at publish.
        """
        return self._put_many(
            [(value, key)], timeout, background=background, deadline=deadline
        )[1]

    def put_many(
        self,
        items: list[tuple[Any, Any]],
        timeout: float | None = None,
        *,
        background: bool = False,
        deadline: float | None = None,
    ) -> int:
        """Enqueue ``(value, key)`` pairs with one lock hold per free slot
        window — the high-rate publish path.  Blocks (backpressure) while
        the partition is full; returns how many messages were placed.

        With ``background=True`` the call never blocks: whatever does not
        fit is shed (dropped and counted) instead, and ``deadline``
        stamps every placed message for expiry-shedding at dequeue."""
        return self._put_many(
            items, timeout, background=background, deadline=deadline
        )[0]

    def _put_many(
        self,
        items: list[tuple[Any, Any]],
        timeout: float | None,
        *,
        background: bool,
        deadline: float | None,
    ) -> tuple[int, int]:
        """``(placed, first offset)`` — the offset is ``-1`` if none was."""
        pub_deadline = None if timeout is None else time.monotonic() + timeout
        inst = self._instruments
        mint = inst.tracer.enabled
        placed = 0
        first = -1
        shed = 0
        stalled = 0.0
        stalls = 0
        with self._not_full:
            while placed < len(items):
                while len(self._queue) >= self.capacity:
                    if self._closed:
                        raise BusClosed("partition closed during publish")
                    if background:
                        break
                    if self._shed_oldest_background_locked():
                        shed += 1
                        continue
                    remaining = None
                    if pub_deadline is not None:
                        remaining = pub_deadline - time.monotonic()
                        if remaining <= 0:
                            raise PublishTimeout(
                                f"partition {self.partition} full "
                                f"({self.capacity} messages) for {timeout}s"
                            )
                    wait_from = time.monotonic()
                    self._not_full.wait(remaining)
                    stalled += time.monotonic() - wait_from
                    stalls += 1
                if background and len(self._queue) >= self.capacity:
                    # drop-new: the rest of the batch is shed, not queued
                    dropped = len(items) - placed
                    self.shed_background += dropped
                    shed += dropped
                    break
                if self._closed:
                    raise BusClosed("partition closed during publish")
                room = self.capacity - len(self._queue)
                now = time.perf_counter()
                partition = self.partition
                # positional, in Delivery's field order; offsets are the
                # next `take` integers, so the stream stays gap-free
                self._queue.extend([
                    Delivery(
                        value, key, partition, offset, 1, now, background,
                        deadline, None, next_trace_id() if mint else None,
                    )
                    for offset, (value, key) in enumerate(
                        items[placed:placed + room], self._next_offset
                    )
                ])
                take = min(room, len(items) - placed)
                if not placed:
                    first = self._next_offset
                self._next_offset += take
                placed += take
                self.published += take
                self._not_empty.notify()
        inst.published.inc(placed)
        if shed:
            inst.shed_capacity.inc(shed)
        if stalls:
            inst.backpressure_stalls.inc(stalls)
            inst.backpressure_seconds.observe(stalled)
        return placed, first

    # -- consumer side -----------------------------------------------------

    def get(self, timeout: float | None = None) -> Delivery | None:
        """Take the next delivery, or ``None`` on timeout / closed+empty."""
        batch = self.get_batch(1, timeout)
        return batch[0] if batch else None

    def get_batch(
        self, max_items: int, timeout: float | None = None
    ) -> list[Delivery]:
        """Take up to ``max_items`` deliveries (waits for the first only).

        Background deliveries whose ``deadline`` has passed are shed
        here — dropped unprocessed and exact-counted, never entering the
        in-flight set — so a backlogged consumer spends its time on work
        that is still worth doing."""
        if max_items < 1:
            raise ValueError(f"max_items must be >= 1, got {max_items}")
        wait_deadline = None if timeout is None else time.monotonic() + timeout
        shed = 0
        batch: list[Delivery] = []
        with self._not_empty:
            while True:
                now = None
                while self._queue and len(batch) < max_items:
                    head = self._queue[0]
                    if head.background and head.deadline is not None:
                        if now is None:
                            now = time.monotonic()
                        if now >= head.deadline:
                            self._queue.popleft()
                            self.shed_expired += 1
                            shed += 1
                            continue
                    batch.append(self._queue.popleft())
                if batch or self._closed:
                    break
                remaining = None
                if wait_deadline is not None:
                    remaining = wait_deadline - time.monotonic()
                    if remaining <= 0:
                        break
                self._not_empty.wait(remaining)
            self._in_flight += len(batch)
            freed = len(batch) + shed
            if freed:
                self._not_full.notify(freed)
        if shed:
            self._instruments.shed_expired.inc(shed)
        return batch

    def ack(self, delivery: Delivery) -> None:
        """Mark one delivery done; it will never be redelivered."""
        self.ack_batch([delivery])

    def ack_batch(self, deliveries: list[Delivery]) -> None:
        """Ack a whole applied batch with one lock hold."""
        with self._lock:
            self._in_flight -= len(deliveries)
            self.acked += len(deliveries)
            self._settled.notify_all()
        self._instruments.acked.inc(len(deliveries))

    def reject(self, delivery: Delivery) -> None:
        """Dead-letter one delivery immediately, without redelivery.

        For failures observed *after* side effects may have happened
        (retrying would double-apply); infra failures before any side
        effect use :meth:`nack` and get the at-least-once retries.
        """
        with self._lock:
            self._in_flight -= 1
            self.dead_letters.append(delivery)
            self._settled.notify_all()
        self._instruments.dead_letters.inc()

    def nack(self, delivery: Delivery) -> bool:
        """Return one delivery for redelivery (front of the queue).

        Returns ``True`` if the message was requeued, ``False`` if it
        exhausted ``max_attempts`` and went to the dead-letter list.
        """
        with self._lock:
            self._in_flight -= 1
            if delivery.attempt >= self.max_attempts:
                self.dead_letters.append(delivery)
                self._settled.notify_all()
                requeued = False
            else:
                delivery.attempt += 1
                self.redelivered += 1
                self._queue.appendleft(delivery)
                self._not_empty.notify()
                requeued = True
        if requeued:
            self._instruments.redelivered.inc()
        else:
            self._instruments.dead_letters.inc()
        return requeued

    # -- lifecycle ---------------------------------------------------------

    @property
    def depth(self) -> int:
        """Messages currently queued (excluding in-flight)."""
        with self._lock:
            return len(self._queue)

    def join(self, timeout: float | None = None) -> bool:
        """Block until every published message is acked or dead-lettered."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._settled:
            while self._queue or self._in_flight:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._settled.wait(remaining if remaining is not None else 0.1)
            return True

    def close(self) -> None:
        """Stop accepting publishes; wakes all waiters."""
        with self._lock:
            self._closed = True
            self._not_full.notify_all()
            self._not_empty.notify_all()
            self._settled.notify_all()


class Topic:
    """A named array of partition queues."""

    def __init__(
        self,
        name: str,
        partitions: int = 4,
        capacity: int = 2_048,
        max_attempts: int = 3,
        telemetry: MetricsRegistry | NullRegistry | None = None,
        tracer: Tracer | NullTracer | None = None,
    ) -> None:
        if not name:
            raise ValueError("topic needs a name")
        self.name = name
        registry = resolve_registry(telemetry)
        self.instruments = TopicInstruments(registry, tracer, name)
        self.partitions = [
            PartitionQueue(i, capacity, max_attempts, self.instruments)
            for i in range(partitions)
        ]
        # callback gauges: evaluated only at snapshot time, lock-free from
        # the gauge's side (each probe takes the partition lock briefly)
        registry.gauge(labelled("bus.depth", topic=name), fn=lambda: self.depth)
        for queue in self.partitions:
            registry.gauge(
                labelled(
                    "bus.partition_depth",
                    topic=name,
                    partition=str(queue.partition),
                ),
                fn=lambda q=queue: q.depth,
            )

    def __len__(self) -> int:
        return len(self.partitions)

    def __iter__(self) -> Iterator[PartitionQueue]:
        return iter(self.partitions)

    def publish(
        self,
        value: Any,
        key: Any,
        timeout: float | None = None,
        *,
        background: bool = False,
        deadline: float | None = None,
    ) -> int:
        """Route by key hash; returns the partition index."""
        index = partition_for(key, len(self.partitions))
        self.partitions[index].put(
            value, key, timeout, background=background, deadline=deadline
        )
        return index

    def publish_many(
        self,
        pairs: list[tuple[Any, Any]],
        timeout: float | None = None,
        *,
        background: bool = False,
        deadline: float | None = None,
    ) -> int:
        """Publish many ``(value, key)`` pairs, grouped per partition.

        Per-key order is preserved (one key always lands on one
        partition, and pairs append in input order); returns the number
        published."""
        n_partitions = len(self.partitions)
        grouped: dict[int, list[tuple[Any, Any]]] = {}
        for pair in pairs:
            key = pair[1]
            index = (
                key % n_partitions if key.__class__ is int  # not bool
                else partition_for(key, n_partitions)
            )
            grouped.setdefault(index, []).append(pair)
        published = 0
        for index, items in grouped.items():
            published += self.partitions[index].put_many(
                items, timeout, background=background, deadline=deadline
            )
        return published

    def join(self, timeout: float | None = None) -> bool:
        """Wait until all partitions settle (acked or dead-lettered)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        for queue in self.partitions:
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
            if not queue.join(remaining):
                return False
        return True

    def close(self) -> None:
        for queue in self.partitions:
            queue.close()

    # -- counters ----------------------------------------------------------

    @property
    def published(self) -> int:
        return sum(q.published for q in self.partitions)

    @property
    def acked(self) -> int:
        return sum(q.acked for q in self.partitions)

    @property
    def redelivered(self) -> int:
        return sum(q.redelivered for q in self.partitions)

    @property
    def dead_letters(self) -> list[Delivery]:
        dead: list[Delivery] = []
        for queue in self.partitions:
            dead.extend(queue.dead_letters)
        return dead

    @property
    def depth(self) -> int:
        return sum(q.depth for q in self.partitions)

    @property
    def shed_user(self) -> int:
        return sum(q.shed_user for q in self.partitions)

    @property
    def shed_background(self) -> int:
        return sum(q.shed_background for q in self.partitions)

    @property
    def shed_expired(self) -> int:
        return sum(q.shed_expired for q in self.partitions)


@dataclass
class BusStats:
    """Aggregate counters across all topics of one bus."""

    topics: int
    published: int
    acked: int
    redelivered: int
    dead_lettered: int
    depth: int
    #: user-class messages shed — structurally always 0; reported so the
    #: per-class invariant is visible, not assumed
    shed_user: int = 0
    #: background messages shed at publish (full partition)
    shed_background: int = 0
    #: background messages shed at dequeue (deadline expired)
    shed_expired: int = 0


@guarded_by("_lock", "_topics", "_closed")
class EventBus:
    """Named topics over partitioned bounded queues."""

    def __init__(
        self,
        telemetry: MetricsRegistry | NullRegistry | None = None,
        tracer: Tracer | NullTracer | None = None,
    ) -> None:
        self._topics: dict[str, Topic] = {}
        self._lock = threading.Lock()
        self._closed = False
        self.telemetry = resolve_registry(telemetry)
        self.tracer = resolve_tracer(tracer)
        self.telemetry.gauge(
            "bus.dead_lettered", fn=lambda: float(self.dead_lettered)
        )
        self.telemetry.gauge(
            "bus.redeliveries", fn=lambda: float(self.redelivered)
        )

    def create_topic(
        self,
        name: str,
        partitions: int = 4,
        capacity: int = 2_048,
        max_attempts: int = 3,
    ) -> Topic:
        """Declare a topic; re-declaring an existing name is an error."""
        with self._lock:
            if self._closed:
                raise BusClosed("bus is closed")
            if name in self._topics:
                raise ValueError(f"topic {name!r} already exists")
            topic = Topic(
                name, partitions, capacity, max_attempts,
                telemetry=self.telemetry, tracer=self.tracer,
            )
            self._topics[name] = topic
            return topic

    def topic(self, name: str) -> Topic:
        try:
            return self._topics[name]
        except KeyError:
            raise KeyError(
                f"unknown topic {name!r}; have {sorted(self._topics)}"
            ) from None

    def publish(
        self, topic: str, value: Any, key: Any, timeout: float | None = None
    ) -> int:
        """Publish one message to ``topic``; returns the partition index."""
        if self._closed:
            raise BusClosed("bus is closed")
        return self.topic(topic).publish(value, key, timeout)

    # -- aggregate counters (public observability surface) ------------------

    @property
    def published(self) -> int:
        """Messages published across every topic of this bus."""
        return sum(t.published for t in self._topics.values())

    @property
    def acked(self) -> int:
        """Messages settled successfully across every topic."""
        return sum(t.acked for t in self._topics.values())

    @property
    def redelivered(self) -> int:
        """At-least-once retries: nacked messages requeued for redelivery."""
        return sum(t.redelivered for t in self._topics.values())

    @property
    def dead_lettered(self) -> int:
        """Messages parked in dead-letter lists after exhausting retries."""
        return sum(len(t.dead_letters) for t in self._topics.values())

    @property
    def depth(self) -> int:
        """Messages currently queued (not in flight) across all topics."""
        return sum(t.depth for t in self._topics.values())

    @property
    def shed_background(self) -> int:
        """Background messages shed at publish across every topic."""
        return sum(t.shed_background for t in self._topics.values())

    @property
    def shed_expired(self) -> int:
        """Background messages shed at dequeue (expired) across topics."""
        return sum(t.shed_expired for t in self._topics.values())

    def stats(self) -> BusStats:
        topics = list(self._topics.values())
        return BusStats(
            topics=len(topics),
            published=sum(t.published for t in topics),
            acked=sum(t.acked for t in topics),
            redelivered=sum(t.redelivered for t in topics),
            dead_lettered=sum(len(t.dead_letters) for t in topics),
            depth=sum(t.depth for t in topics),
            shed_user=sum(t.shed_user for t in topics),
            shed_background=sum(t.shed_background for t in topics),
            shed_expired=sum(t.shed_expired for t in topics),
        )

    def close(self) -> None:
        with self._lock:
            self._closed = True
            for topic in self._topics.values():
                topic.close()

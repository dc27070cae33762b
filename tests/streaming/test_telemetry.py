"""End-to-end telemetry: trace propagation, bus counters, instruments.

The ISSUE's observability contract, exercised against the real stack:
trace ids minted at the bus stamp every delivery and come out the other
side as four-stage traces; the metrics registry ends a drain with the
exact event counts; every instrument the plane promises for a mixed
read/write run is present and live; the bus exposes dead-letter/retry
state as public properties; and a stack built without telemetry keeps
every envelope untouched (``trace_id is None``) and retains nothing.
"""

import pytest

from repro.core.advice import DomainProfile
from repro.core.sum_model import SumRepository
from repro.lifelog.events import ActionCategory, Event
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry, labelled
from repro.obs.tracing import NULL_TRACER, Tracer
from repro.serving import RecommendationRequest, RecommendationService
from repro.streaming import StreamingUpdater
from repro.streaming.bus import EventBus, Topic
from repro.streaming.control import ControlPlaneConfig
from repro.streaming.updater import LIFELOG_TOPIC

ITEM_EMOTIONS = {
    "7": ("enthusiastic", "motivated"),
    "9": ("shy",),
}

#: span names of one streamed event's lifecycle, in pipeline order
EVENT_STAGES = ["bus.queue", "worker.map", "worker.commit", "cache.publish"]


def lifelog_events(n):
    return [
        Event(
            timestamp=1_000.0 + i,
            user_id=i % 10,
            action="course_view",
            category=ActionCategory.NAVIGATION,
            payload={"target": "7" if i % 2 else "9"},
        )
        for i in range(n)
    ]


def make_updater(telemetry=None, tracer=None):
    sums = SumRepository()
    return StreamingUpdater(
        sums,
        ITEM_EMOTIONS,
        n_shards=2,
        batch_max=16,
        telemetry=telemetry,
        tracer=tracer,
    )


class TestTracePropagation:
    def test_every_event_yields_a_four_stage_trace(self):
        """bus → worker → cache publish, one trace per streamed event."""
        registry = MetricsRegistry()
        updater = make_updater(telemetry=registry)
        assert isinstance(updater.tracer, Tracer)  # implied by telemetry
        n = 40
        with updater:
            assert updater.submit_many(lifelog_events(n)) == n
            assert updater.drain(timeout=30.0)
        traces = updater.tracer.traces()
        assert len(traces) == n
        for trace_id, spans in traces.items():
            assert [s.name for s in spans] == EVENT_STAGES
            assert all(s.trace_id == trace_id for s in spans)
            assert all(s.duration >= 0.0 for s in spans)
            # stages tile the event's lifetime: each starts where the
            # previous ended, from publish to version-visible
            for prev, nxt in zip(spans, spans[1:]):
                assert nxt.start == pytest.approx(prev.end)
        breakdown = updater.tracer.breakdown(next(iter(traces)))
        assert set(breakdown) == set(EVENT_STAGES)

    def test_explicit_tracer_is_used_even_without_metrics(self):
        tracer = Tracer()
        updater = make_updater(telemetry=None, tracer=tracer)
        assert updater.tracer is tracer
        assert updater.telemetry is NULL_REGISTRY
        with updater:
            updater.submit_many(lifelog_events(8))
            assert updater.drain(timeout=30.0)
        assert len(tracer) == 8

    def test_retention_rotates_but_every_trace_stays_complete(self):
        tracer = Tracer(max_traces=10)
        updater = make_updater(telemetry=MetricsRegistry(), tracer=tracer)
        with updater:
            updater.submit_many(lifelog_events(50))
            assert updater.drain(timeout=30.0)
        traces = tracer.traces()
        assert len(traces) == 10
        for spans in traces.values():
            assert [s.name for s in spans] == EVENT_STAGES


class TestInstrumentedDrain:
    def test_metrics_account_for_every_event(self):
        registry = MetricsRegistry()
        updater = make_updater(telemetry=registry)
        n = 60
        with updater:
            updater.submit_many(lifelog_events(n))
            assert updater.drain(timeout=30.0)
            snap = registry.snapshot()
        topic = {"topic": LIFELOG_TOPIC}
        assert snap.value(labelled("bus.published", **topic)) == n
        assert snap.value(labelled("bus.acked", **topic)) == n
        assert snap.value(labelled("bus.redelivered", **topic)) == 0
        assert snap.value("streaming.events_applied") == n
        assert snap.value("streaming.events_failed") == 0
        assert snap.value("streaming.submitted") == n
        assert snap.value(labelled("bus.depth", **topic)) == 0
        visible = snap.histogram("streaming.update_visible_seconds")
        assert visible.count == n
        assert visible.quantile(0.99) > 0.0
        batches = snap.histogram("streaming.batch_size")
        assert batches.sum == n
        assert snap.value("cache.publishes") > 0
        assert snap.value("cache.global_version") > 0

    def test_per_shard_commit_latency_is_labelled(self):
        registry = MetricsRegistry()
        updater = make_updater(telemetry=registry)
        with updater:
            updater.submit_many(lifelog_events(30))
            assert updater.drain(timeout=30.0)
        snap = registry.snapshot()
        shard_counts = [
            snap.histogram(labelled("streaming.commit_seconds", shard=str(s))).count
            for s in range(2)
        ]
        assert sum(shard_counts) > 0


#: every instrument the telemetry plane promises for a mixed read/write
#: run: ``histogram`` entries must have observations, ``value`` entries a
#: non-zero reading
REQUIRED_HISTOGRAMS = (
    "streaming.update_visible_seconds",
    "streaming.batch_size",
    "serving.request_seconds",
    "serving.batch_width",
    labelled("serving.stage_seconds", stage="resolve"),
    labelled("serving.stage_seconds", stage="score"),
    labelled("serving.stage_seconds", stage="advice"),
    labelled("serving.stage_seconds", stage="respond"),
)
REQUIRED_VALUES = (
    labelled("bus.published", topic=LIFELOG_TOPIC),
    labelled("bus.acked", topic=LIFELOG_TOPIC),
    "streaming.events_applied",
    "streaming.submitted",
    labelled("serving.requests", kind="recommend"),
    "cache.publishes",
    "cache.global_version",
)


def instrument_gaps(snap) -> list[str]:
    """Missing or zeroed instruments in a snapshot."""
    problems: list[str] = []
    for name in REQUIRED_HISTOGRAMS:
        try:
            if snap.histogram(name).count == 0:
                problems.append(f"histogram {name} has no observations")
        except KeyError:
            problems.append(f"histogram {name} missing")
    for name in REQUIRED_VALUES:
        value = snap.value(name)
        if not value > 0:  # NaN (missing) fails this too
            problems.append(f"{name} is {value}, expected > 0")
    return problems


@pytest.mark.parametrize(
    "control_plane", [None, ControlPlaneConfig(tick_ttl=60.0)], ids=["plain", "control-plane"]
)
def test_a_mixed_run_leaves_no_instrument_missing_or_zero(control_plane):
    """Writes and recommend requests interleaved on one registry: a
    refactor that drops or renames a promised instrument fails here."""
    registry = MetricsRegistry()
    sums = SumRepository()
    for uid in range(10):
        sums.get_or_create(uid)
    updater = StreamingUpdater(
        sums, ITEM_EMOTIONS, n_shards=2, batch_max=16, telemetry=registry,
        control_plane=control_plane,
    )
    service = RecommendationService(
        sums=updater.cache,
        domain_profile=DomainProfile(
            "courses", {"enthusiastic": {"innovative": 0.8}}
        ),
        item_attributes={"7": {"innovative": 1.0}, "9": {}},
        telemetry=registry,
    )
    service.register("flat", lambda model, item: 1.0)
    events = lifelog_events(40)
    with updater:
        for start in range(0, len(events), 10):
            updater.submit_many(events[start:start + 10])
            service.recommend(
                RecommendationRequest(user_id=start // 10, items=["7", "9"], k=1)
            )
        assert updater.drain(timeout=30.0)
    stats = updater.stats()
    assert (stats.applied, stats.dead_lettered) == (40, 0)
    snap = registry.snapshot()
    assert instrument_gaps(snap) == []
    assert snap.histogram("streaming.update_visible_seconds").count == 40
    assert snap.histogram("serving.request_seconds").count == 4


class TestBusObservability:
    def test_public_counters_follow_the_delivery_lifecycle(self):
        bus = EventBus()
        bus.create_topic("t", partitions=1, capacity=16, max_attempts=2)
        for i in range(3):
            bus.publish("t", f"m{i}", key=1)
        assert bus.published == 3
        assert bus.depth == 3
        queue = bus.topic("t").partitions[0]

        delivery = queue.get(timeout=1.0)
        queue.ack(delivery)
        assert bus.acked == 1

        # first nack requeues (attempt 2), second exhausts max_attempts
        delivery = queue.get(timeout=1.0)
        assert queue.nack(delivery) is True
        assert bus.redelivered == 1
        assert bus.dead_lettered == 0
        delivery = queue.get(timeout=1.0)
        assert queue.nack(delivery) is False
        assert bus.dead_lettered == 1
        assert bus.depth == 1

    def test_counter_gauges_mirror_the_properties(self):
        registry = MetricsRegistry()
        bus = EventBus(telemetry=registry)
        bus.create_topic("t", partitions=1, capacity=16, max_attempts=1)
        bus.publish("t", "poison", key=1)
        queue = bus.topic("t").partitions[0]
        assert queue.nack(queue.get(timeout=1.0)) is False
        snap = registry.snapshot()
        assert snap.value("bus.dead_lettered") == bus.dead_lettered == 1
        assert snap.value("bus.redeliveries") == bus.redelivered == 0
        assert snap.value(labelled("bus.dead_letters", topic="t")) == 1


class TestNullDefault:
    def test_untelemetried_topic_stamps_no_trace_ids(self):
        topic = Topic("t", partitions=1)
        topic.publish("m", key=1)
        delivery = topic.partitions[0].get(timeout=1.0)
        assert delivery.trace_id is None

    def test_traced_topic_stamps_unique_trace_ids(self):
        topic = Topic("t", partitions=1, tracer=Tracer())
        topic.publish("a", key=1)
        topic.publish_many([("b", 1), ("c", 1)])
        queue = topic.partitions[0]
        ids = [queue.get(timeout=1.0).trace_id for _ in range(3)]
        assert all(tid is not None for tid in ids)
        assert len(set(ids)) == 3

    def test_default_updater_keeps_the_null_facades(self):
        updater = make_updater()
        assert updater.telemetry is NULL_REGISTRY
        assert updater.tracer is NULL_TRACER
        with updater:
            updater.submit_many(lifelog_events(12))
            assert updater.drain(timeout=30.0)
        assert len(updater.tracer) == 0
        assert updater.stats().applied == 12

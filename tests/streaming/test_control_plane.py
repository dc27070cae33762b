"""Tail-latency control plane: adaptive batching, two-class shedding,
deadline-stamped decay ticks, and seqlock reader captures.

The contracts ISSUE 9 ships on:

* batch sizing is a pure function of observed queue depth and commit
  cost — deterministic, clamped to ``[min_batch, batch_max]``;
* the bus's two service classes shed *background* work first, count
  every shed exactly, and never shed user-facing events;
* an expired decay tick is dropped unapplied and counted — and with the
  control plane off (or nothing expiring), streamed replay stays
  bit-equal to the legacy single-class plane;
* lock-free mirror captures survive a writer saturating the seqlock
  (bounded spin, writer-lock fallback) and vocabulary compaction under
  live captures.
* under healthy mixed traffic nothing user-facing is shed, aborted or
  degraded, and every event and tick is accounted for.
"""

import threading
from time import monotonic, sleep

import numpy as np
import pytest

from repro.core.advice import DomainProfile
from repro.core.gradual_eit import GradualEIT, QuestionBank
from repro.core.pipeline import EmotionalContextPipeline
from repro.core.reward import ReinforcementPolicy
from repro.core.sum_model import SumRepository
from repro.core.sum_store import ColumnarSumStore
from repro.core.updates import RewardOp
from repro.datagen.behavior import BehaviorModel
from repro.datagen.catalog import AFFINITY_LINKS, CourseCatalog
from repro.datagen.population import Population
from repro.lifelog.events import ActionCategory, Event
from repro.obs.metrics import MetricsRegistry, labelled
from repro.obs.tracing import Tracer
from repro.serving import RecommendationRequest, RecommendationService
from repro.streaming.bus import EventBus, PartitionQueue
from repro.streaming.cache import SumCache
from repro.streaming.consumer import DecayTick, ShardWorker
from repro.streaming.control import AdaptiveBatcher, ControlPlaneConfig
from repro.streaming.mapper import EventUpdateMapper
from repro.streaming.replay import ReplayDriver
from repro.streaming.updater import StreamingUpdater


def browsing_stream(n_users=40, n_courses=30, days=6.0, seed=7):
    population = Population.generate(n_users, seed=seed)
    catalog = CourseCatalog.generate(n_courses, seed=seed)
    behavior = BehaviorModel(population, catalog, seed=seed)
    events = []
    for user in population:
        events.extend(
            behavior.generate_browsing_events(user, horizon_days=days)
        )
    events.sort(key=lambda e: (e.timestamp, e.user_id, e.action))
    return catalog, events


def sequential_reference(events, item_emotions, config=None):
    sums = SumRepository()
    pipeline = EmotionalContextPipeline(
        GradualEIT(QuestionBank.default_bank()), ReinforcementPolicy()
    )
    mapper = EventUpdateMapper(item_emotions, config)
    for event in events:
        pipeline.apply_event(
            sums.get_or_create(event.user_id), event, mapper
        )
    return sums


# -- adaptive batching --------------------------------------------------------


def test_config_validates_fields():
    with pytest.raises(ValueError, match="min_batch"):
        ControlPlaneConfig(min_batch=0)
    with pytest.raises(ValueError, match="target_commit_seconds"):
        ControlPlaneConfig(target_commit_seconds=0.0)
    with pytest.raises(ValueError, match="ewma_alpha"):
        ControlPlaneConfig(ewma_alpha=1.5)
    with pytest.raises(ValueError, match="tick_ttl"):
        ControlPlaneConfig(tick_ttl=-1.0)
    assert ControlPlaneConfig(tick_ttl=None).tick_ttl is None


def test_batcher_with_no_history_tracks_depth():
    batcher = AdaptiveBatcher(ControlPlaneConfig(min_batch=8), batch_max=256)
    assert batcher.next_size(0) == 8       # floor
    assert batcher.next_size(100) == 100   # follow the queue
    assert batcher.next_size(5000) == 256  # saturated: cap for throughput


def test_batcher_latency_cap_shrinks_batches_under_slow_commits():
    config = ControlPlaneConfig(
        min_batch=4, target_commit_seconds=0.010, ewma_alpha=1.0
    )
    batcher = AdaptiveBatcher(config, batch_max=256)
    batcher.record(n_ops=100, commit_seconds=0.100)  # 1ms per op
    assert batcher.per_op_seconds == pytest.approx(0.001)
    # 10ms budget / 1ms per op -> 10-op batches, despite a deep queue
    assert batcher.next_size(200) == 10
    # fast commits re-open the throttle (alpha=1.0: last sample wins)
    batcher.record(n_ops=100, commit_seconds=0.0001)
    assert batcher.next_size(200) == 200


def test_batcher_never_leaves_bounds():
    config = ControlPlaneConfig(min_batch=8, target_commit_seconds=0.001)
    batcher = AdaptiveBatcher(config, batch_max=64)
    batcher.record(n_ops=10, commit_seconds=10.0)  # pathologically slow
    assert batcher.next_size(1000) == 64  # depth >= batch_max: throughput
    assert batcher.next_size(63) == 8     # latency cap, clamped to floor
    with pytest.raises(ValueError, match="batch_max"):
        AdaptiveBatcher(ControlPlaneConfig(min_batch=32), batch_max=16)


def test_batcher_record_ignores_empty_and_instant_batches():
    batcher = AdaptiveBatcher(ControlPlaneConfig(), batch_max=64)
    batcher.record(n_ops=0, commit_seconds=1.0)
    batcher.record(n_ops=10, commit_seconds=0.0)
    assert batcher.per_op_seconds == 0.0


# -- two-class partition queue ------------------------------------------------


def _queue(capacity=4):
    return PartitionQueue(partition=0, capacity=capacity, max_attempts=3)


def test_background_publish_on_full_queue_is_shed_not_blocked():
    q = _queue(capacity=2)
    assert q.put("u1", key=1) >= 0
    assert q.put("u2", key=2) >= 0
    started = monotonic()
    assert q.put("b1", key=3, background=True) == -1  # drop-new, no wait
    assert monotonic() - started < 0.5
    assert q.shed_background == 1
    assert q.shed_user == 0
    batch = q.get_batch(10, timeout=0.1)
    assert [d.value for d in batch] == ["u1", "u2"]


def test_user_publish_evicts_oldest_background_first():
    q = _queue(capacity=3)
    q.put("b1", key=1, background=True)
    q.put("u1", key=2)
    q.put("b2", key=3, background=True)
    # full; a user-facing publish sheds b1 (the oldest background entry)
    assert q.put("u2", key=4, timeout=0.1) >= 0
    assert q.shed_background == 1
    batch = q.get_batch(10, timeout=0.1)
    assert [d.value for d in batch] == ["u1", "b2", "u2"]  # FIFO survivors


def test_expired_background_shed_at_dequeue_with_exact_counts():
    q = _queue(capacity=8)
    q.put("b-old", key=1, background=True, deadline=monotonic() - 1.0)
    q.put("u1", key=2)
    q.put("b-live", key=3, background=True, deadline=monotonic() + 60.0)
    batch = q.get_batch(10, timeout=0.1)
    assert [d.value for d in batch] == ["u1", "b-live"]
    assert q.shed_expired == 1
    assert q.shed_background == 0
    assert q.shed_user == 0


def test_put_many_background_drops_only_the_overflow():
    q = _queue(capacity=3)
    placed = q.put_many(
        [("b1", 1), ("b2", 2), ("b3", 3), ("b4", 4)], background=True
    )
    assert placed == 3
    assert q.shed_background == 1


def test_bus_stats_aggregate_shed_counts_per_class():
    registry = MetricsRegistry()
    bus = EventBus(telemetry=registry)
    topic = bus.create_topic("t", partitions=1, capacity=2)
    topic.publish("u1", key=1)
    topic.publish("u2", key=2)
    topic.publish("b1", key=3, background=True)  # full: shed, not queued
    stats = bus.stats()
    assert stats.shed_background == 1
    assert stats.shed_expired == 0
    assert stats.shed_user == 0
    snapshot = registry.snapshot().as_dict()
    key = (
        'bus.shed{op_class="background",reason="capacity",topic="t"}'
    )
    assert snapshot[key]["value"] == 1
    bus.close()


# -- deadline-stamped decay ticks --------------------------------------------


def _shard_worker(control, registry=None):
    seed = SumRepository()
    seed.get_or_create(1).sensibility["enthusiastic"] = 0.8
    store = ColumnarSumStore.from_repository(seed)
    cache = SumCache(store)
    bus = EventBus(telemetry=registry)
    topic = bus.create_topic("t", partitions=1, capacity=64)
    (partition,) = tuple(topic)
    worker = ShardWorker(
        partition=partition,
        mapper=EventUpdateMapper({}),
        cache=cache,
        policy=ReinforcementPolicy(),
        telemetry=registry,
        control=control,
    )
    return store, bus, topic, partition, worker


def test_expired_decay_tick_dropped_counted_and_unapplied():
    registry = MetricsRegistry()
    store, bus, topic, partition, worker = _shard_worker(
        ControlPlaneConfig(), registry
    )
    before = store.get(1).sensibility["enthusiastic"]
    # stale value-level deadline only: the queue delivers it, and the
    # *worker* is the one that must notice expiry and drop before apply
    topic.publish(
        DecayTick(1, deadline=monotonic() - 1.0), key=1, background=True,
    )
    worker.start()
    assert topic.join(timeout=5.0)
    worker.request_stop()
    bus.close()
    worker.join(timeout=5.0)
    assert worker.stats.expired_dropped == 1
    assert worker.stats.processed == 0
    assert store.get(1).sensibility["enthusiastic"] == before
    snapshot = registry.snapshot().as_dict()
    assert snapshot["streaming.expired_dropped"]["value"] == 1


def test_live_decay_tick_still_applies_under_control_plane():
    store, bus, topic, partition, worker = _shard_worker(
        ControlPlaneConfig(tick_ttl=60.0)
    )
    before = store.get(1).sensibility["enthusiastic"]
    topic.publish(
        DecayTick(1, deadline=monotonic() + 60.0), key=1, background=True
    )
    worker.start()
    assert topic.join(timeout=5.0)
    worker.request_stop()
    bus.close()
    worker.join(timeout=5.0)
    assert worker.stats.expired_dropped == 0
    assert worker.stats.processed == 1
    assert store.get(1).sensibility["enthusiastic"] < before


def test_without_control_plane_stale_deadlines_are_ignored():
    # legacy wiring must stay bit-exact: a deadline-stamped tick reaching
    # a control-less worker applies normally instead of being shed
    store, bus, topic, partition, worker = _shard_worker(control=None)
    topic.publish(DecayTick(1, deadline=monotonic() - 1.0), key=1)
    worker.start()
    assert topic.join(timeout=5.0)
    worker.request_stop()
    bus.close()
    worker.join(timeout=5.0)
    assert worker.stats.expired_dropped == 0
    assert worker.stats.processed == 1


# -- end-to-end: control plane on, nothing shed => bit-equal ------------------


def test_streamed_replay_with_control_plane_is_bit_equal_when_nothing_sheds():
    catalog, events = browsing_stream(n_users=40, days=6.0)
    item_emotions = catalog.emotion_links()
    reference = sequential_reference(events, item_emotions)

    live = ColumnarSumStore()
    updater = StreamingUpdater(
        live, item_emotions, n_shards=4, batch_max=64,
        control_plane=ControlPlaneConfig(tick_ttl=300.0),
    )
    with updater:
        for event in events:
            updater.submit(event)
        assert updater.drain(timeout=60.0)
    stats = updater.stats()
    assert stats.shed_background == 0
    assert stats.shed_expired == 0
    assert stats.expired_dropped == 0
    assert live.dumps() == reference.dumps()


def test_updater_stats_surface_shed_and_expiry_counters():
    seed = SumRepository()
    seed.get_or_create(1).sensibility["enthusiastic"] = 0.5
    live = ColumnarSumStore.from_repository(seed)
    updater = StreamingUpdater(
        live, {}, n_shards=1,
        control_plane=ControlPlaneConfig(tick_ttl=1e-9),
    )
    with updater:
        updater.tick([1])
        sleep(0.01)  # let the nanosecond TTL lapse before the dequeue
        assert updater.drain(timeout=30.0)
        stats = updater.stats()
    assert stats.expired_dropped + stats.shed_expired == 1
    assert stats.shed_background == 0


# -- seqlock captures under concurrent writers --------------------------------

USER_IDS = (1, 2, 3)


def _columnar_cache():
    seed = SumRepository()
    for uid in USER_IDS:
        seed.get_or_create(uid).sensibility["enthusiastic"] = 0.1
    store = ColumnarSumStore.from_repository(seed)
    return store, SumCache(store)


def test_captures_progress_while_a_writer_saturates_the_seqlock():
    # a back-to-back batch writer keeps the row generations odd for
    # nearly its whole duty cycle; captures must fall back to the store
    # writer lock instead of spinning forever
    __, cache = _columnar_cache()
    policy = ReinforcementPolicy()
    stop = threading.Event()

    def write_forever():
        while not stop.is_set():
            cache.apply_batch_and_publish(
                [(1, (RewardOp(("enthusiastic",), 0.3),)),
                 (2, (RewardOp(("shy",), 0.2),))],
                policy,
            )
            cache.mark_batch()

    writer = threading.Thread(target=write_forever, daemon=True)
    writer.start()
    try:
        deadline = monotonic() + 30.0
        for __ in range(50):
            batch = cache.batch(list(USER_IDS))
            assert set(batch.versions) == set(USER_IDS)
            assert monotonic() < deadline, "captures starved by writer"
    finally:
        stop.set()
        writer.join(timeout=10.0)
    assert not writer.is_alive()


def test_compact_vocab_during_live_captures_restages_cleanly():
    store, cache = _columnar_cache()
    policy = ReinforcementPolicy()
    # intern a column, orphan it, and keep capturing across compactions
    cache.apply_batch_and_publish(
        [(1, (RewardOp(("hopeful",), 0.4),))], policy
    )
    cache.mark_batch()
    stop = threading.Event()
    failures = []

    def capture_forever():
        while not stop.is_set():
            try:
                batch = cache.batch(list(USER_IDS))
                values = batch.sensibility_matrix(
                    ["enthusiastic"], default=0.0
                )
                if not (values >= 0.0).all():
                    failures.append("negative sensibility")
            except Exception as exc:  # noqa: BLE001 - surfaced below
                failures.append(repr(exc))

    reader = threading.Thread(target=capture_forever, daemon=True)
    reader.start()
    try:
        for round_ in range(20):
            cache.apply_batch_and_publish(
                [(2, (RewardOp(("enthusiastic",), 0.05),))], policy
            )
            cache.mark_batch()
            store.compact_vocab()
    finally:
        stop.set()
        reader.join(timeout=10.0)
    assert not reader.is_alive()
    assert failures == []


# -- mixed traffic: paced writes, decay ticks, budgeted reads -----------------

#: (action, category, weight) mix of the synthetic LifeLog firehose
ACTION_MIX = [
    ("course_view", ActionCategory.NAVIGATION, 0.55),
    ("catalog_search", ActionCategory.NAVIGATION, 0.13),
    ("course_info", ActionCategory.INFO_REQUEST, 0.12),
    ("course_enroll", ActionCategory.ENROLLMENT, 0.05),
    ("course_rate", ActionCategory.RATING, 0.08),
    ("push_open", ActionCategory.CAMPAIGN, 0.04),
    ("push_click", ActionCategory.CAMPAIGN, 0.03),
]


def firehose(n_events, n_users, catalog, seed=7):
    """A deterministic LifeLog stream with a realistic action mix."""
    rng = np.random.default_rng(seed)
    weights = np.asarray([w for __, __, w in ACTION_MIX])
    kinds = rng.choice(len(ACTION_MIX), size=n_events, p=weights / weights.sum())
    users = rng.integers(0, n_users, size=n_events)
    courses = rng.choice(catalog.course_ids(), size=n_events)
    ratings = rng.integers(1, 6, size=n_events)
    events = []
    for i in range(n_events):
        action, category, __ = ACTION_MIX[int(kinds[i])]
        payload = {"target": str(int(courses[i]))}
        if action == "catalog_search":
            payload = {"q": catalog.get(int(courses[i])).area}
        elif action == "course_rate":
            payload["value"] = str(int(ratings[i]))
        events.append(Event(
            timestamp=1_141_000_000.0 + float(i),
            user_id=int(users[i]),
            action=action,
            category=category,
            payload=payload,
        ))
    return events


def test_mixed_traffic_sheds_nothing_unexpected():
    """Healthy pacing with the control plane on: no user-class shed, no
    deadline abort, no degraded response, and every event and tick
    accounted for.

    2,000 events paced at 1,000 events/s over 200 users and 4 shards,
    150 recommend requests with 0.25 s budgets interleaved with them,
    and a 5-user decay tick burst before every tenth request.
    """
    n_events, n_users, n_requests = 2_000, 200, 150
    tick_every, tick_users, deadline_s = 10, 5, 0.25
    catalog = CourseCatalog.generate(120, seed=7)
    sums = SumRepository()
    for uid in range(n_users):
        sums.get_or_create(uid)
    registry, tracer = MetricsRegistry(), Tracer(max_traces=4_096)
    updater = StreamingUpdater(
        sums, catalog.emotion_links(), n_shards=4,
        queue_capacity=4_096, batch_max=256,
        telemetry=registry, tracer=tracer,
        # a tick outlives any slow host: only overload may shed one
        control_plane=ControlPlaneConfig(tick_ttl=60.0),
    )
    service = RecommendationService(
        sums=updater.cache,
        domain_profile=DomainProfile("courses", AFFINITY_LINKS),
        item_attributes={
            cid: dict(catalog.get(cid).attributes)
            for cid in catalog.course_ids()
        },
        telemetry=registry, tracer=tracer,
    )
    service.register("flat", lambda model, item: 1.0)
    events = firehose(n_events, n_users, catalog)
    course_ids = catalog.course_ids()
    rng = np.random.default_rng(11)
    request_users = rng.integers(0, n_users, size=n_requests)

    n_ticks = 0
    with updater:
        writer = threading.Thread(
            target=ReplayDriver(updater, rate=1_000.0, chunk=64).replay,
            args=(events,),
        )
        writer.start()
        for i, uid in enumerate(request_users):
            if i % tick_every == 0:
                n_ticks += updater.tick(
                    rng.integers(0, n_users, size=tick_users)
                )
            service.recommend(RecommendationRequest(
                user_id=int(uid), items=course_ids, k=10,
                deadline_s=deadline_s,
            ))
        writer.join()
        assert updater.drain(timeout=60.0)

    stats = updater.stats()
    assert stats.dead_lettered == 0
    # every tick either applied or counted at whichever layer shed it
    shed_ticks = (
        stats.shed_background + stats.shed_expired + stats.expired_dropped
    )
    assert stats.applied == n_events + n_ticks - shed_ticks
    assert updater.topic.shed_user == 0

    snap = registry.snapshot()
    deadline_aborts = sum(
        snap.value(labelled("serving.deadline_exceeded", stage=stage)) or 0
        for stage in ("resolve", "score")
    )
    assert deadline_aborts == 0
    assert (snap.value("serving.degraded") or 0) == 0
    assert snap.histogram("serving.request_seconds").count == n_requests
    # only user-class deliveries are sampled: the ticks stay out
    visible = snap.histogram("streaming.update_visible_seconds")
    assert visible.count == n_events
    assert visible.quantile(0.99) < 1.0

"""Sharded streaming replay ≡ sequential pipeline application.

The correctness contract of the whole subsystem: pushing a LifeLog
stream through hash-partitioned consumer workers leaves the SUM
population in exactly the state a single sequential pass through
:meth:`EmotionalContextPipeline.apply_event` produces, because per-user
order is preserved and different users' updates commute.
"""

import numpy as np
import pytest

from repro.core.gradual_eit import GradualEIT, QuestionBank
from repro.core.pipeline import EmotionalContextPipeline
from repro.core.reward import ReinforcementPolicy
from repro.core.sum_model import SumRepository
from repro.core.sum_store import ColumnarSumStore
from repro.datagen.behavior import BehaviorModel
from repro.datagen.catalog import CourseCatalog
from repro.datagen.population import Population
from repro.lifelog.events import ActionCategory, Event
from repro.lifelog.store import EventLog
from repro.streaming import (
    EventUpdateMapper,
    MapperConfig,
    ReplayDriver,
    StreamingUpdater,
)


def browsing_stream(n_users=120, n_courses=30, days=12.0, seed=7):
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


def assert_same_state(reference: SumRepository, live: SumRepository):
    assert reference.user_ids() == live.user_ids()
    for uid in reference.user_ids():
        expected, actual = reference.get(uid), live.get(uid)
        np.testing.assert_allclose(
            actual.emotional_vector(), expected.emotional_vector(),
            atol=1e-12,
        )
        assert set(actual.sensibility) == set(expected.sensibility)
        for name, weight in expected.sensibility.items():
            assert actual.sensibility[name] == pytest.approx(weight, abs=1e-12)
        assert actual.evidence == expected.evidence


@pytest.mark.parametrize("n_shards", [1, 4])
def test_streaming_replay_matches_sequential_pipeline(sum_backend_cls, n_shards):
    catalog, events = browsing_stream()
    item_emotions = catalog.emotion_links()
    reference = sequential_reference(events, item_emotions)

    live = sum_backend_cls()
    updater = StreamingUpdater(
        live, item_emotions, n_shards=n_shards, batch_max=64,
    )
    with updater:
        ReplayDriver(updater).replay(events)
        assert updater.drain(timeout=60.0)

    stats = updater.stats()
    assert stats.applied == len(events)
    assert stats.dead_lettered == 0
    assert_same_state(reference, live)


def test_sharded_streamed_state_is_bit_equal_to_object_sequential():
    # ISSUE 5: four writer threads streaming into four store partitions
    # (per-shard locks, no cross-shard contention) leave the population
    # in byte-identical JSON to a single sequential object-backend pass.
    from repro.core.sharded_store import ShardedSumStore

    catalog, events = browsing_stream()
    item_emotions = catalog.emotion_links()
    reference = sequential_reference(events, item_emotions)

    live = ShardedSumStore(n_shards=4)
    updater = StreamingUpdater(live, item_emotions, n_shards=4, batch_max=64)
    with updater:
        ReplayDriver(updater).replay(events)
        assert updater.drain(timeout=60.0)
    assert live.dumps() == reference.dumps()


def test_columnar_streamed_state_is_bit_equal_to_object_sequential():
    # The ISSUE-3 contract, stated at full strength: the vectorized
    # columnar commit path and the object-backed sequential pipeline
    # serialize to the *same JSON string* after the same stream.
    catalog, events = browsing_stream()
    item_emotions = catalog.emotion_links()
    reference = sequential_reference(events, item_emotions)

    live = ColumnarSumStore()
    updater = StreamingUpdater(live, item_emotions, n_shards=4, batch_max=64)
    with updater:
        ReplayDriver(updater).replay(events)
        assert updater.drain(timeout=60.0)
    assert live.dumps() == reference.dumps()


def test_columnar_sequential_fig4_pipeline_is_bit_equal():
    # Same Fig. 4 one-event-at-a-time loop, each event's ops committed
    # to the columns as their own batch: identical JSON state.
    catalog, events = browsing_stream(n_users=60, days=8.0)
    item_emotions = catalog.emotion_links()
    reference = sequential_reference(events, item_emotions)

    store = ColumnarSumStore()
    policy = ReinforcementPolicy()
    mapper = EventUpdateMapper(item_emotions)
    for event in events:
        store.batch_apply_ops([(event.user_id, mapper.ops(event))], policy)
    assert store.dumps() == reference.dumps()


def test_streaming_with_decay_ticks_matches_sequential(_seed=11):
    catalog, events = browsing_stream(seed=_seed)
    item_emotions = catalog.emotion_links()
    config = MapperConfig(decay_every=10)
    reference = sequential_reference(events, item_emotions, config)

    live = SumRepository()
    updater = StreamingUpdater(
        live, item_emotions, mapper_config=config, n_shards=3,
    )
    with updater:
        updater.submit_many(events)
        assert updater.drain(timeout=60.0)
    assert_same_state(reference, live)


def test_write_behind_persists_every_event():
    catalog, events = browsing_stream(n_users=60, days=6.0)
    log = EventLog(segment_rows=500)
    updater = StreamingUpdater(
        SumRepository(), catalog.emotion_links(),
        event_log=log, n_shards=2, flush_every=128,
    )
    with updater:
        updater.submit_many(events)
        assert updater.drain(timeout=60.0)
    assert len(log) == len(events)
    # the log holds the same per-user streams, order preserved
    sample_uid = events[0].user_id
    expected = [e for e in events if e.user_id == sample_uid]
    stored = log.events_for_user(sample_uid)
    assert [e.action for e in stored] == [e.action for e in expected]
    stats = updater.stats()
    assert stats.flushed_events == len(events)
    assert stats.pending_writes == 0
    assert 1 <= stats.flush_count <= -(-len(events) // 128) + 1


def test_malformed_event_dead_letters_without_corrupting_state():
    catalog, events = browsing_stream(n_users=40, days=5.0)
    item_emotions = catalog.emotion_links()
    reference = sequential_reference(events, item_emotions)

    live = SumRepository()
    updater = StreamingUpdater(live, item_emotions, n_shards=2, max_attempts=2)
    poison = Event(
        timestamp=1.0, user_id=events[0].user_id, action="course_rate",
        category=ActionCategory.RATING,
        payload={"target": "7", "value": "not-a-number"},
    )
    with updater:
        updater.submit_many(events[: len(events) // 2])
        updater.submit(poison)
        updater.submit_many(events[len(events) // 2:])
        assert updater.drain(timeout=60.0)

    stats = updater.stats()
    assert stats.dead_lettered == 1
    assert stats.applied == len(events)
    assert_same_state(reference, live)


def test_unknown_emotion_names_rejected_at_construction():
    # The apply stage must never see an invalid attribute: the mapper
    # validates the whole item_emotions mapping up front.
    with pytest.raises(ValueError, match="not-an-emotion"):
        StreamingUpdater(SumRepository(), {"7": ("not-an-emotion",)})


def test_apply_failure_dead_letters_without_retry_or_killing_the_shard(
    sum_backend_cls,
):
    # On every backend, batch validation rejects the poison op before
    # anything mutates; the worker dead-letters the delivery carrying it
    # (no retry), commits the rest, and the shard keeps consuming.
    from repro.core.reward import ReinforcementPolicy as Policy
    from repro.core.updates import RewardOp
    from repro.streaming.bus import PartitionQueue
    from repro.streaming.cache import SumCache
    from repro.streaming.consumer import ShardWorker

    class StubMapper:
        def ops(self, event):
            if event.action == "poison":
                return (object(),)  # validation raises TypeError on this
            return (RewardOp(("shy",), 1.0),)

        def tick_ops(self, user_id):
            return ()

    queue = PartitionQueue(0, capacity=16, max_attempts=3)
    sums = sum_backend_cls()
    cache = SumCache(sums)
    worker = ShardWorker(queue, StubMapper(), cache, Policy(), batch_max=8)
    for action in ("poison", "course_view"):
        queue.put(Event(timestamp=1.0, user_id=1, action=action,
                        category=ActionCategory.NAVIGATION), key=1)
    worker.start()
    assert queue.join(timeout=30.0)
    worker.request_stop()
    worker.join(timeout=10.0)
    assert [d.value.action for d in queue.dead_letters] == ["poison"]
    assert queue.redelivered == 0  # rejected, not retried
    assert queue.acked == 1
    assert sums.get(1).emotional["shy"] > 0.0  # the good event applied
    assert cache.version(1) >= 1  # commit happened despite the bad op


def test_updater_is_single_use():
    catalog, _ = browsing_stream(n_users=5)
    updater = StreamingUpdater(SumRepository(), catalog.emotion_links())
    with updater:
        pass
    with pytest.raises(RuntimeError, match="already stopped"):
        updater.start()
    updater.stop()  # second stop is a quiet no-op


def test_explicit_decay_ticks_apply_to_ticked_users_only():
    catalog, _ = browsing_stream(n_users=10)
    sums = SumRepository()
    for uid in (1, 2):
        sums.get_or_create(uid).activate_emotion("enthusiastic", 0.8)
    updater = StreamingUpdater(sums, catalog.emotion_links(), n_shards=2)
    with updater:
        updater.tick([1])
        assert updater.drain(timeout=30.0)
    decay = ReinforcementPolicy().decay
    assert sums.get(1).emotional["enthusiastic"] == pytest.approx(
        0.8 * (1.0 - decay)
    )
    assert sums.get(2).emotional["enthusiastic"] == pytest.approx(0.8)

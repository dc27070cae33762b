"""The write path below the dequeue: one canonical batch, each step once.

A worker batch is made an :class:`OpBatch` where it is dequeued and every
layer below trusts it: these tests count the work a 256-delivery batch
causes, pin the mapper's op interning and the bus's positional delivery
construction, and cover the cache following a swapped store partition.
"""

import dataclasses
import threading

import numpy as np

from repro.core import sharded_store, sum_store
from repro.core.emotions import EMOTION_NAMES
from repro.core.reward import ReinforcementPolicy
from repro.core.seqlock import Seqlock
from repro.core.sharded_store import ShardedSumStore
from repro.core.sum_store import ColumnarSumStore
from repro.core.updates import DecayOp, OpBatch, PunishOp, RewardOp
from repro.lifelog.events import ActionCategory, Event
from repro.obs.tracing import Tracer
from repro.streaming import cache as cache_module
from repro.streaming.bus import Delivery, PartitionQueue, Topic, TopicInstruments
from repro.streaming.cache import SumCache
from repro.streaming.mapper import EventUpdateMapper, MapperConfig
from repro.streaming.updater import StreamingUpdater

ITEM_EMOTIONS = {
    "10": (EMOTION_NAMES[0], EMOTION_NAMES[1]),
    "11": (EMOTION_NAMES[2],),
    "12": (EMOTION_NAMES[0], EMOTION_NAMES[1]),  # same tuple as "10"
}
ACTIONS = (
    ("course_view", ActionCategory.NAVIGATION),
    ("course_enroll", ActionCategory.ENROLLMENT),
    ("course_rate", ActionCategory.RATING),
)


def make_event(i, uid, action_idx=0, item="10", rating=5):
    action, category = ACTIONS[action_idx]
    payload = {"target": item}
    if category is ActionCategory.RATING:
        payload["value"] = str(rating)
    return Event(
        timestamp=1_141_000_000.0 + float(i), user_id=int(uid),
        action=action, category=category, payload=payload,
    )


# -- (c) each step once per worker batch ------------------------------------


def test_a_worker_batch_is_validated_routed_and_committed_once(monkeypatch):
    store = ShardedSumStore(n_shards=2)
    updater = StreamingUpdater(
        store, ITEM_EMOTIONS, n_shards=2,
        mapper_config=MapperConfig(decay_every=3),  # two-round users
    )
    updater._started = True  # publish without worker threads
    # 256 deliveries on partition 0: 100 users, most of them repeated
    updater.submit_many([
        make_event(i, 2 * (i % 100), i % 3, ("10", "11", "12")[i % 3], i % 6)
        for i in range(256)
    ])
    worker = updater.workers[0]
    batch = worker.partition.get_batch(256, 0.0)
    assert len(batch) == 256

    counts = dict.fromkeys(
        ("validations", "merges", "rows_for", "windows", "commits"), 0
    )

    def counting(name, original, when=lambda *args: True):
        def wrapper(*args, **kwargs):
            counts[name] += bool(when(*args))
            return original(*args, **kwargs)
        return wrapper

    real_validate = sum_store.validate_batch_ops
    for module in (sum_store, sharded_store, cache_module):
        monkeypatch.setattr(module, "validate_batch_ops", counting(
            "validations", real_validate,
            lambda items: not OpBatch.of(items).validated,
        ))
    monkeypatch.setattr(OpBatch, "of", counting(
        "merges", OpBatch.of, lambda items: not isinstance(items, OpBatch),
    ))
    monkeypatch.setattr(ColumnarSumStore, "rows_for", counting(
        "rows_for", ColumnarSumStore.rows_for
    ))
    monkeypatch.setattr(Seqlock, "begin", counting("windows", Seqlock.begin))
    monkeypatch.setattr(SumCache, "_commit_many", counting(
        "commits", SumCache._commit_many
    ))

    worker._process(batch)
    assert worker.stats.processed == 256 and worker.stats.batches == 1
    assert counts == {
        "validations": 1, "merges": 0, "rows_for": 1, "windows": 1,
        "commits": 1,
    }
    assert updater.cache.versions_snapshot() == dict.fromkeys(range(0, 200, 2), 1)
    assert worker.stats.ops_applied > 256  # the decay rounds ran too


def test_a_one_delivery_user_hands_its_ops_tuple_over_uncopied(monkeypatch):
    store = ColumnarSumStore()
    updater = StreamingUpdater(store, ITEM_EMOTIONS, n_shards=1)
    updater._started = True
    updater.submit_many([make_event(0, 1), make_event(1, 2), make_event(2, 1)])
    worker = updater.workers[0]
    batch = worker.partition.get_batch(8, 0.0)
    seen = []
    real = SumCache.apply_batch_and_publish
    monkeypatch.setattr(
        SumCache, "apply_batch_and_publish",
        lambda self, items, policy: seen.append(items) or real(self, items, policy),
    )
    worker._process(batch)
    (op_batch,) = seen
    assert isinstance(op_batch, OpBatch) and op_batch.validated
    assert op_batch.user_ids == [1, 2]
    assert op_batch.ops[1] is batch[1].mapped[1]
    assert op_batch.ops[0] == batch[0].mapped[1] + batch[2].mapped[1]


# -- (d) mapper interning ---------------------------------------------------


def test_mapper_interns_ops_per_instance_bounded_by_the_catalog():
    config = MapperConfig(decay_every=4)
    mapper, other = (EventUpdateMapper(ITEM_EMOTIONS, config) for __ in range(2))
    events = [
        make_event(i, i % 7, i % 3, ("10", "11", "12")[i % 3], i % 6)
        for i in range(300)
    ]
    since_decay: dict[int, int] = {}
    shared: dict = {}
    for event in events:
        *decay, update = mapper.ops(event)
        strength, is_reward = mapper._strength(event)
        fresh = (RewardOp if is_reward else PunishOp)(
            mapper.emotions_for(event), strength
        )
        assert update == fresh and update is not fresh
        assert shared.setdefault(update, update) is update  # one object
        count = (since_decay.get(event.user_id, 0) + 1) % config.decay_every
        since_decay[event.user_id] = count
        assert decay == ([] if count else [DecayOp()])
    # what procplane ships as ``mapper_state`` is the decay counters alone
    assert mapper._since_decay == since_decay
    strengths = {
        value for name, value in vars(config).items()
        if name.startswith("reward_") or name == "rating_strength"
    }
    bound = len(ITEM_EMOTIONS) * len(strengths) * 2
    assert 0 < len(mapper._interned) <= bound
    assert other._interned == {}  # per mapper, not per process
    assert mapper.tick_ops(3) == (DecayOp(),)


# -- (e) bus ----------------------------------------------------------------


def test_delivery_keeps_its_field_order_and_defaults():
    assert [field.name for field in dataclasses.fields(Delivery)] == [
        "value", "key", "partition", "offset", "attempt", "published_at",
        "background", "deadline", "mapped", "trace_id",
    ]
    delivery = Delivery("v", 7, 1, 42)
    assert dataclasses.astuple(delivery) == (
        "v", 7, 1, 42, 1, 0.0, False, None, None, None
    )
    delivery.mapped = (7, ())  # consumer scratch stays assignable


def test_put_many_offsets_stay_gap_free_across_a_capacity_stall():
    queue = PartitionQueue(0, capacity=4, max_attempts=3)
    queue.put("first", 0)
    placed = []
    producer = threading.Thread(
        target=lambda: placed.append(
            queue.put_many([(f"m{i}", i) for i in range(10)], timeout=10.0)
        ),
        daemon=True,
    )
    producer.start()
    got = []
    while len(got) < 11:
        batch = queue.get_batch(3, timeout=5.0)
        assert batch, "producer stalled for good"
        got.extend(batch)
        queue.ack_batch(batch)
    producer.join(5.0)
    assert not producer.is_alive() and placed == [10]
    assert [d.offset for d in got] == list(range(11))
    assert [d.value for d in got] == ["first"] + [f"m{i}" for i in range(10)]
    assert all(d.partition == 0 and d.attempt == 1 for d in got)
    assert queue.published == 11 and queue.join(1.0)


def test_publish_many_routes_int_keys_like_partition_for():
    topic = Topic("t", partitions=3, capacity=64)
    keys = [0, 1, 5, 7, True, "user-7", np.int64(4), (1, 2)]
    assert topic.publish_many([(key, key) for key in keys]) == len(keys)
    other = Topic("u", partitions=3, capacity=64)
    for key in keys:
        other.publish(key, key)
    for got, want in zip(topic, other):
        assert [d.key for d in got.get_batch(64, 0.0)] == [
            d.key for d in want.get_batch(64, 0.0)
        ]


def test_redelivery_keeps_mapped_and_trace_id():
    queue = PartitionQueue(
        0, capacity=8, max_attempts=3,
        instruments=TopicInstruments(tracer=Tracer()),
    )
    queue.put_many([("a", 1), ("b", 1)])
    first, second = queue.get_batch(2, 0.0)
    assert first.trace_id is not None and first.trace_id != second.trace_id
    first.mapped = (1, ("ops",))
    trace_id = first.trace_id
    queue.nack(second)
    queue.nack(first)
    again, __ = queue.get_batch(2, 0.0)
    assert again is first and again.attempt == 2
    assert again.mapped == (1, ("ops",)) and again.trace_id == trace_id


# -- the cache reads repository.shards as they are (thread-plane twin) -----


def served(cache, users):
    batch = cache.batch(users)
    return batch.intensity_matrix(EMOTION_NAMES), batch.sensibility_matrix(
        EMOTION_NAMES
    )


def test_cache_serves_a_partition_swapped_under_it():
    policy = ReinforcementPolicy()
    users = list(range(8))
    reward = RewardOp((EMOTION_NAMES[0], EMOTION_NAMES[3]), 1.0)
    store = ShardedSumStore(n_shards=2)
    cache = SumCache(store)
    cache.apply_batch_and_publish([(uid, (reward,)) for uid in users], policy)
    before = served(cache, users)

    # what recover() does: rebuild partition 0 elsewhere, swap it in
    rebuilt = ColumnarSumStore.loads(store.shards[0].dumps())
    owned = [uid for uid in users if store.shard_of(uid) == 0]
    rebuilt.batch_apply_ops(
        [(uid, (PunishOp((EMOTION_NAMES[0],), 1.0),)) for uid in owned], policy
    )
    store.shards = (rebuilt, store.shards[1])

    # the cache keeps no per-shard state: the next read is the live one
    after = served(cache, users)
    live = store.batch(users)
    assert np.array_equal(after[0], live.intensity_matrix(EMOTION_NAMES))
    assert np.array_equal(after[1], live.sensibility_matrix(EMOTION_NAMES))
    assert not np.array_equal(after[0], before[0])

    cache.invalidate(owned)
    cache.apply_batch_and_publish([(owned[0], (reward,))], policy)
    assert cache.batch(users).versions == {
        uid: (3 if uid == owned[0] else 2 if uid in owned else 1)
        for uid in users
    }
    assert np.array_equal(
        served(cache, users)[0],
        store.batch(users).intensity_matrix(EMOTION_NAMES),
    )

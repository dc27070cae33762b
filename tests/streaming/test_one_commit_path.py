"""One commit path on every SUM backend, and its two failure kinds.

A shard worker commits its whole batch through
:meth:`SumCache.apply_batch_and_publish` → ``batch_apply_ops`` on every
backend, the object store included, so a delivery is applied whole or
not at all.  A batch rejected by validation has its poison deliveries
split out before anything mutates; a store that fails *after*
validation has its partial write published, then the batch
dead-lettered without retry.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.emotions import EMOTION_NAMES
from repro.core.reward import ReinforcementPolicy
from repro.core.shm_store import MultiProcSumStore
from repro.core.sum_model import SumRepository
from repro.core.updates import PunishOp, RewardOp, apply_ops
from repro.lifelog.events import ActionCategory, Event
from repro.streaming.bus import PartitionQueue
from repro.streaming.cache import SumCache
from repro.streaming.consumer import ShardWorker

POLICY = ReinforcementPolicy()
#: ops validation rejects; a poison delivery carries one behind a valid op
POISON = (
    object(),
    RewardOp(("no-such-emotion",), 1.0),
    PunishOp((EMOTION_NAMES[0],), float("nan")),
)


class ListMapper:
    """Maps the event stamped ``i`` to ``ops[i]``."""

    def __init__(self, ops):
        self._ops = ops

    def ops(self, event):
        return self._ops[int(event.timestamp)]

    def tick_ops(self, user_id):
        return ()


def close(store):
    if isinstance(store, MultiProcSumStore):
        store.close()


def run_one_batch(store, users, ops):
    """One worker batch of ``len(users)`` deliveries; ``(queue, worker)``."""
    queue = PartitionQueue(0, capacity=64, max_attempts=3)
    worker = ShardWorker(queue, ListMapper(ops), SumCache(store), POLICY)
    queue.put_many([
        (Event(timestamp=float(i), user_id=uid, action="course_view",
               category=ActionCategory.NAVIGATION), uid)
        for i, uid in enumerate(users)
    ])
    worker._process(queue.get_batch(len(users), 0.0))
    return queue, worker


#: (user, emotion, poison kind or None); few users, so slices interleave
deliveries = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.sampled_from(EMOTION_NAMES),
        st.sampled_from((None, None, *range(len(POISON)))),
    ),
    min_size=1,
    max_size=12,
)


@settings(
    max_examples=30, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(specs=deliveries)
def test_poison_deliveries_are_split_out_on_every_backend(
    sum_backend_cls, specs
):
    ops = [
        (RewardOp((emotion,), 1.0),) if kind is None
        else (RewardOp((emotion,), 1.0), POISON[kind])
        for __, emotion, kind in specs
    ]
    users = [uid for uid, __, __ in specs]
    store = sum_backend_cls()
    try:
        queue, worker = run_one_batch(store, users, ops)
        poison = [i for i, (__, __, kind) in enumerate(specs) if kind is not None]
        assert [d.offset for d in queue.dead_letters] == poison
        assert queue.redelivered == 0
        assert worker.stats.failed == len(poison)
        assert queue.acked == len(specs) - len(poison)

        oracle = SumRepository()
        for i, (uid, __, kind) in enumerate(specs):
            if kind is None:
                apply_ops(oracle.get_or_create(uid), ops[i], POLICY)
        assert store.dumps() == oracle.dumps()
        for uid in set(users):
            good = uid in oracle
            assert worker.cache.version(uid) == int(good)
            assert (uid in store) == good
    finally:
        close(store)


def failing(cls):
    """``cls`` whose first ``batch_apply_ops`` writes one user, then raises."""

    class Failing(cls):
        armed = True

        def batch_apply_ops(self, items, policy):
            if not self.armed:
                return super().batch_apply_ops(items, policy)
            self.armed = False
            super().batch_apply_ops([next(iter(items))], policy)
            raise RuntimeError("store failed mid-batch")

    return Failing


def test_a_failure_after_validation_publishes_then_dead_letters(
    sum_backend_cls,
):
    reward = (RewardOp(("shy",), 1.0),)
    store = failing(sum_backend_cls)()
    try:
        queue, worker = run_one_batch(store, [1, 2, 1, 3], [reward] * 5)
        # the partial write (user 1's whole slice) is published with
        # every other user of the batch, and nothing is retried
        cache = worker.cache
        assert cache.versions_snapshot() == {1: 1, 2: 1, 3: 1}
        assert cache.get(1).emotional["shy"] == pytest.approx(0.4)
        assert 2 not in store and 3 not in store
        assert [d.offset for d in queue.dead_letters] == [0, 1, 2, 3]
        assert queue.redelivered == 0 and queue.acked == 0
        assert worker.stats.failed == 4

        # the worker commits its next batch normally
        queue.put(Event(timestamp=4.0, user_id=2, action="course_view",
                        category=ActionCategory.NAVIGATION), 2)
        worker._process(queue.get_batch(8, 0.0))
        assert queue.acked == 1 and worker.stats.processed == 1
        assert cache.versions_snapshot() == {1: 1, 2: 2, 3: 1}
        assert cache.get(2).emotional["shy"] == pytest.approx(0.2)
    finally:
        close(store)

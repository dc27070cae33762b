"""One batch read on every store: no half-applied commit.

Every ``batch(ids)`` — a bare ``SumRepository``, ``ColumnarSumStore``,
``ShardedSumStore`` router or ``MultiProcSumStore``, or any of them
behind a ``SumCache`` — is a frozen copy of the live state.  A columnar
row is taken across an even, unchanged row generation; the object
store's models are copied under the store lock its ``batch_apply_ops``
holds.  A writer holding a commit open across two cells must be
invisible: every user reads as the state before the commit or the state
after it.
"""

import threading
import time

import numpy as np
import pytest

from repro.core.reward import ReinforcementPolicy
from repro.core.sharded_store import ShardedSumStore
from repro.core.shm_store import MultiProcSumStore
from repro.core.sum_model import SumRepository
from repro.core.sum_store import ColumnarSumStore
from repro.core.updates import RewardOp
from repro.streaming.cache import SumCache

POLICY = ReinforcementPolicy()
USERS = list(range(40))
TORN = 7
EMOTION = "hopeful"
BEFORE = (0.2, 0.3)
AFTER = (0.8, 0.9)

#: each backend as a copy of a seeded object repository
STORES = {
    "object": lambda sums: sums,
    "columnar": ColumnarSumStore.from_repository,
    "sharded": lambda sums: ShardedSumStore.from_repository(sums, n_shards=3),
    "multiproc": lambda sums: MultiProcSumStore.from_repository(sums, n_shards=3),
}


def pairs(batch):
    """Each user's ``(intensity, sensibility)`` of :data:`EMOTION`."""
    return list(zip(
        batch.intensity_matrix([EMOTION])[:, 0].tolist(),
        batch.sensibility_matrix([EMOTION])[:, 0].tolist(),
    ))


def write_one_pair_slowly(store, opened):
    """One row commit spread over 50 ms: the intensity, then the
    sensibility, inside one row-generation window (on the object store,
    inside one ``batch_apply_ops``)."""
    if isinstance(store, SumRepository):
        class SlowReward(ReinforcementPolicy):
            def reward(self, model, attributes, strength=1.0):
                model.emotional.intensities[EMOTION] = AFTER[0]
                opened.set()
                time.sleep(0.05)
                model.sensibility[EMOTION] = AFTER[1]

        ops = (RewardOp((EMOTION,), 1.0),)
        store.batch_apply_ops([(TORN, ops)], SlowReward())
        return
    partition = store.shard_for(TORN) if hasattr(store, "shards") else store
    row = partition.row_index(TORN)
    column = partition._emotional.column_of(EMOTION)
    with partition.writer_lock, partition.row_generations.write(row):
        partition._emotional.values[row, column] = AFTER[0]
        partition._emotional.mask[row, column] = True
        opened.set()
        time.sleep(0.05)
        partition._sensibility.values[row, column] = AFTER[1]
        partition._sensibility.mask[row, column] = True


@pytest.mark.parametrize("request_ids", ["one", "all"])
@pytest.mark.parametrize("cached", [False, True], ids=["bare", "cached"])
@pytest.mark.parametrize("backend", list(STORES))
def test_no_batch_read_sees_half_a_commit(backend, cached, request_ids):
    seed = SumRepository()
    for uid in USERS:
        model = seed.get_or_create(uid)
        model.activate_emotion(EMOTION, BEFORE[0])
        model.set_sensibility(EMOTION, BEFORE[1])
    store = STORES[backend](seed)
    try:
        reader = SumCache(store) if cached else store
        ids = [TORN] if request_ids == "one" else USERS
        opened = threading.Event()
        writer = threading.Thread(
            target=write_one_pair_slowly, args=(store, opened)
        )
        writer.start()
        try:
            assert opened.wait(10.0)
            read = pairs(reader.batch(ids))  # started inside the window
        finally:
            writer.join(10.0)
        assert not writer.is_alive()
        for uid, pair in zip(ids, read):
            allowed = (BEFORE, AFTER) if uid == TORN else (BEFORE,)
            assert pair in allowed, f"user {uid} read half a commit: {pair}"
        assert pairs(reader.batch([TORN])) == [AFTER]
    finally:
        if isinstance(store, MultiProcSumStore):
            store.close()


def test_cross_shard_capture_stamps_and_values():
    store = ShardedSumStore(n_shards=4)
    for uid in range(16):
        store.get_or_create(uid)
    cache = SumCache(store)
    cache.apply_batch_and_publish(
        [(uid, (RewardOp(("enthusiastic",), 0.4),)) for uid in (1, 6, 11)],
        POLICY,
    )
    ids = [11, 0, 6, 13, 1]  # interleaved shards, arbitrary order
    batch = cache.batch(ids)
    assert batch.user_ids == ids
    assert [batch.versions[uid] for uid in ids] == [1, 0, 1, 0, 1]
    column = batch.intensity_matrix(("enthusiastic",))[:, 0]
    live = store.batch(ids).intensity_matrix(("enthusiastic",))[:, 0]
    assert np.array_equal(column, live)
    assert store.batch(ids).versions == dict.fromkeys(ids, 0)  # bare: no stamps

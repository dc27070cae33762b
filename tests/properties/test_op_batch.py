"""One canonical batch: raw items ≡ ``OpBatch`` ≡ the sequential oracle.

Every batch entry point — :meth:`ColumnarSumStore.batch_apply_ops`,
:meth:`ShardedSumStore.batch_apply_ops` (the router, also under
:class:`MultiProcSumStore`) and :meth:`SumCache.apply_batch_and_publish`
— takes raw ``(user_id, ops)`` pairs or an :class:`OpBatch` through the
same path below :meth:`OpBatch.of`.  For arbitrary raw items (duplicate
ids, empty op tuples, ``numpy.int64`` ids, multi-round users, a
duplicated attribute inside one op, decay runs) both spellings must
leave the state sequential :func:`apply_ops` leaves on the object
backend, return ``len(ops)`` per caller item, and — through the cache —
bump each touched user exactly once.  An invalid op anywhere in the
batch must raise before anything at all changed.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.emotions import EMOTION_NAMES
from repro.core.reward import ReinforcementPolicy
from repro.core.sharded_store import ShardedSumStore
from repro.core.shm_store import MultiProcSumStore
from repro.core.sum_model import SumRepository
from repro.core.sum_store import ColumnarSumStore
from repro.core.updates import DecayOp, OpBatch, PunishOp, RewardOp, apply_ops
from repro.streaming.cache import SumCache

BACKENDS = {
    "columnar": ColumnarSumStore,
    **{
        f"{name}-{n}": (lambda cls=cls, n=n: cls(n_shards=n))
        for name, cls in (
            ("sharded", ShardedSumStore), ("multiproc", MultiProcSumStore),
        )
        for n in (1, 2, 5)
    },
}

# duplicates inside one op on purpose: the clamp applies between them
attribute_tuples = st.lists(
    st.sampled_from(EMOTION_NAMES), min_size=1, max_size=3
).map(tuple)
strengths = st.sampled_from([0.0, 0.1, 0.5, 1.0, 1.5])
ops = st.one_of(
    st.just(DecayOp()),
    st.builds(RewardOp, attributes=attribute_tuples, strength=strengths),
    st.builds(PunishOp, attributes=attribute_tuples, strength=strengths),
)
user_ids = st.integers(min_value=0, max_value=9).flatmap(
    lambda uid: st.sampled_from([uid, np.int64(uid)])
)
#: few ids, so users repeat; empty tuples; up to 4 rounds per item
raw_items = st.lists(
    st.tuples(user_ids, st.lists(ops, max_size=4).map(tuple)), max_size=10
)
policies = st.builds(
    ReinforcementPolicy,
    learning_rate=st.floats(0.01, 1.0, allow_nan=False),
    punish_ratio=st.floats(0.0, 1.0, allow_nan=False),
    decay=st.floats(0.0, 0.5, allow_nan=False, exclude_max=True),
)


def close(store):
    if isinstance(store, MultiProcSumStore):
        store.close()


def oracle(items, policy):
    reference = SumRepository()
    for user_id, user_ops in items:
        apply_ops(reference.get_or_create(int(user_id)), user_ops, policy)
    return reference.dumps()


@pytest.mark.parametrize("backend", list(BACKENDS))
@settings(max_examples=25, deadline=None)
@given(raw_items, policies)
def test_raw_items_and_op_batch_equal_the_oracle(backend, items, policy):
    want_state = oracle(items, policy)
    want_counts = [len(user_ops) for __, user_ops in items]
    touched = {int(uid) for uid, user_ops in items if user_ops}
    published = []
    for canonical in (False, True):
        for through_cache in (False, True):
            store = BACKENDS[backend]()
            try:
                batch = OpBatch.of(items) if canonical else items
                if through_cache:
                    cache = SumCache(store)
                    counts, versions = cache.apply_batch_and_publish(
                        batch, policy
                    )
                    # one bump per touched user, none for empty op tuples
                    assert cache.versions_snapshot() == dict.fromkeys(touched, 1)
                    assert versions == {
                        int(uid): int(int(uid) in touched) for uid, __ in items
                    }
                    published.append(cache.versions_snapshot())
                else:
                    counts = store.batch_apply_ops(batch, policy)
                assert counts == want_counts
                assert store.dumps() == want_state
            finally:
                close(store)
    assert published[0] == published[1]  # raw vs canonical, via the cache


def test_op_batch_of_is_canonical_and_idempotent():
    reward, punish = RewardOp(("joy",), 0.5), PunishOp(("fear",), 1.0)
    batch = OpBatch.of([
        (np.int64(7), [reward]), (3, ()), (7, iter((DecayOp(), punish))),
    ])
    assert batch.user_ids == [7, 3]
    assert all(type(uid) is int for uid in batch.user_ids)
    assert batch.ops == [(reward, DecayOp(), punish), ()]
    assert batch.counts == [1, 0, 2]  # per caller item, not per user
    assert not batch.validated
    assert OpBatch.of(batch) is batch
    assert list(batch) == [(7, (reward, DecayOp(), punish)), (3, ())]


INVALID_OPS = [
    (RewardOp(("no-such-emotion",), 1.0), KeyError),
    (PunishOp((EMOTION_NAMES[0],), float("nan")), ValueError),
    (RewardOp((EMOTION_NAMES[0],), float("inf")), ValueError),
    ("not an op", TypeError),
]


@pytest.mark.parametrize("backend", list(BACKENDS))
@pytest.mark.parametrize("bad_op, error", INVALID_OPS)
@pytest.mark.parametrize("canonical", [False, True])
def test_invalid_op_raises_before_anything_changes(
    backend, bad_op, error, canonical
):
    policy = ReinforcementPolicy()
    good = RewardOp((EMOTION_NAMES[1], EMOTION_NAMES[2]), 1.0)
    store = BACKENDS[backend]()
    try:
        cache = SumCache(store)
        cache.apply_batch_and_publish(
            [(uid, (good,)) for uid in range(6)], policy
        )
        cache.batch(list(range(6)))  # a batch read between the commits
        # users on every shard, the offender last, plus two first contacts
        items = [(uid, (good, DecayOp())) for uid in (0, 1, 2, 3, 40, 41)]
        items.append((5, (good, bad_op)))
        shards = getattr(store, "shards", [store])

        def state():
            return (
                store.dumps(),
                len(store),
                [shard.row_generations.cells.copy().tolist() for shard in shards],
                cache.versions_snapshot(),
                sorted(cache._user_locks),
            )

        before = state()
        for entry in (cache.apply_batch_and_publish, store.batch_apply_ops):
            batch = OpBatch.of(items) if canonical else items
            with pytest.raises(error):
                entry(batch, policy)
            assert state() == before
            assert not any(
                lock.locked() for lock in cache._user_locks.values()
            )
    finally:
        close(store)

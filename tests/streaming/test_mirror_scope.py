"""Per-shard mirror isolation.

On a sharded store the cache keeps one copy-on-write mirror (and one
dirty set) per partition, so a write burst on shard 3 never invalidates
shard 0's staged rows.
"""

import numpy as np

from repro.core.reward import ReinforcementPolicy
from repro.core.sharded_store import ShardedSumStore
from repro.core.updates import RewardOp
from repro.streaming.cache import SumCache

POLICY = ReinforcementPolicy()


class TestPerShardMirrors:
    def test_write_burst_on_one_shard_leaves_others_clean(self):
        store = ShardedSumStore(n_shards=4)
        for uid in range(16):
            store.get_or_create(uid)
        cache = SumCache(store)
        ids = list(range(16))
        cache.batch(ids)  # stage every row
        assert cache.mirrored_users == 16
        assert all(not s.stale for s in cache._mirror_shards)

        # burst on shard 3 only (uids ≡ 3 mod 4)
        shard3 = [uid for uid in ids if store.shard_of(uid) == 3]
        cache.apply_batch_and_publish(
            [(uid, (RewardOp(("shy",), 0.5),)) for uid in shard3], POLICY
        )
        stale_by_shard = [set(s.stale) for s in cache._mirror_shards]
        assert stale_by_shard[3] == set(shard3)
        assert stale_by_shard[0] == stale_by_shard[1] == stale_by_shard[2] == set()

        # shard-0 reads refresh nothing: their staged versions are current
        shard0 = [uid for uid in ids if store.shard_of(uid) == 0]
        batch = cache.batch(shard0)
        assert [batch.versions[uid] for uid in shard0] == [0] * len(shard0)
        assert set(cache._mirror_shards[3].stale) == set(shard3)

    def test_cross_shard_capture_stamps_and_values(self):
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

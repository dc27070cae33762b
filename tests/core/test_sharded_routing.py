"""Bulk id routing on sharded stores, against the per-id loops it replaced.

``ShardedSumStore.rows_for`` and the cache's cross-shard capture route a
whole id vector at once; the per-id walks stay here as the reference.
"""

import numpy as np
import pytest

from repro.core.emotions import EMOTION_NAMES
from repro.core.reward import ReinforcementPolicy
from repro.core.sharded_store import ShardedBatch, ShardedSumStore, positions_by_shard
from repro.core.sum_model import SumRepository, UnknownUserError
from repro.streaming.cache import SumCache

KNOWN = range(0, 60, 3)


def per_id_rows_for(store, user_ids, create=False):
    """``rows_for`` as it was: one routed dict look-up per id."""
    ids = [int(uid) for uid in user_ids]
    out = np.empty((len(ids), 2), dtype=np.intp)
    missing = []
    n = len(store.shards)
    for i, uid in enumerate(ids):
        s = uid % n
        row = store.shards[s]._row_of.get(uid)
        if row is None:
            if create:
                row = store.shards[s]._new_row(uid)
            else:
                missing.append(uid)
                row = -1
        out[i] = s, row
    if missing:
        raise UnknownUserError(missing)
    return out


def per_id_grouped(store, ids):
    """Positions of ``ids`` grouped by owning shard, as the store once did."""
    grouped = {}
    n = len(store.shards)
    for pos, uid in enumerate(ids):
        grouped.setdefault(uid % n, []).append(pos)
    return grouped


def build(n_shards):
    sums = SumRepository()
    for uid in KNOWN:
        model = sums.get_or_create(uid)
        model.activate_emotion(EMOTION_NAMES[uid % len(EMOTION_NAMES)], (uid % 7) / 7)
        model.set_sensibility(EMOTION_NAMES[0], (uid % 5) / 5)
    return ShardedSumStore.from_repository(sums, n_shards=n_shards)


@pytest.mark.parametrize("n_shards", [1, 2, 5])
class TestBulkRouting:
    BATCHES = ([], [9], [57, 0, 9, 0, 33, 57, 6], list(KNOWN)[::-1], [0, 12, 12])

    def test_rows_for_matches_the_per_id_loop(self, n_shards):
        store = build(n_shards)
        for batch in self.BATCHES:
            want = per_id_rows_for(store, batch)
            got = store.rows_for(batch)
            assert got.dtype == want.dtype and got.shape == (len(batch), 2)
            assert np.array_equal(got, want)
            assert np.array_equal(store.rows_for(np.array(batch, dtype=np.int64)), want)
            shard_of = np.array(batch, dtype=np.int64) % n_shards
            grouped = positions_by_shard(shard_of, n_shards)
            assert {s: p.tolist() for s, p in grouped.items()} == per_id_grouped(store, batch)
            assert list(grouped) == list(per_id_grouped(store, batch))

    def test_unknown_ids_are_named_once_in_request_order(self, n_shards):
        store = build(n_shards)
        batch = [44, 3, 41, 1000, 6, 44, -7, 2]
        with pytest.raises(UnknownUserError) as reference:
            per_id_rows_for(store, batch)
        for rows_for in (store.rows_for, SumCache(store).batch):
            with pytest.raises(UnknownUserError) as excinfo:
                rows_for(batch)
            assert excinfo.value.user_ids == reference.value.user_ids
            assert excinfo.value.user_ids == (44, 41, 1000, 44, -7, 2)
        assert len(store) == len(KNOWN)  # a raising call creates nothing

    def test_create_makes_each_missing_row_once_in_its_own_shard(self, n_shards):
        store, twin = build(n_shards), build(n_shards)
        batch = [44, 3, 41, 44, 1000, 41]
        got = store.rows_for(batch, create=True)
        assert np.array_equal(got, per_id_rows_for(twin, batch, create=True))
        assert len(store) == len(KNOWN) + 3
        assert store.user_ids() == twin.user_ids()
        assert np.array_equal(store.rows_for(batch), got)

    def test_cache_capture_reads_the_rows_it_was_routed(self, n_shards):
        store = build(n_shards)
        cache = SumCache(store)
        for batch in self.BATCHES:
            captured = cache.batch(batch)
            assert len(captured) == len(batch)
            got = captured.intensity_matrix(EMOTION_NAMES)
            want = np.array(
                [[store.get(uid).emotional[e] for e in EMOTION_NAMES] for uid in batch]
            ).reshape(len(batch), len(EMOTION_NAMES))
            assert np.array_equal(got, want)
            sens = captured.sensibility_matrix(EMOTION_NAMES[:2], default=1.0)
            assert sens[:, 0].tolist() == [(uid % 5) / 5 for uid in batch]
            assert list(captured.versions) == list(dict.fromkeys(batch))
            groups = per_id_grouped(store, batch)
            if len(groups) > 1:
                assert isinstance(captured, ShardedBatch)
                assert [p.tolist() for p, __ in captured.parts] == list(groups.values())
        created = cache.batch([44, 0, 41], create=True)
        assert created.intensity_matrix(EMOTION_NAMES)[0].tolist() == [0.0] * len(EMOTION_NAMES)
        assert 44 in store and 41 in store


def test_positions_by_shard_lists_touched_shards_by_first_appearance():
    grouped = positions_by_shard(np.array([3, 0, 3, 1, 0]), 5)
    assert {s: p.tolist() for s, p in grouped.items()} == {3: [0, 2], 0: [1, 4], 1: [3]}
    assert list(grouped) == [3, 0, 1]
    assert positions_by_shard(np.array([], dtype=np.int64), 4) == {}


@pytest.mark.parametrize("n_shards", [1, 2, 5])
def test_bare_store_reads_and_ticks_off_the_routed_addresses(n_shards):
    store, twin = build(n_shards), build(n_shards)
    policy = ReinforcementPolicy()
    for batch in TestBulkRouting.BATCHES:
        groups = per_id_grouped(twin, batch)
        got = store.batch(batch)
        assert len(got) == len(batch)
        if len(groups) > 1:
            assert isinstance(got, ShardedBatch)
            assert [p.tolist() for p, __ in got.parts] == list(groups.values())
        want = np.array(
            [[twin.get(uid).emotional[e] for e in EMOTION_NAMES] for uid in batch]
        ).reshape(len(batch), len(EMOTION_NAMES))
        assert np.array_equal(got.intensity_matrix(EMOTION_NAMES), want)

        features, ids = store.feature_matrix(batch, ("calm",))
        assert ids == batch
        for pos, uid in enumerate(batch):
            row, __ = twin.shards[uid % n_shards].feature_matrix([uid], ("calm",))
            assert np.array_equal(features[pos], row[0])

        assert store.decay_tick(policy, batch) == sum(
            twin.shards[s].decay_tick(policy, [batch[p] for p in positions])
            for s, positions in groups.items()
        )
        assert store.dumps() == twin.dumps()
    created = store.batch([44, 0, 41], create=True)
    assert created.intensity_matrix(EMOTION_NAMES)[[0, 2]].tolist() == [
        [0.0] * len(EMOTION_NAMES)
    ] * 2
    assert store.user_ids() == sorted([*KNOWN, 41, 44])

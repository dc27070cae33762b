"""Shared-memory store backing: arenas, layout adoption, recovery copies.

The storage layer of the multi-process shard plane
(:mod:`repro.core.shm_store`): arrays on named segments two processes
can map, the layout handshake a worker's barrier reply carries, the bulk
copy the crash-recovery path uses, and the delta-checkpoint honesty
rules (`adopt_shard` must advance the parent's mutation clock for shards
a worker process wrote, `replace_shard` must never let a rebuilt shard
hardlink stale pages).
"""

import json
import os

import numpy as np
import pytest

from repro.core.shm_store import (
    MultiProcSumStore,
    ShmArena,
    adopt_layout,
    copy_shard_into,
    live_segment_names,
    shard_layout,
)
from repro.core.gradual_eit import QuestionBank
from repro.core.reward import ReinforcementPolicy
from repro.core.sum_store import ColumnarSumStore
from repro.core.updates import EitAnswerOp, ProfileOp, RewardOp

POLICY = ReinforcementPolicy()
QUESTIONS = list(QuestionBank.default_bank())


def adopt_unchanged(store, i, wrote):
    """Adopt a barrier reply naming the arrays shard ``i`` already maps."""
    shard = store.shards[i]
    store.adopt_shard(
        i, shard_layout(store.arenas[i], shard), len(shard), wrote=wrote
    )


def populate(store, users=(1, 2, 7, 12)):
    """Every family, cold state and an interned column, through the one
    write path."""
    store.batch_apply_ops([
        (uid, (
            RewardOp(("enthusiastic",), 0.25 + (uid % 5) / 10),
            ProfileOp(objective=(("age", uid),), subjective=((f"area-{uid % 3}", 0.5),)),
            EitAnswerOp(QUESTIONS[uid % len(QUESTIONS)]),
        ))
        for uid in users
    ], POLICY)
    return store


class TestShmArena:
    def test_alloc_returns_zeroed_writable_segment_backed_array(self):
        arena = ShmArena(tag="t")
        try:
            array = arena.alloc((4, 3), np.float64)
            assert array.shape == (4, 3)
            assert not array.any()
            array[2, 1] = 5.0  # writable in place
            name = arena.name_of(array)
            assert name in arena.segment_names()
            assert name in live_segment_names()
        finally:
            arena.close()

    def test_attach_maps_the_same_physical_pages(self):
        writer = ShmArena(tag="w")
        reader = ShmArena(tag="r")
        try:
            source = writer.alloc((8,), np.int64)
            mirror = reader.attach(
                writer.name_of(source), (8,), np.int64
            )
            source[3] = 42
            assert mirror[3] == 42  # zero-copy: same pages
            mirror[5] = 7
            assert source[5] == 7
        finally:
            reader.close()
            writer.close()

    def test_attach_is_idempotent_per_name(self):
        arena = ShmArena()
        try:
            array = arena.alloc((2,), np.float64)
            name = arena.name_of(array)
            first = arena.attach(name, (2,), np.float64)
            second = arena.attach(name, (2,), np.float64)
            assert first is second
        finally:
            arena.close()

    def test_sweep_releases_segments_of_dead_arrays(self):
        arena = ShmArena()
        try:
            keep = arena.alloc((2,), np.float64)
            drop = arena.alloc((2,), np.float64)
            dropped_name = arena.name_of(drop)
            del drop
            arena.sweep()
            assert dropped_name not in arena.segment_names()
            assert dropped_name not in live_segment_names()
            assert arena.name_of(keep) in arena.segment_names()
        finally:
            arena.close()

    def test_close_empties_the_ledger_and_blocks_alloc(self):
        arena = ShmArena(tag="closing")
        arena.alloc((4,), np.float64)
        arena.close()
        assert arena.segment_names() == []
        assert not any(
            tag == "closing" for tag in live_segment_names()
        )
        with pytest.raises(ValueError, match="closed"):
            arena.alloc((1,), np.float64)
        arena.close()  # idempotent


class TestLayoutAdoption:
    def test_published_layout_adopts_bit_equal_in_a_reader_store(self):
        arena = ShmArena(tag="pub")
        try:
            writer = populate(
                ColumnarSumStore(initial_capacity=4, alloc=arena.alloc)
            )
            layout = shard_layout(arena, writer)
            # a fresh store in "another process": same segments by name
            reader = ColumnarSumStore(initial_capacity=4, alloc=arena.alloc)
            adopt_layout(arena, reader, json.loads(json.dumps(layout)),
                         n_users=len(writer))
            # hot state is the same pages; cold state is placeholder-empty
            # (streaming never writes it), so compare the hot surface
            assert reader.user_ids() == writer.user_ids()
            for uid in writer.user_ids():
                np.testing.assert_array_equal(
                    reader.get(uid).emotional_vector(),
                    writer.get(uid).emotional_vector(),
                )
                assert dict(reader.get(uid).sensibility) == dict(
                    writer.get(uid).sensibility
                )
            arena.sweep()
        finally:
            arena.close()


class TestCopyShardInto:
    def test_copy_is_bit_equal_including_cold_state(self):
        src = populate(ColumnarSumStore())
        dst = ColumnarSumStore(initial_capacity=2)
        copy_shard_into(src, dst)
        assert dst.dumps() == src.dumps()

    def test_copies_are_independent(self):
        src = populate(ColumnarSumStore())
        dst = ColumnarSumStore()
        copy_shard_into(src, dst)
        dst.batch_apply_ops(
            [(1, (RewardOp(("shy",)), ProfileOp(objective=(("age", -1),))))], POLICY
        )
        assert src.get(1).emotional["shy"] == 0.0
        assert src.get(1).objective == {"age": 1}

    def test_destination_must_be_empty(self):
        src = populate(ColumnarSumStore())
        dst = populate(ColumnarSumStore(), users=(5,))
        with pytest.raises(ValueError, match="empty"):
            copy_shard_into(src, dst)

    def test_empty_source_is_a_noop(self):
        dst = ColumnarSumStore()
        copy_shard_into(ColumnarSumStore(), dst)
        assert len(dst) == 0


class TestMultiProcSumStore:
    def test_in_process_surface_matches_plain_sharded_store(self):
        store = MultiProcSumStore(n_shards=3)
        try:
            populate(store, users=range(20))
            from repro.core.sharded_store import ShardedSumStore

            reference = populate(ShardedSumStore(n_shards=3),
                                 users=range(20))
            assert store.dumps() == reference.dumps()
        finally:
            store.close()

    def test_save_load_roundtrip(self, tmp_path):
        store = populate(MultiProcSumStore(n_shards=2), users=range(10))
        try:
            store.save(tmp_path)
            from repro.core.sharded_store import ShardedSumStore

            loaded = ShardedSumStore.load(tmp_path)
            assert loaded.dumps() == store.dumps()
        finally:
            store.close()

    def test_holds_only_its_arenas_segments(self):
        before = set(live_segment_names())
        store = MultiProcSumStore(n_shards=3)
        try:
            owned = {
                name for arena in store.arenas
                for name in arena.segment_names()
            }
            assert set(live_segment_names()) - before == owned
        finally:
            store.close()

    def test_n_shards_validated(self):
        with pytest.raises(ValueError, match="n_shards"):
            MultiProcSumStore(n_shards=0)

    def test_resync_bumps_clock_only_on_remote_commits(self):
        store = populate(MultiProcSumStore(n_shards=2), users=range(8))
        try:
            before = [s.mutation_count for s in store.shards]
            adopt_unchanged(store, 0, wrote=False)
            adopt_unchanged(store, 1, wrote=False)
            assert [s.mutation_count for s in store.shards] == before
            # a worker process's commit is only visible through its
            # reply's `wrote` — adopt_shard must translate it into a
            # parent clock bump or delta checkpoints would skip the shard
            adopt_unchanged(store, 0, wrote=True)
            adopt_unchanged(store, 1, wrote=False)
            after = [s.mutation_count for s in store.shards]
            assert after[0] == before[0] + 1
            assert after[1] == before[1]
        finally:
            store.close()

    def test_delta_checkpoint_reserializes_only_remotely_touched_shards(
        self, tmp_path
    ):
        store = populate(MultiProcSumStore(n_shards=2), users=range(12))
        try:
            gen1 = store.save(tmp_path)
            adopt_unchanged(store, 0, wrote=True)  # "worker committed on 0"
            adopt_unchanged(store, 1, wrote=False)
            gen2 = store.save(tmp_path)

            def inode(gen, shard):
                files = sorted((gen / f"shard-{shard:02d}").glob("*"))
                assert files
                return [os.stat(f).st_ino for f in files]

            # untouched shard 1 hardlinks gen1's pages; shard 0 re-wrote
            assert inode(gen1, 1) == inode(gen2, 1)
            assert inode(gen1, 0) != inode(gen2, 0)
        finally:
            store.close()

    def test_replace_shard_never_hardlinks_stale_pages(self, tmp_path):
        store = populate(MultiProcSumStore(n_shards=2), users=range(12))
        try:
            store.save(tmp_path)
            rebuilt = store.fresh_shard(0, capacity=1024)
            copy_shard_into(store.shards[0], rebuilt)
            rebuilt.batch_apply_ops([(1, (RewardOp(("shy",)),))], POLICY)
            store.replace_shard(0, rebuilt)
            gen2 = store.save(tmp_path)
            from repro.core.sharded_store import ShardedSumStore

            assert ShardedSumStore.load(tmp_path).dumps() == store.dumps()
            # the replacement's clock is unrelated to the recorded mark;
            # the save must have re-serialized, not linked
            reloaded = ColumnarSumStore.load(gen2 / "shard-00")
            assert reloaded.get(1).emotional["shy"] > 0.0
        finally:
            store.close()

    def test_close_releases_every_segment(self):
        store = populate(MultiProcSumStore(n_shards=2))
        names_before = live_segment_names()
        assert names_before  # the arenas' segments are live
        store.close()
        assert store.closed
        assert live_segment_names() == []
        store.close()  # idempotent

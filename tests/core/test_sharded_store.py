"""The partitioned SUM plane: router semantics, persistence, compaction.

ISSUE 5's tentpole contracts at store level: hash routing matches the
event bus, every read/write surface is bit-equal to the single columnar
store (which is itself pinned bit-equal to the object backend), unknown
users fail as one typed error across shards, generation-stamped
checkpoints round-trip with version floors, and vocabulary compaction
drops only all-absent interned columns.
"""

import threading

import numpy as np
import pytest

from repro.core.emotions import EMOTION_NAMES
from repro.core.reward import ReinforcementPolicy
from repro.core.sharded_store import (
    ShardedBatch,
    ShardedSumStore,
    generation_dirs,
    read_manifest,
)
from repro.core.shm_store import MultiProcSumStore
from repro.core.sum_model import SumRepository, UnknownUserError
from repro.core.sum_store import ColumnarSumStore, FrozenSumBatch
from repro.core.updates import DecayOp, ProfileOp, PunishOp, RewardOp
from repro.streaming.bus import partition_for
from repro.streaming.cache import SumCache

POLICY = ReinforcementPolicy()


def populate(cls=SumRepository, n_users=40, **kwargs):
    """``n_users`` seeded SUMs on an object repository, converted to
    ``cls`` (``kwargs`` go to its ``from_repository``)."""
    rng = np.random.default_rng(11)
    sums = SumRepository()
    for uid in range(n_users):
        model = sums.get_or_create(uid)
        for j, name in enumerate(EMOTION_NAMES[:4]):
            model.activate_emotion(name, float(rng.uniform(0.1, 0.9)))
            model.set_sensibility(name, float(rng.uniform(0.1, 0.9)))
        model.set_subjective(f"pref[p{uid % 3}]", float(rng.uniform(0, 1)))
    return sums if cls is SumRepository else cls.from_repository(sums, **kwargs)


def test_numpy_integer_ids_are_the_same_users(sum_backend_cls):
    # numpy integers used to hash through CRC-32 like any non-int key,
    # so a sharded store looked up a present user on the wrong partition
    store = sum_backend_cls()
    try:
        for uid in range(8):
            store.get_or_create(uid)
        cache = SumCache(store)
        for uid in range(16):
            assert (np.int64(uid) in store) == (uid in store) == (uid < 8)
            assert (np.int64(uid) in cache) == (uid in cache)
        for n in (1, 3, 4):
            for k in range(40):
                assert partition_for(np.int64(k), n) == k % n
    finally:
        if isinstance(store, MultiProcSumStore):
            store.close()


class TestRouting:
    def test_users_land_on_partition_for_shards(self):
        store = populate(ShardedSumStore, n_shards=4)
        for uid in range(40):
            shard = store.shards[partition_for(uid, 4)]
            assert uid in shard
            assert uid in store
        assert len(store) == 40
        assert sum(len(s) for s in store.shards) == 40

    def test_single_shard_degenerates_to_one_store(self):
        store = populate(ShardedSumStore, n_shards=1)
        assert len(store.shards[0]) == 40
        assert isinstance(store.batch([1, 2, 3]), FrozenSumBatch)

    def test_n_shards_validated(self):
        with pytest.raises(ValueError, match="n_shards"):
            ShardedSumStore(n_shards=0)


class TestStoreSurface:
    def test_dumps_bit_equal_to_object_repository(self):
        sharded = populate(ShardedSumStore, n_shards=4)
        reference = populate()
        assert sharded.dumps() == reference.dumps()

    def test_loads_round_trip(self):
        sharded = populate(ShardedSumStore, n_shards=4)
        again = ShardedSumStore.loads(sharded.dumps(), n_shards=3)
        assert again.dumps() == sharded.dumps()
        assert [len(s) for s in again.shards] != []

    def test_batch_matrices_match_single_store(self):
        sharded = populate(ShardedSumStore, n_shards=4)
        single = populate(ColumnarSumStore)
        ids = [7, 0, 13, 2, 21, 38]  # interleaved across shards
        b_sharded = sharded.batch(ids)
        b_single = single.batch(ids)
        assert isinstance(b_sharded, ShardedBatch)
        assert np.array_equal(
            b_sharded.intensity_matrix(EMOTION_NAMES),
            b_single.intensity_matrix(EMOTION_NAMES),
        )
        assert np.array_equal(
            b_sharded.sensibility_matrix(EMOTION_NAMES),
            b_single.sensibility_matrix(EMOTION_NAMES),
        )
        assert b_sharded.user_ids == ids

    def test_feature_matrix_matches_object_backend(self):
        sharded = populate(ShardedSumStore, n_shards=4)
        reference = populate()
        prefs = ("pref[p0]", "pref[p1]", "pref[p2]")
        got, got_ids = sharded.feature_matrix(subjective_order=prefs)
        want, want_ids = reference.feature_matrix(subjective_order=prefs)
        assert got_ids == want_ids
        assert np.array_equal(got, want)

    def test_unknown_users_named_across_shards(self):
        store = populate(ShardedSumStore, n_shards=4)
        with pytest.raises(UnknownUserError) as excinfo:
            store.batch([1, 901, 2, 902, 903])
        assert excinfo.value.user_ids == (901, 902, 903)
        with pytest.raises(UnknownUserError):
            store.feature_matrix([1, 777])
        # create=True takes streaming first-contact semantics instead
        batch = store.batch([901], create=True)
        assert batch.user_ids == [901]

    def test_freeze_view_delegates_to_owning_shard(self):
        store = populate(ShardedSumStore, n_shards=4)
        frozen = store.freeze_view(7)
        assert frozen.user_id == 7
        with pytest.raises((TypeError, ValueError, KeyError)):
            frozen.activate_emotion("shy", 0.4)


class TestBatchApply:
    def test_batch_apply_matches_single_store_bit_for_bit(self):
        sharded = populate(ShardedSumStore, n_shards=4)
        single = populate(ColumnarSumStore)
        items = [
            (uid, (RewardOp(("shy", "enthusiastic"), 0.7), DecayOp(),
                   PunishOp(("frightened",), 0.2)))
            for uid in range(0, 40, 3)
        ]
        counts_sharded = sharded.batch_apply_ops(items, POLICY)
        counts_single = single.batch_apply_ops(items, POLICY)
        assert counts_sharded == counts_single == [3] * len(items)
        assert sharded.dumps() == single.dumps()

    def test_validation_failure_leaves_every_shard_untouched(self):
        store = populate(ShardedSumStore, n_shards=4)
        before = store.dumps()
        # users on different shards; the poison op is on the *last* item,
        # so an unvalidated router would already have mutated shard 0
        items = [
            (0, (RewardOp(("shy",), 1.0),)),
            (1, (RewardOp(("shy",), 1.0),)),
            (2, (RewardOp(("not-an-emotion",), 1.0),)),
        ]
        with pytest.raises(KeyError, match="not-an-emotion"):
            store.batch_apply_ops(items, POLICY)
        assert store.dumps() == before

    def test_decay_tick_matches_object_backend(self):
        sharded = populate(ShardedSumStore, n_shards=4)
        reference = populate()
        assert sharded.decay_tick(POLICY) == 40
        for model in reference:
            POLICY.apply_decay(model)
        assert sharded.dumps() == reference.dumps()
        # targeted ticks validate and route
        assert sharded.decay_tick(POLICY, [1, 2, 3]) == 3
        with pytest.raises(UnknownUserError):
            sharded.decay_tick(POLICY, [999])

    def test_targeted_decay_tick_is_a_full_writer(self):
        # it used to multiply the rows without opening their seqlock
        # window or moving the mutation clock: lock-free captures could
        # tear on it and delta checkpoints could skip the dirty shard
        sharded = populate(ShardedSumStore, n_shards=4)
        shard = sharded.shard_for(1)
        row = shard.row_index(1)
        generation = int(shard.row_generations.cells[row])
        clock = shard.mutation_count
        with pytest.raises(UnknownUserError):
            sharded.decay_tick(POLICY, [1, 999])  # nothing decays
        assert int(shard.row_generations.cells[row]) == generation
        assert sharded.decay_tick(POLICY, [1]) == 1
        assert int(shard.row_generations.cells[row]) == generation + 2
        assert shard.mutation_count > clock

    def test_concurrent_writers_on_distinct_shards(self):
        store = ShardedSumStore(n_shards=4)
        for uid in range(200):
            store.get_or_create(uid)
        errors = []

        def writer(shard_index):
            try:
                ids = [uid for uid in range(200)
                       if partition_for(uid, 4) == shard_index]
                for __ in range(30):
                    store.batch_apply_ops(
                        [(uid, (RewardOp(("shy",), 0.1),)) for uid in ids],
                        POLICY,
                    )
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # every user took exactly 30 rewards: same clamped trajectory
        expected = ColumnarSumStore()
        for uid in range(200):
            expected.get_or_create(uid)
        for __ in range(30):
            expected.batch_apply_ops(
                [(uid, (RewardOp(("shy",), 0.1),)) for uid in range(200)],
                POLICY,
            )
        assert store.dumps() == expected.dumps()


@pytest.mark.parametrize(
    "make_store",
    [
        lambda n: ColumnarSumStore(initial_capacity=n),
        lambda n: ShardedSumStore(n_shards=4, initial_capacity=n),
    ],
    ids=["single-lock", "sharded"],
)
def test_writers_commit_beside_a_flat_out_decay_loop(make_store):
    """Four writer threads commit their partitions' batches while one
    maintenance thread runs population decay ticks back to back: nothing
    raises, nothing hangs, and every reward lands exactly once and stays
    landed.  Both hold in any interleaving: decay never touches evidence,
    and it only scales a rewarded intensity, so a zero means a decay
    wrote back a copy read before the reward committed."""
    n_users, batch_users = 5_000, 256
    store = make_store(n_users)
    for uid in range(n_users):
        store.get_or_create(uid)
    ops = (RewardOp(("enthusiastic", "stimulated"), 0.6), DecayOp())
    per_thread = []
    for t in range(4):
        users = [uid for uid in range(n_users) if partition_for(uid, 4) == t]
        per_thread.append([
            [(uid, ops) for uid in users[i:i + batch_users]]
            for i in range(0, len(users), batch_users)
        ])
    barrier = threading.Barrier(5)
    writers_done = threading.Event()
    errors = []

    def writer(batches):
        try:
            barrier.wait()
            for batch in batches:
                store.batch_apply_ops(batch, POLICY)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    def maintenance():
        try:
            barrier.wait()
            while not writers_done.is_set():
                store.decay_tick(POLICY)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    writers = [threading.Thread(target=writer, args=(b,)) for b in per_thread]
    cadence = threading.Thread(target=maintenance)
    for thread in (*writers, cadence):
        thread.start()
    for thread in writers:
        thread.join(timeout=60.0)
    writers_done.set()
    cadence.join(timeout=60.0)
    assert not any(t.is_alive() for t in (*writers, cadence))
    assert errors == []
    for model in store:
        assert model.evidence == {"enthusiastic": 1, "stimulated": 1}
        assert model.emotional["enthusiastic"] > 0.0
        assert model.emotional["stimulated"] > 0.0


class TestPersistence:
    def test_generations_are_monotonic_and_atomic(self, tmp_path):
        store = populate(ShardedSumStore, n_shards=3)
        root = tmp_path / "state"
        first = store.save(root)
        second = store.save(root)
        assert first.name == "gen-000001" and second.name == "gen-000002"
        manifest = read_manifest(root)
        assert manifest["generation"] == 2
        assert manifest["n_shards"] == 3
        assert manifest["path"] == "gen-000002"
        assert [g for g, __ in generation_dirs(root)] == [1, 2]

    @pytest.mark.parametrize("mmap", [False, True])
    def test_load_round_trip_bit_equal(self, tmp_path, mmap):
        store = populate(ShardedSumStore, n_shards=3)
        store.save(tmp_path / "state", versions={uid: 5 for uid in range(40)},
                   global_version=17)
        loaded = ShardedSumStore.load(tmp_path / "state", mmap=mmap)
        assert loaded.dumps() == store.dumps()
        assert loaded.snapshot_generation == 1
        assert loaded.version(7) == 5
        assert loaded.global_version == 17
        assert loaded.readonly is mmap

    def test_mmap_replica_rejects_writes(self, tmp_path):
        store = populate(ShardedSumStore, n_shards=2)
        store.save(tmp_path / "state")
        replica = ShardedSumStore.load(tmp_path / "state", mmap=True)
        with pytest.raises(TypeError, match="read-only"):
            replica.get_or_create(999)
        with pytest.raises(TypeError, match="read-only"):
            replica.batch_apply_ops([(1, (RewardOp(("shy",), 1.0),))], POLICY)
        with pytest.raises(TypeError, match="read-only"):
            replica.compact_vocab()

    def test_version_floor_falls_back_to_generation(self, tmp_path):
        # the ISSUE satellite: replicas never serve sum_version=None
        store = populate(ShardedSumStore, n_shards=2)
        store.save(tmp_path / "state")  # no cache versions supplied
        replica = ShardedSumStore.load(tmp_path / "state", mmap=True)
        assert replica.version(3) == 1
        assert replica.global_version == 1
        live = ShardedSumStore(n_shards=2)
        live.get_or_create(3)
        assert live.version(3) is None


class TestCompaction:
    def test_compact_drops_only_all_absent_interned_columns(self):
        store = populate(ShardedSumStore, n_shards=4)
        # a retired attribute: interned on every shard, held by nobody
        # (no op deletes a name, so an all-absent column is seeded here)
        for shard in store.shards:
            shard._subjective.ensure_column("pref[retired]")
        before = store.dumps()
        dropped = store.compact_vocab()
        assert dropped > 0  # the retired pref columns went away
        assert store.dumps() == before
        # seeds survive per shard: the shared emotion column indices the
        # scatter-add path relies on are pinned
        for shard in store.shards:
            assert shard._sensibility.order[: len(EMOTION_NAMES)] == list(
                EMOTION_NAMES
            )
            assert shard._evidence.order[: len(EMOTION_NAMES)] == list(
                EMOTION_NAMES
            )
        # still writable and routable after the rebuild
        store.batch_apply_ops([(1, (RewardOp(("shy",), 0.5),))], POLICY)

    def test_compact_save_load_round_trip(self, tmp_path):
        # the ISSUE satellite: compact → save → load → dumps bit-equal
        store = populate(ShardedSumStore, n_shards=3)
        for shard in store.shards:
            shard._subjective.ensure_column("pref[retired]")
        reference = store.dumps()
        assert store.compact_vocab() > 0
        store.save(tmp_path / "state")
        for mmap in (False, True):
            loaded = ShardedSumStore.load(tmp_path / "state", mmap=mmap)
            assert loaded.dumps() == reference

    def test_compact_noop_when_everything_present(self):
        store = populate(ColumnarSumStore)
        assert store.compact_vocab() == 0

    def test_compact_preserves_present_interned_columns(self):
        store = ColumnarSumStore()
        store.batch_apply_ops([
            (1, (ProfileOp(subjective=(("pref[keep]", 0.9),)),)),
            (2, ()),
        ], POLICY)
        store._subjective.ensure_column("pref[drop]")  # held by nobody
        assert store.compact_vocab() == 1
        assert store.get(1).subjective["pref[keep]"] == pytest.approx(0.9)
        assert "pref[drop]" not in store.get(2).subjective

"""The columnar SUM store: views, batch reads, persistence.

The contract under test everywhere here is *bit-equality* with the
object backend — not approximate closeness.  Ops committed through
``batch_apply_ops`` run the very same Python-float arithmetic on both
backends, so states (and their JSON serializations) must compare equal
with ``==``; a :class:`SumRowView` only reads.
"""

import json

import numpy as np
import pytest

from repro.core.advice import AdviceEngine, DomainProfile
from repro.core.four_branch import BRANCH_ORDER, Branch
from repro.core.gradual_eit import QuestionBank
from repro.core.reward import ReinforcementPolicy
from repro.core.sum_model import SmartUserModel, SumRepository, UnknownUserError
from repro.core.sum_store import ColumnarSumStore, FrozenSumBatch, SumRowView
from repro.core.updates import (
    AnalyzeOp,
    DecayOp,
    EitAnswerOp,
    ProfileOp,
    PunishOp,
    RewardOp,
)

POLICY = ReinforcementPolicy()

#: a managing-branch question: answering it observes that branch
QUESTION = QuestionBank.default_bank().by_branch(Branch.MANAGING)[0]

#: one representative op mix touching every attribute family
DRIVE = (
    ProfileOp(
        objective=(("age", 31), ("region", "madrid")),
        subjective=(("pref[online]", 0.7), ("pref[online]", 0.85), ("pref[evening]", 0.3)),
    ),
    RewardOp(("enthusiastic", "lively"), 0.6),
    DecayOp(),
    PunishOp(("shy", "shy"), 0.9),  # duplicate: clamp between
    RewardOp(("hopeful",), 1.3),    # strength clamps to 1.0
    AnalyzeOp(),
    EitAnswerOp(QUESTION, 1),
)


def paired_backends(user_ids=(3, 1, 7)):
    repo, store = SumRepository(), ColumnarSumStore()
    for sums in (repo, store):
        sums.batch_apply_ops([(uid, DRIVE) for uid in user_ids], POLICY)
    return repo, store


class TestRowViews:
    def test_scalar_api_is_bit_equal_to_object_backend(self):
        repo, store = paired_backends()
        for uid in repo.user_ids():
            assert store.get(uid).to_dict() == repo.get(uid).to_dict()

    def test_view_is_a_smart_user_model(self):
        store = ColumnarSumStore()
        view = store.get_or_create(9)
        assert isinstance(view, SmartUserModel)
        assert isinstance(view, SumRowView)
        # every lookup is a fresh read-only view of the same row
        assert store.get(9).to_dict() == view.to_dict()

    def test_views_survive_row_growth(self):
        store = ColumnarSumStore(initial_capacity=2)
        policy = ReinforcementPolicy(learning_rate=0.5)
        early = store.get_or_create(0)
        store.batch_apply_ops([(0, (RewardOp(("shy",)),))], policy)
        for uid in range(1, 64):  # forces several capacity doublings
            store.get_or_create(uid)
        assert early.emotional["shy"] == pytest.approx(0.5)
        store.batch_apply_ops([(0, (RewardOp(("shy",), 0.2),))], policy)
        assert store.get(0).emotional["shy"] == early.emotional["shy"]

    def test_dynamic_vocabulary_interned_per_population(self):
        store = ColumnarSumStore()
        store.batch_apply_ops([
            (1, (ProfileOp(subjective=(("pref[a]", 0.9),)),)),
            (2, (ProfileOp(subjective=(("pref[b]", 0.2),)),)),
        ], POLICY)
        # presence is per user even though columns are shared
        assert "pref[b]" not in store.get(1).subjective
        assert dict(store.get(2).subjective) == {"pref[b]": 0.2}

    def test_sensibility_presence_semantics(self):
        # absent reads 0.0 on the reward path but 1.0 on the advice path
        store = ColumnarSumStore()
        view = store.get_or_create(1)
        assert view.sensibility.get("shy", 0.0) == 0.0
        assert view.sensibility.get("shy", 1.0) == 1.0
        store.batch_apply_ops([(1, (RewardOp(("shy",), 1.0),))], POLICY)
        assert view.sensibility["shy"] == pytest.approx(0.1)

    def test_unknown_emotion_rejected(self):
        store = ColumnarSumStore()
        with pytest.raises(KeyError):
            store.get_or_create(1).activate_emotion("not-an-emotion", 0.1)

    def test_get_unknown_user_raises_typed_error(self):
        store = ColumnarSumStore()
        with pytest.raises(UnknownUserError, match="no SUM for user 4"):
            store.get(4)
        with pytest.raises(KeyError):  # still a KeyError for old callers
            store.get(4)

    def test_objective_assignment_roundtrip(self):
        store = ColumnarSumStore()
        store.batch_apply_ops([(1, (ProfileOp(objective=(("age", 40),)),))], POLICY)
        assert store.get(1).objective == {"age": 40}


class TestBatchReads:
    def test_feature_matrix_bit_equal(self):
        repo, store = paired_backends()
        order = ("pref[online]", "pref[evening]", "never-set")
        expected, ids1 = repo.feature_matrix(subjective_order=order)
        actual, ids2 = store.feature_matrix(subjective_order=order)
        assert ids1 == ids2
        assert np.array_equal(expected, actual)

    def test_feature_matrix_subsets_and_no_ei(self):
        repo, store = paired_backends()
        expected, __ = repo.feature_matrix(user_ids=[7, 3], include_ei=False)
        actual, __ = store.feature_matrix(user_ids=[7, 3], include_ei=False)
        assert np.array_equal(expected, actual)

    def test_empty_feature_matrix_width(self):
        matrix, ids = ColumnarSumStore().feature_matrix(
            subjective_order=("a", "b")
        )
        assert matrix.shape == (0, 10 + 2 + len(BRANCH_ORDER))
        assert ids == []

    def test_boosts_matrix_columnar_fast_path_bit_equal(self):
        repo, store = paired_backends()
        profile = DomainProfile(
            "courses",
            {
                "enthusiastic": {"new": 0.8, "online": 0.3},
                "shy": {"classroom": -0.6},
                "hopeful": {"new": 0.5},
            },
        )
        engine = AdviceEngine()
        ids = repo.user_ids()
        batch = store.batch(ids)
        assert isinstance(batch, FrozenSumBatch)
        expected = engine.boosts_matrix([repo.get(u) for u in ids], profile)
        actual = engine.boosts_matrix(batch, profile)
        assert np.array_equal(expected, actual)

    def test_batch_unknown_users_named_in_error(self):
        __, store = paired_backends()
        with pytest.raises(UnknownUserError) as excinfo:
            store.batch([3, 404, 405])
        assert excinfo.value.user_ids == (404, 405)

    def test_batch_create_missing(self):
        store = ColumnarSumStore()
        batch = store.batch([1, 2], create=True)
        assert len(batch) == 2
        assert store.user_ids() == [1, 2]


class TestVectorizedOps:
    def test_population_decay_tick_bit_equal(self):
        repo, store = paired_backends()
        for model in repo:
            POLICY.apply_decay(model)
        store.decay_tick(POLICY)
        assert repo.dumps() == store.dumps()

    def test_batch_apply_validates_before_mutating(self):
        __, store = paired_backends()
        before = store.dumps()
        with pytest.raises(TypeError):
            store.batch_apply_ops(
                [(1, (RewardOp(("shy",), 1.0), object()))], POLICY
            )
        with pytest.raises(KeyError):
            store.batch_apply_ops([(1, (RewardOp(("nope",), 1.0),))], POLICY)
        with pytest.raises(ValueError):
            store.batch_apply_ops(
                [(1, (RewardOp(("shy",), float("nan")),))], POLICY
            )
        assert store.dumps() == before  # untouched


class TestPersistence:
    def test_json_dumps_identical_to_object_backend(self):
        repo, store = paired_backends()
        assert repo.dumps() == store.dumps()

    def test_loads_accepts_repository_dumps(self):
        repo, __ = paired_backends()
        store = ColumnarSumStore.loads(repo.dumps())
        assert store.dumps() == repo.dumps()

    def test_repository_conversion_round_trip(self):
        repo, __ = paired_backends()
        assert repo.to_columnar().to_repository().dumps() == repo.dumps()

    def test_catalog_round_trip(self, tmp_path):
        __, store = paired_backends()
        store.save(tmp_path / "sums")
        loaded = ColumnarSumStore.load(tmp_path / "sums")
        assert loaded.dumps() == store.dumps()

    def test_catalog_pages_are_npz_columns(self, tmp_path):
        # one layout on disk: the cold per-row state is the only table;
        # every family lives in dense pages (see the next test)
        __, store = paired_backends()
        store.save(tmp_path / "sums")
        names = {p.name for p in (tmp_path / "sums").iterdir()}
        assert "catalog.json" in names
        assert {n for n in names if n.endswith(".npz")} == {"users.npz"}

    def test_json_to_catalog_to_json(self, tmp_path):
        # the paper's JSON format remains a full-fidelity import/export
        repo, __ = paired_backends()
        store = ColumnarSumStore.loads(repo.dumps())
        store.save(tmp_path / "pages")
        reloaded = ColumnarSumStore.load(tmp_path / "pages")
        assert json.loads(reloaded.dumps()) == json.loads(repo.dumps())

    def test_dense_pages_written_alongside_tables(self, tmp_path):
        __, store = paired_backends()
        store.save(tmp_path / "sums")
        names = {p.name for p in (tmp_path / "sums").iterdir()}
        assert "user_ids.npy" in names and "ei.npy" in names
        for family in ("emotional", "sensibility", "subjective", "evidence"):
            assert f"{family}__values.npy" in names
            assert f"{family}__mask.npy" in names

    def test_page_less_directory_raises_storage_error(self, tmp_path):
        # a catalog directory without the dense pages was not written by
        # save(): both load modes say so with the typed error
        __, store = paired_backends()
        directory = store.save(tmp_path / "sums")
        manifest_path = directory / "catalog.json"
        manifest = json.loads(manifest_path.read_text())
        for filename in manifest.pop("arrays", {}).values():
            (directory / filename).unlink()
        manifest.pop("meta", None)
        manifest_path.write_text(json.dumps(manifest))
        from repro.db.storage import StorageError

        for mmap in (False, True):
            with pytest.raises(StorageError, match="dense column pages"):
                ColumnarSumStore.load(directory, mmap=mmap)


class TestMmapReplicas:
    def saved(self, tmp_path):
        __, store = paired_backends()
        return store, store.save(tmp_path / "sums")

    def test_mmap_round_trip_is_full_fidelity(self, tmp_path):
        store, directory = self.saved(tmp_path)
        replica = ColumnarSumStore.load(directory, mmap=True)
        assert replica.readonly
        assert replica.dumps() == store.dumps()

    def test_pages_are_read_only_memory_maps(self, tmp_path):
        __, directory = self.saved(tmp_path)
        replica = ColumnarSumStore.load(directory, mmap=True)
        assert isinstance(replica._emotional.values, np.memmap)
        assert isinstance(replica._ei, np.memmap)
        assert not replica._emotional.values.flags.writeable

    def test_replica_rejects_every_write_path(self, tmp_path):
        __, directory = self.saved(tmp_path)
        replica = ColumnarSumStore.load(directory, mmap=True)
        with pytest.raises(TypeError, match="read-only"):
            replica.get_or_create(999)
        with pytest.raises(TypeError, match="read-only"):
            replica.decay_tick(POLICY)
        with pytest.raises(TypeError, match="read-only"):
            replica.batch_apply_ops(
                [(3, (RewardOp(("shy",), 1.0),))], POLICY
            )
        with pytest.raises((TypeError, ValueError, KeyError)):
            replica.get(3).activate_emotion("shy", 0.1)
        with pytest.raises((TypeError, ValueError, KeyError)):
            replica.get(3).set_subjective("pref[new]", 0.5)
        # cold per-row state is frozen too, not just the mapped arrays
        with pytest.raises(TypeError):
            replica.get(3).objective = {"age": 30}
        with pytest.raises(TypeError):
            replica.get(3).set_objective("age", 30)
        with pytest.raises((TypeError, AttributeError)):
            replica.get(3).asked_questions.add("q-9")
        with pytest.raises(TypeError):
            replica.get(3).asked_questions = {"q-9"}

    def test_replica_can_be_resnapshotted(self, tmp_path):
        # save() is a pure read, so re-snapshotting a served (frozen)
        # state must work
        store, directory = self.saved(tmp_path)
        replica = ColumnarSumStore.load(directory, mmap=True)
        resaved = replica.save(tmp_path / "resaved")
        assert ColumnarSumStore.load(resaved).dumps() == store.dumps()

    def test_replica_serves_batch_reads(self, tmp_path):
        store, directory = self.saved(tmp_path)
        replica = ColumnarSumStore.load(directory, mmap=True)
        order = ("pref[online]", "pref[evening]")
        expected, ids1 = store.feature_matrix(subjective_order=order)
        actual, ids2 = replica.feature_matrix(subjective_order=order)
        assert ids1 == ids2
        assert np.array_equal(expected, actual)
        profile = DomainProfile("courses", {"enthusiastic": {"new": 0.8}})
        engine = AdviceEngine()
        assert np.array_equal(
            engine.boosts_matrix(store.batch(ids1), profile),
            engine.boosts_matrix(replica.batch(ids2), profile),
        )

    def test_streaming_workers_refuse_readonly_replicas(self, tmp_path):
        from repro.streaming.bus import PartitionQueue
        from repro.streaming.cache import SumCache
        from repro.streaming.consumer import ShardWorker
        from repro.streaming.mapper import EventUpdateMapper

        __, directory = self.saved(tmp_path)
        replica = ColumnarSumStore.load(directory, mmap=True)
        with pytest.raises(TypeError, match="read-only"):
            ShardWorker(
                PartitionQueue(0, capacity=4, max_attempts=1),
                EventUpdateMapper({}),
                SumCache(replica),
                POLICY,
            )

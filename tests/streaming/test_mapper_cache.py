"""Unit tests for the event→op mapper and the versioned SUM cache."""

import pytest

from repro.core.reward import ReinforcementPolicy
from repro.core.sum_model import SumRepository
from repro.core.updates import DecayOp, ProfileOp, PunishOp, RewardOp
from repro.lifelog.events import ActionCategory, Event
from repro.streaming.cache import SumCache
from repro.streaming.mapper import EventUpdateMapper, MapperConfig

ITEM_EMOTIONS = {"7": ("enthusiastic", "motivated"), "9": ("shy",)}
POLICY = ReinforcementPolicy()


def event(action="course_view", category=ActionCategory.NAVIGATION,
          user_id=1, target="7", **payload):
    full_payload = dict(payload)
    if target is not None:
        full_payload["target"] = target
    return Event(timestamp=1_000.0, user_id=user_id, action=action,
                 category=category, payload=full_payload)


class TestMapper:
    def test_navigation_rewards_linked_emotions(self):
        mapper = EventUpdateMapper(ITEM_EMOTIONS)
        ops = mapper.ops(event())
        assert ops == (RewardOp(("enthusiastic", "motivated"), 0.10),)

    def test_enrollment_full_strength(self):
        mapper = EventUpdateMapper(ITEM_EMOTIONS)
        (op,) = mapper.ops(
            event("course_enroll", ActionCategory.ENROLLMENT)
        )
        assert isinstance(op, RewardOp) and op.strength == 1.0

    def test_low_rating_punishes(self):
        mapper = EventUpdateMapper(ITEM_EMOTIONS)
        (op,) = mapper.ops(
            event("course_rate", ActionCategory.RATING, value="2")
        )
        assert op == PunishOp(("enthusiastic", "motivated"), 0.50)

    def test_high_rating_rewards(self):
        mapper = EventUpdateMapper(ITEM_EMOTIONS)
        (op,) = mapper.ops(
            event("course_rate", ActionCategory.RATING, value="5")
        )
        assert isinstance(op, RewardOp)

    def test_campaign_open_vs_click_strengths(self):
        mapper = EventUpdateMapper(ITEM_EMOTIONS)
        (open_op,) = mapper.ops(event("push_open", ActionCategory.CAMPAIGN))
        (click_op,) = mapper.ops(event("push_click", ActionCategory.CAMPAIGN))
        assert open_op.strength == pytest.approx(0.30)
        assert click_op.strength == pytest.approx(0.60)

    def test_campaign_events_resolve_course_payload(self):
        # Engine campaign events keep target=campaign_id and name the
        # advertised course separately; replay must still reinforce.
        mapper = EventUpdateMapper(ITEM_EMOTIONS)
        (op,) = mapper.ops(event(
            "push_open", ActionCategory.CAMPAIGN,
            target="push-01", course="7",
        ))
        assert op == RewardOp(("enthusiastic", "motivated"), 0.30)

    def test_unknown_target_produces_no_ops(self):
        mapper = EventUpdateMapper(ITEM_EMOTIONS)
        assert mapper.ops(event(target="999")) == ()

    def test_missing_target_produces_no_ops(self):
        mapper = EventUpdateMapper(ITEM_EMOTIONS)
        assert mapper.ops(event(target=None, q="science")) == ()

    def test_eit_and_account_are_not_reinforcement(self):
        mapper = EventUpdateMapper(ITEM_EMOTIONS)
        assert mapper.ops(event("eit_answer", ActionCategory.EIT_ANSWER)) == ()
        assert mapper.ops(event("login", ActionCategory.ACCOUNT)) == ()

    def test_decay_every_n_op_bearing_events(self):
        mapper = EventUpdateMapper(
            ITEM_EMOTIONS, MapperConfig(decay_every=3)
        )
        sequences = [mapper.ops(event()) for _ in range(7)]
        decayed = [i for i, ops in enumerate(sequences)
                   if any(isinstance(op, DecayOp) for op in ops)]
        assert decayed == [2, 5]  # every third op-bearing event

    def test_decay_counters_are_per_user(self):
        mapper = EventUpdateMapper(
            ITEM_EMOTIONS, MapperConfig(decay_every=2)
        )
        assert not any(isinstance(op, DecayOp)
                       for op in mapper.ops(event(user_id=1)))
        assert not any(isinstance(op, DecayOp)
                       for op in mapper.ops(event(user_id=2)))
        assert any(isinstance(op, DecayOp)
                   for op in mapper.ops(event(user_id=1)))

    def test_tick_ops_reset_decay_counter(self):
        mapper = EventUpdateMapper(
            ITEM_EMOTIONS, MapperConfig(decay_every=2)
        )
        mapper.ops(event(user_id=1))
        assert mapper.tick_ops(1) == (DecayOp(),)
        # counter was reset, so the next event does not decay again
        assert not any(isinstance(op, DecayOp)
                       for op in mapper.ops(event(user_id=1)))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MapperConfig(reward_navigation=1.5)
        with pytest.raises(ValueError):
            MapperConfig(decay_every=0)


class TestSumCache:
    def test_reads_are_snapshots_until_publish(self):
        sums = SumRepository()
        sums.get_or_create(1).activate_emotion("shy", 0.4)
        cache = SumCache(sums)
        assert cache.get(1).emotional["shy"] == pytest.approx(0.4)

        # a direct repository writer commits through the store ...
        sums.batch_apply_ops(
            [(1, (RewardOp(("shy",)),))], ReinforcementPolicy(learning_rate=0.3)
        )
        # ... so the live model moved, but nothing is visible yet
        assert sums.get(1).emotional["shy"] == pytest.approx(0.7)
        assert cache.get(1).emotional["shy"] == pytest.approx(0.4)

        cache.invalidate([1])  # the publish step of that path
        assert cache.get(1).emotional["shy"] == pytest.approx(0.7)

    def test_versions_start_at_zero_and_bump_on_publish(self):
        cache = SumCache(SumRepository())
        assert cache.version(1) == 0
        cache.repository.get_or_create(1).activate_emotion("shy", 0.1)
        assert cache.version(1) == 0  # unpublished writes bump nothing
        assert cache.invalidate([1]) == {1: 1}
        assert cache.version(1) == 1

    def test_invalidate_bumps_each_user_once(self):
        cache = SumCache(SumRepository())
        for uid in (1, 1, 2, 2, 2):
            cache.repository.get_or_create(uid).activate_emotion("shy", 0.05)
        versions = cache.invalidate([1, 1, 2, 2, 2])
        assert versions == {1: 1, 2: 1}
        assert cache.global_version == 1  # one batch, one global bump

    def test_invalidate_all_users_covers_external_writes(self):
        sums = SumRepository()
        for uid in (3, 4):
            sums.get_or_create(uid).activate_emotion("shy", 0.2)
        cache = SumCache(sums)
        assert cache.get(3).emotional["shy"] == pytest.approx(0.2)
        # an external writer (the offline campaign loop) bypasses the cache
        sums.get(3).activate_emotion("shy", 0.5)
        assert cache.get(3).emotional["shy"] == pytest.approx(0.2)  # stale
        versions = cache.invalidate()
        assert versions == {3: 1, 4: 1}
        assert cache.get(3).emotional["shy"] == pytest.approx(0.7)

    def test_apply_and_publish_commits_atomically(self):
        sums = SumRepository()
        sums.get_or_create(1).activate_emotion("shy", 0.2)
        cache = SumCache(sums)
        assert cache.get(1).emotional["shy"] == pytest.approx(0.2)
        counts, versions = cache.apply_batch_and_publish(
            [(1, (RewardOp(("shy",), 1.0),))], POLICY
        )
        assert counts == [1]
        assert versions == {1: 1} and cache.version(1) == 1
        # visible immediately at the new version — no mutate/publish gap
        assert cache.get(1).emotional["shy"] == pytest.approx(0.4)
        assert cache.global_version == 0  # batches are marked separately
        assert cache.mark_batch() == 1

    def test_apply_and_publish_zero_ops_commits_nothing(self):
        sums = SumRepository()
        sums.get_or_create(1)
        cache = SumCache(sums)
        counts, versions = cache.apply_batch_and_publish([(1, ())], POLICY)
        assert (counts, versions) == ([0], {1: 0})
        assert cache.version(1) == 0

    def test_invalidate_empty_is_noop(self):
        cache = SumCache(SumRepository())
        assert cache.invalidate([]) == {}
        assert cache.invalidate() == {}  # empty repository
        assert cache.global_version == 0

    def test_repository_duck_type(self):
        sums = SumRepository()
        sums.get_or_create(3)
        cache = SumCache(sums)
        assert cache.user_ids() == [3]
        assert 3 in cache
        assert len(cache) == 1
        assert cache.get_or_create(8).user_id == 8
        assert 8 in sums


class TestColumnarBatchReads:
    """SumCache.batch: the allocation-free columnar serving read path."""

    def _world(self):
        from repro.core.reward import ReinforcementPolicy
        from repro.core.sum_store import ColumnarSumStore

        seed = SumRepository()
        for uid in (1, 2, 3):
            model = seed.get_or_create(uid)
            model.activate_emotion("shy", 0.1 * uid)
            model.set_sensibility("shy", 0.2)
        store = ColumnarSumStore.from_repository(seed)
        return store, SumCache(store), ReinforcementPolicy()

    def test_batch_exposed_on_every_repository(self):
        repo = SumRepository()
        repo.get_or_create(1).activate_emotion("shy", 0.25)
        batch = SumCache(repo).batch([1])
        assert batch.intensity_matrix(("shy",)).tolist() == [[0.25]]
        __, cache, __ = self._world()
        assert callable(cache.batch)

    def test_batch_slices_match_scalar_snapshots(self):
        import numpy as np

        from repro.core.emotions import EMOTION_NAMES

        __, cache, __ = self._world()
        batch = cache.batch([1, 2, 3])
        intensity = batch.intensity_matrix(EMOTION_NAMES)
        for row, uid in enumerate(batch.user_ids):
            np.testing.assert_array_equal(
                intensity[row], cache.get(uid).emotional_vector()
            )
        sens = batch.sensibility_matrix(("shy", "never-set"), default=1.0)
        assert np.all(sens[:, 0] == 0.2)
        assert np.all(sens[:, 1] == 1.0)

    def test_batch_is_version_stamped_and_bit_stable(self):
        import numpy as np

        from repro.core.emotions import EMOTION_NAMES

        __, cache, policy = self._world()
        old = cache.batch([1, 2])
        before = old.intensity_matrix(EMOTION_NAMES).copy()
        assert old.versions == {1: 0, 2: 0}

        cache.apply_batch_and_publish([(1, (RewardOp(("shy",), 1.0),))], policy)
        # the captured batch is frozen at its versions, bit for bit
        np.testing.assert_array_equal(
            old.intensity_matrix(EMOTION_NAMES), before
        )
        fresh = cache.batch([1, 2])
        assert fresh.versions == {1: 1, 2: 0}
        assert fresh.intensity_matrix(EMOTION_NAMES)[0].sum() > before[0].sum()

    def test_batch_read_builds_no_models_and_no_dict_roundtrips(self, monkeypatch):
        from repro.core.emotions import EMOTION_NAMES
        from repro.core.sum_model import SmartUserModel

        __, cache, __ = self._world()

        def boom(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("object rebuild on the columnar read path")

        monkeypatch.setattr(SmartUserModel, "to_dict", boom)
        monkeypatch.setattr(SmartUserModel, "from_dict", boom)
        batch = cache.batch([1, 2, 3])
        batch.intensity_matrix(EMOTION_NAMES)
        batch.sensibility_matrix(EMOTION_NAMES)
        assert cache.cached_users == 0  # no per-user snapshots either

    def test_batch_unknown_users_raise_one_typed_error(self):
        from repro.core.sum_model import UnknownUserError

        __, cache, __ = self._world()
        with pytest.raises(UnknownUserError) as excinfo:
            cache.batch([1, 404, 405])
        assert excinfo.value.user_ids == (404, 405)
        batch = cache.batch([404], create=True)
        assert batch.user_ids == [404] and 404 in cache

    def test_mirror_survives_store_growth_between_reads(self):
        # regression: a torn (values, mask) shape pair during capacity
        # growth once left the cache's read copy permanently divergent
        # and crashed every later read with IndexError
        from repro.core.emotions import EMOTION_NAMES
        from repro.core.sum_store import ColumnarSumStore

        store = ColumnarSumStore(initial_capacity=2)
        policy = ReinforcementPolicy()
        store.batch_apply_ops(  # shy ~ 0.1 * uid
            [(uid, (RewardOp(("shy",), 0.5 * uid),)) for uid in (1, 2)], policy
        )
        cache = SumCache(store)
        cache.batch([1, 2])  # read at the tiny initial capacity
        store.batch_apply_ops(  # several row-capacity doublings
            [(uid, (ProfileOp(subjective=((f"pref[{uid}]", 0.5),)),)) for uid in range(10, 90)],
            policy,
        )
        cache.invalidate([1])
        batch = cache.batch(list(range(10, 90)) + [1, 2])
        assert batch.intensity_matrix(EMOTION_NAMES).shape == (82, 10)
        shy = EMOTION_NAMES.index("shy")
        assert batch.intensity_matrix(EMOTION_NAMES)[-2, shy] == pytest.approx(0.1)

"""Advice by active columns: what a request reads, counted.

An item is activated or inhibited only through an attribute it carries,
so a request whose items carry none is the base ranking by construction
and must never read a SUM; every other contract of the adjusting path —
typed unknown-user errors, first-contact creation, freshness stamps,
the deadline — holds for it unchanged.  Counts, not times.
"""

import numpy as np
import pytest

import repro.serving.service as service_module
from repro.core.advice import AdviceEngine, DomainProfile, ItemTable
from repro.core.interned import InternedIds
from repro.core.sum_model import SumRepository, UnknownUserError
from repro.core.sum_store import ColumnarSumStore
from repro.obs.metrics import MetricsRegistry, labelled
from repro.serving import (
    RecommendationRequest,
    RecommendationService,
    SelectionRequest,
)
from repro.serving.budget import DeadlineExceeded
from repro.streaming.cache import SumCache

PROFILE = DomainProfile(
    "training",
    {
        "enthusiastic": {"innovative": 0.8},
        "frightened": {"challenging": -0.6, "supportive": 0.5},
        "shy": {"supportive": 0.4},
    },
)
ITEM_ATTRIBUTES = {
    "course-innovative": {"innovative": 1.0},
    "course-challenging": {"challenging": 1.0},
    "course-supportive": {"supportive": 0.8},
    "course-plain": {},
}
USER_IDS = (1, 2, 3)
PLAIN = "course-plain"        # named by the table, carries nothing
STRANGER = "course-unlisted"  # not in the table: the shared all-zero row
CARRYING = "course-innovative"


def populate(cls):
    """Three users seeded on an object repository, converted to ``cls``."""
    sums = SumRepository()
    keen = sums.get_or_create(1)
    keen.activate_emotion("enthusiastic", 1.0)
    keen.set_sensibility("enthusiastic", 1.0)
    timid = sums.get_or_create(2)
    timid.activate_emotion("frightened", 0.8)
    timid.activate_emotion("shy", 0.4)
    timid.set_sensibility("frightened", 0.9)
    sums.get_or_create(3)
    return sums if cls is SumRepository else cls.from_repository(sums)


def build_service(sums, **kwargs):
    service = RecommendationService(
        sums=sums, domain_profile=PROFILE, item_attributes=ITEM_ATTRIBUTES, **kwargs
    )
    service.register("base", lambda model, item: 0.5 + 0.1 * model.user_id)
    return service


class ScoreExhaustedBudget:
    """Survives the resolve check, reads expired at the score gate."""

    @classmethod
    def from_timeout(cls, seconds):
        return cls()

    def check(self, stage):
        if stage == "score":
            raise DeadlineExceeded(stage, 0.001)

    def expired(self):
        return True


class Counted:
    """A service over a cache whose SUM reads and boost kernels are counted."""

    def __init__(self, monkeypatch):
        self.registry = MetricsRegistry()
        cache = SumCache(populate(ColumnarSumStore))
        self.service = build_service(cache, telemetry=self.registry)
        self.batches = self.boosts = 0
        batch, boosts_matrix = cache.batch, AdviceEngine.boosts_matrix

        def counted_batch(*args, **kwargs):
            self.batches += 1
            return batch(*args, **kwargs)

        def counted_boosts(*args, **kwargs):
            self.boosts += 1
            return boosts_matrix(*args, **kwargs)

        monkeypatch.setattr(cache, "batch", counted_batch)
        monkeypatch.setattr(AdviceEngine, "boosts_matrix", counted_boosts)

    def counts(self):
        return self.batches, self.boosts


@pytest.fixture
def counted(monkeypatch):
    return Counted(monkeypatch)


def assert_base_ranking(response):
    ranked = response.ranked
    assert len(ranked)
    assert ranked.multiplier.tolist() == [1.0] * len(ranked)
    assert ranked.adjusted.tobytes() == ranked.base.tobytes()
    assert response.degraded is False
    assert response.trace_id is not None


class TestAttributeFreeRequestsReadNoSum:
    def test_select_users(self, counted):
        service = counted.service
        carrying = service.select_users(SelectionRequest(item=CARRYING))
        assert counted.counts() == (1, 1)
        for item in (PLAIN, STRANGER):
            for user_ids in (None, [3, 1]):
                response = service.select_users(
                    SelectionRequest(item=item, user_ids=user_ids)
                )
                assert_base_ranking(response)
                assert response.sum_version == carrying.sum_version
                assert response.generation == carrying.generation
                # ties broken by id, as everywhere: the base ranking
                assert response.ranked.ids == sorted(user_ids or USER_IDS, reverse=True)
        assert counted.counts() == (1, 1)
        selects = counted.registry.snapshot().as_dict()[
            labelled("serving.requests", kind="select")
        ]
        assert selects["value"] == 5

    def test_recommend(self, counted):
        service = counted.service
        items = [PLAIN, STRANGER]
        carrying = service.recommend(
            RecommendationRequest(user_id=1, items=[PLAIN, CARRYING])
        )
        assert carrying.ranked.multiplier.tolist() != [1.0, 1.0]
        assert counted.counts() == (1, 1)
        response = service.recommend(RecommendationRequest(user_id=1, items=items))
        assert_base_ranking(response)
        assert response.sum_version == carrying.sum_version == service.sums.version(1)
        assert response.generation == carrying.generation
        assert counted.counts() == (1, 1)

    def test_score_matrix(self, counted):
        service = counted.service
        users = np.array(USER_IDS)
        free = service.score_matrix(users, [PLAIN, STRANGER, PLAIN])
        assert counted.counts() == (0, 0)
        assert free.tobytes() == service.score_matrix(
            users, [PLAIN, STRANGER, PLAIN], adjust=False
        ).tobytes()
        mixed = service.score_matrix(users, [PLAIN, CARRYING])
        assert counted.counts() == (1, 1)
        assert mixed[:, 0].tolist() == free[:, 0].tolist()
        assert mixed[0, 1] != service.score_matrix(users, [CARRYING], adjust=False)[0, 0]

    def test_a_new_table_or_profile_rederives_the_active_columns(self, counted):
        service = counted.service
        request = SelectionRequest(item=PLAIN)
        before = service.select_users(request)
        assert counted.counts() == (0, 0)
        service.item_attributes = {**ITEM_ATTRIBUTES, PLAIN: {"innovative": 0.5}}
        after = service.select_users(request)
        assert counted.counts() == (1, 1)
        keen = after.ranked.ids.index(1)
        assert after.ranked.multiplier[keen] > 1.0
        assert sorted(after.ranked.base.tolist()) == sorted(before.ranked.base.tolist())
        # a profile that no longer links the attribute: nothing to read again
        service.domain_profile = DomainProfile("bare", {"shy": {"supportive": 0.4}})
        assert_base_ranking(service.select_users(request))
        assert counted.counts() == (1, 1)
        service.domain_profile = PROFILE
        assert service.select_users(request).ranked == after.ranked
        assert counted.counts() == (2, 2)


def test_a_select_between_two_scans_leaves_the_catalog_interned(counted, monkeypatch):
    service = counted.service
    catalog = sorted(ITEM_ATTRIBUTES)
    universes = []
    intern = ItemTable.intern

    def recording(table, items):
        universes.append(intern(table, items))
        return universes[-1]

    monkeypatch.setattr(ItemTable, "intern", recording)
    service.recommend(RecommendationRequest(user_id=1, items=catalog))
    service.select_users(SelectionRequest(item=CARRYING))
    service.recommend(RecommendationRequest(user_id=2, items=list(catalog)))
    scan, select, rescan = universes
    assert rescan is scan and select == [CARRYING]
    assert select.presence.tolist() == scan.presence[catalog.index(CARRYING):][:1].tolist()
    assert not select.presence.flags.writeable


@pytest.mark.parametrize("resolver", ["repository", "cache"])
class TestContractParityOnEveryBackend:
    UNKNOWN = [41, 2, 40, 43]  # 41, 40, 43 unknown, spread over shards

    def service(self, sum_backend_cls, resolver, **kwargs):
        sums = populate(sum_backend_cls)
        return build_service(SumCache(sums) if resolver == "cache" else sums, **kwargs)

    @pytest.mark.parametrize("adjust", [True, False])
    def test_unknown_users_raise_one_error_naming_them_all(
        self, sum_backend_cls, resolver, adjust
    ):
        service = self.service(sum_backend_cls, resolver)
        for item in (PLAIN, CARRYING):
            with pytest.raises(UnknownUserError) as excinfo:
                service.select_users(
                    SelectionRequest(item=item, user_ids=self.UNKNOWN, adjust=adjust)
                )
            assert excinfo.value.user_ids == (41, 40, 43)
            assert 41 not in service.sums

    @pytest.mark.parametrize("adjust", [True, False])
    def test_create_missing_creates_them(self, sum_backend_cls, resolver, adjust):
        service = self.service(sum_backend_cls, resolver, create_missing=True)
        response = service.select_users(
            SelectionRequest(item=PLAIN, user_ids=self.UNKNOWN, adjust=adjust)
        )
        assert sorted(response.ranked.ids) == sorted(self.UNKNOWN)
        assert all(uid in service.sums for uid in self.UNKNOWN)
        assert response.ranked.multiplier.tolist() == [1.0] * 4

    def test_adjusting_or_not_is_the_same_answer(self, sum_backend_cls, resolver):
        service = self.service(sum_backend_cls, resolver)
        for user_ids in (None, [2, 3]):
            asked = service.select_users(SelectionRequest(item=PLAIN, user_ids=user_ids))
            plain = service.select_users(
                SelectionRequest(item=PLAIN, user_ids=user_ids, adjust=False)
            )
            assert asked.ranked == plain.ranked
        asked = service.recommend(RecommendationRequest(user_id=2, items=[PLAIN]))
        plain = service.recommend(
            RecommendationRequest(user_id=2, items=[PLAIN], adjust=False)
        )
        assert asked.ranked == plain.ranked


class TestDeadlineOnAnAttributeFreeItem:
    """The post-score check fires for every request that *asked* for
    adjustment, whether or not its items have an active column."""

    def test_partial_ok_degrades(self, counted, monkeypatch):
        monkeypatch.setattr(service_module, "Budget", ScoreExhaustedBudget)
        response = counted.service.select_users(
            SelectionRequest(item=PLAIN, deadline_s=60.0, partial_ok=True)
        )
        assert response.degraded is True
        assert response.ranked.multiplier.tolist() == [1.0] * len(USER_IDS)
        snapshot = counted.registry.snapshot().as_dict()
        assert snapshot["serving.degraded"]["value"] == 1
        assert counted.counts() == (0, 0)

    def test_without_partial_ok_it_aborts_at_score(self, counted, monkeypatch):
        monkeypatch.setattr(service_module, "Budget", ScoreExhaustedBudget)
        with pytest.raises(DeadlineExceeded) as excinfo:
            counted.service.select_users(SelectionRequest(item=PLAIN, deadline_s=60.0))
        assert excinfo.value.stage == "score"
        snapshot = counted.registry.snapshot().as_dict()
        key = labelled("serving.deadline_exceeded", stage="score")
        assert snapshot[key]["value"] == 1

    def test_not_asking_for_adjustment_never_reaches_the_check(self, counted, monkeypatch):
        monkeypatch.setattr(service_module, "Budget", ScoreExhaustedBudget)
        response = counted.service.select_users(
            SelectionRequest(item=PLAIN, deadline_s=60.0, adjust=False)
        )
        assert response.degraded is False


class TestUserIdsAreInternedOncePerSelection:
    class Recording:
        """A batch scorer that keeps what it was handed."""

        def __init__(self):
            self.seen = []

        def score_batch(self, user_ids, items):
            self.seen.append(user_ids)
            return np.asarray(user_ids, dtype=np.int64)[:, None] * np.ones(len(items))

    def test_the_scorer_and_the_ranking_share_one_translation(self):
        service = build_service(populate(ColumnarSumStore))
        scorer = self.Recording()
        service.register("rec", scorer, default=True)
        requests = (
            SelectionRequest(item=PLAIN),
            SelectionRequest(item=CARRYING, user_ids=np.array([3, 1])),
            SelectionRequest(item=PLAIN, user_ids=(2.0, np.int64(3))),
        )
        for request in requests:
            response = service.select_users(request)
            users = scorer.seen[-1]
            assert isinstance(users, InternedIds)  # a select-all's: its Population
            assert [type(uid) for uid in users] == [int] * len(users)
            # int64 for free: the scorer's conversion is the vector itself
            assert np.asarray(users, dtype=np.int64) is users.vector
            assert response.ranked.ids == sorted(users, reverse=True)
        service.score_matrix(np.array([1, 2]), [PLAIN])
        assert type(scorer.seen[-1]) is InternedIds and scorer.seen[-1] == [1, 2]

    def test_ids_past_64_bits_rank_on_the_python_route(self):
        class Flat:
            def score_batch(self, user_ids, items):
                return np.full((len(user_ids), len(items)), 0.5)

        service = RecommendationService()
        service.register("flat", Flat())
        huge = 2 ** 70
        response = service.select_users(SelectionRequest(item="x", user_ids=[huge, 5]))
        assert response.ranked.ids == [5, huge]

"""RecommendationService: registry, both paper functions, k validation."""

import numpy as np
import pytest

from repro.cf.content import ContentBasedRecommender
from repro.cf.mf import FunkSVD
from repro.cf.neighborhood import ItemKNN, UserKNN
from repro.cf.popularity import PopularityRecommender
from repro.cf.ratings import RatingMatrix
from repro.core.advice import AdviceEngine, DomainProfile
from repro.core.sum_model import SumRepository
from repro.serving import (
    FunkSVDScorer,
    MatrixScorer,
    PopularityScorer,
    RecommendationRequest,
    RecommendationService,
    SelectionRequest,
    validate_k,
)


def make_profile():
    return DomainProfile(
        "training",
        {
            "enthusiastic": {"innovative": 0.8},
            "frightened": {"challenging": -0.6, "supportive": 0.5},
        },
    )


ITEM_ATTRIBUTES = {
    "course-innovative": {"innovative": 1.0},
    "course-challenging": {"challenging": 1.0},
    "course-supportive": {"supportive": 0.8},
    "course-plain": {},
}
ITEMS = sorted(ITEM_ATTRIBUTES)


@pytest.fixture()
def repo():
    repo = SumRepository()
    keen = repo.get_or_create(1)
    keen.activate_emotion("enthusiastic", 1.0)
    keen.set_sensibility("enthusiastic", 1.0)
    timid = repo.get_or_create(2)
    timid.activate_emotion("frightened", 1.0)
    timid.set_sensibility("frightened", 1.0)
    repo.get_or_create(3)
    return repo


@pytest.fixture()
def service(repo):
    service = RecommendationService(
        sums=repo,
        domain_profile=make_profile(),
        item_attributes=ITEM_ATTRIBUTES,
    )
    service.register("base", lambda model, item: 0.5)
    return service


class TestRegistry:
    def test_first_registration_is_default(self, service):
        service.register("other", lambda model, item: 1.0)
        assert service.scorer() is service.scorer("base")

    def test_default_flag_overrides(self, service):
        other = service.register(
            "other", lambda model, item: 1.0, default=True
        )
        assert service.scorer() is other

    def test_unknown_scorer_lists_registered(self, service):
        with pytest.raises(KeyError, match="base"):
            service.scorer("nope")

    def test_empty_registry_raises(self):
        with pytest.raises(KeyError):
            RecommendationService().scorer()

    def test_contains_and_len(self, service):
        assert "base" in service and len(service) == 1
        assert "nope" not in service

    def test_invalid_name_rejected(self, service):
        with pytest.raises(ValueError):
            service.register("", lambda model, item: 1.0)


class TestRecommend:
    def test_enthusiastic_user_gets_innovative_first(self, service):
        response = service.recommend(
            RecommendationRequest(user_id=1, items=ITEMS, k=2)
        )
        assert response.items[0] == "course-innovative"
        assert response.scorer == "base"
        assert len(response.ranked) == 2

    def test_frightened_user_avoids_challenging(self, service):
        response = service.recommend(
            RecommendationRequest(user_id=2, items=ITEMS, k=len(ITEMS))
        )
        assert response.items[-1] == "course-challenging"

    def test_breakdown_is_consistent(self, service):
        response = service.recommend(
            RecommendationRequest(user_id=1, items=ITEMS, k=len(ITEMS))
        )
        for entry in response.ranked:
            assert entry.adjusted_score == pytest.approx(
                entry.base_score * entry.multiplier
            )

    def test_adjust_false_keeps_base(self, service):
        response = service.recommend(
            RecommendationRequest(user_id=1, items=ITEMS, k=3, adjust=False)
        )
        for entry in response.ranked:
            assert entry.multiplier == 1.0
            assert entry.adjusted_score == entry.base_score

    def test_best_property(self, service):
        response = service.recommend(
            RecommendationRequest(user_id=1, items=ITEMS, k=1)
        )
        assert response.best is response.ranked[0]

    def test_no_profile_means_no_adjustment(self, repo):
        service = RecommendationService(sums=repo)
        service.register("base", lambda model, item: 0.5)
        response = service.recommend(
            RecommendationRequest(user_id=1, items=ITEMS, k=2)
        )
        assert all(e.multiplier == 1.0 for e in response.ranked)


class TestSelectUsers:
    def test_ranks_by_adjusted_score(self, service):
        response = service.select_users(
            SelectionRequest(item="course-innovative")
        )
        assert response.ranked[0].user_id == 1
        assert (
            response.ranked[0].adjusted_score
            > response.ranked[1].adjusted_score
        )

    def test_all_users_when_ids_omitted(self, service, repo):
        response = service.select_users(
            SelectionRequest(item="course-plain")
        )
        assert sorted(e.user_id for e in response.ranked) == repo.user_ids()

    def test_k_truncates(self, service):
        response = service.select_users(
            SelectionRequest(item="course-innovative", k=2)
        )
        assert len(response.ranked) == 2

    def test_pairs_view(self, service):
        response = service.select_users(
            SelectionRequest(item="course-innovative", k=1)
        )
        assert response.pairs() == [
            (response.ranked[0].user_id, response.ranked[0].adjusted_score)
        ]

    def test_explicit_user_ids(self, service):
        response = service.select_users(
            SelectionRequest(item="course-innovative", user_ids=[2, 3])
        )
        assert {e.user_id for e in response.ranked} == {2, 3}

    def test_no_sums_and_no_ids_raises(self):
        service = RecommendationService()
        service.register("m", MatrixScorer(np.zeros((1, 1)), [1], ["a"]))
        with pytest.raises(RuntimeError):
            service.select_users(SelectionRequest(item="a"))


class TestUniformKValidation:
    @pytest.mark.parametrize("k", [0, -1, -100])
    def test_recommendation_request_rejects(self, k):
        with pytest.raises(ValueError):
            RecommendationRequest(user_id=1, items=ITEMS, k=k)

    @pytest.mark.parametrize("k", [0, -1, -100])
    def test_selection_request_rejects(self, k):
        with pytest.raises(ValueError):
            SelectionRequest(item="a", k=k)

    def test_selection_request_allows_none(self):
        assert SelectionRequest(item="a").k is None

    def test_recommendation_request_rejects_none(self):
        with pytest.raises(ValueError):
            RecommendationRequest(user_id=1, items=ITEMS, k=None)

    def test_non_int_rejected(self):
        with pytest.raises(TypeError):
            validate_k(2.5)
        with pytest.raises(TypeError):
            validate_k(True)

    def test_numpy_integers_accepted(self, service):
        assert validate_k(np.int64(3)) == 3
        response = service.recommend(
            RecommendationRequest(user_id=1, items=ITEMS, k=np.int64(2))
        )
        assert len(response.ranked) == 2
        with pytest.raises(TypeError):
            validate_k(np.float64(2.0))

    def test_empty_items_rejected(self):
        with pytest.raises(ValueError):
            RecommendationRequest(user_id=1, items=[], k=1)


class TestLegacyEquivalence:
    """The seed's per-pair algorithm and its callable scorers, served."""

    def seed_reference(self, advice, profile, base_scorer, model, items, k):
        """The seed's per-pair algorithm, reimplemented verbatim."""
        base_scores = {item: float(base_scorer(model, item)) for item in items}
        adjusted = advice.adjust_scores(
            base_scores, ITEM_ATTRIBUTES, model, profile
        )
        ranked = sorted(items, key=lambda it: (-adjusted[it], it))
        return ranked[:k]

    def test_service_matches_seed_algorithm(self, service, repo):
        advice = AdviceEngine()
        for uid in repo.user_ids():
            expected = self.seed_reference(
                advice, make_profile(), lambda m, i: 0.5,
                repo.get(uid), ITEMS, 3,
            )
            response = service.recommend(
                RecommendationRequest(user_id=uid, items=ITEMS, k=3)
            )
            assert response.items == expected

    @pytest.mark.parametrize("item", ["course-plain", "course-innovative"])
    def test_callable_scorer_select_names_every_unknown_user(self, service, item):
        # attribute-free or not, a select over a callable scorer reads
        # through one resolver call that names every unknown id at once
        from repro.serving import UnknownUserError

        with pytest.raises(UnknownUserError) as excinfo:
            service.select_users(
                SelectionRequest(item=item, user_ids=[1, 404, 405])
            )
        assert excinfo.value.user_ids == (404, 405)


class TestFiveScorerFamilies:
    """Both paper functions through >= 5 adapter-backed scorer families."""

    @pytest.fixture()
    def cf_world(self):
        rng = np.random.default_rng(7)
        triplets = []
        for user in range(1, 16):
            for item in rng.choice(30, size=10, replace=False):
                triplets.append((user, int(item), float(rng.integers(1, 6))))
        ratings = RatingMatrix(triplets)
        features = {item: rng.uniform(size=5) for item in range(30)}
        return ratings, features

    def test_service_serves_both_functions_per_scorer(self, cf_world):
        ratings, features = cf_world
        repo = SumRepository()
        for uid in ratings.user_ids:
            repo.get_or_create(uid)
        service = RecommendationService(sums=repo)
        service.register(
            "funk_svd",
            FunkSVDScorer(FunkSVD(rank=4, epochs=3, seed=0).fit(ratings)),
        )
        service.register(
            "popularity",
            PopularityScorer(PopularityRecommender().fit(ratings)),
        )
        service.register("item_knn", ItemKNN(k=5).fit(ratings))
        service.register("user_knn", UserKNN(k=5).fit(ratings))
        service.register(
            "content",
            ContentBasedRecommender(features).fit(ratings),
        )
        service.register("legacy", lambda model, item: model.user_id + item)
        assert len(service) >= 6

        items = list(range(8))
        for name in service.scorer_names():
            response = service.recommend(RecommendationRequest(
                user_id=3, items=items, k=3, scorer=name,
            ))
            assert len(response.ranked) == 3
            assert response.scorer == name
            selection = service.select_users(SelectionRequest(
                item=4, k=5, scorer=name,
            ))
            assert len(selection.ranked) == 5
            scores = [e.adjusted_score for e in selection.ranked]
            assert scores == sorted(scores, reverse=True)

    def test_score_matrix_shape(self, cf_world):
        ratings, __ = cf_world
        service = RecommendationService()
        service.register(
            "popularity",
            PopularityScorer(PopularityRecommender().fit(ratings)),
        )
        matrix = service.score_matrix([1, 2, 3], [0, 1], scorer="popularity")
        assert matrix.shape == (3, 2)


class TestEngineAndSpaIntegration:
    @pytest.fixture(scope="class")
    def spa(self):
        from repro import SimulatedWorld, SmartPredictionAssistant

        world = SimulatedWorld.generate(n_users=40, n_courses=10, seed=3)
        spa = SmartPredictionAssistant(world)
        spa.bootstrap(browsing_days=5.0)
        return spa

    def test_engine_service_registers_three_families(self, spa):
        service = spa.engine.recommendation_service()
        assert service.scorer_names() == [
            "propensity", "appeal", "engagement",
        ]
        assert service is spa.engine.recommendation_service()  # cached

    def test_propensity_requires_trained_model(self, spa):
        with pytest.raises(RuntimeError, match="no propensity model"):
            spa.recommend_courses(user_id=0, k=3)

    def test_recommend_courses_with_appeal(self, spa):
        response = spa.recommend_courses(user_id=0, k=3, scorer="appeal")
        assert len(response.ranked) == 3
        course_ids = set(spa.world.catalog.course_ids())
        assert all(entry.item in course_ids for entry in response.ranked)

    def test_select_users_for_course(self, spa):
        course_id = spa.world.catalog.course_ids()[0]
        response = spa.select_users_for(course_id, k=5, scorer="appeal")
        assert len(response.ranked) == 5
        scores = [entry.adjusted_score for entry in response.ranked]
        assert scores == sorted(scores, reverse=True)

    def test_emotional_adjustment_changes_ranking_inputs(self, spa):
        course_id = spa.world.catalog.course_ids()[0]
        adjusted = spa.select_users_for(course_id, scorer="appeal")
        raw = spa.select_users_for(course_id, scorer="appeal", adjust=False)
        assert any(entry.multiplier != 1.0 for entry in adjusted.ranked)
        assert all(entry.multiplier == 1.0 for entry in raw.ranked)


class TestFirstContactSemantics:
    """Unknown users in a batch: typed error vs opt-in auto-create."""

    def _service(self, sums, **kwargs):
        service = RecommendationService(
            sums=sums,
            domain_profile=make_profile(),
            item_attributes=ITEM_ATTRIBUTES,
            **kwargs,
        )
        service.register("base", lambda model, item: 0.5)
        return service

    def test_unknown_user_raises_typed_error_not_bare_keyerror(self, repo):
        from repro.serving import UnknownUserError

        service = self._service(repo)
        with pytest.raises(UnknownUserError) as excinfo:
            service.recommend(
                RecommendationRequest(user_id=404, items=ITEMS, k=2)
            )
        assert excinfo.value.user_ids == (404,)
        assert "404" in str(excinfo.value)

    def test_batch_error_names_every_offending_id(self, repo):
        from repro.serving import UnknownUserError

        service = self._service(repo)
        with pytest.raises(UnknownUserError) as excinfo:
            service.select_users(
                SelectionRequest(
                    item="course-plain", user_ids=[1, 404, 2, 405]
                )
            )
        assert excinfo.value.user_ids == (404, 405)

    def test_unknown_user_error_is_still_a_keyerror(self, repo):
        service = self._service(repo)
        with pytest.raises(KeyError):
            service.recommend(
                RecommendationRequest(user_id=404, items=ITEMS, k=2)
            )

    def test_create_missing_matches_streaming_first_contact(self, repo):
        # opt-in: an unknown user gets an empty (neutral) SUM, like the
        # streaming path's get_or_create, and scores unadjusted
        service = self._service(repo, create_missing=True)
        response = service.recommend(
            RecommendationRequest(user_id=404, items=ITEMS, k=2)
        )
        assert all(entry.multiplier == 1.0 for entry in response.ranked)
        assert 404 in repo

    def test_columnar_store_raises_the_same_typed_error(self):
        from repro.core.sum_store import ColumnarSumStore
        from repro.serving import UnknownUserError

        seed = SumRepository()
        seed.get_or_create(1).activate_emotion("enthusiastic", 1.0)
        store = ColumnarSumStore.from_repository(seed)
        service = self._service(store)
        with pytest.raises(UnknownUserError) as excinfo:
            service.select_users(
                SelectionRequest(item="course-plain", user_ids=[1, 9, 10])
            )
        assert excinfo.value.user_ids == (9, 10)

    def test_columnar_create_missing(self):
        from repro.core.sum_store import ColumnarSumStore

        store = ColumnarSumStore()
        service = self._service(store, create_missing=True)
        response = service.recommend(
            RecommendationRequest(user_id=7, items=ITEMS, k=1)
        )
        assert response.user_id == 7 and 7 in store

    def test_adjust_false_still_validates_the_batch(self, repo):
        # The hole: with adjust=False the batch was never resolved, so
        # unknown ids leaked into scorers as untyped per-scorer KeyErrors
        # (or silent garbage scores).
        from repro.serving import UnknownUserError

        service = self._service(repo)
        with pytest.raises(UnknownUserError) as excinfo:
            service.select_users(
                SelectionRequest(
                    item="course-plain", user_ids=[1, 404, 2, 405],
                    adjust=False,
                )
            )
        assert excinfo.value.user_ids == (404, 405)
        with pytest.raises(UnknownUserError):
            service.recommend(
                RecommendationRequest(
                    user_id=404, items=ITEMS, k=1, adjust=False
                )
            )

    def test_profile_free_service_also_validates(self, repo):
        # No domain profile means the adjusting resolve never runs, so
        # this path fell through the same hole.
        from repro.serving import UnknownUserError

        service = RecommendationService(sums=repo)
        service.register("base", lambda model, item: 0.5)
        with pytest.raises(UnknownUserError) as excinfo:
            service.select_users(
                SelectionRequest(item="course-plain", user_ids=[404, 1])
            )
        assert excinfo.value.user_ids == (404,)

    def test_no_adjust_validation_materializes_no_models(self):
        # Membership checks only: the no-adjust path must not pay for
        # snapshot builds it will never read.
        from repro.core.sum_store import ColumnarSumStore
        from repro.obs.metrics import MetricsRegistry
        from repro.streaming.cache import SumCache

        seed = SumRepository()
        for uid in (1, 2):
            seed.get_or_create(uid).activate_emotion("enthusiastic", 0.5)
        store = ColumnarSumStore.from_repository(seed)
        telemetry = MetricsRegistry()
        cache = SumCache(store, telemetry=telemetry)
        service = RecommendationService(
            sums=cache,
            domain_profile=make_profile(),
            item_attributes=ITEM_ATTRIBUTES,
        )
        # a true batch scorer: nothing on this path needs per-user models
        service.register(
            "flat",
            MatrixScorer(np.ones((2, len(ITEMS))), [1, 2], ITEMS),
        )
        response = service.select_users(
            SelectionRequest(item="course-plain", user_ids=[1, 2], adjust=False)
        )
        assert len(response.ranked) == 2
        assert cache.cached_users == 0
        assert telemetry.counter("cache.captures").value == 0

    def test_create_missing_applies_on_the_no_adjust_path_too(self, repo):
        service = self._service(repo, create_missing=True)
        response = service.recommend(
            RecommendationRequest(user_id=777, items=ITEMS, k=1, adjust=False)
        )
        assert response.user_id == 777 and 777 in repo


class TestColumnarServingParity:
    """The service's adjusted grid is bit-equal across backends."""

    def test_score_matrix_identical_on_columnar_batch_path(self, repo):
        from repro.core.sum_store import ColumnarSumStore

        store = ColumnarSumStore.loads(repo.dumps())
        ids = repo.user_ids()

        def build(sums):
            service = RecommendationService(
                sums=sums,
                domain_profile=make_profile(),
                item_attributes=ITEM_ATTRIBUTES,
            )
            service.register(
                "base", lambda model, item: float(model.user_id) + len(str(item))
            )
            return service

        expected = build(repo).score_matrix(ids, ITEMS)
        actual = build(store).score_matrix(ids, ITEMS)
        assert np.array_equal(expected, actual)


class TestServingTelemetry:
    """PR 7: request instruments, trace ids, and the null default."""

    def build(self, repo, **kwargs):
        service = RecommendationService(
            sums=repo,
            domain_profile=make_profile(),
            item_attributes=ITEM_ATTRIBUTES,
            **kwargs,
        )
        service.register("base", lambda model, item: 0.5)
        return service

    def test_default_service_stamps_no_trace_ids(self, repo):
        service = self.build(repo)
        response = service.recommend(
            RecommendationRequest(user_id=1, items=ITEMS, k=2)
        )
        assert response.trace_id is None
        assert len(service.tracer) == 0

    def test_enabled_telemetry_implies_tracing(self, repo):
        from repro.obs.metrics import MetricsRegistry, labelled
        from repro.obs.tracing import Tracer

        registry = MetricsRegistry()
        service = self.build(repo, telemetry=registry)
        assert isinstance(service.tracer, Tracer)  # auto-created

        response = service.recommend(
            RecommendationRequest(user_id=1, items=ITEMS, k=2)
        )
        assert response.trace_id is not None
        assert [s.name for s in service.tracer.trace(response.trace_id)] == [
            "serving.resolve", "serving.retrieve", "serving.score",
            "serving.advice", "serving.respond",
        ]
        selection = service.select_users(
            SelectionRequest(item="course-plain", user_ids=[1, 2, 3], k=2)
        )
        assert selection.trace_id not in (None, response.trace_id)

        snap = registry.snapshot()
        assert snap.value(labelled("serving.requests", kind="recommend")) == 1
        assert snap.value(labelled("serving.requests", kind="select")) == 1
        assert snap.histogram("serving.request_seconds").count == 2
        for stage in ("resolve", "retrieve", "score", "advice", "respond"):
            hist = snap.histogram(labelled("serving.stage_seconds", stage=stage))
            assert hist.count == 2

    def test_unknown_user_errors_are_counted(self, repo):
        from repro.core.sum_model import UnknownUserError
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        service = self.build(repo, telemetry=registry)
        with pytest.raises(UnknownUserError):
            service.recommend(
                RecommendationRequest(user_id=99, items=ITEMS, k=2)
            )
        assert registry.snapshot().value("serving.unknown_user_errors") == 1

"""Serving equivalence across the sum-backend × resolver matrix.

ISSUE 4's coverage satellite: the serving plane must produce *identical*
responses whether SUM state lives in the object repository or the
columnar store, and whether the service resolves models straight off the
repository or through the streaming cache's versioned frozen snapshots —
including while concurrent ``apply_batch_and_publish`` batches land.
"""

import threading

import pytest

from repro.core.advice import DomainProfile
from repro.core.reward import ReinforcementPolicy
from repro.core.sum_model import SumRepository
from repro.core.sum_store import ColumnarSumStore
from repro.core.updates import RewardOp
from repro.serving import (
    RecommendationRequest,
    RecommendationService,
    SelectionRequest,
)
from repro.streaming import StreamingUpdater
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
ITEMS = sorted(ITEM_ATTRIBUTES)
USER_IDS = (1, 2, 3)


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


def build_service(sums):
    service = RecommendationService(
        sums=sums,
        domain_profile=PROFILE,
        item_attributes=ITEM_ATTRIBUTES,
    )
    service.register(
        "base", lambda model, item: 0.5 + 0.1 * model.user_id
    )
    return service


@pytest.fixture
def reference_service():
    return build_service(populate(SumRepository))


@pytest.mark.parametrize("resolver", ["repository", "cache"])
def test_responses_identical_across_matrix(
    sum_backend_cls, resolver, reference_service
):
    sums = populate(sum_backend_cls)
    service = build_service(SumCache(sums) if resolver == "cache" else sums)
    for uid in USER_IDS:
        expected = reference_service.recommend(
            RecommendationRequest(user_id=uid, items=ITEMS, k=len(ITEMS))
        )
        actual = service.recommend(
            RecommendationRequest(user_id=uid, items=ITEMS, k=len(ITEMS))
        )
        assert actual.items == expected.items
        for got, want in zip(actual.ranked, expected.ranked):
            # bit-equal, not approximately equal: every leg of the matrix
            # runs the same IEEE arithmetic
            assert got.base_score == want.base_score
            assert got.multiplier == want.multiplier
            assert got.adjusted_score == want.adjusted_score
    expected = reference_service.select_users(SelectionRequest(item=ITEMS[0]))
    actual = service.select_users(SelectionRequest(item=ITEMS[0]))
    assert actual.pairs() == expected.pairs()


@pytest.mark.parametrize("resolver", ["repository", "cache"])
def test_no_adjust_responses_identical_across_matrix(
    sum_backend_cls, resolver, reference_service
):
    sums = populate(sum_backend_cls)
    service = build_service(SumCache(sums) if resolver == "cache" else sums)
    expected = reference_service.select_users(
        SelectionRequest(item=ITEMS[0], adjust=False)
    )
    actual = service.select_users(SelectionRequest(item=ITEMS[0], adjust=False))
    assert actual.pairs() == expected.pairs()


def test_streamed_state_serves_identically_through_cache_and_store(
    sum_backend_cls,
):
    """Streaming writes, then serving: cache reads == direct store reads."""
    from repro.datagen.catalog import CourseCatalog
    from repro.lifelog.events import ActionCategory, Event

    catalog = CourseCatalog.generate(20, seed=7)
    course_id = next(
        cid for cid, emotions in sorted(catalog.emotion_links().items())
        if emotions
    )
    sums = sum_backend_cls()
    for uid in USER_IDS:
        sums.get_or_create(uid)
    updater = StreamingUpdater(
        sums, catalog.emotion_links(), n_shards=2, batch_max=32
    )
    events = [
        Event(
            timestamp=1_000.0 + i, user_id=1, action="course_enroll",
            category=ActionCategory.ENROLLMENT,
            payload={"target": str(course_id)},
        )
        for i in range(30)
    ]
    with updater:
        updater.submit_many(events)
        assert updater.drain(timeout=30.0)

    item_attributes = {
        cid: dict(catalog.get(cid).attributes) for cid in catalog.course_ids()
    }
    from repro.datagen.catalog import AFFINITY_LINKS

    def serve(resolver):
        service = RecommendationService(
            sums=resolver,
            domain_profile=DomainProfile("courses", AFFINITY_LINKS),
            item_attributes=item_attributes,
        )
        service.register("flat", lambda model, item: 1.0)
        return service.recommend(RecommendationRequest(
            user_id=1, items=catalog.course_ids(), k=5
        ))

    through_cache = serve(updater.cache)
    through_store = serve(sums)
    assert through_cache.items == through_store.items
    assert [e.adjusted_score for e in through_cache.ranked] == [
        e.adjusted_score for e in through_store.ranked
    ]
    assert any(e.multiplier != 1.0 for e in through_cache.ranked)


def test_serving_over_live_cache_does_no_object_rebuilds(monkeypatch):
    """The acceptance assertion: recommend/select_users over a live
    columnar SumCache resolve through FrozenSumBatch column slices —
    zero ``to_dict``/``from_dict`` rebuilds anywhere on the read path."""
    from repro.core.sum_model import SmartUserModel
    from repro.core.sum_store import FrozenSumBatch

    store = populate(ColumnarSumStore)
    cache = SumCache(store)
    service = RecommendationService(
        sums=cache,
        domain_profile=PROFILE,
        item_attributes=ITEM_ATTRIBUTES,
    )

    class Ones:
        def score_batch(self, user_ids, items):
            import numpy as np

            return np.ones((len(user_ids), len(items)))

    service.register("flat", Ones())
    # a publish lands first, so reads exercise the refresh-then-slice path
    cache.apply_batch_and_publish(
        [(1, (RewardOp(("enthusiastic",), 0.5),))], ReinforcementPolicy()
    )
    cache.mark_batch()

    def boom(*args, **kwargs):  # pragma: no cover - failure path
        raise AssertionError("object rebuild on the serving read path")

    monkeypatch.setattr(SmartUserModel, "to_dict", boom)
    monkeypatch.setattr(SmartUserModel, "from_dict", boom)
    assert isinstance(service._resolve_models(list(USER_IDS)), FrozenSumBatch)
    response = service.recommend(
        RecommendationRequest(user_id=1, items=ITEMS, k=3)
    )
    assert response.sum_version == 1
    selection = service.select_users(SelectionRequest(item=ITEMS[0]))
    assert len(selection.ranked) == len(USER_IDS)
    assert cache.cached_users == 0  # no per-user snapshots materialized


def test_versions_monotonic_under_concurrent_batch_publishes():
    """sum_version and batch version stamps never go backwards while a
    writer streams ``apply_batch_and_publish`` batches concurrently."""
    store = populate(ColumnarSumStore)
    cache = SumCache(store)
    service = build_service(cache)
    policy = ReinforcementPolicy()
    stop = threading.Event()
    failures = []

    def writer():
        try:
            while not stop.is_set():
                cache.apply_batch_and_publish(
                    [
                        (1, (RewardOp(("enthusiastic",), 0.3),)),
                        (2, (RewardOp(("shy",), 0.2),)),
                    ],
                    policy,
                )
                cache.mark_batch()
        except Exception as exc:  # pragma: no cover - failure path
            failures.append(exc)

    thread = threading.Thread(target=writer)
    thread.start()
    try:
        floors: dict[int, int] = {}
        served = []
        for __ in range(100):
            batch = cache.batch(list(USER_IDS))
            for uid, version in batch.versions.items():
                assert version >= floors.get(uid, 0)
                floors[uid] = version
            response = service.recommend(
                RecommendationRequest(user_id=1, items=ITEMS, k=2)
            )
            served.append(response.sum_version)
    finally:
        stop.set()
        thread.join(timeout=10.0)
    assert not failures
    assert served == sorted(served)  # per-user freshness floor is monotone
    assert floors[3] == 0  # untouched user never bumps
    assert floors[1] >= 1  # the writer demonstrably landed batches

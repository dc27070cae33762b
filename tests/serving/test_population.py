"""Select-all ranks a population interned once per row set.

Every SUM resolver's ``population()`` is its users, sorted, as one
:class:`~repro.core.interned.Population` — an ``InternedIds`` that also
carries the ids' row addresses — handed out again until the row set
moves.  These tests hold it to the path it replaced (``InternedIds`` over
the sorted ids, interned per request): the same ranking cell for cell,
one object per row set, a new one once a user appears however they
appear, and never a population missing a user whose creation returned
before the request began.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.core.advice import DomainProfile
from repro.core.interned import InternedIds, Population
from repro.core.reward import ReinforcementPolicy
from repro.core.shm_store import MultiProcSumStore
from repro.core.sum_model import SumRepository
from repro.core.updates import RewardOp
from repro.lifelog.events import ActionCategory, Event
from repro.serving import RecommendationService, SelectionRequest
from repro.streaming import StreamingUpdater
from repro.streaming.cache import SumCache
from repro.streaming.procplane import MultiProcUpdater

PROFILE = DomainProfile(
    "training",
    {
        "enthusiastic": {"innovative": 0.8},
        "frightened": {"challenging": -0.6, "supportive": 0.5},
        "shy": {"supportive": 0.4},
    },
)
CARRYING = "course-carrying"
PLAIN = "course-plain"
ITEM_ATTRIBUTES = {CARRYING: {"innovative": 1.0, "supportive": 0.5}, PLAIN: {}}
ITEM_EMOTIONS = {"10": ("enthusiastic", "shy")}
N_USERS = 300


class ByUser:
    """A batch scorer with a tie-heavy base score per user; keeps what
    it was handed."""

    def __init__(self):
        self.seen = []

    def score_batch(self, user_ids, items):
        self.seen.append(user_ids)
        ids = np.asarray(user_ids, dtype=np.int64)
        return ((ids * 7919 % 101) / 101.0 + 0.01)[:, None] * np.ones(len(items))


class Flat:
    def score_batch(self, user_ids, items):
        return np.full((len(user_ids), len(items)), 0.5)


def build_service(sums, scorer):
    service = RecommendationService(
        sums=sums, domain_profile=PROFILE, item_attributes=ITEM_ATTRIBUTES
    )
    service.register("s", scorer)
    return service


def close(store):
    if isinstance(store, MultiProcSumStore):
        store.close()


@pytest.fixture(params=["bare", "cached"])
def world(request, sum_backend_cls):
    """``(store, resolver)``: ``N_USERS`` users created in shuffled id
    order (rows are not id order), most of them with emotional state;
    the resolver is the store or a ``SumCache`` over it."""
    seed = SumRepository()
    rng = np.random.default_rng(5)
    order = rng.choice(10_000, size=N_USERS, replace=False).tolist()
    for uid in order:
        model = seed.get_or_create(uid)
        if rng.random() < 0.8:
            model.activate_emotion("enthusiastic", float(rng.random()))
            model.activate_emotion("frightened", float(rng.random()))
            model.set_sensibility("shy", float(rng.random()))
    store = (
        seed if sum_backend_cls is SumRepository
        else sum_backend_cls.from_repository(map(seed.get, order))
    )
    try:
        yield store, (store if request.param == "bare" else SumCache(store))
    finally:
        close(store)


def enrollments(user_ids):
    return [
        Event(
            timestamp=1_000.0 + i, user_id=uid, action="course_enroll",
            category=ActionCategory.ENROLLMENT, payload={"target": "10"},
        )
        for i, uid in enumerate(user_ids)
    ]


@pytest.mark.parametrize("k", [None, 100])
@pytest.mark.parametrize("item", [CARRYING, PLAIN])
def test_select_all_ranks_as_the_sorted_interned_path(world, monkeypatch, item, k):
    __, resolver = world
    service = build_service(resolver, ByUser())
    new = service.select_users(SelectionRequest(item=item, k=k))
    # the path it replaced: the sorted ids, interned afresh per request
    ids = sorted(resolver.user_ids())
    monkeypatch.setattr(resolver, "population", lambda: InternedIds(ids))
    old = service.select_users(SelectionRequest(item=item, k=k))
    assert len(new.ranked) == (N_USERS if k is None else k)
    assert new.ranked.ids == old.ranked.ids
    for column in ("base", "multiplier", "adjusted"):
        assert getattr(new.ranked, column).tobytes() == getattr(old.ranked, column).tobytes()
    moved = new.ranked.multiplier != 1.0
    assert moved.any() if item == CARRYING else not moved.any()


def test_requests_share_one_population_until_the_row_set_moves(world):
    store, resolver = world
    scorer = ByUser()
    service = build_service(resolver, scorer)
    for item in (PLAIN, CARRYING, PLAIN):
        service.select_users(SelectionRequest(item=item))
    first = scorer.seen[0]
    assert isinstance(first, Population)
    assert all(seen is first for seen in scorer.seen)
    assert list(first) == sorted(first) and len(first) == N_USERS
    # writes to existing users leave the row set, and the object, alone
    store.batch_apply_ops(
        [(uid, (RewardOp(("shy",)),)) for uid in first[:5]], ReinforcementPolicy()
    )
    assert resolver.population() is first
    assert resolver.user_ids() == list(first)


def test_a_new_user_makes_a_new_population(world):
    store, resolver = world
    before = resolver.population()
    resolver.get_or_create(20_001)
    after = resolver.population()
    assert after is not before and 20_001 in after
    assert list(after) == sorted([*before, 20_001])
    batch = getattr(resolver, "batch", None)
    if batch is not None:  # columnar backends, bare or cached
        batch([20_002, 20_001], create=True)
        assert list(resolver.population()) == sorted([*after, 20_002])


def test_streamed_first_contact_makes_a_new_population(world):
    store, __ = world
    updater = StreamingUpdater(store, ITEM_EMOTIONS, n_shards=2, batch_max=16)
    before = updater.cache.population()
    with updater:
        updater.submit_many(enrollments([30_001, 30_002, 30_001]))
        assert updater.drain()
    after = updater.cache.population()
    assert after is not before
    assert list(after) == sorted([*before, 30_001, 30_002])
    assert updater.cache.population() is after


def test_a_process_plane_barrier_adopts_worker_created_rows():
    store = MultiProcSumStore(n_shards=2)
    try:
        for uid in range(10):
            store.get_or_create(uid)
        cache = SumCache(store)
        service = build_service(cache, Flat())
        before = cache.population()
        updater = MultiProcUpdater(store, ITEM_EMOTIONS, cache=cache, chunk=8)
        with updater:
            updater.submit_many(enrollments([40_001, 3, 40_002, 40_003]))
            assert updater.drain()
            after = cache.population()
            assert after is not before
            assert list(after) == [*range(10), 40_001, 40_002, 40_003]
            response = service.select_users(SelectionRequest(item=PLAIN))
            assert response.ranked.ids == list(after)  # flat scores: id order
            carrying = service.select_users(SelectionRequest(item=CARRYING))
            assert sorted(carrying.ranked.ids) == list(after)
            assert cache.population() is after
    finally:
        store.close()


@pytest.mark.parametrize("k", [None, 5])
def test_an_empty_store_selects_nobody(sum_backend_cls, k):
    store = sum_backend_cls()
    try:
        for resolver in (store, SumCache(store)):
            assert len(resolver.population()) == 0
            service = build_service(resolver, ByUser())
            for item in (CARRYING, PLAIN):
                response = service.select_users(SelectionRequest(item=item, k=k))
                assert len(response.ranked) == 0 and response.ranked.ids == []
    finally:
        close(store)


def test_select_all_under_concurrent_creation(sum_backend_cls):
    """Two writer threads create users (three threads on a two-core
    host) while select-all runs in a loop.  Every ranking holds every
    user whose creation returned before the request began, only users
    the store has, in strictly ascending order (flat scores tie, and
    ties rank by id)."""
    store = sum_backend_cls()
    service = build_service(store, Flat())
    order = np.random.default_rng(11).permutation(3_000).tolist()
    created: list[int] = []
    failures: list[BaseException] = []

    def write(user_ids):
        try:
            for uid in user_ids:
                store.get_or_create(uid)
                created.append(uid)
                time.sleep(1e-4)  # a quiet gap for a request to start in
        except BaseException as exc:  # pragma: no cover - surfaced below
            failures.append(exc)

    writers = [threading.Thread(target=write, args=(order[i::2],)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    requests = 0
    deadline = time.monotonic() + 60.0
    try:
        for writer in writers:
            writer.start()
        while any(w.is_alive() for w in writers) or requests < 3:
            assert time.monotonic() < deadline, "writers never finished"
            known = list(created)  # every creation that returned by now
            item = CARRYING if requests % 2 else PLAIN
            ids = service.select_users(SelectionRequest(item=item)).ranked.ids
            assert all(a < b for a, b in zip(ids, ids[1:]))
            assert set(known) <= set(ids), sorted(set(known) - set(ids))[:5]
            assert all(uid in store for uid in ids)
            requests += 1
    finally:
        sys.setswitchinterval(interval)
        for writer in writers:
            writer.join(timeout=30.0)
        close(store)
    assert not any(w.is_alive() for w in writers) and not failures
    assert len(created) == len(order) and requests > 3

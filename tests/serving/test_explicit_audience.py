"""Explicit-audience ``select_users``: one id translation, every backend.

The request's user ids are interned once, and the stores route the
interned ``int64`` vector without walking the ids again; ids that get no
vector (bools, integral floats) are coerced with ``int()`` as before.
Whatever the spelling and the backend, the ranking equals the one a
plain ``int`` list gets from the object store, unknown ids fail as one
error naming each of them in request order, and ``create_missing``
creates them.  The cache's version stamps are exact on both sides of
its copy-the-map crossover.
"""

import numpy as np
import pytest

from repro.core.advice import DomainProfile
from repro.core.sharded_store import ShardedSumStore
from repro.core.shm_store import MultiProcSumStore
from repro.core.sum_model import SumRepository, UnknownUserError
from repro.serving import RecommendationService, SelectionRequest
from repro.serving.scorer import ScorerBase
from repro.streaming.cache import _STAMP_COPY_DIVISOR, SumCache

PROFILE = DomainProfile(
    "training",
    {
        "enthusiastic": {"innovative": 0.8},
        "frightened": {"challenging": -0.6, "supportive": 0.5},
    },
)
ATTRIBUTES = {"course": {"innovative": 1.0, "supportive": 0.5}}
N_USERS = 12
AUDIENCE = [7, 0, 11, 3, 1, 8, 5, 10]  # request order, spread over shards

#: spelling -> (user_ids as sent, the ints they stand for)
SPELLINGS = {
    "ints": (AUDIENCE, AUDIENCE),
    "int64-array": (np.array(AUDIENCE, dtype=np.int64), AUDIENCE),
    "numpy-scalars": (
        [(np.int64, np.int32, np.uint16)[i % 3](u) for i, u in enumerate(AUDIENCE)],
        AUDIENCE,
    ),
    "bools": ([True, False], [1, 0]),
    "integral-floats": ([float(u) for u in AUDIENCE], AUDIENCE),
}


class LinearScorer(ScorerBase):
    """A base score per user that ties no two users."""

    def score_batch(self, user_ids, items):
        return np.array([[0.3 + 0.05 * int(uid)] * len(items) for uid in user_ids])


def populate(n_users=N_USERS):
    sums = SumRepository()
    for uid in range(n_users):
        model = sums.get_or_create(uid)
        model.activate_emotion("enthusiastic", 0.1 + 0.07 * uid)
        model.activate_emotion("frightened", 0.9 - 0.06 * uid)
    return sums


def serve(sums, resolver="store", create_missing=False):
    service = RecommendationService(
        sums=SumCache(sums) if resolver == "cache" else sums,
        domain_profile=PROFILE, item_attributes=ATTRIBUTES,
        create_missing=create_missing,
    )
    service.register("base", LinearScorer())
    return service


def cells(ranking):
    return (
        ranking.ids, ranking.base.tobytes(), ranking.multiplier.tobytes(),
        ranking.adjusted.tobytes(),
    )


def converted(sums, cls):
    return sums if cls is SumRepository else cls.from_repository(sums)


@pytest.fixture
def backend_store(sum_backend_cls):
    store = converted(populate(), sum_backend_cls)
    yield store
    if isinstance(store, MultiProcSumStore):
        store.close()


@pytest.fixture(
    params=[("sharded", 1), ("sharded", 2), ("sharded", 3), ("multiproc", 2), ("multiproc", 3)],
    ids=lambda p: f"{p[0]}-{p[1]}",
)
def partitioned(request):
    kind, n_shards = request.param
    cls = MultiProcSumStore if kind == "multiproc" else ShardedSumStore
    store = cls.from_repository(populate(), n_shards=n_shards)
    yield store
    if isinstance(store, MultiProcSumStore):
        store.close()


@pytest.mark.parametrize("resolver", ["store", "cache"])
@pytest.mark.parametrize("spelling", list(SPELLINGS))
@pytest.mark.parametrize("k", [None, 3])
def test_every_spelling_ranks_as_the_plain_int_list(backend_store, resolver, spelling, k):
    sent, ints = SPELLINGS[spelling]
    want = serve(populate()).select_users(
        SelectionRequest(item="course", user_ids=list(ints), k=k)
    )
    got = serve(backend_store, resolver).select_users(
        SelectionRequest(item="course", user_ids=sent, k=k)
    )
    assert cells(got.ranked) == cells(want.ranked)
    assert all(type(uid) is int for uid in got.ranked.ids)


@pytest.mark.parametrize("resolver", ["store", "cache"])
@pytest.mark.parametrize("adjust", [True, False])
@pytest.mark.parametrize("spelling", ["ints", "int64-array", "integral-floats"])
def test_unknown_ids_fail_as_one_error_in_request_order(partitioned, resolver, adjust, spelling):
    ints = [5, 100, 3, 103, 7, 101, 102]
    sent = {
        "ints": ints,
        "int64-array": np.array(ints, dtype=np.int64),
        "integral-floats": [float(u) for u in ints],
    }[spelling]
    service = serve(partitioned, resolver)
    with pytest.raises(UnknownUserError) as caught:
        service.select_users(SelectionRequest(item="course", user_ids=sent, adjust=adjust))
    assert caught.value.user_ids == (100, 103, 101, 102)
    assert not any(uid in partitioned for uid in (100, 101, 102, 103))


@pytest.mark.parametrize("resolver", ["store", "cache"])
@pytest.mark.parametrize("spelling", ["ints", "integral-floats"])
def test_create_missing_creates_the_unknown_ids(partitioned, resolver, spelling):
    ints = [5, 100, 3, 103, 7, 101, 102]
    sent = ints if spelling == "ints" else [float(u) for u in ints]
    service = serve(partitioned, resolver, create_missing=True)
    response = service.select_users(SelectionRequest(item="course", user_ids=sent))
    assert sorted(response.ranked.ids) == sorted(ints)
    assert all(uid in partitioned for uid in ints)
    # a created user carries no emotion: nothing moves its score
    created = [response.ranked[response.ranked.ids.index(uid)] for uid in (100, 101)]
    assert [entry.multiplier for entry in created] == [1.0, 1.0]


def test_batch_stamps_are_exact_on_both_sides_of_the_copy_crossover(sum_backend_cls):
    """Users 0-63 published a user-dependent number of times, 64-79
    never: a read below the crossover stamps per id, one at or above it
    copies the version map, and both stamp every user with
    ``cache.version``."""
    store = converted(populate(80), sum_backend_cls)
    try:
        cache = SumCache(store)
        for round_ in range(4):
            cache.invalidate(range(round_ * 16, 64))
        crossover = 64 // _STAMP_COPY_DIVISOR
        assert crossover >= 2
        mixed = [(7 * i) % 80 for i in range(80)]  # versioned and not
        for ids, copied in [
            (mixed[: crossover - 1], False), (mixed[:crossover], True), (mixed, True)
        ]:
            batch = cache.batch(ids)
            assert batch.versions == {uid: cache.version(uid) for uid in ids}
            assert len(batch.stamps) == (64 if copied else len(ids))
        assert [cache.version(uid) for uid in (0, 17, 50, 70)] == [1, 2, 4, 0]
    finally:
        if isinstance(store, MultiProcSumStore):
            store.close()

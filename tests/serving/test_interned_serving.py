"""The request path on interned ids: translated once, never re-walked.

Count, not time: after the first full-scan request over a catalog, no
later request for the same catalog turns a list of more than ``k`` ids
into an array again — and the scorers still see a sequence of Python
scalars that behaves like the list the caller sent.
"""

import json

import numpy as np

import repro.core.interned as interned_module
from repro.core.advice import DomainProfile
from repro.core.interned import InternedIds
from repro.core.sum_model import SumRepository
from repro.core.sum_store import ColumnarSumStore
from repro.serving import RecommendationRequest, RecommendationService
from repro.serving.scorer import ScorerBase

N_ITEMS, K = 400, 10
PROFILE = DomainProfile(
    "training",
    {"enthusiastic": {"innovative": 0.8}, "frightened": {"challenging": -0.6}},
)


class VectorScorer(ScorerBase):
    """Ids are rows of the item matrix, as in the ledger's worlds."""

    def __init__(self, n_users, n_items):
        rng = np.random.default_rng(0)
        self._users = rng.normal(0.0, 1.0, (n_users, 4))
        self._items = rng.normal(0.0, 1.0, (n_items, 4))
        self.seen = []

    def score_batch(self, user_ids, items):
        self.seen.append(items)
        cols = np.asarray(items, dtype=np.int64)
        return self._users[np.asarray(user_ids, dtype=np.int64)] @ self._items[cols].T


class Batch(ScorerBase):
    """A batch scorer from a plain ``(user_ids, items) -> grid`` function."""

    def __init__(self, fn):
        self._fn = fn

    def score_batch(self, user_ids, items):
        return self._fn(user_ids, items)


def scan_service(n_users=6):
    sums = SumRepository()
    for uid in range(n_users):
        model = sums.get_or_create(uid)
        model.activate_emotion("enthusiastic", 0.2 + 0.1 * uid)
        model.activate_emotion("frightened", 0.9 - 0.1 * uid)
    store = ColumnarSumStore.from_repository(sums)
    attributes = {
        i: {"innovative": (i % 7) / 6.0, "challenging": (i % 5) / 4.0}
        for i in range(0, N_ITEMS, 3)  # most items carry no attributes
    }
    service = RecommendationService(
        sums=store, domain_profile=PROFILE, item_attributes=attributes
    )
    scorer = VectorScorer(n_users, N_ITEMS)
    service.register("vec", scorer)
    return service, scorer


def count_big_conversions(monkeypatch):
    """Count numpy conversions and id freezes of more than ``K`` Python ids."""
    big = []

    def sized(source, count=-1):
        if isinstance(source, (list, tuple)):
            return len(source)
        return 0 if isinstance(source, (np.ndarray, InternedIds)) else count

    def counting(real, name):
        def wrapper(source, *args, **kwargs):
            if sized(source, kwargs.get("count", -1)) > K:
                big.append(name)
            return real(source, *args, **kwargs)

        return wrapper

    for name in ("asarray", "array", "fromiter"):
        monkeypatch.setattr(np, name, counting(getattr(np, name), name))
    monkeypatch.setattr(
        interned_module, "_freeze", counting(interned_module._freeze, "_freeze")
    )
    return big


class TestTranslatedOnce:
    def test_no_later_scan_converts_the_catalog_again(self, monkeypatch):
        service, scorer = scan_service()
        items = list(range(N_ITEMS))  # one list object, every request
        big = count_big_conversions(monkeypatch)
        first = service.recommend(RecommendationRequest(user_id=0, items=items, k=K))
        assert big  # the one translation
        del big[:]
        for uid in (1, 2, 3, 4, 5, 1):
            service.recommend(RecommendationRequest(user_id=uid, items=items, k=K))
        assert big == []
        # every request scored the very same interned universe
        assert all(seen is scorer.seen[0] for seen in scorer.seen)
        assert isinstance(scorer.seen[0], InternedIds)
        assert [type(i) for i in first.ranked.ids] == [int] * K

    def test_an_equal_list_from_another_caller_is_a_hit_too(self, monkeypatch):
        service, scorer = scan_service()
        service.recommend(RecommendationRequest(user_id=0, items=list(range(N_ITEMS)), k=K))
        big = count_big_conversions(monkeypatch)
        service.recommend(RecommendationRequest(user_id=1, items=list(range(N_ITEMS)), k=K))
        assert big == [] and scorer.seen[1] is scorer.seen[0]

    def test_a_list_edited_in_place_is_served_as_edited(self):
        service, scorer = scan_service()
        reference, __ = scan_service()
        items = list(range(N_ITEMS))
        service.recommend(RecommendationRequest(user_id=2, items=items, k=K))
        del items[::2]  # same list object, half the catalog gone
        items.reverse()
        got = service.recommend(RecommendationRequest(user_id=2, items=items, k=K))
        want = reference.recommend(RecommendationRequest(user_id=2, items=list(items), k=K))
        assert got.ranked == want.ranked
        assert set(got.ranked.ids) <= set(items)
        assert list(scorer.seen[-1]) == items

    def test_int_catalogs_rank_like_the_python_sort(self):
        # ties at the cut: the lexsort branch must break them by id
        service, __ = scan_service()
        flat = Batch(lambda user_ids, items: np.zeros((len(user_ids), len(items))))
        service.register("flat", flat)
        items = [9, 3, 12, 6, 0, 15]  # multiples of 3 carry attributes; 0 and 15 tie
        response = service.recommend(
            RecommendationRequest(user_id=0, items=items, k=4, scorer="flat", adjust=False)
        )
        assert response.ranked.ids == [0, 3, 6, 9]


class TestScorersSeeAnOrdinarySequence:
    def test_iteration_truth_len_and_indexing(self):
        service, __ = scan_service()
        seen = {}

        def scorer(user_ids, items):
            seen.update(
                truth=bool(items), length=len(items), first=items[0],
                kinds={type(i) for i in items}, head=items[:2],
                as_dict={i: c for c, i in enumerate(items)},
            )
            return np.ones((len(user_ids), len(items)))

        service.register("probe", Batch(scorer))
        service.recommend(
            RecommendationRequest(user_id=0, items=np.asarray([5, 3, 8]), k=2, scorer="probe")
        )
        assert seen == dict(
            truth=True, length=3, first=5, kinds={int}, head=[5, 3],
            as_dict={5: 0, 3: 1, 8: 2},
        )

    def test_string_catalogs_are_served_and_serialisable(self):
        service = RecommendationService()
        lengths = Batch(lambda user_ids, items: np.asarray([[float(len(i)) for i in items]]))
        service.register("len", lengths)
        response = service.recommend(
            RecommendationRequest(user_id=0, items=["bb", "a", "ccc", "dd"], k=3)
        )
        assert response.ranked.ids == ["ccc", "bb", "dd"]
        json.dumps(response.ranked.ids)

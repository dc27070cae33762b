"""Array-backed rankings: exact order, O(k) materialisation, plain scalars.

The reference order is the one the service always promised —
``sorted(every cell, key=(-adjusted_score, id))[:k]`` — computed here
cell by cell from the Advice stage's dict walk, and the served ranking
must equal it entry for entry, floats compared with ``==``.
"""

import json
import sys
import threading
from time import monotonic

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.advice import AdviceEngine, DomainProfile
from repro.core.sum_model import SumRepository
from repro.serving import (
    RecommendationRequest,
    RecommendationService,
    SelectionRequest,
)
from repro.serving.adapters import RatingModelScorer
from repro.serving.budget import Budget
from repro.serving.ranking import Ranking, top_k
from repro.serving.requests import ScoredItem, SelectedUser
from repro.serving.scorer import ScorerBase

PROFILE = DomainProfile(
    "training",
    {
        "enthusiastic": {"innovative": 0.8},
        "frightened": {"challenging": -0.6, "supportive": 0.5},
    },
)
ATTRIBUTES = PROFILE.item_attributes()
#: few distinct values, signed zeros included: ties everywhere
QUANTISED = [-1.0, -0.0, 0.0, 0.25, 0.5, 1.0]


class GridScorer(ScorerBase):
    """Serves a fixed score grid, whatever order it is asked in."""

    def __init__(self, grid, user_ids, items):
        self._grid = np.asarray(grid, dtype=np.float64)
        self._rows = {u: r for r, u in enumerate(user_ids)}
        self._cols = {i: c for c, i in enumerate(items)}

    def score_batch(self, user_ids, items):
        rows = [self._rows[u] for u in user_ids]
        cols = [self._cols[i] for i in items]
        return self._grid[np.ix_(rows, cols)]


def make_repo(n_users):
    """Users with different emotional states, so multipliers differ."""
    repo = SumRepository()
    for uid in range(n_users):
        model = repo.get_or_create(uid)
        if uid % 3 == 0:
            model.activate_emotion("enthusiastic", 1.0)
            model.set_sensibility("enthusiastic", 1.0)
        if uid % 3 == 1:
            model.activate_emotion("frightened", 0.5)
    return repo


@st.composite
def catalogs(draw):
    """(unique ids of one kind, quantised scores, quantised attributes)."""
    kind = draw(st.sampled_from(["int", "str"]))
    ids = draw(
        st.lists(
            st.integers(-30, 30) if kind == "int"
            else st.text("abc", min_size=1, max_size=3),
            min_size=1, max_size=14, unique=True,
        )
    )
    scores = draw(
        st.lists(
            st.sampled_from(QUANTISED), min_size=len(ids), max_size=len(ids)
        )
    )
    attributes = {
        item: {draw(st.sampled_from(ATTRIBUTES)): draw(st.sampled_from([0.5, 1.0]))}
        for item in ids
        if draw(st.booleans())
    }
    return ids, scores, attributes


def reference(ids, base, multiplier, k):
    cells = [
        (i, float(b), float(m), float(b * m))
        for i, b, m in zip(ids, base, multiplier)
    ]
    return sorted(cells, key=lambda cell: (-cell[3], cell[0]))[:k]


def reference_positions(ids, adjusted, k):
    """The reference order by position: NaN last, ties (``0.0`` and
    ``-0.0`` among them) broken by id."""
    nan = np.isnan(adjusted)
    return sorted(
        range(len(ids)), key=lambda p: (nan[p], 0.0 if nan[p] else -adjusted[p], ids[p])
    )[:k]


def cells_of(ranked):
    return [
        (
            e.item if isinstance(e, ScoredItem) else e.user_id,
            e.base_score, e.multiplier, e.adjusted_score,
        )
        for e in ranked
    ]


class TestOrderExactness:
    @settings(max_examples=200, deadline=None)
    @given(catalog=catalogs(), k_over=st.integers(-13, 2), user_id=st.integers(0, 2))
    def test_recommend_equals_the_sorted_reference(self, catalog, k_over, user_id):
        ids, scores, attributes = catalog
        k = max(1, len(ids) + k_over)  # 1..n, and past n
        repo = make_repo(3)
        service = RecommendationService(
            sums=repo, domain_profile=PROFILE, item_attributes=attributes
        )
        service.register("grid", GridScorer([scores] * 3, range(3), ids))
        request = RecommendationRequest(user_id=user_id, items=ids, k=k)
        response = service.recommend(request)
        multiplier = AdviceEngine().multiplier_matrix(
            [repo.get(user_id)], ids, attributes, PROFILE
        )[0]
        want = reference(ids, np.asarray(scores), multiplier, k)
        assert cells_of(response.ranked) == want
        assert response.items == [cell[0] for cell in want]
        # the same list again is served from the table's memo
        assert service.recommend(request).ranked == response.ranked

    @settings(max_examples=200, deadline=None)
    @given(
        scores=st.lists(st.sampled_from(QUANTISED), min_size=1, max_size=14),
        k_over=st.one_of(st.none(), st.integers(-13, 2)),
        presence=st.sampled_from([0.0, 0.5, 1.0]),
        data=st.data(),
    )
    def test_select_users_equals_the_sorted_reference(
        self, scores, k_over, presence, data
    ):
        n = len(scores)
        k = None if k_over is None else max(1, n + k_over)
        ids = data.draw(st.permutations(range(n)))
        attributes = {"course": {"innovative": presence, "supportive": 1.0}}
        repo = make_repo(n)
        service = RecommendationService(
            sums=repo, domain_profile=PROFILE, item_attributes=attributes
        )
        service.register(
            "grid", GridScorer([[s] for s in scores], range(n), ["course"])
        )
        response = service.select_users(
            SelectionRequest(item="course", user_ids=ids, k=k)
        )
        multiplier = AdviceEngine().multiplier_matrix(
            [repo.get(uid) for uid in ids], ["course"], attributes, PROFILE
        )[:, 0]
        base = np.asarray([scores[uid] for uid in ids])
        want = reference(ids, base, multiplier, k)
        assert cells_of(response.ranked) == want
        assert response.pairs() == [(cell[0], cell[3]) for cell in want]

    @pytest.mark.parametrize("k", [1, 4, 7, 9])
    @pytest.mark.parametrize("ids", [[5, 3, 9, 1, 7, 2, 8], list("gbdafce")])
    def test_the_all_equal_grid_of_an_expired_budget_ranks_by_id(self, ids, k):
        """``_neutral_fill`` ties every cell: the whole grid survives the
        partition and the order is the ids' alone."""

        class Never:
            def predict(self, user_id, item):
                raise AssertionError("an expired budget scores nothing")

        grid = RatingModelScorer(Never()).score_batch(
            [1], ids, budget=Budget(monotonic() - 1.0)
        )
        service = RecommendationService()
        service.register("grid", GridScorer(grid, [1], ids))
        response = service.recommend(
            RecommendationRequest(user_id=1, items=ids, k=k)
        )
        assert response.items == sorted(ids)[:k]
        assert cells_of(response.ranked) == [
            (i, 0.0, 1.0, 0.0) for i in sorted(ids)[:k]
        ]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), distinct=st.booleans(), n=st.integers(1, 24))
    def test_integer_top_k_equals_the_sorted_reference(self, data, distinct, n):
        """User ids in any order, whole rankings and cuts: with distinct
        scores the whole row takes the one-``argsort`` path, and with
        ties, signed zeros or NaN it falls back to the ``lexsort``."""
        ids = data.draw(
            st.lists(st.integers(-2**40, 2**40), min_size=n, max_size=n, unique=True)
        )
        scores = (
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
            if distinct else st.sampled_from([*QUANTISED, np.nan])
        )
        base = np.array(
            data.draw(st.lists(scores, min_size=n, max_size=n, unique=distinct))
        )
        multiplier = np.array(
            data.draw(st.lists(st.sampled_from([0.5, 1.0]), min_size=n, max_size=n))
        )
        adjusted = base * multiplier
        k = data.draw(st.one_of(st.none(), st.integers(1, n + 2)))
        ranked = top_k(
            SelectedUser, np.array(ids, dtype=np.int64), base, multiplier,
            adjusted, k,
        )
        want = reference_positions(ids, adjusted, k)
        assert ranked.ids == [ids[p] for p in want]
        for got, grid in zip(
            (ranked.base, ranked.multiplier, ranked.adjusted),
            (base, multiplier, adjusted),
        ):
            assert got.tobytes() == grid[want].tobytes()

    @pytest.mark.parametrize("k", [None, 4, 5, 3])
    @pytest.mark.parametrize("ids", [[40, 30, 20, 10], [10, 20, 30, 40]])
    @pytest.mark.parametrize(
        "adjusted",
        [[0.5, -1.0, 2.0, 0.25], [0.0, -0.0, 1.0, 0.5], [1.0, np.nan, 1.0, 0.5]],
        ids=["distinct", "signed-zeros", "tie-and-nan"],
    )
    def test_integer_top_k_on_fixed_rows(self, adjusted, ids, k):
        """Both id orders, so a tie left in any position order shows."""
        adjusted = np.array(adjusted)
        ranked = top_k(SelectedUser, np.array(ids), adjusted, np.ones(4), adjusted, k)
        assert ranked.ids == [ids[p] for p in reference_positions(ids, adjusted, k)]

    def test_nan_scores_rank_last_instead_of_shortening_the_ranking(self):
        ranked = top_k(
            SelectedUser, np.arange(4), np.array([np.nan, 1.0, np.nan, 2.0]),
            np.ones(4), np.array([np.nan, 1.0, np.nan, 2.0]), 3,
        )
        assert ranked.ids == [3, 1, 0]


class TestMaterialisationIsCountedNotTimed:
    """The regression guard that does not depend on host speed."""

    @staticmethod
    def counting(entry):
        class Counting(entry):
            built = 0

            def __new__(cls, *args, **kwargs):
                cls.built += 1
                return super().__new__(cls)

        return Counting

    def test_recommend_over_5000_items_builds_at_most_k(self, monkeypatch):
        counter = self.counting(ScoredItem)
        monkeypatch.setattr("repro.serving.service.ScoredItem", counter)
        items = list(range(5_000))
        rng = np.random.default_rng(0)
        service = RecommendationService()
        service.register("grid", GridScorer(rng.normal(size=(1, 5_000)), [1], items))
        response = service.recommend(
            RecommendationRequest(user_id=1, items=items, k=10)
        )
        assert isinstance(response.ranked, Ranking)
        assert len(response.ranked) == 10 and len(response.items) == 10
        assert counter.built == 0
        assert response.best is response.ranked[0]
        assert counter.built == 1
        assert list(response.ranked) == list(response.ranked)
        assert counter.built == 10  # each entry once, however often read

    def test_select_all_over_2000_users_builds_none_until_indexed(
        self, monkeypatch
    ):
        counter = self.counting(SelectedUser)
        monkeypatch.setattr("repro.serving.service.SelectedUser", counter)
        repo = make_repo(2_000)
        rng = np.random.default_rng(1)
        service = RecommendationService(sums=repo)
        service.register(
            "grid", GridScorer(rng.normal(size=(2_000, 1)), range(2_000), ["c"])
        )
        response = service.select_users(SelectionRequest(item="c", k=None))
        assert isinstance(response.ranked, Ranking)
        assert len(response.ranked) == 2_000
        pairs = response.pairs()
        assert len(pairs) == 2_000 and pairs[0][1] >= pairs[-1][1]
        assert counter.built == 0
        assert response.ranked[0].user_id == pairs[0][0]
        assert response.ranked[-1].user_id == pairs[-1][0]
        assert counter.built == 2


class TestPythonScalarsOnTheWire:
    def test_ndarray_items_and_user_ids_leave_as_plain_scalars(self):
        repo = make_repo(4)
        items = np.array([30, 10, 20])
        service = RecommendationService(
            sums=repo, domain_profile=PROFILE,
            item_attributes={10: {"innovative": 1.0}},
        )
        service.register(
            "grid", GridScorer(np.arange(12.0).reshape(4, 3), range(4), [30, 10, 20])
        )
        recommended = service.recommend(
            RecommendationRequest(user_id=0, items=items, k=3)
        )
        selected = service.select_users(
            SelectionRequest(item=10, user_ids=np.array([3, 0, 2]), k=None)
        )
        for entry in recommended.ranked:
            assert type(entry.item) is int
        for entry in selected.ranked:
            assert type(entry.user_id) is int
        for entry in [*recommended.ranked, *selected.ranked]:
            assert type(entry.base_score) is float
            assert type(entry.multiplier) is float
            assert type(entry.adjusted_score) is float
        assert all(type(i) is int for i in recommended.items)
        assert all(
            type(u) is int and type(s) is float for u, s in selected.pairs()
        )
        json.dumps(
            {
                "items": recommended.items,
                "pairs": selected.pairs(),
                "entries": [cells_of(r.ranked) for r in (recommended, selected)],
            }
        )


class TestRankingIsASequence:
    @pytest.fixture()
    def ranking(self):
        return top_k(
            ScoredItem, ["a", "b", "c"], np.array([1.0, 3.0, 2.0]),
            np.array([1.0, 1.0, 2.0]), np.array([1.0, 3.0, 4.0]), None,
        )

    def test_len_index_slice_iterate(self, ranking):
        first = ScoredItem("c", 2.0, 2.0, 4.0)
        assert len(ranking) == 3 and ranking[0] == first
        assert ranking[-1] == ScoredItem("a", 1.0, 1.0, 1.0)
        assert ranking[0] is ranking[0] is ranking[:1][0]
        assert isinstance(ranking[1:], tuple) and len(ranking[1:]) == 2
        assert [e.item for e in ranking] == ["c", "b", "a"] == ranking.ids
        assert first in ranking and ranking.index(first) == 0
        with pytest.raises(IndexError):
            ranking[3]

    def test_equality_with_tuples_lists_and_rankings(self, ranking):
        same = top_k(
            ScoredItem, ["c", "a", "b"], np.array([2.0, 1.0, 3.0]),
            np.array([2.0, 1.0, 1.0]), np.array([4.0, 1.0, 3.0]), 3,
        )
        assert ranking == same
        assert ranking == tuple(same) and ranking == list(same)
        assert hash(ranking) == hash(tuple(same))
        shorter = top_k(
            ScoredItem, ["a", "b", "c"], ranking.base, ranking.multiplier,
            ranking.adjusted, 2,
        )
        assert ranking != shorter and ranking != tuple(shorter)
        users = top_k(
            SelectedUser, np.arange(3), ranking.base, ranking.multiplier,
            ranking.adjusted, None,
        )
        assert users != ranking  # same cells, another kind of entry
        assert ranking != "cba"

    def test_the_arrays_are_read_only(self, ranking):
        for array in (ranking.base, ranking.multiplier, ranking.adjusted):
            with pytest.raises(ValueError):
                array[0] = 0.0


class TestTheServedItemTable:
    ATTRS = {"new": {"innovative": 1.0}, "hard": {"challenging": 1.0}}

    def service(self):
        service = RecommendationService(
            sums=make_repo(3), domain_profile=PROFILE, item_attributes=self.ATTRS
        )
        service.register("flat", lambda model, item: 1.0)
        return service

    def multipliers(self, service, user_id=0):
        response = service.recommend(
            RecommendationRequest(user_id=user_id, items=["hard", "new"], k=2)
        )
        return {e.item: e.multiplier for e in response.ranked}

    def test_is_read_only_and_equal_to_what_was_passed(self):
        service = self.service()
        assert service.item_attributes == self.ATTRS
        with pytest.raises(TypeError):
            service.item_attributes["new"] = {}
        with pytest.raises(TypeError):
            service.item_attributes["new"]["innovative"] = 0.0

    def test_assigning_a_mapping_or_a_profile_rebuilds(self):
        service = self.service()
        before = service.item_attributes
        assert self.multipliers(service) == {"new": 1.4, "hard": 1.0}
        service.item_attributes = {"hard": {"innovative": 1.0}}
        assert service.item_attributes is not before
        assert self.multipliers(service) == {"new": 1.0, "hard": 1.4}
        service.domain_profile = DomainProfile(
            "other", {"enthusiastic": {"innovative": -0.8}}
        )
        assert service.item_attributes == {"hard": {"innovative": 1.0}}
        assert self.multipliers(service) == {"new": 1.0, "hard": 0.6}
        service.domain_profile = None
        assert self.multipliers(service) == {"new": 1.0, "hard": 1.0}

    def test_requests_under_replacement_see_only_whole_tables(self):
        """Readers race a writer that flips the table; every response's
        multipliers must come from one table, never a blend."""
        items = [f"item-{i:03d}" for i in range(200)]
        boosted = {item: {"innovative": 1.0} for item in items}
        halved = {item: {"innovative": 0.5} for item in items}
        service = RecommendationService(
            sums=make_repo(1), domain_profile=PROFILE, item_attributes=boosted
        )
        service.register("flat", lambda model, item: 1.0)
        request = RecommendationRequest(user_id=0, items=items, k=len(items))
        whole = {1.4, 1.4 ** 0.5}
        done = threading.Event()
        seen, torn = set(), []

        def read():
            while not done.is_set():
                response = service.recommend(request)
                values = set(response.ranked.multiplier.tolist())
                seen.update(values)
                if len(values) != 1 or not values <= whole:
                    torn.append(values)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        readers = [threading.Thread(target=read) for _ in range(4)]
        try:
            for reader in readers:
                reader.start()
            deadline = monotonic() + 10.0
            flips = 0
            while (flips < 150 or len(seen) < 2) and monotonic() < deadline:
                service.item_attributes = halved if flips % 2 == 0 else boosted
                flips += 1
        finally:
            done.set()
            for reader in readers:
                reader.join(10.0)
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        assert not torn
        assert seen == whole  # both tables were actually served

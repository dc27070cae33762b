"""``search_rows``: one score buffer, rows for the survivors only.

The per-cluster loop it replaced (slice, ``arange``, two
``concatenate``s) stays here as the straight-line reference: same rows,
same order, on every index shape — and the id spellings an index can be
built from all leave it as Python scalars.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.retrieval.index as index_module
from repro.core.interned import InternedIds
from repro.retrieval.embeddings import StaticEmbeddingProvider
from repro.retrieval.index import ClusteredANNIndex, _topk_desc
from repro.retrieval.retriever import CandidateRetriever, RetrievalConfig
from repro.serving.requests import RecommendationRequest
from repro.serving.scorer import ScorerBase
from repro.serving.service import RecommendationService

DIM = 5


def reference_rows(index, query, k, n_probe=8, allowed_rows=None):
    """``ClusteredANNIndex.search`` as it was, returning page rows."""
    query = np.asarray(query, dtype=np.float64).reshape(-1)
    if allowed_rows is not None:
        scores = index.pages[allowed_rows] @ query
        top = _topk_desc(scores, min(k, len(scores)))
        return [int(allowed_rows[t]) for t in top]
    n_probe = max(1, min(int(n_probe), index.n_clusters))
    probe = _topk_desc(index.centroids @ query, n_probe)
    row_blocks, score_blocks = [], []
    for c in probe:
        lo, hi = int(index.offsets[c]), int(index.offsets[c + 1])
        if lo == hi:
            continue
        score_blocks.append(index.pages[lo:hi] @ query)
        row_blocks.append(np.arange(lo, hi, dtype=np.int64))
    if not score_blocks:
        return []
    scores, rows = np.concatenate(score_blocks), np.concatenate(row_blocks)
    return [int(rows[t]) for t in _topk_desc(scores, min(k, len(scores)))]


def hand_laid_index(sizes, seed):
    """An index with exactly these cluster sizes (zeros allowed)."""
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    pages = rng.normal(0.0, 1.0, (n, DIM)).round(1)  # rounding makes ties
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    centroids = rng.normal(0.0, 1.0, (len(sizes), DIM))
    return ClusteredANNIndex(list(range(100, 100 + n)), pages, offsets, centroids)


class TestAgainstThePerClusterLoop:
    @settings(max_examples=200, deadline=None)
    @given(
        sizes=st.lists(st.integers(0, 6), min_size=1, max_size=9).filter(sum),
        seed=st.integers(0, 2**16),
        k=st.integers(1, 40),
        n_probe=st.integers(1, 12),
    )
    def test_same_rows_in_the_same_order(self, sizes, seed, k, n_probe):
        # covers empty clusters (probed and not), n_probe >= clusters,
        # k >= scanned rows and the one-cluster index
        index = hand_laid_index(sizes, seed)
        query = np.random.default_rng(seed + 1).normal(0.0, 1.0, DIM).round(1)
        rows = index.search_rows(query, k, n_probe=n_probe)
        assert rows.dtype == np.int64
        assert rows.tolist() == reference_rows(index, query, k, n_probe)
        ids = index.search(query, k, n_probe=n_probe)
        assert ids == index.ids[rows].tolist() == [100 + r for r in rows.tolist()]

    @settings(max_examples=100, deadline=None)
    @given(
        sizes=st.lists(st.integers(0, 6), min_size=1, max_size=9).filter(sum),
        seed=st.integers(0, 2**16),
        k=st.integers(1, 20),
        data=st.data(),
    )
    def test_allowed_rows(self, sizes, seed, k, data):
        index = hand_laid_index(sizes, seed)
        allowed = np.asarray(
            data.draw(st.lists(st.integers(0, len(index) - 1), min_size=1, unique=True)),
            dtype=np.int64,
        )
        query = np.random.default_rng(seed + 1).normal(0.0, 1.0, DIM).round(1)
        rows = index.search_rows(query, k, allowed_rows=allowed)
        assert rows.tolist() == reference_rows(index, query, k, allowed_rows=allowed)
        assert index.search(query, k, allowed_rows=allowed) == index.ids[rows].tolist()

    def test_only_empty_clusters_probed_is_an_empty_answer(self):
        index = ClusteredANNIndex(
            [7, 8], np.ones((2, DIM)), np.asarray([0, 0, 2]),
            np.asarray([[1.0] * DIM, [-1.0] * DIM]),
        )
        assert index.search_rows(np.ones(DIM), 3, n_probe=1).tolist() == []
        assert index.search(np.ones(DIM), 3, n_probe=1) == []
        assert index.search(np.ones(DIM), 3, n_probe=2) == [7, 8]

    def test_dim_is_checked_on_both_entry_points(self):
        index = hand_laid_index([3, 2], 0)
        for entry in (index.search, index.search_rows):
            with pytest.raises(ValueError, match="query dim"):
                entry(np.ones(DIM + 1), 2)

    def test_bookkeeping_calls_do_not_grow_with_n_probe(self, monkeypatch):
        """Count, not time: the scan's cost is the matvec, not the glue."""
        index = hand_laid_index([5] * 40, 1)
        query = np.ones(DIM)
        calls = {"arange": 0, "concatenate": 0}

        def counting(name):
            real = getattr(np, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(index_module.np, name, counting(name))
        seen = []
        for n_probe in (1, 8, 40):
            calls.update(arange=0, concatenate=0)
            index.search(query, 10, n_probe=n_probe)
            seen.append(dict(calls))
        assert seen[0] == seen[1] == seen[2] == {"arange": 0, "concatenate": 0}


class CountingScorer(ScorerBase):
    """Inner-product scorer that records what ``items`` it was handed."""

    def __init__(self, provider):
        ids, self._items = provider.item_vectors()
        self._cols = {item: c for c, item in enumerate(ids)}
        self.provider = provider
        self.seen = []

    def score_batch(self, user_ids, items):
        self.seen.append(items)
        cols = [self._cols[i] for i in items]
        return self.provider.query_vectors(user_ids) @ self._items[cols].T


def retrieval_service(item_ids, seed=0):
    rng = np.random.default_rng(seed)
    n = len(item_ids)
    plain = InternedIds(item_ids)  # what the ids are to Python
    provider = StaticEmbeddingProvider(
        list(plain), rng.normal(0.0, 1.0, (n, DIM)), [0, 1], rng.normal(0.0, 1.0, (2, DIM)),
    )
    index = ClusteredANNIndex.build(item_ids, provider.item_vectors()[1], seed=0)
    retriever = CandidateRetriever(
        provider, index=index,
        config=RetrievalConfig(k_candidates=20, n_probe=4, min_catalog=1),
    )
    service = RecommendationService(retriever=retriever)
    scorer = CountingScorer(provider)
    service.register("dot", scorer)
    return service, index, scorer


class TestNoNdarrayScalarLeavesTheIndex:
    """At the parent, an index built from ``np.arange(n)`` answered with
    ``numpy.int64`` ids and ``json.dumps`` of a response raised."""

    @pytest.mark.parametrize(
        "item_ids, scalar",
        [
            (np.arange(500), int),
            (list(np.arange(500)), int),
            (np.array([f"item-{i}" for i in range(500)]), str),
            ([np.str_(f"item-{i}") for i in range(500)], str),
            ([f"item-{i}" for i in range(500)], str),
        ],
        ids=["arange", "list-of-int64", "str-array", "list-of-str_", "str"],
    )
    def test_ids_are_python_scalars_end_to_end(self, item_ids, scalar):
        service, index, scorer = retrieval_service(item_ids)
        assert {type(i) for i in index.item_ids} == {scalar}
        query = np.ones(DIM)
        for answer in (index.search(query, 5), index.exact_topk(query, 5)):
            assert [type(i) for i in answer] == [scalar] * 5
            json.dumps(answer)
        assert (index.ids.dtype == np.int64) == (scalar is int)
        assert not index.ids.flags.writeable
        response = service.recommend(RecommendationRequest(user_id=0, k=5))
        assert len(scorer.seen[-1]) == 20  # retrieved, not the full scan
        assert {type(i) for i in scorer.seen[-1]} == {scalar}
        assert [type(i) for i in response.ranked.ids] == [scalar] * 5
        json.dumps([(e.item, e.adjusted_score) for e in response.ranked])

    def test_candidates_are_interned_from_the_id_vector(self):
        service, index, scorer = retrieval_service(np.arange(500))
        retriever = service.retriever
        candidates = retriever.retrieve([0], None, 5)
        assert isinstance(candidates, InternedIds) and len(candidates) == 20
        assert np.asarray(candidates, dtype=np.int64) is candidates.vector
        query = retriever.provider.query_vectors([0])[0]
        assert candidates == index.search(query, 20, n_probe=4)
        service.recommend(RecommendationRequest(user_id=0, k=5))
        assert scorer.seen[-1].vector is not None  # the scorer's asarray is free

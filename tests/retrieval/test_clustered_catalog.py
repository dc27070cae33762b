"""End-to-end recall and speed of candidate retrieval on clustered catalogs.

The same ``recommend()`` requests — resolve → retrieve → score → advice
→ respond, the Advice multiplier pass and response materialisation
included — through a service with a
:class:`~repro.retrieval.retriever.CandidateRetriever` attached and
through one that scans the whole catalog.  Both share the scorer and
the advice configuration, so the overlap of their top-k is the true
end-to-end recall@k, not an index-side proxy.

Gates: recall@10 >= 0.95 on every catalog (2k to 100k items), and at
100k items retrieval serves at least 5x faster than the exact scan.  No
speed gate below 100k: at 20k items the ratio is 1.5-3x run to run, and
at 2k the exact scan is the faster path.  The exact side's mean covers
the five recall requests, the first of which interns the 100k-id list
(~25-30 ms once, cached after): with it the 100k ratio reads 10-21x on a
2-core host, warm it reads 5-7x.
"""

from time import perf_counter

import numpy as np
import pytest

from repro.core.advice import DomainProfile
from repro.core.emotions import EMOTION_NAMES
from repro.core.sum_model import SumRepository
from repro.retrieval import (
    CandidateRetriever,
    ClusteredANNIndex,
    RetrievalConfig,
    StaticEmbeddingProvider,
)
from repro.serving import RecommendationRequest, RecommendationService
from repro.serving.scorer import ScorerBase

DIM = 16
#: genuine cluster structure, the regime ANN indexes are built for
N_TRUE_CLUSTERS = 64
CLUSTER_NOISE = 0.05
N_USERS = 64
K = 10
K_CANDIDATES = 256
N_PROBE = 64
#: requests per leg: the recall users (also the timed exact scans) and
#: the timed retrieval requests
N_FULL_REQUESTS = 5
N_RETRIEVED_REQUESTS = 100
#: fraction of the catalog carrying attribute metadata
ATTR_COVERAGE = 0.05

PROFILE = DomainProfile(
    "clustered",
    {
        EMOTION_NAMES[0]: {"attr-a": 0.8, "attr-b": 0.2},
        EMOTION_NAMES[1]: {"attr-b": -0.5},
    },
)


class VectorScorer(ScorerBase):
    """Item ids are their row numbers: one fancy index and one matmul
    score any candidate list, on both services alike."""

    def __init__(self, provider):
        self.provider = provider
        __, self._items = provider.item_vectors()

    def score_batch(self, user_ids, items):
        queries = self.provider.query_vectors(user_ids)
        return queries @ self._items[np.asarray(items, dtype=np.int64)].T


def build_services(n_items, seed):
    """(retrieval service, exact service) over one clustered catalog."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 1.0, (N_TRUE_CLUSTERS, DIM))
    labels = rng.integers(0, N_TRUE_CLUSTERS, n_items)
    vectors = centers[labels] + rng.normal(0.0, CLUSTER_NOISE, (n_items, DIM))
    users = rng.normal(0.0, 1.0, (N_USERS, DIM))
    provider = StaticEmbeddingProvider(
        list(range(n_items)), vectors, list(range(N_USERS)), users
    )
    with_attrs = rng.choice(n_items, size=int(n_items * ATTR_COVERAGE), replace=False)
    attributes = {
        int(item): {"attr-a": 1.0} if item % 2 else {"attr-b": 0.5}
        for item in with_attrs
    }
    sums = SumRepository()
    for uid in range(N_USERS):
        sums.get_or_create(uid)
    ids, item_vectors = provider.item_vectors()
    retriever = CandidateRetriever(
        provider,
        config=RetrievalConfig(
            k_candidates=K_CANDIDATES, n_probe=N_PROBE, min_catalog=1
        ),
        index=ClusteredANNIndex.build(ids, item_vectors, seed=1),
    )
    scorer = VectorScorer(provider)
    shared = dict(sums=sums, domain_profile=PROFILE, item_attributes=attributes)
    retrieval = RecommendationService(retriever=retriever, **shared)
    retrieval.register("vec", scorer)
    exact = RecommendationService(**shared)
    exact.register("vec", scorer)
    return retrieval, exact


def mean_seconds(fn, users):
    start = perf_counter()
    for uid in users:
        fn(int(uid))
    return (perf_counter() - start) / len(users)


@pytest.mark.parametrize(
    "n_items, seed, speedup_floor",
    [(2_000, 17, None), (10_000, 17, None), (20_000, 18, None), (100_000, 18, 5.0)],
)
def test_retrieval_recall_and_speedup(n_items, seed, speedup_floor):
    retrieval, exact = build_services(n_items, seed)
    rng = np.random.default_rng(seed + 1)
    all_items = list(range(n_items))

    exact_top = {}

    def exact_request(uid):
        exact_top[uid] = exact.recommend(
            RecommendationRequest(user_id=uid, items=all_items, k=K)
        ).items

    def retrieval_request(uid):
        return retrieval.recommend(
            RecommendationRequest(user_id=uid, items=None, k=K)
        ).items

    recall_users = rng.integers(0, N_USERS, size=N_FULL_REQUESTS)
    exact_s = mean_seconds(exact_request, recall_users)
    hits = sum(
        len(set(retrieval_request(int(uid))) & set(exact_top[int(uid)]))
        for uid in recall_users
    )
    recall = hits / (len(recall_users) * K)
    assert recall >= 0.95, f"recall@{K} {recall:.3f} at n={n_items:,}"

    if speedup_floor is not None:
        timed_users = rng.integers(0, N_USERS, size=N_RETRIEVED_REQUESTS)
        speedup = exact_s / mean_seconds(retrieval_request, timed_users)
        assert speedup >= speedup_floor, (
            f"retrieval only {speedup:.1f}x over the exact scan at n={n_items:,}"
        )

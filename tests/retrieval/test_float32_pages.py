"""Float32 pages against the float64 scan they replaced.

The index scores its pages in float32; the served ranking is the float64
scorer and Advice multiplier over the shortlist.  On a catalog in the
perf ledger's regime (64 topic clusters with noise 0.3, 5 % of the items
carrying 1-3 faint product attributes, context-augmented embeddings over
users with emotional evidence) the float64 page scan kept here as the
reference must give the same shortlist for every user, and both must
serve the same top-10 with the same base, multiplier and adjusted bytes.
"""

import numpy as np
import pytest

from repro.core.advice import DomainProfile
from repro.core.emotions import EMOTION_NAMES
from repro.core.sum_model import SumRepository
from repro.datagen.catalog import AFFINITY_LINKS, PRODUCT_ATTRIBUTES
from repro.retrieval import (
    CandidateRetriever,
    ClusteredANNIndex,
    EmbeddingProvider,
    RetrievalConfig,
)
from repro.retrieval.index import _topk_desc
from repro.serving import RecommendationRequest, RecommendationService
from repro.serving.scorer import ScorerBase

DIM = 16
N_ITEMS = 20_000
N_USERS = 300
N_CLUSTERS = 64
NOISE = 0.3
COVERAGE = 0.05
PRESENCE = (0.02, 0.10)
K = 10
K_CANDIDATES = 256
N_PROBE = 64


class Factors:
    """Generated factors behind the FunkSVD accessor surface."""

    def __init__(self, users, items):
        self._users = (list(range(len(users))), users, np.zeros(len(users)))
        self._items = (list(range(len(items))), items, np.zeros(len(items)))

    def user_embeddings(self):
        return self._users

    def item_embeddings(self):
        return self._items


class VectorScorer(ScorerBase):
    """float64 re-ranker over the raw factors (ids are rows)."""

    def __init__(self, users, items):
        self._users, self._items = users, items

    def score_batch(self, user_ids, items):
        queries = self._users[np.asarray(user_ids, dtype=np.int64)]
        return queries @ self._items[np.asarray(items, dtype=np.int64)].T


class Float64Index(ClusteredANNIndex):
    """The same clusters and probe, scanning float64 pages (``pages64``):
    ``search_rows`` before float32."""

    def search_rows(self, query, k, *, n_probe=8, allowed_rows=None):
        assert allowed_rows is None
        query = np.asarray(query, dtype=np.float64).reshape(-1)
        probe = _topk_desc(self.centroids @ query, min(n_probe, self.n_clusters))
        rows = np.concatenate([
            np.arange(self.offsets[c], self.offsets[c + 1]) for c in probe
        ])
        scores = self.pages64[rows] @ query
        return rows[_topk_desc(scores, min(k, len(scores)))]


def world(seed):
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 1.0, (N_CLUSTERS, DIM))
    labels = rng.integers(0, N_CLUSTERS, N_ITEMS)
    vectors = centers[labels] + rng.normal(0.0, NOISE, (N_ITEMS, DIM))
    attributes = {}
    for item in rng.choice(N_ITEMS, size=int(N_ITEMS * COVERAGE), replace=False):
        chosen = rng.choice(len(PRODUCT_ATTRIBUTES), size=rng.integers(1, 4), replace=False)
        attributes[int(item)] = {
            PRODUCT_ATTRIBUTES[int(a)]: float(rng.uniform(*PRESENCE)) for a in chosen
        }
    users = rng.normal(0.0, 1.0, (N_USERS, DIM))
    sums = SumRepository()
    for uid in range(N_USERS):
        model = sums.get_or_create(uid)
        for name in rng.choice(EMOTION_NAMES, size=3, replace=False):
            model.activate_emotion(str(name), float(rng.uniform(0.1, 1.0)))
            model.set_sensibility(str(name), float(rng.uniform(0.1, 1.0)))
    profile = DomainProfile("ledger-like", AFFINITY_LINKS)
    provider = EmbeddingProvider(
        Factors(users, vectors), domain_profile=profile, item_attributes=attributes
    )
    return provider, sums, profile, attributes, VectorScorer(users, vectors)


@pytest.mark.parametrize("seed", [1, 2])
def test_float32_pages_shortlist_and_serve_what_float64_pages_did(seed):
    provider, sums, profile, attributes, scorer = world(seed)
    ids, vectors = provider.item_vectors()
    index = ClusteredANNIndex.build(ids, vectors, seed=seed)
    assert index.pages.dtype == np.float32
    reference = Float64Index(index.item_ids, index.pages, index.offsets, index.centroids)
    reference.pages64 = vectors[np.asarray(index.item_ids)]

    services = []
    for idx in (index, reference):
        retriever = CandidateRetriever(
            provider,
            config=RetrievalConfig(k_candidates=K_CANDIDATES, n_probe=N_PROBE),
            index=idx,
        )
        service = RecommendationService(
            sums=sums, domain_profile=profile, item_attributes=attributes,
            retriever=retriever,
        )
        service.register("vec", scorer)
        services.append(service)

    for uid in range(N_USERS):
        query = provider.query_vectors([uid], sums.batch([uid]))[0]
        got = index.search_rows(query, K_CANDIDATES, n_probe=N_PROBE)
        want = reference.search_rows(query, K_CANDIDATES, n_probe=N_PROBE)
        assert set(got.tolist()) == set(want.tolist()), uid
        served = [
            s.recommend(RecommendationRequest(user_id=uid, k=K)).ranked
            for s in services
        ]
        assert served[0].ids == served[1].ids, uid
        for column in ("base", "multiplier", "adjusted"):
            got, want = (getattr(ranked, column) for ranked in served)
            assert got.tobytes() == want.tobytes(), (uid, column)

"""S10 — candidate retrieval: O(items) → O(k) on the advice path.

Measures the end-to-end ``RecommendationService.recommend`` latency —
resolve → retrieve → score → advice → respond, the full pipeline
including the emotional Advice multiplier pass and response
materialization — with and without a
:class:`~repro.retrieval.retriever.CandidateRetriever` attached, on
synthetic clustered catalogs of growing size.

The full-scan service pays O(items) per request in the score grid, the
Advice multiplier row (item-table rows plus one matmul) and one
partition of the adjusted row — all of them numpy passes; neither
service builds more than ``k`` response objects.  The retrieval service
pays one ANN probe plus O(k_candidates) re-ranking, so the gap still
widens linearly with the catalog, from a much lower base than when the
scan built one ``ScoredItem`` per catalog entry (29x / 332x / 2,432x
then; about 2-4x / 10x / 90-140x now).  Both services share the same
scorer and advice configuration, so comparing their responses measures
true end-to-end recall@k, not an index-side proxy.

Gates:

* **recall@k >= 0.95** on every catalog leg (retrieved top-k vs the
  exact full-scan top-k, same users, same scores);
* **speedup >= 5x** on every leg of 100k+ items (full mode): half the
  ~10x the 100k leg measures.  The smoke legs carry no speed gate —
  at 20k items the honest ratio is 1.5-3x run to run and at 2k the
  exact scan is the faster path, so no threshold has 2x head-room.

Smoke mode for CI (small catalogs; recall and parity gates only)::

    BENCH_SMOKE=1 PYTHONPATH=src python -m pytest \
        benchmarks/bench_candidate_retrieval.py -q

Full run (includes the million-item leg)::

    PYTHONPATH=src python -m pytest benchmarks/bench_candidate_retrieval.py -q
"""

from __future__ import annotations

import os
import time
from typing import Sequence

import numpy as np

from benchmarks.conftest import record_artifact
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
from repro.serving.scorer import ItemId, ScorerBase

SMOKE = bool(os.environ.get("BENCH_SMOKE"))
CATALOG_SIZES = (2_000, 20_000) if SMOKE else (10_000, 100_000, 1_000_000)
DIM = 16
#: genuine cluster structure (the regime ANN indexes are built for —
#: real catalogs cluster by topic; pure isotropic noise would not)
N_TRUE_CLUSTERS = 64
CLUSTER_NOISE = 0.05
N_USERS = 64
K = 10
#: oversampled candidate set and probe width of the retrieval stage
K_CANDIDATES = 256
N_PROBE = 64
#: timed requests per leg; the full scan gets fewer — at the million-item
#: leg one exact request costs seconds, and its mean is stable anyway
N_RETRIEVED_REQUESTS = 30 if SMOKE else 100
N_FULL_REQUESTS = 5
#: fraction of the catalog carrying attribute metadata (sparse, like a
#: real catalog: most items have no emotional affinity links)
ATTR_COVERAGE = 0.05

PROFILE = DomainProfile(
    "bench",
    {
        EMOTION_NAMES[0]: {"attr-a": 0.8, "attr-b": 0.2},
        EMOTION_NAMES[1]: {"attr-b": -0.5},
    },
)

RECALL_GATE = 0.95
SPEEDUP_GATE_FULL = 5.0


class VectorScorer(ScorerBase):
    """Vectorized re-ranker sharing the retrieval embeddings.

    Item ids are their row numbers, so one fancy-index + matmul scores
    any candidate list — the same score function on both services, which
    is what makes the recall comparison end-to-end.
    """

    def __init__(self, provider: StaticEmbeddingProvider) -> None:
        self.provider = provider
        __, self._items = provider.item_vectors()

    def score_batch(
        self, user_ids: Sequence[int], items: Sequence[ItemId]
    ) -> np.ndarray:
        queries = self.provider.query_vectors(user_ids)
        cols = np.asarray(items, dtype=np.int64)
        return queries @ self._items[cols].T


def build_catalog(n_items: int, seed: int = 0):
    """Clustered item vectors + user vectors + sparse attributes."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 1.0, (N_TRUE_CLUSTERS, DIM))
    labels = rng.integers(0, N_TRUE_CLUSTERS, n_items)
    vectors = centers[labels] + rng.normal(0.0, CLUSTER_NOISE, (n_items, DIM))
    users = rng.normal(0.0, 1.0, (N_USERS, DIM))
    provider = StaticEmbeddingProvider(
        list(range(n_items)), vectors, list(range(N_USERS)), users
    )
    with_attrs = rng.choice(
        n_items, size=int(n_items * ATTR_COVERAGE), replace=False
    )
    attributes = {
        int(item): {"attr-a": 1.0} if item % 2 else {"attr-b": 0.5}
        for item in with_attrs
    }
    return provider, attributes


def build_services(provider, attributes):
    sums = SumRepository()
    for uid in range(N_USERS):
        sums.get_or_create(uid)
    ids, vectors = provider.item_vectors()
    build_start = time.perf_counter()
    index = ClusteredANNIndex.build(ids, vectors, seed=1)
    build_seconds = time.perf_counter() - build_start
    retriever = CandidateRetriever(
        provider,
        config=RetrievalConfig(
            k_candidates=K_CANDIDATES, n_probe=N_PROBE, min_catalog=1
        ),
        index=index,
    )
    scorer = VectorScorer(provider)
    shared = dict(
        sums=sums,
        domain_profile=PROFILE,
        item_attributes=attributes,
    )
    retrieval_service = RecommendationService(retriever=retriever, **shared)
    retrieval_service.register("vec", scorer)
    full_service = RecommendationService(**shared)
    full_service.register("vec", scorer)
    return retrieval_service, full_service, build_seconds


def timed_mean_ms(fn, args_list) -> float:
    start = time.perf_counter()
    for args in args_list:
        fn(args)
    return (time.perf_counter() - start) / len(args_list) * 1e3


def run_leg(n_items: int, seed: int):
    provider, attributes = build_catalog(n_items, seed=seed)
    retrieval_service, full_service, build_seconds = build_services(
        provider, attributes
    )
    rng = np.random.default_rng(seed + 1)
    all_items = list(range(n_items))

    # recall@k: same users through both services, overlap of the top-k
    recall_users = rng.integers(0, N_USERS, size=N_FULL_REQUESTS)
    full_responses = {}
    full_ms = timed_mean_ms(
        lambda uid: full_responses.__setitem__(
            int(uid),
            full_service.recommend(
                RecommendationRequest(user_id=int(uid), items=all_items, k=K)
            ),
        ),
        list(recall_users),
    )
    hits = 0
    for uid in recall_users:
        retrieved = retrieval_service.recommend(
            RecommendationRequest(user_id=int(uid), items=None, k=K)
        )
        hits += len(set(retrieved.items) & set(full_responses[int(uid)].items))
    recall = hits / (len(recall_users) * K)

    # the timed retrieval loop (warm index, mixed users)
    timed_users = rng.integers(0, N_USERS, size=N_RETRIEVED_REQUESTS)
    retrieved_ms = timed_mean_ms(
        lambda uid: retrieval_service.recommend(
            RecommendationRequest(user_id=int(uid), items=None, k=K)
        ),
        list(timed_users),
    )
    return {
        "n_items": n_items,
        "build_s": build_seconds,
        "retrieved_ms": retrieved_ms,
        "full_ms": full_ms,
        "speedup": full_ms / retrieved_ms,
        "recall": recall,
    }


def test_candidate_retrieval_speedup_and_recall():
    legs = [
        run_leg(n_items, seed=17 + i)
        for i, n_items in enumerate(CATALOG_SIZES)
    ]

    lines = [
        f"candidate retrieval vs exact full scan"
        f"{' [SMOKE]' if SMOKE else ''}: end-to-end recommend() with the "
        f"Advice stage on, k={K}, k_candidates={K_CANDIDATES}, "
        f"n_probe={N_PROBE}, clustered catalogs "
        f"({N_TRUE_CLUSTERS} true clusters, dim {DIM})",
    ]
    for leg in legs:
        lines.append(
            f"  n={leg['n_items']:>9,}   index build {leg['build_s']:7.2f} s   "
            f"retrieval {leg['retrieved_ms']:9.3f} ms/req   "
            f"full scan {leg['full_ms']:10.3f} ms/req   "
            f"speedup {leg['speedup']:7.1f}x   recall@{K} {leg['recall']:.3f}"
        )
    record_artifact(
        f"S10_candidate_retrieval{'_smoke' if SMOKE else ''}",
        "\n".join(lines),
    )

    for leg in legs:
        assert leg["recall"] >= RECALL_GATE, (
            f"recall@{K} {leg['recall']:.3f} < {RECALL_GATE} at "
            f"n={leg['n_items']:,} — widen n_probe/k_candidates or fix "
            "the index"
        )
    for leg in legs:
        if leg["n_items"] >= 100_000:
            assert leg["speedup"] >= SPEEDUP_GATE_FULL, (
                f"retrieval speedup {leg['speedup']:.1f}x < "
                f"{SPEEDUP_GATE_FULL}x at n={leg['n_items']:,}"
            )


def test_exact_fallback_parity_on_the_service_path():
    """k == catalog forces the exact fallback: identical responses."""
    provider, attributes = build_catalog(500, seed=3)
    retrieval_service, full_service, __ = build_services(provider, attributes)
    items = list(range(500))
    for uid in (0, 1, 2):
        request = RecommendationRequest(user_id=uid, items=items, k=500)
        assert (
            retrieval_service.recommend(request).ranked
            == full_service.recommend(request).ranked
        )

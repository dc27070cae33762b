"""Batch-first serving layer: one scoring contract for every scorer family.

The redesign of the delivery API around the context-aware-RS shape the
literature converges on (Santana & Domingues 2020; Zheng 2017): a uniform
:class:`~repro.serving.scorer.Scorer` protocol over which contextual
pre-/post-filters and the paper's emotional Advice adjustments compose as
matrix operations.

* :mod:`repro.serving.scorer` — the ``score_batch`` protocol, the
  :class:`ScorerBase` convenience base and the shared ``k`` validation;
* :mod:`repro.serving.adapters` — adapters wrapping every existing
  scorer family (FunkSVD, kNN, popularity, content, campaign propensity,
  ``(model, item) -> float`` callables, precomputed matrices);
* :mod:`repro.serving.requests` — typed request/response envelopes with
  per-item score breakdowns;
* :mod:`repro.serving.service` — the :class:`RecommendationService`
  facade implementing both paper functions on the batch path;
* :mod:`repro.serving.replica` — the replica refresh protocol
  (:class:`Checkpointer` on the primary, :class:`ReplicaRefresher`
  swapping generation-stamped mmap stores under a live service).
"""

from repro.serving.adapters import (
    ContentScorer,
    FunkSVDScorer,
    LegacyScorerAdapter,
    MatrixScorer,
    PopularityScorer,
    PropensityScorer,
    RatingModelScorer,
    as_scorer,
)
from repro.serving.requests import (
    RecommendationRequest,
    RecommendationResponse,
    ScoredItem,
    SelectedUser,
    SelectionRequest,
    SelectionResponse,
)
from repro.serving.replica import Checkpointer, ReplicaRefresher
from repro.serving.scorer import ItemId, Scorer, ScorerBase, validate_k
from repro.serving.service import RecommendationService
from repro.core.sum_model import UnknownUserError

__all__ = [
    "Checkpointer",
    "ContentScorer",
    "FunkSVDScorer",
    "ItemId",
    "LegacyScorerAdapter",
    "MatrixScorer",
    "PopularityScorer",
    "PropensityScorer",
    "RatingModelScorer",
    "RecommendationRequest",
    "RecommendationResponse",
    "RecommendationService",
    "ReplicaRefresher",
    "Scorer",
    "ScorerBase",
    "ScoredItem",
    "SelectedUser",
    "SelectionRequest",
    "SelectionResponse",
    "UnknownUserError",
    "as_scorer",
    "validate_k",
]

"""The two campaign functions of Section 5.4 (legacy entry points).

"SPA delivered more empathic recommendations through two well differenced
functions:

1. The recommendation function: to send in an individualized manner the
   action with most probabilities of execution by the user.
2. The selection function: to choose the user with greater propensity to
   follow a course in the recommender system."

.. deprecated::
    :class:`EmotionAwareRecommender` is now a thin shim over the
    batch-first serving layer (:mod:`repro.serving`): every call routes
    through :class:`~repro.serving.service.RecommendationService` and the
    vectorized Advice stage.  New code should build a
    ``RecommendationService`` directly and register scorers through the
    :class:`~repro.serving.scorer.Scorer` protocol; the signatures here
    are kept for compatibility with existing call sites.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.core.advice import AdviceEngine, DomainProfile
from repro.core.sum_model import SmartUserModel, SumRepository, SumResolver

#: ``base_scorer(model, item) -> float`` — higher means more appealing.
BaseScorer = Callable[[SmartUserModel, str], float]


@dataclass(frozen=True)
class RankedItem:
    """One recommendation: item id, base score, emotionally adjusted score."""

    item: str
    base_score: float
    adjusted_score: float


class EmotionAwareRecommender:
    """Emotion-adjusted ranking over items and users (compatibility shim).

    Parameters
    ----------
    base_scorer:
        Emotion-free appeal estimate per (user model, item).
    domain_profile:
        Excitatory links of the interaction domain.
    item_attributes:
        ``item -> {item_attribute: presence}`` metadata used by the
        Advice stage.
    advice:
        The advice engine (default configuration if omitted).
    """

    def __init__(
        self,
        base_scorer: BaseScorer,
        domain_profile: DomainProfile,
        item_attributes: Mapping[str, Mapping[str, float]],
        advice: AdviceEngine | None = None,
    ) -> None:
        self.base_scorer = base_scorer
        self.domain_profile = domain_profile
        self.item_attributes = dict(item_attributes)
        self.advice = advice or AdviceEngine()

    def _service(self, sums: SumResolver):
        """A serving facade over ``sums``, the legacy scorer registered:
        built per call, so each call reads ``item_attributes`` afresh."""
        # Imported lazily: repro.serving depends on repro.core.advice,
        # and this module is imported by repro.core's own __init__.
        from repro.serving.adapters import LegacyScorerAdapter
        from repro.serving.service import RecommendationService

        service = RecommendationService(
            sums=sums,
            domain_profile=self.domain_profile,
            item_attributes=self.item_attributes,
            advice=self.advice,
        )
        service.register("base", LegacyScorerAdapter(self.base_scorer, sums))
        return service

    # -- recommendation function ------------------------------------------

    def recommend(
        self, model: SmartUserModel, items: Sequence[str], k: int = 5
    ) -> list[RankedItem]:
        """Top-``k`` items for one user, emotionally adjusted.

        This is the paper's *recommendation function*: the action/item with
        the highest probability of execution by the user goes first.
        """
        from repro.serving.requests import RecommendationRequest
        from repro.serving.scorer import validate_k

        validate_k(k)
        if len(items) == 0:
            return []
        # the model in hand is the whole repository: held, not copied
        response = self._service(SumRepository([model])).recommend(
            RecommendationRequest(
                user_id=model.user_id, items=list(items), k=k
            )
        )
        return [
            RankedItem(entry.item, entry.base_score, entry.adjusted_score)
            for entry in response.ranked
        ]

    def best_action(
        self, model: SmartUserModel, items: Sequence[str]
    ) -> RankedItem:
        """The single most-probable item (recommendation function, k=1)."""
        if not items:
            raise ValueError("no items to recommend from")
        return self.recommend(model, items, k=1)[0]

    # -- selection function --------------------------------------------------

    def select_users(
        self,
        repository: SumRepository,
        item: str,
        user_ids: Sequence[int] | None = None,
        k: int | None = None,
    ) -> list[tuple[int, float]]:
        """Users ranked by adjusted propensity for ``item``.

        This is the paper's *selection function*: "to choose the user with
        greater propensity to follow a course".  Returns ``(user_id,
        adjusted_score)`` pairs, best first, truncated to ``k`` if given
        (``k`` is validated uniformly with :meth:`recommend`: 0 or a
        negative ``k`` raises instead of silently mis-truncating).
        """
        from repro.serving.requests import SelectionRequest
        from repro.serving.scorer import validate_k

        validate_k(k, allow_none=True)
        if user_ids is not None and len(user_ids) == 0:
            return []
        response = self._service(repository).select_users(
            SelectionRequest(item=item, user_ids=user_ids, k=k)
        )
        return response.pairs()

    def score_matrix(
        self,
        repository: SumRepository,
        items: Sequence[str],
        user_ids: Sequence[int] | None = None,
    ) -> tuple[np.ndarray, list[int]]:
        """Adjusted scores for every (user, item) pair, in one batch pass.

        Returns ``(matrix, row_user_ids)`` with items in column order.
        """
        ids = list(user_ids) if user_ids is not None else repository.user_ids()
        matrix = self._service(repository).score_matrix(ids, list(items))
        return matrix, ids

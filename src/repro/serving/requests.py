"""Typed request/response envelopes of the serving layer.

The paper's two delivery functions become two request types:

* :class:`RecommendationRequest` — "send in an individualized manner the
  action with most probabilities of execution by the user";
* :class:`SelectionRequest` — "choose the user with greater propensity to
  follow a course".

Responses carry per-item score breakdowns (base score, emotional
multiplier, adjusted score) so callers can audit exactly what the Advice
stage did to the ranking.  ``response.ranked`` is a
:class:`~repro.serving.ranking.Ranking` — the breakdown as parallel
arrays; a :class:`ScoredItem` / :class:`SelectedUser` is built when an
entry is indexed or iterated, not before.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.serving.ranking import Ranking
from repro.serving.scorer import ItemId, validate_k


@dataclass(frozen=True)
class RecommendationRequest:
    """Rank ``items`` for one user.

    Parameters
    ----------
    user_id:
        The user to serve.
    items:
        Candidate item ids (course ids, slugs, …).  ``None`` means "the
        whole served catalog": the service then requires an attached
        :class:`~repro.retrieval.retriever.CandidateRetriever`, whose
        indexed catalog defines the item universe — the O(k) hot path,
        since no per-item list is ever materialized on a retrieval hit.
    k:
        Ranking depth, >= 1.
    scorer:
        Registered scorer name (service default when omitted).
    adjust:
        Apply the emotional Advice stage on top of the base scores.
    deadline_s:
        Latency budget in seconds: the service checks it between
        pipeline stages and raises
        :class:`~repro.serving.budget.DeadlineExceeded` once exhausted.
        ``None`` (default) serves without a deadline.
    partial_ok:
        With a deadline, opt in to degraded responses: a budget
        exhausted after base scoring skips the emotional Advice stage
        (``response.degraded`` is then ``True``) instead of failing.
    """

    user_id: int
    items: Sequence[ItemId] | None = None
    k: int = 5
    scorer: str | None = None
    adjust: bool = True
    deadline_s: float | None = None
    partial_ok: bool = False

    def __post_init__(self) -> None:
        validate_k(self.k)
        if self.items is not None and len(self.items) == 0:
            raise ValueError(
                "no items to recommend from (pass None for the full catalog)"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(
                f"deadline_s must be > 0 (or None), got {self.deadline_s}"
            )


@dataclass(frozen=True)
class SelectionRequest:
    """Rank users by propensity for one ``item``.

    ``user_ids=None`` means every user the service's SUM repository
    knows; ``k=None`` returns the full ranking.
    """

    item: ItemId
    user_ids: Sequence[int] | None = None
    k: int | None = None
    scorer: str | None = None
    adjust: bool = True
    #: latency budget + degradation opt-in; see RecommendationRequest
    deadline_s: float | None = None
    partial_ok: bool = False

    def __post_init__(self) -> None:
        validate_k(self.k, allow_none=True)
        if self.user_ids is not None and len(self.user_ids) == 0:
            raise ValueError("empty user_ids; pass None for all users")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(
                f"deadline_s must be > 0 (or None), got {self.deadline_s}"
            )


@dataclass(frozen=True)
class ScoredItem:
    """One ranked item with its full score breakdown."""

    item: ItemId
    base_score: float
    multiplier: float
    adjusted_score: float


@dataclass(frozen=True)
class RecommendationResponse:
    """Top-``k`` ranking for one user, best first.

    ``sum_version`` is the user's emotional-state version when the
    service's ``sums`` is a versioned resolver (the streaming layer's
    :class:`~repro.streaming.cache.SumCache`); ``None`` on plain
    repositories.  It makes staleness observable as a freshness floor:
    a response at version *v* reflects at least every update batch
    published up to *v* (batches committed while the response was being
    scored may additionally be included).

    ``generation`` is the checkpoint generation of the SUM store the
    response was served from — stamped when the resolver is a
    generation-loaded replica (see :class:`~repro.serving.replica.
    ReplicaRefresher`), ``None`` when serving live state.  Both stamps
    are captured from the *same* resolver snapshot the scores came from,
    so a replica swap mid-request can never produce a torn pair.

    ``trace_id`` is the request's telemetry trace id — minted at request
    arrival when the service runs with an enabled tracer (its per-stage
    spans land under this id), ``None`` when tracing is off.
    """

    user_id: int
    scorer: str
    ranked: Ranking[ScoredItem]
    sum_version: int | None = None
    generation: int | None = None
    trace_id: int | None = None
    #: the deadline budget ran out after base scoring and the request
    #: opted into partial results: the emotional Advice stage was
    #: skipped, so every multiplier is 1.0 (base ranking only)
    degraded: bool = False

    @property
    def items(self) -> list[ItemId]:
        """Ranked item ids, best first."""
        return list(self.ranked.ids)

    @property
    def best(self) -> ScoredItem:
        """The single most-probable item (the paper's k=1 case)."""
        if not self.ranked:
            raise ValueError("empty recommendation response")
        return self.ranked[0]


@dataclass(frozen=True)
class SelectedUser:
    """One selected user with the score breakdown for the target item."""

    user_id: int
    base_score: float
    multiplier: float
    adjusted_score: float


@dataclass(frozen=True)
class SelectionResponse:
    """Users ranked by adjusted propensity for one item, best first.

    ``sum_version`` carries the resolver's *global* version (total
    published update batches, a freshness floor captured before scoring)
    when the service serves from a versioned resolver; ``None`` on plain
    repositories.  ``generation`` is the checkpoint generation when the
    resolver is a generation-loaded replica — captured from the same
    resolver snapshot the scores came from (never a torn pair).
    ``trace_id`` matches :class:`RecommendationResponse`.
    """

    item: ItemId
    scorer: str
    ranked: Ranking[SelectedUser]
    sum_version: int | None = None
    generation: int | None = None
    trace_id: int | None = None
    #: Advice stage skipped under an exhausted budget (partial_ok)
    degraded: bool = False

    def pairs(self) -> list[tuple[int, float]]:
        """``(user_id, adjusted_score)`` pairs, best first."""
        return list(zip(self.ranked.ids, self.ranked.adjusted.tolist()))

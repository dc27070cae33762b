"""Adapters putting every existing scorer family behind the batch contract.

Each adapter wraps one seed scorer family and exposes
:meth:`~repro.serving.scorer.ScorerBase.score_batch`.  Families with
linear-algebra structure (FunkSVD, popularity, content centroids, a
precomputed matrix) get genuinely vectorized paths; inherently pairwise
models (kNN aggregation, ``(model, item) -> float`` callables) are
wrapped in a single tight loop so callers still program against one
contract.

The adapters deliberately duck-type their wrapped models (``.predict``,
``.user_factors_`` …) instead of importing the concrete classes, so the
serving layer stays dependency-light and anything shaped like a seed
model — including user code — plugs in.
"""

from __future__ import annotations

import inspect
from typing import Callable, Sequence

import numpy as np

from repro.core.sum_model import SmartUserModel, SumResolver
from repro.serving.budget import Budget
from repro.serving.scorer import ItemId, ScorerBase

#: cached result of the accepts_budget signature probe
_ACCEPTS_BUDGET_ATTR = "__accepts_budget__"


def accepts_budget(scorer: object) -> bool:
    """Whether ``scorer.score_batch`` takes an optional ``budget`` hint.

    Probed once per scorer via :func:`inspect.signature` and cached on
    the instance, so the serving hot path pays one attribute read.  The
    hint is advisory: scorers that accept it may cut work cooperatively
    when the request deadline runs low (see :class:`RatingModelScorer`),
    while the service still enforces the hard checks between stages.
    """
    cached = getattr(scorer, _ACCEPTS_BUDGET_ATTR, None)
    if cached is not None:
        return bool(cached)
    try:
        parameters = inspect.signature(scorer.score_batch).parameters
        result = "budget" in parameters
    except (TypeError, ValueError, AttributeError):
        result = False
    try:
        setattr(scorer, _ACCEPTS_BUDGET_ATTR, result)
    except (AttributeError, TypeError):
        pass  # slotted/frozen scorers just re-probe next time
    return result


class RatingModelScorer(ScorerBase):
    """Generic adapter around any ``model.predict(user_id, item_id)``.

    Covers :class:`~repro.cf.neighborhood.ItemKNN`,
    :class:`~repro.cf.neighborhood.UserKNN` and any other pairwise rating
    model; the batch is a single tight loop over the grid.

    The pairwise loop is the slowest scorer shape in the repo, so it
    honours the serving layer's ``budget`` hint: when the deadline runs
    out mid-grid, the remaining cells are filled with the mean of the
    cells scored so far (rank-neutral — they all tie) instead of blowing
    the budget after the fact.  The service's post-score deadline check
    still runs, so a cut grid only ever reaches the caller under
    ``partial_ok`` (and is flagged ``degraded``).
    """

    def __init__(self, model: object) -> None:
        predict = getattr(model, "predict", None)
        if not callable(predict):
            raise TypeError(
                f"{type(model).__name__} has no callable .predict(user, item)"
            )
        self.model = model
        self._predict = predict

    def score_batch(
        self,
        user_ids: Sequence[int],
        items: Sequence[ItemId],
        budget: Budget | None = None,
    ) -> np.ndarray:
        grid = np.empty((len(user_ids), len(items)), dtype=np.float64)
        predict = self._predict
        for row, user_id in enumerate(user_ids):
            if budget is not None and budget.expired():
                return _neutral_fill(grid, row, len(items))
            for col, item in enumerate(items):
                grid[row, col] = predict(user_id, item)
        return grid

    def score(self, user_id: int, item: ItemId) -> float:
        return float(self._predict(user_id, item))


def _neutral_fill(grid: np.ndarray, rows_done: int, n_items: int) -> np.ndarray:
    """Fill unscored rows with the mean of the scored ones (tie scores)."""
    fill = float(grid[:rows_done].mean()) if rows_done and n_items else 0.0
    grid[rows_done:] = fill
    return grid


class FunkSVDScorer(ScorerBase):
    """Vectorized adapter for a fitted :class:`~repro.cf.mf.FunkSVD`.

    ``r̂ = μ + b_u + b_i + p_u·q_i`` for the whole grid in four ndarray
    ops, with the same bias-only fallbacks for unseen ids as
    ``FunkSVD.predict``.
    """

    def __init__(self, model: object) -> None:
        if getattr(model, "ratings", None) is None:
            raise ValueError("FunkSVDScorer needs a fitted FunkSVD")
        self.model = model

    def score_batch(
        self, user_ids: Sequence[int], items: Sequence[ItemId]
    ) -> np.ndarray:
        model = self.model
        ratings = model.ratings
        rows = np.asarray(
            [
                -1 if (p := ratings.user_index(u)) is None else p
                for u in user_ids
            ],
            dtype=np.int64,
        )
        cols = np.asarray(
            [
                -1 if (p := ratings.item_index(i)) is None else p
                for i in items
            ],
            dtype=np.int64,
        )
        grid = np.full((len(user_ids), len(items)), model.mu_)
        known_u = rows >= 0
        known_i = cols >= 0
        if known_u.any():
            grid[known_u] += model.user_bias_[rows[known_u]][:, None]
        if known_i.any():
            grid[:, known_i] += model.item_bias_[cols[known_i]][None, :]
        if known_u.any() and known_i.any():
            grid[np.ix_(known_u, known_i)] += (
                model.user_factors_[rows[known_u]]
                @ model.item_factors_[cols[known_i]].T
            )
        return grid


class PopularityScorer(ScorerBase):
    """Vectorized adapter for a fitted popularity/item-mean baseline.

    One damped-mean row broadcast to every user (the scorer is
    user-independent by construction).
    """

    def __init__(self, model: object) -> None:
        if getattr(model, "ratings", None) is None:
            raise ValueError("PopularityScorer needs a fitted recommender")
        self.model = model

    def score_batch(
        self, user_ids: Sequence[int], items: Sequence[ItemId]
    ) -> np.ndarray:
        model = self.model
        ratings = model.ratings
        global_mean = ratings.global_mean()
        row = np.asarray(
            [
                global_mean
                if (col := ratings.item_index(i)) is None
                else model._item_means[col]
                for i in items
            ]
        )
        return np.tile(row, (len(user_ids), 1))


class ContentScorer(ScorerBase):
    """Vectorized adapter for a fitted content-based recommender.

    Stacks the user profile centroids and item feature vectors once;
    cosine similarities for the whole grid are one normalized matmul.
    With ``rating_scale=True`` (default) it matches ``predict`` (user-mean
    anchored, clipped to [1, 5]); otherwise it matches raw ``score``.
    """

    def __init__(self, model: object, rating_scale: bool = True) -> None:
        if getattr(model, "ratings", None) is None:
            raise ValueError("ContentScorer needs a fitted recommender")
        self.model = model
        self.rating_scale = rating_scale

    @staticmethod
    def _normalized(rows: np.ndarray) -> np.ndarray:
        norms = np.linalg.norm(rows, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        return rows / norms

    def score_batch(
        self, user_ids: Sequence[int], items: Sequence[ItemId]
    ) -> np.ndarray:
        model = self.model
        zero = np.zeros(model.dim)
        profiles = self._normalized(
            np.vstack(
                [model._profiles.get(int(u), zero) for u in user_ids]
            )
        )
        features = self._normalized(
            np.vstack(
                [model.item_features.get(int(i), zero) for i in items]
            )
        )
        cosine = profiles @ features.T
        if not self.rating_scale:
            return cosine
        ratings = model.ratings
        global_mean = ratings.global_mean()
        base = np.asarray(
            [ratings.user_mean(u, default=global_mean) for u in user_ids]
        )
        return np.clip(base[:, None] + cosine, 1.0, 5.0)


class LegacyScorerAdapter(ScorerBase):
    """Adapter for per-pair callables ``(model, item) -> float``.

    ``resolver`` maps user ids to :class:`SmartUserModel` instances: any
    :class:`~repro.core.sum_model.SumResolver`.
    The wrapped callable is resolved per *user* (not per pair), so the
    batch makes exactly ``len(user_ids)`` model lookups.
    """

    def __init__(
        self,
        base_scorer: Callable[[SmartUserModel, ItemId], float],
        resolver: SumResolver,
    ) -> None:
        if not callable(base_scorer):
            raise TypeError("base_scorer must be callable")
        if not isinstance(resolver, SumResolver):
            raise TypeError(
                f"{type(resolver).__name__} cannot resolve user ids: "
                "needs a SumResolver"
            )
        self.base_scorer = base_scorer
        self._get = resolver.get

    def score_batch(
        self, user_ids: Sequence[int], items: Sequence[ItemId]
    ) -> np.ndarray:
        grid = np.empty((len(user_ids), len(items)), dtype=np.float64)
        base_scorer = self.base_scorer
        for row, user_id in enumerate(user_ids):
            model = self._get(user_id)
            for col, item in enumerate(items):
                grid[row, col] = base_scorer(model, item)
        return grid

    def score(self, user_id: int, item: ItemId) -> float:
        return float(self.base_scorer(self._get(user_id), item))


class PropensityScorer(ScorerBase):
    """Adapter for the campaign propensity stack.

    Items are course ids; each column is one calibrated
    ``engine.score_users`` pass (already batched over users inside the
    :class:`~repro.campaigns.propensity.FeatureBuilder`).

    Each column is a full feature-build + model pass, so the adapter
    honours the ``budget`` hint: once the deadline expires, remaining
    columns are filled with the mean of the scored ones (rank-neutral
    among themselves) — see :class:`RatingModelScorer` for the contract.
    """

    def __init__(self, engine: object) -> None:
        if not callable(getattr(engine, "score_users", None)):
            raise TypeError(
                f"{type(engine).__name__} has no .score_users(user_ids, course)"
            )
        self.engine = engine

    def score_batch(
        self,
        user_ids: Sequence[int],
        items: Sequence[ItemId],
        budget: Budget | None = None,
    ) -> np.ndarray:
        ids = [int(u) for u in user_ids]
        if not items:
            return np.zeros((len(ids), 0))
        catalog = self.engine.world.catalog
        columns: list[np.ndarray] = []
        for item in items:
            if budget is not None and budget.expired() and columns:
                fill = float(np.mean(columns))
                columns.extend(
                    [np.full(len(ids), fill)] * (len(items) - len(columns))
                )
                break
            columns.append(self.engine.score_users(ids, catalog.get(int(item))))
        return np.column_stack(columns)


class MatrixScorer(ScorerBase):
    """Adapter for a precomputed score matrix (cache / offline batch).

    Useful for serving scores materialized ahead of time; unknown users
    or items fall back to ``fill``.
    """

    def __init__(
        self,
        matrix: np.ndarray,
        user_ids: Sequence[int],
        items: Sequence[ItemId],
        fill: float = 0.0,
    ) -> None:
        self.matrix = np.asarray(matrix, dtype=np.float64)
        if self.matrix.shape != (len(user_ids), len(items)):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match "
                f"({len(user_ids)}, {len(items)})"
            )
        self._rows = {int(u): r for r, u in enumerate(user_ids)}
        self._cols = {i: c for c, i in enumerate(items)}
        self.fill = float(fill)

    def score_batch(
        self, user_ids: Sequence[int], items: Sequence[ItemId]
    ) -> np.ndarray:
        rows = np.asarray(
            [self._rows.get(int(u), -1) for u in user_ids], dtype=np.int64
        )
        cols = np.asarray(
            [self._cols.get(i, -1) for i in items], dtype=np.int64
        )
        grid = np.full((len(user_ids), len(items)), self.fill)
        known_u = rows >= 0
        known_i = cols >= 0
        if known_u.any() and known_i.any():
            grid[np.ix_(known_u, known_i)] = self.matrix[
                np.ix_(rows[known_u], cols[known_i])
            ]
        return grid


def as_scorer(candidate: object, resolver: SumResolver | None = None) -> ScorerBase:
    """Coerce anything scorer-shaped to the batch contract.

    Accepts an object already implementing ``score_batch``, a pairwise
    rating model with ``.predict``, or (given ``resolver``) a per-pair
    ``(model, item) -> float`` callable.
    """
    if isinstance(candidate, ScorerBase):
        return candidate
    if callable(getattr(candidate, "score_batch", None)):
        return candidate  # type: ignore[return-value]
    if callable(getattr(candidate, "predict", None)):
        return RatingModelScorer(candidate)
    if callable(candidate):
        if resolver is None:
            raise TypeError(
                "legacy scorer callables need a resolver (SumRepository)"
            )
        return LegacyScorerAdapter(candidate, resolver)
    raise TypeError(f"cannot adapt {type(candidate).__name__} to a Scorer")

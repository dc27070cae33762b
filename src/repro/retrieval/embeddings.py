"""Context-augmented embeddings: what the ANN index actually indexes.

The trick that makes retrieval rank-faithful is folding every term of
the served score into one inner product (the classic MIPS reduction):

* **item side** — ``[q_i | b_i | a_i]`` where ``q_i`` are the FunkSVD
  item factors, ``b_i`` the item bias, and ``a_i = G @ presence_i`` the
  item's *emotional affinity*: the domain profile's gain matrix ``G``
  (``n_emotions × n_attributes``, :meth:`~repro.core.advice.
  DomainProfile.layout`) applied to the item's attribute presences.
* **query side** — ``[p_u | 1 | w·e_u]`` where ``p_u`` are the user
  factors, the constant 1 picks up the item bias, and ``e_u =
  intensity_u ⊙ sensibility_u`` is the user's emotional evidence, read
  off the request's resolved :class:`~repro.core.sum_store.
  FrozenSumBatch` (a frozen copy of the user's row).

``query · item = p_u·q_i + b_i + w · e_uᵀ G presence_i``.  The first two
terms are the rank-relevant part of the FunkSVD score (``μ`` and ``b_u``
are constant across items for one user); the last is the first-order
expansion of the Advice stage's log-multiplier, whose per-link factors
are ``1 + gain_scale·gain·evidence`` — so ``context_weight`` defaults to
the engine's ``gain_scale``.  Retrieval over these vectors surfaces the
same items the exact score-then-adjust pipeline ranks highest, and the
real scorer re-ranks the survivors, so any residual approximation only
costs recall, never precision of the returned scores.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.core.advice import AdviceEngine, DomainProfile, ItemTable, evidence_matrix
from repro.serving.scorer import ItemId


class EmbeddingProvider:
    """Context-augmented embeddings over a fitted FunkSVD model.

    Parameters
    ----------
    model:
        A fitted :class:`~repro.cf.mf.FunkSVD` (anything exposing its
        public ``user_embeddings()`` / ``item_embeddings()`` accessors).
    domain_profile:
        The serving domain's excitatory links; omit to index pure
        collaborative embeddings (no context block).
    item_attributes:
        ``item -> {attribute: presence}`` metadata, same mapping the
        Advice stage reads, held as the same read-only
        :class:`~repro.core.advice.ItemTable`.  Items without attributes
        get zero affinity.
    context_weight:
        Weight of the emotional-affinity block relative to the factor
        block; defaults to the advice engine's ``gain_scale`` (the
        first-order coefficient of the true multiplier).
    """

    def __init__(
        self,
        model: object,
        *,
        domain_profile: DomainProfile | None = None,
        item_attributes: Mapping[ItemId, Mapping[str, float]] | None = None,
        context_weight: float | None = None,
    ) -> None:
        for accessor in ("user_embeddings", "item_embeddings"):
            if not callable(getattr(model, accessor, None)):
                raise TypeError(
                    f"{type(model).__name__} has no {accessor}(); "
                    "EmbeddingProvider needs a fitted FunkSVD-style model"
                )
        self.model = model
        self.domain_profile = domain_profile
        self.item_attributes = ItemTable(item_attributes or {}, domain_profile)
        if context_weight is None:
            context_weight = AdviceEngine().gain_scale
        self.context_weight = float(context_weight)
        # user-row lookup, rebuilt whenever the model is refit (detected
        # by identity of the factor array — fit() reallocates)
        self._user_lookup: dict[int, int] = {}
        self._user_lookup_key: int | None = None

    def _emotions(self) -> tuple[str, ...]:
        if self.domain_profile is None:
            return ()
        return self.domain_profile.layout()[0]

    # -- build side --------------------------------------------------------

    def item_vectors(self) -> tuple[list[ItemId], np.ndarray]:
        """``(item_ids, matrix)`` to index — one row per known item."""
        item_ids, factors, biases = self.model.item_embeddings()
        blocks = [np.asarray(factors), np.asarray(biases)[:, None]]
        if self.domain_profile is not None:
            emotions, attributes, gains = self.domain_profile.layout()
            presence = AdviceEngine().presence_matrix(
                item_ids, self.item_attributes, self.domain_profile
            )
            blocks.append(presence @ gains.T)
        return list(item_ids), np.ascontiguousarray(np.hstack(blocks))

    def fingerprint(self) -> object:
        """Cheap identity of the current trained state.

        Changes exactly when ``fit()`` reallocates the factor arrays —
        the refresher compares fingerprints to decide whether a rebuild
        is due without touching any vectors.
        """
        __, factors, biases = self.model.item_embeddings()
        base = np.asarray(factors)
        return (
            base.__array_interface__["data"][0],
            base.shape,
            np.asarray(biases).__array_interface__["data"][0],
        )

    # -- query side --------------------------------------------------------

    def _user_rows(self, user_ids: Sequence[int]) -> np.ndarray:
        """Factor-matrix rows for ``user_ids`` (-1 for unknown users)."""
        ids, factors, __ = self.model.user_embeddings()
        key = id(np.asarray(factors).base) or id(factors)
        if key != self._user_lookup_key:
            self._user_lookup = {int(u): r for r, u in enumerate(ids)}
            self._user_lookup_key = key
        lookup = self._user_lookup
        return np.asarray(
            [lookup.get(int(u), -1) for u in user_ids], dtype=np.int64
        )

    def query_vectors(
        self, user_ids: Sequence[int], context: object | None = None
    ) -> np.ndarray:
        """``(n_users, dim)`` query matrix matching :meth:`item_vectors`.

        Unknown users get zero factors — their retrieval ranking then
        rides on item bias plus emotional context alone, which is
        exactly the cold-start behaviour of the exact pipeline (the
        scorer's bias-only fallback, context-adjusted).  ``context`` is
        what the serving resolve stage produced (anything
        :func:`~repro.core.advice.evidence_matrix` reads) or ``None``:
        zero evidence, the pure collaborative ranking.
        """
        __, factors, __bias = self.model.user_embeddings()
        factors = np.asarray(factors)
        rows = self._user_rows(user_ids)
        p = np.zeros((len(user_ids), factors.shape[1]))
        known = rows >= 0
        if known.any():
            p[known] = factors[rows[known]]
        blocks = [p, np.ones((len(user_ids), 1))]
        emotions = self._emotions()
        if emotions and context is not None:
            blocks.append(self.context_weight * evidence_matrix(context, emotions))
        elif emotions:
            blocks.append(np.zeros((len(user_ids), len(emotions))))
        return np.hstack(blocks)


class StaticEmbeddingProvider:
    """Fixed, precomputed embeddings (synthetic catalogs, benchmarks).

    The same provider contract as :class:`EmbeddingProvider` but over
    plain arrays: item rows are indexed as given, query rows are looked
    up by user id (unknown users get zero vectors), and the fingerprint
    is a manual version counter — call :meth:`bump` after replacing the
    arrays to signal the refresher.
    """

    def __init__(
        self,
        item_ids: Sequence[ItemId],
        item_matrix: np.ndarray,
        user_ids: Sequence[int],
        user_matrix: np.ndarray,
    ) -> None:
        self._item_ids = list(item_ids)
        self._items = np.asarray(item_matrix, dtype=np.float64)
        self._users = np.asarray(user_matrix, dtype=np.float64)
        if len(self._item_ids) != len(self._items):
            raise ValueError("item_matrix rows must match item_ids")
        if len(user_ids) != len(self._users):
            raise ValueError("user_matrix rows must match user_ids")
        if self._items.shape[1] != self._users.shape[1]:
            raise ValueError(
                f"item dim {self._items.shape[1]} != "
                f"user dim {self._users.shape[1]}"
            )
        self._rows = {int(u): r for r, u in enumerate(user_ids)}
        self._version = 0

    def item_vectors(self) -> tuple[list[ItemId], np.ndarray]:
        return list(self._item_ids), self._items

    def query_vectors(
        self, user_ids: Sequence[int], context: object | None = None
    ) -> np.ndarray:
        out = np.zeros((len(user_ids), self._users.shape[1]))
        for i, uid in enumerate(user_ids):
            row = self._rows.get(int(uid))
            if row is not None:
                out[i] = self._users[row]
        return out

    def bump(self) -> None:
        """Advance the fingerprint (the arrays were swapped for new ones)."""
        self._version += 1

    def fingerprint(self) -> object:
        return ("static", self._version)

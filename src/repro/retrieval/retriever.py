"""The serving-side retrieval stage: candidate generation + index swap.

:class:`CandidateRetriever` owns the live :class:`~repro.retrieval.
index.ClusteredANNIndex` and decides, per request, whether retrieval can
serve the candidate set or the service must fall back to the exact full
scan.  Its publication protocol mirrors the replica plane, shrunk to one
object pair:

* **writers** (:meth:`swap`, called by the
  :class:`~repro.retrieval.refresh.IndexRefresher` after a background
  build) hold ``_swap_lock`` and store the new ``(index, generation)``
  inside the page epoch's odd window;
* **readers** (:meth:`current`, on the request hot path) run lock-free:
  one :meth:`~repro.core.seqlock.Seqlock.read` of the pair,
  machine-checked by the analyzer's ``SQ001`` rule via the
  declarations below.  A starved read falls back to taking the writer
  lock, so a reader can never starve.

Generations are monotonic (a swap can only install a larger stamp), so
candidate sets served to one caller never go backwards in freshness —
the same contract :class:`~repro.serving.replica.ReplicaRefresher` gives
for SUM state.

The stage also participates in the deadline plane: given the request's
:class:`~repro.serving.budget.Budget` it first *shrinks* — halving
``n_probe``, then cutting the oversampled candidate count down to ``k``
— and only aborts (typed :class:`~repro.serving.budget.
DeadlineExceeded`) when the budget is already exhausted on entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Sequence

import numpy as np

from repro.analysis.contracts import (
    declare_lock,
    declare_seqlock,
    guarded_by,
    make_lock,
)
from repro.core.interned import InternedIds
from repro.core.seqlock import Seqlock, SeqlockStarved
from repro.obs.metrics import (
    SIZE_BUCKETS,
    MetricsRegistry,
    NullRegistry,
    labelled,
    resolve_registry,
)
from repro.retrieval.index import ClusteredANNIndex
from repro.serving.budget import Budget
from repro.serving.scorer import ItemId


declare_lock("CandidateRetriever._swap_lock")
declare_seqlock(
    "CandidateRetriever._epoch",
    protects=("_read_pair",),
    writer_lock="CandidateRetriever._swap_lock",
)


@dataclass(frozen=True)
class RetrievalConfig:
    """Recall/latency knobs of the retrieval stage.

    Parameters
    ----------
    k_candidates:
        Oversampled candidate-set size handed to the re-ranking scorer
        (always at least the request's ``k``).  More candidates → higher
        recall, linearly more re-rank work.
    n_probe:
        Clusters probed per search.  More probes → higher recall,
        linearly more page scans (the index has ``≈ sqrt(n)`` clusters,
        so each probe costs ``≈ sqrt(n)`` dot products).
    min_catalog:
        Below this many indexed items the exact scan is cheaper than the
        probe machinery; retrieval steps aside.
    budget_headroom:
        Shrink knobs when the remaining budget is under ``headroom ×``
        the EWMA of recent search times (cooperate *before* the deadline
        plane has to abort).
    ewma_alpha:
        Smoothing factor of that search-time EWMA.
    """

    k_candidates: int = 128
    n_probe: int = 8
    min_catalog: int = 256
    budget_headroom: float = 2.0
    ewma_alpha: float = 0.2

    def __post_init__(self) -> None:
        if self.k_candidates < 1:
            raise ValueError(f"k_candidates must be >= 1, got {self.k_candidates}")
        if self.n_probe < 1:
            raise ValueError(f"n_probe must be >= 1, got {self.n_probe}")
        if self.min_catalog < 0:
            raise ValueError(f"min_catalog must be >= 0, got {self.min_catalog}")
        if self.budget_headroom < 1.0:
            raise ValueError(
                f"budget_headroom must be >= 1, got {self.budget_headroom}"
            )
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError(f"ewma_alpha {self.ewma_alpha} outside (0, 1]")


@guarded_by("_swap_lock", "_index", "_generation")
class CandidateRetriever:
    """Candidate generation over an atomically swappable ANN index.

    Parameters
    ----------
    provider:
        An embedding provider (:class:`~repro.retrieval.embeddings.
        EmbeddingProvider` shaped): ``query_vectors(user_ids, context)``
        on the serve path; the refresher also uses its build-side half.
    config:
        Recall/latency knobs; see :class:`RetrievalConfig`.
    index:
        Optionally start with a pre-built index (generation 1);
        otherwise every request falls back to the exact scan until the
        first :meth:`swap`.
    telemetry:
        Metrics registry for the ``serving.retrieval.*`` family.
    """

    def __init__(
        self,
        provider: object,
        *,
        config: RetrievalConfig | None = None,
        index: ClusteredANNIndex | None = None,
        telemetry: MetricsRegistry | NullRegistry | None = None,
    ) -> None:
        if not callable(getattr(provider, "query_vectors", None)):
            raise TypeError(
                f"{type(provider).__name__} has no query_vectors(); "
                "CandidateRetriever needs an embedding provider"
            )
        self.provider = provider
        self.config = config or RetrievalConfig()
        self._swap_lock = make_lock("CandidateRetriever._swap_lock")
        #: seqlock epoch over the (index, generation) pair: odd while a
        #: swap is in flight, even when the pair is consistent
        self._epoch = Seqlock(np.zeros(1, dtype=np.int64))
        self._index: ClusteredANNIndex | None = None
        self._generation = 0
        self._search_ewma = 0.0
        registry = resolve_registry(telemetry)
        self._m_requests = {
            path: registry.counter(
                labelled("serving.retrieval.requests", path=path)
            )
            for path in ("retrieved", "fallback")
        }
        self._m_fallbacks = {
            reason: registry.counter(
                labelled("serving.retrieval.fallbacks", reason=reason)
            )
            for reason in (
                "no_index", "small_catalog", "exact_k", "uncovered",
            )
        }
        self._m_shrunk = {
            knob: registry.counter(
                labelled("serving.retrieval.shrunk", knob=knob)
            )
            for knob in ("n_probe", "k_candidates")
        }
        self._m_seconds = registry.histogram("serving.retrieval.seconds")
        self._m_candidates = registry.histogram(
            "serving.retrieval.candidates", SIZE_BUCKETS
        )
        registry.gauge(
            "serving.retrieval.generation",
            fn=lambda: float(self._generation),
        )
        if index is not None:
            self.swap(index)

    # -- publication protocol ---------------------------------------------

    def _read_pair(self) -> tuple[ClusteredANNIndex | None, int]:
        """The seqlock-protected primitive: one raw read of the pair.

        Callers must either hold ``_swap_lock`` or go through the page
        epoch's ``read`` — enforced statically (``SQ001``).
        """
        return self._index, self._generation

    def current(self) -> tuple[ClusteredANNIndex | None, int]:
        """Consistent ``(index, generation)`` snapshot, lock-free.

        Retried while a swap is in flight; a read starved by a
        pathological swap storm takes the writer lock instead — bounded
        work either way.
        """
        try:
            return self._epoch.read(0, self._read_pair)
        except SeqlockStarved:
            with self._swap_lock:
                return self._read_pair()

    def swap(self, index: ClusteredANNIndex, generation: int | None = None) -> int:
        """Atomically publish a new index; returns its generation stamp.

        Monotonic: an explicit ``generation`` lower than the current one
        is rejected, and the default stamp is ``current + 1``.  The
        pair mutates inside the epoch's odd window, so lock-free readers
        can never observe a torn pair.
        """
        with self._swap_lock:
            if generation is None:
                generation = self._generation + 1
            elif generation <= self._generation:
                raise ValueError(
                    f"generation {generation} would move backwards "
                    f"(currently {self._generation})"
                )
            with self._epoch.write(0):
                self._index = index
                self._generation = int(generation)
            stamped = self._generation
        return stamped

    @property
    def generation(self) -> int:
        """Generation of the currently served index (0 before any swap)."""
        return self.current()[1]

    def catalog_items(self) -> tuple[ItemId, ...]:
        """The indexed catalog, page order (empty before the first swap).

        The service uses this as the item universe for requests that do
        not name explicit items.
        """
        index, __ = self.current()
        return index.item_ids if index is not None else ()

    # -- the serve path ----------------------------------------------------

    def _fallback(self, reason: str) -> None:
        self._m_requests["fallback"].inc()
        self._m_fallbacks[reason].inc()
        return None

    def retrieve(
        self,
        user_ids: Sequence[int],
        items: Sequence[ItemId] | None,
        k: int,
        *,
        context: object | None = None,
        budget: Budget | None = None,
    ) -> InternedIds | None:
        """Candidate items for one user, best first, gathered from the
        index's id vector — or ``None`` for the exact scan.

        ``items=None`` means "the indexed catalog" (the whole-index
        search, the O(k) hot path); an explicit ``items`` list restricts
        the search to those rows, which is exact over the subset but
        costs one pass over it.  ``None`` is returned — and counted with
        a reason — whenever the index cannot guarantee coverage:

        * ``no_index`` — nothing swapped in yet;
        * ``small_catalog`` — fewer indexed items than
          ``config.min_catalog`` (exact scan is cheaper);
        * ``exact_k`` — the oversampled candidate count reaches the
          searchable catalog, so the exact scan returns the same set
          (this is the ``k >= catalog`` exactness guarantee);
        * ``uncovered`` — the request names an item the index does not
          hold (a retrieval answer could silently drop it).

        With a ``budget``, an already-exhausted deadline raises
        :class:`~repro.serving.budget.DeadlineExceeded` for stage
        ``"retrieve"``; a merely *tight* one shrinks ``n_probe`` and
        then the candidate count before any work happens.
        """
        if budget is not None:
            budget.check("retrieve")
        index, __generation = self.current()
        if index is None:
            return self._fallback("no_index")
        if len(index) < self.config.min_catalog:
            return self._fallback("small_catalog")
        allowed = None
        universe = len(index)
        if items is not None:
            if len(items) == universe and len(items) > 0:
                first = next(iter(items))
                if first == index.item_ids[0] and tuple(items) == index.item_ids:
                    items = None  # the indexed catalog, spelled out
        if items is not None:
            allowed = index.mask_rows(items)
            if allowed is None:
                return self._fallback("uncovered")
            universe = len(allowed)
        n_probe = self.config.n_probe
        k_candidates = max(int(k), self.config.k_candidates)
        if budget is not None and self._search_ewma > 0.0:
            remaining = budget.remaining()
            if remaining < self.config.budget_headroom * self._search_ewma:
                n_probe = max(1, n_probe // 2)
                self._m_shrunk["n_probe"].inc()
                if remaining < self._search_ewma:
                    k_candidates = int(k)
                    self._m_shrunk["k_candidates"].inc()
        if k_candidates >= universe:
            return self._fallback("exact_k")
        started = perf_counter()
        query = self.provider.query_vectors(list(user_ids), context)
        # single-user stage: recommend() serves one user per request
        rows = index.search_rows(
            query[0], k_candidates, n_probe=n_probe, allowed_rows=allowed
        )
        candidates = InternedIds(index.ids[rows])
        elapsed = perf_counter() - started
        alpha = self.config.ewma_alpha
        self._search_ewma = (
            elapsed if self._search_ewma == 0.0
            else (1.0 - alpha) * self._search_ewma + alpha * elapsed
        )
        self._m_requests["retrieved"].inc()
        self._m_seconds.observe(elapsed)
        self._m_candidates.observe(len(candidates))
        return candidates

"""Index freshness under streaming: rebuild in background, swap atomically.

:class:`IndexRefresher` is the retrieval plane's twin of
:class:`~repro.serving.replica.ReplicaRefresher`, with the manifest poll
replaced by two cheap staleness probes:

* the embedding provider's :meth:`fingerprint` — changes when the
  underlying model is refit (new factor arrays);
* the streaming :class:`~repro.streaming.cache.SumCache`'s
  ``global_version`` — advances as update batches publish, so emotional
  drift triggers rebuilds on the same cadence replica refreshes run on.

The expensive part (vector materialization + k-means + page layout)
runs entirely before publication, with requests still serving the old
index; publication itself is one
:meth:`~repro.retrieval.retriever.CandidateRetriever.swap` under the
retriever's epoch protocol, and generation stamps are monotonic.  Like
the replica refresher, it works synchronously (:meth:`poll`) for
deterministic tests or as a daemon cadence (:meth:`start`).
"""

from __future__ import annotations

from time import perf_counter

from repro.analysis.contracts import declare_lock, guarded_by, make_lock
from repro.core.cadence import CadenceDriven
from repro.obs.metrics import MetricsRegistry, NullRegistry, resolve_registry
from repro.retrieval.index import ClusteredANNIndex
from repro.retrieval.retriever import CandidateRetriever


declare_lock("IndexRefresher._build_lock")


@guarded_by("_build_lock", "_built_fingerprint", "_built_version")
class IndexRefresher(CadenceDriven):
    """Rebuild the ANN index when the model or emotional state moves on.

    Parameters
    ----------
    provider:
        The embedding provider (build side: ``item_vectors()`` +
        ``fingerprint()``).
    retriever:
        The live :class:`~repro.retrieval.retriever.CandidateRetriever`
        new indexes are swapped into.
    cache:
        Optional versioned resolver (``.global_version``, e.g. a
        :class:`~repro.streaming.cache.SumCache`): emotional updates
        then count toward staleness too, not just model refits.
    min_new_versions:
        Rebuild only after the cache advanced by at least this many
        published batches (damping against rebuild-per-event churn).
    interval:
        Cadence in seconds for :meth:`start`; ``None`` (default) means
        rebuilds only happen on explicit :meth:`poll` calls.
    n_clusters / n_iter / seed:
        Forwarded to :meth:`~repro.retrieval.index.ClusteredANNIndex.
        build`.
    """

    def __init__(
        self,
        provider: object,
        retriever: CandidateRetriever,
        *,
        cache: object | None = None,
        min_new_versions: int = 1,
        interval: float | None = None,
        n_clusters: int | None = None,
        n_iter: int = 10,
        seed: int = 0,
        telemetry: MetricsRegistry | NullRegistry | None = None,
    ) -> None:
        if not callable(getattr(provider, "item_vectors", None)):
            raise TypeError(
                f"{type(provider).__name__} has no item_vectors(); "
                "IndexRefresher needs an embedding provider"
            )
        if min_new_versions < 1:
            raise ValueError(
                f"min_new_versions must be >= 1, got {min_new_versions}"
            )
        self.provider = provider
        self.retriever = retriever
        self.cache = cache
        self.min_new_versions = int(min_new_versions)
        self.n_clusters = n_clusters
        self.n_iter = int(n_iter)
        self.seed = int(seed)
        self._build_lock = make_lock("IndexRefresher._build_lock")
        #: provider fingerprint / cache version the served index was
        #: built from (None until the first build)
        self._built_fingerprint: object | None = None
        self._built_version: int | None = None
        registry = resolve_registry(telemetry)
        self._init_cadence(
            self.poll, interval, "retrieval-index-refresher",
            registry.counter("serving.retrieval.cadence_failures"),
        )
        self._m_rebuilds = registry.counter("serving.retrieval.index_rebuilds")
        self._m_build_seconds = registry.histogram(
            "serving.retrieval.index_build_seconds"
        )
        self._g_items = registry.gauge("serving.retrieval.index_items")

    def _cache_version(self) -> int | None:
        version = None if self.cache is None else self.cache.global_version
        return int(version) if version is not None else None

    def _stale(self) -> bool:
        if self._built_fingerprint is None:
            return True  # never built
        fingerprint = getattr(self.provider, "fingerprint", None)
        if callable(fingerprint) and fingerprint() != self._built_fingerprint:
            return True
        version = self._cache_version()
        if version is not None:
            floor = self._built_version
            if floor is None or version >= floor + self.min_new_versions:
                return True
        return False

    def poll(self, force: bool = False) -> int | None:
        """Rebuild + swap if stale; returns the new generation (or None).

        The staleness probes and the build both run under ``_build_lock``
        (one rebuild at a time); the service keeps answering from the
        old index until the final :meth:`~repro.retrieval.retriever.
        CandidateRetriever.swap`.  The cache version is captured *before*
        vectors are read, so the recorded floor is conservative: batches
        published mid-build trigger the next poll rather than being
        silently claimed.
        """
        started = perf_counter()
        with self._build_lock:
            if not force and not self._stale():
                return None
            version = self._cache_version()
            fingerprint = getattr(self.provider, "fingerprint", None)
            built_from = fingerprint() if callable(fingerprint) else object()
            item_ids, vectors = self.provider.item_vectors()
            index = ClusteredANNIndex.build(
                item_ids,
                vectors,
                n_clusters=self.n_clusters,
                n_iter=self.n_iter,
                seed=self.seed,
            )
            generation = self.retriever.swap(index)
            self._built_fingerprint = built_from
            self._built_version = version
            indexed = len(index)
        # instruments record after the lock releases (leaf-lock rule)
        self._m_rebuilds.inc()
        self._m_build_seconds.observe(perf_counter() - started)
        self._g_items.set(float(indexed))
        return generation

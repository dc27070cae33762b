"""The batch-first recommendation service facade: the paper's two
campaign functions (Section 5.4).

"SPA delivered more empathic recommendations through two well differenced
functions:

1. The recommendation function: to send in an individualized manner the
   action with most probabilities of execution by the user.
2. The selection function: to choose the user with greater propensity to
   follow a course in the recommender system."

:class:`RecommendationService` holds a named registry of
:class:`~repro.serving.scorer.Scorer` implementations plus the emotional
configuration of the Advice stage (SUM repository, domain profile, item
attributes), and serves both functions on the batch path:

* :meth:`RecommendationService.recommend` — the *recommendation
  function* (top-k items for one user);
* :meth:`RecommendationService.select_users` — the *selection function*
  (users ranked by propensity for one item).

Both run as ``score_batch`` + one vectorized
:meth:`~repro.core.advice.AdviceEngine.multiplier_matrix` pass, ranked
on arrays by :func:`~repro.serving.ranking.top_k` — no per-pair dict
churn and no per-cell objects anywhere on the serving path.

With a :class:`~repro.retrieval.retriever.CandidateRetriever` attached,
``recommend`` inserts a retrieval stage between resolve and score
(resolve → retrieve → score → advice): the ANN index proposes an
oversampled candidate set and the scorer re-ranks *only* those items,
so the hot path is O(k) in the catalog instead of O(items).  The
retriever falls back to the exact full scan whenever it cannot
guarantee coverage, and ``select_users`` always scans exactly (its
grid is users × 1, already narrow).
"""

from __future__ import annotations

from time import perf_counter
from typing import Mapping, Sequence

import numpy as np

from repro.core.advice import AdviceEngine, DomainProfile, ItemTable
from repro.core.interned import InternedIds
from repro.core.sum_model import SumResolver, UnknownUserError
from repro.core.sum_store import BatchRead
from repro.obs.metrics import (
    SIZE_BUCKETS,
    MetricsRegistry,
    NullRegistry,
    labelled,
    resolve_registry,
)
from repro.obs.tracing import NullTracer, Tracer, next_trace_id, resolve_tracer
from repro.retrieval.retriever import CandidateRetriever
from repro.serving.adapters import accepts_budget, as_scorer
from repro.serving.budget import Budget, DeadlineExceeded
from repro.serving.ranking import top_k
from repro.serving.requests import (
    RecommendationRequest,
    RecommendationResponse,
    ScoredItem,
    SelectedUser,
    SelectionRequest,
    SelectionResponse,
)
from repro.serving.scorer import ItemId, Scorer


class RecommendationService:
    """Named-scorer registry + emotional adjustment, batch-first.

    Parameters
    ----------
    sums:
        The :class:`~repro.core.sum_model.SumResolver` users are read
        from: any SUM backend, or a
        :class:`~repro.streaming.cache.SumCache` over one.  ``batch``
        reads the Advice stage's evidence, ``rows_for`` validates users
        without reading them, ``population()`` lists them for
        select-all, and the freshness stamps go on every response.
        Optional for services that never adjust emotionally and always
        receive explicit user lists.
    domain_profile:
        Excitatory links of the interaction domain; omit for a plain
        (emotion-free) ranking service.
    item_attributes:
        ``item -> {attribute: presence}`` metadata for the Advice stage,
        copied into a read-only :class:`~repro.core.advice.ItemTable`;
        assigning a new mapping or ``domain_profile`` builds and
        publishes a new one (a single attribute store).
    advice:
        The advice engine (default configuration if omitted).
    create_missing:
        First-contact policy.  The streaming path auto-creates a SUM on
        a user's first event (``get_or_create``); by default the serving
        path instead raises :class:`~repro.core.sum_model.
        UnknownUserError` naming every unknown id in the batch.  Pass
        ``True`` to opt in to the streaming semantics — unknown users
        get an empty (neutral) SUM and score unadjusted.
    telemetry:
        A :class:`~repro.obs.metrics.MetricsRegistry` for serving
        metrics: per-stage latency (resolve/score/advice/respond),
        request latency, batch width, request and unknown-user counts.
        Default ``None`` serves on null instruments (no locks, no
        timestamps).
    tracer:
        A :class:`~repro.obs.tracing.Tracer`; when enabled, each request
        mints a trace id at arrival, stamps its stage spans under it,
        and returns it on the response (``response.trace_id``).
    retriever:
        A :class:`~repro.retrieval.retriever.CandidateRetriever`; when
        attached, ``recommend`` retrieves an oversampled candidate set
        from its ANN index and re-ranks only those items.  ``None``
        (default) serves every request as an exact full scan.
    """

    def __init__(
        self,
        sums: SumResolver | None = None,
        domain_profile: DomainProfile | None = None,
        item_attributes: Mapping[ItemId, Mapping[str, float]] | None = None,
        advice: AdviceEngine | None = None,
        create_missing: bool = False,
        telemetry: MetricsRegistry | NullRegistry | None = None,
        tracer: Tracer | NullTracer | None = None,
        retriever: CandidateRetriever | None = None,
    ) -> None:
        self.sums = sums
        self.retriever = retriever
        self._item_table = ItemTable(item_attributes or {}, domain_profile)
        self.advice = advice or AdviceEngine()
        self.create_missing = bool(create_missing)
        self._scorers: dict[str, Scorer] = {}
        self._default: str | None = None
        # Instruments resolve once; request paths never consult the
        # registry, and the null defaults make every record a no-op.
        registry = resolve_registry(telemetry)
        if tracer is None and registry.enabled:
            # enabled telemetry implies tracing (mirrors StreamingUpdater):
            # ids minted at request arrival, echoed on response.trace_id
            self.tracer: Tracer | NullTracer = Tracer()
        else:
            self.tracer = resolve_tracer(tracer)
        self._obs_on = registry.enabled or self.tracer.enabled
        self._m_recommends = registry.counter(
            labelled("serving.requests", kind="recommend")
        )
        self._m_selections = registry.counter(
            labelled("serving.requests", kind="select")
        )
        self._m_unknown = registry.counter("serving.unknown_user_errors")
        self._m_request_seconds = registry.histogram("serving.request_seconds")
        self._m_batch_width = registry.histogram(
            "serving.batch_width", SIZE_BUCKETS
        )
        self._m_resolve = registry.histogram(
            labelled("serving.stage_seconds", stage="resolve")
        )
        self._m_retrieve = registry.histogram(
            labelled("serving.stage_seconds", stage="retrieve")
        )
        self._m_score = registry.histogram(
            labelled("serving.stage_seconds", stage="score")
        )
        self._m_advice = registry.histogram(
            labelled("serving.stage_seconds", stage="advice")
        )
        self._m_respond = registry.histogram(
            labelled("serving.stage_seconds", stage="respond")
        )
        # deadline-budget accounting: exact counts per abort stage, plus
        # degraded (advice-skipped) responses served under partial_ok
        self._m_deadline = {
            stage: registry.counter(
                labelled("serving.deadline_exceeded", stage=stage)
            )
            for stage in ("resolve", "retrieve", "score")
        }
        self._m_degraded = registry.counter("serving.degraded")

    def set_retriever(self, retriever: CandidateRetriever | None) -> None:
        """Attach (or detach, with ``None``) the retrieval stage.

        One GIL-atomic attribute store, same discipline as
        :meth:`swap_sums`: in-flight requests keep the retriever they
        captured at entry, the next request sees the new one.
        """
        self.retriever = retriever

    @property
    def item_attributes(self) -> ItemTable:
        """The Advice stage's item side: a read-only, profile-carrying table."""
        return self._item_table

    @item_attributes.setter
    def item_attributes(
        self, mapping: Mapping[ItemId, Mapping[str, float]] | None
    ) -> None:
        self._item_table = ItemTable(mapping or {}, self._item_table.profile)

    @property
    def domain_profile(self) -> DomainProfile | None:
        """Excitatory links the served item table was built for."""
        return self._item_table.profile

    @domain_profile.setter
    def domain_profile(self, profile: DomainProfile | None) -> None:
        self._item_table = ItemTable(self._item_table, profile)

    # -- registry ----------------------------------------------------------

    def register(
        self, name: str, scorer: object, *, default: bool = False
    ) -> Scorer:
        """Register a scorer under ``name``; first registration is default.

        ``scorer`` may be anything :func:`~repro.serving.adapters.as_scorer`
        can coerce: a batch scorer, a pairwise ``.predict`` model, or a
        ``(model, item) -> float`` callable (resolved against ``sums``).
        """
        if not name or not isinstance(name, str):
            raise ValueError(f"scorer name must be a non-empty str, got {name!r}")
        adapted = as_scorer(scorer, resolver=self.sums)
        self._scorers[name] = adapted
        if default or self._default is None:
            self._default = name
        return adapted

    def scorer(self, name: str | None = None) -> Scorer:
        """Look up a registered scorer (the default when ``name`` is None)."""
        key = name if name is not None else self._default
        if key is None:
            raise KeyError("no scorers registered")
        try:
            return self._scorers[key]
        except KeyError:
            raise KeyError(
                f"unknown scorer {key!r}; registered: {self.scorer_names()}"
            ) from None

    def scorer_names(self) -> list[str]:
        """Registered scorer names, registration order."""
        return list(self._scorers)

    def __contains__(self, name: object) -> bool:
        return name in self._scorers

    def __len__(self) -> int:
        return len(self._scorers)

    # -- batch scoring -----------------------------------------------------

    def _resolve_models(
        self, user_ids: Sequence[int], sums: SumResolver | None = None
    ) -> BatchRead:
        """The Advice stage's evidence for one batch: ``sums.batch``, a
        frozen copy of the users' intensity and sensibility rows.

        ``sums`` is the request's captured resolver (see :meth:`swap_sums`
        — every read of one request must come from the same resolver
        object, so a concurrent replica swap can never mix generations
        within a response).  Unknown users raise one
        :class:`~repro.core.sum_model.UnknownUserError` naming every
        offending id (unless :attr:`create_missing` opts into the
        streaming path's first-contact auto-create).
        """
        if sums is None:
            sums = self.sums
        if sums is None:
            raise RuntimeError(
                "service has no SUM repository; cannot resolve user models "
                "for emotional adjustment"
            )
        return sums.batch(user_ids, create=self.create_missing)

    def _validate_users(self, user_ids: Sequence[int], sums: SumResolver) -> None:
        """The no-adjust path's typed-error contract without reading any
        model: ``sums.rows_for`` (creating unknown users empty under
        :attr:`create_missing`)."""
        sums.rows_for(user_ids, create=self.create_missing)

    def _grids(
        self,
        user_ids: Sequence[int],
        items: Sequence[ItemId] | None,
        scorer_name: str | None,
        adjust: bool,
        known_users: bool = False,
        sums: SumResolver | None = None,
        stamps: list[float] | None = None,
        budget: Budget | None = None,
        partial_ok: bool = False,
        retrieve_k: int | None = None,
    ) -> tuple[str, InternedIds, np.ndarray, np.ndarray, np.ndarray, bool]:
        """(resolved name, items, base, multiplier, adjusted, degraded).

        ``known_users=True`` skips the no-adjust membership validation —
        for callers whose ids were just sourced from ``sums`` itself and
        therefore cannot be unknown (select-all over ``population()``).
        ``sums`` is the caller's captured resolver; defaults to a capture
        taken here (direct ``score_matrix`` calls).  ``stamps``, when
        given, receives five ``perf_counter()`` marks — start, resolved,
        retrieved, scored, advised — the instrumented request paths turn
        into stage histograms and trace spans.

        ``retrieve_k`` arms the retrieval stage: with a retriever
        attached and a single-user batch, the ANN index proposes the
        candidate set the scorer re-ranks; the returned ``items`` are
        then the *effective* (retrieved or fallback) items the grids are
        over.  ``items=None`` means "the retriever's indexed catalog".

        Explicit ``items`` are interned before any user is touched
        (retrieval-armed requests excepted: the retriever needs the
        models for its query vector).  An item is activated or inhibited
        only through an attribute it carries, so with no active presence
        column among them the multiplier is exactly 1.0 whatever the
        users feel: users are validated as on the no-adjust path and no
        SUM is read.

        ``budget`` threads the request's deadline through the pipeline:
        checked after resolve (abort — nothing useful exists yet), on
        retrieval entry (the retriever additionally *shrinks* its knobs
        under a tight-but-alive budget), and after base scoring (abort,
        unless ``partial_ok`` degrades the response by skipping the
        Advice stage; the returned ``degraded`` flag is then ``True``
        and every multiplier is 1.0).  Scorers that accept a ``budget``
        hint receive it so they can cut work cooperatively.  The checks
        sit between stages, so a response is either complete, degraded,
        or a typed :class:`~repro.serving.budget.DeadlineExceeded` —
        never silently late without the caller having asked for it.
        """
        if sums is None:
            sums = self.sums
        name = scorer_name if scorer_name is not None else self._default
        scorer = self.scorer(scorer_name)
        # Resolve — or at minimum validate — the whole user batch
        # *before* scoring, on every path: unknown users fail as one
        # typed error naming every offending id (or, under
        # create_missing, exist by the time any scorer resolves them).
        # adjust=False used to skip this entirely and let unknown ids
        # leak into scorers as untyped per-scorer KeyErrors.
        table = self._item_table  # one read: presences and their profile
        adjusting = adjust and table.profile is not None
        retriever = self.retriever
        retrieving = retrieve_k is not None and retriever is not None and len(user_ids) == 1
        if stamps is not None:
            stamps.append(perf_counter())
        known_items = items is not None and not retrieving
        if known_items:
            items = table.intern(items)  # the request's one id translation
        active = items.active if known_items and adjusting else None
        models = None
        # (a service without a repository fails here whatever the items)
        if adjusting and (active is None or len(active) or sums is None):
            models = self._resolve_models(user_ids, sums)
        elif sums is not None and not known_users:
            self._validate_users(user_ids, sums)
        if stamps is not None:
            stamps.append(perf_counter())
        if budget is not None:
            budget.check("resolve")
        if retrieving:
            candidates = retriever.retrieve(
                user_ids, items, retrieve_k, context=models, budget=budget
            )
            if candidates is not None:
                items = candidates
        if items is None:
            # full-scan fallback of an items-free request: the universe
            # is the indexed catalog (only retrieval-armed requests may
            # omit items, so a retriever is known to exist here)
            if retriever is None:
                raise RuntimeError(
                    "request without items needs a retriever whose index "
                    "defines the catalog"
                )
            items = retriever.catalog_items()
        if not known_items:
            items = table.intern(items)
        if stamps is not None:
            stamps.append(perf_counter())
        if accepts_budget(scorer):
            base = np.asarray(
                scorer.score_batch(user_ids, items, budget=budget),
                dtype=np.float64,
            )
        else:
            base = np.asarray(
                scorer.score_batch(user_ids, items), dtype=np.float64
            )
        if base.shape != (len(user_ids), len(items)):
            raise ValueError(
                f"scorer {name!r} returned shape {base.shape}, expected "
                f"({len(user_ids)}, {len(items)})"
            )
        if stamps is not None:
            stamps.append(perf_counter())
        degraded = False
        if budget is not None and adjusting and budget.expired():
            if partial_ok:
                # degrade instead of abort: serve the base ranking now,
                # skip the Advice multiplier pass
                adjusting = False
                degraded = True
            else:
                budget.check("score")
        if adjusting and models is not None:
            multiplier = self.advice.multiplier_rows(
                models, items.presence, table.profile, active
            )
        else:
            multiplier = np.ones_like(base)
        if stamps is not None:
            stamps.append(perf_counter())
        return str(name), items, base, multiplier, base * multiplier, degraded

    def score_matrix(
        self,
        user_ids: Sequence[int],
        items: Sequence[ItemId],
        scorer: str | None = None,
        adjust: bool = True,
    ) -> np.ndarray:
        """Adjusted scores for the full ``user_ids × items`` grid."""
        __, __items, __base, __mult, adjusted, __deg = self._grids(
            InternedIds(user_ids), items, scorer, adjust
        )
        return adjusted

    # -- freshness ---------------------------------------------------------

    def sum_version(
        self, user_id: int | None = None, sums: SumResolver | None = None
    ) -> int | None:
        """The served emotional-state version, if the resolver exposes one.

        With a versioned resolver (the streaming layer's
        :class:`~repro.streaming.cache.SumCache`, or a replica store
        loaded from a generation-stamped checkpoint) this is the user's
        monotonic snapshot version — or the resolver's global version
        when ``user_id`` is ``None``.  Plain live repositories return
        ``None``: their reads are unversioned.  ``sums`` is the caller's
        captured resolver (defaults to the current one).
        """
        resolver = self.sums if sums is None else sums
        if resolver is None:
            return None
        version = (
            resolver.global_version if user_id is None
            else resolver.version(int(user_id))
        )
        return int(version) if version is not None else None

    def sum_generation(self, sums: SumResolver | None = None) -> int | None:
        """Checkpoint generation of the served SUM state, if any.

        Stamped on resolvers loaded from a generation-stamped checkpoint
        (:meth:`~repro.core.sharded_store.ShardedSumStore.load` /
        :meth:`~repro.core.sum_store.ColumnarSumStore.load`); a cache
        reports its repository's.  ``None`` when serving live state.
        """
        resolver = self.sums if sums is None else sums
        if resolver is None:
            return None
        generation = resolver.snapshot_generation
        return int(generation) if generation is not None else None

    def swap_sums(self, sums: SumResolver) -> None:
        """Atomically replace the SUM resolver under live traffic.

        The refresh protocol's serving-side step: one attribute store
        (GIL-atomic), no lock.  Requests capture ``self.sums`` exactly
        once, so an in-flight request keeps reading the resolver it
        started with (old generations stay valid — mmap pages remain
        mapped) and the next request sees the new one; served generation
        stamps are therefore monotonic per caller.

        Scorers that bound a resolver at :meth:`register` time (legacy
        per-model callables resolved against ``sums``) keep their
        original binding — re-register them after a swap if their scores
        must track the replica, or use batch scorers, which receive ids
        only.
        """
        self.sums = sums

    # -- the two paper functions -------------------------------------------

    def _record_request(
        self,
        trace_id: int | None,
        stamps: list[float],
        finished: float,
        width: int,
        counter: object,
    ) -> None:
        """Turn one request's stage marks into histograms and spans.

        Called only on instrumented services, strictly after the response
        is built — the request hot path itself records nothing.
        """
        started, resolved, retrieved, scored, advised = stamps
        self._m_resolve.observe(resolved - started)
        self._m_retrieve.observe(retrieved - resolved)
        self._m_score.observe(scored - retrieved)
        self._m_advice.observe(advised - scored)
        self._m_respond.observe(finished - advised)
        self._m_request_seconds.observe(finished - started)
        self._m_batch_width.observe(width)
        counter.inc()  # type: ignore[attr-defined]
        tracer = self.tracer
        if tracer.enabled and trace_id is not None:
            tracer.add(trace_id, "serving.resolve", started, resolved)
            tracer.add(trace_id, "serving.retrieve", resolved, retrieved)
            tracer.add(trace_id, "serving.score", retrieved, scored)
            tracer.add(trace_id, "serving.advice", scored, advised)
            tracer.add(trace_id, "serving.respond", advised, finished)

    def recommend(self, request: RecommendationRequest) -> RecommendationResponse:
        """The paper's recommendation function, served on the batch path."""
        # The resolver is captured exactly once per request: stamps and
        # scores all come from this object, so a concurrent swap_sums
        # (replica refresh) can never tear a response across generations.
        resolver = self.sums
        # trace id minted at request arrival; stamped on the response
        trace_id = next_trace_id() if self.tracer.enabled else None
        stamps: list[float] | None = [] if self._obs_on else None
        # Captured before scoring so the reported version is a freshness
        # *floor*: the served state reflects at least every batch up to
        # it (a concurrent publish during scoring can only add batches).
        sum_version = self.sum_version(request.user_id, sums=resolver)
        generation = self.sum_generation(resolver)
        budget = (
            Budget.from_timeout(request.deadline_s)
            if request.deadline_s is not None else None
        )
        try:
            name, items, base, multiplier, adjusted, degraded = self._grids(
                [request.user_id], request.items, request.scorer,
                request.adjust, sums=resolver, stamps=stamps,
                budget=budget, partial_ok=request.partial_ok,
                retrieve_k=request.k,
            )
        except UnknownUserError:
            self._m_unknown.inc()
            raise
        except DeadlineExceeded as exc:
            self._m_deadline[exc.stage].inc()
            raise
        if degraded:
            self._m_degraded.inc()
        ids = items if items.vector is None else items.vector  # ints: lexsort
        response = RecommendationResponse(
            user_id=int(request.user_id), scorer=name,
            ranked=top_k(ScoredItem, ids, base, multiplier, adjusted, request.k),
            sum_version=sum_version, generation=generation,
            trace_id=trace_id, degraded=degraded,
        )
        if stamps is not None:
            self._record_request(
                trace_id, stamps, perf_counter(),
                len(items), self._m_recommends,
            )
        return response

    def select_users(self, request: SelectionRequest) -> SelectionResponse:
        """The paper's selection function, served on the batch path."""
        resolver = self.sums  # one capture per request; see recommend()
        trace_id = next_trace_id() if self.tracer.enabled else None
        stamps: list[float] | None = [] if self._obs_on else None
        # the users' one id translation: scorer, stores and ranking share
        # it (a select-all's is the resolver's, made once per row set);
        # ids that get no int64 vector (bools, floats, strings, ids past
        # 64 bits) are coerced with int() and interned again
        if request.user_ids is not None:
            ids = InternedIds(request.user_ids)
            if ids.vector is None:
                ids = InternedIds([int(uid) for uid in ids])
        elif resolver is not None:
            ids = resolver.population()
        else:
            raise RuntimeError(
                "selection over all users needs a SUM repository; pass "
                "explicit user_ids or attach sums to the service"
            )
        # freshness floor; see recommend()
        sum_version = self.sum_version(sums=resolver)
        generation = self.sum_generation(resolver)
        budget = (
            Budget.from_timeout(request.deadline_s)
            if request.deadline_s is not None else None
        )
        try:
            name, __items, base, multiplier, adjusted, degraded = self._grids(
                ids, [request.item], request.scorer, request.adjust,
                known_users=request.user_ids is None,
                sums=resolver, stamps=stamps,
                budget=budget, partial_ok=request.partial_ok,
            )
        except UnknownUserError:
            self._m_unknown.inc()
            raise
        except DeadlineExceeded as exc:
            self._m_deadline[exc.stage].inc()
            raise
        if degraded:
            self._m_degraded.inc()
        response = SelectionResponse(
            item=request.item, scorer=name,
            ranked=top_k(
                SelectedUser, ids if ids.vector is None else ids.vector,
                base, multiplier, adjusted, request.k,
            ),
            sum_version=sum_version, generation=generation,
            trace_id=trace_id, degraded=degraded,
        )
        if stamps is not None:
            self._record_request(
                trace_id, stamps, perf_counter(), len(ids),
                self._m_selections,
            )
        return response

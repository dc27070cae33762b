"""The four workloads and the worlds they run in.

A :class:`Spec` fixes everything about a workload that is not the seed:
population, catalog, plane, shard count, per-block work and paced rates.
:func:`make_inputs` turns ``(spec, seed)`` into generated inputs;
:func:`build_world` is one complete *set-up pass* over those inputs —
register the population, build the item side (provider, scorer, ANN
index), construct and start the updater and the service, warm up — and
is what ``setup_s`` times.  The program under test only ever sees the
generated inputs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Any, Sequence

import numpy as np

from repro.core.advice import DomainProfile
from repro.core.sharded_store import ShardedSumStore
from repro.core.shm_store import MultiProcSumStore
from repro.datagen.catalog import AFFINITY_LINKS
from repro.lifelog.events import Event
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.retrieval import (
    CandidateRetriever,
    ClusteredANNIndex,
    EmbeddingProvider,
    RetrievalConfig,
)
from repro.serving import (
    RecommendationRequest,
    RecommendationService,
    SelectionRequest,
)
from repro.serving.scorer import ItemId, ScorerBase
from repro.streaming import StreamingUpdater, SumCache
from repro.streaming.control import ControlPlaneConfig
from repro.streaming.procplane import MultiProcUpdater

from benchmarks.ledger import gen

K = 10
K_CANDIDATES = 256
N_PROBE = 64
SELECT_ALL_K = 100
#: events per paced submit (the writer's schedule quantum)
PACED_CHUNK = 8
#: the ``--seconds`` the per-block counts below are sized for
BASE_SECONDS = 20


@dataclass(frozen=True)
class Spec:
    """One workload: world, mix and per-block work (at BASE_SECONDS)."""

    name: str
    why: str
    plane: str                       # "threads" | "procs"
    n_users: int
    catalog: str                     # "courses" | "clustered"
    n_items: int
    n_shards: int | None             # None: one worker per spare core
    control_plane: bool
    retrieval: bool
    zipf: float | None
    ticks: bool
    segment_events: int              # events in the generated segment
    segment_reps: int                # segment replays per sat_ingest
    serve_requests: int              # recommend() per sat_serve
    serve_selects: int               # select_users() per sat_serve
    select_subset: int | None        # None: every registered user, k=100
    explicit_items: int | None       # None: items=None (retriever)
    paced_event_rate: float          # events/s offered in paced
    paced_request_rate: float        # recommend/s offered in paced
    paced_select_rate: float         # select_users/s offered in paced
    deadline_s: float | None = None
    paced_seconds: float = 0.8       # length of the paced phase
    warmup_events: int = 2_000


SPECS: dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec(
            name="ingest_threads",
            why="bus, mapper, batch commit and cache publish do nearly all "
                "the work on the GIL-serial thread plane; the read path is "
                "tiny, so a serving change must show no change here",
            plane="threads", n_users=20_000, catalog="courses", n_items=120,
            n_shards=2, control_plane=False, retrieval=False, zipf=None,
            ticks=True, segment_events=10_000, segment_reps=4,
            serve_requests=300, serve_selects=3, select_subset=2_000,
            explicit_items=120, paced_event_rate=5_000.0,
            paced_request_rate=200.0, paced_select_rate=0.0,
        ),
        Spec(
            name="ingest_procs",
            why="Zipf keys through worker processes: routing, pickling, "
                "pipes, shm handshakes and drain barriers are on the "
                "blocking path only here, and only here can cores overlap",
            plane="procs", n_users=20_000, catalog="courses", n_items=120,
            n_shards=None, control_plane=False, retrieval=False, zipf=0.8,
            ticks=True, segment_events=10_000, segment_reps=4,
            serve_requests=300, serve_selects=3, select_subset=2_000,
            explicit_items=120, paced_event_rate=5_000.0,
            paced_request_rate=200.0, paced_select_rate=0.0,
        ),
        Spec(
            name="serve_retrieval",
            why="resolve, retrieve, score, advice, respond at O(k) over a "
                "64k-item ANN index; index build dominates set-up and the "
                "write plane idles, so a write-plane change must not show",
            plane="threads", n_users=2_000, catalog="clustered",
            n_items=64_000, n_shards=1, control_plane=True, retrieval=True,
            zipf=None, ticks=False, segment_events=10_000, segment_reps=3,
            serve_requests=400, serve_selects=3, select_subset=2_000,
            explicit_items=None, paced_event_rate=1_000.0,
            paced_request_rate=200.0, paced_select_rate=0.0,
            deadline_s=1.0,
        ),
        Spec(
            name="serve_scan",
            why="exact O(items) scans and select-all over O(users) against "
                "a live writer: SumCache.batch, multiplier_matrix, response "
                "materialisation; bypasses the retriever entirely",
            plane="threads", n_users=12_000, catalog="clustered",
            n_items=10_000, n_shards=1, control_plane=True, retrieval=False,
            zipf=None, ticks=False, segment_events=10_000, segment_reps=3,
            serve_requests=16, serve_selects=4, select_subset=None,
            explicit_items=10_000, paced_event_rate=2_000.0,
            paced_request_rate=8.0, paced_select_rate=2.5,
            paced_seconds=1.2,
        ),
    )
}


def scaled(spec: Spec, scale: str, seconds: float) -> Spec:
    """The spec at a run length.

    ``--seconds`` stretches per-block *work* (never the world, never the
    block count), so the same ``--seconds`` is the same counts on every
    commit.  ``smoke`` shrinks the world too — it only exists so the
    tests can drive every code path in seconds.
    """
    factor = seconds / BASE_SECONDS
    if scale == "smoke":
        return replace(
            spec,
            n_users=min(spec.n_users, 400),
            n_items=min(spec.n_items, 1_500),
            segment_events=1_200, segment_reps=1,
            serve_requests=min(spec.serve_requests, 12), serve_selects=2,
            select_subset=(
                None if spec.select_subset is None
                else min(spec.select_subset, 100)
            ),
            explicit_items=(
                None if spec.explicit_items is None
                else min(spec.explicit_items, 1_500, spec.n_items)
            ),
            paced_event_rate=min(spec.paced_event_rate, 1_000.0),
            paced_request_rate=min(spec.paced_request_rate, 40.0),
            paced_seconds=0.25,
            warmup_events=200,
        )
    return replace(
        spec,
        segment_reps=max(1, round(spec.segment_reps * factor)),
        serve_requests=max(4, round(spec.serve_requests * factor)),
    )


class VectorScorer(ScorerBase):
    """Batch re-ranker over the world's embeddings (ids are rows)."""

    def __init__(self, users: np.ndarray, items: np.ndarray) -> None:
        self._users = users
        self._items = items

    def score_batch(
        self, user_ids: Sequence[int], items: Sequence[ItemId]
    ) -> np.ndarray:
        queries = self._users[np.asarray(user_ids, dtype=np.int64)]
        cols = np.asarray(items, dtype=np.int64)
        return queries @ self._items[cols].T


class FactorModel:
    """The generated embeddings behind the FunkSVD accessor surface
    :class:`~repro.retrieval.embeddings.EmbeddingProvider` reads."""

    def __init__(self, users: np.ndarray, items: np.ndarray) -> None:
        self._users = (list(range(len(users))), users, np.zeros(len(users)))
        self._items = (list(range(len(items))), items, np.zeros(len(items)))

    def user_embeddings(self) -> tuple[list[int], np.ndarray, np.ndarray]:
        return self._users

    def item_embeddings(self) -> tuple[list[int], np.ndarray, np.ndarray]:
        return self._items


@dataclass
class Inputs:
    """Everything generated from the seed for one run."""

    seed: int
    catalog: gen.Catalog
    users: np.ndarray
    segment: list[Event]
    ticks: dict[int, list[int]]
    warmup: list[Event]
    paced_events: list[Event]
    serve_requests: list[RecommendationRequest]
    serve_selects: list[SelectionRequest]
    paced_requests: list[RecommendationRequest]
    paced_selects: list[SelectionRequest]
    profile: DomainProfile


def paced_counts(spec: Spec) -> tuple[int, int, int]:
    """(event chunks, recommends, selects) of one paced phase."""
    return (
        int(spec.paced_event_rate * spec.paced_seconds) // PACED_CHUNK,
        int(spec.paced_request_rate * spec.paced_seconds),
        int(spec.paced_select_rate * spec.paced_seconds),
    )


def make_inputs(spec: Spec, seed: int) -> Inputs:
    if spec.catalog == "courses":
        catalog = gen.course_catalog(seed, spec.n_items)
    else:
        catalog = gen.clustered_catalog(seed, spec.n_items)
    ids = catalog.item_ids
    explicit = None if spec.explicit_items is None else ids[: spec.explicit_items]
    n_chunks, n_requests, n_selects = paced_counts(spec)

    def recommends(n: int, name: str) -> list[RecommendationRequest]:
        return [
            RecommendationRequest(
                user_id=uid, items=explicit, k=K, deadline_s=spec.deadline_s
            )
            for uid in gen.request_users(seed, n, spec.n_users, name)
        ]

    def selects(n: int, name: str) -> list[SelectionRequest]:
        targets = gen.request_users(seed, n, len(ids), name + "-items")
        if spec.select_subset is None:
            return [
                SelectionRequest(item=ids[t], k=SELECT_ALL_K) for t in targets
            ]
        rng = gen.derive_rng(seed, "ledger", "select-subsets", name)
        return [
            SelectionRequest(
                item=ids[t],
                user_ids=rng.choice(
                    spec.n_users, size=spec.select_subset, replace=False
                ).tolist(),
            )
            for t in targets
        ]

    def segment(n: int, name: str) -> list[Event]:
        return gen.event_segment(seed, n, spec.n_users, ids, spec.zipf, name)

    return Inputs(
        seed=seed,
        catalog=catalog,
        users=gen.user_vectors(seed, spec.n_users),
        segment=segment(spec.segment_events, "segment"),
        ticks=(
            gen.tick_plan(seed, spec.segment_events, spec.n_users)
            if spec.ticks else {}
        ),
        warmup=segment(spec.warmup_events, "warmup"),
        paced_events=segment(n_chunks * PACED_CHUNK, "paced"),
        serve_requests=recommends(spec.serve_requests, "serve"),
        serve_selects=selects(spec.serve_selects, "serve"),
        paced_requests=recommends(n_requests, "paced"),
        paced_selects=selects(n_selects, "paced"),
        profile=DomainProfile("ledger", AFFINITY_LINKS),
    )


def make_provider(inputs: Inputs) -> EmbeddingProvider:
    """Context-augmented embeddings over the generated factors."""
    return EmbeddingProvider(
        FactorModel(inputs.users, inputs.catalog.item_vectors),
        domain_profile=inputs.profile,
        item_attributes=inputs.catalog.attributes,
    )


def allowed_cpus() -> list[int]:
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return list(range(os.cpu_count() or 1))


@dataclass
class World:
    """One built world: the live system plus what was delivered to it."""

    spec: Spec
    inputs: Inputs
    store: Any
    updater: Any
    service: RecommendationService
    retriever: CandidateRetriever | None
    registry: MetricsRegistry | None
    #: everything submitted, in publish order: ``("events", list, lo, hi)``
    #: or ``("tick", user_ids)`` — the oracle's replay script
    journal: list[tuple] = field(default_factory=list)

    def submit(self, events: list[Event], lo: int, hi: int) -> None:
        self.updater.submit_many(events[lo:hi])
        self.journal.append(("events", events, lo, hi))

    def tick(self, user_ids: list[int]) -> None:
        self.updater.tick(user_ids)
        self.journal.append(("tick", user_ids))

    def worker_pids(self) -> list[int]:
        if self.spec.plane != "procs":
            return []
        return [w.process.pid for w in self.updater.workers]

    def close(self) -> None:
        self.updater.stop()
        if isinstance(self.store, MultiProcSumStore):
            self.store.close()


def build_world(spec: Spec, inputs: Inputs, traced: bool = False) -> World:
    """One complete set-up pass (what ``setup_s`` times)."""
    registry = MetricsRegistry() if traced else None
    tracer = Tracer(max_traces=4_096) if traced else None
    catalog = inputs.catalog

    if spec.plane == "procs":
        n_shards = spec.n_shards or max(1, len(allowed_cpus()) - 1)
        store: Any = MultiProcSumStore(
            n_shards=n_shards, initial_capacity=spec.n_users
        )
    else:
        n_shards = spec.n_shards or 1
        store = ShardedSumStore(
            n_shards=n_shards, initial_capacity=spec.n_users
        )
    for uid in range(spec.n_users):
        store.get_or_create(uid)

    retriever = None
    if spec.retrieval:
        provider = make_provider(inputs)
        index = ClusteredANNIndex.build(
            *provider.item_vectors(), seed=inputs.seed
        )
        retriever = CandidateRetriever(
            provider,
            config=RetrievalConfig(k_candidates=K_CANDIDATES, n_probe=N_PROBE),
            index=index,
            telemetry=registry,
        )

    control = ControlPlaneConfig() if spec.control_plane else None
    if spec.plane == "procs":
        cache = SumCache(store)
        updater: Any = MultiProcUpdater(
            store, catalog.emotions, cache=cache, control_plane=control
        )
    else:
        updater = StreamingUpdater(
            store, catalog.emotions, n_shards=n_shards,
            control_plane=control, telemetry=registry, tracer=tracer,
        )
        cache = updater.cache
    updater.start()

    service = RecommendationService(
        sums=cache,
        domain_profile=inputs.profile,
        item_attributes=catalog.attributes,
        telemetry=registry,
        tracer=tracer,
        retriever=retriever,
    )
    service.register("vec", VectorScorer(inputs.users, catalog.item_vectors))

    world = World(
        spec=spec, inputs=inputs, store=store, updater=updater,
        service=service, retriever=retriever,
        registry=registry,
    )
    # warm-up: every code path once, so lazy set-up is paid here
    world.submit(inputs.warmup, 0, len(inputs.warmup))
    updater.drain()
    for request in inputs.serve_requests[:8]:
        service.recommend(request)
    for request in inputs.serve_selects[:2]:
        service.select_users(request)
    return world

"""The traced run: layer probes from the outside in.

``--trace 1`` answers "where did the time go".  It runs the workload
for three blocks untraced and three blocks with the library's existing
``telemetry=`` / ``tracer=`` arguments switched on (their difference is
``obs.trace_overhead_pct.*``), then times calls into each layer's
*public* functions from ledger code on the same generated inputs —
single-threaded unless stated, best of a few repetitions.  Every timed
call is a ledger-side span (``{trace_id, span_id, parent_id, name,
start_ns, end_ns, n}``), kept in memory and written to
``out/trace_<workload>.jsonl`` when the run ends.  Spans inside
``src/repro`` are a later issue.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import ExitStack
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from repro.core.advice import AdviceEngine
from repro.core.emotions import EMOTION_NAMES
from repro.core.reward import ReinforcementPolicy
from repro.core.sharded_store import ShardedSumStore
from repro.core.shm_store import MultiProcSumStore
from repro.obs.metrics import MetricsRegistry, labelled
from repro.retrieval import (
    CandidateRetriever,
    ClusteredANNIndex,
    IndexRefresher,
    RetrievalConfig,
)
from repro.serving import RecommendationService
from repro.streaming import EventBus, EventUpdateMapper, SumCache
from repro.streaming.procplane import MultiProcUpdater

from benchmarks.ledger import harness, oracle, worlds
from benchmarks.ledger.harness import PER_BLOCK, Recorder, percentile
from benchmarks.ledger.worlds import K, K_CANDIDATES, N_PROBE, Inputs, Spec

#: per-layer metric -> (unit, better); layer = module name
PER_LAYER: dict[str, tuple[str, str]] = {
    "streaming.bus.publish_us_per_event": ("us", "lower"),
    "streaming.bus.dequeue_us_per_event": ("us", "lower"),
    "streaming.bus.redelivered": ("count", "lower"),
    "streaming.bus.shed_background": ("count", "lower"),
    "streaming.bus.shed_expired": ("count", "lower"),
    "streaming.bus.dead_lettered": ("count", "lower"),
    "streaming.mapper.ops_us_per_event": ("us", "lower"),
    "streaming.mapper.tick_ops_us": ("us", "lower"),
    "streaming.mapper.ops_per_event": ("ops/event", "lower"),
    "streaming.cache.commit_us_per_event": ("us", "lower"),
    "streaming.cache.snapshot_1_us": ("us", "lower"),
    "streaming.cache.snapshot_all_ms": ("ms", "lower"),
    "streaming.cache.snapshot_under_write_ms": ("ms", "lower"),
    "streaming.consumer.batches": ("count", "lower"),
    "streaming.consumer.mean_batch_size": ("events", "higher"),
    "streaming.consumer.expired_dropped": ("count", "lower"),
    "streaming.updater.visible_p99_ms": ("ms", "lower"),
    "streaming.updater.visible_p999_ms": ("ms", "lower"),
    "streaming.updater.visible_samples": ("count", "higher"),
    "streaming.updater.generator_late_p99_ms": ("ms", "lower"),
    "streaming.procplane.parent_cpu_us_per_event": ("us", "lower"),
    "streaming.procplane.worker_cpu_us_per_event": ("us", "lower"),
    "streaming.procplane.submit_us_per_event": ("us", "lower"),
    "streaming.procplane.drain_idle_ms": ("ms", "lower"),
    "streaming.procplane.start_s": ("s", "lower"),
    "core.sharded_store.apply_us_per_op": ("us", "lower"),
    "core.sharded_store.decay_tick_ms": ("ms", "lower"),
    "core.sharded_store.decay_gb_per_s": ("GB/s", "higher"),
    "core.sharded_store.state_mb": ("MB", "lower"),
    "core.shm_store.apply_us_per_op": ("us", "lower"),
    "core.shm_store.decay_tick_ms": ("ms", "lower"),
    "core.shm_store.decay_gb_per_s": ("GB/s", "higher"),
    "core.shm_store.state_mb": ("MB", "lower"),
    "core.advice.multiplier_1xcand_us": ("us", "lower"),
    "core.advice.multiplier_1xcatalog_ms": ("ms", "lower"),
    "core.advice.multiplier_popx1_ms": ("ms", "lower"),
    "retrieval.index.build_s": ("s", "lower"),
    "retrieval.index.search_us": ("us", "lower"),
    "retrieval.index.exact_topk_ms": ("ms", "lower"),
    "retrieval.index.scan_gb_per_s": ("GB/s", "higher"),
    "retrieval.index.pages_mb": ("MB", "lower"),
    "retrieval.embeddings.query_us": ("us", "lower"),
    "retrieval.retriever.retrieve_us": ("us", "lower"),
    "retrieval.retriever.recall_at_10": ("ratio", "higher"),
    "retrieval.retriever.fallbacks": ("count", "lower"),
    "retrieval.refresh.rebuild_swap_s": ("s", "lower"),
    "serving.service.request_p99_ms": ("ms", "lower"),
    "serving.service.request_samples": ("count", "higher"),
    "serving.service.stage_resolve_us": ("us", "lower"),
    "serving.service.stage_retrieve_us": ("us", "lower"),
    "serving.service.stage_score_us": ("us", "lower"),
    "serving.service.stage_advice_us": ("us", "lower"),
    "serving.service.stage_respond_us": ("us", "lower"),
    **{
        f"obs.trace_overhead_pct.{name}": ("%", "lower")
        for name in PER_BLOCK
    },
}

STAGES = ("resolve", "retrieve", "score", "advice", "respond")
#: trace ids: blocks use 1..TRACE_BLOCKS; these sit above them
ATTRIBUTION_TRACE = 100
PROBE_TRACE = 200


class Probe:
    """Times repeated calls, one span per repetition, keeps the best."""

    def __init__(self, recorder: Recorder, smoke: bool) -> None:
        self.recorder = recorder
        self.reps = 2 if smoke else 5
        self.root = recorder.add(PROBE_TRACE, None, "probes", 0.0, 0.0)

    def best(
        self, name: str, fn: Callable[[], Any], n: int = 1,
        reps: int | None = None, pick: Callable[[list[float]], float] = min,
    ) -> float:
        """Seconds per call of ``fn`` (``n`` units of work per call)."""
        seconds = []
        for __ in range(reps if reps is not None else self.reps):
            started = perf_counter()
            fn()
            finished = perf_counter()
            self.recorder.add(PROBE_TRACE, self.root, name, started, finished, n)
            seconds.append(finished - started)
        return pick(seconds)

    def finish(self) -> None:
        spans = [s for s in self.recorder.spans if s.parent_id == self.root]
        root = next(s for s in self.recorder.spans if s.span_id == self.root)
        root.start_ns = min(s.start_ns for s in spans)
        root.end_ns = max(s.end_ns for s in spans)


def _rss_mb() -> float:
    with open("/proc/self/statm", "rb") as handle:
        resident_pages = int(handle.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE") / 1e6


def _op_batches(
    inputs: Inputs, batch: int = 256
) -> tuple[list[list[tuple[int, tuple]]], int, int]:
    """Worker-shaped commit batches: per-user op slices of 256 events.

    Returns ``(batches, events, ops)``.
    """
    mapper = EventUpdateMapper(inputs.catalog.emotions)
    events = inputs.segment
    batches, n_ops = [], 0
    for lo in range(0, len(events) - batch + 1, batch):
        per_user: dict[int, list] = {}
        for event in events[lo:lo + batch]:
            ops = mapper.ops(event)
            n_ops += len(ops)
            per_user.setdefault(event.user_id, []).extend(ops)
        batches.append([(uid, tuple(ops)) for uid, ops in per_user.items()])
    return batches, len(batches) * batch, n_ops


def _populated(store: Any, n_users: int) -> Any:
    for uid in range(n_users):
        store.get_or_create(uid)
    return store


def probe_bus(p: Probe, spec: Spec, inputs: Inputs, out: dict) -> None:
    pairs = [(event, event.user_id) for event in inputs.segment]
    partitions = spec.n_shards or 1
    state: dict[str, Any] = {}

    def publish() -> None:
        bus = EventBus()
        topic = bus.create_topic(
            "probe", partitions=partitions, capacity=len(pairs) + 1
        )
        for lo in range(0, len(pairs), 512):
            topic.publish_many(pairs[lo:lo + 512])
        state["bus"], state["topic"] = bus, topic

    def dequeue() -> None:
        for queue in state["topic"]:
            while queue.depth:
                queue.ack_batch(queue.get_batch(256, 0.0))
        state["bus"].close()

    publish_s, dequeue_s = [], []
    for __ in range(p.reps):
        publish_s.append(p.best("bus.publish_many", publish, len(pairs), 1))
        dequeue_s.append(
            p.best("bus.get_batch+ack_batch", dequeue, len(pairs), 1)
        )
    out["streaming.bus.publish_us_per_event"] = min(publish_s) / len(pairs) * 1e6
    out["streaming.bus.dequeue_us_per_event"] = min(dequeue_s) / len(pairs) * 1e6


def probe_mapper(p: Probe, inputs: Inputs, out: dict) -> None:
    events = inputs.segment
    counted = {"ops": 0}

    def map_all() -> None:
        ops = EventUpdateMapper(inputs.catalog.emotions).ops
        counted["ops"] = sum(len(ops(event)) for event in events)

    out["streaming.mapper.ops_us_per_event"] = (
        p.best("mapper.ops", map_all, len(events)) / len(events) * 1e6
    )
    out["streaming.mapper.ops_per_event"] = counted["ops"] / len(events)
    mapper = EventUpdateMapper(inputs.catalog.emotions)
    users = range(1_000)

    def tick_all() -> None:
        tick_ops = mapper.tick_ops
        for uid in users:
            tick_ops(uid)

    out["streaming.mapper.tick_ops_us"] = (
        p.best("mapper.tick_ops", tick_all, len(users)) / len(users) * 1e6
    )


def probe_store(
    p: Probe, layer: str, make: Callable[[], Any], spec: Spec,
    inputs: Inputs, out: dict,
) -> Any:
    """``batch_apply_ops`` and ``decay_tick`` with no cache above."""
    policy = ReinforcementPolicy()
    before = _rss_mb()
    store = _populated(make(), spec.n_users)
    out[f"{layer}.state_mb"] = max(_rss_mb() - before, 0.0)
    batches, __, n_ops = _op_batches(inputs)

    def apply_all() -> None:
        for items in batches:
            store.batch_apply_ops(items, policy)

    out[f"{layer}.apply_us_per_op"] = (
        p.best(f"{layer}.batch_apply_ops", apply_all, n_ops) / n_ops * 1e6
    )
    tick_s = p.best(
        f"{layer}.decay_tick", lambda: store.decay_tick(policy), spec.n_users
    )
    out[f"{layer}.decay_tick_ms"] = tick_s * 1e3
    # computed, not measured: a tick reads and writes the float64
    # intensity and sensibility columns of every registered row
    moved = spec.n_users * len(EMOTION_NAMES) * 8 * 2 * 2
    out[f"{layer}.decay_gb_per_s"] = moved / tick_s / 1e9
    return store


def probe_cache(
    p: Probe, store: Any, spec: Spec, inputs: Inputs, out: dict
) -> SumCache:
    policy = ReinforcementPolicy()
    cache = SumCache(store)
    batches, n_events, __ = _op_batches(inputs)

    def commit_all() -> None:
        for items in batches:
            cache.apply_batch_and_publish(items, policy)
            cache.mark_batch()

    out["streaming.cache.commit_us_per_event"] = (
        p.best("cache.apply_batch_and_publish+mark_batch", commit_all,
               n_events) / n_events * 1e6
    )
    everyone = list(range(spec.n_users))
    some = everyone[:: max(1, spec.n_users // 1_000)]
    cache.batch(everyone)  # stage the mirrors once

    def snapshot_ones() -> None:
        batch = cache.batch
        for uid in some:
            batch([uid])

    out["streaming.cache.snapshot_1_us"] = (
        p.best("cache.batch[1]", snapshot_ones, len(some)) / len(some) * 1e6
    )
    out["streaming.cache.snapshot_all_ms"] = p.best(
        "cache.batch[all]", lambda: cache.batch(everyone), spec.n_users
    ) * 1e3
    stop = threading.Event()

    def writer() -> None:
        while not stop.is_set():
            commit_all()

    thread = threading.Thread(target=writer, name="ledger-probe-writer")
    thread.start()
    try:
        out["streaming.cache.snapshot_under_write_ms"] = p.best(
            "cache.batch[all] under write", lambda: cache.batch(everyone),
            spec.n_users, pick=lambda s: percentile(s, 50),
        ) * 1e3
    finally:
        stop.set()
        thread.join()
    return cache


def probe_procplane(p: Probe, spec: Spec, inputs: Inputs, out: dict) -> None:
    """One short replay through real worker processes."""
    n_shards = max(1, len(worlds.allowed_cpus()) - 1)
    store = _populated(
        MultiProcSumStore(n_shards=n_shards, initial_capacity=spec.n_users),
        spec.n_users,
    )
    updater = MultiProcUpdater(store, inputs.catalog.emotions)
    events = inputs.segment
    try:
        out["streaming.procplane.start_s"] = p.best(
            "procplane.start", updater.start, reps=1
        )
        pids = [w.process.pid for w in updater.workers]

        def workers_cpu() -> float:
            return sum(harness.proc_cpu_seconds(pid) for pid in pids)

        parent0, workers0 = time.process_time(), workers_cpu()
        submit_s = p.best(
            "procplane.submit_many", lambda: updater.submit_many(events),
            len(events), reps=1,
        )
        p.best("procplane.drain", updater.drain, reps=1)
        parent1, workers1 = time.process_time(), workers_cpu()
        n = len(events)
        out["streaming.procplane.submit_us_per_event"] = submit_s / n * 1e6
        out["streaming.procplane.parent_cpu_us_per_event"] = (
            (parent1 - parent0) / n * 1e6
        )
        out["streaming.procplane.worker_cpu_us_per_event"] = (
            (workers1 - workers0) / n * 1e6
        )
        out["streaming.procplane.drain_idle_ms"] = p.best(
            "procplane.drain[idle]", updater.drain
        ) * 1e3
    finally:
        updater.stop()
        store.close()


def probe_advice(
    p: Probe, store: Any, spec: Spec, inputs: Inputs, out: dict
) -> None:
    engine = AdviceEngine()
    catalog, profile = inputs.catalog, inputs.profile
    one = store.batch([0])
    everyone = store.batch(list(range(spec.n_users)))
    candidates = catalog.item_ids[:K_CANDIDATES]

    def multiplier(models: Any, items: list[int]) -> Callable[[], Any]:
        return lambda: engine.multiplier_matrix(
            models, items, catalog.attributes, profile
        )

    out["core.advice.multiplier_1xcand_us"] = p.best(
        "advice.multiplier_matrix[1 x candidates]",
        multiplier(one, candidates), len(candidates),
    ) * 1e6
    out["core.advice.multiplier_1xcatalog_ms"] = p.best(
        "advice.multiplier_matrix[1 x catalog]",
        multiplier(one, catalog.item_ids), len(catalog.item_ids),
    ) * 1e3
    out["core.advice.multiplier_popx1_ms"] = p.best(
        "advice.multiplier_matrix[population x 1]",
        multiplier(everyone, catalog.item_ids[:1]), spec.n_users,
    ) * 1e3


def probe_retrieval(
    p: Probe, cache: SumCache, spec: Spec, inputs: Inputs, out: dict
) -> None:
    provider = worlds.make_provider(inputs)
    ids, vectors = provider.item_vectors()
    built: dict[str, ClusteredANNIndex] = {}

    def build() -> None:
        built["index"] = ClusteredANNIndex.build(ids, vectors, seed=inputs.seed)

    out["retrieval.index.build_s"] = p.best(
        "index.build", build, len(ids), reps=1
    )
    index = built["index"]
    out["retrieval.index.pages_mb"] = index.pages.nbytes / 1e6
    users = list(range(0, spec.n_users, max(1, spec.n_users // 100)))
    contexts = {uid: cache.batch([uid]) for uid in users}
    queries = [provider.query_vectors([u], contexts[u])[0] for u in users]
    k = min(K_CANDIDATES, len(ids) - 1)

    def search_all() -> None:
        for query in queries:
            index.search(query, k, n_probe=N_PROBE)

    out["retrieval.index.search_us"] = (
        p.best("index.search", search_all, len(queries)) / len(queries) * 1e6
    )
    some = queries[:10]

    def exact_all() -> None:
        for query in some:
            index.exact_topk(query, K)

    exact_s = p.best("index.exact_topk", exact_all, len(some)) / len(some)
    out["retrieval.index.exact_topk_ms"] = exact_s * 1e3
    # computed bytes: one exact scan reads every page row once
    out["retrieval.index.scan_gb_per_s"] = index.pages.nbytes / exact_s / 1e9

    def query_all() -> None:
        for uid in users:
            provider.query_vectors([uid], contexts[uid])

    out["retrieval.embeddings.query_us"] = (
        p.best("embeddings.query_vectors", query_all, len(users))
        / len(users) * 1e6
    )
    registry = MetricsRegistry()
    retriever = CandidateRetriever(
        provider,
        config=RetrievalConfig(k_candidates=K_CANDIDATES, n_probe=N_PROBE),
        index=index, telemetry=registry,
    )

    def retrieve_all() -> None:
        for uid in users:
            retriever.retrieve([uid], None, K, context=contexts[uid])

    out["retrieval.retriever.retrieve_us"] = (
        p.best("retriever.retrieve", retrieve_all, len(users))
        / len(users) * 1e6
    )
    service = RecommendationService(
        sums=cache, domain_profile=inputs.profile,
        item_attributes=inputs.catalog.attributes, retriever=retriever,
    )
    service.register(
        "vec", worlds.VectorScorer(inputs.users, inputs.catalog.item_vectors)
    )
    out["retrieval.retriever.recall_at_10"] = oracle.recall_at_k(
        service, inputs.catalog.item_ids, spec.n_users, inputs.seed
    )
    snapshot = registry.snapshot()
    out["retrieval.retriever.fallbacks"] = sum(
        snapshot.value(labelled("serving.retrieval.fallbacks", reason=reason))
        for reason in ("no_index", "small_catalog", "exact_k", "uncovered")
    )
    refresher = IndexRefresher(provider, retriever, seed=inputs.seed)
    out["retrieval.refresh.rebuild_swap_s"] = p.best(
        "refresh.poll(force)", lambda: refresher.poll(force=True),
        len(ids), reps=1,
    )


def run_probes(
    spec: Spec, inputs: Inputs, recorder: Recorder, smoke: bool
) -> dict[str, float]:
    out: dict[str, float] = {}
    p = Probe(recorder, smoke)
    n_shards = spec.n_shards or 1
    probe_bus(p, spec, inputs, out)
    probe_mapper(p, inputs, out)
    shm = probe_store(
        p, "core.shm_store",
        lambda: MultiProcSumStore(
            n_shards=n_shards, initial_capacity=spec.n_users
        ),
        spec, inputs, out,
    )
    shm.close()
    store = probe_store(
        p, "core.sharded_store",
        lambda: ShardedSumStore(
            n_shards=n_shards, initial_capacity=spec.n_users
        ),
        spec, inputs, out,
    )
    probe_advice(p, store, spec, inputs, out)
    cache = probe_cache(p, store, spec, inputs, out)
    probe_retrieval(p, cache, spec, inputs, out)
    probe_procplane(p, spec, inputs, out)
    p.finish()
    return out


# -- the traced run -----------------------------------------------------------


def stage_attribution(
    world: worlds.World, recorder: Recorder, out: dict
) -> tuple[float, float]:
    """Per-stage mean of one recommend-only pass, from the library's own
    ``serving.stage_seconds`` histograms; returns (stage sum, request
    mean as the ledger timed it), both in microseconds."""
    registry, service = world.registry, world.service
    requests = world.inputs.serve_requests
    names = [labelled("serving.stage_seconds", stage=s) for s in STAGES]
    before = registry.snapshot()
    marks = [perf_counter()]
    for request in requests:
        service.recommend(request)
        marks.append(perf_counter())
    after = registry.snapshot()
    root = recorder.add(
        ATTRIBUTION_TRACE, None, "stage_attribution", marks[0], marks[-1],
        len(requests),
    )
    for began, finished in zip(marks, marks[1:]):
        recorder.add(
            ATTRIBUTION_TRACE, root, "service.recommend", began, finished
        )
    total = 0.0
    for stage, name in zip(STAGES, names):
        a, b = before.histogram(name), after.histogram(name)
        mean_us = (b.sum - a.sum) / (b.count - a.count) * 1e6
        out[f"serving.service.stage_{stage}_us"] = mean_us
        total += mean_us
    return total, (marks[-1] - marks[0]) / len(requests) * 1e6


def block_median(blocks: list[harness.Block], pick: Callable) -> float:
    return percentile([pick(b) for b in blocks], 50)


def trace(
    workload: str, seed: int, seconds: float, scale: str, pin: bool,
    out_dir: Path,
) -> dict[str, Any]:
    """The ``--trace 1`` run: every per-layer metric of one workload."""
    spec = worlds.scaled(worlds.SPECS[workload], scale, seconds)
    smoke = scale == "smoke"
    n_blocks = 2 if smoke else harness.TRACE_BLOCKS
    host = harness.prepare_host(spec, pin)
    inputs = worlds.make_inputs(spec, seed)
    recorder = Recorder()
    out: dict[str, float] = {}
    notes: list[str] = []

    with ExitStack() as stack:
        plain_world = worlds.build_world(spec, inputs)
        stack.callback(plain_world.close)
        world = worlds.build_world(spec, inputs, traced=True)
        stack.callback(world.close)
        plain = harness.Session(plain_world)
        spied = harness.Session(world, recorder)
        # interleaved block by block, so host drift lands on both alike
        harness.run_sessions([plain, spied], n_blocks)
        stage_sum, request_us = stage_attribution(world, recorder, out)
        counters = oracle.finish_checks(world, spied.tally, seed)
        stats = world.updater.stats()
    untraced, traced = plain.estimates(1), spied.estimates(1)
    tally, traced_tally = plain.tally, spied.tally
    good = [b for b in plain.blocks if b.valid] or plain.blocks
    out["streaming.updater.visible_p99_ms"] = block_median(
        good, lambda b: b.visible["p99"])
    out["streaming.updater.visible_p999_ms"] = block_median(
        good, lambda b: b.visible["p999"])
    out["streaming.updater.visible_samples"] = block_median(
        good, lambda b: b.visible["samples"])
    out["streaming.updater.generator_late_p99_ms"] = block_median(
        good, lambda b: b.late_p99_ms)
    out["serving.service.request_p99_ms"] = block_median(
        good, lambda b: percentile(b.request_latencies_ms, 99))
    out["serving.service.request_samples"] = block_median(
        good, lambda b: len(b.request_latencies_ms))
    tally.attempted += traced_tally.attempted
    tally.failed += traced_tally.failed
    tally.reasons += traced_tally.reasons
    notes.append(
        f"stage self-times sum to {stage_sum:.1f} us of a {request_us:.1f} us "
        f"traced recommend() ({stage_sum / request_us:.1%})"
    )
    for name in PER_BLOCK:
        if name in untraced and name in traced:
            base, slower = untraced[name], traced[name] - untraced[name]
            if harness.END_TO_END[name][1] == "higher":
                slower = -slower
            out[f"obs.trace_overhead_pct.{name}"] = slower / base * 100.0
    out["streaming.bus.redelivered"] = stats.redelivered
    out["streaming.bus.shed_background"] = stats.shed_background
    out["streaming.bus.shed_expired"] = stats.shed_expired
    out["streaming.bus.dead_lettered"] = stats.dead_lettered
    out["streaming.consumer.batches"] = stats.batches
    out["streaming.consumer.mean_batch_size"] = (
        stats.applied / stats.batches if stats.batches else 0.0
    )
    out["streaming.consumer.expired_dropped"] = stats.expired_dropped

    out.update(run_probes(spec, inputs, recorder, smoke))

    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / f"trace_{workload}.jsonl"
    with open(trace_path, "w", encoding="utf-8") as handle:
        for span in recorder.spans:
            handle.write(json.dumps(span.as_dict()) + "\n")
    notes.append(f"{len(recorder.spans)} spans written to {trace_path}")
    for span in recorder.spans:
        if span.name.startswith("phase.") and span.trace_id == 1:
            notes.append(
                f"block 0 {span.name}: {(span.end_ns - span.start_ns) / 1e6:.1f}"
                f" ms, self {recorder.self_time_ns(span) / 1e6:.1f} ms"
            )
    missing = sorted(set(PER_LAYER) - set(out))
    if missing:
        tally.fail(f"per-layer metrics missing: {missing}")
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "scale": scale, "trace": 1,
        "correct": tally.failed == 0,
        "attempted": tally.attempted, "failed": tally.failed,
        "failures": tally.reasons,
        "metrics": {
            name: {"value": float(out[name]), "unit": PER_LAYER[name][0]}
            for name in PER_LAYER if name in out
        },
        "notes": notes,
        "counters": counters,
        "host": host,
    }

"""The candidate retriever: fallbacks, budgets, and the swap protocol."""

import threading
import time
from time import monotonic
from types import SimpleNamespace

import numpy as np
import pytest

import repro.core.seqlock as seqlock_module
from repro.obs.metrics import MetricsRegistry, labelled
from repro.retrieval.embeddings import StaticEmbeddingProvider
from repro.retrieval.index import ClusteredANNIndex
from repro.retrieval.refresh import IndexRefresher
from repro.retrieval.retriever import CandidateRetriever, RetrievalConfig
from repro.serving.budget import Budget, DeadlineExceeded

DIM = 8


def make_provider(n_items=400, n_users=20, seed=0):
    rng = np.random.default_rng(seed)
    items = [f"item-{i}" for i in range(n_items)]
    return StaticEmbeddingProvider(
        items,
        rng.normal(0.0, 1.0, (n_items, DIM)),
        list(range(n_users)),
        rng.normal(0.0, 1.0, (n_users, DIM)),
    )


def make_retriever(provider=None, registry=None, **config):
    provider = provider or make_provider()
    defaults = dict(k_candidates=32, n_probe=4, min_catalog=10)
    defaults.update(config)
    return CandidateRetriever(
        provider,
        config=RetrievalConfig(**defaults),
        telemetry=registry,
    )


def build_index(provider, seed=0):
    ids, vectors = provider.item_vectors()
    return ClusteredANNIndex.build(ids, vectors, seed=seed)


class TestFallbacks:
    def test_no_index_falls_back(self):
        registry = MetricsRegistry()
        retriever = make_retriever(registry=registry)
        assert retriever.retrieve([1], None, 5) is None
        snap = registry.snapshot()
        assert snap.value(
            labelled("serving.retrieval.fallbacks", reason="no_index")
        ) == 1
        assert snap.value(
            labelled("serving.retrieval.requests", path="fallback")
        ) == 1

    def test_small_catalog_falls_back(self):
        provider = make_provider(n_items=20)
        registry = MetricsRegistry()
        retriever = make_retriever(provider, registry, min_catalog=100)
        retriever.swap(build_index(provider))
        assert retriever.retrieve([1], None, 5) is None
        assert registry.snapshot().value(
            labelled("serving.retrieval.fallbacks", reason="small_catalog")
        ) == 1

    def test_oversampling_reaching_catalog_falls_back_exact(self):
        provider = make_provider(n_items=50)
        registry = MetricsRegistry()
        retriever = make_retriever(
            provider, registry, k_candidates=64, min_catalog=10
        )
        retriever.swap(build_index(provider))
        # k_candidates (64) >= catalog (50): exact scan is the same set
        assert retriever.retrieve([1], None, 5) is None
        assert registry.snapshot().value(
            labelled("serving.retrieval.fallbacks", reason="exact_k")
        ) == 1

    def test_unindexed_item_in_request_falls_back(self):
        provider = make_provider()
        registry = MetricsRegistry()
        retriever = make_retriever(provider, registry)
        retriever.swap(build_index(provider))
        assert retriever.retrieve([1], ["item-1", "ghost"], 5) is None
        assert registry.snapshot().value(
            labelled("serving.retrieval.fallbacks", reason="uncovered")
        ) == 1

    def test_explicit_full_catalog_is_the_hot_path(self):
        provider = make_provider()
        retriever = make_retriever(provider)
        index = build_index(provider)
        retriever.swap(index)
        # spelling out the whole served catalog == asking for it by name
        via_list = retriever.retrieve([1], list(index.item_ids), 5)
        via_none = retriever.retrieve([1], None, 5)
        assert via_list == via_none


class TestRetrieve:
    def test_retrieves_oversampled_candidates(self):
        provider = make_provider()
        registry = MetricsRegistry()
        retriever = make_retriever(provider, registry, k_candidates=32)
        retriever.swap(build_index(provider))
        candidates = retriever.retrieve([3], None, 5)
        assert len(candidates) == 32
        assert len(set(candidates)) == 32
        snap = registry.snapshot()
        assert snap.value(
            labelled("serving.retrieval.requests", path="retrieved")
        ) == 1
        assert snap.histogram("serving.retrieval.seconds").count == 1

    def test_restricted_request_is_exact_over_the_subset(self):
        provider = make_provider()
        retriever = make_retriever(provider, k_candidates=8)
        index = build_index(provider)
        retriever.swap(index)
        subset = [f"item-{i}" for i in range(0, 400, 5)]
        got = retriever.retrieve([2], subset, 3)
        query = provider.query_vectors([2])[0]
        rows = index.mask_rows(subset)
        expected = index.search(query, 8, allowed_rows=rows)
        assert got == expected

    def test_expired_budget_aborts_with_retrieve_stage(self):
        provider = make_provider()
        retriever = make_retriever(provider)
        retriever.swap(build_index(provider))
        with pytest.raises(DeadlineExceeded) as excinfo:
            retriever.retrieve(
                [1], None, 5, budget=Budget(monotonic() - 1.0)
            )
        assert excinfo.value.stage == "retrieve"

    def test_tight_budget_shrinks_probes_then_candidates(self):
        provider = make_provider()
        registry = MetricsRegistry()
        retriever = make_retriever(provider, registry, k_candidates=32)
        retriever.swap(build_index(provider))
        retriever.retrieve([1], None, 5)  # seed the search-time EWMA
        assert retriever._search_ewma > 0.0
        # pretend searches take ~1s: any real budget is "tight"
        retriever._search_ewma = 1.0
        candidates = retriever.retrieve(
            [1], None, 5, budget=Budget.from_timeout(0.5)
        )
        assert len(candidates) == 5  # k_candidates cut down to k
        snap = registry.snapshot()
        assert snap.value(
            labelled("serving.retrieval.shrunk", knob="n_probe")
        ) == 1
        assert snap.value(
            labelled("serving.retrieval.shrunk", knob="k_candidates")
        ) == 1


class TestSwapProtocol:
    def test_generations_are_monotonic(self):
        provider = make_provider(n_items=50)
        retriever = make_retriever(provider)
        index = build_index(provider)
        assert retriever.generation == 0
        assert retriever.swap(index) == 1
        assert retriever.swap(index, generation=7) == 7
        with pytest.raises(ValueError, match="backwards"):
            retriever.swap(index, generation=7)
        with pytest.raises(ValueError, match="backwards"):
            retriever.swap(index, generation=3)
        assert retriever.generation == 7

    def test_generation_gauge_tracks_swaps(self):
        provider = make_provider(n_items=50)
        registry = MetricsRegistry()
        retriever = make_retriever(provider, registry)
        retriever.swap(build_index(provider))
        assert registry.snapshot().value(
            "serving.retrieval.generation"
        ) == 1.0

    def test_catalog_items_page_order(self):
        provider = make_provider(n_items=30)
        retriever = make_retriever(provider)
        assert retriever.catalog_items() == ()
        index = build_index(provider)
        retriever.swap(index)
        assert retriever.catalog_items() == index.item_ids

    def test_concurrent_swaps_never_tear_the_pair(self):
        """The seqlock contract, witnessed: readers racing a swap storm
        always observe (index, generation) pairs that were published
        together, and generations never go backwards per reader —
        mirroring tests/streaming/test_snapshot_isolation.py for the
        index plane."""
        provider = make_provider(n_items=60)
        retriever = make_retriever(provider)
        ids, vectors = provider.item_vectors()
        # one distinct index object per generation: a torn pair is then
        # directly visible as "index of gen X served with stamp Y"
        n_swaps = 200
        by_gen = {
            g: ClusteredANNIndex.build(ids, vectors, n_clusters=4)
            for g in range(1, n_swaps + 1)
        }
        published = {id(index): g for g, index in by_gen.items()}
        errors = []
        done = threading.Event()

        def reader():
            last = 0
            while not done.is_set():
                index, generation = retriever.current()
                if index is None:
                    if generation != 0:
                        errors.append("index None at gen %d" % generation)
                    continue
                if published.get(id(index)) != generation:
                    errors.append(
                        f"torn pair: index of gen {published.get(id(index))} "
                        f"served with stamp {generation}"
                    )
                if generation < last:
                    errors.append(
                        f"generation went backwards: {last} -> {generation}"
                    )
                last = generation

        threads = [threading.Thread(target=reader) for __ in range(4)]
        for thread in threads:
            thread.start()
        for g in range(1, n_swaps + 1):
            retriever.swap(by_gen[g], generation=g)
        done.set()
        for thread in threads:
            thread.join()
        assert errors == []
        assert retriever.generation == n_swaps

    def test_a_read_inside_a_swap_window_never_tears(self, monkeypatch):
        """A read forced into a swap's odd window, the way
        ``tests/core/test_snapshots.py``'s ``read_mid_write`` forces one:
        the writer opens the epoch window, stores the new index and waits;
        it stores the new generation only once the reader has returned or
        has yielded to retry (observed through the seqlock's
        ``time.sleep``).  So the reader always starts mid-swap, and the
        verdict never depends on scheduling."""
        provider = make_provider(n_items=60)
        retriever = make_retriever(provider)
        ids, vectors = provider.item_vectors()
        old = ClusteredANNIndex.build(ids, vectors, n_clusters=4)
        new = ClusteredANNIndex.build(ids, vectors, n_clusters=4)
        retriever.swap(old, generation=1)
        progress, opened = threading.Event(), threading.Event()

        def spin(seconds):
            progress.set()
            time.sleep(seconds)

        monkeypatch.setattr(seqlock_module, "time", SimpleNamespace(sleep=spin))

        def writer():  # swap()'s window, held open after its first store
            with retriever._swap_lock, retriever._epoch.write(0):
                retriever._index = new
                opened.set()
                progress.wait(timeout=30)
                retriever._generation = 2

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            assert opened.wait(timeout=30)
            index, generation = retriever.current()
        finally:
            progress.set()
            thread.join(timeout=30)
        assert not thread.is_alive()
        which = "new" if index is new else "old"
        assert (index is old and generation == 1) or (
            index is new and generation == 2
        ), f"torn pair: the {which} index served with stamp {generation}"


class TestIndexRefresher:
    def test_first_poll_builds_then_stays_quiet(self):
        provider = make_provider(n_items=60)
        retriever = make_retriever(provider)
        refresher = IndexRefresher(provider, retriever, seed=0)
        assert refresher.poll() == 1
        assert len(retriever.catalog_items()) == 60
        assert refresher.poll() is None  # nothing moved
        assert refresher.poll(force=True) == 2

    def test_fingerprint_change_triggers_rebuild(self):
        provider = make_provider(n_items=60)
        retriever = make_retriever(provider)
        refresher = IndexRefresher(provider, retriever, seed=0)
        refresher.poll()
        provider.bump()
        assert refresher.poll() == 2

    def test_cache_version_advance_triggers_rebuild(self):
        class FakeCache:
            global_version = 0

        cache = FakeCache()
        provider = make_provider(n_items=60)
        retriever = make_retriever(provider)
        refresher = IndexRefresher(
            provider, retriever, cache=cache, min_new_versions=2, seed=0
        )
        refresher.poll()
        cache.global_version = 1  # below the damping threshold
        assert refresher.poll() is None
        cache.global_version = 2
        assert refresher.poll() == 2

    def test_build_instruments(self):
        registry = MetricsRegistry()
        provider = make_provider(n_items=60)
        retriever = make_retriever(provider)
        refresher = IndexRefresher(
            provider, retriever, seed=0, telemetry=registry
        )
        refresher.poll()
        snap = registry.snapshot()
        assert snap.value("serving.retrieval.index_rebuilds") == 1
        assert snap.value("serving.retrieval.index_items") == 60.0
        assert snap.histogram(
            "serving.retrieval.index_build_seconds"
        ).count == 1

    def test_cadence_context_manager(self):
        provider = make_provider(n_items=60)
        retriever = make_retriever(provider)
        refresher = IndexRefresher(
            provider, retriever, interval=0.01, seed=0
        )
        deadline = monotonic() + 5.0
        with refresher:
            while not retriever.catalog_items() and monotonic() < deadline:
                pass
        assert len(retriever.catalog_items()) == 60

    def test_validations(self):
        provider = make_provider(n_items=20)
        retriever = make_retriever(provider)
        with pytest.raises(TypeError, match="item_vectors"):
            IndexRefresher(object(), retriever)
        with pytest.raises(ValueError, match="min_new_versions"):
            IndexRefresher(provider, retriever, min_new_versions=0)
        with pytest.raises(ValueError, match="interval"):
            IndexRefresher(provider, retriever).start()

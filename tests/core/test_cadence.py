"""The shared cadence runner and the three drivers built on it.

A failed tick used to vanish (``except Exception: continue``): the
cadence kept running — correct — but nobody could tell a checkpointer
that has been failing for an hour from a healthy one.  Failures are now
counted on the owner's registry and logged.
"""

import logging
import threading
import time

import numpy as np
import pytest

from repro.core.cadence import Cadence, CadenceDriven
from repro.core.sharded_store import ShardedSumStore
from repro.obs.metrics import MetricsRegistry, labelled
from repro.retrieval.embeddings import StaticEmbeddingProvider
from repro.retrieval.refresh import IndexRefresher
from repro.retrieval.retriever import CandidateRetriever
from repro.serving import Checkpointer, RecommendationService, ReplicaRefresher


class CountingFailures:
    def __init__(self):
        self.count = 0

    def inc(self):
        self.count += 1


def test_a_failing_tick_is_counted_logged_and_does_not_kill_the_cadence(caplog):
    failures = CountingFailures()
    third = threading.Event()
    ticks = []

    def tick():
        ticks.append(len(ticks))
        if len(ticks) == 3:
            third.set()
        if len(ticks) <= 2:
            raise OSError(f"disk full #{len(ticks)}")

    cadence = Cadence(tick, 0.005, "test-cadence", failures)
    with caplog.at_level(logging.ERROR, logger="repro.core.cadence"):
        cadence.start()
        try:
            assert third.wait(10.0)  # it survived two failures
        finally:
            cadence.stop()
    assert not cadence.is_alive()
    assert failures.count == 2
    logged = [r for r in caplog.records if "test-cadence" in r.getMessage()]
    assert len(logged) == 2 and all(r.exc_info for r in logged)


class Driver(CadenceDriven):
    def __init__(self, interval, failures):
        self.polled = threading.Event()
        self._init_cadence(self.poll, interval, "test-driver", failures)

    def poll(self):
        self.polled.set()


def test_driver_surface_start_stop_context_manager():
    driver = Driver(0.005, CountingFailures())
    assert driver.start() is driver
    thread = driver._thread
    assert driver.start() is driver and driver._thread is thread  # idempotent
    assert driver.polled.wait(10.0)
    driver.stop()
    assert not thread.is_alive() and driver._thread is None
    driver.stop()  # idempotent
    with driver as entered:
        assert entered is driver and driver._thread.is_alive()
    assert driver._thread is None


def test_driver_without_an_interval_names_the_manual_call():
    with pytest.raises(ValueError, match=r"call poll\(\) instead"):
        Driver(None, CountingFailures()).start()


def wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.005)
    return predicate()


def test_the_three_drivers_count_cadence_failures_on_their_registry(tmp_path):
    registry = MetricsRegistry()
    store = ShardedSumStore(n_shards=2)
    store.get_or_create(1)

    # checkpointer: the save root is a *file*, so every checkpoint fails
    blocked = tmp_path / "not-a-directory"
    blocked.write_text("x")
    checkpointer = Checkpointer(
        store, blocked, interval=0.005, telemetry=registry
    )

    # replica refresher: a manifest that is not a store manifest
    root = tmp_path / "state"
    Checkpointer(store, root).checkpoint()
    service = RecommendationService(sums=ShardedSumStore.load(root))
    (root / "manifest.json").write_text("{not json")
    replica = ReplicaRefresher(root, service, interval=0.005, telemetry=registry)

    # index refresher: a provider whose build side raises
    class BrokenProvider(StaticEmbeddingProvider):
        def item_vectors(self):
            raise RuntimeError("factor matrix unavailable")

    provider = BrokenProvider(["a"], np.ones((1, 2)), [1], np.ones((1, 2)))
    index = IndexRefresher(
        provider, CandidateRetriever(provider), interval=0.005,
        telemetry=registry,
    )

    names = [
        labelled("replica.cadence_failures", driver="checkpointer"),
        labelled("replica.cadence_failures", driver="refresher"),
        "serving.retrieval.cadence_failures",
    ]
    assert all(registry.snapshot().value(name) == 0 for name in names)
    logging.getLogger("repro.core.cadence").disabled = True
    try:
        with checkpointer, replica, index:
            assert wait_for(
                lambda: all(
                    registry.snapshot().value(name) >= 2 for name in names
                )
            )
    finally:
        logging.getLogger("repro.core.cadence").disabled = False
    # the manual calls still raise to their caller — only the cadence,
    # which has no caller, converts failures into counts
    with pytest.raises(RuntimeError, match="factor matrix"):
        index.poll()

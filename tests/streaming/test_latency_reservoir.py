"""The update-to-visible latency reservoir keeps a worker's newest samples.

It used to keep the *first* ``MAX_LATENCY_SAMPLES`` and then go blind.
Now a worker extends its list and, at twice the cap, drops the oldest
in place.  On the process plane each barrier reply ships the samples
recorded since the previous barrier, and the parent keeps each shard's
newest ``MAX_LATENCY_SAMPLES``.  The cap is shrunk here (forked workers
inherit it) so a few hundred ticks cross it several times.
"""

import pytest

from repro.core.shm_store import MultiProcSumStore
from repro.core.sum_store import ColumnarSumStore
from repro.streaming.consumer import ShardWorker
from repro.streaming.procplane import MultiProcUpdater
from repro.streaming.updater import StreamingUpdater

CAP = 50


@pytest.fixture(autouse=True)
def small_cap(monkeypatch):
    monkeypatch.setattr(ShardWorker, "MAX_LATENCY_SAMPLES", CAP)


def test_thread_plane_keeps_the_newest_samples_under_twice_the_cap():
    store = ColumnarSumStore()
    store.get_or_create(1)
    with StreamingUpdater(store, {}, n_shards=1) as updater:
        (worker,) = updater.workers
        samples = worker.stats.latencies
        updater.tick([1] * CAP)
        assert updater.drain()
        assert len(updater.latencies()) == CAP
        updater.tick([1])
        assert updater.drain()
        # the sample after the cap is visible (the old reservoir was full)
        assert len(updater.latencies()) == CAP + 1
        for burst in (7, CAP, 3, CAP - 1, 31, CAP, CAP, 12):
            before = list(samples)
            updater.tick([1] * burst)
            assert updater.drain()
            assert worker.stats.latencies is samples  # trimmed in place
            assert CAP <= len(samples) < 2 * CAP
            # the burst's samples are all there, after the newest of
            # what was there before: only the oldest were dropped
            kept = len(samples) - burst
            assert kept >= 0 and samples[:kept] == before[len(before) - kept:]
        assert updater.latencies() == samples


def test_process_plane_ships_the_newest_samples_at_each_barrier():
    store = MultiProcSumStore(n_shards=1)
    try:
        with MultiProcUpdater(store, {}) as updater:
            updater.tick([1] * CAP)
            assert updater.drain()
            first = updater.latencies()
            assert len(first) == CAP
            updater.tick([1])
            assert updater.drain()
            second = updater.latencies()
            # the worker's sample CAP + 1 is the parent reservoir's
            # last; the reservoir itself stays CAP long
            assert len(second) == CAP
            assert second[:-1] == first[1:]
            assert second != first
            updater.tick([1] * (3 * CAP + 5))  # across a worker-side trim
            assert updater.drain()
            third = updater.latencies()
            assert len(third) == CAP
            assert third != second
    finally:
        store.close()

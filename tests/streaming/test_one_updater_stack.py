"""Both worker planes run one updater stack.

A process-plane worker is a one-shard ``StreamingUpdater``, so the two
planes share one stats schema by construction, the shared updater
surface has the same signatures on both classes, and the parent's
mutation clock, which the delta-checkpoint path reads, moves once per
barrier that wrote the worker's shard.
"""

import dataclasses
import inspect
import os

import pytest

from repro.core.emotions import EMOTION_NAMES
from repro.core.sharded_store import ShardedSumStore
from repro.core.shm_store import MultiProcSumStore
from repro.lifelog.events import ActionCategory, Event
from repro.streaming.procplane import MultiProcUpdater
from repro.streaming.updater import StreamingStats, StreamingUpdater

ITEM_EMOTIONS = {"10": (EMOTION_NAMES[0], EMOTION_NAMES[1])}

SHARED_SURFACE = (
    "start", "stop", "submit", "submit_many", "tick", "drain", "stats",
    "latencies", "__enter__", "__exit__",
)


def event(uid, value="5", ts=0.0):
    return Event(
        timestamp=1_141_000_000.0 + ts,
        user_id=uid,
        action="course_rate",
        category=ActionCategory.RATING,
        payload={"target": "10", "value": value},
    )


@pytest.mark.parametrize("name", SHARED_SURFACE)
def test_shared_surface_has_one_signature(name):
    def shape(cls):
        return [
            (p.name, p.kind, p.default)
            for p in inspect.signature(getattr(cls, name)).parameters.values()
        ]

    assert shape(StreamingUpdater) == shape(MultiProcUpdater)


def test_submit_many_takes_no_chunk_argument():
    for cls in (StreamingUpdater, MultiProcUpdater):
        assert "chunk" not in inspect.signature(cls.submit_many).parameters


def feed(updater):
    """Two decay ticks (one per shard) and one poison rating whose value
    is not an int: the mapper raises on every attempt, so the event is
    nacked ``max_attempts`` times and then dead-lettered."""
    with updater:
        updater.tick([0, 1])
        updater.submit_many([event(2, value="five")])
        assert updater.drain()
    return updater.stats()


def test_both_planes_report_one_stats_schema():
    threads_store = ShardedSumStore(2)
    threads = feed(StreamingUpdater(threads_store, ITEM_EMOTIONS, n_shards=2))
    procs_store = MultiProcSumStore(2)
    try:
        procs = feed(MultiProcUpdater(procs_store, ITEM_EMOTIONS))
        procs_dump = procs_store.dumps()
    finally:
        procs_store.close()
    assert dataclasses.asdict(procs) == dataclasses.asdict(threads)
    assert (threads.failed, threads.redelivered, threads.dead_lettered) == (3, 2, 1)
    assert (threads.submitted, threads.applied, threads.batches) == (3, 2, 2)
    assert threads.queue_depth == threads.pending_writes == 0
    assert procs_dump == threads_store.dumps()
    assert [f.name for f in dataclasses.fields(procs)] == [
        f.name for f in dataclasses.fields(StreamingStats)
    ]


def inodes(generation, shard):
    files = sorted((generation / f"shard-{shard:02d}").rglob("*"))
    files = [f for f in files if f.is_file()]
    assert files
    return [os.stat(f).st_ino for f in files]


def test_delta_checkpoints_through_worker_processes(tmp_path):
    store = MultiProcSumStore(n_shards=2)
    try:
        updater = MultiProcUpdater(store, ITEM_EMOTIONS, checkpoint_root=tmp_path)
        with updater:
            started = [shard.mutation_count for shard in store.shards]
            updater.submit_many([event(uid, ts=uid) for uid in range(8)])
            first = updater.checkpoint()
            clocks = [shard.mutation_count for shard in store.shards]
            assert clocks == [n + 1 for n in started]

            # a barrier with nothing routed bumps nothing
            assert updater.drain()
            assert [shard.mutation_count for shard in store.shards] == clocks

            # only shard 0's users: one bump there, none on shard 1
            updater.submit_many([event(uid, ts=10 + uid) for uid in (0, 2, 4, 2)])
            assert updater.drain()
            assert [shard.mutation_count for shard in store.shards] == [
                clocks[0] + 1, clocks[1]
            ]
            second = updater.checkpoint()
        assert inodes(second, 1) == inodes(first, 1)  # hardlinked
        assert set(inodes(second, 0)).isdisjoint(inodes(first, 0))  # rewritten
    finally:
        store.close()


def test_worker_growth_leaves_no_segment_behind():
    # users first seen by a worker grow its arrays several times between
    # two barriers: the parent never sees the intermediate segments, so
    # the worker must release them itself
    before = set(os.listdir("/dev/shm"))
    store = MultiProcSumStore(n_shards=2, initial_capacity=8)
    try:
        with MultiProcUpdater(store, ITEM_EMOTIONS) as updater:
            updater.submit_many([event(uid, ts=uid) for uid in range(600)])
            assert updater.drain()
        assert len(store) == 600
    finally:
        store.close()
    assert set(os.listdir("/dev/shm")) - before == set()

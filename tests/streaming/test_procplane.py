"""Multi-process shard plane: equivalence, crash recovery, telemetry.

The contracts ISSUE 8 ships on:

* replaying a stream through per-shard worker *processes* leaves the
  shared-memory store byte-identical (``dumps()``) to one sequential
  pass through :meth:`EmotionalContextPipeline.apply_event`;
* a worker SIGKILLed mid-stream is rebuilt from the last checkpoint
  generation and its journal tail replays exactly-once — no lost and no
  duplicated commits, generations strictly monotonic;
* per-worker metrics snapshots ride the control channel and merge into
  one fleet view;
* a worker process holds one thread, and a barrier reply carries only
  the latency samples since the previous barrier, plus the mapper decay
  counters when the parent is about to persist it.
"""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.emotions import EMOTION_NAMES
from repro.core.gradual_eit import GradualEIT, QuestionBank
from repro.core.pipeline import EmotionalContextPipeline
from repro.core.reward import ReinforcementPolicy
from repro.core.shm_store import MultiProcSumStore
from repro.core.sharded_store import generation_dirs, read_manifest
from repro.core.sum_model import SumRepository
from repro.core.updates import ProfileOp, apply_ops
from repro.lifelog.events import ActionCategory, Event
from repro.streaming import EventUpdateMapper, MapperConfig
from repro.streaming.bus import partition_for
from repro.streaming.cache import SumCache
from repro.streaming.control import ControlPlaneConfig
from repro.streaming.procplane import (
    PROCPLANE_META,
    MultiProcUpdater,
    ShardWorkerProcess,
    WorkerDied,
)

ITEM_EMOTIONS = {
    "10": (EMOTION_NAMES[0], EMOTION_NAMES[1]),
    "11": (EMOTION_NAMES[2],),
    "12": (EMOTION_NAMES[0],),
}

ACTIONS = (
    ("course_view", ActionCategory.NAVIGATION),
    ("course_enroll", ActionCategory.ENROLLMENT),
    ("course_rate", ActionCategory.RATING),
)


def make_events(specs):
    """``(uid, action_idx, item_idx, rating)`` tuples → a LifeLog stream."""
    events = []
    for i, (uid, action_idx, item_idx, rating) in enumerate(specs):
        action, category = ACTIONS[action_idx]
        payload = {"target": sorted(ITEM_EMOTIONS)[item_idx]}
        if category is ActionCategory.RATING:
            payload["value"] = str(rating)
        events.append(Event(
            timestamp=1_141_000_000.0 + float(i),
            user_id=int(uid),
            action=action,
            category=category,
            payload=payload,
        ))
    return events


def sequential_reference(events, config=None, ticks=()):
    """One sequential pass over ``events``, then one decay tick per id in
    ``ticks`` (what a tick submitted after the events does)."""
    sums = SumRepository()
    policy = ReinforcementPolicy()
    pipeline = EmotionalContextPipeline(
        GradualEIT(QuestionBank.default_bank()), policy
    )
    mapper = EventUpdateMapper(ITEM_EMOTIONS, config)
    for event in events:
        pipeline.apply_event(sums.get_or_create(event.user_id), event, mapper)
    for user_id in ticks:
        apply_ops(sums.get_or_create(user_id), mapper.tick_ops(user_id), policy)
    return sums


def dense_stream(n_events=600, n_users=40, seed=3):
    rng = np.random.default_rng(seed)
    return make_events(zip(
        rng.integers(0, n_users, size=n_events),
        rng.integers(0, len(ACTIONS), size=n_events),
        rng.integers(0, len(ITEM_EMOTIONS), size=n_events),
        rng.integers(1, 6, size=n_events),
    ))


def test_multiproc_replay_is_bit_equal_to_sequential():
    events = dense_stream()
    reference = sequential_reference(events)
    store = MultiProcSumStore(n_shards=4)
    try:
        updater = MultiProcUpdater(store, ITEM_EMOTIONS, chunk=64)
        with updater:
            updater.submit_many(events)
            assert updater.drain()
        assert store.dumps() == reference.dumps()
        stats = updater.stats()
        assert stats.applied == len(events)
        assert stats.dead_lettered == 0
        assert stats.pending_writes == 0
    finally:
        store.close()


def test_per_worker_metrics_export_and_merge():
    events = dense_stream(n_events=300)
    store = MultiProcSumStore(n_shards=4)
    try:
        updater = MultiProcUpdater(store, ITEM_EMOTIONS, chunk=32)
        with updater:
            updater.submit_many(events)
            assert updater.drain()
            snapshots = updater.metrics_snapshots()
            assert len(snapshots) == 4  # one registry per worker process
            per_worker = [
                snap["streaming.events_applied"]["value"]
                for snap in snapshots
            ]
            assert sum(per_worker) == len(events)
            merged = updater.merged_metrics()
            assert merged["streaming.events_applied"]["value"] == len(events)
    finally:
        store.close()


def test_decay_ticks_and_mapper_cadence_match_sequential():
    events = dense_stream(n_events=400, n_users=12)
    config = MapperConfig(decay_every=5)
    reference = sequential_reference(events, config)
    store = MultiProcSumStore(n_shards=2)
    try:
        updater = MultiProcUpdater(
            store, ITEM_EMOTIONS, mapper_config=config, chunk=32
        )
        with updater:
            updater.submit_many(events)
            assert updater.drain()
        assert store.dumps() == reference.dumps()
    finally:
        store.close()


def test_writer_crash_recovers_exactly_once(tmp_path):
    events = dense_stream(n_events=900, n_users=60)
    config = MapperConfig(decay_every=7)  # checkpointed decay counters
    reference = sequential_reference(events, config)
    store = MultiProcSumStore(n_shards=4)
    try:
        updater = MultiProcUpdater(
            store, ITEM_EMOTIONS, mapper_config=config, chunk=32
        )
        with updater:
            updater.submit_many(events)
            assert updater.drain()
        no_crash = updater.stats()
    finally:
        store.close()
    store = MultiProcSumStore(n_shards=4)
    try:
        updater = MultiProcUpdater(
            store, ITEM_EMOTIONS, mapper_config=config,
            checkpoint_root=tmp_path, chunk=32,
        )
        with updater:
            # baseline generation exists before any worker could die
            assert read_manifest(tmp_path)["generation"] == 1
            updater.submit_many(events[:300])
            updater.checkpoint()
            assert read_manifest(tmp_path)["generation"] == 2
            updater.submit_many(events[300:600])
            updater.drain()  # post-checkpoint commits land on shm pages
            updater.workers[1].kill()  # SIGKILL mid-stream
            updater.submit_many(events[600:])
            assert updater.drain()  # sync hits the corpse and recovers
            assert updater.recoveries >= 1
            updater.checkpoint()
        # no lost updates, no duplicated replays: byte-identical state
        assert store.dumps() == reference.dumps()
        # and counted once: the recovered worker counts on from the
        # checkpoint's stats, not from its replayed tail alone
        stats = updater.stats()
        assert stats.applied == stats.submitted == len(events)
        assert stats.ops_applied == no_crash.ops_applied
        generations = [g for g, __ in generation_dirs(tmp_path)]
        assert generations == sorted(set(generations))  # strictly monotonic
        assert read_manifest(tmp_path)["generation"] == max(generations)
    finally:
        store.close()


def test_ensure_alive_restarts_dead_workers(tmp_path):
    events = dense_stream(n_events=200, n_users=10)
    reference = sequential_reference(events)
    store = MultiProcSumStore(n_shards=2)
    try:
        updater = MultiProcUpdater(
            store, ITEM_EMOTIONS, checkpoint_root=tmp_path, chunk=16
        )
        with updater:
            updater.submit_many(events[:100])
            updater.drain()
            updater.workers[0].kill()
            assert updater.ensure_alive() == 1
            assert updater.recoveries == 1
            updater.submit_many(events[100:])
            assert updater.drain()
        assert store.dumps() == reference.dumps()
    finally:
        store.close()


def test_expired_ticks_dropped_and_counted_across_the_plane():
    # ttl so small every tick is already past deadline when a worker
    # dequeues it: none may apply, every drop exact-counted, and the
    # final state must match an events-only sequential pass
    events = dense_stream(n_events=300, n_users=20)
    reference = sequential_reference(events)
    users = sorted({e.user_id for e in events})
    store = MultiProcSumStore(n_shards=4)
    try:
        updater = MultiProcUpdater(
            store, ITEM_EMOTIONS, chunk=32,
            control_plane=ControlPlaneConfig(tick_ttl=1e-9),
        )
        with updater:
            updater.submit_many(events)
            assert updater.tick(users) == len(users)
            assert updater.drain()
        assert updater.stats().expired_dropped == len(users)
        assert store.dumps() == reference.dumps()
    finally:
        store.close()


def test_expired_tick_drops_replay_exactly_once_after_crash(tmp_path):
    # the deadline pickles with the tick into the journal: a recovered
    # worker replaying its tail re-evaluates the *same* absolute
    # deadline, re-drops the same ticks, and the counter lands back on
    # the exact total — dropped once per tick, never applied
    events = dense_stream(n_events=400, n_users=24)
    reference = sequential_reference(events)
    users = sorted({e.user_id for e in events})
    store = MultiProcSumStore(n_shards=4)
    try:
        updater = MultiProcUpdater(
            store, ITEM_EMOTIONS, checkpoint_root=tmp_path, chunk=32,
            control_plane=ControlPlaneConfig(tick_ttl=1e-9),
        )
        with updater:
            updater.submit_many(events)
            updater.tick(users)
            assert updater.drain()
            updater.workers[2].kill()  # SIGKILL after the drops landed
            assert updater.drain()  # sync hits the corpse and recovers
            assert updater.recoveries >= 1
        assert updater.stats().expired_dropped == len(users)
        assert store.dumps() == reference.dumps()
    finally:
        store.close()


def test_crash_without_checkpoint_root_is_an_explicit_error():
    store = MultiProcSumStore(n_shards=2)
    try:
        updater = MultiProcUpdater(store, ITEM_EMOTIONS)
        with updater:
            updater.workers[0].kill()
            with pytest.raises(WorkerDied, match="checkpoint_root"):
                updater.recover(0)
            # put a live worker back so stop() shuts down cleanly
            updater.workers[0] = updater._spawn(0)
    finally:
        store.close()


def test_no_journal_is_held_without_a_checkpoint_root():
    # only recover() replays the journal, and it needs a checkpoint: an
    # updater without a root must not keep every shipped chunk forever
    events = dense_stream(n_events=300, n_users=20)
    store = MultiProcSumStore(n_shards=2)
    try:
        with MultiProcUpdater(store, ITEM_EMOTIONS, chunk=16) as updater:
            updater.submit_many(events)
            updater.tick(range(20))
            assert updater.drain()
            assert updater._journals == [[], []]
        assert updater.stats().applied == len(events) + 20
    finally:
        store.close()


def test_a_later_shards_death_keeps_an_earlier_shards_adoption():
    # each reply is adopted as it arrives: shard 0's growth and its one
    # clock bump must survive shard 1's worker dying at the same barrier
    users = list(range(12))
    on_zero = [uid for uid in users if partition_for(uid, 2) == 0]
    assert 0 < len(on_zero) < len(users)
    store = MultiProcSumStore(n_shards=2)
    try:
        updater = MultiProcUpdater(store, ITEM_EMOTIONS)
        with updater:
            clocks = [shard.mutation_count for shard in store.shards]
            updater.submit_many(make_events((uid, 2, 0, 5) for uid in users))
            updater.workers[1].kill()
            with pytest.raises(WorkerDied, match="checkpoint_root"):
                updater.drain()
            assert sorted(store.shards[0].user_ids()) == on_zero
            assert store.shards[0].mutation_count == clocks[0] + 1
            assert len(store.shards[1]) == 0
            assert store.shards[1].mutation_count == clocks[1]
            # put a live worker back so stop() shuts down cleanly
            updater.workers[1] = updater._spawn(1)
    finally:
        store.close()


def test_an_idle_drain_keeps_every_layout_epoch():
    store = MultiProcSumStore(n_shards=2)
    try:
        with MultiProcUpdater(store, ITEM_EMOTIONS) as updater:
            started = [int(s.layout_epoch.cells[0]) for s in store.shards]
            updater.submit_many(make_events((uid, 2, 0, 5) for uid in range(12)))
            assert updater.drain()
            epochs = [int(s.layout_epoch.cells[0]) for s in store.shards]
            # new rows on both shards: both layouts were adopted
            assert all(now > was for now, was in zip(epochs, started))
            assert updater.drain()
            assert [int(s.layout_epoch.cells[0]) for s in store.shards] == epochs
    finally:
        store.close()


def test_a_layout_of_any_size_rides_the_barrier_reply():
    # 2,000 long column names make a ~340 KB layout at only a few tens of
    # MB of pages (20,000 short ones would need ~1 GB at 3,000 rows)
    names = [f"subjective-{j:05d}-" + "x" * 150 for j in range(2_000)]
    store = MultiProcSumStore(n_shards=1)
    try:
        store.batch_apply_ops([(0, (ProfileOp(subjective=tuple(
            (name, j / len(names)) for j, name in enumerate(names)
        )),))], ReinforcementPolicy())
        with MultiProcUpdater(store, ITEM_EMOTIONS) as updater:
            updater.submit_many(
                make_events((uid, 2, 0, 5) for uid in range(1, 3_000))
            )
            assert updater.drain()
            assert len(store) == 3_000
            assert store.get(0).subjective[names[-1]] == (
                (len(names) - 1) / len(names)
            )
    finally:
        store.close()


def test_updater_is_single_use_and_validates_store():
    with pytest.raises(TypeError, match="MultiProcSumStore"):
        MultiProcUpdater(SumRepository(), ITEM_EMOTIONS)
    store = MultiProcSumStore(n_shards=2)
    try:
        updater = MultiProcUpdater(store, ITEM_EMOTIONS)
        with pytest.raises(RuntimeError, match="not started"):
            updater.submit_many([])
        with updater:
            pass
        with pytest.raises(RuntimeError, match="already stopped"):
            updater.start()
        updater.stop()  # second stop is a quiet no-op
    finally:
        store.close()


event_specs = st.lists(
    st.tuples(
        st.integers(0, 7),                      # user
        st.integers(0, len(ACTIONS) - 1),       # action kind
        st.integers(0, len(ITEM_EMOTIONS) - 1),  # item
        st.integers(1, 5),                      # rating
    ),
    min_size=0,
    max_size=60,
)


@settings(max_examples=8, deadline=None)
@given(specs=event_specs, decay_every=st.sampled_from([None, 3]))
def test_multiproc_replay_matches_sequential_for_arbitrary_streams(
    specs, decay_every
):
    events = make_events(specs)
    config = MapperConfig(decay_every=decay_every)
    reference = sequential_reference(events, config)
    store = MultiProcSumStore(n_shards=2)
    try:
        updater = MultiProcUpdater(
            store, ITEM_EMOTIONS, mapper_config=config, chunk=8
        )
        with updater:
            updater.submit_many(events)
            assert updater.drain()
        assert store.dumps() == reference.dumps()
    finally:
        store.close()


# -- the parent's serving cache: a barrier publishes what it routed -----------


def served(cache, users):
    """``(intensities, sensibilities)`` the parent cache serves for users."""
    batch = cache.batch(users)
    return (
        batch.intensity_matrix(EMOTION_NAMES),
        batch.sensibility_matrix(EMOTION_NAMES),
    )


def expected(reference, users):
    """What :func:`served` must equal, read off a sequential replay."""
    return (
        np.array([
            [reference.get(u).emotional.intensities.get(name, 0.0)
             for name in EMOTION_NAMES]
            for u in users
        ]),
        np.array([
            [reference.get(u).sensibility.get(name, 1.0)
             for name in EMOTION_NAMES]
            for u in users
        ]),
    )


def assert_serves(cache, reference, users):
    for got, want in zip(served(cache, users), expected(reference, users)):
        assert np.array_equal(got, want)


def test_barrier_publishes_to_the_parent_cache_what_it_routed():
    users = list(range(20))
    warm_up = make_events((uid, 1, uid % 3, 3) for uid in users)
    routed = [2, 3, 11, 16]
    second = make_events((uid, 2, 0, 5) for uid in routed for __ in range(3))
    store = MultiProcSumStore(n_shards=2)
    try:
        cache = SumCache(store)
        with MultiProcUpdater(store, ITEM_EMOTIONS, cache=cache) as updater:
            updater.submit_many(warm_up)
            assert updater.drain()
            assert_serves(cache, sequential_reference(warm_up), users)
            assert cache.versions_snapshot() == dict.fromkeys(users, 1)

            updater.submit_many(second)
            assert updater.drain()
            # a routed user's version moved, exactly once; nobody else's
            assert cache.versions_snapshot() == {
                uid: 2 if uid in routed else 1 for uid in users
            }
            requested = list(range(12))
            assert cache.batch(requested).versions == {
                uid: 2 if uid in routed else 1 for uid in requested
            }
            assert_serves(
                cache, sequential_reference(warm_up + second), users
            )

            # a barrier with nothing routed bumps nothing at all
            versions, global_version = (
                cache.versions_snapshot(), cache.global_version
            )
            assert updater.drain()
            assert cache.versions_snapshot() == versions
            assert cache.global_version == global_version
    finally:
        store.close()


def test_ticks_and_first_contacts_count_as_routed():
    users = list(range(8))
    events = make_events((uid, 2, 0, 5) for uid in users)
    store = MultiProcSumStore(n_shards=2)
    try:
        cache = SumCache(store)
        with MultiProcUpdater(store, ITEM_EMOTIONS, cache=cache) as updater:
            updater.submit_many(events)
            assert updater.drain()
            before = served(cache, users)
            assert updater.tick([1, 6]) == 2
            # user 40 is created by a worker: the parent learns the row
            # at the barrier and serves it from there on
            updater.submit_many(make_events([(40, 2, 1, 4)]))
            assert 40 not in cache
            assert updater.drain()
            assert cache.versions_snapshot() == {
                **{uid: 2 if uid in (1, 6) else 1 for uid in users}, 40: 1,
            }
            after = served(cache, users)
            ticked = np.isin(users, [1, 6])
            for was, now in zip(before, after):
                assert np.array_equal(was[~ticked], now[~ticked])
            assert (after[0][ticked] < before[0][ticked]).any()  # decayed
            live = store.batch(users + [40])
            for got, want in zip(served(cache, users + [40]), (
                live.intensity_matrix(EMOTION_NAMES),
                live.sensibility_matrix(EMOTION_NAMES),
            )):
                assert np.array_equal(got, want)
    finally:
        store.close()


def test_stop_publishes_what_was_routed_since_the_last_barrier():
    users = list(range(6))
    events = make_events((uid, 2, 0, 5) for uid in users)
    late = make_events([(4, 1, 2, 3)])
    store = MultiProcSumStore(n_shards=2)
    try:
        cache = SumCache(store)
        # chunk=1: every event is on its worker's queue when stop() runs
        updater = MultiProcUpdater(store, ITEM_EMOTIONS, cache=cache, chunk=1)
        updater.start()
        updater.submit_many(events)
        assert updater.drain()
        cache.batch(users)
        updater.submit_many(late)
        updater.stop(drain=False)
        assert cache.versions_snapshot() == {
            uid: 2 if uid == 4 else 1 for uid in users
        }
        assert_serves(cache, sequential_reference(events + late), users)
    finally:
        store.close()


def test_recover_republishes_the_whole_rebuilt_shard(tmp_path):
    users = list(range(12))
    events = make_events((uid, 2, 0, 5) for uid in users)
    store = MultiProcSumStore(n_shards=2)
    try:
        cache = SumCache(store)
        updater = MultiProcUpdater(
            store, ITEM_EMOTIONS, checkpoint_root=tmp_path, cache=cache,
        )
        with updater:
            updater.submit_many(events[:8])
            updater.checkpoint()
            # first contacts after the checkpoint: only the journal tail
            # knows them when the shard is rebuilt
            updater.submit_many(events[8:])
            assert updater.drain()
            assert cache.versions_snapshot() == dict.fromkeys(users, 1)
            updater.workers[0].kill()
            assert updater.ensure_alive() == 1
            assert updater.drain()
            rebuilt = [uid for uid in users if store.shard_of(uid) == 0]
            assert cache.versions_snapshot() == {
                uid: 2 if uid in rebuilt else 1 for uid in users
            }
        assert store.dumps() == sequential_reference(events).dumps()
    finally:
        store.close()


def test_parent_cache_serves_a_rebuilt_shard(tmp_path):
    users = list(range(12))
    events = make_events((uid, 2, 0, 5) for uid in users)
    more = make_events((uid, 1, 1, 2) for uid in users)
    store = MultiProcSumStore(n_shards=2)
    try:
        cache = SumCache(store)
        updater = MultiProcUpdater(
            store, ITEM_EMOTIONS, checkpoint_root=tmp_path, cache=cache,
        )
        with updater:
            updater.submit_many(events)
            assert updater.drain()
            cache.batch(users)
            updater.workers[0].kill()
            updater.submit_many(more)
            assert updater.drain()  # sync hits the corpse and recovers
            assert updater.recoveries == 1
            assert_serves(cache, sequential_reference(events + more), users)
    finally:
        store.close()


# -- one thread per worker; barriers ship what changed ------------------------


@pytest.mark.skipif(
    not os.path.isdir(f"/proc/{os.getpid()}/task"), reason="needs /proc"
)
def test_a_worker_process_holds_one_thread():
    store = MultiProcSumStore(n_shards=2)
    try:
        with MultiProcUpdater(store, ITEM_EMOTIONS, chunk=32) as updater:
            updater.submit_many(dense_stream(n_events=200))
            assert updater.drain()
            for worker in updater.workers:
                tasks = os.listdir(f"/proc/{worker.process.pid}/task")
                assert len(tasks) == 1
    finally:
        store.close()


@pytest.mark.parametrize("control_plane", [
    None,
    # a long ttl keeps the deadline check live without a slow host
    # expiring a tick
    ControlPlaneConfig(tick_ttl=60.0),
], ids=["bare", "control_plane"])
def test_a_chunk_larger_than_the_worker_queue_commits(control_plane):
    # each chunk of 100 is published in slices of at most 16, each
    # worked off before the next: a single publish of the chunk into the
    # one thread's own full queue would block forever
    events = dense_stream()
    ticks = [uid % 40 for uid in range(250)]
    reference = sequential_reference(events, ticks=ticks)
    store = MultiProcSumStore(n_shards=2)
    try:
        updater = MultiProcUpdater(
            store, ITEM_EMOTIONS, queue_capacity=16, chunk=100,
            control_plane=control_plane, sync_timeout=10.0,
        )
        with updater:
            updater.submit_many(events)
            assert updater.tick(ticks) == len(ticks)
            assert updater.drain()
        assert store.dumps() == reference.dumps()
        stats = updater.stats()
        assert stats.applied == stats.submitted == len(events) + len(ticks)
        assert stats.expired_dropped == stats.dead_lettered == 0
    finally:
        store.close()


def test_a_barrier_reply_carries_only_what_changed(tmp_path, monkeypatch):
    replies = []
    sync = ShardWorkerProcess.sync

    def recording_sync(self, *args, **kwargs):
        reply = sync(self, *args, **kwargs)
        replies.append(reply)
        return reply

    monkeypatch.setattr(ShardWorkerProcess, "sync", recording_sync)
    events = dense_stream(n_events=300, n_users=20)
    config = MapperConfig(decay_every=4)
    mapper = EventUpdateMapper(ITEM_EMOTIONS, config)
    for event in events:
        mapper.ops(event)
    store = MultiProcSumStore(n_shards=2)
    try:
        updater = MultiProcUpdater(
            store, ITEM_EMOTIONS, mapper_config=config,
            checkpoint_root=tmp_path, chunk=32,
        )
        with updater:
            updater.submit_many(events)
            assert updater.drain()
            assert sum(len(r["latencies"]) for r in replies) == len(events)
            assert not any("mapper_state" in r for r in replies)

            replies.clear()
            assert updater.drain()  # idle: no samples, no counters
            assert [r["latencies"] for r in replies] == [[], []]
            assert not any("mapper_state" in r for r in replies)
            # metrics and stats stay whole on every reply
            assert sum(r["stats"]["applied"] for r in replies) == len(events)
            assert sum(
                r["metrics"]["streaming.events_applied"]["value"]
                for r in replies
            ) == len(events)
            # the parent keeps the reservoir
            assert len(updater.latencies()) == len(events)

            replies.clear()
            path = updater.checkpoint()  # persisted: the counters ride
            counters = {}
            for reply in replies:
                counters.update(reply["mapper_state"])
            assert counters == mapper._since_decay
            meta = json.loads((path / PROCPLANE_META).read_text())
            assert {
                int(uid): n
                for shard in meta["shards"].values()
                for uid, n in shard["mapper_state"].items()
            } == mapper._since_decay
            assert sum(
                shard["stats"]["applied"] for shard in meta["shards"].values()
            ) == len(events)
    finally:
        store.close()

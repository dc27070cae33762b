"""Stale rows of one request are staged as one generation-validated block.

``SumCache._capture_staged`` copies more than one stale row through a
single ``Seqlock.read_many`` over ``ColumnMirror.refresh_rows``; exactly
one row keeps the scalar ``Seqlock.read``.  The per-row loop it replaced
lives on here as the reference: whatever the two stage must be the same
bytes, the same version stamps and the same leftover stale flags.
"""

import sys
import threading
from time import monotonic, sleep

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import seqlock as seqlock_mod
from repro.core.emotions import EMOTION_NAMES
from repro.core.reward import ReinforcementPolicy
from repro.core.sharded_store import ShardedSumStore
from repro.core.sum_store import ColumnarSumStore, ColumnMirror, _MirrorFamily
from repro.core.updates import DecayOp, PunishOp, RewardOp
from repro.obs.metrics import MetricsRegistry
from repro.streaming.cache import SumCache

POLICY = ReinforcementPolicy()
USERS = list(range(1, 13))


class PerRowCache(SumCache):
    """The reference: stale rows staged one ``Seqlock.read`` at a time."""

    def _capture_staged(self, shard, shard_ids, rows):
        store = shard.store
        epoch = int(store.layout_epoch.cells[0])
        if shard.epoch != epoch:
            shard.versions.clear()
            shard.epoch = epoch
        shard.mirror.sync_shape()
        ids_set = set(shard_ids)
        need = ids_set.difference(shard.versions)
        need |= ids_set.intersection(shard.stale)
        starved = 0
        for uid in need:
            shard.stale.discard(uid)
            version = self._versions.get(uid, 0)
            starved += self._refresh_row_published(shard, store.row_index(uid))
            shard.versions[uid] = version
        batch = shard.mirror.capture(
            shard_ids, rows, dict(shard.versions), resolve=self.get
        )
        return batch, len(need), starved


def new_store(n_shards):
    # a tiny capacity, so the sequences below also grow the arrays
    if n_shards == 1:
        return ColumnarSumStore(initial_capacity=2)
    return ShardedSumStore(n_shards=n_shards, initial_capacity=2 * n_shards)


def mirror_state(cache):
    """Everything a capture leaves behind, per mirror shard."""
    return [
        (
            shard.mirror.emotional.values, shard.mirror.emotional.mask,
            shard.mirror.sensibility.values, shard.mirror.sensibility.mask,
            dict(shard.versions), set(shard.stale),
        )
        for shard in cache._mirror_shards
    ]


def assert_same_mirrors(block, per_row):
    for got, want in zip(mirror_state(block), mirror_state(per_row)):
        for mine, theirs in zip(got[:4], want[:4]):
            assert np.array_equal(mine, theirs)
        assert got[4:] == want[4:]


# -- block vs per-row, arbitrary histories -----------------------------------

user_ids = st.integers(min_value=USERS[0], max_value=USERS[-1])
id_lists = st.lists(user_ids, min_size=1, max_size=len(USERS))
attribute_tuples = st.lists(
    st.sampled_from(EMOTION_NAMES), min_size=1, max_size=3
).map(tuple)
ops = st.one_of(
    st.just(DecayOp()),
    st.builds(RewardOp, attributes=attribute_tuples,
              strength=st.floats(0.0, 1.5, allow_nan=False)),
    st.builds(PunishOp, attributes=attribute_tuples,
              strength=st.floats(0.0, 1.5, allow_nan=False)),
)
steps = st.one_of(
    st.tuples(st.just("apply"), st.lists(
        st.tuples(user_ids, st.lists(ops, max_size=3).map(tuple)), max_size=6
    )),
    st.tuples(st.just("decay_tick"), id_lists),  # a direct, unpublished write
    st.tuples(st.just("invalidate"), id_lists),
    st.tuples(st.just("capture"), id_lists),
)


@pytest.mark.parametrize("n_shards", [1, 4])
@settings(max_examples=60, deadline=None)
@given(history=st.lists(steps, max_size=14))
def test_block_staging_leaves_what_the_per_row_loop_leaves(n_shards, history):
    block = SumCache(new_store(n_shards))
    per_row = PerRowCache(new_store(n_shards))
    for cache in (block, per_row):
        for uid in USERS:
            cache.repository.get_or_create(uid)
    for kind, arg in history + [("capture", USERS)]:
        for cache in (block, per_row):
            if kind == "apply":
                cache.apply_batch_and_publish(arg, POLICY)
            elif kind == "decay_tick":
                cache.repository.decay_tick(POLICY, sorted(set(arg)))
            elif kind == "invalidate":
                cache.invalidate(arg)
        if kind == "capture":
            got, want = block.batch(arg), per_row.batch(arg)
            assert got.versions == want.versions
            assert np.array_equal(
                got.intensity_matrix(EMOTION_NAMES),
                want.intensity_matrix(EMOTION_NAMES),
            )
            assert np.array_equal(
                got.sensibility_matrix(EMOTION_NAMES),
                want.sensibility_matrix(EMOTION_NAMES),
            )
            assert_same_mirrors(block, per_row)


# -- which path a capture takes ----------------------------------------------


@pytest.fixture
def copies(monkeypatch):
    """Call counts of the two mirror copy primitives (still run)."""
    calls = {"copy_row": 0, "copy_rows": 0}

    def counting(name):
        real = getattr(_MirrorFamily, name)

        def wrapper(self, index):
            calls[name] += 1
            return real(self, index)

        return wrapper

    for name in calls:
        monkeypatch.setattr(_MirrorFamily, name, counting(name))
    return calls


def stocked_cache(n_users, telemetry=None, **store_kwargs):
    store = ColumnarSumStore(**store_kwargs)
    for uid in range(n_users):
        store.get_or_create(uid).activate_emotion("shy", 0.001 * (uid + 1))
    return store, SumCache(store, telemetry=telemetry)


def test_never_staged_rows_take_a_constant_number_of_block_copies(copies):
    telemetry = MetricsRegistry()
    __, cache = stocked_cache(500, telemetry)
    batch = cache.batch(list(range(500)))
    # one block copy per mirrored family, however many rows
    assert copies == {"copy_row": 0, "copy_rows": 2}
    shy = EMOTION_NAMES.index("shy")
    assert batch.intensity_matrix(EMOTION_NAMES)[:, shy] == pytest.approx(
        0.001 * np.arange(1, 501)
    )
    # the counter keeps counting rows, not blocks — and nothing starved
    assert telemetry.counter("cache.capture_refreshed_rows").value == 500
    assert telemetry.counter("cache.capture_starved_rows").value == 0
    cache.batch(list(range(500)))  # warm: nothing to stage
    assert copies == {"copy_row": 0, "copy_rows": 2}


def test_a_partly_stale_request_stages_only_its_stale_rows_as_one_block(copies):
    telemetry = MetricsRegistry()
    __, cache = stocked_cache(50, telemetry)
    cache.batch(list(range(50)))
    copies.update(copy_row=0, copy_rows=0)
    cache.invalidate([3, 17, 40, 49])  # 49 is not in the next request
    before = telemetry.counter("cache.capture_refreshed_rows").value
    cache.batch(list(range(45)))
    assert copies == {"copy_row": 0, "copy_rows": 2}
    assert telemetry.counter("cache.capture_refreshed_rows").value == before + 3
    assert cache._mirror_shards[0].stale == {49}


def test_one_stale_row_keeps_the_scalar_read(copies):
    __, cache = stocked_cache(50)
    cache.batch([7])  # a one-id capture, never staged
    assert copies == {"copy_row": 2, "copy_rows": 0}
    cache.batch(list(range(50)))
    copies.update(copy_row=0, copy_rows=0)
    cache.invalidate([7])
    cache.batch(list(range(50)))  # a wide request with one stale row
    assert copies == {"copy_row": 2, "copy_rows": 0}


# -- growth and compaction restage through the block --------------------------


def test_block_staging_survives_store_growth_between_reads(copies):
    # test_mirror_survives_store_growth_between_reads with > 1 stale row
    store, cache = stocked_cache(2, initial_capacity=2)
    cache.batch([0, 1])  # mirror sized to the tiny initial capacity
    for uid in range(10, 90):  # several row-capacity doublings
        store.get_or_create(uid).set_subjective(f"pref[{uid}]", 0.5)
    store.get(0).activate_emotion("shy", 0.5)
    store.get(1).sensibility["zest"] = 0.7  # and one column interned
    cache.invalidate([0, 1])
    copies.update(copy_row=0, copy_rows=0)
    batch = cache.batch(list(range(10, 90)) + [0, 1])
    assert copies == {"copy_row": 0, "copy_rows": 2}
    shy = EMOTION_NAMES.index("shy")
    assert batch.intensity_matrix(EMOTION_NAMES).shape == (82, 10)
    assert batch.intensity_matrix(EMOTION_NAMES)[-2, shy] == pytest.approx(0.501)
    assert batch.sensibility_matrix(["zest"], default=0.0)[-1, 0] == 0.7


def test_growth_during_the_block_copy_is_followed(monkeypatch):
    # the live arrays are swapped between one family's copy and the
    # next: the shape-agreement loop must resync, not index a stale pair
    store, cache = stocked_cache(4, initial_capacity=4)
    real = _MirrorFamily.copy_rows
    grown = []

    def grow_once_then_copy(self, rows):
        if not grown:
            grown.append(True)
            for uid in range(100, 140):
                store.get_or_create(uid)
        return real(self, rows)

    monkeypatch.setattr(_MirrorFamily, "copy_rows", grow_once_then_copy)
    batch = cache.batch([0, 1, 2, 3])
    shy = EMOTION_NAMES.index("shy")
    assert batch.intensity_matrix(EMOTION_NAMES)[:, shy] == pytest.approx(
        [0.001, 0.002, 0.003, 0.004]
    )
    for family in (cache._mirror_shards[0].mirror.emotional,
                   cache._mirror_shards[0].mirror.sensibility):
        assert family.values.shape == family.live.values.shape
        assert family.mask.shape == family.live.mask.shape


def test_compact_vocab_mid_capture_restages_through_the_block(monkeypatch):
    store, cache = stocked_cache(6)
    store.get(2).sensibility["zest"] = 0.4   # intern a column ...
    store.get(3).sensibility["verve"] = 0.9
    cache.batch(list(range(6)))
    del store.get(2).sensibility["zest"]     # ... and orphan it
    cache.invalidate([2, 3])
    real = ColumnMirror.refresh_rows
    passes = []

    def compact_during_the_first_pass(self, rows):
        passes.append(sorted(np.asarray(rows).tolist()))
        real(self, rows)
        if len(passes) == 1:
            assert store.compact_vocab() == 1  # "verve" changes column

    monkeypatch.setattr(ColumnMirror, "refresh_rows", compact_during_the_first_pass)
    batch = cache.batch(list(range(6)))
    # the raced pass staged the two stale rows and was thrown away; the
    # layout it ran under is gone, so the second pass restaged them all
    assert passes == [[2, 3], [0, 1, 2, 3, 4, 5]]
    assert batch.sensibility_matrix(["verve", "zest"], default=-1.0).tolist() == [
        [-1.0, -1.0], [-1.0, -1.0], [-1.0, -1.0],
        [0.9, -1.0], [-1.0, -1.0], [-1.0, -1.0],
    ]
    shy = EMOTION_NAMES.index("shy")
    assert batch.intensity_matrix(EMOTION_NAMES)[:, shy] == pytest.approx(
        0.001 * np.arange(1, 7)
    )


# -- a writer that never leaves a quiet window --------------------------------


def test_a_row_rewritten_during_every_copy_starves_alone(monkeypatch):
    # deterministic starvation: every lock-free block copy is followed,
    # before the second generation gather, by a commit on user 5
    telemetry = MetricsRegistry()
    store, cache = stocked_cache(8, telemetry)
    spin_limit = seqlock_mod.SPIN_LIMIT
    real = ColumnMirror.refresh_rows
    calls = []

    def copy_then_commit_on_5(self, rows):
        real(self, rows)
        calls.append(np.asarray(rows).tolist())
        if len(calls) <= spin_limit:  # the next call is the fallback
            store.get(5).activate_emotion("shy", 0.001)

    monkeypatch.setattr(ColumnMirror, "refresh_rows", copy_then_commit_on_5)
    ids = list(range(8))
    batch = cache.batch(ids)
    # everyone was copied once; user 5 then went alone up to the bound,
    # and one last time with writers excluded
    assert calls == [ids] + [[5]] * spin_limit
    assert telemetry.counter("cache.capture_starved_rows").value == 1
    assert telemetry.counter("cache.capture_refreshed_rows").value == 8
    shy = EMOTION_NAMES.index("shy")
    live = store.get(5).emotional["shy"]
    assert live == pytest.approx(0.006 + 0.001 * spin_limit)
    assert batch.intensity_matrix(EMOTION_NAMES)[5, shy] == live
    assert cache._mirror_shards[0].stale == set()


def test_one_starved_row_is_counted_on_the_scalar_path_too(monkeypatch):
    telemetry = MetricsRegistry()
    store, cache = stocked_cache(8, telemetry)
    spin_limit = seqlock_mod.SPIN_LIMIT
    real = ColumnMirror.refresh_row
    calls = []

    def copy_then_commit(self, row):
        real(self, row)
        calls.append(row)
        if len(calls) <= spin_limit:  # the next call is the fallback
            store.get(5).activate_emotion("shy", 0.001)

    monkeypatch.setattr(ColumnMirror, "refresh_row", copy_then_commit)
    batch = cache.batch([5])
    assert calls == [store.row_index(5)] * (spin_limit + 1)
    assert telemetry.counter("cache.capture_starved_rows").value == 1
    shy = EMOTION_NAMES.index("shy")
    assert batch.intensity_matrix(EMOTION_NAMES)[0, shy] == (
        store.get(5).emotional["shy"]
    )


def test_block_captures_under_a_saturating_writer_are_committed_states(
    monkeypatch,
):
    """64 rows, a flat-out writer, a shortened switch interval.

    Every captured row must be bit-equal to a state the (single) writer
    committed for that row — never a mix of two, never older than the
    version it is stamped with — and captures must keep returning: rows
    the bounded block read cannot win are copied under the writer lock,
    and counted.
    """
    # the bound only sets how long a capture spins before the fallback
    monkeypatch.setattr(seqlock_mod, "SPIN_LIMIT", 8)

    def refresh_rows_with_a_gap(self, rows):
        self.emotional.copy_rows(rows)
        sleep(0)  # let the writer in: a torn row needs a commit right here
        self.sensibility.copy_rows(rows)

    monkeypatch.setattr(ColumnMirror, "refresh_rows", refresh_rows_with_a_gap)
    telemetry = MetricsRegistry()
    store, cache = stocked_cache(64, telemetry)
    ids = list(range(64))
    rows = store.rows_for(ids)
    rng = np.random.default_rng(11)
    #: per row, its committed states in order: index == published version
    #: (every commit below applies an op to every user)
    history = [[] for __ in ids]
    stop = threading.Event()

    def row_states(emotional, sensibility, at):
        # one bytes blob per row: both families, values and presence
        parts = [
            array[at] for family in (emotional, sensibility)
            for array in (family.values, family.mask)
        ]
        return [
            b"".join(part[i].tobytes() for part in parts)
            for i in range(len(ids))
        ]

    def record_commit():
        with store.writer_lock:
            live = row_states(store._emotional, store._sensibility, rows)
        for states, state in zip(history, live):
            states.append(state)

    def write_forever():
        while not stop.is_set():
            picks = rng.integers(0, len(EMOTION_NAMES), size=(len(ids), 2))
            cache.apply_batch_and_publish(
                [
                    (uid, (
                        RewardOp((EMOTION_NAMES[a],), 0.3),
                        PunishOp((EMOTION_NAMES[b],), 0.2),
                        DecayOp(),
                    ))
                    for uid, (a, b) in zip(ids, picks.tolist())
                ],
                POLICY,
            )
            record_commit()

    record_commit()
    captured = []
    writer = threading.Thread(target=write_forever, daemon=True)
    starved_rows = telemetry.counter("cache.capture_starved_rows")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        writer.start()
        deadline = monotonic() + 30.0
        while len(captured) < 40 or starved_rows.value == 0:
            assert monotonic() < deadline, "captures starved by the writer"
            batch = cache.batch(ids)
            captured.append((batch.versions, row_states(
                batch.emotional, batch.sensibility, slice(None)
            )))
    finally:
        stop.set()
        writer.join(timeout=10.0)
        sys.setswitchinterval(interval)
    assert not writer.is_alive()
    assert starved_rows.value > 0  # the fallback was taken, and counted
    assert all(len(states) == cache.version(uid) + 1
               for uid, states in zip(ids, history))
    for versions, states in captured:
        for uid, committed, state in zip(ids, history, states):
            assert state in committed[versions[uid]:], (
                f"user {uid}: torn, or older than its version stamp"
            )

"""Bulk id routing on sharded stores, against the per-id loops it replaced.

``ShardedSumStore.rows_for`` and the cache's cross-shard capture route a
whole id vector at once, and an id vector finds its rows through each
store's dense id -> row map; the per-id dict walks stay here as the
reference, and a registration racing a read must never hand out a wrong
row.
"""

import sys
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.seqlock as seqlock_module
import repro.core.sum_store as sum_store_module
from repro.core.emotions import EMOTION_NAMES
from repro.core.interned import InternedIds
from repro.core.reward import ReinforcementPolicy
from repro.core.seqlock import Seqlock
from repro.core.sharded_store import ShardedBatch, ShardedSumStore, positions_by_shard
from repro.core.shm_store import MultiProcSumStore
from repro.core.sum_model import SumRepository, UnknownUserError
from repro.core.sum_store import ColumnarSumStore
from repro.core.updates import RewardOp
from repro.lifelog.events import ActionCategory, Event
from repro.streaming.cache import SumCache
from repro.streaming.procplane import MultiProcUpdater

KNOWN = range(0, 60, 3)


def per_id_rows_for(store, user_ids, create=False):
    """``rows_for`` as it was: one routed dict look-up per id."""
    ids = [int(uid) for uid in user_ids]
    out = np.empty((len(ids), 2), dtype=np.intp)
    missing = []
    n = len(store.shards)
    for i, uid in enumerate(ids):
        s = uid % n
        row = store.shards[s]._row_of.get(uid)
        if row is None:
            if create:
                row = store.shards[s]._new_row(uid)
            else:
                missing.append(uid)
                row = -1
        out[i] = s, row
    if missing:
        raise UnknownUserError(missing)
    return out


def per_id_grouped(store, ids):
    """Positions of ``ids`` grouped by owning shard, as the store once did
    (``store`` may be the shard tuple itself)."""
    grouped = {}
    n = len(getattr(store, "shards", store))
    for pos, uid in enumerate(ids):
        grouped.setdefault(uid % n, []).append(pos)
    return grouped


def build(n_shards):
    sums = SumRepository()
    for uid in KNOWN:
        model = sums.get_or_create(uid)
        model.activate_emotion(EMOTION_NAMES[uid % len(EMOTION_NAMES)], (uid % 7) / 7)
        model.set_sensibility(EMOTION_NAMES[0], (uid % 5) / 5)
    return ShardedSumStore.from_repository(sums, n_shards=n_shards)


@pytest.mark.parametrize("n_shards", [1, 2, 5])
class TestBulkRouting:
    BATCHES = ([], [9], [57, 0, 9, 0, 33, 57, 6], list(KNOWN)[::-1], [0, 12, 12])

    def test_rows_for_matches_the_per_id_loop(self, n_shards):
        store = build(n_shards)
        for batch in self.BATCHES:
            want = per_id_rows_for(store, batch)
            got = store.rows_for(batch)
            assert got.dtype == want.dtype and got.shape == (len(batch), 2)
            assert np.array_equal(got, want)
            assert np.array_equal(store.rows_for(np.array(batch, dtype=np.int64)), want)
            shard_of = np.array(batch, dtype=np.int64) % n_shards
            grouped = positions_by_shard(shard_of, n_shards)
            assert {s: p.tolist() for s, p in grouped.items()} == per_id_grouped(store, batch)
            assert list(grouped) == list(per_id_grouped(store, batch))

    def test_unknown_ids_are_named_once_in_request_order(self, n_shards):
        store = build(n_shards)
        batch = [44, 3, 41, 1000, 6, 44, -7, 2]
        with pytest.raises(UnknownUserError) as reference:
            per_id_rows_for(store, batch)
        for rows_for in (store.rows_for, SumCache(store).batch):
            with pytest.raises(UnknownUserError) as excinfo:
                rows_for(batch)
            assert excinfo.value.user_ids == reference.value.user_ids
            assert excinfo.value.user_ids == (44, 41, 1000, 44, -7, 2)
        assert len(store) == len(KNOWN)  # a raising call creates nothing

    def test_create_makes_each_missing_row_once_in_its_own_shard(self, n_shards):
        store, twin = build(n_shards), build(n_shards)
        batch = [44, 3, 41, 44, 1000, 41]
        got = store.rows_for(batch, create=True)
        assert np.array_equal(got, per_id_rows_for(twin, batch, create=True))
        assert len(store) == len(KNOWN) + 3
        assert store.user_ids() == twin.user_ids()
        assert np.array_equal(store.rows_for(batch), got)

    def test_cache_capture_reads_the_rows_it_was_routed(self, n_shards):
        store = build(n_shards)
        cache = SumCache(store)
        for batch in self.BATCHES:
            captured = cache.batch(batch)
            assert len(captured) == len(batch)
            got = captured.intensity_matrix(EMOTION_NAMES)
            want = np.array(
                [[store.get(uid).emotional[e] for e in EMOTION_NAMES] for uid in batch]
            ).reshape(len(batch), len(EMOTION_NAMES))
            assert np.array_equal(got, want)
            sens = captured.sensibility_matrix(EMOTION_NAMES[:2], default=1.0)
            assert sens[:, 0].tolist() == [(uid % 5) / 5 for uid in batch]
            assert list(captured.versions) == list(dict.fromkeys(batch))
            groups = per_id_grouped(store, batch)
            if len(groups) > 1:
                assert isinstance(captured, ShardedBatch)
                assert [p.tolist() for p, __ in captured.parts] == list(groups.values())
        created = cache.batch([44, 0, 41], create=True)
        assert created.intensity_matrix(EMOTION_NAMES)[0].tolist() == [0.0] * len(EMOTION_NAMES)
        assert 44 in store and 41 in store


def test_positions_by_shard_lists_touched_shards_by_first_appearance():
    grouped = positions_by_shard(np.array([3, 0, 3, 1, 0]), 5)
    assert {s: p.tolist() for s, p in grouped.items()} == {3: [0, 2], 0: [1, 4], 1: [3]}
    assert list(grouped) == [3, 0, 1]
    assert positions_by_shard(np.array([], dtype=np.int64), 4) == {}


@pytest.mark.parametrize("n_shards", [1, 2, 5])
def test_bare_store_reads_and_ticks_off_the_routed_addresses(n_shards):
    store, twin = build(n_shards), build(n_shards)
    policy = ReinforcementPolicy()
    for batch in TestBulkRouting.BATCHES:
        groups = per_id_grouped(twin, batch)
        got = store.batch(batch)
        assert len(got) == len(batch)
        if len(groups) > 1:
            assert isinstance(got, ShardedBatch)
            assert [p.tolist() for p, __ in got.parts] == list(groups.values())
        want = np.array(
            [[twin.get(uid).emotional[e] for e in EMOTION_NAMES] for uid in batch]
        ).reshape(len(batch), len(EMOTION_NAMES))
        assert np.array_equal(got.intensity_matrix(EMOTION_NAMES), want)

        features, ids = store.feature_matrix(batch, ("calm",))
        assert ids == batch
        for pos, uid in enumerate(batch):
            row, __ = twin.shards[uid % n_shards].feature_matrix([uid], ("calm",))
            assert np.array_equal(features[pos], row[0])

        assert store.decay_tick(policy, batch) == sum(
            twin.shards[s].decay_tick(policy, [batch[p] for p in positions])
            for s, positions in groups.items()
        )
        assert store.dumps() == twin.dumps()
    created = store.batch([44, 0, 41], create=True)
    assert created.intensity_matrix(EMOTION_NAMES)[[0, 2]].tolist() == [
        [0.0] * len(EMOTION_NAMES)
    ] * 2
    assert store.user_ids() == sorted([*KNOWN, 41, 44])


# -- the dense id -> row map ---------------------------------------------------

#: item -> emotions the plane's mapper reads off a rating
ITEM_EMOTIONS = {"10": (EMOTION_NAMES[0], EMOTION_NAMES[1]), "11": (EMOTION_NAMES[2],)}


def ratings(user_ids):
    """One rating per user: a worker creates each unknown user's row."""
    return [
        Event(
            timestamp=1_141_000_000.0 + i, user_id=int(uid), action="course_rate",
            category=ActionCategory.RATING,
            payload={"target": "10" if uid % 2 else "11", "value": str(1 + uid % 5)},
        )
        for i, uid in enumerate(user_ids)
    ]


def parts(store):
    """``store``'s partitions: itself for a single columnar store."""
    return getattr(store, "shards", (store,))


def dict_path(store, ids, create=False):
    """Each id's address through the row dicts alone, the source of truth:
    ``(addresses, unknown ids in request order)``.  With ``create`` the
    addresses a dict walk would make: each shard numbers its new rows on
    from its row count, in request order."""
    shards = parts(store)
    made = [{} for __ in shards]
    addresses, unknown = [], []
    for uid in ids:
        s = uid % len(shards)
        row = shards[s]._row_of.get(uid, made[s].get(uid))
        if row is None:
            if not create:
                unknown.append(uid)
                row = -1
            else:
                row = made[s][uid] = len(shards[s]) + len(made[s])
        addresses.append((s, row))
    out = np.array(addresses, dtype=np.intp).reshape(len(ids), 2)
    return (out if hasattr(store, "shards") else out[:, 1]), unknown


def owners(store, addresses):
    """``(partition, row)`` of each of ``rows_for``'s ``addresses``."""
    if addresses.ndim == 1:
        return [(store, row) for row in addresses.tolist()]
    return [(store.shards[s], row) for s, row in addresses.tolist()]


def dict_capture(store, ids):
    """The intensity and sensibility bytes of one dict-path read per id."""
    reads = [store.batch([uid]) for uid in ids]
    return tuple(
        np.concatenate(
            [read(batch) for batch in reads] or [np.zeros((0, len(EMOTION_NAMES)))]
        ).tobytes()
        for read in (
            lambda batch: batch.intensity_matrix(EMOTION_NAMES),
            lambda batch: batch.sensibility_matrix(EMOTION_NAMES, default=1.0),
        )
    )


def seeded(kind):
    """A store of ``kind`` holding ``KNOWN``; close it after use.  The
    multi-process store gets its users from worker processes, so its
    parent-side row maps are the ones a barrier adopted."""
    if kind == "multiproc-2":
        store = MultiProcSumStore(n_shards=2)
        try:
            with MultiProcUpdater(store, ITEM_EMOTIONS) as updater:
                updater.submit_many(ratings(KNOWN))
                assert updater.drain()
        except BaseException:
            store.close()
            raise
        return store
    if kind == "columnar":
        return ColumnarSumStore.from_repository(build(1).to_repository())
    return build(int(kind.rsplit("-", 1)[1]))


def close(store):
    if isinstance(store, MultiProcSumStore):
        store.close()


#: ids no store here holds: holes below the largest known id, negative
#: ids, ids past every map, and one the row-count bound keeps off any map
STRAYS = (1, 2, 28, 56, -1, -7, 58, 60, 91, 10**6)


@st.composite
def audiences(draw):
    """Known ids with repeats, and strays interleaved at random."""
    ids = draw(st.lists(st.sampled_from(KNOWN), max_size=14))
    for stray in draw(st.lists(st.sampled_from(STRAYS), max_size=3)):
        ids.insert(draw(st.integers(0, len(ids))), stray)
    return ids


KINDS = ["columnar", "sharded-1", "sharded-2", "sharded-3", "multiproc-2"]


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=40, deadline=None)
@given(ids=audiences())
def test_id_vectors_read_the_rows_the_dicts_hold(kind, ids):
    store = seeded(kind)
    try:
        users = store.user_ids()
        want, unknown = dict_path(store, ids)
        if not unknown:
            # every shard's share of two or more ids comes off its map
            shards = parts(store)
            for s, share in per_id_grouped(shards, ids).items():
                if len(share) > 1:
                    vector = np.array(ids, dtype=np.int64)[share]
                    assert np.array_equal(
                        shards[s]._mapped_rows(vector),
                        dict_path(shards[s], vector.tolist())[0],
                    )
            bytes_by_dict = dict_capture(store, ids)
        for spelling in (InternedIds(ids), np.array(ids, dtype=np.int64), ids):
            for read in (store.rows_for, store.batch, SumCache(store).batch):
                if unknown:
                    with pytest.raises(UnknownUserError) as excinfo:
                        read(spelling)
                    assert excinfo.value.user_ids == tuple(unknown)
                    continue
                got = read(spelling)
                if read == store.rows_for:
                    assert got.dtype == np.intp and np.array_equal(got, want)
                else:
                    assert (
                        got.intensity_matrix(EMOTION_NAMES).tobytes(),
                        got.sensibility_matrix(EMOTION_NAMES, default=1.0).tobytes(),
                    ) == bytes_by_dict
        assert store.user_ids() == users  # a raising read created nothing

        made, __ = dict_path(store, ids, create=True)
        got = store.rows_for(InternedIds(ids), create=True)
        assert np.array_equal(got, made)
        assert store.user_ids() == sorted({*users, *ids})
        # the maps moved with the new rows: the same vector reads them back
        assert np.array_equal(store.rows_for(InternedIds(ids)), made)
        for uid, (shard, row) in zip(ids, owners(store, made)):
            assert shard._user_ids[row] == uid
    finally:
        close(store)


class TestTheRowMap:
    def test_it_maps_every_published_row_and_marks_the_rest(self):
        store = seeded("columnar")
        row_map = store._row_map()
        assert row_map.dtype == np.intp and not row_map.flags.writeable
        assert len(row_map) == max(KNOWN) + 1
        assert np.flatnonzero(row_map >= 0).tolist() == list(KNOWN)
        assert all(row_map[uid] == store.row_index(uid) for uid in KNOWN)
        assert store._row_map() is row_map  # nothing moved: the same map

    def test_one_id_misses_and_strays_go_to_the_dicts(self):
        store = seeded("columnar")
        assert store._mapped_rows(np.array([3])) is None  # one id: a dict get
        assert store._mapped_rows(np.array([], dtype=np.int64)) is None
        for stray in (1, -3, 58, 10**6):
            assert store._mapped_rows(np.array([3, stray])) is None
        assert store._mapped_rows(np.array([3, 3, 0])).tolist() == [
            store.row_index(3), store.row_index(3), store.row_index(0),
        ]

    def test_it_rebuilds_after_a_registration(self):
        store = seeded("columnar")
        before = store._row_map()
        store.get_or_create(61)
        after = store._row_map()
        assert after is not before and after[61] == store.row_index(61)
        assert store._mapped_rows(np.array([61, 0])).tolist() == [
            store.row_index(61), store.row_index(0),
        ]
        assert before.tolist() == after[: len(before)].tolist()  # rows never move

    def test_a_layout_epoch_move_rebuilds_it(self):
        store = seeded("columnar")
        before = store._row_map()
        with store.writer_lock, store.layout_epoch.write(0):  # as adopt_layout swaps
            pass
        after = store._row_map()
        assert after is not before and np.array_equal(after, before)

    def test_ids_sparser_than_the_row_bound_get_no_map(self):
        per_row = sum_store_module._ROW_MAP_IDS_PER_ROW
        store = ColumnarSumStore()
        for uid in (0, 2 * per_row - 1):  # span 2 * per_row over 2 rows: the bound
            store.get_or_create(uid)
        assert len(store._row_map()) == 2 * per_row
        store = ColumnarSumStore()
        for uid in (0, 2 * per_row):  # one id past it
            store.get_or_create(uid)
        assert store._row_map() is None
        assert store.rows_for(InternedIds([2 * per_row, 0])).tolist() == [1, 0]
        negative = ColumnarSumStore()
        for uid in (-1, 0, 1):
            negative.get_or_create(uid)
        assert negative._row_map() is None  # a negative id keeps every read on the dict
        assert negative.rows_for(np.array([1, -1])).tolist() == [2, 0]

    def test_it_rebuilds_after_a_barrier_adopts_a_layout(self):
        store = MultiProcSumStore(n_shards=2)
        try:
            with MultiProcUpdater(store, ITEM_EMOTIONS) as updater:
                updater.submit_many(ratings(range(12)))
                assert updater.drain()
                maps = [shard._row_map() for shard in store.shards]
                epochs = [int(shard.layout_epoch.cells[0]) for shard in store.shards]
                # workers create 40..47 on pages the parent maps only at
                # the next barrier
                updater.submit_many(ratings(range(40, 48)))
                assert updater.drain()
                assert [int(s.layout_epoch.cells[0]) for s in store.shards] > epochs
                for shard, before in zip(store.shards, maps):
                    after = shard._row_map()
                    assert after is not before
                    mine = [uid for uid in range(40, 48) if store.shards[uid % 2] is shard]
                    assert shard._mapped_rows(np.array(mine)).tolist() == [
                        shard.row_index(uid) for uid in mine
                    ]
                audience = InternedIds([*range(40, 48), *range(12)])
                want, unknown = dict_path(store, list(audience))
                assert not unknown
                assert np.array_equal(store.rows_for(audience), want)
        finally:
            store.close()


# -- a registration racing an explicit read ------------------------------------


class ParkedLen(dict):
    """A row dict whose next ``len`` parks the reader, once armed, until
    ``registered`` is set: the row count a read keys its map on is then
    read before a registration the rest of its read sees."""

    def __init__(self, rows):
        super().__init__(rows)
        self.armed = False
        self.parked, self.registered = threading.Event(), threading.Event()

    def __len__(self):
        n = super().__len__()
        if self.armed:
            self.armed = False
            self.parked.set()
            assert self.registered.wait(timeout=30)
        return n


def reward(uid):
    """A per-user op that leaves each user's row distinct."""
    return (uid, (RewardOp((EMOTION_NAMES[uid % 10],), 0.01 * (1 + uid % 97)),))


@pytest.mark.parametrize("kind", ["columnar", "sharded-2"])
@pytest.mark.parametrize("late", [1, 59, 150], ids=["hole", "past", "far"])
def test_a_user_registered_mid_read_lands_on_the_dict_path(kind, late):
    # pages exactly full: the registration grows them mid-read too
    if kind == "columnar":
        store = ColumnarSumStore(initial_capacity=len(KNOWN))
    else:
        store = ShardedSumStore(n_shards=2, initial_capacity=len(KNOWN))
    for uid in KNOWN:
        store.get_or_create(uid)
    shard = parts(store)[late % len(parts(store))]
    capacity = shard._capacity
    assert capacity == len(shard)
    shard._row_of = ParkedLen(shard._row_of)
    audience = [uid for uid in KNOWN if uid % len(parts(store)) == late % len(parts(store))]
    audience.insert(1, late)
    shard._row_of.armed = True
    got = []
    reader = threading.Thread(target=lambda: got.append(store.rows_for(InternedIds(audience))))
    reader.start()
    assert shard._row_of.parked.wait(timeout=30)
    store.batch_apply_ops([reward(late)], ReinforcementPolicy())
    shard._row_of.registered.set()
    reader.join(timeout=30)
    assert not reader.is_alive() and len(got) == 1
    want, unknown = dict_path(store, audience)
    assert not unknown and np.array_equal(got[0], want)
    # the map the read built predates the user: the dicts answered
    (key, stale) = shard._dense_rows
    assert key[0] == len(shard) - 1
    assert stale is None or late >= len(stale) or stale[late] == -1
    assert shard._capacity > capacity  # the registration grew the pages
    assert np.array_equal(store.rows_for(InternedIds(audience)), want)
    assert shard._row_map()[late] == shard.row_index(late)


@pytest.mark.parametrize("kind", ["columnar", "sharded-2", "sharded-3"])
def test_explicit_reads_racing_registrations_never_see_a_wrong_row(kind):
    store = seeded(kind)
    fresh = list(range(100, 700))
    registered = [0]  # how many of ``fresh`` the writer has created
    done, captured, failures = threading.Event(), [], []

    def register():
        try:
            for n, uid in enumerate(fresh, 1):
                store.batch_apply_ops([reward(uid)], ReinforcementPolicy())
                registered[0] = n
        finally:
            done.set()

    def read(seed):
        rng = np.random.default_rng(seed)
        try:
            for __ in range(100):
                # registered ids, and the next one, which may be created
                # mid-read
                n = registered[0]
                pool = [*KNOWN, *fresh[:n]]
                ids = rng.choice(pool, size=20, replace=False).tolist()
                ids[1:1] = fresh[n:n + 1]
                try:
                    rows = store.rows_for(InternedIds(ids))
                    batch = store.batch(InternedIds(ids))
                except UnknownUserError as unknown:
                    assert unknown.user_ids == tuple(fresh[n:n + 1])
                    continue
                captured.append((ids, rows, batch.intensity_matrix(EMOTION_NAMES)))
        except BaseException as error:  # surfaced on the main thread
            failures.append(error)

    # more threads than cores, switching often
    threads = [threading.Thread(target=register)]
    threads += [threading.Thread(target=read, args=(seed,)) for seed in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert done.is_set() and not failures and captured
    for ids, rows, intensities in captured:
        for uid, (shard, row) in zip(ids, owners(store, rows)):
            assert shard._user_ids[row] == uid
        # each user is written once, by the commit that creates the row,
        # and the row is published inside that commit's window: a read
        # that finds the row sees it committed
        final = np.frombuffer(dict_capture(store, ids)[0]).reshape(intensities.shape)
        for got, want in zip(intensities, final):
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ["columnar", "sharded-2"])
@pytest.mark.parametrize("park", ["before-the-window", "inside-the-window"])
def test_a_first_contact_row_is_found_only_committed(monkeypatch, kind, park):
    """A commit that creates a user's row parks its writer after the row
    exists and before its window opens, or inside the window before any
    op lands; the read started there either misses the user or waits for
    the commit, never returns the empty row (a read that found the row
    before the window would copy it empty)."""
    store = seeded(kind)
    uid = 101
    shard = parts(store)[uid % len(parts(store))]
    n_rows = len(shard)
    parked, progress = threading.Event(), threading.Event()

    def spin(seconds):  # a seqlock reader yields before every retry
        progress.set()
        time.sleep(seconds)

    monkeypatch.setattr(seqlock_module, "time", SimpleNamespace(sleep=spin))
    if park == "before-the-window":
        real_write = Seqlock.write

        def parking_write(seqlock, idx):
            if seqlock is shard.row_generations and not parked.is_set():
                parked.set()
                progress.wait(timeout=30)
            return real_write(seqlock, idx)

        monkeypatch.setattr(Seqlock, "write", parking_write)
    else:
        real_rounds = shard._apply_rounds

        def parking_rounds(*args):
            parked.set()
            progress.wait(timeout=30)
            real_rounds(*args)

        monkeypatch.setattr(shard, "_apply_rounds", parking_rounds)

    writer = threading.Thread(
        target=store.batch_apply_ops, args=([reward(uid)], ReinforcementPolicy())
    )
    writer.start()
    try:
        assert parked.wait(timeout=30)
        assert len(shard) == n_rows + 1  # the row exists
        audience = InternedIds([KNOWN[0], uid, KNOWN[1]])
        try:
            got = store.batch(audience).intensity_matrix(EMOTION_NAMES)[1]
        except UnknownUserError as unknown:
            assert park == "before-the-window"
            assert unknown.user_ids == (uid,)
            got = None
    finally:
        progress.set()
        writer.join(timeout=30)
        assert not writer.is_alive()
    committed = store.batch([uid]).intensity_matrix(EMOTION_NAMES)[0]
    assert committed.any()
    if got is not None:
        assert got.tobytes() == committed.tobytes()

"""One per-user snapshot on every SUM backend, never torn.

``freeze_view`` — and :meth:`SumCache.get`, which caches it until the
next publish — returns a sealed :class:`SmartUserModel` built from one
``to_dict()``-shaped copy, whatever the backend.  On the columnar stores
that copy (and a live view's ``to_dict()``) is taken inside the row's
seqlock window and the layout-epoch window, so no reader sees half a
commit or half a column relocation — even from a writer that holds none
of the reader's locks.
"""

import sys
import threading
import time
from types import SimpleNamespace

import pytest

import repro.core.seqlock as seqlock_module
from repro.core.four_branch import Branch
from repro.core.reward import ReinforcementPolicy
from repro.core.shm_store import MultiProcSumStore
from repro.core.sum_model import SmartUserModel, SumRepository, UnknownUserError
from repro.core.sum_store import ColumnarSumStore, SumRowView
from repro.core.updates import ProfileOp, RewardOp, apply_ops
from repro.streaming.cache import SumCache

POLICY = ReinforcementPolicy()

SNAPSHOTS = {
    "freeze_view": lambda store, cache, uid: store.freeze_view(uid),
    "cache.get": lambda store, cache, uid: cache.get(uid),
}


@pytest.fixture
def store(sum_backend_cls):
    seed = SumRepository()
    for uid in (3, 5):
        model = seed.get_or_create(uid)
        model.set_objective("age", 31)
        model.activate_emotion("shy", 0.2)
        model.set_subjective("pref[a]", 0.7)
        model.set_sensibility("shy", 0.4)
        model.observe_branch(Branch.MANAGING, 0.8)
        model.asked_questions.add("q-1")
    # a raw out-of-range value, as a store may hold it (no op writes one)
    seed.get_or_create(4).emotional.intensities["shy"] = 1.5
    store = seed if sum_backend_cls is SumRepository else sum_backend_cls.from_repository(seed)
    yield store
    if isinstance(store, MultiProcSumStore):
        store.close()


@pytest.fixture(params=list(SNAPSHOTS))
def snapshot_of(request, store):
    """``uid -> snapshot`` through ``freeze_view`` or a ``SumCache``."""
    cache = SumCache(store)
    take = SNAPSHOTS[request.param]
    return lambda uid: take(store, cache, uid)


class TestSnapshotContract:
    def test_a_sealed_model_equal_to_the_live_state(self, store, snapshot_of):
        for uid in (3, 5):
            snapshot = snapshot_of(uid)
            assert isinstance(snapshot, SmartUserModel)
            assert not isinstance(snapshot, SumRowView)
            assert snapshot.user_id == uid
            assert snapshot.to_dict() == store.get(uid).to_dict()

    def test_stable_across_later_live_writes(self, store, snapshot_of):
        snapshot = snapshot_of(3)
        before = snapshot.to_dict()
        store.batch_apply_ops(
            [(3, (RewardOp(("shy",)), ProfileOp(subjective=(("pref[new]", 0.9),))))], POLICY
        )
        assert snapshot.to_dict() == before
        assert snapshot.emotional["shy"] == pytest.approx(0.2)

    def test_every_family_write_raises(self, store, snapshot_of):
        snapshot = snapshot_of(5)
        with pytest.raises((TypeError, ValueError, KeyError)):
            snapshot.activate_emotion("shy", 0.7)
        with pytest.raises((TypeError, ValueError, KeyError)):
            snapshot.set_subjective("pref[x]", 0.4)
        with pytest.raises((TypeError, ValueError, KeyError)):
            snapshot.subjective["pref[b]"] = 0.1
        with pytest.raises((TypeError, ValueError, KeyError)):
            snapshot.set_sensibility("shy", 0.9)
        with pytest.raises((TypeError, ValueError, KeyError)):
            snapshot.evidence["shy"] = 3
        with pytest.raises((TypeError, ValueError)):
            snapshot.ei_profile.scores[Branch.MANAGING] = 0.9
        with pytest.raises((TypeError, AttributeError)):
            snapshot.asked_questions.add("q-9")
        # the live model and the shared snapshot are both unharmed
        assert store.get(5).emotional["shy"] == pytest.approx(0.2)
        assert snapshot_of(5).emotional["shy"] == pytest.approx(0.2)
        assert snapshot_of(5).to_dict() == store.get(5).to_dict()

    def test_every_attribute_rebinding_raises(self, store, snapshot_of):
        snapshot = snapshot_of(5)
        with pytest.raises(TypeError, match="read-only"):
            snapshot.objective = {"poison": 1}
        with pytest.raises(TypeError, match="read-only"):
            snapshot.sensibility = {"shy": 99.0}
        # nested objects are sealed too, not just the model itself
        with pytest.raises(TypeError, match="read-only"):
            snapshot.emotional.intensities = {"shy": 0.99}
        with pytest.raises(TypeError, match="read-only"):
            snapshot.ei_profile.scores = {}
        assert snapshot_of(5).sensibility.get("shy", 0.0) != 99.0
        assert snapshot_of(5).emotional["shy"] == pytest.approx(0.2)

    def test_unknown_user_raises_the_typed_error(self, snapshot_of):
        with pytest.raises(UnknownUserError):
            snapshot_of(99)

    def test_a_raw_out_of_range_live_value_is_served_as_held(
        self, store, snapshot_of
    ):
        # the snapshot copies live state; it does not re-validate it
        assert snapshot_of(4).emotional["shy"] == 1.5
        assert snapshot_of(4).to_dict() == store.get(4).to_dict()

    def test_the_cache_serves_one_object_until_a_publish(self, store):
        cache = SumCache(store)
        snapshot = cache.get(5)
        store.batch_apply_ops(
            [(5, (RewardOp(("shy",)),))], ReinforcementPolicy(learning_rate=0.3)
        )
        assert cache.get(5) is snapshot  # cached until the next publish
        cache.invalidate([5])
        fresh = cache.get(5)
        assert fresh is not snapshot
        assert fresh.emotional["shy"] == pytest.approx(0.5)
        assert snapshot.emotional["shy"] == pytest.approx(0.2)


# -- never half a commit ------------------------------------------------------


@pytest.fixture(params=["columnar", "multiproc-shard"])
def columnar(request):
    """A columnar store: on the heap, or shard 0 of a shm-backed store."""
    if request.param == "columnar":
        yield ColumnarSumStore()
        return
    owner = MultiProcSumStore(1)
    try:
        yield owner.shards[0]
    finally:
        owner.close()


def read_live(store, cache):
    return store.get(1).to_dict()


def read_frozen(store, cache):
    return store.freeze_view(1).to_dict()


def read_cached(store, cache):
    cache.invalidate([1])
    return cache.get(1).to_dict()


READERS = {"to_dict": read_live, "freeze_view": read_frozen, "cache.get": read_cached}


def read_mid_write(monkeypatch, store, window, first, rest, read):
    """``read()`` started while a writer is half-way through ``window``.

    The writer holds ``store.writer_lock``, opens ``window``, makes its
    ``first`` change and waits; it makes the ``rest`` only once the
    reader has returned or has retried (a seqlock reader yields with
    ``time.sleep`` before every retry, observed here).  So the reader
    always starts inside the window, and the verdict never depends on
    scheduling.
    """
    progress, opened = threading.Event(), threading.Event()

    def spin(seconds):
        progress.set()
        time.sleep(seconds)

    monkeypatch.setattr(seqlock_module, "time", SimpleNamespace(sleep=spin))

    def writer():
        with store.writer_lock, window():
            first()
            opened.set()
            progress.wait(timeout=30)
            rest()

    thread = threading.Thread(target=writer)
    thread.start()
    try:
        assert opened.wait(timeout=30)
        return read()
    finally:
        progress.set()
        thread.join(timeout=30)
        assert not thread.is_alive()


@pytest.mark.parametrize("reader", list(READERS))
def test_no_read_sees_half_a_row_commit(monkeypatch, columnar, reader):
    store = columnar
    store.get_or_create(1)
    cache = SumCache(store)
    cache.get(1)
    row = store.row_index(1)
    shy = store._emotional.index["shy"]

    def first():
        store._emotional.values[row, shy] = 0.5
        store._emotional.mask[row, shy] = True

    def rest():
        store._evidence.values[row, shy] = 1
        store._evidence.mask[row, shy] = True

    payload = read_mid_write(
        monkeypatch, store, lambda: store.row_generations.write(row),
        first, rest, lambda: READERS[reader](store, cache),
    )
    seen = (payload["emotional"].get("shy", 0.0), payload["evidence"].get("shy", 0))
    assert seen in {(0.0, 0), (0.5, 1)}


@pytest.mark.parametrize("reader", list(READERS))
def test_no_read_sees_half_a_column_relocation(monkeypatch, columnar, reader):
    store = columnar
    store.batch_apply_ops(
        [(1, (ProfileOp(subjective=(("a", 0.1), ("b", 0.2))),))], POLICY
    )
    cache = SumCache(store)
    cache.get(1)
    family = store._subjective
    assert family.order == ["a", "b"]

    def first():  # the relocated registries land first ...
        family.index = {"b": 0, "a": 1}
        family.order = ["b", "a"]

    def rest():  # ... and only then the arrays they describe
        values = family._alloc(family.values.shape, family.values.dtype)
        mask = family._alloc(family.mask.shape, family.mask.dtype)
        values[:, :2] = family.values[:, [1, 0]]
        mask[:, :2] = family.mask[:, [1, 0]]
        family.values, family.mask = values, mask

    payload = read_mid_write(
        monkeypatch, store, lambda: store.layout_epoch.write(0),
        first, rest, lambda: READERS[reader](store, cache),
    )
    # the same logical state before and after the relocation
    assert payload["subjective"] == {"a": 0.1, "b": 0.2}


def test_no_read_tears_under_a_committing_writer():
    """Stress: two readers race a thread committing one-user batches."""
    n_batches, ops = 300, (RewardOp(("shy",), 1e-3),)
    oracle = SmartUserModel(1)
    valid = {(0, 0.0)}  # every committed (evidence, intensity) state
    for __ in range(n_batches):
        apply_ops(oracle, ops, POLICY)
        valid.add((oracle.evidence["shy"], oracle.emotional["shy"]))
    store = ColumnarSumStore()
    store.get_or_create(1)
    done, torn = threading.Event(), []

    def reader(read):
        while not done.is_set():
            payload = read()
            seen = (payload["evidence"].get("shy", 0), payload["emotional"].get("shy", 0.0))
            if seen not in valid:
                torn.append(seen)

    readers = [
        threading.Thread(target=reader, args=(read,))
        for read in (lambda: store.freeze_view(1).to_dict(), lambda: store.get(1).to_dict())
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in readers:
            thread.start()
        for __ in range(n_batches):
            store.batch_apply_ops([(1, ops)], POLICY)
    finally:
        done.set()
        for thread in readers:
            thread.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in readers)
    assert not torn

"""Snapshot isolation of the versioned SUM cache, pinned as properties.

The tentpole contract of ISSUE 4: a snapshot taken at version *v* —
whether a per-user frozen view or a columnar batch capture — reflects
exactly the batches published up to *v* and is **bit-stable** no matter
how many batches land afterwards; fresh reads then observe the
batch-applied state at the bumped version.  Never a torn read.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.emotions import EMOTION_NAMES
from repro.core.reward import ReinforcementPolicy
from repro.core.sum_store import ColumnarSumStore
from repro.core.updates import DecayOp, PunishOp, RewardOp
from repro.streaming.cache import SumCache

POLICY = ReinforcementPolicy()
N_USERS = 5

emotions = st.sampled_from(EMOTION_NAMES)
attributes = st.lists(emotions, min_size=1, max_size=3).map(tuple)
strengths = st.floats(0.0, 1.0, allow_nan=False)
ops = st.one_of(
    st.just(DecayOp()),
    st.builds(RewardOp, attributes, strengths),
    st.builds(PunishOp, attributes, strengths),
)
op_sequences = st.lists(ops, min_size=1, max_size=4).map(tuple)
batches = st.lists(
    st.tuples(st.integers(0, N_USERS - 1), op_sequences),
    min_size=1,
    max_size=4,
)


def build_cache(seed_batches):
    store = ColumnarSumStore()
    for uid in range(N_USERS):
        store.get_or_create(uid)
    cache = SumCache(store)
    for batch in seed_batches:
        cache.apply_batch_and_publish(batch, POLICY)
        cache.mark_batch()
    return store, cache


@settings(max_examples=40, deadline=None)
@given(seed_batches=st.lists(batches, max_size=3), later_batches=st.lists(batches, min_size=1, max_size=3))
def test_snapshot_at_version_v_is_bit_stable_while_batches_land(
    seed_batches, later_batches
):
    __, cache = build_cache(seed_batches)
    ids = list(range(N_USERS))

    views = {uid: cache.get(uid) for uid in ids}
    view_dicts = {uid: views[uid].to_dict() for uid in ids}
    capture = cache.batch(ids)
    intensity = capture.intensity_matrix(EMOTION_NAMES).copy()
    sensibility = capture.sensibility_matrix(EMOTION_NAMES).copy()
    versions = dict(capture.versions)

    for batch in later_batches:
        cache.apply_batch_and_publish(batch, POLICY)
        cache.mark_batch()

    # the capture is frozen: bit-identical matrices, same version stamps
    np.testing.assert_array_equal(
        capture.intensity_matrix(EMOTION_NAMES), intensity
    )
    np.testing.assert_array_equal(
        capture.sensibility_matrix(EMOTION_NAMES), sensibility
    )
    assert capture.versions == versions
    # per-user frozen views are equally stable
    for uid in ids:
        assert views[uid].to_dict() == view_dicts[uid]

    # fresh reads observe the batch-applied state at bumped versions,
    # and equal the live store bit for bit (no torn rows)
    fresh = cache.batch(ids)
    touched = {int(uid) for batch in later_batches for uid, __ in batch}
    for uid in ids:
        if uid in touched:
            assert fresh.versions[uid] > versions[uid]
        else:
            assert fresh.versions[uid] == versions[uid]
    live_rows = np.vstack(
        [cache.repository.get(uid).emotional_vector() for uid in ids]
    )
    np.testing.assert_array_equal(
        fresh.intensity_matrix(EMOTION_NAMES), live_rows
    )


@settings(max_examples=25, deadline=None)
@given(seed_batches=st.lists(batches, max_size=2), later=batches)
def test_scalar_snapshots_pin_old_state_at_old_version(seed_batches, later):
    store, cache = build_cache(seed_batches)
    ids = list(range(N_USERS))
    before = {uid: cache.version(uid) for uid in ids}
    old_views = {uid: cache.get(uid) for uid in ids}
    old_dicts = {uid: old_views[uid].to_dict() for uid in ids}

    counts, versions = cache.apply_batch_and_publish(later, POLICY)
    assert sum(counts) > 0

    for uid in ids:
        # old snapshot object: old state, regardless of publishes
        assert old_views[uid].to_dict() == old_dicts[uid]
        # new snapshot: live state at the (possibly bumped) version
        assert cache.get(uid).to_dict() == store.get(uid).to_dict()
        if versions.get(uid, before[uid]) > before[uid]:
            assert cache.version(uid) == before[uid] + 1
        else:
            assert cache.version(uid) == before[uid]


def test_zero_op_batches_do_not_bump_or_invalidate():
    __, cache = build_cache([])
    capture = cache.batch(list(range(N_USERS)))
    counts, versions = cache.apply_batch_and_publish([], POLICY)
    assert counts == [] and versions == {}
    fresh = cache.batch(list(range(N_USERS)))
    assert fresh.versions == capture.versions == {
        uid: 0 for uid in range(N_USERS)
    }


def test_object_backend_batch_publish_matches_columnar():
    from repro.core.sum_model import SumRepository

    items = [
        (1, (RewardOp(("shy",), 1.0),)),
        (2, (PunishOp(("shy", "shy"), 0.5), DecayOp())),
        (1, (DecayOp(), RewardOp(("shy", "lively"), 0.3))),  # duplicate id
        (3, ()),
    ]
    results = []
    for store in (SumRepository(), ColumnarSumStore()):
        published = SumCache(store).apply_batch_and_publish(items, POLICY)
        results.append((published, store.dumps()))
    assert results[0] == results[1]
    assert results[0][0] == ([1, 2, 2, 0], {1: 1, 2: 1, 3: 0})

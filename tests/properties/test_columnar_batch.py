"""Vectorized batch application ≡ sequential scalar application, bit for bit.

The columnar store's correctness contract: for *arbitrary* interleavings
of Decay/Reward/Punish ops — duplicate attributes inside one op,
duplicate users across batch items, clamp-saturating strengths, any
policy knobs — :meth:`ColumnarSumStore.batch_apply_ops` over a
columnar shard leaves every user in exactly (``==``, not approximately)
the state sequential :func:`repro.core.updates.apply_op` produces on the
object backend.  The JSON serializations must therefore also be equal
byte for byte, which is what these tests compare.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.emotions import EMOTION_NAMES
from repro.core.reward import ReinforcementPolicy
from repro.core.sum_model import SumRepository
from repro.core.sum_store import ColumnarSumStore
from repro.core.updates import (
    DecayOp,
    PunishOp,
    RewardOp,
    apply_ops,
)

# duplicates allowed on purpose: one op rewarding ("shy", "shy") must
# clamp between the two touches, a case scatter-adds naively get wrong
attribute_tuples = st.lists(
    st.sampled_from(EMOTION_NAMES), min_size=1, max_size=4
).map(tuple)
strengths = st.floats(0.0, 2.0, allow_nan=False)  # > 1 exercises clamp01

ops = st.one_of(
    st.just(DecayOp()),
    st.builds(RewardOp, attributes=attribute_tuples, strength=strengths),
    st.builds(PunishOp, attributes=attribute_tuples, strength=strengths),
)

#: (user_id, ops) batch items; small id range forces duplicate users
batch_items = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=4),
        st.lists(ops, max_size=6).map(tuple),
    ),
    max_size=8,
)

policies = st.builds(
    ReinforcementPolicy,
    learning_rate=st.floats(0.01, 1.0, allow_nan=False),
    punish_ratio=st.floats(0.0, 1.0, allow_nan=False),
    decay=st.floats(0.0, 0.5, allow_nan=False, exclude_max=True),
)


@settings(max_examples=150, deadline=None)
@given(batch_items, policies)
def test_batch_apply_bit_equal_to_sequential(items, policy):
    reference = SumRepository()
    for user_id, user_ops in items:
        apply_ops(reference.get_or_create(user_id), user_ops, policy)

    store = ColumnarSumStore()
    counts = store.batch_apply_ops(items, policy)

    assert counts == [len(user_ops) for __, user_ops in items]
    assert store.dumps() == reference.dumps()


@settings(max_examples=100, deadline=None)
@given(batch_items, policies)
def test_batch_apply_on_object_repo_matches_columnar(items, policy):
    # the object store's sequential reference and the vectorized path agree
    repo = SumRepository()
    store = ColumnarSumStore()
    assert repo.batch_apply_ops(items, policy) == store.batch_apply_ops(
        items, policy
    )
    assert repo.dumps() == store.dumps()


@settings(max_examples=50, deadline=None)
@given(batch_items, policies)
def test_json_and_catalog_round_trips_preserve_state(tmp_path_factory, items, policy):
    store = ColumnarSumStore()
    store.batch_apply_ops(items, policy)
    payload = store.dumps()

    # JSON import/export path (SumRepository-compatible both ways)
    assert ColumnarSumStore.loads(payload).dumps() == payload
    assert SumRepository.loads(payload).dumps() == payload

    # columnar .npz pages through the repro.db Catalog
    directory = tmp_path_factory.mktemp("pages")
    store.save(directory)
    assert ColumnarSumStore.load(directory).dumps() == payload
    assert json.loads(payload) == json.loads(ColumnarSumStore.load(directory).dumps())

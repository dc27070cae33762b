"""InternedIds: the request universe, translated once.

The sequence must look like the list it was made from to Python, and
like a ready ``int64`` vector to numpy — but only when turning the ids
into ``int64`` cannot change them.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.advice import DomainProfile, ItemTable
from repro.core.interned import InternedIds

PROFILE = DomainProfile("training", {"enthusiastic": {"innovative": 0.8}})

int_ids = st.lists(st.integers(-(2**63), 2**63 - 1), max_size=30)
str_ids = st.lists(st.text("abcd", min_size=1, max_size=3), max_size=30)


class TestLooksLikeTheList:
    @settings(max_examples=100, deadline=None)
    @given(ids=st.one_of(int_ids, str_ids))
    def test_len_bool_eq_iteration_and_indexing(self, ids):
        interned = InternedIds(ids)
        assert len(interned) == len(ids) and bool(interned) == bool(ids)
        assert interned == ids and interned == tuple(ids)
        assert interned == InternedIds(ids)
        assert not interned == [*ids, 0]
        assert list(interned) == ids
        assert [interned[i] for i in range(len(ids))] == ids
        assert interned[1:3] == ids[1:3]
        scalar = int if ids and type(ids[0]) is int else str
        assert all(type(i) is scalar for i in interned)
        assert all(type(interned[i]) is scalar for i in range(len(ids)))
        assert json.dumps(list(interned)) == json.dumps(ids)

    def test_is_a_private_copy(self):
        ids = [3, 1, 2]
        interned = InternedIds(ids)
        ids[0] = 99
        assert list(interned) == [3, 1, 2] and interned.vector.tolist() == [3, 1, 2]
        with pytest.raises(TypeError):
            interned[0] = 5

    def test_numpy_spellings_come_out_as_python_scalars(self):
        for spelled in (np.arange(4), list(np.arange(4)), np.arange(4, dtype=np.int32)):
            interned = InternedIds(spelled)
            assert [type(i) for i in interned] == [int] * 4
            assert interned.vector.dtype == np.int64
        for spelled in (np.array(["a", "b"]), [np.str_("a"), np.str_("b")]):
            interned = InternedIds(spelled)
            assert [type(i) for i in interned] == [str, str]
            assert interned.vector is None


class TestTheArrayRoute:
    @settings(max_examples=100, deadline=None)
    @given(ids=int_ids.filter(bool))
    def test_int_ids_convert_without_a_walk_or_a_copy(self, ids):
        interned = InternedIds(ids)
        assert np.asarray(interned, dtype=np.int64) is interned.vector
        assert np.asarray(interned) is interned.vector
        assert interned.vector.tolist() == ids
        assert not interned.vector.flags.writeable
        with pytest.raises(ValueError):
            interned.vector[0] = 1
        copied = np.array(interned)
        assert copied is not interned.vector and copied.tolist() == ids
        assert np.asarray(interned, dtype=np.float64).dtype == np.float64
        assert InternedIds(interned).vector is interned.vector  # shared

    @pytest.mark.parametrize(
        "ids",
        [
            ["a", "b"],
            [1, "a"],
            [(1, 2), (3, 4)],
            [True, False],
            [1, True],
            [1.0, 2.0],
            [1, 2.5],
            [1, 2**70],
            [],
        ],
        ids=repr,
    )
    def test_no_vector_for_ids_int64_would_change(self, ids):
        interned = InternedIds(ids)
        assert interned.vector is None
        assert list(interned) == ids
        assert [type(i) for i in interned] == [type(i) for i in ids]

    def test_without_a_vector_numpy_sees_the_list(self):
        assert np.asarray(InternedIds(["a", "b"])).tolist() == ["a", "b"]
        assert np.asarray(InternedIds([(1, 2), (3, 4)])).shape == (2, 2)
        with pytest.raises(OverflowError):
            np.asarray(InternedIds([1, 2**70]), dtype=np.int64)
        with pytest.raises(ValueError):
            np.asarray(InternedIds([1, (2, 3)]))

    def test_indexes_an_array_like_the_vector(self):
        table = np.arange(10.0) * 2
        assert table[np.asarray(InternedIds([3, 1]), dtype=np.int64)].tolist() == [6.0, 2.0]


class TestItemTableIntern:
    CATALOG = {1: {"innovative": 1.0}, 2: {"innovative": 0.5}, "s": {}}

    def test_carries_the_presence_rows_of_its_table(self):
        table = ItemTable(self.CATALOG, PROFILE)
        interned = table.intern([2, 7, 1])
        assert interned == [2, 7, 1] and interned.vector.tolist() == [2, 7, 1]
        assert interned.presence.tolist() == [[0.5], [0.0], [1.0]]
        assert not interned.presence.flags.writeable
        assert table.intern([2, "s"]).vector is None

    def test_an_equal_list_is_a_hit_and_an_edited_list_is_reinterned(self):
        table = ItemTable(self.CATALOG, PROFILE)
        items = [1, 2, 3]
        first = table.intern(items)
        assert table.intern(list(items)) is first
        assert table.intern(tuple(items)) is first
        assert table.intern(first) is first
        items[0], items[1] = items[1], items[0]  # same list, edited in place
        again = table.intern(items)
        assert again is not first
        assert list(again) == [2, 1, 3] and again.vector.tolist() == [2, 1, 3]
        assert again.presence.tolist() == [[0.5], [1.0], [0.0]]
        assert list(first) == [1, 2, 3]  # what was handed out never moves

    def test_interning_candidates_of_another_source_shares_their_ids(self):
        table = ItemTable(self.CATALOG, PROFILE)
        candidates = InternedIds(np.array([2, 1]))
        assert candidates.presence is None
        interned = table.intern(candidates)
        assert interned.vector is candidates.vector
        assert interned.presence.tolist() == [[0.5], [1.0]]

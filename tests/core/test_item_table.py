"""ItemTable: the Advice stage's item side, built once.

The dict walk of ``AdviceEngine.presence_matrix`` stays the reference;
the table must answer bit for bit like it, on any catalog.
"""

from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.advice import AdviceEngine, DomainProfile, ItemTable
from repro.core.sum_model import SmartUserModel

PROFILE = DomainProfile(
    "training",
    {
        "enthusiastic": {"innovative": 0.8, "practical": 0.3},
        "frightened": {"challenging": -0.6, "supportive": 0.5},
    },
)
#: profile attributes plus two the profile does not know
ATTRIBUTES = [*PROFILE.item_attributes(), "off-profile", "other"]
ENGINE = AdviceEngine()

item_ids = st.one_of(st.integers(-20, 20), st.text("abcd", min_size=1, max_size=3))
presences = st.floats(-0.5, 1.5, allow_nan=False)
catalogs = st.dictionaries(
    item_ids,
    st.dictionaries(st.sampled_from(ATTRIBUTES), presences, max_size=4),
    max_size=12,
)


def keen_model():
    model = SmartUserModel(user_id=1)
    model.activate_emotion("enthusiastic", 0.9)
    model.set_sensibility("enthusiastic", 0.7)
    model.activate_emotion("frightened", 0.4)
    return model


class TestAgainstTheDictWalk:
    @settings(max_examples=150, deadline=None)
    @given(catalog=catalogs, asked=st.lists(item_ids, max_size=16))
    def test_block_and_multipliers_are_bit_equal(self, catalog, asked):
        table = ItemTable(catalog, PROFILE)
        items = [*catalog, *asked]  # known items, unknown ones, repeats
        want = ENGINE.presence_matrix(items, catalog, PROFILE)
        got = ENGINE.presence_matrix(items, table, PROFILE)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        assert got.min(initial=0.0) >= 0.0 and got.max(initial=0.0) <= 1.0
        models = [keen_model()]
        assert np.array_equal(
            ENGINE.multiplier_matrix(models, items, table, PROFILE),
            ENGINE.multiplier_matrix(models, items, catalog, PROFILE),
        )

    @settings(max_examples=50, deadline=None)
    @given(catalog=catalogs)
    def test_is_a_mapping_equal_to_its_source(self, catalog):
        table = ItemTable(catalog, PROFILE)
        assert isinstance(table, Mapping)
        assert table == catalog and dict(table) == catalog
        assert len(table) == len(catalog) and list(table) == list(catalog)
        assert table.presence.shape == (len(catalog) + 1, 4)
        assert not table.presence.flags.writeable

    def test_unknown_items_share_the_zero_row(self):
        table = ItemTable({"a": {"innovative": 1.0}}, PROFILE)
        block = table.presence_rows(["nope", "a", ("also", "nope")])
        assert not block[0].any() and not block[2].any()
        assert block[1].tolist() == [0.0, 1.0, 0.0, 0.0]

    def test_presence_is_clamped_and_off_profile_attributes_ignored(self):
        table = ItemTable(
            {1: {"innovative": 7.0, "practical": -3.0, "off-profile": 1.0}},
            PROFILE,
        )
        assert table.presence_rows([1]).tolist() == [[0.0, 1.0, 0.0, 0.0]]

    def test_no_profile_means_no_columns(self):
        table = ItemTable({"a": {"innovative": 1.0}}, None)
        assert table.presence_rows(["a", "b"]).shape == (2, 0)
        assert table == {"a": {"innovative": 1.0}}

    def test_a_table_for_another_profile_is_walked_not_gathered(self):
        other = DomainProfile("other", {"shy": {"online": 0.8}})
        catalog = {"a": {"online": 0.5, "innovative": 1.0}}
        table = ItemTable(catalog, PROFILE)
        assert np.array_equal(
            ENGINE.presence_matrix(["a"], table, other),
            ENGINE.presence_matrix(["a"], catalog, other),
        )


class TestStalePresencesAreImpossible:
    def test_no_way_to_edit_the_table(self):
        source = {"a": {"innovative": 1.0}}
        table = ItemTable(source, PROFILE)
        with pytest.raises(TypeError):
            table["b"] = {"innovative": 0.5}
        with pytest.raises(TypeError):
            table["a"]["innovative"] = 0.0
        with pytest.raises(ValueError):
            table.presence[0, 0] = 0.5
        # ... and the source it was copied from is no way in either
        source["a"]["innovative"] = 0.0
        source["b"] = {"practical": 1.0}
        assert table == {"a": {"innovative": 1.0}}
        assert table.presence_rows(["a", "b"]).tolist() == [
            [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0],
        ]

    def test_the_row_memo_is_checked_by_value_not_identity(self):
        catalog = {"a": {"innovative": 1.0}, "b": {"practical": 0.5}}
        table = ItemTable(catalog, PROFILE)
        items = ["a", "b", "c"]
        first = table.presence_rows(items)
        assert table.presence_rows(list(items)) is first  # equal list: a hit
        items[0], items[1] = items[1], items[0]  # same list, edited in place
        assert np.array_equal(
            table.presence_rows(items),
            ENGINE.presence_matrix(items, catalog, PROFILE),
        )
        assert not first.flags.writeable

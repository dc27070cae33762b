"""The Advice user side and the masked family read, against their loops.

Both kernels replaced a Python loop (per emotion, per name) with one
numpy pass that performs the same operations per cell in the same
order, so the loops stay here as references and the comparison is
``array_equal``, not a tolerance.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.advice as advice_module
from repro.core.advice import AdviceEngine, DomainProfile, ItemTable, evidence_matrix
from repro.core.emotions import EMOTION_NAMES
from repro.core.sharded_store import ShardedBatch, ShardedSumStore
from repro.core.sum_model import SmartUserModel, SumRepository
from repro.core.sum_store import (
    ColumnarSumStore,
    _ColumnFamily,
    _FrozenFamily,
    _masked_matrix,
)

ATTRIBUTES = ("innovative", "challenging", "supportive", "online", "cheap")

unit = st.floats(0.0, 1.0, allow_nan=False)
#: zero gains and full-strength inhibition included on purpose
gains = st.one_of(st.sampled_from([0.0, -1.0, 1.0]), st.floats(-1.0, 1.0, allow_nan=False))


def dense_boosts(engine, models, profile):
    """``boosts_matrix`` as it was: one dense (n, A) factor per emotion."""
    emotions, attributes, dense = profile.layout()
    evidence = evidence_matrix(models, emotions)
    boosts = np.ones((len(models), len(attributes)))
    for row in range(len(emotions)):
        factor = 1.0 + engine.gain_scale * np.multiply.outer(evidence[:, row], dense[row])
        np.maximum(factor, 0.05, out=factor)
        boosts *= factor
    return boosts


@st.composite
def profiles(draw):
    emotions = draw(st.lists(st.sampled_from(EMOTION_NAMES), max_size=5, unique=True))
    targets = st.dictionaries(st.sampled_from(ATTRIBUTES), gains, max_size=4)
    return DomainProfile("prop", {e: draw(targets) for e in emotions})


@st.composite
def populations(draw):
    models = []
    for uid in range(draw(st.integers(1, 6))):
        model = SmartUserModel(uid)
        for emotion in draw(st.lists(st.sampled_from(EMOTION_NAMES), max_size=6, unique=True)):
            model.activate_emotion(emotion, draw(unit))
            if draw(st.booleans()):
                model.set_sensibility(emotion, draw(unit))
        models.append(model)
    return models


class TestLinkKernel:
    @settings(max_examples=200, deadline=None)
    @given(
        profile=profiles(), models=populations(),
        scale=st.one_of(st.just(1.0), st.floats(0.05, 1.0, allow_nan=False)),
    )
    def test_bit_equal_to_the_dense_loop_and_close_to_scalar_boosts(self, profile, models, scale):
        engine = AdviceEngine(gain_scale=scale)
        got = engine.boosts_matrix(models, profile)
        assert got.shape == (len(models), len(profile.item_attributes()))
        assert np.array_equal(got, dense_boosts(engine, models, profile))
        # the scalar path associates gain_scale·gain·intensity·sensibility
        # differently and walks links in dict order: last-bit differences
        for row, model in enumerate(models):
            scalar = engine.boosts(model, profile)
            assert got[row].tolist() == pytest.approx(
                [scalar[a] for a in profile.item_attributes()], rel=1e-12
            )

    def test_the_floor_is_hit_and_held(self):
        # gain_scale·gain·evidence = -1 < -0.95: the factor floors at 0.05
        profile = DomainProfile(
            "floor", {"shy": {"online": -1.0, "cheap": 0.0}, "hopeful": {"cheap": 0.0}}
        )
        model = SmartUserModel(0)
        model.activate_emotion("shy", 1.0)
        engine = AdviceEngine(gain_scale=1.0)
        got = engine.boosts_matrix([model], profile)
        assert got.tolist() == [[1.0, 0.05]]  # cheap (zero gains), online
        assert np.array_equal(got, dense_boosts(engine, [model], profile))

    def test_profiles_without_links_or_without_users(self):
        engine = AdviceEngine()
        model = SmartUserModel(0)
        assert engine.boosts_matrix([model], DomainProfile("none", {})).shape == (1, 0)
        assert engine.boosts_matrix([model], DomainProfile("bare", {"shy": {}})).shape == (1, 0)
        linked = DomainProfile("linked", {"shy": {"online": 0.5}})
        assert engine.boosts_matrix([], linked).shape == (0, 1)
        unlinked = DomainProfile("none", {})
        assert engine.multiplier_matrix([model], ["a", "b"], {}, unlinked).tolist() == [[1.0, 1.0]]

    LINKS = {"shy": {"online": 0.5, "cheap": -0.25}, "hopeful": {"online": 1.0}}

    def test_link_layout_is_attribute_major_and_lives_on_the_profile(self):
        profile = DomainProfile("p", self.LINKS)
        emotion_rows, link_gains, starts = profile.link_layout()
        # attributes: cheap, online; emotions: hopeful, shy
        assert starts.tolist() == [0, 1]
        assert emotion_rows.tolist() == [1, 0, 1]
        assert link_gains.tolist() == [-0.25, 1.0, 0.5]
        assert profile.link_layout() is profile.link_layout()
        assert not any(a.flags.writeable for a in profile.link_layout())
        twin = DomainProfile("p", {e: dict(t) for e, t in self.LINKS.items()})
        assert twin == profile and twin.link_layout() is not profile.link_layout()

    def test_large_populations_pass_through_in_chunks(self, monkeypatch):
        profile = DomainProfile("p", self.LINKS)
        seed = SumRepository()
        rng = np.random.default_rng(3)
        for uid in range(50):
            model = seed.get_or_create(uid)
            model.activate_emotion("shy", float(rng.random()))
            model.activate_emotion("hopeful", float(rng.random()))
            model.set_sensibility("hopeful", float(rng.random()))
        store = ColumnarSumStore.from_repository(seed)
        batch = store.batch(list(range(50)))
        engine = AdviceEngine()
        whole = engine.boosts_matrix(batch, profile)
        monkeypatch.setattr(advice_module, "_FACTOR_CELLS", 3 * 7)  # 7 rows a chunk
        assert np.array_equal(engine.boosts_matrix(batch, profile), whole)
        assert np.array_equal(whole, dense_boosts(engine, batch, profile))


def per_name_loop(family, rows, names, default):
    """``_masked_matrix`` as it was: three fancy reads per name."""
    out = np.full((len(rows), len(names)), float(default))
    for k, name in enumerate(names):
        j = family.column_of(name)
        if j is None:
            continue
        out[:, k] = np.where(family.mask[rows, j], family.values[rows, j], float(default))
    return out


class TestMaskedMatrix:
    NAMES = ("a", "b", "c", "d", "e")

    @settings(max_examples=150, deadline=None)
    @given(
        interned=st.lists(st.sampled_from(NAMES), max_size=5, unique=True),
        asked=st.lists(st.sampled_from(NAMES + ("zz",)), max_size=7),
        rows=st.lists(st.integers(0, 5), max_size=8),
        default=st.sampled_from([0.0, 0.5, 1.0]),
        seed=st.integers(0, 2**16),
    )
    def test_equal_to_the_per_name_loop_live_and_frozen(
        self, interned, asked, rows, default, seed
    ):
        family = _ColumnFamily(np.float64, 6, threading.RLock(), seed_names=interned)
        rng = np.random.default_rng(seed)
        family.values[:] = rng.random(family.values.shape)
        family.mask[:] = rng.random(family.mask.shape) < 0.6
        rows = np.asarray(rows, dtype=np.intp)
        want = per_name_loop(family, rows, asked, default)
        got = _masked_matrix(family, rows, asked, default)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        frozen = _FrozenFamily(
            family.index, family.order, family.values[rows], family.mask[rows]
        )
        # every row of a frozen copy: the columns gathered, no row grid
        assert np.array_equal(_masked_matrix(frozen, None, asked, default), want)

    @settings(max_examples=60, deadline=None)
    @given(
        states=st.lists(
            st.dictionaries(
                st.sampled_from(EMOTION_NAMES + NAMES), st.one_of(st.none(), unit), max_size=6
            ),
            min_size=2, max_size=9,  # users 0 and 1: both shards
        ),
        asked=st.lists(st.sampled_from(EMOTION_NAMES[:3] + NAMES + ("zz",)), max_size=7),
        default=st.sampled_from([0.0, 0.5, 1.0]),
        seed=st.integers(0, 2**16),
    )
    def test_sensibility_matrix_of_a_two_shard_batch_equals_the_loop(
        self, states, asked, default, seed
    ):
        sums = SumRepository()
        for uid, state in enumerate(states):
            model = sums.get_or_create(uid)
            for name, weight in state.items():
                if weight is not None:
                    model.set_sensibility(name, weight)
        store = ShardedSumStore.from_repository(sums, n_shards=2)
        order = np.random.default_rng(seed).permutation(len(states)).tolist()
        for batch in (store.batch(order), store.batch()):
            assert isinstance(batch, ShardedBatch)
            want = np.vstack([
                per_name_loop(
                    store.shard_for(uid)._sensibility,
                    np.array([store.shard_for(uid).row_index(uid)]), asked, default,
                )
                for uid in batch.user_ids
            ])
            assert np.array_equal(batch.sensibility_matrix(asked, default), want)


@st.composite
def worlds(draw):
    """A profile, the item side over it, universes to intern, user states."""
    profile = draw(profiles())
    carried = st.dictionaries(
        st.sampled_from(ATTRIBUTES + ("unlinked",)),
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(-0.5, 1.5, allow_nan=False)),
        max_size=4,
    )
    catalog = {f"i{n}": draw(carried) for n in range(draw(st.integers(0, 5)))}
    catalog["bare"] = {}
    catalog["full"] = {name: 1.0 for name in ATTRIBUTES}
    # duplicates, the shared unknown-item row, all-zero and every-column universes
    names = st.sampled_from([*catalog, "nobody", "nobody-else"])
    universes = [draw(st.lists(names, max_size=6)), ["bare", "nobody"], ["full"], ["bare"]]
    states = [
        {e: (draw(unit), draw(st.one_of(st.none(), unit)))
         for e in draw(st.lists(st.sampled_from(EMOTION_NAMES), max_size=6, unique=True))}
        for __ in range(draw(st.sampled_from([0, 1, 12])))
    ]
    return profile, catalog, universes, states


def fresh_active_layout(profile, active):
    """``active_layout`` as it was: derived from ``link_layout`` per call."""
    emotion_rows, link_gains, starts = profile.link_layout()
    sizes = np.diff(np.append(starts, len(link_gains)))
    keep = np.zeros(len(sizes), dtype=bool)
    keep[active] = True
    links = np.flatnonzero(np.repeat(keep, sizes))
    used, rows = np.unique(emotion_rows[links], return_inverse=True)
    emotions = profile.layout()[0]
    return (
        [emotions[e] for e in used.tolist()],
        rows,
        link_gains[links],
        np.cumsum(sizes[active]) - sizes[active],
    )


def populate(cls, states):
    """``states`` seeded on an object repository, converted to ``cls``."""
    sums = SumRepository()
    for uid, state in enumerate(states):
        model = sums.get_or_create(uid)
        for emotion, (intensity, sensibility) in state.items():
            model.activate_emotion(emotion, intensity)
            if sensibility is not None:
                model.set_sensibility(emotion, sensibility)
    return sums if cls is SumRepository else cls.from_repository(sums)


class TestActiveColumns:
    @settings(max_examples=150, deadline=None)
    @given(world=worlds(), scale=st.sampled_from([0.5, 1.0]))
    def test_active_columns_multiply_bit_equal_to_the_dense_block(self, world, scale):
        profile, catalog, universes, states = world
        engine = AdviceEngine(gain_scale=scale)  # 1.0: -1 gains hit the floor
        table = ItemTable(catalog, profile)
        store = populate(ColumnarSumStore, states)
        populations = (
            [store.get(uid) for uid in range(len(states))],
            store.batch(list(range(len(states)))),
        )
        for universe in universes:
            ids = table.intern(universe)
            active = ids.active
            assert np.array_equal(active, np.flatnonzero(ids.presence.any(0)))
            assert not active.flags.writeable
            assert ids.active is active
            if len(universe) != 1:  # a memo hit is the same universe, derived once
                assert table.intern(list(universe)).active is active
            for models in populations:
                dense = np.exp(np.log(engine.boosts_matrix(models, profile)) @ ids.presence.T)
                got = engine.multiplier_rows(models, ids.presence, profile, active)
                assert got.shape == (len(states), len(universe))
                assert np.array_equal(got, dense)
                assert np.array_equal(
                    engine.boosts_matrix(models, profile, active),
                    engine.boosts_matrix(models, profile)[:, active],
                )

    def test_active_layout_keeps_each_attribute_its_links_in_order(self):
        profile = DomainProfile("p", TestLinkKernel.LINKS)
        # attributes: cheap, online; emotions: hopeful, shy
        emotions, rows, link_gains, starts = profile.active_layout(np.array([1]))
        assert emotions == ("hopeful", "shy")
        assert (rows.tolist(), link_gains.tolist(), starts.tolist()) == ([0, 1], [1.0, 0.5], [0])
        emotions, rows, link_gains, starts = profile.active_layout(np.array([0]))
        assert emotions == ("shy",)
        assert (rows.tolist(), link_gains.tolist(), starts.tolist()) == ([0], [-0.25], [0])
        emotions, rows, __, starts = profile.active_layout(np.array([], dtype=np.intp))
        assert (emotions, rows.tolist(), starts.tolist()) == ((), [], [])

    @settings(max_examples=150, deadline=None)
    @given(profile=profiles(), models=populations(), data=st.data())
    def test_the_memo_equals_a_fresh_layout_and_moves_no_multiplier_bit(
        self, profile, models, data
    ):
        width = len(profile.item_attributes())
        active = np.array(
            data.draw(st.lists(st.integers(0, max(width - 1, 0)), unique=True))
            if width else [],
            dtype=np.intp,
        )
        active.sort()
        engine = AdviceEngine()
        # a twin's first call is computed fresh, whatever the memo holds
        twin = DomainProfile(profile.domain, {e: dict(t) for e, t in profile.links.items()})
        cold = engine.boosts_matrix(models, twin, active)
        got = profile.active_layout(active)
        want = fresh_active_layout(profile, active)
        assert got[0] == tuple(want[0])
        for memo, fresh in zip(got[1:], want[1:]):
            assert memo.dtype == fresh.dtype and memo.tobytes() == fresh.tobytes()
            assert not memo.flags.writeable
        assert profile.active_layout(active.copy()) is got
        warm = engine.boosts_matrix(models, profile, active)
        assert warm.tobytes() == cold.tobytes()
        assert warm.tobytes() == engine.boosts_matrix(models, profile)[:, active].tobytes()

    def test_the_memo_is_capped_and_starts_over(self, monkeypatch):
        monkeypatch.setattr(advice_module, "_MAX_ACTIVE_LAYOUTS", 2)
        profile = DomainProfile("p", TestLinkKernel.LINKS)
        first = profile.active_layout(np.array([0]))
        assert profile.active_layout(np.array([0])) is first
        profile.active_layout(np.array([1]))
        profile.active_layout(np.array([0, 1]))  # full: the memo starts over
        again = profile.active_layout(np.array([0]))
        assert again is not first
        assert again[0] == first[0]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(again[1:], first[1:]))

    def test_an_inactive_column_is_never_read(self):
        profile = DomainProfile("p", TestLinkKernel.LINKS)
        model = SmartUserModel(0)
        model.activate_emotion("shy", 0.5)

        class OnlyShy:
            """A batch that fails on any emotion but ``shy``."""

            def __len__(self):
                return 1

            def intensity_matrix(self, order):
                assert list(order) == ["shy"]
                return np.array([[0.5]])

            def sensibility_matrix(self, order, default=1.0):
                assert list(order) == ["shy"]
                return np.array([[default]])

        table = ItemTable({"c": {"cheap": 1.0}, "o": {"online": 0.3}}, profile)
        ids = table.intern(["c", "nobody"])
        assert ids.active.tolist() == [0]
        got = AdviceEngine().multiplier_rows(OnlyShy(), ids.presence, profile, ids.active)
        assert np.array_equal(got, AdviceEngine().multiplier_matrix([model], ids, table, profile))

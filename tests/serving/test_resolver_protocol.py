"""One read protocol on every SUM resolver.

Every backend, bare or behind a ``SumCache``, answers the
:class:`~repro.core.sum_model.SumResolver` surface the serving path
reads through — so nothing in ``src/repro`` probes a resolver for
``batch``, ``rows_for`` or its freshness stamps any more.  The object
store's ``batch`` is a frozen copy that matches the columnar one bit
for bit, and the Advice stage reads it as it reads a list of models.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.core.advice import AdviceEngine, DomainProfile
from repro.core.emotions import EMOTION_NAMES
from repro.core.sharded_store import ShardedSumStore
from repro.core.shm_store import MultiProcSumStore
from repro.core.sum_model import SumRepository, SumResolver, UnknownUserError
from repro.core.sum_store import ColumnarSumStore, FrozenSumBatch
from repro.datagen.catalog import AFFINITY_LINKS
from repro.streaming.cache import SumCache

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
PROFILE = DomainProfile("courses", AFFINITY_LINKS)


def populate(repository, n_users=60, seed=3):
    """Random intensities and sensibilities, some absent, one campaign
    attribute outside the emotion catalog."""
    rng = np.random.default_rng(seed)
    for uid in range(n_users):
        model = repository.get_or_create(uid)
        for name in EMOTION_NAMES:
            if rng.random() < 0.7:
                model.emotional.intensities[name] = float(rng.random())
            if rng.random() < 0.5:
                model.set_sensibility(name, float(rng.random()))
        if uid % 3 == 0:
            model.set_sensibility("pref[online]", float(rng.random()))
    return repository


@pytest.mark.parametrize("cached", [False, True], ids=["bare", "cached"])
def test_every_backend_is_a_resolver(sum_backend_cls, cached):
    store = sum_backend_cls()
    try:
        store.get_or_create(1)
        resolver = SumCache(store) if cached else store
        assert isinstance(resolver, SumResolver)
        assert resolver.batch([1]).user_ids == [1]
        assert resolver.batch().user_ids == [1]
        assert len(resolver.rows_for([1])) == 1
    finally:
        if isinstance(store, MultiProcSumStore):
            store.close()


def test_an_mmap_replica_is_a_resolver(tmp_path):
    primary = ShardedSumStore.from_repository(populate(SumRepository(), n_users=8), n_shards=2)
    primary.save(tmp_path / "state")
    replica = ShardedSumStore.load(tmp_path / "state", mmap=True)
    assert replica.readonly
    assert isinstance(replica, SumResolver)
    assert replica.snapshot_generation == 1


def test_object_batch_equals_a_columnar_copy():
    repository = populate(SumRepository())
    columnar = ColumnarSumStore.from_repository(repository)
    ids = [41, 0, 17, 3, 59, 30]
    got, want = repository.batch(ids), columnar.batch(ids)
    assert isinstance(got, FrozenSumBatch)
    assert got.user_ids == want.user_ids == ids
    assert np.array_equal(
        got.intensity_matrix(EMOTION_NAMES), want.intensity_matrix(EMOTION_NAMES)
    )
    names = (*EMOTION_NAMES, "pref[online]", "never-set")
    for default in (1.0, 0.0):
        assert np.array_equal(
            got.sensibility_matrix(names, default),
            want.sensibility_matrix(names, default),
        )
    whole = repository.batch()
    assert whole.user_ids == repository.user_ids()
    assert np.array_equal(
        whole.intensity_matrix(EMOTION_NAMES),
        columnar.batch().intensity_matrix(EMOTION_NAMES),
    )


def test_object_batch_is_frozen_at_capture():
    repository = populate(SumRepository(), n_users=4)
    batch = repository.batch([2])
    before = batch.intensity_matrix(EMOTION_NAMES).copy()
    repository.get(2).emotional.intensities["hopeful"] = 0.999
    assert np.array_equal(batch.intensity_matrix(EMOTION_NAMES), before)
    with pytest.raises(ValueError):
        batch.emotional.values[0, 0] = 1.0


def test_multipliers_over_an_object_batch_equal_the_model_list():
    repository = populate(SumRepository())
    ids = repository.user_ids()
    rng = np.random.default_rng(5)
    presence = rng.random((12, len(PROFILE.item_attributes())))
    presence[presence < 0.4] = 0.0
    engine = AdviceEngine()
    got = engine.multiplier_rows(repository.batch(ids), presence, PROFILE)
    want = engine.multiplier_rows(
        [repository.get(uid) for uid in ids], presence, PROFILE
    )
    assert np.array_equal(got, want)
    assert not np.all(got == 1.0)


def test_object_rows_for_names_every_unknown_and_creates_on_request():
    repository = populate(SumRepository(), n_users=3)
    with pytest.raises(UnknownUserError) as excinfo:
        repository.rows_for([1, 901, 2, 902])
    assert excinfo.value.user_ids == (901, 902)
    with pytest.raises(UnknownUserError) as excinfo:
        repository.batch([903, 0, 904])
    assert excinfo.value.user_ids == (903, 904)
    assert 901 not in repository
    assert repository.rows_for([1, 901], create=True).tolist() == [1, 901]
    assert 901 in repository
    assert repository.batch([905], create=True).user_ids == [905]
    assert 905 in repository


def test_object_store_is_live_and_unversioned():
    repository = SumRepository()
    assert not repository.readonly
    assert repository.version(1) is None
    assert repository.global_version is None
    assert repository.snapshot_generation is None


def probes(root):
    """``(file, line, name)`` of every ``getattr``/``hasattr`` on a
    resolver member name or ``readonly`` under ``root``."""
    members = {
        name for name in vars(SumResolver) if not name.startswith("_")
    } | {"readonly"}
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("getattr", "hasattr")
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
                and node.args[1].value in members
            ):
                found.append((path.name, node.lineno, node.args[1].value))
    return found


def test_no_resolver_probe_in_src():
    assert {"batch", "rows_for", "version", "snapshot_generation"} <= set(
        vars(SumResolver)
    )
    assert probes(SRC) == []

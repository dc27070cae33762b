"""The runtime witness against the static lock graph (TSan-lite).

Under ``REPRO_LOCK_WITNESS=1``, every ``make_lock`` in the stack
returns a :class:`ContractLock` that records acquisition order into the
process-wide witness.  A threaded cache+store workload must observe no
ordering that the static graph does not already contain — the witness
is the empirical check that the declared/extracted graph is complete.
"""

import threading
from pathlib import Path

import pytest

from repro.analysis.contracts import REGISTRY, WITNESS, ContractLock
from repro.analysis.core import Project
from repro.analysis.lock_order import build_lock_graph

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def witnessed(monkeypatch):
    monkeypatch.setenv("REPRO_LOCK_WITNESS", "1")
    WITNESS.reset()
    yield WITNESS
    WITNESS.reset()


@pytest.fixture(params=["columnar", "shm"])
def store(request, witnessed):
    """A plain columnar store, or one shard on shared-memory pages that
    start too small for the workload: its commits grow them, taking the
    arena lock under the store lock."""
    # Imports inside the fixture: lock wrapping happens at *construction*,
    # and construction must happen with the env gate already set.
    if request.param == "columnar":
        from repro.core.sum_store import ColumnarSumStore

        yield ColumnarSumStore()
        return
    from repro.core.shm_store import MultiProcSumStore

    shm_store = MultiProcSumStore(n_shards=1, initial_capacity=2)
    try:
        yield shm_store
    finally:
        shm_store.close()


def test_threaded_cache_workload_stays_inside_the_static_graph(witnessed, store):
    from repro.core.reward import ReinforcementPolicy
    from repro.core.updates import RewardOp
    from repro.streaming.cache import SumCache

    for uid in range(8):
        store.get_or_create(uid)
    shards = getattr(store, "shards", (store,))
    assert all(isinstance(shard._lock, ContractLock) for shard in shards)

    cache = SumCache(store)
    policy = ReinforcementPolicy()
    errors: list[BaseException] = []

    def writer(seed: int) -> None:
        try:
            for i in range(25):
                uids = [(seed + i) % 8, (seed + i + 3) % 8]
                batch = [(u, (RewardOp(("shy",), 0.05),)) for u in uids]
                cache.apply_batch_and_publish(batch, policy)
                cache.mark_batch()
        except BaseException as exc:  # surfaced after join
            errors.append(exc)

    def reader() -> None:
        try:
            for i in range(60):
                cache.get(i % 8)
                cache.versions_snapshot()
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(s,)) for s in range(3)]
    threads += [threading.Thread(target=reader) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []

    # The workload must actually have exercised witnessed locks …
    assert witnessed.acquisitions > 0
    # … and observed only orderings the static graph already contains.
    graph = build_lock_graph(Project.load([REPO_ROOT / "src" / "repro"]))
    assert witnessed.check(graph.allowed_edges(), REGISTRY) == []


def test_witness_catches_an_undeclared_inversion(witnessed):
    a = ContractLock("Demo.a")
    b = ContractLock("Demo.b")
    with a:
        with b:
            pass
    with b:
        with a:
            pass
    problems = witnessed.check({("Demo.a", "Demo.b")}, REGISTRY)
    assert len(problems) == 1
    assert "Demo.b -> Demo.a" in problems[0]

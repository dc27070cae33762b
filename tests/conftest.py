"""Shared fixtures: the SUM-backend test matrix + shm leak gate.

Tests that request the ``sum_backend`` / ``sum_backend_cls`` fixtures
are parametrized over every SUM collection class, so one plain run of
the suite — which is what CI does — covers the whole matrix.

The ``multiproc`` backend allocates named shared-memory segments;
``_shm_leak_gate`` asserts every test session releases all of them (the
module ledger must be empty and ``/dev/shm`` must carry no new ``psm_``
entries), so a forgotten ``close()`` fails the suite instead of filling
the host.  Under ``REPRO_LOCK_WITNESS=1``, ``_lock_witness_gate`` also
fails the session if a lock ordering the tests took is missing from the
static lock graph.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core.sharded_store import ShardedSumStore
from repro.core.shm_store import MultiProcSumStore
from repro.core.sum_model import SumRepository
from repro.core.sum_store import ColumnarSumStore

SUM_BACKENDS = {
    "object": SumRepository,
    "columnar": ColumnarSumStore,
    # default construction = 4 hash partitions behind the router
    "sharded": ShardedSumStore,
    # sharded on shared-memory pages; constructing one spawns no
    # processes — the full in-process surface must hold regardless
    "multiproc": MultiProcSumStore,
}


def pytest_generate_tests(metafunc):
    if "sum_backend" in metafunc.fixturenames:
        metafunc.parametrize("sum_backend", list(SUM_BACKENDS))


@pytest.fixture
def sum_backend_cls(sum_backend):
    """The SUM collection class for the current parametrization."""
    return SUM_BACKENDS[sum_backend]


def _shm_names() -> set[str]:
    shm = Path("/dev/shm")
    if not shm.is_dir():  # pragma: no cover - non-Linux dev box
        return set()
    return {
        entry.name for entry in shm.iterdir() if entry.name.startswith("psm_")
    }


@pytest.fixture(autouse=True, scope="session")
def _shm_leak_gate():
    """Fail the session if shared-memory segments outlive their tests.

    Two independent gates: the module's own live-segment ledger (every
    arena segment this process still holds) and the kernel's view
    of ``/dev/shm`` (catches segments leaked by worker processes too).
    The atexit sweep in :mod:`repro.core.shm_store` is a *crash* safety
    net, not an excuse — tests must close their stores.
    """
    import gc

    from repro.core.shm_store import live_segment_names

    before = _shm_names()
    yield
    # stores the matrix built and dropped release through their finalizer
    gc.collect()
    leaked = live_segment_names()
    assert not leaked, f"shared-memory segments left open: {leaked}"
    lingering = _shm_names() - before
    assert not lingering, (
        f"/dev/shm entries leaked by the session: {sorted(lingering)}"
    )


@pytest.fixture(autouse=True, scope="session")
def _lock_witness_gate():
    """Under ``REPRO_LOCK_WITNESS=1``: fail the session if the witness
    recorded a lock ordering outside the static graph the analyzer
    builds from ``src/repro`` (without the switch: nothing)."""
    from repro.analysis.contracts import REGISTRY, WITNESS, witness_enabled

    if not witness_enabled():
        yield
        return
    WITNESS.reset()
    yield
    from repro.analysis.core import Project
    from repro.analysis.lock_order import build_lock_graph

    root = Path(__file__).resolve().parents[1] / "src" / "repro"
    graph = build_lock_graph(Project.load([root]))
    assert WITNESS.acquisitions > 0, "the witness saw no lock taken"
    assert WITNESS.check(graph.allowed_edges(), REGISTRY) == []

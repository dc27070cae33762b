"""Shared fixtures: the SUM-backend test matrix + shm leak gate.

Tests that request the ``sum_backend`` / ``sum_backend_cls`` fixtures
are parametrized over every SUM collection class, so one plain run of
the suite — which is what CI does — covers the whole matrix.

The ``multiproc`` backend allocates named shared-memory segments;
``_shm_leak_gate`` asserts every test session releases all of them (the
module ledger must be empty and ``/dev/shm`` must carry no new ``psm_``
entries), so a forgotten ``close()`` fails the suite instead of filling
the host.
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

"""The mutation table, executable: one case per row that a check can re-run.

Each row of the README's mutation table is a one-edit mutation of a real
``src/repro`` module.  Two kinds of row are re-applied here to the
current source, so the table cannot silently go stale:

* every row a kept rule fires on.  The module is copied into
  ``tmp_path`` under its ``repro/...`` path (the HY allow-list matches on
  path suffix), analyzed as is — it must be clean — and again with the
  mutation applied, which must report the rule.  Rows 1, 3, 12 and 21
  are the lone catches that keep LD001, LD002, SQ001 and HY003;
* every row whose verdict is that the runtime (or a cheap property a
  tier-1 test asserts) catches the mutation.  The copy is imported as
  a module of its own and driven: the unmutated copy must run clean and
  the mutant must raise the row's error.

A case fails if the mutation stops applying (the real code moved:
re-make the row), if a kept rule's checker stops firing, or if a
runtime catch that justified deleting a rule goes away.
"""

import importlib.util
import re
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.cli import run_checks
from repro.analysis.contracts import ContractError
from repro.analysis.core import Project
from repro.core.sharded_store import ShardedSumStore
from repro.core.sum_model import SumRepository

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

_INVALIDATE = """        versions: dict[int, int] = {}
        for user_id in ids:
            with self._lock_for(user_id):
                self._commit_many((user_id,))
                versions[user_id] = self._versions[user_id]"""
_INVALIDATE_UNDER = """        versions: dict[int, int] = {}
        with LOCK:
            for user_id in ids:
                with self._lock_for(user_id):
                    self._commit_many((user_id,))
                    versions[user_id] = self._versions[user_id]"""


#: row of the README table -> (module under src/repro, original, mutated)
MUTATIONS = {
    1: (
        "streaming/cache.py",
        """        with self._registry_lock:
            self._global_version += 1
            return self._global_version""",
        """        self._global_version += 1
        return self._global_version""",
    ),
    2: (
        "streaming/bus.py",
        """        with self._lock:
            self._in_flight -= len(deliveries)
            self.acked += len(deliveries)
            self._settled.notify_all()""",
        """        self._in_flight -= len(deliveries)
        self.acked += len(deliveries)
        self._settled.notify_all()""",
    ),
    3: (
        "streaming/writebehind.py",
        """        with self._lock:
            return self._flush_locked()""",
        """        return self._flush_locked()""",
    ),
    4: (
        "streaming/cache.py",
        """        "acquires every touched user's lock in sorted-id order via a "
        "loop + try/finally; loop-acquired locks are invisible to the "
        "with-scope analysis\"""",
        '        ""',
    ),
    5: (
        "streaming/cache.py",
        _INVALIDATE,
        _INVALIDATE_UNDER.replace("LOCK", "self.repository._lock"),
    ),
    6: (
        "streaming/cache.py",
        _INVALIDATE,
        _INVALIDATE_UNDER.replace("LOCK", "self.repository.writer_lock"),
    ),
    7: (
        "streaming/cache.py",
        _INVALIDATE + """
        if versions:
            with self._registry_lock:
                self._global_version += 1""",
        _INVALIDATE_UNDER.replace("LOCK", "self._registry_lock") + """
            if versions:
                self._global_version += 1""",
    ),
    9: (
        "core/sum_store.py",
        """            return self.layout_epoch.read(0, lambda: self.row_generations.read(
                row, self._row_payload, row, user_id
            ))""",
        "            return self._row_payload(row, user_id)",
    ),
    10: (
        "core/sum_store.py",
        "            families, starved = self.layout_epoch.read(0, self._capture_rows, rows)",
        "            families, starved = self._capture_rows(rows)",
    ),
    11: (
        "core/sum_store.py",
        "                payload = self.row_generations.read(row, self._batch_payload, span)",
        "                payload = self._batch_payload(span)",
    ),
    12: (
        "retrieval/retriever.py",
        "            return self._epoch.read(0, self._read_pair)",
        "            return self._read_pair()",
    ),
    14: (
        "streaming/cache.py",
        """                snapshot = self.repository.freeze_view(user_id)
""",
        """                snapshot = self.repository.freeze_view(user_id)
                snapshot.user_id = user_id
""",
    ),
    16: (
        "retrieval/index.py",
        "        pages.setflags(write=False)",
        "        pages.setflags(write=True)",
    ),
    20: (
        "agents/messages.py",
        "payload: dict[str, Any] | None = None",
        "payload: dict[str, Any] = {}",
    ),
    21: (
        "agents/messages.py",
        "payload: dict[str, Any] | None = None",
        "payload: Mapping[str, Any] = {}",
    ),
}

#: the rows a kept rule fires on -> that rule
FIRES = {
    1: "LD001", 2: "LD001", 3: "LD002",
    9: "SQ001", 10: "SQ001", 11: "SQ001", 12: "SQ001",
    20: "HY003", 21: "HY003",
}


def mutate(row: int) -> tuple[str, str, str]:
    """``(module, current text, mutated text)`` of one row."""
    module, original, mutated = MUTATIONS[row]
    text = (SRC / module).read_text(encoding="utf-8")
    assert text.count(original) == 1, f"{module} no longer holds row {row}'s site"
    return module, text, text.replace(original, mutated)


def analyze(tmp_path: Path, module: str, text: str) -> set[str]:
    target = tmp_path / "repro" / module
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text, encoding="utf-8")
    findings, _graph = run_checks(Project.load([tmp_path]))
    return {f.rule for f in findings}


@pytest.mark.parametrize(
    "row", [pytest.param(row, id=f"row{row:02d}-{rule}") for row, rule in FIRES.items()]
)
def test_the_rule_fires_on_its_row_of_the_mutation_table(tmp_path, row):
    module, text, mutant = mutate(row)
    assert analyze(tmp_path / "clean", module, text) == set()
    assert FIRES[row] in analyze(tmp_path / "mutated", module, mutant)


def test_every_rule_seeded_in_the_fixture_corpus_has_a_row():
    fixtures = Path(__file__).resolve().parent / "fixtures"
    seeded = {
        rule
        for path in fixtures.glob("*_violations.py")
        for rule in re.findall(r"#\s*\[([A-Z]{2}\d{3})\]", path.read_text(encoding="utf-8"))
    }
    assert seeded == set(FIRES.values())


# -- rows the runtime catches -------------------------------------------------


class SelfDeadlockProbe:
    """A non-reentrant lock that raises where a plain ``Lock`` would hang.

    The drives below are single-threaded, so a contended acquire can only
    be the holding thread coming back for it.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()

    def __enter__(self) -> None:
        if not self._lock.acquire(blocking=False):
            raise RuntimeError("self-deadlock: the holder re-entered the lock")

    def __exit__(self, *exc_info: object) -> None:
        self._lock.release()


def ack_a_batch(bus):
    queue = bus.PartitionQueue(0, capacity=4, max_attempts=1)
    queue.put("event", key=1)
    queue.ack_batch(queue.get_batch(4, timeout=0))
    assert queue.acked == 1


def invalidate_on(store_cls, probe_registry_lock=False):
    def drive(cache_module):
        store = store_cls()
        store.get_or_create(1)
        cache = cache_module.SumCache(store)
        if probe_registry_lock:
            cache._registry_lock = SelfDeadlockProbe()
        assert cache.invalidate([1]) == {1: 1}

    return drive


def get_a_snapshot(cache_module):
    store = SumRepository()
    store.get_or_create(1)
    assert cache_module.SumCache(store).get(1).user_id == 1


def build_an_index(index_module):
    vectors = np.random.default_rng(0).normal(size=(40, 4))
    index = index_module.ClusteredANNIndex.build(list(range(40)), vectors, seed=0)
    # the property test_ann_index.py's layout test asserts
    assert not index.pages.flags.writeable, "the index pages are writeable"


#: row -> (drive of the imported copy, error the mutant raises, message match)
CAUGHT_AT_RUNTIME = {
    2: (ack_a_batch, RuntimeError, "un-acquired lock"),
    4: (lambda cache_module: None, ContractError, "non-empty justification"),
    5: (invalidate_on(lambda: ShardedSumStore(n_shards=2)), AttributeError, "no attribute '_lock'"),
    6: (invalidate_on(SumRepository), AttributeError, "writer_lock"),
    7: (invalidate_on(SumRepository, probe_registry_lock=True), RuntimeError, "self-deadlock"),
    14: (get_a_snapshot, TypeError, "snapshot is read-only"),
    16: (build_an_index, AssertionError, "writeable"),
}


def load(tmp_path: Path, monkeypatch, module: str, text: str):
    """Import ``text`` as a module of its own (``repro`` imports absolutely)."""
    path = tmp_path / "repro" / module
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    name = f"mutation_table_{tmp_path.name}_{path.stem}"
    spec = importlib.util.spec_from_file_location(name, path)
    loaded = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, loaded)  # dataclasses look it up
    spec.loader.exec_module(loaded)
    return loaded


@pytest.mark.parametrize("row", sorted(CAUGHT_AT_RUNTIME), ids="row{:02d}".format)
def test_the_runtime_catches_its_row_of_the_mutation_table(tmp_path, monkeypatch, row):
    module, text, mutant = mutate(row)
    drive, error, match = CAUGHT_AT_RUNTIME[row]
    drive(load(tmp_path / "clean", monkeypatch, module, text))
    with pytest.raises(error, match=match):
        drive(load(tmp_path / "mutated", monkeypatch, module, mutant))

"""The gate itself: the repo's own tree must analyze clean.

This is the test CI leans on — ``src/repro`` has zero findings, and
the static lock graph the runtime witness checks against holds the
stack's load-bearing orderings.
"""

from functools import cache
from pathlib import Path

from repro.analysis.cli import main, run_checks
from repro.analysis.core import Project

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_src_repro_analyzes_clean(monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    assert main(["src/repro"]) == 0
    assert "0 findings" in capsys.readouterr().out


@cache
def checked_tree():
    """``(findings, graph dump)`` of ``src/repro``, analyzed once."""
    return run_checks(Project.load([REPO_ROOT / "src" / "repro"]))


def test_lock_graph_holds_the_load_bearing_orderings():
    _, graph_dump = checked_tree()
    edges = {(e["outer"], e["inner"]) for e in graph_dump["edges"]}
    assert ("SumCache._lock_for()", "ColumnarSumStore._lock") in edges
    assert ("SumCache._lock_for()", "SumRepository._lock") in edges
    assert ("WriteBehindWriter._lock", "EventLog._write_lock") in edges
    assert ("ColumnarSumStore._lock", "ShmArena._lock") in edges


def test_all_three_seqlocks_are_declared_for_the_sq_rules():
    _, graph_dump = checked_tree()
    declared = {s["node"]: s for s in graph_dump["seqlocks"]}
    assert set(declared) == {
        "ColumnarSumStore.row_generations",
        "ColumnarSumStore.layout_epoch",
        "CandidateRetriever._epoch",
    }
    assert all(spec["protects"] for spec in declared.values())


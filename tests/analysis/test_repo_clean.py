"""The gate itself: the repo's own tree must analyze clean.

This is the test CI leans on — ``src/repro`` has zero unwaived
findings (no baseline file is committed), and the static lock-order
graph is acyclic.  Anyone adding an unguarded write or a conflicting
lock nesting turns this red locally before CI does.
"""

from functools import cache
from pathlib import Path

from repro.analysis.cli import main, run_checks
from repro.analysis.core import Project

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_src_repro_is_clean_under_the_committed_baseline(monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    assert main(["src/repro"]) == 0
    assert "0 unwaived findings" in capsys.readouterr().out


@cache
def checked_tree():
    """``(findings, graph dump)`` of ``src/repro``, analyzed once."""
    return run_checks(Project.load([REPO_ROOT / "src" / "repro"]))


def test_lock_graph_is_acyclic_and_nonempty():
    findings, graph_dump = checked_tree()
    assert not any(f.rule == "LO001" for f in findings)
    # The stack's load-bearing orderings must be in the graph.
    edges = {(e["outer"], e["inner"]) for e in graph_dump["edges"]}
    assert ("SumCache._lock_for()", "ColumnarSumStore._lock") in edges
    assert ("SumCache._lock_for()", "SumRepository._lock") in edges
    assert ("WriteBehindWriter._lock", "EventLog._write_lock") in edges


def test_all_three_seqlocks_are_declared_for_the_sq_rules():
    _, graph_dump = checked_tree()
    declared = {s["node"]: s for s in graph_dump["seqlocks"]}
    assert set(declared) == {
        "ColumnarSumStore.row_generations",
        "ColumnarSumStore.layout_epoch",
        "CandidateRetriever._epoch",
    }
    assert all(spec["protects"] for spec in declared.values())


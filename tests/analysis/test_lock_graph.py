"""The static lock graph the runtime witness checks against.

``fixtures/lock_graph.py`` holds one edge of each source
:func:`repro.analysis.lock_order.build_lock_graph` reads, and no
finding; each edge must land in the graph at the line that made it.
"""

from functools import cache
from pathlib import Path

from repro.analysis.cli import run_checks
from repro.analysis.contracts import LockWitness
from repro.analysis.core import Project
from repro.analysis.lock_order import build_lock_graph

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "lock_graph.py"


@cache
def graph():
    project = Project()
    project.add_file(FIXTURE, display="lock_graph.py")
    project.index()
    assert run_checks(project)[0] == []
    return build_lock_graph(project).edges


def line_of(snippet: str) -> int:
    lines = FIXTURE.read_text(encoding="utf-8").splitlines()
    (line,) = [n for n, text in enumerate(lines, 1) if snippet in text]
    return line


def test_a_nested_with_makes_an_edge_at_the_inner_acquisition():
    assert graph()[("Ledger._lock", "Ledger._audit_lock")] == (
        "lock_graph.py", line_of("with self._audit_lock:"),
    )


def test_a_lock_taken_down_a_call_chain_makes_an_edge_at_the_outer_call():
    # settle -> _flush -> _record -> Journal.note, propagated to a fixed point
    assert graph()[("Ledger._lock", "Journal._lock")] == (
        "lock_graph.py", line_of("self._flush()"),
    )


def test_declare_order_adds_the_edge_an_untyped_call_hides():
    assert graph()[("Ledger._lock", "Archive._lock")] == (
        "lock_graph.py", line_of('declare_order("Ledger._lock"'),
    )


def test_an_alias_or_a_reentry_of_the_held_lock_adds_no_edge():
    # wait_settled nests Ledger._lock inside its alias Ledger._settled
    assert set(graph()) == {
        ("Ledger._lock", "Ledger._audit_lock"),
        ("Ledger._lock", "Journal._lock"),
        ("Ledger._lock", "Archive._lock"),
    }


def test_the_witness_accepts_the_graph_and_flags_its_inversion():
    witness = LockWitness()
    for outer, inner in (("Ledger._lock", "Journal._lock"), ("Journal._lock", "Ledger._lock")):
        witness.on_acquire(outer, 1)
        witness.on_acquire(inner, 2)
        witness.on_release(inner, 2)
        witness.on_release(outer, 1)
    (problem,) = witness.check(graph())
    assert "Journal._lock -> Ledger._lock" in problem

"""The analyzer against its seeded-violation corpus.

Every fixture in ``fixtures/`` marks each offending line with
``# [RULE]``; these tests assert the finding set equals the marker set
*exactly* — every seeded violation detected at its line, and zero
false positives (the clean twins use the same statement shapes legally).
"""

import re
from pathlib import Path

import pytest

from repro.analysis.cli import run_checks
from repro.analysis.core import Project

FIXTURES = Path(__file__).resolve().parent / "fixtures"
MARKER = re.compile(r"#\s*\[([A-Z]{2}\d{3})\]")

VIOLATION_FIXTURES = ["ld_violations.py", "sq_violations.py", "hy_violations.py"]
CLEAN_FIXTURES = ["ld_clean.py", "sq_clean.py", "hy_clean.py"]


def analyze(name: str):
    project = Project()
    project.add_file(FIXTURES / name, display=name)
    project.index()
    findings, _graph = run_checks(project)
    return project, findings


def markers(name: str) -> set[tuple[str, int]]:
    expected: set[tuple[str, int]] = set()
    text = (FIXTURES / name).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), 1):
        for rule in MARKER.findall(line):
            expected.add((rule, lineno))
    return expected


@pytest.mark.parametrize("name", VIOLATION_FIXTURES)
def test_seeded_violations_detected_at_exact_lines(name):
    _, findings = analyze(name)
    assert {(f.rule, f.line) for f in findings} == markers(name)
    assert all(f.path == name for f in findings)


@pytest.mark.parametrize("name", CLEAN_FIXTURES)
def test_clean_twins_have_zero_findings(name):
    _, findings = analyze(name)
    assert findings == []


def test_ld_findings_name_the_guarded_state_and_lock():
    _, findings = analyze("ld_violations.py")
    by_rule = {}
    for f in findings:
        by_rule.setdefault(f.rule, []).append(f)
    assert any(
        "LeakyCounter._counts" in f.message and "LeakyCounter._lock" in f.message
        for f in by_rule["LD001"]
    )
    (ld002,) = by_rule["LD002"]
    assert "_rebalance" in ld002.message
    assert ld002.symbol == "LeakyCounter.rebalance"


def test_sq_findings_name_the_seqlock_and_protocol():
    _, findings = analyze("sq_violations.py")
    assert all("Seqlock.read" in f.message for f in findings)
    assert {f.symbol for f in findings} == {
        "TornCapture.capture", "TornCapture.capture_many",
        "TornCapture.capture_after_read",
        "TornCapture.capture_under_wrong_lock",
        "TornCapture.capture_block_bare",
        "ControlBlock.read_layout",
        "PagedTable.read_row_outside_its_generation",
    }
    # a seqlock declared without a writer lock offers no lock shape, and
    # the message says so instead of recommending one
    (lockless,) = [
        f for f in findings if "ControlBlock.layout_seq" in f.message
    ]
    assert "no writer lock is declared" in lockless.message
    assert all(
        "MirrorTable.row_generations" in f.message
        and "declared writer lock" in f.message
        for f in findings if f.symbol.startswith("TornCapture.")
    )


def test_a_read_discharges_only_the_seqlock_its_receiver_names():
    _, findings = analyze("sq_violations.py")
    (paged,) = [f for f in findings if f.symbol.startswith("PagedTable.")]
    # the layout read around the copy leaves only the row generation
    assert "by PagedTable.row_generations;" in paged.message


def test_sq_declarations_reach_the_static_registry():
    project, _ = analyze("sq_violations.py")
    decl = project.registry.seqlocks["MirrorTable.row_generations"]
    assert decl["protects"] == (
        "refresh_row", "copy_row", "refresh_rows", "copy_rows",
    )
    assert decl["writer_lock"] == "MirrorTable._lock"
    lockless = project.registry.seqlocks["ControlBlock.layout_seq"]
    assert lockless["protects"] == ("_read_published",)
    assert lockless["writer_lock"] is None

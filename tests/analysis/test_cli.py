"""``python -m repro.analysis`` exit codes and report artifact."""

import json
from pathlib import Path

from repro.analysis.cli import main

FIXTURES = Path(__file__).resolve().parent / "fixtures"
SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
#: the write-behind writer flushes into the event log under its own lock:
#: one call-propagated edge of the lock graph
WRITE_BEHIND = (SRC / "streaming" / "writebehind.py", SRC / "lifelog" / "store.py")


def test_violation_corpus_fails(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main([str(FIXTURES / "ld_violations.py")]) == 1
    out = capsys.readouterr().out
    assert "FAIL:" in out and "LD001" in out


def test_whole_fixture_directory_fails(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main([str(FIXTURES)]) == 1


def test_clean_fixture_passes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main([str(FIXTURES / "ld_clean.py")]) == 0
    assert "OK: 1 modules, 0 findings" in capsys.readouterr().out


def test_missing_path_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["no/such/path.py"]) == 2
    assert "no such path" in capsys.readouterr().err


def test_report_artifact_carries_findings_and_graph(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    report = tmp_path / "report.json"
    code = main(
        [str(FIXTURES / "ld_violations.py"), *map(str, WRITE_BEHIND), "--report", str(report)]
    )
    assert code == 1
    payload = json.loads(report.read_text())
    assert payload["summary"]["total"] == len(payload["findings"]) == 4
    assert {f["rule"] for f in payload["findings"]} == {"LD001", "LD002"}
    edges = {
        (e["outer"], e["inner"]) for e in payload["lock_graph"]["edges"]
    }
    assert edges == {("WriteBehindWriter._lock", "EventLog._write_lock")}


def test_graph_flag_prints_edges(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main([*map(str, WRITE_BEHIND), "--graph"]) == 0
    assert "WriteBehindWriter._lock -> EventLog._write_lock" in capsys.readouterr().out

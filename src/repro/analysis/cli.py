"""``python -m repro.analysis`` — run every concurrency-contract check.

Exit codes: 0 clean, 1 findings, 2 invalid invocation.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Sequence

from repro.analysis.core import Finding, Project
from repro.analysis.hygiene import check_hygiene
from repro.analysis.lock_discipline import check_lock_discipline
from repro.analysis.lock_order import build_lock_graph
from repro.analysis.seqlock import check_seqlock


def run_checks(project: Project) -> tuple[list[Finding], dict]:
    """All findings plus the lock graph (for the report/witness)."""
    graph = build_lock_graph(project)
    findings = [
        *check_lock_discipline(project),
        *check_seqlock(project),
        *check_hygiene(project),
    ]
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    registry = project.registry
    graph_dump = {
        "edges": [
            {"outer": u, "inner": v, "source": f"{src[0]}:{src[1]}"}
            for (u, v), src in sorted(graph.edges.items())
        ],
        # the lock-free protocol declared alongside the lock graph: the
        # seqlock generation counters the SQ rules key off
        "seqlocks": [
            {"node": node, **spec}
            for node, spec in sorted(registry.seqlocks.items())
        ],
    }
    return findings, graph_dump


def _report_payload(findings: list[Finding], graph_dump: dict) -> dict:
    return {
        "findings": [asdict(f) for f in findings],
        "lock_graph": graph_dump,
        "summary": {"total": len(findings)},
    }


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="concurrency-contract static analysis",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--report", default=None, metavar="PATH",
        help="write a JSON report (findings + lock graph)",
    )
    parser.add_argument(
        "--graph", action="store_true",
        help="print the static lock-order graph edges",
    )
    args = parser.parse_args(argv)

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(f"error: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2

    project = Project.load(args.paths)
    findings, graph_dump = run_checks(project)

    if args.graph:
        for entry in graph_dump["edges"]:
            print(f"{entry['outer']} -> {entry['inner']}  [{entry['source']}]")

    for finding in findings:
        print(finding.render())

    if args.report:
        payload = _report_payload(findings, graph_dump)
        Path(args.report).write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8"
        )

    if findings:
        print(f"FAIL: {len(findings)} finding(s)")
        return 1
    print(f"OK: {len(project.modules)} modules, 0 findings")
    return 0

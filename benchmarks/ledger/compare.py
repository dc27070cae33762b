"""Compare two sets of ledger results: the choosing-metrics §8 rule.

    python -m benchmarks.ledger.compare PARENT_DIR CHANGE_DIR

Each directory holds the records ``run.py --out`` wrote (one per run).
For every workload × end-to-end metric it prints both sides' medians and
quartiles, wins-of-pairs (runs paired in seed order, ties for neither)
and a verdict against the metric's bound in ``BENCHMARK.json``:

``gain``        the change wins at least nine tenths of the pairs *and*
                the medians differ by more than the parent's own spread
                (the distance between its quartiles);
``regressed``   the change's median is worse than the parent's by more
                than the bound;
``unresolved``  the parent's spread is wider than the bound, so "no
                change" cannot be told from a regression — unless every
                run of the change reads better than every parent run;
``same``        otherwise: within the bound.

Exit code 1 if any pairing regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[2]
GAIN_WIN_SHARE = 0.9


def load_runs(directory: Path) -> dict[str, list[dict[str, Any]]]:
    """``workload -> untraced records`` in seed order."""
    runs: dict[str, list[dict[str, Any]]] = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        if record.get("trace") or "workload" not in record:
            continue
        runs.setdefault(record["workload"], []).append(record)
    for records in runs.values():
        records.sort(key=lambda r: r["seed"])
    return runs


def load_bounds(path: Path) -> dict[str, dict[str, Any]]:
    spec = json.loads(path.read_text(encoding="utf-8"))
    return {metric["name"]: metric for metric in spec["end_to_end"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def judge(
    parent: list[float], change: list[float], better: str, bound: float
) -> dict[str, Any]:
    """One workload × metric pairing under the §8 rule."""
    sign = 1.0 if better == "lower" else -1.0  # positive delta = worse
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    spread = p_q3 - p_q1
    worse_by = sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    all_better = (
        max(change) < min(parent) if better == "lower"
        else min(change) > max(parent)
    )
    if (
        pairs and wins >= GAIN_WIN_SHARE * len(pairs)
        and abs(c_med - p_med) > spread and worse_by < 0
    ):
        verdict = "gain"
    elif worse_by > bound:
        verdict = "regressed"
    elif p_med and spread / abs(p_med) > bound and not all_better:
        verdict = "unresolved"
    else:
        verdict = "same"
    return {
        "parent": (p_q1, p_med, p_q3), "change": (c_q1, c_med, c_q3),
        "wins": wins, "pairs": len(pairs),
        "worse_by": worse_by, "spread": spread / abs(p_med) if p_med else 0.0,
        "bound": bound, "verdict": verdict,
    }


def compare(
    parent_dir: Path, change_dir: Path, bounds: dict[str, dict[str, Any]]
) -> list[tuple[str, str, dict[str, Any]]]:
    parent_runs, change_runs = load_runs(parent_dir), load_runs(change_dir)
    rows = []
    for workload in sorted(set(parent_runs) & set(change_runs)):
        for name, metric in bounds.items():
            sides = [
                [r["metrics"][name]["value"] for r in runs[workload]
                 if name in r["metrics"]]
                for runs in (parent_runs, change_runs)
            ]
            if sides[0] and sides[1]:
                rows.append((workload, name, judge(
                    sides[0], sides[1], metric["better"], metric["bound"]
                )))
    return rows


def describe(label: str, directory: Path) -> str:
    """One line per side: run counts and the host the runs saw."""
    runs = load_runs(directory)
    records = [record for group in runs.values() for record in group]
    if not records:
        return f"{label}: {directory} (no runs)"
    host = records[0]["host"]
    loads = [record["host"]["loadavg_start"][0] for record in records]
    slow = [record["host"].get("slow_share", 0.0) for record in records]
    counts = ", ".join(f"{name} x{len(group)}" for name, group in runs.items())
    return (
        f"{label}: {directory} — {counts}; nproc {host['nproc']}, python "
        f"{host['python']}, numpy {host['numpy']}, BLAS threads "
        f"{host['blas_threads']}, loadavg at start {min(loads):.2f}–"
        f"{max(loads):.2f}, slow kernel readings {min(slow):.0%}–{max(slow):.0%} "
        "of a run"
    )


def render(rows: list[tuple[str, str, dict[str, Any]]]) -> str:
    lines = [
        f"{'workload':<16} {'metric':<20} {'parent q1/med/q3':<34} "
        f"{'change q1/med/q3':<34} {'wins':>7} {'worse by':>9} "
        f"{'spread':>7} {'bound':>6}  verdict"
    ]
    for workload, name, row in rows:
        parent = "/".join(f"{v:.5g}" for v in row["parent"])
        change = "/".join(f"{v:.5g}" for v in row["change"])
        lines.append(
            f"{workload:<16} {name:<20} {parent:<34} {change:<34} "
            f"{row['wins']:>3}/{row['pairs']:<3} {row['worse_by']:>+9.2%} "
            f"{row['spread']:>7.2%} {row['bound']:>6.0%}  {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument(
        "--benchmark", type=Path, default=ROOT / "BENCHMARK.json",
        help="where the per-metric bounds come from",
    )
    args = parser.parse_args(argv)
    rows = compare(args.parent, args.change, load_bounds(args.benchmark))
    if not rows:
        print("no workload has runs on both sides", file=sys.stderr)
        return 2
    print(describe("parent", args.parent))
    print(describe("change", args.change))
    print(render(rows))
    return 1 if any(row["verdict"] == "regressed" for __, __, row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())

"""Render telemetry snapshots: ``python -m repro.obs``.

Reads JSONL snapshot files (the :class:`~repro.obs.export.
SnapshotWriter` / :func:`~repro.obs.export.write_jsonl` format) and renders one record
— or, with ``--merge``, the fold of *every* record across *every* file
(counters/histograms add, gauges last-wins) — as Prometheus text
exposition or pretty JSON::

    python -m repro.obs snapshots.jsonl
    python -m repro.obs snapshots.jsonl --line 0 --format json
    python -m repro.obs snapshots.jsonl --quantile streaming.update_visible_seconds=0.99
    python -m repro.obs worker-snapshots.jsonl --merge

The ``--merge`` path is how per-shard-worker exports from the
multi-process plane (one JSONL line per worker) become one fleet-wide
view.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.obs.export import (
    histogram_quantile,
    merge_metrics,
    read_jsonl,
    to_prometheus,
)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Render JSONL metrics snapshots.",
    )
    parser.add_argument(
        "paths", nargs="+", metavar="path", help="JSONL snapshot file(s)"
    )
    parser.add_argument(
        "--line", type=int, default=-1,
        help="record index to render (default: last line; single file only)",
    )
    parser.add_argument(
        "--merge", action="store_true",
        help="fold every record of every file into one fleet-wide view "
             "(counters/histograms add, gauges last-wins)",
    )
    parser.add_argument(
        "--format", choices=("prometheus", "json"), default="prometheus",
        help="output format (default: prometheus text exposition)",
    )
    parser.add_argument(
        "--quantile", action="append", default=[], metavar="HIST=Q",
        help="also print the Q-quantile of histogram HIST "
             "(repeatable, e.g. serving.request_seconds=0.99)",
    )
    args = parser.parse_args(argv)
    if len(args.paths) > 1 and not args.merge:
        print("multiple files require --merge", file=sys.stderr)
        return 2

    all_records = []
    for path in args.paths:
        try:
            records = read_jsonl(path)
        except OSError as error:
            print(f"cannot read {path}: {error}", file=sys.stderr)
            return 2
        if not records:
            print(f"{path} holds no snapshot records", file=sys.stderr)
            return 2
        all_records.extend(records)

    if args.merge:
        try:
            metrics = merge_metrics(
                record.get("metrics", {}) for record in all_records
            )
        except ValueError as error:
            print(f"cannot merge: {error}", file=sys.stderr)
            return 2
        record = {"merged_from": len(all_records), "metrics": metrics}
    else:
        try:
            record = all_records[args.line]
        except IndexError:
            print(
                f"--line {args.line} out of range "
                f"({len(all_records)} records)",
                file=sys.stderr,
            )
            return 2
        metrics = record.get("metrics", {})

    if args.format == "json":
        print(json.dumps(record, indent=2, sort_keys=True))
    else:
        sys.stdout.write(to_prometheus(metrics))
    for spec in args.quantile:
        name, __, quantile = spec.partition("=")
        try:
            value = histogram_quantile(metrics, name, float(quantile or "0.5"))
        except KeyError as error:
            print(str(error), file=sys.stderr)
            return 2
        print(f"quantile {name} q={float(quantile or '0.5'):g}: {value:.6g}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main
    raise SystemExit(main())

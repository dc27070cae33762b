"""Substrate throughput: the db engine and the LifeLog pipeline.

Not a paper artifact, but the paper claims "high performance pre-processing
proactively LifeLogs of millions of customers" — this bench keeps the
substrate honest with concrete scan/index/ingest/sessionize numbers.
"""

import numpy as np
import pytest

from benchmarks.conftest import record_artifact
from repro.db.index import HashIndex, SortedIndex
from repro.db.query import Query
from repro.db.schema import Column, ColumnType, Schema
from repro.db.table import Table
from repro.lifelog.events import ActionCategory, Event
from repro.lifelog.preprocess import LifeLogPreprocessor
from repro.lifelog.sessionizer import sessionize
from repro.lifelog.store import EventLog
from repro.lifelog.weblog import event_to_line, parse_line, record_to_event

N_ROWS = 100_000


@pytest.fixture(scope="module")
def big_table():
    rng = np.random.default_rng(0)
    schema = Schema(
        [
            Column("user", ColumnType.INT64),
            Column("ts", ColumnType.FLOAT64),
            Column("value", ColumnType.FLOAT64),
        ]
    )
    return Table.from_columns(
        schema,
        {
            "user": rng.integers(0, 5_000, N_ROWS),
            "ts": rng.uniform(0, 1e6, N_ROWS),
            "value": rng.normal(size=N_ROWS),
        },
        name="events",
    )


def test_db_filtered_scan(big_table, benchmark):
    count = benchmark(
        lambda: Query(big_table).where("value", ">", 0.0).count()
    )
    assert 0.45 * N_ROWS < count < 0.55 * N_ROWS


def test_db_hash_index_lookup(big_table, benchmark):
    index = HashIndex(big_table, "user")

    def probe():
        total = 0
        for user in range(0, 5_000, 50):
            total += index.lookup(user).size
        return total

    total = benchmark(probe)
    assert total > 0


def test_db_sorted_index_range(big_table, benchmark):
    index = SortedIndex(big_table, "ts")
    hits = benchmark(lambda: index.range(1e5, 2e5).size)
    assert 0.05 * N_ROWS < hits < 0.15 * N_ROWS


def test_db_group_by(big_table, benchmark):
    result = benchmark(
        lambda: Query(big_table)
        .where("user", "<", 500)
        .group_by("user", {"value": "mean", "ts": "count"})
    )
    assert len(result) == 500


def test_lifelog_weblog_ingest(benchmark):
    events = [
        Event(1_142_000_000.0 + i, i % 700, "course_view",
              ActionCategory.NAVIGATION, payload={"target": str(i % 90)})
        for i in range(20_000)
    ]
    lines = [event_to_line(e) for e in events]

    def ingest():
        store = EventLog(segment_rows=8_000)
        for line in lines:
            event = record_to_event(parse_line(line))
            if event is not None:
                store.append(event)
        return len(store)

    count = benchmark.pedantic(ingest, rounds=1, iterations=1)
    assert count == 20_000
    record_artifact(
        "substrate_scale",
        f"db table: {N_ROWS} rows; weblog ingest: {count} lines parsed "
        "(see benchmark table for timings)",
    )


def test_lifelog_sessionize_throughput(benchmark):
    rng = np.random.default_rng(1)
    events = [
        Event(float(ts), int(uid), "course_view", ActionCategory.NAVIGATION)
        for uid, ts in zip(
            rng.integers(0, 1_000, 30_000), rng.uniform(0, 1e6, 30_000)
        )
    ]
    sessions = benchmark(lambda: sessionize(events))
    assert sum(len(s) for s in sessions) == 30_000


def test_lifelog_feature_extraction(benchmark):
    rng = np.random.default_rng(2)
    events = [
        Event(float(ts), int(uid), "course_view", ActionCategory.NAVIGATION)
        for uid, ts in zip(
            rng.integers(0, 500, 20_000), rng.uniform(0, 1e6, 20_000)
        )
    ]
    preprocessor = LifeLogPreprocessor()
    features = benchmark(lambda: preprocessor.extract_all(events))
    assert len(features) == 500

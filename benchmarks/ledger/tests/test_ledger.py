"""The ledger's own tests (``--scale smoke``: tiny worlds, 2 blocks)."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from benchmarks.ledger import compare, harness, oracle, probes, run, worlds
from benchmarks.ledger.harness import END_TO_END, Block, Tally

ROOT = Path(__file__).resolve().parents[3]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.mark.parametrize("workload", sorted(worlds.SPECS))
def test_every_workload_emits_every_end_to_end_metric(workload):
    record = run.measure(workload, seed=5, seconds=20, scale="smoke", pin=False)
    assert record["failures"] == []
    assert record["correct"] and record["failed"] == 0
    assert record["attempted"] >= 1
    assert list(record["metrics"]) == list(END_TO_END)
    for name, metric in record["metrics"].items():
        assert NAME.match(name)
        assert metric["unit"] == END_TO_END[name][0]
        assert UNIT.match(metric["unit"])
        assert metric["value"] > 0
    assert record["counters"]["oracle_max_abs_diff"] == 0.0
    assert record["counters"]["applied"] == record["counters"]["submitted"]


def test_traced_run_emits_every_per_layer_metric_and_a_span_file(tmp_path):
    record = probes.trace(
        "serve_retrieval", seed=5, seconds=20, scale="smoke", pin=False,
        out_dir=tmp_path,
    )
    assert record["failures"] == []
    assert list(record["metrics"]) == list(probes.PER_LAYER)
    for name, metric in record["metrics"].items():
        assert NAME.match(name) and UNIT.match(metric["unit"])
    assert record["metrics"]["retrieval.retriever.recall_at_10"]["value"] >= 0.95
    spans = [
        json.loads(line)
        for line in (tmp_path / "trace_serve_retrieval.jsonl").read_text().splitlines()
    ]
    keys = {"trace_id", "span_id", "parent_id", "name", "start_ns", "end_ns", "n"}
    assert spans and all(set(span) == keys for span in spans)
    by_id = {span["span_id"]: span for span in spans}
    phases = [s for s in spans if s["name"].startswith("phase.")]
    assert phases
    for phase in phases:  # phase spans parent layer spans, blocks parent phases
        assert by_id[phase["parent_id"]]["name"] == "block"
        assert any(s["parent_id"] == phase["span_id"] for s in spans)


def test_benchmark_json_names_equal_what_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert [w["name"] for w in spec["workloads"]] == list(worlds.SPECS)
    assert {
        m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]
    } == END_TO_END
    assert {
        m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]
    } == probes.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in spec["per_layer"])
    assert spec["run_seconds"] == worlds.BASE_SECONDS
    assert (ROOT / spec["command"][1]).is_file()
    for name in list(END_TO_END) + list(probes.PER_LAYER):
        assert NAME.match(name)


def test_oracle_flags_an_injected_dropped_event():
    spec = worlds.scaled(worlds.SPECS["ingest_threads"], "smoke", 20)
    inputs = worlds.make_inputs(spec, seed=5)
    world = worlds.build_world(spec, inputs)
    try:
        world.submit(inputs.segment, 0, len(inputs.segment))
        world.updater.drain()
        clean = Tally()
        oracle.finish_checks(world, clean, seed=5)
        assert clean.failed == 0
        # the harness believes 50 more events were delivered than were
        world.journal.append(("events", inputs.segment, 0, 50))
        dropped = Tally()
        counters = oracle.finish_checks(world, dropped, seed=5)
    finally:
        world.close()
    assert counters["submitted"] - counters["applied"] == 50
    assert counters["oracle_max_abs_diff"] > 0.0
    assert dropped.failed >= 51  # 50 unapplied + at least one wrong user


def _blocks(late_ms: list[float], rates: list[float]) -> list[Block]:
    return [
        Block(
            index=i, late_p95_ms=late, paced_drain_ms=0.1,
            metrics={
                name: (rate if END_TO_END[name][1] == "higher" else 1.0 / rate)
                for name in harness.PER_BLOCK
            },
            cpu_parts=(0.5 / rate, 0.25 / rate, 0.25 / rate),
        )
        for i, (late, rate) in enumerate(zip(late_ms, rates))
    ]


def test_a_late_block_is_excluded_not_averaged_in():
    # block 3 was disturbed: its generator ran 30 ms late, and it also
    # happens to carry the best-looking numbers of the run
    blocks = _blocks([0.6] * 3 + [30.0] + [0.7] * 6, [10.0] * 3 + [99.0] + [11.0] * 6)
    tally = Tally()
    estimates = harness.estimate(blocks, paced_seconds=0.8, needed=6, tally=tally)
    assert [b.valid for b in blocks] == [True] * 3 + [False] + [True] * 6
    assert tally.failed == 0
    assert estimates["events_per_s"] == 11.0
    assert estimates["cpu_s"] == pytest.approx(1.0 / 11.0)
    # every block a little late is the in-process plane's normal state
    busy = _blocks([6.0, 7.0, 8.0, 7.5], [1.0] * 4)
    harness.estimate(busy, paced_seconds=0.8, needed=4, tally=tally)
    assert all(b.valid for b in busy) and tally.failed == 0
    # a backlog still draining after paced invalidates too
    backlog = _blocks([0.5] * 2, [1.0] * 2)
    backlog[1].paced_drain_ms = 500.0
    harness.estimate(backlog, paced_seconds=0.8, needed=2, tally=tally)
    assert [b.valid for b in backlog] == [True, False]
    assert tally.failed == 1  # fewer valid blocks than the run needs


def test_quiet_block_picks_min_for_times_and_max_for_rates():
    assert harness.quiet([3.0, 1.0, 2.0], "lower") == 1.0
    assert harness.quiet([3.0, 1.0, 2.0], "higher") == 3.0
    blocks = _blocks([0.5] * 3, [2.0, 4.0, 3.0])
    estimates = harness.estimate(blocks, 0.8, needed=3, tally=Tally())
    for name, value in estimates.items():
        expected = 4.0 if END_TO_END[name][1] == "higher" else 0.25
        assert value == pytest.approx(expected)
    # within a block the quietest window counts, not the whole phase
    marks = [0.0, 1.0, 2.0, 2.1, 2.2, 2.3, 3.3]
    assert harness.best_rate(marks, 3) == pytest.approx(3 / 0.3)
    assert harness.quietest_median([9, 9, 9, 1, 2, 3, 9, 9, 9], 3, at_least=3) == 2.0
    assert harness.quietest_median([1, 9, 9, 9, 9], 4, at_least=3) == 9.0


def test_compare_applies_the_section_8_rule():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    faster = [v * 0.8 for v in parent]
    assert compare.judge(parent, faster, "lower", 0.10)["verdict"] == "gain"
    slower = [v * 1.2 for v in parent]
    assert compare.judge(parent, slower, "lower", 0.10)["verdict"] == "regressed"
    assert compare.judge(parent, slower, "higher", 0.10)["verdict"] == "gain"
    assert compare.judge(parent, parent[::-1], "lower", 0.10)["verdict"] == "same"
    noisy = [10.0, 14.0, 8.0, 13.0, 9.0, 15.0, 7.0, 12.0, 11.0, 6.0]
    row = compare.judge(noisy, noisy[::-1], "lower", 0.10)
    assert row["verdict"] == "unresolved" and row["spread"] > 0.10

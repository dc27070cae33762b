"""The metrics core: instruments, registry, snapshots, quantiles."""

import math
import threading

import pytest

from repro.analysis.contracts import contracts_of
from repro.obs.metrics import (
    LATENCY_BUCKETS_S,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    labelled,
    quantile_from_buckets,
    resolve_registry,
    split_labels,
)


class TestNames:
    def test_labelled_sorts_keys(self):
        assert labelled("bus.depth", topic="lifelog") == 'bus.depth{topic="lifelog"}'
        assert (
            labelled("x", b="2", a="1")
            == labelled("x", a="1", b="2")
            == 'x{a="1",b="2"}'
        )

    def test_labelled_without_labels_is_identity(self):
        assert labelled("plain") == "plain"

    def test_split_labels_inverts_labelled(self):
        name = labelled("bus.depth", topic="lifelog", partition="3")
        base, body = split_labels(name)
        assert base == "bus.depth"
        assert body == 'partition="3",topic="lifelog"'
        assert split_labels("plain") == ("plain", "")


class TestCounter:
    def test_inc_accumulates(self):
        c = Counter("c")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError, match="cannot decrease"):
            Counter("c").inc(-1)

    def test_threaded_increments_never_lose_updates(self):
        c = Counter("c")

        def hammer():
            for _ in range(10_000):
                c.inc()

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 80_000


class TestGauge:
    def test_set_and_snapshot(self):
        g = Gauge("g")
        g.set(4.25)
        assert g.snapshot().value == 4.25

    def test_callback_gauge_reads_source_at_snapshot(self):
        level = {"v": 1.0}
        g = Gauge("g", fn=lambda: level["v"])
        assert g.value == 1.0
        level["v"] = 9.0
        assert g.snapshot().value == 9.0

    def test_callback_gauge_rejects_set(self):
        with pytest.raises(TypeError, match="callback-backed"):
            Gauge("g", fn=lambda: 0.0).set(1.0)


class TestHistogram:
    def test_bucket_sums_equal_observation_count(self):
        h = Histogram("h", bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0, 100.0):
            h.observe(value)
        snap = h.snapshot()
        assert sum(snap.counts) == snap.count == 4
        assert snap.counts == (1, 1, 1, 1)  # one overflow observation
        assert snap.min == 0.5 and snap.max == 100.0
        assert snap.sum == pytest.approx(105.0)

    def test_bounds_must_strictly_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("h", bounds=(1.0, 1.0, 2.0))
        with pytest.raises(ValueError, match="at least one bound"):
            Histogram("h", bounds=())

    def test_empty_histogram_quantiles_are_nan(self):
        snap = Histogram("h").snapshot()
        assert snap.count == 0
        assert math.isnan(snap.quantile(0.99))
        assert math.isnan(snap.mean)

    def test_quantiles_track_a_uniform_stream(self):
        h = Histogram("h", bounds=LATENCY_BUCKETS_S)
        n = 20_000
        for i in range(n):
            h.observe((i + 0.5) / n * 0.2)  # uniform on (0, 0.2)
        snap = h.snapshot()
        assert snap.quantile(0.5) == pytest.approx(0.10, rel=0.15)
        assert snap.quantile(0.99) == pytest.approx(0.198, rel=0.15)
        # quantile floors/ceilings clamp to the observed extremes
        assert snap.quantile(0.0) >= snap.min
        assert snap.quantile(1.0) <= snap.max

    def test_percentiles_returns_the_slo_curve(self):
        h = Histogram("h")
        h.observe(0.003)
        curve = h.snapshot().percentiles()
        assert set(curve) == {"p50", "p90", "p99", "p999"}

    def test_threaded_observers_never_lose_observations(self):
        h = Histogram("h", bounds=(0.25, 0.5, 0.75))

        def hammer(offset):
            for i in range(5_000):
                h.observe(((i + offset) % 100) / 100.0)

        threads = [threading.Thread(target=hammer, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = h.snapshot()
        assert snap.count == 30_000
        assert sum(snap.counts) == 30_000

    def test_concurrent_snapshots_see_consistent_instrument_state(self):
        """A snapshot taken mid-stream has count == sum(counts) always."""
        h = Histogram("h", bounds=(0.5,))
        stop = threading.Event()
        bad: list[tuple] = []

        def writer():
            while not stop.is_set():
                h.observe(0.25)
                h.observe(0.75)

        def reader():
            for _ in range(300):
                snap = h.snapshot()
                if sum(snap.counts) != snap.count:
                    bad.append((snap.counts, snap.count))

        w = threading.Thread(target=writer)
        r = threading.Thread(target=reader)
        w.start()
        r.start()
        r.join()
        stop.set()
        w.join()
        assert not bad


class TestQuantileFromBuckets:
    def test_rejects_out_of_range_q(self):
        with pytest.raises(ValueError, match="quantile"):
            quantile_from_buckets((1.0,), (1, 0), 1.5, 0.0, 1.0)

    def test_single_bucket_interpolates_between_min_and_max(self):
        value = quantile_from_buckets((10.0,), (4, 0), 0.5, 2.0, 8.0)
        assert 2.0 <= value <= 8.0


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError, match="already exists"):
            reg.gauge("a")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="needs a name"):
            MetricsRegistry().counter("")

    def test_snapshot_covers_every_instrument(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.gauge("g").set(1.5)
        reg.histogram("h").observe(0.01)
        snap = reg.snapshot()
        assert len(snap) == 3
        assert snap.value("c") == 2.0
        assert snap.value("g") == 1.5
        assert snap.histogram("h").count == 1
        assert math.isnan(snap.value("missing"))
        with pytest.raises(KeyError):
            snap.histogram("c")

    def test_snapshots_are_independent_of_later_updates(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        before = reg.snapshot()
        reg.counter("c").inc(41)
        assert before.value("c") == 1.0
        assert reg.snapshot().value("c") == 42.0

    def test_threaded_get_or_create_yields_one_instrument(self):
        reg = MetricsRegistry()
        seen = []

        def race():
            seen.append(reg.counter("shared"))

        threads = [threading.Thread(target=race) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len({id(c) for c in seen}) == 1

    def test_declared_concurrency_contracts_are_present(self):
        # the analyzer gate relies on these declarations existing
        for cls in (Counter, Gauge, Histogram, MetricsRegistry):
            specs = contracts_of(cls)
            assert specs, f"{cls.__name__} lost its @guarded_by contract"
            assert any(spec["lock"] == "_lock" for spec in specs)


class TestNullFacade:
    def test_resolve_registry_defaults_to_null(self):
        assert resolve_registry(None) is NULL_REGISTRY
        reg = MetricsRegistry()
        assert resolve_registry(reg) is reg

    def test_null_registry_hands_out_shared_noops(self):
        assert NULL_REGISTRY.enabled is False
        assert NULL_REGISTRY.counter("x") is NULL_COUNTER
        assert NULL_REGISTRY.gauge("x") is NULL_GAUGE
        assert NULL_REGISTRY.histogram("x") is NULL_HISTOGRAM
        NULL_COUNTER.inc()
        NULL_GAUGE.set(3.0)
        NULL_HISTOGRAM.observe(1.0)
        assert len(NULL_REGISTRY.snapshot()) == 0
        assert NULL_REGISTRY.names() == []

    def test_null_instrument_call_overhead_is_negligible(self):
        """One null observe() must cost well under a microsecond.

        The streaming worker touches a handful of instruments per event,
        and every untraced ledger run pays them; this unit guard catches
        a regression (e.g. the null methods growing logic) without
        needing a ledger run.
        """
        from time import perf_counter

        n = 200_000
        observe = NULL_HISTOGRAM.observe
        start = perf_counter()
        for _ in range(n):
            observe(0.5)
        per_call = (perf_counter() - start) / n
        # generous ceiling: an empty C-level method call is ~50-100ns
        assert per_call < 2e-6

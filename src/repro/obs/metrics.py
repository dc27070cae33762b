"""Low-overhead, thread-safe metrics: counters, gauges, histograms.

The telemetry substrate every serving/streaming layer reports through.
Design constraints, in order:

* **hot paths pay almost nothing** — ``observe()``/``inc()`` are a
  :func:`bisect.bisect_left` over a pre-built bound tuple plus one numpy
  scalar increment under a per-instrument lock: no allocation, no string
  formatting, no dict churn.  Disabled telemetry pays even less: the
  :data:`NULL_REGISTRY` hands out singleton instruments whose methods
  are empty (one C-level method call per touch — see the overhead guard
  in ``tests/obs/test_metrics.py``);
* **lock per instrument** — writers on different instruments never
  contend, and no instrument method ever acquires anything *while*
  holding its lock, so instrument locks are strict leaves of the
  process lock graph;
* **snapshots are consistent per instrument, immutable, and complete**
  — :meth:`MetricsRegistry.snapshot` captures every instrument under
  its own lock into frozen dataclasses; p50/p90/p99/p999 (any quantile)
  are derivable from any histogram snapshot after the fact, so the
  serving path never computes percentiles inline.

Instruments are keyed by name; a label convention rides on the name via
:func:`labelled` (``labelled("bus.depth", topic="lifelog")`` →
``bus.depth{topic="lifelog"}``), which the Prometheus exporter in
:mod:`repro.obs.export` unpacks back into real labels.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

import numpy as np

from repro.analysis.contracts import declare_lock, guarded_by, make_lock

declare_lock("Counter._lock")
declare_lock("Gauge._lock")
declare_lock("Histogram._lock")
declare_lock("MetricsRegistry._lock")

#: default latency bucket upper bounds, seconds (overflow bucket implied).
#: Geometric 1-2.5-5 ladder from 100µs to 10s — wide enough to hold both
#: a sub-millisecond cache capture and a saturated 1s update-to-visible.
LATENCY_BUCKETS_S: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: default size/width bucket upper bounds (batch sizes, request widths).
SIZE_BUCKETS: tuple[float, ...] = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0,
    1024.0, 2048.0, 4096.0,
)


def labelled(name: str, **labels: object) -> str:
    """Attach Prometheus-style labels to an instrument name.

    Labels are part of the instrument's identity (one time series per
    label combination), rendered in sorted-key order so the same labels
    always produce the same name.
    """
    if not labels:
        return name
    inner = ",".join(
        f'{key}="{labels[key]}"' for key in sorted(labels)
    )
    return f"{name}{{{inner}}}"


def split_labels(name: str) -> tuple[str, str]:
    """Inverse of :func:`labelled`: ``(base name, label body or "")``."""
    if name.endswith("}") and "{" in name:
        base, __, body = name.partition("{")
        return base, body[:-1]
    return name, ""


def quantile_from_buckets(
    bounds: tuple[float, ...],
    counts: tuple[int, ...],
    q: float,
    minimum: float,
    maximum: float,
) -> float:
    """Estimate the ``q``-quantile of a fixed-bucket histogram.

    Linear interpolation inside the bucket holding the target rank,
    clamped to the observed ``minimum``/``maximum`` so the open-ended
    first and overflow buckets report real values instead of bucket
    edges.  Shared by :class:`HistogramSnapshot` and the JSONL readers
    in :mod:`repro.obs.export`, so offline artifacts and live snapshots
    derive identical percentiles.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    total = sum(counts)
    if total == 0:
        return float("nan")
    rank = q * total
    cumulative = 0.0
    for index, count in enumerate(counts):
        if count == 0:
            continue
        previous = cumulative
        cumulative += count
        if cumulative < rank:
            continue
        lower = minimum if index == 0 else bounds[index - 1]
        upper = maximum if index >= len(bounds) else bounds[index]
        lower = max(min(lower, maximum), minimum)
        upper = max(min(upper, maximum), minimum)
        if count == 0 or upper <= lower:
            return float(upper)
        fraction = (rank - previous) / count
        return float(lower + (upper - lower) * min(max(fraction, 0.0), 1.0))
    return float(maximum)


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CounterSnapshot:
    """Point-in-time value of one counter."""

    name: str
    value: float

    def as_dict(self) -> dict[str, object]:
        return {"type": "counter", "value": self.value}


@dataclass(frozen=True)
class GaugeSnapshot:
    """Point-in-time value of one gauge."""

    name: str
    value: float

    def as_dict(self) -> dict[str, object]:
        return {"type": "gauge", "value": self.value}


@dataclass(frozen=True)
class HistogramSnapshot:
    """Frozen bucket state of one histogram; quantiles derive from it."""

    name: str
    bounds: tuple[float, ...]
    counts: tuple[int, ...]
    sum: float
    count: int
    min: float
    max: float

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else float("nan")

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (0..1), interpolated within its bucket."""
        return quantile_from_buckets(
            self.bounds, self.counts, q, self.min, self.max
        )

    def percentiles(
        self, points: tuple[float, ...] = (0.50, 0.90, 0.99, 0.999)
    ) -> dict[str, float]:
        """The standard SLO curve: ``{"p50": ..., ..., "p999": ...}``."""
        return {
            "p" + format(point * 100, "g").replace(".", ""):
                self.quantile(point)
            for point in points
        }

    def as_dict(self) -> dict[str, object]:
        return {
            "type": "histogram",
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
            "min": self.min,
            "max": self.max,
        }


InstrumentSnapshot = CounterSnapshot | GaugeSnapshot | HistogramSnapshot


@dataclass(frozen=True)
class MetricsSnapshot:
    """One consistent-per-instrument capture of a whole registry."""

    instruments: Mapping[str, InstrumentSnapshot]

    def __iter__(self) -> Iterator[InstrumentSnapshot]:
        return iter(self.instruments.values())

    def __len__(self) -> int:
        return len(self.instruments)

    def __contains__(self, name: object) -> bool:
        return name in self.instruments

    def get(self, name: str) -> InstrumentSnapshot | None:
        return self.instruments.get(name)

    def value(self, name: str) -> float:
        """Counter/gauge value (NaN when absent)."""
        inst = self.instruments.get(name)
        if isinstance(inst, (CounterSnapshot, GaugeSnapshot)):
            return inst.value
        return float("nan")

    def histogram(self, name: str) -> HistogramSnapshot:
        inst = self.instruments.get(name)
        if not isinstance(inst, HistogramSnapshot):
            raise KeyError(f"no histogram named {name!r} in this snapshot")
        return inst

    def as_dict(self) -> dict[str, dict[str, object]]:
        """JSON-serializable form (the JSONL exporter's payload)."""
        return {
            name: inst.as_dict()
            for name, inst in sorted(self.instruments.items())
        }


# ---------------------------------------------------------------------------
# live instruments
# ---------------------------------------------------------------------------


@guarded_by("_lock", "_value")
class Counter:
    """A monotonically increasing count (events applied, errors, ...)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = make_lock("Counter._lock")

    def inc(self, n: float = 1.0) -> None:
        """Add ``n`` (must be >= 0; counters never go down)."""
        if n < 0:
            raise ValueError(f"counter {self.name} cannot decrease by {n}")
        with self._lock:
            self._value += n

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> CounterSnapshot:
        return CounterSnapshot(self.name, self.value)


@guarded_by("_lock", "_value")
class Gauge:
    """A point-in-time level: set explicitly or backed by a callable.

    Callback gauges (``fn=...``) read their source *at snapshot time*
    outside any instrument lock — the natural fit for queue depths and
    dirty-set sizes that already have a cheap thread-safe property.
    """

    __slots__ = ("name", "fn", "_value", "_lock")

    def __init__(self, name: str, fn: Callable[[], float] | None = None) -> None:
        self.name = name
        self.fn = fn
        self._value = 0.0
        self._lock = make_lock("Gauge._lock")

    def set(self, value: float) -> None:
        if self.fn is not None:
            raise TypeError(f"gauge {self.name} is callback-backed; cannot set()")
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        if self.fn is not None:
            # Deliberately lock-free: the callback may take its owner's
            # lock (queue depth), and instrument locks must stay leaves.
            return float(self.fn())
        with self._lock:
            return self._value

    def snapshot(self) -> GaugeSnapshot:
        return GaugeSnapshot(self.name, self.value)


@guarded_by("_lock", "_counts", "_sum", "_min", "_max")
class Histogram:
    """Fixed-bucket histogram with an allocation-free ``observe()``.

    ``bounds`` are inclusive upper bounds in ascending order; one
    overflow bucket is appended implicitly.  Counts live in a numpy
    int64 array so snapshots copy them in one C call.
    """

    __slots__ = ("name", "bounds", "_counts", "_sum", "_min", "_max", "_lock")

    def __init__(
        self, name: str, bounds: tuple[float, ...] = LATENCY_BUCKETS_S
    ) -> None:
        if not bounds:
            raise ValueError(f"histogram {name} needs at least one bound")
        ordered = tuple(float(b) for b in bounds)
        if list(ordered) != sorted(set(ordered)):
            raise ValueError(
                f"histogram {name} bounds must be strictly increasing"
            )
        self.name = name
        self.bounds = ordered
        self._counts = np.zeros(len(ordered) + 1, dtype=np.int64)
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self._lock = make_lock("Histogram._lock")

    def observe(self, value: float) -> None:
        """Record one observation — the hot-path entry point."""
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return int(self._counts.sum())

    def snapshot(self) -> HistogramSnapshot:
        with self._lock:
            counts = self._counts.copy()
            total_sum = self._sum
            minimum = self._min
            maximum = self._max
        count = int(counts.sum())
        return HistogramSnapshot(
            name=self.name,
            bounds=self.bounds,
            counts=tuple(int(c) for c in counts),
            sum=total_sum,
            count=count,
            min=minimum if count else 0.0,
            max=maximum if count else 0.0,
        )


Instrument = Counter | Gauge | Histogram


# ---------------------------------------------------------------------------
# registries
# ---------------------------------------------------------------------------


@guarded_by("_lock", "_instruments")
class MetricsRegistry:
    """Named instruments, get-or-create, one lock per instrument.

    The registry lock only guards the name table; instrument updates
    never touch it, and :meth:`snapshot` captures instruments *after*
    releasing it — so the registry lock is a leaf too.
    """

    #: the zero-cost-facade probe: ``registry.enabled`` tells call sites
    #: whether minting trace ids / taking timestamps buys anything
    enabled = True

    def __init__(self) -> None:
        self._instruments: dict[str, Instrument] = {}
        self._lock = make_lock("MetricsRegistry._lock")

    def _get_or_create(
        self, name: str, factory: Callable[[], Instrument], kind: type
    ) -> Instrument:
        if not name:
            raise ValueError("instrument needs a name")
        existing = self._instruments.get(name)  # GIL-atomic fast path
        if existing is None:
            with self._lock:
                existing = self._instruments.get(name)
                if existing is None:
                    existing = factory()
                    self._instruments[name] = existing
        if not isinstance(existing, kind):
            raise TypeError(
                f"instrument {name!r} already exists as "
                f"{type(existing).__name__}, not {kind.__name__}"
            )
        return existing

    def counter(self, name: str) -> Counter:
        inst = self._get_or_create(name, lambda: Counter(name), Counter)
        assert isinstance(inst, Counter)
        return inst

    def gauge(self, name: str, fn: Callable[[], float] | None = None) -> Gauge:
        inst = self._get_or_create(name, lambda: Gauge(name, fn), Gauge)
        assert isinstance(inst, Gauge)
        return inst

    def histogram(
        self, name: str, bounds: tuple[float, ...] = LATENCY_BUCKETS_S
    ) -> Histogram:
        inst = self._get_or_create(
            name, lambda: Histogram(name, bounds), Histogram
        )
        assert isinstance(inst, Histogram)
        return inst

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._instruments)

    def __contains__(self, name: object) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    def snapshot(self) -> MetricsSnapshot:
        """Capture every instrument (each under its own lock only)."""
        with self._lock:
            instruments = list(self._instruments.values())
        return MetricsSnapshot(
            {inst.name: inst.snapshot() for inst in instruments}
        )


class _NullCounter:
    __slots__ = ()
    name = "null"
    value = 0.0

    def inc(self, n: float = 1.0) -> None:
        pass


class _NullGauge:
    __slots__ = ()
    name = "null"
    value = 0.0

    def set(self, value: float) -> None:
        pass


class _NullHistogram:
    __slots__ = ()
    name = "null"
    bounds: tuple[float, ...] = ()
    count = 0

    def observe(self, value: float) -> None:
        pass


#: the singleton no-op instruments the null registry hands out
NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
NULL_HISTOGRAM = _NullHistogram()


class NullRegistry:
    """The telemetry-disabled facade: every instrument is a shared no-op.

    Instrumented components resolve their instruments once at
    construction, so a disabled hot path costs exactly one empty method
    call per touch — the overhead guard in the latency bench holds this
    to <2% of streamed replay throughput.
    """

    enabled = False

    def counter(self, name: str) -> _NullCounter:
        return NULL_COUNTER

    def gauge(
        self, name: str, fn: Callable[[], float] | None = None
    ) -> _NullGauge:
        return NULL_GAUGE

    def histogram(
        self, name: str, bounds: tuple[float, ...] = LATENCY_BUCKETS_S
    ) -> _NullHistogram:
        return NULL_HISTOGRAM

    def names(self) -> list[str]:
        return []

    def __contains__(self, name: object) -> bool:
        return False

    def __len__(self) -> int:
        return 0

    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot({})


#: the module-level disabled registry — the default ``telemetry`` of
#: every instrumented component
NULL_REGISTRY = NullRegistry()


def resolve_registry(
    telemetry: "MetricsRegistry | NullRegistry | None",
) -> "MetricsRegistry | NullRegistry":
    """``None`` → the null registry; anything else passes through."""
    return telemetry if telemetry is not None else NULL_REGISTRY

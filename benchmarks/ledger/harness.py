"""Block-interleaved harness and quiet-block estimators.

One run is ``set-up ×3 → 10 interleaved blocks → oracle``.  A block is
three phases over the same live world:

``sat_ingest``  closed loop: submit a fixed event count, then ``drain``;
``sat_serve``   closed loop, one client, fixed request counts, no writes;
``paced``       open loop for a fixed time: a writer thread submits
                events on a schedule in chunks of 8 while this thread
                issues requests on a schedule, each timed from its *due*
                time; generator lateness is recorded.

Work per block is fixed, so counts repeat exactly.  Every timed quantity
is computed per block — over the quietest short *window* inside the
block's phase — and the run reports the **quiet block**: min over valid
blocks for times and costs, max for rates.  On a shared host
interference only ever adds time, so the extreme is the measurement
that saw the least of it.
"""

from __future__ import annotations

import ctypes
import gc
import os
import platform
import resource
import signal
import threading
import time
from dataclasses import dataclass, field
from multiprocessing import active_children, resource_tracker
from time import perf_counter
from typing import Any, Callable

import numpy as np

from repro.obs.metrics import quantile_from_buckets
from repro.serving.budget import DeadlineExceeded

from benchmarks.ledger import worlds
from benchmarks.ledger.worlds import PACED_CHUNK, Inputs, Spec, World

N_BLOCKS = 10
#: fewer valid blocks than this fails the run; the quiet block needs one
#: clean block, six keeps a host hiccup from failing a whole run
MIN_VALID_BLOCKS = 6
TRACE_BLOCKS = 3
#: set-up repeats until at least this many passes *and* this many
#: seconds have been spent on it (cheap worlds get more passes)
SETUP_PASSES = 3
SETUP_MIN_SECONDS = 2.5
SETUP_MAX_PASSES = 10
#: A block is invalid when its generator ran late at p95 by more than
#: this, *and* by more than LATE_OUTLIER x the run's median block.  The
#: generator threads share the GIL with the system under test (a 5 ms
#: switch interval), so a busy in-process plane makes every block a
#: little late by design — on serve_scan a quarter of all sends wait
#: ~5 ms for a scan to yield; only a block that stands out from its own
#: run was disturbed from outside.  p95, not p99: at ~600 sends a block,
#: p99 is six samples and one 10 ms host hiccup trips it.
MAX_LATE_P95_MS = 1.0
LATE_OUTLIER = 2.5
#: ... as is one whose post-paced drain took longer than this share of
#: the paced phase (the backlog was still growing when offering stopped)
MAX_DRAIN_SHARE = 0.15

#: Measurement windows.  A neighbour on the sibling hyperthread slows
#: this VM 1.75x in bursts of 0.1–1 s, so a number taken over a whole
#: 0.4–0.8 s phase is rarely clean, while one taken over a tenth of a
#: second often is: a block's value is the quietest such window of its
#: phase (one segment replay; a sixth of the closed-loop requests, as a
#: sliding window; a quarter of the paced samples), and the run then
#: takes the quiet block.
SERVE_WINDOWS = 6
PACED_WINDOWS = 4

VISIBLE_HISTOGRAM = "streaming.update_visible_seconds"

#: end-to-end metric -> (unit, better)
END_TO_END: dict[str, tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "events_per_s": ("1/s", "higher"),
    "visible_p50_ms": ("ms", "lower"),
    "request_p50_ms": ("ms", "lower"),
    "requests_per_s": ("1/s", "higher"),
    "select_users_p50_ms": ("ms", "lower"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
#: the end-to-end metrics computed per block (the rest are per run)
PER_BLOCK = (
    "events_per_s", "visible_p50_ms", "request_p50_ms",
    "requests_per_s", "select_users_p50_ms", "cpu_s",
)


# -- estimators ---------------------------------------------------------------


def quiet(values: list[float], better: str) -> float:
    """The quiet-block estimate: the extreme in the *good* direction."""
    if not values:
        raise ValueError("no valid blocks to estimate from")
    return min(values) if better == "lower" else max(values)


def percentile(samples: Any, q: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def best_rate(marks: list[float], width: int) -> float:
    """Completions per second over the quietest ``width`` consecutive
    completions (``marks`` are back-to-back completion times)."""
    width = min(width, len(marks) - 1)
    spans = np.asarray(marks[width:]) - np.asarray(marks[:-width])
    return width / float(spans.min())


def quietest_median(samples: Any, windows: int, at_least: int) -> float:
    """The lowest median over ``windows`` consecutive, near-equal parts
    of the (chronological) samples — fewer parts when that would leave
    one with under ``at_least`` samples."""
    samples = np.asarray(samples, dtype=np.float64)
    parts = max(1, min(windows, len(samples) // at_least))
    return float(min(np.median(p) for p in np.array_split(samples, parts)))


# -- the host's speed ---------------------------------------------------------

_KERNEL_A = np.arange(64 * 64, dtype=np.float64).reshape(64, 64) / 4096.0
_KERNEL_ROWS = np.arange(0, 4096, 7)


def _reference_kernel() -> float:
    """Interpreter-bound like the program: dict, int and float work in
    a bytecode loop, plus one small matmul and a gather."""
    counts: dict[int, int] = {}
    total = 0.0
    for i in range(40_000):
        key = i & 255
        counts[key] = counts.get(key, 0) + 1
        total += (i % 7) * 0.5
    flat = (_KERNEL_A @ _KERNEL_A).ravel()
    return total + float(flat[_KERNEL_ROWS].sum()) + len(counts)


def kernel_seconds(reps: int = 5) -> float:
    """One reading of host speed: a fixed kernel's best of ``reps``.

    Taken between phases and reported as host facts only — it says how
    disturbed a run was, it corrects nothing (scaling a run's metrics by
    its readings was tried: the kernel slows 1.75x when a neighbour
    takes the sibling hyperthread, the program by less and not in step,
    and the spreads doubled).
    """
    best = float("inf")
    for __ in range(reps):
        started = perf_counter()
        _reference_kernel()
        best = min(best, perf_counter() - started)
    return best


def disturbance(readings: list[float]) -> dict[str, float]:
    """How the host behaved: kernel ms at its quietest and typical, and
    the share of readings more than 1.3x the quietest (a neighbour on
    the sibling hyperthread reads as ~1.75x)."""
    quietest = min(readings)
    return {
        "kernel_ms_min": quietest * 1e3,
        "kernel_ms_median": percentile(readings, 50) * 1e3,
        "slow_share": sum(r > 1.3 * quietest for r in readings) / len(readings),
    }


# -- host control and accounting ----------------------------------------------


def pin_to_one_cpu() -> int | None:
    """Pin this process to one allowed CPU; ``None`` where unsupported."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = worlds.allowed_cpus()[-1]
    os.sched_setaffinity(0, {cpu})
    return cpu


def steady_allocator() -> bool:
    """Make glibc malloc keep what it is given (``False``: unsupported).

    numpy's large temporaries otherwise come from fresh ``mmap``s that
    the kernel zero-fills on every call; with THP that cost is bimodal
    on this host (an identical 64k-item index build takes 0.5 s or
    1.5 s from one pass to the next).  Page-fault luck is host noise,
    so the runner serves big blocks from the retained heap instead.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
        m_trim_threshold, m_mmap_threshold = -1, -3
        return bool(
            libc.mallopt(m_mmap_threshold, 1 << 30)
            and libc.mallopt(m_trim_threshold, 1 << 30)
        )
    except (OSError, AttributeError):
        return False


def prepare_host(spec: Spec, pin: bool) -> dict[str, Any]:
    """Apply the runner's host control; returns the host facts."""
    pinned = pin_to_one_cpu() if pin and spec.plane == "threads" else None
    return {
        "nproc": os.cpu_count(),
        "allowed_cpus": worlds.allowed_cpus(),
        "pinned_cpu": pinned,
        "malloc_retained_heap": steady_allocator(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_start": list(os.getloadavg()),
    }


def proc_cpu_seconds(pid: int) -> float:
    with open(f"/proc/{pid}/stat", "rb") as handle:
        fields = handle.read().rsplit(b")", 1)[1].split()
    ticks = int(fields[11]) + int(fields[12])  # utime + stime
    return ticks / os.sysconf("SC_CLK_TCK")


def cpu_seconds(world: World) -> float:
    """Process-tree CPU: this process plus its shard-worker children."""
    total = time.process_time()
    for pid in world.worker_pids():
        try:
            total += proc_cpu_seconds(pid)
        except OSError:
            pass
    return total


def peak_rss_mb(world: World) -> float:
    """Parent ``ru_maxrss`` plus each live worker's ``VmHWM``."""
    total_kb = float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    for pid in world.worker_pids():
        try:
            with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += float(line.split()[1])
                        break
        except OSError:
            pass
    return total_kb / 1024.0


def child_pids() -> list[int]:
    """Live or zombie children of this process, read off ``/proc``."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "r", encoding="ascii") as handle:
                stat = handle.read()
        except OSError:
            continue
        if int(stat[stat.rfind(")") + 2:].split()[1]) == me:
            found.append(int(entry))
    return found


def stop_child_processes() -> None:
    """Stop every process this run started and wait until each has ended.

    ``World.close`` joins the shard workers; this ends what is left: a
    worker whose world never reached ``close``, and multiprocessing's
    resource tracker, which the shared-memory store starts and which by
    design outlives its parent (it exits on the EOF of a pipe the parent
    holds).  Its pipe is closed here and the process waited for.  A later
    ``SharedMemory`` create or unlink would start a new tracker, so the
    runner calls this last (see ``run.run_and_leave_nothing``).
    """
    for process in active_children():
        process.terminate()
        process.join(5.0)
        if process.is_alive():
            process.kill()
            process.join()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()
    for pid in child_pids():  # whatever neither of the above knew of
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


# -- failure accounting -------------------------------------------------------


@dataclass
class Tally:
    """Operations attempted / failed, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def fail(self, reason: str, n: int = 1) -> None:
        self.failed += n
        if len(self.reasons) < 8:
            self.reasons.append(reason)


class ResponseChecker:
    """Checks every response outside the timed loops."""

    def __init__(self, tally: Tally) -> None:
        self.tally = tally
        self._user_versions: dict[int, int] = {}
        self._global_version = -1

    def recommend(self, request: Any, response: Any) -> None:
        self.tally.attempted += 1
        if isinstance(response, Exception):
            kind = (
                "deadline" if isinstance(response, DeadlineExceeded)
                else type(response).__name__
            )
            return self.tally.fail(f"recommend raised {kind}")
        if response.degraded:
            return self.tally.fail("recommend degraded")
        if len(response.ranked) != request.k:
            return self.tally.fail(
                f"recommend returned {len(response.ranked)} != k={request.k}"
            )
        version = response.sum_version
        if version is not None:
            if version < self._user_versions.get(request.user_id, 0):
                return self.tally.fail("recommend sum_version went backwards")
            self._user_versions[request.user_id] = version

    def select(self, request: Any, response: Any) -> None:
        self.tally.attempted += 1
        if isinstance(response, Exception):
            return self.tally.fail(
                f"select_users raised {type(response).__name__}"
            )
        expected = (
            request.k if request.k is not None else len(request.user_ids)
        )
        if response.degraded or len(response.ranked) != expected:
            return self.tally.fail("select_users degraded or wrong size")
        version = response.sum_version
        if version is not None:
            if version < self._global_version:
                return self.tally.fail("select_users sum_version went backwards")
            self._global_version = version


def _call(fn: Callable[[Any], Any], request: Any) -> Any:
    """Serve one request; a raised error is the (failed) response."""
    try:
        return fn(request)
    except Exception as exc:  # counted as a failed operation, never lost
        return exc


# -- visible-latency sampling -------------------------------------------------


def _visible_histogram(world: World) -> dict[str, Any]:
    merged = world.updater.merged_metrics()
    return merged[VISIBLE_HISTOGRAM]


def visible_reset(world: World) -> Any:
    """Mark the start of a visible-latency window (plane quiescent).

    The thread plane's ``latencies()`` reservoir keeps only a worker's
    first 50 000 samples, so the window empties it; the process plane's
    reservoir lives in the workers, so its window is the delta of the
    workers' ``update_visible_seconds`` histogram between two barriers.
    """
    if world.spec.plane == "procs":
        return _visible_histogram(world)
    for worker in world.updater.workers:
        worker.stats.latencies.clear()
    return None


def visible_window(world: World, mark: Any) -> dict[str, float]:
    """p50/p99/p99.9 (ms) and sample count since :func:`visible_reset`.

    On the thread plane the p50 is the quietest quarter's: each worker's
    samples are chronological, so they cut into windows like the
    requests do.  The process plane only has the whole window's
    histogram.
    """
    if world.spec.plane == "procs":
        after = _visible_histogram(world)
        counts = tuple(
            int(b) - int(a) for a, b in zip(mark["counts"], after["counts"])
        )
        bounds = tuple(float(b) for b in after["bounds"])
        low, high = float(after["min"]), float(after["max"])
        return {
            "samples": float(sum(counts)),
            **{
                name: quantile_from_buckets(bounds, counts, q, low, high) * 1e3
                for name, q in (("p50", 0.5), ("p99", 0.99), ("p999", 0.999))
            },
        }
    samples = world.updater.latencies()
    per_worker = [w.stats.latencies for w in world.updater.workers]
    return {
        "samples": float(len(samples)),
        "p50": min(
            quietest_median(mine, PACED_WINDOWS, at_least=20)
            for mine in per_worker if mine
        ) * 1e3,
        "p99": percentile(samples, 99) * 1e3,
        "p999": percentile(samples, 99.9) * 1e3,
    }


# -- phases -------------------------------------------------------------------


@dataclass
class Span:
    """A ledger-side span (``*_ns`` from ``perf_counter``)."""

    trace_id: int
    span_id: int
    parent_id: int | None
    name: str
    start_ns: int
    end_ns: int
    n: int = 1

    def as_dict(self) -> dict[str, Any]:
        return dict(self.__dict__)


class Recorder:
    """In-memory span sink; written out once, when the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._next_id = 0

    def add(
        self, trace_id: int, parent: int | None, name: str,
        start: float, end: float, n: int = 1,
    ) -> int:
        self._next_id += 1
        self.spans.append(Span(
            trace_id, self._next_id, parent, name,
            int(start * 1e9), int(end * 1e9), n,
        ))
        return self._next_id

    def self_time_ns(self, span: Span) -> int:
        """Duration minus the part its child spans cover (union)."""
        covered, cursor = 0, span.start_ns
        children = sorted(
            (s.start_ns, s.end_ns) for s in self.spans
            if s.parent_id == span.span_id
        )
        for start, end in children:
            start, end = max(start, cursor), min(end, span.end_ns)
            if end > start:
                covered += end - start
                cursor = end
        return (span.end_ns - span.start_ns) - covered


@dataclass
class Block:
    """Everything one block measured."""

    index: int
    #: per-block end-to-end values, as measured
    metrics: dict[str, float] = field(default_factory=dict)
    #: CPU seconds of the three phases (their sum is ``metrics["cpu_s"]``)
    cpu_parts: tuple[float, float, float] = (0.0, 0.0, 0.0)
    #: reference-kernel readings taken between this block's phases
    kernel_s: list[float] = field(default_factory=list)
    valid: bool = True
    why_invalid: str = ""
    late_p95_ms: float = 0.0
    late_p99_ms: float = 0.0
    paced_drain_ms: float = 0.0
    visible: dict[str, float] = field(default_factory=dict)
    request_latencies_ms: list[float] = field(default_factory=list)


def sat_ingest(
    world: World, tally: Tally
) -> list[tuple[float, float, float, int, float]]:
    """Closed loop: each replay of the segment is submitted, then
    drained — one measurement window per replay; returns ``(start,
    submitted_at, drained_at, messages, cpu seconds)`` per window."""
    segment, ticks = world.inputs.segment, world.inputs.ticks
    cuts = sorted(ticks) + [len(segment)]
    windows = []
    for __ in range(world.spec.segment_reps):
        messages, lo = 0, 0
        cpu_before = cpu_seconds(world)
        start = perf_counter()
        for pos in cuts:
            world.submit(segment, lo, pos)
            messages += pos - lo
            users = ticks.get(pos)
            if users is not None:
                world.tick(users)
                messages += len(users)
            lo = pos
        submitted_at = perf_counter()
        settled = world.updater.drain()
        drained_at = perf_counter()
        windows.append((
            start, submitted_at, drained_at, messages,
            cpu_seconds(world) - cpu_before,
        ))
        tally.attempted += messages
        if not settled:
            tally.fail("drain() did not settle after sat_ingest")
    return windows


def sat_serve(
    world: World, checker: ResponseChecker
) -> tuple[list[float], list[float]]:
    """Closed loop, one client; returns (recommend marks, select marks).

    Marks are back-to-back ``perf_counter`` reads: request *i* ran from
    ``marks[i]`` to ``marks[i + 1]``.
    """
    inputs, service = world.inputs, world.service
    recommend, select = service.recommend, service.select_users
    responses = []
    marks = [perf_counter()]
    for request in inputs.serve_requests:
        responses.append(_call(recommend, request))
        marks.append(perf_counter())
    select_responses = []
    select_marks = [perf_counter()]
    for request in inputs.serve_selects:
        select_responses.append(_call(select, request))
        select_marks.append(perf_counter())
    for request, response in zip(inputs.serve_requests, responses):
        checker.recommend(request, response)
    for request, response in zip(inputs.serve_selects, select_responses):
        checker.select(request, response)
    return marks, select_marks


@dataclass
class PacedTimings:
    start: float
    end: float
    drained_at: float
    chunk_starts: list[float]
    chunk_ends: list[float]
    #: (kind, due, started, finished) per request, in schedule order
    requests: list[tuple[str, float, float, float]]
    late_seconds: list[float]


def paced(
    world: World, tally: Tally, checker: ResponseChecker
) -> PacedTimings:
    """Open loop for ``spec.paced_seconds``: scheduled writer + requests."""
    spec, inputs, service = world.spec, world.inputs, world.service
    seconds = spec.paced_seconds
    events = inputs.paced_events
    n_chunks = len(events) // PACED_CHUNK
    interval = PACED_CHUNK / spec.paced_event_rate
    schedule = sorted(
        [
            ((i + 0.5) / spec.paced_request_rate, "recommend", r)
            for i, r in enumerate(inputs.paced_requests)
        ] + [
            ((i + 0.5) / spec.paced_select_rate, "select", r)
            for i, r in enumerate(inputs.paced_selects)
        ],
        key=lambda entry: entry[0],
    )
    chunk_starts = [0.0] * n_chunks
    chunk_ends = [0.0] * n_chunks
    late: list[float] = []
    start = perf_counter() + 0.005
    submit_many = world.updater.submit_many

    def writer() -> None:
        for j in range(n_chunks):
            due = start + j * interval
            wait = due - perf_counter()
            if wait > 0:
                time.sleep(wait)
            began = perf_counter()
            submit_many(events[j * PACED_CHUNK:(j + 1) * PACED_CHUNK])
            chunk_starts[j] = began
            chunk_ends[j] = perf_counter()
            late.append(began - due)

    thread = threading.Thread(target=writer, name="ledger-paced-writer")
    thread.start()
    served: list[tuple[str, Any, Any, float, float, float]] = []
    free_at = start
    for offset, kind, request in schedule:
        due = start + offset
        wait = due - perf_counter()
        if wait > 0:
            time.sleep(wait)
        began = perf_counter()
        # lateness is the generator's own: time it was free yet not sending
        late.append(began - max(due, free_at))
        fn = service.recommend if kind == "recommend" else service.select_users
        response = _call(fn, request)
        free_at = perf_counter()
        served.append((kind, request, response, due, began, free_at))
    wait = start + seconds - perf_counter()
    if wait > 0:
        time.sleep(wait)
    thread.join()
    end = perf_counter()
    world.journal.append(("events", events, 0, n_chunks * PACED_CHUNK))
    settled = world.updater.drain()
    drained_at = perf_counter()
    tally.attempted += n_chunks * PACED_CHUNK
    if not settled:
        tally.fail("drain() did not settle after paced")
    for kind, request, response, *__ in served:
        (checker.recommend if kind == "recommend" else checker.select)(
            request, response
        )
    return PacedTimings(
        start=start, end=end, drained_at=drained_at,
        chunk_starts=chunk_starts, chunk_ends=chunk_ends,
        requests=[(k, due, b, f) for k, __, __, due, b, f in served],
        late_seconds=late,
    )


def run_block(
    world: World,
    index: int,
    tally: Tally,
    checker: ResponseChecker,
    recorder: Recorder | None = None,
) -> Block:
    spec = world.spec
    block = Block(index=index)
    block_start = perf_counter()
    readings = [kernel_seconds()]
    windows = sat_ingest(world, tally)
    readings.append(kernel_seconds())
    cpu_2 = cpu_seconds(world)
    marks, select_marks = sat_serve(world, checker)
    serve_end = perf_counter()
    cpu_3 = cpu_seconds(world)
    readings.append(kernel_seconds())
    mark = visible_reset(world)
    cpu_4 = cpu_seconds(world)
    timings = paced(world, tally, checker)
    cpu_5 = cpu_seconds(world)
    block.visible = visible_window(world, mark)
    readings.append(kernel_seconds())
    block_end = perf_counter()

    block.kernel_s = readings
    recommend_ms = [
        (finished - due) * 1e3
        for kind, due, __, finished in timings.requests if kind == "recommend"
    ]
    block.request_latencies_ms = recommend_ms
    # per phase (the kernel readings in between are not the program's
    # CPU); every ingest window costs what the quietest one did
    block.cpu_parts = (
        len(windows) * min(cpu for *__, cpu in windows),
        cpu_3 - cpu_2, cpu_5 - cpu_4,
    )
    block.metrics = {
        "events_per_s": max(
            messages / (drained_at - start)
            for start, __, drained_at, messages, __ in windows
        ),
        "visible_p50_ms": block.visible["p50"],
        "request_p50_ms": quietest_median(
            recommend_ms, PACED_WINDOWS, at_least=3
        ),
        "requests_per_s": best_rate(
            marks, max(4, spec.serve_requests // SERVE_WINDOWS)
        ),
        "select_users_p50_ms": percentile(np.diff(select_marks) * 1e3, 50),
        "cpu_s": sum(block.cpu_parts),
    }
    block.late_p95_ms = percentile(timings.late_seconds, 95) * 1e3
    block.late_p99_ms = percentile(timings.late_seconds, 99) * 1e3
    block.paced_drain_ms = (timings.drained_at - timings.end) * 1e3

    if recorder is not None:
        trace = index + 1
        root = recorder.add(trace, None, "block", block_start, block_end)
        phase = recorder.add(
            trace, root, "phase.sat_ingest", windows[0][0], windows[-1][2]
        )
        for start, submitted_at, drained_at, messages, __ in windows:
            recorder.add(
                trace, phase, "updater.submit_many+tick", start, submitted_at,
                n=messages,
            )
            recorder.add(
                trace, phase, "updater.drain", submitted_at, drained_at
            )
        phase = recorder.add(
            trace, root, "phase.sat_serve", marks[0], serve_end
        )
        for began, finished in zip(marks, marks[1:]):
            recorder.add(trace, phase, "service.recommend", began, finished)
        for began, finished in zip(select_marks, select_marks[1:]):
            recorder.add(trace, phase, "service.select_users", began, finished)
        phase = recorder.add(
            trace, root, "phase.paced", timings.start, timings.drained_at
        )
        for began, finished in zip(timings.chunk_starts, timings.chunk_ends):
            recorder.add(
                trace, phase, "updater.submit_many", began, finished,
                n=PACED_CHUNK,
            )
        for kind, __, began, finished in timings.requests:
            name = (
                "service.recommend" if kind == "recommend"
                else "service.select_users"
            )
            recorder.add(trace, phase, name, began, finished)
        recorder.add(
            trace, phase, "updater.drain", timings.end, timings.drained_at
        )
    return block


# -- the run ------------------------------------------------------------------


def mark_invalid(blocks: list[Block], paced_seconds: float) -> None:
    """Flag the blocks that must be excluded, never averaged in."""
    if not blocks:
        return
    typical = percentile([b.late_p95_ms for b in blocks], 50)
    late_limit = max(MAX_LATE_P95_MS, LATE_OUTLIER * typical)
    drain_limit = MAX_DRAIN_SHARE * paced_seconds * 1e3
    for block in blocks:
        if block.late_p95_ms > late_limit:
            block.valid = False
            block.why_invalid = (
                f"generator {block.late_p95_ms:.2f} ms late at p95 "
                f"(limit {late_limit:.2f})"
            )
        elif block.paced_drain_ms > drain_limit:
            block.valid = False
            block.why_invalid = (
                f"backlog: drain took {block.paced_drain_ms:.1f} ms after "
                f"paced (limit {drain_limit:.0f})"
            )


def timed_setup(
    spec: Spec, inputs: Inputs, passes: int, min_seconds: float
) -> tuple[World, list[float], list[float]]:
    """Complete set-up passes, each timed; the last world is kept.

    At least ``passes``; cheap worlds keep going until ``min_seconds``
    have been measured (at most :data:`SETUP_MAX_PASSES`).  Returns the
    world, the seconds per pass and the kernel readings between passes.
    """
    seconds: list[float] = []
    readings = [kernel_seconds()]
    world = None
    while len(seconds) < passes or (
        sum(seconds) < min_seconds and len(seconds) < SETUP_MAX_PASSES
    ):
        if world is not None:
            world.close()
            gc.collect()
        started = perf_counter()
        world = worlds.build_world(spec, inputs)
        seconds.append(perf_counter() - started)
        readings.append(kernel_seconds())
    return world, seconds, readings


class Session:
    """The blocks of one world: its tally, checker and estimates."""

    def __init__(self, world: World, recorder: Recorder | None = None) -> None:
        self.world = world
        self.recorder = recorder
        self.tally = Tally()
        # warm-up events were submitted during set-up
        self.tally.attempted += len(world.inputs.warmup)
        self.checker = ResponseChecker(self.tally)
        self.blocks: list[Block] = []

    def run_block(self) -> None:
        self.blocks.append(run_block(
            self.world, len(self.blocks), self.tally, self.checker,
            self.recorder,
        ))

    def estimates(self, needed: int) -> dict[str, float]:
        return estimate(
            self.blocks, self.world.spec.paced_seconds, needed, self.tally
        )


def run_sessions(sessions: list[Session], n_blocks: int) -> None:
    """``n_blocks`` per session, interleaved block by block, with the
    set-up garbage frozen out of the collector's way."""
    gc.collect()
    gc.freeze()
    try:
        for __ in range(n_blocks):
            for session in sessions:
                session.run_block()
    finally:
        gc.unfreeze()


def estimate(
    blocks: list[Block], paced_seconds: float, needed: int, tally: Tally
) -> dict[str, float]:
    """Quiet-block estimates over the valid blocks only."""
    mark_invalid(blocks, paced_seconds)
    valid = [b for b in blocks if b.valid]
    if len(valid) < needed:
        tally.fail(
            f"only {len(valid)} of {len(blocks)} blocks valid (need "
            f"{needed}): "
            + "; ".join(b.why_invalid for b in blocks if not b.valid)[:200]
        )
    if not valid:
        return {}
    estimates = {
        name: quiet([b.metrics[name] for b in valid], END_TO_END[name][1])
        for name in PER_BLOCK
    }
    # one block's CPU, each phase at its quietest (a whole block is too
    # long a window to be clean in one piece)
    estimates["cpu_s"] = sum(
        quiet([b.cpu_parts[phase] for b in valid], "lower")
        for phase in range(3)
    )
    return estimates

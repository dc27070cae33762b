"""Two critical sections, each entered by a second thread mid-window.

``SumCache.mark_batch`` bumps the global version under the registry
lock, and ``WriteBehindWriter.flush`` writes the swapped-out buffer to
the log under the writer lock.  Each test parks a first thread inside
the section, at the point where dropping the lock would let a second
thread in (the read-modify-write of ``+=``; the log ``extend``), and
runs the second thread.  The first thread resumes once the second has
either arrived at the lock (:class:`Contended`) or returned, so — as
with ``read_mid_write`` in ``tests/core/test_snapshots.py`` — the
second thread always starts inside the window, and the verdict never
depends on scheduling: with the lock it waits its turn, without it the
two interleave and the test fails.
"""

import threading

from repro.core.sum_model import SumRepository
from repro.lifelog.events import ActionCategory, Event
from repro.lifelog.store import EventLog
from repro.streaming.cache import SumCache
from repro.streaming.writebehind import WriteBehindWriter


class Window:
    """Where the first thread parks until the second makes progress."""

    def __init__(self) -> None:
        self.opened, self.progress = threading.Event(), threading.Event()

    def park(self) -> None:
        self.opened.set()
        assert self.progress.wait(timeout=30)


class Contended:
    """A lock that opens the window when a second thread arrives at it
    while it is held."""

    def __init__(self, lock, window: Window) -> None:
        self._lock, self._window = lock, window

    def acquire(self, blocking=True, timeout=-1):
        if self._lock.acquire(False):
            return True
        self._window.progress.set()
        return self._lock.acquire(blocking, timeout)

    def release(self) -> None:
        self._lock.release()

    def __enter__(self):
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()


def race(first, second, window):
    """``(first(), second())``: ``second`` runs on this thread while
    ``first`` runs on another and is parked in ``window``."""
    results = []
    thread = threading.Thread(target=lambda: results.append(first()))
    thread.start()
    try:
        assert window.opened.wait(timeout=30)
        theirs = second()
    finally:
        window.progress.set()
        thread.join(timeout=30)
    assert not thread.is_alive()
    return results[0], theirs


class ParkedInt(int):
    """An int whose first ``+`` parks: ``+=`` split between its read and
    its write."""

    def __add__(self, other):
        window, self.window = self.window, None
        if window is not None:
            window.park()
        return int(self) + other


def test_a_mark_batch_racing_another_loses_no_bump():
    cache = SumCache(SumRepository())
    window = Window()
    cache._registry_lock = Contended(cache._registry_lock, window)
    cache._global_version = ParkedInt(0)
    cache._global_version.window = window
    mine, theirs = race(cache.mark_batch, cache.mark_batch, window)
    assert sorted((mine, theirs)) == [1, 2]
    assert cache.global_version == 2


class ParkedLog(EventLog):
    """An event log whose first ``extend`` parks before writing."""

    def __init__(self, window: Window) -> None:
        super().__init__()
        self.window = window

    def extend(self, events):
        window, self.window = self.window, None
        if window is not None:
            window.park()
        return super().extend(events)


def events(*timestamps):
    return [
        Event(timestamp=float(t), user_id=1, action="course_view",
              category=ActionCategory.NAVIGATION, payload={"target": "3"})
        for t in timestamps
    ]


def test_a_flush_racing_a_filling_add_batch_keeps_the_log_in_order():
    window = Window()
    log = ParkedLog(window)
    writer = WriteBehindWriter(log, flush_every=2)
    writer._lock = Contended(writer._lock, window)
    writer.add_batch(events(1))
    # the flush holds the swapped-out [1] when [2, 3] fill the new buffer
    flushed, written = race(writer.flush, lambda: writer.add_batch(events(2, 3)), window)
    assert (flushed, written) == (1, 2)
    assert [event.timestamp for event in log.events()] == [1.0, 2.0, 3.0]
    assert (writer.flushed_events, writer.flush_count, writer.pending) == (3, 2, 0)

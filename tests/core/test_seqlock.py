"""The one seqlock primitive: bounded reader, odd/even writer windows.

The reader's retry loop is driven deterministically here: the module's
yield (``time.sleep(0)`` between attempts) is replaced by a hook that
plays the writer, so every interleaving under test happens at a known
attempt.  The call-site witnesses (saturated row writer, compaction
under live captures, the 200-swap tear test, shm layout round-trips)
live with their call sites.
"""

import multiprocessing
import sys
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import seqlock as seqlock_mod
from repro.core.seqlock import SPIN_LIMIT, Seqlock, SeqlockStarved
from repro.core.shm_store import ShmArena


def cells(n=1):
    return np.zeros(n, dtype=np.int64)


@pytest.fixture
def yields(monkeypatch):
    """Replace the reader's yield with a recorder; returns its hook list.

    Each yield appends to ``yields.seen`` and then runs ``yields.then``
    (a callable taking the yield count), which tests set to play the
    writer between two reader attempts.
    """
    state = SimpleNamespace(seen=[], then=lambda count: None)

    def sleep(seconds):
        state.seen.append(seconds)
        state.then(len(state.seen))

    monkeypatch.setattr(seqlock_mod, "time", SimpleNamespace(sleep=sleep))
    return state


def test_cells_must_be_one_dimensional_int64():
    with pytest.raises(TypeError, match="int64"):
        Seqlock(np.zeros(4, dtype=np.int32))
    with pytest.raises(TypeError, match="1-d"):
        Seqlock(np.zeros((2, 2), dtype=np.int64))


def test_quiet_read_runs_the_copy_once_and_never_yields(yields):
    lock = Seqlock(cells(3))
    assert lock.read(2, lambda a, b: (a, b), "x", "y") == ("x", "y")
    assert yields.seen == []


def test_an_odd_window_is_retried_not_read(yields):
    lock = Seqlock(cells())
    lock.begin(0)  # a writer is mid-commit
    copies = []

    def writer_commits_on_the_third_yield(count):
        if count == 3:
            lock.end(0)

    yields.then = writer_commits_on_the_third_yield
    assert lock.read(0, lambda: copies.append("copied") or "value") == "value"
    # three attempts saw the odd cell and skipped the copy entirely
    assert copies == ["copied"]
    assert len(yields.seen) == 3


def test_a_commit_landing_during_the_copy_discards_it(yields):
    lock = Seqlock(cells())
    state = {"value": "old"}
    copies = []

    def copy():
        copies.append(state["value"])
        if len(copies) == 1:  # the writer commits while we are copying
            with lock.write(0):
                state["value"] = "new"
        return copies[-1]

    assert lock.read(0, copy) == "new"
    assert copies == ["old", "new"]
    assert len(yields.seen) == 1


def test_grow_mid_read_is_detected_by_identity(yields):
    lock = Seqlock(cells(2))
    copies = []

    def copy():
        copies.append(lock.cells)
        if len(copies) == 1:
            # growth carries the generations over unchanged, so the
            # value check alone would accept this torn read
            lock.grow(cells(8))
        return len(copies)

    assert lock.read(1, copy) == 2
    assert copies[0] is not copies[1]
    assert lock.cells.shape == (8,)


def test_grow_carries_open_windows_over():
    lock = Seqlock(cells(2))
    lock.begin(1)
    lock.grow(cells(4))
    assert lock.cells.tolist() == [0, 1, 0, 0]
    lock.end(1)
    assert lock.cells.tolist() == [0, 2, 0, 0]


def test_an_index_beyond_the_cells_waits_for_the_grow(yields):
    lock = Seqlock(cells(1))
    yields.then = lambda count: lock.grow(cells(4))
    assert lock.read(3, lambda: "grown") == "grown"
    assert len(yields.seen) == 1


def test_exactly_spin_limit_attempts_then_starvation_reported_once(yields):
    lock = Seqlock(cells())
    lock.begin(0)  # a writer that never commits
    copies = []
    with pytest.raises(SeqlockStarved, match=str(SPIN_LIMIT)):
        lock.read(0, lambda: copies.append(1))
    assert copies == []  # an odd cell is never read
    assert len(yields.seen) == SPIN_LIMIT == 512


def test_a_saturating_writer_starves_the_read_after_spin_limit_copies(yields):
    lock = Seqlock(cells())
    copies = []

    def copy():
        copies.append(1)
        with lock.write(0):  # every copy races a commit
            pass

    with pytest.raises(SeqlockStarved):
        lock.read(0, copy)
    assert len(copies) == SPIN_LIMIT
    assert int(lock.cells[0]) == 2 * SPIN_LIMIT  # left even


def test_write_leaves_the_cell_even_when_the_body_raises():
    lock = Seqlock(cells(2))
    with pytest.raises(ZeroDivisionError):
        with lock.write(1):
            assert int(lock.cells[1]) == 1  # odd inside the window
            1 / 0
    assert lock.cells.tolist() == [0, 2]
    assert lock.read(1, lambda: "readable") == "readable"


def test_write_bumps_each_row_of_an_index_array_once():
    lock = Seqlock(cells(5))
    rows = np.asarray([0, 3, 4], dtype=np.intp)
    with lock.write(rows):
        assert lock.cells.tolist() == [1, 0, 0, 1, 1]
    assert lock.cells.tolist() == [2, 0, 0, 2, 2]


# -- the block reader: one copy per round, only the losers retried -----------
#
# ``read_many``'s copy is handed *positions* into the cells it was asked
# for, never row values: a caller scatters its copy by position.


def recording_copy(calls, then=None):
    """A ``read_many`` copy callback that records the positions it was
    handed."""

    def copy(at):
        calls.append(at.tolist())
        if then is not None:
            then(len(calls))

    return copy


def test_quiet_read_many_copies_once_and_never_yields(yields):
    lock = Seqlock(cells(6))
    calls = []
    lock.read_many(np.asarray([4, 1, 5]), recording_copy(calls))
    assert calls == [[0, 1, 2]]
    assert yields.seen == []


def test_read_many_of_nothing_neither_copies_nor_yields(yields):
    calls = []
    Seqlock(cells(2)).read_many(np.asarray([], dtype=np.intp), calls.append)
    assert calls == [] and yields.seen == []


def test_an_odd_row_sits_the_round_out_and_is_retried_alone(yields):
    lock = Seqlock(cells(4))
    lock.begin(2)  # a writer is mid-commit on row 2 only

    def writer_commits_on_the_third_yield(count):
        if count == 3:
            lock.end(2)

    yields.then = writer_commits_on_the_third_yield
    calls = []
    lock.read_many(np.asarray([0, 2, 3]), recording_copy(calls))
    # the quiet rows were copied once, in the first round; two rounds
    # saw only the odd cell and copied nothing; then row 2 (position 1)
    # went alone
    assert calls == [[0, 2], [1]]
    assert len(yields.seen) == 3


def test_a_commit_landing_during_the_block_copy_discards_that_row_only(yields):
    lock = Seqlock(cells(4))

    def writer_commits_row_1_during_the_first_copy(count):
        if count == 1:
            with lock.write(1):
                pass

    calls = []
    lock.read_many(
        np.asarray([3, 1, 0]),
        recording_copy(calls, writer_commits_row_1_during_the_first_copy),
    )
    assert calls == [[0, 1, 2], [1]]
    assert len(yields.seen) == 1


def test_a_repeated_row_is_retried_at_each_of_its_positions(yields):
    lock = Seqlock(cells(4))

    def writer_commits_row_2_during_the_first_copy(count):
        if count == 1:
            with lock.write(2):
                pass

    calls = []
    lock.read_many(
        np.asarray([2, 0, 2]),
        recording_copy(calls, writer_commits_row_2_during_the_first_copy),
    )
    assert calls == [[0, 1, 2], [0, 2]]


def test_grow_mid_read_many_is_detected_by_identity(yields):
    lock = Seqlock(cells(2))

    def grows_during_the_first_copy(count):
        if count == 1:
            # generations carry over unchanged, so the value check
            # alone would accept every row of this torn round
            lock.grow(cells(8))

    calls = []
    lock.read_many(
        np.asarray([0, 1]), recording_copy(calls, grows_during_the_first_copy)
    )
    assert calls == [[0, 1], [0, 1]]
    assert lock.cells.shape == (8,)
    assert len(yields.seen) == 1


def test_a_row_beyond_the_cells_waits_for_the_grow(yields):
    lock = Seqlock(cells(2))
    yields.then = lambda count: lock.grow(cells(4))
    calls = []
    lock.read_many(np.asarray([3, 1]), recording_copy(calls))
    # row 1 was in range and done in the first round; row 3 went alone
    # once the grown array covered it
    assert calls == [[1], [0]]
    assert len(yields.seen) == 1


def test_read_many_starves_once_after_spin_limit_carrying_the_losers(yields):
    lock = Seqlock(cells(4))
    lock.begin(1)  # two writers that never commit
    lock.begin(3)
    calls = []
    with pytest.raises(SeqlockStarved, match=str(SPIN_LIMIT)) as starved:
        lock.read_many(np.asarray([3, 0, 1, 2]), recording_copy(calls))
    assert calls == [[1, 3]]  # an odd cell is never read
    # the positions of rows 3 and 1, not the rows
    assert starved.value.rows.tolist() == [0, 2]
    assert len(yields.seen) == SPIN_LIMIT
    # the scalar read carries no rows
    with pytest.raises(SeqlockStarved) as scalar:
        lock.read(1, lambda: None)
    assert scalar.value.rows is None


def test_a_saturating_writer_starves_only_its_own_row(yields):
    lock = Seqlock(cells(3))

    def every_copy_races_a_commit_of_row_2(count):
        with lock.write(2):
            pass

    calls = []
    with pytest.raises(SeqlockStarved) as starved:
        lock.read_many(
            np.asarray([2, 0, 1]),
            recording_copy(calls, every_copy_races_a_commit_of_row_2),
        )
    assert calls == [[0, 1, 2]] + [[0]] * (SPIN_LIMIT - 1)
    assert starved.value.rows.tolist() == [0]
    assert int(lock.cells[2]) == 2 * SPIN_LIMIT  # left even


def _child_writer(lock, payload, window_open, may_commit):
    lock.begin(1)
    payload[0] = 41
    window_open.set()
    may_commit.wait(10.0)
    payload[0] = 42
    lock.end(1)


def test_a_cell_on_an_arena_page_bumped_in_a_forked_child_is_observed():
    ctx = multiprocessing.get_context("fork")
    arena = ShmArena(tag="seqlock-test")
    try:
        lock = Seqlock(arena.alloc((2,), np.int64))
        payload = arena.alloc((1,), np.int64)
        window_open, may_commit = ctx.Event(), ctx.Event()
        child = ctx.Process(
            target=_child_writer,
            args=(lock, payload, window_open, may_commit),
        )
        child.start()
        try:
            assert window_open.wait(10.0)
            # the child's odd window is visible here: the read starves
            # instead of returning the half-written payload
            assert int(lock.cells[1]) == 1
            with pytest.raises(SeqlockStarved):
                lock.read(1, lambda: int(payload[0]))
        finally:
            may_commit.set()
            child.join(10.0)
        assert not child.is_alive() and child.exitcode == 0
        assert lock.read(1, lambda: int(payload[0])) == 42
        assert lock.cells.tolist() == [0, 2]
        del lock, payload
    finally:
        arena.close()


def test_threaded_readers_never_see_a_torn_pair():
    """More readers than cores against a flat-out writer.

    The writer keeps ``pair == (n, 2n)``; a torn read would break that.
    Starved readers take the writer's lock, as every in-process call
    site does.
    """
    lock = Seqlock(cells())
    writer_lock = threading.Lock()
    pair = [0, 0]
    stop = threading.Event()
    torn: list[tuple[int, int]] = []
    reads = [0]

    def read_pair():
        return pair[0], pair[1]

    def writer():
        n = 0
        while not stop.is_set():
            n += 1
            with writer_lock, lock.write(0):
                pair[0] = n
                pair[1] = 2 * n

    def reader():
        while not stop.is_set():
            try:
                a, b = lock.read(0, read_pair)
            except SeqlockStarved:
                with writer_lock:
                    a, b = read_pair()
            if b != 2 * a:
                torn.append((a, b))
            reads[0] += 1

    threads = [threading.Thread(target=writer)] + [
        threading.Thread(target=reader) for __ in range(6)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        stop.wait(0.4)
    finally:
        stop.set()
        for thread in threads:
            thread.join(10.0)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert torn == []
    assert reads[0] > 0 and pair[0] > 0


def test_threaded_block_readers_never_see_a_torn_pair():
    """:func:`test_threaded_readers_never_see_a_torn_pair`, by block.

    The writer keeps ``b[i] == 2 * a[i]`` on a few rows at a time; each
    reader copies every row, in a shuffled order, into its own pair of
    arrays by position through ``read_many`` (starved positions under the
    writer's lock) and checks the invariant on every row it copied.
    """
    n = 16
    lock = Seqlock(cells(n))
    writer_lock = threading.Lock()
    a = np.zeros(n, dtype=np.int64)
    b = np.zeros(n, dtype=np.int64)
    everything = np.random.default_rng(3).permutation(n)
    stop = threading.Event()
    torn: list[tuple[int, int]] = []
    reads = [0]

    def writer():
        rng = np.random.default_rng(5)
        step = 0
        while not stop.is_set():
            step += 1
            rows = rng.choice(n, size=3, replace=False)
            with writer_lock, lock.write(rows):
                a[rows] = step
                b[rows] = 2 * step

    def reader():
        mine_a = np.zeros(n, dtype=np.int64)
        mine_b = np.zeros(n, dtype=np.int64)

        def copy(at):
            rows = everything[at]
            mine_a[at] = a[rows]
            time.sleep(0)  # let the writer in: a tear needs this gap
            mine_b[at] = b[rows]

        while not stop.is_set():
            try:
                lock.read_many(everything, copy)
            except SeqlockStarved as starved:
                with writer_lock:
                    copy(starved.rows)
            bad = np.flatnonzero(mine_b != 2 * mine_a)
            torn.extend((int(mine_a[i]), int(mine_b[i])) for i in bad)
            reads[0] += 1

    threads = [threading.Thread(target=writer)] + [
        threading.Thread(target=reader) for __ in range(6)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        stop.wait(0.4)
    finally:
        stop.set()
        for thread in threads:
            thread.join(10.0)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert torn == []
    assert reads[0] > 0 and int(a.max()) > 0

"""The one seqlock: odd/even generation cells and their bounded reader.

The Fig. 4 loop rewards, punishes and decays the Smart User Model while
the Advice stage reads it; what lets a reader see a consistent row, column
layout or ``(index, generation)`` pair *without blocking the writer* is
the same protocol everywhere:

* a **writer** — already serialized by its own lock, or single by
  protocol — bumps a cell to *odd* before it mutates and back to *even*
  after (:meth:`Seqlock.write`, or :meth:`Seqlock.begin` /
  :meth:`Seqlock.end` when the window is not one lexical block);
* a **reader** runs its copy between two *equal, even* observations of
  the cell and retries otherwise (:meth:`Seqlock.read`; a block of
  cells by :meth:`Seqlock.read_many`, retrying only the positions that
  lost).

The cells are an int64 ndarray the caller hands in — a heap array or a
:meth:`~repro.core.shm_store.ShmArena.alloc` page — so a seqlock is as
shareable across processes as its memory is.
One cell makes an epoch; one cell per row makes row generations, and
:meth:`Seqlock.grow` swaps in a larger array the way the column families
swap theirs (readers catch the swap by identity).

The reader is bounded: after :data:`SPIN_LIMIT` failed attempts it raises
:class:`SeqlockStarved` and the *call site* decides what starvation means
— an in-process reader copies once under the writer's own lock, while a
reader whose writer is another process could only wait.  That choice
genuinely differs per caller, so it is not made here.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, TypeVar

import numpy as np

_T = TypeVar("_T")

#: optimistic attempts before a read reports starvation: large enough
#: that any writer with idle time between commits loses a round, small
#: enough that a saturating writer (numpy releases the GIL *inside* its
#: odd window, which is exactly where a reader thread gets scheduled)
#: costs a reader about a millisecond, not forever
SPIN_LIMIT = 512


class SeqlockStarved(RuntimeError):
    """A read never saw a quiet even window in its bound."""

    #: the positions (into its ``idx``) a :meth:`Seqlock.read_many` left
    #: unfinished
    rows: np.ndarray | None = None


class Seqlock:
    """Odd/even generation counters over caller-provided int64 ``cells``."""

    __slots__ = ("cells",)

    def __init__(self, cells: np.ndarray) -> None:
        if cells.dtype != np.int64 or cells.ndim != 1:
            raise TypeError(
                "seqlock cells must be a 1-d int64 array, got "
                f"{cells.dtype} with shape {cells.shape}"
            )
        self.cells = cells

    # -- writer side (caller holds its writer lock) ---------------------------

    def begin(self, idx: Any) -> None:
        """Open the write window on ``idx`` (even -> odd).

        ``idx`` is anything numpy indexes with; an index array must name
        each cell once, so the bump is one increment per cell.
        """
        self.cells[idx] += 1

    def end(self, idx: Any) -> None:
        """Close the write window on ``idx`` (odd -> even)."""
        self.cells[idx] += 1

    @contextmanager
    def write(self, idx: Any) -> Iterator[None]:
        """``begin``/``end`` around a block; even again even if it raises."""
        self.begin(idx)
        try:
            yield
        finally:
            self.end(idx)

    def grow(self, cells: np.ndarray) -> None:
        """Swap in a larger ``cells`` array carrying the current values.

        Writer side.  A read in flight on the old array fails its
        identity check and retries on the new one.
        """
        cells[: self.cells.shape[0]] = self.cells
        self.cells = cells

    # -- reader side (lock-free) ----------------------------------------------

    def read(self, idx: int, copy: Callable[..., _T], *args: Any) -> _T:
        """``copy(*args)`` taken while cell ``idx`` was even and unchanged.

        Each attempt re-fetches ``cells`` (a :meth:`grow` between the two
        observations is caught by identity), skips the copy while the
        cell is odd, and yields the GIL before trying again.  Raises
        :class:`SeqlockStarved` after :data:`SPIN_LIMIT` attempts.
        """
        for __ in range(SPIN_LIMIT):
            cells = self.cells
            if idx < cells.shape[0]:  # else: racing a grow(); re-fetch
                before = int(cells[idx])
                if not before & 1:
                    value = copy(*args)
                    if self.cells is cells and int(cells[idx]) == before:
                        return value
            time.sleep(0)
        raise SeqlockStarved(
            f"cell {idx} never held an even generation across a copy in "
            f"{SPIN_LIMIT} attempts"
        )

    def read_many(
        self, idx: np.ndarray, copy: Callable[[np.ndarray], object]
    ) -> None:
        """:meth:`read` for many cells: ``copy(positions)``, idempotent per
        position.

        ``positions`` index into ``idx``, so a copy can scatter its result
        by position whatever ``idx`` repeats.  One gather of the cells,
        ``copy`` once for the positions whose cell is even, a second
        gather; a position is done iff its cell is unchanged and
        ``cells`` is still the same array.  Only the positions that lost
        are retried, after the same yield, inside the same bound; then
        :class:`SeqlockStarved` carries the unfinished positions
        (``rows``).
        """
        rows = np.asarray(idx, dtype=np.intp)
        pending = np.arange(rows.size)
        if not pending.size:
            return
        for __ in range(SPIN_LIMIT):
            cells = self.cells
            # a row past the cells is racing a grow(): never quiet
            before = cells.take(rows, mode="clip")
            quiet = ((before & 1) == 0) & (rows < cells.shape[0])
            if quiet.any():
                copy(pending if quiet.all() else pending[quiet])
                if self.cells is cells:
                    done = quiet & (cells.take(rows, mode="clip") == before)
                    if done.all():
                        return
                    pending, rows = pending[~done], rows[~done]
            time.sleep(0)
        starved = SeqlockStarved(
            f"{pending.size} cells never held an even generation across a "
            f"copy in {SPIN_LIMIT} attempts"
        )
        starved.rows = pending
        raise starved

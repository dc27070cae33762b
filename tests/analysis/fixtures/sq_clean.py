"""Clean twin of ``sq_violations``: every legal seqlock reader shape.

The same primitives that are violations there are legal here — handed
as a callable to ``Seqlock.read`` / ``Seqlock.read_many`` (directly or
inside a lambda), run under the declared writer lock (raw attribute or
public accessor), or the starvation fallback that combines both.  A
primitive under two seqlocks runs inside both reads, nested, or under
the writer lock.  A primitive's own body may call another primitive its
own seqlocks protect: its caller already holds those windows.
"""

import threading

from repro.analysis.contracts import declare_seqlock
from repro.core.seqlock import SeqlockStarved

declare_seqlock(
    "CleanMirrorTable.row_generations",
    protects=("refresh_row", "copy_row", "refresh_rows", "copy_rows"),
    writer_lock="CleanMirrorTable._lock",
)
# one primitive under two seqlocks, and a window primitive under one
declare_seqlock(
    "CleanPagedTable.row_generations",
    protects=("_row_copy",),
    writer_lock="CleanPagedTable._lock",
)
declare_seqlock(
    "CleanPagedTable.layout_epoch",
    protects=("_row_copy", "_rows_window"),
    writer_lock="CleanPagedTable._lock",
)
# single-writer-by-protocol (another process): no lock shape exists
declare_seqlock(
    "CleanControlBlock.layout_seq",
    protects=("_read_published",),
)


class CleanMirror:
    def __init__(self, families) -> None:
        self.families = families

    def refresh_row(self, row: int) -> None:
        for family in self.families:
            family.copy_row(row)

    def refresh_rows(self, rows) -> None:
        for family in self.families:
            family.copy_rows(rows)


class CleanMirrorTable:
    def __init__(self, mirror, row_generations) -> None:
        self._lock = threading.Lock()
        self.mirror = mirror
        self.row_generations = row_generations

    @property
    def writer_lock(self):
        return self._lock


class ReadingCapture:
    """The optimistic shape: the primitive runs inside Seqlock.read."""

    def __init__(self, table: CleanMirrorTable) -> None:
        self.table = table

    def capture(self, row: int) -> None:
        self.table.row_generations.read(row, self.table.mirror.refresh_row, row)

    def capture_via_lambda(self, row: int) -> None:
        self.table.row_generations.read(row, lambda: self.table.mirror.copy_row(row))

    def capture_bounded(self, row: int) -> None:
        try:
            self.table.row_generations.read(row, self.table.mirror.refresh_row, row)
        except SeqlockStarved:
            with self.table.writer_lock:  # starved: exclude writers
                self.table.mirror.refresh_row(row)

    def capture_block(self, rows) -> None:
        try:
            self.table.row_generations.read_many(rows, self.table.mirror.refresh_rows)
        except SeqlockStarved as starved:
            with self.table.writer_lock:  # only the rows that starved
                self.table.mirror.refresh_rows(starved.rows)


class LockedCopier:
    """Any caller is fine under the declared writer lock."""

    def __init__(self, table: CleanMirrorTable) -> None:
        self.table = table

    def snapshot(self, row: int) -> None:
        with self.table._lock:
            self.table.mirror.copy_row(row)

    def snapshot_all(self, rows) -> None:
        with self.table.writer_lock:
            copy = self.table.mirror.refresh_row
            for row in rows:
                copy(row)


class CleanControlBlock:
    def __init__(self, layout_seq, slots) -> None:
        self.layout_seq = layout_seq
        self.slots = slots

    def _read_published(self):
        return bytes(self.slots)

    def read_layout(self):
        return self.layout_seq.read(0, self._read_published)


class CleanPagedTable:
    """A row copy needs its row's generation *and* the layout epoch."""

    def __init__(self, row_generations, layout_epoch, pages) -> None:
        self._lock = threading.Lock()
        self.row_generations = row_generations
        self.layout_epoch = layout_epoch
        self.pages = pages

    def _row_copy(self, row: int):
        return bytes(self.pages[row])

    def read_row(self, row: int):
        try:
            return self.layout_epoch.read(0, lambda: self.row_generations.read(
                row, self._row_copy, row
            ))
        except SeqlockStarved:
            with self._lock:  # starved: exclude writers outright
                return self._row_copy(row)

    def _rows_window(self, rows):
        # runs inside the layout window: only the row generation is left
        return [self.row_generations.read(row, self._row_copy, row) for row in rows]

    def read_rows(self, rows):
        return self.layout_epoch.read(0, self._rows_window, rows)

"""Seeded seqlock-discipline violations: SQ001.

Each offending line carries a ``# [RULE]`` marker; the analyzer tests
assert the finding set equals the marker set exactly.
"""

import threading

from repro.analysis.contracts import declare_seqlock

declare_seqlock(
    "MirrorTable.row_generations",
    protects=("refresh_row", "copy_row", "refresh_rows", "copy_rows"),
    writer_lock="MirrorTable._lock",
)
declare_seqlock(
    "PagedTable.row_generations",
    protects=("_row_copy",),
    writer_lock="PagedTable._lock",
)
declare_seqlock(
    "PagedTable.layout_epoch",
    protects=("_row_copy",),
    writer_lock="PagedTable._lock",
)
declare_seqlock(
    "ControlBlock.layout_seq",
    protects=("_read_published",),
)


class MirrorTable:
    def __init__(self, mirror, row_generations) -> None:
        self._lock = threading.Lock()
        self._other_lock = threading.Lock()
        self.mirror = mirror
        self.row_generations = row_generations


class TornCapture:
    """Runs the copy primitives with no validated window around them."""

    def __init__(self, table: MirrorTable) -> None:
        self.table = table

    def capture(self, row: int) -> None:
        self.table.mirror.refresh_row(row)  # [SQ001]

    def capture_many(self, rows) -> None:
        for row in rows:  # a hand-rolled loop is not the protocol
            if self.table.row_generations.cells[row] & 1:
                continue
            self.table.mirror.refresh_row(row)  # [SQ001]

    def capture_after_read(self, row: int) -> None:
        self.table.row_generations.read(row, self.table.mirror.refresh_row, row)
        self.table.mirror.copy_row(row)  # [SQ001]

    def capture_under_wrong_lock(self, row: int) -> None:
        with self.table._other_lock:
            self.table.mirror.copy_row(row)  # [SQ001]

    def capture_block_bare(self, rows) -> None:
        # one numpy copy is no more atomic than a loop of them
        self.table.mirror.refresh_rows(rows)  # [SQ001]


class ControlBlock:
    def __init__(self, layout_seq, slots) -> None:
        self._lock = threading.Lock()
        self.layout_seq = layout_seq
        self.slots = slots

    def _read_published(self):
        return bytes(self.slots)

    def read_layout(self):
        # no writer lock is declared for this seqlock: a local lock
        # cannot exclude the writer process, so it is no legal shape
        with self._lock:
            return self._read_published()  # [SQ001]


class PagedTable:
    """A primitive under two seqlocks, discharged for one of them only."""

    def __init__(self, row_generations, layout_epoch, pages) -> None:
        self._lock = threading.Lock()
        self.row_generations = row_generations
        self.layout_epoch = layout_epoch
        self.pages = pages

    def _row_copy(self, row: int):
        return bytes(self.pages[row])

    def read_row_outside_its_generation(self, row: int):
        return self.layout_epoch.read(0, lambda: self._row_copy(row))  # [SQ001]

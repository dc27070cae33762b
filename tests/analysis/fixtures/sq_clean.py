"""Clean twin of ``sq_violations``: every legal seqlock reader shape.

The same primitives that are violations there are legal here — handed
as a callable to ``Seqlock.read`` / ``Seqlock.read_many`` (directly or
inside a lambda), run under the declared writer lock (raw attribute or
public accessor), or the starvation fallback that combines both.  A
primitive's own body may call another primitive: its caller already
holds the obligation.
"""

import threading

from repro.analysis.contracts import declare_seqlock
from repro.core.seqlock import SeqlockStarved

declare_seqlock(
    "CleanMirrorTable.row_generations",
    protects=("refresh_row", "copy_row", "refresh_rows", "copy_rows"),
    writer_lock="CleanMirrorTable._lock",
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
    def __init__(self, mirror, gens) -> None:
        self._lock = threading.Lock()
        self.mirror = mirror
        self.gens = gens

    @property
    def writer_lock(self):
        return self._lock


class ReadingCapture:
    """The optimistic shape: the primitive runs inside Seqlock.read."""

    def __init__(self, table: CleanMirrorTable) -> None:
        self.table = table

    def capture(self, row: int) -> None:
        self.table.gens.read(row, self.table.mirror.refresh_row, row)

    def capture_via_lambda(self, row: int) -> None:
        self.table.gens.read(row, lambda: self.table.mirror.copy_row(row))

    def capture_bounded(self, row: int) -> None:
        try:
            self.table.gens.read(row, self.table.mirror.refresh_row, row)
        except SeqlockStarved:
            with self.table.writer_lock:  # starved: exclude writers
                self.table.mirror.refresh_row(row)

    def capture_block(self, rows) -> None:
        try:
            self.table.gens.read_many(rows, self.table.mirror.refresh_rows)
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
    def __init__(self, seq, slots) -> None:
        self.seq = seq
        self.slots = slots

    def _read_published(self):
        return bytes(self.slots)

    def read_layout(self):
        return self.seq.read(0, self._read_published)

"""Every edge source of the static lock graph, in clean code.

The graph bounds what the runtime witness may observe; this module gives
it one edge of each kind: a nested ``with``, an acquisition reached
through a chain of calls, a ``declare_order`` edge the AST cannot see,
and an alias or re-entry of the held lock, which must add no self-edge.
"""

import threading

from repro.analysis.contracts import declare_lock, declare_order

declare_lock("Ledger._lock", reentrant=True, aliases=("Ledger._settled",))
declare_order("Ledger._lock", "Archive._lock")


class Archive:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.pages: list[str] = []

    def store(self, page: str) -> None:
        with self._lock:
            self.pages.append(page)


class Journal:
    def __init__(self) -> None:
        self._lock = threading.Lock()

    def note(self) -> None:
        with self._lock:
            pass


class Ledger:
    def __init__(self, journal: Journal) -> None:
        self._lock = threading.RLock()
        self._settled = threading.Condition(self._lock)
        self._audit_lock = threading.Lock()
        self.journal = journal
        self.total = 0

    def post(self, amount: int) -> None:
        with self._lock:
            with self._audit_lock:
                self.total += amount

    def settle(self) -> None:
        with self._lock:
            self._flush()

    def _flush(self) -> None:
        self._record()

    def _record(self) -> None:
        self.journal.note()

    def archive_to(self, sink) -> None:
        # ``sink`` is untyped: the Archive._lock it takes is invisible
        # here, so only the declare_order above puts the edge in the graph
        with self._lock:
            sink.store(str(self.total))

    def wait_settled(self) -> None:
        with self._settled:
            with self._lock:
                self._settled.wait(0)

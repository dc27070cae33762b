"""Clean twin of ``ld_violations``: identical writes, all under the lock."""

import threading

from repro.analysis.contracts import guarded_by, requires_lock


@guarded_by("_lock", "_counts", "_total")
class TidyCounter:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: dict[str, int] = {}
        self._total = 0

    def bump(self, key: str) -> None:
        with self._lock:
            self._counts[key] = self._counts.get(key, 0) + 1
            self._total += 1

    def forget(self, key: str) -> None:
        with self._lock:
            self._counts.pop(key, None)

    @requires_lock("_lock")
    def _rebalance(self) -> None:
        self._total = sum(self._counts.values())

    def rebalance(self) -> None:
        with self._lock:
            self._rebalance()

    def snapshot(self) -> dict[str, int]:
        # Reads of guarded state are not writes; no lock required by LD001.
        return dict(self._counts)

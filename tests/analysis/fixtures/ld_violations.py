"""Seeded lock-discipline violations: LD001, LD002.

Each offending line carries a ``# [RULE]`` marker; the analyzer tests
assert the finding set equals the marker set exactly.
"""

import threading

from repro.analysis.contracts import guarded_by, requires_lock


@guarded_by("_lock", "_counts", "_total")
class LeakyCounter:
    """Guards declared, then ignored: every write below dodges the lock."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: dict[str, int] = {}
        self._total = 0

    def bump(self, key: str) -> None:
        self._counts[key] = self._counts.get(key, 0) + 1  # [LD001]
        self._total += 1  # [LD001]

    def forget(self, key: str) -> None:
        self._counts.pop(key, None)  # [LD001]

    @requires_lock("_lock")
    def _rebalance(self) -> None:
        self._total = sum(self._counts.values())

    def rebalance(self) -> None:
        self._rebalance()  # [LD002]

"""Run a driver's tick on a fixed cadence: one thread class, one mixin.

The checkpointer, the replica refresher and the index refresher are all
"do ``tick()`` every ``interval`` seconds on a daemon thread, or call it
yourself" drivers.  They share this module — it sits in :mod:`repro.core`
because both :mod:`repro.serving` and :mod:`repro.retrieval` (which the
service imports) must be able to reach it.
"""

from __future__ import annotations

import logging
import threading
from typing import Any, Callable, Self

_LOG = logging.getLogger(__name__)


class Cadence(threading.Thread):
    """Run ``tick`` every ``interval`` seconds until stopped (daemon).

    A failing tick must not kill the cadence — the owner keeps serving
    its previous generation and the next tick retries — but it must not
    vanish either: each failure is logged with its traceback and counted
    on ``failures`` (the owner's ``*.cadence_failures`` counter).
    """

    def __init__(
        self,
        tick: Callable[[], object],
        interval: float,
        name: str,
        failures: Any,
    ) -> None:
        super().__init__(name=name, daemon=True)
        self._tick = tick
        self._interval = float(interval)
        self._failures = failures
        self._stop_event = threading.Event()

    def run(self) -> None:
        while not self._stop_event.wait(self._interval):
            try:
                self._tick()
            except Exception:
                _LOG.exception("cadence %s: tick failed", self.name)
                self._failures.inc()

    def stop(self, timeout: float | None = 5.0) -> None:
        self._stop_event.set()
        if self.is_alive():
            self.join(timeout)


class CadenceDriven:
    """``start``/``stop``/context-manager surface over one :class:`Cadence`.

    Subclasses call :meth:`_init_cadence` from their constructor with the
    bound method to run, the configured interval (``None`` = manual
    ticks only), the thread name and their failure counter.
    """

    interval: float | None
    _thread: Cadence | None

    def _init_cadence(
        self,
        tick: Callable[[], object],
        interval: float | None,
        name: str,
        failures: Any,
    ) -> None:
        self.interval = interval
        self._thread = None
        self._cadence_args = (tick, name, failures)

    def start(self) -> Self:
        """Start ticking on the configured ``interval``; returns ``self``."""
        tick, name, failures = self._cadence_args
        if self.interval is None:
            raise ValueError(
                f"no interval configured; call {tick.__name__}() instead"
            )
        if self._thread is None or not self._thread.is_alive():
            self._thread = Cadence(tick, self.interval, name, failures)
            self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is not None:
            self._thread.stop()
            self._thread = None

    def __enter__(self) -> Self:
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

"""The replica refresh protocol: primary checkpoints, replicas swap.

PR 4 gave replicas memory-mapped, read-only column pages — point in
time, frozen at load.  This module closes the loop (the ROADMAP
"replica refresh protocol" item) with two small drivers around the
generation-stamped layout of :mod:`repro.core.sharded_store`:

* :class:`Checkpointer` — the **primary** side.  On demand (or on a
  cadence) it calls :meth:`~repro.core.sharded_store.ShardedSumStore.
  save`, which writes one complete new generation directory and
  atomically republishes ``manifest.json``.  Given the streaming
  layer's :class:`~repro.streaming.cache.SumCache` it stamps the
  checkpoint with the cache's per-user version counters, so replicas
  report real version floors.

* :class:`ReplicaRefresher` — the **replica** side.  It polls the
  manifest; on a new generation it ``load(mmap=True)``-s the pages in
  the background (requests keep serving the old store the whole time)
  and then :meth:`~repro.serving.service.RecommendationService.
  swap_sums` — one atomic attribute store.  In-flight requests hold
  the resolver they captured at entry (the old mmap stays valid), new
  requests see the new generation: bounded staleness with no restart,
  no torn reads, and monotonically non-decreasing generation stamps on
  served responses.

Both drivers work synchronously (``checkpoint()`` / ``poll()``) for
deterministic tests and offline pipelines, or as daemon threads
(``start()`` with an ``interval``) for live deployments.
"""

from __future__ import annotations

import shutil
import threading
from pathlib import Path
from time import perf_counter
from typing import Callable

from repro.analysis.contracts import declare_lock, guarded_by
from repro.core.cadence import CadenceDriven
from repro.core.sharded_store import (
    ShardedSumStore,
    generation_dirs,
    read_manifest,
)
from repro.obs.metrics import (
    MetricsRegistry,
    NullRegistry,
    labelled,
    resolve_registry,
)
from repro.serving.service import RecommendationService


declare_lock("Checkpointer._checkpoint_lock")
declare_lock("ReplicaRefresher._poll_lock")


class Checkpointer(CadenceDriven):
    """Primary-side cadence: persist new generations of the SUM plane.

    Parameters
    ----------
    store:
        The writable :class:`~repro.core.sharded_store.ShardedSumStore`
        (the generation-stamped save layout lives there).
    directory:
        Checkpoint root; each :meth:`checkpoint` adds a ``gen-XXXXXX``
        directory and republishes ``manifest.json``.
    cache:
        Optional :class:`~repro.streaming.cache.SumCache` over ``store``;
        when given, each checkpoint is stamped with the cache's per-user
        version counters and global version, so replicas serve real
        version floors instead of bare generation numbers.
    retain:
        Keep at most this many generation directories (older ones are
        pruned after each checkpoint; the manifest's current generation
        is always kept).  ``None`` keeps everything.  On POSIX, pruning
        a generation a replica still has mapped is safe — the pages stay
        alive until unmapped.  A replica *mid-load* of a pruned
        generation fails that one refresh and retries at the newer
        manifest on its next poll (see :meth:`ReplicaRefresher.poll`);
        keep ``retain >= 2`` when replicas poll on a cadence so the
        window stays one-checkpoint wide.
    interval:
        Cadence in seconds for :meth:`start`; ``None`` (default) means
        checkpoints only happen on explicit :meth:`checkpoint` calls.
    """

    def __init__(
        self,
        store: ShardedSumStore,
        directory: str | Path,
        *,
        cache=None,
        retain: int | None = None,
        interval: float | None = None,
        telemetry: MetricsRegistry | NullRegistry | None = None,
    ) -> None:
        if retain is not None and retain < 1:
            raise ValueError(f"retain must be >= 1, got {retain}")
        self.store = store
        self.directory = Path(directory)
        self.cache = cache
        self.retain = retain
        self._checkpoint_lock = threading.Lock()
        registry = resolve_registry(telemetry)
        self._init_cadence(
            self.checkpoint, interval, "sum-checkpointer",
            registry.counter(
                labelled("replica.cadence_failures", driver="checkpointer")
            ),
        )
        self._m_checkpoints = registry.counter("replica.checkpoints")
        self._m_checkpoint_seconds = registry.histogram(
            "replica.checkpoint_seconds"
        )
        self._g_generation = registry.gauge("replica.checkpoint_generation")

    def checkpoint(self) -> int:
        """Write one new generation; returns its generation number."""
        started = perf_counter()
        with self._checkpoint_lock:
            versions = global_version = None
            if self.cache is not None:
                versions = self.cache.versions_snapshot()
                global_version = self.cache.global_version
            written = self.store.save(
                self.directory,
                versions=versions,
                global_version=global_version,
            )
            generation = int(written.name[len("gen-"):])
            self._prune(generation)
        # instruments record after the lock releases (leaf-lock rule)
        self._m_checkpoints.inc()
        self._m_checkpoint_seconds.observe(perf_counter() - started)
        self._g_generation.set(float(generation))
        return generation

    def _prune(self, current: int) -> None:
        if self.retain is None:
            return
        floor = current - self.retain + 1
        for generation, path in generation_dirs(self.directory):
            if generation < floor and generation != current:
                shutil.rmtree(path, ignore_errors=True)


@guarded_by("_poll_lock", "generation", "_manifest_target")
class ReplicaRefresher(CadenceDriven):
    """Replica-side cadence: poll the manifest, load, atomically swap.

    Parameters
    ----------
    directory:
        The checkpoint root a :class:`Checkpointer` publishes to (shared
        filesystem, rsync target, ...).
    service:
        The live :class:`~repro.serving.service.RecommendationService`
        to refresh; its ``sums`` is replaced via
        :meth:`~repro.serving.service.RecommendationService.swap_sums`.
    mmap:
        Load generations as read-only memory maps (the replica layout;
        default) or as in-process copies.
    interval:
        Poll cadence in seconds for :meth:`start`; ``None`` (default)
        means refreshes only happen on explicit :meth:`poll` calls.
    loader:
        Store loader, ``(directory, mmap=...) -> store`` — defaults to
        :meth:`~repro.core.sharded_store.ShardedSumStore.load`.
    """

    def __init__(
        self,
        directory: str | Path,
        service: RecommendationService,
        *,
        mmap: bool = True,
        interval: float | None = None,
        loader: Callable[..., object] | None = None,
        telemetry: MetricsRegistry | NullRegistry | None = None,
    ) -> None:
        self.directory = Path(directory)
        self.service = service
        self.mmap = bool(mmap)
        self._loader = loader if loader is not None else ShardedSumStore.load
        #: generation currently served (seeded from the service's sums
        #: when it already holds a generation-loaded store)
        self.generation: int | None = service.sum_generation()
        #: newest manifest generation seen by poll() (drives the lag gauge)
        self._manifest_target: int | None = self.generation
        self._poll_lock = threading.Lock()
        registry = resolve_registry(telemetry)
        self._init_cadence(
            self.poll, interval, "sum-replica-refresher",
            registry.counter(
                labelled("replica.cadence_failures", driver="refresher")
            ),
        )
        self._m_refreshes = registry.counter("replica.refreshes")
        self._m_swap_seconds = registry.histogram("replica.swap_seconds")
        registry.gauge(
            "replica.generation",
            fn=lambda: float(self.generation if self.generation is not None else -1),
        )
        # generation age: how many checkpoints the served store is behind
        # the newest manifest this replica has observed
        registry.gauge(
            "replica.generation_lag",
            fn=lambda: float(
                (self._manifest_target or 0) - (self.generation or 0)
            ),
        )

    def poll(self) -> int | None:
        """Refresh if the manifest advanced; returns the new generation.

        The expensive part — loading the new generation's pages — runs
        *before* the swap, with the service still serving the old store;
        the swap itself is one atomic attribute store.  Returns ``None``
        when there is no manifest yet or the served generation is
        already current.  Served stamps are monotonic: the manifest's
        generation counter only ever increases, and a stale manifest
        read simply refreshes one poll later.

        A load that races the checkpointer's retention pruning (the
        generation vanished between the manifest read and the page
        reads) is swallowed: the service keeps serving its current
        store and the next poll follows the newer manifest.
        """
        started = perf_counter()
        refreshed = None
        with self._poll_lock:
            manifest = read_manifest(self.directory)
            if manifest is None:
                return None
            target = int(manifest["generation"])
            self._manifest_target = target
            if self.generation is not None and target <= self.generation:
                return None
            try:
                store = self._loader(self.directory, mmap=self.mmap)
            except (OSError, ValueError, KeyError):
                # pruned mid-load (or a torn copy on a non-atomic
                # transport): never tear down serving over a refresh
                return None
            generation = store.snapshot_generation
            self.service.swap_sums(store)
            self.generation = (
                int(generation) if generation is not None else target
            )
            refreshed = self.generation
        # instruments record after the lock releases (leaf-lock rule)
        self._m_refreshes.inc()
        self._m_swap_seconds.observe(perf_counter() - started)
        return refreshed

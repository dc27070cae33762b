"""S4 — serving freshness: columnar snapshot reads under streamed writes.

ISSUE 4's tentpole: the streaming serving plane (`RecommendationService`
over `SumCache`) used to fall off the columnar fast path — every read
after a publish rebuilt per-user ``SmartUserModel`` snapshots via
``to_dict()``/``from_dict()``.  A batch read now copies the requested
rows straight out of the live columns, inside their seqlock windows,
and serves them as :class:`~repro.core.sum_store.FrozenSumBatch` column
slices.

This bench drives the *same* write stream into both backends (bit-equal
states by construction), then measures the serving read path —
``score_matrix`` over the whole population with emotional adjustment —
while batches keep landing between reads:

* **object-snapshot baseline** — ``SumCache`` over ``SumRepository``,
  read per user: one ``cache.get`` per user (every touched user's
  snapshot rebuilt from one ``to_dict()`` copy, sealed by
  ``frozen_model``; no ``from_dict``), the Advice stage's
  ``multiplier_matrix`` over that model list (per-model scalar reads),
  times the service's unadjusted grid.  The service itself no longer
  reads per user on any backend, so the bench runs this path itself;
* **columnar snapshots** — ``SumCache`` over ``ColumnarSumStore``: each
  read is the version stamps plus one copy of the population's
  intensity and sensibility rows (``ColumnarSumStore.batch``), then
  everything is column slices.

Assertions, not just numbers:

* adjusted score grids are **bit-equal** across backends every round;
* the columnar read path performs **zero** ``to_dict``/``from_dict``
  object rebuilds and materializes zero per-user snapshots
  (allocation-free of per-user work); the object baseline demonstrably
  pays one ``to_dict`` per rebuilt snapshot;
* columnar reads are ≥ ``SPEEDUP_FLOOR`` faster.

Smoke mode for CI (smaller population, relaxed floor)::

    BENCH_SMOKE=1 PYTHONPATH=src python -m pytest \
        benchmarks/bench_serving_freshness.py -q

Full run (the acceptance numbers; 100k users)::

    PYTHONPATH=src python -m pytest benchmarks/bench_serving_freshness.py -q
"""

from __future__ import annotations

import os
import time
from functools import partial

import numpy as np

from benchmarks.conftest import record_artifact
from repro.core.advice import DomainProfile
from repro.core.emotions import EMOTION_NAMES
from repro.core.reward import ReinforcementPolicy
from repro.core.sum_model import SmartUserModel, SumRepository
from repro.core.sum_store import ColumnarSumStore, FrozenSumBatch
from repro.core.updates import RewardOp
from repro.datagen.catalog import AFFINITY_LINKS
from repro.serving import RecommendationService
from repro.streaming.cache import SumCache

SMOKE = bool(os.environ.get("BENCH_SMOKE"))
N_USERS = 5_000 if SMOKE else 100_000
#: users rewarded between consecutive reads ("sustained streamed writes")
WRITES_PER_ROUND = 200 if SMOKE else 2_000
ROUNDS = 5 if SMOKE else 3
#: minimum columnar speedup (acceptance: ≥5x at 100k users; smoke relaxes
#: for noisy shared CI runners)
SPEEDUP_FLOOR = 1.5 if SMOKE else 5.0

PROFILE = DomainProfile("courses", AFFINITY_LINKS)
N_ITEMS = 8


class OnesScorer:
    """Flat batch scorer: isolates the model-resolution + Advice path."""

    def score_batch(self, user_ids, items):
        return np.ones((len(user_ids), len(items)))


def build_population(backend_cls, seed: int = 7):
    """One seeded object population, copied into ``backend_cls`` →
    bit-equal states."""
    rng = np.random.default_rng(seed)
    intensity = rng.uniform(0.0, 1.0, size=(N_USERS, len(EMOTION_NAMES)))
    weight = rng.uniform(0.0, 1.0, size=(N_USERS, len(EMOTION_NAMES)))
    sums = SumRepository()
    for i in range(N_USERS):
        model = sums.get_or_create(i)
        for j, name in enumerate(EMOTION_NAMES):
            model.emotional.intensities[name] = float(intensity[i, j])
            model.sensibility[name] = float(weight[i, j])
    return sums if backend_cls is SumRepository else backend_cls.from_repository(sums)


def build_service(cache):
    attributes = PROFILE.item_attributes()
    item_attributes = {
        f"course-{i}": {attributes[i % len(attributes)]: 1.0}
        for i in range(N_ITEMS)
    }
    service = RecommendationService(
        sums=cache,
        domain_profile=PROFILE,
        item_attributes=item_attributes,
    )
    service.register("flat", OnesScorer())
    return service, sorted(item_attributes)


def write_rounds(seed: int = 11):
    """The shared write schedule: per-round (user, ops) batches."""
    rng = np.random.default_rng(seed)
    rounds = []
    for __ in range(ROUNDS):
        users = rng.choice(N_USERS, size=WRITES_PER_ROUND, replace=False)
        strengths = rng.uniform(0.2, 1.0, size=WRITES_PER_ROUND)
        emotion_picks = rng.integers(0, len(EMOTION_NAMES), size=WRITES_PER_ROUND)
        rounds.append([
            (
                int(uid),
                (RewardOp((EMOTION_NAMES[int(e)],), float(s)),),
            )
            for uid, s, e in zip(users, strengths, emotion_picks)
        ])
    return rounds


def object_snapshot_grid(cache, service, ids, items):
    """The per-snapshot baseline: one ``cache.get`` per user, the Advice
    stage over the model list, times the unadjusted service grid."""
    models = [cache.get(uid) for uid in ids]
    multiplier = service.advice.multiplier_matrix(
        models, items, service.item_attributes, PROFILE
    )
    return service.score_matrix(ids, items, adjust=False) * multiplier


def apply_round(cache, batch, policy):
    """Commit one write round through the cache's publish path."""
    cache.apply_batch_and_publish(batch, policy)
    cache.mark_batch()


class RebuildCounter:
    """Counts SmartUserModel dict round trips on the read path."""

    def __init__(self) -> None:
        self.to_dict = 0
        self.from_dict = 0

    def __enter__(self):
        self._orig_to = SmartUserModel.to_dict
        self._orig_from = SmartUserModel.__dict__["from_dict"]
        counter = self

        def counting_to_dict(model):
            counter.to_dict += 1
            return counter._orig_to(model)

        @classmethod
        def counting_from_dict(cls, payload):
            counter.from_dict += 1
            return counter._orig_from.__func__(cls, payload)

        SmartUserModel.to_dict = counting_to_dict
        SmartUserModel.from_dict = counting_from_dict
        return self

    def __exit__(self, *exc_info):
        SmartUserModel.to_dict = self._orig_to
        SmartUserModel.from_dict = self._orig_from

    @property
    def total(self) -> int:
        return self.to_dict + self.from_dict


def test_columnar_cache_reads_are_allocation_free_and_faster():
    policy = ReinforcementPolicy()
    rounds = write_rounds()
    ids = list(range(N_USERS))

    results = {}
    grids = {}
    rebuilds = {}
    for label, backend_cls in (
        ("object", SumRepository),
        ("columnar", ColumnarSumStore),
    ):
        cache = SumCache(build_population(backend_cls))
        service, items = build_service(cache)
        read = (
            partial(object_snapshot_grid, cache, service)
            if label == "object" else service.score_matrix
        )
        read(ids, items)  # warm: object snapshots fill
        read_times = []
        with RebuildCounter() as counter:
            for batch in rounds:
                apply_round(cache, batch, policy)
                start = time.perf_counter()
                grid = read(ids, items)
                read_times.append(time.perf_counter() - start)
        results[label] = min(read_times)
        grids[label] = grid
        rebuilds[label] = counter.total
        if label == "columnar":
            # the read path resolves through one frozen row copy —
            # zero object rebuilds, zero per-user snapshot materialization
            assert counter.total == 0, (
                f"columnar read path did {counter.total} dict round trips"
            )
            assert cache.cached_users == 0
            assert isinstance(
                service._resolve_models(ids[:16]), FrozenSumBatch
            )
        else:
            assert counter.total > 0  # the baseline provably pays rebuilds

    assert np.array_equal(grids["object"], grids["columnar"]), (
        "adjusted grids must be bit-equal across backends"
    )

    speedup = results["object"] / results["columnar"]
    lines = [
        f"{N_USERS:,} users × {N_ITEMS} items, {WRITES_PER_ROUND:,} "
        f"rewarded users between reads, {ROUNDS} rounds"
        + (" [SMOKE]" if SMOKE else ""),
        f"  {'read path':<28}{'best read':>12}{'dict round trips':>18}",
        f"  {'object snapshots':<28}{results['object'] * 1e3:>10.1f}ms"
        f"{rebuilds['object']:>18,}",
        f"  {'columnar direct capture':<28}{results['columnar'] * 1e3:>10.1f}ms"
        f"{rebuilds['columnar']:>18,}",
        f"  speedup: {speedup:.1f}x (floor {SPEEDUP_FLOOR}x)",
    ]
    assert speedup >= SPEEDUP_FLOOR, (
        f"columnar {results['columnar']:.4f}s vs object "
        f"{results['object']:.4f}s is only {speedup:.1f}x "
        f"(need ≥{SPEEDUP_FLOOR}x)"
    )
    record_artifact(
        "S4_serving_freshness_smoke" if SMOKE
        else "S4 serving freshness under streamed writes",
        "\n".join(lines),
    )

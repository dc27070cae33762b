"""S3 — columnar SUM store vs the object backend at population scale.

The ROADMAP north-star is emotional state for millions of users; PR 3
moved the population's SUMs into struct-of-arrays columns
(:class:`~repro.core.sum_store.ColumnarSumStore`).  This bench builds
the *same* population on both backends (identical scalar writes, so the
states are bit-equal by construction), then races the three hot batch
paths:

* **population decay tick** — the between-campaigns forgetting pass
  over every user (object: per-model dict passes; columnar: two array
  multiplies);
* **feature_matrix** — the dense feature block the propensity stack
  trains on (object: per-user ``np.concatenate`` + ``vstack``;
  columnar: column slices);
* **boosts_matrix** — the Advice stage's per-user attribute boosts
  (object: per-model scalar reads; columnar: one intensity and one
  sensibility block slice).

Outputs must be *bit-equal* across backends (``np.array_equal``, not
allclose) — the same contract the streaming replay and Fig. 4 pipeline
equivalence tests enforce.

Smoke mode for CI (smaller population, relaxed floor)::

    BENCH_SMOKE=1 PYTHONPATH=src python -m pytest \
        benchmarks/bench_sum_store.py -q

Full run (the acceptance numbers; ~100k users)::

    PYTHONPATH=src python -m pytest benchmarks/bench_sum_store.py -q
"""

from __future__ import annotations

import os
import time

import numpy as np

from benchmarks.conftest import record_artifact
from repro.core.advice import AdviceEngine, DomainProfile
from repro.core.emotions import EMOTION_NAMES
from repro.core.four_branch import BRANCH_ORDER
from repro.core.reward import ReinforcementPolicy
from repro.core.sum_model import SumRepository
from repro.core.sum_store import ColumnarSumStore
from repro.datagen.catalog import AFFINITY_LINKS

SMOKE = bool(os.environ.get("BENCH_SMOKE"))
N_USERS = 5_000 if SMOKE else 100_000
#: minimum columnar speedup demanded per path (acceptance: ≥5x at 100k;
#: smoke mode relaxes for noisy shared CI runners)
SPEEDUP_FLOOR = 1.5 if SMOKE else 5.0
REPEATS = 3

SUBJECTIVE_PREFS = tuple(f"pref[{name}]" for name in
                         ("online", "evening", "short", "technical"))


def build_population(backend_cls, seed: int = 7):
    """Fill one backend with a deterministic synthetic population.

    The population is written on an object repository and copied into
    ``backend_cls``, so both backends' states are bit-identical and every
    timed path must return bit-equal arrays.
    """
    rng = np.random.default_rng(seed)
    intensity = rng.uniform(0.0, 1.0, size=(N_USERS, len(EMOTION_NAMES)))
    weight = rng.uniform(0.0, 1.0, size=(N_USERS, len(EMOTION_NAMES)))
    evidence = rng.integers(1, 40, size=(N_USERS, len(EMOTION_NAMES)))
    prefs = rng.uniform(0.0, 1.0, size=(N_USERS, len(SUBJECTIVE_PREFS)))
    ei = rng.uniform(0.0, 1.0, size=(N_USERS, len(BRANCH_ORDER)))

    sums = SumRepository()
    for i in range(N_USERS):
        model = sums.get_or_create(i)
        for j, name in enumerate(EMOTION_NAMES):
            model.emotional.intensities[name] = float(intensity[i, j])
            model.sensibility[name] = float(weight[i, j])
            model.evidence[name] = int(evidence[i, j])
        for k, pref in enumerate(SUBJECTIVE_PREFS):
            model.subjective[pref] = float(prefs[i, k])
        for b, branch in enumerate(BRANCH_ORDER):
            model.ei_profile.scores[branch] = float(ei[i, b])
    return sums if backend_cls is SumRepository else backend_cls.from_repository(sums)


def best_of(fn, repeats: int = REPEATS) -> float:
    """Best wall-clock of ``repeats`` calls (noise-robust minimum)."""
    best = float("inf")
    for __ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_columnar_store_beats_object_backend():
    repo = build_population(SumRepository)
    store = build_population(ColumnarSumStore)
    policy = ReinforcementPolicy()
    profile = DomainProfile("courses", AFFINITY_LINKS)
    advice = AdviceEngine()
    ids = repo.user_ids()
    models = [repo.get(uid) for uid in ids]

    # -- population decay tick -------------------------------------------
    # Same number of ticks on each backend (REPEATS each), so the states
    # stay comparable afterwards.
    object_decay = best_of(
        lambda: [policy.apply_decay(model) for model in models]
    )
    columnar_decay = best_of(lambda: store.decay_tick(policy))

    # -- feature_matrix ----------------------------------------------------
    object_features = best_of(
        lambda: repo.feature_matrix(subjective_order=SUBJECTIVE_PREFS)
    )
    columnar_features = best_of(
        lambda: store.feature_matrix(subjective_order=SUBJECTIVE_PREFS)
    )
    expected_features, __ = repo.feature_matrix(
        subjective_order=SUBJECTIVE_PREFS
    )
    actual_features, __ = store.feature_matrix(
        subjective_order=SUBJECTIVE_PREFS
    )
    assert np.array_equal(expected_features, actual_features), (
        "feature_matrix must be bit-equal across backends"
    )

    # -- boosts_matrix -----------------------------------------------------
    batch = store.batch(ids)
    object_boosts = best_of(lambda: advice.boosts_matrix(models, profile))
    columnar_boosts = best_of(lambda: advice.boosts_matrix(batch, profile))
    assert np.array_equal(
        advice.boosts_matrix(models, profile),
        advice.boosts_matrix(batch, profile),
    ), "boosts_matrix must be bit-equal across backends"

    results = [
        ("population decay tick", object_decay, columnar_decay),
        ("feature_matrix", object_features, columnar_features),
        ("boosts_matrix", object_boosts, columnar_boosts),
    ]
    lines = [
        f"{N_USERS:,} users, {len(EMOTION_NAMES)} emotions, "
        f"{len(SUBJECTIVE_PREFS)} subjective prefs"
        + (" [SMOKE]" if SMOKE else ""),
        f"  {'path':<24}{'object':>12}{'columnar':>12}{'speedup':>10}",
    ]
    for label, object_s, columnar_s in results:
        speedup = object_s / columnar_s
        lines.append(
            f"  {label:<24}{object_s * 1e3:>10.1f}ms"
            f"{columnar_s * 1e3:>10.2f}ms{speedup:>9.1f}x"
        )
        assert speedup >= SPEEDUP_FLOOR, (
            f"{label}: columnar {columnar_s:.4f}s vs object {object_s:.4f}s "
            f"is only {speedup:.1f}x (need ≥{SPEEDUP_FLOOR}x)"
        )
    # Smoke runs land in their own file so a local/CI smoke pass never
    # clobbers the committed full-run numbers.
    record_artifact(
        "S3_columnar_SUM_store_smoke" if SMOKE
        else "S3 columnar SUM store vs object backend",
        "\n".join(lines),
    )

"""Correctness checks, all outside the timed phases.

The paper's update semantics are the oracle: after the last block the
live state of a sample of users must be *bit-equal* to a sequential
``EmotionalContextPipeline.apply_event`` / ``tick_ops`` replay of
exactly the messages the harness delivered to them, in per-user publish
order.  Exactly-once accounting and (on retrieval workloads) the recall
floor are checked here too.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any

import numpy as np

from repro.core.gradual_eit import GradualEIT, QuestionBank
from repro.core.pipeline import EmotionalContextPipeline
from repro.core.sum_model import SumRepository
from repro.serving import RecommendationRequest, RecommendationService
from repro.streaming.mapper import EventUpdateMapper

from benchmarks.ledger.harness import Tally
from benchmarks.ledger.worlds import K, World

ORACLE_USERS = 500
RECALL_REQUESTS = 20
RECALL_FLOOR = 0.95


def replay_reference(world: World, user_ids: list[int]) -> SumRepository:
    """Sequential replay of the journal, restricted to ``user_ids``."""
    sample = set(user_ids)
    pipeline = EmotionalContextPipeline(
        GradualEIT(QuestionBank.default_bank()), world.updater.policy
    )
    mapper = EventUpdateMapper(world.inputs.catalog.emotions)
    reference = SumRepository()
    positions: dict[int, list[int]] = {}
    for entry in world.journal:
        if entry[0] == "tick":
            for uid in entry[1]:
                if uid in sample:
                    pipeline.apply_update_ops(
                        reference.get_or_create(uid), mapper.tick_ops(uid)
                    )
            continue
        __, events, lo, hi = entry
        hits = positions.get(id(events))
        if hits is None:
            hits = positions[id(events)] = [
                i for i, event in enumerate(events) if event.user_id in sample
            ]
        for i in hits[bisect_left(hits, lo):bisect_left(hits, hi)]:
            event = events[i]
            pipeline.apply_event(
                reference.get_or_create(event.user_id), event, mapper
            )
    return reference


def state_mismatches(world: World, user_ids: list[int]) -> tuple[int, float]:
    """(users whose live state differs from the replay, worst abs diff)."""
    reference = replay_reference(world, user_ids)
    wrong, worst = 0, 0.0
    for uid in user_ids:
        expected = reference.get_or_create(uid)
        actual = world.store.get(uid)
        diff = float(np.max(np.abs(
            actual.emotional_vector() - expected.emotional_vector()
        )))
        keys_equal = set(actual.sensibility) == set(expected.sensibility)
        if keys_equal:
            for name, weight in expected.sensibility.items():
                diff = max(diff, abs(actual.sensibility[name] - weight))
        if diff != 0.0 or not keys_equal:
            wrong += 1
        worst = max(worst, diff)
    return wrong, worst


def journal_messages(world: World) -> int:
    return sum(
        len(entry[1]) if entry[0] == "tick" else entry[3] - entry[2]
        for entry in world.journal
    )


def check_accounting(world: World, tally: Tally) -> dict[str, int]:
    """Exactly-once accounting after the final ``drain()``."""
    stats = world.updater.stats()
    submitted = journal_messages(world)
    counters = {
        "submitted": submitted,
        "applied": stats.applied,
        "dead_lettered": stats.dead_lettered,
        "failed": stats.failed,
        "redelivered": stats.redelivered,
        "shed_background": stats.shed_background,
        "shed_expired": stats.shed_expired,
        "expired_dropped": stats.expired_dropped,
    }
    lost = submitted - stats.applied
    if lost:
        tally.fail(f"{lost} of {submitted} messages unapplied after drain", abs(lost))
    for name in ("dead_lettered", "failed", "shed_background",
                 "shed_expired", "expired_dropped"):
        if counters[name]:
            tally.fail(f"{counters[name]} messages {name}", counters[name])
    return counters


def check_state(world: World, tally: Tally, seed: int) -> tuple[int, float]:
    rng = np.random.default_rng([seed, 0x0AC1E])
    n = min(ORACLE_USERS, world.spec.n_users)
    sample = sorted(
        rng.choice(world.spec.n_users, size=n, replace=False).tolist()
    )
    wrong, worst = state_mismatches(world, sample)
    tally.attempted += n
    if wrong:
        tally.fail(
            f"{wrong} of {n} sampled users differ from the sequential "
            f"replay (max abs diff {worst:g})", wrong,
        )
    return n, worst


def recall_at_k(
    service: RecommendationService, item_ids: list[int], n_users: int,
    seed: int,
) -> float:
    """recall@K of ``items=None`` requests vs the exact adjusted scan."""
    rng = np.random.default_rng([seed, 0x5EC])
    users = rng.integers(0, n_users, size=RECALL_REQUESTS).tolist()
    ids = np.asarray(item_ids)
    hits = 0
    for uid in users:
        served = service.recommend(
            RecommendationRequest(user_id=uid, items=None, k=K)
        )
        scores = service.score_matrix([uid], item_ids)[0]
        exact = ids[np.lexsort((ids, -scores))[:K]].tolist()
        hits += len(set(served.items) & set(exact))
    return hits / (len(users) * K)


def check_recall(world: World, tally: Tally, seed: int) -> float | None:
    if world.retriever is None:
        return None
    recall = recall_at_k(
        world.service, world.inputs.catalog.item_ids, world.spec.n_users, seed
    )
    tally.attempted += RECALL_REQUESTS
    if recall < RECALL_FLOOR:
        tally.fail(f"recall@{K} {recall:.3f} under the {RECALL_FLOOR} floor")
    return recall


def finish_checks(world: World, tally: Tally, seed: int) -> dict[str, Any]:
    """Accounting + oracle + recall, after the last block."""
    counters: dict[str, Any] = dict(check_accounting(world, tally))
    users, worst = check_state(world, tally, seed)
    counters["oracle_users"] = users
    counters["oracle_max_abs_diff"] = worst
    recall = check_recall(world, tally, seed)
    if recall is not None:
        counters["recall_at_10"] = recall
    return counters

"""Seeded, self-contained input generators for the perf ledger.

Everything the program under test receives is made here from ``--seed``:
the catalog (item ids, embedding vectors, sparse Advice attributes, the
item → emotions links the mapper reinforces), the user embedding
vectors, the LifeLog event segment with its decay-tick positions, and
the request schedules.  Same seed → bit-identical inputs; the sizes come
from the workload spec, never from the seed, so every seed is the same
amount of work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.emotions import EMOTION_NAMES
from repro.datagen.catalog import PRODUCT_ATTRIBUTES, CourseCatalog
from repro.datagen.seeds import derive_rng
from repro.lifelog.events import ActionCategory, Event

#: (action, category, weight) — browse-heavy with a commercial tail, the
#: mix the S2/S5 firehoses use; ``catalog_search`` carries no item and
#: therefore maps to no ops, so ``ops_per_event`` is below 1.
ACTION_MIX: tuple[tuple[str, ActionCategory, float], ...] = (
    ("course_view", ActionCategory.NAVIGATION, 0.45),
    ("catalog_search", ActionCategory.NAVIGATION, 0.10),
    ("info_request", ActionCategory.INFO_REQUEST, 0.15),
    ("course_enroll", ActionCategory.ENROLLMENT, 0.05),
    ("opinion_post", ActionCategory.OPINION, 0.10),
    ("course_rate", ActionCategory.RATING, 0.08),
    ("push_open", ActionCategory.CAMPAIGN, 0.04),
    ("push_click", ActionCategory.CAMPAIGN, 0.03),
)

DIM = 16
#: a decay tick of this many users lands after every ``TICK_EVERY``
#: events of the segment (fixed stream positions)
TICK_EVERY = 1_000
TICK_USERS = 20


@dataclass(frozen=True)
class Catalog:
    """The item side of one world (ids are ints == row numbers)."""

    item_ids: list[int]
    item_vectors: np.ndarray
    #: ``item -> {product attribute: presence}`` for the Advice stage
    attributes: dict[int, dict[str, float]]
    #: ``str(item) -> emotions`` for the streaming mapper
    emotions: dict[str, tuple[str, ...]]


def course_catalog(seed: int, n_items: int) -> Catalog:
    """The paper's training-course catalog plus random embeddings."""
    catalog = CourseCatalog.generate(n_items, seed=seed)
    ids = catalog.course_ids()
    rng = derive_rng(seed, "ledger", "course-vectors")
    return Catalog(
        item_ids=ids,
        item_vectors=rng.normal(0.0, 1.0, (len(ids), DIM)),
        attributes={cid: dict(catalog.get(cid).attributes) for cid in ids},
        emotions=catalog.emotion_links(),
    )


def clustered_catalog(
    seed: int,
    n_items: int,
    n_clusters: int = 64,
    noise: float = 0.3,
    coverage: float = 0.05,
    presence: tuple[float, float] = (0.02, 0.10),
) -> Catalog:
    """A synthetic catalog with genuine cluster structure.

    Real catalogs cluster by topic — the regime an IVF index is built
    for.  ``coverage`` of the items carry 1–3 faint product attributes
    (most of a large catalog has no emotional affinity links); every
    item excites 1–2 emotions so any event target yields update ops.

    ``noise`` and ``presence`` are chosen so retrieve-then-rerank can
    honour the recall floor against the exact *adjusted* scan: with
    tight clusters (noise 0.05) and strong presences (0.4–1.0) the
    Advice multiplier of emotionally saturated users (0.8–2.2x) reorders
    far beyond a 256-candidate pool and recall@10 falls to 0.3–0.8; at
    presences of 0.05–0.25 it still dips to 0.945 on one seed in seven.
    """
    rng = derive_rng(seed, "ledger", "clustered-catalog")
    centers = rng.normal(0.0, 1.0, (n_clusters, DIM))
    labels = rng.integers(0, n_clusters, n_items)
    vectors = centers[labels] + rng.normal(0.0, noise, (n_items, DIM))
    with_attrs = rng.choice(n_items, size=int(n_items * coverage), replace=False)
    n_attrs = rng.integers(1, 4, size=len(with_attrs))
    attributes: dict[int, dict[str, float]] = {}
    for item, count in zip(with_attrs.tolist(), n_attrs.tolist()):
        chosen = rng.choice(len(PRODUCT_ATTRIBUTES), size=count, replace=False)
        attributes[item] = {
            PRODUCT_ATTRIBUTES[int(a)]: float(rng.uniform(*presence))
            for a in chosen
        }
    first = rng.integers(0, len(EMOTION_NAMES), n_items)
    second = rng.integers(0, len(EMOTION_NAMES), n_items)
    emotions = {
        str(item): tuple(
            dict.fromkeys((EMOTION_NAMES[a], EMOTION_NAMES[b]))
        )
        for item, (a, b) in enumerate(zip(first.tolist(), second.tolist()))
    }
    return Catalog(
        item_ids=list(range(n_items)),
        item_vectors=vectors,
        attributes=attributes,
        emotions=emotions,
    )


def user_vectors(seed: int, n_users: int) -> np.ndarray:
    return derive_rng(seed, "ledger", "user-vectors").normal(
        0.0, 1.0, (n_users, DIM)
    )


def user_keys(
    rng: np.random.Generator, n: int, n_users: int, zipf: float | None
) -> np.ndarray:
    """``n`` user ids — uniform, or bounded Zipf(``zipf``) over a random
    rank order (hot keys are not the low ids, so modulo routing sees
    them on arbitrary partitions)."""
    if zipf is None:
        return rng.integers(0, n_users, size=n)
    weights = 1.0 / np.arange(1, n_users + 1) ** zipf
    ranks = rng.choice(n_users, size=n, p=weights / weights.sum())
    return rng.permutation(n_users)[ranks]


def event_segment(
    seed: int,
    n_events: int,
    n_users: int,
    item_ids: list[int],
    zipf: float | None = None,
    name: str = "segment",
) -> list[Event]:
    """One LifeLog segment with the :data:`ACTION_MIX` action mix."""
    rng = derive_rng(seed, "ledger", "events", name)
    weights = np.asarray([w for __, __, w in ACTION_MIX])
    kinds = rng.choice(len(ACTION_MIX), size=n_events, p=weights / weights.sum())
    users = user_keys(rng, n_events, n_users, zipf)
    targets = rng.choice(np.asarray(item_ids), size=n_events)
    ratings = rng.integers(1, 6, size=n_events)
    events: list[Event] = []
    for i in range(n_events):
        action, category, __ = ACTION_MIX[int(kinds[i])]
        payload: dict = {"target": str(int(targets[i]))}
        if action == "catalog_search":
            payload = {"q": "search"}
        elif action == "course_rate":
            payload["value"] = str(int(ratings[i]))
        events.append(Event(
            timestamp=1_141_000_000.0 + float(i),
            user_id=int(users[i]),
            action=action,
            category=category,
            payload=payload,
        ))
    return events


def tick_plan(seed: int, n_events: int, n_users: int) -> dict[int, list[int]]:
    """``stream position -> users to decay-tick`` (before that event)."""
    rng = derive_rng(seed, "ledger", "ticks")
    return {
        pos: rng.integers(0, n_users, size=TICK_USERS).tolist()
        for pos in range(TICK_EVERY, n_events, TICK_EVERY)
    }


def request_users(seed: int, n: int, n_users: int, name: str) -> list[int]:
    return derive_rng(seed, "ledger", "requests", name).integers(
        0, n_users, size=n
    ).tolist()

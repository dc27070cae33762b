"""The refresh protocol end to end: checkpoint → poll → atomic swap.

ISSUE 5's acceptance criteria: a live :class:`RecommendationService`
crosses ≥2 checkpoint generations with no restart, no torn reads, and
monotonically non-decreasing served generation stamps — plus the
satellite contracts (in-flight captures bit-stable across a swap,
checkpoint retention, version floors stamped from the streaming cache).
"""

import threading
import time

import numpy as np
import pytest

from repro.core.advice import DomainProfile
from repro.core.reward import ReinforcementPolicy
from repro.core.sharded_store import ShardedSumStore, generation_dirs
from repro.core.updates import RewardOp
from repro.serving import (
    Checkpointer,
    RecommendationRequest,
    RecommendationService,
    ReplicaRefresher,
    SelectionRequest,
)
from repro.streaming.cache import SumCache

POLICY = ReinforcementPolicy()
PROFILE = DomainProfile("t", {"enthusiastic": {"x": 0.5}})
ITEMS = {"i": {"x": 1.0}}


def build_service(sums):
    service = RecommendationService(
        sums=sums, domain_profile=PROFILE, item_attributes=ITEMS
    )
    service.register("flat", lambda model, item: 1.0)
    return service


def set_generation_state(store, g):
    """Make generation ``g`` distinguishable: user 1 holds exactly ``g``
    rewards (its evidence counts them), whatever it held before."""
    held = store.get_or_create(1).evidence.get("enthusiastic", 0)
    reward = RewardOp(("enthusiastic",), 0.25)
    store.batch_apply_ops([(1, (reward,) * (g - held))], POLICY)


def expected_multiplier(g):
    """The multiplier a response served *entirely* at generation g shows."""
    throwaway = ShardedSumStore(n_shards=2)
    set_generation_state(throwaway, g)
    response = build_service(throwaway).recommend(
        RecommendationRequest(user_id=1, items=["i"], k=1)
    )
    return response.ranked[0].multiplier


def test_live_service_crosses_generations_without_restart(tmp_path):
    primary = ShardedSumStore(n_shards=2)
    for uid in range(6):
        primary.get_or_create(uid)
    set_generation_state(primary, 1)
    checkpointer = Checkpointer(primary, tmp_path / "state")
    assert checkpointer.checkpoint() == 1

    service = build_service(ShardedSumStore.load(tmp_path / "state", mmap=True))
    refresher = ReplicaRefresher(tmp_path / "state", service)
    assert refresher.generation == 1

    first = service.recommend(RecommendationRequest(user_id=1, items=["i"], k=1))
    assert first.generation == 1
    assert first.sum_version == 1  # generation floor, never None
    assert first.ranked[0].multiplier == expected_multiplier(1)

    # primary advances two generations; the replica crosses both live
    for g in (2, 3):
        set_generation_state(primary, g)
        assert checkpointer.checkpoint() == g
    assert refresher.poll() == 3
    second = service.recommend(RecommendationRequest(user_id=1, items=["i"], k=1))
    assert second.generation == 3
    assert second.ranked[0].multiplier == expected_multiplier(3)
    assert second.generation >= first.generation
    # already current: nothing to do, stamp unchanged
    assert refresher.poll() is None
    # the replica stays read-only through the whole protocol
    with pytest.raises(TypeError, match="read-only"):
        service.sums.get_or_create(999)


def test_selection_responses_carry_generation_stamps(tmp_path):
    primary = ShardedSumStore(n_shards=2)
    for uid in range(4):
        primary.get_or_create(uid)
    set_generation_state(primary, 1)
    Checkpointer(primary, tmp_path / "state").checkpoint()
    service = build_service(ShardedSumStore.load(tmp_path / "state", mmap=True))
    response = service.select_users(SelectionRequest(item="i"))
    assert response.generation == 1
    assert response.sum_version == 1
    # live services stamp no generation
    live = build_service(primary)
    assert live.select_users(SelectionRequest(item="i")).generation is None


def test_in_flight_captures_bit_stable_across_swap(tmp_path):
    primary = ShardedSumStore(n_shards=4)
    cache = SumCache(primary)
    for uid in range(12):
        primary.get_or_create(uid)
    cache.apply_batch_and_publish(
        [(uid, (RewardOp(("enthusiastic",), 0.5),)) for uid in range(12)],
        POLICY,
    )
    service = build_service(cache)
    Checkpointer(primary, tmp_path / "state", cache=cache).checkpoint()

    ids = list(range(12))
    capture = cache.batch(ids)
    intensity = capture.intensity_matrix(("enthusiastic",)).copy()
    versions = dict(capture.versions)

    # the swap lands mid-"request", then writers keep streaming into the
    # primary: the capture must not move a bit, and its stamps must not
    # mix with the new resolver's generation
    service.swap_sums(ShardedSumStore.load(tmp_path / "state", mmap=True))
    cache.apply_batch_and_publish(
        [(uid, (RewardOp(("enthusiastic",), 0.9),)) for uid in range(12)],
        POLICY,
    )
    assert np.array_equal(capture.intensity_matrix(("enthusiastic",)), intensity)
    assert capture.versions == versions
    fresh = cache.batch(ids)
    assert not np.array_equal(
        fresh.intensity_matrix(("enthusiastic",)), intensity
    )


def test_poll_survives_a_load_racing_retention_pruning(tmp_path):
    # the generation can vanish between the manifest read and the page
    # reads (Checkpointer retention on a fast cadence); the refresher
    # must keep serving its current store and retry at the next poll
    primary = ShardedSumStore(n_shards=2)
    primary.get_or_create(1)
    checkpointer = Checkpointer(primary, tmp_path / "state")
    checkpointer.checkpoint()
    service = build_service(ShardedSumStore.load(tmp_path / "state", mmap=True))
    served = service.sums

    calls = {"n": 0}

    def flaky_loader(directory, mmap=True):
        calls["n"] += 1
        if calls["n"] == 1:
            raise FileNotFoundError("gen pruned mid-load")
        return ShardedSumStore.load(directory, mmap=mmap)

    refresher = ReplicaRefresher(tmp_path / "state", service, loader=flaky_loader)
    checkpointer.checkpoint()
    assert refresher.poll() is None  # load failed; nothing swapped
    assert service.sums is served
    assert refresher.poll() == 2  # next poll succeeds and swaps
    assert service.sums is not served


def test_checkpoint_retention_prunes_old_generations(tmp_path):
    primary = ShardedSumStore(n_shards=2)
    primary.get_or_create(1)
    checkpointer = Checkpointer(primary, tmp_path / "state", retain=2)
    for __ in range(5):
        checkpointer.checkpoint()
    kept = [g for g, __ in generation_dirs(tmp_path / "state")]
    assert kept == [4, 5]
    # the manifest's generation is always loadable
    assert ShardedSumStore.load(tmp_path / "state").snapshot_generation == 5


def test_replica_serves_cache_version_floors(tmp_path):
    primary = ShardedSumStore(n_shards=2)
    cache = SumCache(primary)
    for uid in range(4):
        primary.get_or_create(uid)
    for __ in range(3):  # user 1 published three times
        cache.apply_batch_and_publish(
            [(1, (RewardOp(("enthusiastic",), 1.0),))], POLICY
        )
    cache.mark_batch()
    Checkpointer(primary, tmp_path / "state", cache=cache).checkpoint()
    replica = ShardedSumStore.load(tmp_path / "state", mmap=True)
    assert replica.version(1) == 3
    assert replica.version(2) == 0  # known user, never published
    service = build_service(replica)
    response = service.recommend(
        RecommendationRequest(user_id=1, items=["i"], k=1)
    )
    assert response.sum_version == 3
    assert response.generation == 1


def test_threaded_refresh_monotonic_and_never_torn(tmp_path):
    """Readers race checkpoints and swaps across 5 generations.

    Every response must be internally consistent — its Advice multiplier
    must equal the one its stamped generation's state produces (a torn
    read, stamps from one store and scores from another, cannot satisfy
    this) — and each reader's generation stamps must never decrease.
    """
    generations = 5
    expected = {g: expected_multiplier(g) for g in range(1, generations + 1)}

    primary = ShardedSumStore(n_shards=2)
    for uid in range(4):
        primary.get_or_create(uid)
    set_generation_state(primary, 1)
    checkpointer = Checkpointer(primary, tmp_path / "state")
    checkpointer.checkpoint()
    service = build_service(ShardedSumStore.load(tmp_path / "state", mmap=True))
    refresher = ReplicaRefresher(tmp_path / "state", service)

    stop = threading.Event()
    failures: list[str] = []
    per_reader: list[list[int]] = [[] for __ in range(3)]

    def reader(slot):
        while not stop.is_set():
            response = service.recommend(
                RecommendationRequest(user_id=1, items=["i"], k=1)
            )
            g = response.generation
            if expected[g] != response.ranked[0].multiplier:
                failures.append(
                    f"torn read: generation {g} with multiplier "
                    f"{response.ranked[0].multiplier!r}"
                )
            per_reader[slot].append(g)

    def refresh_loop():
        while not stop.is_set():
            refresher.poll()
            time.sleep(0.001)

    threads = [threading.Thread(target=reader, args=(slot,)) for slot in range(3)]
    threads.append(threading.Thread(target=refresh_loop))
    for t in threads:
        t.start()
    for g in range(2, generations + 1):
        set_generation_state(primary, g)
        checkpointer.checkpoint()
        time.sleep(0.02)
    time.sleep(0.05)
    stop.set()
    for t in threads:
        t.join(timeout=10.0)
    refresher.poll()

    assert not failures, failures[:3]
    observed = set()
    for stamps in per_reader:
        assert stamps, "reader made no requests"
        assert stamps == sorted(stamps), "generation stamps went backwards"
        observed.update(stamps)
    # the protocol actually crossed generations under the readers
    assert refresher.generation == generations
    assert max(observed) >= 2

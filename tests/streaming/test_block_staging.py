"""A batch read copies many rows as one generation-validated block.

``ColumnarSumStore.batch`` (bare, sharded, or behind ``SumCache``) copies
more than one row with one ``take`` per array inside a single
``Seqlock.read_many``: only the rows a writer was committing are copied
again, by position, and the ones starved of a quiet window are copied
under the writer lock and counted.  Exactly one row keeps the scalar
``Seqlock.read`` over basic slices.  The whole copy runs inside one
layout-epoch window, so store growth and ``compact_vocab`` mid-copy are
followed, not torn.
"""

import sys
import threading
from time import monotonic, sleep

import numpy as np
import pytest

from repro.core import seqlock as seqlock_mod
from repro.core.emotions import EMOTION_NAMES
from repro.core.reward import ReinforcementPolicy
from repro.core.seqlock import Seqlock
from repro.core.sum_store import ColumnarSumStore, _ColumnFamily
from repro.core.updates import DecayOp, ProfileOp, PunishOp, RewardOp
from repro.obs.metrics import MetricsRegistry
from repro.streaming.cache import SumCache

POLICY = ReinforcementPolicy()
SHY = EMOTION_NAMES.index("shy")


def stocked_cache(n_users, telemetry=None, **store_kwargs):
    """User ``uid`` holds shy ~ ``0.001 * (uid + 1)``."""
    store = ColumnarSumStore(**store_kwargs)
    store.batch_apply_ops(
        [(uid, (RewardOp(("shy",), 0.005 * (uid + 1)),)) for uid in range(n_users)], POLICY
    )
    return store, SumCache(store, telemetry=telemetry)


def nudge_shy(store, uid):
    """One commit of shy ~ +0.001 on ``uid``."""
    store.batch_apply_ops([(uid, (RewardOp(("shy",), 0.005),))], POLICY)


def rewrite_sensibility(store, uid, name, weight=None):
    """Set (``None``: drop) a sensibility no op writes — a name outside
    the emotion catalog — through the store's own row writer, inside the
    row's odd window as a batch commit is."""
    row = store.row_index(uid)
    payload = store.get(uid).to_dict()
    if weight is None:
        del payload["sensibility"][name]
    else:
        payload["sensibility"][name] = weight
    with store.writer_lock, store.row_generations.write(row):
        store._write_row(row, payload)


@pytest.fixture
def payloads(monkeypatch):
    """Every ``_batch_payload`` call's rows, and an optional hook run
    after each copy (``payloads.then(number of calls)``)."""
    real = ColumnarSumStore._batch_payload
    calls = []

    def recording(self, rows):
        payload = real(self, rows)
        calls.append(rows if isinstance(rows, slice) else rows.tolist())
        recording.then(len(calls))
        return payload

    recording.then = lambda count: None
    recording.calls = calls
    monkeypatch.setattr(ColumnarSumStore, "_batch_payload", recording)
    return recording


# -- which path a capture takes ----------------------------------------------


def test_one_stale_row_keeps_the_scalar_read(payloads, monkeypatch):
    store, cache = stocked_cache(50)

    def no_block_read(*args):  # pragma: no cover - failure path
        raise AssertionError("a one-row read took Seqlock.read_many")

    monkeypatch.setattr(Seqlock, "read_many", no_block_read)
    batch = cache.batch([7])  # every recommend
    row = store.row_index(7)
    assert payloads.calls == [slice(row, row + 1)]  # basic slices
    assert batch.intensity_matrix(EMOTION_NAMES)[0, SHY] == pytest.approx(0.008)
    assert cache.batch([]).intensity_matrix(EMOTION_NAMES).shape == (0, 10)


def test_block_staging_survives_store_growth_between_reads(payloads):
    store, cache = stocked_cache(2, initial_capacity=2)
    cache.batch([0, 1])  # read at the tiny initial capacity
    store.batch_apply_ops(  # several row-capacity doublings
        [(uid, (ProfileOp(subjective=((f"pref[{uid}]", 0.5),)),)) for uid in range(10, 90)]
        + [(0, (RewardOp(("shy",)),))],
        ReinforcementPolicy(learning_rate=0.5),
    )
    rewrite_sensibility(store, 1, "zest", 0.7)  # and one column interned
    payloads.calls.clear()
    batch = cache.batch(list(range(10, 90)) + [0, 1])
    assert len(payloads.calls) == 1  # one block copy, however many rows
    assert batch.intensity_matrix(EMOTION_NAMES).shape == (82, 10)
    assert batch.intensity_matrix(EMOTION_NAMES)[-2, SHY] == pytest.approx(0.501)
    assert batch.sensibility_matrix(["zest"], default=0.0)[-1, 0] == 0.7


def test_growth_during_the_block_copy_is_followed(monkeypatch):
    # the live arrays (and the generation cells) are swapped between one
    # family's copy and the next: the cells' identity check must send the
    # block round again, and the second copy is scattered by position
    store, cache = stocked_cache(4, initial_capacity=4)
    real = _ColumnFamily.take
    takes = []

    def grow_once_then_take(self, rows):
        takes.append(np.asarray(rows).tolist())
        if len(takes) == 1:
            for uid in range(100, 140):
                store.get_or_create(uid)
        return real(self, rows)

    monkeypatch.setattr(_ColumnFamily, "take", grow_once_then_take)
    batch = cache.batch([3, 0, 1, 2])
    assert takes == [[3, 0, 1, 2]] * 4  # two families, two rounds
    assert batch.intensity_matrix(EMOTION_NAMES)[:, SHY] == pytest.approx(
        [0.004, 0.001, 0.002, 0.003]
    )


def test_compact_vocab_mid_capture_restages_through_the_block(payloads):
    store, cache = stocked_cache(6)
    rewrite_sensibility(store, 2, "zest", 0.4)   # intern a column ...
    rewrite_sensibility(store, 3, "verve", 0.9)
    cache.batch(list(range(6)))
    rewrite_sensibility(store, 2, "zest")        # ... and orphan it
    payloads.calls.clear()

    def compact_during_the_first_copy(count):
        if count == 1:
            assert store.compact_vocab() == 1  # "verve" changes column

    payloads.then = compact_during_the_first_copy
    batch = cache.batch(list(range(6)))
    # the raced copy was thrown away with its layout; the whole block
    # was copied again under the new one
    assert payloads.calls == [list(range(6))] * 2
    assert batch.sensibility_matrix(["verve", "zest"], default=-1.0).tolist() == [
        [-1.0, -1.0], [-1.0, -1.0], [-1.0, -1.0],
        [0.9, -1.0], [-1.0, -1.0], [-1.0, -1.0],
    ]
    assert batch.intensity_matrix(EMOTION_NAMES)[:, SHY] == pytest.approx(
        0.001 * np.arange(1, 7)
    )


# -- a writer that never leaves a quiet window --------------------------------


def test_a_row_rewritten_during_every_copy_starves_alone(payloads):
    # deterministic starvation: every lock-free block copy is followed,
    # before the second generation gather, by a commit on user 5
    telemetry = MetricsRegistry()
    store, cache = stocked_cache(8, telemetry)
    spin_limit = seqlock_mod.SPIN_LIMIT

    def commit_on_5(count):
        if count <= spin_limit:  # the next call is the fallback
            nudge_shy(store, 5)

    payloads.then = commit_on_5
    ids = list(range(8))
    batch = cache.batch(ids)
    # everyone was copied once; user 5 then went alone up to the bound,
    # and one last time with writers excluded
    assert payloads.calls == [ids] + [[5]] * spin_limit
    assert batch.starved == 1
    assert telemetry.counter("cache.capture_starved_rows").value == 1
    assert telemetry.counter("cache.captures").value == 1
    live = store.get(5).emotional["shy"]
    assert live == pytest.approx(0.006 + 0.001 * spin_limit)
    assert batch.intensity_matrix(EMOTION_NAMES)[5, SHY] == live
    assert batch.intensity_matrix(EMOTION_NAMES)[:5, SHY] == pytest.approx(
        0.001 * np.arange(1, 6)
    )


def test_one_starved_row_is_counted_on_the_scalar_path_too(payloads):
    telemetry = MetricsRegistry()
    store, cache = stocked_cache(8, telemetry)
    spin_limit = seqlock_mod.SPIN_LIMIT

    def commit_on_5(count):
        if count <= spin_limit:  # the next call is the fallback
            nudge_shy(store, 5)

    payloads.then = commit_on_5
    batch = cache.batch([5])
    row = store.row_index(5)
    assert payloads.calls == [slice(row, row + 1)] * (spin_limit + 1)
    assert telemetry.counter("cache.capture_starved_rows").value == 1
    assert batch.intensity_matrix(EMOTION_NAMES)[0, SHY] == (
        store.get(5).emotional["shy"]
    )


def test_block_captures_under_a_saturating_writer_are_committed_states(
    monkeypatch,
):
    """64 rows, a flat-out writer, a shortened switch interval.

    Every captured row must be bit-equal to a state the (single) writer
    committed for that row — never a mix of two, never older than the
    version it is stamped with — and captures must keep returning: rows
    the bounded block read cannot win are copied under the writer lock,
    and counted.
    """
    # the bound only sets how long a capture spins before the fallback
    monkeypatch.setattr(seqlock_mod, "SPIN_LIMIT", 8)

    def payload_with_a_gap(self, rows):
        emotional = self._emotional.take(rows)
        sleep(0)  # let the writer in: a torn row needs a commit right here
        return (*emotional, *self._sensibility.take(rows))

    monkeypatch.setattr(ColumnarSumStore, "_batch_payload", payload_with_a_gap)
    telemetry = MetricsRegistry()
    store, cache = stocked_cache(64, telemetry)
    ids = list(range(64))
    rows = store.rows_for(ids)
    rng = np.random.default_rng(11)
    #: per row, its committed states in order: index == published version
    #: (every commit below applies an op to every user)
    history = [[] for __ in ids]
    stop = threading.Event()

    def row_states(emotional, sensibility, at):
        # one bytes blob per row: both families, values and presence
        parts = [
            array[at] for family in (emotional, sensibility)
            for array in (family.values, family.mask)
        ]
        return [
            b"".join(part[i].tobytes() for part in parts)
            for i in range(len(ids))
        ]

    def record_commit():
        with store.writer_lock:
            live = row_states(store._emotional, store._sensibility, rows)
        for states, state in zip(history, live):
            states.append(state)

    def write_forever():
        while not stop.is_set():
            picks = rng.integers(0, len(EMOTION_NAMES), size=(len(ids), 2))
            cache.apply_batch_and_publish(
                [
                    (uid, (
                        RewardOp((EMOTION_NAMES[a],), 0.3),
                        PunishOp((EMOTION_NAMES[b],), 0.2),
                        DecayOp(),
                    ))
                    for uid, (a, b) in zip(ids, picks.tolist())
                ],
                POLICY,
            )
            record_commit()

    record_commit()
    captured = []
    writer = threading.Thread(target=write_forever, daemon=True)
    starved_rows = telemetry.counter("cache.capture_starved_rows")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        writer.start()
        deadline = monotonic() + 30.0
        while len(captured) < 40 or starved_rows.value == 0:
            assert monotonic() < deadline, "captures starved by the writer"
            batch = cache.batch(ids)
            captured.append((batch.versions, row_states(
                batch.emotional, batch.sensibility, slice(None)
            )))
    finally:
        stop.set()
        writer.join(timeout=10.0)
        sys.setswitchinterval(interval)
    assert not writer.is_alive()
    assert starved_rows.value > 0  # the fallback was taken, and counted
    assert all(len(states) == cache.version(uid) + 1
               for uid, states in zip(ids, history))
    for versions, states in captured:
        for uid, committed, state in zip(ids, history, states):
            assert state in committed[versions[uid]:], (
                f"user {uid}: torn, or older than its version stamp"
            )

"""``put`` is ``put_many`` of one: both publish paths interleaved.

A small partition takes user and background messages through ``put``
and ``put_many`` while a consumer takes partial batches and acks part of
what it holds.  A full partition raises ``PublishTimeout`` (short
timeouts) instead of hanging the single-threaded run.
"""

from itertools import count

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streaming.bus import PartitionQueue, PublishTimeout

CAPACITY = 4

steps = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.booleans()),
        st.tuples(st.just("put_many"), st.booleans(), st.integers(0, 6)),
        st.tuples(st.just("take"), st.integers(1, 5), st.integers(0, 5)),
    ),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(steps=steps)
def test_interleaved_publish_paths_keep_offsets_and_shed_accounting(steps):
    queue = PartitionQueue(0, capacity=CAPACITY, max_attempts=3)
    ids = count()
    placed = {}  # offset -> (message, background), in publish order
    attempted_background = 0
    held = []  # delivered, not yet acked
    delivered = []

    def publish_many(items, background):
        before = queue.published
        try:
            result = queue.put_many(items, timeout=0.001, background=background)
        except PublishTimeout:
            assert not background  # background never waits
            result = None
        n = queue.published - before
        assert result in (None, n)
        for offset, (message, __) in enumerate(items[:n], before):
            placed[offset] = (message, background)

    for step in steps:
        if step[0] == "put":
            background = step[1]
            attempted_background += background
            message, before = next(ids), queue.published
            try:
                offset = queue.put(message, 0, timeout=0.001, background=background)
            except PublishTimeout:
                assert not background
                assert queue.published == before
                continue
            if offset == -1:
                assert background and queue.published == before
            else:
                assert offset == before == len(placed)
                placed[offset] = (message, background)
        elif step[0] == "put_many":
            __, background, n = step
            attempted_background += background * n
            publish_many([(next(ids), 0) for __ in range(n)], background)
        else:
            __, take, ack = step
            batch = queue.get_batch(take, timeout=0)
            delivered.extend(batch)
            held.extend(batch)
            acking, held[:] = held[:ack], held[ack:]
            if len(acking) == 1:
                queue.ack(acking[0])
            elif acking:
                queue.ack_batch(acking)

    while batch := queue.get_batch(CAPACITY, timeout=0):
        delivered.extend(batch)
        held.extend(batch)
    queue.ack_batch(held)
    assert queue.join(0)

    # offsets are gap-free in publish order, and deliveries follow them
    assert sorted(placed) == list(range(queue.published))
    offsets = [d.offset for d in delivered]
    assert offsets == sorted(set(offsets))
    assert all(placed[d.offset] == (d.value, d.background) for d in delivered)
    # every placed message not delivered was evicted, and only background is
    evicted = set(placed) - set(offsets)
    assert all(placed[offset][1] for offset in evicted)
    assert queue.shed_user == 0
    delivered_background = sum(d.background for d in delivered)
    assert delivered_background + queue.shed_background == attempted_background

"""One write discipline: every SUM write is an op committed in a batch.

The campaign engine and the Attributes Manager Agent commit
``OpBatch``es through ``batch_apply_ops``, as the streaming plane does,
and a columnar store's live rows only read.  These tests hold that to
checkpoints (a committed cold-state op moves the mutation clock, so a
delta save rewrites its shard), to read-only rows, to object-store
snapshots that never see half a commit, and to the Fig. 6 business case
coming out the same on every backend.
"""

import operator
import threading

import pytest

from repro.agents.messages import Message
from repro.campaigns.delivery import EngineConfig
from repro.core.four_branch import Branch
from repro.core.gradual_eit import QuestionBank
from repro.core.reward import ReinforcementPolicy
from repro.core.sharded_store import ShardedSumStore
from repro.core.shm_store import MultiProcSumStore
from repro.core.sum_model import SumRepository
from repro.core.sum_store import ColumnarSumStore
from repro.core.updates import (
    AnalyzeOp,
    DecayOp,
    EitAnswerOp,
    ProfileOp,
    PunishOp,
    RewardOp,
)
from repro.experiments.business_case import run_business_case

POLICY = ReinforcementPolicy()
QUESTION = next(iter(QuestionBank.default_bank()))

#: one op of every kind, each changing an existing user's state
OPS = {
    "profile-objective": ProfileOp(objective=(("age", 99),)),
    "profile-subjective": ProfileOp(subjective=(("pref[online]", 0.75),)),
    "eit-ask": EitAnswerOp(QUESTION),
    "eit-answer": EitAnswerOp(QUESTION, 0),
    "analyze": AnalyzeOp(),
    "decay": DecayOp(),
    "reward": RewardOp(("hopeful",)),
    "punish": PunishOp(("hopeful",)),
}

STORES = {
    "columnar": ColumnarSumStore,
    "sharded": lambda: ShardedSumStore(n_shards=2),
    "multiproc": lambda: MultiProcSumStore(n_shards=2),
}


def close(store):
    if isinstance(store, MultiProcSumStore):
        store.close()


def clocks(store):
    return [shard.mutation_count for shard in getattr(store, "shards", (store,))]


def seeded(backend):
    """Six users with an objective fact and some emotional state."""
    store = STORES[backend]()
    store.batch_apply_ops(
        [(uid, (ProfileOp(objective=(("age", 20),)), RewardOp(("hopeful", "shy"))))
         for uid in range(1, 7)],
        POLICY,
    )
    return store


@pytest.mark.parametrize("op", list(OPS))
@pytest.mark.parametrize("backend", ["sharded", "multiproc"])
def test_a_checkpoint_keeps_every_committed_op(tmp_path, backend, op):
    # a cold-state write through a live view once moved no clock, so the
    # second save hard-linked the first one's pages and lost it
    store = seeded(backend)
    try:
        store.save(tmp_path)
        before = clocks(store)
        store.batch_apply_ops([(3, (OPS[op],))], POLICY)
        assert clocks(store)[store.shard_of(3)] > before[store.shard_of(3)]
        store.save(tmp_path)
        assert ShardedSumStore.load(tmp_path).dumps() == store.dumps()
    finally:
        close(store)


@pytest.mark.parametrize("bad, error", [
    (EitAnswerOp(QUESTION, len(QUESTION.options)), IndexError),
    (ProfileOp(subjective=(("pref[x]", float("nan")),)), ValueError),
])
@pytest.mark.parametrize("backend", ["object", "sharded"])
def test_a_bad_op_is_rejected_before_any_write(backend, bad, error):
    store = SumRepository() if backend == "object" else seeded(backend)
    store.batch_apply_ops([(1, (RewardOp(("shy",)),))], POLICY)
    before = store.dumps()
    with pytest.raises(error):
        store.batch_apply_ops(
            [(1, (DecayOp(),)), (2, (ProfileOp(objective=(("age", 1),)), bad))], POLICY
        )
    assert store.dumps() == before


#: every SmartUserModel mutator, as a live row must refuse it
MUTATORS = {
    "activate_emotion": lambda m: m.activate_emotion("shy", 0.1),
    "set_sensibility": lambda m: m.set_sensibility("shy", 0.5),
    "set_objective": lambda m: m.set_objective("age", 99),
    "set_subjective": lambda m: m.set_subjective("pref[x]", 0.5),
    "observe_branch": lambda m: m.observe_branch(Branch.MANAGING, 0.9),
    "asked_questions.add": lambda m: m.asked_questions.add("q-9"),
    "sensibility[]=": lambda m: operator.setitem(m.sensibility, "shy", 0.5),
    "objective=": lambda m: setattr(m, "objective", {"age": 99}),
    "sensibility=": lambda m: setattr(m, "sensibility", {"shy": 0.5}),
}


@pytest.mark.parametrize("getter", ["get", "get_or_create"])
@pytest.mark.parametrize("backend", list(STORES))
def test_every_live_columnar_row_is_read_only(backend, getter):
    store = seeded(backend)
    try:
        dumps, before = store.dumps(), clocks(store)
        for mutate in MUTATORS.values():
            with pytest.raises((TypeError, AttributeError)):
                mutate(getattr(store, getter)(3))
        assert store.dumps() == dumps
        assert clocks(store) == before
    finally:
        close(store)


def test_an_object_snapshot_waits_out_a_commit_without_any_cache_lock():
    entered, release = threading.Event(), threading.Event()

    class BlockAfterFirstReward(ReinforcementPolicy):
        def reward(self, model, attributes, strength=1.0):
            super().reward(model, attributes, strength)
            if not entered.is_set():  # between the batch's two ops
                entered.set()
                assert release.wait(10.0)

    sums = SumRepository()
    sums.get_or_create(1)
    ops = (RewardOp(("shy",)), RewardOp(("hopeful",)))
    writer = threading.Thread(
        target=sums.batch_apply_ops, args=([(1, ops)], BlockAfterFirstReward())
    )
    writer.start()
    snapshots = []
    reader = threading.Thread(target=lambda: snapshots.append(sums.freeze_view(1)))
    try:
        assert entered.wait(10.0)
        reader.start()
        reader.join(0.2)
        assert reader.is_alive(), "the snapshot did not wait for the commit"
    finally:
        release.set()
        writer.join(10.0)
        if reader.ident is not None:
            reader.join(10.0)
    (snapshot,) = snapshots
    assert snapshot.emotional["shy"] > 0.0 and snapshot.emotional["hopeful"] > 0.0


BUSINESS_CASE = dict(n_users=200, n_courses=20, seed=7, n_warmups=1)
ANALYZED = list(range(0, 200, 7))


def analyze(spa):
    reply = spa.attributes_agent.handle(
        Message("test", "attributes", "attributes.analyze", {"user_ids": ANALYZED}),
        spa.runtime,
    )
    return reply[0].payload["dominant"]


@pytest.fixture(scope="module")
def object_case():
    """The object backend's business case: its state, its summaries, and
    then its analysis and the state that analysis committed."""
    run = run_business_case(**BUSINESS_CASE)
    dumps = run.spa.engine.sums.dumps()
    dominant = analyze(run.spa)
    return run, dumps, dominant, run.spa.engine.sums.dumps()


@pytest.mark.parametrize(
    "backend, n_shards", [("sharded", 1), ("sharded", 3), ("multiproc", 2)]
)
def test_the_business_case_is_backend_independent(object_case, backend, n_shards):
    reference, dumps, dominant, analyzed = object_case
    config = EngineConfig(seed=7, sum_backend=backend, n_shards=n_shards)
    run = run_business_case(**BUSINESS_CASE, config=config)
    try:
        assert run.spa.engine.sums.dumps() == dumps
        assert run.summary == reference.summary
        assert run.baseline_summary == reference.baseline_summary
        assert analyze(run.spa) == dominant
        assert run.spa.engine.sums.dumps() == analyzed
    finally:
        close(run.spa.engine.sums)

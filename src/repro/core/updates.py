"""SUM update ops: every write to a stored SUM, as data.

The Update stage of Fig. 4 boils down to three incremental operations on
one user's SUM: decay everything a little, reward some attributes, punish
some attributes — the only ops a streaming mapper emits.  The offline
loop also writes profile facts (:class:`ProfileOp`), Gradual EIT answers
(:class:`EitAnswerOp`) and sensibility re-weighting (:class:`AnalyzeOp`).
Each op runs the scalar code of :mod:`repro.core` on a plain model, and
every writer — the campaign engine, the Attributes Manager Agent and the
streaming consumers of :mod:`repro.streaming` — commits ops as one
:class:`OpBatch` through a store's ``batch_apply_ops``, so "replayed
online" versus "applied offline" can be compared op for op.

Ops are data, not behaviour: applying the hot ones requires a policy, so
the same op sequence can be replayed under different reinforcement knobs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Tuple, Union

from repro.core.gradual_eit import EITQuestion, answer_question
from repro.core.reward import ReinforcementPolicy
from repro.core.sensibility import SensibilityAnalyzer
from repro.core.sum_model import SmartUserModel


@dataclass(frozen=True)
class DecayOp:
    """Multiplicative forgetting across all attributes (one decay tick)."""


@dataclass(frozen=True)
class RewardOp:
    """Reinforce ``attributes`` after a positive interaction."""

    attributes: tuple[str, ...]
    strength: float = 1.0

    def __post_init__(self) -> None:
        if not self.attributes:
            raise ValueError("RewardOp needs at least one attribute")


@dataclass(frozen=True)
class PunishOp:
    """Weaken ``attributes`` after a negative interaction."""

    attributes: tuple[str, ...]
    strength: float = 1.0

    def __post_init__(self) -> None:
        if not self.attributes:
            raise ValueError("PunishOp needs at least one attribute")


@dataclass(frozen=True)
class ProfileOp:
    """Set objective facts and subjective tendencies (``(name, value)``
    pairs, applied in order through ``set_objective``/``set_subjective``)."""

    objective: tuple[tuple[str, Any], ...] = ()
    subjective: tuple[tuple[str, float], ...] = ()


@dataclass(frozen=True)
class EitAnswerOp:
    """Mark a Gradual EIT question asked, and answer it when ``option``
    is an option index (:func:`~repro.core.gradual_eit.answer_question`)."""

    question: EITQuestion
    option: int | None = None


@dataclass(frozen=True)
class AnalyzeOp:
    """Re-weight sensibilities (:meth:`SensibilityAnalyzer.analyze
    <repro.core.sensibility.SensibilityAnalyzer.analyze>`)."""

    analyzer: SensibilityAnalyzer = SensibilityAnalyzer()


#: Any single SUM update.
SumUpdateOp = Union[DecayOp, RewardOp, PunishOp, ProfileOp, EitAnswerOp, AnalyzeOp]


def apply_op(
    model: SmartUserModel,
    op: SumUpdateOp,
    policy: ReinforcementPolicy,
) -> None:
    """Apply one update op to one SUM through ``policy``."""
    if isinstance(op, DecayOp):
        policy.apply_decay(model)
    elif isinstance(op, RewardOp):
        policy.reward(model, op.attributes, op.strength)
    elif isinstance(op, PunishOp):
        policy.punish(model, op.attributes, op.strength)
    elif isinstance(op, ProfileOp):
        for name, value in op.objective:
            model.set_objective(name, value)
        for name, value in op.subjective:
            model.set_subjective(name, value)
    elif isinstance(op, EitAnswerOp):
        if op.option is None:
            model.asked_questions.add(op.question.qid)
        else:
            answer_question(model, op.question, op.option)
    elif isinstance(op, AnalyzeOp):
        op.analyzer.analyze(model)
    else:
        raise TypeError(f"unknown SUM update op {op!r}")


def apply_ops(
    model: SmartUserModel,
    ops: Iterable[SumUpdateOp],
    policy: ReinforcementPolicy,
) -> int:
    """Apply ops in order; returns how many were applied.

    Ops touch only ``model``, so sequences for *different* users commute —
    the property that makes hash-partitioned streaming consumers
    (:mod:`repro.streaming.consumer`) equivalent to a single sequential
    pass, as long as each user's own ops stay ordered.
    """
    count = 0
    for op in ops:
        apply_op(model, op, policy)
        count += 1
    return count


#: what every batch entry point accepts: raw ``(user_id, ops)`` pairs
#: (duplicate ids allowed) or an already canonical :class:`OpBatch`
BatchItems = Union["OpBatch", Iterable[Tuple[int, Iterable[SumUpdateOp]]]]


class OpBatch:
    """One write batch in canonical form, made once where it is dequeued.

    ``user_ids`` are unique Python ints in first-appearance order and
    ``ops[i]`` is user ``i``'s whole ordered op tuple, so every layer a
    batch crosses — cache commit, shard router, columnar store — trusts
    it as is instead of re-normalising it.  ``counts`` are the applied-op
    counts the entry points return: per caller *item* when the batch came
    from raw items through :meth:`of` (a user listed twice has two
    entries), per user otherwise.  ``validated`` is set by
    :func:`~repro.core.sum_store.validate_batch_ops`, which therefore
    checks a batch at most once however many layers it crosses, and
    records in ``scalar_users`` the users whose sequence holds an op
    other than decay, reward or punish (a split batch shares the set).
    """

    __slots__ = ("user_ids", "ops", "counts", "validated", "scalar_users")

    def __init__(
        self,
        user_ids: list[int],
        ops: list[tuple[SumUpdateOp, ...]],
        counts: list[int] | None = None,
        validated: bool = False,
        scalar_users: frozenset[int] = frozenset(),
    ) -> None:
        self.user_ids = user_ids
        self.ops = ops
        self.counts = list(map(len, ops)) if counts is None else counts
        self.validated = validated
        self.scalar_users = scalar_users

    @classmethod
    def of(cls, items: BatchItems) -> "OpBatch":
        """``items`` as a canonical batch; an :class:`OpBatch` as is.

        The one place raw ``(user_id, ops)`` pairs are normalised: ids
        through ``int()``, op sequences through ``tuple()``, and a user
        listed twice merged into one ordered sequence (rounds vectorise
        across *distinct* rows, and such a user still gets exactly one
        version bump).
        """
        if isinstance(items, OpBatch):
            return items
        index: dict[int, int] = {}
        user_ids: list[int] = []
        merged: list[tuple[SumUpdateOp, ...]] = []
        counts: list[int] = []
        for raw_id, raw_ops in items:
            user_id, ops = int(raw_id), tuple(raw_ops)
            counts.append(len(ops))
            at = index.setdefault(user_id, len(user_ids))
            if at == len(user_ids):
                user_ids.append(user_id)
                merged.append(ops)
            else:
                merged[at] += ops
        return cls(user_ids, merged, counts)

    def __iter__(self) -> Iterator[tuple[int, tuple[SumUpdateOp, ...]]]:
        return iter(zip(self.user_ids, self.ops))

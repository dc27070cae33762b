"""Incremental SUM update primitives.

The Update stage of Fig. 4 boils down to three incremental operations on
one user's SUM: decay everything a little, reward some attributes, punish
some attributes.  This module names those operations as small frozen
dataclasses so every writer of emotional state — the one-touch
:class:`~repro.core.pipeline.EmotionalContextPipeline`, the campaign
engine and the streaming consumers of :mod:`repro.streaming` — applies
the *same* primitives through the same
:class:`~repro.core.reward.ReinforcementPolicy`, and "replayed online"
versus "applied offline" can be compared op for op.

Ops are data, not behaviour: applying them requires a policy, so the same
op sequence can be replayed under different reinforcement knobs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Tuple, Union

from repro.core.reward import ReinforcementPolicy
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


#: Any single incremental SUM update.
SumUpdateOp = Union[DecayOp, RewardOp, PunishOp]


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
    checks a batch at most once however many layers it crosses.
    """

    __slots__ = ("user_ids", "ops", "counts", "validated")

    def __init__(
        self,
        user_ids: list[int],
        ops: list[tuple[SumUpdateOp, ...]],
        counts: list[int] | None = None,
        validated: bool = False,
    ) -> None:
        self.user_ids = user_ids
        self.ops = ops
        self.counts = list(map(len, ops)) if counts is None else counts
        self.validated = validated

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

"""LifeLog events → incremental SUM update ops.

The streaming half of Fig. 4's Update stage: each raw
:class:`~repro.lifelog.events.Event` is mapped through its
:class:`~repro.lifelog.events.ActionCategory` to the update primitives of
:mod:`repro.core.updates` — a reward for engagement, a punish for
negative explicit feedback, nothing for neutral bookkeeping — plus
evenly scheduled decay ticks so online state forgets exactly like the
offline loop does.

The mapping is deterministic given the mapper's configuration and the
per-user event order, which is what makes "replayed through sharded
consumers" comparable op-for-op against "applied sequentially through
:class:`~repro.core.pipeline.EmotionalContextPipeline`": ops only ever
touch the event's own user, per-user order is preserved by hash
partitioning, and the per-user decay counters live with the mapper that
owns that user's shard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.emotions import EMOTION_NAMES
from repro.core.updates import DecayOp, PunishOp, RewardOp, SumUpdateOp
from repro.lifelog.events import ActionCategory, Event


@dataclass(frozen=True)
class MapperConfig:
    """Per-category reinforcement strengths and the decay cadence.

    Strengths scale the policy's learning rate exactly like the campaign
    engine's ``reward_*`` knobs; a strength of 0 disables the category.
    ``decay_every`` inserts one :class:`~repro.core.updates.DecayOp`
    before every Nth op-bearing event of a user (``None`` disables
    event-count decay; explicit ticks still work).
    """

    reward_navigation: float = 0.10
    reward_info_request: float = 0.60
    reward_enrollment: float = 1.0
    reward_opinion: float = 0.40
    reward_campaign_open: float = 0.30
    reward_campaign_click: float = 0.60
    rating_strength: float = 0.50
    rating_like_threshold: int = 4
    decay_every: int | None = 25

    def __post_init__(self) -> None:
        for name in (
            "reward_navigation", "reward_info_request", "reward_enrollment",
            "reward_opinion", "reward_campaign_open", "reward_campaign_click",
            "rating_strength",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} {value} outside [0, 1]")
        if self.decay_every is not None and self.decay_every < 1:
            raise ValueError(f"decay_every must be >= 1, got {self.decay_every}")


#: ops are frozen values, so the one decay op is shared by every tick
_DECAY = DecayOp()
_TICK_OPS: tuple[SumUpdateOp, ...] = (_DECAY,)


class EventUpdateMapper:
    """Stateful per-user mapping of events to SUM update ops.

    Parameters
    ----------
    item_emotions:
        ``str(item_id) -> emotional attributes`` behind each item (build
        one from a catalog with
        :meth:`~repro.datagen.catalog.CourseCatalog.emotion_links`).
        Events whose payload ``target`` resolves to no emotions produce
        no ops — there is nothing to reinforce.
    config:
        Strengths and decay cadence (defaults above).

    The only state is the per-user count of op-bearing events since the
    last decay, so one mapper instance must see *all* events of the users
    it serves, in order — exactly the guarantee hash partitioning gives
    each shard worker.
    """

    def __init__(
        self,
        item_emotions: Mapping[str, tuple[str, ...]],
        config: MapperConfig | None = None,
    ) -> None:
        # Validate the whole mapping up front: an unknown emotion name
        # would otherwise only explode mid-apply on the consumer, after
        # some of its sibling attributes were already reinforced.
        known = set(EMOTION_NAMES)
        for item, emotions in item_emotions.items():
            unknown = set(emotions) - known
            if unknown:
                raise ValueError(
                    f"item_emotions[{item!r}] names unknown emotional "
                    f"attributes {sorted(unknown)}"
                )
        self.item_emotions = {
            str(item): tuple(emotions)
            for item, emotions in item_emotions.items()
        }
        self.config = config or MapperConfig()
        self._since_decay: dict[int, int] = {}
        #: ``(emotions, strength, is_reward) -> op``: streams repeat the
        #: same few ops endlessly, so each is built once and the frozen
        #: object shared.  Bounded by the catalog — distinct emotion
        #: tuples x the config's strengths x reward/punish.
        self._interned: dict[
            tuple[tuple[str, ...], float, bool], SumUpdateOp
        ] = {}

    # -- resolution --------------------------------------------------------

    def emotions_for(self, event: Event) -> tuple[str, ...]:
        """The emotional attributes an event's item excites.

        The item is the payload's ``course`` when present (campaign
        events keep ``target`` for the campaign id and name the
        advertised course separately), otherwise ``target`` (organic
        browsing, ratings, enrollments).
        """
        item = event.payload.get("course", event.payload.get("target"))
        if item is None:
            return ()
        return self.item_emotions.get(str(item), ())

    def _strength(self, event: Event) -> tuple[float, bool]:
        """(strength, is_reward) for one event; strength 0 means skip."""
        cfg = self.config
        category = event.category
        if category is ActionCategory.NAVIGATION:
            return cfg.reward_navigation, True
        if category is ActionCategory.INFO_REQUEST:
            return cfg.reward_info_request, True
        if category is ActionCategory.ENROLLMENT:
            return cfg.reward_enrollment, True
        if category is ActionCategory.OPINION:
            return cfg.reward_opinion, True
        if category is ActionCategory.RATING:
            value = int(event.payload.get("value", cfg.rating_like_threshold))
            return cfg.rating_strength, value >= cfg.rating_like_threshold
        if category is ActionCategory.CAMPAIGN:
            if event.action.endswith("_click"):
                return cfg.reward_campaign_click, True
            if event.action.endswith("_open"):
                return cfg.reward_campaign_open, True
            return 0.0, True
        # EIT answers flow through the Gradual EIT, account actions are
        # bookkeeping: neither is reinforcement signal.
        return 0.0, True

    # -- mapping -----------------------------------------------------------

    def ops(self, event: Event) -> tuple[SumUpdateOp, ...]:
        """Update ops for one event (possibly empty)."""
        strength, is_reward = self._strength(event)
        if strength <= 0.0:
            return ()
        emotions = self.emotions_for(event)
        if not emotions:
            return ()
        key = (emotions, strength, is_reward)
        update = self._interned.get(key)
        if update is None:
            update = self._interned[key] = (
                RewardOp(emotions, strength)
                if is_reward
                else PunishOp(emotions, strength)
            )
        if self.config.decay_every is None:
            return (update,)
        count = self._since_decay.get(event.user_id, 0) + 1
        if count >= self.config.decay_every:
            self._since_decay[event.user_id] = 0
            return (_DECAY, update)
        self._since_decay[event.user_id] = count
        return (update,)

    def tick_ops(self, user_id: int) -> tuple[SumUpdateOp, ...]:
        """Ops for one explicit (scheduled) decay tick of one user."""
        self._since_decay[int(user_id)] = 0
        return _TICK_OPS

"""The Advice stage: activation/inhibition of excitatory attributes.

Section 3: "Advice stage: this stage consists of providing emotional
information to recommender systems to improve recommendations made to the
user.  It is based on activation or inhibition of excitatory attributes
from each domain of interaction according to the emotional information."

A :class:`DomainProfile` declares, for one interaction domain (e.g.
"training courses"), which *item attributes* each *emotional attribute*
excites or inhibits.  The :class:`AdviceEngine` turns a user's emotional
state into per-item-attribute multipliers: >1 boosts items carrying the
attribute, <1 suppresses them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.core.emotions import EMOTION_CATALOG
from repro.core.interned import InternedIds
from repro.core.sum_model import SmartUserModel


#: cap on a profile's :meth:`DomainProfile.active_layout` memo, one entry
#: per distinct set of active columns: a select activates one item's
#: attributes, so a catalog brings at most one set per distinct attribute
#: combination; a memo that reaches this starts over
_MAX_ACTIVE_LAYOUTS = 1024


@dataclass(frozen=True)
class DomainProfile:
    """Excitatory links of one interaction domain.

    ``links[emotion][item_attribute] = gain`` with gain in [-1, 1]:
    positive gains mean the emotion makes the item attribute more
    appealing (activation), negative gains mean inhibition.
    """

    domain: str
    links: Mapping[str, Mapping[str, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for emotion, targets in self.links.items():
            if emotion not in EMOTION_CATALOG:
                raise KeyError(f"unknown emotional attribute {emotion!r}")
            for item_attribute, gain in targets.items():
                if not -1.0 <= gain <= 1.0:
                    raise ValueError(
                        f"gain {gain} for {emotion}->{item_attribute} "
                        "outside [-1, 1]"
                    )

    def __hash__(self) -> int:
        """Content hash consistent with the generated ``__eq__``.

        The frozen dataclass's auto-generated ``__hash__`` hashes the
        raw ``links`` mapping and raises ``TypeError`` on first use
        (dicts are unhashable), so profiles could never key caches or
        live in sets.  Hash the canonicalized link structure instead;
        ``links`` is treated as immutable after construction (the same
        assumption :meth:`layout` makes), so the value is computed once.
        """
        cached = self.__dict__.get("_hash")
        if cached is None:
            canonical = tuple(
                (emotion, tuple(sorted(targets.items())))
                for emotion, targets in sorted(self.links.items())
            )
            cached = hash((self.domain, canonical))
            object.__setattr__(self, "_hash", cached)
        return cached

    def layout(self) -> tuple[tuple[str, ...], tuple[str, ...], np.ndarray]:
        """``(emotions, item_attributes, gains)`` — computed once, cached.

        ``gains`` is the dense ``(n_emotions, n_attributes)`` gain matrix
        in sorted-emotion × sorted-attribute order, read-only.  ``links``
        is treated as immutable after construction (it was only ever
        validated once, in ``__post_init__``); every matrix consumer used
        to rebuild this layout per call.
        """
        cached = self.__dict__.get("_layout")
        if cached is None:
            emotions = tuple(sorted(self.links))
            attributes = tuple(
                sorted(
                    {
                        item_attribute
                        for targets in self.links.values()
                        for item_attribute in targets
                    }
                )
            )
            columns = {name: j for j, name in enumerate(attributes)}
            gains = np.zeros((len(emotions), len(attributes)))
            for row, emotion in enumerate(emotions):
                for item_attribute, gain in self.links[emotion].items():
                    gains[row, columns[item_attribute]] = gain
            gains.setflags(write=False)
            cached = (emotions, attributes, gains)
            # frozen dataclass: cache through object.__setattr__
            object.__setattr__(self, "_layout", cached)
        return cached

    def link_layout(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(emotion_rows, gains, starts)`` of the links — computed once.

        Parallel read-only vectors sorted attribute-major, emotion-minor:
        link ``l`` reads emotion column ``emotion_rows[l]`` of
        :meth:`layout` with gain ``gains[l]``; attribute ``a`` owns links
        ``starts[a]:starts[a + 1]``, at least one (that is how it got
        into the layout).  Cached on the instance like :meth:`layout` —
        a table keyed by ``id(profile)`` would outlive the profile.
        """
        cached = self.__dict__.get("_links")
        if cached is None:
            emotions, attributes, dense = self.layout()
            linked = np.array(
                [[a in self.links[e] for e in emotions] for a in attributes], dtype=bool
            ).reshape(len(attributes), len(emotions))
            columns, emotion_rows = np.nonzero(linked)  # row-major: the sort
            starts = np.searchsorted(columns, np.arange(len(attributes)))
            cached = (emotion_rows, dense[emotion_rows, columns], starts)
            for array in cached:
                array.setflags(write=False)
            object.__setattr__(self, "_links", cached)
        return cached

    def active_layout(
        self, active: np.ndarray
    ) -> tuple[tuple[str, ...], np.ndarray, np.ndarray, np.ndarray]:
        """``(emotions, emotion_rows, gains, starts)`` of the ``active``
        attribute columns only (sorted, distinct), read-only.

        :meth:`link_layout` cut down to the links of those attributes:
        ``emotions`` are the distinct emotions they read (the other
        vectors index into *that* tuple), each attribute keeps its links
        in the same emotion order, so a product over them is the product
        the full layout takes, bit for bit.  Memoised per column set on
        the instance like :meth:`link_layout` (keyed by the columns'
        bytes); a memo that reaches :data:`_MAX_ACTIVE_LAYOUTS` sets
        starts over.
        """
        memo = self.__dict__.setdefault("_active_links", {})
        key = np.asarray(active, dtype=np.intp).tobytes()
        cached = memo.get(key)
        if cached is None:
            emotion_rows, gains, starts = self.link_layout()
            sizes = np.diff(np.append(starts, len(gains)))
            keep = np.zeros(len(sizes), dtype=bool)
            keep[active] = True
            links = np.flatnonzero(np.repeat(keep, sizes))
            used, rows = np.unique(emotion_rows[links], return_inverse=True)
            emotions = self.layout()[0]
            arrays = (rows, gains[links], np.cumsum(sizes[active]) - sizes[active])
            for array in arrays:
                array.setflags(write=False)
            cached = (tuple(emotions[e] for e in used.tolist()), *arrays)
            if len(memo) >= _MAX_ACTIVE_LAYOUTS:
                memo.clear()
            memo[key] = cached
        return cached

    def item_attributes(self) -> list[str]:
        """All item attributes referenced by this profile, sorted."""
        return list(self.layout()[1])


class ItemTable(Mapping[object, Mapping[str, float]]):
    """The item side of the Advice stage, computed once.

    The item-side twin of :meth:`DomainProfile.layout`: item attributes
    are design-time knowledge, so the clamped presence block is built by
    one :meth:`AdviceEngine.presence_matrix` dict walk over the
    mapping's keys and requests only gather rows from it.  Items the
    mapping does not name share one trailing all-zero row.

    The table is a read-only ``Mapping`` equal to its source (private
    copies, inner mappings included), so a stale block is impossible:
    there is no way to edit the attributes short of building a new
    table.  Nothing it holds is written after construction except the
    one-entry memo of :meth:`intern`, a single store of an immutable
    object.
    """

    def __init__(
        self,
        item_attributes: Mapping[object, Mapping[str, float]],
        profile: DomainProfile | None,
    ) -> None:
        self.profile = profile
        self._source = {
            item: MappingProxyType(dict(attributes))
            for item, attributes in item_attributes.items()
        }
        self._rows = {item: row for row, item in enumerate(self._source)}
        if profile is None:
            presence = np.zeros((len(self._source) + 1, 0))
        else:
            # the extra, unknown key walks to the shared all-zero row
            presence = AdviceEngine().presence_matrix(
                [*self._source, object()], self._source, profile
            )
        presence.setflags(write=False)
        self.presence = presence
        self._memo = InternedIds((), presence[:0])

    def __getitem__(self, item: object) -> Mapping[str, float]:
        return self._source[item]

    def __iter__(self) -> Iterator[object]:
        return iter(self._source)

    def __len__(self) -> int:
        return len(self._source)

    def intern(self, items: Sequence[object]) -> InternedIds:
        """``items`` as :class:`~repro.core.interned.InternedIds` carrying
        their clamped ``(n_items, n_attributes)`` presence rows.

        A full scan names the same catalog request after request, so the
        last universe is kept — validated by ``==`` against its private
        copy, never by identity: callers may edit their list in place.
        A hit answers with the ids as first spelled (``1 == 1.0``).

        A universe of one id (every selection's) is cheaper to intern
        than to compare — one dict look-up and a row view — so it never
        enters the memo, and the catalog stays memoised across it.
        """
        known = self._memo
        if isinstance(items, (list, tuple, InternedIds)) and known == items:
            return known
        ids = InternedIds(items)
        if len(ids) == 1:
            row = self._rows.get(ids[0], len(self._rows))
            return InternedIds(ids, self.presence[row:row + 1])
        if self.presence.shape[1]:
            rows = map(self._rows.get, ids, repeat(len(self._rows)))
            block = self.presence[np.fromiter(rows, dtype=np.intp, count=len(ids))]
        else:  # no profile, no columns: nothing to look up
            block = np.zeros((len(ids), 0))
        block.setflags(write=False)
        self._memo = interned = InternedIds(ids, block)
        return interned

    def presence_rows(self, items: Sequence[object]) -> np.ndarray:
        """Clamped ``(n_items, n_attributes)`` presences of ``items``, read-only."""
        return self.intern(items).presence


#: cells of the per-link factor temporary ``boosts_matrix`` allows itself
#: at once (1 MB of float64): larger populations pass through in chunks
_FACTOR_CELLS = 1 << 17


def evidence_matrix(
    models: Sequence[SmartUserModel], emotions: Sequence[str]
) -> np.ndarray:
    """``(n_users, n_emotions)`` intensity × sensibility evidence.

    A batch (anything with ``intensity_matrix``: the ``FrozenSumBatch``
    / ``ShardedBatch`` every ``batch`` read returns) is read as column
    slices of its frozen copy, a plain sequence of user models (the
    reference) one model at a time.  Absent sensibilities
    are 1.
    """
    if hasattr(models, "intensity_matrix"):
        intensity = models.intensity_matrix(emotions)
        relevance = models.sensibility_matrix(emotions, default=1.0)
    else:
        intensity = np.asarray([[m.emotional[e] for e in emotions] for m in models])
        relevance = np.asarray(
            [[m.sensibility.get(e, 1.0) for e in emotions] for m in models]
        )
    return np.asarray(intensity) * np.asarray(relevance)


@dataclass(frozen=True)
class AdviceEngine:
    """Turns emotional states into item-attribute multipliers.

    Parameters
    ----------
    gain_scale:
        Full-intensity, full-gain deflection of a multiplier away from 1.
        With the default 0.5, multipliers live in [0.5, 1.5] per emotion
        link before combination.
    """

    gain_scale: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.gain_scale <= 1.0:
            raise ValueError(f"gain_scale {self.gain_scale} outside (0, 1]")

    def boosts(
        self, model: SmartUserModel, profile: DomainProfile
    ) -> dict[str, float]:
        """Multiplicative boost per item attribute for this user.

        Each emotion contributes ``1 + gain_scale * gain * intensity *
        sensibility`` and contributions multiply, so independent emotional
        evidence compounds while absent emotions (intensity 0) contribute
        exactly 1.  All outputs are positive.
        """
        multipliers = {name: 1.0 for name in profile.item_attributes()}
        for emotion, targets in profile.links.items():
            intensity = model.emotional[emotion]
            if intensity == 0.0:
                continue
            relevance = model.sensibility.get(emotion, 1.0)
            for item_attribute, gain in targets.items():
                factor = 1.0 + self.gain_scale * gain * intensity * relevance
                multipliers[item_attribute] *= max(factor, 0.05)
        return multipliers

    def adjust_scores(
        self,
        base_scores: Mapping[str, float],
        item_attributes: Mapping[str, Mapping[str, float]],
        model: SmartUserModel,
        profile: DomainProfile,
    ) -> dict[str, float]:
        """Apply boosts to base item scores.

        ``item_attributes[item][attribute] = presence`` in [0, 1]; an
        item's multiplier is the presence-weighted geometric interpolation
        of its attributes' boosts.
        """
        boosts = self.boosts(model, profile)
        adjusted = {}
        for item, base in base_scores.items():
            attributes = item_attributes.get(item, {})
            multiplier = 1.0
            for attribute, presence in attributes.items():
                boost = boosts.get(attribute, 1.0)
                multiplier *= boost ** max(0.0, min(1.0, presence))
            adjusted[item] = base * multiplier
        return adjusted

    # -- vectorized batch path --------------------------------------------

    def boosts_matrix(
        self,
        models: Sequence[SmartUserModel],
        profile: DomainProfile,
        active: np.ndarray | None = None,
    ) -> np.ndarray:
        """Per-user attribute boosts as a ``(n_users, n_attributes)`` array.

        Row ``u`` equals :meth:`boosts` for ``models[u]`` with columns in
        :meth:`DomainProfile.item_attributes` order — or, given
        ``active``, those columns of it only, computed from their links
        alone (:meth:`DomainProfile.active_layout`).  One pass over the
        links replaces the per-user, per-link dict passes.

        ``models`` is anything :func:`evidence_matrix` reads.  Evidence
        must be finite — stores clamp intensities, so it is: a NaN cell
        reaches only the attributes its emotion links, where a dense
        ``0 · NaN`` product would poison the whole row.
        """
        if active is None:
            emotions = profile.layout()[0]
            emotion_rows, gains, starts = profile.link_layout()
        else:
            emotions, emotion_rows, gains, starts = profile.active_layout(active)
        if not len(models) or not len(starts):
            return np.ones((len(models), len(starts)))
        # factor[u, l] = 1 + gain_scale·gain·intensity·sensibility per
        # *link*, floored at 0.05 exactly as in the scalar path, then one
        # product per attribute over its links in emotion order; a cell
        # without a link is a factor of exactly 1.0, skipped bit for bit.
        evidence = evidence_matrix(models, emotions)
        boosts = np.empty((len(models), len(starts)))
        chunk = max(1, _FACTOR_CELLS // len(gains))
        for lo in range(0, len(boosts), chunk):
            factor = evidence[lo:lo + chunk][:, emotion_rows] * gains
            factor *= self.gain_scale
            factor += 1.0
            np.maximum(factor, 0.05, out=factor)
            np.multiply.reduceat(factor, starts, axis=1, out=boosts[lo:lo + chunk])
        return boosts

    def presence_matrix(
        self,
        items: Sequence[object],
        item_attributes: Mapping[object, Mapping[str, float]],
        profile: DomainProfile,
    ) -> np.ndarray:
        """Clamped ``(n_items, n_attributes)`` attribute-presence matrix.

        An :class:`ItemTable` built for ``profile`` answers with a row
        gather; any other mapping (a table built for another profile
        included) is walked dict by dict — the reference the table is
        built from and tested against.
        """
        if hasattr(item_attributes, "presence_rows") and (
            item_attributes.profile == profile
        ):
            return item_attributes.presence_rows(items)
        attributes = profile.item_attributes()
        presence = np.zeros((len(items), len(attributes)))
        columns = {name: j for j, name in enumerate(attributes)}
        for row, item in enumerate(items):
            for attribute, value in item_attributes.get(item, {}).items():
                column = columns.get(attribute)
                if column is not None:
                    presence[row, column] = max(0.0, min(1.0, value))
        return presence

    def multiplier_matrix(
        self,
        models: Sequence[SmartUserModel],
        items: Sequence[object],
        item_attributes: Mapping[object, Mapping[str, float]],
        profile: DomainProfile,
    ) -> np.ndarray:
        """Emotional multipliers for every (user, item) pair at once.

        ``multiplier[u, i] = Π_a boosts[u, a] ** presence[i, a]`` computed
        in log space, so the whole Advice stage is two matmul-shaped ops.
        """
        presence = self.presence_matrix(items, item_attributes, profile)
        return self.multiplier_rows(models, presence, profile)

    def multiplier_rows(
        self,
        models: Sequence[SmartUserModel],
        presence: np.ndarray,
        profile: DomainProfile,
        active: np.ndarray | None = None,
    ) -> np.ndarray:
        """:meth:`multiplier_matrix` over an already gathered presence block
        (``InternedIds.presence`` of a table built for ``profile``).

        ``active`` (``InternedIds.active``) names the columns of
        ``presence`` holding any non-zero cell.  When that is a strict
        subset only those attributes' boosts are computed — links walked,
        emotions read — and every other column of the log block is
        ``0.0``: against an all-zero presence column it contributes
        ``0.0 × 0.0`` where the dense block contributes ``log(b) × 0.0``,
        a zero either way, through the same-shape product — so every cell
        equals the dense one.
        """
        if active is None or len(active) == presence.shape[1]:
            return np.exp(np.log(self.boosts_matrix(models, profile)) @ presence.T)
        logs = np.zeros((len(models), presence.shape[1]))
        logs[:, active] = np.log(self.boosts_matrix(models, profile, active))
        return np.exp(logs @ presence.T)

    def adjust_matrix(
        self,
        base: np.ndarray,
        models: Sequence[SmartUserModel],
        items: Sequence[object],
        item_attributes: Mapping[object, Mapping[str, float]],
        profile: DomainProfile,
    ) -> np.ndarray:
        """Vectorized :meth:`adjust_scores` over a ``(users × items)`` batch.

        ``base[u, i]`` is the emotion-free score of ``items[i]`` for
        ``models[u]``; the result applies the same presence-weighted
        geometric boosts as the scalar path, as ndarray ops.
        """
        base = np.asarray(base, dtype=np.float64)
        if base.shape != (len(models), len(items)):
            raise ValueError(
                f"base scores shape {base.shape} does not match "
                f"({len(models)}, {len(items)})"
            )
        return base * self.multiplier_matrix(
            models, items, item_attributes, profile
        )

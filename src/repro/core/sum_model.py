"""Smart User Models (SUMs).

Section 2: SUMs "act like unobtrusive intelligent user interfaces to
acquire, maintain and update the user's emotional information through an
incremental learning process in everyday life".  Section 5.1: the deployed
SUM "gathers 75 objective, subjective and emotional attributes" per user.

A :class:`SmartUserModel` therefore holds three attribute families:

* **objective** — socio-demographic facts (age, region, …), arbitrary
  values, set once and updated rarely;
* **subjective** — behavioural tendencies in [0, 1] (e.g. preference for
  online courses) learned from implicit feedback;
* **emotional** — an :class:`~repro.core.emotions.EmotionalState` plus a
  :class:`~repro.core.four_branch.FourBranchProfile`, learned by the
  Gradual EIT and the reward/punish loop.

Each non-objective attribute also carries a *sensibility* weight
(the "relevancies" the Attributes Manager Agent assigns automatically),
managed by :mod:`repro.core.sensibility`.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.analysis.contracts import declare_lock, make_lock
from repro.core.emotions import (
    EMOTION_CATALOG,
    EMOTION_NAMES,
    EmotionalState,
    clamp01,
)
from repro.core.four_branch import BRANCH_ORDER, Branch, FourBranchProfile
from repro.core.interned import Population

if TYPE_CHECKING:  # both import this module
    from repro.core.reward import ReinforcementPolicy
    from repro.core.sum_store import BatchRead, FrozenSumBatch
    from repro.core.updates import BatchItems


class UnknownUserError(KeyError):
    """A lookup named users that have no SUM.

    Raised with the *full* list of offending ids (``user_ids``) so batch
    callers — the serving path resolving a request's whole user list —
    can report every unknown user at once instead of 500ing on the first.
    Subclasses :class:`KeyError` so existing ``except KeyError`` callers
    keep working.
    """

    def __init__(self, user_ids: Iterable[int]) -> None:
        self.user_ids: tuple[int, ...] = tuple(int(uid) for uid in user_ids)
        shown = ", ".join(str(uid) for uid in self.user_ids[:20])
        if len(self.user_ids) > 20:
            shown += f", … ({len(self.user_ids)} total)"
        noun = "user" if len(self.user_ids) == 1 else "users"
        super().__init__(f"no SUM for {noun} {shown}")


class AttributeKind(enum.Enum):
    """The three attribute families of Section 5.1."""

    OBJECTIVE = "objective"
    SUBJECTIVE = "subjective"
    EMOTIONAL = "emotional"


@dataclass(frozen=True)
class AttributeSpec:
    """Declaration of one SUM attribute (name, family, documentation)."""

    name: str
    kind: AttributeKind
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("attribute needs a name")


class SmartUserModel:
    """The per-user model: attributes, sensibilities, EI profile.

    Parameters
    ----------
    user_id:
        Stable identifier of the user across all LifeLog sources.
    """

    def __init__(self, user_id: int) -> None:
        self.user_id = int(user_id)
        self.objective: dict[str, Any] = {}
        self.subjective: dict[str, float] = {}
        self.emotional = EmotionalState()
        self.ei_profile = FourBranchProfile()
        #: sensibility weights (relevancies) per emotional/subjective attribute
        self.sensibility: dict[str, float] = {}
        #: evidence counters: how many observations back each attribute
        self.evidence: dict[str, int] = {}
        #: questions already asked by the Gradual EIT
        self.asked_questions: set[str] = set()
        self.answered_questions: set[str] = set()

    # -- objective/subjective ----------------------------------------------

    def set_objective(self, name: str, value: Any) -> None:
        """Record an objective (socio-demographic) fact."""
        self.objective[name] = value

    def set_subjective(self, name: str, value: float) -> None:
        """Set a subjective tendency, clamped to [0, 1]."""
        self.subjective[name] = clamp01(value)

    def nudge_subjective(self, name: str, delta: float) -> float:
        """Shift a subjective tendency by ``delta`` (clamped); returns it."""
        updated = clamp01(self.subjective.get(name, 0.5) + delta)
        self.subjective[name] = updated
        return updated

    # -- emotional -----------------------------------------------------------

    def activate_emotion(self, name: str, delta: float) -> float:
        """Stage-1/3 entry point: shift one emotional intensity.

        Also bumps the evidence counter so sensibility analysis can weigh
        how well-supported each attribute is.
        """
        value = self.emotional.activate(name, delta)
        self.evidence[name] = self.evidence.get(name, 0) + 1
        return value

    def observe_branch(self, branch: Branch, score: float,
                       learning_rate: float = 0.2) -> float:
        """Fold one EIT task observation into the Four-Branch profile."""
        return self.ei_profile.update_branch(branch, score, learning_rate)

    # -- sensibilities -----------------------------------------------------

    def set_sensibility(self, name: str, weight: float) -> None:
        """Set the relevancy weight of one attribute (clamped to [0, 1])."""
        self.sensibility[name] = clamp01(weight)

    def dominant_attributes(self, threshold: float = 0.5) -> list[tuple[str, float]]:
        """Attributes whose sensibility exceeds ``threshold``, strongest first.

        This is the paper's "attributes of his/her user model that exceed a
        sensibility threshold" (Section 5.3, step 3).
        """
        ranked = sorted(
            (
                (name, weight)
                for name, weight in self.sensibility.items()
                if weight > threshold
            ),
            key=lambda item: (-item[1], item[0]),
        )
        return ranked

    # -- feature extraction ----------------------------------------------------

    def emotional_vector(self) -> np.ndarray:
        """Emotional intensities in catalog order."""
        return self.emotional.as_vector(EMOTION_NAMES)

    def feature_vector(
        self,
        subjective_order: Iterable[str] = (),
        include_ei: bool = True,
    ) -> np.ndarray:
        """Dense numeric features: emotional ∥ subjective ∥ EI branches."""
        parts = [self.emotional_vector()]
        subjective = np.asarray(
            [self.subjective.get(name, 0.5) for name in subjective_order],
            dtype=np.float64,
        )
        parts.append(subjective)
        if include_ei:
            parts.append(
                np.asarray(
                    [self.ei_profile.scores[b] for b in BRANCH_ORDER],
                    dtype=np.float64,
                )
            )
        return np.concatenate(parts)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable snapshot of the full model."""
        return {
            "user_id": self.user_id,
            "objective": dict(self.objective),
            "subjective": dict(self.subjective),
            "emotional": dict(self.emotional.intensities),
            "ei_profile": {b.value: s for b, s in self.ei_profile.scores.items()},
            "sensibility": dict(self.sensibility),
            "evidence": dict(self.evidence),
            "asked_questions": sorted(self.asked_questions),
            "answered_questions": sorted(self.answered_questions),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "SmartUserModel":
        """Inverse of :meth:`to_dict` (every attribute is assigned here,
        so the defaults ``__init__`` would build are skipped)."""
        model = cls.__new__(cls)
        model.user_id = int(payload["user_id"])
        model.objective = dict(payload.get("objective", {}))
        model.subjective = {
            k: clamp01(v) for k, v in payload.get("subjective", {}).items()
        }
        model.emotional = EmotionalState(dict(payload.get("emotional", {})))
        model.ei_profile = FourBranchProfile(
            {Branch(k): v for k, v in payload.get("ei_profile", {}).items()}
        )
        model.sensibility = {
            k: clamp01(v) for k, v in payload.get("sensibility", {}).items()
        }
        model.evidence = {k: int(v) for k, v in payload.get("evidence", {}).items()}
        model.asked_questions = set(payload.get("asked_questions", ()))
        model.answered_questions = set(payload.get("answered_questions", ()))
        return model

    def __repr__(self) -> str:
        dominant = [name for name, _ in self.dominant_attributes()][:3]
        return (
            f"SmartUserModel(user={self.user_id}, "
            f"mood={self.emotional.mood():+.2f}, dominant={dominant})"
        )


_SEALED_CLASSES: dict[type, type] = {}


def seal_attributes(obj: object) -> object:
    """Reject all future attribute rebinding on ``obj``.

    The last layer of snapshot freezing: mapping proxies stop item
    writes, but a plain ``snapshot.sensibility = {...}`` would still swap
    a whole family out from under every reader sharing the cached
    snapshot.  Swapping in a sealed subclass keeps ``isinstance`` intact
    while making any later ``setattr`` raise.
    """
    cls = obj.__class__
    sealed = _SEALED_CLASSES.get(cls)
    if sealed is None:
        def __setattr__(self: Any, name: str, value: Any) -> None:
            raise TypeError(
                f"snapshot is read-only; cannot set attribute {name!r}"
            )

        sealed = type(f"_Sealed{cls.__name__}", (cls,), {"__setattr__": __setattr__})
        _SEALED_CLASSES[cls] = sealed
    obj.__class__ = sealed
    return obj


#: ``to_dict()`` key of each Four-Branch score -> the branch
_BRANCH_OF = {branch.value: branch for branch in BRANCH_ORDER}


def frozen_model(payload: dict[str, Any]) -> SmartUserModel:
    """What every backend's ``freeze_view`` returns: a sealed, read-only
    model over one :meth:`~SmartUserModel.to_dict`-shaped ``payload``.

    The payload is live state its caller just copied, so it is adopted
    through ``__new__``: nothing re-clamped, nothing default-constructed.
    Families become mapping proxies, question sets frozensets, and the
    model, ``emotional`` and ``ei_profile`` are sealed — every write raises.
    """
    emotional = EmotionalState.__new__(EmotionalState)
    emotional.intensities = MappingProxyType(payload["emotional"])
    emotional.catalog = EMOTION_CATALOG
    ei_profile = FourBranchProfile.__new__(FourBranchProfile)
    ei_profile.scores = MappingProxyType(
        {_BRANCH_OF[key]: score for key, score in payload["ei_profile"].items()}
    )
    model = SmartUserModel.__new__(SmartUserModel)
    model.user_id = payload["user_id"]
    model.objective = MappingProxyType(payload["objective"])
    model.subjective = MappingProxyType(payload["subjective"])
    model.emotional = emotional
    model.ei_profile = ei_profile
    model.sensibility = MappingProxyType(payload["sensibility"])
    model.evidence = MappingProxyType(payload["evidence"])
    model.asked_questions = frozenset(payload["asked_questions"])
    model.answered_questions = frozenset(payload["answered_questions"])
    seal_attributes(emotional)
    seal_attributes(ei_profile)
    seal_attributes(model)
    return model


@runtime_checkable
class SumResolver(Protocol):
    """The one read surface of every SUM backend, and of a
    :class:`~repro.streaming.cache.SumCache` over any of them.

    ``batch`` is the Advice stage's evidence, one frozen copy of the
    users' intensities and sensibilities; ``rows_for`` checks users
    exist without reading them.  Both raise one :class:`UnknownUserError`
    naming every unknown id, or with ``create=True`` create them empty.
    The freshness stamps are ``None`` where the state is unversioned.
    """

    def get(self, user_id: int) -> SmartUserModel: ...
    def population(self) -> Population: ...
    def rows_for(self, user_ids: Sequence[int], create: bool = False) -> np.ndarray: ...
    def batch(self, user_ids: Sequence[int] | None = None, create: bool = False) -> BatchRead: ...
    def version(self, user_id: int) -> int | None: ...
    @property
    def global_version(self) -> int | None: ...
    @property
    def snapshot_generation(self) -> int | None: ...


# A batch commit and a batch copy exclude each other on the object store.
declare_lock("SumRepository._lock")


class SumRepository:
    """The SUM collection SPA maintains for the whole population
    (``models`` are held as given, not copied)."""

    def __init__(self, models: Iterable[SmartUserModel] = ()) -> None:
        self._models: dict[int, SmartUserModel] = {m.user_id: m for m in models}
        self._population: Population | None = None
        #: held by :meth:`batch_apply_ops` for a whole batch and by
        #: :meth:`batch` and :meth:`freeze_view` for their copies, so no
        #: read sees half a commit
        self._lock = make_lock("SumRepository._lock")

    #: live state: writable, unversioned (a SumCache over the store
    #: counts versions), from no checkpoint
    readonly = False
    global_version = None
    snapshot_generation = None

    def version(self, user_id: int) -> None:
        return None

    def get_or_create(self, user_id: int) -> SmartUserModel:
        """Fetch a user's SUM, creating an empty one on first contact.

        First contact can now arrive from several threads at once (shard
        workers and the serving path), so the insert uses ``setdefault``
        — atomic under the GIL — and every caller sees the same model.
        """
        user_id = int(user_id)
        model = self._models.get(user_id)
        if model is None:
            model = self._models.setdefault(user_id, SmartUserModel(user_id))
        return model

    def get(self, user_id: int) -> SmartUserModel:
        """Fetch an existing SUM; raises :class:`UnknownUserError`."""
        try:
            return self._models[int(user_id)]
        except KeyError:
            raise UnknownUserError([user_id]) from None

    def rows_for(self, user_ids: Sequence[int], create: bool = False) -> np.ndarray:
        """The addresses of ``user_ids`` — on the object store, the ids —
        with the columnar contract: one :class:`UnknownUserError` naming
        every unknown user, who ``create=True`` creates empty instead."""
        ids = list(map(int, user_ids))
        missing = [uid for uid in ids if uid not in self._models]
        if missing and not create:
            raise UnknownUserError(missing)
        for uid in missing:
            self.get_or_create(uid)
        return np.asarray(ids, dtype=np.int64)

    def batch(self, user_ids: Sequence[int] | None = None, create: bool = False) -> FrozenSumBatch:
        """A frozen batch read of ``user_ids`` (default: every user):
        :meth:`rows_for`'s contract, then each user's intensities and
        sensibilities copied under the store lock
        (``FrozenSumBatch.of_rows``)."""
        from repro.core.sum_store import FrozenSumBatch

        ids = self.population() if user_ids is None else self.rows_for(user_ids, create).tolist()
        models = list(map(self._models.__getitem__, ids))
        with self._lock:
            return FrozenSumBatch.of_rows(
                ids, [m.emotional.intensities for m in models], [m.sensibility for m in models]
            )

    def freeze_view(self, user_id: int) -> SmartUserModel:
        """An immutable copy of one user's SUM: :func:`frozen_model` over
        one ``to_dict()``, copied under the store lock, so it never sees
        half a :meth:`batch_apply_ops` commit."""
        model = self.get(user_id)
        with self._lock:
            return frozen_model(model.to_dict())

    def __contains__(self, user_id: object) -> bool:
        return user_id in self._models

    def __len__(self) -> int:
        return len(self._models)

    def __iter__(self) -> Iterator[SmartUserModel]:
        for user_id in sorted(self._models):
            yield self._models[user_id]

    def user_ids(self) -> list[int]:
        """Sorted user ids with a SUM."""
        return sorted(self._models)

    def population(self) -> Population:
        """:meth:`user_ids` interned, one object per user count (read
        first; models are never removed)."""
        key = len(self._models)
        population = self._population
        if population is None or population.key != key:
            population = self._population = Population(sorted(self._models), key)
        return population

    def batch_apply_ops(
        self, items: BatchItems, policy: ReinforcementPolicy
    ) -> list[int]:
        """Apply per-user op sequences — the sequential reference.

        The same write method, and the same contract, as
        :meth:`ColumnarSumStore.batch_apply_ops
        <repro.core.sum_store.ColumnarSumStore.batch_apply_ops>`: the
        batch is validated before any mutation, then each user's ops run
        in order through :func:`~repro.core.updates.apply_ops` on
        :meth:`get_or_create` (first contact creates the SUM), under the
        store lock.  Returns the batch's ``counts``: applied ops per raw
        item.
        """
        from repro.core.sum_store import validate_batch_ops
        from repro.core.updates import apply_ops

        batch = validate_batch_ops(items)
        with self._lock:
            for user_id, ops in batch:
                apply_ops(self.get_or_create(user_id), ops, policy)
        return batch.counts

    def feature_matrix(
        self,
        user_ids: Iterable[int] | None = None,
        subjective_order: Iterable[str] = (),
        include_ei: bool = True,
    ) -> tuple[np.ndarray, list[int]]:
        """Stack feature vectors for ``user_ids`` (default: all, sorted).

        Returns ``(matrix, row_user_ids)``.
        """
        ids = list(user_ids) if user_ids is not None else self.user_ids()
        subjective_order = tuple(subjective_order)
        rows = [
            self.get(uid).feature_vector(subjective_order, include_ei)
            for uid in ids
        ]
        if not rows:
            width = len(EMOTION_NAMES) + len(subjective_order) + (
                len(BRANCH_ORDER) if include_ei else 0
            )
            return np.zeros((0, width)), []
        return np.vstack(rows), ids

    def to_columnar(self):
        """Convert to a :class:`~repro.core.sum_store.ColumnarSumStore`.

        The struct-of-arrays backend serves the same API from contiguous
        columns; see :mod:`repro.core.sum_store`.
        """
        from repro.core.sum_store import ColumnarSumStore

        return ColumnarSumStore.from_repository(self)

    # -- persistence -------------------------------------------------------

    def dumps(self) -> str:
        """Serialize the whole repository to a JSON string."""
        return json.dumps([m.to_dict() for m in self], sort_keys=True)

    @classmethod
    def loads(cls, payload: str) -> "SumRepository":
        """Inverse of :meth:`dumps`."""
        return cls(map(SmartUserModel.from_dict, json.loads(payload)))

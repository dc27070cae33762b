"""Columnar Smart User Model store — struct-of-arrays for the population.

The paper's SPA "exploits heterogeneous, multi-dimensional and massive
databases" to maintain 75-attribute SUMs for the whole population.  The
object backend (:class:`~repro.core.sum_model.SumRepository`) keeps one
Python object per user, so every batch read rebuilds arrays the hardware
could slice directly.  :class:`ColumnarSumStore` flips the layout: the
*population* owns contiguous numpy columns, and each user is a row.

Layout (struct of arrays, row = user):

* ``emotional``   — ``(n, 10)`` float64 intensities in catalog order,
  plus a presence mask (a dict distinguishes "absent" from "0.0");
* ``ei``          — ``(n, 4)`` float64 Four-Branch scores (dense, the
  profile always has all four branches, neutral 0.5);
* ``sensibility`` — dynamically column-interned vocabulary (seeded with
  the ten emotions) of float64 weights + presence mask.  Presence
  matters: the Advice stage reads absent sensibilities as 1.0 while the
  reward loop reads them as 0.0;
* ``subjective``  — column-interned float64 tendencies + mask (absent
  reads as the neutral 0.5);
* ``evidence``    — column-interned int64 observation counters + mask;
* ``objective`` / EIT question sets — cold per-row Python objects (rarely
  touched, arbitrary values).

:class:`SumRowView` subclasses :class:`~repro.core.sum_model.SmartUserModel`
and re-expresses its attribute families as read-only mapping *views* over
one row, so every scalar read — ``model.emotional[e]``,
``model.sensibility.get``, feature extraction, ``dominant_attributes`` —
works unchanged on top of the columns, and every mutator raises.  The
one write path is :meth:`ColumnarSumStore.batch_apply_ops`: a user whose
ops are all decay, reward and punish is applied in vectorized rounds; a
user with any other op (:mod:`repro.core.updates`) has their row copied
once, the ops run on a plain model and the row written back
(:meth:`ColumnarSumStore._write_row`).  Both are bit-equal to the object
store's scalar path by construction: the same IEEE double operations,
just batched differently (the property suite in
``tests/properties/test_columnar_batch.py`` pins this down).  A view's
``to_dict()`` is one row copy taken inside the row's seqlock windows;
:meth:`ColumnarSumStore.freeze_view` seals that copy into a plain
``SmartUserModel`` (``frozen_model``), the type every backend returns.
A batch read (:meth:`ColumnarSumStore.batch`) is the same protocol for
many users: the intensity and sensibility rows copied straight out of
the live columns into a :class:`FrozenSumBatch`, each row across an even,
unchanged row generation and the whole copy inside one layout-epoch
window, so no commit and no compaction can tear it.

Persistence is columnar too: :meth:`ColumnarSumStore.save` writes the
population as dense, mmap-able ``.npy`` column pages through the
:mod:`repro.db` Catalog, and :meth:`dumps`/:meth:`loads` keep the
:class:`SumRepository` JSON format as a compatible import/export path.
"""

from __future__ import annotations

import json
import math
import threading
from functools import cached_property
from itertools import compress
from pathlib import Path
from types import MappingProxyType
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.analysis.contracts import (
    declare_lock,
    declare_seqlock,
    guarded_by,
    make_lock,
    requires_lock,
)
from repro.core.emotions import (
    EMOTION_CATALOG,
    EMOTION_NAMES,
    EmotionalState,
    clamp01,
)
from repro.core.four_branch import BRANCH_ORDER, Branch, FourBranchProfile
from repro.core.interned import Population, int_ids
from repro.core.seqlock import Seqlock, SeqlockStarved
from repro.core.sum_model import SmartUserModel, SumRepository, UnknownUserError, frozen_model
from repro.core.updates import (
    AnalyzeOp,
    BatchItems,
    DecayOp,
    EitAnswerOp,
    OpBatch,
    ProfileOp,
    PunishOp,
    RewardOp,
    SumUpdateOp,
    apply_ops,
)

_GROWTH_FACTOR = 2
_INITIAL_ROWS = 1024
_INITIAL_COLS = 16


def _zeros(shape: tuple[int, ...], dtype: Any) -> np.ndarray:
    """Default array allocator (private heap pages)."""
    return np.zeros(shape, dtype=dtype)


class _MutationClock:
    """Monotonic per-store write counter (dirty tracking for checkpoints).

    Every mutation path — batch applies, decay, row creation, column
    interning, compaction — bumps it, so
    ``ShardedSumStore.save`` can tell an untouched shard (clock equal to
    the value recorded at the previous checkpoint) from a dirty one and
    skip re-serializing its pages.  Bumps happen under the store lock or
    on GIL-atomic integer adds; an over-count only costs a redundant
    page rewrite, never a missed one — bumps *before* the write land in
    program order ahead of it under the same lock.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def bump(self) -> None:
        self.value += 1


# Column families share their owning store's RLock (one serialization
# domain per store), so "_ColumnFamily.lock" is the same runtime object
# as "ColumnarSumStore._lock" and the analyzer treats them as one node;
# the public ``writer_lock`` accessor hands out that same object.
declare_lock(
    "ColumnarSumStore._lock",
    reentrant=True,
    aliases=("_ColumnFamily.lock", "ColumnarSumStore.writer_lock"),
)

# Lock-free reader captures (the protocol is repro.core.seqlock): every
# mutation path bumps the touched rows' generation cells odd before
# writing and even after (always under the store lock), so the row copy
# primitives may be called lock-free *only* through Seqlock.read (or
# read_many) — or under the writer lock, which excludes every bump.
declare_seqlock(
    "ColumnarSumStore.row_generations",
    protects=("_row_payload", "_batch_payload"),
    writer_lock="ColumnarSumStore._lock",
)
# One more cell for the column layout: odd while compact_vocab() swaps
# family registries and arrays.  Whatever slices columns by position —
# a row payload, a batch capture — runs inside one even window.
declare_seqlock(
    "ColumnarSumStore.layout_epoch",
    protects=("_row_payload", "_batch_payload", "_capture_rows"),
    writer_lock="ColumnarSumStore._lock",
)

#: ``to_dict()`` keys of the EI block's columns
_BRANCH_KEYS = tuple(branch.value for branch in BRANCH_ORDER)

#: the frozen emotion vocabulary every store shares; batch-op validation
#: checks against it so the check is store-independent (a sharded router
#: can validate a whole cross-shard batch before any shard mutates)
_EMOTION_INDEX = {name: j for j, name in enumerate(EMOTION_NAMES)}


#: a reward/punish op compiled for one policy — ``(step, column indices,
#: within-op occurrence indices, width)``; see ColumnarSumStore._op_plan
_OpPlan = tuple[float, np.ndarray, np.ndarray, int]

#: cap on a store's op-plan memo: a catalog produces a few hundred
#: distinct ops, so a memo that reaches this is being fed arbitrary
#: strengths and simply starts over
_MAX_OP_PLANS = 4096

#: widest dense id -> row map a store builds, in ids per row: one ``intp``
#: cell per id up to the largest, so 16 keeps it at most 128 bytes a row
#: (the row dict spends ~93 per user) and still covers every shard of a
#: 16-way partition of dense ids; sparser ids stay on the dict
_ROW_MAP_IDS_PER_ROW = 16

#: attribute tuples already checked against the emotion catalog — streams
#: repeat the same few tuples endlessly, so validation is O(1) per op
#: after the first sighting of each tuple
_VALID_ATTR_TUPLES: set[tuple[str, ...]] = set()


def validate_batch_ops(items: BatchItems) -> OpBatch:
    """``items`` as a validated :class:`OpBatch`, before any mutation.

    The guarantee the streaming commit layer leans on: a rejected batch
    leaves every store untouched, so a worker may split the offending
    deliveries out and commit the rest without a double-apply.  Every
    batch entry point (cache commit, shard router, store) calls this first —
    before it takes a lock or writes a byte — and the batch remembers
    the verdict, so whichever layer sees it first checks it and the
    layers below do not: shard A cannot commit before shard B's
    validation failure, and no op is checked twice.  The same pass
    records the users holding an op outside the hot three
    (``batch.scalar_users``).
    """
    batch = OpBatch.of(items)
    if batch.validated:
        return batch
    valid = _VALID_ATTR_TUPLES
    scalar_users: list[int] = []
    for user_id, ops in batch:
        for op in ops:
            if isinstance(op, DecayOp):
                continue
            if isinstance(op, (RewardOp, PunishOp)):
                attributes = op.attributes
                if attributes not in valid:
                    for name in attributes:
                        if name not in _EMOTION_INDEX:
                            raise KeyError(
                                f"unknown emotional attribute {name!r}; "
                                f"have {sorted(_EMOTION_INDEX)}"
                            )
                    valid.add(attributes)
                if not math.isfinite(float(op.strength)):
                    raise ValueError(
                        f"non-finite op strength {op.strength!r}"
                    )
            elif isinstance(op, (ProfileOp, EitAnswerOp, AnalyzeOp)):
                _validate_scalar_op(op)
                scalar_users.append(user_id)
            else:
                raise TypeError(f"unknown SUM update op {op!r}")
    if scalar_users:
        batch.scalar_users = frozenset(scalar_users)
    batch.validated = True
    return batch


def _validate_scalar_op(op: ProfileOp | EitAnswerOp | AnalyzeOp) -> None:
    """What :func:`validate_batch_ops` checks of an op outside the hot
    three: finite subjective values, an answer's option index in range
    and its activations on known emotions."""
    if isinstance(op, ProfileOp):
        for name, value in op.subjective:
            if not math.isfinite(float(value)):
                raise ValueError(f"non-finite tendency {name!r}: {value!r}")
    elif isinstance(op, EitAnswerOp) and op.option is not None:
        options = op.question.options
        if not (isinstance(op.option, int) and 0 <= op.option < len(options)):
            raise IndexError(
                f"option {op.option!r} out of range for {op.question.qid}"
            )
        for name in options[op.option].activations:
            if name not in _EMOTION_INDEX:
                raise KeyError(f"unknown emotional attribute {name!r}")


def _masked_matrix(
    family: Any, rows: np.ndarray | None, names: Sequence[str], default: float
) -> np.ndarray:
    """``(len(rows), len(names))`` family values; absent → ``default``.

    Shared by the live and frozen families so the masked-default
    semantics can never diverge between a snapshot and the store it was
    captured from; ``family`` needs ``column_of``/``values``/``mask``.
    ``rows=None`` reads every row of the arrays (a frozen batch whole)
    and gathers the columns only.
    """
    n = family.values.shape[0] if rows is None else len(rows)
    out = np.full((n, len(names)), float(default))
    columns = [family.column_of(name) for name in names]
    held = [k for k, j in enumerate(columns) if j is not None]
    if held:
        # one gather over the names that have a column; the rest keep
        # ``default``
        cols = np.asarray([columns[k] for k in held])
        grid = (slice(None), cols) if rows is None else (rows[:, None], cols)
        out[:, held] = np.where(
            family.mask[grid], family.values[grid], float(default)
        )
    return out


def _scattered(
    pieces: Sequence[tuple[np.ndarray, tuple[np.ndarray, ...]]],
) -> tuple[np.ndarray, ...]:
    """The first piece's arrays (a copy of every row) with each later
    piece's rows scattered in at its positions.

    A column interned between two copies makes a later piece wider; the
    earlier rows then gain the new columns as absent (zero).
    """
    (__, first), *later = pieces
    merged = list(first)
    for at, payload in later:
        for k, block in enumerate(payload):
            into = merged[k]
            if block.shape[1] > into.shape[1]:
                wider = np.zeros((into.shape[0], block.shape[1]), into.dtype)
                wider[:, : into.shape[1]] = into
                merged[k] = into = wider
            into[at, : block.shape[1]] = block
    return tuple(merged)


@guarded_by("lock", "values", "mask", "index", "order")
class _ColumnFamily:
    """One attribute family: named columns of values + presence masks.

    Columns are interned on first write ("dynamic column-interned
    vocabulary"): a new attribute name becomes a new column for the whole
    population, so reads stay contiguous slices.  ``frozen`` families
    (the fixed emotion catalog) reject unknown names instead.

    Thread-safety: unlike the object backend — where every user owns
    independent dicts — rows share arrays, and capacity growth *replaces*
    them, so an unsynchronized write could land in a just-discarded
    array and vanish.  All mutation therefore serializes on the owning
    store's ``lock`` (reads stay lock-free: a stale array holds the same
    committed values for any row whose writer is quiesced, which is the
    same per-user contract the streaming cache's locks already provide).
    """

    __slots__ = ("index", "order", "values", "mask", "frozen", "lock",
                 "seed", "_dtype", "_alloc", "clock")

    def __init__(
        self,
        dtype: np.dtype,
        row_capacity: int,
        lock: threading.RLock,
        seed_names: Sequence[str] = (),
        frozen: bool = False,
        alloc: Callable[[tuple[int, ...], Any], np.ndarray] | None = None,
        clock: _MutationClock | None = None,
    ) -> None:
        self.lock = lock
        self._alloc = alloc if alloc is not None else _zeros
        self.clock = clock if clock is not None else _MutationClock()
        self._dtype = np.dtype(dtype)
        #: columns the family was constructed with; compaction never drops
        #: them (the emotion seeds pin the shared intensity/sensibility/
        #: evidence column indices the scatter-add path relies on)
        self.seed = tuple(seed_names)
        self.index: dict[str, int] = {name: j for j, name in enumerate(seed_names)}
        self.order: list[str] = list(seed_names)
        col_capacity = max(_INITIAL_COLS, len(self.order))
        self.values = self._alloc((row_capacity, col_capacity), self._dtype)
        self.mask = self._alloc((row_capacity, col_capacity), np.bool_)
        self.frozen = frozen

    @property
    def width(self) -> int:
        return len(self.order)

    def column_of(self, name: str) -> int | None:
        """Column index of ``name`` (``None`` if never interned)."""
        return self.index.get(name)

    def ensure_column(self, name: str) -> int:
        """Intern ``name``; returns its column index."""
        j = self.index.get(name)  # GIL-atomic fast path
        if j is not None:
            return j
        if self.frozen:
            raise KeyError(
                f"unknown attribute {name!r}; have {sorted(self.index)}"
            )
        with self.lock:
            j = self.index.get(name)
            if j is not None:
                return j
            j = len(self.order)
            if j >= self.values.shape[1]:
                new_cols = max(
                    _INITIAL_COLS, self.values.shape[1] * _GROWTH_FACTOR
                )
                grown_v = self._alloc(
                    (self.values.shape[0], new_cols), self._dtype
                )
                grown_v[:, : self.values.shape[1]] = self.values
                grown_m = self._alloc((self.mask.shape[0], new_cols), np.bool_)
                grown_m[:, : self.mask.shape[1]] = self.mask
                self.values, self.mask = grown_v, grown_m
            self.index[name] = j
            self.order.append(name)
            self.clock.bump()
            return j

    def row_dict(self, row: int) -> dict[str, Any]:
        """``row``'s present entries as ``{name: value}`` (Python scalars)."""
        order = self.order
        width = len(order)
        return dict(compress(
            zip(order, self.values[row, :width].tolist()),
            self.mask[row, :width].tolist(),
        ))

    def take(self, rows: slice | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Copies of ``rows`` (a basic slice or an index array) of the
        values and the mask, as wide as both arrays: column growth swaps
        the two one after the other."""
        values, mask = self.values, self.mask
        if values.shape[1] != mask.shape[1]:
            width = min(values.shape[1], mask.shape[1])
            values, mask = values[:, :width], mask[:, :width]
        if isinstance(rows, slice):
            return values[rows].copy(), mask[rows].copy()
        return values.take(rows, axis=0), mask.take(rows, axis=0)

    @requires_lock("lock")
    def grow_rows(self, new_capacity: int) -> None:
        grown_v = self._alloc((new_capacity, self.values.shape[1]), self._dtype)
        grown_v[: self.values.shape[0]] = self.values
        grown_m = self._alloc((new_capacity, self.mask.shape[1]), np.bool_)
        grown_m[: self.mask.shape[0]] = self.mask
        self.values, self.mask = grown_v, grown_m


class _FrozenFamily:
    """Read-only point-in-time copy of some rows of a column family.

    What a batch read hands a :class:`FrozenSumBatch`: the captured
    rows' value and mask copies, marked non-writeable (a mutation attempt
    raises instead of silently diverging from the live store), plus the
    owning family's ``index`` registry, bounded by the captured ``width``.
    """

    __slots__ = ("index", "width", "values", "mask")

    def __init__(
        self,
        index: Mapping[str, int],
        order: Sequence[str],
        values: np.ndarray,
        mask: np.ndarray,
    ) -> None:
        self.index = index
        # A capture can race a column intern on the live family: bound the
        # logical width by what the arrays actually carry (the sliced-off
        # columns are mask-False for every captured row — interning them
        # did not touch these users, or their version would have bumped).
        self.width = min(len(order), values.shape[1])
        self.values = values
        self.mask = mask
        values.flags.writeable = False
        mask.flags.writeable = False

    def column_of(self, name: str) -> int | None:
        j = self.index.get(name)
        return j if j is not None and j < self.width else None

    def ensure_column(self, name: str) -> int:
        """Column lookup only — a frozen family never interns."""
        j = self.column_of(name)
        if j is None:
            raise KeyError(
                f"attribute {name!r} is not in this read-only snapshot"
            )
        return j


class BatchRead:
    """What every batch read returns: user ids in request order, version
    stamps and a starved-row count.

    ``stamps`` maps a user id to the published version the reader took
    *before* copying (absent means 0; a bare store's reads carry none), so
    a row's data is at least as new as its stamp.  ``starved`` counts the
    rows copied under a writer lock because their seqlock read starved.
    """

    __slots__ = ("user_ids", "stamps", "starved")

    def __init__(self, user_ids: Sequence[int], starved: int = 0) -> None:
        self.user_ids = user_ids
        self.stamps: Mapping[int, int] = {}
        self.starved = starved

    def stamped(self, stamps: Mapping[int, int]) -> "BatchRead":
        """This capture, carrying ``stamps``: set by the cache that took
        it, before the capture reaches any reader."""
        self.stamps = stamps
        return self

    @property
    def versions(self) -> dict[int, int]:
        """Each user's stamp: their published version when read."""
        get = self.stamps.get
        return {uid: int(get(uid, 0)) for uid in self.user_ids}

    def __len__(self) -> int:
        return len(self.user_ids)


class FrozenSumBatch(BatchRead):
    """An immutable batch: what a single store's ``batch`` returns,
    behind a :class:`~repro.streaming.cache.SumCache` or bare.

    The intensity and sensibility rows of ``user_ids``, copied out of the
    live columns (:meth:`ColumnarSumStore.batch`) or the live models
    (:meth:`of_rows`): every row one committed state, and the batch
    bit-stable no matter how many commits land afterwards.  The Advice
    stage slices :meth:`intensity_matrix` / :meth:`sensibility_matrix`
    directly.
    """

    __slots__ = ("emotional", "sensibility")

    def __init__(
        self,
        user_ids: Sequence[int],
        emotional: _FrozenFamily,
        sensibility: _FrozenFamily,
        starved: int = 0,
    ) -> None:
        super().__init__(user_ids, starved)
        self.emotional = emotional
        self.sensibility = sensibility

    @classmethod
    def of_rows(
        cls,
        user_ids: Sequence[int],
        intensities: Sequence[Mapping[str, float]],
        sensibilities: Sequence[Mapping[str, float]],
    ) -> "FrozenSumBatch":
        """A batch over per-user mappings, the object store's copy (the
        caller excludes writers): intensities in the emotion catalog's
        columns, sensibilities in the catalog's and then every other name
        a user carries; absent cells are mask-False zeros, as in a store."""
        extra = set[str]().union(*sensibilities).difference(_EMOTION_INDEX)
        return cls(
            user_ids,
            _gathered(intensities, EMOTION_NAMES),
            _gathered(sensibilities, EMOTION_NAMES + tuple(sorted(extra))),
        )

    def intensity_matrix(self, order: Sequence[str]) -> np.ndarray:
        """``(n_users, len(order))`` emotional intensities at capture."""
        cols = [self.emotional.ensure_column(name) for name in order]
        return self.emotional.values[:, cols]

    def sensibility_matrix(
        self, order: Sequence[str], default: float = 1.0
    ) -> np.ndarray:
        """``(n_users, len(order))`` sensibilities; absent → ``default``."""
        return _masked_matrix(self.sensibility, None, order, default)


def _gathered(rows: Sequence[Mapping[str, float]], order: Sequence[str]) -> _FrozenFamily:
    """``order``'s cells of every mapping in ``rows`` as a frozen family."""
    shape = (len(rows), len(order))
    values = [[row.get(name, 0.0) for name in order] for row in rows]
    mask = [[name in row for name in order] for row in rows]
    return _FrozenFamily(
        {name: j for j, name in enumerate(order)}, order,
        np.array(values, np.float64).reshape(shape),
        np.array(mask, bool).reshape(shape),
    )


class _RowMapView(Mapping[str, Any]):
    """Read-only dict view of one family row (presence-mask aware)."""

    __slots__ = ("_family", "_row", "_cast")

    def __init__(
        self, family: _ColumnFamily, row: int,
        cast: Callable[[Any], Any] = float,
    ) -> None:
        self._family = family
        self._row = row
        self._cast = cast

    def __getitem__(self, name: str) -> Any:
        j = self._family.column_of(name)
        if j is None or not self._family.mask[self._row, j]:
            raise KeyError(name)
        return self._cast(self._family.values[self._row, j])

    def __iter__(self) -> Iterator[str]:
        mask = self._family.mask[self._row]
        order = self._family.order
        for j in np.flatnonzero(mask[: len(order)]):
            yield order[j]

    def __len__(self) -> int:
        return int(self._family.mask[self._row, : self._family.width].sum())

    def __repr__(self) -> str:
        return repr(dict(self))


class _BranchScoresView(Mapping[Branch, float]):
    """Read-only ``dict[Branch, float]`` view over one row of the EI block."""

    __slots__ = ("_store", "_row")

    _COLUMN = {branch: j for j, branch in enumerate(BRANCH_ORDER)}

    def __init__(self, store: "ColumnarSumStore", row: int) -> None:
        self._store = store
        self._row = row

    def __getitem__(self, branch: Branch) -> float:
        return float(self._store._ei[self._row, self._COLUMN[branch]])

    def __iter__(self) -> Iterator[Branch]:
        return iter(BRANCH_ORDER)

    def __len__(self) -> int:
        return len(BRANCH_ORDER)

    def __repr__(self) -> str:
        return repr(dict(self))


class _EmotionalStateView(EmotionalState):
    """:class:`EmotionalState` whose intensities live in store columns."""

    def __init__(self, store: "ColumnarSumStore", row: int) -> None:
        # Deliberately skip the dataclass __init__: intensities is a live
        # mapping view, not an owned dict, and needs no re-validation.
        self.intensities = _RowMapView(store._emotional, row)
        self.catalog = EMOTION_CATALOG
        self._store = store
        self._row = row

    def as_vector(self, order: Iterable[str] | None = None) -> np.ndarray:
        names = tuple(order) if order is not None else EMOTION_NAMES
        if names == EMOTION_NAMES:
            width = len(EMOTION_NAMES)
            return self._store._emotional.values[self._row, :width].astype(
                np.float64, copy=True
            )
        return super().as_vector(names)


class _FourBranchProfileView(FourBranchProfile):
    """:class:`FourBranchProfile` whose scores live in store columns."""

    def __init__(self, store: "ColumnarSumStore", row: int) -> None:
        self.scores = _BranchScoresView(store, row)


class SumRowView(SmartUserModel):
    """One user's SUM as a read-only live view over one row.

    Subclasses :class:`SmartUserModel` so every read — feature
    extraction, ``dominant_attributes``, ``to_dict`` — runs unchanged;
    only the storage underneath differs.  Each family is a read-only
    mapping over the row (built on first access; families are stable
    objects whose arrays are looked up on every read, so a view stays
    valid across array growth), the cold state is read through on every
    access, and every mutator raises: a stored SUM is written only by
    :meth:`ColumnarSumStore.batch_apply_ops`.
    """

    def __init__(self, store: "ColumnarSumStore", user_id: int, row: int) -> None:
        self.__dict__.update(user_id=int(user_id), _store=store, _row=row)

    def __setattr__(self, name: str, value: Any) -> None:
        raise TypeError(
            f"a stored SUM is read-only; cannot set {name!r} (commit an "
            "OpBatch through the store's batch_apply_ops)"
        )

    @cached_property
    def emotional(self) -> EmotionalState:
        return _EmotionalStateView(self._store, self._row)

    @cached_property
    def ei_profile(self) -> FourBranchProfile:
        return _FourBranchProfileView(self._store, self._row)

    @cached_property
    def subjective(self) -> Mapping[str, float]:
        return _RowMapView(self._store._subjective, self._row)

    @cached_property
    def sensibility(self) -> Mapping[str, float]:
        return _RowMapView(self._store._sensibility, self._row)

    @cached_property
    def evidence(self) -> Mapping[str, int]:
        return _RowMapView(self._store._evidence, self._row, cast=int)

    # -- cold, per-row Python state (replaced whole by _write_row) ----------

    @property
    def objective(self) -> Mapping[str, Any]:
        return MappingProxyType(self._store._objective[self._row])

    @property
    def asked_questions(self) -> frozenset[str]:
        return frozenset(self._store._asked[self._row])

    @property
    def answered_questions(self) -> frozenset[str]:
        return frozenset(self._store._answered[self._row])

    def to_dict(self) -> dict[str, Any]:
        """:meth:`SmartUserModel.to_dict` as one consistent row copy
        (see :meth:`ColumnarSumStore.freeze_view`)."""
        return self._store._read_row(self._row, self.user_id)


@guarded_by(
    "_lock",
    "_row_of",
    "_user_ids",
    "_n",
    "_capacity",
    "_ei",
    "_objective",
    "_asked",
    "_answered",
)
class ColumnarSumStore:
    """Struct-of-arrays SUM backend for the whole population.

    Duck-types :class:`~repro.core.sum_model.SumRepository` (``get``,
    ``get_or_create``, ``user_ids``, ``feature_matrix``, ``dumps`` /
    ``loads``, iteration) so every existing layer — serving, streaming,
    campaigns — can run on top of it unchanged, while batch consumers
    get true columnar access (:meth:`batch`, :meth:`batch_apply_ops`).
    """

    def __init__(
        self,
        initial_capacity: int = _INITIAL_ROWS,
        *,
        alloc: Callable[[tuple[int, ...], Any], np.ndarray] | None = None,
    ) -> None:
        capacity = max(1, int(initial_capacity))
        #: serializes every mutation: rows share arrays and capacity
        #: growth replaces them, so concurrent shard workers must not
        #: interleave writes with structural changes (reads stay
        #: lock-free: row and batch copies run inside the seqlock
        #: windows below)
        self._lock = make_lock("ColumnarSumStore._lock", reentrant=True)
        #: ``alloc(shape, dtype) -> zeroed writable array`` — every dense
        #: block (family values/masks, user ids, EI) goes through it, so
        #: a subclass/factory can back the store with shared memory
        #: (:mod:`repro.core.shm_store`) without touching any write path
        self._alloc = alloc if alloc is not None else _zeros
        self._clock = _MutationClock()
        #: per-row seqlock cells: every mutation path bumps the touched
        #: rows odd before writing and even after (under _lock), so
        #: lock-free row copies read through it instead of taking the
        #: write lock
        self.row_generations = Seqlock(self._alloc((capacity,), np.int64))
        #: column-layout seqlock epoch: odd while compact_vocab() swaps
        #: family registries/arrays; captures run inside one even window
        #: and retry when the value moved, so compaction requires neither
        #: quiesced readers nor a manual invalidate().
        #: Allocated like every other block, so on shared pages a writer
        #: process's compaction is visible to the parent's captures.
        self.layout_epoch = Seqlock(self._alloc((1,), np.int64))
        self._row_of: dict[int, int] = {}
        self._user_ids = self._alloc((capacity,), np.int64)
        self._n = 0
        self._capacity = capacity
        self._emotional = _ColumnFamily(
            np.float64, capacity, self._lock,
            seed_names=EMOTION_NAMES, frozen=True,
            alloc=self._alloc, clock=self._clock,
        )
        self._sensibility = _ColumnFamily(
            np.float64, capacity, self._lock, seed_names=EMOTION_NAMES,
            alloc=self._alloc, clock=self._clock,
        )
        self._subjective = _ColumnFamily(
            np.float64, capacity, self._lock,
            alloc=self._alloc, clock=self._clock,
        )
        self._evidence = _ColumnFamily(
            np.int64, capacity, self._lock, seed_names=EMOTION_NAMES,
            alloc=self._alloc, clock=self._clock,
        )
        ei = self._alloc((capacity, len(BRANCH_ORDER)), np.float64)
        ei[:] = 0.5
        self._ei = ei
        self._objective: list[dict[str, Any]] = []
        self._asked: list[set[str]] = []
        self._answered: list[set[str]] = []
        #: the last :meth:`population`, replaced when its key moves
        self._population: Population | None = None
        #: ``(key, map)``: the dense id -> row map of :meth:`_row_map`,
        #: under :meth:`population`'s key, replaced when it moves
        self._dense_rows: tuple[tuple[int, int], np.ndarray | None] | None = None
        #: set by :meth:`load` with ``mmap=True``: the column pages are
        #: read-only memory maps shared across replica processes, and
        #: every write path raises instead of faulting or forking pages
        self._readonly = False
        #: refresh-protocol floors, set by :meth:`load` from the catalog
        #: meta a generation-stamped :meth:`save` wrote: the snapshot
        #: generation this store was loaded from, the persisted per-user
        #: version map (the cache's counters at checkpoint time) and the
        #: persisted global version — all ``None`` on a live store
        self._snapshot_generation: int | None = None
        self._version_floors: dict[int, int] | None = None
        self._global_floor: int | None = None
        #: op value -> what it does under ``_plan_rates`` (the policy's
        #: learning rate and punish ratio); bounded by _MAX_OP_PLANS and
        #: reset when a batch arrives under different rates
        self._plan_rates: tuple[float, float] | None = None
        self._op_plans: dict[SumUpdateOp, _OpPlan | None] = {}

    @property
    def readonly(self) -> bool:
        """Whether this store is a read-only (mmap-loaded) replica."""
        return self._readonly

    @property
    def mutation_count(self) -> int:
        """Monotonic write-counter value (see :class:`_MutationClock`).

        Equal values across two observations with writers quiesced mean
        *no* mutation happened in between — the contract checkpoint
        delta-skipping relies on.
        """
        return self._clock.value

    @property
    def writer_lock(self) -> threading.RLock:
        """The store lock every generation bump happens under.

        The pessimistic fallback for seqlock readers: a capture whose
        :meth:`~repro.core.seqlock.Seqlock.read` starved (a saturated
        writer spends its whole duty cycle inside the odd window, and
        numpy releases the GIL exactly there) may take this lock for one
        copy — holding it excludes every writer, so no retry is needed.
        Fallback only; the optimistic read stays the fast path.
        """
        return self._lock

    # -- freshness floors (replica duck-type of the SumCache surface) -------

    @property
    def snapshot_generation(self) -> int | None:
        """Generation of the checkpoint this store was loaded from.

        ``None`` on live stores and on directories written before
        generation stamping existed.  Serving responses carry it so a
        replica's bounded staleness is observable per response.
        """
        return self._snapshot_generation

    def version(self, user_id: int) -> int | None:
        """Persisted per-user version floor for replica-served reads.

        A store loaded from a generation-stamped checkpoint reports the
        version map persisted with it (the streaming cache's counters at
        checkpoint time), falling back to the snapshot generation when no
        map was saved — so ``sum_version`` on responses served from a
        replica is never silently ``None``.  Live stores return ``None``:
        their reads are unversioned unless wrapped in a
        :class:`~repro.streaming.cache.SumCache`.
        """
        if self._version_floors is not None:
            return int(self._version_floors.get(int(user_id), 0))
        if self._snapshot_generation is not None:
            return int(self._snapshot_generation)
        return None

    @property
    def global_version(self) -> int | None:
        """Persisted global version floor (``None`` on live stores)."""
        if self._global_floor is not None:
            return int(self._global_floor)
        return self._snapshot_generation

    # -- row management ----------------------------------------------------

    @requires_lock("_lock")
    def _grow_rows(self, needed: int) -> None:
        if needed <= self._capacity:
            return
        new_capacity = self._capacity
        while new_capacity < needed:
            new_capacity *= _GROWTH_FACTOR
        grown_ids = self._alloc((new_capacity,), np.int64)
        grown_ids[: self._n] = self._user_ids[: self._n]
        self._user_ids = grown_ids
        # replacing the generation cells invalidates any in-flight
        # lock-free capture by identity
        self.row_generations.grow(self._alloc((new_capacity,), np.int64))
        for family in self._families():
            family.grow_rows(new_capacity)
        grown_ei = self._alloc((new_capacity, len(BRANCH_ORDER)), np.float64)
        grown_ei[:] = 0.5
        grown_ei[: self._n] = self._ei[: self._n]
        self._ei = grown_ei
        self._capacity = new_capacity

    def _families(self) -> tuple[_ColumnFamily, ...]:
        return (self._emotional, self._sensibility, self._subjective, self._evidence)

    def _new_row(self, user_id: int) -> int:
        if self._readonly:
            raise TypeError(
                "store is a read-only mmap replica; cannot create "
                f"user {user_id}"
            )
        with self._lock:
            row = self._row_of.get(user_id)
            if row is not None:  # lost a first-contact race: reuse
                return row
            row = self._n
            self._grow_rows(row + 1)
            self._clock.bump()
            self._user_ids[row] = user_id
            self._objective.append({})
            self._asked.append(set())
            self._answered.append(set())
            self._n += 1
            # published last: once visible, the row is fully initialized
            self._row_of[user_id] = row
            return row

    def row_index(self, user_id: int) -> int:
        """The row backing ``user_id`` (raises for unknown users)."""
        try:
            return self._row_of[int(user_id)]
        except KeyError:
            raise UnknownUserError([user_id]) from None

    def rows_for(
        self, user_ids: Sequence[int], create: bool = False
    ) -> np.ndarray:
        """Row indices for ``user_ids``; optionally creating missing rows.

        Unknown users (with ``create=False``) raise a single
        :class:`~repro.core.sum_model.UnknownUserError` naming them all.
        An id vector (an interned audience's ``int64`` vector, or such an
        array) reads its rows off the dense map (:meth:`_mapped_rows`);
        a list, what every write path passes, and whatever the map cannot
        answer walk the row dict, the source of truth.
        """
        vector = getattr(user_ids, "vector", user_ids)
        if isinstance(vector, np.ndarray) and vector.dtype == np.int64:
            rows = self._mapped_rows(vector)
            if rows is not None:
                return rows
        # C-level bulk lookup: the serving read path resolves the whole
        # population per request, so no per-id Python bytecode here.
        rows_list = list(map(self._row_of.get, user_ids))
        if None in rows_list:
            if create:
                for i, row in enumerate(rows_list):
                    if row is None:
                        rows_list[i] = self._new_row(int(user_ids[i]))
            else:
                raise UnknownUserError(
                    int(uid)
                    for uid, row in zip(user_ids, rows_list)
                    if row is None
                )
        return np.asarray(rows_list, dtype=np.intp)

    def _mapped_rows(self, ids: np.ndarray) -> np.ndarray | None:
        """The rows of the ``int64`` id vector ``ids`` off the dense map
        (:meth:`_row_map`), or ``None`` where the row dict must answer: a
        single id (one dict ``get`` beats a gather), no map, an id
        negative or past the map, or a miss (an unknown user, or one
        registered since the map was built)."""
        if len(ids) < 2:
            return None
        row_map = self._row_map()
        if row_map is None or ids.min() < 0 or ids.max() >= len(row_map):
            return None
        rows = row_map[ids]
        return None if rows.min() < 0 else rows

    def _row_map(self) -> np.ndarray | None:
        """The read-only ``intp`` map from user id to row (``-1``: no row),
        or ``None`` when the ids are negative or too sparse for one
        (:data:`_ROW_MAP_IDS_PER_ROW`).

        Built on the read path, never maintained: keyed like
        :meth:`population` (the published row count and the layout
        epoch, read first) and scattered from ``_user_ids`` for the rows
        that count covers.  ``_new_row`` writes a row's id before it
        publishes the row and rows never move, so a hit is that user's
        row for good and a user registered later is a miss.
        """
        key = (len(self._row_of), int(self.layout_epoch.cells[0]))
        cached = self._dense_rows
        if cached is None or cached[0] != key:
            ids = self._user_ids[: key[0]]
            row_map: np.ndarray | None = None
            if len(ids) and ids.min() >= 0:
                span = int(ids.max()) + 1
                if span <= _ROW_MAP_IDS_PER_ROW * len(ids):
                    row_map = np.full(span, -1, dtype=np.intp)
                    row_map[ids] = np.arange(len(ids), dtype=np.intp)
                    row_map.setflags(write=False)
            cached = self._dense_rows = (key, row_map)
        return cached[1]

    # -- repository duck-type ----------------------------------------------

    def get_or_create(self, user_id: int) -> SumRowView:
        """A read-only view of a user's SUM, creating an empty row on
        first contact."""
        user_id = int(user_id)
        row = self._row_of.get(user_id)
        if row is None:
            row = self._new_row(user_id)
        return SumRowView(self, user_id, row)

    def get(self, user_id: int) -> SumRowView:
        """A read-only view of an existing SUM; raises for unknown users."""
        user_id = int(user_id)
        row = self._row_of.get(user_id)
        if row is None:
            raise UnknownUserError([user_id])
        return SumRowView(self, user_id, row)

    def __contains__(self, user_id: object) -> bool:
        return user_id in self._row_of

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[SumRowView]:
        for user_id in sorted(self._row_of):
            yield self.get(user_id)

    def user_ids(self) -> list[int]:
        """Sorted user ids with a SUM."""
        return list(self.population())

    def population(self) -> Population:
        """Every user, sorted and interned, with their rows: one object
        per row set.

        Keyed by the published row count (``_new_row`` publishes a row
        last) and the layout epoch (``adopt_layout`` moves it), read
        *before* the listing, so no population lacks a user created
        before the call.  The ids are the row map's own keys.
        """
        key = (len(self._row_of), int(self.layout_epoch.cells[0]))
        population = self._population
        if population is None or population.key != key:
            row_of = self._row_of
            ids = sorted(row_of)
            rows = np.fromiter(map(row_of.get, ids), np.intp, len(ids))
            rows.setflags(write=False)
            population = self._population = Population(ids, key, self, rows)
        return population

    def batch(
        self, user_ids: Sequence[int] | None = None, create: bool = False
    ) -> FrozenSumBatch:
        """A frozen batch read of ``user_ids`` (default: every user).

        :meth:`rows_for` plus one capture (:meth:`_capture`): unknown
        users raise one :class:`~repro.core.sum_model.UnknownUserError`
        naming them all, ``create=True`` creates them first.  A
        :meth:`population` of this store brings its rows along.
        """
        if user_ids is None:
            user_ids = self.population()
        if isinstance(user_ids, Population) and user_ids.source is self:
            return self._capture(user_ids, user_ids.rows)
        ids = int_ids(user_ids)
        return self._capture(ids, self.rows_for(ids, create=create))

    def _capture(self, user_ids: Sequence[int], rows: np.ndarray) -> FrozenSumBatch:
        """The intensity and sensibility ``rows`` of ``user_ids``, copied
        inside one layout-epoch window (:meth:`_capture_rows`).

        A compaction mid-copy makes the whole copy retry; one starved of
        a quiet layout copies under the writer lock.
        """
        try:
            families, starved = self.layout_epoch.read(0, self._capture_rows, rows)
        except SeqlockStarved:
            with self._lock:  # starved: exclude compaction outright
                families, starved = self._capture_rows(rows)
        return FrozenSumBatch(user_ids, *families, starved)

    def _capture_rows(
        self, rows: np.ndarray
    ) -> tuple[tuple[_FrozenFamily, _FrozenFamily], int]:
        """``rows`` of the two batch families, each row across an even,
        unchanged row generation; ``(families, rows starved)``.

        Protected by the layout epoch.  One row (every ``recommend``) or
        none is the scalar read over basic slices.  Many rows are one
        ``take`` per array and a second gather of the cells; only the rows
        whose cell was odd or moved are copied again, by position, and
        scattered into the first copy.  Rows starved of a quiet window are
        copied under the writer lock and counted.
        """
        if len(rows) < 2:
            row = int(rows[0]) if len(rows) else 0
            span = slice(row, row + len(rows))
            try:
                payload = self.row_generations.read(row, self._batch_payload, span)
                starved = 0
            except SeqlockStarved:
                with self._lock:  # starved: exclude writers outright
                    payload = self._batch_payload(span)
                starved = len(rows)
        else:
            # the first copy takes every row; later ones only the losers
            pieces: list[tuple[np.ndarray, tuple[np.ndarray, ...]]] = []
            try:
                self.row_generations.read_many(rows, lambda at: pieces.append(
                    (at, self._batch_payload(rows[at] if pieces else rows))
                ))
                starved = 0
            except SeqlockStarved as lost:
                at = lost.rows
                with self._lock:  # starved: exclude writers outright
                    pieces.append(
                        (at, self._batch_payload(rows[at] if pieces else rows))
                    )
                starved = len(at)
            payload = _scattered(pieces)
        emotional, sensibility = self._emotional, self._sensibility
        return (
            _FrozenFamily(emotional.index, emotional.order, *payload[:2]),
            _FrozenFamily(sensibility.index, sensibility.order, *payload[2:]),
        ), starved

    def _batch_payload(self, rows: slice | np.ndarray) -> tuple[np.ndarray, ...]:
        """Copies of ``rows`` of the intensity and sensibility values and
        masks.  Protected by both seqlocks, as :meth:`_row_payload` is."""
        return (*self._emotional.take(rows), *self._sensibility.take(rows))

    def freeze_view(self, user_id: int) -> SmartUserModel:
        """An immutable point-in-time copy of one user's SUM.

        :func:`~repro.core.sum_model.frozen_model` over one
        :meth:`_read_row` copy (the sealed type every backend returns), so
        neither a commit — from this process or a worker process writing
        the same pages — nor a :meth:`compact_vocab` can tear it.
        """
        user_id = int(user_id)
        return frozen_model(self._read_row(self.row_index(user_id), user_id))

    def _read_row(self, row: int, user_id: int) -> dict[str, Any]:
        """:meth:`_row_payload` inside one row-generation window, nested in
        one layout-epoch window; a starved read copies once under the
        writer lock, as a batch read's starved rows do."""
        try:
            return self.layout_epoch.read(0, lambda: self.row_generations.read(
                row, self._row_payload, row, user_id
            ))
        except SeqlockStarved:
            with self._lock:  # starved: exclude writers outright
                return self._row_payload(row, user_id)

    def _row_payload(self, row: int, user_id: int) -> dict[str, Any]:
        """``row`` as a :meth:`SmartUserModel.to_dict` payload (raw copy).

        Protected by both seqlocks: a commit mid-copy would pair new
        values with old ones, a compaction old registries with new columns.
        """
        return {
            "user_id": user_id,
            "objective": dict(self._objective[row]),
            "subjective": self._subjective.row_dict(row),
            "emotional": self._emotional.row_dict(row),
            "ei_profile": dict(zip(_BRANCH_KEYS, self._ei[row].tolist())),
            "sensibility": self._sensibility.row_dict(row),
            "evidence": self._evidence.row_dict(row),
            "asked_questions": sorted(self._asked[row]),
            "answered_questions": sorted(self._answered[row]),
        }

    # -- vocabulary compaction ----------------------------------------------

    def compact_vocab(self) -> int:
        """Drop dynamically interned columns whose presence is all-absent.

        Campaigns retire attributes but interned columns lived forever
        (the ROADMAP compaction item): every ``pref[...]`` or sensibility
        name ever written kept a column for the whole population.  This
        pass rebuilds the sensibility/subjective/evidence families keeping
        only seed columns (the emotion vocabulary — pinned so the shared
        intensity/sensibility/evidence column indices the scatter-add
        path relies on survive unchanged) and columns some live row still
        marks present.  Returns how many columns were dropped.

        Safe under live captures: the swap runs inside a layout-epoch
        seqlock window (odd while columns move, even once the new layout
        is published), and every capture path compares the epoch before
        and after slicing — a capture that raced the swap retries, so no
        quiescing or manual ``invalidate()`` is needed.  Writers are
        excluded the ordinary way (the store lock).
        Frozen captures taken earlier stay valid — they hold the
        pre-compaction registries and arrays.
        """
        if self._readonly:
            raise TypeError(
                "store is a read-only mmap replica; compact the writable "
                "primary and re-checkpoint instead"
            )
        with self._lock:
            dropped = 0
            # odd while columns move: captures stall, then retry
            with self.layout_epoch.write(0):
                for family in (
                    self._sensibility, self._subjective, self._evidence
                ):
                    dropped += self._compact_family(family)
            if dropped:
                self._clock.bump()
            return dropped

    @requires_lock("_lock")
    def _compact_family(self, family: _ColumnFamily) -> int:
        n = self._n
        seed = set(family.seed)
        keep = [
            name
            for j, name in enumerate(family.order)
            if name in seed or bool(family.mask[:n, j].any())
        ]
        dropped = len(family.order) - len(keep)
        if not dropped:
            return 0
        cols = np.asarray([family.index[name] for name in keep], dtype=np.intp)
        col_capacity = max(_INITIAL_COLS, len(keep))
        values = family._alloc(
            (family.values.shape[0], col_capacity), family.values.dtype
        )
        mask = family._alloc((family.mask.shape[0], col_capacity), np.bool_)
        if len(cols):
            values[:, : len(cols)] = family.values[:, cols]
            mask[:, : len(cols)] = family.mask[:, cols]
        # fresh registries, not in-place mutation: frozen captures share
        # the old index dict/order list by reference and must keep seeing
        # the layout their arrays were sliced under
        family.index = {name: j for j, name in enumerate(keep)}
        family.order = list(keep)
        family.values, family.mask = values, mask
        return dropped

    # -- columnar reads ----------------------------------------------------

    def feature_matrix(
        self,
        user_ids: Iterable[int] | None = None,
        subjective_order: Iterable[str] = (),
        include_ei: bool = True,
    ) -> tuple[np.ndarray, list[int]]:
        """Columnar :meth:`SumRepository.feature_matrix`: slices, no loops.

        Bit-equal to stacking ``feature_vector`` per model — the columns
        *are* the per-model values.
        """
        ids = (
            [int(uid) for uid in user_ids]
            if user_ids is not None
            else self.user_ids()
        )
        subjective_order = tuple(subjective_order)
        width = len(EMOTION_NAMES) + len(subjective_order) + (
            len(BRANCH_ORDER) if include_ei else 0
        )
        if not ids:
            return np.zeros((0, width)), []
        rows = self.rows_for(ids)
        parts = [self._emotional.values[rows][:, : len(EMOTION_NAMES)]]
        parts.append(
            _masked_matrix(self._subjective, rows, subjective_order, default=0.5)
        )
        if include_ei:
            parts.append(self._ei[rows])
        return np.hstack(parts), ids

    # -- vectorized update path --------------------------------------------

    def batch_apply_ops(self, items: BatchItems, policy: Any) -> list[int]:
        """Apply per-user op sequences vectorized across the population.

        ``items`` is an :class:`~repro.core.updates.OpBatch` or raw
        ``(user_id, ops)`` pairs, which :meth:`OpBatch.of
        <repro.core.updates.OpBatch.of>` makes one (same path from there
        on); each user's ops apply in order, and different users'
        sequences commute (they touch disjoint rows), so op index ``k``
        of every user is applied as one vectorized "round": decays are
        one array multiply over the decaying rows, rewards/punishes are
        scatter-adds through the same
        :class:`~repro.core.reward.ReinforcementPolicy` clamps as the
        scalar path — bit-equal results, population-at-once speed.  A
        user whose ops include a profile, EIT or analysis op is applied
        whole on a plain model instead (:meth:`_apply_scalar_users`),
        inside the same odd window and clock bump.

        The batch is validated *before* any mutation unless a layer
        above already did (unknown ops, unknown attributes or non-finite
        strengths raise with the store untouched), as on the object
        store.  Returns the batch's ``counts``: applied ops per raw item,
        aligned with ``items``.
        """
        if self._readonly:
            raise TypeError(
                "store is a read-only mmap replica; updates must run "
                "against the writable primary"
            )
        batch = validate_batch_ops(items)
        with self._lock:
            self._apply_batch_locked(batch, policy)
        return batch.counts

    @requires_lock("_lock")
    def _apply_batch_locked(self, batch: OpBatch, policy: Any) -> None:
        """Apply a validated batch (caller holds the lock) — what the
        sharded router calls on the partition that owns the batch."""
        if not batch.user_ids:
            return
        self._clock.bump()
        rows = self.rows_for(batch.user_ids, create=True)
        n_rounds = max(map(len, batch.ops))
        # One odd window for the whole commit: a lock-free capture must
        # observe a row before the first round or after the last, never a
        # half-applied op sequence (a batch's ids are unique, so the
        # fancy-indexed bump is one increment per row).
        if n_rounds:
            with self.row_generations.write(rows):
                ops, hot_rows = batch.ops, rows.tolist()
                if batch.scalar_users:
                    ops, hot_rows = self._apply_scalar_users(batch, hot_rows, policy)
                    n_rounds = max(map(len, ops), default=0)
                if n_rounds:
                    self._apply_rounds(ops, hot_rows, n_rounds, policy)

    def _apply_scalar_users(
        self, batch: OpBatch, rows: list[int], policy: Any
    ) -> tuple[list[tuple[SumUpdateOp, ...]], list[int]]:
        """Apply the sequences of ``batch.scalar_users`` one user at a time
        — the row copied once, the ops run on a plain model through
        :func:`~repro.core.updates.apply_ops`, the row written back — and
        return the other users' ``(ops, rows)`` for the vectorized rounds.
        Runs inside the commit's odd window, under its (re-entered) lock.
        """
        scalar = batch.scalar_users
        hot_ops: list[tuple[SumUpdateOp, ...]] = []
        hot_rows: list[int] = []
        with self._lock:
            for user_id, ops, row in zip(batch.user_ids, batch.ops, rows):
                if user_id in scalar:
                    model = SmartUserModel.from_dict(self._row_payload(row, user_id))
                    apply_ops(model, ops, policy)
                    self._write_row(row, model.to_dict())
                else:
                    hot_ops.append(ops)
                    hot_rows.append(row)
        return hot_ops, hot_rows

    @requires_lock("_lock")
    def _write_row(self, row: int, payload: Mapping[str, Any]) -> None:
        """Write one :meth:`SmartUserModel.to_dict` payload into ``row``.

        Every family cell the payload lacks is written absent and 0 (the
        invariant whole-row decay relies on), and a new name interns a
        column.  The caller holds the row's odd window, or the only
        reference to the store.
        """
        for family, cells in (
            (self._emotional, payload["emotional"]),
            (self._sensibility, payload["sensibility"]),
            (self._subjective, payload["subjective"]),
            (self._evidence, payload["evidence"]),
        ):
            index = family.index
            for name in cells:
                if name not in index:
                    family.ensure_column(name)
            # one slice per array, read after interning (column growth
            # replaces the arrays); columns past the width stay 0
            order = family.order
            family.values[row, : len(order)] = [cells.get(name, 0) for name in order]
            family.mask[row, : len(order)] = [name in cells for name in order]
        self._ei[row] = [payload["ei_profile"][key] for key in _BRANCH_KEYS]
        self._objective[row] = dict(payload["objective"])
        self._asked[row] = set(payload["asked_questions"])
        self._answered[row] = set(payload["answered_questions"])

    @requires_lock("_lock")
    def _apply_rounds(
        self,
        ops_by_user: Sequence[tuple[SumUpdateOp, ...]],
        rows: list[int],
        n_rounds: int,
        policy: Any,
    ) -> None:
        rates = (policy.learning_rate, policy.punish_ratio)
        if rates != self._plan_rates:
            self._plan_rates, self._op_plans = rates, {}
        plans = self._op_plans
        for k in range(n_rounds):
            decay_rows: list[int] = []
            # Per *op*, not per attribute: an op's step and column /
            # occurrence layout are memoized by its value (streams repeat
            # the same few ops endlessly), so building a round is one
            # dict read per op and the per-attribute fan-out happens in
            # numpy (np.repeat / concatenate).  This keeps the
            # GIL-holding fraction of a commit small — which is what
            # lets sharded writers overlap their vectorized sections.
            touch_rows: list[int] = []
            touches: list[_OpPlan] = []
            for row, ops in zip(rows, ops_by_user):
                if k >= len(ops):
                    continue
                op = ops[k]
                try:
                    plan = plans[op]
                except KeyError:
                    if len(plans) >= _MAX_OP_PLANS:
                        plans.clear()
                    plan = plans[op] = self._op_plan(op, rates)
                if plan is None:
                    decay_rows.append(row)
                else:
                    touch_rows.append(row)
                    touches.append(plan)
            if decay_rows:
                self._decay_rows(np.asarray(decay_rows, dtype=np.intp), policy)
            if touch_rows:
                steps, cols, occs, widths = zip(*touches)
                self._apply_touches(
                    np.repeat(np.asarray(touch_rows, dtype=np.intp), widths),
                    np.concatenate(cols),
                    np.repeat(np.asarray(steps), widths),
                    np.concatenate(occs),
                )

    def _op_plan(
        self, op: SumUpdateOp, rates: tuple[float, float]
    ) -> _OpPlan | None:
        """What one op does under ``rates`` (learning rate, punish ratio):
        ``None`` for a decay, else ``(step, column indices, within-op
        occurrence indices, width)`` — the same ``learning_rate *
        clamp01(strength)`` product as the scalar path, and a duplicated
        attribute gets occurrence 1, 2, … so its clamps still apply
        *between* occurrences, exactly as the sequential loop does."""
        if isinstance(op, DecayOp):
            return None
        if isinstance(op, RewardOp):
            step = rates[0] * clamp01(op.strength)
        else:
            step = -(rates[0] * rates[1] * clamp01(op.strength))
        emotion_col = self._emotional.index
        seen: dict[str, int] = {}
        occs = []
        for name in op.attributes:
            occs.append(seen.get(name, 0))
            seen[name] = occs[-1] + 1
        cols = [emotion_col[name] for name in op.attributes]
        return (
            step,
            np.asarray(cols, dtype=np.intp),
            np.asarray(occs, dtype=np.intp),
            len(cols),
        )

    @requires_lock("_lock")
    def _decay_rows(self, rows: np.ndarray, policy: Any) -> None:
        """One decay tick over ``rows``: two array multiplies.

        Matches ``ReinforcementPolicy.apply_decay`` bit for bit: absent
        entries hold raw 0.0, and ``0.0 * factor == 0.0``, so decaying
        whole rows equals decaying only the present keys (masks are
        untouched — decay never creates attributes).
        """
        factor = 1.0 - policy.decay
        intensity = self._emotional.values
        intensity[rows] = np.clip(intensity[rows] * factor, 0.0, 1.0)
        weights = self._sensibility.values
        weights[rows] = np.clip(weights[rows] * factor, 0.0, 1.0)

    @requires_lock("_lock")
    def _apply_touches(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        steps: np.ndarray,
        occurrences: np.ndarray,
    ) -> None:
        """Scatter reward/punish steps through the scalar-path clamps.

        Touches are grouped by within-op occurrence so a duplicated
        attribute in one op clamps *between* its occurrences, exactly as
        the sequential loop does.  Within one occurrence group every
        (row, column) pair is unique, so plain fancy-index assignment is
        safe (no lost updates).  Duplicates are rare, so the whole-array
        fast path (everything occurrence 0) runs with zero masking.
        """
        intensity = self._emotional.values
        intensity_mask = self._emotional.mask
        weights = self._sensibility.values
        weights_mask = self._sensibility.mask
        evidence = self._evidence.values
        evidence_mask = self._evidence.mask
        max_occurrence = int(occurrences.max())
        for occurrence in range(max_occurrence + 1):
            if max_occurrence:
                group = occurrences == occurrence
                r, c, step = rows[group], cols[group], steps[group]
            else:
                r, c, step = rows, cols, steps
            intensity[r, c] = np.clip(intensity[r, c] + step, 0.0, 1.0)
            intensity_mask[r, c] = True
            evidence[r, c] += 1
            evidence_mask[r, c] = True
            # The emotion vocabulary seeds both families, so the emotion
            # column index is shared between intensity and sensibility.
            weights[r, c] = np.clip(weights[r, c] + step * 0.5, 0.0, 1.0)
            weights_mask[r, c] = True

    def decay_tick(
        self, policy: Any, user_ids: Sequence[int] | None = None
    ) -> int:
        """One population decay tick (default: every user); returns rows hit."""
        if self._readonly:
            raise TypeError(
                "store is a read-only mmap replica; updates must run "
                "against the writable primary"
            )
        with self._lock:
            rows = (
                np.arange(self._n, dtype=np.intp)
                if user_ids is None
                else self.rows_for(list(user_ids))
            )
            if len(rows):
                self._clock.bump()
                with self.row_generations.write(rows):
                    self._decay_rows(rows, policy)
            return int(len(rows))

    # -- JSON import/export (SumRepository-compatible) ----------------------

    def dumps(self) -> str:
        """Serialize to the exact :meth:`SumRepository.dumps` JSON format."""
        return json.dumps([m.to_dict() for m in self], sort_keys=True)

    @classmethod
    def loads(cls, payload: str) -> "ColumnarSumStore":
        """Inverse of :meth:`dumps`; accepts :class:`SumRepository` dumps
        (each entry validated and clamped by ``SmartUserModel.from_dict``)."""
        return cls.from_repository(map(SmartUserModel.from_dict, json.loads(payload)))

    @classmethod
    def from_repository(cls, repository: Iterable[SmartUserModel]) -> "ColumnarSumStore":
        """Convert any SUM collection (object or columnar), or any
        iterable of models, to a new store."""
        store = cls()
        store._write_models(repository)
        return store

    def _write_models(self, models: Iterable[SmartUserModel]) -> None:
        """Write each model into its user's row, created on first sight:
        an import into a store no reader sees yet."""
        with self._lock:
            for model in models:
                self._write_row(self._new_row(model.user_id), model.to_dict())

    def to_repository(self) -> SumRepository:
        """Export to an object-backed :class:`SumRepository` (deep copy)."""
        return SumRepository.loads(self.dumps())

    # -- Catalog persistence (dense .npy column pages) -----------------------

    _FAMILY_NAMES = ("emotional", "sensibility", "subjective", "evidence")

    def _named_families(self) -> tuple[tuple[str, _ColumnFamily], ...]:
        return tuple(zip(self._FAMILY_NAMES, self._families()))

    def save(
        self,
        directory: str | Path,
        *,
        generation: int | None = None,
        versions: Mapping[int, int] | None = None,
        global_version: int | None = None,
    ) -> Path:
        """Persist through the :mod:`repro.db` Catalog.

        One layout: dense ``.npy`` column pages per family
        (``<family>__values`` / ``<family>__mask``) plus ``user_ids`` and
        ``ei`` — which :meth:`load` can memory-map read-only, so every
        replica on a host shares one physical copy of the population —
        and a small ``users`` table for the cold per-row state
        (objective attributes, EIT question sets).  Columns are handed
        to the catalog as numpy slices and bulk-cast, never through
        per-element Python ``float()``/``int()`` lists.

        The refresh protocol's stamps ride in the catalog meta:
        ``generation`` (the checkpoint's monotonic counter, usually
        assigned by :meth:`ShardedSumStore.save
        <repro.core.sharded_store.ShardedSumStore.save>`), ``versions``
        (the streaming cache's per-user counters at checkpoint time) and
        ``global_version``.  A replica :meth:`load`-ed from the pages
        reports them as its version floors.
        """
        from repro.db.catalog import Catalog
        from repro.db.schema import Column, ColumnType, Schema
        from repro.db.table import Table

        live = self.population().rows
        ids = self._user_ids[live]
        catalog = Catalog()

        users_schema = Schema(
            [
                Column("user_id", ColumnType.INT64),
                Column("objective", ColumnType.STRING),
                Column("asked_questions", ColumnType.STRING),
                Column("answered_questions", ColumnType.STRING),
            ]
        )
        catalog.register(
            Table.from_columns(
                users_schema,
                {
                    "user_id": ids,
                    "objective": [
                        json.dumps(dict(self._objective[row]), sort_keys=True)
                        for row in live
                    ],
                    "asked_questions": [
                        json.dumps(sorted(self._asked[row])) for row in live
                    ],
                    "answered_questions": [
                        json.dumps(sorted(self._answered[row])) for row in live
                    ],
                },
                name="users",
            )
        )

        # -- dense pages: the mmap-able serving layout ---------------------
        catalog.put_array("user_ids", ids.astype(np.int64, copy=False))
        catalog.put_array("ei", self._ei[live])
        orders: dict[str, list[str]] = {}
        for page_name, family in self._named_families():
            width = family.width
            orders[page_name] = list(family.order)
            catalog.put_array(
                f"{page_name}__values", family.values[live][:, :width]
            )
            catalog.put_array(
                f"{page_name}__mask", family.mask[live][:, :width]
            )
        meta: dict[str, Any] = {"n_users": len(ids), "orders": orders}
        if generation is not None:
            meta["generation"] = int(generation)
        if versions is not None:
            # JSON object keys must be strings; load() restores the ints
            meta["versions"] = {
                str(int(uid)): int(v) for uid, v in versions.items()
            }
        if global_version is not None:
            meta["global_version"] = int(global_version)
        catalog.meta["sum_store"] = meta
        return catalog.save(directory)

    @classmethod
    def load(
        cls, directory: str | Path, mmap: bool = False
    ) -> "ColumnarSumStore":
        """Inverse of :meth:`save`.

        With ``mmap=True`` the dense column pages are memory-mapped
        read-only instead of copied: serving replicas on one host share a
        single page-cache copy of the population, and every write path on
        the returned store raises (``readonly`` is ``True``).  A
        directory without the dense pages is not a saved store: both
        modes raise :class:`~repro.db.storage.StorageError`.
        """
        from repro.db.catalog import Catalog
        from repro.db.storage import StorageError

        catalog = Catalog.load(directory, mmap_arrays=mmap)
        meta = catalog.meta.get("sum_store")
        if meta is None or "user_ids" not in catalog.arrays:
            raise StorageError(
                f"{directory} has no dense column pages; it was not "
                "written by ColumnarSumStore.save"
            )
        ids = catalog.array("user_ids")
        n = len(ids)
        users = catalog.get("users")
        if not np.array_equal(
            np.asarray(users.column("user_id"), dtype=np.int64),
            np.asarray(ids, dtype=np.int64),
        ):
            raise ValueError(
                "users table does not match the user_ids page; catalog "
                "directory is corrupt"
            )
        store = cls(initial_capacity=max(n, 1))
        rows = store.rows_for([int(u) for u in ids], create=True)
        for row, objective, asked, answered in zip(
            rows,
            users.column("objective"),
            users.column("asked_questions"),
            users.column("answered_questions"),
        ):
            store._objective[row] = json.loads(objective)
            store._asked[row] = set(json.loads(asked))
            store._answered[row] = set(json.loads(answered))

        # Version floors (the refresh protocol's stamps): restored for
        # copy loads too — a warm standby promoted to primary still knows
        # which checkpoint it came from.
        generation = meta.get("generation")
        store._snapshot_generation = (
            int(generation) if generation is not None else None
        )
        floors = meta.get("versions")
        store._version_floors = (
            {int(uid): int(v) for uid, v in floors.items()}
            if floors is not None else None
        )
        global_floor = meta.get("global_version")
        store._global_floor = (
            int(global_floor) if global_floor is not None else None
        )

        orders = meta["orders"]
        if mmap:
            # Adopt the mapped pages as the live arrays: zero copies, and
            # the read-only maps make every array write raise.
            for page_name, family in store._named_families():
                order = [str(name) for name in orders[page_name]]
                family.index = {name: j for j, name in enumerate(order)}
                family.order = order
                family.values = catalog.array(f"{page_name}__values")
                family.mask = catalog.array(f"{page_name}__mask")
                # a replica never interns columns, whatever the family
                family.frozen = True
            store._ei = catalog.array("ei")
            store._capacity = max(n, 1)
            store._readonly = True
            return store
        for page_name, family in store._named_families():
            order = [str(name) for name in orders[page_name]]
            cols = np.asarray(
                [family.ensure_column(name) for name in order], dtype=np.intp
            )
            if len(cols):
                family.values[np.ix_(rows, cols)] = catalog.array(
                    f"{page_name}__values"
                )
                family.mask[np.ix_(rows, cols)] = catalog.array(
                    f"{page_name}__mask"
                )
        store._ei[rows] = catalog.array("ei")
        return store

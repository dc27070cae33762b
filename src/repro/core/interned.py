"""Ids translated once: one immutable sequence, Python and numpy at once.

A request names its items as Python ids; the scorer wants an ``int64``
index vector, the Advice stage presence rows, the ranking an array to
``lexsort`` — and each used to re-walk the list to get it.
:class:`InternedIds` is the one translation, made at the boundary.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Sequence

import numpy as np


def _freeze(items: Iterable[Any]) -> tuple[list[Any], np.ndarray | None]:
    """``(ids, vector)``: Python scalars, and their ``int64`` vector if any.

    Only ids that are all exactly ``int`` get a vector: ``int64`` would
    change bools and floats, make a matrix of tuples, and cannot hold an
    id past 64 bits.  numpy scalars are unwrapped, so no id leaves as an
    ndarray scalar however the caller spelled it.
    """
    if isinstance(items, np.ndarray):
        if items.dtype == np.int64 and items.ndim == 1:
            vector = items.copy()
            vector.setflags(write=False)
            return vector.tolist(), vector
        items = items.tolist()
    ids = list(items)
    kinds = set(map(type, ids))
    if any(issubclass(kind, np.generic) for kind in kinds):
        ids = [i.item() if isinstance(i, np.generic) else i for i in ids]
        kinds = set(map(type, ids))
    if kinds != {int}:
        return ids, None
    try:
        vector = np.asarray(ids, dtype=np.int64)
    except OverflowError:
        return ids, None
    vector.setflags(write=False)
    return ids, vector


class InternedIds(Sequence[Any]):
    """An immutable id sequence that converts to ``int64`` for free.

    Iterating or indexing yields Python scalars; ``len``, truthiness and
    ``==`` against a list or tuple are the list's.  ``vector`` is the
    read-only ``int64`` array of the ids (``None`` unless every id is a
    Python ``int``) and what ``np.asarray(ids, dtype=np.int64)`` returns
    — no walk, no copy; without one numpy sees the list.  ``presence``
    is the read-only ``(len, n_attributes)`` block gathered by the
    :class:`~repro.core.advice.ItemTable` that interned the ids, ``None``
    before any has, and ``active`` the columns of it the Advice stage can
    use.  Interning an :class:`InternedIds` shares its ids.
    """

    __slots__ = ("_ids", "vector", "presence", "_active")

    def __init__(
        self, items: Iterable[Any], presence: np.ndarray | None = None
    ) -> None:
        if not isinstance(items, InternedIds):
            self._ids, self.vector = _freeze(items)
        else:
            self._ids, self.vector = items._ids, items.vector
        self.presence = presence
        self._active: np.ndarray | None = None

    @property
    def active(self) -> np.ndarray | None:
        """Sorted attribute columns holding any non-zero presence, read-only.

        An item can only be activated or inhibited through an attribute
        it carries, so these are the only columns whose boosts can move
        a multiplier off ``1.0``.  Derived on first use, once per
        universe (built, frozen, then published by one attribute store);
        ``None`` without a presence block.
        """
        active = self._active
        if active is None and self.presence is not None:
            active = np.flatnonzero(self.presence.any(axis=0))
            active.setflags(write=False)
            self._active = active
        return active

    def __len__(self) -> int:
        return len(self._ids)

    def __getitem__(self, index: Any) -> Any:
        return self._ids[index]  # a slice is a fresh list

    def __iter__(self) -> Iterator[Any]:
        return iter(self._ids)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, InternedIds):
            other = other._ids
        elif isinstance(other, tuple):
            other = list(other)
        elif not isinstance(other, list):
            return NotImplemented
        return self._ids == other

    def __array__(self, dtype: Any = None, copy: bool | None = None) -> np.ndarray:
        source = self._ids if self.vector is None else self.vector
        return np.array(source, dtype=dtype, copy=copy)

    def __repr__(self) -> str:
        return f"InternedIds({self._ids!r})"


def int_ids(items: Iterable[Any]) -> Sequence[int]:
    """``items`` as Python ints: interned ints as they are (no walk),
    anything else one ``int()`` per id."""
    if isinstance(items, InternedIds) and items.vector is not None:
        return items
    return list(map(int, items))


class Population(InternedIds):
    """A SUM store's users: sorted ids, interned once per row set.

    What every SUM resolver's ``population()`` returns.  ``key`` is the
    row-set state read *before* the listing, so the listing holds at
    least the users it counts; the store hands out the same object until
    its key moves.  ``rows`` address the ids in ``source``, whose
    ``batch`` of the population routes no id (``None`` without rows).
    Rows never move, so an older population stays a valid subset.
    """

    __slots__ = ("key", "source", "rows")

    def __init__(
        self, items: Iterable[Any], key: object, source: Any = None, rows: Any = None
    ) -> None:
        super().__init__(items)
        self.key = key
        self.source = source
        self.rows = rows

"""Array-backed rankings: select on arrays, materialise on access.

Both paper functions rank one adjusted-score row or column and return at
most ``k`` of its cells.  :func:`top_k` does the ranking as numpy steps —
a partition that keeps every cell tied with the ``k``-th score, then the
total order ``(-adjusted_score, id)`` over those survivors only — and
hands the response a :class:`Ranking`: parallel ids and base /
multiplier / adjusted ``float64`` arrays, best first.  A per-entry
object (:class:`~repro.serving.requests.ScoredItem` /
:class:`~repro.serving.requests.SelectedUser`) exists only once somebody
indexes or iterates the ranking, so a scan over 10,000 items builds at
most ``k`` of them and a select-all builds none until asked.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Sequence, TypeVar, overload

import numpy as np

E = TypeVar("E")


class Ranking(Sequence[E]):
    """A read-only ranking over parallel arrays, best first.

    ``ids`` are Python scalars; ``base``, ``multiplier`` and ``adjusted``
    are the matching read-only ``float64`` arrays — the per-entry
    breakdown, kept whole.  Indexing builds ``entry(id, base, multiplier,
    adjusted)`` from Python scalars on first access, at most once;
    a slice is a tuple of entries.  Equal to any sequence of equal
    entries, and to another ranking cell for cell without building any.
    """

    __slots__ = ("ids", "base", "multiplier", "adjusted", "_entry", "_built")

    def __init__(
        self,
        entry: Callable[[Any, float, float, float], E],
        ids: list[Any],
        base: np.ndarray,
        multiplier: np.ndarray,
        adjusted: np.ndarray,
    ) -> None:
        for array in (base, multiplier, adjusted):
            array.setflags(write=False)
        self.ids = ids
        self.base = base
        self.multiplier = multiplier
        self.adjusted = adjusted
        self._entry = entry
        self._built: dict[int, E] = {}

    def __len__(self) -> int:
        return len(self.ids)

    @overload
    def __getitem__(self, index: int) -> E: ...

    @overload
    def __getitem__(self, index: slice) -> tuple[E, ...]: ...

    def __getitem__(self, index: int | slice) -> E | tuple[E, ...]:
        if isinstance(index, slice):
            return tuple(self[i] for i in range(*index.indices(len(self))))
        position = range(len(self))[index]  # negative / out-of-range rules
        built = self._built.get(position)
        if built is None:
            built = self._built[position] = self._entry(
                self.ids[position],
                self.base.item(position),
                self.multiplier.item(position),
                self.adjusted.item(position),
            )
        return built

    def __iter__(self) -> Iterator[E]:
        return (self[i] for i in range(len(self)))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Ranking):
            return (
                self._entry is other._entry
                and self.ids == other.ids
                and np.array_equal(self.base, other.base)
                and np.array_equal(self.multiplier, other.multiplier)
                and np.array_equal(self.adjusted, other.adjusted)
            )
        if isinstance(other, (tuple, list)):
            return len(self) == len(other) and all(
                mine == theirs for mine, theirs in zip(self, other)
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"Ranking({list(self)!r})"


def top_k(
    entry: Callable[[Any, float, float, float], E],
    ids: Sequence[Any] | np.ndarray,
    base: np.ndarray,
    multiplier: np.ndarray,
    adjusted: np.ndarray,
    k: int | None,
) -> Ranking[E]:
    """The best ``k`` cells (all of them for ``None``) as a :class:`Ranking`.

    ``ids`` is an integer ndarray (user ids: ordered by ``np.lexsort``,
    or, ranking every cell, by one ``np.argsort`` of the scores when no
    two tie and none is NaN) or any Python sequence (item ids are
    arbitrary hashables: ordered by a Python sort, over the survivors
    only); the three score grids hold one cell per id — the service's
    ``1 × n`` row or ``n × 1`` column.
    The order is exactly ``sorted(cells, key=(-adjusted, id))[:k]``: the
    partition admits every cell not strictly below the ``k``-th score,
    so ties at the cut are broken by id like everywhere else.
    """
    base, multiplier, adjusted = base.ravel(), multiplier.ravel(), adjusted.ravel()
    descending = -adjusted
    if k is None or k >= len(descending):
        k = None  # the whole row
        keep = np.arange(len(descending))
    else:
        kth = np.partition(descending, k - 1)[k - 1]
        # "not after" rather than "<=": numpy orders NaN last, so a NaN
        # score survives to rank last instead of shortening the ranking
        keep = np.flatnonzero(~(descending > kth))
    if isinstance(ids, np.ndarray):
        if k is None:
            # strictly increasing sorted keys hold no tie and no NaN, so
            # the id never breaks one: the score order alone is the order
            order = np.argsort(descending)
            ranked = descending[order]
            if not (ranked[1:] > ranked[:-1]).all():
                order = np.lexsort((ids, descending))
        else:
            order = keep[np.lexsort((ids[keep], descending[keep]))[:k]]
        ranked_ids = ids[order].tolist()
    else:
        keys = descending[keep]
        scores, kept = keys.tolist(), [ids[i] for i in keep.tolist()]
        cut = sorted(range(len(kept)), key=lambda j: (scores[j], kept[j]))[:k]
        order = keep[cut]
        ranked_ids = [kept[j] for j in cut]
    return Ranking(
        entry, ranked_ids, base[order], multiplier[order], adjusted[order]
    )

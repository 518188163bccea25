"""Constant-rate transaction generation, mempools, and block packing.

A transaction is just its id, handed out in creation order at a constant
rate, so its creation time follows from the id (``tx_batch_schedule``).
Sets of ids are kept as sorted id ranges (``IdRanges``): a batch is one
range, and a block's ids are a few runs of consecutive ids, so the ledger
does work per range, not per id.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import chain
from operator import sub

from .chain import BlockHeader, id_runs


def tx_batch_schedule(rate_per_s: int, t_end_ms: int) -> list[tuple[int, range]]:
    """One batch per whole second up to ``t_end_ms``, ``rate_per_s`` tx ids each.

    Every node receives the same batch at the same instant; transaction
    gossip is abstracted away. Batch ``k`` (at ``k * 1000`` ms) holds the
    ids ``(k - 1) * rate_per_s`` up to ``k * rate_per_s``, exclusive.
    """
    if rate_per_s <= 0:
        raise ValueError("tx rate must be positive")
    return [
        (second * 1000, range((second - 1) * rate_per_s, second * rate_per_s))
        for second in range(1, t_end_ms // 1000 + 1)
    ]


class IdRanges:
    """A set of ids kept as sorted, disjoint, non-touching half-open ranges.

    The common updates are O(1): adding at or past the start of the last
    range, and removing from the front of the first range. Other updates
    binary-search the range bounds, and ``take`` walks only the ranges it
    empties. Iteration yields the ids in ascending order.
    """

    __slots__ = ("_starts", "_stops", "_len")

    def __init__(self) -> None:
        self._starts: list[int] = []
        self._stops: list[int] = []
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[int]:
        return chain.from_iterable(map(range, self._starts, self._stops))

    def add(self, start: int, stop: int) -> None:
        """Add the ids ``start`` up to ``stop``, exclusive."""
        if start >= stop:
            return
        starts, stops = self._starts, self._stops
        if not stops or start > stops[-1]:
            starts.append(start)
            stops.append(stop)
            self._len += stop - start
            return
        if start >= starts[-1]:
            if stop > stops[-1]:
                self._len += stop - stops[-1]
                stops[-1] = stop
            return
        # Ranges i..j-1 overlap or touch [start, stop); merge them into one.
        i = bisect_left(stops, start)
        j = bisect_right(starts, stop, i)
        if i < j:
            self._len -= sum(map(sub, stops[i:j], starts[i:j]))
            start = min(start, starts[i])
            stop = max(stop, stops[j - 1])
        starts[i:j] = (start,)
        stops[i:j] = (stop,)
        self._len += stop - start

    def remove(self, start: int, stop: int) -> None:
        """Remove the ids ``start`` up to ``stop``, exclusive, where present."""
        if start >= stop or not self._stops:
            return
        starts, stops = self._starts, self._stops
        if start <= starts[0] and stop < stops[0]:
            if stop > starts[0]:
                self._len -= stop - starts[0]
                starts[0] = stop
            return
        # Ranges i..j-1 overlap [start, stop); keep what sticks out on either side.
        i = bisect_right(stops, start)
        j = bisect_left(starts, stop, i)
        if i == j:
            return
        self._len -= sum(map(sub, stops[i:j], starts[i:j]))
        new_starts, new_stops = [], []
        if starts[i] < start:
            new_starts.append(starts[i])
            new_stops.append(start)
        if stops[j - 1] > stop:
            new_starts.append(stop)
            new_stops.append(stops[j - 1])
        self._len += sum(map(sub, new_stops, new_starts))
        starts[i:j] = new_starts
        stops[i:j] = new_stops

    def overlap(self, start: int, stop: int) -> list[tuple[int, int]]:
        """The parts of ``[start, stop)`` in this set, as ranges in ascending order."""
        if start >= stop:
            return []
        starts, stops = self._starts, self._stops
        i = bisect_right(stops, start)
        j = bisect_left(starts, stop, i)
        return [(max(start, starts[k]), min(stop, stops[k])) for k in range(i, j)]

    def take(self, cap: int | None = None) -> tuple[int, ...]:
        """Remove and return the ``cap`` smallest ids (all of them if ``cap`` is None)."""
        starts, stops = self._starts, self._stops
        left = self._len if cap is None else min(cap, self._len)
        self._len -= left
        taken = []
        k = 0
        while left:
            start, stop = starts[k], stops[k]
            if stop - start > left:
                taken.append(range(start, start + left))
                starts[k] = start + left
                break
            taken.append(range(start, stop))
            left -= stop - start
            k += 1
        del starts[:k], stops[:k]
        return tuple(chain.from_iterable(taken))


@dataclass
class Mempool:
    """One node's tx ledger: ids on its canonical chain, and pending ids FIFO by id.

    Id order is creation order, because ``tx_batch_schedule`` assigns ids
    in time order. Both sets are ``IdRanges`` and they are disjoint: an id
    joins ``pending`` only when it is not canonical, so a pack never has to
    skip one. Ids packed into an own block not yet admitted are in neither.
    """

    pending: IdRanges = field(default_factory=IdRanges)
    canonical: IdRanges = field(default_factory=IdRanges)

    def add(self, txs: range) -> None:
        """Add a batch of new ids, a range of step 1."""
        self.pending.add(txs.start, txs.stop)

    def pack_block(self, cap: int | None = None) -> tuple[int, ...]:
        """Pop the oldest pending txs, at most ``cap`` of them.

        The packed ids leave the pending set; the caller restores them if
        the seal never takes effect.
        """
        return self.pending.take(cap)

    def restore(self, tx_ids: tuple[int, ...]) -> None:
        """Return the ids of an own block that never took effect, except those canonical by now."""
        for start, stop in id_runs(tx_ids):
            for canonical_start, canonical_stop in self.canonical.overlap(start, stop):
                self.pending.add(start, canonical_start)
                start = canonical_stop
            self.pending.add(start, stop)

    def on_canonical_update(self, abandoned: list[BlockHeader], adopted: list[BlockHeader]) -> None:
        """Move txs of abandoned blocks back to pending and txs of adopted blocks to canonical.

        ``abandoned`` and ``adopted`` are the two branches a head move
        leaves and joins, past their common ancestor (``ChainStore.reorg``).
        A tx in both branches ends canonical.
        """
        for header in abandoned:
            for start, stop in header.tx_runs:
                self.canonical.remove(start, stop)
                self.pending.add(start, stop)
        for header in adopted:
            for start, stop in header.tx_runs:
                self.canonical.add(start, stop)
                self.pending.remove(start, stop)

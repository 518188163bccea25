"""Constant-rate transaction generation, mempools, and block packing.

A transaction is just its id, handed out in creation order at a constant
rate, so its creation time follows from the id (``tx_batch_schedule``).
Sets of ids are kept as sorted id ranges (``IdRanges``): a batch is one
range, and a block carries its ids as a few runs of consecutive ids
(``BlockHeader.tx_runs``), so the ledger does work per range, not per id.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from itertools import chain
from math import inf
from operator import attrgetter, sub

from .chain import BlockHeader


def tx_batch_schedule(rate_per_s: int, t_end_ms: int) -> Iterator[tuple[int, range]]:
    """One batch per whole second up to ``t_end_ms``, ``rate_per_s`` tx ids each.

    Every node receives the same batch at the same instant; transaction
    gossip is abstracted away. Batch ``k`` (at ``k * 1000`` ms) holds the
    ids ``(k - 1) * rate_per_s`` up to ``k * rate_per_s``, exclusive. The
    batches are made lazily, one per ``next``, in ascending time; a rate
    that is not positive raises at the call, not at the first batch.
    """
    if rate_per_s <= 0:
        raise ValueError("tx rate must be positive")
    return (
        (second * 1000, range((second - 1) * rate_per_s, second * rate_per_s))
        for second in range(1, t_end_ms // 1000 + 1)
    )


class IdRanges:
    """A set of ids kept as sorted, disjoint, non-touching half-open ranges.

    The common updates are O(1): adding at or past the start of the last
    range, and removing from the front of the first range. Other updates
    binary-search the range bounds, and ``take`` walks only the ranges it
    empties. Iteration yields the ids in ascending order, and ``len``
    sums the range lengths.
    """

    __slots__ = ("_starts", "_stops")

    def __init__(self) -> None:
        self._starts: list[int] = []
        self._stops: list[int] = []

    def __len__(self) -> int:
        return sum(map(sub, self._stops, self._starts))

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
            return
        if start >= starts[-1]:
            stops[-1] = max(stop, stops[-1])
            return
        # Ranges i..j-1 overlap or touch [start, stop); merge them into one.
        i = bisect_left(stops, start)
        j = bisect_right(starts, stop, i)
        if i < j:
            start = min(start, starts[i])
            stop = max(stop, stops[j - 1])
        starts[i:j] = (start,)
        stops[i:j] = (stop,)

    def remove(self, start: int, stop: int) -> None:
        """Remove the ids ``start`` up to ``stop``, exclusive, where present."""
        if start >= stop or not self._stops:
            return
        starts, stops = self._starts, self._stops
        if start <= starts[0] and stop < stops[0]:
            starts[0] = max(stop, starts[0])
            return
        # Ranges i..j-1 overlap [start, stop); keep what sticks out on either side.
        i = bisect_right(stops, start)
        j = bisect_left(starts, stop, i)
        if i == j:
            return
        new_starts, new_stops = [], []
        if starts[i] < start:
            new_starts.append(starts[i])
            new_stops.append(start)
        if stops[j - 1] > stop:
            new_starts.append(stop)
            new_stops.append(stops[j - 1])
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

    def take(self, cap: int | None = None) -> tuple[tuple[int, int], ...]:
        """Remove the ``cap`` smallest ids (all of them if ``cap`` is None) and return them as ranges."""
        starts, stops = self._starts, self._stops
        left = inf if cap is None else cap
        k = 0
        while k < len(starts) and stops[k] - starts[k] <= left:
            left -= stops[k] - starts[k]
            k += 1
        taken = list(zip(starts[:k], stops[:k]))
        del starts[:k], stops[:k]
        if left and starts:
            taken.append((starts[0], starts[0] + left))
            starts[0] += left
        return tuple(taken)


@dataclass
class Mempool:
    """One node's tx ledger: ids on its canonical chain, and pending ids FIFO by id.

    Id order is creation order, because ``tx_batch_schedule`` assigns ids
    in time order. Both sets are ``IdRanges`` and they are disjoint: an id
    joins ``pending`` only when it is not canonical, so a pack never has to
    skip one. Ids packed into an own block not yet admitted are in neither.

    New ids arrive lazily: ids below ``frontier`` have been added, and
    ``catch_up`` adds the rest of those created so far in one range. The
    owner catches up just before every pack and canonical update, so each
    of them sees the same sets as if every batch had been added when it
    was created. A restore needs no catch-up: it hands back ids of an own
    pack, all below the frontier, so it and a later catch-up touch
    disjoint ids. Nor does it need the owner's canonical set to be up to
    date, because it commutes with a later adoption (``restore``).
    """

    pending: IdRanges = field(default_factory=IdRanges)
    canonical: IdRanges = field(default_factory=IdRanges)
    frontier: int = 0

    def add(self, txs: range) -> None:
        """Add a batch of new ids, a range of step 1."""
        self.pending.add(txs.start, txs.stop)
        self.frontier = max(self.frontier, txs.stop)

    def catch_up(self, generated: int) -> None:
        """Add the ids from ``frontier`` up to ``generated``, exclusive, if there are any."""
        if generated > self.frontier:
            self.add(range(self.frontier, generated))

    def pack_block(self, cap: int | None = None) -> tuple[tuple[int, int], ...]:
        """Pop the oldest pending txs, at most ``cap`` of them, as a block's ``tx_runs``.

        The packed ids leave the pending set; the caller restores them if
        the seal never takes effect.
        """
        return self.pending.take(cap)

    def restore(self, tx_runs: tuple[tuple[int, int], ...]) -> None:
        """Return the id runs of an own block that never took effect, except ids canonical by now.

        A restore and a later ``on_canonical_update`` that adopts blocks
        commute: an id the update adopts ends canonical and not pending
        either way. So an owner whose canonical set lags its head may
        restore before it adopts the lag.
        """
        for start, stop in tx_runs:
            for canonical_start, canonical_stop in self.canonical.overlap(start, stop):
                self.pending.add(start, canonical_start)
                start = canonical_stop
            self.pending.add(start, stop)

    def on_canonical_update(
        self, abandoned: Sequence[BlockHeader], adopted: Sequence[BlockHeader]
    ) -> None:
        """Move txs of abandoned blocks back to pending and txs of adopted blocks to canonical.

        ``abandoned`` and ``adopted`` are the two branches a head move
        leaves and joins, past their common ancestor (``ChainStore.reorg``).
        A tx in both branches ends canonical. A branch only removes ids
        from one set and adds them to the other, so its blocks may be
        applied in any order, and as the union of their runs: a run of
        blocks that pack consecutive ids costs one update, not one per block.
        """
        for start, stop in _union(abandoned):
            self.canonical.remove(start, stop)
            self.pending.add(start, stop)
        for start, stop in _union(adopted):
            self.canonical.add(start, stop)
            self.pending.remove(start, stop)


def _union(headers: Sequence[BlockHeader]) -> Sequence[tuple[int, int]]:
    """The ids of all ``headers``' runs as ascending, disjoint, non-touching runs."""
    if len(headers) < 2:
        return headers[0].tx_runs if headers else ()
    runs = sorted(chain.from_iterable(map(attrgetter("tx_runs"), headers)))
    if not runs:  # every block is empty, as under ``tx_cap = 0``
        return runs
    merged = []
    start, stop = runs[0]
    for run_start, run_stop in runs:
        if run_start > stop:
            merged.append((start, stop))
            start = run_start
        if run_stop > stop:
            stop = run_stop
    merged.append((start, stop))
    return merged

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
from operator import attrgetter

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

    The ranges live in one flat sorted list of their bounds, ``[start0,
    stop0, start1, stop1, ...]``, so an id is in the set exactly when an
    odd number of bounds are at or below it. Each ``add`` or ``remove`` is
    two binary searches and one slice assignment: the parity of the two
    search positions says whether each end of the range falls inside a
    held range, and so whether it becomes a bound. ``take`` walks only
    the ranges it empties. Iteration yields the ids in ascending order,
    and ``len`` sums the range lengths.
    """

    __slots__ = ("_bounds",)

    def __init__(self) -> None:
        self._bounds: list[int] = []

    def __len__(self) -> int:
        bounds = self._bounds
        return sum(bounds[1::2]) - sum(bounds[::2])

    def __iter__(self) -> Iterator[int]:
        bounds = self._bounds
        return chain.from_iterable(map(range, bounds[::2], bounds[1::2]))

    def runs(self) -> list[tuple[int, int]]:
        """The ranges, as ``(start, stop)`` pairs in ascending order."""
        bounds = self._bounds
        return list(zip(bounds[::2], bounds[1::2]))

    def add(self, start: int, stop: int) -> None:
        """Add the ids ``start`` up to ``stop``, exclusive."""
        if start >= stop:
            return
        # Bounds i..j-1 lie in [start, stop], so the ranges they close or open
        # merge into one; an end inside a held range (odd position) is no bound.
        bounds = self._bounds
        i = bisect_left(bounds, start)
        j = bisect_right(bounds, stop, i)
        bounds[i:j] = (start, stop)[i & 1 : 2 - (j & 1)]

    def remove(self, start: int, stop: int) -> None:
        """Remove the ids ``start`` up to ``stop``, exclusive, where present."""
        if start >= stop:
            return
        # Bounds i..j-1 lie in [start, stop] and go; an end inside a held range
        # (odd position) becomes the bound of the part that sticks out.
        bounds = self._bounds
        i = bisect_left(bounds, start)
        j = bisect_right(bounds, stop, i)
        bounds[i:j] = (start, stop)[1 - (i & 1) : 1 + (j & 1)]

    def overlap(self, start: int, stop: int) -> list[tuple[int, int]]:
        """The parts of ``[start, stop)`` in this set, as ranges in ascending order."""
        if start >= stop:
            return []
        bounds = self._bounds
        i = bisect_right(bounds, start)
        j = bisect_left(bounds, stop, i)
        cut = [start][: i & 1] + bounds[i:j] + [stop][: j & 1]
        return list(zip(cut[::2], cut[1::2]))

    def take(self, cap: int | None = None) -> tuple[tuple[int, int], ...]:
        """Remove the ``cap`` smallest ids (all of them if ``cap`` is None) and return them as ranges."""
        if cap is not None and cap < 0:
            raise ValueError(f"cap must be >= 0, got {cap}")
        bounds = self._bounds
        left = inf if cap is None else cap
        k = 0
        while k < len(bounds) and bounds[k + 1] - bounds[k] <= left:
            left -= bounds[k + 1] - bounds[k]
            k += 2
        taken = bounds[:k]
        del bounds[:k]
        if left and bounds:
            taken += (bounds[0], bounds[0] + left)
            bounds[0] += left
        return tuple(zip(taken[::2], taken[1::2]))


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

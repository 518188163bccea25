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

from .chain import BlockHeader


def tx_batch_schedule(rate_per_s: int, t_end_ms: int) -> Iterator[tuple[int, range]]:
    """One batch per whole second up to ``t_end_ms``, ``rate_per_s`` tx ids each.

    Every node receives the same batch at the same instant; transaction
    gossip is abstracted away. Batch ``k`` (at ``k * 1000`` ms) holds the
    ids ``(k - 1) * rate_per_s`` up to ``k * rate_per_s``, exclusive. The
    batches are made lazily, one per ``next``, in ascending time; a rate
    that is not positive raises at the call, not at the first batch. The
    stream is a ``zip`` of C-level ranges, so drawing a batch runs no
    Python frame: batch ``k``'s ids run between bounds ``k - 1`` and ``k``.
    """
    if rate_per_s <= 0:
        raise ValueError("tx rate must be positive")
    seconds = t_end_ms // 1000
    bounds = range(0, (seconds + 1) * rate_per_s, rate_per_s)
    return zip(range(1000, (seconds + 1) * 1000, 1000), map(range, bounds, bounds[1:]))


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
        pairs = iter(self._bounds)
        return list(zip(pairs, pairs))

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
        pairs = iter(taken)
        return tuple(zip(pairs, pairs))


@dataclass
class Mempool:
    """One node's pending tx ids, FIFO by id, and the frontier of ids it has added.

    Id order is creation order, because ``tx_batch_schedule`` assigns ids
    in time order. ``pending`` holds no id on the chain the mempool
    follows, so a pack never has to skip one; the chain itself is the
    only record of which ids are canonical, and every move of it comes
    in as the branches it abandons and adopts. Ids packed into an own
    block not yet admitted are not pending either.

    New ids arrive lazily: ids below ``frontier`` have been added, and
    ``catch_up`` adds the rest of those created so far in one range. The
    owner catches up just before every pack and canonical update, so each
    of them sees the same set as if every batch had been added when it
    was created. A restore needs no catch-up: it hands back ids of an own
    pack, all below the frontier, so it and a later catch-up touch
    disjoint ids.
    """

    pending: IdRanges = field(default_factory=IdRanges)
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

    def restore(self, tx_runs: tuple[tuple[int, int], ...], adopted: Sequence[BlockHeader]) -> None:
        """Return the id runs of an own block that never took effect, except ids of ``adopted``.

        ``adopted`` is the branch the chain gained since the block's parent
        (``ChainStore.reorg`` from that parent to the head). The owner packs
        only once its mempool follows the plan's parent, so none of the
        block's ids was on the chain there, and those on it now are exactly
        the ones ``adopted`` holds. ``adopted`` may end in blocks of the
        owner's ``lag``, which the mempool has not followed yet, and only
        those can hold ids at or past ``frontier``. Dropping their ids early
        is harmless: the owner's next catch-up and lag adoption drop them again.
        """
        pending = self.pending
        for start, stop in tx_runs:
            pending.add(start, stop)
        for start, stop in _union(adopted):
            pending.remove(start, stop)

    def on_canonical_update(
        self, abandoned: Sequence[BlockHeader], adopted: Sequence[BlockHeader]
    ) -> None:
        """Move txs of abandoned blocks back to pending and drop txs of adopted blocks from it.

        ``abandoned`` and ``adopted`` are the two branches a head move
        leaves and joins, past their common ancestor (``ChainStore.reorg``).
        A tx in both branches ends up not pending. A branch only adds ids to
        or removes them from one bound list, so its blocks' runs may come
        in any order and overlap: a run of blocks that pack consecutive ids
        costs one op, not one per block. An empty abandoned branch, as in
        every catch-up to the head, costs nothing.
        """
        pending = self.pending
        for start, stop in _union(abandoned):
            pending.add(start, stop)
        for start, stop in _union(adopted):
            pending.remove(start, stop)


def _union(headers: Sequence[BlockHeader]) -> Sequence[tuple[int, int]]:
    """The ids of all ``headers``' runs, in chain order, unsorted (they feed set operations).

    A run that starts where the one before it stopped is joined to it; one
    header's runs are returned as they are.
    """
    if len(headers) < 2:
        return headers[0].tx_runs if headers else ()
    runs: list[tuple[int, int]] = []
    for header in headers:
        for start, stop in header.tx_runs:
            if runs and runs[-1][1] == start:
                runs[-1] = (runs[-1][0], stop)
            else:
                runs.append((start, stop))
    return runs

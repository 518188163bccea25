"""Constant-rate transaction generation, mempools, and block packing.

A transaction is just its id; the creation time of each id is kept once
per run, in ``Simulation.tx_created``.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from .chain import BlockHeader


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


@dataclass
class Mempool:
    """Per-node set of pending tx ids, FIFO by id.

    Id order is creation order, because ``tx_batch_schedule`` assigns ids
    in time order.
    """

    pending: set[int] = field(default_factory=set)

    def add(self, txs: Iterable[int]) -> None:
        self.pending.update(txs)

    def pack_block(self, canonical_ids: set[int], cap: int | None = None) -> tuple[int, ...]:
        """Pop pending txs not already canonical, oldest first.

        The packed ids leave the pending set; the caller restores them if
        the seal never takes effect.
        """
        order = sorted(self.pending - canonical_ids)
        if cap is not None:
            order = order[:cap]
        self.pending.difference_update(order)
        return tuple(order)

    def restore(self, tx_ids: tuple[int, ...]) -> None:
        self.pending.update(tx_ids)

    def on_canonical_update(self, abandoned: list[BlockHeader], adopted: list[BlockHeader]) -> None:
        """Re-pend txs only in abandoned blocks; drop txs the new chain holds.

        ``abandoned`` and ``adopted`` are the two branches a head move
        leaves and joins, past their common ancestor (``ChainStore.reorg``).
        """
        for header in abandoned:
            self.pending.update(header.tx_ids)
        for header in adopted:
            self.pending.difference_update(header.tx_ids)

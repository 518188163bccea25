"""Constant-rate transaction generation, mempools, and block packing.

A transaction is just its id, handed out in creation order at a constant
rate, so its creation time follows from the id (``tx_batch_schedule``).
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
    """One node's tx ledger: ids on its canonical chain, and pending ids FIFO by id.

    Id order is creation order, because ``tx_batch_schedule`` assigns ids
    in time order. Ids packed into an own block not yet admitted are in neither set.
    """

    pending: set[int] = field(default_factory=set)
    canonical: set[int] = field(default_factory=set)

    def add(self, txs: Iterable[int]) -> None:
        self.pending.update(txs)

    def pack_block(self, cap: int | None = None) -> tuple[int, ...]:
        """Pop pending txs not already canonical, oldest first.

        The packed ids leave the pending set; the caller restores them if
        the seal never takes effect.
        """
        order = sorted(self.pending - self.canonical)
        if cap is not None:
            order = order[:cap]
        self.pending.difference_update(order)
        return tuple(order)

    def restore(self, tx_ids: tuple[int, ...]) -> None:
        self.pending.update(tx_ids)

    def on_canonical_update(self, abandoned: list[BlockHeader], adopted: list[BlockHeader]) -> None:
        """Move txs of abandoned blocks back to pending and txs of adopted blocks to canonical.

        ``abandoned`` and ``adopted`` are the two branches a head move
        leaves and joins, past their common ancestor (``ChainStore.reorg``).
        A tx in both branches ends canonical.
        """
        for header in abandoned:
            self.canonical.difference_update(header.tx_ids)
            self.pending.update(header.tx_ids)
        for header in adopted:
            self.canonical.update(header.tx_ids)
            self.pending.difference_update(header.tx_ids)

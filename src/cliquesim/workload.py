"""Constant-rate transaction generation, mempools, and block packing."""

from __future__ import annotations

from dataclasses import dataclass, field

from .chain import BlockHeader


@dataclass(frozen=True)
class Tx:
    id: int
    created_ms: int


def tx_batch_schedule(rate_per_s: int, t_end_ms: int) -> list[tuple[int, list[Tx]]]:
    """One batch per whole second up to ``t_end_ms``, ``rate_per_s`` txs each.

    Every node receives the same batch at the same instant; transaction
    gossip is abstracted away.
    """
    if rate_per_s <= 0:
        raise ValueError("tx rate must be positive")
    batches = []
    next_id = 0
    for second in range(1, t_end_ms // 1000 + 1):
        at_ms = second * 1000
        txs = [Tx(next_id + i, at_ms) for i in range(rate_per_s)]
        next_id += rate_per_s
        batches.append((at_ms, txs))
    return batches


@dataclass
class Mempool:
    """Per-node pending set, FIFO by (created_ms, id)."""

    pending: dict[int, int] = field(default_factory=dict)  # tx id -> created_ms

    def add(self, txs: list[Tx]) -> None:
        for tx in txs:
            self.pending.setdefault(tx.id, tx.created_ms)

    def pack_block(self, canonical_ids: set[int], cap: int | None = None) -> tuple[int, ...]:
        """Pop pending txs not already canonical, oldest first.

        The packed ids leave the pending set; the caller restores them if
        the seal never takes effect.
        """
        order = sorted(
            (tx_id for tx_id in self.pending if tx_id not in canonical_ids),
            key=lambda tx_id: (self.pending[tx_id], tx_id),
        )
        if cap is not None:
            order = order[:cap]
        for tx_id in order:
            del self.pending[tx_id]
        return tuple(order)

    def restore(self, tx_ids: tuple[int, ...], created: dict[int, int]) -> None:
        for tx_id in tx_ids:
            self.pending.setdefault(tx_id, created[tx_id])

    def on_canonical_update(
        self,
        abandoned: list[BlockHeader],
        adopted: list[BlockHeader],
        created: dict[int, int],
    ) -> None:
        """Re-pend txs only in abandoned blocks; drop txs the new chain holds.

        ``abandoned`` and ``adopted`` are the two branches a head move
        leaves and joins, past their common ancestor (``ChainStore.reorg``).
        """
        abandoned_ids: set[int] = set()
        for header in abandoned:
            abandoned_ids.update(header.tx_ids)
        adopted_ids: set[int] = set()
        for header in adopted:
            adopted_ids.update(header.tx_ids)
        for tx_id in abandoned_ids - adopted_ids:
            self.pending.setdefault(tx_id, created[tx_id])
        for tx_id in adopted_ids:
            self.pending.pop(tx_id, None)

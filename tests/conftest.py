import dataclasses
import os

import pytest
from hypothesis import settings

from cliquesim import (
    BlockHeader,
    ChainStore,
    preset_config,
)


# Property tests are derandomised, so every run checks the same examples.
# ``HYPOTHESIS_PROFILE=ci`` draws ten times as many.
settings.register_profile("default", max_examples=100, deadline=None, derandomize=True)
settings.register_profile("ci", max_examples=1000, deadline=None, derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def store():
    return ChainStore()


def child_header(
    store: ChainStore,
    parent: bytes,
    sealer_index: int = 0,
    difficulty: int = 1,
    time_ms: int | None = None,
    tx_runs: tuple[tuple[int, int], ...] = (),
    addr: str | None = None,
) -> BlockHeader:
    """Header extending ``parent`` with plausible defaults filled in."""
    parent_header = store.header(parent)
    return BlockHeader(
        number=parent_header.number + 1,
        parent=parent,
        sealer_index=sealer_index,
        sealer_addr=addr if addr is not None else f"0x{sealer_index:040x}",
        difficulty=difficulty,
        sim_time_ms=time_ms if time_ms is not None else parent_header.sim_time_ms + 5000,
        tx_runs=tx_runs,
    )


def grow(store: ChainStore, parent: bytes, **kwargs) -> bytes:
    """Extend the store under ``parent`` and return the new hash."""
    return store.extend(child_header(store, parent, **kwargs))


def runs_of(sorted_ids):
    """Independent oracle: group ascending ids into maximal ``(start, stop)`` runs."""
    runs = []
    for i in sorted_ids:
        if runs and runs[-1][1] == i:
            runs[-1][1] = i + 1
        else:
            runs.append([i, i + 1])
    return [tuple(run) for run in runs]


def short_preset(name: str, duration_ms: int, seed: int | None = None):
    config = preset_config(name)
    replacements = {"duration_ms": duration_ms}
    if seed is not None:
        replacements["seed"] = seed
    return dataclasses.replace(config, **replacements)


def path_difficulty(store: ChainStore, tip: bytes) -> int:
    """Independent oracle: walk parent pointers and sum difficulties."""
    total = 0
    header = store.header(tip)
    while not header.is_genesis():
        total += header.difficulty
        header = store.header(header.parent)
    return total


def brute_force_head(store: ChainStore) -> bytes:
    """Independent oracle: enumerate every root-to-leaf path, pick the
    heaviest, break ties by earliest arrival."""
    arrival = {h: seq for seq, h in enumerate(iter_hashes(store))}
    parents = {store.header(h).parent for h in arrival}
    leaves = [h for h in arrival if h not in parents]
    return max(leaves, key=lambda h: (path_difficulty(store, h), -arrival[h]))


def iter_hashes(store: ChainStore):
    """Every block hash in the store, in arrival order.

    The store has no public enumeration, so this reads its header map.
    """
    return iter(store._headers)


def children(store: ChainStore, block_hash: bytes) -> list[bytes]:
    """Independent oracle: the blocks whose parent is ``block_hash``, in arrival order."""
    return [h for h in iter_hashes(store) if store.header(h).parent == block_hash]


def canonical_diff(store: ChainStore, old: bytes, new: bytes):
    """Independent oracle: strip the common prefix of two full chains."""
    old_chain, new_chain = store.canonical_chain(old), store.canonical_chain(new)
    fork = 0
    while fork < min(len(old_chain), len(new_chain)) and old_chain[fork] == new_chain[fork]:
        fork += 1
    return old_chain[fork:], new_chain[fork:]


def tx_ids_of(headers) -> set[int]:
    return {tx for header in headers for tx in header.tx_ids}


def ledger_at_head(sim, node) -> tuple[set[int], set[int]]:
    """``node``'s pending and canonical tx ids as of its head and now, read-only.

    The canonical ids are those of the blocks on the chain to ``node.head``,
    read off the store: the mempool keeps no record of them. A node's
    mempool follows it lazily in two ways. New ids from the mempool's
    ``frontier`` up to ``sim.txs_generated`` are created but not yet
    added, and count as pending. And the mempool follows the chain to its
    pool head, the parent of the first header in ``node.lag``, or
    ``node.head`` when the lag is empty: the headers in ``node.lag`` are
    adopted but not yet applied, so their ids do not count as pending.
    Catching the mempool up here would hide a catch-up the simulator
    missed, so this calls no method of the node or its mempool that
    writes; it derives both sets from copies. It checks the raw state on
    the way: the added ids all lie below the frontier, the pending set
    holds no id on the chain to the pool head, and ``node.lag`` is the
    chain from the pool head to ``head``, read through ``canonical_diff``,
    which abandons nothing.
    """
    pool, where = node.mempool, f"node {node.index} at {sim.now} ms"
    pending = set(pool.pending)
    assert pool.frontier <= sim.txs_generated, where
    assert max(pending, default=-1) < pool.frontier, where
    pool_head = node.lag[0].parent if node.lag else node.head
    assert pending.isdisjoint(tx_ids_of(node.store.canonical_chain(pool_head))), where
    abandoned, lag = canonical_diff(node.store, pool_head, node.head)
    assert not abandoned, f"{where}: the pool head is not an ancestor of head"
    assert node.lag == lag, f"{where}: the lag list is not the chain from the pool head to head"
    canonical = tx_ids_of(node.store.canonical_chain(node.head))
    return (pending | set(range(pool.frontier, sim.txs_generated))) - tx_ids_of(lag), canonical


def in_flight(sim, node) -> set[int]:
    """Tx ids of ``node``'s own blocks still queued for admission at ``node``.

    A zero-delay sealer's block is buffered at its own node until its claim
    time; until then its tx ids are neither pending nor canonical there.
    """
    return {
        tx
        for _, _, _, action, header in sim._queue
        if action == node._admit and header.sealer_index == node.index
        for tx in header.tx_ids
    }

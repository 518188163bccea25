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


def pending_ids(sim, node) -> set[int]:
    """``node``'s pending tx ids as of now, read without catching its mempool up.

    A node adds new ids lazily: those from its mempool's ``frontier`` up
    to ``sim.txs_generated`` are created but not yet added, and count as
    pending. Calling ``Mempool.catch_up`` here would hide a catch-up the
    simulator missed, so this only reads, and checks that the added ids
    all lie below the frontier.
    """
    pool = node.mempool
    pending = set(pool.pending)
    assert pool.frontier <= sim.txs_generated, f"node {node.index} at {sim.now} ms"
    assert max(pending, default=-1) < pool.frontier, f"node {node.index} at {sim.now} ms"
    return pending | set(range(pool.frontier, sim.txs_generated))


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

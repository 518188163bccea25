"""Whole-run properties: node state at the end of a run, and work per event.

The node keeps its tx ledger, its head and the sealer snapshot at that head
up to date incrementally as blocks arrive. The invariant test rebuilds each
of them from the node's chain store after the run and compares, and checks
every entry of the run's snapshot memo that node could read against a
rebuild from the node's own store; it also checks that every stored
header's tx ids are strictly ascending, which the mempool's run splitting
relies on. The work tests count the headers the chain store's walks hand
back, which must grow with the number of dispatched events, not with the
length of the chain; the snapshots built, which must be at most one per
block whatever the committee size; and the bytes a pack allocates when
``tx_cap`` binds, which must not grow with the pending pool.
"""

import dataclasses
import tracemalloc

import pytest

import cliquesim.simnet
from cliquesim import (
    ChainStore,
    Mempool,
    build_simulation,
    parse_scenario,
    preset_config,
    snapshot_for_chain,
)

from conftest import brute_force_head, iter_hashes, short_preset

# Every ChainStore method that walks parent pointers and returns headers.
WALKS = ("canonical_chain", "reorg", "chain_tail")

ZERO_DIFFICULTY_SCENARIO = """\
n_sealers = 5
duration_ms = 600000
seed = 3
delay_min_ms = 0
delay_max_ms = 50
verify = custom
check_recently_signed = false
check_difficulty_domain = false
check_inturn_identity = false

[sealer 2]
policy = malicious
forced_difficulty = 0
"""


FIXED_N21 = dataclasses.replace(preset_config("fixed"), n_sealers=21, duration_ms=600_000)


def _configs():
    for name in ("honest", "attack", "fixed"):
        for seed in range(3):
            config = dataclasses.replace(preset_config(name), seed=seed)
            yield pytest.param(config, id=f"{name}-seed{seed}")
    yield pytest.param(parse_scenario(ZERO_DIFFICULTY_SCENARIO), id="custom-difficulty-0")
    yield pytest.param(FIXED_N21, id="fixed-n21")


@pytest.mark.parametrize("config", list(_configs()))
def test_end_of_run_node_invariants(config):
    sim = build_simulation(config)
    sim.run_until(config.duration_ms)
    for node in sim.nodes:
        chain = node.store.canonical_chain(node.head)
        assert node.head == brute_force_head(node.store)
        for h in iter_hashes(node.store):
            tx_ids = node.store.header(h).tx_ids
            assert all(a < b for a, b in zip(tx_ids, tx_ids[1:])), "tx ids must be strictly ascending"
        assert set(node.mempool.canonical) == {tx for header in chain for tx in header.tx_ids}
        assert set(node.mempool.canonical).isdisjoint(node.mempool.pending)
        assert sim.snapshots[node.head].recents == snapshot_for_chain(sim.sealers, chain).recents
        for h in iter_hashes(node.store):
            if h in sim.snapshots:
                rebuilt = snapshot_for_chain(sim.sealers, node.store.canonical_chain(h))
                assert sim.snapshots[h].recents == rebuilt.recents


def _walked_per_event(monkeypatch, minutes):
    walked = 0

    def counting(method):
        def wrapper(*args, **kwargs):
            nonlocal walked
            result = method(*args, **kwargs)
            parts = result if isinstance(result, tuple) else (result,)
            walked += sum(len(part) for part in parts)
            return result

        return wrapper

    with monkeypatch.context() as patch:
        for name in WALKS:
            patch.setattr(ChainStore, name, counting(getattr(ChainStore, name)))
        config = short_preset("honest", minutes * 60_000)
        sim = build_simulation(config)
        sim.run_until(config.duration_ms)
    events = sim._next_seq - len(sim._queue)
    return walked / events


def test_chain_walks_per_event_do_not_grow_with_run_length(monkeypatch):
    short = _walked_per_event(monkeypatch, 10)
    long = _walked_per_event(monkeypatch, 40)
    assert long <= 1.25 * short, f"headers walked per event: {short:.2f} at 10 min, {long:.2f} at 40 min"


@pytest.mark.parametrize(
    "config",
    [
        pytest.param(FIXED_N21, id="fixed-n21"),
        pytest.param(preset_config("honest"), id="honest"),
    ],
)
def test_snapshot_built_once_per_block(monkeypatch, config):
    calls = 0
    build = cliquesim.simnet.snapshot_for_chain

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return build(*args, **kwargs)

    monkeypatch.setattr(cliquesim.simnet, "snapshot_for_chain", counting)
    sim = build_simulation(config)
    sim.run_until(config.duration_ms)
    blocks = {h for node in sim.nodes for h in iter_hashes(node.store)}
    assert calls <= len(blocks), f"{calls} snapshots built for {len(blocks)} distinct blocks"


def _pack_bytes_per_block(monkeypatch, minutes):
    """Mean peak bytes allocated inside node 0's ``Mempool.pack_block`` per packed block.

    The run is ``fixed`` at 500 tx/s with ``tx_cap = 700``, so the cap
    binds and every node's pending pool grows by about 1,800 ids per block.
    Any id a pack copies into a new container costs at least a pointer, so
    this deterministic byte count bounds the ids a pack touches. Only node
    0 is traced, to keep the test fast.
    """
    config = dataclasses.replace(
        preset_config("fixed"), seed=2, duration_ms=minutes * 60_000, tx_rate_per_s=500, tx_cap=700
    )
    sim = build_simulation(config)
    traced = sim.nodes[0].mempool
    peaks = []
    pack = Mempool.pack_block

    def measured(self, cap=None):
        if self is not traced:
            return pack(self, cap)
        tracemalloc.start()
        try:
            return pack(self, cap)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    with monkeypatch.context() as patch:
        patch.setattr(Mempool, "pack_block", measured)
        sim.run_until(config.duration_ms)
    return sum(peaks) / len(peaks)


def test_pack_work_per_block_does_not_grow_with_run_length(monkeypatch):
    short = _pack_bytes_per_block(monkeypatch, 5)
    for minutes in (10, 20):
        long = _pack_bytes_per_block(monkeypatch, minutes)
        assert long <= 1.25 * short, f"bytes per pack: {short:.0f} at 5 min, {long:.0f} at {minutes} min"

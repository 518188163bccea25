"""Whole-run properties: node state at the end of a run, and work per event.

The node keeps its tx ledger, its head and the sealer snapshot at that head
up to date incrementally as blocks arrive (the ledger lazily, short of the
one-block extensions in its ``lag``). The invariant test rebuilds each of
them from the node's chain store after the run and compares, and checks
the run's snapshot memo against a rebuild from the node's own store, at
every block of the store: the memo builds each entry from the parent's,
headers read included, so one wrong entry would spoil all below it. The
memo holds an entry for exactly the blocks some node stored. The work
tests count
the headers the chain store's walks hand back, which must grow with the
number of dispatched events, not with the length of the chain; the
header hashes, at most one per stored block; the snapshots built,
which must be at most one per block whatever the committee size; the
verdicts reached, at most one per block and flag set; the mempool
updates, which a one-block extension of the head must not make; the
bytes a pack allocates when ``tx_cap`` binds, which must not grow with
the pending pool; the bytes a pack or a header digest allocates,
which must not grow with the ids per block; and the mempool calls of a
tx batch, which must be none. The report's per-sealer rejections must
add up to the nodes' ``rejected`` counts and name only the frontrunner.
"""

import dataclasses
import json
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

import cliquesim.simnet
from cliquesim import (
    BlockHeader,
    ChainStore,
    Mempool,
    SealerSnapshot,
    Simulation,
    VerifyFlags,
    build_simulation,
    hash_header,
    make_genesis,
    parse_scenario,
    preset_config,
    preset_text,
    run_scenario,
    snapshot_for_chain,
)
from cliquesim.simnet import Node

from conftest import brute_force_head, in_flight, iter_hashes, ledger_at_head, short_preset, tx_ids_of

# Every ChainStore method that walks parent pointers and returns headers.
WALKS = ("canonical_chain", "reorg")

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


GOLDEN_SCENARIOS = json.loads((Path(__file__).parent / "golden" / "scenarios.json").read_text())
# The flawed verifier everywhere but at sealer 3, with sealer 1 claiming
# difficulty 2 out of turn but keeping the honest wiggle and recents window.
# With links of 5-50 ms the leader's block always lands first, so no block
# is ever rejected and the two flag sets never disagree.
MIXED_FLAGS = parse_scenario(GOLDEN_SCENARIOS["vulnerable-slow-attacker-fixed-peer"]["scenario"])
# The same sections with links of 500-2000 ms: some of sealer 1's out-of-turn
# blocks now land first, and the fixed peer, node 3, rejects 10 of them.
MIXED_FLAGS_SLOW_LINKS = parse_scenario(
    GOLDEN_SCENARIOS["vulnerable-slow-attacker-fixed-peer-slow-links"]["scenario"]
)
SLOW_LINKS = sorted(name for name in GOLDEN_SCENARIOS if name.startswith("slow-links-"))
# The flawed verifier everywhere but at sealer 3, so the frontrunner's
# blocks pass at four nodes and fail at one.
ATTACK_FIXED_PEER = parse_scenario(
    preset_text("attack").replace("duration_ms = 1800000", "duration_ms = 600000")
    + "\n[sealer 3]\nverify = fixed\n"
)


def _configs():
    for name in ("honest", "attack", "fixed"):
        for seed in range(3):
            config = dataclasses.replace(preset_config(name), seed=seed)
            yield pytest.param(config, id=f"{name}-seed{seed}")
    for n_sealers in (1, 2):  # at N = 1 the recents window keeps no block (W - 1 = 0)
        config = dataclasses.replace(preset_config("honest"), n_sealers=n_sealers, duration_ms=300_000)
        yield pytest.param(config, id=f"honest-n{n_sealers}")
    yield pytest.param(parse_scenario(ZERO_DIFFICULTY_SCENARIO), id="custom-difficulty-0")
    yield pytest.param(FIXED_N21, id="fixed-n21")
    for name in SLOW_LINKS:  # one has two frontrunners
        yield pytest.param(parse_scenario(GOLDEN_SCENARIOS[name]["scenario"]), id=name)


@pytest.mark.parametrize("config", list(_configs()))
def test_end_of_run_node_invariants(config):
    sim = build_simulation(config)
    sim.run_until(config.duration_ms)
    for node in sim.nodes:
        chain = node.store.canonical_chain(node.head)
        assert node.head == brute_force_head(node.store)
        pending, canonical = ledger_at_head(sim, node)
        assert canonical.isdisjoint(pending)
        assert pending | canonical | in_flight(sim, node) == set(range(sim.txs_generated))
        n_sealers = len(sim.sealers)
        assert sim.snapshots[node.head] == snapshot_for_chain(n_sealers, chain)
        # The memo builds each entry from its parent's, headers read included,
        # when the block's first verdict accepts it, so every stored block has one.
        for h in iter_hashes(node.store):
            full = node.store.canonical_chain(h)
            memo = sim.snapshots[h]
            assert memo == snapshot_for_chain(n_sealers, full), f"node {node.index}"
            # the last W - 1 = floor(N/2) headers, or the whole chain if shorter
            assert memo.tail == tuple(full[max(0, len(full) - n_sealers // 2):]), f"node {node.index}"


def test_snapshot_value_is_the_count_and_the_recent_signers():
    def chain_of(*sealers):
        chain = [make_genesis()]
        for number, sealer in enumerate(sealers, start=1):
            parent = hash_header(chain[-1])
            chain.append(BlockHeader(number, parent, sealer, f"0x{sealer:040x}", 1, number * 5000))
        return chain

    # N = 5 keeps the last two blocks: sealers 3 and 4 on both branches, in other blocks.
    one = snapshot_for_chain(5, chain_of(1, 3, 4))
    other = snapshot_for_chain(5, chain_of(4, 3))
    assert one.tail != other.tail
    assert one == other and hash(one) == hash(other) and len({one, other}) == 1
    assert not hasattr(one, "__dict__")  # slotted, like a header
    assert one == SealerSnapshot(5, frozenset({3, 4}))
    compared = [f.name for f in dataclasses.fields(SealerSnapshot) if f.compare]
    assert compared == ["n_sealers", "recent"]


@pytest.mark.parametrize(
    "config,rejected_sealers",
    [
        pytest.param(short_preset("honest", 300_000), set(), id="honest"),
        pytest.param(short_preset("attack", 300_000), set(), id="attack"),
        pytest.param(short_preset("fixed", 300_000), {2}, id="fixed"),
        pytest.param(FIXED_N21, {2}, id="fixed-n21"),
    ],
)
def test_report_rejections_are_attributed_to_their_sealer(config, rejected_sealers):
    report = run_scenario(config)
    per_sealer = [sum(sealer.rejections.values()) for sealer in report.per_sealer]
    assert sum(per_sealer) == sum(node["rejected"] for node in report.nodes)
    assert {i for i, count in enumerate(per_sealer) if count} == rejected_sealers


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


def test_each_stored_block_is_hashed_once(monkeypatch):
    """A header's digest is computed once, when the header is built.

    During ``run_until`` the only headers built are the sealed ones, so the
    digest computations (``BlockHeader.__post_init__`` runs) equal the
    nodes' seal attempts, however many peers import each block: an import
    reads the digest. ``hash_header`` runs once per store, for its
    genesis. Every module that imported ``hash_header`` by name gets the
    counting copy.
    """
    hashes = digests = extends = stores = 0

    def counting_hash(header):
        nonlocal hashes
        hashes += 1
        return hash_header(header)

    extend, store_init, post_init = ChainStore.extend, ChainStore.__init__, BlockHeader.__post_init__

    def counting_extend(self, header):
        nonlocal extends
        extends += 1
        return extend(self, header)

    def counting_init(self):
        nonlocal stores
        stores += 1
        store_init(self)

    def counting_post_init(self):
        nonlocal digests
        digests += 1
        post_init(self)

    for name, module in list(sys.modules.items()):
        if name.startswith("cliquesim") and getattr(module, "hash_header", None) is hash_header:
            monkeypatch.setattr(module, "hash_header", counting_hash)
    monkeypatch.setattr(ChainStore, "extend", counting_extend)
    monkeypatch.setattr(ChainStore, "__init__", counting_init)
    config = FIXED_N21
    sim = build_simulation(config)
    monkeypatch.setattr(BlockHeader, "__post_init__", counting_post_init)
    sim.run_until(config.duration_ms)
    arrivals = sum(node.arrivals for node in sim.nodes)
    assert stores == 21 and extends > 1_000 and arrivals > extends
    assert hashes == stores, f"{hashes} hash_header calls for {stores} stores"
    attempts = sum(node.attempts for node in sim.nodes)
    assert digests == attempts, f"{digests} digests for {attempts} seal attempts"


def _accepted_by(sim) -> dict[bytes, set[bool]]:
    """Block hash -> whether each flag set that verified it accepted it."""
    accepted_by: dict[bytes, set[bool]] = {}
    for memo in sim.verdicts.values():
        for h, reason in memo.items():
            accepted_by.setdefault(h, set()).add(reason is None)
    return accepted_by


@pytest.mark.parametrize(
    "config,rejected_everywhere,split",
    [
        pytest.param(FIXED_N21, True, False, id="fixed-n21"),
        pytest.param(preset_config("honest"), False, False, id="honest"),
        pytest.param(MIXED_FLAGS, False, False, id="vulnerable-slow-attacker-fixed-peer"),
        pytest.param(
            MIXED_FLAGS_SLOW_LINKS, False, True, id="vulnerable-slow-attacker-fixed-peer-slow-links"
        ),
        pytest.param(ATTACK_FIXED_PEER, False, True, id="attack-fixed-peer"),
    ],
)
def test_snapshot_built_once_per_block(monkeypatch, config, rejected_everywhere, split):
    """The memo's keys are the union of every node's stored hashes, each built once.

    A block's entry is built when its first verdict accepts it, whatever
    the committee size. So a block that every flag set rejected (the
    frontrunner's on ``fixed-n21``) has no entry, and one that a flag set
    accepted and another rejected (the frontrunner's in
    ``attack-fixed-peer``, and its out-of-turn blocks in
    ``vulnerable-slow-attacker-fixed-peer-slow-links``) has exactly one.
    In ``vulnerable-slow-attacker-fixed-peer`` no block is rejected at all.
    """
    built: Counter[bytes] = Counter()
    build = cliquesim.simnet.snapshot_for_chain

    def counting(n_sealers, headers):
        built[hash_header(headers[-1])] += 1
        return build(n_sealers, headers)

    monkeypatch.setattr(cliquesim.simnet, "snapshot_for_chain", counting)
    sim = build_simulation(config)
    sim.run_until(config.duration_ms)
    stored = {h for node in sim.nodes for h in iter_hashes(node.store)}
    assert sim.snapshots.keys() == stored
    assert built.keys() == stored and max(built.values()) == 1  # genesis's with the memo
    accepted_by = _accepted_by(sim)
    assert {h for h, verdicts in accepted_by.items() if True not in verdicts}.isdisjoint(sim.snapshots)
    assert any(verdicts == {False} for verdicts in accepted_by.values()) == rejected_everywhere
    assert any(verdicts == {True, False} for verdicts in accepted_by.values()) == split


@pytest.mark.parametrize(
    "config,flag_sets,split",
    [
        pytest.param(FIXED_N21, 1, False, id="fixed-n21"),
        pytest.param(MIXED_FLAGS, 2, False, id="vulnerable-slow-attacker-fixed-peer"),
        pytest.param(
            MIXED_FLAGS_SLOW_LINKS, 2, True, id="vulnerable-slow-attacker-fixed-peer-slow-links"
        ),
        pytest.param(ATTACK_FIXED_PEER, 2, True, id="attack-fixed-peer"),
    ],
)
def test_verdict_reached_once_per_block_and_flag_set(monkeypatch, config, flag_sets, split):
    """Every node with the same flags shares one verdict per block.

    On ``fixed-n21`` each block reaches 20 peers with the same flags. The
    three mixed-flag runs have one peer that verifies with the hardened
    flags while the rest run the flawed ones, so a block is verified once
    under each flag set. The two verdicts differ on some blocks (``split``)
    in all of them but ``vulnerable-slow-attacker-fixed-peer``. Every block
    a node holds must pass its own flags against a snapshot rebuilt from
    its own store, so no node took a verdict reached under other flags.
    """
    calls: Counter[tuple[bytes, VerifyFlags]] = Counter()
    verify = cliquesim.simnet.verify_header

    def counting(header, snapshot, flags):
        calls[hash_header(header), flags] += 1
        return verify(header, snapshot, flags)

    monkeypatch.setattr(cliquesim.simnet, "verify_header", counting)
    sim = build_simulation(config)
    sim.run_until(config.duration_ms)
    assert max(calls.values()) == 1, f"{calls.most_common(1)} verdicts for one block and flag set"
    assert len({flags for _, flags in calls}) == flag_sets
    assert any(verdicts == {True, False} for verdicts in _accepted_by(sim).values()) == split
    for node in sim.nodes:
        for h in iter_hashes(node.store):
            header = node.store.header(h)
            if not header.is_genesis():
                chain = node.store.canonical_chain(header.parent)
                assert verify(header, snapshot_for_chain(len(sim.sealers), chain), node.flags) is None


@pytest.mark.parametrize(
    "config",
    [
        pytest.param(FIXED_N21, id="fixed-n21"),
        pytest.param(MIXED_FLAGS, id="vulnerable-slow-attacker-fixed-peer"),
        *(pytest.param(parse_scenario(GOLDEN_SCENARIOS[name]["scenario"]), id=name) for name in SLOW_LINKS),
    ],
)
def test_mempool_follows_the_head_only_when_used(monkeypatch, config):
    """A one-block extension of the head leaves the mempool alone.

    The mempool catches up to the head only to pack a block or before any
    other head move, which then updates it once more to follow the move.
    The restore of a rejected own block does not catch up: it reads what
    the chain gained since the block's parent off the store. So per node
    the updates are at most the packs plus two per head move that is not
    a one-block extension. The moves are read off the heads each node
    plans from (``replan`` runs after every head move), not off the
    simulator's own choice of path. The slow-link scenarios reorganise at
    every node several times a minute.
    """
    calls: Counter[tuple[int, str]] = Counter()  # (id of node or mempool, method) -> calls
    planned_from: dict[int, bytes] = {}  # id of node -> head of its last plan
    other_moves: Counter[int] = Counter()  # id of node -> moves that are not one-block extensions

    def counting(owner, name):
        method = getattr(owner, name)

        def wrapper(self, *args, **kwargs):
            calls[id(self), name] += 1
            return method(self, *args, **kwargs)

        return wrapper

    replan = Node.replan

    def watching(node, head_header):
        assert head_header is node.store.header(node.head), "replan got a header other than the head's"
        last = planned_from.get(id(node), node.head)
        if node.head != last and head_header.parent != last:
            other_moves[id(node)] += 1
        planned_from[id(node)] = node.head
        replan(node, head_header)

    for owner, name in ((Mempool, "pack_block"), (Mempool, "on_canonical_update")):
        monkeypatch.setattr(owner, name, counting(owner, name))
    monkeypatch.setattr(Node, "replan", watching)
    sim = build_simulation(config)
    sim.run_until(config.duration_ms)
    for node in sim.nodes:
        pool = id(node.mempool)
        updates = calls[pool, "on_canonical_update"]
        bound = calls[pool, "pack_block"] + 2 * other_moves[id(node)]
        assert updates <= bound, f"node {node.index}: {updates} mempool updates, bound {bound}"


def test_a_restore_keeps_out_the_ids_the_chain_gained(monkeypatch):
    """A rejected own block may hold ids that a peer's block put on the chain since its parent.

    With a cap of 3 txs per block and links of up to 4 s, the two
    frontrunners' blocks are often rejected at their own nodes after a
    peer's block with the same oldest ids has been adopted. Which of the
    block's ids are canonical is read off the store, not off what the
    simulator passes to ``Mempool.restore``. Right after every restore the
    node's ids must still be conserved (``ledger_at_head``): the ids the
    chain holds are not handed back to pending.
    """
    sim = None
    overlapping = 0
    restore = Mempool.restore

    def checked(pool, tx_runs, adopted):
        nonlocal overlapping
        (node,) = (node for node in sim.nodes if node.mempool is pool)
        block = {tx for start, stop in tx_runs for tx in range(start, stop)}
        overlapping += not block.isdisjoint(tx_ids_of(node.store.canonical_chain(node.head)))
        restore(pool, tx_runs, adopted)
        pending, canonical = ledger_at_head(sim, node)
        assert pending.isdisjoint(canonical), f"node {node.index} at {sim.now} ms"
        assert pending | canonical | in_flight(sim, node) == set(range(sim.txs_generated))

    monkeypatch.setattr(Mempool, "restore", checked)
    config = parse_scenario(GOLDEN_SCENARIOS["slow-links-two-attackers-fixed-tx-cap"]["scenario"])
    sim = build_simulation(config)
    sim.run_until(config.duration_ms)
    assert overlapping, "no restore handed back ids the chain holds"


def test_tx_batches_touch_no_mempool(monkeypatch):
    """A tx batch raises one counter; a node adds the new ids when it next uses its mempool.

    On ``fixed`` at N = 21 a batch that went to every mempool would cost
    21 ``Mempool.add`` calls. Here ``_add_txs`` makes no mempool call at
    all, and a node's adds are bounded by its catch-ups (``_sync_pool``),
    which its seals and its head moves other than one-block extensions run.
    """
    config = FIXED_N21
    calls: Counter[tuple[int, str]] = Counter()  # (id of node or mempool, method) -> calls
    in_batch = mempool_calls_in_batches = 0

    def counting(owner, name):
        method = getattr(owner, name)

        def wrapper(self, *args, **kwargs):
            nonlocal in_batch, mempool_calls_in_batches
            calls[id(self), name] += 1
            if owner is Mempool:
                mempool_calls_in_batches += in_batch
            in_batch += owner is Simulation
            try:
                return method(self, *args, **kwargs)
            finally:
                in_batch -= owner is Simulation

        return wrapper

    for owner, name in (
        (Simulation, "_add_txs"),
        (Node, "_sync_pool"),
        (Mempool, "add"),
        (Mempool, "pack_block"),
        (Mempool, "restore"),
        (Mempool, "on_canonical_update"),
    ):
        monkeypatch.setattr(owner, name, counting(owner, name))
    sim = build_simulation(config)
    sim.run_until(config.duration_ms)
    assert calls[id(sim), "_add_txs"] == config.duration_ms // 1000
    assert mempool_calls_in_batches == 0, "a tx batch called a mempool method"
    for node in sim.nodes:
        pool = id(node.mempool)
        catch_ups = calls[id(node), "_sync_pool"]
        assert calls[pool, "add"] <= catch_ups, f"node {node.index}: {calls[pool, 'add']} adds, {catch_ups} catch-ups"


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


def _pack_and_digest_bytes_per_call(monkeypatch, rate):
    """Mean peak bytes allocated inside a ``Mempool.pack_block`` call or a header's construction.

    The run is ``honest`` at seed 1 for 2 min with no ``tx_cap``, so each
    block packs the ids of about one block interval, and those grow with
    the rate. Every node's packs are traced, and every header's
    construction, which computes its digest and tx count.
    """
    config = dataclasses.replace(preset_config("honest"), seed=1, duration_ms=120_000, tx_rate_per_s=rate)
    peaks = []
    pack, init = Mempool.pack_block, BlockHeader.__init__

    def traced(function, *args, **kwargs):
        tracemalloc.start()
        try:
            return function(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    with monkeypatch.context() as patch:
        patch.setattr(Mempool, "pack_block", lambda self, cap=None: traced(pack, self, cap))
        patch.setattr(BlockHeader, "__init__", lambda self, **fields: traced(init, self, **fields))
        sim = build_simulation(config)
        sim.run_until(config.duration_ms)
    return sum(peaks) / len(peaks)


def test_pack_and_digest_work_per_block_do_not_grow_with_tx_rate(monkeypatch):
    low = _pack_and_digest_bytes_per_call(monkeypatch, 200)
    high = _pack_and_digest_bytes_per_call(monkeypatch, 2000)
    assert high <= 1.25 * low, f"bytes per pack or digest: {low:.0f} at 200 tx/s, {high:.0f} at 2000 tx/s"

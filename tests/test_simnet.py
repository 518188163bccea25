import heapq
import random
import tracemalloc
from collections import Counter

import pytest

from cliquesim import (
    FIXED,
    FRONTRUNNER,
    BlockHeader,
    ChainStore,
    NonConvergenceError,
    Simulation,
    VULNERABLE,
    build_simulation,
    parse_scenario,
    run_scenario,
    ScenarioConfig,
    SealerSpec,
)
from cliquesim import simnet
from cliquesim.simnet import DELIVERY, SEAL, TXS, Node

from conftest import in_flight, ledger_at_head, short_preset


def make_sim(n=5, flags=FIXED, delay=(0, 0), seed=0, sealer_specs=None):
    """A built simulation: the default tx stream's first batch and every node's
    first plan are already queued."""
    config = ScenarioConfig(
        n_sealers=n,
        block_interval_ms=5000,
        delay_min_ms=delay[0],
        delay_max_ms=delay[1],
        flags=flags,
        seed=seed,
        sealer_specs=sealer_specs or {},
    )
    return Simulation(config)


def queued_since(sim, first_seq):
    """The queued entries with ``seq`` at or past ``first_seq``, in push order:
    the ones added after ``_next_seq`` read ``first_seq``."""
    return sorted((event for event in sim._queue if event[2] >= first_seq), key=lambda event: event[2])


def sealed_by(sim, number, sealer_index, difficulty, parent=None, time_ms=None):
    store = sim.nodes[0].store
    return BlockHeader(
        number=number,
        parent=parent if parent is not None else store.genesis,
        sealer_index=sealer_index,
        sealer_addr=sim.sealers[sealer_index],
        difficulty=difficulty,
        sim_time_ms=time_ms if time_ms is not None else number * 5000,
    )


# -- scheduling ----------------------------------------------------------------

def test_same_time_events_pop_in_insertion_order():
    sim = make_sim()
    first = range(1)
    second = range(2)
    sim.schedule(5, DELIVERY, sim._add_txs, first)
    sim.schedule(5, DELIVERY, sim._add_txs, second)
    assert heapq.heappop(sim._queue)[4] is first
    assert heapq.heappop(sim._queue)[4] is second


def test_scheduling_in_the_past_is_an_error():
    sim = make_sim()
    sim.now = 10
    with pytest.raises(ValueError):
        sim.schedule(5, DELIVERY, sim._add_txs, range(0))


def test_deliveries_pop_before_seal_timers_at_equal_time():
    sim = make_sim()
    node = sim.nodes[0]
    plan = object()
    sim.schedule(7, SEAL, node.seal, plan)
    header = sealed_by(sim, 1, 1, 2)
    sim.schedule(7, DELIVERY, node.deliver, header)
    sim.schedule(7, DELIVERY, sim._add_txs, range(3))
    batch = range(3, 5)
    sim.schedule(7, TXS, sim._add_txs, batch)  # queued last, as each lazily drawn batch is
    assert heapq.heappop(sim._queue)[3:] == (sim._add_txs, batch)
    assert heapq.heappop(sim._queue)[3:] == (node.deliver, header)
    assert heapq.heappop(sim._queue)[3] == sim._add_txs
    assert heapq.heappop(sim._queue)[3:] == (node.seal, plan)


def test_run_stops_after_the_events_due_at_drain_end():
    sim = make_sim(delay=(0, 10))
    first = sim._next_seq
    drain_end = 1000 + 2 * 10
    ran = []
    sim.schedule(drain_end + 1, DELIVERY, ran.append, "late")
    sim.schedule(drain_end, SEAL, ran.append, "last rank")  # the last rank still runs
    sim.run_until(1000)
    assert ran == ["last rank"]
    assert sim.txs_generated == 10  # the stream's batch at 1000 ms ran
    # Left queued: the entry past drain end, and the batch the first one queued.
    assert [(at, arg) for at, _, _, _, arg in queued_since(sim, first)] == [
        (drain_end + 1, "late"),
        (2000, range(10, 20)),
    ]


# -- construction ---------------------------------------------------------------

def queued_entries(sim):
    """The queue in push order, each action as its function and its node's
    index (None for the simulation), so two builds' queues compare equal."""
    return [
        (at, rank, seq, action.__func__, getattr(action.__self__, "index", None), arg)
        for at, rank, seq, action, arg in queued_since(sim, 0)
    ]


def test_a_built_simulation_holds_its_first_batch_and_every_first_plan():
    """Construction queues the first tx batch, then each eligible node's first
    seal timer in index order, exactly as ``build_simulation`` does."""
    config = ScenarioConfig(
        n_sealers=5, duration_ms=60_000, tx_rate_per_s=3, seed=4,
        sealer_specs={2: SealerSpec(policy=FRONTRUNNER)},
    )
    sim = Simulation(config)
    plans = [node.pending for node in sim.nodes]
    assert all(plan is not None and plan.eligible for plan in plans)
    assert queued_entries(sim) == [(1000, TXS, 0, Simulation._add_txs, None, range(3))] + [
        (plan.fire_at_ms, SEAL, 1 + i, Node.seal, i, plan) for i, plan in enumerate(plans)
    ]
    built = build_simulation(config)
    assert queued_entries(built) == queued_entries(sim)
    assert built.rng.getstate() == sim.rng.getstate()
    assert built._next_seq == sim._next_seq == 1 + config.n_sealers


# -- tx batches ----------------------------------------------------------------

def test_tx_batches_come_from_the_config_and_queue_one_at_a_time():
    config = ScenarioConfig(
        n_sealers=5, duration_ms=3000, tx_rate_per_s=2, delay_min_ms=0, delay_max_ms=0
    )
    sim = Simulation(config)
    assert [at for at, rank, *_ in sim._queue if rank == TXS] == [1000]
    sim.run_until(2000)
    assert sim.txs_generated == 4
    assert [at for at, rank, *_ in sim._queue if rank == TXS] == [3000]


def test_tx_batch_due_before_the_one_that_queues_it_is_an_error(monkeypatch):
    """Each batch queues the next, so a stream whose times descend would run a batch in the past."""
    descending = [(1000, range(2)), (500, range(2, 4))]
    monkeypatch.setattr(simnet, "tx_batch_schedule", lambda rate, duration: iter(descending))
    sim = make_sim()
    with pytest.raises(ValueError, match="scheduled in the past"):
        sim.run_until(2000)


@pytest.mark.parametrize("preset", ["honest", "attack", "fixed"])
@pytest.mark.parametrize("duration_ms", [0, 60_000, 10**8])
def test_setup_queue_does_not_grow_with_duration(preset, duration_ms):
    """A built run holds one seal timer per node and one tx batch, however long it is."""
    config = short_preset(preset, duration_ms)
    sim = build_simulation(config)
    assert len(sim._queue) <= config.n_sealers + 1


def test_peak_queue_length_does_not_grow_with_duration(monkeypatch):
    # ``broadcast`` pushes its arrivals without ``schedule``, so both are sampled.
    peak = 0

    def tracking(method):
        def sampled(self, *args):
            nonlocal peak
            method(self, *args)
            peak = max(peak, len(self._queue))

        return sampled

    for name in ("schedule", "broadcast"):
        monkeypatch.setattr(Simulation, name, tracking(getattr(Simulation, name)))
    peaks = []
    for minutes in (10, 40):
        peak = 0
        config = short_preset("honest", minutes * 60_000)
        build_simulation(config).run_until(config.duration_ms)
        peaks.append(peak)
    assert abs(peaks[1] - peaks[0]) <= 2, peaks


# -- broadcast -----------------------------------------------------------------

def test_broadcast_degenerate_delays_hit_every_peer_now():
    sim = make_sim(delay=(0, 0))
    sim.now = 100
    first = sim._next_seq
    sim.broadcast(2, sealed_by(sim, 1, 2, 2))
    events = queued_since(sim, first)
    assert len(events) == 4
    assert all(at == 100 for at, _, _, _, _ in events)
    assert [action for _, _, _, action, _ in events] == [sim.nodes[i].deliver for i in (0, 1, 3, 4)]


def test_broadcast_single_node_sends_nothing():
    sim = make_sim(n=1)
    first = sim._next_seq
    sim.broadcast(0, sealed_by(sim, 1, 0, 2))
    assert queued_since(sim, first) == []


def test_broadcast_draws_one_randint_per_peer_in_peer_order():
    low, high, seed = 10, 50, 4
    for sender in range(5):
        sim = make_sim(delay=(low, high), seed=seed)
        sim.now = 1000
        first = sim._next_seq
        reference = random.Random()
        reference.setstate(sim.rng.getstate())  # the build drew the first wiggles
        sim.broadcast(sender, sealed_by(sim, 1, sender, 2))
        expected = [(1000 + reference.randint(low, high), sim.nodes[i].deliver)
                    for i in range(5) if i != sender]
        queued = queued_since(sim, first)
        assert [(at, action) for at, _, _, action, _ in queued] == expected
        assert sim.rng.getstate() == reference.getstate()
        assert sim._next_seq == first + 4


@pytest.mark.parametrize("n", [1, 2, 5])
def test_broadcast_queues_every_other_node_in_index_order(n):
    for sender in range(n):
        sim = make_sim(n=n, delay=(10, 50))
        first = sim._next_seq
        sim.broadcast(sender, sealed_by(sim, 1, sender, 2))
        queued = queued_since(sim, first)
        others = [node for node in sim.nodes if node.index != sender]
        assert [action.__self__ for _, _, _, action, _ in queued] == others
        assert all(action.__func__ is Node.deliver for _, _, _, action, _ in queued)


def test_build_memory_per_sealer_does_not_grow_with_the_committee():
    """Every sender broadcasts from one list of N bound ``deliver``s, so a
    build holds no per-sender peer list and costs about the same per sealer
    at N = 400 as at N = 100 (N - 1 peers per sender would make it grow)."""
    per_sealer = []
    for n in (100, 400):
        config = ScenarioConfig(n_sealers=n, duration_ms=0)
        Simulation(config)  # first build of this size: lazy imports and caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sim = Simulation(config)
            per_sealer.append((tracemalloc.get_traced_memory()[0] - before) / n)
        finally:
            tracemalloc.stop()
    assert per_sealer[1] <= 1.25 * per_sealer[0], per_sealer


def test_broadcast_queues_the_deliver_patched_before_the_build(monkeypatch):
    """The broadcast list binds ``Node.deliver`` once, when the simulation is built."""
    def patched(self, header):
        pass

    monkeypatch.setattr(Node, "deliver", patched)
    sim = make_sim(n=3, delay=(10, 50))
    first = sim._next_seq
    sim.broadcast(1, sealed_by(sim, 1, 1, 2))
    queued = queued_since(sim, first)
    assert [(action.__func__, action.__self__) for _, _, _, action, _ in queued] == [
        (patched, sim.nodes[0]),
        (patched, sim.nodes[2]),
    ]


def test_broadcast_single_node_draws_nothing():
    sim = make_sim(n=1, delay=(10, 50))
    state = sim.rng.getstate()
    sim.broadcast(0, sealed_by(sim, 1, 0, 2))
    assert sim.rng.getstate() == state


def test_broadcast_delays_stay_in_bounds():
    sim = make_sim(delay=(10, 50), seed=9)
    sim.now = 1000
    first = sim._next_seq
    for _ in range(100):
        sim.broadcast(0, sealed_by(sim, 1, 1, 2))
    delays = [at - 1000 for at, _, _, _, _ in queued_since(sim, first)]
    assert all(10 <= d <= 50 for d in delays)
    assert min(delays) <= 15 and max(delays) >= 45


# -- arrival handling -------------------------------------------------------------

def test_honest_inturn_block_accepted_and_head_advances():
    sim = make_sim()
    sim.now = 5000
    node = sim.nodes[0]
    header = sealed_by(sim, 1, 1, 2)
    node.deliver(header)
    assert node.counters()["accepted"] == 1
    assert node.store.header(node.head) == header


def test_wrong_turn_block_dropped_by_hardened_node():
    sim = make_sim(flags=FIXED)
    sim.now = 5000
    node = sim.nodes[0]
    node.deliver(sealed_by(sim, 1, 3, 2))  # leader for height 1 is sealer 1
    assert node.rejections == {(3, "wrong_turn_difficulty"): 1}
    assert node.head == node.store.genesis


def test_wrong_turn_block_accepted_by_vulnerable_node():
    sim = make_sim(flags=VULNERABLE)
    sim.now = 5000
    node = sim.nodes[0]
    header = sealed_by(sim, 1, 3, 2)
    node.deliver(header)
    assert node.counters()["accepted"] == 1
    assert node.store.header(node.head) == header


def test_orphan_buffered_then_drained_when_parent_lands():
    sim = make_sim()
    sim.now = 10_000
    node = sim.nodes[0]
    block1 = sealed_by(sim, 1, 1, 2)
    from cliquesim import hash_header

    block2 = sealed_by(sim, 2, 2, 2, parent=hash_header(block1))
    node.deliver(block2)
    assert node.counters()["orphans_pending"] == 1
    node.deliver(block1)
    assert node.counters()["orphans_pending"] == 0
    assert node.store.header(node.head) == block2


def test_block_whose_parent_is_stored_but_not_the_head_imports_as_a_side_branch():
    sim = make_sim()
    sim.now = 10_000
    node = sim.nodes[0]
    block1 = sealed_by(sim, 1, 1, 2)
    node.deliver(block1)
    side = sealed_by(sim, 1, 2, 1)  # on genesis, no longer the head
    node.deliver(side)
    assert side.digest in node.store
    assert node.store.header(node.head) == block1
    assert node.orphans == {}


def test_block_with_an_unknown_parent_waits_off_a_moved_head():
    sim = make_sim()
    sim.now = 10_000
    node = sim.nodes[0]
    node.deliver(sealed_by(sim, 1, 1, 2))
    orphan = sealed_by(sim, 3, 3, 1, parent=b"\x11" * 32, time_ms=10_000)
    node.deliver(orphan)
    assert orphan.digest not in node.store
    assert node.orphans == {b"\x11" * 32: [orphan]}


def test_duplicate_delivery_counted_once():
    sim = make_sim()
    sim.now = 5000
    node = sim.nodes[0]
    header = sealed_by(sim, 1, 1, 2)
    node.deliver(header)
    node.deliver(header)
    assert node.counters()["accepted"] == 1
    assert node.duplicates == 1
    assert node.arrivals == 2


def test_future_claimed_block_waits_for_its_timestamp():
    sim = make_sim()
    header = sealed_by(sim, 1, 1, 2)  # claims t=5000
    for node in sim.nodes:
        node.deliver(header)
        assert node.counters()["futures_pending"] == 1
        assert node.head == node.store.genesis
    sim.run_until(5000)
    for node in sim.nodes:
        assert node.counters()["futures_pending"] == 0
        assert node.store.header(node.head) == header


# -- seal timers ------------------------------------------------------------------

def test_seal_timer_of_a_replaced_plan_seals_nothing():
    sim = make_sim()
    node = sim.nodes[0]
    stale = node.pending
    sim.now = sim.t_end = 5000
    node.deliver(sealed_by(sim, 1, 1, 2))  # moves the head, so node 0 replans
    assert node.pending is not stale
    head, queued = node.head, len(sim._queue)
    node.seal(stale)
    assert node.attempts == 0
    assert node.head == head
    assert len(sim._queue) == queued


def test_seal_timer_after_t_end_seals_nothing():
    sim = make_sim()
    node = sim.nodes[1]  # the leader for height 1
    plan = node.pending
    sim.now = plan.fire_at_ms
    sim.t_end = plan.fire_at_ms - 1
    node.seal(plan)
    assert node.pending is plan
    assert node.attempts == 0
    assert node.head == node.store.genesis


def test_seal_timer_at_t_end_seals():
    sim = make_sim()
    node = sim.nodes[1]
    plan = node.pending
    sim.now = sim.t_end = plan.fire_at_ms
    node.seal(plan)
    assert node.attempts == 1
    assert node.store.header(node.head).number == 1


def test_zero_delay_run_imports_the_block_sealed_at_t_end():
    """With no link delay the drain window is empty; its closing instant still runs."""
    sim = make_sim(delay=(0, 0))
    sim.run_until(5000)  # the height-1 leader fires at exactly 5000
    assert sim.nodes[1].attempts == 1
    for node in sim.nodes:
        assert node.store.header(node.head).number == 1


def test_nonconvergence_detected_at_drain():
    sim = make_sim(n=2)
    sim.nodes[0].deliver(sealed_by(sim, 1, 1, 2, time_ms=0))
    with pytest.raises(NonConvergenceError):
        sim.run_until(0)


FORK_DEADLOCK_SCENARIO = """\
n_sealers = 5
verify = fixed
seed = 1
delay_min_ms = 0
duration_ms = 300000

[sealer 1]
policy = malicious
forced_difficulty = 9

[sealer 3]
policy = malicious
"""


def test_nonconvergence_on_a_clique_fork_deadlock():
    """A protocol outcome, not a simulator bug, also raises at drain.

    Nodes 2 and 4 both seal height 40 out of turn at equal weight. On each
    branch every honest sealer is then inside the recently-signed window,
    so neither branch grows and the network ends split at height 40.
    """
    config = parse_scenario(FORK_DEADLOCK_SCENARIO)
    sim = build_simulation(config)
    with pytest.raises(NonConvergenceError):
        sim.run_until(config.duration_ms)
    heads = {node.head: node.store.header(node.head) for node in sim.nodes}
    assert sorted((h.number, h.sealer_index) for h in heads.values()) == [(40, 2), (40, 4)]


# -- whole runs --------------------------------------------------------------------

def test_honest_minute_produces_expected_height():
    config = ScenarioConfig(n_sealers=5, duration_ms=60_000, seed=3)
    report = run_scenario(config)
    assert report.totals["canonical_height"] == 12


def test_hardened_verifier_never_rejects_honest_blocks():
    report = run_scenario(short_preset("honest", 300_000))
    assert all(s.rejections == {} for s in report.per_sealer)


def test_zero_duration_reports_genesis_only():
    report = run_scenario(ScenarioConfig(n_sealers=5, duration_ms=0))
    assert report.totals["canonical_height"] == 0
    assert len(report.block_log) == 1


@pytest.mark.parametrize("preset", ["honest", "attack", "fixed"])
def test_node_counters_balance(preset):
    sim = build_simulation(short_preset(preset, 120_000))
    sim.run_until(120_000)
    for node in sim.nodes:
        counts = node.counters()
        assert counts["arrivals"] == (
            counts["accepted"]
            + counts["rejected"]
            + counts["duplicates"]
            + counts["orphans_pending"]
            + counts["futures_pending"]
        )
        if preset == "attack":
            # The attacker signs its next block at once, claimed past the drain.
            assert counts["futures_pending"] >= 1


@pytest.mark.parametrize("preset", ["honest", "attack", "fixed"])
def test_all_nodes_agree_at_drain(preset):
    sim = build_simulation(short_preset(preset, 120_000, seed=5))
    sim.run_until(120_000)
    assert len({node.head for node in sim.nodes}) == 1


@pytest.mark.parametrize("preset", ["honest", "attack"])
def test_liveness_no_window_without_progress(preset):
    config = short_preset(preset, 180_000)
    report = run_scenario(config)
    times = [row.time_ms for row in report.block_log]
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert gaps and max(gaps) <= 2 * config.block_interval_ms


@pytest.mark.parametrize("preset", ["honest", "attack"])
def test_no_tx_appears_in_two_canonical_blocks(preset):
    sim = build_simulation(short_preset(preset, 120_000))
    result = sim.run_until(120_000)
    seen: set[int] = set()
    for header in result.canonical:
        ids = set(header.tx_ids)
        assert not ids & seen
        seen |= ids


def test_tx_conservation_per_node_honest():
    sim = build_simulation(short_preset("honest", 120_000))
    sim.run_until(120_000)
    for node in sim.nodes:
        pending, canonical = ledger_at_head(sim, node)
        assert not pending & canonical
        assert pending | canonical == set(range(sim.txs_generated))


def test_tx_conservation_per_node_attack():
    sim = build_simulation(short_preset("attack", 120_000))
    sim.run_until(120_000)
    for node in sim.nodes:
        pending, canonical = ledger_at_head(sim, node)
        assert not pending & canonical
        assert pending | canonical | in_flight(sim, node) == set(range(sim.txs_generated))


@pytest.mark.parametrize("preset", ["honest", "attack", "fixed"])
def test_tx_conservation_after_every_event(preset, monkeypatch):
    """No tx is lost or doubled at any node at any instant, not only at the end.

    A rejected own block must hand its txs back at once: honest sealers
    would include the dropped ids later, so an end-of-run check misses it.
    Every event handler is wrapped, and the check runs when the outermost
    call returns (``seal`` delivers the new block to its own node). The
    sets are read as of each node's head (``ledger_at_head``): ids its
    mempool has not caught up to yet count as pending, and the ids of
    blocks its head gained since the mempool last followed it as canonical.
    """
    sim = None
    depth = checks = 0

    def checked(handler):
        def wrapper(self, arg):
            nonlocal depth, checks
            depth += 1
            handler(self, arg)
            depth -= 1
            if depth:
                return
            checks += 1
            generated = set(range(sim.txs_generated))
            for node in sim.nodes:
                pending, canonical = ledger_at_head(sim, node)
                assert pending.isdisjoint(canonical), f"node {node.index} at {sim.now} ms"
                assert pending | canonical | in_flight(sim, node) == generated, f"node {node.index} at {sim.now} ms"

        return wrapper

    for owner, name in ((Node, "deliver"), (Node, "_admit"), (Node, "seal"), (Simulation, "_add_txs")):
        monkeypatch.setattr(owner, name, checked(getattr(owner, name)))
    sim = build_simulation(short_preset(preset, 120_000))
    sim.run_until(120_000)
    assert checks == sim._next_seq - len(sim._queue)


@pytest.mark.parametrize("preset", ["honest", "attack", "fixed"])
def test_tx_batches_run_first_at_their_ms_and_count_in_closed_form(preset, monkeypatch):
    """Every dispatched event sees exactly the ids created up to its time.

    Batch k fires at k * 1000 ms, before any other event due then, so after
    every event ``txs_generated`` is the rate times the whole seconds
    elapsed, up to the run's last batch. Handlers are wrapped as above, and
    an outermost call is one dispatched event.
    """
    config = short_preset(preset, 120_000)
    sim = None
    depth = 0
    batch_ms: list[int] = []
    first_at: dict[int, str] = {}  # ms -> name of the first event dispatched then
    dispatched: Counter[int] = Counter()  # ms -> events dispatched then

    def checked(name, handler):
        def wrapper(self, arg):
            nonlocal depth
            if not depth:
                first_at.setdefault(sim.now, name)
                dispatched[sim.now] += 1
                if name == "_add_txs":
                    batch_ms.append(sim.now)
            depth += 1
            handler(self, arg)
            depth -= 1
            if not depth:
                seconds = min(sim.now // 1000, config.duration_ms // 1000)
                assert sim.txs_generated == config.tx_rate_per_s * seconds, f"at {sim.now} ms"

        return wrapper

    for owner, name in ((Node, "deliver"), (Node, "_admit"), (Node, "seal"), (Simulation, "_add_txs")):
        monkeypatch.setattr(owner, name, checked(name, getattr(owner, name)))
    sim = build_simulation(config)
    sim.run_until(config.duration_ms)
    assert batch_ms == [1000 * k for k in range(1, 121)]
    assert all(first_at[at] == "_add_txs" for at in batch_ms)
    assert any(dispatched[at] > 1 for at in batch_ms), "no other event shared a batch's ms"


def test_store_lookups_per_event_stay_flat_as_runs_lengthen(monkeypatch):
    """A run's chain work per event does not grow with the chain's length.

    Every store's header and total-difficulty maps count their lookups, so
    the parent steps of ``reorg`` are counted along with every other read.
    A walk that reached back towards genesis on each import (a snapshot
    built from the whole chain, a head move that walked both chains in
    full) would make a run four times as long cost far more than four
    times the lookups.
    """
    lookups = 0

    class CountingDict(dict):
        def __getitem__(self, key):
            nonlocal lookups
            lookups += 1
            return dict.__getitem__(self, key)

        def get(self, key, default=None):
            nonlocal lookups
            lookups += 1
            return dict.get(self, key, default)

    store_init = ChainStore.__init__

    def counting_init(self):
        store_init(self)
        self._headers, self._td = CountingDict(self._headers), CountingDict(self._td)

    monkeypatch.setattr(ChainStore, "__init__", counting_init)
    per_event = []
    for duration_ms in (600_000, 2_400_000):
        lookups = 0
        sim = build_simulation(short_preset("honest", duration_ms))
        sim.run_until(duration_ms)
        per_event.append(lookups / (sim._next_seq - len(sim._queue)))
    assert per_event[0] > 0
    assert 0.95 <= per_event[1] / per_event[0] <= 1.05, per_event

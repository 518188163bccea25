"""Deterministic discrete-event simulation of a sealer network.

A single priority queue holds ``(time, rank, seq, action, arg)`` entries
and runs each as ``action(arg)``: ``Node.deliver`` with an arriving
header, ``Node._admit`` with a buffered one, ``Node.seal`` with the plan
its timer was set for, or ``Simulation._add_txs`` with a tx batch. ``seq``
is assigned at scheduling, so entries never tie and two runs with the same
seed replay the exact same event sequence. One shared seeded generator is
consumed in event order, which makes determinism a consequence of the
total event order. The caller of ``schedule`` names one of three ranks,
and at equal timestamps a lower rank runs first. A ``TXS`` batch runs
before everything else due at its ms, so every event then sees the ids
created up to its time. Every ``DELIVERY`` (an arriving or a released
block) runs before every ``SEAL`` timer, so a node always sees everything
the network has already handed it before it signs, and a round leader
whose slot was frontrun cancels instead of racing its own stale plan.

The queue holds only live events: block arrivals, buffered releases, seal
timers and the next tx batch. Each batch queues the one after it when it
runs, so setup and the queue do not grow with the run's duration. A batch
is queued later than the events it must precede, so its seq alone would
not put it first; the ``TXS`` rank does.

Network model: full-mesh broadcast among N sealer nodes with independent
uniform per-link delays and no message loss (partial synchrony: everything
is eventually delivered). Each node keeps its own chain store, mempool and
head, and owns the run's tallies of what happened at it (its seal attempts,
the blocks it rejected); reports derive per-sealer counts from the nodes.
Nodes share only the wire and the run's sealer-snapshot memo and its
verdict memo. Sharing them is sound because a block hash commits to its
parent hash and so fixes the whole branch: every node that holds the
block builds the same snapshot at it, and every node with the same
verification flags reaches the same verdict on it (EIP-225 makes a
header's validity a function of the header and the snapshot at its
parent). The memo builds each block's snapshot from its parent's and the
block's header, so no snapshot walks the chain.

Timestamps vs. firing: a header carries the protocol-claimed time
(parent + interval). Honest sealers only fire at or after the claim, but
the zero-delay attacker broadcasts immediately, so a receiver buffers any
block whose claim is still in the future and schedules its release for the
claim time, as a delivery. That buffered import is what lets a frontrunning
block beat the round leader's freshly sealed one at every peer.
"""

from __future__ import annotations

import hashlib
import heapq
import random
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterator

from . import strategies
from .chain import GENESIS, BlockHeader, ChainStore
from .engine import (
    SealerSnapshot,
    VerifyFlags,
    leader_index,
    snapshot_for_chain,
    uniform_int,
    verify_header,
)
from .strategies import ProposalPlan, SealerPolicy
from .workload import Mempool, tx_batch_schedule

if TYPE_CHECKING:  # the harness imports this module, so only type checkers import it back
    from .harness import ScenarioConfig

# Event ranks: at equal timestamps a lower rank runs first.
TXS = 0  # tx batches, queued one at a time, so only the rank puts them first
DELIVERY = 1  # block arrivals and buffered-block releases
SEAL = 2  # seal timers


class NonConvergenceError(Exception):
    """Same-flag nodes disagree on the head after the drain window.

    A simulator bug would raise it, and so does a Clique fork deadlock: two
    equally heavy branches on each of which every honest sealer signed recently.
    """


def sealer_addresses(seed: int, n_sealers: int) -> tuple[str, ...]:
    """Deterministic pseudo-addresses: 0x-prefixed, 40 hex chars."""
    return tuple(
        "0x" + hashlib.sha256(f"sealer:{seed}:{i}".encode()).hexdigest()[:40]
        for i in range(n_sealers)
    )


@dataclass
class SimResult:
    canonical: list[BlockHeader]
    sealers: tuple[str, ...]
    nodes: list[Node]
    txs_generated: int


class Node:
    """One sealer's local view: chain, mempool, pending plan.

    The node is also the run's only record of what happened at it: its own
    seal attempts (node i is sealer i) and every block it rejected, keyed by
    ``(sealer index, reason)``. Reports sum these; nothing else keeps them.

    The mempool follows the head lazily. ``pool_head`` is the head it is
    caught up to, always an ancestor of (or equal to) ``head``: a one-block
    extension of the head moves only ``head``, and the mempool catches up
    along ``pool_head -> head`` only when it is next read or moved (a pack
    or any other head move). Adopting a run of extensions one by one or
    all at once leaves the same sets, so the delay changes nothing. The
    restore of a rejected own block does not catch up first: it commutes
    with the later adoption (``Mempool.restore``).
    """

    def __init__(
        self,
        sim: Simulation,
        index: int,
        policy: SealerPolicy,
        flags: VerifyFlags,
    ):
        self.sim = sim
        self.index = index
        self.policy = policy
        self.flags = flags
        self.store = ChainStore()
        self.head = self.pool_head = self.store.genesis
        self.mempool = Mempool()
        self.verdicts = sim.verdicts.setdefault(flags, {})
        self.pending: ProposalPlan | None = None
        # Blocks whose parent we have not seen yet, keyed by that parent.
        self.orphans: dict[bytes, list[BlockHeader]] = {}
        self.seen: set[bytes] = set()
        self.arrivals = 0
        self.duplicates = 0
        self.attempts = 0
        self.leader_attempts = 0
        self.rejections: Counter[tuple[int, str]] = Counter()

    # -- delivery ----------------------------------------------------------

    def deliver(self, header: BlockHeader) -> None:
        """Entry point for every block arrival, network or self.

        Every call counts as an arrival; a block this node has seen before
        is counted as a duplicate and dropped.
        """
        block_hash = header.digest
        self.arrivals += 1
        if block_hash in self.seen:
            self.duplicates += 1
            return
        self.seen.add(block_hash)
        self._admit(header)

    def _admit(self, header: BlockHeader) -> None:
        """Import ``header``, or hold it until its parent or its claimed time.

        A block claimed for a later time waits in the event queue as an
        ``_admit`` entry due at that time; a block whose parent is missing
        waits in ``orphans`` and is admitted right after the parent. The
        verdict comes from the run's memo for this node's flags
        (``Simulation.verdicts``), so of all the nodes with the same flags
        only the first to import a block runs ``verify_header`` on it. The
        memo holds the reason's name, the key a rejection is tallied under.
        """
        if header.sim_time_ms > self.sim.now:
            self.sim.schedule(header.sim_time_ms, DELIVERY, self._admit, header)
            return
        if header.parent not in self.store:
            self.orphans.setdefault(header.parent, []).append(header)
            return
        block_hash = header.digest
        try:
            reason = self.verdicts[block_hash]
        except KeyError:
            verdict = verify_header(header, self._snapshot_at(header.parent), self.flags)
            reason = self.verdicts[block_hash] = None if verdict is None else verdict.value
        if reason is not None:
            self.rejections[header.sealer_index, reason] += 1
            if header.sealer_index == self.index:
                self.mempool.restore(header.tx_runs)
            return
        self.store.extend(header)
        new_head = self.store.select_head()
        if new_head == block_hash and header.parent == self.head:
            self.head = new_head
            self.replan()
        elif new_head != self.head:
            self._move_head(new_head)
        for child in self.orphans.pop(block_hash, ()):
            self._admit(child)

    def _snapshot_at(self, block_hash: bytes) -> SealerSnapshot:
        """Snapshot of the recent signers on the branch ending at ``block_hash``.

        The run memoises one snapshot per block in ``Simulation.snapshots``,
        shared by all nodes: the hash fixes the whole branch, so whichever
        node builds the entry first builds the one every other node would.
        An entry is built from the parent's entry and the block's header
        alone. The parent's entry always exists: a block is stored only
        after a verdict, every verdict was reached against the snapshot at
        the block's parent, and genesis's entry is made with the memo.
        """
        snapshots = self.sim.snapshots
        snapshot = snapshots.get(block_hash)
        if snapshot is None:
            header = self.store.header(block_hash)
            snapshot = snapshots[block_hash] = snapshot_for_chain(
                len(self.sim.sealers), snapshots[header.parent].tail + (header,)
            )
        return snapshot

    def _sync_pool(self) -> None:
        """Catch the mempool up to the ids created so far and to the head.

        The blocks from ``pool_head`` to ``head`` extend the chain the
        mempool follows, so one walk back from ``head`` finds them all, and
        they are adopted in one update that abandons nothing.
        """
        self.mempool.catch_up(self.sim.txs_generated)
        if self.pool_head != self.head:
            store = self.store
            lag = store.header(self.head).number - store.header(self.pool_head).number
            self.mempool.on_canonical_update((), store.chain_tail(self.head, lag))
            self.pool_head = self.head

    def _move_head(self, new_head: bytes) -> None:
        """Move the head anywhere but to a one-block extension of it.

        The mempool first catches up to the old head, then follows the
        move. The two updates stay apart: a block adopted and then
        abandoned must hand its ids back to pending, which one net diff
        from ``pool_head`` to ``new_head`` would skip.
        """
        self._sync_pool()
        abandoned, adopted = self.store.reorg(self.head, new_head)
        self.head = self.pool_head = new_head
        self.mempool.on_canonical_update(abandoned, adopted)
        self.replan()

    # -- proposing ---------------------------------------------------------

    def replan(self) -> None:
        """Cancel any stale plan and schedule a fresh one on the current head."""
        sim, head = self.sim, self.head
        plan = self.pending = strategies.plan_proposal(
            self.policy, self.store.header(head), head, self._snapshot_at(head),
            sim.now, sim.config.block_interval_ms, self.index, sim.rng,
        )
        if plan.eligible:
            sim.schedule(plan.fire_at_ms, SEAL, self.seal, plan)

    def seal(self, plan: ProposalPlan) -> None:
        """Seal and broadcast ``plan`` when its timer fires.

        Does nothing if a newer head has replaced the plan, or if the timer
        fires after sealing stopped at ``t_end``.
        """
        if plan is not self.pending or self.sim.now > self.sim.t_end:
            return
        self.pending = None
        self._sync_pool()
        tx_runs = self.mempool.pack_block(self.sim.config.tx_cap)
        header = BlockHeader(
            number=plan.height,
            parent=plan.parent,
            sealer_index=self.index,
            sealer_addr=self.sim.sealers[self.index],
            difficulty=plan.difficulty,
            sim_time_ms=plan.claim_ms,
            tx_runs=tx_runs,
        )
        self.attempts += 1
        if self.index == leader_index(plan.height, len(self.sim.sealers)):
            self.leader_attempts += 1
        self.sim.broadcast(self.index, header)
        self.deliver(header)

    def counters(self) -> dict[str, int]:
        """Arrival outcomes. ``accepted`` is read off the store (every block
        but genesis) and ``futures_pending`` off the event queue (this node's
        ``_admit`` entries), so neither is kept a second time."""
        admit = self._admit
        return {
            "arrivals": self.arrivals,
            "accepted": len(self.store) - 1,
            "rejected": self.rejections.total(),
            "duplicates": self.duplicates,
            "orphans_pending": sum(len(v) for v in self.orphans.values()),
            "futures_pending": sum(action == admit for _, _, _, action, _ in self.sim._queue),
        }


class Simulation:
    """One isolated run: nodes, queue, generator. Strictly single-threaded.

    Every setting is read from ``config``, which has already checked it."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.sealers = sealer_addresses(config.seed, config.n_sealers)
        self.rng = random.Random(config.seed)
        self.now = 0
        self.t_end = 0
        self._queue: list[tuple[int, int, int, Callable[[Any], None], Any]] = []
        self._next_seq = 0
        self._tx_batches: Iterator[tuple[int, range]] = iter(())
        self._started = False
        self.txs_generated = 0
        # block hash -> snapshot at it; genesis's entry is the root the others are built from
        self.snapshots: dict[bytes, SealerSnapshot] = {
            GENESIS.digest: snapshot_for_chain(config.n_sealers, (GENESIS,))
        }
        # flags -> block hash -> ``RejectReason.value`` of verify_header's
        # verdict under those flags, or None for an accepted block
        self.verdicts: dict[VerifyFlags, dict[bytes, str | None]] = {}
        self.nodes = [
            Node(self, i, policy, flags)
            for i, (policy, flags) in enumerate(zip(config.policies(), config.flag_list()))
        ]

    # -- scheduling --------------------------------------------------------

    def schedule(self, at_ms: int, rank: int, action: Callable[[Any], None], arg: Any) -> None:
        """Run ``action(arg)`` at ``at_ms``, after same-time events of lower rank."""
        if at_ms < self.now:
            raise ValueError(f"event scheduled in the past: {at_ms} < {self.now}")
        heapq.heappush(self._queue, (at_ms, rank, self._next_seq, action, arg))
        self._next_seq += 1

    def broadcast(self, from_node: int, header: BlockHeader) -> None:
        """Schedule one arrival per peer with independent uniform delays.

        The sender applies the block to itself separately, at the current
        instant.
        """
        rng, low, high = self.rng, self.config.delay_min_ms, self.config.delay_max_ms
        for peer in self.nodes:
            if peer.index == from_node:
                continue
            self.schedule(self.now + uniform_int(rng, low, high), DELIVERY, peer.deliver, header)

    def start(self) -> None:
        """Queue the config's tx stream and install the first proposal plans.

        Genesis is already everyone's head. Only the stream's first batch is
        queued here; each batch queues the next when it runs, so the queue
        holds one batch however long the run. A batch only counts its ids
        into ``txs_generated``. Each node adds the ids below that count to
        its mempool when it next uses it (``Mempool.catch_up``), so no batch
        touches a mempool. Call it once, before ``run_until``.

        Raises ``ValueError`` on a second call: a second stream would hand
        out the ids from 0 again, drawn from the one iterator both chains
        of batches share.
        """
        if self._started:
            raise ValueError("a tx batch stream is already running")
        self._started = True
        config = self.config
        self._tx_batches = tx_batch_schedule(config.tx_rate_per_s, config.duration_ms)
        self._queue_next_batch()
        for node in self.nodes:
            node.replan()

    def _add_txs(self, txs: range) -> None:
        self.txs_generated += len(txs)
        self._queue_next_batch()

    def _queue_next_batch(self) -> None:
        batch = next(self._tx_batches, None)
        if batch is not None:
            self.schedule(batch[0], TXS, self._add_txs, batch[1])

    # -- event loop --------------------------------------------------------

    def run_until(self, t_end_ms: int) -> SimResult:
        """Process events in (time, rank, seq) order until the drain window closes.

        Sealing stops at ``t_end_ms``; deliveries continue for a drain of
        twice the maximum link delay so in-flight blocks land before the
        report is built from node 0's canonical chain. Events due at the
        drain's end still run; later ones stay queued.
        """
        self.t_end = t_end_ms
        drain_end = t_end_ms + 2 * self.config.delay_max_ms
        queue = self._queue
        while queue and queue[0][0] <= drain_end:
            self.now, _, _, action, arg = heapq.heappop(queue)
            action(arg)
        self._check_agreement()
        return SimResult(
            canonical=self.nodes[0].store.canonical_chain(self.nodes[0].head),
            sealers=self.sealers,
            nodes=self.nodes,
            txs_generated=self.txs_generated,
        )

    def _check_agreement(self) -> None:
        heads_by_flags: dict[VerifyFlags, set[bytes]] = {}
        for node in self.nodes:
            heads_by_flags.setdefault(node.flags, set()).add(node.head)
        for flags, heads in heads_by_flags.items():
            if len(heads) > 1:
                raise NonConvergenceError(
                    f"nodes with flags {flags} ended on {len(heads)} different heads"
                )

"""Deterministic discrete-event simulation of a sealer network.

A single priority queue holds ``(time, rank, seq, action, arg)`` entries
and runs each as ``action(arg)``: ``Node.deliver`` with an arriving
header, ``Node._admit`` with a buffered one, ``Node.seal`` with the plan
its timer was set for, or ``Simulation._add_txs`` with a tx batch. ``seq``
is assigned at scheduling, so entries never tie and two runs with the same
seed replay the exact same event sequence. One shared seeded generator is
consumed in event order, which makes determinism a consequence of the
total event order. The caller of ``schedule`` names the rank: at equal
timestamps every ``DELIVERY`` (blocks and tx batches) runs before every
``SEAL`` timer, so a node always sees everything the network has already
handed it before it signs, and a round leader whose slot was frontrun
cancels instead of racing its own stale plan.

Network model: full-mesh broadcast among N sealer nodes with independent
uniform per-link delays and no message loss (partial synchrony: everything
is eventually delivered). Each node keeps its own chain store, mempool and
head; nodes share only the wire and the run's sealer-snapshot memo. Sharing
the memo is sound because a block hash commits to its parent hash and so
fixes the whole branch: every node that holds the block builds the same
snapshot at it.

Timestamps vs. firing: a header carries the protocol-claimed time
(parent + interval). Honest sealers only fire at or after the claim, but
the zero-delay attacker broadcasts immediately, so a receiver buffers any
block whose claim is still in the future and schedules its release for the
claim time, as a delivery. That buffered import is what lets a frontrunning
block beat the round leader's freshly sealed one at every peer.
"""

from __future__ import annotations

import heapq
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable

from . import strategies
from .chain import BlockHeader, ChainStore, hash_header, make_genesis
from .engine import (
    ProposalContext,
    SealerSnapshot,
    VerifyFlags,
    leader_index,
    recents_window,
    snapshot_for_chain,
    verify_header,
)
from .strategies import ProposalPlan, SealerPolicy
from .workload import Mempool

# Event ranks: at equal timestamps a lower rank runs first.
DELIVERY = 0  # block arrivals, buffered-block releases and tx batches
SEAL = 1  # seal timers


class NonConvergenceError(Exception):
    """Same-flag nodes disagree on the head after the drain window.

    A simulator bug would raise it, and so does a Clique fork deadlock: two
    equally heavy branches on each of which every honest sealer signed recently.
    """


@dataclass(frozen=True)
class DelayModel:
    """Per-link uniform delivery delay bounds, in ms. Nothing is dropped."""

    min_ms: int
    max_ms: int

    def __post_init__(self) -> None:
        if not 0 <= self.min_ms <= self.max_ms:
            raise ValueError("need 0 <= min_ms <= max_ms")


@dataclass
class SealerTally:
    """Per-sealer attempt and rejection bookkeeping for a run."""

    attempts: int = 0
    leader_attempts: int = 0
    rejections: Counter[str] = field(default_factory=Counter)


@dataclass
class SimResult:
    canonical: list[BlockHeader]
    sealers: tuple[str, ...]
    tallies: list[SealerTally]
    node_counters: list[dict[str, int]]
    txs_generated: int


class Node:
    """One sealer's local view: chain, mempool, pending plan."""

    def __init__(
        self,
        sim: "Simulation",
        index: int,
        policy: SealerPolicy,
        flags: VerifyFlags,
        genesis: BlockHeader,
    ):
        self.sim = sim
        self.index = index
        self.policy = policy
        self.flags = flags
        self.store = ChainStore(genesis)
        self.head = self.store.genesis
        self.mempool = Mempool()
        self.pending: ProposalPlan | None = None
        # Blocks whose parent we have not seen yet, keyed by that parent.
        self.orphans: dict[bytes, list[BlockHeader]] = {}
        self.seen: set[bytes] = set()
        self.arrivals = 0
        self.rejected = 0
        self.duplicates = 0

    # -- delivery ----------------------------------------------------------

    def deliver(self, header: BlockHeader) -> None:
        """Entry point for every block arrival, network or self.

        Every call counts as an arrival; a block this node has seen before
        is counted as a duplicate and dropped.
        """
        block_hash = hash_header(header)
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
        waits in ``orphans`` and is admitted right after the parent.
        """
        if header.sim_time_ms > self.sim.now:
            self.sim.schedule(header.sim_time_ms, DELIVERY, self._admit, header)
            return
        if header.parent not in self.store:
            self.orphans.setdefault(header.parent, []).append(header)
            return
        reason = verify_header(header, self._snapshot_at(header.parent), self.flags)
        if reason is not None:
            self.rejected += 1
            self.sim.tallies[header.sealer_index].rejections[reason.value] += 1
            if header.sealer_index == self.index:
                self.mempool.restore(header.tx_runs)
            return
        block_hash = self.store.extend(header)
        new_head = self.store.select_head()
        if new_head != self.head:
            self._move_head(new_head)
        for child in self.orphans.pop(block_hash, []):
            self._admit(child)

    def _snapshot_at(self, block_hash: bytes) -> SealerSnapshot:
        """Snapshot of the recent signers on the branch ending at ``block_hash``.

        The run memoises one snapshot per block in ``Simulation.snapshots``,
        shared by all nodes: the hash fixes the whole branch, so whichever
        node builds the entry first, from its own store, builds the one every
        other node would.
        """
        snapshot = self.sim.snapshots.get(block_hash)
        if snapshot is None:
            n_sealers = len(self.sim.sealers)
            depth = recents_window(n_sealers) - 1
            snapshot = snapshot_for_chain(n_sealers, self.store.chain_tail(block_hash, depth))
            self.sim.snapshots[block_hash] = snapshot
        return snapshot

    def _move_head(self, new_head: bytes) -> None:
        abandoned, adopted = self.store.reorg(self.head, new_head)
        self.head = new_head
        self.mempool.catch_up(self.sim.txs_generated)
        self.mempool.on_canonical_update(abandoned, adopted)
        self.replan()

    # -- proposing ---------------------------------------------------------

    def replan(self) -> None:
        """Cancel any stale plan and schedule a fresh one on the current head."""
        head_header = self.store.header(self.head)
        ctx = ProposalContext(
            head_header.number,
            self.head,
            head_header.sim_time_ms,
            self._snapshot_at(self.head),
            self.sim.now,
            self.sim.block_interval_ms,
        )
        plan = self.pending = strategies.plan_proposal(self.policy, ctx, self.index, self.sim.rng)
        if plan.eligible:
            self.sim.schedule(plan.fire_at_ms, SEAL, self.seal, plan)

    def seal(self, plan: ProposalPlan) -> None:
        """Seal and broadcast ``plan`` when its timer fires.

        Does nothing if a newer head has replaced the plan, or if the timer
        fires after sealing stopped at ``t_end``.
        """
        if plan is not self.pending or self.sim.now > self.sim.t_end:
            return
        self.pending = None
        self.mempool.catch_up(self.sim.txs_generated)
        tx_runs = self.mempool.pack_block(self.sim.tx_cap)
        header = BlockHeader(
            number=plan.height,
            parent=plan.parent,
            sealer_index=self.index,
            sealer_addr=self.sim.sealers[self.index],
            difficulty=plan.difficulty,
            sim_time_ms=plan.claim_ms,
            tx_runs=tx_runs,
        )
        tally = self.sim.tallies[self.index]
        tally.attempts += 1
        if self.index == leader_index(plan.height, len(self.sim.sealers)):
            tally.leader_attempts += 1
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
            "rejected": self.rejected,
            "duplicates": self.duplicates,
            "orphans_pending": sum(len(v) for v in self.orphans.values()),
            "futures_pending": sum(action == admit for _, _, _, action, _ in self.sim._queue),
        }


class Simulation:
    """One isolated run: nodes, queue, generator. Strictly single-threaded."""

    def __init__(
        self,
        sealers: tuple[str, ...],
        policies: list[SealerPolicy],
        flags: list[VerifyFlags],
        block_interval_ms: int,
        delay_model: DelayModel,
        seed: int,
        tx_cap: int | None = None,
    ):
        if not sealers:
            raise ValueError("sealer set must be non-empty")
        if len(set(sealers)) != len(sealers):
            raise ValueError("sealer addresses must be unique")
        if not (len(sealers) == len(policies) == len(flags)):
            raise ValueError("need one policy and one flag set per sealer")
        if block_interval_ms <= 0:
            raise ValueError("block interval must be positive")
        if tx_cap is not None and tx_cap < 0:
            raise ValueError("tx cap must be >= 0")
        self.sealers = sealers
        self.block_interval_ms = block_interval_ms
        self.delay_model = delay_model
        self.rng = random.Random(seed)
        self.tx_cap = tx_cap
        self.now = 0
        self.t_end = 0
        self._queue: list[tuple[int, int, int, Callable[[Any], None], Any]] = []
        self._next_seq = 0
        self.tallies = [SealerTally() for _ in sealers]
        self.txs_generated = 0
        self.snapshots: dict[bytes, SealerSnapshot] = {}  # block hash -> snapshot at it
        genesis = make_genesis()
        self.nodes = [
            Node(self, i, policies[i], flags[i], genesis) for i in range(len(sealers))
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
        for peer in self.nodes:
            if peer.index == from_node:
                continue
            delay = self.rng.randint(self.delay_model.min_ms, self.delay_model.max_ms)
            self.schedule(self.now + delay, DELIVERY, peer.deliver, header)

    def schedule_tx_batches(self, batches: list[tuple[int, range]]) -> None:
        """Schedule batches that hand out the ids 0, 1, 2, ... in time order.

        A batch only counts its ids into ``txs_generated``. Each node adds
        the ids below that count to its mempool when it next uses it
        (``Mempool.catch_up``), so no batch touches a mempool.
        """
        for at_ms, txs in batches:
            self.schedule(at_ms, DELIVERY, self._add_txs, txs)

    def _add_txs(self, txs: range) -> None:
        self.txs_generated += len(txs)

    def start(self) -> None:
        """Install the first proposal plans (genesis is already everyone's head)."""
        for node in self.nodes:
            node.replan()

    # -- event loop --------------------------------------------------------

    def run_until(self, t_end_ms: int) -> SimResult:
        """Process events in (time, rank, seq) order until the drain window closes.

        Sealing stops at ``t_end_ms``; deliveries continue for a drain of
        twice the maximum link delay so in-flight blocks land before the
        report is built from node 0's canonical chain. Events due at the
        drain's end still run; later ones stay queued.
        """
        self.t_end = t_end_ms
        drain_end = t_end_ms + 2 * self.delay_model.max_ms
        queue = self._queue
        while queue and queue[0][0] <= drain_end:
            self.now, _, _, action, arg = heapq.heappop(queue)
            action(arg)
        self._check_agreement()
        return SimResult(
            canonical=self.nodes[0].store.canonical_chain(self.nodes[0].head),
            sealers=self.sealers,
            tallies=self.tallies,
            node_counters=[node.counters() for node in self.nodes],
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

"""Deterministic discrete-event simulation of a sealer network.

A single priority queue orders every event by ``(time, rank, seq)``;
``seq`` is assigned at scheduling, so two runs with the same seed replay
the exact same event sequence. One shared seeded generator is consumed in
event order, which makes determinism a consequence of the total event
order. The rank puts deliveries ahead of seal timers at equal timestamps:
a node always sees everything the network has already handed it before it
signs, so a round leader whose slot was frontrun cancels instead of
racing its own stale plan.

Network model: full-mesh broadcast among N sealer nodes with independent
uniform per-link delays and no message loss (partial synchrony: everything
is eventually delivered). Each node keeps its own chain store, mempool and
head; nodes share only the wire and the run's sealer-snapshot memo. Sharing
the memo is sound because a block hash commits to its parent hash and so
fixes the whole branch: every node that holds the block builds the same
snapshot at it.

Timestamps vs. firing: a header carries the protocol-claimed time
(parent + interval). Honest sealers only fire at or after the claim, but
the zero-delay attacker broadcasts immediately, so receivers hold any
block whose claim is still in the future and import it the instant its
claim time arrives. That buffered import is what lets a frontrunning block
beat the round leader's freshly sealed one at every peer.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field

from . import strategies
from .chain import (
    BlockHeader,
    ChainStore,
    DuplicateBlockError,
    hash_header,
    make_genesis,
)
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


@dataclass(frozen=True)
class BlockArrival:
    node: int
    header: BlockHeader


@dataclass(frozen=True)
class SealFire:
    node: int
    epoch: int


@dataclass(frozen=True)
class TxBatch:
    txs: range


@dataclass(frozen=True)
class RunEnd:
    pass


@dataclass
class SealerTally:
    """Per-sealer attempt and rejection bookkeeping for a run."""

    attempts: int = 0
    leader_attempts: int = 0
    rejections: dict[str, int] = field(default_factory=dict)

    def record_rejection(self, reason: str) -> None:
        self.rejections[reason] = self.rejections.get(reason, 0) + 1


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
        self.plan_epoch = 0
        # Blocks whose parent we have not seen yet, keyed by that parent.
        self.orphans: dict[bytes, list[BlockHeader]] = {}
        # Blocks whose claimed time is still in the future.
        self.future_pending: set[bytes] = set()
        self.seen: set[bytes] = set()
        self.arrivals = 0
        self.accepted = 0
        self.rejected = 0
        self.duplicates = 0

    # -- delivery ----------------------------------------------------------

    def deliver(self, header: BlockHeader) -> None:
        """Entry point for every block delivery, network or self.

        A buffered block re-enters here when its claimed time arrives;
        that re-entry is not a new arrival.
        """
        block_hash = hash_header(header)
        if block_hash in self.future_pending:
            if header.sim_time_ms <= self.sim.now:
                self.future_pending.discard(block_hash)
                self._admit(header, block_hash)
            else:
                self.arrivals += 1
                self.duplicates += 1
            return
        if block_hash in self.seen:
            self.arrivals += 1
            self.duplicates += 1
            return
        self.seen.add(block_hash)
        self.arrivals += 1
        self._admit(header, block_hash)

    def _admit(self, header: BlockHeader, block_hash: bytes) -> None:
        if header.sim_time_ms > self.sim.now:
            self.future_pending.add(block_hash)
            self.sim.schedule(header.sim_time_ms, BlockArrival(self.index, header))
            return
        if header.parent not in self.store:
            self.orphans.setdefault(header.parent, []).append(header)
            return
        reason = verify_header(header, self._snapshot_at(header.parent), self.flags)
        if reason is not None:
            self.rejected += 1
            self.sim.tallies[header.sealer_index].record_rejection(reason.value)
            if header.sealer_index == self.index:
                self.mempool.restore(header.tx_ids)
            return
        try:
            self.store.extend(header)
        except DuplicateBlockError:  # pragma: no cover - guarded by `seen`
            self.duplicates += 1
            return
        self.accepted += 1
        new_head = self.store.select_head()
        if new_head != self.head:
            self._move_head(new_head)
        for child in self.orphans.pop(block_hash, []):
            self._admit(child, hash_header(child))

    def _snapshot_at(self, block_hash: bytes) -> SealerSnapshot:
        """Snapshot of the recently-signed window on the branch ending at ``block_hash``.

        The run memoises one snapshot per block in ``Simulation.snapshots``,
        shared by all nodes: the hash fixes the whole branch, so whichever
        node builds the entry first, from its own store, builds the one every
        other node would.
        """
        snapshot = self.sim.snapshots.get(block_hash)
        if snapshot is None:
            depth = recents_window(len(self.sim.sealers)) - 1
            snapshot = snapshot_for_chain(self.sim.sealers, self.store.chain_tail(block_hash, depth))
            self.sim.snapshots[block_hash] = snapshot
        return snapshot

    def _move_head(self, new_head: bytes) -> None:
        abandoned, adopted = self.store.reorg(self.head, new_head)
        self.head = new_head
        self.mempool.on_canonical_update(abandoned, adopted)
        self.replan()

    # -- proposing ---------------------------------------------------------

    def replan(self) -> None:
        """Cancel any stale plan and schedule a fresh one on the current head."""
        head_header = self.store.header(self.head)
        ctx = ProposalContext(
            parent_number=head_header.number,
            parent_hash=self.head,
            parent_time_ms=head_header.sim_time_ms,
            snapshot=self._snapshot_at(self.head),
            now_ms=self.sim.now,
            block_interval_ms=self.sim.block_interval_ms,
        )
        plan = strategies.on_new_head(self.policy, ctx, self.index, self.pending, self.sim.rng)
        if plan is self.pending:
            return
        self.pending = plan
        self.plan_epoch += 1
        if plan.eligible:
            self.sim.schedule(plan.fire_at_ms, SealFire(self.index, self.plan_epoch))

    def seal(self, epoch: int) -> None:
        if self.pending is None or epoch != self.plan_epoch:
            return  # preempted by a newer head
        plan = self.pending
        self.pending = None
        tx_ids = self.mempool.pack_block(self.sim.tx_cap)
        header = BlockHeader(
            number=plan.height,
            parent=plan.parent,
            sealer_index=self.index,
            sealer_addr=self.sim.sealers[self.index],
            difficulty=plan.difficulty,
            sim_time_ms=plan.claim_ms,
            tx_ids=tx_ids,
        )
        tally = self.sim.tallies[self.index]
        tally.attempts += 1
        if self.index == leader_index(plan.height, len(self.sim.sealers)):
            tally.leader_attempts += 1
        self.sim.broadcast(self.index, header)
        self.deliver(header)

    def counters(self) -> dict[str, int]:
        return {
            "arrivals": self.arrivals,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "duplicates": self.duplicates,
            "orphans_pending": sum(len(v) for v in self.orphans.values()),
            "futures_pending": len(self.future_pending),
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
        if not (len(sealers) == len(policies) == len(flags)):
            raise ValueError("need one policy and one flag set per sealer")
        self.sealers = sealers
        self.block_interval_ms = block_interval_ms
        self.delay_model = delay_model
        self.rng = random.Random(seed)
        self.tx_cap = tx_cap
        self.now = 0
        self.t_end = 0
        self.running = True
        self._queue: list[tuple[int, int, int, object]] = []
        self._next_seq = 0
        self.tallies = [SealerTally() for _ in sealers]
        self.txs_generated = 0
        self.snapshots: dict[bytes, SealerSnapshot] = {}  # block hash -> snapshot at it
        genesis = make_genesis()
        self.nodes = [
            Node(self, i, policies[i], flags[i], genesis) for i in range(len(sealers))
        ]

    # -- scheduling --------------------------------------------------------

    def schedule(self, at_ms: int, payload: object) -> None:
        if at_ms < self.now:
            raise ValueError(f"event scheduled in the past: {at_ms} < {self.now}")
        if isinstance(payload, (BlockArrival, TxBatch)):
            rank = 0
        elif isinstance(payload, SealFire):
            rank = 1
        else:
            rank = 2
        heapq.heappush(self._queue, (at_ms, rank, self._next_seq, payload))
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
            self.schedule(self.now + delay, BlockArrival(peer.index, header))

    def schedule_tx_batches(self, batches: list[tuple[int, range]]) -> None:
        for at_ms, txs in batches:
            self.schedule(at_ms, TxBatch(txs))

    def start(self) -> None:
        """Install the first proposal plans (genesis is already everyone's head)."""
        for node in self.nodes:
            node.replan()

    # -- event loop --------------------------------------------------------

    def run_until(self, t_end_ms: int) -> SimResult:
        """Process events in (time, rank, seq) order until the drain window closes.

        Sealing stops at ``t_end_ms``; deliveries continue for a drain of
        twice the maximum link delay so in-flight blocks land before the
        report is built from node 0's canonical chain.
        """
        self.t_end = t_end_ms
        drain_end = t_end_ms + 2 * self.delay_model.max_ms
        self.schedule(drain_end, RunEnd())
        while self._queue and self.running:
            at_ms, _, _, payload = heapq.heappop(self._queue)
            self.now = at_ms
            self._dispatch(payload)
        self._check_agreement()
        return SimResult(
            canonical=self.nodes[0].store.canonical_chain(self.nodes[0].head),
            sealers=self.sealers,
            tallies=self.tallies,
            node_counters=[node.counters() for node in self.nodes],
            txs_generated=self.txs_generated,
        )

    def _dispatch(self, payload: object) -> None:
        if isinstance(payload, BlockArrival):
            self.nodes[payload.node].deliver(payload.header)
        elif isinstance(payload, SealFire):
            if self.now <= self.t_end:
                self.nodes[payload.node].seal(payload.epoch)
        elif isinstance(payload, TxBatch):
            # One tuple for all: every node's ledger then holds the same int
            # objects rather than one copy each.
            txs = tuple(payload.txs)
            self.txs_generated += len(txs)
            for node in self.nodes:
                node.mempool.add(txs)
        elif isinstance(payload, RunEnd):
            self.running = False
        else:  # pragma: no cover
            raise TypeError(f"unknown event payload: {payload!r}")

    def _check_agreement(self) -> None:
        heads_by_flags: dict[VerifyFlags, set[bytes]] = {}
        for node in self.nodes:
            heads_by_flags.setdefault(node.flags, set()).add(node.head)
        for flags, heads in heads_by_flags.items():
            if len(heads) > 1:
                raise NonConvergenceError(
                    f"nodes with flags {flags} ended on {len(heads)} different heads"
                )

"""Content-addressed block storage and heaviest-chain fork choice.

Blocks form a tree rooted at a genesis header. Every insertion is stamped
with a monotone arrival sequence number so fork-choice ties resolve to the
branch that was seen first, and cumulative difficulty is cached per block
so head selection never re-walks the tree. The heaviest tip is kept up to
date on every insert, and a head move walks only the two diverging
branches, so the work per block does not grow with the chain.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from operator import lt

HASH_SIZE = 32

# Parent pointer of the genesis header; never a real block hash.
NIL_PARENT = b"\x00" * HASH_SIZE

GENESIS_ADDRESS = "0x" + "0" * 40


class ChainError(Exception):
    """Base class for chain store failures."""


class UnknownParentError(ChainError):
    """Inserted header references a parent the store has never seen."""


class DuplicateBlockError(ChainError):
    """Header is already present; the insert is an idempotent no-op."""


class UnknownBlockError(ChainError):
    """Queried hash is not in the store."""


@dataclass(frozen=True)
class BlockHeader:
    """The unit of consensus: one sealed block.

    ``sim_time_ms`` is the protocol timestamp claimed by the sealer
    (parent time plus the configured block interval, or later); it is not
    necessarily the instant the block was physically broadcast.
    """

    number: int
    parent: bytes
    sealer_index: int
    sealer_addr: str
    difficulty: int
    sim_time_ms: int
    tx_ids: tuple[int, ...] = ()

    def is_genesis(self) -> bool:
        return self.number == 0 and self.parent == NIL_PARENT

    @cached_property
    def digest(self) -> bytes:
        """SHA-256 of the canonical encoding, computed once per header object."""
        encoding = "|".join(
            (
                str(self.number),
                self.parent.hex(),
                str(self.sealer_index),
                self.sealer_addr,
                str(self.difficulty),
                str(self.sim_time_ms),
                ",".join(map(str, self.tx_ids)),
            )
        )
        return hashlib.sha256(encoding.encode("ascii")).digest()

    @cached_property
    def tx_runs(self) -> tuple[tuple[int, int], ...]:
        """``tx_ids`` as runs of consecutive ids (``id_runs``), split once per header object."""
        return id_runs(self.tx_ids)


def id_runs(ids: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """The maximal runs of consecutive ids in ``ids``, as half-open ``(start, stop)`` pairs.

    Raises ``ValueError`` unless ``ids`` is strictly ascending, as a packed
    block's ids always are; that check is one pass in C. Within a run
    ``ids[i] - i`` is constant, and it grows from one run to the next, so
    the split is O(1) when the ids are consecutive and one binary search
    per run otherwise.
    """
    if not all(map(lt, ids, islice(ids, 1, None))):
        raise ValueError("tx ids must be strictly ascending")
    n = len(ids)
    if n and ids[-1] - ids[0] + 1 == n:
        return ((ids[0], ids[-1] + 1),)
    runs = []
    i = 0
    while i < n:
        j = bisect_right(range(n), ids[i] - i, i, n, key=lambda k: ids[k] - k)
        runs.append((ids[i], ids[j - 1] + 1))
        i = j
    return tuple(runs)


def make_genesis(sim_time_ms: int = 0) -> BlockHeader:
    return BlockHeader(
        number=0,
        parent=NIL_PARENT,
        sealer_index=0,
        sealer_addr=GENESIS_ADDRESS,
        difficulty=0,
        sim_time_ms=sim_time_ms,
        tx_ids=(),
    )


def hash_header(header: BlockHeader) -> bytes:
    """Digest of the canonical field-ordered encoding of a header.

    Deterministic, and any single-field change yields a different digest.
    No signatures are involved; identities in this simulator are honest
    labels, not keys. The digest is cached on the header, so a header object
    broadcast to every peer is encoded once.
    """
    return header.digest


@dataclass
class _Stored:
    header: BlockHeader
    arrival_seq: int
    total_difficulty: int


class ChainStore:
    """Tree of headers with first-received bookkeeping.

    The store never holds a parentless block: orphans are the caller's
    problem (the network layer buffers and re-delivers them once the
    parent lands).
    """

    def __init__(self, genesis: BlockHeader):
        if not genesis.is_genesis():
            raise ValueError("genesis header must have number 0 and a nil parent")
        if genesis.difficulty != 0 or genesis.tx_ids:
            raise ValueError("genesis carries difficulty 0 and no transactions")
        self.genesis = hash_header(genesis)
        self._blocks: dict[bytes, _Stored] = {
            self.genesis: _Stored(genesis, arrival_seq=0, total_difficulty=0)
        }
        # Leaves of the tree; insertion-ordered for deterministic scans.
        self._tips: dict[bytes, None] = {self.genesis: None}
        self._best = self.genesis
        self._next_seq = 1

    def __contains__(self, block_hash: bytes) -> bool:
        return block_hash in self._blocks

    def __len__(self) -> int:
        return len(self._blocks)

    def header(self, block_hash: bytes) -> BlockHeader:
        try:
            return self._blocks[block_hash].header
        except KeyError:
            raise UnknownBlockError(block_hash.hex()) from None

    def arrival_seq(self, block_hash: bytes) -> int:
        try:
            return self._blocks[block_hash].arrival_seq
        except KeyError:
            raise UnknownBlockError(block_hash.hex()) from None

    def extend(self, header: BlockHeader) -> bytes:
        """Insert ``header`` under its parent and return its hash."""
        block_hash = hash_header(header)
        if block_hash in self._blocks:
            raise DuplicateBlockError(block_hash.hex())
        parent = self._blocks.get(header.parent)
        if parent is None:
            raise UnknownParentError(header.parent.hex())
        if header.number != parent.header.number + 1:
            raise ChainError(
                f"block number {header.number} does not follow parent "
                f"{parent.header.number}"
            )
        stored = _Stored(
            header,
            arrival_seq=self._next_seq,
            total_difficulty=parent.total_difficulty + header.difficulty,
        )
        self._blocks[block_hash] = stored
        self._next_seq += 1
        self._tips.pop(header.parent, None)
        self._tips[block_hash] = None
        # The new block arrived last, so it loses every tie and takes the
        # lead only when strictly heavier than the best tip. A child of the
        # best tip that adds no difficulty retires that tip without beating
        # it: an earlier tip of equal weight may now win, so rescan.
        best = self._blocks[self._best].total_difficulty
        if stored.total_difficulty > best:
            self._best = block_hash
        elif header.parent == self._best:
            self._best = self._scan_tips()
        return block_hash

    def total_difficulty(self, tip: bytes) -> int:
        """Sum of difficulty over the path genesis -> tip."""
        try:
            return self._blocks[tip].total_difficulty
        except KeyError:
            raise UnknownBlockError(tip.hex()) from None

    def select_head(self) -> bytes:
        """Tip with maximal cumulative difficulty; first received wins ties."""
        return self._best

    def _scan_tips(self) -> bytes:
        def key(tip: bytes) -> tuple[int, int]:
            stored = self._blocks[tip]
            return stored.total_difficulty, -stored.arrival_seq

        return max(self._tips, key=key)

    def canonical_chain(self, head: bytes) -> list[BlockHeader]:
        """Headers from genesis to ``head``, ascending by number."""
        return self.chain_tail(head, self.header(head).number + 1)

    def chain_tail(self, head: bytes, depth: int) -> list[BlockHeader]:
        """The last ``depth`` headers of ``canonical_chain(head)``, ascending."""
        header = self.header(head)
        tail = [header]
        while len(tail) < depth and not header.is_genesis():
            header = self._blocks[header.parent].header
            tail.append(header)
        tail.reverse()
        return tail

    def reorg(
        self, old_head: bytes, new_head: bytes
    ) -> tuple[list[BlockHeader], list[BlockHeader]]:
        """Headers that leave and join the canonical chain when the head moves.

        Returns ``(abandoned, adopted)``: the parts of
        ``canonical_chain(old_head)`` and ``canonical_chain(new_head)``
        after their common ancestor, each ascending by number. The walk
        covers only those two branches.
        """
        old, new = self.header(old_head), self.header(new_head)
        abandoned: list[BlockHeader] = []
        adopted: list[BlockHeader] = []
        while old_head != new_head:
            if old.number >= new.number:
                abandoned.append(old)
                old_head = old.parent
                old = self._blocks[old_head].header
            else:
                adopted.append(new)
                new_head = new.parent
                new = self._blocks[new_head].header
        abandoned.reverse()
        adopted.reverse()
        return abandoned, adopted

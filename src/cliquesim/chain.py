"""Content-addressed block storage and heaviest-chain fork choice.

Blocks form a tree rooted at a genesis header. The store keeps its tips in
insertion order, so fork-choice ties resolve to the branch that was seen
first, and cumulative difficulty is cached per block so head selection
never re-walks the tree. The heaviest tip is kept up to date on every
insert, and a head move walks only the two diverging branches, so the
work per block does not grow with the chain. A header's digest, the hash
the store keys it by, is computed once when the header is built.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from math import inf

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


@dataclass(slots=True)
class BlockHeader:
    """The unit of consensus: one sealed block.

    ``sim_time_ms`` is the protocol timestamp claimed by the sealer
    (parent time plus the configured block interval, or later); it is not
    necessarily the instant the block was physically broadcast.

    ``tx_runs`` holds the block's tx ids as half-open ``(start, stop)``
    runs that are non-empty, ascending and non-touching, so one id set has
    exactly one encoding and the header's work does not grow with its ids.

    ``tx_count`` and ``digest`` are computed once, when the header is built
    (``dataclasses.replace`` builds a new one). The digest is the SHA-256 of
    ``number|parent hex|sealer_index|sealer_addr|difficulty|sim_time_ms|runs``,
    where ``runs`` is ``start:stop`` per run, comma-separated.

    Nothing assigns to a header after building it, and it hashes as its
    digest. It is not frozen: a frozen build sets each field through
    ``object.__setattr__``, one call per field.
    """

    number: int
    parent: bytes
    sealer_index: int
    sealer_addr: str
    difficulty: int
    sim_time_ms: int
    tx_runs: tuple[tuple[int, int], ...] = ()
    tx_count: int = field(init=False, compare=False, repr=False)
    digest: bytes = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        last_stop = -inf
        tx_count = 0
        runs = []
        for start, stop in self.tx_runs:
            if not last_stop < start < stop:
                raise ValueError("tx runs must be non-empty, ascending and non-touching")
            last_stop = stop
            tx_count += stop - start
            runs.append(f"{start}:{stop}")
        encoding = (
            f"{self.number}|{self.parent.hex()}|{self.sealer_index}|{self.sealer_addr}|"
            f"{self.difficulty}|{self.sim_time_ms}|{','.join(runs)}"
        )
        self.tx_count = tx_count
        self.digest = hashlib.sha256(encoding.encode("ascii")).digest()

    def __hash__(self) -> int:
        return hash(self.digest)

    def is_genesis(self) -> bool:
        return self.number == 0 and self.parent == NIL_PARENT

    @property
    def tx_ids(self) -> tuple[int, ...]:
        """The ids of ``tx_runs``, ascending, expanded on every read.

        The simulator reads only the runs. This view exists for checkers
        that compare id sets, such as the tx-conservation tests and the
        benchmark's output checks.
        """
        return tuple(itertools.chain.from_iterable(itertools.starmap(range, self.tx_runs)))


def make_genesis() -> BlockHeader:
    return BlockHeader(
        number=0,
        parent=NIL_PARENT,
        sealer_index=0,
        sealer_addr=GENESIS_ADDRESS,
        difficulty=0,
        sim_time_ms=0,
    )


# The one genesis header every store is rooted at; its digest is computed once.
GENESIS = make_genesis()


def hash_header(header: BlockHeader) -> bytes:
    """Digest of the canonical field-ordered encoding of a header.

    Deterministic, and any single-field change yields a different digest.
    No signatures are involved; identities in this simulator are honest
    labels, not keys. The digest is computed once when the header is built,
    so a header object broadcast to every peer is encoded once.
    """
    return header.digest


class ChainStore:
    """Tree of headers with first-received bookkeeping.

    The store never holds a parentless block: orphans are the caller's
    problem (the network layer buffers and re-delivers them once the
    parent lands). Every store is rooted at ``GENESIS``.
    """

    def __init__(self):
        self.genesis = hash_header(GENESIS)
        self._headers: dict[bytes, BlockHeader] = {self.genesis: GENESIS}
        self._td: dict[bytes, int] = {self.genesis: 0}  # hash -> total difficulty
        # Leaves of the tree in arrival order: a block becomes a tip when it
        # arrives and is never one again once it has a child.
        self._tips: dict[bytes, None] = {self.genesis: None}
        self._best = self.genesis

    def __contains__(self, block_hash: bytes) -> bool:
        return block_hash in self._headers

    def __len__(self) -> int:
        return len(self._headers)

    def header(self, block_hash: bytes) -> BlockHeader:
        try:
            return self._headers[block_hash]
        except KeyError:
            raise UnknownBlockError(block_hash.hex()) from None

    def extend(self, header: BlockHeader) -> bytes:
        """Insert ``header`` under its parent and return its hash, the header's digest."""
        block_hash = header.digest
        if block_hash in self._headers:
            raise DuplicateBlockError(block_hash.hex())
        parent = self._headers.get(header.parent)
        if parent is None:
            raise UnknownParentError(header.parent.hex())
        if header.number != parent.number + 1:
            raise ChainError(
                f"block number {header.number} does not follow parent {parent.number}"
            )
        total_difficulty = self._td[header.parent] + header.difficulty
        self._headers[block_hash] = header
        self._td[block_hash] = total_difficulty
        self._tips.pop(header.parent, None)
        self._tips[block_hash] = None
        # The new block arrived last, so it loses every tie and takes the
        # lead only when strictly heavier than the best tip. A child of the
        # best tip that adds no difficulty retires that tip without beating
        # it: an earlier tip of equal weight may now win, so rescan.
        if total_difficulty > self._td[self._best]:
            self._best = block_hash
        elif header.parent == self._best:
            self._best = self._scan_tips()
        return block_hash

    def total_difficulty(self, tip: bytes) -> int:
        """Sum of difficulty over the path genesis -> tip."""
        try:
            return self._td[tip]
        except KeyError:
            raise UnknownBlockError(tip.hex()) from None

    def select_head(self) -> bytes:
        """Tip with maximal cumulative difficulty; first received wins ties."""
        return self._best

    def _scan_tips(self) -> bytes:
        # ``max`` keeps the first of equal keys, and the tips are in arrival order.
        return max(self._tips, key=self._td.__getitem__)

    def canonical_chain(self, head: bytes) -> list[BlockHeader]:
        """Headers from genesis to ``head``, ascending by number."""
        header = self.header(head)
        chain = [header]
        for _ in range(header.number):  # a header numbered n has n ancestors
            header = self._headers[header.parent]
            chain.append(header)
        chain.reverse()
        return chain

    def reorg(
        self, old_head: bytes, new_head: bytes
    ) -> tuple[list[BlockHeader], list[BlockHeader]]:
        """Headers that leave and join the canonical chain when the head moves.

        Returns ``(abandoned, adopted)``: the parts of
        ``canonical_chain(old_head)`` and ``canonical_chain(new_head)``
        after their common ancestor, each ascending by number. The walk
        covers only those two branches.
        """
        new = self.header(new_head)
        old = self.header(old_head)
        abandoned: list[BlockHeader] = []
        adopted: list[BlockHeader] = []
        while old_head != new_head:
            if old.number >= new.number:
                abandoned.append(old)
                old_head = old.parent
                old = self._headers[old_head]
            else:
                adopted.append(new)
                new_head = new.parent
                new = self._headers[new_head]
        abandoned.reverse()
        adopted.reverse()
        return abandoned, adopted

"""Pure Clique-style consensus rules.

Leader selection, difficulty assignment, the wiggle delay for non-leader
sealing, the recently-signed window, and the three-check verification
pipeline. Every operation here is a pure function. A sealer snapshot is
the sealer count plus the set of sealers that signed recently:
``snapshot_for_chain`` applies the window to a chain's last headers once,
and every later check is a membership test. A snapshot carries the
headers it read, so the snapshot at a child is built from its parent's
and the child header alone, as EIP-225 defines it. The per-check enable
flags let a run model either the hardened verifier (all three checks) or
the flawed variant that only bounds the difficulty value.
"""

from __future__ import annotations

import enum
import random
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

from .chain import BlockHeader

WIGGLE_STEP_MS = 500


def leader_index(next_number: int, n_sealers: int) -> int:
    """Index of the in-turn sealer for block ``next_number``.

    Rotation is round-robin over the ordered sealer set.
    """
    if n_sealers < 1:
        raise ValueError("sealer set must be non-empty")
    return next_number % n_sealers


def recents_window(n_sealers: int) -> int:
    """Width of the recently-signed window: floor(N/2) + 1."""
    return n_sealers // 2 + 1


def uniform_draws(rng: random.Random, low: int, high: int) -> Iterator[int]:
    """Endless uniform draws from [low, high]; the run's only way to draw an integer.

    Each ``next`` returns the value ``rng.randint(low, high)`` would and
    leaves ``rng`` in the same state, because it runs CPython's own loop for
    it (``Random._randbelow_with_getrandbits``): redraw ``k`` bits until the
    draw falls below the width ``n``. It draws only when asked, so streams
    sharing one ``rng`` consume it in the order they are asked. An empty
    range raises here, not at the first draw.
    """
    n = high - low + 1
    if n < 1:
        raise ValueError(f"empty range [{low}, {high}]")

    def draws() -> Iterator[int]:
        getrandbits, k = rng.getrandbits, n.bit_length()
        while True:
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            yield low + r

    return draws()


def wiggle_draws(n_sealers: int, rng: random.Random) -> Iterator[int]:
    """Random extra delays for a non-leader, uniform over [0, (N//2+1)*500] ms."""
    return uniform_draws(rng, 0, recents_window(n_sealers) * WIGGLE_STEP_MS)


@dataclass(slots=True)
class SealerSnapshot:
    """Sealer count plus the sealers the recently-signed window bars.

    ``recent`` holds the indices of the sealers of the last W - 1 blocks up
    to and including the snapshot's block (W = floor(N/2)+1). A sealer that
    signed block ``s`` is in it at ``s .. s+W-2`` and so may not sign
    ``s+1 .. s+W-1``; it is free again at ``s+W``. ``snapshot_for_chain``
    is the one place that applies the window.

    ``tail`` holds those last W - 1 headers, oldest first: the snapshot at
    the next block is ``snapshot_for_chain(n_sealers, tail + (next,))``.
    It is not part of the snapshot's value, so two snapshots with the same
    count and recent signers compare and hash equal. Like a header, a
    snapshot is a value that nothing assigns to after building it.
    """

    n_sealers: int
    recent: frozenset[int] = frozenset()
    tail: tuple[BlockHeader, ...] = field(default=(), compare=False, repr=False)

    def __hash__(self) -> int:
        return hash((self.n_sealers, self.recent))


def signed_recently(snapshot: SealerSnapshot, sealer_index: int) -> bool:
    """Whether ``sealer_index`` may not sign the block after ``snapshot``'s."""
    return sealer_index in snapshot.recent


def snapshot_for_chain(n_sealers: int, headers: Sequence[BlockHeader]) -> SealerSnapshot:
    """Snapshot as of the last header of a canonical sequence (genesis first).

    Only the last W - 1 headers matter, so a caller may pass just those,
    such as a parent snapshot's ``tail`` plus the child header. In a
    canonical sequence only genesis is numbered 0, and it has no signer.
    """
    kept = recents_window(n_sealers) - 1
    tail = tuple(headers[max(len(headers) - kept, 0):])
    recent = frozenset([header.sealer_index for header in tail if header.number])
    return SealerSnapshot(n_sealers, recent, tail)


@dataclass(frozen=True)
class VerifyFlags:
    """Which of the three verification checks a node enforces."""

    check_recently_signed: bool
    check_difficulty_domain: bool
    check_inturn_identity: bool


# All three checks on: the hardened verifier.
FIXED = VerifyFlags(True, True, True)

# Only the difficulty-domain check on: the flawed variant that lets a
# non-leader claim difficulty 2 and sign without waiting out the window.
VULNERABLE = VerifyFlags(False, True, False)

PRESETS = {"fixed": FIXED, "vulnerable": VULNERABLE}


class RejectReason(enum.Enum):
    RECENTLY_SIGNED = "recently_signed"
    INVALID_DIFFICULTY = "invalid_difficulty"
    WRONG_TURN_DIFFICULTY = "wrong_turn_difficulty"


def verify_header(
    header: BlockHeader, snapshot: SealerSnapshot, flags: VerifyFlags
) -> RejectReason | None:
    """Run the enabled checks against ``header``; None means accept.

    ``snapshot`` must be the sealer snapshot as of the header's parent.
    Checks run in a fixed order; the reported reason is the first enabled
    check that fails:

    1. recently signed: the sealer must not be one of the snapshot's recent signers;
    2. difficulty domain: difficulty must be 1 or 2;
    3. in-turn identity: difficulty 2 if and only if the sealer is the
       round's leader.
    """
    if flags.check_recently_signed:
        if signed_recently(snapshot, header.sealer_index):
            return RejectReason.RECENTLY_SIGNED
    if flags.check_difficulty_domain:
        if header.difficulty not in (1, 2):
            return RejectReason.INVALID_DIFFICULTY
    if flags.check_inturn_identity:
        in_turn = header.sealer_index == leader_index(header.number, snapshot.n_sealers)
        if (header.difficulty == 2) != in_turn:
            return RejectReason.WRONG_TURN_DIFFICULTY
    return None

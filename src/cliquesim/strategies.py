"""Sealer policy: which protocol constraints a sealer drops.

The honest client (``HONEST``) respects the recently-signed window,
claims the difficulty the rotation assigns, and holds every block until
its protocol timestamp (plus a random wiggle when out of turn). The
frontrunner (``FRONTRUNNER``) is the same client with those three local
constraints removed: it claims difficulty 2 (settable to an invalid
value such as 9), broadcasts with zero delay, and ignores the
recently-signed window. It still chains off whatever head its own fork
choice reports; it frontruns leadership, not consistency. A new
deviation is one new field, whose default is honest, and its value in
``FRONTRUNNER``.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace
from typing import NamedTuple

from .chain import BlockHeader
from .engine import SealerSnapshot, leader_index, signed_recently


@dataclass(frozen=True)
class SealerPolicy:
    """The protocol constraints a sealer drops; all defaults mean honest."""

    forced_difficulty: int | None = None
    zero_delay: bool = False
    bypass_recents: bool = False

    @property
    def deviates(self) -> bool:
        """Whether any constraint is dropped; reports label such a sealer malicious."""
        return self != HONEST

    @staticmethod
    def malicious(**kept: object) -> "SealerPolicy":
        """``FRONTRUNNER`` with each field named in ``kept`` set as given: a field set
        to its ``HONEST`` value keeps that constraint. Unknown names raise ``TypeError``."""
        return replace(FRONTRUNNER, **kept)


HONEST = SealerPolicy()
FRONTRUNNER = SealerPolicy(2, True, True)


class ProposalPlan(NamedTuple):
    """One scheduled sealing attempt, a plain tuple made on every head move.

    ``claim_ms`` is the protocol timestamp the block will carry;
    ``fire_at_ms`` is when the sealer actually signs and broadcasts. An
    honest sealer never fires before the claim; the zero-delay attacker
    fires immediately and lets the network sit on the block until its
    claim time. ``in_turn`` says whether the sealer leads the round at
    ``height``.
    """

    height: int
    parent: bytes
    difficulty: int
    claim_ms: int
    fire_at_ms: int
    eligible: bool
    in_turn: bool


def plan_proposal(
    policy: SealerPolicy,
    parent: BlockHeader,
    snapshot: SealerSnapshot,
    now_ms: int,
    block_interval_ms: int,
    self_index: int,
    wiggles: Iterator[int],
) -> ProposalPlan:
    """Plan the next block on top of ``parent`` under ``policy``.

    ``snapshot`` is the sealer snapshot at ``parent``. The block claims the
    parent's time plus the interval, never earlier than ``now_ms``,
    mirroring clients that bump a stale target to the current clock.

    Each deviation overrides one field of the honest plan: a forced
    difficulty replaces the rotation's, zero delay fires at ``now``, and
    bypassing the recents window makes the plan eligible. Only a waiting
    sealer that is not the round leader takes the next of ``wiggles``.
    """
    height = parent.number + 1
    claim = parent.sim_time_ms + block_interval_ms
    if claim < now_ms:
        claim = now_ms
    in_turn = self_index == leader_index(height, snapshot.n_sealers)
    if policy.forced_difficulty is not None:
        difficulty = policy.forced_difficulty
    else:
        difficulty = 2 if in_turn else 1
    if policy.zero_delay:
        fire_at = now_ms
    elif in_turn:
        fire_at = claim
    else:
        fire_at = claim + next(wiggles)
    eligible = policy.bypass_recents or not signed_recently(snapshot, self_index)
    # ``tuple.__new__`` skips the Python-level ``__new__`` a NamedTuple call runs.
    return tuple.__new__(
        ProposalPlan, (height, parent.digest, difficulty, claim, fire_at, eligible, in_turn)
    )


# ``perfbench/tracing.py`` finds the planning layer under this name; the
# change to the benchmark that renames that layer deletes this alias.
on_new_head = plan_proposal

"""Sealer policy: which protocol constraints a sealer drops.

The honest client respects the recently-signed window, claims the
difficulty the rotation assigns, and holds every block until its
protocol timestamp (plus a random wiggle when out of turn). The
frontrunner is the same client with those three local constraints
removed: it claims a fixed difficulty (2 by default, settable to an
invalid value such as 9), broadcasts with zero delay, and ignores the
recently-signed window. It still chains off whatever head its own fork
choice reports; it frontruns leadership, not consistency.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import NamedTuple

from .engine import (
    ProposalContext,
    difficulty_for,
    leader_index,
    signed_recently,
    wiggle_delay,
)


@dataclass(frozen=True)
class SealerPolicy:
    """The protocol constraints a sealer drops; all defaults mean honest."""

    forced_difficulty: int | None = None
    zero_delay: bool = False
    bypass_recents: bool = False

    @property
    def deviates(self) -> bool:
        """Whether any constraint is dropped; reports label such a sealer malicious."""
        return self.forced_difficulty is not None or self.zero_delay or self.bypass_recents

    @classmethod
    def honest(cls) -> "SealerPolicy":
        return cls()

    @classmethod
    def malicious(
        cls,
        forced_difficulty: int = 2,
        zero_delay: bool = True,
        bypass_recents: bool = True,
    ) -> "SealerPolicy":
        """The frontrunner; an argument set to its honest value keeps that constraint."""
        return cls(forced_difficulty, zero_delay, bypass_recents)


class ProposalPlan(NamedTuple):
    """One scheduled sealing attempt, a plain tuple made on every head move.

    ``claim_ms`` is the protocol timestamp the block will carry;
    ``fire_at_ms`` is when the sealer actually signs and broadcasts. An
    honest sealer never fires before the claim; the zero-delay attacker
    fires immediately and lets the network sit on the block until its
    claim time.
    """

    height: int
    parent: bytes
    difficulty: int
    claim_ms: int
    fire_at_ms: int
    eligible: bool


def plan_proposal(
    policy: SealerPolicy,
    ctx: ProposalContext,
    self_index: int,
    rng: random.Random,
) -> ProposalPlan:
    """Plan the next block on top of ``ctx``'s parent under ``policy``.

    Each deviation overrides one field of the honest plan: a forced
    difficulty replaces the rotation's, zero delay fires at ``now``, and
    bypassing the recents window makes the plan eligible. The wiggle is
    drawn only for a waiting sealer that is not the round leader.
    """
    n_sealers = ctx.snapshot.n_sealers
    height = ctx.next_number
    claim = ctx.next_claim_ms
    if policy.forced_difficulty is not None:
        difficulty = policy.forced_difficulty
    else:
        difficulty = difficulty_for(self_index, height, n_sealers)
    if policy.zero_delay:
        fire_at = ctx.now_ms
    elif self_index == leader_index(height, n_sealers):
        fire_at = claim
    else:
        fire_at = claim + wiggle_delay(n_sealers, rng)
    eligible = policy.bypass_recents or not signed_recently(ctx.snapshot, self_index)
    return ProposalPlan(height, ctx.parent_hash, difficulty, claim, fire_at, eligible)


# ``perfbench/tracing.py`` finds the planning layer under this name; the
# change to the benchmark that renames that layer deletes this alias.
on_new_head = plan_proposal

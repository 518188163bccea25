import itertools
import random

import pytest

from cliquesim import (
    FIXED,
    BlockHeader,
    ProposalContext,
    ProposalPlan,
    SealerPolicy,
    SealerSnapshot,
    VULNERABLE,
    make_genesis,
    plan_proposal,
    snapshot_for_chain,
    verify_header,
)


def make_ctx(parent_number=0, now_ms=0, recent=(), n=5, parent_time=None):
    snap = SealerSnapshot(n, frozenset(recent))
    return ProposalContext(
        parent_number=parent_number,
        parent_hash=b"\xaa" * 32,
        parent_time_ms=parent_time if parent_time is not None else parent_number * 5000,
        snapshot=snap,
        now_ms=now_ms,
        block_interval_ms=5000,
    )


def header_from_plan(plan, sealer_index):
    return BlockHeader(
        number=plan.height,
        parent=plan.parent,
        sealer_index=sealer_index,
        sealer_addr=f"0x{sealer_index:040x}",
        difficulty=plan.difficulty,
        sim_time_ms=plan.claim_ms,
    )


def test_honest_leader_plan():
    # leader for height 1 is sealer 1; parent sealed at t=0
    plan = plan_proposal(SealerPolicy(), make_ctx(), 1, random.Random(0))
    assert plan.difficulty == 2
    assert plan.fire_at_ms == 5000
    assert plan.claim_ms == 5000
    assert plan.eligible is True
    assert plan.height == 1
    assert plan.parent == b"\xaa" * 32


def test_honest_non_leader_plan_has_wiggle():
    rng = random.Random(3)
    fires = set()
    for _ in range(200):
        plan = plan_proposal(SealerPolicy(), make_ctx(), 3, rng)
        assert plan.difficulty == 1
        assert 5000 <= plan.fire_at_ms <= 6500
        fires.add(plan.fire_at_ms)
    assert len(fires) > 50  # wiggle actually varies


def test_honest_ineligible_when_recently_signed():
    ctx = make_ctx(parent_number=10, recent={3})
    plan = plan_proposal(SealerPolicy(), ctx, 3, random.Random(0))
    assert plan.eligible is False


def test_malicious_default_plan_fires_immediately():
    ctx = make_ctx(parent_number=0, now_ms=42)
    plan = plan_proposal(SealerPolicy.malicious(), ctx, 3, random.Random(0))
    assert plan.difficulty == 2
    assert plan.fire_at_ms == 42
    assert plan.eligible is True
    assert plan.claim_ms == 5000  # the protocol timestamp is not falsifiable


def test_malicious_bypasses_recents():
    ctx = make_ctx(parent_number=10, recent={3})
    plan = plan_proposal(SealerPolicy.malicious(), ctx, 3, random.Random(0))
    assert plan.eligible is True
    honest = plan_proposal(
        SealerPolicy(forced_difficulty=2, zero_delay=True, bypass_recents=False),
        ctx, 3, random.Random(0),
    )
    assert honest.eligible is False


def test_malicious_without_zero_delay_follows_honest_schedule():
    policy = SealerPolicy(forced_difficulty=2, zero_delay=False, bypass_recents=True)
    plan = plan_proposal(policy, make_ctx(now_ms=1), 3, random.Random(5))
    assert 5000 <= plan.fire_at_ms <= 6500


def test_malicious_fire_never_later_than_honest():
    for seed in range(30):
        ctx = make_ctx(now_ms=7)
        attacker = plan_proposal(SealerPolicy.malicious(), ctx, 2, random.Random(seed))
        for honest_index in (0, 1, 3, 4):
            honest = plan_proposal(
                SealerPolicy(), ctx, honest_index, random.Random(seed)
            )
            assert attacker.fire_at_ms <= honest.fire_at_ms


def test_forced_difficulty_nine_rejected_under_both_presets():
    ctx = make_ctx()
    policy = SealerPolicy.malicious(forced_difficulty=9)
    plan = plan_proposal(policy, ctx, 3, random.Random(0))
    header = header_from_plan(plan, 3)
    for flags in (FIXED, VULNERABLE):
        assert verify_header(header, ctx.snapshot, flags) is not None


def test_honest_plans_pass_fixed_verification():
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(1, 9)
        parent_number = rng.randrange(50)
        recent = {rng.randrange(n) for _ in range(min(rng.randrange(3), parent_number))}
        ctx = make_ctx(parent_number=parent_number, recent=recent, n=n)
        sealer = rng.randrange(n)
        plan = plan_proposal(SealerPolicy(), ctx, sealer, rng)
        if not plan.eligible:
            continue
        header = header_from_plan(plan, sealer)
        assert verify_header(header, ctx.snapshot, FIXED) is None


def test_plan_fire_never_in_the_past():
    rng = random.Random(23)
    for _ in range(200):
        now = rng.randrange(100_000)
        ctx = make_ctx(parent_number=rng.randrange(10), now_ms=now)
        policy = rng.choice((SealerPolicy(), SealerPolicy.malicious()))
        plan = plan_proposal(policy, ctx, rng.randrange(5), rng)
        assert plan.fire_at_ms >= now


def reference_plan(policy, ctx, sealer, rng, history):
    """Oracle: the honest plan, then each deviation overriding its own field.

    Built from the Clique rules directly, not from the engine: eligibility
    scans ``history``, the ``(number, sealer)`` pairs of the parent's chain.
    The wiggle is drawn only when the sealer waits and is not the round
    leader.
    """
    n = ctx.snapshot.n_sealers
    height = ctx.next_number
    window = n // 2 + 1
    in_turn = sealer == height % n
    plan = ProposalPlan(
        height=height,
        parent=ctx.parent_hash,
        difficulty=2 if in_turn else 1,
        claim_ms=ctx.next_claim_ms,
        fire_at_ms=ctx.next_claim_ms,
        eligible=not any(
            signer == sealer and height - window < number < height
            for number, signer in history
        ),
    )
    if policy.forced_difficulty is not None:
        plan = plan._replace(difficulty=policy.forced_difficulty)
    if policy.zero_delay:
        plan = plan._replace(fire_at_ms=ctx.now_ms)
    elif not in_turn:
        plan = plan._replace(fire_at_ms=plan.claim_ms + rng.randint(0, window * 500))
    if policy.bypass_recents:
        plan = plan._replace(eligible=True)
    return plan


ALL_POLICIES = [
    SealerPolicy(forced, zero_delay, bypass)
    for forced, zero_delay, bypass in itertools.product(
        (None, 0, 2, 9), (False, True), (False, True)
    )
]


@pytest.mark.parametrize("policy", ALL_POLICIES, ids=repr)
def test_plan_matches_honest_plan_with_overrides(policy):
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(1, 9)
        parent_number = rng.randrange(40)
        history = [(number, rng.randrange(n)) for number in range(1, parent_number + 1)]
        chain = [make_genesis()] + [
            BlockHeader(
                number=number,
                parent=b"\x00" * 32,
                sealer_index=signer,
                sealer_addr=f"0x{signer:040x}",
                difficulty=1,
                sim_time_ms=number * 5000,
            )
            for number, signer in history
        ]
        parent_time = parent_number * 5000 + rng.randrange(3000)
        ctx = make_ctx(
            parent_number=parent_number,
            now_ms=parent_time + rng.choice((0, rng.randrange(12_000))),
            n=n,
            parent_time=parent_time,
        )._replace(snapshot=snapshot_for_chain(n, chain))
        sealer = rng.randrange(n)
        seed = rng.randrange(2**32)
        actual_rng, expected_rng = random.Random(seed), random.Random(seed)
        actual = plan_proposal(policy, ctx, sealer, actual_rng)
        assert actual == reference_plan(policy, ctx, sealer, expected_rng, history)
        assert actual_rng.getstate() == expected_rng.getstate()


def test_deviates_means_any_constraint_dropped():
    assert [policy.deviates for policy in ALL_POLICIES] == [False] + [True] * 15
    assert SealerPolicy() == ALL_POLICIES[0]
    assert SealerPolicy.malicious() == SealerPolicy(2, True, True)

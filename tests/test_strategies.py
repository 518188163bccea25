import dataclasses
import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cliquesim import (
    FIXED,
    FRONTRUNNER,
    HONEST,
    BlockHeader,
    ProposalPlan,
    SealerPolicy,
    SealerSnapshot,
    VULNERABLE,
    make_genesis,
    plan_proposal,
    preset_config,
    snapshot_for_chain,
    verify_header,
    wiggle_draws,
)


INTERVAL_MS = 5000


def make_parent(number=0, time_ms=None):
    """A parent header; planning reads its number and its time."""
    return BlockHeader(
        number=number,
        parent=b"\xbb" * 32,
        sealer_index=0,
        sealer_addr=f"0x{0:040x}",
        difficulty=1,
        sim_time_ms=time_ms if time_ms is not None else number * INTERVAL_MS,
    )


def make_snapshot(recent=(), n=5):
    return SealerSnapshot(n, frozenset(recent))


def plan_on(policy, sealer, rng, parent=None, snapshot=None, now_ms=0):
    """``plan_proposal`` on ``parent`` (default: genesis time, number 0),
    with wiggles drawn from ``rng`` for the snapshot's sealer count."""
    snapshot = snapshot if snapshot is not None else make_snapshot()
    return plan_proposal(
        policy,
        parent if parent is not None else make_parent(),
        snapshot,
        now_ms,
        INTERVAL_MS,
        sealer,
        wiggle_draws(snapshot.n_sealers, rng),
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
    plan = plan_on(SealerPolicy(), 1, random.Random(0))
    assert plan.difficulty == 2
    assert plan.fire_at_ms == 5000
    assert plan.claim_ms == 5000
    assert plan.eligible is True
    assert plan.height == 1
    assert plan.parent == make_parent().digest


def test_honest_non_leader_plan_has_wiggle():
    rng = random.Random(3)
    fires = set()
    for _ in range(200):
        plan = plan_on(SealerPolicy(), 3, rng)
        assert plan.difficulty == 1
        assert 5000 <= plan.fire_at_ms <= 6500
        fires.add(plan.fire_at_ms)
    assert len(fires) > 50  # wiggle actually varies


def test_honest_ineligible_when_recently_signed():
    plan = plan_on(SealerPolicy(), 3, random.Random(0), make_parent(10), make_snapshot({3}))
    assert plan.eligible is False


def test_malicious_default_plan_fires_immediately():
    plan = plan_on(SealerPolicy.malicious(), 3, random.Random(0), now_ms=42)
    assert plan.difficulty == 2
    assert plan.fire_at_ms == 42
    assert plan.eligible is True
    assert plan.claim_ms == 5000  # the protocol timestamp is not falsifiable


def test_malicious_bypasses_recents():
    parent, snapshot = make_parent(10), make_snapshot({3})
    plan = plan_on(SealerPolicy.malicious(), 3, random.Random(0), parent, snapshot)
    assert plan.eligible is True
    honest = plan_on(
        SealerPolicy(forced_difficulty=2, zero_delay=True, bypass_recents=False),
        3, random.Random(0), parent, snapshot,
    )
    assert honest.eligible is False


def test_malicious_without_zero_delay_follows_honest_schedule():
    policy = SealerPolicy(forced_difficulty=2, zero_delay=False, bypass_recents=True)
    plan = plan_on(policy, 3, random.Random(5), now_ms=1)
    assert 5000 <= plan.fire_at_ms <= 6500


def test_malicious_fire_never_later_than_honest():
    for seed in range(30):
        attacker = plan_on(SealerPolicy.malicious(), 2, random.Random(seed), now_ms=7)
        for honest_index in (0, 1, 3, 4):
            honest = plan_on(SealerPolicy(), honest_index, random.Random(seed), now_ms=7)
            assert attacker.fire_at_ms <= honest.fire_at_ms


def test_forced_difficulty_nine_rejected_under_both_presets():
    snapshot = make_snapshot()
    policy = SealerPolicy.malicious(forced_difficulty=9)
    plan = plan_on(policy, 3, random.Random(0), snapshot=snapshot)
    header = header_from_plan(plan, 3)
    for flags in (FIXED, VULNERABLE):
        assert verify_header(header, snapshot, flags) is not None


def test_honest_plans_pass_fixed_verification():
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(1, 9)
        parent_number = rng.randrange(50)
        recent = {rng.randrange(n) for _ in range(min(rng.randrange(3), parent_number))}
        snapshot = make_snapshot(recent, n)
        sealer = rng.randrange(n)
        plan = plan_on(SealerPolicy(), sealer, rng, make_parent(parent_number), snapshot)
        if not plan.eligible:
            continue
        header = header_from_plan(plan, sealer)
        assert verify_header(header, snapshot, FIXED) is None


def test_plan_fire_never_in_the_past():
    rng = random.Random(23)
    for _ in range(200):
        now = rng.randrange(100_000)
        parent = make_parent(rng.randrange(10))
        policy = rng.choice((SealerPolicy(), SealerPolicy.malicious()))
        plan = plan_on(policy, rng.randrange(5), rng, parent, now_ms=now)
        assert plan.fire_at_ms >= now


def test_stale_claim_is_bumped_to_now():
    # The parent sealed at 5000 ms, so the next claim is due at 10000 ms.
    parent = make_parent(1)
    on_time = plan_on(SealerPolicy(), 2, random.Random(0), parent, now_ms=9_999)
    assert on_time.claim_ms == on_time.fire_at_ms == 10_000
    for now in (10_000, 10_001, 42_000):
        leader = plan_on(SealerPolicy(), 2, random.Random(0), parent, now_ms=now)
        assert leader.claim_ms == leader.fire_at_ms == now
        other = plan_on(SealerPolicy(), 3, random.Random(0), parent, now_ms=now)
        assert other.claim_ms == now <= other.fire_at_ms <= now + 1500
        attacker = plan_on(SealerPolicy.malicious(), 3, random.Random(0), parent, now_ms=now)
        assert attacker.claim_ms == attacker.fire_at_ms == now


def reference_plan(policy, parent, snapshot, now_ms, sealer, rng, history):
    """Oracle: the honest plan, then each deviation overriding its own field.

    Built from the Clique rules directly, not from the engine: eligibility
    scans ``history``, the ``(number, sealer)`` pairs of the parent's chain.
    The wiggle is drawn only when the sealer waits and is not the round
    leader.
    """
    n = snapshot.n_sealers
    height = parent.number + 1
    window = n // 2 + 1
    in_turn = sealer == height % n
    claim = max(parent.sim_time_ms + INTERVAL_MS, now_ms)
    plan = ProposalPlan(
        height=height,
        parent=parent.digest,
        difficulty=2 if in_turn else 1,
        claim_ms=claim,
        fire_at_ms=claim,
        eligible=not any(
            signer == sealer and height - window < number < height
            for number, signer in history
        ),
        in_turn=in_turn,
    )
    if policy.forced_difficulty is not None:
        plan = plan._replace(difficulty=policy.forced_difficulty)
    if policy.zero_delay:
        plan = plan._replace(fire_at_ms=now_ms)
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


@st.composite
def plan_cases(draw):
    """``(n, signers, parent_time, now, sealer, seed)``: ``signers[i]`` sealed
    block i + 1 of the parent's chain, so the parent is numbered
    ``len(signers)``; ``now`` falls before, at or after the claim (parent
    time plus the interval); ``seed`` seeds the wiggle generator."""
    n = draw(st.sampled_from([*range(1, 10), 21]))
    signers = draw(st.lists(st.integers(0, n - 1), max_size=40))
    parent_time = len(signers) * 5000 + draw(st.integers(0, 2999))
    now = parent_time + draw(st.integers(0, 12_000))
    return n, tuple(signers), parent_time, now, draw(st.integers(0, n - 1)), draw(st.integers(0, 2**32 - 1))


def seeded_loop_cases():
    """300 cases drawn by a seeded loop, the same for every policy."""
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(1, 9)
        signers = tuple(rng.randrange(n) for _ in range(rng.randrange(40)))
        parent_time = len(signers) * 5000 + rng.randrange(3000)
        now = parent_time + rng.choice((0, rng.randrange(12_000)))
        yield n, signers, parent_time, now, rng.randrange(n), rng.randrange(2**32)


def check_plan(policy, case):
    n, signers, parent_time, now, sealer, seed = case
    history = list(enumerate(signers, start=1))
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
    parent = make_parent(len(signers), parent_time)
    snapshot = snapshot_for_chain(n, chain)
    actual_rng, expected_rng = random.Random(seed), random.Random(seed)
    actual = plan_on(policy, sealer, actual_rng, parent, snapshot, now)
    expected = reference_plan(policy, parent, snapshot, now, sealer, expected_rng, history)
    assert actual == expected and type(actual) is ProposalPlan, (policy, case)
    assert actual_rng.getstate() == expected_rng.getstate(), (policy, case)


@pytest.mark.parametrize("policy", ALL_POLICIES, ids=repr)
def test_plan_matches_honest_plan_with_overrides(policy):
    for case in seeded_loop_cases():
        check_plan(policy, case)


@given(case=plan_cases())
def test_plan_matches_reference_plan_on_drawn_cases(case):
    """Each drawn case is checked under all 16 policies: drawing a case costs
    hypothesis several times what the 16 checks do."""
    for policy in ALL_POLICIES:
        check_plan(policy, case)


def test_deviates_means_any_constraint_dropped():
    assert [policy.deviates for policy in ALL_POLICIES] == [False] + [True] * 15
    assert SealerPolicy() == HONEST == ALL_POLICIES[0]
    assert SealerPolicy.malicious() == FRONTRUNNER == SealerPolicy(2, True, True)
    # Keeping one constraint restores that field alone, for every field there is.
    names = [field.name for field in dataclasses.fields(SealerPolicy)]
    for name in names:
        kept = SealerPolicy.malicious(**{name: getattr(HONEST, name)})
        assert [n for n in names if getattr(kept, n) != getattr(FRONTRUNNER, n)] == [name]
    with pytest.raises(TypeError):
        SealerPolicy.malicious(bogus=1)
    assert preset_config("attack").sealer_specs[2].policy == FRONTRUNNER

import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cliquesim import (
    FIXED,
    GENESIS,
    BlockHeader,
    RejectReason,
    SealerPolicy,
    SealerSnapshot,
    VULNERABLE,
    VerifyFlags,
    leader_index,
    plan_proposal,
    recents_window,
    signed_recently,
    snapshot_for_chain,
    uniform_draws,
    verify_header,
    wiggle_draws,
)


def header_for(number, sealer_index, difficulty):
    return BlockHeader(
        number=number,
        parent=b"\x00" * 32,
        sealer_index=sealer_index,
        sealer_addr=f"0x{sealer_index:040x}",
        difficulty=difficulty,
        sim_time_ms=number * 5000,
    )


def brute_signed_recently(history, sealer_index, next_number, n_sealers):
    """Oracle: scan the full seal history for a hit inside the window."""
    window = recents_window(n_sealers)
    return any(
        sealer == sealer_index and next_number - window < number < next_number
        for number, sealer in history
    )


# -- leader selection and difficulty ------------------------------------------

@pytest.mark.parametrize(
    "next_number,n,expected",
    [(1, 5, 1), (5, 5, 0), (360, 5, 0), (0, 5, 0), (7, 3, 1)],
)
def test_leader_index(next_number, n, expected):
    assert leader_index(next_number, n) == expected


def honest_difficulty(sealer_index, next_number, n_sealers):
    """The difficulty an honest sealer's plan claims for block ``next_number``."""
    parent = header_for(next_number - 1, 0, 1)
    plan = plan_proposal(
        SealerPolicy(), parent, SealerSnapshot(n_sealers),
        parent.sim_time_ms, 5000, sealer_index, wiggle_draws(n_sealers, random.Random(0)),
    )
    return plan.difficulty


def test_difficulty_leader_and_others():
    assert leader_index(1, 5) == 1
    assert honest_difficulty(1, 1, 5) == 2
    for other in (0, 2, 3, 4):
        assert honest_difficulty(other, 1, 5) == 1


def test_difficulty_single_sealer_always_leader():
    for number in range(1, 10):
        assert leader_index(number, 1) == 0
        assert honest_difficulty(0, number, 1) == 2


def test_exactly_one_leader_per_height():
    for n in (1, 2, 5, 8):
        for number in range(1, 3 * n + 1):
            assert 0 <= leader_index(number, n) < n
            leaders = [s for s in range(n) if honest_difficulty(s, number, n) == 2]
            assert leaders == [leader_index(number, n)]


# -- uniform draws -----------------------------------------------------------------

# Widths of 2**k and 2**k + 1 sit at the edges of the rejection loop: the
# first never redraws, the second redraws about half the time.
widths = st.one_of(
    st.integers(1, 6000),
    st.integers(0, 64).flatmap(lambda k: st.sampled_from((2**k, 2**k + 1))),
)


@given(st.integers(0, 2**64), st.integers(-(2**40), 2**40), widths)
@example(99, 5, 46)  # the presets' link delays
@example(99, 0, 1501)  # wiggles at N = 5
@example(99, 0, 5501)  # wiggles at N = 21
@example(99, 0, 1)  # a zero-width link delay
@example(99, 0, 2**40 + 1)
def test_uniform_draws_are_randint_draw_for_draw(seed, low, width):
    # Every golden pin rests on this: the simulator draws with ``uniform_draws``,
    # and a CPython release that changes ``randint`` fails here first.
    high = low + width - 1
    ours, reference = random.Random(seed), random.Random(seed)
    draws = uniform_draws(ours, low, high)
    for _ in range(50):
        assert next(draws) == reference.randint(low, high)
        assert ours.getstate() == reference.getstate()
    assert ours.random() == reference.random()


def test_creating_a_stream_draws_nothing():
    rng = random.Random(0)
    state = rng.getstate()
    uniform_draws(rng, 5, 50)
    wiggle_draws(5, rng)
    assert rng.getstate() == state


def test_uniform_draws_reject_an_empty_range_when_created():
    with pytest.raises(ValueError):
        uniform_draws(random.Random(0), 5, 4)


# -- wiggle --------------------------------------------------------------------

def test_wiggle_bounds_five_sealers():
    wiggles = wiggle_draws(5, random.Random(1))
    draws = [next(wiggles) for _ in range(500)]
    assert all(0 <= d <= 1500 for d in draws)
    assert min(draws) < 200 and max(draws) > 1300  # actually spans the range


def test_wiggle_bounds_single_sealer():
    wiggles = wiggle_draws(1, random.Random(2))
    assert all(0 <= next(wiggles) <= 500 for _ in range(200))


def test_wiggle_deterministic_per_seed():
    a, b = wiggle_draws(5, random.Random(42)), wiggle_draws(5, random.Random(42))
    assert [next(a) for _ in range(50)] == [next(b) for _ in range(50)]


# -- recents window --------------------------------------------------------------

def snapshot_after(sealers, n):
    """Snapshot at the last block of a chain whose block k is sealed by ``sealers[k - 1]``."""
    chain = [GENESIS] + [
        header_for(number, sealer, 1) for number, sealer in enumerate(sealers, start=1)
    ]
    return snapshot_for_chain(n, chain)


def test_signed_recently_inside_window():
    # sealer 3 signs block 10; the snapshot at 11 governs block 12
    assert signed_recently(snapshot_after([0] * 9 + [3, 0], 5), 3) is True


def test_signed_recently_outside_window():
    # the snapshot at 13 governs block 14, past block 10's window
    assert signed_recently(snapshot_after([0] * 9 + [3, 0, 0, 0], 5), 3) is False


def test_signed_recently_free_again_at_window_width():
    # sealed at n: blocked for the next W-1 heights, free at n + W
    window = recents_window(5)
    for k in range(1, window):
        assert signed_recently(snapshot_after([0] * 9 + [3] + [0] * (k - 1), 5), 3) is True
    assert signed_recently(snapshot_after([0] * 9 + [3] + [0] * (window - 1), 5), 3) is False


def test_signed_recently_empty_recents():
    snap = SealerSnapshot(5)
    assert all(not signed_recently(snap, s) for s in range(5))


def test_snapshot_for_chain_keeps_the_trailing_window():
    # N = 5: W = 3, and the next block (5) checks (2, 5), so of blocks
    # 1..4 only the last W - 1, 3 and 4, are kept
    chain = [GENESIS] + [header_for(n, n % 5, 1) for n in (1, 2, 3, 4)]
    assert snapshot_for_chain(5, chain) == SealerSnapshot(5, frozenset({3, 4}))
    # N = 1: W = 1 keeps nothing; a lone sealer may always sign
    for last in (1, 2, 3):
        chain = [header_for(n, 0, 1) for n in range(1, last + 1)]
        assert snapshot_for_chain(1, chain).recent == frozenset()
    # chains shorter than W - 1 keep every block; genesis never enters
    assert snapshot_for_chain(5, [GENESIS]).recent == frozenset()
    chain = [GENESIS, header_for(1, 1, 1)]
    assert snapshot_for_chain(5, chain).recent == {1}
    chain = [GENESIS, header_for(1, 1, 1), header_for(2, 4, 1)]
    assert snapshot_for_chain(9, chain).recent == {1, 4}


def test_signed_recently_matches_brute_force_scan():
    # Every prefix of each chain: the snapshot at its last block, probed
    # for every sealer, against a scan of the whole history for a seal in
    # the window before the next block. A seal W blocks back is free again.
    rng = random.Random(99)
    for _ in range(300):
        n = rng.randint(1, 21)
        history = [(number, rng.randrange(n)) for number in range(1, rng.randrange(12) + 1)]
        chain = [GENESIS] + [header_for(number, sealer, 1) for number, sealer in history]
        for last in range(len(chain)):
            snap = snapshot_for_chain(n, chain[: last + 1])
            for probe in range(n):
                assert signed_recently(snap, probe) == brute_signed_recently(
                    history, probe, last + 1, n
                )


# -- verification ------------------------------------------------------------------

def test_verify_rejects_invalid_difficulty_under_vulnerable():
    snap = SealerSnapshot(5)
    verdict = verify_header(header_for(6, 3, 9), snap, VULNERABLE)
    assert verdict is RejectReason.INVALID_DIFFICULTY


def test_verify_rejects_wrong_turn_under_fixed():
    snap = SealerSnapshot(5)
    # leader for height 6 is sealer 1; sealer 3 claims difficulty 2 anyway
    verdict = verify_header(header_for(6, 3, 2), snap, FIXED)
    assert verdict is RejectReason.WRONG_TURN_DIFFICULTY


def test_verify_accepts_wrong_turn_under_vulnerable():
    snap = SealerSnapshot(5)
    assert verify_header(header_for(6, 3, 2), snap, VULNERABLE) is None


def test_verify_rejects_recently_signed_under_fixed():
    snap = SealerSnapshot(5, frozenset({1}))
    verdict = verify_header(header_for(6, 1, 2), snap, FIXED)
    assert verdict is RejectReason.RECENTLY_SIGNED


def test_verify_leader_must_claim_difficulty_two():
    snap = SealerSnapshot(5)
    verdict = verify_header(header_for(6, 1, 1), snap, FIXED)
    assert verdict is RejectReason.WRONG_TURN_DIFFICULTY


def test_verify_accepts_honest_leader_and_edge():
    snap = SealerSnapshot(5)
    assert verify_header(header_for(6, 1, 2), snap, FIXED) is None
    assert verify_header(header_for(6, 3, 1), snap, FIXED) is None


def test_verify_is_pure():
    snap = SealerSnapshot(5, frozenset({1}))
    header = header_for(6, 1, 2)
    assert verify_header(header, snap, FIXED) == verify_header(header, snap, FIXED)


def test_disabling_checks_never_rejects_more():
    rng = random.Random(7)
    all_flag_sets = [
        VerifyFlags(a, b, c)
        for a in (False, True)
        for b in (False, True)
        for c in (False, True)
    ]
    for _ in range(400):
        n = rng.randint(1, 9)
        chain = []
        number = 1
        for _ in range(rng.randrange(6)):
            chain.append(header_for(number, rng.randrange(n), 1))
            number += 1
        snap = snapshot_for_chain(n, chain)
        header = header_for(number, rng.randrange(n), rng.choice((0, 1, 2, 9)))
        for strong in all_flag_sets:
            if verify_header(header, snap, strong) is not None:
                continue
            for weak in all_flag_sets:
                weaker = (
                    (not weak.check_recently_signed or strong.check_recently_signed)
                    and (not weak.check_difficulty_domain or strong.check_difficulty_domain)
                    and (not weak.check_inturn_identity or strong.check_inturn_identity)
                )
                if weaker:
                    assert verify_header(header, snap, weak) is None

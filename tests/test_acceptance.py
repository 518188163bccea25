"""Acceptance suite: the experiment-level claims the simulator must reproduce.

Each criterion is one test so the verbose run reads as one pass/fail line
per criterion; the prints give the measured numbers alongside.
"""

import dataclasses
import random
import time
from math import ceil

import pytest

from cliquesim import (
    FIXED,
    BlockHeader,
    ChainStore,
    RejectReason,
    SealerSnapshot,
    VULNERABLE,
    build_simulation,
    parse_scenario,
    preset_config,
    preset_text,
    recents_window,
    run_scenario,
    run_sweep,
    signed_recently,
    snapshot_for_chain,
    verify_header,
)

from conftest import brute_force_head, grow


@pytest.fixture(scope="module")
def honest_run():
    start = time.monotonic()
    report = run_scenario(preset_config("honest"))
    return report, time.monotonic() - start


@pytest.fixture(scope="module")
def attack_run():
    return run_scenario(preset_config("attack"))


@pytest.fixture(scope="module")
def fixed_run():
    return run_scenario(preset_config("fixed"))


def test_criterion_1_honest_baseline(honest_run):
    report, wall = honest_run
    height = report.totals["canonical_height"]
    assert 358 <= height <= 362
    per_sealer = [s.canonical_blocks for s in report.per_sealer]
    assert all(62 <= blocks <= 82 for blocks in per_sealer)
    steady = [row.tx_count for row in report.block_log[2:-2]]
    assert all(45 <= count <= 55 for count in steady)
    assert wall < 5.0
    print(
        f"PASS criterion 1: honest baseline height={height}, "
        f"per-sealer={per_sealer}, tx/block within 50±5, wall={wall:.2f}s"
    )


def test_criterion_2_frontrunning_attack():
    config = preset_config("attack")
    assert (config.delay_min_ms, config.delay_max_ms) == (5, 50)
    reports, summary = run_sweep(config, list(range(10)))
    for seed, report in zip(range(10), reports):
        attacker = report.per_sealer[2]
        assert attacker.canonical_blocks >= 300, f"seed {seed}: {attacker.canonical_blocks}"
        assert attacker.canonical_txs >= 15_000, f"seed {seed}: {attacker.canonical_txs}"
    print(
        f"PASS criterion 2: attacker >= 300 blocks and >= 15000 txs for all 10 seeds "
        f"(share min={summary['min_share']:.3f}, mean={summary['mean_share']:.3f})"
    )


def test_criterion_3_countermeasure(fixed_run):
    report = fixed_run
    attacker = report.per_sealer[2]
    height = report.totals["canonical_height"]
    share = attacker.canonical_blocks / height
    assert 0.10 <= share <= 0.30
    honest_counts = [
        s.canonical_blocks for s in report.per_sealer if s.index != 2
    ]
    assert all(62 <= blocks <= 82 for blocks in honest_counts)
    # The attacker still packs with no delay, at the instant it adopts the
    # previous leader's block and before the next tx batch, so its blocks
    # are empty and the next leader packs their interval's txs.
    assert attacker.canonical_txs == 0
    # every canonical attacker block sits in its own in-turn slot
    attacker_addr = attacker.address
    for row in report.block_log[1:]:
        if row.sealer_addr == attacker_addr:
            assert row.number % 5 == 2 and row.difficulty == 2
    # each out-of-turn attempt was rejected, with the identity check firing
    out_of_turn_attempts = attacker.attempts - attacker.leader_attempts
    wrong_turn = attacker.rejections.get(RejectReason.WRONG_TURN_DIFFICULTY.value, 0)
    assert out_of_turn_attempts >= 1
    assert wrong_turn >= out_of_turn_attempts
    assert sum(attacker.rejections.values()) >= out_of_turn_attempts
    print(
        f"PASS criterion 3: attacker share={share:.3f}, honest={honest_counts}, "
        f"{wrong_turn} wrong-turn rejections for {out_of_turn_attempts} out-of-turn attempts"
    )


UNFORGED_FRONTRUNNER = """\
n_sealers = {n_sealers}
duration_ms = 600000
seed = {seed}
verify = fixed

[sealer 1]
policy = malicious
forced_difficulty = none
"""


@pytest.mark.parametrize("n_sealers", [3, 4, 5, 7, 9, 21])
def test_criterion_3_unforged_frontrunner_seals_once_per_window(n_sealers):
    """``fixed`` stops the forged difficulty, not the zero delay.

    A frontrunner that claims the rotation's own difficulty passes every
    check. It signs as soon as the recents window lets it, and every peer
    releases its block at its claim time, the instant the round leader's
    timer fires. ``simnet`` runs a delivery before a seal timer due at
    the same ms, so the leader imports the block and drops its own plan.
    The attacker thus seals exactly one of every W = floor(N/2) + 1
    canonical blocks: ceil(H/W) of H.
    """
    window = recents_window(n_sealers)
    for seed in range(3):
        report = run_scenario(parse_scenario(UNFORGED_FRONTRUNNER.format(n_sealers=n_sealers, seed=seed)))
        height = report.totals["canonical_height"]
        assert report.per_sealer[1].canonical_blocks == ceil(height / window), f"seed {seed}"
    print(f"PASS criterion 3b: N = {n_sealers}, the unforged frontrunner seals ceil(H/{window}) blocks on seeds 0-2")


def test_criterion_3_unforged_frontrunner_in_the_fixed_preset():
    text = preset_text("fixed").replace("forced_difficulty = 2", "forced_difficulty = none")
    report = run_scenario(parse_scenario(text))
    attacker = report.per_sealer[2]
    assert (attacker.canonical_blocks, report.totals["canonical_height"]) == (120, 360)
    assert round(report.sealer_share(2), 4) == 0.3333
    print("PASS criterion 3c: in the fixed preset the unforged frontrunner keeps 120 of 360 blocks")


def test_criterion_4_block_log_signatures(honest_run, attack_run):
    honest_report, _ = honest_run
    addrs = [row.sealer_addr for row in honest_report.block_log]
    for i in range(len(addrs) - 4):
        window = addrs[i : i + 5]
        assert len(set(window)) == 5, f"rotation broken at rows {i}..{i + 4}"

    attack_report = attack_run
    best_run = 0
    current = 0
    previous = None
    for row in attack_report.block_log[1:]:
        if row.sealer_addr == previous and row.difficulty == 2:
            current += 1
        else:
            current = 1 if row.difficulty == 2 else 0
        previous = row.sealer_addr
        best_run = max(best_run, current)
    assert best_run >= 9
    print(
        f"PASS criterion 4: honest log rotates every 5 rows; attack log has a "
        f"{best_run}-row run of one difficulty-2 address"
    )


def test_criterion_5_fork_choice_oracle_equivalence():
    rng = random.Random(1234)
    mismatches = 0
    for _ in range(200):
        store = ChainStore()
        hashes = [store.genesis]
        for i in range(rng.randrange(1, 50)):
            hashes.append(
                grow(
                    store,
                    rng.choice(hashes),
                    sealer_index=rng.randrange(8),
                    difficulty=rng.choice((0, 1, 1, 2, 2)),
                    time_ms=1000 + i,
                )
            )
        if store.select_head() != brute_force_head(store):
            mismatches += 1
    assert mismatches == 0
    print("PASS criterion 5a: fork choice matches path enumeration on 200 random trees")


def test_criterion_5_recents_window_oracle():
    rng = random.Random(555)
    cases = 0
    mismatches = 0
    while cases < 10_000:
        n = rng.randint(1, 21)
        addrs = tuple(f"0x{i:040x}" for i in range(n))
        history = []
        number = 0
        for _ in range(rng.randrange(2 * n + 2)):
            number += 1
            sealer = rng.randrange(n)
            history.append((number, sealer))
        chain = [
            BlockHeader(
                number=seen,
                parent=b"\x00" * 32,
                sealer_index=sealer,
                sealer_addr=addrs[sealer],
                difficulty=1,
                sim_time_ms=seen * 5000,
            )
            for seen, sealer in history
        ]
        window = recents_window(n)
        # The snapshot at every prefix's last block, probed against a scan of
        # the whole history for a seal in the window before the next block.
        for last in range(len(chain) + 1):
            snapshot = snapshot_for_chain(n, chain[:last])
            next_number = last + 1
            for _ in range(4):
                probe = rng.randrange(n)
                brute = any(
                    sealer == probe and next_number - window < seen < next_number
                    for seen, sealer in history
                )
                if signed_recently(snapshot, probe) != brute:
                    mismatches += 1
                cases += 1
    assert mismatches == 0
    print(f"PASS criterion 5b: recents window matches brute-force scan on {cases} cases")


def test_criterion_5_difficulty_domain():
    rng = random.Random(808)
    snapshot = SealerSnapshot(5)
    rejected = 0
    total = 1000
    for i in range(total):
        difficulty = 9 if i == 0 else rng.choice(
            [0, 3, 4, 5, 9, 42, 1000, rng.randrange(3, 1_000_000)]
        )
        header = BlockHeader(
            number=rng.randrange(1, 500),
            parent=b"\x00" * 32,
            sealer_index=rng.randrange(5),
            sealer_addr="0x" + "ab" * 20,
            difficulty=difficulty,
            sim_time_ms=0,
        )
        fixed_verdict = verify_header(header, snapshot, FIXED)
        vulnerable_verdict = verify_header(header, snapshot, VULNERABLE)
        assert vulnerable_verdict is RejectReason.INVALID_DIFFICULTY
        if fixed_verdict is not None and vulnerable_verdict is not None:
            rejected += 1
    assert rejected == total
    print(f"PASS criterion 5c: both presets rejected {rejected}/{total} invalid difficulties")


def test_criterion_5_determinism(tmp_path, honest_run, attack_run):
    from cliquesim import export_block_log

    for name, first_report in (("honest", honest_run[0]), ("attack", attack_run)):
        second_report = run_scenario(preset_config(name))
        a, b = tmp_path / f"{name}_a.log", tmp_path / f"{name}_b.log"
        export_block_log(first_report, a)
        export_block_log(second_report, b)
        assert a.read_bytes() == b.read_bytes()
        assert first_report.to_json() == second_report.to_json()
    print("PASS criterion 5d: equal seeds give byte-identical block logs and reports")


def test_criterion_5_agreement_across_seeds():
    agreeing = 0
    runs = 0
    for name, seed_base in (("honest", 100), ("attack", 200)):
        base = dataclasses.replace(preset_config(name), duration_ms=180_000)
        for offset in range(50):
            config = dataclasses.replace(base, seed=seed_base + offset)
            sim = build_simulation(config)
            sim.run_until(config.duration_ms)
            runs += 1
            if len({node.head for node in sim.nodes}) == 1:
                agreeing += 1
    assert agreeing == runs == 100
    print(f"PASS criterion 5e: one head per run in {agreeing}/{runs} seeded runs")

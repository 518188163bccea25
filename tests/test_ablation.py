"""The countermeasure table: every verifier flag set against each attacker variant.

Each cell is one run of the ``attack`` preset at seed 3 for its full 30
minutes, with sealer 2 playing one attacker variant and every node
enforcing one of the eight ``VerifyFlags`` sets. A flag set is labelled by
its checks in order, R (recently signed), D (difficulty domain) and I
(in-turn identity), with ``-`` for a check that is off. The variants are
the full frontrunner and the frontrunner with one deviation changed: a
forced difficulty of 9, no zero delay, or no recents bypass.

``golden/ablation.json`` holds, per variant and flag set, the SHA-256 of
``RunReport.to_json()`` and sealer 2's canonical share. It was produced by
the simulator before the sealer snapshot became the set of recent signers.
The three findings below are asserted on the fresh runs; the fair share of
a sealer is 1/5.
"""

import dataclasses
import hashlib
import itertools
import json
from pathlib import Path

import pytest

from cliquesim import SealerPolicy, SealerSpec, VerifyFlags, preset_config, run_scenario

GOLDEN = json.loads((Path(__file__).parent / "golden" / "ablation.json").read_text())
ATTACKER = 2

VARIANTS = {
    "full": SealerPolicy.malicious(),
    "forced-difficulty-9": SealerPolicy.malicious(forced_difficulty=9),
    "no-zero-delay": SealerPolicy.malicious(zero_delay=False),
    "no-bypass-recents": SealerPolicy.malicious(bypass_recents=False),
}

FLAG_SETS = {
    "".join(mark if on else "-" for on, mark in zip(checks, "RDI")): VerifyFlags(*checks)
    for checks in itertools.product((False, True), repeat=3)
}


def run_cell(variant: str, label: str) -> tuple[str, float]:
    config = dataclasses.replace(
        preset_config("attack"),
        seed=3,
        flags=FLAG_SETS[label],
        sealer_specs={ATTACKER: SealerSpec(VARIANTS[variant])},
    )
    report = run_scenario(config)
    return hashlib.sha256(report.to_json().encode()).hexdigest(), report.sealer_share(ATTACKER)


@pytest.fixture(scope="module")
def table():
    return {
        (variant, label): run_cell(variant, label)
        for variant in VARIANTS
        for label in FLAG_SETS
    }


@pytest.mark.parametrize("variant,label", list(itertools.product(VARIANTS, FLAG_SETS)))
def test_cell_matches_golden(table, variant, label):
    digest, share = table[variant, label]
    assert GOLDEN[variant][label] == {"sha256": digest, "share": share}


def test_identity_check_alone_holds_the_full_attacker_to_fair_share(table):
    assert table["full", "--I"][1] == pytest.approx(0.20)


def test_difficulty_nine_attacker_needs_the_difficulty_domain_check(table):
    for label, flags in FLAG_SETS.items():
        share = table["forced-difficulty-9", label][1]
        if flags.check_difficulty_domain:
            assert share == 0.0, label
        else:
            assert share > 0.20, label


def test_no_verifier_lets_a_waiting_attacker_exceed_fair_share_by_more_than_noise(table):
    # Shares are read at the table's two-decimal precision: the largest
    # cell is 19/90 = 0.2111, at "---" and "-D-".
    for label in FLAG_SETS:
        assert round(table["no-zero-delay", label][1], 2) <= 0.21, label

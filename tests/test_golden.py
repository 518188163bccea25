"""Golden pins: the presets' outputs must not change byte for byte.

``golden/<preset>.blocks.log`` is the plain block log of each bundled
preset at its own seed. ``golden/reports.json`` holds, per preset and
seed, the SHA-256 of ``RunReport.to_json()``. Both were produced by the
simulator before the chain walks became incremental; a change that alters
any event, tie-break or counter shows up here, where the in-process
determinism check would pass it.

``golden/scenarios.json`` maps a name to a scenario text and the SHA-256
of its report. Those scenarios cover what the presets do not: attackers
that keep some honest constraints (wiggle delay, recents window, rotation
difficulty), zero and invalid forced difficulties under ``verify =
custom``, a zero minimum link delay, N = 7 and 9, ``tx_cap`` and
per-sealer verifier overrides. They were produced by the simulator before
the sealer policy was reduced to its three deviation fields. The
wide-committee scenarios (N = 21 under both verifiers and N = 41 under the
hardened one, each with sealer 2 frontrunning) were produced before the
nodes of a run came to share one sealer snapshot per block; a wide
committee has the deepest recently-signed window. The ``zero-delay-*``
scenarios set both link delay bounds to 0, so the drain window after
``duration_ms`` is empty and the last seal timers and deliveries all fall
on its closing instant; in the two with sealer 2 frontrunning, every node
still holds one future-dated block when the run ends. They were produced
before the event queue came to hold handlers instead of payload types.
The ``slow-links-*`` scenarios draw link delays of up to 3 s (all honest,
and sealer 2 frontrunning) or 4 s (sealers 2 and 4 frontrunning, with
``tx_cap`` 3), all under the hardened verifier, so every node reorganises
several times a minute; a mempool update that went wrong only across a
reorg shows up there. They were produced before a node's mempool came to
follow its head lazily. ``vulnerable-slow-attacker-fixed-peer-slow-links``
runs the flawed verifier at every node but node 3 over links of 0.5-2 s,
with sealer 1 claiming difficulty 2 out of turn while keeping the honest
wiggle and recents window; node 3 rejects 10 of its blocks, so the pin
covers blocks that the two flag sets judge apart. It was produced before
a node's mempool came to adopt its lag in chain order without a sort.

The block log and the report count each block's txs but do not list
them. ``golden/heads.json`` therefore pins node 0's final head hash, which
commits to each block's tx id runs along the canonical chain. It covers
the presets at seeds 0-3, every scenario above, and the ``fixed`` and
``attack`` presets at 500 tx/s for two minutes with ``tx_cap`` 700 (the
cap binds, and the ``fixed`` run restores packed txs of rejected blocks)
and 0 (every tx stays pending). The pins were re-made when the header
digest came to encode id runs instead of listing every id; re-hashing
each pinned chain with the old id-list encoding reproduced every earlier
pin, so only the encoding changed. The 28 runs with txs on the chain got
new pins; the two ``cap0`` runs kept theirs.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from cliquesim import (
    build_simulation,
    export_block_log,
    parse_scenario,
    preset_config,
    run_scenario,
)

GOLDEN = Path(__file__).parent / "golden"
REPORT_DIGESTS = json.loads((GOLDEN / "reports.json").read_text())
SCENARIOS = json.loads((GOLDEN / "scenarios.json").read_text())
HEADS = json.loads((GOLDEN / "heads.json").read_text())

HEAD_RUNS = {
    **{
        f"{name}-seed{seed}": dataclasses.replace(preset_config(name), seed=seed)
        for name in ("honest", "attack", "fixed")
        for seed in range(4)
    },
    **{f"scenario-{name}": parse_scenario(pin["scenario"]) for name, pin in SCENARIOS.items()},
    **{
        f"{name}-rate500-cap{cap}": dataclasses.replace(
            preset_config(name), duration_ms=120_000, tx_rate_per_s=500, tx_cap=cap
        )
        for name in ("fixed", "attack")
        for cap in (700, 0)
    },
}


@pytest.mark.parametrize("name", ["honest", "attack", "fixed"])
def test_preset_block_log_matches_golden(name, tmp_path):
    log = tmp_path / f"{name}.blocks.log"
    export_block_log(run_scenario(preset_config(name)), log)
    assert log.read_bytes() == (GOLDEN / f"{name}.blocks.log").read_bytes()


@pytest.mark.parametrize(
    "name,seed",
    [(name, seed) for name, digests in REPORT_DIGESTS.items() for seed in digests],
)
def test_preset_report_digest_matches_golden(name, seed):
    config = dataclasses.replace(preset_config(name), seed=int(seed))
    digest = hashlib.sha256(run_scenario(config).to_json().encode()).hexdigest()
    assert digest == REPORT_DIGESTS[name][seed]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_report_digest_matches_golden(name):
    pin = SCENARIOS[name]
    report = run_scenario(parse_scenario(pin["scenario"]))
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == pin["sha256"]


def final_head(config) -> str:
    sim = build_simulation(config)
    sim.run_until(config.duration_ms)
    return sim.nodes[0].head.hex()


@pytest.mark.parametrize("name", sorted(HEAD_RUNS))
def test_final_head_hash_matches_golden(name):
    assert final_head(HEAD_RUNS[name]) == HEADS[name]

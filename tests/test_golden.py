"""Golden pins: the presets' outputs must not change byte for byte.

``golden/<preset>.blocks.log`` is the plain block log of each bundled
preset at its own seed. ``golden/reports.json`` holds, per preset and
seed, the SHA-256 of ``RunReport.to_json()``. Both were produced by the
simulator before the chain walks became incremental; a change that alters
any event, tie-break or counter shows up here, where the in-process
determinism check would pass it.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from cliquesim import export_block_log, preset_config, run_scenario

GOLDEN = Path(__file__).parent / "golden"
REPORT_DIGESTS = json.loads((GOLDEN / "reports.json").read_text())


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

"""Workload definitions, one measured simulator run, and output checks.

Every workload is a scenario file (the documented ``key = value`` format)
generated from the workload's shape and the benchmark seed, so a run goes
through the same public entry points a researcher uses:
``parse_scenario`` -> ``build_simulation`` -> ``Simulation.run_until`` ->
``assemble_report`` -> ``export_block_log``.
"""

from __future__ import annotations

import gc
import hashlib
import sys
from dataclasses import dataclass
from pathlib import Path

from hostspeed import CpuClock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Extra builds, timed and then discarded, are made until this much setup
# time has been sampled, so that the cheap setups of the small workloads
# still give a steady median.
SETUP_SAMPLE_S = 0.25


def import_cliquesim():
    """Import the simulator from this checkout's ``src``, never another copy."""
    if not (SRC / "cliquesim" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: simulator source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import cliquesim
    from cliquesim import harness

    if Path(cliquesim.__file__).resolve().parent != SRC / "cliquesim":
        raise SystemExit(f"perfbench: imported cliquesim from {cliquesim.__file__}, not {SRC}")
    return harness


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_sealers: int
    duration_ms: int
    tx_rate_per_s: int
    attacker: bool = False
    block_interval_ms: int = 5000

    def scenario_text(self, seed: int) -> str:
        text = (
            f"# perfbench workload {self.name}\n"
            f"n_sealers = {self.n_sealers}\n"
            f"block_interval_ms = {self.block_interval_ms}\n"
            f"duration_ms = {self.duration_ms}\n"
            f"tx_rate_per_s = {self.tx_rate_per_s}\n"
            f"seed = {seed}\n"
            "delay_min_ms = 5\n"
            "delay_max_ms = 50\n"
            "verify = fixed\n"
        )
        if self.attacker:
            text += (
                "\n[sealer 2]\n"
                "policy = malicious\n"
                "forced_difficulty = 2\n"
                "zero_delay = true\n"
                "bypass_recents = true\n"
            )
        return text


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "honest-long",
            "honest preset run for 1 h (twice the preset): chain length dominates,"
            " so the head-move walks of the chain layer set the cost",
            n_sealers=5,
            duration_ms=3_600_000,
            tx_rate_per_s=10,
        ),
        Workload(
            "fixed-wide",
            "fixed preset with 21 sealers: every seal fans out to 20 peers and the"
            " attacker's blocks are rejected at each, loading simnet, engine, strategies",
            n_sealers=21,
            duration_ms=1_800_000,
            tx_rate_per_s=10,
            attacker=True,
        ),
        Workload(
            "tx-heavy",
            "honest preset for 5 min at 2000 tx/s: 10k-id headers load hashing,"
            " the mempool and the tx schedule while the chain stays 60 blocks short",
            n_sealers=5,
            duration_ms=300_000,
            tx_rate_per_s=2000,
        ),
    )
}


@dataclass
class Measured:
    setup_s: list[float]
    run_s: float
    schedule_calls: int
    events: int
    digest: str
    report: object
    problems: list[str]


def measure_once(
    harness, workload: Workload, seed: int, log_path: Path, sample_setup: bool, clock=CpuClock
) -> Measured:
    """Build, run, export and check one simulation, timing setup and run.

    Times come from ``clock``: by default CPU seconds of this process
    (``time.process_time``), or nominal seconds from an active
    ``hostspeed.HostClock``. The simulator is single-threaded and does no
    I/O inside the timed regions. Events dispatched are the simulation's
    ``Simulation.schedule`` calls minus what is left in its queue. With
    ``sample_setup``, extra builds are timed and discarded before the one
    that runs.
    """
    text = workload.scenario_text(seed)
    setups: list[float] = []
    while True:
        gc.collect()
        start = clock.now()
        config = harness.parse_scenario(text)
        sim = harness.build_simulation(config)
        setups.append(clock.seconds(start, clock.now()))
        if not sample_setup or sum(setups) >= SETUP_SAMPLE_S:
            break
        del sim
    start = clock.now()
    result = sim.run_until(config.duration_ms)
    report = harness.assemble_report(config, result)
    run_s = clock.seconds(start, clock.now())
    # The schedule() count and the queue have no public accessor; if either
    # is renamed, the run fails loudly.
    schedule_calls = sim._next_seq
    events = schedule_calls - len(sim._queue)
    harness.export_block_log(report, log_path, fmt="csv")
    digest = hashlib.sha256(log_path.read_bytes()).hexdigest()
    return Measured(setups, run_s, schedule_calls, events, digest, report, check_run(workload, result, report))


def check_run(workload: Workload, result, report) -> list[str]:
    """Properties every correct run of these hardened-verifier scenarios has.

    They hold on every seed, so they also guard seeds that have no pinned
    digest. The consensus rules are re-derived here rather than taken from
    the simulator's engine.
    """
    problems = []
    n = workload.n_sealers
    window = n // 2 + 1
    rows = report.block_log
    height = report.totals["canonical_height"]
    if height != workload.duration_ms // workload.block_interval_ms:
        problems.append(f"canonical height {height}, expected one block per interval")
    if [row.number for row in rows] != list(range(height + 1)):
        problems.append("block log numbers are not 0..height")
    index_of = {s.address: s.index for s in report.per_sealer}
    signers: list[int] = []
    for prev, row in zip(rows, rows[1:]):
        sealer = index_of.get(row.sealer_addr)
        if sealer is None:
            problems.append(f"block {row.number}: unknown sealer {row.sealer_addr}")
            break
        if row.time_ms < prev.time_ms + workload.block_interval_ms:
            problems.append(f"block {row.number}: claimed time {row.time_ms} too early")
        if row.difficulty != (2 if sealer == row.number % n else 1):
            problems.append(f"block {row.number}: difficulty {row.difficulty} out of turn")
        if sealer in signers[max(0, len(signers) - window + 1):]:
            problems.append(f"block {row.number}: sealer {sealer} signed recently")
        signers.append(sealer)
    if sum(s.canonical_blocks for s in report.per_sealer) != height:
        problems.append("per-sealer block counts do not sum to the height")
    tx_ids = [tx for header in result.canonical for tx in header.tx_ids]
    generated = report.totals["txs_generated"]
    if generated != workload.tx_rate_per_s * (workload.duration_ms // 1000):
        problems.append(f"{generated} txs generated, expected rate x seconds")
    if len(set(tx_ids)) != len(tx_ids) or any(not 0 <= tx < generated for tx in tx_ids):
        problems.append("canonical chain repeats a tx or holds an unknown one")
    if report.totals["canonical_txs"] != len(tx_ids) or sum(r.tx_count for r in rows) != len(tx_ids):
        problems.append("tx totals disagree with the block log")
    rejected = sum(sum(s.rejections.values()) for s in report.per_sealer)
    if workload.attacker and rejected == 0:
        problems.append("the attacker's blocks were never rejected")
    return problems

"""Run one workload once in this fresh process and print what it left behind.

Usage: ``python3 perfbench/fresh.py <workload> <seed> <block-log path>``

Prints one JSON line: the CSV block log's SHA-256, the process's peak
resident memory (``ru_maxrss``, a whole-process high-water mark, which is
why each measurement needs a process of its own) and any failed output
checks. The memory is read before the checks run, so it is the
simulator's alone.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
from pathlib import Path

from scenarios import WORKLOADS, check_run, import_cliquesim


def main() -> None:
    name, seed, log_path = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    harness = import_cliquesim()
    workload = WORKLOADS[name]
    config = harness.parse_scenario(workload.scenario_text(seed))
    sim = harness.build_simulation(config)
    result = sim.run_until(config.duration_ms)
    report = harness.assemble_report(config, result)
    harness.export_block_log(report, log_path, fmt="csv")
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(
        json.dumps(
            {
                "digest": hashlib.sha256(log_path.read_bytes()).hexdigest(),
                "peak_rss_mb": peak_kib / 1024,
                "problems": check_run(workload, result, report),
            }
        )
    )


if __name__ == "__main__":
    main()

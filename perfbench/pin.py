"""Pin the CSV block-log SHA-256 of every workload for a range of seeds.

Usage: ``python3 perfbench/pin.py 0 31`` (first and last seed)

Run it on the commit whose behaviour is the reference. Each (workload,
seed) runs as ``run.py`` runs it first: in two fresh processes, under
``PYTHONHASHSEED`` 0 and 1. The pin is written only if both agree and
pass the output checks. The result replaces ``pins.json``, together with
the seed ``run.py`` uses when none is given.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from run import HERE, Runs, fresh_runs
from scenarios import WORKLOADS

DEFAULT_SEED = 1


def main() -> None:
    first, last = int(sys.argv[1]), int(sys.argv[2])
    pins: dict[str, dict[str, str]] = {w: {} for w in WORKLOADS}
    with tempfile.TemporaryDirectory(prefix=".run-", dir=HERE) as tmp:
        for workload in WORKLOADS:
            for seed in range(first, last + 1):
                runs = Runs(None)
                fresh_runs(workload, seed, Path(tmp), runs)
                if runs.failed:
                    raise SystemExit(f"{workload} seed {seed}: not pinned, see the failures above")
                pins[workload][str(seed)] = runs.expected
    document = {"default_seed": DEFAULT_SEED, "digests": pins}
    (HERE / "pins.json").write_text(json.dumps(document, indent=2) + "\n")


if __name__ == "__main__":
    main()

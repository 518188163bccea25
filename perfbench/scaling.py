"""On-demand scaling report: how host cost grows with run length and committee.

Usage: ``python3 perfbench/scaling.py [--out FILE]``

Not a gated metric. It runs the honest preset (5 sealers) at 30 simulated
minutes x1/x2/x4/x8 (``honest-long`` is the x2 point) and the fixed preset
(sealer 2 frontruns, hardened verifier) at N = 5/10/21/41 for 30 minutes.
Each point is one untraced run of ``run.py``'s default seed, timed in
plain host CPU seconds (without ``run.py``'s host-speed correction);
``ChainStore.canonical_chain`` is counted, not timed. A simulator that is
linear in simulated time keeps ``headers_per_event`` flat along the first
curve. Takes a few minutes; the x8 point alone is the longest.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import tempfile
from dataclasses import replace
from pathlib import Path

from scenarios import WORKLOADS, import_cliquesim, measure_once
from tracing import Tracer, instrumented

HERE = Path(__file__).resolve().parent
BASE_MS = 1_800_000


def points():
    honest = WORKLOADS["honest-long"]
    for factor in (1, 2, 4, 8):
        yield f"honest x{factor}", replace(honest, duration_ms=factor * BASE_MS)
    fixed = WORKLOADS["fixed-wide"]
    for n in (5, 10, 21, 41):
        yield f"fixed N={n}", replace(fixed, n_sealers=n)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    seed = json.loads((HERE / "pins.json").read_text())["default_seed"]
    harness = import_cliquesim()
    rows = []
    with tempfile.TemporaryDirectory(prefix=".run-", dir=HERE) as tmp:
        for label, workload in points():
            tracer = Tracer()
            with instrumented(tracer, spans=False, counted=("chain.canonical_chain",)):
                measured = measure_once(harness, workload, seed, Path(tmp) / "run.csv", sample_setup=False)
            row = {
                "point": label,
                "n_sealers": workload.n_sealers,
                "sim_minutes": workload.duration_ms // 60_000,
                "run_s": measured.run_s,
                "setup_s": measured.setup_s[0],
                "events": measured.events,
                "canonical_chain_headers": tracer.counts["chain.canonical_chain.headers"],
                "headers_per_event": tracer.counts["chain.canonical_chain.headers"] / measured.events,
            }
            rows.append(row)
            print(
                f"{label:12s} run_s {row['run_s']:8.3f}  events {row['events']:7d}"
                f"  canonical_chain.headers {row['canonical_chain_headers']:10d}"
                f"  per event {row['headers_per_event']:8.1f}",
                flush=True,
            )
    document = {
        "seed": seed,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "points": rows,
    }
    if args.out:
        args.out.write_text(json.dumps(document, indent=2) + "\n")
    print(json.dumps(document))


if __name__ == "__main__":
    main()

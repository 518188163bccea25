"""Host cost of a simulated cliquesim run, end to end and per layer.

Usage::

    python3 perfbench/run.py --workload honest-long --seed 1 --seconds 35 --trace 0

Workloads: ``honest-long``, ``fixed-wide``, ``tx-heavy`` (see
``scenarios.py`` for why each was chosen). The seed becomes the scenario
seed, so the same seed always simulates the same run.

Each invocation first runs the workload once in each of two fresh
processes, under ``PYTHONHASHSEED`` 0 and 1. They give ``peak_rss_mb``
and show the block log does not depend on hash order. Then, for
``--seconds``, it repeats the workload in this process (a closed loop:
one simulation at a time) and reports medians.

``--trace 0`` prints the end-to-end metrics, measured with tracing off.
Times are host seconds at a fixed nominal host speed: wall time of the
benchmark process, corrected by reference slices interleaved into the
timed work, so that a slower or faster phase of a shared host cancels
out (see ``hostspeed.py``):

* ``run_s``: ``run_until`` plus ``assemble_report``;
* ``events_per_s``: events dispatched per host second of ``run_s``;
* ``setup_s``: ``parse_scenario`` plus ``build_simulation``;
* ``peak_rss_mb``: peak resident memory of a fresh process running once.

``--trace 1`` alternates untraced and traced repeats and prints the
per-layer table: self time (median over traced repeats) and calls per
wrapped layer function, exact work counts, the traced ``run_s`` and the
tracing overhead (traced minus untraced ``run_s``). These times are plain
host CPU seconds, without the correction.

A run fails if it raises, if an output check in ``scenarios.check_run``
fails, or if its CSV block-log SHA-256 differs from the digest pinned in
``pins.json`` for that (workload, seed); seeds without a pin must match
the first fresh process. ``error_rate`` = failed / attempted is printed,
and the last line is the JSON result: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from hostspeed import NOMINAL_SLICE_S, CpuClock, HostClock
from scenarios import WORKLOADS, import_cliquesim, measure_once
from tracing import LAYERS, Tracer, instrumented

HERE = Path(__file__).resolve().parent
MIN_REPEATS = 3
HASH_SEEDS = ("0", "1")
FRESH_TIMEOUT_S = 120

# (metric, unit) of the per-layer table, beyond each span's self_s and calls.
LAYER_COUNTS = (
    ("chain.canonical_chain.headers", "count"),
    ("chain.hash_header.tx_ids", "count"),
    ("engine.verify_header.rejected", "count"),
    ("engine.accept_ratio", "ratio"),
    ("strategies.on_new_head.kept", "count"),
    ("strategies.seal_yield", "ratio"),
    ("workload.Mempool.add.txs", "count"),
    ("simnet.schedule.calls", "count"),
    ("simnet.events", "count"),
    ("simnet.arrivals", "count"),
    ("simnet.duplicates", "count"),
    ("simnet.rejected", "count"),
    ("trace.run_s", "s"),
    ("trace.overhead_s", "s"),
)


class Runs:
    """Attempted and failed runs, and why each failure happened."""

    def __init__(self, expected_digest: str | None):
        self.expected = expected_digest
        self.attempted = 0
        self.failed = 0

    def judge(self, label: str, digest: str | None, problems: list[str]) -> bool:
        self.attempted += 1
        if self.expected is None and digest is not None:
            self.expected = digest
        if digest is not None and digest != self.expected:
            problems = problems + [f"block-log digest {digest} != expected {self.expected}"]
        for problem in problems:
            print(f"FAIL {label}: {problem}", file=sys.stderr)
        self.failed += bool(problems)
        return not problems


def fresh_runs(workload: str, seed: int, tmp: Path, runs: Runs) -> list[float]:
    """Run the workload once in each of two fresh processes, side by side.

    They are not timed, so they may share the CPUs; each reports its own
    peak resident memory.
    """
    procs = {}
    peaks = []
    deadline = time.monotonic() + FRESH_TIMEOUT_S
    try:
        for hash_seed in HASH_SEEDS:
            procs[hash_seed] = subprocess.Popen(
                [sys.executable, str(HERE / "fresh.py"), workload, str(seed), str(tmp / f"fresh-{hash_seed}.csv")],
                env=dict(os.environ, PYTHONHASHSEED=hash_seed),
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
        for hash_seed, proc in procs.items():
            label = f"fresh process, PYTHONHASHSEED={hash_seed}"
            try:
                stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
                out = json.loads(stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None
            except (subprocess.TimeoutExpired, ValueError, IndexError) as exc:
                runs.judge(label, None, [f"{type(exc).__name__}: {exc}"])
                continue
            if out is None:
                runs.judge(label, None, [f"exit code {proc.returncode}\n{stderr}"])
            else:
                runs.judge(label, out["digest"], out["problems"])
                peaks.append(out["peak_rss_mb"])
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    return peaks


def timed_run(
    harness, workload, seed, log, runs: Runs, label: str, tracer: Tracer | None, sample_setup: bool, clock=CpuClock
):
    """One in-process repeat, judged; None if it raised.

    With a ``tracer``, every layer span is recorded into it. A run with
    wrong output still returns its measurement: it is counted as failed,
    and the result then reports ``correct: false``.
    """
    try:
        with instrumented(tracer, spans=True) if tracer else contextlib.nullcontext():
            measured = measure_once(harness, workload, seed, log, sample_setup, clock)
    except Exception:  # a failed run is counted, and the benchmark goes on
        runs.judge(label, None, [traceback.format_exc()])
        return None
    runs.judge(label, measured.digest, measured.problems)
    return measured


def another_repeat(start: float, repeats: int, seconds: float, minimum: int) -> bool:
    """Whether one more repeat, as long as the average so far, ends in time."""
    if repeats < minimum:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / repeats <= seconds


def end_to_end(harness, workload, seed, seconds, tmp, runs, peaks) -> dict:
    samples = []
    start = time.perf_counter()
    repeat = 0
    with HostClock() as clock:
        while another_repeat(start, repeat, seconds, MIN_REPEATS):
            repeat += 1
            measured = timed_run(
                harness, workload, seed, tmp / "run.csv", runs, f"repeat {repeat}", None, True, clock,
            )
            if measured is not None:
                samples.append(measured)
    print(
        f"perfbench: {repeat} repeats; median reference slice {clock.slice_s * 1e3:.4f} ms"
        f" (nominal {NOMINAL_SLICE_S * 1e3:g} ms)"
    )
    if not samples:
        raise SystemExit("perfbench: every in-process run of the workload raised")
    metrics = {
        "run_s": (statistics.median(m.run_s for m in samples), "s"),
        "events_per_s": (statistics.median(m.events / m.run_s for m in samples), "1/s"),
        "setup_s": (statistics.median(s for m in samples for s in m.setup_s), "s"),
    }
    # Both fresh processes failed: they are counted, and the result says
    # correct: false without a memory figure.
    if peaks:
        metrics["peak_rss_mb"] = (max(peaks), "MiB")
    return metrics


def per_layer(harness, workload, seed, seconds, tmp, runs) -> tuple[dict, list[str]]:
    untraced, traced = [], []
    problems = []
    start = time.perf_counter()
    repeat = 0
    while another_repeat(start, repeat, seconds, 1):
        repeat += 1
        plain = timed_run(
            harness, workload, seed, tmp / "run.csv", runs, f"untraced repeat {repeat}", None, sample_setup=False,
        )
        tracer = Tracer()
        measured = timed_run(
            harness, workload, seed, tmp / "run.csv", runs, f"traced repeat {repeat}", tracer, sample_setup=False,
        )
        if plain is not None and measured is not None:
            untraced.append(plain)
            traced.append((measured, tracer))
    if not traced:
        raise SystemExit("perfbench: every traced run of the workload raised")

    first, tracer = traced[0]
    counts = tracer.counts
    if any(t.counts != counts for _, t in traced[1:]):
        problems.append("per-layer counts differ between traced runs of one seed")
    missing = tracer.missing_calls(workload.name)
    if missing:
        problems.append(f"wrapped functions recorded no call on {workload.name}: {', '.join(missing)}")

    report = first.report
    nodes = report.nodes
    self_times = [t.self_times() for _, t in traced]
    metrics = {}
    for name, *_ in LAYERS:
        metrics[name + ".self_s"] = (statistics.median(st.get(name, 0.0) for st in self_times), "s")
        metrics[name + ".calls"] = (counts[name + ".calls"], "count")
    verified = counts["engine.verify_header.calls"]
    derived = {
        "engine.accept_ratio": (verified - counts["engine.verify_header.rejected"]) / verified if verified else 0.0,
        "strategies.seal_yield": sum(s.canonical_blocks for s in report.per_sealer)
        / max(1, sum(s.attempts for s in report.per_sealer)),
        "simnet.schedule.calls": first.schedule_calls,
        "simnet.events": first.events,
        "simnet.arrivals": sum(n["arrivals"] for n in nodes),
        "simnet.duplicates": sum(n["duplicates"] for n in nodes),
        "simnet.rejected": sum(n["rejected"] for n in nodes),
        "trace.run_s": statistics.median(m.run_s for m, _ in traced),
        "trace.overhead_s": statistics.median(m.run_s for m, _ in traced)
        - statistics.median(m.run_s for m in untraced),
    }
    for name, unit in LAYER_COUNTS:
        metrics[name] = (derived[name] if name in derived else counts[name], unit)
    return metrics, problems


def print_table(workload: str, metrics: dict, runs: Runs) -> None:
    self_total = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s"))
    print(f"perfbench {workload}: {runs.attempted} runs attempted, {runs.failed} failed")
    print(f"  {'error_rate':40s} {runs.failed / runs.attempted:14.6g} ratio")
    for name, (value, unit) in metrics.items():
        share = f"  {100 * value / self_total:5.1f}% of self time" if name.endswith(".self_s") and self_total else ""
        print(f"  {name:40s} {value:14.6g} {unit}{share}")


def main() -> None:
    pins = json.loads((HERE / "pins.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=pins["default_seed"])
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    harness = import_cliquesim()
    workload = WORKLOADS[args.workload]
    runs = Runs(pins["digests"].get(workload.name, {}).get(str(args.seed)))
    problems: list[str] = []
    with tempfile.TemporaryDirectory(prefix=".run-", dir=HERE) as tmp:
        peaks = fresh_runs(workload.name, args.seed, Path(tmp), runs)
        if args.trace:
            metrics, problems = per_layer(harness, workload, args.seed, args.seconds, Path(tmp), runs)
        else:
            metrics = end_to_end(harness, workload, args.seed, args.seconds, Path(tmp), runs, peaks)
    for problem in problems:
        print(f"FAIL self-check: {problem}", file=sys.stderr)
    print_table(workload.name, metrics, runs)
    result = {
        "correct": runs.failed == 0 and not problems,
        "attempted": runs.attempted,
        "failed": runs.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()

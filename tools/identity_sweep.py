"""Run many drawn scenarios and print one line of identity per run.

Usage::

    python3 tools/identity_sweep.py [--count 300] [--base REV]

Scenario ``k`` is drawn with ``random.Random(k)``, so each scenario
depends only on its index. The draws cover N from 1 to 9 plus 21, link
delay bounds from 0 up to 4 s, all eight verifier flag sets plus
per-sealer verifier overrides, zero to two frontrunners with partial
deviations, ``tx_cap`` of none, 0 or a small number, tx rates and
durations of 1 to 5 minutes. Every fourth scenario (``k % 4 == 3``) is
instead hardened, with one or two full frontrunners, links about as slow
as the block interval or slower and a ``tx_cap`` of 1 to 5: there a
rejected own block often comes back with ids the chain already holds,
which the mempool update that hands its ids back must keep out of pending.

Each line holds the scenario's index, the SHA-256 of its report (or
``NonConvergenceError`` when the run ends in a deadlock), node 0's head
hash, the number of events ever queued (``_next_seq``), the events
still queued at the end, and the SHA-256 of every node's pending tx id
runs, read once each node's mempool has caught up to the ids created and
to its head (also after a deadlock), so a mempool fault shows before it
reaches a block. Any other exception stops the sweep with an error. Two
trees that simulate alike print the same lines, whatever the hash seed,
so::

    for s in 0 1; do PYTHONHASHSEED=$s python3 tools/identity_sweep.py > sweep-$s.txt; done
    diff sweep-0.txt sweep-1.txt

checks that no output depends on hash order. With ``--base REV`` the
same sweep also runs on the ``src`` of git revision ``REV``, unpacked with
``git archive`` into a temporary directory, and the two outputs are
diffed; the exit status is 1 when they differ.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = (*range(1, 10), 21)


def draw_scenario(rng: random.Random) -> str:
    """The text of one scenario file drawn from ``rng``.

    The verifier flag keys and the boolean deviation keys are the fields of
    ``VerifyFlags`` and ``SealerPolicy``, in field order, so a new flag or
    deviation is drawn with no edit here.
    """
    from dataclasses import fields

    from cliquesim.engine import PRESETS, VerifyFlags
    from cliquesim.strategies import SealerPolicy

    flag_keys = [f.name for f in fields(VerifyFlags)]
    switch_keys = [f.name for f in fields(SealerPolicy) if f.type == "bool"]
    n = rng.choice(SIZES)
    delay_max = rng.choice((0, rng.randint(1, 100), rng.randint(100, 4000)))
    delay_min = rng.choice((0, rng.randint(0, delay_max)))
    lines = [
        f"n_sealers = {n}",
        f"duration_ms = {rng.randint(1, 5) * 60_000}",
        f"seed = {rng.randrange(1 << 16)}",
        f"delay_min_ms = {delay_min}",
        f"delay_max_ms = {delay_max}",
        f"tx_rate_per_s = {rng.choice((1, 10, 200))}",
        "verify = custom",
        *(f"{key} = {str(rng.random() < 0.5).lower()}" for key in flag_keys),
    ]
    tx_cap = rng.choice((None, 0, rng.randint(1, 20)))
    if tx_cap is not None:
        lines.append(f"tx_cap = {tx_cap}")
    attackers = set(rng.sample(range(n), min(n, rng.choice((0, 1, 1, 2, 2)))))
    for index in range(n):
        section = []
        if index in attackers:
            section.append("policy = malicious")
            if rng.random() < 0.5:
                section.append(f"forced_difficulty = {rng.choice((0, 1, 2, 9))}")
            for key in switch_keys:
                if rng.random() < 0.5:
                    section.append(f"{key} = {str(rng.random() < 0.5).lower()}")
        if rng.random() < 0.2:
            section.append(f"verify = {rng.choice(tuple(PRESETS))}")
        if section:
            lines += ["", f"[sealer {index}]", *section]
    return "\n".join(lines) + "\n"


def draw_slow_links(rng: random.Random) -> str:
    """A hardened scenario drawn from ``rng`` whose own blocks are often rejected late.

    One or two full frontrunners in a committee of 3 to 9 under ``verify =
    fixed``, links of up to 4 to 8 s (about the 5 s block interval or more)
    and a ``tx_cap`` of 1 to 5. A frontrunner's rejected block then often
    comes back after the chain has gained blocks holding some of its ids,
    which the hand-back of its ids must keep out of pending.
    """
    n = rng.randint(3, 9)
    lines = [
        f"n_sealers = {n}",
        f"duration_ms = {rng.randint(1, 5) * 60_000}",
        f"seed = {rng.randrange(1 << 16)}",
        f"delay_min_ms = {rng.randint(0, 100)}",
        f"delay_max_ms = {rng.randint(4000, 8000)}",
        f"tx_rate_per_s = {rng.choice((1, 10, 200))}",
        "verify = fixed",
        f"tx_cap = {rng.randint(1, 5)}",
    ]
    for index in sorted(rng.sample(range(n), rng.choice((1, 2)))):
        lines += ["", f"[sealer {index}]", "policy = malicious"]
    return "\n".join(lines) + "\n"


def scenario_text(k: int) -> str:
    """Scenario ``k``: every fourth one is drawn by ``draw_slow_links``."""
    draw = draw_slow_links if k % 4 == 3 else draw_scenario
    return draw(random.Random(k))


def identity(text: str) -> str:
    """Report digest (or ``NonConvergenceError``), node 0's head, events queued ever and at the end,
    and the digest of every node's pending ids."""
    from cliquesim.harness import assemble_report, parse_scenario
    from cliquesim.simnet import NonConvergenceError, Simulation

    config = parse_scenario(text)
    sim = Simulation(config)
    try:
        report = assemble_report(config, sim.run_until(config.duration_ms))
        outcome = hashlib.sha256(report.to_json().encode()).hexdigest()
    except NonConvergenceError:  # a deadlock is an outcome; any other error fails the sweep
        outcome = "NonConvergenceError"
    for node in sim.nodes:
        node._sync_pool()
    pending = hashlib.sha256(repr([node.mempool.pending.runs() for node in sim.nodes]).encode()).hexdigest()
    return f"{outcome} {sim.nodes[0].head.hex()} {sim._next_seq} {len(sim._queue)} {pending}"


def sweep(count: int) -> list[str]:
    return [f"{k} {identity(scenario_text(k))}" for k in range(count)]


def sweep_at(rev: str, count: int) -> list[str]:
    """The sweep's lines on the ``src`` of revision ``rev``, run in a fresh process."""
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", rev, "src"], check=True, capture_output=True
        ).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        out = subprocess.run(
            [sys.executable, __file__, "--count", str(count), "--src", f"{tmp}/src"],
            check=True, capture_output=True, text=True,
        ).stdout
    return out.splitlines()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--count", type=int, default=300, help="scenarios to run (default 300)")
    parser.add_argument("--base", metavar="REV", help="also sweep git revision REV and diff")
    parser.add_argument("--src", default=str(ROOT / "src"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    lines = sweep(args.count)
    if args.base is None:
        print("\n".join(lines))
        return 0
    base = sweep_at(args.base, args.count)
    diff = list(difflib.unified_diff(base, lines, args.base, "working tree", lineterm=""))
    print("\n".join(diff) if diff else f"{len(lines)} scenarios identical to {args.base}")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())

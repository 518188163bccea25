#!/usr/bin/env python3
"""The frontrunning block attack against a flawed verifier.

Same committee as the baseline, except sealer 2 runs a tampered client:
it always claims difficulty 2, skips the recently-signed wait, and
broadcasts each block the instant it adopts a new head instead of
sleeping out its delay. Because every node here verifies only the
difficulty *range* (the ``vulnerable`` flag preset), nothing rejects the
forged priority, and the attacker's block is already sitting at every
peer when the honest leader's block goes out, so it wins the round. Every
round.

Consistency and liveness survive: the chain still grows one block per
interval and every node agrees on it. What breaks is fairness. Watch the
sealer column of the block log stop rotating.
"""

import pathlib

from cliquesim import emit_chart, export_block_log, preset_config, run_scenario

OUT = pathlib.Path(__file__).parent / "out"


def longest_single_sealer_run(rows) -> int:
    best = current = 0
    previous = None
    for row in rows:
        current = current + 1 if row.sealer_addr == previous else 1
        previous = row.sealer_addr
        best = max(best, current)
    return best


def main() -> None:
    config = preset_config("attack")
    report = run_scenario(config)

    attacker = report.per_sealer[2]
    height = report.totals["canonical_height"]
    print(f"canonical height: {height} blocks, still one per interval")
    print(f"attacker (sealer 2) sealed {attacker.canonical_blocks} of them "
          f"({100 * report.sealer_share(2):.1f}%)")
    print(f"attacker transactions on chain: {attacker.canonical_txs}")
    print()
    print("honest sealers were shut out:")
    for sealer in report.per_sealer:
        if sealer.index != 2:
            print(f"  sealer {sealer.index}: {sealer.canonical_blocks} blocks")
    print()
    run_length = longest_single_sealer_run(report.block_log[1:])
    print(f"longest stretch of consecutive blocks from one sealer: {run_length}")
    print("block log excerpt (one address, difficulty pinned at 2):")
    for row in report.block_log[1:10]:
        print(f"  {row.number:4d} {row.sealer_addr} {row.difficulty}")

    OUT.mkdir(exist_ok=True)
    export_block_log(report, OUT / "attack.blocks.log")
    emit_chart(report, OUT / "attack.chart.svg")
    print()
    print(f"full log:  {OUT / 'attack.blocks.log'}")
    print(f"bar chart: {OUT / 'attack.chart.svg'}")


if __name__ == "__main__":
    main()

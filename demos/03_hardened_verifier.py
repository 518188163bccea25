#!/usr/bin/env python3
"""The countermeasure: turn all three verification checks back on.

Same attacker as the previous demo, but every node now runs the full
pipeline (the ``fixed`` flag preset): recently-signed window, difficulty
domain, and the in-turn identity check that ties difficulty 2 to the
round's actual leader. Proposal-side tampering can't be prevented (anyone
can patch their own client), so the defence lives in verification, which
runs on every receiving node.

The attacker keeps trying at every height; its out-of-turn blocks are
simply dropped, each one leaving a rejection verdict behind. It keeps the
rounds where it genuinely is the leader, and its share falls back to
one fifth.
"""

import pathlib

from cliquesim import emit_chart, export_block_log, preset_config, run_scenario

OUT = pathlib.Path(__file__).parent / "out"


def main() -> None:
    config = preset_config("fixed")
    report = run_scenario(config)

    attacker = report.per_sealer[2]
    height = report.totals["canonical_height"]
    share = report.sealer_share(2)
    out_of_turn = attacker.attempts - attacker.leader_attempts
    print(f"canonical height: {height} blocks")
    print(f"attacker share: {attacker.canonical_blocks} blocks ({100 * share:.1f}%), "
          f"back to its fair fifth")
    print()
    print(f"the attacker still attempted {attacker.attempts} blocks, "
          f"{out_of_turn} of them out of turn; every one was rejected:")
    for reason, count in sorted(attacker.rejections.items()):
        print(f"  {reason}: {count} rejection verdicts across the committee")
    print()
    print("rotation is back (number, sealer, difficulty):")
    for row in report.block_log[1:11]:
        print(f"  {row.number:4d} {row.sealer_addr} {row.difficulty}")
    print()
    print("honest sealers recover their baseline share:")
    for sealer in report.per_sealer:
        if sealer.index != 2:
            print(f"  sealer {sealer.index}: {sealer.canonical_blocks} blocks")

    OUT.mkdir(exist_ok=True)
    export_block_log(report, OUT / "fixed.blocks.log")
    emit_chart(report, OUT / "fixed.chart.svg")
    print()
    print(f"full log:  {OUT / 'fixed.blocks.log'}")
    print(f"bar chart: {OUT / 'fixed.chart.svg'}")


if __name__ == "__main__":
    main()

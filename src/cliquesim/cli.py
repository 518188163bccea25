"""Command-line entry point.

Exit codes: 0 success, 2 configuration error, 3 non-convergence,
4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .charts import emit_chart
from .harness import (
    SCENARIO_PRESETS,
    RunReport,
    ScenarioError,
    export_block_log,
    load_scenario,
    preset_text,
    run_scenario,
    run_sweep,
)
from .simnet import NonConvergenceError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGENCE = 3
EXIT_IO = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliquesim",
        description="Discrete-event simulator of Clique-style sealer rotation "
        "and the block-frontrunning sealer fault.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario file")
    run.add_argument("scenario", help="path to a scenario file")
    run.add_argument("--out", default=".", help="output directory (default: .)")
    run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run.add_argument("--log-format", choices=("plain", "csv"), default="plain")
    run.add_argument("--chart", action="store_true", help="also emit an SVG chart")
    run.set_defaults(handler=_cmd_run)

    preset = sub.add_parser("preset", help="write a bundled scenario file")
    preset.add_argument("name", choices=list(SCENARIO_PRESETS))
    preset.add_argument("--out", default=".", help="output directory (default: .)")
    preset.set_defaults(handler=_cmd_preset)

    sweep = sub.add_parser("sweep", help="rerun a scenario across a seed range")
    sweep.add_argument("scenario", help="path to a scenario file")
    sweep.add_argument(
        "--seeds", required=True, metavar="A..B", help="inclusive seed range, e.g. 0..9"
    )
    sweep.set_defaults(handler=_cmd_sweep)
    return parser


def _print_summary(report: RunReport) -> None:
    totals = report.totals
    print(
        f"canonical height {totals['canonical_height']}, "
        f"{totals['canonical_txs']} txs on chain of {totals['txs_generated']} generated"
    )
    for sealer in report.per_sealer:
        rejected = sum(sealer.rejections.values())
        print(
            f"  sealer {sealer.index} {sealer.address}: "
            f"{sealer.canonical_blocks} blocks, {sealer.canonical_txs} txs, "
            f"{sealer.attempts} attempts, {rejected} rejections"
        )


def _cmd_run(args: argparse.Namespace) -> int:
    config = load_scenario(args.scenario)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    report = run_scenario(config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.scenario).stem
    log_path = out_dir / (stem + (".blocks.csv" if args.log_format == "csv" else ".blocks.log"))
    export_block_log(report, log_path, fmt=args.log_format)
    (out_dir / f"{stem}.report.json").write_text(report.to_json() + "\n")
    print(f"block log: {log_path}")
    if args.chart:
        chart_path = out_dir / f"{stem}.chart.svg"
        emit_chart(report, chart_path)
        print(f"chart: {chart_path}")
    _print_summary(report)
    return EXIT_OK


def _cmd_preset(args: argparse.Namespace) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{args.name}.scenario"
    path.write_text(preset_text(args.name))
    print(path)
    return EXIT_OK


def _parse_seed_range(spec: str) -> list[int]:
    match = spec.split("..")
    if len(match) != 2:
        raise ScenarioError(f"bad seed range {spec!r}, expected A..B")
    try:
        first, last = int(match[0]), int(match[1])
    except ValueError:
        raise ScenarioError(f"bad seed range {spec!r}, expected integers") from None
    if last < first:
        raise ScenarioError(f"bad seed range {spec!r}, B must be >= A")
    return list(range(first, last + 1))


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = load_scenario(args.scenario)
    seeds = _parse_seed_range(args.seeds)
    reports, summary = run_sweep(config, seeds)
    for seed, report, idx, share in zip(seeds, reports, summary["sealers"], summary["shares"]):
        print(
            f"seed {seed}: height {report.totals['canonical_height']}, "
            f"sealer {idx} share {share:.3f}"
        )
    label = "attacker share" if config.malicious_indices() else "top sealer share"
    print(
        f"{label} over {len(seeds)} seeds: "
        f"mean {summary['mean_share']:.3f}, "
        f"min {summary['min_share']:.3f}, max {summary['max_share']:.3f}"
    )
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ScenarioError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

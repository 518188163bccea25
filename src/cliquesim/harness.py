"""Scenario configuration, run orchestration, and report assembly.

Scenario files are flat ``key = value`` text with one optional
``[sealer N]`` section per sealer that deviates from the honest default.
The three bundled presets (``honest``, ``attack``, ``fixed``) reproduce
the two sealing experiments and the hardened-verifier rerun at desk scale;
they differ from one another only in the verification preset and the one
malicious sealer section.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

from .engine import FIXED, PRESETS, VerifyFlags
from .simnet import SimResult, Simulation
from .strategies import HONEST, SealerPolicy


class ScenarioError(Exception):
    """Base class for scenario loading failures."""


class ParseError(ScenarioError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ValidationError(ScenarioError):
    def __init__(self, message: str, fld: str):
        super().__init__(f"{fld}: {message}")
        self.field = fld


@dataclass(frozen=True)
class SealerSpec:
    """Per-sealer policy and optional verification override."""

    policy: SealerPolicy = HONEST
    flags: VerifyFlags | None = None  # None -> scenario-wide flags


@dataclass(frozen=True)
class ScenarioConfig:
    """One run's settings, validated on construction (``replace`` included).

    This is each setting's only check: ``Simulation(config)`` reads them
    as they are. ``sealer_specs`` is stored as a read-only copy of the
    mapping passed in, so a built config cannot gain a sealer that
    validation never saw.
    """

    n_sealers: int
    block_interval_ms: int = 5000
    duration_ms: int = 1_800_000
    tx_rate_per_s: int = 10
    seed: int = 0
    delay_min_ms: int = 5
    delay_max_ms: int = 50
    flags: VerifyFlags = FIXED
    tx_cap: int | None = None
    sealer_specs: Mapping[int, SealerSpec] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "sealer_specs", MappingProxyType(dict(self.sealer_specs)))
        if self.n_sealers < 1:
            raise ValidationError("must be >= 1", "n_sealers")
        if self.block_interval_ms <= 0:
            raise ValidationError("must be > 0", "block_interval_ms")
        if self.duration_ms < 0:
            raise ValidationError("must be >= 0", "duration_ms")
        if self.tx_rate_per_s <= 0:
            raise ValidationError("must be > 0", "tx_rate_per_s")
        if not 0 <= self.delay_min_ms <= self.delay_max_ms:
            raise ValidationError("need 0 <= min <= max", "delay_min_ms")
        if self.tx_cap is not None and self.tx_cap < 0:
            raise ValidationError("must be >= 0", "tx_cap")
        for index, spec in self.sealer_specs.items():
            if not 0 <= index < self.n_sealers:
                raise ValidationError(f"sealer {index} out of range", "sealer")
            forced = spec.policy.forced_difficulty
            if forced is not None and forced < 0:
                raise ValidationError("must be >= 0", f"sealer {index}: forced_difficulty")

    def sealer_settings(self) -> list[tuple[SealerPolicy, VerifyFlags]]:
        """Each sealer's ``(policy, flags)`` in index order: a sealer with no
        spec is honest, and one with no flag override uses ``flags``."""
        default = SealerSpec()
        specs = [self.sealer_specs.get(i, default) for i in range(self.n_sealers)]
        return [(spec.policy, self.flags if spec.flags is None else spec.flags) for spec in specs]

    def malicious_indices(self) -> list[int]:
        return [i for i, (policy, _) in enumerate(self.sealer_settings()) if policy.deviates]

    def to_dict(self) -> dict:
        # Built by hand: ``asdict`` cannot deep-copy the read-only specs.
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["flags"] = asdict(self.flags)
        del out["sealer_specs"]
        out["sealers"] = {
            str(i): {
                "policy": "malicious" if spec.policy.deviates else "honest",
                **asdict(spec.policy),
                "flags": asdict(spec.flags) if spec.flags else None,
            }
            for i, spec in sorted(self.sealer_specs.items())
        }
        return out


# -- scenario file parsing ---------------------------------------------------

_SECTION_RE = re.compile(r"^\[\s*sealer\s+(\d+)\s*\]$")


def _parse_bool(value: str, line: int) -> bool:
    lowered = value.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ParseError(f"expected a boolean, got {value!r}", line)


def _parse_int(value: str, line: int, expected: str = "an integer") -> int:
    try:
        return int(value)
    except ValueError:
        raise ParseError(f"expected {expected}, got {value!r}", line) from None


def _parse_optional_int(value: str, line: int) -> int | None:
    """An integer, or ``none`` in any case for no value (honest difficulty, no tx cap)."""
    return None if value.lower() == "none" else _parse_int(value, line, "an integer or none")


def _parse_choice(what: str, allowed: tuple[str, ...], value: str, line: int) -> str:
    if value not in allowed:
        raise ParseError(f"unknown {what} {value!r}", line)
    return value


# Value parser per field annotation, for the fields a scenario file sets directly.
_PARSERS = {"int": _parse_int, "int | None": _parse_optional_int, "bool": _parse_bool}

# Key -> value parser, per section kind.
_GLOBAL_KEYS = {
    **{f.name: _PARSERS[f.type] for f in fields(ScenarioConfig) if f.type in _PARSERS},
    "verify": partial(_parse_choice, "verify preset", (*PRESETS, "custom")),
    **{f.name: _PARSERS[f.type] for f in fields(VerifyFlags)},
}
_SEALER_KEYS = {
    "policy": partial(_parse_choice, "policy", ("honest", "malicious")),
    **{f.name: _PARSERS[f.type] for f in fields(SealerPolicy)},
    "verify": partial(_parse_choice, "verify preset", tuple(PRESETS)),
}


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse scenario text; defaults applied, invariants validated."""
    # per section: key -> (parsed value, line number), in line order
    top: dict[str, tuple[object, int]] = {}
    sealer_sections: dict[int, dict[str, tuple[object, int]]] = {}
    section, keys, kind = top, _GLOBAL_KEYS, "key"

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        header = _SECTION_RE.match(line)
        if header:
            index = int(header.group(1))
            if index in sealer_sections:
                raise ParseError(f"duplicate section [sealer {index}]", line_no)
            section = sealer_sections[index] = {}
            keys, kind = _SEALER_KEYS, "sealer key"
            continue
        if line.startswith("["):
            raise ParseError(f"bad section header {line!r}", line_no)
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {line!r}", line_no)
        key, _, value = (part.strip() for part in line.partition("="))
        if key in section:
            raise ParseError(f"duplicate key {key!r}", line_no)
        if key not in keys:
            raise ParseError(f"unknown {kind} {key!r}", line_no)
        section[key] = (keys[key](value, line_no), line_no)

    values = {key: value for key, (value, _) in top.items()}
    if "n_sealers" not in values:
        raise ValidationError("missing required key", "n_sealers")

    specs: dict[int, SealerSpec] = {}
    for index, section in sorted(sealer_sections.items()):
        deviations = {key: value for key, (value, _) in section.items()}
        malicious = deviations.pop("policy", "honest") == "malicious"
        verify = deviations.pop("verify", None)
        if deviations and not malicious:
            key = next(iter(deviations))
            raise ParseError(f"{key!r} needs policy = malicious", section[key][1])
        specs[index] = SealerSpec(
            policy=SealerPolicy.malicious(**deviations) if malicious else HONEST,
            flags=PRESETS[verify] if verify else None,
        )

    checks = {f.name: values.pop(f.name) for f in fields(VerifyFlags) if f.name in values}
    base = PRESETS.get(values.pop("verify", "fixed"), FIXED)  # "custom" starts from fixed
    return ScenarioConfig(**values, flags=replace(base, **checks), sealer_specs=specs)


def load_scenario(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    if not path.is_file():
        raise ParseError(f"no scenario file at {path}", 0)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"byte 0x{exc.object[exc.start]:02x} is not UTF-8", line) from None
    return parse_scenario(text)


# -- presets -----------------------------------------------------------------

_PRESET_COMMON = """\
# {title}
n_sealers = 5
block_interval_ms = 5000
duration_ms = 1800000
tx_rate_per_s = 10
seed = 1
delay_min_ms = 5
delay_max_ms = 50
verify = {verify}
"""

_PRESET_ATTACKER = """
[sealer 2]
policy = malicious
forced_difficulty = 2
zero_delay = true
bypass_recents = true
"""


# name -> (title, verify preset, whether sealer 2 frontruns)
SCENARIO_PRESETS = {
    "honest": ("all sealers honest, hardened verifier", "fixed", False),
    "attack": ("sealer 2 frontruns, flawed verifier", "vulnerable", True),
    "fixed": ("sealer 2 frontruns, hardened verifier", "fixed", True),
}


def preset_text(name: str) -> str:
    if name not in SCENARIO_PRESETS:
        raise ValidationError(f"unknown preset {name!r}", "preset")
    title, verify, attacker = SCENARIO_PRESETS[name]
    text = _PRESET_COMMON.format(title=title, verify=verify)
    return text + (_PRESET_ATTACKER if attacker else "")


def preset_config(name: str) -> ScenarioConfig:
    return parse_scenario(preset_text(name))


# -- running -----------------------------------------------------------------

@dataclass(slots=True)
class BlockRow:
    number: int
    sealer_addr: str
    difficulty: int
    time_ms: int
    tx_count: int


@dataclass
class SealerReport:
    index: int
    address: str
    canonical_blocks: int
    canonical_txs: int
    attempts: int
    leader_attempts: int
    rejections: dict[str, int]


@dataclass
class RunReport:
    config: dict
    block_log: list[BlockRow]
    per_sealer: list[SealerReport]
    totals: dict[str, int]
    nodes: list[dict[str, int]]

    def sealer_share(self, index: int) -> float:
        height = self.totals["canonical_height"]
        return self.per_sealer[index].canonical_blocks / height if height else 0.0

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def build_simulation(config: ScenarioConfig) -> Simulation:
    """``Simulation(config)``, which builds a ready-to-run simulation.

    It stays only because ``perfbench/scenarios.py`` and
    ``perfbench/fresh.py`` call it, until the change to the benchmark in
    ROADMAP item 5.
    """
    return Simulation(config)


def assemble_report(config: ScenarioConfig, result: SimResult) -> RunReport:
    rows = [
        BlockRow(
            number=header.number,
            sealer_addr=header.sealer_addr,
            difficulty=header.difficulty,
            time_ms=header.sim_time_ms,
            tx_count=header.tx_count,
        )
        for header in result.canonical
    ]
    blocks = [0] * config.n_sealers
    txs = [0] * config.n_sealers
    for header in result.canonical[1:]:
        blocks[header.sealer_index] += 1
        txs[header.sealer_index] += header.tx_count
    rejections = sorted(sum((node.rejections for node in result.nodes), Counter()).items())
    per_sealer = [
        SealerReport(
            index=i,
            address=result.sealers[i],
            canonical_blocks=blocks[i],
            canonical_txs=txs[i],
            attempts=node.attempts,
            leader_attempts=node.leader_attempts,
            rejections={reason: n for (sealer, reason), n in rejections if sealer == i},
        )
        for i, node in enumerate(result.nodes)
    ]
    totals = {
        "canonical_height": result.canonical[-1].number,
        "canonical_txs": sum(txs),
        "txs_generated": result.txs_generated,
    }
    return RunReport(
        config=config.to_dict(),
        block_log=rows,
        per_sealer=per_sealer,
        totals=totals,
        nodes=[node.counters() for node in result.nodes],
    )


def run_scenario(config: ScenarioConfig) -> RunReport:
    """Run one scenario end to end and report on the agreed canonical chain."""
    result = Simulation(config).run_until(config.duration_ms)
    return assemble_report(config, result)


def tracked_sealer(config: ScenarioConfig, report: RunReport) -> int:
    """The sealer a sweep follows: the first malicious one, else the top sealer of ``report``."""
    malicious = config.malicious_indices()
    if malicious:
        return malicious[0]
    return max(range(config.n_sealers), key=report.sealer_share)


def run_sweep(config: ScenarioConfig, seeds: list[int]) -> tuple[list[RunReport], dict]:
    """Rerun ``config`` across ``seeds`` and aggregate the attacker's share.

    With no malicious sealer configured, the largest per-sealer share of
    each run is aggregated instead. The summary's ``sealers`` and ``shares``
    give each seed's tracked sealer and its share, in ``seeds`` order.
    """
    reports = []
    sealers = []
    shares = []
    for seed in seeds:
        report = run_scenario(replace(config, seed=seed))
        reports.append(report)
        sealers.append(tracked_sealer(config, report))
        shares.append(report.sealer_share(sealers[-1]))
    summary = {
        "seeds": list(seeds),
        "sealers": sealers,
        "shares": shares,
        "mean_share": sum(shares) / len(shares) if shares else 0.0,
        "min_share": min(shares) if shares else 0.0,
        "max_share": max(shares) if shares else 0.0,
    }
    return reports, summary


# -- block log export ----------------------------------------------------------

CSV_HEADER = "number,addr,difficulty,time_ms,tx_count"


def export_block_log(report: RunReport, path: str | Path, fmt: str = "plain") -> None:
    """Write the canonical block log.

    Plain mode is one ASCII line per block, ``<number> <addr> <diff>``,
    ascending by number and nothing else; CSV mode adds the header
    ``number,addr,difficulty,time_ms,tx_count`` plus the timing columns.
    """
    if fmt not in ("plain", "csv"):
        raise ValueError(f"unknown log format {fmt!r}")
    lines = []
    if fmt == "csv":
        lines.append(CSV_HEADER)
        for row in report.block_log:
            lines.append(
                f"{row.number},{row.sealer_addr},{row.difficulty},{row.time_ms},{row.tx_count}"
            )
    else:
        for row in report.block_log:
            lines.append(f"{row.number} {row.sealer_addr} {row.difficulty}")
    text = "\n".join(lines) + ("\n" if lines else "")
    Path(path).write_text(text, encoding="ascii")

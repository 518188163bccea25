import dataclasses
import re
from xml.etree import ElementTree

import pytest

from cliquesim import (
    FIXED,
    ParseError,
    RunReport,
    ScenarioConfig,
    SealerPolicy,
    SealerSpec,
    VULNERABLE,
    ValidationError,
    emit_chart,
    export_block_log,
    load_scenario,
    parse_scenario,
    preset_config,
    preset_text,
    run_scenario,
    run_sweep,
    sealer_addresses,
)
from cliquesim import cli
from cliquesim.harness import CSV_HEADER

from conftest import short_preset


# -- parsing -------------------------------------------------------------------

def test_minimal_scenario_gets_all_defaults():
    config = parse_scenario("n_sealers = 5\n")
    assert config.block_interval_ms == 5000
    assert config.duration_ms == 1_800_000
    assert config.tx_rate_per_s == 10
    assert (config.delay_min_ms, config.delay_max_ms) == (5, 50)
    assert config.flags == FIXED
    assert config.sealer_specs == {}


def test_negative_duration_rejected():
    with pytest.raises(ValidationError):
        parse_scenario("n_sealers = 5\nduration_ms = -1\n")


def test_zero_sealers_rejected():
    with pytest.raises(ValidationError):
        parse_scenario("n_sealers = 0\n")


def test_replace_validates_the_new_config():
    with pytest.raises(ValidationError) as err:
        dataclasses.replace(preset_config("honest"), n_sealers=0)
    assert (str(err.value), err.value.field) == ("n_sealers: must be >= 1", "n_sealers")
    with pytest.raises(dataclasses.FrozenInstanceError):
        preset_config("fixed").n_sealers = 2  # would orphan the [sealer 2] section


# Each bound ScenarioConfig checks, besides n_sealers and duration_ms, as
# (scenario lines after "n_sealers = 5", the same change for replace, field, message).
# The config is the only place these are checked: the simulation reads them as given.
BOUNDS = {
    "zero-interval": ("block_interval_ms = 0", {"block_interval_ms": 0}, "block_interval_ms", "must be > 0"),
    "zero-tx-rate": ("tx_rate_per_s = 0", {"tx_rate_per_s": 0}, "tx_rate_per_s", "must be > 0"),
    "negative-delay": ("delay_min_ms = -1", {"delay_min_ms": -1}, "delay_min_ms", "need 0 <= min <= max"),
    "delay-min-above-max": ("delay_min_ms = 60", {"delay_min_ms": 60}, "delay_min_ms", "need 0 <= min <= max"),
    "negative-tx-cap": ("tx_cap = -1", {"tx_cap": -1}, "tx_cap", "must be >= 0"),
    "negative-forced-difficulty": (
        "[sealer 2]\npolicy = malicious\nforced_difficulty = -1",
        {"sealer_specs": {2: SealerSpec(SealerPolicy.malicious(forced_difficulty=-1))}},
        "sealer 2: forced_difficulty",
        "must be >= 0",
    ),
}


@pytest.mark.parametrize("route", ["parse", "replace"])
@pytest.mark.parametrize("lines,changes,fld,message", BOUNDS.values(), ids=BOUNDS)
def test_every_bound_is_checked_by_parse_and_by_replace(lines, changes, fld, message, route):
    with pytest.raises(ValidationError) as err:
        if route == "parse":
            parse_scenario(f"n_sealers = 5\n{lines}\n")
        else:
            dataclasses.replace(ScenarioConfig(n_sealers=5), **changes)
    assert (str(err.value), err.value.field) == (f"{fld}: {message}", fld)


def test_sealer_specs_are_read_only_and_replace_validates_them():
    config = preset_config("fixed")
    with pytest.raises(TypeError):
        config.sealer_specs[7] = SealerSpec(SealerPolicy.malicious())
    with pytest.raises(TypeError):
        del config.sealer_specs[2]
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.sealer_specs[2].policy = SealerPolicy()
    assert config.malicious_indices() == [2]
    with pytest.raises(ValidationError) as err:
        dataclasses.replace(config, sealer_specs={7: SealerSpec(SealerPolicy.malicious())})
    assert (str(err.value), err.value.field) == ("sealer: sealer 7 out of range", "sealer")
    # The config keeps its own copy: the caller's dict cannot reach it later.
    specs = {1: SealerSpec(SealerPolicy.malicious())}
    copied = dataclasses.replace(config, sealer_specs=specs)
    specs[7] = SealerSpec(SealerPolicy.malicious())
    assert copied.malicious_indices() == [1]
    assert list(copied.to_dict()["sealers"]) == ["1"]


def test_missing_n_sealers_rejected():
    with pytest.raises(ValidationError):
        parse_scenario("seed = 3\n")


def test_unknown_key_names_the_line():
    with pytest.raises(ParseError) as err:
        parse_scenario("n_sealers = 5\nbogus = 1\n")
    assert err.value.line == 2


def test_bad_boolean_rejected():
    with pytest.raises(ParseError):
        parse_scenario("n_sealers = 5\n[sealer 1]\nzero_delay = maybe\n")


def test_bad_section_rejected():
    with pytest.raises(ParseError):
        parse_scenario("n_sealers = 5\n[miner 1]\n")


def test_sealer_index_out_of_range_rejected():
    with pytest.raises(ValidationError):
        parse_scenario("n_sealers = 3\n[sealer 7]\npolicy = malicious\n")


def test_custom_flag_triple():
    config = parse_scenario(
        "n_sealers = 5\nverify = custom\ncheck_inturn_identity = false\n"
    )
    assert config.flags.check_recently_signed is True
    assert config.flags.check_inturn_identity is False


def test_per_sealer_flag_override():
    config = parse_scenario(
        "n_sealers = 5\nverify = fixed\n[sealer 2]\nverify = vulnerable\n"
    )
    assert config.sealer_settings()[2][1] == VULNERABLE
    assert config.sealer_settings()[0][1] == FIXED


@pytest.mark.parametrize(
    "text,line",
    [
        ("n_sealers = 5\nseed = 1\nseed = 2\n", 3),
        ("n_sealers = 5\n[sealer 2]\npolicy = malicious\nzero_delay = true\nzero_delay = false\n", 5),
        ("n_sealers = 5\n[sealer 2]\npolicy = malicious\n[sealer 2]\nzero_delay = false\n", 4),
    ],
    ids=["global-key", "sealer-key", "section"],
)
def test_duplicates_name_the_line(text, line):
    with pytest.raises(ParseError) as err:
        parse_scenario(text)
    assert err.value.line == line


@pytest.mark.parametrize(
    "text,line",
    [
        ("n_sealers = 5\n[sealer 2]\nforced_difficulty = 9\n", 3),
        ("n_sealers = 5\n[sealer 2]\nverify = fixed\nzero_delay = false\n", 4),
        ("n_sealers = 5\n[sealer 2]\nbypass_recents = true\npolicy = honest\n", 3),
        ("n_sealers = 5\n[sealer 2]\npolicy = honest\nverify = fixed\nbypass_recents = true\n", 5),
    ],
    ids=["missing-policy", "missing-policy-after-verify", "honest-after", "explicit-honest"],
)
def test_deviation_key_outside_malicious_section_names_the_line(text, line):
    with pytest.raises(ParseError) as err:
        parse_scenario(text)
    assert err.value.line == line
    assert "policy = malicious" in str(err.value)


@pytest.mark.parametrize(
    "text,error,message",
    [
        ("n_sealers = 5\n[miner 1]\n", ParseError, "line 2: bad section header '[miner 1]'"),
        ("n_sealers 5\n", ParseError, "line 1: expected 'key = value', got 'n_sealers 5'"),
        ("n_sealers = 5\nseed = 1\nseed = 2\n", ParseError, "line 3: duplicate key 'seed'"),
        (
            "n_sealers = 5\n[sealer 2]\npolicy = malicious\n[sealer 2]\n",
            ParseError,
            "line 4: duplicate section [sealer 2]",
        ),
        ("n_sealers = 5\nbogus = 1\n", ParseError, "line 2: unknown key 'bogus'"),
        (
            "n_sealers = 5\n[sealer 1]\nbogus = 1\n",
            ParseError,
            "line 3: unknown sealer key 'bogus'",
        ),
        ("n_sealers = 5\nverify = strict\n", ParseError, "line 2: unknown verify preset 'strict'"),
        (
            "n_sealers = 5\n[sealer 1]\nverify = custom\n",
            ParseError,
            "line 3: unknown verify preset 'custom'",
        ),
        (
            "n_sealers = 5\n[sealer 1]\npolicy = evil\n",
            ParseError,
            "line 3: unknown policy 'evil'",
        ),
        ("n_sealers = five\n", ParseError, "line 1: expected an integer, got 'five'"),
        (
            "n_sealers = 5\n[sealer 1]\nzero_delay = maybe\n",
            ParseError,
            "line 3: expected a boolean, got 'maybe'",
        ),
        (
            "n_sealers = 5\n[sealer 1]\nforced_difficulty = 9\n",
            ParseError,
            "line 3: 'forced_difficulty' needs policy = malicious",
        ),
        ("seed = 3\n", ValidationError, "n_sealers: missing required key"),
        (
            "n_sealers = 3\n[sealer 7]\npolicy = malicious\n",
            ValidationError,
            "sealer: sealer 7 out of range",
        ),
    ],
    ids=[
        "bad-section-header",
        "missing-equals",
        "duplicate-key",
        "duplicate-section",
        "unknown-key",
        "unknown-sealer-key",
        "unknown-verify-preset",
        "unknown-section-verify-preset",
        "unknown-policy",
        "bad-int",
        "bad-bool",
        "deviation-outside-malicious",
        "missing-n-sealers",
        "sealer-out-of-range",
    ],
)
def test_parse_error_messages(text, error, message):
    with pytest.raises(error) as err:
        parse_scenario(text)
    assert type(err.value) is error
    assert str(err.value) == message


def test_malicious_section_takes_missing_deviations_from_the_full_attacker():
    config = parse_scenario(
        "n_sealers = 5\n[sealer 1]\npolicy = malicious\n"
        "[sealer 2]\nforced_difficulty = 9\nzero_delay = false\npolicy = malicious\n"
    )
    assert config.sealer_specs[1].policy == SealerPolicy.malicious()
    assert config.sealer_specs[2].policy == SealerPolicy(9, False, True)


@pytest.mark.parametrize("name", ["honest", "attack", "fixed"])
def test_scenario_with_byte_order_mark_parses_like_plain(tmp_path, name):
    path = tmp_path / f"{name}.scenario"
    path.write_text("\ufeff" + preset_text(name), encoding="utf-8")
    assert load_scenario(path) == preset_config(name)


def test_load_scenario_missing_file(tmp_path):
    with pytest.raises(ParseError):
        load_scenario(tmp_path / "nope.scenario")


# -- presets -------------------------------------------------------------------

def test_attack_preset_shape():
    config = preset_config("attack")
    assert config.n_sealers == 5
    assert config.flags == VULNERABLE
    policy = config.sealer_specs[2].policy
    assert policy.deviates
    assert policy.forced_difficulty == 2
    assert policy.zero_delay and policy.bypass_recents
    assert config.malicious_indices() == [2]


def test_fixed_preset_differs_from_attack_only_in_flags():
    attack = preset_config("attack")
    fixed = preset_config("fixed")
    assert fixed.flags == FIXED and attack.flags == VULNERABLE
    assert dataclasses.replace(attack, flags=fixed.flags) == fixed


def test_honest_preset_differs_from_fixed_only_in_attacker_section():
    honest = preset_config("honest")
    fixed = preset_config("fixed")
    assert honest.flags == fixed.flags == FIXED
    assert honest.sealer_specs == {}
    assert dataclasses.replace(fixed, sealer_specs={}) == honest


def test_preset_texts_parse_and_roundtrip(tmp_path):
    for name in ("honest", "attack", "fixed"):
        path = tmp_path / f"{name}.scenario"
        path.write_text(preset_text(name))
        assert load_scenario(path) == preset_config(name)


# -- addresses and report --------------------------------------------------------

def test_addresses_deterministic_and_well_formed():
    """Distinct by construction: nothing else checks that a run's sealers differ."""
    a = sealer_addresses(7, 5)
    assert a == sealer_addresses(7, 5)
    assert a != sealer_addresses(8, 5)
    for seed in (0, 1, 7, 2**31):
        for n in range(1, 42):
            addresses = sealer_addresses(seed, n)
            assert len(set(addresses)) == n, (seed, n)
            for addr in addresses:
                assert re.fullmatch("0x[0-9a-f]{40}", addr), addr


def test_report_totals_are_internally_consistent():
    report = run_scenario(short_preset("attack", 180_000))
    height = report.totals["canonical_height"]
    assert sum(s.canonical_blocks for s in report.per_sealer) == height
    assert sum(s.canonical_txs for s in report.per_sealer) == report.totals["canonical_txs"]
    numbers = [row.number for row in report.block_log]
    assert numbers == list(range(height + 1))


def test_config_echo_carries_scenario():
    config = short_preset("fixed", 60_000)
    report = run_scenario(config)
    assert report.config == config.to_dict()
    assert report.config["sealers"]["2"]["policy"] == "malicious"


# -- block log export --------------------------------------------------------------

def test_plain_export_format(tmp_path):
    report = run_scenario(short_preset("honest", 60_000))
    out = tmp_path / "blocks.log"
    export_block_log(report, out)
    lines = out.read_text().splitlines()
    assert len(lines) == len(report.block_log)
    assert lines[0].split() == ["0", "0x" + "0" * 40, "0"]
    for line, row in zip(lines, report.block_log):
        assert line == f"{row.number} {row.sealer_addr} {row.difficulty}"


def test_csv_export_format(tmp_path):
    report = run_scenario(short_preset("honest", 60_000))
    out = tmp_path / "blocks.csv"
    export_block_log(report, out, fmt="csv")
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER == "number,addr,difficulty,time_ms,tx_count"
    first = lines[2].split(",")
    assert first[0] == "1" and first[2] in ("1", "2")


def test_empty_report_exports_empty_file(tmp_path):
    report = RunReport(config={}, block_log=[], per_sealer=[], totals={}, nodes=[])
    out = tmp_path / "empty.log"
    export_block_log(report, out)
    assert out.read_bytes() == b""


def test_export_rejects_unknown_format(tmp_path):
    report = RunReport(config={}, block_log=[], per_sealer=[], totals={}, nodes=[])
    with pytest.raises(ValueError):
        export_block_log(report, tmp_path / "x", fmt="xml")


def test_honest_rotation_visible_in_log(tmp_path):
    report = run_scenario(short_preset("honest", 150_000))
    addrs = [row.sealer_addr for row in report.block_log]
    for i in range(len(addrs) - 4):
        assert len(set(addrs[i : i + 5])) == 5


# -- charts --------------------------------------------------------------------

def test_chart_is_selfcontained_svg(tmp_path):
    report = run_scenario(short_preset("honest", 60_000))
    out = tmp_path / "chart.svg"
    emit_chart(report, out)
    text = out.read_text()
    assert text.startswith("<svg")
    assert text.count('class="bar"') == 2 * 5
    assert "Canonical blocks per sealer" in text
    assert "Canonical transactions per sealer" in text


def test_chart_single_sealer(tmp_path):
    report = run_scenario(ScenarioConfig(n_sealers=1, duration_ms=30_000))
    out = tmp_path / "one.svg"
    emit_chart(report, out)
    assert out.read_text().count('class="bar"') == 2


@pytest.mark.parametrize("n", [41, 325, 400])
def test_chart_bars_stay_inside_their_plots(tmp_path, n):
    """From N = 325 the 1 px bars of a fixed-width plot no longer fit; the panel widens."""
    report = run_scenario(ScenarioConfig(n_sealers=n, duration_ms=60_000))
    out = tmp_path / "wide.svg"
    emit_chart(report, out)
    svg = ElementTree.parse(out).getroot()
    width = int(svg.get("width"))
    bars = [el for el in svg.iter() if el.get("class") == "bar"]
    assert len(bars) == 2 * n
    panel_w = width // 2
    # Each panel's x axis spans its plot.
    axes = [
        (int(el.get("x1")), int(el.get("x2")))
        for el in svg.iter()
        if el.tag.endswith("line") and el.get("y1") == el.get("y2")
    ]
    assert [left // panel_w for left, _ in axes] == [0, 1]
    for i, bar in enumerate(bars):
        left, right = axes[i // n]
        x, bar_w = int(bar.get("x")), int(bar.get("width"))
        assert bar_w >= 1 and left <= x and x + bar_w <= right, (i, x, bar_w)
    # Labels that share a row must not overprint: 6 px per character bounds
    # the glyphs of a 10 px sans-serif face, so "S40" is at most 18 px wide.
    labels = [
        el for el in svg.iter()
        if el.tag.endswith("text") and el.get("text-anchor") == "middle" and el.get("font-size") == "10"
    ]
    for panel in range(2):
        for sealer_row in (True, False):
            row = sorted(
                (int(el.get("x")), 6 * len(el.text))
                for el in labels
                if int(el.get("x")) // panel_w == panel and el.text.startswith("S") == sealer_row
            )
            assert len(row) > 1
            for (x, width), (next_x, next_width) in zip(row, row[1:]):
                assert next_x - x >= max(width, next_width), (panel, sealer_row, x, next_x)


# -- sweep ---------------------------------------------------------------------

def test_sweep_reports_attacker_share_stats():
    config = short_preset("attack", 60_000)
    reports, summary = run_sweep(config, [0, 1, 2])
    assert len(reports) == 3
    assert summary["seeds"] == [0, 1, 2]
    assert summary["sealers"] == [2, 2, 2]
    assert summary["shares"] == [report.sealer_share(2) for report in reports]
    assert 0.0 <= summary["min_share"] <= summary["mean_share"] <= summary["max_share"] <= 1.0
    assert summary["min_share"] > 0.9  # the attacker dominates every seed


# -- command line ----------------------------------------------------------------

def write_mini_scenario(tmp_path, name="mini", preset="attack"):
    text = preset_text(preset).replace("duration_ms = 1800000", "duration_ms = 60000")
    path = tmp_path / f"{name}.scenario"
    path.write_text(text)
    return path


def test_cli_preset_then_run(tmp_path, capsys):
    assert cli.main(["preset", "attack", "--out", str(tmp_path)]) == 0
    scenario = tmp_path / "attack.scenario"
    assert scenario.exists()
    mini = write_mini_scenario(tmp_path)
    assert cli.main(["run", str(mini), "--out", str(tmp_path), "--chart"]) == 0
    out = capsys.readouterr().out
    assert "canonical height" in out
    assert (tmp_path / "mini.blocks.log").exists()
    assert (tmp_path / "mini.chart.svg").exists()
    assert (tmp_path / "mini.report.json").exists()


def test_cli_runs_are_reproducible(tmp_path):
    mini = write_mini_scenario(tmp_path)
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", str(mini), "--out", str(a_dir)]) == 0
    assert cli.main(["run", str(mini), "--out", str(b_dir)]) == 0
    assert (a_dir / "mini.blocks.log").read_bytes() == (b_dir / "mini.blocks.log").read_bytes()
    assert (a_dir / "mini.report.json").read_bytes() == (b_dir / "mini.report.json").read_bytes()


def test_cli_seed_override_changes_addresses(tmp_path):
    mini = write_mini_scenario(tmp_path)
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", str(mini), "--out", str(a_dir), "--seed", "11"]) == 0
    assert cli.main(["run", str(mini), "--out", str(b_dir), "--seed", "12"]) == 0
    assert (a_dir / "mini.blocks.log").read_bytes() != (b_dir / "mini.blocks.log").read_bytes()


def test_cli_missing_scenario_exits_2(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "missing.scenario")]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_cli_directory_scenario_exits_2(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path), "--out", str(tmp_path / "out")]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_cli_non_utf8_scenario_exits_2(tmp_path, capsys, command):
    bad = tmp_path / "latin1.scenario"
    bad.write_bytes("n_sealers = 5\n# sealer caf\u00e9\n".encode("latin-1"))
    args = ["--out", str(tmp_path)] if command == "run" else ["--seeds", "0..1"]
    assert cli.main([command, str(bad), *args]) == 2
    assert "line 2: byte 0xe9 is not UTF-8" in capsys.readouterr().err


def test_cli_deviation_key_without_malicious_policy_exits_2(tmp_path, capsys):
    bad = tmp_path / "honest-override.scenario"
    bad.write_text("n_sealers = 5\n[sealer 2]\npolicy = honest\nbypass_recents = true\n")
    assert cli.main(["run", str(bad), "--out", str(tmp_path)]) == 2
    assert "line 4" in capsys.readouterr().err


def test_cli_invalid_scenario_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.scenario"
    bad.write_text("n_sealers = 5\nduration_ms = -1\n")
    assert cli.main(["run", str(bad)]) == 2


def test_cli_duplicate_key_exits_2(tmp_path, capsys):
    bad = tmp_path / "dup.scenario"
    bad.write_text("n_sealers = 5\nverify = fixed\nverify = vulnerable\n")
    assert cli.main(["run", str(bad), "--out", str(tmp_path)]) == 2
    assert "line 3" in capsys.readouterr().err


def test_cli_nonconvergence_exits_3(tmp_path, capsys, monkeypatch):
    from cliquesim.simnet import NonConvergenceError

    mini = write_mini_scenario(tmp_path)
    monkeypatch.setattr(
        cli, "run_scenario", lambda config: (_ for _ in ()).throw(NonConvergenceError("split"))
    )
    assert cli.main(["run", str(mini), "--out", str(tmp_path)]) == 3
    assert "non-convergence" in capsys.readouterr().err


def test_cli_io_failure_exits_4(tmp_path, capsys):
    mini = write_mini_scenario(tmp_path)
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    assert cli.main(["run", str(mini), "--out", str(blocker / "sub")]) == 4
    assert "i/o error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "preset,label", [("attack", "attacker share"), ("honest", "top sealer share")]
)
def test_cli_sweep(tmp_path, capsys, preset, label):
    mini = write_mini_scenario(tmp_path, preset=preset)
    assert cli.main(["sweep", "--seeds", "0..2", str(mini)]) == 0
    out = capsys.readouterr().out
    reports, summary = run_sweep(load_scenario(mini), [0, 1, 2])
    seed_lines = [line for line in out.splitlines() if line.startswith("seed ")]
    assert seed_lines == [
        f"seed {seed}: height {report.totals['canonical_height']}, "
        f"sealer {sealer} share {share:.3f}"
        for seed, report, sealer, share in zip(
            [0, 1, 2], reports, summary["sealers"], summary["shares"]
        )
    ]
    assert "mean" in out and "min" in out and "max" in out
    assert out.splitlines()[-1].startswith(f"{label} over 3 seeds:")


def test_cli_bad_seed_range_exits_2(tmp_path, capsys):
    mini = write_mini_scenario(tmp_path)
    assert cli.main(["sweep", "--seeds", "9..1", str(mini)]) == 2

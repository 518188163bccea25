"""Event-count pins: how many events a run schedules, and how many it leaves queued.

``Simulation._next_seq`` counts every ``schedule`` call, and the queue
left after ``run_until`` holds the events that never ran; their difference
is the number of events dispatched, the denominator of the benchmark's
``events_per_s``. A change to how events are queued must add or drop no
event, or that rate stops being comparable across changes, even when
every output stays the same.

The runs are the three presets and short copies of the three benchmark
workload shapes (a long honest run, a 21-sealer hardened committee with a
frontrunner, an honest run at 2000 tx/s), all at seed 1. The pins were
produced by the simulator while it still queued the whole tx schedule
before the first event ran.
"""

import dataclasses

import pytest

from cliquesim import build_simulation, parse_scenario, preset_config


def workload_shape(n_sealers: int, minutes: int, tx_rate_per_s: int, attacker: bool = False):
    text = (
        f"n_sealers = {n_sealers}\n"
        f"duration_ms = {minutes * 60_000}\n"
        f"tx_rate_per_s = {tx_rate_per_s}\n"
        "seed = 1\n"
        "delay_min_ms = 5\n"
        "delay_max_ms = 50\n"
        "verify = fixed\n"
    )
    if attacker:
        text += (
            "[sealer 2]\n"
            "policy = malicious\n"
            "forced_difficulty = 2\n"
            "zero_delay = true\n"
            "bypass_recents = true\n"
        )
    return parse_scenario(text)


RUNS = {
    **{name: dataclasses.replace(preset_config(name), seed=1) for name in ("honest", "attack", "fixed")},
    "honest-long-10min": workload_shape(5, 10, 10),
    "fixed-wide-2min": workload_shape(21, 2, 10, attacker=True),
    "tx-heavy-1min": workload_shape(5, 1, 2000),
}

# run -> (schedule calls, entries left in the queue after the drain)
PINS = {
    "honest": (4_384, 5),
    "attack": (6_854, 12),
    "fixed": (7_470, 3),
    "honest-long-10min": (1_469, 5),
    "fixed-wide-2min": (1_927, 24),
    "tx-heavy-1min": (154, 4),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_event_counts_match_pins(name):
    config = RUNS[name]
    sim = build_simulation(config)
    sim.run_until(config.duration_ms)
    assert (sim._next_seq, len(sim._queue)) == PINS[name]

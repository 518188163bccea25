"""``IdRanges`` and a header's ``tx_runs`` driven against a plain ``set`` model.

A range starts either anywhere in a small interval or at a bound of the
ranges already held, and is short, so empty, touching, overlapping and
fully covering ranges all come up often; the edge-case test spells out
one of each. The same kinds of runs are drawn for a header, which must
accept exactly the one canonical run list of each id set. The example
counts come from the hypothesis profile that ``conftest`` loads.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cliquesim import BlockHeader
from cliquesim.workload import IdRanges

from conftest import runs_of


def apply_and_check(ranges, model, op):
    """Apply ``op`` to both, then require the ranges to be exactly the model's maximal runs."""
    name, *args = op
    if name == "add":
        ranges.add(*args)
        model.update(range(*args))
    elif name == "remove":
        ranges.remove(*args)
        model.difference_update(range(*args))
    else:
        (cap,) = args
        expected = sorted(model)[:cap]
        assert ranges.take(cap) == tuple(runs_of(expected))
        model.difference_update(expected)
    assert ranges.runs() == runs_of(sorted(model)), op
    assert len(ranges) == len(model)
    assert list(ranges) == sorted(model)


# An op is (name, start, length). A start is an id in 0..40 or
# ("bound", k): the k-th bound of the ranges held when the op runs, modulo
# their number. Lengths run from -2 to 6, so many short ranges are held at
# once and a range is often empty. A take reads the length as its cap, and
# a negative length as no cap.
starts = st.integers(0, 40) | st.tuples(st.just("bound"), st.integers(0, 20))
ops = st.lists(
    st.tuples(st.sampled_from(("add", "add", "remove", "take")), starts, st.integers(-2, 6)),
    min_size=10,
    max_size=40,
)


def resolve(start, model):
    if isinstance(start, int):
        return start
    bounds = [bound for run in runs_of(sorted(model)) for bound in run]
    return bounds[start[1] % len(bounds)] if bounds else 0


@given(ops)
def test_id_ranges_match_a_set(ops):
    ranges, model = IdRanges(), set()
    for name, start, length in ops:
        if name == "take":
            op = (name, length if length >= 0 else None)
        else:
            start = resolve(start, model)
            op = (name, start, start + length)
        apply_and_check(ranges, model, op)


@pytest.mark.parametrize(
    "ops",
    [
        [("add", 0, 10), ("add", 10, 20), ("remove", 5, 15), ("add", 0, 40), ("take", 3)],
        [("add", 5, 10), ("add", 20, 25), ("add", 0, 30), ("remove", 0, 30), ("take", None)],
        [("add", 10, 20), ("add", 3, 3), ("remove", 12, 8), ("take", 0)],
        [("add", 0, 5), ("add", 10, 15), ("add", 5, 7), ("add", 8, 10), ("remove", 0, 16)],
        [("add", 0, 5), ("add", 10, 15), ("remove", 0, 5), ("remove", 12, 15), ("take", 9)],
    ],
    ids=["tail", "covering", "empty", "touching", "whole-ranges"],
)
def test_id_ranges_edge_cases(ops):
    ranges, model = IdRanges(), set()
    for op in ops:
        apply_and_check(ranges, model, op)


def header(tx_runs):
    return BlockHeader(
        number=1,
        parent=b"\x01" * 32,
        sealer_index=0,
        sealer_addr=f"0x{0:040x}",
        difficulty=1,
        sim_time_ms=5000,
        tx_runs=tx_runs,
    )


# A canonical run list is drawn as a first start and (gap, length) steps
# of at least 1: each run starts ``gap`` past the previous stop and holds
# ``length`` ids. A fault, when one is drawn, replaces one step: a gap of
# 0 makes its run touch the previous one, a negative gap makes it overlap
# or precede it, and a length below 1 makes it empty or reversed.
run_steps = st.lists(st.tuples(st.integers(1, 3), st.integers(1, 4)), max_size=6)
faults = st.none() | st.tuples(st.integers(0, 5), st.integers(-3, 0), st.integers(-1, 4))


@given(st.integers(-5, 5), run_steps, faults, st.randoms(use_true_random=False))
def test_header_accepts_exactly_the_canonical_run_list_of_its_ids(first, steps, fault, rng):
    if fault is not None and steps:
        index, gap, length = fault
        steps[index % len(steps)] = (gap, length)
    runs, stop = [], first
    for gap, length in steps:
        start = stop + gap
        stop = start + length
        runs.append((start, stop))
    ids = sorted({i for start, stop in runs for i in range(start, stop)})
    if runs != runs_of(ids):
        with pytest.raises(ValueError, match="non-empty, ascending and non-touching"):
            header(tuple(runs))
        return
    block = header(tuple(runs))
    assert block.tx_ids == tuple(ids)
    assert block.tx_count == len(ids)
    # The same id set reached another way encodes, and so hashes, the same.
    pool = IdRanges()
    for i in rng.sample(ids, len(ids)):
        pool.add(i, i + 1)
    assert header(pool.take()).digest == block.digest


@pytest.mark.parametrize(
    "tx_runs",
    [((3, 3),), ((4, 2),), ((5, 7), (0, 2)), ((0, 3), (2, 5)), ((0, 2), (2, 4)), ((0, 2), (0, 2))],
    ids=["empty", "reversed", "unsorted", "overlapping", "touching", "repeated"],
)
def test_header_rejects_non_canonical_runs(tx_runs):
    with pytest.raises(ValueError, match="non-empty, ascending and non-touching"):
        header(tx_runs)

"""``IdRanges`` and ``id_runs`` driven against a plain ``set`` model.

A range starts either anywhere in a small interval or at a bound of the
ranges already held, and is short, so empty, touching, overlapping and
fully covering ranges all come up often; the edge-case test spells out
one of each. The examples are derandomised, so every run checks the same
cases.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquesim.chain import id_runs
from cliquesim.workload import IdRanges


def runs_of(sorted_ids):
    """Independent oracle: group ascending ids into maximal ``(start, stop)`` runs."""
    runs = []
    for i in sorted_ids:
        if runs and runs[-1][1] == i:
            runs[-1][1] = i + 1
        else:
            runs.append([i, i + 1])
    return [tuple(run) for run in runs]


def apply_and_check(ranges, model, op):
    """Apply ``op`` to both, then require the ranges to be exactly the model's maximal runs."""
    name, *args = op
    if name == "add":
        ranges.add(*args)
        model.update(range(*args))
    elif name == "remove":
        ranges.remove(*args)
        model.difference_update(range(*args))
    elif name == "overlap":
        start, stop = args
        assert ranges.overlap(start, stop) == runs_of(sorted(model.intersection(range(start, stop))))
    else:
        (cap,) = args
        expected = sorted(model)[:cap]
        assert ranges.take(cap) == tuple(expected)
        model.difference_update(expected)
    # IdRanges has no public view of its ranges, so this reads its bound lists.
    assert list(zip(ranges._starts, ranges._stops)) == runs_of(sorted(model)), op
    assert len(ranges) == len(model)
    assert list(ranges) == sorted(model)


# An op is (name, start, length). A start is an id in 0..40 or
# ("bound", k): the k-th bound of the ranges held when the op runs, modulo
# their number. Lengths run from -2 to 6, so many short ranges are held at
# once and a range is often empty. A take reads the length as its cap, and
# a negative length as no cap.
starts = st.integers(0, 40) | st.tuples(st.just("bound"), st.integers(0, 20))
ops = st.lists(
    st.tuples(st.sampled_from(("add", "add", "remove", "overlap", "take")), starts, st.integers(-2, 6)),
    min_size=10,
    max_size=40,
)


def resolve(start, model):
    if isinstance(start, int):
        return start
    bounds = [bound for run in runs_of(sorted(model)) for bound in run]
    return bounds[start[1] % len(bounds)] if bounds else 0


@settings(max_examples=100, deadline=None, derandomize=True)
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
        [("add", 10, 20), ("add", 3, 3), ("remove", 12, 8), ("overlap", 0, 40), ("take", 0)],
        [("add", 0, 5), ("add", 10, 15), ("add", 5, 7), ("add", 8, 10), ("remove", 0, 16)],
        [("add", 0, 5), ("add", 10, 15), ("remove", 0, 5), ("remove", 12, 15), ("take", 9)],
    ],
    ids=["tail", "covering", "empty", "touching", "whole-ranges"],
)
def test_id_ranges_edge_cases(ops):
    ranges, model = IdRanges(), set()
    for op in ops:
        apply_and_check(ranges, model, op)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 60)), max_size=8), st.integers(0, 10**9))
def test_id_runs_splits_ascending_ids_into_maximal_runs(gaps_and_lengths, first):
    # Runs of drawn lengths separated by drawn gaps, so long consecutive
    # stretches and single ids both occur.
    sorted_ids = []
    start = first
    for gap, length in gaps_and_lengths:
        sorted_ids.extend(range(start, start + length))
        start += length + gap
    assert list(id_runs(tuple(sorted_ids))) == runs_of(sorted_ids)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 12), max_size=12))
def test_id_runs_accounts_any_tuple_or_raises(drawn):
    ids = tuple(drawn)
    if any(a >= b for a, b in zip(ids, ids[1:])):
        with pytest.raises(ValueError):
            id_runs(ids)
    else:
        assert list(id_runs(ids)) == runs_of(ids)


@pytest.mark.parametrize("ids", [(0, 1, 1, 3), (0, 2, 1, 3), (0, 2, 2, 2, 4), (7, 9, 9, 10)])
def test_id_runs_rejects_unsorted_or_duplicate_ids(ids):
    # Each spans as many ids from first to last as it holds, so that test
    # alone would take it for one consecutive run.
    with pytest.raises(ValueError, match="strictly ascending"):
        id_runs(ids)

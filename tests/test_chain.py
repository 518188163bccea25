import dataclasses
import hashlib
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cliquesim import (
    BlockHeader,
    ChainStore,
    DuplicateBlockError,
    UnknownBlockError,
    UnknownParentError,
    hash_header,
    make_genesis,
)

from conftest import brute_force_head, canonical_diff, child_header, children, grow, path_difficulty


# -- hashing -----------------------------------------------------------------

def test_hash_is_deterministic():
    assert hash_header(make_genesis()) == hash_header(make_genesis())


def test_hash_changes_with_difficulty(store):
    one = child_header(store, store.genesis, difficulty=1)
    two = child_header(store, store.genesis, difficulty=2)
    assert hash_header(one) != hash_header(two)


def test_hash_changes_with_tx_count(store):
    a = child_header(store, store.genesis, tx_runs=((0, 50),))
    b = child_header(store, store.genesis, tx_runs=((0, 49),))
    assert hash_header(a) != hash_header(b)


def test_hash_changes_with_each_field(store):
    base = child_header(store, store.genesis)
    for variant in (
        child_header(store, store.genesis, sealer_index=1),
        child_header(store, store.genesis, time_ms=9999),
        child_header(store, store.genesis, addr="0xdeadbeef"),
    ):
        assert hash_header(variant) != hash_header(base)


# Runs as (gap, length) pairs: each run starts at least one id past the
# last one's stop, so any draw is canonical. Values reach far past 2**64.
BIG = st.integers(0, 2**80)
GAPS_AND_LENGTHS = st.lists(st.tuples(st.integers(1, 2**70), st.integers(1, 2**70)), max_size=12)


@given(
    number=BIG,
    parent=st.binary(min_size=32, max_size=32),
    sealer_index=BIG,
    sealer_addr=st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=50),
    difficulty=BIG,
    sim_time_ms=BIG,
    gaps_and_lengths=GAPS_AND_LENGTHS,
)
@example(number=0, parent=b"\x00" * 32, sealer_index=0, sealer_addr="0x" + "0" * 40,
         difficulty=0, sim_time_ms=0, gaps_and_lengths=[])
@example(number=7, parent=b"\xff" * 32, sealer_index=3, sealer_addr="0xab",
         difficulty=2, sim_time_ms=7000, gaps_and_lengths=[(5, 10)])
@example(number=2**64, parent=bytes(range(32)), sealer_index=2**40, sealer_addr="0x",
         difficulty=2**70, sim_time_ms=2**63, gaps_and_lengths=[(1, 1), (2, 3), (2**40, 2**40)])
def test_digest_is_sha256_of_the_documented_encoding(
    number, parent, sealer_index, sealer_addr, difficulty, sim_time_ms, gaps_and_lengths
):
    """``number|parent hex|sealer_index|sealer_addr|difficulty|sim_time_ms|start:stop,...``"""
    tx_runs, stop = [], -1
    for gap, length in gaps_and_lengths:
        start = stop + gap
        stop = start + length
        tx_runs.append((start, stop))
    header = BlockHeader(number, parent, sealer_index, sealer_addr, difficulty, sim_time_ms, tuple(tx_runs))
    fields = [
        "%d" % number, parent.hex(), "%d" % sealer_index, sealer_addr,
        "%d" % difficulty, "%d" % sim_time_ms, ",".join("%d:%d" % run for run in tx_runs),
    ]
    assert header.digest == hashlib.sha256("|".join(fields).encode("ascii")).digest()
    assert hash_header(header) == header.digest
    assert header.tx_count == sum(stop - start for start, stop in tx_runs)
    # A header is a slotted value: one built from equal fields is equal, hashes
    # equal and is one element of a set.
    assert not hasattr(header, "__dict__")
    twin = BlockHeader(number, parent, sealer_index, sealer_addr, difficulty, sim_time_ms, tuple(tx_runs))
    assert twin is not header and twin == header and hash(twin) == hash(header)
    assert len({header, twin}) == 1
    # Both are derived, so a replace recomputes them.
    bumped = dataclasses.replace(header, number=number + 1, tx_runs=())
    fresh = BlockHeader(number + 1, parent, sealer_index, sealer_addr, difficulty, sim_time_ms)
    assert (bumped.tx_count, bumped.digest) == (0, fresh.digest)
    assert bumped != header and len({header, bumped, fresh}) == 2
    restored = dataclasses.replace(bumped, number=number, tx_runs=tuple(tx_runs))
    assert restored == header and hash(restored) == hash(header) and restored.digest == header.digest


# -- insertion ---------------------------------------------------------------

def test_extend_genesis_then_child(store):
    child = child_header(store, store.genesis)
    child_hash = store.extend(child)
    assert child_hash in store
    assert children(store, store.genesis) == [child_hash]


def test_extend_unknown_parent(store):
    orphan = dataclasses.replace(
        child_header(store, store.genesis), parent=b"\x11" * 32, number=5
    )
    with pytest.raises(UnknownParentError):
        store.extend(orphan)


def test_extend_duplicate(store):
    child = child_header(store, store.genesis)
    store.extend(child)
    size = len(store)
    with pytest.raises(DuplicateBlockError):
        store.extend(child)
    assert len(store) == size


def test_extend_rejects_bad_number(store):
    bad = dataclasses.replace(child_header(store, store.genesis), number=7)
    with pytest.raises(Exception):
        store.extend(bad)


# -- total difficulty ----------------------------------------------------------

def test_total_difficulty_genesis_is_zero(store):
    assert store.total_difficulty(store.genesis) == 0


def test_total_difficulty_three_inturn_blocks(store):
    tip = store.genesis
    for _ in range(3):
        tip = grow(store, tip, difficulty=2)
    assert store.total_difficulty(tip) == 6


def test_total_difficulty_mixed_chain_matches_path_walk(store):
    tip = grow(store, store.genesis, difficulty=2)
    tip = grow(store, tip, difficulty=2)
    tip = grow(store, tip, difficulty=1)
    expected = path_difficulty(store, tip)
    assert expected == 5
    assert store.total_difficulty(tip) == expected


def test_total_difficulty_unknown_block(store):
    with pytest.raises(UnknownBlockError):
        store.total_difficulty(b"\x22" * 32)


def test_total_difficulty_recurrence_random_tree():
    rng = random.Random(11)
    store = ChainStore()
    hashes = [store.genesis]
    for i in range(40):
        parent = rng.choice(hashes)
        hashes.append(grow(store, parent, sealer_index=rng.randrange(5),
                           difficulty=rng.choice((1, 2)), time_ms=1000 + i))
    for h in hashes[1:]:
        header = store.header(h)
        assert store.total_difficulty(h) == (
            store.total_difficulty(header.parent) + header.difficulty
        )


# -- fork choice ----------------------------------------------------------------

def test_select_head_prefers_heavier_child(store):
    heavy = grow(store, store.genesis, sealer_index=1, difficulty=2)
    grow(store, store.genesis, sealer_index=2, difficulty=1)
    assert store.select_head() == heavy


def test_select_head_tie_goes_to_first_received(store):
    first = grow(store, store.genesis, sealer_index=1, difficulty=1)
    grow(store, store.genesis, sealer_index=2, difficulty=1)
    assert store.select_head() == first
    assert store.select_head() == brute_force_head(store)


def test_select_head_linear_chain(store):
    tip = store.genesis
    for _ in range(4):
        tip = grow(store, tip, difficulty=2)
    assert store.select_head() == tip


def test_select_head_stable_under_light_inserts(store):
    head = grow(store, store.genesis, difficulty=2)
    before = store.select_head()
    grow(store, store.genesis, sealer_index=2, difficulty=1)  # lighter fork
    assert store.select_head() == before == head


def test_select_head_matches_brute_force_on_random_trees():
    rng = random.Random(202)
    for _ in range(50):
        store = ChainStore()
        hashes = [store.genesis]
        for i in range(rng.randrange(1, 50)):
            parent = rng.choice(hashes)
            hashes.append(
                grow(
                    store,
                    parent,
                    sealer_index=rng.randrange(7),
                    difficulty=rng.choice((0, 1, 1, 2, 2)),
                    time_ms=1000 + i,
                )
            )
        assert store.select_head() == brute_force_head(store)


def test_select_head_matches_brute_force_after_every_extend():
    # Extending the current head often makes a zero-difficulty child of the
    # best tip, which leaves an earlier tip of equal weight in the lead.
    rng = random.Random(303)
    for _ in range(100):
        store = ChainStore()
        hashes = [store.genesis]
        for i in range(rng.randrange(1, 40)):
            parent = store.select_head() if rng.random() < 0.3 else rng.choice(hashes)
            hashes.append(
                grow(
                    store,
                    parent,
                    sealer_index=rng.randrange(7),
                    difficulty=rng.choice((0, 1, 1, 2, 2)),
                    time_ms=1000 + i,
                )
            )
            assert store.select_head() == brute_force_head(store)


# -- canonical chain --------------------------------------------------------------

def test_canonical_chain_of_genesis(store):
    chain = store.canonical_chain(store.genesis)
    assert chain == [store.header(store.genesis)] and chain[0].is_genesis()


def test_canonical_chain_linear(store):
    tip = store.genesis
    for _ in range(10):
        tip = grow(store, tip, difficulty=2)
    chain = store.canonical_chain(tip)
    assert len(chain) == 11
    assert [h.number for h in chain] == list(range(11))


def test_canonical_chain_at_a_three_block_head_skips_a_side_branch(store):
    a1 = grow(store, store.genesis)
    a2 = grow(store, a1)
    a3 = grow(store, a2)
    grow(store, a2, sealer_index=1)  # a side branch the walk must not see
    assert store.canonical_chain(a3) == [store.header(h) for h in (store.genesis, a1, a2, a3)]


def test_canonical_chain_after_reorg(store):
    light = grow(store, store.genesis, sealer_index=1, difficulty=1)
    grow(store, light, sealer_index=2, difficulty=1)
    heavy = grow(store, store.genesis, sealer_index=3, difficulty=2)
    heavy_tip = grow(store, heavy, sealer_index=4, difficulty=2)
    head = store.select_head()
    assert head == heavy_tip == brute_force_head(store)
    chain = store.canonical_chain(head)
    assert [h.sealer_index for h in chain[1:]] == [3, 4]
    assert [h.number for h in chain] == [0, 1, 2]


def test_canonical_chain_unknown_head(store):
    with pytest.raises(UnknownBlockError):
        store.canonical_chain(b"\x33" * 32)


def test_canonical_numbers_have_no_gaps_random():
    rng = random.Random(5)
    store = ChainStore()
    hashes = [store.genesis]
    for i in range(30):
        hashes.append(grow(store, rng.choice(hashes), sealer_index=rng.randrange(4),
                           difficulty=rng.choice((1, 2)), time_ms=1000 + i))
    chain = store.canonical_chain(store.select_head())
    assert [h.number for h in chain] == list(range(len(chain)))


# -- reorg diff --------------------------------------------------------------

def test_reorg_cases(store):
    a1 = grow(store, store.genesis)
    a2 = grow(store, a1)
    a3 = grow(store, a2)
    b2 = grow(store, a1, sealer_index=4)
    h = store.header
    assert store.reorg(a3, a3) == ([], [])
    assert store.reorg(a1, a3) == ([], [h(a2), h(a3)])
    assert store.reorg(a3, a1) == ([h(a2), h(a3)], [])
    assert store.reorg(a3, b2) == ([h(a2), h(a3)], [h(b2)])
    assert store.reorg(b2, a3) == ([h(b2)], [h(a2), h(a3)])
    assert store.reorg(store.genesis, a3) == ([], [h(a1), h(a2), h(a3)])
    # One-block extensions of the old head: the walk stops after one step of the new side.
    assert store.reorg(a2, a3) == ([], [h(a3)])
    assert store.reorg(a1, b2) == ([], [h(b2)])
    assert store.reorg(store.genesis, a1) == ([], [h(a1)])
    with pytest.raises(UnknownBlockError):
        store.reorg(a3, b"\x44" * 32)


def test_reorg_and_canonical_chain_match_parent_links_on_random_trees():
    rng = random.Random(404)
    for _ in range(30):
        store = ChainStore()
        hashes = [store.genesis]
        for i in range(60):
            hashes.append(grow(store, rng.choice(hashes), sealer_index=rng.randrange(5),
                               difficulty=rng.choice((0, 1, 2)), time_ms=1000 + i))
        for _ in range(30):
            old, new = rng.choice(hashes), rng.choice(hashes)
            assert store.reorg(old, new) == canonical_diff(store, old, new)
            # From genesis to ``new`` along parent links, so no side branch.
            chain = store.canonical_chain(new)
            assert chain[0].is_genesis() and chain[-1] is store.header(new)
            assert all(child.parent == hash_header(parent) for parent, child in zip(chain, chain[1:]))
        # Every one-block extension in the tree, the shortest walk there is.
        for new in hashes[1:]:
            parent = store.header(new).parent
            assert store.reorg(parent, new) == canonical_diff(store, parent, new)

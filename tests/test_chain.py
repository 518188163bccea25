import dataclasses
import random

import pytest

from cliquesim import (
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
    assert len(chain) == 1 and chain[0].is_genesis()


def test_canonical_chain_linear(store):
    tip = store.genesis
    for _ in range(10):
        tip = grow(store, tip, difficulty=2)
    chain = store.canonical_chain(tip)
    assert len(chain) == 11
    assert [h.number for h in chain] == list(range(11))


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


# -- reorg diff and chain tail ------------------------------------------------------

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


def test_reorg_and_chain_tail_match_full_chains_on_random_trees():
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
            depth = rng.randrange(6)
            chain = store.canonical_chain(new)
            assert store.chain_tail(new, depth) == chain[max(0, len(chain) - depth):]
        # Every one-block extension in the tree, the shortest walk there is.
        for new in hashes[1:]:
            parent = store.header(new).parent
            assert store.reorg(parent, new) == canonical_diff(store, parent, new)

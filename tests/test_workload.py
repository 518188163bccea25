import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cliquesim import BlockHeader, Mempool, make_genesis, tx_batch_schedule

from conftest import runs_of


def blk(number, tx_runs, sealer=0):
    return BlockHeader(
        number=number,
        parent=b"\x01" * 32,
        sealer_index=sealer,
        sealer_addr=f"0x{sealer:040x}",
        difficulty=1,
        sim_time_ms=number * 5000,
        tx_runs=tuple(tx_runs),
    )


def filled(n, start=0):
    pool = Mempool()
    pool.add(range(start, start + n))
    return pool


# -- stream -------------------------------------------------------------------

def test_stream_thirty_minutes_at_ten_per_second():
    batches = list(tx_batch_schedule(10, 1_800_000))
    assert sum(len(txs) for _, txs in batches) == 18_000
    assert batches[0][0] == 1000 and batches[-1][0] == 1_800_000


def test_stream_one_second():
    batches = tx_batch_schedule(10, 1000)
    assert sum(len(txs) for _, txs in batches) == 10


def test_stream_zero_duration():
    assert list(tx_batch_schedule(1, 0)) == []


def test_stream_is_lazy():
    """A stream for any duration costs nothing until its batches are drawn."""
    batches = tx_batch_schedule(3, 10**15)
    assert next(batches) == (1000, range(0, 3))
    assert next(batches) == (2000, range(3, 6))


def test_stream_ids_unique_and_monotone():
    batches = tx_batch_schedule(7, 9000)
    ids = [tx for _, txs in batches for tx in txs]
    assert ids == sorted(ids) and len(set(ids)) == len(ids)


def test_stream_rejects_zero_rate():
    """The rate is checked at the call, before any batch is drawn."""
    with pytest.raises(ValueError):
        tx_batch_schedule(0, 1000)


# -- packing ------------------------------------------------------------------

def test_pack_everything_fifo():
    pool = Mempool()
    pool.add(range(3))
    assert pool.pack_block() == ((0, 3),)
    assert set(pool.pending) == set()


def test_pack_respects_cap():
    pool = filled(50)
    packed = pool.pack_block(cap=10)
    assert packed == ((0, 10),)
    assert len(pool.pending) == 40


def test_pack_empty_mempool():
    assert Mempool().pack_block() == ()


def test_pack_rejects_a_negative_cap():
    """A negative cap would pack, and leave pending, ids no batch created."""
    pool = filled(10)
    with pytest.raises(ValueError, match="cap"):
        pool.pack_block(-3)
    assert pool.pending.runs() == [(0, 10)]


def test_pack_skips_canonical():
    # a rejected own block hands back ids a peer's block has made canonical since
    pool = filled(5)
    packed = pool.pack_block()
    pool.on_canonical_update([], [blk(1, [(0, 1), (3, 4)], sealer=2)])
    pool.restore(packed)
    assert pool.pack_block() == ((1, 3), (4, 5))


def test_restore_reinstates_packed_txs():
    pool = filled(3)
    packed = pool.pack_block()
    pool.restore(packed)
    assert sorted(pool.pending) == [0, 1, 2]


# -- reorg handling -------------------------------------------------------------

def test_canonical_update_no_reorg():
    pool = filled(2, start=100)
    genesis = make_genesis()
    old = [genesis, blk(1, [(0, 2)])]
    new = [genesis, blk(1, [(0, 2)]), blk(2, [(2, 3)])]
    pool.on_canonical_update(old, new)
    assert sorted(pool.pending) == [100, 101]


def test_canonical_update_same_txs_both_sides():
    pool = Mempool()
    genesis = make_genesis()
    old = [genesis, blk(1, [(0, 2)], sealer=1)]
    new = [genesis, blk(1, [(0, 2)], sealer=2)]
    pool.on_canonical_update(old, new)
    assert set(pool.pending) == set()
    assert set(pool.canonical) == {0, 1}


def test_canonical_update_abandoned_block_repends_txs():
    # oracle: exactly the set difference (abandoned - adopted) returns
    abandoned_txs = set(range(50))
    adopted_txs = set()
    expected = abandoned_txs - adopted_txs
    pool = Mempool()
    genesis = make_genesis()
    pool.on_canonical_update(
        [genesis, blk(1, runs_of(sorted(abandoned_txs)))],
        [genesis, blk(1, runs_of(sorted(adopted_txs)), sealer=2)],
    )
    assert set(pool.pending) == expected


def test_canonical_update_drops_newly_adopted_from_pending():
    pool = filled(4)
    genesis = make_genesis()
    pool.on_canonical_update([genesis], [genesis, blk(1, [(1, 3)])])
    assert sorted(pool.pending) == [0, 3]


def test_canonical_update_partial_overlap():
    pool = Mempool()
    genesis = make_genesis()
    old = [genesis, blk(1, [(0, 3)])]
    new = [genesis, blk(1, [(2, 4)], sealer=2), blk(2, [(4, 5)], sealer=3)]
    pool.on_canonical_update(old, new)
    assert sorted(pool.pending) == [0, 1]
    assert set(pool.canonical) == {2, 3, 4}


# -- merged updates --------------------------------------------------------------
#
# ``on_canonical_update`` applies each branch as the union of its blocks'
# runs. These properties compare it with a per-header model, and check that
# a restore commutes with a later adoption, on random ledgers and branches.
# The example counts come from the hypothesis profile that ``conftest`` loads.


def per_header_update(pool, abandoned, adopted):
    """Reference: apply every run of every block, one at a time and in order."""
    for header in abandoned:
        for start, stop in header.tx_runs:
            pool.canonical.remove(start, stop)
            pool.pending.add(start, stop)
    for header in adopted:
        for start, stop in header.tx_runs:
            pool.canonical.add(start, stop)
            pool.pending.remove(start, stop)


# A ledger is two lists of (start, length) ranges: the canonical ids, and
# pending ids, which lose any id the canonical ranges hold.
id_ranges = st.lists(st.tuples(st.integers(0, 50), st.integers(1, 8)), max_size=8)
ledgers = st.tuples(id_ranges, id_ranges)


def make_ledger(ledger):
    pending, canonical = ledger
    pool = Mempool()
    for start, length in canonical:
        pool.canonical.add(start, start + length)
    for start, length in pending:
        pool.pending.add(start, start + length)
    for start, stop in pool.canonical.runs():
        pool.pending.remove(start, stop)
    return pool


@st.composite
def block_runs(draw, last_stop=0):
    """A block's canonical runs. The first starts just below, at or just past
    ``last_stop`` (overlapping, touching or gapped with the block before it),
    or anywhere in 0..40; zero runs make an empty block, as under ``tx_cap = 0``."""
    start = draw(st.integers(max(0, last_stop - 6), last_stop + 3) | st.integers(0, 40))
    runs = []
    for _ in range(draw(st.integers(0, 3))):
        stop = start + draw(st.integers(1, 5))
        runs.append((start, stop))
        start = stop + draw(st.integers(1, 4))
    return runs


@st.composite
def branches(draw):
    """Zero to six blocks, each drawn against the last stop of the ones before it."""
    headers, last_stop = [], draw(st.integers(0, 20))
    for number in range(1, draw(st.integers(0, 6)) + 1):
        runs = draw(block_runs(last_stop))
        headers.append(blk(number, runs))
        last_stop = runs[-1][1] if runs else last_stop
    return headers


@given(ledgers, branches(), branches())
@example(([(0, 10)], [(10, 5)]), [blk(1, []), blk(2, [])], [blk(1, []), blk(2, []), blk(3, [])])
@example(([(0, 30)], []), [], [blk(1, [(0, 4)]), blk(2, [(4, 9)]), blk(3, [(9, 12), (14, 15)])])
def test_merged_canonical_update_matches_per_header_updates(ledger, abandoned, adopted):
    merged, reference = make_ledger(ledger), make_ledger(ledger)
    merged.on_canonical_update(abandoned, adopted)
    per_header_update(reference, abandoned, adopted)
    assert merged.pending.runs() == reference.pending.runs()
    assert merged.canonical.runs() == reference.canonical.runs()


@given(ledgers, block_runs(), branches())
def test_restore_commutes_with_a_later_adoption(ledger, restored, lag):
    """A node restores a rejected own block's ids without first adopting the
    blocks its head gained since its mempool last followed it."""
    restore_first, adopt_first = make_ledger(ledger), make_ledger(ledger)
    restore_first.restore(tuple(restored))
    restore_first.on_canonical_update((), lag)
    adopt_first.on_canonical_update((), lag)
    adopt_first.restore(tuple(restored))
    assert restore_first.pending.runs() == adopt_first.pending.runs()
    assert restore_first.canonical.runs() == adopt_first.canonical.runs()


# -- reference model ------------------------------------------------------------

class ReferenceMempool:
    """The dict-based mempool, tx id -> created_ms, FIFO by (created_ms, id), and its canonical set."""

    def __init__(self):
        self.pending = {}
        self.canonical = set()

    def add(self, stamped):
        for tx_id, created_ms in stamped:
            self.pending.setdefault(tx_id, created_ms)

    def pack_block(self, cap=None):
        order = sorted(
            (tx_id for tx_id in self.pending if tx_id not in self.canonical),
            key=lambda tx_id: (self.pending[tx_id], tx_id),
        )
        if cap is not None:
            order = order[:cap]
        for tx_id in order:
            del self.pending[tx_id]
        return tuple(order)

    def restore(self, tx_ids, created):
        for tx_id in tx_ids:
            self.pending.setdefault(tx_id, created[tx_id])

    def on_canonical_update(self, abandoned, adopted, created):
        abandoned_ids = {tx for header in abandoned for tx in header.tx_ids}
        adopted_ids = {tx for header in adopted for tx in header.tx_ids}
        for tx_id in abandoned_ids - adopted_ids:
            self.pending.setdefault(tx_id, created[tx_id])
        for tx_id in adopted_ids:
            self.pending.pop(tx_id, None)
        self.canonical = (self.canonical - abandoned_ids) | adopted_ids


def random_branches(rng, ids):
    """Two branches of 0-3 blocks whose tx sets overlap in part."""
    shared = rng.sample(ids, min(len(ids), rng.randrange(4)))

    def branch():
        return [
            blk(n, runs_of(sorted(set(shared + rng.sample(ids, min(len(ids), rng.randrange(6)))))))
            for n in range(1, rng.randrange(4) + 1)
        ]

    return branch(), branch()


@pytest.mark.parametrize("seed", range(25))
def test_mempool_matches_dict_reference_model(seed):
    """The reference adds each batch when it is created; the pool catches up before each use.

    A batch only raises ``generated``, as a tx batch event raises the
    simulation's count, and the pool adds the new ids in one
    ``catch_up`` just before a pack or canonical update, but not before
    a restore. After every step the pool's pending ids plus those from
    its frontier up to ``generated`` must be the reference's pending ids.
    """
    rng = random.Random(seed)
    rate = rng.randrange(1, 12)
    batches = iter(tx_batch_schedule(rate, rng.randrange(20, 60) * 1000))
    pool, reference = Mempool(), ReferenceMempool()
    created: dict[int, int] = {}
    generated = 0
    packed_blocks: list[tuple[int, ...]] = []
    gapped = spanned = 0

    def catch_up():
        nonlocal spanned
        spanned += generated - pool.frontier > rate
        pool.catch_up(generated)

    for _ in range(300):
        op = rng.choice(("add", "add", "pack", "pack", "restore", "update"))
        ids = sorted(created)
        if op == "add":
            batch = next(batches, None)
            if batch is None:
                continue
            at_ms, txs = batch
            stamped = [(tx, at_ms) for tx in txs]
            created.update(stamped)
            generated = txs.stop
            reference.add(stamped)
        elif op == "pack":
            cap = rng.choice((None, 0, 1, 2, 3, 5))
            packed = reference.pack_block(cap)
            catch_up()
            assert pool.pack_block(cap) == tuple(runs_of(packed))
            packed_blocks.append(packed)
        elif op == "restore":
            if not packed_blocks:
                continue
            # Restore one packed block, or two at once as one run list,
            # which then usually has gaps.
            restored = set()
            for _ in range(min(len(packed_blocks), rng.choice((1, 2)))):
                restored.update(packed_blocks.pop(rng.randrange(len(packed_blocks))))
            runs = tuple(runs_of(sorted(restored)))
            gapped += len(runs) > 1
            pool.restore(runs)
            reference.restore(restored, created)
        else:
            abandoned, adopted = random_branches(rng, ids)
            catch_up()
            pool.on_canonical_update(abandoned, adopted)
            reference.on_canonical_update(abandoned, adopted, created)
        pending = set(pool.pending)
        assert max(pending, default=-1) < pool.frontier
        assert pool.frontier <= generated
        assert pending | set(range(pool.frontier, generated)) == set(reference.pending) - reference.canonical
        assert set(pool.canonical) == reference.canonical
    assert gapped, "no restore handed back more than one run"
    assert spanned, "no catch-up added more than one batch"

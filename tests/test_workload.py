import random
from itertools import islice

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cliquesim import GENESIS, BlockHeader, Mempool, tx_batch_schedule
from cliquesim.workload import _union as union

from conftest import runs_of, tx_ids_of


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


@given(st.integers(1, 5000), st.integers(0, 10**7))
@example(1, 999)
@example(5000, 10**7)
@example(7, 1999)
def test_stream_matches_its_formula(rate, t_end_ms):
    """Batch k, at k·1000 ms, holds ids (k−1)·rate up to k·rate, for every whole second up to the end."""
    assert list(tx_batch_schedule(rate, t_end_ms)) == [
        (k * 1000, range((k - 1) * rate, k * rate)) for k in range(1, t_end_ms // 1000 + 1)
    ]


@given(st.integers(1, 5000), st.integers(1, 20_000))
def test_stream_batch_deep_into_an_endless_run(rate, k):
    """Batch k of a 10^15 ms stream, read through ``islice``; a stream built eagerly would not fit in memory."""
    batch = next(islice(tx_batch_schedule(rate, 10**15), k - 1, None))
    assert batch == (k * 1000, range((k - 1) * rate, k * rate))


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
    own = blk(1, pool.pack_block())
    peer = blk(1, [(0, 1), (3, 4)], sealer=2)
    pool.on_canonical_update([], [peer])
    pool.on_canonical_update((own,), [peer])  # the own block abandoned, the peer's gain adopted
    assert pool.pack_block() == ((1, 3), (4, 5))


def test_restore_reinstates_packed_txs():
    pool = filled(3)
    own = blk(1, pool.pack_block())
    pool.on_canonical_update((own,), ())
    assert sorted(pool.pending) == [0, 1, 2]


# -- reorg handling -------------------------------------------------------------

def test_canonical_update_no_reorg():
    pool = filled(2, start=100)
    old = [GENESIS, blk(1, [(0, 2)])]
    new = [GENESIS, blk(1, [(0, 2)]), blk(2, [(2, 3)])]
    pool.on_canonical_update(old, new)
    assert sorted(pool.pending) == [100, 101]


def test_canonical_update_same_txs_both_sides():
    pool = Mempool()
    old = [GENESIS, blk(1, [(0, 2)], sealer=1)]
    new = [GENESIS, blk(1, [(0, 2)], sealer=2)]
    pool.on_canonical_update(old, new)
    assert set(pool.pending) == set()


def test_canonical_update_abandoned_block_repends_txs():
    # oracle: exactly the set difference (abandoned - adopted) returns
    abandoned_txs = set(range(50))
    adopted_txs = set()
    expected = abandoned_txs - adopted_txs
    pool = Mempool()
    pool.on_canonical_update(
        [GENESIS, blk(1, runs_of(sorted(abandoned_txs)))],
        [GENESIS, blk(1, runs_of(sorted(adopted_txs)), sealer=2)],
    )
    assert set(pool.pending) == expected


def test_canonical_update_drops_newly_adopted_from_pending():
    pool = filled(4)
    pool.on_canonical_update([GENESIS], [GENESIS, blk(1, [(1, 3)])])
    assert sorted(pool.pending) == [0, 3]


def test_canonical_update_partial_overlap():
    pool = Mempool()
    old = [GENESIS, blk(1, [(0, 3)])]
    new = [GENESIS, blk(1, [(2, 4)], sealer=2), blk(2, [(4, 5)], sealer=3)]
    pool.on_canonical_update(old, new)
    assert sorted(pool.pending) == [0, 1]


# -- merged updates --------------------------------------------------------------
#
# ``on_canonical_update`` applies each branch as its blocks' runs in chain
# order, unsorted, with runs that abut across blocks joined. These
# properties compare it with a per-header model, and check what a restore
# hands back, on random ledgers and branches.
# The example counts come from the hypothesis profile that ``conftest`` loads.


def per_header_update(pool, abandoned, adopted):
    """Reference: apply every run of every block, one at a time and in order."""
    for header in abandoned:
        for start, stop in header.tx_runs:
            pool.pending.add(start, stop)
    for header in adopted:
        for start, stop in header.tx_runs:
            pool.pending.remove(start, stop)


# A ledger is two lists of (start, length) ranges: the pending ids, which
# lose any id the canonical ranges hold, and the canonical ids.
id_ranges = st.lists(st.tuples(st.integers(0, 50), st.integers(1, 8)), max_size=8)
ledgers = st.tuples(id_ranges, id_ranges)


def make_ledger(ledger):
    pending, canonical = ledger
    pool = Mempool()
    for start, length in pending:
        pool.pending.add(start, start + length)
    for start, length in canonical:
        pool.pending.remove(start, start + length)
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
# The second block holds ids below the first's, so chain order is not id order.
@example(([(0, 30)], []), [], [blk(1, [(10, 15)]), blk(2, [(2, 6), (20, 22)])])
# Runs that abut across blocks, and one that abuts the run after it in id order only.
@example(([(0, 30)], []), [], [blk(1, [(4, 8), (12, 14)]), blk(2, [(14, 16)]), blk(3, [(8, 12), (16, 17)])])
# A gap between the adopted blocks, and an abandoned branch they overlap.
@example(
    ([(0, 10)], [(10, 10)]),
    [blk(1, [(10, 14)]), blk(2, [(14, 20)])],
    [blk(1, [(12, 13)]), blk(2, [(16, 18)]), blk(3, [(3, 5), (18, 19)])],
)
def test_merged_canonical_update_matches_per_header_updates(ledger, abandoned, adopted):
    merged, reference = make_ledger(ledger), make_ledger(ledger)
    merged.on_canonical_update(abandoned, adopted)
    per_header_update(reference, abandoned, adopted)
    assert merged.pending.runs() == reference.pending.runs()


def test_a_one_block_branch_is_applied_as_its_own_runs():
    """A single block's ``tx_runs`` feed the update as they are, with no copy;
    a longer branch's runs come in chain order, joined where they abut."""
    header = blk(1, [(3, 5), (7, 9)])
    assert union([header]) is header.tx_runs
    assert union([]) == ()
    assert union([blk(1, [(5, 8)]), blk(2, [(8, 9)]), blk(3, [(1, 3)])]) == [(5, 9), (1, 3)]
    pool = filled(10)
    pool.on_canonical_update((), [header])
    assert pool.pending.runs() == [(0, 3), (5, 7), (9, 10)]


@given(ledgers, block_runs(), branches(), branches())
# Both parts of the chain's gain hold ids of the block.
@example(([(0, 30)], []), [(4, 9), (12, 14)], [blk(1, [(0, 5)])], [blk(2, [(8, 13)])])
def test_restore_drops_the_ids_the_chain_gained(ledger, restored, followed, lag):
    """A rejected own block's ids go back to pending, except those on the
    branch the chain gained since the block's parent: ``followed``, which
    the mempool has adopted, then ``lag``, which it has not yet
    (``Node.lag``). The block comes back as the one abandoned block of an
    update that adopts that gain. Restoring before the lag's adoption
    ends where restoring after it does."""
    restore_first, adopt_first = make_ledger(ledger), make_ledger(ledger)
    for pool in (restore_first, adopt_first):
        for start, stop in restored:  # the pack took the block's ids out of pending
            pool.pending.remove(start, stop)
        pool.on_canonical_update((), followed)
    own = blk(len(followed) + 1, restored, sealer=1)
    expected = (set(restore_first.pending) | set(own.tx_ids)) - tx_ids_of(followed + lag)
    restore_first.on_canonical_update((own,), followed + lag)
    restore_first.on_canonical_update((), lag)
    adopt_first.on_canonical_update((), lag)
    adopt_first.on_canonical_update((own,), followed + lag)
    assert set(restore_first.pending) == expected
    assert restore_first.pending.runs() == adopt_first.pending.runs()


# -- reference model ------------------------------------------------------------

class ReferenceMempool:
    """The dict-based mempool, tx id -> created_ms, FIFO by (created_ms, id), and its own canonical set."""

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
    ``catch_up`` just before a pack or a head move, but not before a
    restore, which hands packed ids back as an update that abandons one
    block. After every step the pool's pending ids plus those from
    its frontier up to ``generated`` must be the reference's pending ids
    that are not canonical. The reference's canonical set is the oracle:
    a restore tells the pool the ids that set gained since the pack.
    """
    rng = random.Random(seed)
    rate = rng.randrange(1, 12)
    batches = iter(tx_batch_schedule(rate, rng.randrange(20, 60) * 1000))
    pool, reference = Mempool(), ReferenceMempool()
    created: dict[int, int] = {}
    generated = 0
    packed_blocks: list[tuple[tuple[int, ...], set[int]]] = []  # ids, the canonical ids at the pack
    gapped = spanned = overlapped = 0

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
            packed_blocks.append((packed, set(reference.canonical)))
        elif op == "restore":
            if not packed_blocks:
                continue
            # Restore one packed block, or two at once as one run list,
            # which then usually has gaps. The pool is told the ids that
            # became canonical since each block was packed.
            restored, gained = set(), set()
            for _ in range(min(len(packed_blocks), rng.choice((1, 2)))):
                packed, canonical_then = packed_blocks.pop(rng.randrange(len(packed_blocks)))
                restored.update(packed)
                gained |= reference.canonical - canonical_then
            runs = tuple(runs_of(sorted(restored)))
            gapped += len(runs) > 1
            overlapped += not restored.isdisjoint(gained)
            pool.on_canonical_update((blk(1, runs),), [blk(1, runs_of(sorted(gained)))])
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
    assert gapped, "no restore handed back more than one run"
    assert overlapped, "no restore handed back an id that became canonical after its pack"
    assert spanned, "no catch-up added more than one batch"

import random

import pytest

from cliquesim import BlockHeader, Mempool, make_genesis, tx_batch_schedule


def blk(number, txs, sealer=0):
    return BlockHeader(
        number=number,
        parent=b"\x01" * 32,
        sealer_index=sealer,
        sealer_addr=f"0x{sealer:040x}",
        difficulty=1,
        sim_time_ms=number * 5000,
        tx_ids=tuple(txs),
    )


def filled(n, start=0):
    pool = Mempool()
    pool.add(range(start, start + n))
    return pool


# -- stream -------------------------------------------------------------------

def test_stream_thirty_minutes_at_ten_per_second():
    batches = tx_batch_schedule(10, 1_800_000)
    assert sum(len(txs) for _, txs in batches) == 18_000
    assert batches[0][0] == 1000 and batches[-1][0] == 1_800_000


def test_stream_one_second():
    batches = tx_batch_schedule(10, 1000)
    assert sum(len(txs) for _, txs in batches) == 10


def test_stream_zero_duration():
    assert tx_batch_schedule(1, 0) == []


def test_stream_ids_unique_and_monotone():
    batches = tx_batch_schedule(7, 9000)
    ids = [tx for _, txs in batches for tx in txs]
    assert ids == sorted(ids) and len(set(ids)) == len(ids)


def test_stream_rejects_zero_rate():
    with pytest.raises(ValueError):
        tx_batch_schedule(0, 1000)


# -- packing ------------------------------------------------------------------

def test_pack_everything_fifo():
    pool = Mempool()
    pool.add(range(3))
    assert pool.pack_block() == (0, 1, 2)
    assert set(pool.pending) == set()


def test_pack_respects_cap():
    pool = filled(50)
    packed = pool.pack_block(cap=10)
    assert packed == tuple(range(10))
    assert len(pool.pending) == 40


def test_pack_empty_mempool():
    assert Mempool().pack_block() == ()


def test_pack_skips_canonical():
    # a rejected own block hands back ids a peer's block has made canonical since
    pool = filled(5)
    packed = pool.pack_block()
    pool.on_canonical_update([], [blk(1, [0, 3], sealer=2)])
    pool.restore(packed)
    assert pool.pack_block() == (1, 2, 4)


def test_restore_reinstates_packed_txs():
    pool = filled(3)
    packed = pool.pack_block()
    pool.restore(packed)
    assert sorted(pool.pending) == [0, 1, 2]


# -- reorg handling -------------------------------------------------------------

def test_canonical_update_no_reorg():
    pool = filled(2, start=100)
    genesis = make_genesis()
    old = [genesis, blk(1, [0, 1])]
    new = [genesis, blk(1, [0, 1]), blk(2, [2])]
    pool.on_canonical_update(old, new)
    assert sorted(pool.pending) == [100, 101]


def test_canonical_update_same_txs_both_sides():
    pool = Mempool()
    genesis = make_genesis()
    old = [genesis, blk(1, [0, 1], sealer=1)]
    new = [genesis, blk(1, [0, 1], sealer=2)]
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
        [genesis, blk(1, sorted(abandoned_txs))],
        [genesis, blk(1, sorted(adopted_txs), sealer=2)],
    )
    assert set(pool.pending) == expected


def test_canonical_update_drops_newly_adopted_from_pending():
    pool = filled(4)
    genesis = make_genesis()
    pool.on_canonical_update([genesis], [genesis, blk(1, [1, 2])])
    assert sorted(pool.pending) == [0, 3]


def test_canonical_update_rejects_unsorted_header_ids():
    # (0, 1, 1, 3) holds as many ids as it spans, so it would pass for 0..3
    pool = filled(4)
    with pytest.raises(ValueError, match="strictly ascending"):
        pool.on_canonical_update([], [blk(1, [0, 1, 1, 3])])


def test_canonical_update_partial_overlap():
    pool = Mempool()
    genesis = make_genesis()
    old = [genesis, blk(1, [0, 1, 2])]
    new = [genesis, blk(1, [2, 3], sealer=2), blk(2, [4], sealer=3)]
    pool.on_canonical_update(old, new)
    assert sorted(pool.pending) == [0, 1]
    assert set(pool.canonical) == {2, 3, 4}


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
            blk(n, sorted(set(shared + rng.sample(ids, min(len(ids), rng.randrange(6))))))
            for n in range(1, rng.randrange(4) + 1)
        ]

    return branch(), branch()


@pytest.mark.parametrize("seed", range(25))
def test_mempool_matches_dict_reference_model(seed):
    rng = random.Random(seed)
    batches = iter(tx_batch_schedule(rng.randrange(1, 12), rng.randrange(20, 60) * 1000))
    pool, reference = Mempool(), ReferenceMempool()
    created: dict[int, int] = {}
    packed_blocks: list[tuple[int, ...]] = []
    gapped = 0
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
            pool.add(txs)
            reference.add(stamped)
        elif op == "pack":
            cap = rng.choice((None, 0, 1, 2, 3, 5))
            packed = pool.pack_block(cap)
            assert packed == reference.pack_block(cap)
            packed_blocks.append(packed)
        elif op == "restore":
            if not packed_blocks:
                continue
            # Restore one packed block, or two at once as one tuple, which
            # then usually has gaps.
            restored = set()
            for _ in range(min(len(packed_blocks), rng.choice((1, 2)))):
                restored.update(packed_blocks.pop(rng.randrange(len(packed_blocks))))
            packed = tuple(sorted(restored))
            gapped += bool(packed) and packed[-1] - packed[0] + 1 > len(packed)
            pool.restore(packed)
            reference.restore(packed, created)
        else:
            abandoned, adopted = random_branches(rng, ids)
            pool.on_canonical_update(abandoned, adopted)
            reference.on_canonical_update(abandoned, adopted, created)
        assert set(pool.pending) == set(reference.pending) - reference.canonical
        assert set(pool.canonical) == reference.canonical
    assert gapped, "no restore handed back a non-contiguous tuple"

"""Seen-set backends: exact / cuckoo — unit + actor-pool tests."""

import numpy as np
import pytest

from simplecrawler_ray.state.seen import (
    CuckooBackend,
    ExactBackend,
    SeenSet,
)


@pytest.mark.parametrize("cls", [ExactBackend, CuckooBackend])
def test_backend_check_and_add(cls):
    b = cls(10_000)
    h = np.arange(1, 1001, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    first = b.check_and_add(h)
    assert first.all()  # all new (no false positives at this load)
    second = b.check_and_add(h)
    assert not second.any()  # no false negatives ever
    assert b.contains(h).all()


@pytest.mark.parametrize("cls", [ExactBackend, CuckooBackend])
def test_backend_in_batch_duplicates(cls):
    b = cls(1000)
    h = np.array([7, 8, 7, 9, 8, 7], dtype=np.uint64)
    mask = b.check_and_add(h)
    # only the first occurrence of each hash is new
    assert mask.tolist() == [True, True, False, True, False, False]


def test_cuckoo_memory_is_compact():
    b = CuckooBackend(1_000_000)
    assert b.memory_bytes() <= 4_200_000  # ~4.2 B/key worst-case pow2 sizing


def test_cuckoo_false_positive_rate():
    b = CuckooBackend(100_000)
    rng = np.random.default_rng(7)
    ins = rng.integers(1, 2**63, 50_000).astype(np.uint64)
    b.add(ins)
    probe = rng.integers(1, 2**63, 50_000).astype(np.uint64) | np.uint64(1 << 63)
    fp = b.contains(probe).mean()
    # full 16-bit fingerprints (v2): ~2^-13 expected; measured 5e-05 at
    # this load.  The v1 odd-forced fps would fail this bound's margin.
    assert fp < 1e-3


def test_seen_set_actor_pool():
    s = SeenSet(num_shards=3, backend="exact")
    h = np.arange(100, dtype=np.uint64)
    assert s.check_and_add(h).all()
    assert not s.check_and_add(h).any()
    assert s.contains(h).all()
    assert s.size() == 100
    s.shutdown()


def test_seen_set_rejects_unknown_backend():
    """An unknown backend is refused on the driver, naming the choices,
    before any shard actor starts."""
    with pytest.raises(ValueError, match=r"'bloom'.*\['cuckoo', 'exact'\]"):
        SeenSet(num_shards=2, backend="bloom")


def test_seen_set_order_preserved():
    s = SeenSet(num_shards=4, backend="exact")
    h = np.array([5, 5, 6, 5, 7, 6], dtype=np.uint64)
    mask = s.check_and_add(h)
    assert mask.tolist() == [True, False, True, False, True, False]
    s.shutdown()


def test_seen_set_cuckoo_replay():
    s = SeenSet(num_shards=2, backend="cuckoo", capacity_per_shard=10_000)
    h = np.arange(1, 5000, dtype=np.uint64)
    s.add(h)
    assert s.contains(h).all()
    assert not s.check_and_add(h).any()
    s.shutdown()


def test_snapshot_restore_all_backends(tmp_path):
    """Shard filter snapshot/restore: membership identical after reload
    for exact and cuckoo backends."""
    import numpy as np

    from simplecrawler_ray.state.seen import SeenSet

    rng = np.random.default_rng(3)
    hashes = rng.integers(1, 2**63, 50_000).astype(np.uint64)
    fresh = rng.integers(2**63, 2**64 - 1, 1000, dtype=np.uint64)
    for backend in ("exact", "cuckoo"):
        s1 = SeenSet(num_shards=4, backend=backend,
                     capacity_per_shard=1 << 16)
        s1.add(hashes)
        d = str(tmp_path / f"snap-{backend}")
        n = s1.snapshot(d)
        assert n == s1.size()
        s1.shutdown()

        s2 = SeenSet(num_shards=4, backend=backend,
                     capacity_per_shard=1 << 16)
        assert s2.restore(d) == n
        assert s2.contains(hashes).all()       # no false negatives
        mask = s2.check_and_add(fresh)
        assert mask.sum() >= len(fresh) * 0.99  # fresh keys mostly new
        s2.shutdown()

    # shard-count mismatch is refused (hash routing depends on it)
    s3 = SeenSet(num_shards=2, backend="exact")
    import pytest as _pytest
    with _pytest.raises(ValueError):
        s3.restore(str(tmp_path / "snap-exact"))
    s3.shutdown()


def test_check_and_add_distributed_matches_sequential():
    """Worker-side scatter (round-3 verdict #2): identical first-wins
    semantics to the driver path — including in-batch duplicates and
    forced chunking — against a second SeenSet fed sequentially."""
    rng = np.random.default_rng(11)
    uniq = rng.integers(1, 2**63, 7_000).astype(np.uint64)
    dups = rng.choice(uniq, 3_000)
    hashes = np.concatenate([uniq, dups])
    rng.shuffle(hashes)

    a = SeenSet(num_shards=3, backend="exact")
    b = SeenSet(num_shards=3, backend="exact")
    mask_dist = a.check_and_add_distributed(hashes, chunk=1024)
    mask_seq = b.check_and_add(hashes)
    assert mask_dist.tolist() == mask_seq.tolist()
    # a second pass sees everything as duplicate on both
    assert not a.check_and_add_distributed(hashes, chunk=1024).any()
    assert a.size() == b.size() == len(uniq)
    a.shutdown()
    b.shutdown()


def test_check_and_add_distributed_small_batch_fallback():
    s = SeenSet(num_shards=2, backend="cuckoo")
    h = np.array([5, 6, 5, 7], dtype=np.uint64)
    # below the chunk threshold this is the sequential path, same result
    assert s.check_and_add_distributed(h).tolist() == [True, True, False, True]
    s.shutdown()


def test_restore_backend_kind_mismatch_refused(tmp_path):
    """Round-3 advice #3: restoring a snapshot written by one backend
    into a pool configured with another raises a clear ValueError (not
    a raw KeyError from load_state)."""
    import numpy as np
    import pytest as _pytest

    from simplecrawler_ray.state.seen import SeenSet

    s1 = SeenSet(num_shards=2, backend="exact")
    s1.add(np.arange(1, 100, dtype=np.uint64))
    d = str(tmp_path / "snap")
    s1.snapshot(d)
    s1.shutdown()

    s2 = SeenSet(num_shards=2, backend="cuckoo", capacity_per_shard=1 << 12)
    with _pytest.raises(ValueError, match="backend"):
        s2.restore(d)
    s2.shutdown()


def test_cuckoo_overflow_counted_not_silent():
    b = CuckooBackend(capacity=16)
    rng = np.random.default_rng(0)
    hashes = rng.integers(1, 1 << 63, 400, dtype=np.uint64)
    out = b.check_and_add(hashes)
    # saturation must be observable: overflow counts the keys LOST
    # when the kick chain exhausts past the victim stash
    assert b.overflow > 0
    distinct = len(np.unique(hashes))
    # every distinct hash is admitted-new or FP-suppressed, never
    # silently vanished; losses are among the admitted keys
    assert 0 < int(out.sum()) <= distinct
    assert b.overflow <= int(out.sum())
    st = b.state()
    b2 = CuckooBackend(capacity=64)
    b2.load_state(st)
    assert b2.overflow == b.overflow
    # stash survives the snapshot round-trip: membership parity
    probe = rng.integers(1, 1 << 63, 1000, dtype=np.uint64)
    assert (b2.contains(probe) == b.contains(probe)).all()


def test_cuckoo_no_false_negatives_until_overflow():
    """A kick-chain victim must stay findable (stash): pre-fix, kick
    exhaustion silently dropped a previously-inserted key — an
    already-crawled URL would be re-admitted and re-crawled."""
    rng = np.random.default_rng(3)
    b = CuckooBackend(capacity=16)      # 8 buckets x 4 slots + 4 stash
    inserted = []
    for k in rng.integers(1, 1 << 63, 500, dtype=np.uint64):
        before = b.overflow
        b.check_and_add(np.array([k], dtype=np.uint64))
        if b.overflow > before:
            break                        # first genuine (counted) loss
        inserted.append(k)
        assert b.contains(np.array(inserted, dtype=np.uint64)).all()
    assert b.overflow > 0                # the loop did reach saturation
    assert len(inserted) >= 30           # and held ~full table + stash


def _cuckoo_retained(b: CuckooBackend) -> int:
    """Entries the filter holds: table slots in use plus stash pairs."""
    return (int(np.count_nonzero(b.table))
            + sum(len(v) for v in b.stash.values()))


def test_cuckoo_stash_counts_each_pair_once():
    """Re-stashing a (fingerprint, bucket) pair the stash already holds
    adds no entry: stash_n stays the number of distinct pairs, nothing
    overflows, and len() stays the number of retained entries."""
    b = CuckooBackend(capacity=16)      # 8 buckets x 4 slots, stash 4
    b.table[:] = 7                      # every kick chain cycles on fp 7
    b.count = _cuckoo_retained(b)
    for _ in range(3 * b.stash_max):
        if b._insert_one(7, 0, 1):
            b.count += 1
    # the chain alternates between two buckets: at most two pairs
    assert 1 <= b.stash_n <= 2
    assert b.stash_n == sum(len(v) for v in b.stash.values())
    assert b.overflow == 0
    assert len(b) == _cuckoo_retained(b)


def test_cuckoo_hypothesis_model_past_saturation():
    """Model-based check of the cuckoo filter against a Python set of
    the keys it admitted, driven past saturation: every admitted key
    stays contains()-true until the first counted loss (overflow > 0),
    no admitted key is re-admitted before it, in-batch duplicates are
    admitted at most once, and len() equals the retained entries."""
    from hypothesis import given, settings, strategies as st

    keys = st.integers(min_value=1, max_value=(1 << 64) - 1)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(keys, max_size=40), min_size=1, max_size=8),
           st.integers(min_value=0, max_value=7))
    def run(batches, dup_every):
        b = CuckooBackend(capacity=16)  # 32 slots + 4 stash entries
        admitted: set = set()
        for batch in batches:
            if dup_every:
                batch = batch + batch[::dup_every + 1]
            arr = np.array(batch, dtype=np.uint64)
            mask = b.check_and_add(arr).tolist()
            lossless = b.overflow == 0
            in_batch: set = set()
            for k, new in zip(batch, mask):
                if new:
                    assert k not in in_batch
                    if lossless:
                        assert k not in admitted
                    admitted.add(k)
                in_batch.add(k)
            assert len(b) == _cuckoo_retained(b)
            assert len(b) <= len(admitted)
            if lossless and admitted:
                probe = np.array(sorted(admitted), dtype=np.uint64)
                assert b.contains(probe).all()

    run()


def test_cuckoo_rejects_v1_fingerprint_snapshot():
    b = CuckooBackend(capacity=64)
    b.add(np.arange(1, 20, dtype=np.uint64))
    st = b.state()
    st.pop("fpv")                        # simulate a pre-v2 snapshot
    with pytest.raises(ValueError, match="fingerprint format"):
        CuckooBackend(capacity=64).load_state(st)


def test_cuckoo_fingerprints_use_full_16_bits():
    b = CuckooBackend(capacity=1 << 16)
    rng = np.random.default_rng(9)
    fp, _, _ = b._fp_and_buckets(rng.integers(1, 1 << 63, 100_000,
                                              dtype=np.uint64))
    # v1 forced every fp odd (halving the space, doubling the FP rate)
    assert (fp % 2 == 0).any() and (fp % 2 == 1).any()
    assert not (fp == 0).any()


def test_exact_open_addressing_matches_reference_set():
    """The numpy open-addressing exact backend vs a Python-set model:
    first-occurrence-wins across batches with in-batch dups, key 0,
    table growth from a tiny initial capacity, and contains parity."""
    rng = np.random.default_rng(11)
    ref: set = set()
    b = ExactBackend(capacity=4)        # force several growth doublings
    for _ in range(60):
        keys = rng.integers(0, 3000, rng.integers(0, 300)).astype(np.uint64)
        mask = b.check_and_add(keys)
        exp = np.zeros(len(keys), bool)
        batch_seen: set = set()
        for i, k in enumerate(keys.tolist()):
            exp[i] = k not in ref and k not in batch_seen
            batch_seen.add(k)
        ref |= batch_seen
        assert (mask == exp).all()
        assert len(b) == len(ref)
    probe = rng.integers(0, 6000, 2000).astype(np.uint64)
    want = np.array([int(k) in ref for k in probe.tolist()])
    assert (b.contains(probe) == want).all()


def test_exact_zero_key_and_snapshot_roundtrip():
    b = ExactBackend(capacity=16)
    mask = b.check_and_add(np.array([0, 5, 0], dtype=np.uint64))
    assert mask.tolist() == [True, True, False]
    assert b.contains(np.array([0, 5, 6], dtype=np.uint64)).tolist() == \
        [True, True, False]
    assert len(b) == 2
    st = b.state()
    assert st["kind"] == "exact" and len(st["keys"]) == 2
    b2 = ExactBackend()
    b2.load_state(st)
    assert len(b2) == 2
    assert b2.contains(np.array([0, 5, 6], dtype=np.uint64)).tolist() == \
        [True, True, False]


def test_exact_loads_legacy_set_snapshot():
    # pre-round-5 snapshots stored an unordered key array built from a
    # Python set — the packed-array format is identical, so they load
    legacy = {"kind": "exact",
              "keys": np.array([3, 1, 4, 1, 5], dtype=np.uint64)}
    b = ExactBackend()
    b.load_state(legacy)
    assert len(b) == 4          # in-array dup collapses
    assert b.contains(np.array([1, 2, 3, 4, 5], dtype=np.uint64)).tolist() \
        == [True, False, True, True, True]


def test_exact_memory_stays_packed():
    b = ExactBackend(capacity=1 << 17)
    b.add(np.arange(1, 100_001, dtype=np.uint64))
    # 8 B/slot, load factor >= 25% after sizing for the capacity
    assert b.memory_bytes() <= (1 << 18) * 8


def test_exact_hypothesis_model_parity():
    """Model-based check of the open-addressing exact backend against a
    Python-set model: arbitrary uint64 batches (dup-heavy, zeros, tiny
    initial capacity forcing growth chains)."""
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.integers(min_value=0, max_value=300),
                             max_size=120), max_size=8))
    def run(batches):
        b = ExactBackend(capacity=2)
        ref: set = set()
        for batch in batches:
            keys = np.array(batch, dtype=np.uint64)
            mask = b.check_and_add(keys)
            exp = np.zeros(len(keys), bool)
            seen_in_batch: set = set()
            for i, k in enumerate(batch):
                exp[i] = k not in ref and k not in seen_in_batch
                seen_in_batch.add(k)
            ref |= seen_in_batch
            assert mask.tolist() == exp.tolist()
            assert len(b) == len(ref)
        probe = np.arange(0, 350, dtype=np.uint64)
        want = [int(k) in ref for k in probe.tolist()]
        assert b.contains(probe).tolist() == want

    run()


def test_exact_growth_chain_under_bulk_insert():
    # 300k distinct keys into a capacity-1000 table: many doublings in
    # one call path, count and membership must survive every rehash
    rng = np.random.default_rng(5)
    keys = rng.permutation(np.arange(1, 300_001, dtype=np.uint64))
    b = ExactBackend(capacity=1000)
    mask = b.check_and_add(keys)
    assert mask.all() and len(b) == 300_000
    assert not b.check_and_add(keys[:50_000]).any()
    sample = rng.choice(keys, 10_000)
    assert b.contains(sample).all()
    assert not b.contains(np.arange(400_000, 410_000, dtype=np.uint64)).any()


def test_check_and_add_distributed_single_shard():
    # num_shards=1 exercises the num_returns special case in the
    # partition wave (Ray returns the lone piece unwrapped)
    rng = np.random.default_rng(21)
    hashes = rng.integers(0, 4_000, 6_000).astype(np.uint64)
    a = SeenSet(num_shards=1, backend="exact")
    b = SeenSet(num_shards=1, backend="exact")
    assert (a.check_and_add_distributed(hashes, chunk=1000)
            == b.check_and_add(hashes)).all()
    assert a.size() == b.size()
    a.shutdown()
    b.shutdown()

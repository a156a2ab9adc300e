"""Distributed URL-seen set: the global exact-dedup of the frontier.

Replaces the reference's in-process ``_scanIndex: Set<string>``
(src/queue.ts:91,110-143) — O(heap) on one machine, infeasible at the
10^10-URL target.  Here: a pool of ``SeenShard`` Ray actors, shard
selected by ``url_hash % num_shards``; each shard offers vectorized
``check_and_add(hashes) -> new_mask`` (first caller wins => the D1
"first add wins / duplicate rejected" semantics, src/queue.ts:110-135).

Backends per shard:
* ``exact``  — open-addressing numpy uint64 table (linear probing,
  load <= 0.5).  Exact (modulo 64-bit hash collisions), 8 B/slot =
  ~16 B/key.  Default for conformance tests.
* ``cuckoo`` — numpy cuckoo filter, 16-bit fingerprints, 4-slot
  buckets: ~2.3 B/key at 95% load.  At 10^10 URLs: ~23 GB cluster-wide
  across shards (vs ~160 GB for exact) — the north-rule scale backend.
  No false negatives while ``overflow`` is 0 (kick-chain victims are
  retained in a bounded stash; only stash exhaustion loses a key, and
  it is counted); false-positive rate ~= 2^-13 (a tiny fraction of
  genuinely-new URLs silently dropped as "seen" — acceptable for crawl
  frontiers, documented divergence from the reference's exact set).

Capacity sizing is per shard.  All check/insert paths are vectorized
numpy except cuckoo-insert eviction loops (rare at <90% load).
"""

from __future__ import annotations

import json

import numpy as np
import ray

_U64 = np.uint64


def _mix(h: np.ndarray, salt: int) -> np.ndarray:
    with np.errstate(over="ignore"):
        z = (h.astype(_U64) + _U64(salt)) * _U64(0x9E3779B97F4A7C15)
        z ^= z >> _U64(29)
        z *= _U64(0xBF58476D1CE4E5B9)
        z ^= z >> _U64(32)
    return z


class ExactBackend:
    """Exact uint64 hash set as an open-addressing numpy table.

    Linear probing over a power-of-2 table (load factor <= 0.5, grown
    by doubling); slot 0 is the EMPTY sentinel, so the real key 0 is
    tracked by a scalar flag.  Every operation is vectorized per probe
    ROUND (one gather + compare over all still-unresolved keys), not
    per key — the earlier Python ``set`` version boxed each hash to a
    PyLong on both insert and lookup (~60-100 B/key in CPython and an
    allocation per element), which is exactly what saturates this
    host's memory bus.  Here the table is 8 B/slot = 16 B/key at the
    load cap: at the 10^10-key design point that is ~160 GB
    cluster-wide across shards instead of ~1 TB.
    """

    _MULT = _U64(0x9E3779B97F4A7C15)      # Fibonacci multiplier

    def __init__(self, capacity: int = 0):
        bits = max(16, int(max(capacity, 1) * 2 - 1).bit_length())
        self._bits = bits
        self._table = np.zeros(1 << bits, dtype=_U64)
        self._n = 0                        # nonzero keys stored
        self._has_zero = False

    def _home(self, keys: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            return ((keys * self._MULT) >> _U64(64 - self._bits)) \
                .astype(np.int64)

    def _grow(self, need: int) -> None:
        while (self._n + need) * 2 > len(self._table):
            old = self._table[self._table != _U64(0)]
            self._bits += 1
            self._table = np.zeros(1 << self._bits, dtype=_U64)
            self._n = 0
            if len(old):
                self._insert(old)

    def _insert(self, keys: np.ndarray) -> np.ndarray:
        """Probe-insert KEYS (nonzero, duplicates allowed); returns the
        first-occurrence-wins new-mask.

        In-batch duplicates need no pre-dedup (the old path paid an
        O(n log n) ``np.unique`` sort over the whole batch for it):
        identical keys share the same home slot and advance in lockstep
        — each round they all see the same slot, so they either all hit
        an existing key, or contend for the same empty slot, where the
        earliest claims it and the rest resolve as duplicates via a
        plain ``==`` hit the following round."""
        table, mask = self._table, np.int64(len(self._table) - 1)
        idx = self._home(keys)
        new = np.zeros(len(keys), dtype=bool)
        pending = np.arange(len(keys))
        scratch = None
        while len(pending):
            slots = idx[pending]
            cur = table[slots]
            k = keys[pending]
            hit = cur == k                 # already present
            resolved = hit
            claim = np.flatnonzero(cur == _U64(0))
            if len(claim):
                # several keys can land on the same empty slot in one
                # round: the EARLIEST claimant wins (scatter claimant
                # positions reversed — with duplicate fancy indices the
                # last write lands, so reversing makes the first claim
                # stick), losers keep probing
                if scratch is None:
                    scratch = np.empty(len(table), dtype=np.int64)
                cslots = slots[claim]
                scratch[cslots[::-1]] = claim[::-1]
                won = scratch[cslots] == claim
                winners = claim[won]
                table[cslots[won]] = k[winners]
                new[pending[winners]] = True
                self._n += len(winners)
                resolved = hit.copy()
                # re-gather after the writes: a claimant whose slot now
                # holds its own key is resolved — that's every winner,
                # plus any same-key duplicate that lost the race (it
                # must NOT advance past its twin's slot)
                resolved[claim] = table[cslots] == k[claim]
            pending = pending[~resolved]
            idx[pending] = (idx[pending] + 1) & mask
        return new

    def state(self) -> dict:
        keys = self._table[self._table != _U64(0)]
        if self._has_zero:
            keys = np.concatenate([keys, np.zeros(1, dtype=_U64)])
        return {"kind": "exact", "keys": keys}

    def load_state(self, st: dict) -> None:
        keys = np.asarray(st["keys"], dtype=_U64)
        self.__init__(capacity=len(keys))
        self.add(keys)

    def check_and_add(self, hashes: np.ndarray) -> np.ndarray:
        """Batch check-and-insert, first occurrence wins."""
        out = np.zeros(len(hashes), dtype=bool)
        if not len(hashes):
            return out
        hashes = np.asarray(hashes, dtype=_U64)
        zeros = hashes == _U64(0)
        if zeros.any():
            if not self._has_zero:
                self._has_zero = True
                out[np.argmax(zeros)] = True
            nz = np.flatnonzero(~zeros)
            if len(nz):
                self._grow(len(nz))
                out[nz] = self._insert(hashes[nz])
        else:
            self._grow(len(hashes))
            out = self._insert(hashes)
        return out

    def contains(self, hashes: np.ndarray) -> np.ndarray:
        n = len(hashes)
        if not n:
            return np.zeros(0, dtype=bool)
        hashes = np.asarray(hashes, dtype=_U64)
        out = np.zeros(n, dtype=bool)
        zero = hashes == _U64(0)
        if self._has_zero:
            out[zero] = True
        table = self._table
        mask = np.int64(len(table) - 1)
        idx = self._home(hashes)
        pending = np.flatnonzero(~zero)
        while len(pending):
            cur = table[idx[pending]]
            hit = cur == hashes[pending]
            out[pending[hit]] = True
            pending = pending[~hit & (cur != _U64(0))]
            idx[pending] = (idx[pending] + 1) & mask
        return out

    def add(self, hashes: np.ndarray) -> None:
        self.check_and_add(np.asarray(hashes, dtype=_U64))

    def __len__(self):
        return self._n + int(self._has_zero)

    def memory_bytes(self) -> int:
        return self._table.nbytes


class CuckooBackend:
    """Cuckoo filter: 4-way buckets of uint16 fingerprints (0 = empty).

    A small victim STASH preserves the no-false-negative guarantee at
    saturation: when a kick chain exhausts ``MAX_KICKS`` the final
    evicted fingerprint (an already-inserted key!) lands in the stash
    instead of being dropped — dropping it would silently "unsee" a
    crawled URL and re-admit it to the frontier.  Only when the stash
    itself is full is a key genuinely lost, and ``overflow`` counts
    exactly those losses."""

    MAX_KICKS = 500
    _FP_FORMAT = 2   # v2: full 16-bit fingerprints (v1 forced fps odd,
    #                  halving the fp space and doubling the FP rate)

    def __init__(self, capacity: int = 1_000_000):
        nbuckets = 1
        while nbuckets * 4 * 0.95 < capacity:
            nbuckets <<= 1
        self.nbuckets = nbuckets
        self.mask = _U64(nbuckets - 1)
        self.table = np.zeros((nbuckets, 4), dtype=np.uint16)
        self.count = 0
        self.overflow = 0
        self.rng = np.random.default_rng(1234)
        # victim stash: fp -> set of home buckets; bounded
        self.stash: dict = {}
        self.stash_n = 0
        self.stash_max = max(4, nbuckets >> 6)

    def _fp_and_buckets(self, hashes: np.ndarray):
        h = hashes.astype(_U64)
        f16 = (_mix(h, 0xF00D) & _U64(0xFFFF)).astype(np.uint16)
        fp = np.where(f16 == 0, np.uint16(1), f16)      # never 0, full range
        b1 = (_mix(h, 0xB1) & self.mask).astype(np.int64)
        b2 = (b1 ^ (_mix(fp.astype(_U64), 0xA17) & self.mask).astype(np.int64))
        return fp, b1, b2

    def _stash_contains(self, fp: np.ndarray, b1: np.ndarray,
                        b2: np.ndarray) -> np.ndarray:
        out = np.zeros(len(fp), dtype=bool)
        if not self.stash:
            return out
        sfps = np.fromiter(self.stash.keys(), dtype=np.uint16,
                           count=len(self.stash))
        for i in np.flatnonzero(np.isin(fp, sfps)):
            buckets = self.stash.get(int(fp[i]))
            if buckets and (int(b1[i]) in buckets or int(b2[i]) in buckets):
                out[i] = True
        return out

    def contains(self, hashes: np.ndarray) -> np.ndarray:
        fp, b1, b2 = self._fp_and_buckets(hashes)
        t = self.table
        f = fp[:, None]
        hit = ((t[b1] == f).any(axis=1)) | ((t[b2] == f).any(axis=1))
        if self.stash:
            hit |= self._stash_contains(fp, b1, b2)
        return hit

    def _insert_one(self, fp: int, b1: int, b2: int) -> bool:
        """Place FP; returns True iff the filter retains one more entry.

        On kick exhaustion the NEW fingerprint is already in the table
        (the first swap placed it); the casualty is the final evicted
        VICTIM, which goes to the stash — unless the stash already
        holds that (fingerprint, bucket) pair, which keeps the victim
        findable without a new entry — or, if the stash is full, is
        dropped and counted in ``overflow``."""
        t = self.table
        for b in (b1, b2):
            empty = np.nonzero(t[b] == 0)[0]
            if len(empty):
                t[b, empty[0]] = fp
                return True
        b = b1 if self.rng.integers(2) else b2
        cur = np.uint16(fp)
        for _ in range(self.MAX_KICKS):
            slot = int(self.rng.integers(4))
            cur, t[b, slot] = t[b, slot], cur
            alt = int(
                _U64(b) ^ (_mix(np.array([cur], dtype=_U64), 0xA17)[0] & self.mask)
            )
            empty = np.nonzero(t[alt] == 0)[0]
            if len(empty):
                t[alt, empty[0]] = cur
                return True
            b = alt
        # chain exhausted: `cur` was evicted from the swap at the
        # PREVIOUS bucket, so the current `b` (its alternate) is one of
        # its two homes — stash (cur, b) to keep it findable
        if int(b) in self.stash.get(int(cur), ()):
            return False
        if self.stash_n < self.stash_max:
            self.stash.setdefault(int(cur), set()).add(int(b))
            self.stash_n += 1
            return True
        self.overflow += 1      # victim lost: a previously-seen key
        return False            # is now unseen (filter undersized)

    def check_and_add(self, hashes: np.ndarray) -> np.ndarray:
        """Batch check-and-insert, first occurrence wins.

        Vectorized: presence test, in-batch dedup (np.unique) and
        empty-slot placement all run as array ops; each placement wave
        writes one fingerprint per DISTINCT bucket (no intra-wave
        write conflicts), alternating b1/b2.  Only items whose both
        buckets are full fall back to the scalar cuckoo-kick loop —
        rare below ~90% load."""
        fp, b1, b2 = self._fp_and_buckets(hashes)
        present = self.contains(hashes)
        out = np.zeros(len(hashes), dtype=bool)
        new_idx = np.nonzero(~present)[0]
        if not len(new_idx):
            return out
        # in-batch duplicate hashes: only the first occurrence inserts
        _, first_pos = np.unique(hashes[new_idx], return_index=True)
        pending = new_idx[np.sort(first_pos)]
        t = self.table
        for wave_buckets in (b1, b2, b1, b2):
            if not len(pending):
                break
            bk = wave_buckets[pending]
            # one item per distinct bucket this wave (first in pending
            # order); the rest retry next wave
            ub, sel = np.unique(bk, return_index=True)
            rows_empty = t[ub] == 0
            has_empty = rows_empty.any(axis=1)
            slots = rows_empty.argmax(axis=1)
            win = sel[has_empty]                    # positions in pending
            t[bk[win], slots[has_empty]] = fp[pending[win]]
            placed = np.zeros(len(pending), dtype=bool)
            placed[win] = True
            out[pending[win]] = True
            self.count += int(len(win))
            pending = pending[~placed]
        for i in pending:  # both buckets full: scalar kick loop
            # the new fingerprint is ALWAYS recorded (first swap places
            # it); when the kick chain's final VICTIM gets no new entry
            # (its stash pair exists, or the stash is full and the loss
            # is counted in overflow) the entry count stays put, so
            # len() is the number of retained entries and a saturating
            # filter is never silent (size via seen_capacity_per_shard;
            # load factor ~0.95 max)
            if self._insert_one(int(fp[i]), int(b1[i]), int(b2[i])):
                self.count += 1
            out[i] = True
        return out

    def add(self, hashes: np.ndarray) -> None:
        self.check_and_add(hashes)

    def state(self) -> dict:
        sfp, sb = [], []
        for f, buckets in self.stash.items():
            for b in buckets:
                sfp.append(f)
                sb.append(b)
        return {"kind": "cuckoo", "table": self.table, "count": self.count,
                "overflow": self.overflow, "fpv": self._FP_FORMAT,
                "stash_fp": np.array(sfp, dtype=np.uint16),
                "stash_b": np.array(sb, dtype=np.int64)}

    def load_state(self, st: dict) -> None:
        if int(st.get("fpv", 1)) != self._FP_FORMAT:
            # v1 snapshots hold odd-forced fingerprints; v2 lookups
            # would miss half the keys — refuse loudly rather than
            # resume with a filter that forgets URLs
            raise ValueError(
                "cuckoo snapshot uses fingerprint format "
                f"v{st.get('fpv', 1)}, this build writes "
                f"v{self._FP_FORMAT}; rebuild the filter")
        self.table = st["table"]
        self.nbuckets = self.table.shape[0]
        self.mask = _U64(self.nbuckets - 1)
        self.count = int(st["count"])
        self.overflow = int(st.get("overflow", 0))
        self.stash = {}
        self.stash_n = 0
        self.stash_max = max(4, self.nbuckets >> 6)
        for f, b in zip(np.asarray(st.get("stash_fp", [])).tolist(),
                        np.asarray(st.get("stash_b", [])).tolist()):
            self.stash.setdefault(int(f), set()).add(int(b))
            self.stash_n += 1

    def __len__(self):
        return self.count

    def memory_bytes(self) -> int:
        return self.table.nbytes


BACKENDS = {"exact": ExactBackend, "cuckoo": CuckooBackend}


def _scatter(hashes: np.ndarray, shards: list, method: str) -> np.ndarray:
    """Send each hash to shard ``hash % n_shards``, one call of the
    shard's ``method`` per shard that gets any, and gather its per-hash
    mask in input order — the ONE shard-routing implementation."""
    hashes = np.asarray(hashes, dtype=_U64)
    shard_of = (hashes % _U64(len(shards))).astype(np.int64)
    idxs = [np.flatnonzero(shard_of == s) for s in range(len(shards))]
    sent = [s for s, idx in enumerate(idxs) if len(idx)]
    answers = ray.get([getattr(shards[s], method).remote(hashes[idxs[s]])
                       for s in sent])
    out = np.zeros(len(hashes), dtype=bool)
    for s, m in zip(sent, answers):
        out[idxs[s]] = m
    return out


def scatter_check_and_add(hashes: np.ndarray, shards: list) -> np.ndarray:
    """Scatter a hash array to the seen shards and gather the first-wins
    mask; called in-process from the turbo-round UDF (each fetch task
    dedup-checks its own out-links through this, so shard RPCs from
    different tasks already overlap without a driver funnel)."""
    return _scatter(hashes, shards, "check_and_add")


@ray.remote
def _partition_chunk(hashes: np.ndarray, base: int, n_shards: int):
    """Wave 1 of ``check_and_add_distributed``: split one contiguous
    chunk per shard, tagging each hash with its GLOBAL batch position.
    Returns ``n_shards`` objects (one per shard) so wave-2 tasks pull
    only their own shard's pieces, not the whole chunk."""
    shard_of = (hashes % _U64(n_shards)).astype(np.int64)
    out = []
    for s in range(n_shards):
        idx = np.flatnonzero(shard_of == s)
        out.append((hashes[idx], base + idx))
    return tuple(out) if n_shards > 1 else out[0]


@ray.remote
def _dedup_check_shard(shard, *pieces) -> np.ndarray:
    """Wave 2: concatenate one shard's pieces in chunk order (positions
    ascend, so ``np.unique``'s first index IS the global first
    occurrence), dedup, one actor RPC, and return the global positions
    of the genuinely-new hashes."""
    hashes = np.concatenate([p[0] for p in pieces])
    pos = np.concatenate([p[1] for p in pieces])
    if not len(hashes):
        return np.zeros(0, dtype=np.int64)
    uniq, first = np.unique(hashes, return_index=True)
    new = ray.get(shard.check_and_add.remote(uniq))
    return pos[first[new]]


@ray.remote(num_cpus=0.25)
class SeenShard:
    """One shard of the distributed seen-set (T1, SURVEY §2.3)."""

    def __init__(self, backend: str = "exact", capacity: int = 1_000_000):
        self.backend = BACKENDS[backend](capacity)

    def check_and_add(self, hashes: np.ndarray) -> np.ndarray:
        return self.backend.check_and_add(np.asarray(hashes, dtype=np.uint64))

    def contains(self, hashes: np.ndarray) -> np.ndarray:
        return self.backend.contains(np.asarray(hashes, dtype=np.uint64))

    def size(self) -> int:
        return len(self.backend)

    def overflow(self) -> int:
        """Keys LOST to filter saturation (cuckoo kick-chain exhausted
        with a full victim stash): each one is a previously-seen key
        whose URL may be re-admitted if rediscovered.  Nonzero means
        the filter is undersized — raise seen_capacity_per_shard."""
        return int(getattr(self.backend, "overflow", 0))

    def memory_bytes(self) -> int:
        return self.backend.memory_bytes()

    def snapshot(self, path: str) -> int:
        """Write this shard's filter state to one ``.npz`` file
        (worker-side — the state never transits the driver).  The
        exact and cuckoo tables are single numpy arrays, so a shard
        snapshot is one array write (SCALING.md failure-handling
        plan)."""
        st = self.backend.state()
        arrays = {k: v for k, v in st.items() if isinstance(v, np.ndarray)}
        scalars = {k: v for k, v in st.items()
                   if not isinstance(v, np.ndarray)}
        np.savez(path, __meta=np.frombuffer(
            json.dumps(scalars).encode(), dtype=np.uint8), **arrays)
        return len(self.backend)

    def restore(self, path: str) -> int:
        with np.load(path) as z:
            st = dict(json.loads(bytes(z["__meta"]).decode()))
            for k in z.files:
                if k != "__meta":
                    st[k] = z[k]
        kind = st.get("kind")
        mine = next((k for k, v in BACKENDS.items()
                     if type(self.backend) is v), None)
        if kind is not None and mine is not None and kind != mine:
            raise ValueError(
                f"seen snapshot was written by the {kind!r} backend but "
                f"this shard is configured as {mine!r} — restore into a "
                "matching seen_backend")
        self.backend.load_state(st)
        return len(self.backend)


class SeenSet:
    """Driver-side handle: shard pool + vectorized scatter/gather.

    ``check_and_add`` routes each hash to shard ``hash % n`` and
    preserves input order in the returned mask.  "Exactly-once wins"
    holds because a given hash always lands on the same shard and the
    shard actor serializes its calls.
    """

    def __init__(self, num_shards: int = 8, backend: str = "exact",
                 capacity_per_shard: int = 1_000_000):
        if backend not in BACKENDS:
            raise ValueError(f"unknown seen_backend {backend!r}; "
                             f"choose one of {sorted(BACKENDS)}")
        self.num_shards = num_shards
        self.backend_name = backend
        self.shards = [
            SeenShard.remote(backend, capacity_per_shard) for _ in range(num_shards)
        ]

    def check_and_add(self, hashes: np.ndarray) -> np.ndarray:
        # the worker-side turbo path's routing, not a per-pool copy
        return scatter_check_and_add(hashes, self.shards)

    #: chunk size for the distributed check path; ~2 MiB of hashes per
    #: task keeps task-launch overhead < 1% while giving the scheduler
    #: enough tasks to saturate every shard concurrently.
    DISTRIBUTED_CHUNK = 1 << 18

    def check_and_add_distributed(self, hashes: np.ndarray,
                                  chunk: int | None = None) -> np.ndarray:
        """``check_and_add`` with BOTH the scatter and the in-batch
        dedup fanned out as Ray tasks — identical first-occurrence-wins
        semantics to the sequential path, no O(n log n) driver work.

        Two task waves: (1) each contiguous chunk partitions its slice
        per shard, tagging rows with their GLOBAL position; (2) one
        task per shard concatenates its pieces in chunk order (so
        positions stay ascending), dedups locally (``np.unique`` over
        n/S hashes — the first index in an ascending-position array IS
        the global first occurrence), makes ONE actor RPC, and returns
        the global positions that are genuinely new.  The driver only
        scatters the final boolean mask: O(n) and no sort.  (The
        previous version deduplicated the whole batch on the driver —
        a 0.6 s ``np.unique`` at 2M hashes that capped the measured
        rate below the shard backends' own throughput.)  Use for large
        batches (seed ingestion, bulk dedup); small batches stay on
        ``check_and_add`` (task-launch overhead dominates below
        ~100k hashes)."""
        hashes = np.asarray(hashes, dtype=np.uint64)
        chunk = chunk or self.DISTRIBUTED_CHUNK
        if len(hashes) <= chunk:
            return self.check_and_add(hashes)
        n_shards = self.num_shards
        piece_refs = [
            _partition_chunk.options(num_returns=n_shards).remote(
                hashes[o: o + chunk], o, n_shards)
            for o in range(0, len(hashes), chunk)
        ]
        if n_shards == 1:
            piece_refs = [[r] for r in piece_refs]
        new_pos_refs = [
            _dedup_check_shard.remote(self.shards[s],
                                      *[pieces[s] for pieces in piece_refs])
            for s in range(n_shards)
        ]
        out = np.zeros(len(hashes), dtype=bool)
        for pos in ray.get(new_pos_refs):
            out[pos] = True
        return out

    def contains(self, hashes: np.ndarray) -> np.ndarray:
        return _scatter(hashes, self.shards, "contains")

    def add(self, hashes: np.ndarray) -> None:
        self.check_and_add(hashes)

    def snapshot(self, dir_path: str) -> int:
        """Checkpoint every shard's filter to ``dir_path/shard-<i>.npz``
        in parallel (one file per shard, written by the shard actor):
        the base of a crawl checkpoint's seen set, which ``restore``
        reloads in O(filter bytes) before the url_hash delta written
        since is re-added.

        Multi-node caveat: each shard actor writes its file from its
        own node, and the crawl engine's checkpoint publish is an
        ``os.replace`` on the driver — ``dir_path`` must therefore be
        on a filesystem shared by every node (NFS / fuse mount), as is
        standard for cluster checkpoints.  On a single node any local
        path works."""
        import os

        os.makedirs(dir_path, exist_ok=True)
        return sum(ray.get([
            s.snapshot.remote(os.path.join(dir_path, f"shard-{i:04d}.npz"))
            for i, s in enumerate(self.shards)
        ]))

    def restore(self, dir_path: str) -> int:
        """Reload a ``snapshot`` directory (shard count must match)."""
        import os

        # order by the PARSED shard index, not lexicographically: past
        # 9,999 shards the zero-padded names interleave under a string
        # sort ("shard-10000" < "shard-1001") and every filter would
        # silently restore into the wrong shard
        files = sorted((f for f in os.listdir(dir_path)
                        if f.startswith("shard-") and f.endswith(".npz")),
                       key=lambda f: int(f[len("shard-"):-len(".npz")]))
        if len(files) != self.num_shards:
            raise ValueError(
                f"snapshot has {len(files)} shards, pool has "
                f"{self.num_shards} — shard count must match (hash "
                "routing is shard-count-dependent)")
        refs = [s.restore.remote(os.path.join(dir_path, f))
                for s, f in zip(self.shards, files)]
        try:
            return sum(ray.get(refs))
        except Exception:
            # drain the sibling shards' failures too so they do not
            # surface later as unhandled actor-task errors
            for r in refs:
                try:
                    ray.get(r)
                except Exception:
                    pass
            raise

    def size(self) -> int:
        return sum(ray.get([s.size.remote() for s in self.shards]))

    def overflow(self) -> int:
        """Total keys LOST to filter saturation across shards (kick
        chain exhausted AND victim stash full — the evicted key is
        dropped and its URL may be re-crawled); nonzero means
        seen_capacity_per_shard is undersized."""
        return sum(ray.get([s.overflow.remote() for s in self.shards]))

    def memory_bytes(self) -> int:
        return sum(ray.get([s.memory_bytes.remote() for s in self.shards]))

    def shutdown(self) -> None:
        for s in self.shards:
            ray.kill(s)
        self.shards = []

"""Distributed URL-seen set: the global dedup of the frontier.

Replaces the reference's in-process ``_scanIndex: Set<string>``
(src/queue.ts:91,110-143) — O(heap) on one machine, infeasible at the
10^10-URL target.  Here: a pool of ``SeenShard`` Ray actors, shard
selected by ``url_hash % num_shards``; each shard offers vectorized
``check_and_add(hashes) -> new_mask`` (first caller wins => the D1
"first add wins / duplicate rejected" semantics, src/queue.ts:110-135).

Each shard holds one ``SeenTable``: a bucketized cuckoo table with
4-slot buckets and two home buckets per key.  The ``seen_backend`` name
picks only the slot width:

* ``exact``  — 64-bit slots hold the ``url_hash`` itself: exact up to
  64-bit hash collisions, 8 B/slot (~8.4-9 B/key when sized for its
  keys).  When the load passes 0.9 or a kick chain fails, the table
  grows by rehashing its own keys, so it never loses one.  Default for
  conformance tests.
* ``cuckoo`` — 32-bit fingerprint slots, fixed size: ~4.2 B/key at
  95 % load (~42 GB cluster-wide at 10^10 URLs).  A new URL whose
  fingerprint already sits in one of its buckets is answered "seen":
  about 8/2^32 per new key (Fan et al., CoNEXT'14: 2b/2^f for b-slot
  buckets and f-bit fingerprints), the one divergence from the
  reference's exact set.  A kick chain's final victim goes to a
  bounded stash; only a full stash loses a key, and ``overflow``
  counts each loss.

Capacity sizing is per shard.  Probes and placement waves are
vectorized numpy; only keys whose two buckets are both full take the
scalar kick loop.
"""

from __future__ import annotations

import json

import numpy as np
import ray

_U64 = np.uint64

#: ``seen_backend`` name -> slot width in bits
WIDTHS = {"exact": 64, "cuckoo": 32}


def _mix(h: np.ndarray, salt: int) -> np.ndarray:
    with np.errstate(over="ignore"):
        z = (h.astype(_U64) + _U64(salt)) * _U64(0x9E3779B97F4A7C15)
        z ^= z >> _U64(29)
        z *= _U64(0xBF58476D1CE4E5B9)
        z ^= z >> _U64(32)
    return z


class SeenTable:
    """Cuckoo table: buckets of 4 slots holding a key's 64-bit hash or
    its 32-bit fingerprint (0 = empty).

    A key's home buckets are ``b1 = mix(h) & mask`` and ``b2 = b1 ^
    (mix(slot value) & mask)``, so a slot's value and bucket give its
    other home, which is all a kick needs.  The 64-bit width tracks
    key 0 by a flag (0 marks an empty slot).

    A kick chain that exhausts ``MAX_KICKS`` leaves its final evicted
    entry (an already-inserted key) in the STASH, where lookups still
    find it.  The 32-bit width's stash is bounded: past it the victim
    is dropped and counted in ``overflow``.  The 64-bit width empties
    its stash by rehashing into twice the buckets before the call
    returns, so its ``overflow`` stays 0."""

    MAX_KICKS = 500
    MAX_LOAD = 0.9       # sizing, and the 64-bit width's growth point
    _FP_FORMAT = 3       # 32-bit fingerprints

    def __init__(self, capacity: int = 1_000_000, kind: str = "exact"):
        self.kind = kind
        self.width = WIDTHS[kind]
        nbuckets = 1
        while nbuckets * 4 * self.MAX_LOAD < capacity:
            nbuckets <<= 1
        self._use(np.zeros((nbuckets, 4), dtype=f"uint{self.width}"))
        self.overflow = 0
        self._has_zero = False
        self.rng = np.random.default_rng(1234)

    def _use(self, table: np.ndarray) -> None:
        self.table = table
        self.nbuckets = len(table)
        self.mask = _U64(self.nbuckets - 1)
        self.count = 0                     # entries in table + stash
        self.stash: dict = {}              # slot value -> set of buckets
        self.stash_n = 0
        self.stash_max = max(4, self.nbuckets >> 6)

    def _fp_and_buckets(self, h: np.ndarray):
        """Slot value and two home buckets of each uint64 key."""
        if self.width == 64:
            fp = h
        else:
            f32 = (_mix(h, 0xF00D) & _U64(0xFFFFFFFF)).astype(np.uint32)
            fp = np.where(f32 == 0, np.uint32(1), f32)
        b1 = (_mix(h, 0xB1) & self.mask).astype(np.int64)
        b2 = b1 ^ (_mix(fp, 0xA17) & self.mask).astype(np.int64)
        return fp, b1, b2

    def _keys(self) -> np.ndarray:
        """Every stored slot value, table and stash (64-bit: the keys)."""
        return np.concatenate([
            self.table[self.table != 0],
            np.fromiter(self.stash, dtype=self.table.dtype,
                        count=len(self.stash))])

    def _lookup(self, fp: np.ndarray, b1: np.ndarray,
                b2: np.ndarray) -> np.ndarray:
        t, f = self.table, fp[:, None]
        hit = (t[b1] == f).any(axis=1) | (t[b2] == f).any(axis=1)
        if self.stash:
            sfps = np.fromiter(self.stash, dtype=fp.dtype,
                               count=len(self.stash))
            for i in np.flatnonzero(np.isin(fp, sfps)):
                buckets = self.stash[fp[i].item()]
                hit[i] |= int(b1[i]) in buckets or int(b2[i]) in buckets
        return hit

    def _insert_one(self, fp, b1: int, b2: int) -> bool:
        """Place FP; returns True iff the table retains one more entry.

        On kick exhaustion the NEW fingerprint is already in the table
        (the first swap placed it); the casualty is the final evicted
        VICTIM, which goes to the stash — unless the stash already
        holds that (value, bucket) pair, which keeps the victim
        findable without a new entry — or, if a bounded stash is full,
        is dropped and counted in ``overflow``."""
        t = self.table
        for b in (b1, b2):
            empty = np.flatnonzero(t[b] == 0)
            if len(empty):
                t[b, empty[0]] = fp
                return True
        b = b1 if self.rng.integers(2) else b2
        cur = t.dtype.type(fp)
        for _ in range(self.MAX_KICKS):
            slot = int(self.rng.integers(4))
            cur, t[b, slot] = t[b, slot], cur
            b ^= int(_mix(np.array([cur], dtype=_U64), 0xA17)[0] & self.mask)
            empty = np.flatnonzero(t[b] == 0)
            if len(empty):
                t[b, empty[0]] = cur
                return True
        # chain exhausted: `cur` was evicted from the swap at the
        # PREVIOUS bucket, so the current `b` (its alternate) is one of
        # its two homes — stash (cur, b) to keep it findable
        if b in self.stash.get(cur.item(), ()):
            return False
        if self.width == 64 or self.stash_n < self.stash_max:
            self.stash.setdefault(cur.item(), set()).add(b)
            self.stash_n += 1
            return True
        self.overflow += 1      # victim lost: a previously-seen key
        return False            # is now unseen (table undersized)

    def _place(self, fp: np.ndarray, b1: np.ndarray, b2: np.ndarray,
               new: np.ndarray) -> None:
        """Store every value flagged in NEW (absent from the table); a
        later in-batch twin of a stored value (same value and buckets)
        is cleared from NEW, so the first occurrence wins.

        Waves alternate b1/b2.  In each, every pending value whose
        bucket has an empty slot claims it and the EARLIEST claimant of
        a bucket wins (claimant positions scattered reversed — with
        duplicate fancy indices the last write lands).  A loser whose
        bucket now holds its own value is a twin of a winner; the
        others retry.  Once a wave on each home places nothing, the
        values left have both buckets full and take the kick loop."""
        t = self.table
        pending = np.flatnonzero(new)
        scratch = np.empty(self.nbuckets, dtype=np.int64)
        wave = idle = 0
        while len(pending) and idle < 2:
            bk = (b1, b2)[wave & 1][pending]
            wave += 1
            empty = t[bk] == 0
            claim = np.flatnonzero(empty.any(axis=1))
            if not len(claim):
                idle += 1
                continue
            idle = 0
            cb = bk[claim]
            scratch[cb[::-1]] = claim[::-1]
            won = claim[scratch[cb] == claim]
            t[bk[won], empty[won].argmax(axis=1)] = fp[pending[won]]
            self.count += len(won)
            done = np.zeros(len(pending), dtype=bool)
            done[claim] = (t[cb] == fp[pending[claim], None]).any(axis=1)
            twins = done.copy()
            twins[won] = False
            new[pending[twins]] = False
            pending = pending[~done]
        kicked: set = set()
        for i in pending:
            # twins reach this loop together; the first one's kick
            # chain may have moved or even dropped its value since
            twin = (fp[i].item(), int(b1[i]))
            if twin in kicked:
                new[i] = False
                continue
            kicked.add(twin)
            if self._insert_one(fp[i], int(b1[i]), int(b2[i])):
                self.count += 1

    def _rehash(self, nbuckets: int) -> None:
        """Move every stored key into NBUCKETS buckets (64-bit width),
        doubling again while a kick chain still ends in the stash."""
        keys = self._keys()
        while True:
            self._use(np.zeros((nbuckets, 4), dtype=self.table.dtype))
            self._place(*self._fp_and_buckets(keys),
                        np.ones(len(keys), dtype=bool))
            if not self.stash:
                return
            keys, nbuckets = self._keys(), nbuckets << 1

    def check_and_add(self, hashes: np.ndarray) -> np.ndarray:
        """Batch check-and-insert, first occurrence wins."""
        hashes = np.asarray(hashes, dtype=_U64)
        new = np.zeros(len(hashes), dtype=bool)
        keys = slice(None)
        if self.width == 64:
            zero = hashes == _U64(0)
            if zero.any():
                if not self._has_zero:
                    self._has_zero = True
                    new[np.argmax(zero)] = True
                keys = np.flatnonzero(~zero)
            nbuckets = self.nbuckets
            while (self.count + len(hashes[keys])
                   > self.MAX_LOAD * 4 * nbuckets):
                nbuckets <<= 1
            if nbuckets > self.nbuckets:
                self._rehash(nbuckets)
        fp, b1, b2 = self._fp_and_buckets(hashes[keys])
        fresh = ~self._lookup(fp, b1, b2)
        self._place(fp, b1, b2, fresh)
        new[keys] = fresh
        if self.width == 64 and self.stash:
            self._rehash(self.nbuckets << 1)
        return new

    def contains(self, hashes: np.ndarray) -> np.ndarray:
        hashes = np.asarray(hashes, dtype=_U64)
        out = self._lookup(*self._fp_and_buckets(hashes))
        if self.width == 64:
            out[hashes == _U64(0)] = self._has_zero
        return out

    def add(self, hashes: np.ndarray) -> None:
        self.check_and_add(hashes)

    def state(self) -> dict:
        if self.width == 64:
            keys = self._keys()
            if self._has_zero:
                keys = np.append(keys, _U64(0))
            return {"kind": "exact", "keys": keys}
        pairs = [(f, b) for f, bs in self.stash.items() for b in bs]
        return {"kind": "cuckoo", "table": self.table, "count": self.count,
                "overflow": self.overflow, "fpv": self._FP_FORMAT,
                "stash_fp": np.array([f for f, _ in pairs], dtype=np.uint32),
                "stash_b": np.array([b for _, b in pairs], dtype=np.int64)}

    def load_state(self, st: dict) -> None:
        if self.width == 64:
            keys = np.asarray(st["keys"], dtype=_U64)
            self.__init__(len(keys), self.kind)
            self.add(keys)
            return
        if int(st.get("fpv", 1)) != self._FP_FORMAT:
            # other formats hold fingerprints of another width or
            # derivation: lookups would miss their keys — refuse
            # loudly rather than resume with a table that forgets URLs
            raise ValueError(
                "cuckoo snapshot uses fingerprint format "
                f"v{st.get('fpv', 1)}, this build writes "
                f"v{self._FP_FORMAT}; rebuild the filter")
        self._use(st["table"])
        self.count = int(st["count"])
        self.overflow = int(st.get("overflow", 0))
        for f, b in zip(np.asarray(st.get("stash_fp", [])).tolist(),
                        np.asarray(st.get("stash_b", [])).tolist()):
            self.stash.setdefault(int(f), set()).add(int(b))
            self.stash_n += 1

    def __len__(self):
        return self.count + int(self._has_zero)

    def memory_bytes(self) -> int:
        return self.table.nbytes




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
        self.backend = SeenTable(capacity, backend)

    def check_and_add(self, hashes: np.ndarray) -> np.ndarray:
        return self.backend.check_and_add(np.asarray(hashes, dtype=np.uint64))

    def contains(self, hashes: np.ndarray) -> np.ndarray:
        return self.backend.contains(np.asarray(hashes, dtype=np.uint64))

    def size(self) -> int:
        return len(self.backend)

    def overflow(self) -> int:
        """Keys LOST to table saturation (32-bit width: kick chain
        exhausted with a full victim stash): each one is a
        previously-seen key whose URL may be re-admitted if
        rediscovered.  Nonzero means the table is undersized — raise
        seen_capacity_per_shard."""
        return self.backend.overflow

    def memory_bytes(self) -> int:
        return self.backend.memory_bytes()

    def snapshot(self, path: str) -> int:
        """Write this shard's filter state to one ``.npz`` file
        (worker-side — the state never transits the driver).  The
        state is the table's keys (64-bit width) or the table itself
        (32-bit width), so a shard snapshot is one array write
        (SCALING.md failure-handling plan)."""
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
        kind, mine = st.get("kind"), self.backend.kind
        if kind is not None and kind != mine:
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
        if backend not in WIDTHS:
            raise ValueError(f"unknown seen_backend {backend!r}; "
                             f"choose one of {sorted(WIDTHS)}")
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
        scatters the final boolean mask: O(n) and no sort.  Use for large
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

"""Cardinality sketches for 100 TB-scale distinct counts.

At 10^10 URLs an exact ``distinct().count()`` shuffles every key; a
HyperLogLog register array is 2^p bytes per PARTIAL regardless of input
size, merges with an elementwise max, and lands on the driver as a few
KiB.  Pure numpy, no libs.

Estimator: classic HyperLogLog (Flajolet et al. 2007) with the
small-range linear-counting correction; relative error ~1.04/sqrt(2^p)
(~0.8% at p=14).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd


def _alpha(m: int) -> float:
    if m == 16:
        return 0.673
    if m == 32:
        return 0.697
    if m == 64:
        return 0.709
    return 0.7213 / (1 + 1.079 / m)


# splitmix64 finalizer — decorrelates pandas' 64-bit hash; one shared
# implementation with the graph operators (same constants, same mix)
from .graph import _mix64  # noqa: E402


def hll_partial(values: "pd.Series|np.ndarray", p: int = 14) -> np.ndarray:
    """One batch's HLL registers (uint8[2^p]) — the mergeable partial."""
    h = _mix64(pd.util.hash_pandas_object(
        pd.Series(values), index=False).to_numpy())
    m = 1 << p
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    rest = (h << np.uint64(p)) & np.uint64(0xFFFFFFFFFFFFFFFF)
    # rank = leading zeros of the remaining 64-p bits, +1 (cap 64-p+1)
    nbits = 64 - p
    rank = np.full(len(h), nbits + 1, dtype=np.uint8)
    nz = rest != 0
    # leading zero count via float64 exponent is unsafe past 2^53; use
    # a bit-length loop over the 64-bit halves instead (vectorized)
    hi = (rest[nz] >> np.uint64(32)).astype(np.uint32)
    lo = (rest[nz] & np.uint64(0xFFFFFFFF)).astype(np.uint32)
    # bit_length of a uint32 fits float64 exactly
    bl_hi = np.where(hi > 0, np.floor(np.log2(
        np.maximum(hi, 1).astype(np.float64))).astype(np.int64) + 1, 0)
    bl_lo = np.where(lo > 0, np.floor(np.log2(
        np.maximum(lo, 1).astype(np.float64))).astype(np.int64) + 1, 0)
    bl = np.where(hi > 0, bl_hi + 32, bl_lo)
    rank[nz] = (64 - bl + 1).astype(np.uint8)
    rank = np.minimum(rank, nbits + 1)
    regs = np.zeros(m, dtype=np.uint8)
    np.maximum.at(regs, idx, rank)
    return regs


def hll_merge(parts: "list[np.ndarray]") -> np.ndarray:
    out = parts[0].copy()
    for q in parts[1:]:
        np.maximum(out, q, out)
    return out


def hll_estimate(regs: np.ndarray) -> float:
    m = len(regs)
    est = _alpha(m) * m * m / np.sum(np.power(2.0, -regs.astype(np.float64)))
    if est <= 2.5 * m:
        zeros = int(np.count_nonzero(regs == 0))
        if zeros:
            return m * float(np.log(m / zeros))
    return float(est)


def approx_ndistinct(ds: rd.Dataset, col: str, p: int = 14) -> float:
    """Approximate COUNT(DISTINCT col): per-batch register partials
    (2^p bytes each), merged driver-side — no shuffle, no key transit."""
    def partial(batch: pa.Table) -> pa.Table:
        regs = hll_partial(batch.column(col).to_pandas(), p=p)
        return pa.Table.from_pydict({"regs": [regs.tobytes()]})

    parts = ds.select_columns([col]).map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True)
    blobs = [np.frombuffer(r["regs"], dtype=np.uint8)
             for r in parts.take_all()]
    if not blobs:
        return 0.0
    return hll_estimate(hll_merge(blobs))


# ---------------------------------------------------------------------------
# Count-Min sketch: approximate per-key counts / heavy hitters in fixed
# memory.  At 10^10 URLs the exact "top hosts" groupby shuffles 10^7+
# keys; a d x w int64 matrix (default 4 x 8192 = 256 KiB) per partial
# merges by elementwise ADD and never under-counts (one-sided error
# <= 2N/w with prob 1-2^-d).

_CM_SEEDS = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F,
                      0x165667B19E3779F9, 0x27D4EB2F165667C5],
                     dtype=np.uint64)


def cm_partial(values: "pd.Series|np.ndarray", weights: "np.ndarray|None" = None,
               w: int = 8192, d: int = 4) -> np.ndarray:
    """One batch's Count-Min matrix (int64[d, w]) — mergeable by +."""
    h = pd.util.hash_pandas_object(pd.Series(values), index=False).to_numpy()
    wt = (np.ones(len(h), dtype=np.int64) if weights is None
          else np.asarray(weights, dtype=np.int64))
    cm = np.zeros((d, w), dtype=np.int64)
    for r in range(d):
        idx = (_mix64(h ^ _CM_SEEDS[r]) % np.uint64(w)).astype(np.int64)
        np.add.at(cm[r], idx, wt)
    return cm


def cm_merge(parts: "list[np.ndarray]") -> np.ndarray:
    out = parts[0].copy()
    for q in parts[1:]:
        out += q
    return out


def cm_query(cm: np.ndarray, values: "pd.Series|np.ndarray") -> np.ndarray:
    """Upper-bound count estimates (never below the true count)."""
    d, w = cm.shape
    h = pd.util.hash_pandas_object(pd.Series(values), index=False).to_numpy()
    est = np.full(len(h), np.iinfo(np.int64).max, dtype=np.int64)
    for r in range(d):
        idx = (_mix64(h ^ _CM_SEEDS[r]) % np.uint64(w)).astype(np.int64)
        est = np.minimum(est, cm[r, idx])
    return est


def heavy_hitters(ds: rd.Dataset, col: str, k: int = 10,
                  candidates_per_block: int = 64,
                  w: int = 8192, d: int = 4,
                  two_pass: bool = False) -> "pd.DataFrame":
    """Approximate top-k most frequent values in FIXED driver memory.

    Each block contributes a 256 KiB Count-Min partial plus its local
    top-``candidates_per_block`` values; the driver merges the
    sketches (elementwise add) and ranks the candidate union by
    CM-estimated count.  Estimates never undercount.

    Recall condition (single pass): a value is a candidate only if it
    lands in SOME block's local top-``candidates_per_block``.  A true
    top-k value spread so thinly that it never makes any block's local
    cut is missed, despite the never-undercounting sketch — more
    blocks make that more likely, so scale ``candidates_per_block``
    with block count (or shrink block count) when key frequencies are
    near-uniform.

    ``two_pass=True`` closes the gap with one extra scan: the merged
    sketch is broadcast (``ray.put`` once, zero-copy in every task)
    and each block re-emits its own top-k distinct values by
    (CM estimate desc, value asc) among those reaching the k-th
    first-pass candidate estimate.  The result is then EXACTLY the
    top-k by CM estimate over all distinct values: a true winner has
    at most k-1 values ranked above it globally, so it survives every
    block's k-cut, and any value excluded has est (or tie-rank) below
    the k-th — it cannot displace a winner.  The per-block k-cut also
    keeps the pass-2 driver gather at k rows/block even when key
    frequencies are near-uniform and the raw threshold would admit
    almost every distinct value.  Residual error is only the CM
    overcount itself (bounded, one-sided).

    Unlike an exact groupby-count, state is O(w*d + candidates),
    independent of key cardinality — the 10^10-URL "top hosts" shape.
    Returns (value, est) sorted desc, est desc / value asc ties.
    """
    def partial(batch: pa.Table) -> pa.Table:
        s = batch.column(col).to_pandas()
        cm = cm_partial(s, w=w, d=d)
        # candidates keep their NATIVE dtype: cm_query must hash the
        # same values cm_partial hashed (str-casting int keys would
        # hash to different buckets and zero every estimate)
        top = s.value_counts().head(candidates_per_block)
        return pa.Table.from_pydict({
            "cm": [cm.tobytes()],
            "cands": [top.index.tolist()],
        })

    parts = ds.select_columns([col]).map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True).take_all()
    if not parts:
        return pd.DataFrame({col: [], "est": []})
    cm = cm_merge([np.frombuffer(p["cm"], dtype=np.int64).reshape(d, w)
                   for p in parts])
    cands = sorted({c for p in parts for c in p["cands"]})
    est = cm_query(cm, pd.Series(cands))
    if two_pass and len(cands):
        # under k candidates, any value may still belong to the top k
        threshold = (int(np.sort(est)[::-1][k - 1]) if len(cands) >= k
                     else 0)
        cm_ref = ray.put(cm)

        def rescan(batch: pa.Table) -> pa.Table:
            s = batch.column(col).to_pandas().drop_duplicates()
            e = cm_query(ray.get(cm_ref), s)
            keep = e >= threshold
            # each block returns only its top-k by (est desc, value
            # asc) — EXACT for the global top-k by CM estimate: a true
            # winner has at most k-1 values ranked above it GLOBALLY,
            # so no block can crowd it below its own k-cut.  Bounds the
            # driver gather to k rows/block in the near-uniform regime
            # (where >= threshold would otherwise admit nearly every
            # distinct value and break the fixed-driver-memory
            # contract).
            top = (pd.DataFrame({"v": s[keep].to_numpy(), "e": e[keep]})
                   .sort_values(["e", "v"], ascending=[False, True])
                   .head(k))
            # typed like the input, also when no row is kept (an
            # untyped empty column is null-typed)
            return pa.table({"v": pa.array(top["v"].tolist(),
                                           batch.schema.field(col).type)})

        extra = ds.select_columns([col]).map_batches(
            rescan, batch_format="pyarrow", zero_copy_batch=True).take_all()
        more = {r["v"] for r in extra} - set(cands)
        if more:
            more = sorted(more)
            cands = cands + more
            est = np.concatenate([est, cm_query(cm, pd.Series(more))])
    out = (pd.DataFrame({col: cands, "est": est})
           .sort_values(["est", col], ascending=[False, True])
           .head(k).reset_index(drop=True))
    return out

"""Turbo round stage: the whole per-batch pipeline fused into ONE
function for the scale path.

``CrawlEngine.run_turbo`` runs each round as one task wave: one
``_turbo_batch`` task per batch calls ``turbo_round_udf`` and then
splits its rows into frontier parts (``pipelines/crawl.py``).  Per
input batch of queued frontier rows, inside the task:
  fetch -> parse/discover -> explode + redirect re-queue (Arrow list
  kernels) -> canonicalize each distinct link once (the worker's store
  for this crawl config, ``candidates.canon_store``) -> domain/robots/
  depth filters -> global dedup (RPC to the sharded seen-set actors)
  -> seq stamp
and the fetched rows (with payloads) are written DIRECTLY to the
parquet sink from the worker — they never travel to the driver.  The
sink part is named by the batch's index within the round
(``round=NNNNN/part-<batch:05d>.parquet``), so a Ray retry of a batch
overwrites its part instead of adding duplicate rows.  The function
returns only the thin new-frontier rows (the next wave) and the batch's
event counters, ``(rows, counters)`` (no metrics actor, no per-batch
RPC — see A8 / crawler.ts event counters).

This trades the conformance mode's exact FIFO ordering for one task
wave per round and near-zero driver work:

* ``seq`` is hash-stamped: ``(round+1) << 42 | (url_hash & MASK)`` —
  monotone ACROSS rounds (BFS order preserved), arbitrary within a
  round.  Use the default engine mode when reference-exact ordering
  matters (tests); use turbo for throughput (bench / production).
* duplicate-candidate ties within a round are won by whichever task
  reaches the seen shard first (the reference's first-wins per
  arrival order — arrival order is just no longer deterministic).
* the first request (the seed and the redirect chain that starts at
  it, ``candidates.redirect_candidates``) is handled as in ``run()``:
  its redirect target keeps depth 1, and under
  ``allow_initial_domain_change`` (crawler.ts:1951-1953) the batch
  holding it adopts the target host for its own candidate filtering.
  The batch reports the outcome in its counters (``FIRST_KEY``); the
  driver moves ``first_url`` on, rewrites ``cfg.host`` and rebroadcasts
  before the next round.

Politeness still holds: the driver applies the per-host budget when
building the next wave from the returned rows.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..schemas import FRONTIER_SCHEMA
from .candidates import (FIRST_KEY, CandidateProcessor, candidate_processor,
                         candidates_to_frontier_rows, explode_discovered,
                         redirect_candidates)
from .fetch import fetch_counters, worker_fetcher

_SEQ_MASK = (1 << 42) - 1


def turbo_round_udf(batch: pa.Table, *, web_ref, cfg_ref, robots_ref,
                    seen_shards, round_no, sink_dir, batch_no=0,
                    first_url=None) -> tuple[pa.Table, dict]:
    # the fetcher does not read robots: a new robots snapshot rebuilds
    # only the candidate processor (which keeps the config's store)
    fetcher = worker_fetcher(web_ref, cfg_ref)
    proc = candidate_processor(cfg_ref, robots_ref)
    cfg = fetcher.cfg

    fetched = fetcher(batch)

    # sink the fetched rows from the worker (resumable per-round layout)
    if sink_dir:
        rdir = os.path.join(sink_dir, f"round={round_no:05d}")
        os.makedirs(rdir, exist_ok=True)
        out = fetched.drop_columns(["discovered"])
        pq.write_table(out, os.path.join(rdir, f"part-{batch_no:05d}.parquet"))

    counters = fetch_counters(fetched, cfg.get("discover", True))
    raw = explode_discovered(fetched, cfg.get("max_depth", 0))
    redirs, first = redirect_candidates(fetched, cfg, first_url)
    if first is not None:
        counters[FIRST_KEY] = first
        if first[1]:
            # the seed chain's redirect adopts the target host for THIS
            # batch's candidates; the driver takes it from the counters
            proc = CandidateProcessor({**cfg, "host": first[1]},
                                      proc.robots, proc.store)
    if redirs is not None:
        raw = pa.concat_tables([raw, redirs])

    if raw.num_rows == 0:
        return FRONTIER_SCHEMA.empty_table(), counters

    cands = proc(raw)
    for e in pc.value_counts(cands.column("reject_reason")).to_pylist():
        if e["values"]:
            counters[e["values"]] = (counters.get(e["values"], 0)
                                     + int(e["counts"]))
    cands = cands.filter(pc.equal(cands.column("reject_reason"), ""))
    if cands.num_rows == 0:
        return FRONTIER_SCHEMA.empty_table(), counters

    # distributed dedup: scatter to the seen shards, first-wins (the
    # ONE shard-routing implementation lives in state/seen.py)
    from ..state.seen import scatter_check_and_add

    hashes = np.asarray(cands.column("url_hash").to_numpy(zero_copy_only=False),
                        dtype=np.uint64)
    mask = scatter_check_and_add(hashes, seen_shards)
    counters["queueadd"] = int(mask.sum())
    counters["queueduplicate"] = int((~mask).sum())
    admitted = cands.filter(pa.array(mask))
    if admitted.num_rows == 0:
        return FRONTIER_SCHEMA.empty_table(), counters

    seqs = (((round_no + 1) << 42)
            | (np.asarray(admitted.column("url_hash").to_numpy(zero_copy_only=False),
                          dtype=np.uint64) & np.uint64(_SEQ_MASK))).astype(np.int64)
    rows = candidates_to_frontier_rows(admitted, seqs, round_no + 1)
    return rows, counters

"""The per-batch function of both crawl loops.

``CrawlEngine`` runs each round as one task wave: one ``_crawl_batch``
task per batch of queued frontier rows calls ``turbo_round_udf``
(``pipelines/crawl.py``).  Inside the task, in order:
  robots check of the queued rows (``robots.robots_allowed`` against
  the round's rules snapshot; refused rows become ``disallowed``
  records, crawler.ts:1296-1335) -> fetch the rest -> sink the
  terminal rows -> event counters -> explode + redirect re-queue
  (Arrow list kernels) -> fetch-complete hook and 304 cache entries
  (only when given) -> canonicalize each distinct link once (the
  worker's store for this crawl config, ``candidates.canon_store``)
  -> domain/robots/depth/condition filters -> admit
The batch's event counters (no metrics actor, no per-batch RPC — see
A8 / crawler.ts event counters) ride back with its rows.  Its terminal
rows, each URL's final record, are the fetched rows plus the refused
ones.  Every terminal row of either loop is written DIRECTLY from the
worker to the engine's parquet sink, and only there.  The sink part is
named by the batch's index within the round
(``round=NNNNN/part-<batch:05d>.parquet``), so a Ray retry of a batch
overwrites its part instead of adding duplicate rows; the directory
key is the fetch round, so the rows carry no ``round`` column.

The admission is the only step in which the loops differ:

* ``run()`` passes no seen shards and gets the kept candidates back.
  The driver admits a round's candidates in ``(parent_seq, pos)`` order
  and stamps exact FIFO seqs (the reference's ``QueueItem.id`` order).
* ``run_turbo()`` admits first-wins at the seen shards (an RPC to the
  sharded seen-set actors) and gets frontier rows back, ``seq``
  hash-stamped ``(round+1) << 42 | (url_hash & MASK)``: monotone ACROSS
  rounds (BFS order preserved), arbitrary within a round, and
  duplicate-candidate ties go to whichever task reaches the shard
  first.

Both handle the first request (the seed and the redirect chain that
starts at it, ``candidates.redirect_candidates``) alike: its redirect
target keeps depth 1, and under ``allow_initial_domain_change``
(crawler.ts:1951-1953) the batch holding it adopts the target host for
its own candidate filtering.  The batch reports the outcome in its
counters (``FIRST_KEY``); the driver moves ``first_url`` on, rewrites
``cfg.host`` and rebroadcasts before the next round.

Politeness still holds: the driver applies the per-host budget when
building the next wave from the queued rows.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..robots import robots_allowed
from ..schemas import FRONTIER_SCHEMA, STATUS_DISALLOWED
from .candidates import (FIRST_KEY, CandidateProcessor, candidate_processor,
                         candidates_to_frontier_rows, explode_discovered,
                         redirect_candidates)
from .fetch import _PAYLOAD, _normalize_fetched, fetch_counters, worker_fetcher

_SEQ_MASK = (1 << 42) - 1

#: counters keys of a batch's fetch-complete hook candidates (a list of
#: candidate dicts) and 304 cache entries (``{url: (etag,
#: last-modified)}``), present only when a hook or cache ref is given,
#: and of the seqs of the rows its robots check refused, present only
#: when it refused some
HOOK_KEY = "hook"
CACHE_KEY = "cached"
REFUSED_KEY = "refused"


def _disallowed_rows(rows: pa.Table) -> pa.Table:
    """Terminal records for queued rows the robots check refused: status
    ``disallowed``, ``fetched`` set, null payloads — laid out like
    fetched rows, so the sink and its readers treat both alike."""
    n = rows.num_rows
    t = rows.set_column(rows.schema.get_field_index("status"), "status",
                        pa.array([STATUS_DISALLOWED] * n))
    t = t.set_column(t.schema.get_field_index("fetched"), "fetched",
                     pa.array([True] * n))
    for name, typ in _PAYLOAD:
        t = t.append_column(name, pa.nulls(n, typ))
    return _normalize_fetched(t)


def turbo_round_udf(batch: pa.Table, *, web_ref, cfg_ref, robots_ref,
                    seen_shards, round_no, sink_dir, batch_no=0,
                    first_url=None, cache_ref=None, hook=None
                    ) -> tuple[pa.Table, dict, pa.Table]:
    """One batch of queued rows -> ``(rows, counters, terminal)``:
    frontier rows admitted at ``seen_shards``, or, without shards, the
    kept candidates for the driver to admit; the batch's counters (with
    its ``FIRST_KEY``, ``HOOK_KEY``, ``CACHE_KEY`` and ``REFUSED_KEY``
    entries); and its terminal rows, the fetched rows followed by the
    ones the robots check refused, as written to ``sink_dir``.  The
    engine's task (``_crawl_batch``) returns no terminal row: the sink
    is their one destination."""
    # the fetcher does not read robots: a new robots snapshot rebuilds
    # only the candidate processor (which keeps the config's store)
    fetcher = worker_fetcher(web_ref, cfg_ref, cache_ref)
    proc = candidate_processor(cfg_ref, robots_ref)
    cfg = fetcher.cfg

    refused = None
    if cfg.get("respect_robots_txt", True):
        allowed = robots_allowed(*(batch.column(c).combine_chunks() for c in
                                   ("host", "port", "path")), proc.robots)
        if allowed is not None and not pc.all(allowed).as_py():
            refused = _disallowed_rows(batch.filter(pc.invert(allowed)))
            batch = batch.filter(allowed)

    fetched = fetcher(batch)
    terminal = fetched if refused is None else pa.concat_tables(
        [fetched, refused], promote_options="default")

    # sink the terminal rows from the worker (resumable per-round
    # layout); the engine always passes a sink, in-process callers may not
    if sink_dir:
        rdir = os.path.join(sink_dir, f"round={round_no:05d}")
        os.makedirs(rdir, exist_ok=True)
        out = terminal.drop_columns(["discovered", "round"])
        pq.write_table(out, os.path.join(rdir, f"part-{batch_no:05d}.parquet"))

    counters = fetch_counters(fetched, cfg.get("discover", True))
    if refused is not None:
        counters["fetchdisallowed"] = refused.num_rows
        counters[REFUSED_KEY] = refused.column("seq").to_pylist()
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

    if hook is not None:
        # §2.10 manual discovery: the hook sees the downloaded rows in
        # seq order; its candidates join the driver's manual enqueues
        norm = _normalize_fetched(fetched)
        dl = norm.filter(pc.equal(norm.column("status"), "downloaded"))
        dl = dl.take(pc.sort_indices(dl, sort_keys=[("seq", "ascending")]))
        manual = []
        for e in (hook(dl) if dl.num_rows else None) or []:
            # a hook returns URL strings or dicts with ``candidate`` plus
            # optional referrer attribution
            if isinstance(e, str):
                e = {"candidate": e}
            manual.append(dict(candidate=e["candidate"],
                               referrer_url=e.get("referrer_url", ""),
                               referrer_depth=int(e.get("referrer_depth", 0)),
                               parent_seq=int(e.get("parent_seq", -1)),
                               pos=int(e.get("pos", 0))))
        counters[HOOK_KEY] = manual
    if cache_ref is not None:
        cached = {}
        for u, hj, code in zip(*(fetched.column(c).to_pylist() for c in
                                 ("url", "state_headers", "state_code"))):
            h = json.loads(hj) if hj and 200 <= code < 300 else {}
            if h.get("etag") or h.get("last-modified"):
                cached[u] = (h.get("etag"), h.get("last-modified"))
        counters[CACHE_KEY] = cached

    if raw.num_rows == 0:
        return FRONTIER_SCHEMA.empty_table(), counters, terminal

    cands = proc(raw)
    for e in pc.value_counts(cands.column("reject_reason")).to_pylist():
        if e["values"]:
            counters[e["values"]] = (counters.get(e["values"], 0)
                                     + int(e["counts"]))
    cands = cands.filter(pc.equal(cands.column("reject_reason"), ""))
    if seen_shards is None:
        return cands, counters, terminal
    if cands.num_rows == 0:
        return FRONTIER_SCHEMA.empty_table(), counters, terminal

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
        return FRONTIER_SCHEMA.empty_table(), counters, terminal

    seqs = (((round_no + 1) << 42)
            | (np.asarray(admitted.column("url_hash").to_numpy(zero_copy_only=False),
                          dtype=np.uint64) & np.uint64(_SEQ_MASK))).astype(np.int64)
    rows = candidates_to_frontier_rows(admitted, seqs, round_no + 1)
    return rows, counters, terminal

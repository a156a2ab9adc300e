"""Candidate processing: explode discovered links -> canonicalize ->
domain/robots/depth/condition filters.

Mirrors the reference enqueue path ``queueLinkedItems`` -> ``queueURL``
(src/crawler.ts:1079-1093, 1483-1538): maxDepth gate before queueURL
(discovered links only — redirects bypass it), then processURL (M2),
domainValid (M7), urlIsAllowed (M8), fetch conditions (§2.10), then the
global dedup (queue.add, D1) which lives in pipelines/crawl.py.

Rejections become ``reject_reason`` values matching the reference's
event names (invaliddomain, fetchdisallowed, fetchconditionerror,
fetchprevented) so event counters are derivable (A8).

The stage is columnar: Python touches each *distinct* link once, Arrow
kernels do the per-row work.  ``explode_discovered`` flattens the
``discovered`` lists with list kernels.  ``CandidateProcessor``
dictionary-encodes a row key (the candidate when it is absolute, else
candidate + NUL + referrer) and looks each distinct key up in a
``CanonStore``.  A miss on an href the resolve step emitted fills its
row from the part boundaries that step left in
``discovery.HREF_SPANS`` (``urlnorm.canon_from_spans``: no second
parse) when the crawl keeps the default ``CanonOpts``; any other miss
(other options, a redirect target, a seed, a relative key) runs
``process_url``.  The canonical columns
are then ``take``s of the store's Arrow arrays by row id.  Worker-side,
the store is kept per crawl config (``canon_store``), so it outlives
robots rebroadcasts and spans a whole crawl.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..robots import RobotsRules, can_refuse, robots_allowed
from ..sources.web import url_hash64
from ..conditions import eval_condition
from ..discovery import _SCHEME_RE, HREF_SPANS
from ..urlnorm import CanonOpts, Uri, canon_from_spans, domain_valid, process_url
from ..schemas import frontier_row_defaults

CANDIDATE_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("url_hash", pa.uint64()),
        ("protocol", pa.string()),
        ("host", pa.string()),
        ("port", pa.int32()),
        ("path", pa.string()),
        ("uri_path", pa.string()),
        ("depth", pa.int32()),
        ("referrer", pa.string()),
        ("parent_seq", pa.int64()),
        ("pos", pa.int32()),
        ("forced", pa.bool_()),
        ("reject_reason", pa.string()),
    ]
)

#: raw candidate rows (explode / candidate_table output)
RAW_SCHEMA = pa.schema(
    [
        ("candidate", pa.string()),
        ("referrer_url", pa.string()),
        ("referrer_depth", pa.int32()),
        ("parent_seq", pa.int64()),
        ("pos", pa.int32()),
        ("forced", pa.bool_()),
        ("depth_override", pa.int32()),
    ]
)

#: the referrer-independent canonical columns a store row holds
CANON_SCHEMA = pa.schema(list(CANDIDATE_SCHEMA)[:7])


def explode_discovered(batch: pa.Table, max_depth: int) -> pa.Table:
    """fetched rows -> raw candidate rows (candidate, referrer ctx, pos).

    Depth gate: enqueue only if maxDepth == 0 or depth+1 <= maxDepth
    (src/crawler.ts:1086-1090), applied as one filter before the
    flatten.  Null and empty ``discovered`` lists yield no rows.
    """
    if max_depth != 0 and batch.num_rows:
        batch = batch.filter(pc.less(batch.column("depth"), max_depth))
    if batch.num_rows == 0:
        return RAW_SCHEMA.empty_table()
    disc = batch.column("discovered").combine_chunks()
    parents = pc.list_parent_indices(disc)
    n = len(parents)
    if n == 0:
        return RAW_SCHEMA.empty_table()
    lengths = pc.list_value_length(disc).fill_null(0).to_numpy()
    starts = np.cumsum(lengths) - lengths
    pos = np.arange(n, dtype=np.int64) - starts[parents.to_numpy()]
    ref = batch.select(["url", "depth", "seq"]).take(parents)
    return pa.table(
        [
            pc.list_flatten(disc),
            ref.column("url"),
            ref.column("depth").cast(pa.int32()),
            ref.column("seq").cast(pa.int64()),
            pa.array(pos, pa.int32()),
            pa.repeat(pa.scalar(False), n),
            pa.repeat(pa.scalar(-1, pa.int32()), n),
        ],
        schema=RAW_SCHEMA,
    )


def canon_opts(cfg: dict) -> CanonOpts:
    """The canonicalization options a crawl config sets (processURL's
    strip/sort/www/encoding options, src/crawler.ts:895-958)."""
    return CanonOpts(
        strip_querystring=cfg.get("strip_querystring", False),
        sort_query_parameters=cfg.get("sort_query_parameters", False),
        strip_www_domain=cfg.get("strip_www_domain", False),
        url_encoding=cfg.get("url_encoding", "unicode"),
    )


#: the counters key under which a batch task reports its first-request
#: outcome (``redirect_candidates``) to the driver
FIRST_KEY = "first"


def redirect_candidates(fetched: pa.Table, cfg: dict, first_url: Optional[str]
                        ) -> tuple[Optional[pa.Table], Optional[tuple]]:
    """A fetched batch's redirect targets as raw candidates, None when no
    row redirected (crawler.ts 3xx handling), and its first-request
    outcome.

    The first request is the seed and the redirect chain that starts at
    it: the row whose ``url`` is ``first_url``.  If it redirects, its
    target keeps depth 1 (crawler.ts:1947-1949) and is the next
    ``first_url``; under ``allow_initial_domain_change`` the target's
    host becomes the crawl's host (crawler.ts:1951-1953).  Any other
    response ends the chain.  The outcome is ``(next first_url, new host
    or None)``, or None when the batch does not hold the first request."""
    first = None
    if first_url is not None and pc.index(fetched.column("url"),
                                          first_url).as_py() >= 0:
        first = (None, None)
    redirs = fetched.filter(pc.and_(
        pc.equal(fetched.column("disposition"), "fetchredirect"),
        pc.not_equal(pc.coalesce(fetched.column("location"), ""), "")))
    cands = []
    for loc, url, depth, seq in zip(*(redirs.column(c).to_pylist() for c in
                                      ("location", "url", "depth", "seq"))):
        is_first = url == first_url
        if is_first:
            t = process_url(loc, url, opts=canon_opts(cfg))
            adopt = t is not None and cfg.get("allow_initial_domain_change")
            first = (t.url if t is not None else None,
                     (t.host or None) if adopt else None)
        cands.append(dict(candidate=loc, referrer_url=url, referrer_depth=depth,
                          parent_seq=seq, depth_override=1 if is_first else -1))
    return (candidate_table(cands) if cands else None), first


def candidate_table(cands: list[dict]) -> pa.Table:
    """Build a raw-candidate table from dicts (redirects, sitemaps, manual
    enqueues). Keys: candidate, referrer_url, referrer_depth, parent_seq,
    pos, forced, depth_override."""
    return pa.table(
        {
            "candidate": [c["candidate"] for c in cands],
            "referrer_url": [c.get("referrer_url", "") for c in cands],
            "referrer_depth": [c.get("referrer_depth", 0) for c in cands],
            "parent_seq": [c.get("parent_seq", -1) for c in cands],
            "pos": [c.get("pos", 0) for c in cands],
            "forced": [c.get("forced", False) for c in cands],
            "depth_override": [c.get("depth_override", -1) for c in cands],
        },
        schema=RAW_SCHEMA,
    )


class CanonStore:
    """Canonical rows by key: ``ids`` maps a key to a row id in the
    store's rows (``CANON_SCHEMA``), or to -1 when ``process_url``
    rejects it.

    Only absolute keys are kept: their canonical form does not depend on
    the referrer or on anything in the config but ``opts``.  Rows live
    in chunks merged like a binary counter, so appending copies each row
    O(log rows) times and a lookup takes from O(log rows) chunks.  Past
    ``MAX_KEYS`` keys the store starts over empty."""

    MAX_KEYS = 500_000

    def __init__(self, opts: CanonOpts):
        self.opts = opts
        self.ids: dict[str, int] = {}
        self.chunks: list[pa.Table] = []
        self.rows = 0

    def reset_if_full(self) -> None:
        if len(self.ids) > self.MAX_KEYS:
            self.ids, self.chunks, self.rows = {}, [], 0

    def append(self, t: pa.Table) -> None:
        self.chunks.append(t)
        self.rows += t.num_rows
        while (len(self.chunks) > 1
               and self.chunks[-1].num_rows >= self.chunks[-2].num_rows):
            b = self.chunks.pop()
            self.chunks.append(pa.concat_tables([self.chunks.pop(), b])
                               .combine_chunks())

    def take(self, row_ids: np.ndarray, extra: pa.Table) -> pa.Table:
        """Rows by id, in ``row_ids`` order; ids from ``self.rows`` on
        index ``extra``."""
        uniq, inverse = np.unique(row_ids, return_inverse=True)
        parts, lo = [], 0
        for c in self.chunks + [extra]:
            hi = lo + c.num_rows
            a, b = np.searchsorted(uniq, [lo, hi])
            if b > a:
                parts.append(c.take(pa.array(uniq[a:b] - lo)))
            lo = hi
        return pa.concat_tables(parts).combine_chunks().take(pa.array(inverse))


def canon_store(cfg_ref, opts: CanonOpts) -> CanonStore:
    """The worker's store for one crawl config, shared by every
    worker processor built with the same ``cfg_ref``."""
    from .fetch import _WORKER_CACHE, _ref_key

    key = ("canon", _ref_key(cfg_ref))
    store = _WORKER_CACHE.get(key)
    if store is None or store.opts != opts:
        for k in [k for k in _WORKER_CACHE if k[0] == "canon"]:
            del _WORKER_CACHE[k]
        store = _WORKER_CACHE[key] = CanonStore(opts)
    return store


def candidate_processor(cfg_ref, robots_ref) -> "CandidateProcessor":
    """Worker-local processor for one (config, robots) snapshot; its
    store is the config's ``canon_store``, so a new robots snapshot
    keeps every canonical row already computed."""
    from .fetch import _WORKER_CACHE, _ref_key

    key = ("candproc", _ref_key(cfg_ref), _ref_key(robots_ref))
    p = _WORKER_CACHE.get(key)
    if p is None:
        for k in [k for k in _WORKER_CACHE if k[0] == "candproc"]:
            del _WORKER_CACHE[k]
        p = CandidateProcessor(cfg_ref, robots_ref)
        p.store = canon_store(cfg_ref, p.canon)
        _WORKER_CACHE[key] = p
    return p


def _col(t: pa.Table, name: str) -> pa.Array:
    return t.column(name).combine_chunks()


def _canon_table(rows: list[tuple]) -> pa.Table:
    cols = list(zip(*rows)) or [[]] * len(CANON_SCHEMA)
    return pa.table([pa.array(c, f.type) for c, f in zip(cols, CANON_SCHEMA)],
                    schema=CANON_SCHEMA)


class CandidateProcessor:
    """Callable: raw candidates -> canonical candidate rows with
    reject_reason ('' == kept), in input row order.

    Config + robots snapshot are resolved once per processor from
    ray.put refs (plain objects are taken as they are).  Python work is
    per distinct key (canonicalization), per distinct host (domain
    verdict) and per distinct ``host:port`` (``robots.robots_allowed``:
    the path match runs once per row id, only where the host carries
    rules), and fetch conditions only on rows still kept.  A
    processor built directly gets its own empty ``CanonStore``;
    ``candidate_processor`` shares the config's store instead."""

    def __init__(self, config_ref, robots_ref, store: CanonStore | None = None):
        cfg = ray.get(config_ref) if isinstance(config_ref, ray.ObjectRef) else config_ref
        self.cfg = cfg
        self.canon = canon_opts(cfg)
        robots = ray.get(robots_ref) if isinstance(robots_ref, ray.ObjectRef) else robots_ref
        # only the entries that can refuse a path: with none (every
        # measured crawl), ``robots_allowed`` returns before it builds a key
        self.robots: dict[str, RobotsRules] = {
            k: r for k, r in (robots or {}).items() if can_refuse(r)}
        self.fetch_conditions = cfg.get("fetch_conditions") or []
        self.store = store if store is not None else CanonStore(self.canon)
        # the resolve step's parts give the row under the default options
        # only; with any other, every miss runs process_url
        self._spans = HREF_SPANS if self.canon == CanonOpts() else {}
        self._domain: dict[str, bool] = {}

    def _row_ids(self, batch: pa.Table) -> tuple[np.ndarray, pa.Table]:
        """Row id per input row (-1 where ``process_url`` rejects the
        candidate), and this call's rows for relative keys: they take
        the ids just past the store's rows and are not kept."""
        store = self.store
        store.reset_if_full()
        cands = _col(batch, "candidate").fill_null("")
        refs = _col(batch, "referrer_url").fill_null("")
        absolute = pc.match_substring_regex(cands, _SCHEME_RE.pattern)
        key = pc.if_else(absolute, cands,
                         pc.binary_join_element_wise(cands, refs, "\x00"))
        enc = pc.dictionary_encode(key)
        indices = enc.indices.to_numpy()
        ids = store.ids
        dict_ids = [ids.get(k) for k in enc.dictionary.to_pylist()]
        misses = [j for j, r in enumerate(dict_ids) if r is None]
        kept_rows, local_rows, new_ids = [], [], []
        if misses:
            first = np.unique(indices, return_index=True)[1][misses]
            bases: dict[str, Uri] = {}
            for j, cand, ref, is_abs in zip(
                    misses, cands.take(first).to_pylist(),
                    refs.take(first).to_pylist(),
                    absolute.take(first).to_pylist()):
                # a link the resolve step emitted fills its row from that
                # parse; any other candidate (a redirect target, a seed, a
                # relative key) goes through process_url
                spans = self._spans.get(cand) if is_abs else None
                if spans is not None:
                    fields = canon_from_spans(cand, spans)
                else:
                    base = bases.get(ref)
                    if base is None:
                        base = bases[ref] = Uri.parse(ref)
                    row = process_url(cand, base, opts=self.canon,
                                      referrer_str=ref)
                    fields = row and (row.url, row.protocol, row.host,
                                      row.port, row.path, row.uri_path)
                if fields is None:
                    rid = -1  # urijs choke — silently dropped (queueURL:1497-1500)
                else:
                    canon = (fields[0], url_hash64(fields[0])) + fields[1:]
                    if is_abs:
                        rid = store.rows + len(kept_rows)
                        kept_rows.append(canon)
                    else:
                        rid = -2 - len(local_rows)
                        local_rows.append(canon)
                if is_abs:
                    new_ids.append((cand, rid))
                dict_ids[j] = rid
        dict_ids = np.asarray(dict_ids, dtype=np.int64)
        # keys go in only with their rows: a raise above leaves no key
        # pointing past the store's end
        if kept_rows:
            store.append(_canon_table(kept_rows))
        ids.update(new_ids)
        if local_rows:
            local = dict_ids <= -2
            dict_ids[local] = store.rows - 2 - dict_ids[local]
        return dict_ids[indices], _canon_table(local_rows)

    def _domain_ok(self, host: pa.Array) -> pa.Array:
        """domainValid once per distinct host (verdicts kept per processor)."""
        cfg = self.cfg
        enc = pc.dictionary_encode(host)
        verdicts = []
        for h in enc.dictionary.to_pylist():
            dv = self._domain.get(h)
            if dv is None:
                dv = self._domain[h] = domain_valid(
                    h, cfg.get("host", ""),
                    filter_by_domain=cfg.get("filter_by_domain", True),
                    ignore_www_domain=cfg.get("ignore_www_domain", True),
                    scan_subdomains=cfg.get("scan_subdomains", False),
                    domain_whitelist=cfg.get("domain_whitelist"),
                )
            verdicts.append(dv)
        return pa.array(verdicts, pa.bool_()).take(enc.indices)

    def _conditions(self, out: pa.Table, reason: list) -> None:
        """Fetch conditions on the rows still kept; rewrites ``reason``."""
        keep = [i for i, r in enumerate(reason) if not r]
        if not keep:
            return
        cols = out.select(["url", "host", "path", "port", "protocol",
                           "depth", "referrer"]).take(keep).to_pydict()
        for k, i in enumerate(keep):
            qi = {name: col[k] for name, col in cols.items()}
            ref, depth = qi["referrer"], qi["depth"]
            # two-arg conditions get the referrer item — the
            # reference's (queueItem, referrerQueueItem) shape
            ref_item = {"url": ref, "depth": depth - 1} if ref else None
            for cond in self.fetch_conditions:
                try:
                    ok = eval_condition(cond, qi, ref_item)
                except Exception:
                    reason[i] = "fetchconditionerror"
                    break
                if not ok:
                    reason[i] = "fetchprevented"
                    break

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return CANDIDATE_SCHEMA.empty_table()
        row_ids, local = self._row_ids(batch)
        kept = row_ids >= 0
        if not kept.all():
            batch = batch.filter(pa.array(kept))
            row_ids = row_ids[kept]
        if batch.num_rows == 0:
            return CANDIDATE_SCHEMA.empty_table()
        canon = self.store.take(row_ids, local)

        override = _col(batch, "depth_override").cast(pa.int32())
        depth = pc.if_else(
            pc.greater_equal(override, 0), override,
            pc.add(_col(batch, "referrer_depth").cast(pa.int32()),
                   pa.scalar(1, pa.int32())))
        domain_ok = self._domain_ok(_col(canon, "host"))
        reason = pc.if_else(domain_ok, "", "invaliddomain")
        if self.cfg.get("respect_robots_txt", True):
            # a row id fixes host, port and path: one verdict per id
            allowed = robots_allowed(*(_col(canon, c) for c in
                                       ("host", "port", "path")),
                                     self.robots, ids=row_ids)
            if allowed is not None:
                reason = pc.if_else(pc.or_(allowed, pc.invert(domain_ok)),
                                    reason, "fetchdisallowed")
        cols = canon.columns + [
            depth,
            _col(batch, "referrer_url").cast(pa.string()),
            _col(batch, "parent_seq").cast(pa.int64()),
            _col(batch, "pos").cast(pa.int32()),
            _col(batch, "forced").cast(pa.bool_()).fill_null(False),
            reason,
        ]
        out = pa.table(cols, schema=CANDIDATE_SCHEMA)
        if self.fetch_conditions:
            reasons = out.column("reject_reason").to_pylist()
            self._conditions(out, reasons)
            out = out.set_column(out.num_columns - 1, CANDIDATE_SCHEMA[-1],
                                 pa.array(reasons, pa.string()))
        return out


def candidates_to_frontier_rows(cands: pa.Table, seqs, round_no: int) -> pa.Table:
    """Kept candidates + assigned seq -> frontier-schema queued rows."""
    n = cands.num_rows
    defaults = frontier_row_defaults()

    def const(value, typ):
        return pa.repeat(pa.scalar(value, typ), n)

    data = {
        "seq": pa.array(seqs, pa.int64()),
        "url": cands.column("url"),
        "url_hash": cands.column("url_hash"),
        "protocol": cands.column("protocol"),
        "host": cands.column("host"),
        "port": cands.column("port"),
        "path": cands.column("path"),
        "uri_path": cands.column("uri_path"),
        "depth": cands.column("depth"),
        "referrer": cands.column("referrer"),
        "fetched": const(defaults["fetched"], pa.bool_()),
        "status": const(defaults["status"], pa.string()),
        "state_request_latency_ms": const(0, pa.int32()),
        "state_request_time_ms": const(0, pa.int32()),
        "state_download_time_ms": const(0, pa.int32()),
        "state_content_length": const(0, pa.int64()),
        "state_content_type": const("", pa.string()),
        "state_code": const(0, pa.int16()),
        "state_headers": const("", pa.string()),
        "state_actual_data_size": const(0, pa.int64()),
        "state_sent_incorrect_size": const(False, pa.bool_()),
        "round": const(round_no, pa.int32()),
    }
    return pa.table(data)

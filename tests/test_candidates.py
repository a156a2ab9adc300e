"""The columnar candidate stage against the per-row loop it replaced.

``_oracle_explode`` / ``_oracle_candidates`` are the row-at-a-time
``explode_discovered`` and ``CandidateProcessor.__call__`` kept verbatim
as oracles: every generated batch must give a table-equal result,
schema and row order included, with a cold store and a warm one.
"""

from __future__ import annotations

import pyarrow as pa
import pytest
import ray
from hypothesis import given, settings, strategies as st

from simplecrawler_ray.conditions import eval_condition
from simplecrawler_ray.discovery import _SCHEME_RE
from simplecrawler_ray.robots import RobotsRules
from simplecrawler_ray.sources.web import url_hash64
from simplecrawler_ray.stages import candidates as C
from simplecrawler_ray.urlnorm import CanonOpts, Uri, domain_valid, process_url


# ------------------------------------------------------------- oracles


def _oracle_explode(batch: pa.Table, max_depth: int) -> pa.Table:
    urls, depths, seqs, cands, poss = [], [], [], [], []
    d_col = batch.column("discovered").to_pylist()
    u_col = batch.column("url").to_pylist()
    dep_col = batch.column("depth").to_pylist()
    seq_col = batch.column("seq").to_pylist()
    for u, dep, seq, disc in zip(u_col, dep_col, seq_col, d_col):
        if not disc:
            continue
        if max_depth != 0 and dep + 1 > max_depth:
            continue
        for pos, cand in enumerate(disc):
            urls.append(u)
            depths.append(dep)
            seqs.append(seq)
            cands.append(cand)
            poss.append(pos)
    return pa.table(
        {
            "candidate": pa.array(cands, pa.string()),
            "referrer_url": pa.array(urls, pa.string()),
            "referrer_depth": pa.array(depths, pa.int32()),
            "parent_seq": pa.array(seqs, pa.int64()),
            "pos": pa.array(poss, pa.int32()),
            "forced": pa.array([False] * len(cands), pa.bool_()),
            "depth_override": pa.array([-1] * len(cands), pa.int32()),
        }
    )


def _oracle_candidates(cfg: dict, robots: dict, batch: pa.Table) -> pa.Table:
    canon = CanonOpts(
        strip_querystring=cfg.get("strip_querystring", False),
        sort_query_parameters=cfg.get("sort_query_parameters", False),
        strip_www_domain=cfg.get("strip_www_domain", False),
        url_encoding=cfg.get("url_encoding", "unicode"),
    )
    fetch_conditions = cfg.get("fetch_conditions") or []
    row_cache: dict = {}
    crawl_host = cfg.get("host", "")
    n = batch.num_rows
    cands = batch.column("candidate").to_pylist()
    refs = batch.column("referrer_url").to_pylist()
    rdepths = batch.column("referrer_depth").to_pylist()
    pseqs = batch.column("parent_seq").to_pylist()
    poss = batch.column("pos").to_pylist()
    forced = batch.column("forced").to_pylist()
    overrides = batch.column("depth_override").to_pylist()

    out = {name: [] for name in C.CANDIDATE_SCHEMA.names}
    ref_cache: dict = {}
    domain_cache: dict = {}
    _unset = ref_cache
    for i in range(n):
        ref = refs[i]
        base = ref_cache.get(ref)
        if base is None:
            base = Uri.parse(ref or "")
            ref_cache[ref] = base
        cand = cands[i]
        absolute = bool(_SCHEME_RE.match(cand))
        hit = row_cache.get(cand, _unset) if absolute else _unset
        if hit is _unset:
            row = process_url(cand, base, rdepths[i], canon, referrer_str=ref)
            uh = url_hash64(row.url) if row is not None else 0
            if absolute:
                row_cache[cand] = (row, uh)
        else:
            row, uh = hit
        if row is None:
            continue
        depth = overrides[i] if overrides[i] >= 0 else rdepths[i] + 1
        reason = ""
        dv = domain_cache.get(row.host)
        if dv is None:
            dv = domain_valid(
                row.host, crawl_host,
                filter_by_domain=cfg.get("filter_by_domain", True),
                ignore_www_domain=cfg.get("ignore_www_domain", True),
                scan_subdomains=cfg.get("scan_subdomains", False),
                domain_whitelist=cfg.get("domain_whitelist"),
            )
            domain_cache[row.host] = dv
        if not dv:
            reason = "invaliddomain"
        elif cfg.get("respect_robots_txt", True):
            hk = f"{row.host}:{row.port or ''}"
            rules = robots.get(hk)
            if rules is not None and not rules.is_allowed_path(row.path):
                reason = "fetchdisallowed"
        if not reason and fetch_conditions:
            qi = {
                "url": row.url, "host": row.host, "path": row.path,
                "port": row.port, "protocol": row.protocol, "depth": depth,
                "referrer": ref,
            }
            ref_item = {"url": ref, "depth": depth - 1} if ref else None
            for cond in fetch_conditions:
                try:
                    ok = eval_condition(cond, qi, ref_item)
                except Exception:
                    reason = "fetchconditionerror"
                    break
                if not ok:
                    reason = "fetchprevented"
                    break
        out["url"].append(row.url)
        out["url_hash"].append(uh)
        out["protocol"].append(row.protocol)
        out["host"].append(row.host)
        out["port"].append(row.port)
        out["path"].append(row.path)
        out["uri_path"].append(row.uri_path)
        out["depth"].append(depth)
        out["referrer"].append(ref)
        out["parent_seq"].append(pseqs[i])
        out["pos"].append(poss[i])
        out["forced"].append(bool(forced[i]))
        out["reject_reason"].append(reason)
    return pa.table(
        {f.name: pa.array(out[f.name], f.type) for f in C.CANDIDATE_SCHEMA}
    )


# ---------------------------------------------------------- strategies

_REFERRERS = ["http://a.com/dir/page", "http://www.a.com:3000/x/y?q=1",
              "https://b.org/", "http://sub.a.com/deep/er/", ""]

_CANDIDATES = [
    # absolute
    "http://a.com/", "http://a.com/x?b=2&a=1", "HTTP://WWW.A.com/Path",
    "https://b.org:8443/p#frag", "http://sub.a.com/x/../y",
    "http://a.com/disallowed/page", "http://127.0.0.1:3001/disallowed",
    "http://a.com/caf%C3%A9?x=%C3%A8", "http://www.a.com/index.html",
    "feed://a.com/rss",
    # protocol-relative
    "//b.org/rel", "//a.com/disallowed/z",
    # relative
    "/disallowed/q", "../up", "page2", "?next=http://x.com/", "#top",
    "/café", "./a/./b",
    # empty / blank / unparseable
    "", "   ", "\n\n", "ur34nfie4985:s////dsf/", "mailto:x@a.com",
    # bad ports
    "http://a.com:8o80/x", "http://a.com:99999/x", "http://a.com:65535/x",
]


def _raises(qi):
    if qi["path"].startswith("/x"):
        raise RuntimeError("boom")
    return True


def _no_disallowed(qi, ref):
    return "disallowed" not in qi["url"] and (ref is None or ref["depth"] < 3)


_ROBOTS = {
    "a.com:": RobotsRules.parse("http://a.com/robots.txt",
                                "User-agent: *\nDisallow: /disallowed\n"),
    "127.0.0.1:3001": RobotsRules.parse(
        "http://127.0.0.1:3001/robots.txt",
        "User-agent: *\nDisallow: /\nAllow: /ok\n"),
    "b.org:8443": RobotsRules.error_rules("https://b.org:8443/robots.txt"),
    "sub.a.com:": RobotsRules.parse("http://sub.a.com/robots.txt", ""),
}

_configs = st.fixed_dictionaries({
    "host": st.sampled_from(["a.com", "www.a.com", "b.org"]),
    "filter_by_domain": st.booleans(),
    "ignore_www_domain": st.booleans(),
    "scan_subdomains": st.booleans(),
    "domain_whitelist": st.sampled_from([None, ["b.org"], ["www.127.0.0.1"]]),
    "strip_querystring": st.booleans(),
    "sort_query_parameters": st.booleans(),
    "strip_www_domain": st.booleans(),
    "url_encoding": st.sampled_from(["unicode", "iso8859"]),
    "respect_robots_txt": st.booleans(),
    "fetch_conditions": st.sampled_from(
        [None, [], [_no_disallowed], [_raises], [_no_disallowed, _raises]]),
})

_rows = st.lists(
    st.fixed_dictionaries({
        "candidate": st.sampled_from(_CANDIDATES),
        "referrer_url": st.sampled_from(_REFERRERS),
        "referrer_depth": st.integers(0, 3),
        "parent_seq": st.integers(-2, 50),
        "pos": st.integers(0, 20),
        "forced": st.booleans(),
        "depth_override": st.sampled_from([-1, -1, 0, 1, 4]),
    }),
    max_size=40,
)


def _batch(rows: list) -> pa.Table:
    # duplicates in the batch come from the small candidate pool; split
    # into two chunks so chunked input is covered too
    t = C.candidate_table(rows)
    if t.num_rows > 1:
        h = t.num_rows // 2
        t = pa.concat_tables([t.slice(0, h), t.slice(h)])
    return t


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cfg=_configs, robots=st.sampled_from([{}, _ROBOTS]),
       rows=_rows, warm=_rows)
def test_candidates_match_row_loop(cfg, robots, rows, warm):
    batch = _batch(rows)
    want = _oracle_candidates(cfg, robots, batch)
    # cold store
    proc = C.CandidateProcessor(cfg, robots)
    got = proc(batch)
    assert got.schema == want.schema
    assert got.equals(want)
    # warm store: another batch first, then this one twice
    proc = C.CandidateProcessor(cfg, robots)
    proc(_batch(warm))
    assert proc(batch).equals(want)
    assert proc(batch).equals(want)


_fetched = st.lists(
    st.fixed_dictionaries({
        "url": st.sampled_from(_REFERRERS[:4]),
        "depth": st.integers(0, 4),
        "seq": st.integers(0, 1 << 40),
        "discovered": st.one_of(
            st.none(), st.lists(st.sampled_from(_CANDIDATES), max_size=6)),
    }),
    max_size=12,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rows=_fetched, max_depth=st.integers(0, 3), cut=st.integers(0, 12))
def test_explode_matches_row_loop(rows, max_depth, cut):
    t = pa.table({
        "url": pa.array([r["url"] for r in rows], pa.string()),
        "depth": pa.array([r["depth"] for r in rows], pa.int32()),
        "seq": pa.array([r["seq"] for r in rows], pa.int64()),
        "discovered": pa.array([r["discovered"] for r in rows],
                               pa.list_(pa.string())),
    })
    # a sliced, two-chunk table: list offsets that do not start at 0
    cut = min(cut, t.num_rows)
    t = pa.concat_tables([t.slice(0, cut), t.slice(cut)])
    for part in (t, t.slice(cut // 2)):
        want = _oracle_explode(part, max_depth)
        got = C.explode_discovered(part, max_depth)
        assert got.schema == want.schema
        assert got.equals(want)


# ------------------------------------------------------ store scope


_ABS = ["http://a.com/p%d" % i for i in range(30)]


def _abs_batch(urls) -> pa.Table:
    return C.candidate_table([dict(candidate=u, referrer_url="http://a.com/",
                                   pos=i) for i, u in enumerate(urls)])


@pytest.fixture
def count_process_url(monkeypatch):
    calls = []
    real = C.process_url

    def counted(*a, **kw):
        calls.append(a[0])
        return real(*a, **kw)

    monkeypatch.setattr(C, "process_url", counted)
    from simplecrawler_ray.stages import fetch

    monkeypatch.setattr(fetch, "_WORKER_CACHE", {})
    return calls


def test_store_outlives_robots_snapshot(count_process_url):
    cfg = ray.put({"filter_by_domain": False})
    robots2 = ray.put({"a.com:": _ROBOTS["a.com:"]})
    first = C.candidate_processor(cfg, ray.put({}))(_abs_batch(_ABS))
    assert len(count_process_url) == len(_ABS)
    # same cfg, changed robots snapshot: a new processor, the same store
    second = C.candidate_processor(cfg, robots2)(
        _abs_batch(_ABS + ["http://a.com/new"]))
    assert count_process_url[len(_ABS):] == ["http://a.com/new"]
    assert second.slice(0, len(_ABS)).equals(first)


def test_new_cfg_starts_empty(count_process_url):
    robots = ray.put({})
    for _ in range(2):
        # an equal config put again is a new crawl's cfg_ref
        cfg = ray.put({"filter_by_domain": False})
        C.candidate_processor(cfg, robots)(_abs_batch(_ABS))
    assert len(count_process_url) == 2 * len(_ABS)


def test_store_resets_past_bound(count_process_url, monkeypatch):
    monkeypatch.setattr(C.CanonStore, "MAX_KEYS", 10)
    cfg = {"filter_by_domain": False}
    want = _oracle_candidates(cfg, {}, _abs_batch(_ABS[:8]))
    proc = C.CandidateProcessor(cfg, {})
    proc(_abs_batch(_ABS[8:]))                     # 22 keys: over the bound
    assert len(proc.store.ids) == 22
    assert proc(_abs_batch(_ABS[:8])).equals(want)  # reset, then recomputed
    assert len(proc.store.ids) == 8
    assert proc.store.rows == 8
    assert len(count_process_url) == 30


def test_relative_keys_not_stored(count_process_url):
    proc = C.CandidateProcessor({"filter_by_domain": False}, {})
    t = C.candidate_table([
        dict(candidate="/x", referrer_url="http://a.com/"),
        dict(candidate="/x", referrer_url="http://a.com/"),
        dict(candidate="/x", referrer_url="http://b.org/"),
        dict(candidate="http://a.com/x", referrer_url="http://b.org/"),
    ])
    out = proc(t)
    assert out.column("url").to_pylist() == [
        "http://a.com/x", "http://a.com/x", "http://b.org/x", "http://a.com/x"]
    assert len(count_process_url) == 3     # one per distinct key
    assert list(proc.store.ids) == ["http://a.com/x"]
    assert proc.store.rows == 1


def test_store_chunks_merge_like_a_counter():
    """One new link per call: the store keeps O(log rows) chunks and a
    batch spanning all of them comes back in row order."""
    cfg = {"filter_by_domain": False}
    proc = C.CandidateProcessor(cfg, {})
    for u in _ABS:
        proc(_abs_batch([u]))
    assert proc.store.rows == 30
    assert [c.num_rows for c in proc.store.chunks] == [16, 8, 4, 2]
    mixed = _abs_batch(_ABS[::-1] + _ABS[::3])
    assert proc(mixed).equals(_oracle_candidates(cfg, {}, mixed))


def test_store_unchanged_by_a_failed_call(monkeypatch):
    """A call that raises mid-way (here ``process_url`` on its third
    miss) leaves no key behind, so a retry of the batch on the same
    worker gives the oracle's rows."""
    cfg = {"filter_by_domain": False}
    real = C.process_url

    def flaky(url, *a, **kw):
        if url == _ABS[2]:
            raise IndexError("parser bug")
        return real(url, *a, **kw)

    proc = C.CandidateProcessor(cfg, {})
    monkeypatch.setattr(C, "process_url", flaky)
    with pytest.raises(IndexError):
        proc(_abs_batch(_ABS[:5]))
    monkeypatch.setattr(C, "process_url", real)
    assert proc.store.ids == {} and proc.store.rows == 0
    batch = _abs_batch(_ABS[4:8] + _ABS[:5])
    assert proc(batch).equals(_oracle_candidates(cfg, {}, batch))

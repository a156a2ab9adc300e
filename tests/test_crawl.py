"""End-to-end crawl conformance vs the reference test suite.

Behaviors transcribed from test/specs/depth.integration.spec.ts,
testcrawl.integration.spec.ts, reliability.integration.spec.ts and
resourcevalidity.integration.spec.ts, run against ConformanceWeb
(the reference test-server route graph).
"""

import contextlib
import os

import pytest

from simplecrawler_ray.pipelines.crawl import CrawlEngine
from simplecrawler_ray.sources.web import ConformanceWeb, ScaleWeb

SEED = "http://127.0.0.1:3000/"


@pytest.fixture(scope="module")
def web():
    return ConformanceWeb()


def run(web, seed, **opts):
    opts.setdefault("seen_shards", 2)
    eng = CrawlEngine(web, seed, **opts)
    res = eng.run(max_rounds=40)
    return eng, res


@pytest.mark.parametrize("max_depth,expected", [(0, 11), (1, 1), (2, 3), (3, 6)])
def test_depth_map(web, max_depth, expected):
    # depth.integration.spec.ts:24-39
    eng, res = run(web, "http://127.0.0.1:3000/depth/1", max_depth=max_depth)
    assert len(res.downloaded_urls()) == expected
    eng.seen.shutdown()


def test_main_site_statuses_and_robots(web):
    eng, res = run(web, SEED)
    t = res.fetched_table()
    st = dict(zip(t.column("url").to_pylist(), t.column("status").to_pylist()))
    assert st["http://127.0.0.1:3000/stage5"] == "redirected"
    assert st["http://127.0.0.1:3000/sitemap.xml"] == "notfound"
    assert "http://127.0.0.1:3000/forbidden" not in st  # robots.txt Disallow
    assert st["http://127.0.0.1:3000/nofollow"] == "downloaded"
    assert "http://127.0.0.1:3000/stage7" not in st  # nofollow meta stops links
    assert res.metrics["fetchdisallowed"] >= 1
    assert res.metrics["cookieerror"] == 1  # faulty /stage2 Set-Cookie
    eng.seen.shutdown()


def test_ignore_robots(web):
    # testcrawl: respectRobotsTxt=false visits /forbidden
    eng, res = run(web, SEED, respect_robots_txt=False)
    st = dict(zip(res.fetched_table().column("url").to_pylist(),
                  res.fetched_table().column("status").to_pylist()))
    assert st.get("http://127.0.0.1:3000/forbidden") == "downloaded"
    eng.seen.shutdown()


def test_sitemap_discovered_first(web):
    # testcrawl "should discover sitemap directives": first queueadd after
    # the seed is /sitemap.xml
    eng, res = run(web, SEED)
    order = res.fetch_order
    assert order[0] == SEED
    assert order[1] == "http://127.0.0.1:3000/sitemap.xml"
    eng.seen.shutdown()


def test_cross_host_robots(web):
    eng, res = run(web, "http://127.0.0.1:3000/to/other/port", filter_by_domain=False)
    t = res.fetched_table()
    st = dict(zip(t.column("url").to_pylist(), t.column("status").to_pylist()))
    assert st.get("http://127.0.0.1:3001/disallowed") == "disallowed"
    eng.seen.shutdown()


def test_robots_recheck_keys_each_distinct_host_scheme_once():
    """The driver's new-host step fetches robots for each distinct
    ``host:port`` key (``robots_keys``: a null host is "", a null port
    none) with https as the scheme of a host seen over both http and
    https, whatever the row order; the batch then gives each row the
    verdict of its own host's rules."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from simplecrawler_ray.robots import RobotsRules, robots_keys
    from simplecrawler_ray.schemas import FRONTIER_SCHEMA
    from simplecrawler_ray.stages.turbo import REFUSED_KEY, turbo_round_udf

    specs = [("a.test", None, "http", "/x"),
             ("b.test", 81, "http", "/no/1"),
             ("a.test", None, "https", "/no/2"),
             ("b.test", None, "http", "/no"),
             ("b.test", 81, "https", "/ok"),
             ("c.test", None, "http", "/no/3"),
             ("a.test", None, "http", "/no/4"),
             (None, None, "http", "/")]
    wave = pa.Table.from_pylist(
        [dict(seq=i, url=f"{pr}://{h}{':' + str(p) if p else ''}{path}",
              host=h, port=p, protocol=pr, path=path, depth=0, fetched=False,
              status="queued")
         for i, (h, p, pr, path) in enumerate(specs)], schema=FRONTIER_SCHEMA)
    assert robots_keys(wave.column("host").combine_chunks(),
                       wave.column("port").combine_chunks()).to_pylist() == [
        "a.test:", "b.test:81", "a.test:", "b.test:", "b.test:81", "c.test:",
        "a.test:", ":"]

    sw = ScaleWeb(n_pages=10, n_hosts=2, out_degree=0)
    eng = CrawlEngine(sw, sw.url_of(0), seen_shards=1)
    no = RobotsRules.parse("http://x/robots.txt",
                           "User-agent: *\nDisallow: /no\n")
    eng.robots_cache = {"a.test:": no, "b.test:81": no, "b.test:": no,
                        ":": RobotsRules("http://x/robots.txt")}
    asked = {}

    def fetch(hosts, schemes=None):
        asked.update(hosts=hosts, schemes=schemes)
        eng.robots_cache["c.test:"] = RobotsRules("http://c/robots.txt")

    eng._fetch_robots = fetch
    eng._new_host_robots(wave)
    eng.seen.shutdown()
    assert asked["hosts"] == {"a.test:", "b.test:81", "b.test:", "c.test:",
                              ":"}
    assert asked["schemes"] == {"a.test:": "https", "b.test:81": "https",
                                "b.test:": "http", "c.test:": "http",
                                ":": "http"}
    _, counters, terminal = turbo_round_udf(
        wave, web_ref=sw, cfg_ref=eng.cfg, robots_ref=eng.robots_cache,
        seen_shards=None, round_no=0, sink_dir=None)
    refused = pc.equal(terminal.column("status"), "disallowed")
    assert terminal.filter(pc.invert(refused)).column(
        "seq").to_pylist() == [0, 4, 5, 7]
    assert terminal.filter(refused).column("seq").to_pylist() == [1, 2, 3, 6]
    assert counters[REFUSED_KEY] == [1, 2, 3, 6]
    assert counters["fetchdisallowed"] == 4
    assert counters["fetchstart"] == 4


def test_all_allowed_robots_snapshot_builds_no_host_key(monkeypatch):
    """A robots snapshot in which no host has rules (both benchmark webs
    serve a bare ``Disallow:``) is decided once, when the batch's
    candidate processor is built: a batch, with candidate discovery on,
    then builds no ``host:port`` key for its queued rows or its
    candidates.  One host with a rule brings the key back."""
    import pyarrow as pa

    from simplecrawler_ray import robots
    from simplecrawler_ray.robots import RobotsRules
    from simplecrawler_ray.schemas import FRONTIER_SCHEMA
    from simplecrawler_ray.stages.turbo import turbo_round_udf
    from simplecrawler_ray.urlnorm import process_url

    calls = []
    real = robots.robots_keys
    monkeypatch.setattr(robots, "robots_keys",
                        lambda *a: calls.append(a) or real(*a))
    sw = ScaleWeb(n_pages=40, n_hosts=4, out_degree=3)
    eng = CrawlEngine(sw, sw.url_of(0), seen_shards=1,
                      filter_by_domain=False)
    eng.seen.shutdown()
    url = process_url(sw.url_of(0))
    wave = pa.Table.from_pylist(
        [dict(seq=0, url=url.url, host=url.host, port=url.port,
              protocol=url.protocol, path=url.path, depth=0, fetched=False,
              status="queued")], schema=FRONTIER_SCHEMA)
    allowed = {f"host{h}.test:": RobotsRules.parse(
        f"http://host{h}.test/robots.txt", "User-agent: *\nDisallow:\n")
        for h in range(4)}
    allowed["host3.test:"] = RobotsRules("http://host3.test/robots.txt")
    rows, _, terminal = turbo_round_udf(
        wave, web_ref=sw, cfg_ref=eng.cfg, robots_ref=allowed,
        seen_shards=None, round_no=0, sink_dir=None)
    assert terminal.column("status").to_pylist() == ["downloaded"]
    assert rows.num_rows == 3
    assert calls == []
    ruled = dict(allowed, **{"host0.test:": RobotsRules.parse(
        "http://host0.test/robots.txt", "User-agent: *\nDisallow: /x\n")})
    turbo_round_udf(wave, web_ref=sw, cfg_ref=eng.cfg, robots_ref=ruled,
                    seen_shards=None, round_no=0, sink_dir=None)
    assert len(calls) == 2


def test_robots_matcher_matches_is_allowed():
    """``robots_allowed`` over host/port/path columns equals
    ``RobotsRules.is_allowed(url)`` row by row, on random tables (null
    host, null and 0 ports, query strings) and random rules (error
    rules, empty rules, Allow/Disallow pairs of equal length), with and
    without per-row ids.  The reference is the per-row comprehension
    the driver ran before the check moved into the batch, keyed by
    ``host_key``'s rule."""
    import random

    import numpy as np
    import pyarrow as pa

    from simplecrawler_ray.robots import RobotsRules, robots_allowed

    pats = ["/", "/a", "/b", "/a/", "/ab", "/a*", "/*b", "/a$", "/a?x",
            "/*?", "/a/b", "/b*$", "*x"]
    paths = ["", "/", "/a", "/b", "/ab", "/a/b", "/ba", "/a?x=1", "/a?y",
             "/ab?x", "/b/a?q=a/b", "/x", "/a/b/c", "/B"]
    hosts, ports = ["h1", "h2", "h3", None], [None, 0, 80, 8080]

    def draw_rules(rng):
        kind = rng.random()
        if kind < 0.15:
            return RobotsRules.error_rules("http://r/robots.txt")
        if kind < 0.3:
            return RobotsRules("http://r/robots.txt")
        lines = []
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.4:
                # an Allow/Disallow pair of equal pattern length
                n = rng.randint(1, 3)
                same = [p for p in pats if len(p) == n] or ["/"]
                lines += [f"Allow: {rng.choice(same)}",
                          f"Disallow: {rng.choice(same)}"]
            else:
                verb = rng.choice(["Allow", "Disallow"])
                lines.append(f"{verb}: {rng.choice(pats)}")
        rng.shuffle(lines)
        return RobotsRules.parse("http://r/robots.txt",
                                 "\n".join(["User-agent: *"] + lines))

    for trial in range(60):
        rng = random.Random(trial)
        rows = [(rng.choice(hosts), rng.choice(ports), rng.choice(paths))
                for _ in range(rng.randint(1, 40))]
        robots = {f"{h or ''}:{p or ''}": draw_rules(rng)
                  for h in hosts for p in ports if rng.random() < 0.6}
        host = pa.array([h for h, _, _ in rows], pa.string())
        port = pa.array([p for _, p, _ in rows], pa.int32())
        path = pa.array([q for _, _, q in rows], pa.string())
        urls = [f"http://{h or 'nohost'}{':' + str(p) if p else ''}{q}"
                for h, p, q in rows]
        # the reference: one rules lookup per row key, the URL re-parsed
        hks = [f"{h or ''}:{p or ''}" for h, p, _ in rows]
        active = {hk for hk in hks if (r := robots.get(hk)) is not None
                  and (r._rules or r.error)}
        want = [hk not in active or robots[hk].is_allowed(u)
                for hk, u in zip(hks, urls)]
        got = robots_allowed(host, port, path, robots)
        if not active:
            assert got is None, trial
            continue
        assert got.to_pylist() == want, trial
        _, ids = np.unique(np.array([str(r) for r in rows]),
                           return_inverse=True)
        assert robots_allowed(host, port, path, robots,
                              ids=ids).to_pylist() == want, trial


def test_robots_redirect_to_other_domain(web):
    eng, res = run(web, "http://127.0.0.1:3002/", filter_by_domain=False)
    assert any("redirected to a disallowed domain" in e for e in res.robots_errors)
    eng.seen.shutdown()


def test_initial_domain_change_disallowed(web):
    # domain-redirect -> localhost:3000; default allowInitialDomainChange=False
    eng, res = run(web, "http://127.0.0.1:3000/domain-redirect")
    st = dict(zip(res.fetched_table().column("url").to_pylist(),
                  res.fetched_table().column("status").to_pylist()))
    assert st["http://127.0.0.1:3000/domain-redirect"] == "redirected"
    assert "http://localhost:3000/" not in st
    assert res.metrics.get("invaliddomain", 0) >= 1
    eng.seen.shutdown()


def test_initial_domain_change_allowed(web):
    eng, res = run(web, "http://127.0.0.1:3000/domain-redirect",
                   allow_initial_domain_change=True)
    st = dict(zip(res.fetched_table().column("url").to_pylist(),
                  res.fetched_table().column("status").to_pylist()))
    assert st.get("http://localhost:3000/") == "downloaded"
    eng.seen.shutdown()


def test_redirect_depth_pinned_to_1_on_first_request(web):
    # crawler.ts:1947-1949: redirect of the FIRST request keeps depth 1
    eng, res = run(web, "http://127.0.0.1:3000/stage5", max_depth=1)
    t = res.fetched_table()
    st = dict(zip(t.column("url").to_pylist(), t.column("depth").to_pylist()))
    assert st.get("http://127.0.0.1:3000/stage6") == 1
    eng.seen.shutdown()


def test_script_tags_disabled(web):
    eng, res = run(web, "http://127.0.0.1:3000/script", parse_script_tags=False)
    urls = set(res.fetched_table().column("url").to_pylist())
    assert "http://127.0.0.1:3000/stage2" in urls
    assert "http://127.0.0.1:3000/not/existent/file.js" not in urls
    eng.seen.shutdown()


def test_compressed_bodies(web):
    eng, res = run(web, "http://127.0.0.1:3000/compressed/link", max_depth=0)
    t = res.fetched_table()
    st = dict(zip(t.column("url").to_pylist(), t.column("status").to_pylist()))
    # gzip body was decompressed for discovery -> /compressed/gzip found
    assert st.get("http://127.0.0.1:3000/compressed/gzip") == "downloaded"
    caps = dict(zip(t.column("url").to_pylist(), t.column("caption").to_pylist()))
    assert "gzip compression" in caps["http://127.0.0.1:3000/compressed/gzip"]
    eng.seen.shutdown()


def test_charset_decoding(web):
    from simplecrawler_ray.sources.web import LATIN1_TEXT

    for path in ("/encoded/header", "/encoded/inline", "/encoded/old-inline"):
        eng, res = run(web, f"http://127.0.0.1:3000{path}", discover=False)
        t = res.fetched_table()
        caps = dict(zip(t.column("url").to_pylist(), t.column("caption").to_pylist()))
        assert LATIN1_TEXT in caps[f"http://127.0.0.1:3000{path}"], path
        eng.seen.shutdown()


def test_oversize_resource(web):
    eng, res = run(web, "http://127.0.0.1:3000/big", discover=False)
    t = res.fetched_table()
    row = {c: t.column(c)[0].as_py() for c in t.column_names}
    assert row["disposition"] == "fetchdataerror"
    assert row["fetched"] is True
    assert row["body"] is None
    eng.seen.shutdown()


def test_timeout_route(web):
    eng, res = run(web, "http://127.0.0.1:3000/timeout", discover=False)
    t = res.fetched_table()
    st = dict(zip(t.column("url").to_pylist(), t.column("status").to_pylist()))
    assert st["http://127.0.0.1:3000/timeout"] == "timeout"
    eng.seen.shutdown()


def test_unreachable_host_code_600(web):
    eng, res = run(web, "http://unreachable.example:9999/x", discover=False)
    t = res.fetched_table()
    assert t.column("status")[0].as_py() == "failed"
    assert t.column("state_code")[0].as_py() == 600
    eng.seen.shutdown()


def test_fetch_conditions_veto(web):
    def no_stage2(qi):
        return "stage2" not in qi["path"]

    eng, res = run(web, SEED, fetch_conditions=[no_stage2])
    urls = set(res.fetched_table().column("url").to_pylist())
    assert "http://127.0.0.1:3000/stage2" not in urls
    assert res.metrics.get("fetchprevented", 0) >= 1
    eng.seen.shutdown()


def test_fetch_condition_error(web):
    def broken(qi):
        raise RuntimeError("boom")

    eng, res = run(web, SEED, fetch_conditions=[broken])
    # every discovered candidate errors; only the seed (+sitemap) get fetched
    assert res.metrics.get("fetchconditionerror", 0) >= 1
    eng.seen.shutdown()


def test_download_conditions_veto(web):
    def only_html(qi):
        return "css" not in qi["content_type"]

    eng, res = run(web, "http://127.0.0.1:3000/depth/1", download_conditions=[only_html])
    t = res.fetched_table()
    st = dict(zip(t.column("url").to_pylist(), t.column("status").to_pylist()))
    assert st.get("http://127.0.0.1:3000/css") == "downloadprevented"
    assert res.metrics.get("downloadprevented", 0) >= 1
    eng.seen.shutdown()


def test_manual_discovery_hook(web):
    # testcrawl "async event listeners for manual discovery": discovery off,
    # bodies fed back via the fetch-complete hook
    def hook(row):
        data = (row["caption"] or "").strip()
        if data.startswith("http"):
            return [data]
        return []

    eng = CrawlEngine(web, SEED, discover=False, fetch_complete_hook=hook, seen_shards=2)
    eng.enqueue("http://127.0.0.1:3000/async-stage1")
    res = eng.run(max_rounds=40)
    urls = set(res.downloaded_urls())
    assert {
        "http://127.0.0.1:3000/",
        "http://127.0.0.1:3000/async-stage1",
        "http://127.0.0.1:3000/async-stage2",
        "http://127.0.0.1:3000/async-stage3",
    } <= urls
    eng.seen.shutdown()


def test_manual_discovery_hook_routed_worker_side(web):
    """The single-row hook goes through the batched worker-side form by
    default: the engine must have NO driver-side per-row hook left."""
    def hook(row):
        data = (row["caption"] or "").strip()
        return [data] if data.startswith("http") else []

    eng = CrawlEngine(web, SEED, discover=False, fetch_complete_hook=hook,
                      seen_shards=2)
    assert eng.fetch_complete_hook is None
    assert eng.fetch_complete_batch_hook is not None
    eng.seen.shutdown()


def test_driver_side_hook_option_is_gone(web):
    """The legacy per-row driver replay is retired: the option is an
    unknown option now."""
    with pytest.raises(TypeError, match="unknown options"):
        CrawlEngine(web, SEED, driver_side_hook=True, seen_shards=2)


@pytest.mark.parametrize("hook", ["cache_index", "fetch_complete_hook",
                                  "fetch_complete_batch_hook"])
def test_run_turbo_refuses_inputs_it_would_ignore(web, tmp_path, hook):
    """run_turbo fetches without a cache index and runs no fetch-complete
    hook, so an engine built with either raises before its first round
    instead of crawling without them."""
    arg = {} if hook == "cache_index" else (lambda x: [])
    with pytest.warns(UserWarning) if hook == "fetch_complete_hook" \
            else contextlib.nullcontext():
        eng = CrawlEngine(web, SEED, seen_shards=2, **{hook: arg})
    with pytest.raises(ValueError, match="run_turbo"):
        eng.run_turbo(str(tmp_path / "sink"), max_rounds=5)
    assert eng.round_no == 0 and not eng.metrics
    assert not (tmp_path / "sink").exists()
    eng.seen.shutdown()


def test_force_enqueue_duplicate(web):
    eng = CrawlEngine(web, SEED, discover=False, seen_shards=2)
    eng.enqueue(SEED, force=True)  # duplicate of the seed, forced through
    res = eng.run(max_rounds=10)
    urls = res.fetch_order
    assert urls.count(SEED) == 2
    eng.seen.shutdown()


def test_duplicate_rejected(web):
    eng = CrawlEngine(web, SEED, discover=False, seen_shards=2)
    eng.enqueue(SEED)  # not forced -> queueduplicate
    res = eng.run(max_rounds=10)
    assert res.fetch_order.count(SEED) == 1
    assert res.metrics.get("queueduplicate", 0) == 1
    eng.seen.shutdown()


def test_checkpoint_resume(web, tmp_path):
    d = str(tmp_path / "ckpt")
    eng = CrawlEngine(web, SEED, checkpoint_dir=d, seen_shards=2)
    eng._seed()
    for _ in range(2):
        eng._run_round()
        eng.round_no += 1
    first = list(eng.fetch_order)
    eng.seen.shutdown()

    eng2 = CrawlEngine.resume(web, SEED, d, seen_shards=2)
    while eng2.round_no < 40:
        if not eng2._run_round() and not eng2._manual:
            break
        eng2.round_no += 1
    total = first + eng2.fetch_order
    assert len(total) == len(set(total)) == 8
    eng2.seen.shutdown()


def test_not_modified_two_crawls(web):
    cache = {}
    for i in range(2):
        eng, res = run(web, "http://127.0.0.1:3000/etag", discover=False,
                       cache_index=cache)
        if i == 1:
            assert res.metrics.get("notmodified", 0) == 1
        eng.seen.shutdown()


def test_scaleweb_full_reachability():
    sw = ScaleWeb(n_pages=40, n_hosts=4, out_degree=3)
    eng = CrawlEngine(sw, sw.url_of(0), filter_by_domain=False,
                      seen_shards=2, store_body=False)
    res = eng.run(max_rounds=60)
    assert len(res.downloaded_urls()) == 40
    eng.seen.shutdown()


def test_politeness_host_budget():
    """host_budget_per_round=k: at most k URLs per host per round, FIFO
    within host (the O1 politeness dequeue + T5 pacing semantics)."""
    sw = ScaleWeb(n_pages=30, n_hosts=3, out_degree=2)
    eng = CrawlEngine(sw, sw.url_of(0), filter_by_domain=False, seen_shards=2,
                      store_body=False, host_budget_per_round=2)
    eng.seed_frontier([sw.url_of(i) for i in range(30)])
    # drive rounds manually and inspect each wave
    from simplecrawler_ray.robots import host_key

    waves = []
    while eng.round_no < 40:
        wave = eng._dequeue_wave()
        if wave.num_rows == 0:
            break
        hosts = [host_key(u) for u in wave.column("url").to_pylist()]
        seqs = wave.column("seq").to_pylist()
        per_host: dict = {}
        for h, s in zip(hosts, seqs):
            per_host.setdefault(h, []).append(s)
        for h, ss in per_host.items():
            assert len(ss) <= 2, f"budget violated for {h}"
            assert ss == sorted(ss), "per-host FIFO violated"
        waves.append(wave.num_rows)
        eng.round_no += 1
    assert sum(waves) == 30
    assert len(waves) >= 30 // (3 * 2)  # at least ceil(n / hosts*budget) rounds
    eng.seen.shutdown()


def test_turbo_mode_fetches_everything(tmp_path):
    sw = ScaleWeb(n_pages=50, n_hosts=4, out_degree=3)
    eng = CrawlEngine(sw, sw.url_of(0), filter_by_domain=False, seen_shards=2,
                      store_body=False, batch_size=16)
    out = eng.run_turbo(str(tmp_path / "sink"), max_rounds=60)
    assert out["fetched"] == 50
    import ray.data as rd

    t = rd.read_parquet(str(tmp_path / "sink")).to_pandas()
    assert t["url"].nunique() == 50
    assert (t["status"] == "downloaded").all()
    eng.seen.shutdown()


def test_fetch_order_is_fifo(web):
    eng, res = run(web, SEED)
    t = res.fetched_table()
    seqs = t.column("seq").to_pylist()
    assert seqs == sorted(seqs)
    # fetch order matches seq order (reference FIFO id order)
    assert res.fetch_order[:3] == [
        SEED,
        "http://127.0.0.1:3000/sitemap.xml",
        "http://127.0.0.1:3000/stage2",
    ]
    eng.seen.shutdown()


def test_turbo_checkpoint_resume(tmp_path):
    sw = ScaleWeb(n_pages=60, n_hosts=4, out_degree=3)
    sink = str(tmp_path / "sink")
    ckpt = str(tmp_path / "ckpt")
    import os

    os.makedirs(ckpt, exist_ok=True)
    eng = CrawlEngine(sw, sw.url_of(0), filter_by_domain=False, seen_shards=2,
                      store_body=False, batch_size=16, checkpoint_dir=ckpt)
    # run only 3 rounds, then "crash"
    out1 = eng.run_turbo(sink, max_rounds=3)
    assert out1["fetched"] < 60
    eng.seen.shutdown()

    eng2 = CrawlEngine.resume(sw, sw.url_of(0), ckpt, sink_dir=sink,
                              filter_by_domain=False, seen_shards=2,
                              store_body=False, batch_size=16)
    out2 = eng2.run_turbo(sink, max_rounds=60)
    import ray.data as rd

    t = rd.read_parquet(sink).to_pandas()
    assert t["url"].nunique() == 60          # everything fetched exactly...
    assert len(t) == 60                      # ...once (clean resume point)
    eng2.seen.shutdown()


def test_turbo_resume_drops_uncommitted_sink_rounds(tmp_path):
    """A round that crashed after sinking parts but before its
    checkpoint leaves parts the rerun may not overwrite (a resume with
    a smaller batch_size writes fewer parts).  ``resume`` deletes every
    sink round past the last checkpoint, so the sink holds each URL
    once and ``queueadd`` matches a fault-free crawl."""
    import os
    import shutil

    from simplecrawler_ray.pipelines.crawl import sink_dataset

    sw = ScaleWeb(n_pages=60, n_hosts=4, out_degree=3)
    opts = dict(filter_by_domain=False, seen_shards=2, store_body=False)

    ref = CrawlEngine(sw, sw.url_of(0), batch_size=16, **opts)
    ref.run_turbo(str(tmp_path / "ref_sink"), max_rounds=60)
    want_queueadd = ref.metrics["queueadd"]
    ref.seen.shutdown()

    sink, ckpt = str(tmp_path / "sink"), str(tmp_path / "ckpt")
    eng = CrawlEngine(sw, sw.url_of(0), batch_size=16, checkpoint_dir=ckpt,
                      **opts)
    eng.run_turbo(sink, max_rounds=1)
    eng.seen.shutdown()
    # the crashed round 1: a stale part holding an already-fetched URL
    os.makedirs(os.path.join(sink, "round=00001"))
    shutil.copy(os.path.join(sink, "round=00000", "part-00000.parquet"),
                os.path.join(sink, "round=00001", "part-00009.parquet"))

    eng2 = CrawlEngine.resume(sw, sw.url_of(0), ckpt, sink_dir=sink,
                              batch_size=4, **opts)
    assert not os.path.exists(os.path.join(sink, "round=00001"))
    eng2.run_turbo(sink, max_rounds=60)
    t = sink_dataset(sink).to_pandas()
    assert len(t) == t["url"].nunique() == 60
    assert eng2.metrics["queueadd"] == want_queueadd
    eng2.seen.shutdown()


def test_events_table(web):
    eng, res = run(web, SEED)
    ev = res.events_table().to_pandas()
    counts = ev["event"].value_counts().to_dict()
    assert counts.get("fetchcomplete") == res.metrics["fetchcomplete"]
    assert counts.get("cookieerror") == 1
    assert counts.get("fetchredirect") == 1
    eng.seen.shutdown()


def test_conformance_mode_distributed_candidate_path():
    """run() over a 6,000-row wave: the fetch, explode and
    canonicalization run as batch tasks, and the 6,000-URL seed and
    admit take ``check_and_add_distributed``."""
    sw = ScaleWeb(n_pages=6000, n_hosts=8, out_degree=3)
    eng = CrawlEngine(sw, sw.url_of(0), filter_by_domain=False, seen_shards=4,
                      store_body=False, batch_size=1024)
    eng.seed_frontier([sw.url_of(i) for i in range(6000)])
    res = eng.run(max_rounds=5)
    assert len(res.downloaded_urls()) == 6000
    assert res.metrics["queueadd"] == 6000
    assert res.metrics.get("queueduplicate", 0) > 0  # discovered links are dups
    eng.seen.shutdown()


def test_run_canonicalizes_in_the_worker(monkeypatch):
    """run()'s batch tasks canonicalize the links they discover, with
    the worker's store: in a crawl with no hook, the driver's
    ``CandidateProcessor`` sees the seed row and nothing else."""
    from simplecrawler_ray.stages.candidates import CandidateProcessor

    rows = []
    call = CandidateProcessor.__call__

    def counting(self, batch):
        rows.append(batch.num_rows)
        return call(self, batch)

    monkeypatch.setattr(CandidateProcessor, "__call__", counting)
    sw = ScaleWeb(n_pages=40, n_hosts=4, out_degree=3)
    eng = CrawlEngine(sw, sw.url_of(0), filter_by_domain=False, seen_shards=2,
                      store_body=False, batch_size=8)
    res = eng.run(max_rounds=60)
    eng.seen.shutdown()
    assert len(res.downloaded_urls()) == 40
    assert res.metrics["queueduplicate"] > 0  # links were canonicalized
    assert rows == [1]


class _RobotsCountingWeb(ConformanceWeb):
    """ConformanceWeb that logs each ``/robots.txt`` GET made through
    this instance (the driver's; workers get their own copies)."""

    def __init__(self):
        super().__init__()
        self.robots_gets: list[str] = []  # list.append is thread-safe

    def get(self, url, request_headers=None):
        if url.endswith("/robots.txt"):
            self.robots_gets.append(url)
        return super().get(url, request_headers)


@pytest.mark.parametrize("fetch_threads", [0, 4])
def test_robots_fetched_once_per_host(fetch_threads):
    """T2: the driver fetches each host's robots.txt once per crawl and
    keeps its rules; ``fetch_threads`` > 1 fetches a wave's new hosts on
    a thread pool, and applies them in the same (sorted) host order.
    Round 0 holds four hosts: the seed's, ``localhost:3000``, port 3001
    (``Disallow: /disallowed``) and port 3002 (robots.txt redirected off
    the host), so both parameters must give the same errors, disallowed
    count and sitemap order."""
    web = _RobotsCountingWeb()
    eng = CrawlEngine(web, SEED, seen_shards=2, filter_by_domain=False,
                      fetch_threads=fetch_threads)
    for url in ("http://localhost:3000/", "http://127.0.0.1:3001/disallowed",
                "http://127.0.0.1:3002/"):
        eng.enqueue(url)
    res = eng.run(max_rounds=40)
    eng.seen.shutdown()
    assert sorted(web.robots_gets) == [
        "http://127.0.0.1:3000/robots.txt", "http://127.0.0.1:3001/robots.txt",
        "http://127.0.0.1:3002/robots.txt", "http://localhost:3000/robots.txt"]
    t = res.fetched_table()
    st = dict(zip(t.column("url").to_pylist(), t.column("status").to_pylist()))
    assert "http://127.0.0.1:3000/forbidden" not in st
    assert st["http://127.0.0.1:3000/sitemap.xml"] == "notfound"  # sitemap queued
    assert st["http://127.0.0.1:3001/disallowed"] == "disallowed"
    assert res.robots_errors == [
        "Robots.txt for 127.0.0.1:3002 redirected to a disallowed domain: "
        "http://example.com/robots.txt"]
    # 3001/disallowed at the wave recheck, /forbidden at enqueue on both
    # port-3000 hosts
    assert res.metrics["fetchdisallowed"] == 3
    assert [u for u in res.fetch_order if u.endswith("/sitemap.xml")] == [
        "http://127.0.0.1:3000/sitemap.xml", "http://localhost:3000/sitemap.xml"]


def test_turbo_sink_reads_with_plain_pyarrow(tmp_path):
    """The sink's ``round`` is its directory key alone, the fetch round:
    ``pyarrow.parquet.read_table`` reads a 2-round sink with each URL
    once and each row's ``round`` equal to its directory's.  A part
    copied into a later round (a rerun's duplicate) is what
    ``sink_dataset(dedup=True)`` keeps."""
    import glob
    import shutil

    import pyarrow.parquet as pq

    from simplecrawler_ray.pipelines.crawl import sink_dataset

    sw = ScaleWeb(n_pages=30, n_hosts=2, out_degree=2)
    sink = str(tmp_path / "sink")
    eng = CrawlEngine(sw, sw.url_of(0), filter_by_domain=False, seen_shards=1,
                      store_body=False, batch_size=4)
    eng.run_turbo(sink, max_rounds=2)
    eng.seen.shutdown()
    t = pq.read_table(sink)
    urls = t.column("url").to_pylist()
    assert len(urls) == len(set(urls)) == eng.metrics["fetchstart"] > 1
    want = {}
    for f in glob.glob(os.path.join(sink, "round=*", "*.parquet")):
        rnd = int(os.path.basename(os.path.dirname(f)).split("=")[1])
        want.update((u, rnd) for u in pq.read_table(f).column("url").to_pylist())
    assert set(want.values()) == {0, 1}
    assert dict(zip(urls, t.column("round").to_pylist())) == want

    os.makedirs(os.path.join(sink, "round=00002"))
    shutil.copy(os.path.join(sink, "round=00000", "part-00000.parquet"),
                os.path.join(sink, "round=00002", "part-00000.parquet"))
    d = sink_dataset(sink, dedup=True).to_pandas()
    assert len(d) == d["url"].nunique() == len(urls)
    got = dict(zip(d["url"], d["round"]))
    assert got == {**want, **{u: 2 for u, r in want.items() if r == 0}}


def test_sink_dataset_and_queue_over_it(tmp_path):
    from simplecrawler_ray.pipelines.crawl import sink_dataset
    from simplecrawler_ray.queue_api import FrontierQueue

    sw = ScaleWeb(n_pages=30, n_hosts=2, out_degree=2)
    eng = CrawlEngine(sw, sw.url_of(0), filter_by_domain=False, seen_shards=2,
                      store_body=False, batch_size=16)
    eng.run_turbo(str(tmp_path / "s"), max_rounds=40)
    ds = sink_dataset(str(tmp_path / "s"))
    q = FrontierQueue(ds)
    assert q.get_length() == 30
    assert q.count_items({"status": "downloaded"}) == 30
    eng.seen.shutdown()


def test_max_wave_rows_bounds_rounds(tmp_path):
    """max_wave_rows caps per-round memory: FIFO preserved, everything
    still fetched, multiple bounded rounds instead of one huge wave."""
    sw = ScaleWeb(n_pages=90, n_hosts=3, out_degree=2)
    eng = CrawlEngine(sw, sw.url_of(0), filter_by_domain=False, seen_shards=2,
                      store_body=False, batch_size=16, max_wave_rows=25)
    eng.seed_frontier([sw.url_of(i) for i in range(90)])
    out = eng.run_turbo(str(tmp_path / "s"), max_rounds=40)
    assert out["fetched"] == 90
    assert out["rounds"] >= 4  # 90 rows / 25-cap => at least 4 waves
    eng.seen.shutdown()


def test_turbo_parity_with_conformance(tmp_path):
    """Turbo mode must crawl the same URL set as conformance run():
    robots honored (host keys from host/port columns) and redirect
    targets re-queued (round-1 advice regressions)."""
    web1 = ConformanceWeb()
    eng, res = run(web1, SEED)
    expected = set(res.fetched_table().column("url").to_pylist())
    eng.seen.shutdown()

    web2 = ConformanceWeb()
    eng2 = CrawlEngine(web2, SEED, seen_shards=2, batch_size=8)
    out = eng2.run_turbo(str(tmp_path / "sink"), max_rounds=40)
    import ray.data as rd

    t = rd.read_parquet(str(tmp_path / "sink")).to_pandas()
    got = set(t["url"])
    assert "http://127.0.0.1:3000/forbidden" not in got  # robots Disallow
    assert "http://127.0.0.1:3000/stage6" in got  # behind /stage5 redirect
    assert "http://127.0.0.1:3000/nofollow" in got
    assert got == expected
    # in-band counters survive (no metrics actor race)
    assert out["metrics"]["fetchredirect"] >= 1
    assert out["metrics"]["queueadd"] > 0
    eng2.seen.shutdown()


def test_loops_count_the_same_events(tmp_path):
    """Both loops count fetch events with one worker-side helper: on the
    ConformanceWeb crawl, run() and run_turbo() report the same
    dispositions, error flags and discoverycomplete."""
    eng, res = run(ConformanceWeb(), SEED)
    m1 = dict(res.metrics)
    eng.seen.shutdown()
    eng2 = CrawlEngine(ConformanceWeb(), SEED, seen_shards=2, batch_size=8)
    m2 = eng2.run_turbo(str(tmp_path / "sink"), max_rounds=40)["metrics"]
    eng2.seen.shutdown()
    keys = {"cookieerror", "gziperror", "discoverycomplete"} | {
        k for k in set(m1) | set(m2) if k.startswith("fetch")}
    assert {k: m1.get(k, 0) for k in keys} == {k: m2.get(k, 0) for k in keys}
    assert m1["cookieerror"] == 1 and m1["discoverycomplete"] == 6


def test_crawl_path_starts_no_ray_data_execution(web, monkeypatch):
    """No crawl path runs a Ray Data ``map_batches``: a ConformanceWeb
    run(), the 6,000-row run() crawl and a seed_frontier call all pass
    with ``Dataset.map_batches`` raising."""
    import ray.data as rd

    def refuse(*a, **kw):
        raise AssertionError("map_batches on the crawl path")

    monkeypatch.setattr(rd.Dataset, "map_batches", refuse)
    eng, res = run(web, SEED)
    assert len(res.downloaded_urls()) == 6
    eng.seen.shutdown()
    test_conformance_mode_distributed_candidate_path()
    sw = ScaleWeb(n_pages=300, n_hosts=4, out_degree=0)
    eng = CrawlEngine(sw, sw.url_of(0), filter_by_domain=False, seen_shards=2)
    assert eng.seed_frontier([sw.url_of(i) for i in range(300)]) == 300
    eng.seen.shutdown()


def _oracle_wave(q, budget, cap):
    """Reference dequeue over a queued table (the retired driver-side
    frontier's cut): seq order, the oldest ``budget`` rows per host
    (0 = all), then the first ``cap`` rows (0 = all)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    q = q.take(pc.sort_indices(q, sort_keys=[("seq", "ascending")]))
    if budget:
        rank = q.select(["host"]).to_pandas().groupby("host").cumcount()
        q = q.filter(pa.array((rank < budget).to_numpy()))
    return q.slice(0, cap) if cap else q


def _waves_vs_oracle(eng, budget, cap, max_rounds=80):
    """Per-round URL sets of the engine's dequeue and of the oracle cut
    of the queue just before it, up to and including the first empty
    wave."""
    got, want = [], []
    for _ in range(max_rounds):
        expect = _oracle_wave(eng.queued_table(), budget, cap)
        wave = eng._dequeue_wave()
        got.append(sorted(wave.column("url").to_pylist()))
        want.append(sorted(expect.column("url").to_pylist()))
        if wave.num_rows == 0:
            break
    return got, want


def test_dataset_frontier_wave_equivalence(tmp_path):
    """The frontier dequeues the same waves as the reference cut (same
    budget, same seeded frontier): per-host budget exact, FIFO by seq,
    identical URL sets per round."""
    sw = ScaleWeb(n_pages=30, n_hosts=3, out_degree=0)
    eng = CrawlEngine(sw, sw.url_of(0), filter_by_domain=False,
                      seen_shards=2, store_body=False,
                      host_budget_per_round=2)
    eng.seed_frontier([sw.url_of(i) for i in range(30)])
    got, want = _waves_vs_oracle(eng, 2, 0)
    eng.seen.shutdown()
    assert got == want


def test_turbo_dataset_frontier_fetches_everything(tmp_path):
    """Full turbo crawl over the object-store frontier: driver never
    holds more than one wave; everything still fetched exactly once."""
    sw = ScaleWeb(n_pages=60, n_hosts=4, out_degree=3)
    eng = CrawlEngine(sw, sw.url_of(0), filter_by_domain=False, seen_shards=2,
                      store_body=False, batch_size=16, max_wave_rows=20)
    out = eng.run_turbo(str(tmp_path / "sink"), max_rounds=60)
    assert out["fetched"] == 60
    import ray.data as rd

    t = rd.read_parquet(str(tmp_path / "sink")).to_pandas()
    assert t["url"].nunique() == 60
    eng.seen.shutdown()


def test_turbo_dataset_frontier_checkpoint_resume(tmp_path):
    sw = ScaleWeb(n_pages=40, n_hosts=3, out_degree=2)
    sink = str(tmp_path / "sink")
    eng = CrawlEngine(sw, sw.url_of(0), filter_by_domain=False, seen_shards=2,
                      store_body=False, batch_size=16, max_wave_rows=10,
                      checkpoint_dir=str(tmp_path / "ck"))
    eng.seed_frontier([sw.url_of(i) for i in range(40)])
    out1 = eng.run_turbo(sink, max_rounds=2)
    eng.seen.shutdown()
    eng2 = CrawlEngine.resume(sw, sw.url_of(0), str(tmp_path / "ck"),
                              sink_dir=sink, filter_by_domain=False,
                              seen_shards=2, store_body=False, batch_size=16,
                              max_wave_rows=10)
    out2 = eng2.run_turbo(sink, max_rounds=60)
    import ray.data as rd

    t = rd.read_parquet(sink).to_pandas()
    assert t["url"].nunique() == 40
    assert out1["fetched"] + out2["fetched"] >= 40
    eng2.seen.shutdown()


def test_async_fetch_condition_veto(web):
    """conditions.integration.spec.ts:18-101 — async (coroutine)
    conditions veto candidates like sync ones."""
    async def no_stage2(qi):
        return "stage2" not in qi["path"]

    eng, res = run(web, SEED, fetch_conditions=[no_stage2])
    urls = set(res.fetched_table().column("url").to_pylist())
    assert "http://127.0.0.1:3000/stage2" not in urls
    assert res.metrics.get("fetchprevented", 0) >= 1
    eng.seen.shutdown()


def test_async_fetch_condition_error(web):
    """conditions.integration.spec.ts:150-253 — async error ->
    fetchconditionerror, candidate dropped."""
    async def broken(qi):
        raise RuntimeError("async boom")

    eng, res = run(web, SEED, fetch_conditions=[broken])
    assert res.metrics.get("fetchconditionerror", 0) >= 1
    eng.seen.shutdown()


def test_callback_fetch_condition(web):
    """Callback-style (arity-2) conditions: done(error, decision)."""
    def cb_no_stage2(qi, done):
        done(None, "stage2" not in qi["path"])

    def cb_error(qi, done):
        done("callback said no")

    eng, res = run(web, SEED, fetch_conditions=[cb_no_stage2])
    urls = set(res.fetched_table().column("url").to_pylist())
    assert "http://127.0.0.1:3000/stage2" not in urls
    eng.seen.shutdown()

    eng, res = run(web, SEED, fetch_conditions=[cb_error])
    assert res.metrics.get("fetchconditionerror", 0) >= 1
    eng.seen.shutdown()


def test_async_download_condition(web):
    async def only_html(qi):
        return "css" not in qi["content_type"]

    eng, res = run(web, "http://127.0.0.1:3000/depth/1",
                   download_conditions=[only_html])
    t = res.fetched_table()
    st = dict(zip(t.column("url").to_pylist(), t.column("status").to_pylist()))
    assert any(s == "downloadprevented" for s in st.values())
    eng.seen.shutdown()


def test_update_queued_between_rounds(web):
    eng = CrawlEngine(web, SEED, seen_shards=2)
    eng.seed_frontier(["http://127.0.0.1:3000/stage7"])
    seq = eng.queued_table().column("seq")[0].as_py()
    row = eng.update_queued(seq, {"stateData": {"code": 999}})
    assert row["state_code"] == 999
    assert eng.queued_table().column("state_code")[0].as_py() == 999
    eng.seen.shutdown()


def test_wait_handle_holds_completion(web):
    """crawler.ts:1140-1160 — an open wait() handle keeps the crawl
    alive; a listener thread enqueues more work then calls done()."""
    import threading
    import time as _t

    eng = CrawlEngine(web, "http://127.0.0.1:3000/stage7", seen_shards=2,
                      discover=False, listener_ttl=5000)
    done = eng.wait()

    def listener():
        _t.sleep(0.15)
        eng.enqueue("http://127.0.0.1:3000/stage6", force=True)
        done()

    t = threading.Thread(target=listener)
    t.start()
    res = eng.run(max_rounds=20)
    t.join()
    urls = set(res.fetched_table().column("url").to_pylist())
    assert "http://127.0.0.1:3000/stage6" in urls  # enqueued while held open
    eng.seen.shutdown()


def test_wait_handle_ttl_expires(web):
    import time as _t

    eng = CrawlEngine(web, "http://127.0.0.1:3000/stage7", seen_shards=2,
                      discover=False, listener_ttl=200)
    eng.wait()  # never marked done
    t0 = _t.monotonic()
    res = eng.run(max_rounds=10)
    assert _t.monotonic() - t0 < 5  # TTL expired the handle; crawl ended
    assert res.metrics["complete"] == 1
    eng.seen.shutdown()


def test_dataset_frontier_salted_hot_host(tmp_path):
    """Engine-level hot host: the Zipf head host holds most of the
    frontier in one bucket; the per-bucket cut keeps the per-host
    budget exact, FIFO within a host, and loses no row."""
    sw = ScaleWeb(n_pages=120, n_hosts=2, out_degree=0)  # host skew via Zipf
    eng = CrawlEngine(sw, sw.url_of(0), filter_by_domain=False, seen_shards=2,
                      store_body=False, host_budget_per_round=5)
    eng.seed_frontier([sw.url_of(i) for i in range(120)])
    total = 0
    rounds = 0
    while rounds < 60:
        wave = eng._dequeue_wave()
        if wave.num_rows == 0:
            break
        hosts = wave.column("host").to_pylist()
        seqs = wave.column("seq").to_pylist()
        per_host: dict = {}
        for h, s in zip(hosts, seqs):
            per_host.setdefault(h, []).append(s)
        for h, ss in per_host.items():
            assert len(ss) <= 5, f"budget violated for {h}: {len(ss)}"
            assert ss == sorted(ss)
        total += wave.num_rows
        rounds += 1
    assert total == 120  # nothing lost
    eng.seen.shutdown()


@pytest.mark.parametrize("budget,cap", [(1, 0), (3, 0), (0, 17), (2, 7), (0, 0)])
def test_dataset_vs_driver_dequeue_equivalence(budget, cap):
    """Property: for any (budget, cap) config the frontier dequeue emits
    the same per-round URL sets as the reference cut."""
    sw = ScaleWeb(n_pages=40, n_hosts=5, out_degree=0)
    eng = CrawlEngine(sw, sw.url_of(0), filter_by_domain=False,
                      seen_shards=2, store_body=False,
                      host_budget_per_round=budget, max_wave_rows=cap)
    eng.seed_frontier([sw.url_of(i) for i in range(40)])
    got, want = _waves_vs_oracle(eng, budget, cap)
    eng.seen.shutdown()
    assert got == want


#: run() fetch order (= seq order) of the main-site crawl, as the retired
#: driver-side frontier produced it
CONFORMANCE_FETCH_ORDER = [
    "http://127.0.0.1:3000/",
    "http://127.0.0.1:3000/sitemap.xml",
    "http://127.0.0.1:3000/stage2",
    "http://127.0.0.1:3000/stage/3",
    "http://127.0.0.1:3000/stage/4",
    "http://127.0.0.1:3000/stage5",
    "http://127.0.0.1:3000/stage6",
    "http://127.0.0.1:3000/nofollow",
]


def test_conformance_run_with_dataset_frontier(web):
    """run() (exact-FIFO conformance mode) over the object-store frontier
    produces the reference fetched set in the reference seq order."""
    eng, res = run(web, SEED)
    got = res.fetched_table().column("url").to_pylist()
    assert got == CONFORMANCE_FETCH_ORDER  # same URLs, same seq order
    eng.seen.shutdown()


def test_add_remove_fetch_condition(web):
    """add/removeFetchCondition parity: id-based removal, unknown id
    raises (src/crawler.ts:1502-1523)."""
    def no_stage2(qi):
        return "stage2" not in qi["path"]

    def no_sitemap(qi):
        return "sitemap" not in qi["path"]

    eng = CrawlEngine(web, SEED, seen_shards=2)
    cid1 = eng.add_fetch_condition(no_stage2)
    cid2 = eng.add_fetch_condition(no_sitemap)
    eng.remove_fetch_condition(cid1)  # stage2 allowed again
    with pytest.raises(ValueError):
        eng.remove_fetch_condition(999)
    res = eng.run(max_rounds=40)
    urls = set(res.fetched_table().column("url").to_pylist())
    assert "http://127.0.0.1:3000/stage2" in urls        # removed condition
    assert "http://127.0.0.1:3000/sitemap.xml" not in urls  # active one
    eng.seen.shutdown()


def test_turbo_dataset_frontier_rows_never_transit_driver(tmp_path, monkeypatch):
    """Round-2 verdict #1: on the turbo + dataset-frontier path, admitted
    new-frontier rows are bucketed worker-side, in the same task that
    admitted them (_crawl_batch), and come back as driver-owned part
    refs — the driver's add_table only ever sees the seed row, no matter
    how many URLs the crawl admits."""
    from simplecrawler_ray.pipelines import crawl as crawl_mod

    rows_via_add_table = []
    orig = crawl_mod._DatasetFrontier.add_table

    def spy(self, t):
        rows_via_add_table.append(t.num_rows)
        return orig(self, t)

    monkeypatch.setattr(crawl_mod._DatasetFrontier, "add_table", spy)
    sw = ScaleWeb(n_pages=60, n_hosts=4, out_degree=3)
    eng = CrawlEngine(sw, sw.url_of(0), filter_by_domain=False, seen_shards=2,
                      store_body=False, batch_size=16)
    out = eng.run_turbo(str(tmp_path / "sink"), max_rounds=60)
    assert out["fetched"] == 60
    assert sum(rows_via_add_table) <= 1, (
        f"admitted rows transited the driver: {rows_via_add_table}")
    eng.seen.shutdown()


def test_update_queued_dataset_backend(web):
    """Round-2 verdict #6: update() works on the dataset frontier —
    the holding block is rewritten worker-side and its ref swapped."""
    eng = CrawlEngine(web, SEED, seen_shards=2)
    eng.seed_frontier(["http://127.0.0.1:3000/stage7",
                       "http://127.0.0.1:3000/stage8"])
    # second block (same host bucket, disjoint seq range): the
    # seq-range metadata must route the update to exactly one block
    eng.seed_frontier(["http://127.0.0.1:3000/stage9",
                       "http://127.0.0.1:3000/css"])
    qt = eng.queued_table()
    seq = qt.column("seq")[0].as_py()
    row = eng.update_queued(seq, {"stateData": {"code": 999}})
    assert row["state_code"] == 999
    assert eng._last_update_probes == 1, (
        "seq-range metadata should probe exactly one covering block, "
        f"probed {eng._last_update_probes}")
    qt2 = eng.queued_table()
    codes = dict(zip(qt2.column("seq").to_pylist(),
                     qt2.column("state_code").to_pylist()))
    assert codes[seq] == 999
    import pytest as _pytest
    with _pytest.raises(KeyError):
        eng.update_queued(10**9, {"stateData": {"code": 1}})
    with _pytest.raises(ValueError):
        eng.update_queued(seq, {"host": "evil.example"})
    eng.seen.shutdown()


@pytest.mark.parametrize("backend", ["dataset"])
def test_turbo_initial_domain_change_allowed(tmp_path, backend):
    """Round-2 verdict #9: turbo applies allow_initial_domain_change —
    the seed's redirect target host becomes cfg.host (threaded back in
    the batch's counters) and the changed-domain page is crawled, like
    run()."""
    import ray.data as rd

    web = ConformanceWeb()
    eng = CrawlEngine(web, "http://127.0.0.1:3000/domain-redirect",
                      seen_shards=2, allow_initial_domain_change=True)
    out = eng.run_turbo(str(tmp_path / "sink"), max_rounds=20)
    t = rd.read_parquet(str(tmp_path / "sink")).to_pandas()
    st = dict(zip(t["url"], t["status"]))
    assert st.get("http://localhost:3000/") == "downloaded"
    assert eng.cfg["host"] == "localhost"
    eng.seen.shutdown()


def _last_manifest(ck: str) -> dict:
    import json

    last = sorted(d for d in os.listdir(ck) if d.startswith("state-round="))[-1]
    with open(os.path.join(ck, last, "metrics.json")) as f:
        return json.load(f)["parts"]


#: a 32-bit-slot seen table of 2 KiB per shard (128 buckets x 4 slots):
#: its checkpoints outgrow it in a round or two, so a seen base is
#: written before the resume round
SMALL_SEEN = dict(seen_backend="cuckoo", seen_capacity_per_shard=256)


def test_turbo_resume_from_seen_snapshot(tmp_path):
    """Resume reloads shard filters from the seen base (plus the delta
    written since) and still fetches each page once."""
    import ray.data as rd

    sw = ScaleWeb(n_pages=40, n_hosts=3, out_degree=2)
    sink = str(tmp_path / "sink")
    eng = CrawlEngine(sw, sw.url_of(0), filter_by_domain=False, seen_shards=2,
                      store_body=False, batch_size=16, max_wave_rows=10,
                      checkpoint_dir=str(tmp_path / "ck"), **SMALL_SEEN)
    eng.seed_frontier([sw.url_of(i) for i in range(40)])
    out1 = eng.run_turbo(sink, max_rounds=2)
    eng.seen.shutdown()
    base = _last_manifest(str(tmp_path / "ck"))["base"]
    assert base is not None
    assert os.path.isdir(os.path.join(str(tmp_path / "ck"), base["dir"]))
    eng2 = CrawlEngine.resume(sw, sw.url_of(0), str(tmp_path / "ck"),
                              sink_dir=sink, filter_by_domain=False,
                              seen_shards=2, store_body=False, batch_size=16,
                              max_wave_rows=10, **SMALL_SEEN)
    out2 = eng2.run_turbo(sink, max_rounds=60)
    t = rd.read_parquet(sink).to_pandas()
    assert t["url"].nunique() == 40
    assert out1["fetched"] + out2["fetched"] >= 40
    # fetched-at-most-once within rounds after resume: no URL appears in
    # two different rounds' parts beyond the at-least-once resume overlap
    eng2.seen.shutdown()


def test_conformance_resume_from_seen_snapshot(web, tmp_path):
    """The conformance path: resume restores shard filters from the seen
    base and the combined crawl has no dupes."""
    eng = CrawlEngine(web, SEED, seen_shards=2,
                      checkpoint_dir=str(tmp_path / "ck"), **SMALL_SEEN)
    eng.run(max_rounds=2)
    eng.seen.shutdown()
    assert _last_manifest(str(tmp_path / "ck"))["base"] is not None
    eng2 = CrawlEngine.resume(web, SEED, str(tmp_path / "ck"), seen_shards=2,
                              **SMALL_SEEN)
    res2 = eng2.run(max_rounds=40)
    urls = res2.fetched_table().column("url").to_pylist()
    assert len(urls) == len(set(urls))  # fetched exactly once overall
    assert "http://127.0.0.1:3000/" in urls
    eng2.seen.shutdown()


#: run() fetch order of ScaleWeb(n_pages=30, n_hosts=5, out_degree=2) from
#: url_of(0), as the retired driver-side frontier produced it; that crawl
#: stamped seq i on the i-th URL fetched
MULTI_HOST_FETCH_ORDER = [
    "http://host2.test/p/0", "http://host4.test/p/1", "http://host1.test/p/7",
    "http://host2.test/p/2", "http://host4.test/p/5", "http://host1.test/p/8",
    "http://host2.test/p/19", "http://host0.test/p/3", "http://host2.test/p/6",
    "http://host0.test/p/16", "http://host2.test/p/9", "http://host0.test/p/20",
    "http://host0.test/p/29", "http://host2.test/p/4", "http://host4.test/p/28",
    "http://host4.test/p/17", "http://host0.test/p/10", "http://host3.test/p/21",
    "http://host3.test/p/11", "http://host0.test/p/14", "http://host0.test/p/18",
    "http://host3.test/p/22", "http://host0.test/p/27", "http://host0.test/p/12",
    "http://host1.test/p/15", "http://host0.test/p/23", "http://host4.test/p/26",
    "http://host0.test/p/13", "http://host4.test/p/24", "http://host1.test/p/25",
]


def test_dataset_frontier_fetch_order_matches_driver_multi_host():
    """ADVICE round-2: with budget=0/cap=0 the frontier's waves must be
    seq-FIFO like the reference order — compared WITHOUT sorting,
    across multiple hosts, including candidate seq stamping."""
    sw = ScaleWeb(n_pages=30, n_hosts=5, out_degree=2)
    eng = CrawlEngine(sw, sw.url_of(0), filter_by_domain=False,
                      seen_shards=2, store_body=False)
    res = eng.run(max_rounds=40)
    t = res.fetched_table()
    order = list(eng.fetch_order)
    seqs = dict(zip(t.column("url").to_pylist(), t.column("seq").to_pylist()))
    eng.seen.shutdown()
    assert order == MULTI_HOST_FETCH_ORDER   # exact FIFO order, unsorted
    assert seqs == {u: i for i, u in enumerate(MULTI_HOST_FETCH_ORDER)}


def _seeded_dataset_engine(n_pages=40, n_hosts=5, **opts):
    sw = ScaleWeb(n_pages=n_pages, n_hosts=n_hosts, out_degree=0)
    eng = CrawlEngine(sw, sw.url_of(0), filter_by_domain=False, seen_shards=2,
                      store_body=False, **opts)
    eng.seed_frontier([sw.url_of(i) for i in range(n_pages)])
    return eng


def test_budget0_dequeue_guard_fires(monkeypatch):
    """A whole-frontier dequeue (budget 0, max_wave_rows 0) past the
    gather guard refuses instead of pulling every row to the driver,
    and decides from the per-block row counts without pulling a row; a
    positive max_wave_rows and a larger guard both still work."""
    from simplecrawler_ray.pipelines import crawl as crawl_mod

    eng = _seeded_dataset_engine()
    monkeypatch.setattr(crawl_mod, "GATHER_GUARD_ROWS", 20)
    with monkeypatch.context() as m:
        def no_get(*a, **k):
            raise AssertionError("rows pulled before the guard decided")
        m.setattr(crawl_mod.ray, "get", no_get)
        with pytest.raises(ValueError, match="gather"):
            eng._dequeue_wave()
    assert eng._frontier.num_rows == 40  # the refusal loses nothing
    eng.cfg["max_wave_rows"] = 15
    wave = eng._dequeue_wave()
    assert wave.column("seq").to_pylist() == list(range(15))
    monkeypatch.setattr(crawl_mod, "GATHER_GUARD_ROWS", 100)
    eng.cfg["max_wave_rows"] = 0
    wave2 = eng._dequeue_wave()
    assert wave2.column("seq").to_pylist() == list(range(15, 40))
    eng.seen.shutdown()


def test_dataset_frontier_wave_cut_keeps_buckets():
    """A max_wave_rows cut takes the exact global oldest rows and leaves
    every remaining row in its host's bucket as a block ref with a
    correct seq range (the store never loses bucket identity)."""
    import ray

    from simplecrawler_ray.pipelines.crawl import _host_bucket, _unpack

    eng = _seeded_dataset_engine(n_pages=60, n_hosts=6, max_wave_rows=13)
    fr = eng._frontier
    taken = []
    while fr.num_rows:
        wave = eng._dequeue_wave()
        assert 0 < wave.num_rows <= 13
        taken.extend(wave.column("seq").to_pylist())
        for b, parts in enumerate(fr.buckets):
            for t, p in zip(map(_unpack, ray.get([p.ref for p in parts])),
                            parts):
                assert t.num_rows == p.rows
                seqs = t.column("seq").to_pylist()
                assert (min(seqs), max(seqs)) == (p.seq_min, p.seq_max)
                assert {_host_bucket(h, fr.n_buckets)
                        for h in t.column("host").to_pylist()} == {b}
    assert taken == list(range(60))  # FIFO across rounds, nothing lost
    eng.seen.shutdown()


def test_pack_round_trip():
    """Frontier rows cross Ray as Arrow IPC stream buffers: an empty
    table, nulls, a multi-chunk table and a slice all come back equal,
    and a slice packs only its own rows, not the buffers it views."""
    import pyarrow as pa

    from simplecrawler_ray.pipelines.crawl import _pack, _unpack
    from simplecrawler_ray.schemas import FRONTIER_SCHEMA

    empty = FRONTIER_SCHEMA.empty_table()
    assert _unpack(_pack(empty)).equals(empty, check_metadata=True)
    t = pa.Table.from_pylist(
        [dict(seq=i, url=f"http://h{i % 5}.test/p{i}", host=f"h{i % 5}.test",
              port=None if i % 3 else 8080, depth=i % 4, fetched=False,
              referrer=None if i % 2 else f"http://h0.test/r{i}")
         for i in range(1000)], schema=FRONTIER_SCHEMA)
    assert t.column("port").null_count and t.column("status").null_count
    assert _unpack(_pack(t)).equals(t, check_metadata=True)
    multi = pa.concat_tables([t.slice(0, 300), t.slice(300, 400),
                              t.slice(700)])
    assert multi.column("url").num_chunks == 3
    assert _unpack(_pack(multi)).equals(multi, check_metadata=True)
    sl = t.slice(500, 50)
    packed = _pack(sl)
    assert _unpack(packed).equals(sl, check_metadata=True)
    fresh = _pack(pa.Table.from_pylist(sl.to_pylist(), schema=sl.schema))
    assert packed.size <= 1.1 * fresh.size < _pack(t).size


def _assert_parts_packed(fr):
    """Every bucket ref of ``fr`` unpacks to rows that match its ``Part``:
    row count, seq range and bucket."""
    import pyarrow.compute as pc
    import ray

    from simplecrawler_ray.pipelines.crawl import _host_bucket, _unpack

    assert fr.num_rows > 0
    for b, parts in enumerate(fr.buckets):
        for buf, p in zip(ray.get([p.ref for p in parts]), parts):
            t = _unpack(buf)
            seq = t.column("seq")
            assert t.num_rows == p.rows > 0
            assert (pc.min(seq).as_py(), pc.max(seq).as_py()) == (
                p.seq_min, p.seq_max)
            assert {_host_bucket(h, fr.n_buckets)
                    for h in t.column("host").to_pylist()} == {b}


def test_every_bucket_ref_is_a_packed_part(tmp_path):
    """The store invariant: after ``seed_frontier``, a turbo round under a
    ``max_wave_rows`` cut, one under a ``host_budget_per_round`` cut,
    ``update_queued`` and ``resume``, every bucket ref points to packed
    rows that match its ``Part``, and every terminal ref (``run()``'s)
    to packed terminal rows."""
    import pyarrow.compute as pc
    import ray

    from simplecrawler_ray.pipelines.crawl import _unpack

    sw = ScaleWeb(n_pages=120, n_hosts=6, out_degree=3)
    ck, sink = str(tmp_path / "ck"), str(tmp_path / "sink")
    opts = dict(filter_by_domain=False, seen_shards=1, store_body=False,
                batch_size=8)
    eng = CrawlEngine(sw, sw.url_of(0), checkpoint_dir=ck, **opts)
    eng.seed_frontier([sw.url_of(i) for i in range(0, 120, 5)])
    _assert_parts_packed(eng._frontier)
    eng.cfg["max_wave_rows"] = 7
    eng.run_turbo(sink, max_rounds=1)
    assert eng.metrics["fetchstart"] == 7
    _assert_parts_packed(eng._frontier)
    eng.cfg.update(max_wave_rows=0, host_budget_per_round=1)
    eng.run_turbo(sink, max_rounds=2)
    assert eng.round_no == 2
    _assert_parts_packed(eng._frontier)
    queued = eng.queued_table()
    seq = queued.column("seq")[3].as_py()
    assert eng.update_queued(seq, {"depth": 9})["depth"] == 9
    _assert_parts_packed(eng._frontier)
    after = eng.queued_table()
    assert after.filter(pc.equal(after.column("seq"), seq)).column(
        "depth").to_pylist() == [9]
    eng.seen.shutdown()
    eng2 = CrawlEngine.resume(sw, sw.url_of(0), ck, sink_dir=sink, **opts)
    _assert_parts_packed(eng2._frontier)
    assert sorted(eng2.queued_table().column("seq").to_pylist()) == sorted(
        queued.column("seq").to_pylist())
    eng2.seen.shutdown()
    # terminal refs: none in a turbo crawl; run()'s unpack to its
    # terminal rows, before and after a resume
    assert eng.terminal_refs == eng2.terminal_refs == []
    ck3 = str(tmp_path / "ck3")
    eng3 = CrawlEngine(sw, sw.url_of(0), checkpoint_dir=ck3, **opts)
    eng3.run(max_rounds=2)
    eng3.seen.shutdown()
    eng4 = CrawlEngine.resume(sw, sw.url_of(0), ck3, **opts)
    eng4.seen.shutdown()
    for e in (eng3, eng4):
        rows = [_unpack(b).num_rows for b in ray.get(e.terminal_refs)]
        assert len(rows) > 1 and min(rows) > 0
        assert sum(rows) == eng3.metrics["fetchstart"]


def test_dataset_checkpoint_lists_every_queued_row_once(tmp_path):
    """The last checkpoint's manifest lists every queued row exactly once
    (as a slice of a part file, with its bucket and seq range), and a
    resume reads back every queued row."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    sw = ScaleWeb(n_pages=60, n_hosts=6, out_degree=3)
    ck = str(tmp_path / "ck")
    opts = dict(filter_by_domain=False, seen_shards=2, store_body=False,
                batch_size=16, max_wave_rows=10)
    eng = CrawlEngine(sw, sw.url_of(0), checkpoint_dir=ck, **opts)
    eng.seed_frontier([sw.url_of(i) for i in range(60)])
    eng.run_turbo(str(tmp_path / "sink"), max_rounds=2)
    fr = eng._frontier
    queued = fr.num_rows
    assert queued > 0
    want = eng.queued_table()
    eng.seen.shutdown()
    live = _last_manifest(ck)["live"]
    assert len(live) == sum(len(parts) for parts in fr.buckets)
    listed = pa.concat_tables([
        pq.read_table(os.path.join(ck, "parts", name)).slice(off, n)
        for _, name, off, n, _, _ in live])
    assert sorted(listed.column("seq").to_pylist()) == sorted(
        want.column("seq").to_pylist())
    assert listed.num_rows == len(set(listed.column("seq").to_pylist()))
    eng2 = CrawlEngine.resume(sw, sw.url_of(0), ck,
                              sink_dir=str(tmp_path / "sink"), **opts)
    assert eng2._frontier.num_rows == queued
    assert sorted(eng2.queued_table().column("url").to_pylist()) == sorted(
        want.column("url").to_pylist())
    eng2.seen.shutdown()


def test_manual_discovery_batched_hook(web):
    """Batched worker-side fetch-complete hook (round-3 verdict #7):
    same crawl as test_manual_discovery_hook, but the hook sees one
    Arrow block of downloaded rows and returns attributed candidates —
    bodies never transit the driver."""
    def hook(table):
        out = []
        for cap, url, dep, seq in zip(table.column("caption").to_pylist(),
                                      table.column("url").to_pylist(),
                                      table.column("depth").to_pylist(),
                                      table.column("seq").to_pylist()):
            data = (cap or "").strip()
            if data.startswith("http"):
                out.append({"candidate": data, "referrer_url": url,
                            "referrer_depth": dep, "parent_seq": seq})
        return out

    eng = CrawlEngine(web, SEED, discover=False,
                      fetch_complete_batch_hook=hook, seen_shards=2)
    eng.enqueue("http://127.0.0.1:3000/async-stage1")
    res = eng.run(max_rounds=40)
    urls = set(res.downloaded_urls())
    assert {
        "http://127.0.0.1:3000/",
        "http://127.0.0.1:3000/async-stage1",
        "http://127.0.0.1:3000/async-stage2",
        "http://127.0.0.1:3000/async-stage3",
    } <= urls
    eng.seen.shutdown()


def test_turbo_resume_backend_mismatch_falls_back_to_replay(tmp_path):
    """Round-3 advice #3: resuming a checkpoint whose seen snapshot was
    written by a different seen_backend skips the snapshot fast path
    and replays url_hashes instead of raising from load_state."""
    import ray.data as rd

    sw = ScaleWeb(n_pages=30, n_hosts=2, out_degree=2)
    sink = str(tmp_path / "sink")
    eng = CrawlEngine(sw, sw.url_of(0), filter_by_domain=False, seen_shards=2,
                      store_body=False, batch_size=16, max_wave_rows=10,
                      checkpoint_dir=str(tmp_path / "ck"), checkpoint_seen=True,
                      seen_backend="exact")
    eng.seed_frontier([sw.url_of(i) for i in range(30)])
    eng.run_turbo(sink, max_rounds=2)
    eng.seen.shutdown()
    eng2 = CrawlEngine.resume(sw, sw.url_of(0), str(tmp_path / "ck"),
                              sink_dir=sink, filter_by_domain=False,
                              seen_shards=2, store_body=False,
                              batch_size=16, max_wave_rows=10,
                              checkpoint_seen=True, seen_backend="cuckoo")
    eng2.run_turbo(sink, max_rounds=60)
    t = rd.read_parquet(sink).to_pandas()
    assert t["url"].nunique() == 30
    eng2.seen.shutdown()


def test_turbo_checkpoint_records_lineage(tmp_path):
    import glob
    import json as _json

    from simplecrawler_ray.pipelines.crawl import CrawlEngine
    from simplecrawler_ray.sources.web import ScaleWeb

    web = ScaleWeb(n_pages=30)
    sink = str(tmp_path / "sink")
    ckpt = str(tmp_path / "ckpt")
    e = CrawlEngine(web, web.url_of(0), seen_shards=2,
                    filter_by_domain=False, checkpoint_dir=ckpt)
    e.run_turbo(sink, max_rounds=4)
    e.seen.shutdown()
    states = sorted(glob.glob(ckpt + "/state-round=*"))
    assert states
    total_lineage_rows = 0
    for st in states:
        meta = _json.load(open(st + "/metrics.json"))
        lin = meta["lineage"]
        assert lin is not None and len(lin) == 1
        (rdn, parts), = lin.items()
        for p in parts:
            # every manifest entry matches the real file's row count
            import pyarrow.parquet as _pq
            f = f"{sink}/{rdn}/{p['file']}"
            assert _pq.read_metadata(f).num_rows == p["rows"]
            total_lineage_rows += p["rows"]
    sunk = sum(_pq.read_metadata(f).num_rows
               for f in glob.glob(sink + "/round=*/*.parquet"))
    assert total_lineage_rows == sunk > 0


CHAIN_SEED = "http://127.0.0.1:3000/domain-redirect2"  # -> localhost
CHAIN_OPTS = dict(seen_shards=2, allow_initial_domain_change=True,
                  respect_robots_txt=False)
#: what both loops fetch in test_seed_redirect_adopts_host_for_its_batch_only
ADOPTION_SCOPE_FETCHED = {
    CHAIN_SEED, "http://localhost:3000/domain-redirect",
    "http://localhost:3000/", "http://localhost:3000/stage2",
    "http://localhost:3000/forbidden", "http://127.0.0.1:3000/depth/2",
    "http://127.0.0.1:3000/depth/3"}


def _crawl_depths(eng, loop, tmp_path, max_rounds=40) -> dict:
    """Crawl with ``run()`` or ``run_turbo()``; {url: depth} of every
    fetched row (for ``run_turbo``, every row in its sink)."""
    import ray.data as rd

    if loop == "run":
        t = eng.run(max_rounds=max_rounds).fetched_table().to_pandas()
    else:
        eng.run_turbo(str(tmp_path / "sink"), max_rounds=max_rounds)
        t = rd.read_parquet(str(tmp_path / "sink")).to_pandas()
    return dict(zip(t["url"], t["depth"]))


@pytest.mark.parametrize("loop", ["run", "run_turbo"])
def test_seed_redirect_chain_pins_depth_and_host(tmp_path, loop):
    """The first request is the seed and the redirect chain that starts
    at it: on the two-hop chain /domain-redirect2 -> localhost
    /domain-redirect -> localhost/, both loops give each target depth 1
    and adopt the final target's host."""
    eng = CrawlEngine(ConformanceWeb(), CHAIN_SEED, **CHAIN_OPTS)
    depths = _crawl_depths(eng, loop, tmp_path)
    eng.seen.shutdown()
    assert depths["http://localhost:3000/domain-redirect"] == 1
    assert depths["http://localhost:3000/"] == 1
    assert eng.cfg["host"] == "localhost"


@pytest.mark.parametrize("loop", ["run", "run_turbo"])
def test_nonseed_redirect_does_not_rewrite_host(tmp_path, loop):
    """First-request special-casing is scoped to the SEED row: with a
    multi-URL seeded frontier, a round-0 redirect on a non-seed row
    (here seeded, and so fetched, before the seed) must not rewrite
    cfg.host, on either loop."""
    web = ConformanceWeb()
    # seed = plain page on 127.0.0.1; the frontier also carries an
    # off-site redirecting URL in the same round-0 wave
    eng = CrawlEngine(web, "http://127.0.0.1:3000/",
                      seen_shards=2, allow_initial_domain_change=True)
    eng.seed_frontier(["http://127.0.0.1:3000/domain-redirect2"])
    _crawl_depths(eng, loop, tmp_path, max_rounds=10)
    # the non-seed redirect must not have adopted localhost as the host
    assert eng.cfg["host"] == "127.0.0.1"
    eng.seen.shutdown()


@pytest.mark.parametrize("loop", ["run", "run_turbo"])
def test_seed_redirect_adopts_host_for_its_batch_only(tmp_path, loop):
    """A host adopted from the seed's redirect filters only the batch
    that holds the redirect, in both loops.  With ``batch_size=1`` the
    round-0 wave's second row, an enqueued /depth/2 on 127.0.0.1, is a
    batch of its own, filtered with the round's starting host: its link
    /depth/3 is queued.  From round 1 on the host is localhost, so
    /depth/3's own links are not."""
    eng = CrawlEngine(ConformanceWeb(), CHAIN_SEED, batch_size=1,
                      **CHAIN_OPTS)
    eng.enqueue("http://127.0.0.1:3000/depth/2")
    depths = _crawl_depths(eng, loop, tmp_path)
    eng.seen.shutdown()
    assert eng.cfg["host"] == "localhost"
    assert set(depths) == ADOPTION_SCOPE_FETCHED


@pytest.mark.parametrize("loop", ["run", "run_turbo"])
def test_seed_redirect_chain_survives_resume(tmp_path, loop):
    """A checkpoint taken inside the seed's redirect chain keeps it open:
    stopped after round 0 (the seed's redirect) and resumed, the second
    hop's target still gets depth 1 and its host is adopted."""
    ck = str(tmp_path / "ck")
    eng = CrawlEngine(ConformanceWeb(), CHAIN_SEED, checkpoint_dir=ck,
                      **CHAIN_OPTS)
    _crawl_depths(eng, loop, tmp_path, max_rounds=1)
    eng.seen.shutdown()
    eng2 = CrawlEngine.resume(
        ConformanceWeb(), CHAIN_SEED, ck,
        sink_dir=str(tmp_path / "sink") if loop == "run_turbo" else None,
        **CHAIN_OPTS)
    depths = _crawl_depths(eng2, loop, tmp_path)
    eng2.seen.shutdown()
    assert depths[CHAIN_SEED] == 1  # the seed row, from the checkpoint
    assert depths["http://localhost:3000/domain-redirect"] == 1
    assert depths["http://localhost:3000/"] == 1
    assert eng2.cfg["host"] == "localhost"


def test_disallowed_rows_survive_resume(web, tmp_path):
    """Robots-disallowed terminal rows reach the checkpoint: after a
    resume, the disallowed record is still present and its hash is in
    the seen set (no duplicate terminal record on re-discovery)."""
    d = str(tmp_path / "ckpt")
    eng = CrawlEngine(web, "http://127.0.0.1:3000/to/other/port",
                      checkpoint_dir=d, seen_shards=2,
                      filter_by_domain=False)
    eng._seed()
    for _ in range(8):
        if not eng._run_round() and not eng._manual:
            break
        eng.round_no += 1
    from simplecrawler_ray.pipelines.crawl import CrawlResult
    t1 = CrawlResult(eng).fetched_table().to_pandas()
    st1 = dict(zip(t1["url"], t1["status"]))
    assert st1.get("http://127.0.0.1:3001/disallowed") == "disallowed"
    eng.seen.shutdown()

    eng2 = CrawlEngine.resume(web, "http://127.0.0.1:3000/to/other/port",
                              d, seen_shards=2, filter_by_domain=False)
    while eng2.round_no < 40:
        if not eng2._run_round() and not eng2._manual:
            break
        eng2.round_no += 1
    t2 = CrawlResult(eng2).fetched_table().to_pandas()
    dis = t2[t2["url"] == "http://127.0.0.1:3001/disallowed"]
    assert len(dis) == 1 and dis["status"].iloc[0] == "disallowed"
    eng2.seen.shutdown()


def test_turbo_disallowed_rows_survive_resume(web, tmp_path):
    """run_turbo's robots-disallowed rows reach the checkpoint too: a
    resume that replays hashes (no seen snapshot) still holds the
    disallowed URL, so a later enqueue of it counts as a duplicate
    instead of being admitted and disallowed again."""
    import numpy as np

    from simplecrawler_ray.sources.web import url_hash64

    seed = "http://127.0.0.1:3000/to/other/port"
    dis = "http://127.0.0.1:3001/disallowed"
    ck, sink = str(tmp_path / "ck"), str(tmp_path / "sink")
    eng = CrawlEngine(web, seed, checkpoint_dir=ck, seen_shards=2,
                      filter_by_domain=False)
    eng.seed_frontier([dis, "http://127.0.0.1:3000/stage7"])
    eng.run_turbo(sink, max_rounds=1)
    h = np.array([url_hash64(dis)], dtype=np.uint64)
    assert eng.seen.contains(h).all()
    eng.seen.shutdown()

    eng2 = CrawlEngine.resume(web, seed, ck, sink_dir=sink, seen_shards=2,
                              filter_by_domain=False)
    assert eng2.seen.contains(h).all()
    before = dict(eng2.metrics)
    eng2.enqueue(dis)
    eng2.run_turbo(sink, max_rounds=5)
    m = eng2.metrics
    assert m.get("queueadd", 0) == before.get("queueadd", 0)
    assert m["queueduplicate"] > before.get("queueduplicate", 0)
    assert m["fetchdisallowed"] == before["fetchdisallowed"]
    eng2.seen.shutdown()


def test_turbo_all_disallowed_round_is_checkpointed(web, tmp_path):
    """A turbo round whose whole wave the robots check refuses still
    writes its checkpoint; the refused row is its batch's terminal
    record, in the sink part, and the checkpoint holds no terminal
    part."""
    import glob
    import os

    import pyarrow.parquet as pq

    ck, sink = str(tmp_path / "ck"), str(tmp_path / "sink")
    eng = CrawlEngine(web, "http://127.0.0.1:3001/disallowed",
                      checkpoint_dir=ck, seen_shards=2)
    eng.run_turbo(sink, max_rounds=3)
    eng.seen.shutdown()
    assert eng.metrics["fetchdisallowed"] == 1
    assert "fetchstart" not in eng.metrics
    states = sorted(glob.glob(os.path.join(ck, "state-round=*")))
    assert [os.path.basename(d) for d in states] == ["state-round=00000"]
    assert _last_manifest(ck)["terminal"] == []
    assert glob.glob(os.path.join(ck, "parts", "*-fetched-*.parquet")) == []
    part = os.path.join(sink, "round=00000", "part-00000.parquet")
    rows = pq.read_table(part).to_pylist()
    assert [(r["url"], r["status"], r["fetched"], r["body"]) for r in rows] == [
        ("http://127.0.0.1:3001/disallowed", "disallowed", True, None)]


@pytest.mark.parametrize("loop", ["run", "run_turbo"])
def test_refused_rows_come_from_their_batch(loop, tmp_path, monkeypatch):
    """A queued row its host's robots rules refuse is checked in the
    batch that would fetch it: its one ``disallowed`` record goes where
    that batch's fetched rows go (``run()``'s terminal block, whose
    checkpoint ``fetched-*`` file holds it; ``run_turbo``'s sink part),
    it is counted once in ``fetchdisallowed`` by both loops, and it is
    not in ``fetch_order``.  The driver ``ray.put``s no row table during
    the crawl, and no packed part with a ``disallowed`` row."""
    import glob

    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from simplecrawler_ray.pipelines import crawl as crawl_mod

    dis = "http://127.0.0.1:3001/disallowed"
    real_put, bad = crawl_mod.ray.put, []

    def put(value, *a, **kw):
        if isinstance(value, pa.Table) or (
                isinstance(value, pa.Buffer) and "disallowed" in
                crawl_mod._unpack(value).column("status").to_pylist()):
            bad.append(value)
        return real_put(value, *a, **kw)

    monkeypatch.setattr(crawl_mod.ray, "put", put)
    ck = str(tmp_path / "ck")
    eng = CrawlEngine(ConformanceWeb(), SEED, seen_shards=2,
                      checkpoint_dir=ck)
    eng.enqueue(dis)
    if loop == "run":
        t = eng.run(max_rounds=40).fetched_table()
        files = glob.glob(os.path.join(ck, "parts", "*-fetched-*.parquet"))
        on_disk = pa.concat_tables([pq.read_table(f) for f in files],
                                   promote_options="default")
    else:
        sink = str(tmp_path / "sink")
        eng.run_turbo(sink, max_rounds=40)
        t = on_disk = pq.read_table(sink)
        assert _last_manifest(ck)["terminal"] == []
    eng.seen.shutdown()
    monkeypatch.undo()
    assert bad == []
    for rows in (t, on_disk):
        rec = rows.filter(pc.equal(rows.column("url"), dis))
        assert rec.column("status").to_pylist() == ["disallowed"]
    # 3001/disallowed in its batch, /forbidden at enqueue
    assert eng.metrics["fetchdisallowed"] == 2
    assert dis not in eng.fetch_order
    if loop == "run":
        assert eng.fetch_order[0] == SEED and len(eng.fetch_order) == (
            eng.metrics["fetchstart"])


@pytest.mark.parametrize("key", [
    "interval_ms", "max_concurrency", "decode_responses", "timeout",
    "use_proxy", "proxy_hostname", "proxy_port", "proxy_user", "proxy_pass"])
def test_options_that_configure_nothing_are_refused(web, key):
    """Options no code reads are refused like any unknown option instead
    of being accepted and ignored (``use_proxy=True`` used to crawl with
    no proxy); ``HttpWeb``'s constructor takes the transport ones."""
    with pytest.raises(TypeError, match="unknown options"):
        CrawlEngine(web, SEED, seen_shards=1, **{key: 1})


def test_frontier_backend_only_dataset(web):
    """The object-store frontier is the only store: "dataset" is
    accepted (existing configs still load), anything else is refused."""
    eng = CrawlEngine(web, SEED, seen_shards=1, frontier_backend="dataset")
    eng.seen.shutdown()
    with pytest.raises(ValueError, match="frontier_backend"):
        CrawlEngine(web, SEED, seen_shards=1, frontier_backend="driver")


def test_robots_blank_user_agent_does_not_match_everything():
    from simplecrawler_ray.robots import RobotsRules

    r = RobotsRules.parse("http://h/robots.txt",
                          "User-agent:\nDisallow: /\n"
                          "User-agent: *\nAllow: /\n",
                          "simplecrawler-ray")
    assert r.is_allowed("http://h/x")


def test_process_url_malformed_port_returns_none():
    from simplecrawler_ray.urlnorm import process_url

    assert process_url("http://example.com:8o80/x",
                       "http://example.com/") is None


def test_decode_body_charset_with_parameters():
    from simplecrawler_ray.stages.fetch import decode_body

    body = "café".encode("iso-8859-1")
    assert decode_body(body, "text/html; charset=iso-8859-1; boundary=x") == "café"
    assert decode_body(body, 'text/html; Charset="ISO-8859-1"') == "café"


def test_decompress_body_bounds_zip_bombs():
    import zlib

    from simplecrawler_ray.stages.fetch import decompress_body

    bomb = zlib.compress(b"\x00" * (8 * 1024 * 1024))
    out, err = decompress_body(bomb, "deflate", max_size=1024 * 1024)
    assert err  # reported, not materialized
    data, err = decompress_body(zlib.compress(b"ok"), "deflate",
                                max_size=1024)
    assert (data, err) == (b"ok", False)


def test_turbo_batch_retry_overwrites_its_sink_part(tmp_path):
    """A sink part is named by its batch's index within the round, so
    running the same batch twice (as a Ray retry does) leaves one part
    holding each of the batch's URLs once."""
    import glob

    import pyarrow.parquet as pq
    import ray

    from simplecrawler_ray.pipelines.crawl import _crawl_batch, _pack

    sw = ScaleWeb(n_pages=40, n_hosts=4, out_degree=3)
    eng = CrawlEngine(sw, sw.url_of(0), filter_by_domain=False, seen_shards=1,
                      store_body=False)
    eng.seed_frontier([sw.url_of(i) for i in range(10)])
    batch = eng.queued_table()
    sink = str(tmp_path / "sink")
    kw = dict(web_ref=sw, cfg_ref=eng.cfg, robots_ref={},
              seen_shards=eng.seen.shards, round_no=0, sink_dir=sink,
              batch_no=3)
    nb = eng._frontier.n_buckets
    for _ in range(2):
        refs = _crawl_batch.options(num_returns=1 + nb).remote(
            _pack(batch), kw, nb)
        counters, _nbytes, _parts = ray.get(refs[0])
        assert counters["fetchstart"] == 10
    eng.seen.shutdown()
    parts = glob.glob(os.path.join(sink, "*", "*.parquet"))
    assert [os.path.relpath(p, sink) for p in parts] == [
        os.path.join("round=00000", "part-00003.parquet")]
    urls = pq.read_table(parts[0]).column("url").to_pylist()
    assert sorted(urls) == sorted(batch.column("url").to_pylist())


def test_task_cpus_budget():
    """``_task_cpus`` is the cluster's CPUs less the engine's actor CPUs
    (its seen shards), never below one task."""
    import ray

    total = ray.cluster_resources()["CPU"]
    sw = ScaleWeb(n_pages=10, n_hosts=2, out_degree=0)
    eng = CrawlEngine(sw, sw.url_of(0), seen_shards=2)
    assert eng._actor_cpus() == 0.5
    assert eng._task_cpus() == total - 0.5
    eng._actor_cpus = lambda: 4 * total
    assert eng._task_cpus() == 1
    eng.seen.shutdown()


def test_turbo_checkpoint_is_one_write_task(web, tmp_path, monkeypatch):
    """Each ``_checkpoint()`` writes the rows no batch task wrote (the
    round's ``queued`` file and its ``fetched-*`` terminal files) with at
    most ONE ``_write_checkpoint`` task, in both loops, and with none
    when nothing new is queued: a ``run_turbo`` crawl needs the task
    only for its round-0 seed."""
    import glob

    from simplecrawler_ray.pipelines import crawl as crawl_mod

    class Counting:
        def __init__(self, task):
            self.task, self.calls = task, 0

        def remote(self, *args):
            self.calls += 1
            return self.task.remote(*args)

    counting = Counting(crawl_mod._write_checkpoint)
    monkeypatch.setattr(crawl_mod, "_write_checkpoint", counting)
    checkpoints = []
    orig = CrawlEngine._checkpoint

    def spy(self):
        before = counting.calls
        orig(self)
        checkpoints.append(counting.calls - before)

    monkeypatch.setattr(CrawlEngine, "_checkpoint", spy)
    sw = ScaleWeb(n_pages=60, n_hosts=6, out_degree=3)
    ck = str(tmp_path / "ck")
    eng = CrawlEngine(sw, sw.url_of(0), checkpoint_dir=ck, seen_shards=2,
                      filter_by_domain=False, store_body=False, batch_size=8)
    eng.run_turbo(str(tmp_path / "sink"), max_rounds=60)
    eng.seen.shutdown()
    states = glob.glob(os.path.join(ck, "state-round=*"))
    assert len(states) == len(checkpoints) > 2
    assert checkpoints == [1] + [0] * (len(checkpoints) - 1)
    # run(): fetched-* terminal parts and queued parts in the same task
    ck2 = str(tmp_path / "ck2")
    checkpoints.clear()
    eng, res = run(web, SEED, checkpoint_dir=ck2)
    eng.seen.shutdown()
    assert checkpoints and checkpoints == [1] * len(checkpoints)
    fetched = glob.glob(os.path.join(ck2, "parts", "*-fetched-*.parquet"))
    assert len(fetched) == len(eng.terminal_refs)


def test_turbo_batch_error_surfaces(tmp_path):
    """A non-fetch exception raised by the web inside a turbo batch makes
    ``run_turbo`` raise: it neither hangs nor drops the batch's rows."""
    import threading

    class BrokenWeb(ScaleWeb):
        def get(self, url, request_headers=None):
            if url == self.url_of(7):
                raise RuntimeError("broken transport")
            return super().get(url, request_headers)

    sw = BrokenWeb(n_pages=60, n_hosts=4, out_degree=3)
    eng = CrawlEngine(sw, sw.url_of(0), filter_by_domain=False, seen_shards=1,
                      store_body=False, batch_size=8)
    box = {}

    def target():
        try:
            box["out"] = eng.run_turbo(str(tmp_path / "sink"), max_rounds=60)
        except Exception as e:
            box["error"] = e

    th = threading.Thread(target=target, daemon=True)
    th.start()
    th.join(120)
    assert not th.is_alive(), "run_turbo hung on a failing batch"
    eng.seen.shutdown()
    assert "out" not in box
    assert isinstance(box["error"], RuntimeError)
    assert "broken transport" in str(box["error"])


_WINDOW_PROBE = r'''
import json, os, sys, time
import ray, ray.data
from simplecrawler_ray.pipelines.crawl import CrawlEngine
from simplecrawler_ray.sources.web import ScaleWeb

log_dir, work = sys.argv[1], sys.argv[2]


class RecordingWeb(ScaleWeb):
    """Logs (monotonic ns, url) per get to ``log_dir``, one file per
    worker process."""

    def get(self, url, request_headers=None):
        os.makedirs(self.log_dir, exist_ok=True)
        with open(os.path.join(self.log_dir, f"gets-{os.getpid()}.txt"),
                  "a") as f:
            f.write(f"{time.monotonic_ns()} {url}\n")
        return super().get(url, request_headers)


def ray_workers():
    children = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            try:
                with open(f"/proc/{name}/stat") as f:
                    ppid = int(f.read().rpartition(")")[2].split()[1])
            except OSError:
                continue
            children.setdefault(ppid, []).append(int(name))
    todo, out = [os.getpid()], set()
    while todo:
        pid = todo.pop()
        todo.extend(children.get(pid, ()))
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                if f.read().startswith(b"ray::"):
                    out.add(pid)
        except OSError:
            pass
    return out


ray.init(address="local", num_cpus=2, include_dashboard=False,
         logging_level="ERROR")
ray.data.DataContext.get_current().enable_progress_bars = False
sw = RecordingWeb(n_pages=600, n_hosts=8, out_degree=4)
res = {}
# c*: run_turbo crawls; r*: run() crawls
for tag in ("warm", "c1", "c2", "c3", "r1", "r2", "r3"):
    sw.log_dir = os.path.join(log_dir, tag)
    eng = CrawlEngine(sw, sw.url_of(0), seen_shards=1, filter_by_domain=False,
                      store_body=False, batch_size=32,
                      checkpoint_dir=os.path.join(work, tag, "ck"))
    eng.seen.size()  # the shard actor's start is set-up, not crawl
    before = ray_workers()
    if tag.startswith("r"):
        fetched = len(eng.run(max_rounds=60).fetch_order)
    else:
        fetched = eng.run_turbo(os.path.join(work, tag, "sink"),
                                max_rounds=60)["fetched"]
    res[tag] = dict(new_workers=sorted(ray_workers() - before),
                    window=int(eng._task_cpus()), fetched=fetched,
                    rounds=eng.round_no)
    eng.seen.shutdown()
print(json.dumps(res))
ray.shutdown()
'''


@pytest.mark.skipif(not os.path.isdir("/proc"),
                    reason="counts Ray worker processes through /proc")
def test_turbo_window_starts_no_spare_workers(tmp_path):
    """On a cluster with one CPU free of the seen shard, each of three
    multi-round ``run_turbo`` crawls and three ``run()`` crawls after a
    warm one starts no new Ray worker process, and its batches never run
    more at once than ``_task_cpus()`` allows (intervals from the web's
    per-get log, grouped by sink part, or for ``run()`` by the
    checkpoint's ``parts/*-fetched-*`` file: one per batch).  Without the
    window, a batch blocked in the seen-shard RPC hands its CPU to a
    queued one on a new worker."""
    import glob
    import json
    import subprocess
    import sys

    import pyarrow.parquet as pq

    log_dir, work = tmp_path / "gets", tmp_path / "work"
    log_dir.mkdir()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [root] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                  if p]))
    proc = subprocess.run(
        [sys.executable, "-c", _WINDOW_PROBE, str(log_dir), str(work)],
        capture_output=True, text=True, timeout=600, env=env, cwd=root)
    assert proc.returncode == 0, proc.stderr[-3000:]
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    for tag in ("c1", "c2", "c3", "r1", "r2", "r3"):
        r = res[tag]
        assert r["fetched"] == 600 and r["rounds"] > 2
        assert r["window"] == 1
        assert r["new_workers"] == [], (tag, r)
        # every get of the crawl, mapped to its (round, batch) part
        if tag.startswith("r"):
            sink = str(work / tag / "ck")
            parts = glob.glob(os.path.join(sink, "parts",
                                           "*-fetched-*.parquet"))
        else:
            sink = str(work / tag / "sink")
            parts = glob.glob(os.path.join(sink, "round=*", "*.parquet"))
        part_of = {}
        for p in parts:
            for u in pq.read_table(p, columns=["url"]).column("url").to_pylist():
                part_of[u] = os.path.relpath(p, sink)
        assert len(parts) > r["rounds"]  # rounds with several batches
        spans: dict = {}
        for f in (log_dir / tag).iterdir():
            for line in f.read_text().splitlines():
                t, u = line.split()
                if u in part_of:
                    lo, hi = spans.get(part_of[u], (int(t), int(t)))
                    spans[part_of[u]] = (min(lo, int(t)), max(hi, int(t)))
        events = sorted([(lo, 1) for lo, _ in spans.values()]
                        + [(hi, -1) for _, hi in spans.values()])
        running = peak = 0
        for _, d in events:
            running += d
            peak = max(peak, running)
        assert peak <= r["window"], f"{tag}: {peak} batches ran at once"

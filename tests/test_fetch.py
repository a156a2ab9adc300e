"""The columnar Fetcher against the per-row one it replaced.

``_oracle_fetch`` is the per-row ``Fetcher.__call__`` (one branch ladder
per response, Python lists turned into Arrow arrays at the end).  Every
test here runs both on the same batch and compares the fetched tables
column by column — names, types, order and values — and the sink part
each would write, byte for byte.
"""

import io
import json
import zlib
from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from simplecrawler_ray.cookies import CookieJar
from simplecrawler_ray.schemas import (
    STATUS_DOWNLOADED,
    STATUS_DOWNLOADPREVENTED,
    STATUS_FAILED,
    STATUS_HEADERS,
    STATUS_NOTFOUND,
    STATUS_REDIRECTED,
    STATUS_SPOOLED,
    STATUS_TIMEOUT,
)
from simplecrawler_ray.sources.web import (ETAG, LASTMOD, ConformanceWeb,
                                           WebResponse, _resp, url_hash64)
from simplecrawler_ray.stages.fetch import (Fetcher, clean_expand_resources,
                                            decode_body, decompress_body,
                                            discover_resources,
                                            mime_type_supported)
from simplecrawler_ray.urlnorm import process_url


def _batch(urls: list[str], referrer: str = "") -> pa.Table:
    """Frontier rows for ``urls``, as the crawl queues them."""
    rows = [process_url(u) for u in urls]
    n = len(rows)
    return pa.table({
        "seq": pa.array(range(n), pa.int64()),
        "url": [r.url for r in rows],
        "url_hash": pa.array([url_hash64(r.url) for r in rows], pa.uint64()),
        "protocol": [r.protocol for r in rows],
        "host": [r.host for r in rows],
        "port": pa.array([r.port for r in rows], pa.int32()),
        "path": [r.path for r in rows],
        "depth": pa.array([1] * n, pa.int32()),
        "referrer": [referrer] * n,
        "fetched": [False] * n,
        "status": ["queued"] * n,
        "state_code": pa.array([0] * n, pa.int16()),
        "round": pa.array([0] * n, pa.int32()),
    })


def _fetchers(web, cfg: dict, cache=None) -> tuple[Fetcher, Fetcher]:
    """Two fetchers of one config, each with its own empty cookie jar."""
    new, old = Fetcher(web, dict(cfg), cache), Fetcher(web, dict(cfg), cache)
    new.jar, old.jar = CookieJar(), CookieJar()
    return new, old


def _sink_bytes(t: pa.Table) -> bytes:
    buf = io.BytesIO()
    pq.write_table(t.drop_columns(["discovered", "round"]), buf)
    return buf.getvalue()


def _assert_same(got: pa.Table, want: pa.Table) -> None:
    assert got.schema == want.schema
    for name in want.column_names:
        assert got.column(name).equals(want.column(name)), (
            name, got.column(name).to_pylist(), want.column(name).to_pylist())
    assert _sink_bytes(got) == _sink_bytes(want)


class _FullWeb(ConformanceWeb):
    """The conformance routes plus the responses they lack."""

    EXTRA = {
        "/moved-nowhere": WebResponse(302, b"no location", "text/html", {}),
        "/500": _resp(500, "boom"),
        "/huge-header": WebResponse(200, b"tiny", "text/html", {},
                                    content_length_override=1 << 30),
        "/huge-body": WebResponse(200, b"x" * 5000, "text/html", {},
                                  content_length_override=100),
        "/bad-gzip": WebResponse(200, b"not gzip at all", "text/html",
                                 {"Content-Encoding": "gzip"}),
        "/veto": _resp(200, "<a href='/a'>vetoed</a>"),
        "/raise": _resp(200, "<a href='/b'>raises</a>"),
        "/utf8-header": WebResponse(
            200, "<a href='/ü'>ü</a>".encode(),
            "text/html; charset=UTF-8", {}),
        "/latin1-bare": WebResponse(200, "caf\xe9 <a href='/c'>c</a>".encode(
            "iso-8859-1"), "text/html", {}),
        "/caption": WebResponse(200, b"\x89PNG", "image/png", {},
                                caption="<a href='http://x.test/1'>1</a>"),
    }

    def get(self, url, request_headers=None):
        path = url[url.index("/", url.index("//") + 2):]
        if path in self.EXTRA:
            return self.EXTRA[path]
        return super().get(url, request_headers)


_PATHS = ["/", "/img/1", "/font/1", "/etag", "/last-modified", "/stage5",
          "/moved-nowhere", "/404", "/410", "/500", "/timeout",
          "/huge-header", "/huge-body", "/big", "/compressed/gzip",
          "/compressed/deflate", "/compressed/link", "/bad-gzip", "/stage2",
          "/cookie", "/veto", "/raise", "/encoded/header", "/encoded/inline",
          "/encoded/old-inline", "/encoded/empty", "/utf8-header",
          "/latin1-bare", "/caption", "/css", "/script", "/nofollow"]
_URLS = (["http://127.0.0.1:3000" + p for p in _PATHS]
         + ["http://127.0.0.1:9999/unreachable"])


def _veto(item):
    return item["path"] != "/veto"


def _raise(item, response):
    if item["path"] == "/raise":
        raise RuntimeError("condition error")
    return response["code"] == 200


@pytest.mark.parametrize("threads", [0, 4])
@pytest.mark.parametrize("download_unsupported", [False, True])
def test_fetcher_matches_row_oracle(threads, download_unsupported):
    """Every disposition and side event, sequential and on a thread pool."""
    web = _FullWeb()
    cfg = {"max_resource_size": 4096, "download_conditions": [_veto, _raise],
           "download_unsupported": download_unsupported,
           "fetch_threads": threads}
    cache = {"http://127.0.0.1:3000/etag": (ETAG, None),
             "http://127.0.0.1:3000/last-modified": (None, LASTMOD)}
    batch = _batch(_URLS, referrer="http://127.0.0.1:3000/")
    new, old = _fetchers(web, cfg, cache)
    got, want = new(batch), _oracle_fetch(old, batch)
    _assert_same(got, want)
    assert [c.cookies for c in (new.jar, old.jar)] and (
        len(new.jar.cookies) == len(old.jar.cookies))
    seen = set(got.column("disposition").to_pylist())
    assert {"fetchtimeout", "fetchclienterror", "fetchdataerror",
            "downloadconditionerror", "downloadprevented", "fetchcomplete",
            "notmodified", "fetchredirect", "fetch404", "fetch410",
            "fetcherror"} <= seen
    flags = set(got.column("error_flags").to_pylist())
    assert {"cookieerror", "gziperror"} <= flags
    statuses = set(got.column("status").to_pylist())
    assert {STATUS_DOWNLOADED, STATUS_DOWNLOADPREVENTED, STATUS_FAILED,
            STATUS_HEADERS, STATUS_NOTFOUND, STATUS_REDIRECTED,
            STATUS_SPOOLED, STATUS_TIMEOUT} <= statuses



def test_fetcher_matches_row_oracle_on_an_empty_batch():
    """A batch the robots check emptied still yields the oracle's
    columns, with no rows."""
    batch = _batch(_URLS).slice(0, 0)
    new, old = _fetchers(_FullWeb(), {})
    got = new(batch)
    assert got.num_rows == 0
    _assert_same(got, _oracle_fetch(old, batch))

@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    from simplecrawler_ray.sources.corpus import build_corpus
    from simplecrawler_ray.sources.web import ScaleWeb

    sw = ScaleWeb(n_pages=40, n_hosts=4, out_degree=3, caption_words=10)
    out = str(tmp_path_factory.mktemp("corpus"))
    build_corpus(sw, out, n_buckets=4, rows_per_block=10)
    return sw, out


@pytest.mark.parametrize("phash", [False, True])
@pytest.mark.parametrize("broadcast", [False, True])
def test_fetcher_matches_row_oracle_on_corpus(corpus, phash, broadcast):
    """Hits, /robots.txt with and without a query, 404s and an unknown
    host, answered by one ``get_many``; the oracle asks ``get`` per row."""
    from simplecrawler_ray.sources.corpus import CorpusWeb

    sw, out = corpus
    web = CorpusWeb(out, n_buckets=4, max_cached_buckets=2, broadcast=broadcast)
    urls = [sw.url_of(i) for i in (3, 0, 39, 17, 8, 3)]
    urls += ["http://host1.test/robots.txt", "http://host2.test/robots.txt?x=1",
             "http://host0.test/p/99999", "http://nowhere.test/",
             sw.url_of(5).replace("/p/", "/q/")]
    batch = _batch(urls)
    new, old = _fetchers(web, {"phash_fetched": phash, "store_body": True})
    got, want = new(batch), _oracle_fetch(old, batch)
    _assert_same(got, want)
    assert got.column("state_code").to_pylist() == [200] * 8 + [404] * 3


def test_corpus_batch_builds_no_response_objects(corpus, monkeypatch):
    """``get_many`` answers a batch as columns: no ``WebResponse`` is
    built per row (``get``, one URL, still builds its one)."""
    from simplecrawler_ray.sources import corpus as corpus_mod

    made = []
    real = corpus_mod.WebResponse

    def counting(*a, **k):
        made.append(a)
        return real(*a, **k)

    monkeypatch.setattr(corpus_mod, "WebResponse", counting)
    sw, out = corpus
    web = corpus_mod.CorpusWeb(out, n_buckets=4)
    batch = _batch([sw.url_of(i) for i in range(40)] + ["http://h.test/x"])
    fetched = Fetcher(web, {"phash_fetched": True})(batch)
    assert fetched.column("state_code").to_pylist() == [200] * 40 + [404]
    assert made == []
    assert web.get(sw.url_of(1)).caption == sw.caption_of(1)
    assert len(made) == 1


# --- drawn responses through a stub web ---

_LINKS = "<a href='/a'>a</a> http://x.test/b <meta charset='utf-8'>"


@st.composite
def _responses(draw):
    code = draw(st.sampled_from([None, -1, 100, 200, 201, 204, 299, 300, 301,
                                 302, 304, 307, 399, 404, 410, 500, 503]))
    if code is None:
        return None
    ct = draw(st.sampled_from(["text/html", "text/html; charset=utf-8",
                               "text/html; charset=iso-8859-1", "image/png",
                               "application/xml", "text/plain; charset=bogus",
                               "", "TEXT/HTML"]))
    size = draw(st.integers(0, 70))
    kind = draw(st.sampled_from(["text", "latin1", "bytes"]))
    if kind == "text":
        body = (_LINKS * 3)[:size].encode()
    elif kind == "latin1":
        body = ("\xe9" + _LINKS)[:size].encode("iso-8859-1")
    else:
        body = bytes(draw(st.lists(st.integers(0, 255), min_size=size,
                                   max_size=size)))
    headers = {}
    if draw(st.booleans()):
        headers["Set-Cookie"] = draw(st.sampled_from(
            ["a=b; path=/", "=bad; domain=x.com", ["c=d", "=e"]]))
    encoding = draw(st.sampled_from([None, "gzip", "deflate", "identity"]))
    if encoding:
        headers["Content-Encoding"] = encoding
        if encoding == "gzip" and draw(st.booleans()):
            body = zlib.compress(body, 6, wbits=31)
        elif encoding == "deflate" and draw(st.booleans()):
            body = zlib.compress(body, 6)
    if draw(st.booleans()):
        headers["Location"] = draw(st.sampled_from(["/moved", ""]))
    if draw(st.booleans()):
        headers["Content-Type"] = "overridden"
    override = draw(st.sampled_from([None, None, 0, 63, 64, 65, 1 << 20]))
    caption = draw(st.sampled_from([None, None, "<a href='/cap'>cap</a>"]))
    return WebResponse(code, body, ct, headers, caption=caption,
                       content_length_override=override)


class _StubWeb:
    def __init__(self, responses):
        self.responses = responses

    def get(self, url, request_headers=None):
        return self.responses[int(url.rsplit("/", 1)[1])]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(responses=st.lists(_responses(), min_size=1, max_size=10),
       download_unsupported=st.booleans(), store_body=st.booleans(),
       phash=st.booleans(), discover=st.booleans())
def test_fetcher_matches_row_oracle_drawn(responses, download_unsupported,
                                          store_body, phash, discover):
    """Codes including -1 and no answer, content types with and without
    a charset, sizes around ``max_resource_size`` (64), and header sets
    with and without Set-Cookie, Content-Encoding and Location."""
    web = _StubWeb(responses)
    cfg = {"max_resource_size": 64, "download_unsupported": download_unsupported,
           "store_body": store_body, "phash_fetched": phash,
           "discover": discover}
    batch = _batch([f"http://h.test/r/{i}" for i in range(len(responses))])
    new, old = _fetchers(web, cfg)
    _assert_same(new(batch), _oracle_fetch(old, batch))


def _oracle_fetch(self, batch: pa.Table) -> pa.Table:
    """The per-row ``Fetcher.__call__`` the columnar one replaced, less
    its ``get_many`` branch: every web is asked per row."""
    n = batch.num_rows
    urls = batch.column("url").to_pylist()
    hosts = batch.column("host").to_pylist()
    paths = batch.column("path").to_pylist()
    referrers = (batch.column("referrer").to_pylist()
                 if "referrer" in batch.column_names else [""] * n)

    status = [STATUS_SPOOLED] * n
    fetched = [False] * n
    codes = [0] * n
    content_types = [""] * n
    content_lengths = [0] * n
    actual_sizes = [0] * n
    sent_incorrect = [False] * n
    headers_json = [""] * n
    bodies: list[Optional[bytes]] = [None] * n
    captions: list[Optional[str]] = [None] * n
    image_ids: list[Optional[str]] = [None] * n
    dispositions = [""] * n
    error_flags = [""] * n   # side events (cookieerror, gziperror)
    phashes: list[Optional[int]] = [None] * n
    locations = [""] * n
    discovered: list[list[str]] = [[] for _ in range(n)]
    mime_ok = [False] * n
    latency = [0] * n
    phash_rows: list[int] = []  # image rows, hashed at batch end
    images: list[bytes] = []
    parse_rows: list[int] = []  # rows whose text is parsed at batch end
    texts: list[str] = []

    prefetched = None
    if self.fetch_threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.fetch_threads)
        reqs = [(u, self._request_headers(u, hosts[i], paths[i], referrers[i]))
                for i, u in enumerate(urls)]
        prefetched = list(self._pool.map(lambda p: self.web.get(p[0], p[1]),
                                         reqs))

    for i, url in enumerate(urls):
        resp = (prefetched[i] if prefetched is not None else self.web.get(
            url, self._request_headers(url, hosts[i], paths[i], referrers[i])))
        if resp is None:  # route never responds => timeout
            status[i] = STATUS_TIMEOUT
            fetched[i] = True
            dispositions[i] = "fetchtimeout"
            continue
        if resp.code == -1:  # unreachable host => client error, code 600
            status[i] = STATUS_FAILED
            fetched[i] = True
            codes[i] = 600
            dispositions[i] = "fetchclienterror"
            continue

        codes[i] = resp.code
        ct = resp.content_type or ""
        content_types[i] = ct
        content_lengths[i] = resp.content_length
        # headers repeat across a synthetic/real site (same server
        # config) — cache the serialized JSON per distinct
        # (headers, ct, length) instead of re-dumping per row
        hkey = (tuple((k, str(v)) for k, v in resp.headers.items())
                if resp.headers else (), ct, resp.content_length)
        hj = self._headers_json_cache.get(hkey)
        if hj is None:
            hj = json.dumps(
                {**{k.lower(): str(v) for k, v in resp.headers.items()},
                 "content-type": ct,
                 "content-length": str(resp.content_length)})
            if len(self._headers_json_cache) > 4096:
                self._headers_json_cache.clear()
            self._headers_json_cache[hkey] = hj
        headers_json[i] = hj
        latency[i] = 1  # synthetic web: nominal 1ms latency

        if self.accept_cookies and "Set-Cookie" in resp.headers:
            errs = self.jar.add_from_headers(resp.headers["Set-Cookie"])
            if errs:
                error_flags[i] = "cookieerror"

        if resp.content_length > self.max_resource_size:
            # oversize: fetched, status NOT updated (stays spooled)
            fetched[i] = True
            dispositions[i] = "fetchdataerror"
            continue

        if 200 <= resp.code < 300:
            vetoed = False
            errored = False
            if self.download_conditions:
                from simplecrawler_ray.conditions import eval_condition

                # two-arg conditions get the response dict as the
                # second argument — the reference's
                # (queueItem, response) shape (src/crawler.ts:1180-1211)
                response_item = {"code": resp.code, "content_type": ct,
                                 "headers": dict(resp.headers),
                                 "content_length": resp.content_length}
                for cond in self.download_conditions:
                    try:
                        if not eval_condition(
                                cond,
                                {"url": url, "host": hosts[i],
                                 "path": paths[i], "code": resp.code,
                                 "content_type": ct},
                                response_item):
                            vetoed = True
                            break
                    except Exception:
                        errored = True
                        break
            if errored:
                # reference leaves the item dangling (async.every returns
                # false, no queue update); terminal here so the BSP round
                # loop can complete — documented divergence
                fetched[i] = True
                dispositions[i] = "downloadconditionerror"
                continue
            if vetoed:
                status[i] = STATUS_DOWNLOADPREVENTED
                fetched[i] = True
                dispositions[i] = "downloadprevented"
                continue

            status[i] = STATUS_HEADERS
            mime_supported = mime_type_supported(ct, self.supported_mime)
            mime_ok[i] = mime_supported
            if not (self.download_unsupported or mime_supported):
                fetched[i] = True  # body discarded, status stays headers
                continue

            body = resp.body
            actual_sizes[i] = len(body)
            sent_incorrect[i] = len(body) != resp.content_length
            if len(body) > self.max_resource_size:
                fetched[i] = True
                dispositions[i] = "fetchdataerror"
                continue

            data, gzip_err = decompress_body(
                body, resp.headers.get("Content-Encoding", ""),
                max_size=self.max_resource_size)
            if gzip_err:
                error_flags[i] = (error_flags[i] + ",gziperror").lstrip(",")

            status[i] = STATUS_DOWNLOADED
            fetched[i] = True
            dispositions[i] = "fetchcomplete"
            if self.store_body:
                bodies[i] = body
            if resp.caption is not None:
                # image+caption page (corpus model): caption is the
                # parse target; body is the image payload
                text = resp.caption
                mime_supported = True
                mime_ok[i] = True
                if self.phash_fetched and body:
                    phash_rows.append(i)
                    images.append(body)
            else:
                text = decode_body(data, ct)
            captions[i] = text
            image_ids[i] = url
            if self.discover_enabled and mime_supported:
                parse_rows.append(i)
                texts.append(text)
        elif resp.code == 304:
            fetched[i] = True  # status stays spooled (crawler.ts:1905-1926)
            dispositions[i] = "notmodified"
        elif 300 <= resp.code < 400 and resp.headers.get("Location"):
            status[i] = STATUS_REDIRECTED
            fetched[i] = True
            locations[i] = resp.headers["Location"]
            dispositions[i] = "fetchredirect"
        elif resp.code in (404, 410):
            status[i] = STATUS_NOTFOUND
            fetched[i] = True
            dispositions[i] = "fetch404" if resp.code == 404 else "fetch410"
        else:
            status[i] = STATUS_FAILED
            fetched[i] = True
            dispositions[i] = "fetcherror"

    if phash_rows:
        from simplecrawler_ray.functions.imagecodec import phash_blobs

        # the whole batch's images decode and hash at once; a blob
        # that does not decode leaves its row's phash null
        for i, h in zip(phash_rows, phash_blobs(images)):
            phashes[i] = h

    if parse_rows:
        # the whole batch's links are extracted at once, then each
        # row's are resolved against its own url
        raws = discover_resources(
            texts,
            parse_html_comments=self.parse_html_comments,
            parse_script_tags=self.parse_script_tags,
            respect_robots_txt=self.respect_robots_txt,
        )
        for i, raw in zip(parse_rows, raws):
            url = urls[i]
            proto = url.split(":", 1)[0] if ":" in url else "http"
            discovered[i] = clean_expand_resources(raw, url, proto)

    out = batch.drop_columns(
        [c for c in ("fetched", "status", "state_request_latency_ms",
                     "state_request_time_ms", "state_download_time_ms",
                     "state_content_length", "state_content_type", "state_code",
                     "state_headers", "state_actual_data_size",
                     "state_sent_incorrect_size") if c in batch.column_names]
    )
    cols = {
        "fetched": pa.array(fetched, pa.bool_()),
        "status": pa.array(status, pa.string()),
        "state_request_latency_ms": pa.array(latency, pa.int32()),
        "state_request_time_ms": pa.array(latency, pa.int32()),
        "state_download_time_ms": pa.array([1 if b else 0 for b in fetched], pa.int32()),
        "state_content_length": pa.array(content_lengths, pa.int64()),
        "state_content_type": pa.array(content_types, pa.string()),
        "state_code": pa.array(codes, pa.int16()),
        "state_headers": pa.array(headers_json, pa.string()),
        "state_actual_data_size": pa.array(actual_sizes, pa.int64()),
        "state_sent_incorrect_size": pa.array(sent_incorrect, pa.bool_()),
        "body": pa.array(bodies, pa.binary()),
        "caption": pa.array(captions, pa.string()),
        "image_id": pa.array(image_ids, pa.string()),
        "disposition": pa.array(dispositions, pa.string()),
        "error_flags": pa.array(error_flags, pa.string()),
        "location": pa.array(locations, pa.string()),
        "discovered": pa.array(discovered, pa.list_(pa.string())),
        "mime_supported": pa.array(mime_ok, pa.bool_()),
        "phash": pa.array(phashes, pa.int64()),
    }
    for name, arr in cols.items():
        out = out.append_column(name, arr)
    return out


"""Fetch + parse stage: the worker-side ``Fetcher``.

Replaces the reference's ``fetchQueueItem`` + ``handleResponse``
(src/crawler.ts:1548-1644, 1663-2007) event chain with a batch
transform: frontier rows in, fetched rows (+ discovered-candidate
columns) out.  Fetch and link discovery are CO-LOCATED in one call so
response bodies (up to 16 MiB) never cross a task boundary — only
candidate URL strings leave; at 100 TB scale this is the difference
between shuffling payload bytes and shuffling strings.

Both crawl loops call it inside their one batch function
(``stages/turbo.py``).  ``worker_fetcher`` builds one ``Fetcher`` per worker
process and crawl config (T3/T5 SURVEY §2.3): the synthetic-web handle
(or corpus reader), the cookie jar, the cache index snapshot, and
compiled mime regexes.  Politeness pacing per host is the round-level
host budget (pipelines/crawl.py): no fetch sleeps between requests.

Status dispatch parity (src/crawler.ts:1800-2007):
  2xx -> downloaded (or downloadprevented / mime-unsupported: body
         dropped, status stays "headers")
  304 -> fetched, status stays "spooled", disposition notmodified
  3xx+Location -> redirected (+ location column for re-queue)
  404/410 -> notfound ; other -> failed ; oversize -> fetchdataerror
  (status stays "spooled") ; timeout -> status timeout ; unreachable ->
  failed, code 600 (fetchclienterror)
"""

from __future__ import annotations

import json
import re
import zlib
from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..cookies import CookieJar
from ..discovery import clean_expand_resources, discover_resources
from ..schemas import (
    FRONTIER_SCHEMA,
    STATUS_DOWNLOADED,
    STATUS_DOWNLOADPREVENTED,
    STATUS_FAILED,
    STATUS_HEADERS,
    STATUS_NOTFOUND,
    STATUS_REDIRECTED,
    STATUS_SPOOLED,
    STATUS_TIMEOUT,
)

_CHARSET_META_RE = re.compile(r"<meta[^>]*charset\s*=\s*[\"']?([\w-]*)", re.I)

DEFAULT_SUPPORTED_MIME = [
    re.compile(r"^text/", re.I),
    re.compile(r"^application/(rss|html|xhtml)?[+/-]?xml", re.I),
    re.compile(r"^application/javascript", re.I),
    re.compile(r"^xml", re.I),
]


def mime_type_supported(ct: str, patterns=None) -> bool:
    """mimeTypeSupported src/crawler.ts:733-741."""
    for p in patterns or DEFAULT_SUPPORTED_MIME:
        if hasattr(p, "match"):
            if p.match(ct):
                return True
        elif p == ct:
            return True
    return False


def decode_body(body: bytes, content_type: str = "") -> str:
    """decodeBuffer src/crawler.ts:1105-1112: charset from Content-Type
    header, else <meta charset> in first 512 bytes, else utf8."""
    m = _CHARSET_META_RE.search(body[:512].decode("utf-8", errors="replace"))
    # charset token only: trailing parameters ("; boundary=x"), quotes
    # and case previously rode along, failed the codec lookup, and
    # silently mis-decoded the body as utf-8
    hm = re.search(r"charset=[\"']?([^;\s\"']+)", content_type,
                   re.IGNORECASE)
    header_cs = hm.group(1) if hm else None
    encoding = header_cs or (m.group(1) if m else None) or "utf-8"
    try:
        return body.decode(encoding, errors="replace")
    except LookupError:
        return body.decode("utf-8", errors="replace")


def decompress_body(body: bytes, content_encoding: str,
                    max_size: int = 0) -> tuple[bytes, bool]:
    """gzip/deflate decompression (src/crawler.ts:1786-1802).
    Returns (data, gzip_error).  ``max_size`` bounds the DECOMPRESSED
    output: the wire-size cap alone lets a small gzip body (zip bomb)
    inflate to gigabytes in worker memory — past the cap the payload
    is reported as a gzip error instead of materializing."""
    ce = (content_encoding or "").lower()
    if ce not in ("gzip", "deflate"):
        return body, False
    for wbits in (47, -15):  # auto-detect zlib/gzip, then raw deflate
        try:
            d = zlib.decompressobj(wbits=wbits)
            out = d.decompress(body, max_size if max_size > 0 else 0)
            if max_size > 0 and (d.unconsumed_tail or
                                 len(out) >= max_size and not d.eof):
                return body, True  # decompressed size exceeds the cap
            out += d.flush()
            if max_size > 0 and len(out) > max_size:
                return body, True
            return out, False
        except zlib.error:
            continue
    return body, True


# Worker-process-local state.  The crawl's batch tasks run on long-lived
# Ray worker processes, so what is built here (a crawl's Fetcher and
# cookie jar; the candidate stage's canon stores and processors) is paid
# once per worker and crawl, not once per batch or round.
_WORKER_CACHE: dict = {}


def worker_fetcher(web_ref, cfg_ref, cache_ref=None) -> "Fetcher":
    """The worker's ``Fetcher`` for one (web, config, cache index)
    snapshot; a new snapshot drops the old fetchers (the cookie jars,
    keyed by web only, stay)."""
    key = ("fetcher", _ref_key(web_ref), _ref_key(cfg_ref), _ref_key(cache_ref))
    f = _WORKER_CACHE.get(key)
    if f is None:
        for k in [k for k in _WORKER_CACHE if k[0] == "fetcher"]:
            del _WORKER_CACHE[k]
        f = _WORKER_CACHE[key] = Fetcher(web_ref, cfg_ref, cache_ref)
    return f


def fetch_counters(fetched: pa.Table, discover: bool) -> dict:
    """A fetched batch's event counters, the same for both crawl loops:
    ``fetchstart``, one count per disposition, per ``error_flags`` flag
    (``cookieerror``, ``gziperror``) and ``discoverycomplete``
    (downloaded rows of a supported mime type, when discovery is on)."""
    counters = {"fetchstart": fetched.num_rows}
    for e in pc.value_counts(fetched.column("disposition")).to_pylist():
        if e["values"]:
            counters[e["values"]] = int(e["counts"])
    flags = pc.list_flatten(pc.split_pattern(
        pc.coalesce(fetched.column("error_flags"), ""), ","))
    for e in pc.value_counts(flags).to_pylist():
        if e["values"]:
            counters[e["values"]] = int(e["counts"])
    if discover:
        n = pc.sum(pc.and_(fetched.column("mime_supported"),
                           pc.equal(fetched.column("status"), STATUS_DOWNLOADED)))
        if n.as_py():
            counters["discoverycomplete"] = n.as_py()
    return counters


#: a fetched row's payload columns, null in a robots-disallowed record
_PAYLOAD = [("body", pa.binary()), ("caption", pa.string()),
            ("image_id", pa.string()), ("disposition", pa.string()),
            ("error_flags", pa.string()), ("location", pa.string()),
            ("mime_supported", pa.bool_())]

# canonical column order for stored fetched tables ("discovered" is
# transient — consumed by the candidate stage, not stored)
_FETCHED_ORDER = ([f.name for f in FRONTIER_SCHEMA]
                  + [name for name, _ in _PAYLOAD] + ["phash"])


def _normalize_fetched(t: pa.Table) -> pa.Table:
    cols = [c for c in _FETCHED_ORDER if c in t.column_names]
    return t.select(cols)


def _ref_key(ref) -> str:
    return ref.hex() if hasattr(ref, "hex") else str(id(ref))


class Fetcher:
    """Callable: frontier batch in, fetched batch out.

    Built once per worker and crawl by ``worker_fetcher``; the
    constructor resolves its ``ray.put`` refs (plain objects are taken
    as they are).  Input batch: frontier rows (status queued/spooled).
    Output batch: same rows updated + payload/candidate columns:

      body, caption, image_id, disposition, location (redirect target),
      discovered (list<string> cleaned absolute URLs, per-doc deduped),
      mime_supported (bool), phash (``phash_fetched`` only)

    A web with ``get_many(urls, paths)`` (``CorpusWeb``) answers the
    whole batch in one call and is sent no request headers; any other
    web is asked per row through ``get(url, headers)``, sequentially or
    on ``fetch_threads`` threads.  With ``phash_fetched`` the batch's
    image payloads decode and hash in one ``phash_blobs`` call.  Link
    discovery likewise extracts every parsed row's links in one
    ``discover_resources`` call, then resolves each row's against its
    url.
    """

    def __init__(self, web_ref, config_ref, cache_ref=None):
        self.web = ray.get(web_ref) if isinstance(web_ref, ray.ObjectRef) else web_ref
        cfg = ray.get(config_ref) if isinstance(config_ref, ray.ObjectRef) else config_ref
        self.cfg = cfg
        # one jar per (worker process, web): survives round-to-round fetcher
        # rebuilds so cookies persist across the whole crawl (T3)
        jar_key = ("jar", _ref_key(web_ref))
        self.jar = _WORKER_CACHE.setdefault(jar_key, CookieJar())
        self.cache = (ray.get(cache_ref) if isinstance(cache_ref, ray.ObjectRef) else cache_ref) or {}
        self._headers_json_cache: dict = {}
        self.supported_mime = [
            re.compile(p, re.I) if isinstance(p, str) and p.startswith("^") else p
            for p in cfg.get("supported_mime_types") or DEFAULT_SUPPORTED_MIME
        ]
        self.max_resource_size = cfg.get("max_resource_size", 16 * 1024 * 1024)
        self.download_unsupported = cfg.get("download_unsupported", True)
        self.discover_enabled = cfg.get("discover", True)
        self.parse_html_comments = cfg.get("parse_html_comments", True)
        self.parse_script_tags = cfg.get("parse_script_tags", True)
        self.respect_robots_txt = cfg.get("respect_robots_txt", True)
        self.store_body = cfg.get("store_body", True)
        self.download_conditions = cfg.get("download_conditions") or []
        self.accept_cookies = cfg.get("accept_cookies", True)
        # decode fetched image payloads and perceptual-hash them (the
        # north-rule pixel-fidelity path; costs one DCT per row)
        self.phash_fetched = cfg.get("phash_fetched", False)
        # >1: fetch the batch's requests through a thread pool — for
        # REAL transports (HttpWeb), where sequential blocking I/O is
        # latency-bound (100 ms RTT x batch_size per task otherwise).
        # Synthetic webs stay sequential (CPU-bound; threads only add
        # GIL churn).  Divergence note: concurrent requests all see the
        # cookie jar as of batch start (real crawlers behave the same).
        self.fetch_threads = int(cfg.get("fetch_threads", 0) or 0)
        self._pool = None

    def _request_headers(self, url: str, host: str, path: str, referrer: str = "") -> dict:
        """getRequestOptions parity (src/crawler.ts:748-836): UA/Accept,
        Referer, cookie header from the jar, conditional-GET validators,
        basic auth, custom headers.  (Proxy rewrite n/a: the synthetic
        web has no transport layer to proxy.)"""
        cfg = self.cfg
        headers = {
            "user-agent": cfg.get("user_agent", "simplecrawler-ray/1.0"),
            "accept": "*/*",
        }
        if referrer:
            headers["referer"] = referrer
        if cfg.get("decompress_responses", True):
            headers["accept-encoding"] = "gzip, deflate"
        if self.accept_cookies:
            cookies = self.jar.get_as_header(host, path)
            if cookies:
                headers["cookie"] = "; ".join(cookies)
        if cfg.get("needs_auth"):
            import base64

            cred = f"{cfg.get('auth_user', '')}:{cfg.get('auth_pass', '')}"
            headers["authorization"] = "Basic " + base64.b64encode(cred.encode()).decode()
        cached = self.cache.get(url)
        if cached:
            etag, lastmod = cached
            if etag:
                headers["if-none-match"] = etag
            if lastmod:
                headers["if-modified-since"] = lastmod
        headers.update({k.lower(): v for k, v in (cfg.get("custom_headers") or {}).items()})
        return headers

    def __call__(self, batch: pa.Table) -> pa.Table:
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
        get_many = getattr(self.web, "get_many", None)
        if get_many is not None:
            prefetched = get_many(urls, paths)
        elif self.fetch_threads > 1:
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
                    from ..conditions import eval_condition

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
            from ..functions.imagecodec import phash_blobs

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

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

import codecs
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
from ..sources.web import RESPONSE_SCHEMA, url_hash64
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
_CHARSET_HEADER_RE = re.compile(r"charset=[\"']?([^;\s\"']+)", re.I)

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
    hm = _CHARSET_HEADER_RE.search(content_type)
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

#: the stored fetched table, its columns in canonical order
#: ("discovered" is transient — consumed by the candidate stage, not
#: stored)
FETCHED_SCHEMA = pa.schema(list(FRONTIER_SCHEMA) + _PAYLOAD
                           + [("phash", pa.int64())])


def _normalize_fetched(t: pa.Table) -> pa.Table:
    return t.select([c for c in FETCHED_SCHEMA.names if c in t.column_names])


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

    The batch's responses are one ``RESPONSE_SCHEMA`` table.  A web
    with ``get_many(urls, paths, hashes)`` (``CorpusWeb``) answers the
    whole batch with it in one call and is sent no request headers; any
    other web is asked per row through ``get(url, headers)``,
    sequentially or on ``fetch_threads`` threads, and one gather loop
    puts the answers into the table (and their ``Set-Cookie`` into the
    jar).  Every output column is then derived from the table's columns
    with numpy masks and Arrow kernels: mime support and the charset
    verdict once per distinct content type, the ``state_headers`` JSON
    once per distinct (header set, content type).  Python runs per row
    only where the reference does: download conditions, decompression
    of rows with a ``Content-Encoding``, and charset decoding of bodies
    that are not UTF-8 text as they are.  With ``phash_fetched`` the
    batch's image payloads decode and hash in one ``phash_blobs`` call.
    Link discovery extracts every parsed row's links in one
    ``discover_resources`` call over the text column, then resolves
    each row's against its url.
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
        self._ct_info: dict = {}
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

    def _gather(self, resps) -> tuple[pa.Table, list[dict], list[int]]:
        """Per-row responses -> a ``RESPONSE_SCHEMA`` table, the batch's
        distinct header dicts, and the rows whose ``Set-Cookie`` the jar
        refused.  Cookies are taken as each response arrives, so a
        sequential batch's later requests carry them."""
        codes, bodies, cts, lengths, captions, hids = [], [], [], [], [], []
        sets: dict[tuple, int] = {(): 0}
        header_sets: list[dict] = [{}]
        cookie_errors: list[int] = []
        for i, resp in enumerate(resps):
            if resp is None:
                codes.append(None)
                bodies.append(b"")
                cts.append("")
                lengths.append(0)
                captions.append(None)
                hids.append(0)
                continue
            codes.append(resp.code)
            bodies.append(resp.body)
            cts.append(resp.content_type or "")
            lengths.append(resp.content_length)
            captions.append(resp.caption)
            h = resp.headers
            if not h:
                hids.append(0)
                continue
            key = tuple((k, str(v)) for k, v in h.items())
            hid = sets.get(key)
            if hid is None:
                hid = sets[key] = len(header_sets)
                header_sets.append(h)
            hids.append(hid)
            if (self.accept_cookies and resp.code != -1 and "Set-Cookie" in h
                    and self.jar.add_from_headers(h["Set-Cookie"])):
                cookie_errors.append(i)
        table = pa.table([codes, bodies, cts, lengths, captions, hids],
                         schema=RESPONSE_SCHEMA)
        return table, header_sets, cookie_errors

    def _responses(self, batch: pa.Table) -> tuple[pa.Table, list[dict], list[int]]:
        """The batch's responses: one ``get_many`` call, or each row's
        ``get`` (sequential, or on ``fetch_threads`` threads, whose
        requests all carry the jar as of batch start)."""
        get_many = getattr(self.web, "get_many", None)
        if get_many is not None:
            hashes = (batch.column("url_hash").to_numpy()
                      if "url_hash" in batch.column_names else
                      np.array([url_hash64(u) for u in
                                batch.column("url").to_pylist()], np.uint64))
            return (get_many(batch.column("url").combine_chunks(),
                             batch.column("path").combine_chunks(), hashes),
                    [{}], [])
        n = batch.num_rows
        urls = batch.column("url").to_pylist()
        hosts = batch.column("host").to_pylist()
        paths = batch.column("path").to_pylist()
        referrers = (batch.column("referrer").to_pylist()
                     if "referrer" in batch.column_names else [""] * n)
        reqs = ((u, self._request_headers(u, h, p, r))
                for u, h, p, r in zip(urls, hosts, paths, referrers))
        if self.fetch_threads > 1:
            from concurrent.futures import ThreadPoolExecutor

            if self._pool is None:
                self._pool = ThreadPoolExecutor(max_workers=self.fetch_threads)
            return self._gather(list(self._pool.map(
                lambda r: self.web.get(*r), list(reqs))))
        return self._gather(self.web.get(*r) for r in reqs)

    def _per_content_type(self, enc: pa.DictionaryArray):
        """Per row of the dictionary-encoded content types, from one
        check per distinct type: whether its mime type is supported,
        whether its body decodes as UTF-8 by the header (no charset, or
        one that names UTF-8), and whether it names a charset at all."""
        info = []
        for c in enc.dictionary.to_pylist():
            ci = self._ct_info.get(c)
            if ci is None:
                hm = _CHARSET_HEADER_RE.search(c)
                try:
                    plain = hm is None or codecs.lookup(hm.group(1)).name == "utf-8"
                except LookupError:
                    plain = True  # decode_body falls back to utf-8
                ci = (mime_type_supported(c, self.supported_mime), plain,
                      hm is not None)
                if len(self._ct_info) > 4096:
                    self._ct_info.clear()
                self._ct_info[c] = ci
            info.append(ci)
        per_row = np.array(info, bool).reshape(-1, 3)[enc.indices.to_numpy()]
        return per_row[:, 0], per_row[:, 1], per_row[:, 2]

    def _headers_json(self, header_sets: list[dict], hid: np.ndarray,
                      enc: pa.DictionaryArray, length: pa.Array) -> pa.Array:
        """Each row's ``state_headers`` JSON: the response headers
        (lower-cased keys) plus content-type and content-length.  Built
        once per distinct (header set, content type) with a hole for the
        length, which Arrow fills per row."""
        cts = enc.dictionary.to_pylist()
        key = hid.astype(np.int64) * len(cts) + enc.indices.to_numpy()
        if len(key) and (key == key[0]).all():
            pairs, inverse = key[:1], None
        else:
            pairs, inverse = np.unique(key, return_inverse=True)
        heads, tails = [], []
        for p in pairs.tolist():
            h, c = header_sets[p // len(cts)], cts[p % len(cts)]
            hkey = (tuple((k, str(v)) for k, v in h.items()), c)
            ht = self._headers_json_cache.get(hkey)
            if ht is None:
                doc = json.dumps({**{k.lower(): str(v) for k, v in h.items()},
                                  "content-type": c, "content-length": ""})
                head, tail = doc.split(_LENGTH_HOLE)
                ht = (head + _LENGTH_HOLE[:-1], '"' + tail)
                if len(self._headers_json_cache) > 4096:
                    self._headers_json_cache.clear()
                self._headers_json_cache[hkey] = ht
            heads.append(ht[0])
            tails.append(ht[1])
        if inverse is None:
            heads, tails = heads[0], tails[0]
        else:
            inverse = pa.array(inverse.reshape(-1))
            heads = pa.array(heads, pa.string()).take(inverse)
            tails = pa.array(tails, pa.string()).take(inverse)
        return pc.binary_join_element_wise(heads, length.cast(pa.string()),
                                           tails, "")

    def _conditions(self, batch: pa.Table, resp: pa.Table, header_sets: list[dict],
                    hid: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Download conditions on ``rows`` (2xx, not oversize): the rows a
        condition vetoed and the rows where one raised."""
        from ..conditions import eval_condition

        n = batch.num_rows
        vetoed, errored = np.zeros(n, bool), np.zeros(n, bool)
        cols = batch.select(["url", "host", "path"]).take(rows).to_pydict()
        rcols = resp.select(["code", "content_type", "content_length"]).take(
            rows).to_pydict()
        for k, i in enumerate(rows.tolist()):
            code, ct = rcols["code"][k], rcols["content_type"][k]
            # two-arg conditions get the response dict as the second
            # argument — the reference's (queueItem, response) shape
            # (src/crawler.ts:1180-1211)
            response_item = {"code": code, "content_type": ct,
                             "headers": dict(header_sets[hid[i]]),
                             "content_length": rcols["content_length"][k]}
            item = {"url": cols["url"][k], "host": cols["host"][k],
                    "path": cols["path"][k], "code": code, "content_type": ct}
            for cond in self.download_conditions:
                try:
                    if not eval_condition(cond, item, response_item):
                        vetoed[i] = True
                        break
                except Exception:
                    errored[i] = True
                    break
        return vetoed, errored

    @staticmethod
    def _texts(body: pa.Array, enc: pa.DictionaryArray, rows: np.ndarray,
               plain: np.ndarray, header_cs: np.ndarray,
               decoded: dict[int, bytes]) -> pa.Array:
        """The body text of each ``rows`` row (decodeBuffer), null
        elsewhere: Arrow reads a body that is UTF-8 as it is; a charset
        (in the header, or a ``<meta>`` in the first 512 bytes) and a
        decompressed body decode per row."""
        fast = rows & plain
        fast[list(decoded)] = False
        check = fast & ~header_cs
        if check.any():
            # no charset in the header: a <meta> charset would decide
            head = body if check.all() else body.take(np.flatnonzero(check))
            meta = pc.match_substring(pc.binary_slice(head, 0, 512), "<meta",
                                      ignore_case=True)
            fast[np.flatnonzero(check)[meta.to_numpy(zero_copy_only=False)
                                       ]] = False
        try:
            text = (body if fast.all() else body.take(np.flatnonzero(fast))
                    ).cast(pa.string())
        except pa.ArrowInvalid:  # not UTF-8 after all: decode per row
            fast[:] = False
            text = pa.array([], pa.string())
        if not fast.all():
            slow = np.flatnonzero(rows & ~fast)
            cts = enc.dictionary.take(enc.indices.take(slow)).to_pylist()
            text = _spread(len(rows), np.concatenate(
                [np.flatnonzero(fast), slow]), pa.concat_arrays([text, pa.array(
                    [decode_body(decoded.get(i, b), c) for i, b, c in zip(
                        slow.tolist(), body.take(slow).to_pylist(), cts)],
                    pa.string())]))
        return text

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        resp, header_sets, cookie_errors = self._responses(batch)
        code = resp.column("code")
        timeout = (code.is_null().to_numpy() if code.null_count
                   else np.zeros(n, bool))
        code = (code.fill_null(0) if code.null_count else code).to_numpy()
        hid = resp.column("headers").to_numpy()
        body = resp.column("body").combine_chunks()
        body_len = pc.binary_length(body).to_numpy(zero_copy_only=False)
        length = resp.column("content_length")
        clen = length.to_numpy()
        caption = resp.column("caption").combine_chunks()
        has_caption = (caption.is_valid().to_numpy(zero_copy_only=False)
                       if caption.null_count < n else np.zeros(n, bool))
        ct = resp.column("content_type").combine_chunks()
        ct_enc = pc.dictionary_encode(ct)
        mime, plain, header_cs = self._per_content_type(ct_enc)
        ce_of = [h.get("Content-Encoding", "") for h in header_sets]
        loc_of = [h.get("Location") or "" for h in header_sets]

        answered = ~timeout & (code != -1)
        over = answered & (clen > self.max_resource_size)
        ok = answered & ~over
        success = ok & (code >= 200) & (code < 300)
        vetoed = errored = np.zeros(n, bool)
        if self.download_conditions and success.any():
            vetoed, errored = self._conditions(batch, resp, header_sets, hid,
                                               np.flatnonzero(success))
        headers_stage = success & ~vetoed & ~errored
        skip = headers_stage & ~(self.download_unsupported | mime)
        reach = headers_stage & ~skip  # the body is read
        body_over = reach & (body_len > self.max_resource_size)
        done = reach & ~body_over
        redirect = (ok & (code >= 300) & (code < 400) & (code != 304)
                    & np.array([bool(x) for x in loc_of])[hid])
        outcome = np.full(n, len(_OUTCOMES) - 1, np.int8)
        for k, rows in reversed(list(enumerate(
                [timeout, ~timeout & (code == -1), over, errored, vetoed,
                 skip, body_over, done, ok & (code == 304), redirect,
                 ok & (code == 404), ok & (code == 410)]))):
            outcome[rows] = k

        # per row only where the reference works per row: decompression
        flags = np.zeros(n, np.int8)
        flags[cookie_errors] = 1
        decoded: dict[int, bytes] = {}
        ce_rows = (np.flatnonzero(done & np.array([bool(c) for c in ce_of])[hid])
                   if len(ce_of) > 1 else ())
        if len(ce_rows):
            for i, b in zip(ce_rows.tolist(), body.take(ce_rows).to_pylist()):
                data, gzip_err = decompress_body(
                    b, ce_of[hid[i]], max_size=self.max_resource_size)
                if gzip_err:
                    flags[i] |= 2
                decoded[i] = data

        text_rows = done & ~has_caption
        text = (self._texts(body, ct_enc, text_rows, plain, header_cs, decoded)
                if text_rows.any() else pa.nulls(n, pa.string()))
        text = _where(done & has_caption, caption, text)

        phashes = pa.nulls(n, pa.int64())
        img_rows = np.flatnonzero(done & has_caption & (body_len > 0))
        if self.phash_fetched and len(img_rows):
            from ..functions.imagecodec import phash_blobs

            # the whole batch's images decode and hash at once; a blob
            # that does not decode leaves its row's phash null
            phashes = _spread(n, img_rows, pa.array(phash_blobs(
                body.take(img_rows).to_pylist()), pa.int64()))

        mime_ok = (headers_stage & mime) | (done & has_caption)
        url = batch.column("url").combine_chunks()
        parse = done & mime_ok & self.discover_enabled
        if parse.any():
            # the whole batch's links are extracted at once, then each
            # row's are resolved against its own url
            every = parse.all()
            rows = np.flatnonzero(parse)
            raws = discover_resources(
                text if every else text.take(rows),
                parse_html_comments=self.parse_html_comments,
                parse_script_tags=self.parse_script_tags,
                respect_robots_txt=self.respect_robots_txt,
            )
            links: list[str] = []
            counts = np.zeros(n + 1, np.int32)
            for i, u, raw in zip(rows.tolist(), (url if every else url.take(
                    rows)).to_pylist(), raws):
                proto = u.split(":", 1)[0] if ":" in u else "http"
                found = clean_expand_resources(raw, u, proto)
                counts[i + 1] = len(found)
                links.extend(found)
            discovered = pa.ListArray.from_arrays(
                pa.array(np.cumsum(counts, dtype=np.int32)),
                pa.array(links, pa.string()))
        else:
            discovered = pa.ListArray.from_arrays(
                pa.array(np.zeros(n + 1, np.int32)), pa.array([], pa.string()))

        outcome = pa.array(outcome)
        latency = pa.array(answered.astype(np.int32))
        cols = {
            "fetched": pa.array(np.ones(n, bool)),
            "status": _STATUS.take(outcome),
            "state_request_latency_ms": latency,
            "state_request_time_ms": latency,
            "state_download_time_ms": pa.array(np.ones(n, np.int32)),
            "state_content_length": pa.array(np.where(answered, clen, 0)),
            "state_content_type": _where(answered, ct, pa.scalar("")),
            "state_code": pa.array(np.where(code == -1, 600, code).astype(np.int16)),
            "state_headers": _where(answered, self._headers_json(
                header_sets, hid, ct_enc, length), pa.scalar("")),
            "state_actual_data_size": pa.array(np.where(reach, body_len, 0).astype(np.int64)),
            "state_sent_incorrect_size": pa.array(reach & (body_len != clen)),
            "body": (_where(done, body, pa.scalar(None, pa.binary()))
                     if self.store_body else pa.nulls(n, pa.binary())),
            "caption": text,
            "image_id": _where(done, url, pa.scalar(None, pa.string())),
            "disposition": _DISPOSITION.take(outcome),
            "error_flags": (_FLAGS.take(pa.array(flags)) if flags.any()
                            else pa.repeat(pa.scalar(""), n)),
            "location": _where(redirect, pa.array(loc_of, pa.string()).take(hid)
                               if redirect.any() else None, pa.scalar("")),
            "discovered": discovered,
            "mime_supported": pa.array(mime_ok),
            "phash": phashes,
        }
        kept = [c for c in batch.column_names if c not in cols]
        return pa.Table.from_arrays(
            [batch.column(c) for c in kept] + list(cols.values()),
            names=kept + list(cols))


#: (disposition, status) of each fetch outcome, by precedence
#: (src/crawler.ts:1800-2007); the last is the fallthrough
_OUTCOMES = [
    ("fetchtimeout", STATUS_TIMEOUT),
    ("fetchclienterror", STATUS_FAILED),       # unreachable: code 600
    ("fetchdataerror", STATUS_SPOOLED),        # oversize by header
    ("downloadconditionerror", STATUS_SPOOLED),
    ("downloadprevented", STATUS_DOWNLOADPREVENTED),
    ("", STATUS_HEADERS),                      # unsupported mime, body dropped
    ("fetchdataerror", STATUS_HEADERS),        # oversize body
    ("fetchcomplete", STATUS_DOWNLOADED),
    ("notmodified", STATUS_SPOOLED),
    ("fetchredirect", STATUS_REDIRECTED),
    ("fetch404", STATUS_NOTFOUND),
    ("fetch410", STATUS_NOTFOUND),
    ("fetcherror", STATUS_FAILED),
]
_DISPOSITION = pa.array([d for d, _ in _OUTCOMES], pa.string())
_STATUS = pa.array([s for _, s in _OUTCOMES], pa.string())
_FLAGS = pa.array(["", "cookieerror", "gziperror", "cookieerror,gziperror"],
                  pa.string())
#: the content-length member of a headers JSON built with "" as its value
_LENGTH_HOLE = '"content-length": ""'


def _where(mask: np.ndarray, a, b) -> pa.Array:
    """``a`` where ``mask``, ``b`` elsewhere (arrays or scalars); a
    uniform mask picks one side without a kernel."""
    if not mask.any():
        pick = b
    elif mask.all():
        pick = a
    else:
        return pc.if_else(pa.array(mask), a, b)
    return pa.repeat(pick, len(mask)) if isinstance(pick, pa.Scalar) else pick


def _spread(n: int, rows: np.ndarray, values: pa.Array) -> pa.Array:
    """A length-``n`` array holding ``values`` at ``rows``, null elsewhere."""
    pick = np.full(n, len(values), np.int64)
    pick[rows] = np.arange(len(values))
    return pa.concat_arrays([values, pa.nulls(1, values.type)]).take(pick)

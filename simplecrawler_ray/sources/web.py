"""The synthetic "web" the crawler fetches from.

Two deterministic webs:

* ``ConformanceWeb`` — mirrors the reference's test HTTP server route
  graph (test/util/routes.ts:12-214, test/util/testserver.ts:12-96)
  byte-for-byte where tests pin bodies/counts: robots rules, redirect
  chains, depth subgraph, gzip/deflate, charset documents, 404/410,
  conditional-GET (ETag / Last-Modified), oversize body, cross-host
  robots (ports 3001/3002).  Unknown path => 404 "Page not found."
  exactly like the reference server.

* ``ScaleWeb`` — a parametric page graph for throughput benchmarks:
  ``n_pages`` across ``n_hosts`` with Zipf-skewed host assignment (for
  salting/skew tests), ``out_degree`` deterministic out-links per page
  plus an ``i -> i+1`` ring edge so the graph is fully reachable.

Every page of either web is also an image+caption pair (BASELINE.json
input_hint): ``corpus_row(url)`` yields the Lance/parquet corpus row
(image_id, bytes, w, h, fmt, caption, phash) for that URL, where
``caption`` is the page body text and ``bytes`` a deterministic image.
The fidelity invariant (decoded-pixel allclose / PSNR>=40dB + caption
equality) is checked between fetched rows and this table.
"""

from __future__ import annotations

import hashlib
import struct
import zlib
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import pyarrow as pa

from ..functions.imagecodec import encode_image, phash64
from ..urlnorm import Uri


def url_hash64(url: str) -> int:
    """Canonical 64-bit URL hash (dedup + partition key). blake2b is
    process- and version-stable => checkpoints replay identically."""
    return struct.unpack("<Q", hashlib.blake2b(url.encode("utf-8"), digest_size=8).digest())[0]


@dataclass
class WebResponse:
    code: int
    body: bytes = b""
    content_type: str = "text/html"
    headers: dict = field(default_factory=dict)  # Location, Set-Cookie, Content-Encoding, ETag, ...
    # image+caption pages (the corpus model): body = image payload,
    # caption = the text the crawler parses for out-links
    caption: Optional[str] = None
    # real transports set this from the Content-Length HEADER when the
    # body was not (fully) read — e.g. the streaming oversize abort
    # (crawler.ts:1725-1752); None => len(body)
    content_length_override: Optional[int] = None

    @property
    def content_length(self) -> int:
        if self.content_length_override is not None:
            return self.content_length_override
        return len(self.body)


TIMEOUT = None  # route that never responds

#: a batch's responses, one row per request: ``CorpusWeb.get_many``
#: answers with this table, and the Fetcher gathers a per-row web's
#: ``get`` responses into it.  A null ``code`` is a request that never
#: got an answer (timeout), -1 an unreachable host; ``content_length``
#: is ``WebResponse.content_length``; ``headers`` indexes the batch's
#: distinct header dicts (``get_many``: 0, no headers).
RESPONSE_SCHEMA = pa.schema([
    ("code", pa.int32()), ("body", pa.binary()),
    ("content_type", pa.string()), ("content_length", pa.int64()),
    ("caption", pa.string()), ("headers", pa.int32())])


def _resp(code: int, body: str | bytes = b"", ct: str = "text/html", **headers) -> WebResponse:
    data = body.encode("utf-8") if isinstance(body, str) else body
    return WebResponse(code, data, ct, headers)


def _redir(to: str) -> WebResponse:
    return _resp(301, f"Redirecting you to {to}", "text/plain", Location=to)


def _gzip(s: str) -> bytes:
    return zlib.compress(s.encode(), 6, wbits=31)  # gzip container


def _deflate(s: str) -> bytes:
    return zlib.compress(s.encode(), 6)  # zlib container (HTTP "deflate")


# ISO-8859-1 charset documents (same decode semantics as the reference's
# encoded.html / inline-encoding.html / old-inline-encoding.html fixtures;
# content synthesized here, not copied).
LATIN1_TEXT = "caf\xe9 na\xefve \xe9l\xe8ve"
_ENCODED_BODY = f"<html><body>{LATIN1_TEXT}</body></html>".encode("iso-8859-1")
_INLINE_BODY = f'<html><head><meta charset="iso-8859-1"></head><body>{LATIN1_TEXT}</body></html>'.encode("iso-8859-1")
_OLD_INLINE_BODY = (
    '<html><head><meta http-equiv="Content-Type" content="text/html; charset=iso-8859-1">'
    f"</head><body>{LATIN1_TEXT}</body></html>"
).encode("iso-8859-1")

ETAG = '"3c1ceb-13e84-5893853673580;589c03961f340"'
LASTMOD = "Sun, 19 May 2019 07:11:34 GMT"


class ConformanceWeb:
    """Route graph of the reference test server (multi-host)."""

    def __init__(self):
        self.hosts = {
            "127.0.0.1:3000": self._main_routes(),
            "localhost:3000": self._main_routes(),
            "127.0.0.1:3001": {
                "/robots.txt": _resp(200, "User-agent: *\nDisallow: /disallowed\n"),
                "/disallowed": _resp(200, "This is forbidden crawler fruit"),
            },
            "127.0.0.1:3002": {
                "/robots.txt": _redir("http://example.com/robots.txt"),
            },
        }

    @staticmethod
    def _main_routes() -> dict:
        r: dict[str, Optional[WebResponse]] = {
            "/": _resp(200, "Home. <a href='stage2'>stage2</a> <a href='forbidden'>bad robot!</a>"),
            "/robots.txt": _resp(200, "User-agent: *\nDisallow: /forbidden\nSitemap: /sitemap.xml\n"),
            "/forbidden": _resp(200, "You shouldn't be poking around in here"),
            "/stage2": _resp(200, "Stage2. http://127.0.0.1:3000/stage/3",
                             **{"Set-Cookie": "=test; path=/stage2; domain=test.com"}),
            "/stage/3": _resp(200, "Stage3. <a href='//127.0.0.1:3000/stage/4'>stage4</a>"),
            "/stage/4": _resp(200, "Stage4. <a href='../stage5'>stage5</a>"),
            "/stage5": _redir("/stage6"),
            "/stage6": _resp(200, "<a href='nofollow'>Go to me, but no further!</a>"),
            "/stage7": _resp(200, "Crawl complete!"),
            "/nofollow": _resp(200, "<meta name='robots' content='nofollow'><a href='/stage7'>Don't go here!</a>"),
            "/async-stage1": _resp(200, "http://127.0.0.1:3000/async-stage2"),
            "/async-stage2": _resp(200, "http://127.0.0.1:3000/async-stage3"),
            "/async-stage3": _resp(200, "Complete!"),
            "/timeout": TIMEOUT,
            "/timeout2": TIMEOUT,
            "/domain-redirect": _redir("http://localhost:3000/"),
            "/domain-redirect2": _redir("http://localhost:3000/domain-redirect"),
            "/to-domain-redirect": _resp(200, "<a href='/domain-redirect'>redirect</a>"),
            "/depth/1": _resp(200, "<link rel='stylesheet' href='/css'> Home. <a href='/depth/2'>depth2</a>"),
            "/depth/2": _resp(200, "Depth 2. http://127.0.0.1:3000/depth/3"),
            "/depth/3": _resp(200, "Depth 3. <link rel='stylesheet' href='/css/2'> <link rel='stylesheet' href='/css/4'>"),
            "/css": _resp(200, "/* CSS 1 */ @import url('/css/2'); @font-face { url(/font/1) format('woff'); }", "text/css"),
            "/css/2": _resp(200, "/* CSS 2 */ @import url('/css/3'); .img1 { background-image:url('/img/1'); }", "text/css"),
            "/css/3": _resp(200, "/* CSS 3 */", "text/css"),
            "/css/4": _resp(200, "/* CSS 4 */ .img1 { background-image:url('/img/2'); } @font-face { url(/font/2) format('woff'); }", "text/css"),
            "/img/1": _resp(200, "", "image/png"),
            "/img/2": _resp(200, "", "image/png"),
            "/font/1": _resp(200, "", "font/woff"),
            "/font/2": _resp(200, "", "application/font-woff"),
            "/404": _resp(404, "page not found"),
            "/410": _resp(410, "this page no longer exists!"),
            "/script": _resp(200, "<script src='/not/existent/file.js'></script><script>var foo = 'bar';</script>"
                                  "<a href='/stage2'>stage2</a><script>var bar = 'foo';</script>"),
            "/to/other/port": _resp(200, "<a href='//127.0.0.1:3001/disallowed'>Don't go there!</a>"),
            "/encoded/header": WebResponse(200, _ENCODED_BODY, "text/html; charset=ISO-8859-1", {}),
            "/encoded/inline": WebResponse(200, _INLINE_BODY, "text/html", {}),
            "/encoded/old-inline": WebResponse(200, _OLD_INLINE_BODY, "text/html", {}),
            "/encoded/empty": _resp(200, ""),
            "/compressed/link": WebResponse(200, _gzip("<a href='/compressed/gzip'>Go to gzip</a>"), "text/html",
                                            {"Content-Encoding": "gzip"}),
            "/compressed/gzip": WebResponse(200, _gzip("Yay, you know how to deal with gzip compression!"), "text/html",
                                            {"Content-Encoding": "gzip"}),
            "/compressed/deflate": WebResponse(200, _deflate("Yay, you know how to deal with deflate compression!"),
                                               "text/html", {"Content-Encoding": "deflate"}),
            "/big": WebResponse(200, b"", "text/html", {"__lazy_big__": "17"}),
            "/cookie": _resp(200, "<a href='/stage7'>Link</a>",
                             **{"Set-Cookie": "thing=stuff; expires=Wed, 01 Jan 2031 00:00:00 GMT; path=/; domain=.localhost"}),
            # conditional-GET routes: placeholders — get() computes the
            # actual response from the request headers (routes.ts:150-167)
            "/etag": _resp(200, "", ETag=ETAG),
            "/last-modified": _resp(200, "", **{"Last-Modified": LASTMOD}),
        }
        return r

    def get(self, url: str, request_headers: Optional[dict] = None) -> Optional[WebResponse]:
        """Resolve a canonical URL -> response; None == never responds
        (timeout); unknown host => connection error (WebResponse code 600
        is produced by the fetcher, not here => returns 'unreachable')."""
        u = Uri.parse(url)
        hostport = f"{u.hostname}:{u.port or '80'}"
        routes = self.hosts.get(hostport)
        if routes is None:
            return WebResponse(-1)  # unreachable host -> client error path
        pathq = u.path + (("?" + u.query) if u.query else "")
        # conditional-GET routes (routes.ts:150-167)
        rh = {k.lower(): v for k, v in (request_headers or {}).items()}
        if pathq == "/etag" and hostport in ("127.0.0.1:3000", "localhost:3000"):
            if rh.get("if-none-match") == ETAG:
                return _resp(304, "Not Modified", ETag=ETAG)
            return _resp(200, "", ETag=ETAG)
        if pathq == "/last-modified" and hostport in ("127.0.0.1:3000", "localhost:3000"):
            if rh.get("if-modified-since"):
                return _resp(304, "Not Modified", **{"Last-Modified": LASTMOD})
            return _resp(200, "", **{"Last-Modified": LASTMOD})
        if pathq not in routes:
            return _resp(404, "Page not found.")
        resp = routes[pathq]
        if resp is TIMEOUT:
            return None
        if resp.headers.get("__lazy_big__"):
            # 17 MiB > maxResourceSize body, materialized per request so the
            # web object itself stays small to broadcast
            return _resp(200, bytes(1024 * 1024 * int(resp.headers["__lazy_big__"])))
        return resp

    def urls(self) -> list[str]:
        out = []
        for hostport, routes in self.hosts.items():
            host, _, port = hostport.partition(":")
            portpart = "" if port in ("80", "") else f":{port}"
            for path in routes:
                out.append(f"http://{host}{portpart}{path}")
        return out


_U64_MASK = (1 << 64) - 1


def _splitmix64(x: np.ndarray | int):
    if np.isscalar(x):
        # pure-int scalar path: the numpy scalar version paid an
        # np.errstate context manager per call — measured ~20% of the
        # whole synthetic-web fetch path.  Bit-identical result.
        z = (int(x) + 0x9E3779B97F4A7C15) & _U64_MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64_MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64_MASK
        return np.uint64(z ^ (z >> 31))
    x = x.astype(np.uint64)
    with np.errstate(over="ignore"):
        x = (x + np.uint64(0x9E3779B97F4A7C15)) & np.uint64(0xFFFFFFFFFFFFFFFF)
        z = x
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
    return z


class ScaleWeb:
    """Parametric deterministic page graph for benchmarks.

    host(i): Zipf-skewed via inverse-CDF over n_hosts (exponent ``skew``;
    host 0 is the hot host) — exercises host-bucket salting (SURVEY §4).
    """

    _VOCAB = ("the data web page image crawl link index fetch queue host robot "
              "frontier batch arrow shard caption corpus model train scale "
              "stream block store spill merge round depth hash filter bloom").split()

    def __init__(self, n_pages: int, n_hosts: int = 64, out_degree: int = 4,
                 seed: int = 42, skew: float = 2.0, image_side: int = 24,
                 caption_words: int = 0):
        self.n_pages = n_pages
        self.n_hosts = n_hosts
        self.out_degree = out_degree
        self.seed = seed
        self.skew = skew
        self.image_side = image_side
        self.caption_words = caption_words  # filler text: realistic page sizes

    def host_of(self, i: int) -> int:
        u = int(_splitmix64(np.uint64(i * 2 + self.seed))) / 2**64
        return min(int(self.n_hosts * (u ** self.skew)), self.n_hosts - 1)

    def url_of(self, i: int) -> str:
        return f"http://host{self.host_of(i)}.test/p/{i}"

    def _page_index(self, url: str) -> Optional[int]:
        u = Uri.parse(url)
        if not (u.hostname or "").endswith(".test"):
            return None
        if u.path == "/robots.txt":
            return -1
        if not u.path.startswith("/p/"):
            return None
        try:
            i = int(u.path[3:])
        except ValueError:
            return None
        if not (0 <= i < self.n_pages) or self.url_of(i) != url:
            return None
        return i

    def out_links(self, i: int) -> list[str]:
        links = [self.url_of((i + 1) % self.n_pages)]  # ring edge: reachability
        for j in range(self.out_degree - 1):
            t = int(_splitmix64(np.uint64(self.seed * 1_000_003 + i * 31 + j))) % self.n_pages
            links.append(self.url_of(t))
        return links

    def caption_of(self, i: int) -> str:
        links = "".join(f"<a href='{u}'>l{k}</a> " for k, u in enumerate(self.out_links(i)))
        filler = ""
        if self.caption_words:
            w = _splitmix64(np.arange(self.caption_words, dtype=np.uint64)
                            + np.uint64(i * 104729 + self.seed))
            filler = " ".join(self._VOCAB[int(x) % len(self._VOCAB)] for x in w)
        return f"<html><body>Page {i}. {links}<p>{filler}</p></body></html>"

    def pixels_of(self, i: int) -> np.ndarray:
        s = self.image_side
        g = _splitmix64(np.arange(s * s * 3, dtype=np.uint64) + np.uint64(i * 7919 + self.seed))
        noise = (g & np.uint64(0xFF)).astype(np.float32).reshape(s, s, 3)
        # int64 base: float32 can't represent consecutive ints past 2^24,
        # so pages beyond ~16.7M would collapse to near-identical images
        # (identical for i < 2^24, where float32 was still exact)
        yy, xx = np.mgrid[0:s, 0:s].astype(np.int64)
        base = np.stack([(yy + i) % 256, (xx * 2 + i) % 256,
                         (yy + xx) % 256], axis=2).astype(np.float32)
        return np.clip(0.85 * base + 0.15 * noise, 0, 255).astype(np.uint8)

    def fmt_of(self, i: int) -> str:
        return "png" if i % 2 == 0 else "jpeg"

    def corpus_row(self, i: int) -> dict:
        px = self.pixels_of(i)
        fmt = self.fmt_of(i)
        return {
            "image_id": self.url_of(i),
            "bytes": encode_image(px, fmt, quality=95),
            "w": px.shape[1],
            "h": px.shape[0],
            "fmt": fmt,
            "caption": self.caption_of(i),
            "phash": phash64(px),
        }

    def get(self, url: str, request_headers: Optional[dict] = None) -> Optional[WebResponse]:
        i = self._page_index(url)
        if i is None:
            return _resp(404, "Page not found.")
        if i == -1:
            return _resp(200, "User-agent: *\nDisallow:\n", "text/plain")
        return _resp(200, self.caption_of(i))

    def urls(self) -> list[str]:
        return [self.url_of(i) for i in range(self.n_pages)]

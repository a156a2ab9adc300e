"""Link discovery: extract candidate URLs from a document body.

Parity targets:
* ``DISCOVER_REGEX``        -> ``discoverRegex``       src/crawler.ts:516-552
* ``discover_resources``    -> ``discoverResources``   src/crawler.ts:965-994
* ``clean_expand_resources``-> ``cleanExpandResources`` src/crawler.ts:846-886

The extracted-URL goldens (incl. ordering) are pinned by
test/specs/discovery.unit.spec.ts:22-189 and reproduced in
tests/test_discovery.py.  ``discover_resources`` takes a batch of
documents: the fetch+parse stage (``Fetcher`` in stages/fetch.py,
called by both crawl loops' batch tasks) passes every parsed text of a
batch in one call.  Five of the default extractors run as one
Rust-regex pass each over the whole batch (polars, imported on first
use; the Fetcher hands the texts over as an Arrow column); the rest run
per text where their literal occurs.  ``clean_expand_resources`` runs
per document.  Each absolute href it emits from a fresh parse leaves
that parse's part boundaries in ``HREF_SPANS`` (emptied with the
resolve cache, under one bound), so the candidate stage's
``CanonStore`` builds the href's canonical row from them instead of
parsing the href again.
"""

from __future__ import annotations

import functools
import re
from typing import Callable, Optional

import numpy as np
import pyarrow as pa

from .urlnorm import Uri, clean_url, href_spans, protocol_ok

# Regex extractors (order matters: candidate list order is pinned).
_RE_HREF_SRC_QUOTED = re.compile(r"\s(?:href|src)\s*=\s*(\"|').*?\1", re.I)
_RE_HREF_SRC_UNQUOTED = re.compile(r"\s(?:href|src)\s*=\s*[^\"'\s][^\s>]+", re.I)
_RE_URLFUNC_QUOTED = re.compile(r"\s?url\((\"|').*?\1\)", re.I)
_RE_URLFUNC_UNQUOTED = re.compile(r"\s?url\([^\"')]*?\)", re.I)
_RE_BARE_HTTP = re.compile(r"https?://[^?\s><'\",]+", re.I)
_RE_JAVASCRIPT = re.compile(r"^javascript:\s*[\w$.]+\(['\"][^'\"\s]+", re.I)

_RE_SRCSET = re.compile(r"\ssrcset\s*=\s*(\"|')(.*?)\1")
_RE_META_REFRESH_1 = re.compile(
    r"<meta[^>]*http-equiv\s*=\s*[\"']?refresh[\"']?[^>]*content\s*=\s*[\"'] ?[^\"'>]*url=([^\"'>]*)[\"']?[^>]*>",
    re.I,
)
_RE_META_REFRESH_2 = re.compile(
    r"<meta[^>]*content\s*=\s*[\"']?[^\"'>]*url=([^\"'>]*)[\"']?[^>]*http-equiv\s*=\s*[\"']?refresh[\"']?[^>]*>",
    re.I,
)


def _srcset_extract(text: str) -> list[str]:
    m = _RE_SRCSET.search(text)
    if not m:
        return []
    return [part.strip().split()[0] if part.strip() else "" for part in m.group(2).split(",")]


def _meta_refresh_1(text: str) -> list[str]:
    m = _RE_META_REFRESH_1.search(text)
    return [m.group(1)] if m else []


def _meta_refresh_2(text: str) -> list[str]:
    m = _RE_META_REFRESH_2.search(text)
    return [m.group(1)] if m else []


Extractor = Callable[[str], list[str]]

DISCOVER_REGEX: list[re.Pattern | Extractor] = [
    _RE_HREF_SRC_QUOTED,
    _RE_HREF_SRC_UNQUOTED,
    _RE_URLFUNC_QUOTED,
    _RE_URLFUNC_UNQUOTED,
    _RE_BARE_HTTP,
    _RE_JAVASCRIPT,
    _srcset_extract,
    _meta_refresh_1,
    _meta_refresh_2,
]

# ``DISCOVER_REGEX[:5]`` as Rust-regex (polars) scans of a whole batch.
# Rust's ``regex`` is leftmost-first like ``re``, and each twin finds
# the same matches as its ``re`` pattern on any str once three
# differences are spelled out: Python's str ``\s`` also matches
# U+001C-U+001F; Rust has no back-references, so ``(["']).*?\1`` names
# each quote; ``re.I`` is ``(?i)``.  The rest of the table stays in
# Python: ``^javascript:`` is anchored and cheap, and ``re.I`` folds
# ``i`` with ``ı``/``İ`` where Rust does not.
_WS = r"[\s\x1c-\x1f]"
_NOT_WS = r"\s\x1c-\x1f"  # the same set inside a negated class
_BATCH_PATTERNS = (
    rf"(?i){_WS}(?:href|src){_WS}*={_WS}*(?:\"[^\"\n]*\"|'[^'\n]*')",
    rf"(?i){_WS}(?:href|src){_WS}*={_WS}*[^\"'{_NOT_WS}][^{_NOT_WS}>]+",
    rf"(?i){_WS}?url\((?:\"[^\n]*?\"\)|'[^\n]*?'\))",
    rf"(?i){_WS}?url\([^\"')]*?\)",
    rf"(?i)https?://[^?{_NOT_WS}><'\",]+",
)
# both meta refresh regexes and the meta robots check need this literal
_META_TAG = r"(?i)<meta"
# every text ``_RE_JAVASCRIPT`` can match starts with one of these:
# ``re.I`` may fold a non-ASCII character to j, so those go too
_JAVASCRIPT_HEAD = r"^(?:[jJ]|[^\x00-\x7f])"

_RE_HTML_COMMENT = re.compile(r"<!--([\s\S]+?)-->")
_RE_SCRIPT_TAG = re.compile(r"<script(.*?)>([\s\S]*?)</script>", re.I)
_RE_META_ROBOTS = re.compile(r"<meta(?:\s[^>]*)?\sname\s*=\s*[\"']?robots[\"']?[^>]*>", re.I)
_RE_META_CONTENT = re.compile(r"<meta(?:\s[^>]*)?\scontent\s*=\s*[\"']?([\w\s,]+)[\"']?[^>]*>", re.I)
_RE_NOFOLLOW = re.compile(r"nofollow", re.I)


def _nofollow(text: str) -> bool:
    """The document carries a meta robots tag whose content says nofollow."""
    if not _RE_META_ROBOTS.search(text):
        return False
    m = _RE_META_CONTENT.search(text.lower())
    return bool(m and _RE_NOFOLLOW.search(m.group(1)))


def _extract(text: str, extractors: list[re.Pattern | Extractor]) -> list[str]:
    out: list[str] = []
    for ex in extractors:
        if isinstance(ex, re.Pattern):
            out.extend(ex.findall(text) if ex.groups == 0 else [m.group(0) for m in ex.finditer(text)])
        else:
            out.extend(ex(text))
    return out


@functools.cache
def _scan_exprs() -> list:
    """The batch scan's polars expressions, built once per process: the
    ``_BATCH_PATTERNS`` scans' concat, then the masks of the texts each
    per-text extractor must see."""
    import polars as pl

    t = pl.col("t")
    return [pl.concat_list([t.str.extract_all(p) for p in _BATCH_PATTERNS]),
            t.str.contains(_META_TAG).alias("meta"),
            t.str.contains("srcset", literal=True).alias("srcset"),
            t.str.contains(_JAVASCRIPT_HEAD).alias("js")]


def discover_resources(
    texts: "list[str] | pa.Array",
    *,
    parse_html_comments: bool = True,
    parse_script_tags: bool = True,
    respect_robots_txt: bool = True,
    extractors: Optional[list[re.Pattern | Extractor]] = None,
) -> list[list[str]]:
    """Raw candidate extraction for a batch of documents (a list or an
    Arrow string column): one list per text, in extractor order
    (duplicates retained; cleaning is separate).

    The default table runs its first five extractors as one Rust-regex
    scan each over the whole batch (``_BATCH_PATTERNS``), in one polars
    ``select`` with their concat and the masks of the texts the Python
    tail must see: the javascript extractor (texts that may start with
    ``javascript:``), srcset (where the literal occurs) and the meta
    refresh and meta robots regexes (where ``<meta`` occurs).  An
    explicit ``extractors`` list (the reference's ``discoverRegex``
    override) runs per text as given."""
    if extractors is not None or not (parse_html_comments and parse_script_tags):
        texts = texts if isinstance(texts, list) else texts.to_pylist()
    if not parse_html_comments:
        texts = [_RE_HTML_COMMENT.sub("", t) for t in texts]
    if not parse_script_tags:
        texts = [_RE_SCRIPT_TAG.sub("", t) for t in texts]
    if extractors is not None:
        return [[] if respect_robots_txt and _nofollow(t) else _extract(t, extractors)
                for t in texts]
    if not len(texts):
        return []
    # imported here: the process that plans the crawl imports this
    # module but parses no document, so only the workers pay polars' ~40 MB
    import polars as pl

    # an Arrow column reaches polars without a copy through Python
    column = (pl.Series("t", texts, pl.String) if isinstance(texts, list)
              else pl.from_arrow(texts).alias("t"))
    scan = column.to_frame().select(_scan_exprs())
    out: list[list[str]] = scan.to_series(0).to_list()
    meta, srcset, js = (scan.to_series(k).to_numpy() for k in (1, 2, 3))
    tail = np.flatnonzero(meta | srcset | js)
    docs = ([texts[i] for i in tail] if isinstance(texts, list) else
            texts.take(pa.array(tail)).to_pylist())
    for i, text in zip(tail.tolist(), docs):
        if meta[i] and respect_robots_txt and _nofollow(text):
            out[i] = []
            continue
        found = out[i]
        found += _RE_JAVASCRIPT.findall(text)
        if srcset[i]:
            found += _srcset_extract(text)
        if meta[i]:
            found += _meta_refresh_1(text) + _meta_refresh_2(text)
    return out


def clean_expand_resources(
    candidates: list[str],
    referrer_url: str = "",
    referrer_protocol: Optional[str] = None,
    allowed_protocols=None,
) -> list[str]:
    """Clean + absolutize + normalize + per-document order-preserving dedup."""
    seen: set[str] = set()
    seen_raw: set[str] = set()
    out: list[str] = []
    base = None  # parsed on the first cache miss
    # A raw whose CLEANED form starts with a scheme resolves independently
    # of the referrer (absolute_to is a no-op), so its result is kept in
    # this worker-level cache under (raw, referrer_protocol) — the
    # protocol completes protocol-relative raws.  Every raw is looked up;
    # relative ones are never stored, so they always miss.  Only default
    # protocol filtering is cacheable (the verdict is part of the value).
    cacheable = allowed_protocols is None
    for raw in candidates:
        if not raw:
            continue
        # identical raw extractions (overlapping regexes) clean to the
        # same URL — skip re-parsing them
        if raw in seen_raw:
            continue
        seen_raw.add(raw)
        key = (raw, referrer_protocol)
        if cacheable:
            hit = _ABS_CLEAN_CACHE.get(key, _UNSET)
            if hit is not _UNSET:
                if hit is not None and hit not in seen:
                    seen.add(hit)
                    out.append(hit)
                continue
        url = clean_url(raw, referrer_protocol)
        store = cacheable and _SCHEME_RE.match(url) is not None
        if base is None:
            base = Uri.parse(referrer_url or "")
        try:
            u = Uri.parse(url).absolute_to(base).normalize()
        except (ValueError, UnicodeDecodeError):
            if store:
                _cache_abs(key, None)
            continue
        url = u.href()
        if not url or not protocol_ok(u.protocol or "http", allowed_protocols):
            if store:
                _cache_abs(key, None)
            continue
        if store:
            _cache_abs(key, url)
        spans = href_spans(u, url)
        if spans is not None:
            _make_room()
            HREF_SPANS[url] = spans
        if url not in seen:
            seen.add(url)
            out.append(url)
    return out


# TRULY absolute URLs only: a substring "://" test would cache-key
# relative raws like "?next=http://x.com/" (scheme appears in the
# query), serving one referrer's resolution to every other referrer
_SCHEME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.-]*://")

_ABS_CLEAN_CACHE: dict = {}
_UNSET = object()

#: each absolute href the resolve step emitted -> ``urlnorm.href_spans``
#: of its parse, so the candidate stage builds the href's canonical row
#: without parsing it again (``urlnorm.canon_from_spans``)
HREF_SPANS: dict[str, tuple] = {}
_CACHE_BOUND = 500_000


def _make_room() -> None:
    """Empty the resolve cache and ``HREF_SPANS`` together once either
    passes the bound: one lifetime, so an href the resolve cache answers
    still has its spans when its batch reaches the candidate stage."""
    if len(_ABS_CLEAN_CACHE) > _CACHE_BOUND or len(HREF_SPANS) > _CACHE_BOUND:
        _ABS_CLEAN_CACHE.clear()
        HREF_SPANS.clear()


def _cache_abs(key, value) -> None:
    _make_room()
    _ABS_CLEAN_CACHE[key] = value

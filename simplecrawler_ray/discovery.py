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
use); the rest run per text where their literal occurs.
``clean_expand_resources`` runs per document.
"""

from __future__ import annotations

import re
from typing import Callable, Optional

from .urlnorm import Uri, clean_url, protocol_ok

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


def discover_resources(
    texts: list[str],
    *,
    parse_html_comments: bool = True,
    parse_script_tags: bool = True,
    respect_robots_txt: bool = True,
    extractors: Optional[list[re.Pattern | Extractor]] = None,
) -> list[list[str]]:
    """Raw candidate extraction for a batch of documents: one list per
    text, in extractor order (duplicates retained; cleaning is separate).

    The default table runs its first five extractors as one Rust-regex
    scan each over the whole batch (``_BATCH_PATTERNS``), in one polars
    ``select`` with their concat and the ``<meta``/srcset masks; the
    javascript extractor, srcset (only where the literal occurs) and the
    meta refresh and meta robots regexes (only where ``<meta`` occurs)
    run per text.  An explicit ``extractors`` list (the reference's
    ``discoverRegex`` override) runs per text as given."""
    if not parse_html_comments:
        texts = [_RE_HTML_COMMENT.sub("", t) for t in texts]
    if not parse_script_tags:
        texts = [_RE_SCRIPT_TAG.sub("", t) for t in texts]
    if extractors is not None:
        return [[] if respect_robots_txt and _nofollow(t) else _extract(t, extractors)
                for t in texts]
    if not texts:
        return []
    # imported here: the process that plans the crawl imports this
    # module but parses no document, so only the workers pay polars' ~40 MB
    import polars as pl

    # one select: the scans, their concat and both masks in one collect
    t = pl.col("t")
    scan = pl.DataFrame({"t": texts}, schema={"t": pl.String}).select(
        pl.concat_list([t.str.extract_all(p) for p in _BATCH_PATTERNS]),
        t.str.contains(_META_TAG).alias("meta"),
        t.str.contains("srcset", literal=True).alias("srcset"))
    out: list[list[str]] = []
    for text, found, has_meta, has_srcset in zip(
            texts, *(c.to_list() for c in scan.get_columns())):
        if has_meta and respect_robots_txt and _nofollow(text):
            out.append([])
            continue
        found += _RE_JAVASCRIPT.findall(text)
        if has_srcset:
            found += _srcset_extract(text)
        if has_meta:
            found += _meta_refresh_1(text) + _meta_refresh_2(text)
        out.append(found)
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


def _cache_abs(key, value) -> None:
    if len(_ABS_CLEAN_CACHE) > 500_000:
        _ABS_CLEAN_CACHE.clear()
    _ABS_CLEAN_CACHE[key] = value

"""Link discovery: extract candidate URLs from a document body.

Parity targets:
* ``DISCOVER_REGEX``        -> ``discoverRegex``       src/crawler.ts:516-552
* ``discover_resources``    -> ``discoverResources``   src/crawler.ts:965-994
* ``clean_expand_resources``-> ``cleanExpandResources`` src/crawler.ts:846-886

The extracted-URL goldens (incl. ordering) are pinned by
test/specs/discovery.unit.spec.ts:22-189 and reproduced in
tests/test_discovery.py.  Pure Python; runs per-row inside the
fetch+parse stage (``Fetcher`` in stages/fetch.py, called by both crawl
loops' batch tasks) with regexes compiled once at import time (and thus
once per worker process).
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

# Literals without which a default extractor cannot match: a document
# lacking one skips that scan.  ``url\(`` carries the url() regexes' own
# flag (re.I); the srcset regex is case-sensitive, so a plain substring
# test is exact for it.
_RE_URL_CALL = re.compile(r"url\(", re.I)
_URLFUNC_EXTRACTORS = (_RE_URLFUNC_QUOTED, _RE_URLFUNC_UNQUOTED)


def _unmatchable_defaults(text: str) -> tuple:
    skip: tuple = ()
    if not _RE_URL_CALL.search(text):
        skip += _URLFUNC_EXTRACTORS
    if "srcset" not in text:
        skip += (_srcset_extract,)
    return skip


_RE_HTML_COMMENT = re.compile(r"<!--([\s\S]+?)-->")
_RE_SCRIPT_TAG = re.compile(r"<script(.*?)>([\s\S]*?)</script>", re.I)
_RE_META_ROBOTS = re.compile(r"<meta(?:\s[^>]*)?\sname\s*=\s*[\"']?robots[\"']?[^>]*>", re.I)
_RE_META_CONTENT = re.compile(r"<meta(?:\s[^>]*)?\scontent\s*=\s*[\"']?([\w\s,]+)[\"']?[^>]*>", re.I)
_RE_NOFOLLOW = re.compile(r"nofollow", re.I)


def discover_resources(
    text: str,
    *,
    parse_html_comments: bool = True,
    parse_script_tags: bool = True,
    respect_robots_txt: bool = True,
    extractors: Optional[list[re.Pattern | Extractor]] = None,
) -> list[str]:
    """Raw candidate extraction (duplicates retained; cleaning is separate)."""
    if not parse_html_comments:
        text = _RE_HTML_COMMENT.sub("", text)
    if not parse_script_tags:
        text = _RE_SCRIPT_TAG.sub("", text)
    if respect_robots_txt and _RE_META_ROBOTS.search(text):
        m = _RE_META_CONTENT.search(text.lower())
        if m and _RE_NOFOLLOW.search(m.group(1)):
            return []
    skip: tuple = ()
    if extractors is None:
        extractors = DISCOVER_REGEX
        skip = _unmatchable_defaults(text)
    out: list[str] = []
    for ex in extractors:
        if ex in skip:
            continue
        if isinstance(ex, re.Pattern):
            out.extend(ex.findall(text) if ex.groups == 0 else [m.group(0) for m in ex.finditer(text)])
        else:
            out.extend(ex(text))
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


def discover(
    text: str,
    referrer_url: str = "",
    referrer_protocol: Optional[str] = None,
    **opts,
) -> list[str]:
    """discoverResources + cleanExpandResources fused (the parse-stage UDF)."""
    return clean_expand_resources(
        discover_resources(text, **opts), referrer_url, referrer_protocol
    )

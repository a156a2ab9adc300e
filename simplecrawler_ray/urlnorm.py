"""URL cleaning, parsing, resolution and normalization.

Behavioral parity targets (reference = NovikovEvgeny/simplecrawler):

* ``clean_url``        -> ``cleanURL``            src/crawler.ts:36-54
* ``Uri`` (parse/normalize/absolute_to/href) -> the subset of urijs
  semantics the reference exercises via ``uri(url).absoluteTo(ref)
  .normalize().href()`` (src/crawler.ts:863-866, 932).  urijs is NOT an
  RFC 3986 resolver — it has its own quirks (query-param grouping on
  normalize, ``+`` for spaces in queries, multi-slash collapsing in
  paths) which the reference test goldens pin
  (test/specs/discovery.unit.spec.ts, resourcevalidity.integration.spec.ts:117-206).
* ``process_url``      -> ``processURL``          src/crawler.ts:895-958
* ``protocol_supported`` -> ``protocolSupported`` src/crawler.ts:708-725
* ``domain_valid``     -> ``domainValid``         src/crawler.ts:1003-1065

Pure Python, no Ray dependency: these run row-at-a-time inside
``map_batches`` UDFs (URL parsing is inherently per-string; batching
happens at the Arrow-column level in stages/canonicalize.py).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

QUEUE_ITEM_INITIAL_DEPTH = 1

# --- cleanURL regex table (src/crawler.ts:37-51) ---------------------------
_RE_ATTR_FLUFF = re.compile(r"^(?:\s*href|\s*src)\s*=+\s*", re.I)
_RE_LEAD_WS = re.compile(r"^\s*")
_RE_QUOTED = re.compile(r"^(['\"])(.*)\1$")
_RE_URLFUNC = re.compile(r"^url\((.*)\)", re.I)
_RE_JS = re.compile(r"^javascript:\s*(\w*\(['\"](.*)['\"]\))*.*", re.I)
_RE_PAREN = re.compile(r"^\((.*)\)$")
_RE_AMP = re.compile(r"&amp;", re.I)
_RE_E38 = re.compile(r"&#38;", re.I)
_RE_EX26 = re.compile(r"&#x00026;", re.I)
_RE_EX2F = re.compile(r"&#x2f;", re.I)


def clean_url(url: str, referrer_protocol: Optional[str] = None) -> str:
    """Strip HTML-attribute fluff from a discovered URL.

    ``referrer_protocol`` is the protocol of the page the URL was found
    on; protocol-relative ``//host`` URLs are absolutized against it.
    When the referrer has no protocol the reference produces the literal
    string ``"undefined://..."`` (JS string coercion) — which then fails
    the protocol allowlist; we reproduce that so protocol-relative URLs
    found with no referrer are dropped identically.
    """
    s = _RE_ATTR_FLUFF.sub("", url)
    s = _RE_LEAD_WS.sub("", s)
    s = _RE_QUOTED.sub(lambda m: m.group(2), s, count=1)
    s = _RE_URLFUNC.sub(lambda m: m.group(1), s, count=1)

    m = _RE_JS.match(s)
    if m:
        s = m.group(2) or ""
    s = _RE_QUOTED.sub(lambda m: m.group(2), s, count=1)
    s = _RE_PAREN.sub(lambda m: m.group(1), s, count=1)
    if s.startswith("//"):
        proto = referrer_protocol if referrer_protocol is not None else "undefined"
        s = proto + "://" + s[2:]
    if "&" in s:
        s = _RE_AMP.sub("&", s)
        s = _RE_E38.sub("&", s)
        s = _RE_EX26.sub("&", s)
        s = _RE_EX2F.sub("/", s)
    s = s.split("#", 1)[0]
    return s.strip()


# --- urijs-compatible URI --------------------------------------------------

_PROTOCOL_EXPR = re.compile(r"^[a-z][a-z0-9.+-]*$", re.I)
_WEB_SCHEME_SLASHES = re.compile(r"^(https?|ftp|wss?):[/\\]*", re.I)


def _scheme_fix(m: "re.Match") -> str:
    return m.group(1) + "://"
_DEFAULT_PORTS = {"http": "80", "https": "443", "ftp": "21", "ws": "80", "wss": "443"}

# encodeURIComponent leaves A-Za-z0-9 -_.!~*'() ; urijs' strict variant
# additionally encodes !'()* => only unreserved marks survive.
_UNRESERVED = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_.~"
)
# encodePathSegment un-escapes these back to literals after strict encoding
_PATH_UNESCAPE = {
    "%24": "$", "%26": "&", "%2B": "+", "%2C": ",",
    "%3B": ";", "%3D": "=", "%3A": ":", "%40": "@",
}
_PATH_UNESCAPE_RE = re.compile("%(24|26|2B|2C|3B|3D|3A|40)", re.I)


def _strict_encode(s: str) -> str:
    out = []
    for b in s.encode("utf-8"):
        c = chr(b)
        if c in _UNRESERVED:
            out.append(c)
        else:
            out.append("%%%02X" % b)
    return "".join(out)


_PCT_RE = re.compile("%([0-9A-Fa-f]{2})")


def _decode_uri_component(s: str) -> str:
    """decodeURIComponent: raises on malformed escapes / invalid UTF-8."""
    if "%" not in s:
        return s
    out = bytearray()
    i = 0
    n = len(s)
    while i < n:
        ch = s[i]
        if ch == "%":
            m = _PCT_RE.match(s, i)
            if not m:
                raise ValueError("URI malformed")
            out.append(int(m.group(1), 16))
            i += 3
        else:
            out.extend(ch.encode("utf-8"))
            i += 1
    return out.decode("utf-8")  # raises UnicodeDecodeError on bad sequences


def _encode_path_segment(s: str) -> str:
    enc = _strict_encode(s)
    return _PATH_UNESCAPE_RE.sub(lambda m: _PATH_UNESCAPE["%" + m.group(1).upper()], enc)


def _decode_path_segment(s: str) -> str:
    try:
        d = _decode_uri_component(s)
    except (ValueError, UnicodeDecodeError):
        return s
    # re-escape characters that would change structure if left decoded
    return d.replace("/", "%2F").replace("?", "%3F").replace("#", "%23")


def _recode_path(path: str) -> str:
    return "/".join(_encode_path_segment(_decode_path_segment(seg)) for seg in path.split("/"))


def _decode_query_part(s: str) -> str:
    try:
        return _decode_uri_component(s.replace("+", "%20"))
    except (ValueError, UnicodeDecodeError):
        return s


def _encode_query_part(s: str) -> str:
    return _strict_encode(s).replace("%20", "+")


def parse_query(qs: str) -> dict[str, object]:
    """urijs ``URI.parseQuery``: ordered dict; same-name params grouped
    into lists in first-occurrence position; no '=' => value None."""
    if not qs:
        return {}
    qs = re.sub(r"&+", "&", qs)
    qs = re.sub(r"^\?*&*|&+$", "", qs)
    if not qs:
        return {}
    items: dict[str, object] = {}
    for part in qs.split("&"):
        kv = part.split("=")
        name = _decode_query_part(kv[0])
        value = _decode_query_part("=".join(kv[1:])) if len(kv) > 1 else None
        if name in items:
            cur = items[name]
            if not isinstance(cur, list):
                items[name] = [cur]
            items[name].append(value)  # type: ignore[union-attr]
        else:
            items[name] = value
    return items


def build_query(data: dict[str, object]) -> str:
    """urijs ``URI.buildQuery`` with duplicateQueryParameters=False:
    identical duplicate values for one key are dropped; empty keys dropped."""
    parts: list[str] = []

    def one(key: str, value: object) -> str:
        if value is None:
            return _encode_query_part(key)
        return _encode_query_part(key) + "=" + _encode_query_part(str(value))

    for key, value in data.items():
        if not key:
            continue
        if isinstance(value, list):
            seen: set[str] = set()
            for v in value:
                sv = "null" if v is None else str(v)
                if sv in seen:
                    continue
                seen.add(sv)
                parts.append(one(key, v))
        else:
            parts.append(one(key, value))
    return "&".join(parts)


@dataclass
class Uri:
    """Minimal urijs-compatible URI record.

    ``protocol``/``hostname``/``port``/``query``/``fragment`` of None
    mean "absent" (urijs null); empty string is meaningful for path.
    """

    protocol: Optional[str] = None
    username: Optional[str] = None
    password: Optional[str] = None
    hostname: Optional[str] = None
    port: Optional[str] = None
    path: str = ""
    query: Optional[str] = None
    fragment: Optional[str] = None
    urn: bool = False

    # -- parsing (urijs URI.parse) --
    @classmethod
    def parse(cls, s: str) -> "Uri":
        u = cls()
        s = s.lstrip()  # urijs strips leading whitespace/control chars
        pos = s.find("#")
        if pos > -1:
            u.fragment = s[pos + 1:] or None
            s = s[:pos]
        pos = s.find("?")
        if pos > -1:
            u.query = s[pos + 1:] or None
            s = s[:pos]
        # slashes/backslashes lose meaning after web-protocol schemes
        s = _WEB_SCHEME_SLASHES.sub(_scheme_fix, s)
        if s[:2] == "//":
            u.protocol = None
            s = cls._parse_authority(s[2:], u)
        else:
            pos = s.find(":")
            if pos > -1:
                proto = s[:pos] or None
                if proto and not _PROTOCOL_EXPR.match(proto):
                    pass  # ':' was inside the path; whole string is the path
                elif s[pos + 1: pos + 3].replace("\\", "/") == "//":
                    u.protocol = proto
                    s = cls._parse_authority(s[pos + 3:], u)
                else:
                    u.protocol = proto
                    s = s[pos + 1:]
                    u.urn = True
        u.path = s
        return u

    @staticmethod
    def _parse_authority(s: str, u: "Uri") -> str:
        # userinfo
        end = len(s)
        for i, ch in enumerate(s):
            if ch in "/?#":
                end = i
                break
        auth = s[:end]
        rest = s[end:]
        at = auth.rfind("@")
        if at > -1:
            userinfo = auth[:at]
            auth = auth[at + 1:]
            if ":" in userinfo:
                u.username, _, u.password = userinfo.partition(":")
            else:
                u.username = userinfo or None
        if auth.startswith("["):  # IPv6
            close = auth.find("]")
            u.hostname = auth[: close + 1]
            portpart = auth[close + 1:]
            if portpart.startswith(":"):
                u.port = portpart[1:] or None
        else:
            host, colon, port = auth.partition(":")
            u.hostname = host or None
            if colon:
                u.port = port or None
        return rest

    def clone(self) -> "Uri":
        return Uri(self.protocol, self.username, self.password, self.hostname,
                   self.port, self.path, self.query, self.fragment, self.urn)

    # -- building (urijs URI.build) --
    def href(self) -> str:
        t = ""
        require_abs = False
        if self.protocol:
            t += self.protocol + ":"
        if not self.urn and (t or self.hostname):
            t += "//"
            require_abs = True
        t += self._authority()
        if isinstance(self.path, str):
            # urijs adds "/" for any non-absolute (incl. empty) path when an
            # authority is present — "http://example.com" => ".../" on href()
            if self.path[:1] != "/" and require_abs:
                t += "/"
            t += self.path
        if self.query:
            t += "?" + self.query
        if self.fragment:
            t += "#" + self.fragment
        return t

    def _authority(self) -> str:
        t = ""
        if self.username:
            # emit userinfo as parsed (encoding again would double-encode
            # on re-parse; parse keeps the raw form)
            t += self.username
            if self.password:
                t += ":" + self.password
            t += "@"
        if self.hostname:
            t += self.hostname
            if self.port:
                t += ":" + self.port
        return t

    # -- accessors mirrored from urijs --
    def directory(self) -> str:
        if not self.path and not self.hostname:
            return ""
        if self.path == "/":
            return "/"
        filename = self.path.rsplit("/", 1)[-1] if "/" in self.path else self.path
        end = len(self.path) - len(filename) - 1
        if end >= 0:
            return self.path[:end] or ("/" if self.hostname else "")
        return "/" if self.hostname else ""

    def resource(self) -> str:
        t = self.path or ""
        if self.query:
            t += "?" + self.query
        if self.fragment:
            t += "#" + self.fragment
        return t

    # -- resolution (urijs p.absoluteTo, incl. its quirks) --
    def absolute_to(self, base: "Uri | str") -> "Uri":
        if self.urn:
            raise ValueError("URNs do not have any generally defined hierarchical components")
        if not isinstance(base, Uri):
            base = Uri.parse(base or "")
        resolved = self.clone()
        if resolved.protocol:
            return resolved
        resolved.protocol = base.protocol
        if self.hostname:
            return resolved
        for p in ("username", "password", "hostname", "port"):
            setattr(resolved, p, getattr(base, p))
        if not resolved.path:
            resolved.path = base.path
            if not resolved.query:
                resolved.query = base.query
        else:
            if resolved.path == "..":  # urijs substring(-2) quirk
                resolved.path += "/"
            if resolved.path[:1] != "/":
                basedir = base.directory()
                if not basedir:
                    basedir = "/" if base.path[:1] == "/" else ""
                resolved.path = (basedir + "/" if basedir else "") + resolved.path
                resolved._normalize_path()
        return resolved

    # -- normalization (urijs p.normalize) --
    def normalize(self) -> "Uri":
        if self.protocol:
            self.protocol = self.protocol.lower()
        if self.hostname:
            self.hostname = self.hostname.lower()
        if self.port and self.protocol and _DEFAULT_PORTS.get(self.protocol) == self.port:
            self.port = None
        self._normalize_path()
        if self.query is not None:
            self.query = build_query(parse_query(self.query)) or None
        if self.fragment is not None and not self.fragment:
            self.fragment = None
        return self

    # chars that survive recode unchanged (unreserved + path-unescape set)
    _FAST_PATH_RE = re.compile(r"^[A-Za-z0-9\-._~$&+,;=:@/]*$")
    _DOTSEG_RE = re.compile(r"(^|/)\.\.?(/|$)")

    def _normalize_path(self) -> None:
        path = self.path
        if not path or path == "/":
            return
        if self.urn:
            return
        # fast path: recode is identity and no dot-segments / dup slashes
        if (
            "//" not in path
            and not self._DOTSEG_RE.search(path)
            and self._FAST_PATH_RE.match(path)
        ):
            return
        path = _recode_path(path)
        was_relative = False
        leading_parents = ""
        if path[:1] != "/":
            was_relative = True
            path = "/" + path
        if path[-3:] == "/.." or path[-2:] == "/.":
            path += "/"
        path = re.sub(r"(/(\./)+)|(/\.$)", "/", path)
        path = re.sub(r"/{2,}", "/", path)
        if was_relative:
            m = re.match(r"^(\.\./)+", path[1:])
            leading_parents = m.group(0) if m else ""
        while True:
            m = re.search(r"/\.\.(/|$)", path)
            if not m:
                break
            parent = m.start()
            if parent == 0:
                path = path[3:]
                continue
            pos = path[:parent].rfind("/")
            if pos == -1:
                pos = parent
            path = path[:pos] + path[parent + 3:]
        if was_relative and self._is_relative():
            path = leading_parents + path[1:]
        self.path = path

    def _is_relative(self) -> bool:
        return not self.hostname


# --- processURL -> frontier row fields (src/crawler.ts:895-958) ------------

@dataclass
class CanonOpts:
    strip_querystring: bool = False
    sort_query_parameters: bool = False
    strip_www_domain: bool = False
    url_encoding: str = "unicode"  # or "iso8859" (urijs .iso8859())


_JS_ESCAPE_SAFE = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789@*_+-./")


def _to_iso8859(s: str) -> str:
    """urijs iso8859() = escape(unescape(component)): decode UTF-8
    %-escapes, re-encode with JS escape() semantics (latin-1 %XX,
    %uXXXX beyond, [A-Za-z0-9@*_+-./] literal)."""
    def enc(m):
        try:
            ch = _decode_uri_component(m.group(0))
        except (ValueError, UnicodeDecodeError):
            return m.group(0)
        out = []
        for c in ch:
            o = ord(c)
            if c in _JS_ESCAPE_SAFE:
                out.append(c)
            elif o < 256:
                out.append("%%%02X" % o)
            else:
                out.append("%%u%04X" % o)
        return "".join(out)

    return re.sub(r"(?:%[0-9A-Fa-f]{2})+", enc, s)


@dataclass
class UrlRow:
    url: str
    protocol: str
    host: str
    port: int
    path: str
    uri_path: str
    depth: int
    referrer: str


_RE_WWW = re.compile(r"https?://(www\.).*", re.I)


def process_url(url: str, referrer_url: "str|Uri" = "",
                referrer_depth: int = QUEUE_ITEM_INITIAL_DEPTH - 1,
                opts: CanonOpts | None = None,
                referrer_str: Optional[str] = None) -> Optional[UrlRow]:
    """Canonicalize ``url`` against its referrer; None == reject (urijs choke /
    empty). Mirrors processURL src/crawler.ts:895-958 incl. strip/sort/www
    options; this function defines the canonical form that feeds url_hash.

    ``referrer_url`` may be a pre-parsed ``Uri`` (hot loops resolve many
    candidates against one referrer); pass ``referrer_str`` alongside for
    the stored referrer field, else it is rebuilt via ``href()``.
    """
    opts = opts or CanonOpts()
    if isinstance(referrer_url, Uri):
        if referrer_str is None:
            referrer_str = referrer_url.href()
    else:
        referrer_str = referrer_url
    if not url or not url.strip():
        return None
    try:
        if opts.strip_querystring:
            u0 = Uri.parse(url)
            u0.query = None
            url = u0.href()
        if opts.sort_query_parameters:
            u0 = Uri.parse(url)
            if u0.query is not None:
                data = parse_query(u0.query)
                u0.query = build_query({k: data[k] for k in sorted(data)}) or None
            url = u0.href()
        if opts.strip_www_domain and _RE_WWW.match(url):
            url = url.replace("www.", "", 1)
        new = Uri.parse(url).absolute_to(referrer_url).normalize()
        if opts.url_encoding == "iso8859":
            new.path = _to_iso8859(new.path)
            if new.query:
                new.query = _to_iso8859(new.query)
    except (ValueError, UnicodeDecodeError):
        return None
    port = _port(new.port)
    if port is None:
        return None
    return UrlRow(
        url=new.href(),
        protocol=new.protocol or "http",
        host=new.hostname or "",
        port=port,
        path=new.resource(),
        uri_path=new.path,
        depth=referrer_depth + 1,
        referrer=referrer_str,
    )


def _port(port: Optional[str]) -> Optional[int]:
    """A URI's port as a number (0: none), None when it is not one.  A
    malformed port ("http://h:8o80/") must be a None return like every
    other unparseable URL, not a ValueError escaping into robots or
    candidate processing; an out-of-range one would crash the whole
    candidate batch at the int32 Arrow cast."""
    try:
        n = int(port) if port else 0
    except ValueError:
        return None
    return n if 0 <= n <= 65535 else None


def href_spans(u: Uri, href: str) -> Optional[tuple]:
    """Where ``href`` (``u.href()`` of a normalized absolute URI) holds
    its parts: ``(scheme end, host start, host end, path start, path
    end)``.  None when re-parsing the href could move them (no host)."""
    if not (u.protocol and u.hostname) or u.urn or u.fragment:
        return None
    host = len(u.protocol) + 3
    if u.username:
        host += len(u.username) + 1 + (len(u.password) + 1 if u.password else 0)
    host_end = host + len(u.hostname)
    path = host_end + (len(u.port) + 1 if u.port else 0)
    return (len(u.protocol), host, host_end, path,
            len(href) - (len(u.query) + 1 if u.query else 0))


def canon_from_spans(href: str, spans: tuple) -> Optional[tuple]:
    """``process_url(href)``'s ``(url, protocol, host, port, path,
    uri_path)`` under the default ``CanonOpts``, for an href the resolve
    step built and parsed (``href_spans``): read off the href, without
    parsing it again.  Other options go through ``process_url``."""
    scheme, host, host_end, path, path_end = spans
    port = _port(href[host_end + 1:path])
    return None if port is None else (
        href, href[:scheme], href[host:host_end], port, href[path:],
        href[path:path_end])


# --- predicates ------------------------------------------------------------

ALLOWED_PROTOCOLS = [
    re.compile(r"^http(s)?$", re.I),
    re.compile(r"^(rss|atom|feed)(\+xml)?$", re.I),
]


def protocol_ok(proto: str, allowed=None) -> bool:
    """Allowlist check on an already-extracted protocol."""
    for check in (allowed if allowed is not None else ALLOWED_PROTOCOLS):
        if hasattr(check, "match"):
            if check.match(proto):
                return True
        elif check == proto:
            return True
    return False


def protocol_supported(url: str, allowed=None) -> bool:
    """protocolSupported src/crawler.ts:708-725."""
    try:
        proto = Uri.parse(url).protocol or "http"
    except Exception:
        return False
    return protocol_ok(proto, allowed)


def domain_valid(host: str, crawl_host: str, *, filter_by_domain: bool = True,
                 ignore_www_domain: bool = True, scan_subdomains: bool = False,
                 domain_whitelist: Optional[list[str]] = None) -> bool:
    """domainValid src/crawler.ts:1003-1065."""
    whitelist = domain_whitelist or []
    if ignore_www_domain:
        host = re.sub(r"^www\.", "", host, flags=re.I)

    def in_whitelist(h: str) -> bool:
        for entry in whitelist:
            if h == entry:
                return True
            if ignore_www_domain and h == re.sub(r"^www\.", "", entry, flags=re.I):
                return True
        return False

    def is_subdomain_of(sub: str, parent: str) -> bool:
        sub, parent = sub.lower(), parent.lower()
        if ignore_www_domain:
            sub = re.sub(r"^www.", "", sub, flags=re.I)
            parent = re.sub(r"^www.", "", parent, flags=re.I)
        return sub[::-1][: len(parent)] == parent[::-1]

    return (
        not filter_by_domain
        or host == crawl_host
        or (ignore_www_domain
            and re.sub(r"^www\.", "", crawl_host, flags=re.I) == re.sub(r"^www\.", "", host, flags=re.I))
        or in_whitelist(host)
        or (scan_subdomains and is_subdomain_of(host, crawl_host))
    )

"""Each new link is parsed once: the candidate stage builds a discovered
href's canonical row from the resolve step's parse (``HREF_SPANS``)
under the default options, and under every ``CanonOpts`` combination
the row the store builds must equal ``process_url`` of the href."""

import itertools

import pyarrow as pa
from hypothesis import given, settings, strategies as st

from simplecrawler_ray import discovery
from simplecrawler_ray.discovery import clean_expand_resources, discover_resources
from simplecrawler_ray.stages import candidates
from simplecrawler_ray.stages.candidates import CandidateProcessor, candidate_table
from simplecrawler_ray.urlnorm import CanonOpts, canon_from_spans, process_url

#: the documents of the discovery goldens (tests/test_discovery.py)
_GOLDEN_DOCS = [
    ("  blah blah http://google.com/  blah blah https://fish.com/resource "
     "blah  //example.com", "", None),
    ("  <a href='google.com'>  <img src=\"http://example.com/resource with "
     "spaces.txt\">  url('thingo.com/test.html')", "", None),
    ("<a href='http://example.com/resource?with&amp;query=params&amp;and="
     "entities'>", "", None),
    ("<a href='http://example.com/resource?with&#38;query=params&#x00026;"
     "and=entities'>", "", None),
    ("<a href='http:&#x2f;&#x2f;example.com&#x2f;resource'>", "", None),
    ("<meta http-equiv='refresh' content='0; url=/my/other/page.html'>",
     "http://example.com/", "http"),
    ("<a href='javascript: goToURL(\"/page/one\")'>", "http://example.com/",
     "http"),
    ("<a href='https://example.com/?src=3'>My web page</a>", "", None),
    ("<a href='https://example.com/#section'>x</a><a href='/other/page#b'>"
     "Link</a>", "https://example.com/", "https"),
    ("<img src='pic.png' srcset='https://example.com/pic-200.png, "
     "/pic-400.png 400w, pic-800.png 2x'>", "https://example.com/", "https"),
]

_OPTS = [CanonOpts(*combo) for combo in itertools.product(
    [False, True], [False, True], [False, True], ["unicode", "iso8859"])]

_HOSTS = ["example.com", "WWW.Example.COM", "www.x.org", "[::1]", "[fe80::1",
          "127.0.0.1", "h", "xn--bcher-kva.de", "wwwx.com", "caf\xe9.fr", ""]
_USERINFO = ["", "user@", "user:pass@", "u:p:q@", ":pw@", "www.@", "a%20b@"]
_PORTS = ["", ":80", ":8080", ":443", ":0", ":65535", ":65536", ":08080",
          ":x1", ":"]
_SEGMENTS = ["a", "b", ".", "..", "", "%2e%2E", "%41", "%zz", "%E9", "\xe9",
             "a b", "c+d", "www.", "%2F", "~x", "@", ":", "*", "(", "x.html"]
_QUERIES = ["", "?", "?a=1", "?b=2&a=1&a=1", "?z&y=", "?q=a+b%20c",
            "?%E9=%zz", "?k=\xe9", "?a=1&&b=2", "?src=3#frag"]


@st.composite
def _urls(draw):
    scheme = draw(st.sampled_from(["http://", "https://", "HTTP://", "//",
                                   "http:\\\\", "ftp://", ""]))
    path = "/".join(draw(st.lists(st.sampled_from(_SEGMENTS), max_size=5)))
    lead = draw(st.sampled_from(["/", "", "./", "../"]))
    return (scheme + draw(st.sampled_from(_USERINFO))
            + draw(st.sampled_from(_HOSTS)) + draw(st.sampled_from(_PORTS))
            + lead + path + draw(st.sampled_from(_QUERIES)))


def _expected(href: str, referrer: str, opts: CanonOpts):
    row = process_url(href, referrer, opts=opts)
    return row and (row.url, row.protocol, row.host, row.port, row.path,
                    row.uri_path)


def _cfg(opts: CanonOpts) -> dict:
    return {"strip_querystring": opts.strip_querystring,
            "sort_query_parameters": opts.sort_query_parameters,
            "strip_www_domain": opts.strip_www_domain,
            "url_encoding": opts.url_encoding, "filter_by_domain": False}


def _check(raws: list[str], referrer: str, protocol) -> int:
    """The resolve step's hrefs of ``raws``: their spans read the default
    row, and under every option set the processor's rows (a fresh store,
    so every href is a miss) equal ``process_url``'s."""
    hrefs = clean_expand_resources(raws, referrer, protocol)
    checked = 0
    for href in hrefs:
        spans = discovery.HREF_SPANS.get(href)
        if spans is not None:
            checked += 1
            assert canon_from_spans(href, spans) == _expected(
                href, referrer, CanonOpts()), href
    if not hrefs:
        return checked
    raw = candidate_table([dict(candidate=h, referrer_url=referrer, pos=i)
                           for i, h in enumerate(hrefs)])
    cols = ["url", "protocol", "host", "port", "path", "uri_path"]
    for opts in _OPTS:
        got = CandidateProcessor(_cfg(opts), {})(raw).select(cols).to_pylist()
        want = [w for w in (_expected(h, referrer, opts) for h in hrefs) if w]
        assert [tuple(r[c] for c in cols) for r in got] == want, (hrefs, opts)
    return checked


def test_canon_from_resolved_parts_matches_process_url():
    checked = sum(_check(discover_resources([doc])[0], ref, proto)
                  for doc, ref, proto in _GOLDEN_DOCS)
    assert checked >= 10

    @given(st.lists(_urls(), min_size=1, max_size=6),
           st.sampled_from(["http://ref.com/a/b?c=d", "https://www.r.org/",
                            "http://u@h:81/x/../y", ""]))
    @settings(max_examples=200, deadline=None)
    def drawn(raws, referrer):
        discovery._ABS_CLEAN_CACHE.clear()
        discovery.HREF_SPANS.clear()
        proto = referrer.split(":", 1)[0] if referrer else None
        _check([" href='%s'" % r for r in raws] + raws, referrer, proto)

    drawn()


def test_store_rows_come_from_resolved_parts(monkeypatch):
    """A CanonStore miss on a discovered href fills its row from the
    resolve step's parse under the default options (no ``process_url``);
    under any other options every miss runs ``process_url``.  Either way
    the candidate rows equal those of a store that runs ``process_url``
    on every miss."""
    doc = ("<a href='http://WWW.a.com:80/x/../y?b=2&a=1'>"
           "<a href='https://u:p@b.org/%7Ez/'><a href='/rel/p'>"
           "<a href='//c.net'>")
    referrer = "http://ref.com/d/e"
    discovery.HREF_SPANS.clear()
    hrefs = clean_expand_resources(discover_resources([doc])[0], referrer,
                                   "http")
    raw = candidate_table([dict(candidate=h, referrer_url=referrer, pos=i)
                           for i, h in enumerate(hrefs)])
    for opts in _OPTS:
        calls = []
        real = candidates.process_url
        monkeypatch.setattr(candidates, "process_url",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        got = CandidateProcessor(_cfg(opts), {})(raw)
        assert len(calls) == (0 if opts == CanonOpts() else len(hrefs)), opts
        monkeypatch.setattr(candidates, "HREF_SPANS", {})
        want = CandidateProcessor(_cfg(opts), {})(raw)
        monkeypatch.undo()
        assert got.equals(want), opts
    assert pa.compute.sum(pa.compute.equal(
        got.column("reject_reason"), "")).as_py() == len(hrefs)


def test_href_spans_share_the_resolve_cache_lifetime(monkeypatch):
    """``HREF_SPANS`` and the resolve cache are emptied together under one
    bound, so every href the resolve cache answers still has its spans."""
    monkeypatch.setattr(discovery, "_CACHE_BOUND", 5)
    discovery._ABS_CLEAN_CACHE.clear()
    discovery.HREF_SPANS.clear()
    for k in range(40):
        # absolute raws fill both; relative ones only HREF_SPANS
        raws = ["http://a%d.com/x" % k, "/rel/%d" % k, "/rel2/%d" % k]
        clean_expand_resources(raws, "http://ref.com/", "http")
        hrefs = [v for v in discovery._ABS_CLEAN_CACHE.values() if v]
        assert all(h in discovery.HREF_SPANS for h in hrefs)
        assert len(discovery.HREF_SPANS) <= 6
        assert len(discovery._ABS_CLEAN_CACHE) <= 6

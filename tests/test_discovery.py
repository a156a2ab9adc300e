"""Link-discovery conformance goldens.

Transcribed from reference test/specs/discovery.unit.spec.ts:22-189 —
exact expected URL lists including ordering.
"""

import pytest

from simplecrawler_ray.discovery import discover_resources, clean_expand_resources


def discover(text, url="", protocol=None, **opts):
    return clean_expand_resources(discover_resources([text], **opts)[0], url, protocol)


def test_http_prefixed_urls():
    links = discover(
        "  blah blah http://google.com/  blah blah https://fish.com/resource blah  //example.com"
    )
    assert links == ["http://google.com/", "https://fish.com/resource"]


def test_quoted_attributes():
    links = discover(
        "  <a href='google.com'>  <img src=\"http://example.com/resource with spaces.txt\">  url('thingo.com/test.html')"
    )
    assert len(links) == 4
    assert links[0] == "google.com"
    assert links[1] == "http://example.com/resource%20with%20spaces.txt"
    assert links[2] == "thingo.com/test.html"


def test_unquoted_attributes():
    links = discover(
        "  <a href=google.com>  <img src=http://example.com/resource with spaces.txt>  url(thingo.com/test.html)"
    )
    assert links == ["google.com", "http://example.com/resource", "thingo.com/test.html"]


def test_amp_entity():
    links = discover(
        "<a href='http://example.com/resource?with&amp;query=params&amp;and=entities'>"
    )
    assert links == [
        "http://example.com/resource?with&query=params&and=entities",
        "http://example.com/resource",
    ]


def test_numeric_entities():
    links = discover(
        "<a href='http://example.com/resource?with&#38;query=params&#x00026;and=entities'>"
    )
    assert links == [
        "http://example.com/resource?with&query=params&and=entities",
        "http://example.com/resource",
    ]


def test_slash_entity():
    links = discover("<a href='http:&#x2f;&#x2f;example.com&#x2f;resource'>")
    assert links == ["http://example.com/resource"]


def test_meta_redirect():
    links = discover(
        "<meta http-equiv='refresh' content='0; url=/my/other/page.html'>",
        url="http://example.com/",
    )
    assert links == ["http://example.com/my/other/page.html"]


def test_html_comments_disabled():
    links = discover(
        "  <!-- http://example.com/oneline_comment -->  <a href=google.com>  <!--  http://example.com/resource  <a href=example.com>  -->",
        parse_html_comments=False,
    )
    assert links == ["google.com"]


def test_script_tags_disabled():
    links = discover(
        "  <script>var a = \"<a href='http://example.com/oneline_script'></a>\";</script>  <a href=google.com>  <script type='text/javascript'>  http://example.com/resource  <a href=example.com>  </SCRIPT>",
        parse_script_tags=False,
    )
    assert links == ["google.com"]


def test_quote_paren_encoding():
    links = discover(
        "<a href='example.com/resource?with(parentheses)'>"
        " <a href='example.com/resource?with\"double quotes\"'>"
        " <a href=\"example.com/resource?with'single quotes'\">"
    )
    assert links == [
        "example.com/resource?with%28parentheses%29",
        "example.com/resource?with%22double+quotes%22",
        "example.com/resource?with%27single+quotes%27",
    ]


def test_javascript_links():
    links = discover(
        "<a href='javascript:;'>"
        " <a href='javascript: void(0);'>"
        " <a href='javascript: goToURL(\"/page/one\")'>",
        url="http://example.com/",
    )
    assert links == ["http://example.com/", "http://example.com/page/one"]


def test_src_in_query_not_attr():
    links = discover("<a href='https://example.com/?src=3'>My web page</a>")
    assert links == ["https://example.com/?src=3", "https://example.com/"]


def test_fragment_stripping():
    links = discover(
        "<a href='https://example.com/#section'>My web page</a>"
        "<a href='/other/page#blabla'>Link</a>"
        "<a href='#section'>Section</a>",
        url="https://example.com/",
    )
    assert links == ["https://example.com/", "https://example.com/other/page"]


def test_srcset():
    links = discover(
        "<img src='pic.png' srcset='https://example.com/pic-200.png, /pic-400.png 400w, pic-800.png 2x'>",
        url="https://example.com/",
    )
    assert links == [
        "https://example.com/pic.png",
        "https://example.com/pic-200.png",
        "https://example.com/pic-400.png",
        "https://example.com/pic-800.png",
    ]


def test_nofollow():
    assert discover("<meta name='robots' content='nofollow'><a href='/stage2'>Don't follow me!</a>") == []
    assert discover("<meta name='robots' content='nofollow, noindex'><a href='/stage2'>Don't follow me!</a>") == []


def test_relative_url_with_embedded_scheme_not_cached_cross_referrer():
    """'?next=http://x.com/' is RELATIVE (the scheme is in the query);
    the old substring test cached hostA's resolution and served it to
    every other referrer."""
    from simplecrawler_ray.discovery import clean_expand_resources

    a = clean_expand_resources(["?next=http://x.com/"],
                               "http://hosta.com/page")
    b = clean_expand_resources(["?next=http://x.com/"],
                               "http://hostb.com/page")
    assert a and b
    assert "hosta.com" in a[0] and "hostb.com" in b[0]


def test_candidate_row_cache_not_poisoned_cross_referrer():
    from simplecrawler_ray.stages.candidates import (CandidateProcessor,
                                                     candidate_table)

    proc = CandidateProcessor({"filter_by_domain": False,
                               "respect_robots_txt": False}, {})
    t = candidate_table([
        dict(candidate="?next=http://x.com/",
             referrer_url="http://hosta.com/page", referrer_depth=1,
             parent_seq=0, pos=0),
        dict(candidate="?next=http://x.com/",
             referrer_url="http://hostb.com/page", referrer_depth=1,
             parent_seq=0, pos=1),
    ])
    out = proc(t)
    hosts = sorted(out.column("host").to_pylist())
    assert hosts == ["hosta.com", "hostb.com"]


def test_process_url_rejects_out_of_range_port():
    from simplecrawler_ray.urlnorm import process_url

    assert process_url("http://h.com:99999999999/x",
                       "http://h.com/") is None
    assert process_url("http://h.com:65536/x", "http://h.com/") is None
    row = process_url("http://h.com:65535/x", "http://h.com/")
    assert row is not None and row.port == 65535


# --- worker-level resolve cache: every raw is looked up under
# (raw, referrer_protocol), only scheme-full cleaned URLs are stored ---

def _cold_then_warm(raws, referrer, protocol, **kw):
    from simplecrawler_ray import discovery

    discovery._ABS_CLEAN_CACHE.clear()
    cold = clean_expand_resources(raws, referrer, protocol, **kw)
    warm = clean_expand_resources(raws, referrer, protocol, **kw)
    assert cold == warm
    return cold


def test_resolve_cache_relative_raw_resolves_per_referrer():
    from simplecrawler_ray import discovery

    raws = [" href='/a'", "?next=http://x.com/"]
    a = _cold_then_warm(raws, "http://hosta.com/p/q", "http")
    assert a == ["http://hosta.com/a",
                 "http://hosta.com/p/q?next=http%3A%2F%2Fx.com%2F"]
    # warmed on hosta: hostb must still get its own resolution
    b = clean_expand_resources(raws, "http://hostb.com/r", "http")
    assert b == ["http://hostb.com/a",
                 "http://hostb.com/r?next=http%3A%2F%2Fx.com%2F"]
    assert b == _cold_then_warm(raws, "http://hostb.com/r", "http")
    assert not any((r, "http") in discovery._ABS_CLEAN_CACHE for r in raws)


def test_resolve_cache_protocol_relative_raw_per_protocol():
    raws = [" href='//x.com/a'"]
    assert _cold_then_warm(raws, "http://h.com/", "http") == ["http://x.com/a"]
    # warm from the http referrer, then an https referrer
    clean_expand_resources(raws, "http://h.com/", "http")
    assert clean_expand_resources(raws, "https://h.com/", "https") == [
        "https://x.com/a"]
    assert _cold_then_warm(raws, "https://h.com/", "https") == [
        "https://x.com/a"]


def test_resolve_cache_absolute_raw_same_on_two_referrers():
    from simplecrawler_ray import discovery

    raws = [" href='HTTP://X.com/a/../b?z=1&z=1#frag'", "http://y.com/c"]
    expected = ["http://x.com/b?z=1", "http://y.com/c"]
    assert _cold_then_warm(raws, "http://hosta.com/", "http") == expected
    assert clean_expand_resources(raws, "http://hostb.com/d/e", "http") == expected
    assert _cold_then_warm(raws, "http://hostb.com/d/e", "http") == expected
    assert discovery._ABS_CLEAN_CACHE[(raws[0], "http")] == expected[0]


def test_resolve_cache_bypassed_by_non_default_protocols():
    import re

    from simplecrawler_ray import discovery

    raws = [" href='ftp://x.com/f'", " href='http://x.com/h'"]
    # default allowlist drops ftp and stores both verdicts
    assert _cold_then_warm(raws, "http://h.com/", "http") == ["http://x.com/h"]
    assert discovery._ABS_CLEAN_CACHE[(raws[0], "http")] is None
    ftp_only = [re.compile(r"^ftp$")]
    assert clean_expand_resources(raws, "http://h.com/", "http",
                                  allowed_protocols=ftp_only) == ["ftp://x.com/f"]
    discovery._ABS_CLEAN_CACHE.clear()
    assert _cold_then_warm(raws, "http://h.com/", "http",
                           allowed_protocols=ftp_only) == ["ftp://x.com/f"]
    assert not discovery._ABS_CLEAN_CACHE


# --- batch scan: the default table (five extractors as one Rust-regex
# pass each over the batch) equals the per-text ``re`` loop over the same
# table, on texts built from the pieces where Rust and ``re`` differ ---

_HTML_PIECES = ["url(", "URL(", "Url (", "uRl(", "url((", "srcset", "SRCSET",
                " srcset=", " srcset='", "'", '"', ")", "(", " ", ",", "=",
                "<meta", "<META", "<meta http-equiv='refresh' content='0; url=",
                "<meta name='robots' content='nofollow'>", " href=", " src=",
                " HREF=", "http://a.com/x", "HTTP://b.com/", "/p.png 2x", "x",
                ">", "<a", "\n", "JavaScript:", "javascript:go('", "url(\"a'b\")",
                "url('a\"b')", "'a\nb'", "<!--", "-->", "<script>", "</script>",
                "\u017f", "\u0131", "\u0130", "\u212a", "\x1c", "\x1f", "\x85",
                "\xa0", "\u2028", "\u3000", "\v"]


def _html_like():
    from hypothesis import strategies as st

    return st.lists(st.sampled_from(_HTML_PIECES), max_size=40).map("".join)


def test_batch_scan_matches_per_text_extractors():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from simplecrawler_ray.discovery import DISCOVER_REGEX

    opts = st.fixed_dictionaries({"parse_html_comments": st.booleans(),
                                  "parse_script_tags": st.booleans(),
                                  "respect_robots_txt": st.booleans()})

    @given(st.lists(_html_like(), max_size=8), opts)
    @settings(max_examples=300, deadline=None)
    def check(texts, opts):
        assert discover_resources(texts, **opts) == discover_resources(
            texts, extractors=DISCOVER_REGEX, **opts)

    check()


def test_batch_scan_keeps_each_text_apart():
    texts = ["<a href='/a'>", "", "<meta name='robots' content='nofollow'>"
             "<a href='/b'>", "url(/c) http://d.com/e"]
    assert discover_resources(texts) == [
        [" href='/a'"], [], [], ["url(/c)", "http://d.com/e"]]
    assert discover_resources([]) == []


# --- the Fetcher extracts a batch's links in one call and maps each
# row's back: a mixed batch equals the per-row, per-text reference ---

class _MixedWeb:
    """The conformance routes plus one image+caption (corpus) page."""

    def __init__(self):
        from simplecrawler_ray.sources.web import ConformanceWeb, ScaleWeb

        self.web = ConformanceWeb()
        sw = ScaleWeb(n_pages=8, caption_words=20)
        self.caption_url = "http://127.0.0.1:3000/corpus/3"
        self.caption = sw.caption_of(3)

    def get(self, url, request_headers=None):
        from simplecrawler_ray.sources.web import WebResponse

        if url == self.caption_url:
            return WebResponse(200, b"\x89PNG", "image/png", {},
                               caption=self.caption)
        return self.web.get(url, request_headers)


_MIXED_PATHS = ["/", "/nofollow", "/stage5", "/404", "/img/1", "/corpus/3",
                "/css", "/script", "/stage2", "/depth/3"]


@pytest.mark.parametrize("opts", [
    {},
    {"parse_script_tags": False, "parse_html_comments": False,
     "respect_robots_txt": False},
])
def test_fetcher_batch_discovery_matches_per_row(opts):
    import pyarrow as pa

    from simplecrawler_ray.discovery import DISCOVER_REGEX
    from simplecrawler_ray.stages.fetch import Fetcher
    from simplecrawler_ray.urlnorm import process_url

    rows = [process_url("http://127.0.0.1:3000" + p) for p in _MIXED_PATHS]
    batch = pa.table({"url": [r.url for r in rows],
                      "host": [r.host for r in rows],
                      "path": [r.path for r in rows]})
    out = Fetcher(_MixedWeb(), dict(opts))(batch)
    assert out.column("disposition").to_pylist()[2:4] == ["fetchredirect",
                                                          "fetch404"]
    assert out.column("mime_supported").to_pylist()[4] is False
    want = []
    for url, status, ok, text in zip(
            out.column("url").to_pylist(), out.column("status").to_pylist(),
            out.column("mime_supported").to_pylist(),
            out.column("caption").to_pylist()):
        if status == "downloaded" and ok:
            raw = discover_resources([text], extractors=DISCOVER_REGEX,
                                     **opts)[0]
            want.append(clean_expand_resources(raw, url, "http"))
        else:
            want.append([])
    got = out.column("discovered").to_pylist()
    assert got == want
    # the nofollow page yields nothing only while robots are respected;
    # the caption row's ring and random out-links all come through
    assert (got[1] == []) == opts.get("respect_robots_txt", True)
    assert len(got[5]) >= 2 and got[6] and got[8]

    off = Fetcher(_MixedWeb(), {**opts, "discover": False})(batch)
    assert off.column("discovered").to_pylist() == [[]] * len(rows)

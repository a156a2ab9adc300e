"""Corpus materialization + corpus-backed crawl (the Lance-table path)."""

import numpy as np
import pytest

from simplecrawler_ray.functions.imagecodec import decode_image, psnr
from simplecrawler_ray.pipelines.crawl import CrawlEngine
from simplecrawler_ray.sources.corpus import CorpusReader, CorpusWeb, build_corpus
from simplecrawler_ray.sources.sinks import sanitise_path
from simplecrawler_ray.sources.web import ScaleWeb


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    sw = ScaleWeb(n_pages=60, n_hosts=4, out_degree=3)
    out = str(tmp_path_factory.mktemp("corpus"))
    build_corpus(sw, out, n_buckets=4, rows_per_block=20)
    return sw, out


def test_corpus_reader_lookup(corpus):
    sw, out = corpus
    r = CorpusReader(out, n_buckets=4, max_cached_buckets=2)
    for i in (0, 13, 59):
        row = r.lookup(sw.url_of(i))
        assert row is not None
        assert row["caption"] == sw.caption_of(i)
        dec = decode_image(row["bytes"])
        px = sw.pixels_of(i)
        if row["fmt"] == "png":
            assert np.array_equal(dec, px)
        else:
            assert psnr(px, dec) >= 40.0
    assert r.lookup("http://host0.test/p/99999") is None


def test_corpus_backed_crawl_matches_generator(corpus):
    """CorpusWeb fetch (keyed lookup) == ScaleWeb fetch (generator):
    the crawl over the materialized corpus yields identical captions."""
    sw, out = corpus
    cw = CorpusWeb(out, n_buckets=4)
    eng = CrawlEngine(cw, sw.url_of(0), filter_by_domain=False, seen_shards=2,
                      store_body=False)
    res = eng.run(max_rounds=80)
    t = res.fetched_table()
    caps = dict(zip(t.column("url").to_pylist(), t.column("caption").to_pylist()))
    assert len(res.downloaded_urls()) == 60
    for i in (0, 7, 42):
        assert caps[sw.url_of(i)] == sw.caption_of(i)
    eng.seen.shutdown()


def test_sanitise_path():
    # src/cache-backend-fs.ts:20-69 semantics
    assert sanitise_path("", "") == "index.html"
    assert sanitise_path("/a/b.css", "text/css") == "a/b.css"
    out = sanitise_path("/page?x=1&y=2", "text/html")
    # querystring sha1-hashed, then .html appended (no recognized extension)
    assert out.startswith("page?") and out.endswith(".html")
    assert len(out.split("?")[1]) == 40 + len(".html")
    assert sanitise_path("/dir/", "text/html") == "dir/index.html"
    assert sanitise_path("/about", "text/html") == "about.html"
    assert sanitise_path("/img/1", "image/png") == "img/1.png"
    long = "x" * 260
    assert len(sanitise_path(f"/{long}", "").split("/")[0]) == 40


def test_corpus_reader_missing_bucket_is_a_miss(tmp_path, ray_session):
    """A URL hashing to an empty (never-written) bucket is a 404, not a
    FileNotFoundError out of the fetch task."""
    from simplecrawler_ray.sources.corpus import CorpusReader, build_corpus
    from simplecrawler_ray.sources.web import ScaleWeb

    sw = ScaleWeb(n_pages=5)
    d = str(tmp_path / "corpus")
    build_corpus(sw, d, n_buckets=64, rows_per_block=10)
    rd_ = CorpusReader(d, n_buckets=64)
    # scan urls until one hashes to a bucket with no directory
    import os

    from simplecrawler_ray.sources.web import url_hash64
    missing = {b for b in range(64)
               if not os.path.isdir(os.path.join(d, f"bucket={b}"))}
    assert missing  # 5 pages over 64 buckets must leave gaps
    probe = next(u for u in (f"http://h{i}.test/x" for i in range(1000))
                 if url_hash64(u) % 64 in missing)
    assert rd_.lookup(probe) is None


def _frontier_batch(urls):
    import pyarrow as pa

    from simplecrawler_ray.urlnorm import process_url

    rows = [process_url(u) for u in urls]
    return pa.table({"url": [r.url for r in rows],
                     "host": [r.host for r in rows],
                     "path": [r.path for r in rows]})


class _PerRowWeb:
    """Only the per-row ``get`` of a web, so the Fetcher asks row by row."""

    def __init__(self, web):
        self.get = web.get


@pytest.mark.parametrize("broadcast", [True, False])
def test_get_many_fetch_equals_per_row_get(corpus, broadcast):
    """The Fetcher's batch path (``CorpusWeb.get_many``) yields the same
    fetched table, column for column, as asking ``get`` per row: hits,
    a /robots.txt URL (with and without a query) and 404s."""
    from simplecrawler_ray.stages.fetch import Fetcher

    sw, out = corpus
    cw = CorpusWeb(out, n_buckets=4, max_cached_buckets=2, broadcast=broadcast)
    urls = [sw.url_of(i) for i in (5, 0, 59, 13, 7)]
    urls += ["http://host1.test/robots.txt", "http://host2.test/robots.txt?x=1",
             "http://host0.test/p/99999", "http://nowhere.test/"]
    batch = _frontier_batch(urls)
    cfg = {"phash_fetched": True}
    got = Fetcher(cw, cfg)(batch)
    want = Fetcher(_PerRowWeb(cw), cfg)(batch)
    assert got.column_names == want.column_names
    for name in want.column_names:
        assert got.column(name).equals(want.column(name)), name
    status = got.column("state_code").to_pylist()
    assert status == [200] * 7 + [404] * 2
    assert got.column("caption").to_pylist()[:5] == [
        sw.caption_of(i) for i in (5, 0, 59, 13, 7)]


def test_corrupt_image_is_a_null_phash_not_a_failed_batch():
    """A corpus payload that does not decode (a PNG cut after its
    signature raises struct.error) leaves that row's phash null; the
    other rows still hash and the batch does not fail."""
    from simplecrawler_ray.functions.imagecodec import encode_png, phash64
    from simplecrawler_ray.sources.web import WebResponse
    from simplecrawler_ray.stages.fetch import Fetcher

    good = np.full((8, 8, 3), 90, np.uint8)
    blobs = {"/bad": b"\x89PNG\r\n\x1a\n\x00\x00", "/good": encode_png(good),
             "/junk": b"FJPG\x00\x00\x00"}

    class ImageWeb:
        def get(self, url, request_headers=None):
            return WebResponse(200, blobs[url[url.index("/", 8):]],
                               "image/png", {}, caption="no links")

    batch = _frontier_batch([f"http://h.test{p}" for p in blobs])
    out = Fetcher(ImageWeb(), {"phash_fetched": True})(batch)
    assert out.column("status").to_pylist() == ["downloaded"] * 3
    assert out.column("phash").to_pylist() == [None, phash64(good), None]


@pytest.mark.parametrize("broadcast", [True, False])
@pytest.mark.parametrize("loop", ["run", "run_turbo"])
def test_phash_fetched_crawl_matches_corpus(corpus, tmp_path, broadcast, loop):
    """A ``phash_fetched`` crawl over the corpus, through either loop and
    either corpus handle: every caption equals the corpus, and every
    PNG row's phash equals the corpus phash (PNG decode is lossless)."""
    import glob

    import pyarrow as pa
    import pyarrow.parquet as pq

    sw, out = corpus
    cw = CorpusWeb(out, n_buckets=4, broadcast=broadcast)
    eng = CrawlEngine(cw, sw.url_of(0), filter_by_domain=False, seen_shards=2,
                      store_body=False, batch_size=16, phash_fetched=True)
    if loop == "run":
        t = eng.run(max_rounds=80).fetched_table()
    else:
        eng.run_turbo(str(tmp_path / "sink"), max_rounds=80)
        t = pa.concat_tables(
            pq.ParquetFile(f).read() for f in
            glob.glob(str(tmp_path / "sink" / "**" / "*.parquet"), recursive=True))
    eng.seen.shutdown()
    rows = {u: (c, h) for u, c, h in zip(t.column("url").to_pylist(),
                                         t.column("caption").to_pylist(),
                                         t.column("phash").to_pylist())}
    assert len(rows) == 60
    png = 0
    for i in range(60):
        ref = sw.corpus_row(i)
        caption, phash = rows[sw.url_of(i)]
        assert caption == ref["caption"]
        assert phash is not None
        if ref["fmt"] == "png":
            assert phash == ref["phash"]
            png += 1
    assert 0 < png < 60

"""Corpus materialization + corpus-backed fetching (the "Lance table").

BASELINE.json input_hint specifies a Lance table of image+caption pairs;
the ``lance`` package is not installed in this container, so the corpus
is materialized as hash-bucketed parquet with the exact same schema
(image_id, bytes, w, h, fmt, caption, phash) — swap
``write_parquet``/``read_parquet`` for ``write_lance``/``read_lance``
on a cluster with lance available; nothing else changes.

* ``build_corpus`` — distributed generation: ``ray.data.range(n)`` ->
  ``map_batches`` (each task renders its pages' images + captions) ->
  parquet partitioned by ``bucket = url_hash % n_buckets``.  The bucket
  layout is what makes corpus-side lookup O(1/n_buckets) per fetch.
* ``CorpusReader`` — per-fetcher-actor lookup handle: resolves a URL to
  its corpus row by reading (and LRU-caching) only the bucket files it
  needs.  This is the J4 "fetch = keyed lookup into the corpus" path
  (SURVEY §2.4); the generator-backed ``ScaleWeb.get`` is the
  test-server analogue.  ``BroadcastCorpus`` serves the same lookups
  from object-store bucket tables; both resolve a URL through one
  per-bucket (table, image_id -> row) index.
* ``CorpusWeb`` — the corpus as a web.  ``get`` fetches one URL;
  ``get_many`` fetches a batch: its URLs grouped by bucket, one
  ``Table.take`` of the three response columns per bucket.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .web import ScaleWeb, WebResponse, _resp, url_hash64


def build_corpus(web: ScaleWeb, out_dir: str, n_buckets: int = 16,
                 rows_per_block: int = 1000,
                 file_format: str = "parquet") -> str:
    """Materialize the ScaleWeb corpus as a bucketed table (distributed).

    ``file_format="lance"`` writes a Lance dataset via
    ``Dataset.write_lance`` when the ``lance`` package is available
    (import-gated: this container ships without it, so parquet is the
    default container for the same schema)."""
    import ray.data as rd

    web_copy = web  # small parametric object; serialized into tasks

    def gen(batch: pa.Table) -> pa.Table:
        ids = batch.column("id").to_pylist()
        rows = [web_copy.corpus_row(i) for i in ids]
        t = pa.table({
            "image_id": pa.array([r["image_id"] for r in rows], pa.string()),
            "bytes": pa.array([r["bytes"] for r in rows], pa.binary()),
            "w": pa.array([r["w"] for r in rows], pa.int32()),
            "h": pa.array([r["h"] for r in rows], pa.int32()),
            "fmt": pa.array([r["fmt"] for r in rows], pa.string()),
            "caption": pa.array([r["caption"] for r in rows], pa.string()),
            "phash": pa.array([r["phash"] for r in rows], pa.int64()),
        })
        bucket = pa.array(
            [url_hash64(u) % n_buckets for u in t.column("image_id").to_pylist()],
            pa.int32(),
        )
        return t.append_column("bucket", bucket)

    ds = rd.range(web.n_pages, override_num_blocks=max(1, web.n_pages // rows_per_block))
    ds = ds.map_batches(gen, batch_format="pyarrow", zero_copy_batch=True)
    if file_format == "lance":
        try:
            import lance  # noqa: F401  (import-gated: not in this container)
        except ImportError as e:
            raise ImportError(
                "file_format='lance' needs the `lance` package; this "
                "container ships without it — use the default parquet "
                "container (identical schema/bucketing)") from e
        ds.write_lance(out_dir)
    else:
        ds.write_parquet(out_dir, partition_cols=["bucket"])
    return out_dir


#: a bucket table and its image_id -> row index
_Indexed = tuple[pa.Table, dict[str, int]]


class _BucketedCorpus:
    """Keyed lookup over bucket tables.  A subclass supplies
    ``_bucket(b)``: bucket ``b``'s (table, image_id -> row) index, or
    None for a bucket with no rows."""

    n_buckets: int

    def _bucket(self, b: int) -> Optional[_Indexed]:
        raise NotImplementedError

    def lookup(self, url: str) -> Optional[dict]:
        """``url``'s whole row as a dict, None for a miss."""
        found = self._bucket(url_hash64(url) % self.n_buckets)
        if found is None:
            return None
        names = found[0].column_names
        row = self.take([url], names)[0]
        return None if row is None else dict(zip(names, row))

    def take(self, urls: list[str], columns: list[str]) -> list[Optional[tuple]]:
        """``columns`` of each URL's row, None for a miss: one
        ``Table.take`` and one ``to_pylist`` per column per bucket."""
        out: list[Optional[tuple]] = [None] * len(urls)
        by_bucket: dict[int, list[int]] = {}
        for k, u in enumerate(urls):
            by_bucket.setdefault(url_hash64(u) % self.n_buckets, []).append(k)
        for b, ks in by_bucket.items():
            found = self._bucket(b)
            if found is None:
                continue
            t, index = found
            hits = [(k, index[urls[k]]) for k in ks if urls[k] in index]
            if not hits:
                continue
            rows = t.select(columns).take([i for _, i in hits])
            values = zip(*(rows.column(c).to_pylist() for c in columns))
            for (k, _), row in zip(hits, values):
                out[k] = row
        return out


def _indexed(t: pa.Table) -> _Indexed:
    return t, {u: i for i, u in enumerate(t.column("image_id").to_pylist())}


class CorpusReader(_BucketedCorpus):
    """URL -> corpus row via bucketed-parquet lookup with a per-actor LRU.

    Each fetcher actor holds one; a fetch touches only the one bucket
    directory its url_hash maps to.  ``max_cached_buckets`` bounds actor
    heap (bucket tables are the unit of caching/eviction).
    """

    def __init__(self, corpus_dir: str, n_buckets: int = 16, max_cached_buckets: int = 4):
        self.dir = corpus_dir
        self.n_buckets = n_buckets
        self.max_cached = max_cached_buckets
        self._cache: OrderedDict[int, Optional[_Indexed]] = OrderedDict()

    def _bucket(self, b: int) -> Optional[_Indexed]:
        if b in self._cache:
            self._cache.move_to_end(b)
            return self._cache[b]
        path = os.path.join(self.dir, f"bucket={b}")
        # write_parquet only creates dirs for NON-EMPTY partitions:
        # a URL hashing to an empty bucket is a miss (404), not a
        # FileNotFoundError out of the fetch task
        found = _indexed(pq.read_table(path)) if os.path.isdir(path) else None
        self._cache[b] = found
        while len(self._cache) > self.max_cached:
            self._cache.popitem(last=False)
        return found


_READER_CACHE: dict = {}
_INDEX_CACHE: dict = {}


class BroadcastCorpus(_BucketedCorpus):
    """Object-store-broadcast corpus: each bucket table is ``ray.put``
    once (driver), workers ``ray.get`` it zero-copy from shared memory.

    The right pattern when the corpus fits the cluster's object store
    (Arrow tables are mmapped, NOT copied per worker).  For corpora
    beyond object-store capacity use the parquet ``CorpusReader`` path
    with wave-partitioning by bucket so each task touches few buckets.
    """

    def __init__(self, bucket_refs: dict, n_buckets: int):
        self.bucket_refs = bucket_refs
        self.n_buckets = n_buckets

    @classmethod
    def from_dir(cls, corpus_dir: str, n_buckets: int) -> "BroadcastCorpus":
        import ray

        refs = {}
        for b in range(n_buckets):
            path = os.path.join(corpus_dir, f"bucket={b}")
            if os.path.isdir(path):
                refs[b] = ray.put(pq.read_table(path))
        return cls(refs, n_buckets)

    def _bucket(self, b: int) -> Optional[_Indexed]:
        import ray

        ref = self.bucket_refs.get(b)
        if ref is None:
            return None
        key = ref.hex()
        found = _INDEX_CACHE.get(key)
        if found is None:
            # zero-copy shared-memory read
            found = _INDEX_CACHE[key] = _indexed(ray.get(ref))
        return found


class CorpusWeb:
    """A SyntheticWeb backed by the materialized corpus table: fetching a
    page URL returns its caption as the body (link discovery parses it)
    and exposes the image payload — the distributed analogue of the
    reference's HTTP GET against its test server.

    NOTE: holds a CorpusReader per process (lazy); safe to broadcast —
    only (dir, params) serialize.
    """

    def __init__(self, corpus_dir: str, n_buckets: int = 16,
                 max_cached_buckets: int = 4, broadcast: bool = False):
        self.dir = corpus_dir
        self.n_buckets = n_buckets
        self.max_cached_buckets = max_cached_buckets
        self._reader: Optional[CorpusReader] = None
        self._broadcast: Optional[BroadcastCorpus] = None
        if broadcast:
            self._broadcast = BroadcastCorpus.from_dir(corpus_dir, n_buckets)

    def __getstate__(self):
        return {"dir": self.dir, "n_buckets": self.n_buckets,
                "max_cached_buckets": self.max_cached_buckets,
                "_broadcast": self._broadcast}

    def __setstate__(self, state):
        self.dir = state["dir"]
        self.n_buckets = state["n_buckets"]
        self.max_cached_buckets = state.get("max_cached_buckets", 4)
        self._broadcast = state.get("_broadcast")
        self._reader = None

    def _r(self) -> CorpusReader:
        if self._reader is None:
            # process-wide cache keyed by corpus dir: bucket tables load
            # once per worker process, across engine instances / re-puts
            key = (self.dir, self.n_buckets)
            r = _READER_CACHE.get(key)
            if r is None or r.max_cached < self.max_cached_buckets:
                r = CorpusReader(self.dir, self.n_buckets, self.max_cached_buckets)
                _READER_CACHE.clear()
                _READER_CACHE[key] = r
            self._reader = r
        return self._reader

    def _src(self) -> _BucketedCorpus:
        return self._broadcast if self._broadcast is not None else self._r()

    def get(self, url: str, request_headers: Optional[dict] = None) -> Optional[WebResponse]:
        from ..urlnorm import Uri

        return self.get_many([url], [Uri.parse(url).path])[0]

    def get_many(self, urls: list[str], paths: list[str]) -> list[WebResponse]:
        """The response to each URL of a batch; ``paths`` are the URLs'
        path+query (the frontier's ``path`` column) and decide
        ``/robots.txt``.  Each page is an image+caption pair: body =
        image payload, caption = link text.  Takes no request headers:
        a web may offer ``get_many`` only when its responses do not
        depend on them, as CorpusWeb's do not."""
        rows = self._src().take(urls, ["bytes", "fmt", "caption"])
        out = []
        for path, row in zip(paths, rows):
            if path.partition("#")[0].partition("?")[0] == "/robots.txt":
                out.append(_robots())
            elif row is None:
                out.append(_resp(404, "Page not found."))
            else:
                body, fmt, caption = row
                out.append(WebResponse(200, body, f"image/{fmt}", {},
                                       caption=caption))
        return out

    def image(self, url: str) -> Optional[dict]:
        return self._src().lookup(url)


def _robots() -> WebResponse:
    return _resp(200, "User-agent: *\nDisallow:\n", "text/plain")

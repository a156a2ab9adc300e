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
  per-bucket index: the bucket's ``url_hash`` values sorted, searched
  with numpy, a hit confirmed by its ``image_id``.
* ``CorpusWeb`` — the corpus as a web.  ``get_many`` answers a batch
  with one ``RESPONSE_SCHEMA`` table: the bucket of each URL comes
  from the frontier's ``url_hash`` column, one ``Table.take`` per
  bucket, and the robots.txt and 404 rows are spliced in with one
  ``take`` per column; no ``WebResponse`` is built per row.  ``get`` is
  ``get_many`` of one URL.
"""

from __future__ import annotations

import os
import re
from collections import OrderedDict
from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..schemas import CORPUS_SCHEMA
from .web import RESPONSE_SCHEMA, ScaleWeb, WebResponse, url_hash64


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


#: a bucket table, the ``url_hash`` of its rows sorted, and the row of each
_Indexed = tuple[pa.Table, np.ndarray, np.ndarray]


class _BucketedCorpus:
    """Keyed lookup over bucket tables.  A subclass supplies
    ``_bucket(b)``: bucket ``b``'s ``_Indexed``, or None for a bucket
    with no rows."""

    n_buckets: int

    def _bucket(self, b: int) -> Optional[_Indexed]:
        raise NotImplementedError

    def lookup(self, url: str) -> Optional[dict]:
        """``url``'s whole row as a dict, None for a miss."""
        found = self._bucket(url_hash64(url) % self.n_buckets)
        if found is None:
            return None
        names = found[0].column_names
        hit, rows = self.take(pa.array([url], pa.string()),
                              np.array([url_hash64(url)], np.uint64), names)
        return rows.to_pylist()[0] if len(hit) else None

    def take(self, urls: pa.Array, hashes: np.ndarray, columns: list[str]
             ) -> tuple[np.ndarray, pa.Table]:
        """The positions in ``urls`` found in the corpus and ``columns``
        of their rows, aligned (grouped by bucket).  ``hashes`` are the
        URLs' ``url_hash``: they pick the bucket and are searched in its
        sorted hashes, and a hit must also match its ``image_id``.  One
        ``Table.take`` per bucket."""
        hashes = np.asarray(hashes, np.uint64)
        bucket = (hashes % np.uint64(self.n_buckets)).astype(np.int64)
        names = list(dict.fromkeys(columns + ["image_id"]))
        hits, parts = [], []
        for b in np.unique(bucket).tolist():
            found = self._bucket(b)
            if found is None:
                continue
            t, sorted_h, order = found
            ks = np.flatnonzero(bucket == b)
            pos = np.minimum(np.searchsorted(sorted_h, hashes[ks]),
                             len(sorted_h) - 1)
            match = sorted_h[pos] == hashes[ks]
            hits.append(ks[match])
            parts.append(t.select(names).take(order[pos[match]]))
        if not parts:
            return np.empty(0, np.int64), CORPUS_SCHEMA.empty_table().select(columns)
        hit, rows = np.concatenate(hits), pa.concat_tables(parts)
        same = pc.equal(rows.column("image_id"), urls.take(pa.array(hit)))
        if not pc.all(same).as_py():  # a url_hash collision is no hit
            keep = same.to_numpy(zero_copy_only=False)
            hit, rows = hit[keep], rows.filter(same)
        return hit, rows.select(columns)


def _indexed(t: pa.Table) -> _Indexed:
    h = np.fromiter((url_hash64(u) for u in t.column("image_id").to_pylist()),
                    np.uint64, count=t.num_rows)
    order = np.argsort(h, kind="stable")
    return t, h[order], order


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
        # one chunk (write_parquet writes a file per block): a take
        # then copies from one array, not one per file
        found = (_indexed(pq.read_table(path).combine_chunks())
                 if os.path.isdir(path) else None)
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
                # combined here, once, so workers map one chunk
                # zero-copy instead of combining into their own heaps
                refs[b] = ray.put(pq.read_table(path).combine_chunks())
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
        """``get_many`` of one URL, as a ``WebResponse``.  A robots.txt
        URL, which the driver fetches once per new host, is answered
        before any table is built."""
        from ..urlnorm import Uri

        path = Uri.parse(url).path
        if _ROBOTS_PATH.match(path):
            return WebResponse(200, _ROBOTS_TXT, "text/plain", {})
        row = self.get_many(pa.array([url], pa.string()),
                            pa.array([path], pa.string()),
                            np.array([url_hash64(url)], np.uint64)).to_pylist()[0]
        return WebResponse(row["code"], row["body"], row["content_type"], {},
                           caption=row["caption"])

    def get_many(self, urls: pa.Array, paths: pa.Array,
                 hashes: np.ndarray) -> pa.Table:
        """A batch's responses as one ``RESPONSE_SCHEMA`` table, a row per
        URL.  ``paths`` are the URLs' path+query (the frontier's ``path``
        column) and decide ``/robots.txt``; ``hashes`` are their
        ``url_hash`` (the frontier's column), which ``take`` looks up.
        A hit is an image+caption page: body = image payload, caption =
        link text; any other URL is a 404.  Takes no request headers and
        answers none: a web may offer ``get_many`` only when its
        responses neither depend on request headers nor carry response
        headers, as CorpusWeb's do not."""
        n = len(urls)
        hit, rows = self._src().take(urls, hashes, ["bytes", "fmt", "caption"])
        # each row picks its response: a corpus row, robots.txt or the 404
        pick = np.full(n, len(hit) + 1, np.int64)
        pick[hit] = np.arange(len(hit))
        robots = pc.match_substring_regex(paths, "^" + _ROBOTS_PATH.pattern)
        pick[robots.to_numpy(zero_copy_only=False)] = len(hit)
        pick = pa.array(pick)

        def column(values, robots_value, miss_value, typ):
            return pa.concat_arrays(values.cast(typ).chunks + [pa.array(
                [robots_value, miss_value], typ)]).take(pick)

        body = column(rows.column("bytes"), _ROBOTS_TXT, b"Page not found.",
                      pa.binary())
        return pa.table({
            "code": pa.array(np.where(pick.to_numpy() > len(hit), 404, 200),
                             pa.int32()),
            "body": body,
            "content_type": column(
                pc.binary_join_element_wise("image/", rows.column("fmt"), ""),
                "text/plain", "text/html", pa.string()),
            "content_length": pc.binary_length(body).cast(pa.int64()),
            "caption": column(rows.column("caption"), None, None, pa.string()),
            "headers": pa.repeat(pa.scalar(0, pa.int32()), n),
        }, schema=RESPONSE_SCHEMA)

    def image(self, url: str) -> Optional[dict]:
        return self._src().lookup(url)


_ROBOTS_TXT = b"User-agent: *\nDisallow:\n"
#: a path (+ query) that ``get_many`` answers with ``_ROBOTS_TXT``
_ROBOTS_PATH = re.compile(r"/robots\.txt(?:[?#]|$)")

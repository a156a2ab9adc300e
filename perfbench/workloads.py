"""The three crawl workloads and the reference each one is checked against.

Every input comes from ``ScaleWeb(seed=...)``; the engine receives only
the generated web and seed URLs.  The expected results are computed from
the same generator in pure Python, independently of the engine.
"""

from __future__ import annotations

import glob
import os
from dataclasses import dataclass, field

#: run sizes: "full" for measurement, "tiny" for the self-tests
SIZES = {
    "full": {
        "corpus_fetch": dict(pages=2500, hosts=256),
        "bfs_discover": dict(pages=3000, hosts=64),
        "polite_ckpt": dict(pages=8000, hosts=128, budget=8, rounds=4),
    },
    "tiny": {
        "corpus_fetch": dict(pages=120, hosts=16),
        "bfs_discover": dict(pages=150, hosts=8),
        "polite_ckpt": dict(pages=400, hosts=32, budget=3, rounds=3),
    },
}

BATCH_SIZE = 512
SEEN_SHARDS = 1


@dataclass
class Expected:
    """What a correct crawl of the workload produces."""

    urls: set                 # fetched-URL set
    queueadd: int             # URLs admitted to the frontier
    checked: int              # seen-set checks = queueadd + queueduplicate
    corpus: dict = field(default_factory=dict)  # url -> (caption, phash, fmt)


@dataclass
class Inputs:
    web: object               # what the engine fetches from
    initial_url: str
    seed_urls: list           # pre-seeded frontier ([] = none)
    max_rounds: int
    engine_options: dict
    expected: Expected
    checkpoint: bool = False


def _distinct_links(sw, i: int) -> int:
    return len(set(sw.out_links(i)))


def _engine_options(**extra) -> dict:
    base = dict(filter_by_domain=False, store_body=False,
                seen_shards=SEEN_SHARDS, seen_backend="cuckoo",
                batch_size=BATCH_SIZE, fetch_threads=0,
                track_fetch_order=False)
    base.update(extra)
    return base


def corpus_fetch(seed: int, size: dict, work_dir: str) -> Inputs:
    from simplecrawler_ray.sources.corpus import CorpusWeb, build_corpus
    from simplecrawler_ray.sources.web import ScaleWeb

    import pyarrow.parquet as pq

    n = size["pages"]
    sw = ScaleWeb(n_pages=n, n_hosts=size["hosts"], out_degree=6,
                  seed=seed, image_side=24, caption_words=200)
    corpus_dir = os.path.join(work_dir, "corpus")
    n_buckets = 8
    build_corpus(sw, corpus_dir, n_buckets=n_buckets,
                 rows_per_block=max(1, n // 4))
    web = CorpusWeb(corpus_dir, n_buckets=n_buckets,
                    max_cached_buckets=n_buckets, broadcast=True)
    corpus = {}
    for f in glob.glob(os.path.join(corpus_dir, "bucket=*", "*.parquet")):
        t = pq.read_table(f, columns=["image_id", "caption", "phash", "fmt"])
        for u, c, h, fmt in zip(*(t.column(k).to_pylist()
                                  for k in t.column_names)):
            corpus[u] = (c, h, fmt)
    urls = [sw.url_of(i) for i in range(n)]
    # seed_frontier admits every URL, the crawl's own seed is then a
    # duplicate, and each fetched page checks its distinct out-links
    checked = n + 1 + sum(_distinct_links(sw, i) for i in range(n))
    return Inputs(
        web, urls[0], urls, max_rounds=10,
        engine_options=_engine_options(
            seen_capacity_per_shard=max(1 << 16, 4 * n), phash_fetched=True),
        expected=Expected(set(urls), n, checked, corpus))


def bfs_discover(seed: int, size: dict, work_dir: str) -> Inputs:
    from simplecrawler_ray.sources.web import ScaleWeb

    n = size["pages"]
    sw = ScaleWeb(n_pages=n, n_hosts=size["hosts"], out_degree=8, seed=seed)
    index = {sw.url_of(i): i for i in range(n)}
    seen, frontier, checked = {0}, [0], 1
    while frontier:
        nxt = []
        for i in frontier:
            links = set(sw.out_links(i))
            checked += len(links)
            for u in links:
                j = index[u]
                if j not in seen:
                    seen.add(j)
                    nxt.append(j)
        frontier = nxt
    urls = {sw.url_of(i) for i in seen}
    return Inputs(
        sw, sw.url_of(0), [], max_rounds=1000,
        engine_options=_engine_options(
            seen_capacity_per_shard=max(1 << 16, 4 * n),
            frontier_backend="dataset", checkpoint_seen=True),
        expected=Expected(urls, len(urls), checked),
        checkpoint=True)


def polite_ckpt(seed: int, size: dict, work_dir: str) -> Inputs:
    from simplecrawler_ray.sources.web import ScaleWeb

    n, budget, rounds = size["pages"], size["budget"], size["rounds"]
    sw = ScaleWeb(n_pages=n, n_hosts=size["hosts"], out_degree=6, seed=seed)
    urls = [sw.url_of(i) for i in range(n)]
    # per host, the oldest budget*rounds URLs in seed order are fetched
    taken: dict[int, int] = {}
    fetched = []
    for i in range(n):
        h = sw.host_of(i)
        if taken.get(h, 0) < budget * rounds:
            taken[h] = taken.get(h, 0) + 1
            fetched.append(i)
    checked = n + 1 + sum(_distinct_links(sw, i) for i in fetched)
    return Inputs(
        sw, urls[0], urls, max_rounds=rounds,
        engine_options=_engine_options(
            seen_capacity_per_shard=max(1 << 16, 4 * n),
            frontier_backend="dataset", host_budget_per_round=budget,
            checkpoint_seen=True),
        expected=Expected({urls[i] for i in fetched}, n, checked),
        checkpoint=True)


WORKLOADS = {"corpus_fetch": corpus_fetch, "bfs_discover": bfs_discover,
             "polite_ckpt": polite_ckpt}


def prepare(name: str, seed: int, scale: str, work_dir: str) -> Inputs:
    return WORKLOADS[name](seed, SIZES[scale][name], work_dir)

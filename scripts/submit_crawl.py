"""Cluster entrypoint for the crawl pipeline — the script you hand to
``ray job submit`` on a fixed-size multi-node cluster (north rule):

    ray job submit --working-dir . -- \
        python scripts/submit_crawl.py \
            --seed http://example.com/ \
            --sink /mnt/shared/crawl-out \
            --checkpoint /mnt/shared/crawl-ckpt \
            --host-budget 64 \
            --max-wave-rows 2000000 --seen-backend cuckoo --seen-shards 64

In-sandbox it runs the same job against a local session (RAY_ADDRESS
is honored; ``--synthetic N`` swaps the real HTTP transport for a
ScaleWeb graph of N pages for dry runs).  The job is resumable: point
``--checkpoint`` at the previous run's directory and pass ``--resume``.

Sizing guidance for N-node clusters is in SCALING.md; the sink and
checkpoint directories must be shared storage (each worker writes its
own parquet parts, sink and checkpoint alike).  A checkpoint always
keeps the seen set as a base snapshot plus a url_hash delta; a resume
must use the ``--seen-backend`` and ``--seen-shards`` of the run that
wrote it once a base exists.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

# runnable both from the repo root and as a ray-job working_dir payload
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", required=True)
    ap.add_argument("--sink", required=True)
    ap.add_argument("--checkpoint", default=None)
    ap.add_argument("--resume", action="store_true")
    ap.add_argument("--host-budget", type=int, default=0)
    ap.add_argument("--max-wave-rows", type=int, default=2_000_000)
    ap.add_argument("--max-rounds", type=int, default=10_000)
    ap.add_argument("--seen-backend", default="cuckoo",
                    choices=["exact", "cuckoo"])
    ap.add_argument("--seen-shards", type=int, default=16)
    ap.add_argument("--batch-size", type=int, default=512)
    ap.add_argument("--max-depth", type=int, default=0)
    ap.add_argument("--timeout-ms", type=int, default=300_000)
    ap.add_argument("--user-agent", default="simplecrawler-ray/1.0")
    ap.add_argument("--synthetic", type=int, default=0,
                    help="use a ScaleWeb graph of N pages instead of real HTTP")
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init()  # ray job submit provides the cluster address

    from simplecrawler_ray.pipelines.crawl import CrawlEngine

    if args.synthetic:
        from simplecrawler_ray.sources.web import ScaleWeb

        web = ScaleWeb(n_pages=args.synthetic, n_hosts=max(64, args.synthetic // 256),
                       out_degree=6)
        seed = web.url_of(0)
        extra = dict(filter_by_domain=False, store_body=False)
    else:
        from simplecrawler_ray.sources.http import HttpWeb

        web = HttpWeb(timeout_ms=args.timeout_ms, user_agent=args.user_agent)
        seed = args.seed
        extra = {}

    opts = dict(
        host_budget_per_round=args.host_budget,
        max_wave_rows=args.max_wave_rows,
        seen_backend=args.seen_backend,
        seen_shards=args.seen_shards,
        batch_size=args.batch_size,
        max_depth=args.max_depth,
        user_agent=args.user_agent,
        checkpoint_dir=args.checkpoint,
        **extra,
    )
    if args.resume and args.checkpoint:
        eng = CrawlEngine.resume(web, seed, args.checkpoint,
                                 sink_dir=args.sink,
                                 **{k: v for k, v in opts.items()
                                    if k != "checkpoint_dir"})
    else:
        eng = CrawlEngine(web, seed, **opts)

    t0 = time.time()
    out = eng.run_turbo(args.sink, max_rounds=args.max_rounds)
    dt = time.time() - t0
    out["wall_sec"] = round(dt, 2)
    out["urls_per_sec"] = round(out["fetched"] / dt, 1) if dt else None
    print(json.dumps(out))
    eng.seen.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Traced run: per-layer metrics from driver timings and worker spans.

Layer names follow the engine's modules.  Times are per crawl (the mean
over the traced crawls), in seconds of self time unless named otherwise.
"""

from __future__ import annotations

import math
import os
import shutil
import statistics
import time

from perfbench import tracer

#: counts that should repeat exactly from one crawl to the next
AUDITED_COUNTS = ("crawl.rounds", "turbo.tasks", "turbo.rows", "fetch.rows",
                  "sources.gets", "imagecodec.images", "discovery.links",
                  "candidates.rows_in", "candidates.kept", "seen.keys",
                  "seen.new", "urlnorm.parse", "urlnorm.process_url",
                  "turbo.sink_bytes", "crawl.checkpoint_bytes",
                  "queueadd", "queueduplicate")

#: per-layer metric -> unit, in the order they are reported
UNITS = {
    "crawl.dequeue_s": "s", "crawl.robots_s": "s", "crawl.merge_s": "s",
    "crawl.checkpoint_s": "s", "crawl.checkpoint_mb": "MB",
    "crawl.rounds": "count", "crawl.sched_wait_s": "s",
    "turbo.udf_s": "s", "turbo.self_s": "s", "turbo.sink_write_s": "s",
    "turbo.sink_mb": "MB", "turbo.tasks": "count", "turbo.task_p50_s": "s",
    "turbo.task_p99_s": "s", "turbo.kernel_urls_per_s": "1/s",
    "turbo.ray_efficiency": "ratio",
    "sources.get_s": "s", "sources.gets": "count",
    "imagecodec.decode_s": "s", "imagecodec.phash_s": "s",
    "imagecodec.images": "count",
    "discovery.extract_s": "s", "discovery.resolve_s": "s",
    "discovery.links": "count",
    "fetch.self_s": "s", "fetch.rows": "count",
    "candidates.explode_s": "s", "candidates.canon_s": "s",
    "candidates.rows_in": "count", "candidates.kept_frac": "ratio",
    "urlnorm.parse_per_url": "count",
    "seen.check_s": "s", "seen.keys": "count", "seen.keys_per_s": "1/s",
    "seen.new_frac": "ratio", "seen.overflow": "count",
    "seen.bytes_per_key": "B",
    "trace.urls_per_s_traced": "1/s", "trace.urls_per_s_untraced": "1/s",
    "trace.udf_coverage": "ratio", "trace.wall_coverage": "ratio",
    "trace.exact_counts": "count",
}

#: span name -> the metric that reports its self time
SPAN_METRIC = {
    "turbo.udf": "turbo.self_s", "turbo.sink_write": "turbo.sink_write_s",
    "sources.get": "sources.get_s", "imagecodec.decode": "imagecodec.decode_s",
    "imagecodec.phash": "imagecodec.phash_s",
    "discovery.extract": "discovery.extract_s",
    "discovery.resolve": "discovery.resolve_s", "fetch": "fetch.self_s",
    "candidates.explode": "candidates.explode_s",
    "candidates.canon": "candidates.canon_s", "seen.check": "seen.check_s",
}


def crawl_layers(rec: dict, worker_records: list[dict]) -> dict:
    """One traced crawl -> raw per-layer sums (seconds and counts)."""
    ns = 1e-9
    out = {k: 0.0 for k in SPAN_METRIC.values()}
    counts: dict[str, int] = {}
    task_s = []
    calls: dict[str, int] = {}
    for wr in worker_records:
        for name, (self_ns, total_ns, n) in tracer.self_times(
                wr["spans"]).items():
            out[SPAN_METRIC[name]] += self_ns * ns
            calls[name] = calls.get(name, 0) + n
            if name == "turbo.udf":
                task_s.append(total_ns * ns)
        for k, v in wr["counts"].items():
            counts[k] = counts.get(k, 0) + v
    t = rec["timings"]
    driver = sum(t.get(k, 0.0) for k in ("dequeue", "robots", "merge",
                                         "checkpoint"))
    out.update({
        "crawl.dequeue_s": t.get("dequeue", 0.0),
        "crawl.robots_s": t.get("robots", 0.0),
        "crawl.merge_s": t.get("merge", 0.0),
        "crawl.checkpoint_s": t.get("checkpoint", 0.0),
        "crawl.checkpoint_mb": rec["ckpt_bytes"] / 1e6,
        "crawl.sched_wait_s": rec["wall_s"] - driver - sum(task_s),
        "turbo.udf_s": sum(task_s),
        "turbo.sink_mb": counts.get("turbo.sink_bytes", 0) / 1e6,
    })
    m = rec["metrics"]
    counts.update({
        "crawl.rounds": rec["rounds"], "turbo.tasks": len(task_s),
        "sources.gets": calls.get("sources.get", 0),
        "imagecodec.images": calls.get("imagecodec.decode", 0),
        "crawl.checkpoint_bytes": rec["ckpt_bytes"],
        "queueadd": int(m.get("queueadd", 0)),
        "queueduplicate": int(m.get("queueduplicate", 0)),
        "seen.overflow": int(m.get("seenoverflow", 0)),
    })
    return {"times": out, "counts": counts, "task_s": task_s,
            "wall_s": rec["wall_s"], "driver_s": driver}


def _capture_waves(waves: list) -> tracer.Patch:
    """Keep every wave the driver dequeues (the kernel replays them)."""
    def make(fn):
        def capture(self):
            wave = fn(self)
            if wave.num_rows:
                waves.append((self.round_no, wave))
            return wave
        return capture
    return tracer.replace(
        "simplecrawler_ray.pipelines.crawl:CrawlEngine._dequeue_wave", make)


def kernel_rate(crawler, base: dict, waves: list) -> float:
    """Single-process ``turbo_round_udf`` over the crawl's own batches:
    same waves, same batch size, a fresh seen set primed like the crawl's,
    no Ray task scheduling."""
    from simplecrawler_ray.stages.turbo import turbo_round_udf

    eng = crawler.new_engine()
    eng._seed()
    bs = eng.cfg["batch_size"]
    cfg = dict(base["engine"].cfg)
    robots = dict(base["engine"].robots_cache)
    sink = os.path.join(crawler.work_dir, "kernel")
    rows, busy = 0, 0.0
    try:
        for round_no, wave in waves:
            for o in range(0, wave.num_rows, bs):
                batch = wave.slice(o, bs)
                t0 = time.perf_counter()
                turbo_round_udf(batch, web_ref=crawler.inputs.web,
                                cfg_ref=cfg, robots_ref=robots,
                                seen_shards=eng.seen.shards,
                                round_no=round_no, sink_dir=sink)
                busy += time.perf_counter() - t0
                rows += batch.num_rows
    finally:
        eng.seen.shutdown()
        shutil.rmtree(sink, ignore_errors=True)
    return rows / busy


def seen_footprint(eng) -> float:
    size = eng.seen.size()
    return eng.seen.memory_bytes() / size if size else 0.0


def traced_run(crawler, trace_dir: str, seconds: float, slots: int):
    """Two untraced crawls (the first records its waves), traced crawls
    for ``seconds`` (at least two, for the exact-count audit), then the
    kernel replay of the recorded waves."""
    waves: list = []
    patch = _capture_waves(waves)
    try:
        base = crawler.crawl(keep_engine=True)
    finally:
        patch.restore()
    bytes_per_key = seen_footprint(base["engine"])
    base["engine"].seen.shutdown()
    untraced = [base, crawler.crawl()]
    recs, per_crawl = list(untraced), []
    driver_rec = tracer.Recorder()
    patches = [tracer.wrap_span(
        driver_rec, "simplecrawler_ray.pipelines.crawl:CrawlEngine.run_turbo",
        "crawl")]
    t0 = time.perf_counter()
    try:
        while len(per_crawl) < 2 or time.perf_counter() - t0 < seconds:
            tag = f"t{len(per_crawl):03d}"
            tracer.set_active(trace_dir, tag)
            driver_rec.reset()
            driver_rec.enabled = True
            try:
                rec = crawler.crawl()
            finally:
                driver_rec.enabled = False
                tracer.set_active(trace_dir, "")
            recs.append(rec)
            if rec["timed_out"]:
                break
            # the driver's own span of run_turbo is the crawl wall
            (_n, s0, s1, _p), = [s for s in driver_rec.spans
                                 if s[0] == "crawl"]
            rec["wall_s"] = (s1 - s0) * 1e-9
            per_crawl.append(crawl_layers(
                rec, tracer.read_worker_spans(trace_dir, tag)))
    finally:
        tracer.uninstall(patches)
    if not per_crawl:
        raise RuntimeError("no traced crawl completed")
    base_rate = statistics.median(r.get("urls_per_s", 0.0) for r in untraced)
    kernel = kernel_rate(crawler, base, waves)
    metrics = summarize(per_crawl, recs[len(untraced):], kernel, base_rate,
                        slots, bytes_per_key)
    return recs, metrics


def summarize(per_crawl: list, recs: list, kernel: float, base_rate: float,
              slots: int, bytes_per_key: float) -> dict:
    k = len(per_crawl)
    mean = {}
    for name in per_crawl[0]["times"]:
        mean[name] = sum(c["times"][name] for c in per_crawl) / k
    cnt: dict[str, float] = {}
    for c in per_crawl:
        for name, v in c["counts"].items():
            cnt[name] = cnt.get(name, 0) + v / k
    tasks = sorted(t for c in per_crawl for t in c["task_s"])
    wall = sum(c["wall_s"] for c in per_crawl) / k
    driver = sum(c["driver_s"] for c in per_crawl) / k
    exact = [name for name in AUDITED_COUNTS
             if len({c["counts"].get(name, 0) for c in per_crawl}) == 1]
    traced_rate = statistics.median(r["urls_per_s"] for r in recs
                                    if not r["timed_out"])
    fetched = cnt.get("fetch.rows", 0)
    udf = mean["turbo.udf_s"]
    v = dict(mean)
    v.update({
        "crawl.rounds": cnt.get("crawl.rounds", 0),
        "turbo.tasks": cnt.get("turbo.tasks", 0),
        "turbo.task_p50_s": _rank(tasks, 0.50),
        "turbo.task_p99_s": _rank(tasks, 0.99),
        "turbo.kernel_urls_per_s": kernel,
        "turbo.ray_efficiency": base_rate / (slots * kernel),
        "sources.gets": cnt.get("sources.gets", 0),
        "imagecodec.images": cnt.get("imagecodec.images", 0),
        "discovery.links": cnt.get("discovery.links", 0),
        "fetch.rows": fetched,
        "candidates.rows_in": cnt.get("candidates.rows_in", 0),
        "candidates.kept_frac": (cnt.get("candidates.kept", 0)
                                 / cnt["candidates.rows_in"]
                                 if cnt.get("candidates.rows_in") else 0.0),
        "urlnorm.parse_per_url": ((cnt.get("urlnorm.parse", 0)
                                   + cnt.get("urlnorm.process_url", 0))
                                  / fetched if fetched else 0.0),
        "seen.keys": cnt.get("seen.keys", 0),
        "seen.keys_per_s": (cnt.get("seen.keys", 0) / mean["seen.check_s"]
                            if mean["seen.check_s"] else 0.0),
        "seen.new_frac": (cnt.get("seen.new", 0) / cnt["seen.keys"]
                          if cnt.get("seen.keys") else 0.0),
        "seen.overflow": cnt.get("seen.overflow", 0),
        "seen.bytes_per_key": bytes_per_key,
        "trace.urls_per_s_traced": traced_rate,
        "trace.urls_per_s_untraced": base_rate,
        "trace.udf_coverage": 1.0 - mean["turbo.self_s"] / udf if udf else 0.0,
        "trace.wall_coverage": (driver + udf) / wall if wall else 0.0,
        "trace.exact_counts": len(exact),
    })
    metrics = {name: {"value": float(v[name]), "unit": unit}
               for name, unit in UNITS.items()}
    metrics["_audit"] = exact
    return metrics


def _rank(sorted_vals: list, q: float) -> float:
    """Nearest-rank percentile."""
    if not sorted_vals:
        return 0.0
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]

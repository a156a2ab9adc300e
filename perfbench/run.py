"""Crawl benchmark: one workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload corpus_fetch --seed 1 --seconds 40 --trace 0

Run from the repository root.  ``--trace 0`` repeats fresh crawls of the
workload for ``--seconds`` and reports the end-to-end metrics (throughput
over all the window's crawls); ``--trace 1`` runs one untraced crawl, then
traced crawls for ``--seconds``, then the single-process kernel replay, and
reports the per-layer metrics.  Every crawl's output is checked against
the generator's reference; a violation exits with code 1.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it is the
run record (host, per-crawl figures, exact-count audit).  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import gate, layers, tracer, workloads  # noqa: E402

CRAWL_TIMEOUT_S = 60.0
#: Unix socket paths are limited to 107 bytes; Ray's session adds ~64
MAX_RAY_TEMP_LEN = 40


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=sorted(workloads.SIZES), default="full")
    return p.parse_args(argv)


def logical_cpus(shards: int) -> tuple[int, int]:
    """Fewest logical CPUs that leave one whole CPU for map tasks after
    the seen shards' reservations (with fewer, a crawl never schedules),
    and the number of map tasks that can then run at once."""
    from simplecrawler_ray.state.seen import SeenShard

    reserved = shards * float(SeenShard._default_options.get("num_cpus", 0.25))
    cpus = math.ceil(1 + reserved)
    return cpus, int(cpus - reserved)


def init_ray(num_cpus: int, trace_dir: str | None) -> None:
    import ray
    import ray.data

    # workers import the engine and the tracer from the checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                  if p])
    kw = {}
    if trace_dir:
        os.environ[tracer.TRACE_DIR_ENV] = trace_dir
        kw["runtime_env"] = {
            "worker_process_setup_hook": "perfbench.tracer.install_worker"}
    temp = os.path.join(ROOT, ".rt")
    if len(temp) <= MAX_RAY_TEMP_LEN:
        kw["_temp_dir"] = temp
    logging.getLogger("ray").setLevel(logging.ERROR)
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             logging_level="ERROR", object_store_memory=300 * 1024 * 1024,
             **kw)
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False


def tree_cpu_s() -> float:
    """CPU seconds (user + system) of this process and its live
    descendants: the driver, the Ray daemons it started and their workers.
    Time the hypervisor gave to other guests is not in it."""
    children: dict[int, list[int]] = {}
    ticks: dict[int, int] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                fields = f.read().rpartition(")")[2].split()
        except OSError:  # the process has ended
            continue
        children.setdefault(int(fields[1]), []).append(int(name))
        ticks[int(name)] = int(fields[11]) + int(fields[12])
    todo, total = [os.getpid()], 0
    while todo:
        pid = todo.pop()
        total += ticks.get(pid, 0)
        todo.extend(children.get(pid, ()))
    return total / os.sysconf("SC_CLK_TCK")


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, fs in os.walk(path) for f in fs)


class Crawler:
    """Runs fresh crawls of one workload's inputs and checks each."""

    def __init__(self, inputs, work_dir: str):
        self.inputs = inputs
        self.work_dir = work_dir
        self.n = 0

    def new_engine(self, checkpoint_dir=None):
        from simplecrawler_ray.pipelines.crawl import CrawlEngine

        inp = self.inputs
        opts = dict(inp.engine_options)
        if checkpoint_dir:
            opts["checkpoint_dir"] = checkpoint_dir
        else:
            opts.pop("checkpoint_seen", None)
        eng = CrawlEngine(inp.web, inp.initial_url, **opts)
        eng.seen.size()  # wait for the shard actors: their start is set-up
        if inp.seed_urls:
            eng.seed_frontier(inp.seed_urls)
        return eng

    def crawl(self, check: bool = True, keep_engine: bool = False) -> dict:
        """One crawl on a fresh engine.  Engine build and seeding are the
        crawl's set-up; only ``run_turbo`` is timed."""
        self.n += 1
        tag = f"c{self.n:03d}"
        sink = os.path.join(self.work_dir, tag, "sink")
        ckpt = (os.path.join(self.work_dir, tag, "ckpt")
                if self.inputs.checkpoint else None)
        t0 = time.perf_counter()
        eng = self.new_engine(ckpt)
        setup_s = time.perf_counter() - t0
        box: dict = {}

        def target():
            try:
                box["out"] = eng.run_turbo(
                    sink, max_rounds=self.inputs.max_rounds)
            except Exception as e:  # re-raised below, on the main thread
                box["error"] = e

        th = threading.Thread(target=target, daemon=True)
        cpu0 = tree_cpu_s()
        t1 = time.perf_counter()
        th.start()
        th.join(CRAWL_TIMEOUT_S)
        wall = time.perf_counter() - t1
        # before the seen shard is shut down, while its actor still counts
        cpu = tree_cpu_s() - cpu0
        rec = {"tag": tag, "setup_s": setup_s, "wall_s": wall, "cpu_s": cpu,
               "timed_out": th.is_alive()}
        if rec["timed_out"]:
            rec["violations"] = [f"crawl exceeded {CRAWL_TIMEOUT_S:.0f} s"]
            return rec
        if "error" in box:
            raise box["error"]
        out = box["out"]
        m = out["metrics"]
        rec.update(fetched=out["fetched"], rounds=out["rounds"], metrics=m,
                   timings=dict(eng.timings),
                   urls_per_s=out["fetched"] / wall,
                   failed=gate.failed_ops(m),
                   ckpt_bytes=_dir_bytes(ckpt) if ckpt else 0)
        rec["violations"] = (gate.check(m, sink, self.inputs.expected)
                             if check else [])
        if keep_engine:
            rec["engine"] = eng
        else:
            eng.seen.shutdown()
        shutil.rmtree(os.path.join(self.work_dir, tag), ignore_errors=True)
        return rec

    def warm(self) -> dict:
        """Sacrificial crawl of the same input: starts the worker pool and
        fills the per-worker caches the timed crawls then find warm."""
        return self.crawl(check=False)


def steal_s() -> float:
    """CPU time the hypervisor has given to other guests, over all CPUs."""
    with open("/proc/stat") as f:
        ticks = int(f.readline().split()[8])
    return ticks / os.sysconf("SC_CLK_TCK")


def window_rate(recs: list[dict], per: str = "wall_s") -> float:
    """URLs fetched over the summed crawl seconds (``wall_s`` or
    ``cpu_s``) of the window's completed crawls.

    The shared host's speed switches within seconds; a median of per-crawl
    rates jumps with whichever speed most crawls happened to get, while
    the ratio of sums weighs every second of the window alike."""
    done = [r for r in recs if not r["timed_out"]]
    secs = sum(r[per] for r in done)
    return sum(r["fetched"] for r in done) / secs if secs else 0.0


def nproc() -> int:
    """What ``nproc`` prints (it honours OMP_NUM_THREADS)."""
    try:
        return int(subprocess.run(["nproc"], capture_output=True, text=True,
                                  timeout=10).stdout)
    except (OSError, ValueError, subprocess.SubprocessError):
        return len(os.sched_getaffinity(0))


def run_timed(crawler: Crawler, seconds: float) -> list[dict]:
    """Fresh crawls until the window is used (at least one)."""
    recs = []
    t0 = time.perf_counter()
    while not recs or time.perf_counter() - t0 < seconds:
        rec = crawler.crawl()
        recs.append(rec)
        if rec["timed_out"]:
            break
    return recs


def tally(inputs, recs: list[dict]) -> tuple[int, int]:
    attempted = failed = 0
    for r in recs:
        if r["timed_out"]:
            attempted += len(inputs.expected.urls)
            failed += len(inputs.expected.urls)
        else:
            attempted += int(r["metrics"].get("fetchstart", 0))
            failed += r["failed"]
    return attempted, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    load_start = list(os.getloadavg())
    steal_start = steal_s()
    cpus, slots = logical_cpus(workloads.SEEN_SHARDS)  # needs the engine
    run_dir = os.path.join(ROOT, ".bench_out", f"run-{os.getpid()}")
    work_dir = os.path.join(run_dir, "work")
    trace_dir = os.path.join(run_dir, "trace") if args.trace else None
    os.makedirs(work_dir, exist_ok=True)
    if trace_dir:
        os.makedirs(trace_dir, exist_ok=True)
    import ray

    try:
        t0 = time.perf_counter()
        init_ray(cpus, trace_dir)
        ray_init_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        inputs = workloads.prepare(args.workload, args.seed, args.scale,
                                   work_dir)
        input_s = time.perf_counter() - t0
        crawler = Crawler(inputs, work_dir)
        t0 = time.perf_counter()
        warm = crawler.warm()
        warm_s = time.perf_counter() - t0
        if warm["timed_out"]:
            recs, metrics, audit = [warm], {}, None
        elif args.trace:
            recs, metrics = layers.traced_run(crawler, trace_dir, args.seconds,
                                              slots)
            audit = metrics.pop("_audit")
        else:
            recs = run_timed(crawler, args.seconds)
            audit = None
    finally:
        ray.shutdown()
        shutil.rmtree(run_dir, ignore_errors=True)
        shutil.rmtree(os.path.join(ROOT, ".rt"), ignore_errors=True)
    done = [r for r in recs if not r["timed_out"]]
    engine_s = statistics.median(r["setup_s"] for r in recs)
    setup_s = ray_init_s + input_s + warm_s + engine_s
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed = tally(inputs, recs)
    violations = [f"{r['tag']}: {v}" for r in recs for v in r["violations"]
                  if not r["timed_out"]]
    if not args.trace:
        metrics = {
            "urls_per_cpu_s": {"value": window_rate(recs, "cpu_s"),
                               "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "driver_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "scale": args.scale,
        "host": {"nproc": nproc(),
                 "cpus_available": len(os.sched_getaffinity(0)),
                 "logical_cpus": cpus, "seen_shards": workloads.SEEN_SHARDS,
                 "loadavg_start": load_start,
                 "loadavg_end": list(os.getloadavg()),
                 "steal_s": steal_s() - steal_start},
        "setup": {"ray_init_s": ray_init_s, "input_s": input_s,
                  "warm_s": warm_s, "engine_median_s": engine_s},
        "crawls": [{k: r.get(k) for k in ("tag", "fetched", "rounds",
                                          "wall_s", "cpu_s", "urls_per_s",
                                          "setup_s", "timed_out")}
                   for r in recs],
        # traced runs report it per kind of crawl, as trace.urls_per_s_*
        "urls_per_s": None if args.trace else window_rate(recs),
        "fail_frac": failed / attempted if attempted else 1.0,
        "exact_counts": audit,
        "violations": violations,
    }
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"{args.workload} urls_per_s = {record['urls_per_s']:.6g} 1/s")
    print(f"{args.workload} fail_frac = {record['fail_frac']:.6g} "
          f"({failed}/{attempted})")
    for v in violations:
        print(f"GATE VIOLATION {v}", file=sys.stderr)
    print(json.dumps(record))
    result = {"correct": not violations and bool(done),
              "attempted": max(1, attempted), "failed": failed,
              "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())

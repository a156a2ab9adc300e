"""Span tracer that wraps the engine's public functions from outside.

The engine is not edited.  ``wrap_span`` and ``wrap_count`` replace a
named attribute (module function, method, classmethod) with a wrapper
that records a span ``[name, start_ns, end_ns, parent]`` per call, plus
counters computed from the call's arguments and result, or only counts
calls.  Each returns a ``Patch``; ``uninstall`` puts every original
object back.

Two places install wrappers:

* the driver, around ``CrawlEngine.run_turbo`` (the crawl root) and the
  wave dequeue;
* every Ray worker, through ``install_worker``, which the benchmark
  passes to ``ray.init`` as the ``worker_process_setup_hook``.  Worker
  recording is switched per ``turbo_round_udf`` call by a sentinel file
  (``<trace dir>/active`` holds the crawl's tag); when a root call ends,
  its spans and counts are appended as one JSON line to
  ``<trace dir>/<tag>/spans-<pid>.jsonl``.

Recording assumes one thread per process runs the wrapped code, which
holds with ``fetch_threads=0``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"
ACTIVE_FILE = "active"


class Recorder:
    """In-memory span and counter store of one process."""

    def __init__(self):
        self.enabled = False
        self.spans: list = []   # [name, start_ns, end_ns, parent_index]
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = {}
        self._stack = []

    def count(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(n)

    def call(self, name: str, fn, args, kwargs, counter=None):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        span = [name, 0, 0, parent]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = time.perf_counter_ns()
        try:
            out = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter_ns()
            self._stack.pop()
        if counter is not None:
            for k, v in counter(args, kwargs, out).items():
                self.count(k, v)
        return out


def self_times(spans: list) -> dict[str, list]:
    """Per span name: ``[self_ns, total_ns, calls]``.  A span's self time
    is its duration minus the durations of its direct children."""
    child_ns = [0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    out: dict[str, list] = {}
    for i, (name, t0, t1, _parent) in enumerate(spans):
        acc = out.setdefault(name, [0, 0, 0])
        acc[0] += (t1 - t0) - child_ns[i]
        acc[1] += t1 - t0
        acc[2] += 1
    return out


class Patch:
    """One wrapped attribute: where it lives and what it was."""

    def __init__(self, owner, attr: str):
        self.owner = owner
        self.attr = attr
        # the raw descriptor (classmethod, function) — restored as is
        self.original = (owner.__dict__[attr] if isinstance(owner, type)
                         else getattr(owner, attr))

    def restore(self) -> None:
        setattr(self.owner, self.attr, self.original)


def resolve(target: str):
    """``"pkg.mod:Attr.sub"`` -> (owner object, final attribute name)."""
    mod_name, _, path = target.partition(":")
    owner = importlib.import_module(mod_name)
    parts = path.split(".")
    for p in parts[:-1]:
        owner = getattr(owner, p)
    return owner, parts[-1]


def replace(target: str, make) -> Patch:
    """Set ``target`` to ``make(original_function)``, keeping a classmethod
    a classmethod; returns the ``Patch`` that undoes it."""
    owner, attr = resolve(target)
    patch = Patch(owner, attr)
    orig = patch.original
    is_cm = isinstance(orig, classmethod)
    fn = orig.__func__ if is_cm else orig
    wrapper = functools.wraps(fn)(make(fn))
    setattr(owner, attr, classmethod(wrapper) if is_cm else wrapper)
    return patch


def wrap_span(rec: Recorder, target: str, name: str, counter=None) -> Patch:
    def make(fn):
        def wrapper(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            return rec.call(name, fn, args, kwargs, counter)
        return wrapper
    return replace(target, make)


def wrap_count(rec: Recorder, target: str, key: str) -> Patch:
    """Count calls only (no span): for hot, tiny functions."""
    def make(fn):
        def wrapper(*args, **kwargs):
            if rec.enabled:
                rec.counts[key] = rec.counts.get(key, 0) + 1
            return fn(*args, **kwargs)
        return wrapper
    return replace(target, make)


def uninstall(patches: list) -> None:
    for p in reversed(patches):
        p.restore()


# --------------------------------------------------------------- layers


def _kept(out) -> int:
    import pyarrow.compute as pc

    return int(pc.sum(pc.equal(out.column("reject_reason"), "")).as_py() or 0)


class _SinkParquet:
    """Stand-in for ``pyarrow.parquet`` inside stages/turbo.py, so only the
    turbo sink's ``write_table`` is timed (and not every parquet write
    in the worker)."""

    def __init__(self, real, rec: Recorder):
        self._real = real
        self._rec = rec

    def write_table(self, table, where, *a, **kw):
        rec = self._rec
        if not rec.enabled:
            return self._real.write_table(table, where, *a, **kw)

        def sized(args, kwargs, out):
            return {"turbo.sink_bytes": os.path.getsize(where)}

        return rec.call("turbo.sink_write", self._real.write_table,
                        (table, where) + a, kw, sized)

    def __getattr__(self, name):
        return getattr(self._real, name)


#: worker-side layers: (target, span name, counter)
WORKER_SPANS = [
    ("simplecrawler_ray.stages.fetch:Fetcher.__call__", "fetch",
     lambda a, k, o: {"fetch.rows": a[1].num_rows}),
    ("simplecrawler_ray.sources.web:ScaleWeb.get", "sources.get", None),
    ("simplecrawler_ray.sources.corpus:CorpusWeb.get", "sources.get", None),
    ("simplecrawler_ray.functions.imagecodec:decode_image",
     "imagecodec.decode", None),
    ("simplecrawler_ray.functions.imagecodec:phash64_batch",
     "imagecodec.phash", None),
    ("simplecrawler_ray.stages.fetch:discover_resources",
     "discovery.extract", None),
    ("simplecrawler_ray.stages.fetch:clean_expand_resources",
     "discovery.resolve", lambda a, k, o: {"discovery.links": len(o)}),
    ("simplecrawler_ray.stages.turbo:explode_discovered",
     "candidates.explode", None),
    ("simplecrawler_ray.stages.candidates:CandidateProcessor.__call__",
     "candidates.canon",
     lambda a, k, o: {"candidates.rows_in": a[1].num_rows,
                      "candidates.kept": _kept(o)}),
    ("simplecrawler_ray.state.seen:scatter_check_and_add", "seen.check",
     lambda a, k, o: {"seen.keys": len(o), "seen.new": int(o.sum())}),
]

#: worker-side call counters: (target, counter key)
WORKER_COUNTS = [
    ("simplecrawler_ray.urlnorm:Uri.parse", "urlnorm.parse"),
    ("simplecrawler_ray.urlnorm:process_url", "urlnorm.process_url"),
    ("simplecrawler_ray.stages.candidates:process_url", "urlnorm.process_url"),
]

ROOT_TARGET = "simplecrawler_ray.stages.turbo:turbo_round_udf"


def install_layers(rec: Recorder) -> list:
    """Wrap every worker-side layer except the root; returns the patches."""
    patches = [wrap_span(rec, t, n, c) for t, n, c in WORKER_SPANS]
    patches += [wrap_count(rec, t, k) for t, k in WORKER_COUNTS]
    turbo = importlib.import_module("simplecrawler_ray.stages.turbo")
    patches.append(Patch(turbo, "pq"))
    turbo.pq = _SinkParquet(turbo.pq, rec)
    return patches


def install_root(rec: Recorder, trace_dir: str) -> Patch:
    """Wrap ``turbo_round_udf`` as the worker root: it turns recording on
    when the sentinel names a crawl and flushes the call's spans."""
    sentinel = os.path.join(trace_dir, ACTIVE_FILE)

    def make(fn):
        def root(*args, **kwargs):
            try:
                with open(sentinel) as f:
                    tag = f.read().strip()
            except FileNotFoundError:
                tag = ""
            if not tag:
                return fn(*args, **kwargs)
            rec.reset()
            rec.enabled = True
            try:
                return rec.call("turbo.udf", fn, args, kwargs,
                                lambda a, k, o: {"turbo.rows": a[0].num_rows})
            finally:
                rec.enabled = False
                _flush(rec, os.path.join(trace_dir, tag))
        return root
    return replace(ROOT_TARGET, make)


def _flush(rec: Recorder, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    line = json.dumps({"pid": os.getpid(), "spans": rec.spans,
                       "counts": rec.counts})
    with open(os.path.join(out_dir, f"spans-{os.getpid()}.jsonl"), "a") as f:
        f.write(line + "\n")
    rec.reset()


_WORKER_PATCHES: list = []


def install_worker() -> None:
    """Ray ``worker_process_setup_hook``: wrap the worker-side layers when
    the trace directory is set in the environment."""
    trace_dir = os.environ.get(TRACE_DIR_ENV)
    if not trace_dir or _WORKER_PATCHES:
        return
    rec = Recorder()
    _WORKER_PATCHES.extend(install_layers(rec))
    _WORKER_PATCHES.append(install_root(rec, trace_dir))


def read_worker_spans(trace_dir: str, tag: str) -> list[dict]:
    """All root-call records the workers wrote for one crawl tag."""
    out = []
    d = os.path.join(trace_dir, tag)
    if not os.path.isdir(d):
        return out
    for fn in sorted(os.listdir(d)):
        with open(os.path.join(d, fn)) as f:
            out.extend(json.loads(line) for line in f if line.strip())
    return out


def set_active(trace_dir: str, tag: str) -> None:
    """Point the workers' sentinel at ``tag`` ("" switches recording off)."""
    path = os.path.join(trace_dir, ACTIVE_FILE)
    if tag:
        with open(path + ".tmp", "w") as f:
            f.write(tag)
        os.replace(path + ".tmp", path)
    elif os.path.exists(path):
        os.remove(path)

"""Self-tests of the crawl benchmark.

    python3 -m pytest perfbench/tests -q

The tiny-scale runs start their own Ray session in a subprocess, the way
the benchmark is run; the other tests need no Ray.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import types

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))
sys.path.insert(0, ROOT)

from perfbench import gate, layers, tracer, workloads  # noqa: E402


def _run(*args: str) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else {})


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_passes_gate(name):
    code, res = _run("--workload", name, "--seed", "3", "--seconds", "0",
                     "--trace", "0", "--scale", "tiny")
    assert code == 0
    assert res["correct"] is True and res["failed"] == 0
    assert set(res["metrics"]) == {"urls_per_cpu_s", "setup_s",
                                   "driver_rss_mb"}
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_tiny_traced_run_reports_every_layer():
    code, res = _run("--workload", "corpus_fetch", "--seed", "3",
                     "--seconds", "0", "--trace", "1", "--scale", "tiny")
    assert code == 0 and res["correct"] is True
    assert set(res["metrics"]) == set(layers.UNITS)
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert m["imagecodec.images"] == m["fetch.rows"] > 0
    assert m["trace.exact_counts"] > 0


def _fake_sink(tmp_path, urls: list[str]) -> str:
    sink = tmp_path / "sink"
    part = sink / "round=00000"
    part.mkdir(parents=True)
    pq.write_table(pa.table({
        "url": pa.array(urls, pa.string()),
        "disposition": pa.array(["fetchcomplete"] * len(urls), pa.string()),
        "caption": pa.array([None] * len(urls), pa.string()),
        "phash": pa.array([None] * len(urls), pa.int64()),
    }), part / "part-0.parquet")
    return str(sink)


def _metrics_for(exp, n_rows: int) -> dict:
    return {"fetchstart": n_rows, "fetchcomplete": n_rows,
            "queueadd": exp.queueadd,
            "queueduplicate": exp.checked - exp.queueadd}


def test_gate_passes_exact_output_and_catches_planted_faults(tmp_path):
    exp = workloads.prepare("bfs_discover", 5, "tiny", str(tmp_path)).expected
    urls = sorted(exp.urls)
    ok = _fake_sink(tmp_path / "ok", urls)
    assert gate.check(_metrics_for(exp, len(urls)), ok, exp) == []

    dropped = _fake_sink(tmp_path / "drop", urls[1:])
    bad = gate.check(_metrics_for(exp, len(urls) - 1), dropped, exp)
    assert any("1 missing" in v for v in bad)

    duped = _fake_sink(tmp_path / "dup", urls + urls[:1])
    bad = gate.check(_metrics_for(exp, len(urls) + 1), duped, exp)
    assert any("more than once" in v for v in bad)

    m = _metrics_for(exp, len(urls))
    m["queueduplicate"] += 1
    assert any("checked" in v for v in gate.check(m, ok, exp))
    m = _metrics_for(exp, len(urls))
    m["seenoverflow"] = 1
    assert any("seenoverflow" in v for v in gate.check(m, ok, exp))


def _originals() -> dict:
    out = {}
    for target, *_ in (tracer.WORKER_SPANS + tracer.WORKER_COUNTS
                       + [(tracer.ROOT_TARGET,)]):
        owner, attr = tracer.resolve(target)
        out[target] = (owner.__dict__[attr] if isinstance(owner, type)
                       else getattr(owner, attr))
    turbo = sys.modules["simplecrawler_ray.stages.turbo"]
    out["turbo.pq"] = turbo.pq
    return out


def test_tracer_restores_every_wrapped_function(tmp_path):
    before = _originals()
    rec = tracer.Recorder()
    patches = tracer.install_layers(rec)
    patches.append(tracer.install_root(rec, str(tmp_path)))
    during = _originals()
    assert all(during[k] is not before[k] for k in before)
    tracer.uninstall(patches)
    after = _originals()
    assert all(after[k] is before[k] for k in before)


def test_self_time_is_span_time_minus_child_time():
    spans = [["root", 0, 100, -1], ["a", 10, 40, 0], ["b", 15, 25, 1],
             ["a", 50, 70, 0]]
    st = tracer.self_times(spans)
    assert st["root"] == [100 - 30 - 20, 100, 1]
    assert st["a"] == [(30 - 10) + 20, 50, 2]
    assert st["b"] == [10, 10, 1]

    # and through real wrappers: nested calls record parents
    ns = types.SimpleNamespace(inner=lambda: 1)
    ns.outer = lambda: ns.inner() + ns.inner()
    mod = types.ModuleType("perfbench_selftest_mod")
    mod.ns = ns
    sys.modules[mod.__name__] = mod
    try:
        rec = tracer.Recorder()
        patches = [tracer.wrap_span(rec, f"{mod.__name__}:ns.inner", "inner"),
                   tracer.wrap_span(rec, f"{mod.__name__}:ns.outer", "outer")]
        rec.enabled = True
        assert ns.outer() == 2
        tracer.uninstall(patches)
    finally:
        del sys.modules[mod.__name__]
    names = [s[0] for s in rec.spans]
    assert names == ["outer", "inner", "inner"]
    st = tracer.self_times(rec.spans)
    outer_total = rec.spans[0][2] - rec.spans[0][1]
    assert st["outer"][0] == outer_total - st["inner"][1]


def test_window_rate_weighs_time_not_crawls():
    from perfbench.run import window_rate

    recs = [{"fetched": 100, "wall_s": 1.0, "cpu_s": 2.0, "timed_out": False},
            {"fetched": 100, "wall_s": 3.0, "cpu_s": 3.0, "timed_out": False},
            {"wall_s": 60.0, "timed_out": True}]
    assert window_rate(recs) == 200 / 4.0
    assert window_rate(recs, "cpu_s") == 200 / 5.0
    assert window_rate(recs[2:]) == 0.0


@pytest.mark.parametrize("name", ["bfs_discover", "polite_ckpt"])
def test_seed_changes_inputs_and_repeats_expected_set(tmp_path, name):
    a = workloads.prepare(name, 11, "tiny", str(tmp_path))
    b = workloads.prepare(name, 11, "tiny", str(tmp_path))
    c = workloads.prepare(name, 12, "tiny", str(tmp_path))
    assert a.expected.urls == b.expected.urls
    assert a.expected.checked == b.expected.checked
    assert a.expected.urls != c.expected.urls

"""Write-once checkpoints: batch-written frontier parts, a per-round
manifest, a seen base + url_hash delta, and a bounded history.

Each test crawls a small ``ScaleWeb`` (or ``ConformanceWeb``) with
``checkpoint_dir`` set and checks what ``CrawlEngine._checkpoint``
leaves on disk and what ``CrawlEngine.resume`` rebuilds from it.
"""

import glob
import json
import os
import re
import shutil

import pyarrow.parquet as pq
import pytest
import ray

from simplecrawler_ray.pipelines.crawl import (CrawlEngine, CrawlResult,
                                               _crawl_batch, _pack, _unpack,
                                               sink_dataset)
from simplecrawler_ray.sources.web import ConformanceWeb, ScaleWeb
from simplecrawler_ray.state.seen import SeenSet

#: a 16 KiB 32-bit-slot seen table: these crawls' part files outgrow it every
#: round or two, so resume points with and without a base both occur
OPTS = dict(filter_by_domain=False, seen_shards=1, store_body=False,
            batch_size=8, seen_backend="cuckoo", seen_capacity_per_shard=2048)


def _states(ck: str) -> list:
    return sorted(glob.glob(os.path.join(ck, "state-round=*")))


def _meta(state: str) -> dict:
    with open(os.path.join(state, "metrics.json")) as f:
        return json.load(f)


def _bytes(path: str) -> int:
    if os.path.isfile(path):
        return os.path.getsize(path)
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, fs in os.walk(path) for f in fs)


def _crawl(eng: CrawlEngine, loop: str, sink: str) -> None:
    if loop == "run":
        eng.run(max_rounds=60)
    else:
        eng.run_turbo(sink, max_rounds=60)


def _fetched_urls(eng: CrawlEngine, loop: str, sink: str) -> list:
    """Every fetched row's URL, one entry per row."""
    if loop == "run":
        return CrawlResult(eng).fetched_table().column("url").to_pylist()
    return sink_dataset(sink).to_pandas()["url"].tolist()


@pytest.mark.parametrize("frontier", ["seeded", "discovered"])
@pytest.mark.parametrize("loop", ["run", "turbo"])
def test_resume_from_every_round(tmp_path, monkeypatch, loop, frontier):
    """A resume from the commit of each round k of one crawl gives the
    fault-free fetched-URL set, each URL once, and the same ``queueadd``.
    The seeded frontier is consumed in round 0, before round 0's commit,
    so its rows reach disk only as the round's admitted rows; the
    re-seed of the resumed ``run``/``run_turbo`` must find it seen."""
    sw = ScaleWeb(n_pages=36, n_hosts=4, out_degree=3)
    seeds = [sw.url_of(i) for i in range(0, 36, 4)]
    ck, sink = str(tmp_path / "ck"), str(tmp_path / "sink")
    snaps = []
    orig = CrawlEngine._checkpoint

    def snapshot(self):
        orig(self)
        snap = tmp_path / f"k{self.round_no}"
        shutil.copytree(ck, snap / "ck")
        if loop == "turbo":
            shutil.copytree(sink, snap / "sink")
        snaps.append((self.round_no, str(snap)))

    with monkeypatch.context() as m:
        m.setattr(CrawlEngine, "_checkpoint", snapshot)
        ref = CrawlEngine(sw, sw.url_of(0), checkpoint_dir=ck, **OPTS)
        if frontier == "seeded":
            ref.seed_frontier(seeds)
        _crawl(ref, loop, sink)
    want = _fetched_urls(ref, loop, sink)
    want_queueadd = ref.metrics["queueadd"]
    ref.seen.shutdown()
    assert len(want) == len(set(want)) == 36
    assert len(snaps) > 3

    bases, deltas = 0, 0
    for k, snap in snaps:
        man = _meta(_states(os.path.join(snap, "ck"))[-1])["parts"]
        bases += man["base"] is not None
        deltas += bool(man["delta"])
        eng = CrawlEngine.resume(sw, sw.url_of(0), os.path.join(snap, "ck"),
                                 sink_dir=os.path.join(snap, "sink"), **OPTS)
        assert eng.round_no == k + 1
        _crawl(eng, loop, os.path.join(snap, "sink"))
        got = _fetched_urls(eng, loop, os.path.join(snap, "sink"))
        eng.seen.shutdown()
        assert len(got) == len(set(got)), f"round {k}: duplicate rows"
        assert set(got) == set(want), f"round {k}"
        assert eng.metrics["queueadd"] == want_queueadd, f"round {k}"
    # both restore paths ran: a base plus delta, and a delta on its own
    assert bases and deltas and bases < len(snaps)


@pytest.mark.parametrize("loop", ["run", "turbo"])
def test_checkpoint_disk_is_bounded(tmp_path, monkeypatch, loop):
    """After each commit the checkpoint holds at most the live frontier's
    part files, two bases' worth of bytes (the base and the replay-only
    delta, which never outgrows it) and the round's new parts; one base,
    one resumable manifest (the last), and no part file the manifest
    does not name.  The terminal rows are in the sink, outside this
    bound."""
    sw = ScaleWeb(n_pages=80, n_hosts=4, out_degree=3)
    ck, sink = str(tmp_path / "ck"), str(tmp_path / "sink")
    eng = CrawlEngine(sw, sw.url_of(0), checkpoint_dir=ck, max_wave_rows=6,
                      **OPTS)
    checked = []
    orig = CrawlEngine._checkpoint

    def check(self):
        orig(self)
        states = _states(ck)
        assert [("parts" in _meta(s)) for s in states] == (
            [False] * (len(states) - 1) + [True])
        man = _meta(states[-1])["parts"]
        parts_dir = os.path.join(ck, "parts")
        on_disk = set(os.listdir(parts_dir)) if os.path.isdir(parts_dir) else set()
        assert on_disk == set(man["files"])
        bases = glob.glob(os.path.join(ck, "seen-r*"))
        assert [os.path.basename(b) for b in bases] == (
            [man["base"]["dir"]] if man["base"] else [])
        size = {f: _bytes(os.path.join(parts_dir, f)) for f in on_disk}
        live = sum(size[f] for f in {p[1] for p in man["live"]})
        new = sum(n for f, n in size.items()
                  if f.startswith(f"r{self.round_no:05d}-"))
        base = max(self.seen.memory_bytes(),
                   _bytes(bases[0]) if bases else 0)
        data = sum(size.values()) + sum(_bytes(b) for b in bases)
        assert data <= live + 2 * base + new
        checked.append(data)

    monkeypatch.setattr(CrawlEngine, "_checkpoint", check)
    _crawl(eng, loop, sink)
    eng.seen.shutdown()
    assert len(checked) > 8


@pytest.mark.parametrize("web_kind", ["conformance", "seeded"])
@pytest.mark.parametrize("loop", ["run", "turbo"])
def test_checkpoint_parts_conserve_queueadd(tmp_path, loop, web_kind):
    """Σ part-file rows written over a crawl (each round's ``checkpoint``
    record) = ``queueadd``: every admitted row, seeds, sitemap and
    redirect admits included, is written exactly once."""
    ck, sink = str(tmp_path / "ck"), str(tmp_path / "sink")
    if web_kind == "conformance":
        eng = CrawlEngine(ConformanceWeb(), "http://127.0.0.1:3000/",
                          checkpoint_dir=ck, seen_shards=1)
    else:
        sw = ScaleWeb(n_pages=40, n_hosts=4, out_degree=3)
        eng = CrawlEngine(sw, sw.url_of(0), checkpoint_dir=ck, **OPTS)
        eng.seed_frontier([sw.url_of(i) for i in range(0, 40, 3)])
    _crawl(eng, loop, sink)
    eng.seen.shutdown()
    metas = [_meta(s) for s in _states(ck)]
    recs = [m["checkpoint"] for m in metas]
    assert len(recs) == eng.round_no - (loop == "run")
    assert sum(r["part_rows"] for r in recs) == eng.metrics["queueadd"] > 0
    # per round too: each state's record holds that round's counters
    written = 0
    for m in metas:
        written += m["checkpoint"]["part_rows"]
        assert m["metrics"]["queueadd"] == written, m["round"]
    assert all(r["part_bytes"] > 0 for r in recs if r["part_rows"])
    assert recs[-1]["live_parts"] == 0


def test_resume_drops_uncommitted_parts(tmp_path):
    """A crashed round leaves part files (and a base) no manifest names.
    ``resume`` deletes them; the resumed crawl fetches each URL once and
    admits as many URLs as a fault-free crawl."""
    sw = ScaleWeb(n_pages=60, n_hosts=4, out_degree=3)
    ref = CrawlEngine(sw, sw.url_of(0), **OPTS)
    ref.run_turbo(str(tmp_path / "ref_sink"), max_rounds=60)
    want_queueadd = ref.metrics["queueadd"]
    ref.seen.shutdown()

    ck, sink = str(tmp_path / "ck"), str(tmp_path / "sink")
    eng = CrawlEngine(sw, sw.url_of(0), checkpoint_dir=ck, **OPTS)
    eng.run_turbo(sink, max_rounds=1)
    eng.seen.shutdown()
    parts = os.path.join(ck, "parts")
    stale = os.path.join(parts, "r00001-b00009.parquet")
    shutil.copy(os.path.join(parts, "r00000-b00000.parquet"), stale)
    os.makedirs(os.path.join(ck, "seen-r00001"))

    eng2 = CrawlEngine.resume(sw, sw.url_of(0), ck, sink_dir=sink, **OPTS)
    assert not os.path.exists(stale)
    assert not os.path.exists(os.path.join(ck, "seen-r00001"))
    eng2.run_turbo(sink, max_rounds=60)
    eng2.seen.shutdown()
    t = sink_dataset(sink).to_pandas()
    assert len(t) == t["url"].nunique() == 60
    assert eng2.metrics["queueadd"] == want_queueadd


def test_run_resume_reads_the_committed_sink(tmp_path, monkeypatch):
    """run()'s terminal rows stay in its sink, ``<checkpoint_dir>/sink``:
    a crawl stopped after round 1, with a round planted past the commit
    (a crashed round's parts), resumes to the uninterrupted crawl's
    fetched rows.  ``resume`` drops the planted round and puts no
    terminal row into the object store."""
    import pyarrow as pa

    sw = ScaleWeb(n_pages=36, n_hosts=4, out_degree=3)
    cols = ["seq", "url", "status", "depth", "round"]
    ref = CrawlEngine(sw, sw.url_of(0), **OPTS)
    want = ref.run(max_rounds=60).fetched_table().select(cols).to_pylist()
    ref.seen.shutdown()

    ck = str(tmp_path / "ck")
    eng = CrawlEngine(sw, sw.url_of(0), checkpoint_dir=ck, **OPTS)
    eng.run(max_rounds=2)
    eng.seen.shutdown()
    sink = os.path.join(ck, "sink")
    assert sorted(os.listdir(sink)) == ["round=00000", "round=00001"]
    planted = os.path.join(sink, "round=00002")
    shutil.copytree(os.path.join(sink, "round=00000"), planted)

    real_put, bad = ray.put, []

    def put(value, *a, **kw):
        if isinstance(value, pa.Table) or (
                isinstance(value, pa.Buffer) and set(
                    _unpack(value).column("status").to_pylist()) - {"queued"}):
            bad.append(value)
        return real_put(value, *a, **kw)

    with monkeypatch.context() as m:
        m.setattr(ray, "put", put)
        eng2 = CrawlEngine.resume(sw, sw.url_of(0), ck, **OPTS)
    assert bad == []
    assert not os.path.exists(planted)
    got = eng2.run(max_rounds=60).fetched_table().select(cols).to_pylist()
    eng2.seen.shutdown()
    assert len(want) == 36
    assert got == want


def test_resume_refuses_a_base_it_cannot_load(tmp_path):
    """A seen base restores only into the shard count and backend that
    wrote it; any other resume raises instead of resuming with a seen
    set that forgets URLs."""
    sw = ScaleWeb(n_pages=40, n_hosts=4, out_degree=3)
    ck = str(tmp_path / "ck")
    eng = CrawlEngine(sw, sw.url_of(0), checkpoint_dir=ck, **OPTS)
    eng.run_turbo(str(tmp_path / "sink"), max_rounds=3)
    eng.seen.shutdown()
    assert _meta(_states(ck)[-1])["parts"]["base"] is not None
    for other in (dict(seen_backend="exact"), dict(seen_shards=2)):
        with pytest.raises(ValueError, match="seen base"):
            CrawlEngine.resume(sw, sw.url_of(0), ck, **{**OPTS, **other})
    eng2 = CrawlEngine.resume(sw, sw.url_of(0), ck, **OPTS)
    assert eng2.seen.size() > 0
    eng2.seen.shutdown()


def test_turbo_batch_retry_overwrites_its_checkpoint_part(tmp_path):
    """A batch's checkpoint part is named by round and batch, so a rerun
    of the batch (as a Ray retry does) overwrites it, and each part
    record locates its bucket's rows in the file.  A batch whose
    out-links are all seen already still returns its counters, and
    writes no part."""
    sw = ScaleWeb(n_pages=40, n_hosts=4, out_degree=3)
    eng = CrawlEngine(sw, sw.url_of(0), filter_by_domain=False, seen_shards=1,
                      store_body=False)
    eng.seed_frontier([sw.url_of(i) for i in range(10)])
    batch = eng.queued_table()
    eng.seen.shutdown()
    nb = eng._frontier.n_buckets
    task = _crawl_batch.options(num_returns=1 + nb)
    parts_dir = tmp_path / "ck" / "parts"
    part_file = str(parts_dir / "r00000-b00003.parquet")
    for _ in range(2):
        # a fresh seen set, so the rerun admits the same rows
        seen = SeenSet(num_shards=1, backend="cuckoo")
        kw = dict(web_ref=sw, cfg_ref=eng.cfg, robots_ref={},
                  seen_shards=seen.shards, round_no=0, sink_dir=None,
                  batch_no=3)
        refs = task.remote(_pack(batch), kw, nb, part_file)
        counters, nbytes, parts = ray.get(refs[0])
        tables = ray.get(refs[1:])
        assert nbytes == os.path.getsize(part_file)
    assert os.listdir(parts_dir) == ["r00000-b00003.parquet"]
    t = pq.read_table(part_file)
    assert t.num_rows == sum(p.rows for p in parts.values()) > 0
    assert [b for b, tb in enumerate(tables) if tb is not None] == list(parts)
    for b, p in parts.items():
        assert p.ref is None and p.file == "r00000-b00003.parquet"
        assert t.slice(p.offset, p.rows).equals(_unpack(tables[b]))

    # the same batch again on the same seen set: every out-link is seen
    admitted = counters["queueadd"]
    refs = task.remote(_pack(batch), dict(kw, batch_no=4), nb,
                       str(parts_dir / "r00000-b00004.parquet"))
    counters, nbytes, parts = ray.get(refs[0])
    tables = ray.get(refs[1:])
    seen.shutdown()
    assert counters["fetchstart"] == 10
    assert counters["queueduplicate"] >= admitted > 0
    assert counters.get("queueadd", 0) == 0
    assert (nbytes, parts) == (0, {})
    assert tables == [None] * nb
    assert os.listdir(parts_dir) == ["r00000-b00003.parquet"]


def test_part_files_read_back_equal(tmp_path):
    """Part files are written without the stored Arrow schema (it is
    most of a small part's footer), yet each kind — a turbo batch's
    ``b`` part, a ``queued`` part — reads back equal to the rows
    written, schema included."""
    sw = ScaleWeb(n_pages=40, n_hosts=4, out_degree=3)
    kinds = set()
    for loop in ("turbo", "run"):
        ck = str(tmp_path / loop)
        eng = CrawlEngine(sw, sw.url_of(0), checkpoint_dir=ck,
                          **dict(OPTS, max_wave_rows=5))
        eng.seed_frontier([sw.url_of(i) for i in range(0, 40, 3)])
        if loop == "run":
            eng.run(max_rounds=1)
        else:
            eng.run_turbo(str(tmp_path / "sink"), max_rounds=1)
        # frontier parts are packed
        written = [(p.file, p.offset, p.rows, _unpack(ray.get(p.ref)))
                   for ps in eng._frontier.buckets for p in ps]
        for name, off, n, rows in written:
            path = os.path.join(ck, "parts", name)
            assert b"ARROW:schema" not in (pq.read_metadata(path).metadata
                                           or {})
            assert pq.read_table(path).slice(off, n).equals(
                rows, check_metadata=True)
            kinds.add(re.match(r"r\d+-(b|queued)", name).group(1))
        eng.seen.shutdown()
    assert kinds == {"b", "queued"}

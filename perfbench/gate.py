"""Correctness gate: one crawl's output against the workload's reference."""

from __future__ import annotations

import collections
import glob
import os

#: every terminal fetch disposition the turbo round counts
DISPOSITIONS = ("fetchcomplete", "fetchredirect", "fetch404", "fetch410",
                "fetcherror", "fetchtimeout", "fetchclienterror",
                "fetchdataerror", "notmodified", "downloadprevented",
                "downloadconditionerror")

#: dispositions that count as failed operations
FAILED_DISPOSITIONS = ("fetcherror", "fetchtimeout", "fetchclienterror",
                       "fetchdataerror")


def read_sink(sink_dir: str, columns=("url", "disposition", "caption",
                                      "phash")):
    """Every fetched row the crawl sank, as a dict of column lists."""
    import pyarrow.parquet as pq

    cols = {c: [] for c in columns}
    for f in sorted(glob.glob(os.path.join(sink_dir, "round=*",
                                           "*.parquet"))):
        t = pq.read_table(f, columns=list(columns))
        for c in columns:
            cols[c].extend(t.column(c).to_pylist())
    return cols


def failed_ops(metrics: dict) -> int:
    return (sum(int(metrics.get(d, 0)) for d in FAILED_DISPOSITIONS)
            + int(metrics.get("seenoverflow", 0)))


def check(metrics: dict, sink_dir: str, expected) -> list[str]:
    """Return the violations (empty when the crawl is correct)."""
    bad = []
    rows = read_sink(sink_dir)
    counts = collections.Counter(rows["url"])
    dups = [u for u, c in counts.items() if c > 1]
    if dups:
        bad.append(f"{len(dups)} URLs sunk more than once, e.g. {dups[0]}")
    got = set(counts)
    if got != expected.urls:
        missing, extra = expected.urls - got, got - expected.urls
        bad.append(f"fetched set differs: {len(missing)} missing, "
                   f"{len(extra)} unexpected")
    start = int(metrics.get("fetchstart", 0))
    disp = sum(int(metrics.get(d, 0)) for d in DISPOSITIONS)
    if start != disp:
        bad.append(f"fetchstart {start} != sum of dispositions {disp}")
    if start != len(rows["url"]):
        bad.append(f"fetchstart {start} != sunk rows {len(rows['url'])}")
    add = int(metrics.get("queueadd", 0))
    dup = int(metrics.get("queueduplicate", 0))
    if add != expected.queueadd:
        bad.append(f"queueadd {add} != expected {expected.queueadd}")
    if add + dup != expected.checked:
        bad.append(f"queueadd + queueduplicate {add + dup} != checked "
                   f"{expected.checked}")
    if int(metrics.get("seenoverflow", 0)):
        bad.append(f"seenoverflow {metrics['seenoverflow']} != 0")
    if expected.corpus:
        wrong_caption = wrong_phash = 0
        for u, cap, ph in zip(rows["url"], rows["caption"], rows["phash"]):
            ref = expected.corpus.get(u)
            if ref is None or cap != ref[0]:
                wrong_caption += 1
            elif ref[2] == "png" and ph != ref[1]:
                wrong_phash += 1
        if wrong_caption:
            bad.append(f"{wrong_caption} captions differ from the corpus")
        if wrong_phash:
            bad.append(f"{wrong_phash} PNG phashes differ from the corpus")
    return bad

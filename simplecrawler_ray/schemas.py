"""Arrow schemas for the engine's tables (SURVEY.md §1.3).

The frontier is the central dataset (replaces the reference's in-memory
``FetchQueue`` array, src/queue.ts:79-314); ``state_*`` flat columns
replace the nested ``stateData`` struct (src/types/queue.d.ts:4-14) —
flat columns keep every per-stage update a cheap Arrow column append
instead of a struct rebuild, and groupby/sort on them needs no struct
unnesting.
"""

from __future__ import annotations

import pyarrow as pa

# Lifecycle statuses (src/queue.ts:65-74 + literal strings written elsewhere:
# "timeout" crawler.ts:1603, "disallowed" crawler.ts:1330,
# "downloadprevented" crawler.ts:1862).
STATUS_CREATED = "created"
STATUS_QUEUED = "queued"
STATUS_SPOOLED = "spooled"
STATUS_HEADERS = "headers"
STATUS_DOWNLOADED = "downloaded"
STATUS_REDIRECTED = "redirected"
STATUS_NOTFOUND = "notfound"
STATUS_FAILED = "failed"
STATUS_TIMEOUT = "timeout"
STATUS_DISALLOWED = "disallowed"
STATUS_DOWNLOADPREVENTED = "downloadprevented"
STATUS_NOTMODIFIED = "notmodified"

FRONTIER_FIELDS = [
    ("seq", pa.int64()),          # global insertion order == QueueItem.id
    ("url", pa.string()),         # canonical URL (process_url output)
    ("url_hash", pa.uint64()),    # hash64(url) — dedup + partition key
    ("protocol", pa.string()),
    ("host", pa.string()),        # politeness / partition key
    ("port", pa.int32()),
    ("path", pa.string()),
    ("uri_path", pa.string()),
    ("depth", pa.int32()),
    ("referrer", pa.string()),
    ("fetched", pa.bool_()),
    ("status", pa.string()),
    # StateData (flattened)
    ("state_request_latency_ms", pa.int32()),
    ("state_request_time_ms", pa.int32()),
    ("state_download_time_ms", pa.int32()),
    ("state_content_length", pa.int64()),
    ("state_content_type", pa.string()),
    ("state_code", pa.int16()),
    ("state_headers", pa.string()),        # JSON-encoded header map
    ("state_actual_data_size", pa.int64()),
    ("state_sent_incorrect_size", pa.bool_()),
    ("round", pa.int32()),                 # lineage: BSP round the row entered
]

FRONTIER_SCHEMA = pa.schema(FRONTIER_FIELDS)

# corpus: the synthetic "web" (BASELINE.json input_hint — image+caption pairs)
CORPUS_SCHEMA = pa.schema(
    [
        ("image_id", pa.string()),   # == canonical URL of the page
        ("bytes", pa.binary()),
        ("w", pa.int32()),
        ("h", pa.int32()),
        ("fmt", pa.string()),        # "png" | "jpeg"
        ("caption", pa.string()),    # page body (HTML snippet with out-links)
        ("phash", pa.int64()),
    ]
)

def frontier_row_defaults() -> dict:
    """Default state_* values for a freshly queued row."""
    return {
        "fetched": False,
        "status": STATUS_QUEUED,
        "state_request_latency_ms": 0,
        "state_request_time_ms": 0,
        "state_download_time_ms": 0,
        "state_content_length": 0,
        "state_content_type": "",
        "state_code": 0,
        "state_headers": "",
        "state_actual_data_size": 0,
        "state_sent_incorrect_size": False,
    }

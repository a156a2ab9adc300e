"""Path cleaning for a file mirror of fetched pages (S5).

The reference mirrors fetched bodies to disk files whose paths mimic
the site structure (src/cache-backend-fs.ts:142-207) with an index
JSON.  This engine's analogue is the parquet sink every crawl batch
writes (``round=NNNNN/part-BBBBB.parquet``, ``stages/turbo.py``): one
file per batch, resumable, no index file needed (parquet IS the
index).  ``sanitise_path`` ports the path-cleaning transform
(src/cache-backend-fs.ts:20-69) for deployments that do want file
mirroring.
"""

from __future__ import annotations

import hashlib
import re


def sanitise_path(path: str, content_type: str = "") -> str:
    """sanitisePath src/cache-backend-fs.ts:20-69: hash querystrings,
    hash >=250-char segments, infer an extension from content-type."""
    path = re.sub(r"^/", "", path)
    s = re.sub(r"\s*$", "", path) if path else "index.html"
    if "?" in s:
        resource, _, qs = s.partition("?")
        s = resource + "?" + hashlib.sha1(qs.encode()).hexdigest()
    s = "/".join(
        hashlib.sha1(chunk.encode()).hexdigest() if len(chunk) >= 250 else chunk
        for chunk in s.split("/")
    )
    no_ext = not re.search(r"\.[a-z0-9]{1,6}$", s, re.I)
    is_html = bool(re.match(r"text/html", content_type or "", re.I))
    if no_ext or (is_html and not re.search(r"\.html?$", s, re.I)):
        if is_html:
            s += "index.html" if s.endswith("/") else ".html"
        else:
            m = re.match(r"(image|video|audio|application)/([a-z0-9]+)", content_type or "", re.I)
            if m:
                s += "." + m.group(2)
    return s

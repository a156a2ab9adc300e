"""Crawl benchmark: workloads, correctness gate and layer tracer."""

"""The benchmark's wrap targets still exist.

``perfbench/tracer.py`` and ``perfbench/layers.py`` wrap engine
functions by ``module:qualname`` and swap ``stages.turbo``'s module
``pq`` to time the sink write.  A refactor that renames one of them
would otherwise fail only in ``perfbench/tests``; these checks need no
Ray cluster and change nothing they import.
"""

import importlib
import inspect

import pytest

from perfbench import layers, tracer

TARGETS = ([t for t, _, _ in tracer.WORKER_SPANS]
           + [t for t, _ in tracer.WORKER_COUNTS]
           + [tracer.ROOT_TARGET,
              "simplecrawler_ray.pipelines.crawl:CrawlEngine._dequeue_wave",
              "simplecrawler_ray.pipelines.crawl:CrawlEngine.run_turbo"])


@pytest.mark.parametrize("target", TARGETS)
def test_wrap_target_resolves(target):
    owner, attr = tracer.resolve(target)
    assert callable(getattr(owner, attr))


def test_turbo_sink_writes_through_module_pq():
    turbo = importlib.import_module("simplecrawler_ray.stages.turbo")
    assert callable(turbo.pq.write_table)


def test_turbo_round_udf_takes_the_kernel_replay_keywords():
    """``layers.kernel_rate`` calls ``turbo_round_udf`` with these."""
    from simplecrawler_ray.stages.turbo import turbo_round_udf

    assert callable(layers.kernel_rate)
    params = inspect.signature(turbo_round_udf).parameters
    assert {"web_ref", "cfg_ref", "robots_ref", "seen_shards", "round_no",
            "sink_dir"} <= set(params)

"""HyperLogLog cardinality sketch: accuracy, mergeability, dataset op."""

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from simplecrawler_ray.functions.sketch import (
    approx_ndistinct, hll_estimate, hll_merge, hll_partial)


def test_hll_accuracy_large():
    rng = np.random.default_rng(42)
    vals = rng.integers(0, 1 << 62, 200_000)
    n_exact = len(np.unique(vals))
    est = hll_estimate(hll_partial(pd.Series(vals)))
    assert abs(est - n_exact) / n_exact < 0.02


def test_hll_merge_equals_single_pass():
    rng = np.random.default_rng(1)
    vals = rng.integers(0, 10_000, 50_000)
    whole = hll_partial(pd.Series(vals))
    parts = [hll_partial(pd.Series(c)) for c in np.array_split(vals, 7)]
    assert np.array_equal(hll_merge(parts), whole)


def test_hll_small_range_linear_counting():
    est = hll_estimate(hll_partial(pd.Series(np.arange(100))))
    assert abs(est - 100) / 100 < 0.05


def test_approx_ndistinct_dataset(ray_session):
    rng = np.random.default_rng(3)
    df = pd.DataFrame({"u": rng.integers(0, 5_000, 100_000)})
    n_exact = df["u"].nunique()
    est = approx_ndistinct(rd.from_pandas(df).repartition(16), "u")
    assert abs(est - n_exact) / n_exact < 0.02


def test_cm_never_undercounts_and_is_tight():
    from simplecrawler_ray.functions.sketch import (cm_merge, cm_partial,
                                                    cm_query)
    rng = np.random.default_rng(7)
    # zipf-ish: few hot keys + long tail
    vals = np.concatenate([np.repeat(np.arange(10), 1000),
                           rng.integers(100, 50_000, 30_000)])
    rng.shuffle(vals)
    parts = [cm_partial(pd.Series(c)) for c in np.array_split(vals, 9)]
    cm = cm_merge(parts)
    truth = pd.Series(vals).value_counts()
    hot = truth.index[:10]
    est = cm_query(cm, pd.Series(hot))
    true = truth.loc[hot].to_numpy()
    assert (est >= true).all()                      # one-sided error
    assert (est - true <= 2 * len(vals) / 8192 * 4).all()  # tight-ish


def test_heavy_hitters_finds_true_top(ray_session):
    from simplecrawler_ray.functions.sketch import heavy_hitters
    rng = np.random.default_rng(11)
    hot = np.repeat([f"h{i}" for i in range(5)], [5000, 4000, 3000, 2000, 1000])
    tail = rng.integers(0, 100_000, 40_000).astype(str)
    vals = np.concatenate([hot, tail])
    rng.shuffle(vals)
    df = pd.DataFrame({"u": vals})
    got = heavy_hitters(rd.from_pandas(df).repartition(16), "u", k=5)
    assert got["u"].tolist() == ["h0", "h1", "h2", "h3", "h4"]
    true = pd.Series(vals).value_counts()
    # estimates upper-bound the true counts
    assert (got.set_index("u")["est"] >= true.loc[got["u"]].to_numpy()).all()


def test_heavy_hitters_two_pass_recovers_spread_thin_key(ray_session):
    """A true top value that never makes any block's local candidate
    cut (one occurrence per block) is missed single-pass but recovered
    by the two_pass rescan against the merged sketch."""
    from simplecrawler_ray.functions.sketch import heavy_hitters
    blocks = []
    for i in range(40):
        local = np.repeat([f"b{i}_{j}" for j in range(8)], 3)
        blocks.append(np.concatenate([local, ["needle"]]))
    df = pd.DataFrame({"u": np.concatenate(blocks)})
    ds = rd.from_pandas(df).repartition(40)
    one = heavy_hitters(ds, "u", k=1, candidates_per_block=2)
    assert one["u"].tolist() != ["needle"]          # documented miss
    two = heavy_hitters(ds, "u", k=1, candidates_per_block=2,
                        two_pass=True)
    assert two["u"].tolist() == ["needle"]
    assert int(two["est"][0]) >= 40                 # never undercounts


def test_heavy_hitters_int_keys(ray_session):
    # int keys must hash identically in partial and query (the str-cast
    # regression zeroed every estimate)
    from simplecrawler_ray.functions.sketch import heavy_hitters
    rng = np.random.default_rng(2)
    vals = np.concatenate([np.repeat([7, 11, 13], [900, 700, 500]),
                           rng.integers(1000, 90_000, 20_000)])
    rng.shuffle(vals)
    got = heavy_hitters(rd.from_pandas(pd.DataFrame({"u": vals}))
                        .repartition(8), "u", k=3)
    assert got["u"].tolist() == [7, 11, 13]
    assert (got["est"].to_numpy() >= np.array([900, 700, 500])).all()


def test_heavy_hitters_two_pass_fewer_than_k_distinct(ray_session):
    """With fewer candidates than k the rescan threshold is 0: every
    value can still be in the top k.  Each block's local cut keeps only
    "a", so a threshold taken from the under-full candidate list would
    drop "b" and "c"."""
    from simplecrawler_ray.functions.sketch import heavy_hitters
    block = ["a"] * 5 + ["b"] * 2 + ["c"]
    ds = rd.from_pandas([pd.DataFrame({"u": block}) for _ in range(4)])
    got = heavy_hitters(ds, "u", k=5, candidates_per_block=1, two_pass=True)
    assert got["u"].tolist() == ["a", "b", "c"]
    assert (got["est"].to_numpy() >= np.array([20, 8, 4])).all()


def test_heavy_hitters_two_pass_block_keeps_no_rows(ray_session, monkeypatch):
    """A rescan block whose values all fall below the threshold emits a
    zero-row ``v`` column typed like the input column, not null."""
    import ray

    from simplecrawler_ray.functions import sketch

    hot = pd.DataFrame({"u": np.repeat(np.array([7, 11], np.int64), 50)})
    cold = pd.DataFrame({"u": np.arange(1000, 1010, dtype=np.int64)})
    ds = rd.from_pandas([hot, cold])
    got = sketch.heavy_hitters(ds, "u", k=2, candidates_per_block=2,
                               two_pass=True)
    assert got["u"].tolist() == [7, 11]
    # the rescan blocks themselves: the cold one keeps no rows
    seen = []
    orig = rd.Dataset.map_batches

    def spy(self, fn, **kw):
        out = orig(self, fn, **kw)
        if fn.__name__ == "rescan":
            seen.extend(ray.get(out.materialize().to_arrow_refs()))
        return out

    monkeypatch.setattr(rd.Dataset, "map_batches", spy)
    sketch.heavy_hitters(ds, "u", k=2, candidates_per_block=2, two_pass=True)
    assert [t.num_rows for t in seen] == [2, 0]
    assert all(t.schema.field("v").type == pa.int64() for t in seen)


def test_approx_ndistinct_empty_dataset(ray_session):
    from simplecrawler_ray.functions.sketch import approx_ndistinct
    empty = rd.from_arrow(pa.table({"u": pa.array([], pa.int64())}))
    assert approx_ndistinct(empty, "u") == 0.0

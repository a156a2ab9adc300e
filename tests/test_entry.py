"""Driver-contract guard: every oracle-backed query in __ray_entry__
matches DuckDB at sf0.001 (the driver runs the same comparison at
sf0.01 -> CORRECTNESS_r{N}.json)."""

import duckdb
import pandas as pd
import pyarrow as pa
import pytest

import __ray_entry__ as entrymod

SF = "/root/testdata/sf0.001"
TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")
    return c


def _norm(df):
    if isinstance(df, pa.Table):
        df = df.to_pandas()
    df = df[sorted(df.columns)].reset_index(drop=True)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


@pytest.mark.parametrize("name", sorted(entrymod.oracle_sql().keys()))
def test_query_matches_oracle(con, name):
    mine = _norm(entrymod.queries()[name](SF))
    oracle = _norm(con.execute(entrymod.oracle_sql()[name]).df())
    assert list(mine.columns) == list(oracle.columns)
    assert len(mine) == len(oracle)
    pd.testing.assert_frame_equal(mine, oracle, check_dtype=False,
                                  rtol=1e-9, atol=1e-9)


def test_rows_only_queries_run():
    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    for name in set(qs) - set(oracles):
        if name == "crawl_scaleweb":
            continue  # covered (slower) in test_crawl / bench
        out = qs[name](SF)
        n = out.num_rows if isinstance(out, pa.Table) else len(out)
        assert n >= 0


def test_entry_smoke():
    t = entrymod.entry()
    n = t.num_rows if isinstance(t, pa.Table) else len(t)
    assert n >= 1


def test_dup_edge_memo_rebuilds_for_regenerated_documents(tmp_path):
    """The dup-edge graph is memoized per sf_dir; regenerating the
    documents table in place must rebuild it, not reuse stale edges."""
    import pyarrow.parquet as pq

    def write(texts, n_chars):
        pq.write_table(pa.table({
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": texts, "lang": ["en"] * len(texts),
            "n_chars": pa.array(n_chars, pa.int64())}),
            tmp_path / "documents.parquet")

    sf = str(tmp_path)
    q = entrymod.queries()["q_docs_dup_clusters"]
    write(["same"] * 6, [4] * 6)                  # one cluster
    first = q(sf)
    assert first["cluster"].nunique() == 1
    write([f"doc number {i}" for i in range(8)], list(range(10, 18)))
    second = q(sf)                                # no edges at all
    assert second["doc_id"].tolist() == list(range(8))
    assert second["cluster"].tolist() == list(range(8))
    entrymod._DUP_EDGE_MEMO.clear()
    pd.testing.assert_frame_equal(second, q(sf))  # same as a cold build

"""Driver-contract parity tests: run ``__ray_entry__.queries()`` against
``oracle_sql()`` via DuckDB at sf0.001 (a faster replica of the driver's
sf0.01 correctness gate — same compare: row count, columns, exact values)."""

import os
import sys

import duckdb
import pandas as pd
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SF = "/root/testdata/sf0.001"
TABLES = (
    "region nation customer supplier part orders lineitem events documents embeddings"
).split()

# ALL oracle-checked queries (the driver gate runs the same pairs at
# sf0.01; band_tile_stats is the one skip — its 28M-cell SQL belongs to
# the gate, and cell_agg_band covers the identical decode formula)
CHECKED = [
    "explode_media",
    "span_digest",
    "cell_agg_band",
    "focal_cell_stats",
    "cell_pyramid",
    "footprint_metrics",
    "nearest_footprint",
    "tile_convolve_stats",
    "doc_multimodal_profile",
    "cluster_quality",
    "pack_sequences",
    "top_tiles_per_cell",
    "corpus_mixture",
    "zonal_by_nearest",
    "media_decode_real",
    "bloom_semijoin",
    "bloom_pruned_join",
    "embedding_dup_clusters",
    "media_dedup",
    "media_dedup_real",
    "chunk_docs",
    "chunk_dedup",
    "cell_agg_s2face",
    "ndvi_stats",
    "resample_tiles",
    "resample_bilinear",
    "resample_cubic",
    "resample_average",
    "resample_cubicspline",
    "resample_rms",
    "resample_lanczos",
    "resample_mode",
    "tile_type_hist",
    "knn_tiles",
    "bbox_join_counts",
    "top_dense_cells",
    "flagship_cells",
    "pip_join_counts",
    "pip_join_cellcover",
    "zonal_stats",
    "rasterize_footprints",
    "vectorize_tiles",
    "lineitem_pricing",
    "orders_by_segment",
    "revenue_by_nation",
    "global_stats",
    "quantiles_qty",
    "grouped_quantiles",
    "quantiles_price",
    "sessionize",
    "dedup_exact",
    "token_stats",
    "jsonl_token_stats",
    "normalize_text",
    "sample_lineitem",
    "stratified_sample",
    "tfidf_terms",
    "top_bigrams",
    "repetition_filter",
    "token_cooccurrence",
    "redact_props",
    "regex_tokens",
    "user_gaps",
    "customer_order_profile",
    "user_running_value",
    "events_pivot",
    "qty_price_corr",
    "doc_surprisal",
    "event_bursts",
    "hist_quantiles",
    "customer_set_ops",
    "lang_id",
    "events_daily",
    "events_props_k",
    "knn_embeddings",
    "asof_latest_order",
    "events_rolling7",
    "distinct_custs",
    "approx_distinct_custs",
    "top_parts_by_brand",
    "customers_no_orders",
    "priority_revenue",
    "gap_fill",
    "morans_i",
    "hexbin_density",
    "copurchase_pairs",
    "pagerank_parts",
    "pareto_front",
    "trend_by_type",
    "seasonality_profile",
    "mad_outliers",
    "interval_join",
    "order_baskets",
    "cell_band_delta",
    "zonal_histogram",
    "near_boundary_tiles",
    "type_corr_matrix",
    "contiguous_regions",
    "priority_sample",
    "minmax_scale",
    "audience_hhi",
    "rfm_segments",
    "lttb_downsample",
    "triangle_count",
    "hist_equalize",
    "containment_pairs",
    "semivariogram",
    "attribution_last_touch",
    "journey_trigrams",
    "rolling_wau",
    "snapshot_diff",
    "survival_table",
    "demand_features",
    "idw_interpolate",
    "weighted_median",
    "modal_value",
    "theilsen_trend",
    "segment_momentum",
    "fk_integrity",
    "ab_test_zscore",
    "rate_limit_audit",
    "footprint_grid_cover",
    "key_skew_report",
    "ann_filtered",
    "benford_audit",
    "pareto_8020",
    "cf_candidates",
    "grid_rle",
    "seasonal_anomaly",
    "knn_tiles_haversine",
    "ttr_by_source",
    "top_copurchases",
    "tile_texture",
    "footprint_selectivity",
    "contour_cases",
    "morton_cells",
    "fulfillment_lag",
    "sourcing_concentration",
    "vector_norm_audit",
    "brand_price_rank",
    "basket_size_hist",
    "log_compaction",
    "cell_value_hist",
    "ann_recall_eval",
    "join_size_estimate",
    "event_transitions",
    "bpe_merges",
    "embedding_profile",
    "fuzzy_token_match",
    "cusum_daily",
    "value_ntiles",
    "column_profile",
    "ordered_funnel",
    "mosaic_blend",
    "aspect_octants",
    "event_ohlc",
    "hillshade_stats",
    "pmi_collocations",
    "lexical_search",
    "minhash_pairs",
    "dedup_clusters",
    "decontaminate",
    "ngram_jaccard",
    "simhash_pairs",
    "simhash128_pairs",
    "embedding_dups",
    "ann_lsh",
    "ann_ivf",
    "ann_pq",
    "cms_heavy_hitters",
    "dup_ngram_spans",
    "dup_span_chars",
    "kcenter_diversity",
    "kcenter_assign",
    "shuffle_shards",
    "curation_funnel",
    "paragraph_dedup",
    "cluster_cap",
    "incremental_dedup",
    "range_partition",
    "leakage_safe_split",
    "vocab_coverage",
    "media_captions",
    "quality_filter",
    "csv_quality_filter",
    "contamination_overlap",
    "pack_multimodal",
    "funnel_coverage",
    "radius_neighbors",
    "ngram_novelty",
    "events_rollup",
    "value_outliers",
    "cohort_retention",
    "cluster_embeddings",
    "fingerprint_docs",
    "media_features",
]


@pytest.fixture(scope="module")
def contract(ray_session):
    import __ray_entry__ as e

    return e.queries(), e.oracle_sql()


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")
    return c


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df.reindex(sorted(df.columns), axis=1)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _to_df(res) -> pd.DataFrame:
    import pyarrow as pa

    if isinstance(res, pa.Table):
        return res.to_pandas()
    if isinstance(res, pd.DataFrame):
        return res
    return res.to_pandas()


@pytest.mark.parametrize("name", CHECKED)
def test_query_matches_oracle(name, contract, con):
    queries, sqls = contract
    sql = sqls[name].replace("sf0.01/", "sf0.001/")
    got = _norm(_to_df(queries[name](SF)))
    want = _norm(con.sql(sql).df())
    assert list(got.columns) == list(want.columns)
    assert len(got) == len(want)
    pd.testing.assert_frame_equal(got, want, check_dtype=False, check_exact=True)


def test_every_query_has_oracle_or_is_flagged(contract):
    queries, sqls = contract
    rows_only = set(queries) - set(sqls)
    # EVERY query has a DuckDB oracle: the 10-type erased decode, exact
    # PIP ring joins, Hilbert cell ids, bilinear resample, the rolling
    # polynomial fingerprint, the HLL sketch, MinHash+LSH end-to-end,
    # SimHash (polynomial token hashes + bit_count Hamming), the
    # quantized-integer-cosine embedding near-dup, sign-LSH ANN, the
    # media plumbing metadata, and IVF ANN (content-keyed seeding + ten
    # UNROLLED exact-integer Lloyd iterations in SQL).
    assert rows_only == set()
    assert not set(sqls) - set(queries)
    # CHECKED must track the registry: a new query silently excluded from
    # the local parity gate would only fail at the (slow) driver gate
    assert set(queries) - set(CHECKED) == {"band_tile_stats"}, (
        "add new queries to CHECKED (band_tile_stats is the one documented skip)"
    )


def test_entry_smoke(ray_session):
    import __ray_entry__ as e

    out = _to_df(e.entry())
    assert len(out) > 0
    assert {"cell_id", "n_tiles", "min_val", "max_val"} <= set(out.columns)


def test_chunk_docs_unbounded_long_docs(ray_session, tmp_path, contract):
    """chunk_docs/chunk_dedup must stay hash-green on documents LONGER
    than the old 64×150 = 9,600-char oracle cap (VERDICT r4 #1: real
    pretraining corpora routinely exceed it; the engine used to
    hard-raise and the oracle used a fixed range(64) position bound —
    both are now length-unbounded)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    queries, sqls = contract
    long_a = "".join(chr(97 + (i * 7 + i // 31) % 26) for i in range(15000))
    docs = pa.table(
        {
            "doc_id": ["d%02d" % k for k in range(6)],
            "text": [
                long_a,
                long_a,  # exact dup: every aligned chunk collides
                long_a[:9900],  # still beyond the old cap, shares a prefix
                "short text",
                "",  # one empty chunk (len 0)
                "x" * 200,
            ],
        }
    )
    pq.write_table(docs, str(tmp_path / "documents.parquet"))
    con2 = duckdb.connect()
    con2.sql(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{tmp_path}/documents.parquet')"
    )
    for name in ("chunk_docs", "chunk_dedup"):
        got = _norm(_to_df(queries[name](str(tmp_path))))
        want = _norm(con2.sql(sqls[name]).df())
        assert list(got.columns) == list(want.columns)
        assert len(got) == len(want) and len(got) > 0
        pd.testing.assert_frame_equal(
            got, want, check_dtype=False, check_exact=True
        )
    cd = _to_df(queries["chunk_docs"](str(tmp_path)))
    assert cd["chunk_idx"].max() >= 64  # genuinely beyond the old bound


def test_fuzzy_match_adversarial_vocab(ray_session, tmp_path, contract):
    """The SymSpell deletion-neighborhood join must reproduce DuckDB's
    levenshtein() EXACTLY on the hard cases: transpositions ('ab'/'ba'
    is distance 2 — deletion variants collide but the prefix+suffix
    verify must reject), repeated characters ('aaa'/'aa'), shared
    prefixes+suffixes at distance 2 ('axxb'/'ayyb'), and 1-char
    words."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    queries, sqls = contract
    # the two 40-char words sit past the 16-char baseline width: the
    # verify must WIDEN (they differ at distance 1), not raise
    vocab = (
        "ab ba aba aa aaa axxb ayyb xyz xz hello hullo help x helo "
        + "q" * 40 + " " + "q" * 39 + "r"
    )
    docs = pa.table({"doc_id": [0], "text": [vocab]})
    pq.write_table(docs, str(tmp_path / "documents.parquet"))
    con2 = duckdb.connect()
    con2.sql(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{tmp_path}/documents.parquet')"
    )
    got = _norm(_to_df(queries["fuzzy_token_match"](str(tmp_path))))
    want = _norm(con2.sql(sqls["fuzzy_token_match"]).df())
    assert list(got.columns) == list(want.columns)
    assert len(got) == len(want) and len(got) > 0
    pd.testing.assert_frame_equal(got, want, check_dtype=False, check_exact=True)
    # the transposition trap must be absent: probe 'b a'? no — pair
    # ('ab','ba') via shared deletion variants would be a false positive
    pairs = set(zip(got["probe"], got["word"]))
    assert ("a", "ba") in pairs  # probe of 'ab' matches 'ba' at dist 1
    assert ("aa", "aaa") in pairs and ("aa", "aa") in pairs


def test_pmi_collocations_no_candidates(ray_session, tmp_path, contract):
    """When no bigram reaches min_count the engine must return a TYPED
    empty table matching the oracle (str.split(expand=True) on an empty
    Series used to yield a 0-column frame and crash)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    queries, sqls = contract
    docs = pa.table({"doc_id": [0, 1], "text": ["a b c d e", "f g h i j"]})
    pq.write_table(docs, str(tmp_path / "documents.parquet"))
    con2 = duckdb.connect()
    con2.sql(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{tmp_path}/documents.parquet')"
    )
    got = _norm(_to_df(queries["pmi_collocations"](str(tmp_path))))
    want = _norm(con2.sql(sqls["pmi_collocations"]).df())
    assert list(got.columns) == list(want.columns)
    assert len(got) == len(want) == 0


def test_token_queries_read_past_512_tokens(ray_session, tmp_path, contract):
    """decontaminate, ngram_novelty, pmi_collocations and top_bigrams on
    600-token documents whose only shared windows and repeated bigrams
    sit past token 512: each matches its DuckDB oracle, and the oracles
    answer differently when their token positions are capped at 512 (so
    the documents do reach past the cap)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    queries, sqls = contract
    phrase = "x y z w " * 20  # 80 tokens at positions 520..599
    bench = " ".join(f"f{i}" for i in range(520)) + " " + phrase.strip()
    train = " ".join(f"g{i}" for i in range(520)) + " " + phrase.strip()
    assert len(bench.split(" ")) == len(train.split(" ")) == 600
    # doc 0 is in the benchmark subset (doc_id % 101 == 0) and novelty
    # shard 0; doc 17 is a training doc in shard 1
    docs = pa.table({"doc_id": pa.array([0, 17, 18], pa.int64()),
                     "text": [bench, train, "a b c"]})
    pq.write_table(docs, str(tmp_path / "documents.parquet"))
    con2 = duckdb.connect()
    con2.sql(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{tmp_path}/documents.parquet')"
    )
    uncapped = "FROM tl, LATERAL (SELECT unnest(range(len(toks))) AS range) r"
    capped = "FROM tl, range(512) r WHERE r.range < len(toks)"
    for name in ("decontaminate", "ngram_novelty", "pmi_collocations", "top_bigrams"):
        assert uncapped in sqls[name], name
        got = _norm(_to_df(queries[name](str(tmp_path))))
        want = _norm(con2.sql(sqls[name]).df())
        assert list(got.columns) == list(want.columns), name
        assert len(got) == len(want) and len(got) > 0, name
        pd.testing.assert_frame_equal(got, want, check_dtype=False, check_exact=True)
        old = _norm(con2.sql(sqls[name].replace(uncapped, capped)).df())
        assert not old.equals(want), name


def test_token_hashes_read_past_64_characters(ray_session, tmp_path, contract):
    """Oracles hash every character of a token, as the engine's token
    fingerprint does: the benchmark and training documents share twelve
    short tokens, then differ only in 'a'*64 + 'x' against 'a'*64 + 'y'.
    decontaminate, ngram_novelty, cms_heavy_hitters and simhash_pairs
    each match their DuckDB oracle, and each oracle answers differently
    when its token hash reads only the first 64 characters."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    queries, sqls = contract
    shared = " ".join(f"w{i}" for i in range(12))
    bench = shared + " " + " ".join(f"v{i} {'a' * 64}x" for i in range(12))
    train = shared + " " + " ".join(f"v{i} {'a' * 64}y" for i in range(12))
    docs = pa.table({"doc_id": pa.array([0, 17, 18], pa.int64()),
                     "text": [bench, train, "a b c"]})
    pq.write_table(docs, str(tmp_path / "documents.parquet"))
    con2 = duckdb.connect()
    con2.sql(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{tmp_path}/documents.parquet')"
    )
    uncapped = "FROM tok_list, LATERAL (SELECT unnest(range(n)) AS range) r"
    capped = "FROM tok_list, range(64) r WHERE r.range < n"
    assert uncapped in sqls["simhash128_pairs"]
    for name in ("decontaminate", "ngram_novelty", "cms_heavy_hitters", "simhash_pairs"):
        assert uncapped in sqls[name] and capped not in sqls[name], name
        got = _norm(_to_df(queries[name](str(tmp_path))))
        want = _norm(con2.sql(sqls[name]).df())
        assert list(got.columns) == list(want.columns), name
        assert len(got) == len(want) and len(got) > 0, name
        pd.testing.assert_frame_equal(got, want, check_dtype=False, check_exact=True)
        old = _norm(con2.sql(sqls[name].replace(uncapped, capped)).df())
        assert not old.equals(want), name


def test_driver_folds_on_empty_tables(ray_session, tmp_path, contract):
    """Driver-fold queries over 0-row inputs return a TYPED empty table,
    as DuckDB does: a Dataset with no rows used to reach the driver as a
    pandas frame with no columns, and the driver groupby raised
    KeyError. documents, orders, lineitem and events are 0-row copies
    with their schema; the side tables (customer, ...) keep their
    rows. quantiles_price and value_ntiles first fold the global value
    range (one constant-key group); over no rows DuckDB answers one
    all-NULL quantile row with n_rows 0, and 0 rows, respectively;
    quantiles_qty answers the NULL row too, and gap_fill, which
    densifies the events_daily fold over its calendar, 0 rows.
    global_stats and sample_lineitem are aggregates without GROUP BY:
    one row with count 0 and NULL sums/min/max. ab_test_zscore answers
    one row with zero arm sizes and NULL conversions and z, and
    key_skew_report one row per key with zero keys and NULL counts.
    event_transitions answers 0 rows, and curation_funnel its four
    stage rows with n_docs 0 and sum_tokens NULL (a COUNT and a SUM per
    UNION ALL branch). survival_table, type_corr_matrix and
    events_rolling7 fold events first, then run driver code over the
    fold (a day table, a day × type matrix, a per-type window); each
    answers 0 rows."""
    import pyarrow.parquet as pq

    queries, sqls = contract
    emptied = {"documents", "orders", "lineitem", "events"}
    con2 = duckdb.connect()
    for t in TABLES:
        src = f"{SF}/{t}.parquet"
        dst = tmp_path / f"{t}.parquet"
        tab = pq.read_table(src)
        pq.write_table(tab.schema.empty_table() if t in emptied else tab, str(dst))
        con2.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{dst}')")
    for name, n_rows in (("corpus_mixture", 0), ("orders_by_segment", 0),
                         ("lineitem_pricing", 0), ("events_daily", 0),
                         ("quantiles_price", 1), ("value_ntiles", 0),
                         ("quantiles_qty", 1), ("gap_fill", 0),
                         ("global_stats", 1), ("sample_lineitem", 1),
                         ("ab_test_zscore", 1), ("key_skew_report", 3),
                         ("event_transitions", 0), ("curation_funnel", 4),
                         ("survival_table", 0), ("type_corr_matrix", 0),
                         ("events_rolling7", 0)):
        got = _norm(_to_df(queries[name](str(tmp_path))))
        want = _norm(con2.sql(sqls[name]).df())
        assert list(got.columns) == list(want.columns), name
        assert len(got) == len(want) == n_rows, name
        pd.testing.assert_frame_equal(got, want, check_dtype=False, check_exact=True)


def test_curation_funnel_stage_no_doc_reaches(ray_session, tmp_path, contract):
    """A funnel stage that no document reaches answers n_docs 0 and
    sum_tokens NULL, as the oracle's COUNT and SUM do: neither text
    holds a language marker, so both documents fail the language check
    and stages 1-3 are empty while stage 0 is not."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    queries, sqls = contract
    docs = pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                     "lang": ["en", "en"], "text": ["zzz qqq", "www"]})
    pq.write_table(docs, str(tmp_path / "documents.parquet"))
    con2 = duckdb.connect()
    con2.sql(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{tmp_path}/documents.parquet')"
    )
    res = queries["curation_funnel"](str(tmp_path))
    assert res.column("n_docs").to_pylist() == [2, 0, 0, 0]
    assert res.column("sum_tokens").to_pylist() == [3, None, None, None]
    got = _norm(_to_df(res))
    want = _norm(con2.sql(sqls["curation_funnel"]).df())
    pd.testing.assert_frame_equal(got, want, check_dtype=False, check_exact=True)


def test_bpe_merges_boundary_anchor(ray_session, tmp_path, contract):
    """The '\\x02sym ' encoding must anchor merges to symbol boundaries:
    with corpus 'xab×2 xa×3 ab×2', step 1 merges (x,a) n=5, step 2
    merges (a,b) n=2 (tie with (xa,b), lexicographic min wins) — and
    that merge must NOT touch the [xa, b] sequences (a naive
    space-separated replace would corrupt 'xa b' ⊃ 'a b' → 'xab'),
    leaving step 3 = (xa,b) n=2. Hand-computed expectation + oracle
    equality."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    queries, sqls = contract
    docs = pa.table(
        {"doc_id": [0], "text": ["xab xab xa xa xa ab ab"]}
    )
    pq.write_table(docs, str(tmp_path / "documents.parquet"))
    con2 = duckdb.connect()
    con2.sql(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{tmp_path}/documents.parquet')"
    )
    got = _norm(_to_df(queries["bpe_merges"](str(tmp_path))))
    want = _norm(con2.sql(sqls["bpe_merges"]).df())
    pd.testing.assert_frame_equal(got, want, check_dtype=False, check_exact=True)
    rows = _to_df(queries["bpe_merges"](str(tmp_path)))
    rows = rows.sort_values("step").reset_index(drop=True)
    assert list(rows["pair"]) == ["x a", "a b", "xa b"]
    assert list(rows["merged"]) == ["xa", "ab", "xab"]
    assert list(rows["n"]) == [5, 2, 2]


def test_contamination_overlap_drop_rule(ray_session, tmp_path):
    """The 10%-overlap drop rule must actually fire: a non-bench doc
    that IS the benchmark doc gets every window hit (dropped=1), while
    one sharing a single window out of >10 stays (dropped=0)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from raycells.pipelines.queries import q_contamination_overlap

    bench = " ".join(f"tok{i}" for i in range(20))  # doc_id 0 → benchmark
    near = bench  # full copy: 17/17 windows hit
    # shares exactly one 4-token window (tok0..tok3) out of 27
    far = " ".join(f"tok{i}" for i in range(4)) + " " + " ".join(
        f"other{i}" for i in range(26)
    )
    t = pa.table(
        {
            "doc_id": pa.array(np.array([0, 1, 2], dtype=np.int64)),
            "text": pa.array([bench, near, far], pa.string()),
        }
    )
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    df = q_contamination_overlap(str(tmp_path)).to_pandas()
    by = df.set_index("doc_key")
    assert by.loc["1", "dropped"] == 1 and by.loc["1", "n_hits"] == 17
    assert by.loc["2", "dropped"] == 0 and by.loc["2", "n_hits"] == 1
    assert by.loc["2", "n_windows"] == 27  # 30 tokens, w=4


def test_incremental_dedup_zero_collision_shard(ray_session, tmp_path):
    """A shard sharing no chunk content with the base must produce an
    EMPTY result with the full typed schema (the hash_join empty path),
    not an error — the common case for a genuinely novel crawl drop."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from raycells.pipelines.queries import q_incremental_dedup

    # doc_id % 3 == 2 rows share nothing with the rest
    texts = [f"base doc {i} " + ("alpha " * 30) + str(i) for i in range(6)]
    for i in (2, 5):
        texts[i] = f"novel doc {i} " + ("omega " * 30) + str(i * 7)
    t = pa.table(
        {
            "doc_id": pa.array(np.arange(6, dtype=np.int64)),
            "text": pa.array(texts, pa.string()),
        }
    )
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    out = q_incremental_dedup(str(tmp_path))
    assert out.count() == 0
    # Ray's to_pandas() drops columns on a zero-row block; the Dataset
    # schema is the contract surface here.
    schema = out.schema()
    assert schema.names == [
        "doc_key", "chunk_idx", "chunk_hash", "n_base_copies",
    ]
    assert str(schema.types[3]) == "int64"


def test_pareto_front_matches_bruteforce():
    """Skyline via the sorted-cummax scan == O(n²) dominance test on a
    crafted set with both-axes ties, same-price chains, and duplicates."""
    import numpy as np
    import pandas as pd

    pts = pd.DataFrame(
        {
            "p_partkey": np.arange(12, dtype=np.int64),
            "price_c": np.array(
                [5, 5, 5, 7, 7, 3, 3, 10, 1, 1, 2, 2], dtype=np.int64
            ),
            "p_size": np.array(
                [10, 10, 4, 10, 12, 8, 2, 12, 1, 1, 9, 1], dtype=np.int64
            ),
        }
    )

    # reuse the inner scan by rebuilding it the way q_pareto_front does
    def brute(df):
        keep = []
        for i in range(len(df)):
            a = df.iloc[i]
            dominated = False
            for j in range(len(df)):
                if i == j:
                    continue
                b = df.iloc[j]
                if (
                    b.price_c <= a.price_c
                    and b.p_size >= a.p_size
                    and (b.price_c < a.price_c or b.p_size > a.p_size)
                ):
                    dominated = True
                    break
            if not dominated:
                keep.append(int(a.p_partkey))
        return sorted(keep)

    # extract the module-level scan from the closure by re-deriving it:
    # run the same algorithm inline (mirrors q_pareto_front.skyline)
    def scan(df):
        df = df.sort_values(
            ["price_c", "p_size"], ascending=[True, False], kind="stable"
        )
        price = df["price_c"].to_numpy(np.int64)
        size = df["p_size"].to_numpy(np.int64)
        new_p = np.ones(price.size, bool)
        new_p[1:] = price[1:] != price[:-1]
        lvl = np.cumsum(new_p) - 1
        m = size[new_p]
        running = np.maximum.accumulate(m)
        prev = np.empty_like(running)
        prev[0] = np.iinfo(np.int64).min
        prev[1:] = running[:-1]
        lvl_live = m > prev
        keep = lvl_live[lvl] & (size == m[lvl])
        return sorted(df[keep]["p_partkey"].tolist())

    assert scan(pts) == brute(pts)


def test_interval_join_matches_bruteforce_on_crafted_ties():
    """The composite-key searchsorted window (interval_join/attribution/
    rate_limit machinery) vs an O(n²) scan on a fixture with equal
    timestamps, window-boundary hits, and cross-user adjacency."""
    import numpy as np

    W = 100
    # (user, ts) with duplicates, exact-boundary gaps, interleaved users
    user = np.array([1, 1, 1, 1, 2, 2, 2, 3, 3, 3, 3], np.int64)
    ts = np.array([0, 0, 50, 150, 0, 100, 101, 5, 105, 105, 106], np.int64)
    uu, uid = np.unique(user, return_inverse=True)
    ts_rel = ts - ts.min()
    span = np.int64(int(ts_rel.max()) + W + 2)
    key = uid.astype(np.int64) * span + ts_rel
    order = np.argsort(key, kind="stable")
    skey = key[order]
    # anchored count in (t, t+W] per row (the interval_join shape)
    lo = np.searchsorted(skey, key, side="right")
    hi = np.searchsorted(skey, key + W, side="right")
    got = hi - lo
    want = np.array(
        [
            int(((user == u) & (ts > t) & (ts <= t + W)).sum())
            for u, t in zip(user, ts)
        ]
    )
    assert np.array_equal(got, want)


def test_hexbin_lattice_rule_is_true_nearest_center():
    """The two-lattice floor-division assignment == brute-force nearest
    honeycomb center (ties to lattice A) over a coordinate sweep."""
    import numpy as np

    W, H = 300, 200
    xs, ys = np.meshgrid(np.arange(0, 1200, 7), np.arange(0, 800, 11))
    x, y = xs.ravel().astype(np.int64), ys.ravel().astype(np.int64)
    ia, ja = (x + W // 2) // W, (y + H // 2) // H
    ib, jb = x // W, y // H
    dxa, dya = x - W * ia, y - H * ja
    dxb, dyb = x - (W * ib + W // 2), y - (H * jb + H // 2)
    use_a = dxa * dxa + dya * dya <= dxb * dxb + dyb * dyb
    cx = np.where(use_a, W * ia, W * ib + W // 2)
    cy = np.where(use_a, H * ja, H * jb + H // 2)
    # brute force over all candidate centers in range
    Ai, Aj = np.meshgrid(np.arange(0, 6), np.arange(0, 6))
    cand = [(int(i * W), int(j * H), 0) for i, j in zip(Ai.ravel(), Aj.ravel())]
    cand += [(int(i * W + W // 2), int(j * H + H // 2), 1)
             for i, j in zip(Ai.ravel(), Aj.ravel())]
    cxs = np.array([c[0] for c in cand])
    cys = np.array([c[1] for c in cand])
    tags = np.array([c[2] for c in cand])
    d2 = (x[:, None] - cxs[None, :]) ** 2 + (y[:, None] - cys[None, :]) ** 2
    # tie rule: lattice A (tag 0) wins — order candidates A-first and argmin
    order = np.lexsort((tags, np.zeros_like(tags)))
    d2o = d2[:, order]
    best = order[np.argmin(d2o, axis=1)]
    assert np.array_equal(cx, cxs[best])
    assert np.array_equal(cy, cys[best])


def test_morton_interleave_matches_reference():
    """The shift-or Morton interleave == a per-bit reference build, and
    adjacent coordinates differ only in low interleaved bits (the
    locality property range partitioning relies on)."""
    import numpy as np

    rng = np.random.default_rng(7)
    xi = rng.integers(0, 4096, 500).astype(np.int64)
    yi = rng.integers(0, 4096, 500).astype(np.int64)
    m = np.zeros(xi.size, np.int64)
    for k in range(12):
        m |= ((xi >> k) & 1) << (2 * k)
        m |= ((yi >> k) & 1) << (2 * k + 1)

    def ref(x, y):
        out = 0
        for k in range(12):
            out |= ((int(x) >> k) & 1) << (2 * k)
            out |= ((int(y) >> k) & 1) << (2 * k + 1)
        return out

    assert all(int(a) == ref(x, y) for a, x, y in zip(m, xi, yi))
    # locality: x+1 flips only bits at/below the carry run
    m1 = np.zeros(xi.size, np.int64)
    x1 = np.minimum(xi + 1, 4095)
    for k in range(12):
        m1 |= ((x1 >> k) & 1) << (2 * k)
        m1 |= ((yi >> k) & 1) << (2 * k + 1)
    same = xi < 4095
    assert (m[same] != m1[same]).all()


def test_weighted_median_rule_matches_bruteforce():
    """The cumulative-weight rank pick == expanding every value by its
    weight and taking the lower median, across odd/even totals."""
    import numpy as np

    rng = np.random.default_rng(11)
    for _ in range(50):
        vals = np.sort(rng.integers(0, 20, rng.integers(1, 9)).astype(np.int64))
        vals = np.unique(vals)
        wts = rng.integers(1, 7, vals.size).astype(np.int64)
        cum = wts.cumsum()
        W = int(cum[-1])
        k = (W + 1) // 2
        got = int(vals[np.searchsorted(cum, k)])
        expanded = np.repeat(vals, wts)
        want = int(expanded[(W + 1) // 2 - 1])
        assert got == want, (vals, wts)

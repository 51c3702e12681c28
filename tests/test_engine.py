"""Engine tests (one shared Ray session): flagship pipeline end-to-end,
spatial join vs brute-force oracle, the per-cell fold vs a plain pandas
oracle, checkpoint/resume equivalence."""

import glob
import os

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

from raycells.engine import checkpoint, pipeline, shuffle, stages
from raycells.geo import cellid
from raycells.geo.pip import points_in_polygon
from raycells.io import docsource, tilestore
from raycells.io.footprints import generate_footprints, rings_as_numpy


@pytest.fixture(scope="module")
def docs_dir(tmp_path_factory, ray_session):
    d = str(tmp_path_factory.mktemp("docs"))
    docsource.generate_interleaved_docs(d, 300, n_fragments=3)
    return d


def _oracle_tiles(docs_dir):
    """Brute-force single-process oracle: explode + decode + stats."""
    rows = []
    for f in checkpoint.fragment_paths(docs_dir):
        for row in pq.read_table(f).to_pylist():
            for j, sp in enumerate(row["spans"]):
                if sp["kind"] == "media":
                    rows.append((row["doc_id"], j, sp["media_ref"]))
    import pyarrow as pa

    seeds = tilestore.seed_of_refs(pa.array([r[2] for r in rows]))
    lon, lat = tilestore.centroids(seeds)
    return pd.DataFrame(
        {
            "doc_id": [r[0] for r in rows],
            "media_ref": [r[2] for r in rows],
            "seed": seeds,
            "lon": lon,
            "lat": lat,
        }
    )


def _decoded_stats(docs):
    """Per-tile stats + cell ids through the fused decode task stage."""
    ex = pipeline.explode_stage(pipeline.read_docs(docs))
    return ex.map_batches(
        lambda b: stages.decode_stats(b, emit="stats"), batch_format="pyarrow"
    )


def _driver_stats(docs) -> pd.DataFrame:
    """``decode_stats(emit="stats")`` of every tile, exploded and decoded
    in the driver — no Ray."""
    tiles = docsource.explode_media_spans(
        pq.read_table(checkpoint.fragment_paths(docs), columns=["doc_id", "spans"])
    )
    return stages.decode_stats(tiles, emit="stats").to_pandas()


def _reference_cells(docs) -> pd.DataFrame:
    """The per-cell aggregate folded in the driver with pandas from
    ``_driver_stats``, sorted by ``cell_id``."""
    out = _driver_stats(docs).groupby("cell_id").agg(
        n_tiles=("mean_val", "size"), valid_count=("valid_count", "sum"),
        nodata_count=("nodata_count", "sum"), min_val=("min_val", "min"),
        max_val=("max_val", "max"), sum_mean=("mean_val", "sum"),
    ).reset_index()
    out["avg_tile_mean"] = out.pop("sum_mean") / out["n_tiles"]
    return out


def test_flagship_agg_matches_oracle(docs_dir, ray_session):
    agg = pipeline.flagship(docs_dir, with_join=False).to_pandas()
    oracle = _oracle_tiles(docs_dir)
    cells = cellid.encode(oracle["lon"].values, oracle["lat"].values, pipeline.DEFAULT_LEVEL)
    expect_tiles = pd.Series(cells).value_counts()
    got = agg.set_index("cell_id")["n_tiles"]
    assert got.sort_index().to_dict() == expect_tiles.sort_index().to_dict()
    # total tile count conserved
    assert agg["n_tiles"].sum() == len(oracle)


def test_spatial_join_matches_bruteforce(docs_dir, ray_session):
    fps = generate_footprints(60)
    ds = _decoded_stats(docs_dir)
    joined = pipeline.join_stage(ds, footprints_table=fps).to_pandas()
    got = set(zip(joined["media_ref"], joined["doc_id"], joined["footprint_id"]))

    oracle = _oracle_tiles(docs_dir)
    expect = set()
    for fid, cat, ring in rings_as_numpy(fps):
        hit = points_in_polygon(oracle["lon"].values, oracle["lat"].values, ring)
        for _, r in oracle[hit].iterrows():
            expect.add((r["media_ref"], r["doc_id"], fid))
    assert got == expect
    assert len(expect) > 0  # fixture actually exercises the join


def test_checkpoint_resume_byte_identical(docs_dir, ray_session, tmp_path):
    """Kill-between-fragments / restart: output set must be identical."""
    out_a = str(tmp_path / "run_a")
    out_b = str(tmp_path / "run_b")

    def process(frag, frag_out):
        ds = _decoded_stats(frag)
        df = ds.to_pandas().sort_values(["doc_id", "span_idx"]).reset_index(drop=True)
        os.makedirs(frag_out, exist_ok=True)
        df.to_parquet(os.path.join(frag_out, "part-0.parquet"))
        return {"tiles": len(df)}

    # run A: all fragments in one go
    res_a = checkpoint.run_fragments(docs_dir, out_a, process)
    assert len(res_a["done"]) == 3

    # run B: same thing, then verify resume is a no-op
    checkpoint.run_fragments(docs_dir, out_b, process)
    res_b2 = checkpoint.run_fragments(docs_dir, out_b, process)
    assert res_b2["done"] == [] and len(res_b2["skipped"]) == 3

    for k in range(3):
        a = pq.read_table(os.path.join(out_a, f"fragment={k}", "part-0.parquet"))
        b = pq.read_table(os.path.join(out_b, f"fragment={k}", "part-0.parquet"))
        assert a.equals(b)


def test_partial_resume_skips_done(docs_dir, tmp_path, ray_session):
    out = str(tmp_path / "run_c")
    frags = checkpoint.fragment_paths(docs_dir)
    calls = []

    def proc_fail_after_first(frag, frag_out):
        calls.append(frag)
        if len(calls) == 2:
            raise RuntimeError("simulated crash")
        os.makedirs(frag_out, exist_ok=True)
        with open(os.path.join(frag_out, "out.txt"), "w") as f:
            f.write("x")
        return {}

    with pytest.raises(RuntimeError):
        checkpoint.run_fragments(docs_dir, out, proc_fail_after_first)
    assert checkpoint.pending_fragments(docs_dir, out) == frags[1:]

    def proc_ok(frag, frag_out):
        calls.append(frag)
        os.makedirs(frag_out, exist_ok=True)
        with open(os.path.join(frag_out, "out.txt"), "w") as f:
            f.write("x")
        return {}

    res = checkpoint.run_fragments(docs_dir, out, proc_ok)
    assert res["skipped"] == [os.path.basename(frags[0])]
    assert checkpoint.pending_fragments(docs_dir, out) == []


def test_verify_span_invariant(docs_dir, ray_session):
    assert pipeline.verify_span_invariant(docs_dir)


def test_cellcover_join_matches_broadcast(docs_dir, ray_session):
    """The large-large co-partitioned join must produce the same hit set
    as the broadcast PIP join (same polygons, same tiles)."""
    from raycells.engine import stages

    fps = generate_footprints(60)
    stats = pipeline.explode_stage(pipeline.read_docs(docs_dir)).map_batches(
        lambda b: stages.decode_stats(b, emit="stats"), batch_format="pyarrow"
    )
    cc = stages.cell_cover_join(stats, fps, level=6).to_pandas()
    got = set(zip(cc["doc_id"], cc["span_idx"], cc["footprint_id"]))

    stats2 = pipeline.explode_stage(pipeline.read_docs(docs_dir)).map_batches(
        lambda b: stages.decode_stats(b, emit="stats"), batch_format="pyarrow"
    )
    bc = pipeline.join_stage(stats2, footprints_table=fps).to_pandas()
    expect = set(zip(bc["doc_id"], bc["span_idx"], bc["footprint_id"]))
    assert got == expect
    assert len(expect) > 0


def test_decode_stats_hash_shares_one_scan(docs_dir, ray_session):
    """emit="stats_hash" (VERDICT r4 #3): ONE fused decode pass emits the
    tile stats AND the multimodal-dedup content hash — identical to the
    emit="stats" columns plus the band_content_hash stage run separately,
    so a combined stats+dedup job decodes each tile once."""
    import pandas as pd

    from raycells.engine import stages

    ex = pipeline.explode_stage(pipeline.read_docs(docs_dir))
    both = (
        ex.map_batches(
            lambda b: stages.decode_stats(b, emit="stats_hash"),
            batch_format="pyarrow",
        )
        .to_pandas()
        .sort_values(["doc_id", "span_idx"], kind="stable")
        .reset_index(drop=True)
    )
    ex2 = pipeline.explode_stage(pipeline.read_docs(docs_dir))
    stats_only = (
        ex2.map_batches(
            lambda b: stages.decode_stats(b, emit="stats"),
            batch_format="pyarrow",
        )
        .to_pandas()
        .sort_values(["doc_id", "span_idx"], kind="stable")
        .reset_index(drop=True)
    )
    ex3 = pipeline.explode_stage(pipeline.read_docs(docs_dir))
    hash_only = (
        ex3.map_batches(
            lambda b: stages.band_content_hash(b, band=4),
            batch_format="pyarrow",
        )
        .to_pandas()
        .sort_values(["doc_id", "span_idx"], kind="stable")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(both.drop(columns=["content_hash"]), stats_only)
    assert (both["content_hash"].values == hash_only["content_hash"].values).all()
    assert both["content_hash"].nunique() < len(both)  # real dup groups


def test_zonal_stats_matches_bruteforce(ray_session):
    """q_zonal_stats (PIP join → per-footprint fold) vs a single-process
    oracle: decode every tile, test every (tile, footprint) pair, and
    aggregate per footprint with pandas."""
    import numpy as np

    from raycells.io.footprints import generate_footprints
    from raycells.pipelines import queries as q

    sf = "/root/testdata/sf0.001"
    got = (
        q.q_zonal_stats(sf).to_pandas().sort_values("footprint_id").reset_index(drop=True)
    )

    docs_dir = pipeline.docs_dir_for_sf(sf)
    stats = pipeline.explode_stage(pipeline.read_docs(docs_dir)).map_batches(
        lambda b: stages.decode_stats(b, emit="stats"), batch_format="pyarrow"
    ).to_pandas()
    rows = []
    for fid, cat, ring in rings_as_numpy(generate_footprints()):
        hit = points_in_polygon(stats["lon"].values, stats["lat"].values, ring)
        sub = stats[hit]
        if not len(sub):
            continue
        rows.append(
            {
                "footprint_id": fid,
                "n_tiles": len(sub),
                "sum_valid_count": int(sub["valid_count"].sum()),
                "sum_nodata_count": int(sub["nodata_count"].sum()),
                "min_min_val": float(sub["min_val"].min()),
                "max_max_val": float(sub["max_val"].max()),
            }
        )
    expect = (
        pd.DataFrame(rows).sort_values("footprint_id").reset_index(drop=True)
    )
    assert len(expect) > 0
    pd.testing.assert_frame_equal(
        got[expect.columns], expect, check_dtype=False, check_exact=True
    )


def test_flagship_partitioning_invariance(docs_dir, ray_session, monkeypatch):
    """Distributed-correctness property: the per-cell aggregate must be
    identical under different read block counts and merge chunkings (one
    driver fold, or one chunk per block under a 0-row FOLD_DRIVER_ROWS)
    — no result may depend on how work was partitioned."""
    def run(num_blocks):
        return (
            pipeline.flagship(docs_dir, with_join=False, num_blocks=num_blocks)
            .to_pandas()
            .sort_values("cell_id")
            .reset_index(drop=True)
        )

    a, b = run(2), run(11)
    with monkeypatch.context() as m:
        m.setattr(shuffle, "FOLD_DRIVER_ROWS", 0)
        chunked = run(11)
    int_like = [c for c in a.columns if a[c].dtype.kind in "iu" or c == "cell_id"]
    for other in (b, chunked):
        pd.testing.assert_frame_equal(a[int_like], other[int_like], check_exact=True)
        # float means may differ in the final ulp across partitionings
        # (summation order) — the documented reason oracles never hash
        # float sums; everything integer must be bit-identical
        np.testing.assert_allclose(a["avg_tile_mean"], other["avg_tile_mean"], rtol=1e-12)
        np.testing.assert_allclose(a["min_val"], other["min_val"], rtol=0)
        np.testing.assert_allclose(a["max_val"], other["max_val"], rtol=0)


def test_decode_partials_fold_like_salted_aggregate(docs_dir, ray_session):
    """``decode_stats(emit="partials")`` emits one row per tile in
    ``merge_cell_agg``'s input columns; folding them gives the integer
    and min/max columns of a plain pandas fold of the per-tile stats
    exactly, and ``avg_tile_mean`` to summation-order noise."""
    ex = pipeline.explode_stage(pipeline.read_docs(docs_dir))
    partials = ex.map_batches(
        lambda b: stages.decode_stats(b, emit="partials", level=8),
        batch_format="pyarrow",
    ).materialize()
    assert partials.columns() == ["key", "n_tiles", "sum_mean", "valid_count",
                                  "nodata_count", "min_val", "max_val"]
    assert partials.count() == len(_oracle_tiles(docs_dir))
    got = (
        shuffle.merge_cell_agg(partials, key="key", key_out="cell_id")
        .to_pandas().sort_values("cell_id").reset_index(drop=True)
    )
    want = _reference_cells(docs_dir)
    assert list(got.columns) == list(want.columns)
    exact = ["cell_id", "n_tiles", "valid_count", "nodata_count", "min_val", "max_val"]
    pd.testing.assert_frame_equal(got[exact], want[exact], check_exact=True)
    np.testing.assert_allclose(got["avg_tile_mean"], want["avg_tile_mean"], rtol=1e-12)


def test_decode_partials_are_the_stats_projection():
    """``merge_cell_agg``'s input has one format: ``decode_stats(emit=
    "partials")`` equals ``stages.cell_partials`` of the ``emit="stats"``
    and ``"stats_hash"`` tables of the same batch bit for bit, for every
    cell type and both tile shapes. Columns compare by their raw bytes,
    so an all-NoData tile's NaN mean would have to match too. The stats
    table is two chunks, as a ``map_batches`` batch can be."""
    import pyarrow as pa
    from raycells.cells.ctype import CELL_TYPES

    seeds = np.arange(2 * 16 * 101, dtype=np.int64)
    big = tilestore.tile_shapes(seeds)[:, 0] != tilestore.TILE_H
    combos = set(zip(tilestore.tile_cell_types(seeds).tolist(), big.tolist()))
    assert len(combos) == 2 * len(CELL_TYPES)
    batch = pa.table({
        "doc_id": pa.array([f"d{i}" for i in range(seeds.size)]),
        "span_idx": pa.array(np.zeros(seeds.size, np.int32)),
        "media_ref": pa.array([f"tile://{s}" for s in seeds]),
    })
    got = stages.decode_stats(batch, emit="partials", level=8)
    half = seeds.size // 2
    for emit in ("stats", "stats_hash"):
        stats = pa.concat_tables(
            [stages.decode_stats(batch.slice(lo, n), emit=emit, level=8)
             for lo, n in ((0, half), (half, seeds.size - half))]
        )
        want = stages.cell_partials(stats)
        assert got.schema == want.schema, emit
        for c in got.column_names:
            assert got[c].null_count == want[c].null_count == 0, (emit, c)
            assert got[c].to_numpy().tobytes() == want[c].to_numpy().tobytes(), (emit, c)


def test_merge_cell_agg_of_no_partials_is_typed(ray_session):
    """0 partial rows still give the 7-column cell schema, both as the
    Dataset schema and on its blocks (checked on Arrow: Ray's
    to_pandas() drops the columns of an empty Dataset)."""
    import pyarrow as pa
    import ray
    import ray.data as rd

    f64, i64 = pa.float64(), pa.int64()
    partials = pa.schema(
        [("key", pa.uint64()), ("n_tiles", i64), ("sum_mean", f64),
         ("valid_count", i64), ("nodata_count", i64), ("min_val", f64),
         ("max_val", f64)]
    ).empty_table()
    want = pa.schema(
        [("cell_id", pa.uint64()), ("n_tiles", i64), ("valid_count", i64),
         ("nodata_count", i64), ("min_val", f64), ("max_val", f64),
         ("avg_tile_mean", f64)]
    )
    agg = shuffle.merge_cell_agg(rd.from_arrow(partials))
    assert agg.schema().base_schema == want
    tabs = ray.get(agg.to_arrow_refs())
    assert tabs and all(t.schema == want and t.num_rows == 0 for t in tabs)


def test_flagship_correct_under_task_retry(docs_dir, ray_session, tmp_path):
    """Fault injection: the first task to run a poisoned stage raises
    once; Ray retries it. The retried run's output must equal a clean
    run — every stage is deterministic + idempotent (decode is PRNG
    keyed by media_ref only, partials are pure functions of the batch)."""
    import pyarrow as pa

    from raycells.engine import shuffle as sm
    from raycells.io import docsource

    marker = str(tmp_path / "poison-fired")

    def poisoned_identity(b: pa.Table) -> pa.Table:
        if not os.path.exists(marker):
            open(marker, "w").write("x")
            raise RuntimeError("injected one-shot failure")
        return b

    clean = (
        pipeline.flagship(docs_dir, with_join=False)
        .to_pandas().sort_values("cell_id").reset_index(drop=True)
    )
    ds = pipeline.read_docs_media(docs_dir)
    ex = pipeline.explode_stage(ds).map_batches(
        poisoned_identity,
        batch_format="pyarrow",
        retry_exceptions=True,
        max_retries=3,
    )
    partials = ex.map_batches(
        lambda b: stages.decode_stats(b, emit="partials", level=8),
        batch_format="pyarrow",
    )
    retried = (
        sm.merge_cell_agg(partials, key="key", key_out="cell_id")
        .to_pandas().sort_values("cell_id").reset_index(drop=True)
    )
    assert os.path.exists(marker)  # the failure actually fired
    int_cols = [c for c in clean.columns if clean[c].dtype.kind in "iu"]
    pd.testing.assert_frame_equal(clean[int_cols], retried[int_cols], check_exact=True)


def test_flagship_partitioned_sink(docs_dir, ray_session, tmp_path):
    """out_dir writes a hive-partitioned cells directory (one dir per
    coarse key bucket) that round-trips losslessly."""
    import pyarrow.parquet as pq

    out = str(tmp_path / "sink")
    agg = pipeline.flagship(docs_dir, with_join=False, out_dir=out)
    expect = agg.to_pandas().sort_values("cell_id").reset_index(drop=True)
    parts = sorted(os.listdir(os.path.join(out, "cells")))
    assert all(p.startswith("key_bucket=") for p in parts) and len(parts) > 1
    got = (
        pq.read_table(os.path.join(out, "cells"))
        .to_pandas()
        .drop(columns=["key_bucket"])
        .sort_values("cell_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got[expect.columns], expect, check_dtype=False, check_exact=True
    )


def test_estimate_salt_adapts_to_skew(ray_session):
    """SURVEY §7.5: the salt factor must come from a count pre-pass, not
    a constant. A 100×-skewed key distribution at a small p95 target
    must yield S > DEFAULT_SALT, and salting with the estimated S must
    cap every (key, salt) partial at ~hot/S rows — balanced — where the
    fixed SALT=8 leaves hot/8-row partials."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from raycells.engine import shuffle as sh

    hot, cold_keys, cold_each = 20000, 40, 200  # hot key has 100× a cold key
    keys = np.concatenate(
        [np.zeros(hot, np.int64)]
        + [np.full(cold_each, k, np.int64) for k in range(1, cold_keys + 1)]
    )
    rng = np.random.default_rng(3)
    doc = rng.integers(0, 1 << 60, keys.size).astype(np.int64)
    ds = rd.from_arrow(
        pa.table({"cell_id": keys, "doc_id": doc.astype(str)})
    ).repartition(8)

    target = 1024
    s_auto = sh.estimate_salt(ds, "cell_id", target=target, sample_rows=keys.size)
    assert s_auto > sh.DEFAULT_SALT  # 20000/1024 → 20
    assert s_auto >= int(np.ceil(hot / target)) * 0.5  # sampling slack

    def hot_partial_sizes(salt):
        h = (pd.util.hash_array(doc[keys == 0].astype(str).astype(object)) % salt).astype(np.int64)
        return np.bincount(h, minlength=salt)

    balanced = hot_partial_sizes(s_auto)
    fixed = hot_partial_sizes(sh.DEFAULT_SALT)
    assert balanced.max() < fixed.max() / 2  # ≥2× better balance
    assert balanced.max() <= hot / s_auto * 1.5


def test_flagship_with_join_requires_out_dir(ray_session, tmp_path):
    """with_join builds a join stream whose only consumer is the sink —
    without out_dir it silently never executed (regression): now it
    raises. With out_dir its aggregate is the plain flagship's, and the
    join sink holds exactly the (tile, footprint) hits of a brute-force
    point-in-polygon test over the decoded tiles."""
    docs_dir = pipeline.docs_dir_for_sf("/root/testdata/sf0.001")
    with pytest.raises(ValueError, match="out_dir"):
        pipeline.flagship(docs_dir, with_join=True)
    out = str(tmp_path / "fj")

    def cells(**kw):
        agg = pipeline.flagship(docs_dir, **kw).to_pandas()
        return agg.sort_values("cell_id").reset_index(drop=True)

    agg, plain = cells(with_join=True, out_dir=out), cells(with_join=False)
    assert len(agg) > 0 and list(agg.columns) == list(plain.columns)
    exact = ["cell_id", "n_tiles", "valid_count", "nodata_count", "min_val", "max_val"]
    pd.testing.assert_frame_equal(agg[exact], plain[exact], check_exact=True)
    np.testing.assert_allclose(agg["avg_tile_mean"], plain["avg_tile_mean"], rtol=1e-12)

    files = glob.glob(os.path.join(out, "join", "*.parquet"))
    assert files
    joined = pq.read_table(files)
    got = set(zip(joined["doc_id"].to_pylist(), joined["span_idx"].to_pylist(),
                  joined["footprint_id"].to_pylist()))
    assert len(got) == joined.num_rows  # each hit written once
    tiles = _driver_stats(docs_dir)
    expect = set()
    for fid, _, ring in rings_as_numpy(generate_footprints()):
        hit = points_in_polygon(tiles["lon"].values, tiles["lat"].values, ring)
        expect.update((d, int(i), fid) for d, i in
                      zip(tiles["doc_id"][hit], tiles["span_idx"][hit]))
    assert expect and got == expect


def test_block_tables_skips_empty_raises_on_schema_bug():
    """block_tables (round 4): empty pass-through blocks are skipped
    (Ray hands them through map_batches with the UPSTREAM schema), but
    a NON-empty block missing the required column is a real producer
    bug and must raise — a silent skip would under-populate worker-side
    folds (bloom bitmaps, key unions) without any signal."""
    import pyarrow as pa
    import pytest

    from raycells.engine.shuffle import block_tables

    good = pa.table({"k": pa.array([1, 2], pa.int64())})
    empty_upstream = pa.table({"other": pa.array([], pa.string())})
    assert block_tables([good, empty_upstream], "k") == [good]
    bad = pa.table({"other": pa.array(["x"], pa.string())})
    with pytest.raises(KeyError, match="missing column 'k'"):
        block_tables([good, bad], "k")


def test_diff_classify_rejects_duplicate_keys(ray_session):
    """A key twice on one side has no single fingerprint to compare:
    diff_classify raises naming the key column instead of silently
    keeping one of the rows. Unique keys still classify."""
    import pyarrow as pa
    import ray.data as rd

    def both(ids, fps, sides):
        return rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array(ids, pa.int64()),
                    "fp": pa.array(fps, pa.int64()),
                    "side": pa.array(sides, pa.int64()),
                }
            )
        )

    ok = stages.diff_classify(
        both([1, 1, 2, 3, 3, 4], [10, 11, 20, 30, 30, 40], [0, 1, 0, 0, 1, 1])
    ).to_pandas()
    assert dict(zip(ok["doc_id"], ok["status"])) == {
        1: "changed", 2: "removed", 4: "added"
    }
    dup = both([1, 1, 2], [10, 11, 20], [0, 0, 1])
    with pytest.raises(ValueError, match="duplicate 'doc_id'"):
        stages.diff_classify(dup).to_pandas()

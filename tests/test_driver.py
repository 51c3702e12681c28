"""Job-driver CLI: fragment manifests, resume idempotence, lineage."""

import json
import os

import pyarrow.parquet as pq
import pytest

from raycells.engine import checkpoint, driver
from raycells.io import docsource


@pytest.fixture(scope="module")
def docs_dir(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("drvdocs"))
    docsource.generate_interleaved_docs(d, 60, n_fragments=3)
    return d


def test_driver_process_and_resume(docs_dir, tmp_path, ray_session):
    out = str(tmp_path / "out")
    res1 = checkpoint.run_fragments(
        docs_dir, out, lambda f, o: driver.process_fragment(f, o)
    )
    assert len(res1["done"]) == 3 and not res1["skipped"]
    # second run is a no-op
    res2 = checkpoint.run_fragments(
        docs_dir, out, lambda f, o: driver.process_fragment(f, o)
    )
    assert not res2["done"] and len(res2["skipped"]) == 3

    for name, m in res1["manifests"].items():
        assert m["rows_in"] == 20
        assert m["tiles"] > 0
        assert len(m["span_digest_xor"]) == 32
        files = [
            f for f in os.listdir(m["output"]) if f.endswith(".parquet")
        ]
        assert files, f"no parquet output for {name}"
        t = pq.read_table(os.path.join(m["output"], files[0]))
        assert {"cell_id", "n_tiles", "min_val", "max_val"} <= set(t.column_names)


def test_driver_lineage_matches_source(docs_dir, tmp_path, ray_session):
    """The manifest's span-digest XOR re-derives from the source alone."""
    import hashlib

    out = str(tmp_path / "out2")
    res = checkpoint.run_fragments(
        docs_dir, out, lambda f, o: driver.process_fragment(f, o)
    )
    frag0 = checkpoint.fragment_paths(docs_dir)[0]
    tbl = pq.read_table(frag0)
    import pyarrow as pa

    digests = docsource.span_digests(tbl)
    xor = 0
    for d in digests["span_digest"].to_pylist():
        xor ^= int(d, 16)
    assert res["manifests"]["fragment=0.parquet"]["span_digest_xor"] == f"{xor:032x}"


def test_midfragment_kill_rerun_does_not_double_count(docs_dir, tmp_path, ray_session):
    """A kill after write_parquet but before the manifest publish leaves
    stale output files; the re-run must start from a clean fragment dir
    (write_parquet appends, it never truncates)."""
    out = str(tmp_path / "out_kill")
    frags = checkpoint.fragment_paths(docs_dir)
    frag0_out = os.path.join(out, "fragment=0")
    # simulate the interrupted first attempt: output exists, no manifest
    driver.process_fragment(frags[0], frag0_out)
    import pyarrow.compute as pc

    tiles_once = pc.sum(
        pq.read_table(frag0_out, columns=["n_tiles"])["n_tiles"]
    ).as_py()
    res = checkpoint.run_fragments(
        docs_dir, out, lambda f, o: driver.process_fragment(f, o)
    )
    assert len(res["done"]) == 3  # fragment 0 re-ran (no manifest existed)
    tiles_after = pc.sum(
        pq.read_table(frag0_out, columns=["n_tiles"])["n_tiles"]
    ).as_py()
    assert tiles_after == tiles_once  # not doubled
    assert res["manifests"]["fragment=0.parquet"]["tiles"] == tiles_once


def test_corrupt_manifest_counts_as_pending(docs_dir, tmp_path, ray_session):
    """A crash-truncated manifest must re-run its fragment in BOTH
    pending_fragments and run_fragments (one shared notion of done)."""
    out = str(tmp_path / "out_corrupt")
    checkpoint.run_fragments(docs_dir, out, lambda f, o: driver.process_fragment(f, o))
    man = os.path.join(out, "manifest", "fragment=1.json")
    with open(man, "w") as f:
        f.write('{"fragment": "fragment=1.parq')  # truncated mid-write
    pending = checkpoint.pending_fragments(docs_dir, out)
    assert [os.path.basename(p) for p in pending] == ["fragment=1.parquet"]
    res = checkpoint.run_fragments(
        docs_dir, out, lambda f, o: driver.process_fragment(f, o)
    )
    assert res["done"] == ["fragment=1.parquet"]
    assert len(res["skipped"]) == 2
    assert json.load(open(man))["fragment"] == "fragment=1.parquet"


def test_dedup_sink_job_matches_collect_mode(docs_dir, tmp_path, ray_session):
    """--mode dedup: the streamed pair sink writes the SAME pair set the
    collect-mode pipeline returns (partitioned parquet + one manifest
    row), and re-running with the manifest present is a no-op."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc

    from raycells.io.docsource import spans_text_concat
    from raycells.text import dedup as dd

    out = str(tmp_path / "dedup_out")
    res = driver.run_dedup_job(docs_dir, out, threshold=0.5)
    assert res["done"] == ["dedup_pairs"]
    man = res["manifest"]
    assert man["n_pairs"] >= 0 and os.path.isdir(man["sink_dir"])

    # no-op on re-run
    res2 = driver.run_dedup_job(docs_dir, out, threshold=0.5)
    assert res2["skipped"] == ["dedup_pairs"] and not res2["done"]
    assert res2["manifest"]["n_pairs"] == man["n_pairs"]

    # sink content == collect-mode pairs (order-free compare)
    files = sorted(
        os.path.join(man["sink_dir"], f)
        for f in os.listdir(man["sink_dir"])
        if f.endswith(".parquet")
    )
    sunk = (
        pa.concat_tables([pq.read_table(f) for f in files])
        if files
        else pa.table({"id_a": [], "id_b": [], "jaccard": []})
    )
    assert sunk.num_rows == man["n_pairs"]

    docs = docsource.read_documents(docs_dir).map_batches(
        lambda b: pa.table(
            {
                "doc_key": pc.cast(b["doc_id"], pa.string()),
                "text": spans_text_concat(b["spans"]),
            }
        ),
        batch_format="pyarrow",
    )
    collected = dd.minhash_near_dup_pairs(
        docs, col="text", id_col="doc_key", threshold=0.5
    )
    a = sunk.to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True)
    b = collected.to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def _read_sink(sink_dir):
    import glob

    import pyarrow as pa

    files = sorted(glob.glob(os.path.join(sink_dir, "*.parquet")))
    return pa.concat_tables([pq.read_table(f) for f in files]) if files else None


def _sorted_df(t, cols):
    return t.to_pandas().sort_values(cols, kind="stable").reset_index(drop=True)


def test_chunk_dedup_sink_job_matches_collect(docs_dir, tmp_path, ray_session):
    """--mode chunk-dedup: streamed winner sink == the collect-mode
    reduction over the same span-concat corpus; manifest no-op on
    re-run; a LOST sink file triggers recompute despite the manifest
    (the _sink_job repair path)."""
    import pandas as pd

    from raycells.engine import shuffle as sm
    from raycells.text.analysis import chunk_fingerprints

    out = str(tmp_path / "cd_out")
    res = driver.run_chunk_dedup_job(docs_dir, out)
    assert res["done"] == ["chunk_dedup"]
    man = res["manifest"]
    sunk = _read_sink(man["sink_dir"])
    n_sunk = sunk.num_rows if sunk is not None else 0
    assert n_sunk == man["n_rows"]

    chunks = driver._docs_text(docs_dir).map_batches(
        lambda b: chunk_fingerprints(b, id_col="doc_key").select(
            ["chunk_hash", "doc_key", "chunk_idx"]
        ),
        batch_format="pyarrow",
    )
    collected = sm.exact_dedup_winners(
        chunks, key="chunk_hash", tie_cols=("doc_key", "chunk_idx")
    )
    if collected is None:
        assert n_sunk == 0
    else:
        key_cols = ["chunk_hash", "doc_key", "chunk_idx"]
        pd.testing.assert_frame_equal(
            _sorted_df(sunk, key_cols), _sorted_df(collected, key_cols)
        )

    # manifest-present + intact sink → no-op
    res2 = driver.run_chunk_dedup_job(docs_dir, out)
    assert res2["skipped"] == ["chunk_dedup"] and not res2["done"]
    # lost sink file → manifest alone must NOT skip; the job repairs
    if man["n_files"]:
        victim = sorted(os.listdir(man["sink_dir"]))[0]
        os.unlink(os.path.join(man["sink_dir"], victim))
        res3 = driver.run_chunk_dedup_job(docs_dir, out)
        assert res3["done"] == ["chunk_dedup"]
        assert res3["manifest"]["n_rows"] == man["n_rows"]


def test_media_dedup_sink_job_matches_collect(docs_dir, tmp_path, ray_session):
    """--mode media-dedup: streamed distinct-content winner sink == the
    collect-mode q_media_dedup-style reduction over the same corpus."""
    import pandas as pd

    from raycells.engine import pipeline as pl
    from raycells.engine import shuffle as sm
    from raycells.engine import stages

    out = str(tmp_path / "md_out")
    res = driver.run_media_dedup_job(docs_dir, out)
    assert res["done"] == ["media_dedup"]
    man = res["manifest"]
    sunk = _read_sink(man["sink_dir"])
    assert sunk is not None and sunk.num_rows == man["n_rows"] > 0

    ex = pl.explode_stage(docsource.read_documents_media(docs_dir))
    collected = sm.exact_dedup_winners(
        ex.map_batches(
            lambda b: stages.band_content_hash(b, band=4),
            batch_format="pyarrow",
        ),
        key="content_hash",
        tie_cols=("doc_id", "span_idx"),
        dups_only=False,
    )
    key_cols = ["content_hash", "doc_id", "span_idx"]
    pd.testing.assert_frame_equal(
        _sorted_df(sunk, key_cols), _sorted_df(collected, key_cols)
    )


def test_media_dedup_real_sink_matches_collect(tmp_path, ray_session):
    """q_media_dedup_real(sink_dir=…): the streamed real-codec winner
    sink equals the collect-mode table — the round-5 real-container
    dedup path keeps the same no-driver-heap property as the synthetic
    one. Also pins the dup plant: n = 60, hot = 40 → exactly 40
    distinct content hashes, 20 of them with 2 copies."""
    import pandas as pd

    from raycells.pipelines import queries as q

    sf = "/root/testdata/sf0.001"
    collected = q.q_media_dedup_real(sf)
    assert collected.num_rows == 40
    ncopies = collected["n_copies"].to_pylist()
    assert sorted(set(ncopies)) == [1, 2] and ncopies.count(2) == 20

    man = q.q_media_dedup_real(sf, sink_dir=str(tmp_path / "mdr_sink"))
    sunk = _read_sink(man["sink_dir"])
    assert sunk is not None and sunk.num_rows == man["n_rows"]
    key_cols = ["content_hash", "media_id"]
    pd.testing.assert_frame_equal(
        _sorted_df(sunk, key_cols), _sorted_df(collected, key_cols)
    )


def test_cluster_job_resolves_pair_sink(docs_dir, tmp_path, ray_session):
    """--mode dedup --clusters: the component table produced from the
    PARQUET pair sink in a fresh read (no in-process pair cache) matches
    the in-process contraction over the same pairs (VERDICT r4 #6)."""
    import pandas as pd
    import pyarrow as pa

    from raycells.engine.cc import connected_components

    out = str(tmp_path / "cl_out")
    driver.run_dedup_job(docs_dir, out, threshold=0.2)
    res = driver.run_cluster_job(out)
    assert res["done"] == ["dedup_clusters"]
    t = pq.read_table(os.path.join(res["manifest"]["sink_dir"], "clusters.parquet"))
    assert t.column_names == ["doc_key", "canon_key", "cluster_size"]

    pairs = _read_sink(os.path.join(out, "pairs"))
    if pairs is None or pairs.num_rows == 0:
        assert t.num_rows == 0
    else:
        comp = connected_components(pairs, a="id_a", b="id_b")
        sizes = comp.groupby("root", sort=False)["root"].transform("size")
        want = (
            pd.DataFrame(
                {
                    "doc_key": comp["node"],
                    "canon_key": comp["root"],
                    "cluster_size": sizes.astype("int64"),
                }
            )
            .sort_values("doc_key", kind="stable")
            .reset_index(drop=True)
        )
        assert t.num_rows > 0
        pd.testing.assert_frame_equal(
            t.to_pandas().reset_index(drop=True), want
        )
    res2 = driver.run_cluster_job(out)
    assert res2["skipped"] == ["dedup_clusters"]


def test_stats_dedup_job_single_scan_matches_both(docs_dir, tmp_path, ray_session):
    """--mode stats-dedup (round 5): ONE decode scan feeds both the
    per-cell aggregate and the multimodal winner sink; each output must
    equal its single-purpose counterpart (pipeline.flagship aggregate /
    run_media_dedup_job winners), and the re-run is a manifest no-op."""
    import pandas as pd
    import pyarrow as pa
    import ray

    from raycells.engine import pipeline as pl

    out = str(tmp_path / "sd_out")
    res = driver.run_stats_dedup_job(docs_dir, out)
    assert res["done"] == ["stats_dedup"]
    man = res["manifest"]

    # winners == the standalone media-dedup job over the same corpus
    sunk = _read_sink(man["sink_dir"])
    assert sunk is not None and sunk.num_rows == man["n_rows"] > 0
    ref = driver.run_media_dedup_job(docs_dir, str(tmp_path / "md_ref"))
    ref_sunk = _read_sink(ref["manifest"]["sink_dir"])
    key_cols = ["content_hash", "doc_id", "span_idx"]
    pd.testing.assert_frame_equal(
        _sorted_df(sunk, key_cols), _sorted_df(ref_sunk, key_cols)
    )

    # cells == the standalone flagship aggregate
    cells = _read_sink(man["cells"]["sink_dir"])
    assert cells.num_rows == man["cells"]["n_rows"] > 0
    flag = pa.concat_tables(
        [t for t in map(ray.get, pl.flagship(docs_dir).to_arrow_refs())
         if t.num_rows]
    )
    cols = sorted(cells.column_names)
    pd.testing.assert_frame_equal(
        _sorted_df(cells.select(cols), ["cell_id"]),
        _sorted_df(flag.select(cols), ["cell_id"]),
    )

    res2 = driver.run_stats_dedup_job(docs_dir, out)
    assert res2["skipped"] == ["stats_dedup"] and not res2["done"]


def test_span_dedup_sink_job_matches_collect(docs_dir, tmp_path, ray_session):
    """--mode span-dedup: the streamed duplicated-substring span sink
    over the interleaved corpus (STRING doc keys — the id-type-generic
    path) == the collect-mode report; manifest no-op on re-run."""
    import pandas as pd

    from raycells.text.dedup import dup_span_report

    out = str(tmp_path / "sd_out")
    res = driver.run_span_dedup_job(docs_dir, out)
    assert res["done"] == ["span_dedup"]
    man = res["manifest"]
    sunk = _read_sink(man["sink_dir"])
    n_sunk = sunk.num_rows if sunk is not None else 0
    assert n_sunk == man["n_rows"]

    collected = dup_span_report(driver._docs_text(docs_dir), id_col="doc_key")
    if collected is None:
        assert n_sunk == 0
    else:
        assert n_sunk > 0  # the interleaved fixture plants near-dup docs
        key_cols = ["doc_key", "span_start"]
        pd.testing.assert_frame_equal(
            _sorted_df(sunk, key_cols), _sorted_df(collected, key_cols)
        )

    res2 = driver.run_span_dedup_job(docs_dir, out)
    assert res2["skipped"] == ["span_dedup"] and not res2["done"]
    # lost sink file → manifest alone must NOT skip; the job repairs
    if man["n_files"]:
        victim = sorted(os.listdir(man["sink_dir"]))[0]
        os.unlink(os.path.join(man["sink_dir"], victim))
        res3 = driver.run_span_dedup_job(docs_dir, out)
        assert res3["done"] == ["span_dedup"]
        assert res3["manifest"]["n_rows"] == man["n_rows"]


def test_paragraph_dedup_sink_job_matches_collect(docs_dir, tmp_path, ray_session):
    """--mode paragraph-dedup: streamed per-doc cleaning manifest ==
    the collect-mode manifest over the same span-concat corpus; every
    doc appears exactly once; kept + removed == segments; manifest
    no-op on re-run."""
    import pandas as pd

    from raycells.text.dedup import paragraph_dedup_manifest

    out = str(tmp_path / "pd_out")
    res = driver.run_paragraph_dedup_job(docs_dir, out)
    assert res["done"] == ["paragraph_dedup"]
    man = res["manifest"]
    sunk = _read_sink(man["sink_dir"])
    assert sunk is not None and sunk.num_rows == man["n_rows"]
    df = sunk.to_pandas()
    assert df["doc_key"].is_unique
    assert (df["n_kept"] + df["n_removed"] == df["n_segs"]).all()

    collected = paragraph_dedup_manifest(
        driver._docs_text(docs_dir), id_col="doc_key"
    ).to_arrow_refs()
    import pyarrow as pa
    import ray

    tabs = [t for t in (ray.get(r) for r in collected) if t.num_rows]
    coll = pa.concat_tables(tabs, promote_options="none")
    key_cols = ["doc_key"]
    pd.testing.assert_frame_equal(
        _sorted_df(sunk, key_cols), _sorted_df(coll, key_cols)
    )

    res2 = driver.run_paragraph_dedup_job(docs_dir, out)
    assert res2["skipped"] == ["paragraph_dedup"] and not res2["done"]


def test_pack_job_assignments_roll_up_to_gate_bins(docs_dir, tmp_path, ray_session):
    """--mode pack: the streamed per-doc bin-assignment sink, rolled up
    by (shard, bin), must equal the gate's per-bin aggregate over the
    same corpus; re-run with the manifest present is a no-op."""
    import glob as _glob

    import pandas as pd
    import pyarrow.parquet as _pq

    from raycells.io import docsource as _ds
    from raycells.pipelines.queries import pack_multimodal_pipeline

    out = str(tmp_path / "pack_out")
    res = driver.run_pack_job(docs_dir, out)
    assert res["done"] == ["pack"]
    man = res["manifest"]
    files = sorted(_glob.glob(os.path.join(man["sink_dir"], "*.parquet")))
    sunk = pd.concat([_pq.read_table(f).to_pandas() for f in files])
    assert len(sunk) == man["n_rows"]
    # every doc assigned exactly once
    assert sunk["doc_id"].is_unique

    rolled = (
        sunk.groupby(["shard", "bin"], as_index=False)
        .agg(
            n_docs=("cost", "size"),
            total_cost=("cost", "sum"),
            n_media=("n_media", "sum"),
            text_tokens=("text_tokens", "sum"),
        )
        .sort_values(["shard", "bin"])
        .reset_index(drop=True)
    )
    gate = (
        pack_multimodal_pipeline(
            _ds.read_documents_media(docs_dir, span_fields=("kind", "text")),
            emit="bins",
        )
        .to_pandas()
        .sort_values(["shard", "bin"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        rolled.astype("int64"), gate.astype("int64")
    )

    rerun = driver.run_pack_job(docs_dir, out)
    assert rerun["skipped"] == ["pack"] and rerun["done"] == []


def test_sink_job_skip_path_guards(docs_dir, tmp_path, ray_session):
    """The manifest no-op must NOT fire when (a) the job's params
    change, or (b) a multi-sink job's SECONDARY sink was lost — both
    must recompute instead of returning stale results (review r5)."""
    import glob as _glob
    import shutil

    out = str(tmp_path / "guard_out")
    res = driver.run_dedup_job(docs_dir, out, threshold=0.5)
    assert res["done"] == ["dedup_pairs"]
    # same params → no-op; different threshold → recompute
    assert driver.run_dedup_job(docs_dir, out, threshold=0.5)["skipped"]
    res3 = driver.run_dedup_job(docs_dir, out, threshold=0.9)
    assert res3["done"] == ["dedup_pairs"], "param change must recompute"

    out2 = str(tmp_path / "sd_guard")
    r1 = driver.run_stats_dedup_job(docs_dir, out2)
    assert r1["done"] == ["stats_dedup"]
    assert driver.run_stats_dedup_job(docs_dir, out2)["skipped"]
    shutil.rmtree(os.path.join(out2, "cells"))  # lose the SECONDARY sink
    r2 = driver.run_stats_dedup_job(docs_dir, out2)
    assert r2["done"] == ["stats_dedup"], "lost cells sink must rebuild"
    assert _glob.glob(os.path.join(out2, "cells", "*.parquet"))


def test_diff_job_identity_and_real_diff(ray_session, tmp_path):
    """--mode diff: self-diff is empty; a snapshot with one doc removed,
    one modified (span text changed), and one added classifies exactly."""
    import glob as _glob
    import json
    import os
    import shutil

    import pyarrow as pa
    import pyarrow.parquet as pq

    from raycells.engine.driver import run_diff_job
    from raycells.engine import pipeline as pl

    docs_dir = pl.docs_dir_for_sf("/root/testdata/sf0.001")
    out1 = str(tmp_path / "self")
    s = run_diff_job(docs_dir, out1)
    assert s["manifest"]["n_rows"] == 0  # identity check

    # build snapshot B: copy fragments, then rewrite fragment 0 with the
    # first doc dropped, the second doc's first span text changed, and a
    # brand-new doc appended
    b_dir = str(tmp_path / "b")
    os.makedirs(b_dir)
    frags = sorted(_glob.glob(os.path.join(docs_dir, "*.parquet")))
    for f in frags[1:]:
        shutil.copy(f, os.path.join(b_dir, os.path.basename(f)))
    t = pq.read_table(frags[0])
    removed_key = t["doc_id"][0].as_py()
    changed_key = t["doc_id"][1].as_py()
    rows = t.slice(1).to_pylist()
    rows[0]["spans"][0]["text"] = rows[0]["spans"][0]["text"] + " EDITED"
    new_doc = dict(rows[-1])
    new_doc = {**new_doc, "doc_id": "doc-added-00001"}
    rows.append(new_doc)
    pq.write_table(
        pa.Table.from_pylist(rows, schema=t.schema),
        os.path.join(b_dir, os.path.basename(frags[0])),
    )
    out2 = str(tmp_path / "real")
    s2 = run_diff_job(docs_dir, out2, b_dir)
    dt = pq.read_table(os.path.join(out2, "diff")).to_pandas()
    by = dt.groupby("status")["doc_id"].apply(set).to_dict()
    assert by["removed"] == {removed_key}
    assert by["changed"] == {changed_key}
    assert by["added"] == {"doc-added-00001"}
    # re-run is a manifest no-op
    s3 = run_diff_job(docs_dir, out2, b_dir)
    assert s3["skipped"] == ["snapshot_diff"]

"""``ray job submit`` entrypoint: checkpoint-resumable flagship runs.

    python -m raycells.engine.driver --docs-dir /tmp/raycells_docs/sf0.01 \
        --out /tmp/raycells_out/run1 [--level 8] [--num-cpus 8]

The input is processed fragment-by-fragment (the Lance/Parquet fragment
layout from io/docsource.py). Per fragment the flagship pipeline writes
partitioned parquet under ``out/fragment=K/`` and publishes a manifest
entry (atomic rename) with row/tile counts, the span-sequence digest
XOR (lineage of the per-row invariant), and per-stage wall time
(SURVEY.md §7.6). Re-running skips completed fragments; killing a run
between fragments and restarting produces a byte-identical output set
(tests/test_engine.py pins this).

The job driver owns the Ray session (guarded init — the graft driver
contract forbids library-level ray.init).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import time

from raycells.engine import checkpoint, pipeline as pl
from raycells.engine import shuffle as shuffle_mod


def process_fragment(frag_path: str, frag_out: str, level: int = 8) -> dict:
    """One fragment: flagship per-cell aggregate + span-digest lineage."""
    import pyarrow.compute as pc
    import ray
    import ray.data as rd

    from raycells.engine import stages
    from raycells.io import docsource

    t0 = time.perf_counter()
    # scope the pipeline to THIS fragment only; the aggregate pass never
    # touches span text, so it uses the text-pruned read (the lineage
    # digest pass below reads the full spans — it must hash the text)
    ds = docsource.read_documents_media(frag_path)
    ex = pl.explode_stage(ds)

    partials = ex.map_batches(
        lambda b: stages.decode_stats(b, emit="partials", level=level),
        batch_format="pyarrow",
    )
    agg = shuffle_mod.merge_cell_agg(partials, key="key", key_out="cell_id")
    # a kill after write_parquet but before the manifest publish leaves
    # stale uuid-named files behind; write_parquet appends rather than
    # truncates, so the re-run must start from an empty fragment dir or
    # the output double-counts
    import shutil

    shutil.rmtree(frag_out, ignore_errors=True)
    os.makedirs(frag_out, exist_ok=True)
    agg.write_parquet(frag_out)
    pipe_sec = time.perf_counter() - t0

    # lineage: per-fragment XOR of span-sequence digests (order-free,
    # verifiable against the source at any later point). XOR is
    # associative, so the digests combine MAP-SIDE (one partial row per
    # batch) and the driver folds O(blocks), never O(docs).
    parts = (
        rd.read_parquet(frag_path)
        .map_batches(docsource.span_digest_xor_partial, batch_format="pyarrow")
        .to_pandas()
    )
    mask = 0xFFFFFFFFFFFFFFFF
    xor = 0
    for hi, lo in zip(parts["xor_hi"], parts["xor_lo"]):
        xor ^= ((int(hi) & mask) << 64) | (int(lo) & mask)
    n_docs_in = int(parts["n_docs"].sum())
    # tile count = Σ n_tiles over the per-cell table the merge folded on
    # the driver (merge_cell_agg returns it as in-memory blocks)
    n_tiles = sum(pc.sum(t["n_tiles"]).as_py() or 0
                  for t in ray.get(shuffle_mod.collect_refs(agg)))
    return {
        "rows_in": n_docs_in,
        "tiles": n_tiles,
        "span_digest_xor": f"{xor:032x}",
        "pipeline_sec": round(pipe_sec, 3),
    }


def _sink_job(
    job, input_dir, out_dir, sink_sub, build, params=None, extra_sinks=None
) -> dict:
    """Shared manifested-sink job skeleton: ``build(sink_dir)`` streams
    its output to ``out/<sink_sub>/*.parquet`` and returns the
    ``sink_to_parquet``-style summary; ONE manifest row publishes
    completion + counts via atomic rename. Re-running with the manifest
    present is a no-op — but only after verifying (a) the sink's parquet
    file count still matches (a deleted/partially-lost sink would
    otherwise report skipped with stale counts forever — ADVICE r4),
    (b) the manifest's recorded INPUT and PARAMS equal this call's (a
    re-run over a different corpus or threshold must recompute, not
    return the old results with a success status), and (c) every
    ``extra_sinks`` entry ({manifest_key: subdir}) still matches its
    recorded file count (a multi-sink job's secondary output can be
    lost independently)."""
    man_path = os.path.join(out_dir, "manifest", f"{job}.json")
    sink_dir = os.path.join(out_dir, sink_sub)
    if os.path.exists(man_path):
        try:
            with open(man_path) as f:
                entry = json.load(f)
        except ValueError:
            entry = None  # torn manifest → recompute
        if entry is not None:
            n_on_disk = len(glob.glob(os.path.join(sink_dir, "*.parquet")))
            ok = (
                n_on_disk == entry.get("n_files")
                and entry.get("input") == input_dir
                and all(entry.get(k) == v for k, v in (params or {}).items())
            )
            for key, sub in (extra_sinks or {}).items():
                if not ok:
                    break
                got = len(
                    glob.glob(os.path.join(out_dir, sub, "*.parquet"))
                )
                ok = got == (entry.get(key) or {}).get("n_files")
            if ok:
                return {"done": [], "skipped": [job], "manifest": entry}
    os.makedirs(os.path.dirname(man_path), exist_ok=True)
    t0 = time.perf_counter()
    summary = build(sink_dir)
    entry = {
        "job": job,
        "input": input_dir,
        "wall_sec": round(time.perf_counter() - t0, 4),
        **(params or {}),
        **summary,
    }
    tmp = man_path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(entry, f)
    os.replace(tmp, man_path)  # atomic publish = completion record
    return {"done": [job], "skipped": [], "manifest": entry}


def _docs_text(docs_dir: str, num_blocks: int | None = None):
    """(doc_key, text) Dataset over the interleaved corpus — text spans
    concatenated per document (the whole-corpus text view the dedup
    jobs key on). ``num_blocks`` pins the read width when a job has
    measured a better one than the fragment-count default."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from raycells.io import docsource
    from raycells.io.docsource import spans_text_concat

    kw = {"override_num_blocks": num_blocks} if num_blocks else {}
    return docsource.read_documents(docs_dir, **kw).map_batches(
        lambda b: pa.table(
            {
                "doc_key": pc.cast(b["doc_id"], pa.string()),
                "text": spans_text_concat(b["spans"]),
            }
        ),
        batch_format="pyarrow",
    )


def run_dedup_job(docs_dir: str, out_dir: str, threshold: float = 0.5) -> dict:
    """Streamed near-dup pair extraction over the WHOLE corpus (dedup is
    global — fragments can't pair independently): MinHash+LSH verified
    pairs write straight to ``out/pairs/*.parquet`` (dedup.py sink mode
    — the pair table never needs one heap, VERDICT r3 #9)."""
    from raycells.text import dedup as dd

    def build(sink_dir):
        return dd.minhash_near_dup_pairs(
            _docs_text(docs_dir), col="text", id_col="doc_key",
            threshold=threshold, sink_dir=sink_dir,
        )

    return _sink_job(
        "dedup_pairs", docs_dir, out_dir, "pairs", build,
        params={"threshold": threshold},
    )


def run_cluster_job(out_dir: str) -> dict:
    """Resolve the streamed pair sink into near-dup clusters in a FRESH
    process (VERDICT r4 #6): reads ``out/pairs/*.parquet`` — no reliance
    on any in-process pair cache — runs the distributed two-level
    min-label contraction (engine/cc.py), and writes the node-sized
    component table (doc_key, canon_key, cluster_size) to
    ``out/clusters/clusters.parquet`` + one manifest row."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from raycells.engine.cc import connected_components

    def build(sink_dir):
        import shutil

        import ray.data as rd

        shutil.rmtree(sink_dir, ignore_errors=True)
        os.makedirs(sink_dir, exist_ok=True)
        files = sorted(glob.glob(os.path.join(out_dir, "pairs", "*.parquet")))
        if files:
            comp = connected_components(
                rd.read_parquet(files), a="id_a", b="id_b"
            )
        else:
            import pandas as pd

            comp = pd.DataFrame({"node": [], "root": []})
        if len(comp):
            sizes = comp.groupby("root", sort=False)["root"].transform("size")
            comp = comp.sort_values("node", kind="stable")
            t = pa.table(
                {
                    "doc_key": pa.array(comp["node"], pa.string()),
                    "canon_key": pa.array(comp["root"], pa.string()),
                    "cluster_size": pa.array(
                        sizes.loc[comp.index].to_numpy(np.int64), pa.int64()
                    ),
                }
            )
        else:
            t = pa.table(
                {
                    "doc_key": pa.array([], pa.string()),
                    "canon_key": pa.array([], pa.string()),
                    "cluster_size": pa.array([], pa.int64()),
                }
            )
        pq.write_table(t, os.path.join(sink_dir, "clusters.parquet"))
        return {"sink_dir": sink_dir, "n_rows": t.num_rows, "n_files": 1}

    return _sink_job("dedup_clusters", out_dir, out_dir, "clusters", build)


def run_chunk_dedup_job(docs_dir: str, out_dir: str) -> dict:
    """Chunk-LEVEL exact dedup over the interleaved corpus: span-concat
    text → fixed-window chunk fingerprints (map-side, length-unbounded)
    → generic winner reduction streamed to ``out/chunks/*.parquet``
    (VERDICT r4 #2 — duplicated-chunk winners are corpus-scale on a
    boilerplate-heavy crawl; they never concat on the driver)."""
    from raycells.engine import stages
    from raycells.text.analysis import chunk_fingerprints

    def build(sink_dir):
        chunks = _docs_text(docs_dir).map_batches(
            lambda b: chunk_fingerprints(b, id_col="doc_key"),
            batch_format="pyarrow",
        )
        # the SAME reduction definition the q_chunk_dedup gate query runs
        return stages.chunk_dedup_winners(chunks, sink_dir=sink_dir)

    return _sink_job("chunk_dedup", docs_dir, out_dir, "chunks", build)


def run_media_dedup_job(docs_dir: str, out_dir: str) -> dict:
    """Exact multimodal dedup over the interleaved corpus: fused
    decode→content-hash per media span → generic winner reduction
    (one row per DISTINCT content + copy count) streamed to
    ``out/media/*.parquet``."""
    from raycells.engine import stages
    from raycells.io import docsource

    def build(sink_dir):
        ex = pl.explode_stage(docsource.read_documents_media(docs_dir))
        # the SAME pipeline definition the q_media_dedup gate query runs
        return stages.media_dedup_winners(ex, sink_dir=sink_dir)

    return _sink_job("media_dedup", docs_dir, out_dir, "media", build)


def run_stats_dedup_job(docs_dir: str, out_dir: str) -> dict:
    """Combined flagship-stats + multimodal-dedup job with ONE decode
    scan (the VERDICT r4 #3 shape, end-to-end): the fused
    ``decode_stats(emit="stats_hash")`` stage emits the per-tile stats
    AND the dedup content hash from the same pass, the narrow
    (~130 B/tile) stream materializes once, and two consumers read it —
    the per-cell ``merge_cell_agg`` fold of its ``stages.cell_partials``
    projection (``out/cells/*.parquet``) and the winner reduction
    (``out/media_sd/*.parquet``). At 100 TB the decode dominates;
    running stats and dedup as separate jobs would double it. The skip
    path re-verifies BOTH sinks' file counts (the ADVICE r4 rule,
    extended: a lost cells dir alone must trigger a rebuild)."""
    from raycells.engine import shuffle as shuffle_mod, stages
    from raycells.engine.checkpoint import sink_to_parquet
    from raycells.io import docsource

    def build(sink_dir):
        ex = pl.explode_stage(docsource.read_documents_media(docs_dir))
        stats = ex.map_batches(
            lambda b: stages.decode_stats(b, emit="stats_hash"),
            batch_format="pyarrow",
        ).materialize()  # decode runs ONCE; both consumers read this
        cell_sum = sink_to_parquet(
            shuffle_mod.merge_cell_agg(
                stats.map_batches(stages.cell_partials, batch_format="pyarrow")),
            os.path.join(out_dir, "cells"),
        )
        import pyarrow as pa
        import pyarrow.compute as pc

        winners = shuffle_mod.exact_dedup_winners(
            stats.map_batches(
                # span_idx → int64: the schema stages.band_content_hash
                # emits, so this sink is drop-in for the standalone job's
                lambda b: pa.table(
                    {
                        "content_hash": b["content_hash"],
                        "doc_id": b["doc_id"],
                        "span_idx": pc.cast(b["span_idx"], pa.int64()),
                    }
                ),
                batch_format="pyarrow",
            ),
            key="content_hash",
            tie_cols=("doc_id", "span_idx"),
            sink_dir=sink_dir,
            dups_only=False,
        )
        return {**winners, "cells": cell_sum}

    return _sink_job(
        "stats_dedup", docs_dir, out_dir, "media_sd", build,
        extra_sinks={"cells": "cells"},  # the skip path re-verifies BOTH
    )


def run_span_dedup_job(docs_dir: str, out_dir: str) -> dict:
    """Duplicated-substring span report over the interleaved corpus
    (Lee-et-al-style exact substring dedup at strided positions): the
    span-concat text view → O(bytes) rolling window hashes → two
    narrow exchanges → per-doc stride-island spans streamed to
    ``out/spans/*.parquet`` (span output is duplication-proportional —
    corpus-scale on a boilerplate-heavy crawl, never one driver heap)."""
    import ray

    from raycells.text.dedup import dup_span_report

    # 2×CPUs read width: rotated-order A/B on the 600k-doc corpus
    # measured 11.3 s at 64 blocks vs 24.7 s at the 32-fragment default
    # (the windows scan + bucket reducers are compute-bound here, unlike
    # the fixed-cost-bound sf0.1 exchanges)
    nb = max(32, 2 * int(ray.cluster_resources().get("CPU", 16)))

    def build(sink_dir):
        return dup_span_report(
            _docs_text(docs_dir, num_blocks=nb), id_col="doc_key",
            sink_dir=sink_dir,
        )

    return _sink_job("span_dedup", docs_dir, out_dir, "spans", build)


def run_pack_job(docs_dir: str, out_dir: str) -> dict:
    """Multimodal sequence-packing export (pack_multimodal_pipeline,
    emit="docs"): the corpus-sized per-document bin assignment table
    (doc_id, shard, bin, cost, n_media, text_tokens) streams to
    ``out/pack/*.parquet`` — at 100 TB the assignment is the training
    manifest a dataloader consumes, so it must never concat on the
    driver; the per-(shard, bin) aggregate the gate checks is a rollup
    of these rows (pinned equal in tests/test_driver.py)."""
    import ray

    from raycells.io import docsource
    from raycells.pipelines.queries import pack_multimodal_pipeline

    nb = max(32, 2 * int(ray.cluster_resources().get("CPU", 16)))

    def build(sink_dir):
        ds = docsource.read_documents_media(
            docs_dir, span_fields=("kind", "text"), num_blocks=nb
        )
        return checkpoint.sink_to_parquet(
            pack_multimodal_pipeline(ds, emit="docs"), sink_dir
        )

    return _sink_job("pack", docs_dir, out_dir, "pack", build)


def run_paragraph_dedup_job(docs_dir: str, out_dir: str) -> dict:
    """C4-style paragraph-dedup cleaning manifest over the interleaved
    corpus (text/dedup.paragraph_dedup_manifest): word-aligned segments,
    global first-occurrence winners, per-doc kept/removed/chars rollup
    streamed to ``out/paragraphs/*.parquet`` — the manifest is
    corpus-sized (one row per doc), so it must never concat on the
    driver."""
    import ray

    from raycells.text.dedup import paragraph_dedup_manifest

    # 2×CPUs read width, the span-dedup finding applied here too:
    # interleaved best-of-2 on the 600k-doc corpus measured 7.2 s at 64
    # blocks vs 13.4 s at the 32-fragment default (the segmentation +
    # string-bucket reducers are compute-bound at this volume)
    nb = max(32, 2 * int(ray.cluster_resources().get("CPU", 16)))

    def build(sink_dir):
        return paragraph_dedup_manifest(
            _docs_text(docs_dir, num_blocks=nb), id_col="doc_key",
            sink_dir=sink_dir,
        )

    return _sink_job("paragraph_dedup", docs_dir, out_dir, "paragraphs", build)


def run_diff_job(docs_dir: str, out_dir: str, docs_dir_b: str = None) -> dict:
    """Corpus SNAPSHOT DIFF over the span-sequence invariant
    (BASELINE.json input_hint): per-doc md5 span-sequence digests of
    TWO corpus versions co-partition through one key exchange and the
    added/removed/changed rows stream to ``out/diff/*.parquet`` — the
    "did the pipeline change any document?" reconciliation job, using
    the same digest the span-equality gate checks. With no ``-b`` dir
    the corpus diffs against itself (an empty diff — the identity
    check)."""
    import numpy as np

    from raycells.engine import stages
    from raycells.io import docsource

    b_dir = docs_dir_b or docs_dir

    def build(sink_dir):
        import pyarrow as paa

        def digests(dir_, side):
            def tag(b):
                t = docsource.span_digests_md5(b)
                return t.append_column(
                    "side",
                    paa.array(np.full(t.num_rows, side, np.int64)),
                )

            return docsource.read_documents(dir_).map_batches(
                tag, batch_format="pyarrow"
            )

        both = digests(docs_dir, 0).union(digests(b_dir, 1))
        return stages.diff_classify(
            both, key_col="doc_id", fp_col="digest", sink_dir=sink_dir
        )

    return _sink_job(
        "snapshot_diff", docs_dir, out_dir, "diff", build,
        params={"input_b": b_dir},
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--docs-dir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--level", type=int, default=8)
    ap.add_argument("--num-cpus", type=int, default=None)
    ap.add_argument(
        "--mode",
        choices=["flagship", "dedup", "chunk-dedup", "media-dedup",
                 "stats-dedup", "span-dedup", "paragraph-dedup", "pack",
                 "diff"],
        default="flagship",
        help="flagship = per-fragment cell aggregate; dedup = whole-corpus "
             "near-dup pair sink (out/pairs/*.parquet); chunk-dedup = "
             "chunk-fingerprint winner sink (out/chunks/); media-dedup = "
             "decoded-content-hash winner sink (out/media/); stats-dedup = "
             "cell aggregate AND dedup winners from ONE decode scan "
             "(out/cells/ + out/media_sd/); span-dedup = duplicated-"
             "substring span sink (out/spans/); paragraph-dedup = "
             "C4-style per-doc cleaning manifest (out/paragraphs/); "
             "pack = multimodal sequence-packing assignment table "
             "(out/pack/). Each publishes one manifest row.",
    )
    ap.add_argument(
        "--docs-dir-b", default=None,
        help="with --mode diff: the NEXT corpus snapshot to compare "
             "against --docs-dir (omitted = self-diff, an empty "
             "identity check)",
    )
    ap.add_argument(
        "--clusters", action="store_true",
        help="with --mode dedup: also resolve out/pairs into connected "
             "components (out/clusters/clusters.parquet + manifest row)",
    )
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=args.num_cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
        )
    jobs = {
        "dedup": run_dedup_job,
        "chunk-dedup": run_chunk_dedup_job,
        "media-dedup": run_media_dedup_job,
        "stats-dedup": run_stats_dedup_job,
        "span-dedup": run_span_dedup_job,
        "paragraph-dedup": run_paragraph_dedup_job,
        "pack": run_pack_job,
        "diff": lambda d, o: run_diff_job(d, o, args.docs_dir_b),
    }
    if args.mode in jobs:
        summary = jobs[args.mode](args.docs_dir, args.out)
        line = {
            "done": summary["done"],
            "skipped": summary["skipped"],
            "n_rows": summary["manifest"].get(
                "n_rows", summary["manifest"].get("n_pairs")
            ),
            "n_files": summary["manifest"].get("n_files"),
        }
        if args.clusters and args.mode == "dedup":
            cl = run_cluster_job(args.out)
            line["clusters"] = {
                "done": cl["done"],
                "skipped": cl["skipped"],
                "n_rows": cl["manifest"].get("n_rows"),
            }
        print(json.dumps(line))
    else:
        summary = checkpoint.run_fragments(
            args.docs_dir,
            args.out,
            lambda frag, out: process_fragment(frag, out, level=args.level),
        )
        print(
            json.dumps(
                {
                    "done": summary["done"],
                    "skipped": summary["skipped"],
                    "fragments": len(summary["manifests"]),
                }
            )
        )
    ray.shutdown()


if __name__ == "__main__":
    main()

"""Flagship pipeline wiring (SURVEY.md §3.2).

    documents (Lance/Parquet fragments, span text pruned at the read)
      → span digest snapshot                      [stateless map_batches]
      → explode media spans                       [stateless map_batches]
      → tile decode + erased-cell stats           [ONE fused stateless
        (masked min/max/mean) + Hilbert cell ids   map_batches task stage;
                                                   one row per tile]
      → PIP join vs broadcast footprints          [task stage, memoized
                                                   broadcast state; with_join
                                                   only]
      → per-cell aggregation                      [shuffle.fold: one
                                                   combine per batch, then
                                                   the driver fold]
      → partitioned parquet sink + manifest

Nothing materializes the full dataset: every step up to the per-cell
partials is a streaming ``Dataset`` transform. ``shuffle.fold``
combines each batch's tile rows on their cell id map-side, then merges
those partials on the driver as they stream out, at most
``shuffle.FOLD_DRIVER_ROWS`` rows at a time (the flagship's ≈8k rows
are one chunk), with no exchange; the per-cell aggregate (≈ thousands
of rows) comes back as a driver-built table. The ``with_join`` path
keeps the per-tile stats stream for its join and folds it through
``stages.cell_partials`` into the same ``shuffle.merge_cell_agg``.
"""

from __future__ import annotations

import os
import re
from typing import Optional

import pyarrow as pa

from raycells.engine import shuffle as shuffle_mod
from raycells.engine import stages
from raycells.io import docsource, footprints as fp_mod

# docs per scale factor for the synthesized interleaved table
SF_DOCS = {"0.001": 500, "0.01": 5000, "0.1": 50000}
DEFAULT_LEVEL = 8


def docs_dir_for_sf(sf_dir: str, base: str = "/tmp/raycells_docs") -> str:
    """Deterministic interleaved-docs directory for a testdata sf dir
    (synthesized once, reused; FIXTURES.md §1 scales)."""
    m = re.search(r"sf([0-9.]+)", sf_dir)
    sf = m.group(1) if m else "0.001"
    n_docs = SF_DOCS.get(sf, 500)
    out = os.path.join(base, f"sf{sf}")
    docsource.generate_interleaved_docs(out, n_docs, n_fragments=4)
    return out


def read_docs(docs_dir: str, **kwargs):
    return docsource.read_documents(docs_dir, **kwargs)


def read_docs_media(docs_dir: str, num_blocks: int = None):
    """Text-pruned document read for media-only pipelines (the span text
    payload never leaves storage — docsource.read_documents_media)."""
    return docsource.read_documents_media(docs_dir, num_blocks=num_blocks)


def explode_stage(ds):
    return ds.map_batches(docsource.explode_media_spans, batch_format="pyarrow")


def _cluster_cpus() -> int:
    import ray

    try:
        return int(ray.cluster_resources().get("CPU", 4))
    except Exception:
        return 4


def join_stage(ds, footprints_table: Optional[pa.Table] = None):
    """Broadcast-PIP join: ray.put the polygon side once; each worker
    builds its joiner from it once (``stages.pip_join_task``)."""
    import ray

    fps = fp_mod.rings_as_numpy(
        footprints_table if footprints_table is not None else fp_mod.generate_footprints()
    )
    ref = ray.put(fps)
    # Task stage, not an actor pool: the joiner's setup (bbox precompute
    # over the broadcast rings) is cheap, the ``ray.put`` object is a
    # zero-copy plasma read on every node, and the per-worker state is
    # memoized in a module cache that survives across executions in
    # Ray's reused task workers — actor pools pay ~1-2 s startup per
    # execution here for no benefit (CLAUDE.md platform notes).
    #
    # NO explicit batch_size: map_batches stages FUSE and adopt the
    # largest batch_size, so a 4096 here coalesced the pinned-64-block
    # read→decode→join chain into ~17 giant serial tasks (measured 7.9 s
    # vs 0.7 s at sf0.1/32 CPUs). Per-block batches keep one task per
    # read block — parallelism stays pinned to the read.
    return ds.map_batches(
        stages.pip_join_task(ref),
        batch_format="pyarrow",
    )


def flagship(
    docs_dir: str,
    level: int = DEFAULT_LEVEL,
    out_dir: Optional[str] = None,
    with_join: bool = False,
    num_blocks: Optional[int] = None,
):
    """The headline pipeline. Returns the per-cell aggregate Dataset
    (cell id → n_tiles, valid/nodata counts, min/max, avg tile mean).

    ``with_join=True`` additionally runs the broadcast PIP join over the
    per-tile stats stream and writes it under ``out_dir/join`` — it
    REQUIRES ``out_dir`` (the join's only consumer is the sink; without
    one the join stage would silently never execute).

    ``num_blocks`` pins the read parallelism: per-task driver overhead is
    high on this platform, so the block count stays FIXED (~2× the CPU
    count) instead of growing with the input — bigger inputs mean bigger
    blocks, not more tasks."""
    if with_join and not out_dir:
        raise ValueError("with_join=True requires out_dir (the join's consumer)")
    if num_blocks is None:
        num_blocks = 2 * _cluster_cpus()
    # projection-pushdown read: the flagship never touches span text, so
    # only doc_id + (kind, media_ref) leaves are read from storage
    ds = read_docs_media(docs_dir, num_blocks=num_blocks)
    ex = explode_stage(ds)
    if with_join:
        # the join consumer needs the per-tile stats stream; fused
        # stateless decode→stats as tasks, then the broadcast PIP join
        # (task stage with memoized state). The stats stream feeds TWO
        # consumers (join sink + aggregate) — materialize the narrow
        # ~100 B/tile stats once so the decode doesn't re-execute per
        # consumer (tile payloads are already gone at this point).
        stats = ex.map_batches(
            lambda b: stages.decode_stats(b, emit="stats", level=level),
            batch_format="pyarrow",
        ).materialize()
        joined = join_stage(stats)
        agg = shuffle_mod.merge_cell_agg(
            stats.map_batches(stages.cell_partials, batch_format="pyarrow"))
        joined.write_parquet(os.path.join(out_dir, "join"))
    else:
        # fully fused fast path: decode→stats→cell id, one row per tile,
        # in ONE task operator (stateless synthetic decode; scratch
        # persists in reused workers), then the per-cell fold (one
        # combine per batch, then the driver)
        partials = ex.map_batches(
            lambda b: stages.decode_stats(b, emit="partials", level=level),
            batch_format="pyarrow",
        )
        agg = shuffle_mod.merge_cell_agg(partials, key="key", key_out="cell_id")
    if out_dir:
        # key-range-partitioned sink: one directory per coarse cell-id
        # bucket (hive layout), so a failed run resumes per partition and
        # consumers prune partitions at read time — never one giant file
        part = agg.map_batches(
            lambda b: shuffle_mod.add_bucket(b, "cell_id", 16).rename_columns(
                [c if c != "_bucket" else "key_bucket" for c in
                 (*b.column_names, "_bucket")]
            ),
            batch_format="pyarrow",
        )
        part.write_parquet(os.path.join(out_dir, "cells"), partition_cols=["key_bucket"])
    return agg


def verify_span_invariant(docs_dir: str, scratch_dir: str = None) -> bool:
    """End-to-end span-sequence-equality check: digests of the source
    table vs digests recomputed after the docs actually FLOW THROUGH the
    engine — object-store blocks → parquet sink → fresh read. This
    catches span reorder/truncation/corruption in batching, block
    serialization of the list<struct> column, or the sink path (a
    double read of the same source would verify nothing but read
    determinism)."""
    import shutil
    import tempfile

    import ray.data as rd

    src = read_docs(docs_dir).map_batches(
        docsource.span_digests, batch_format="pyarrow"
    )
    out = scratch_dir or tempfile.mkdtemp(prefix="raycells_spanv_", dir="/tmp")
    try:
        # write_parquet APPENDS uuid-named files — a reused scratch dir
        # would double the sink rows and report spurious corruption
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out, exist_ok=True)
        read_docs(docs_dir).write_parquet(out)
        snk = rd.read_parquet(out).map_batches(
            docsource.span_digests, batch_format="pyarrow"
        )
        a = src.to_pandas().sort_values("doc_id").reset_index(drop=True)
        b = snk.to_pandas().sort_values("doc_id").reset_index(drop=True)
        return bool(
            len(a) == len(b) and (a["span_digest"] == b["span_digest"]).all()
        )
    finally:
        if scratch_dir is None:
            shutil.rmtree(out, ignore_errors=True)

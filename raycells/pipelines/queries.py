"""Named query pipelines for ``__ray_entry__.queries()``.

Each function takes ``sf_dir`` (a testdata scale dir) and returns a
``ray.data.Dataset`` / ``pyarrow.Table``. Two families:

- **geospatial** (the flagship, over the synthesized interleaved-doc
  table at ``/tmp/raycells_docs/sf{sf}`` — generated idempotently): span
  explode, span-sequence digest, band-tile decode + erased-cell stats,
  per-grid-cell salted aggregate, kNN tile lookup, PIP join, the full
  erased-cell Hilbert pipeline.
- **tabular** (over the driver's TPC-H-ish parquet views): groupby
  aggregates, broadcast joins, exact/near dedup, text analysis, embedding
  similarity search.

Column names match ``raycells.pipelines.oracles`` verbatim — the driver
sorts columns by name and hashes values, so every computed column is
named identically on both sides, integer where exactness matters, and
rounded via the shared FLOOR(x + 0.5) expression tree on BOTH sides
where a float's representation could differ (CLAUDE.md recipe).
"""

from __future__ import annotations

import os
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from raycells.engine import pipeline as pl
from raycells.engine import shuffle as shuffle_mod
from raycells.engine import stages
from raycells.io import docsource
from raycells.sim.knn import topk_cosine
from raycells.text import analysis as ta
from raycells.text import dedup as dd

KNN_QUERIES = ((0, -74.0, 40.7), (1, 2.35, 48.85), (2, 139.7, 35.7))
KNN_K = 8
EMB_K = 10


def _half_up(x):
    """floor(x + 0.5): the CLAUDE.md cross-engine rounding recipe. Paired
    oracles use the identical FLOOR(x + 0.5) expression tree, so both
    engines agree even when a scaled value lands exactly on .5 (numpy
    rint rounds halves to even, DuckDB ROUND away from zero). For
    exactly-integral floats v < 2^52 this is v, so it is also safe on
    the exact-integer resample sites."""
    return np.floor(x + 0.5)


def _i64(*names):
    """int64 ``(name, type)`` fields for a ``shuffle_mod.fold`` schema."""
    return [(n, pa.int64()) for n in names]


def _strip_schema_metadata(t: pa.Table) -> pa.Table:
    """Drop the pandas schema metadata the driver's parquet files carry:
    the metadata dict makes ``hash(schema)`` raise, defeating Ray Data's
    block-schema dedup on every downstream groupby/sort (full unify + a
    logged warning per block). Zero-copy; fuses with the next stage."""
    return t.replace_schema_metadata(None)


def _read(sf_dir: str, table: str, num_blocks: int = None, columns=None):
    """Parquet read with column pruning at the source: pass ``columns``
    so only the needed columns leave storage (a read that loads all 11
    lineitem columns for a 4-column aggregate wastes most of its IO)."""
    import ray.data as rd

    kw = {"override_num_blocks": num_blocks} if num_blocks else {}
    if columns is not None:
        kw["columns"] = list(columns)
    ds = rd.read_parquet(os.path.join(sf_dir, f"{table}.parquet"), **kw)
    return ds.map_batches(_strip_schema_metadata, batch_format="pyarrow")


# documents/embeddings are small side tables (≤ ~50k rows at bench sf);
# pin a small block count so per-task scheduling and worker warmup don't
# dominate (CLAUDE.md platform notes) — the big geospatial pipelines pin
# their own counts in engine/pipeline.py.
SMALL_TABLE_BLOCKS = 8


def docs_ds(sf_dir: str):
    """Interleaved-document Dataset for this scale (synthesized once)."""
    return pl.read_docs(pl.docs_dir_for_sf(sf_dir))


def _exploded(sf_dir: str):
    """Media-span rows for this scale — text-pruned at the read (none of
    the exploded-media pipelines touch span text)."""
    ds = pl.read_docs_media(pl.docs_dir_for_sf(sf_dir))
    return pl.explode_stage(ds)


# ---------------------------------------------------------------------------
# geospatial family
# ---------------------------------------------------------------------------

def q_explode_media(sf_dir: str):
    """Span explode: list<struct> → one row per media span."""
    def cast_idx(b: pa.Table) -> pa.Table:
        return b.set_column(
            b.column_names.index("span_idx"),
            "span_idx",
            pc.cast(b["span_idx"], pa.int64()),
        )

    return _exploded(sf_dir).map_batches(cast_idx, batch_format="pyarrow")


def q_span_digest(sf_dir: str):
    """Span-sequence-equality digest per document (md5, oracle-mirrorable)."""
    return docs_ds(sf_dir).map_batches(
        docsource.span_digests_md5, batch_format="pyarrow"
    )


def q_media_captions(sf_dir: str):
    """CAPTION PAIRING over the interleaved spans (NEW round 5) — the
    multimodal-training prep step that pairs every media span with its
    nearest PRECEDING text span in the same document (the heuristic
    caption): per media span emit (doc_key, span_idx, cap_span_idx,
    cap_chars), cap_span_idx = -1 / cap_chars = 0 when the media opens
    the document.

    Shape at scale: spans of a document live in ONE row, so pairing is
    purely batch-local — no exchange at all. The leaf-pruned read loads
    only (kind, text) span subfields (media payloads never leave
    storage), and the scan is fully vectorized: one
    list_parent_indices + searchsorted for per-doc span positions, one
    maximum.accumulate for the running last-text-span, no per-span
    Python loop."""
    docs_dir = pl.docs_dir_for_sf(sf_dir)
    ds = docsource.read_documents_media(
        docs_dir, span_fields=("kind", "text"), num_blocks=SMALL_TABLE_BLOCKS
    )

    def caps(b: pa.Table) -> pa.Table:
        spans = b["spans"]
        if isinstance(spans, pa.ChunkedArray):
            spans = spans.combine_chunks()
        parent = pc.list_parent_indices(spans).to_numpy(zero_copy_only=False)
        flat = spans.flatten()
        n_flat = len(parent)
        if n_flat == 0:
            return pa.table(
                {
                    "doc_key": pa.array([], pa.string()),
                    "span_idx": pa.array([], pa.int64()),
                    "cap_span_idx": pa.array([], pa.int64()),
                    "cap_chars": pa.array([], pa.int64()),
                }
            )
        is_text = pc.equal(flat.field("kind"), "text").to_numpy(
            zero_copy_only=False
        )
        txt_len = pc.utf8_length(flat.field("text")).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        # per-doc first flat index (parent is sorted): vectorized
        # first-occurrence via searchsorted
        starts = np.searchsorted(parent, parent, side="left")
        span_idx = np.arange(n_flat, dtype=np.int64) - starts
        # running last-text flat position, strictly BEFORE each span
        tp = np.where(is_text, np.arange(n_flat, dtype=np.int64), -1)
        cm = np.maximum.accumulate(tp)
        prev = np.empty(n_flat, np.int64)
        prev[0] = -1
        prev[1:] = cm[:-1]
        valid = prev >= starts  # a text span exists earlier in THIS doc
        sel = ~is_text
        doc_flat = pc.take(
            pa.chunked_array([b["doc_id"]]).combine_chunks(),
            pa.array(parent),
        )
        return pa.table(
            {
                "doc_key": doc_flat.filter(pa.array(sel)),
                "span_idx": pa.array(span_idx[sel]),
                "cap_span_idx": pa.array(
                    np.where(valid, prev - starts, -1)[sel]
                ),
                "cap_chars": pa.array(
                    np.where(valid, txt_len[np.clip(prev, 0, None)], 0)[sel]
                ),
            }
        )

    return ds.map_batches(caps, batch_format="pyarrow")


def q_band_tile_stats(sf_dir: str):
    """Decode band-4 tiles through the erased-cell kernel path → per-tile
    integer stats + SQL-parity grid cell."""
    def stats(b: pa.Table) -> pa.Table:
        t = stages.band_stats(b, band=4)
        t = t.set_column(
            t.column_names.index("span_idx"),
            "span_idx",
            pc.cast(t["span_idx"], pa.int64()),
        )
        return t.drop_columns(["lon", "lat"])

    return _exploded(sf_dir).map_batches(stats, batch_format="pyarrow")


def q_ndvi_stats(sf_dir: str):
    """The reference's golden NDVI workload, distributed: per media tile
    compute masked (nir−red)/(nir+red) over bands 4/5 and reduce to
    per-tile min/max + valid count (oracle-checked — every elementwise
    value is an exact double of integer operands)."""
    from raycells.io import tilestore

    def ndvi(b: pa.Table) -> pa.Table:
        seeds = tilestore.seed_of_refs(b["media_ref"])
        st = tilestore.synth_ndvi_stats(seeds)
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "span_idx": pc.cast(b["span_idx"], pa.int64()),
                "seed": pa.array(seeds, pa.int64()),
                "n_valid": pa.array(st["n_valid"]),
                "ndvi_min": pa.array(st["ndvi_min"]),
                "ndvi_max": pa.array(st["ndvi_max"]),
            }
        )

    return _exploded(sf_dir).map_batches(ndvi, batch_format="pyarrow")


def q_rasterize_footprints(sf_dir: str):
    """Rasterize (vector→cells): scanline-fill each footprint polygon
    into a 64×64 grid over its bbox; per-polygon filled-cell count
    (oracle-checked: center-sample containment in SQL; also pinned
    against a point-in-polygon oracle in tests)."""
    import ray.data as rd

    from raycells.geo.raster import rasterize
    from raycells.io import footprints as fp_mod

    fps = fp_mod.generate_footprints()

    def fill(b: pa.Table) -> pa.Table:
        # rings via Arrow list offsets (one flat vertex copy per batch,
        # fp_mod.rings_as_numpy) — the scanline fill itself is vectorized
        # per polygon; only the per-POLYGON loop remains
        ids, cats, counts = [], [], []
        for fid, cat, ring in fp_mod.rings_as_numpy(b):
            bbox = (
                ring[:, 0].min(), ring[:, 1].min(),
                ring[:, 0].max(), ring[:, 1].max(),
            )
            grid = rasterize(ring, bbox, shape=(64, 64))
            ids.append(fid)
            cats.append(cat)
            counts.append(int(grid.sum()))
        return pa.table(
            {
                "footprint_id": pa.array(ids, pa.string()),
                "category": pa.array(cats, pa.string()),
                "filled_cells": pa.array(counts, pa.int64()),
            }
        )

    return rd.from_arrow(fps).map_batches(fill, batch_format="pyarrow", batch_size=32)


def q_vectorize_tiles(sf_dir: str):
    """Vectorize (cells→vector): per decoded tile, run 4-connected
    region labelling over the nodata cells; per-tile region count.

    ORACLE-CHECKED: the synthetic band mask is one residue class
    mod 33 of the flat index, and 33 divides neither 1 nor 64, so no
    two nodata cells are ever 4-adjacent — every region is a singleton
    and the label count equals the masked-cell count, which IS
    SQL-expressible. The labeller's general (multi-cell, merged-region)
    behavior is pinned separately in tests/test_geo.py with crafted
    masks. The input is bounded by a DETERMINISTIC seed filter
    (order-independent, unlike limit()) — vectorization is heavier per
    tile."""
    from raycells.geo.raster import connected_components
    from raycells.io import tilestore

    def regions(b: pa.Table) -> pa.Table:
        seeds = tilestore.seed_of_refs(b["media_ref"])
        keep = seeds % 7 == 0
        b = b.filter(pa.array(keep))
        seeds = seeds[keep]
        v = tilestore.synth_band_values(seeds, 4)
        K = len(seeds)
        n_regions = np.empty(K, dtype=np.int64)
        # BATCHED labelling (VERDICT r4 #7): pack tiles side-by-side with
        # one all-False separator column between them — 4-connected
        # regions can't cross the separator, so ONE labelling pass covers
        # the whole pack (the labeller's per-row Python overhead is paid
        # per 64 rows per PACK, not per tile) and per-tile counts fall
        # out of one vectorized distinct-(tile, label) pass.
        PACK = 16  # 64×(65·16) bool ≈ 66 KB — cache-resident
        for lo in range(0, K, PACK):
            g = min(PACK, K - lo)
            packed = np.zeros((64, g * 65), dtype=bool)
            masks = (v[lo : lo + g] == 0).reshape(g, 64, 64)  # nodata regions
            packed[:, : g * 65].reshape(64, g, 65)[:, :, :64] = np.moveaxis(
                masks, 0, 1
            )
            labels, n = connected_components(packed)
            nz = labels > 0
            tile_of = np.broadcast_to(
                np.arange(g * 65, dtype=np.int64) // 65, labels.shape
            )[nz]
            combined = np.unique(tile_of * np.int64(n + 1) + labels[nz])
            n_regions[lo : lo + g] = np.bincount(
                combined // np.int64(n + 1), minlength=g
            )
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "span_idx": pc.cast(b["span_idx"], pa.int64()),
                "n_nodata_regions": pa.array(n_regions),
            }
        )

    return _exploded(sf_dir).map_batches(regions, batch_format="pyarrow")


def q_resample_tiles(sf_dir: str):
    """Windowed nearest-neighbor resampled read — the reference's
    ``read_cells(window, window_size, size)`` semantics (rasterband.rs:
    37-43; resampling was the one reader feature SURVEY §2.7 deferred):
    per media tile, read the (16,16)+(32,32) window of band 4 resampled
    to 8×8 and reduce to integer stats (oracle-checked: the NN index
    mapping and LCG values are both SQL-expressible)."""
    from raycells.io import tilestore

    WINDOW, WSIZE, OSIZE = (16, 16), (32, 32), (8, 8)

    def resample_stats(b: pa.Table) -> pa.Table:
        seeds = tilestore.seed_of_refs(b["media_ref"])
        v = tilestore.synth_band_window(seeds, 4, WINDOW, WSIZE, OSIZE).astype(
            np.int64
        )
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "span_idx": pc.cast(b["span_idx"], pa.int64()),
                "seed": pa.array(seeds, pa.int64()),
                "n_valid_rs": pa.array((v > 0).sum(axis=1).astype(np.int64)),
                "sum_rs": pa.array(v.sum(axis=1)),
                "max_rs": pa.array(v.max(axis=1)),
            }
        )

    return _exploded(sf_dir).map_batches(resample_stats, batch_format="pyarrow")


def q_resample_bilinear(sf_dir: str):
    """Windowed BILINEAR resampled read (reference ``read_cells``'s
    ``e_resample_alg`` beyond the NearestNeighbour default,
    rasterband.rs:42): the (16,16)+(32,32) window of band 4 resampled to
    16×16 at exactly 2× scale, where every bilinear weight is 0.5 —
    4·out = v00+v01+v10+v11 exactly, so the per-tile stats are integers
    and the DuckDB oracle reproduces them bit-for-bit."""
    from raycells.io import tilestore

    WINDOW, WSIZE, OSIZE = (16, 16), (32, 32), (16, 16)

    def bilinear_stats(b: pa.Table) -> pa.Table:
        seeds = tilestore.seed_of_refs(b["media_ref"])
        v = tilestore.synth_band_window_bilinear(seeds, 4, WINDOW, WSIZE, OSIZE)
        v4 = _half_up(v * 4.0).astype(np.int64)  # exact: weights are 1/2
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "span_idx": pc.cast(b["span_idx"], pa.int64()),
                "seed": pa.array(seeds, pa.int64()),
                "sum_bl4": pa.array(v4.sum(axis=1)),
                "min_bl4": pa.array(v4.min(axis=1)),
                "max_bl4": pa.array(v4.max(axis=1)),
            }
        )

    return _exploded(sf_dir).map_batches(bilinear_stats, batch_format="pyarrow")


def q_resample_cubic(sf_dir: str):
    """Windowed CUBIC-convolution resampled read (GRA_Cubic, the Keys
    A=−0.5 kernel — reference ``read_cells``'s ``e_resample_alg``,
    rasterband.rs:42): the (16,16)+(32,32) window of band 4 resampled
    to 16×16 at exactly 2× scale, where every 1-D tap weight is
    −1/16 or 9/16 — 256·out is an integer combination of the 16 source
    pixels, so per-tile stats are integers and the DuckDB oracle
    reproduces them bit-for-bit."""
    from raycells.io import tilestore

    WINDOW, WSIZE, OSIZE = (16, 16), (32, 32), (16, 16)

    def cubic_stats(b: pa.Table) -> pa.Table:
        seeds = tilestore.seed_of_refs(b["media_ref"])
        v = tilestore.synth_band_window_cubic(seeds, 4, WINDOW, WSIZE, OSIZE)
        v256 = _half_up(v * 256.0).astype(np.int64)  # exact: weights are /16
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "span_idx": pc.cast(b["span_idx"], pa.int64()),
                "seed": pa.array(seeds, pa.int64()),
                "sum_cu256": pa.array(v256.sum(axis=1)),
                "min_cu256": pa.array(v256.min(axis=1)),
                "max_cu256": pa.array(v256.max(axis=1)),
            }
        )

    return _exploded(sf_dir).map_batches(cubic_stats, batch_format="pyarrow")


def q_resample_average(sf_dir: str):
    """Windowed AVERAGE resampled read (GRA_Average — reference
    ``read_cells``'s ``e_resample_alg``, rasterband.rs:42): the
    (16,16)+(32,32) window of band 4 box-averaged to 8×16 (a non-square
    4×2 factor, so the kernel is genuinely distinct from bilinear at
    2×). Each output is the mean of its 4×2 source block — 8·out is the
    integer block sum, so per-tile stats are integers and the DuckDB
    oracle reproduces them bit-for-bit."""
    from raycells.io import tilestore

    WINDOW, WSIZE, OSIZE = (16, 16), (32, 32), (8, 16)

    def average_stats(b: pa.Table) -> pa.Table:
        seeds = tilestore.seed_of_refs(b["media_ref"])
        v = tilestore.synth_band_window_average(seeds, 4, WINDOW, WSIZE, OSIZE)
        v8 = _half_up(v * 8.0).astype(np.int64)  # exact: 8·mean = block sum
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "span_idx": pc.cast(b["span_idx"], pa.int64()),
                "seed": pa.array(seeds, pa.int64()),
                "sum_av8": pa.array(v8.sum(axis=1)),
                "min_av8": pa.array(v8.min(axis=1)),
                "max_av8": pa.array(v8.max(axis=1)),
            }
        )

    return _exploded(sf_dir).map_batches(average_stats, batch_format="pyarrow")


def q_resample_cubicspline(sf_dir: str):
    """Windowed CUBIC-B-SPLINE resampled read (GRIORA_CubicSpline,
    rasterband.rs:42): the (16,16)+(32,32) window of band 4 smoothed to
    16×16 at exactly 2× scale, where every 1-D tap weight is 1/48 or
    23/48 — 2304·out is an integer combination of the 16 source pixels.
    1/48 is not binary-exact, but the float accumulation error (~1e-7)
    is far inside the 0.5 rint margin, so ``rint(out·2304)`` recovers
    the exact integers the DuckDB oracle computes natively."""
    from raycells.io import tilestore

    WINDOW, WSIZE, OSIZE = (16, 16), (32, 32), (16, 16)

    def spline_stats(b: pa.Table) -> pa.Table:
        seeds = tilestore.seed_of_refs(b["media_ref"])
        v = tilestore.synth_band_window_cubicspline(seeds, 4, WINDOW, WSIZE, OSIZE)
        v2304 = _half_up(v * 2304.0).astype(np.int64)
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "span_idx": pc.cast(b["span_idx"], pa.int64()),
                "seed": pa.array(seeds, pa.int64()),
                "sum_bs2304": pa.array(v2304.sum(axis=1)),
                "min_bs2304": pa.array(v2304.min(axis=1)),
                "max_bs2304": pa.array(v2304.max(axis=1)),
            }
        )

    return _exploded(sf_dir).map_batches(spline_stats, batch_format="pyarrow")


def q_resample_lanczos(sf_dir: str):
    """Windowed LANCZOS resampled read (GRIORA_Lanczos a=3,
    rasterband.rs:42 — the last RasterIO alg from the reference's set
    without a driver row): the (16,16)+(32,32) window of band 4
    resampled to 16×16 at exactly 2× scale. The six 1-D tap weights are
    transcendental constants, but numpy's sin bit-matches DuckDB's on
    this box, so the oracle rebuilds the IDENTICAL IEEE doubles by
    mirroring the kernel's expression tree; per-tile outputs are then
    pinned as elementwise-derived float min/max plus an exact
    quantized-integer sum (floor(v·1024 + 0.5) — safe because the
    floats are bit-equal, not merely close)."""
    from raycells.io import tilestore

    WINDOW, WSIZE, OSIZE = (16, 16), (32, 32), (16, 16)

    def lanczos_stats(b: pa.Table) -> pa.Table:
        seeds = tilestore.seed_of_refs(b["media_ref"])
        v = tilestore.synth_band_window_lanczos(seeds, 4, WINDOW, WSIZE, OSIZE)
        vq = _half_up(v * 1024.0).astype(np.int64)
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "span_idx": pc.cast(b["span_idx"], pa.int64()),
                "seed": pa.array(seeds, pa.int64()),
                "sum_lz1024": pa.array(vq.sum(axis=1)),
                "min_lz": pa.array(v.min(axis=1)),
                "max_lz": pa.array(v.max(axis=1)),
            }
        )

    return _exploded(sf_dir).map_batches(lanczos_stats, batch_format="pyarrow")


def q_resample_rms(sf_dir: str):
    """Windowed RMS resampled read (GRIORA_RMS — the RasterIO resample
    set the reference's ``read_cells`` passes through, rasterband.rs:
    42): the (16,16)+(32,32) window of band 4 RMS-reduced to 8×16 with
    a 4×2 box. Each output is sqrt(Σv²/8): the sum of squares is an
    exact integer and /8 is a power-of-two division, so numpy and
    DuckDB feed the identical double into a correctly-rounded IEEE
    sqrt — the float min/max are bit-equal (elementwise-derived floats
    only; nothing float-summed)."""
    from raycells.io import tilestore

    WINDOW, WSIZE, OSIZE = (16, 16), (32, 32), (8, 16)

    def rms_stats(b: pa.Table) -> pa.Table:
        seeds = tilestore.seed_of_refs(b["media_ref"])
        v = tilestore.synth_band_window_rms(seeds, 4, WINDOW, WSIZE, OSIZE)
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "span_idx": pc.cast(b["span_idx"], pa.int64()),
                "seed": pa.array(seeds, pa.int64()),
                "min_rms": pa.array(v.min(axis=1)),
                "max_rms": pa.array(v.max(axis=1)),
            }
        )

    return _exploded(sf_dir).map_batches(rms_stats, batch_format="pyarrow")


def q_resample_mode(sf_dir: str):
    """Windowed MODE resampled read (GRIORA_Mode, rasterband.rs:42):
    the (16,16)+(32,32) window of band 4 mode-reduced to 8×16 with a
    4×2 box — each output cell is its box's most frequent value,
    smallest on a count tie (deterministic refinement of GDAL's
    unspecified tie order, mirrored exactly by the DuckDB oracle's
    ORDER BY cnt DESC, v ASC). Pure integers throughout."""
    from raycells.io import tilestore

    WINDOW, WSIZE, OSIZE = (16, 16), (32, 32), (8, 16)

    def mode_stats(b: pa.Table) -> pa.Table:
        seeds = tilestore.seed_of_refs(b["media_ref"])
        v = tilestore.synth_band_window_mode(seeds, 4, WINDOW, WSIZE, OSIZE)
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "span_idx": pc.cast(b["span_idx"], pa.int64()),
                "seed": pa.array(seeds, pa.int64()),
                "sum_mode": pa.array(v.sum(axis=1)),
                "min_mode": pa.array(v.min(axis=1)),
                "max_mode": pa.array(v.max(axis=1)),
            }
        )

    return _exploded(sf_dir).map_batches(mode_stats, batch_format="pyarrow")


def _cell_base_agg(sf_dir: str, sums=("valid_count", "sum_val")):
    """Per-grid-cell salted aggregate of band-4 tile stats — the shared
    base of cell_agg_band, focal_cell_stats, cell_pyramid and the other
    per-cell rollups: ``n_tiles``, ``sum_<c>`` for each of ``sums``,
    ``min_min_val`` and ``max_max_val`` per ``grid_cell``."""
    names = ["n_tiles", *(f"sum_{c}" for c in sums), "min_min_val", "max_max_val"]

    def project(b: pa.Table) -> pa.Table:
        b = stages.band_stats(b, band=4)
        cols = [pa.array(np.ones(b.num_rows, np.int64)), *(b[c] for c in sums),
                b["min_val"], b["max_val"]]
        return pa.table([b["grid_cell"], b["doc_id"], *cols],
                        names=["grid_cell", "doc_id", *names])

    return shuffle_mod.aggregate(
        _exploded(sf_dir).map_batches(project, batch_format="pyarrow"),
        "grid_cell",
        pa.schema(_i64("grid_cell", *names)),
        {"min_min_val": "min", "max_max_val": "max"},
    )


def q_cell_agg_band(sf_dir: str):
    """Per-grid-cell salted two-stage aggregate of band-tile stats — the
    oracle-checked version of the (doc, cell, tile) assignment shuffle."""
    return _cell_base_agg(sf_dir, sums=("valid_count", "nodata_count", "sum_val"))


def q_top_tiles_per_cell(sf_dir: str):
    """Per-cell top-k TILES (NEW round 3) — grouped top-k on the spatial
    key: the 3 brightest tiles (max_val DESC, seed DESC tie) per grid
    cell, the diagnostics view map tools want. Per-batch partial top-k
    shrinks the exchange to O(blocks × cells × k) survivor rows before
    one final ranking task (engine/joins.grouped_topk)."""
    from raycells.engine.joins import grouped_topk

    tiles = _exploded(sf_dir).map_batches(
        lambda b: stages.band_stats(b, band=4), batch_format="pyarrow"
    ).map_batches(
        lambda b: pa.table(
            {
                "grid_cell": b["grid_cell"],
                "seed": b["seed"],
                "max_val": b["max_val"],
            }
        ),
        batch_format="pyarrow",
    )
    out = grouped_topk(tiles, "grid_cell", 3, order_col="max_val", tiebreak_col="seed")

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "grid_cell": t["grid_cell"],
                "rank": pc.cast(t["rank"], pa.int64()),
                "seed": t["seed"],
                "max_val": pc.cast(t["max_val"], pa.int64()),
            }
        )

    return out.map_batches(finalize, batch_format="pyarrow")


def q_focal_cell_stats(sf_dir: str):
    """FOCAL (3×3 neighborhood) statistics over the aggregated cell
    grid — raster map algebra's stencil operator (NEW round 3). Stage 1
    is the cell_agg_band aggregate (map-side salted partials → bucketed
    merge). Stage 2 is the scale-safe stencil: each nonempty cell EMITS
    its aggregate row to its 9 (gx±1, gy±1) neighbor keys — a 9× fan of
    CELL-sized rows, never tile-sized — and one more bucketed merge sums
    each neighborhood; cells absent from the base grid are dropped via
    a self-contribution flag (no gather of the whole grid anywhere, so
    the pattern holds at any grid level). All-integer columns → exact
    DuckDB oracle (self-join on the ±1 box)."""
    from raycells.geo import cellid

    base = _cell_base_agg(sf_dir)
    NX = cellid.GRID_NX
    stat_cols = ("n_tiles", "sum_valid_count", "sum_sum_val",
                 "min_min_val", "max_max_val")

    def fan(b: pa.Table) -> pa.Table:
        gc = b["grid_cell"].to_numpy(zero_copy_only=False)
        gx, gy = gc % NX, gc // NX
        n = gc.size
        vals = {c: b[c].to_numpy(zero_copy_only=False) for c in stat_cols}
        out = {k: [] for k in ("gx", "gy", "self_n", *stat_cols)}
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                out["gx"].append(gx + dx)
                out["gy"].append(gy + dy)
                out["self_n"].append(
                    np.full(n, 1 if dx == 0 and dy == 0 else 0, np.int64)
                )
                for c in stat_cols:
                    out[c].append(vals[c])
        t = {k: pa.array(np.concatenate(v)) for k, v in out.items()}
        # composite shuffle key (gx+1 keeps the −1 fringe nonnegative)
        nkey = (np.concatenate(out["gy"]) + 1) * np.int64(2 * NX) + (
            np.concatenate(out["gx"]) + 1
        )
        t["nkey"] = pa.array(nkey)
        return pa.table(t)

    def combine(g: pa.Table) -> pa.Table:
        df = g.to_pandas()
        agg = df.groupby(["gx", "gy"], sort=False).agg(
            n_cells_3x3=("self_n", "size"),
            n_tiles_3x3=("n_tiles", "sum"),
            valid_3x3=("sum_valid_count", "sum"),
            sum_3x3=("sum_sum_val", "sum"),
            min_3x3=("min_min_val", "min"),
            max_3x3=("max_max_val", "max"),
            self_n=("self_n", "sum"),
        ).reset_index()
        agg = agg[agg["self_n"] >= 1].drop(columns=["self_n", ])
        agg["n_cells_3x3"] = agg["n_cells_3x3"].astype(np.int64)
        return shuffle_mod.from_pandas_clean(agg)

    return shuffle_mod.bucket_reduce(
        base.map_batches(fan, batch_format="pyarrow"), "nkey", combine
    )


def q_cell_pyramid(sf_dir: str):
    """Hierarchical cell PYRAMID rollup (NEW round 3) — the tile-pyramid
    shape map renderers and multi-resolution analytics need: the
    per-cell aggregate re-keyed to 3 zoom levels (level 0 = the 0.25°
    base grid, each level up halves both axes via gx>>L, gy>>L) in one
    cell-sized 3-row fan + one bucketed merge. Rolling up level-by-level
    would move fewer rows (Σ 4^-L) at the cost of an exchange per level;
    the single fan is one exchange total and the fan rows are aggregate
    rows, never tiles. All-integer columns → exact oracle (UNION ALL of
    grouped rollups)."""
    from raycells.geo import cellid

    base = _cell_base_agg(sf_dir)
    NX = cellid.GRID_NX
    LEVELS = 3
    stat_cols = ("n_tiles", "sum_valid_count", "sum_sum_val",
                 "min_min_val", "max_max_val")

    def fan(b: pa.Table) -> pa.Table:
        gc = b["grid_cell"].to_numpy(zero_copy_only=False)
        gx, gy = gc % NX, gc // NX
        n = gc.size
        vals = {c: b[c].to_numpy(zero_copy_only=False) for c in stat_cols}
        out = {k: [] for k in ("level", "gx", "gy", *stat_cols)}
        for lv in range(LEVELS):
            out["level"].append(np.full(n, lv, np.int64))
            out["gx"].append(gx >> lv)
            out["gy"].append(gy >> lv)
            for c in stat_cols:
                out[c].append(vals[c])
        t = {k: pa.array(np.concatenate(v)) for k, v in out.items()}
        nkey = (
            np.concatenate(out["level"]) * np.int64(NX * NX)
            + np.concatenate(out["gy"]) * np.int64(NX)
            + np.concatenate(out["gx"])
        )
        t["nkey"] = pa.array(nkey)
        return pa.table(t)

    def combine(g: pa.Table) -> pa.Table:
        df = g.to_pandas()
        agg = df.groupby(["level", "gx", "gy"], sort=False).agg(
            n_cells=("n_tiles", "size"),
            n_tiles=("n_tiles", "sum"),
            valid=("sum_valid_count", "sum"),
            sum_val=("sum_sum_val", "sum"),
            min_val=("min_min_val", "min"),
            max_val=("max_max_val", "max"),
        ).reset_index()
        agg["n_cells"] = agg["n_cells"].astype(np.int64)
        return shuffle_mod.from_pandas_clean(agg)

    return shuffle_mod.bucket_reduce(
        base.map_batches(fan, batch_format="pyarrow"), "nkey", combine
    )


# per-source keep-rates out of 1000 — the temperature-weighted mixture
# recipe (upsample-free variant: rates ≤ 1); unlisted sources get _MIX_DEFAULT
_MIX_RATES = {"src0": 1000, "src1": 500, "src2": 250}
_MIX_DEFAULT = 100


def q_corpus_mixture(sf_dir: str):
    """Deterministic CORPUS MIXTURE construction (NEW round 3) — the
    data-mixing step every multi-source training run needs: each source
    keeps a configured fraction (temperature weighting) selected by the
    same RNG-free integer-mix hash as sample_lineitem, so the mixture is
    reproducible across engines, retries and partitionings. Emits the
    mixture manifest per source (kept docs + kept tokens next to the
    source totals) — pure map + map-side combine + driver fold of the
    O(blocks × sources) partials; no exchange."""
    ds = _read(sf_dir, "documents", SMALL_TABLE_BLOCKS, columns=["doc_id", "source", "text"])

    def partial(b: pa.Table) -> pa.Table:
        did = pc.cast(b["doc_id"], pa.int64()).to_numpy(zero_copy_only=False)
        src = b["source"].to_numpy(zero_copy_only=False)
        ntok = ta.token_counts(b["text"]).astype(np.int64)
        rates = np.array(
            [_MIX_RATES.get(s, _MIX_DEFAULT) for s in src], dtype=np.int64
        )
        keep = (did * 2654435761) % 1000 < rates
        return pa.table(
            {
                "source": b["source"],
                "n_docs": np.ones(len(src), np.int64),
                "total_tokens": ntok,
                "kept_docs": keep.astype(np.int64),
                "kept_tokens": np.where(keep, ntok, 0),
            }
        )

    return shuffle_mod.fold(
        ds.map_batches(partial, batch_format="pyarrow"),
        "source",
        pa.schema(
            [("source", pa.string()),
             *_i64("n_docs", "total_tokens", "kept_docs", "kept_tokens")]
        ),
    )


PACK_CAP = 600  # bin capacity (tokens)
PACK_SHARD = 64  # docs per deterministic shard (doc_id // PACK_SHARD)


def greedy_pack_bins(shard: np.ndarray, ntok: np.ndarray, cap: int) -> np.ndarray:
    """Vectorized-across-shards greedy first-fit packing: rows must be
    sorted by (shard, order); returns the per-row bin id. One pass per
    bin rank — segmented cumsum over each shard's remaining rows, take
    the ``cs ≤ cap`` prefix plus the unconditional first row (exactly
    the recursive rule ``fill + ntok > cap ⇒ new bin, fill = ntok``)."""
    n = len(shard)
    bins = np.full(n, -1, np.int64)
    remaining = np.ones(n, bool)
    k = 0
    while remaining.any():
        idx = np.nonzero(remaining)[0]
        sh = shard[idx]
        cs = pd.Series(ntok[idx]).groupby(sh).cumsum().to_numpy()
        first = np.r_[True, sh[1:] != sh[:-1]] if sh.size else np.empty(0, bool)
        sel = first | (cs <= cap)
        bins[idx[sel]] = k
        remaining[idx[sel]] = False
        k += 1
    return bins


def q_pack_sequences(sf_dir: str):
    """SEQUENCE PACKING (NEW round 3) — the canonical LLM-training prep
    op: greedy first-fit-in-order packing of docs into ≤PACK_CAP-token
    bins inside deterministic PACK_SHARD-doc shards. Bins never cross
    shards, so every shard packs independently — embarrassingly parallel
    at any scale (one coarse-bucket exchange co-locates shards). The
    per-bucket kernel is vectorized ACROSS shards, one pass per bin
    rank: segmented cumsum over each shard's remaining docs → prefix
    take (cumsum is monotone, so ``cs ≤ cap`` is a prefix; a bin's first
    doc is unconditional, exactly the recursive rule) — bounded by
    max-bins-per-shard passes, never a per-doc Python loop. Output per
    (shard, bin): doc count + token total, all exact ints. Oracle: a
    recursive CTE carrying (bin, fill) through each shard in doc order."""
    ds = _read(sf_dir, "documents", SMALL_TABLE_BLOCKS, columns=["doc_id", "text"])

    def toks(b: pa.Table) -> pa.Table:
        did = pc.cast(b["doc_id"], pa.int64()).to_numpy(zero_copy_only=False)
        nt = ta.token_counts(b["text"]).astype(np.int64)
        return pa.table(
            {
                "shard": pa.array(did // PACK_SHARD),
                "doc_id": pa.array(did),
                "ntok": pa.array(nt),
            }
        )

    def pack(g: pa.Table) -> pa.Table:
        df = g.to_pandas().sort_values(["shard", "doc_id"])
        shard = df["shard"].to_numpy()
        ntok = df["ntok"].to_numpy()
        bins = greedy_pack_bins(shard, ntok, PACK_CAP)
        out = (
            pd.DataFrame({"shard": shard, "bin": bins, "ntok": ntok})
            .groupby(["shard", "bin"], sort=False, as_index=False)
            .agg(n_docs=("ntok", "size"), total_tokens=("ntok", "sum"))
        )
        out["n_docs"] = out["n_docs"].astype(np.int64)
        return shuffle_mod.from_pandas_clean(out)

    return shuffle_mod.bucket_reduce(
        ds.map_batches(toks, batch_format="pyarrow"), ["shard"], pack
    )


MM_TOK = 64  # fixed token cost charged per media span (image-token budget)


def q_pack_multimodal(sf_dir: str):
    """MULTIMODAL sequence packing (NEW round 5) — the MMC4/interleaved
    training prep op: pack interleaved documents into ≤PACK_CAP-token
    bins where a document's cost is its text-span token count plus a
    fixed MM_TOK charge per media span (the image-token budget a
    vision-language model pays per image). Same deterministic
    PACK_SHARD-doc shards and greedy first-fit-in-order rule as
    q_pack_sequences, so packing is embarrassingly parallel.

    Shape at scale: the per-doc cost is ONE batch-local pass over the
    leaf-pruned (kind, text) span fields (media payloads never leave
    storage — list_parent_indices + two bincounts, no per-span loop);
    the single coarse-bucket exchange moves only (shard, doc, cost,
    n_media, text_tokens) rows; the pack kernel is the shared
    vectorized segmented-cumsum prefix-take. Output per (shard, bin):
    doc count, total cost, media count, text-token total — exact ints."""
    docs_dir = pl.docs_dir_for_sf(sf_dir)
    ds = docsource.read_documents_media(
        docs_dir, span_fields=("kind", "text"), num_blocks=SMALL_TABLE_BLOCKS
    )
    return pack_multimodal_pipeline(ds, emit="bins")


def pack_multimodal_pipeline(ds, emit: str = "bins"):
    """The q_pack_multimodal pipeline over an already-opened interleaved
    documents Dataset. ``emit="bins"`` → per-(shard, bin) aggregate (the
    gate query); ``emit="docs"`` → the corpus-sized per-document bin
    ASSIGNMENT table (doc_id, shard, bin, cost, n_media, text_tokens) —
    what a training-data export job writes to its sink (`driver --mode
    pack`); both come from the same exchange, the aggregate is just the
    bucket-local rollup of the assignments."""

    def costs(b: pa.Table) -> pa.Table:
        spans = b["spans"]
        if isinstance(spans, pa.ChunkedArray):
            spans = spans.combine_chunks()
        n = b.num_rows
        parent = pc.list_parent_indices(spans).to_numpy(zero_copy_only=False)
        flat = spans.flatten()
        is_text = pc.equal(flat.field("kind"), "text").to_numpy(
            zero_copy_only=False
        )
        ntok = ta.token_counts(flat.field("text"))
        text_toks = np.bincount(
            parent[is_text], weights=ntok[is_text], minlength=n
        ).astype(np.int64)
        n_media = np.bincount(parent[~is_text], minlength=n).astype(np.int64)
        n_spans = np.bincount(parent, minlength=n)
        did = pc.cast(
            pc.utf8_slice_codeunits(
                pa.chunked_array([b["doc_id"]]).combine_chunks(), 4, 99
            ),
            pa.int64(),
        ).to_numpy(zero_copy_only=False)
        keep = n_spans > 0  # span-less docs don't reach the packer
        return pa.table(
            {
                "shard": pa.array(did[keep] // PACK_SHARD),
                "doc_id": pa.array(did[keep]),
                "cost": pa.array(text_toks[keep] + MM_TOK * n_media[keep]),
                "n_media": pa.array(n_media[keep]),
                "text_tokens": pa.array(text_toks[keep]),
            }
        )

    def pack(g: pa.Table) -> pa.Table:
        df = g.to_pandas().sort_values(["shard", "doc_id"])
        shard = df["shard"].to_numpy()
        cost = df["cost"].to_numpy()
        bins = greedy_pack_bins(shard, cost, PACK_CAP)
        packed = pd.DataFrame(
            {
                "shard": shard,
                "bin": bins,
                "doc_id": df["doc_id"].to_numpy(),
                "cost": cost,
                "n_media": df["n_media"].to_numpy(),
                "text_tokens": df["text_tokens"].to_numpy(),
            }
        )
        if emit == "docs":
            return shuffle_mod.from_pandas_clean(packed)
        out = (
            packed.drop(columns=["doc_id"])
            .groupby(["shard", "bin"], sort=False, as_index=False)
            .agg(
                n_docs=("cost", "size"),
                total_cost=("cost", "sum"),
                n_media=("n_media", "sum"),
                text_tokens=("text_tokens", "sum"),
            )
        )
        out["n_docs"] = out["n_docs"].astype(np.int64)
        return shuffle_mod.from_pandas_clean(out)

    return shuffle_mod.bucket_reduce(
        ds.map_batches(costs, batch_format="pyarrow"), ["shard"], pack
    )


def q_cluster_quality(sf_dir: str):
    """Cross-table CURATION composite (NEW round 3): k-means topic
    clusters over the embedding table JOINED to per-doc text-quality
    metrics (embeddings.vec_id ↔ documents.doc_id) — the realistic
    "score every topic bucket before sampling" pipeline. Shape at
    scale: constant-sample exact-integer Lloyd training, broadcast
    centroid assignment matmul, co-partitioned ``hash_join`` on the id
    (no broadcast of either table), map-side per-cluster partials +
    driver fold of the O(blocks × clusters) rows. Oracle: the shared
    unrolled-Lloyd CTE chain joined to the documents view."""
    from raycells.engine.joins import hash_join
    from raycells.sim.ivf import _assign, train_from_ds
    from raycells.text.dedup import quantize_embeddings

    emb = _read(
        sf_dir, "embeddings", SMALL_TABLE_BLOCKS, columns=["vec_id", "embedding"]
    )
    sums = train_from_ds(emb, n_centroids=16)

    def assign(b: pa.Table) -> pa.Table:
        eq = quantize_embeddings(
            np.asarray(b["embedding"].to_pylist(), dtype=np.float64)
        )
        return pa.table(
            {
                "vec_id": pc.cast(b["vec_id"], pa.int64()),
                "cluster": pa.array(_assign(eq, sums).astype(np.int64)),
            }
        )

    asg = emb.map_batches(assign, batch_format="pyarrow")
    docs = _read(sf_dir, "documents", SMALL_TABLE_BLOCKS, columns=["doc_id", "text"])

    def doc_metrics(b: pa.Table) -> pa.Table:
        scored = ta.quality_metrics(b, col="text")
        return pa.table(
            {
                "doc_id": pc.cast(scored["doc_id"], pa.int64()),
                "n_tokens": scored["n_tokens"],
                "stopword_hits": scored["stopword_hits"],
                "quality_ok": pc.cast(scored["quality_ok"], pa.int64()),
            }
        )

    met = docs.map_batches(doc_metrics, batch_format="pyarrow")
    joined = hash_join(
        asg,
        met,
        key_left="vec_id",
        key_right="doc_id",
        keep_left=["cluster"],
        keep_right=["n_tokens", "stopword_hits", "quality_ok"],
    )

    def project(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "cluster": b["cluster"],
                "n_docs": np.ones(b.num_rows, np.int64),
                "total_tokens": b["n_tokens"],
                "total_stopword_hits": b["stopword_hits"],
                "n_quality_ok": b["quality_ok"],
            }
        )

    return shuffle_mod.fold(
        joined.map_batches(project, batch_format="pyarrow"),
        "cluster",
        pa.schema(
            _i64("cluster", "n_docs", "total_tokens", "total_stopword_hits",
                 "n_quality_ok")
        ),
    )


def q_doc_multimodal_profile(sf_dir: str):
    """JOINT text+media per-document profile (NEW round 3) — the one
    operator that consumes BOTH span kinds of the interleaved table in a
    single pass: per doc, text-span count and total UTF-8 chars next to
    media-span count and total valid (unmasked) tile cells. Docs are
    single rows, so each batch completes its docs' rollups locally and
    the per-doc output streams straight out of ``map_batches`` — NO
    exchange at any scale. Valid-cell counts use the tile mask formula's
    closed form (nodata at i·7 ≡ −seed mod 33 ⇒ count = ⌊(4095−r)/33⌋+1
    with r = ((33 − seed%33)%33 · 19) % 33, 19 = 7⁻¹ mod 33) — exact
    integers, pinned against the real decode in tests/test_io.py."""
    from raycells.io import docsource, tilestore

    docs = docsource.read_documents(pl.docs_dir_for_sf(sf_dir))

    def profile(b: pa.Table) -> pa.Table:
        parent, kind, text, ref, _ = docsource._spans_parts(b["spans"])
        n = b.num_rows
        is_text = pc.equal(kind, "text").to_numpy(zero_copy_only=False)
        is_media = pc.equal(kind, "media").to_numpy(zero_copy_only=False)
        chars = pc.utf8_length(text).to_numpy(zero_copy_only=False)
        n_text = np.bincount(parent[is_text], minlength=n).astype(np.int64)
        text_chars = np.bincount(
            parent[is_text], weights=chars[is_text], minlength=n
        ).astype(np.int64)
        n_media = np.bincount(parent[is_media], minlength=n).astype(np.int64)
        seeds = tilestore.seed_of_refs(ref.filter(pa.array(is_media)))
        r = (((33 - seeds % 33) % 33) * 19) % 33
        valid = 4096 - ((4095 - r) // 33 + 1)
        valid_cells = np.bincount(
            parent[is_media], weights=valid, minlength=n
        ).astype(np.int64)
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "n_text_spans": pa.array(n_text),
                "text_chars": pa.array(text_chars),
                "n_media_spans": pa.array(n_media),
                "valid_cells": pa.array(valid_cells),
            }
        )

    return docs.map_batches(profile, batch_format="pyarrow")


def q_tile_convolve_stats(sf_dir: str):
    """In-tile 3×3 box-sum CONVOLUTION (NEW round 3) — the cell-level
    focal kernel that complements focal_cell_stats' grid-level stencil:
    the (0,0)+(8,8) corner window of band 4 convolved with a 3×3 sum
    kernel under TILE-edge replicate clamping (the window touches the
    tile border, so the clamp path is exercised, not just declared).
    Exact integer sums → per-tile stats hash-match the oracle's 9
    inlined clamped taps."""
    from raycells.io import tilestore

    WINDOW, WSIZE = (0, 0), (8, 8)

    def conv_stats(b: pa.Table) -> pa.Table:
        seeds = tilestore.seed_of_refs(b["media_ref"])
        v = tilestore.synth_band_conv3(seeds, 4, WINDOW, WSIZE)
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "span_idx": pc.cast(b["span_idx"], pa.int64()),
                "seed": pa.array(seeds, pa.int64()),
                "sum_c3": pa.array(v.sum(axis=1)),
                "min_c3": pa.array(v.min(axis=1)),
                "max_c3": pa.array(v.max(axis=1)),
            }
        )

    return _exploded(sf_dir).map_batches(conv_stats, batch_format="pyarrow")


def q_cell_agg_s2face(sf_dir: str):
    """Per-cell tile-stats aggregate keyed by the TRUE cube-face S2
    projection (geo/cellid.encode_cube, level 6) instead of the
    equirectangular grid — closes SURVEY §7.4's face-projection row
    with an exact oracle (the SQL side reproduces unit vector →
    dominant-axis face → gnomonic uv → quadratic st → unrolled Hilbert;
    IEEE expression trees mirrored token-for-token, and this platform's
    numpy and DuckDB bind libm radians/cos/sin bit-identically). The
    packed uint64 id crosses the exchange as its int64 BIT PATTERN
    (faces 4-5 set bit 63 — the repo's standard uint64-carry
    convention); face and within-face id split out only at the end."""
    from raycells.geo import cellid

    tiles = _exploded(sf_dir).map_batches(
        lambda b: stages.band_stats(b, band=4), batch_format="pyarrow"
    )

    stats = ("n_tiles", "sum_valid_count", "sum_nodata_count", "sum_sum_val",
             "min_min_val", "max_max_val")

    def key(b: pa.Table) -> pa.Table:
        lon = b["lon"].to_numpy(zero_copy_only=False)
        lat = b["lat"].to_numpy(zero_copy_only=False)
        packed = cellid.encode_cube(lon, lat, 6)
        cols = [pa.array(packed.view(np.int64), pa.int64()),
                pa.array(np.ones(b.num_rows, np.int64))]
        cols += [b[c] for c in ("valid_count", "nodata_count", "sum_val", "min_val", "max_val")]
        return pa.table(cols, names=["s2_key", *stats])

    agg = shuffle_mod.fold(
        tiles.map_batches(key, batch_format="pyarrow"),
        "s2_key",
        pa.schema(_i64("s2_key", *stats)),
        {"min_min_val": "min", "max_max_val": "max"},
    )
    packed = agg["s2_key"].to_numpy().view(np.uint64)
    face = (packed >> np.uint64(61)).astype(np.int64)
    local = (packed & ((np.uint64(1) << np.uint64(61)) - np.uint64(1))).astype(np.int64)
    return pa.table(
        [pa.array(face), pa.array(local), *(agg[c] for c in stats)],
        names=["face", "cell_id", *stats],
    )


def q_tile_type_hist(sf_dir: str):
    """Runtime-dynamic cell-TYPE system exercised distributed: per
    CellType, tile count, total cells, and total payload bytes
    (``CellType.size_of`` — ctype.rs:87-96) over the weighted 10-type
    tile population. Oracle-checked: the type wheel and shapes are seed
    arithmetic."""
    from raycells.cells.ctype import CELL_TYPES
    from raycells.io import tilestore

    def project(b: pa.Table) -> pa.Table:
        seeds = tilestore.seed_of_refs(b["media_ref"])
        ti = tilestore.tile_cell_types(seeds)
        shapes = tilestore.tile_shapes(seeds)
        cells = shapes[:, 0].astype(np.int64) * shapes[:, 1].astype(np.int64)
        sizes = np.array([ct.size_of for ct in CELL_TYPES], dtype=np.int64)
        names = np.array([str(ct) for ct in CELL_TYPES], dtype=object)
        return pa.table(
            {
                "cell_type": pa.array(list(names[ti]), pa.string()),
                "n_tiles": pa.array(np.ones(b.num_rows, np.int64)),
                "total_cells": pa.array(cells),
                "total_bytes": pa.array(cells * sizes[ti]),
            }
        )

    return shuffle_mod.fold(
        _exploded(sf_dir).map_batches(project, batch_format="pyarrow"),
        "cell_type",
        pa.schema([("cell_type", pa.string()), *_i64("n_tiles", "total_cells", "total_bytes")]),
    )


def q_flagship_cells(sf_dir: str):
    """Full erased-cell flagship (all 10 cell types, masked stats,
    level-8 Hilbert cell ids, salted aggregate) — ORACLE-CHECKED: the
    LCG decode, the per-type value mapping, the masked min/max fold and
    the Hilbert rotate-and-accumulate are all reproduced in DuckDB SQL
    (oracles._erased_tile_stats / _hilbert_chain). ``avg_tile_mean`` is
    projected away on both sides: a float sum across tiles is
    summation-order-dependent, so it can never hash-match (its value
    parity is pinned in tests/test_engine.py instead)."""
    agg = pl.flagship(pl.docs_dir_for_sf(sf_dir), with_join=False)

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                # Hilbert ids fit in 62 bits → exact as int64 (the
                # driver-side compare needs one signed type both sides)
                "cell_id": pc.cast(t["cell_id"], pa.int64()),
                "n_tiles": pc.cast(t["n_tiles"], pa.int64()),
                "valid_count": pc.cast(t["valid_count"], pa.int64()),
                "nodata_count": pc.cast(t["nodata_count"], pa.int64()),
                "min_val": t["min_val"],
                "max_val": t["max_val"],
            }
        )

    return agg.map_batches(finalize, batch_format="pyarrow")


def q_pip_join_counts(sf_dir: str):
    """Broadcast PIP join of footprints × tile centroids → per-category
    counts (oracle-checked: exact even-odd ray cast over the unnested
    footprint edge table in SQL; brute-force pin in tests/test_geo.py).

    The join consumes only tile EXTENTS, so this path skips the cell
    decode entirely (extents are seed arithmetic) — the stats-consuming
    variant of the same join is ``q_zonal_stats``."""
    from raycells.io import tilestore

    def tile_points(b: pa.Table) -> pa.Table:
        seeds = tilestore.seed_of_refs(b["media_ref"])
        lon, lat = tilestore.centroids(seeds)
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "span_idx": b["span_idx"],
                "lon": pa.array(lon, pa.float64()),
                "lat": pa.array(lat, pa.float64()),
            }
        )

    pts = _exploded(sf_dir).map_batches(tile_points, batch_format="pyarrow")
    return _category_counts(pl.join_stage(pts))


def _category_counts(joined) -> pa.Table:
    """Rows per ``category``, in a column named ``count()`` as the PIP
    oracles name it."""
    return shuffle_mod.fold(
        joined.map_batches(
            lambda b: pa.table({"category": b["category"],
                                "count()": np.ones(b.num_rows, np.int64)}),
            batch_format="pyarrow",
        ),
        "category",
        pa.schema([("category", pa.string()), ("count()", pa.int64())]),
    )


def q_footprint_metrics(sf_dir: str):
    """Vector-side polygon metrics (NEW round 3): per footprint the
    exact DOUBLED shoelace area in e-6°-quantized units plus the edge
    count — the vector-geometry rollup that pairs with the raster-side
    zonal stats. Coordinates quantize to e6 integers with the shared
    floor(x·1e6 + 0.5) recipe (exact given bit-identical parquet doubles
    on both engines), so the cross-product sum is pure int64 arithmetic:
    order-free and hashable. Shape at scale: one driver fold
    (``shuffle.fold``) per footprint — no exchange."""
    import ray.data as rd

    from raycells.io import footprints as fp_mod

    fp_mod.ensure_edges_parquet()
    ds = rd.read_parquet(fp_mod.EDGES_PARQUET, override_num_blocks=4)

    def partial(b: pa.Table) -> pa.Table:
        q = {
            c: _half_up(b[c].to_numpy(zero_copy_only=False) * 1e6).astype(np.int64)
            for c in ("x1", "y1", "x2", "y2")
        }
        return pa.table(
            {
                "footprint_id": b["footprint_id"],
                "category": b["category"],
                "n_edges": np.ones(b.num_rows, np.int64),
                "area2_e12": q["x1"] * q["y2"] - q["x2"] * q["y1"],
            }
        )

    return shuffle_mod.fold(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["footprint_id", "category"],
        pa.schema(
            [("footprint_id", pa.string()), ("category", pa.string()),
             *_i64("n_edges", "area2_e12")]
        ),
    )


def q_nearest_footprint(sf_dir: str):
    """Nearest-neighbor SPATIAL JOIN (NEW round 3): assign every tile to
    its nearest footprint (bbox center, squared equirect distance) — the
    vector-assignment complement of knn_tiles (which ranks tiles around
    query points). The 200-row footprint side broadcasts once (ray.put);
    each batch computes one vectorized (B, F) distance matrix and emits
    its argmin — ties break to the smallest footprint_id (footprints are
    pre-sorted by id, np.argmin takes the first minimum; the oracle's
    ROW_NUMBER ORDER BY d2, footprint_id is identical). d2 is an
    elementwise fixed-shape IEEE expression (two products, one sum), so
    the float column hash-matches. For a footprint side too big to
    broadcast, the cell-cover co-partition join (pip_join_cellcover) is
    the scale path."""
    import ray

    from raycells.io import footprints as fp_mod
    from raycells.io import tilestore

    fp_mod.ensure_bbox_parquet()
    import pyarrow.parquet as pq

    fp = pq.read_table(fp_mod.BBOX_PARQUET).to_pandas().sort_values("footprint_id")
    cx = ((fp["minx"] + fp["maxx"]) / 2.0).to_numpy()
    cy = ((fp["miny"] + fp["maxy"]) / 2.0).to_numpy()
    ids = fp["footprint_id"].to_numpy()
    cats = fp["category"].to_numpy()
    ref = ray.put((cx, cy, ids, cats))

    class Nearest:
        def __init__(self, r):
            self.cx, self.cy, self.ids, self.cats = ray.get(r)

        def __call__(self, b: pa.Table) -> pa.Table:
            seeds = tilestore.seed_of_refs(b["media_ref"])
            lon, lat = tilestore.centroids(seeds)
            dx = lon[:, None] - self.cx[None, :]
            dy = lat[:, None] - self.cy[None, :]
            d2 = dx * dx + dy * dy  # fixed 2-term IEEE tree, SQL-mirrored
            j = np.argmin(d2, axis=1)  # first min = smallest id (sorted)
            rows = np.arange(len(seeds))
            return pa.table(
                {
                    "doc_id": b["doc_id"],
                    "span_idx": pc.cast(b["span_idx"], pa.int64()),
                    "seed": pa.array(seeds, pa.int64()),
                    "footprint_id": pa.array(self.ids[j], pa.string()),
                    "category": pa.array(self.cats[j], pa.string()),
                    "d2": pa.array(d2[rows, j], pa.float64()),
                }
            )

    return _exploded(sf_dir).map_batches(
        stages.broadcast_task(Nearest, ref), batch_format="pyarrow"
    )


def q_zonal_by_nearest(sf_dir: str):
    """Zonal statistics with NEAREST-footprint zones (NEW round 3) — the
    composite of the NN spatial join and the salted zonal aggregate:
    every tile is assigned to its nearest footprint (bbox center,
    first-min tie to smallest id, exactly q_nearest_footprint's rule)
    and its erased-cell band stats roll up per zone. One fused map stage
    (decode + assignment against the broadcast 200-row center table),
    then a per-footprint driver fold (``shuffle.fold``; the zones are a
    200-row side table) — integer columns only,
    so the oracle (gridded tile stats ⋈ ROW_NUMBER assignment) hash-
    matches."""
    import ray

    from raycells.io import footprints as fp_mod

    fp_mod.ensure_bbox_parquet()
    import pyarrow.parquet as pq

    fp = pq.read_table(fp_mod.BBOX_PARQUET).to_pandas().sort_values("footprint_id")
    cx = ((fp["minx"] + fp["maxx"]) / 2.0).to_numpy()
    cy = ((fp["miny"] + fp["maxy"]) / 2.0).to_numpy()
    ids = fp["footprint_id"].to_numpy()
    cats = dict(zip(fp["footprint_id"], fp["category"]))
    ref = ray.put((cx, cy, ids))

    class Assign:
        def __init__(self, r):
            self.cx, self.cy, self.ids = ray.get(r)

        def __call__(self, b: pa.Table) -> pa.Table:
            st = stages.band_stats(b, band=4)
            lon = st["lon"].to_numpy(zero_copy_only=False)
            lat = st["lat"].to_numpy(zero_copy_only=False)
            dx = lon[:, None] - self.cx[None, :]
            dy = lat[:, None] - self.cy[None, :]
            j = np.argmin(dx * dx + dy * dy, axis=1)
            return st.append_column(
                "footprint_id", pa.array(self.ids[j], pa.string())
            )

    stats = ("n_tiles", "sum_valid_count", "sum_sum_val", "min_min_val", "max_max_val")

    def project(b: pa.Table) -> pa.Table:
        cols = [b[c] for c in ("valid_count", "sum_val", "min_val", "max_val")]
        return pa.table([b["footprint_id"], pa.array(np.ones(b.num_rows, np.int64)), *cols],
                        names=["footprint_id", *stats])

    t = shuffle_mod.fold(
        _exploded(sf_dir)
        .map_batches(stages.broadcast_task(Assign, ref), batch_format="pyarrow")
        .map_batches(project, batch_format="pyarrow"),
        "footprint_id",
        pa.schema([("footprint_id", pa.string()), *_i64(*stats)]),
        {"min_min_val": "min", "max_max_val": "max"},
    )
    fids = t["footprint_id"].to_pylist()
    return t.add_column(1, "category", pa.array([cats[f] for f in fids], pa.string()))


def q_bbox_join_counts(sf_dir: str):
    """Rect-intersection range join, VALUE-checked: tile extents ×
    footprint bounding boxes → per-footprint intersecting-tile count.
    The bbox side is broadcast; each batch does one vectorized (B, F)
    interval test and emits per-footprint partial counts, so the final
    exchange is F rows per block. (The exact ring PIP join is
    oracle-checked too — see q_pip_join_counts; this bbox prefilter is
    the cheap half of the same join.)"""
    import ray

    from raycells.io import footprints as fp_mod
    from raycells.io import tilestore

    bbox_tbl = pq.read_table(fp_mod.ensure_bbox_parquet())
    fids = np.asarray(bbox_tbl["footprint_id"].to_pylist(), dtype=object)
    boxes = np.stack(
        [bbox_tbl[c].to_numpy() for c in ("minx", "miny", "maxx", "maxy")], axis=1
    )
    ref = ray.put((fids, boxes))

    class BboxCounter:
        def __init__(self, r):
            self.fids, self.boxes = ray.get(r)

        def __call__(self, b: pa.Table) -> pa.Table:
            seeds = tilestore.seed_of_refs(b["media_ref"])
            ext = tilestore.extents(seeds)
            hit = (
                (ext["minx"][:, None] <= self.boxes[None, :, 2])
                & (ext["maxx"][:, None] >= self.boxes[None, :, 0])
                & (ext["miny"][:, None] <= self.boxes[None, :, 3])
                & (ext["maxy"][:, None] >= self.boxes[None, :, 1])
            )
            counts = hit.sum(axis=0).astype(np.int64)
            nz = counts > 0
            return pa.table(
                {
                    "footprint_id": pa.array(list(self.fids[nz]), pa.string()),
                    "n_tiles": pa.array(counts[nz]),
                }
            )

    return shuffle_mod.fold(
        _exploded(sf_dir).map_batches(
            stages.broadcast_task(BboxCounter, ref), batch_format="pyarrow"
        ),
        "footprint_id",
        pa.schema([("footprint_id", pa.string()), ("n_tiles", pa.int64())]),
    )


def q_zonal_stats(sf_dir: str):
    """Zonal statistics — the classic raster-zone workload: per footprint
    polygon, aggregate the erased-cell stats of every tile whose centroid
    falls inside it (broadcast PIP join → per-footprint ``shuffle.fold``;
    oracle-checked: the edge-table ray cast in SQL; value parity vs a
    brute-force single-process oracle also pinned in tests/test_geo.py)."""
    stats = _exploded(sf_dir).map_batches(
        lambda b: stages.decode_stats(b, emit="stats"), batch_format="pyarrow"
    )
    names = ("n_tiles", "sum_valid_count", "sum_nodata_count", "min_min_val", "max_max_val")

    def project(b: pa.Table) -> pa.Table:
        cols = [b[c] for c in ("valid_count", "nodata_count", "min_val", "max_val")]
        return pa.table([b["footprint_id"], pa.array(np.ones(b.num_rows, np.int64)), *cols],
                        names=["footprint_id", *names])

    return shuffle_mod.fold(
        pl.join_stage(stats).map_batches(project, batch_format="pyarrow"),
        "footprint_id",
        # min/max stay float64: erased tiles span all 10 cell types, so
        # the fold's result can be fractional; it is an elementwise-derived
        # exact double (not a sum), stable across engines and partitionings.
        pa.schema([("footprint_id", pa.string()),
                   *_i64("n_tiles", "sum_valid_count", "sum_nodata_count"),
                   ("min_min_val", pa.float64()), ("max_max_val", pa.float64())]),
        {"min_min_val": "min", "max_max_val": "max"},
    )


def q_pip_join_cellcover(sf_dir: str):
    """Large-large spatial-join fallback: co-partition tiles and polygon
    cell covers by Hilbert cell, exact PIP per cell group — one shuffle,
    no broadcast (oracle-checked; equivalence to the broadcast join is
    pinned in tests/test_engine.py)."""
    from raycells.io import footprints as fp_mod

    stats = _exploded(sf_dir).map_batches(
        lambda b: stages.decode_stats(b, emit="stats"), batch_format="pyarrow"
    )
    return _category_counts(stages.cell_cover_join(stats, fp_mod.generate_footprints()))


def q_knn_tiles(sf_dir: str):
    """kNN tile lookup, SHARDED (geo/knn.sharded_knn — the scale path):
    tile points shard by coarse parent cell, queries route to the shards
    their probe rings touch, each shard answers a vectorized local
    top-k, and only per-shard top-k rows reach the driver for the global
    merge. No driver-side point materialization anywhere; ties broken by
    seed (oracle parity). The single-index ``KnnIndex`` remains for
    query-stream workloads where the point set is small enough to ship."""
    from raycells.geo.knn import sharded_knn

    pts = _exploded(sf_dir).map_batches(
        lambda b: _seed_points(b), batch_format="pyarrow"
    )
    return sharded_knn(pts, KNN_QUERIES, KNN_K, parent_level=3)


def _seed_points(batch: pa.Table) -> pa.Table:
    from raycells.io import tilestore

    seeds = tilestore.seed_of_refs(batch["media_ref"])
    lon, lat = tilestore.centroids(seeds)
    return pa.table(
        {
            "seed": pa.array(seeds, pa.int64()),
            "lon": pa.array(lon),
            "lat": pa.array(lat),
        }
    )


RN_RADIUS_E3 = 50  # neighbor radius, integer milli-degrees (planar)
_RN_OFF = 4096  # cell-key offset: |coord| / R < 3600 for any lon/lat
_RN_MOD = 8192


def q_radius_neighbors(sf_dir: str):
    """DBSCAN-style radius-neighbor counting (NEW round 5) — the
    distance-band spatial SELF-join: for every distinct tile point, the
    number of OTHER points within RN_RADIUS_E3 milli-degrees (planar
    d² ≤ R², exact integers — hashable cross-engine). This is the
    density/core-point primitive clustering and spatial-outlier passes
    build on, and the join shape (pairs within a radius) that kNN and
    bbox joins don't cover.

    Shape at scale — NO all-pairs anywhere: each point maps to an
    R-sized grid cell; the probe side replicates into its 3×3 ring
    (every ≤R pair is then cell-co-located), ONE coarse-bucket exchange
    of 40-B rows co-partitions hosts and probes, and each bucket runs a
    vectorized cell-equijoin + exact d² filter. A point's cell is a
    pure function of its seed, so per-bucket dedup of repeated seeds IS
    global dedup (same seed → same cell → same bucket). Skew: a dense
    city cell holds O(density·R²) points — shrink R (cells are free)
    before any single cell's candidate product exceeds a worker."""
    from raycells.io import tilestore

    R = RN_RADIUS_E3

    def emit(b: pa.Table) -> pa.Table:
        seeds = np.unique(tilestore.seed_of_refs(b["media_ref"]))
        x, y = tilestore.centroids_e3(seeds)
        cx, cy = x // R, y // R
        n = seeds.size
        # host row (side 0) in its own cell + 9 probe rows (side 1)
        reps = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                ck = (cx + dx + _RN_OFF) * _RN_MOD + (cy + dy + _RN_OFF)
                reps.append(ck)
        host_ck = (cx + _RN_OFF) * _RN_MOD + (cy + _RN_OFF)
        cell = np.concatenate([host_ck, *reps])
        side = np.concatenate(
            [np.zeros(n, np.int8), np.ones(9 * n, np.int8)]
        )
        return pa.table(
            {
                "cell": pa.array(cell),
                "side": pa.array(side),
                "seed": pa.array(np.tile(seeds, 10)),
                "x": pa.array(np.tile(x, 10)),
                "y": pa.array(np.tile(y, 10)),
            }
        )

    def count(g: pa.Table) -> pa.Table:
        df = g.to_pandas()
        hosts = df[df["side"] == 0].drop_duplicates(["cell", "seed"])
        probes = df[df["side"] == 1].drop_duplicates(["cell", "seed"])
        cand = hosts.merge(
            probes[["cell", "seed", "x", "y"]], on="cell", suffixes=("", "_p")
        )
        dx = cand["x"].to_numpy() - cand["x_p"].to_numpy()
        dy = cand["y"].to_numpy() - cand["y_p"].to_numpy()
        ok = (cand["seed"].to_numpy() != cand["seed_p"].to_numpy()) & (
            dx * dx + dy * dy <= R * R
        )
        out = (
            cand[ok]
            .groupby("seed", sort=False, as_index=False)
            .size()
            .rename(columns={"size": "n_neighbors"})
        )
        out["n_neighbors"] = out["n_neighbors"].astype(np.int64)
        return shuffle_mod.from_pandas_clean(out[["seed", "n_neighbors"]])

    return shuffle_mod.bucket_reduce(
        _exploded(sf_dir).map_batches(emit, batch_format="pyarrow"), "cell", count
    )


def q_top_dense_cells(sf_dir: str):
    """Top-k dense cells diagnostic (SURVEY.md §2.9): per-cell aggregate
    → sort by tile count desc (grid_cell tie-break) → limit 20. The
    skewed city boxes dominate, which is the point of the salting."""
    agg = q_cell_agg_band(sf_dir)
    top = agg.sort(["n_tiles", "grid_cell"], descending=[True, True]).limit(20)

    def project(t: pa.Table) -> pa.Table:
        return pa.table({"grid_cell": t["grid_cell"], "n_tiles": t["n_tiles"]})

    return top.map_batches(project, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# tabular family (testdata views)
# ---------------------------------------------------------------------------


def _fold_all(ds, schema: pa.Schema, count: str, ops: dict | None = None) -> pa.Table:
    """An aggregate without GROUP BY, as SQL answers it: one row, from a
    ``shuffle.fold`` over one constant key; over no rows ``count`` is 0
    and every other column NULL."""
    t = shuffle_mod.fold(
        ds.map_batches(
            lambda b: b.append_column("_all", pa.array(np.zeros(b.num_rows, np.int64))),
            batch_format="pyarrow",
        ),
        "_all",
        pa.schema([("_all", pa.int64()), *schema]),
        ops,
    )
    if t.num_rows:
        return t.drop_columns(["_all"])
    return pa.table([pa.array([0 if f.name == count else None], f.type) for f in schema],
                    schema=schema)


def q_global_stats(sf_dir: str):
    """Whole-dataset aggregate (no grouping): count/sum/min/max over
    lineitem (SURVEY.md §2.9 'global stats')."""
    ds = _read(sf_dir, "lineitem", columns=["l_quantity", "l_extendedprice"])

    def derive(b: pa.Table) -> pa.Table:
        qty = _half_up(b["l_quantity"].to_numpy(zero_copy_only=False)).astype(np.int64)
        price_c = _half_up(
            b["l_extendedprice"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        return pa.table({"n_rows": np.ones(b.num_rows, np.int64), "sum_qty": qty,
                         "min_price_c": price_c, "max_price_c": price_c})

    return _fold_all(
        ds.map_batches(derive, batch_format="pyarrow"),
        pa.schema(_i64("n_rows", "sum_qty", "min_price_c", "max_price_c")),
        "n_rows",
        {"min_price_c": "min", "max_price_c": "max"},
    )


def q_quantiles_qty(sf_dir: str):
    """Distributed exact quantiles over a discrete domain: per-batch
    value-count partials → driver fold of the O(blocks × values)
    partials → cumulative pick at ceil(q·n) (DuckDB ``quantile_disc``
    convention). No exchange: a Ray sort Aggregate costs ~2 s FIXED at
    this block count (CLAUDE.md); the fold is one pandas groupby over a
    few thousand tiny rows. For continuous domains the same shape
    carries a t-digest sketch instead."""
    ds = _read(sf_dir, "lineitem", columns=["l_quantity"])

    def counts(b: pa.Table) -> pa.Table:
        qty = _half_up(b["l_quantity"].to_numpy(zero_copy_only=False)).astype(np.int64)
        return pa.table({"qty": qty, "n": np.ones(len(qty), np.int64)})

    hist = shuffle_mod.fold(
        ds.map_batches(counts, batch_format="pyarrow"), "qty",
        pa.schema(_i64("qty", "n")),
    )
    cum = np.cumsum(hist["n"].to_numpy())
    total = int(cum[-1]) if len(cum) else 0
    vals = hist["qty"].to_numpy()

    def pick(q: float) -> int:
        rank = int(np.ceil(q * total))  # 1-based rank, quantile_disc
        return int(vals[np.searchsorted(cum, rank)])

    return pa.table(
        {
            "p50": pa.array([pick(0.5)], pa.int64()),
            "p90": pa.array([pick(0.9)], pa.int64()),
            "p99": pa.array([pick(0.99)], pa.int64()),
            "n_rows": pa.array([total], pa.int64()),
        }
    )


def q_sessionize(sf_dir: str):
    """Stateful per-key windowing: gap-based sessionization of the events
    stream (new session when >30 min since the user's previous event),
    via one user-bucket exchange with a vectorized gaps-and-islands body
    over each whole bucket: sort by (user, ts), and a session starts at
    every user boundary and every gap."""
    ds = _read(sf_dir, "events", columns=["user_id", "ts"])

    def sessions(g: pa.Table) -> pa.Table:
        user = g["user_id"].to_numpy(zero_copy_only=False)
        ts = g["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]").astype(np.int64)
        order = np.lexsort((ts, user))
        user, ts = user[order], ts[order]
        first = np.r_[True, user[1:] != user[:-1]]
        starts = np.flatnonzero(first | (np.diff(ts, prepend=ts[0]) > 30 * 60 * 1_000_000))
        sizes = np.diff(np.r_[starts, user.size])  # events per session
        user_first = np.flatnonzero(first[starts])  # each user's first session
        return pa.table(
            {
                "user_id": g["user_id"].take(pa.array(order[first])),
                "n_events": np.add.reduceat(sizes, user_first).astype(np.int64),
                "n_sessions": np.diff(np.r_[user_first, starts.size]).astype(np.int64),
                "max_session_events": np.maximum.reduceat(sizes, user_first).astype(np.int64),
            }
        )

    return shuffle_mod.bucket_reduce(ds, "user_id", sessions)


def q_revenue_by_nation(sf_dir: str):
    """Multi-way broadcast join: orders ⋈ customer ⋈ nation (both small
    sides ride the object store once), grouped revenue per nation."""
    import ray

    cust = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_nationkey"]
    )
    nation = pq.read_table(
        os.path.join(sf_dir, "nation.parquet"), columns=["n_nationkey", "n_name"]
    )
    ck = cust["c_custkey"].to_numpy()
    order_k = np.argsort(ck, kind="stable")
    nk_by_ck = cust["c_nationkey"].to_numpy()[order_k]
    names = np.asarray(nation["n_name"].to_pylist(), dtype=object)
    name_by_nk = np.empty(int(nation["n_nationkey"].to_numpy().max()) + 1, dtype=object)
    name_by_nk[nation["n_nationkey"].to_numpy()] = names
    side_ref = ray.put((ck[order_k], nk_by_ck, name_by_nk))

    class NationJoiner:
        def __init__(self, ref):
            self.ck, self.nk, self.names = ray.get(ref)

        def __call__(self, b: pa.Table) -> pa.Table:
            ok = b["o_custkey"].to_numpy(zero_copy_only=False)
            pos = np.clip(np.searchsorted(self.ck, ok), 0, len(self.ck) - 1)
            hit = self.ck[pos] == ok
            nname = np.where(hit, self.names[self.nk[pos]], None)
            price_c = _half_up(
                b["o_totalprice"].to_numpy(zero_copy_only=False) * 100
            ).astype(np.int64)
            t = pa.table(
                {
                    "n_name": pa.array(list(nname), pa.string()),
                    "n_orders": np.ones(b.num_rows, np.int64),
                    "revenue_c": pa.array(price_c),
                }
            )
            return t.filter(pc.is_valid(t["n_name"]))

    return shuffle_mod.fold(
        _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
        .map_batches(stages.broadcast_task(NationJoiner, side_ref),
                     batch_format="pyarrow"),
        "n_name",
        pa.schema([("n_name", pa.string()), *_i64("n_orders", "revenue_c")]),
    )


def q_lineitem_pricing(sf_dir: str):
    """TPC-H-Q1-style grouped aggregate with per-row computed columns;
    driver fold (≤ 6 groups) over exact cent units."""
    ds = _read(sf_dir, "lineitem", columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount", "l_tax"])

    def derive(b: pa.Table) -> pa.Table:
        # exact integer units per row (prices/discounts/taxes have 2
        # decimals): summing int64 is order-independent, so the DuckDB
        # oracle matches bit-for-bit — no float-rounding coin flips.
        ep_c = _half_up(
            b["l_extendedprice"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        dc_c = _half_up(b["l_discount"].to_numpy(zero_copy_only=False) * 100).astype(
            np.int64
        )
        tx_c = _half_up(b["l_tax"].to_numpy(zero_copy_only=False) * 100).astype(
            np.int64
        )
        disc_e4 = ep_c * (100 - dc_c)
        return pa.table(
            {
                "l_returnflag": b["l_returnflag"],
                "l_linestatus": b["l_linestatus"],
                "count_order": np.ones(b.num_rows, np.int64),
                "sum_qty": _half_up(
                    b["l_quantity"].to_numpy(zero_copy_only=False)
                ).astype(np.int64),
                "sum_disc_price_e4": disc_e4,
                "sum_charge_e6": disc_e4 * (100 + tx_c),
            }
        )

    return shuffle_mod.fold(
        ds.map_batches(derive, batch_format="pyarrow"),
        ["l_returnflag", "l_linestatus"],
        pa.schema(
            [("l_returnflag", pa.string()), ("l_linestatus", pa.string()),
             *_i64("count_order", "sum_qty", "sum_disc_price_e4", "sum_charge_e6")]
        ),
    )


def q_orders_by_segment(sf_dir: str):
    """Broadcast hash join (orders ⋈ customer on custkey — the small side
    rides the object store once) + grouped aggregate per market segment."""
    import ray

    cust = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_mktsegment"]
    )
    keys = cust["c_custkey"].to_numpy()
    segs = np.asarray(cust["c_mktsegment"].to_pylist(), dtype=object)
    order_k = np.argsort(keys, kind="stable")
    side_ref = ray.put((keys[order_k], segs[order_k]))

    class SegmentJoiner:
        def __init__(self, ref):
            self.keys, self.segs = ray.get(ref)

        def __call__(self, b: pa.Table) -> pa.Table:
            ck = b["o_custkey"].to_numpy(zero_copy_only=False)
            pos = np.searchsorted(self.keys, ck)
            pos = np.clip(pos, 0, len(self.keys) - 1)
            hit = self.keys[pos] == ck
            price_c = _half_up(
                b["o_totalprice"].to_numpy(zero_copy_only=False) * 100
            ).astype(np.int64)
            return pa.table(
                {
                    "c_mktsegment": pa.array(self.segs[pos[hit]], pa.string()),
                    "n_orders": np.ones(int(hit.sum()), np.int64),
                    "sum_totalprice_c": price_c[hit],
                }
            )

    return shuffle_mod.fold(
        _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
        .map_batches(stages.broadcast_task(SegmentJoiner, side_ref),
                     batch_format="pyarrow"),
        "c_mktsegment",
        pa.schema(
            [("c_mktsegment", pa.string()), *_i64("n_orders", "sum_totalprice_c")]
        ),
    )


def q_dedup_exact(sf_dir: str):
    """Exact dedup accounting per source: total docs vs distinct texts
    (hash-partitioned distinct — the shuffle moves 16-byte rows)."""
    ds = _read(sf_dir, "documents", SMALL_TABLE_BLOCKS, columns=["source", "text"])
    hashed = ds.map_batches(
        lambda b: pa.table(
            {
                "source": b["source"],
                "content_hash": pa.array(
                    dd.content_hash64(b["text"].to_pylist()), pa.int64()
                ),
                "n_docs": np.ones(b.num_rows, np.int64),
            }
        ),
        batch_format="pyarrow",
    )
    per_hash = shuffle_mod.aggregate(
        hashed, ["source", "content_hash"],
        pa.schema([("source", pa.string()), *_i64("content_hash", "n_docs")]),
    )
    return shuffle_mod.fold(
        per_hash.map_batches(
            lambda b: b.append_column(
                "n_unique_texts", pa.array(np.ones(b.num_rows, np.int64))
            ),
            batch_format="pyarrow",
        ),
        "source",
        pa.schema([("source", pa.string()), *_i64("n_docs", "n_unique_texts")]),
    )


def q_token_stats(sf_dir: str):
    """Token counting + quality scoring rolled up per language."""
    ds = _read(sf_dir, "documents", SMALL_TABLE_BLOCKS, columns=["lang", "text"])
    return _token_stats_over(ds)


def _token_stats_over(ds):
    """The token_stats operator chain over any (lang, text) Dataset —
    shared by the parquet and JSONL source variants."""
    scored = ds.map_batches(
        lambda b: ta.quality_metrics(b, col="text"), batch_format="pyarrow"
    )

    def project(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "lang": b["lang"],
                "n_docs": np.ones(b.num_rows, np.int64),
                "total_tokens": b["n_tokens"],
                "total_stopword_hits": b["stopword_hits"],
                "n_quality_ok": pc.cast(b["quality_ok"], pa.int64()),
            }
        )

    return shuffle_mod.fold(
        scored.map_batches(project, batch_format="pyarrow"),
        "lang",
        pa.schema([("lang", pa.string()),
                   *_i64("n_docs", "total_tokens", "total_stopword_hits", "n_quality_ok")]),
    )


def q_lang_id(sf_dir: str):
    """Marker-word language-ID heuristic → (actual, detected) confusion
    counts; the oracle mirrors the scorer exactly."""
    ds = _read(sf_dir, "documents", SMALL_TABLE_BLOCKS, columns=["lang", "text"])
    detected = ds.map_batches(lambda b: ta.lang_id(b, col="text"), batch_format="pyarrow")

    def project(b: pa.Table) -> pa.Table:
        return pa.table({"lang": b["lang"], "lang_detected": b["lang_detected"],
                         "n_docs": np.ones(b.num_rows, np.int64)})

    return shuffle_mod.fold(
        detected.map_batches(project, batch_format="pyarrow"),
        ["lang", "lang_detected"],
        pa.schema([("lang", pa.string()), ("lang_detected", pa.string()),
                   ("n_docs", pa.int64())]),
    )


_EVENT_DAY_SCHEMA = pa.schema(
    [("event_type", pa.string()), ("day", pa.string()),
     *_i64("n_events", "sum_value_c")]
)


def _event_day_rows(b: pa.Table) -> pa.Table:
    """One (event_type, day, 1, value in cents) row per event: the
    projection the events_daily and events_rollup folds share."""
    return pa.table(
        {
            "event_type": pc.cast(b["event_type"], pa.string()),
            "day": pc.strftime(b["ts"], format="%Y-%m-%d"),
            "n_events": np.ones(b.num_rows, np.int64),
            "sum_value_c": _half_up(
                b["value"].to_numpy(zero_copy_only=False) * 100
            ).astype(np.int64),
        }
    )


def q_events_daily(sf_dir: str):
    """Grouped aggregate over the events stream table by (type, day):
    a driver fold over the ≤ |types × days| groups."""
    ds = _read(sf_dir, "events", columns=["event_type", "ts", "value"])
    return shuffle_mod.fold(
        ds.map_batches(_event_day_rows, batch_format="pyarrow"),
        ["event_type", "day"],
        _EVENT_DAY_SCHEMA,
    )


def q_cohort_retention(sf_dir: str):
    """Cohort RETENTION matrix (NEW round 5) — the classic product
    analytics reshape: every order counted into (cohort month = the
    customer's FIRST order month, order month). The shape is
    aggregate-then-join-back: the per-customer first month is itself a
    customer-sized table, so at 100 TB it can neither broadcast nor
    land on the driver — it CO-PARTITIONS with the orders stream
    through the same hash_join exchange (both sides large). The final
    (cohort, month) rollup is bounded by months², so it goes through the
    driver fold (``shuffle.fold``). Month strings compare
    lexicographically == chronologically ('%Y-%m'), keeping the MIN
    exact on both engines."""
    from raycells.engine.joins import hash_join

    ds = _read(
        sf_dir, "orders", SMALL_TABLE_BLOCKS,
        columns=["o_custkey", "o_orderdate"],
    ).materialize()  # feeds both the first-month aggregate and the join

    def project(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "ck": pc.cast(b["o_custkey"], pa.int64()),
                "month": pc.strftime(b["o_orderdate"], format="%Y-%m"),
            }
        )

    o = ds.map_batches(project, batch_format="pyarrow")
    first = shuffle_mod.aggregate(
        o.map_batches(
            lambda b: pa.table({"ck": b["ck"], "cohort": b["month"]}),
            batch_format="pyarrow",
        ),
        "ck",
        pa.schema([("ck", pa.int64()), ("cohort", pa.string())]),
        {"cohort": "min"},
        salt_col="cohort",
    )
    joined = hash_join(
        o, first,
        key_left="ck", key_right="ck",
        keep_left=["month"], keep_right=["cohort"],
    )

    def project(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "cohort": b["cohort"],
                "month": b["month"],
                "n_orders": np.ones(b.num_rows, np.int64),
            }
        )

    return shuffle_mod.fold(
        joined.map_batches(project, batch_format="pyarrow"),
        ["cohort", "month"],
        pa.schema([("cohort", pa.string()), ("month", pa.string()),
                   *_i64("n_orders")]),
    )


def q_value_outliers(sf_dir: str):
    """Grouped z-score OUTLIER detection (NEW round 5), exact integers
    end to end: events whose value deviates more than 3σ from their
    event_type's mean. The float rule (x−μ)² > 9σ² cross-multiplies to
    (n·x − S)² > 9(nQ − S²) over cent units (S = Σx, Q = Σx²), so both
    engines evaluate identical integer predicates — no float means or
    stds anywhere.

    Shape at scale: pass 1 folds per-type (n, S, Q) batch partials on
    the driver in PYTHON ints (exact at any magnitude); the per-group
    threshold t = isqrt(9(nQ − S²)) is precomputed once (|L| > t ⟺
    L² > 9(nQ−S²) — isqrt+1 is the exact integer boundary), broadcast
    in-closure, and pass 2 streams rows through one vectorized
    |n·x − S| > t filter. Per-row int64 bound: n·x_c < 2^63 holds to
    ~10^11 rows at 10^7 cents; beyond that, rescale units or recheck
    the float-prefiltered boundary rows exactly."""
    import math

    ds = _read(
        sf_dir, "events", SMALL_TABLE_BLOCKS,
        columns=["event_id", "event_type", "value"],
    ).materialize()  # both passes read the same narrow projection

    def moments(b: pa.Table) -> pa.Table:
        x = _half_up(b["value"].to_numpy(zero_copy_only=False) * 100).astype(
            np.int64
        )
        df = pd.DataFrame(
            {"g": b["event_type"].to_numpy(zero_copy_only=False), "x": x,
             "x2": x * x}
        )
        agg = df.groupby("g", sort=False).agg(
            n=("x", "size"), s=("x", "sum"), q=("x2", "sum")
        ).reset_index()
        return shuffle_mod.from_pandas_clean(agg)

    parts = ds.map_batches(moments, batch_format="pyarrow").to_pandas()
    thresholds = {}
    for g, sub in parts.groupby("g"):
        n = int(sub["n"].sum())
        s = sum(int(v) for v in sub["s"])  # Python bigints: exact
        qq = sum(int(v) for v in sub["q"])
        thresholds[g] = (n, s, math.isqrt(9 * (n * qq - s * s)))

    def flag(b: pa.Table, th=thresholds) -> pa.Table:
        x = _half_up(b["value"].to_numpy(zero_copy_only=False) * 100).astype(
            np.int64
        )
        g = b["event_type"].to_numpy(zero_copy_only=False)
        n = np.empty(len(g), np.int64)
        s = np.empty(len(g), np.int64)
        t = np.empty(len(g), np.int64)
        for key, (kn, ks, kt) in th.items():
            m = g == key
            n[m], s[m], t[m] = kn, ks, kt
        keep = np.abs(n * x - s) > t
        return pa.table(
            {
                "event_id": pc.cast(b["event_id"], pa.int64()).filter(
                    pa.array(keep)
                ),
                "event_type": b["event_type"].filter(pa.array(keep)),
                "value_c": pa.array(x[keep]),
            }
        )

    return ds.map_batches(flag, batch_format="pyarrow")


def q_events_rollup(sf_dir: str):
    """GROUPING-SETS rollup (NEW round 5): (event_type, day),
    (event_type), (day) and the grand total in ONE pass — the OLAP
    rollup/cube-lite reshape. Rolled-up dimensions carry the 'ALL'
    sentinel.

    Shape at scale: every event is emitted once per grouping set, with
    'ALL' in the rolled-up dimensions, and one driver fold over
    (event_type, day) yields all four levels — counts and exact cent
    sums are associative, so there is no second scan or exchange."""
    ds = _read(sf_dir, "events", columns=["event_type", "ts", "value"])

    def grouping_sets(b: pa.Table) -> pa.Table:
        t = _event_day_rows(b)
        rolled = pa.array(["ALL"] * t.num_rows, pa.string())
        no_day = t.set_column(1, "day", rolled)
        return pa.concat_tables(
            [t, no_day, t.set_column(0, "event_type", rolled),
             no_day.set_column(0, "event_type", rolled)]
        )

    return shuffle_mod.fold(
        ds.map_batches(grouping_sets, batch_format="pyarrow"),
        ["event_type", "day"],
        _EVENT_DAY_SCHEMA,
    )


def q_knn_embeddings(sf_dir: str):
    """Brute-force cosine top-k: queries = embeddings of vec_id 0..2,
    broadcast once; per-batch matmul top-k; tiny final merge."""
    # row-group-pruned driver read: only the 3 query vectors leave
    # storage, not the whole embedding table
    q = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", 3)],
    )
    qids = q["vec_id"].to_numpy(zero_copy_only=False)
    qmat = np.asarray(q["embedding"].to_pylist(), dtype=np.float64)
    ds = _read(sf_dir, "embeddings", SMALL_TABLE_BLOCKS, columns=["vec_id", "embedding"])
    t = topk_cosine(ds, qmat, qids, k=EMB_K, col="embedding", id_col="vec_id")
    return pa.table(
        {
            "query_id": pc.cast(t["query_id"], pa.int64()),
            "vec_id": pc.cast(t["vec_id"], pa.int64()),
            "rank": t["rank"],
        }
    )


def _keyed_documents(sf_dir: str):
    """documents ``(doc_id, text)`` plus ``doc_key``, the doc id as a
    string: the id column of the text near-dup queries."""
    ds = _read(sf_dir, "documents", SMALL_TABLE_BLOCKS, columns=["doc_id", "text"])
    return ds.map_batches(
        lambda b: b.append_column("doc_key", pc.cast(b["doc_id"], pa.string())),
        batch_format="pyarrow",
    )


def q_minhash_pairs(sf_dir: str):
    """MinHash+LSH near-dup verified pairs over documents (oracle:
    MinHash+LSH end-to-end in SQL; also pinned against brute-force
    Jaccard in tests/test_text.py)."""
    return dd.minhash_near_dup_pairs(
        _keyed_documents(sf_dir), col="text", id_col="doc_key", threshold=0.5
    )


def q_ngram_jaccard(sf_dir: str):
    """EXACT n-gram Jaccard near-dup pairs (J ≥ 4/5) via the
    prefix-filter set-similarity join — recall 1.0 by construction, in
    contrast to minhash_pairs' probabilistic LSH recall. Oracle:
    oracles._ngram_jaccard_sql (exact-integer prefix/size/threshold
    arithmetic on both engines)."""
    return dd.ngram_jaccard_near_dup_pairs(
        _keyed_documents(sf_dir), col="text", id_col="doc_key", threshold=(4, 5)
    )


def q_simhash_pairs(sf_dir: str):
    return dd.simhash_near_dup_pairs(
        _keyed_documents(sf_dir), col="text", id_col="doc_key", max_hamming=8
    )


def q_simhash128_pairs(sf_dir: str):
    """128-bit SimHash near-dup at max_hamming=12 (NEW round 5) — the
    wide-fingerprint scale path past the 64-bit density wall
    (text/dedup.simhash128 docstring): two uint64 lanes (polynomial
    token hash + its murmur3-finalizer remix), 13 pigeonhole chunks of
    ~9-10 bits spanning both lanes, summed per-lane SWAR Hamming verify.
    Oracle reproduces both lanes and the straddling chunk extraction in
    SQL (the HLL oracle's HUGEINT murmur recipe)."""
    return dd.simhash_near_dup_pairs(
        _keyed_documents(sf_dir), col="text", id_col="doc_key", max_hamming=12, bits=128
    )


def q_embedding_dups(sf_dir: str):
    """Embedding-cosine near-dup pairs via sign-LSH buckets
    (oracle-checked: murmur-mixed integer planes + integer cosine in SQL)."""
    ds = _read(sf_dir, "embeddings", SMALL_TABLE_BLOCKS, columns=["vec_id", "embedding"])
    return dd.embedding_near_dup_pairs(ds, threshold=0.35)


def q_ann_lsh(sf_dir: str):
    """Approximate nearest neighbors: sign-LSH bucketed cosine top-k for
    the first 3 embedding vectors (oracle-checked; recall pinned vs
    exact in tests/test_sim.py)."""
    from raycells.sim.knn import lsh_topk

    q = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", 3)],  # pruned read: queries only
    )
    qids = q["vec_id"].to_numpy(zero_copy_only=False)
    qmat = np.asarray(q["embedding"].to_pylist(), dtype=np.float64)
    ds = _read(sf_dir, "embeddings", SMALL_TABLE_BLOCKS, columns=["vec_id", "embedding"])
    t = lsh_topk(ds, qmat, qids, k=EMB_K, multiprobe=1)
    return pa.table(
        {
            "query_id": pc.cast(t["query_id"], pa.int64()),
            "vec_id": pc.cast(t["vec_id"], pa.int64()),
            "rank": t["rank"],
        }
    )


def q_ann_ivf(sf_dir: str):
    """Approximate nearest neighbors, IVF variant: coarse k-means lists
    trained on a bounded sample, nprobe-pruned scan (oracle-checked via
    ten unrolled exact-integer Lloyd iterations in SQL; recall and
    exhaustive-probe exactness pinned in tests/test_sim.py)."""
    from raycells.sim.ivf import ivf_topk

    q = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", 3)],  # pruned read: queries only
    )
    qids = q["vec_id"].to_numpy(zero_copy_only=False)
    qmat = np.asarray(q["embedding"].to_pylist(), dtype=np.float64)
    ds = _read(sf_dir, "embeddings", SMALL_TABLE_BLOCKS, columns=["vec_id", "embedding"])
    t = ivf_topk(ds, qmat, qids, k=EMB_K, n_centroids=16, nprobe=4)
    return pa.table(
        {
            "query_id": pc.cast(t["query_id"], pa.int64()),
            "vec_id": pc.cast(t["vec_id"], pa.int64()),
            "rank": t["rank"],
        }
    )


def q_ann_pq(sf_dir: str):
    """Approximate nearest neighbors, PQ-ADC variant (NEW round 5): the
    MEMORY-compression scale path — per-subspace exact-integer Lloyd
    codebooks (bounded driver sample, same quantizer as IVF), a
    distributed encode-to-m-byte-codes + LUT-score + per-block top-k
    stage, driver merges ≤ k·Q rows per block. At 100 TB the codes are
    m bytes where the vectors are 256 B — the corpus a scan touches
    shrinks ~100×. Oracle: two unrolled Lloyd chains (one per subspace)
    + argmax encode + the fixed-order (t0 + t1) ADC score in SQL."""
    from raycells.sim.pq import pq_adc_topk

    q = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", 3)],  # pruned read: queries only
    )
    qids = q["vec_id"].to_numpy(zero_copy_only=False)
    qmat = np.asarray(q["embedding"].to_pylist(), dtype=np.float64)
    ds = _read(sf_dir, "embeddings", SMALL_TABLE_BLOCKS, columns=["vec_id", "embedding"])
    t = pq_adc_topk(ds, qmat, qids, k=EMB_K, m=2, ks=8)
    return pa.table(
        {
            "query_id": pc.cast(t["query_id"], pa.int64()),
            "vec_id": pc.cast(t["vec_id"], pa.int64()),
            "rank": t["rank"],
        }
    )


def q_normalize_text(sf_dir: str):
    """Arrow-native text normalization (lowercase → strip non-alnum →
    trim), rolled up per source: total cleaned chars + token counts.
    Every kernel is a pyarrow.compute call — zero Python in the loop —
    and each has an exact DuckDB twin (lower / regexp_replace / trim)."""
    ds = _read(sf_dir, "documents", SMALL_TABLE_BLOCKS, columns=["source", "text"])

    def normalize(b: pa.Table) -> pa.Table:
        low = pc.utf8_lower(b["text"])
        cleaned = pc.replace_substring_regex(low, "[^a-z0-9 ]", "")
        trimmed = pc.utf8_trim_whitespace(cleaned)
        toks = pc.list_value_length(pc.split_pattern_regex(trimmed, " +"))
        empty = pc.equal(trimmed, "")
        toks = pc.if_else(empty, pa.scalar(0, pa.int32()), toks)
        return pa.table(
            {
                "source": b["source"],
                "n_docs": np.ones(b.num_rows, np.int64),
                "total_chars_clean": pc.cast(pc.utf8_length(cleaned), pa.int64()),
                "total_tokens_clean": pc.cast(toks, pa.int64()),
            }
        )

    return shuffle_mod.fold(
        ds.map_batches(normalize, batch_format="pyarrow"),
        "source",
        pa.schema([("source", pa.string()),
                   *_i64("n_docs", "total_chars_clean", "total_tokens_clean")]),
    )


def q_sample_lineitem(sf_dir: str):
    """Deterministic hash sampling (~10%) — the training-data
    downsampling primitive: keep rows where an integer mix of the key
    falls under the rate. Reproducible across engines (SQL-identical
    arithmetic), under retries, and across partitionings — no RNG
    state anywhere."""
    ds = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_linenumber", "l_quantity"])

    def sample(b: pa.Table) -> pa.Table:
        key = b["l_orderkey"].to_numpy(zero_copy_only=False) * 7 + pc.cast(
            b["l_linenumber"], pa.int64()
        ).to_numpy(zero_copy_only=False)
        keep = (key * 2654435761) % 97 < 10
        qty = _half_up(b["l_quantity"].to_numpy(zero_copy_only=False)).astype(np.int64)
        t = pa.table({"n_sampled": np.ones(b.num_rows, np.int64), "sum_qty": qty})
        return t.filter(pa.array(keep))

    return _fold_all(
        ds.map_batches(sample, batch_format="pyarrow"),
        pa.schema(_i64("n_sampled", "sum_qty")),
        "n_sampled",
    )


def q_fingerprint_docs(sf_dir: str):
    """Rolling-hash document fingerprints rolled up per source: count of
    distinct fingerprints (oracle-checked: the rolling polynomial hash
    in HUGEINT SQL; determinism pinned in tests)."""
    ds = _read(sf_dir, "documents", SMALL_TABLE_BLOCKS, columns=["source", "text"])
    fp = ds.map_batches(
        lambda b: pa.table(
            {
                "source": b["source"],
                "fingerprint": pa.array(ta.fingerprint64(b["text"].to_pylist()), pa.uint64()),
                "n_docs": np.ones(b.num_rows, np.int64),
            }
        ),
        batch_format="pyarrow",
    )
    per = shuffle_mod.aggregate(
        fp, ["source", "fingerprint"],
        pa.schema([("source", pa.string()), ("fingerprint", pa.uint64()),
                   ("n_docs", pa.int64())]),
    )
    # one row per distinct fingerprint: the per-source count sums ones
    return shuffle_mod.fold(
        per.map_batches(
            lambda b: pa.table({"source": b["source"],
                                "n_fingerprints": np.ones(b.num_rows, np.int64)}),
            batch_format="pyarrow",
        ),
        "source",
        pa.schema([("source", pa.string()), ("n_fingerprints", pa.int64())]),
    )


def q_media_features(sf_dir: str):
    """Multimodal plumbing pipeline: synth media → resize → frame-sample →
    decode features (stubbed codecs, real actor-pool stages)."""
    import ray.data as rd

    from raycells.media.stages import media_pipeline, synth_media_batch

    n = {"0.001": 60, "0.01": 300, "0.1": 3000}.get(_sf_of(sf_dir), 60)
    kinds = ["image", "audio", "video"]
    tables = [
        synth_media_batch(np.arange(k, n, 3, dtype=np.int64), kinds[k]) for k in range(3)
    ]
    # ≥ pool-size input blocks: a single from_arrow block starves the
    # min-2-actor pools (the r1 bench logged the Ray warning for it)
    ds = rd.from_arrow(pa.concat_tables(tables)).repartition(8)
    feats = media_pipeline(ds)
    return feats.drop_columns(["pixel_mean", "pixel_std"]).sort("media_id")


def q_media_decode_real(sf_dir: str):
    """REAL-codec media decode (NEW round 3) — the stub boundary made
    real: the SQL-reproducible LCG samples are packed into ACTUAL
    containers (stdlib-only PNG with CRC-checked chunks for images,
    RIFF/WAVE PCM-8 for audio — raycells/media/png.py), streamed as
    large_binary payloads, and decoded back through the real codecs in
    the decode stage (``MediaDecoder(real_codec=True)``). The decoded
    per-row moments therefore hash-match the same pure-SQL byte formula
    the fake-codec path proves — i.e. the real decode round-trip is
    oracle-verified, not just unit-tested. Video containers remain the
    one honest stub (ffmpeg). Codec state loads once per worker; the
    decode itself is per-payload by nature."""
    import ray.data as rd

    from raycells.media.stages import (
        MediaDecoder,
        _task_stage,
        synth_media_batch_encoded,
    )

    n = {"0.001": 60, "0.01": 300, "0.1": 3000}.get(_sf_of(sf_dir), 60)
    tables = [
        synth_media_batch_encoded(np.arange(0, n, 2, dtype=np.int64), "image"),
        synth_media_batch_encoded(np.arange(1, n, 2, dtype=np.int64), "audio"),
    ]
    ds = rd.from_arrow(pa.concat_tables(tables)).repartition(8)
    feats = ds.map_batches(
        _task_stage(MediaDecoder, True), batch_format="pyarrow", batch_size=64
    )
    return feats.drop_columns(["pixel_mean", "pixel_std"]).sort("media_id")


def _sf_of(sf_dir: str) -> str:
    m = re.search(r"sf([0-9.]+)", sf_dir)
    return m.group(1) if m else "0.001"


# ---------------------------------------------------------------------------
# co-partitioned join / window family (engine/joins.py)
# ---------------------------------------------------------------------------

def q_bloom_semijoin(sf_dir: str):
    """Approximate-membership SEMI-JOIN via a mergeable Bloom filter
    (NEW round 3; rebuilt on sim/sketch.py in round 4) — the sketch
    that replaces a broadcast key set at 100 TB: build side = customers
    with negative balance, per-batch PARTIAL bitmaps OR-merged by ONE
    Ray task (``sketch.bloom_build`` — the driver touches neither a key
    nor a bitmap); probe side = orders streaming
    against the broadcast bitmap. Rolled up per priority with BOTH the
    bloom-positive count and the exact semi-join count, so the false-
    positive behavior is itself oracle-pinned (bit indices are plain
    BIGINT mixes the SQL reproduces verbatim)."""
    import ray

    from raycells.sim import sketch
    from raycells.sim.bloom import bloom_probe

    cust = _read(
        sf_dir, "customer", SMALL_TABLE_BLOCKS, columns=["c_custkey", "c_acctbal"]
    )

    def neg_keys(b: pa.Table) -> pa.Table:
        bal = b["c_acctbal"].to_numpy(zero_copy_only=False)
        keys = pc.cast(b["c_custkey"], pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({"k": pa.array(keys[bal < 0], pa.int64())})

    negk = cust.map_batches(neg_keys, batch_format="pyarrow").materialize()
    # bitmap via the Dataset-level sketch surface (partials OR-merged in
    # a Ray task — since round 4 the driver never touches a bitmap)
    bm_ref = sketch.bloom_build(negk, "k")

    def _union_key_blocks(*tabs) -> np.ndarray:
        arrs = [
            t["k"].to_numpy(zero_copy_only=False)
            for t in shuffle_mod.block_tables(tabs, "k")
        ]
        return np.unique(np.concatenate(arrs)) if arrs else np.empty(0, np.int64)

    # the exact key set rides along ONLY to pin the FP rate in the
    # output — a pure bloom deployment broadcasts just the 8 KB bitmap.
    # Unioned worker-side (one Ray task), never on the driver.
    keys_ref = ray.remote(num_cpus=1)(_union_key_blocks).remote(
        *shuffle_mod.collect_refs(negk)
    )

    class Probe:
        def __init__(self, bm_r, keys_r):
            self.bitmap = ray.get(bm_r)
            self.keys = ray.get(keys_r)

        def __call__(self, b: pa.Table) -> pa.Table:
            k = pc.cast(b["o_custkey"], pa.int64()).to_numpy(zero_copy_only=False)
            pos = bloom_probe(self.bitmap, k)
            tru = np.isin(k, self.keys)
            return pa.table(
                {
                    "o_orderpriority": b["o_orderpriority"],
                    "n_orders": np.ones(len(k), np.int64),
                    "n_bloom_pos": pos.astype(np.int64),
                    "n_true": tru.astype(np.int64),
                }
            )

    orders = _read(
        sf_dir, "orders", SMALL_TABLE_BLOCKS, columns=["o_custkey", "o_orderpriority"]
    )
    return shuffle_mod.fold(
        orders.map_batches(
            stages.broadcast_task(Probe, bm_ref, keys_ref), batch_format="pyarrow"
        ),
        "o_orderpriority",
        pa.schema(
            [("o_orderpriority", pa.string()),
             *_i64("n_orders", "n_bloom_pos", "n_true")]
        ),
    )


def q_bloom_pruned_join(sf_dir: str):
    """Composed sketch + exact-join path (VERDICT r3 #7): the reusable
    ``sim.sketch`` surface pruning a large probe side BEFORE the join
    exchange. Build side = negative-balance customers → one 8 KB Bloom
    bitmap (per-batch partials OR-merged in a Ray task); probe side =
    orders streamed through ``bloom_prune`` so only bloom-positive rows
    enter the co-partitioned ``hash_join``; the exact join then drops
    the false positives, so the result carries PLAIN inner-join
    semantics and the oracle is the unsketchy SQL join. Final rollup
    per nation is the tiny-group driver-fold pattern (25 groups — a Ray
    aggregate would pay ~2 s fixed exchange cost)."""
    from raycells.engine.joins import hash_join
    from raycells.sim import sketch

    cust = _read(
        sf_dir,
        "customer",
        SMALL_TABLE_BLOCKS,
        columns=["c_custkey", "c_acctbal", "c_nationkey"],
    )

    def neg_rows(b: pa.Table) -> pa.Table:
        keep = b["c_acctbal"].to_numpy(zero_copy_only=False) < 0
        sub = b.filter(pa.array(keep))
        return pa.table(
            {
                "c_custkey": pc.cast(sub["c_custkey"], pa.int64()),
                "c_nationkey": pc.cast(sub["c_nationkey"], pa.int64()),
            }
        )

    # ONE customer scan: the filtered build side materializes (bounded —
    # it is the join's small side by construction) and the bloom builds
    # from its blocks instead of re-reading the table
    neg_cust = cust.map_batches(neg_rows, batch_format="pyarrow").materialize()
    bm_ref = sketch.bloom_build(neg_cust, "c_custkey")

    orders = _read(
        sf_dir, "orders", SMALL_TABLE_BLOCKS, columns=["o_custkey", "o_totalprice"]
    )

    def cents(b: pa.Table) -> pa.Table:
        p = _half_up(
            b["o_totalprice"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        return pa.table(
            {
                "o_custkey": pc.cast(b["o_custkey"], pa.int64()),
                "price_c": pa.array(p),
            }
        )

    pruned = sketch.bloom_prune(
        orders.map_batches(cents, batch_format="pyarrow"), bm_ref, "o_custkey"
    )
    joined = hash_join(
        pruned,
        neg_cust,
        key_left="o_custkey",
        key_right="c_custkey",
        keep_left=["price_c"],
        keep_right=["c_nationkey"],
    )

    def project(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "c_nationkey": b["c_nationkey"],
                "n_orders": np.ones(b.num_rows, np.int64),
                "sum_price_c": b["price_c"],
            }
        )

    return shuffle_mod.fold(
        joined.map_batches(project, batch_format="pyarrow"),
        "c_nationkey",
        pa.schema(_i64("c_nationkey", "n_orders", "sum_price_c")),
    )


def q_asof_latest_order(sf_dir: str):
    """As-of join: each event matched to the user's most recent order at
    event time (inner, backward; ties → greatest o_orderkey). One coarse
    bucket exchange on the key; vectorized merge_asof per bucket."""
    from raycells.engine.joins import asof_join

    events = _read(
        sf_dir, "events", SMALL_TABLE_BLOCKS, columns=["event_id", "user_id", "ts"]
    )
    orders = _read(
        sf_dir, "orders", SMALL_TABLE_BLOCKS, columns=["o_custkey", "o_orderdate", "o_orderkey"]
    )
    out = asof_join(
        events,
        orders,
        key_left="user_id",
        key_right="o_custkey",
        on_left="ts",
        on_right="o_orderdate",
        keep_left=["event_id"],
        keep_right=["o_orderkey"],
    )
    return out


def q_events_props_k(sf_dir: str):
    """Semi-structured extraction: parse the JSON ``props`` column,
    bucket the extracted ``k`` by decade, count per (event_type, bucket)
    (oracle via DuckDB json_extract). Extraction is a vectorized RE2
    kernel when every k is an integer literal (this corpus); rows the
    regex can't see fall back to per-value json.loads inside the same
    map_batches body, so the stage parallelizes per block either way."""
    ds = _read(sf_dir, "events", columns=["event_type", "props"])

    def extract(b: pa.Table) -> pa.Table:
        # vectorized RE2 fast path, ANCHORED to a top-level first-key
        # integer "k" so it can never bind a nested object's k; any row
        # the anchored regex can't see (k not first, quoted, float,
        # nested) falls back to real JSON parsing — json_extract-exact
        ext = pc.extract_regex(b["props"], r'^\{\s*"k"\s*:\s*(?P<k>-?\d+)\s*[,}]')
        kstr = pc.struct_field(ext, "k")
        valid = pc.is_valid(kstr)
        ks = np.empty(b.num_rows, dtype=np.int64)
        if valid.to_numpy(zero_copy_only=False).all():
            ks[:] = pc.cast(kstr, pa.int64()).to_numpy(zero_copy_only=False)
        else:
            import json

            for i, pr in enumerate(b["props"].to_pylist()):
                ks[i] = int(json.loads(pr)["k"])
        return pa.table(
            {
                "event_type": b["event_type"],
                "k_decade": (ks // 10) * 10,
                "n_events": np.ones(b.num_rows, np.int64),
            }
        )

    return shuffle_mod.fold(
        ds.map_batches(extract, batch_format="pyarrow"),
        ["event_type", "k_decade"],
        pa.schema([("event_type", pa.string()), *_i64("k_decade", "n_events")]),
    )


def q_events_rolling7(sf_dir: str):
    """Windowed aggregate: daily event counts per type plus a 7-day
    trailing-window count (calendar window, gap-aware). Wide work is the
    tiny daily rollup; the rolling pass runs once over the aggregated
    table (O(days × types) rows). At petabyte scale the rollup is the
    shuffle; the window never touches raw rows."""
    ds = _read(sf_dir, "events", columns=["event_type", "ts"])

    def day_of(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": b["event_type"],
                "day": pc.strftime(b["ts"], format="%Y-%m-%d"),
                "n_events": np.ones(b.num_rows, np.int64),
            }
        )

    daily = shuffle_mod.fold(
        ds.map_batches(day_of, batch_format="pyarrow"),
        ["event_type", "day"],
        pa.schema([("event_type", pa.string()), ("day", pa.string()),
                   ("n_events", pa.int64())]),
    )

    def rolling(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df["_d"] = pd.to_datetime(df["day"])
        df = df.sort_values(["event_type", "_d"], kind="stable")
        out = []
        for _, g in df.groupby("event_type", sort=False):
            d = g["_d"].to_numpy().astype("datetime64[D]").astype(np.int64)
            n = g["n_events"].to_numpy().astype(np.int64)
            csum = np.concatenate(([0], np.cumsum(n)))
            lo = np.searchsorted(d, d - 6, side="left")
            g = g.copy()
            g["n_events_7d"] = csum[np.arange(len(d)) + 1] - csum[lo]
            out.append(g)
        res = pd.concat(out)[["event_type", "day", "n_events", "n_events_7d"]]
        return shuffle_mod.from_pandas_clean(res)

    return rolling(daily)


def q_distinct_custs(sf_dir: str):
    """COUNT(DISTINCT) at scale: distinct ordering customers per order
    priority via per-batch pair dedup → bucket exchange on the distinct
    key → per-bucket partial counts → tiny final sum."""
    from raycells.engine.joins import distinct_count

    ds = _read(
        sf_dir, "orders", SMALL_TABLE_BLOCKS, columns=["o_orderpriority", "o_custkey"]
    )
    return distinct_count(ds, "o_orderpriority", "o_custkey", alias="n_custs")


def q_top_parts_by_brand(sf_dir: str):
    """Grouped top-k: 3 priciest parts per brand (price DESC, partkey
    DESC tie-break). Per-batch partial top-k shrinks the exchange to
    O(blocks × brands × k) rows before the single-task final ranking."""
    from raycells.engine.joins import grouped_topk

    ds = _read(sf_dir, "part", SMALL_TABLE_BLOCKS, columns=["p_brand", "p_partkey", "p_retailprice"]).map_batches(
        lambda b: pa.table(
            {
                "p_brand": b["p_brand"],
                "p_partkey": b["p_partkey"],
                "price_c": pc.cast(
                    pc.round(pc.multiply(b["p_retailprice"], 100)), pa.int64()
                ),
            }
        ),
        batch_format="pyarrow",
    )
    out = grouped_topk(ds, "p_brand", 3, order_col="price_c", tiebreak_col="p_partkey")

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "p_brand": t["p_brand"],
                "rank": pc.cast(t["rank"], pa.int64()),
                "p_partkey": t["p_partkey"],
                "price_c": t["price_c"],
            }
        )

    return out.map_batches(finalize, batch_format="pyarrow")


def q_priority_revenue(sf_dir: str):
    """Large-large co-partitioned hash join (no broadcast): lineitem ⋈
    orders on orderkey, then revenue cents per order priority. Both
    sides shuffle once on a coarse key bucket; one vectorized pandas
    merge per bucket.

    Plan note: a full per-orderkey pre-aggregation EXCHANGE before the
    join loses (measured 3 s vs 5 s — the second exchange's fixed cost
    dominates); a map-side within-batch combine is free of that cost
    and is kept for the shape (it collapses multi-item batches at
    bigger-block scale, though this testdata's lineitem is NOT
    orderkey-clustered, so here it only trims ~3%). The real wins are
    fixed-cost: this query's per-task compute is 6-10 ms, so the
    default 64-block read made it SCHEDULING-bound (~350 tasks ×
    ~10 ms driver overhead) — 8 read blocks cut the join 3.4 s → 1.1 s
    — and a per-batch partial aggregate after the join shrinks the
    final groupby's exchange from 580 k rows to blocks × 5 partials
    (whole query 3.5 s → 1.3 s at sf0.1/32 CPUs)."""
    from raycells.engine.joins import hash_join
    from raycells.engine.shuffle import from_pandas_clean

    def combine_items(b: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "l_orderkey": b["l_orderkey"].to_numpy(),
                "price_c": _half_up(b["l_extendedprice"].to_numpy() * 100).astype(
                    np.int64
                ),
            }
        )
        out = df.groupby("l_orderkey", sort=False).agg(
            price_c=("price_c", "sum"), n_items=("price_c", "size")
        )
        return from_pandas_clean(out.reset_index())

    li = _read(
        sf_dir, "lineitem", SMALL_TABLE_BLOCKS,
        columns=["l_orderkey", "l_extendedprice"],
    ).map_batches(combine_items, batch_format="pyarrow")
    orders = _read(
        sf_dir, "orders", SMALL_TABLE_BLOCKS, columns=["o_orderkey", "o_orderpriority"]
    )
    joined = hash_join(
        li,
        orders,
        key_left="l_orderkey",
        key_right="o_orderkey",
        keep_left=["price_c", "n_items"],
        keep_right=["o_orderpriority"],
    )

    return shuffle_mod.fold(
        joined.map_batches(
            lambda b: pa.table({"o_orderpriority": b["o_orderpriority"],
                                "n_items": b["n_items"], "revenue_c": b["price_c"]}),
            batch_format="pyarrow",
        ),
        "o_orderpriority",
        pa.schema([("o_orderpriority", pa.string()), *_i64("n_items", "revenue_c")]),
    )


def q_approx_distinct_custs(sf_dir: str):
    """HyperLogLog approximate COUNT(DISTINCT): distinct ordering
    customers per priority without shuffling a single key — per-batch
    register blobs merge with elementwise max (oracle-checked: murmur
    finalizer + exact-integer harmonic sum in SQL; ±5% vs exact pinned
    in tests/test_sim.py; the exact variant is distinct_custs)."""
    from raycells.sim.hll import approx_distinct

    ds = _read(sf_dir, "orders", SMALL_TABLE_BLOCKS,
               columns=["o_orderpriority", "o_custkey"])
    return approx_distinct(ds, "o_orderpriority", "o_custkey", alias="approx_custs")


def q_customers_no_orders(sf_dir: str):
    """Broadcast anti-join: customers with no URGENT orders, counted per
    market segment. The distinct urgent-order custkeys ride the object
    store once (ray.put) and each batch filters with one np.isin.
    (Predicate pushdown at the read: only the two needed columns leave
    storage, rows filtered before the broadcast set is built.)"""
    import ray

    ot = pq.read_table(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_custkey", "o_orderpriority"],
    )
    ordered = np.unique(
        ot.filter(pc.equal(ot["o_orderpriority"], "1-URGENT"))["o_custkey"].to_numpy()
    )
    ref = ray.put(ordered)

    class AntiJoin:
        def __init__(self, r):
            self.keys = ray.get(r)

        def __call__(self, b: pa.Table) -> pa.Table:
            ck = b["c_custkey"].to_numpy(zero_copy_only=False)
            keep = ~np.isin(ck, self.keys)
            return pa.table({"c_mktsegment": b["c_mktsegment"],
                             "n_customers": np.ones(b.num_rows, np.int64)}).filter(pa.array(keep))

    return shuffle_mod.fold(
        _read(sf_dir, "customer", SMALL_TABLE_BLOCKS, columns=["c_custkey", "c_mktsegment"])
        .map_batches(stages.broadcast_task(AntiJoin, ref), batch_format="pyarrow"),
        "c_mktsegment",
        pa.schema([("c_mktsegment", pa.string()), ("n_customers", pa.int64())]),
    )


def q_stratified_sample(sf_dir: str):
    """Exact-n-per-stratum deterministic sample — the training-data
    stratified-downsampling primitive: rank rows inside each market
    segment by an integer hash of the key (SQL-identical arithmetic, no
    RNG state) and keep the first 40 per stratum. Reproducible across
    engines, retries and partitionings; per-batch partial top-k keeps
    the exchange O(blocks × strata × n), never corpus-sized."""
    from raycells.engine.joins import grouped_topk

    n_per = 40
    ds = _read(
        sf_dir, "customer", SMALL_TABLE_BLOCKS, columns=["c_custkey", "c_mktsegment"]
    )

    def keyed(b: pa.Table) -> pa.Table:
        key = pc.cast(b["c_custkey"], pa.int64()).to_numpy(zero_copy_only=False)
        h = (key * 2654435761) % 1000003  # < 2^63 for any 32-bit key
        return pa.table(
            {
                "c_mktsegment": b["c_mktsegment"],
                "c_custkey": pa.array(key),
                "strat_hash": pa.array(h.astype(np.int64)),
            }
        )

    out = grouped_topk(
        ds.map_batches(keyed, batch_format="pyarrow"),
        "c_mktsegment",
        n_per,
        "strat_hash",
        "c_custkey",
        ascending=(True, True),
    )
    return out.map_batches(
        lambda b: b.select(["c_mktsegment", "c_custkey", "strat_hash", "rank"]),
        batch_format="pyarrow",
    )


def q_tfidf_terms(sf_dir: str):
    """Integer-quantized TF-IDF top-3 terms per document:
    ``tfidf_e6 = tf × (N·10⁶ // df)`` — every factor an exact integer,
    so the ranking is reproducible in SQL with no float anywhere.
    Shape at scale: per-doc term counts are batch-local (no exchange);
    document frequency is ONE driver fold (``shuffle.fold``) over
    (token, doc) pairs; the resulting vocabulary table is the canonical
    broadcast small side (``ray.put`` once, read per worker — swap in a
    co-partitioned join when the vocabulary outgrows broadcast); per-doc
    top-k moves only per-batch survivors."""
    import ray

    from raycells.engine.joins import grouped_topk
    from raycells.engine import stages as stages_mod

    ds = _read(sf_dir, "documents", SMALL_TABLE_BLOCKS, columns=["doc_id", "text"])
    # N from parquet metadata — a Dataset count() would execute the
    # mapped read a third time
    n_docs = pq.ParquetFile(os.path.join(sf_dir, "documents.parquet")).metadata.num_rows

    def doc_term_counts(b: pa.Table) -> pa.Table:
        dk = pc.cast(b["doc_id"], pa.string()).to_numpy(zero_copy_only=False)
        _, flat, parent = ta._split(b["text"])
        toks = flat.to_numpy(zero_copy_only=False)
        df = pd.DataFrame({"doc_key": dk[parent], "token": toks})
        df = df[df["token"] != ""]
        out = (
            df.groupby(["doc_key", "token"], sort=False)
            .size()
            .rename("tf")
            .reset_index()
        )
        out["tf"] = out["tf"].astype(np.int64)
        return shuffle_mod.from_pandas_clean(out)

    # materialize: both the df aggregate and the scoring stage consume
    # this narrow (doc_key, token, tf) set — without pinning it, each
    # consumer re-runs the read + tokenize
    pairs = ds.map_batches(doc_term_counts, batch_format="pyarrow").materialize()
    # df(token): pairs are per-doc distinct, so a row count per token IS
    # the document frequency; vocabulary-sized result
    vocab = shuffle_mod.fold(
        pairs.map_batches(
            lambda b: pa.table({"token": b["token"], "df": np.ones(b.num_rows, np.int64)}),
            batch_format="pyarrow",
        ),
        "token",
        pa.schema([("token", pa.string()), ("df", pa.int64())]),
    ).to_pandas()
    ref = ray.put(
        {
            "tokens": vocab["token"].to_numpy(),
            "idf_e6": ((n_docs * 1_000_000) // vocab["df"].to_numpy()).astype(
                np.int64
            ),
            "df": vocab["df"].to_numpy().astype(np.int64),
        }
    )

    class Score:
        def __init__(self, r):
            v = ray.get(r)
            order = np.argsort(v["tokens"])
            self.tokens = v["tokens"][order]
            self.idf = v["idf_e6"][order]
            self.df = v["df"][order]

        def __call__(self, b: pa.Table) -> pa.Table:
            toks = b["token"].to_numpy(zero_copy_only=False)
            pos = np.searchsorted(self.tokens, toks)
            tf = b["tf"].to_numpy(zero_copy_only=False)
            return b.append_column(
                "df", pa.array(self.df[pos], pa.int64())
            ).append_column("tfidf_e6", pa.array(tf * self.idf[pos], pa.int64()))

    scored = pairs.map_batches(
        stages_mod.broadcast_task(Score, ref), batch_format="pyarrow"
    )
    out = grouped_topk(
        scored, "doc_key", 3, "tfidf_e6", "token", ascending=(False, True)
    )
    return out.map_batches(
        lambda b: b.select(["doc_key", "token", "tf", "df", "tfidf_e6", "rank"]),
        batch_format="pyarrow",
    )


def q_dedup_clusters(sf_dir: str):
    """Near-dup CLUSTER resolution — dedup that picks winners: the
    verified MinHash pair list is resolved into connected components,
    canonical representative = lexicographic-min doc id, one row per
    member with its canon and cluster size. DISTRIBUTED since round 3:
    bucketed vectorized min-label contraction over the pair table
    (engine/cc.py — the computation the oracle's recursive min-label
    CTE expresses); the driver folds only the node-sized contracted
    forest, never the pair list, so a duplicate-heavy corpus whose
    O(m²)-per-clique pair list outgrows one heap still resolves."""
    from raycells.engine.cc import connected_components

    comp = connected_components(q_minhash_pairs(sf_dir), a="id_a", b="id_b")
    if len(comp) == 0:
        return pa.table(
            {
                "doc_key": pa.array([], pa.string()),
                "canon_key": pa.array([], pa.string()),
                "cluster_size": pa.array([], pa.int64()),
            }
        )
    sizes = comp.groupby("root", sort=False)["root"].transform("size")
    df = pd.DataFrame(
        {
            "doc_key": comp["node"],
            "canon_key": comp["root"],
            "cluster_size": sizes.astype(np.int64),
        }
    ).sort_values("doc_key", kind="stable")
    return pa.table(
        {
            "doc_key": pa.array(df["doc_key"], pa.string()),
            "canon_key": pa.array(df["canon_key"], pa.string()),
            "cluster_size": pa.array(df["cluster_size"].to_numpy(), pa.int64()),
        }
    )


def q_chunk_docs(sf_dir: str):
    """Training-chunk preparation (NEW round 4): every document split
    into fixed ``CHUNK_W``-char windows at stride ``CHUNK_S`` (25%
    overlap — the standard pretraining chunking shape), each chunk
    fingerprinted with the rolling polynomial hash so downstream
    chunk-level dedup/decontamination can key on content. Purely
    map-side (chunking is embarrassingly parallel — no exchange);
    LENGTH-UNBOUNDED since round 5 (text/analysis.chunk_fingerprints:
    vectorized np.arange window offsets; the oracle derives its
    position bound per doc). Hash carried as the int64 bit pattern; the
    oracle re-derives it byte-for-byte in HUGEINT."""
    from raycells.text.analysis import chunk_fingerprints

    ds = _read(sf_dir, "documents", SMALL_TABLE_BLOCKS, columns=["doc_id", "text"])
    return ds.map_batches(chunk_fingerprints, batch_format="pyarrow")


def q_chunk_dedup(sf_dir: str, sink_dir: str | None = None):
    """Chunk-LEVEL exact dedup (NEW round 4) — the step after
    ``chunk_docs`` in a real pretraining pipeline: duplicated text
    BLOCKS across documents (boilerplate, quoted passages, exact-dup
    docs) found by grouping the chunk fingerprints. One coarse-bucket
    exchange of (hash, doc, idx) rows via the generic
    ``shuffle.exact_dedup_winners`` reduction; emits only the
    DUPLICATED contents (n_copies > 1) with their min-(doc_key,
    chunk_idx) canonical occurrence. With ``sink_dir`` the winners
    STREAM to partitioned parquet (summary dict back) — the 100-TB
    path; the collect path stays output-sized for the gate."""
    # shared pipeline body (engine/stages.chunk_dedup_winners): the
    # driver's --mode chunk-dedup sink runs the SAME definition
    out = stages.chunk_dedup_winners(q_chunk_docs(sf_dir), sink_dir=sink_dir)
    if sink_dir is not None or out is not None:
        return out
    return pa.table(
        {
            "chunk_hash": pa.array([], pa.int64()),
            "doc_key": pa.array([], pa.string()),
            "chunk_idx": pa.array([], pa.int64()),
            "n_copies": pa.array([], pa.int64()),
        }
    )


def q_incremental_dedup(sf_dir: str):
    """INCREMENTAL (delta) dedup (NEW round 5) — the shape a production
    pipeline runs on every new crawl drop: dedupe an INCOMING shard
    (docs with doc_id % 3 == 2) against the EXISTING base corpus (the
    rest) at chunk granularity, reporting every incoming chunk whose
    content already exists in the base with its base copy count.

    Shape at scale (the whole point): the base corpus is 100 TB and the
    incoming shard is small, so the base must never be exchanged — a
    Bloom bitmap of the INCOMING chunk fingerprints (KBs, built with
    partial bitmaps OR-merged in ONE Ray task) prunes the base stream
    MAP-SIDE to approximately the true collision set; only those
    survivors pay the per-hash aggregate, and one co-partitioned
    hash_join against the shard-sized incoming set makes the result
    exact (Bloom false positives die in the inner join — no base hash
    absent from incoming can match, and no incoming chunk absent from
    base finds a row). The chunk stream materializes once as 24-B
    (hash, doc, idx) rows — the curation_funnel narrow-stream pattern —
    so base and incoming filters don't re-run the chunking scan."""
    from raycells.engine.joins import hash_join
    from raycells.sim.sketch import bloom_build, bloom_prune

    chunks = q_chunk_docs(sf_dir).map_batches(
        lambda b: b.select(["chunk_hash", "doc_key", "chunk_idx"]),
        batch_format="pyarrow",
    ).materialize()

    def split(incoming: bool):
        def f(b: pa.Table) -> pa.Table:
            did = pc.cast(b["doc_key"], pa.int64()).to_numpy(
                zero_copy_only=False
            )
            keep = (did % 3 == 2) == incoming
            b = b.filter(pa.array(keep))
            # bloom key: fold the int64 bit-pattern hash into the
            # sketch's BIGINT-parity range (bloom.py prescribes h >> 33;
            # fold collisions only add false positives, which the exact
            # join below removes)
            bk = (
                b["chunk_hash"].to_numpy(zero_copy_only=False).view(np.uint64)
                >> np.uint64(33)
            ).astype(np.int64)
            return b.append_column("bkey", pa.array(bk))

        return f

    incoming = chunks.map_batches(split(True), batch_format="pyarrow")
    base = chunks.map_batches(split(False), batch_format="pyarrow")

    bm = bloom_build(incoming, "bkey")
    base_hits = bloom_prune(base, bm, "bkey")
    base_agg = shuffle_mod.aggregate(
        base_hits.map_batches(
            lambda b: b.append_column(
                "n_base_copies", pa.array(np.ones(b.num_rows, np.int64))
            ),
            batch_format="pyarrow",
        ),
        "chunk_hash",
        pa.schema(_i64("chunk_hash", "n_base_copies")),
        salt_col="doc_key",
    )
    return hash_join(
        incoming,
        base_agg,
        key_left="chunk_hash",
        key_right="chunk_hash",
        keep_left=["doc_key", "chunk_idx", "chunk_hash"],
        keep_right=["n_base_copies"],
        # zero bloom survivors → base_agg is a zero-block Dataset with no
        # schema (the novel-crawl-drop case); the hint keeps the empty
        # result's schema typed instead of crashing the join
        type_hints={"n_base_copies": pa.int64()},
    )


class _CanonSplitStage:
    """Broadcast-state stage for q_leakage_safe_split: the near-dup
    canonical-key map reads zero-copy from plasma once per worker
    (stages.broadcast_task memo), each batch maps docs to their
    canonical id and derives the murmur split. Module-level so the memo
    key works."""

    def __init__(self, ref, val_mod: int):
        import ray

        self.map = ray.get(ref)
        self.val_mod = val_mod

    def __call__(self, b: pa.Table) -> pa.Table:
        from raycells.sim.hll import _hash64

        dk = pd.Series(pc.cast(b["doc_id"], pa.string()).to_pylist())
        canon = dk.map(self.map).fillna(dk)
        h = _hash64(canon.astype(np.int64).to_numpy())
        return pa.table(
            {
                "split": np.where(h % np.uint64(self.val_mod) == 0, "val", "train"),
                "lang": b["lang"],
                "n_docs": np.ones(b.num_rows, np.int64),
                "sum_chars": pc.cast(b["n_chars"], pa.int64()),
            }
        )


def q_leakage_safe_split(sf_dir: str, val_mod: int = 10):
    """LEAKAGE-SAFE train/validation split (NEW round 5) — the split a
    careful data team actually ships: assignment keys on each doc's
    NEAR-DUP CLUSTER canonical id (min member of its MinHash component;
    singletons key on themselves), so no near-duplicate pair ever
    straddles train and val (the classic eval-contamination leak).
    Split = murmur64(canonical id) % val_mod == 0 → val — deterministic,
    RNG-free, stable under resharding. Output is the per-(split, lang)
    accounting table (n_docs, sum_chars).

    Shape at scale: the component table is NODE-sized (only docs that
    near-dup anything — the engine/cc.py contraction already folds it
    driver-side) and broadcasts ONCE via plasma; the documents scan
    reads only (doc_id, lang, n_chars) — never text — and the driver
    fold holds O(blocks × splits × langs) partials."""
    import ray

    from raycells.engine.cc import connected_components

    comp = connected_components(q_minhash_pairs(sf_dir), a="id_a", b="id_b")
    canon_map = (
        dict(zip(comp["node"], comp["root"])) if len(comp) else {}
    )
    ref = ray.put(canon_map)
    ds = _read(
        sf_dir, "documents", SMALL_TABLE_BLOCKS,
        columns=["doc_id", "lang", "n_chars"],
    )
    return shuffle_mod.fold(
        ds.map_batches(
            stages.broadcast_task(_CanonSplitStage, ref, val_mod),
            batch_format="pyarrow",
        ),
        ["split", "lang"],
        pa.schema([("split", pa.string()), ("lang", pa.string()),
                   *_i64("n_docs", "sum_chars")]),
    )


def q_range_partition(sf_dir: str, n_parts: int = 16, sample_mod: int = 97):
    """Range-partition PLANNING for a globally-sorted export (NEW round
    5) — the primitive behind sorted parquet writes at 100 TB without a
    full sort exchange: a DETERMINISTIC mod-sample of the key column
    (rows with l_orderkey % sample_mod == 0; in production the mod
    scales with corpus size so the sample stays a driver-side constant)
    yields ``n_parts - 1`` splitter keys at evenly spaced sample ranks,
    the splitters ship in the stage closure (bytes), and every batch
    assigns its partition id with one vectorized searchsorted —
    pid = #{splitter <= key}. The data itself never shuffles for the
    PLAN; the subsequent write routes each row straight to its range
    file. Output = the plan manifest a sorted-export job consumes:
    per-partition row count and exact min/max/sum key cents (the
    _half_up cents recipe, identical FLOOR(x·100 + 0.5) tree in SQL).
    Only the O(blocks × parts) aggregate partials reach the exchange."""
    ds = _read(
        sf_dir, "lineitem", columns=["l_orderkey", "l_extendedprice"]
    )

    def cents(b: pa.Table) -> pa.Table:
        kc = _half_up(
            b["l_extendedprice"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        return pa.table(
            {
                "l_orderkey": pc.cast(b["l_orderkey"], pa.int64()),
                "key_c": pa.array(kc),
            }
        )

    narrow = ds.map_batches(
        cents, batch_format="pyarrow"
    ).materialize()  # the splitter sample AND the assign pass read this
    # — without it the lineitem scan + cents kernel would run twice

    def sample_keys(b: pa.Table) -> pa.Table:
        ok = b["l_orderkey"].to_numpy(zero_copy_only=False)
        return b.select(["key_c"]).filter(pa.array(ok % sample_mod == 0))

    samp = np.sort(
        np.concatenate(
            [
                t["key_c"].to_numpy(zero_copy_only=False)
                for t in shuffle_mod.block_tables(
                    ray_get_tables(
                        narrow.map_batches(sample_keys, batch_format="pyarrow")
                    ),
                    "key_c",
                )
            ]
            or [np.empty(0, np.int64)]
        )
    )
    n = len(samp)
    # rank_i = max(1, (i·n) // n_parts), value at that 1-based sorted
    # rank — tied ranks pick a deterministic VALUE regardless of tie
    # order (a sorted multiset has one value per rank)
    splitters = samp[
        np.maximum(1, (np.arange(1, n_parts) * n) // n_parts) - 1
    ] if n else np.empty(0, np.int64)

    def assign(b: pa.Table, spl=splitters) -> pa.Table:
        kc = b["key_c"].to_numpy(zero_copy_only=False)
        pid = np.searchsorted(spl, kc, side="right").astype(np.int64)
        return pa.table(
            {"partition_id": pa.array(pid), "n_rows": np.ones(b.num_rows, np.int64),
             "sum_key_c": kc, "min_key_c": kc, "max_key_c": kc}
        )

    # n_parts partitions: a driver fold
    return shuffle_mod.fold(
        narrow.map_batches(assign, batch_format="pyarrow"),
        "partition_id",
        pa.schema(_i64("partition_id", "n_rows", "sum_key_c", "min_key_c", "max_key_c")),
        {"min_key_c": "min", "max_key_c": "max"},
    )


def q_paragraph_dedup(sf_dir: str):
    """C4-style PARAGRAPH-level exact dedup accounting (NEW round 5,
    Raffel et al. C4: 'discard all but one of any three-sentence span
    occurring more than once'): every document splits into word-aligned
    ``PARA_W``-word segments (this corpus has no newline/sentence
    structure, so the paragraph boundary is a word-count rule both
    engines apply identically), any segment occurring elsewhere in the
    corpus keeps only its FIRST (doc_id, seg_idx) occurrence, and the
    output is the per-document CLEANING MANIFEST a C4 pipeline reports:
    segments seen / kept / removed and exact characters removed.

    Thin adapter over ``text/dedup.paragraph_dedup_manifest`` (the
    generic, any-id-type engine the driver's ``--mode paragraph-dedup``
    sink job shares); int64 doc_id order = the oracle's ORDER BY did,
    stringified to doc_key only at the output boundary. Exchange
    anatomy and the exact-string-identity tradeoff are documented on
    the manifest function."""
    from raycells.text.dedup import PARA_W, paragraph_dedup_manifest

    ds = _read(sf_dir, "documents", SMALL_TABLE_BLOCKS, columns=["doc_id", "text"])

    def to_key(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_key": pc.cast(b["doc_id"], pa.string()),
                "n_segs": b["n_segs"],
                "n_kept": b["n_kept"],
                "n_removed": b["n_removed"],
                "chars_removed": b["chars_removed"],
            }
        )

    return paragraph_dedup_manifest(ds, id_col="doc_id", w=PARA_W).map_batches(
        to_key, batch_format="pyarrow"
    )


def q_curation_funnel(sf_dir: str):
    """End-to-end curation FUNNEL (NEW round 5) — the composition a
    pretraining pipeline actually runs, as one operator with exact
    per-stage accounting: stage 0 = all docs; stage 1 = language-
    verified (marker-score detector agrees with the declared lang);
    stage 2 = + Gopher-style repetition quality; stage 3 = + exact
    dedup (one copy per content fingerprint, min-doc winner). Output is
    the funnel table (stage, label, n_docs, sum_tokens) — the numbers a
    data team reports after every curation run.

    Shape at scale: ONE text scan computes every per-doc signal
    (detector scores, repetition counts, rolling-hash fingerprint) and
    materializes only the narrow (doc, fp, n_tokens, s1, s2) stream
    (~40 B/doc); stages 0-2 are map-side partial sums + a driver fold,
    and stage 3 is one coarse-bucket exchange of the surviving narrow
    rows whose bucket reducers emit COUNTS (never winner rows) — the
    funnel's driver traffic is O(blocks + buckets) regardless of corpus
    size."""
    ds = _read(
        sf_dir, "documents", SMALL_TABLE_BLOCKS,
        columns=["doc_id", "lang", "text"],
    )
    def perdoc(b: pa.Table) -> pa.Table:
        det = ta.lang_id(b, col="text")["lang_detected"].to_numpy(
            zero_copy_only=False
        )
        lang = b["lang"].to_numpy(zero_copy_only=False)
        _, flat, parent = ta._split(b["text"])
        toks = flat.to_numpy(zero_copy_only=False)
        n = b.num_rows
        n_tokens = np.bincount(parent, minlength=n).astype(np.int64)
        d = pd.DataFrame({"p": parent, "t": toks}).drop_duplicates()
        n_distinct = np.bincount(d["p"].to_numpy(), minlength=n).astype(np.int64)
        same = parent[1:] == parent[:-1]
        bp = parent[1:][same]
        n_bigrams = np.bincount(bp, minlength=n).astype(np.int64)
        bd = pd.DataFrame(
            {"p": bp, "a": toks[:-1][same], "b": toks[1:][same]}
        ).drop_duplicates()
        n_dbig = np.bincount(bd["p"].to_numpy(), minlength=n).astype(np.int64)
        repetitive = ((n_tokens - n_distinct) * 2 > n_tokens) | (
            (n_bigrams - n_dbig) * 4 > n_bigrams
        )
        return pa.table(
            {
                "doc_id": pa.array(
                    b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
                ),
                "fp": pa.array(
                    dd.content_hash64(b["text"].to_pylist()), pa.int64()
                ),
                "n_tokens": pa.array(n_tokens),
                "s1": pa.array((det == lang).astype(np.int64)),
                "s2": pa.array((~repetitive).astype(np.int64)),
            }
        )

    narrow = ds.map_batches(perdoc, batch_format="pyarrow").materialize()

    def stage_parts(b: pa.Table) -> pa.Table:
        s1 = b["s1"].to_numpy(zero_copy_only=False).astype(bool)
        s2 = b["s2"].to_numpy(zero_copy_only=False).astype(bool)
        nt = b["n_tokens"].to_numpy(zero_copy_only=False)
        masks = [np.ones(len(nt), bool), s1, s1 & s2]
        return pa.table(
            {
                "stage": pa.array(np.arange(3, dtype=np.int64)),
                "n_docs": pa.array(
                    np.array([int(m.sum()) for m in masks], np.int64)
                ),
                "sum_tokens": pa.array(
                    np.array([int(nt[m].sum()) for m in masks], np.int64)
                ),
            }
        )

    parts = narrow.map_batches(stage_parts, batch_format="pyarrow").to_pandas()
    folded = parts.groupby("stage", sort=True).sum().reset_index()

    def dedup_counts(g: pa.Table) -> pa.Table:
        df = g.to_pandas().sort_values(["fp", "doc_id"], kind="stable")
        first = df.drop_duplicates("fp", keep="first")
        return pa.table(
            {
                "n_docs": pa.array([np.int64(len(first))]),
                "sum_tokens": pa.array(
                    [np.int64(first["n_tokens"].to_numpy().sum())]
                ),
            }
        )

    surv = (
        shuffle_mod.bucket_reduce(
            narrow.map_batches(
                lambda b: b.filter(
                    pc.and_(pc.equal(b["s1"], 1), pc.equal(b["s2"], 1))
                ).select(["fp", "doc_id", "n_tokens"]),
                batch_format="pyarrow",
            ),
            "fp",
            dedup_counts,
        )
        .to_pandas()
        .sum()
    )
    labels = ["all", "lang_ok", "quality_ok", "deduped"]
    n_docs = [*folded["n_docs"].tolist(), int(surv["n_docs"])]
    sum_tokens = [*folded["sum_tokens"].tolist(), int(surv["sum_tokens"])]
    return pa.table(
        {
            "stage": pa.array(np.arange(4, dtype=np.int64)),
            "label": pa.array(labels, pa.string()),
            "n_docs": pa.array(np.array(n_docs, np.int64)),
            "sum_tokens": pa.array(np.array(sum_tokens, np.int64)),
        }
    )


N_SHUFFLE_SHARDS = 16


def q_shuffle_shards(sf_dir: str):
    """Deterministic training-order resharding MANIFEST (NEW round 5) —
    the plan of the final step of a pretraining pipeline: every doc is
    assigned a shard and an in-shard position by a murmur3-finalizer
    mix of its id (sim/hll._hash64 — RNG-free, identical under Ray
    retries, SQL-reproducible), i.e. a globally shuffled training order
    with no random state. The manifest emits per shard: doc count,
    payload chars, an ORDER-FREE xor fold of the position hashes (any
    assignment flip changes it), and the FIRST training example (min
    unsigned hash, ties min doc_id).

    Scale shape: count/sum/xor/min are all commutative-associative, so
    the whole manifest is map-side partials (≤ n_shards rows per batch)
    + a driver fold of O(blocks × shards) — NO exchange at all; the
    actual shard write would be one partitioned write_parquet keyed by
    the same shard column. Hash bits are carried as the int64 bit
    pattern; the min compares the UNSIGNED view (uint64 keys > 2^63
    would pickle-fall-back in Arrow blocks — CLAUDE.md)."""
    from raycells.sim.hll import _hash64

    ds = _read(
        sf_dir, "documents", SMALL_TABLE_BLOCKS, columns=["doc_id", "n_chars"]
    )
    n_shards = N_SHUFFLE_SHARDS

    def part(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        h = _hash64(ids)
        shard = (h % np.uint64(n_shards)).astype(np.int64)
        hi = h.view(np.int64)
        nch = b["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        # order rows by (shard, unsigned h, doc_id): first row per shard
        # is its partial min; xor/sum/count are order-free
        o = np.lexsort((ids, h, shard))
        shard, hi, ids, nch = shard[o], hi[o], ids[o], nch[o]
        first = np.ones(len(shard), bool)
        first[1:] = shard[1:] != shard[:-1]
        sidx = np.flatnonzero(first)
        ends = np.append(sidx[1:], len(shard))
        return pa.table(
            {
                "shard": pa.array(shard[sidx], pa.int64()),
                "n_docs": pa.array(ends - sidx, pa.int64()),
                "sum_chars": pa.array(np.add.reduceat(nch, sidx), pa.int64()),
                "xor_hash": pa.array(
                    np.bitwise_xor.reduceat(hi, sidx), pa.int64()
                ),
                "min_h": pa.array(hi[sidx], pa.int64()),
                "first_doc": pa.array(ids[sidx], pa.int64()),
            }
        )

    parts = ds.map_batches(part, batch_format="pyarrow").to_pandas()
    # driver fold over O(blocks × shards) partial rows
    parts["_uh"] = parts["min_h"].to_numpy(np.int64).view(np.uint64)
    parts = parts.sort_values(["shard", "_uh", "first_doc"], kind="stable")
    agg = parts.groupby("shard", sort=True).agg(
        n_docs=("n_docs", "sum"),
        sum_chars=("sum_chars", "sum"),
        xor_hash=("xor_hash", lambda s: np.bitwise_xor.reduce(s.to_numpy())),
        first_doc=("first_doc", "first"),
    ).reset_index()
    return pa.table(
        {
            "shard": pa.array(agg["shard"].to_numpy(np.int64)),
            "n_docs": pa.array(agg["n_docs"].to_numpy(np.int64)),
            "sum_chars": pa.array(agg["sum_chars"].to_numpy(np.int64)),
            "xor_hash": pa.array(agg["xor_hash"].to_numpy(np.int64)),
            "first_doc": pa.array(agg["first_doc"].to_numpy(np.int64)),
        }
    )


def q_kcenter_diversity(sf_dir: str):
    """Greedy k-center diversity sampling (NEW round 5) — the coreset
    selection step of embedding-space data curation (pick k maximally
    spread exemplars; Gonzalez's farthest-point 2-approximation). The
    engine runs k rounds of one small task per embedding block, each
    updating that block's min-distance array IN the object store and
    returning only an O(1) (best d2, id, candidate row) partial — the
    driver folds #blocks tuples per round, never a vector table
    (sim/kcenter.py). Distances are exact int64 over the shared
    floor(x·2^20 + 0.5) quantization, so the oracle's 8 unrolled
    argmax CTEs reproduce the selection chain bit-for-bit."""
    from raycells.sim.kcenter import kcenter_select

    ds = _read(
        sf_dir, "embeddings", SMALL_TABLE_BLOCKS, columns=["vec_id", "embedding"]
    )
    return kcenter_select(ds, k=8)


def q_kcenter_assign(sf_dir: str):
    """Full-corpus assignment to the greedy k-center exemplars (NEW
    round 5) — the consumption half of diversity sampling: after
    ``kcenter_select`` picks 8 spread exemplars (k rounds of O(1)
    driver traffic per block), the (8, dim) QUANTIZED center matrix
    ships in the stage closure (KBs) and every batch assigns with one
    integer matmul — |x|² − 2x·C^T + |c|², exact int64, argmin ties to
    the smaller rank — then collapses map-side to ≤ 8 rollup rows
    (count + vec_id sum + exact d2 sum, so any assignment flip changes
    the hash). Driver folds O(blocks × 8) partials; the same streaming
    profile as cluster_embeddings."""
    from raycells.sim.kcenter import kcenter_select
    from raycells.text.dedup import quantize_embeddings

    ds = _read(
        sf_dir, "embeddings", SMALL_TABLE_BLOCKS, columns=["vec_id", "embedding"]
    )
    sel, cmat = kcenter_select(ds, k=8, return_vectors=True)
    c2 = np.einsum("ij,ij->i", cmat, cmat)

    def assign(b: pa.Table) -> pa.Table:
        q = quantize_embeddings(np.asarray(b["embedding"].to_pylist(), np.float64))
        d2 = (
            np.einsum("ij,ij->i", q, q)[:, None]
            - 2 * (q @ cmat.T)
            + c2[None, :]
        )
        a = np.argmin(d2, axis=1)  # first minimum = smallest rank on ties
        best = d2[np.arange(len(a)), a]
        return pa.table(
            {
                "rank": a.astype(np.int64),
                "n_vectors": np.ones(len(a), np.int64),
                "sum_vec_id": pc.cast(b["vec_id"], pa.int64()),
                "sum_d2": best.astype(np.int64),
            }
        )

    out = shuffle_mod.fold(
        ds.map_batches(assign, batch_format="pyarrow"),
        "rank",
        pa.schema(_i64("rank", "n_vectors", "sum_vec_id", "sum_d2")),
    )
    center_of = dict(zip(sel["rank"].to_pylist(), sel["vec_id"].to_pylist()))
    return out.add_column(
        1, "center_vec_id",
        pa.array([center_of[r] for r in out["rank"].to_pylist()], pa.int64()),
    )


def _dup_docs_ds(sf_dir: str):
    return _read(sf_dir, "documents", SMALL_TABLE_BLOCKS, columns=["doc_id", "text"])


def q_dup_ngram_spans(sf_dir: str):
    """Exact duplicated-SUBSTRING spans (NEW round 5) — the
    suffix-array-style dedup of Lee et al. ("Deduplicating Training
    Data Makes Language Models Better"), approximated at positions
    divisible by the stride: every 40-char window at stride 8 is
    rolling-hashed in O(bytes) per batch (analysis.strided_window_fps:
    B is odd hence invertible mod 2^64, so ONE wrap-cumsum prefix per
    batch hashes every window — no O(windows×W) rescan), windows whose
    fingerprint repeats ANYWHERE in the corpus are kept, and each doc's
    kept positions merge into maximal stride-contiguous spans.

    Scale shape: a single text scan, then two exchanges that move only
    24-byte (hash, doc, pos) rows — first hash-bucketed to find global
    repeats (one vectorized size-transform per coarse bucket), then
    doc-bucketed so the island merge sees each doc's positions together.
    No substring ever crosses a task boundary; nothing is broadcast
    (the dup-window set is duplication-proportional, which at 100 TB is
    too big to broadcast — unlike the decontaminate blocklist).

    Output: (doc_id, span_start, span_end, n_windows) per maximal span;
    the oracle reproduces the window fingerprints in HUGEINT from the
    same polynomial (the _fingerprint_sql recipe at fixed length W).
    The id-type-generic engine lives in dedup.dup_span_report (also the
    interleaved-corpus ``driver --mode span-dedup`` streamed sink)."""
    out = dd.dup_span_report(_dup_docs_ds(sf_dir))
    if out is None:
        return pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "span_start": pa.array([], pa.int64()),
                "span_end": pa.array([], pa.int64()),
                "n_windows": pa.array([], pa.int64()),
            }
        )
    return out


def q_dup_span_chars(sf_dir: str):
    """Removal PLAN for duplicated substrings (NEW round 5) — the
    actionable half of dup_ngram_spans: per window-fingerprint group the
    global min-(doc_id, p) occurrence is CANONICAL and survives; every
    other occurrence is removable. Removable positions merge into
    coverage intervals (union of [p, p+W): runs where the next kept
    position starts before the previous window ends), and each doc
    rolls up to (n_dup_spans, n_dup_chars) — the exact char count a
    dedup pass would delete, Lee et al.'s "duplicate text removed"
    accounting. Same two narrow exchanges as dup_ngram_spans (the
    canonical drop is a vectorized first-of-group mask inside the
    hash-bucket reducer — all occurrences of a fingerprint land in one
    bucket, so bucket-local first == global first); the doc-bucket
    reducer emits ONE row per doc, already output-sized."""
    w, s = ta.SPAN_W, ta.SPAN_S
    kept = dd.dup_window_rows(
        _dup_docs_ds(sf_dir), w=w, s=s, drop_canonical=True
    )

    def doc_rollup(g: pa.Table) -> pa.Table:
        df = g.to_pandas().sort_values(["doc_id", "p"], kind="stable")
        ids = df["doc_id"].to_numpy()
        ps = df["p"].to_numpy()
        # coverage intervals: a new interval starts when the gap to the
        # previous kept position is >= W (the windows no longer overlap)
        new = np.ones(len(ids), bool)
        new[1:] = (ids[1:] != ids[:-1]) | (ps[1:] - ps[:-1] >= w)
        sidx = np.flatnonzero(new)
        ends = np.append(sidx[1:], len(ids))
        span_doc = ids[sidx]
        span_chars = ps[ends - 1] + w - ps[sidx]
        # one row per doc: islands are doc-contiguous after the sort
        dnew = np.ones(len(span_doc), bool)
        dnew[1:] = span_doc[1:] != span_doc[:-1]
        didx = np.flatnonzero(dnew)
        dends = np.append(didx[1:], len(span_doc))
        return pa.table(
            {
                "doc_id": pa.array(span_doc[didx], pa.int64()),
                "n_dup_spans": pa.array(dends - didx, pa.int64()),
                "n_dup_chars": pa.array(
                    np.add.reduceat(span_chars, didx), pa.int64()
                ),
            }
        )

    rolled = shuffle_mod.bucket_reduce(kept, "doc_id", doc_rollup)
    tabs = [t for t in ray_get_tables(rolled) if t.num_rows]
    if not tabs:
        return pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "n_dup_spans": pa.array([], pa.int64()),
                "n_dup_chars": pa.array([], pa.int64()),
            }
        )
    t = pa.concat_tables(tabs, promote_options="none")
    order = np.argsort(t["doc_id"].to_numpy(zero_copy_only=False), kind="stable")
    return t.take(pa.array(order))


def q_media_dedup(sf_dir: str, sink_dir: str | None = None):
    """Exact MULTIMODAL dedup (NEW round 4) — the image-dedup shape of a
    training-data pipeline: every media span's tile is DECODED and
    hashed (polynomial content hash over the 4096 band values, mod
    2^64, fused decode→hash in reused ~2 MB scratch —
    tilestore.synth_band_content_hash), hash-partitioned on a coarse
    bucket, and reduced to one row per distinct content with its copy
    count and the min-(doc_id, span_idx) winner. The fixture plants hot
    tiles (~20% of media spans share a seed), so real dup groups exist.
    The exchange moves 24-byte rows (hash, doc, span), never pixels.
    Hash carried as the int64 BIT PATTERN; the oracle reproduces it in
    HUGEINT from the same LCG formula. A combined stats+dedup job
    decodes ONCE instead: ``stages.decode_stats(b, emit="stats_hash")``
    emits this same content_hash next to the tile stats (VERDICT r4
    #3). With ``sink_dir`` the winners stream to partitioned parquet."""
    # shared pipeline body (engine/stages.media_dedup_winners): the
    # driver's --mode media-dedup sink runs the SAME definition
    out = stages.media_dedup_winners(
        _exploded(sf_dir), sink_dir=sink_dir, dups_only=False,
    )
    if sink_dir is not None or out is not None:
        return out
    return pa.table(  # an input with no media spans has no content groups
        {
            "content_hash": pa.array([], pa.int64()),
            "doc_id": pa.array([], pa.string()),
            "span_idx": pa.array([], pa.int64()),
            "n_copies": pa.array([], pa.int64()),
        }
    )


def q_media_dedup_real(sf_dir: str, sink_dir: str | None = None):
    """REAL-CODEC multimodal dedup (NEW round 5 — VERDICT r4 #9): the
    media_dedup exchange diet composed with GENUINE containers. Each row
    is an actual PNG (CRC-checked, full filter set) or RIFF/WAVE PCM-8
    blob, synthesized DISTRIBUTED inside the read tasks from pure index
    arithmetic (media/stages.synth_media_batch_encoded_dups: seed =
    row % hot plants real dup groups under DISTINCT media ids), decoded
    through the real stdlib codecs (media/png.py) and hashed in the
    same task — synth → encode → decode → Σ v_i·31^i mod 2^64 all FUSE
    into one stage, so no pixel ever crosses a task boundary; the
    exchange moves 16-byte (hash, media_id) rows. The oracle never sees
    a PNG byte — it reproduces the hash from the LCG sample formula the
    decode must recover, so a hash match proves the real
    encode→decode→hash→dedup path end-to-end (the media_decode_real
    guarantee, extended to the dedup reduction). ``sink_dir`` streams
    winners to partitioned parquet like the other dedup queries."""
    import ray.data as rd

    from raycells.media.stages import (
        ContentHasher,
        _task_stage,
        synth_media_batch_encoded_dups,
    )

    n = {"0.001": 60, "0.01": 300, "0.1": 3000}.get(_sf_of(sf_dir), 60)
    hot = (2 * n) // 3  # even at every sf → dup partners keep their lane
    ds = rd.range(n, override_num_blocks=8).map_batches(
        lambda b, h=hot: synth_media_batch_encoded_dups(
            b["id"].to_numpy(zero_copy_only=False), h
        ),
        batch_format="pyarrow",
    )
    hashed = ds.map_batches(_task_stage(ContentHasher), batch_format="pyarrow")
    out = shuffle_mod.exact_dedup_winners(
        hashed, key="content_hash", tie_cols=("media_id",),
        sink_dir=sink_dir, dups_only=False,  # keep-one-copy curation shape
    )
    if sink_dir is not None or out is not None:
        return out
    return pa.table(
        {
            "content_hash": pa.array([], pa.int64()),
            "media_id": pa.array([], pa.string()),
            "n_copies": pa.array([], pa.int64()),
        }
    )


def ray_get_tables(ds):
    import ray

    return ray.get(shuffle_mod.collect_refs(ds))


def q_embedding_dup_clusters(sf_dir: str):
    """SEMANTIC dedup clusters (NEW round 4): the embedding-cosine
    near-dup pair list resolved into connected components — the
    embedding-space counterpart of ``dedup_clusters``. Same distributed
    two-level min-label contraction (engine/cc.py, now id-type-generic:
    canon = NUMERIC-min vec_id), composed on the sign-LSH pair pipeline;
    the driver folds only the node-sized contracted forest."""
    from raycells.engine.cc import connected_components

    comp = connected_components(q_embedding_dups(sf_dir), a="id_a", b="id_b")
    if len(comp) == 0:
        return pa.table(
            {
                "vec_id": pa.array([], pa.int64()),
                "canon_id": pa.array([], pa.int64()),
                "cluster_size": pa.array([], pa.int64()),
            }
        )
    sizes = comp.groupby("root", sort=False)["root"].transform("size")
    df = pd.DataFrame(
        {
            "vec_id": comp["node"].to_numpy(np.int64),
            "canon_id": comp["root"].to_numpy(np.int64),
            "cluster_size": sizes.to_numpy(np.int64),
        }
    ).sort_values("vec_id", kind="stable")
    return pa.table(
        {
            "vec_id": pa.array(df["vec_id"].to_numpy()),
            "canon_id": pa.array(df["canon_id"].to_numpy()),
            "cluster_size": pa.array(df["cluster_size"].to_numpy()),
        }
    )


DECON_W = 4  # window tokens (real corpora use ~13; sized to this fixture)
DECON_MOD = 101  # benchmark subset = doc_id % DECON_MOD == 0


def _decontaminate_impl(sf_dir: str, overlap: bool):
    """Benchmark decontamination — flag training docs sharing any
    DECON_W-token window with a held-out 'benchmark' subset
    (doc_id % DECON_MOD == 0). With ``overlap`` the report adds each
    contaminated doc's total window count and the 10%-overlap drop
    decision (10·n_hits ≥ n_windows) — the fuzzy-decontamination rule a
    curation run actually applies, vs the raw hit counts alone. The
    blocklist of window hashes is the canonical broadcast small side,
    built DISTRIBUTED: per-batch ``np.unique`` window-hash partials over
    the bench rows, unioned worker-side by ONE Ray task into a single
    sorted plasma array (the ``_union_id_blocks`` pattern — the bench
    text never lands on the driver), broadcast once and binary-searched
    per batch. Training docs stream through one task stage and only
    contaminated (doc_key, n_hits) rows come back. Window hash =
    Σ token_fp·31^i mod 2^64 — exact integers end-to-end, reproduced in
    SQL from the same token-fingerprint CTE the simhash oracle proves."""
    import ray

    from raycells.engine import stages as stages_mod
    from raycells.text.analysis import window_hashes_batch

    ds = _read(sf_dir, "documents", SMALL_TABLE_BLOCKS, columns=["doc_id", "text"])

    def is_bench(b: pa.Table) -> pa.Table:
        did = (
            pc.cast(b["doc_id"], pa.int64()).to_numpy(zero_copy_only=False)
        )
        # guard the oracle's bounds (range(512) token positions): a doc
        # beyond them would silently lose windows on the SQL side only
        from raycells.text.analysis import token_counts

        ntok = token_counts(b["text"])
        if ntok.size and int(ntok.max()) > 512:
            raise ValueError(
                f"decontaminate oracle caps docs at 512 tokens; saw {int(ntok.max())}"
            )
        return b.append_column("is_bench", pa.array(did % DECON_MOD == 0))

    tagged = ds.map_batches(is_bench, batch_format="pyarrow")

    def bench_hash_partial(b: pa.Table) -> pa.Table:
        # per-batch blocklist partial: unique window hashes of the bench
        # rows, carried as int64 BIT PATTERNS (CLAUDE.md: uint64 > 2^63
        # falls back to pickled object blocks in Ray)
        sub = b.filter(b["is_bench"])
        wh, _ = window_hashes_batch(sub["text"].to_pylist(), DECON_W)
        return pa.table({"wh": pa.array(np.unique(wh).view(np.int64), pa.int64())})

    partial_refs = shuffle_mod.collect_refs(
        tagged.map_batches(bench_hash_partial, batch_format="pyarrow")
    )

    def _union_hash_blocks(*tabs) -> np.ndarray:
        arrs = [
            t["wh"].to_numpy(zero_copy_only=False).view(np.uint64)
            for t in shuffle_mod.block_tables(tabs, "wh")
        ]
        return (
            np.unique(np.concatenate(arrs)) if arrs else np.empty(0, np.uint64)
        )

    # worker-side union of the partials — the blocklist never touches the
    # driver; the task's output ObjectRef IS the broadcast handle
    ref = ray.remote(num_cpus=1)(_union_hash_blocks).remote(*partial_refs)

    class Flag:
        def __init__(self, r, emit_overlap):
            self.block = ray.get(r)  # sorted unique uint64
            self.emit_overlap = emit_overlap

        def __call__(self, b: pa.Table) -> pa.Table:
            keep = pc.invert(b["is_bench"])
            sub = b.filter(keep)
            dk = pc.cast(sub["doc_id"], pa.string())
            texts = sub["text"].to_pylist()
            # ONE window-hash pass over the whole batch (Arrow-offset
            # shape, no per-doc kernel calls), one searchsorted, one
            # bincount — flat with doc count.
            wh, rows = window_hashes_batch(texts, DECON_W)
            if wh.size and self.block.size:
                pos = np.searchsorted(self.block, wh)
                pos[pos == self.block.size] = 0
                hit = self.block[pos] == wh
                counts = np.bincount(rows[hit], minlength=len(texts))
            else:
                counts = np.zeros(len(texts), dtype=np.int64)
            nz = np.nonzero(counts)[0]
            cols = {
                "doc_key": dk.take(pa.array(nz, pa.int64())),
            }
            if self.emit_overlap:
                n_win = np.bincount(rows, minlength=len(texts)) if wh.size \
                    else np.zeros(len(texts), dtype=np.int64)
                cols["n_windows"] = pa.array(n_win[nz], pa.int64())
                cols["n_hits"] = pa.array(counts[nz], pa.int64())
                cols["dropped"] = pa.array(
                    (10 * counts[nz] >= n_win[nz]).astype(np.int64)
                )
            else:
                cols["n_hits"] = pa.array(counts[nz], pa.int64())
            return pa.table(cols)

    # deliberately a SECOND streaming pass over the corpus: the
    # blocklist must be complete before flagging, and re-reading beats
    # pinning the full text corpus in the object store at 100 TB
    out = shuffle_mod.collect_refs(
        tagged.map_batches(
            stages_mod.broadcast_task(Flag, ref, overlap), batch_format="pyarrow"
        )
    )
    import ray as _ray

    # empty read blocks pass through map_batches with the UPSTREAM
    # schema (the UDF never runs) — skip them before the concat
    tabs = shuffle_mod.block_tables([_ray.get(r) for r in out], "doc_key")
    if not tabs:
        cols = {"doc_key": pa.array([], pa.string())}
        if overlap:
            cols["n_windows"] = pa.array([], pa.int64())
        cols["n_hits"] = pa.array([], pa.int64())
        if overlap:
            cols["dropped"] = pa.array([], pa.int64())
        return pa.table(cols)
    t = pa.concat_tables(tabs)
    order = np.lexsort((np.asarray(t["doc_key"].to_pylist(), dtype=object),))
    return t.take(pa.array(order))


def q_decontaminate(sf_dir: str):
    """Exact-window benchmark decontamination report (doc_key, n_hits);
    see :func:`_decontaminate_impl`."""
    return _decontaminate_impl(sf_dir, overlap=False)


def q_contamination_overlap(sf_dir: str):
    """Fuzzy-decontamination DROP DECISIONS: every contaminated training
    doc with its total window count, blocklist-hit count, and the
    10%-overlap rule verdict (dropped ⇔ 10·n_hits ≥ n_windows) — the
    normalized-overlap thresholding of Brown et al.'s GPT-3 appendix-C
    filter, vs q_decontaminate's raw hit counts. Same 100-TB shape:
    distributed blocklist build, ONE broadcast array, a second
    streaming pass, output sized by the contaminated set only."""
    return _decontaminate_impl(sf_dir, overlap=True)


NOV_SHARD = 16  # docs per novelty shard (doc_id // NOV_SHARD)


def q_ngram_novelty(sf_dir: str):
    """N-GRAM NOVELTY CURVE (NEW round 5) — the corpus-growth
    diagnostic a crawl pipeline tracks per ingest shard: over
    DECON_W-token window hashes, how many of each shard's window
    occurrences are NOVEL (their hash first appears in that shard —
    min shard over all occurrences == own shard) and how many distinct
    new hashes each shard introduces. A flattening novelty curve means
    additional crawl is mostly duplication — the signal that drives
    dedup budgets.

    Shape at scale: ONE streaming pass computes batch-level
    (hash, shard, count) partials (the vectorized whole-batch window
    kernel + one pandas groupby per batch); ONE coarse-bucket exchange
    on the hash co-locates every occurrence of a hash, so per-bucket
    min-shard IS the global min; each bucket folds to ≤ |shards| rows
    and the driver folds O(buckets × shards) partials. Window hashes
    ride as int64 bit patterns (CLAUDE.md uint64 rule)."""
    from raycells.text.analysis import window_hashes_batch

    ds = _read(sf_dir, "documents", SMALL_TABLE_BLOCKS, columns=["doc_id", "text"])

    def partials(b: pa.Table) -> pa.Table:
        did = pc.cast(b["doc_id"], pa.int64()).to_numpy(zero_copy_only=False)
        ntok = ta.token_counts(b["text"])
        if ntok.size and int(ntok.max()) > 512:
            raise ValueError(
                f"ngram_novelty oracle caps docs at 512 tokens; saw {int(ntok.max())}"
            )
        wh, rows = window_hashes_batch(b["text"].to_pylist(), DECON_W)
        df = (
            pd.DataFrame(
                {
                    "h": wh.view(np.int64),
                    "shard": (did // NOV_SHARD)[rows],
                }
            )
            .groupby(["h", "shard"], sort=False)
            .size()
            .reset_index(name="cnt")
        )
        df["cnt"] = df["cnt"].astype(np.int64)
        return shuffle_mod.from_pandas_clean(df)

    def novelty(g: pa.Table) -> pa.Table:
        df = (
            g.to_pandas()
            .groupby(["h", "shard"], sort=False, as_index=False)["cnt"]
            .sum()
        )
        ms = df.groupby("h", sort=False)["shard"].transform("min")
        novel = (df["shard"] == ms).to_numpy()
        return pa.table(
            {
                "shard": df["shard"].to_numpy(np.int64),
                "n_windows": df["cnt"].to_numpy(np.int64),
                "n_novel_windows": np.where(novel, df["cnt"], 0).astype(np.int64),
                "n_new_hashes": novel.astype(np.int64),
            }
        )

    return shuffle_mod.fold(
        shuffle_mod.bucket_reduce(
            ds.map_batches(partials, batch_format="pyarrow"), "h", novelty
        ),
        "shard",
        pa.schema(
            _i64("shard", "n_windows", "n_novel_windows", "n_new_hashes")
        ),
    )


def q_grouped_quantiles(sf_dir: str):
    """Per-group exact quantiles over a discrete domain (the grouped
    variant of q_quantiles_qty): per-batch (group, value) count partials
    → driver fold of the O(blocks × groups × values) partials →
    cumulative pick per group at ceil(q·n) (quantile_disc convention).
    No exchange at all: a Ray sort Aggregate costs ~2 s FIXED at this
    block count (CLAUDE.md), while the fold is one vectorized pandas
    groupby over a few thousand partial rows."""
    ds = _read(sf_dir, "lineitem", columns=["l_returnflag", "l_quantity"])

    def counts(b: pa.Table) -> pa.Table:
        qty = _half_up(b["l_quantity"].to_numpy(zero_copy_only=False)).astype(np.int64)
        return pa.table(
            {"l_returnflag": b["l_returnflag"], "qty": qty,
             "n": np.ones(len(qty), np.int64)}
        )

    hist = shuffle_mod.fold(
        ds.map_batches(counts, batch_format="pyarrow"),
        ["l_returnflag", "qty"],
        pa.schema([("l_returnflag", pa.string()), *_i64("qty", "n")]),
    ).to_pandas()
    rows = []
    for flag, sub in hist.groupby("l_returnflag", sort=True):
        total = int(sub["n"].sum())
        cum = sub["n"].cumsum().to_numpy()
        vals = sub["qty"].to_numpy()

        def pick(q):
            return int(vals[np.searchsorted(cum, int(np.ceil(q * total)))])

        rows.append((flag, pick(0.5), pick(0.9), pick(0.99), total))
    return pa.table(
        {
            "l_returnflag": pa.array([r[0] for r in rows], pa.string()),
            "p50": pa.array([r[1] for r in rows], pa.int64()),
            "p90": pa.array([r[2] for r in rows], pa.int64()),
            "p99": pa.array([r[3] for r in rows], pa.int64()),
            "n_rows": pa.array([r[4] for r in rows], pa.int64()),
        }
    )


def _ranked_counts(parts, key: str):
    """Total ``n`` per string ``key`` over per-batch ``np.unique`` count
    partials (unsalted: the partials are already one row per key per
    batch), plus the constant ``_g`` group a global ``grouped_topk``
    ranks in."""
    return shuffle_mod.aggregate(
        parts, key, pa.schema([(key, pa.string()), ("n", pa.int64())]), salt=1
    ).map_batches(
        lambda b: b.append_column("_g", pa.array(np.zeros(b.num_rows, np.int64))),
        batch_format="pyarrow",
    )


def q_top_bigrams(sf_dir: str):
    """Token-bigram counts — n-gram LM statistics over the corpus: the
    top 20 bigrams by (count DESC, bigram ASC). Bigram extraction is one
    vectorized shift-pair per batch (no exchange); counting is ONE
    salted aggregate keyed by the bigram string; the top-k moves only
    per-batch survivors (grouped_topk with a constant group)."""
    from raycells.engine.joins import grouped_topk

    ds = _read(sf_dir, "documents", SMALL_TABLE_BLOCKS, columns=["text"])

    def bigrams(b: pa.Table) -> pa.Table:
        _, flat, parent = ta._split(b["text"])
        toks = flat.to_numpy(zero_copy_only=False)
        if toks.size < 2:
            return pa.table({"bigram": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        # pair token i with token i+1 WITHIN the same doc
        same_doc = parent[1:] == parent[:-1]
        left, right = toks[:-1][same_doc], toks[1:][same_doc]
        big = np.char.add(np.char.add(left.astype(str), " "), right.astype(str))
        vals, n = np.unique(big, return_counts=True)
        return pa.table(
            {"bigram": pa.array(vals), "n": pa.array(n.astype(np.int64))}
        )

    counted = _ranked_counts(ds.map_batches(bigrams, batch_format="pyarrow"), "bigram")
    out = grouped_topk(counted, "_g", 20, "n", "bigram", ascending=(False, True))
    return out.map_batches(
        lambda b: b.select(["bigram", "n", "rank"]), batch_format="pyarrow"
    )


def q_vocab_coverage(sf_dir: str, v: int = 16):
    """Tokenizer VOCABULARY COVERAGE analysis (NEW round 5) — the
    report a team runs before committing to a tokenizer: the exact
    global top-``v`` vocabulary by (count DESC, token ASC), then every
    document's out-of-vocabulary accounting (n_tokens, n_oov).

    Shape at scale: pass 1 is the top_bigrams recipe — per-batch
    np.unique pre-aggregation, ONE salted token-count exchange, top-v
    via per-batch survivors (grouped_topk, constant group) so only the
    v-row vocabulary ever reaches the driver; pass 2 broadcasts the
    tiny vocab array in the stage closure and counts membership per doc
    with one vectorized isin + bincount — per-doc rows stream out, no
    exchange."""
    from raycells.engine.joins import grouped_topk

    ds = _read(sf_dir, "documents", SMALL_TABLE_BLOCKS, columns=["doc_id", "text"])

    def tokens(b: pa.Table) -> pa.Table:
        _, flat, _ = ta._split(b["text"])
        vals, n = np.unique(flat.to_numpy(zero_copy_only=False), return_counts=True)
        return pa.table(
            {"token": pa.array(vals), "n": pa.array(n.astype(np.int64))}
        )

    counted = _ranked_counts(ds.map_batches(tokens, batch_format="pyarrow"), "token")
    top = grouped_topk(counted, "_g", v, "n", "token", ascending=(False, True))
    vocab = np.sort(
        pa.concat_tables(
            shuffle_mod.block_tables(ray_get_tables(top), "token")
        )["token"].to_numpy(zero_copy_only=False)
    )

    def oov(b: pa.Table, voc=vocab) -> pa.Table:
        _, flat, parent = ta._split(b["text"])
        toks = flat.to_numpy(zero_copy_only=False)
        n = b.num_rows
        n_tokens = np.bincount(parent, minlength=n).astype(np.int64)
        miss = ~np.isin(toks, voc)
        n_oov = np.bincount(parent[miss], minlength=n).astype(np.int64)
        return pa.table(
            {
                "doc_key": pc.cast(b["doc_id"], pa.string()),
                "n_tokens": pa.array(n_tokens),
                "n_oov": pa.array(n_oov),
            }
        )

    return ds.map_batches(oov, batch_format="pyarrow")


def q_cms_heavy_hitters(sf_dir: str):
    """Heavy hitters via a COUNT-MIN SKETCH paired with exact counts
    (NEW round 5): the CMS pass folds every token occurrence into one
    (4, w) int64 counter matrix per batch — the exchange moves
    blocks × one small blob, never a token — and ONE Ray task sums the
    partials (the bloom_build merge shape). At 100 TB the sketch
    replaces the heavy-hitter aggregation's all-to-all with a
    constant-size merge; the exact unigram pass here pairs each top
    token with its true count so the gate pins BOTH the estimator's
    bucket arithmetic and the est ≥ n invariant. ``w=16`` sits below
    the fixture's 31-token vocabulary on purpose: every sketch row has
    collisions, so the min-estimator runs in its interesting regime
    (with w ≫ vocab the est column would equal n regardless of bucket
    math). Output: top 20 tokens by (n DESC, token ASC) with the CMS
    estimate."""
    import ray

    from raycells.engine.joins import grouped_topk
    from raycells.sim.sketch import cms_build, cms_estimate
    from raycells.text.dedup import _token_hashes

    ds = _read(sf_dir, "documents", SMALL_TABLE_BLOCKS, columns=["text"])

    def unigrams(b: pa.Table) -> pa.Table:
        _, flat, _ = ta._split(b["text"])
        toks = flat.to_numpy(zero_copy_only=False)
        toks = toks[toks != ""]
        vals, n = np.unique(toks, return_counts=True)
        return pa.table(
            {"token": pa.array(vals), "n": pa.array(n.astype(np.int64))}
        )

    def fps_fn(b: pa.Table) -> np.ndarray:
        _, flat, _ = ta._split(b["text"])
        toks = flat.to_numpy(zero_copy_only=False)
        return _token_hashes(toks[toks != ""])

    cms_ref = cms_build(ds, fps_fn, w=16)

    counted = _ranked_counts(ds.map_batches(unigrams, batch_format="pyarrow"), "token")
    top = grouped_topk(counted, "_g", 20, "n", "token", ascending=(False, True))
    tt = pa.concat_tables(ray_get_tables(top)).select(["token", "n", "rank"])
    cms = ray.get(cms_ref)
    est = cms_estimate(cms, _token_hashes(tt["token"].to_numpy(zero_copy_only=False)))
    assert (est >= tt["n"].to_numpy(zero_copy_only=False)).all()  # CMS law
    return tt.append_column("est", pa.array(est.astype(np.int64), pa.int64()))


def q_jsonl_token_stats(sf_dir: str):
    """token_stats over a JSONL mirror of the documents table — proves
    source-format independence: the sharded-JSONL read (the common
    training-data interchange format) feeds the identical operator chain
    and must hash-match the parquet-view oracle row for row. The mirror
    is synthesized idempotently under /tmp from the sf's parquet."""
    import hashlib

    from raycells.io.docsource import ensure_documents_jsonl, read_documents_jsonl

    src = os.path.join(sf_dir, "documents.parquet")
    tag = hashlib.blake2b(os.path.abspath(src).encode(), digest_size=6).hexdigest()
    jdir = ensure_documents_jsonl(src, f"/tmp/raycells_jsonl/{tag}")
    ds = read_documents_jsonl(jdir, num_blocks=SMALL_TABLE_BLOCKS)
    return _token_stats_over(ds)


def q_quantiles_price(sf_dir: str):
    """EXACT quantiles over a continuous (≈all-distinct) column via
    two-pass distributed selection — the scale path the discrete
    histogram can't take (583k distinct prices at sf0.1 would make the
    driver row-scale): pass 1 counts per 4096 monotone value ranges
    (driver gets ≤ 4096 rows), the rank arithmetic picks the target
    range per quantile, pass 2 streams ONLY those ranges' values back
    (≈ n/4096 rows each) for the exact element pick. The result is an
    element of the column — elementwise-exact, so the DuckDB
    quantile_disc oracle hash-matches bit for bit."""
    import ray

    ds = _read(sf_dir, "lineitem", columns=["l_extendedprice"])

    # pass 0: global (min, max, count), one fold group (constant key)
    def mmc(b: pa.Table) -> pa.Table:
        v = b["l_extendedprice"]
        return pa.table({"k": np.zeros(len(v), np.int64), "lo": v, "hi": v,
                         "n": np.ones(len(v), np.int64)})

    g = shuffle_mod.fold(
        ds.map_batches(mmc, batch_format="pyarrow"), "k",
        pa.schema([("k", pa.int64()), ("lo", pa.float64()),
                   ("hi", pa.float64()), ("n", pa.int64())]),
        ops={"lo": "min", "hi": "max"},
    )
    if not g.num_rows:  # DuckDB: quantile_disc over no rows is NULL
        nulls = {c: pa.nulls(1, pa.float64()) for c in ("p50", "p90", "p99")}
        return pa.table({**nulls, "n_rows": pa.array([0], pa.int64())})
    lo, hi, n = g["lo"][0].as_py(), g["hi"][0].as_py(), g["n"][0].as_py()
    K = 4096
    span = hi - lo or 1.0

    def bcounts(b: pa.Table) -> pa.Table:
        v = b["l_extendedprice"].to_numpy(zero_copy_only=False)
        idx = np.clip(((v - lo) * K / span).astype(np.int64), 0, K - 1)
        return pa.table({"bucket": idx, "n": np.ones(len(idx), np.int64)})

    # driver fold of the O(blocks × K) partials: a 4096-distinct-group
    # Ray aggregate pays ~0.3 ms per group (CLAUDE.md)
    hist = shuffle_mod.fold(
        ds.map_batches(bcounts, batch_format="pyarrow"), "bucket",
        pa.schema(_i64("bucket", "n")),
    )
    cum = np.cumsum(hist["n"].to_numpy())
    buckets = hist["bucket"].to_numpy()
    targets = {}
    for q in (0.5, 0.9, 0.99):
        r = int(np.ceil(q * n))  # 1-based rank, quantile_disc convention
        j = int(np.searchsorted(cum, r))
        targets[q] = (int(buckets[j]), r - (int(cum[j - 1]) if j else 0))
    need = np.array(sorted({b for b, _ in targets.values()}), dtype=np.int64)
    need_ref = ray.put(need)

    class Grab:
        def __init__(self, ref):
            self.need = ray.get(ref)

        def __call__(self, b: pa.Table) -> pa.Table:
            v = b["l_extendedprice"].to_numpy(zero_copy_only=False)
            idx = np.clip(((v - lo) * K / span).astype(np.int64), 0, K - 1)
            keep = np.isin(idx, self.need)
            return pa.table(
                {"bucket": pa.array(idx[keep]), "value": pa.array(v[keep])}
            )

    picked = (
        ds.map_batches(stages.broadcast_task(Grab, need_ref), batch_format="pyarrow")
        .to_pandas()
    )
    out = {}
    for q, (b, k) in targets.items():
        vals = np.sort(picked.loc[picked["bucket"] == b, "value"].to_numpy())
        out[q] = float(vals[k - 1])
    return pa.table(
        {
            "p50": pa.array([out[0.5]], pa.float64()),
            "p90": pa.array([out[0.9]], pa.float64()),
            "p99": pa.array([out[0.99]], pa.float64()),
            "n_rows": pa.array([n], pa.int64()),
        }
    )


def q_repetition_filter(sf_dir: str):
    """Gopher-style repetition quality filter, rolled up per source:
    per-doc duplicate-token and duplicate-bigram fractions (kept as
    exact integer counts so the DuckDB oracle hash-matches), and the
    derived "repetitive" flag — dup-token fraction > 1/2 OR dup-bigram
    fraction > 1/4. Shape at scale: every per-doc metric is row-local
    (one vectorized pass per batch, no exchange), and the per-source
    rollup is a driver fold (``shuffle.fold``)."""
    ds = _read(sf_dir, "documents", SMALL_TABLE_BLOCKS, columns=["source", "text"])

    def partials(b: pa.Table) -> pa.Table:
        _, flat, parent = ta._split(b["text"])
        toks = flat.to_numpy(zero_copy_only=False)
        n = b.num_rows
        n_tokens = np.bincount(parent, minlength=n).astype(np.int64)
        d = pd.DataFrame({"p": parent, "t": toks}).drop_duplicates()
        n_distinct = np.bincount(d["p"].to_numpy(), minlength=n).astype(np.int64)
        same = parent[1:] == parent[:-1]
        bp = parent[1:][same]
        n_bigrams = np.bincount(bp, minlength=n).astype(np.int64)
        bd = pd.DataFrame(
            {"p": bp, "a": toks[:-1][same], "b": toks[1:][same]}
        ).drop_duplicates()
        n_dbig = np.bincount(bd["p"].to_numpy(), minlength=n).astype(np.int64)
        repetitive = ((n_tokens - n_distinct) * 2 > n_tokens) | (
            (n_bigrams - n_dbig) * 4 > n_bigrams
        )
        return pa.table(
            {
                "source": b["source"],
                "n_docs": np.ones(n, np.int64),
                "n_repetitive": repetitive.astype(np.int64),
                "sum_tokens": n_tokens,
                "sum_distinct_tokens": n_distinct,
                "sum_bigrams": n_bigrams,
                "sum_distinct_bigrams": n_dbig,
            }
        )

    return shuffle_mod.fold(
        ds.map_batches(partials, batch_format="pyarrow"),
        "source",
        pa.schema(
            [("source", pa.string()),
             *_i64("n_docs", "n_repetitive", "sum_tokens", "sum_distinct_tokens",
                   "sum_bigrams", "sum_distinct_bigrams")]
        ),
    )


# Gopher-style composite quality rule bounds (exact-integer predicates;
# the word-length low bound is tuned to the synthetic corpus so the rule
# discriminates — Rae et al.'s published bounds are [3, 10])
QF_MIN_TOKENS = 50
QF_MIN_MWL = 4  # mean word length lower bound, compared as tok_chars < 4·n
QF_MAX_MWL = 10
QF_MIN_STOP = 2  # distinct stopwords required


def q_quality_filter(sf_dir: str):
    """Gopher-rules composite quality filter (Rae et al. 2021 §A1.1
    style) with PER-RULE drop accounting, rolled up per source: each doc
    is tested against four independent rules — minimum token count, mean
    word length in [QF_MIN_MWL, QF_MAX_MWL], symbol-to-char ratio ≤ 10%,
    and ≥ QF_MIN_STOP distinct stopwords present — and the report counts
    docs tripping each rule plus the survivors, with the raw token/char
    sums pinning the arithmetic. Every predicate is an exact-integer
    cross-multiplied comparison (no float ratios), so the DuckDB oracle
    hash-matches.

    Shape at scale: all metrics are row-local Arrow kernels (utf8_length
    / count_substring_regex / one split per batch), and the per-source
    rollup is a driver fold (``shuffle.fold``) — no exchange."""
    ds = _read(sf_dir, "documents", SMALL_TABLE_BLOCKS, columns=["source", "text"])
    return _quality_filter_over(ds)


def q_csv_quality_filter(sf_dir: str):
    """quality_filter over a sharded-CSV mirror of the documents table —
    the second source-format-independence proof next to
    jsonl_token_stats: the Arrow CSV read (header + quoting round-trip)
    feeds the identical operator chain and must hash-match the
    parquet-view oracle. The mirror is synthesized idempotently under
    /tmp from the sf's parquet."""
    import hashlib

    from raycells.io.docsource import ensure_documents_csv, read_documents_csv

    src = os.path.join(sf_dir, "documents.parquet")
    tag = hashlib.blake2b(os.path.abspath(src).encode(), digest_size=6).hexdigest()
    cdir = ensure_documents_csv(src, f"/tmp/raycells_csv/{tag}")
    ds = read_documents_csv(cdir, num_blocks=SMALL_TABLE_BLOCKS)
    return _quality_filter_over(ds)


def _quality_filter_over(ds):
    def partials(b: pa.Table) -> pa.Table:
        text = b["text"]
        m = ta.char_metrics(text)
        ntok = ta.token_counts(text)
        tok_chars = m["n_chars"] - m["n_space"]
        nstop = np.zeros(b.num_rows, np.int64)
        for w in ta.STOPWORDS:
            nstop += (ta.word_hits(text, w) > 0).astype(np.int64)
        drop_len = ntok < QF_MIN_TOKENS
        drop_wl = (tok_chars < QF_MIN_MWL * ntok) | (
            tok_chars > QF_MAX_MWL * ntok
        )
        drop_sym = 10 * m["n_other"] > m["n_chars"]
        drop_stop = nstop < QF_MIN_STOP
        kept = ~(drop_len | drop_wl | drop_sym | drop_stop)
        return pa.table(
            {
                "source": b["source"],
                "n_docs": np.ones(b.num_rows, np.int64),
                "n_drop_len": drop_len.astype(np.int64),
                "n_drop_word_len": drop_wl.astype(np.int64),
                "n_drop_symbol": drop_sym.astype(np.int64),
                "n_drop_stopword": drop_stop.astype(np.int64),
                "n_kept": kept.astype(np.int64),
                "sum_tokens": ntok,
                "sum_tok_chars": tok_chars,
            }
        )

    return shuffle_mod.fold(
        ds.map_batches(partials, batch_format="pyarrow"),
        "source",
        pa.schema(
            [("source", pa.string()),
             *_i64("n_docs", "n_drop_len", "n_drop_word_len", "n_drop_symbol",
                   "n_drop_stopword", "n_kept", "sum_tokens", "sum_tok_chars")]
        ),
    )


def q_token_cooccurrence(sf_dir: str):
    """Token co-occurrence lift statistics (PMI-style, integer-quantized):
    for unordered token pairs (a < b), n_both = #docs containing both,
    lift_e6 = n_both·N·10⁶ // (df_a·df_b) — exact integers throughout,
    top 30 by (lift_e6 DESC, tok_a, tok_b). Shape at scale: each batch
    reduces to a vocab²-bounded partial via ONE incidence-matrix product
    (docs×vocab booleans, M.T@M — no per-row Python, no d² pair
    enumeration); the exchange carries only vocab²-bounded partial rows;
    the final score/rank runs on the vocabulary-sized aggregate. For an
    open web-scale vocabulary, pre-hash tokens into 2^k buckets so the
    partial stays bounded (same trick as the salted cell aggregate)."""
    ds = _read(sf_dir, "documents", SMALL_TABLE_BLOCKS, columns=["doc_id", "text"])
    n_docs = pq.ParquetFile(
        os.path.join(sf_dir, "documents.parquet")
    ).metadata.num_rows

    def pair_partials(b: pa.Table) -> pa.Table:
        _, flat, parent = ta._split(b["text"])
        toks = flat.to_numpy(zero_copy_only=False)
        d = pd.DataFrame({"p": parent, "t": toks}).drop_duplicates()
        codes, uniq = pd.factorize(d["t"], sort=True)
        v = len(uniq)
        # float32 incidence: 1/2 the bytes of int64 and the matmul runs
        # through BLAS; counts ≤ batch rows « 2^24 so the product is
        # exact and the int64 round-trip is lossless
        m = np.zeros((b.num_rows, v), dtype=np.float32)
        m[d["p"].to_numpy(), codes] = 1.0
        c = (m.T @ m).astype(np.int64)
        iu, ju = np.triu_indices(v, k=0)  # k=0: diagonal carries df(tok)
        n_both = c[iu, ju]
        keep = n_both > 0
        u = np.asarray(uniq, dtype=object)
        return pa.table(
            {
                "tok_a": pa.array(u[iu[keep]], pa.string()),
                "tok_b": pa.array(u[ju[keep]], pa.string()),
                "n": pa.array(n_both[keep], pa.int64()),
            }
        )

    # The partial stream is vocab²-bounded (≤ a few hundred rows per
    # batch here) and is collected for scoring: a driver fold, no
    # exchange and no salt.
    merged = shuffle_mod.fold(
        ds.map_batches(pair_partials, batch_format="pyarrow"),
        ["tok_a", "tok_b"],
        pa.schema([("tok_a", pa.string()), ("tok_b", pa.string()), ("n", pa.int64())]),
    ).to_pandas()
    diag = merged[merged["tok_a"] == merged["tok_b"]]
    df_map = dict(zip(diag["tok_a"], diag["n"]))
    pairs = merged[merged["tok_a"] != merged["tok_b"]].copy()
    df_a = pairs["tok_a"].map(df_map).to_numpy(np.int64)
    df_b = pairs["tok_b"].map(df_map).to_numpy(np.int64)
    n_both = pairs["n"].to_numpy(np.int64)
    if n_docs > 3_000_000:
        # n_both·N·10⁶ exceeds int64 once N ≳ 3e6 (numpy would WRAP
        # silently where the SQL BIGINT multiply throws) — route the
        # product through arbitrary-precision Python ints instead
        lift = np.array(
            [
                int(nb) * int(n_docs) * 1_000_000 // (int(da) * int(db))
                for nb, da, db in zip(n_both, df_a, df_b)
            ],
            dtype=np.int64,
        )
    else:
        lift = (n_both * np.int64(n_docs) * np.int64(1_000_000)) // (df_a * df_b)
    out = pd.DataFrame(
        {
            "tok_a": pairs["tok_a"].to_numpy(),
            "tok_b": pairs["tok_b"].to_numpy(),
            "n_both": n_both,
            "df_a": df_a,
            "df_b": df_b,
            "lift_e6": lift,
        }
    ).sort_values(["lift_e6", "tok_a", "tok_b"], ascending=[False, True, True])
    out = out.head(30).reset_index(drop=True)
    out["rank"] = np.arange(1, len(out) + 1, dtype=np.int64)
    return pa.Table.from_pandas(out, preserve_index=False)


def q_customer_order_profile(sf_dir: str):
    """LEFT OUTER hash join, oracle-checked: every customer with their
    order count and exact total spend in cents; customers with no orders
    are RETAINED with null-filled right columns (hash_join's
    how="left" pandas merge), zero-filled here. Shape at scale: the
    per-custkey order rollup is a ``shuffle.aggregate`` (map-side
    partials → one coarse-bucket merge exchange), and the join
    itself is the tagged-union co-partition — no side is broadcast, no
    row stream crosses the driver; only the customer-sized result
    does."""
    from raycells.engine.joins import hash_join

    orders = _read(
        sf_dir, "orders", SMALL_TABLE_BLOCKS, columns=["o_custkey", "o_totalprice"]
    )

    def derive(b: pa.Table) -> pa.Table:
        price_c = _half_up(
            b["o_totalprice"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        return pa.table(
            {"o_custkey": b["o_custkey"], "n_orders": np.ones(b.num_rows, np.int64),
             "sum_price_c": pa.array(price_c)}
        )

    per_cust = shuffle_mod.aggregate(
        orders.map_batches(derive, batch_format="pyarrow"),
        "o_custkey",
        pa.schema(_i64("o_custkey", "n_orders", "sum_price_c")),
    )
    cust = _read(
        sf_dir, "customer", SMALL_TABLE_BLOCKS, columns=["c_custkey", "c_mktsegment"]
    )
    joined = hash_join(
        cust,
        per_cust,
        key_left="c_custkey",
        key_right="o_custkey",
        keep_left=["c_custkey", "c_mktsegment"],
        keep_right=["n_orders", "sum_price_c"],
        how="left",
    ).to_pandas()
    return pa.table(
        {
            "c_custkey": pa.array(joined["c_custkey"].to_numpy(np.int64)),
            "c_mktsegment": pa.array(joined["c_mktsegment"], pa.string()),
            "n_orders": pa.array(
                joined["n_orders"].fillna(0).to_numpy(np.int64)
            ),
            "sum_totalprice_c": pa.array(
                joined["sum_price_c"].fillna(0).to_numpy(np.int64)
            ),
        }
    )


def q_user_gaps(sf_dir: str):
    """Ordered per-key window (LAG): inter-event time gaps per user in
    exact integer MICROSECONDS (the table's native resolution — no float
    seconds ever hashed). Shape at scale: ONE coarse-bucket exchange on
    hash(user_id) co-locates each user's events; every bucket group is
    sorted once with a vectorized lexsort (user, ts, event_id — the same
    total order as the SQL OVER clause) and all per-user diffs fall out
    of one shifted comparison with segment boundaries; users with a
    single event emit the -1/-0 sentinels, mirroring SQL COALESCE."""
    ds = _read(
        sf_dir, "events", SMALL_TABLE_BLOCKS, columns=["event_id", "user_id", "ts"]
    )

    def project(b: pa.Table) -> pa.Table:
        us = (
            b["ts"]
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[us]")
            .astype(np.int64)
        )
        return pa.table(
            {
                "user_id": b["user_id"],
                "event_id": b["event_id"],
                "ts_us": pa.array(us),
            }
        )

    def window(g: pa.Table) -> pa.Table:
        u = g["user_id"].to_numpy(zero_copy_only=False)
        e = g["event_id"].to_numpy(zero_copy_only=False)
        t = g["ts_us"].to_numpy(zero_copy_only=False)
        order = np.lexsort((e, t, u))
        u, t = u[order], t[order]
        same = u[1:] == u[:-1]
        gaps = (t[1:] - t[:-1])[same]
        gu = u[1:][same]
        base = pd.DataFrame({"user_id": u}).groupby("user_id", sort=False).size()
        gdf = (
            pd.DataFrame({"user_id": gu, "gap": gaps})
            .groupby("user_id", sort=False)
            .agg(
                n_gaps=("gap", "size"),
                sum_gap_us=("gap", "sum"),
                min_gap_us=("gap", "min"),
                max_gap_us=("gap", "max"),
            )
        )
        out = base.rename("n_events").to_frame().join(gdf)
        out["n_gaps"] = out["n_gaps"].fillna(0).astype(np.int64)
        out["sum_gap_us"] = out["sum_gap_us"].fillna(0).astype(np.int64)
        out["min_gap_us"] = out["min_gap_us"].fillna(-1).astype(np.int64)
        out["max_gap_us"] = out["max_gap_us"].fillna(-1).astype(np.int64)
        return shuffle_mod.from_pandas_clean(out.reset_index())

    out = shuffle_mod.bucket_reduce(
        ds.map_batches(project, batch_format="pyarrow"), "user_id", window
    ).to_pandas()
    return pa.table(
        {
            "user_id": pa.array(out["user_id"].to_numpy(np.int64)),
            **{
                c: pa.array(out[c].to_numpy(np.int64))
                for c in ("n_events", "n_gaps", "sum_gap_us", "min_gap_us", "max_gap_us")
            },
        }
    )


def q_cluster_embeddings(sf_dir: str):
    """K-means clustering of the embedding table exposed as a
    first-class curation operator (topic bucketing / diversity
    sampling): centroids come from the exact-integer Lloyd recipe
    (sim/ivf.train_centroids_int — integer sum-vector centroids, so the
    10 unrolled iterations are SQL-reproducible) on a bounded
    driver-side sample, every batch assigns with one matmul against the
    broadcast centroid matrix, and the per-cluster rollup (count +
    vec_id sum — any assignment flip changes the hash) is a driver
    fold. At 100 TB the sample stays a constant, the
    centroid matrix is KBs, and assignment is the same streaming matmul
    profile as brute-force kNN."""
    from raycells.sim.ivf import _assign, train_from_ds
    from raycells.text.dedup import quantize_embeddings

    ds = _read(
        sf_dir, "embeddings", SMALL_TABLE_BLOCKS, columns=["vec_id", "embedding"]
    )
    sums = train_from_ds(ds, n_centroids=16)

    def assign(b: pa.Table) -> pa.Table:
        eq = quantize_embeddings(
            np.asarray(b["embedding"].to_pylist(), dtype=np.float64)
        )
        a = _assign(eq, sums)  # the (C, d) int64 matrix ships in the closure (KBs)
        return pa.table(
            {
                "cluster": a.astype(np.int64),
                "n_vectors": np.ones(len(a), np.int64),
                "sum_vec_id": pc.cast(b["vec_id"], pa.int64()),
            }
        )

    return shuffle_mod.fold(
        ds.map_batches(assign, batch_format="pyarrow"),
        "cluster",
        pa.schema(_i64("cluster", "n_vectors", "sum_vec_id")),
    )


def q_cluster_cap(sf_dir: str, k: int = 8):
    """SemDeDup-style cluster-cap curation (NEW round 5, Abbas et al.):
    after k-means bucketing (the exact-integer Lloyd recipe shared with
    ann_ivf / cluster_embeddings), keep only the ``k`` most CENTRAL
    vectors per cluster — the 'prune each semantic cluster to its
    representatives' step a curation pipeline runs between clustering
    and training. Centrality = cosine(x, centroid) computed as
    (exact-int dot / |s_c|) / sqrt(exact-int |x|²) — identical IEEE
    expression trees both engines (the embedding_dups convention); ties
    break to the lower vec_id.

    Shape at scale: centroids train on the bounded driver sample and
    ship in the stage closure (KBs); each batch assigns with one matmul
    and emits only (cluster, vec_id, centrality); grouped_topk keeps
    ≤ k survivors per batch per cluster, so the exchange moves
    O(blocks × C × k) rows and the result is O(C × k) regardless of
    corpus size."""
    from raycells.engine.joins import grouped_topk
    from raycells.sim.ivf import _cent_norms, train_from_ds
    from raycells.text.dedup import quantize_embeddings

    ds = _read(
        sf_dir, "embeddings", SMALL_TABLE_BLOCKS, columns=["vec_id", "embedding"]
    )
    sums = train_from_ds(ds, n_centroids=16)
    nrm = _cent_norms(sums)

    def central(b: pa.Table) -> pa.Table:
        eq = quantize_embeddings(
            np.asarray(b["embedding"].to_pylist(), dtype=np.float64)
        )
        sims = (eq @ sums.T).astype(np.float64) / nrm[None, :]
        a = np.argmax(sims, axis=1)  # first maximum = lowest cluster on ties
        x2 = np.einsum("ij,ij->i", eq, eq)  # exact int64 (|e|<2^21, d=64)
        cen = sims[np.arange(len(a)), a] / np.sqrt(x2.astype(np.float64))
        return pa.table(
            {
                "cluster": pa.array(a.astype(np.int64)),
                "vec_id": pa.array(
                    b["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
                ),
                "centrality": pa.array(cen),
            }
        )

    return grouped_topk(
        ds.map_batches(central, batch_format="pyarrow"),
        group_col="cluster",
        k=k,
        order_col="centrality",
        tiebreak_col="vec_id",
        ascending=(False, True),
    )


def q_customer_set_ops(sf_dir: str):
    """Set operations over derived key sets — INTERSECT / EXCEPT /
    complement in one pass: customers who ordered in BOTH 1996 and 1999,
    only one, or neither, rolled up per market segment. Shape at scale:
    each batch collapses map-side to per-custkey 0/1 flags (MAX is the
    set-membership combiner), a ``shuffle.aggregate`` merges flags
    per key, the LEFT hash join carries the full customer set (the
    'neither' complement needs outer semantics), and the per-segment
    rollup is a driver fold (``shuffle.fold``)."""
    from raycells.engine.joins import hash_join

    orders = _read(
        sf_dir, "orders", SMALL_TABLE_BLOCKS, columns=["o_custkey", "o_orderdate"]
    )

    def flags(b: pa.Table) -> pa.Table:
        yr = (
            b["o_orderdate"]
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[Y]")
            .astype(np.int64)
            + 1970
        )
        return pa.table(
            {
                "o_custkey": b["o_custkey"],
                "in_a": pa.array((yr == 1996).astype(np.int64)),
                "in_b": pa.array((yr == 1999).astype(np.int64)),
            }
        )

    per_cust = shuffle_mod.aggregate(
        orders.map_batches(flags, batch_format="pyarrow"),
        "o_custkey",
        pa.schema(_i64("o_custkey", "in_a", "in_b")),
        {"in_a": "max", "in_b": "max"},
    )
    cust = _read(
        sf_dir, "customer", SMALL_TABLE_BLOCKS, columns=["c_custkey", "c_mktsegment"]
    )
    j = hash_join(
        cust,
        per_cust,
        key_left="c_custkey",
        key_right="o_custkey",
        keep_left=["c_mktsegment"],
        keep_right=["in_a", "in_b"],
        how="left",
    )

    def rollup(t: pa.Table) -> pa.Table:
        a = pc.fill_null(t["in_a"], 0).to_numpy(zero_copy_only=False) == 1
        b = pc.fill_null(t["in_b"], 0).to_numpy(zero_copy_only=False) == 1
        return pa.table(
            {
                "c_mktsegment": t["c_mktsegment"],
                "n_customers": np.ones(t.num_rows, np.int64),
                "n_both": (a & b).astype(np.int64),
                "n_only_a": (a & ~b).astype(np.int64),
                "n_only_b": (~a & b).astype(np.int64),
                "n_neither": (~a & ~b).astype(np.int64),
            }
        )

    return shuffle_mod.fold(
        j.map_batches(rollup, batch_format="pyarrow"),
        "c_mktsegment",
        pa.schema(
            [("c_mktsegment", pa.string()),
             *_i64("n_customers", "n_both", "n_only_a", "n_only_b", "n_neither")]
        ),
    )


def q_hist_quantiles(sf_dir: str):
    """MERGEABLE histogram quantile sketch — the single-pass scale path
    next to the exact two-pass selection (q_quantiles_price): fixed
    $100-wide buckets over price cents, per-batch bucket counts combine
    map-side and the driver folds the ≤ ~1.1k-bucket partials; the
    p50/p90/p99 estimates are the lower bound of the smallest bucket
    whose cumulative count reaches ceil(q·n) (integer cross-multiplied —
    nothing float ever hashes). Registers are pure addition, so the same
    sketch merges across days/shards like the HLL."""
    W = np.int64(10_000)  # bucket width: $100 in cents
    ds = _read(sf_dir, "lineitem", columns=["l_extendedprice"])

    def bucket_counts(b: pa.Table) -> pa.Table:
        price_c = _half_up(
            b["l_extendedprice"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        return pa.table({"b": price_c // W, "c": np.ones(len(price_c), np.int64)})

    h = shuffle_mod.fold(
        ds.map_batches(bucket_counts, batch_format="pyarrow"), "b",
        pa.schema(_i64("b", "c")),
    )
    buckets = h["b"].to_numpy()
    cum = np.cumsum(h["c"].to_numpy())
    n = np.int64(cum[-1]) if len(cum) else np.int64(0)

    def est(q100: int) -> int:
        # smallest bucket with cum·100 ≥ n·q100, reported as its cent
        # lower bound — identical integer rule to the SQL; an empty
        # input (plausible for a per-shard sketch) yields 0, not an
        # IndexError
        if n == 0:
            return 0
        i = int(np.searchsorted(cum * 100, n * q100, side="left"))
        return int(buckets[i] * W)

    return pa.table(
        {
            "n_rows": pa.array([int(n)], pa.int64()),
            "p50_lo_c": pa.array([est(50)], pa.int64()),
            "p90_lo_c": pa.array([est(90)], pa.int64()),
            "p99_lo_c": pa.array([est(99)], pa.int64()),
        }
    )


def q_event_bursts(sf_dir: str):
    """Temporal BAND join (engine/joins.band_join_count): for each
    event, COUNT the same user's events in the trailing week — day
    values d−7…d inclusive, i.e. 8 calendar days (self included then
    subtracted) — the burstiness / retention-feature shape that counts
    ALL rows in a window, vs the as-of join's single latest match.
    Shape at scale: one tagged-union coarse-bucket exchange co-locates
    each user's rows; per bucket the right side sorts once on a
    (user, day) composite int64 and every event's window count is two
    vectorized searchsorted calls; matches are never materialized. The
    self-join input is materialized once so the union's two branches
    don't re-read and re-project the same table. Rolled up per event
    type; the driver folds the tiny partials."""
    from raycells.engine.joins import band_join_count

    def project(b: pa.Table) -> pa.Table:
        d = (
            b["ts"]
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[D]")
            .astype(np.int64)
        )
        return pa.table(
            {
                "user_id": b["user_id"],
                "day": pa.array(d),
                "event_type": b["event_type"],
            }
        )

    ev = (
        _read(
            sf_dir,
            "events",
            SMALL_TABLE_BLOCKS,
            columns=["user_id", "ts", "event_type"],
        )
        .map_batches(project, batch_format="pyarrow")
        .materialize()  # both union branches consume it — scan once
    )

    counted = band_join_count(
        ev,
        ev,
        key_left="user_id",
        key_right="user_id",
        on_left="day",
        on_right="day",
        low=-7,
        high=0,
        keep_left=["event_type"],
        on_scale=1 << 21,
    )

    def rollup(b: pa.Table) -> pa.Table:
        m = b["m"].to_numpy(zero_copy_only=False) - 1  # drop the self-match
        return pa.table(
            {
                "event_type": b["event_type"],
                "n_events": np.ones(len(m), np.int64),
                "sum_matches": m.astype(np.int64),
                "n_matched": (m > 0).astype(np.int64),
            }
        )

    return shuffle_mod.fold(
        counted.map_batches(rollup, batch_format="pyarrow"),
        "event_type",
        pa.schema(
            [("event_type", pa.string()),
             *_i64("n_events", "sum_matches", "n_matched")]
        ),
    )


def q_doc_surprisal(sf_dir: str):
    """Unigram-LM quality scoring (perplexity-style outlier filter):
    each token costs ``floor(log2(N / count(tok)))`` whole BITS of
    surprisal — exactly ``bit_length(N // c) − 1``, pure integer
    arithmetic (numpy's SIMD ``log`` is NOT bit-identical to DuckDB's
    libm ``ln``, measured, so a float LM score could never hash; whole
    bits can). Docs whose total surprisal exceeds 5 bits/token are
    flagged. Shape at scale: pass 1 is the vocab-bounded token-count
    fold (partials per batch, driver builds the vocab-sized cost map);
    pass 2 broadcasts the cost map into a batch kernel (token→cost via
    factorize + take, per-doc sums via bincount — float64 accumulation
    of integers < 2⁵³ is exact) and rolls up per source; for a web-scale
    open vocabulary, ship the cost map via ray.put + broadcast_task and
    hash-bucket the vocab, same as the co-occurrence note."""
    ds = _read(sf_dir, "documents", SMALL_TABLE_BLOCKS, columns=["source", "text"])

    def tok_counts(b: pa.Table) -> pa.Table:
        _, flat, _ = ta._split(b["text"])
        return pa.table({"tok": flat, "c": np.ones(len(flat), np.int64)})

    cnt = shuffle_mod.fold(
        ds.map_batches(tok_counts, batch_format="pyarrow"), "tok",
        pa.schema([("tok", pa.string()), *_i64("c")]),
    )
    c = cnt["c"].to_numpy()
    total = np.int64(c.sum())
    # bit_length(total // c) - 1 == floor(log2(total / c)), exact in
    # PYTHON-INT arithmetic (a frexp detour through float64 would round
    # int64 values >= 2^53 across power-of-two boundaries and overstate
    # the cost by a bit); the loop is vocab-sized, driver-side, cheap
    cost = {
        t: int(v).bit_length() - 1
        for t, v in zip(cnt["tok"].to_pylist(), total // c)
    }

    def score(b: pa.Table) -> pa.Table:
        _, flat, parent = ta._split(b["text"])
        toks = flat.to_numpy(zero_copy_only=False)
        codes, uniq = pd.factorize(toks)
        s_by_code = np.array([cost[t] for t in uniq], dtype=np.int64)
        s_flat = s_by_code[codes]
        n = b.num_rows
        ntok = np.bincount(parent, minlength=n).astype(np.int64)
        sc = np.bincount(parent, weights=s_flat, minlength=n).astype(np.int64)
        return pa.table(
            {
                "source": b["source"],
                "n_docs": np.ones(n, np.int64),
                "sum_tokens": ntok,
                "sum_surprisal_bits": sc,
                "n_flagged": (sc > ntok * 5).astype(np.int64),
            }
        )

    return shuffle_mod.fold(
        ds.map_batches(score, batch_format="pyarrow"),
        "source",
        pa.schema(
            [("source", pa.string()),
             *_i64("n_docs", "sum_tokens", "sum_surprisal_bits", "n_flagged")]
        ),
    )


def q_qty_price_corr(sf_dir: str):
    """Grouped Pearson correlation (quantity vs price per return flag)
    computed the only cross-engine-hashable way: the five moment sums
    (Σx, Σy, Σx², Σy², Σxy) are EXACT INT64 over quantized units (qty
    integer, price whole dollars — keeps Σy² < 2⁵³ so the final
    int→double conversions are exact at gate scales), combined map-side
    per batch and driver-folded; the correlation itself is derived from
    those integers with the IDENTICAL IEEE expression tree the SQL
    oracle uses, so the doubles match bit-for-bit. One pass, no
    exchange — the classic single-scan moments pattern."""
    ds = _read(
        sf_dir, "lineitem", columns=["l_returnflag", "l_quantity", "l_extendedprice"]
    )

    def moments(b: pa.Table) -> pa.Table:
        x = _half_up(b["l_quantity"].to_numpy(zero_copy_only=False)).astype(np.int64)
        y = _half_up(b["l_extendedprice"].to_numpy(zero_copy_only=False)).astype(
            np.int64
        )
        return pa.table(
            {
                "l_returnflag": b["l_returnflag"],
                "n_rows": np.ones(len(x), np.int64),
                "sum_qty": x,
                "sum_price_d": y,
                "sxx": x * x,
                "syy": y * y,
                "sxy": x * y,
            }
        )

    s = shuffle_mod.fold(
        ds.map_batches(moments, batch_format="pyarrow"),
        "l_returnflag",
        pa.schema(
            [("l_returnflag", pa.string()),
             *_i64("n_rows", "sum_qty", "sum_price_d", "sxx", "syy", "sxy")]
        ),
    )
    n, sx, sy, sxx, syy, sxy = (
        s[c].to_numpy().astype(np.float64)
        for c in ("n_rows", "sum_qty", "sum_price_d", "sxx", "syy", "sxy")
    )
    corr = (n * sxy - sx * sy) / (np.sqrt(n * sxx - sx * sx) * np.sqrt(n * syy - sy * sy))
    return s.drop_columns(["sxx", "syy", "sxy"]).append_column(
        "corr_qty_price", pa.array(corr, pa.float64())
    )


EVENT_TYPES = ("click", "error", "purchase", "signup", "view")


def q_funnel_coverage(sf_dir: str):
    """FULL OUTER join coverage report (NEW round 5): per (user, day),
    click count vs purchase count with unmatched rows kept from BOTH
    sides — the funnel/coverage shape ("days with clicks but no
    purchases and vice versa") that inner/left joins cannot express.
    Completes the join-type matrix: inner (priority_revenue), LEFT
    (customer_order_profile), anti (customers_no_orders), as-of, band,
    range — and now FULL OUTER via ``hash_join(how="outer")``.

    Shape at scale: each side collapses to per-key counts via the
    two-stage salted aggregate BEFORE the join, so the outer exchange
    moves count rows, never events; the (user, day) composite packs
    into one int64 key (user·2^20 + epoch_day), and the coalesced key
    comes back through ``key_out`` — never null on either side's
    unmatched rows."""
    from raycells.engine.joins import hash_join

    ds = _read(
        sf_dir, "events", SMALL_TABLE_BLOCKS,
        columns=["user_id", "ts", "event_type"],
    ).materialize()  # two sides project from one read, not two scans

    def side(ev_type: str, alias: str):
        def project(b: pa.Table) -> pa.Table:
            sub = b.filter(pc.equal(b["event_type"], ev_type))
            d = (
                sub["ts"]
                .to_numpy(zero_copy_only=False)
                .astype("datetime64[D]")
                .astype(np.int64)
            )
            uid = pc.cast(sub["user_id"], pa.int64()).to_numpy(
                zero_copy_only=False
            )
            return pa.table({"k": pa.array(uid * (1 << 20) + d),
                             alias: np.ones(sub.num_rows, np.int64)})

        proj = ds.map_batches(project, batch_format="pyarrow")
        return shuffle_mod.aggregate(proj, "k", pa.schema(_i64("k", alias)))

    joined = hash_join(
        side("click", "n_clicks"),
        side("purchase", "n_purchases"),
        key_left="k",
        key_right="k",
        keep_left=["n_clicks"],
        keep_right=["n_purchases"],
        how="outer",
        key_out="k",
    )

    def finish(b: pa.Table) -> pa.Table:
        k = b["k"].to_numpy(zero_copy_only=False)
        nc = pc.fill_null(b["n_clicks"], 0)
        npu = pc.fill_null(b["n_purchases"], 0)
        has_c = pc.is_valid(b["n_clicks"]).to_numpy(zero_copy_only=False)
        has_p = pc.is_valid(b["n_purchases"]).to_numpy(zero_copy_only=False)
        label = np.where(
            has_c & has_p, "both", np.where(has_c, "click_only", "purchase_only")
        )
        return pa.table(
            {
                "user_id": pa.array(k >> 20),
                "day_num": pa.array(k & ((1 << 20) - 1)),
                "n_clicks": pc.cast(nc, pa.int64()),
                "n_purchases": pc.cast(npu, pa.int64()),
                "coverage": pa.array(label, pa.string()),
            }
        )

    return joined.map_batches(finish, batch_format="pyarrow")


def q_events_pivot(sf_dir: str):
    """Pivot / wide reshape: one row per day, one count column per event
    type (the feature-matrix layout). Shape at scale: each event becomes
    one row with a 0/1 column per type (the SQL FILTER shape), and the
    per-day driver fold sums them; no wide row ever crosses an exchange.
    The type set is a fixed schema (pivot columns must be static for a
    stable output schema — same contract as SQL FILTER)."""
    ds = _read(sf_dir, "events", columns=["event_type", "ts"])

    def project(b: pa.Table) -> pa.Table:
        et = b["event_type"]
        return pa.table(
            {
                "day": pc.strftime(b["ts"], format="%Y-%m-%d"),
                **{
                    f"n_{t}": pc.cast(pc.equal(et, t), pa.int64())
                    for t in EVENT_TYPES
                },
            }
        )

    return shuffle_mod.fold(
        ds.map_batches(project, batch_format="pyarrow"),
        "day",
        pa.schema([("day", pa.string()), *_i64(*(f"n_{t}" for t in EVENT_TYPES))]),
    )


def q_user_running_value(sf_dir: str):
    """Cumulative window (ROW_NUMBER + running SUM): per event, its rank
    within the user's timeline and the running total of value in exact
    cents. Unlike the rollup windows this MATERIALIZES one output row
    per input row — the standard feature-engineering shape (\"value so
    far\" features for training). Shape at scale: the only exchange is
    the coarse-bucket co-location by user; inside each bucket one
    vectorized lexsort + segmented cumsum (offset-subtraction at user
    boundaries) computes every row's rank and running sum — no per-user
    Python, no second pass."""
    ds = _read(
        sf_dir,
        "events",
        SMALL_TABLE_BLOCKS,
        columns=["event_id", "user_id", "ts", "value"],
    )

    def project(b: pa.Table) -> pa.Table:
        us = (
            b["ts"]
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[us]")
            .astype(np.int64)
        )
        value_c = _half_up(b["value"].to_numpy(zero_copy_only=False) * 100).astype(
            np.int64
        )
        return pa.table(
            {
                "user_id": b["user_id"],
                "event_id": b["event_id"],
                "ts_us": pa.array(us),
                "value_c": pa.array(value_c),
            }
        )

    def window(g: pa.Table) -> pa.Table:
        u = g["user_id"].to_numpy(zero_copy_only=False)
        e = g["event_id"].to_numpy(zero_copy_only=False)
        t = g["ts_us"].to_numpy(zero_copy_only=False)
        v = g["value_c"].to_numpy(zero_copy_only=False)
        order = np.lexsort((e, t, u))
        u, e, v = u[order], e[order], v[order]
        n = len(u)
        idx = np.arange(n, dtype=np.int64)
        seg_start = np.zeros(n, dtype=bool)
        if n:
            seg_start[0] = True
            seg_start[1:] = u[1:] != u[:-1]
        start_idx = np.maximum.accumulate(np.where(seg_start, idx, 0))
        rn = idx - start_idx + 1
        cum = np.cumsum(v)
        base = np.where(start_idx > 0, cum[start_idx - 1], 0)
        return pa.table(
            {
                "event_id": pa.array(e),
                "user_id": pa.array(u),
                "rn": pa.array(rn),
                "cum_value_c": pa.array(cum - base),
            }
        )

    return shuffle_mod.bucket_reduce(
        ds.map_batches(project, batch_format="pyarrow"), "user_id", window
    )


def q_regex_tokens(sf_dir: str):
    """BPE-ish regex token statistics over the semi-structured events
    props payload: per event type, counts of ``[a-z]+|[0-9]+|[^a-z0-9 ]``
    tokens (the simplified GPT-2 pretoken split), broken down into
    letter-run / digit-run / punct classes. The kernel is byte-class RUN
    COUNTING on the raw Arrow string buffer (text/analysis.
    regex_token_counts) — one shifted comparison over the whole buffer,
    no per-row regex — and equals DuckDB ``regexp_extract_all`` lengths
    exactly. Driver fold per event type (``shuffle.fold``)."""
    ds = _read(sf_dir, "events", SMALL_TABLE_BLOCKS, columns=["event_type", "props"])

    def count(b: pa.Table) -> pa.Table:
        c = ta.regex_token_counts(b["props"])
        return pa.table(
            {
                "event_type": b["event_type"],
                "n_rows": np.ones(b.num_rows, np.int64),
                "sum_tokens": c["tokens"],
                "sum_alpha_tokens": c["alpha"],
                "sum_digit_tokens": c["digit"],
                "sum_punct_tokens": c["punct"],
            }
        )

    return shuffle_mod.fold(
        ds.map_batches(count, batch_format="pyarrow"),
        "event_type",
        pa.schema(
            [("event_type", pa.string()),
             *_i64("n_rows", "sum_tokens", "sum_alpha_tokens", "sum_digit_tokens",
                   "sum_punct_tokens")]
        ),
    )


def q_redact_props(sf_dir: str):
    """PII-style regex scrubbing (digit runs → '#') over the events
    props payload, rolled up per event type: rows touched and exact
    length deltas. Arrow's RE2 ``replace_substring_regex`` mirrors
    DuckDB's RE2 ``regexp_replace(..., 'g')`` byte-for-byte, so the
    oracle hash-matches. Shape at scale: the scrub is a zero-exchange
    vectorized batch kernel, and the per-type rollup is a driver fold
    (``shuffle.fold``)."""
    ds = _read(sf_dir, "events", SMALL_TABLE_BLOCKS, columns=["event_type", "props"])

    def scrub(b: pa.Table) -> pa.Table:
        props = b["props"]
        red = pc.replace_substring_regex(props, "[0-9]+", "#")
        return pa.table(
            {
                "event_type": b["event_type"],
                "n_rows": np.ones(b.num_rows, np.int64),
                "n_changed": pc.cast(pc.not_equal(red, props), pa.int64()),
                "sum_len_orig": pc.cast(pc.utf8_length(props), pa.int64()),
                "sum_len_redacted": pc.cast(pc.utf8_length(red), pa.int64()),
            }
        )

    return shuffle_mod.fold(
        ds.map_batches(scrub, batch_format="pyarrow"),
        "event_type",
        pa.schema(
            [("event_type", pa.string()),
             *_i64("n_rows", "n_changed", "sum_len_orig", "sum_len_redacted")]
        ),
    )


def q_hillshade_stats(sf_dir: str):
    """Horn 3×3 terrain-GRADIENT statistics (NEW round 5) — the slope /
    hillshade stencil (Horn 1981; GDAL ``gdaldem`` uses the same taps)
    over band 4 of every media tile, window (0,0)+(8,8) so the
    replicate-clamp edge path is exercised. The float hillshade cosine
    is NOT hashable cross-engine (atan/cos of a quotient), so the query
    emits the exact-integer gradient MOMENTS the shade derives from:
    per-tile Σgx, Σgy, Σ|gx|, Σ|gy| and max(gx²+gy²) — pure int64
    (|g| ≤ 4·65520 so the squared magnitude sum is < 2⁴⁴). Shape at
    scale: one fused map-only decode pass (no exchange at all); the
    oracle inlines the 8 clamped LCG taps per out cell with the
    hoisted per-tile constants (CLAUDE.md round-4 recipe).
    Cf. /root/reference/src/gdal/rasterband.rs:37-79 (windowed band
    reads the stencil consumes)."""
    from raycells.io import tilestore

    WINDOW, WSIZE = (0, 0), (8, 8)

    def horn_stats(b: pa.Table) -> pa.Table:
        seeds = tilestore.seed_of_refs(b["media_ref"])
        gx, gy = tilestore.synth_band_horn(seeds, 4, WINDOW, WSIZE)
        g2 = gx * gx + gy * gy
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "span_idx": pc.cast(b["span_idx"], pa.int64()),
                "seed": pa.array(seeds, pa.int64()),
                "sum_gx": pa.array(gx.sum(axis=1)),
                "sum_gy": pa.array(gy.sum(axis=1)),
                "sum_abs_gx": pa.array(np.abs(gx).sum(axis=1)),
                "sum_abs_gy": pa.array(np.abs(gy).sum(axis=1)),
                "max_g2": pa.array(g2.max(axis=1)),
            }
        )

    return _exploded(sf_dir).map_batches(horn_stats, batch_format="pyarrow")


def q_pmi_collocations(sf_dir: str, min_count: int = 3, k: int = 30):
    """PMI COLLOCATION extraction (NEW round 5) — the classic phrase
    miner: adjacent token bigrams ranked by pointwise mutual
    information. PMI = log(P(xy)/(P(x)P(y))) is order-isomorphic to the
    integer ratio n_xy·N_uni² / (n_x·n_y·N_big), so the score is its
    exact e6-scaled floor — Python bigints here, HUGEINT in the oracle
    (the product tops int64 once N_uni ≳ 2×10⁶). Top ``k`` by
    (pmi_e6 DESC, tok_a, tok_b) among bigrams seen ≥ ``min_count``.

    Shape at scale: bigram and unigram counting are the top_bigrams
    recipe — per-batch np.unique partials, then a driver fold each
    (the aggregates are collected for scoring anyway); both totals
    (N_uni, N_big) fold from the aggregates themselves, so no extra
    pass. Scoring runs on the vocabulary-sized aggregate (the
    min-count filter is applied first); for an open web vocabulary,
    rank on the distributed aggregate with grouped_topk over a
    float prefilter and exact-rescore the survivors."""
    ds = _read(
        sf_dir, "documents", SMALL_TABLE_BLOCKS, columns=["text"]
    ).materialize()  # feeds the unigram AND bigram counting passes

    def unigrams(b: pa.Table) -> pa.Table:
        _, flat, _ = ta._split(b["text"])
        vals, n = np.unique(flat.to_numpy(zero_copy_only=False), return_counts=True)
        return pa.table({"tok": pa.array(vals), "n": pa.array(n.astype(np.int64))})

    def bigrams(b: pa.Table) -> pa.Table:
        _, flat, parent = ta._split(b["text"])
        toks = flat.to_numpy(zero_copy_only=False)
        if toks.size < 2:
            return pa.table({"bigram": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        same_doc = parent[1:] == parent[:-1]
        left, right = toks[:-1][same_doc], toks[1:][same_doc]
        big = np.char.add(np.char.add(left.astype(str), " "), right.astype(str))
        vals, n = np.unique(big, return_counts=True)
        return pa.table(
            {"bigram": pa.array(vals), "n": pa.array(n.astype(np.int64))}
        )

    uni, big = (
        shuffle_mod.fold(
            ds.map_batches(fn, batch_format="pyarrow"), key,
            pa.schema([(key, pa.string()), ("n", pa.int64())]),
        ).to_pandas()
        for fn, key in ((unigrams, "tok"), (bigrams, "bigram"))
    )

    n_uni = int(uni["n"].sum())  # total token positions
    n_big = int(big["n"].sum())  # total bigram positions
    uni_map = dict(zip(uni["tok"], uni["n"]))

    cand = big[big["n"] >= min_count].copy()
    if not len(cand):  # expand=True on an empty Series yields 0 columns
        return pa.table(
            {
                "tok_a": pa.array([], pa.string()),
                "tok_b": pa.array([], pa.string()),
                "n_pair": pa.array([], pa.int64()),
                "n_a": pa.array([], pa.int64()),
                "n_b": pa.array([], pa.int64()),
                "pmi_e6": pa.array([], pa.int64()),
                "rank": pa.array([], pa.int64()),
            }
        )
    toks = cand["bigram"].str.split(" ", n=1, expand=True)
    n_xy = cand["n"].to_numpy(np.int64)
    n_a = toks[0].map(uni_map).to_numpy(np.int64)
    n_b = toks[1].map(uni_map).to_numpy(np.int64)
    # exact full-precision floor — Python bigints (n_xy·N² ≥ 2^63 once
    # the corpus passes ~2M tokens; the oracle matches with HUGEINT)
    pmi = np.array(
        [
            int(nxy) * n_uni * n_uni * 1_000_000 // (int(na) * int(nb) * n_big)
            for nxy, na, nb in zip(n_xy, n_a, n_b)
        ],
        dtype=np.int64,
    )
    out = pd.DataFrame(
        {
            "tok_a": toks[0].to_numpy(),
            "tok_b": toks[1].to_numpy(),
            "n_pair": n_xy,
            "n_a": n_a,
            "n_b": n_b,
            "pmi_e6": pmi,
        }
    ).sort_values(["pmi_e6", "tok_a", "tok_b"], ascending=[False, True, True])
    out = out.head(k).reset_index(drop=True)
    out["rank"] = np.arange(1, len(out) + 1, dtype=np.int64)
    return pa.Table.from_pandas(out, preserve_index=False)


# lexical_search query set: small, broadcast in the stage closure.
_SEARCH_QUERIES = (
    ("q1", ("hash", "join")),
    ("q2", ("slow", "scan", "vector")),
    ("q3", ("customer", "order", "data")),
)


def q_lexical_search(sf_dir: str, k: int = 10):
    """BM25-style LEXICAL SEARCH (NEW round 5) — integer-exact top-k
    retrieval for a broadcast query set. With k1 = 6/5 and b = 3/4 the
    BM25 term ratio tf·(k1+1) / (tf + k1(1−b+b·dl/avgdl)) clears its
    denominators against avgdl = T/D into 44·tf·T / (20·tf·T + 6·T +
    18·dl·D) — exact integers; idf is the rational D/df at e6 (the ln
    idf is not cross-engine hashable). Per-term score =
    (D·10⁶ // df) · 44·tf·T // (20·tf·T + 6·T + 18·dl·D), summed over
    matched terms — identical floor-division trees both engines.

    Shape at scale: pass 1 folds per-batch (df per query term, ΣT)
    partials on the driver — O(blocks × terms) rows; pass 2 broadcasts
    the term table in the closure, computes tf per doc with one
    bincount over the token parent index per term, and streams
    (query, doc, score) into grouped_topk — only per-batch top-k
    survivors cross the exchange. int64 bound: the product
    idf_e6·44·tf·T is guarded PER BATCH — when it could reach 2^62
    (rare terms on large corpora: idf_e6 ≤ 10⁶·D/df), the affected
    term's hit rows rescore through Python bigints, so rankings never
    silently wrap (numpy would; the SQL BIGINT throws)."""
    from raycells.engine.joins import grouped_topk

    terms = sorted({t for _, ts in _SEARCH_QUERIES for t in ts})
    ds = _read(
        sf_dir, "documents", SMALL_TABLE_BLOCKS, columns=["doc_id", "text"]
    ).materialize()  # pass 1 (df, T) and pass 2 (scores) share the read
    n_docs = pq.ParquetFile(
        os.path.join(sf_dir, "documents.parquet")
    ).metadata.num_rows

    def df_partials(b: pa.Table) -> pa.Table:
        _, flat, parent = ta._split(b["text"])
        toks = flat.to_numpy(zero_copy_only=False)
        rows = {"term": [], "df": [], "toks": []}
        for t in terms:  # |terms| is constant — not a row loop
            hit = np.bincount(parent[toks == t], minlength=b.num_rows) > 0
            rows["term"].append(t)
            rows["df"].append(int(hit.sum()))
            rows["toks"].append(0)
        rows["term"].append("\x01total")
        rows["df"].append(0)
        rows["toks"].append(int(toks.size))
        return pa.table(
            {
                "term": pa.array(rows["term"], pa.string()),
                "df": pa.array(rows["df"], pa.int64()),
                "toks": pa.array(rows["toks"], pa.int64()),
            }
        )

    folded = shuffle_mod.fold(
        ds.map_batches(df_partials, batch_format="pyarrow"),
        "term",
        pa.schema([("term", pa.string()), *_i64("df", "toks")]),
    ).to_pydict()
    df_map = dict(zip(folded["term"], folded["df"]))
    T = sum(folded["toks"])
    D = int(n_docs)

    def score(b: pa.Table) -> pa.Table:
        _, flat, parent = ta._split(b["text"])
        toks = flat.to_numpy(zero_copy_only=False)
        dl = np.bincount(parent, minlength=b.num_rows).astype(np.int64)
        doc_id = pc.cast(b["doc_id"], pa.int64()).to_numpy(zero_copy_only=False)
        tfs = {
            t: np.bincount(parent[toks == t], minlength=b.num_rows).astype(np.int64)
            for t in terms
        }
        out_q, out_d, out_s = [], [], []
        for qid, qterms in _SEARCH_QUERIES:  # constant-size loop
            s = np.zeros(b.num_rows, dtype=np.int64)
            for t in qterms:
                df = df_map.get(t, 0)
                if df == 0:
                    continue
                tf = tfs[t]
                idf_e6 = D * 1_000_000 // df
                tf_max = int(tf.max()) if tf.size else 0
                if idf_e6 * 44 * tf_max * T < 1 << 62:
                    num = 44 * tf * T
                    den = 20 * tf * T + 6 * T + 18 * dl * D
                    s += np.where(tf > 0, idf_e6 * num // den, 0)
                else:
                    # bigint fallback on the term's HIT rows only —
                    # numpy int64 would wrap silently here
                    for i in np.flatnonzero(tf > 0):
                        tfi, dli = int(tf[i]), int(dl[i])
                        s[i] += (
                            idf_e6 * (44 * tfi * T)
                            // (20 * tfi * T + 6 * T + 18 * dli * D)
                        )
            hit = s > 0
            out_q.append(np.full(int(hit.sum()), qid, dtype=object))
            out_d.append(doc_id[hit])
            out_s.append(s[hit])
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q), pa.string()),
                "doc_id": pa.array(np.concatenate(out_d), pa.int64()),
                "score_e6": pa.array(np.concatenate(out_s), pa.int64()),
            }
        )

    scored = ds.map_batches(score, batch_format="pyarrow")
    return grouped_topk(
        scored, "query_id", k, "score_e6", "doc_id", ascending=(False, True)
    )


def q_aspect_octants(sf_dir: str):
    """Terrain ASPECT octant histogram (NEW round 5) — the gdaldem
    aspect classification re-expressed exactly: each cell's Horn
    gradient (gx, gy) mapped to one of 8 compass octants by the
    Bresenham octant tree (negate / rotate / diagonal compare — pure
    integer comparisons, no atan2), zero gradients counted as flat;
    per-tile class counts. Identical nested-CASE tree in the oracle, so
    the histogram hash-matches. One map-only decode pass — zero
    exchange (the companion moment query is q_hillshade_stats)."""
    from raycells.io import tilestore

    WINDOW, WSIZE = (0, 0), (8, 8)

    def octants(b: pa.Table) -> pa.Table:
        seeds = tilestore.seed_of_refs(b["media_ref"])
        gx, gy = tilestore.synth_band_horn(seeds, 4, WINDOW, WSIZE)
        o = np.where(
            gy >= 0,
            np.where(
                gx >= 0,
                (gy > gx).astype(np.int64),
                2 + (-gx > gy).astype(np.int64),
            ),
            np.where(
                gx <= 0,
                4 + (-gy > -gx).astype(np.int64),
                6 + (gx > -gy).astype(np.int64),
            ),
        )
        o = np.where((gx == 0) & (gy == 0), -1, o)
        cols = {
            "doc_id": b["doc_id"],
            "span_idx": pc.cast(b["span_idx"], pa.int64()),
            "seed": pa.array(seeds, pa.int64()),
            "n_flat": pa.array((o == -1).sum(axis=1).astype(np.int64)),
        }
        for k in range(8):
            cols[f"n_o{k}"] = pa.array((o == k).sum(axis=1).astype(np.int64))
        return pa.table(cols)

    return _exploded(sf_dir).map_batches(octants, batch_format="pyarrow")


def q_event_ohlc(sf_dir: str):
    """Time-BAR (OHLC) aggregation (NEW round 5) — the telemetry /
    market-data resample: per (event_type, day) open / high / low /
    close / sum in exact cents, where open and close are the values of
    the FIRST and LAST event under the deterministic (ts, event_id)
    total order. Shape at scale: argmin/argmax are associative — each
    batch emits ONE partial row per (type, day) carrying its candidate
    first/last (with their (ts, id) keys) plus the commutative sums;
    the driver folds the O(blocks × bars) partials by hand (first/last
    is not a ``shuffle.fold`` op) with no exchange — bar count is
    bounded by types × days, never by rows)."""
    ds = _read(
        sf_dir, "events", SMALL_TABLE_BLOCKS,
        columns=["event_id", "ts", "event_type", "value"],
    )

    def partials(b: pa.Table) -> pa.Table:
        ts = (
            b["ts"].to_numpy(zero_copy_only=False)
            .astype("datetime64[us]")
            .astype(np.int64)
        )
        df = pd.DataFrame(
            {
                "event_type": b["event_type"].to_numpy(zero_copy_only=False),
                "day": pc.strftime(b["ts"], format="%Y-%m-%d").to_numpy(
                    zero_copy_only=False
                ),
                "ts_us": ts,
                "event_id": pc.cast(b["event_id"], pa.int64()).to_numpy(
                    zero_copy_only=False
                ),
                "x": _half_up(
                    b["value"].to_numpy(zero_copy_only=False) * 100
                ).astype(np.int64),
            }
        ).sort_values(["ts_us", "event_id"], kind="stable")
        g = df.groupby(["event_type", "day"], sort=False)
        part = g.agg(
            n_events=("x", "size"),
            sum_c=("x", "sum"),
            low_c=("x", "min"),
            high_c=("x", "max"),
            open_c=("x", "first"),
            close_c=("x", "last"),
            ts_first=("ts_us", "first"),
            id_first=("event_id", "first"),
            ts_last=("ts_us", "last"),
            id_last=("event_id", "last"),
        ).reset_index()
        return shuffle_mod.from_pandas_clean(part)

    parts = ds.map_batches(partials, batch_format="pyarrow").to_pandas()
    # associative fold: first = row with the min (ts_first, id_first),
    # last = row with the max (ts_last, id_last); sums/extrema merge
    opens = (
        parts.sort_values(["ts_first", "id_first"], kind="stable")
        .groupby(["event_type", "day"], sort=False)
        .first()["open_c"]
    )
    closes = (
        parts.sort_values(["ts_last", "id_last"], ascending=False, kind="stable")
        .groupby(["event_type", "day"], sort=False)
        .first()["close_c"]
    )
    folded = (
        parts.groupby(["event_type", "day"], sort=False)
        .agg(
            n_events=("n_events", "sum"),
            sum_c=("sum_c", "sum"),
            low_c=("low_c", "min"),
            high_c=("high_c", "max"),
        )
    )
    folded["open_c"] = opens
    folded["close_c"] = closes
    folded = folded.reset_index()
    return pa.table(
        {
            "event_type": pa.array(folded["event_type"], pa.string()),
            "day": pa.array(folded["day"], pa.string()),
            **{
                c: pa.array(folded[c].to_numpy(np.int64))
                for c in ("n_events", "sum_c", "low_c", "high_c",
                          "open_c", "close_c")
            },
        }
    )


def q_mosaic_blend(sf_dir: str):
    """Raster MOSAIC blending (NEW round 5) — the multi-tile combine
    every tile server runs: all tiles landing in one grid cell blended
    per-pixel by MAX over their 8×8 band-4 windows (nodata decodes to
    the 0 sentinel, so any valid observation wins — the standard
    mosaic nodata rule), then per-cell stats of the blended raster.

    Shape at scale: MAX is associative, so each batch PRE-BLENDS its
    tiles per cell (one vectorized pandas groupby-max over the 64 pixel
    columns + a tile count) — the exchange then moves one 520-B partial
    row per (batch, cell), never one row per tile; a coarse-bucket
    map_groups finishes the blend (the merge_cell_agg pattern: bucket
    count scales with the cluster, not with cell cardinality)."""
    from raycells.geo import cellid
    from raycells.io import tilestore

    WINDOW, WSIZE = (0, 0), (8, 8)
    vcols = [f"v{j}" for j in range(64)]

    def tile_windows(b: pa.Table) -> pa.Table:
        seeds = tilestore.seed_of_refs(b["media_ref"])
        v = tilestore.synth_band_window(seeds, 4, WINDOW, WSIZE, WSIZE).astype(
            np.int64
        )
        lon, lat = tilestore.centroids(seeds)
        df = pd.DataFrame(v, columns=vcols)
        df["grid_cell"] = cellid.grid_cell(lon, lat)
        g = df.groupby("grid_cell", sort=False)
        part = g.max()
        part["n_tiles"] = g.size()
        return shuffle_mod.from_pandas_clean(part.reset_index())

    def combine(g: pa.Table) -> pa.Table:
        df = g.to_pandas()
        gb = df.groupby("grid_cell", sort=False)
        out = gb[vcols].max()
        out["n_tiles"] = gb["n_tiles"].sum()
        blended = out[vcols].to_numpy(np.int64)
        res = pd.DataFrame(
            {
                "grid_cell": out.index.to_numpy(np.int64),
                "n_tiles": out["n_tiles"].to_numpy(np.int64),
                "blend_sum": blended.sum(axis=1),
                "blend_min": blended.min(axis=1),
                "blend_max": blended.max(axis=1),
            }
        )
        return shuffle_mod.from_pandas_clean(res)

    return shuffle_mod.bucket_reduce(
        _exploded(sf_dir).map_batches(tile_windows, batch_format="pyarrow"),
        "grid_cell",
        combine,
    )


def q_ordered_funnel(sf_dir: str):
    """ORDERED conversion funnel (NEW round 5) — the product-analytics
    sequence query funnel_coverage (per-day FULL OUTER counts) cannot
    answer: per user, did a purchase happen strictly AFTER the first
    click, and with what exact lag? Emits one row per user with ≥1
    click: click/purchase counts, converted flag, lag in exact integer
    MICROSECONDS (-1 when never converted).

    Shape at scale: the same single coarse-bucket exchange as the
    window family — hash(user_id) co-locates each user's events, every
    per-user reduction (first click, first qualifying purchase, counts)
    is one vectorized pandas pass per bucket; output is user-sized and
    streams, nothing folds on the driver."""
    ds = _read(
        sf_dir, "events", SMALL_TABLE_BLOCKS,
        columns=["user_id", "event_type", "ts"],
    )

    def project(b: pa.Table) -> pa.Table:
        keep = pc.is_in(
            b["event_type"], value_set=pa.array(["click", "purchase"])
        )
        b = b.filter(keep)
        us = (
            b["ts"].to_numpy(zero_copy_only=False)
            .astype("datetime64[us]")
            .astype(np.int64)
        )
        return pa.table(
            {
                "user_id": pc.cast(b["user_id"], pa.int64()),
                "is_click": pc.equal(b["event_type"], "click"),
                "ts_us": pa.array(us),
            }
        )

    def funnel(g: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "u": g["user_id"].to_numpy(zero_copy_only=False),
                "c": g["is_click"].to_numpy(zero_copy_only=False),
                "t": g["ts_us"].to_numpy(zero_copy_only=False),
            }
        )
        cl = df[df["c"]]
        pu = df[~df["c"]]
        fc = cl.groupby("u", sort=False)["t"].min()
        n_clicks = cl.groupby("u", sort=False).size()
        n_purch = pu.groupby("u", sort=False).size()
        after = pu.merge(fc.rename("fcu"), left_on="u", right_index=True)
        after = after[after["t"] > after["fcu"]]
        cts = after.groupby("u", sort=False)["t"].min()
        out = pd.DataFrame(
            {
                "user_id": fc.index.to_numpy(np.int64),
                "n_clicks": n_clicks.reindex(fc.index).to_numpy(np.int64),
                "n_purchases": n_purch.reindex(fc.index)
                .fillna(0)
                .to_numpy(np.int64),
                "lag_us": (cts.reindex(fc.index) - fc).fillna(-1)
                .to_numpy(np.int64),
            }
        )
        out["converted"] = (out["lag_us"] >= 0).astype(np.int64)
        return shuffle_mod.from_pandas_clean(
            out[["user_id", "n_clicks", "n_purchases", "converted", "lag_us"]]
        )

    return shuffle_mod.bucket_reduce(
        ds.map_batches(project, batch_format="pyarrow"), "user_id", funnel
    )


def q_cusum_daily(sf_dir: str):
    """CUSUM change detection (NEW round 5) — the sequential STATEFUL
    scan family (drift / anomaly monitors) the other operators don't
    exercise: per event_type, the one-sided positive CUSUM of daily
    cent sums against the type's mean. Division-free exact integers:
    working in n-scaled units, dev_n(d) = n·x_c(d) − T and
    S(d) = max(0, S(d−1) + dev_n(d)) — the classic CUSUM recurrence
    with every term an exact int (oracle: recursive CTE).

    Shape at scale: the heavy part (daily cent sums) is the
    events_daily fold — O(blocks × bars) partials, no exchange; the
    inherently sequential recurrence runs on the BAR table (types ×
    days, bounded by the calendar — never by event rows), so the
    driver loop is O(bars)."""
    bars = q_events_daily(sf_dir).to_pandas().rename(columns={"sum_value_c": "x_c"})
    out_rows = {"event_type": [], "day": [], "x_c": [], "dev_n": [], "cusum_n": []}
    for et, sub in bars.groupby("event_type", sort=False):
        x = sub["x_c"].to_numpy(np.int64)
        n, t = len(x), int(x.sum())
        s = 0
        for day, xc in zip(sub["day"], x):  # O(bars), not O(rows)
            dev = int(xc) * n - t
            s = max(0, s + dev)
            out_rows["event_type"].append(et)
            out_rows["day"].append(day)
            out_rows["x_c"].append(int(xc))
            out_rows["dev_n"].append(dev)
            out_rows["cusum_n"].append(s)
    return pa.table(
        {
            "event_type": pa.array(out_rows["event_type"], pa.string()),
            "day": pa.array(out_rows["day"], pa.string()),
            "x_c": pa.array(np.array(out_rows["x_c"], np.int64)),
            "dev_n": pa.array(np.array(out_rows["dev_n"], np.int64)),
            "cusum_n": pa.array(np.array(out_rows["cusum_n"], np.int64)),
        }
    )


def q_value_ntiles(sf_dir: str):
    """Distributed NTILE(4) (NEW round 5) — exact quartile-bucket
    assignment per event under the deterministic (value cents,
    event_id) order, rolled up per (event_type, ntile). The rank
    machinery is the quantiles_price two-pass selection generalized to
    a composite key (value_c·2³¹ + event_id — ids < 2³¹ documented):
    pass 1 folds per-(type, range) histograms (≤ blocks × types × K
    driver rows), the NTILE cut ranks e_i = i·(n//4) + min(i, n%4)
    pick each boundary's range, pass 2 streams ONLY those ranges back
    for the exact boundary element, pass 3 assigns buckets by three
    broadcast comparisons and folds the bounded (type, ntile) rollup.
    No sort exchange anywhere — ranks come from counting."""
    import ray

    ds = _read(
        sf_dir, "events", SMALL_TABLE_BLOCKS,
        columns=["event_id", "event_type", "value"],
    ).materialize()  # three passes share the narrow projection

    def keyed(b: pa.Table):
        x = _half_up(b["value"].to_numpy(zero_copy_only=False) * 100).astype(
            np.int64
        )
        eid = pc.cast(b["event_id"], pa.int64()).to_numpy(zero_copy_only=False)
        return (
            b["event_type"].to_numpy(zero_copy_only=False),
            x,
            (x << np.int64(31)) + eid,
        )

    K = 4096

    out_schema = pa.schema(
        [("event_type", pa.string()),
         *_i64("ntile", "n_rows", "sum_c", "min_c", "max_c")]
    )

    # pass 0: global cent-value span, one fold group (constant key)
    def mmc(b: pa.Table) -> pa.Table:
        _, x, _ = keyed(b)
        return pa.table({"k": np.zeros(len(x), np.int64), "lo": x, "hi": x})

    g0 = shuffle_mod.fold(
        ds.map_batches(mmc, batch_format="pyarrow"), "k",
        pa.schema(_i64("k", "lo", "hi")), ops={"lo": "min", "hi": "max"},
    )
    if not g0.num_rows:
        return out_schema.empty_table()
    lo, hi = g0["lo"][0].as_py(), g0["hi"][0].as_py()
    span = max(hi - lo, 1)

    def bidx(x: np.ndarray) -> np.ndarray:
        return np.clip((x - lo) * K // span, 0, K - 1).astype(np.int64)

    def hist(b: pa.Table) -> pa.Table:
        _, x, _ = keyed(b)
        return pa.table(
            {"event_type": b["event_type"], "bucket": bidx(x),
             "n": np.ones(len(x), np.int64)}
        )

    h = shuffle_mod.fold(
        ds.map_batches(hist, batch_format="pyarrow"),
        ["event_type", "bucket"],
        pa.schema([("event_type", pa.string()), *_i64("bucket", "n")]),
    ).to_pandas()
    # NTILE cut ranks per type; target (type, range) pairs for pass 2
    cuts: dict = {}
    need: set = set()
    for et, sub in h.groupby("event_type", sort=False):
        n = int(sub["n"].sum())
        cum = sub["n"].cumsum().to_numpy()
        bks = sub["bucket"].to_numpy(np.int64)
        for i in (1, 2, 3):
            r = i * (n // 4) + min(i, n % 4)  # 1-based NTILE cut rank
            j = int(np.searchsorted(cum, r))
            cuts.setdefault(et, []).append(
                (int(bks[j]), r - (int(cum[j - 1]) if j else 0))
            )
            need.add((et, int(bks[j])))
    need_ref = ray.put(need)

    def grab(b: pa.Table) -> pa.Table:
        want = ray.get(need_ref)
        et, x, key = keyed(b)
        rng = bidx(x)
        # vectorized membership: |want| ≤ types × 3 (constant), so the
        # loop is over TARGETS, never over rows
        keep = np.zeros(len(et), bool)
        for e, r in want:
            keep |= (et == e) & (rng == r)
        return pa.table(
            {
                "event_type": pa.array(et[keep]),
                "rng": pa.array(rng[keep]),
                "key": pa.array(key[keep]),
            }
        )

    grabbed = ds.map_batches(grab, batch_format="pyarrow").to_pandas()
    bounds: dict = {}
    for et, triples in cuts.items():
        ks = grabbed[grabbed["event_type"] == et]
        arr: dict = {}
        for rng, within in triples:
            sub = np.sort(
                ks[ks["rng"].to_numpy(np.int64) == rng]["key"].to_numpy(np.int64)
            )
            arr[(rng, within)] = int(sub[within - 1])
        bounds[et] = [arr[t] for t in triples]

    def assign(b: pa.Table) -> pa.Table:
        et, x, key = keyed(b)
        nt = np.ones(len(et), np.int64)
        for e, (k1, k2, k3) in bounds.items():
            m = et == e
            nt[m] += (
                (key[m] > k1).astype(np.int64)
                + (key[m] > k2)
                + (key[m] > k3)
            )
        return pa.table(
            {"event_type": b["event_type"], "ntile": nt,
             "n_rows": np.ones(len(x), np.int64), "sum_c": x, "min_c": x,
             "max_c": x}
        )

    return shuffle_mod.fold(
        ds.map_batches(assign, batch_format="pyarrow"),
        ["event_type", "ntile"], out_schema,
        ops={"min_c": "min", "max_c": "max"},
    )


def q_column_profile(sf_dir: str):
    """Table PROFILING (NEW round 5) — the data-quality report every
    ingest runs: per column, non-null/null counts, EXACT distinct
    count, and min/max (as strings, via each engine's identical
    integer/string cast). o_orderdate profiles as its '%Y-%m-%d' day
    string (a raw timestamp cast prints differently across engines).

    Shape at scale: counts and min/max fold as O(blocks × cols) driver
    partials; the distinct count NEVER materializes the value universe
    on the driver — per-batch pre-deduped (col, val) pairs go through
    ONE coarse-bucket exchange (equal values co-locate) and each bucket
    emits per-col partial distinct counts, so driver traffic is
    O(buckets × cols) however many distinct keys exist."""
    COLS = ("o_orderkey", "o_custkey", "o_orderstatus", "o_orderpriority",
            "o_orderdate")
    ds = _read(sf_dir, "orders", SMALL_TABLE_BLOCKS, columns=list(COLS)).materialize()

    INT_COLS = ("o_orderkey", "o_custkey")

    def as_strings(b: pa.Table, cols=COLS) -> dict:
        """String view of ``cols`` only — the stats pass skips the int
        columns' astype('U') (it folds their extrema numerically; only
        the distinct pass needs every column as strings)."""
        out = {}
        for c in cols:
            if c == "o_orderdate":
                out[c] = pc.strftime(b[c], format="%Y-%m-%d").to_numpy(
                    zero_copy_only=False
                )
            elif c in INT_COLS:
                out[c] = b[c].to_numpy(zero_copy_only=False).astype("U")
            else:
                out[c] = b[c].to_numpy(zero_copy_only=False)
        return out

    def stat_partials(b: pa.Table) -> pa.Table:
        # int columns fold their extrema NUMERICALLY (a string fold
        # would rank "10" < "9"); string/date columns fold on the
        # string (binary collation == DuckDB MIN/MAX on ASCII;
        # '%Y-%m-%d' sorts chronologically). None/NaN on the unused
        # side — the pandas fold skips them.
        vals = as_strings(b, [c for c in COLS if c not in INT_COLS])
        rows = {"col": [], "n_nonnull": [], "n_null": [],
                "min_i": [], "max_i": [], "min_s": [], "max_s": []}
        for c in COLS:  # constant column loop, vectorized inside
            nn = int(pc.count(b[c], mode="only_valid").as_py())
            rows["col"].append(c)
            rows["n_nonnull"].append(nn)
            rows["n_null"].append(b.num_rows - nn)
            if c in INT_COLS:
                v = b[c].to_numpy(zero_copy_only=False)
                rows["min_i"].append(int(v.min()) if len(v) else None)
                rows["max_i"].append(int(v.max()) if len(v) else None)
                rows["min_s"].append(None)
                rows["max_s"].append(None)
            else:
                v = vals[c]
                rows["min_i"].append(None)
                rows["max_i"].append(None)
                rows["min_s"].append(str(v.min()) if len(v) else None)
                rows["max_s"].append(str(v.max()) if len(v) else None)
        return pa.table(
            {
                "col": pa.array(rows["col"], pa.string()),
                "n_nonnull": pa.array(rows["n_nonnull"], pa.int64()),
                "n_null": pa.array(rows["n_null"], pa.int64()),
                "min_i": pa.array(rows["min_i"], pa.int64()),
                "max_i": pa.array(rows["max_i"], pa.int64()),
                "min_s": pa.array(rows["min_s"], pa.string()),
                "max_s": pa.array(rows["max_s"], pa.string()),
            }
        )

    stats = shuffle_mod.fold(
        ds.map_batches(stat_partials, batch_format="pyarrow"),
        "col",
        pa.schema(
            [("col", pa.string()), *_i64("n_nonnull", "n_null", "min_i", "max_i"),
             ("min_s", pa.string()), ("max_s", pa.string())]
        ),
        ops={"min_i": "min", "max_i": "max", "min_s": "min", "max_s": "max"},
    ).to_pandas()
    is_int = stats["col"].isin(INT_COLS)
    for c in ("min", "max"):
        stats.loc[is_int, f"{c}_s"] = (
            stats.loc[is_int, f"{c}_i"].astype(np.int64).astype(str)
        )

    def distinct_pairs(b: pa.Table) -> pa.Table:
        vals = as_strings(b)
        cols_out, vals_out = [], []
        for c in COLS:
            u = np.unique(vals[c])
            cols_out.append(np.full(len(u), c, dtype=object))
            vals_out.append(u.astype(object))
        return pa.table(
            {
                "col": pa.array(np.concatenate(cols_out), pa.string()),
                "val": pa.array(np.concatenate(vals_out), pa.string()),
            }
        )

    def bucket_distinct(g: pa.Table) -> pa.Table:
        df = g.select(["col", "val"]).to_pandas().drop_duplicates()
        return pa.table(
            {"col": pa.array(df["col"], pa.string()),
             "nd": np.ones(len(df), np.int64)}
        )

    nd = shuffle_mod.fold(
        shuffle_mod.bucket_reduce(
            ds.map_batches(distinct_pairs, batch_format="pyarrow"),
            "val",
            bucket_distinct,
        ),
        "col",
        pa.schema([("col", pa.string()), *_i64("nd")]),
    )
    stats["n_distinct"] = stats["col"].map(
        dict(zip(nd["col"].to_pylist(), nd["nd"].to_pylist()))
    )
    return pa.table(
        {
            "col": pa.array(stats["col"], pa.string()),
            "n_nonnull": pa.array(stats["n_nonnull"].to_numpy(np.int64)),
            "n_null": pa.array(stats["n_null"].to_numpy(np.int64)),
            "n_distinct": pa.array(stats["n_distinct"].to_numpy(np.int64)),
            "min_s": pa.array(stats["min_s"], pa.string()),
            "max_s": pa.array(stats["max_s"], pa.string()),
        }
    )


def q_fuzzy_token_match(sf_dir: str):
    """FUZZY string matching (NEW round 5) — the entity-cleaning join:
    every typo probe (each vocabulary word with its middle character
    deleted) matched against the corpus vocabulary at Levenshtein
    distance ≤ 1, via the SymSpell DELETION-NEIGHBORHOOD join: each
    side fans out to {word} ∪ {word minus one char}, equal variants
    co-locate in ONE hash exchange, and candidates verify with the
    exact prefix+suffix rule (lev(a,b) ≤ 1 ⟺ |la−lb| ≤ 1 ∧ longest
    common prefix + longest common suffix ≥ max(la,lb) − 1) — fully
    vectorized over fixed-width char matrices, no DP and no all-pairs.

    Shape at scale: three exchanges, all of bounded rows — distinct
    tokens (pre-deduped per batch), (variant, side, word) fan-out
    (≤ len+1 variants per word), and the (probe, word) pair dedup
    (equal pairs hash to one bucket, so bucket-local dedup is global).
    The oracle is DuckDB's own levenshtein() over the cross join — the
    candidate join must reproduce it EXACTLY (recall 1.0)."""
    W = 16  # baseline char-matrix width (fixture max is 8); the verify
    # WIDENS per candidate batch rather than raising on long tokens —
    # the chunk_docs length-cap lesson (VERDICT r4 #1)

    ds = _read(sf_dir, "documents", SMALL_TABLE_BLOCKS, columns=["text"])

    def batch_tokens(b: pa.Table) -> pa.Table:
        _, flat, _ = ta._split(b["text"])
        toks = np.unique(flat.to_numpy(zero_copy_only=False))
        toks = toks[np.char.str_len(toks.astype(str)) > 0]
        return pa.table({"word": pa.array(toks.astype(object), pa.string())})

    def bucket_distinct(g: pa.Table) -> pa.Table:
        u = np.unique(g["word"].to_numpy(zero_copy_only=False))
        return pa.table({"word": pa.array(u.astype(object), pa.string())})

    # materialized (the exchange's result): it feeds BOTH fan-out sides
    vocab = shuffle_mod.bucket_reduce(
        ds.map_batches(batch_tokens, batch_format="pyarrow"), "word", bucket_distinct
    )

    def deletions(words: np.ndarray) -> tuple:
        """All 1-char deletions of each word → (variants, parent_idx).
        The loops run over the DISTINCT vocabulary (already deduped,
        bounded), never over corpus rows."""
        ls = np.char.str_len(words.astype(str))
        outs, idxs = [], []
        for p in range(int(ls.max()) if len(ls) else 0):
            m = ls > p
            w = words[m].astype(str)
            outs.append(
                np.array([x[:p] + x[p + 1:] for x in w], dtype=object)
            )
            idxs.append(np.flatnonzero(m))
        if not outs:
            return np.array([], object), np.array([], np.int64)
        return np.concatenate(outs), np.concatenate(idxs)

    def fan_out(side: int):
        def fn(b: pa.Table) -> pa.Table:
            words = b["word"].to_numpy(zero_copy_only=False)
            if side == 1:  # probe side: middle-deletion typos, len ≥ 2
                ls = np.char.str_len(words.astype(str))
                src = words[ls >= 2]
                words = np.unique(
                    np.array([x[: len(x) // 2] + x[len(x) // 2 + 1:] for x in src],
                             dtype=object)
                )
            dels, parent = deletions(words)
            var = np.concatenate([words.astype(object), dels])
            orig = np.concatenate(
                [words.astype(object), words[parent].astype(object)]
            )
            return pa.table(
                {
                    "variant": pa.array(var, pa.string()),
                    "side": pa.array(np.full(len(var), side, np.int64)),
                    "word": pa.array(orig, pa.string()),
                }
            )

        return fn

    fanned = vocab.map_batches(fan_out(0), batch_format="pyarrow").union(
        vocab.map_batches(fan_out(1), batch_format="pyarrow")
    )

    def candidates(g: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "variant": g["variant"].to_numpy(zero_copy_only=False),
                "side": g["side"].to_numpy(zero_copy_only=False),
                "word": g["word"].to_numpy(zero_copy_only=False),
            }
        ).drop_duplicates()
        pr = df[df["side"] == 1]
        wd = df[df["side"] == 0]
        cand = pr.merge(wd, on="variant")[["word_x", "word_y"]].drop_duplicates()
        if not len(cand):
            return pa.table(
                {"probe": pa.array([], pa.string()),
                 "word": pa.array([], pa.string())}
            )
        wx, wy = cand["word_x"].to_numpy(), cand["word_y"].to_numpy()
        wmax = max(
            int(np.char.str_len(wx.astype(str)).max()),
            int(np.char.str_len(wy.astype(str)).max()),
        )
        ok = ta.lev1_pairs_mask(wx, wy, width=max(W, wmax))
        return pa.table(
            {
                "probe": pa.array(cand["word_x"].to_numpy()[ok], pa.string()),
                "word": pa.array(cand["word_y"].to_numpy()[ok], pa.string()),
            }
        )

    def pair_dedup(g: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "probe": g["probe"].to_numpy(zero_copy_only=False),
                "word": g["word"].to_numpy(zero_copy_only=False),
            }
        ).drop_duplicates()
        df["dist"] = (df["probe"] != df["word"]).astype(np.int64)
        return shuffle_mod.from_pandas_clean(df[["probe", "word", "dist"]])

    cand = shuffle_mod.bucket_reduce(fanned, "variant", candidates)
    return shuffle_mod.bucket_reduce(
        cand.map_batches(
            lambda b: b.append_column(
                "pk", pc.binary_join_element_wise(b["probe"], b["word"], "\x01")
            ),
            batch_format="pyarrow",
        ),
        "pk",
        pair_dedup,
    )


def q_embedding_profile(sf_dir: str):
    """Per-DIMENSION embedding feature statistics (NEW round 5) — the
    drift/monitoring report a feature store runs over an embedding
    column: for every dimension, count, exact quantized sum / min /
    max / sum-of-squares and the positive-component count. Components
    quantize at 2⁻²⁰ (the shared exact recipe, text/dedup.py — CAST
    REAL→DOUBLE is exact and both engines floor the identical double),
    so every statistic is an exact integer.

    Shape at scale: purely map-side — each batch reduces to ONE row
    per dimension (vectorized column reductions on the (rows, dim)
    matrix), the driver folds O(blocks × dims) partials; no exchange.
    int64 bound: Σv² ≤ rows·2⁴⁰ holds to ~8×10⁶ rows per fold — beyond
    that, fold in Python bigints (the value_outliers pattern)."""
    ds = _read(sf_dir, "embeddings", SMALL_TABLE_BLOCKS, columns=["embedding"])

    def parts(b: pa.Table) -> pa.Table:
        col = b["embedding"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False)
        if b.num_rows == 0:
            dims = np.array([], np.int64)
            m = np.zeros((0, 0), np.int64)
        else:
            dim = len(flat) // b.num_rows
            m = dd.quantize_embeddings(flat.reshape(b.num_rows, dim))
            dims = np.arange(dim, dtype=np.int64)
        return pa.table(
            {
                "dim": pa.array(dims),
                "n": pa.array(np.full(len(dims), m.shape[0], np.int64)),
                "sum_q": pa.array(m.sum(axis=0).astype(np.int64)),
                "min_q": pa.array(
                    m.min(axis=0).astype(np.int64)
                    if m.shape[0] else np.array([], np.int64)
                ),
                "max_q": pa.array(
                    m.max(axis=0).astype(np.int64)
                    if m.shape[0] else np.array([], np.int64)
                ),
                "n_pos": pa.array((m > 0).sum(axis=0).astype(np.int64)),
                "sum_q2": pa.array((m * m).sum(axis=0).astype(np.int64)),
            }
        )

    return shuffle_mod.fold(
        ds.map_batches(parts, batch_format="pyarrow"),
        "dim",
        pa.schema(_i64("dim", "n", "sum_q", "min_q", "max_q", "n_pos", "sum_q2")),
        ops={"min_q": "min", "max_q": "max"},
    )


def q_bpe_merges(sf_dir: str, k: int = 8):
    """BPE tokenizer TRAINING (NEW round 5) — the byte-pair-encoding
    merge loop every LLM tokenizer starts from: ``k`` merge steps over
    the corpus word-frequency table. Each step counts adjacent symbol
    pairs weighted by word frequency (positional pairs — overlaps
    count), picks the (count DESC, pair ASC) argmax, and rewrites every
    word by greedy left-to-right non-overlapping replacement (Python
    ``str.replace`` ≡ DuckDB ``replace`` — the same greedy scan, which
    is exactly what makes the two engines agree on 'a a a').

    Shape at scale: this is how real BPE trainers run — the corpus
    pass is ONE distributed word-count aggregate (per-batch np.unique
    partials, one driver fold); the merge loop then iterates on
    the VOCABULARY-sized (word, freq) table, never on corpus rows
    (driver-held here; at open-web vocab scale each count step is one
    more tiny exchange over the same table). Oracle: k unrolled
    count→argmax→replace CTE steps."""
    ds = _read(sf_dir, "documents", SMALL_TABLE_BLOCKS, columns=["text"])

    def word_counts(b: pa.Table) -> pa.Table:
        _, flat, _ = ta._split(b["text"])
        toks = flat.to_numpy(zero_copy_only=False)
        toks = toks[np.char.str_len(toks.astype(str)) > 0]
        vals, n = np.unique(toks, return_counts=True)
        return pa.table(
            {"word": pa.array(vals.astype(object), pa.string()),
             "n": pa.array(n.astype(np.int64))}
        )

    wf = shuffle_mod.fold(
        ds.map_batches(word_counts, batch_format="pyarrow"),
        "word",
        pa.schema([("word", pa.string()), ("n", pa.int64())]),
    ).to_pandas()
    # Symbol sequences encoded as '\x02sym ' units: the \x02 start
    # marker anchors every merge-pattern match to a symbol BOUNDARY —
    # a plain space-separated form would false-match a pair (a, b)
    # against a symbol merely ENDING in 'a' (e.g. 'xa b' ⊃ 'a b'); and
    # each unit carrying its OWN trailing space lets the greedy
    # non-overlapping replace take adjacent merges ('a b a b' → both).
    def encode(word: str) -> str:
        return "".join(f"\x02{c} " for c in word)

    seqs = {encode(w): int(n) for w, n in zip(wf["word"], wf["n"])}

    out = {"step": [], "pair": [], "merged": [], "n": []}
    for step in range(1, k + 1):  # k merge steps over the VOCAB table
        counts: dict = {}
        for seq, n in seqs.items():
            syms = [u[:-1] for u in seq.split("\x02")[1:]]
            for a, b in zip(syms, syms[1:]):  # positional pairs
                counts[(a, b)] = counts.get((a, b), 0) + n
        if not counts:
            break
        best_n = max(counts.values())
        a, b = min(p for p, n in counts.items() if n == best_n)
        out["step"].append(step)
        out["pair"].append(f"{a} {b}")
        out["merged"].append(a + b)
        out["n"].append(best_n)
        # distinct words stay distinct under merging (the concatenated
        # content is invariant), so the dict comprehension is lossless
        seqs = {
            seq.replace(f"\x02{a} \x02{b} ", f"\x02{a}{b} "): n
            for seq, n in seqs.items()
        }
    return pa.table(
        {
            "step": pa.array(np.array(out["step"], np.int64)),
            "pair": pa.array(out["pair"], pa.string()),
            "merged": pa.array(out["merged"], pa.string()),
            "n": pa.array(np.array(out["n"], np.int64)),
        }
    )


def q_event_transitions(sf_dir: str):
    """Markov TRANSITION matrix mining (NEW round 5) — the user-journey
    analysis: counts of consecutive (prev event_type → next event_type)
    steps within each user's timeline under the deterministic
    (ts, event_id) order, plus each pair's share of its source state's
    outgoing edges in exact parts-per-million (n·10⁶ // out_total).

    Shape at scale: the user_gaps window shape — ONE coarse-bucket
    exchange on hash(user_id) co-locates each user's events; per bucket
    one vectorized lexsort + shifted comparison yields every
    transition, collapsed to ≤ types² partial rows per bucket; the
    driver folds the types²-bounded matrix (never row-scale)."""
    ds = _read(
        sf_dir, "events", SMALL_TABLE_BLOCKS,
        columns=["event_id", "user_id", "event_type", "ts"],
    )

    def project(b: pa.Table) -> pa.Table:
        us = (
            b["ts"].to_numpy(zero_copy_only=False)
            .astype("datetime64[us]")
            .astype(np.int64)
        )
        return pa.table(
            {
                "user_id": pc.cast(b["user_id"], pa.int64()),
                "event_id": pc.cast(b["event_id"], pa.int64()),
                "event_type": b["event_type"],
                "ts_us": pa.array(us),
            }
        )

    def transitions(g: pa.Table) -> pa.Table:
        u = g["user_id"].to_numpy(zero_copy_only=False)
        e = g["event_id"].to_numpy(zero_copy_only=False)
        t = g["ts_us"].to_numpy(zero_copy_only=False)
        et = g["event_type"].to_numpy(zero_copy_only=False)
        order = np.lexsort((e, t, u))
        u, et = u[order], et[order]
        same = u[1:] == u[:-1]
        df = pd.DataFrame(
            {"prev_type": et[:-1][same], "next_type": et[1:][same]}
        )
        part = (
            df.groupby(["prev_type", "next_type"], sort=False)
            .size()
            .reset_index(name="n")
        )
        part["n"] = part["n"].astype(np.int64)
        return shuffle_mod.from_pandas_clean(part)

    parts = shuffle_mod.bucket_reduce(
        ds.map_batches(project, batch_format="pyarrow"), "user_id", transitions
    ).to_pandas()
    out = (
        parts.groupby(["prev_type", "next_type"], sort=False, as_index=False)["n"]
        .sum()
    )
    out_tot = out.groupby("prev_type")["n"].transform("sum")
    out["share_ppm"] = (
        out["n"].to_numpy(np.int64) * np.int64(1_000_000)
    ) // out_tot.to_numpy(np.int64)
    return pa.table(
        {
            "prev_type": pa.array(out["prev_type"], pa.string()),
            "next_type": pa.array(out["next_type"], pa.string()),
            "n": pa.array(out["n"].to_numpy(np.int64)),
            "share_ppm": pa.array(out["share_ppm"].to_numpy(np.int64)),
        }
    )


def q_join_size_estimate(sf_dir: str):
    """JOIN-SIZE ESTIMATION via count-min sketch inner products (NEW
    round 5) — the query-planning primitive: |events ⋈ orders| on
    (user_id = o_custkey) estimated as min over sketch rows r of
    ⟨cmsA[r], cmsB[r]⟩, paired with the EXACT size so the gate pins
    both the estimator arithmetic and the est ≥ true upper-bound law
    (w = 16 keeps every row in the collision regime). One output row
    per sketch row: (r, dot, true_n, upper_ok).

    Shape at scale: each side folds into ONE (4, w) counter matrix
    (per-batch blobs, single-task merge — keys never move; the
    cms_heavy_hitters shape); the exact size co-partitions the two
    per-key count aggregates through hash_join and folds the bounded
    product stream. int64 bound: dot ≤ |A|·|B| — beyond ~3×10⁹ rows a
    side, fold the dots in Python bigints (SQL side already sums in
    HUGEINT)."""
    import ray

    from raycells.engine.joins import hash_join
    from raycells.sim.sketch import CMS_D, cms_build

    W = 16
    # each side feeds BOTH the sketch pass and the exact count pass
    ev = _read(sf_dir, "events", SMALL_TABLE_BLOCKS, columns=["user_id"]).materialize()
    od = _read(sf_dir, "orders", SMALL_TABLE_BLOCKS, columns=["o_custkey"]).materialize()

    ca = cms_build(
        ev,
        lambda b: b["user_id"].to_numpy(zero_copy_only=False).astype(np.uint64),
        w=W,
    )
    cb = cms_build(
        od,
        lambda b: b["o_custkey"].to_numpy(zero_copy_only=False).astype(np.uint64),
        w=W,
    )
    A, B = ray.get(ca), ray.get(cb)
    dots = (A * B).sum(axis=1).astype(np.int64)

    def counts(ds, col, alias):
        return shuffle_mod.aggregate(
            ds.map_batches(
                lambda b: pa.table({"k": pc.cast(b[col], pa.int64()),
                                    alias: np.ones(b.num_rows, np.int64)}),
                batch_format="pyarrow",
            ),
            "k", pa.schema(_i64("k", alias)), salt=1,
        )

    na = counts(ev, "user_id", "n_a")
    nb = counts(od, "o_custkey", "n_b")
    joined = hash_join(
        na, nb, key_left="k", key_right="k",
        keep_left=["n_a"], keep_right=["n_b"],
    )
    def prod_partial(b: pa.Table) -> pa.Table:
        # map-side fold: ONE partial row per batch reaches the driver,
        # not one row per join key (key cardinality is unbounded)
        p = (
            b["n_a"].to_numpy(zero_copy_only=False)
            * b["n_b"].to_numpy(zero_copy_only=False)
        ).astype(np.int64)
        return pa.table({"p": pa.array([int(p.sum())], pa.int64())})

    prods = joined.map_batches(prod_partial, batch_format="pyarrow").to_pandas()
    true_n = int(prods["p"].sum())
    return pa.table(
        {
            "r": pa.array(np.arange(CMS_D, dtype=np.int64)),
            "dot": pa.array(dots),
            "true_n": pa.array(np.full(CMS_D, true_n, np.int64)),
            "upper_ok": pa.array((dots >= true_n).astype(np.int64)),
        }
    )


def q_ann_recall_eval(sf_dir: str):
    """ANN quality EVALUATION (NEW round 5) — recall@10 of the sign-LSH
    index against exact brute force, the metric every ANN deployment
    tracks: per query, |approx top-10 ∩ exact top-10| and its exact e6
    fraction. Composes the two existing distributed retrieval
    pipelines; the overlap join runs on their (queries × k)-sized
    results — driver traffic is bounded by the k-row lists, never the
    corpus. The oracle splices both pinned SQL chains as subqueries,
    so the eval inherits their determinism."""
    ann = q_ann_lsh(sf_dir).to_pandas()
    ex = q_knn_embeddings(sf_dir).to_pandas()
    hits = (
        ann.merge(ex, on=["query_id", "vec_id"])
        .groupby("query_id")
        .size()
    )
    qids = np.sort(ex["query_id"].unique())
    n_hit = hits.reindex(qids).fillna(0).to_numpy(np.int64)
    return pa.table(
        {
            "query_id": pa.array(qids.astype(np.int64)),
            "n_hit": pa.array(n_hit),
            "k": pa.array(np.full(len(qids), 10, np.int64)),
            "recall_e6": pa.array(n_hit * np.int64(1_000_000) // np.int64(10)),
        }
    )


def q_cell_value_hist(sf_dir: str):
    """Per-cell VALUE-DISTRIBUTION histogram (NEW round 5) — the
    map-algebra layer the min/max/sum zonal family can't answer
    (classing, contrast maps, anomaly screens): every grid cell's
    8-bin histogram of band-4 values over the member tiles' 8×8
    windows, nodata (the 0 sentinel) counted separately. Bin = exact
    integer ((v − 1)·8) // 65520 over the value domain 1..65520 —
    identical floor both engines.

    Shape at scale: per batch one vectorized bincount collapses each
    tile's 64 pixels into 9 int64 columns, pre-aggregated per cell
    (histogram addition is associative — the mosaic_blend pattern), so
    the exchange moves one 80-B partial row per (batch, cell); a
    coarse-bucket map_groups finishes the sums."""
    from raycells.geo import cellid
    from raycells.io import tilestore

    WINDOW, WSIZE = (0, 0), (8, 8)
    hcols = [f"h{j}" for j in range(8)]

    def tile_hists(b: pa.Table) -> pa.Table:
        seeds = tilestore.seed_of_refs(b["media_ref"])
        v = tilestore.synth_band_window(seeds, 4, WINDOW, WSIZE, WSIZE).astype(
            np.int64
        )
        nod = (v == 0).sum(axis=1).astype(np.int64)
        bins = np.clip((v - 1) * 8 // 65520, 0, 7)
        bins[v == 0] = 8  # park nodata in a 9th slot, dropped below
        counts = np.stack(
            [(bins == j).sum(axis=1).astype(np.int64) for j in range(8)],
            axis=1,
        )
        lon, lat = tilestore.centroids(seeds)
        df = pd.DataFrame(counts, columns=hcols)
        df["n_nodata"] = nod
        df["grid_cell"] = cellid.grid_cell(lon, lat)
        g = df.groupby("grid_cell", sort=False)
        part = g.sum()
        part["n_tiles"] = g.size()
        return shuffle_mod.from_pandas_clean(part.reset_index())

    def combine(g: pa.Table) -> pa.Table:
        df = g.to_pandas()
        out = (
            df.groupby("grid_cell", sort=False)[hcols + ["n_nodata", "n_tiles"]]
            .sum()
            .reset_index()
        )
        return shuffle_mod.from_pandas_clean(out)

    return shuffle_mod.bucket_reduce(
        _exploded(sf_dir).map_batches(tile_hists, batch_format="pyarrow"),
        "grid_cell",
        combine,
    )


def q_log_compaction(sf_dir: str):
    """LOG COMPACTION / CDC upsert snapshot (NEW round 5) — the
    latest-record-per-key reduction every change-capture pipeline runs
    (Kafka compacted topics, Iceberg upserts): treating events as a
    change log keyed by user_id, emit each user's LATEST record under
    the deterministic (ts, event_id) order — its type, exact cent
    value, timestamp (µs) and the user's change count.

    Shape at scale: latest-per-key is an associative argmax, but the
    snapshot is KEY-cardinality-sized, so it must stream — ONE
    hash(user) coarse-bucket exchange co-locates each key's changes
    and a per-bucket vectorized lexsort takes the last row per key;
    output flows out of the buckets without touching the driver."""
    ds = _read(
        sf_dir, "events", SMALL_TABLE_BLOCKS,
        columns=["event_id", "user_id", "event_type", "ts", "value"],
    )

    def project(b: pa.Table) -> pa.Table:
        us = (
            b["ts"].to_numpy(zero_copy_only=False)
            .astype("datetime64[us]")
            .astype(np.int64)
        )
        return pa.table(
            {
                "user_id": pc.cast(b["user_id"], pa.int64()),
                "event_id": pc.cast(b["event_id"], pa.int64()),
                "event_type": b["event_type"],
                "ts_us": pa.array(us),
                "value_c": pa.array(
                    _half_up(
                        b["value"].to_numpy(zero_copy_only=False) * 100
                    ).astype(np.int64)
                ),
            }
        )

    def compact(g: pa.Table) -> pa.Table:
        u = g["user_id"].to_numpy(zero_copy_only=False)
        e = g["event_id"].to_numpy(zero_copy_only=False)
        t = g["ts_us"].to_numpy(zero_copy_only=False)
        order = np.lexsort((e, t, u))  # (user, ts, event_id) ascending
        u_s = u[order]
        last = np.flatnonzero(
            np.concatenate([u_s[1:] != u_s[:-1], [True]])
        )  # last row of each user run == its latest change
        counts = np.diff(np.concatenate([[0], last + 1])).astype(np.int64)
        pick = order[last]
        return pa.table(
            {
                "user_id": pa.array(u[pick]),
                "event_type": pa.array(
                    g["event_type"].to_numpy(zero_copy_only=False)[pick],
                    pa.string(),
                ),
                "ts_us": pa.array(t[pick]),
                "value_c": pa.array(
                    g["value_c"].to_numpy(zero_copy_only=False)[pick]
                ),
                "n_changes": pa.array(counts),
            }
        )

    return shuffle_mod.bucket_reduce(
        ds.map_batches(project, batch_format="pyarrow"), "user_id", compact
    )


def q_gap_fill(sf_dir: str):
    """Calendar GAP-FILL densification (NEW round 5) — the sparse→dense
    reshape every reporting/feature pipeline needs before windowed
    models: the per-(event_type, day) rollup re-emitted over the FULL
    dense calendar (global min..max day) × type grid, zero-filled where
    no events landed, with a per-row had_events flag.

    Shape at scale: the rollup is the events_daily fold (O(blocks ×
    bars) partials, no exchange); the dense grid is bounded by the
    CALENDAR × types — never by event rows — so the driver-side
    densification is O(days × types) however big the corpus. Day
    strings compare lexicographically == chronologically."""
    import datetime as _dt

    bars = q_events_daily(sf_dir).to_pandas().rename(columns={"sum_value_c": "sum_c"})
    d0 = _dt.date.fromisoformat(bars["day"].min())
    d1 = _dt.date.fromisoformat(bars["day"].max())
    days = [
        (d0 + _dt.timedelta(days=i)).isoformat()
        for i in range((d1 - d0).days + 1)
    ]
    types = sorted(bars["event_type"].unique())
    dense = pd.MultiIndex.from_product(
        [types, days], names=["event_type", "day"]
    ).to_frame(index=False)
    out = dense.merge(bars, on=["event_type", "day"], how="left")
    n = out["n_events"].fillna(0).to_numpy(np.int64)
    return pa.table(
        {
            "event_type": pa.array(out["event_type"], pa.string()),
            "day": pa.array(out["day"], pa.string()),
            "n_events": pa.array(n),
            "sum_c": pa.array(out["sum_c"].fillna(0).to_numpy(np.int64)),
            "had_events": pa.array((n > 0).astype(np.int64)),
        }
    )


def q_morans_i(sf_dir: str):
    """Global MORAN'S I spatial autocorrelation (NEW round 5) — the
    canonical geostatistics test ("are dense regions next to dense
    regions?") every spatial analytics stack ships: queen-contiguity
    Moran's I of tile density over the 4°-supercell rollup of the cell
    grid (gx>>4, gy>>4 of the 0.25° cells).

    Shape at scale: stage 1 is the distributed per-cell salted
    aggregate (the cell_agg_band exchange); the supercell rollup is a
    map-side partial fold whose output is bounded by the SUPERCELL grid
    (≤ 90×45 per band of longitude — never by tiles), so the driver-side
    neighbor-pair sum is O(supercells), not O(data). Exactness: with
    integer density x_i, deviations are kept integral by scaling
    through n (d_i = n·x_i − Σx), so num = Σ_pairs d_i·d_j and
    den = Σ d_i² are EXACT int64 (|num| ≤ 8·den by Cauchy-Schwarz over
    the ≤8-neighbor queen stencil; den bounded far below 2^63 at any
    plausible supercell skew — guarded). The float Moran value is ONE
    identical IEEE expression tree both sides."""
    base = _cell_base_agg(sf_dir)

    def sup(b: pa.Table) -> pa.Table:
        from raycells.geo import cellid

        gc = b["grid_cell"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "sgx": (gc % cellid.GRID_NX) >> 4,
                "sgy": (gc // cellid.GRID_NX) >> 4,
                "x": b["n_tiles"],
            }
        )

    cells = shuffle_mod.fold(
        base.map_batches(sup, batch_format="pyarrow"),
        ["sgx", "sgy"],
        pa.schema(_i64("sgx", "sgy", "x")),
    )
    sgx, sgy, x = (cells[c].to_numpy() for c in ("sgx", "sgy", "x"))
    n = x.size
    S = int(x.sum())
    d = n * x - S  # integer deviations scaled by n
    # queen 8-neighbor pairs via sorted-key searchsorted (vectorized)
    key = sgy * np.int64(1 << 20) + sgx
    order = np.argsort(key, kind="stable")
    skey = key[order]
    num = 0
    s0 = 0
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if dx == 0 and dy == 0:
                continue
            nk = (sgy + dy) * np.int64(1 << 20) + (sgx + dx)
            pos = np.searchsorted(skey, nk)
            pos_c = np.minimum(pos, skey.size - 1)
            hit = skey[pos_c] == nk
            ii = np.nonzero(hit)[0]
            jj = order[pos_c[ii]]
            s0 += int(ii.size)
            # Python-int accumulation: products can reach ~2^52+ but the
            # SUM must stay exact even past float precision
            num += int(np.sum(d[ii].astype(object) * d[jj].astype(object)))
    den = int(np.sum(d.astype(object) * d.astype(object)))
    if abs(num) >= 2**63 or den >= 2**63:  # pragma: no cover - sizing guard
        raise OverflowError("morans_i deviations exceed int64; coarsen the grid")
    moran = (
        0.0
        if den == 0 or s0 == 0
        else (float(n) * float(num)) / (float(s0) * float(den))
    )
    return pa.table(
        {
            "n_super": pa.array([n], pa.int64()),
            "s0": pa.array([s0], pa.int64()),
            "num": pa.array([num], pa.int64()),
            "den": pa.array([den], pa.int64()),
            "moran": pa.array([moran], pa.float64()),
        }
    )


def q_hexbin_density(sf_dir: str):
    """HEXAGONAL spatial binning (NEW round 5) — the H3-style hex
    density surface every geo-visual/analytics stack wants: tile
    centroids binned to the nearest center of a honeycomb lattice (two
    offset rectangular lattices, W=300 × H=200 milli-degrees — the
    centered-rectangular lattice whose Voronoi cells ARE hexagons),
    with per-hex counts and exact integer position sums.

    Exactness: coordinates are the tilestore's e3 integers shifted
    non-negative, the nearest-center rule is pure integer floor
    division + squared-distance compare (ties → the axis-aligned
    lattice), so every output column is int64 and hashes cross-engine.

    Shape at scale: per-point hex assignment is map-side arithmetic;
    the only exchange is the salted two-stage aggregate on the hex key
    (hot city hexes pre-split by the doc-hash salt), so rows moved =
    O(blocks × occupied hexes), never points."""
    from raycells.io import tilestore

    W, H = 300, 200

    def assign(b: pa.Table) -> pa.Table:
        seeds = tilestore.seed_of_refs(b["media_ref"])
        xe, ye = tilestore.centroids_e3(seeds)
        x, y = xe + 180000, ye + 90000  # non-negative: floor == trunc
        ia, ja = (x + W // 2) // W, (y + H // 2) // H
        ib, jb = x // W, y // H
        dxa, dya = x - W * ia, y - H * ja
        dxb, dyb = x - (W * ib + W // 2), y - (H * jb + H // 2)
        use_a = dxa * dxa + dya * dya <= dxb * dxb + dyb * dyb
        tag = np.where(use_a, 0, 1).astype(np.int64)
        hi = np.where(use_a, ia, ib)
        hj = np.where(use_a, ja, jb)
        hexkey = (tag << 40) + (hi << 20) + hj
        return pa.table(
            {
                "hexkey": pa.array(hexkey),
                "n_points": np.ones(b.num_rows, np.int64),
                "sum_x": pa.array(x),
                "sum_y": pa.array(y),
                "doc_id": b["doc_id"],
            }
        )

    agg = shuffle_mod.aggregate(
        _exploded(sf_dir).map_batches(assign, batch_format="pyarrow"),
        "hexkey",
        pa.schema(_i64("hexkey", "n_points", "sum_x", "sum_y")),
    )

    def finalize(b: pa.Table) -> pa.Table:
        hexkey = b["hexkey"].to_numpy(zero_copy_only=False)
        n = b["n_points"].to_numpy(zero_copy_only=False)
        tag = hexkey >> 40
        hi = (hexkey >> 20) & ((1 << 20) - 1)
        hj = hexkey & ((1 << 20) - 1)
        return pa.table(
            {
                "tag": pa.array(tag),
                "hi": pa.array(hi),
                "hj": pa.array(hj),
                "cx_e3": pa.array(W * hi + tag * (W // 2) - 180000),
                "cy_e3": pa.array(H * hj + tag * (H // 2) - 90000),
                "n_points": pa.array(n),
                "sum_x_e3": pa.array(
                    b["sum_x"].to_numpy(zero_copy_only=False) - n * 180000
                ),
                "sum_y_e3": pa.array(
                    b["sum_y"].to_numpy(zero_copy_only=False) - n * 90000
                ),
            }
        )

    return agg.map_batches(finalize, batch_format="pyarrow")


def q_copurchase_pairs(sf_dir: str):
    """Frequent CO-PURCHASE pair mining (NEW round 5) — the
    market-basket primitive (recommendation candidates, association
    rules): part pairs ordered together in ≥ 2 distinct orders.

    Shape at scale: exchange 1 co-locates the (order, part) rows by a
    coarse ORDER bucket (baskets are small — TPC-H orders hold ≤ 7
    lines — so per-bucket pair expansion is bounded by Σ k²/2, never a
    cross product); pair generation is a k_max-pass VECTORIZED
    diagonal-offset scan over the bucket-sorted array (no per-order
    Python loop); exchange 2 moves only per-bucket PARTIAL pair counts
    through ``shuffle.aggregate``, so bytes shuffled are O(buckets ×
    distinct pairs), and the HAVING ≥ 2 filter runs post-merge."""
    agg = _copurchase_pairkeys(sf_dir)

    def finalize(b: pa.Table) -> pa.Table:
        n = b["n"].to_numpy(zero_copy_only=False)
        keep = n >= 2
        k = b["pairkey"].to_numpy(zero_copy_only=False)[keep]
        return pa.table(
            {
                "p1": pa.array(k >> np.int64(32)),
                "p2": pa.array(k & np.int64((1 << 32) - 1)),
                "n_orders": pa.array(n[keep]),
            }
        )

    return agg.map_batches(finalize, batch_format="pyarrow")


def _copurchase_pairkeys(sf_dir: str):
    """DISTINCT co-purchase pairkey Dataset (the undirected edge set,
    with each pair's order count ``n``) — the shared base of
    copurchase_pairs, top_copurchases, pagerank_parts and
    triangle_count. Exchange 1 co-locates (order, part) rows by a
    coarse ORDER bucket and emits per-bucket partial pair counts; pair
    generation is a k_max-pass vectorized diagonal-offset scan over the
    bucket-sorted array (baskets hold ≤ 7 lines, so the expansion is
    bounded by Σ k²/2 — no per-order Python loop anywhere). The read
    width is pinned (CLAUDE.md — all-to-alls pay per-block fixed cost,
    so more input blocks make the exchange slower, not faster)."""
    ds = _read(
        sf_dir, "lineitem", SMALL_TABLE_BLOCKS,
        columns=["l_orderkey", "l_partkey"],
    )

    def pairs(g: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "o": g["l_orderkey"].to_numpy(zero_copy_only=False),
                "p": g["l_partkey"].to_numpy(zero_copy_only=False),
            }
        ).drop_duplicates().sort_values(["o", "p"], kind="stable")
        o = df["o"].to_numpy(np.int64)
        p = df["p"].to_numpy(np.int64)
        outs = []
        d = 1
        while True:
            same = o[:-d] == o[d:] if d < o.size else np.zeros(0, bool)
            if not same.any():
                break
            outs.append((p[:-d][same], p[d:][same]))
            d += 1
        if not outs:
            return pa.table(
                {"pairkey": pa.array([], pa.int64()), "n": pa.array([], pa.int64())}
            )
        p1 = np.concatenate([a for a, _ in outs])
        p2 = np.concatenate([b for _, b in outs])
        part = (
            pd.DataFrame({"pairkey": (p1 << np.int64(32)) + p2})
            .groupby("pairkey", sort=False)
            .size()
            .reset_index(name="n")
        )
        part["n"] = part["n"].astype(np.int64)
        return shuffle_mod.from_pandas_clean(part)

    # exchange 2: the partial counts summed per pair
    return shuffle_mod.aggregate(
        shuffle_mod.bucket_reduce(ds, "l_orderkey", pairs),
        "pairkey", pa.schema(_i64("pairkey", "n")),
    )


def q_pagerank_parts(sf_dir: str):
    """Integer PAGERANK over the co-purchase graph (NEW round 5) — the
    canonical iterative graph-analytics operator (influence/centrality
    over an item graph): 5 damped power iterations, d = 0.85, over the
    undirected distinct co-purchase edge set, in EXACT integer
    arithmetic (rank scale 10^12; per-neighbor contribution is
    rank // deg, damping is (85·Σ) // 100 — floor division of
    non-negative ints, identical both engines) so ranks hash
    cross-engine with no float accumulation anywhere.

    Shape at scale: the edge set is built by the shared bucketed pair
    expansion + one salted dedup aggregate, then MATERIALIZED once;
    each iteration is a single map pass over the edge blocks — the
    node-sized (id, contrib) vector rides the task closure (nodes ≤
    part-table size, never edge- or lineitem-sized), per-batch partial
    destination sums come back as (node, part_sum) rows, and the driver
    folds O(blocks × nodes) partials. No per-iteration exchange at all.
    int64 bound: 85 · Σ contrib ≤ 85 · n_nodes · max_rank — guarded;
    coarsen SCALE before n_nodes · 10^12 nears 2^63."""
    SCALE = 10**12
    BASE = 15 * SCALE // 100

    dedup = _copurchase_pairkeys(sf_dir)

    def both_dirs(b: pa.Table) -> pa.Table:
        k = b["pairkey"].to_numpy(zero_copy_only=False)
        p1, p2 = k >> np.int64(32), k & np.int64((1 << 32) - 1)
        return pa.table(
            {
                "s": pa.array(np.concatenate([p1, p2])),
                "d": pa.array(np.concatenate([p2, p1])),
            }
        )

    edges = dedup.map_batches(both_dirs, batch_format="pyarrow").materialize()

    degs = shuffle_mod.fold(
        edges.map_batches(
            lambda b: pa.table({"s": b["s"], "n": np.ones(b.num_rows, np.int64)}),
            batch_format="pyarrow",
        ),
        "s",
        pa.schema(_i64("s", "n")),
    )
    nodes = degs["s"].to_numpy()
    deg = degs["n"].to_numpy()
    rank = np.full(nodes.size, SCALE, np.int64)
    if nodes.size and 85 * nodes.size * SCALE >= 2**62:  # pragma: no cover
        raise OverflowError("pagerank_parts: shrink SCALE for this node count")

    for _ in range(5):
        contrib = rank // deg

        def pass_t(b: pa.Table, nd=nodes, co=contrib) -> pa.Table:
            s = b["s"].to_numpy(zero_copy_only=False)
            dcol = b["d"].to_numpy(zero_copy_only=False)
            i_s = np.searchsorted(nd, s)
            i_d = np.searchsorted(nd, dcol)
            acc = np.zeros(nd.size, np.int64)
            np.add.at(acc, i_d, co[i_s])
            nz = np.nonzero(acc)[0]
            return pa.table(
                {"node": pa.array(nd[nz]), "part": pa.array(acc[nz])}
            )

        inc = shuffle_mod.fold(
            edges.map_batches(pass_t, batch_format="pyarrow"),
            "node",
            pa.schema(_i64("node", "part")),
        )
        incoming = np.zeros(nodes.size, np.int64)
        incoming[np.searchsorted(nodes, inc["node"].to_numpy())] = inc["part"].to_numpy()
        rank = BASE + (85 * incoming) // 100

    return pa.table(
        {
            "p_partkey": pa.array(nodes),
            "rank": pa.array(rank),
            "deg": pa.array(deg),
        }
    )


def q_pareto_front(sf_dir: str):
    """SKYLINE / Pareto-front selection (NEW round 5) — the
    multi-objective curation primitive (pick items no other item beats
    on ALL criteria: cheaper-and-bigger here, higher-quality-and-shorter
    in a data-curation pass): parts not dominated on (minimize
    retail-price cents, maximize size). Ties on both axes co-survive.

    Shape at scale: the skyline operator is embarrassingly mergeable —
    each block computes its LOCAL skyline with a vectorized sorted
    cummax scan (skyline(union) ⊆ union(skylines), standard BNL
    property), the driver unions only the tiny per-block fronts and
    re-runs the same scan; no exchange, no all-pairs dominance test
    anywhere. Price is exact integer cents (_half_up both sides)."""
    ds = _read(
        sf_dir, "part", SMALL_TABLE_BLOCKS,
        columns=["p_partkey", "p_retailprice", "p_size"],
    )

    def skyline(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["price_c", "p_size"], ascending=[True, False], kind="stable"
        )
        price = df["price_c"].to_numpy(np.int64)
        size = df["p_size"].to_numpy(np.int64)
        # per-price max size (first row of each price after the sort)
        new_p = np.ones(price.size, bool)
        new_p[1:] = price[1:] != price[:-1]
        lvl = np.cumsum(new_p) - 1
        m = size[new_p]  # max size at each price level
        running = np.maximum.accumulate(m)
        prev = np.empty_like(running)
        prev[0] = np.iinfo(np.int64).min
        prev[1:] = running[:-1]
        lvl_live = m > prev
        keep = lvl_live[lvl] & (size == m[lvl])
        return df[keep]

    def local(b: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "p_partkey": b["p_partkey"].to_numpy(zero_copy_only=False),
                "price_c": _half_up(
                    b["p_retailprice"].to_numpy(zero_copy_only=False) * 100
                ).astype(np.int64),
                "p_size": b["p_size"].to_numpy(zero_copy_only=False).astype(
                    np.int64
                ),
            }
        )
        return shuffle_mod.from_pandas_clean(skyline(df))

    fronts = ds.map_batches(local, batch_format="pyarrow").to_pandas()
    return shuffle_mod.from_pandas_clean(
        skyline(fronts)[["p_partkey", "price_c", "p_size"]]
    )


def _type_day_counts(sf_dir: str) -> pd.DataFrame:
    """Events per (event_type, epoch day) as ``y``, sorted by both: the
    day-bar driver fold the trend and type-correlation queries read."""
    ds = _read(
        sf_dir, "events", SMALL_TABLE_BLOCKS, columns=["ts", "event_type"]
    )

    def daily(b: pa.Table) -> pa.Table:
        day = b["ts"].to_numpy(zero_copy_only=False).view(np.int64) // np.int64(
            86_400_000_000
        )
        return pa.table(
            {"event_type": b["event_type"], "day": day,
             "y": np.ones(len(day), np.int64)}
        )

    return shuffle_mod.fold(
        ds.map_batches(daily, batch_format="pyarrow"),
        ["event_type", "day"],
        pa.schema([("event_type", pa.string()), *_i64("day", "y")]),
    ).to_pandas()


def q_trend_by_type(sf_dir: str):
    """Per-group OLS TREND estimation (NEW round 5) — the grouped
    linear-regression reduce feature pipelines run over time series
    (drift detection, burn-rate forecasting): the least-squares slope
    of daily event counts vs epoch-day per event_type, emitted as the
    EXACT integer normal-equation terms (num = n·Σxy − Σx·Σy,
    den = n·Σx² − (Σx)²) plus the slope as ONE identical IEEE division.

    Shape at scale: the daily rollup is a map-side partial fold
    (O(blocks × types × days) partial rows, no exchange); the per-type
    regression folds the day-sized series on the driver — bounded by
    the CALENDAR, never by events. Day indexes are absolute epoch days
    (non-negative ints), so every moment term is exact int64."""
    bars = _type_day_counts(sf_dir)
    rows = []
    for etype, g in bars.groupby("event_type", sort=True):
        x = g["day"].to_numpy(np.int64)
        y = g["y"].to_numpy(np.int64)
        n = np.int64(x.size)
        sx, sy = x.sum(), y.sum()
        sxy = np.sum(x * y)
        sxx = np.sum(x * x)
        num = n * sxy - sx * sy
        den = n * sxx - sx * sx
        rows.append(
            (
                etype,
                int(n),
                int(num),
                int(den),
                0.0 if den == 0 else float(num) / float(den),
            )
        )
    return pa.table(
        {
            "event_type": pa.array([r[0] for r in rows], pa.string()),
            "n_days": pa.array([r[1] for r in rows], pa.int64()),
            "num": pa.array([r[2] for r in rows], pa.int64()),
            "den": pa.array([r[3] for r in rows], pa.int64()),
            "slope": pa.array([r[4] for r in rows], pa.float64()),
        }
    )


def q_seasonality_profile(sf_dir: str):
    """Weekly SEASONALITY profile (NEW round 5) — the (day-of-week ×
    hour) activity matrix capacity planning and anomaly baselining
    read: per (event_type, dow, hour) counts and exact value cents.
    Both calendar coordinates are PURE integer epoch arithmetic
    (dow = (epoch_day + 3) % 7 with 0 = Monday; hour = epoch-hours
    % 24) — no engine timezone/weekday convention can diverge.

    Shape at scale: one map-side partial fold; output bounded by
    types × 168 cells regardless of corpus size."""
    ds = _read(
        sf_dir, "events", SMALL_TABLE_BLOCKS,
        columns=["ts", "event_type", "value"],
    )

    def cells(b: pa.Table) -> pa.Table:
        us = b["ts"].to_numpy(zero_copy_only=False).view(np.int64)
        return pa.table(
            {
                "event_type": b["event_type"],
                "dow": (us // np.int64(86_400_000_000) + 3) % 7,
                "hour": (us // np.int64(3_600_000_000)) % 24,
                "n_events": np.ones(len(us), np.int64),
                "sum_c": _half_up(
                    b["value"].to_numpy(zero_copy_only=False) * 100
                ).astype(np.int64),
            }
        )

    return shuffle_mod.fold(
        ds.map_batches(cells, batch_format="pyarrow"),
        ["event_type", "dow", "hour"],
        pa.schema(
            [("event_type", pa.string()),
             *_i64("dow", "hour", "n_events", "sum_c")]
        ),
    )


def _type_cent_hist(ds) -> pd.DataFrame:
    """Events per (event_type, value in cents ``x``) as ``n``, sorted by
    both: the exact value histogram the MAD and mode queries read."""

    def counts(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": b["event_type"],
                "x": _half_up(
                    b["value"].to_numpy(zero_copy_only=False) * 100
                ).astype(np.int64),
                "n": np.ones(b.num_rows, np.int64),
            }
        )

    return shuffle_mod.fold(
        ds.map_batches(counts, batch_format="pyarrow"),
        ["event_type", "x"],
        pa.schema([("event_type", pa.string()), *_i64("x", "n")]),
    ).to_pandas()


def q_mad_outliers(sf_dir: str):
    """Robust MAD outlier detection (NEW round 5) — the
    median/median-absolute-deviation screen quality pipelines prefer
    over mean/stddev (value_outliers) because a contaminated tail can't
    drag the threshold: rows with |x − median| > 5·MAD per event_type,
    on exact integer cents.

    Shape at scale: pass 1 folds the per-(type, cents) COUNT histogram
    (O(blocks × types × distinct cents) partial rows, no exchange —
    the quantiles_qty pattern); BOTH robust statistics come off that
    one histogram on the driver (the |x − med| histogram is a
    permutation of the value histogram, so MAD needs no second scan);
    pass 2 is a stateless broadcast filter that re-streams the events
    and emits only the flagged rows."""
    ds = _read(
        sf_dir, "events", SMALL_TABLE_BLOCKS,
        columns=["event_id", "event_type", "value"],
    )

    hist = _type_cent_hist(ds)

    def wmedian(vals: np.ndarray, wts: np.ndarray) -> int:
        order = np.argsort(vals, kind="stable")
        cum = wts[order].cumsum()
        k = (int(cum[-1]) + 1) // 2
        return int(vals[order][np.searchsorted(cum, k)])

    stats = {}
    for etype, g in hist.groupby("event_type", sort=False):
        v = g["x"].to_numpy(np.int64)
        w = g["n"].to_numpy(np.int64)
        med = wmedian(v, w)
        mad = wmedian(np.abs(v - med), w)
        stats[etype] = (med, mad)

    def flag(b: pa.Table, st=stats) -> pa.Table:
        et = b["event_type"].to_numpy(zero_copy_only=False)
        x = _half_up(b["value"].to_numpy(zero_copy_only=False) * 100).astype(
            np.int64
        )
        s = pd.Series(et)
        meds = s.map({k: v[0] for k, v in st.items()}).to_numpy(np.int64)
        mads = s.map({k: v[1] for k, v in st.items()}).to_numpy(np.int64)
        keep = np.abs(x - meds) > 5 * mads
        return pa.table(
            {
                "event_id": pa.array(
                    b["event_id"].to_numpy(zero_copy_only=False)[keep]
                ),
                "event_type": pa.array(et[keep], pa.string()),
                "x": pa.array(x[keep]),
                "med": pa.array(meds[keep]),
                "mad": pa.array(mads[keep]),
            }
        )

    return ds.map_batches(flag, batch_format="pyarrow")


def q_interval_join(sf_dir: str):
    """Temporal INTERVAL join (NEW round 5) — the time-range join shape
    (asof/sessionize don't cover it): for every 'error' event, the
    count and value cents of SAME-USER events inside the following
    1-hour window (strictly after, inclusive end). The incident-impact
    / triggered-activity query every event-analytics stack runs.

    Shape at scale: ONE coarse user-bucket exchange co-locates each
    user's timeline; inside a bucket the window probe is fully
    vectorized — rows sort once by a composite (dense-user, rebased-ts)
    int64 key, every error's window resolves via two searchsorted
    calls, and the value sum is a prefix-sum difference (no per-error
    loop, no pair materialization — output is error-sized). Key bound:
    distinct-users-per-bucket × time-span-µs must stay < 2^63 — at a
    decade-scale corpus drop the key to ms precision or raise the
    bucket count (guarded)."""
    W = np.int64(3_600_000_000)  # 1 hour in µs
    ds = _read(
        sf_dir, "events", SMALL_TABLE_BLOCKS,
        columns=["event_id", "ts", "user_id", "event_type", "value"],
    )

    def probe(g: pa.Table) -> pa.Table:
        ts = g["ts"].to_numpy(zero_copy_only=False).view(np.int64)
        user = g["user_id"].to_numpy(zero_copy_only=False)
        cents = _half_up(
            g["value"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        et = g["event_type"].to_numpy(zero_copy_only=False)
        eid = g["event_id"].to_numpy(zero_copy_only=False)
        uu, uid = np.unique(user, return_inverse=True)
        ts_rel = ts - ts.min()
        span = np.int64(int(ts_rel.max()) + int(W) + 2)
        if uu.size and uu.size * int(span) >= 2**63:  # pragma: no cover
            raise OverflowError("interval_join key overflow: add buckets")
        key = uid.astype(np.int64) * span + ts_rel
        order = np.argsort(key, kind="stable")
        skey = key[order]
        csum = np.concatenate([[0], np.cumsum(cents[order])])
        err = et == "error"
        qk = key[err]
        lo = np.searchsorted(skey, qk, side="right")
        hi = np.searchsorted(skey, qk + W, side="right")
        n_follow = (hi - lo).astype(np.int64)
        sum_c = csum[hi] - csum[lo]
        keep = n_follow >= 1
        return pa.table(
            {
                "event_id": pa.array(eid[err][keep]),
                "user_id": pa.array(user[err][keep]),
                "n_follow": pa.array(n_follow[keep]),
                "sum_follow_c": pa.array(sum_c[keep]),
            }
        )

    return shuffle_mod.bucket_reduce(ds, "user_id", probe)


def q_order_baskets(sf_dir: str):
    """Grouped COLLECT_LIST export (NEW round 5) — the list-aggregation
    shape (features-per-entity, basket export, training-example
    assembly): per order with ≥ 5 distinct parts, the sorted
    comma-joined partkey basket string plus the item count.

    Shape at scale: one coarse ORDER-bucket exchange co-locates basket
    rows (the key is high-cardinality, so this is the bucketed
    map_groups pattern — one vectorized pandas pass per bucket, never a
    Ray per-group Aggregate); the join-to-string runs on int-sorted
    arrays so the basket is deterministic."""
    ds = _read(
        sf_dir, "lineitem", SMALL_TABLE_BLOCKS,
        columns=["l_orderkey", "l_partkey"],
    )

    def collect(g: pa.Table) -> pa.Table:
        df = (
            pd.DataFrame(
                {
                    "o": g["l_orderkey"].to_numpy(zero_copy_only=False),
                    "p": g["l_partkey"].to_numpy(zero_copy_only=False),
                }
            )
            .drop_duplicates()
            .sort_values(["o", "p"], kind="stable")
        )
        sizes = df.groupby("o", sort=False)["p"].size()
        keep = sizes[sizes >= 5].index
        df = df[df["o"].isin(keep)]
        out = (
            df.assign(p_str=df["p"].astype(str))
            .groupby("o", sort=False)["p_str"]
            .agg(",".join)
            .reset_index(name="basket")
        )
        out["n_items"] = sizes[sizes >= 5].reindex(out["o"]).to_numpy(np.int64)
        out = out.rename(columns={"o": "o_orderkey"})
        return shuffle_mod.from_pandas_clean(
            out[["o_orderkey", "n_items", "basket"]]
        )

    return shuffle_mod.bucket_reduce(ds, "l_orderkey", collect)


def q_cell_band_delta(sf_dir: str):
    """Cross-BAND map algebra / change detection (NEW round 5) — the
    two-epoch (or two-sensor) raster differencing every monitoring
    pipeline runs: per-tile band-7 − band-4 delta stats from ONE fused
    two-band decode (the nodata mask is band-independent, so a single
    chunked LCG pass feeds both bands — never a second decode scan),
    rolled up per grid cell through the salted aggregate.

    All-integer columns (|delta| < 65520, ≤ 4096 terms per tile) →
    exact DuckDB oracle via the twin inline ihelp expressions."""
    from raycells.geo import cellid
    from raycells.io import tilestore

    def delta(b: pa.Table) -> pa.Table:
        seeds = tilestore.seed_of_refs(b["media_ref"])
        st = tilestore.synth_band_delta_stats(seeds, 4, 7)
        lon, lat = tilestore.centroids(seeds)
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "grid_cell": pa.array(
                    cellid.grid_cell(lon, lat), pa.int64()
                ),
                "n_tiles": np.ones(b.num_rows, np.int64),
                "sum_valid_count": pa.array(st["valid_count"], pa.int64()),
                "sum_sum_delta": pa.array(st["sum_delta"], pa.int64()),
                "min_min_delta": pa.array(st["min_delta"], pa.int64()),
                "max_max_delta": pa.array(st["max_delta"], pa.int64()),
            }
        )

    return shuffle_mod.aggregate(
        _exploded(sf_dir).map_batches(delta, batch_format="pyarrow"),
        "grid_cell",
        pa.schema(_i64("grid_cell", "n_tiles", "sum_valid_count", "sum_sum_delta",
                       "min_min_delta", "max_max_delta")),
        {"min_min_delta": "min", "max_max_delta": "max"},
    )


def q_zonal_histogram(sf_dir: str):
    """ZONAL HISTOGRAM (NEW round 5) — per-footprint value-distribution
    histograms, the zone-level companion of cell_value_hist (land-cover
    class mixes, per-region contrast profiles): each footprint's 8-bin
    histogram of band-4 values over the contained tiles' 8×8 windows,
    nodata counted separately.

    Shape at scale: the per-tile histogram collapses 64 pixels into 9
    int64 columns map-side; the broadcast PIP task stage tags tiles
    with their containing footprints (rings ray.put once, memoized per
    worker); ONE driver fold sums per-zone — histogram rows, never
    pixels, leave the map side."""
    from raycells.io import tilestore

    WINDOW, WSIZE = (0, 0), (8, 8)
    hcols = [f"h{j}" for j in range(8)]

    def tile_hists(b: pa.Table) -> pa.Table:
        seeds = tilestore.seed_of_refs(b["media_ref"])
        v = tilestore.synth_band_window(seeds, 4, WINDOW, WSIZE, WSIZE).astype(
            np.int64
        )
        nod = (v == 0).sum(axis=1).astype(np.int64)
        bins = np.clip((v - 1) * 8 // 65520, 0, 7)
        bins[v == 0] = 8
        cols = {
            hc: (bins == j).sum(axis=1).astype(np.int64)
            for j, hc in enumerate(hcols)
        }
        lon, lat = tilestore.centroids(seeds)
        t = {"n_tiles": np.ones(b.num_rows, np.int64)}
        t.update({f"sum_{k}": pa.array(vv) for k, vv in cols.items()})
        t["sum_n_nodata"] = pa.array(nod)
        t["lon"] = pa.array(lon, pa.float64())
        t["lat"] = pa.array(lat, pa.float64())
        return pa.table(t)

    hists = _exploded(sf_dir).map_batches(tile_hists, batch_format="pyarrow")
    sums = ["n_tiles", *(f"sum_{hc}" for hc in hcols), "sum_n_nodata"]
    return shuffle_mod.fold(
        pl.join_stage(hists),
        "footprint_id",
        pa.schema([("footprint_id", pa.string()), *_i64(*sums)]),
    )


class _NearBoundary:
    """Broadcast task stage for q_near_boundary_tiles: per batch, count
    tile centroids within EPS of each footprint's RING BOUNDARY (exact
    point-to-segment distance, division-free: the interior-projection
    case compares cross² ≤ EPS²·|v|² — identical IEEE expression trees
    in SQL). Rings ride one ray.put; bboxes expand by EPS (L∞ ⊇ L2, so
    the prefilter is exact)."""

    EPS = 0.05
    EPS2 = 0.0025

    def __init__(self, footprints_ref):
        from raycells.engine.stages import polygon_bbox

        fps = stages._broadcast_memo(footprints_ref) if hasattr(
            footprints_ref, "hex"
        ) else footprints_ref
        self.fps = fps
        self.bboxes = np.array([polygon_bbox(r) for _, _, r in fps])

    def __call__(self, batch: pa.Table) -> pa.Table:
        lon = batch["lon"].to_numpy(zero_copy_only=False)
        lat = batch["lat"].to_numpy(zero_copy_only=False)
        ids, ns = [], []
        E = self.EPS
        for f, (fid, _cat, ring) in enumerate(self.fps):
            bb = self.bboxes[f]
            cand = np.nonzero(
                (lon >= bb[0] - E) & (lon <= bb[2] + E)
                & (lat >= bb[1] - E) & (lat <= bb[3] + E)
            )[0]
            if cand.size == 0:
                continue
            px, py = lon[cand][:, None], lat[cand][:, None]
            nxt = np.roll(ring, -1, axis=0)
            x1, y1 = ring[:, 0][None, :], ring[:, 1][None, :]
            x2, y2 = nxt[:, 0][None, :], nxt[:, 1][None, :]
            vx, vy = x2 - x1, y2 - y1
            wx, wy = px - x1, py - y1
            c1 = wx * vx + wy * vy
            c2 = vx * vx + vy * vy
            cross = wx * vy - wy * vx
            near = np.where(
                c1 <= 0,
                wx * wx + wy * wy <= self.EPS2,
                np.where(
                    c1 >= c2,
                    (px - x2) * (px - x2) + (py - y2) * (py - y2)
                    <= self.EPS2,
                    cross * cross <= self.EPS2 * c2,
                ),
            )
            n = int(near.any(axis=1).sum())
            if n:
                ids.append(fid)
                ns.append(n)
        return pa.table(
            {
                "footprint_id": pa.array(ids, pa.string()),
                "n_near_tiles": pa.array(np.asarray(ns, np.int64)),
            }
        )


def q_near_boundary_tiles(sf_dir: str):
    """BUFFER / boundary-proximity join (NEW round 5) — the
    distance-to-boundary analysis PIP can't answer (edge-effect zones,
    setback compliance, shoreline buffers): per footprint, the number
    of tiles whose centroid lies within 0.05° of the footprint's RING
    boundary (inside or outside — distance is to the boundary curve).

    Shape at scale: rings broadcast once (ray.put + per-worker memo);
    per batch the point-to-segment test is a vectorized (points ×
    edges) matrix per bbox-surviving footprint — division-free exact
    float compares (cross² ≤ ε²·|v|²) so the SQL oracle matches
    branch-for-branch; the fold is O(blocks × footprints) partial
    count rows on the driver."""
    import ray

    from raycells.io import footprints as fp_mod
    from raycells.io import tilestore

    def pts(b: pa.Table) -> pa.Table:
        seeds = tilestore.seed_of_refs(b["media_ref"])
        lon, lat = tilestore.centroids(seeds)
        return pa.table(
            {
                "lon": pa.array(lon, pa.float64()),
                "lat": pa.array(lat, pa.float64()),
            }
        )

    fps = fp_mod.rings_as_numpy(fp_mod.generate_footprints())
    ref = ray.put(fps)
    return shuffle_mod.fold(
        _exploded(sf_dir)
        .map_batches(pts, batch_format="pyarrow")
        .map_batches(stages.broadcast_task(_NearBoundary, ref),
                     batch_format="pyarrow"),
        "footprint_id",
        pa.schema([("footprint_id", pa.string()), *_i64("n_near_tiles")]),
    )


def q_type_corr_matrix(sf_dir: str):
    """Cross-series CORRELATION MATRIX (NEW round 5) — the pairwise
    Pearson matrix over per-type daily event-count series (metric
    co-movement, redundancy screens before feature selection). Series
    are aligned on the FULL dense calendar (zero-filled), so every pair
    sees the same n_days; all normal-equation moments are exact int64
    and the correlation is num / sqrt(den1·den2) — one sqrt + one
    division of exactly-converted doubles (libm sqrt is bit-identical
    numpy vs DuckDB on this platform, CLAUDE.md).

    Shape at scale: the daily rollup is the map-side partial fold; the
    pairwise pass folds a (days × types) matrix bounded by the calendar
    on the driver — never by events."""
    bars = _type_day_counts(sf_dir)
    days = np.arange(bars["day"].min(), bars["day"].max() + 1)
    types = sorted(bars["event_type"].unique())
    mat = (
        bars.pivot(index="day", columns="event_type", values="y")
        .reindex(days)
        .fillna(0)
        .astype(np.int64)[types]
        .to_numpy()
    )
    n = np.int64(mat.shape[0])
    rows = []
    for i in range(len(types)):
        for j in range(i + 1, len(types)):
            xa, xb = mat[:, i], mat[:, j]
            sx, sy = xa.sum(), xb.sum()
            num = n * np.sum(xa * xb) - sx * sy
            den1 = n * np.sum(xa * xa) - sx * sx
            den2 = n * np.sum(xb * xb) - sy * sy
            corr = (
                0.0
                if den1 == 0 or den2 == 0
                else float(num) / np.sqrt(float(den1) * float(den2))
            )
            rows.append(
                (types[i], types[j], int(n), int(num), int(den1), int(den2),
                 float(corr))
            )
    return pa.table(
        {
            "t1": pa.array([r[0] for r in rows], pa.string()),
            "t2": pa.array([r[1] for r in rows], pa.string()),
            "n_days": pa.array([r[2] for r in rows], pa.int64()),
            "num": pa.array([r[3] for r in rows], pa.int64()),
            "den1": pa.array([r[4] for r in rows], pa.int64()),
            "den2": pa.array([r[5] for r in rows], pa.int64()),
            "corr": pa.array([r[6] for r in rows], pa.float64()),
        }
    )


def q_contiguous_regions(sf_dir: str):
    """CONTIGUOUS-REGION labeling of the occupied cell grid (NEW round
    5) — raster region-group / blob detection at the GRID level (the
    zonal complement of vectorize_tiles' per-tile labeling): connected
    components of nonempty 0.25° cells under rook adjacency, each cell
    labeled with its region's MIN cell id plus the region size.

    Shape at scale: the cell aggregate is the distributed salted
    exchange; adjacency edges are built WITHOUT a driver gather — each
    cell fans one probe row per positive rook direction and a
    coarse-bucket join matches (host, probe) key collisions (the
    radius_neighbors pattern); components resolve through the two-level
    min-label contraction (engine/cc.py), so the driver folds only the
    node-sized forest. Singleton cells (no occupied neighbor) are
    re-attached from the cell aggregate itself."""
    from raycells.engine.cc import connected_components
    from raycells.geo import cellid

    NX = cellid.GRID_NX
    # read twice (edges, then the singleton re-attach): run it once
    base = _cell_base_agg(sf_dir).materialize()

    def fan(b: pa.Table) -> pa.Table:
        gc = b["grid_cell"].to_numpy(zero_copy_only=False)
        gx = gc % NX
        host_k, host_s = gc, np.zeros(gc.size, np.int64)
        # +x probe (skip the antimeridian column), +y probe
        px = gc[gx + 1 < NX]
        probes_k = np.concatenate([px + 1, gc + NX])
        probes_s = np.concatenate(
            [px, gc]
        )  # src cell riding the probe row
        return pa.table(
            {
                "key": pa.array(np.concatenate([host_k, probes_k])),
                "side": pa.array(
                    np.concatenate(
                        [host_s, np.ones(probes_k.size, np.int64)]
                    )
                ),
                "src": pa.array(np.concatenate([host_k, probes_s])),
            }
        )

    def match(g: pa.Table) -> pa.Table:
        df = g.to_pandas()
        hosts = df[df["side"] == 0][["key"]]
        probes = df[df["side"] == 1][["key", "src"]]
        hit = probes.merge(hosts, on="key")
        out = pd.DataFrame(
            {"id_a": hit["src"].astype(np.int64),
             "id_b": hit["key"].astype(np.int64)}
        )
        return shuffle_mod.from_pandas_clean(out)

    edges = shuffle_mod.bucket_reduce(
        base.map_batches(fan, batch_format="pyarrow"),
        "key",
        match,
    )
    comp = connected_components(edges)
    cells = (
        base.map_batches(
            lambda b: b.select(["grid_cell"]), batch_format="pyarrow"
        )
        .to_pandas()["grid_cell"]
        .to_numpy(np.int64)
    )
    lab = pd.DataFrame({"grid_cell": cells}).merge(
        comp.rename(columns={"node": "grid_cell", "root": "region_root"}),
        on="grid_cell",
        how="left",
    )
    lab["region_root"] = (
        lab["region_root"].fillna(lab["grid_cell"]).astype(np.int64)
    )
    sizes = lab.groupby("region_root", sort=False).size()
    lab["region_cells"] = sizes.reindex(lab["region_root"]).to_numpy(np.int64)
    return pa.table(
        {
            "grid_cell": pa.array(lab["grid_cell"].to_numpy(np.int64)),
            "region_root": pa.array(lab["region_root"].to_numpy(np.int64)),
            "region_cells": pa.array(lab["region_cells"].to_numpy(np.int64)),
        }
    )


def q_priority_sample(sf_dir: str):
    """Deterministic WEIGHTED sampling without replacement (NEW round
    5) — priority sampling with hash-derived pseudo-randomness (the
    RNG-free convention every sampling operator here uses): each doc
    gets priority key = murmur64(doc_id) >> 16 // weight (weight =
    n_chars, so longer docs are proportionally likelier), and the 100
    SMALLEST keys win. Fully reproducible across engines, partitions
    and re-runs — no RNG state anywhere.

    Shape at scale: per-block partial top-K (np.lexsort survivors only)
    → the driver merges O(blocks × K) rows. The >> 16 keeps the key
    < 2^48, so it rides int64 exactly (CLAUDE.md uint64 rule)."""
    from raycells.sim.hll import _hash64

    K = 100
    ds = _read(
        sf_dir, "documents", SMALL_TABLE_BLOCKS, columns=["doc_id", "n_chars"]
    )

    def part(b: pa.Table) -> pa.Table:
        did = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        w = np.maximum(
            b["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64), 1
        )
        h = _hash64(did)
        key = ((h >> np.uint64(16)) // w.astype(np.uint64)).astype(np.int64)
        order = np.lexsort((did, key))[:K]
        return pa.table(
            {
                "doc_id": pa.array(did[order]),
                "w": pa.array(w[order]),
                "key": pa.array(key[order]),
            }
        )

    pool = ds.map_batches(part, batch_format="pyarrow").to_pandas()
    did = pool["doc_id"].to_numpy(np.int64)
    w = pool["w"].to_numpy(np.int64)
    key = pool["key"].to_numpy(np.int64)
    order = np.lexsort((did, key))[:K]
    return pa.table(
        {
            "rank": pa.array(np.arange(1, order.size + 1, dtype=np.int64)),
            "doc_id": pa.array(did[order]),
            "w": pa.array(w[order]),
            "key": pa.array(key[order]),
        }
    )


def q_minmax_scale(sf_dir: str):
    """Grouped MIN-MAX feature scaling (NEW round 5) — the
    normalization export every feature store runs before training:
    each event's value rescaled to fixed-point [0, 1e6] within its
    event_type ((x − min)·10⁶ // (max − min), exact integers — no float
    division anywhere, so every row hashes cross-engine).

    Shape at scale: pass 1 folds per-type min/max (O(blocks × types)
    partials); pass 2 re-streams events through a stateless broadcast
    map. Output is row-sized but streams — no driver materialization
    of the data pass (the gate collects it, production would
    write_parquet)."""
    ds = _read(
        sf_dir, "events", SMALL_TABLE_BLOCKS,
        columns=["event_id", "event_type", "value"],
    )

    def mm(b: pa.Table) -> pa.Table:
        x = _half_up(b["value"].to_numpy(zero_copy_only=False) * 100).astype(
            np.int64
        )
        return pa.table({"event_type": b["event_type"], "mn": x, "mx": x})

    lim = shuffle_mod.fold(
        ds.map_batches(mm, batch_format="pyarrow"),
        "event_type",
        pa.schema([("event_type", pa.string()), *_i64("mn", "mx")]),
        ops={"mn": "min", "mx": "max"},
    ).to_pydict()
    mins = dict(zip(lim["event_type"], lim["mn"]))
    maxs = dict(zip(lim["event_type"], lim["mx"]))

    def scale(b: pa.Table, mns=mins, mxs=maxs) -> pa.Table:
        et = b["event_type"].to_numpy(zero_copy_only=False)
        x = _half_up(b["value"].to_numpy(zero_copy_only=False) * 100).astype(
            np.int64
        )
        s = pd.Series(et)
        mn = s.map(mns).to_numpy(np.int64)
        mx = s.map(mxs).to_numpy(np.int64)
        rng = mx - mn
        norm = np.where(rng > 0, (x - mn) * 1_000_000 // np.maximum(rng, 1), 0)
        return pa.table(
            {
                "event_id": b["event_id"],
                "event_type": pa.array(et, pa.string()),
                "x": pa.array(x),
                "norm_e6": pa.array(norm.astype(np.int64)),
            }
        )

    return ds.map_batches(scale, batch_format="pyarrow")


def q_audience_hhi(sf_dir: str):
    """Audience CONCENTRATION index (NEW round 5) — the
    Herfindahl-Hirschman diversity measure (is an event type driven by
    a few power users or a broad base?): per event_type, HHI =
    Σ c_u² / (Σ c_u)² over per-user activity counts, emitted as exact
    integer numerator/denominator plus ONE IEEE division.

    Shape at scale: per-batch (type, user) count partials fold on the
    driver at O(blocks × types × users-per-block) — then a
    vector-sized squared sum. The same fold the surprisal/tfidf family
    uses; no exchange."""
    ds = _read(
        sf_dir, "events", SMALL_TABLE_BLOCKS, columns=["event_type", "user_id"]
    )

    def counts(b: pa.Table) -> pa.Table:
        return pa.table(
            {"event_type": b["event_type"], "user_id": b["user_id"],
             "c": np.ones(b.num_rows, np.int64)}
        )

    cu = shuffle_mod.fold(
        ds.map_batches(counts, batch_format="pyarrow"),
        ["event_type", "user_id"],
        pa.schema([("event_type", pa.string()), *_i64("user_id", "c")]),
    ).to_pandas()
    rows = []
    for etype, g in cu.groupby("event_type", sort=True):
        c = g["c"].to_numpy(np.int64)
        n = int(c.sum())
        num = int(np.sum(c * c))
        rows.append(
            (etype, n, int(c.size), num,
             0.0 if n == 0 else float(num) / (float(n) * float(n)))
        )
    return pa.table(
        {
            "event_type": pa.array([r[0] for r in rows], pa.string()),
            "n_events": pa.array([r[1] for r in rows], pa.int64()),
            "n_users": pa.array([r[2] for r in rows], pa.int64()),
            "hhi_num": pa.array([r[3] for r in rows], pa.int64()),
            "hhi": pa.array([r[4] for r in rows], pa.float64()),
        }
    )


def q_rfm_segments(sf_dir: str):
    """RFM SEGMENTATION (NEW round 5) — the classic
    recency/frequency/monetary quartile coding growth teams cut users
    by: per user, last-activity timestamp, event count, and value
    cents, each ranked into quartiles via the exact integer rule
    (rank−1)·4 // n + 1 (rank ordered by metric then user_id — fully
    deterministic, no percentile floats), composed into the 3-digit
    segment code.

    Shape at scale: the per-user rollup folds O(blocks × users)
    partials; the quartile coding sorts the USER-sized vector on the
    driver (users ≪ events). Recency ranks most-recent = quartile 4."""
    ds = _read(
        sf_dir, "events", SMALL_TABLE_BLOCKS,
        columns=["user_id", "ts", "value"],
    )

    def part(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": b["user_id"],
                "last_us": b["ts"].to_numpy(zero_copy_only=False).view(np.int64),
                "freq": np.ones(b.num_rows, np.int64),
                "mon_c": _half_up(
                    b["value"].to_numpy(zero_copy_only=False) * 100
                ).astype(np.int64),
            }
        )

    u = shuffle_mod.fold(
        ds.map_batches(part, batch_format="pyarrow"),
        "user_id",
        pa.schema(_i64("user_id", "last_us", "freq", "mon_c")),
        ops={"last_us": "max"},
    ).to_pandas()
    n = len(u)
    uid = u["user_id"].to_numpy(np.int64)

    def quartile(metric: np.ndarray) -> np.ndarray:
        order = np.lexsort((uid, metric))
        rank = np.empty(n, np.int64)
        rank[order] = np.arange(n, dtype=np.int64)  # 0-based rank
        return rank * 4 // n + 1

    r = quartile(u["last_us"].to_numpy(np.int64))
    f = quartile(u["freq"].to_numpy(np.int64))
    m = quartile(u["mon_c"].to_numpy(np.int64))
    return pa.table(
        {
            "user_id": pa.array(uid),
            "last_us": pa.array(u["last_us"].to_numpy(np.int64)),
            "freq": pa.array(u["freq"].to_numpy(np.int64)),
            "mon_c": pa.array(u["mon_c"].to_numpy(np.int64)),
            "r": pa.array(r),
            "f": pa.array(f),
            "m": pa.array(m),
            "segment": pa.array(r * 100 + f * 10 + m),
        }
    )


def q_lttb_downsample(sf_dir: str):
    """LTTB time-series DOWNSAMPLING (NEW round 5) — the
    largest-triangle-three-buckets visual decimation dashboards run
    before plotting: each event_type's daily cents series reduced to
    first + 10 + last points, every interior bucket contributing the
    point with the LARGEST triangle area against the previously
    selected point and the next bucket's average.

    Exactness: the integer-variant — bucket of interior rank r is
    (r−1)·B // (n−2); the area comparison is multiplied through by the
    next bucket's count (A = |(x_p·c − Σx)(y_c − y_p) − (x_p − x_c)(Σy
    − y_p·c)|, exact int64), ties to the earliest day — so the
    sequential selection is bit-reproducible (10 unrolled MATERIALIZED
    CTE steps in SQL, the bpe_merges pattern).

    Shape at scale: the distributed stage is the daily fold; the
    inherently sequential selection runs on the calendar-bounded bar
    table (the cusum_daily precedent)."""
    B = 10
    ds = _read(
        sf_dir, "events", SMALL_TABLE_BLOCKS,
        columns=["ts", "event_type", "value"],
    )

    def daily(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": b["event_type"],
                "day": b["ts"].to_numpy(zero_copy_only=False).view(np.int64)
                // np.int64(86_400_000_000),
                "y": _half_up(
                    b["value"].to_numpy(zero_copy_only=False) * 100
                ).astype(np.int64),
            }
        )

    bars = shuffle_mod.fold(
        ds.map_batches(daily, batch_format="pyarrow"),
        ["event_type", "day"],
        pa.schema([("event_type", pa.string()), *_i64("day", "y")]),
    ).to_pandas()
    out_rows = []
    for etype, g in bars.groupby("event_type", sort=True):
        x = g["day"].to_numpy(np.int64)
        y = g["y"].to_numpy(np.int64)
        n = x.size
        if n <= B + 2:
            sel = np.arange(n)
        else:
            r = np.arange(1, n - 1)
            bucket = (r - 1) * B // (n - 2)
            sel = [0]
            for i in range(B):
                cand = r[bucket == i]
                if i < B - 1:
                    nxt = r[bucket == i + 1]
                    cn = np.int64(nxt.size)
                    sx, sy = x[nxt].sum(), y[nxt].sum()
                else:
                    cn, sx, sy = np.int64(1), x[n - 1], y[n - 1]
                p = sel[-1]
                area = np.abs(
                    (x[p] * cn - sx) * (y[cand] - y[p])
                    - (x[p] - x[cand]) * (sy - y[p] * cn)
                )
                best = cand[np.lexsort((x[cand], -area))[0]]
                sel.append(int(best))
            sel.append(n - 1)
            sel = np.asarray(sel)
        for k, idx in enumerate(sel):
            out_rows.append((etype, k, int(x[idx]), int(y[idx])))
    return pa.table(
        {
            "event_type": pa.array([r[0] for r in out_rows], pa.string()),
            "pos": pa.array([r[1] for r in out_rows], pa.int64()),
            "day": pa.array([r[2] for r in out_rows], pa.int64()),
            "y": pa.array([r[3] for r in out_rows], pa.int64()),
        }
    )


def q_triangle_count(sf_dir: str):
    """Per-node TRIANGLE counting (NEW round 5) — the graph-analytics
    clustering primitive (community strength, spam/bot rings): for each
    part, the number of co-purchase triangles through it.

    Method: broadcast BITSET adjacency (n × ⌈n/64⌉ uint64, built once —
    the bitset itself is the size bound, n²/8 bytes, so collecting the
    smaller edge list to build it costs less than the broadcast it
    feeds; ~50 MB at 20k nodes, document-bounded like IVF's sample
    bound) + a distributed per-edge scan: common(s, d) =
    popcount(bits[s] & bits[d]) in 2 MB SWAR chunks
    (text/dedup._popcount64), each undirected edge scanned once
    crediting both endpoints, and triangles(x) = Σ_incident common // 2
    (each triangle at x is seen from both its x-edges). Partials fold
    O(blocks × nodes)."""
    import ray

    from raycells.text.dedup import _popcount64

    dedup = _copurchase_pairkeys(sf_dir)

    def split(b: pa.Table) -> pa.Table:
        k = b["pairkey"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "s": pa.array(k >> np.int64(32)),
                "d": pa.array(k & np.int64((1 << 32) - 1)),
            }
        )

    # UNDIRECTED edges only: each (u < v) edge is AND-popcounted once
    # and credits BOTH endpoints — half the scan arithmetic of the
    # both-directions form (each triangle at x is still seen from both
    # its x-edges, so the //2 below is unchanged)
    edges = dedup.map_batches(split, batch_format="pyarrow").materialize()
    epd = edges.to_pandas()
    s = epd["s"].to_numpy(np.int64)
    d = epd["d"].to_numpy(np.int64)
    nodes = np.unique(np.concatenate([s, d]))
    n = nodes.size
    w = (n + 63) // 64
    bits = np.zeros((n, w), np.uint64)
    i_s = np.searchsorted(nodes, s)
    i_d = np.searchsorted(nodes, d)
    np.bitwise_or.at(
        bits, (i_s, i_d // 64), np.uint64(1) << (i_d % 64).astype(np.uint64)
    )
    np.bitwise_or.at(
        bits, (i_d, i_s // 64), np.uint64(1) << (i_s % 64).astype(np.uint64)
    )
    ref = ray.put((nodes, bits))

    def scan(b: pa.Table, r=ref) -> pa.Table:
        nd, bt = stages._broadcast_memo(r)
        ss = np.searchsorted(nd, b["s"].to_numpy(zero_copy_only=False))
        dd = np.searchsorted(nd, b["d"].to_numpy(zero_copy_only=False))
        acc = np.zeros(nd.size, np.int64)
        CH = max(1, (2 << 20) // (bt.shape[1] * 8 * 2))  # ~2 MB working set
        for lo in range(0, ss.size, CH):
            hi = min(lo + CH, ss.size)
            common = _popcount64(
                np.bitwise_and(bt[ss[lo:hi]], bt[dd[lo:hi]])
            ).sum(axis=1, dtype=np.int64)
            np.add.at(acc, ss[lo:hi], common)
            np.add.at(acc, dd[lo:hi], common)
        nz = np.nonzero(acc)[0]
        return pa.table({"node": pa.array(nd[nz]), "part": pa.array(acc[nz])})

    folded = shuffle_mod.fold(
        edges.map_batches(scan, batch_format="pyarrow"),
        "node",
        pa.schema(_i64("node", "part")),
    )
    tri = folded["part"].to_numpy() // 2
    keep = pa.array(tri > 0)
    return pa.table(
        {
            "p_partkey": folded["node"].filter(keep),
            "triangles": pa.array(tri).filter(keep),
        }
    )


def q_hist_equalize(sf_dir: str):
    """Histogram EQUALIZATION (NEW round 5) — the classic raster
    contrast-enhancement remap (and the normalization step image
    training pipelines run): band-4 window pixels remapped through the
    GLOBAL value CDF (e(v) = (cdf(v) − cdf_min)·65519 // (T − cdf_min)
    + 1 — pure integer), then per-cell stats of the equalized raster.

    Shape at scale: pass 1 folds per-batch (value, count) partials into
    the 65520-bounded global histogram (value-domain-bounded, never
    pixel-bounded); the remap LUT broadcasts once via ray.put; pass 2
    re-streams tiles, remaps the 8×8 windows vectorized, and rolls up
    per grid cell through the salted aggregate."""
    import ray

    from raycells.geo import cellid
    from raycells.io import tilestore

    WINDOW, WSIZE = (0, 0), (8, 8)

    def vhist(b: pa.Table) -> pa.Table:
        seeds = tilestore.seed_of_refs(b["media_ref"])
        v = tilestore.synth_band_window(seeds, 4, WINDOW, WSIZE, WSIZE).ravel()
        v = v[v > 0].astype(np.int64)
        return pa.table({"v": v, "c": np.ones(v.size, np.int64)})

    hist = shuffle_mod.fold(
        _exploded(sf_dir).map_batches(vhist, batch_format="pyarrow"),
        "v",
        pa.schema(_i64("v", "c")),
    )
    vals = hist["v"].to_numpy()
    cdf = hist["c"].to_numpy().cumsum()
    T, cmin = int(cdf[-1]), int(cdf[0])
    lut = np.zeros(65521, np.int64)
    lut[vals] = (
        (cdf - cmin) * 65519 // max(T - cmin, 1) + 1 if T > cmin
        else np.ones(vals.size, np.int64)
    )
    ref = ray.put(lut)

    def remap(b: pa.Table, r=ref) -> pa.Table:
        lt = stages._broadcast_memo(r)
        seeds = tilestore.seed_of_refs(b["media_ref"])
        v = tilestore.synth_band_window(seeds, 4, WINDOW, WSIZE, WSIZE).astype(
            np.int64
        )
        ok = v > 0
        e = lt[v]
        lon, lat = tilestore.centroids(seeds)
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "grid_cell": pa.array(cellid.grid_cell(lon, lat), pa.int64()),
                "n_tiles": np.ones(b.num_rows, np.int64),
                "sum_valid_px": pa.array(ok.sum(axis=1).astype(np.int64)),
                "sum_nodata_px": pa.array((~ok).sum(axis=1).astype(np.int64)),
                "sum_eq_sum": pa.array(np.where(ok, e, 0).sum(axis=1)),
                "min_eq_min": pa.array(
                    np.where(ok, e, np.int64(1 << 40)).min(axis=1)
                ),
                "max_eq_max": pa.array(np.where(ok, e, np.int64(-1)).max(axis=1)),
            }
        )

    return shuffle_mod.aggregate(
        _exploded(sf_dir).map_batches(remap, batch_format="pyarrow"),
        "grid_cell",
        pa.schema(_i64("grid_cell", "n_tiles", "sum_valid_px", "sum_nodata_px",
                       "sum_eq_sum", "min_eq_min", "max_eq_max")),
        {"min_eq_min": "min", "max_eq_max": "max"},
    )


def q_containment_pairs(sf_dir: str):
    """CONTAINMENT (quote/superset) detection (NEW round 5) — the
    one-sided near-dup relation symmetric Jaccard misses: doc A is
    "contained" in doc B when ≥ 50% of A's DISTINCT chunk fingerprints
    also occur in B (catches quoting, excerpt pages, doc-inside-doc
    boilerplate). Ordered pairs, both directions evaluated.

    Shape at scale: one coarse exchange on the chunk hash co-locates
    equal fingerprints (per-bucket (doc, hash) dedup IS global —
    hash → one bucket); fingerprints shared by > 100 docs are dropped
    as boilerplate BEFORE pair expansion (the skew guard — a hash in k
    docs costs k² pair rows), mirrored in the oracle; per-doc distinct
    sizes fold from the same exchange. Driver folds candidate-pair- and
    doc-sized partials only."""
    DF_CAP = 100
    chunks = q_chunk_docs(sf_dir)

    def proj(b: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "doc_key": b["doc_key"].to_numpy(zero_copy_only=False),
                "chunk_hash": b["chunk_hash"].to_numpy(zero_copy_only=False),
            }
        ).drop_duplicates()
        return shuffle_mod.from_pandas_clean(df)

    def bucket_pass(g: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "doc_key": g["doc_key"].to_numpy(zero_copy_only=False),
                "chunk_hash": g["chunk_hash"].to_numpy(zero_copy_only=False),
            }
        ).drop_duplicates()
        sizes = df.groupby("doc_key", sort=False).size().reset_index(name="n")
        out_kind = [np.zeros(len(sizes), np.int64)]
        out_a = [sizes["doc_key"].to_numpy(object)]
        out_b = [np.full(len(sizes), "", object)]
        out_n = [sizes["n"].to_numpy(np.int64)]
        hsz = df.groupby("chunk_hash", sort=False).size()
        keep = hsz[(hsz >= 2) & (hsz <= DF_CAP)].index
        dd = df[df["chunk_hash"].isin(keep)]
        if len(dd):
            pairs = dd.merge(dd, on="chunk_hash", suffixes=("_a", "_b"))
            pairs = pairs[pairs["doc_key_a"] != pairs["doc_key_b"]]
            pc = (
                pairs.groupby(["doc_key_a", "doc_key_b"], sort=False)
                .size()
                .reset_index(name="m")
            )
            out_kind.append(np.ones(len(pc), np.int64))
            out_a.append(pc["doc_key_a"].to_numpy(object))
            out_b.append(pc["doc_key_b"].to_numpy(object))
            out_n.append(pc["m"].to_numpy(np.int64))
        return pa.table(
            {
                "kind": pa.array(np.concatenate(out_kind)),
                "a": pa.array(np.concatenate(out_a), pa.string()),
                "b": pa.array(np.concatenate(out_b), pa.string()),
                "cnt": pa.array(np.concatenate(out_n)),
            }
        )

    folded = shuffle_mod.fold(
        shuffle_mod.bucket_reduce(
            chunks.map_batches(proj, batch_format="pyarrow"),
            "chunk_hash",
            bucket_pass,
        ),
        ["kind", "a", "b"],
        pa.schema([("kind", pa.int64()), ("a", pa.string()), ("b", pa.string()),
                   *_i64("cnt")]),
    ).to_pandas()
    sizes = folded[folded["kind"] == 0].set_index("a")["cnt"]
    pairs = folded[folded["kind"] == 1]
    n_a = sizes.reindex(pairs["a"]).to_numpy(np.int64)
    m = pairs["cnt"].to_numpy(np.int64)
    keep = 2 * m >= n_a
    return pa.table(
        {
            "doc_a": pa.array(pairs["a"].to_numpy(object)[keep], pa.string()),
            "doc_b": pa.array(pairs["b"].to_numpy(object)[keep], pa.string()),
            "n_a": pa.array(n_a[keep]),
            "n_common": pa.array(m[keep]),
        }
    )


def q_semivariogram(sf_dir: str):
    """Experimental SEMIVARIOGRAM (NEW round 5) — the geostatistics
    spatial-structure curve kriging and spatial ML start from: for lags
    h = 1..4 along both grid axes, γ-terms Σ (z_i − z_j)² and pair
    counts over occupied-cell pairs at exactly that offset (z = tiles
    per cell). Emits exact integer (lag, axis, n_pairs, sum_sq) — the
    float γ = sum_sq / (2·n_pairs) is ONE IEEE division.

    Shape at scale: neighbor pairs at fixed offsets resolve with the
    same sorted-key searchsorted used by morans_i over the CELL-sized
    aggregate — the heavy stage is the distributed cell rollup; the
    lag scan is O(lags × cells) on cell-sized arrays."""
    from raycells.geo import cellid

    NX = cellid.GRID_NX
    base = shuffle_mod.fold(
        _cell_base_agg(sf_dir), "grid_cell", pa.schema(_i64("grid_cell", "n_tiles"))
    )
    gc = base["grid_cell"].to_numpy()
    z = base["n_tiles"].to_numpy()
    gx, gy = gc % NX, gc // NX
    key = gy * np.int64(1 << 20) + gx
    order = np.argsort(key, kind="stable")
    skey, sz = key[order], z[order]
    rows = []
    for axis, (dx, dy) in (("x", (1, 0)), ("y", (0, 1))):
        for lag in range(1, 5):
            nk = (gy + dy * lag) * np.int64(1 << 20) + (gx + dx * lag)
            pos = np.searchsorted(skey, nk)
            pos_c = np.minimum(pos, skey.size - 1)
            hit = skey[pos_c] == nk
            ii = np.nonzero(hit)[0]
            jj = pos_c[ii]
            d = z[ii] - sz[jj]
            n_pairs = int(ii.size)
            if n_pairs == 0:  # mirror the oracle's inner-join semantics
                continue
            ssq = int(np.sum(d.astype(object) * d.astype(object)))
            rows.append(
                (axis, lag, n_pairs, ssq,
                 float(ssq) / (2.0 * float(n_pairs)))
            )
    return pa.table(
        {
            "axis": pa.array([r[0] for r in rows], pa.string()),
            "lag": pa.array([r[1] for r in rows], pa.int64()),
            "n_pairs": pa.array([r[2] for r in rows], pa.int64()),
            "sum_sq": pa.array([r[3] for r in rows], pa.int64()),
            "gamma": pa.array([r[4] for r in rows], pa.float64()),
        }
    )


def q_attribution_last_touch(sf_dir: str):
    """LAST-TOUCH attribution (NEW round 5) — the marketing-analytics
    join (asof with a type-filtered build side): every purchase
    attributed to the user's most recent click/view STRICTLY before it
    within a 7-day lookback; ties on timestamp break to the larger
    event_id. Exact integer µs lags.

    Shape at scale: the interval_join machinery — one user-bucket
    exchange, in-bucket composite (dense-user, rebased-ts) key sorted
    with event_id as the secondary order, ONE searchsorted per
    purchase picks the predecessor (equal keys sort the max event_id
    last, so idx−1 IS the tie rule); the ≤ 7-day check implies
    same-user because the key span exceeds any in-window lag."""
    LOOKBACK = np.int64(7 * 86_400_000_000)
    ds = _read(
        sf_dir, "events", SMALL_TABLE_BLOCKS,
        columns=["event_id", "ts", "user_id", "event_type"],
    )

    def probe(g: pa.Table) -> pa.Table:
        ts = g["ts"].to_numpy(zero_copy_only=False).view(np.int64)
        user = g["user_id"].to_numpy(zero_copy_only=False)
        et = g["event_type"].to_numpy(zero_copy_only=False)
        eid = g["event_id"].to_numpy(zero_copy_only=False)
        uu, uid = np.unique(user, return_inverse=True)
        ts_rel = ts - ts.min()
        span = np.int64(int(ts_rel.max()) + int(LOOKBACK) + 2)
        if uu.size and uu.size * int(span) >= 2**63:  # pragma: no cover
            raise OverflowError("attribution key overflow: add buckets")
        key = uid.astype(np.int64) * span + ts_rel
        is_src = (et == "click") | (et == "view")
        is_pur = et == "purchase"
        skey = key[is_src]
        seid = eid[is_src]
        setype = et[is_src]
        order = np.lexsort((seid, skey))
        skey, seid, setype = skey[order], seid[order], setype[order]
        qk = key[is_pur]
        idx = np.searchsorted(skey, qk, side="left") - 1
        ok = idx >= 0
        idx_c = np.maximum(idx, 0)
        lag = qk - skey[idx_c]
        ok &= lag <= LOOKBACK
        return pa.table(
            {
                "event_id": pa.array(eid[is_pur][ok]),
                "user_id": pa.array(user[is_pur][ok]),
                "src_event_id": pa.array(seid[idx_c[ok]]),
                "src_type": pa.array(setype[idx_c[ok]], pa.string()),
                "lag_us": pa.array(lag[ok]),
            }
        )

    return shuffle_mod.bucket_reduce(ds, "user_id", probe)


def q_journey_trigrams(sf_dir: str):
    """3-step JOURNEY mining (NEW round 5) — the sankey/path-analysis
    extension of event_transitions: per-user consecutive event-type
    TRIPLES under the deterministic (ts, event_id) order, counted
    corpus-wide (n ≥ 5 to keep signal).

    Shape at scale: the user-bucket exchange co-locates timelines; each
    bucket lexsorts once and two shifted comparisons collapse to
    ≤ types³ partial rows; the driver folds the types³-bounded cube."""
    ds = _read(
        sf_dir, "events", SMALL_TABLE_BLOCKS,
        columns=["event_id", "ts", "user_id", "event_type"],
    )

    def tri(g: pa.Table) -> pa.Table:
        ts = g["ts"].to_numpy(zero_copy_only=False).view(np.int64)
        user = g["user_id"].to_numpy(zero_copy_only=False)
        eid = g["event_id"].to_numpy(zero_copy_only=False)
        et = g["event_type"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, user))
        u, t = user[order], et[order]
        same2 = u[:-2] == u[2:]
        return pa.table(
            {
                "t1": pa.array(t[:-2][same2], pa.string()),
                "t2": pa.array(t[1:-1][same2], pa.string()),
                "t3": pa.array(t[2:][same2], pa.string()),
                "n": np.ones(int(same2.sum()), np.int64),
            }
        )

    folded = shuffle_mod.fold(
        shuffle_mod.bucket_reduce(ds, "user_id", tri),
        ["t1", "t2", "t3"],
        pa.schema([("t1", pa.string()), ("t2", pa.string()), ("t3", pa.string()),
                   *_i64("n")]),
    )
    return folded.filter(pc.greater_equal(folded["n"], 5))


def q_rolling_wau(sf_dir: str):
    """Rolling 7-day ACTIVE USERS (NEW round 5) — the windowed COUNT
    DISTINCT the sum-based rolling family can't answer (WAU per day,
    inclusive trailing week over the observed calendar).

    Shape at scale: the distributed stage folds DISTINCT (day, user)
    pairs (per-batch dedup partials — bounded by DAU × days, never by
    events); the window distinct runs on that pair table per calendar
    day. Exact integers throughout."""
    ds = _read(
        sf_dir, "events", SMALL_TABLE_BLOCKS, columns=["ts", "user_id"]
    )

    def pairs(b: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "day": b["ts"].to_numpy(zero_copy_only=False).view(np.int64)
                // np.int64(86_400_000_000),
                "user_id": b["user_id"].to_numpy(zero_copy_only=False),
            }
        ).drop_duplicates()
        return shuffle_mod.from_pandas_clean(df)

    du = (
        ds.map_batches(pairs, batch_format="pyarrow")
        .to_pandas()
        .drop_duplicates()
    )
    days = np.arange(du["day"].min(), du["day"].max() + 1)
    d = du["day"].to_numpy(np.int64)
    u = du["user_id"].to_numpy(np.int64)
    rows = []
    for day in days:
        m = (d >= day - 6) & (d <= day)
        rows.append((int(day), int(np.unique(u[m]).size),
                     int(np.unique(u[d == day]).size)))
    return pa.table(
        {
            "day": pa.array([r[0] for r in rows], pa.int64()),
            "wau": pa.array([r[1] for r in rows], pa.int64()),
            "dau": pa.array([r[2] for r in rows], pa.int64()),
        }
    )


def q_snapshot_diff(sf_dir: str):
    """SNAPSHOT DIFF / CDC reconciliation (NEW round 5) — the
    table-compare every ingestion pipeline runs between two dataset
    versions: documents vs a deterministic "next snapshot" (docs with
    doc_id % 7 == 3 get '\\n[rev2]' appended; doc_id % 11 == 5 are
    deleted; synthetic new docs doc_id+100000 appear for doc_id % 13 ==
    1), classified per key into added / removed / changed / unchanged
    by comparing content FINGERPRINTS, never the texts.

    Shape at scale: both sides project to (key, fingerprint) map-side
    (the rolling-hash kernel), co-partition through ONE coarse-bucket
    exchange, and each bucket emits bounded class counts; the driver
    folds O(buckets × 4) rows. Output: per-class counts + the exact
    changed/added/removed key lists (output-sized)."""
    base = _read(
        sf_dir, "documents", SMALL_TABLE_BLOCKS, columns=["doc_id", "text"]
    )

    def fp_a(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "fp": pa.array(
                    ta.fingerprint64(b["text"].to_pylist()).view(np.int64)
                ),
                "side": pa.array(np.zeros(b.num_rows, np.int64)),
            }
        )

    def fp_b(b: pa.Table) -> pa.Table:
        did = b["doc_id"].to_numpy(zero_copy_only=False)
        txt = b["text"].to_numpy(zero_copy_only=False)
        keep = did % 11 != 5
        did2, txt2 = did[keep], txt[keep]
        mod = did2 % 7 == 3
        txt2 = np.where(mod, np.char.add(txt2.astype(str), "\n[rev2]"), txt2)
        new = did[did % 13 == 1]
        did_out = np.concatenate([did2, new + 100000])
        txt_out = list(txt2) + ["new doc %d" % k for k in new]
        return pa.table(
            {
                "doc_id": pa.array(did_out),
                "fp": pa.array(ta.fingerprint64(txt_out).view(np.int64)),
                "side": pa.array(np.ones(did_out.size, np.int64)),
            }
        )

    both = base.map_batches(fp_a, batch_format="pyarrow").union(
        base.map_batches(fp_b, batch_format="pyarrow")
    )

    # shared reduction (engine/stages.diff_classify): the driver's
    # --mode diff sink runs the SAME definition
    return stages.diff_classify(both, key_col="doc_id", fp_col="fp")


def q_survival_table(sf_dir: str):
    """Kaplan-Meier SURVIVAL TABLE (NEW round 5) — time-to-conversion
    analysis with right-censoring (the retention/latency curve product
    teams fit): per user, days from first activity to the first BIG
    purchase (≥ $150); users who never convert are censored at the
    global observation end. Emits the exact integer KM inputs per day
    (n_at_risk, n_events, n_censored) — the estimator's float product
    is order-dependent, so the hashable table IS the contract.

    Shape at scale: one per-user partial fold (O(blocks × users)) plus
    a scalar max-ts fold; the day table is calendar-bounded."""
    THR = 15000
    DAY = np.int64(86_400_000_000)
    ds = _read(
        sf_dir, "events", SMALL_TABLE_BLOCKS,
        columns=["ts", "user_id", "event_type", "value"],
    )

    def part(b: pa.Table) -> pa.Table:
        ts = b["ts"].to_numpy(zero_copy_only=False).view(np.int64)
        et = b["event_type"].to_numpy(zero_copy_only=False)
        cents = _half_up(
            b["value"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        conv = (et == "purchase") & (cents >= THR)
        return pa.table(
            {
                "user_id": b["user_id"],
                "t0": ts,
                "tp": np.where(conv, ts, np.int64(1 << 62)),
                "t_last": ts,
            }
        )

    u = shuffle_mod.fold(
        ds.map_batches(part, batch_format="pyarrow"),
        "user_id",
        pa.schema(_i64("user_id", "t0", "tp", "t_last")),
        ops={"t0": "min", "tp": "min", "t_last": "max"},
    )
    t0 = u["t0"].to_numpy()
    tp = u["tp"].to_numpy()
    # global observation end: the latest event of any user
    tmax = int(pc.max(u["t_last"]).as_py())
    converted = tp < np.int64(1 << 62)
    ed = np.where(converted, (tp - t0) // DAY, np.int64(-1))
    cd = (tmax - t0) // DAY
    md = int(max(ed.max(initial=0), cd.max(initial=0)))
    rows = []
    for d in range(md + 1):
        at_risk = int(
            np.sum(np.where(converted, ed >= d, cd >= d))
        )
        rows.append(
            (
                d,
                at_risk,
                int(np.sum(converted & (ed == d))),
                int(np.sum(~converted & (cd == d))),
            )
        )
    return pa.table(
        {
            "day": pa.array([r[0] for r in rows], pa.int64()),
            "n_at_risk": pa.array([r[1] for r in rows], pa.int64()),
            "n_events": pa.array([r[2] for r in rows], pa.int64()),
            "n_censored": pa.array([r[3] for r in rows], pa.int64()),
        }
    )


def q_demand_features(sf_dir: str):
    """LAG-FEATURE engineering export (NEW round 5) — the supervised-ML
    feature prep every demand-forecasting pipeline runs: per (part,
    ship-month) quantity rollup with lag-1 and lag-2 month features
    over each part's OBSERVED month sequence (LAG over the sorted
    per-key series, -1 when absent).

    Shape at scale: month rollup = map-side partials through one salted
    aggregate; the lag shift co-locates each part's months via ONE
    coarse part-bucket exchange and runs a vectorized same-key shifted
    compare per bucket (no per-part loop)."""
    ds = _read(
        sf_dir, "lineitem", SMALL_TABLE_BLOCKS,
        columns=["l_partkey", "l_shipdate", "l_quantity"],
    )

    def monthly(b: pa.Table) -> pa.Table:
        ts = b["l_shipdate"].to_numpy(zero_copy_only=False)
        month = (
            pd.DatetimeIndex(ts).year.to_numpy(np.int64) * 12
            + pd.DatetimeIndex(ts).month.to_numpy(np.int64) - 1
        )
        part = (
            pd.DataFrame(
                {
                    "l_partkey": b["l_partkey"].to_numpy(
                        zero_copy_only=False
                    ),
                    "month": month,
                    "qty": _half_up(
                        b["l_quantity"].to_numpy(zero_copy_only=False)
                    ).astype(np.int64),
                }
            )
            .groupby(["l_partkey", "month"], sort=False)["qty"]
            .sum()
            .reset_index()
        )
        return shuffle_mod.from_pandas_clean(part)

    # one exchange total: the part-bucket groupby both finishes the
    # month rollup (all of a part's partial rows co-locate, so the
    # per-bucket sum IS the global sum) and provides the lag ordering
    partials = ds.map_batches(monthly, batch_format="pyarrow")

    def lag(g: pa.Table) -> pa.Table:
        df = (
            pd.DataFrame(
                {
                    "l_partkey": g["l_partkey"].to_numpy(
                        zero_copy_only=False
                    ),
                    "month": g["month"].to_numpy(zero_copy_only=False),
                    "qty": g["qty"].to_numpy(zero_copy_only=False),
                }
            )
            .groupby(["l_partkey", "month"], sort=False, as_index=False)[
                "qty"
            ]
            .sum()
            .sort_values(["l_partkey", "month"], kind="stable")
        )
        k = df["l_partkey"].to_numpy(np.int64)
        q = df["qty"].to_numpy(np.int64)
        lag1 = np.full(k.size, -1, np.int64)
        lag2 = np.full(k.size, -1, np.int64)
        if k.size > 1:
            same1 = k[1:] == k[:-1]
            lag1[1:][same1] = q[:-1][same1]
        if k.size > 2:
            same2 = k[2:] == k[:-2]
            lag2[2:][same2] = q[:-2][same2]
        out = df.assign(lag1=lag1, lag2=lag2)
        return shuffle_mod.from_pandas_clean(out)

    return shuffle_mod.bucket_reduce(partials, "l_partkey", lag)


def q_idw_interpolate(sf_dir: str):
    """IDW spatial INTERPOLATION (NEW round 5) — inverse-distance-
    weighted surface estimation at query points (the gap-filling /
    sensor-fusion primitive): at each of the 3 city centers, the
    IDW estimate of tile MEAN band-4 value over tiles within 0.5°,
    with integer-quantized weights w = 10⁸ // max(d², 1) (exact-int
    Shepard weights in e3 coordinate units — no float division until
    the single final IEEE divide of two exact sums).

    Shape at scale: a pure map-side pass (query points are constants in
    the stage), O(blocks × queries) partial rows to the driver."""
    from raycells.io import tilestore

    R2 = 500 * 500
    W0 = 100_000_000
    QPTS = [  # e3 milli-degrees (the knn_tiles query points)
        (0, -74000, 40700),
        (1, 2350, 48850),
        (2, 139700, 35700),
    ]

    def part(b: pa.Table) -> pa.Table:
        seeds = tilestore.seed_of_refs(b["media_ref"])
        st = tilestore.synth_band_stats(seeds, 4)
        mean_v = st["sum_val"] // np.maximum(st["valid_count"], 1)
        x, y = tilestore.centroids_e3(seeds)
        rows = {"query_id": [], "n": [], "sw": [], "swv": []}
        for qid, qx, qy in QPTS:
            d2 = (x - qx) * (x - qx) + (y - qy) * (y - qy)
            m = d2 <= R2
            w = W0 // np.maximum(d2[m], 1)
            rows["query_id"].append(qid)
            rows["n"].append(int(m.sum()))
            rows["sw"].append(int(w.sum()))
            rows["swv"].append(int(np.sum(w * mean_v[m])))
        return pa.table(
            {
                "query_id": pa.array(rows["query_id"], pa.int64()),
                "n": pa.array(rows["n"], pa.int64()),
                "sw": pa.array(rows["sw"], pa.int64()),
                "swv": pa.array(rows["swv"], pa.int64()),
            }
        )

    f = shuffle_mod.fold(
        _exploded(sf_dir).map_batches(part, batch_format="pyarrow"),
        "query_id",
        pa.schema(_i64("query_id", "n", "sw", "swv")),
    )
    # every swv term is w · mean ≤ W0 · VAL_MOD, so the int64 fold is
    # exact while the summed tile count keeps n · W0 · VAL_MOD < 2^63
    if sum(f["n"].to_pylist()) * W0 * tilestore.VAL_MOD >= 2**63:  # pragma: no cover
        raise OverflowError("idw_interpolate: too many in-radius tiles for int64 swv")
    sw = f["sw"].to_numpy()
    swv = f["swv"].to_numpy()
    idw = np.where(sw > 0, swv.astype(np.float64) / sw.astype(np.float64), 0.0)
    return f.rename_columns(["query_id", "n_tiles", "sw", "swv"]).append_column(
        "idw", pa.array(idw, pa.float64())
    )


def q_weighted_median(sf_dir: str):
    """WEIGHTED median (NEW round 5) — the revenue-weighted center the
    plain quantile family can't answer ("the quantity at which half the
    SPEND sits"): per returnflag, the smallest quantity whose
    cumulative extended-price weight reaches ceil(W/2), on exact
    integer cents.

    Shape at scale: one (flag, qty) weight-histogram fold (domain-
    bounded partials, no exchange — the quantiles_qty pattern), then a
    cumulative rank pick per group on the driver."""
    ds = _read(
        sf_dir, "lineitem",
        columns=["l_returnflag", "l_quantity", "l_extendedprice"],
    )

    def wh(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_returnflag": b["l_returnflag"],
                "qty": _half_up(
                    b["l_quantity"].to_numpy(zero_copy_only=False)
                ).astype(np.int64),
                "w": _half_up(
                    b["l_extendedprice"].to_numpy(zero_copy_only=False) * 100
                ).astype(np.int64),
            }
        )

    hist = shuffle_mod.fold(
        ds.map_batches(wh, batch_format="pyarrow"),
        ["l_returnflag", "qty"],
        pa.schema([("l_returnflag", pa.string()), *_i64("qty", "w")]),
    ).to_pandas()
    rows = []
    for flag, g in hist.groupby("l_returnflag", sort=True):
        cum = g["w"].cumsum().to_numpy(np.int64)
        W = int(cum[-1])
        k = (W + 1) // 2
        i = int(np.searchsorted(cum, k))
        rows.append((flag, int(g["qty"].to_numpy()[i]), W))
    return pa.table(
        {
            "l_returnflag": pa.array([r[0] for r in rows], pa.string()),
            "wmedian_qty": pa.array([r[1] for r in rows], pa.int64()),
            "total_w": pa.array([r[2] for r in rows], pa.int64()),
        }
    )


def q_modal_value(sf_dir: str):
    """Grouped MODE (NEW round 5) — the most frequent value cents per
    event_type (ties → the smallest value), the categorical-center
    aggregate mean/median families miss.

    Shape at scale: the same (type, cents) count-histogram fold as
    mad_outliers (domain-bounded partials, no exchange); the argmax
    runs per group on the driver."""
    ds = _read(
        sf_dir, "events", SMALL_TABLE_BLOCKS, columns=["event_type", "value"]
    )

    hist = _type_cent_hist(ds)
    rows = []
    for etype, g in hist.groupby("event_type", sort=True):
        order = np.lexsort((g["x"].to_numpy(), -g["n"].to_numpy()))[0]
        rows.append(
            (etype, int(g["x"].to_numpy()[order]),
             int(g["n"].to_numpy()[order]))
        )
    return pa.table(
        {
            "event_type": pa.array([r[0] for r in rows], pa.string()),
            "mode_c": pa.array([r[1] for r in rows], pa.int64()),
            "mode_n": pa.array([r[2] for r in rows], pa.int64()),
        }
    )


def q_theilsen_trend(sf_dir: str):
    """THEIL-SEN robust trend (NEW round 5) — the median-of-pairwise-
    slopes estimator (breakdown point 29%, immune to outlier days the
    OLS trend_by_type bends toward): per event_type, the LOWER-median
    pairwise slope of daily counts, selected under the deterministic
    (slope, dy, dx) order (slope = dy/dx is the identical IEEE double
    both engines; ties break on the exact integer pair).

    Shape at scale: the distributed stage is the daily fold; pairwise
    slopes are calendar-bounded (days² per type), generated and ranked
    on the driver."""
    bars = _type_day_counts(sf_dir)
    rows = []
    for etype, g in bars.groupby("event_type", sort=True):
        x = g["day"].to_numpy(np.int64)
        y = g["y"].to_numpy(np.int64)
        i, j = np.triu_indices(x.size, k=1)
        dy = y[j] - y[i]
        dx = x[j] - x[i]
        slope = dy.astype(np.float64) / dx.astype(np.float64)
        order = np.lexsort((dx, dy, slope))
        k = (order.size + 1) // 2 - 1
        sel = order[k]
        rows.append(
            (etype, int(order.size), int(dy[sel]), int(dx[sel]),
             float(slope[sel]))
        )
    return pa.table(
        {
            "event_type": pa.array([r[0] for r in rows], pa.string()),
            "n_pairs": pa.array([r[1] for r in rows], pa.int64()),
            "med_dy": pa.array([r[2] for r in rows], pa.int64()),
            "med_dx": pa.array([r[3] for r in rows], pa.int64()),
            "slope": pa.array([r[4] for r in rows], pa.float64()),
        }
    )


def q_segment_momentum(sf_dir: str):
    """Segment MOMENTUM (NEW round 5) — month-over-month revenue deltas
    per market segment: orders broadcast-joined to the customer
    dimension, (segment, month) exact-cents rollup, LAG delta over each
    segment's observed months.

    Shape at scale: the customer side broadcasts once (dimension
    table); the rollup folds map-side partials; the month window runs
    on the (segments × months)-bounded bar table."""
    import ray

    cust = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_mktsegment"],
    )
    seg_of = dict(
        zip(
            cust["c_custkey"].to_numpy(zero_copy_only=False),
            cust["c_mktsegment"].to_numpy(zero_copy_only=False),
        )
    )
    ref = ray.put(seg_of)
    ds = _read(
        sf_dir, "orders", SMALL_TABLE_BLOCKS,
        columns=["o_custkey", "o_orderdate", "o_totalprice"],
    )

    def part(b: pa.Table, r=ref) -> pa.Table:
        so = stages._broadcast_memo(r)
        ck = b["o_custkey"].to_numpy(zero_copy_only=False)
        ts = pd.DatetimeIndex(
            b["o_orderdate"].to_numpy(zero_copy_only=False)
        )
        return pa.table(
            {
                "c_mktsegment": pa.array(pd.Series(ck).map(so), pa.string()),
                "month": ts.year.to_numpy(np.int64) * 12
                + ts.month.to_numpy(np.int64) - 1,
                "rev": _half_up(
                    b["o_totalprice"].to_numpy(zero_copy_only=False) * 100
                ).astype(np.int64),
            }
        )

    bars = shuffle_mod.fold(
        ds.map_batches(part, batch_format="pyarrow"),
        ["c_mktsegment", "month"],
        pa.schema([("c_mktsegment", pa.string()), *_i64("month", "rev")]),
    ).to_pandas()
    seg = bars["c_mktsegment"].to_numpy(object)
    rev = bars["rev"].to_numpy(np.int64)
    prev = np.full(rev.size, -1, np.int64)
    if rev.size > 1:
        same = seg[1:] == seg[:-1]
        prev[1:][same] = rev[:-1][same]
    delta = np.where(prev >= 0, rev - prev, 0)
    return pa.table(
        {
            "c_mktsegment": pa.array(seg, pa.string()),
            "month": pa.array(bars["month"].to_numpy(np.int64)),
            "rev_c": pa.array(rev),
            "prev_c": pa.array(prev),
            "delta_c": pa.array(delta.astype(np.int64)),
        }
    )


def q_fk_integrity(sf_dir: str):
    """Referential-INTEGRITY audit (NEW round 5) — the data-quality
    gate every warehouse load runs: orphan counts for the FK edges
    orders.o_custkey → customer and lineitem.l_orderkey → orders, plus
    key coverage (distinct FK values seen).

    Shape at scale: the dimension-side key set broadcasts once
    (ray.put + worker memo; swap in the bloom-pruned co-partitioned
    join when the parent side outgrows broadcast — the
    incremental_dedup path); each fact stream folds O(blocks) count
    partials. Output: one row per FK edge."""
    import ray

    edges = [
        ("orders.o_custkey->customer", "orders", "o_custkey",
         "customer", "c_custkey"),
        ("lineitem.l_orderkey->orders", "lineitem", "l_orderkey",
         "orders", "o_orderkey"),
    ]
    rows = []
    for name, fact, fcol, parent, pcol in edges:
        keys = np.unique(
            pq.read_table(
                os.path.join(sf_dir, f"{parent}.parquet"), columns=[pcol]
            )[pcol].to_numpy(zero_copy_only=False)
        )
        ref = ray.put(keys)
        ds = _read(sf_dir, fact, SMALL_TABLE_BLOCKS, columns=[fcol])

        def part(b: pa.Table, r=ref, col=fcol) -> pa.Table:
            ks = stages._broadcast_memo(r)
            v = b[col].to_numpy(zero_copy_only=False)
            pos = np.searchsorted(ks, v)
            pos_c = np.minimum(pos, ks.size - 1)
            ok = ks[pos_c] == v
            u = np.unique(v)
            return pa.table(
                {
                    "n_rows": pa.array([np.int64(v.size)]),
                    "n_orphan_rows": pa.array([np.int64((~ok).sum())]),
                    "n_distinct_part": pa.array([np.int64(u.size)]),
                }
            )

        f = ds.map_batches(part, batch_format="pyarrow").to_pandas()
        # distinct FK coverage needs a global distinct — the per-block
        # partial sums over-count; recompute exactly via one more fold
        # of pre-deduped key lists only when small, else accept the
        # documented approximation. Here the FK domains are key-sized:
        # fold per-block UNIQUE keys through one exchange-free union.
        uks = (
            ds.map_batches(
                lambda b, col=fcol: pa.table(
                    {"k": pa.array(np.unique(
                        b[col].to_numpy(zero_copy_only=False)))}
                ),
                batch_format="pyarrow",
            )
            .to_pandas()["k"]
            .to_numpy(np.int64)
        )
        rows.append(
            (
                name,
                int(f["n_rows"].sum()),
                int(f["n_orphan_rows"].sum()),
                int(np.unique(uks).size),
                int(keys.size),
            )
        )
    return pa.table(
        {
            "fk": pa.array([r[0] for r in rows], pa.string()),
            "n_rows": pa.array([r[1] for r in rows], pa.int64()),
            "n_orphan_rows": pa.array([r[2] for r in rows], pa.int64()),
            "n_distinct_fk": pa.array([r[3] for r in rows], pa.int64()),
            "n_parent_keys": pa.array([r[4] for r in rows], pa.int64()),
        }
    )


def q_ab_test_zscore(sf_dir: str):
    """A/B TEST analysis (NEW round 5) — the two-proportion z-test
    experimentation platforms run: users split by the RNG-free hash
    arm (user_id % 2), conversion = any ≥ $150 purchase; exact integer
    (x, n) per arm plus the pooled z statistic as one mirrored IEEE
    expression tree (sqrt parity per CLAUDE.md).

    Shape at scale: one per-user fold (O(blocks × users) partials);
    the z arithmetic is driver-side scalar."""
    THR = 15000
    ds = _read(
        sf_dir, "events", SMALL_TABLE_BLOCKS,
        columns=["user_id", "event_type", "value"],
    )

    def part(b: pa.Table) -> pa.Table:
        et = b["event_type"].to_numpy(zero_copy_only=False)
        cents = _half_up(
            b["value"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        return pa.table(
            {
                "user_id": b["user_id"],
                "conv": ((et == "purchase") & (cents >= THR)).astype(np.int64),
            }
        )

    u = shuffle_mod.fold(
        ds.map_batches(part, batch_format="pyarrow"),
        "user_id",
        pa.schema(_i64("user_id", "conv")),
        ops={"conv": "max"},
    )
    uid = u["user_id"].to_numpy()
    conv = u["conv"].to_numpy()
    arm = uid % 2
    stats = {}
    for a in (0, 1):
        m = arm == a
        stats[a] = (int(conv[m].sum()), int(m.sum()))
    x1, n1 = stats[0]
    x2, n2 = stats[1]
    z = None
    if n1 and n2:
        # pooled two-proportion z, identical expression tree in SQL
        p1 = float(x1) / float(n1)
        p2 = float(x2) / float(n2)
        p = float(x1 + x2) / float(n1 + n2)
        den = np.sqrt(p * (1.0 - p) * (1.0 / float(n1) + 1.0 / float(n2)))
        # SQL's division by zero is NULL
        z = float((p1 - p2) / den) if den else None
    if not uid.size:  # SUM over no users is NULL
        x1 = x2 = None
    return pa.table(
        {
            "x1": pa.array([x1], pa.int64()),
            "n1": pa.array([n1], pa.int64()),
            "x2": pa.array([x2], pa.int64()),
            "n2": pa.array([n2], pa.int64()),
            "z": pa.array([z], pa.float64()),
        }
    )


def q_rate_limit_audit(sf_dir: str):
    """RATE-LIMIT / burst audit (NEW round 5) — the abuse-detection
    window scan: per user, the MAXIMUM number of events inside any
    event-anchored 10-minute window ([t, t+600s), every event an
    anchor), plus total events. The "would this user trip a 100/10min
    limiter" question, answered exactly.

    Shape at scale: one user-bucket exchange; per bucket the anchored
    window counts are ONE vectorized searchsorted over the composite
    (dense-user, rebased-ts) key — no per-event loop, no pair rows."""
    W = np.int64(600_000_000)
    ds = _read(
        sf_dir, "events", SMALL_TABLE_BLOCKS, columns=["ts", "user_id"]
    )

    def probe(g: pa.Table) -> pa.Table:
        ts = g["ts"].to_numpy(zero_copy_only=False).view(np.int64)
        user = g["user_id"].to_numpy(zero_copy_only=False)
        uu, uid = np.unique(user, return_inverse=True)
        ts_rel = ts - ts.min()
        span = np.int64(int(ts_rel.max()) + int(W) + 2)
        key = uid.astype(np.int64) * span + ts_rel
        skey = np.sort(key)
        hi = np.searchsorted(skey, skey + W, side="left")
        lo = np.arange(skey.size)
        cnt = (hi - lo).astype(np.int64)
        suid = uid[np.argsort(key, kind="stable")]
        out = (
            pd.DataFrame({"uid": suid, "cnt": cnt})
            .groupby("uid", sort=False)
            .agg(max_burst=("cnt", "max"), n_events=("cnt", "size"))
            .reset_index()
        )
        out["user_id"] = uu[out["uid"].to_numpy()]
        out = out[["user_id", "max_burst", "n_events"]]
        out["max_burst"] = out["max_burst"].astype(np.int64)
        out["n_events"] = out["n_events"].astype(np.int64)
        return shuffle_mod.from_pandas_clean(out)

    return shuffle_mod.bucket_reduce(ds, "user_id", probe)


def q_footprint_grid_cover(sf_dir: str):
    """Polygon GRID COVERAGE (NEW round 5) — the polygon-side density
    surface (how many footprint extents overlap each 0.25° cell): every
    footprint bbox fans to its covered cell range, one aggregate per
    cell. The vector-side counterpart of the tile density grid, and the
    exact cover-fan the large-large cell-cover join relies on.

    Shape at scale: the fan is bounded by Σ bbox areas in cells (never
    by the raster); one salted aggregate finishes. Cell ids use the
    same float-floor expression tree as the tile grid (proven
    cross-engine)."""
    import ray.data as rd

    from raycells.io import footprints as fp_mod

    path = fp_mod.ensure_bbox_parquet()
    bb = rd.read_parquet(path).map_batches(
        _strip_schema_metadata, batch_format="pyarrow"
    )

    def fan(b: pa.Table) -> pa.Table:
        minx = b["minx"].to_numpy(zero_copy_only=False)
        maxx = b["maxx"].to_numpy(zero_copy_only=False)
        miny = b["miny"].to_numpy(zero_copy_only=False)
        maxy = b["maxy"].to_numpy(zero_copy_only=False)
        gx0 = np.floor((minx + 180.0) / 0.25).astype(np.int64)
        gx1 = np.floor((maxx + 180.0) / 0.25).astype(np.int64)
        gy0 = np.floor((miny + 90.0) / 0.25).astype(np.int64)
        gy1 = np.floor((maxy + 90.0) / 0.25).astype(np.int64)
        cells = []
        for i in range(gx0.size):
            xs = np.arange(gx0[i], gx1[i] + 1)
            ys = np.arange(gy0[i], gy1[i] + 1)
            cells.append(
                (ys[:, None] * np.int64(1440) + xs[None, :]).ravel()
            )
        flat = np.concatenate(cells) if cells else np.array([], np.int64)
        return pa.table(
            {
                "grid_cell": pa.array(flat),
                "n_footprints": pa.array(np.ones(flat.size, np.int64)),
            }
        )

    return shuffle_mod.aggregate(
        bb.map_batches(fan, batch_format="pyarrow"),
        "grid_cell",
        pa.schema(_i64("grid_cell", "n_footprints")),
    )


def q_key_skew_report(sf_dir: str):
    """KEY-SKEW report (NEW round 5) — the pre-shuffle diagnostic this
    engine's own salting decisions depend on (CLAUDE.md: skewed keys
    hurt; salt hot keys): for candidate shuffle keys, the per-key count
    distribution summarized as n_rows / n_keys / max key count / exact
    p99 key count (rank ceil(0.99·n), the quantile_disc convention) /
    Σ count² (the collision mass a hash exchange would move).

    Shape at scale: per-key counts fold through per-batch partials
    (key-cardinality-bounded — these are the keys one would GROUP BY
    anyway); the distribution summary ranks the key-sized vector."""
    specs = [
        ("orders.o_custkey", "orders", "o_custkey"),
        ("lineitem.l_partkey", "lineitem", "l_partkey"),
        ("lineitem.l_suppkey", "lineitem", "l_suppkey"),
    ]
    rows = []
    for name, table, col in specs:
        ds = _read(sf_dir, table, SMALL_TABLE_BLOCKS, columns=[col])

        def part(b: pa.Table, c=col) -> pa.Table:
            return pa.table({"k": b[c], "n": np.ones(b.num_rows, np.int64)})

        cnt = shuffle_mod.fold(
            ds.map_batches(part, batch_format="pyarrow"),
            "k",
            pa.schema(_i64("k", "n")),
        )["n"].to_numpy()
        nk = cnt.size
        if not nk:  # SUM, MAX and the rank lookup over no keys are NULL
            rows.append((name, None, 0, None, None, None))
            continue
        cnt_sorted = np.sort(cnt)
        p99 = int(cnt_sorted[int(np.ceil(0.99 * nk)) - 1])
        rows.append(
            (
                name,
                int(cnt.sum()),
                nk,
                int(cnt.max()),
                p99,
                int(np.sum(cnt * cnt)),
            )
        )
    return pa.table(
        {
            "key": pa.array([r[0] for r in rows], pa.string()),
            "n_rows": pa.array([r[1] for r in rows], pa.int64()),
            "n_keys": pa.array([r[2] for r in rows], pa.int64()),
            "max_cnt": pa.array([r[3] for r in rows], pa.int64()),
            "p99_cnt": pa.array([r[4] for r in rows], pa.int64()),
            "sumsq": pa.array([r[5] for r in rows], pa.int64()),
        }
    )


def q_ann_filtered(sf_dir: str):
    """FILTERED vector retrieval (NEW round 5) — the
    metadata-constrained ANN shape every production vector store serves
    ("nearest neighbors WHERE label = X"): cosine top-10 per query
    restricted to candidates sharing the query's label. Filtering
    happens IN the scan (pre-filter — the correct recall-1.0 semantics,
    vs post-filtering a larger unfiltered top-k).

    Shape at scale: one label-filtered pass per distinct query label
    (labels partition the candidate stream map-side; the broadcast
    top-k machinery is the knn_embeddings kernel unchanged)."""
    q = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding", "label"],
        filters=[("vec_id", "<", 3)],
    )
    qids = q["vec_id"].to_numpy(zero_copy_only=False)
    qlab = q["label"].to_numpy(zero_copy_only=False)
    qmat = np.asarray(q["embedding"].to_pylist(), dtype=np.float64)
    ds = _read(
        sf_dir, "embeddings", SMALL_TABLE_BLOCKS,
        columns=["vec_id", "embedding", "label"],
    )
    outs = []
    for lab in np.unique(qlab):
        sel = qlab == lab
        filtered = ds.map_batches(
            lambda b, L=int(lab): b.filter(
                pc.equal(b["label"], pa.scalar(L, b["label"].type))
            ),
            batch_format="pyarrow",
        )
        t = topk_cosine(
            filtered, qmat[sel], qids[sel], k=EMB_K, col="embedding",
            id_col="vec_id",
        )
        outs.append(t.select(["query_id", "vec_id", "rank"]))
    t = pa.concat_tables(outs)
    return pa.table(
        {
            "query_id": pc.cast(t["query_id"], pa.int64()),
            "vec_id": pc.cast(t["vec_id"], pa.int64()),
            "rank": t["rank"],
        }
    )


def q_benford_audit(sf_dir: str):
    """BENFORD first-digit audit (NEW round 5) — the fraud/anomaly
    screen auditors run over monetary columns: the leading-digit
    distribution of order totals (cents) per order priority, exact
    counts (a Benford-conforming column shows ~30% ones; a fabricated
    one doesn't).

    Shape at scale: leading-digit extraction is a vectorized string
    head (identical SUBSTR semantics both engines — cents are positive
    ints, no sign/zero edge); counts fold as O(blocks × 9 × priorities)
    partials."""
    ds = _read(
        sf_dir, "orders", SMALL_TABLE_BLOCKS,
        columns=["o_orderpriority", "o_totalprice"],
    )

    def digits(b: pa.Table) -> pa.Table:
        cents = _half_up(
            b["o_totalprice"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        return pa.table(
            {
                "o_orderpriority": b["o_orderpriority"],
                "digit": cents.astype("U1").astype(np.int64),  # leading digit
                "n": np.ones(len(cents), np.int64),
            }
        )

    return shuffle_mod.fold(
        ds.map_batches(digits, batch_format="pyarrow"),
        ["o_orderpriority", "digit"],
        pa.schema([("o_orderpriority", pa.string()), *_i64("digit", "n")]),
    )


def q_pareto_8020(sf_dir: str):
    """REVENUE CONCENTRATION curve (NEW round 5) — the 80/20 analysis:
    customers ranked by total order revenue (desc, custkey tie), split
    into 10 rank deciles via the exact NTILE rule (rank−1)·10 // n,
    each decile's exact revenue cents and customer count. The "top 10%
    of customers carry X% of revenue" table.

    Shape at scale: per-customer revenue folds O(blocks × customers)
    partials; the decile split ranks the CUSTOMER-sized vector."""
    ds = _read(
        sf_dir, "orders", SMALL_TABLE_BLOCKS,
        columns=["o_custkey", "o_totalprice"],
    )

    def part(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_custkey": b["o_custkey"],
                "rev": _half_up(
                    b["o_totalprice"].to_numpy(zero_copy_only=False) * 100
                ).astype(np.int64),
            }
        )

    u = shuffle_mod.fold(
        ds.map_batches(part, batch_format="pyarrow"),
        "o_custkey",
        pa.schema(_i64("o_custkey", "rev")),
    )
    ck = u["o_custkey"].to_numpy()
    rev = u["rev"].to_numpy()
    order = np.lexsort((ck, -rev))
    rank = np.arange(order.size, dtype=np.int64)
    decile = rank * 10 // order.size
    df = pd.DataFrame({"decile": decile, "rev": rev[order]})
    agg = df.groupby("decile", sort=True)["rev"].agg(["sum", "size"])
    return pa.table(
        {
            "decile": pa.array(agg.index.to_numpy(np.int64)),
            "n_customers": pa.array(agg["size"].to_numpy(np.int64)),
            "rev_c": pa.array(agg["sum"].to_numpy(np.int64)),
        }
    )


def q_cf_candidates(sf_dir: str):
    """Collaborative-filtering CANDIDATE pairs (NEW round 5) — the
    user-user similarity blocking step recommenders run: customer pairs
    sharing ≥ 6 distinct purchased parts (the bipartite
    customer→part projection of the order graph).

    Shape at scale: the order→customer map broadcasts once (order-key
    dimension); distinct (customer, part) incidences co-locate by a
    PART bucket (per-bucket dedup IS global — pk → one bucket); parts
    bought by > 200 customers are dropped before the k² pair expansion
    (the boilerplate/skew guard, oracle-mirrored); per-bucket partial
    pair counts ride ONE salted aggregate; the ≥ 6 filter runs
    post-merge."""
    import ray

    DF_CAP = 200
    THR = 6
    om = pq.read_table(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey"],
    )
    cust_of = dict(
        zip(
            om["o_orderkey"].to_numpy(zero_copy_only=False),
            om["o_custkey"].to_numpy(zero_copy_only=False),
        )
    )
    ref = ray.put(cust_of)
    ds = _read(
        sf_dir, "lineitem", SMALL_TABLE_BLOCKS,
        columns=["l_orderkey", "l_partkey"],
    )

    def incid(b: pa.Table, r=ref) -> pa.Table:
        co = stages._broadcast_memo(r)
        ok = b["l_orderkey"].to_numpy(zero_copy_only=False)
        df = pd.DataFrame(
            {
                "ck": pd.Series(ok).map(co).to_numpy(np.int64),
                "pk": b["l_partkey"].to_numpy(zero_copy_only=False),
            }
        ).drop_duplicates()
        return shuffle_mod.from_pandas_clean(df)

    def pairs(g: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "ck": g["ck"].to_numpy(zero_copy_only=False),
                "pk": g["pk"].to_numpy(zero_copy_only=False),
            }
        ).drop_duplicates().sort_values(["pk", "ck"], kind="stable")
        sizes = df.groupby("pk", sort=False)["ck"].size()
        keep = sizes[sizes <= DF_CAP].index
        df = df[df["pk"].isin(keep)]
        pk = df["pk"].to_numpy(np.int64)
        ck = df["ck"].to_numpy(np.int64)
        outs = []
        d = 1
        while True:
            same = pk[:-d] == pk[d:] if d < pk.size else np.zeros(0, bool)
            if not same.any():
                break
            outs.append((ck[:-d][same], ck[d:][same]))
            d += 1
        if not outs:
            return pa.table(
                {"pairkey": pa.array([], pa.int64()),
                 "n": pa.array([], pa.int64())}
            )
        a = np.concatenate([x for x, _ in outs])
        b2 = np.concatenate([y for _, y in outs])
        part = (
            pd.DataFrame({"pairkey": (a << np.int64(32)) + b2})
            .groupby("pairkey", sort=False)
            .size()
            .reset_index(name="n")
        )
        part["n"] = part["n"].astype(np.int64)
        return shuffle_mod.from_pandas_clean(part)

    partials = shuffle_mod.bucket_reduce(
        ds.map_batches(incid, batch_format="pyarrow"),
        "pk",
        pairs,
    )
    agg = shuffle_mod.aggregate(partials, "pairkey", pa.schema(_i64("pairkey", "n")))

    def finalize(b: pa.Table) -> pa.Table:
        n = b["n"].to_numpy(zero_copy_only=False)
        keep = n >= THR
        k = b["pairkey"].to_numpy(zero_copy_only=False)[keep]
        return pa.table(
            {
                "c1": pa.array(k >> np.int64(32)),
                "c2": pa.array(k & np.int64((1 << 32) - 1)),
                "n_shared": pa.array(n[keep]),
            }
        )

    return agg.map_batches(finalize, batch_format="pyarrow")


def q_grid_rle(sf_dir: str):
    """Grid RUN-LENGTH profile (NEW round 5) — the gaps-and-islands
    analysis over the occupied cell grid (how contiguous is coverage
    per latitude row — the stat that sizes RLE compression and scanline
    processing): per grid row gy, occupied-cell count, number of RUNS
    (maximal consecutive-gx islands), and the longest run.

    Shape at scale: from the distributed cell aggregate, run boundaries
    are a vectorized consecutive-gx compare per row after ONE gy-bucket
    co-location; all-integer output (SQL mirror: the classic
    gx − ROW_NUMBER() island key)."""
    from raycells.geo import cellid

    NX = cellid.GRID_NX
    base = _cell_base_agg(sf_dir)

    def runs(g: pa.Table) -> pa.Table:
        gc = np.sort(np.unique(g["grid_cell"].to_numpy(zero_copy_only=False)))
        gx, gy = gc % NX, gc // NX
        new_run = np.ones(gc.size, bool)
        if gc.size > 1:
            new_run[1:] = (gy[1:] != gy[:-1]) | (gx[1:] != gx[:-1] + 1)
        run_id = np.cumsum(new_run) - 1
        run_len = np.bincount(run_id)
        run_gy = gy[new_run]
        df = pd.DataFrame({"gy": run_gy, "rl": run_len})
        out = df.groupby("gy", sort=False).agg(
            n_runs=("rl", "size"), max_run=("rl", "max"), n_cells=("rl", "sum")
        ).reset_index()
        for c in ("n_runs", "max_run", "n_cells"):
            out[c] = out[c].astype(np.int64)
        return shuffle_mod.from_pandas_clean(out)

    with_gy = base.map_batches(
        lambda b: b.append_column(
            "gy", pa.array(b["grid_cell"].to_numpy(zero_copy_only=False) // NX)
        ),
        batch_format="pyarrow",
    )
    return shuffle_mod.bucket_reduce(with_gy, "gy", runs)


def q_seasonal_anomaly(sf_dir: str):
    """SEASONAL anomaly screen (NEW round 5) — events whose value is
    > 3× their own (type, dow, hour) seasonal-cell MEAN, the
    baseline-aware alternative to global z-scores (a Friday-evening
    spike is judged against Friday evenings): cross-multiplied exact
    predicate n_cell · x > 3 · sum_cell — no float mean anywhere.

    Shape at scale: pass 1 is the seasonality_profile fold (bounded by
    types × 168 cells); pass 2 re-streams events through a stateless
    broadcast filter."""
    prof = (
        q_seasonality_profile(sf_dir)
        .to_pandas()
        .rename(columns={"n_events": "n", "sum_c": "s"})
    )
    ds = _read(
        sf_dir, "events", SMALL_TABLE_BLOCKS,
        columns=["event_id", "ts", "event_type", "value"],
    )

    def flag(b: pa.Table, pf=prof) -> pa.Table:
        us = b["ts"].to_numpy(zero_copy_only=False).view(np.int64)
        df = pd.DataFrame(
            {
                "event_id": b["event_id"].to_numpy(zero_copy_only=False),
                "event_type": b["event_type"].to_numpy(
                    zero_copy_only=False
                ),
                "dow": (us // np.int64(86_400_000_000) + 3) % 7,
                "hour": (us // np.int64(3_600_000_000)) % 24,
                "x": _half_up(
                    b["value"].to_numpy(zero_copy_only=False) * 100
                ).astype(np.int64),
            }
        ).merge(pf, on=["event_type", "dow", "hour"])
        keep = df["n"].to_numpy(np.int64) * df["x"].to_numpy(np.int64) > (
            3 * df["s"].to_numpy(np.int64)
        )
        out = df[keep]
        return pa.table(
            {
                "event_id": pa.array(out["event_id"].to_numpy(np.int64)),
                "event_type": pa.array(out["event_type"], pa.string()),
                "x": pa.array(out["x"].to_numpy(np.int64)),
                "cell_n": pa.array(out["n"].to_numpy(np.int64)),
                "cell_sum": pa.array(out["s"].to_numpy(np.int64)),
            }
        )

    return ds.map_batches(flag, batch_format="pyarrow")


def q_knn_tiles_haversine(sf_dir: str):
    """SPHERICAL kNN tile lookup (NEW round 5) — the great-circle
    variant of knn_tiles: top-8 DISTINCT tiles per city query point
    under the haversine ORDER (ranking by the hav term sin²(Δφ/2) +
    cosφ₁·cosφ₂·sin²(Δλ/2), which is monotone in great-circle distance
    — no asin/atan2 needed, so the whole key stays inside the
    libm-parity-verified sin/cos/radians set, CLAUDE.md).

    Shape at scale: per-batch distinct-seed hav to the 3 broadcast
    queries → per-batch top-8 partials → driver merges O(blocks × 24)
    candidate rows."""
    from raycells.io import tilestore

    QPTS = [(0, -74.0, 40.7), (1, 2.35, 48.85), (2, 139.7, 35.7)]
    K = 8

    def part(b: pa.Table) -> pa.Table:
        seeds = np.unique(tilestore.seed_of_refs(b["media_ref"]))
        lon, lat = tilestore.centroids(seeds)
        rlon, rlat = np.radians(lon), np.radians(lat)
        out = {"query_id": [], "seed": [], "hav": []}
        for qid, qlon, qlat in QPTS:
            rqlon, rqlat = np.radians(qlon), np.radians(qlat)
            s1 = np.sin((rlat - rqlat) / 2.0)
            s2 = np.sin((rlon - rqlon) / 2.0)
            hav = s1 * s1 + np.cos(rqlat) * np.cos(rlat) * (s2 * s2)
            top = np.lexsort((seeds, hav))[:K]
            out["query_id"].append(np.full(top.size, qid, np.int64))
            out["seed"].append(seeds[top])
            out["hav"].append(hav[top])
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out["query_id"])),
                "seed": pa.array(np.concatenate(out["seed"])),
                "hav": pa.array(np.concatenate(out["hav"]), pa.float64()),
            }
        )

    cand = (
        _exploded(sf_dir)
        .map_batches(part, batch_format="pyarrow")
        .to_pandas()
        .drop_duplicates(["query_id", "seed"])
    )
    rows = []
    for qid, g in cand.groupby("query_id", sort=True):
        hv = g["hav"].to_numpy(np.float64)
        sd = g["seed"].to_numpy(np.int64)
        top = np.lexsort((sd, hv))[:K]
        for r, i in enumerate(top, start=1):
            rows.append((int(qid), r, int(sd[i]), float(hv[i])))
    return pa.table(
        {
            "query_id": pa.array([r[0] for r in rows], pa.int64()),
            "rank": pa.array([r[1] for r in rows], pa.int64()),
            "seed": pa.array([r[2] for r in rows], pa.int64()),
            "hav": pa.array([r[3] for r in rows], pa.float64()),
        }
    )


def q_ttr_by_source(sf_dir: str):
    """Lexical DIVERSITY report (NEW round 5) — type-token ratio inputs
    per source (the corpus-quality stat next to token_stats): total
    tokens, DISTINCT token types, and hapax legomena (once-only
    tokens). All exact integers; TTR/hapax-rate derive trivially.

    Shape at scale: per-batch (source, token) pre-dedup partials ride
    ONE coarse token-bucket exchange (same (source, token) → same
    bucket, so per-bucket distinct/count partials are globally
    correct); the driver folds O(buckets × sources) rows. Total tokens
    fold map-side separately (no exchange)."""
    ds = _read(
        sf_dir, "documents", SMALL_TABLE_BLOCKS, columns=["source", "text"]
    )

    def tok(b: pa.Table) -> pa.Table:
        src = b["source"].to_numpy(zero_copy_only=False)
        _, flat, parent = ta._split(b["text"])
        toks = flat.to_numpy(zero_copy_only=False)
        df = pd.DataFrame({"source": src[parent], "token": toks})
        df = df[df["token"] != ""]
        out = (
            df.groupby(["source", "token"], sort=False)
            .size()
            .reset_index(name="n")
        )
        out["n"] = out["n"].astype(np.int64)
        return shuffle_mod.from_pandas_clean(out)

    def per_type(g: pa.Table) -> pa.Table:
        df = (
            g.select(["source", "token", "n"]).to_pandas()
            .groupby(["source", "token"], sort=False)["n"]
            .sum()
            .reset_index()
        )
        n = df["n"].to_numpy(np.int64)
        return pa.table(
            {
                "source": pa.array(df["source"], pa.string()),
                "n_tokens": n,
                "n_types": np.ones(len(n), np.int64),
                "n_hapax": (n == 1).astype(np.int64),
            }
        )

    return shuffle_mod.fold(
        shuffle_mod.bucket_reduce(
            ds.map_batches(tok, batch_format="pyarrow"), "token", per_type
        ),
        "source",
        pa.schema(
            [("source", pa.string()), *_i64("n_tokens", "n_types", "n_hapax")]
        ),
    )


def q_top_copurchases(sf_dir: str):
    """"Customers also bought" TOP-K (NEW round 5) — the per-item
    recommendation list: each part's top-3 co-purchase partners by
    (n_orders DESC, partner ASC), over the pair counts with ≥ 2
    shared orders.

    Shape at scale: the copurchase pair aggregate fans both directions
    and runs through grouped_topk — only per-batch survivors cross the
    ranking exchange."""
    from raycells.engine.joins import grouped_topk

    agg = _copurchase_pairkeys(sf_dir)

    def fan(b: pa.Table) -> pa.Table:
        k = b["pairkey"].to_numpy(zero_copy_only=False)
        n = b["n"].to_numpy(zero_copy_only=False)
        keep = n >= 2
        k, n = k[keep], n[keep]
        p1, p2 = k >> np.int64(32), k & np.int64((1 << 32) - 1)
        return pa.table(
            {
                "p_partkey": pa.array(np.concatenate([p1, p2])),
                "partner": pa.array(np.concatenate([p2, p1])),
                # rank on (n DESC, partner ASC): encode partner into the
                # order column so grouped_topk's single order key is
                # enough — n ≤ 2^20 orders, partner < 2^32
                "neg_partner": pa.array(
                    -np.concatenate([p2, p1])
                ),
                "n_orders": pa.array(np.tile(n, 2)),
            }
        )

    fanned = agg.map_batches(fan, batch_format="pyarrow")
    out = grouped_topk(
        fanned, "p_partkey", 3, order_col="n_orders",
        tiebreak_col="neg_partner",
    )

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "p_partkey": t["p_partkey"],
                "rank": pc.cast(t["rank"], pa.int64()),
                "partner": t["partner"],
                "n_orders": pc.cast(t["n_orders"], pa.int64()),
            }
        )

    if isinstance(out, pa.Table):
        return finalize(out)
    return out.map_batches(finalize, batch_format="pyarrow")


def q_tile_texture(sf_dir: str):
    """Tile TEXTURE complexity (NEW round 5) — the distinct-value
    richness of each tile's 8×8 window rolled up per grid cell (a
    cheap entropy proxy: flat water ≈ few distinct values, urban
    clutter ≈ many). Exact integers (COUNT DISTINCT of LCG values).

    Shape at scale: per-tile distinct counting is a vectorized
    row-sort + boundary count on the (B, 64) window matrix — map-side
    only; one salted per-cell rollup."""
    from raycells.geo import cellid
    from raycells.io import tilestore

    WINDOW, WSIZE = (0, 0), (8, 8)

    def texture(b: pa.Table) -> pa.Table:
        seeds = tilestore.seed_of_refs(b["media_ref"])
        v = tilestore.synth_band_window(seeds, 4, WINDOW, WSIZE, WSIZE).astype(
            np.int64
        )
        sv = np.sort(v, axis=1)
        distinct = 1 + (sv[:, 1:] != sv[:, :-1]).sum(axis=1)
        lon, lat = tilestore.centroids(seeds)
        distinct = pa.array(distinct.astype(np.int64))
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "grid_cell": pa.array(cellid.grid_cell(lon, lat), pa.int64()),
                "n_tiles": np.ones(b.num_rows, np.int64),
                "sum_n_distinct": distinct,
                "min_n_distinct": distinct,
                "max_n_distinct": distinct,
            }
        )

    return shuffle_mod.aggregate(
        _exploded(sf_dir).map_batches(texture, batch_format="pyarrow"),
        "grid_cell",
        pa.schema(_i64("grid_cell", "n_tiles", "sum_n_distinct", "min_n_distinct",
                       "max_n_distinct")),
        {"min_n_distinct": "min", "max_n_distinct": "max"},
    )


def q_footprint_selectivity(sf_dir: str):
    """Spatial-index SELECTIVITY diagnostics (NEW round 5) — per
    footprint, bbox-candidate tile count vs exact PIP hit count: the
    measured effectiveness of the bbox prejoin this engine's own PIP
    oracles and joins rely on (n_exact / n_bbox = filter precision;
    a low ratio flags skinny/concave shapes that deserve a finer
    cover).

    Shape at scale: ONE broadcast pass evaluates both predicates per
    (batch × candidate footprint) — the exact test only runs on bbox
    survivors, exactly like the production join; O(blocks ×
    footprints) count partials fold on the driver."""
    import ray

    from raycells.geo.pip import points_in_polygon
    from raycells.io import footprints as fp_mod
    from raycells.io import tilestore

    fps = fp_mod.rings_as_numpy(fp_mod.generate_footprints())
    ref = ray.put(fps)

    def pts(b: pa.Table) -> pa.Table:
        seeds = tilestore.seed_of_refs(b["media_ref"])
        lon, lat = tilestore.centroids(seeds)
        return pa.table(
            {
                "lon": pa.array(lon, pa.float64()),
                "lat": pa.array(lat, pa.float64()),
            }
        )

    class _Selectivity:
        def __init__(self, r):
            from raycells.engine.stages import polygon_bbox

            self.fps = stages._broadcast_memo(r) if hasattr(r, "hex") else r
            self.bboxes = np.array(
                [polygon_bbox(ring) for _, _, ring in self.fps]
            )

        def __call__(self, batch: pa.Table) -> pa.Table:
            lon = batch["lon"].to_numpy(zero_copy_only=False)
            lat = batch["lat"].to_numpy(zero_copy_only=False)
            ids, nb, ne = [], [], []
            for f, (fid, _cat, ring) in enumerate(self.fps):
                bb = self.bboxes[f]
                cand = np.nonzero(
                    (lon >= bb[0]) & (lon <= bb[2])
                    & (lat >= bb[1]) & (lat <= bb[3])
                )[0]
                if cand.size == 0:
                    continue
                hits = int(
                    points_in_polygon(lon[cand], lat[cand], ring).sum()
                )
                ids.append(fid)
                nb.append(int(cand.size))
                ne.append(hits)
            return pa.table(
                {
                    "footprint_id": pa.array(ids, pa.string()),
                    "n_bbox": pa.array(np.asarray(nb, np.int64)),
                    "n_exact": pa.array(np.asarray(ne, np.int64)),
                }
            )

    return shuffle_mod.fold(
        _exploded(sf_dir)
        .map_batches(pts, batch_format="pyarrow")
        .map_batches(
            stages.broadcast_task(_Selectivity, ref), batch_format="pyarrow"
        ),
        "footprint_id",
        pa.schema([("footprint_id", pa.string()), *_i64("n_bbox", "n_exact")]),
    )


def q_contour_cases(sf_dir: str):
    """MARCHING-SQUARES contour census (NEW round 5) — the
    raster→vector contouring primitive: per tile window, the count of
    2×2 pixel blocks whose corners STRADDLE the threshold (marching-
    squares cases 1..14 — exactly the blocks that emit contour
    segments at T), rolled up per grid cell. The isoline-density
    surface cartographers compute before vectorizing.

    Shape at scale: block cases are one vectorized 4-corner compare
    over the (B, 8, 8) window tensor — map-side; one salted per-cell
    rollup; oracle computes each corner inline from the closed-form
    value formula (the tile_convolve precedent)."""
    from raycells.geo import cellid
    from raycells.io import tilestore

    T = 32760
    WINDOW, WSIZE = (0, 0), (8, 8)

    def cases(b: pa.Table) -> pa.Table:
        seeds = tilestore.seed_of_refs(b["media_ref"])
        v = tilestore.synth_band_window(
            seeds, 4, WINDOW, WSIZE, WSIZE
        ).astype(np.int64).reshape(-1, 8, 8)
        gt = v > T
        a = gt[:, :-1, :-1]
        bq = gt[:, :-1, 1:]
        c = gt[:, 1:, :-1]
        d = gt[:, 1:, 1:]
        allhi = a & bq & c & d
        alllo = ~(a | bq | c | d)
        crossing = (~(allhi | alllo)).sum(axis=(1, 2)).astype(np.int64)
        lon, lat = tilestore.centroids(seeds)
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "grid_cell": pa.array(cellid.grid_cell(lon, lat), pa.int64()),
                "n_tiles": np.ones(b.num_rows, np.int64),
                "sum_n_crossing": pa.array(crossing),
                "max_n_crossing": pa.array(crossing),
            }
        )

    return shuffle_mod.aggregate(
        _exploded(sf_dir).map_batches(cases, batch_format="pyarrow"),
        "grid_cell",
        pa.schema(_i64("grid_cell", "n_tiles", "sum_n_crossing", "max_n_crossing")),
        {"max_n_crossing": "max"},
    )


def q_morton_cells(sf_dir: str):
    """Z-ORDER (Morton) cell encoding (NEW round 5) — the third
    space-filling-curve family next to Hilbert and S2: tile centroids
    keyed to a level-12 Morton code by bit-interleaving the 4096-wide
    integer-scaled coordinates (pure integer arithmetic — exact
    cross-engine, the quadkey/Bing-tile scheme), with per-curve-cell
    tile counts.

    Shape at scale: encoding is map-side bit arithmetic; ONE salted
    aggregate on the curve key (Z-order's locality makes these keys
    the natural range-partition export order)."""
    from raycells.io import tilestore

    def enc(b: pa.Table) -> pa.Table:
        seeds = tilestore.seed_of_refs(b["media_ref"])
        xe, ye = tilestore.centroids_e3(seeds)
        xi = (xe + 180000) * 4096 // 360001
        yi = (ye + 90000) * 4096 // 180001
        m = np.zeros(xi.size, np.int64)
        for k in range(12):
            m |= ((xi >> k) & 1) << (2 * k)
            m |= ((yi >> k) & 1) << (2 * k + 1)
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "morton": pa.array(m),
                "n_tiles": np.ones(b.num_rows, np.int64),
            }
        )

    return shuffle_mod.aggregate(
        _exploded(sf_dir).map_batches(enc, batch_format="pyarrow"),
        "morton",
        pa.schema(_i64("morton", "n_tiles")),
    )


def q_fulfillment_lag(sf_dir: str):
    """Order FULFILLMENT-LAG distribution (NEW round 5) — the ops/SLA
    metric: days from order date to the LAST line-item shipment, exact
    p50/p90 per order priority (rank ceil(q·n), the quantile_disc
    convention).

    Shape at scale: the per-order max-shipdate aggregate co-partitions
    with orders through ONE coarse orderkey-bucket exchange (both
    sides keyed identically — no broadcast of the fact table); the
    per-priority lag histogram folds O(blocks × priorities × lag
    domain) partials."""
    li = _read(
        sf_dir, "lineitem", SMALL_TABLE_BLOCKS,
        columns=["l_orderkey", "l_shipdate"],
    )
    orders = _read(
        sf_dir, "orders", SMALL_TABLE_BLOCKS,
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
    )
    DAY = np.int64(86_400_000_000)
    hist_schema = pa.schema([("prio", pa.string()), *_i64("lag", "n")])

    def li_part(b: pa.Table) -> pa.Table:
        return shuffle_mod.from_pandas_clean(
            pd.DataFrame(
                {
                    "key": b["l_orderkey"].to_numpy(zero_copy_only=False),
                    "ship_us": b["l_shipdate"]
                    .to_numpy(zero_copy_only=False)
                    .view(np.int64),
                }
            )
            .groupby("key", sort=False)["ship_us"]
            .max()
            .reset_index()
        )

    def o_part(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "key": b["o_orderkey"],
                "order_us": pa.array(
                    b["o_orderdate"].to_numpy(zero_copy_only=False).view(
                        np.int64
                    )
                ),
                "prio": b["o_orderpriority"],
            }
        )

    def lag_hist(ships: pa.Table, od: pa.Table) -> pa.Table:
        if ships.num_rows == 0 or od.num_rows == 0:
            return hist_schema.empty_table()
        li_max = ships.to_pandas().groupby("key", sort=False)["ship_us"].max()
        j = od.to_pandas().set_index("key").join(li_max.rename("ship_max"), how="inner")
        lag = ((j["ship_max"] - j["order_us"]) // DAY).to_numpy(np.int64)
        return pa.table(
            {"prio": pa.array(j["prio"].to_numpy(object), pa.string()),
             "lag": lag, "n": np.ones(len(lag), np.int64)}
        )

    hist = shuffle_mod.fold(
        shuffle_mod.bucket_reduce(
            [li.map_batches(li_part, batch_format="pyarrow"),
             orders.map_batches(o_part, batch_format="pyarrow")],
            "key",
            lag_hist,
        ),
        ["prio", "lag"],
        hist_schema,
    ).to_pandas()
    rows = []
    for prio, g in hist.groupby("prio", sort=True):
        cum = g["n"].cumsum().to_numpy(np.int64)
        total = int(cum[-1])
        vals = g["lag"].to_numpy(np.int64)

        def pick(q):
            return int(vals[np.searchsorted(cum, int(np.ceil(q * total)))])

        rows.append((prio, total, pick(0.5), pick(0.9)))
    return pa.table(
        {
            "o_orderpriority": pa.array([r[0] for r in rows], pa.string()),
            "n_orders": pa.array([r[1] for r in rows], pa.int64()),
            "p50_lag": pa.array([r[2] for r in rows], pa.int64()),
            "p90_lag": pa.array([r[3] for r in rows], pa.int64()),
        }
    )


def q_sourcing_concentration(sf_dir: str):
    """SOURCING concentration (NEW round 5) — supply-chain risk: per
    part, the number of distinct suppliers and the top supplier's
    line share in exact ppm (top_n·10⁶ // total), flagging
    single-sourced parts.

    Shape at scale: (part, supp) counts co-locate by ONE part-bucket
    exchange (per-bucket counts are global — the pair key routes to
    one bucket); per-bucket argmax emits one row per part."""
    ds = _read(
        sf_dir, "lineitem", SMALL_TABLE_BLOCKS,
        columns=["l_partkey", "l_suppkey"],
    )

    def counts(b: pa.Table) -> pa.Table:
        out = (
            pd.DataFrame(
                {
                    "l_partkey": b["l_partkey"].to_numpy(
                        zero_copy_only=False
                    ),
                    "l_suppkey": b["l_suppkey"].to_numpy(
                        zero_copy_only=False
                    ),
                }
            )
            .groupby(["l_partkey", "l_suppkey"], sort=False)
            .size()
            .reset_index(name="n")
        )
        out["n"] = out["n"].astype(np.int64)
        return shuffle_mod.from_pandas_clean(out)

    def conc(g: pa.Table) -> pa.Table:
        df = (
            pd.DataFrame(
                {
                    "l_partkey": g["l_partkey"].to_numpy(
                        zero_copy_only=False
                    ),
                    "l_suppkey": g["l_suppkey"].to_numpy(
                        zero_copy_only=False
                    ),
                    "n": g["n"].to_numpy(zero_copy_only=False),
                }
            )
            .groupby(["l_partkey", "l_suppkey"], sort=False)["n"]
            .sum()
            .reset_index()
            .sort_values(
                ["l_partkey", "n", "l_suppkey"],
                ascending=[True, False, True],
                kind="stable",
            )
        )
        top = df.groupby("l_partkey", sort=False).first().reset_index()
        agg = df.groupby("l_partkey", sort=False)["n"].agg(
            ["sum", "size"]
        ).reset_index()
        out = top.merge(agg, on="l_partkey")
        share = out["n"].to_numpy(np.int64) * 1_000_000 // out[
            "sum"
        ].to_numpy(np.int64)
        res = pd.DataFrame(
            {
                "l_partkey": out["l_partkey"].to_numpy(np.int64),
                "n_suppliers": out["size"].to_numpy(np.int64),
                "n_lines": out["sum"].to_numpy(np.int64),
                "top_suppkey": out["l_suppkey"].to_numpy(np.int64),
                "top_share_ppm": share,
            }
        )
        return shuffle_mod.from_pandas_clean(res)

    return shuffle_mod.bucket_reduce(
        ds.map_batches(counts, batch_format="pyarrow"),
        "l_partkey",
        conc,
    )


def q_vector_norm_audit(sf_dir: str):
    """Vector NORM audit (NEW round 5) — the embedding-table QA step
    (un-normalized or zero vectors poison cosine retrieval): per label,
    exact quantized norm² statistics (min / max / sum) and the
    zero-vector count, all integers under the shared 2⁻²⁰ quantization.

    Shape at scale: purely map-side row reductions, O(blocks × labels)
    partials."""
    ds = _read(
        sf_dir, "embeddings", SMALL_TABLE_BLOCKS,
        columns=["embedding", "label"],
    )

    schema = pa.schema(
        _i64("label", "n", "min_norm2", "max_norm2", "sum_norm2", "n_zero")
    )

    def part(b: pa.Table) -> pa.Table:
        col = b["embedding"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False)
        n = b.num_rows
        if n == 0:
            return schema.empty_table()
        q = dd.quantize_embeddings(flat.reshape(n, len(flat) // n))
        norm2 = np.sum(q * q, axis=1).astype(np.int64)
        return pa.table(
            {
                "label": pc.cast(b["label"], pa.int64()),
                "n": np.ones(n, np.int64),
                "min_norm2": norm2,
                "max_norm2": norm2,
                "sum_norm2": norm2,
                "n_zero": (norm2 == 0).astype(np.int64),
            }
        )

    return shuffle_mod.fold(
        ds.map_batches(part, batch_format="pyarrow"),
        "label",
        schema,
        ops={"min_norm2": "min", "max_norm2": "max"},
    )


def q_brand_price_rank(sf_dir: str):
    """Within-group PERCENT-RANK export (NEW round 5) — each part's
    price position inside its brand as the exact integer
    (rank−1)·10⁶ // (n−1) (the SQL PERCENT_RANK() contract, ties
    broken by partkey so every rank is deterministic).

    Shape at scale: one brand-bucket exchange co-locates each brand,
    per-bucket vectorized rank; brands are the natural partition."""
    ds = _read(
        sf_dir, "part", SMALL_TABLE_BLOCKS,
        columns=["p_partkey", "p_brand", "p_retailprice"],
    )

    def rank(g: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "p_partkey": g["p_partkey"].to_numpy(zero_copy_only=False),
                "p_brand": g["p_brand"].to_numpy(zero_copy_only=False),
                "price_c": _half_up(
                    g["p_retailprice"].to_numpy(zero_copy_only=False) * 100
                ).astype(np.int64),
            }
        ).sort_values(["p_brand", "price_c", "p_partkey"], kind="stable")
        b = df["p_brand"].to_numpy(object)
        n = df.groupby("p_brand", sort=False)["p_partkey"].transform(
            "size"
        ).to_numpy(np.int64)
        first = np.ones(len(df), bool)
        first[1:] = b[1:] != b[:-1]
        pos = np.arange(len(df), dtype=np.int64)
        start = np.maximum.accumulate(np.where(first, pos, 0))
        r = pos - start  # 0-based rank within brand
        pr = np.where(n > 1, r * 1_000_000 // np.maximum(n - 1, 1), 0)
        out = df.assign(prank_e6=pr.astype(np.int64))
        return shuffle_mod.from_pandas_clean(
            out[["p_partkey", "p_brand", "price_c", "prank_e6"]]
        )

    return shuffle_mod.bucket_reduce(ds, "p_brand", rank)


def q_basket_size_hist(sf_dir: str):
    """BASKET-SIZE distribution (NEW round 5) — orders by distinct-part
    count, the shape recommenders and inventory planners read first.

    Shape at scale: the per-order distinct count co-locates by ONE
    order-bucket exchange (the copurchase stage-1 key), per-bucket
    sizes collapse to a ≤ 7-row histogram partial per bucket, driver
    folds O(buckets × sizes)."""
    ds = _read(
        sf_dir, "lineitem", SMALL_TABLE_BLOCKS,
        columns=["l_orderkey", "l_partkey"],
    )

    def sizes(g: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "o": g["l_orderkey"].to_numpy(zero_copy_only=False),
                "p": g["l_partkey"].to_numpy(zero_copy_only=False),
            }
        ).drop_duplicates()
        s = df.groupby("o", sort=False).size().to_numpy(np.int64)
        return pa.table({"basket_size": s, "n_orders": np.ones(len(s), np.int64)})

    return shuffle_mod.fold(
        shuffle_mod.bucket_reduce(ds, "l_orderkey", sizes),
        "basket_size",
        pa.schema(_i64("basket_size", "n_orders")),
    )

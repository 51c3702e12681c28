"""Per-batch stage functions for the Ray pipelines.

Every function here is ``batch_format="pyarrow"``: Arrow table in, Arrow
table out, vectorized numpy/pyarrow.compute bodies, no per-row Python in
hot paths. Every stage runs as a TASK stage; the broadcast-state stage
(``PIPJoiner``) is a callable class memoized per worker by
``broadcast_task``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from raycells.cells import kernels
from raycells.cells.ctype import CellType
from raycells.geo import cellid
from raycells.geo.pip import points_in_polygon, polygon_bbox
from raycells.io import tilestore

__all__ = [
    "tile_stats",
    "band_stats",
    "band_content_hash",
    "decode_stats",
    "cell_partials",
    "add_cell_ids",
    "PIPJoiner",
    "pip_join_task",
    "broadcast_task",
    "cell_cover_join",
]


_STATS_CHUNK = 64  # rows per reduction chunk (~2 MB working set, CLAUDE.md)


def tile_stats(batch: pa.Table) -> pa.Table:
    """Erased-cell stats per tile: masked min/max (reference fold semantics
    — the (max_value, min_value) seeds PARTICIPATE, so an all-masked tile
    returns inverted sentinels and +NaN cannot beat the float MAX seed),
    mean of valid cells in Float64 (the reference arithmetic type),
    valid/nodata counts.

    Grouped-vectorized (mirrors tilestore.synth_tile_stats's layout): rows
    group by (cell_type, size) — ≤ 20 groups per batch — and each group
    reduces as chunked (C, n) matrices in the ORIGINAL dtype, so int64
    values above 2^53 compare exactly and floats use total-order keys;
    only the final per-tile result converts to float64."""
    n = batch.num_rows
    min_v = np.empty(n, dtype=np.float64)
    max_v = np.empty(n, dtype=np.float64)
    mean_v = np.full(n, np.nan, dtype=np.float64)
    valid_c = np.zeros(n, dtype=np.int64)
    nodata_c = np.zeros(n, dtype=np.int64)

    data = batch["data"].combine_chunks() if isinstance(batch["data"], pa.ChunkedArray) else batch["data"]
    masks = batch["mask"].combine_chunks() if isinstance(batch["mask"], pa.ChunkedArray) else batch["mask"]
    cts = batch["cell_type"].to_pylist()
    sizes = batch["nrows"].to_numpy(zero_copy_only=False).astype(np.int64) * batch[
        "ncols"
    ].to_numpy(zero_copy_only=False)

    groups: dict = {}
    for k in range(n):
        groups.setdefault((cts[k], int(sizes[k])), []).append(k)

    for (ctname, sz), rows_list in groups.items():
        ct = CellType.from_str(ctname)
        lo_sent = ct.dtype.type(ct.max_value().value)  # inverted seeds
        hi_sent = ct.dtype.type(ct.min_value().value)
        key_lo = kernels.total_order_key(np.array([lo_sent], dtype=ct.dtype))[0]
        key_hi = kernels.total_order_key(np.array([hi_sent], dtype=ct.dtype))[0]
        rows = np.asarray(rows_list, dtype=np.int64)
        for lo_i in range(0, rows.size, _STATS_CHUNK):
            chunk = rows[lo_i : lo_i + _STATS_CHUNK]
            g = chunk.size
            mat = np.empty((g, sz), dtype=ct.dtype)
            m = np.empty((g, sz), dtype=bool)
            for j, r in enumerate(chunk):
                mat[j] = np.frombuffer(data[r].as_buffer(), dtype=ct.dtype, count=sz)
                m[j] = kernels.unpack_mask(masks[r].as_buffer(), sz)
            keys = kernels.total_order_key(mat)
            ar = np.arange(g)
            kmin = np.where(m, keys, key_lo)
            pos = np.argmin(kmin, axis=1)
            ck = kmin[ar, pos]
            mn = np.where(ck < key_lo, mat[ar, pos].astype(np.float64), np.float64(lo_sent))
            kmax = np.where(m, keys, key_hi)
            pos = np.argmax(kmax, axis=1)
            ck = kmax[ar, pos]
            mx = np.where(ck > key_hi, mat[ar, pos].astype(np.float64), np.float64(hi_sent))
            nv = m.sum(axis=1)
            sums = np.where(m, mat.astype(np.float64), 0.0).sum(axis=1)
            min_v[chunk] = mn
            max_v[chunk] = mx
            valid_c[chunk] = nv
            nodata_c[chunk] = sz - nv
            with np.errstate(invalid="ignore", divide="ignore"):
                mean_v[chunk] = np.where(nv > 0, sums / np.maximum(nv, 1), np.nan)

    keep = [
        c
        for c in (
            "doc_id", "span_idx", "media_ref", "cell_type",
            "nrows", "ncols", "lon", "lat", "minx", "miny", "maxx", "maxy",
        )
        if c in batch.column_names
    ]
    out = {c: batch[c] for c in keep}
    out.update(
        {
            "min_val": pa.array(min_v),
            "max_val": pa.array(max_v),
            "mean_val": pa.array(mean_v),
            "valid_count": pa.array(valid_c),
            "nodata_count": pa.array(nodata_c),
        }
    )
    return pa.table(out)


def decode_stats(batch: pa.Table, emit: str = "stats", level: int = 8) -> pa.Table:
    """Stateless fused decode→stats for TASK stages.

    ``emit="stats"`` returns the per-tile stats table with cell ids,
    ``"stats_hash"`` adds the band content hash, and ``"partials"``
    returns only ``cell_partials`` of those stats (``_cell_rows``
    keyed by the level-``level`` cell id) without building them.

    The synthetic LCG decode needs no per-worker state (scratch buffers
    are module-level and persist in Ray's reused worker processes), so
    the fused stats path runs as plain ``map_batches`` tasks — no
    per-execution actor-pool startup."""
    seeds = tilestore.seed_of_refs(batch["media_ref"])
    st = tilestore.synth_tile_stats(seeds)
    if emit == "partials":
        return _cell_rows(cellid.encode(st["lon"], st["lat"], level), st)
    out = pa.table(
        {
            "doc_id": batch["doc_id"],
            "span_idx": batch["span_idx"],
            "media_ref": batch["media_ref"],
            "cell_type": pa.array(list(st["cell_type"]), pa.string()),
            "nrows": pa.array(st["nrows"], pa.int32()),
            "ncols": pa.array(st["ncols"], pa.int32()),
            "lon": pa.array(st["lon"], pa.float64()),
            "lat": pa.array(st["lat"], pa.float64()),
            "minx": pa.array(st["minx"], pa.float64()),
            "miny": pa.array(st["miny"], pa.float64()),
            "maxx": pa.array(st["maxx"], pa.float64()),
            "maxy": pa.array(st["maxy"], pa.float64()),
            "min_val": pa.array(st["min_val"]),
            "max_val": pa.array(st["max_val"]),
            "mean_val": pa.array(st["mean_val"]),
            "valid_count": pa.array(st["valid_count"]),
            "nodata_count": pa.array(st["nodata_count"]),
        }
    )
    out = add_cell_ids(out, level=level)
    if emit == "stats_hash":
        # the multimodal-dedup content hash rides the SAME decode scan
        # (VERDICT r4 #3): a combined stats+dedup job decodes each tile
        # once — the hash kernel reuses the worker's scratch buffers
        return out.append_column(
            "content_hash",
            pa.array(
                tilestore.synth_band_content_hash(seeds).view(np.int64),
                pa.int64(),
            ),
        )
    if emit == "stats":
        return out
    raise ValueError(f"decode_stats: unknown emit {emit!r}")


def _cell_rows(key, st) -> pa.Table:
    """``shuffle.merge_cell_agg``'s one input format, one row per tile:
    ``key`` (the uint64 cell id), ``n_tiles`` 1, ``sum_mean`` (the tile's
    ``mean_val``), ``valid_count``, ``nodata_count``, ``min_val`` and
    ``max_val``. ``st`` maps those stat names to numpy or Arrow
    columns; the merge's ``fold`` combines the rows inside each batch."""
    return pa.table(
        {
            "key": pa.array(key, pa.uint64()),
            "n_tiles": pa.array(np.ones(len(key), np.int64)),
            "sum_mean": pa.array(st["mean_val"]),
            **{c: pa.array(st[c])
               for c in ("valid_count", "nodata_count", "min_val", "max_val")},
        }
    )


def cell_partials(batch: pa.Table) -> pa.Table:
    """Row-wise projection of a ``decode_stats(emit="stats")`` or
    ``"stats_hash"`` table onto ``merge_cell_agg``'s input, keyed by its
    ``cell_id``: the same rows ``emit="partials"`` decodes straight to."""
    return _cell_rows(batch["cell_id"], batch)


def band_content_hash(batch: pa.Table, band: int = 4) -> pa.Table:
    """Exact multimodal-dedup key per media span: decode the band tile
    and reduce it to the polynomial content hash in one chunked
    scratch-resident pass (tilestore.synth_band_content_hash). Emits
    24-byte rows (hash, doc, span) — pixels never leave the task."""
    seeds = tilestore.seed_of_refs(batch["media_ref"])
    h = tilestore.synth_band_content_hash(seeds, band)
    return pa.table(
        {
            "content_hash": pa.array(h.view(np.int64), pa.int64()),
            "doc_id": batch["doc_id"],
            "span_idx": pc.cast(batch["span_idx"], pa.int64()),
        }
    )


def band_stats(batch: pa.Table, band: int = 4) -> pa.Table:
    """Decode band tiles (uint16, nodata sentinel 0 — tilestore LCG) and
    reduce each to integer stats in ONE (B, 4096) matrix pass: masked
    min/max (reference fold semantics over valid cells), exact int64 sum,
    valid/nodata counts, plus centroid + SQL-parity grid cell.

    Every output column is integer or an exact double, so the DuckDB
    oracle reproduces it bit-for-bit (tilestore.synth_band_values SQL)."""
    seeds = tilestore.seed_of_refs(batch["media_ref"])
    st = tilestore.synth_band_stats(seeds, band)
    lon, lat = tilestore.centroids(seeds)
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "span_idx": batch["span_idx"],
            "seed": pa.array(seeds, pa.int64()),
            "valid_count": pa.array(st["valid_count"], pa.int64()),
            "nodata_count": pa.array(st["nodata_count"], pa.int64()),
            "min_val": pa.array(st["min_val"], pa.int64()),
            "max_val": pa.array(st["max_val"], pa.int64()),
            "sum_val": pa.array(st["sum_val"], pa.int64()),
            "lon": pa.array(lon, pa.float64()),
            "lat": pa.array(lat, pa.float64()),
            "grid_cell": pa.array(cellid.grid_cell(lon, lat), pa.int64()),
        }
    )


def add_cell_ids(batch: pa.Table, level: int = 8) -> pa.Table:
    """Tile centroid → hierarchical Hilbert cell id (+ SQL-parity grid id)."""
    lon = batch["lon"].to_numpy(zero_copy_only=False)
    lat = batch["lat"].to_numpy(zero_copy_only=False)
    cells = cellid.encode(lon, lat, level)
    batch = batch.append_column("cell_id", pa.array(cells, pa.uint64()))
    return batch.append_column("grid_cell", pa.array(cellid.grid_cell(lon, lat), pa.int64()))


_BROADCAST_MEMO: dict = {}


_BROADCAST_MEMO_MAX = 4


def _broadcast_memo(ref):
    """Per-worker memoized ``ray.get`` of a broadcast object (zero-copy
    plasma read on first touch, dict hit after). Bounded at a few
    entries (NOT one — two interleaved pipelines sharing a worker would
    evict each other's broadcast on every alternating group) so
    long-lived workers don't accumulate stale broadcasts."""
    key = ref.hex()
    hit = _BROADCAST_MEMO.get(key)
    if hit is None:
        import ray

        while len(_BROADCAST_MEMO) >= _BROADCAST_MEMO_MAX:
            # evict the OLDEST single entry (dict is insertion-ordered):
            # clearing everything would thrash >4 interleaved broadcasts
            del _BROADCAST_MEMO[next(iter(_BROADCAST_MEMO))]
        hit = _BROADCAST_MEMO[key] = ray.get(ref)
    return hit


def cell_cover_join(stats_ds, footprints_table: pa.Table, level: int = 6):
    """Large-large spatial join fallback (SURVEY.md §2.9): when the
    polygon side is too big to broadcast, co-partition BOTH sides by
    Hilbert cell at ``level`` — tiles keyed by centroid cell, polygons
    replicated to every cell of their bbox cover — and run exact PIP
    inside each cell group. One shuffle; a (tile, polygon) pair meets in
    exactly one group (the tile's cell), so no dedup pass is needed.

    Correct because: tile-centroid ∈ polygon ⟹ the centroid's cell
    intersects the polygon bbox ⟹ that cell is in the polygon's cover.

    Exchange diet (VERDICT r3 #6): the replicated ring bytes never enter
    the shuffle — each cover row carries only (cover_cell, footprint_id,
    category) and the fid → ring vertex map broadcasts once via plasma
    (memoized per worker). The two sides are the two inputs of one
    ``shuffle.bucket_reduce``, so each cell group arrives as a tile
    table and a polygon table."""
    import ray
    import ray.data as rd

    from raycells.engine.shuffle import bucket_reduce
    from raycells.io.footprints import rings_as_numpy
    from raycells.geo.pip import polygon_cell_cover

    # polygon side → (cover_cell, fid, cat) rows + the broadcast ring map
    fps = rings_as_numpy(footprints_table)
    cells_col, fid_col, cat_col = [], [], []
    ring_map = {}
    for fid, cat, ring in fps:
        ring_map[fid] = np.ascontiguousarray(ring, dtype=np.float64)
        for c in polygon_cell_cover(ring, level):
            cells_col.append(c)
            fid_col.append(fid)
            cat_col.append(cat)
    ring_ref = ray.put(ring_map)
    fp_rows = pa.table(
        {
            "cover_cell": pa.array(np.asarray(cells_col, np.uint64), pa.uint64()),
            "footprint_id": pa.array(fid_col, pa.string()),
            "category": pa.array(cat_col, pa.string()),
        }
    )

    def tile_rows(b: pa.Table) -> pa.Table:
        lon = b["lon"].to_numpy(zero_copy_only=False)
        lat = b["lat"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "cover_cell": pa.array(cellid.encode(lon, lat, level), pa.uint64()),
                "doc_id": b["doc_id"],
                "span_idx": b["span_idx"],
                "lon": b["lon"],
                "lat": b["lat"],
            }
        )

    out_schema = pa.schema(
        [
            ("doc_id", pa.string()),
            ("span_idx", pa.int32()),
            ("footprint_id", pa.string()),
            ("category", pa.string()),
        ]
    )

    def group_join(tiles: pa.Table, polys: pa.Table) -> pa.Table:
        if tiles.num_rows == 0 or polys.num_rows == 0:
            return out_schema.empty_table()
        rings = _broadcast_memo(ring_ref)
        tcell = tiles["cover_cell"].to_numpy(zero_copy_only=False)
        order = np.argsort(tcell, kind="stable")
        tcell = tcell[order]
        lon = tiles["lon"].to_numpy(zero_copy_only=False)[order]
        lat = tiles["lat"].to_numpy(zero_copy_only=False)[order]
        pcell = polys["cover_cell"].to_numpy(zero_copy_only=False)
        takes, fids, cats = [], [], []
        for i in range(polys.num_rows):
            lo = np.searchsorted(tcell, pcell[i], side="left")
            hi = np.searchsorted(tcell, pcell[i], side="right")
            if lo == hi:
                continue
            ring = rings[polys["footprint_id"][i].as_py()]
            bb = polygon_bbox(ring)
            seg_lon, seg_lat = lon[lo:hi], lat[lo:hi]
            cand = np.nonzero(
                (seg_lon >= bb[0]) & (seg_lon <= bb[2])
                & (seg_lat >= bb[1]) & (seg_lat <= bb[3])
            )[0]
            if cand.size == 0:
                continue
            hit = cand[points_in_polygon(seg_lon[cand], seg_lat[cand], ring)]
            if hit.size:
                takes.append(order[lo:hi][hit])
                fids.extend([polys["footprint_id"][i].as_py()] * hit.size)
                cats.extend([polys["category"][i].as_py()] * hit.size)
        if not takes:
            return out_schema.empty_table()
        sel = tiles.take(pa.array(np.concatenate(takes)))
        return pa.table(
            {
                "doc_id": sel["doc_id"],
                "span_idx": sel["span_idx"],
                "footprint_id": pa.array(fids, pa.string()),
                "category": pa.array(cats, pa.string()),
            }
        )

    # shuffle on a coarse bucket of the cell (NOT the raw cell id —
    # per-distinct-group overhead, see shuffle.add_bucket); exact cell
    # equality is enforced vectorized inside the group
    return bucket_reduce(
        [stats_ds.map_batches(tile_rows, batch_format="pyarrow"), rd.from_arrow(fp_rows)],
        "cover_cell",
        group_join,
    )


class PIPJoiner:
    """Broadcast point-in-polygon join, run as a task stage through
    ``broadcast_task`` (``pip_join_task``).

    The polygon side (small: ~200 footprints, << 100 MB) is broadcast ONCE
    via ``ray.put`` on the driver; each worker builds the joiner from it
    once (one object-store read per worker, NOT per batch) and
    precomputes bboxes. Per batch: bbox prefilter, then exact vectorized
    ray-cast of tile centroids per surviving polygon; emits one row per
    (tile, footprint) hit. The large-large fallback (both sides big) is
    ``cell_cover_join``: both sides co-partitioned by Hilbert cell through
    ``shuffle.bucket_reduce``."""

    def __init__(self, footprints_ref):
        import ray

        fps = ray.get(footprints_ref) if not isinstance(footprints_ref, list) else footprints_ref
        # fps: list of (footprint_id, category, ring ndarray)
        self.fps = fps
        self.bboxes = np.array([polygon_bbox(r) for _, _, r in fps])  # (F, 4)

    def __call__(self, batch: pa.Table) -> pa.Table:
        lon = batch["lon"].to_numpy(zero_copy_only=False)
        lat = batch["lat"].to_numpy(zero_copy_only=False)
        take_idx = []
        fp_ids = []
        fp_cats = []
        if len(lon):
            for f, (fid, cat, ring) in enumerate(self.fps):
                bb = self.bboxes[f]
                cand = np.nonzero(
                    (lon >= bb[0]) & (lon <= bb[2]) & (lat >= bb[1]) & (lat <= bb[3])
                )[0]
                if cand.size == 0:
                    continue
                hit = points_in_polygon(lon[cand], lat[cand], ring)
                hits = cand[hit]
                if hits.size:
                    take_idx.append(hits)
                    fp_ids.extend([fid] * hits.size)
                    fp_cats.extend([cat] * hits.size)
        if not take_idx:
            empty = batch.slice(0, 0)
            empty = empty.append_column("footprint_id", pa.array([], pa.string()))
            return empty.append_column("category", pa.array([], pa.string()))
        idx = np.concatenate(take_idx)
        out = batch.take(pa.array(idx))
        out = out.append_column("footprint_id", pa.array(fp_ids, pa.string()))
        return out.append_column("category", pa.array(fp_cats, pa.string()))


_BCAST_CACHE: dict = {}  # (class, ref hex) → stage instance (reused workers)
_BCAST_CACHE_MAX = 8


def broadcast_task(cls, ref, *args):
    """Run a broadcast-state stage class as a TASK stage: the instance is
    built once per worker per broadcast object (memoized on the ref id;
    the ``ray.get`` inside ``cls.__init__`` is a zero-copy plasma read)
    and reused across executions in Ray's warm task workers. Same
    semantics as passing ``cls`` to ``map_batches`` as an actor pool,
    without the ~1-2 s per-execution actor startup this platform pays —
    use actor pools only when ``__init__`` is genuinely expensive
    (codec handles, model loads)."""

    def _arg_key(a):
        # repr() is NOT a safe memo key (numpy truncates; objects print
        # addresses) — a collision would silently reuse a stage built
        # with different args in a warm worker. Accept only ObjectRefs,
        # hashable primitives, and content-digested ndarrays.
        if hasattr(a, "hex"):  # ObjectRef
            return ("ref", a.hex())
        if isinstance(a, (str, bytes, int, float, bool, type(None))):
            return (type(a).__name__, a)
        if isinstance(a, tuple):
            return tuple(_arg_key(x) for x in a)
        if isinstance(a, np.ndarray):
            import hashlib

            digest = hashlib.blake2b(
                np.ascontiguousarray(a).tobytes(), digest_size=16
            ).hexdigest()
            return ("ndarray", a.dtype.str, a.shape, digest)
        raise TypeError(
            f"broadcast_task arg of type {type(a).__name__} has no safe "
            "memo key; pass an ObjectRef, scalar, tuple, or ndarray"
        )

    def fn(batch: pa.Table) -> pa.Table:
        key = (
            cls.__module__,
            cls.__qualname__,
            ref.hex(),
            tuple(_arg_key(a) for a in args),
        )
        inst = _BCAST_CACHE.get(key)
        if inst is None:
            if len(_BCAST_CACHE) >= _BCAST_CACHE_MAX:
                _BCAST_CACHE.clear()
            inst = _BCAST_CACHE[key] = cls(ref, *args)
        return inst(batch)

    return fn


def pip_join_task(footprints_ref):
    """Task-stage broadcast PIP join (see ``broadcast_task``)."""
    return broadcast_task(PIPJoiner, footprints_ref)


def media_dedup_winners(exploded_ds, sink_dir=None, dups_only=False):
    """Shared decode→content-hash→winner reduction used by BOTH the
    ``q_media_dedup`` gate query and ``driver --mode media-dedup`` —
    one definition so the hash band, tie columns, and dups_only flag
    can never diverge between the gate and the production sink."""
    from raycells.engine import shuffle as shuffle_mod

    hashed = exploded_ds.map_batches(
        lambda b: band_content_hash(b, band=4), batch_format="pyarrow"
    )
    return shuffle_mod.exact_dedup_winners(
        hashed, key="content_hash", tie_cols=("doc_id", "span_idx"),
        sink_dir=sink_dir, dups_only=dups_only,
    )


def chunk_dedup_winners(chunks_ds, sink_dir=None):
    """Shared chunk-fingerprint winner reduction used by BOTH the
    ``q_chunk_dedup`` gate query and ``driver --mode chunk-dedup``:
    projects the (chunk_hash, doc_key, chunk_idx) triple and runs the
    generic exact-dedup reduction (duplicated contents only)."""
    from raycells.engine import shuffle as shuffle_mod

    sel = chunks_ds.map_batches(
        lambda b: b.select(["chunk_hash", "doc_key", "chunk_idx"]),
        batch_format="pyarrow",
    )
    return shuffle_mod.exact_dedup_winners(
        sel, key="chunk_hash", tie_cols=("doc_key", "chunk_idx"),
        sink_dir=sink_dir,
    )


def diff_classify(both_ds, key_col: str = "doc_id", fp_col: str = "fp",
                  sink_dir=None):
    """Generic SNAPSHOT-DIFF reduction shared by the q_snapshot_diff
    gate query and ``driver --mode diff``: a union of two fingerprinted
    sides (``side`` 0 = base, 1 = next) co-partitions by key through
    ONE coarse-bucket exchange; each bucket classifies its keys into
    added / removed / changed (unchanged rows are dropped in the
    reducer, so the output — and the optional parquet sink — is
    DIFF-sized, never corpus-sized). A key occurring twice on one side
    raises ``ValueError``: the diff is defined for unique keys only."""
    import pandas as pd

    from raycells.engine import shuffle as shuffle_mod

    def classify(g: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                key_col: g[key_col].to_numpy(zero_copy_only=False),
                "fp": g[fp_col].to_numpy(zero_copy_only=False),
                "side": g["side"].to_numpy(zero_copy_only=False),
            }
        )
        dup = df.duplicated([key_col, "side"])
        if dup.any():
            raise ValueError(
                f"diff_classify: duplicate {key_col!r} value "
                f"{df.loc[dup, key_col].iloc[0]!r} on one side; keys must "
                "be unique per side"
            )
        w = df.pivot_table(
            index=key_col, columns="side", values="fp", aggfunc="first"
        )
        a = w[0] if 0 in w.columns else pd.Series(index=w.index, dtype=object)
        b = w[1] if 1 in w.columns else pd.Series(index=w.index, dtype=object)
        status = np.where(
            a.isna(), "added",
            np.where(b.isna(), "removed",
                     np.where(a == b, "unchanged", "changed")),
        )
        out = pd.DataFrame({key_col: w.index.to_numpy(), "status": status})
        out = out[out["status"] != "unchanged"]
        return shuffle_mod.from_pandas_clean(out.reset_index(drop=True))

    out = shuffle_mod.bucket_reduce(both_ds, key_col, classify)
    if sink_dir is not None:
        from raycells.engine.checkpoint import sink_to_parquet

        return sink_to_parquet(out, sink_dir)
    return out

"""Fused chunked kernels must stay value-identical to the unfused path
(synth_tiles → tile_stats), across all 10 cell types and both shapes."""

import numpy as np
import pyarrow as pa

from raycells.cells import kernels
from raycells.cells.ctype import CELL_TYPES, CellType
from raycells.engine import stages
from raycells.io import tilestore


def _stats_batch(tiles):
    """(cell_type, values, mask) triples → the tile_stats input table
    (shared by the edge-case and random-sweep folds)."""
    return pa.table(
        {
            "doc_id": pa.array([f"d{i}" for i in range(len(tiles))]),
            "span_idx": pa.array(np.zeros(len(tiles), np.int32)),
            "data": pa.array([v.tobytes() for _, v, _ in tiles], pa.large_binary()),
            "mask": pa.array(
                [kernels.pack_mask(m) for _, _, m in tiles], pa.large_binary()
            ),
            "cell_type": pa.array([c for c, _, _ in tiles]),
            "nrows": pa.array([1] * len(tiles), pa.int32()),
            "ncols": pa.array([len(v) for _, v, _ in tiles], pa.int32()),
        }
    )


def _tiles_table(seeds):
    cols = tilestore.synth_tiles(seeds)
    return pa.table(
        {
            "doc_id": pa.array([f"d{i}" for i in range(len(seeds))]),
            "span_idx": pa.array(np.zeros(len(seeds), np.int32)),
            "media_ref": pa.array([f"tile://{s}" for s in seeds]),
            "data": pa.array(cols["data"], pa.large_binary()),
            "mask": pa.array(cols["mask"], pa.large_binary()),
            "cell_type": pa.array(cols["cell_type"]),
            "nrows": pa.array(cols["nrows"], pa.int32()),
            "ncols": pa.array(cols["ncols"], pa.int32()),
            "nodata": pa.array(cols["nodata"], pa.float64()),
            "lon": pa.array(cols["lon"]),
            "lat": pa.array(cols["lat"]),
            "minx": pa.array(cols["minx"]),
            "miny": pa.array(cols["miny"]),
            "maxx": pa.array(cols["maxx"]),
            "maxy": pa.array(cols["maxy"]),
        }
    )


# 707 covers every cell type (wheel of 10) and several 186×169 fixtures
SEEDS = np.arange(0, 707, dtype=np.int64)


def test_synth_tile_stats_matches_unfused():
    st = tilestore.synth_tile_stats(SEEDS)
    ref = stages.tile_stats(_tiles_table(SEEDS))
    assert np.array_equal(ref["min_val"].to_numpy(), st["min_val"])
    assert np.array_equal(ref["max_val"].to_numpy(), st["max_val"])
    assert np.array_equal(ref["valid_count"].to_numpy(), st["valid_count"])
    assert np.array_equal(ref["nodata_count"].to_numpy(), st["nodata_count"])
    assert np.allclose(ref["mean_val"].to_numpy(), st["mean_val"], rtol=1e-12)
    assert list(st["cell_type"]) == ref["cell_type"].to_pylist()


def test_synth_tile_stats_covers_all_types_and_shapes():
    st = tilestore.synth_tile_stats(SEEDS)
    assert set(st["cell_type"]) == {ct.name for ct in tilestore.CELL_TYPES}
    assert (st["nrows"] == 186).sum() == len([s for s in SEEDS if s % 101 == 0])


def test_synth_band_stats_matches_matrix_path():
    bs = tilestore.synth_band_stats(SEEDS, 4)
    v = tilestore.synth_band_values(SEEDS, 4).astype(np.int64)
    valid = v != 0
    assert np.array_equal(bs["valid_count"], valid.sum(1))
    assert np.array_equal(bs["sum_val"], (v * valid).sum(1))
    assert np.array_equal(bs["min_val"], np.where(valid, v, 1 << 40).min(1))
    assert np.array_equal(bs["max_val"], np.where(valid, v, -1).max(1))


def test_synth_ndvi_matches_brute_force():
    seeds = np.arange(5, 40, dtype=np.int64)
    st = tilestore.synth_ndvi_stats(seeds)
    red = tilestore.synth_band_values(seeds, 4).astype(np.int64)
    nir = tilestore.synth_band_values(seeds, 5).astype(np.int64)
    # sentinel 0 marks the same cells in both bands (mask depends on (s, i))
    valid = (red != 0) & (nir != 0)
    # brute force uses the raw (unsentineled) values where valid
    raw_r = 1 + (seeds[:, None] * tilestore.MUL_A + (np.arange(4096) + 404) * tilestore.MUL_I) % tilestore.VAL_MOD
    raw_n = 1 + (seeds[:, None] * tilestore.MUL_A + (np.arange(4096) + 505) * tilestore.MUL_I) % tilestore.VAL_MOD
    ndvi = (raw_n - raw_r) / (raw_n + raw_r)
    assert np.array_equal(st["n_valid"], valid.sum(1))
    assert np.array_equal(st["ndvi_min"], np.where(valid, ndvi, np.inf).min(1))
    assert np.array_equal(st["ndvi_max"], np.where(valid, ndvi, -np.inf).max(1))


def test_stats_chunk_boundary_independence():
    """Results must not depend on how seeds split into scratch chunks."""
    seeds = np.arange(100, 300, dtype=np.int64)
    whole = tilestore.synth_tile_stats(seeds)
    halves = [tilestore.synth_tile_stats(seeds[:97]), tilestore.synth_tile_stats(seeds[97:])]
    for col in ("min_val", "max_val", "valid_count", "mean_val"):
        joined = np.concatenate([halves[0][col], halves[1][col]])
        assert np.array_equal(whole[col], joined), col


def test_tile_stats_grouped_matches_scalar_fold_edge_cases():
    """The grouped-vectorized tile_stats must keep the reference fold
    semantics per tile: participating (max, min) seeds (all-masked →
    inverted sentinels; +NaN loses the min to the float MAX seed but
    wins the max under total order), exact int64 compares above 2^53."""
    from raycells.cells import kernels
    from raycells.cells.ctype import CellType

    tiles = [
        # (cell_type, values, mask)
        ("Float32", np.array([np.nan, 1.5, -2.0], np.float32), np.array([True, True, True])),
        ("Float32", np.array([np.nan, np.nan], np.float32), np.array([True, True])),
        ("Float64", np.array([3.0, 4.0], np.float64), np.array([False, False])),  # all masked
        ("Int64", np.array([2**62 + 3, 2**62 + 1], np.int64), np.array([True, True])),
        ("UInt64", np.array([2**63 + 5, 7], np.uint64), np.array([True, False])),
    ]
    batch = _stats_batch(tiles)
    got = stages.tile_stats(batch)
    for i, (ctname, v, m) in enumerate(tiles):
        lo, hi = kernels.min_max(v, m)
        want_lo, want_hi = lo.to_f64(), hi.to_f64()
        got_lo = got["min_val"][i].as_py()
        got_hi = got["max_val"][i].as_py()
        assert (got_lo == want_lo) or (np.isnan(got_lo) and np.isnan(want_lo)), (i, ctname)
        assert (got_hi == want_hi) or (np.isnan(got_hi) and np.isnan(want_hi)), (i, ctname)
        assert got["valid_count"][i].as_py() == int(m.sum())


def test_tile_stats_grouped_matches_scalar_fold_random():
    """Property-style sweep: grouped tile_stats == per-tile kernels.min_max
    fold across all 10 cell types, random payloads (incl. NaNs in float
    tiles) and random masks, mixed sizes in one batch."""
    from raycells.cells import kernels
    from raycells.cells.ctype import CELL_TYPES

    rng = np.random.default_rng(23)
    tiles = []
    for rep in range(3):
        for ct in CELL_TYPES:
            n = int(rng.integers(3, 40))
            if ct.is_integral:
                info = np.iinfo(ct.dtype)
                v = rng.integers(
                    int(info.min), int(info.max), n, dtype=ct.dtype,
                    endpoint=True,
                )
            else:
                v = (rng.standard_normal(n) * 1e3).astype(ct.dtype)
                v[rng.random(n) < 0.2] = np.nan
            m = rng.random(n) < 0.7
            tiles.append((ct.name, v, m))
    batch = _stats_batch(tiles)
    got = stages.tile_stats(batch)
    for i, (ctname, v, m) in enumerate(tiles):
        lo, hi = kernels.min_max(v, m)
        for want, col in ((lo.to_f64(), "min_val"), (hi.to_f64(), "max_val")):
            g = got[col][i].as_py()
            assert (g == want) or (np.isnan(g) and np.isnan(want)), (i, ctname, col)
        assert got["valid_count"][i].as_py() == int(m.sum()), (i, ctname)


def test_band_delta_stats_matches_full_decode():
    """synth_band_delta_stats == the naive two full decodes + numpy
    reductions (exact integers, band-independent mask)."""
    from raycells.io import tilestore

    seeds = np.array([0, 1, 7, 101, 9999, 123457], dtype=np.int64)
    got = tilestore.synth_band_delta_stats(seeds, 4, 7)
    va = tilestore.synth_band_values(seeds, 4).astype(np.int64)
    vb = tilestore.synth_band_values(seeds, 7).astype(np.int64)
    m = va != 0
    assert np.array_equal(m, vb != 0)  # mask is band-independent
    d = vb - va
    assert np.array_equal(got["valid_count"], m.sum(axis=1))
    assert np.array_equal(got["sum_delta"], np.where(m, d, 0).sum(axis=1))
    assert np.array_equal(
        got["min_delta"], np.where(m, d, np.int64(1 << 40)).min(axis=1)
    )
    assert np.array_equal(
        got["max_delta"], np.where(m, d, np.int64(-(1 << 40))).max(axis=1)
    )


# ---------------------------------------------------------------------------
# bit-identity of the table-driven synth_tile_stats against the per-cell
# int64 formulas
# ---------------------------------------------------------------------------

I64_MAX = 2**63 - 1
BIG_N = tilestore.BIG_SHAPE[0] * tilestore.BIG_SHAPE[1]
STATS_COLUMNS = (
    "cell_type", "nrows", "ncols", "min_val", "max_val", "mean_val",
    "valid_count", "nodata_count", "lon", "lat", "minx", "miny", "maxx", "maxy",
)


def _per_cell_tile_stats(seeds):
    """Straight-line reference: every cell's raw value and mask from the
    int64 formulas ``(s·MUL_A + i·MUL_I) % 65521`` and ``(s + i·7) % 33``
    (wrapping exactly as int64 does), reduced in 64-tile chunks by the
    float64 masked fold."""
    s = np.asarray(seeds, dtype=np.int64)
    ct_idx = tilestore.tile_cell_types(s)
    shapes = tilestore.tile_shapes(s)
    N = len(s)
    min_v = np.empty(N, dtype=np.float64)
    max_v = np.empty(N, dtype=np.float64)
    mean_v = np.full(N, np.nan, dtype=np.float64)
    valid_c = np.zeros(N, dtype=np.int64)
    cts = np.empty(N, dtype=object)
    big = shapes[:, 0] != tilestore.TILE_H
    for ci in np.unique(ct_idx):
        ct = CELL_TYPES[ci]
        for is_big in (False, True):
            sel = np.nonzero((ct_idx == ci) & (big == is_big))[0]
            n = BIG_N if is_big else tilestore.TILE_N
            i = np.arange(n, dtype=np.int64)[None, :]
            for lo in range(0, sel.size, 64):
                rows = sel[lo : lo + 64]
                ss = s[rows][:, None]
                raw = (ss * tilestore.MUL_A + i * tilestore.MUL_I) % 65521
                vf = np.empty(raw.shape, dtype=np.float64)
                np.copyto(vf, tilestore._typed_values(raw, ct))
                v = (ss + i * tilestore.MASK_MUL) % tilestore.MASK_MOD != 0
                nv = v.sum(axis=1)
                mn = np.where(v, vf, np.inf).min(axis=1)
                mx = np.where(v, vf, -np.inf).max(axis=1)
                none = nv == 0
                mn[none] = float(ct.max_value().to_f64())
                mx[none] = float(ct.min_value().to_f64())
                sums = np.where(v, vf, 0.0).sum(axis=1)
                min_v[rows] = mn
                max_v[rows] = mx
                with np.errstate(invalid="ignore", divide="ignore"):
                    mean_v[rows] = np.where(nv > 0, sums / np.maximum(nv, 1), np.nan)
                valid_c[rows] = nv
            cts[sel] = ct.name
    n_cells = shapes[:, 0].astype(np.int64) * shapes[:, 1]
    return {
        "cell_type": cts,
        "nrows": shapes[:, 0],
        "ncols": shapes[:, 1],
        "min_val": min_v,
        "max_val": max_v,
        "mean_val": mean_v,
        "valid_count": valid_c,
        "nodata_count": n_cells - valid_c,
        **tilestore.extents(s),
    }


def _assert_bit_identical(seeds):
    got = tilestore.synth_tile_stats(seeds)
    want = _per_cell_tile_stats(seeds)
    assert sorted(got) == sorted(STATS_COLUMNS)
    for col in STATS_COLUMNS:
        g, w = got[col], want[col]
        assert len(g) == len(seeds), col
        if w.dtype == object:
            assert list(g) == list(w), col
        else:
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), col


def _seed_key(s):
    """(cell-type index, big shape?) of one seed."""
    return int(tilestore.tile_cell_types(np.array([s]))[0]), s % 101 == 0


def _residue_sweep_seeds():
    """One seed per (cell type, shape, s % 33): the wheel slot (s % 16),
    the shape (s % 101 == 0) and the mask row (s % 33) are independent by
    the CRT, so every combination lives below 16·101·33."""
    a = np.arange(16 * 101 * 33, dtype=np.int64)
    out = []
    for ci in range(len(CELL_TYPES)):
        w = tilestore.TYPE_WHEEL.index(ci)
        for shape_res in (0, 1):
            for r in range(tilestore.MASK_MOD):
                hit = (a % 16 == w) & (a % 101 == shape_res) & (a % 33 == r)
                out.append(a[hit][0])
    return np.array(out, dtype=np.int64)


def _int64(v):
    v %= 2**64
    return v - 2**64 if v >= 2**63 else v


def _value_wrap_seeds():
    """One seed per (cell type, shape) whose ``s·MUL_A + i·MUL_I`` wraps
    int64 at a cell t < 4000, i.e. inside every tile: with x = s·MUL_A
    (mod 2^64) set to I64_MAX + 1 + e − t·MUL_I, 0 ≤ e < MUL_I."""
    inv_a = pow(tilestore.MUL_A, -1, 2**64)
    found = {}
    d = 0
    while len(found) < 2 * len(CELL_TYPES):
        t = 1 + (d * 37) % 3999
        e = (d * 7919) % tilestore.MUL_I
        x = I64_MAX + 1 + e - t * tilestore.MUL_I
        s = _int64(x * inv_a)
        found.setdefault(_seed_key(s), s)
        d += 1
    return np.array(list(found.values()), dtype=np.int64)


def _mask_wrap_seeds():
    """One seed per (cell type, shape) whose ``s + i·7`` wraps int64 inside
    the tile: s = I64_MAX + 1 + e − 7t, 0 ≤ e < 7, wraps at cell t."""
    found = {}
    d = 0
    while len(found) < 2 * len(CELL_TYPES):
        t = 1 + (d * 37) % 3999
        s = I64_MAX + 1 + d % 7 - 7 * t
        found.setdefault(_seed_key(s), s)
        d += 1
    return np.array(list(found.values()), dtype=np.int64)


def test_synth_tile_stats_bit_identical_all_types_shapes_residues():
    seeds = _residue_sweep_seeds()
    combos = {
        (*_seed_key(int(s)), int(s) % tilestore.MASK_MOD) for s in seeds
    }
    assert len(combos) == len(CELL_TYPES) * 2 * tilestore.MASK_MOD
    _assert_bit_identical(seeds)


def test_synth_tile_stats_bit_identical_duplicates_restore_order():
    rng = np.random.default_rng(5)
    base = np.concatenate([np.arange(0, 300, dtype=np.int64), [101 * 7, 101 * 9]])
    _assert_bit_identical(rng.permutation(np.repeat(base, 3)))


def test_synth_tile_stats_empty():
    _assert_bit_identical(np.array([], dtype=np.int64))


def test_synth_tile_stats_bit_identical_hashed_refs():
    refs = pa.array([f"s3://landsat/scene_{k}/B4.TIF" for k in range(400)])
    seeds = tilestore.seed_of_refs(refs)
    assert seeds.min() >= 0 and seeds.max() > 2**60  # blake2b path
    _assert_bit_identical(seeds)


def test_synth_tile_stats_bit_identical_int64_wrap_seeds():
    vwrap = _value_wrap_seeds()
    mwrap = _mask_wrap_seeds()
    with np.errstate(over="ignore"):
        x = vwrap * tilestore.MUL_A  # int64, wrapped
    for s, xs in zip(vwrap, x):
        n = BIG_N if s % 101 == 0 else tilestore.TILE_N
        assert int(xs) + (n - 1) * tilestore.MUL_I > I64_MAX  # wraps in-tile
    for s in mwrap:
        n = BIG_N if s % 101 == 0 else tilestore.TILE_N
        assert int(s) + (n - 1) * tilestore.MASK_MUL > I64_MAX  # wraps in-tile
    named = np.array(
        [7267074559584447384, I64_MAX, -(2**63), -1, -12345], dtype=np.int64
    )
    _assert_bit_identical(np.concatenate([vwrap, mwrap, named]))


def test_band_kernels_match_per_cell_on_mask_wrap_seeds():
    """The band/NDVI/delta/hash kernels share synth_tile_stats' mask
    table, wrap fix-up included: pin them against the per-cell band
    formula on seeds whose s + i·7 overflows inside the tile."""
    seeds = np.concatenate(
        [_mask_wrap_seeds(), np.array([I64_MAX, 7, -7], dtype=np.int64)]
    )
    va = tilestore.synth_band_values(seeds, 4).astype(np.int64)
    vb = tilestore.synth_band_values(seeds, 5).astype(np.int64)
    m = va != 0
    assert np.array_equal(m, vb != 0)

    bs = tilestore.synth_band_stats(seeds, 4)
    assert np.array_equal(bs["valid_count"], m.sum(1))
    assert np.array_equal(bs["sum_val"], (va * m).sum(1))
    assert np.array_equal(bs["min_val"], np.where(m, va, 1 << 40).min(1))

    with np.errstate(over="ignore"):
        p31 = np.uint64(31) ** np.arange(tilestore.TILE_N, dtype=np.uint64)
        want_hash = (va.astype(np.uint64) * p31).sum(axis=1, dtype=np.uint64)
    assert np.array_equal(tilestore.synth_band_content_hash(seeds, 4), want_hash)

    i = np.arange(tilestore.TILE_N, dtype=np.int64)[None, :]
    raw_r = 1 + (seeds[:, None] * tilestore.MUL_A + (i + 404) * tilestore.MUL_I) % tilestore.VAL_MOD
    raw_n = 1 + (seeds[:, None] * tilestore.MUL_A + (i + 505) * tilestore.MUL_I) % tilestore.VAL_MOD
    nd = tilestore.synth_ndvi_stats(seeds)
    ndvi = (raw_n - raw_r) / (raw_n + raw_r)
    assert np.array_equal(nd["n_valid"], m.sum(1))
    assert np.array_equal(nd["ndvi_min"], np.where(m, ndvi, np.inf).min(1))
    assert np.array_equal(nd["ndvi_max"], np.where(m, ndvi, -np.inf).max(1))

    dl = tilestore.synth_band_delta_stats(seeds, 4, 5)
    d = vb - va
    assert np.array_equal(dl["valid_count"], m.sum(1))
    assert np.array_equal(dl["sum_delta"], np.where(m, d, 0).sum(1))
    assert np.array_equal(dl["max_delta"], np.where(m, d, -(1 << 40)).max(1))


# ---------------------------------------------------------------------------
# the window identity behind synth_tile_stats' value copy, and its memory
# ---------------------------------------------------------------------------


def test_value_window_identity_every_type():
    """``U[d + i] == T[(c + i·MUL_I) % 65521]`` with ``d = c·MUL_I⁻¹``:
    a tile's values are one contiguous window of the permuted table, up
    to BIG_N cells, so the window reaches into the table's second copy."""
    i = np.arange(BIG_N, dtype=np.int64)
    cs = np.concatenate([[0, 1, 65520], np.arange(2, 65520, 4099)]).astype(np.int64)
    for ct in CELL_TYPES:
        t = tilestore._typed_values(np.arange(65521, dtype=np.int64), ct)
        t = t.astype(np.float64)
        u = tilestore._window_table(ct)
        for c, d in zip(cs, tilestore._window_starts(cs)):
            want = t[(c + i * tilestore.MUL_I) % 65521]
            assert np.array_equal(u[d : d + BIG_N], want), (ct.name, int(c))
    assert int(tilestore._window_starts(np.array([65520]))[0]) + BIG_N > 65521


def test_synth_tile_stats_peak_memory_is_chunk_sized():
    """The decode's working set is its reused chunk scratch: over 32,768
    seeds the traced peak (tables and scratch already cached) stays under
    10 MB, so a full-batch or per-chunk (g, n) temporary cannot return
    unnoticed."""
    import tracemalloc

    seeds = np.random.default_rng(9).integers(0, 1 << 31, 32768)
    tilestore.synth_tile_stats(seeds)  # build the cached tables and scratch
    tracemalloc.start()
    try:
        tilestore.synth_tile_stats(seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2**20, peak


# ---------------------------------------------------------------------------
# the block-table path: window starts at block and table edges, a random
# sweep, and the memory its tables and chunk buffers hold
# ---------------------------------------------------------------------------

BLOCK = tilestore._BLOCK


def _seeds_with_window_start(d, big):
    """One seed per (cell type, masked residue q of the window in the value
    table) whose window starts at ``d`` and whose shape is big or not.
    ``d`` fixes s mod 65521; s = s0 + 65521·j then runs through every
    (s mod 16, s mod 101, s mod 33) by the CRT. Negative j keeps some s
    with no int64 wrap of s·MUL_A for every combination."""
    s0 = d * tilestore.MUL_I * pow(tilestore.MUL_A, -1, 65521) % 65521
    s = s0 + 65521 * np.arange(-16 * 101 * 33, 16 * 101 * 33, dtype=np.int64)
    with np.errstate(over="ignore"):
        x = s * tilestore.MUL_A
    s = s[(tilestore._window_starts(x % 65521) == d) & ((s % 101 == 0) == big)]
    r = -(s % 33) * pow(7, -1, 33) % 33
    key = tilestore.tile_cell_types(s) * 33 + (d + r) % 33
    keys, first = np.unique(key, return_index=True)
    assert keys.size == len(CELL_TYPES) * 33, (d, big)
    return s[first]


def test_table_path_bit_identical_at_block_and_table_edges():
    """Window starts at the table's start, one block in, with an empty and
    a full-but-one head and tail, and reaching into the table's second
    copy, for every cell type, masked residue and both shapes."""
    seeds = []
    for big in (False, True):
        n = BIG_N if big else tilestore.TILE_N
        starts = {
            0, 1, BLOCK - 1, BLOCK, 65520,  # table edges; head B−1 and 0
            -n % BLOCK, (BLOCK - 1 - n) % BLOCK,  # tail 0 and B−1
            65521 - 65521 % BLOCK,  # head 0, ends in the second copy
        }
        assert 65520 + n > 65521
        for d in sorted(starts):
            seeds.append(_seeds_with_window_start(d, big))
    seeds = np.concatenate(seeds)
    with np.errstate(over="ignore"):
        x = seeds * tilestore.MUL_A
    assert (x < I64_MAX - tilestore.MUL_I * BIG_N).all()  # no in-tile wrap
    _assert_bit_identical(seeds)


def test_table_path_bit_identical_random_sweep():
    """50,000 seeds: small and full-range int64 seeds and blake2b-hashed
    refs (seeds near 2^62, whose s·MUL_A wraps before the tile starts)."""
    rng = np.random.default_rng(1901)
    refs = pa.array([f"gs://chips/{k:05d}/band.tif" for k in range(10000)])
    seeds = np.concatenate([
        rng.integers(0, 1 << 31, 20000),
        rng.integers(-(2**63), I64_MAX, 20000, endpoint=True),
        tilestore.seed_of_refs(refs),
    ])
    assert (seeds % 101 == 0).sum() > 400  # big tiles too
    _assert_bit_identical(seeds)


def test_block_tables_match_brute_force():
    """``_block_tables`` entry by entry, every cell type and residue: the
    min / max of each run of ``_SPAN`` blocks with residue q left out, and
    the block prefix sums (Float32's in units of 2^-39, none for
    Float64). Some entries no tile stat can expose (the value table never
    puts a tile's strict extreme on them), so they are pinned here."""
    from numpy.lib.stride_tricks import sliding_window_view

    p = np.arange(2 * 65521) % 33
    for ct in CELL_TYPES:
        u = tilestore._window_table(ct)
        lo, hi, csum = tilestore._block_tables(ct)
        nb = u.size // BLOCK
        wide = u[: nb * BLOCK].astype(np.float64)
        for q in range(33):
            out = p[: nb * BLOCK] == q
            for table, fill, op in ((lo, np.inf, np.min), (hi, -np.inf, np.max)):
                blocks = np.where(out, fill, wide).reshape(nb, BLOCK)
                want = op(sliding_window_view(op(blocks, axis=1), tilestore._SPAN), axis=1)
                assert table.dtype == u.dtype
                assert np.array_equal(table[q].astype(np.float64), want), (ct.name, q)
        if ct.is_integral:
            units = [int(v) for v in u[: nb * BLOCK]]
        elif ct is CellType.Float32:
            units = []
            for v in u[: nb * BLOCK].tolist():
                num, den = v.as_integer_ratio()  # den is a power of two
                units.append(num * (2**39 // den))
        else:
            assert csum is None
            continue
        want = [0]
        for b in range(nb):
            want.append(want[-1] + sum(units[b * BLOCK : (b + 1) * BLOCK]))
        assert csum.dtype == np.int64 and csum.tolist() == want, ct.name


def test_float32_sums_are_exact_in_int64():
    """The preconditions of Float32's integer sums: every table value
    times 2^39 is an integer of at most 2^39 that maps back to the
    value, all values are positive, and every window sum of both tile
    shapes stays under 2^53. A masked window sum leaves positive terms
    out, so it is smaller still, and so is every partial sum of any
    summation order: each is an exact double, and numpy's pairwise
    float64 sum equals the integer sum times 2^-39 bit for bit."""
    u = tilestore._window_table(CellType.Float32)
    assert u.dtype == np.float32
    wide = u.astype(np.float64)
    scaled = np.ldexp(wide, 39)
    assert (scaled == np.floor(scaled)).all()
    assert wide.min() > 0 and scaled.max() <= 2**39
    units = scaled.astype(np.int64)
    assert np.array_equal(np.ldexp(units, -39).astype(np.float32), u)
    prefix = np.concatenate([[0], np.cumsum(units)])
    starts = np.arange(65521)
    for n in (tilestore.TILE_N, BIG_N):
        window = prefix[starts + n] - prefix[starts]
        assert window.max() < 2**53, n


def _cached_bytes(v):
    if isinstance(v, np.ndarray):
        return v.nbytes
    if isinstance(v, tuple):
        return sum(_cached_bytes(a) for a in v)
    return 0


def test_scratch_buffers_are_chunk_sized():
    """Every reused chunk buffer holds at most ≈2 MB, the 186×169 ones
    included (8 rows), so a chunk stays cache-resident."""
    seeds = _residue_sweep_seeds()
    tilestore.synth_tile_stats(seeds)
    tilestore.synth_band_stats(seeds, 4)
    tilestore.synth_ndvi_stats(seeds)
    tilestore.synth_band_content_hash(seeds)
    tilestore.synth_band_delta_stats(seeds, 4, 5)
    scratch = {k: v for k, v in tilestore._SCRATCH.items() if k[0] == "scratch"}
    assert ("scratch", "f64", BIG_N, "float64") in scratch
    for key, buf in scratch.items():
        assert buf.nbytes <= 2 * 2**20, key


def test_tile_stats_tables_stay_within_budget():
    """Decoding every cell type and both shapes caches its tables and
    chunk buffers in ``_SCRATCH``: 14.7 MB today (own-dtype value windows
    5.3 MB, block tables 5.3 MB, two chunk buffers 3.9 MB, masked
    positions 0.3 MB). Each worker process holds its own copy, so a
    larger table would raise the flagship's peak RSS; it has to fail
    here first."""
    saved = dict(tilestore._SCRATCH)
    tilestore._SCRATCH.clear()
    try:
        tilestore.synth_tile_stats(_residue_sweep_seeds())
        held = sum(_cached_bytes(v) for v in tilestore._SCRATCH.values())
    finally:
        tilestore._SCRATCH.clear()
        tilestore._SCRATCH.update(saved)
    assert held <= 16 * 2**20, held

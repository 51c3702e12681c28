"""Deterministic synthetic tile store: ``media_ref`` → raster tile.

Plays the role of the reference's GDAL raster-band reader
(`/root/reference/src/gdal/rasterband.rs:37-126` — ``read_cells`` /
``read_cells_masked``): resolve a reference to a typed cell buffer plus a
validity mask derived from a nodata sentinel. There is no GDAL in this
environment, so tiles are synthesized deterministically from the
``media_ref`` alone — the same ref always yields the same tile, on any
worker, after any retry (idempotence under Ray task retries).

Two tile families:

- **Band tiles** (``synth_band``): fixed uint16, nodata sentinel 0, values
  from *pure int64 arithmetic* (LCG mod 65520) — deliberately expressible
  in ANSI SQL so DuckDB oracles can verify the whole decode→kernel→agg
  pipeline value-for-value (see ``__ray_entry__.oracle_sql``).
- **Erased tiles** (``synth_tiles``): cell type drawn per-seed from a
  weighted distribution over all 10 cell types (UInt16/Float32-heavy,
  FIXTURES.md §2), default nodata sentinel per type (MIN for ints, NaN
  for floats — nodata.rs:27-38), ~3% masked cells, one 186×169 shape
  fixture per 101 seeds mirroring the bundled Landsat chips.

Geo extents use integer arithmetic too: 60% of tiles land inside 3 dense
"city" boxes (skew for salting tests), the rest spread globally.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from raycells.cells.ctype import CELL_TYPES, CellType

# ---- tile geometry constants (shared with the SQL oracles) ----
TILE_W = 64
TILE_H = 64
TILE_N = TILE_W * TILE_H  # 4096
BIG_SHAPE = (186, 169)  # Landsat-chip fixture shape (rasterband.rs:180-183)

# value LCG constants — int64-safe for any seed < ~3.4e9
MUL_A = 2654435761
MUL_I = 40503
VAL_MOD = 65520  # band values in 1..65520, nodata sentinel 0
RAW_MOD = 65521  # erased-tile raw values: (s·MUL_A + i·MUL_I) mod 65521
MASK_MOD = 33  # ~3% of cells masked: (seed + i*7) % 33 == 0
MASK_MUL = 7

# extent constants
CITY_CENTERS = ((-74.0, 40.7), (2.35, 48.85), (139.7, 35.7))  # NYC, Paris, Tokyo
CITY_FRAC_MOD = 10  # seed % 10 < 6 → in a city (60% skew)
CITY_CUT = 6
TILE_HALF_DEG = 0.005  # tile extent is centroid ± 0.005°

# weighted cell-type distribution for erased tiles (UInt16/Float32 heavy,
# every one of the 10 cell types represented — FIXTURES.md §2)
TYPE_WHEEL = (1, 8, 1, 8, 0, 1, 8, 5, 2, 9, 3, 4, 6, 7, 1, 8)  # CellType decl order

REF_PREFIX = "tile://"


def seed_of_refs(refs: pa.Array) -> np.ndarray:
    """Vectorized ``media_ref`` → int64 seed.

    ``tile://<n>`` parses the integer directly (the fast path and the
    SQL-checkable one); any other string hashes via blake2b-64.
    """
    if isinstance(refs, pa.ChunkedArray):
        refs = refs.combine_chunks()
    tails = pc.utf8_slice_codeunits(refs, len(REF_PREFIX))
    try:
        return pc.cast(tails, pa.int64()).to_numpy(zero_copy_only=False)
    except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
        out = np.empty(len(refs), dtype=np.int64)
        for k, r in enumerate(refs.to_pylist()):
            t = r[len(REF_PREFIX):] if r.startswith(REF_PREFIX) else r
            if t.isdigit():
                out[k] = int(t)
            else:
                out[k] = int.from_bytes(
                    hashlib.blake2b(r.encode(), digest_size=8).digest(), "big"
                ) >> 1
        return out


# ---------------------------------------------------------------------------
# band tiles (uint16, SQL-reproducible)
# ---------------------------------------------------------------------------

def synth_band_values(seeds: np.ndarray, band: int, n: int = TILE_N) -> np.ndarray:
    """(len(seeds), n) uint16 band values; 0 = nodata sentinel.

    SQL equivalent per (seed s, cell i):
        v = CASE WHEN (s + i*7) % 33 = 0 THEN 0
            ELSE 1 + (s*2654435761 + (i + band*101)*40503) % 65520 END
    """
    s = np.asarray(seeds, dtype=np.int64)[:, None]
    i = np.arange(n, dtype=np.int64)[None, :]
    return _band_values_at(s, i, band).astype(np.uint16)


def _band_values_at(s: np.ndarray, i: np.ndarray, band: int) -> np.ndarray:
    """Raw LCG band values (int64, 0 = nodata) at broadcastable seed ×
    flat-tile-index arrays — THE single definition of the tile-value
    formula every resample kernel samples (SQL mirror in
    ``synth_band_values``'s docstring; CLAUDE.md requires the formula
    to stay SQL-reproducible, so change it HERE and in the oracles
    only)."""
    v = 1 + (s * MUL_A + (i + band * 101) * MUL_I) % VAL_MOD
    v[(s + i * MASK_MUL) % MASK_MOD == 0] = 0
    return v


def synth_band(seeds: np.ndarray, band: int) -> Dict[str, np.ndarray]:
    """Decode a batch of band tiles → columns of data bytes + mask bytes."""
    v = synth_band_values(seeds, band)
    mask = v != 0
    return {"values": v, "mask": mask}


def window_indices(
    window: Tuple[int, int], window_size: Tuple[int, int], out_size: Tuple[int, int]
) -> np.ndarray:
    """Flat source indices for a windowed nearest-neighbor resample —
    the ``read_cells(window, window_size, size)`` semantics of the
    reference's raster reader (`/root/reference/src/gdal/rasterband.rs:
    37-43`: window/out-size mismatch resamples, NearestNeighbour
    default). GDAL's NN picks source pixel floor((dst + 0.5) · w / ow).

    SQL equivalent per output cell (r, c), window (c0, r0), size (w, h),
    out (ow, oh):
        i = (r0 + CAST(floor((r + 0.5) * h / oh) AS INT)) * 64
          + (c0 + CAST(floor((c + 0.5) * w / ow) AS INT))
    """
    (c0, r0), (w, h), (ow, oh) = window, window_size, out_size
    cols = c0 + np.floor((np.arange(ow) + 0.5) * w / ow).astype(np.int64)
    rows = r0 + np.floor((np.arange(oh) + 0.5) * h / oh).astype(np.int64)
    return (rows[:, None] * TILE_W + cols[None, :]).ravel()


def bilinear_coords(
    window: Tuple[int, int], window_size: Tuple[int, int], out_size: Tuple[int, int]
):
    """Corner indices + weights for a GDAL-style bilinear windowed read
    (GRA_Bilinear — the second ``e_resample_alg`` the reference's
    ``read_cells`` accepts, rasterband.rs:42): source coordinate
    ``src = (dst + 0.5) · scale − 0.5``, edge-replicate clamping.
    Returns flat (i00, i01, i10, i11) indices into the 64×64 tile plus
    per-output-cell fractional weights (wx, wy). For integer scale
    factors the weights are exact binary fractions (e.g. 0.5 at 2×), so
    outputs are exact doubles of integer operands — SQL-reproducible."""
    (c0, r0), (w, h), (ow, oh) = window, window_size, out_size
    sx = (np.arange(ow) + 0.5) * w / ow - 0.5
    sy = (np.arange(oh) + 0.5) * h / oh - 0.5
    x0f = np.floor(sx).astype(np.int64)
    y0f = np.floor(sy).astype(np.int64)
    fx = sx - x0f
    fy = sy - y0f
    x0 = np.clip(x0f, 0, w - 1)
    x1 = np.clip(x0f + 1, 0, w - 1)
    y0 = np.clip(y0f, 0, h - 1)
    y1 = np.clip(y0f + 1, 0, h - 1)
    col0, col1 = c0 + x0, c0 + x1
    row0, row1 = r0 + y0, r0 + y1
    i00 = (row0[:, None] * TILE_W + col0[None, :]).ravel()
    i01 = (row0[:, None] * TILE_W + col1[None, :]).ravel()
    i10 = (row1[:, None] * TILE_W + col0[None, :]).ravel()
    i11 = (row1[:, None] * TILE_W + col1[None, :]).ravel()
    wx = np.tile(fx, oh)
    wy = np.repeat(fy, ow)
    return i00, i01, i10, i11, wx, wy


def synth_band_window_bilinear(
    seeds: np.ndarray,
    band: int,
    window: Tuple[int, int],
    window_size: Tuple[int, int],
    out_size: Tuple[int, int],
) -> np.ndarray:
    """(len(seeds), ow·oh) float64: the band tile's window resampled to
    ``out_size`` by BILINEAR interpolation over the raw band values (the
    nodata sentinel 0 participates, as GDAL does when no mask is set).
    Each output is (1−wy)·((1−wx)·v00 + wx·v01) + wy·((1−wx)·v10 + wx·v11)
    — at 2× scale every weight is 0.5, so 4·out = v00+v01+v10+v11 exactly
    (the DuckDB oracle's integer formulation)."""
    i00, i01, i10, i11, wx, wy = bilinear_coords(window, window_size, out_size)
    s = np.asarray(seeds, dtype=np.int64)[:, None]

    def corner(idx: np.ndarray) -> np.ndarray:
        return _band_values_at(s, idx[None, :], band).astype(np.float64)

    top = (1.0 - wx) * corner(i00) + wx * corner(i01)
    bot = (1.0 - wx) * corner(i10) + wx * corner(i11)
    return (1.0 - wy) * top + wy * bot


def synth_band_window_cubic(
    seeds: np.ndarray,
    band: int,
    window: Tuple[int, int],
    window_size: Tuple[int, int],
    out_size: Tuple[int, int],
) -> np.ndarray:
    """(len(seeds), ow·oh) float64: the band tile's window resampled to
    ``out_size`` by GDAL-style CUBIC convolution (GRA_Cubic, the Keys
    kernel with A = −0.5 — the third ``e_resample_alg`` the reference's
    ``read_cells`` accepts, rasterband.rs:42). Taps at floor−1…floor+2
    per axis, edge-replicate clamped to the window. At exact 2×
    downscale every 1-D weight is in {−1/16, 9/16}, so 256·out is an
    integer combination of the 16 source pixels (the DuckDB oracle's
    formulation); partial sums are exact multiples of 1/256, so the
    float accumulation below is bit-exact regardless of order."""
    from raycells.io.tiffreader import _cubic_weights

    return _synth_separable(
        seeds, band, window, window_size, out_size, _cubic_weights, 1
    )


def _synth_separable(
    seeds: np.ndarray,
    band: int,
    window: Tuple[int, int],
    window_size: Tuple[int, int],
    out_size: Tuple[int, int],
    wfn,
    rad: int,
) -> np.ndarray:
    """Shared separable-kernel windowed resample over the synthetic
    band formula: ``wfn`` maps fractional offsets to (2·rad+2, n) 1-D
    tap weights, taps at floor−rad … floor+rad+1 per axis,
    edge-replicate clamped to the window — the same loop structure and
    accumulation order as ``tiffreader._windowed``'s interpolating
    branch."""
    (c0, r0), (w, h), (ow, oh) = window, window_size, out_size
    taps = 2 * rad + 2
    sx = (np.arange(ow) + 0.5) * w / ow - 0.5
    sy = (np.arange(oh) + 0.5) * h / oh - 0.5
    x0f = np.floor(sx).astype(np.int64)
    y0f = np.floor(sy).astype(np.int64)
    wx = wfn(sx - x0f)  # (taps, ow)
    wy = wfn(sy - y0f)  # (taps, oh)
    s = np.asarray(seeds, dtype=np.int64)[:, None]
    out = np.zeros((len(s), oh * ow))
    for dy in range(taps):
        rows = r0 + np.clip(y0f + dy - rad, 0, h - 1)
        for dx in range(taps):
            cols = c0 + np.clip(x0f + dx - rad, 0, w - 1)
            i = (rows[:, None] * TILE_W + cols[None, :]).reshape(1, -1)
            v = _band_values_at(s, i, band)
            wt = (wy[dy][:, None] * wx[dx][None, :]).reshape(-1)
            out += wt[None, :] * v
    return out


def synth_band_window_average(
    seeds: np.ndarray,
    band: int,
    window: Tuple[int, int],
    window_size: Tuple[int, int],
    out_size: Tuple[int, int],
) -> np.ndarray:
    """(len(seeds), ow·oh) float64: the band tile's window resampled to
    ``out_size`` by GDAL-style AVERAGE (GRA_Average, the fourth
    ``e_resample_alg`` the reference's ``read_cells`` accepts,
    rasterband.rs:42), integer-ratio case: each output cell is the box
    mean of its exact fx×fy source block. fx·fy·out is the integer SUM
    of the block (the DuckDB oracle's formulation), so the division is
    exact for power-of-two factors and bit-stable otherwise (single
    division of an exact-integer sum)."""
    b = _synth_window_blocks(seeds, band, window, window_size, out_size)
    n, k = b.shape[0], b.shape[-1]
    return (b.sum(axis=-1) / k).reshape(n, -1)


def synth_band_window_cubicspline(
    seeds: np.ndarray,
    band: int,
    window: Tuple[int, int],
    window_size: Tuple[int, int],
    out_size: Tuple[int, int],
) -> np.ndarray:
    """(len(seeds), ow·oh) float64: the band tile's window resampled by
    GDAL-style CUBIC B-SPLINE smoothing (GRIORA_CubicSpline,
    rasterband.rs:42). Taps at floor−1…floor+2 per axis, edge-replicate
    clamped. At exact 2× downscale every 1-D weight is in {1/48, 23/48}
    as a rational, so 2304·out is an integer combination of the 16
    source pixels; 1/48 is not binary-exact, but the accumulated float
    error (~1e-7) is far inside the 0.5 rint margin — callers recover
    the exact integers with ``rint(out · 2304)`` (the DuckDB oracle's
    formulation)."""
    from raycells.io.tiffreader import _bspline_weights

    return _synth_separable(
        seeds, band, window, window_size, out_size, _bspline_weights, 1
    )


def synth_band_window_lanczos(
    seeds: np.ndarray,
    band: int,
    window: Tuple[int, int],
    window_size: Tuple[int, int],
    out_size: Tuple[int, int],
) -> np.ndarray:
    """(len(seeds), ow·oh) float64: the band tile's window resampled by
    GDAL-style LANCZOS windowed sinc (GRIORA_Lanczos, a = 3,
    rasterband.rs:42). 6×6 taps at floor−2…floor+3 per axis,
    edge-replicate clamped, weights normalized per output. The weights
    are TRANSCENDENTAL (sinc products), but at exact 2× downscale every
    fractional offset is 0.5, so the six 1-D weights are constants —
    and numpy's sin is bit-identical to DuckDB's on this platform
    (CLAUDE.md libm-parity note, re-verified for these six points), so
    the oracle reproduces the identical IEEE doubles by mirroring the
    exact expression tree: sin(π·d)/(π·d) sinc products, sequential
    6-term weight sum, per-tap w_dy·w_dx products accumulated in
    (dy, dx) order."""
    from raycells.io.tiffreader import _lanczos_weights

    return _synth_separable(
        seeds, band, window, window_size, out_size, _lanczos_weights, 2
    )


def _synth_window_blocks(
    seeds: np.ndarray,
    band: int,
    window: Tuple[int, int],
    window_size: Tuple[int, int],
    out_size: Tuple[int, int],
) -> np.ndarray:
    """(len(seeds), oh, ow, fy·fx) int64: the window's raw band values
    grouped into per-output-cell boxes for the integer-ratio
    box-reduction resamples (average / rms / mode)."""
    (c0, r0), (w, h), (ow, oh) = window, window_size, out_size
    if w % ow or h % oh:
        raise ValueError(
            "box resample needs integer scale factors "
            f"(window {w}x{h} -> out {ow}x{oh})"
        )
    fx, fy = w // ow, h // oh
    rows = r0 + np.arange(h)
    cols = c0 + np.arange(w)
    i = (rows[:, None] * TILE_W + cols[None, :]).reshape(1, -1)
    s = np.asarray(seeds, dtype=np.int64)[:, None]
    v = _band_values_at(s, i, band)
    return (
        v.reshape(len(s), oh, fy, ow, fx)
        .transpose(0, 1, 3, 2, 4)
        .reshape(len(s), oh, ow, fy * fx)
    )


def synth_band_window_rms(
    seeds: np.ndarray,
    band: int,
    window: Tuple[int, int],
    window_size: Tuple[int, int],
    out_size: Tuple[int, int],
) -> np.ndarray:
    """(len(seeds), ow·oh) float64: GDAL-style RMS resample
    (GRIORA_RMS), integer-ratio case: sqrt of the box mean of squares.
    The sum of squares is an exact integer and /8 is a power-of-two
    division, so ``sqrt`` sees the identical double in numpy and DuckDB
    — correctly-rounded IEEE sqrt makes the outputs bit-equal."""
    b = _synth_window_blocks(seeds, band, window, window_size, out_size)
    n = b.shape[0]
    return np.sqrt((b * b).mean(axis=-1)).reshape(n, -1)


def synth_band_window_mode(
    seeds: np.ndarray,
    band: int,
    window: Tuple[int, int],
    window_size: Tuple[int, int],
    out_size: Tuple[int, int],
) -> np.ndarray:
    """(len(seeds), ow·oh) int64: GDAL-style Mode resample
    (GRIORA_Mode), integer-ratio case: each output cell is its box's
    most frequent value, smallest on a count tie (our deterministic
    refinement of GDAL's unspecified tie order — same rule as the
    real-raster reader and the DuckDB oracle)."""
    from raycells.io.tiffreader import _block_mode

    b = _synth_window_blocks(seeds, band, window, window_size, out_size)
    n = b.shape[0]
    return _block_mode(b).reshape(n, -1)


def synth_band_conv3(
    seeds: np.ndarray,
    band: int,
    window: Tuple[int, int],
    window_size: Tuple[int, int],
) -> np.ndarray:
    """(len(seeds), wh·ww) int64: 3×3 box-SUM convolution of the band
    tile over ``window``, with TILE-edge replicate clamping (taps clamp
    to 0..TILE-1, so a window touching the tile border reuses the edge
    row/column — the focal-map-algebra convention). Exact integer
    arithmetic throughout; the DuckDB oracle inlines the same 9 clamped
    taps per cell."""
    (c0, r0), (w, h) = window, window_size
    s = np.asarray(seeds, dtype=np.int64)[:, None]
    rows = r0 + np.arange(h)
    cols = c0 + np.arange(w)
    out = np.zeros((len(s), h * w), dtype=np.int64)
    for dy in (-1, 0, 1):
        yy = np.clip(rows + dy, 0, TILE_H - 1)
        for dx in (-1, 0, 1):
            xx = np.clip(cols + dx, 0, TILE_W - 1)
            i = (yy[:, None] * TILE_W + xx[None, :]).reshape(1, -1)
            out += _band_values_at(s, i, band)
    return out


# Horn 1981 3×3 gradient taps: {(dy, dx): weight}. gx differences the
# east column against the west, gy the south row against the north —
# the slope/hillshade stencil every terrain package (GDAL gdaldem,
# Esri Slope) uses.
_HORN_GX = {(-1, 1): 1, (0, 1): 2, (1, 1): 1, (-1, -1): -1, (0, -1): -2, (1, -1): -1}
_HORN_GY = {(1, -1): 1, (1, 0): 2, (1, 1): 1, (-1, -1): -1, (-1, 0): -2, (-1, 1): -1}


def synth_band_horn(
    seeds: np.ndarray,
    band: int,
    window: Tuple[int, int],
    window_size: Tuple[int, int],
) -> Tuple[np.ndarray, np.ndarray]:
    """(gx, gy) int64 arrays of shape (len(seeds), wh·ww): the Horn
    3×3 terrain gradient of the band tile over ``window`` with
    TILE-edge replicate clamping (same clamp convention as
    ``synth_band_conv3``). Pure integer arithmetic — a DuckDB oracle
    inlines the identical 6 clamped taps per component, so slope
    statistics derived from (gx, gy) hash-match exactly (the float
    hillshade cosine would not; integer gradient moments do)."""
    (c0, r0), (w, h) = window, window_size
    s = np.asarray(seeds, dtype=np.int64)[:, None]
    rows = r0 + np.arange(h)
    cols = c0 + np.arange(w)
    gx = np.zeros((len(s), h * w), dtype=np.int64)
    gy = np.zeros((len(s), h * w), dtype=np.int64)
    # the 4 corner taps appear in BOTH weight dicts — decode each of
    # the 8 unique offsets ONCE and accumulate into both gradients
    for dy, dx in sorted(set(_HORN_GX) | set(_HORN_GY)):
        yy = np.clip(rows + dy, 0, TILE_H - 1)
        xx = np.clip(cols + dx, 0, TILE_W - 1)
        i = (yy[:, None] * TILE_W + xx[None, :]).reshape(1, -1)
        v = _band_values_at(s, i, band)
        wx = _HORN_GX.get((dy, dx))
        if wx:
            gx += wx * v
        wy = _HORN_GY.get((dy, dx))
        if wy:
            gy += wy * v
    return gx, gy


def synth_band_window(
    seeds: np.ndarray,
    band: int,
    window: Tuple[int, int],
    window_size: Tuple[int, int],
    out_size: Tuple[int, int],
) -> np.ndarray:
    """(len(seeds), ow·oh) uint16: the band tile's window resampled to
    ``out_size`` by nearest neighbor. Values follow the same LCG formula
    as ``synth_band_values`` evaluated at the selected flat indices, so
    a DuckDB oracle can reproduce the resampled read exactly."""
    idx = window_indices(window, window_size, out_size)
    s = np.asarray(seeds, dtype=np.int64)[:, None]
    return _band_values_at(s, idx[None, :], band).astype(np.uint16)


# ---------------------------------------------------------------------------
# extents (SQL-reproducible integer arithmetic)
# ---------------------------------------------------------------------------

def centroids(seeds: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Tile centroid (lon, lat) per seed; 60% inside 3 dense city boxes.

    SQL equivalent:
      lon = CASE WHEN s % 10 < 6 THEN clon(s%3) + ((s*31) % 2000 - 1000)/1000.0
                 ELSE ((s*9973) % 360000)/1000.0 - 180.0 END
      (lat analogous with 57 / 7919 / 170000 and -85.)
    """
    s = np.asarray(seeds, dtype=np.int64)
    in_city = (s % CITY_FRAC_MOD) < CITY_CUT
    c = s % 3
    clon = np.array([cc[0] for cc in CITY_CENTERS])[c]
    clat = np.array([cc[1] for cc in CITY_CENTERS])[c]
    city_lon = clon + ((s * 31) % 2000 - 1000) / 1000.0
    city_lat = clat + ((s * 57) % 2000 - 1000) / 1000.0
    glob_lon = ((s * 9973) % 360000) / 1000.0 - 180.0
    glob_lat = ((s * 7919) % 170000) / 1000.0 - 85.0
    lon = np.where(in_city, city_lon, glob_lon)
    lat = np.where(in_city, city_lat, glob_lat)
    return lon, lat


def centroids_e3(seeds: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Tile centroid in EXACT integer milli-degrees (lon_e3, lat_e3):
    the same LCG arithmetic as :func:`centroids` on the common e3 grid.
    NOT bit-equal to ``centroids()`` × 1000 — the float path pays 1-2
    extra IEEE ops (``clon + frac/1000.0``; ``x/1000.0 - 180.0``) —
    but rounding the floats to e3 recovers these integers exactly
    (pinned in tests/test_io.py). Spatial operators
    that need hashable exact distances (radius_neighbors) work in
    these integer units end-to-end, never the floats.

    SQL equivalent (seed ≥ 0 so every % is non-negative):
      lon_e3 = CASE WHEN s % 10 < 6 THEN clon_e3(s % 3) + (s*31) % 2000 - 1000
                    ELSE (s*9973) % 360000 - 180000 END
      lat_e3 analogous with 57 / 7919 / 170000 / -85000.
    """
    s = np.asarray(seeds, dtype=np.int64)
    in_city = (s % CITY_FRAC_MOD) < CITY_CUT
    c = s % 3
    clon = np.array([int(round(cc[0] * 1000)) for cc in CITY_CENTERS])[c]
    clat = np.array([int(round(cc[1] * 1000)) for cc in CITY_CENTERS])[c]
    lon = np.where(in_city, clon + (s * 31) % 2000 - 1000,
                   (s * 9973) % 360000 - 180000)
    lat = np.where(in_city, clat + (s * 57) % 2000 - 1000,
                   (s * 7919) % 170000 - 85000)
    return lon.astype(np.int64), lat.astype(np.int64)


def extents(seeds: np.ndarray):
    lon, lat = centroids(seeds)
    return {
        "lon": lon,
        "lat": lat,
        "minx": lon - TILE_HALF_DEG,
        "miny": lat - TILE_HALF_DEG,
        "maxx": lon + TILE_HALF_DEG,
        "maxy": lat + TILE_HALF_DEG,
    }


# ---------------------------------------------------------------------------
# erased tiles (all 10 cell types, runtime-dynamic)
# ---------------------------------------------------------------------------

def tile_cell_types(seeds: np.ndarray) -> np.ndarray:
    """Cell-type index per seed (weighted wheel)."""
    wheel = np.array(TYPE_WHEEL, dtype=np.int64)
    return wheel[np.asarray(seeds, dtype=np.int64) % len(wheel)]


def tile_shapes(seeds: np.ndarray) -> np.ndarray:
    """(len, 2) int32 shapes; 1-in-101 tiles use the 186×169 fixture shape."""
    s = np.asarray(seeds, dtype=np.int64)
    big = (s % 101) == 0
    shapes = np.empty((len(s), 2), dtype=np.int32)
    shapes[:, 0] = np.where(big, BIG_SHAPE[0], TILE_H)
    shapes[:, 1] = np.where(big, BIG_SHAPE[1], TILE_W)
    return shapes


def _typed_values(raw: np.ndarray, ct: CellType) -> np.ndarray:
    """Map raw LCG values (int64, 0..65520) into the target cell type's range."""
    if ct is CellType.UInt8:
        return (raw % 251).astype(np.uint8) + 1  # 1..251, sentinel 0 free
    if ct is CellType.Int8:
        return (raw % 200 - 100).astype(np.int8)  # −100..99, sentinel −128 free
    if ct is CellType.UInt16:
        return (raw % VAL_MOD).astype(np.uint16) + 1
    if ct is CellType.Int16:
        return (raw % 60000 - 30000).astype(np.int16)
    if ct is CellType.UInt32 or ct is CellType.UInt64:
        return (raw * 65537 + 1).astype(ct.dtype)
    if ct is CellType.Int32 or ct is CellType.Int64:
        return ((raw - 32760) * 65537).astype(ct.dtype)
    # floats: fractional values in (0, 1]
    return ((raw + 1) / 65521.0).astype(ct.dtype)


def synth_tiles(seeds: np.ndarray) -> Dict[str, list]:
    """Decode a batch of erased tiles.

    Returns equal-length columns: ``data`` (bytes, native little-endian
    C-order payload — the moral equivalent of the reference's type-erased
    ``CellBuffer`` memory), ``mask`` (bit-packed validity bytes),
    ``cell_type`` (reference spelling), ``nrows``/``ncols``, ``nodata``
    (float64 sentinel or None for NaN-default floats), plus extent columns.
    """
    s = np.asarray(seeds, dtype=np.int64)
    ct_idx = tile_cell_types(s)
    shapes = tile_shapes(s)
    ext = extents(s)

    data = [None] * len(s)
    masks = [None] * len(s)
    cts = [None] * len(s)
    nodatas = [None] * len(s)
    # vectorize per (cell_type, shape) group — at most 20 groups per batch
    big = (shapes[:, 0] != TILE_H)
    for ci in np.unique(ct_idx):
        ct = CELL_TYPES[ci]
        sentinel = ct.default_nodata()
        nd = float(sentinel) if ct.is_integral else None
        for is_big in (False, True):
            sel = np.nonzero((ct_idx == ci) & (big == is_big))[0]
            if sel.size == 0:
                continue
            n = (BIG_SHAPE[0] * BIG_SHAPE[1]) if is_big else TILE_N
            ss = s[sel][:, None]
            i = np.arange(n, dtype=np.int64)[None, :]
            raw = (ss * MUL_A + i * MUL_I) % RAW_MOD
            vals = _typed_values(raw, ct)
            invalid = (ss + i * MASK_MUL) % MASK_MOD == 0
            vals[invalid] = sentinel
            valid = ~invalid
            packed = np.packbits(valid, axis=1, bitorder="little")
            for g, k in enumerate(sel):
                data[k] = vals[g].tobytes()
                masks[k] = packed[g].tobytes()
                cts[k] = ct.name
                nodatas[k] = nd

    return {
        "data": data,
        "mask": masks,
        "cell_type": cts,
        "nrows": shapes[:, 0],
        "ncols": shapes[:, 1],
        "nodata": nodatas,
        **ext,
    }


# ---------------------------------------------------------------------------
# fused chunked stats (cache-resident decode→reduce; no payload materialized)
# ---------------------------------------------------------------------------

# Cells per chunk: a chunk's float64 scratch is 64 rows of a 4,096-cell tile
# (8 of a 186×169 one), ≈2 MB, so the copied value windows stay
# cache-resident while the masked reductions read them, instead of streaming
# full-batch matrices through DRAM.
_CHUNK_CELLS = 64 * TILE_N
# Per-worker reusable chunk buffers AND the lookup tables below (value
# windows, block tables, mask tables, masked positions), keyed by kind and
# size. Module-level so they persist in Ray's reused worker processes; actors
# and task workers are single-threaded, so sharing them needs no lock.
_SCRATCH: dict = {}

_I64_MAX = 2**63 - 1
# The per-cell formulas run in int64, which wraps by 2^64. Past a wrap the
# mod-m residue drops by 2^64 mod m; the table kernels repeat that exactly.
_WRAP_RAW = 2**64 % RAW_MOD
_WRAP_MASK = 2**64 % MASK_MOD
# 65521 is prime, so MUL_I has an inverse mod 65521 (the value windows).
_INV_MUL_I = pow(MUL_I, -1, RAW_MOD)
# 33 is coprime to MASK_MUL: a tile's masked cells are one residue mod 33.
_INV_MASK_MUL = pow(MASK_MUL, -1, MASK_MOD)
# Block tables: aligned blocks of _BLOCK cells of a window table (a multiple
# of 33, so a block's cells of residue q mod 33 sit at offsets q and q + 33),
# looked up _SPAN blocks (2,112 cells) at a time. _SPAN is a power of two.
_BLOCK = 2 * MASK_MOD
_SPAN = 32
# Cells per table-path chunk: its gathered masked cells (n/33 a tile) and
# heads and tails are ≈1 MB each.
_TABLE_CELLS = 1 << 22
# Float32 values float32((raw + 1)/65521) lie in [2^-16, 1], where float32's
# spacing is at least 2^-39: times 2^_F32_EXP each is an exact integer of at
# most 2^39, so a Float32 window sums exactly in int64.
_F32_EXP = 39


def _cached(key, build):
    v = _SCRATCH.get(key)
    if v is None:
        v = _SCRATCH[key] = build()
    return v


def _chunk_rows(n: int) -> int:
    """Rows of an n-cell tile per chunk: ``_CHUNK_CELLS`` cells at most."""
    return max(1, _CHUNK_CELLS // n)


def _scratch(kind: str, n: int, dtype) -> np.ndarray:
    """Reused ``(_chunk_rows(n), n)`` chunk buffer."""
    return _cached(
        ("scratch", kind, n, np.dtype(dtype).name),
        lambda: np.empty((_chunk_rows(n), n), dtype=dtype),
    )


def _imul_cache(n: int, offset: int) -> np.ndarray:
    return _cached(
        ("imul", n, offset), lambda: (np.arange(n, dtype=np.int64) + offset) * MUL_I
    )


def _wraps(x: np.ndarray, n: int, step: int) -> np.ndarray:
    """Whether each tile's int64 ``x + i·step`` overflows inside the tile
    (``i < n``). Only seeds within ``step·n`` of the int64 edge do."""
    return x > _I64_MAX - step * (n - 1)


def _wrap_points(x: np.ndarray, n: int, step: int):
    """``(row, t)`` for every tile whose int64 ``x + i·step`` overflows
    inside the tile; ``t`` is its first wrapped cell. Almost always
    empty."""
    rows = np.flatnonzero(_wraps(x, n, step))
    return [(k, (_I64_MAX - int(x[k])) // step + 1) for k in rows]


def _first_masked(s: np.ndarray) -> np.ndarray:
    """First masked cell r of the tiles seeded ``s`` (no in-tile wrap):
    ``(s + i·7) mod 33 = 0`` iff ``i ≡ r = −(s mod 33)·7⁻¹ (mod 33)``."""
    return -(s % MASK_MOD) * _INV_MASK_MUL % MASK_MOD


def _valid_counts(r: np.ndarray, n: int) -> np.ndarray:
    """Valid cells of n-cell tiles whose masked cells are the i ≡ r (mod 33)."""
    return n - (n // MASK_MOD + (r < n % MASK_MOD))


def _mask_table(n: int):
    """(33, n) validity rows plus their valid counts: row m is
    ``(m + i·7) % 33 != 0``, the mask of every n-cell tile whose seed is
    ≡ m (mod 33)."""

    def build():
        rows = np.ones((MASK_MOD, n), dtype=bool)
        for m, r in enumerate(_first_masked(np.arange(MASK_MOD)).tolist()):
            rows[m, r::MASK_MOD] = False
        return rows, rows.sum(axis=1)

    return _cached(("mask", n), build)


def _tile_masks(s: np.ndarray, n: int, out: np.ndarray) -> np.ndarray:
    """Validity ``(s + i·7) % 33 != 0`` (int64 arithmetic) of the tiles
    seeded ``s`` into ``out[:len(s)]``; returns their valid counts.

    THE mask of every tile family: a row copy from the mask table, the
    count a table lookup. A tile whose ``s + i·7`` wraps int64 switches
    from its wrap point on to row ``(m − 2^64 mod 33) mod 33``."""
    rows, counts = _mask_table(n)
    m = s % MASK_MOD
    np.take(rows, m, axis=0, out=out[: len(s)], mode="clip")
    nv = counts[m]
    for k, t in _wrap_points(s, n, MASK_MUL):
        out[k, t:] = rows[(m[k] - _WRAP_MASK) % MASK_MOD, t:]
        nv[k] = np.count_nonzero(out[k])
    return nv


def _window_table(ct: CellType) -> np.ndarray:
    """Typed value, in ``ct``'s own dtype, of residue ``(k·MUL_I) mod
    65521``, laid out twice: ``U[k] = _typed_values((k mod 65521)·MUL_I mod
    65521)`` for ``k < 2·65521``, so any tile's values are one window
    ``U[d : d+n]`` (see ``synth_tile_stats``) with no modulo."""

    def build():
        k = np.arange(RAW_MOD, dtype=np.int64)
        u = _typed_values(k * MUL_I % RAW_MOD, ct)
        return np.concatenate([u, u])

    return _cached(("window", ct.name), build)


def _row_sums(v: np.ndarray, ct: CellType) -> np.ndarray:
    """Exact int64 sum of each row of table values of type ``ct``, for
    Float32 in units of 2^-_F32_EXP. A Float32 row of at most a thousand
    values sums exactly in float64 (every partial sum is a multiple of
    2^-39 under 2^14), so only the row sums are scaled."""
    if ct is CellType.Float32:
        return np.ldexp(v.sum(axis=1, dtype=np.float64), _F32_EXP).astype(np.int64)
    return v.sum(axis=1, dtype=np.int64)


def _block_tables(ct: CellType):
    """``(lo, hi, csum)`` over the aligned ``_BLOCK``-cell blocks of
    ``U = _window_table(ct)``. ``lo[q, b]`` / ``hi[q, b]`` are the min /
    max, in ``ct``'s dtype, of ``U[b·_BLOCK : (b + _SPAN)·_BLOCK]`` with
    every cell ≡ q (mod 33) left out; ``csum[b]`` is the int64 sum of
    ``U[: b·_BLOCK]`` (integer and Float32 types, the latter in units of
    2^-_F32_EXP; None for Float64)."""

    def build():
        u = _window_table(ct)
        nb = u.size // _BLOCK
        pairs = u[: nb * _BLOCK].reshape(nb, 2, MASK_MOD)
        tables = []
        for op in (np.minimum, np.maximum):
            per_res = op(pairs[:, 0], pairs[:, 1])  # (nb, 33): block b, residue c
            pre = op.accumulate(per_res, axis=1)
            suf = op.accumulate(per_res[:, ::-1], axis=1)[:, ::-1]
            t = np.empty((MASK_MOD, nb), dtype=u.dtype)
            t[0] = suf[:, 1]
            t[-1] = pre[:, -2]
            t[1:-1] = op(pre[:, :-2], suf[:, 2:]).T
            w = 1
            while w < _SPAN:  # slide over _SPAN blocks by doubling
                t = op(t[:, :-w], t[:, w:])
                w *= 2
            tables.append(t)
        csum = None
        if ct is not CellType.Float64:
            per_block = _row_sums(u[: nb * _BLOCK].reshape(nb, _BLOCK), ct)
            csum = np.concatenate([[0], np.cumsum(per_block)])
        return tables[0], tables[1], csum

    return _cached(("blocks", ct.name), build)


def _window_starts(c: np.ndarray) -> np.ndarray:
    """Window start ``d = c·MUL_I⁻¹ mod 65521`` of residue offsets ``c``."""
    return c * _INV_MUL_I % RAW_MOD


def _copy_tile_windows(x: np.ndarray, n: int, u: np.ndarray, out: np.ndarray) -> None:
    """float64 cell values of the tiles with ``x = s·MUL_A`` (int64,
    wrapped) into ``out[:len(x)]``: one window copy from ``u`` per tile,
    and a second from the shifted window from a tile's wrap point on."""
    c = x % RAW_MOD
    for k, d in enumerate(_window_starts(c).tolist()):
        out[k] = u[d : d + n]
    for k, t in _wrap_points(x, n, MUL_I):
        d = int(_window_starts((c[k] - _WRAP_RAW) % RAW_MOD))
        out[k, t:] = u[d + t : d + n]


def _masked_positions(n: int):
    """(33, L) int64 positions of the masked cells of each mask row (the
    ``False`` cells of ``_mask_table(n)``), padded to a common length by
    repeating a row's last position, plus the rows' valid counts."""

    def build():
        r = _first_masked(np.arange(MASK_MOD, dtype=np.int64))
        counts = _valid_counts(r, n)
        held = n - counts
        j = np.minimum(np.arange(held.max()), (held - 1)[:, None])
        return r[:, None] + MASK_MOD * j, counts

    return _cached(("masked", n), build)


def _tile_masked_cells(s: np.ndarray, n: int):
    """Flat positions, in an ``(len(s), n)`` C-order chunk, of the masked
    cells of the tiles seeded ``s``, and the tiles' valid counts. A tile
    whose ``s + i·7`` wraps int64 takes its cells from ``_tile_masks``."""
    pos, counts = _masked_positions(n)
    m = s % MASK_MOD
    base = np.arange(len(s), dtype=np.int64)[:, None] * n
    flat = pos[m] + base
    nv = counts[m]
    wraps = [k for k, _ in _wrap_points(s, n, MASK_MUL)]
    if not wraps:
        return flat, nv
    valid = _scratch("bool", n, np.bool_)
    nv[wraps] = _tile_masks(s[wraps], n, valid)
    keep = np.ones(len(s), dtype=bool)
    keep[wraps] = False
    parts = [flat[keep].ravel()]
    parts += [np.flatnonzero(~valid[j]) + k * n for j, k in enumerate(wraps)]
    return np.concatenate(parts), nv


def synth_tile_stats(seeds: np.ndarray) -> Dict[str, np.ndarray]:
    """Decode erased tiles AND reduce them to per-tile masked stats,
    mostly from small per-cell-type tables: the payload is never built,
    and most of its cells are never read.

    Equivalent to ``synth_tiles`` → ``stages.tile_stats`` (same masked
    min/max fold semantics, inverted sentinels when fully masked; values
    here are exactly representable in float64 so the reduction is exact),
    and bit-identical to evaluating ``synth_tiles``' per-cell formulas.

    Two identities of those formulas carry it:

    - values: 65521 is prime, so MUL_I is invertible mod 65521 and
      ``(s·MUL_A + i·MUL_I) mod 65521 = ((d + i)·MUL_I) mod 65521`` with
      ``d = ((s·MUL_A) mod 65521)·MUL_I⁻¹ mod 65521`` per tile. A tile's
      values are therefore the contiguous window ``U[d : d+n]`` of a
      per-cell-type table ``U[k]`` = typed value of ``k·MUL_I mod 65521``
      (stored twice, in the cell type's dtype);
    - mask: cell i is masked iff ``(s + i·7) mod 33 = 0``, i.e. iff
      ``i ≡ r = −(s mod 33)·7⁻¹ (mod 33)``. In ``U`` the masked cells of
      the window are exactly the positions ``≡ q = (d + r) mod 33``, and
      the valid count is ``n`` minus the ``i < n`` with ``i ≡ r``.

    So the stats of a window are range queries over ``U`` that skip one
    residue class. ``U`` is cut into aligned 66-cell blocks (two cells of
    each residue per block). Per cell type, two ``(33, blocks)`` tables
    hold the min and max of every run of 32 blocks with residue q left
    out, and one int64 prefix sum runs over the blocks (all types but
    Float64):

    - min/max: ⌈blocks/32⌉ overlapping lookups cover a tile's full blocks
      (2 for 64×64, 15 for 186×169); the head and the tail (each under
      one block) are gathered from ``U`` and masked by residue;
    - integer sums: the block-prefix difference, minus the masked cells
      of the full blocks (gathered, n/33 of them), plus head and tail, in
      int64. Values are under 2^32 in magnitude and tiles under 2^15
      cells, so every partial sum is an exact double and this equals the
      float64 pairwise sum bit for bit, ``mean_val`` with it;
    - Float32 sums: the same integer sum in units of 2^-39. Every Float32
      value lies in [2^-16, 1], so it is an exact multiple of 2^-39, and
      every window sum of either shape stays under 2^53 units: each
      partial sum of any order is an exact double, and the float64 sum
      is the integer sum times 2^-39 bit for bit. Only the row sums of
      the gathered cells (masked cells, head and tail) are scaled;
    - Float64 sums (1 tile in 16): a pairwise float sum's bits depend on
      its order, so these tiles copy their window into a ≈2 MB chunk
      scratch, write 0.0 over the masked cells (one of 33 cached position
      lists) and sum the rows, as ``np.where(valid, v, 0.0).sum`` would.

    Wrap rule: the per-cell formulas are int64 arithmetic, and for seeds
    near the int64 edge ``s·MUL_A + i·MUL_I`` or ``s + i·7`` overflows
    partway through a tile. From that cell on the residue drops by 2^64
    mod 65521 (resp. 2^64 mod 33). Such tiles, of any type, take the copy
    path whole, which switches window (resp. mask row) at that cell — so
    every int64 seed decodes exactly as the formula does.

    Each distinct seed is decoded once per batch (interleaved corpora
    repeat media refs); results are expanded back to input order."""
    s = np.asarray(seeds, dtype=np.int64)
    u, inv = np.unique(s, return_inverse=True)
    st = _distinct_tile_stats(u)
    return {k: v[inv] for k, v in st.items()}


def _copy_stats(x: np.ndarray, s: np.ndarray, n: int, u: np.ndarray, minmax: bool = True):
    """``(min, max, sum, valid count)`` float64/int64 arrays of the tiles
    with ``x = s·MUL_A`` from chunked window copies: masked cells set to
    +inf, −inf and 0.0 before ``min``, ``max`` and ``sum``. ``min`` and
    ``max`` are left unset when ``minmax`` is False."""
    N = len(x)
    step = _chunk_rows(n)
    f64 = _scratch("f64", n, np.float64)
    mn = np.empty(N, dtype=np.float64)
    mx = np.empty(N, dtype=np.float64)
    sums = np.empty(N, dtype=np.float64)
    nv = np.empty(N, dtype=np.int64)
    for lo in range(0, N, step):
        part = slice(lo, lo + step)
        vf = f64[: min(step, N - lo)]
        _copy_tile_windows(x[part], n, u, vf)
        masked, nv[part] = _tile_masked_cells(s[part], n)
        if minmax:
            vf.put(masked, np.inf)
            mn[part] = vf.min(axis=1)
            vf.put(masked, -np.inf)
            mx[part] = vf.max(axis=1)
        vf.put(masked, 0.0)
        sums[part] = vf.sum(axis=1)
    return mn, mx, sums, nv


def _table_stats(x: np.ndarray, s: np.ndarray, n: int, ct: CellType):
    """``(min, max, sum, valid count)`` of n-cell tiles of type ``ct``
    whose formulas do not wrap inside the tile, from ``_block_tables``
    (see ``synth_tile_stats``); the sum is exact, int64 for integer
    types, float64 for Float32 and None for Float64. Needs
    ``n ≥ (_SPAN + 1)·_BLOCK`` so every tile spans ``_SPAN`` full blocks."""
    u = _window_table(ct)
    lo_t, hi_t, csum = _block_tables(ct)
    info = np.iinfo(u.dtype) if ct.is_integral else np.finfo(u.dtype)
    top, bottom = u.dtype.type(info.max), u.dtype.type(info.min)

    d = _window_starts(x % RAW_MOD)
    r = _first_masked(s)
    q = (d + r) % MASK_MOD  # the masked cells' residue in U
    b0 = -(-d // _BLOCK)  # the tile's full blocks are b0 … b1 − 1
    b1 = (d + n) // _BLOCK
    # Lookups at b0, b0 + _SPAN, …, the last pulled back to b1 − _SPAN:
    # they overlap, which min and max do not mind.
    spans = np.arange(-(-(n // _BLOCK) // _SPAN)) * _SPAN
    # Head U[d : b0·B] and tail U[b1·B : d+n], each under one block: their
    # masked cells are the offsets ≡ r and ≡ q (block starts are ≡ 0 mod 33).
    start = np.stack([d, b1 * _BLOCK], axis=1)[:, :, None]
    size = np.stack([b0 * _BLOCK - d, d + n - b1 * _BLOCK], axis=1)[:, :, None]
    skip = np.stack([r, q], axis=1)[:, :, None]
    j = np.arange(_BLOCK)
    # The masked cells of the full blocks: 2 per block, 33 apart.
    held_at = np.arange(2 * (n // _BLOCK)) * MASK_MOD

    N = len(x)
    mn = np.empty(N, dtype=np.float64)
    mx = np.empty(N, dtype=np.float64)
    sums = None if csum is None else np.empty(N, dtype=np.int64)
    step = _TABLE_CELLS // n
    for lo in range(0, N, step):
        part = slice(lo, lo + step)
        at = np.minimum(b0[part, None] + spans, b1[part, None] - _SPAN)
        at += q[part, None] * lo_t.shape[1]
        ends = u.take((start[part] + j).reshape(-1, 2 * _BLOCK))
        ok = ((j < size[part]) & (j % MASK_MOD != skip[part])).reshape(-1, 2 * _BLOCK)
        mn[part] = np.minimum(lo_t.take(at).min(axis=1), np.where(ok, ends, top).min(axis=1))
        mx[part] = np.maximum(hi_t.take(at).max(axis=1), np.where(ok, ends, bottom).max(axis=1))
        if sums is not None:
            held = u.take((b0[part] * _BLOCK + q[part])[:, None] + held_at)
            held_n = 2 * (b1[part] - b0[part])
            sums[part] = (
                csum[b1[part]] - csum[b0[part]]
                - _row_sums(np.where(held_at < MASK_MOD * held_n[:, None], held, 0), ct)
                + _row_sums(np.where(ok, ends, 0), ct)
            )
    if ct is CellType.Float32:
        sums = np.ldexp(sums, -_F32_EXP)
    return mn, mx, sums, _valid_counts(r, n)


def _distinct_tile_stats(s: np.ndarray) -> Dict[str, np.ndarray]:
    ct_idx = tile_cell_types(s)
    shapes = tile_shapes(s)
    ext = extents(s)
    N = len(s)

    min_v = np.empty(N, dtype=np.float64)
    max_v = np.empty(N, dtype=np.float64)
    sum_v = np.empty(N, dtype=np.float64)
    valid_c = np.empty(N, dtype=np.int64)
    cts = np.empty(N, dtype=object)

    x = s * MUL_A  # int64, wraps exactly as the per-cell formula does
    big = shapes[:, 0] != TILE_H
    for ci in np.unique(ct_idx):
        ct = CELL_TYPES[ci]
        u = _window_table(ct)
        for is_big in (False, True):
            sel = np.nonzero((ct_idx == ci) & (big == is_big))[0]
            if sel.size == 0:
                continue
            n = (BIG_SHAPE[0] * BIG_SHAPE[1]) if is_big else TILE_N
            wraps = _wraps(x[sel], n, MUL_I) | _wraps(s[sel], n, MASK_MUL)
            whole = sel[wraps]
            if whole.size:
                st = _copy_stats(x[whole], s[whole], n, u)
                min_v[whole], max_v[whole], sum_v[whole], valid_c[whole] = st
            rows = sel[~wraps]
            mn, mx, sums, nv = _table_stats(x[rows], s[rows], n, ct)
            if sums is None:
                sums = _copy_stats(x[rows], s[rows], n, u, minmax=False)[2]
            min_v[rows], max_v[rows], sum_v[rows], valid_c[rows] = mn, mx, sums, nv
        sel = np.nonzero(ct_idx == ci)[0]
        none = sel[valid_c[sel] == 0]  # reference fold: inverted sentinels
        min_v[none] = float(ct.max_value().to_f64())
        max_v[none] = float(ct.min_value().to_f64())
        cts[sel] = ct.name

    with np.errstate(invalid="ignore", divide="ignore"):
        mean_v = np.where(valid_c > 0, sum_v / np.maximum(valid_c, 1), np.nan)
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
        **ext,
    }


def synth_band_stats(seeds: np.ndarray, band: int) -> Dict[str, np.ndarray]:
    """Chunked band-tile decode→reduce (uint16 LCG, sentinel 0): exact
    integer stats without materializing the (B, 4096) value matrix in
    DRAM. Value-identical to ``synth_band_values`` + numpy reductions."""
    s = np.asarray(seeds, dtype=np.int64)
    N = len(s)
    n = TILE_N
    imul = _imul_cache(n, band * 101)
    i64 = _scratch("i64", n, np.int64)
    valid = _scratch("bool", n, np.bool_)
    valid_c = np.empty(N, dtype=np.int64)
    sum_v = np.empty(N, dtype=np.int64)
    min_v = np.empty(N, dtype=np.int64)
    max_v = np.empty(N, dtype=np.int64)
    step = _chunk_rows(n)
    for lo in range(0, N, step):
        g = min(step, N - lo)
        ss = s[lo : lo + g]
        np.add(ss[:, None] * MUL_A, imul, out=i64[:g])
        np.mod(i64[:g], VAL_MOD, out=i64[:g])
        np.add(i64[:g], 1, out=i64[:g])  # v in 1..65520
        valid_c[lo : lo + g] = _tile_masks(ss, n, valid)
        v, m = i64[:g], valid[:g]
        sum_v[lo : lo + g] = np.where(m, v, 0).sum(axis=1)
        min_v[lo : lo + g] = np.where(m, v, np.int64(1 << 40)).min(axis=1)
        max_v[lo : lo + g] = np.where(m, v, np.int64(-1)).max(axis=1)
    return {
        "valid_count": valid_c,
        "nodata_count": n - valid_c,
        "min_val": min_v,
        "max_val": max_v,
        "sum_val": sum_v,
    }


def _p31_cache(n: int) -> np.ndarray:
    def build():
        with np.errstate(over="ignore"):
            return np.uint64(31) ** np.arange(n, dtype=np.uint64)

    return _cached(("p31", n), build)


def synth_band_content_hash(seeds: np.ndarray, band: int = 4) -> np.ndarray:
    """Polynomial content hash per band tile: Σ v_i·31^i mod 2^64 over
    the 4096 decoded band values (0 at nodata cells — i.e. the hash is
    over ``synth_band_values`` exactly). Chunked decode→hash in the
    REUSED module scratch (the ``synth_band_stats`` pattern): the value
    matrix never exists outside a ~2 MB working set, and the power table
    is cached once per worker. Returns uint64; carry it in Arrow as the
    int64 BIT PATTERN (CLAUDE.md uint64 rule). SQL mirror: the
    ``media_dedup`` oracle's HUGEINT power-sum over the same LCG."""
    s = np.asarray(seeds, dtype=np.int64)
    N = len(s)
    n = TILE_N
    imul = _imul_cache(n, band * 101)
    i64 = _scratch("i64", n, np.int64)
    valid = _scratch("bool", n, np.bool_)
    u64 = _scratch("u64", n, np.uint64)
    p31 = _p31_cache(n)
    out = np.empty(N, dtype=np.uint64)
    with np.errstate(over="ignore"):
        step = _chunk_rows(n)
        for lo in range(0, N, step):
            g = min(step, N - lo)
            ss = s[lo : lo + g]
            np.add(ss[:, None] * MUL_A, imul, out=i64[:g])
            np.mod(i64[:g], VAL_MOD, out=i64[:g])
            np.add(i64[:g], 1, out=i64[:g])  # v in 1..65520
            _tile_masks(ss, n, valid)
            np.multiply(i64[:g], valid[:g], out=i64[:g])  # nodata sentinel 0
            np.copyto(u64[:g], i64[:g], casting="unsafe")
            np.multiply(u64[:g], p31[None, :], out=u64[:g])
            out[lo : lo + g] = u64[:g].sum(axis=1, dtype=np.uint64)
    return out


def synth_ndvi_stats(seeds: np.ndarray, red_band: int = 4, nir_band: int = 5) -> Dict[str, np.ndarray]:
    """The reference's golden workload (rasterband.rs:138-191) as a
    chunked two-band kernel: ndvi = (nir − red) / (nir + red) over cells
    valid in BOTH bands (mask AND — masked_buffer.rs:323-350), reduced to
    per-tile min/max/valid-count without materializing the bands.

    Every elementwise value is an exact IEEE double of integer operands,
    so a DuckDB oracle computing the same formula matches bit-for-bit."""
    s = np.asarray(seeds, dtype=np.int64)
    N = len(s)
    n = TILE_N
    imul_r = _imul_cache(n, red_band * 101)
    imul_n = _imul_cache(n, nir_band * 101)
    red = _scratch("i64", n, np.int64)
    nir = _scratch("i64b", n, np.int64)
    f64 = _scratch("f64", n, np.float64)
    valid = _scratch("bool", n, np.bool_)
    n_valid = np.empty(N, dtype=np.int64)
    ndvi_min = np.empty(N, dtype=np.float64)
    ndvi_max = np.empty(N, dtype=np.float64)
    step = _chunk_rows(n)
    for lo in range(0, N, step):
        g = min(step, N - lo)
        ss = s[lo : lo + g]
        np.add(ss[:, None] * MUL_A, imul_r, out=red[:g])
        np.mod(red[:g], VAL_MOD, out=red[:g])
        np.add(red[:g], 1, out=red[:g])
        np.add(ss[:, None] * MUL_A, imul_n, out=nir[:g])
        np.mod(nir[:g], VAL_MOD, out=nir[:g])
        np.add(nir[:g], 1, out=nir[:g])
        nv = _tile_masks(ss, n, valid)  # same sentinel mask both bands
        v = valid[:g]
        # ndvi = (nir - red) / (nir + red), elementwise exact doubles
        with np.errstate(invalid="ignore", divide="ignore"):
            np.divide(nir[:g] - red[:g], nir[:g] + red[:g], out=f64[:g])
        n_valid[lo : lo + g] = nv
        mn = np.where(v, f64[:g], np.inf).min(axis=1)
        mx = np.where(v, f64[:g], -np.inf).max(axis=1)
        none = nv == 0
        if none.any():
            mn[none] = np.nan
            mx[none] = np.nan
        ndvi_min[lo : lo + g] = mn
        ndvi_max[lo : lo + g] = mx
    return {"n_valid": n_valid, "ndvi_min": ndvi_min, "ndvi_max": ndvi_max}


def synth_band_delta_stats(
    seeds: np.ndarray, band_a: int, band_b: int
) -> Dict[str, np.ndarray]:
    """Fused TWO-band decode → per-tile integer DELTA stats (band_b −
    band_a over valid cells): one chunked pass computes both bands from
    the shared seed arithmetic (the nodata mask is band-independent, so
    one mask serves both), reusing the 2 MB scratch buffers — never a
    second full decode scan. Sum/min/max are exact int64 (|delta| <
    VAL_MOD, ≤ 4096 terms). Every tile has valid cells (the sentinel
    mask hits ~1/33 of cells), so no empty-fold sentinel can leak."""
    s = np.asarray(seeds, dtype=np.int64)
    N = len(s)
    n = TILE_N
    imul_a = _imul_cache(n, band_a * 101)
    imul_b = _imul_cache(n, band_b * 101)
    va = _scratch("i64", n, np.int64)
    vb = _scratch("i64b", n, np.int64)
    valid = _scratch("bool", n, np.bool_)
    valid_c = np.empty(N, dtype=np.int64)
    sum_d = np.empty(N, dtype=np.int64)
    min_d = np.empty(N, dtype=np.int64)
    max_d = np.empty(N, dtype=np.int64)
    step = _chunk_rows(n)
    for lo in range(0, N, step):
        g = min(step, N - lo)
        ss = s[lo : lo + g]
        np.add(ss[:, None] * MUL_A, imul_a, out=va[:g])
        np.mod(va[:g], VAL_MOD, out=va[:g])
        np.add(ss[:, None] * MUL_A, imul_b, out=vb[:g])
        np.mod(vb[:g], VAL_MOD, out=vb[:g])
        np.subtract(vb[:g], va[:g], out=vb[:g])  # the +1 offsets cancel
        valid_c[lo : lo + g] = _tile_masks(ss, n, valid)
        d, m = vb[:g], valid[:g]
        sum_d[lo : lo + g] = np.where(m, d, 0).sum(axis=1)
        min_d[lo : lo + g] = np.where(m, d, np.int64(1 << 40)).min(axis=1)
        max_d[lo : lo + g] = np.where(m, d, np.int64(-(1 << 40))).max(axis=1)
    return {
        "valid_count": valid_c,
        "sum_delta": sum_d,
        "min_delta": min_d,
        "max_delta": max_d,
    }

"""Single-layer measurements on fixed seeded arrays, in the driver.

GB/s figures count computed bytes (cells × cell size), not bytes the
memory system moved. ``mem.memcpy_gbps`` is the copy bandwidth of
the machine running the benchmark, the roofline the kernels are read
against.
"""

from __future__ import annotations

import time

import numpy as np
import pyarrow as pa

from raycells.cells import kernels
from raycells.cells.ctype import CELL_TYPES
from raycells.engine import shuffle
from raycells.geo import cellid
from raycells.io import tilestore

_SEED = 20240611
_REPS = 5


def _median_time(fn, reps: int = _REPS) -> float:
    fn()  # first touch
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def kernel_metrics() -> dict:
    rng = np.random.default_rng(_SEED)

    seeds = rng.integers(0, 1 << 31, 2048)
    t = _median_time(lambda: tilestore.synth_tile_stats(seeds))
    shapes = tilestore.tile_shapes(seeds)
    itemsize = np.array([CELL_TYPES[c].dtype.itemsize for c in tilestore.tile_cell_types(seeds)])
    tile_bytes = float((shapes[:, 0].astype(np.int64) * shapes[:, 1] * itemsize).sum())

    arr = rng.random(1 << 22, dtype=np.float32)
    mask = rng.random(arr.size) < 0.97
    t_mm = _median_time(lambda: kernels.min_max(arr, mask))

    lon = rng.uniform(-180, 180, 1 << 20)
    lat = rng.uniform(-90, 90, 1 << 20)
    t_cell = _median_time(lambda: cellid.encode(lon, lat, 8))

    src = rng.random(1 << 23)  # 64 MB
    dst = np.empty_like(src)
    t_cp = _median_time(lambda: np.copyto(dst, src))

    return {
        "io.tilestore.tiles_per_s": seeds.size / t,
        "io.tilestore.gbps": tile_bytes / t / 1e9,
        "cells.kernels.min_max_gbps": (arr.nbytes + mask.nbytes) / t_mm / 1e9,
        "geo.cellid.encode_mcells_per_s": lon.size / t_cell / 1e6,
        "mem.memcpy_gbps": src.nbytes / t_cp / 1e9,
    }


def _tiny_partials(rows: int = 512) -> pa.Table:
    rng = np.random.default_rng(_SEED)
    return pa.table({
        "key": pa.array(rng.integers(0, 1 << 40, rows).astype(np.uint64)),
        "salt": pa.array(rng.integers(0, 8, rows)),
        "n_tiles": pa.array(np.ones(rows, np.int64)),
        "sum_mean": pa.array(rng.random(rows)),
        "valid_count": pa.array(np.full(rows, 4000, np.int64)),
        "nodata_count": pa.array(np.full(rows, 96, np.int64)),
        "min_val": pa.array(rng.random(rows)),
        "max_val": pa.array(rng.random(rows) + 1.0),
    })


def exchange_fixed_cost() -> dict:
    """``merge_cell_agg`` wall time on 512 partial rows spread over 8 and
    over 64 input blocks: the exchange's per-block fixed cost."""
    import ray.data as rd

    tab = _tiny_partials()
    out = {}
    for blocks in (8, 64):
        step = -(-tab.num_rows // blocks)
        parts = [tab.slice(i, step) for i in range(0, tab.num_rows, step)]
        ds = rd.from_arrow(parts).materialize()
        t0 = time.perf_counter()
        n = shuffle.merge_cell_agg(ds).materialize().count()
        out[f"engine.shuffle.fixed_s.blocks{blocks}"] = time.perf_counter() - t0
        if n != tab.num_rows:  # 512 random 40-bit keys: all distinct
            raise AssertionError(f"merge_cell_agg returned {n} rows, want {tab.num_rows}")
    return out

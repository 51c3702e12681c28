"""HyperLogLog approximate-distinct — the mergeable-sketch pattern.

At 100 TB an exact COUNT(DISTINCT) must shuffle every distinct value
once (engine/joins.distinct_count); an HLL sketch never shuffles values
at all: each batch folds its keys into a fixed 2^p-register array, the
registers merge with an elementwise ``np.maximum`` (associative +
commutative, so combining is a tiny tree reduction over
``registers_per_group`` blobs), and the estimate comes out of the
merged registers. Standard error ≈ 1.04 / sqrt(2^p) (~1.6% at p=12).

Pure numpy, fixed hash seed (deterministic under Ray retries);
register blobs travel as fixed-size binary columns.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from raycells.engine.shuffle import collect_refs

__all__ = ["hll_registers", "hll_merge", "hll_estimate", "approx_distinct"]

DEFAULT_P = 12  # 4096 registers → ~1.6% standard error


def _hash64(values: np.ndarray) -> np.ndarray:
    """Deterministic 64-bit mix of any key column (ints hashed directly,
    strings/objects via pandas' vectorized siphash)."""
    if values.dtype.kind in "iu":
        h = values.astype(np.uint64)
        with np.errstate(over="ignore"):
            h = (h ^ (h >> np.uint64(33))) * np.uint64(0xFF51AFD7ED558CCD)
            h = (h ^ (h >> np.uint64(33))) * np.uint64(0xC4CEB9FE1A85EC53)
            return h ^ (h >> np.uint64(33))
    return pd.util.hash_array(np.asarray(values, dtype=object))


def _rank(rest: np.ndarray, p: int) -> np.ndarray:
    """HLL rank of the left-aligned remaining bits: leading zeros + 1,
    capped at 64-p+1 for rest == 0. Uses the float64 exponent for speed
    but corrects it in the INTEGER domain: uint64→float64 rounds any
    value within half-ulp below 2^e up to 2^e (one binade at most — 2^e
    itself is exact), which made the rank off by one for p <= 9 where
    `rest` multiples of 2^p can land inside the half-ulp window."""
    lz = np.full(len(rest), 64 - p + 1, dtype=np.uint8)
    nonzero = rest != 0
    if nonzero.any():
        bits = rest[nonzero]
        exp = (np.frexp(bits.astype(np.float64))[1] - 1).astype(np.int64)
        exp = np.minimum(exp, 63)  # 2^63..2^64 rounds up in float64
        too_high = (bits >> exp.astype(np.uint64)) == 0
        exp[too_high] -= 1
        lz[nonzero] = (63 - exp + 1).astype(np.uint8)
    return lz


def hll_registers(values: np.ndarray, p: int = DEFAULT_P) -> np.ndarray:
    """(2^p,) uint8 register array for one batch of keys."""
    h = _hash64(values)
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    rest = h << np.uint64(p)  # remaining 64-p bits, left-aligned
    lz = _rank(rest, p)
    regs = np.zeros(1 << p, dtype=np.uint8)
    np.maximum.at(regs, idx, lz)
    return regs


def hll_merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.maximum(a, b)


def hll_estimate(regs: np.ndarray) -> float:
    """Standard HLL estimator with the small-range (linear counting)
    correction, computed ORDER-FREE: the harmonic sum Σ2^−reg is
    assembled as the exact integer Σ2^(64−reg) (every term is a dyadic
    rational; a float accumulation would vary with summation order), so
    the estimate is a deterministic function of the register MULTISET —
    bit-identical across partitionings and reproducible by the DuckDB
    oracle."""
    m = regs.size
    alpha = 0.7213 / (1 + 1.079 / m)
    counts = np.bincount(regs.astype(np.int64), minlength=65)
    int_sum = sum(int(c) << (64 - r) for r, c in enumerate(counts) if c)
    est = alpha * m * m * 2.0**64 / float(int_sum)
    zeros = int(counts[0])
    if est <= 2.5 * m and zeros:
        est = m * np.log(m / zeros)
    return float(est)


def approx_distinct(ds, group_col: str, distinct_col: str, p: int = DEFAULT_P,
                    alias: str = "approx_distinct"):
    """Approximate COUNT(DISTINCT distinct_col) per group: per-batch
    per-group register blobs → coalescing merge (blobs are tiny:
    groups × 2^p bytes per block) → final estimate. No shuffle touches
    the raw values."""

    def partial(b: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "g": b[group_col].to_numpy(zero_copy_only=False),
                "v": b[distinct_col].to_numpy(zero_copy_only=False),
            }
        )
        gs, blobs = [], []
        for g, sub in df.groupby("g", sort=False):
            gs.append(g)
            blobs.append(hll_registers(sub["v"].to_numpy(), p).tobytes())
        return pa.table(
            {
                group_col: pa.array(gs),
                "_regs": pa.array(blobs, pa.binary()),
            }
        )

    def merge(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        gs, blobs = [], []
        for g, sub in df.groupby(group_col, sort=False):
            regs = np.zeros(1 << p, dtype=np.uint8)
            for blob in sub["_regs"]:
                regs = hll_merge(regs, np.frombuffer(blob, dtype=np.uint8))
            gs.append(g)
            blobs.append(regs.tobytes())
        return pa.table(
            {group_col: pa.array(gs), "_regs": pa.array(blobs, pa.binary())}
        )

    # one coalescing merge pass (large batch), then the final estimate on
    # the driver — the table is one row per group
    merged = ds.map_batches(partial, batch_format="pyarrow").map_batches(
        merge, batch_format="pyarrow", batch_size=None
    )
    final: dict = {}
    import ray

    for t in ray.get(collect_refs(merged)):
        for g, blob in zip(t[group_col].to_pylist(), t["_regs"].to_pylist()):
            regs = np.frombuffer(blob, dtype=np.uint8)
            final[g] = hll_merge(final[g], regs) if g in final else regs
    groups = sorted(final)
    # floor(x + 0.5), not round(): Python round() is half-to-even while
    # SQL ROUND is half-away — floor(+0.5) is the one rule both engines
    # express identically
    return pa.table(
        {
            group_col: pa.array(groups),
            alias: pa.array(
                [int(np.floor(hll_estimate(final[g]) + 0.5)) for g in groups],
                pa.int64(),
            ),
        }
    )

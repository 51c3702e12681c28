"""Dataset-level sketch surface: build / merge / probe over Ray Datasets.

Promotes the repo's mergeable sketches (sim/bloom.py bitmaps, sim/hll.py
registers) from query-internal helpers to a reusable engine API
(VERDICT r3 #7), so joins and dedup paths can prune with a sketch
before paying an exact exchange:

- ``bloom_build(ds, col, ...)`` → ObjectRef of one 65536-bit bitmap:
  per-batch PARTIAL bitmaps (blocks × 8 KB move, never a key) OR-merged
  by ONE Ray task worker-side — the driver never touches a key or a
  bitmap.
- ``bloom_prune(ds, ref, col)`` → Dataset of the bloom-POSITIVE rows:
  a memoized broadcast-task stage probing the 8 KB bitmap per batch.
  Approximate by design (false positives pass); compose with an exact
  join/filter downstream, which then carries plain exact semantics —
  the sketch only cuts the rows entering the exchange.
- ``hll_build(ds, col, p)`` → merged HLL register array (np.maximum
  tree over per-batch partials) for approx-distinct without shuffling
  a single value.

The bloom bit mixes are plain BIGINT arithmetic (sim/bloom.py), so an
oracle can reproduce the exact bitmap when FP behavior itself needs
pinning (queries.q_bloom_semijoin does); a bloom-pruned EXACT join
needs no sketch modeling in its oracle at all.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from raycells.engine.shuffle import collect_refs
from raycells.sim.bloom import BLOOM_M, bloom_probe, partial_bloom
from raycells.sim.hll import hll_merge, hll_registers

__all__ = [
    "bloom_build",
    "bloom_prune",
    "bloom_or_merge",
    "hll_build",
    "cms_build",
    "cms_estimate",
    "CMS_D",
    "CMS_W",
]


def bloom_or_merge(*bitmaps: np.ndarray) -> np.ndarray:
    """Associative OR-merge of bool bitmaps (retry-safe, order-free)."""
    out = np.zeros(BLOOM_M, dtype=bool)
    for bm in bitmaps:
        out |= bm
    return out


def _or_packed_blocks(*tabs: pa.Table) -> np.ndarray:
    """Worker-side union of per-batch packed bitmaps → one bool bitmap.
    Runs as a Ray task so partial bitmaps never land on the driver."""
    from raycells.engine.shuffle import block_tables

    out = np.zeros(BLOOM_M, dtype=bool)
    for t in block_tables(tabs, "bitmap"):
        for blob in t["bitmap"]:
            out |= np.unpackbits(
                np.frombuffer(blob.as_py(), np.uint8)
            ).astype(bool)
    return out


def _int64_keys(col: pa.ChunkedArray) -> np.ndarray:
    return pc.cast(col, pa.int64()).to_numpy(zero_copy_only=False)


def bloom_build(ds, col: str, pred=None):
    """Build a Bloom bitmap over ``ds[col]`` (int64-castable keys) and
    return the merged bitmap's ObjectRef — the broadcast handle for
    :func:`bloom_prune`. ``pred(batch) -> bool ndarray`` optionally
    restricts the build rows. The exchange moves blocks × 8 KB packed
    partials; the OR-union runs as one Ray task (never on the driver)."""
    import ray

    def bloom_part(b: pa.Table) -> pa.Table:
        keys = _int64_keys(b[col])
        if pred is not None:
            keys = keys[pred(b)]
        return pa.table(
            {"bitmap": pa.array([np.packbits(partial_bloom(keys)).tobytes()],
                                pa.large_binary())}
        )

    refs = collect_refs(ds.map_batches(bloom_part, batch_format="pyarrow"))
    return ray.remote(num_cpus=1)(_or_packed_blocks).remote(*refs)


class _BloomPrune:
    """Broadcast-task stage: keep bloom-positive rows of ``col``.
    Module-level so broadcast_task's (class, ref, args) memo key
    includes ``col`` — a closure-captured col would collide across
    prunes sharing one bitmap."""

    def __init__(self, r, col: str):
        import ray

        self.bitmap = ray.get(r)
        self.col = col

    def __call__(self, b: pa.Table) -> pa.Table:
        keep = bloom_probe(self.bitmap, _int64_keys(b[self.col]))
        return b.filter(pa.array(keep))


def bloom_prune(ds, bitmap_ref, col: str):
    """Stream ``ds`` through a bloom-membership prefilter on ``col``:
    keeps bloom-POSITIVE rows only (supersets the exact match set).
    The bitmap is read zero-copy from plasma once per worker."""
    from raycells.engine.stages import broadcast_task

    return ds.map_batches(
        broadcast_task(_BloomPrune, bitmap_ref, col), batch_format="pyarrow"
    )


CMS_D = 4  # sketch rows (independent hash functions)
CMS_W = 1024  # buckets per row
# row r mixes the key with r·φ64 before the murmur finalizer — row 0 is
# the plain finalizer, rows differ by an odd-constant XOR (SQL mirror:
# xor + the shared mk1..mk5 chain)
CMS_ROW_SALTS = np.array(
    [0x0, 0x9E3779B97F4A7C15, 0x3C6EF372FE94F82A, 0xDAA66D2C7DDF743F],
    dtype=np.uint64,
)


def _cms_buckets(fps: np.ndarray, w: int) -> np.ndarray:
    """(N,) uint64 key fingerprints → (D, N) int64 bucket indexes:
    bucket_r(k) = murmur64(k XOR salt_r) mod w. Pure integer — the
    oracle reproduces every index bit-for-bit."""
    from raycells.sim.hll import _hash64

    out = np.empty((CMS_D, fps.size), dtype=np.int64)
    for r in range(CMS_D):
        h = _hash64((fps ^ CMS_ROW_SALTS[r]).view(np.int64))
        out[r] = (h % np.uint64(w)).astype(np.int64)
    return out


def _sum_cms_blocks(w, *tabs: pa.Table) -> np.ndarray:
    """Worker-side SUM of per-batch (D·w) int64 counter blobs → one
    (D, w) matrix. Counter addition is the CMS merge (associative,
    retry-safe only because Ray Data never double-counts a block)."""
    from raycells.engine.shuffle import block_tables

    out = np.zeros(CMS_D * w, dtype=np.int64)
    for t in block_tables(tabs, "counters"):
        for blob in t["counters"]:
            out += np.frombuffer(blob.as_py(), np.int64)
    return out.reshape(CMS_D, w)


def cms_build(ds, fp_fn, w: int = CMS_W):
    """Count-min sketch over a Dataset: ``fp_fn(batch) -> (N,) uint64``
    key fingerprints (one per counted occurrence). Per batch the stage
    folds occurrences into ONE (D·w) int64 counter blob (32 KB at the
    default width — the exchange moves blocks × one blob, never a
    token), and one Ray task sums the partials worker-side. Returns the
    merged matrix's ObjectRef — the broadcast handle for
    :func:`cms_estimate`.

    The sketch never under-counts (est ≥ true count, no deletions);
    collisions only inflate. At 100 TB this replaces the exact
    heavy-hitter aggregation's all-to-all with a constant-size merge."""
    import ray

    def part(b: pa.Table) -> pa.Table:
        fps = fp_fn(b)
        m = np.zeros((CMS_D, w), dtype=np.int64)
        if fps.size:
            uniq, counts = np.unique(fps, return_counts=True)
            bks = _cms_buckets(uniq, w)
            for r in range(CMS_D):
                np.add.at(m[r], bks[r], counts)
        return pa.table(
            {"counters": pa.array([m.tobytes()], pa.large_binary())}
        )

    refs = collect_refs(ds.map_batches(part, batch_format="pyarrow"))
    return ray.remote(num_cpus=1)(_sum_cms_blocks).remote(w, *refs)


def cms_estimate(cms: np.ndarray, fps: np.ndarray) -> np.ndarray:
    """Point-query the sketch: est(k) = min over rows of the k-bucket
    counters (the count-min estimator). Width inferred from the matrix."""
    bks = _cms_buckets(np.asarray(fps, dtype=np.uint64), cms.shape[1])
    ests = np.stack([cms[r, bks[r]] for r in range(CMS_D)])
    return ests.min(axis=0)


def hll_build(ds, col: str, p: int = 12) -> np.ndarray:
    """Merged HLL registers over ``ds[col]``: per-batch register
    partials, elementwise-max fold over the O(blocks) partial rows."""
    def part(b: pa.Table) -> pa.Table:
        regs = hll_registers(b[col].to_numpy(zero_copy_only=False), p)
        return pa.table({"regs": pa.array([regs.tobytes()], pa.large_binary())})

    parts = ds.map_batches(part, batch_format="pyarrow").to_pandas()
    merged = np.zeros(1 << p, dtype=np.uint8)
    for blob in parts["regs"]:
        merged = hll_merge(merged, np.frombuffer(blob, np.uint8))
    return merged

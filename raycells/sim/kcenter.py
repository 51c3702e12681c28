"""Greedy k-center (farthest-point) diversity selection over an
embedding column — the coreset-sampling operator of a training-data
curation pipeline (pick k maximally-spread exemplars; the classic
2-approximation of Gonzalez 1985).

Distributed shape: the embedding blocks are quantized ONCE into plasma
(`_prep`), and each of the k rounds runs one small task per block that
updates that block's min-distance-to-chosen-set array IN PLACE in the
object store (`num_returns=2`: the O(rows) state ref stays worker-side,
only the O(1) partial — best distance, id, and the 64-int candidate row
— ever reaches the driver). The driver folds #blocks partials per round
with the deterministic (max d2, min id) rule. Total driver traffic is
O(k × blocks), independent of corpus size; no per-row data is ever
collected.

Exactness: components are quantized with the shared floor(x·2^20 + 0.5)
recipe (text/dedup.quantize_embeddings), so every squared distance is
an exact int64 both here and in the DuckDB oracle (pipelines/oracles.
_kcenter_diversity_sql) — bit-identical argmax chains, no float
summation anywhere.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from raycells.engine.shuffle import collect_refs
from raycells.text.dedup import quantize_embeddings

# a losing fold key: any real block beats it (d2 ≥ 0, real ids < 2^62)
_SENTINEL = (-1, 1 << 62, None)


def _block_best(ids: np.ndarray, nm: np.ndarray, Q: np.ndarray):
    """Deterministic per-block winner: max nm, ties to the min id."""
    if len(ids) == 0:
        return _SENTINEL
    m = nm.max()
    at = nm == m
    j = ids[at].min()
    row = Q[at & (ids == j)][0]
    return int(m), int(j), row


def kcenter_select(
    ds,
    k: int = 8,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    return_vectors: bool = False,
):
    """Run greedy k-center over a Dataset of (id, embedding-list) rows.

    Returns a ``pa.Table`` of (rank, vec_id, d2): rank 0 is the seed
    (the max-norm point — d2 is its squared norm, ties to min id);
    rank r > 0 is the point farthest from the first r centers, with d2
    its exact squared distance to that chosen set at selection time.
    With ``return_vectors`` also returns the (k, dim) QUANTIZED center
    matrix (row r = center of rank r) — the broadcastable state an
    assignment pass needs, collected center-by-center as each is chosen
    (never a scan of the corpus).

    Saturated-selection corner (fewer distinct vectors than k): once
    every point is distance 0 from the chosen set the (max d2, min id)
    rule keeps picking the GLOBAL min id — a repeated center row with
    d2 = 0, identical to the oracle's unrolled chain (test-pinned).
    """
    import ray

    @ray.remote
    def _prep(tab: pa.Table):
        # empty blocks pass through upstream stages with whatever schema
        # the producer had (the block_tables lesson) — guard on rows AND
        # column presence before touching columns
        if tab.num_rows == 0 or id_col not in tab.column_names:
            return np.empty(0, np.int64), np.empty((0, 1), np.int64)
        ids = tab[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        q = quantize_embeddings(np.asarray(tab[emb_col].to_pylist(), np.float64))
        return ids, q

    @ray.remote
    def _seed(prep):
        ids, q = prep
        if len(ids) == 0:
            return _SENTINEL
        n2 = np.einsum("ij,ij->i", q, q)
        return _block_best(ids, n2, q)

    @ray.remote(num_returns=2)
    def _step(prep, mind, center):
        ids, q = prep
        if len(ids) == 0:
            return mind, _SENTINEL
        diff = q - center[None, :]
        d2 = np.einsum("ij,ij->i", diff, diff)
        nm = d2 if mind is None else np.minimum(mind, d2)
        return nm, _block_best(ids, nm, q)

    def fold(parts):
        return max(parts, key=lambda t: (t[0], -t[1]))

    preps = [_prep.remote(t) for t in collect_refs(ds)]
    m, j, center = fold(ray.get([_seed.remote(p) for p in preps]))
    if center is None:  # empty input
        empty = pa.table(
            {
                "rank": pa.array([], pa.int64()),
                "vec_id": pa.array([], pa.int64()),
                "d2": pa.array([], pa.int64()),
            }
        )
        return (empty, np.empty((0, 1), np.int64)) if return_vectors else empty
    out = [(0, j, m)]
    centers = [center]
    minds = [None] * len(preps)
    for rank in range(1, k):
        pairs = [_step.remote(p, s, center) for p, s in zip(preps, minds)]
        minds = [a for a, _ in pairs]
        m, j, center = fold(ray.get([b for _, b in pairs]))
        out.append((rank, j, m))
        centers.append(center)
    table = pa.table(
        {
            "rank": pa.array([r for r, _, _ in out], pa.int64()),
            "vec_id": pa.array([v for _, v, _ in out], pa.int64()),
            "d2": pa.array([d for _, _, d in out], pa.int64()),
        }
    )
    if return_vectors:
        return table, np.stack(centers)
    return table

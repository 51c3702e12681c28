"""Approximate-nearest-neighbor search over an embedding column.

Baseline: **brute-force cosine top-k** — the query matrix is broadcast
ONCE (``ray.put`` on the driver, fetched per actor in ``__init__``), each
``map_batches`` call does one numpy matmul of the batch's (B, d) block
against the (d, Q) query matrix and emits only its per-batch top-k
candidates (k·Q rows, not B·Q), so the final merge is tiny however large
the dataset is. Scale path: **sign-LSH partitioning** (`lsh_topk`) routes
both vectors and queries to hyperplane-sign buckets first, turning the
scan into per-bucket brute force with multiprobe for recall.

Similarities are computed in float64 and rounded to 6 decimals before
ranking, with vec_id as the tie-break — this makes the ordering stable
across summation orders, so a DuckDB ``list_cosine_similarity`` oracle
ranks identically (`__ray_entry__.oracle_sql`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pyarrow as pa

from raycells.engine.shuffle import collect_refs

__all__ = ["BruteForceTopK", "topk_cosine", "lsh_topk"]

ROUND_SCALE = 1e6  # 6 decimals, applied as floor(x*1e6 + 0.5)/1e6


def _round6(x: np.ndarray) -> np.ndarray:
    """Half-up rounding to 6 decimals via the CLAUDE.md cross-engine
    recipe floor(x·1e6 + 0.5)/1e6 — the DuckDB oracle evaluates the
    identical IEEE expression tree (FLOOR(sim * 1000000 + 0.5) /
    1000000), so both engines agree even at exact .5 boundaries where
    np.round (half-to-even) and DuckDB ROUND (half-away) diverge."""
    return np.floor(x * ROUND_SCALE + 0.5) / ROUND_SCALE


def _unit(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1)
    n[n == 0] = 1.0
    return m / n[:, None]


class BruteForceTopK:
    """Actor-pool stage: per-batch cosine top-k against broadcast queries.

    ``queries_ref`` is a ``ray.put`` handle to a dict with keys
    ``query_id`` (Q,) and ``matrix`` (Q, d) — one object-store read per
    actor, never per batch."""

    def __init__(self, queries_ref, k: int, col: str, id_col: str):
        import ray

        q = ray.get(queries_ref) if not isinstance(queries_ref, dict) else queries_ref
        self.qid = np.asarray(q["query_id"])
        self.qt = _unit(np.asarray(q["matrix"], dtype=np.float64)).T  # (d, Q)
        self.k = k
        self.col = col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        emb = np.asarray(batch[self.col].to_pylist(), dtype=np.float64)
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        sims = _round6(_unit(emb) @ self.qt)  # (B, Q)
        k = min(self.k, sims.shape[0])
        # per-query local top-k: order by (-sim, vec_id)
        out_q, out_id, out_s = [], [], []
        for qi in range(sims.shape[1]):
            order = np.lexsort((ids, -sims[:, qi]))[:k]
            out_q.append(np.full(k, self.qid[qi]))
            out_id.append(ids[order])
            out_s.append(sims[order, qi])
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q)),
                self.id_col: pa.array(np.concatenate(out_id)),
                "sim": pa.array(np.concatenate(out_s)),
            }
        )


def topk_cosine(
    ds,
    query_matrix: np.ndarray,
    query_ids: np.ndarray,
    k: int = 10,
    col: str = "embedding",
    id_col: str = "vec_id",
    concurrency: Optional[int] = None,
) -> pa.Table:
    """Global cosine top-k per query: broadcast queries → per-batch local
    top-k (actor pool) → small driver-side final merge. Returns a pyarrow
    Table (query_id, vec_id, sim, rank) — k·Q rows."""
    import ray

    ref = ray.put({"query_id": np.asarray(query_ids), "matrix": np.asarray(query_matrix)})
    from raycells.engine.stages import broadcast_task

    # no explicit batch_size: this cheap broadcast stage sits downstream
    # of a pinned-block read, and per-block batches keep the task count
    # pinned to the read (CLAUDE.md fusion rule — an explicit 4096 here
    # coalesced the pinned blocks into fewer serial fused tasks)
    cand = ds.map_batches(
        broadcast_task(BruteForceTopK, ref, k, col, id_col),
        batch_format="pyarrow",
    )
    return _merge_topk(_gather(cand), np.asarray(query_ids), id_col, k)


def _gather(ds):
    """Candidate set is ≤ k·Q rows per block — safe to collect."""
    import ray

    return ray.get(collect_refs(ds))


def _merge_topk(tabs, query_ids, id_col: str, k: int) -> pa.Table:
    """Driver-side final merge of per-block top-k partials: global
    top-k per query by (sim DESC, id ASC), ranks 1..k."""
    tabs = [t for t in tabs if t.num_rows > 0]
    if not tabs:
        return pa.table(
            {
                "query_id": pa.array([], pa.int64()),
                id_col: pa.array([], pa.int64()),
                "sim": pa.array([], pa.float64()),
                "rank": pa.array([], pa.int64()),
            }
        )
    t = pa.concat_tables(tabs)
    qid = t["query_id"].to_numpy(zero_copy_only=False)
    vid = t[id_col].to_numpy(zero_copy_only=False)
    sim = t["sim"].to_numpy(zero_copy_only=False)
    out_q, out_id, out_s, out_r = [], [], [], []
    for q in query_ids:
        sel = qid == q
        if not sel.any():
            continue
        order = np.lexsort((vid[sel], -sim[sel]))[:k]
        out_q.append(np.full(len(order), q))
        out_id.append(vid[sel][order])
        out_s.append(sim[sel][order])
        out_r.append(np.arange(1, len(order) + 1, dtype=np.int64))
    return pa.table(
        {
            "query_id": pa.array(np.concatenate(out_q).astype(np.int64)),
            id_col: pa.array(np.concatenate(out_id)),
            "sim": pa.array(np.concatenate(out_s)),
            "rank": pa.array(np.concatenate(out_r)),
        }
    )


def _hamming_flips(n_planes: int, multiprobe: int) -> list:
    """XOR masks for every bucket within Hamming distance <= multiprobe
    of a query bucket (multiprobe=1 → single-bit flips; 2 adds two-bit
    flips, ...) — probe count grows as sum_{d<=m} C(n_planes, d). A
    previous cap of ``min(multiprobe * n_planes, n_planes)`` made every
    multiprobe >= 2 silently identical to 1."""
    from itertools import combinations

    depth = min(max(int(multiprobe), 0), n_planes)
    flips = [0]
    for d in range(1, depth + 1):
        for bits in combinations(range(n_planes), d):
            m = 0
            for b in bits:
                m |= 1 << b
            flips.append(m)
    return flips


def lsh_topk(
    ds,
    query_matrix: np.ndarray,
    query_ids: np.ndarray,
    k: int = 10,
    col: str = "embedding",
    id_col: str = "vec_id",
    n_planes: int = 8,
    multiprobe: int = 1,
    dim: int = 64,
) -> pa.Table:
    """Scale-path ANN: sign-LSH bucket both sides, brute-force within the
    query's bucket ± ``multiprobe`` flipped-bit probes.

    Buckets come from deterministic integer LCG planes over the
    2^-20-quantized vectors and ranking uses the integer cosine
    (text/dedup.quantize_embeddings / lsh_planes_int / int_cosine): every
    bit and every similarity is an exact int64-derived value, so the
    whole ANN query is reproducible by the DuckDB oracle and under Ray
    retries. The vector side gets a bucket column inside ``map_batches``;
    the filter to probed buckets prunes the scan BEFORE the dot products,
    so at scale only ~(probes / 2^n_planes) of the data is touched per
    query. Recall < 1 by construction (approximate); tested ≥ 0.9@k=10."""
    from raycells.text.dedup import int_cosine, lsh_planes_int, quantize_embeddings

    planes = lsh_planes_int(dim, n_planes)
    qm = np.asarray(query_matrix, dtype=np.float64)
    qq = quantize_embeddings(qm)
    qsig = (qq @ planes > 0).astype(np.int64)
    qbuckets = np.zeros(len(qm), dtype=np.int64)
    for p in range(n_planes):
        qbuckets = (qbuckets << 1) | qsig[:, p]
    flips = _hamming_flips(n_planes, multiprobe)
    probe_sets = [{int(qb) ^ m for m in flips} for qb in qbuckets]
    wanted = sorted(set().union(*probe_sets))

    def bucketize(batch: pa.Table) -> pa.Table:
        eq = quantize_embeddings(np.asarray(batch[col].to_pylist(), dtype=np.float64))
        sig = (eq @ planes > 0).astype(np.int64)
        bucket = np.zeros(len(eq), dtype=np.int64)
        for p in range(n_planes):
            bucket = (bucket << 1) | sig[:, p]
        keep = np.isin(bucket, wanted)
        t = pa.table(
            {
                id_col: batch[id_col],
                col: batch[col],
                "bucket": pa.array(bucket),
            }
        )
        return t.filter(pa.array(keep))

    def local_topk(batch: pa.Table) -> pa.Table:
        # per-batch per-query top-k over the batch's probed candidates:
        # the exchange back to the driver carries ≤ k·Q rows per block
        # (top-k of the union == top-k of the per-block top-k's), never
        # the pruned candidate set itself
        eq_b = quantize_embeddings(
            np.asarray(batch[col].to_pylist(), dtype=np.float64)
        )
        ids_b = batch[id_col].to_numpy(zero_copy_only=False)
        buckets_b = batch["bucket"].to_numpy(zero_copy_only=False)
        out_q, out_id, out_s = [], [], []
        for qi, probes in enumerate(probe_sets):
            sel = np.isin(buckets_b, list(probes))
            if not sel.any():
                continue
            n_sel = int(sel.sum())
            sims = int_cosine(eq_b[sel], np.broadcast_to(qq[qi], (n_sel, qq.shape[1])))
            order = np.lexsort((ids_b[sel], -sims))[: min(k, sims.size)]
            out_q.append(np.full(len(order), query_ids[qi]))
            out_id.append(ids_b[sel][order])
            out_s.append(sims[order])
        if not out_q:
            return pa.table(
                {
                    "query_id": pa.array([], pa.int64()),
                    id_col: pa.array([], batch.schema.field(id_col).type),
                    "sim": pa.array([], pa.float64()),
                }
            )
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q).astype(np.int64)),
                id_col: pa.array(np.concatenate(out_id)),
                "sim": pa.array(np.concatenate(out_s)),
            }
        )

    partial = ds.map_batches(bucketize, batch_format="pyarrow").map_batches(
        local_topk, batch_format="pyarrow"
    )
    return _merge_topk(_gather(partial), query_ids, id_col, k)

"""kNN tile lookup over the hierarchical cell index.

``KnnIndex`` holds per-cell tile lists (cell id at a fixed level →
contiguous slices of sorted arrays) built ONCE, then answers queries by
ring expansion: probe the query's cell, then rings k=1, 2, ... until the
k-th best distance is closed out by the ring's lower bound. This is the
state a ``map_batches`` actor pool holds (SURVEY.md §2.9): build in
``__init__``, query per batch.

Scale path: the index here stores only (lon, lat, key) per tile — ~24
bytes/tile. ``sharded_knn`` never gathers the points: each block answers
the queries routed to its points' coarse parent cells with a local
top-k, and the driver merges those (a top-k per block is exact, so no
point moves). The ring logic is the same as ``KnnIndex.query_one``.

Distances are great-circle-approximate equirectangular (good enough for
ranking at tile scale and matched exactly by the DuckDB oracle's formula).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from raycells.geo import cellid

__all__ = ["KnnIndex", "brute_force_knn", "euclid_deg", "sharded_knn"]


def euclid_deg(qlon, qlat, lon, lat) -> np.ndarray:
    """Plain euclidean distance in degrees (the oracle-matched metric)."""
    dx = np.asarray(lon) - np.asarray(qlon)
    dy = np.asarray(lat) - np.asarray(qlat)
    return np.sqrt(dx * dx + dy * dy)


def brute_force_knn(
    qlon: np.ndarray, qlat: np.ndarray, lon: np.ndarray, lat: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """All-pairs exact kNN (the small-scale oracle): returns (indices,
    distances), each (n_queries, k), ties broken by index order."""
    d = euclid_deg(
        np.asarray(qlon)[:, None], np.asarray(qlat)[:, None], lon[None, :], lat[None, :]
    )
    k = min(k, d.shape[1])
    idx = np.argsort(d, axis=1, kind="stable")[:, :k]
    return idx, np.take_along_axis(d, idx, axis=1)


class KnnIndex:
    """Cell-bucketed kNN index over tile centroids.

    Build once (actor ``__init__``), query per batch. ``level`` trades
    bucket size vs ring count; level 7 (≈1.4°cells) suits the sandbox
    densities.
    """

    def __init__(self, lon: np.ndarray, lat: np.ndarray, keys: np.ndarray, level: int = 7):
        self.level = level
        self.lon = np.asarray(lon, dtype=np.float64)
        self.lat = np.asarray(lat, dtype=np.float64)
        self.keys = np.asarray(keys)
        cells = cellid.encode(self.lon, self.lat, level)
        order = np.argsort(cells, kind="stable")
        self.order = order
        self.sorted_cells = cells[order]
        # unique cells + slice starts for O(log n) bucket lookup
        self.uniq, self.starts = np.unique(self.sorted_cells, return_index=True)
        self.ends = np.append(self.starts[1:], len(self.sorted_cells))
        # cell edge in degrees (lat direction) for ring lower bounds
        self.cell_deg = 180.0 / (1 << level)

    def _bucket(self, cell: np.uint64) -> np.ndarray:
        j = np.searchsorted(self.uniq, cell)
        if j < len(self.uniq) and self.uniq[j] == cell:
            return self.order[self.starts[j]: self.ends[j]]
        return np.empty(0, dtype=np.int64)

    def query_one(self, qlon: float, qlat: float, k: int):
        home = cellid.encode(np.array([qlon]), np.array([qlat]), self.level)[0]
        cand = []
        r = 0
        max_r = (1 << self.level)  # full sweep worst case
        best_kth = np.inf
        seen_cells = set()  # longitude wrap can revisit cells at small levels
        while r <= max_r:
            ring_cells = cellid.ring(int(home), r, self.level)
            for c in ring_cells:
                ci = int(c)
                if ci in seen_cells:
                    continue
                seen_cells.add(ci)
                b = self._bucket(np.uint64(c))
                if b.size:
                    cand.append(b)
            n_cand = sum(len(c) for c in cand)
            if n_cand >= k:
                idx = np.concatenate(cand)
                d = euclid_deg(qlon, qlat, self.lon[idx], self.lat[idx])
                # ties → lowest KEY, not candidate position: the oracle
                # convention is ORDER BY dist, seed, and sharded_knn
                # emits keys — position order only matches
                # when keys happen to be arange
                top = np.lexsort((self.keys[idx], d))[:k]
                best_kth = d[top[-1]] if len(top) == k else np.inf
                # points in ring r+1 are ≥ r * cell_deg away from the
                # query. STRICT <: an unprobed point at distance exactly
                # best_kth could outrank the kth candidate on the seed
                # tiebreak (oracle: ORDER BY dist, seed), so a boundary
                # tie must probe one more ring
                if best_kth < r * self.cell_deg:
                    return idx[top], d[top]
            r += 1
        if not cand:
            return np.empty(0, dtype=np.int64), np.empty(0)
        idx = np.concatenate(cand)
        d = euclid_deg(qlon, qlat, self.lon[idx], self.lat[idx])
        top = np.lexsort((self.keys[idx], d))[:k]  # ties → lowest key
        return idx[top], d[top]

    def query(self, qlon: np.ndarray, qlat: np.ndarray, k: int):
        """Batch query → (keys (nq, k) object array-safe, distances)."""
        out_idx, out_d = [], []
        for ql, qa in zip(np.asarray(qlon, dtype=float), np.asarray(qlat, dtype=float)):
            idx, d = self.query_one(ql, qa, k)
            out_idx.append(idx)
            out_d.append(d)
        return out_idx, out_d


def sharded_knn(points_ds, queries, k: int, parent_level: int = 3):
    """Distributed kNN with NO driver-side point materialization and no
    exchange — the scale path the module docstring promises (SURVEY.md
    §2.9). The narrow ``(seed, lon, lat, _parent)`` projection (parent
    cell at ``parent_level``) is materialized once. Each probe round is
    one ``map_batches`` over those blocks: a batch sorts its points by
    parent cell, slices each probed cell out with ``searchsorted`` and
    keeps each routed query's top-k over its slices by ``(dist, seed)``,
    so only ≤ queries × k rows per block reach the driver for the
    global merge. A top-k per block is exact: the
    global top-k is a subset of the union of the blocks' top-k. Probe
    rings expand until the kth-best distance is closed out by the ring
    lower bound — the same termination rule as ``KnnIndex.query_one``,
    so results are exact.

    ``points_ds``: Dataset with (seed int64, lon f64, lat f64) columns.
    ``queries``: sequence of (query_id, qlon, qlat).
    Returns a pa.Table (query_id, rank, seed), rank 1..k, ties → lowest
    seed (DuckDB-oracle parity: ORDER BY dist, seed).
    """
    import pyarrow as pa
    import ray

    from raycells.engine.shuffle import block_tables, collect_refs

    parent_deg = 180.0 / (1 << parent_level)
    qids = [int(q[0]) for q in queries]
    qlon = {int(q[0]): float(q[1]) for q in queries}
    qlat = {int(q[0]): float(q[2]) for q in queries}
    home = {
        qid: int(
            cellid.encode(
                np.array([qlon[qid]]), np.array([qlat[qid]]), parent_level
            )[0]
        )
        for qid in qids
    }

    cand_s = {qid: np.empty(0, dtype=np.int64) for qid in qids}
    cand_d = {qid: np.empty(0, dtype=np.float64) for qid in qids}
    probed: dict = {qid: set() for qid in qids}
    active = set(qids)
    R = 1
    max_r = 1 << parent_level

    def tag_parent(b: pa.Table) -> pa.Table:
        lon = b["lon"].to_numpy(zero_copy_only=False)
        lat = b["lat"].to_numpy(zero_copy_only=False)
        p = cellid.encode(lon, lat, parent_level)
        return pa.table(
            {
                "seed": b["seed"],
                "lon": b["lon"],
                "lat": b["lat"],
                "_parent": pa.array(p.view(np.int64), pa.int64()),
            }
        )

    # once, before round 1: later rounds never re-run the upstream
    tagged = points_ds.map_batches(tag_parent, batch_format="pyarrow").materialize()

    while active:
        # parent cells to probe this round (rings 0..R minus already-probed)
        probe: dict = {}
        for qid in active:
            cells = set()
            for r in range(0, R + 1):
                cells.update(int(c) for c in cellid.ring(home[qid], r, parent_level))
            new = cells - probed[qid]
            probed[qid].update(new)
            probe[qid] = new
        qs_by_cell: dict = {}
        for qid in active:
            for c in probe[qid]:
                qs_by_cell.setdefault(c, []).append(qid)
        if qs_by_cell:
            cells = np.array(list(qs_by_cell), np.uint64).view(np.int64)
            routed = list(qs_by_cell.values())

            def block_topk(b: pa.Table) -> pa.Table:
                parent = b["_parent"].to_numpy(zero_copy_only=False)
                by_parent = np.argsort(parent, kind="stable")
                parent = parent[by_parent]
                lo = np.searchsorted(parent, cells, "left")
                hi = np.searchsorted(parent, cells, "right")
                rows: dict = {}  # query → the block rows of its probed cells
                for i in np.flatnonzero(hi > lo):
                    for qid in routed[i]:
                        rows.setdefault(qid, []).append(by_parent[lo[i]:hi[i]])
                lon = b["lon"].to_numpy(zero_copy_only=False)
                lat = b["lat"].to_numpy(zero_copy_only=False)
                seeds = b["seed"].to_numpy(zero_copy_only=False)
                out_q, out_s = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
                out_d = [np.empty(0)]
                for qid, idx in rows.items():
                    idx = np.concatenate(idx)
                    d = euclid_deg(qlon[qid], qlat[qid], lon[idx], lat[idx])
                    top = np.lexsort((seeds[idx], d))[:k]
                    out_q.append(np.full(top.size, qid, np.int64))
                    out_s.append(seeds[idx[top]].astype(np.int64))
                    out_d.append(d[top])
                return pa.table(
                    {
                        "query_id": pa.array(np.concatenate(out_q)),
                        "seed": pa.array(np.concatenate(out_s)),
                        "dist": pa.array(np.concatenate(out_d)),
                    }
                )

            tabs = block_tables(
                ray.get(collect_refs(tagged.map_batches(block_topk, batch_format="pyarrow"))),
                "query_id",
            )
            if tabs:  # ≤ blocks × queries × k rows
                part = pa.concat_tables(tabs).to_pandas()
                for qid, sub in part.groupby("query_id", sort=False):
                    cand_s[qid] = np.concatenate(
                        [cand_s[qid], sub["seed"].to_numpy().astype(np.int64)]
                    )
                    cand_d[qid] = np.concatenate([cand_d[qid], sub["dist"].to_numpy()])
        # termination: kth best closed out by the unprobed-ring lower bound
        done = set()
        for qid in active:
            if len(cand_d[qid]) >= k:
                order = np.lexsort((cand_s[qid], cand_d[qid]))[:k]
                # strict <: a boundary-tied point in the next ring could
                # win the seed tiebreak (see IndexShard.query_one)
                if cand_d[qid][order[-1]] < R * parent_deg or R >= max_r:
                    done.add(qid)
            elif R >= max_r:
                done.add(qid)
        active -= done
        R += 1

    out_q, out_r, out_s = [], [], []
    for qid in qids:
        order = np.lexsort((cand_s[qid], cand_d[qid]))[:k]
        out_q.extend([qid] * len(order))
        out_r.extend(range(1, len(order) + 1))
        out_s.extend(cand_s[qid][order])
    return pa.table(
        {
            "query_id": pa.array(np.asarray(out_q, np.int64)),
            "rank": pa.array(np.asarray(out_r, np.int64)),
            "seed": pa.array(np.asarray(out_s, np.int64)),
        }
    )

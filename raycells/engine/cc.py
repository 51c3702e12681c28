"""Distributed connected components over an edge table/Dataset.

Two-level min-label contraction (the distributed form of the union-find
the dedup_clusters oracle expresses as a recursive min-label CTE,
oracles.py ``dedup_clusters``):

1. **Bucketed contraction (distributed).** Edges are hash-bucketed on
   one endpoint and each bucket's edge subset is contracted by a
   VECTORIZED hash-to-min label propagation (``shuffle.bucket_reduce``,
   one numpy kernel per bucket — no Python per-row work). Each bucket
   emits its spanning forest ``node → bucket-local min label``: at most
   ``distinct nodes in bucket`` rows, so the union over buckets is
   bounded by ``buckets × distinct_nodes`` — NODE-sized (i.e.
   output-sized for dedup clustering), never PAIR-sized. Within a dense
   near-dup clique of m docs the pair list is O(m²) but the forest is
   O(m).
2. **Driver fold.** The contracted forests (same connectivity as the
   full edge set — each bucket forest preserves its subset's
   connectivity, and connectivity is closed under union) are folded
   with the same vectorized kernel. The driver never materializes the
   pair list, only the O(distinct nodes) forest — the same order as the
   clustering output itself.

Labels are the LEXICOGRAPHIC-MIN member id (``np.unique`` on the string
ids sorts lexicographically, so min integer rank == min string),
matching SQL ``MIN(VARCHAR)`` semantics.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from raycells.engine.shuffle import bucket_reduce, from_pandas_clean

__all__ = ["min_label_components", "cc_edges_local", "connected_components"]


def min_label_components(a_idx: np.ndarray, b_idx: np.ndarray, n: int) -> np.ndarray:
    """Vectorized hash-to-min connected components over integer edges
    ``(a_idx[i], b_idx[i])`` on nodes ``0..n-1``. Returns the label array
    (component min) — all numpy (``np.minimum.at`` edge relaxation +
    pointer jumping to fixpoint), no Python per-edge loop."""
    labels = np.arange(n, dtype=np.int64)
    if n == 0 or a_idx.size == 0:
        return labels
    while True:
        # relax across edges in both directions
        np.minimum.at(labels, a_idx, labels[b_idx])
        np.minimum.at(labels, b_idx, labels[a_idx])
        # pointer jumping: label ← label-of-label until stable
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped
        if np.array_equal(labels[a_idx], labels[b_idx]):
            return labels


def cc_edges_local(tbl: pa.Table, a: str = "id_a", b: str = "id_b") -> pd.DataFrame:
    """Contract ONE edge table to its spanning forest: a ``(node, root)``
    DataFrame with one row per distinct node and ``root`` = min member
    of the node's component *within this edge subset* (lexicographic
    for string endpoints, numeric for integer ids — whatever the
    column's natural order is)."""
    av = tbl[a].to_numpy(zero_copy_only=False)
    bv = tbl[b].to_numpy(zero_copy_only=False)
    nodes, inv = np.unique(np.concatenate([av, bv]), return_inverse=True)
    labels = min_label_components(inv[: av.size], inv[av.size :], nodes.size)
    return pd.DataFrame({"node": nodes, "root": nodes[labels]})


def connected_components(
    pairs,
    a: str = "id_a",
    b: str = "id_b",
) -> pd.DataFrame:
    """Connected components over an edge list (Ray Dataset or pyarrow
    Table of endpoint columns ``a``/``b`` — string or integer ids).
    Returns a pandas DataFrame ``(node, root)`` — root = min component
    member in the id type's natural order (lexicographic for strings,
    numeric for ints) — via the two-level contraction described in the module
    docstring. The distributed stage always runs (one
    ``bucket_reduce`` exchange); the driver folds only the node-sized
    contracted forest."""
    import ray.data
    from ray.data import Dataset

    if isinstance(pairs, pa.Table):
        if pairs.num_rows == 0:
            return pd.DataFrame({"node": pd.Series([], dtype=object),
                                 "root": pd.Series([], dtype=object)})
        ds = ray.data.from_arrow(pairs.select([a, b]))
    elif isinstance(pairs, Dataset):
        ds = pairs.select_columns([a, b])
    else:
        raise TypeError(f"pairs must be a Ray Dataset or pyarrow Table, got {type(pairs)}")

    def contract(g: pa.Table) -> pa.Table:
        return from_pandas_clean(cc_edges_local(g, a, b))

    # node-sized: ≤ buckets × distinct nodes rows
    forest = bucket_reduce(ds, a, contract).to_pandas()
    folded = cc_edges_local(
        pa.table(
            {
                # inferred types: string ids stay string, int ids stay int
                a: pa.array(forest["node"].to_numpy()),
                b: pa.array(forest["root"].to_numpy()),
            }
        ),
        a,
        b,
    )
    return folded

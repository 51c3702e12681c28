"""Co-partitioned join/window operators Ray Data lacks natively.

Each join cuts its two sides to the key and the columns it carries and
hands them to ``shuffle.bucket_reduce`` as two inputs (SURVEY.md §2.9
pattern (a)): one exchange hashes both on the key, and one vectorized
pandas kernel per bucket joins the bucket's left table with its right
table. Each side executes once, and its Arrow types come from its own
blocks. The reference implementation has no joins at all (confirmed
absences, SURVEY.md §2.8); these are graft operators designed
Ray-Data-first.

Partitioning assumption (documented per SURVEY.md §2.9): rows with the
same join key land in the same bucket — guaranteed by hashing only the
key (``shuffle.bucket_reduce``). Bucket count is O(cluster size),
independent of key cardinality, so the exchange stays balanced at 100 TB
as long as no single key exceeds a worker's heap — a single hot KEY in
an as-of join cannot be salted without replicating the right side, which
is the standard trade-off.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pandas as pd
import pyarrow as pa

from raycells.engine.shuffle import aggregate, bucket_reduce, from_pandas_clean, materialized

__all__ = [
    "asof_join",
    "hash_join",
    "band_join_count",
    "distinct_count",
    "grouped_topk",
]

# int columns that hold nulls (an outer or left join's misses) must NOT
# round-trip through float64 — values >= 2^53 would silently corrupt,
# and this repo carries uint64 hashes as int64 bit patterns. Map them to
# pandas nullable ints instead.
_NULLABLE_INTS = {
    pa.int8(): pd.Int8Dtype(),
    pa.int16(): pd.Int16Dtype(),
    pa.int32(): pd.Int32Dtype(),
    pa.int64(): pd.Int64Dtype(),
    pa.uint8(): pd.UInt8Dtype(),
    pa.uint16(): pd.UInt16Dtype(),
    pa.uint32(): pd.UInt32Dtype(),
    pa.uint64(): pd.UInt64Dtype(),
}


def _to_pandas_exact(t: pa.Table) -> pd.DataFrame:
    """``t`` in pandas with integer columns as nullable ints (never
    float64), and a null-free join key (and ``_on``) as plain numpy:
    pandas merges on nullable-int extension keys are several times
    slower, and ``merge_asof`` needs plain on/by dtypes."""
    df = t.to_pandas(types_mapper=_NULLABLE_INTS.get)
    for c in ("_k", "_on"):
        if (c in df and isinstance(df[c].dtype, pd.api.extensions.ExtensionDtype)
                and not df[c].isna().any()):
            df[c] = df[c].astype(df[c].dtype.numpy_dtype)
    return df


def _restore_ints(out: pd.DataFrame, col_types) -> pd.DataFrame:
    """Normalize integer carried columns to 64-bit (nullable only when
    misses are present) so the output schema is stable. uint64 keeps its
    sign-ness — forcing it through int64 silently wraps values ≥ 2^63
    to negatives; every other integer width fits int64 exactly."""
    for c, typ in col_types:
        if pa.types.is_integer(typ):
            if pa.types.is_unsigned_integer(typ) and typ.bit_width == 64:
                target = "UInt64" if out[c].isna().any() else np.uint64
            else:
                target = "Int64" if out[c].isna().any() else np.int64
            out[c] = out[c].astype(target)
    return out


def _out_type(typ: pa.DataType) -> pa.DataType:
    """The join OUTPUT type for a carried column: integer columns come
    back from ``_restore_ints`` as 64-bit of the same sign-ness, so
    empty buckets must emit the same or the Dataset holds blocks with
    conflicting schemas (int32 from an empty bucket vs int64 everywhere
    else)."""
    if pa.types.is_integer(typ):
        return (
            pa.uint64()
            if pa.types.is_unsigned_integer(typ) and typ.bit_width == 64
            else pa.int64()
        )
    return typ


def _joined(out: pd.DataFrame, col_types: list) -> pa.Table:
    """A bucket's joined rows, typed: ``col_types`` is ``[(column, input
    Arrow type)]`` in output order; an empty bucket gives the same
    ``_out_type`` schema as a full one."""
    if out.empty:
        return pa.schema([(c, _out_type(t)) for c, t in col_types]).empty_table()
    return from_pandas_clean(_restore_ints(out[[c for c, _ in col_types]].copy(), col_types))


def _cut(ds, key: str, cols: Sequence[str], on: str | None = None) -> tuple:
    """A join side cut to its key (as ``_k``), its ``on`` column (as
    ``_on``) and ``cols``, executed once: ``(Dataset, schema or None)``
    (``shuffle.materialized``)."""

    def cut(b: pa.Table) -> pa.Table:
        data = {"_k": b[key]} | ({"_on": b[on]} if on else {})
        return pa.table(data | {c: b[c] for c in cols})

    return materialized(ds.map_batches(cut, batch_format="pyarrow"))


def _typed(side: tuple, what: str, remedy: str = ""):
    """A cut side's Dataset; a side with no schema (no blocks, or only
    rowless ones) raises ``ValueError`` naming ``what``."""
    ds, schema = side
    if schema is None:
        raise ValueError(f"{what} has no schema: it has no blocks or only rowless ones{remedy}")
    return ds


def hash_join(
    left_ds,
    right_ds,
    *,
    key_left: str,
    key_right: str,
    keep_left: Sequence[str],
    keep_right: Sequence[str],
    how: str = "inner",
    type_hints: dict | None = None,
    key_out: str | None = None,
):
    """Large-large equi-join (``how`` = "inner", "left" or "outer") with NO
    broadcast side: both inputs are cut to (key, carried columns) and
    co-partitioned through one ``bucket_reduce`` exchange on the key,
    and each bucket runs one vectorized pandas merge. Multi-matches
    produce the full per-key cross product (standard inner-join
    semantics).

    Use the broadcast pattern instead when one side fits the object
    store; use this when BOTH sides are large. Skewed keys: a single
    hot key's bucket holds that key's rows from both sides; per-key row
    explosions are inherent to the join itself.

    A side with no rows at all may have no Dataset schema (zero blocks,
    or only rowless ones — the shape an exchange or a filter leaves on
    empty input); ``type_hints`` supplies its carried-column Arrow types
    and it joins as a typed empty input, so the result keeps a stable
    typed schema (empty inner join → typed empty table; left join with
    empty right → left rows with typed nulls). Its key takes the other
    side's type (``type_hints[key_out]`` when both are empty).

    ``how="outer"`` (FULL OUTER) keeps unmatched rows from BOTH sides
    with typed nulls for the absent side's carried columns. A full
    outer join has no anchor side for the key, so ``key_out`` names
    the output column carrying the (never-null) coalesced join key —
    required for "outer", ignored otherwise; both key columns must
    share one Arrow type."""
    import ray.data as rd

    if how == "outer" and key_out is None:
        raise ValueError("hash_join(how='outer') requires key_out")
    hints = dict(type_hints or {})
    sides = [_cut(left_ds, key_left, keep_left), _cut(right_ds, key_right, keep_right)]
    known = [s for _, s in sides if s is not None]
    k_type = known[0].field("_k").type if known else hints.get(key_out, pa.null())

    def hinted(side: tuple, cols) -> tuple:
        if side[1] is not None or any(c not in hints for c in cols):
            return side
        schema = pa.schema([("_k", k_type), *((c, hints[c]) for c in cols)])
        return rd.from_arrow(schema.empty_table()), schema

    remedy = "; pass type_hints covering its carried columns"
    left = _typed(hinted(sides[0], keep_left), "left side of hash_join", remedy)
    right = _typed(hinted(sides[1], keep_right), "right side of hash_join", remedy)

    def join_bucket(lt: pa.Table, rt: pa.Table) -> pa.Table:
        cols = [*((c, lt.schema.field(c).type) for c in keep_left),
                *((c, rt.schema.field(c).type) for c in keep_right)]
        if how == "outer":
            # the coalesced merge key is never null — both sides' rows
            # carry it, so it restores as a plain (non-nullable) column
            cols.insert(0, (key_out, lt.schema.field("_k").type))
        merged = _to_pandas_exact(lt).merge(_to_pandas_exact(rt), on="_k", how=how)
        if how == "outer":
            merged[key_out] = merged["_k"]
        return _joined(merged, cols)

    return bucket_reduce([left, right], "_k", join_bucket)


def asof_join(
    left_ds,
    right_ds,
    *,
    key_left: str,
    key_right: str,
    on_left: str,
    on_right: str,
    keep_left: Sequence[str],
    keep_right: Sequence[str],
):
    """As-of (backward) join: for each left row, the single right row with
    the same key and the greatest ``on_right <= on_left``. Ties on
    ``on_right`` break toward the LAST right row in (on, keep_right[0])
    ascending order, i.e. the greatest ``keep_right[0]`` — deterministic
    and SQL-reproducible via ROW_NUMBER.

    Unmatched left rows are dropped (inner as-of). Both sides are cut
    to (key, on, carried columns) BEFORE the exchange, so the shuffle
    moves only the join-relevant columns. A side with no schema (no
    blocks, or only rowless ones) raises ``ValueError``.
    """
    left = _typed(_cut(left_ds, key_left, keep_left, on_left), "left side of asof_join")
    right = _typed(_cut(right_ds, key_right, keep_right, on_right), "right side of asof_join")

    def join_bucket(lt: pa.Table, rt: pa.Table) -> pa.Table:
        cols = [*((c, lt.schema.field(c).type) for c in keep_left),
                *((c, rt.schema.field(c).type) for c in keep_right)]
        # merge_asof requires both frames sorted by the 'on' column; a
        # stable secondary sort on keep_right[0] makes the tie-break
        # (last match wins) deterministic: greatest keep_right[0].
        left = _to_pandas_exact(lt).sort_values("_on", kind="stable")
        right = _to_pandas_exact(rt).sort_values(["_on", keep_right[0]], kind="stable")
        # always-non-null match sentinel: filtering on a user column
        # would wrongly drop matches whose first carried value is null
        right = right.assign(_matched=np.int8(1))
        merged = pd.merge_asof(
            left[["_k", "_on", *keep_left]],
            right[["_k", "_on", *keep_right, "_matched"]],
            on="_on",
            by="_k",
            direction="backward",
            allow_exact_matches=True,
        )
        return _joined(merged[merged["_matched"].notna()], cols)

    return bucket_reduce([left, right], "_k", join_bucket)


def distinct_count(ds, group_col: str, distinct_col: str, alias: str = "n_distinct"):
    """COUNT(DISTINCT distinct_col) per string ``group_col``: per-batch
    pair dedup → bucket exchange on ``distinct_col`` (each distinct value
    lands in exactly one bucket, so a pair survives in exactly one
    place) → per-bucket dedup + partial counts → tiny final sum per
    group (``shuffle.aggregate``, count int64)."""

    def pairs(b: pa.Table) -> pa.Table:
        if not pa.types.is_string(b.schema.field(group_col).type):
            raise TypeError(f"distinct_count groups on a string column, "
                            f"{group_col!r} is {b.schema.field(group_col).type}")
        df = pd.DataFrame(
            {
                group_col: b[group_col].to_numpy(zero_copy_only=False),
                distinct_col: b[distinct_col].to_numpy(zero_copy_only=False),
            }
        ).drop_duplicates()
        return from_pandas_clean(df)

    def per_bucket(g: pa.Table) -> pa.Table:
        df = g.to_pandas().drop_duplicates([group_col, distinct_col])
        out = df.groupby(group_col, sort=False).size().reset_index(name=alias)
        return from_pandas_clean(out)

    partial = bucket_reduce(
        ds.map_batches(pairs, batch_format="pyarrow"), distinct_col, per_bucket
    )
    return aggregate(partial, group_col,
                     pa.schema([(group_col, pa.string()), (alias, pa.int64())]))


def grouped_topk(
    ds,
    group_col: str,
    k: int,
    order_col: str,
    tiebreak_col: str,
    ascending=(False, False),
):
    """Top-k rows per group by (order_col, tiebreak_col) in the given
    per-column directions (default DESC, DESC): per-batch partial top-k
    (each batch can only contribute its own best k per group) → a
    ``bucket_reduce`` on ``group_col`` whose reducers rank their groups'
    survivors. The final table is O(groups × k); the exchange moves only
    the per-batch survivors."""
    asc = list(ascending)

    def partial_topk(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        df = df.sort_values([order_col, tiebreak_col], ascending=asc, kind="stable")
        return from_pandas_clean(df.groupby(group_col, sort=False).head(k))

    def final_topk(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        df = df.sort_values([order_col, tiebreak_col], ascending=asc, kind="stable")
        df = df.groupby(group_col, sort=False).head(k)
        df["rank"] = df.groupby(group_col, sort=False).cumcount() + 1
        return from_pandas_clean(df)

    small = ds.map_batches(partial_topk, batch_format="pyarrow")
    return bucket_reduce(small, group_col, final_topk)


def band_join_count(
    left_ds,
    right_ds,
    *,
    key_left: str,
    key_right: str,
    on_left: str,
    on_right: str,
    low: int,
    high: int,
    keep_left: Sequence[str],
    on_scale: int,
):
    """Temporal/interval BAND join that COUNTS matches instead of
    materializing them: for each left row, ``m`` = number of right rows
    with the same key and ``on_right ∈ [on_left + low, on_left + high]``
    (both integer columns, e.g. day ordinals). Both sides co-locate
    through one ``bucket_reduce`` exchange on the key; inside a bucket
    the right rows sort once on the monotone composite
    ``key·on_scale + on`` and every left row's window count falls out of
    TWO vectorized searchsorted calls — no per-row loop, no row
    explosion. Caller guarantees ``0 <= on + high < on_scale``,
    ``on + low >= 0``, AND ``|key| < 2^62 / on_scale`` so the composite
    stays lexicographic without wrapping int64 (checked per bucket —
    NOT safe for 64-bit hashes carried as int64 bit patterns; bucket
    such keys into a smaller range first). A side with no schema (no
    blocks, or only rowless ones) raises ``ValueError``.

    Returns a Dataset of ``keep_left`` columns + ``m`` (int64). For the
    single-latest-match shape use :func:`asof_join`; for materialized
    pairs use :func:`hash_join` with a post-filter."""
    scale = np.int64(on_scale)
    left = _typed(_cut(left_ds, key_left, keep_left, on_left), "left side of band_join_count")
    right = _typed(_cut(right_ds, key_right, (), on_right), "right side of band_join_count")

    def composite(t: pa.Table) -> np.ndarray:
        k = t["_k"].to_numpy(zero_copy_only=False).astype(np.int64)
        if k.size and int(np.abs(k).max()) >= (1 << 62) // int(scale):
            raise ValueError(
                "band_join_count: |key| too large for on_scale — the "
                "composite key would wrap int64 and silently miscount"
            )
        return k * scale + t["_on"].to_numpy(zero_copy_only=False).astype(np.int64)

    def count_bucket(lt: pa.Table, rt: pa.Table) -> pa.Table:
        rightk = np.sort(composite(rt))
        cl = composite(lt)
        m = np.searchsorted(rightk, cl + high, side="right") - np.searchsorted(
            rightk, cl + low, side="left"
        )
        return lt.select(list(keep_left)).append_column("m", pa.array(m.astype(np.int64)))

    return bucket_reduce([left, right], "_k", count_bucket)

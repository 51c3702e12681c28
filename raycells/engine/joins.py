"""Co-partitioned join/window operators Ray Data lacks natively.

Each operator composes ``map_batches`` + coarse-bucket ``groupby`` +
``map_groups`` (SURVEY.md §2.9 pattern (a)): both sides are projected
into one narrow common schema, tagged, unioned, shuffled ONCE on a
coarse hash bucket of the join key, and joined with one vectorized
pandas kernel per bucket. The reference has no joins at all
(/root/reference — confirmed absences, SURVEY.md §2.8); these are graft
operators designed Ray-Data-first.

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
import pyarrow.compute as pc

from raycells.engine.shuffle import aggregate, bucket_reduce, from_pandas_clean

__all__ = [
    "asof_join",
    "hash_join",
    "band_join_count",
    "distinct_count",
    "grouped_topk",
]

# int columns that hold nulls (the tagged union fills the other side's
# columns with nulls) must NOT round-trip through float64 — values
# >= 2^53 would silently corrupt, and this repo carries uint64 hashes
# as int64 bit patterns. Map them to pandas nullable ints instead.
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
    return t.to_pandas(types_mapper=_NULLABLE_INTS.get)


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


def _empty_join_table(keep_left, keep_right, l_types, r_types) -> pa.Table:
    return pa.table(
        {c: pa.array([], _out_type(l_types[c])) for c in keep_left}
        | {c: pa.array([], _out_type(r_types[c])) for c in keep_right}
    )


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
    broadcast side: both inputs
    are projected to (key, carried columns), tagged, unioned, shuffled
    once on a coarse hash bucket of the key, and merged with one
    vectorized pandas join per bucket. Multi-matches produce the full
    per-key cross product (standard inner-join semantics).

    Use the broadcast pattern instead when one side fits the object
    store; use this when BOTH sides are large. Skewed keys: a single
    hot key's bucket holds that key's rows from both sides; per-key row
    explosions are inherent to the join itself.

    A fully-empty side (zero blocks — the shape a groupby/map_groups
    produces on empty input) has no Dataset schema; ``type_hints``
    supplies the carried-column Arrow types for that case so the
    result keeps a stable typed schema (empty inner join → typed empty
    table; left join with empty right → left rows with typed nulls).

    ``how="outer"`` (FULL OUTER) keeps unmatched rows from BOTH sides
    with typed nulls for the absent side's carried columns. A full
    outer join has no anchor side for the key, so ``key_out`` names
    the output column carrying the (never-null) coalesced join key —
    required for "outer", ignored otherwise; both key columns must
    share one Arrow type."""
    if how == "outer" and key_out is None:
        raise ValueError("hash_join(how='outer') requires key_out")
    hints = dict(type_hints or {})
    l_schema = left_ds.schema()
    r_schema = right_ds.schema()

    def _types(schema, cols, side):
        if schema is not None:
            base = schema.base_schema
            return {c: base.field(c).type for c in cols}
        try:
            return {c: hints[c] for c in cols}
        except KeyError as e:
            raise ValueError(
                f"{side} side of hash_join is empty with no schema; pass "
                f"type_hints covering its carried columns (missing {e})"
            ) from None

    l_types = _types(l_schema, keep_left, "left")
    r_types = _types(r_schema, keep_right, "right")
    if how == "outer":
        if l_schema is not None:
            k_type = l_schema.base_schema.field(key_left).type
        elif r_schema is not None:
            k_type = r_schema.base_schema.field(key_right).type
        else:
            k_type = _types(None, [key_out], "key")[key_out]
    else:
        k_type = None

    def _empty_result() -> pa.Table:
        cols = {}
        if k_type is not None:
            cols[key_out] = pa.array([], _out_type(k_type))
        return pa.table(
            cols
            | {c: pa.array([], _out_type(l_types[c])) for c in keep_left}
            | {c: pa.array([], _out_type(r_types[c])) for c in keep_right}
        )

    if (
        (l_schema is None and r_schema is None)
        or (how == "inner" and (l_schema is None or r_schema is None))
        or (how == "left" and l_schema is None)
    ):
        import ray

        return ray.data.from_arrow(_empty_result())
    if r_schema is None:  # left/outer: all left rows, typed null right

        def pad_right(b: pa.Table) -> pa.Table:
            data = {}
            if k_type is not None:
                data[key_out] = pc.cast(b[key_left], _out_type(k_type))
            data |= {c: pc.cast(b[c], _out_type(l_types[c])) for c in keep_left}
            for c in keep_right:
                data[c] = pa.nulls(b.num_rows, _out_type(r_types[c]))
            return pa.table(data)

        return left_ds.map_batches(pad_right, batch_format="pyarrow")
    if l_schema is None:  # how == "outer": all right rows, typed null left

        def pad_left(b: pa.Table) -> pa.Table:
            data = {key_out: pc.cast(b[key_right], _out_type(k_type))}
            for c in keep_left:
                data[c] = pa.nulls(b.num_rows, _out_type(l_types[c]))
            data |= {c: pc.cast(b[c], _out_type(r_types[c])) for c in keep_right}
            return pa.table(data)

        return right_ds.map_batches(pad_left, batch_format="pyarrow")

    def project_left(b: pa.Table) -> pa.Table:
        data = {"_k": b[key_left], "_side": pa.array(np.zeros(b.num_rows, np.int8))}
        for c in keep_left:
            data[c] = b[c]
        for c in keep_right:
            data[c] = pa.nulls(b.num_rows, r_types[c])
        return pa.table(data)

    def project_right(b: pa.Table) -> pa.Table:
        data = {"_k": b[key_right], "_side": pa.array(np.ones(b.num_rows, np.int8))}
        for c in keep_left:
            data[c] = pa.nulls(b.num_rows, l_types[c])
        for c in keep_right:
            data[c] = b[c]
        return pa.table(data)

    tagged = left_ds.map_batches(project_left, batch_format="pyarrow").union(
        right_ds.map_batches(project_right, batch_format="pyarrow")
    )

    def join_bucket(g: pa.Table) -> pa.Table:
        # Split the sides at the Arrow level BEFORE to_pandas so each
        # side's frame only holds its own (non-null-filled) columns, and
        # convert via nullable-int dtypes: int columns never pass
        # through float64, so values >= 2^53 survive exactly.
        lmask = pc.equal(g["_side"], 0)
        left = _to_pandas_exact(g.filter(lmask).select(["_k", *keep_left]))
        right = _to_pandas_exact(
            g.filter(pc.invert(lmask)).select(["_k", *keep_right])
        )
        if (left.empty and how != "outer") or (right.empty and how == "inner"):
            return _empty_join_table(keep_left, keep_right, l_types, r_types)
        # merge on plain numpy keys when possible: pandas merges on
        # nullable-int extension keys are several times slower, and join
        # keys are non-null in every caller (cast both sides or neither —
        # mixed-dtype merge keys are their own trap)
        if all(
            isinstance(f["_k"].dtype, pd.api.extensions.ExtensionDtype)
            and not f["_k"].isna().any()
            for f in (left, right)
        ):
            left["_k"] = left["_k"].astype(left["_k"].dtype.numpy_dtype)
            right["_k"] = right["_k"].astype(right["_k"].dtype.numpy_dtype)
        merged = left.merge(right, on="_k", how=how)
        out = merged[[*keep_left, *keep_right]].copy()
        restore = [
            *((c, l_types[c]) for c in keep_left),
            *((c, r_types[c]) for c in keep_right),
        ]
        if how == "outer":
            # the coalesced merge key is never null — both sides' rows
            # carry it, so it restores as a plain (non-nullable) column
            out.insert(0, key_out, merged["_k"])
            restore.insert(0, (key_out, k_type))
        out = _restore_ints(out, restore)
        return from_pandas_clean(out)

    return bucket_reduce(tagged, "_k", join_bucket)


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

    Unmatched left rows are dropped (inner as-of). Both sides are
    projected to (key, on, carried columns) BEFORE the exchange, so the
    shuffle moves only the join-relevant columns.
    """
    # resolve carried-column types from each side so the null columns on
    # the other side get the right dtype (union requires one schema)
    l_schema = left_ds.schema()
    r_schema = right_ds.schema()
    l_types = {c: l_schema.base_schema.field(c).type for c in keep_left}
    r_types = {c: r_schema.base_schema.field(c).type for c in keep_right}

    def project_left(b: pa.Table) -> pa.Table:
        data = {
            "_k": b[key_left],
            "_on": b[on_left],
            "_side": pa.array(np.zeros(b.num_rows, dtype=np.int8)),
        }
        for c in keep_left:
            data[c] = b[c]
        for c in keep_right:
            data[c] = pa.nulls(b.num_rows, r_types[c])
        return pa.table(data)

    def project_right(b: pa.Table) -> pa.Table:
        data = {
            "_k": b[key_right],
            "_on": b[on_right],
            "_side": pa.array(np.ones(b.num_rows, dtype=np.int8)),
        }
        for c in keep_left:
            data[c] = pa.nulls(b.num_rows, l_types[c])
        for c in keep_right:
            data[c] = b[c]
        return pa.table(data)

    tagged = left_ds.map_batches(project_left, batch_format="pyarrow").union(
        right_ds.map_batches(project_right, batch_format="pyarrow")
    )

    def join_bucket(g: pa.Table) -> pa.Table:
        # Split sides before to_pandas (see hash_join.join_bucket): int
        # columns never round-trip through float64.
        lmask = pc.equal(g["_side"], 0)
        left = _to_pandas_exact(
            g.filter(lmask).select(["_k", "_on", *keep_left])
        )
        right = _to_pandas_exact(
            g.filter(pc.invert(lmask)).select(["_k", "_on", *keep_right])
        )
        if left.empty or right.empty:
            return _empty_join_table(keep_left, keep_right, l_types, r_types)
        # merge_asof needs plain (non-extension) on/by dtypes; both are
        # non-null after the side split, so the cast is exact.
        for frame in (left, right):
            for c in ("_k", "_on"):
                if isinstance(frame[c].dtype, pd.api.extensions.ExtensionDtype):
                    frame[c] = frame[c].astype(frame[c].dtype.numpy_dtype)
        # merge_asof requires both frames sorted by the 'on' column; a
        # stable secondary sort on keep_right[0] makes the tie-break
        # (last match wins) deterministic: greatest keep_right[0].
        left = left.sort_values("_on", kind="stable")
        right = right.sort_values(["_on", keep_right[0]], kind="stable")
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
        merged = merged[merged["_matched"].notna()]
        out = merged[[*keep_left, *keep_right]].copy()
        out = _restore_ints(
            out,
            [*((c, l_types[c]) for c in keep_left),
             *((c, r_types[c]) for c in keep_right)],
        )
        return from_pandas_clean(out)

    return bucket_reduce(tagged, "_k", join_bucket)


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
    (each batch can only contribute its own best k per group) → one
    small final merge task. The final table is O(groups × k); the
    exchange moves only the per-batch survivors."""
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
    # survivors are O(blocks × groups × k): coalesce and finish in one task
    return small.repartition(1).map_batches(
        final_topk, batch_format="pyarrow", batch_size=None
    )


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
    (both integer columns, e.g. day ordinals). Both sides co-locate via
    one tagged-union coarse-bucket exchange on the key; inside a bucket
    the right rows sort once on the monotone composite
    ``key·on_scale + on`` and every left row's window count falls out of
    TWO vectorized searchsorted calls — no per-row loop, no row
    explosion. Caller guarantees ``0 <= on + high < on_scale``,
    ``on + low >= 0``, AND ``|key| < 2^62 / on_scale`` so the composite
    stays lexicographic without wrapping int64 (checked per bucket —
    NOT safe for 64-bit hashes carried as int64 bit patterns; bucket
    such keys into a smaller range first).

    Returns a Dataset of ``keep_left`` columns + ``m`` (int64). For the
    single-latest-match shape use :func:`asof_join`; for materialized
    pairs use :func:`hash_join` with a post-filter."""
    scale = np.int64(on_scale)
    l_schema = left_ds.schema().base_schema
    l_types = {c: l_schema.field(c).type for c in keep_left}

    def project_left(b: pa.Table) -> pa.Table:
        data = {
            "_k": b[key_left],
            "_on": b[on_left],
            "_side": pa.array(np.zeros(b.num_rows, np.int8)),
        }
        for c in keep_left:
            data[c] = b[c]
        return pa.table(data)

    def project_right(b: pa.Table) -> pa.Table:
        data = {
            "_k": b[key_right],
            "_on": b[on_right],
            "_side": pa.array(np.ones(b.num_rows, np.int8)),
        }
        for c in keep_left:
            data[c] = pa.nulls(b.num_rows, l_types[c])
        return pa.table(data)

    tagged = left_ds.map_batches(project_left, batch_format="pyarrow").union(
        right_ds.map_batches(project_right, batch_format="pyarrow")
    )

    def count_bucket(g: pa.Table) -> pa.Table:
        side = g["_side"].to_numpy(zero_copy_only=False)
        k = g["_k"].to_numpy(zero_copy_only=False).astype(np.int64)
        on = g["_on"].to_numpy(zero_copy_only=False).astype(np.int64)
        if k.size and int(np.abs(k).max()) >= (1 << 62) // int(scale):
            raise ValueError(
                "band_join_count: |key| too large for on_scale — the "
                "composite key would wrap int64 and silently miscount"
            )
        comp = k * scale + on
        rightk = np.sort(comp[side == 1])
        lm = side == 0
        cl = comp[lm]
        m = np.searchsorted(rightk, cl + high, side="right") - np.searchsorted(
            rightk, cl + low, side="left"
        )
        cols = {c: g[c].filter(pa.array(lm)) for c in keep_left}
        cols["m"] = pa.array(m.astype(np.int64))
        return pa.table(cols)

    return bucket_reduce(tagged, "_k", count_bucket)

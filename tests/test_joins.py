"""Unit pins for the co-partitioned join/window operators
(raycells/engine/joins.py): as-of tie-break and unmatched-row drop,
distinct-count bucket correctness, grouped top-k ranking."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from raycells.engine.joins import asof_join, distinct_count, grouped_topk


def _ds(table: pa.Table, blocks: int = 2):
    import ray.data as rd

    return rd.from_arrow(table).repartition(blocks)


def test_asof_backward_with_tiebreak(ray_session):
    left = pa.table(
        {
            "k": [1, 1, 2, 3],
            "t": pa.array([10, 5, 7, 9], pa.int64()),
            "lid": [100, 101, 102, 103],
        }
    )
    # key 1: two right rows at t=5 (ids 7 and 8) → tie breaks to id 8;
    # key 2: only a LATER right row → left row unmatched, dropped;
    # key 3: absent on the right → dropped.
    right = pa.table(
        {
            "k": [1, 1, 1, 2],
            "t": pa.array([5, 5, 2, 8], pa.int64()),
            "rid": [7, 8, 6, 9],
        }
    )
    out = (
        asof_join(
            _ds(left),
            _ds(right),
            key_left="k",
            key_right="k",
            on_left="t",
            on_right="t",
            keep_left=["lid"],
            keep_right=["rid"],
        )
        .to_pandas()
        .sort_values("lid")
        .reset_index(drop=True)
    )
    assert out["lid"].tolist() == [100, 101]
    assert out["rid"].tolist() == [8, 8]  # t=5 tie → greatest rid


def test_asof_exact_match_included(ray_session):
    left = pa.table({"k": [1], "t": pa.array([5], pa.int64()), "lid": [1]})
    right = pa.table({"k": [1], "t": pa.array([5], pa.int64()), "rid": [2]})
    out = asof_join(
        _ds(left, 1),
        _ds(right, 1),
        key_left="k",
        key_right="k",
        on_left="t",
        on_right="t",
        keep_left=["lid"],
        keep_right=["rid"],
    ).to_pandas()
    assert out["rid"].tolist() == [2]


def test_distinct_count_across_blocks(ray_session):
    # the same (group, value) pair spread over blocks must count ONCE
    t = pa.table(
        {
            "g": ["a"] * 6 + ["b"] * 4,
            "v": [1, 1, 2, 2, 3, 3, 1, 1, 1, 9],
        }
    )
    out = (
        distinct_count(_ds(t, 5), "g", "v", alias="n")
        .to_pandas()
        .sort_values("g")
        .reset_index(drop=True)
    )
    assert out["g"].tolist() == ["a", "b"]
    assert out["n"].tolist() == [3, 2]
    assert dict(zip(out.columns, out.dtypes.astype(str))) == {"g": "object", "n": "int64"}
    # the count's group column is typed string: other groups raise
    t_int = t.set_column(0, "g", pa.array([1] * 6 + [2] * 4, pa.int64()))
    with pytest.raises(Exception, match="string column"):
        distinct_count(_ds(t_int, 5), "g", "v", alias="n").materialize()


def test_grouped_topk_rank_and_ties(ray_session):
    t = pa.table(
        {
            "g": ["x"] * 4 + ["y"] * 2,
            "score": pa.array([5, 5, 9, 1, 2, 2], pa.int64()),
            "id": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
        }
    )
    out = (
        grouped_topk(_ds(t, 3), "g", 2, order_col="score", tiebreak_col="id")
        .to_pandas()
        .sort_values(["g", "rank"])
        .reset_index(drop=True)
    )
    # x: 9(id3) rank1, then score-5 tie → greater id (2) rank2
    assert out[out["g"] == "x"]["id"].tolist() == [3, 2]
    # y: score-2 tie → ids 6,5
    assert out[out["g"] == "y"]["id"].tolist() == [6, 5]
    assert out["rank"].tolist() == [1, 2, 1, 2]


def test_hash_join_inner_multimatch(ray_session):
    from raycells.engine.joins import hash_join

    left = pa.table({"k": [1, 1, 2, 3], "lv": [10, 11, 20, 30]})
    right = pa.table({"k": [1, 2, 2, 4], "rv": [100, 200, 201, 400]})
    out = (
        hash_join(
            _ds(left, 2),
            _ds(right, 2),
            key_left="k",
            key_right="k",
            keep_left=["lv"],
            keep_right=["rv"],
        )
        .to_pandas()
        .sort_values(["lv", "rv"])
        .reset_index(drop=True)
    )
    # key 1: 2 left x 1 right; key 2: 1 x 2; keys 3, 4 unmatched
    assert list(zip(out["lv"], out["rv"])) == [
        (10, 100), (11, 100), (20, 200), (20, 201),
    ]


def test_hash_join_left_keeps_unmatched(ray_session):
    from raycells.engine.joins import hash_join

    left = pa.table({"k": [1, 3], "lv": [10, 30]})
    right = pa.table({"k": [1], "rv": [100]})
    out = (
        hash_join(
            _ds(left, 2),
            _ds(right, 1),
            key_left="k",
            key_right="k",
            keep_left=["lv"],
            keep_right=["rv"],
            how="left",
        )
        .to_pandas()
        .sort_values("lv")
        .reset_index(drop=True)
    )
    assert out["lv"].tolist() == [10, 30]
    assert out["rv"][0] == 100 and pd.isna(out["rv"][1])


from hypothesis import given, settings, strategies as st


@st.composite
def _join_tables(draw):
    keys = st.integers(min_value=0, max_value=6)
    n_l = draw(st.integers(min_value=1, max_value=20))
    n_r = draw(st.integers(min_value=1, max_value=20))
    lk = draw(st.lists(keys, min_size=n_l, max_size=n_l))
    rk = draw(st.lists(keys, min_size=n_r, max_size=n_r))
    return lk, rk


@settings(max_examples=15, deadline=None)
@given(_join_tables())
def test_hash_join_matches_pandas_merge(ray_session, tables):
    """Randomized inner-join equivalence vs a pandas merge oracle."""
    from raycells.engine.joins import hash_join

    lk, rk = tables
    left = pa.table({"k": lk, "lv": list(range(len(lk)))})
    right = pa.table({"k": rk, "rv": list(range(100, 100 + len(rk)))})
    got = hash_join(
        _ds(left, 2), _ds(right, 2),
        key_left="k", key_right="k",
        keep_left=["lv"], keep_right=["rv"],
    ).to_pandas()
    if got.empty:
        got = pd.DataFrame({"lv": [], "rv": []})
    got = got.sort_values(["lv", "rv"]).reset_index(drop=True)
    want = (
        left.to_pandas()
        .merge(right.to_pandas(), on="k")
        [["lv", "rv"]]
        .sort_values(["lv", "rv"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got[["lv", "rv"]], want, check_dtype=False)


@settings(max_examples=15, deadline=None)
@given(_join_tables())
def test_asof_join_matches_pandas_oracle(ray_session, tables):
    """Randomized as-of equivalence vs a per-row scan oracle with the
    documented tie-break (greatest on, then greatest carried id)."""
    from raycells.engine.joins import asof_join

    lk, rk = tables
    rng = np.random.default_rng(len(lk) * 100 + len(rk))
    lt = rng.integers(0, 10, len(lk))
    rt = rng.integers(0, 10, len(rk))
    left = pa.table({"k": lk, "t": pa.array(lt, pa.int64()),
                     "lid": list(range(len(lk)))})
    right = pa.table({"k": rk, "t": pa.array(rt, pa.int64()),
                      "rid": list(range(100, 100 + len(rk)))})
    got = asof_join(
        _ds(left, 2), _ds(right, 2),
        key_left="k", key_right="k", on_left="t", on_right="t",
        keep_left=["lid"], keep_right=["rid"],
    ).to_pandas()
    if got.empty:  # an all-empty Ray result can drop its schema
        got = pd.DataFrame({"lid": [], "rid": []})
    got = got.sort_values("lid").reset_index(drop=True)
    expect = []
    for i, (k, t) in enumerate(zip(lk, lt)):
        cand = [(rt[j], 100 + j) for j, rk_j in enumerate(rk)
                if rk_j == k and rt[j] <= t]
        if cand:
            expect.append((i, max(cand)[1]))
    expect.sort()
    assert list(zip(got["lid"], got["rid"])) == expect


def test_hash_join_exact_above_2p53(ray_session):
    """int64 values >= 2^53 must survive the join exactly: the tagged
    union used to route int64-with-nulls through pandas float64, which
    silently corrupted large values (ADVICE r1). The repo carries uint64
    hashes as int64 bit patterns, so this is a realistic key range."""
    from raycells.engine.joins import hash_join

    big = 2**62 + 12345678901  # not representable in float64
    left = pa.table({"k": [1, 2], "lval": pa.array([big, big + 7], pa.int64())})
    right = pa.table({"k": [1, 3], "rval": pa.array([big + 1, big + 2], pa.int64())})
    inner = (
        hash_join(
            _ds(left, 1), _ds(right, 1),
            key_left="k", key_right="k",
            keep_left=["lval"], keep_right=["rval"],
        )
        .to_pandas()
    )
    assert inner["lval"].tolist() == [big]
    assert inner["rval"].tolist() == [big + 1]
    outer = (
        hash_join(
            _ds(left, 1), _ds(right, 1),
            key_left="k", key_right="k",
            keep_left=["lval"], keep_right=["rval"], how="left",
        )
        .to_pandas()
        .sort_values("lval")
        .reset_index(drop=True)
    )
    assert outer["lval"].tolist() == [big, big + 7]
    assert outer["rval"][0] == big + 1 and pd.isna(outer["rval"][1])


def test_asof_exact_above_2p53_and_null_first_carried(ray_session):
    """(a) as-of carried values >= 2^53 survive exactly; (b) a matched
    right row whose FIRST carried column is null is kept (the old
    dropna(keep_right[0]) inner-drop wrongly removed it, ADVICE r1)."""
    big = 2**62 + 987654321
    left = pa.table(
        {"k": [1, 2], "t": pa.array([10, 10], pa.int64()), "lid": [1, 2]}
    )
    right = pa.table(
        {
            "k": [1, 2],
            "t": pa.array([5, 5], pa.int64()),
            "rv": pa.array([None, big], pa.int64()),
            "rid": [7, 8],
        }
    )
    out = (
        asof_join(
            _ds(left, 1), _ds(right, 1),
            key_left="k", key_right="k",
            on_left="t", on_right="t",
            keep_left=["lid"], keep_right=["rv", "rid"],
        )
        .to_pandas()
        .sort_values("lid")
        .reset_index(drop=True)
    )
    # both left rows matched; the null rv row is NOT dropped
    assert out["lid"].tolist() == [1, 2]
    assert pd.isna(out["rv"][0]) and out["rv"][1] == big
    assert out["rid"].tolist() == [7, 8]


def test_hash_join_int32_carried_schema_stable(ray_session):
    """Empty buckets must emit the SAME output schema as non-empty ones:
    _restore_ints widens carried integer columns to int64, so empty
    buckets emitting the original int32 produced conflicting block
    schemas in one Dataset (regression)."""
    from raycells.engine.joins import hash_join

    left = pa.table(
        {
            "k": pa.array([1, 2, 3], pa.int64()),
            "lv": pa.array([10, 20, 30], pa.int32()),
        }
    )
    right = pa.table(
        {
            "k": pa.array([1, 2], pa.int64()),
            "rv": pa.array([7, 8], pa.int16()),
        }
    )
    out = hash_join(
        _ds(left),
        _ds(right),
        key_left="k",
        key_right="k",
        keep_left=["lv"],
        keep_right=["rv"],
    )  # 3 keys over scaled_buckets() >= 64 buckets → most buckets empty
    # a downstream groupby forces Ray to unify block schemas — this is
    # where conflicting int32/int64 blocks blew up
    agg = out.groupby("lv").count().to_pandas()
    assert sorted(agg["lv"].tolist()) == [10, 20]
    # every block — including the empty-bucket ones — carries int64
    import ray

    for ref in out.to_arrow_refs():
        blk = ray.get(ref)
        if blk.num_columns == 0:  # schema-less sentinel block
            continue
        assert blk.schema.field("lv").type == pa.int64()
        assert blk.schema.field("rv").type == pa.int64()


def test_hash_join_uint64_carried_column_exact(ray_session):
    """A genuine uint64 carried column ≥ 2^63 must survive the pandas
    round-trip with its sign-ness intact (int64 coercion silently wraps
    it negative)."""
    import ray.data as rd

    from raycells.engine.joins import hash_join

    big = np.uint64(2**63 + 5)
    left = pa.table({"k": pa.array([1, 2], pa.int64()), "lv": pa.array([10, 20], pa.int64())})
    right = pa.table(
        {"k": pa.array([1, 2], pa.int64()), "rv": pa.array([big, np.uint64(7)], pa.uint64())}
    )
    out = hash_join(
        rd.from_arrow(left),
        rd.from_arrow(right),
        key_left="k",
        key_right="k",
        keep_left=["lv"],
        keep_right=["rv"],
    ).to_pandas().sort_values("lv").reset_index(drop=True)
    assert out["rv"].dtype == np.uint64
    assert int(out.loc[0, "rv"]) == 2**63 + 5


def test_band_join_count_matches_brute_force(ray_session):
    """band_join_count's searchsorted window must equal the brute-force
    count for every left row, across random keys/offsets, asymmetric
    [low, high] bounds, keys with no right rows, and window edges."""
    from raycells.engine.joins import band_join_count

    rng = np.random.default_rng(17)
    n_l, n_r = 300, 400
    lk = rng.integers(0, 20, n_l).astype(np.int64)
    lo_ = rng.integers(10, 100, n_l).astype(np.int64)
    rk = rng.integers(0, 25, n_r).astype(np.int64)  # some keys only right
    ro = rng.integers(10, 100, n_r).astype(np.int64)
    left = pa.table(
        {"k": lk, "on": lo_, "tag": [f"L{i}" for i in range(n_l)]}
    )
    right = pa.table({"k": rk, "on": ro})
    out = band_join_count(
        _ds(left),
        _ds(right),
        key_left="k",
        key_right="k",
        on_left="on",
        on_right="on",
        low=-5,
        high=3,
        keep_left=["tag"],
        on_scale=128,
    ).to_pandas()
    want = {
        f"L{i}": int(
            ((rk == lk[i]) & (ro >= lo_[i] - 5) & (ro <= lo_[i] + 3)).sum()
        )
        for i in range(n_l)
    }
    got = dict(zip(out["tag"], out["m"].astype(int)))
    assert got == want


def test_range_partition_plan_is_a_valid_routing(ray_session):
    """range_partition: the plan manifest must describe a true range
    routing — partition key ranges are disjoint and ordered (max of
    partition p < min of partition p+2 at worst; adjacent partitions
    may share a boundary value only through splitter ties), row counts
    sum to the table size, and every partition id is in [0, 16)."""
    import duckdb
    import numpy as np

    from raycells.pipelines.queries import q_range_partition

    sf = "/root/testdata/sf0.001"
    df = (
        q_range_partition(sf)
        .to_pandas()
        .sort_values("partition_id")
        .reset_index(drop=True)
    )
    total = duckdb.sql(
        f"SELECT COUNT(*) FROM read_parquet('{sf}/lineitem.parquet')"
    ).fetchone()[0]
    assert df["n_rows"].sum() == total
    assert df["partition_id"].between(0, 15).all()
    assert (df["min_key_c"] <= df["max_key_c"]).all()
    # ranges ordered: each partition's max <= the next partition's...
    # boundary values can straddle only when equal (searchsorted puts
    # every key == splitter on the left side, so max_p <= min_{p+1}
    # can fail only never: side='right' is a strict partition)
    mx = df["max_key_c"].to_numpy()
    mn = df["min_key_c"].to_numpy()
    assert (mx[:-1] <= mn[1:]).all()
    assert (np.diff(df["partition_id"].to_numpy()) > 0).all()


def test_hash_join_outer_matrix(ray_session):
    """FULL OUTER semantics on a crafted fixture: matched rows join,
    left-only and right-only rows survive with typed nulls, and the
    coalesced key (key_out) is never null. Also pins the empty-side
    short-circuits: outer with an empty (schemaless) right pads typed
    null right columns onto every left row, and vice versa."""
    import numpy as np
    import pyarrow as pa
    import ray

    from raycells.engine.joins import hash_join

    left = ray.data.from_arrow(
        pa.table(
            {
                "k": pa.array([1, 2, 3], pa.int64()),
                "lv": pa.array([10, 20, 30], pa.int64()),
            }
        )
    )
    right = ray.data.from_arrow(
        pa.table(
            {
                "k": pa.array([2, 3, 4], pa.int64()),
                "rv": pa.array([200, 300, 400], pa.int64()),
            }
        )
    )
    out = (
        hash_join(
            left, right, key_left="k", key_right="k",
            keep_left=["lv"], keep_right=["rv"],
            how="outer", key_out="k",
        )
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert out["k"].tolist() == [1, 2, 3, 4]
    assert out["k"].notna().all()
    assert out["lv"].tolist()[:3] == [10, 20, 30] and pd_isna(out["lv"][3])
    assert pd_isna(out["rv"][0]) and out["rv"].tolist()[1:] == [200, 300, 400]

    # empty right (zero-block, schemaless) -> every left row, typed nulls
    empty = ray.data.from_arrow(
        pa.table({"k": pa.array([], pa.int64()), "rv": pa.array([], pa.int64())})
    ).filter(lambda r: False).map_batches(lambda b: b, batch_format="pyarrow")
    padded = hash_join(
        left, empty, key_left="k", key_right="k",
        keep_left=["lv"], keep_right=["rv"],
        how="outer", key_out="k",
        type_hints={"rv": pa.int64()},
    ).to_pandas()
    assert sorted(padded["k"].tolist()) == [1, 2, 3]
    assert padded["rv"].isna().all()


def pd_isna(v):
    import pandas as pd

    return pd.isna(v)


@settings(max_examples=15, deadline=None)
@given(_join_tables())
def test_hash_join_outer_matches_pandas_merge(ray_session, tables):
    """Randomized FULL OUTER equivalence vs a pandas outer merge: same
    row multiset (coalesced key + zero-filled sides) on arbitrary
    overlapping/disjoint key sets."""
    from raycells.engine.joins import hash_join

    lk, rk = tables
    left = pa.table({"k": lk, "lv": list(range(len(lk)))})
    right = pa.table({"k": rk, "rv": list(range(100, 100 + len(rk)))})
    got = hash_join(
        _ds(left, 2), _ds(right, 2),
        key_left="k", key_right="k",
        keep_left=["lv"], keep_right=["rv"],
        how="outer", key_out="k",
    ).to_pandas()
    want = left.to_pandas().merge(right.to_pandas(), on="k", how="outer")
    for df in (got, want):
        df["lv"] = df["lv"].fillna(-1).astype("int64")
        df["rv"] = df["rv"].fillna(-1).astype("int64")
    got = got[["k", "lv", "rv"]].sort_values(["k", "lv", "rv"]).reset_index(drop=True)
    want = want[["k", "lv", "rv"]].sort_values(["k", "lv", "rv"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_hash_join_runs_each_side_once(ray_session, tmp_path):
    """Each join side executes once: its types come from its own blocks,
    not from a lazy ``.schema()`` that reruns the side under
    ``LimitOperator[limit=1]``."""
    import ray.data as rd

    from raycells.engine.joins import hash_join

    log = tmp_path / "calls"

    def tag(b: pa.Table) -> pa.Table:
        with open(log, "a") as f:
            f.write("x")
        return b.append_column("lv", pa.array(b["id"].to_numpy() * 10))

    left = rd.range(40, override_num_blocks=4).map_batches(tag, batch_format="pyarrow")
    right = rd.from_arrow(pa.table({"id": pa.array([3, 7, 99], pa.int64()),
                                    "rv": pa.array([1, 2, 3], pa.int64())}))
    out = hash_join(left, right, key_left="id", key_right="id",
                    keep_left=["lv"], keep_right=["rv"]).materialize()
    assert sorted(out.to_pandas()["lv"].tolist()) == [30, 70]
    assert log.read_text() == "xxxx"


@pytest.mark.parametrize("empty_side", ["left", "right"])
def test_asof_and_band_joins_name_a_side_with_no_schema(ray_session, empty_side):
    """A side with zero blocks or only rowless ones has no Dataset
    schema; both joins raise a ValueError naming it."""
    import ray.data as rd

    from raycells.engine.joins import band_join_count

    t = pa.table({"k": pa.array([1, 2], pa.int64()), "t": pa.array([5, 9], pa.int64()),
                  "id": pa.array([7, 8], pa.int64())})
    full = rd.from_arrow(t)
    no_schema = {
        "rowless": rd.from_arrow(t).filter(lambda r: False).map_batches(
            lambda b: b, batch_format="pyarrow"),
        "no blocks": rd.from_items([]),
    }
    for empty in no_schema.values():
        left, right = (empty, full) if empty_side == "left" else (full, empty)
        with pytest.raises(ValueError, match=f"{empty_side} side of asof_join"):
            asof_join(left, right, key_left="k", key_right="k", on_left="t",
                      on_right="t", keep_left=["id"], keep_right=["id"])
        with pytest.raises(ValueError, match=f"{empty_side} side of band_join_count"):
            band_join_count(left, right, key_left="k", key_right="k", on_left="t",
                            on_right="t", low=0, high=1, keep_left=["id"], on_scale=64)

"""The engine's exchange and aggregate spec in engine/shuffle.py: the
bucket exchange (bucket_reduce: key placement for every key kind, the
reducer's view of the group, the pinned bucket hash, and the
co-partitioned exchange of several inputs: one call per key, each
input's own columns and types, typed results on empty inputs, each
input run once), the two executors of one aggregate declaration (fold
on the driver, aggregate through the exchange: answers against a plain
pandas fold and each other, ordering, typing, salting), the one block
collect (collect_refs), plus a source scan that keeps hand-rolled
exchanges, tagged unions, driver folds, Ray Data aggregates and direct
``to_arrow_refs()`` collects out."""

import ast
import pathlib
import re

import numpy as np
import pyarrow as pa
import pytest

from raycells.engine import shuffle

ROOT = pathlib.Path(__file__).resolve().parent.parent / "raycells"


# --- pinned bucket hash --------------------------------------------------
# Vectors computed with the single-column formula before bucket_reduce
# existed: merge_cell_agg's placement and the benchmark's per-bucket
# row trace (engine.shuffle.merge.bucket_rows_*) read this formula, so a
# change here changes what those figures mean.

_I64 = [0, 1, 2, 3, 7, 42, 1000, 123456789, -1, -2, -(2**63), 2**63 - 1]
_U64 = [0, 1, 2**63, 2**63 + 1, 2**64 - 1, 0xDEADBEEFCAFEBABE]
_STR = ["", "a", "b", "doc-0001", "doc-0002", "ünïcode", "x" * 40]


def _buckets(tab, key, n):
    return shuffle.add_bucket(tab, key, n)["_bucket"].to_pylist()


def test_add_bucket_single_column_pinned():
    i64 = pa.table({"k": pa.array(_I64, pa.int64())})
    assert _buckets(i64, "k", 64) == [0, 55, 46, 38, 4, 25, 51, 49, 8, 17, 0, 8]
    assert _buckets(i64, "k", 7) == [0, 1, 0, 2, 2, 4, 1, 5, 0, 1, 1, 1]
    u64 = pa.table({"k": pa.array(_U64, pa.uint64())})
    assert _buckets(u64, "k", 64) == [0, 55, 0, 55, 8, 44]
    st = pa.table({"k": pa.array(_STR, pa.string())})
    assert _buckets(st, "k", 64) == [6, 16, 31, 49, 51, 7, 11]


def test_add_bucket_column_list_pinned():
    """A column list folds its columns (the multi-column key hash the
    near-dup exchanges use); pinned to the values of the former
    ``dedup._coarse_bucket`` so those exchanges keep their placement."""
    two = pa.table(
        {
            "a": pa.array([1, 1, 2, -5, 2**40], pa.int64()),
            "b": pa.array(["x", "y", "x", "", "zz"]),
        }
    )
    assert _buckets(two, ["a", "b"], 64) == [30, 38, 54, 0, 51]
    one = pa.table({"k": pa.array(_I64, pa.int64())})
    assert _buckets(one, ["k"], 64) == [0, 28, 57, 22, 9, 55, 12, 2, 35, 6, 0, 35]


# --- bucket_reduce placement ---------------------------------------------

def _keyed_table(kind: str, n_keys: int = 300, reps: int = 4) -> tuple:
    rng = np.random.default_rng(7)
    ids = np.repeat(np.arange(n_keys), reps)
    rng.shuffle(ids)
    if kind == "int64":
        cols = {"k": pa.array(ids * 7919 - 1_000_000, pa.int64())}
    elif kind == "uint64_high":
        cols = {"k": pa.array(np.uint64(2**63) + ids.astype(np.uint64) * np.uint64(104729), pa.uint64())}
    elif kind == "string":
        cols = {"k": pa.array([f"doc-{i:05d}" for i in ids], pa.string())}
    else:  # two-column key: (int, string) with both parts repeating
        cols = {
            "k": pa.array(ids % 17, pa.int64()),
            "k2": pa.array([f"s{i // 17}" for i in ids], pa.string()),
        }
    cols["rid"] = pa.array(np.arange(ids.size, dtype=np.int64))
    key = ["k", "k2"] if kind == "pair" else "k"
    return pa.table(cols), key


@pytest.mark.parametrize("kind", ["int64", "uint64_high", "string", "pair"])
def test_bucket_reduce_places_each_key_in_one_group(ray_session, kind):
    import ray.data as rd

    tab, key = _keyed_table(kind)
    keys = [key] if isinstance(key, str) else key
    # several input blocks, so one key's rows start out on different blocks
    ds = rd.from_arrow([tab.slice(i, 300) for i in range(0, tab.num_rows, 300)])

    def per_group(g: pa.Table) -> pa.Table:
        # one output row per (key, group); the group is named by its
        # smallest row id, unique across groups
        grp = int(np.min(g["rid"].to_numpy())) if g.num_rows else -1
        df = g.select(keys).to_pandas()
        counts = df.groupby(keys, sort=False).size().reset_index(name="n")
        counts["grp"] = grp
        counts["saw_bucket"] = "_bucket" in g.column_names
        return shuffle.from_pandas_clean(counts)

    out = shuffle.bucket_reduce(ds, key, per_group).to_pandas()
    assert not out["saw_bucket"].any()
    groups_per_key = out.groupby(keys)["grp"].nunique()
    assert (groups_per_key == 1).all()
    # every input row reached exactly one reducer call
    want = tab.select(keys).to_pandas().groupby(keys).size()
    got = out.groupby(keys)["n"].sum()
    assert got.sort_index().to_dict() == want.sort_index().to_dict()
    assert out["grp"].nunique() > 1  # more than one group was exercised


def test_bucket_reduce_width_is_resolved_once(ray_session, monkeypatch):
    """The exchange width comes from one driver-side scaled_buckets()
    call at build time, never from the workers."""
    import ray.data as rd

    calls = []

    def fake_width():
        calls.append(1)
        return 3

    monkeypatch.setattr(shuffle, "scaled_buckets", fake_width)
    tab = pa.table({"k": pa.array(np.arange(60) % 11, pa.int64())})
    ds = shuffle.bucket_reduce(
        rd.from_arrow(tab),
        "k",
        lambda g: pa.table({"n_keys": pa.array([len(set(g["k"].to_pylist()))])}),
    )
    assert len(calls) == 1
    out = ds.to_pandas()
    assert len(calls) == 1
    assert len(out) <= 3 and out["n_keys"].sum() == 11


def test_bucket_reduce_width_grows_past_reducer_bytes(ray_session, monkeypatch):
    """The width is ``scaled_buckets()`` raised to ceil(input bytes /
    ``REDUCER_BYTES``), so one reducer's bucket stays bounded as the
    input grows: 32 KB over 4 KB per reducer is 8 reducers, not 2."""
    import ray.data as rd

    monkeypatch.setattr(shuffle, "scaled_buckets", lambda: 2)
    monkeypatch.setattr(shuffle, "REDUCER_BYTES", 4 << 10)
    ds = rd.from_arrow([pa.table({"k": pa.array(np.arange(i, i + 512) % 997, pa.int64())})
                        for i in range(0, 4096, 512)])
    out = shuffle.bucket_reduce(ds, "k", lambda g: pa.table(
        {"n": [g.num_rows], "keys": [len(set(g["k"].to_pylist()))]})).to_pandas()
    assert len(out) == 8
    assert out["n"].sum() == 4096 and out["keys"].sum() == 997


# --- bucket_reduce over several inputs -------------------------------------

def _co_inputs(kind: str) -> tuple:
    """Two inputs keyed like ``_keyed_table(kind)`` whose other column
    names collide (``rid`` int64 vs string, ``v`` float64 vs int32).
    Input 1 holds every third key only, so many buckets hold no input-1
    row. Each is split over several blocks with rowless blocks between."""
    import ray.data as rd

    t0, key = _keyed_table(kind)
    keys = [key] if isinstance(key, str) else key
    t0 = t0.append_column("v", pa.array(np.arange(t0.num_rows) * 0.5))
    t1, _ = _keyed_table(kind, reps=2)
    t1 = t1.filter(pa.array(np.arange(t1.num_rows) % 3 == 0))
    t1 = t1.set_column(t1.schema.get_field_index("rid"), "rid",
                       pa.array([f"r{i}" for i in range(t1.num_rows)]))
    t1 = t1.append_column("v", pa.array(np.arange(t1.num_rows), pa.int32()))

    def blocks(t, n):
        out = [t.slice(0, 0)]
        for i in range(0, t.num_rows, n):
            out += [t.slice(i, n), t.slice(0, 0)]
        return rd.from_arrow(out)

    return (t0, t1), (blocks(t0, 250), blocks(t1, 70)), key, keys


@pytest.mark.parametrize("kind", ["int64", "uint64_high", "string", "pair"])
def test_bucket_reduce_co_partitions_several_inputs(ray_session, monkeypatch, kind):
    """Every key's rows from every input reach one ``fn`` call; each
    table holds only its own input's columns and types, and an input
    with no rows in a bucket arrives as a zero-row table. 64 buckets,
    so that some bucket holds no input-1 row."""
    import pandas as pd

    monkeypatch.setattr(shuffle, "scaled_buckets", lambda: 64)
    tabs, inputs, key, keys = _co_inputs(kind)

    def per_group(t0: pa.Table, t1: pa.Table) -> pa.Table:
        # input 0 holds every key, so it has rows in every call; the
        # call is named by its smallest input-0 row id
        same = t0.schema == tabs[0].schema and t1.schema == tabs[1].schema
        parts = []
        for side, t in enumerate((t0, t1)):
            n = t.select(keys).to_pandas().groupby(keys, sort=False).size()
            parts.append(n.reset_index(name="n").assign(side=side))
        return shuffle.from_pandas_clean(pd.concat(parts, ignore_index=True).assign(
            call=int(np.min(t0["rid"].to_numpy())), t1_rows=t1.num_rows, same=same))

    out = shuffle.bucket_reduce(list(inputs), key, per_group).to_pandas()
    assert out["same"].all()
    assert (out.groupby(keys)["call"].nunique() == 1).all()
    for side, t in enumerate(tabs):
        want = t.select(keys).to_pandas().groupby(keys).size()
        got = out[out["side"] == side].groupby(keys)["n"].sum()
        assert got.sort_index().to_dict() == want.sort_index().to_dict()
    assert out["call"].nunique() > 1
    assert (out["t1_rows"] == 0).any()  # a bucket with no input-1 row


def test_bucket_reduce_rejects_differing_key_types(ray_session):
    import ray.data as rd

    a = rd.from_arrow(pa.table({"k": pa.array([1, 2], pa.int64())}))
    b = rd.from_arrow(pa.table({"k": pa.array([1, 2], pa.int32())}))
    with pytest.raises(TypeError, match="differ"):
        shuffle.bucket_reduce([a, b], "k", lambda t0, t1: t0)


def test_bucket_reduce_all_null_key_type_matches_any(ray_session, monkeypatch):
    """An input typed from an all-null first block (key type
    ``pa.null()``) co-partitions with an int64 input: no ``TypeError``,
    each key's rows from both inputs reach one call, and every null key
    lands in one call. 64 buckets, so keys 1, 2 and 3 reach different
    calls."""
    import ray.data as rd

    monkeypatch.setattr(shuffle, "scaled_buckets", lambda: 64)
    a = rd.from_arrow([pa.table({"k": pa.nulls(2), "v": [1, 2]}),
                       pa.table({"k": pa.array([1, 2], pa.int64()), "v": [3, 4]})])
    b = rd.from_arrow(pa.table({"k": pa.array([1, 2, 3], pa.int64()), "w": [5, 6, 7]}))

    def fn(t0: pa.Table, t1: pa.Table) -> pa.Table:
        keys = sorted({k for k in t0["k"].to_pylist() + t1["k"].to_pylist() if k is not None})
        return pa.table({"keys": [str(keys)], "n0": [t0.num_rows], "n1": [t1.num_rows],
                         "nulls": [t0["k"].null_count]})

    out = shuffle.bucket_reduce([a, b], "k", fn).to_pandas()
    calls = {(k, n0, n1, nulls) for k, n0, n1, nulls in zip(*map(out.get, out.columns))}
    assert calls == {("[1]", 1, 1, 0), ("[2]", 1, 1, 0), ("[3]", 0, 1, 0), ("[]", 2, 0, 2)}


def test_bucket_reduce_takes_pandas_block_inputs(ray_session, monkeypatch):
    """An input held as pandas blocks reaches ``fn`` as Arrow, typed.
    64 buckets, so that key 1 shares no bucket with keys 2 and 3."""
    import pandas as pd
    import ray.data as rd

    monkeypatch.setattr(shuffle, "scaled_buckets", lambda: 64)
    a = rd.from_pandas(pd.DataFrame({"k": [1, 2, 2], "s": ["x", "y", "z"]}))
    b = rd.from_arrow(pa.table({"k": pa.array([2, 3], pa.int64())}))
    out = shuffle.bucket_reduce([a, b], "k", lambda t0, t1: t0.append_column(
        "n1", pa.array(np.full(t0.num_rows, t1.num_rows, np.int64)))).to_pandas()
    assert sorted(zip(out["k"], out["s"], out["n1"])) == [(1, "x", 0), (2, "y", 1), (2, "z", 1)]
    # a string key held in pandas blocks is typed from its data (string),
    # so it co-partitions with an Arrow string key
    c = rd.from_pandas(pd.DataFrame({"s": ["x", "y", "z"], "n": [1, 2, 3]}))
    d = rd.from_arrow(pa.table({"s": pa.array(["y", "w"])}))
    both = shuffle.bucket_reduce([c, d], "s", lambda t0, t1: t0.append_column(
        "matches", pa.array([t1["s"].to_pylist().count(v) for v in t0["s"].to_pylist()],
                            pa.int64())))
    assert both.schema().base_schema.field("s").type == pa.string()
    out = both.to_pandas()
    assert sorted(zip(out["s"], out["n"], out["matches"])) == [("x", 1, 0), ("y", 2, 1),
                                                               ("z", 3, 0)]


def test_bucket_reduce_types_each_input_as_its_blocks_unified(ray_session, monkeypatch):
    """An input whose blocks type a column differently (all-null in one
    block) reaches every ``fn`` call with the blocks' unified type, so
    the result's blocks agree: each split task sends every reducer a
    piece, zero-row ones included. 64 buckets, so keys 1 and 2 reach
    different calls, and one split task per block, so no split task
    sees both types."""
    import ray
    import ray.data as rd

    monkeypatch.setattr(shuffle, "scaled_buckets", lambda: 64)
    monkeypatch.setattr(shuffle, "PIECE_BYTES", 1)
    ds = rd.from_arrow([pa.table({"k": pa.array([1], pa.int64()), "v": pa.nulls(1)}),
                        pa.table({"k": pa.array([2], pa.int64()), "v": pa.array([5])})])
    out = shuffle.bucket_reduce(ds, "k", lambda g: g)
    blocks = ray.get(shuffle.collect_refs(out))
    assert len(blocks) == 2
    assert all(b.schema.field("v").type == pa.int64() for b in blocks)


def test_bucket_reduce_on_empty_inputs_is_fns_typed_result(ray_session):
    """With no row in any input, the result is ``fn``'s typed zero-row
    output, never a schema-less Dataset; an input with no schema at all
    arrives as a zero-row, zero-column table."""
    import ray.data as rd

    tab, _ = _keyed_table("string")
    typed = rd.from_arrow([tab.slice(0, 0)] * 3)
    schemaless = rd.from_arrow(tab).filter(lambda r: False).map_batches(
        lambda b: b, batch_format="pyarrow")
    out_schema = pa.schema([("n0", pa.int64()), ("cols1", pa.string())])
    seen = []

    def fn(t0: pa.Table, t1: pa.Table) -> pa.Table:
        seen.append((t0.schema, t1.schema, t0.num_rows + t1.num_rows))
        return out_schema.empty_table()

    out = shuffle.bucket_reduce([typed, schemaless], "k", fn).materialize()
    assert seen == [(tab.schema, pa.schema([]), 0)]
    assert out.count() == 0
    assert out.schema().base_schema == out_schema


def test_bucket_reduce_runs_each_input_once_and_one_input_lazily(ray_session, tmp_path):
    """Several inputs: each input's plan runs once (its types come from
    its blocks, not a ``LimitOperator[limit=1]`` rerun). One input: its
    plan runs exactly once, when the call is made, and the result's
    ``count()``, ``schema()`` and a second ``to_pandas()`` run nothing
    more."""
    import ray.data as rd

    log = tmp_path / "calls"

    def tag(b: pa.Table) -> pa.Table:
        with open(log, "a") as f:
            f.write("x")
        return b.rename_columns(["k"])

    def plan():
        return rd.range(40, override_num_blocks=4).map_batches(tag, batch_format="pyarrow")

    one = shuffle.bucket_reduce(plan(), "k", lambda g: g)
    assert log.read_text() == "xxxx"
    assert one.count() == 40 and one.schema().names == ["k"]
    assert sorted(one.to_pandas()["k"]) == list(range(40))
    assert sorted(one.to_pandas()["k"]) == list(range(40))
    assert log.read_text() == "xxxx"
    log.unlink()
    other = rd.from_arrow(pa.table({"k": pa.array([3, 5], pa.int64())}))
    both = shuffle.bucket_reduce([plan(), other], "k", lambda t0, t1: t0.append_column(
        "n1", pa.array(np.full(t0.num_rows, t1.num_rows, np.int64))))
    assert log.read_text() == "xxxx"
    assert both.count() == 40 and log.read_text() == "xxxx"


def test_bucket_reduce_one_input_is_typed_as_fns_output(ray_session):
    """One input: over typed zero-row blocks the result is ``fn``'s
    typed zero-row output; over rows, every block is an ``fn`` output
    (no bucket without rows leaves a block), and an input with no
    schema at all gives an empty result without calling ``fn``."""
    import ray
    import ray.data as rd

    tab, _ = _keyed_table("int64")
    out_schema = pa.schema([("k", pa.int64()), ("n", pa.int64())])

    def count(g: pa.Table) -> pa.Table:
        assert g.schema == tab.schema
        keys, n = np.unique(g["k"].to_numpy(), return_counts=True)
        return pa.table({"k": keys, "n": n}, schema=out_schema)

    empty = shuffle.bucket_reduce(rd.from_arrow([tab.slice(0, 0)] * 3), "k", count)
    assert empty.count() == 0
    assert empty.schema().base_schema == out_schema
    full = shuffle.bucket_reduce(
        rd.from_arrow([tab.slice(i, 100) for i in range(0, tab.num_rows, 100)]),
        "k", count)
    blocks = ray.get(shuffle.collect_refs(full))
    assert len(blocks) > 1 and all(b.schema == out_schema for b in blocks)
    assert sum(b.num_rows for b in blocks) == 300
    schemaless = rd.from_arrow(tab).filter(lambda r: False).map_batches(
        lambda b: b, batch_format="pyarrow")
    assert shuffle.bucket_reduce(schemaless, "k", count).count() == 0


def _rss_anon_kb() -> int:
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("RssAnon:"))


def test_bucket_reduce_keeps_pieces_out_of_the_driver_heap(ray_session, monkeypatch):
    """256 input blocks of 160 KB (41 MB) through 8 reducers: each
    block alone would split into 20 KB pieces, under Ray's 100 KB
    inline limit, and every such piece is held in the heap of its
    owner, the driver. Split tasks group blocks to ``PIECE_BYTES`` per
    reducer, so the driver's anonymous memory stays far below the
    bytes exchanged. Measured on 1 CPU: +5 MB on a first run, +1.5 MB
    on a second; +155 MB and +92 MB with one split task per block."""
    import threading

    import ray.data as rd

    monkeypatch.setattr(shuffle, "scaled_buckets", lambda: 8)
    ds = rd.range(256 * 10_000, override_num_blocks=256).map_batches(
        lambda b: {"k": b["id"] % 1000, "v": b["id"]}).materialize()
    peak, done = [0], threading.Event()

    def sample():
        while not done.is_set():
            peak[0] = max(peak[0], _rss_anon_kb())
            done.wait(0.002)

    base = _rss_anon_kb()
    sampler = threading.Thread(target=sample)
    sampler.start()
    try:
        out = shuffle.bucket_reduce(ds, "k", lambda g: pa.table({"n": [g.num_rows]}))
    finally:
        done.set()
        sampler.join()
    assert sum(out.to_pandas()["n"]) == 256 * 10_000
    growth_mb = (peak[0] - base) / 1024
    assert growth_mb < 24, growth_mb


# --- fold ------------------------------------------------------------------

_OPS = {"lo": "min", "hi": "max"}  # "n" and "total" default to sum


def _fold_schema(kind: str) -> pa.Schema:
    key_fields = {
        "int64": [("k", pa.int64())],
        "uint64_high": [("k", pa.uint64())],
        "string": [("k", pa.string())],
        "pair": [("k", pa.int64()), ("k2", pa.string())],
    }[kind]
    return pa.schema(
        key_fields
        + [(c, pa.int64()) for c in ("n", "total", "lo", "hi")]
    )


def _fold_rows(kind: str) -> tuple:
    tab, key = _keyed_table(kind, n_keys=200, reps=5)
    rid = tab["rid"].to_numpy()
    vals = (rid * 7919) % 1009 - 500  # negative and positive values
    tab = tab.drop_columns(["rid"])
    for c, v in (("n", np.ones(len(rid), np.int64)), ("total", vals),
                 ("lo", vals), ("hi", vals)):
        tab = tab.append_column(c, pa.array(v, pa.int64()))
    return tab, key


def _pandas_fold(tab: pa.Table, keys: list) -> list:
    out = (
        tab.to_pandas()
        .groupby(keys)
        .agg(n=("n", "sum"), total=("total", "sum"), lo=("lo", "min"),
             hi=("hi", "max"))
        .reset_index()
        .sort_values(keys)
    )
    return out.to_dict("records")


_KINDS = ["int64", "uint64_high", "string", "pair"]


# each key kind folded in one chunk (the partials are far below
# FOLD_DRIVER_ROWS), and one block per chunk, forced by a 0-row limit
@pytest.mark.parametrize(
    "kind,chunked",
    [pytest.param(k, False, id=k) for k in _KINDS]
    + [pytest.param(k, True, id=f"chunked-{k}") for k in _KINDS],
)
def test_fold_matches_pandas_fold(ray_session, monkeypatch, kind, chunked):
    import ray.data as rd

    if chunked:
        monkeypatch.setattr(shuffle, "FOLD_DRIVER_ROWS", 0)
    tab, key = _fold_rows(kind)
    keys = [key] if isinstance(key, str) else key
    schema = _fold_schema(kind)
    # several blocks, with empty blocks between them
    empty = tab.slice(0, 0)
    blocks = []
    for i in range(0, tab.num_rows, 250):
        blocks += [tab.slice(i, 250), empty]
    out = shuffle.fold(rd.from_arrow([empty] + blocks), key, schema, _OPS)

    assert out.schema == schema
    got = out.to_pylist()
    assert got == _pandas_fold(tab, keys)
    # sorted by the key columns
    key_rows = [tuple(r[k] for k in keys) for r in got]
    assert key_rows == sorted(key_rows)
    assert len(got) == 200


def test_fold_zero_rows_is_a_typed_empty(ray_session):
    import ray.data as rd

    tab, key = _fold_rows("string")
    schema = _fold_schema("string")
    out = shuffle.fold(rd.from_arrow([tab.slice(0, 0)] * 3), key, schema, _OPS)
    assert out.num_rows == 0
    assert out.schema == schema
    filtered = rd.from_arrow(tab).filter(lambda r: False)
    assert shuffle.fold(filtered, key, schema).schema == schema


def test_fold_refolds_combined_batches(ray_session):
    """A producer that already combines its batch (a broadcast stage
    with its own per-batch groupby) folds to the same answer."""
    import ray.data as rd

    tab, key = _fold_rows("int64")
    schema = _fold_schema("int64")

    def combine(b: pa.Table) -> pa.Table:
        part = (
            b.to_pandas().groupby("k", sort=False)
            .agg(n=("n", "sum"), total=("total", "sum"), lo=("lo", "min"),
                 hi=("hi", "max"))
            .reset_index()
        )
        return shuffle.from_pandas_clean(part)

    ds = rd.from_arrow([tab.slice(i, 300) for i in range(0, tab.num_rows, 300)])
    out = shuffle.fold(ds.map_batches(combine, batch_format="pyarrow"), key,
                       schema, _OPS)
    assert out.to_pylist() == _pandas_fold(tab, ["k"])


def test_fold_holds_at_most_the_row_limit(ray_session, monkeypatch):
    """The driver fetches and folds the partials in chunks of at most
    FOLD_DRIVER_ROWS rows: one chunk when they fit, several when they
    do not. Every key is distinct, so the partials have exactly one row
    per input row however Ray batches."""
    import ray.data as rd

    tab, key = _fold_rows("int64")
    tab = tab.set_column(0, "k", pa.array(np.arange(tab.num_rows), pa.int64()))
    ds = rd.from_arrow([tab.slice(i, 250) for i in range(0, tab.num_rows, 250)])
    schema = _fold_schema("int64")
    chunk_rows = []
    real = shuffle.block_tables

    def spy(tabs, col):
        chunk_rows.append(sum(t.num_rows for t in tabs))
        return real(tabs, col)

    monkeypatch.setattr(shuffle, "block_tables", spy)
    want = _pandas_fold(tab, ["k"])
    for limit in (tab.num_rows, tab.num_rows - 1):
        chunk_rows.clear()
        monkeypatch.setattr(shuffle, "FOLD_DRIVER_ROWS", limit)
        assert shuffle.fold(ds, key, schema, _OPS).to_pylist() == want
        assert sum(chunk_rows) == tab.num_rows
        assert max(chunk_rows) <= limit, (limit, chunk_rows)
        assert (len(chunk_rows) == 1) == (limit == tab.num_rows), chunk_rows


def test_flagship_merges_without_an_exchange(ray_session, monkeypatch, tmp_path):
    """The flagship's per-cell merge is a driver fold: no bucket
    exchange runs."""
    from raycells.engine import pipeline
    from raycells.io import docsource

    docsource.generate_interleaved_docs(str(tmp_path), 60, n_fragments=2)
    calls = []
    real = shuffle.bucket_reduce

    def spy(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(shuffle, "bucket_reduce", spy)
    cells = pipeline.flagship(str(tmp_path)).to_pandas()
    assert len(cells) > 0 and calls == []


def test_collect_refs_runs_the_plan_once(ray_session, tmp_path):
    """collect_refs executes a lazy Dataset's plan once: every block's
    UDF call is logged once, and the refs are the Arrow blocks. A lazy
    ``to_arrow_refs()`` logs more (its schema fetch reruns the plan)."""
    import ray
    import ray.data as rd

    log = tmp_path / "calls"

    def tag(b: pa.Table) -> pa.Table:
        with open(log, "a") as f:
            f.write("x")
        return b

    def plan():
        return rd.range(40, override_num_blocks=4).map_batches(
            tag, batch_format="pyarrow"
        )

    tabs = ray.get(shuffle.collect_refs(plan()))
    assert log.read_text() == "xxxx"
    assert sorted(v for t in tabs for v in t["id"].to_pylist()) == list(range(40))
    log.unlink()
    plan().to_arrow_refs()
    assert len(log.read_text()) > 4  # the double execution collect_refs avoids


def test_fold_rejects_unknown_op(ray_session):
    import ray.data as rd

    tab, key = _fold_rows("int64")
    with pytest.raises(ValueError, match="mean"):
        shuffle.fold(rd.from_arrow(tab), key, _fold_schema("int64"),
                     {"total": "mean"})
    with pytest.raises(ValueError, match="mean"):
        shuffle.aggregate(rd.from_arrow(tab), key, _fold_schema("int64"),
                          {"total": "mean"})


# --- aggregate -------------------------------------------------------------

def _salted_rows(kind: str) -> tuple:
    """``_fold_rows`` plus a ``doc_id`` salt column that varies within
    each key, so a salt > 1 splits keys map-side."""
    tab, key = _fold_rows(kind)
    docs = [f"doc-{i % 37}" for i in range(tab.num_rows)]
    return tab.append_column("doc_id", pa.array(docs, pa.string())), key


@pytest.mark.parametrize(
    "kind,salt",
    [pytest.param(k, s, id=f"{k}-salt{s}") for k in _KINDS for s in (1, 8, "auto")],
)
def test_aggregate_matches_fold_and_pandas(ray_session, kind, salt):
    import ray
    import ray.data as rd

    tab, key = _salted_rows(kind)
    keys = [key] if isinstance(key, str) else key
    schema = _fold_schema(kind)
    empty = tab.slice(0, 0)
    blocks = [empty]
    for i in range(0, tab.num_rows, 250):
        blocks += [tab.slice(i, 250), empty]
    ds = rd.from_arrow(blocks)

    out = shuffle.aggregate(ds, key, schema, _OPS, salt=salt)
    tabs = [t for t in ray.get(shuffle.collect_refs(out)) if t.num_rows]
    assert tabs and all(t.schema == schema for t in tabs)
    got = sorted(pa.concat_tables(tabs).to_pylist(),
                 key=lambda r: tuple(r[k] for k in keys))
    assert got == _pandas_fold(tab, keys)
    assert got == shuffle.fold(ds, key, schema, _OPS).to_pylist()


def test_aggregate_salt_splits_only_map_side_partials():
    """The salt multiplies a key's map-side partial rows; the reducer's
    combine over ``keys`` alone folds them back to one row per key."""
    tab, key = _salted_rows("int64")
    keys, spec = shuffle._spec(key, _fold_schema("int64"), _OPS)
    unsalted = shuffle._partial(tab, keys, spec)
    salted = shuffle._partial(tab, keys, spec, salt=8)
    assert unsalted.num_rows == 200
    assert salted.num_rows > 2 * unsalted.num_rows
    assert salted.column_names == unsalted.column_names
    refolded = shuffle.combine(salted.to_pandas(), keys, spec)
    assert (refolded.sort_values("k").to_dict("records")
            == unsalted.to_pandas().sort_values("k").to_dict("records"))
    # no salt column in the batch: no split
    no_doc = tab.drop_columns(["doc_id"])
    assert shuffle._partial(no_doc, keys, spec, salt=8).num_rows == 200


# --- source scan ---------------------------------------------------------

def _sources():
    for p in sorted(ROOT.rglob("*.py")):
        yield p.relative_to(ROOT).as_posix(), p.read_text()


# Driver folds that are not a sum/min/max, so shuffle.fold cannot express
# them: first/last by time (q_event_ohlc) and an XOR with a first-by-hash
# (q_shuffle_shards); the XOR, HLL-register and CC-forest folds live in
# whole files.
_FOLD_FILES = {"engine/shuffle.py", "engine/driver.py", "sim/sketch.py",
               "sim/hll.py", "engine/cc.py"}
_FOLD_FUNCS = {"q_event_ohlc", "q_shuffle_shards"}
_FOLD_ATTRS = {"sum", "agg", "aggregate", "min", "max"}
_NESTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _receiver_chain(node):
    """``node`` and every receiver under it: a.b(x)[c].d() → the call,
    its attribute, the subscript, ... down to the name ``a``."""
    while True:
        yield node
        if isinstance(node, ast.Call):
            node = node.func
        elif isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        else:
            return


def _is_dataset_to_pandas(node) -> bool:
    """A ``.to_pandas()`` call whose receiver is not a parquet file read
    straight into a ``pa.Table`` (``pq.read_table(...)``)."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "to_pandas"
        and not node.args
        and not any(
            isinstance(n, ast.Attribute) and n.attr == "read_table"
            for n in _receiver_chain(node.func.value)
        )
    )


def _function_level(fn):
    """Nodes of ``fn``'s own body; nested functions (map-side UDFs and
    per-bucket reducers, whose ``to_pandas`` is on a block) are skipped.
    A lambda's body is its one expression."""
    body = fn.body if isinstance(fn.body, list) else [fn.body]
    stack = [n for n in body if not isinstance(n, _NESTED)]
    while stack:
        n = stack.pop()
        yield n
        stack.extend(c for c in ast.iter_child_nodes(n) if not isinstance(c, _NESTED))


def _driver_fold_sites(tree) -> list:
    """Module-level functions where a function-level ``to_pandas()``
    result (directly, or through a name bound to it) feeds
    ``.groupby(...)`` followed by ``.sum()/.agg()/.min()/.max()``."""
    sites = []
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        nodes = list(_function_level(fn))
        names = {
            t.id
            for n in nodes
            if isinstance(n, ast.Assign)
            and any(_is_dataset_to_pandas(c) for c in _receiver_chain(n.value))
            for t in n.targets
            if isinstance(t, ast.Name)
        }
        for n in nodes:
            if not (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                    and n.func.attr in _FOLD_ATTRS):
                continue
            gb = [
                c for c in _receiver_chain(n.func.value)
                if isinstance(c, ast.Call) and isinstance(c.func, ast.Attribute)
                and c.func.attr == "groupby"
            ]
            if gb and any(
                _is_dataset_to_pandas(c) or (isinstance(c, ast.Name) and c.id in names)
                for c in _receiver_chain(gb[0].func.value)
            ):
                sites.append(fn.name)
                break
    return sites


def test_driver_fold_scan_sees_hand_rolled_folds():
    """The scan below is not vacuous: both spellings of a hand-rolled
    fold are found, block-level folds inside UDFs are not."""
    src = """
def direct(ds):
    return ds.map_batches(f).to_pandas().groupby("k", sort=False).sum()

def named(ds):
    parts = ds.map_batches(f).to_pandas()
    return parts.groupby(["k", "d"])["n"].agg("sum")

def udf_only(ds):
    def partial(b):
        return b.to_pandas().groupby("k").sum()
    return fold(ds.map_batches(partial), "k", schema)

def table_read(path):
    return pq.read_table(path).to_pandas().groupby("k").sum()
"""
    assert _driver_fold_sites(ast.parse(src)) == ["direct", "named"]


# Map UDFs and reducers whose pandas group-by aggregate is not the
# aggregate spec's, each with the reason it stays hand-rolled.
_REDUCER_AGG_SITES = {
    # per-order pre-combine ahead of hash_join: the join needs the rows
    "pipelines/queries.py:q_priority_revenue.combine_items",
    # per-(doc, token) term frequency ahead of document frequency and
    # scoring; both read the same materialized pairs
    "pipelines/queries.py:q_tfidf_terms.doc_term_counts",
    # per-order last shipdate, finished inside the co-partitioned join
    # with orders (one exchange for the max and the join)
    "pipelines/queries.py:q_fulfillment_lag.li_part",
    "pipelines/queries.py:q_fulfillment_lag.lag_hist",
    # per-type (n, Σx, Σx²) that the driver sums in Python ints: Σx² of
    # cent values passes int64, which an int64 fold sum would wrap
    "pipelines/queries.py:q_value_outliers.moments",
    # (hash, shard) counts ahead of a reducer that takes each hash's min
    # shard: one exchange finishes the counts and the min
    "pipelines/queries.py:q_ngram_novelty.partials",
    # (part, month) sums ahead of the per-part lag reducer, which
    # finishes the sums in the same exchange
    "pipelines/queries.py:q_demand_features.monthly",
    # (part, supplier) counts ahead of the per-part top-supplier reducer
    "pipelines/queries.py:q_sourcing_concentration.counts",
    # per-user reducer that joins purchases to the user's first click
    "pipelines/queries.py:q_ordered_funnel.funnel",
}
_REDUCER_AGG_ATTRS = _FOLD_ATTRS | {"size"}
# a function that also sorts, windows, dedups or ranks is more than an
# aggregate
_ORDER_ATTRS = {"sort_values", "sort_index", "sort_by", "sort", "argsort", "lexsort",
                "searchsorted", "drop_duplicates", "duplicated", "unique", "cumcount",
                "cumsum", "rank", "shift", "diff", "rolling", "transform", "nlargest",
                "nsmallest"}


def _is_groupby(node) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "groupby")


def _reducer_aggregate_sites(tree) -> list:
    """``outer.inner`` for every function or lambda nested in a
    module-level function or class (map UDFs, reducers) whose own body
    runs a pandas ``groupby(...)`` → sum/min/max/size/agg and no sort,
    window, dedup or rank."""
    sites = []
    for top in tree.body:
        if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            continue
        for fn in ast.walk(top):
            if fn is top or not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
                continue
            nodes = list(_function_level(fn))
            calls = [n for n in nodes
                     if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)]
            # names bound to a groupby: ``g = df.groupby(k)``, then ``g.max()``
            names = {t.id for n in nodes if isinstance(n, ast.Assign)
                     and any(map(_is_groupby, _receiver_chain(n.value)))
                     for t in n.targets if isinstance(t, ast.Name)}
            grouped = any(
                n.func.attr in _REDUCER_AGG_ATTRS and any(
                    _is_groupby(c) or (isinstance(c, ast.Name) and c.id in names)
                    for c in _receiver_chain(n.func.value))
                for n in calls
            )
            if grouped and not any(n.func.attr in _ORDER_ATTRS for n in calls):
                sites.append(f"{top.name}.{getattr(fn, 'name', '<lambda>')}")
    return sites


def test_reducer_scan_sees_hand_rolled_aggregates():
    """The reducer scan below is not vacuous: a map-side pandas
    pre-combine, a reducer that re-combines it, a lambda UDF and a
    group-by bound to a name are found; reducers that also sort, dedup or rank, and module-level
    functions, are not."""
    src = """
def hist(ds):
    def tile_hists(b):
        df = pd.DataFrame({"cell": cells(b), "n": ones(b)})
        return from_pandas_clean(df.groupby("cell", sort=False).sum().reset_index())

    def combine(g):
        return g.to_pandas().groupby("cell", sort=False).agg({"n": "sum"})

    return bucket_reduce(ds.map_batches(tile_hists), "cell", combine)

def counts(ds):
    return ds.map_batches(lambda b: b.to_pandas().groupby("k").size())

def named(ds):
    def blend(b):
        g = b.to_pandas().groupby("cell", sort=False)
        part = g.max()
        part["n"] = g.size()
        return part
    return ds.map_batches(blend)

def windowed(ds):
    def latest(g):
        df = g.to_pandas().sort_values(["u", "t"])
        return df.groupby("u").max()

    def dedup(g):
        return g.to_pandas().drop_duplicates("k").groupby("k").sum()

    def ranked(g):
        df = g.to_pandas()
        df["r"] = df.groupby("k").cumcount()
        return df.groupby("k").min()

    return bucket_reduce(ds, "u", latest)

def driver_level(df):
    return df.groupby("k").sum()
"""
    assert _reducer_aggregate_sites(ast.parse(src)) == [
        "hist.tile_hists", "hist.combine", "counts.<lambda>", "named.blend"]


def test_reducer_aggregates_use_the_spec():
    """Every map UDF or reducer whose only group-by work is a pandas
    sum/min/max/size/agg is ``shuffle.fold`` / ``shuffle.aggregate``
    instead, except the named sites."""
    sites = {
        f"{rel}:{name}"
        for rel, text in _sources()
        for name in _reducer_aggregate_sites(ast.parse(text))
    }
    assert sites == _REDUCER_AGG_SITES


def _arrow_ref_sites(tree) -> list:
    """Functions (outermost name) that call ``.to_arrow_refs()``."""
    sites = []
    for fn in tree.body:
        for n in ast.walk(fn):
            if (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                    and n.func.attr == "to_arrow_refs"):
                sites.append(getattr(fn, "name", "<module>"))
    return sites


def test_collects_go_through_collect_refs():
    """A lazy ``to_arrow_refs()`` runs its plan twice, so every block
    collect goes through shuffle.collect_refs, the one caller of it."""
    src = """
def direct(ds):
    return [ray.get(r) for r in ds.to_arrow_refs()]

def nested(ds):
    def inner():
        return ds.map_batches(f).to_arrow_refs()
    return inner()

def helper(ds):
    return collect_refs(ds)
"""
    assert _arrow_ref_sites(ast.parse(src)) == ["direct", "nested"]
    sites = [
        f"{rel}:{name}"
        for rel, text in _sources()
        for name in _arrow_ref_sites(ast.parse(text))
    ]
    assert sites == ["engine/shuffle.py:collect_refs"]


# ``.union(`` sites: no Dataset union of differently-typed inputs (the
# co-partitioned exchange takes several inputs instead). Each site below
# unions inputs of one schema, so nothing is null-padded:
# - run_diff_job and q_snapshot_diff: the two fingerprinted snapshots
#   with a ``side`` label column, which ``diff_classify`` reads as data;
# - q_fuzzy_token_match: the vocabulary fanned out twice, label-tagged
#   probe and word variants of one schema.
# The other two are not Datasets: a Python set union (lsh_topk) and a
# cell-type union (CellValue).
_UNION_SITES = {"engine/driver.py:run_diff_job",
                "pipelines/queries.py:q_snapshot_diff",
                "pipelines/queries.py:q_fuzzy_token_match",
                "sim/knn.py:lsh_topk",
                "cells/ctype.py:CellValue"}
_SHUFFLE_NAMES = {"shuffle", "shuffle_mod"}


def _call_sites(tree, match) -> list:
    """Functions (outermost name) holding a call that ``match`` accepts."""
    return [
        getattr(fn, "name", "<module>")
        for fn in tree.body
        for n in ast.walk(fn)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and match(n)
    ]


def _is_ray_aggregate(call) -> bool:
    """A Ray Data aggregate: ``.aggregate(...)`` on anything but the
    shuffle module (``Dataset.aggregate``, ``groupby(...).aggregate``),
    or an argument-less ``.count()`` on a ``groupby(...)`` chain."""
    attr, recv = call.func.attr, call.func.value
    if attr == "aggregate":
        return not (isinstance(recv, ast.Name) and recv.id in _SHUFFLE_NAMES)
    return attr == "count" and not call.args and any(
        isinstance(c, ast.Call) and isinstance(c.func, ast.Attribute)
        and c.func.attr == "groupby"
        for c in _receiver_chain(recv)
    )


# Ray Data's own all-to-alls: every exchange is bucket_reduce instead.
_RAY_EXCHANGES = {"map_groups", "repartition", "random_shuffle", "sort"}


def _is_ray_exchange(call) -> bool:
    """``.map_groups(``, ``.repartition(``, ``.random_shuffle(``, or
    ``.sort(`` on anything but ``np``."""
    attr, recv = call.func.attr, call.func.value
    if attr == "sort" and isinstance(recv, ast.Name) and recv.id == "np":
        return False
    return attr in _RAY_EXCHANGES


def _is_union(call) -> bool:
    return call.func.attr == "union"


def _side_column_sites(tree) -> list:
    """Functions (outermost name) that name a ``"_side"`` column."""
    return [
        getattr(fn, "name", "<module>")
        for fn in tree.body
        for n in ast.walk(fn)
        if isinstance(n, ast.Constant) and n.value == "_side"
    ]


def test_aggregate_scan_sees_ray_data_aggregates():
    """The aggregate and exchange scans below are not vacuous: every
    Ray Data aggregate and all-to-all spelling is found; the shuffle
    executors, pandas group sizes, ``np.sort`` and ``sort_values`` are
    not."""
    src = """
def grouped_count(ds):
    return ds.groupby("k").count()

def grouped_sum(ds):
    return ds.map_batches(f).groupby(["k", "j"]).aggregate(Sum("x"))

def global_agg(ds):
    return ds.aggregate(Count(), Max("x"))

def engine(ds, df):
    part = shuffle_mod.aggregate(ds, "k", schema)
    sizes = df.groupby("k").size()
    return shuffle.aggregate(part, "k", schema), ds.count()

def per_key(ds):
    return ds.groupby("u").map_groups(f)

def coalesced(ds):
    return ds.repartition(1).map_batches(f, batch_size=None)

def shuffled(ds):
    return ds.random_shuffle(seed=0)

def ordered(ds):
    return ds.sort(["n", "k"], descending=[True, True]).limit(20)

def local(df, a):
    return np.sort(a), df.sort_values("k"), a.argsort()
"""
    tree = ast.parse(src)
    assert _call_sites(tree, _is_ray_aggregate) == [
        "grouped_count", "grouped_sum", "global_agg"]
    assert _call_sites(tree, _is_ray_exchange) == [
        "per_key", "coalesced", "shuffled", "ordered"]


def test_co_location_scan_sees_hand_rolled_tagged_unions():
    """The union and ``_side`` scans are not vacuous: a hand-rolled
    tagged union is found by both, a co-partitioned ``bucket_reduce``
    and a ``left_side`` name by neither."""
    src = """
def tagged(a, b):
    def tag_a(t):
        return t.append_column("_side", zeros(t.num_rows))
    both = a.map_batches(tag_a).union(b.map_batches(tag_b))
    return bucket_reduce(both, "_k", join)

def split(g):
    return g.filter(pc.equal(g["_side"], 0))

def co_partitioned(a, b, left_side):
    return bucket_reduce([a, b], "_k", lambda l, r: l)
"""
    tree = ast.parse(src)
    assert _call_sites(tree, _is_union) == ["tagged"]
    assert _side_column_sites(tree) == ["tagged", "split"]


def test_exchange_is_written_once():
    """Hand-rolled add_bucket → groupby → map_groups chains stay gone:
    no ``groupby("_bucket")`` anywhere (engine/shuffle.py's exchange is
    plain split and reduce tasks), the width resolution lives in
    engine/shuffle.py only, and the second bucket column is not coming
    back. Hand-rolled
    to_pandas → groupby → sum/min/max driver folds stay gone too: they
    go through shuffle.fold, except the named non-sum/min/max folds.
    Every group-by aggregate is shuffle.fold or shuffle.aggregate: no
    Ray Data aggregate and no ``salted_aggregate``. Every exchange is
    bucket_reduce: no ``.map_groups(``, ``.repartition(``,
    ``.random_shuffle(`` or non-``np`` ``.sort(`` anywhere. Co-location
    of several inputs is ``bucket_reduce``'s alone: no ``_side`` column
    anywhere, ``.union(`` only at the named same-schema sites."""
    fold_sites = []
    for rel, text in _sources():
        if rel not in _FOLD_FILES:
            fold_sites += [
                f"{rel}:{name}"
                for name in _driver_fold_sites(ast.parse(text))
                if name not in _FOLD_FUNCS
            ]
    assert fold_sites == []
    groupby_sites, width_sites, cbucket_sites = [], [], []
    for rel, text in _sources():
        for line in text.splitlines():
            if 'groupby("_bucket")' in line:
                groupby_sites.append(rel)
            if re.search(r"\bscaled_buckets\(", line) and "def scaled_buckets" not in line:
                width_sites.append(rel)
            if "_cbucket" in line:
                cbucket_sites.append(rel)
    assert groupby_sites == []
    assert set(width_sites) == {"engine/shuffle.py"}
    assert cbucket_sites == []
    text_sites = [
        f"{rel}: {word}"
        for rel, text in _sources()
        for word in ("ray.data.aggregate", "salted_aggregate")
        if word in text
    ]
    assert text_sites == []
    agg_sites, exchange_sites, union_sites, side_sites = [], [], set(), set()
    for rel, text in _sources():
        tree = ast.parse(text)
        agg_sites += [f"{rel}:{n}" for n in _call_sites(tree, _is_ray_aggregate)]
        side_sites |= {f"{rel}:{n}" for n in _side_column_sites(tree)}
        exchange_sites += [f"{rel}:{n}" for n in _call_sites(tree, _is_ray_exchange)]
        union_sites |= {f"{rel}:{n}" for n in _call_sites(tree, _is_union)}
    assert agg_sites == []
    assert exchange_sites == []
    assert union_sites == _UNION_SITES
    assert side_sites == set()

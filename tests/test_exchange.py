"""The one bucket exchange (engine/shuffle.bucket_reduce): key placement
for every key kind, the reducer's view of the group, the pinned bucket
hash, and a source scan that keeps hand-rolled exchanges out."""

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


# --- source scan ---------------------------------------------------------

def _sources():
    for p in sorted(ROOT.rglob("*.py")):
        yield p.relative_to(ROOT).as_posix(), p.read_text()


def test_exchange_is_written_once():
    """Hand-rolled add_bucket → groupby → map_groups chains stay gone:
    the bucket groupby and the width resolution live in engine/shuffle.py
    only, and the second bucket column is not coming back."""
    groupby_sites, width_sites, cbucket_sites = [], [], []
    for rel, text in _sources():
        for line in text.splitlines():
            if 'groupby("_bucket")' in line:
                groupby_sites.append(rel)
            if re.search(r"\bscaled_buckets\(", line) and "def scaled_buckets" not in line:
                width_sites.append(rel)
            if "_cbucket" in line:
                cbucket_sites.append(rel)
    assert groupby_sites == ["engine/shuffle.py"]
    assert set(width_sites) == {"engine/shuffle.py"}
    assert cbucket_sites == []

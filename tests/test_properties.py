"""Property-based tests (hypothesis) over the erased-cell core.

The reference proves these by exhaustive enumeration over its closed
10-type universe (SURVEY.md §5.1); hypothesis adds randomized value
coverage on top of our mirrored enumeration tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from raycells.cells.buffer import CellBuffer, MaskedCellBuffer
from raycells.cells.ctype import CELL_TYPES, CellType, NarrowingError, NoData

cell_types = st.sampled_from(CELL_TYPES)


def _values_for(ct: CellType, n: int, rng: np.random.Generator) -> np.ndarray:
    if ct.is_integral:
        info = np.iinfo(ct.dtype)
        return rng.integers(info.min, info.max, n, dtype=ct.dtype, endpoint=True)
    return (rng.standard_normal(n) * 1e3).astype(ct.dtype)


@given(a=cell_types, b=cell_types)
def test_union_lattice_laws(a, b):
    """Reflexivity, symmetry, absorption, can_fit_into consistency
    (ctype.rs:188-207)."""
    assert a.union(a) is a
    assert a.union(b) is b.union(a)
    u = a.union(b)
    assert a.union(u) is u and b.union(u) is u  # absorption
    assert a.can_fit_into(u) and b.can_fit_into(u)
    assert a.can_fit_into(b) == (u is b)


@given(a=cell_types, b=cell_types, seed=st.integers(0, 2**31))
@settings(max_examples=60, deadline=None)
def test_convert_widen_roundtrip(a, b, seed):
    """Widening-only convert: allowed iff can_fit_into; a widened buffer
    converts back only when the lattice permits, and values survive."""
    rng = np.random.default_rng(seed)
    buf = CellBuffer.from_vec(_values_for(a, 8, rng))
    if a.can_fit_into(b):
        wide = buf.convert(b)
        assert wide.cell_type is b
        # values preserved under widening (compare as f64 — exactness only
        # guaranteed when the destination mantissa holds the source values)
        if b is not CellType.Float32 or a.size_of <= 2:
            np.testing.assert_array_equal(
                buf.to_vec(CellType.Float64), wide.to_vec(CellType.Float64)
            )
    else:
        with pytest.raises(NarrowingError):
            buf.convert(b)


@given(ct=cell_types, seed=st.integers(0, 2**31))
@settings(max_examples=60, deadline=None)
def test_nodata_mask_roundtrip(ct, seed):
    """from_vec_with_nodata → to_vec_with_nodata is the identity on the
    sentinel positions and on the payload elsewhere (masked_buffer.rs
    round-trip, the reference's core conformance loop)."""
    rng = np.random.default_rng(seed)
    vals = _values_for(ct, 16, rng)
    sentinel = ct.default_nodata()
    # plant some sentinels
    vals[rng.integers(0, 16, 4)] = sentinel
    mb = MaskedCellBuffer.from_vec_with_nodata(vals.copy(), NoData.default())
    back = mb.to_vec_with_nodata(ct, NoData.default())
    if ct.is_integral:
        # identity round-trip (sentinel positions included)
        np.testing.assert_array_equal(back, vals)
    else:
        nanmask = np.isnan(vals)
        assert np.isnan(back[nanmask]).all()
        np.testing.assert_array_equal(back[~nanmask], vals[~nanmask])
    # mask counts agree with sentinel count
    n_bad = int((vals == sentinel).sum()) if ct.is_integral else int(np.isnan(vals).sum())
    assert mb.counts() == (16 - n_bad, n_bad)


@given(ct=cell_types, seed=st.integers(0, 2**31))
@settings(max_examples=60, deadline=None)
def test_masked_minmax_bounds(ct, seed):
    """Masked min/max never report a masked cell and bound the valid
    payload (masked_buffer.rs:208-217)."""
    rng = np.random.default_rng(seed)
    vals = _values_for(ct, 12, rng)
    if not ct.is_integral:
        vals = np.nan_to_num(vals)  # NaN payload handled by total-order pins
    mask = rng.random(12) > 0.3
    if not mask.any():
        mask[0] = True
    from raycells.cells.buffer import Mask

    mb = MaskedCellBuffer(CellBuffer.from_vec(vals.copy()), Mask(mask))
    lo, hi = mb.min_max()
    valid = vals[mask].astype(np.float64)
    assert lo.to_f64() == valid.min()
    assert hi.to_f64() == valid.max()


@given(seed=st.integers(0, 2**31))
@settings(max_examples=30, deadline=None)
def test_binop_float64_and_mask_and(seed):
    """buffer⊗buffer: result is Float64; result mask is the AND of the
    operand masks; masked payload still computed (masked_buffer.rs:323-350)."""
    rng = np.random.default_rng(seed)
    a = rng.integers(1, 100, 10).astype(np.uint16)
    b = rng.integers(1, 100, 10).astype(np.uint16)
    ma = rng.random(10) > 0.3
    mb_ = rng.random(10) > 0.3
    from raycells.cells.buffer import Mask

    out = MaskedCellBuffer(CellBuffer.from_vec(a), Mask(ma)) + MaskedCellBuffer(
        CellBuffer.from_vec(b), Mask(mb_)
    )
    assert out.buffer.cell_type is CellType.Float64
    np.testing.assert_array_equal(out.mask.data, ma & mb_)
    np.testing.assert_array_equal(
        out.buffer.data, a.astype(np.float64) + b.astype(np.float64)
    )


@given(vals=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
@settings(max_examples=60, deadline=None)
def test_popcount64_matches_int_bit_count(vals):
    """SWAR popcount == Python int.bit_count for arbitrary uint64."""
    from raycells.text.dedup import _popcount64

    arr = np.array(vals, dtype=np.uint64)
    got = _popcount64(arr)
    want = np.array([int(v).bit_count() for v in vals], dtype=np.uint8)
    np.testing.assert_array_equal(got, want)


@given(
    a=st.integers(0, 2**64 - 1),
    b=st.integers(0, 2**64 - 1),
    r=st.integers(1, 16),
)
@settings(max_examples=120, deadline=None)
def test_simhash_pigeonhole_guarantee(a, b, r):
    """If hamming(a, b) <= r, a and b share at least one exact chunk
    under simhash_chunk_params_wide(r, 64) — the recall guarantee the
    bucketing relies on. Chunks must also tile all 64 bits disjointly."""
    from raycells.text.dedup import simhash_chunk_params_wide

    params = [(s, (1 << w) - 1) for s, w in simhash_chunk_params_wide(r, 64)]
    covered = 0
    for s, m in params:
        assert covered & (m << s) == 0  # disjoint
        covered |= m << s
    assert covered == (1 << 64) - 1
    if (a ^ b).bit_count() <= r:
        assert any((a >> s) & m == (b >> s) & m for s, m in params)


@given(
    a=st.integers(0, 2**128 - 1),
    b=st.integers(0, 2**128 - 1),
    r=st.integers(1, 20),
)
@settings(max_examples=120, deadline=None)
def test_simhash128_pigeonhole_guarantee(a, b, r):
    """The 128-bit chunking must tile all 128 bits disjointly and keep
    the pigeonhole recall guarantee: hamming(a, b) <= r ⟹ a and b share
    at least one exact chunk — including chunks straddling the lane
    boundary (extract_chunk128 stitches the lanes)."""
    from raycells.text.dedup import extract_chunk128, simhash_chunk_params_wide

    params = simhash_chunk_params_wide(r)
    covered = 0
    for lo, w in params:
        m = ((1 << w) - 1) << lo
        assert covered & m == 0  # disjoint
        covered |= m
    assert covered == (1 << 128) - 1

    def lanes(x):
        return (
            np.array([x & ((1 << 64) - 1)], dtype=np.uint64),
            np.array([x >> 64], dtype=np.uint64),
        )

    la, ha = lanes(a)
    lb, hb = lanes(b)
    # the vectorized extraction must agree with plain integer bit math
    for lo, w in params:
        assert int(extract_chunk128(la, ha, lo, w)[0]) == (a >> lo) & ((1 << w) - 1)
    if (a ^ b).bit_count() <= r:
        assert any(
            int(extract_chunk128(la, ha, lo, w)[0])
            == int(extract_chunk128(lb, hb, lo, w)[0])
            for lo, w in params
        )


@given(
    x=st.floats(
        min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
    )
)
@settings(max_examples=80, deadline=None)
def test_half_up_matches_duckdb_floor_recipe(x):
    """_half_up evaluates the identical IEEE tree as the oracle-side
    FLOOR(x + 0.5) — the cross-engine rounding recipe."""
    import duckdb

    from raycells.pipelines.queries import _half_up

    got = float(_half_up(np.float64(x)))
    want = duckdb.sql(f"SELECT FLOOR(CAST({x!r} AS DOUBLE) + 0.5)").fetchone()[0]
    assert got == want


@given(
    toks=st.lists(
        st.text(alphabet="abcdefg", min_size=1, max_size=6), min_size=0, max_size=30
    ),
    w=st.integers(2, 8),
)
@settings(max_examples=60, deadline=None)
def test_window_hashes_match_naive(toks, w):
    """window_hashes == the scalar definition Σ token_fp·31^i mod 2^64
    for arbitrary token sequences and window widths."""
    from raycells.text.analysis import fingerprint64, window_hashes

    text = " ".join(toks)
    got = window_hashes(text, w)
    toks2 = text.split(" ")  # includes the '' token for empty text
    if len(toks2) < w:
        assert got.size == 0
        return
    fps = fingerprint64(toks2)
    want = [
        sum(int(fps[s + i]) * 31**i for i in range(w)) % 2**64
        for s in range(len(toks2) - w + 1)
    ]
    assert [int(x) for x in got] == want


@given(
    edges=st.lists(
        st.tuples(st.integers(0, 14), st.integers(0, 14)), min_size=1, max_size=40
    )
)
@settings(max_examples=60, deadline=None)
def test_dedup_clusters_union_find_matches_brute_force(edges, ray_session):
    """The distributed min-label contraction in q_dedup_clusters must
    produce exactly the brute-force connected components with
    lexicographic-min canons."""
    import pandas as pd
    import pyarrow as pa

    from raycells.pipelines import queries as q

    pairs = pa.table(
        {
            "id_a": pa.array([f"n{min(a, b):02d}" for a, b in edges if a != b]),
            "id_b": pa.array([f"n{max(a, b):02d}" for a, b in edges if a != b]),
        }
    )
    if pairs.num_rows == 0:
        return
    # drive the same component resolution the query uses on these pairs
    # (patched by hand: hypothesis re-runs the body per example)
    orig = q.q_minhash_pairs
    q.q_minhash_pairs = lambda sf: pairs
    try:
        out = q.q_dedup_clusters("unused").to_pandas()
    finally:
        q.q_minhash_pairs = orig
    # brute force: BFS components over the same edges
    adj: dict = {}
    for a, b in edges:
        if a == b:
            continue
        x, y = f"n{min(a, b):02d}", f"n{max(a, b):02d}"
        adj.setdefault(x, set()).add(y)
        adj.setdefault(y, set()).add(x)
    seen, want = set(), {}
    for start in sorted(adj):
        if start in seen:
            continue
        comp, stack = [], [start]
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            comp.append(v)
            stack.extend(adj[v] - seen)
        canon = min(comp)
        for m in comp:
            want[m] = (canon, len(comp))
    got = {
        r.doc_key: (r.canon_key, r.cluster_size) for r in out.itertuples()
    }
    assert got == want


@given(
    docs=st.lists(
        st.lists(
            st.text(alphabet="abcdefg", min_size=0, max_size=5),
            min_size=0,
            max_size=12,
        ),
        min_size=0,
        max_size=10,
    ),
    w=st.integers(2, 6),
)
@settings(max_examples=60, deadline=None)
def test_window_hashes_batch_matches_per_doc(docs, w):
    """window_hashes_batch == per-doc window_hashes (values AND row
    assignment) — windows never cross doc boundaries."""
    import numpy as np

    from raycells.text.analysis import window_hashes, window_hashes_batch

    texts = [" ".join(d) for d in docs]
    got_h, got_r = window_hashes_batch(texts, w)
    want_h, want_r = [], []
    for i, t in enumerate(texts):
        wh = window_hashes(t, w)
        want_h.extend(int(x) for x in wh)
        want_r.extend([i] * wh.size)
    assert [int(x) for x in got_h] == want_h
    assert got_r.tolist() == want_r
    assert got_h.dtype == np.uint64


@given(
    cells=st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(1, 9)),
        min_size=1,
        max_size=20,
        unique_by=lambda t: (t[0], t[1]),
    )
)
@settings(max_examples=40, deadline=None)
def test_focal_fan_matches_brute_force_neighborhood(cells):
    """The 9-key fan + merge must equal the brute-force 3×3 neighborhood
    sum over nonempty cells (self-flag drops fringe cells)."""
    import numpy as np

    base = {(gx, gy): n for gx, gy, n in cells}
    # fan: each nonempty cell contributes to its 9 neighbors
    recv: dict = {}
    for (gx, gy), n in base.items():
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                k = (gx + dx, gy + dy)
                c, t = recv.get(k, (0, 0))
                recv[k] = (c + 1, t + n)
    got = {k: v for k, v in recv.items() if k in base}
    # brute force: sum over existing neighbors
    want = {}
    for (gx, gy) in base:
        c = t = 0
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                nb = (gx + dx, gy + dy)
                if nb in base:
                    c += 1
                    t += base[nb]
        want[(gx, gy)] = (c, t)
    assert got == want


@given(
    pts=st.lists(
        st.tuples(
            st.floats(-170, 170, allow_nan=False, width=32),
            st.floats(-80, 80, allow_nan=False, width=32),
        ),
        min_size=3,
        max_size=12,
    )
)
@settings(max_examples=40, deadline=None)
def test_shoelace_quantized_matches_scalar(pts):
    """The vectorized e6-quantized shoelace partial equals the scalar
    closed-ring definition."""
    import numpy as np

    ring = np.array(pts, dtype=np.float64)
    # closed ring edges (x1,y1) -> (x2,y2)
    x1, y1 = ring[:, 0], ring[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    q = lambda v: np.floor(v * 1e6 + 0.5).astype(np.int64)
    got = int((q(x1) * q(y2) - q(x2) * q(y1)).sum())
    want = 0
    for i in range(len(pts)):
        j = (i + 1) % len(pts)
        want += int(np.floor(pts[i][0] * 1e6 + 0.5)) * int(
            np.floor(pts[j][1] * 1e6 + 0.5)
        ) - int(np.floor(pts[j][0] * 1e6 + 0.5)) * int(
            np.floor(pts[i][1] * 1e6 + 0.5)
        )
    assert got == want


@given(
    shards=st.lists(
        st.lists(st.integers(0, 50), min_size=1, max_size=15),
        min_size=1,
        max_size=5,
    ),
    cap=st.integers(1, 60),
)
@settings(max_examples=60, deadline=None)
def test_greedy_pack_bins_matches_scalar_rule(shards, cap):
    """The vectorized pass-per-bin packing == the scalar recursion
    (fill + ntok > cap ⇒ new bin, fill = ntok) per shard."""
    import numpy as np

    from raycells.pipelines.queries import greedy_pack_bins

    shard = np.concatenate(
        [np.full(len(t), i, np.int64) for i, t in enumerate(shards)]
    )
    ntok = np.concatenate([np.array(t, np.int64) for t in shards])
    got = greedy_pack_bins(shard, ntok, cap)
    want = []
    for t in shards:
        b, fill = 0, t[0]
        want.append(0)
        for v in t[1:]:
            if fill + v > cap:
                b, fill = b + 1, v
            else:
                fill += v
            want.append(b)
    assert got.tolist() == want


@given(keys=st.lists(st.integers(0, 10**9), min_size=1, max_size=50))
@settings(max_examples=40, deadline=None)
def test_bloom_bit_indices_match_duckdb(keys):
    """The bloom bit mixes == the oracle's SQL arithmetic verbatim."""
    import duckdb
    import numpy as np

    from raycells.sim.bloom import BLOOM_K, bloom_bit_indices

    got = bloom_bit_indices(np.array(keys, np.int64))
    con = duckdb.connect()
    vals = ", ".join(f"({i}, {k})" for i, k in enumerate(keys))
    rows = con.execute(
        f"SELECT i, j.range AS j, "
        f"((k * 2654435761 + j.range * 40503) % 1000003) % 65536 AS b "
        f"FROM (VALUES {vals}) t(i, k), range(1, {BLOOM_K + 1}) j "
        f"ORDER BY i, j"
    ).fetchall()
    want = np.array([r[2] for r in rows], np.int64).reshape(len(keys), BLOOM_K)
    assert np.array_equal(got, want)


@given(
    texts=st.lists(
        st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126),
                min_size=0, max_size=120),
        min_size=0, max_size=12,
    ),
    w=st.integers(3, 50),
    s=st.integers(1, 12),
)
@settings(max_examples=60, deadline=None)
def test_strided_window_fps_matches_fingerprint64(texts, w, s):
    """Every strided window hash == fingerprint64 of the substring —
    the O(bytes) rolling-prefix kernel (B inverse mod 2^64) agrees with
    the direct polynomial for arbitrary ASCII texts, window sizes and
    strides (including texts shorter than the window and empty texts)."""
    from raycells.text.analysis import fingerprint64, strided_window_fps

    ri, pos, h = strided_window_fps(texts, w, s)
    exp = []
    for r, t in enumerate(texts):
        p = 0
        while p + w <= len(t):
            exp.append((r, p, int(fingerprint64([t[p : p + w]])[0])))
            p += s
    got = list(zip(ri.tolist(), pos.tolist(), (int(x) for x in h)))
    assert got == exp

"""Text analysis + dedup operator tests (brute-force oracles, SURVEY.md §5.2)."""

import numpy as np
import pyarrow as pa
import pytest

from raycells.text import analysis as ta
from raycells.text import dedup as dd

TEXTS = [
    "the quick brown fox jumps over the lazy dog",
    "the quick brown fox jumps over the lazy cat",
    "completely different content here now",
    "",
    "a",
    "the quick brown fox jumps over the lazy dog",  # exact dup of [0]
]
IDS = ["d0", "d1", "d2", "d3", "d4", "d5"]


def _tbl():
    return pa.table({"doc_id": IDS, "text": TEXTS})


# ---------------------------------------------------------------------------
# analysis kernels (pure, no Ray)
# ---------------------------------------------------------------------------

def test_token_counts():
    out = ta.token_counts(_tbl()["text"])
    assert out.tolist() == [9, 9, 5, 0, 1, 9]


def test_word_hits():
    hits = ta.word_hits(_tbl()["text"], "the")
    assert hits.tolist() == [2, 2, 0, 0, 0, 2]


def test_char_metrics():
    m = ta.char_metrics(pa.chunked_array([["ab1 c!"]]))
    assert m["n_chars"][0] == 6
    assert m["n_alpha"][0] == 3
    assert m["n_digit"][0] == 1
    assert m["n_space"][0] == 1
    assert m["n_other"][0] == 1


def test_quality_metrics():
    out = ta.quality_metrics(_tbl())
    ok = out["quality_ok"].to_pylist()
    assert ok[0] and ok[1]          # long, alpha, has stopwords
    assert not ok[2]                # no stopword hits
    assert not ok[3] and not ok[4]  # too short


def test_lang_id_deterministic_ties():
    t = pa.table({"doc_id": ["x"], "text": ["nothing matching markers"]})
    out = ta.lang_id(t)
    assert out["lang_detected"].to_pylist() == ["und"]
    # 'a' is an en marker, 'agg' a de marker — en wins ties by declaration order
    t2 = pa.table({"doc_id": ["y"], "text": ["a agg"]})
    assert ta.lang_id(t2)["lang_detected"].to_pylist() == ["en"]


def test_fingerprint_identity_and_difference():
    fp = ta.fingerprint64(TEXTS)
    assert fp[0] == fp[5]
    assert fp[0] != fp[1]
    assert fp[3] != fp[4]
    # stable across calls
    assert ta.fingerprint64([TEXTS[0]])[0] == fp[0]


# ---------------------------------------------------------------------------
# dedup kernels (pure)
# ---------------------------------------------------------------------------

def test_content_hash_collision_free_here():
    h = dd.content_hash64(TEXTS)
    assert h[0] == h[5]
    assert len(set(h.tolist())) == 5


def test_shingles_and_jaccard():
    a = dd.char_shingles(TEXTS[0], 5)
    b = dd.char_shingles(TEXTS[1], 5)
    c = dd.char_shingles(TEXTS[2], 5)
    assert dd.jaccard(a, a) == 1.0
    assert dd.jaccard(a, b) > 0.6      # one-word difference
    assert dd.jaccard(a, c) < 0.1


def test_minhash_estimates_jaccard():
    mh = dd.MinHasher(256)
    sa = mh.signature(dd.char_shingles(TEXTS[0], 5))
    sb = mh.signature(dd.char_shingles(TEXTS[1], 5))
    est = (sa == sb).mean()
    true = dd.jaccard(dd.char_shingles(TEXTS[0], 5), dd.char_shingles(TEXTS[1], 5))
    assert abs(est - true) < 0.15


def test_simhash_hamming_tracks_similarity():
    sh = dd.simhash64(TEXTS)
    assert sh[0] == sh[5]
    d_near = dd._popcount64(sh[0:1] ^ sh[1:2])[0]
    d_far = dd._popcount64(sh[0:1] ^ sh[2:3])[0]
    assert d_near < d_far


# ---------------------------------------------------------------------------
# distributed pipelines (Ray)
# ---------------------------------------------------------------------------

@pytest.fixture()
def docs_ds(ray_session):
    import ray.data as rd

    return rd.from_arrow(_tbl())


def test_exact_dedup_pipeline(docs_ds):
    out = dd.exact_dedup(docs_ds).to_pandas()
    assert len(out) == 5
    # deterministic winner: min doc_id per hash
    assert "d5" not in set(out["doc_id"])
    assert "d0" in set(out["doc_id"])


def test_minhash_near_dup_pipeline(docs_ds):
    pairs = dd.minhash_near_dup_pairs(docs_ds, threshold=0.6).to_pandas()
    got = {(a, b) for a, b in zip(pairs["id_a"], pairs["id_b"])}
    assert ("d0", "d1") in got or ("d1", "d5") in got  # near-dup found
    assert ("d0", "d5") in got                          # exact dup found
    assert all(a < b for a, b in got)
    # no cross-pairs with the unrelated doc
    assert not any("d2" in p for pair in got for p in pair)


def test_ngram_jaccard_small_fixture(docs_ds):
    pairs = dd.ngram_jaccard_near_dup_pairs(docs_ds, threshold=(4, 5)).to_pandas()
    got = {(a, b) for a, b in zip(pairs["id_a"], pairs["id_b"])}
    assert ("d0", "d5") in got  # exact dup (J = 1)
    assert all(a < b for a, b in got)
    assert not any("d2" in p for pair in got for p in pair)


def test_ngram_jaccard_exact_recall_sf0001(ray_session):
    """The prefix-filter join is EXACT: its output equals brute-force
    all-pairs Jaccard (integer-threshold form) over the sf0.001 corpus —
    ids AND jaccard values. This is the recall-1.0 guarantee LSH lacks."""
    import pyarrow.parquet as pq
    import ray.data as rd

    t = pq.read_table(
        "/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "text"]
    )
    ids = [str(i) for i in t["doc_id"].to_pylist()]
    texts = t["text"].to_pylist()
    sets = [dd.char_shingles(x, 5) for x in texts]
    num, den = 4, 5
    want = {}
    for x in range(len(ids)):
        for y in range(x + 1, len(ids)):
            i = np.intersect1d(sets[x], sets[y], assume_unique=True).size
            u = sets[x].size + sets[y].size - i
            if den * i >= num * u:
                a, b = sorted((ids[x], ids[y]))
                want[(a, b)] = i / u if u else 1.0
    ds = rd.from_arrow(pa.table({"doc_id": pa.array(ids, pa.string()), "text": t["text"]}))
    out = dd.ngram_jaccard_near_dup_pairs(ds, threshold=(num, den)).to_pandas()
    got = {(a, b): j for a, b, j in zip(out["id_a"], out["id_b"], out["jaccard"])}
    assert got == want and len(want) > 0


def test_simhash_near_dup_pipeline(docs_ds):
    pairs = dd.simhash_near_dup_pairs(docs_ds, max_hamming=3).to_pandas()
    got = {(a, b) for a, b in zip(pairs["id_a"], pairs["id_b"])}
    assert ("d0", "d5") in got
    assert not any("d2" in p for pair in got for p in pair)


def test_embedding_near_dup_pipeline(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(7)
    base = rng.standard_normal((20, 64))
    near = base[0] + 0.01 * rng.standard_normal(64)  # ~cos 1.0 with row 0
    emb = np.vstack([base, near])
    t = pa.table(
        {
            "vec_id": pa.array(np.arange(21), pa.int64()),
            "embedding": pa.array([list(map(float, r)) for r in emb]),
        }
    )
    pairs = dd.embedding_near_dup_pairs(
        rd.from_arrow(t), threshold=0.95
    ).to_pandas()
    assert (0, 20) in set(zip(pairs["id_a"], pairs["id_b"]))


def test_simhash_chunk_params_pigeonhole():
    """The chunking must guarantee recall for ANY max_hamming: r+1
    chunks cover all 64 bits disjointly, so two hashes within Hamming
    <= r always share an exact chunk — including the old failure mode of
    r=8 with bits spread one-per-16-bit-chunk."""
    for r in (1, 3, 8, 15):
        params = [(s, (1 << w) - 1) for s, w in dd.simhash_chunk_params_wide(r, 64)]
        assert len(params) == r + 1
        covered = 0
        for shift, mask in params:
            covered |= mask << shift
        assert covered == (1 << 64) - 1
        # adversarial: r differing bits spread as far apart as possible
        bits = [(64 * i) // r for i in range(r)]
        a = np.uint64(0)
        b = np.uint64(0)
        for bit in bits:
            b |= np.uint64(1) << np.uint64(min(bit, 63))
        shared = any(
            (int(a) >> s) & m == (int(b) >> s) & m for s, m in params
        )
        assert shared, f"r={r}: no shared chunk for {int(b):064b}"


def test_simhash_pairs_match_brute_force_at_r8(ray_session):
    """End-to-end exactness at max_hamming=8: pipeline output must equal
    the brute-force all-pairs set (the old 4x16-bit layout lost pairs
    whose 4-8 differing bits spread one-per-chunk)."""
    import ray.data as rd

    base = "the quick brown fox jumps over the lazy dog near a quiet river bank at dawn".split()
    texts = [" ".join(base)]
    rng = np.random.default_rng(7)
    words = ["red", "blue", "tall", "old", "new", "wet", "dry", "hot"]
    for _ in range(40):
        t = list(base)
        for j in rng.choice(len(base), rng.integers(1, 4), replace=False):
            t[j] = words[rng.integers(0, len(words))]
        texts.append(" ".join(t))
    ids = [f"d{i:02d}" for i in range(len(texts))]
    sh = dd.simhash64(texts)
    want = set()
    for i in range(len(texts)):
        for j in range(i + 1, len(texts)):
            if bin(int(sh[i]) ^ int(sh[j])).count("1") <= 8:
                want.add((min(ids[i], ids[j]), max(ids[i], ids[j])))
    assert len(want) >= 5  # the fixture must actually exercise the range
    assert any(
        bin(int(sh[i]) ^ int(sh[j])).count("1") >= 4
        for i in range(len(texts))
        for j in range(i + 1, len(texts))
        if bin(int(sh[i]) ^ int(sh[j])).count("1") <= 8
    )
    t = pa.table({"doc_id": pa.array(ids), "text": pa.array(texts)})
    pairs = dd.simhash_near_dup_pairs(
        rd.from_arrow(t), id_col="doc_id", max_hamming=8
    ).to_pandas()
    got = set(zip(pairs["id_a"], pairs["id_b"]))
    assert got == want


def test_simhash128_pairs_match_brute_force_at_r12(ray_session):
    """Full recall at max_hamming=12 on the 128-bit path (VERDICT r4 #5):
    pipeline output must equal the brute-force all-pairs two-lane
    Hamming set — including pairs whose differing bits spread across
    both lanes and across the lane-straddling chunk."""
    import ray.data as rd

    base = (
        "the quick brown fox jumps over the lazy dog near a quiet river "
        "bank at dawn while tall birds watch from wet stones"
    ).split()
    texts = [" ".join(base)]
    rng = np.random.default_rng(11)
    words = ["red", "blue", "tall", "old", "new", "wet", "dry", "hot", "dim"]
    for _ in range(50):
        t = list(base)
        for j in rng.choice(len(base), rng.integers(1, 5), replace=False):
            t[j] = words[rng.integers(0, len(words))]
        texts.append(" ".join(t))
    ids = [f"d{i:02d}" for i in range(len(texts))]
    sh = dd.simhash128(texts)
    # lane 0 must stay the 64-bit simhash (the narrow path is a prefix)
    np.testing.assert_array_equal(sh[:, 0], dd.simhash64(texts))

    def ham(i, j):
        return (int(sh[i, 0]) ^ int(sh[j, 0])).bit_count() + (
            int(sh[i, 1]) ^ int(sh[j, 1])
        ).bit_count()

    want = {
        (ids[i], ids[j], ham(i, j))
        for i in range(len(texts))
        for j in range(i + 1, len(texts))
        if ham(i, j) <= 12
    }
    assert len(want) >= 5  # the fixture must actually exercise the range
    assert any(h >= 8 for _, _, h in want)  # beyond the 64-bit default r
    t = pa.table({"doc_id": pa.array(ids), "text": pa.array(texts)})
    pairs = dd.simhash_near_dup_pairs(
        rd.from_arrow(t), id_col="doc_id", max_hamming=12, bits=128
    ).to_pandas()
    got = set(zip(pairs["id_a"], pairs["id_b"], pairs["hamming"]))
    assert got == want


def test_token_hash_cache_eviction():
    """Cache eviction mid-stream must not KeyError on tokens cached
    before the wipe (regression: `missing` was computed pre-clear)."""
    from raycells.text import dedup

    old_max = dedup._TOKEN_HASHES_MAX
    dedup._TOKEN_HASHES.clear()
    try:
        dedup._TOKEN_HASHES_MAX = 4
        dedup._token_hashes(np.asarray(["a", "b", "c"], object))
        out = dedup._token_hashes(np.asarray(["a", "d"], object))
        ref = dedup._token_hashes(np.asarray(["a", "d"], object))
        assert np.array_equal(out, ref)
    finally:
        dedup._TOKEN_HASHES_MAX = old_max
        dedup._TOKEN_HASHES.clear()


def test_regex_token_counts_matches_re_findall():
    """The byte-class run counter must equal re.findall lengths for the
    BPE-ish pattern on arbitrary ASCII rows (incl. empty strings, runs
    at row boundaries, all-space rows, chunked arrays), and the non-ASCII
    fallback must agree with the same regexes."""
    import re

    rng = np.random.default_rng(99)
    alphabet = list("abz019 ,.{}:\"-") + ["  "]
    rows = [
        "".join(rng.choice(alphabet, size=rng.integers(0, 40)))
        for _ in range(300)
    ] + ["", " ", "a", "9", ",", "a9", "9a", "a a", '{"k": 69}', "zz99,,"]
    pats = {
        "tokens": re.compile(r"[a-z]+|[0-9]+|[^a-z0-9 ]"),
        "alpha": re.compile(r"[a-z]+"),
        "digit": re.compile(r"[0-9]+"),
        "punct": re.compile(r"[^a-z0-9 ]"),
    }
    half = len(rows) // 2
    arr = pa.chunked_array([pa.array(rows[:half]), pa.array(rows[half:])])
    got = ta.regex_token_counts(arr)
    for k, pat in pats.items():
        want = [len(pat.findall(s)) for s in rows]
        assert got[k].tolist() == want, k
    # non-ASCII row routes the batch through the re fallback
    got2 = ta.regex_token_counts(pa.chunked_array([pa.array(["héllo 42,", "a9"])]))
    assert got2["tokens"].tolist() == [
        len(pats["tokens"].findall("héllo 42,")),
        len(pats["tokens"].findall("a9")),
    ]


def test_fp_scratch_survives_cancellation_mid_init():
    """Regression (round 5): Ray cancels straggler tasks with an ASYNC
    exception; if one lands between allocating the 'ar' scratch and
    filling it with arange, the worker-persistent cache must NOT keep
    the uninitialized buffer (a poisoned 'ar' made every later
    fingerprint64 call in that worker read heap garbage)."""
    import numpy as np

    from raycells.text import analysis as ta

    saved = dict(ta._FP_SCRATCH)
    try:
        ta._FP_SCRATCH.clear()
        real_arange = np.arange
        calls = {"n": 0}

        def exploding_arange(*a, **k):
            calls["n"] += 1
            if calls["n"] == 1:
                raise KeyboardInterrupt("simulated ray.cancel")
            return real_arange(*a, **k)

        np.arange = exploding_arange
        try:
            try:
                ta._fp_scratch("ar", 100, np.int64)
            except KeyboardInterrupt:
                pass
            # the cache must not hold a half-initialized buffer
            assert "ar" not in ta._FP_SCRATCH
            ar = ta._fp_scratch("ar", 100, np.int64)
        finally:
            np.arange = real_arange
        assert ar.tolist() == list(range(100))
        # and the full hash path is healthy after the simulated kill
        h1 = ta.fingerprint64(["hello world", "x" * 500])
        ta._FP_SCRATCH.clear()
        h2 = ta.fingerprint64(["hello world", "x" * 500])
        assert h1.tolist() == h2.tolist()
    finally:
        ta._FP_SCRATCH.clear()
        ta._FP_SCRATCH.update(saved)


class TestStridedWindowFps:
    def test_matches_fingerprint64_of_substrings(self):
        texts = [
            "the quick brown fox jumps over the lazy dog " * 3,
            "",  # no windows
            "short",  # shorter than W
            "x" * 40,  # exactly one window
            "x" * 47,  # still one window (41..47 start past stride 0 only)
            "x" * 48,  # two windows
            "abcdefgh" * 25,
        ]
        ri, pos, h = ta.strided_window_fps(texts, 40, 8)
        exp = []
        for r, t in enumerate(texts):
            p = 0
            while p + 40 <= len(t):
                exp.append((r, p, int(ta.fingerprint64([t[p : p + 40]])[0])))
                p += 8
        got = list(zip(ri.tolist(), pos.tolist(), (int(x) for x in h)))
        assert got == exp

    def test_empty_and_all_short(self):
        for texts in ([], ["a", "bb", ""]):
            ri, pos, h = ta.strided_window_fps(texts, 40, 8)
            assert len(ri) == len(pos) == len(h) == 0

    def test_identical_windows_hash_equal_across_docs(self):
        a = "PREFIX--" + "shared forty character block here!!!...." + "--SUF"
        b = "OTHER-LEAD-IN---" + "shared forty character block here!!!...." + "Z"
        # plant the shared block at stride-aligned offsets in both docs
        a = a[: 8] + "shared forty character block here!!!....!"
        b = b[: 16] + "shared forty character block here!!!....!"
        ri, pos, h = ta.strided_window_fps([a, b], 40, 8)
        ha = {int(v) for r, v in zip(ri, h) if r == 0}
        hb = {int(v) for r, v in zip(ri, h) if r == 1}
        assert ha & hb  # the planted block collides exactly


class TestDupSpanSemantics:
    """Crafted-fixture pins for the duplicated-substring operators
    (parity tests cover the fixture corpus; these document intent)."""

    def _ds(self, texts, blocks=3):
        import ray.data as rd

        t = pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )
        return rd.from_arrow(t).repartition(blocks)

    def test_planted_shared_block_yields_expected_span(self, ray_session):
        from raycells.text.dedup import dup_span_report

        shared = "0123456789" * 6  # 60 chars, stride-aligned at 0
        a = shared + "A-unique-tail-for-doc-a-000000000000000"
        b = shared + "B-different-tail-goes-here-999999999999"
        out = dup_span_report(self._ds([a, b]), w=40, s=8).to_pandas()
        # windows at p=0,8,16 fit inside the shared 60-char prefix and
        # repeat across both docs; p=24 crosses into the distinct tails
        # (24+40 > 60) — so each doc gets exactly [0, 56) with 3 windows
        assert len(out) == 2
        assert set(out["doc_id"]) == {0, 1}
        assert (out["span_start"] == 0).all()
        assert (out["span_end"] == 16 + 40).all()
        assert (out["n_windows"] == 3).all()

    def test_spans_match_brute_force_on_crafted_docs(self, ray_session):
        """The span report equals a per-doc reference that compares
        window TEXT (no fingerprint, no exchange): a window is
        duplicated when its text occurs at two or more (doc, position)
        windows anywhere, and each doc's duplicated windows merge into
        stride-contiguous spans."""
        from collections import Counter

        from raycells.text import analysis as ta
        from raycells.text.dedup import dup_span_report

        texts = ["xy" * 40, "xy" * 40, "unique-" * 12, "xy" * 25 + "zz" * 12]
        w, s = ta.SPAN_W, ta.SPAN_S
        wins = [[(p, t[p:p + w]) for p in range(0, len(t) - w + 1, s)] for t in texts]
        seen = Counter(x for ws in wins for _, x in ws)
        want = []
        for d, ws in enumerate(wins):
            for p in (p for p, x in ws if seen[x] > 1):
                if want and want[-1][0] == d and want[-1][2] - w + s == p:
                    want[-1] = (d, want[-1][1], p + w, want[-1][3] + 1)
                else:
                    want.append((d, p, p + w, 1))
        assert {d for d, *_ in want} == {0, 1, 3}  # doc 2's windows are unique
        got = dup_span_report(self._ds(texts)).to_pandas()
        cols = ["doc_id", "span_start", "span_end", "n_windows"]
        assert list(got.columns) == cols
        assert [tuple(r) for r in got.itertuples(index=False)] == want


def test_shuffle_shards_block_count_invariant(ray_session):
    """The reshard manifest's partials are commutative-associative:
    the folded result is identical at 1, 3 and 8 read blocks."""
    import pandas as pd

    from raycells.pipelines import queries as q

    ref = None
    for nb in (1, 3, 8):
        saved = q.SMALL_TABLE_BLOCKS
        q.SMALL_TABLE_BLOCKS = nb
        try:
            t = q.q_shuffle_shards("/root/testdata/sf0.001").to_pandas()
        finally:
            q.SMALL_TABLE_BLOCKS = saved
        if ref is None:
            ref = t
        else:
            pd.testing.assert_frame_equal(ref, t)


class TestParagraphDedup:
    """Crafted-fixture pins for the C4-style paragraph dedup manifest:
    global first-(doc, idx) occurrence wins, within-doc repeats count as
    removed, tail segments shorter than PARA_W participate."""

    def _sf(self, tmp_path, texts):
        import pyarrow.parquet as pq

        t = pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )
        pq.write_table(t, str(tmp_path / "documents.parquet"))
        return str(tmp_path)

    def test_cross_doc_within_doc_and_tail(self, ray_session, tmp_path):
        from raycells.pipelines.queries import q_paragraph_dedup

        w8 = " ".join(f"w{i}" for i in range(8))
        uniq = " ".join(f"u{i}" for i in range(8))
        other = " ".join(f"v{i}" for i in range(8))
        docs = [
            w8 + " " + uniq,            # doc 0: [w8, uniq] — both first
            w8 + " " + other,           # doc 1: [w8 dup, other first]
            other + " " + other,        # doc 2: both segs dup of doc1
            w8 + " tail",               # doc 3: [w8 dup, short tail first]
        ]
        out = (
            q_paragraph_dedup(self._sf(tmp_path, docs))
            .to_pandas()
            .set_index("doc_key")
            .sort_index()
        )
        assert list(out["n_segs"]) == [2, 2, 2, 2]
        assert list(out["n_kept"]) == [2, 1, 0, 1]
        assert list(out["n_removed"]) == [0, 1, 2, 1]
        assert list(out["chars_removed"]) == [
            0, len(w8), 2 * len(other), len(w8),
        ]


def test_leakage_safe_split_never_straddles_near_dup_pairs(ray_session):
    """Every MinHash near-dup pair must land on ONE side of the
    train/val split: both endpoints share a canonical cluster id, and
    the split keys on that id alone. Re-derives the per-doc split with
    the same rule and checks each verified pair agrees."""
    import numpy as np

    from raycells.engine.cc import connected_components
    from raycells.pipelines import queries as q
    from raycells.sim.hll import _hash64

    sf = "/root/testdata/sf0.001"
    # run the query first (exercises the broadcast stage end-to-end)
    out = q.q_leakage_safe_split(sf).to_pandas()
    assert set(out["split"]) <= {"train", "val"}
    assert out["n_docs"].sum() == 500

    pairs = q.q_minhash_pairs(sf)
    comp = connected_components(pairs, a="id_a", b="id_b")
    canon = dict(zip(comp["node"], comp["root"]))

    def split_of(key: str) -> bool:
        ci = np.array([int(canon.get(key, key))], np.int64)
        return bool(_hash64(ci)[0] % np.uint64(10) == 0)

    for ka, kb in zip(pairs["id_a"].to_pylist(), pairs["id_b"].to_pylist()):
        assert split_of(ka) == split_of(kb)


def test_lev1_pairs_mask_property():
    """The prefix+suffix rule must equal true Levenshtein ≤ 1 on random
    short-alphabet pairs (small alphabet maximizes repeated-char and
    transposition traps)."""
    from hypothesis import given, settings, strategies as st

    from raycells.text.analysis import lev1_pairs_mask

    def lev(a: str, b: str) -> int:
        prev = list(range(len(b) + 1))
        for i, ca in enumerate(a, 1):
            cur = [i]
            for j, cb in enumerate(b, 1):
                cur.append(min(prev[j] + 1, cur[-1] + 1,
                               prev[j - 1] + (ca != cb)))
            prev = cur
        return prev[-1]

    word = st.text(alphabet="abc", min_size=0, max_size=6)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(word, word), min_size=1, max_size=8))
    def check(pairs):
        import numpy as np

        A = np.array([p[0] for p in pairs], dtype=object)
        B = np.array([p[1] for p in pairs], dtype=object)
        got = lev1_pairs_mask(A, B)
        want = np.array([lev(a, b) <= 1 for a, b in pairs])
        assert (got == want).all(), list(zip(A, B, got, want))

    check()


def test_fuzzy_match_long_tokens(tmp_path):
    """Tokens longer than the 16-char baseline width must widen the
    verify matrices, not raise (the chunk_docs length-cap lesson)."""
    import numpy as np

    from raycells.text.analysis import lev1_pairs_mask

    a = np.array(["x" * 40, "y" * 40], dtype=object)
    b = np.array(["x" * 39 + "z", "y" * 41], dtype=object)
    got = lev1_pairs_mask(a, b, width=41)
    assert got.tolist() == [True, True]


# ---------------------------------------------------------------------------
# MinHash signature kernel: bit-identical to the reference formulas
# ---------------------------------------------------------------------------

def _ref_char_shingles(text, k):
    """The sliding-window reference: byte i of a window weighs
    1099511628211**i (uint64 wrap), whole text when shorter than k."""
    b = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    if b.size == 0:
        return np.zeros(1, dtype=np.uint64)
    win = b[None, :] if b.size < k else np.lib.stride_tricks.sliding_window_view(b, k)
    with np.errstate(over="ignore"):
        pows = np.uint64(1099511628211) ** np.arange(win.shape[1], dtype=np.uint64)
        h = (win.astype(np.uint64) * pows[None, :]).sum(axis=1, dtype=np.uint64)
    return np.unique(h)


def _ref_signature(mh, shingles):
    with np.errstate(over="ignore"):
        hv = (shingles[:, None] * mh.a[None, :] + mh.b[None, :]) % np.uint64(dd._MERSENNE)
    return hv.min(axis=0)


def _kernel_texts(k):
    rng = np.random.default_rng(k)
    long_doc = "".join(rng.choice(list("abcdefghijklmnopqrstuvwxyz ,.éü"), 12000))
    return (
        ["", "ü", "日本語のテキスト", "mixed ascii + ✓ symbols — and ü"]
        + ["abcdefghij"[:n] for n in range(1, k)]
        + TEXTS
        + [long_doc]
        + [" ".join(rng.choice(["w%d" % i for i in range(50)], 30)) for _ in range(40)]
    )


@pytest.mark.parametrize("k", [1, 3, 5, 9])
@pytest.mark.parametrize("chunk_bytes", [None, 16], ids=["bytes-default", "bytes-16"])
def test_batch_signatures_match_reference_formulas(k, chunk_bytes, monkeypatch):
    """``char_shingles`` (alone and batched) equals the sliding-window
    reference, and ``batch_signatures`` equals the reference ``% M``
    formula and the per-doc ``MinHasher.signature`` bit for bit — empty,
    shorter-than-k, non-ASCII, and a doc over ``_CHUNK_SHINGLES``
    shingles included, at the default chunk sizes and at ones that
    split every few docs."""
    if chunk_bytes is not None:
        monkeypatch.setattr(dd, "_SHINGLE_CHUNK_BYTES", chunk_bytes)
    texts = _kernel_texts(k)
    mh = dd.MinHasher(64)
    ref_sets = [_ref_char_shingles(t, k) for t in texts]
    for t, got, ref in zip(texts, dd._shingle_sets(texts, k), ref_sets):
        np.testing.assert_array_equal(got, ref)
        np.testing.assert_array_equal(dd.char_shingles(t, k), ref)
    if k > 1:
        assert ref_sets[len(texts) - 41].size > mh._CHUNK_SHINGLES
    want = np.stack([_ref_signature(mh, s) for s in ref_sets])
    np.testing.assert_array_equal(
        np.stack([mh.signature(s) for s in ref_sets]), want
    )
    np.testing.assert_array_equal(mh.batch_signatures(texts, k), want)
    small = dd.MinHasher(64)
    small._CHUNK_SHINGLES = 64
    np.testing.assert_array_equal(small.batch_signatures(texts, k), want)
    np.testing.assert_array_equal(small.batch_signatures(texts[::-1], k), want[::-1])


def test_mersenne_fold_equals_modulo():
    rng = np.random.default_rng(61)
    m = dd._MERSENNE
    edges = np.array(
        [0, 1, m - 1, m, m + 1, 2 * m, 2 * m + 1, 7 * m, 2**63, 2**64 - 2, 2**64 - 1],
        dtype=np.uint64,
    )
    x = np.concatenate(
        [edges, rng.integers(0, 2**64 - 1, 1 << 20, dtype=np.uint64, endpoint=True)]
    )
    want = x % np.uint64(m)
    got = dd._mod_mersenne(x.copy(), np.empty_like(x))
    np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------------------
# near-dup candidates: each distinct LSH pair leaves Phase A exactly once
# ---------------------------------------------------------------------------

def _near_copies(n_copies=32, seed=3):
    base = (
        "the quick brown fox jumps over the lazy dog near a quiet river bank "
        "at dawn while tall birds watch from wet stones and old boats drift by"
    ).split()
    rng = np.random.default_rng(seed)
    words = ["red", "blue", "tall", "old", "new", "wet", "dry", "hot", "dim"]
    texts = []
    for _ in range(n_copies):
        t = list(base)
        for j in rng.choice(len(base), rng.integers(1, 3), replace=False):
            t[j] = words[rng.integers(0, len(words))]
        texts.append(" ".join(t))
    texts += [" ".join(rng.choice(words + base, 25)) for _ in range(8)]
    texts += ["unrelated document number %d about cells and tiles" % i for i in range(8)]
    return [f"d{i:03d}" for i in range(len(texts))], texts


def _spy_candidates(monkeypatch):
    """Record the candidate pairs Phase A hands to ``_verify_join_collect``."""
    seen = []
    real = dd._verify_join_collect

    def spy(cand_ds, *a, **kw):
        cand = cand_ds.materialize()
        seen.append(list(zip(*(cand.to_pandas()[c].tolist() for c in ("id_a", "id_b")))))
        return real(cand, *a, **kw)

    monkeypatch.setattr(dd, "_verify_join_collect", spy)
    return seen


def _bucket_pairs(ids, keys):
    """Distinct (id_a < id_b) pairs sharing a key in any column."""
    out = set()
    for col in keys.T:
        for v in np.unique(col):
            members = sorted(np.asarray(ids, dtype=object)[col == v])
            out.update(
                (members[x], members[y])
                for x in range(len(members))
                for y in range(x + 1, len(members))
            )
    return out


def test_minhash_candidates_exactly_once(ray_session, monkeypatch):
    import ray.data as rd

    ids, texts = _near_copies()
    bands = dd.lsh_bands(dd.MinHasher(64).batch_signatures(texts, 5), 16)
    want = _bucket_pairs(ids, bands)
    # the fixture must make pairs collide in many bands
    per_pair = {p: 0 for p in want}
    for col in bands.T:
        for p in _bucket_pairs(ids, col[:, None]):
            per_pair[p] += 1
    assert len(want) > 400 and max(per_pair.values()) >= 8
    seen = _spy_candidates(monkeypatch)
    ds = rd.from_arrow(pa.table({"doc_id": ids, "text": texts})).repartition(4)
    pairs = dd.minhash_near_dup_pairs(ds, threshold=0.5)
    (cand,) = seen
    assert len(cand) == len(set(cand)) and set(cand) == want
    got = list(zip(pairs["id_a"].to_pylist(), pairs["id_b"].to_pylist()))
    assert len(got) == len(set(got)) and set(got) <= want and len(got) > 300


def test_embedding_candidates_exactly_once(ray_session, monkeypatch):
    import ray.data as rd

    rng = np.random.default_rng(9)
    base = rng.standard_normal(64)
    emb = np.vstack(
        [base + 0.05 * rng.standard_normal(64) for _ in range(32)]
        + [rng.standard_normal(64) for _ in range(16)]
    )
    ids = np.arange(len(emb), dtype=np.int64)
    n_planes, n_tables = 8, 8
    planes = dd.lsh_planes_int(64, n_planes * n_tables)
    bits = (dd.quantize_embeddings(emb) @ planes > 0).reshape(len(emb), n_tables, n_planes)
    keys = (bits * (1 << np.arange(n_planes)[::-1])).sum(axis=2)
    want = _bucket_pairs(ids.tolist(), keys)
    assert len(want) > 400
    seen = _spy_candidates(monkeypatch)
    t = pa.table(
        {"vec_id": pa.array(ids), "embedding": pa.array([list(map(float, r)) for r in emb])}
    )
    pairs = dd.embedding_near_dup_pairs(rd.from_arrow(t).repartition(4), threshold=0.9)
    (cand,) = seen
    assert len(cand) == len(set(cand)) and set(cand) == want
    got = list(zip(pairs["id_a"].to_pylist(), pairs["id_b"].to_pylist()))
    assert len(got) == len(set(got)) and set(got) <= want and len(got) > 300


def _pair_rows(ids, texts, tmp_path, sink):
    """(id_a, id_b) rows of a minhash run, collected or through the sink."""
    import glob
    import os

    import pyarrow.parquet as pq
    import ray.data as rd

    t = pa.table({"doc_id": pa.array(ids, pa.string()), "text": pa.array(texts, pa.string())})
    ds = rd.from_arrow(t)
    if not sink:
        out = dd.minhash_near_dup_pairs(ds, threshold=0.6)
        assert out.column_names == ["id_a", "id_b", "jaccard"]
    else:
        sink_dir = str(tmp_path / "pairs")
        os.makedirs(sink_dir)
        open(os.path.join(sink_dir, "stale.parquet"), "wb").close()
        res = dd.minhash_near_dup_pairs(ds, threshold=0.6, sink_dir=sink_dir)
        files = sorted(glob.glob(os.path.join(sink_dir, "*.parquet")))
        out = (
            pa.concat_tables([pq.read_table(f) for f in files])
            if files else pa.table({"id_a": [], "id_b": []})
        )
        assert res["n_pairs"] == out.num_rows
    return list(zip(out["id_a"].to_pylist(), out["id_b"].to_pylist()))


@pytest.mark.parametrize("sink", [False, True], ids=["collect", "sink"])
def test_minhash_pairs_edge_corpora(ray_session, tmp_path, sink):
    """Empty corpus and no candidates → no pairs; an id repeated with
    the SAME text counts once (one pair with its near-copy)."""
    assert _pair_rows([], [], tmp_path / "e", sink) == []
    assert _pair_rows(IDS[2:5], TEXTS[2:5], tmp_path / "n", sink) == []
    rows = _pair_rows(["d0", "d0", "d1"], [TEXTS[0], TEXTS[0], TEXTS[1]], tmp_path / "r", sink)
    assert rows == [("d0", "d1")]


def test_minhash_pair_ids_are_typed_as_the_id_column(ray_session):
    """int64 doc ids give int64 ``id_a``/``id_b`` whether no candidate
    comes out (two unrelated docs), a candidate fails verify (a near-dup
    at threshold 1.0) or a pair passes (two identical docs)."""
    import ray.data as rd

    def pairs(texts, threshold=0.6):
        t = pa.table({"doc_id": pa.array([7, 9], pa.int64()), "text": texts})
        return dd.minhash_near_dup_pairs(rd.from_arrow(t), threshold=threshold)

    unrelated = pairs([TEXTS[0], TEXTS[2]])
    failed = pairs([TEXTS[0], TEXTS[1]], threshold=1.0)
    same = pairs([TEXTS[0], TEXTS[0]])
    assert (unrelated.num_rows, failed.num_rows, same.num_rows) == (0, 0, 1)
    for out in (unrelated, failed, same):
        assert out.schema == same.schema
    assert same.schema.field("id_a").type == pa.int64()
    assert same["id_a"].to_pylist() == [7] and same["id_b"].to_pylist() == [9]


@pytest.mark.parametrize("broadcast", [True, False], ids=["broadcast", "hash_join"])
def test_repeated_id_payloads(ray_session, monkeypatch, broadcast):
    """A doc id repeated with DIFFERING texts raises (the attach would
    otherwise score whichever copy it met first); identical copies
    collapse to one, on both payload paths."""
    import ray.data as rd

    if not broadcast:
        monkeypatch.setattr(dd, "_VERIFY_BROADCAST_BYTES", -1)
    same = rd.from_arrow(pa.table({"doc_id": ["d0", "d1", "d0"], "text": [TEXTS[0], TEXTS[1], TEXTS[0]]}))
    out = dd.minhash_near_dup_pairs(same, threshold=0.6)
    assert list(zip(out["id_a"].to_pylist(), out["id_b"].to_pylist())) == [("d0", "d1")]
    differ = rd.from_arrow(pa.table({"doc_id": ["d0", "d1", "d0"], "text": [TEXTS[0], TEXTS[1], TEXTS[1]]}))
    with pytest.raises(ValueError, match="d0"):
        dd.minhash_near_dup_pairs(differ, threshold=0.6)


@pytest.mark.parametrize("bits, r", [(64, 8), (128, 16)], ids=["64", "128"])
def test_simhash_repeated_ids(ray_session, bits, r):
    """SimHash, like MinHash, counts a doc id repeated with the SAME
    text once and raises on an id repeated with differing texts, at
    both fingerprint widths."""
    import ray.data as rd

    sh = dd.simhash128(TEXTS[:2])[:, : bits // 64]
    ham = sum((int(x) ^ int(y)).bit_count() for x, y in zip(*sh))
    assert ham <= r
    same = rd.from_arrow(pa.table({"doc_id": ["d0", "d1", "d0"], "text": [TEXTS[0], TEXTS[1], TEXTS[0]]}))
    out = dd.simhash_near_dup_pairs(same, max_hamming=r, bits=bits).to_pandas()
    assert list(zip(out["id_a"], out["id_b"], out["hamming"])) == [("d0", "d1", ham)]
    differ = rd.from_arrow(pa.table({"doc_id": ["d0", "d1", "d0"], "text": [TEXTS[0], TEXTS[1], TEXTS[1]]}))
    with pytest.raises(ValueError, match="d0"):
        dd.simhash_near_dup_pairs(differ, max_hamming=r, bits=bits).to_pandas()


@pytest.mark.parametrize("block", [1, 5, 1 << 14])
def test_lsh_pairs_any_pair_block(ray_session, monkeypatch, block):
    """Phase A's pairs do not depend on ``_PAIR_BLOCK``: blocks that cut
    through one bucket's pairs, or span several buckets, give the same
    exactly-once MinHash candidates and the same SimHash pairs and
    distances as brute force."""
    import ray.data as rd

    monkeypatch.setattr(dd, "_PAIR_BLOCK", block)
    ids, texts = _near_copies(12)
    bands = dd.lsh_bands(dd.MinHasher(64).batch_signatures(texts, 5), 16)
    seen = _spy_candidates(monkeypatch)
    ds = rd.from_arrow(pa.table({"doc_id": ids, "text": texts})).repartition(3)
    dd.minhash_near_dup_pairs(ds, threshold=0.5)
    (cand,) = seen
    assert len(cand) == len(set(cand)) and set(cand) == _bucket_pairs(ids, bands)
    sh = dd.simhash64(texts)
    want = {
        (ids[i], ids[j], (int(sh[i]) ^ int(sh[j])).bit_count())
        for i in range(len(ids))
        for j in range(i + 1, len(ids))
        if (int(sh[i]) ^ int(sh[j])).bit_count() <= 8
    }
    assert len(want) > 20
    out = dd.simhash_near_dup_pairs(ds, max_hamming=8).to_pandas()
    got = list(zip(out["id_a"], out["id_b"], out["hamming"]))
    assert len(got) == len(set(got)) and set(got) == want


# ---------------------------------------------------------------------------
# near-dup verify: the Jaccard kernel and the plain-task verify path
# ---------------------------------------------------------------------------

_EDGE_TEXTS = ["", "", "ab", "ab", "abc", "abcd", "x" * 7, "a", "ü" * 3]


@pytest.mark.parametrize("k", [3, 5])
def test_pair_jaccard_matches_per_pair_reference(k):
    """``_pair_jaccard`` equals ``jaccard(char_shingles(a),
    char_shingles(b))`` float for float: texts shorter than k (one
    whole-text shingle), the empty text, identical texts, and ids on
    both the a and b side of one slice, over chunked columns."""
    ids, texts = _near_copies(6)
    ids, texts = ids + [f"e{i}" for i in range(len(_EDGE_TEXTS))], texts + _EDGE_TEXTS
    text_of = dict(zip(ids, texts))
    rng = np.random.default_rng(k)
    pairs = [(ids[i], ids[j]) for i, j in rng.integers(0, len(ids), (300, 2))]
    pairs += [("e0", "e1"), ("e1", "e2"), ("e2", "e3"), ("e3", "e4"), ("e4", "e5"),
              ("d000", "d000"), ("e7", "e0"), ("e8", "e6")]
    a, b = (list(x) for x in zip(*pairs))

    def col(v, pieces=3):
        cut = np.array_split(np.arange(len(v)), pieces)
        return pa.chunked_array([pa.array([v[i] for i in c], pa.string()) for c in cut])

    got = dd._pair_jaccard(col(a), col(b), col([text_of[i] for i in a]),
                           col([text_of[i] for i in b]), k)
    want = [dd.jaccard(dd.char_shingles(text_of[x], k), dd.char_shingles(text_of[y], k))
            for x, y in pairs]
    np.testing.assert_array_equal(got, np.array(want))
    assert got[len(pairs) - 8] == 1.0 and got[len(pairs) - 3] == 1.0  # empty ≡ empty, self


@pytest.mark.parametrize("block", [1, 5, 1 << 14])
def test_minhash_verify_any_pair_block(ray_session, monkeypatch, block):
    """The verify tasks score every candidate with the per-pair
    reference Jaccard at any ``_PAIR_BLOCK``, in one task or one task
    per candidate block, on the broadcast and the ``hash_join`` paths;
    with threshold 0 every candidate comes out once, sorted."""
    import ray.data as rd

    monkeypatch.setattr(dd, "_PAIR_BLOCK", block)
    ids, texts = _near_copies(12)
    ids, texts = ids + [f"e{i}" for i in range(len(_EDGE_TEXTS))], texts + _EDGE_TEXTS
    text_of = dict(zip(ids, texts))
    ds = rd.from_arrow(pa.table({"doc_id": ids, "text": texts})).repartition(3)
    seen = _spy_candidates(monkeypatch)
    for task_pairs, broadcast_bytes in ((2048, 256 << 20), (1, 256 << 20), (1, -1)):
        monkeypatch.setattr(dd, "_VERIFY_TASK_PAIRS", task_pairs)
        monkeypatch.setattr(dd, "_VERIFY_BROADCAST_BYTES", broadcast_bytes)
        out = dd.minhash_near_dup_pairs(ds, threshold=0.0)
        got = list(zip(out["id_a"].to_pylist(), out["id_b"].to_pylist()))
        assert got == sorted(set(seen[-1])) and len(got) > 60
        assert ("e0", "e1") in got and ("e2", "e3") in got
        want = [dd.jaccard(dd.char_shingles(text_of[x]), dd.char_shingles(text_of[y]))
                for x, y in got]
        assert out["jaccard"].to_pylist() == want


def test_broadcast_verify_runs_no_dataset_operator():
    """Outside its ``hash_join`` scale branch, ``_verify_join_collect``
    runs plain Ray tasks only: no ``.map_batches(`` and no
    ``broadcast_task`` anywhere else in it (the semi-join filters the
    doc blocks in tasks), the ``_SemiJoinFetch`` stage is gone, and
    dedup.py calls no ``.repartition(``."""
    import ast
    import inspect

    tree = ast.parse(inspect.getsource(dd))
    calls = lambda node: [  # noqa: E731
        n.func.attr for n in ast.walk(node)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
    ]
    assert "repartition" not in calls(tree)
    assert not hasattr(dd, "_SemiJoinFetch")
    (fn,) = [n for n in tree.body
             if isinstance(n, ast.FunctionDef) and n.name == "_verify_join_collect"]
    (split,) = [st for st in ast.walk(fn) if isinstance(st, ast.If)
                and "_VERIFY_BROADCAST_BYTES" in ast.unparse(st.test)]
    assert "hash_join" in ast.unparse(split.orelse)
    split.orelse = []  # the scale branch is the only one allowed an operator
    assert "map_batches" not in calls(fn), ast.unparse(fn)
    names = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(fn) if isinstance(n, ast.Attribute)}
    assert "broadcast_task" not in names


def _marked(t: pa.Table, n_blocks: int, marks):
    """``t`` as an ``n_blocks``-block Dataset behind a map UDF that
    leaves one marker file in ``marks`` per call (one call per block)."""
    import os
    import tempfile

    import ray.data as rd

    def mark(b):
        os.close(tempfile.mkstemp(dir=marks)[0])
        return b

    cut = np.array_split(np.arange(t.num_rows), n_blocks)
    return rd.from_arrow([t.take(c) for c in cut]).map_batches(
        mark, batch_format="pyarrow", batch_size=None
    )


@pytest.mark.parametrize(
    "path", ["minhash", "minhash_sink", "minhash_hash_join", "embedding", "simhash"]
)
def test_near_dup_runs_the_corpus_once(ray_session, monkeypatch, tmp_path, path):
    """One near-dup call runs its input Dataset once: the input's map
    UDF is called once per input block, through Phase A and Phase B
    (collect, sink and ``hash_join`` verify paths) alike."""
    import os

    n_blocks, marks = 4, tmp_path / "marks"
    marks.mkdir()
    if path == "embedding":
        rng = np.random.default_rng(9)
        base = rng.standard_normal(64)
        emb = [base + 0.05 * rng.standard_normal(64) for _ in range(12)]
        emb += [rng.standard_normal(64) for _ in range(8)]
        t = pa.table({"vec_id": pa.array(np.arange(len(emb))),
                      "embedding": pa.array([list(map(float, r)) for r in emb])})
    else:
        ids, texts = _near_copies(12)
        t = pa.table({"doc_id": ids, "text": texts})
    ds = _marked(t, n_blocks, str(marks))
    ds.materialize()  # the fixture: one marker per block and execution
    assert len(os.listdir(marks)) == n_blocks
    for f in os.listdir(marks):
        os.remove(marks / f)
    if path == "minhash_hash_join":
        monkeypatch.setattr(dd, "_VERIFY_BROADCAST_BYTES", 0)
    if path == "minhash_sink":
        n_pairs = dd.minhash_near_dup_pairs(
            ds, threshold=0.5, sink_dir=str(tmp_path / "sink"))["n_pairs"]
    elif path == "embedding":
        n_pairs = dd.embedding_near_dup_pairs(ds, threshold=0.9).num_rows
    elif path == "simhash":
        n_pairs = dd.simhash_near_dup_pairs(ds, max_hamming=8).count()
    else:
        n_pairs = dd.minhash_near_dup_pairs(ds, threshold=0.5).num_rows
    assert n_pairs > 10
    assert len(os.listdir(marks)) == n_blocks


@pytest.mark.parametrize("kind", ["unicode", "int64"])
def test_near_dup_pair_ids_keep_their_order(ray_session, kind):
    """Non-ASCII string ids order by code point (bytewise in UTF-8) and
    int64 ids numerically, negative and past 2^53 (where float64 would
    merge neighbours): with threshold 0, MinHash returns every LSH
    candidate once as (id_a < id_b) in Python's order, sorted by
    (id_a, id_b), with the reference Jaccard; SimHash gives the
    brute-force pairs in the same orientation."""
    import ray.data as rd

    _, texts = _near_copies(12)
    n = len(texts)
    if kind == "unicode":
        # UTF-16 order would put the astral "𝔘" before "ｚ" (U+FF5A)
        pool = ["é", "z", "ｚ", "𝔘", "日本", "ü", "a", "Z", "ß", "中"]
        ids = [f"{pool[i % len(pool)]}{pool[i * 7 % len(pool)]}{i}" for i in range(n)]
    else:
        ids = [2**53 + i for i in range(n // 2)] + [-(2**62) + i for i in range(n - n // 2)]
        ids[:2] = [2**63 - 1, -(2**63)]
    ids = [ids[i] for i in np.random.default_rng(5).permutation(n)]
    assert len(set(ids)) == n
    col = pa.array(ids, pa.string() if kind == "unicode" else pa.int64())
    t = pa.table({"doc_id": col, "text": texts})
    ds = rd.from_arrow([t.slice(0, 11), t.slice(11, 9), t.slice(20)])

    bands = dd.lsh_bands(dd.MinHasher(64).batch_signatures(texts, 5), 16)
    want = sorted(_bucket_pairs(ids, bands))
    assert len(want) > 60
    out = dd.minhash_near_dup_pairs(ds, threshold=0.0)
    assert out.schema.field("id_a").type == col.type
    assert list(zip(out["id_a"].to_pylist(), out["id_b"].to_pylist())) == want
    text_of = dict(zip(ids, texts))
    assert out["jaccard"].to_pylist() == [
        dd.jaccard(dd.char_shingles(text_of[a]), dd.char_shingles(text_of[b])) for a, b in want
    ]

    sh = dd.simhash64(texts)
    ham = {(min(ids[i], ids[j]), max(ids[i], ids[j])): (int(sh[i]) ^ int(sh[j])).bit_count()
           for i in range(n) for j in range(i + 1, n)}
    want = {(a, b, h) for (a, b), h in ham.items() if h <= 8}
    assert len(want) > 20
    got = dd.simhash_near_dup_pairs(ds, max_hamming=8).to_pandas()
    assert set(zip(got["id_a"], got["id_b"], got["hamming"])) == want


def test_vectors_of_reads_lists_without_python_rows():
    """Embedding payloads read as (rows, dim) straight from the list
    values; a row of another length or a null row raises."""
    rows = [[0.5, -1.25, 3.0], [1.0, 2.0, 4.0], [0.0, 0.0, 1e-9]]
    col = pa.chunked_array([pa.array(rows[:1]), pa.array(rows[1:]).slice(0, 2)])
    np.testing.assert_array_equal(dd._vectors_of(col, 3), np.asarray(rows))
    with pytest.raises(ValueError, match="3 values"):
        dd._vectors_of(pa.chunked_array([pa.array([[1.0, 2.0, 3.0], [1.0, 2.0]])]), 3)
    with pytest.raises(ValueError, match="3 values"):
        dd._vectors_of(pa.chunked_array([pa.array([[1.0, 2.0, 3.0], None])]), 3)

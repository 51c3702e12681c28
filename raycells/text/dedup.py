"""Deduplication operators (exact + near-dup families).

Ray-Data-first shapes (SURVEY.md §2.9 + training-data mandate):

- **exact**: content hash inside ``map_batches`` → coarse-bucket
  shuffle → vectorized min-id-per-hash inside each bucket. The shuffle
  moves (hash, id) pairs, never the payload.
- **near-dup (MinHash, SimHash, embedding cosine)**: one filter-and-
  verify similarity join. Each family reduces a document to an
  (n, bands) LSH key matrix — MinHash band hashes of the shingle set,
  pigeonhole chunks of a 64- or 128-bit simhash, sign-LSH table buckets
  of the quantized embedding — and ONE shared Phase A, ``_lsh_pairs``,
  reads the corpus in its one Ray Data execution into keyed doc blocks
  (id, payload, key vector) and runs the one exchange over band rows
  that plain tasks cut from those blocks: each (doc, band) row carries
  the doc's whole key vector, so a pair leaves the exchange once, from
  its first colliding band, with no pair-dedup exchange. SimHash
  verifies inside that reducer (Hamming ≤ r over the carried
  fingerprint lanes; the pigeonhole chunks give full recall for any
  radius); MinHash and embedding hand the candidates and the doc blocks
  to ``_verify_join_collect``: plain semi-join tasks fetch the
  candidate-touched payloads from the doc blocks (the corpus is not
  read again), and plain Ray verify tasks, one per group of candidate
  blocks, attach each pair's two payloads and score exact shingle
  Jaccard (one ``searchsorted`` over dense shingle ranks) or integer
  cosine.
- **exact n-gram Jaccard**: size-banded dense set-similarity join
  (recall 1.0, no LSH).

Every shuffle is ``shuffle.bucket_reduce``: rows hash to a few COARSE
buckets (about 2× the cluster's CPUs), one reduce task per bucket, and
the real high-cardinality keys (LSH band buckets, ids) are resolved
vectorized inside each bucket, never one Python call per key. All hash
seeds are fixed constants → deterministic under Ray task retries.
"""

from __future__ import annotations

from typing import Iterable, List

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from raycells.engine.shuffle import (
    _remote, block_tables, bucket_reduce, collect_refs, from_pandas_clean, materialized,
    row_blocks,
)

__all__ = [
    "content_hash64",
    "add_content_hash",
    "exact_dedup",
    "char_shingles",
    "minhash_signature",
    "MinHasher",
    "lsh_bands",
    "jaccard",
    "minhash_near_dup_pairs",
    "ngram_jaccard_near_dup_pairs",
    "simhash64",
    "simhash_near_dup_pairs",
    "embedding_near_dup_pairs",
    "dup_window_rows",
    "dup_span_report",
    "paragraph_dedup_manifest",
]

_MERSENNE = (1 << 61) - 1
_RNG_SEED = 0x5EED_C0DE


def content_hash64(texts: Iterable[str]) -> np.ndarray:
    """Deterministic 64-bit content hash per text — the vectorized
    rolling-polynomial kernel (analysis.fingerprint64: chunked ~2 MB
    working sets, reused scratch), carried as the int64 BIT PATTERN so
    Ray groupby stays on native Arrow blocks. Replaces the round-2
    per-row hashlib loop that capped exact-dedup throughput at Python
    speed."""
    from raycells.text.analysis import fingerprint64

    return fingerprint64(list(texts)).view(np.int64)


def add_content_hash(batch: pa.Table, col: str = "text") -> pa.Table:
    h = content_hash64(batch[col].to_pylist())
    return batch.append_column("content_hash", pa.array(h, pa.int64()))


def exact_dedup(ds, col: str = "text", id_col: str = "doc_id"):
    """Exact dedup: hash-partition on content hash, keep the min-id row
    per hash (deterministic winner). Returns the deduplicated Dataset of
    (content_hash, doc_id) — join back on id to recover payloads so the
    shuffle only ever moves 16-byte rows."""
    hashed = ds.map_batches(
        lambda b: pa.table(
            {
                id_col: b[id_col],
                "content_hash": pa.array(
                    content_hash64(b[col].to_pylist()), pa.int64()
                ),
            }
        ),
        batch_format="pyarrow",
    )

    def keep_first(group: pa.Table) -> pa.Table:
        df = group.to_pandas()
        winners = df.loc[df.groupby("content_hash")[id_col].idxmin()]
        return from_pandas_clean(winners)

    return bucket_reduce(hashed, ["content_hash"], keep_first)


# ---------------------------------------------------------------------------
# shingling + MinHash
# ---------------------------------------------------------------------------

_SHINGLE_BASE = np.uint64(1099511628211)
_SHINGLE_POWS: dict = {}  # k → (k,) uint64 powers of _SHINGLE_BASE
# utf-8 bytes hashed per pass of ``_shingle_sets``: each of its (bytes,)
# uint64 buffers stays ≈ 1 MB (a whole batch of long docs would make
# hundreds)
_SHINGLE_CHUNK_BYTES = 1 << 17


def _shingle_sets(texts: List[str], k: int = 5) -> List[np.ndarray]:
    """``char_shingles`` of every text. Docs are concatenated in
    ``_SHINGLE_CHUNK_BYTES`` groups and every window of a group hashed
    at once as ``k`` shifted multiply-adds over a cached power table;
    each doc then takes its own windows' slice (a window crossing into
    the next doc is never read) and dedupes it with a small sort."""
    pows = _SHINGLE_POWS.get(k)
    if pows is None:
        with np.errstate(over="ignore"):
            pows = _SHINGLE_POWS[k] = _SHINGLE_BASE ** np.arange(k, dtype=np.uint64)
    enc = [t.encode("utf-8") for t in texts]
    out = []
    lo = 0
    while lo < len(enc):
        hi, size = lo, 0
        while hi < len(enc) and (hi == lo or size + len(enc[hi]) <= _SHINGLE_CHUNK_BYTES):
            size += len(enc[hi])
            hi += 1
        x = np.frombuffer(b"".join(enc[lo:hi]), dtype=np.uint8).astype(np.uint64)
        n = max(x.size - k + 1, 0)
        h = x[:n].copy()  # pows[0] == 1
        for i in range(1, k):
            h += x[i : i + n] * pows[i]
        at = 0
        for e in enc[lo:hi]:
            if len(e) >= k:
                out.append(np.unique(h[at : at + len(e) - k + 1]))
            else:  # one whole-text shingle (0 for the empty text)
                out.append(np.array([(x[at : at + len(e)] * pows[: len(e)]).sum()], np.uint64))
            at += len(e)
        lo = hi
    return out


def char_shingles(text: str, k: int = 5) -> np.ndarray:
    """Distinct k-byte shingle hashes of one text: byte ``i`` of a window
    weighs ``_SHINGLE_BASE**i`` (uint64 wrap); |text| < k → one
    whole-text shingle."""
    return _shingle_sets([text], k)[0]


_MINHASHERS: dict = {}  # n_perm → MinHasher (reused task workers)


def _minhasher(n_perm: int) -> "MinHasher":
    """Per-worker memoized MinHasher: the permutation table is
    deterministic from ``n_perm``, so task stages can reuse it across
    batches and executions without actor-pool startup."""
    mh = _MINHASHERS.get(n_perm)
    if mh is None:
        mh = _MINHASHERS[n_perm] = MinHasher(n_perm)
    return mh


class MinHasher:
    """n_perm universal-hash MinHash over shingle sets.

    Stateful-stage material: permutation coefficients are built once per
    worker (``_minhasher`` memo for task stages; an actor's ``__init__``
    when used as a pool) from a fixed seed."""

    def __init__(self, n_perm: int = 64, seed: int = _RNG_SEED):
        rng = np.random.default_rng(seed)
        # odd multipliers + offsets in the Mersenne field
        self.a = (rng.integers(1, _MERSENNE, n_perm, dtype=np.int64) | 1).astype(
            np.uint64
        )
        self.b = rng.integers(0, _MERSENNE, n_perm, dtype=np.int64).astype(np.uint64)
        self.n_perm = n_perm
        self._bufs: dict = {}  # batch_signatures scratch, by name

    def signature(self, shingles: np.ndarray) -> np.ndarray:
        """(n_perm,) uint64 signature of one shingle set — one broadcasted
        (S, P) universal-hash matrix, column min."""
        x = shingles.astype(np.uint64)[:, None]
        with np.errstate(over="ignore"):
            hv = (x * self.a[None, :] + self.b[None, :]) % np.uint64(_MERSENNE)
        return hv.min(axis=0)

    # keep each (n_perm × shingles) hash matrix ≈ 4 MB (cache-resident;
    # a whole-batch matrix at ~1k shingles/doc would be hundreds of MB)
    _CHUNK_SHINGLES = 8192

    def batch_signatures(self, texts: List[str], k: int = 5) -> np.ndarray:
        """(n_texts, n_perm) signatures, bit-identical to ``signature``:
        docs grouped until ~_CHUNK_SHINGLES shingles, each group's
        DISTINCT shingles hashed once into a permutation-major (P, U)
        matrix, gathered to (P, shingles) and reduced per doc along the
        contiguous axis by ``np.minimum.reduceat``. Every matrix lives in
        reused scratch (a fresh ~1 MB temporary per step page-faults)."""
        sets = _shingle_sets(texts, k)
        out = np.empty((len(texts), self.n_perm), dtype=np.uint64)
        a, b = self.a[:, None], self.b[:, None]
        lo = 0
        while lo < len(texts):
            hi, total = lo, 0
            while hi < len(texts) and (total == 0 or total + sets[hi].size <= self._CHUNK_SHINGLES):
                total += sets[hi].size
                hi += 1
            counts = np.array([s.size for s in sets[lo:hi]], dtype=np.int64)
            # hash each DISTINCT shingle once, then gather: real corpora
            # repeat shingles heavily across documents (this fixture:
            # ~2k unique of 1M)
            uniq, inv = np.unique(np.concatenate(sets[lo:hi]), return_inverse=True)
            hv = self._scratch("hv", uniq.size)
            with np.errstate(over="ignore"):
                np.multiply(a, uniq, out=hv)
                hv += b
            _mod_mersenne(hv, self._scratch("fold", uniq.size))
            g = np.take(hv, inv, axis=1, out=self._scratch("gather", inv.size), mode="clip")
            starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
            out[lo:hi] = np.minimum.reduceat(g, starts, axis=1).T
            lo = hi
        return out

    def _scratch(self, name: str, n: int) -> np.ndarray:
        """(n_perm, n) uint64 view of a per-instance buffer, grown on
        demand (task workers reuse the memoized instance)."""
        buf = self._bufs.get(name)
        if buf is None or buf.size < self.n_perm * n:
            buf = self._bufs[name] = np.empty(self.n_perm * max(n, self._CHUNK_SHINGLES), np.uint64)
        return buf[: self.n_perm * n].reshape(self.n_perm, n)


def _mod_mersenne(x: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """``x % _MERSENNE`` for uint64 ``x``, in place (``tmp`` is scratch
    of the same shape). 2^61 ≡ 1 (mod M), so ``r = (x & M) + (x >> 61)``
    is congruent to ``x`` and at most M + 7; ``min(r, r - M)`` then
    subtracts M once exactly when ``r ≥ M`` (below M, ``r - M`` wraps
    past ``r``)."""
    m = np.uint64(_MERSENNE)
    np.right_shift(x, np.uint64(61), out=tmp)
    x &= m
    x += tmp
    np.subtract(x, m, out=tmp)
    np.minimum(x, tmp, out=x)
    return x


def minhash_signature(text: str, n_perm: int = 64, k: int = 5) -> np.ndarray:
    return MinHasher(n_perm).signature(char_shingles(text, k))


MINHASH_PARAMS_PARQUET = "/tmp/raycells_docs/minhash_params.parquet"


def ensure_minhash_params_parquet(
    path: str = MINHASH_PARAMS_PARQUET, n_perm: int = 64
) -> str:
    """Dump the MinHasher permutation constants (perm index, a, b — all
    < 2^61, int64-safe) once, idempotently: with the constants in a
    table, the ENTIRE MinHash+LSH pipeline — shingle hashing, the 64
    universal-hash minima, band folding, bucket candidate pairs and the
    exact-Jaccard verify — is reproducible in DuckDB SQL (the
    ``minhash_pairs`` oracle)."""
    import os

    import pyarrow.parquet as pq

    if os.path.exists(path):
        return path
    os.makedirs(os.path.dirname(path), exist_ok=True)
    mh = MinHasher(n_perm)
    tbl = pa.table(
        {
            "perm": pa.array(np.arange(n_perm, dtype=np.int64)),
            "a": pa.array(mh.a.astype(np.int64)),
            "b": pa.array(mh.b.astype(np.int64)),
        }
    )
    tmp = path + ".tmp"
    pq.write_table(tbl, tmp)
    os.replace(tmp, path)
    return path


def lsh_bands(signatures: np.ndarray, bands: int = 16) -> np.ndarray:
    """(n, n_perm) signatures → (n, bands) band-hash matrix. Each band
    hashes rows_per_band signature slots into one uint64 bucket key."""
    n, n_perm = signatures.shape
    r = n_perm // bands
    with np.errstate(over="ignore"):
        mixed = signatures.reshape(n, bands, r) * np.uint64(0x9E3779B97F4A7C15)
        out = np.zeros((n, bands), dtype=np.uint64)
        for j in range(r):  # r is tiny (4); the wide axis stays vectorized
            out = out * np.uint64(31) + mixed[:, :, j]
    return out


def jaccard(a: np.ndarray, b: np.ndarray) -> float:
    inter = np.intersect1d(a, b, assume_unique=True).size
    union = a.size + b.size - inter
    return inter / union if union else 1.0


def _pair_jaccard(id_a, id_b, text_a, text_b, k: int = 5) -> np.ndarray:
    """``jaccard(char_shingles(a), char_shingles(b))`` of every pair row,
    vectorized over one slice of pairs (Arrow columns; an id carries one
    text). Each distinct id is shingled once; the slice's shingles are
    ranked densely (one ``np.unique``), and each side becomes int64 keys
    ``row·U + rank``, sorted already because every set is sorted. One
    ``searchsorted`` of a's keys in b's counts every intersection."""
    n = len(id_a)
    if n == 0:
        return np.empty(0)
    ids = pc.dictionary_encode(pa.chunked_array([id_a, id_b]).combine_chunks())
    code = ids.indices.to_numpy()
    at = np.empty(len(ids.dictionary), np.int64)
    at[code] = np.arange(code.size)  # one row per distinct id (any copy)
    texts = pa.chunked_array([text_a, text_b]).combine_chunks().take(at).to_pylist()
    sets = _shingle_sets(texts, k)
    size = np.fromiter((s.size for s in sets), np.int64, count=len(sets))
    start = np.cumsum(size) - size
    rank = np.unique(np.concatenate(sets), return_inverse=True)[1]
    width = np.int64(rank.max() + 1)

    def keys(doc: np.ndarray) -> tuple:
        cnt = size[doc]
        end = np.cumsum(cnt)
        pos = np.repeat(start[doc] - end + cnt, cnt) + np.arange(end[-1])
        return np.repeat(np.arange(n, dtype=np.int64), cnt) * width + rank[pos], cnt

    ka, la = keys(code[:n])
    kb, lb = keys(code[n:])
    hit = kb[np.minimum(np.searchsorted(kb, ka), kb.size - 1)] == ka
    inter = np.bincount(ka[hit] // width, minlength=n)
    return inter / (la + lb - inter)  # ≥ 1: char_shingles never returns empty


# ---------------------------------------------------------------------------
# LSH candidate stage (shared by every near-dup pipeline)
# ---------------------------------------------------------------------------


# pairs per block in ``_lsh_pairs``' reducer: (pairs × bands) int64
# temporaries stay ≈ 2 MB however large one real bucket grows
_PAIR_BLOCK = 1 << 14


def _vectors_of(col: pa.ChunkedArray, width: int | None = None) -> np.ndarray:
    """List column → (rows, width) matrix of its values, ``width``
    defaulting to a FixedSizeList's size. A null row or a row of
    another length raises ``ValueError``."""
    arr = col.combine_chunks()
    if width is None:
        width = arr.type.list_size
    elif arr.null_count or (pc.list_value_length(arr).to_numpy(zero_copy_only=False) != width).any():
        raise ValueError(f"vector column rows must each hold {width} values")
    return arr.flatten().to_numpy().reshape(len(arr), width)


def _band_rows(id_col: str, carry: tuple, docs: pa.Table) -> pa.Table:
    """A band-row task over one keyed doc block (``_lsh_pairs``): each
    doc's ``bands`` exchange rows, doc-major — ``(band int32, key int64,
    id, keys)``, ``keys`` being the doc's whole key vector, then the
    ``carry`` columns."""
    keys = docs["_keys"].combine_chunks()
    n, bands = len(keys), keys.type.list_size
    doc = pa.array(np.repeat(np.arange(n), bands))
    cols = {
        "band": pa.array(np.tile(np.arange(bands, dtype=np.int32), n)),
        "key": keys.flatten(),
        id_col: docs[id_col].take(doc),
        "keys": keys.take(doc),
    }
    cols.update((c, docs[c].take(doc)) for c in carry)
    return pa.table(cols)


def _lsh_pairs(ds, id_col: str, keys_of, carry=(), within=None, payload=None):
    """Phase A of every near-dup pipeline: LSH candidate pairs through
    ONE bucket exchange, each distinct pair emitted once.

    ``keys_of(batch)`` gives the (n, bands) int64 bucket-key matrix of a
    batch (MinHash band hashes, sign-LSH table buckets, SimHash
    pigeonhole chunks). ``ds`` runs through ONE Ray Data execution, the
    read and ``keys_of`` fused in one operator, materialized as keyed
    doc blocks: the id, the ``carry`` columns, the ``payload`` column
    (if given) and ``_keys``, the doc's key vector as a FixedSizeList.
    Every later step is a plain Ray task: one ``_band_rows`` task per
    doc block makes each doc ``bands`` exchange rows
    ``(band, key, id, keys, *carry)``, and the exchange co-locates every
    (band, key) bucket. Each coarse group is reduced in one vectorized
    pass: its rows sorted by (band, key, id), every real bucket's
    distinct-id pairs (id_a < id_b) enumerated in ``_PAIR_BLOCK``
    blocks, those failing ``within`` dropped — if given,
    ``within(ca, cb)`` maps the two ends' (pairs, len(carry)) int64
    carried values to ``(keep mask, {column: per-pair values})`` — and a
    pair kept only where the bucket's band is its FIRST colliding band
    (the two key vectors differ in every band before it), so no
    pair-dedup exchange follows. A repeated id counts once when its
    copies carry the same key vector and raises ``ValueError`` when
    copies meeting in one bucket differ.

    Returns ``(cand, docs)``: the Dataset of ``(id_a, id_b)`` typed as
    ``id_col``, plus ``within``'s columns, and the refs of the doc
    blocks that hold rows, which Phase B's semi-join reads instead of
    running ``ds`` again. The doc blocks stay in the object store as
    long as the caller holds ``docs``: about 0.4 KB a doc on the
    benchmark's 2k-doc MinHash corpus (id, text and 128 B of keys),
    against ≈2.6 KB a doc of band rows that are materialized for the
    exchange anyway."""
    import ray.data as rd

    keep = (id_col, *carry) + ((payload,) if payload else ())

    def doc_keys(batch: pa.Table) -> pa.Table:
        keys = keys_of(batch)
        cols = {c: batch[c] for c in keep}
        cols["_keys"] = pa.FixedSizeListArray.from_arrays(
            pa.array(keys.reshape(-1), pa.int64()), keys.shape[1]
        )
        return pa.table(cols)

    docs = materialized(ds.map_batches(doc_keys, batch_format="pyarrow"))[0]
    docs = [ref for ref, _ in row_blocks(docs)]
    task = _remote(_band_rows)
    rows = rd.from_arrow_refs([task.remote(id_col, carry, ref) for ref in docs])

    block = _PAIR_BLOCK  # resolved on the driver, like the exchange width
    # within's columns, typed, for a group with no pairs
    none = np.empty((0, len(carry)), np.int64)
    empty = within(none, none)[1] if within else {}

    def pairs_of(group: pa.Table) -> pa.Table:
        out_a, out_b = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
        extra = {c: [v] for c, v in empty.items()}
        band = group["band"].to_numpy()
        key = group["key"].to_numpy()
        vecs = _vectors_of(group["keys"])
        car = np.stack([group[c].to_numpy() for c in carry], axis=1) if carry else None
        # rows by bucket, then id (ranked once by Arrow, so id order is
        # exact: bytewise for strings, numeric for integers)
        rank = pc.rank(group[id_col], tiebreaker="dense").to_numpy()
        order = np.lexsort((rank, key, band))
        b, k, r = band[order], key[order], rank[order]
        same = np.zeros(order.size, dtype=bool)  # row is in the previous row's bucket
        same[1:] = (b[1:] == b[:-1]) & (k[1:] == k[:-1])
        copy = same.copy()  # ... with the previous row's id
        copy[1:] &= r[1:] == r[:-1]
        if copy.any():
            at = np.flatnonzero(copy)
            differ = (vecs[order[at]] != vecs[order[at - 1]]).any(axis=1)
            if differ.any():
                dup = group[id_col][int(order[at[differ][0]])].as_py()
                raise ValueError(
                    f"{id_col} {dup!r} repeats with differing "
                    "payloads; near-dup pairs need one payload per id"
                )
            order, same = order[~copy], same[~copy]
        start = np.flatnonzero(~same)
        size = np.diff(np.append(start, order.size))
        # each row pairs with the rows after it in its bucket
        after = np.repeat(start + size, size) - 1 - np.arange(order.size)
        done = np.concatenate([[0], np.cumsum(after)])  # pairs before each row
        lo = 0
        while lo < order.size:
            hi = max(lo + 1, int(np.searchsorted(done, done[lo] + block, "right")) - 1)
            cnt = after[lo:hi]
            a = np.repeat(np.arange(lo, hi), cnt)
            ra = order[a]
            rb = order[a + 1 + np.arange(a.size) - np.repeat(done[lo:hi] - done[lo], cnt)]
            lo = hi
            cols = {}
            if within is not None:
                ok, cols = within(car[ra], car[rb])
                ra, rb = ra[ok], rb[ok]
                cols = {c: v[ok] for c, v in cols.items()}
            # the bucket's band is equal in both vectors, so it is the
            # pair's first colliding band iff no earlier band is
            first = np.argmax(vecs[ra] == vecs[rb], axis=1) == band[ra]
            out_a.append(ra[first])
            out_b.append(rb[first])
            for c, v in cols.items():
                extra[c].append(v[first])
        out = {
            "id_a": group[id_col].take(np.concatenate(out_a)),
            "id_b": group[id_col].take(np.concatenate(out_b)),
        }
        out.update((c, pa.array(np.concatenate(v))) for c, v in extra.items())
        return pa.table(out)

    return bucket_reduce(rows, ["band", "key"], pairs_of), docs


def minhash_near_dup_pairs(
    ds,
    col: str = "text",
    id_col: str = "doc_id",
    threshold: float = 0.7,
    n_perm: int = 64,
    bands: int = 16,
    k: int = 5,
    sink_dir: str | None = None,
):
    """MinHash+LSH near-dup pipeline, two-phase so the exchange never
    carries text:

    **Phase A — candidates** (``_lsh_pairs``). Task-stage signatures
    (the MinHasher's permutation table is memoized per worker) give
    each doc its (bands,) band-hash vector, the LSH key matrix, in the
    one Ray Data execution that reads the corpus into keyed doc blocks
    (id, text, band hashes); THE one exchange moves ``bands`` rows of
    ``bands + 2`` small ints per document instead of ``bands`` copies
    of the corpus, and each distinct candidate id pair comes out
    exactly once, from the bucket of its first colliding band.

    **Phase B — verify, fully distributed.** The DISTINCT candidate ids
    (16 B each — bounded by LSH design) filter the doc blocks in plain
    semi-join tasks (the corpus is read once), and each pair meets its
    two texts —
    broadcast block refs when the candidate-touched texts are small,
    else TWO co-partitioned ``hash_join`` exchanges (engine/joins.py),
    pair ⋈ text(id_a) ⋈ text(id_b) — verified in plain Ray tasks with
    exact shingle Jaccard (``_pair_jaccard``). No corpus-derived table is ever
    ``ray.get``-collected on the driver; only the final verified pairs
    (the output) come back. A ``doc_id`` repeated with differing texts
    raises ``ValueError`` (in Phase A when its copies share a bucket,
    else in Phase B when it is a candidate); exact duplicate rows count
    once.
    Returns a pyarrow Table (id_a < id_b, jaccard)."""
    def band_keys(batch: pa.Table) -> np.ndarray:
        sig = _minhasher(n_perm).batch_signatures(batch[col].to_pylist(), k)
        return lsh_bands(sig, bands).view(np.int64)

    cand, docs = _lsh_pairs(ds, id_col, band_keys, payload=col)

    def verify(batch: pa.Table) -> pa.Table:
        jac = _pair_jaccard(batch["id_a"], batch["id_b"], batch["text_a"], batch["text_b"], k)
        keep = np.flatnonzero(jac >= threshold)
        return pa.table(
            {
                "id_a": batch["id_a"].take(keep),
                "id_b": batch["id_b"].take(keep),
                "jaccard": pa.array(jac[keep], pa.float64()),
            }
        )

    out = _verify_join_collect(
        cand, docs, id_col=id_col, payload_col=col,
        payload_names=("text_a", "text_b"), verify_fn=verify,
        sink_dir=sink_dir,
    )
    if sink_dir is not None:
        # _verify_join_collect owns sink hygiene in every path (incl.
        # zero candidates), so `out` is always the summary dict here
        return out
    if out is None:
        return _no_pairs(cand, "jaccard")
    return _sorted_pairs(out)


def _sorted_pairs(pairs: pa.Table) -> pa.Table:
    """A pair table sorted by (id_a, id_b): numeric for integer ids,
    bytewise (Unicode code point) for strings."""
    return pairs.sort_by([("id_a", "ascending"), ("id_b", "ascending")])


def _no_pairs(cand, score: str) -> pa.Table:
    """The zero-row pair table when no candidate reached verify, its ids
    typed as the candidates' (string when they have no schema)."""
    schema = materialized(cand)[1]
    t = pa.string() if schema is None else schema.field("id_a").type
    return pa.table({"id_a": pa.array([], t), "id_b": pa.array([], t),
                     score: pa.array([], pa.float64())})


# candidate-touched payload sets at or under this ride the object store
# as broadcast block refs (each worker reads them zero-copy); above it,
# the co-partitioned hash-join path takes over
_VERIFY_BROADCAST_BYTES = 256 << 20


# a verify task takes consecutive candidate blocks until it holds at
# least max(_VERIFY_TASK_PAIRS, n_cand / _VERIFY_TASKS) pairs: a few
# thousand candidates run as one task, however many exchange reducers
# emitted them (each task builds the id → payload index once)
_VERIFY_TASK_PAIRS = 2048
_VERIFY_TASKS = 64


class _AttachPayloads:
    """Append payload_a/payload_b columns to candidate-pair slices from
    an id → payload index built once out of the candidate-touched
    payload blocks (Arrow ``index_in`` + ``take``, no per-row Python)."""

    def __init__(self, tabs, id_col, payload_col, payload_names):
        self.names = payload_names
        # block_tables raises on a NON-empty block with a bad schema, a
        # real producer bug
        tabs = block_tables(tabs, id_col)
        if not tabs:
            # n_cand > 0 guarantees candidate-touched payload rows exist;
            # reaching here means the semi-join prefilter dropped them
            raise ValueError(
                "no candidate-touched payload blocks reached the attach "
                "stage — semi-join prefilter emitted only empty blocks"
            )
        t = pa.concat_tables(tabs)
        self.ids = t[id_col].combine_chunks()
        self.vals = t[payload_col].combine_chunks()

    def __call__(self, batch: pa.Table) -> pa.Table:
        name_a, name_b = self.names
        ia = pc.index_in(batch["id_a"], value_set=self.ids)
        ib = pc.index_in(batch["id_b"], value_set=self.ids)
        if ia.null_count or ib.null_count:
            # index_in returns NULL for a missing id; a silent null
            # payload here would make verify_fn quietly drop (or
            # mis-score) the pair
            raise KeyError(
                "candidate pair references an id absent from the "
                "candidate-touched payload set"
            )
        return pa.table(
            {
                "id_a": batch["id_a"],
                "id_b": batch["id_b"],
                name_a: pc.take(self.vals, ia),
                name_b: pc.take(self.vals, ib),
            }
        )


def _verify_group(verify_fn, block, attach, path, n_payload, *blocks):
    """A verify task: the group's candidate blocks (``blocks[n_payload:]``)
    as one table, scored by ``verify_fn`` in slices of at most ``block``
    pairs. ``attach`` is ``(id_col, payload_col, payload_names)`` when
    the pairs still need their payloads, from the candidate-touched
    payload blocks ``blocks[:n_payload]`` (``_AttachPayloads``, built
    once per task); None when they already carry them. Returns the
    verified table, or with a ``path`` writes it there (when it has
    rows) and returns its row count."""
    pairs = pa.concat_tables(blocks[n_payload:])
    add = _AttachPayloads(blocks[:n_payload], *attach) if attach else (lambda t: t)
    out = pa.concat_tables(
        [verify_fn(add(pairs.slice(lo, block))) for lo in range(0, pairs.num_rows, block)]
    )
    if path is None:
        return out
    if out.num_rows:
        import pyarrow.parquet as pq

        pq.write_table(out, path)
    return out.num_rows


def _union_id_blocks(*tabs):
    """Worker-side union of candidate-pair blocks (at least one with
    rows) → one sorted Arrow array of the DISTINCT endpoint ids and its
    length (runs as a Ray task so the id set never lands on the
    driver)."""
    ids = pc.unique(pa.chunked_array(
        [t[c] for t in block_tables(tabs, "id_a") for c in ("id_a", "id_b")]
    ))
    return ids.take(pc.array_sort_indices(ids)), len(ids)


def _one_payload_per_id(t: pa.Table, id_col: str, payload_col: str) -> pa.Table:
    """Keep one row per id of (id, payload) rows; raise ``ValueError``
    on an id whose copies carry differing payloads."""
    t = t.sort_by(id_col)
    ids = t[id_col].to_numpy(zero_copy_only=False)
    rep = np.flatnonzero(ids[1:] == ids[:-1]) + 1
    if rep.size == 0:
        return t
    vals = t[payload_col]
    cur = pc.take(vals, pa.array(rep)).to_pylist()
    prev = pc.take(vals, pa.array(rep - 1)).to_pylist()
    for r, x, y in zip(rep, cur, prev):
        if x != y:
            raise ValueError(
                f"{id_col} {ids[r]!r} repeats with differing {payload_col} "
                "payloads; near-dup pairs need one payload per id"
            )
    keep = np.ones(t.num_rows, dtype=bool)
    keep[rep] = False
    return t.filter(pa.array(keep))


def _semi_join(wanted: pa.Array, id_col: str, payload_col: str, docs: pa.Table):
    """A semi-join task: the ``(id, payload)`` rows of one doc block
    whose id is in ``wanted`` (``_union_id_blocks``' array), and that
    table's ``(rows, bytes)``."""
    t = docs.select([id_col, payload_col]).filter(pc.is_in(docs[id_col], value_set=wanted))
    return t, (t.num_rows, t.nbytes)


def _verify_join_collect(
    cand_ds, docs, *, id_col, payload_col, payload_names, verify_fn,
    sink_dir=None,
):
    """Shared distributed Phase-B skeleton for the near-dup verifiers,
    every step a plain Ray task:

    1. bounded materialize of ``cand_ds``, which must hold each
       distinct (id_a, id_b) pair once (Phase A's first-collision
       emission guarantees it; nothing here deduplicates pairs) — the
       candidate set is output-sized by LSH design;
    2. DISTINCT candidate ids, unioned worker-side from the candidate
       block REFS (no driver collection of the id set), filter the doc
       blocks ``docs`` (``_lsh_pairs``' keyed blocks, which hold the
       ``payload_col`` — the corpus is not read again): one
       ``_semi_join`` task per block returns the candidate-touched
       ``(id, payload)`` rows with their row count and bytes. When an
       id repeats in the corpus, copies with identical payloads
       collapse to one and differing payloads raise ``ValueError`` (one
       bucket exchange, run only then);
    3. plain Ray verify tasks, one per group of consecutive candidate
       blocks holding at least max(``_VERIFY_TASK_PAIRS``, n_cand /
       ``_VERIFY_TASKS``) pairs. Candidate-touched payloads under
       ``_VERIFY_BROADCAST_BYTES`` stay in the object store and their
       block refs go to every task, which indexes them once and
       attaches + verifies its pairs in slices of ``_PAIR_BLOCK``
       (``_verify_group``). A larger payload set takes the scale path
       first, two co-partitioned ``hash_join`` exchanges
       (pair ⋈ payload(id_a) ⋈ payload(id_b)), and the tasks verify the
       joined blocks;
    4. only the verified pairs are collected, with one ``ray.get``.

    Returns the verified pa.Table (zero-row and typed when no pair
    passes, None when there is no candidate). With
    ``sink_dir`` each task writes its verified pairs to its own
    ``part-<i>.parquet`` instead (the pair table never needs one heap
    on a dup-heavy corpus) and a ``{"sink_dir", "n_pairs", "n_files"}``
    summary comes back, ``n_files`` counting the tasks that wrote rows.
    """
    import ray
    import ray.data as rd

    from raycells.engine.joins import hash_join

    cand = cand_ds.materialize()
    if sink_dir is not None:
        # the run OWNS the sink dir: a previous run's pair parquet left
        # behind would contradict the summary the caller publishes
        import shutil

        shutil.rmtree(sink_dir, ignore_errors=True)
        os.makedirs(sink_dir, exist_ok=True)
    pairs = row_blocks(cand)
    if not pairs:
        return None if sink_dir is None else {"sink_dir": sink_dir, "n_pairs": 0, "n_files": 0}

    # DISTINCT candidate ids stay in the object store: ONE Ray task
    # unions cand's materialized pair blocks into a single sorted plasma
    # array that every semi-join task reads — the id set never lands on
    # the driver.
    wanted_ref, n_ref = _remote(_union_id_blocks).options(num_returns=2).remote(
        *(ref for ref, _ in pairs)
    )
    fetch = _remote(_semi_join).options(num_returns=2)
    outs = [fetch.remote(wanted_ref, id_col, payload_col, ref) for ref in docs]
    n_wanted, *sizes = ray.get([n_ref, *(size for _, size in outs)])
    touched = [t for (t, _), (n, _) in zip(outs, sizes) if n]
    size = sum(b for _, b in sizes)
    if sum(n for n, _ in sizes) > n_wanted:
        # a candidate id repeats in the corpus: one payload per id, or
        # the attach would score whichever copy it met first
        blocks = row_blocks(bucket_reduce(
            rd.from_arrow_refs(touched), id_col,
            lambda g: _one_payload_per_id(g, id_col, payload_col),
        ))
        touched = [ref for ref, _ in blocks]
        size = sum(meta.size_bytes or 0 for _, meta in blocks)

    name_a, name_b = payload_names
    if size <= _VERIFY_BROADCAST_BYTES:
        payloads, attach = touched, (id_col, payload_col, payload_names)
    else:
        side = rd.from_arrow_refs(touched)
        side_a = side.map_batches(
            lambda b: pa.table({"_pid": b[id_col], name_a: b[payload_col]}),
            batch_format="pyarrow",
        )
        side_b = side.map_batches(
            lambda b: pa.table({"_pid": b[id_col], name_b: b[payload_col]}),
            batch_format="pyarrow",
        )
        with_a = hash_join(
            cand, side_a,
            key_left="id_a", key_right="_pid",
            keep_left=["id_a", "id_b"], keep_right=[name_a],
        )
        with_ab = hash_join(
            with_a, side_b,
            key_left="id_b", key_right="_pid",
            keep_left=["id_a", "id_b", name_a], keep_right=[name_b],
        )
        pairs, payloads, attach = row_blocks(with_ab), [], None

    n_cand = sum(meta.num_rows for _, meta in pairs)
    target = max(_VERIFY_TASK_PAIRS, n_cand // _VERIFY_TASKS)
    groups, group, rows = [], [], 0
    for ref, meta in pairs:
        group.append(ref)
        rows += meta.num_rows
        if rows >= target:
            groups.append(group)
            group, rows = [], 0
    if group:
        groups.append(group)
    fn_ref = ray.put(verify_fn)
    task = _remote(_verify_group)
    # _PAIR_BLOCK resolves here, on the driver, like the exchange width
    outs = ray.get([
        task.remote(
            fn_ref, _PAIR_BLOCK, attach,
            None if sink_dir is None else os.path.join(sink_dir, f"part-{i:05d}.parquet"),
            len(payloads), *payloads, *g,
        )
        for i, g in enumerate(groups)
    ])
    if sink_dir is not None:
        return {"sink_dir": sink_dir, "n_pairs": int(sum(outs)),
                "n_files": sum(1 for n in outs if n)}
    # the verified pair table is the RETURN VALUE, output-sized by LSH
    # design; callers expecting pair lists beyond one heap use sink_dir
    # no pair passed: the first task's zero-row table is typed
    return pa.concat_tables([t for t in outs if t.num_rows] or outs[:1])


# ---------------------------------------------------------------------------
# exact n-gram Jaccard (size-banded dense set-similarity join)
# ---------------------------------------------------------------------------

# Row-slices per size band: R independent (N/R)×N matmul block tasks per
# band at the cost of (2R+1)× shingle-exchange volume (see
# ngram_jaccard_near_dup_pairs). 4 keeps the biggest sf0.1 band's block
# under ~0.2 s while the slice shuffle stays < 100 MB.
_NGRAM_SLICES = 4


def ngram_jaccard_near_dup_pairs(
    ds,
    col: str = "text",
    id_col: str = "doc_id",
    threshold: tuple = (4, 5),
    k: int = 5,
):
    """EXACT n-gram Jaccard join: every pair with J ≥ num/den, recall 1.0
    (vs MinHash+LSH's probabilistic recall), as a size-banded dense
    set-intersection join.

    J ≥ num/den implies the size-ratio bound
    ``den·min(|A|,|B|) ≥ num·max(|A|,|B|)`` (J ≤ min/max), so a qualifying
    pair's set sizes lie within one factor of den/num — banding docs by
    ``⌊log(sz)/log(den/num)⌋`` puts every such pair in the same or
    adjacent bands. Each doc is emitted once to its own band and once as
    a GHOST to the band below; ONE ``bucket_reduce`` exchange on the
    band key; each reducer sorts its rows by band key and, inside each
    band group, intersections are computed dense: a local shingle
    vocabulary (np.unique of the group's hashes), a binary N×V float32
    matrix, and a row-chunked ``M @ M.T`` BLAS matmul — exact integers
    (binary dot sums < 2^24), no candidate enumeration at all. The
    integer threshold cut ``den·|A∩B| ≥ num·|A∪B|`` matches the DuckDB
    oracle (pipelines/oracles._ngram_jaccard_sql) bit-for-bit; jaccard
    is the elementwise double quotient of exact ints. Ghost-ghost pairs
    are skipped (they re-appear as native-native in the band above), so
    no pair is emitted twice and no dedupe pass is needed.

    Why not prefix filtering (SSJoin/PPJoin): this synthetic corpus has
    a tiny shingle vocabulary (624 distinct 5-grams at sf0.01, mean set
    size 204), so every shingle is hot and per-shingle candidate
    enumeration degenerates to Σsz² ≈ 3·10⁸ Python-level pair visits
    (66 s at sf0.1); the dense band matmul does the same work as ~0.1 s
    of BLAS. Shingle hashes ride as int64 BIT PATTERNS (CLAUDE.md
    uint64 rule). Returns (id_a, id_b, jaccard), id_a < id_b bytewise,
    lexsorted.

    A dominant band would serialize its matmul in one group task
    (measured 1.7 s of a 2.3 s total concentrated in two bands at
    sf0.1), so each band is split into ``_NGRAM_SLICES`` row-slices —
    the standard blocked-cartesian trade: natives land in ONE slice as
    matrix ROWS (hash of id), and every doc is duplicated to ALL
    slices as matrix COLUMNS (own band, plus the band below as a
    ghost), giving R independent (N/R)×N blocks per band, which the
    exchange spreads over its reducers, for (2R+1)× exchange volume.
    Pair (i, j) in one band is emitted only where the smaller id is the
    row; a native row × ghost column is emitted unconditionally (the
    ghost's own band never sees the native as a column) — each pair
    surfaces exactly once, no dedupe pass. 2.3 s → 1.3 s at sf0.1/32
    CPUs (measured with one Ray Data group task per band key).
    """
    num, den = threshold
    log_ratio = float(np.log(den / num))
    R = _NGRAM_SLICES

    def doc_sets(batch: pa.Table) -> pa.Table:
        import hashlib

        ids = batch[id_col].to_pylist()
        n_doc = len(ids)
        sets = _shingle_sets(batch[col].to_pylist(), k)  # sorted distinct uint64
        hs = [s.view(np.int64) for s in sets]
        szs = np.fromiter((s.size for s in sets), np.int64, count=n_doc)
        slices = np.fromiter(
            (
                int.from_bytes(hashlib.blake2b(str(i).encode(), digest_size=8).digest(), "little") % R
                for i in ids
            ),
            np.int64,
            count=n_doc,
        )
        bands = np.floor(np.log(szs.astype(np.float64)) / log_ratio).astype(
            np.int64
        )
        sh = pa.array(hs, pa.list_(pa.int64()))
        ids_arr = pa.array(ids, pa.string())

        def emit(gkey, isrow, ghost):
            return pa.table(
                {
                    "id": ids_arr,
                    "sz": pa.array(szs),
                    "gkey": pa.array(gkey),
                    "isrow": pa.array(np.full(n_doc, isrow)),
                    "ghost": pa.array(np.full(n_doc, ghost)),
                    "sh": sh,
                }
            )

        parts = [emit(bands * R + slices, True, False)]
        for r in range(R):
            parts.append(emit(bands * R + r, False, False))
            parts.append(emit((bands - 1) * R + r, False, True))
        return pa.concat_tables(parts)

    empty = pa.table(
        {
            "id_a": pa.array([], pa.string()),
            "id_b": pa.array([], pa.string()),
            "jaccard": pa.array([], pa.float64()),
        }
    )

    def band_pairs(group: pa.Table) -> pa.Table:
        isrow = group["isrow"].to_numpy(zero_copy_only=False)
        ghosts = group["ghost"].to_numpy(zero_copy_only=False)
        nr = int(isrow.sum())
        if nr == 0 or group.num_rows == nr:
            return empty
        ids = np.asarray(group["id"].to_pylist(), dtype=object)
        szs = group["sz"].to_numpy(zero_copy_only=False).astype(np.int64)
        lists = group["sh"].combine_chunks()
        values = lists.flatten().to_numpy(zero_copy_only=False)
        counts = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
        vocab, inv = np.unique(values, return_inverse=True)
        rows_of = np.repeat(np.arange(group.num_rows, dtype=np.int64), counts)
        m = np.zeros((group.num_rows, vocab.size), dtype=np.float32)
        m[rows_of, inv] = 1.0
        ridx = np.nonzero(isrow)[0]
        cidx = np.nonzero(~isrow)[0]
        mc = m[cidx]
        sz_c, id_c, ghost_c = szs[cidx], ids[cidx], ghosts[cidx]
        a_out, b_out, j_out = [], [], []
        chunk = max(1, (4 << 20) // max(1, 4 * vocab.size))  # ~4 MB rows
        for lo in range(0, ridx.size, chunk):
            sel = ridx[lo : lo + chunk]
            inter = np.rint(m[sel] @ mc.T).astype(np.int64)
            union = szs[sel, None] + sz_c[None, :] - inter
            ok = den * inter >= num * union
            # same-band column: emit only where the row id is smaller
            # (the symmetric slice emits the other orientation); ghost
            # column: emit always — the ghost's band never sees this
            # row as a column, so the pair has exactly one home.
            id_r = ids[sel]
            ok &= ghost_c[None, :] | (id_c[None, :] > id_r[:, None])
            ok &= id_c[None, :] != id_r[:, None]
            ii, jj = np.nonzero(ok)
            if ii.size == 0:
                continue
            ia, ib = id_r[ii], id_c[jj]
            swap = ia > ib  # bytewise id order, as the oracle's dk < dk
            a_out.append(np.where(swap, ib, ia))
            b_out.append(np.where(swap, ia, ib))
            j_out.append(inter[ii, jj] / union[ii, jj])
        if not a_out:
            return empty
        return pa.table(
            {
                "id_a": pa.array(np.concatenate(a_out), pa.string()),
                "id_b": pa.array(np.concatenate(b_out), pa.string()),
                "jaccard": pa.array(np.concatenate(j_out)),
            }
        )

    def bucket_pairs(t: pa.Table) -> pa.Table:
        # a bucket holds several gkeys: one band_pairs call per gkey
        # slice, so no pair crosses two gkeys
        t = t.sort_by("gkey")
        g = t["gkey"].to_numpy()
        lo = np.flatnonzero(np.diff(g, prepend=g[:1] - 1))
        hi = np.append(lo[1:], g.size)
        return pa.concat_tables(
            [empty] + [band_pairs(t.slice(a, b - a)) for a, b in zip(lo, hi)]
        )

    import ray

    pairs = bucket_reduce(
        ds.map_batches(doc_sets, batch_format="pyarrow"), "gkey", bucket_pairs
    )
    tabs = ray.get(collect_refs(pairs))
    tabs = [t for t in tabs if t.num_rows > 0]
    if not tabs:
        return empty
    return _sorted_pairs(pa.concat_tables(tabs))


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------

_TOKEN_HASHES: dict = {}  # token → uint64 (Zipfian vocab; reused workers)
_TOKEN_HASHES_MAX = 1 << 20


def _token_hashes(tokens: np.ndarray) -> np.ndarray:
    """Per-token 64-bit hash = the rolling polynomial fingerprint
    (text/analysis.fingerprint64) — SQL-expressible, which makes the
    whole SimHash pipeline oracle-checkable (a blake2b here would be a
    black box to DuckDB). Memoized per worker: vocabularies are Zipfian."""
    from raycells.text.analysis import fingerprint64

    out = np.empty(len(tokens), dtype=np.uint64)
    missing = [w for w in tokens if w not in _TOKEN_HASHES]
    if missing:
        if len(_TOKEN_HASHES) + len(missing) >= _TOKEN_HASHES_MAX:
            # Eviction wipes previously-cached tokens this batch still
            # needs — recompute the FULL request, not just `missing`,
            # so the lookup loop below can never KeyError.
            _TOKEN_HASHES.clear()
            missing = list(dict.fromkeys(tokens))
        _TOKEN_HASHES.update(zip(missing, fingerprint64(missing)))
    for k, w in enumerate(tokens):
        out[k] = _TOKEN_HASHES[w]
    return out


def _simhash_lanes(texts: List[str], bits: int) -> np.ndarray:
    """Token-frequency simhash per text as an (n, 2) uint64 array of
    lanes [lo, hi], fully vectorized per row: polynomial token hashes
    (memoized per worker) → ±1 bit matrix → weighted column sums → sign
    bits. Lane 0 folds the token hash's 64 bits; at ``bits=128`` lane 1
    folds its murmur3-finalizer remix (sim/hll._hash64 —
    SQL-reproducible; the HLL oracle carries the exact HUGEINT recipe),
    at ``bits=64`` lane 1 stays zero and is never computed."""
    from raycells.sim.hll import _hash64

    out = np.zeros((len(texts), 2), dtype=np.uint64)
    bit_idx = np.arange(64, dtype=np.uint64)
    for k, t in enumerate(texts):
        toks = t.split()
        if not toks:
            continue
        uniq, counts = np.unique(np.asarray(toks, dtype=object), return_counts=True)
        th = _token_hashes(uniq)
        for lane in range(bits // 64):
            if lane:
                th = _hash64(th)
            b = (th[:, None] >> bit_idx[None, :]) & np.uint64(1)  # (T, 64)
            v = ((b.astype(np.int64) * 2 - 1) * counts[:, None]).sum(axis=0)
            out[k, lane] = np.uint64(((v > 0).astype(np.uint64) << bit_idx).sum())
    return out


def simhash64(texts: List[str]) -> np.ndarray:
    """64-bit token-frequency simhash per text (``_simhash_lanes``)."""
    return _simhash_lanes(texts, 64)[:, 0]


def simhash128(texts: List[str]) -> np.ndarray:
    """128-bit token-frequency simhash per text, as an (n, 2) uint64
    array of lanes [lo, hi]; lane 0 == ``simhash64``. The wide
    fingerprint is the scale path past max_hamming ≈ 8, where 64-bit
    pigeonhole chunks shrink to ~7 bits and the buckets get dense."""
    return _simhash_lanes(texts, 128)


# SWAR popcount masks (Hacker's Delight 5-2)
_PC_M1 = np.uint64(0x5555555555555555)
_PC_M2 = np.uint64(0x3333333333333333)
_PC_M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
_PC_H = np.uint64(0x0101010101010101)


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Bit-parallel (SWAR) popcount per uint64 → uint8."""
    x = x - ((x >> np.uint64(1)) & _PC_M1)
    x = (x & _PC_M2) + ((x >> np.uint64(2)) & _PC_M2)
    x = (x + (x >> np.uint64(4))) & _PC_M4
    return ((x * _PC_H) >> np.uint64(56)).astype(np.uint8)


def simhash_chunk_params_wide(max_hamming: int, bits: int = 128):
    """(bit_lo, width) per pigeonhole chunk: the ``bits``-wide (64 or
    128) fingerprint splits into ``max_hamming + 1`` near-equal
    contiguous chunks, so any pair within Hamming ≤ max_hamming shares at
    least one exact chunk. max_hamming=3 at 64 bits gives the classic
    four 16-bit chunks; past r≈8 the 64-bit chunks shrink to ~7 bits and
    the buckets get dense, while 128 bits at r=12 still leaves ~9-bit
    chunks."""
    nchunks = max_hamming + 1
    bounds = [(bits * c) // nchunks for c in range(nchunks + 1)]
    return [(bounds[c], bounds[c + 1] - bounds[c]) for c in range(nchunks)]


def extract_chunk128(lo_lane: np.ndarray, hi_lane: np.ndarray, bit_lo: int, width: int) -> np.ndarray:
    """Bits [bit_lo, bit_lo+width) of the 128-bit word (lo_lane holds
    bits 0-63), vectorized; chunks may straddle the lane boundary."""
    mask = np.uint64((1 << width) - 1)
    if bit_lo >= 64:
        return (hi_lane >> np.uint64(bit_lo - 64)) & mask
    if bit_lo + width <= 64:
        return (lo_lane >> np.uint64(bit_lo)) & mask
    return ((lo_lane >> np.uint64(bit_lo)) | (hi_lane << np.uint64(64 - bit_lo))) & mask


def simhash_near_dup_pairs(
    ds, col: str = "text", id_col: str = "doc_id", max_hamming: int = 3, bits: int = 64
):
    """SimHash near-dup over ``bits``-wide (64 or 128) fingerprints:
    every id pair within Hamming ≤ ``max_hamming``, each once.

    One ``_lsh_pairs`` stage: the keys are the ``max_hamming + 1``
    contiguous pigeonhole chunks of the fingerprint
    (``simhash_chunk_params_wide`` — a pair within Hamming ≤ r shares ≥ 1
    exact chunk, so recall is full for ANY r), the fingerprint lanes
    ride the exchange, and the ``within`` filter is Hamming ≤ r, the sum
    of the per-lane SWAR popcounts. 128 bits is the scale path past
    r ≈ 8. Returns the Dataset of (id_a < id_b, hamming)."""
    if bits not in (64, 128):
        raise ValueError(f"bits must be 64 or 128, got {bits}")
    lanes = ("sh0", "sh1")[: bits // 64]
    params = simhash_chunk_params_wide(max_hamming, bits)

    def fingerprints(batch: pa.Table) -> pa.Table:
        sh = _simhash_lanes(batch[col].to_pylist(), bits).view(np.int64)
        return pa.table({id_col: batch[id_col], "sh0": sh[:, 0], "sh1": sh[:, 1]})

    def chunk_keys(batch: pa.Table) -> np.ndarray:
        lo, hi = (batch[c].to_numpy().view(np.uint64) for c in ("sh0", "sh1"))
        keys = [extract_chunk128(lo, hi, b, w) for b, w in params]
        return np.stack(keys, axis=1).view(np.int64)

    def within(a: np.ndarray, b: np.ndarray):
        ham = _popcount64((a ^ b).view(np.uint64)).sum(axis=1, dtype=np.int64)
        return ham <= max_hamming, {"hamming": ham}

    return _lsh_pairs(
        ds.map_batches(fingerprints, batch_format="pyarrow"),
        id_col, chunk_keys, carry=lanes, within=within,
    )[0]


# ---------------------------------------------------------------------------
# embedding cosine near-dup (sign-LSH buckets)
# ---------------------------------------------------------------------------

EMB_QUANT = 1 << 20  # embedding quantization scale (exact in float64)


def quantize_embeddings(emb: np.ndarray) -> np.ndarray:
    """floor(x·2^20 + 0.5) per component — the 2^-20-quantized integer
    view of an embedding. Exact in both numpy and SQL (the product and
    floor are identical IEEE doubles), and integer dot products of
    quantized 64-dim vectors stay < 2^47, so every similarity derived
    from them is an exact, engine-independent function."""
    return np.floor(np.asarray(emb, dtype=np.float64) * float(EMB_QUANT) + 0.5).astype(
        np.int64
    )


def lsh_planes_int(dim: int, n_bits: int) -> np.ndarray:
    """Deterministic integer sign-LSH hyperplanes in [−2^20, 2^20]:
    murmur3-finalizer mix of the flat (dim, bit) index. The mixer
    decorrelates planes as well as RNG gaussians (measured: 73k
    in-bucket pairs on the sf0.1 embeddings vs 73k gaussian — a plain
    LCG here left planes as shifted copies of each other and produced
    1.86 M pairs), while staying an exact integer function both numpy
    and the DuckDB oracles evaluate identically."""
    from raycells.sim.hll import _hash64

    key = (
        np.arange(dim, dtype=np.int64)[:, None] * n_bits
        + np.arange(n_bits, dtype=np.int64)[None, :]
    )
    h = _hash64(key.reshape(-1)).reshape(dim, n_bits)
    return (h % np.uint64(2 * EMB_QUANT + 1)).astype(np.int64) - EMB_QUANT


def int_cosine(eq_a: np.ndarray, eq_b: np.ndarray) -> np.ndarray:
    """Cosine of quantized integer vectors: all three dot products are
    exact int64, so dab / (sqrt(na)·sqrt(nb)) is bit-identical across
    engines (quantization error vs the float cosine is ~1e-6 —
    irrelevant for near-dup thresholds, decisive for oracle parity)."""
    dab = (eq_a * eq_b).sum(axis=1).astype(np.float64)
    na = (eq_a * eq_a).sum(axis=1).astype(np.float64)
    nb = (eq_b * eq_b).sum(axis=1).astype(np.float64)
    na[na == 0] = 1.0
    nb[nb == 0] = 1.0
    return dab / (np.sqrt(na) * np.sqrt(nb))


def embedding_near_dup_pairs(
    ds,
    col: str = "embedding",
    id_col: str = "vec_id",
    threshold: float = 0.95,
    n_planes: int = 8,
    n_tables: int = 8,
    dim: int = 64,
):
    """Near-duplicate vectors, two-phase so the exchange never carries
    embeddings (mirrors ``minhash_near_dup_pairs``):

    **Phase A — candidates** (``_lsh_pairs``). Multi-table sign-LSH (``n_tables``
    independent ``n_planes``-plane sets — the banding trick) over the
    2^-20-QUANTIZED integer vectors with deterministic integer planes:
    every bucket bit is exact integer arithmetic, reproducible under
    retries AND by the DuckDB oracle. The (n, n_tables) bucket matrix
    is the ``_lsh_pairs`` key matrix, so each distinct candidate pair
    comes out once, from its first colliding table; the one Ray Data
    execution that reads the vectors keeps them in keyed doc blocks.

    **Phase B — verify, fully distributed** (the shared
    ``_verify_join_collect`` skeleton):
    DISTINCT-candidate-id semi-join tasks over the doc blocks (the
    vectors are read once) → payloads meet pairs
    adaptively (broadcast block refs / co-partitioned hash joins) →
    integer-cosine ≥ threshold per slice of pairs, the vectors read
    straight from the list values (``_vectors_of``). Only the verified pairs reach
    the driver. More tables → higher recall; the candidate set is
    output-sized by LSH design."""
    planes = lsh_planes_int(dim, n_planes * n_tables)

    def table_keys(batch: pa.Table) -> np.ndarray:
        eq = quantize_embeddings(_vectors_of(batch[col], dim))
        sig = (eq @ planes > 0).astype(np.int64).reshape(len(eq), n_tables, n_planes)
        bucket = np.zeros((len(eq), n_tables), dtype=np.int64)
        for p in range(n_planes):
            bucket = (bucket << 1) | sig[:, :, p]
        return bucket

    cand, docs = _lsh_pairs(ds, id_col, table_keys, payload=col)

    def verify(batch: pa.Table) -> pa.Table:
        eq_a = quantize_embeddings(_vectors_of(batch["vec_a"], dim))
        eq_b = quantize_embeddings(_vectors_of(batch["vec_b"], dim))
        sims = int_cosine(eq_a, eq_b)
        hit = np.flatnonzero(sims >= threshold)
        return pa.table(
            {
                "id_a": batch["id_a"].take(hit),
                "id_b": batch["id_b"].take(hit),
                "cosine": pa.array(sims[hit], pa.float64()),
            }
        )

    out = _verify_join_collect(
        cand, docs, id_col=id_col, payload_col=col,
        payload_names=("vec_a", "vec_b"), verify_fn=verify,
    )
    if out is None:
        return _no_pairs(cand, "cosine")
    return _sorted_pairs(out)


# ---------------------------------------------------------------------------
# exact duplicated-substring spans (strided rolling windows)
# ---------------------------------------------------------------------------


def dup_window_rows(ds, id_col="doc_id", col="text", w=None, s=None,
                    drop_canonical=False):
    """Front half of the duplicated-substring operators, id-type-generic
    (int doc ids for the tabular table, string doc keys for the
    interleaved corpus): one text scan emitting (wh, id, p) per strided
    window (O(bytes) rolling hash — analysis.strided_window_fps), then a
    hash-bucketed exchange of those narrow rows where each coarse
    bucket keeps windows whose fingerprint repeats anywhere in the
    corpus — all occurrences (span-report shape) or all but the global
    min-(id, p) canonical copy (``drop_canonical``, removal-plan
    shape; all occurrences of a fingerprint land in one bucket, so the
    bucket-local first row after an (wh, id, p) sort IS the global
    canonical). Returns the kept (id, p) Dataset."""
    from raycells.text import analysis as ta

    w = ta.SPAN_W if w is None else w
    s = ta.SPAN_S if s is None else s

    def windows(b: pa.Table) -> pa.Table:
        ids = b[id_col].to_numpy(zero_copy_only=False)
        id_type = b.schema.field(id_col).type  # typed even when ri is
        # empty: pa.array on an empty object slice would infer NULL and
        # break block-schema stability on string-id corpora
        ri, pos, h = ta.strided_window_fps(b[col].to_pylist(), w, s)
        return pa.table(
            {
                "wh": pa.array(h.view(np.int64), pa.int64()),
                id_col: pa.array(ids[ri], id_type),
                "p": pa.array(pos, pa.int64()),
            }
        )

    def dup_filter(g: pa.Table) -> pa.Table:
        df = g.to_pandas().sort_values(["wh", id_col, "p"], kind="stable")
        sizes = df.groupby("wh", sort=False)["wh"].transform("size")
        keep = sizes.to_numpy() > 1
        if drop_canonical:
            wh = df["wh"].to_numpy()
            first = np.ones(len(wh), bool)
            first[1:] = wh[1:] != wh[:-1]
            keep &= ~first
        df = df.loc[keep, [id_col, "p"]]
        if len(df) == 0:
            return g.select([id_col, "p"]).slice(0, 0)
        return from_pandas_clean(df)

    return bucket_reduce(
        ds.map_batches(windows, batch_format="pyarrow"), "wh", dup_filter
    )


def _island_spans(ids: np.ndarray, ps: np.ndarray, id_col: str, w: int, s: int) -> pa.Table:
    """Merge (id, sorted-within-id position) rows into maximal
    stride-contiguous spans. Inputs MUST be sorted by (id, p)."""
    new = np.ones(len(ids), bool)
    new[1:] = (ids[1:] != ids[:-1]) | (ps[1:] - ps[:-1] != s)
    sidx = np.flatnonzero(new)
    ends = np.append(sidx[1:], len(ids))
    return pa.table(
        {
            id_col: pa.array(ids[sidx]),
            "span_start": pa.array(ps[sidx], pa.int64()),
            "span_end": pa.array(ps[ends - 1] + w, pa.int64()),
            "n_windows": pa.array(ends - sidx, pa.int64()),
        }
    )


def dup_span_report(ds, id_col="doc_id", col="text", w=None, s=None,
                    sink_dir=None, combine=False):
    """Duplicated-substring spans over any (id, text) Dataset: windows
    whose fingerprint repeats anywhere merge per doc into maximal
    stride-contiguous spans of (id, span_start, span_end, n_windows).
    Collect path returns the pa.Table sorted by (id, span_start);
    ``sink_dir`` instead STREAMS the span blocks to partitioned parquet
    (checkpoint.sink_to_parquet summary back) — span output is
    duplication-proportional, corpus-scale on a boilerplate-heavy
    crawl, so the 100-TB path never concats it on one driver heap.

    ``combine=True`` is the map-side-combined plan, exploiting two
    batch-local facts (measured on the 600k-doc scaling corpus,
    10.7 M windows):

    1. A window whose hash repeats WITHIN its batch is already proven
       duplicated — only the batch-singletons (5.4%) plus one
       representative row per batch-locally-duplicated hash need the
       global hash exchange (5.9× fewer rows through it).
    2. Every window of a doc lives in ONE batch (docs don't straddle
       batches), so a doc with NO singleton windows (78.8% of docs —
       every window locally proven) island-merges ENTIRELY map-side and
       bypasses the doc exchange (only 31% of window rows route).

    Outputs are bit-identical either way (A/B-pinned in tests and
    equality-asserted on the 553k-span scaling corpus). The direct plan
    is the DEFAULT because on this single-node box it MEASURED FASTER —
    interleaved best-of-3: direct 29.3 s vs combined 36.4 s at 32 CPUs —
    Ray's sort exchange here is per-block-fixed-cost-bound, not
    bytes-bound, so the 3-6× row diet buys nothing while the combined
    plan pays a materialize barrier + a per-batch np.unique sort
    (the CLAUDE.md "exchange-heavy pipelines" lesson, re-confirmed).
    On a multi-node cluster whose exchange is NETWORK-bound the
    combined plan's row diet is the right trade — hence kept, tested,
    and switchable."""
    from raycells.text import analysis as ta

    w = ta.SPAN_W if w is None else w
    s = ta.SPAN_S if s is None else s

    def merge_spans(g: pa.Table) -> pa.Table:
        df = g.to_pandas().sort_values([id_col, "p"], kind="stable")
        return _island_spans(df[id_col].to_numpy(), df["p"].to_numpy(), id_col, w, s)

    if not combine:
        kept = dup_window_rows(ds, id_col, col, w, s, drop_canonical=False)
        # back half: each doc's kept positions meet in one group
        spans = bucket_reduce(kept, id_col, merge_spans)
        return _spans_out(spans, id_col, sink_dir)

    def windows_split(b: pa.Table) -> pa.Table:
        dids = b[id_col].to_numpy(zero_copy_only=False)
        ri, pos, h = ta.strided_window_fps(b[col].to_pylist(), w, s)
        if len(ri) == 0:
            return pa.table(
                {
                    "k": pa.array([], pa.int64()),
                    "wh": pa.array([], pa.int64()),
                    id_col: b[id_col].slice(0, 0),
                    "p": pa.array([], pa.int64()),
                    "pe": pa.array([], pa.int64()),
                    "nw": pa.array([], pa.int64()),
                }
            )
        vals, inv, cnt = np.unique(h, return_inverse=True, return_counts=True)
        localdup = cnt[inv] > 1
        # docs with >=1 singleton window must route through the exchanges
        routed_docs = np.zeros(len(dids), bool)
        routed_docs[np.unique(ri[~localdup])] = True
        routed = routed_docs[ri]
        hi = h.view(np.int64)
        ids_w = dids[ri]
        parts = []
        # k=0: singleton occurrences (all belong to routed docs)
        m0 = ~localdup
        # k=1: confirmed occurrences of routed docs
        m1 = localdup & routed
        for k, m, whv in ((0, m0, hi[m0]), (1, m1, np.zeros(int(m1.sum()), np.int64))):
            if m.any():
                n = int(m.sum())
                parts.append(
                    pa.table(
                        {
                            "k": pa.array(np.full(n, k, np.int64)),
                            "wh": pa.array(whv, pa.int64()),
                            id_col: pa.array(ids_w[m]),
                            "p": pa.array(pos[m], pa.int64()),
                            "pe": pa.array(np.full(n, -1, np.int64)),
                            "nw": pa.array(np.full(n, -1, np.int64)),
                        }
                    )
                )
        # k=2: one representative per distinct locally-dup hash (so other
        # batches' singletons can match it) — never an occurrence (p=-1)
        rep_wh = vals[cnt > 1].view(np.int64)
        if len(rep_wh):
            parts.append(
                pa.table(
                    {
                        "k": pa.array(np.full(len(rep_wh), 2, np.int64)),
                        "wh": pa.array(rep_wh, pa.int64()),
                        id_col: pa.array(np.repeat(ids_w[:1], len(rep_wh))),
                        "p": pa.array(np.full(len(rep_wh), -1, np.int64)),
                        "pe": pa.array(np.full(len(rep_wh), -1, np.int64)),
                        "nw": pa.array(np.full(len(rep_wh), -1, np.int64)),
                    }
                )
            )
        # k=3: non-routed docs island-merge map-side (bypass both exchanges)
        m3 = localdup & ~routed
        if m3.any():
            sp = _island_spans(ids_w[m3], pos[m3], id_col, w, s)
            parts.append(
                pa.table(
                    {
                        "k": pa.array(np.full(sp.num_rows, 3, np.int64)),
                        "wh": pa.array(np.zeros(sp.num_rows, np.int64)),
                        id_col: sp[id_col],
                        "p": sp["span_start"],
                        "pe": sp["span_end"],
                        "nw": sp["n_windows"],
                    }
                )
            )
        return pa.concat_tables(parts, promote_options="none")

    wtab = ds.map_batches(windows_split, batch_format="pyarrow").materialize()

    def _empty_wtab(b: pa.Table) -> pa.Table:
        # typed empty in the wtab schema; an EMPTY block passes through
        # map_batches with the UPSTREAM (id, text) schema (the
        # block_tables lesson) — id_col is present there, so the id type
        # is preserved from the block itself
        e = pa.array([], pa.int64())
        return pa.table(
            {
                "k": e, "wh": e,
                id_col: b[id_col].slice(0, 0),
                "p": e, "pe": e, "nw": e,
            }
        )

    def pick(ks):
        def fn(b: pa.Table) -> pa.Table:
            if b.num_rows == 0 or "k" not in b.column_names:
                return _empty_wtab(b)
            keep = pc.is_in(b["k"], value_set=pa.array(ks, pa.int64()))
            return b.filter(keep)
        return fn

    def singleton_dups(g: pa.Table) -> pa.Table:
        df = g.to_pandas()
        sizes = df.groupby("wh", sort=False)["wh"].transform("size")
        out = df.loc[(sizes.to_numpy() > 1) & (df["k"].to_numpy() == 0),
                     [id_col, "p"]]
        if len(out) == 0:
            return g.select([id_col, "p"]).slice(0, 0)
        return from_pandas_clean(out)

    ex1 = bucket_reduce(
        wtab.map_batches(pick([0, 2]), batch_format="pyarrow"), "wh", singleton_dups
    )
    confirmed = wtab.map_batches(
        lambda b: pick([1])(b).select([id_col, "p"]), batch_format="pyarrow"
    )
    spans_ex = bucket_reduce(confirmed.union(ex1), id_col, merge_spans)
    spans_direct = wtab.map_batches(
        lambda b: pick([3])(b)
        .select([id_col, "p", "pe", "nw"])
        .rename_columns([id_col, "span_start", "span_end", "n_windows"]),
        batch_format="pyarrow",
    )
    return _spans_out(spans_direct.union(spans_ex), id_col, sink_dir)


def _spans_out(spans, id_col: str, sink_dir):
    if sink_dir is not None:
        from raycells.engine.checkpoint import sink_to_parquet

        return sink_to_parquet(spans, sink_dir)
    import ray

    tabs = [t for t in ray.get(collect_refs(spans)) if t.num_rows]
    if not tabs:
        return None
    t = pa.concat_tables(tabs, promote_options="none")
    df = t.to_pandas().sort_values([id_col, "span_start"], kind="stable")
    return from_pandas_clean(df)


PARA_W = 8  # words per word-aligned "paragraph" segment


def paragraph_dedup_manifest(
    ds,
    id_col: str = "doc_id",
    col: str = "text",
    w: int = PARA_W,
    sink_dir: str | None = None,
):
    """C4-style PARAGRAPH-level exact dedup manifest (Raffel et al. C4:
    'discard all but one of any span occurring more than once'): each
    document splits into word-aligned ``w``-word segments, any segment
    occurring elsewhere in the corpus keeps only its FIRST (id, seg_idx)
    occurrence (id order = the id column's natural order — int ids sort
    numerically, string keys lexicographically), and the result is the
    per-document cleaning manifest ``(id_col, n_segs, n_kept,
    n_removed, chars_removed)``.

    Shape at scale: segmentation is map-side; exchange 1 hash-buckets
    (segment, id, idx) rows on a coarse bucket of the segment STRING
    (equal strings co-locate by construction) and each bucket reduces
    with ONE vectorized first-occurrence pass that immediately collapses
    to per-doc PARTIALS, so exchange 2 moves only O(buckets × docs)
    partial rows. Carrying segment text through exchange 1 costs
    ≈ corpus bytes ONCE and buys exact string identity (the
    fingerprint-keyed sibling is shuffle.exact_dedup_winners). The
    manifest itself is corpus-sized (one row per doc): ``sink_dir``
    streams it to partitioned parquet and returns the
    ``checkpoint.sink_to_parquet`` summary — the 100-TB path; without
    it the manifest Dataset is returned (still streaming — callers
    collect only at gate scales)."""
    import pandas as pd

    def segment(b: pa.Table) -> pa.Table:
        segs: list = []
        ids: list = []
        idxs: list = []
        id_vals = b[id_col].to_numpy(zero_copy_only=False)
        for did, text in zip(id_vals, b[col].to_pylist()):
            words = text.split(" ")
            n = max(1, -(-len(words) // w))
            segs.extend(" ".join(words[i * w : (i + 1) * w]) for i in range(n))
            ids.extend([did] * n)
            idxs.append(np.arange(n, dtype=np.int64))
        return pa.table(
            {
                "seg": pa.array(segs, pa.string()),
                id_col: pa.array(ids, b.schema.field(id_col).type),
                "seg_idx": pa.array(
                    np.concatenate(idxs) if idxs else np.empty(0, np.int64)
                ),
            }
        )

    def mark(g: pa.Table) -> pa.Table:
        df = g.to_pandas().sort_values(["seg", id_col, "seg_idx"], kind="stable")
        dup = (df.groupby("seg", sort=False).cumcount() > 0).to_numpy()
        nch = df["seg"].str.len().to_numpy().astype(np.int64)
        part = (
            pd.DataFrame(
                {
                    id_col: df[id_col].to_numpy(),
                    "n_segs": np.ones(len(df), np.int64),
                    "n_removed": dup.astype(np.int64),
                    "chars_removed": np.where(dup, nch, 0),
                }
            )
            .groupby(id_col, sort=False)
            .sum()
            .reset_index()
        )
        return from_pandas_clean(part)

    def fold(g: pa.Table) -> pa.Table:
        out = g.to_pandas().groupby(id_col, sort=False).sum().reset_index()
        out["n_kept"] = out["n_segs"] - out["n_removed"]
        return from_pandas_clean(
            out[[id_col, "n_segs", "n_kept", "n_removed", "chars_removed"]]
        )

    parts = bucket_reduce(ds.map_batches(segment, batch_format="pyarrow"), "seg", mark)
    manifest = bucket_reduce(parts, id_col, fold)
    if sink_dir is not None:
        from raycells.engine.checkpoint import sink_to_parquet

        return sink_to_parquet(manifest, sink_dir)
    return manifest

"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of ``(seed, params)``: the same seed
writes byte-identical files. The engine only ever sees the files.

Two inputs:

- an interleaved document table (``doc_id``, ``spans``) in the engine's
  own schema (``raycells.io.docsource.DOC_SCHEMA``), split into parquet
  fragments. ``media_share`` of all spans are media spans; ``hot_share``
  of those point into a small set of ``hot_tiles`` shared tiles, the
  rest at distinct tiles.
- a text corpus (``doc_id``, ``text``) for near-dup detection. Words
  are drawn uniformly from a seeded ``vocab_size``-word vocabulary, so
  the vocabulary size sets how many unrelated documents share shingles
  (and so the LSH candidate-to-pair ratio). Uniform rather than Zipf
  draws: under Zipf a few very common shingles make some seeds' LSH
  buckets explode (measured 420 to 7,728 candidates across eight seeds),
  which swings the job's time with the seed.
  ``dup_share`` of the documents are planted near-copies of an earlier
  document with ``edit_share`` of their words replaced.
"""

from __future__ import annotations

import os
import string

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from raycells.io.docsource import DOC_SCHEMA, SPANS_TYPE
from raycells.io.tilestore import REF_PREFIX

# tile seeds stay below 2**31: the tile store's LCG is int64-safe there
_SEED_HI = 1 << 31


def _vocabulary(rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` distinct pseudo-words of 2..9 lowercase letters."""
    letters = np.array(list(string.ascii_lowercase))
    words: dict = {}
    while len(words) < size:
        n = int(rng.integers(2, 10))
        words.setdefault("".join(rng.choice(letters, n)), None)
    return np.array(list(words), dtype=object)


def _words(rng, vocab: np.ndarray, n: int) -> np.ndarray:
    return vocab[rng.integers(0, len(vocab), n)]


def write_docs(out_dir: str, seed: int, *, n_docs: int, n_fragments: int,
               media_share: float, hot_share: float, hot_tiles: int,
               vocab_size: int, max_spans: int = 8) -> dict:
    """Write the interleaved document table as ``fragment=K.parquet``
    files and return what the checks need: per-fragment tile counts and
    the total."""
    rng = np.random.default_rng([seed, 1])
    vocab = _vocabulary(rng, vocab_size)
    n_spans = rng.integers(1, max_spans + 1, n_docs)
    total = int(n_spans.sum())
    is_media = np.zeros(total, dtype=bool)
    is_media[rng.choice(total, round(media_share * total), replace=False)] = True
    n_media = int(is_media.sum())
    hot_set = rng.choice(_SEED_HI, hot_tiles, replace=False)
    tile_seed = rng.choice(_SEED_HI, n_media, replace=False)
    hot = rng.random(n_media) < hot_share
    tile_seed[hot] = hot_set[rng.integers(0, hot_tiles, int(hot.sum()))]
    n_words = rng.integers(3, 13, total)
    words = _words(rng, vocab, int(n_words.sum()))

    kind = np.where(is_media, "media", "text").astype(object)
    ref = np.full(total, "", dtype=object)
    ref[is_media] = [f"{REF_PREFIX}{s}" for s in tile_seed]
    text = np.full(total, "", dtype=object)
    word_off = np.concatenate([[0], np.cumsum(n_words)])
    for i in np.flatnonzero(~is_media):
        text[i] = " ".join(words[word_off[i]:word_off[i + 1]])
    # span offset advances by len(text) + 1 (media spans carry no text)
    step = np.fromiter((len(t) + 1 for t in text), np.int32, count=total)
    span_off = np.concatenate([[0], np.cumsum(n_spans)])
    offset = np.zeros(total, dtype=np.int32)
    for d in range(n_docs):
        lo, hi = span_off[d], span_off[d + 1]
        offset[lo + 1:hi] = np.cumsum(step[lo:hi - 1])

    os.makedirs(out_dir, exist_ok=True)
    bounds = np.linspace(0, n_docs, n_fragments + 1).astype(int)
    frag_tiles = {}
    for f, (d0, d1) in enumerate(zip(bounds[:-1], bounds[1:])):
        s0, s1 = span_off[d0], span_off[d1]
        flat = pa.StructArray.from_arrays(
            [pa.array(kind[s0:s1], pa.string()), pa.array(text[s0:s1], pa.string()),
             pa.array(ref[s0:s1], pa.string()), pa.array(offset[s0:s1], pa.int32())],
            fields=list(SPANS_TYPE.value_type),
        )
        spans = pa.ListArray.from_arrays(
            pa.array(span_off[d0:d1 + 1] - s0, pa.int32()), flat, type=SPANS_TYPE)
        ids = pa.array([f"doc-{seed}-{i:09d}" for i in range(d0, d1)], pa.string())
        name = f"fragment={f}.parquet"
        pq.write_table(pa.Table.from_arrays([ids, spans], schema=DOC_SCHEMA),
                       os.path.join(out_dir, name),
                       row_group_size=max(64, (d1 - d0) // 16))
        frag_tiles[name] = int(is_media[s0:s1].sum())
    return {"tiles": n_media, "fragment_tiles": frag_tiles, "docs": n_docs}


def write_corpus(path: str, seed: int, *, n_docs: int, vocab_size: int,
                 dup_share: float, edit_share: float,
                 min_words: int = 20, max_words: int = 60) -> dict:
    """Write the near-dup text corpus as one parquet file and return the
    planted ``(id_a, id_b)`` pairs (``id_a < id_b``)."""
    rng = np.random.default_rng([seed, 2])
    vocab = _vocabulary(rng, vocab_size)
    docs: list = []
    planted = set()
    is_dup = rng.random(n_docs) < dup_share
    is_dup[0] = False
    for i in range(n_docs):
        if is_dup[i]:
            src = int(rng.integers(0, i))
            words = docs[src].copy()
            edit = rng.random(len(words)) < edit_share
            words[edit] = _words(rng, vocab, int(edit.sum()))
            planted.add((_doc_id(seed, src), _doc_id(seed, i)))
        else:
            words = _words(rng, vocab, int(rng.integers(min_words, max_words + 1)))
        docs.append(words)
    table = pa.table({
        "doc_id": pa.array([_doc_id(seed, i) for i in range(n_docs)], pa.string()),
        "text": pa.array([" ".join(w) for w in docs], pa.string()),
    })
    os.makedirs(os.path.dirname(path), exist_ok=True)
    pq.write_table(table, path, row_group_size=max(64, n_docs // 16))
    return {"planted": planted, "docs": n_docs}


def _doc_id(seed: int, i: int) -> str:
    return f"t-{seed}-{i:09d}"

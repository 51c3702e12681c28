"""The benchmark workloads.

Each workload owns its seeded inputs, a reference answer computed once
in the driver without Ray, one job (the engine call that is timed), the
check of a job's output against the reference, and a traced pass that
runs the same work stage by stage with every stage materialized.
"""

from __future__ import annotations

import glob
import hashlib
import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import gen
from procs import cpu_delta

from raycells.engine import checkpoint, driver, pipeline, shuffle, stages
from raycells.engine.joins import hash_join
from raycells.io import docsource
from raycells.text import dedup

LEVEL = pipeline.DEFAULT_LEVEL
THRESHOLD = 0.5  # near-dup Jaccard threshold
N_PERM, BANDS, SHINGLE_K = 64, 16, 5  # minhash_near_dup_pairs defaults

# Generator parameters per workload and size. "full" is what the
# benchmark measures; "tiny" keeps the self-tests quick.
SIZES = {
    "full": {
        "flagship": dict(n_docs=16000, n_fragments=4, media_share=0.3,
                         hot_share=0.2, hot_tiles=64, vocab_size=2000),
        "neardup": dict(n_docs=2000, vocab_size=300, dup_share=0.1,
                        edit_share=0.1),
        "fragment_sink": dict(n_docs=4000, n_fragments=4, media_share=0.3,
                              hot_share=0.2, hot_tiles=64, vocab_size=2000),
    },
    "tiny": {
        "flagship": dict(n_docs=400, n_fragments=2, media_share=0.3,
                         hot_share=0.2, hot_tiles=8, vocab_size=200),
        "neardup": dict(n_docs=200, vocab_size=100, dup_share=0.1,
                        edit_share=0.1),
        "fragment_sink": dict(n_docs=200, n_fragments=2, media_share=0.3,
                              hot_share=0.2, hot_tiles=8, vocab_size=200),
    },
}


def udf_seconds(ds) -> float:
    """Summed UDF time of a materialized Dataset's own operators (Ray 2.49
    exposes the numbers only through this summary; ``ds.stats()`` is text)."""
    summary = ds._get_stats_summary()
    return sum((op.udf_time or {}).get("sum", 0.0) for op in summary.operators_stats)


# ---------------------------------------------------------------------------
# flagship
# ---------------------------------------------------------------------------

_CELL_EXACT = {
    "cell_id": np.uint64, "n_tiles": np.int64, "valid_count": np.int64,
    "nodata_count": np.int64, "min_val": np.float64, "max_val": np.float64,
}


def cell_digest(df: pd.DataFrame) -> int:
    """Order-insensitive digest of a per-cell table's exact columns: the
    wrapping uint64 sum of per-row hashes. ``avg_tile_mean`` is a float
    sum whose last bits depend on merge order, so it is compared with a
    tolerance instead (``Flagship.check``)."""
    d = pd.DataFrame({c: df[c].to_numpy().astype(t) for c, t in _CELL_EXACT.items()})
    return int(pd.util.hash_pandas_object(d, index=False).to_numpy().sum())


def read_tiles(docs_dir: str) -> pa.Table:
    """Every media tile of the document table, exploded in the driver."""
    files = checkpoint.fragment_paths(docs_dir)
    return docsource.explode_media_spans(pq.read_table(files, columns=["doc_id", "spans"]))


def reference_cells(docs_dir: str) -> pd.DataFrame:
    """Per-cell table folded in the driver with pandas from
    ``stages.decode_stats(emit="stats")`` — no Ray, no exchange."""
    tiles = read_tiles(docs_dir)
    parts = [
        stages.decode_stats(tiles.slice(i, 4096), emit="stats", level=LEVEL)
        .select(["cell_id", "mean_val", "valid_count", "nodata_count", "min_val", "max_val"])
        .to_pandas()
        for i in range(0, tiles.num_rows, 4096)
    ]
    df = pd.concat(parts, ignore_index=True)
    out = df.groupby("cell_id").agg(
        n_tiles=("mean_val", "size"), sum_mean=("mean_val", "sum"),
        valid_count=("valid_count", "sum"), nodata_count=("nodata_count", "sum"),
        min_val=("min_val", "min"), max_val=("max_val", "max"),
    ).reset_index()
    out["avg_tile_mean"] = out["sum_mean"] / out["n_tiles"]
    return out.drop(columns=["sum_mean"])


class Flagship:
    name = "flagship"

    def __init__(self, work_dir: str, seed: int, size: str, ncpu: int):
        self.work_dir, self.docs_dir = work_dir, os.path.join(work_dir, "docs")
        self.seed, self.params, self.ncpu = seed, SIZES[size][self.name], ncpu

    def generate(self) -> None:
        info = gen.write_docs(self.docs_dir, self.seed, **self.params)
        self.tiles, self.docs = info["tiles"], info["docs"]

    def prepare_reference(self) -> None:
        ref = reference_cells(self.docs_dir)
        self.ref_digest = cell_digest(ref)
        self.ref_mean = ref.sort_values("cell_id")["avg_tile_mean"].to_numpy()

    def job(self) -> pd.DataFrame:
        return pipeline.flagship(self.docs_dir).to_pandas()

    def check(self, cells: pd.DataFrame) -> bool:
        if int(cells["n_tiles"].sum()) != self.tiles or cell_digest(cells) != self.ref_digest:
            return False
        mean = cells.sort_values("cell_id")["avg_tile_mean"].to_numpy()
        return bool(np.allclose(mean, self.ref_mean, rtol=1e-9, atol=0.0, equal_nan=True))

    def cleanup(self, result) -> None:
        pass

    def traced(self, tr, job: str, tree) -> tuple:
        """read → explode → fused decode/stats/cell-id/partials → merge,
        each stage materialized, counts on the spans. Returns (extra
        metrics, output ok)."""
        with tr.span("io.read_media", job) as read:
            ds = docsource.read_documents_media(self.docs_dir, num_blocks=2 * self.ncpu).materialize()
        read.update(rows_out=ds.count(), bytes_out=ds.size_bytes())
        with tr.span("io.explode", job) as explode:
            ex = pipeline.explode_stage(ds).materialize()
        explode["rows_out"] = ex.count()
        cpu0 = tree.cpu()
        with tr.span("engine.decode_stats", job) as decode:
            partials = ex.map_batches(
                lambda b: stages.decode_stats(b, emit="partials", level=LEVEL),
                batch_format="pyarrow",
            ).materialize()
        decode.update(cpu_s=cpu_delta(cpu0, tree.cpu()), rows_out=partials.count())
        nb = shuffle.scaled_buckets()
        with tr.span("engine.shuffle.merge", job) as merge:
            agg = shuffle.merge_cell_agg(partials, key="key", key_out="cell_id",
                                         num_buckets=nb).materialize()
        with tr.span("driver.collect", job):
            cells = agg.to_pandas()

        part_tab = pa.Table.from_pandas(partials.to_pandas(), preserve_index=False)
        bucket_rows = np.bincount(
            shuffle.add_bucket(part_tab, "key", nb)["_bucket"].to_numpy(), minlength=nb)
        merge.update(
            wait_s=tr.wall("engine.shuffle.merge", job) - udf_seconds(agg),
            rows_in=part_tab.num_rows, bytes_in=partials.size_bytes(), buckets=nb,
            bucket_rows_max=int(bucket_rows.max()),
            bucket_rows_median=float(np.median(bucket_rows)), rows_out=len(cells),
        )
        stages_s = sum(tr.wall(s, job) for s in (
            "io.read_media", "io.explode", "engine.decode_stats", "engine.shuffle.merge"))
        return {
            "trace.stage_wall_s": stages_s,
            "trace.job_s": stages_s + tr.wall("driver.collect", job),
            "driver.rows_collected": len(cells),
        }, self.check(cells)


# ---------------------------------------------------------------------------
# neardup
# ---------------------------------------------------------------------------

def _exact_jaccard(a: np.ndarray, b: np.ndarray) -> float:
    inter = np.intersect1d(a, b, assume_unique=True).size
    return inter / (a.size + b.size - inter)


def lsh_candidates(ids: list, texts: list) -> set:
    """Distinct (id_a < id_b) pairs sharing at least one LSH band bucket,
    from the engine's own MinHasher and band hashing."""
    sig = dedup.MinHasher(N_PERM).batch_signatures(texts, SHINGLE_K)
    bands = dedup.lsh_bands(sig, BANDS)
    order_ids = np.asarray(ids, dtype=object)
    out = set()
    for b in range(BANDS):
        col = bands[:, b]
        order = np.argsort(col, kind="stable")
        runs = np.flatnonzero(np.diff(col[order]) != 0) + 1
        for grp in np.split(order, runs):
            if grp.size < 2:
                continue
            members = sorted(order_ids[grp])
            for x in range(len(members)):
                for y in range(x + 1, len(members)):
                    out.add((members[x], members[y]))
    return out


class NearDup:
    name = "neardup"

    def __init__(self, work_dir: str, seed: int, size: str, ncpu: int):
        self.work_dir = work_dir
        self.path = os.path.join(work_dir, "corpus", "corpus.parquet")
        self.seed, self.params, self.ncpu = seed, SIZES[size][self.name], ncpu

    def generate(self) -> None:
        info = gen.write_corpus(self.path, self.seed, **self.params)
        self.planted, self.docs = info["planted"], info["docs"]

    def prepare_reference(self) -> None:
        t = pq.read_table(self.path)
        ids, texts = t["doc_id"].to_pylist(), t["text"].to_pylist()
        shingles = {i: dedup.char_shingles(x, SHINGLE_K) for i, x in zip(ids, texts)}
        self.candidates = lsh_candidates(ids, texts)
        self.ref_pairs = {}
        for a, b in self.candidates:
            j = _exact_jaccard(shingles[a], shingles[b])
            if j >= THRESHOLD:
                self.ref_pairs[(a, b)] = j
        self.planted_above = {
            p for p in self.planted
            if _exact_jaccard(shingles[p[0]], shingles[p[1]]) >= THRESHOLD
        }
        self.texts = (ids, texts)

    def _read(self):
        import ray.data as rd

        return rd.read_parquet(self.path, override_num_blocks=2 * self.ncpu)

    def job(self) -> pa.Table:
        return dedup.minhash_near_dup_pairs(self._read(), col="text", id_col="doc_id",
                                            threshold=THRESHOLD)

    def check(self, pairs: pa.Table) -> bool:
        got = dict(zip(zip(pairs["id_a"].to_pylist(), pairs["id_b"].to_pylist()),
                       pairs["jaccard"].to_pylist()))
        return len(got) == pairs.num_rows and got == self.ref_pairs

    def cleanup(self, result) -> None:
        pass

    def traced(self, tr, job: str, tree) -> tuple:
        """Driver-side signatures; the composite near-dup call; one
        ``hash_join`` of the candidate pairs with the text table."""
        import ray.data as rd

        ids, texts = self.texts
        with tr.span("text.dedup.signatures", job) as sig:
            dedup.lsh_bands(dedup.MinHasher(N_PERM).batch_signatures(texts, SHINGLE_K), BANDS)
        sig["docs_per_s"] = len(texts) / tr.wall("text.dedup.signatures", job)
        with tr.span("text.dedup.minhash", job) as mh:
            pairs = self.job()
        ok = self.check(pairs)
        found = set(zip(pairs["id_a"].to_pylist(), pairs["id_b"].to_pylist()))
        cand = sorted(self.candidates)
        mh.update(
            pairs_out=pairs.num_rows,
            useful_ratio=pairs.num_rows / max(1, len(cand)),
            recall=len(found & self.planted_above) / max(1, len(self.planted_above)),
        )

        cand_ds = rd.from_arrow(pa.table({
            "id_a": pa.array([a for a, _ in cand], pa.string()),
            "id_b": pa.array([b for _, b in cand], pa.string()),
        }))
        text_ds = self._read()
        with tr.span("engine.joins.hash_join", job) as join:
            joined = hash_join(cand_ds, text_ds, key_left="id_a", key_right="doc_id",
                               keep_left=["id_a", "id_b"], keep_right=["text"]).materialize()
        join.update(wait_s=tr.wall("engine.joins.hash_join", job) - udf_seconds(joined),
                    rows_in=len(cand) + len(ids), rows_out=joined.count())
        return {
            "trace.neardup_signature_share":
                tr.wall("text.dedup.signatures", job) / tr.wall("text.dedup.minhash", job),
            "text.dedup.lsh.candidate_pairs": len(cand),
            "trace.job_s": tr.wall("text.dedup.minhash", job),
            "driver.rows_collected": pairs.num_rows,
        }, ok and join["rows_out"] == len(cand)


# ---------------------------------------------------------------------------
# fragment_sink
# ---------------------------------------------------------------------------

def tree_digest(root: str) -> str:
    """sha256 over every file's relative path and bytes under ``root``."""
    h = hashlib.sha256()
    for p in sorted(glob.glob(os.path.join(root, "**", "*"), recursive=True)):
        if os.path.isfile(p):
            h.update(os.path.relpath(p, root).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def fragment_xor(path: str) -> str:
    """XOR of the per-doc span digests of one fragment, as the manifests
    record it."""
    xor = 0
    for d in docsource.span_digests(pq.read_table(path))["span_digest"].to_pylist():
        xor ^= int(d, 16)
    return f"{xor:032x}"


class FragmentSink:
    name = "fragment_sink"

    def __init__(self, work_dir: str, seed: int, size: str, ncpu: int):
        self.work_dir, self.docs_dir = work_dir, os.path.join(work_dir, "docs")
        self.out_root = os.path.join(work_dir, "out")
        self.seed, self.params, self.ncpu = seed, SIZES[size][self.name], ncpu
        self._n = 0

    def generate(self) -> None:
        info = gen.write_docs(self.docs_dir, self.seed, **self.params)
        self.frag_tiles, self.docs = info["fragment_tiles"], info["docs"]
        self.tiles = info["tiles"]

    def prepare_reference(self) -> None:
        self.frag_xor = {os.path.basename(p): fragment_xor(p)
                         for p in checkpoint.fragment_paths(self.docs_dir)}

    def _fresh_out(self) -> str:
        self._n += 1
        return os.path.join(self.out_root, f"job-{self._n}")

    def job(self) -> dict:
        out = self._fresh_out()
        first = checkpoint.run_fragments(self.docs_dir, out, driver.process_fragment)
        before = tree_digest(out)
        resume = checkpoint.run_fragments(self.docs_dir, out, driver.process_fragment)
        return {"out": out, "first": first, "resume": resume,
                "before": before, "after": tree_digest(out)}

    def check(self, r: dict) -> bool:
        man = r["first"]["manifests"]
        names = set(self.frag_tiles)
        return (
            set(man) == names
            and all(man[n]["tiles"] == self.frag_tiles[n]
                    and man[n]["span_digest_xor"] == self.frag_xor[n] for n in names)
            and set(r["resume"]["skipped"]) == names and not r["resume"]["done"]
            and r["before"] == r["after"]
        )

    def cleanup(self, r) -> None:
        if isinstance(r, dict):
            shutil.rmtree(r["out"], ignore_errors=True)

    def traced(self, tr, job: str, tree) -> tuple:
        """run_fragments, the resume call, one lineage pass, and the sink
        left on disk."""
        import ray.data as rd

        out = self._fresh_out()
        with tr.span("engine.checkpoint.run_fragments", job) as run:
            first = checkpoint.run_fragments(self.docs_dir, out, driver.process_fragment)
        man = first["manifests"].values()
        run["fragments"] = len(man)
        before = tree_digest(out)
        with tr.span("engine.checkpoint.resume", job):
            resume = checkpoint.run_fragments(self.docs_dir, out, driver.process_fragment)
        r = {"out": out, "first": first, "resume": resume,
             "before": before, "after": tree_digest(out)}
        ok = self.check(r)
        files = [p for p in glob.glob(os.path.join(out, "**", "*"), recursive=True)
                 if os.path.isfile(p)]
        sink_bytes = sum(os.path.getsize(p) for p in files)
        self.cleanup(r)
        with tr.span("io.lineage", job):
            frag = checkpoint.fragment_paths(self.docs_dir)[0]
            rd.read_parquet(frag).map_batches(
                docsource.span_digest_xor_partial, batch_format="pyarrow").to_pandas()
        tiles = read_tiles(self.docs_dir)
        with tr.span("engine.decode_stats.in_driver", job):
            for i in range(0, tiles.num_rows, 4096):
                stages.decode_stats(tiles.slice(i, 4096), emit="partials", level=LEVEL)
        run_s, resume_s = (tr.wall(s, job) for s in (
            "engine.checkpoint.run_fragments", "engine.checkpoint.resume"))
        return {
            "trace.fragment_sink_decode_share":
                tr.wall("engine.decode_stats.in_driver", job) / (run_s + resume_s),
            "engine.checkpoint.fragment.wall_s": float(np.median([v["wall_sec"] for v in man])),
            "engine.checkpoint.fragments": len(man),
            "engine.driver.process_fragment.pipeline_s":
                float(np.median([v["pipeline_sec"] for v in man])),
            "engine.checkpoint.resume_s": resume_s,
            "io.sink.bytes_out": sink_bytes,
            "io.sink.files_out": len(files),
            "trace.job_s": run_s + resume_s,
            "driver.rows_collected": len(man),
        }, ok


WORKLOADS = {w.name: w for w in (Flagship, NearDup, FragmentSink)}

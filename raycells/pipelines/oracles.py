"""DuckDB oracle SQL for ``__ray_entry__.oracle_sql()``.

Each string is the ANSI-SQL equivalent of the same-named query in
``raycells.pipelines.queries``, runnable by DuckDB with the driver's
pre-registered views (region nation customer supplier part orders
lineitem events documents embeddings) at sf=0.01. The geospatial family
reads the synthesized interleaved-doc table from its deterministic /tmp
path (written idempotently before any query runs).

Column names/aliases match the Ray pipelines verbatim; float aggregates
are rounded with the identical FLOOR(x + 0.5) expression tree on both
sides (CLAUDE.md recipe); everything else is integer.
The tile decode is reproducible in SQL because the tile store is pure
int64 LCG arithmetic (raycells/io/tilestore.py docstrings carry the
formulas).
"""

from __future__ import annotations

DOCS_GLOB = "/tmp/raycells_docs/sf0.01/*.parquet"

# shared CTE: explode the interleaved spans with 0-based span index
_EXPLODE = f"""
WITH ex AS (
    SELECT doc_id,
           unnest(spans) AS s,
           CAST(generate_subscripts(spans, 1) - 1 AS BIGINT) AS span_idx
    FROM read_parquet('{DOCS_GLOB}')
)
"""

# media spans with parsed tile seed. TRY_CAST, not CAST: DuckDB may push
# a downstream seed predicate below the kind filter, evaluating the cast
# on text spans' empty media_ref ('' → conversion error under CAST).
_MEDIA = _EXPLODE + """
, media AS (
    SELECT doc_id, span_idx,
           TRY_CAST(substr(s.media_ref, 8) AS BIGINT) AS seed
    FROM ex WHERE s.kind = 'media'
)
"""

# band-4 tile decode: the tilestore LCG (tilestore.py synth_band_values).
# The LCG splits into a per-TILE part (seed·2654435761 % 65520, seed % 33)
# and a per-CELL part hoisted into a 4096-row helper — (a+b) % m ==
# ((a%m)+(b%m)) % m with non-negative operands, so the CASE value is the
# identical exact integer at roughly half the per-row arithmetic.
_BAND_STATS = _MEDIA + """
, mh AS (
    SELECT doc_id, span_idx, seed,
           (seed * 2654435761) % 65520 AS sh, seed % 33 AS s33
    FROM media
),
ihelp AS MATERIALIZED (
    SELECT (CAST(range AS BIGINT) * 7) % 33 AS m7,
           ((CAST(range AS BIGINT) + 404) * 40503) % 65520 AS mhi
    FROM range(4096)
),
vals AS (
    SELECT m.doc_id, m.span_idx, m.seed,
           CASE WHEN (m.s33 + c.m7) % 33 = 0 THEN 0
                ELSE 1 + (m.sh + c.mhi) % 65520
           END AS v
    FROM mh m, ihelp c
),
tile_stats AS (
    SELECT doc_id, span_idx, seed,
           CAST(SUM(CASE WHEN v > 0 THEN 1 ELSE 0 END) AS BIGINT) AS valid_count,
           CAST(SUM(CASE WHEN v = 0 THEN 1 ELSE 0 END) AS BIGINT) AS nodata_count,
           MIN(v) FILTER (WHERE v > 0) AS min_val,
           MAX(v) AS max_val,
           CAST(SUM(v) AS BIGINT) AS sum_val
    FROM vals GROUP BY doc_id, span_idx, seed
)
"""

# tile centroid + grid cell from the seed (tilestore.centroids / cellid.grid_cell)
_GRID = """
, geo AS (
    SELECT t.*,
           CASE WHEN seed % 10 < 6 THEN
                (CASE seed % 3 WHEN 0 THEN -74.0 WHEN 1 THEN 2.35 ELSE 139.7 END)
                + ((seed * 31) % 2000 - 1000) / 1000.0
           ELSE ((seed * 9973) % 360000) / 1000.0 - 180.0 END AS lon,
           CASE WHEN seed % 10 < 6 THEN
                (CASE seed % 3 WHEN 0 THEN 40.7 WHEN 1 THEN 48.85 ELSE 35.7 END)
                + ((seed * 57) % 2000 - 1000) / 1000.0
           ELSE ((seed * 7919) % 170000) / 1000.0 - 85.0 END AS lat
    FROM tile_stats t
),
gridded AS (
    SELECT *, CAST(floor((lat + 90.0) / 0.25) * 1440 + floor((lon + 180.0) / 0.25) AS BIGINT) AS grid_cell
    FROM geo
)
"""

EDGES_PARQUET = "/tmp/raycells_docs/footprint_edges.parquet"
BBOX_PARQUET = "/tmp/raycells_docs/footprint_bboxes.parquet"

# tile centroids with identity for the PIP joins (same seed arithmetic as
# tilestore.centroids; the doc_id/span_idx ride along for the stats join)
_GEO_PTS = """
, geo AS (
    SELECT doc_id, span_idx, seed,
           CASE WHEN seed % 10 < 6 THEN
                (CASE seed % 3 WHEN 0 THEN -74.0 WHEN 1 THEN 2.35 ELSE 139.7 END)
                + ((seed * 31) % 2000 - 1000) / 1000.0
           ELSE ((seed * 9973) % 360000) / 1000.0 - 180.0 END AS lon,
           CASE WHEN seed % 10 < 6 THEN
                (CASE seed % 3 WHEN 0 THEN 40.7 WHEN 1 THEN 48.85 ELSE 35.7 END)
                + ((seed * 57) % 2000 - 1000) / 1000.0
           ELSE ((seed * 7919) % 170000) / 1000.0 - 85.0 END AS lat
    FROM media
)
"""

# exact even-odd ray-cast PIP of tile centroids against the footprint
# rings, over the unnested edge table (io/footprints.ensure_edges_parquet).
# The crossing expression mirrors geo/pip.points_in_polygon term for term
# (same IEEE double evaluation order), so hits match bit-for-bit; edges
# with y1 == y2 fail the straddle test before the division matters.
# The bbox prejoin is EXACT, not approximate: a point outside a
# footprint's bbox always has even ray-crossing parity (above/below the
# y-range or right of maxx → 0 crossings; left of minx in-range → the
# +x ray crosses the closed boundary an even number of times), so
# dropping those (point, footprint) pairs changes nothing the HAVING
# keeps. Cuts the 8 M-row cross join to the bbox-contained pairs
# (~20×, round 4).
_PIP_HITS = f"""
, cand_fp AS (
    SELECT g.doc_id, g.span_idx, g.lon, g.lat, bb.footprint_id
    FROM geo g JOIN read_parquet('{BBOX_PARQUET}') bb
      ON g.lon >= bb.minx AND g.lon <= bb.maxx
     AND g.lat >= bb.miny AND g.lat <= bb.maxy
),
pip_cross AS (
    SELECT ct.doc_id, ct.span_idx, e.footprint_id, e.category,
           CASE WHEN (e.y1 > ct.lat) <> (e.y2 > ct.lat)
                 AND ct.lon < e.x1 + (ct.lat - e.y1) / (e.y2 - e.y1) * (e.x2 - e.x1)
                THEN 1 ELSE 0 END AS c
    FROM cand_fp ct
    JOIN read_parquet('{EDGES_PARQUET}') e USING (footprint_id)
),
pip_hits AS (
    SELECT doc_id, span_idx, footprint_id, category
    FROM pip_cross
    GROUP BY doc_id, span_idx, footprint_id, category
    HAVING SUM(c) % 2 = 1
)
"""

# ---------------------------------------------------------------------------
# erased-tile stats in SQL: the full 10-cell-type decode
# (tilestore.synth_tiles / synth_tile_stats) is pure integer LCG
# arithmetic + per-type value mapping, so the per-tile masked min/max
# fold is SQL-reproducible across ALL types (floats: the value is an
# exact double / exact float32-rounded double of integer operands).
# ---------------------------------------------------------------------------

_WHEEL = (1, 8, 1, 8, 0, 1, 8, 5, 2, 9, 3, 4, 6, 7, 1, 8)  # tilestore.TYPE_WHEEL
_CT_VALUE_EXPR = {
    0: "CAST(raw % 251 + 1 AS DOUBLE)",  # UInt8
    1: "CAST(raw % 65520 + 1 AS DOUBLE)",  # UInt16
    2: "CAST(raw * 65537 + 1 AS DOUBLE)",  # UInt32
    3: "CAST(raw * 65537 + 1 AS DOUBLE)",  # UInt64
    4: "CAST(raw % 200 - 100 AS DOUBLE)",  # Int8
    5: "CAST(raw % 60000 - 30000 AS DOUBLE)",  # Int16
    6: "CAST((raw - 32760) * 65537 AS DOUBLE)",  # Int32
    7: "CAST((raw - 32760) * 65537 AS DOUBLE)",  # Int64
    8: "CAST(CAST((raw + 1) / 65521.0 AS REAL) AS DOUBLE)",  # Float32
    9: "(raw + 1) / 65521.0",  # Float64
}


def _erased_value_case() -> str:
    whens = " ".join(
        f"WHEN {pos} THEN {_CT_VALUE_EXPR[ct]}" for pos, ct in enumerate(_WHEEL)
    )
    return f"CASE seed % 16 {whens} END"


def _erased_tile_stats() -> str:
    """CTE chain ``etile``: per-tile masked stats of the 10-type erased
    decode (valid/nodata counts + min/max as double). Mirrors
    tilestore.synth_tile_stats; requires the ``media`` CTE."""
    return f"""
, emh AS (
    -- per-tile LCG constants hoisted ((a+b) % m identity, exact ints)
    SELECT doc_id, span_idx, seed,
           (seed * 2654435761) % 65521 AS sh, seed % 33 AS s33
    FROM media
),
eihelp_s AS MATERIALIZED (
    SELECT (CAST(range AS BIGINT) * 7) % 33 AS m7,
           (CAST(range AS BIGINT) * 40503) % 65521 AS mhi
    FROM range(4096)
),
eihelp_l AS MATERIALIZED (
    SELECT (CAST(range AS BIGINT) * 7) % 33 AS m7,
           (CAST(range AS BIGINT) * 40503) % 65521 AS mhi
    FROM range(31434)
),
evals AS (
    -- DuckDB's range() is not lateral-correlatable: branch the two tile
    -- shapes (64×64 and the 1-in-101 186×169 fixture) and UNION ALL
    SELECT doc_id, span_idx, seed,
           (sh + mhi) % 65521 AS raw, (s33 + m7) % 33 = 0 AS invalid
    FROM emh m, eihelp_s c WHERE m.seed % 101 <> 0
    UNION ALL
    SELECT doc_id, span_idx, seed,
           (sh + mhi) % 65521 AS raw, (s33 + m7) % 33 = 0 AS invalid
    FROM emh m, eihelp_l c WHERE m.seed % 101 = 0
),
etyped AS (
    SELECT doc_id, span_idx, seed, invalid,
           {_erased_value_case()} AS v
    FROM evals
),
etile AS (
    SELECT doc_id, span_idx, seed,
           CAST(COUNT(*) FILTER (WHERE NOT invalid) AS BIGINT) AS valid_count,
           CAST(COUNT(*) FILTER (WHERE invalid) AS BIGINT) AS nodata_count,
           MIN(v) FILTER (WHERE NOT invalid) AS min_val,
           MAX(v) FILTER (WHERE NOT invalid) AS max_val
    FROM etyped GROUP BY doc_id, span_idx, seed
)
"""


def _hilbert_chain(src: str, level: int = 8, x_expr: str = None, y_expr: str = None) -> str:
    """CTE chain computing the level-``level`` Hilbert cell id of each
    row's (lon, lat) — the geo/cellid.py encode() algorithm unrolled to
    ``level`` SQL steps (rotate-and-accumulate per bit plane, n = 2^level
    in the flip, matching xy2d's canonical rot). Emits CTE ``hcells`` =
    ``src`` columns + ``cell_id`` (BIGINT; the id fits in 62 bits).
    ``x_expr``/``y_expr`` override the grid-coordinate inputs (already
    clamped BIGINT expressions over ``src``'s columns) — used by the
    cube-face chain, which feeds (si, ti) instead of lon/lat."""
    n = 1 << level
    if x_expr is None:
        x_expr = f"LEAST(GREATEST(CAST(floor((lon + 180.0) / 360.0 * {n}) AS BIGINT), 0), {n - 1})"
    if y_expr is None:
        y_expr = f"LEAST(GREATEST(CAST(floor((lat + 90.0) / 180.0 * {n}) AS BIGINT), 0), {n - 1})"
    parts = [
        f"""
, h0 AS (
    SELECT *,
        {x_expr} AS hx0,
        {y_expr} AS hy0,
        CAST(0 AS BIGINT) AS hd0
    FROM {src}
)"""
    ]
    k = 0
    s = n >> 1
    while s > 0:
        k += 1
        parts.append(
            f"""
, h{k} AS (
    SELECT * EXCLUDE (hx{k - 1}, hy{k - 1}, hd{k - 1}, hrx, hry),
        hd{k - 1} + {s * s} * xor(3 * hrx, hry) AS hd{k},
        CASE WHEN hry = 0 THEN (CASE WHEN hrx = 1 THEN {n - 1} - hy{k - 1} ELSE hy{k - 1} END)
             ELSE hx{k - 1} END AS hx{k},
        CASE WHEN hry = 0 THEN (CASE WHEN hrx = 1 THEN {n - 1} - hx{k - 1} ELSE hx{k - 1} END)
             ELSE hy{k - 1} END AS hy{k}
    FROM (SELECT *,
            CASE WHEN (hx{k - 1} & {s}) > 0 THEN 1 ELSE 0 END AS hrx,
            CASE WHEN (hy{k - 1} & {s}) > 0 THEN 1 ELSE 0 END AS hry
          FROM h{k - 1})
)"""
        )
        s >>= 1
    shift = 2 * (30 - level)
    parts.append(
        f"""
, hcells AS (
    SELECT * EXCLUDE (hx{k}, hy{k}, hd{k}),
           (hd{k} << {shift + 1}) | (CAST(1 AS BIGINT) << {shift}) AS cell_id
    FROM h{k}
)"""
    )
    return "".join(parts)


def _s2face_chain(level: int = 6) -> str:
    """CTE chain computing the TRUE cube-face S2 cell of each ``geo``
    row (geo/cellid.encode_cube): unit vector → dominant-axis face
    (the nested sign/argmax np.where chain mirrored as nested CASEs) →
    gnomonic (u, v) from the S2 face table → quadratic st → clamped
    (si, ti) → the unrolled Hilbert chain. Emits ``hcells`` with
    ``face`` (0-5) and ``cell_id`` (within-face id, ≤ 61 bits).
    Every float expression matches the numpy tree token-for-token
    (radians → cos/sin → divide → sqrt); those libm kernels are
    bit-identical across numpy and DuckDB here, verified over the full
    centroid lattice."""
    n = 1 << level

    def st(w: str) -> str:
        return (
            f"CASE WHEN {w} >= 0.0 THEN 0.5 * sqrt(1.0 + 3.0 * {w}) "
            f"ELSE 1.0 - 0.5 * sqrt(1.0 - 3.0 * {w}) END"
        )

    return f"""
, s2xyz AS (
    SELECT *,
           cos(radians(lat)) * cos(radians(lon)) AS px,
           cos(radians(lat)) * sin(radians(lon)) AS py,
           sin(radians(lat)) AS pz
    FROM geo
), s2f AS (
    SELECT *,
           CASE WHEN abs(px) >= abs(py) AND abs(px) >= abs(pz)
                THEN (CASE WHEN px >= 0.0 THEN 0 ELSE 3 END)
                WHEN abs(py) >= abs(pz)
                THEN (CASE WHEN py >= 0.0 THEN 1 ELSE 4 END)
                ELSE (CASE WHEN pz >= 0.0 THEN 2 ELSE 5 END) END AS face
    FROM s2xyz
), s2uv AS (
    SELECT *,
           CASE face WHEN 0 THEN py / px WHEN 1 THEN -px / py WHEN 2 THEN -px / pz
                     WHEN 3 THEN pz / px WHEN 4 THEN pz / py ELSE -py / pz END AS s2u,
           CASE face WHEN 0 THEN pz / px WHEN 1 THEN pz / py WHEN 2 THEN -py / pz
                     WHEN 3 THEN py / px WHEN 4 THEN -px / py ELSE -px / pz END AS s2v
    FROM s2f
), s2st AS (
    SELECT *,
           LEAST(GREATEST(CAST(floor(({st('s2u')}) * {n}) AS BIGINT), 0), {n - 1}) AS si,
           LEAST(GREATEST(CAST(floor(({st('s2v')}) * {n}) AS BIGINT), 0), {n - 1}) AS ti
    FROM s2uv
)""" + _hilbert_chain("s2st", level=level, x_expr="si", y_expr="ti")


def _fingerprint_sql() -> str:
    """Rolling polynomial fingerprint (text/analysis.fingerprint64):
    h = seed·B^n + Σ byte[i]·B^(n-1-i) (mod 2^64), evaluated in HUGEINT
    with explicit mod-2^64 wraps. The seed·B^n product would overflow
    HUGEINT, so it is split into 32-bit halves (mulmod). Documents are
    ASCII (ord(char) == utf-8 byte); n_fingerprints = distinct h per
    source (the int64 bit-pattern reinterpretation on the Ray side is a
    bijection, so distinct counts agree)."""
    seed = 14695981039346656037
    base = 1099511628211
    m64 = "CAST('18446744073709551616' AS HUGEINT)"  # 2^64
    s_hi, s_lo = divmod(seed, 1 << 32)
    return f"""
WITH docs AS (
    SELECT row_number() OVER () AS rid, source, text,
           CAST(length(text) AS BIGINT) AS n
    FROM documents
),
pows AS (
    WITH RECURSIVE p(k, v) AS (
        SELECT CAST(0 AS BIGINT) AS k, CAST(1 AS HUGEINT) AS v
        UNION ALL
        SELECT k + 1, (v * {base}) % {m64} FROM p
        WHERE k < (SELECT MAX(n) FROM docs)
    )
    SELECT k, v FROM p
),
bytes AS (
    -- range() is not lateral-correlatable: bound by a constant and filter
    SELECT d.rid, d.n, r.range AS i,
           CAST(ord(substr(d.text, CAST(r.range + 1 AS INT), 1)) AS HUGEINT) AS b
    FROM docs d, range(8192) r WHERE r.range < d.n
),
terms AS (
    SELECT rid, SUM((b * p.v) % {m64}) AS acc
    FROM bytes JOIN pows p ON p.k = bytes.n - 1 - bytes.i
    GROUP BY rid
),
fp AS (
    SELECT d.source,
           ( (({s_lo} * pn.v) % {m64}
              + ((({s_hi} * pn.v) % 4294967296) * 4294967296)) % {m64}
             + COALESCE(t.acc, 0) ) % {m64} AS f
    FROM docs d
    JOIN pows pn ON pn.k = d.n
    LEFT JOIN terms t ON t.rid = d.rid
)
SELECT source, CAST(COUNT(DISTINCT f) AS BIGINT) AS n_fingerprints
FROM fp GROUP BY source
"""


def _hll_sql(group_col: str, key_col: str, table: str, alias: str, p: int = 12) -> str:
    """The HyperLogLog sketch reproduced end-to-end in SQL (sim/hll.py):
    murmur3 finalizer in HUGEINT with explicit mod-2^64 wraps and a
    32-bit-split mulmod, register index/rank from UBIGINT bit ops
    (rank via length(bin(rest))), per-register MAX, and the estimator's
    harmonic sum as the EXACT integer Σ2^(64−rho) — the same order-free
    formulation hll_estimate uses, so the two sides agree bit-for-bit."""
    m = 1 << p
    m64 = "CAST('18446744073709551616' AS HUGEINT)"
    c1 = 0xFF51AFD7ED558CCD
    c2 = 0xC4CEB9FE1A85EC53
    rest_mod = 1 << (64 - p)  # h mod 2^(64-p), then << p

    def mulmod(expr: str, c: int) -> str:
        return (
            f"CAST(((CAST({expr} AS HUGEINT) % 4294967296) * {c} % {m64}"
            f" + ((CAST({expr} AS HUGEINT) // 4294967296 * {c}) % 4294967296)"
            f" * 4294967296) % {m64} AS UBIGINT)"
        )

    return f"""
WITH keys AS (
    SELECT {group_col} AS g, CAST({key_col} AS UBIGINT) AS k FROM {table}
),
h1 AS (SELECT g, xor(k, k >> 33) AS h FROM keys),
h2 AS (SELECT g, {mulmod('h', c1)} AS h FROM h1),
h3 AS (SELECT g, xor(h, h >> 33) AS h FROM h2),
h4 AS (SELECT g, {mulmod('h', c2)} AS h FROM h3),
h5 AS (SELECT g, xor(h, h >> 33) AS h FROM h4),
rhos AS (
    SELECT g, CAST(h >> {64 - p} AS BIGINT) AS idx,
           CASE WHEN h % {rest_mod} = 0 THEN {64 - p + 1}
                ELSE 65 - length(bin((h % {rest_mod}) * {1 << p}))
           END AS rho
    FROM h5
),
reg AS (SELECT g, idx, MAX(rho) AS rho FROM rhos GROUP BY g, idx),
agg AS (
    SELECT g,
           SUM(CAST(power(2.0, 64 - rho) AS HUGEINT)) AS used_sum,
           COUNT(*) AS n_used
    FROM reg GROUP BY g
),
raw AS (
    SELECT g, {m} - n_used AS zeros,
           0.7213 / (1 + 1.079 / {m}) * {m} * {m} * 18446744073709551616.0
           / CAST(used_sum + ({m} - n_used) * {m64} AS DOUBLE) AS e
    FROM agg
),
corrected AS (
    SELECT g,
           CASE WHEN e <= 2.5 * {m} AND zeros > 0
                THEN {m} * ln({m}.0 / zeros) ELSE e END AS e
    FROM raw
)
SELECT g AS {group_col}, CAST(FLOOR(e + 0.5) AS BIGINT) AS {alias}
FROM corrected
"""


MINHASH_PARAMS_PARQUET = "/tmp/raycells_docs/minhash_params.parquet"


def _minhash_sql(threshold: float = 0.5, bands: int = 16, r: int = 4, k: int = 5) -> str:
    """MinHash+LSH near-dup reproduced END-TO-END in SQL
    (text/dedup.minhash_near_dup_pairs): 5-byte shingle hashes with the
    uint64-wrapping power table, the 64 universal-hash minima in the
    Mersenne field (a, b from the dumped params table — products stay
    under 2^125, HUGEINT-safe), the band fold as a base-31 polynomial
    (ring-hom: one mod 2^64 at the end equals the iterated wraps),
    bucket-collision candidate pairs, exact shingle-Jaccard verify.
    Texts are ASCII (ord(char) == utf-8 byte). Assumes every text has
    ≥ k bytes (this corpus: min 47)."""
    m64 = "CAST('18446744073709551616' AS HUGEINT)"
    mersenne = (1 << 61) - 1
    gold = 0x9E3779B97F4A7C15
    base = 1099511628211
    pows = [pow(base, j, 1 << 64) for j in range(k)]
    shingle_terms = " + ".join(
        f"CAST(ord(substr(text, CAST(r.range + {j + 1} AS INT), 1)) AS HUGEINT)"
        f" * {pows[j]}"
        for j in range(k)
    )
    band_weights = " ".join(
        f"WHEN {j} THEN {31 ** (r - 1 - j)}" for j in range(r)
    )
    return f"""
WITH docs AS (
    SELECT CAST(doc_id AS VARCHAR) AS dk, text,
           CAST(length(text) AS BIGINT) AS n
    FROM documents
),
sh_raw AS (
    SELECT dk, ({shingle_terms}) % {m64} AS h
    FROM docs, range(8192) r WHERE r.range <= n - {k}
),
shingles AS (SELECT DISTINCT dk, h FROM sh_raw),
-- hash each DISTINCT shingle value once (the corpus repeats shingles
-- heavily: ~2k distinct of 100k), then join back — the same ~50× cut
-- in Mersenne mulmod work the Ray side takes in MinHasher. MATERIALIZED
-- is load-bearing: hperm is referenced through two branches of the
-- banded self-join below.
huniq AS (SELECT DISTINCT h FROM shingles),
hperm AS MATERIALIZED (
    SELECT u.h, p.perm,
           CAST((((u.h * p.a) % {m64} + p.b) % {m64}) % {mersenne}
               AS UBIGINT) AS hv
    FROM huniq u, read_parquet('{MINHASH_PARAMS_PARQUET}') p
),
sigs AS (
    SELECT s.dk, hp.perm, MIN(hp.hv) AS sig
    FROM shingles s JOIN hperm hp ON hp.h = s.h
    GROUP BY s.dk, hp.perm
),
banded AS MATERIALIZED (
    SELECT dk, perm // {r} AS band,
           CAST(SUM(((CAST(sig AS HUGEINT) * {gold}) % {m64})
                    * CASE perm % {r} {band_weights} END) % {m64}
               AS UBIGINT) AS band_hash
    FROM sigs GROUP BY dk, band
),
cand AS (
    SELECT DISTINCT x.dk AS id_a, y.dk AS id_b
    FROM banded x
    JOIN banded y
      ON x.band = y.band AND x.band_hash = y.band_hash AND x.dk < y.dk
),
inter AS (
    SELECT c.id_a, c.id_b, CAST(COUNT(*) AS BIGINT) AS i
    FROM cand c
    JOIN shingles sa ON sa.dk = c.id_a
    JOIN shingles sb ON sb.dk = c.id_b AND sb.h = sa.h
    GROUP BY c.id_a, c.id_b
),
sizes AS (SELECT dk, CAST(COUNT(*) AS BIGINT) AS sz FROM shingles GROUP BY dk),
scored AS (
    SELECT c.id_a, c.id_b,
           CAST(COALESCE(i.i, 0) AS DOUBLE)
           / (za.sz + zb.sz - COALESCE(i.i, 0)) AS jaccard
    FROM cand c
    LEFT JOIN inter i ON i.id_a = c.id_a AND i.id_b = c.id_b
    JOIN sizes za ON za.dk = c.id_a
    JOIN sizes zb ON zb.dk = c.id_b
)
SELECT id_a, id_b, jaccard FROM scored WHERE jaccard >= {threshold}
"""


def _decontaminate_sql(
    w: int = 4, mod: int = 101, overlap: bool = False, final: str | None = None
) -> str:
    """Benchmark decontamination reproduced in SQL
    (pipelines/queries.q_decontaminate): the same polynomial token
    fingerprints as the simhash oracle, window hash = Σ (th·31^i mod
    2^64) mod 2^64 over each w-token window (per-term wrap then summed
    wrap — exactly numpy's uint64 elementwise-multiply + sum), blocklist
    = distinct window hashes of docs with doc_id % {mod} == 0, hits
    counted per non-benchmark doc. ``overlap`` switches to the
    q_contamination_overlap report: per contaminated doc the total
    window count and the 10%-rule verdict (10·n_hits ≥ n_windows).
    ``final`` replaces the whole tail after the window-hash CTE chain —
    other window-hash consumers (ngram_novelty) reuse the proven
    ``wh(dk, did, s, h)`` prefix this way (the unused plain ``blockset``
    CTE costs nothing when the final never references it)."""
    seed = 14695981039346656037
    base = 1099511628211
    m64 = "CAST('18446744073709551616' AS HUGEINT)"
    s_hi, s_lo = divmod(seed, 1 << 32)
    p31_rows = ", ".join(f"({i}, {31**i})" for i in range(w))
    return f"""
WITH docs AS (
    SELECT CAST(doc_id AS VARCHAR) AS dk, CAST(doc_id AS BIGINT) AS did,
           text
    FROM documents
),
tl AS MATERIALIZED (
    SELECT dk, did, string_split(text, ' ') AS toks FROM docs
),
tpos AS MATERIALIZED (
    SELECT dk, did, r.range AS pos,
           list_extract(toks, CAST(r.range + 1 AS INT)) AS tok
    FROM tl, LATERAL (SELECT unnest(range(len(toks))) AS range) r
),
tok_list AS (
    SELECT tok, CAST(length(tok) AS BIGINT) AS n
    FROM (SELECT DISTINCT tok FROM tpos WHERE tok <> '')
),
tpows AS (
    WITH RECURSIVE p(k, v) AS (
        SELECT CAST(0 AS BIGINT) AS k, CAST(1 AS HUGEINT) AS v
        UNION ALL
        SELECT k + 1, (v * {base}) % {m64} FROM p
        WHERE k < (SELECT MAX(n) FROM tok_list)
    )
    SELECT k, v FROM p
),
tterms AS (
    SELECT tb.tok, SUM((tb.b * p.v) % {m64}) AS acc
    FROM (
        SELECT tok, n, r.range AS i,
               CAST(ord(substr(tok, CAST(r.range + 1 AS INT), 1)) AS HUGEINT) AS b
        FROM tok_list, LATERAL (SELECT unnest(range(n)) AS range) r
    ) tb
    JOIN tpows p ON p.k = tb.n - 1 - tb.i
    GROUP BY tb.tok
),
thash AS MATERIALIZED (
    SELECT t.tok,
           CAST(( (({s_lo} * pn.v) % {m64}
                   + ((({s_hi} * pn.v) % 4294967296) * 4294967296)) % {m64}
                 + COALESCE(tt.acc, 0) ) % {m64} AS UBIGINT) AS th
    FROM tok_list t
    JOIN tpows pn ON pn.k = t.n
    LEFT JOIN tterms tt ON tt.tok = t.tok
),
p31 AS (SELECT * FROM (VALUES {p31_rows}) AS t(i, v)),
wh AS MATERIALIZED (
    SELECT t.dk, t.did, t.pos AS s,
           CAST(SUM((CAST(h.th AS HUGEINT) * p.v) % {m64}) % {m64}
                AS UBIGINT) AS h
    FROM tpos t
    JOIN tpos u ON u.dk = t.dk AND u.pos BETWEEN t.pos AND t.pos + {w - 1}
    JOIN thash h ON h.tok = u.tok
    JOIN p31 p ON p.i = u.pos - t.pos
    GROUP BY t.dk, t.did, t.pos
    HAVING COUNT(*) = {w}
),
blockset AS (SELECT DISTINCT h FROM wh WHERE did % {mod} = 0)
""" + (
        final
        if final is not None
        else f"""
, hits AS (
    SELECT w.dk, CAST(COUNT(*) AS BIGINT) AS n_hits
    FROM wh w JOIN blockset b ON b.h = w.h
    WHERE w.did % {mod} <> 0
    GROUP BY w.dk
),
wins AS (
    SELECT dk, CAST(COUNT(*) AS BIGINT) AS n_windows
    FROM wh WHERE did % {mod} <> 0 GROUP BY dk
)
SELECT h.dk AS doc_key, wn.n_windows, h.n_hits,
       CAST(CASE WHEN 10 * h.n_hits >= wn.n_windows THEN 1 ELSE 0 END
            AS BIGINT) AS dropped
FROM hits h JOIN wins wn ON wn.dk = h.dk
"""
        if overlap
        else f"""
SELECT w.dk AS doc_key, CAST(COUNT(*) AS BIGINT) AS n_hits
FROM wh w JOIN blockset b ON b.h = w.h
WHERE w.did % {mod} <> 0
GROUP BY w.dk
"""
    )


def _dedup_clusters_sql() -> str:
    """Near-dup cluster resolution over the MinHash pair list
    (pipelines/queries.q_dedup_clusters): connected components by
    recursive min-label propagation — a node adopts any smaller
    reachable label, so each node's MIN(lbl) is its component minimum
    (the component min is smaller than every other member, so the
    restriction lbl < dst never blocks its propagation). Canonical id
    and the Python union-find's ``min(members)`` are both lexicographic
    VARCHAR minima."""
    return f"""
WITH pairs AS MATERIALIZED (
    SELECT id_a, id_b FROM ({_minhash_sql()})
),
edges AS MATERIALIZED (
    SELECT id_a AS src, id_b AS dst FROM pairs
    UNION
    SELECT id_b AS src, id_a AS dst FROM pairs
),
nodes AS (SELECT DISTINCT src AS id FROM edges),
reach AS (
    WITH RECURSIVE r(id, lbl) AS (
        SELECT id, id FROM nodes
        UNION
        SELECT e.dst AS id, r.lbl
        FROM r JOIN edges e ON e.src = r.id
        WHERE r.lbl < e.dst
    )
    SELECT id, MIN(lbl) AS canon_key FROM r GROUP BY id
),
sized AS (
    SELECT canon_key, CAST(COUNT(*) AS BIGINT) AS cluster_size
    FROM reach GROUP BY canon_key
)
SELECT r.id AS doc_key, r.canon_key, s.cluster_size
FROM reach r JOIN sized s USING (canon_key)
"""


def _chunk_docs_sql(w: int = 200, s: int = 150) -> str:
    """Training-chunk table (queries.q_chunk_docs): fixed w-char windows
    at stride s, per-chunk rolling polynomial fingerprint — the
    _fingerprint_sql recipe applied per (doc, chunk): h = seed·B^len +
    Σ byte[i]·B^(len-1-i) mod 2^64, HUGEINT with the 32-bit-split seed
    mulmod, emitted as the int64 bit pattern. Chunk bytes address the
    ORIGINAL text at offset chunk_start + i (no substring materialize)."""
    seed = 14695981039346656037
    base = 1099511628211
    m64 = "CAST('18446744073709551616' AS HUGEINT)"
    s_hi, s_lo = divmod(seed, 1 << 32)
    return f"""
WITH docs AS (
    SELECT CAST(doc_id AS VARCHAR) AS doc_key, text,
           CAST(length(text) AS BIGINT) AS n
    FROM documents
),
chunks AS (
    -- LENGTH-UNBOUNDED (VERDICT r4 #1): the chunk-position bound derives
    -- from each doc's own length via expression-level range() + unnest
    -- (per-row correlatable, unlike the range() TABLE function) — no
    -- fixed range(64) cap, exactly ceil(n/s) (min 1) windows per doc.
    SELECT doc_key, text, chunk_idx,
           chunk_idx * {s} AS chunk_start,
           LEAST({w}, n - chunk_idx * {s}) AS chunk_len
    FROM (
        SELECT d.doc_key, d.text, d.n,
               unnest(range(GREATEST(1, CAST(CEIL(d.n / {s}.0) AS BIGINT))))
                   AS chunk_idx
        FROM docs d
    )
),
pows AS (
    WITH RECURSIVE p(k, v) AS (
        SELECT CAST(0 AS BIGINT) AS k, CAST(1 AS HUGEINT) AS v
        UNION ALL
        SELECT k + 1, (v * {base}) % {m64} FROM p WHERE k < {w}
    )
    SELECT k, v FROM p
),
bytes AS (
    SELECT c.doc_key, c.chunk_idx, c.chunk_len, r.range AS i,
           CAST(ord(substr(c.text,
                           CAST(c.chunk_start + r.range + 1 AS INT), 1))
                AS HUGEINT) AS b
    FROM chunks c, range({w}) r WHERE r.range < c.chunk_len
),
terms AS (
    SELECT doc_key, chunk_idx, SUM((b * p.v) % {m64}) AS acc
    FROM bytes JOIN pows p ON p.k = bytes.chunk_len - 1 - bytes.i
    GROUP BY doc_key, chunk_idx
),
hashed AS (
    SELECT c.doc_key, c.chunk_idx, c.chunk_start, c.chunk_len,
           ( (({s_lo} * pn.v) % {m64}
              + ((({s_hi} * pn.v) % 4294967296) * 4294967296)) % {m64}
             + COALESCE(t.acc, 0) ) % {m64} AS h
    FROM chunks c
    JOIN pows pn ON pn.k = c.chunk_len
    LEFT JOIN terms t ON t.doc_key = c.doc_key AND t.chunk_idx = c.chunk_idx
)
SELECT doc_key, chunk_idx, chunk_start, chunk_len,
       CAST(CASE WHEN h >= CAST('9223372036854775808' AS HUGEINT)
                 THEN h - {m64} ELSE h END AS BIGINT) AS chunk_hash
FROM hashed
"""


def _media_dedup_sql() -> str:
    """Exact multimodal dedup (queries.q_media_dedup): polynomial
    content hash over each media span's 4096 DECODED band values,
    Σ v_i·31^i mod 2^64, evaluated in HUGEINT (v < 2^17 and 31^i mod
    2^64 < 2^64 → each product < 2^81; the 4096-term sum < 2^93 —
    HUGEINT-safe, one mod at the end ≡ the iterated uint64 wraps).
    Hash emitted as the int64 bit pattern; winner = min (doc_id,
    span_idx) via row_number (doc ids are zero-padded, so lexicographic
    equals numeric order)."""
    m64 = "CAST('18446744073709551616' AS HUGEINT)"
    return (
        _MEDIA
        + f"""
        , mh AS (
            SELECT doc_id, span_idx, seed,
                   (seed * 2654435761) % 65520 AS sh, seed % 33 AS s33
            FROM media
        ),
        pows AS (
            WITH RECURSIVE p(i, w) AS (
                SELECT CAST(0 AS BIGINT), CAST(1 AS HUGEINT)
                UNION ALL
                SELECT i + 1, (w * 31) % {m64} FROM p WHERE i < 4095
            )
            SELECT i, w FROM p
        ),
        ihelp AS MATERIALIZED (
            SELECT p.w,
                   (CAST(c.range AS BIGINT) * 7) % 33 AS m7,
                   ((CAST(c.range AS BIGINT) + 404) * 40503) % 65520 AS mhi
            FROM range(4096) c JOIN pows p ON p.i = CAST(c.range AS BIGINT)
        ),
        hashes AS (
            SELECT m.doc_id, m.span_idx,
                   SUM(CAST(CASE WHEN (m.s33 + c.m7) % 33 = 0 THEN 0
                                 ELSE 1 + (m.sh + c.mhi) % 65520 END
                            AS HUGEINT) * c.w) % {m64} AS h
            FROM mh m, ihelp c
            GROUP BY m.doc_id, m.span_idx
        ),
        keyed AS (
            SELECT CAST(CASE WHEN h >= CAST('9223372036854775808' AS HUGEINT)
                             THEN h - {m64} ELSE h END AS BIGINT)
                       AS content_hash,
                   doc_id, CAST(span_idx AS BIGINT) AS span_idx
            FROM hashes
        ),
        ranked AS (
            SELECT *,
                   row_number() OVER (
                       PARTITION BY content_hash ORDER BY doc_id, span_idx
                   ) AS rn,
                   CAST(COUNT(*) OVER (PARTITION BY content_hash) AS BIGINT)
                       AS n_copies
            FROM keyed
        )
        SELECT content_hash, doc_id, span_idx, n_copies
        FROM ranked WHERE rn = 1
        """
    )


def _media_dedup_real_sql() -> str:
    """REAL-codec multimodal dedup (queries.q_media_dedup_real): the
    engine decodes actual PNG/WAV containers; this oracle reproduces the
    polynomial content hash from the raw LCG sample formula
    (media/stages._synth_payload: byte i of seed s = (s·31+i·7919+i²)
    % 256) — never touching a container byte — so a hash match proves
    the encode→decode→hash→dedup round-trip. Hash = Σ v_i·31^i mod 2^64
    in HUGEINT (v < 2^8, 31^i mod 2^64 < 2^64 → product < 2^72; the
    8000-term sum < 2^85 — HUGEINT-safe, one mod at the end ≡ iterated
    uint64 wraps). Per CLAUDE.md's constant-hoisting recipe the per-ROW
    LCG part ((s·31)%256) computes once per row and the per-SAMPLE part
    ((i·7919+i²)%256, 31^i) lives in a MATERIALIZED 8000-row helper.
    Winner = min media_id (zero-padded row index → lexicographic ==
    numeric); seed = row % hot duplicates whole containers."""
    m64 = "CAST('18446744073709551616' AS HUGEINT)"
    return f"""
        WITH nsel AS (
            SELECT CASE COUNT(*) WHEN 500 THEN 60 WHEN 5000 THEN 300
                                 WHEN 50000 THEN 3000 ELSE 60 END AS n
            FROM read_parquet('{DOCS_GLOB}')
        ),
        m AS (
            SELECT r.range AS r,
                   CASE r.range % 2 WHEN 0 THEN 'image' ELSE 'audio' END
                       AS media_type,
                   ((r.range % ((nsel.n * 2) // 3)) * 31) % 256 AS s31,
                   CASE r.range % 2 WHEN 0 THEN 1024 ELSE 8000 END AS nb
            FROM range(3000) r, nsel WHERE r.range < nsel.n
        ),
        pows AS (
            WITH RECURSIVE p(i, w) AS (
                SELECT CAST(0 AS BIGINT), CAST(1 AS HUGEINT)
                UNION ALL
                SELECT i + 1, (w * 31) % {m64} FROM p WHERE i < 7999
            )
            SELECT i, w FROM p
        ),
        ihelp AS MATERIALIZED (
            SELECT p.i, p.w,
                   (CAST(c.range AS BIGINT) * 7919
                    + CAST(c.range AS BIGINT) * CAST(c.range AS BIGINT))
                       % 256 AS ic
            FROM range(8000) c JOIN pows p ON p.i = CAST(c.range AS BIGINT)
        ),
        hashes AS (
            SELECT m.r,
                   SUM(CAST((m.s31 + c.ic) % 256 AS HUGEINT) * c.w)
                       % {m64} AS h
            FROM m, ihelp c
            WHERE c.i < m.nb
            GROUP BY m.r
        ),
        keyed AS (
            SELECT CAST(CASE WHEN h >= CAST('9223372036854775808' AS HUGEINT)
                             THEN h - {m64} ELSE h END AS BIGINT)
                       AS content_hash,
                   'media-' || lpad(CAST(r AS VARCHAR), 5, '0') AS media_id
            FROM hashes
        ),
        ranked AS (
            SELECT *,
                   row_number() OVER (
                       PARTITION BY content_hash ORDER BY media_id
                   ) AS rn,
                   CAST(COUNT(*) OVER (PARTITION BY content_hash) AS BIGINT)
                       AS n_copies
            FROM keyed
        )
        SELECT content_hash, media_id, n_copies
        FROM ranked WHERE rn = 1
        """


def _embedding_clusters_sql() -> str:
    """Semantic dedup clusters over the embedding near-dup pair list
    (pipelines/queries.q_embedding_dup_clusters): the _dedup_clusters_sql
    recursive min-label propagation, with INTEGER vec ids (canon =
    numeric MIN — identical to the engine's id-type-generic contraction
    order)."""
    return f"""
WITH pairs AS MATERIALIZED (
    SELECT id_a, id_b FROM ({_embedding_dups_sql()})
),
edges AS MATERIALIZED (
    SELECT id_a AS src, id_b AS dst FROM pairs
    UNION
    SELECT id_b AS src, id_a AS dst FROM pairs
),
nodes AS (SELECT DISTINCT src AS id FROM edges),
reach AS (
    WITH RECURSIVE r(id, lbl) AS (
        SELECT id, id FROM nodes
        UNION
        SELECT e.dst AS id, r.lbl
        FROM r JOIN edges e ON e.src = r.id
        WHERE r.lbl < e.dst
    )
    SELECT id, MIN(lbl) AS canon_id FROM r GROUP BY id
),
sized AS (
    SELECT canon_id, CAST(COUNT(*) AS BIGINT) AS cluster_size
    FROM reach GROUP BY canon_id
)
SELECT CAST(r.id AS BIGINT) AS vec_id, CAST(r.canon_id AS BIGINT) AS canon_id,
       s.cluster_size
FROM reach r JOIN sized s USING (canon_id)
"""


def _int_separable_resample_sql(w1d, suffix: str) -> str:
    """Separable 4-tap resample (taps at floor−1…floor+2, 2× scale) with
    INTEGER 1-D weights ``w1d`` — cubic (−1, 9, 9, −1) and B-spline
    (1, 23, 23, 1). Per out cell the 16 weighted taps are summed as one
    inline integer expression over 16×16 out cells instead of
    materializing + grouping a 28 M-row tap grid (the round-2 shape):
    same exact integers, ~2.5× less SQL wall time in the gate. The tap
    LCG splits into per-tile (seed·2654435761 % 65520, seed % 33) and
    per-tap constants hoisted into a 256-row (rr, cc) helper — same
    modular-identity rewrite as the lanczos oracle, exact integers."""
    rcols = ", ".join(
        f"(16 + LEAST(GREATEST(2*CAST(range AS BIGINT) + {dy} - 1, 0), 31))"
        f" AS ry{dy}"
        for dy in range(4)
    )
    ccols = ", ".join(
        f"(16 + LEAST(GREATEST(2*CAST(range AS BIGINT) + {dx} - 1, 0), 31))"
        f" AS cx{dx}"
        for dx in range(4)
    )
    tapcols = []
    for dy in range(4):
        for dx in range(4):
            ie = f"(ry{dy} * 64 + cx{dx})"
            tapcols.append(f"(({ie}) * 7) % 33 AS m7_{dy}_{dx}")
            tapcols.append(f"((({ie}) + 404) * 40503) % 65520 AS mh_{dy}_{dx}")
    terms = []
    for dy in range(4):
        for dx in range(4):
            v = (
                f"(CASE WHEN (m.s33 + t.m7_{dy}_{dx}) % 33 = 0 THEN 0 "
                f"ELSE 1 + (m.sh + t.mh_{dy}_{dx}) % 65520 END)"
            )
            terms.append(f"({w1d[dy] * w1d[dx]}) * {v}")
    acc = " + ".join(terms)
    return (
        _MEDIA
        + f"""
        , mh AS (SELECT doc_id, span_idx, seed,
                 (seed * 2654435761) % 65520 AS sh, seed % 33 AS s33
                 FROM media),
        rmap AS (SELECT {rcols} FROM range(16)),
        cmap AS (SELECT {ccols} FROM range(16)),
        tapc AS MATERIALIZED (SELECT {", ".join(tapcols)} FROM rmap, cmap),
        outcells AS (
            SELECT m.doc_id, m.span_idx, m.seed,
                   CAST({acc} AS BIGINT) AS v
            FROM mh m, tapc t
        )
        SELECT doc_id, span_idx, seed,
               CAST(SUM(v) AS BIGINT) AS sum_{suffix},
               CAST(MIN(v) AS BIGINT) AS min_{suffix},
               CAST(MAX(v) AS BIGINT) AS max_{suffix}
        FROM outcells GROUP BY doc_id, span_idx, seed
        """
    )


def _box_tap_chain(fr: int, fc: int, drs: int, dcs: int, nrows: int, ncols: int):
    """Shared hoisted-tap helper for the un-clamped box reads: returns
    (cte_sql, vexprs) where ``cte_sql`` defines ``mh`` (per-tile LCG
    constants) and ``tapc`` (per-out-cell tap constants, nrows×ncols
    rows) and ``vexprs[dr*dcs+dc]`` is the exact-integer tap value at
    source (16 + fr·rr + dr, 16 + fc·cc + dc). Same modular-identity
    hoist as the lanczos/separable oracles — exact integers, so any
    summation order downstream is unchanged."""
    tapcols = []
    vexprs = []
    for dr in range(drs):
        for dc in range(dcs):
            ie = (
                f"((16 + {fr}*CAST(r.range AS BIGINT) + {dr}) * 64 "
                f"+ (16 + {fc}*CAST(c.range AS BIGINT) + {dc}))"
            )
            tapcols.append(f"({ie} * 7) % 33 AS m7_{dr}_{dc}")
            tapcols.append(f"(({ie} + 404) * 40503) % 65520 AS mh_{dr}_{dc}")
            vexprs.append(
                f"(CASE WHEN (m.s33 + t.m7_{dr}_{dc}) % 33 = 0 THEN 0 "
                f"ELSE 1 + (m.sh + t.mh_{dr}_{dc}) % 65520 END)"
            )
    cte = f"""
            , mh AS (SELECT doc_id, span_idx, seed,
                     (seed * 2654435761) % 65520 AS sh, seed % 33 AS s33
                     FROM media),
            tapc AS MATERIALIZED (
                SELECT {", ".join(tapcols)}
                FROM range({nrows}) r, range({ncols}) c
            )"""
    return cte, vexprs


def _bilinear_sql() -> str:
    """Bilinear at exact 2× scale: source grid is offset 0.5, so 4·out
    is the exact-integer sum of the 2×2 source block — inlined per out
    cell via the hoisted tap chain (same integers as the round-3
    grid + double-GROUP-BY shape, ~3× less SQL wall time)."""
    chain, v = _box_tap_chain(2, 2, 2, 2, 16, 16)
    v4 = " + ".join(v)
    return (
        _MEDIA
        + chain
        + f"""
        , outcells AS (
            SELECT m.doc_id, m.span_idx, m.seed,
                   CAST({v4} AS BIGINT) AS v4
            FROM mh m, tapc t
        )
        SELECT doc_id, span_idx, seed,
               CAST(SUM(v4) AS BIGINT) AS sum_bl4,
               CAST(MIN(v4) AS BIGINT) AS min_bl4,
               CAST(MAX(v4) AS BIGINT) AS max_bl4
        FROM outcells GROUP BY doc_id, span_idx, seed
        """
    )


def _box_sum_sql(suffix: str) -> str:
    """AVERAGE at a 4×2 integer factor: 8·out is the exact-integer block
    sum, inlined per out cell via the hoisted tap chain."""
    chain, v = _box_tap_chain(2, 4, 2, 4, 16, 8)
    v8 = " + ".join(v)
    return (
        _MEDIA
        + chain
        + f"""
        , outcells AS (
            SELECT m.doc_id, m.span_idx, m.seed,
                   CAST({v8} AS BIGINT) AS v8
            FROM mh m, tapc t
        )
        SELECT doc_id, span_idx, seed,
               CAST(SUM(v8) AS BIGINT) AS sum_{suffix},
               CAST(MIN(v8) AS BIGINT) AS min_{suffix},
               CAST(MAX(v8) AS BIGINT) AS max_{suffix}
        FROM outcells GROUP BY doc_id, span_idx, seed
        """
    )


def _rms_sql() -> str:
    """RMS over the 4×2 box: rms = sqrt(ssq / 8) with the exact-integer
    sum of squares inlined per out cell; /8 is a power-of-two division
    and sqrt is correctly-rounded IEEE, so the emitted min/max doubles
    are bit-equal to numpy's (never float sums)."""
    chain, v = _box_tap_chain(2, 4, 2, 4, 16, 8)
    vcols = ", ".join(f"{x} AS v{j}" for j, x in enumerate(v))
    ssq = " + ".join(f"v{j} * v{j}" for j in range(len(v)))
    return (
        _MEDIA
        + chain
        + f"""
        , cells AS (
            SELECT m.doc_id, m.span_idx, m.seed, {vcols}
            FROM mh m, tapc t
        ),
        outcells AS (
            SELECT doc_id, span_idx, seed,
                   sqrt(CAST({ssq} AS DOUBLE) / 8) AS rms
            FROM cells
        )
        SELECT doc_id, span_idx, seed,
               MIN(rms) AS min_rms,
               MAX(rms) AS max_rms
        FROM outcells GROUP BY doc_id, span_idx, seed
        """
    )


def _mode_resample_sql() -> str:
    """Windowed MODE read, 4×2 box, inline: the 8 box values become 8
    columns per out cell, the mode = the value minimizing the encoded
    key ``(8 − count)·131072 + v`` (count ties → smallest value, the
    engine's documented tie rule; v < 65521 < 2^17 so the encoding is
    injective). Replaces the round-2 7 M-row grid + GROUP BY + window
    rank (~3× less SQL wall time in the gate); exact integers
    throughout. Tap LCG constants hoisted via _box_tap_chain."""
    chain, vexprs = _box_tap_chain(2, 4, 2, 4, 16, 8)
    vcols = [f"{v} AS v{j}" for j, v in enumerate(vexprs)]
    keys = []
    for j in range(8):
        cnt = " + ".join(
            f"(CASE WHEN v{k} = v{j} THEN 1 ELSE 0 END)" for k in range(8)
        )
        keys.append(f"(8 - ({cnt})) * 131072 + v{j}")
    return (
        _MEDIA
        + chain
        + f"""
        , cells AS (
            SELECT m.doc_id, m.span_idx, m.seed, {", ".join(vcols)}
            FROM mh m, tapc t
        ),
        modes AS (
            SELECT doc_id, span_idx, seed,
                   LEAST({", ".join(keys)}) % 131072 AS v
            FROM cells
        )
        SELECT doc_id, span_idx, seed,
               CAST(SUM(v) AS BIGINT) AS sum_mode,
               CAST(MIN(v) AS BIGINT) AS min_mode,
               CAST(MAX(v) AS BIGINT) AS max_mode
        FROM modes GROUP BY doc_id, span_idx, seed
        """
    )


def _lanczos_resample_sql() -> str:
    """Windowed LANCZOS (a=3) resample at exact 2× scale, reproducing
    the kernel's IEEE doubles BIT-FOR-BIT: numpy's sin is bit-identical
    to DuckDB's on this box (CLAUDE.md libm-parity note), so mirroring
    the exact expression tree — sinc(d)·sinc(d/3) per tap distance,
    sequential 6-term weight sum, w/s normalization, and the
    (dy, dx)-ordered left-associative 36-term tap accumulation of
    tilestore._synth_separable — yields identical floats. Per-tile
    emits: elementwise float MIN/MAX plus the exact quantized-integer
    sum Σ floor(v·1024 + 0.5)."""
    # tap distances at t = 0.5, in _lanczos_weights' stack order
    dists = ["2.5", "1.5", "0.5", "(1.0-0.5)", "(2.0-0.5)", "(3.0-0.5)"]
    raw = [
        f"(sin(pi()*{d})/(pi()*{d})) * (sin(pi()*({d}/3.0))/(pi()*({d}/3.0)))"
        for d in dists
    ]
    seq_sum = (
        f"((((({raw[0]}) + ({raw[1]})) + ({raw[2]})) + ({raw[3]})) "
        f"+ ({raw[4]})) + ({raw[5]})"
    )
    norm = ", ".join(f"(({r}) / s) AS w{i}" for i, r in enumerate(raw))
    # The LCG tap arithmetic splits into a per-TILE part and a per-TAP
    # part ((a+b) % m == ((a%m)+(b%m)) % m, operands non-negative):
    # hoist seed·2654435761 % 65520 and seed % 33 per tile, and the
    # 36 clamp/multiply tap constants into a 256-row (rr, cc) helper —
    # a ~3× cut with the identical CASE value (exact-integer equality,
    # so the DOUBLE taps and the weight accumulation are unchanged
    # bit-for-bit).
    rcols = ", ".join(
        f"(16 + LEAST(GREATEST(2*CAST(range AS BIGINT) + {dy} - 2, 0), 31))"
        f" AS ry{dy}"
        for dy in range(6)
    )
    ccols = ", ".join(
        f"(16 + LEAST(GREATEST(2*CAST(range AS BIGINT) + {dx} - 2, 0), 31))"
        f" AS cx{dx}"
        for dx in range(6)
    )
    tapcols = []
    for dy in range(6):
        for dx in range(6):
            ie = f"(ry{dy} * 64 + cx{dx})"
            tapcols.append(f"(({ie}) * 7) % 33 AS m7_{dy}_{dx}")
            tapcols.append(f"((({ie}) + 404) * 40503) % 65520 AS mh_{dy}_{dx}")
    terms = []
    for dy in range(6):
        for dx in range(6):
            v = (
                f"(CASE WHEN (m.s33 + t.m7_{dy}_{dx}) % 33 = 0 THEN 0.0 "
                f"ELSE CAST(1 + (m.sh + t.mh_{dy}_{dx}) % 65520 AS DOUBLE) END)"
            )
            terms.append(f"((w{dy} * w{dx}) * {v})")
    acc = terms[0]
    for t in terms[1:]:
        acc = f"({acc} + {t})"
    return (
        _MEDIA
        + f"""
        , mh AS (SELECT doc_id, span_idx, seed,
                 (seed * 2654435761) % 65520 AS sh, seed % 33 AS s33
                 FROM media),
        lwsum AS (SELECT {seq_sum} AS s),
        wt AS (SELECT {norm} FROM lwsum),
        rmap AS (SELECT {rcols} FROM range(16)),
        cmap AS (SELECT {ccols} FROM range(16)),
        tapc AS MATERIALIZED (SELECT {", ".join(tapcols)} FROM rmap, cmap),
        outcells AS (
            SELECT m.doc_id, m.span_idx, m.seed, {acc} AS v
            FROM mh m, tapc t, wt
        )
        SELECT doc_id, span_idx, seed,
               CAST(SUM(CAST(floor(v * 1024.0 + 0.5) AS BIGINT)) AS BIGINT)
                   AS sum_lz1024,
               MIN(v) AS min_lz,
               MAX(v) AS max_lz
        FROM outcells GROUP BY doc_id, span_idx, seed
        """
    )


def _ngram_jaccard_sql(num: int = 4, den: int = 5, k: int = 5) -> str:
    """Exact prefix-filter n-gram Jaccard join reproduced in SQL
    (text/dedup.ngram_jaccard_near_dup_pairs): the same 5-byte shingle
    hashes as the MinHash oracle, hash-ascending prefix of length
    ``sz − ⌈num·sz/den⌉ + 1`` per doc (row_number over HUGEINT h — the
    uint64 order numpy sorts by), candidate pairs on shared prefix
    shingles with the integer size filter, exact intersection/union
    verify with the integer threshold cut. jaccard is the elementwise
    double quotient of exact ints — identical IEEE on both engines."""
    m64 = "CAST('18446744073709551616' AS HUGEINT)"
    base = 1099511628211
    pows = [pow(base, j, 1 << 64) for j in range(k)]
    shingle_terms = " + ".join(
        f"CAST(ord(substr(text, CAST(r.range + {j + 1} AS INT), 1)) AS HUGEINT)"
        f" * {pows[j]}"
        for j in range(k)
    )
    return f"""
WITH docs AS (
    SELECT CAST(doc_id AS VARCHAR) AS dk, text,
           CAST(length(text) AS BIGINT) AS n
    FROM documents
),
sh_raw AS (
    SELECT dk, ({shingle_terms}) % {m64} AS h
    FROM docs, range(8192) r WHERE r.range <= n - {k}
),
shingles0 AS (SELECT DISTINCT dk, h FROM sh_raw),
-- integer surrogate keys for the candidate/verify joins (VARCHAR dk
-- hash-joins measured ~30% slower); row_number ORDER BY preserves the
-- VARCHAR order, so dk < dk' ⇔ di < di' and the pair set is unchanged
dmap AS MATERIALIZED (
    SELECT dk, row_number() OVER (ORDER BY dk) AS di
    FROM (SELECT DISTINCT dk FROM shingles0)
),
shingles AS MATERIALIZED (
    SELECT d.di AS dk, s.h FROM shingles0 s JOIN dmap d USING (dk)
),
sizes AS (SELECT dk, CAST(COUNT(*) AS BIGINT) AS sz FROM shingles GROUP BY dk),
ranked AS (
    SELECT s.dk, s.h, z.sz,
           row_number() OVER (PARTITION BY s.dk ORDER BY s.h) AS rn
    FROM shingles s JOIN sizes z ON z.dk = s.dk
),
prefix AS (
    SELECT dk, h, sz FROM ranked
    WHERE rn <= sz - (({num} * sz + {den - 1}) // {den}) + 1
),
cand AS (
    SELECT DISTINCT x.dk AS id_a, y.dk AS id_b
    FROM prefix x JOIN prefix y
      ON x.h = y.h AND x.dk < y.dk
     AND {den} * LEAST(x.sz, y.sz) >= {num} * GREATEST(x.sz, y.sz)
),
inter AS (
    SELECT c.id_a, c.id_b, CAST(COUNT(*) AS BIGINT) AS i
    FROM cand c
    JOIN shingles sa ON sa.dk = c.id_a
    JOIN shingles sb ON sb.dk = c.id_b AND sb.h = sa.h
    GROUP BY c.id_a, c.id_b
),
scored AS (
    SELECT c.id_a, c.id_b, COALESCE(i.i, 0) AS i,
           za.sz + zb.sz - COALESCE(i.i, 0) AS u
    FROM cand c
    LEFT JOIN inter i ON i.id_a = c.id_a AND i.id_b = c.id_b
    JOIN sizes za ON za.dk = c.id_a
    JOIN sizes zb ON zb.dk = c.id_b
)
SELECT da.dk AS id_a, db.dk AS id_b, CAST(i AS DOUBLE) / u AS jaccard
FROM scored
JOIN dmap da ON da.di = scored.id_a
JOIN dmap db ON db.di = scored.id_b
WHERE {den} * i >= {num} * u
"""


_M64 = "CAST('18446744073709551616' AS HUGEINT)"


def _mulmod64(expr: str, c: int) -> str:
    """(expr · c) mod 2^64 in HUGEINT via a 32-bit split of expr."""
    return (
        f"CAST(((CAST({expr} AS HUGEINT) % 4294967296) * {c} % {_M64}"
        f" + ((CAST({expr} AS HUGEINT) // 4294967296 * {c}) % 4294967296)"
        f" * 4294967296) % {_M64} AS UBIGINT)"
    )


def _murmur_planes_cte(dim: int, n_bits: int, quant: int) -> str:
    """CTE chain ``planes`` (d, j, w): the integer sign-LSH hyperplane
    weights — murmur3 finalizer of the flat (d, j) index mapped to
    [−quant, quant], mirroring text/dedup.lsh_planes_int."""
    c1 = 0xFF51AFD7ED558CCD
    c2 = 0xC4CEB9FE1A85EC53
    return f"""
pl0 AS (
    SELECT d.range AS d, j.range AS j,
           CAST(d.range * {n_bits} + j.range AS UBIGINT) AS h
    FROM range({dim}) d, range({n_bits}) j
),
pl1 AS (SELECT d, j, xor(h, h >> 33) AS h FROM pl0),
pl2 AS (SELECT d, j, {_mulmod64('h', c1)} AS h FROM pl1),
pl3 AS (SELECT d, j, xor(h, h >> 33) AS h FROM pl2),
pl4 AS (SELECT d, j, {_mulmod64('h', c2)} AS h FROM pl3),
pl5 AS (SELECT d, j, xor(h, h >> 33) AS h FROM pl4),
planes AS (
    SELECT d, j, CAST(h % {2 * quant + 1} AS BIGINT) - {quant} AS w FROM pl5
)"""


def _embedding_dups_sql(
    threshold: float = 0.35, n_planes: int = 8, n_tables: int = 8
) -> str:
    """Embedding near-dup reproduced in SQL (text/dedup.
    embedding_near_dup_pairs): 2^-20 quantization, integer LCG sign-LSH
    planes, per-table bucket fold, bucket-collision candidate pairs, and
    the INTEGER-cosine verify — every similarity is an exact function of
    int64 dot products, so it is bit-identical to the numpy side."""
    quant = 1 << 20
    n_bits = n_planes * n_tables
    bit_weights = " ".join(
        f"WHEN {j} THEN {1 << (n_planes - 1 - j)}" for j in range(n_planes)
    )
    return f"""
WITH comps AS (
    SELECT vec_id, unnest(embedding) AS ev,
           CAST(generate_subscripts(embedding, 1) - 1 AS BIGINT) AS d
    FROM embeddings
),
eq AS (
    SELECT vec_id, d,
           CAST(floor(CAST(ev AS DOUBLE) * {float(quant)} + 0.5) AS BIGINT) AS e
    FROM comps
),
{_murmur_planes_cte(64, n_bits, quant)},
bits AS (
    SELECT e.vec_id, p.j,
           CASE WHEN SUM(e.e * p.w) > 0 THEN 1 ELSE 0 END AS bit
    FROM eq e JOIN planes p ON p.d = e.d
    GROUP BY e.vec_id, p.j
),
lsh_keys AS (
    SELECT vec_id,
           SUM(bit * CASE j % {n_planes} {bit_weights} END) * {n_tables}
           + j // {n_planes} AS key
    FROM bits GROUP BY vec_id, j // {n_planes}
),
cand AS (
    SELECT DISTINCT x.vec_id AS id_a, y.vec_id AS id_b
    FROM lsh_keys x JOIN lsh_keys y ON x.key = y.key AND x.vec_id < y.vec_id
),
norms AS (SELECT vec_id, SUM(e * e) AS n2 FROM eq GROUP BY vec_id),
dots AS (
    SELECT c.id_a, c.id_b, SUM(ea.e * eb.e) AS dab
    FROM cand c
    JOIN eq ea ON ea.vec_id = c.id_a
    JOIN eq eb ON eb.vec_id = c.id_b AND eb.d = ea.d
    GROUP BY c.id_a, c.id_b
),
scored AS (
    SELECT d.id_a, d.id_b,
           CAST(d.dab AS DOUBLE)
           / (sqrt(CAST(na.n2 AS DOUBLE)) * sqrt(CAST(nb.n2 AS DOUBLE))) AS cosine
    FROM dots d
    JOIN norms na ON na.vec_id = d.id_a
    JOIN norms nb ON nb.vec_id = d.id_b
)
SELECT id_a, id_b, cosine FROM scored WHERE cosine >= {threshold}
"""


def _simhash_token_ctes() -> str:
    """Shared CTE prefix of the simhash oracles: per-doc token counts and
    the polynomial token hash (the same HUGEINT mod-2^64 evaluation as
    the fingerprint oracle), ending at ``thash(tok, th UBIGINT)``."""
    seed = 14695981039346656037
    base = 1099511628211
    m64 = "CAST('18446744073709551616' AS HUGEINT)"
    s_hi, s_lo = divmod(seed, 1 << 32)
    return f"""
WITH docs AS (
    SELECT CAST(doc_id AS VARCHAR) AS dk, text FROM documents
),
toks AS (
    SELECT dk, tok, CAST(COUNT(*) AS BIGINT) AS cnt
    FROM (SELECT dk, unnest(string_split(text, ' ')) AS tok FROM docs)
    WHERE tok <> '' GROUP BY dk, tok
),
tok_list AS (
    SELECT tok, CAST(length(tok) AS BIGINT) AS n
    FROM (SELECT DISTINCT tok FROM toks)
),
tpows AS (
    WITH RECURSIVE p(k, v) AS (
        SELECT CAST(0 AS BIGINT) AS k, CAST(1 AS HUGEINT) AS v
        UNION ALL
        SELECT k + 1, (v * {base}) % {m64} FROM p
        WHERE k < (SELECT MAX(n) FROM tok_list)
    )
    SELECT k, v FROM p
),
tterms AS (
    SELECT tb.tok, SUM((tb.b * p.v) % {m64}) AS acc
    FROM (
        SELECT tok, n, r.range AS i,
               CAST(ord(substr(tok, CAST(r.range + 1 AS INT), 1)) AS HUGEINT) AS b
        FROM tok_list, LATERAL (SELECT unnest(range(n)) AS range) r
    ) tb
    JOIN tpows p ON p.k = tb.n - 1 - tb.i
    GROUP BY tb.tok
),
thash AS (
    SELECT t.tok,
           CAST(( (({s_lo} * pn.v) % {m64}
                   + ((({s_hi} * pn.v) % 4294967296) * 4294967296)) % {m64}
                 + COALESCE(tt.acc, 0) ) % {m64} AS UBIGINT) AS th
    FROM tok_list t
    JOIN tpows pn ON pn.k = t.n
    LEFT JOIN tterms tt ON tt.tok = t.tok
)"""


def _simhash_sql(max_hamming: int = 8) -> str:
    """SimHash near-dup reproduced in SQL (text/dedup.simhash_near_dup_
    pairs): polynomial token hashes (the same HUGEINT mod-2^64 evaluation
    as the fingerprint oracle), token-frequency-weighted sign bits, the
    (max_hamming+1)-chunk pigeonhole bucketing (full recall by
    construction, mirroring dedup.simhash_chunk_params_wide at 64
    bits), and a bit_count(xor) Hamming verify. Token split on single
    spaces (this corpus' tokenization, already proven by the token_stats
    oracle)."""
    from raycells.text.dedup import simhash_chunk_params_wide

    chunk_rows = ", ".join(
        f"({c}, {s}, {(1 << w) - 1})"
        for c, (s, w) in enumerate(simhash_chunk_params_wide(max_hamming, 64))
    )
    return f"""{_simhash_token_ctes()},
shbits AS (
    SELECT x.dk, j.range AS j,
           CASE WHEN SUM(x.cnt * (2 * CAST((h.th >> j.range) & 1 AS BIGINT) - 1)) > 0
                THEN 1 ELSE 0 END AS bit
    FROM toks x
    JOIN thash h ON h.tok = x.tok
    CROSS JOIN range(64) j
    GROUP BY x.dk, j.range
),
shvals AS (
    SELECT dk,
           CAST(SUM(bit * CAST(power(2.0, j) AS HUGEINT)) AS UBIGINT) AS sh
    FROM shbits GROUP BY dk
),
chunk_params AS (
    SELECT * FROM (VALUES {chunk_rows}) AS t(c, s, m)
),
chunks AS (
    SELECT dk, sh, p.c AS c,
           CAST((sh >> p.s) & CAST(p.m AS UBIGINT) AS BIGINT) AS v
    FROM shvals, chunk_params p
),
cand AS (
    SELECT DISTINCT x.dk AS id_a, y.dk AS id_b
    FROM chunks x JOIN chunks y ON x.c = y.c AND x.v = y.v AND x.dk < y.dk
),
scored AS (
    SELECT c.id_a, c.id_b,
           CAST(bit_count(xor(a.sh, b.sh)) AS BIGINT) AS hamming
    FROM cand c
    JOIN shvals a ON a.dk = c.id_a
    JOIN shvals b ON b.dk = c.id_b
)
SELECT id_a, id_b, hamming FROM scored WHERE hamming <= {max_hamming}
"""


def _simhash128_sql(max_hamming: int = 12) -> str:
    """128-bit SimHash near-dup reproduced in SQL
    (text/dedup.simhash_near_dup_pairs at bits=128): lane 0 = the 64-bit sign
    fold of the polynomial token hash, lane 1 = the sign fold of its
    murmur3-finalizer remix (the HLL oracle's HUGEINT mulmod recipe),
    13 pigeonhole chunks spanning both lanes (straddling chunks stitch
    the lanes with disjoint-bit shifts — UBIGINT-safe, every shifted
    operand stays under 2^64), Hamming = sum of per-lane bit_count(xor)."""
    from raycells.text.dedup import simhash_chunk_params_wide

    m64 = "CAST('18446744073709551616' AS HUGEINT)"
    c1 = 0xFF51AFD7ED558CCD
    c2 = 0xC4CEB9FE1A85EC53

    def mulmod(expr: str, c: int) -> str:
        return (
            f"CAST(((CAST({expr} AS HUGEINT) % 4294967296) * {c} % {m64}"
            f" + ((CAST({expr} AS HUGEINT) // 4294967296 * {c}) % 4294967296)"
            f" * 4294967296) % {m64} AS UBIGINT)"
        )

    def chunk_expr(bit_lo: int, width: int) -> str:
        mask = (1 << width) - 1
        if bit_lo >= 64:
            return f"CAST((sh_hi >> {bit_lo - 64}) & {mask} AS BIGINT)"
        if bit_lo + width <= 64:
            return f"CAST((sh_lo >> {bit_lo}) & {mask} AS BIGINT)"
        hi_keep = (1 << (bit_lo + width - 64)) - 1
        return (
            f"CAST(((sh_lo >> {bit_lo}) | ((sh_hi & {hi_keep}) << {64 - bit_lo}))"
            f" & {mask} AS BIGINT)"
        )

    chunk_union = "\n        UNION ALL ".join(
        f"SELECT dk, {c} AS c, {chunk_expr(lo, w)} AS v FROM shvals"
        for c, (lo, w) in enumerate(simhash_chunk_params_wide(max_hamming))
    )
    return f"""{_simhash_token_ctes()},
h1 AS (SELECT tok, xor(th, th >> 33) AS h FROM thash),
h2 AS (SELECT tok, {mulmod('h', c1)} AS h FROM h1),
h3 AS (SELECT tok, xor(h, h >> 33) AS h FROM h2),
h4 AS (SELECT tok, {mulmod('h', c2)} AS h FROM h3),
thash2 AS (SELECT tok, xor(h, h >> 33) AS th2 FROM h4),
thboth AS MATERIALIZED (
    SELECT t.tok, t.th, m.th2 FROM thash t JOIN thash2 m USING (tok)
),
shbits AS (
    SELECT x.dk, j.range AS j,
           CASE WHEN SUM(x.cnt * (2 * CAST((h.th >> j.range) & 1 AS BIGINT) - 1)) > 0
                THEN 1 ELSE 0 END AS bit_lo,
           CASE WHEN SUM(x.cnt * (2 * CAST((h.th2 >> j.range) & 1 AS BIGINT) - 1)) > 0
                THEN 1 ELSE 0 END AS bit_hi
    FROM toks x
    JOIN thboth h ON h.tok = x.tok
    CROSS JOIN range(64) j
    GROUP BY x.dk, j.range
),
shvals AS MATERIALIZED (
    SELECT dk,
           CAST(SUM(bit_lo * CAST(power(2.0, j) AS HUGEINT)) AS UBIGINT) AS sh_lo,
           CAST(SUM(bit_hi * CAST(power(2.0, j) AS HUGEINT)) AS UBIGINT) AS sh_hi
    FROM shbits GROUP BY dk
),
chunks AS (
    {chunk_union}
),
cand AS (
    SELECT DISTINCT x.dk AS id_a, y.dk AS id_b
    FROM chunks x JOIN chunks y ON x.c = y.c AND x.v = y.v AND x.dk < y.dk
),
scored AS (
    SELECT c.id_a, c.id_b,
           CAST(bit_count(xor(a.sh_lo, b.sh_lo))
                + bit_count(xor(a.sh_hi, b.sh_hi)) AS BIGINT) AS hamming
    FROM cand c
    JOIN shvals a ON a.dk = c.id_a
    JOIN shvals b ON b.dk = c.id_b
)
SELECT id_a, id_b, hamming FROM scored WHERE hamming <= {max_hamming}
"""


def _ann_lsh_sql(k: int = 10, n_planes: int = 8) -> str:
    """Sign-LSH ANN reproduced in SQL (sim/knn.lsh_topk): quantized
    integer vectors, LCG plane bits, the query's bucket ± 1-bit
    multiprobes, integer-cosine ranking (exact doubles both sides —
    IEEE multiplication is commutative, so sqrt(nq)·sqrt(nv) matches
    numpy's operand order)."""
    quant = 1 << 20
    bit_weights = " ".join(
        f"WHEN {j} THEN {1 << (n_planes - 1 - j)}" for j in range(n_planes)
    )
    return f"""
WITH comps AS (
    SELECT vec_id, unnest(embedding) AS ev,
           CAST(generate_subscripts(embedding, 1) - 1 AS BIGINT) AS d
    FROM embeddings
),
eq AS (
    SELECT vec_id, d,
           CAST(floor(CAST(ev AS DOUBLE) * {float(quant)} + 0.5) AS BIGINT) AS e
    FROM comps
),
{_murmur_planes_cte(64, n_planes, quant)},
bits AS (
    SELECT e.vec_id, p.j,
           CASE WHEN SUM(e.e * p.w) > 0 THEN 1 ELSE 0 END AS bit
    FROM eq e JOIN planes p ON p.d = e.d
    GROUP BY e.vec_id, p.j
),
buckets AS (
    SELECT vec_id,
           CAST(SUM(bit * CASE j {bit_weights} END) AS BIGINT) AS bucket
    FROM bits GROUP BY vec_id
),
probes AS (
    SELECT vec_id AS query_id, bucket AS probe FROM buckets WHERE vec_id < 3
    UNION
    SELECT vec_id AS query_id,
           xor(bucket, CAST(power(2.0, r.range) AS BIGINT)) AS probe
    FROM buckets, range({n_planes}) r WHERE vec_id < 3
),
cand AS (
    SELECT DISTINCT p.query_id, b.vec_id
    FROM probes p JOIN buckets b ON b.bucket = p.probe
),
norms AS (SELECT vec_id, SUM(e * e) AS n2 FROM eq GROUP BY vec_id),
dots AS (
    SELECT c.query_id, c.vec_id, SUM(ea.e * eb.e) AS dab
    FROM cand c
    JOIN eq ea ON ea.vec_id = c.query_id
    JOIN eq eb ON eb.vec_id = c.vec_id AND eb.d = ea.d
    GROUP BY c.query_id, c.vec_id
),
sims AS (
    SELECT d.query_id, d.vec_id,
           CAST(d.dab AS DOUBLE)
           / (sqrt(CAST(nv.n2 AS DOUBLE)) * sqrt(CAST(nq.n2 AS DOUBLE))) AS sim
    FROM dots d
    JOIN norms nq ON nq.vec_id = d.query_id
    JOIN norms nv ON nv.vec_id = d.vec_id
),
ranked AS (
    SELECT query_id, vec_id,
           CAST(ROW_NUMBER() OVER (
               PARTITION BY query_id ORDER BY sim DESC, vec_id
           ) AS BIGINT) AS rank
    FROM sims
)
SELECT CAST(query_id AS BIGINT) AS query_id, vec_id, rank
FROM ranked WHERE rank <= {k}
"""


def _ann_ivf_sql(
    k: int = 10, n_centroids: int = 16, nprobe: int = 4, n_iters: int = 10
) -> str:
    """IVF ANN reproduced in SQL (sim/ivf.py): content-keyed seeding
    (murmur of the Σe·(d+1) fingerprint), ``n_iters`` UNROLLED Lloyd
    iterations over the quantized integer vectors — centroids are exact
    integer sum vectors, assignment maximizes dot/|s| with ties → lowest
    c, empty clusters carry their previous sums — then nprobe-pruned
    candidate lists and integer-cosine ranking. Every number both
    engines compare is an exact-int-derived double. Assumes the training
    sample is the whole table (true at oracle scales: ≤ train_rows)."""
    quant = 1 << 20
    m64 = _M64
    c1 = 0xFF51AFD7ED558CCD
    c2 = 0xC4CEB9FE1A85EC53
    parts = [
        f"""
WITH comps AS (
    SELECT vec_id, unnest(embedding) AS ev,
           CAST(generate_subscripts(embedding, 1) - 1 AS BIGINT) AS d
    FROM embeddings
),
-- MATERIALIZED: the unrolled Lloyd iterations reference eq dozens of
-- times; inlined CTEs would rescan (and re-open) the parquet per use
eq AS MATERIALIZED (
    SELECT vec_id, d,
           CAST(floor(CAST(ev AS DOUBLE) * {float(quant)} + 0.5) AS BIGINT) AS e
    FROM comps
),
fkeys AS (
    SELECT vec_id,
           CAST(SUM(((CAST(e AS HUGEINT) * (d + 1)) % {m64} + {m64}) % {m64})
                % {m64} AS UBIGINT) AS h
    FROM eq GROUP BY vec_id
),
mk1 AS (SELECT vec_id, xor(h, h >> 33) AS h FROM fkeys),
mk2 AS (SELECT vec_id, {_mulmod64('h', c1)} AS h FROM mk1),
mk3 AS (SELECT vec_id, xor(h, h >> 33) AS h FROM mk2),
mk4 AS (SELECT vec_id, {_mulmod64('h', c2)} AS h FROM mk3),
mk5 AS (SELECT vec_id, xor(h, h >> 33) AS mk FROM mk4),
skeys AS (
    SELECT mk, CAST(ROW_NUMBER() OVER (ORDER BY mk) - 1 AS BIGINT) AS c
    FROM (SELECT DISTINCT mk FROM mk5 ORDER BY mk LIMIT {n_centroids})
),
seed_rows AS (
    SELECT s.c, MIN(m.vec_id) AS vid
    FROM skeys s JOIN mk5 m ON m.mk = s.mk GROUP BY s.c
),
cents0 AS MATERIALIZED (
    SELECT sr.c, e.d, e.e AS s
    FROM seed_rows sr JOIN eq e ON e.vec_id = sr.vid
)"""
    ]
    for i in range(n_iters):
        parts.append(
            f"""
, nrm{i} AS MATERIALIZED (
    SELECT c, CASE WHEN SUM(CAST(s AS HUGEINT) * s) = 0 THEN 1.0
                   ELSE sqrt(CAST(SUM(CAST(s AS HUGEINT) * s) AS DOUBLE))
              END AS nrm
    FROM cents{i} GROUP BY c
),
asg{i} AS MATERIALIZED (
    SELECT vec_id, c FROM (
        SELECT dt.vec_id, dt.c,
               ROW_NUMBER() OVER (
                   PARTITION BY dt.vec_id ORDER BY dt.dot / n.nrm DESC, dt.c
               ) AS rn
        FROM (
            SELECT e.vec_id, ct.c, CAST(SUM(e.e * ct.s) AS DOUBLE) AS dot
            FROM eq e JOIN cents{i} ct ON ct.d = e.d
            GROUP BY e.vec_id, ct.c
        ) dt JOIN nrm{i} n ON n.c = dt.c
    ) WHERE rn = 1
),
ns{i} AS MATERIALIZED (
    SELECT a.c, e.d, CAST(SUM(e.e) AS BIGINT) AS s
    FROM asg{i} a JOIN eq e ON e.vec_id = a.vec_id GROUP BY a.c, e.d
),
cents{i + 1} AS MATERIALIZED (
    SELECT o.c, o.d, COALESCE(n.s, o.s) AS s
    FROM cents{i} o LEFT JOIN ns{i} n ON n.c = o.c AND n.d = o.d
)"""
        )
    fin = n_iters
    parts.append(
        f"""
, nrmF AS (
    SELECT c, CASE WHEN SUM(CAST(s AS HUGEINT) * s) = 0 THEN 1.0
                   ELSE sqrt(CAST(SUM(CAST(s AS HUGEINT) * s) AS DOUBLE))
              END AS nrm
    FROM cents{fin} GROUP BY c
),
allsims AS (
    SELECT dt.vec_id, dt.c, dt.dot / n.nrm AS sim
    FROM (
        SELECT e.vec_id, ct.c, CAST(SUM(e.e * ct.s) AS DOUBLE) AS dot
        FROM eq e JOIN cents{fin} ct ON ct.d = e.d
        GROUP BY e.vec_id, ct.c
    ) dt JOIN nrmF n ON n.c = dt.c
),
asgF AS (
    SELECT vec_id, c FROM (
        SELECT vec_id, c,
               ROW_NUMBER() OVER (PARTITION BY vec_id ORDER BY sim DESC, c) AS rn
        FROM allsims
    ) WHERE rn = 1
),
probes AS (
    SELECT vec_id AS query_id, c FROM (
        SELECT vec_id, c,
               ROW_NUMBER() OVER (PARTITION BY vec_id ORDER BY sim DESC, c) AS rn
        FROM allsims WHERE vec_id < 3
    ) WHERE rn <= {nprobe}
),
cand AS (
    SELECT DISTINCT p.query_id, a.vec_id
    FROM probes p JOIN asgF a ON a.c = p.c
),
norms AS (SELECT vec_id, SUM(e * e) AS n2 FROM eq GROUP BY vec_id),
dotsq AS (
    SELECT cd.query_id, cd.vec_id, SUM(ea.e * eb.e) AS dab
    FROM cand cd
    JOIN eq ea ON ea.vec_id = cd.query_id
    JOIN eq eb ON eb.vec_id = cd.vec_id AND eb.d = ea.d
    GROUP BY cd.query_id, cd.vec_id
),
simsq AS (
    SELECT d.query_id, d.vec_id,
           CAST(d.dab AS DOUBLE)
           / (sqrt(CAST(nv.n2 AS DOUBLE)) * sqrt(CAST(nq.n2 AS DOUBLE))) AS sim
    FROM dotsq d
    JOIN norms nq ON nq.vec_id = d.query_id
    JOIN norms nv ON nv.vec_id = d.vec_id
),
ranked AS (
    SELECT query_id, vec_id,
           CAST(ROW_NUMBER() OVER (
               PARTITION BY query_id ORDER BY sim DESC, vec_id
           ) AS BIGINT) AS rank
    FROM simsq
)
SELECT CAST(query_id AS BIGINT) AS query_id, vec_id, rank
FROM ranked WHERE rank <= {k}
"""
    )
    return "".join(parts)


def _cluster_quality_sql(stop_expr_text: str) -> str:
    """Per-cluster text-quality rollup (q_cluster_quality): the shared
    unrolled-Lloyd assignment chain joined to the documents view on
    vec_id = doc_id, with the token_stats quality expressions."""
    full = _ann_ivf_sql(n_centroids=16, n_iters=10)
    marker = ",\nprobes AS ("
    prefix = full[: full.index(marker)]
    ntok = (
        "CASE WHEN length(d.text) = 0 THEN 0 "
        "ELSE length(d.text) - length(replace(d.text, ' ', '')) + 1 END"
    )
    return (
        prefix
        + f"""
SELECT CAST(a.c AS BIGINT) AS cluster,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(SUM({ntok}) AS BIGINT) AS total_tokens,
       CAST(SUM({stop_expr_text}) AS BIGINT) AS total_stopword_hits,
       CAST(SUM(CASE WHEN ({ntok}) >= 5
                 AND 2 * length(regexp_replace(d.text, '[^a-zA-Z]', '', 'g'))
                     >= length(d.text)
                 AND ({stop_expr_text}) >= 1
                THEN 1 ELSE 0 END) AS BIGINT) AS n_quality_ok
FROM asgF a JOIN documents d ON d.doc_id = a.vec_id
GROUP BY a.c
"""
    )


def _ann_pq_sql(
    k: int = 10, m: int = 2, ks: int = 8, n_iters: int = 10, dim: int = 64
) -> str:
    """PQ-ADC ANN reproduced in SQL (sim/pq.py): per SUBSPACE j, the
    same content-keyed exact-integer unrolled-Lloyd chain as
    _ann_ivf_sql but over the dim slice [j·dsub, (j+1)·dsub) with
    slice-relative fingerprint weights (d − lo + 1); then every vector
    ENCODES to its per-subspace argmax (dot/|s| DESC, c ASC — the
    engine's tie convention), and each query's score per vector is the
    FIXED left-associative sum of per-subspace LUT terms
    (… (t0 + t1) + t2 …) — the identical IEEE expression tree numpy
    builds, never an order-dependent aggregate. Assumes the training
    sample is the whole table (true at every sf: ≤ train_rows)."""
    quant = 1 << 20
    m64 = _M64
    c1 = 0xFF51AFD7ED558CCD
    c2 = 0xC4CEB9FE1A85EC53
    dsub = dim // m
    parts = [
        f"""
WITH comps AS (
    SELECT vec_id, unnest(embedding) AS ev,
           CAST(generate_subscripts(embedding, 1) - 1 AS BIGINT) AS d
    FROM embeddings
),
eq AS MATERIALIZED (
    SELECT vec_id, d,
           CAST(floor(CAST(ev AS DOUBLE) * {float(quant)} + 0.5) AS BIGINT) AS e
    FROM comps
)"""
    ]
    for j in range(m):
        lo, hi = j * dsub, (j + 1) * dsub
        s = f"s{j}"
        parts.append(
            f"""
, fkeys_{s} AS (
    SELECT vec_id,
           CAST(SUM(((CAST(e AS HUGEINT) * (d - {lo} + 1)) % {m64} + {m64}) % {m64})
                % {m64} AS UBIGINT) AS h
    FROM eq WHERE d >= {lo} AND d < {hi} GROUP BY vec_id
),
mk1_{s} AS (SELECT vec_id, xor(h, h >> 33) AS h FROM fkeys_{s}),
mk2_{s} AS (SELECT vec_id, {_mulmod64('h', c1)} AS h FROM mk1_{s}),
mk3_{s} AS (SELECT vec_id, xor(h, h >> 33) AS h FROM mk2_{s}),
mk4_{s} AS (SELECT vec_id, {_mulmod64('h', c2)} AS h FROM mk3_{s}),
mk5_{s} AS (SELECT vec_id, xor(h, h >> 33) AS mk FROM mk4_{s}),
skeys_{s} AS (
    SELECT mk, CAST(ROW_NUMBER() OVER (ORDER BY mk) - 1 AS BIGINT) AS c
    FROM (SELECT DISTINCT mk FROM mk5_{s} ORDER BY mk LIMIT {ks})
),
seed_rows_{s} AS (
    SELECT sk.c, MIN(mm.vec_id) AS vid
    FROM skeys_{s} sk JOIN mk5_{s} mm ON mm.mk = sk.mk GROUP BY sk.c
),
cents0_{s} AS MATERIALIZED (
    SELECT sr.c, e.d, e.e AS s
    FROM seed_rows_{s} sr
    JOIN eq e ON e.vec_id = sr.vid AND e.d >= {lo} AND e.d < {hi}
)"""
        )
        for i in range(n_iters):
            parts.append(
                f"""
, nrm{i}_{s} AS MATERIALIZED (
    SELECT c, CASE WHEN SUM(CAST(s AS HUGEINT) * s) = 0 THEN 1.0
                   ELSE sqrt(CAST(SUM(CAST(s AS HUGEINT) * s) AS DOUBLE))
              END AS nrm
    FROM cents{i}_{s} GROUP BY c
),
asg{i}_{s} AS MATERIALIZED (
    SELECT vec_id, c FROM (
        SELECT dt.vec_id, dt.c,
               ROW_NUMBER() OVER (
                   PARTITION BY dt.vec_id ORDER BY dt.dot / n.nrm DESC, dt.c
               ) AS rn
        FROM (
            SELECT e.vec_id, ct.c, CAST(SUM(e.e * ct.s) AS DOUBLE) AS dot
            FROM eq e JOIN cents{i}_{s} ct ON ct.d = e.d
            GROUP BY e.vec_id, ct.c
        ) dt JOIN nrm{i}_{s} n ON n.c = dt.c
    ) WHERE rn = 1
),
ns{i}_{s} AS MATERIALIZED (
    SELECT a.c, e.d, CAST(SUM(e.e) AS BIGINT) AS s
    FROM asg{i}_{s} a
    JOIN eq e ON e.vec_id = a.vec_id AND e.d >= {lo} AND e.d < {hi}
    GROUP BY a.c, e.d
),
cents{i + 1}_{s} AS MATERIALIZED (
    SELECT o.c, o.d, COALESCE(n.s, o.s) AS s
    FROM cents{i}_{s} o LEFT JOIN ns{i}_{s} n ON n.c = o.c AND n.d = o.d
)"""
            )
        fin = n_iters
        parts.append(
            f"""
, nrmF_{s} AS (
    SELECT c, CASE WHEN SUM(CAST(s AS HUGEINT) * s) = 0 THEN 1.0
                   ELSE sqrt(CAST(SUM(CAST(s AS HUGEINT) * s) AS DOUBLE))
              END AS nrm
    FROM cents{fin}_{s} GROUP BY c
),
allsims_{s} AS MATERIALIZED (
    SELECT dt.vec_id, dt.c, dt.dot / n.nrm AS sim
    FROM (
        SELECT e.vec_id, ct.c, CAST(SUM(e.e * ct.s) AS DOUBLE) AS dot
        FROM eq e JOIN cents{fin}_{s} ct ON ct.d = e.d
        GROUP BY e.vec_id, ct.c
    ) dt JOIN nrmF_{s} n ON n.c = dt.c
),
code_{s} AS MATERIALIZED (
    SELECT vec_id, c FROM (
        SELECT vec_id, c,
               ROW_NUMBER() OVER (PARTITION BY vec_id ORDER BY sim DESC, c) AS rn
        FROM allsims_{s}
    ) WHERE rn = 1
),
lut_{s} AS (
    SELECT vec_id AS query_id, c, sim AS v
    FROM allsims_{s} WHERE vec_id < 3
)"""
        )
    # score = fixed left-associative sum of per-subspace LUT terms
    score_expr = "l_s0.v"
    joins = [
        "FROM code_s0 a_s0",
        "JOIN lut_s0 l_s0 ON l_s0.c = a_s0.c",
    ]
    for j in range(1, m):
        score_expr = f"({score_expr} + l_s{j}.v)"
        joins.append(f"JOIN code_s{j} a_s{j} ON a_s{j}.vec_id = a_s0.vec_id")
        joins.append(
            f"JOIN lut_s{j} l_s{j} ON l_s{j}.c = a_s{j}.c"
            f" AND l_s{j}.query_id = l_s0.query_id"
        )
    parts.append(
        f"""
, scores AS (
    SELECT l_s0.query_id, a_s0.vec_id, {score_expr} AS score
    {' '.join(joins)}
),
ranked AS (
    SELECT query_id, vec_id,
           CAST(ROW_NUMBER() OVER (
               PARTITION BY query_id ORDER BY score DESC, vec_id
           ) AS BIGINT) AS rank
    FROM scores
)
SELECT CAST(query_id AS BIGINT) AS query_id, vec_id, rank
FROM ranked WHERE rank <= {k}
"""
    )
    return "".join(parts)


def _cms_heavy_hitters_sql(k: int = 20, w: int = 16) -> str:
    """Count-min-sketch heavy hitters (queries.q_cms_heavy_hitters):
    exact unigram counts over non-empty whitespace tokens; per sketch
    row r the token's polynomial fingerprint (the decontaminate thash
    recipe) XORs the row salt r·φ64 and runs the shared murmur
    finalizer chain; bucket = h mod w; counter(r, b) = Σ counts of
    tokens landing there; est(token) = MIN over its 4 row counters.
    Every number is an exact integer — a hash match pins the bucket
    index of every (token, row) pair plus the CMS merge."""
    seed = 14695981039346656037
    base = 1099511628211
    m64 = _M64
    c1 = 0xFF51AFD7ED558CCD
    c2 = 0xC4CEB9FE1A85EC53
    phi = 0x9E3779B97F4A7C15
    s_hi, s_lo = divmod(seed, 1 << 32)
    parts = [
        f"""
WITH toks AS (
    SELECT unnest(string_split(text, ' ')) AS tok FROM documents
),
cnt AS MATERIALIZED (
    SELECT tok, CAST(COUNT(*) AS BIGINT) AS n
    FROM toks WHERE tok <> '' GROUP BY tok
),
tok_list AS (SELECT tok, CAST(length(tok) AS BIGINT) AS n FROM cnt),
tpows AS (
    WITH RECURSIVE p(kk, v) AS (
        SELECT CAST(0 AS BIGINT) AS kk, CAST(1 AS HUGEINT) AS v
        UNION ALL
        SELECT kk + 1, (v * {base}) % {m64} FROM p
        WHERE kk < (SELECT MAX(n) FROM tok_list)
    )
    SELECT kk, v FROM p
),
tterms AS (
    SELECT tb.tok, SUM((tb.b * p.v) % {m64}) AS acc
    FROM (
        SELECT tok, n, r.range AS i,
               CAST(ord(substr(tok, CAST(r.range + 1 AS INT), 1)) AS HUGEINT) AS b
        FROM tok_list, LATERAL (SELECT unnest(range(n)) AS range) r
    ) tb
    JOIN tpows p ON p.kk = tb.n - 1 - tb.i
    GROUP BY tb.tok
),
thash AS MATERIALIZED (
    SELECT t.tok,
           CAST(( (({s_lo} * pn.v) % {m64}
                   + ((({s_hi} * pn.v) % 4294967296) * 4294967296)) % {m64}
                 + COALESCE(tt.acc, 0) ) % {m64} AS UBIGINT) AS th
    FROM tok_list t
    JOIN tpows pn ON pn.kk = t.n
    LEFT JOIN tterms tt ON tt.tok = t.tok
)"""
    ]
    for r in range(4):
        salt = (phi * r) % (1 << 64)
        x0 = (
            "th" if salt == 0
            else f"xor(th, CAST('{salt}' AS UBIGINT))"
        )
        parts.append(
            f"""
, x{r}a AS (SELECT tok, {x0} AS h FROM thash),
x{r}b AS (SELECT tok, xor(h, h >> 33) AS h FROM x{r}a),
x{r}c AS (SELECT tok, {_mulmod64('h', c1)} AS h FROM x{r}b),
x{r}d AS (SELECT tok, xor(h, h >> 33) AS h FROM x{r}c),
x{r}e AS (SELECT tok, {_mulmod64('h', c2)} AS h FROM x{r}d),
bk{r} AS (
    SELECT tok, {r} AS r, CAST(xor(h, h >> 33) % {w} AS BIGINT) AS bucket
    FROM x{r}e
)"""
        )
    union = " UNION ALL ".join(f"SELECT * FROM bk{r}" for r in range(4))
    parts.append(
        f"""
, bks AS MATERIALIZED ({union}),
counters AS MATERIALIZED (
    SELECT b.r, b.bucket, CAST(SUM(c.n) AS BIGINT) AS cell
    FROM bks b JOIN cnt c ON c.tok = b.tok
    GROUP BY b.r, b.bucket
),
est AS (
    SELECT b.tok, MIN(cc.cell) AS est
    FROM bks b JOIN counters cc ON cc.r = b.r AND cc.bucket = b.bucket
    GROUP BY b.tok
),
ranked AS (
    SELECT c.tok AS token, c.n, e.est,
           CAST(ROW_NUMBER() OVER (ORDER BY c.n DESC, c.tok) AS BIGINT) AS rank
    FROM cnt c JOIN est e ON e.tok = c.tok
)
SELECT token, n, est, rank FROM ranked WHERE rank <= {k}
"""
    )
    return "".join(parts)


def _leakage_safe_split_sql(val_mod: int = 10) -> str:
    """Leakage-safe train/val split (queries.q_leakage_safe_split):
    canonical near-dup id from the dedup_clusters recursive CTE
    (singletons fall back to their own doc_key via COALESCE), split =
    murmur64(canonical id) % val_mod == 0 → 'val' — the exact
    sim/hll._hash64 chain (xor33 · c1 · xor33 · c2 · xor33) in UBIGINT,
    rolled up per (split, lang)."""
    c1 = 0xFF51AFD7ED558CCD
    c2 = 0xC4CEB9FE1A85EC53
    return f"""
WITH cl AS MATERIALIZED (
    SELECT doc_key, canon_key FROM ({_dedup_clusters_sql()})
),
d AS (
    SELECT CAST(doc_id AS VARCHAR) AS dk, lang,
           CAST(n_chars AS BIGINT) AS nc
    FROM documents
),
cn AS (
    SELECT d.dk, d.lang, d.nc,
           CAST(COALESCE(cl.canon_key, d.dk) AS UBIGINT) AS h
    FROM d LEFT JOIN cl ON cl.doc_key = d.dk
),
k1 AS (SELECT lang, nc, xor(h, h >> 33) AS h FROM cn),
k2 AS (SELECT lang, nc, {_mulmod64('h', c1)} AS h FROM k1),
k3 AS (SELECT lang, nc, xor(h, h >> 33) AS h FROM k2),
k4 AS (SELECT lang, nc, {_mulmod64('h', c2)} AS h FROM k3),
k5 AS (SELECT lang, nc, xor(h, h >> 33) AS h FROM k4)
SELECT CASE WHEN h % {val_mod} = 0 THEN 'val' ELSE 'train' END AS split,
       lang,
       CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(nc) AS BIGINT) AS sum_chars
FROM k5 GROUP BY split, lang
"""


def _paragraph_dedup_sql(w: int = 8) -> str:
    """C4-style paragraph dedup manifest (queries.q_paragraph_dedup):
    word-aligned ``w``-word segments via list_slice over string_split
    (identical word lists both engines), first-occurrence winner per
    DISTINCT segment string ordered by (doc_id, seg_idx), per-doc
    kept/removed/chars-removed rollup. The per-doc segment-count bound
    derives from each doc's own word count (expression-level range() +
    unnest — the chunk_docs recipe), so the oracle is length-unbounded
    like the engine."""
    return f"""
WITH docs AS (
    SELECT CAST(doc_id AS VARCHAR) AS dk, CAST(doc_id AS BIGINT) AS did,
           string_split(text, ' ') AS toks
    FROM documents
),
segs AS MATERIALIZED (
    SELECT dk, did, CAST(seg_idx AS BIGINT) AS seg_idx,
           array_to_string(
               list_slice(toks, CAST(seg_idx * {w} + 1 AS INT),
                          CAST(seg_idx * {w} + {w} AS INT)), ' ') AS seg
    FROM (
        SELECT dk, did, toks,
               unnest(range(GREATEST(
                   1, CAST(CEIL(len(toks) / {w}.0) AS BIGINT)))) AS seg_idx
        FROM docs
    )
),
ranked AS (
    SELECT dk, length(seg) AS nch,
           ROW_NUMBER() OVER (PARTITION BY seg ORDER BY did, seg_idx) AS rn
    FROM segs
)
SELECT dk AS doc_key,
       CAST(COUNT(*) AS BIGINT) AS n_segs,
       CAST(SUM(CASE WHEN rn = 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_kept,
       CAST(SUM(CASE WHEN rn > 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_removed,
       CAST(SUM(CASE WHEN rn > 1 THEN nch ELSE 0 END) AS BIGINT)
           AS chars_removed
FROM ranked GROUP BY dk
"""


def _cluster_cap_sql(k: int = 8) -> str:
    """SemDeDup cluster cap (queries.q_cluster_cap): the shared
    unrolled-Lloyd chain (spliced from _ann_ivf_sql at its probes tail,
    the _cluster_quality_sql pattern), then keep the ``k`` most central
    vectors per final cluster — centrality = the assigned-cluster sim
    (exact-int dot / |s_c|) divided by sqrt of the exact-int |x|², the
    identical IEEE tree the engine's numpy evaluates."""
    full = _ann_ivf_sql(n_centroids=16, n_iters=10)
    marker = ",\nprobes AS ("
    prefix = full[: full.index(marker)]
    return (
        prefix
        + f""",
xnorm AS (
    SELECT vec_id, SUM(CAST(e AS HUGEINT) * e) AS n2 FROM eq GROUP BY vec_id
),
cen AS (
    SELECT a.vec_id, a.c,
           s.sim / sqrt(CAST(x.n2 AS DOUBLE)) AS centrality
    FROM asgF a
    JOIN allsims s ON s.vec_id = a.vec_id AND s.c = a.c
    JOIN xnorm x ON x.vec_id = a.vec_id
),
capped AS (
    SELECT c, vec_id, centrality,
           CAST(ROW_NUMBER() OVER (
               PARTITION BY c ORDER BY centrality DESC, vec_id
           ) AS BIGINT) AS rank
    FROM cen
)
SELECT CAST(c AS BIGINT) AS cluster, vec_id, centrality, rank
FROM capped WHERE rank <= {k}
"""
    )


def _cluster_embeddings_sql(n_centroids: int = 16, n_iters: int = 10) -> str:
    """K-means assignment rollup (q_cluster_embeddings): the EXACT same
    unrolled-Lloyd CTE chain as _ann_ivf_sql (shared by construction —
    split at its probes tail), finished with a per-cluster count +
    vec_id sum so any single assignment flip changes the hash."""
    full = _ann_ivf_sql(n_centroids=n_centroids, n_iters=n_iters)
    marker = ",\nprobes AS ("
    prefix = full[: full.index(marker)]
    return (
        prefix
        + """
SELECT CAST(c AS BIGINT) AS cluster,
       CAST(COUNT(*) AS BIGINT) AS n_vectors,
       CAST(SUM(vec_id) AS BIGINT) AS sum_vec_id
FROM asgF GROUP BY c
"""
    )


_LANG_SCORE = """
    len(list_filter(string_split(text, ' '), x -> x = '{w}'))
"""


def _curation_funnel_sql(score_cols: str, detect_case: str) -> str:
    """End-to-end curation funnel (queries.q_curation_funnel): the
    lang-ID scorer, the Gopher repetition rule and the rolling-hash
    fingerprint composed into one accounting query. Reuses the exact
    recipes of the standalone oracles (lang_id detect CASE, the
    repetition integer counts, the _fingerprint_sql HUGEINT chain) so
    the funnel's exactness inherits from theirs."""
    seed = 14695981039346656037
    base = 1099511628211
    m64 = "CAST('18446744073709551616' AS HUGEINT)"
    s_hi, s_lo = divmod(seed, 1 << 32)
    return f"""
WITH scored AS (
    SELECT doc_id, lang, text, {score_cols}
    FROM documents
),
det AS (
    SELECT doc_id, lang, text, {detect_case} AS det FROM scored
),
q AS (
    SELECT doc_id, det, lang,
           CAST(len(toks) AS BIGINT) AS n_tokens,
           CAST(len(list_distinct(toks)) AS BIGINT) AS n_distinct,
           CAST(len(toks) - 1 AS BIGINT) AS n_bigrams,
           CAST(len(list_distinct(list_transform(
                generate_series(1, len(toks) - 1),
                i -> toks[i] || chr(1) || toks[i + 1]))) AS BIGINT) AS n_dbig
    FROM (SELECT doc_id, det, lang, string_split(text, ' ') AS toks FROM det)
),
flags AS (
    SELECT doc_id, n_tokens,
           CASE WHEN det = lang THEN 1 ELSE 0 END AS s1,
           CASE WHEN (n_tokens - n_distinct) * 2 > n_tokens
                  OR (n_bigrams - n_dbig) * 4 > n_bigrams
                THEN 0 ELSE 1 END AS s2
    FROM q
),
fdocs AS (
    SELECT doc_id, text, CAST(length(text) AS BIGINT) AS n FROM documents
),
fpows AS (
    WITH RECURSIVE p(k, v) AS (
        SELECT CAST(0 AS BIGINT) AS k, CAST(1 AS HUGEINT) AS v
        UNION ALL
        SELECT k + 1, (v * {base}) % {m64} FROM p
        WHERE k < (SELECT MAX(n) FROM fdocs)
    )
    SELECT k, v FROM p
),
fbytes AS (
    SELECT d.doc_id, d.n, r.range AS i,
           CAST(ord(substr(d.text, CAST(r.range + 1 AS INT), 1)) AS HUGEINT) AS b
    FROM fdocs d, range(8192) r WHERE r.range < d.n
),
fterms AS (
    SELECT doc_id, SUM((b * p.v) % {m64}) AS acc
    FROM fbytes JOIN fpows p ON p.k = fbytes.n - 1 - fbytes.i
    GROUP BY doc_id
),
fp AS (
    SELECT d.doc_id,
           ( (({s_lo} * pn.v) % {m64}
              + ((({s_hi} * pn.v) % 4294967296) * 4294967296)) % {m64}
             + COALESCE(t.acc, 0) ) % {m64} AS f
    FROM fdocs d
    JOIN fpows pn ON pn.k = d.n
    LEFT JOIN fterms t ON t.doc_id = d.doc_id
),
surv AS (
    SELECT fl.doc_id, fl.n_tokens, fp.f
    FROM flags fl JOIN fp USING (doc_id)
    WHERE fl.s1 = 1 AND fl.s2 = 1
),
winners AS (
    SELECT f, n_tokens,
           ROW_NUMBER() OVER (PARTITION BY f ORDER BY doc_id) AS rn
    FROM surv
)
SELECT CAST(0 AS BIGINT) AS stage, 'all' AS label,
       CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(n_tokens) AS BIGINT) AS sum_tokens FROM flags
UNION ALL
SELECT 1, 'lang_ok', CAST(COUNT(*) AS BIGINT),
       CAST(SUM(n_tokens) AS BIGINT) FROM flags WHERE s1 = 1
UNION ALL
SELECT 2, 'quality_ok', CAST(COUNT(*) AS BIGINT),
       CAST(SUM(n_tokens) AS BIGINT) FROM flags WHERE s1 = 1 AND s2 = 1
UNION ALL
SELECT 3, 'deduped', CAST(COUNT(*) AS BIGINT),
       CAST(SUM(n_tokens) AS BIGINT) FROM winners WHERE rn = 1
"""


def _shuffle_shards_sql(n_shards: int = 16) -> str:
    """Deterministic resharding manifest (queries.q_shuffle_shards):
    the murmur3 finalizer chain from the HLL recipe (HUGEINT wraps,
    32-bit-split mulmod) assigns shard = h % n and position = unsigned
    h; per shard COUNT / SUM(chars) / bit_xor of the int64 BIT PATTERN
    (matches numpy's int64 xor exactly) / first doc by (unsigned h,
    doc_id) via ROW_NUMBER."""
    m64 = "CAST('18446744073709551616' AS HUGEINT)"
    i63 = "CAST('9223372036854775808' AS HUGEINT)"
    c1 = 0xFF51AFD7ED558CCD
    c2 = 0xC4CEB9FE1A85EC53

    def mulmod(expr: str, c: int) -> str:
        return (
            f"CAST(((CAST({expr} AS HUGEINT) % 4294967296) * {c} % {m64}"
            f" + ((CAST({expr} AS HUGEINT) // 4294967296 * {c}) % 4294967296)"
            f" * 4294967296) % {m64} AS UBIGINT)"
        )

    return f"""
WITH keys AS (
    SELECT doc_id, n_chars, CAST(doc_id AS UBIGINT) AS k FROM documents
),
h1 AS (SELECT doc_id, n_chars, xor(k, k >> 33) AS h FROM keys),
h2 AS (SELECT doc_id, n_chars, {mulmod('h', c1)} AS h FROM h1),
h3 AS (SELECT doc_id, n_chars, xor(h, h >> 33) AS h FROM h2),
h4 AS (SELECT doc_id, n_chars, {mulmod('h', c2)} AS h FROM h3),
h5 AS (SELECT doc_id, n_chars, xor(h, h >> 33) AS h FROM h4),
sh AS (
    SELECT doc_id, n_chars, h,
           CAST(h % {n_shards} AS BIGINT) AS shard,
           CAST(CASE WHEN CAST(h AS HUGEINT) >= {i63}
                THEN CAST(h AS HUGEINT) - {m64}
                ELSE CAST(h AS HUGEINT) END AS BIGINT) AS hbits
    FROM h5
),
ranked AS (
    SELECT *, ROW_NUMBER() OVER (PARTITION BY shard ORDER BY h, doc_id) AS rn
    FROM sh
)
SELECT shard, CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(n_chars) AS BIGINT) AS sum_chars,
       CAST(bit_xor(hbits) AS BIGINT) AS xor_hash,
       MAX(CASE WHEN rn = 1 THEN doc_id END) AS first_doc
FROM ranked GROUP BY shard
"""


def _kcenter_chain_sql(k: int = 8) -> str:
    """The shared greedy k-center CTE chain (selection steps c0..c{k-1})
    used by both _kcenter_diversity_sql and _kcenter_assign_sql:
    components quantized with the shared floor(x·2^20 + 0.5) recipe,
    seed = max squared norm (ties min vec_id), then per step the exact
    int64 squared distance to the new center folds into the running min
    (LEAST) and the next center is the global (max md, min vec_id).
    Every CTE is MATERIALIZED — chained CTEs re-expand exponentially
    when inlined (CLAUDE.md)."""
    quant = float(1 << 20)
    steps = []
    for r in range(1, k):
        prev_c = f"c{r - 1}"
        # the new center's 64 components as a tiny MATERIALIZED CTE: a
        # scalar-subquery filter inside the eq⋈eq join defeats pushdown
        # (measured 2.3 s for the chain; this shape runs in ~0.1 s)
        base = (
            f"cc{r - 1} AS MATERIALIZED (\n"
            f"    SELECT e.d, e.e FROM eq e JOIN {prev_c} c\n"
            f"    ON e.vec_id = c.vec_id\n"
            f"),\n"
            f"nd{r} AS MATERIALIZED (\n"
            f"    SELECT q.vec_id, SUM((q.e - c.e) * (q.e - c.e)) AS nd\n"
            f"    FROM eq q JOIN cc{r - 1} c USING (d)\n"
            f"    GROUP BY q.vec_id\n"
            f")"
        )
        if r == 1:
            merge = (
                f"m1 AS MATERIALIZED (\n"
                f"    SELECT vec_id, nd AS md FROM nd1\n"
                f")"
            )
        else:
            merge = (
                f"m{r} AS MATERIALIZED (\n"
                f"    SELECT p.vec_id, LEAST(p.md, n.nd) AS md\n"
                f"    FROM m{r - 1} p JOIN nd{r} n USING (vec_id)\n"
                f")"
            )
        pick = (
            f"c{r} AS MATERIALIZED (\n"
            f"    SELECT vec_id, md FROM m{r}\n"
            f"    ORDER BY md DESC, vec_id LIMIT 1\n"
            f")"
        )
        steps.append(base + ",\n" + merge + ",\n" + pick)
    return f"""
WITH eq AS MATERIALIZED (
    SELECT vec_id,
           CAST(generate_subscripts(embedding, 1) - 1 AS BIGINT) AS d,
           CAST(floor(CAST(unnest(embedding) AS DOUBLE) * {quant} + 0.5)
                AS BIGINT) AS e
    FROM embeddings
),
norms AS MATERIALIZED (
    SELECT vec_id, SUM(e * e) AS n2 FROM eq GROUP BY vec_id
),
c0 AS MATERIALIZED (
    SELECT vec_id, n2 FROM norms ORDER BY n2 DESC, vec_id LIMIT 1
),
{",".join(steps)}"""


def _kcenter_diversity_sql(k: int = 8) -> str:
    """Greedy k-center selection (queries.q_kcenter_diversity): the
    shared chain's k argmax steps emitted as (rank, vec_id, d2)."""
    unions = ["SELECT CAST(0 AS BIGINT) AS rank, vec_id, CAST(n2 AS BIGINT) AS d2 FROM c0"]
    unions += [
        f"SELECT CAST({r} AS BIGINT), vec_id, CAST(md AS BIGINT) FROM c{r}"
        for r in range(1, k)
    ]
    return _kcenter_chain_sql(k) + "\n" + " UNION ALL ".join(unions) + "\n"


def _kcenter_assign_sql(k: int = 8) -> str:
    """Full-corpus assignment to the k-center exemplars
    (queries.q_kcenter_assign): every point's exact int64 squared
    distance to each chosen center, argmin with ties to the smaller
    rank, rolled up per center as (n_vectors, sum_vec_id, sum_d2) —
    integer sums only, so any assignment flip changes the hash."""
    cents = ["SELECT CAST(0 AS BIGINT) AS rank, vec_id FROM c0"]
    cents += [
        f"SELECT CAST({r} AS BIGINT), vec_id FROM c{r}" for r in range(1, k)
    ]
    return (
        _kcenter_chain_sql(k)
        + f""",
cents AS MATERIALIZED (
    {" UNION ALL ".join(cents)}
),
ce AS MATERIALIZED (
    SELECT ct.rank, e.d, e.e FROM cents ct JOIN eq e USING (vec_id)
),
d2s AS (
    SELECT q.vec_id, c.rank, SUM((q.e - c.e) * (q.e - c.e)) AS d2
    FROM eq q JOIN ce c USING (d)
    GROUP BY q.vec_id, c.rank
),
pick AS (
    SELECT vec_id, rank, d2,
           ROW_NUMBER() OVER (PARTITION BY vec_id ORDER BY d2, rank) AS rn
    FROM d2s
)
SELECT p.rank, ct.vec_id AS center_vec_id,
       CAST(COUNT(*) AS BIGINT) AS n_vectors,
       CAST(SUM(p.vec_id) AS BIGINT) AS sum_vec_id,
       CAST(SUM(p.d2) AS BIGINT) AS sum_d2
FROM pick p JOIN cents ct ON ct.rank = p.rank
WHERE p.rn = 1
GROUP BY p.rank, ct.vec_id
"""
    )


def _window_hash_cte(w: int = 40, s: int = 8) -> str:
    """Shared WITH-prefix of the duplicated-substring oracles: every
    w-char window at stride s fingerprinted with the _fingerprint_sql
    polynomial at FIXED length w (so the seed·B^w term is one Python
    literal, no per-row mulmod), as ``wh(doc_id, p, h)``.
    range(0, 8192, s) is a constant bound + filter (range is not
    lateral-correlatable); documents max 577 chars at every gate sf."""
    seed = 14695981039346656037
    base = 1099511628211
    m64 = "CAST('18446744073709551616' AS HUGEINT)"
    sw = (seed * base**w) % (1 << 64)  # seed·B^w mod 2^64, exact in Python
    return f"""
WITH docs AS (
    SELECT doc_id, text, CAST(length(text) AS BIGINT) AS n FROM documents
),
wins AS (
    SELECT d.doc_id, d.text, CAST(r.range AS BIGINT) AS p
    FROM docs d, range(0, 8192, {s}) r
    WHERE r.range <= d.n - {w}
),
pows AS (
    WITH RECURSIVE pp(k, v) AS (
        SELECT CAST(0 AS BIGINT) AS k, CAST(1 AS HUGEINT) AS v
        UNION ALL
        SELECT k + 1, (v * {base}) % {m64} FROM pp WHERE k < {w - 1}
    )
    SELECT k, v FROM pp
),
wh AS MATERIALIZED (
    SELECT doc_id, p,
           (CAST('{sw}' AS HUGEINT)
            + SUM((CAST(ord(substr(text, CAST(p + r.range + 1 AS INT), 1))
                        AS HUGEINT) * pw.v) % {m64})) % {m64} AS h
    FROM wins, range({w}) r
    JOIN pows pw ON pw.k = {w - 1} - r.range
    GROUP BY doc_id, p
)"""


def _dup_ngram_spans_sql(w: int = 40, s: int = 8) -> str:
    """Duplicated-substring spans (queries.q_dup_ngram_spans): windows
    whose hash repeats anywhere in the corpus kept, per-doc
    stride-islands via the gaps-and-islands p − s·row_number() key."""
    return (
        _window_hash_cte(w, s)
        + f""",
dup AS (SELECT h FROM wh GROUP BY h HAVING COUNT(*) > 1),
isl AS (
    SELECT wh.doc_id, wh.p,
           wh.p - {s} * ROW_NUMBER() OVER (
               PARTITION BY wh.doc_id ORDER BY wh.p) AS grp
    FROM wh JOIN dup USING (h)
)
SELECT doc_id, MIN(p) AS span_start, MAX(p) + {w} AS span_end,
       CAST(COUNT(*) AS BIGINT) AS n_windows
FROM isl GROUP BY doc_id, grp
"""
    )


def _dup_span_chars_sql(w: int = 40, s: int = 8) -> str:
    """Removal-plan accounting (queries.q_dup_span_chars): per window
    group the min-(doc_id, p) occurrence is canonical; remaining
    occurrences merge into COVERAGE intervals (a new interval starts
    when the gap to the previous kept position is ≥ w, i.e. the windows
    stop overlapping) and roll up per doc as exact removable chars."""
    return (
        _window_hash_cte(w, s)
        + f""",
ranked AS (
    SELECT doc_id, p,
           ROW_NUMBER() OVER (PARTITION BY h ORDER BY doc_id, p) AS rn,
           COUNT(*) OVER (PARTITION BY h) AS cnt
    FROM wh
),
kept AS (SELECT doc_id, p FROM ranked WHERE cnt > 1 AND rn > 1),
isl AS (
    SELECT doc_id, p,
           SUM(CASE WHEN prev_p IS NULL OR p - prev_p >= {w}
               THEN 1 ELSE 0 END)
               OVER (PARTITION BY doc_id ORDER BY p
                     ROWS UNBOUNDED PRECEDING) AS grp
    FROM (
        SELECT doc_id, p,
               LAG(p) OVER (PARTITION BY doc_id ORDER BY p) AS prev_p
        FROM kept
    )
),
spans AS (
    SELECT doc_id, grp, MAX(p) + {w} - MIN(p) AS chars
    FROM isl GROUP BY doc_id, grp
)
SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_dup_spans,
       CAST(SUM(chars) AS BIGINT) AS n_dup_chars
FROM spans GROUP BY doc_id
"""
    )


def _hits(word: str, col: str = "text") -> str:
    return f"len(list_filter(string_split({col}, ' '), x -> x = '{word}'))"


def _score(words) -> str:
    return " + ".join(_hits(w) for w in words)


def _horn_g_sql() -> str:
    """Shared Horn 3×3 gradient CTE chain (q_hillshade_stats /
    q_aspect_octants): the 8 clamped LCG taps per out cell, hoisted
    per-tile constants (mh) + per-out-cell tap constants (tapc
    MATERIALIZED, 64 rows) — the round-4 hoist recipe. Defines ``g``
    with one (gx, gy) row per out cell. Weights mirror
    raycells/io/tilestore._HORN_GX/_HORN_GY."""
    from raycells.io.tilestore import _HORN_GX, _HORN_GY

    offs = sorted(set(_HORN_GX) | set(_HORN_GY))
    tapcols = []
    for dy, dx in offs:
        ie = (
            f"(LEAST(GREATEST(CAST(rr.range AS BIGINT) + {dy}, 0), 63) * 64"
            f" + LEAST(GREATEST(CAST(cc.range AS BIGINT) + {dx}, 0), 63))"
        )
        tapcols.append(f"({ie} * 7) % 33 AS m7_{dy + 1}{dx + 1}")
        tapcols.append(f"(({ie} + 404) * 40503) % 65520 AS mh_{dy + 1}{dx + 1}")

    def v(dy: int, dx: int) -> str:
        return (
            f"(CASE WHEN (m.s33 + t.m7_{dy + 1}{dx + 1}) % 33 = 0 THEN 0 "
            f"ELSE 1 + (m.sh + t.mh_{dy + 1}{dx + 1}) % 65520 END)"
        )

    gx = " + ".join(f"({w}) * {v(dy, dx)}" for (dy, dx), w in _HORN_GX.items())
    gy = " + ".join(f"({w}) * {v(dy, dx)}" for (dy, dx), w in _HORN_GY.items())
    return f"""
        , mh AS (SELECT doc_id, span_idx, seed,
                 (seed * 2654435761) % 65520 AS sh, seed % 33 AS s33
                 FROM media),
        tapc AS MATERIALIZED (
            SELECT {", ".join(tapcols)}
            FROM range(8) rr, range(8) cc
        ),
        g AS (
            SELECT m.doc_id, m.span_idx, m.seed,
                   CAST({gx} AS BIGINT) AS gx,
                   CAST({gy} AS BIGINT) AS gy
            FROM mh m, tapc t
        )
    """


def _horn_sql() -> str:
    """Horn gradient moments (q_hillshade_stats) over the shared g CTE."""
    return _horn_g_sql() + """
        SELECT doc_id, span_idx, seed,
               CAST(SUM(gx) AS BIGINT) AS sum_gx,
               CAST(SUM(gy) AS BIGINT) AS sum_gy,
               CAST(SUM(ABS(gx)) AS BIGINT) AS sum_abs_gx,
               CAST(SUM(ABS(gy)) AS BIGINT) AS sum_abs_gy,
               CAST(MAX(gx * gx + gy * gy) AS BIGINT) AS max_g2
        FROM g GROUP BY doc_id, span_idx, seed
    """


# brute-force cosine top-k over the embeddings (q_knn_embeddings);
# also spliced into the ann_recall_eval oracle as the exact side
_KNN_EMB_SQL = """
            WITH q AS (
                SELECT vec_id AS query_id, embedding AS qe
                FROM embeddings WHERE vec_id < 3
            ),
            sims AS (
                SELECT q.query_id, e.vec_id,
                       FLOOR(list_cosine_similarity(q.qe, e.embedding) * 1000000 + 0.5) / 1000000 AS sim
                FROM embeddings e CROSS JOIN q
            ),
            ranked AS (
                SELECT query_id, vec_id,
                       CAST(ROW_NUMBER() OVER
                            (PARTITION BY query_id ORDER BY sim DESC, vec_id) AS BIGINT) AS rank
                FROM sims
            )
            SELECT query_id, vec_id, rank FROM ranked WHERE rank <= 10
        """


def _join_size_sql(w: int = 16) -> str:
    """CMS inner-product join-size estimate (q_join_size_estimate):
    per sketch row r, bucket(k) = murmur64(k XOR r·φ64) mod w over the
    RAW integer key (no polynomial hashing — the keys are ints), dot_r
    = Σ_bucket counterA·counterB, paired with the exact join size and
    the est ≥ true flag. Same murmur chain the cms_heavy_hitters
    oracle pins."""
    c1 = 0xFF51AFD7ED558CCD
    c2 = 0xC4CEB9FE1A85EC53
    phi = 0x9E3779B97F4A7C15
    parts = [
        """
        WITH ea AS MATERIALIZED (
            SELECT CAST(user_id AS BIGINT) AS k,
                   CAST(COUNT(*) AS BIGINT) AS n
            FROM events GROUP BY 1
        ),
        ob AS MATERIALIZED (
            SELECT CAST(o_custkey AS BIGINT) AS k,
                   CAST(COUNT(*) AS BIGINT) AS n
            FROM orders GROUP BY 1
        ),
        keys AS MATERIALIZED (
            SELECT k, CAST(k AS UBIGINT) AS th
            FROM (SELECT k FROM ea UNION SELECT k FROM ob)
        )"""
    ]
    for r in range(4):
        salt = (phi * r) % (1 << 64)
        x0 = "th" if salt == 0 else f"xor(th, CAST('{salt}' AS UBIGINT))"
        parts.append(
            f"""
        , j{r}a AS (SELECT k, {x0} AS h FROM keys),
        j{r}b AS (SELECT k, xor(h, h >> 33) AS h FROM j{r}a),
        j{r}c AS (SELECT k, {_mulmod64('h', c1)} AS h FROM j{r}b),
        j{r}d AS (SELECT k, xor(h, h >> 33) AS h FROM j{r}c),
        j{r}e AS (SELECT k, {_mulmod64('h', c2)} AS h FROM j{r}d),
        jb{r} AS (
            SELECT k, CAST({r} AS BIGINT) AS r,
                   CAST(xor(h, h >> 33) % {w} AS BIGINT) AS bucket
            FROM j{r}e
        )"""
        )
    union = " UNION ALL ".join(f"SELECT * FROM jb{r}" for r in range(4))
    parts.append(
        f"""
        , bks AS MATERIALIZED ({union}),
        ca AS (
            SELECT b.r, b.bucket, CAST(SUM(e.n) AS BIGINT) AS c
            FROM bks b JOIN ea e ON e.k = b.k GROUP BY 1, 2
        ),
        cb AS (
            SELECT b.r, b.bucket, CAST(SUM(o.n) AS BIGINT) AS c
            FROM bks b JOIN ob o ON o.k = b.k GROUP BY 1, 2
        ),
        dots AS (
            SELECT ca.r,
                   CAST(SUM(CAST(ca.c AS HUGEINT) * cb.c) AS BIGINT) AS dot
            FROM ca JOIN cb ON cb.r = ca.r AND cb.bucket = ca.bucket
            GROUP BY ca.r
        ),
        tru AS (
            SELECT CAST(SUM(CAST(e.n AS HUGEINT) * o.n) AS BIGINT) AS true_n
            FROM ea e JOIN ob o ON o.k = e.k
        )
        SELECT d.r, d.dot, tru.true_n,
               CAST(CASE WHEN d.dot >= tru.true_n THEN 1 ELSE 0 END
                    AS BIGINT) AS upper_ok
        FROM dots d CROSS JOIN tru
        """
    )
    return "".join(parts)


def _bpe_sql(k: int = 8) -> str:
    """BPE merge-loop oracle (q_bpe_merges): k unrolled
    count→argmax→replace steps over the word-frequency table. Symbol
    sequences use the engine's '\\x02sym ' boundary-anchored encoding;
    DuckDB replace() is the same greedy left-to-right non-overlapping
    scan as Python str.replace, so each step rewrites identically."""
    steps = []
    for i in range(1, k + 1):
        prev = f"v{i - 1}"
        steps.append(f"""
            t{i} AS (
                SELECT v.n, rtrim(list_extract(string_split(v.seq, chr(2)),
                           CAST(r.range + 2 AS INT))) AS sa,
                       rtrim(list_extract(string_split(v.seq, chr(2)),
                           CAST(r.range + 3 AS INT))) AS sb
                FROM {prev} v, range(32) r
                WHERE r.range < len(string_split(v.seq, chr(2))) - 2
            ),
            b{i} AS MATERIALIZED (
                SELECT sa, sb, CAST(SUM(n) AS BIGINT) AS n
                FROM t{i} GROUP BY sa, sb
                ORDER BY n DESC, sa, sb LIMIT 1
            ),
            v{i} AS MATERIALIZED (
                SELECT replace(v.seq,
                               chr(2) || b.sa || ' ' || chr(2) || b.sb || ' ',
                               chr(2) || b.sa || b.sb || ' ') AS seq, v.n
                FROM {prev} v, b{i} b
            )""")
    finals = " UNION ALL ".join(
        f"SELECT CAST({i} AS BIGINT) AS step, sa || ' ' || sb AS pair, "
        f"sa || sb AS merged, n FROM b{i}"
        for i in range(1, k + 1)
    )
    return f"""
        WITH wf AS MATERIALIZED (
            SELECT word, CAST(COUNT(*) AS BIGINT) AS n
            FROM (SELECT unnest(string_split(text, ' ')) AS word
                  FROM documents)
            WHERE word <> '' GROUP BY word
        ),
        v0 AS MATERIALIZED (
            SELECT string_agg(chr(2) || substr(word, CAST(r.range + 1 AS INT), 1)
                              || ' ', '' ORDER BY r.range) AS seq, n
            FROM wf, range(32) r WHERE r.range < length(word)
            GROUP BY word, n
        ),
        {", ".join(steps)}
        {finals}
    """


def _lttb_sql(B: int = 10) -> str:
    """Unrolled LTTB selection (q_lttb_downsample): B MATERIALIZED CTE
    steps, each picking the interior-bucket point with the largest
    count-cleared triangle area vs the previous selection and the next
    bucket's average (ties → earliest day). Requires n > B + 2 per type
    (30 calendar days here)."""
    head = f"""
        WITH daily AS (
            SELECT event_type, epoch_us(ts) // 86400000000 AS day,
                   CAST(SUM(CAST(floor(value * 100 + 0.5) AS BIGINT))
                        AS BIGINT) AS y
            FROM events GROUP BY 1, 2
        ),
        base AS MATERIALIZED (
            SELECT event_type, day, y,
                   CAST(ROW_NUMBER() OVER (PARTITION BY event_type
                                           ORDER BY day) - 1 AS BIGINT) AS r,
                   CAST(COUNT(*) OVER (PARTITION BY event_type)
                        AS BIGINT) AS n
            FROM daily
        ),
        interior AS MATERIALIZED (
            SELECT event_type, day, y, (r - 1) * {B} // (n - 2) AS bucket
            FROM base WHERE r >= 1 AND r <= n - 2
        ),
        lastpt AS MATERIALIZED (
            SELECT event_type, day, y FROM base WHERE r = n - 1
        ),
        bavg AS (
            SELECT event_type, bucket, CAST(COUNT(*) AS BIGINT) AS cn,
                   CAST(SUM(day) AS BIGINT) AS sx,
                   CAST(SUM(y) AS BIGINT) AS sy
            FROM interior GROUP BY 1, 2
        ),
        anchor AS MATERIALIZED (
            SELECT event_type, bucket - 1 AS bucket, cn, sx, sy
            FROM bavg WHERE bucket >= 1
            UNION ALL
            SELECT event_type, {B - 1}, CAST(1 AS BIGINT), day, y
            FROM lastpt
        ),
        s0 AS MATERIALIZED (
            SELECT event_type, day, y FROM base WHERE r = 0
        )"""
    steps = []
    for i in range(B):
        steps.append(
            f""",
        s{i + 1} AS MATERIALIZED (
            SELECT event_type, day, y FROM (
                SELECT c.event_type, c.day, c.y,
                       ROW_NUMBER() OVER (
                           PARTITION BY c.event_type
                           ORDER BY abs((p.day * a.cn - a.sx) * (c.y - p.y)
                                        - (p.day - c.day)
                                          * (a.sy - p.y * a.cn)) DESC,
                                    c.day ASC) AS rn
                FROM interior c
                JOIN s{i} p USING (event_type)
                JOIN anchor a ON a.event_type = c.event_type
                             AND a.bucket = {i}
                WHERE c.bucket = {i}
            ) WHERE rn = 1
        )"""
        )
    tails = [
        f"SELECT event_type, CAST({i} AS BIGINT) AS pos, day, y FROM s{i}"
        for i in range(B + 1)
    ]
    tails.append(
        f"SELECT event_type, CAST({B + 1} AS BIGINT) AS pos, day, y FROM lastpt"
    )
    return head + "".join(steps) + "\n" + "\nUNION ALL\n".join(tails)


def _pagerank_sql(iters: int = 5) -> str:
    """Unrolled integer-PageRank iterations (q_pagerank_parts): rank
    scale 10^12, damping 85/100 via floor division of non-negative
    ints — contributions are rank // deg per neighbor, so every rank is
    an exact BIGINT. MATERIALIZED per-iteration CTEs (CLAUDE.md:
    chained CTEs re-expand exponentially if inlined)."""
    parts = [
        """
        WITH lp AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem),
        e AS MATERIALIZED (
            SELECT DISTINCT a.l_partkey AS s, b.l_partkey AS d
            FROM lp a JOIN lp b
              ON a.l_orderkey = b.l_orderkey AND a.l_partkey <> b.l_partkey
        ),
        dg AS MATERIALIZED (
            SELECT s AS node, CAST(COUNT(*) AS BIGINT) AS deg FROM e GROUP BY s
        ),
        r0 AS MATERIALIZED (
            SELECT node, CAST(1000000000000 AS BIGINT) AS rank FROM dg
        )"""
    ]
    for t in range(1, iters + 1):
        parts.append(
            f""",
        r{t} AS MATERIALIZED (
            SELECT e.d AS node,
                   CAST(150000000000
                        + (85 * SUM(r.rank // g.deg)) // 100 AS BIGINT) AS rank
            FROM e JOIN r{t - 1} r ON r.node = e.s JOIN dg g ON g.node = e.s
            GROUP BY e.d
        )"""
        )
    parts.append(
        f"""
        SELECT g.node AS p_partkey, r.rank, g.deg
        FROM r{iters} r JOIN dg g ON g.node = r.node"""
    )
    return "".join(parts)


def build() -> dict:
    from raycells.text.analysis import LANG_MARKERS, STOPWORDS

    stop_expr = " + ".join(_hits(w) for w in STOPWORDS)
    scores = {lang: _score(ws) for lang, ws in LANG_MARKERS.items()}
    langs = list(scores)
    greatest = "greatest(" + ", ".join(f"s_{l}" for l in langs) + ")"
    detect_case = "CASE WHEN " + greatest + " = 0 THEN 'und' "
    for l in langs:
        detect_case += f"WHEN s_{l} = {greatest} THEN '{l}' "
    detect_case += "END"

    out = {
        # hillshade_stats (q_hillshade_stats): Horn 3×3 gradient moments
        # over band 4, window (0,0)+(8,8), tile-edge replicate clamp.
        "hillshade_stats": _MEDIA + _horn_sql(),
        # aspect_octants (q_aspect_octants): gdaldem-aspect octant
        # histogram per tile — the Bresenham octant tree (negate/rotate/
        # diagonal compare) in pure integer comparisons, identical CASE
        # tree both engines; (0,0) gradients count as flat.
        "aspect_octants": _MEDIA + _horn_g_sql()
        + """
            , oc AS (
                SELECT doc_id, span_idx, seed,
                       CASE WHEN gx = 0 AND gy = 0 THEN -1
                            WHEN gy >= 0 AND gx >= 0 THEN
                                CASE WHEN gy > gx THEN 1 ELSE 0 END
                            WHEN gy >= 0 THEN
                                CASE WHEN -gx > gy THEN 3 ELSE 2 END
                            WHEN gx <= 0 THEN
                                CASE WHEN -gy > -gx THEN 5 ELSE 4 END
                            ELSE CASE WHEN gx > -gy THEN 7 ELSE 6 END
                       END AS o
                FROM g
            )
            SELECT doc_id, span_idx, seed,
                   CAST(SUM(CASE WHEN o = -1 THEN 1 ELSE 0 END) AS BIGINT) AS n_flat,
                   CAST(SUM(CASE WHEN o = 0 THEN 1 ELSE 0 END) AS BIGINT) AS n_o0,
                   CAST(SUM(CASE WHEN o = 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_o1,
                   CAST(SUM(CASE WHEN o = 2 THEN 1 ELSE 0 END) AS BIGINT) AS n_o2,
                   CAST(SUM(CASE WHEN o = 3 THEN 1 ELSE 0 END) AS BIGINT) AS n_o3,
                   CAST(SUM(CASE WHEN o = 4 THEN 1 ELSE 0 END) AS BIGINT) AS n_o4,
                   CAST(SUM(CASE WHEN o = 5 THEN 1 ELSE 0 END) AS BIGINT) AS n_o5,
                   CAST(SUM(CASE WHEN o = 6 THEN 1 ELSE 0 END) AS BIGINT) AS n_o6,
                   CAST(SUM(CASE WHEN o = 7 THEN 1 ELSE 0 END) AS BIGINT) AS n_o7
            FROM oc GROUP BY doc_id, span_idx, seed
        """,
        # mosaic_blend (q_mosaic_blend): per-grid-cell MAX blend of the
        # member tiles' 8×8 band-4 windows (nodata = 0 loses to any
        # valid value), then per-cell stats of the blended raster.
        "mosaic_blend": _MEDIA + """
            , mh AS (
                SELECT seed,
                       (seed * 2654435761) % 65520 AS sh, seed % 33 AS s33,
                       CAST(floor((CASE WHEN seed % 10 < 6 THEN
                                (CASE seed % 3 WHEN 0 THEN 40.7 WHEN 1 THEN 48.85 ELSE 35.7 END)
                                + ((seed * 57) % 2000 - 1000) / 1000.0
                            ELSE ((seed * 7919) % 170000) / 1000.0 - 85.0 END
                            + 90.0) / 0.25) * 1440
                          + floor((CASE WHEN seed % 10 < 6 THEN
                                (CASE seed % 3 WHEN 0 THEN -74.0 WHEN 1 THEN 2.35 ELSE 139.7 END)
                                + ((seed * 31) % 2000 - 1000) / 1000.0
                            ELSE ((seed * 9973) % 360000) / 1000.0 - 180.0 END
                            + 180.0) / 0.25) AS BIGINT) AS grid_cell
                FROM media
            ),
            tapc AS MATERIALIZED (
                SELECT CAST(rr.range * 8 + cc.range AS BIGINT) AS pos,
                       ((rr.range * 64 + cc.range) * 7) % 33 AS m7,
                       (((rr.range * 64 + cc.range) + 404) * 40503) % 65520 AS mhh
                FROM range(8) rr, range(8) cc
            ),
            blend AS (
                SELECT m.grid_cell, t.pos,
                       MAX(CASE WHEN (m.s33 + t.m7) % 33 = 0 THEN 0
                           ELSE 1 + (m.sh + t.mhh) % 65520 END) AS bv
                FROM mh m, tapc t GROUP BY m.grid_cell, t.pos
            ),
            nt AS (
                SELECT grid_cell, CAST(COUNT(*) AS BIGINT) AS n_tiles
                FROM mh GROUP BY grid_cell
            )
            SELECT b.grid_cell, nt.n_tiles,
                   CAST(SUM(bv) AS BIGINT) AS blend_sum,
                   CAST(MIN(bv) AS BIGINT) AS blend_min,
                   CAST(MAX(bv) AS BIGINT) AS blend_max
            FROM blend b JOIN nt USING (grid_cell)
            GROUP BY b.grid_cell, nt.n_tiles
        """,
        # cusum_daily (q_cusum_daily): one-sided positive CUSUM of daily
        # cent sums per type, division-free n-scaled units — the
        # recurrence as a recursive CTE over the day rank.
        "cusum_daily": """
            WITH RECURSIVE daily AS (
                SELECT event_type, strftime(ts, '%Y-%m-%d') AS day,
                       CAST(SUM(CAST(floor(value * 100 + 0.5) AS BIGINT))
                            AS BIGINT) AS x_c
                FROM events GROUP BY 1, 2
            ),
            tot AS (
                SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n,
                       CAST(SUM(x_c) AS BIGINT) AS t
                FROM daily GROUP BY 1
            ),
            dev AS MATERIALIZED (
                SELECT d.event_type, d.day, d.x_c,
                       d.x_c * tot.n - tot.t AS dev_n,
                       ROW_NUMBER() OVER (PARTITION BY d.event_type
                           ORDER BY d.day) AS rn
                FROM daily d JOIN tot USING (event_type)
            ),
            cus AS (
                SELECT event_type, day, x_c, dev_n, rn,
                       GREATEST(CAST(0 AS BIGINT), dev_n) AS cusum_n
                FROM dev WHERE rn = 1
                UNION ALL
                SELECT d.event_type, d.day, d.x_c, d.dev_n, d.rn,
                       GREATEST(CAST(0 AS BIGINT), c.cusum_n + d.dev_n)
                FROM dev d JOIN cus c
                  ON c.event_type = d.event_type AND d.rn = c.rn + 1
            )
            SELECT event_type, day, x_c, dev_n, cusum_n FROM cus
        """,
        # value_ntiles (q_value_ntiles): NTILE(4) under the
        # deterministic (cents, event_id) order, per-(type, ntile)
        # exact-integer rollup.
        "value_ntiles": """
            WITH t AS (
                SELECT event_type,
                       CAST(floor(value * 100 + 0.5) AS BIGINT) AS x,
                       NTILE(4) OVER (PARTITION BY event_type
                           ORDER BY CAST(floor(value * 100 + 0.5) AS BIGINT),
                                    event_id) AS nt
                FROM events
            )
            SELECT event_type, CAST(nt AS BIGINT) AS ntile,
                   CAST(COUNT(*) AS BIGINT) AS n_rows,
                   CAST(SUM(x) AS BIGINT) AS sum_c,
                   CAST(MIN(x) AS BIGINT) AS min_c,
                   CAST(MAX(x) AS BIGINT) AS max_c
            FROM t GROUP BY 1, 2
        """,
        # column_profile (q_column_profile): per-column null / exact
        # distinct / min-max profile; o_orderdate profiled as its
        # '%Y-%m-%d' string, int extrema cast AFTER the numeric fold.
        "column_profile": """
            WITH d AS (SELECT *, strftime(o_orderdate, '%Y-%m-%d') AS od
                       FROM orders)
            SELECT 'o_orderkey' AS col,
                   CAST(COUNT(o_orderkey) AS BIGINT) AS n_nonnull,
                   CAST(COUNT(*) - COUNT(o_orderkey) AS BIGINT) AS n_null,
                   CAST(COUNT(DISTINCT o_orderkey) AS BIGINT) AS n_distinct,
                   CAST(MIN(o_orderkey) AS VARCHAR) AS min_s,
                   CAST(MAX(o_orderkey) AS VARCHAR) AS max_s
            FROM d
            UNION ALL
            SELECT 'o_custkey', CAST(COUNT(o_custkey) AS BIGINT),
                   CAST(COUNT(*) - COUNT(o_custkey) AS BIGINT),
                   CAST(COUNT(DISTINCT o_custkey) AS BIGINT),
                   CAST(MIN(o_custkey) AS VARCHAR),
                   CAST(MAX(o_custkey) AS VARCHAR)
            FROM d
            UNION ALL
            SELECT 'o_orderstatus', CAST(COUNT(o_orderstatus) AS BIGINT),
                   CAST(COUNT(*) - COUNT(o_orderstatus) AS BIGINT),
                   CAST(COUNT(DISTINCT o_orderstatus) AS BIGINT),
                   MIN(o_orderstatus), MAX(o_orderstatus)
            FROM d
            UNION ALL
            SELECT 'o_orderpriority', CAST(COUNT(o_orderpriority) AS BIGINT),
                   CAST(COUNT(*) - COUNT(o_orderpriority) AS BIGINT),
                   CAST(COUNT(DISTINCT o_orderpriority) AS BIGINT),
                   MIN(o_orderpriority), MAX(o_orderpriority)
            FROM d
            UNION ALL
            SELECT 'o_orderdate', CAST(COUNT(od) AS BIGINT),
                   CAST(COUNT(*) - COUNT(od) AS BIGINT),
                   CAST(COUNT(DISTINCT od) AS BIGINT),
                   MIN(od), MAX(od)
            FROM d
        """,
        # join_size_estimate (q_join_size_estimate): CMS inner-product
        # join-cardinality estimate vs the exact size.
        "join_size_estimate": _join_size_sql(16),
        # ann_recall_eval (q_ann_recall_eval): recall@10 of the LSH ANN
        # vs exact brute force — both chains spliced as subqueries, so
        # the eval inherits their pinned determinism.
        "ann_recall_eval": f"""
            WITH ann AS MATERIALIZED (
                SELECT query_id, vec_id FROM ({_ann_lsh_sql()}) t
            ),
            ex AS MATERIALIZED (
                SELECT query_id, vec_id FROM ({_KNN_EMB_SQL}) t
            ),
            hits AS (
                SELECT a.query_id, CAST(COUNT(*) AS BIGINT) AS n_hit
                FROM ann a JOIN ex e USING (query_id, vec_id)
                GROUP BY 1
            )
            SELECT q.query_id,
                   COALESCE(h.n_hit, 0) AS n_hit,
                   CAST(10 AS BIGINT) AS k,
                   CAST(COALESCE(h.n_hit, 0) * 1000000 // 10 AS BIGINT)
                       AS recall_e6
            FROM (SELECT DISTINCT query_id FROM ex) q
            LEFT JOIN hits h ON h.query_id = q.query_id
        """,
        # event_transitions (q_event_transitions): Markov transition
        # counts under the (ts, event_id) order + exact ppm share of
        # the source state's outgoing edges.
        "event_transitions": """
            WITH s AS (
                SELECT CAST(user_id AS BIGINT) AS u, event_type,
                       LAG(event_type) OVER (
                           PARTITION BY user_id
                           ORDER BY ts, event_id) AS prev_type
                FROM events
            ),
            tr AS (
                SELECT prev_type, event_type AS next_type,
                       CAST(COUNT(*) AS BIGINT) AS n
                FROM s WHERE prev_type IS NOT NULL
                GROUP BY 1, 2
            ),
            tot AS (
                SELECT prev_type, CAST(SUM(n) AS BIGINT) AS out_n
                FROM tr GROUP BY 1
            )
            SELECT tr.prev_type, tr.next_type, tr.n,
                   CAST(tr.n * 1000000 // tot.out_n AS BIGINT) AS share_ppm
            FROM tr JOIN tot USING (prev_type)
        """,
        # bpe_merges (q_bpe_merges): BPE tokenizer training — 8
        # unrolled count→argmax→replace merge steps.
        "bpe_merges": _bpe_sql(8),
        # embedding_profile (q_embedding_profile): per-dimension exact
        # quantized feature statistics (2^-20 — the shared recipe).
        "embedding_profile": """
            WITH e AS (
                SELECT CAST(generate_subscripts(embedding, 1) - 1 AS BIGINT)
                           AS dim,
                       CAST(floor(CAST(unnest(embedding) AS DOUBLE)
                                  * 1048576.0 + 0.5) AS BIGINT) AS v
                FROM embeddings
            )
            SELECT dim, CAST(COUNT(*) AS BIGINT) AS n,
                   CAST(SUM(v) AS BIGINT) AS sum_q,
                   CAST(MIN(v) AS BIGINT) AS min_q,
                   CAST(MAX(v) AS BIGINT) AS max_q,
                   CAST(SUM(CASE WHEN v > 0 THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_pos,
                   CAST(SUM(v * v) AS BIGINT) AS sum_q2
            FROM e GROUP BY dim
        """,
        # fuzzy_token_match (q_fuzzy_token_match): middle-deletion typo
        # probes joined to the vocabulary at levenshtein ≤ 1 — DuckDB's
        # own levenshtein() is the semantic truth the SymSpell
        # deletion-neighborhood join must reproduce at recall 1.0.
        "fuzzy_token_match": """
            WITH w AS MATERIALIZED (
                SELECT DISTINCT unnest(string_split(text, ' ')) AS word
                FROM documents
            ),
            wv AS (SELECT word FROM w WHERE length(word) > 0),
            pr AS (
                SELECT DISTINCT
                       substr(word, 1, CAST(length(word) // 2 AS INT))
                       || substr(word, CAST(length(word) // 2 AS INT) + 2)
                           AS probe
                FROM wv WHERE length(word) >= 2
            )
            SELECT p.probe, v.word,
                   CAST(levenshtein(p.probe, v.word) AS BIGINT) AS dist
            FROM pr p JOIN wv v ON levenshtein(p.probe, v.word) <= 1
        """,
        # gap_fill (q_gap_fill): the (type, day) rollup densified over
        # the full calendar × type grid, zero-filled.
        "gap_fill": """
            WITH daily AS (
                SELECT event_type, strftime(ts, '%Y-%m-%d') AS day,
                       CAST(COUNT(*) AS BIGINT) AS n_events,
                       CAST(SUM(CAST(floor(value * 100 + 0.5) AS BIGINT))
                            AS BIGINT) AS sum_c
                FROM events GROUP BY 1, 2
            ),
            bounds AS (
                SELECT CAST(MIN(day) AS DATE) AS d0,
                       CAST(MAX(day) AS DATE) AS d1
                FROM daily
            ),
            cal AS (
                SELECT strftime(CAST(u.d AS DATE), '%Y-%m-%d') AS day
                FROM bounds,
                     unnest(generate_series(bounds.d0, bounds.d1,
                                            INTERVAL 1 DAY)) AS u(d)
            ),
            grid AS (
                SELECT t.event_type, c.day
                FROM (SELECT DISTINCT event_type FROM daily) t
                CROSS JOIN cal c
            )
            SELECT g.event_type, g.day,
                   COALESCE(d.n_events, 0) AS n_events,
                   COALESCE(d.sum_c, 0) AS sum_c,
                   CAST(CASE WHEN d.n_events IS NOT NULL THEN 1 ELSE 0 END
                        AS BIGINT) AS had_events
            FROM grid g LEFT JOIN daily d USING (event_type, day)
        """,
        # brand_price_rank (q_brand_price_rank): exact PERCENT_RANK
        # within brand, (price, partkey) order.
        "brand_price_rank": """
            WITH p AS (
                SELECT p_partkey, p_brand,
                       CAST(floor(p_retailprice * 100 + 0.5) AS BIGINT)
                           AS price_c
                FROM part
            )
            SELECT p_partkey, p_brand, price_c,
                   CASE WHEN COUNT(*) OVER (PARTITION BY p_brand) > 1
                        THEN (ROW_NUMBER() OVER (PARTITION BY p_brand
                                                 ORDER BY price_c,
                                                          p_partkey) - 1)
                             * 1000000
                             // (COUNT(*) OVER (PARTITION BY p_brand) - 1)
                        ELSE 0 END AS prank_e6
            FROM p
        """,
        # basket_size_hist (q_basket_size_hist): orders by distinct
        # part count.
        "basket_size_hist": """
            WITH lp AS (
                SELECT DISTINCT l_orderkey, l_partkey FROM lineitem
            ),
            s AS (
                SELECT l_orderkey, CAST(COUNT(*) AS BIGINT) AS bs
                FROM lp GROUP BY 1
            )
            SELECT bs AS basket_size, CAST(COUNT(*) AS BIGINT) AS n_orders
            FROM s GROUP BY bs
        """,
        # fulfillment_lag (q_fulfillment_lag): order→last-ship lag days,
        # exact p50/p90 per priority (rank ceil(q·n)).
        "fulfillment_lag": """
            WITH lm AS (
                SELECT l_orderkey, MAX(epoch_us(l_shipdate)) AS ship_max
                FROM lineitem GROUP BY 1
            ),
            j AS (
                SELECT o.o_orderpriority,
                       (lm.ship_max - epoch_us(o.o_orderdate))
                           // 86400000000 AS lag
                FROM orders o JOIN lm ON lm.l_orderkey = o.o_orderkey
            ),
            r AS (
                SELECT o_orderpriority, lag,
                       ROW_NUMBER() OVER (PARTITION BY o_orderpriority
                                          ORDER BY lag) AS rn,
                       CAST(COUNT(*) OVER (PARTITION BY o_orderpriority)
                            AS BIGINT) AS cnt
                FROM j
            )
            SELECT p50.o_orderpriority,
                   p50.cnt AS n_orders,
                   CAST(p50.lag AS BIGINT) AS p50_lag,
                   CAST(p90.lag AS BIGINT) AS p90_lag
            FROM (SELECT * FROM r
                  WHERE rn = CAST(ceil(0.5 * cnt) AS BIGINT)) p50
            JOIN (SELECT * FROM r
                  WHERE rn = CAST(ceil(0.9 * cnt) AS BIGINT)) p90
                 USING (o_orderpriority)
        """,
        # sourcing_concentration (q_sourcing_concentration): distinct
        # suppliers + top-supplier ppm share per part.
        "sourcing_concentration": """
            WITH c AS (
                SELECT l_partkey, l_suppkey, CAST(COUNT(*) AS BIGINT) AS n
                FROM lineitem GROUP BY 1, 2
            ),
            r AS (
                SELECT l_partkey, l_suppkey, n,
                       ROW_NUMBER() OVER (PARTITION BY l_partkey
                                          ORDER BY n DESC,
                                                   l_suppkey ASC) AS rn,
                       CAST(SUM(n) OVER (PARTITION BY l_partkey)
                            AS BIGINT) AS total,
                       CAST(COUNT(*) OVER (PARTITION BY l_partkey)
                            AS BIGINT) AS ns
                FROM c
            )
            SELECT l_partkey, ns AS n_suppliers, total AS n_lines,
                   l_suppkey AS top_suppkey,
                   n * 1000000 // total AS top_share_ppm
            FROM r WHERE rn = 1
        """,
        # vector_norm_audit (q_vector_norm_audit): per-label exact
        # quantized norm² stats + zero-vector count.
        "vector_norm_audit": """
            WITH comp AS (
                SELECT vec_id, label, unnest(embedding) AS ev
                FROM embeddings
            ),
            qv AS (
                SELECT vec_id, label,
                       CAST(floor(CAST(ev AS DOUBLE) * 1048576.0 + 0.5)
                            AS BIGINT) AS e
                FROM comp
            ),
            v AS (
                SELECT vec_id, CAST(ANY_VALUE(label) AS BIGINT) AS label,
                       CAST(SUM(e * e) AS BIGINT) AS norm2
                FROM qv GROUP BY vec_id
            )
            SELECT label, CAST(COUNT(*) AS BIGINT) AS n,
                   CAST(MIN(norm2) AS BIGINT) AS min_norm2,
                   CAST(MAX(norm2) AS BIGINT) AS max_norm2,
                   CAST(SUM(norm2) AS BIGINT) AS sum_norm2,
                   CAST(SUM(CASE WHEN norm2 = 0 THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_zero
            FROM v GROUP BY label
        """,
        # contour_cases (q_contour_cases): marching-squares straddle
        # census per 2×2 window block, per-cell rollup; all four
        # corners computed inline from the closed-form value formula.
        "contour_cases": _MEDIA + """
            , mh AS (
                SELECT doc_id, span_idx, seed,
                       (seed * 2654435761) % 65520 AS sh, seed % 33 AS s33,
                       CAST(floor((CASE WHEN seed % 10 < 6 THEN
                                (CASE seed % 3 WHEN 0 THEN 40.7 WHEN 1 THEN 48.85 ELSE 35.7 END)
                                + ((seed * 57) % 2000 - 1000) / 1000.0
                            ELSE ((seed * 7919) % 170000) / 1000.0 - 85.0 END
                            + 90.0) / 0.25) * 1440
                          + floor((CASE WHEN seed % 10 < 6 THEN
                                (CASE seed % 3 WHEN 0 THEN -74.0 WHEN 1 THEN 2.35 ELSE 139.7 END)
                                + ((seed * 31) % 2000 - 1000) / 1000.0
                            ELSE ((seed * 9973) % 360000) / 1000.0 - 180.0 END
                            + 180.0) / 0.25) AS BIGINT) AS grid_cell
                FROM media
            ),
            tapb AS MATERIALIZED (
                SELECT ((rr.range * 64 + cc.range) * 7) % 33 AS m7a,
                       (((rr.range * 64 + cc.range) + 404) * 40503) % 65520 AS mha,
                       ((rr.range * 64 + cc.range + 1) * 7) % 33 AS m7b,
                       (((rr.range * 64 + cc.range + 1) + 404) * 40503) % 65520 AS mhb,
                       (((rr.range + 1) * 64 + cc.range) * 7) % 33 AS m7c,
                       ((((rr.range + 1) * 64 + cc.range) + 404) * 40503) % 65520 AS mhc,
                       (((rr.range + 1) * 64 + cc.range + 1) * 7) % 33 AS m7d,
                       ((((rr.range + 1) * 64 + cc.range + 1) + 404) * 40503) % 65520 AS mhd
                FROM range(7) rr, range(7) cc
            ),
            blocks AS (
                SELECT m.doc_id, m.span_idx, m.grid_cell,
                       (CASE WHEN (m.s33 + t.m7a) % 33 = 0 THEN 0
                             ELSE 1 + (m.sh + t.mha) % 65520 END) > 32760 AS ca,
                       (CASE WHEN (m.s33 + t.m7b) % 33 = 0 THEN 0
                             ELSE 1 + (m.sh + t.mhb) % 65520 END) > 32760 AS cb,
                       (CASE WHEN (m.s33 + t.m7c) % 33 = 0 THEN 0
                             ELSE 1 + (m.sh + t.mhc) % 65520 END) > 32760 AS cc2,
                       (CASE WHEN (m.s33 + t.m7d) % 33 = 0 THEN 0
                             ELSE 1 + (m.sh + t.mhd) % 65520 END) > 32760 AS cd
                FROM mh m, tapb t
            ),
            tile AS (
                SELECT doc_id, span_idx, grid_cell,
                       CAST(SUM(CASE WHEN NOT ((ca AND cb AND cc2 AND cd)
                                     OR NOT (ca OR cb OR cc2 OR cd))
                                THEN 1 ELSE 0 END) AS BIGINT) AS nc
                FROM blocks GROUP BY 1, 2, 3
            )
            SELECT grid_cell, CAST(COUNT(*) AS BIGINT) AS n_tiles,
                   CAST(SUM(nc) AS BIGINT) AS sum_n_crossing,
                   CAST(MAX(nc) AS BIGINT) AS max_n_crossing
            FROM tile GROUP BY grid_cell
        """,
        # morton_cells (q_morton_cells): level-12 Z-order keys by bit
        # interleave of 4096-scaled integer coordinates.
        "morton_cells": _MEDIA + """
            , pts AS (
                SELECT doc_id, span_idx,
                       ((CASE WHEN seed % 10 < 6 THEN
                            (CASE seed % 3 WHEN 0 THEN -74000
                                  WHEN 1 THEN 2350 ELSE 139700 END)
                            + (seed * 31) % 2000 - 1000
                        ELSE (seed * 9973) % 360000 - 180000 END)
                        + 180000) * 4096 // 360001 AS xi,
                       ((CASE WHEN seed % 10 < 6 THEN
                            (CASE seed % 3 WHEN 0 THEN 40700
                                  WHEN 1 THEN 48850 ELSE 35700 END)
                            + (seed * 57) % 2000 - 1000
                        ELSE (seed * 7919) % 170000 - 85000 END)
                        + 90000) * 4096 // 180001 AS yi
                FROM media
            ),
            mk AS (
                SELECT p.doc_id, p.span_idx,
                       CAST(SUM((((p.xi >> CAST(k.range AS BIGINT)) & 1)
                                 << (2 * CAST(k.range AS BIGINT)))
                                + (((p.yi >> CAST(k.range AS BIGINT)) & 1)
                                   << (2 * CAST(k.range AS BIGINT) + 1)))
                            AS BIGINT) AS morton
                FROM pts p, range(12) k
                GROUP BY 1, 2
            )
            SELECT morton, CAST(COUNT(*) AS BIGINT) AS n_tiles
            FROM mk GROUP BY morton
        """,
        # tile_texture (q_tile_texture): distinct window values per
        # tile, rolled up per cell.
        "tile_texture": _MEDIA + """
            , mh AS (
                SELECT doc_id, span_idx, seed,
                       (seed * 2654435761) % 65520 AS sh, seed % 33 AS s33,
                       CAST(floor((CASE WHEN seed % 10 < 6 THEN
                                (CASE seed % 3 WHEN 0 THEN 40.7 WHEN 1 THEN 48.85 ELSE 35.7 END)
                                + ((seed * 57) % 2000 - 1000) / 1000.0
                            ELSE ((seed * 7919) % 170000) / 1000.0 - 85.0 END
                            + 90.0) / 0.25) * 1440
                          + floor((CASE WHEN seed % 10 < 6 THEN
                                (CASE seed % 3 WHEN 0 THEN -74.0 WHEN 1 THEN 2.35 ELSE 139.7 END)
                                + ((seed * 31) % 2000 - 1000) / 1000.0
                            ELSE ((seed * 9973) % 360000) / 1000.0 - 180.0 END
                            + 180.0) / 0.25) AS BIGINT) AS grid_cell
                FROM media
            ),
            tapc AS MATERIALIZED (
                SELECT ((rr.range * 64 + cc.range) * 7) % 33 AS m7,
                       (((rr.range * 64 + cc.range) + 404) * 40503) % 65520
                           AS mhh
                FROM range(8) rr, range(8) cc
            ),
            px AS (
                SELECT m.doc_id, m.span_idx, m.grid_cell,
                       (CASE WHEN (m.s33 + t.m7) % 33 = 0 THEN 0
                        ELSE 1 + (m.sh + t.mhh) % 65520 END) AS v
                FROM mh m, tapc t
            ),
            tile AS (
                SELECT doc_id, span_idx, grid_cell,
                       CAST(COUNT(DISTINCT v) AS BIGINT) AS nd
                FROM px GROUP BY 1, 2, 3
            )
            SELECT grid_cell, CAST(COUNT(*) AS BIGINT) AS n_tiles,
                   CAST(SUM(nd) AS BIGINT) AS sum_n_distinct,
                   CAST(MIN(nd) AS BIGINT) AS min_n_distinct,
                   CAST(MAX(nd) AS BIGINT) AS max_n_distinct
            FROM tile GROUP BY grid_cell
        """,
        # footprint_selectivity (q_footprint_selectivity): bbox
        # candidates vs exact PIP hits per footprint.
        "footprint_selectivity": _MEDIA + _GEO_PTS + _PIP_HITS + """
            SELECT b.footprint_id, b.n_bbox, COALESCE(e.n_exact, 0) AS n_exact
            FROM (
                SELECT footprint_id, CAST(COUNT(*) AS BIGINT) AS n_bbox
                FROM cand_fp GROUP BY 1
            ) b LEFT JOIN (
                SELECT footprint_id, CAST(COUNT(*) AS BIGINT) AS n_exact
                FROM pip_hits GROUP BY 1
            ) e USING (footprint_id)
        """,
        # ttr_by_source (q_ttr_by_source): type-token ratio inputs —
        # tokens / distinct types / hapax per source.
        "ttr_by_source": """
            WITH tk AS (
                SELECT source, unnest(string_split(text, ' ')) AS token
                FROM documents
            ),
            cnt AS (
                SELECT source, token, CAST(COUNT(*) AS BIGINT) AS n
                FROM tk WHERE token <> '' GROUP BY 1, 2
            )
            SELECT source, CAST(SUM(n) AS BIGINT) AS n_tokens,
                   CAST(COUNT(*) AS BIGINT) AS n_types,
                   CAST(SUM(CASE WHEN n = 1 THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_hapax
            FROM cnt GROUP BY source
        """,
        # top_copurchases (q_top_copurchases): per-part top-3 partners
        # by (n DESC, partner ASC) over pairs with >= 2 shared orders.
        "top_copurchases": """
            WITH lp AS (
                SELECT DISTINCT l_orderkey, l_partkey FROM lineitem
            ),
            pc0 AS (
                SELECT a.l_partkey AS p1, b.l_partkey AS p2,
                       CAST(COUNT(*) AS BIGINT) AS n
                FROM lp a JOIN lp b
                  ON a.l_orderkey = b.l_orderkey
                 AND a.l_partkey < b.l_partkey
                GROUP BY 1, 2 HAVING COUNT(*) >= 2
            ),
            fan AS (
                SELECT p1 AS p_partkey, p2 AS partner, n FROM pc0
                UNION ALL SELECT p2, p1, n FROM pc0
            ),
            r AS (
                SELECT p_partkey, partner, n,
                       ROW_NUMBER() OVER (PARTITION BY p_partkey
                                          ORDER BY n DESC, partner ASC)
                           AS rn
                FROM fan
            )
            SELECT p_partkey, CAST(rn AS BIGINT) AS rank, partner,
                   CAST(n AS BIGINT) AS n_orders
            FROM r WHERE rn <= 3
        """,
        # knn_tiles_haversine (q_knn_tiles_haversine): spherical top-8
        # per query under the monotone hav term — sin/cos/radians only
        # (libm-parity-verified set), mirrored expression tree.
        "knn_tiles_haversine": _MEDIA + """
            , pts AS (SELECT DISTINCT seed FROM media),
            geo AS (
                SELECT seed,
                       CASE WHEN seed % 10 < 6 THEN
                            (CASE seed % 3 WHEN 0 THEN -74.0
                                  WHEN 1 THEN 2.35 ELSE 139.7 END)
                            + ((seed * 31) % 2000 - 1000) / 1000.0
                       ELSE ((seed * 9973) % 360000) / 1000.0 - 180.0
                       END AS lon,
                       CASE WHEN seed % 10 < 6 THEN
                            (CASE seed % 3 WHEN 0 THEN 40.7
                                  WHEN 1 THEN 48.85 ELSE 35.7 END)
                            + ((seed * 57) % 2000 - 1000) / 1000.0
                       ELSE ((seed * 7919) % 170000) / 1000.0 - 85.0
                       END AS lat
                FROM pts
            ),
            q AS (
                SELECT * FROM (VALUES (0, -74.0, 40.7), (1, 2.35, 48.85),
                                      (2, 139.7, 35.7)) t(query_id, qlon, qlat)
            ),
            hv AS (
                SELECT q.query_id, g.seed,
                       sin((radians(g.lat) - radians(q.qlat)) / 2.0)
                       * sin((radians(g.lat) - radians(q.qlat)) / 2.0)
                       + cos(radians(q.qlat)) * cos(radians(g.lat))
                         * (sin((radians(g.lon) - radians(q.qlon)) / 2.0)
                            * sin((radians(g.lon) - radians(q.qlon)) / 2.0))
                           AS hav
                FROM geo g CROSS JOIN q
            ),
            ranked AS (
                SELECT query_id, seed, hav,
                       CAST(ROW_NUMBER() OVER (PARTITION BY query_id
                                               ORDER BY hav, seed)
                            AS BIGINT) AS rank
                FROM hv
            )
            SELECT CAST(query_id AS BIGINT) AS query_id, rank, seed, hav
            FROM ranked WHERE rank <= 8
        """,
        # grid_rle (q_grid_rle): gaps-and-islands per grid row — runs
        # via the gx − ROW_NUMBER() island key.
        "grid_rle": _BAND_STATS + _GRID + """
            , cells AS MATERIALIZED (
                SELECT grid_cell FROM gridded GROUP BY grid_cell
            ),
            c2 AS (
                SELECT CAST(grid_cell % 1440 AS BIGINT) AS gx,
                       CAST(grid_cell // 1440 AS BIGINT) AS gy
                FROM cells
            ),
            isl AS (
                SELECT gy,
                       gx - ROW_NUMBER() OVER (PARTITION BY gy
                                               ORDER BY gx) AS island
                FROM c2
            ),
            rl AS (
                SELECT gy, island, CAST(COUNT(*) AS BIGINT) AS run_len
                FROM isl GROUP BY gy, island
            )
            SELECT gy, CAST(COUNT(*) AS BIGINT) AS n_runs,
                   CAST(MAX(run_len) AS BIGINT) AS max_run,
                   CAST(SUM(run_len) AS BIGINT) AS n_cells
            FROM rl GROUP BY gy
        """,
        # seasonal_anomaly (q_seasonal_anomaly): x > 3× the own
        # (type, dow, hour) cell mean, cross-multiplied exact.
        "seasonal_anomaly": """
            WITH t AS (
                SELECT event_id, event_type,
                       (epoch_us(ts) // 86400000000 + 3) % 7 AS dow,
                       (epoch_us(ts) // 3600000000) % 24 AS hour,
                       CAST(floor(value * 100 + 0.5) AS BIGINT) AS x
                FROM events
            ),
            prof AS (
                SELECT event_type, dow, hour,
                       CAST(COUNT(*) AS BIGINT) AS n,
                       CAST(SUM(x) AS BIGINT) AS s
                FROM t GROUP BY 1, 2, 3
            )
            SELECT t.event_id, t.event_type, t.x,
                   p.n AS cell_n, p.s AS cell_sum
            FROM t JOIN prof p USING (event_type, dow, hour)
            WHERE p.n * t.x > 3 * p.s
        """,
        # cf_candidates (q_cf_candidates): customer pairs sharing >= 6
        # distinct parts; parts with > 200 buyers dropped (skew guard).
        "cf_candidates": """
            WITH cp AS (
                SELECT DISTINCT o.o_custkey AS ck, l.l_partkey AS pk
                FROM lineitem l JOIN orders o
                  ON o.o_orderkey = l.l_orderkey
            ),
            pf AS (
                SELECT pk FROM cp GROUP BY pk HAVING COUNT(*) <= 200
            ),
            cp2 AS (SELECT cp.* FROM cp JOIN pf USING (pk))
            SELECT a.ck AS c1, b.ck AS c2,
                   CAST(COUNT(*) AS BIGINT) AS n_shared
            FROM cp2 a JOIN cp2 b ON a.pk = b.pk AND a.ck < b.ck
            GROUP BY 1, 2 HAVING COUNT(*) >= 6
        """,
        # benford_audit (q_benford_audit): leading-digit counts of
        # order-total cents per priority.
        "benford_audit": """
            SELECT o_orderpriority,
                   CAST(SUBSTR(CAST(CAST(floor(o_totalprice * 100 + 0.5)
                                         AS BIGINT) AS VARCHAR), 1, 1)
                        AS BIGINT) AS digit,
                   CAST(COUNT(*) AS BIGINT) AS n
            FROM orders GROUP BY 1, 2
        """,
        # pareto_8020 (q_pareto_8020): revenue-rank deciles via the
        # exact NTILE rule under (rev DESC, custkey) order.
        "pareto_8020": """
            WITH u AS (
                SELECT o_custkey,
                       CAST(SUM(CAST(floor(o_totalprice * 100 + 0.5)
                                     AS BIGINT)) AS BIGINT) AS rev
                FROM orders GROUP BY 1
            ),
            r AS (
                SELECT rev,
                       (ROW_NUMBER() OVER (ORDER BY rev DESC, o_custkey)
                        - 1) * 10 // (SELECT COUNT(*) FROM u) AS decile
                FROM u
            )
            SELECT CAST(decile AS BIGINT) AS decile,
                   CAST(COUNT(*) AS BIGINT) AS n_customers,
                   CAST(SUM(rev) AS BIGINT) AS rev_c
            FROM r GROUP BY decile
        """,
        # ann_filtered (q_ann_filtered): label-constrained cosine
        # top-10 (pre-filter semantics), e6-quantized sim order.
        "ann_filtered": """
            WITH q AS (
                SELECT vec_id AS query_id, embedding AS qe, label
                FROM embeddings WHERE vec_id < 3
            ),
            sims AS (
                SELECT q.query_id, e.vec_id,
                       FLOOR(list_cosine_similarity(q.qe, e.embedding)
                             * 1000000 + 0.5) / 1000000 AS sim
                FROM embeddings e JOIN q ON e.label = q.label
            ),
            ranked AS (
                SELECT query_id, vec_id,
                       CAST(ROW_NUMBER() OVER
                            (PARTITION BY query_id
                             ORDER BY sim DESC, vec_id) AS BIGINT) AS rank
                FROM sims
            )
            SELECT query_id, vec_id, rank FROM ranked WHERE rank <= 10
        """,
        # key_skew_report (q_key_skew_report): per-key count
        # distribution summary for candidate shuffle keys.
        "key_skew_report": """
            WITH c1 AS (
                SELECT CAST(COUNT(*) AS BIGINT) AS n
                FROM orders GROUP BY o_custkey
            ),
            c2 AS (
                SELECT CAST(COUNT(*) AS BIGINT) AS n
                FROM lineitem GROUP BY l_partkey
            ),
            c3 AS (
                SELECT CAST(COUNT(*) AS BIGINT) AS n
                FROM lineitem GROUP BY l_suppkey
            ),
            s1 AS (
                SELECT 'orders.o_custkey' AS key,
                       CAST(SUM(n) AS BIGINT) AS n_rows,
                       CAST(COUNT(*) AS BIGINT) AS n_keys,
                       CAST(MAX(n) AS BIGINT) AS max_cnt,
                       (SELECT n FROM (
                            SELECT n, ROW_NUMBER() OVER (ORDER BY n) AS rn,
                                   COUNT(*) OVER () AS t
                            FROM c1)
                        WHERE rn = CAST(ceil(0.99 * t) AS BIGINT)) AS p99_cnt,
                       CAST(SUM(n * n) AS BIGINT) AS sumsq
                FROM c1
            ),
            s2 AS (
                SELECT 'lineitem.l_partkey' AS key,
                       CAST(SUM(n) AS BIGINT), CAST(COUNT(*) AS BIGINT),
                       CAST(MAX(n) AS BIGINT),
                       (SELECT n FROM (
                            SELECT n, ROW_NUMBER() OVER (ORDER BY n) AS rn,
                                   COUNT(*) OVER () AS t
                            FROM c2)
                        WHERE rn = CAST(ceil(0.99 * t) AS BIGINT)),
                       CAST(SUM(n * n) AS BIGINT)
                FROM c2
            ),
            s3 AS (
                SELECT 'lineitem.l_suppkey' AS key,
                       CAST(SUM(n) AS BIGINT), CAST(COUNT(*) AS BIGINT),
                       CAST(MAX(n) AS BIGINT),
                       (SELECT n FROM (
                            SELECT n, ROW_NUMBER() OVER (ORDER BY n) AS rn,
                                   COUNT(*) OVER () AS t
                            FROM c3)
                        WHERE rn = CAST(ceil(0.99 * t) AS BIGINT)),
                       CAST(SUM(n * n) AS BIGINT)
                FROM c3
            )
            SELECT * FROM s1 UNION ALL SELECT * FROM s2
            UNION ALL SELECT * FROM s3
        """,
        # footprint_grid_cover (q_footprint_grid_cover): bbox → covered
        # 0.25° cell fan, count per cell (bounded range + filter per
        # the CLAUDE.md range() recipe; max bbox span ≈ 25 cells).
        "footprint_grid_cover": f"""
            WITH fp AS (
                SELECT footprint_id,
                       CAST(floor((minx + 180.0) / 0.25) AS BIGINT) AS gx0,
                       CAST(floor((maxx + 180.0) / 0.25) AS BIGINT) AS gx1,
                       CAST(floor((miny + 90.0) / 0.25) AS BIGINT) AS gy0,
                       CAST(floor((maxy + 90.0) / 0.25) AS BIGINT) AS gy1
                FROM read_parquet('{BBOX_PARQUET}')
            ),
            cover AS (
                SELECT f.footprint_id,
                       (f.gy0 + CAST(ry.range AS BIGINT)) * 1440
                           + f.gx0 + CAST(rx.range AS BIGINT) AS grid_cell
                FROM fp f, range(0, 40) rx, range(0, 40) ry
                WHERE f.gx0 + rx.range <= f.gx1
                  AND f.gy0 + ry.range <= f.gy1
            )
            SELECT grid_cell, CAST(COUNT(*) AS BIGINT) AS n_footprints
            FROM cover GROUP BY grid_cell
        """,
        # rate_limit_audit (q_rate_limit_audit): max anchored 10-min
        # window count per user (window [t, t+600s), anchor included).
        "rate_limit_audit": """
            WITH t AS (
                SELECT event_id, user_id, epoch_us(ts) AS ts_us FROM events
            ),
            w AS (
                SELECT a.user_id, a.event_id, CAST(COUNT(*) AS BIGINT) AS cnt
                FROM t a JOIN t b ON b.user_id = a.user_id
                 AND b.ts_us >= a.ts_us AND b.ts_us < a.ts_us + 600000000
                GROUP BY 1, 2
            )
            SELECT user_id, CAST(MAX(cnt) AS BIGINT) AS max_burst,
                   CAST(COUNT(*) AS BIGINT) AS n_events
            FROM w GROUP BY user_id
        """,
        # fk_integrity (q_fk_integrity): orphan + coverage audit per
        # FK edge via LEFT JOIN null counts.
        "fk_integrity": """
            SELECT 'orders.o_custkey->customer' AS fk,
                   CAST(COUNT(*) AS BIGINT) AS n_rows,
                   CAST(COUNT(*) FILTER (WHERE c.c_custkey IS NULL)
                        AS BIGINT) AS n_orphan_rows,
                   CAST(COUNT(DISTINCT o.o_custkey) AS BIGINT)
                       AS n_distinct_fk,
                   (SELECT CAST(COUNT(DISTINCT c_custkey) AS BIGINT)
                    FROM customer) AS n_parent_keys
            FROM orders o LEFT JOIN customer c ON c.c_custkey = o.o_custkey
            UNION ALL
            SELECT 'lineitem.l_orderkey->orders' AS fk,
                   CAST(COUNT(*) AS BIGINT),
                   CAST(COUNT(*) FILTER (WHERE oo.o_orderkey IS NULL)
                        AS BIGINT),
                   CAST(COUNT(DISTINCT l.l_orderkey) AS BIGINT),
                   (SELECT CAST(COUNT(DISTINCT o_orderkey) AS BIGINT)
                    FROM orders)
            FROM lineitem l LEFT JOIN orders oo
              ON oo.o_orderkey = l.l_orderkey
        """,
        # ab_test_zscore (q_ab_test_zscore): two-proportion pooled z
        # over the hash arm split; mirrored IEEE tree (sqrt parity).
        "ab_test_zscore": """
            WITH u AS (
                SELECT user_id,
                       MAX(CASE WHEN event_type = 'purchase'
                                 AND CAST(floor(value * 100 + 0.5)
                                          AS BIGINT) >= 15000
                                THEN 1 ELSE 0 END) AS conv
                FROM events GROUP BY 1
            ),
            s AS (
                SELECT CAST(SUM(CASE WHEN user_id % 2 = 0 THEN conv
                                     ELSE 0 END) AS BIGINT) AS x1,
                       CAST(COUNT(*) FILTER (WHERE user_id % 2 = 0)
                            AS BIGINT) AS n1,
                       CAST(SUM(CASE WHEN user_id % 2 = 1 THEN conv
                                     ELSE 0 END) AS BIGINT) AS x2,
                       CAST(COUNT(*) FILTER (WHERE user_id % 2 = 1)
                            AS BIGINT) AS n2
                FROM u
            )
            SELECT x1, n1, x2, n2,
                   (CAST(x1 AS DOUBLE) / CAST(n1 AS DOUBLE)
                    - CAST(x2 AS DOUBLE) / CAST(n2 AS DOUBLE))
                   / sqrt((CAST(x1 + x2 AS DOUBLE)
                           / CAST(n1 + n2 AS DOUBLE))
                          * (1.0 - CAST(x1 + x2 AS DOUBLE)
                                   / CAST(n1 + n2 AS DOUBLE))
                          * (1.0 / CAST(n1 AS DOUBLE)
                             + 1.0 / CAST(n2 AS DOUBLE))) AS z
            FROM s
        """,
        # theilsen_trend (q_theilsen_trend): lower-median pairwise
        # slope per type under the (slope double, dy, dx) order.
        "theilsen_trend": """
            WITH daily AS (
                SELECT event_type, epoch_us(ts) // 86400000000 AS day,
                       CAST(COUNT(*) AS BIGINT) AS y
                FROM events GROUP BY 1, 2
            ),
            pr AS (
                SELECT a.event_type,
                       b.y - a.y AS dy, b.day - a.day AS dx,
                       CAST(b.y - a.y AS DOUBLE) / CAST(b.day - a.day
                                                        AS DOUBLE) AS slope
                FROM daily a JOIN daily b
                  ON a.event_type = b.event_type AND b.day > a.day
            ),
            r AS (
                SELECT event_type, dy, dx, slope,
                       ROW_NUMBER() OVER (PARTITION BY event_type
                                          ORDER BY slope, dy, dx) AS rn,
                       COUNT(*) OVER (PARTITION BY event_type) AS np
                FROM pr
            )
            SELECT event_type, CAST(np AS BIGINT) AS n_pairs,
                   dy AS med_dy, dx AS med_dx, slope
            FROM r WHERE rn = (np + 1) // 2
        """,
        # segment_momentum (q_segment_momentum): (segment, month)
        # revenue cents + LAG delta over observed months.
        "segment_momentum": """
            WITH bars AS (
                SELECT c.c_mktsegment,
                       CAST(year(o.o_orderdate) * 12
                            + month(o.o_orderdate) - 1 AS BIGINT) AS month,
                       CAST(SUM(CAST(floor(o.o_totalprice * 100 + 0.5)
                                     AS BIGINT)) AS BIGINT) AS rev_c
                FROM orders o JOIN customer c ON c.c_custkey = o.o_custkey
                GROUP BY 1, 2
            )
            SELECT c_mktsegment, month, rev_c,
                   COALESCE(LAG(rev_c) OVER w, -1) AS prev_c,
                   CASE WHEN LAG(rev_c) OVER w IS NULL THEN 0
                        ELSE rev_c - LAG(rev_c) OVER w END AS delta_c
            FROM bars
            WINDOW w AS (PARTITION BY c_mktsegment ORDER BY month)
        """,
        # weighted_median (q_weighted_median): smallest qty whose
        # cumulative price weight reaches ceil(W/2), exact cents.
        "weighted_median": """
            WITH h AS (
                SELECT l_returnflag,
                       CAST(floor(l_quantity + 0.5) AS BIGINT) AS qty,
                       CAST(SUM(CAST(floor(l_extendedprice * 100 + 0.5)
                                     AS BIGINT)) AS BIGINT) AS w
                FROM lineitem GROUP BY 1, 2
            ),
            c AS (
                SELECT l_returnflag, qty,
                       SUM(w) OVER (PARTITION BY l_returnflag
                                    ORDER BY qty) AS cum,
                       SUM(w) OVER (PARTITION BY l_returnflag) AS W
                FROM h
            )
            SELECT l_returnflag,
                   CAST(MIN(qty) AS BIGINT) AS wmedian_qty,
                   CAST(ANY_VALUE(W) AS BIGINT) AS total_w
            FROM c WHERE cum >= (W + 1) // 2
            GROUP BY l_returnflag
        """,
        # modal_value (q_modal_value): most frequent cents per type,
        # ties to the smallest value.
        "modal_value": """
            WITH h AS (
                SELECT event_type,
                       CAST(floor(value * 100 + 0.5) AS BIGINT) AS x,
                       CAST(COUNT(*) AS BIGINT) AS n
                FROM events GROUP BY 1, 2
            ),
            r AS (
                SELECT event_type, x, n,
                       ROW_NUMBER() OVER (PARTITION BY event_type
                                          ORDER BY n DESC, x ASC) AS rn
                FROM h
            )
            SELECT event_type, x AS mode_c, n AS mode_n
            FROM r WHERE rn = 1
        """,
        # idw_interpolate (q_idw_interpolate): Shepard IDW at the city
        # centers with integer-quantized weights 10⁸ // max(d², 1).
        "idw_interpolate": _BAND_STATS + """
            , pts AS (
                SELECT t.sum_val // GREATEST(t.valid_count, 1) AS mv,
                       CASE WHEN seed % 10 < 6 THEN
                            (CASE seed % 3 WHEN 0 THEN -74000
                                  WHEN 1 THEN 2350 ELSE 139700 END)
                            + (seed * 31) % 2000 - 1000
                       ELSE (seed * 9973) % 360000 - 180000 END AS xe,
                       CASE WHEN seed % 10 < 6 THEN
                            (CASE seed % 3 WHEN 0 THEN 40700
                                  WHEN 1 THEN 48850 ELSE 35700 END)
                            + (seed * 57) % 2000 - 1000
                       ELSE (seed * 7919) % 170000 - 85000 END AS ye
                FROM tile_stats t
            ),
            q AS (
                SELECT * FROM (VALUES (0, -74000, 40700), (1, 2350, 48850),
                                      (2, 139700, 35700)) t(query_id, qx, qy)
            ),
            cand AS (
                SELECT q.query_id,
                       100000000 // GREATEST(
                           (p.xe - q.qx) * (p.xe - q.qx)
                           + (p.ye - q.qy) * (p.ye - q.qy), 1) AS w,
                       p.mv
                FROM pts p JOIN q
                  ON (p.xe - q.qx) * (p.xe - q.qx)
                     + (p.ye - q.qy) * (p.ye - q.qy) <= 250000
            )
            SELECT CAST(query_id AS BIGINT) AS query_id,
                   CAST(COUNT(*) AS BIGINT) AS n_tiles,
                   CAST(SUM(w) AS BIGINT) AS sw,
                   CAST(SUM(w * mv) AS BIGINT) AS swv,
                   CASE WHEN SUM(w) > 0
                        THEN CAST(CAST(SUM(w * mv) AS BIGINT) AS DOUBLE)
                             / CAST(CAST(SUM(w) AS BIGINT) AS DOUBLE)
                        ELSE 0.0 END AS idw
            FROM cand GROUP BY query_id
        """,
        # demand_features (q_demand_features): per-(part, month) qty
        # rollup with lag-1/lag-2 features over observed months.
        "demand_features": """
            WITH m AS (
                SELECT l_partkey,
                       CAST(year(l_shipdate) * 12 + month(l_shipdate) - 1
                            AS BIGINT) AS month,
                       CAST(SUM(CAST(floor(l_quantity + 0.5) AS BIGINT))
                            AS BIGINT) AS qty
                FROM lineitem GROUP BY 1, 2
            )
            SELECT l_partkey, month, qty,
                   COALESCE(LAG(qty, 1) OVER w, -1) AS lag1,
                   COALESCE(LAG(qty, 2) OVER w, -1) AS lag2
            FROM m WINDOW w AS (PARTITION BY l_partkey ORDER BY month)
        """,
        # survival_table (q_survival_table): KM inputs per day — first
        # activity → first ≥ $150 purchase, right-censored at the
        # global max timestamp.
        "survival_table": """
            WITH t AS (
                SELECT user_id, epoch_us(ts) AS ts_us, event_type,
                       CAST(floor(value * 100 + 0.5) AS BIGINT) AS c
                FROM events
            ),
            g AS (SELECT MAX(ts_us) AS tmax FROM t),
            u AS (
                SELECT user_id, MIN(ts_us) AS t0,
                       MIN(CASE WHEN event_type = 'purchase' AND c >= 15000
                                THEN ts_us END) AS tp
                FROM t GROUP BY 1
            ),
            d AS (
                SELECT user_id,
                       CASE WHEN tp IS NOT NULL
                            THEN (tp - t0) // 86400000000 END AS ed,
                       (g.tmax - t0) // 86400000000 AS cd
                FROM u, g
            ),
            cal AS (
                SELECT CAST(r.range AS BIGINT) AS day
                FROM range(0, 100000) r,
                     (SELECT MAX(COALESCE(ed, cd)) AS md FROM d) m
                WHERE r.range <= m.md
            )
            SELECT c.day,
                   CAST(SUM(CASE WHEN (d.ed IS NOT NULL AND d.ed >= c.day)
                                   OR (d.ed IS NULL AND d.cd >= c.day)
                            THEN 1 ELSE 0 END) AS BIGINT) AS n_at_risk,
                   CAST(SUM(CASE WHEN d.ed = c.day THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_events,
                   CAST(SUM(CASE WHEN d.ed IS NULL AND d.cd = c.day
                            THEN 1 ELSE 0 END) AS BIGINT) AS n_censored
            FROM cal c, d GROUP BY c.day
        """,
        # journey_trigrams (q_journey_trigrams): consecutive type
        # triples per user under (ts, event_id) order, n >= 5.
        "journey_trigrams": """
            WITH t AS (
                SELECT user_id, event_type,
                       LEAD(event_type, 1) OVER w AS t2,
                       LEAD(event_type, 2) OVER w AS t3,
                       LEAD(user_id, 2) OVER w AS u3
                FROM events
                WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
            )
            SELECT event_type AS t1, t2, t3,
                   CAST(COUNT(*) AS BIGINT) AS n
            FROM t WHERE t3 IS NOT NULL
            GROUP BY 1, 2, 3 HAVING COUNT(*) >= 5
        """,
        # rolling_wau (q_rolling_wau): trailing-7-day distinct users
        # per observed-calendar day + same-day DAU.
        "rolling_wau": """
            WITH du AS (
                SELECT DISTINCT epoch_us(ts) // 86400000000 AS day, user_id
                FROM events
            ),
            cal AS (
                SELECT MIN(day) + CAST(r.range AS BIGINT) AS day
                FROM du, range(0, 100000) r
                GROUP BY r.range
                HAVING MIN(day) + r.range <= MAX(day)
            )
            SELECT c.day,
                   (SELECT CAST(COUNT(DISTINCT user_id) AS BIGINT) FROM du
                    WHERE du.day BETWEEN c.day - 6 AND c.day) AS wau,
                   (SELECT CAST(COUNT(DISTINCT user_id) AS BIGINT) FROM du
                    WHERE du.day = c.day) AS dau
            FROM cal c
        """,
        # snapshot_diff (q_snapshot_diff): CDC reconciliation between
        # documents and the deterministic next snapshot; texts compare
        # directly in SQL (the Ray side compares rolling-hash
        # fingerprints — a pure function of the text).
        "snapshot_diff": """
            WITH a AS (SELECT doc_id, text FROM documents),
            b AS (
                SELECT doc_id,
                       CASE WHEN doc_id % 7 = 3
                            THEN text || chr(10) || '[rev2]'
                            ELSE text END AS text
                FROM documents WHERE doc_id % 11 <> 5
                UNION ALL
                SELECT doc_id + 100000,
                       'new doc ' || CAST(doc_id AS VARCHAR)
                FROM documents WHERE doc_id % 13 = 1
            )
            SELECT COALESCE(a.doc_id, b.doc_id) AS doc_id,
                   CASE WHEN a.doc_id IS NULL THEN 'added'
                        WHEN b.doc_id IS NULL THEN 'removed'
                        ELSE 'changed' END AS status
            FROM a FULL OUTER JOIN b ON a.doc_id = b.doc_id
            WHERE a.doc_id IS NULL OR b.doc_id IS NULL OR a.text <> b.text
        """,
        # attribution_last_touch (q_attribution_last_touch): purchases
        # attributed to the latest same-user click/view in a 7-day
        # strict-before lookback; ties → larger event_id.
        "attribution_last_touch": """
            WITH t AS (
                SELECT event_id, user_id, event_type, epoch_us(ts) AS ts_us
                FROM events
            ),
            pur AS (SELECT * FROM t WHERE event_type = 'purchase'),
            src AS (SELECT * FROM t WHERE event_type IN ('click', 'view')),
            cand AS (
                SELECT p.event_id, p.user_id, p.ts_us,
                       s.event_id AS s_id, s.event_type AS s_type,
                       s.ts_us AS s_ts,
                       ROW_NUMBER() OVER (PARTITION BY p.event_id
                                          ORDER BY s.ts_us DESC,
                                                   s.event_id DESC) AS rn
                FROM pur p JOIN src s ON s.user_id = p.user_id
                 AND s.ts_us < p.ts_us
                 AND s.ts_us >= p.ts_us - 604800000000
            )
            SELECT event_id, user_id, s_id AS src_event_id,
                   s_type AS src_type, ts_us - s_ts AS lag_us
            FROM cand WHERE rn = 1
        """,
        # semivariogram (q_semivariogram): γ-terms at axis lags 1..4
        # over occupied-cell tile counts; exact integer pair sums.
        "semivariogram": _BAND_STATS + _GRID + """
            , cells AS MATERIALIZED (
                SELECT grid_cell, CAST(COUNT(*) AS BIGINT) AS z
                FROM gridded GROUP BY 1
            ),
            c2 AS MATERIALIZED (
                SELECT CAST(grid_cell % 1440 AS BIGINT) AS gx,
                       CAST(grid_cell // 1440 AS BIGINT) AS gy, z
                FROM cells
            ),
            lags AS (SELECT CAST(range + 1 AS BIGINT) AS lag FROM range(4)),
            agg AS (
                SELECT 'x' AS axis, l.lag,
                       CAST(COUNT(*) AS BIGINT) AS n_pairs,
                       CAST(SUM((a.z - b.z) * (a.z - b.z)) AS BIGINT)
                           AS sum_sq
                FROM lags l
                JOIN c2 a ON TRUE
                JOIN c2 b ON b.gx = a.gx + l.lag AND b.gy = a.gy
                GROUP BY 1, 2
                UNION ALL
                SELECT 'y' AS axis, l.lag,
                       CAST(COUNT(*) AS BIGINT) AS n_pairs,
                       CAST(SUM((a.z - b.z) * (a.z - b.z)) AS BIGINT)
                           AS sum_sq
                FROM lags l
                JOIN c2 a ON TRUE
                JOIN c2 b ON b.gy = a.gy + l.lag AND b.gx = a.gx
                GROUP BY 1, 2
            )
            SELECT axis, lag, n_pairs, sum_sq,
                   CAST(sum_sq AS DOUBLE)
                       / (2.0 * CAST(n_pairs AS DOUBLE)) AS gamma
            FROM agg
        """,
        # containment_pairs (q_containment_pairs): one-sided chunk
        # containment (≥ 50% of A's distinct fingerprints in B), with
        # the >100-doc boilerplate fingerprint cap mirrored.
        "containment_pairs": f"""
            WITH ch AS ({_chunk_docs_sql()}),
            d AS (SELECT DISTINCT doc_key, chunk_hash FROM ch),
            hs AS (
                SELECT chunk_hash FROM d
                GROUP BY 1 HAVING COUNT(*) BETWEEN 2 AND 100
            ),
            dd AS (SELECT d.* FROM d JOIN hs USING (chunk_hash)),
            sz AS (
                SELECT doc_key, CAST(COUNT(*) AS BIGINT) AS n
                FROM d GROUP BY 1
            ),
            inter AS (
                SELECT a.doc_key AS doc_a, b.doc_key AS doc_b,
                       CAST(COUNT(*) AS BIGINT) AS n_common
                FROM dd a JOIN dd b
                  ON a.chunk_hash = b.chunk_hash
                 AND a.doc_key <> b.doc_key
                GROUP BY 1, 2
            )
            SELECT i.doc_a, i.doc_b, s.n AS n_a, i.n_common
            FROM inter i JOIN sz s ON s.doc_key = i.doc_a
            WHERE 2 * i.n_common >= s.n
        """,
        # hist_equalize (q_hist_equalize): global-CDF histogram
        # equalization of the 8×8 windows, per-cell stats of the
        # remapped raster; e(v) = (cdf−cdf_min)·65519 // (T−cdf_min)+1,
        # all integer.
        "hist_equalize": _MEDIA + """
            , mh AS (
                SELECT seed,
                       (seed * 2654435761) % 65520 AS sh, seed % 33 AS s33,
                       CAST(floor((CASE WHEN seed % 10 < 6 THEN
                                (CASE seed % 3 WHEN 0 THEN 40.7 WHEN 1 THEN 48.85 ELSE 35.7 END)
                                + ((seed * 57) % 2000 - 1000) / 1000.0
                            ELSE ((seed * 7919) % 170000) / 1000.0 - 85.0 END
                            + 90.0) / 0.25) * 1440
                          + floor((CASE WHEN seed % 10 < 6 THEN
                                (CASE seed % 3 WHEN 0 THEN -74.0 WHEN 1 THEN 2.35 ELSE 139.7 END)
                                + ((seed * 31) % 2000 - 1000) / 1000.0
                            ELSE ((seed * 9973) % 360000) / 1000.0 - 180.0 END
                            + 180.0) / 0.25) AS BIGINT) AS grid_cell
                FROM media
            ),
            tapc AS MATERIALIZED (
                SELECT ((rr.range * 64 + cc.range) * 7) % 33 AS m7,
                       (((rr.range * 64 + cc.range) + 404) * 40503) % 65520
                           AS mhh
                FROM range(8) rr, range(8) cc
            ),
            px AS (
                SELECT m.grid_cell,
                       (CASE WHEN (m.s33 + t.m7) % 33 = 0 THEN 0
                        ELSE 1 + (m.sh + t.mhh) % 65520 END) AS v
                FROM mh m, tapc t
            ),
            hist AS MATERIALIZED (
                SELECT v, CAST(COUNT(*) AS BIGINT) AS c
                FROM px WHERE v > 0 GROUP BY v
            ),
            cdf AS MATERIALIZED (
                SELECT v, SUM(c) OVER (ORDER BY v) AS cdf FROM hist
            ),
            tot AS (SELECT MAX(cdf) AS T, MIN(cdf) AS cmin FROM cdf),
            map AS MATERIALIZED (
                SELECT v,
                       CAST(CASE WHEN t.T > t.cmin
                                 THEN (cdf - t.cmin) * 65519
                                      // (t.T - t.cmin) + 1
                                 ELSE 1 END AS BIGINT) AS e
                FROM cdf, tot t
            ),
            epx AS (
                SELECT p.grid_cell, p.v, COALESCE(m.e, 0) AS e
                FROM px p LEFT JOIN map m ON m.v = p.v
            ),
            nt AS (
                SELECT grid_cell, CAST(COUNT(*) AS BIGINT) AS n_tiles
                FROM mh GROUP BY grid_cell
            )
            SELECT x.grid_cell, nt.n_tiles,
                   CAST(SUM(CASE WHEN v > 0 THEN 1 ELSE 0 END) AS BIGINT)
                       AS sum_valid_px,
                   CAST(SUM(CASE WHEN v = 0 THEN 1 ELSE 0 END) AS BIGINT)
                       AS sum_nodata_px,
                   CAST(SUM(CASE WHEN v > 0 THEN e ELSE 0 END) AS BIGINT)
                       AS sum_eq_sum,
                   CAST(MIN(CASE WHEN v > 0 THEN e END) AS BIGINT)
                       AS min_eq_min,
                   CAST(MAX(CASE WHEN v > 0 THEN e END) AS BIGINT)
                       AS max_eq_max
            FROM epx x JOIN nt USING (grid_cell)
            GROUP BY x.grid_cell, nt.n_tiles
        """,
        # triangle_count (q_triangle_count): per-node co-purchase
        # triangles via the ordered 3-way edge self-join; each triangle
        # credits all three vertices.
        "triangle_count": """
            WITH lp AS (
                SELECT DISTINCT l_orderkey, l_partkey FROM lineitem
            ),
            e AS MATERIALIZED (
                SELECT DISTINCT a.l_partkey AS u, b.l_partkey AS v
                FROM lp a JOIN lp b
                  ON a.l_orderkey = b.l_orderkey
                 AND a.l_partkey < b.l_partkey
            ),
            tri AS MATERIALIZED (
                SELECT ab.u, ab.v, bc.v AS w
                FROM e ab JOIN e bc ON bc.u = ab.v
                JOIN e ac ON ac.u = ab.u AND ac.v = bc.v
            ),
            verts AS (
                SELECT u AS node FROM tri
                UNION ALL SELECT v FROM tri
                UNION ALL SELECT w FROM tri
            )
            SELECT node AS p_partkey, CAST(COUNT(*) AS BIGINT) AS triangles
            FROM verts GROUP BY node
        """,
        # lttb_downsample (q_lttb_downsample): largest-triangle-three-
        # buckets decimation, 10 unrolled selection steps.
        "lttb_downsample": _lttb_sql(),
        # audience_hhi (q_audience_hhi): Herfindahl concentration of
        # per-user activity per type; exact integer num/den + one
        # IEEE division.
        "audience_hhi": """
            WITH cu AS (
                SELECT event_type, user_id, CAST(COUNT(*) AS BIGINT) AS c
                FROM events GROUP BY 1, 2
            ),
            agg AS (
                SELECT event_type,
                       CAST(SUM(c) AS BIGINT) AS n_events,
                       CAST(COUNT(*) AS BIGINT) AS n_users,
                       CAST(SUM(c * c) AS BIGINT) AS hhi_num
                FROM cu GROUP BY event_type
            )
            SELECT event_type, n_events, n_users, hhi_num,
                   CASE WHEN n_events = 0 THEN 0.0
                        ELSE CAST(hhi_num AS DOUBLE)
                             / (CAST(n_events AS DOUBLE)
                                * CAST(n_events AS DOUBLE))
                   END AS hhi
            FROM agg
        """,
        # rfm_segments (q_rfm_segments): recency/frequency/monetary
        # quartiles via the exact integer rule (rank−1)·4 // n + 1,
        # rank ordered by (metric, user_id).
        "rfm_segments": """
            WITH u AS (
                SELECT user_id, MAX(epoch_us(ts)) AS last_us,
                       CAST(COUNT(*) AS BIGINT) AS freq,
                       CAST(SUM(CAST(floor(value * 100 + 0.5) AS BIGINT))
                            AS BIGINT) AS mon_c
                FROM events GROUP BY user_id
            ),
            nn AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM u),
            ranked AS (
                SELECT u.user_id, u.last_us, u.freq, u.mon_c,
                       (ROW_NUMBER() OVER (ORDER BY last_us, user_id) - 1)
                           * 4 // nn.n + 1 AS r,
                       (ROW_NUMBER() OVER (ORDER BY freq, user_id) - 1)
                           * 4 // nn.n + 1 AS f,
                       (ROW_NUMBER() OVER (ORDER BY mon_c, user_id) - 1)
                           * 4 // nn.n + 1 AS m
                FROM u, nn
            )
            SELECT user_id, last_us, freq, mon_c,
                   CAST(r AS BIGINT) AS r, CAST(f AS BIGINT) AS f,
                   CAST(m AS BIGINT) AS m,
                   CAST(r * 100 + f * 10 + m AS BIGINT) AS segment
            FROM ranked
        """,
        # minmax_scale (q_minmax_scale): per-type fixed-point [0, 1e6]
        # min-max normalization — pure integer floor division.
        "minmax_scale": """
            WITH t AS (
                SELECT event_id, event_type,
                       CAST(floor(value * 100 + 0.5) AS BIGINT) AS x
                FROM events
            ),
            lim AS (
                SELECT event_type, MIN(x) AS mn, MAX(x) AS mx
                FROM t GROUP BY event_type
            )
            SELECT t.event_id, t.event_type, t.x,
                   CASE WHEN l.mx - l.mn > 0
                        THEN (t.x - l.mn) * 1000000 // (l.mx - l.mn)
                        ELSE 0 END AS norm_e6
            FROM t JOIN lim l USING (event_type)
        """,
        # priority_sample (q_priority_sample): weighted sampling via
        # murmur64(doc_id) >> 16 // weight priority keys, 100 smallest
        # win; key < 2^48 so it rides BIGINT exactly.
        "priority_sample": f"""
            WITH keys AS (
                SELECT doc_id, GREATEST(CAST(n_chars AS BIGINT), 1) AS w,
                       CAST(doc_id AS UBIGINT) AS k
                FROM documents
            ),
            h1 AS (SELECT doc_id, w, xor(k, k >> 33) AS h FROM keys),
            h2 AS (SELECT doc_id, w,
                          {_mulmod64('h', 0xFF51AFD7ED558CCD)} AS h FROM h1),
            h3 AS (SELECT doc_id, w, xor(h, h >> 33) AS h FROM h2),
            h4 AS (SELECT doc_id, w,
                          {_mulmod64('h', 0xC4CEB9FE1A85EC53)} AS h FROM h3),
            h5 AS (SELECT doc_id, w, xor(h, h >> 33) AS h FROM h4),
            scored AS (
                SELECT doc_id, w,
                       CAST((h >> 16) // CAST(w AS UBIGINT) AS BIGINT) AS key
                FROM h5
            ),
            ranked AS (
                SELECT doc_id, w, key,
                       ROW_NUMBER() OVER (ORDER BY key, doc_id) AS rn
                FROM scored
            )
            SELECT CAST(rn AS BIGINT) AS rank, doc_id, w, key
            FROM ranked WHERE rn <= 100
        """,
        # contiguous_regions (q_contiguous_regions): rook-adjacency
        # connected components of occupied cells — recursive min-label
        # propagation (the dedup_clusters recipe, numeric ids);
        # singletons seed themselves.
        "contiguous_regions": _BAND_STATS + _GRID + """
            , cells AS MATERIALIZED (
                SELECT grid_cell FROM gridded GROUP BY grid_cell
            ),
            e0 AS (
                SELECT a.grid_cell AS src, b.grid_cell AS dst
                FROM cells a JOIN cells b ON b.grid_cell = a.grid_cell + 1
                WHERE (a.grid_cell % 1440) + 1 < 1440
                UNION ALL
                SELECT a.grid_cell AS src, b.grid_cell AS dst
                FROM cells a JOIN cells b ON b.grid_cell = a.grid_cell + 1440
            ),
            edges AS MATERIALIZED (
                SELECT src, dst FROM e0
                UNION
                SELECT dst AS src, src AS dst FROM e0
            ),
            reach AS (
                WITH RECURSIVE r(id, lbl) AS (
                    SELECT grid_cell, grid_cell FROM cells
                    UNION
                    SELECT e.dst AS id, r.lbl
                    FROM r JOIN edges e ON e.src = r.id
                    WHERE r.lbl < e.dst
                )
                SELECT id, MIN(lbl) AS region_root FROM r GROUP BY id
            ),
            sized AS (
                SELECT region_root,
                       CAST(COUNT(*) AS BIGINT) AS region_cells
                FROM reach GROUP BY region_root
            )
            SELECT r.id AS grid_cell, r.region_root, s.region_cells
            FROM reach r JOIN sized s USING (region_root)
        """,
        # type_corr_matrix (q_type_corr_matrix): pairwise Pearson over
        # zero-filled per-type daily count series; exact int moments,
        # corr = num / sqrt(den1·den2) (libm sqrt parity, CLAUDE.md).
        "type_corr_matrix": """
            WITH daily AS (
                SELECT event_type, epoch_us(ts) // 86400000000 AS day,
                       CAST(COUNT(*) AS BIGINT) AS y
                FROM events GROUP BY 1, 2
            ),
            bounds AS (
                SELECT MIN(day) AS d0, MAX(day) AS d1 FROM daily
            ),
            cal AS (
                SELECT d0 + CAST(r.range AS BIGINT) AS day
                FROM bounds, range(0, 100000) r
                WHERE d0 + r.range <= d1
            ),
            dense AS MATERIALIZED (
                SELECT t.event_type, c.day, COALESCE(d.y, 0) AS y
                FROM (SELECT DISTINCT event_type FROM daily) t
                CROSS JOIN cal c
                LEFT JOIN daily d USING (event_type, day)
            ),
            p AS (
                SELECT a.event_type AS t1, b.event_type AS t2,
                       CAST(COUNT(*) AS BIGINT) AS n,
                       CAST(SUM(a.y) AS BIGINT) AS sx,
                       CAST(SUM(b.y) AS BIGINT) AS sy,
                       CAST(SUM(a.y * b.y) AS BIGINT) AS sxy,
                       CAST(SUM(a.y * a.y) AS BIGINT) AS sxx,
                       CAST(SUM(b.y * b.y) AS BIGINT) AS syy
                FROM dense a JOIN dense b
                  ON a.day = b.day AND a.event_type < b.event_type
                GROUP BY 1, 2
            )
            SELECT t1, t2, n AS n_days,
                   n * sxy - sx * sy AS num,
                   n * sxx - sx * sx AS den1,
                   n * syy - sy * sy AS den2,
                   CASE WHEN n * sxx - sx * sx = 0 OR n * syy - sy * sy = 0
                        THEN 0.0
                        ELSE CAST(n * sxy - sx * sy AS DOUBLE)
                             / sqrt(CAST(n * sxx - sx * sx AS DOUBLE)
                                    * CAST(n * syy - sy * sy AS DOUBLE))
                   END AS corr
            FROM p
        """,
        # near_boundary_tiles (q_near_boundary_tiles): tiles within
        # 0.05° of a footprint's ring boundary — exact point-to-segment
        # distance with the division-free interior case
        # (cross² ≤ ε²·|v|²); the ε-expanded bbox prejoin is exact
        # (L∞ ball ⊇ L2 ball). Branch structure mirrors the numpy
        # np.where tree term for term.
        "near_boundary_tiles": _MEDIA + _GEO_PTS + f"""
            , cand AS (
                SELECT g.doc_id, g.span_idx, g.lon, g.lat, bb.footprint_id
                FROM geo g JOIN read_parquet('{BBOX_PARQUET}') bb
                  ON g.lon >= bb.minx - 0.05 AND g.lon <= bb.maxx + 0.05
                 AND g.lat >= bb.miny - 0.05 AND g.lat <= bb.maxy + 0.05
            ),
            near AS (
                SELECT c.doc_id, c.span_idx, c.footprint_id
                FROM cand c JOIN read_parquet('{EDGES_PARQUET}') e
                     USING (footprint_id)
                WHERE CASE
                  WHEN (c.lon - e.x1) * (e.x2 - e.x1)
                       + (c.lat - e.y1) * (e.y2 - e.y1) <= 0
                    THEN (c.lon - e.x1) * (c.lon - e.x1)
                         + (c.lat - e.y1) * (c.lat - e.y1) <= 0.0025
                  WHEN (c.lon - e.x1) * (e.x2 - e.x1)
                       + (c.lat - e.y1) * (e.y2 - e.y1)
                       >= (e.x2 - e.x1) * (e.x2 - e.x1)
                          + (e.y2 - e.y1) * (e.y2 - e.y1)
                    THEN (c.lon - e.x2) * (c.lon - e.x2)
                         + (c.lat - e.y2) * (c.lat - e.y2) <= 0.0025
                  ELSE ((c.lon - e.x1) * (e.y2 - e.y1)
                        - (c.lat - e.y1) * (e.x2 - e.x1))
                       * ((c.lon - e.x1) * (e.y2 - e.y1)
                          - (c.lat - e.y1) * (e.x2 - e.x1))
                       <= 0.0025 * ((e.x2 - e.x1) * (e.x2 - e.x1)
                                    + (e.y2 - e.y1) * (e.y2 - e.y1))
                END
                GROUP BY c.doc_id, c.span_idx, c.footprint_id
            )
            SELECT footprint_id, CAST(COUNT(*) AS BIGINT) AS n_near_tiles
            FROM near GROUP BY footprint_id
        """,
        # zonal_histogram (q_zonal_histogram): per-footprint 8-bin value
        # histogram over contained tiles' 8×8 windows — PIP hits (bbox
        # prejoin, exact parity) ⋈ the per-tile window histogram.
        "zonal_histogram": _MEDIA + _GEO_PTS + _PIP_HITS + """
            , tapc AS MATERIALIZED (
                SELECT ((rr.range * 64 + cc.range) * 7) % 33 AS m7,
                       (((rr.range * 64 + cc.range) + 404) * 40503) % 65520
                           AS mhh
                FROM range(8) rr, range(8) cc
            ),
            tile_px AS (
                SELECT g.doc_id, g.span_idx,
                       (CASE WHEN ((g.seed % 33) + t.m7) % 33 = 0 THEN 0
                        ELSE 1 + (((g.seed * 2654435761) % 65520) + t.mhh)
                                 % 65520 END) AS v
                FROM geo g, tapc t
            ),
            hist AS (
                SELECT doc_id, span_idx,
                       CAST(SUM(CASE WHEN v = 0 THEN 1 ELSE 0 END) AS BIGINT)
                           AS n_nodata,
                       CAST(SUM(CASE WHEN v > 0 AND LEAST((v - 1) * 8 // 65520, 7) = 0
                                THEN 1 ELSE 0 END) AS BIGINT) AS h0,
                       CAST(SUM(CASE WHEN v > 0 AND LEAST((v - 1) * 8 // 65520, 7) = 1
                                THEN 1 ELSE 0 END) AS BIGINT) AS h1,
                       CAST(SUM(CASE WHEN v > 0 AND LEAST((v - 1) * 8 // 65520, 7) = 2
                                THEN 1 ELSE 0 END) AS BIGINT) AS h2,
                       CAST(SUM(CASE WHEN v > 0 AND LEAST((v - 1) * 8 // 65520, 7) = 3
                                THEN 1 ELSE 0 END) AS BIGINT) AS h3,
                       CAST(SUM(CASE WHEN v > 0 AND LEAST((v - 1) * 8 // 65520, 7) = 4
                                THEN 1 ELSE 0 END) AS BIGINT) AS h4,
                       CAST(SUM(CASE WHEN v > 0 AND LEAST((v - 1) * 8 // 65520, 7) = 5
                                THEN 1 ELSE 0 END) AS BIGINT) AS h5,
                       CAST(SUM(CASE WHEN v > 0 AND LEAST((v - 1) * 8 // 65520, 7) = 6
                                THEN 1 ELSE 0 END) AS BIGINT) AS h6,
                       CAST(SUM(CASE WHEN v > 0 AND LEAST((v - 1) * 8 // 65520, 7) = 7
                                THEN 1 ELSE 0 END) AS BIGINT) AS h7
                FROM tile_px GROUP BY doc_id, span_idx
            )
            SELECT p.footprint_id,
                   CAST(COUNT(*) AS BIGINT) AS n_tiles,
                   CAST(SUM(h.h0) AS BIGINT) AS sum_h0,
                   CAST(SUM(h.h1) AS BIGINT) AS sum_h1,
                   CAST(SUM(h.h2) AS BIGINT) AS sum_h2,
                   CAST(SUM(h.h3) AS BIGINT) AS sum_h3,
                   CAST(SUM(h.h4) AS BIGINT) AS sum_h4,
                   CAST(SUM(h.h5) AS BIGINT) AS sum_h5,
                   CAST(SUM(h.h6) AS BIGINT) AS sum_h6,
                   CAST(SUM(h.h7) AS BIGINT) AS sum_h7,
                   CAST(SUM(h.n_nodata) AS BIGINT) AS sum_n_nodata
            FROM pip_hits p JOIN hist h USING (doc_id, span_idx)
            GROUP BY p.footprint_id
        """,
        # cell_band_delta (q_cell_band_delta): per-cell rollup of the
        # per-tile band-7 − band-4 integer delta stats — the +1 value
        # offsets cancel, so the delta is the difference of the hoisted
        # (sh + mh_band) % 65520 terms; the nodata mask is
        # band-independent and every tile has valid cells (~1/33
        # sentinel rate), so no empty-fold NULL can appear.
        "cell_band_delta": _MEDIA + """
            , mh AS (
                SELECT doc_id, span_idx, seed,
                       (seed * 2654435761) % 65520 AS sh, seed % 33 AS s33
                FROM media
            ),
            dhelp AS MATERIALIZED (
                SELECT (CAST(range AS BIGINT) * 7) % 33 AS m7,
                       ((CAST(range AS BIGINT) + 404) * 40503) % 65520 AS mha,
                       ((CAST(range AS BIGINT) + 707) * 40503) % 65520 AS mhb
                FROM range(4096)
            ),
            vals AS (
                SELECT m.doc_id, m.span_idx, m.seed,
                       (m.s33 + c.m7) % 33 <> 0 AS ok,
                       ((m.sh + c.mhb) % 65520)
                           - ((m.sh + c.mha) % 65520) AS d
                FROM mh m, dhelp c
            ),
            tile_stats AS (
                SELECT doc_id, span_idx, seed,
                       CAST(SUM(CASE WHEN ok THEN 1 ELSE 0 END) AS BIGINT)
                           AS valid_count,
                       CAST(SUM(CASE WHEN ok THEN d ELSE 0 END) AS BIGINT)
                           AS sum_delta,
                       MIN(d) FILTER (WHERE ok) AS min_delta,
                       MAX(d) FILTER (WHERE ok) AS max_delta
                FROM vals GROUP BY doc_id, span_idx, seed
            )
        """ + _GRID + """
            SELECT grid_cell,
                   CAST(COUNT(*) AS BIGINT) AS n_tiles,
                   CAST(SUM(valid_count) AS BIGINT) AS sum_valid_count,
                   CAST(SUM(sum_delta) AS BIGINT) AS sum_sum_delta,
                   CAST(MIN(min_delta) AS BIGINT) AS min_min_delta,
                   CAST(MAX(max_delta) AS BIGINT) AS max_max_delta
            FROM gridded GROUP BY grid_cell
        """,
        # order_baskets (q_order_baskets): grouped collect_list — the
        # sorted comma-joined distinct-part basket per order with ≥ 5
        # items.
        "order_baskets": """
            WITH lp AS (
                SELECT DISTINCT l_orderkey, l_partkey FROM lineitem
            )
            SELECT l_orderkey AS o_orderkey,
                   CAST(COUNT(*) AS BIGINT) AS n_items,
                   string_agg(CAST(l_partkey AS VARCHAR), ','
                              ORDER BY l_partkey) AS basket
            FROM lp GROUP BY l_orderkey HAVING COUNT(*) >= 5
        """,
        # interval_join (q_interval_join): per-error-event count/value
        # of same-user events in the following 1-hour window (strict
        # start, inclusive end), in exact integer µs / cents.
        "interval_join": """
            WITH t AS (
                SELECT event_id, user_id, event_type, epoch_us(ts) AS ts_us,
                       CAST(floor(value * 100 + 0.5) AS BIGINT) AS c
                FROM events
            )
            SELECT a.event_id, a.user_id,
                   CAST(COUNT(*) AS BIGINT) AS n_follow,
                   CAST(SUM(b.c) AS BIGINT) AS sum_follow_c
            FROM t a JOIN t b ON a.user_id = b.user_id
             AND a.event_type = 'error'
             AND b.ts_us > a.ts_us AND b.ts_us <= a.ts_us + 3600000000
            GROUP BY 1, 2
        """,
        # mad_outliers (q_mad_outliers): robust |x−med| > 5·MAD screen;
        # med/MAD are LOWER weighted medians (rank (n+1)//2) — exact
        # integers, so the rank-pick value is deterministic under ties.
        "mad_outliers": """
            WITH t AS (
                SELECT event_id, event_type,
                       CAST(floor(value * 100 + 0.5) AS BIGINT) AS x
                FROM events
            ),
            med AS (
                SELECT event_type, x AS med FROM (
                    SELECT event_type, x,
                           ROW_NUMBER() OVER (PARTITION BY event_type
                                              ORDER BY x) AS rn,
                           COUNT(*) OVER (PARTITION BY event_type) AS cnt
                    FROM t
                ) WHERE rn = (cnt + 1) // 2
            ),
            ad AS (
                SELECT t.event_id, t.event_type, t.x, m.med,
                       ABS(t.x - m.med) AS adev
                FROM t JOIN med m USING (event_type)
            ),
            mad AS (
                SELECT event_type, adev AS mad FROM (
                    SELECT event_type, adev,
                           ROW_NUMBER() OVER (PARTITION BY event_type
                                              ORDER BY adev) AS rn,
                           COUNT(*) OVER (PARTITION BY event_type) AS cnt
                    FROM ad
                ) WHERE rn = (cnt + 1) // 2
            )
            SELECT a.event_id, a.event_type, a.x, a.med, m.mad
            FROM ad a JOIN mad m USING (event_type)
            WHERE a.adev > 5 * m.mad
        """,
        # trend_by_type (q_trend_by_type): per-type OLS slope of daily
        # counts vs absolute epoch day — exact integer normal-equation
        # terms, one IEEE division for the slope.
        "trend_by_type": """
            WITH daily AS (
                SELECT event_type,
                       epoch_us(ts) // 86400000000 AS day,
                       CAST(COUNT(*) AS BIGINT) AS y
                FROM events GROUP BY 1, 2
            ),
            m AS (
                SELECT event_type,
                       CAST(COUNT(*) AS BIGINT) AS n,
                       CAST(SUM(day) AS BIGINT) AS sx,
                       CAST(SUM(y) AS BIGINT) AS sy,
                       CAST(SUM(day * y) AS BIGINT) AS sxy,
                       CAST(SUM(day * day) AS BIGINT) AS sxx
                FROM daily GROUP BY event_type
            )
            SELECT event_type, n AS n_days,
                   n * sxy - sx * sy AS num,
                   n * sxx - sx * sx AS den,
                   CASE WHEN n * sxx - sx * sx = 0 THEN 0.0
                        ELSE CAST(n * sxy - sx * sy AS DOUBLE)
                             / CAST(n * sxx - sx * sx AS DOUBLE)
                   END AS slope
            FROM m
        """,
        # seasonality_profile (q_seasonality_profile): (type, dow, hour)
        # activity matrix in pure integer epoch arithmetic (dow 0=Mon).
        "seasonality_profile": """
            SELECT event_type,
                   (epoch_us(ts) // 86400000000 + 3) % 7 AS dow,
                   (epoch_us(ts) // 3600000000) % 24 AS hour,
                   CAST(COUNT(*) AS BIGINT) AS n_events,
                   CAST(SUM(CAST(floor(value * 100 + 0.5) AS BIGINT))
                        AS BIGINT) AS sum_c
            FROM events GROUP BY 1, 2, 3
        """,
        # pareto_front (q_pareto_front): skyline — parts not dominated
        # on (min price cents, max size); both-axes ties co-survive.
        "pareto_front": """
            WITH p AS (
                SELECT p_partkey,
                       CAST(floor(p_retailprice * 100 + 0.5) AS BIGINT)
                           AS price_c,
                       CAST(p_size AS BIGINT) AS p_size
                FROM part
            )
            SELECT p_partkey, price_c, p_size FROM p a
            WHERE NOT EXISTS (
                SELECT 1 FROM p b
                WHERE b.price_c <= a.price_c AND b.p_size >= a.p_size
                  AND (b.price_c < a.price_c OR b.p_size > a.p_size)
            )
        """,
        # pagerank_parts (q_pagerank_parts): 5 exact-integer damped
        # power iterations over the undirected co-purchase edge set.
        "pagerank_parts": _pagerank_sql(),
        # copurchase_pairs (q_copurchase_pairs): market-basket pair
        # mining — part pairs co-ordered in >= 2 distinct orders.
        "copurchase_pairs": """
            WITH lp AS (
                SELECT DISTINCT l_orderkey, l_partkey FROM lineitem
            )
            SELECT a.l_partkey AS p1, b.l_partkey AS p2,
                   CAST(COUNT(*) AS BIGINT) AS n_orders
            FROM lp a JOIN lp b
              ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
            GROUP BY 1, 2 HAVING COUNT(*) >= 2
        """,
        # hexbin_density (q_hexbin_density): hex binning via nearest
        # center of the two offset rectangular lattices (centered-rect
        # lattice → hexagonal Voronoi cells); pure integer floor
        # division + squared-distance compare on the shifted e3 grid,
        # ties → the axis-aligned lattice (tag 0).
        "hexbin_density": _MEDIA + """
            , pts AS (
                SELECT (CASE WHEN seed % 10 < 6 THEN
                          (CASE seed % 3 WHEN 0 THEN -74000
                                WHEN 1 THEN 2350 ELSE 139700 END)
                          + (seed * 31) % 2000 - 1000
                        ELSE (seed * 9973) % 360000 - 180000 END) + 180000 AS x,
                       (CASE WHEN seed % 10 < 6 THEN
                          (CASE seed % 3 WHEN 0 THEN 40700
                                WHEN 1 THEN 48850 ELSE 35700 END)
                          + (seed * 57) % 2000 - 1000
                        ELSE (seed * 7919) % 170000 - 85000 END) + 90000 AS y
                FROM media
            ),
            cand AS (
                SELECT x, y,
                       (x + 150) // 300 AS ia, (y + 100) // 200 AS ja,
                       x // 300 AS ib, y // 200 AS jb
                FROM pts
            ),
            hexed AS (
                SELECT x, y, ia, ja, ib, jb,
                       CASE WHEN (x - 300 * ia) * (x - 300 * ia)
                                 + (y - 200 * ja) * (y - 200 * ja)
                              <= (x - (300 * ib + 150)) * (x - (300 * ib + 150))
                                 + (y - (200 * jb + 100)) * (y - (200 * jb + 100))
                            THEN 0 ELSE 1 END AS tag
                FROM cand
            ),
            keyed AS (
                SELECT CAST(tag AS BIGINT) AS tag,
                       CAST(CASE WHEN tag = 0 THEN ia ELSE ib END AS BIGINT) AS hi,
                       CAST(CASE WHEN tag = 0 THEN ja ELSE jb END AS BIGINT) AS hj,
                       x, y
                FROM hexed
            )
            SELECT tag, hi, hj,
                   300 * hi + tag * 150 - 180000 AS cx_e3,
                   200 * hj + tag * 100 - 90000 AS cy_e3,
                   CAST(COUNT(*) AS BIGINT) AS n_points,
                   CAST(SUM(x) - COUNT(*) * 180000 AS BIGINT) AS sum_x_e3,
                   CAST(SUM(y) - COUNT(*) * 90000 AS BIGINT) AS sum_y_e3
            FROM keyed GROUP BY tag, hi, hj
        """,
        # morans_i (q_morans_i): queen-contiguity global Moran's I of
        # tile density over the 4° supercell rollup (gx>>4, gy>>4).
        # Deviations are kept integral by scaling through n
        # (d = n·x − Σx); num/den are exact HUGEINT sums narrowed to
        # BIGINT; the float Moran value is the identical IEEE tree both
        # sides ((n·num)/(s0·den) with each int64→double cast exact-
        # rounded).
        "morans_i": _BAND_STATS + _GRID
        + """
            , cells AS (
                SELECT grid_cell, CAST(COUNT(*) AS BIGINT) AS n_tiles
                FROM gridded GROUP BY grid_cell
            ),
            sup AS MATERIALIZED (
                SELECT (grid_cell % 1440) // 16 AS sgx,
                       (grid_cell // 1440) // 16 AS sgy,
                       CAST(SUM(n_tiles) AS BIGINT) AS x
                FROM cells GROUP BY 1, 2
            ),
            tot AS (
                SELECT CAST(COUNT(*) AS BIGINT) AS n, CAST(SUM(x) AS BIGINT) AS s
                FROM sup
            ),
            dev AS MATERIALIZED (
                SELECT sgx, sgy, CAST(t.n * x - t.s AS HUGEINT) AS d
                FROM sup, tot t
            ),
            pairs AS (
                SELECT CAST(SUM(a.d * b.d) AS BIGINT) AS num,
                       CAST(COUNT(*) AS BIGINT) AS s0
                FROM dev a JOIN dev b
                  ON b.sgx BETWEEN a.sgx - 1 AND a.sgx + 1
                 AND b.sgy BETWEEN a.sgy - 1 AND a.sgy + 1
                 AND NOT (a.sgx = b.sgx AND a.sgy = b.sgy)
            ),
            dd AS (
                SELECT CAST(SUM(d * d) AS BIGINT) AS den FROM dev
            )
            SELECT t.n AS n_super, p.s0, p.num, dd.den,
                   CASE WHEN dd.den = 0 OR p.s0 = 0 THEN 0.0
                        ELSE (CAST(t.n AS DOUBLE) * CAST(p.num AS DOUBLE))
                             / (CAST(p.s0 AS DOUBLE) * CAST(dd.den AS DOUBLE))
                   END AS moran
            FROM tot t, pairs p, dd
        """,
        # log_compaction (q_log_compaction): latest record per user_id
        # under the (ts, event_id) order + the change count.
        "log_compaction": """
            WITH t AS (
                SELECT CAST(user_id AS BIGINT) AS user_id,
                       CAST(event_id AS BIGINT) AS event_id,
                       event_type, epoch_us(ts) AS ts_us,
                       CAST(floor(value * 100 + 0.5) AS BIGINT) AS value_c
                FROM events
            ),
            r AS (
                SELECT *,
                       ROW_NUMBER() OVER (PARTITION BY user_id
                           ORDER BY ts_us DESC, event_id DESC) AS rn,
                       CAST(COUNT(*) OVER (PARTITION BY user_id)
                            AS BIGINT) AS n_changes
                FROM t
            )
            SELECT user_id, event_type, ts_us, value_c, n_changes
            FROM r WHERE rn = 1
        """,
        # ordered_funnel (q_ordered_funnel): per-user click → purchase
        # sequence conversion with exact integer microsecond lag.
        "ordered_funnel": """
            WITH e AS (
                SELECT CAST(user_id AS BIGINT) AS u, event_type,
                       epoch_us(ts) AS tus
                FROM events
                WHERE event_type IN ('click', 'purchase')
            ),
            fc AS (SELECT u, MIN(tus) AS fcu,
                          CAST(COUNT(*) AS BIGINT) AS n_clicks
                   FROM e WHERE event_type = 'click' GROUP BY u),
            np AS (SELECT u, CAST(COUNT(*) AS BIGINT) AS n_purchases
                   FROM e WHERE event_type = 'purchase' GROUP BY u),
            cv AS (SELECT e.u, MIN(e.tus) AS cts
                   FROM e JOIN fc ON fc.u = e.u
                   WHERE e.event_type = 'purchase' AND e.tus > fc.fcu
                   GROUP BY e.u)
            SELECT fc.u AS user_id, fc.n_clicks,
                   COALESCE(np.n_purchases, 0) AS n_purchases,
                   CAST(CASE WHEN cv.cts IS NOT NULL THEN 1 ELSE 0 END
                        AS BIGINT) AS converted,
                   CAST(COALESCE(cv.cts - fc.fcu, -1) AS BIGINT) AS lag_us
            FROM fc
            LEFT JOIN np ON np.u = fc.u
            LEFT JOIN cv ON cv.u = fc.u
        """,
        # cell_value_hist (q_cell_value_hist): per-grid-cell 8-bin value
        # histogram over the member tiles' 8×8 band-4 windows; bin =
        # ((v−1)·8) // 65520 exact, nodata counted separately.
        "cell_value_hist": _MEDIA + """
            , mh AS (
                SELECT seed,
                       (seed * 2654435761) % 65520 AS sh, seed % 33 AS s33,
                       CAST(floor((CASE WHEN seed % 10 < 6 THEN
                                (CASE seed % 3 WHEN 0 THEN 40.7 WHEN 1 THEN 48.85 ELSE 35.7 END)
                                + ((seed * 57) % 2000 - 1000) / 1000.0
                            ELSE ((seed * 7919) % 170000) / 1000.0 - 85.0 END
                            + 90.0) / 0.25) * 1440
                          + floor((CASE WHEN seed % 10 < 6 THEN
                                (CASE seed % 3 WHEN 0 THEN -74.0 WHEN 1 THEN 2.35 ELSE 139.7 END)
                                + ((seed * 31) % 2000 - 1000) / 1000.0
                            ELSE ((seed * 9973) % 360000) / 1000.0 - 180.0 END
                            + 180.0) / 0.25) AS BIGINT) AS grid_cell
                FROM media
            ),
            tapc AS MATERIALIZED (
                SELECT ((rr.range * 64 + cc.range) * 7) % 33 AS m7,
                       (((rr.range * 64 + cc.range) + 404) * 40503) % 65520 AS mhh
                FROM range(8) rr, range(8) cc
            ),
            px AS (
                SELECT m.grid_cell,
                       (CASE WHEN (m.s33 + t.m7) % 33 = 0 THEN 0
                        ELSE 1 + (m.sh + t.mhh) % 65520 END) AS v
                FROM mh m, tapc t
            ),
            binned AS (
                SELECT grid_cell,
                       CASE WHEN v = 0 THEN 8
                            ELSE LEAST((v - 1) * 8 // 65520, 7) END AS b
                FROM px
            ),
            nt AS (
                SELECT grid_cell, CAST(COUNT(*) AS BIGINT) AS n_tiles
                FROM mh GROUP BY grid_cell
            )
            SELECT b.grid_cell,
                   CAST(SUM(CASE WHEN b.b = 0 THEN 1 ELSE 0 END) AS BIGINT) AS h0,
                   CAST(SUM(CASE WHEN b.b = 1 THEN 1 ELSE 0 END) AS BIGINT) AS h1,
                   CAST(SUM(CASE WHEN b.b = 2 THEN 1 ELSE 0 END) AS BIGINT) AS h2,
                   CAST(SUM(CASE WHEN b.b = 3 THEN 1 ELSE 0 END) AS BIGINT) AS h3,
                   CAST(SUM(CASE WHEN b.b = 4 THEN 1 ELSE 0 END) AS BIGINT) AS h4,
                   CAST(SUM(CASE WHEN b.b = 5 THEN 1 ELSE 0 END) AS BIGINT) AS h5,
                   CAST(SUM(CASE WHEN b.b = 6 THEN 1 ELSE 0 END) AS BIGINT) AS h6,
                   CAST(SUM(CASE WHEN b.b = 7 THEN 1 ELSE 0 END) AS BIGINT) AS h7,
                   CAST(SUM(CASE WHEN b.b = 8 THEN 1 ELSE 0 END) AS BIGINT) AS n_nodata,
                   nt.n_tiles
            FROM binned b JOIN nt USING (grid_cell)
            GROUP BY b.grid_cell, nt.n_tiles
        """,
        # event_ohlc (q_event_ohlc): time-bar aggregation — per
        # (event_type, day) open/high/low/close in exact cents; first /
        # last by the deterministic (ts, event_id) order.
        "event_ohlc": """
            WITH t AS (
                SELECT event_type, strftime(ts, '%Y-%m-%d') AS day, ts,
                       CAST(event_id AS BIGINT) AS event_id,
                       CAST(floor(value * 100 + 0.5) AS BIGINT) AS x
                FROM events
            ),
            r AS (
                SELECT *,
                       ROW_NUMBER() OVER (PARTITION BY event_type, day
                           ORDER BY ts, event_id) AS rf,
                       ROW_NUMBER() OVER (PARTITION BY event_type, day
                           ORDER BY ts DESC, event_id DESC) AS rl
                FROM t
            )
            SELECT event_type, day,
                   CAST(COUNT(*) AS BIGINT) AS n_events,
                   CAST(SUM(x) AS BIGINT) AS sum_c,
                   CAST(MIN(x) AS BIGINT) AS low_c,
                   CAST(MAX(x) AS BIGINT) AS high_c,
                   CAST(MIN(CASE WHEN rf = 1 THEN x END) AS BIGINT) AS open_c,
                   CAST(MIN(CASE WHEN rl = 1 THEN x END) AS BIGINT) AS close_c
            FROM r GROUP BY event_type, day
        """,
        # pmi_collocations (q_pmi_collocations): adjacent-bigram PMI in
        # exact integers — pmi_e6 = n_xy·N_uni²·10⁶ // (n_x·n_y·N_big)
        # in HUGEINT (tops BIGINT once N_uni ≳ 2M), min_count 3, top 30.
        "pmi_collocations": """
            WITH tl AS MATERIALIZED (
                SELECT CAST(doc_id AS VARCHAR) AS dk,
                       string_split(text, ' ') AS toks
                FROM documents
            ),
            tpos AS MATERIALIZED (
                SELECT dk, r.range AS pos,
                       list_extract(toks, CAST(r.range + 1 AS INT)) AS tok
                FROM tl, LATERAL (SELECT unnest(range(len(toks))) AS range) r
            ),
            uni AS MATERIALIZED (
                SELECT tok, CAST(COUNT(*) AS BIGINT) AS n
                FROM tpos GROUP BY tok
            ),
            big AS MATERIALIZED (
                SELECT a.tok AS ta, b.tok AS tb,
                       CAST(COUNT(*) AS BIGINT) AS n
                FROM tpos a JOIN tpos b ON b.dk = a.dk AND b.pos = a.pos + 1
                GROUP BY 1, 2
            ),
            tot AS (SELECT CAST(SUM(n) AS BIGINT) AS nu FROM uni),
            btot AS (SELECT CAST(SUM(n) AS BIGINT) AS nb FROM big),
            scored AS (
                SELECT big.ta AS tok_a, big.tb AS tok_b,
                       big.n AS n_pair, ua.n AS n_a, ub.n AS n_b,
                       CAST(CAST(big.n AS HUGEINT) * tot.nu * tot.nu
                            * 1000000
                            // (CAST(ua.n AS HUGEINT) * ub.n * btot.nb)
                            AS BIGINT) AS pmi_e6
                FROM big
                JOIN uni ua ON ua.tok = big.ta
                JOIN uni ub ON ub.tok = big.tb
                CROSS JOIN tot CROSS JOIN btot
                WHERE big.n >= 3
            ),
            ranked AS (
                SELECT *,
                       CAST(ROW_NUMBER() OVER (
                           ORDER BY pmi_e6 DESC, tok_a, tok_b) AS BIGINT)
                           AS rank
                FROM scored
            )
            SELECT tok_a, tok_b, n_pair, n_a, n_b, pmi_e6, rank
            FROM ranked WHERE rank <= 30
        """,
        # lexical_search (q_lexical_search): integer BM25 (k1=6/5,
        # b=3/4, rational idf D/df at e6) — per-term score
        # (D·10⁶ // df) · 44·tf·T // (20·tf·T + 6·T + 18·dl·D), summed
        # over matched terms; top 10 per query by (score DESC, doc_id).
        "lexical_search": """
            WITH qt AS (
                SELECT * FROM (VALUES
                    ('q1', 'hash'), ('q1', 'join'),
                    ('q2', 'slow'), ('q2', 'scan'), ('q2', 'vector'),
                    ('q3', 'customer'), ('q3', 'order'), ('q3', 'data')
                ) AS t(query_id, term)
            ),
            d AS MATERIALIZED (
                SELECT CAST(doc_id AS BIGINT) AS doc_id,
                       string_split(text, ' ') AS toks
                FROM documents
            ),
            dl AS (SELECT doc_id, CAST(len(toks) AS BIGINT) AS dl FROM d),
            tot AS (
                SELECT CAST(SUM(dl) AS BIGINT) AS t,
                       CAST(COUNT(*) AS BIGINT) AS n
                FROM dl
            ),
            tf AS MATERIALIZED (
                SELECT d.doc_id, q.query_id, q.term,
                       CAST(len(list_filter(d.toks, x -> x = q.term))
                            AS BIGINT) AS tf
                FROM d CROSS JOIN qt q
            ),
            tfp AS (SELECT * FROM tf WHERE tf > 0),
            dfreq AS (
                SELECT term, CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS df
                FROM tfp GROUP BY term
            ),
            ts AS (
                SELECT p.query_id, p.doc_id,
                       (tot.n * 1000000 // f.df) * (44 * p.tf * tot.t)
                           // (20 * p.tf * tot.t + 6 * tot.t
                               + 18 * dl.dl * tot.n) AS s
                FROM tfp p
                JOIN dfreq f USING (term)
                JOIN dl USING (doc_id)
                CROSS JOIN tot
            ),
            sc AS (
                SELECT query_id, doc_id, CAST(SUM(s) AS BIGINT) AS score_e6
                FROM ts GROUP BY 1, 2
            ),
            ranked AS (
                SELECT *,
                       CAST(ROW_NUMBER() OVER (
                           PARTITION BY query_id
                           ORDER BY score_e6 DESC, doc_id) AS BIGINT) AS rank
                FROM sc
            )
            SELECT query_id, doc_id, score_e6, rank
            FROM ranked WHERE rank <= 10
        """,
        "explode_media": _EXPLODE
        + """
            SELECT doc_id, span_idx, s.media_ref AS media_ref
            FROM ex WHERE s.kind = 'media'
        """,
        "span_digest": _EXPLODE
        + """
            SELECT doc_id,
                   md5(string_agg(s.kind || chr(31) || s.text || chr(31) || s.media_ref,
                                  chr(30) ORDER BY span_idx)) AS digest
            FROM ex GROUP BY doc_id
        """,
        # media_captions: each media span paired with its nearest
        # PRECEDING text span in the same document (-1 / 0 when none)
        "media_captions": _EXPLODE
        + """
            , f AS (
                SELECT doc_id, span_idx, s.kind AS kind,
                       CAST(length(s.text) AS BIGINT) AS nch
                FROM ex
            ),
            m AS (SELECT doc_id, span_idx FROM f WHERE kind = 'media'),
            cap AS (
                SELECT m.doc_id, m.span_idx, MAX(t.span_idx) AS ci
                FROM m LEFT JOIN f t
                  ON t.doc_id = m.doc_id AND t.kind = 'text'
                 AND t.span_idx < m.span_idx
                GROUP BY m.doc_id, m.span_idx
            )
            SELECT c.doc_id AS doc_key, c.span_idx,
                   CAST(COALESCE(c.ci, -1) AS BIGINT) AS cap_span_idx,
                   CAST(COALESCE(t2.nch, 0) AS BIGINT) AS cap_chars
            FROM cap c
            LEFT JOIN f t2 ON t2.doc_id = c.doc_id AND t2.span_idx = c.ci
        """,
        "band_tile_stats": _BAND_STATS + _GRID
        + """
            SELECT doc_id, span_idx, seed, valid_count, nodata_count,
                   min_val, max_val, sum_val, grid_cell
            FROM gridded
        """,
        "cell_agg_band": _BAND_STATS + _GRID
        + """
            SELECT grid_cell,
                   CAST(count(*) AS BIGINT) AS n_tiles,
                   CAST(SUM(valid_count) AS BIGINT) AS sum_valid_count,
                   CAST(SUM(nodata_count) AS BIGINT) AS sum_nodata_count,
                   CAST(SUM(sum_val) AS BIGINT) AS sum_sum_val,
                   MIN(min_val) AS min_min_val,
                   MAX(max_val) AS max_max_val
            FROM gridded GROUP BY grid_cell
        """,
        # per-cell top-k tiles (round 3): grouped top-k on the spatial
        # key (max_val DESC, seed DESC; duplicate (max_val, seed) rows
        # are output-identical, so arbitrary order among them is safe).
        "top_tiles_per_cell": _BAND_STATS + _GRID
        + """
            , ranked AS (
                SELECT grid_cell, seed, max_val,
                       ROW_NUMBER() OVER (PARTITION BY grid_cell
                                          ORDER BY max_val DESC, seed DESC)
                           AS rank
                FROM gridded
            )
            SELECT grid_cell, CAST(rank AS BIGINT) AS rank, seed,
                   CAST(max_val AS BIGINT) AS max_val
            FROM ranked WHERE rank <= 3
        """,
        # focal 3×3 stencil over the aggregated cell grid (round 3):
        # base = the cell_agg_band rollup; neighborhoods = self-join on
        # the ±1 box over (gx, gy) split out of the flat grid id (this
        # corpus never hits the lon=180/lat=90 edge cells, so the split
        # is exact). All-integer sums.
        "focal_cell_stats": _BAND_STATS + _GRID
        + """
            , base AS MATERIALIZED (
                SELECT grid_cell,
                       CAST(count(*) AS BIGINT) AS n_tiles,
                       CAST(SUM(valid_count) AS BIGINT) AS sv,
                       CAST(SUM(sum_val) AS BIGINT) AS ss,
                       MIN(min_val) AS mn,
                       MAX(max_val) AS mx
                FROM gridded GROUP BY grid_cell
            ),
            b2 AS MATERIALIZED (
                SELECT CAST(grid_cell % 1440 AS BIGINT) AS gx,
                       CAST(grid_cell // 1440 AS BIGINT) AS gy,
                       n_tiles, sv, ss, mn, mx
                FROM base
            )
            SELECT c.gx, c.gy,
                   CAST(count(*) AS BIGINT) AS n_cells_3x3,
                   CAST(SUM(n.n_tiles) AS BIGINT) AS n_tiles_3x3,
                   CAST(SUM(n.sv) AS BIGINT) AS valid_3x3,
                   CAST(SUM(n.ss) AS BIGINT) AS sum_3x3,
                   CAST(MIN(n.mn) AS BIGINT) AS min_3x3,
                   CAST(MAX(n.mx) AS BIGINT) AS max_3x3
            FROM b2 c JOIN b2 n
              ON n.gx BETWEEN c.gx - 1 AND c.gx + 1
             AND n.gy BETWEEN c.gy - 1 AND c.gy + 1
            GROUP BY c.gx, c.gy
        """,
        # joint text+media per-doc profile (round 3): both span kinds in
        # one grouped pass; valid cells from the mask formula's closed
        # form (nodata at i·7 ≡ −seed mod 33, 19 = 7⁻¹ mod 33).
        "doc_multimodal_profile": _EXPLODE
        + """
            SELECT doc_id,
                   CAST(SUM(CASE WHEN s.kind = 'text' THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_text_spans,
                   CAST(SUM(CASE WHEN s.kind = 'text' THEN length(s.text)
                        ELSE 0 END) AS BIGINT) AS text_chars,
                   CAST(SUM(CASE WHEN s.kind = 'media' THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_media_spans,
                   CAST(SUM(CASE WHEN s.kind = 'media' THEN
                        4096 - (
                          (4095 - ((((33 - (TRY_CAST(substr(s.media_ref, 8)
                             AS BIGINT) % 33)) % 33) * 19) % 33)) // 33 + 1)
                        ELSE 0 END) AS BIGINT) AS valid_cells
            FROM ex GROUP BY doc_id
        """,
        # in-tile 3×3 box-sum convolution (round 3): 9 inlined taps per
        # cell with tile-edge replicate clamping — exact integers.
        "tile_convolve_stats": _MEDIA
        + f"""
            , conv AS (
                SELECT m.doc_id, m.span_idx, m.seed,
                       {" + ".join(
                           "(CASE WHEN (m.seed + ("
                           f"LEAST(GREATEST(rr.range + {dy}, 0), 63) * 64"
                           f" + LEAST(GREATEST(cc.range + {dx}, 0), 63)"
                           ") * 7) % 33 = 0 THEN 0 ELSE 1 + (m.seed * 2654435761 + (("
                           f"LEAST(GREATEST(rr.range + {dy}, 0), 63) * 64"
                           f" + LEAST(GREATEST(cc.range + {dx}, 0), 63)"
                           ") + 404) * 40503) % 65520 END)"
                           for dy in (-1, 0, 1) for dx in (-1, 0, 1)
                       )} AS v
                FROM media m, range(8) rr, range(8) cc
            )
            SELECT doc_id, span_idx, seed,
                   CAST(SUM(v) AS BIGINT) AS sum_c3,
                   CAST(MIN(v) AS BIGINT) AS min_c3,
                   CAST(MAX(v) AS BIGINT) AS max_c3
            FROM conv GROUP BY doc_id, span_idx, seed
        """,
        # hierarchical pyramid rollup (round 3): the cell aggregate
        # re-keyed at 3 zoom levels (gx>>L, gy>>L), UNION ALL of grouped
        # rollups. n_cells = base cells inside the coarser cell.
        "cell_pyramid": _BAND_STATS + _GRID
        + """
            , base AS MATERIALIZED (
                SELECT CAST(grid_cell % 1440 AS BIGINT) AS gx,
                       CAST(grid_cell // 1440 AS BIGINT) AS gy,
                       CAST(count(*) AS BIGINT) AS n_tiles,
                       CAST(SUM(valid_count) AS BIGINT) AS sv,
                       CAST(SUM(sum_val) AS BIGINT) AS ss,
                       MIN(min_val) AS mn,
                       MAX(max_val) AS mx
                FROM gridded GROUP BY grid_cell
            )
            SELECT CAST(lv.range AS BIGINT) AS level,
                   CAST(gx // (1 << lv.range) AS BIGINT) AS gx,
                   CAST(gy // (1 << lv.range) AS BIGINT) AS gy,
                   CAST(count(*) AS BIGINT) AS n_cells,
                   CAST(SUM(n_tiles) AS BIGINT) AS n_tiles,
                   CAST(SUM(sv) AS BIGINT) AS valid,
                   CAST(SUM(ss) AS BIGINT) AS sum_val,
                   CAST(MIN(mn) AS BIGINT) AS min_val,
                   CAST(MAX(mx) AS BIGINT) AS max_val
            FROM base, range(3) lv
            GROUP BY 1, 2, 3
        """,
        # TRUE cube-face S2 cells (q_cell_agg_s2face): the full published
        # projection — xyz, dominant-axis face, gnomonic uv, quadratic
        # st, per-face Hilbert — reproduced in SQL at level 6
        "cell_agg_s2face": _BAND_STATS + _GRID + _s2face_chain(6)
        + """
            SELECT CAST(face AS BIGINT) AS face, cell_id,
                   CAST(count(*) AS BIGINT) AS n_tiles,
                   CAST(SUM(valid_count) AS BIGINT) AS sum_valid_count,
                   CAST(SUM(nodata_count) AS BIGINT) AS sum_nodata_count,
                   CAST(SUM(sum_val) AS BIGINT) AS sum_sum_val,
                   MIN(min_val) AS min_min_val,
                   MAX(max_val) AS max_max_val
            FROM hcells GROUP BY face, cell_id
        """,
        "knn_tiles": _MEDIA + _KNN_TAIL,
        # radius_neighbors (q_radius_neighbors): distance-band spatial
        # self-join over DISTINCT tile points in exact integer
        # milli-degrees (tilestore.centroids_e3); BETWEEN band prejoin
        # (IEJoin-friendly) then the exact d² ≤ R² filter. R = 50 e3.
        "radius_neighbors": _MEDIA + """
            , pts AS MATERIALIZED (
                SELECT seed,
                       CASE WHEN seed % 10 < 6 THEN
                            (CASE seed % 3 WHEN 0 THEN -74000
                                  WHEN 1 THEN 2350 ELSE 139700 END)
                            + (seed * 31) % 2000 - 1000
                       ELSE (seed * 9973) % 360000 - 180000 END AS xe,
                       CASE WHEN seed % 10 < 6 THEN
                            (CASE seed % 3 WHEN 0 THEN 40700
                                  WHEN 1 THEN 48850 ELSE 35700 END)
                            + (seed * 57) % 2000 - 1000
                       ELSE (seed * 7919) % 170000 - 85000 END AS ye
                FROM (SELECT DISTINCT seed FROM media)
            )
            SELECT a.seed, CAST(COUNT(*) AS BIGINT) AS n_neighbors
            FROM pts a JOIN pts b
              ON b.xe BETWEEN a.xe - 50 AND a.xe + 50
             AND b.ye BETWEEN a.ye - 50 AND a.ye + 50
             AND b.seed <> a.seed
            WHERE (a.xe - b.xe) * (a.xe - b.xe)
                  + (a.ye - b.ye) * (a.ye - b.ye) <= 2500
            GROUP BY a.seed
        """,
        # exact PIP join (even-odd ray cast over the unnested edge table):
        # per-category count of (tile centroid, footprint) containment hits
        "pip_join_counts": _MEDIA + _GEO_PTS + _PIP_HITS
        + """
            SELECT category, CAST(COUNT(*) AS BIGINT) AS "count()"
            FROM pip_hits GROUP BY category
        """,
        # the large-large cell-cover variant computes the same containment
        # relation through a co-partitioned exchange → same oracle
        "pip_join_cellcover": _MEDIA + _GEO_PTS + _PIP_HITS
        + """
            SELECT category, CAST(COUNT(*) AS BIGINT) AS "count()"
            FROM pip_hits GROUP BY category
        """,
        # zonal statistics: erased-cell (10-type) per-tile stats of every
        # tile whose centroid falls in the footprint, rolled up per footprint
        "zonal_stats": _MEDIA + _GEO_PTS + _erased_tile_stats() + _PIP_HITS
        + """
            SELECT h.footprint_id,
                   CAST(COUNT(*) AS BIGINT) AS n_tiles,
                   CAST(SUM(t.valid_count) AS BIGINT) AS sum_valid_count,
                   CAST(SUM(t.nodata_count) AS BIGINT) AS sum_nodata_count,
                   MIN(t.min_val) AS min_min_val,
                   MAX(t.max_val) AS max_max_val
            FROM pip_hits h
            JOIN etile t ON t.doc_id = h.doc_id AND t.span_idx = h.span_idx
            GROUP BY h.footprint_id
        """,
        # rasterize = center-sample containment: count of 64×64 bbox-grid
        # cell centers inside each footprint ring (geo/raster.rasterize)
        "rasterize_footprints": f"""
            WITH fpb AS (
                SELECT footprint_id, category,
                       MIN(LEAST(x1, x2)) AS minx, MIN(LEAST(y1, y2)) AS miny,
                       MAX(GREATEST(x1, x2)) AS maxx, MAX(GREATEST(y1, y2)) AS maxy
                FROM read_parquet('{EDGES_PARQUET}')
                GROUP BY footprint_id, category
            ),
            centers AS (
                SELECT f.footprint_id, f.category,
                       f.minx + (c.range + 0.5) * (f.maxx - f.minx) / 64 AS px,
                       f.miny + (r.range + 0.5) * (f.maxy - f.miny) / 64 AS py,
                       r.range AS rr, c.range AS cc
                FROM fpb f, range(64) r, range(64) c
            ),
            crossings AS (
                SELECT ct.footprint_id, ct.category, ct.rr, ct.cc,
                       SUM(CASE WHEN (e.y1 > ct.py) <> (e.y2 > ct.py)
                                 AND ct.px < e.x1 + (ct.py - e.y1) / (e.y2 - e.y1) * (e.x2 - e.x1)
                                THEN 1 ELSE 0 END) AS k
                FROM centers ct
                JOIN read_parquet('{EDGES_PARQUET}') e USING (footprint_id)
                GROUP BY ct.footprint_id, ct.category, ct.rr, ct.cc
            )
            SELECT footprint_id, category,
                   CAST(COUNT(*) FILTER (WHERE k % 2 = 1) AS BIGINT) AS filled_cells
            FROM crossings GROUP BY footprint_id, category
        """,
        # the FULL flagship: 10-type erased decode → masked per-tile stats
        # → level-8 Hilbert cell id (unrolled rotate-and-accumulate in SQL)
        # → per-cell aggregate. avg_tile_mean is excluded on both sides
        # (a float sum across tiles is summation-order-dependent).
        "flagship_cells": _MEDIA + _GEO_PTS + _erased_tile_stats()
        + """
, gstats AS (
    SELECT t.doc_id, t.span_idx, t.valid_count, t.nodata_count,
           t.min_val, t.max_val, g.lon, g.lat
    FROM etile t JOIN geo g ON g.doc_id = t.doc_id AND g.span_idx = t.span_idx
)"""
        + _hilbert_chain("gstats", level=8)
        + """
            SELECT cell_id,
                   CAST(COUNT(*) AS BIGINT) AS n_tiles,
                   CAST(SUM(valid_count) AS BIGINT) AS valid_count,
                   CAST(SUM(nodata_count) AS BIGINT) AS nodata_count,
                   MIN(min_val) AS min_val,
                   MAX(max_val) AS max_val
            FROM hcells GROUP BY cell_id
        """,
        "fingerprint_docs": _fingerprint_sql(),
        "minhash_pairs": _minhash_sql(),
        "dedup_clusters": _dedup_clusters_sql(),
        "decontaminate": _decontaminate_sql(),
        "contamination_overlap": _decontaminate_sql(overlap=True),
        # ngram_novelty (q_ngram_novelty): per-16-doc-shard novelty of
        # DECON_W-token window hashes — occurrences whose hash first
        # appears in that shard, plus distinct new hashes per shard.
        "ngram_novelty": _decontaminate_sql(
            final="""
, occ AS (SELECT did // 16 AS shard, h FROM wh),
mins AS MATERIALIZED (SELECT h, MIN(shard) AS ms FROM occ GROUP BY h),
per AS (
    SELECT o.shard,
           CAST(COUNT(*) AS BIGINT) AS n_windows,
           CAST(SUM(CASE WHEN m.ms = o.shard THEN 1 ELSE 0 END) AS BIGINT)
               AS n_novel_windows
    FROM occ o JOIN mins m USING (h) GROUP BY o.shard
),
newh AS (
    SELECT ms AS shard, CAST(COUNT(*) AS BIGINT) AS n_new_hashes
    FROM mins GROUP BY ms
)
SELECT CAST(p.shard AS BIGINT) AS shard, p.n_windows, p.n_novel_windows,
       CAST(COALESCE(n.n_new_hashes, 0) AS BIGINT) AS n_new_hashes
FROM per p LEFT JOIN newh n USING (shard)
"""
        ),
        "ngram_jaccard": _ngram_jaccard_sql(),
        "embedding_dups": _embedding_dups_sql(),
        "embedding_dup_clusters": _embedding_clusters_sql(),
        "media_dedup": _media_dedup_sql(),
        "media_dedup_real": _media_dedup_real_sql(),
        "chunk_docs": _chunk_docs_sql(),
        # chunk_dedup: the duplicated chunk contents with canonical
        # occurrence — GROUP BY over the chunk_docs fingerprint table
        "chunk_dedup": f"""
            WITH ch AS MATERIALIZED ({_chunk_docs_sql()}),
            ranked AS (
                SELECT chunk_hash, doc_key, chunk_idx,
                       row_number() OVER (
                           PARTITION BY chunk_hash
                           ORDER BY doc_key, chunk_idx
                       ) AS rn,
                       CAST(COUNT(*) OVER (PARTITION BY chunk_hash) AS BIGINT)
                           AS n_copies
                FROM ch
            )
            SELECT chunk_hash, doc_key, chunk_idx, n_copies
            FROM ranked WHERE rn = 1 AND n_copies > 1
        """,
        "simhash_pairs": _simhash_sql(),
        "simhash128_pairs": _simhash128_sql(),
        "ann_lsh": _ann_lsh_sql(),
        "ann_ivf": _ann_ivf_sql(),
        "ann_pq": _ann_pq_sql(),
        "cms_heavy_hitters": _cms_heavy_hitters_sql(),
        "dup_ngram_spans": _dup_ngram_spans_sql(),
        "dup_span_chars": _dup_span_chars_sql(),
        "kcenter_diversity": _kcenter_diversity_sql(),
        "kcenter_assign": _kcenter_assign_sql(),
        "shuffle_shards": _shuffle_shards_sql(),
        "curation_funnel": _curation_funnel_sql(
            ", ".join(f"{scores[l]} AS s_{l}" for l in langs), detect_case
        ),
        # incremental_dedup: incoming-shard (doc_id % 3 == 2) chunks
        # whose content exists in the base corpus, with base copy
        # counts — plain exact join over the chunk_docs fingerprint
        # CTE (the bloom only prunes; it never changes the answer)
        "incremental_dedup": f"""
            WITH ch AS MATERIALIZED ({_chunk_docs_sql()}),
            base AS (
                SELECT chunk_hash,
                       CAST(COUNT(*) AS BIGINT) AS n_base_copies
                FROM ch WHERE CAST(doc_key AS BIGINT) % 3 <> 2
                GROUP BY chunk_hash
            )
            SELECT c.doc_key, c.chunk_idx, c.chunk_hash, b.n_base_copies
            FROM ch c JOIN base b USING (chunk_hash)
            WHERE CAST(c.doc_key AS BIGINT) % 3 = 2
        """,
        # range_partition: sorted-export planning manifest — the same
        # deterministic mod-sample, evenly-spaced sample ranks and
        # #{splitter <= key} assignment as the engine (queries.
        # q_range_partition); key cents via the shared FLOOR(x·100+0.5)
        "range_partition": """
            WITH t AS (
                SELECT CAST(l_orderkey AS BIGINT) AS ok,
                       CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)
                           AS kc,
                       row_number() OVER () AS rid
                FROM lineitem
            ),
            samp AS (SELECT kc FROM t WHERE ok % 97 = 0),
            n AS (SELECT CAST(COUNT(*) AS BIGINT) AS c FROM samp),
            ranked AS (
                SELECT kc, ROW_NUMBER() OVER (ORDER BY kc) AS r FROM samp
            ),
            spl AS MATERIALIZED (
                SELECT rk.kc AS v
                FROM (
                    SELECT GREATEST(1, (u.i * n.c) // 16) AS rnk
                    FROM (SELECT unnest(range(1, 16)) AS i) u, n
                ) rr
                JOIN ranked rk ON rk.r = rr.rnk
            ),
            asn AS (
                SELECT t.rid, t.kc,
                       CAST(COALESCE(
                           SUM(CASE WHEN s.v <= t.kc THEN 1 ELSE 0 END), 0
                       ) AS BIGINT) AS pid
                FROM t LEFT JOIN spl s ON TRUE
                GROUP BY t.rid, t.kc
            )
            SELECT pid AS partition_id,
                   CAST(COUNT(*) AS BIGINT) AS n_rows,
                   CAST(SUM(kc) AS BIGINT) AS sum_key_c,
                   CAST(MIN(kc) AS BIGINT) AS min_key_c,
                   CAST(MAX(kc) AS BIGINT) AS max_key_c
            FROM asn GROUP BY pid
        """,
        "paragraph_dedup": _paragraph_dedup_sql(),
        "cluster_cap": _cluster_cap_sql(),
        "leakage_safe_split": _leakage_safe_split_sql(),
        # vocab_coverage: exact global top-16 vocabulary by
        # (count DESC, token ASC), per-doc OOV accounting — same
        # string_split(' ') tokenization as token_stats
        "vocab_coverage": """
            WITH d AS (
                SELECT CAST(doc_id AS VARCHAR) AS dk,
                       string_split(text, ' ') AS toks
                FROM documents
            ),
            tok AS (SELECT dk, unnest(toks) AS t FROM d),
            cnt AS (SELECT t, CAST(COUNT(*) AS BIGINT) AS n FROM tok GROUP BY t),
            voc AS (
                SELECT t FROM (
                    SELECT t, ROW_NUMBER() OVER (ORDER BY n DESC, t) AS r
                    FROM cnt
                ) WHERE r <= 16
            )
            SELECT tk.dk AS doc_key,
                   CAST(COUNT(*) AS BIGINT) AS n_tokens,
                   CAST(SUM(CASE WHEN v.t IS NULL THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_oov
            FROM tok tk LEFT JOIN voc v ON v.t = tk.t
            GROUP BY tk.dk
        """,
        "cluster_embeddings": _cluster_embeddings_sql(),
        # per-cluster text-quality rollup (round 3): Lloyd chain ⋈
        # documents on vec_id = doc_id (see _cluster_quality_sql)
        "cluster_quality": _cluster_quality_sql(
            " + ".join(_hits(w, col="d.text") for w in STOPWORDS)
        ),
        # vectorize: on the synthetic band mask (one residue class mod 33)
        # no two nodata cells are 4-adjacent, so every connected region is
        # a singleton — the label count equals the masked-cell count
        "vectorize_tiles": _MEDIA
        + """
            , vcells AS (
                SELECT m.doc_id, m.span_idx, m.seed, r.range AS i
                FROM media m, range(4096) r
                WHERE m.seed % 7 = 0
            )
            SELECT doc_id, CAST(span_idx AS BIGINT) AS span_idx,
                   CAST(COUNT(*) FILTER (WHERE (seed + i * 7) % 33 = 0) AS BIGINT)
                       AS n_nodata_regions
            FROM vcells GROUP BY doc_id, span_idx
        """,
        "tile_type_hist": _MEDIA
        + """
            , typed AS (
                SELECT CASE seed % 16 WHEN 0 THEN 'UInt16' WHEN 1 THEN 'Float32' WHEN 2 THEN 'UInt16' WHEN 3 THEN 'Float32' WHEN 4 THEN 'UInt8' WHEN 5 THEN 'UInt16' WHEN 6 THEN 'Float32' WHEN 7 THEN 'Int16' WHEN 8 THEN 'UInt32' WHEN 9 THEN 'Float64' WHEN 10 THEN 'UInt64' WHEN 11 THEN 'Int8' WHEN 12 THEN 'Int32' WHEN 13 THEN 'Int64' WHEN 14 THEN 'UInt16' WHEN 15 THEN 'Float32' END AS cell_type,
                       CASE seed % 16 WHEN 0 THEN 2 WHEN 1 THEN 4 WHEN 2 THEN 2 WHEN 3 THEN 4 WHEN 4 THEN 1 WHEN 5 THEN 2 WHEN 6 THEN 4 WHEN 7 THEN 2 WHEN 8 THEN 4 WHEN 9 THEN 8 WHEN 10 THEN 8 WHEN 11 THEN 1 WHEN 12 THEN 4 WHEN 13 THEN 8 WHEN 14 THEN 2 WHEN 15 THEN 4 END AS elem_size,
                       CASE WHEN seed % 101 = 0 THEN 186 * 169
                            ELSE 64 * 64 END AS n_cells
                FROM media
            )
            SELECT cell_type,
                   CAST(count(*) AS BIGINT) AS n_tiles,
                   CAST(SUM(n_cells) AS BIGINT) AS total_cells,
                   CAST(SUM(n_cells * elem_size) AS BIGINT) AS total_bytes
            FROM typed GROUP BY cell_type
        """,
        # rect-intersection range join: tile extents (seed arithmetic,
        # ± 0.005°) × footprint bboxes (deterministic parquet dump)
        # zonal stats with NEAREST-footprint zones (round 3): the NN
        # assignment (mirrored d2, ROW_NUMBER tie) joined to the gridded
        # tile stats, integer rollup per zone.
        "zonal_by_nearest": _BAND_STATS + _GRID
        + f"""
            , fp AS (
                SELECT footprint_id, category,
                       (minx + maxx) / 2 AS cx, (miny + maxy) / 2 AS cy
                FROM read_parquet('{BBOX_PARQUET}')
            ),
            asg AS (
                SELECT doc_id, span_idx, footprint_id, category FROM (
                    SELECT g.doc_id, g.span_idx, f.footprint_id, f.category,
                           ROW_NUMBER() OVER (
                               PARTITION BY g.doc_id, g.span_idx
                               ORDER BY (g.lon - f.cx) * (g.lon - f.cx)
                                      + (g.lat - f.cy) * (g.lat - f.cy) ASC,
                                        f.footprint_id ASC) AS rn
                    FROM gridded g, fp f
                ) WHERE rn = 1
            )
            SELECT a.footprint_id, a.category,
                   CAST(count(*) AS BIGINT) AS n_tiles,
                   CAST(SUM(t.valid_count) AS BIGINT) AS sum_valid_count,
                   CAST(SUM(t.sum_val) AS BIGINT) AS sum_sum_val,
                   CAST(MIN(t.min_val) AS BIGINT) AS min_min_val,
                   CAST(MAX(t.max_val) AS BIGINT) AS max_max_val
            FROM gridded t
            JOIN asg a ON a.doc_id = t.doc_id AND a.span_idx = t.span_idx
            GROUP BY a.footprint_id, a.category
        """,
        # nearest-footprint NN spatial join (round 3): squared equirect
        # distance tile-centroid → bbox center, first-min tie to the
        # smallest footprint_id; d2 is a fixed 2-term IEEE expression
        # mirrored term-for-term.
        "nearest_footprint": _MEDIA + _GEO_PTS
        + f"""
            , fp AS (
                SELECT footprint_id, category,
                       (minx + maxx) / 2 AS cx, (miny + maxy) / 2 AS cy
                FROM read_parquet('{BBOX_PARQUET}')
            ),
            d AS (
                SELECT g.doc_id, g.span_idx, g.seed,
                       f.footprint_id, f.category,
                       (g.lon - f.cx) * (g.lon - f.cx)
                     + (g.lat - f.cy) * (g.lat - f.cy) AS d2
                FROM geo g, fp f
            ),
            r AS (
                SELECT *, row_number() OVER (
                    PARTITION BY doc_id, span_idx
                    ORDER BY d2 ASC, footprint_id ASC) AS rn
                FROM d
            )
            SELECT doc_id, span_idx, seed, footprint_id, category, d2
            FROM r WHERE rn = 1
        """,
        # vector-side polygon metrics (round 3): exact integer shoelace
        # over e6-quantized coords — floor(x·1e6 + 0.5) matches the
        # query's _half_up recipe on identical parquet doubles.
        "footprint_metrics": f"""
            SELECT footprint_id, category,
                   CAST(count(*) AS BIGINT) AS n_edges,
                   CAST(SUM(
                       CAST(floor(x1 * 1000000 + 0.5) AS BIGINT)
                     * CAST(floor(y2 * 1000000 + 0.5) AS BIGINT)
                     - CAST(floor(x2 * 1000000 + 0.5) AS BIGINT)
                     * CAST(floor(y1 * 1000000 + 0.5) AS BIGINT)
                   ) AS BIGINT) AS area2_e12
            FROM read_parquet('{EDGES_PARQUET}')
            GROUP BY footprint_id, category
        """,
        "bbox_join_counts": _MEDIA
        + """
            , geo AS (
                SELECT seed,
                       CASE WHEN seed % 10 < 6 THEN
                            (CASE seed % 3 WHEN 0 THEN -74.0 WHEN 1 THEN 2.35 ELSE 139.7 END)
                            + ((seed * 31) % 2000 - 1000) / 1000.0
                       ELSE ((seed * 9973) % 360000) / 1000.0 - 180.0 END AS lon,
                       CASE WHEN seed % 10 < 6 THEN
                            (CASE seed % 3 WHEN 0 THEN 40.7 WHEN 1 THEN 48.85 ELSE 35.7 END)
                            + ((seed * 57) % 2000 - 1000) / 1000.0
                       ELSE ((seed * 7919) % 170000) / 1000.0 - 85.0 END AS lat
                FROM media
            )
            SELECT f.footprint_id,
                   CAST(count(*) AS BIGINT) AS n_tiles
            FROM geo g
            JOIN read_parquet('/tmp/raycells_docs/footprint_bboxes.parquet') f
              ON g.lon - 0.005 <= f.maxx AND g.lon + 0.005 >= f.minx
             AND g.lat - 0.005 <= f.maxy AND g.lat + 0.005 >= f.miny
            GROUP BY f.footprint_id
        """,
        # windowed NN-resampled read (tilestore.synth_band_window):
        # window (16,16), size (32,32), out 8x8; src index per out (r,c)
        "resample_tiles": _MEDIA
        + """
            , grid AS (
                SELECT m.doc_id, m.span_idx, m.seed,
                       (16 + CAST(floor((r.range + 0.5) * 32 / 8) AS BIGINT)) * 64
                       + (16 + CAST(floor((c.range + 0.5) * 32 / 8) AS BIGINT)) AS i
                FROM media m, range(8) r, range(8) c
            ),
            vals AS (
                SELECT doc_id, span_idx, seed,
                       CASE WHEN (seed + i * 7) % 33 = 0 THEN 0
                            ELSE 1 + (seed * 2654435761 + (i + 404) * 40503) % 65520
                       END AS v
                FROM grid
            )
            SELECT doc_id, span_idx, seed,
                   CAST(SUM(CASE WHEN v > 0 THEN 1 ELSE 0 END) AS BIGINT) AS n_valid_rs,
                   CAST(SUM(v) AS BIGINT) AS sum_rs,
                   CAST(MAX(v) AS BIGINT) AS max_rs
            FROM vals GROUP BY doc_id, span_idx, seed
        """,
        # windowed BILINEAR read at exactly 2× scale: every weight is
        # 0.5, so 4·out = sum of the 4 source pixels — pure integers.
        # out cell (rr, cc) reads sources (16+2rr+dr, 16+2cc+dc), dr,dc ∈ {0,1}
        "resample_bilinear": _bilinear_sql(),
        # windowed CUBIC read at exactly 2× scale: 1-D tap weights are
        # (−1, 9, 9, −1)/16 (Keys A=−0.5 at t=0.5), so 256·out =
        # Σ wy·wx·v over the 4×4 taps with integer weights. Taps per
        # axis at 2·out−1 … 2·out+2, edge-replicated within the window.
        # windowed CUBIC read at 2× scale: Keys A=−0.5 1-D weights are
        # (−1, 9, 9, −1)/16 — 256·out is the exact-integer 16-tap sum,
        # inlined per out cell (_int_separable_resample_sql).
        "resample_cubic": _int_separable_resample_sql([-1, 9, 9, -1], "cu256"),
        # windowed AVERAGE read at a 4×2 integer factor: each output
        # cell is the mean of its 4-wide × 2-tall source block, so
        # 8·out = the block's integer sum. out cell (rr, cc) reads
        # sources (16+2rr+dr, 16+4cc+dc), dr ∈ {0,1}, dc ∈ {0..3}.
        "resample_average": _box_sum_sql("av8"),
        # windowed CUBIC-B-SPLINE read at 2× scale: 1-D tap weights are
        # (1, 23, 23, 1)/48 (B₃ at t=0.5), so 2304·out = Σ wy·wx·v over
        # the 4×4 taps with integer weights — same tap geometry as
        # cubic, different kernel.
        # windowed CUBIC-B-SPLINE read at 2× scale: B₃ 1-D weights are
        # (1, 23, 23, 1)/48 — 2304·out is the exact-integer 16-tap sum,
        # inlined per out cell (_int_separable_resample_sql).
        "resample_cubicspline": _int_separable_resample_sql(
            [1, 23, 23, 1], "bs2304"
        ),
        # windowed RMS read, 4×2 box: rms = sqrt(ssq / 8) where ssq is
        # the box's exact-integer sum of squares; /8 is a power-of-two
        # division and sqrt is correctly-rounded IEEE, so the doubles
        # are bit-equal to numpy's. Only elementwise-derived floats are
        # emitted (min/max — never float sums).
        "resample_rms": _rms_sql(),
        # windowed MODE read, 4×2 box: per output cell the most
        # frequent value, smallest on tie (row_number ordered by count
        # DESC then value ASC — the engine's documented tie rule).
        # windowed LANCZOS read at 2× scale: transcendental constant
        # weights reproduced bit-for-bit via libm sin parity (see
        # _lanczos_resample_sql).
        "resample_lanczos": _lanczos_resample_sql(),
        "resample_mode": _mode_resample_sql(),
        # two-band decode with the same per-tile/per-cell LCG hoist as
        # _BAND_STATS (red at cell offset 404, nir at 505)
        "ndvi_stats": _MEDIA
        + """
            , mh AS (
                SELECT doc_id, span_idx, seed,
                       (seed * 2654435761) % 65520 AS sh, seed % 33 AS s33
                FROM media
            ),
            ihelp AS MATERIALIZED (
                SELECT (CAST(range AS BIGINT) * 7) % 33 AS m7,
                       ((CAST(range AS BIGINT) + 404) * 40503) % 65520 AS mh404,
                       ((CAST(range AS BIGINT) + 505) * 40503) % 65520 AS mh505
                FROM range(4096)
            ),
            bands AS (
                SELECT m.doc_id, m.span_idx, m.seed,
                       1 + (m.sh + c.mh404) % 65520 AS red,
                       1 + (m.sh + c.mh505) % 65520 AS nir,
                       (m.s33 + c.m7) % 33 != 0 AS ok
                FROM mh m, ihelp c
            )
            SELECT doc_id, span_idx, seed,
                   CAST(count(*) FILTER (WHERE ok) AS BIGINT) AS n_valid,
                   MIN(CAST(nir - red AS DOUBLE) / (nir + red)) FILTER (WHERE ok) AS ndvi_min,
                   MAX(CAST(nir - red AS DOUBLE) / (nir + red)) FILTER (WHERE ok) AS ndvi_max
            FROM bands GROUP BY doc_id, span_idx, seed
        """,
        "top_dense_cells": _BAND_STATS + _GRID
        + """
            , agg AS (
                SELECT grid_cell, CAST(count(*) AS BIGINT) AS n_tiles
                FROM gridded GROUP BY grid_cell
            )
            SELECT grid_cell, n_tiles FROM agg
            ORDER BY n_tiles DESC, grid_cell DESC LIMIT 20
        """,
        "global_stats": """
            SELECT CAST(count(*) AS BIGINT) AS n_rows,
                   CAST(SUM(CAST(FLOOR(l_quantity + 0.5) AS BIGINT)) AS BIGINT) AS sum_qty,
                   MIN(CAST(FLOOR(l_extendedprice * 100 + 0.5) AS BIGINT)) AS min_price_c,
                   MAX(CAST(FLOOR(l_extendedprice * 100 + 0.5) AS BIGINT)) AS max_price_c
            FROM lineitem
        """,
        "quantiles_qty": """
            SELECT CAST(quantile_disc(CAST(FLOOR(l_quantity + 0.5) AS BIGINT), 0.5) AS BIGINT) AS p50,
                   CAST(quantile_disc(CAST(FLOOR(l_quantity + 0.5) AS BIGINT), 0.9) AS BIGINT) AS p90,
                   CAST(quantile_disc(CAST(FLOOR(l_quantity + 0.5) AS BIGINT), 0.99) AS BIGINT) AS p99,
                   CAST(count(*) AS BIGINT) AS n_rows
            FROM lineitem
        """,
        "sessionize": """
            WITH flagged AS (
                SELECT user_id, ts,
                       CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts)
                                 > INTERVAL 30 MINUTE
                            THEN 1 ELSE 0 END AS brk
                FROM events
            ),
            numbered AS (
                SELECT user_id,
                       SUM(brk) OVER (PARTITION BY user_id ORDER BY ts
                                      ROWS UNBOUNDED PRECEDING) AS sid
                FROM flagged
            ),
            per_session AS (
                SELECT user_id, sid, count(*) AS c
                FROM numbered GROUP BY user_id, sid
            )
            SELECT user_id,
                   CAST(SUM(c) AS BIGINT) AS n_events,
                   CAST(count(*) AS BIGINT) AS n_sessions,
                   CAST(MAX(c) AS BIGINT) AS max_session_events
            FROM per_session GROUP BY user_id
        """,
        "revenue_by_nation": """
            SELECT n.n_name,
                   CAST(count(*) AS BIGINT) AS n_orders,
                   CAST(SUM(CAST(FLOOR(o.o_totalprice * 100 + 0.5) AS BIGINT)) AS BIGINT) AS revenue_c
            FROM orders o
            JOIN customer c ON o.o_custkey = c.c_custkey
            JOIN nation n ON c.c_nationkey = n.n_nationkey
            GROUP BY n.n_name
        """,
        "lineitem_pricing": """
            WITH u AS (
                SELECT l_returnflag, l_linestatus,
                       CAST(FLOOR(l_quantity + 0.5) AS BIGINT) AS qty,
                       CAST(FLOOR(l_extendedprice * 100 + 0.5) AS BIGINT) AS ep_c,
                       CAST(FLOOR(l_discount * 100 + 0.5) AS BIGINT) AS dc_c,
                       CAST(FLOOR(l_tax * 100 + 0.5) AS BIGINT) AS tx_c
                FROM lineitem
            )
            SELECT l_returnflag, l_linestatus,
                   CAST(count(*) AS BIGINT) AS count_order,
                   CAST(SUM(qty) AS BIGINT) AS sum_qty,
                   CAST(SUM(ep_c * (100 - dc_c)) AS BIGINT) AS sum_disc_price_e4,
                   CAST(SUM(ep_c * (100 - dc_c) * (100 + tx_c)) AS BIGINT) AS sum_charge_e6
            FROM u GROUP BY l_returnflag, l_linestatus
        """,
        "orders_by_segment": """
            SELECT c.c_mktsegment,
                   CAST(count(*) AS BIGINT) AS n_orders,
                   CAST(SUM(CAST(FLOOR(o.o_totalprice * 100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_totalprice_c
            FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
            GROUP BY c.c_mktsegment
        """,
        "dedup_exact": """
            SELECT source,
                   CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(count(DISTINCT text) AS BIGINT) AS n_unique_texts
            FROM documents GROUP BY source
        """,
        "token_stats": f"""
            SELECT lang,
                   CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(SUM(CASE WHEN length(text) = 0 THEN 0
                            ELSE length(text) - length(replace(text, ' ', '')) + 1 END) AS BIGINT)
                       AS total_tokens,
                   CAST(SUM({stop_expr}) AS BIGINT) AS total_stopword_hits,
                   CAST(SUM(CASE WHEN
                        (CASE WHEN length(text) = 0 THEN 0
                              ELSE length(text) - length(replace(text, ' ', '')) + 1 END) >= 5
                        AND 2 * length(regexp_replace(text, '[^a-zA-Z]', '', 'g')) >= length(text)
                        AND ({stop_expr}) >= 1
                        THEN 1 ELSE 0 END) AS BIGINT) AS n_quality_ok
            FROM documents GROUP BY lang
        """,
        # identical rows from the JSONL mirror — source-format independence
        "jsonl_token_stats": f"""
            SELECT lang,
                   CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(SUM(CASE WHEN length(text) = 0 THEN 0
                            ELSE length(text) - length(replace(text, ' ', '')) + 1 END) AS BIGINT)
                       AS total_tokens,
                   CAST(SUM({stop_expr}) AS BIGINT) AS total_stopword_hits,
                   CAST(SUM(CASE WHEN
                        (CASE WHEN length(text) = 0 THEN 0
                              ELSE length(text) - length(replace(text, ' ', '')) + 1 END) >= 5
                        AND 2 * length(regexp_replace(text, '[^a-zA-Z]', '', 'g')) >= length(text)
                        AND ({stop_expr}) >= 1
                        THEN 1 ELSE 0 END) AS BIGINT) AS n_quality_ok
            FROM documents GROUP BY lang
        """,
        "lang_id": f"""
            WITH scored AS (
                SELECT lang,
                       {", ".join(f"{scores[l]} AS s_{l}" for l in langs)}
                FROM documents
            ),
            detected AS (
                SELECT lang, {detect_case} AS lang_detected FROM scored
            )
            SELECT lang, lang_detected, CAST(count(*) AS BIGINT) AS n_docs
            FROM detected GROUP BY lang, lang_detected
        """,
        "normalize_text": """
            WITH norm AS (
                SELECT source,
                       regexp_replace(lower(text), '[^a-z0-9 ]', '', 'g') AS c,
                       trim(regexp_replace(lower(text), '[^a-z0-9 ]', '', 'g')) AS tr
                FROM documents
            )
            SELECT source,
                   CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(SUM(length(c)) AS BIGINT) AS total_chars_clean,
                   CAST(SUM(CASE WHEN tr = '' THEN 0
                            ELSE len(string_split_regex(tr, ' +')) END) AS BIGINT)
                       AS total_tokens_clean
            FROM norm GROUP BY source
        """,
        "sample_lineitem": """
            WITH keyed AS (
                SELECT CAST(FLOOR(l_quantity + 0.5) AS BIGINT) AS qty
                FROM lineitem
                WHERE ((l_orderkey * 7 + l_linenumber) * 2654435761) % 97 < 10
            )
            SELECT CAST(count(*) AS BIGINT) AS n_sampled,
                   CAST(SUM(qty) AS BIGINT) AS sum_qty
            FROM keyed
        """,
        # exact-n-per-stratum deterministic sample (q_stratified_sample):
        # the same integer hash, ranked (hash, key) per segment
        "quantiles_price": """
            SELECT quantile_disc(l_extendedprice, 0.5) AS p50,
                   quantile_disc(l_extendedprice, 0.9) AS p90,
                   quantile_disc(l_extendedprice, 0.99) AS p99,
                   CAST(COUNT(*) AS BIGINT) AS n_rows
            FROM lineitem
        """,
        "grouped_quantiles": """
            SELECT l_returnflag,
                   CAST(quantile_disc(CAST(FLOOR(l_quantity + 0.5) AS BIGINT), 0.5) AS BIGINT) AS p50,
                   CAST(quantile_disc(CAST(FLOOR(l_quantity + 0.5) AS BIGINT), 0.9) AS BIGINT) AS p90,
                   CAST(quantile_disc(CAST(FLOOR(l_quantity + 0.5) AS BIGINT), 0.99) AS BIGINT) AS p99,
                   CAST(COUNT(*) AS BIGINT) AS n_rows
            FROM lineitem GROUP BY l_returnflag
        """,
        # deterministic corpus mixture (round 3): per-source keep rates
        # via the shared integer-mix hash (src0/1/2 = 1000/500/250 per
        # mille, default 100).
        "corpus_mixture": """
            WITH keyed AS (
                SELECT source,
                       CASE WHEN length(text) = 0 THEN 0
                            ELSE length(text) - length(replace(text, ' ', '')) + 1
                       END AS ntok,
                       CASE WHEN (doc_id * 2654435761) % 1000 <
                            CASE source WHEN 'src0' THEN 1000
                                        WHEN 'src1' THEN 500
                                        WHEN 'src2' THEN 250
                                        ELSE 100 END
                            THEN 1 ELSE 0 END AS keep
                FROM documents
            )
            SELECT source,
                   CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(SUM(ntok) AS BIGINT) AS total_tokens,
                   CAST(SUM(keep) AS BIGINT) AS kept_docs,
                   CAST(SUM(keep * ntok) AS BIGINT) AS kept_tokens
            FROM keyed GROUP BY source
        """,
        # sequence packing (round 3): greedy first-fit-in-order into
        # ≤600-token bins inside 64-doc shards — recursive CTE carrying
        # (bin, fill) per shard in doc order (the sequential rule the
        # vectorized pass-per-bin kernel reproduces).
        "pack_sequences": """
            WITH RECURSIVE docs2 AS MATERIALIZED (
                SELECT doc_id // 64 AS shard, doc_id,
                       CASE WHEN length(text) = 0 THEN 0
                            ELSE length(text) - length(replace(text, ' ', '')) + 1
                       END AS ntok,
                       ROW_NUMBER() OVER (PARTITION BY doc_id // 64
                                          ORDER BY doc_id) AS rn
                FROM documents
            ),
            rec AS (
                SELECT shard, rn, ntok, CAST(0 AS BIGINT) AS bin, ntok AS fill
                FROM docs2 WHERE rn = 1
                UNION ALL
                SELECT d.shard, d.rn, d.ntok,
                       CASE WHEN r.fill + d.ntok > 600 THEN r.bin + 1
                            ELSE r.bin END,
                       CASE WHEN r.fill + d.ntok > 600 THEN d.ntok
                            ELSE r.fill + d.ntok END
                FROM rec r JOIN docs2 d
                  ON d.shard = r.shard AND d.rn = r.rn + 1
            )
            SELECT CAST(shard AS BIGINT) AS shard,
                   CAST(bin AS BIGINT) AS bin,
                   CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(SUM(ntok) AS BIGINT) AS total_tokens
            FROM rec GROUP BY shard, bin
        """,
        # pack_multimodal (q_pack_multimodal): per-doc cost = text-span
        # tokens + 64 per media span; same shard/greedy recursive rule
        # as pack_sequences, over the interleaved spans table.
        "pack_multimodal": f"""
            WITH RECURSIVE ex AS (
                SELECT doc_id, unnest(spans) AS s
                FROM read_parquet('{DOCS_GLOB}')
            ),
            per AS MATERIALIZED (
                SELECT CAST(substr(doc_id, 5) AS BIGINT) AS did,
                       CAST(SUM(CASE WHEN s.kind = 'text' THEN
                           CASE WHEN length(s.text) = 0 THEN 0
                                ELSE length(s.text)
                                     - length(replace(s.text, ' ', '')) + 1
                           END ELSE 64 END) AS BIGINT) AS cost,
                       CAST(SUM(CASE WHEN s.kind = 'media' THEN 1 ELSE 0 END)
                           AS BIGINT) AS n_media,
                       CAST(SUM(CASE WHEN s.kind = 'text' THEN
                           CASE WHEN length(s.text) = 0 THEN 0
                                ELSE length(s.text)
                                     - length(replace(s.text, ' ', '')) + 1
                           END ELSE 0 END) AS BIGINT) AS text_tokens
                FROM ex GROUP BY doc_id
            ),
            docs2 AS MATERIALIZED (
                SELECT did // 64 AS shard, did, cost, n_media, text_tokens,
                       ROW_NUMBER() OVER (PARTITION BY did // 64
                                          ORDER BY did) AS rn
                FROM per
            ),
            rec AS (
                SELECT shard, rn, cost, n_media, text_tokens,
                       CAST(0 AS BIGINT) AS bin, cost AS fill
                FROM docs2 WHERE rn = 1
                UNION ALL
                SELECT d.shard, d.rn, d.cost, d.n_media, d.text_tokens,
                       CASE WHEN r.fill + d.cost > 600 THEN r.bin + 1
                            ELSE r.bin END,
                       CASE WHEN r.fill + d.cost > 600 THEN d.cost
                            ELSE r.fill + d.cost END
                FROM rec r JOIN docs2 d
                  ON d.shard = r.shard AND d.rn = r.rn + 1
            )
            SELECT CAST(shard AS BIGINT) AS shard,
                   CAST(bin AS BIGINT) AS bin,
                   CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(SUM(cost) AS BIGINT) AS total_cost,
                   CAST(SUM(n_media) AS BIGINT) AS n_media,
                   CAST(SUM(text_tokens) AS BIGINT) AS text_tokens
            FROM rec GROUP BY shard, bin
        """,
        "stratified_sample": """
            WITH keyed AS (
                SELECT c_mktsegment,
                       CAST(c_custkey AS BIGINT) AS c_custkey,
                       (CAST(c_custkey AS BIGINT) * 2654435761) % 1000003
                           AS strat_hash
                FROM customer
            ),
            ranked AS (
                SELECT *,
                       CAST(ROW_NUMBER() OVER (
                           PARTITION BY c_mktsegment
                           ORDER BY strat_hash, c_custkey) AS BIGINT) AS rank
                FROM keyed
            )
            SELECT c_mktsegment, c_custkey, strat_hash, rank
            FROM ranked WHERE rank <= 40
        """,
        # integer-quantized TF-IDF (q_tfidf_terms): tf × (N·10⁶ // df),
        # all integer — same string_split(' ') tokenization the
        # token_stats oracle already proves
        "top_bigrams": """
            WITH tl AS MATERIALIZED (
                SELECT CAST(doc_id AS VARCHAR) AS dk,
                       string_split(text, ' ') AS toks
                FROM documents
            ),
            tpos AS MATERIALIZED (
                SELECT dk, r.range AS pos,
                       list_extract(toks, CAST(r.range + 1 AS INT)) AS tok
                FROM tl, LATERAL (SELECT unnest(range(len(toks))) AS range) r
            ),
            big AS (
                SELECT a.tok || ' ' || b.tok AS bigram,
                       CAST(COUNT(*) AS BIGINT) AS n
                FROM tpos a JOIN tpos b ON b.dk = a.dk AND b.pos = a.pos + 1
                GROUP BY 1
            ),
            ranked AS (
                SELECT bigram, n,
                       CAST(ROW_NUMBER() OVER (ORDER BY n DESC, bigram) AS BIGINT) AS rank
                FROM big
            )
            SELECT bigram, n, rank FROM ranked WHERE rank <= 20
        """,
        "tfidf_terms": """
            WITH docs AS (
                SELECT CAST(doc_id AS VARCHAR) AS dk, text FROM documents
            ),
            toks AS (
                SELECT dk, tok, CAST(COUNT(*) AS BIGINT) AS tf
                FROM (SELECT dk, unnest(string_split(text, ' ')) AS tok
                      FROM docs)
                WHERE tok <> '' GROUP BY dk, tok
            ),
            dfreq AS (
                SELECT tok, CAST(COUNT(*) AS BIGINT) AS df
                FROM toks GROUP BY tok
            ),
            scored AS (
                SELECT t.dk, t.tok, t.tf, d.df,
                       t.tf * ((SELECT CAST(COUNT(*) AS BIGINT) FROM docs)
                               * 1000000 // d.df) AS tfidf_e6
                FROM toks t JOIN dfreq d ON d.tok = t.tok
            ),
            ranked AS (
                SELECT dk AS doc_key, tok AS token, tf, df, tfidf_e6,
                       CAST(ROW_NUMBER() OVER (
                           PARTITION BY dk
                           ORDER BY tfidf_e6 DESC, tok) AS BIGINT) AS rank
                FROM scored
            )
            SELECT doc_key, token, tf, df, tfidf_e6, rank
            FROM ranked WHERE rank <= 3
        """,
        # Gopher-style repetition filter (q_repetition_filter): per-doc
        # duplicate-token / duplicate-bigram integer counts, flag when
        # dup-token fraction > 1/2 OR dup-bigram fraction > 1/4 (both as
        # cross-multiplied integer comparisons), rolled up per source.
        # Distinct bigrams via an UNCAPPED list lambda (no positional
        # range bound — the Ray kernel has no token-count limit either);
        # pairs keyed a||chr(1)||b (tokens are space-split so chr(1)
        # never collides).
        "repetition_filter": """
            WITH perdoc AS (
                SELECT source,
                       CAST(len(toks) AS BIGINT) AS n_tokens,
                       CAST(len(list_distinct(toks)) AS BIGINT) AS n_distinct,
                       CAST(len(toks) - 1 AS BIGINT) AS n_bigrams,
                       CAST(len(list_distinct(list_transform(
                            generate_series(1, len(toks) - 1),
                            i -> toks[i] || chr(1) || toks[i + 1]))) AS BIGINT)
                           AS n_dbig
                FROM (SELECT source, string_split(text, ' ') AS toks
                      FROM documents)
            )
            SELECT source,
                   CAST(COUNT(*) AS BIGINT) AS n_docs,
                   CAST(SUM(CASE WHEN (n_tokens - n_distinct) * 2 > n_tokens
                                   OR (n_bigrams - n_dbig) * 4 > n_bigrams
                            THEN 1 ELSE 0 END) AS BIGINT) AS n_repetitive,
                   CAST(SUM(n_tokens) AS BIGINT) AS sum_tokens,
                   CAST(SUM(n_distinct) AS BIGINT) AS sum_distinct_tokens,
                   CAST(SUM(n_bigrams) AS BIGINT) AS sum_bigrams,
                   CAST(SUM(n_dbig) AS BIGINT) AS sum_distinct_bigrams
            FROM perdoc GROUP BY source
        """,
        # Gopher-rules composite quality filter (q_quality_filter):
        # four exact-integer per-doc predicates (min tokens, mean word
        # length via cross-multiplied tok_chars vs 4·n/10·n, symbol
        # ratio 10·n_other > n_chars, ≥2 distinct stopwords), per-rule
        # drop counts + survivors + raw sums per source. n_tokens /
        # tok_chars mirror the token_counts SQL recipe; char classes
        # via regexp_replace deletion lengths (RE2-safe classes).
        "quality_filter": """
            WITH d AS (
                SELECT source, string_split(text, ' ') AS toks,
                       CAST(CASE WHEN length(text) = 0 THEN 0
                            ELSE length(text) - length(replace(text, ' ', '')) + 1
                            END AS BIGINT) AS n_tokens,
                       CAST(length(replace(text, ' ', '')) AS BIGINT)
                           AS tok_chars,
                       CAST(length(text) AS BIGINT) AS n_chars,
                       CAST(length(regexp_replace(text, '[^a-zA-Z]', '', 'g'))
                           AS BIGINT) AS n_alpha,
                       CAST(length(regexp_replace(text, '[^0-9]', '', 'g'))
                           AS BIGINT) AS n_digit,
                       CAST(length(text) - length(replace(text, ' ', ''))
                           AS BIGINT) AS n_space
                FROM documents
            ),
            s AS (
                SELECT source, n_tokens, tok_chars,
                       n_chars - n_alpha - n_digit - n_space AS n_other,
                       n_chars,
                       (CASE WHEN len(list_filter(toks, x -> x = 'the')) > 0
                             THEN 1 ELSE 0 END
                      + CASE WHEN len(list_filter(toks, x -> x = 'a')) > 0
                             THEN 1 ELSE 0 END
                      + CASE WHEN len(list_filter(toks, x -> x = 'of')) > 0
                             THEN 1 ELSE 0 END
                      + CASE WHEN len(list_filter(toks, x -> x = 'and')) > 0
                             THEN 1 ELSE 0 END
                      + CASE WHEN len(list_filter(toks, x -> x = 'to')) > 0
                             THEN 1 ELSE 0 END) AS n_stop
                FROM d
            ),
            f AS (
                SELECT source, n_tokens, tok_chars,
                       CASE WHEN n_tokens < 50 THEN 1 ELSE 0 END AS dl,
                       CASE WHEN tok_chars < 4 * n_tokens
                              OR tok_chars > 10 * n_tokens
                            THEN 1 ELSE 0 END AS dw,
                       CASE WHEN 10 * n_other > n_chars THEN 1 ELSE 0 END
                           AS dy,
                       CASE WHEN n_stop < 2 THEN 1 ELSE 0 END AS ds
                FROM s
            )
            SELECT source,
                   CAST(COUNT(*) AS BIGINT) AS n_docs,
                   CAST(SUM(dl) AS BIGINT) AS n_drop_len,
                   CAST(SUM(dw) AS BIGINT) AS n_drop_word_len,
                   CAST(SUM(dy) AS BIGINT) AS n_drop_symbol,
                   CAST(SUM(ds) AS BIGINT) AS n_drop_stopword,
                   CAST(SUM(CASE WHEN dl + dw + dy + ds = 0 THEN 1 ELSE 0 END)
                       AS BIGINT) AS n_kept,
                   CAST(SUM(n_tokens) AS BIGINT) AS sum_tokens,
                   CAST(SUM(tok_chars) AS BIGINT) AS sum_tok_chars
            FROM f GROUP BY source
        """,
        # token co-occurrence lift (q_token_cooccurrence): unordered
        # token pairs within a doc's DISTINCT token set; lift_e6 =
        # n_both·N·10⁶ // (df_a·df_b) — exact integers end to end, so
        # the hash matches the incidence-matrix-product Ray path.
        "token_cooccurrence": """
            WITH dt AS MATERIALIZED (
                SELECT DISTINCT CAST(doc_id AS VARCHAR) AS dk,
                       unnest(string_split(text, ' ')) AS tok
                FROM documents
            ),
            dfreq AS (
                SELECT tok, CAST(COUNT(*) AS BIGINT) AS df
                FROM dt GROUP BY tok
            ),
            pairs AS (
                SELECT a.tok AS tok_a, b.tok AS tok_b,
                       CAST(COUNT(*) AS BIGINT) AS n_both
                FROM dt a JOIN dt b ON b.dk = a.dk AND a.tok < b.tok
                GROUP BY a.tok, b.tok
            ),
            scored AS (
                SELECT p.tok_a, p.tok_b, p.n_both,
                       da.df AS df_a, db.df AS df_b,
                       CAST(p.n_both
                            * (SELECT CAST(COUNT(*) AS BIGINT) FROM documents)
                            * 1000000 // (da.df * db.df) AS BIGINT) AS lift_e6
                FROM pairs p
                JOIN dfreq da ON da.tok = p.tok_a
                JOIN dfreq db ON db.tok = p.tok_b
            ),
            ranked AS (
                SELECT *,
                       CAST(ROW_NUMBER() OVER (
                           ORDER BY lift_e6 DESC, tok_a, tok_b) AS BIGINT)
                           AS rank
                FROM scored
            )
            SELECT tok_a, tok_b, n_both, df_a, df_b, lift_e6, rank
            FROM ranked WHERE rank <= 30
        """,
        # LEFT OUTER join (q_customer_order_profile): customers with no
        # orders keep zeros; spend in exact cents
        "customer_order_profile": """
            WITH per_cust AS (
                SELECT o_custkey,
                       CAST(COUNT(*) AS BIGINT) AS n,
                       CAST(SUM(CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT)) AS BIGINT) AS s
                FROM orders GROUP BY o_custkey
            )
            SELECT CAST(c.c_custkey AS BIGINT) AS c_custkey,
                   c.c_mktsegment,
                   CAST(COALESCE(o.n, 0) AS BIGINT) AS n_orders,
                   CAST(COALESCE(o.s, 0) AS BIGINT) AS sum_totalprice_c
            FROM customer c
            LEFT JOIN per_cust o ON o.o_custkey = c.c_custkey
        """,
        # LAG window (q_user_gaps): per-user inter-event gaps in exact
        # integer microseconds; (ts, event_id) is the shared total order
        "user_gaps": """
            WITH ordered AS (
                SELECT user_id,
                       epoch_us(ts) - lag(epoch_us(ts)) OVER (
                           PARTITION BY user_id ORDER BY ts, event_id
                       ) AS gap_us
                FROM events
            )
            SELECT CAST(user_id AS BIGINT) AS user_id,
                   CAST(COUNT(*) AS BIGINT) AS n_events,
                   CAST(COUNT(gap_us) AS BIGINT) AS n_gaps,
                   CAST(COALESCE(SUM(gap_us), 0) AS BIGINT) AS sum_gap_us,
                   CAST(COALESCE(MIN(gap_us), -1) AS BIGINT) AS min_gap_us,
                   CAST(COALESCE(MAX(gap_us), -1) AS BIGINT) AS max_gap_us
            FROM ordered GROUP BY user_id
        """,
        # set ops (q_customer_set_ops): INTERSECT/EXCEPT/complement via
        # per-key MAX membership flags + LEFT JOIN for the 'neither' set
        "customer_set_ops": """
            WITH f AS (
                SELECT o_custkey,
                       MAX(CASE WHEN date_part('year', o_orderdate) = 1996
                                THEN 1 ELSE 0 END) AS a,
                       MAX(CASE WHEN date_part('year', o_orderdate) = 1999
                                THEN 1 ELSE 0 END) AS b
                FROM orders GROUP BY o_custkey
            )
            SELECT c.c_mktsegment,
                   CAST(COUNT(*) AS BIGINT) AS n_customers,
                   CAST(SUM(CASE WHEN COALESCE(f.a, 0) = 1 AND COALESCE(f.b, 0) = 1
                            THEN 1 ELSE 0 END) AS BIGINT) AS n_both,
                   CAST(SUM(CASE WHEN COALESCE(f.a, 0) = 1 AND COALESCE(f.b, 0) = 0
                            THEN 1 ELSE 0 END) AS BIGINT) AS n_only_a,
                   CAST(SUM(CASE WHEN COALESCE(f.a, 0) = 0 AND COALESCE(f.b, 0) = 1
                            THEN 1 ELSE 0 END) AS BIGINT) AS n_only_b,
                   CAST(SUM(CASE WHEN COALESCE(f.a, 0) = 0 AND COALESCE(f.b, 0) = 0
                            THEN 1 ELSE 0 END) AS BIGINT) AS n_neither
            FROM customer c LEFT JOIN f ON f.o_custkey = c.c_custkey
            GROUP BY c.c_mktsegment
        """,
        # histogram quantile sketch (q_hist_quantiles): $100 buckets,
        # estimate = lower bound of the smallest bucket whose cumulative
        # count reaches ceil(q·n), integer cross-multiplied
        "hist_quantiles": """
            WITH h AS (
                SELECT CAST(FLOOR(l_extendedprice * 100 + 0.5) AS BIGINT) // 10000
                           AS b,
                       CAST(COUNT(*) AS BIGINT) AS c
                FROM lineitem GROUP BY 1
            ),
            t AS (SELECT CAST(SUM(c) AS BIGINT) AS n FROM h),
            cum AS (
                SELECT b, CAST(SUM(c) OVER (ORDER BY b) AS BIGINT) AS cc FROM h
            )
            SELECT (SELECT n FROM t) AS n_rows,
                   CAST((SELECT MIN(b) FROM cum
                         WHERE cc * 100 >= (SELECT n FROM t) * 50) * 10000
                        AS BIGINT) AS p50_lo_c,
                   CAST((SELECT MIN(b) FROM cum
                         WHERE cc * 100 >= (SELECT n FROM t) * 90) * 10000
                        AS BIGINT) AS p90_lo_c,
                   CAST((SELECT MIN(b) FROM cum
                         WHERE cc * 100 >= (SELECT n FROM t) * 99) * 10000
                        AS BIGINT) AS p99_lo_c
        """,
        # temporal band join (q_event_bursts): for each event, count the
        # SAME user's events in the trailing week (d-7..d inclusive, 8 day
        # values; self-join —
        # the two sides genuinely overlap in time, so the window logic is
        # exercised with non-trivial counts; the self-match is subtracted
        # identically on both sides)
        # funnel_coverage (q_funnel_coverage): per-(user, day) click vs
        # purchase counts, FULL OUTER — unmatched rows from both sides
        # with coalesced key, zero-filled counts, coverage label.
        "funnel_coverage": """
            WITH c AS (
                SELECT CAST(user_id AS BIGINT) AS user_id,
                       CAST(CAST(ts AS DATE) - DATE '1970-01-01' AS BIGINT)
                           AS day_num,
                       CAST(COUNT(*) AS BIGINT) AS n_clicks
                FROM events WHERE event_type = 'click' GROUP BY 1, 2
            ),
            p AS (
                SELECT CAST(user_id AS BIGINT) AS user_id,
                       CAST(CAST(ts AS DATE) - DATE '1970-01-01' AS BIGINT)
                           AS day_num,
                       CAST(COUNT(*) AS BIGINT) AS n_purchases
                FROM events WHERE event_type = 'purchase' GROUP BY 1, 2
            )
            SELECT COALESCE(c.user_id, p.user_id) AS user_id,
                   COALESCE(c.day_num, p.day_num) AS day_num,
                   CAST(COALESCE(c.n_clicks, 0) AS BIGINT) AS n_clicks,
                   CAST(COALESCE(p.n_purchases, 0) AS BIGINT) AS n_purchases,
                   CASE WHEN c.user_id IS NOT NULL AND p.user_id IS NOT NULL
                        THEN 'both'
                        WHEN c.user_id IS NOT NULL THEN 'click_only'
                        ELSE 'purchase_only' END AS coverage
            FROM c FULL OUTER JOIN p
              ON p.user_id = c.user_id AND p.day_num = c.day_num
        """,
        "event_bursts": """
            WITH ev AS (
                SELECT event_id, event_type, user_id, CAST(ts AS DATE) AS d
                FROM events
            ),
            j AS (
                SELECT e.event_id, e.event_type,
                       CAST(COUNT(*) - 1 AS BIGINT) AS m
                FROM ev e JOIN ev r
                  ON r.user_id = e.user_id
                 AND e.d - r.d BETWEEN 0 AND 7
                GROUP BY e.event_id, e.event_type
            )
            SELECT event_type,
                   CAST(COUNT(*) AS BIGINT) AS n_events,
                   CAST(SUM(m) AS BIGINT) AS sum_matches,
                   CAST(SUM(CASE WHEN m > 0 THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_matched
            FROM j GROUP BY event_type
        """,
        # unigram surprisal (q_doc_surprisal): whole-bit token costs —
        # floor(log2(N/c)) == length(bin(N // c)) - 1, pure integers
        # (numpy SIMD log vs libm ln are NOT bit-identical, so a float
        # LM score could never hash; whole bits can)
        "doc_surprisal": """
            WITH toks AS MATERIALIZED (
                SELECT source, CAST(doc_id AS VARCHAR) AS dk,
                       unnest(string_split(text, ' ')) AS tok
                FROM documents
            ),
            tot AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM toks),
            q AS (
                SELECT tok,
                       CAST(length(bin((SELECT n FROM tot) // c)) - 1 AS BIGINT) AS s
                FROM (SELECT tok, CAST(COUNT(*) AS BIGINT) AS c
                      FROM toks GROUP BY tok)
            ),
            doc AS (
                SELECT t.source, t.dk,
                       CAST(COUNT(*) AS BIGINT) AS ntok,
                       CAST(SUM(q.s) AS BIGINT) AS score
                FROM toks t JOIN q ON q.tok = t.tok
                GROUP BY t.source, t.dk
            )
            SELECT source,
                   CAST(COUNT(*) AS BIGINT) AS n_docs,
                   CAST(SUM(ntok) AS BIGINT) AS sum_tokens,
                   CAST(SUM(score) AS BIGINT) AS sum_surprisal_bits,
                   CAST(SUM(CASE WHEN score > ntok * 5 THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_flagged
            FROM doc GROUP BY source
        """,
        # grouped Pearson correlation (q_qty_price_corr): exact integer
        # moment sums; the double is derived with the identical IEEE
        # tree (DOUBLE casts of exact ints, same op order) as numpy
        "qty_price_corr": """
            WITH d AS (
                SELECT l_returnflag,
                       CAST(FLOOR(l_quantity + 0.5) AS BIGINT) AS x,
                       CAST(FLOOR(l_extendedprice + 0.5) AS BIGINT) AS y
                FROM lineitem
            ),
            s AS (
                SELECT l_returnflag,
                       CAST(COUNT(*) AS BIGINT) AS n_rows,
                       CAST(SUM(x) AS BIGINT) AS sum_qty,
                       CAST(SUM(y) AS BIGINT) AS sum_price_d,
                       CAST(SUM(x * x) AS BIGINT) AS sxx,
                       CAST(SUM(y * y) AS BIGINT) AS syy,
                       CAST(SUM(x * y) AS BIGINT) AS sxy
                FROM d GROUP BY l_returnflag
            )
            SELECT l_returnflag, n_rows, sum_qty, sum_price_d,
                   (CAST(n_rows AS DOUBLE) * CAST(sxy AS DOUBLE)
                    - CAST(sum_qty AS DOUBLE) * CAST(sum_price_d AS DOUBLE))
                   / (sqrt(CAST(n_rows AS DOUBLE) * CAST(sxx AS DOUBLE)
                           - CAST(sum_qty AS DOUBLE) * CAST(sum_qty AS DOUBLE))
                      * sqrt(CAST(n_rows AS DOUBLE) * CAST(syy AS DOUBLE)
                             - CAST(sum_price_d AS DOUBLE) * CAST(sum_price_d AS DOUBLE)))
                       AS corr_qty_price
            FROM s
        """,
        # pivot (q_events_pivot): long→wide on the aggregated rollup;
        # FILTER-per-type is the SQL spelling of static pivot columns
        "events_pivot": """
            SELECT strftime(ts, '%Y-%m-%d') AS day,
                   CAST(COUNT(*) FILTER (event_type = 'click') AS BIGINT) AS n_click,
                   CAST(COUNT(*) FILTER (event_type = 'error') AS BIGINT) AS n_error,
                   CAST(COUNT(*) FILTER (event_type = 'purchase') AS BIGINT) AS n_purchase,
                   CAST(COUNT(*) FILTER (event_type = 'signup') AS BIGINT) AS n_signup,
                   CAST(COUNT(*) FILTER (event_type = 'view') AS BIGINT) AS n_view
            FROM events GROUP BY day
        """,
        # cumulative window (q_user_running_value): rank + running cents
        # per user; (ts, event_id) is unique so RANGE default == ROWS
        "user_running_value": """
            SELECT CAST(event_id AS BIGINT) AS event_id,
                   CAST(user_id AS BIGINT) AS user_id,
                   CAST(ROW_NUMBER() OVER w AS BIGINT) AS rn,
                   CAST(SUM(value_c) OVER w AS BIGINT) AS cum_value_c
            FROM (SELECT event_id, user_id, ts,
                         CAST(FLOOR(value * 100 + 0.5) AS BIGINT) AS value_c
                  FROM events)
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
        """,
        # BPE-ish regex tokens (q_regex_tokens): RE2's leftmost-longest
        # scan of [a-z]+|[0-9]+|[^a-z0-9 ] is exactly run decomposition,
        # so regexp_extract_all lengths equal the byte-class run counts
        "regex_tokens": """
            WITH toks AS (
                SELECT event_type,
                       CAST(len(regexp_extract_all(props, '[a-z]+|[0-9]+|[^a-z0-9 ]')) AS BIGINT) AS n_tok,
                       CAST(len(regexp_extract_all(props, '[a-z]+')) AS BIGINT) AS n_alpha,
                       CAST(len(regexp_extract_all(props, '[0-9]+')) AS BIGINT) AS n_digit,
                       CAST(len(regexp_extract_all(props, '[^a-z0-9 ]')) AS BIGINT) AS n_punct
                FROM events
            )
            SELECT event_type,
                   CAST(COUNT(*) AS BIGINT) AS n_rows,
                   CAST(SUM(n_tok) AS BIGINT) AS sum_tokens,
                   CAST(SUM(n_alpha) AS BIGINT) AS sum_alpha_tokens,
                   CAST(SUM(n_digit) AS BIGINT) AS sum_digit_tokens,
                   CAST(SUM(n_punct) AS BIGINT) AS sum_punct_tokens
            FROM toks GROUP BY event_type
        """,
        # PII-style digit-run scrub (q_redact_props): DuckDB and Arrow
        # both run RE2, so regexp_replace(props,'[0-9]+','#','g') is
        # byte-identical to pc.replace_substring_regex on the Ray side.
        "redact_props": """
            WITH red AS (
                SELECT event_type, props,
                       regexp_replace(props, '[0-9]+', '#', 'g') AS r
                FROM events
            )
            SELECT event_type,
                   CAST(COUNT(*) AS BIGINT) AS n_rows,
                   CAST(SUM(CASE WHEN r <> props THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_changed,
                   CAST(SUM(length(props)) AS BIGINT) AS sum_len_orig,
                   CAST(SUM(length(r)) AS BIGINT) AS sum_len_redacted
            FROM red GROUP BY event_type
        """,
        "events_daily": """
            SELECT event_type, strftime(ts, '%Y-%m-%d') AS day,
                   CAST(count(*) AS BIGINT) AS n_events,
                   CAST(SUM(CAST(FLOOR(value * 100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_value_c
            FROM events GROUP BY event_type, day
        """,
        # cohort_retention (q_cohort_retention): orders counted into
        # (first-order month of the customer, order month).
        "cohort_retention": """
            WITH o AS (
                SELECT CAST(o_custkey AS BIGINT) AS ck,
                       strftime(o_orderdate, '%Y-%m') AS m
                FROM orders
            ),
            f AS (SELECT ck, MIN(m) AS cohort FROM o GROUP BY ck)
            SELECT f.cohort, o.m AS month,
                   CAST(COUNT(*) AS BIGINT) AS n_orders
            FROM o JOIN f USING (ck) GROUP BY 1, 2
        """,
        # value_outliers (q_value_outliers): grouped 3-sigma outliers in
        # exact integers — the cross-multiplied predicate in HUGEINT
        # ((n·x−S)² > 9(nQ−S²)) mirrors the engine's |n·x−S| > isqrt
        # boundary exactly.
        "value_outliers": """
            WITH t AS (
                SELECT CAST(event_id AS BIGINT) AS event_id,
                       event_type AS g,
                       CAST(floor(value * 100 + 0.5) AS BIGINT) AS x
                FROM events
            ),
            m AS (
                SELECT g, CAST(COUNT(*) AS HUGEINT) AS n,
                       SUM(CAST(x AS HUGEINT)) AS s,
                       SUM(CAST(x AS HUGEINT) * CAST(x AS HUGEINT)) AS q
                FROM t GROUP BY g
            )
            SELECT t.event_id, t.g AS event_type, t.x AS value_c
            FROM t JOIN m USING (g)
            WHERE (m.n * t.x - m.s) * (m.n * t.x - m.s)
                  > 9 * (m.n * m.q - m.s * m.s)
        """,
        # events_rollup (q_events_rollup): GROUPING SETS over
        # (event_type, day) / (event_type) / (day) / () with the 'ALL'
        # sentinel for rolled dimensions — exact cent sums.
        "events_rollup": """
            SELECT COALESCE(event_type, 'ALL') AS event_type,
                   COALESCE(day, 'ALL') AS day,
                   CAST(count(*) AS BIGINT) AS n_events,
                   CAST(SUM(CAST(FLOOR(value * 100 + 0.5) AS BIGINT))
                        AS BIGINT) AS sum_value_c
            FROM (SELECT event_type, strftime(ts, '%Y-%m-%d') AS day, value
                  FROM events)
            GROUP BY GROUPING SETS ((event_type, day), (event_type), (day), ())
        """,
        # as-of join: each event → the user's latest order at event time;
        # ties on o_orderdate break toward the greatest o_orderkey (same
        # deterministic rule as the merge_asof sort in engine/joins.py)
        "asof_latest_order": """
            SELECT event_id, o_orderkey FROM (
                SELECT e.event_id, o.o_orderkey,
                       ROW_NUMBER() OVER (
                           PARTITION BY e.event_id
                           ORDER BY o.o_orderdate DESC, o.o_orderkey DESC
                       ) AS rn
                FROM events e
                JOIN orders o
                  ON o.o_custkey = e.user_id AND o.o_orderdate <= e.ts
            ) WHERE rn = 1
        """,
        "events_props_k": """
            SELECT event_type,
                   CAST((CAST(json_extract(props, '$.k') AS BIGINT) // 10) * 10
                        AS BIGINT) AS k_decade,
                   CAST(count(*) AS BIGINT) AS n_events
            FROM events GROUP BY event_type, k_decade
        """,
        "events_rolling7": """
            WITH daily AS (
                SELECT event_type, strftime(ts, '%Y-%m-%d') AS day,
                       CAST(count(*) AS BIGINT) AS n_events,
                       CAST(date_trunc('day', ts) AS DATE) AS d
                FROM events GROUP BY event_type, day, d
            )
            SELECT event_type, day, n_events,
                   CAST(SUM(n_events) OVER (
                       PARTITION BY event_type ORDER BY d
                       RANGE BETWEEN INTERVAL 6 DAY PRECEDING AND CURRENT ROW
                   ) AS BIGINT) AS n_events_7d
            FROM daily
        """,
        "distinct_custs": """
            SELECT o_orderpriority,
                   CAST(count(DISTINCT o_custkey) AS BIGINT) AS n_custs
            FROM orders GROUP BY o_orderpriority
        """,
        "approx_distinct_custs": _hll_sql(
            "o_orderpriority", "o_custkey", "orders", "approx_custs"
        ),
        "top_parts_by_brand": """
            SELECT p_brand, rank, p_partkey, price_c FROM (
                SELECT p_brand, p_partkey,
                       CAST(FLOOR(p_retailprice * 100 + 0.5) AS BIGINT) AS price_c,
                       CAST(ROW_NUMBER() OVER (
                           PARTITION BY p_brand
                           ORDER BY CAST(FLOOR(p_retailprice * 100 + 0.5) AS BIGINT) DESC,
                                    p_partkey DESC
                       ) AS BIGINT) AS rank
                FROM part
            ) WHERE rank <= 3
        """,
        "priority_revenue": """
            SELECT o.o_orderpriority,
                   CAST(count(*) AS BIGINT) AS n_items,
                   CAST(SUM(CAST(FLOOR(l.l_extendedprice * 100 + 0.5) AS BIGINT)) AS BIGINT)
                       AS revenue_c
            FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
            GROUP BY o.o_orderpriority
        """,
        "customers_no_orders": """
            SELECT c_mktsegment, CAST(count(*) AS BIGINT) AS n_customers
            FROM customer c
            WHERE NOT EXISTS (
                SELECT 1 FROM orders o
                WHERE o.o_custkey = c.c_custkey
                  AND o.o_orderpriority = '1-URGENT'
            )
            GROUP BY c_mktsegment
        """,
        # multimodal plumbing: the pipeline's OUTPUT (payload column
        # dropped, float stats projected away in the query) is pure
        # shape-metadata arithmetic — resize 32×32→8×8 (64 B), audio
        # passthrough (8000 B), video frame-sample 8→4 of 16×16 frames
        # (1024 B) — so the schema/metadata propagation through all
        # three stages is fully value-checkable in SQL
        "media_features": f"""
            WITH nsel AS (
                -- the media row count follows the scale factor the same
                -- way q_media_features keys it (docs-table size → n);
                -- reading the docs glob keeps this oracle valid when the
                -- test gate rewrites the path to another sf
                SELECT CASE COUNT(*) WHEN 500 THEN 60 WHEN 5000 THEN 300
                                     WHEN 50000 THEN 3000 ELSE 60 END AS n
                FROM read_parquet('{DOCS_GLOB}')
            ),
            m AS (
                SELECT r.range AS s,
                       CASE r.range % 3 WHEN 0 THEN 'image'
                                        WHEN 1 THEN 'audio'
                                        ELSE 'video' END AS media_type
                FROM range(3000) r, nsel WHERE r.range < nsel.n
            ),
            -- decoded-content sums: payload byte i = (s*31+i*7919+i*i)%256
            -- (media/stages._synth_payload); the surviving byte index per
            -- output position mirrors the NN-resize gather (images: every
            -- 4th pixel of every 4th row of the 32x32 source) and the
            -- stride-2 frame sample (videos: frames 0,2,4,6 of 8 x 256 B)
            msums AS (
                SELECT s,
                       CAST(SUM(v) AS BIGINT) AS sum_val,
                       CAST(SUM(v * v) AS BIGINT) AS sumsq_val
                FROM (
                    SELECT s, (s * 31 + i * 7919 + i * i) % 256 AS v
                    FROM (
                        SELECT m.s,
                               CASE m.media_type
                                    WHEN 'image' THEN (r.range // 8) * 128 + (r.range % 8) * 4
                                    WHEN 'audio' THEN r.range
                                    ELSE ((r.range // 256) * 2) * 256 + (r.range % 256)
                               END AS i
                        FROM m, range(8000) r
                        WHERE r.range < CASE m.media_type WHEN 'image' THEN 64
                                                          WHEN 'audio' THEN 8000
                                                          ELSE 1024 END
                    )
                ) GROUP BY s
            )
            SELECT 'media-' || m.s AS media_id, media_type,
                   CAST(CASE media_type WHEN 'image' THEN 8
                                        WHEN 'audio' THEN 1
                                        ELSE 16 END AS INTEGER) AS height,
                   CAST(CASE media_type WHEN 'image' THEN 8
                                        WHEN 'audio' THEN 8000
                                        ELSE 16 END AS INTEGER) AS width,
                   CAST(CASE media_type WHEN 'video' THEN 4
                                        ELSE 1 END AS INTEGER) AS n_frames,
                   CAST(CASE media_type WHEN 'audio' THEN 8000
                                        ELSE 0 END AS INTEGER) AS sample_rate,
                   CAST(CASE media_type WHEN 'image' THEN 64
                                        WHEN 'audio' THEN 8000
                                        ELSE 1024 END AS BIGINT) AS n_bytes,
                   msums.sum_val, msums.sumsq_val
            FROM m JOIN msums ON msums.s = m.s
        """,
        # REAL-codec decode (round 3): the payloads are actual PNG/WAV
        # containers, but the decoded samples are the same LCG bytes —
        # so this oracle is the pure byte formula, and a hash match
        # proves the real encode→decode round-trip.
        "media_decode_real": f"""
            WITH nsel AS (
                SELECT CASE COUNT(*) WHEN 500 THEN 60 WHEN 5000 THEN 300
                                     WHEN 50000 THEN 3000 ELSE 60 END AS n
                FROM read_parquet('{DOCS_GLOB}')
            ),
            m AS (
                SELECT r.range AS s,
                       CASE r.range % 2 WHEN 0 THEN 'image'
                                        ELSE 'audio' END AS media_type
                FROM range(3000) r, nsel WHERE r.range < nsel.n
            ),
            msums AS (
                SELECT s,
                       CAST(SUM(v) AS BIGINT) AS sum_val,
                       CAST(SUM(v * v) AS BIGINT) AS sumsq_val
                FROM (
                    SELECT m.s,
                           (m.s * 31 + r.range * 7919 + r.range * r.range)
                               % 256 AS v
                    FROM m, range(8000) r
                    WHERE r.range < CASE m.media_type WHEN 'image' THEN 1024
                                                      ELSE 8000 END
                ) GROUP BY s
            )
            SELECT 'media-' || m.s AS media_id, media_type,
                   CAST(CASE media_type WHEN 'image' THEN 32
                                        ELSE 1 END AS INTEGER) AS height,
                   CAST(CASE media_type WHEN 'image' THEN 32
                                        ELSE 8000 END AS INTEGER) AS width,
                   CAST(1 AS INTEGER) AS n_frames,
                   CAST(CASE media_type WHEN 'audio' THEN 8000
                                        ELSE 0 END AS INTEGER) AS sample_rate,
                   CAST(CASE media_type WHEN 'image' THEN 1024
                                        ELSE 8000 END AS BIGINT) AS n_bytes,
                   msums.sum_val, msums.sumsq_val
            FROM m JOIN msums ON msums.s = m.s
        """,
        # mergeable Bloom-filter semi-join (round 3): the exact bit set
        # from the same integer mixes, so the oracle pins the bloom
        # verdict INCLUDING false positives, next to the true count.
        "bloom_semijoin": """
            WITH keys AS MATERIALIZED (
                SELECT c_custkey AS k FROM customer WHERE c_acctbal < 0
            ),
            bits AS MATERIALIZED (
                SELECT DISTINCT
                       ((k * 2654435761 + j.range * 40503) % 1000003) % 65536 AS b
                FROM keys, range(1, 5) j
            ),
            probe AS (
                SELECT o_orderpriority,
                       CASE WHEN
                            ((o_custkey * 2654435761 + 1 * 40503) % 1000003) % 65536
                                IN (SELECT b FROM bits)
                        AND ((o_custkey * 2654435761 + 2 * 40503) % 1000003) % 65536
                                IN (SELECT b FROM bits)
                        AND ((o_custkey * 2654435761 + 3 * 40503) % 1000003) % 65536
                                IN (SELECT b FROM bits)
                        AND ((o_custkey * 2654435761 + 4 * 40503) % 1000003) % 65536
                                IN (SELECT b FROM bits)
                       THEN 1 ELSE 0 END AS pos,
                       CASE WHEN o_custkey IN (SELECT k FROM keys)
                            THEN 1 ELSE 0 END AS tru
                FROM orders
            )
            SELECT o_orderpriority,
                   CAST(count(*) AS BIGINT) AS n_orders,
                   CAST(SUM(pos) AS BIGINT) AS n_bloom_pos,
                   CAST(SUM(tru) AS BIGINT) AS n_true
            FROM probe GROUP BY o_orderpriority
        """,
        # bloom_pruned_join: the bloom prefilter is performance-only —
        # the exact hash_join drops every false positive, so the oracle
        # is the plain inner join with no sketch modeling at all.
        "bloom_pruned_join": """
            SELECT CAST(c_nationkey AS BIGINT) AS c_nationkey,
                   CAST(count(*) AS BIGINT) AS n_orders,
                   CAST(SUM(CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT))
                        AS BIGINT) AS sum_price_c
            FROM orders
            JOIN customer ON c_custkey = o_custkey
            WHERE c_acctbal < 0
            GROUP BY c_nationkey
        """,
        "knn_embeddings": _KNN_EMB_SQL,
    }
    # source-format-independence rows share the parquet-view oracle:
    # the engine reads CSV shards, the SQL reads the parquet view —
    # a hash match proves the alternate source preserves content
    out["csv_quality_filter"] = out["quality_filter"]
    return out


_KNN_TAIL = """
, pts AS (
    SELECT seed,
           CASE WHEN seed % 10 < 6 THEN
                (CASE seed % 3 WHEN 0 THEN -74.0 WHEN 1 THEN 2.35 ELSE 139.7 END)
                + ((seed * 31) % 2000 - 1000) / 1000.0
           ELSE ((seed * 9973) % 360000) / 1000.0 - 180.0 END AS lon,
           CASE WHEN seed % 10 < 6 THEN
                (CASE seed % 3 WHEN 0 THEN 40.7 WHEN 1 THEN 48.85 ELSE 35.7 END)
                + ((seed * 57) % 2000 - 1000) / 1000.0
           ELSE ((seed * 7919) % 170000) / 1000.0 - 85.0 END AS lat
    FROM media
),
q AS (
    SELECT * FROM (VALUES (0, -74.0, 40.7), (1, 2.35, 48.85), (2, 139.7, 35.7))
    t(query_id, qlon, qlat)
),
dists AS (
    SELECT q.query_id, p.seed,
           sqrt((p.lon - q.qlon) * (p.lon - q.qlon) + (p.lat - q.qlat) * (p.lat - q.qlat)) AS dist
    FROM pts p CROSS JOIN q
),
ranked AS (
    SELECT query_id, seed,
           CAST(ROW_NUMBER() OVER (PARTITION BY query_id ORDER BY dist, seed) AS BIGINT) AS rank
    FROM dists
)
SELECT CAST(query_id AS BIGINT) AS query_id, rank, seed FROM ranked WHERE rank <= 8
"""

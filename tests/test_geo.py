"""Geo-kernel tests: Hilbert cell-id round trips/hierarchy, PIP vs
brute-force oracle, kNN ring expansion vs exact all-pairs, rasterize ↔
vectorize round trip (FIXTURES.md §6)."""

import numpy as np
import pytest

from raycells.geo import cellid, knn, pip, raster


# ---- Hilbert curve ----

def test_hilbert_round_trip():
    rng = np.random.default_rng(42)
    for level in (1, 2, 5, 12, 30):
        n = 1 << level
        x = rng.integers(0, n, 200).astype(np.uint64)
        y = rng.integers(0, n, 200).astype(np.uint64)
        d = cellid.xy2d(level, x, y)
        x2, y2 = cellid.d2xy(level, d)
        assert np.array_equal(x, x2) and np.array_equal(y, y2)


def test_hilbert_level1_order():
    # canonical level-1 Hilbert: (0,0)=0, (0,1)=1, (1,1)=2, (1,0)=3
    x = np.array([0, 0, 1, 1], dtype=np.uint64)
    y = np.array([0, 1, 1, 0], dtype=np.uint64)
    assert list(cellid.xy2d(1, x, y)) == [0, 1, 2, 3]


def test_hilbert_locality():
    # consecutive d values are grid-adjacent (the whole point of Hilbert)
    level = 6
    d = np.arange(4**level, dtype=np.uint64)
    x, y = cellid.d2xy(level, d)
    dist = np.abs(np.diff(x.astype(np.int64))) + np.abs(np.diff(y.astype(np.int64)))
    assert dist.max() == 1


# ---- cell ids ----

def test_encode_level_round_trip():
    lon = np.array([-74.0, 2.35, 139.7, 0.0, -179.9, 179.9])
    lat = np.array([40.7, 48.85, 35.7, 0.0, -89.9, 89.9])
    for level in (0, 3, 12, 30):
        ids = cellid.encode(lon, lat, level)
        assert np.all(cellid.level_of(ids) == level)
        dlon, dlat, dlev = cellid.decode(ids)
        # decoded center within one cell of the input — BOTH axes
        if level:
            assert np.all(np.abs(dlon - lon) <= 360.0 / (1 << level))
            assert np.all(np.abs(dlat - lat) <= 180.0 / (1 << level))
        assert np.all(dlev == level)


def test_parent_child():
    ids = cellid.encode(np.array([-74.0]), np.array([40.7]), 12)
    p = cellid.parent(ids)
    assert cellid.level_of(p)[0] == 11
    # encoding at level 11 directly gives the same parent
    direct = cellid.encode(np.array([-74.0]), np.array([40.7]), 11)
    assert p[0] == direct[0]
    # children of parent include the original
    kids = cellid.children(int(p[0]))
    assert np.all(cellid.level_of(kids) == 12)
    assert int(ids[0]) in set(int(k) for k in kids)
    # parent is a prefix relation: containment via range
    assert cellid.parent(ids, 12 - 5)[0] == cellid.encode(np.array([-74.0]), np.array([40.7]), 5)[0]


def test_ring():
    c = cellid.encode(np.array([10.0]), np.array([20.0]), 8)[0]
    r0 = cellid.ring(int(c), 0, 8)
    assert list(r0) == [int(c)]
    r1 = cellid.ring(int(c), 1, 8)
    assert len(r1) == 8
    r2 = cellid.ring(int(c), 2, 8)
    assert len(r2) == 16
    # all ring-1 cells decode to adjacent grid coords
    x, y = cellid._xy_of(np.array([c], dtype=np.uint64), 8)
    rx, ry = cellid._xy_of(r1, 8)
    assert np.max(np.abs(rx.astype(int) - int(x[0]))) == 1
    assert np.max(np.abs(ry.astype(int) - int(y[0]))) == 1


def test_ring_wraps_longitude():
    # cell at the antimeridian: ring must wrap x, not fall off
    c = cellid.encode(np.array([-179.95]), np.array([0.0]), 8)[0]
    r1 = cellid.ring(int(c), 1, 8)
    assert len(r1) == 8


def test_grid_cell_sql_parity():
    lon = np.array([-74.0, 2.35])
    lat = np.array([40.7, 48.85])
    g = cellid.grid_cell(lon, lat)
    expect = np.floor((lat + 90) / 0.25).astype(int) * 1440 + np.floor(
        (lon + 180) / 0.25
    ).astype(int)
    assert np.array_equal(g, expect)


# ---- PIP ----

def test_pip_square():
    ring = np.array([[0, 0], [10, 0], [10, 10], [0, 10]])
    px = np.array([5.0, 15.0, -1.0, 9.99, 0.5])
    py = np.array([5.0, 5.0, 5.0, 9.99, 0.5])
    assert list(pip.points_in_polygon(px, py, ring)) == [True, False, False, True, True]


def test_pip_concave_vs_oracle():
    # concave "C" shape; oracle = matplotlib-free slow scalar ray cast
    ring = np.array([[0, 0], [10, 0], [10, 3], [3, 3], [3, 7], [10, 7], [10, 10], [0, 10]])
    rng = np.random.default_rng(7)
    px = rng.uniform(-2, 12, 500)
    py = rng.uniform(-2, 12, 500)

    def slow_pip(x, y):
        inside = False
        v = ring
        n = len(v)
        for i in range(n):
            x1, y1 = v[i]
            x2, y2 = v[(i + 1) % n]
            if (y1 > y) != (y2 > y):
                xi = x1 + (y - y1) / (y2 - y1) * (x2 - x1)
                if x < xi:
                    inside = not inside
        return inside

    got = pip.points_in_polygon(px, py, ring)
    expect = np.array([slow_pip(x, y) for x, y in zip(px, py)])
    assert np.array_equal(got, expect)


def test_pip_closed_ring_same_as_open():
    ring_open = np.array([[0, 0], [4, 0], [4, 4], [0, 4]])
    ring_closed = np.vstack([ring_open, ring_open[:1]])
    px, py = np.array([2.0]), np.array([2.0])
    assert pip.points_in_polygon(px, py, ring_open)[0]
    assert pip.points_in_polygon(px, py, ring_closed)[0]


def test_polygon_cell_cover_contains_centroid_cell():
    ring = np.array([[-74.5, 40.2], [-73.5, 40.2], [-73.5, 41.2], [-74.5, 41.2]])
    cover = pip.polygon_cell_cover(ring, 8)
    c = cellid.encode(np.array([-74.0]), np.array([40.7]), 8)[0]
    assert int(c) in set(int(v) for v in cover)


# ---- kNN ----

def test_knn_matches_brute_force():
    rng = np.random.default_rng(42)
    n = 2000
    # skewed: half clustered, half global (mirrors tile extents)
    lon = np.concatenate([rng.normal(-74, 0.5, n // 2), rng.uniform(-180, 180, n // 2)])
    lat = np.concatenate([rng.normal(40.7, 0.5, n // 2), rng.uniform(-85, 85, n // 2)])
    keys = np.arange(n)
    index = knn.KnnIndex(lon, lat, keys, level=7)
    qlon = np.array([-74.0, 0.0, 170.0, -73.8])
    qlat = np.array([40.7, 0.0, -60.0, 40.5])
    for k in (1, 3, 5):
        bf_idx, bf_d = knn.brute_force_knn(qlon, qlat, lon, lat, k)
        got_idx, got_d = index.query(qlon, qlat, k)
        for q in range(len(qlon)):
            assert list(got_idx[q]) == list(bf_idx[q]), (q, k)
            np.testing.assert_allclose(got_d[q], bf_d[q], rtol=1e-12)


def test_knn_fewer_points_than_k():
    lon, lat = np.array([1.0, 2.0]), np.array([1.0, 2.0])
    index = knn.KnnIndex(lon, lat, np.arange(2), level=5)
    idx, d = index.query_one(0.0, 0.0, 5)
    assert len(idx) == 2


# ---- rasterize / vectorize ----

def test_rasterize_square():
    ring = np.array([[2.0, 2.0], [6.0, 2.0], [6.0, 6.0], [2.0, 6.0]])
    m = raster.rasterize(ring, (0, 0, 8, 8), (8, 8))
    assert m.sum() == 16  # cell centers 2.5..5.5 in both axes
    assert m[2:6, 2:6].all()


def test_connected_components():
    m = np.zeros((6, 6), dtype=bool)
    m[0:2, 0:2] = True
    m[4:6, 4:6] = True
    m[0, 5] = True
    labels, n = connected = raster.connected_components(m)
    assert n == 3
    assert labels[0, 0] == labels[1, 1]
    assert labels[4, 4] == labels[5, 5]
    # all three components carry DISTINCT labels (a chained != would
    # skip the first-vs-third comparison)
    assert len({labels[0, 0], labels[4, 4], labels[0, 5]}) == 3


def test_vectorize_rasterize_round_trip():
    vals = np.zeros((10, 10), dtype=np.uint8)
    vals[2:5, 3:8] = 7
    vals[6:9, 1:3] = 9
    regions = raster.vectorize(vals)
    by_val = {r["value"]: r for r in regions if r["value"] != 0}
    assert by_val[7]["cell_count"] == 15
    assert by_val[9]["cell_count"] == 6
    # round trip: rasterizing each region's ring over the same grid
    # reproduces the region mask exactly
    for v, r in by_val.items():
        ring = r["ring"].astype(np.float64)  # cell-edge coords == grid coords
        m = raster.rasterize(ring, (0, 0, 10, 10), (10, 10))
        assert np.array_equal(m, vals == v), v


def test_vectorize_respects_mask():
    vals = np.ones((4, 4), dtype=np.uint8)
    mask = np.zeros((4, 4), dtype=bool)
    mask[0:2, 0:2] = True
    regions = raster.vectorize(vals, mask)
    assert len(regions) == 1
    assert regions[0]["cell_count"] == 4


def test_vectorize_saddle_hole_terminates():
    """A region whose hole touches the outside diagonally (a saddle
    vertex carries TWO outgoing boundary edges) must trace to a closed,
    even-odd-consistent pinched ring — a single-edge-per-vertex chain
    walk cross-linked the cycles and never terminated (regression)."""
    from raycells.geo.pip import points_in_polygon

    for m in (
        np.array([[1, 1, 1], [1, 0, 1], [0, 1, 1]], bool),  # NW/SE saddle
        np.array([[0, 1, 1], [1, 0, 1], [1, 1, 1]], bool),  # NE/SW saddle
        np.array(
            [[1, 1, 1, 1], [1, 0, 1, 0], [0, 1, 1, 1], [1, 1, 1, 1]], bool
        ),  # two pinched holes
    ):
        regions = raster.vectorize(np.ones(m.shape), mask=m)
        assert len(regions) == 1
        ring = regions[0]["ring"].astype(np.float64)
        assert tuple(ring[0]) == tuple(ring[-1])  # closed
        ys, xs = np.nonzero(m)
        assert points_in_polygon(xs + 0.5, ys + 0.5, ring).all()
        hy, hx = np.nonzero(~m)
        assert not points_in_polygon(hx + 0.5, hy + 0.5, ring).any()


def test_sharded_knn_matches_brute_force(ray_session):
    """The distributed sharded kNN (geo/knn.sharded_knn) must be EXACT:
    per-shard local top-k + ring-bounded probe expansion returns the
    same (seed, rank) rows as all-pairs brute force, including a sparse
    far-south query that forces multi-round ring expansion."""
    import pyarrow as pa
    import ray.data as rd

    rng = np.random.default_rng(7)
    n = 3000
    lon = np.concatenate([rng.normal(-74, 0.5, n // 2), rng.uniform(-180, 180, n // 2)])
    lat = np.concatenate([rng.normal(40.7, 0.5, n // 2), rng.uniform(-85, 85, n // 2)])
    seeds = rng.permutation(n).astype(np.int64)  # seeds ≠ positions
    pts = rd.from_arrow(
        pa.table({"seed": seeds, "lon": lon, "lat": lat})
    ).repartition(4)
    queries = ((0, -74.0, 40.7), (1, 0.0, 0.0), (2, 175.0, -84.0))
    k = 6
    got = knn.sharded_knn(pts, queries, k, parent_level=3).to_pandas()
    qlon = np.array([q[1] for q in queries])
    qlat = np.array([q[2] for q in queries])
    # brute-force oracle with the same tie rule (dist, then seed)
    for qi, (qid, _, _) in enumerate(queries):
        d = knn.euclid_deg(qlon[qi], qlat[qi], lon, lat)
        want = seeds[np.lexsort((seeds, d))[:k]]
        have = got[got["query_id"] == qid].sort_values("rank")["seed"].to_numpy()
        assert list(have) == list(want), qid


def test_sharded_knn_breaks_ties_across_blocks_by_seed(ray_session):
    """Equal-distance points (dyadic offsets, so the distances are
    bit-equal) with different seeds sit in different blocks, and k cuts
    through each tie group: the merged per-block top-k must keep the
    lowest seeds, as brute force over seed-ordered points does. Query 0
    closes out in one probe round (ties 0.56° away); query 1's nearest
    points are 30° and 35.8° away, past the first round's 22.5° bound,
    so it takes several rounds."""
    import pyarrow as pa
    import ray.data as rd

    queries = ((0, 100.25, 10.25), (1, -100.0, 0.0))
    ring8 = [(sx * a, sy * b) for a, b in ((0.5, 0.25), (0.25, 0.5))
             for sx in (1, -1) for sy in (1, -1)]
    lon, lat = [], []
    for (_, qx, qy), scale, near in zip(queries, (1, 64), (0.125, 30.0)):
        lon += [qx + near] + [qx + dx * scale for dx, _ in ring8]
        lat += [qy] + [qy + dy * scale for _, dy in ring8]
    rng = np.random.default_rng(3)
    lon = np.array(lon + list(rng.uniform(-20, 20, 40)))
    lat = np.array(lat + list(rng.uniform(-80, -60, 40)))
    seeds = rng.permutation(lon.size).astype(np.int64) * 7 + 1
    by_seed = np.argsort(seeds)
    lon, lat, seeds = lon[by_seed], lat[by_seed], seeds[by_seed]
    pos = rng.permutation(lon.size)  # the blocks interleave the tie groups
    tab = pa.table({"seed": seeds[pos], "lon": lon[pos], "lat": lat[pos]})
    pts = rd.from_arrow([tab.slice(i, 9) for i in range(0, tab.num_rows, 9)])
    k = 4
    got = knn.sharded_knn(pts, queries, k, parent_level=3).to_pandas()
    for qid, qx, qy in queries:
        # seed-ordered points: brute force's index tiebreak is the seed's
        idx, d = knn.brute_force_knn(np.array([qx]), np.array([qy]), lon, lat, k)
        assert d[0][-1] == d[0][-2]  # k cuts through the tie group
        have = got[got["query_id"] == qid].sort_values("rank")["seed"].to_numpy()
        assert list(have) == list(seeds[idx[0]]), qid


# ---- cube-face projection backend ----

def test_cube_encode_round_trip_and_faces():
    """encode_cube→decode_cube center stays inside the source cell; all
    6 faces appear; parent/children mechanics work unchanged on cube ids
    (same trailing-bit layout)."""
    rng = np.random.default_rng(11)
    lon = rng.uniform(-180, 180, 500)
    lat = rng.uniform(-89.9, 89.9, 500)
    level = 10
    ids = cellid.encode_cube(lon, lat, level)
    faces = np.unique(ids >> np.uint64(61))
    assert len(faces) == 6
    clon, clat, lev = cellid.decode_cube(ids)
    assert (lev == level).all()
    # re-encoding the center must give the same cell
    again = cellid.encode_cube(clon, clat, level)
    assert np.array_equal(again, ids)
    # parent mechanics: parent of a child id contains the child position
    pid = cellid.parent(ids)
    assert (cellid.level_of(pid & ((np.uint64(1) << np.uint64(61)) - np.uint64(1))) == level - 1).all()


def test_cube_projection_bounds_polar_distortion():
    """The point of the face projection: near-pole cells keep bounded
    ground area. Compare the ground area spread (max/min over a lat
    sweep) of equirect vs cube cells at one level — equirect blows up
    near the pole; cube stays within a small constant."""
    level = 8
    lats = np.linspace(0.0, 89.0, 90)
    lons = np.full_like(lats, 13.0)

    def area_spread(encoder, decoder):
        # approximate a cell's ground area by the cos(lat)-weighted size
        # of its (lon, lat) bounding box via its 4 child centers
        ids = encoder(lons, lats, level)
        areas = []
        for cid in ids:
            ch = cellid.children(int(cid))
            clon, clat, _ = decoder(ch)
            dlon = (clon.max() - clon.min()) * 2
            dlat = (clat.max() - clat.min()) * 2
            areas.append(dlon * dlat * np.cos(np.radians(clat.mean())))
        areas = np.asarray(areas)
        return areas.max() / areas.min()

    eq = area_spread(cellid.encode, lambda c: cellid.decode(np.asarray(c, np.uint64)))
    cu = area_spread(cellid.encode_cube, cellid.decode_cube)
    assert eq > 10  # equirect: pole cells shrink with cos(lat)
    assert cu < 4  # cube + quadratic ST: bounded spread


def test_encode_with_projection_dispatch():
    lon = np.array([10.0]); lat = np.array([45.0])
    assert cellid.encode_with_projection(lon, lat, 8)[0] == cellid.encode(lon, lat, 8)[0]
    assert (
        cellid.encode_with_projection(lon, lat, 8, "cube")[0]
        == cellid.encode_cube(lon, lat, 8)[0]
    )
    import pytest as _pytest

    with _pytest.raises(ValueError):
        cellid.encode_with_projection(lon, lat, 8, "icosahedron")


def test_knn_index_tiebreak_by_key_not_position():
    """Equidistant candidates must rank by the caller's KEY (the oracle
    is ORDER BY dist, seed) — not by array position, which only agrees
    when keys happen to be sorted (regression)."""
    from raycells.geo.knn import KnnIndex

    lon = np.array([1.0, -1.0, 5.0])
    lat = np.array([0.0, 0.0, 0.0])
    keys = np.array([10, 3, 99])  # NOT position-ordered
    index = KnnIndex(lon, lat, keys, level=3)
    idx, d = index.query_one(0.0, 0.0, k=1)
    assert keys[idx[0]] == 3  # both at dist 1.0 → lowest seed wins
    idx2, _ = index.query_one(0.0, 0.0, k=2)
    assert keys[idx2].tolist() == [3, 10]


def test_grid_cell_matches_sql_formula_at_domain_edges():
    """grid_cell must equal the unclipped SQL formula everywhere,
    INCLUDING lon=180 / lat=90 (regression: a one-sided gx clip diverged
    from the oracle at the antimeridian)."""
    import math

    lon = np.array([-180.0, 179.999, 180.0, 0.0, -0.25])
    lat = np.array([-90.0, 89.999, 90.0, 0.0, -0.125])
    got = cellid.grid_cell(lon, lat)
    want = [
        int(math.floor((la + 90.0) / 0.25) * 1440 + math.floor((lo + 180.0) / 0.25))
        for lo, la in zip(lon, lat)
    ]
    assert got.tolist() == want

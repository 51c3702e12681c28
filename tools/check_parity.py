"""Local replica of the driver's correctness gate: run queries()[name]
and oracle_sql()[name] at sf0.01, compare rows/schema/value-hash, and
report each query's wall time (the query plus its collect, in this
process: a query reusing an earlier query's materialized data is timed
as it runs in the gate order). One untimed warm-up runs first, so the
first query's wall time holds no one-time Ray Data start-up.

    python tools/check_parity.py [name ...]   # default: every registered query
    python tools/check_parity.py --json OUT.json [name ...]
                                 # also write a gate-style JSON artifact
"""

import sys, os, hashlib, time
import ray
if not ray.is_initialized():
    # the node's CPU count comes from the host: a fixed count larger
    # than the machine over-subscribes it
    ray.init(address="local", include_dashboard=False, log_to_driver=False)
sys.path.insert(0, __import__("os").path.dirname(__import__("os").path.dirname(__import__("os").path.abspath(__file__))))
import duckdb, pandas as pd, pyarrow as pa
import __ray_entry__ as e

argv = sys.argv[1:]
json_out = None
if "--json" in argv:
    i = argv.index("--json")
    json_out = argv[i + 1]
    argv = argv[:i] + argv[i + 2 :]
names = argv or None
q, osql = e.queries(), e.oracle_sql()
sfd = "/root/testdata/sf0.01"
con = duckdb.connect()
for t in ["region","nation","customer","supplier","part","orders","lineitem","events","documents","embeddings"]:
    con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sfd}/{t}.parquet')")

def norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)

def vhash(df: pd.DataFrame) -> str:
    h = hashlib.sha256()
    for c in df.columns:
        h.update(c.encode())
        vals = df[c]
        h.update(pd.util.hash_pandas_object(vals, index=False).values.tobytes())
    return h.hexdigest()

def warm_up():
    """A small read, map and bucket exchange, untimed: Ray Data's
    one-time costs (worker start, imports, the first plan) land here
    instead of in the first timed query."""
    from raycells.engine import shuffle
    ds = ray.data.read_parquet(f"{sfd}/region.parquet").map_batches(
        lambda b: b, batch_format="pyarrow")
    shuffle.bucket_reduce(ds, "r_regionkey", lambda g: g).to_pandas()

warm_up()
results = {}
for name in (names or q.keys()):
    if name not in osql:
        print(f"{name}: NO ORACLE"); continue
    try:
        t0 = time.perf_counter()
        out = q[name](sfd)
        if hasattr(out, "to_pandas") and not isinstance(out, (pa.Table,)):
            rdf = out.to_pandas()
        elif isinstance(out, pa.Table):
            rdf = out.to_pandas()
        else:
            rdf = out
        wall_s = round(time.perf_counter() - t0, 3)
        odf = con.execute(osql[name]).fetchdf()
        r, o = norm(rdf), norm(odf)
        rows = len(r) == len(o)
        schema = list(r.columns) == list(o.columns) and all(str(r[c].dtype)==str(o[c].dtype) for c in r.columns)
        hmatch = rows and schema and vhash(r) == vhash(o)
        results[name] = {"rows_match": rows, "schema_match": schema,
                         "hash_match": hmatch, "n_ray": len(r), "n_oracle": len(o),
                         "wall_s": wall_s}
        print(f"{name}: rows={rows}({len(r)}/{len(o)}) schema={schema} hash={hmatch} wall_s={wall_s}")
        if not hmatch and rows and len(r) < 20:
            print(" ray:", r.head(8).to_dict("records"))
            print(" ora:", o.head(8).to_dict("records"))
        elif not schema:
            print(" ray cols:", [(c, str(r[c].dtype)) for c in r.columns])
            print(" ora cols:", [(c, str(o[c].dtype)) for c in o.columns])
        elif not hmatch and rows:
            neq = (r != o) & ~(r.isna() & o.isna())
            bad = neq.any(axis=1)
            print(" first diffs:", r[bad].head(3).to_dict("records"), "vs", o[bad].head(3).to_dict("records"))
    except Exception as ex:
        results[name] = {"error": f"{type(ex).__name__}: {ex}"}
        print(f"{name}: ERROR {type(ex).__name__}: {ex}")
if json_out:
    import json
    n_pass = sum(1 for v in results.values() if v.get("hash_match"))
    payload = {"sf": 0.01, "sf_dir": sfd, "n_queries": len(results),
               "n_hash_green": n_pass,
               "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
               "queries": results}
    with open(json_out, "w") as f:
        json.dump(payload, f, indent=1, sort_keys=True)
    print(f"wrote {json_out}: {n_pass}/{len(results)} hash-green")
ray.shutdown()

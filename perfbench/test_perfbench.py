"""Self-tests of the benchmark (tiny inputs).

    python3 -m pytest perfbench/test_perfbench.py -q

Runs ``run.py`` with its command-line contract, from a directory other than the
repository root, and checks the result line; and checks that a job whose
output is corrupted counts as failed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, ROOT]

WORKLOADS = ["flagship", "neardup", "fragment_sink"]
TIMED_WORKLOADS = ["flagship", "neardup"]  # listed in BENCHMARK.json
END_TO_END = {
    "wall_s": "s", "docs_per_s": "docs/s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
}
PER_LAYER = [
    "io.read_media.wall_s", "io.read_media.rows_out", "io.read_media.bytes_out",
    "io.explode.wall_s", "io.explode.rows_out",
    "engine.decode_stats.wall_s", "engine.decode_stats.cpu_s", "engine.decode_stats.rows_out",
    "io.tilestore.tiles_per_s", "io.tilestore.gbps", "cells.kernels.min_max_gbps",
    "geo.cellid.encode_mcells_per_s", "mem.memcpy_gbps",
    "engine.shuffle.merge.wall_s", "engine.shuffle.merge.wait_s",
    "engine.shuffle.merge.rows_in", "engine.shuffle.merge.bytes_in",
    "engine.shuffle.merge.buckets", "engine.shuffle.merge.bucket_rows_max",
    "engine.shuffle.merge.bucket_rows_median", "engine.shuffle.merge.rows_out",
    "engine.shuffle.fixed_s.blocks8", "engine.shuffle.fixed_s.blocks64",
    "driver.rows_collected",
    "text.dedup.signatures.docs_per_s", "text.dedup.lsh.candidate_pairs",
    "text.dedup.minhash.pairs_out", "text.dedup.minhash.useful_ratio",
    "text.dedup.minhash.recall", "text.dedup.minhash.wall_s",
    "engine.joins.hash_join.wall_s", "engine.joins.hash_join.wait_s",
    "engine.joins.hash_join.rows_in", "engine.joins.hash_join.rows_out",
    "engine.checkpoint.fragment.wall_s", "engine.checkpoint.fragments",
    "engine.driver.process_fragment.pipeline_s", "engine.checkpoint.resume_s",
    "io.lineage.wall_s", "io.sink.bytes_out", "io.sink.files_out",
    "trace.overhead_s", "trace.flagship_stage_share", "trace.flagship_decode_share",
    "trace.neardup_signature_share", "trace.fragment_sink_decode_share",
]


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _run(workload: str, trace: int, tmp_path) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_names_every_metric():
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == TIMED_WORKLOADS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace, tmp_path):
    out = _run(workload, trace, tmp_path)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    wanted = _spec()["per_layer" if trace else "end_to_end"]
    assert list(out["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(out["metrics"][n]["value"] > 0 for n in END_TO_END)


def test_corrupted_output_counts_as_failed():
    import time

    import run
    from workloads import Flagship

    wl = Flagship(os.path.join(run.WORK, "selftest"), 5, "tiny", 1)
    wl.generate()
    wl.prepare_reference()
    run.start_ray(1)
    try:
        runner = run.Runner(time.perf_counter())
        good = runner.job(wl)
        assert good["ok"] and runner.failed == 0

        class DropOneRow:
            name = wl.name

            def job(self):
                return wl.job().iloc[1:]

            def check(self, res):
                return wl.check(res)

            def cleanup(self, res):
                pass

        bad = runner.job(DropOneRow())
        assert bad is not None and not bad["ok"]
        assert (runner.attempted, runner.failed) == (2, 1)
    finally:
        run.stop_ray()
        shutil.rmtree(wl.work_dir, ignore_errors=True)

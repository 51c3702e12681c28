"""bench.py's stdout contract: the last line is a short JSON headline
that a reader keeping only the tail of stdout can parse; every query's
timing goes to the detail file instead."""

import json
import sys

import bench


def _full_result() -> dict:
    """A default-mode result shaped as ``run_all`` builds it: a timing
    for the flagship and every registered query, and the embedded
    scaling block."""
    import __ray_entry__ as entry

    timings = {"flagship": 1.234, **{name: 123.456 for name in entry.queries()}}
    return {
        "metric": "flagship e2e sec (erased-cell decode + stats + cell-id + salted agg)",
        "value": 1.234,
        "unit": "sec",
        "queries": timings,
        "sf": 0.1,
        "num_cpus": 32,
        "tiles": 822_000,
        "tiles_per_sec": 666_126.4,
        "scaling": {
            "efficiency": 1.052, "samples": [1.052, 0.981],
            "tiles_per_sec_lo": 123_456.7, "tiles_per_sec_hi": 519_876.5,
            "cpus_lo": 8, "cpus_hi": 32, "n_docs": 600_000, "tiles": 822_000,
        },
    }


def test_bench_headline_is_the_short_last_line(tmp_path, monkeypatch, capsys):
    import ray

    full = _full_result()
    detail = tmp_path / "detail.json"
    monkeypatch.setattr(bench, "run_all", lambda sf_dir, num_cpus: full)
    monkeypatch.setattr(bench, "DETAIL_PATH", str(detail))
    monkeypatch.setattr(ray, "shutdown", lambda: None)  # keep any live session
    monkeypatch.setattr(sys, "argv", ["bench.py"])
    bench.main()
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert len(last.encode()) < 1024
    head = json.loads(last)
    assert head == {**{k: full[k] for k in bench.HEADLINE_KEYS}, "detail": str(detail)}
    assert len(json.dumps(full)) > 1024  # the full result would not fit
    assert json.loads(detail.read_text()) == full

"""In-memory spans around the benchmark's calls into each layer.

A span records name, start, end, parent span and job id; counts measured
at the same boundary ride on it. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._open: list = []

    @contextmanager
    def span(self, name: str, job: str):
        sp = {
            "id": len(self.spans),
            "name": name,
            "job": job,
            "parent": self._open[-1]["id"] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(sp)
        self._open.append(sp)
        try:
            yield sp["counts"]
        finally:
            sp["end"] = time.perf_counter()
            self._open.pop()

    def wall(self, name: str, job: str) -> float:
        """Duration of the last span called ``name`` in ``job``."""
        sp = next(s for s in reversed(self.spans) if s["name"] == name and s["job"] == job)
        return sp["end"] - sp["start"]

    def metrics(self, job: str) -> dict:
        """``<span>.wall_s`` and ``<span>.<count>`` for every span of ``job``."""
        out = {}
        for sp in self.spans:
            if sp["job"] == job:
                out[f"{sp['name']}.wall_s"] = sp["end"] - sp["start"]
                out.update({f"{sp['name']}.{k}": v for k, v in sp["counts"].items()})
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.spans, f)

"""Spans recorded by the benchmark around its calls into dummyreg.

A span has a name (``<module>.<function>``), start and end times, the
span that encloses it and the job it belongs to. Spans stay in memory
until the run writes them out. ``NullTracer`` runs the same job code
with no recording, for the untraced timings.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from contextlib import contextmanager, nullcontext


class NullTracer:
    def span(self, name: str, job: int, alloc: bool = False):
        return nullcontext({})


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, job: int, alloc: bool = False):
        """Record one span; yields a dict for counts made inside it.

        With ``alloc`` the span's peak traced allocation is recorded too.
        tracemalloc runs only inside such spans, so it slows no other layer.
        """
        rec = {"id": len(self.spans), "name": name, "job": job,
               "parent": self._open[-1] if self._open else None,
               "start": None, "end": None, "counts": {}, "error": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        if alloc:
            tracemalloc.start()
        rec["start"] = time.perf_counter()
        try:
            yield rec["counts"]
        except Exception as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = time.perf_counter()
            if alloc:
                rec["counts"]["peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
                tracemalloc.stop()
            self._open.pop()


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def per_job(spans: list[dict]) -> dict[int, dict]:
    """For each job: summed self time and merged counts per span name."""
    selfs = self_times(spans)
    jobs: dict[int, dict] = {}
    for s in spans:
        job = jobs.setdefault(s["job"], {"self": {}, "counts": {}, "errors": {}})
        job["self"][s["name"]] = job["self"].get(s["name"], 0.0) + selfs[s["id"]]
        for key, value in s["counts"].items():
            job["counts"][f"{s['name']}.{key}"] = value
        if s["error"]:
            layer = s["name"].split(".")[0]
            job["errors"][layer] = job["errors"].get(layer, 0) + 1
    return jobs


def median_over_jobs(jobs: dict[int, dict], pick) -> float | None:
    """Median of ``pick(job)`` over the jobs where it is not None."""
    values = [v for v in map(pick, jobs.values()) if v is not None]
    return statistics.median(values) if values else None


def layer_self(job: dict, prefix: str) -> float | None:
    """Self time of every span whose name starts with ``prefix``, or None."""
    hits = [t for name, t in job["self"].items() if name.startswith(prefix)]
    return sum(hits) if hits else None

"""Workload-independent parts of the benchmark: statistics, spans, environment.

Nothing here imports bwspinor, so the orchestrating process stays light and
the statistics can be tested without running a workload.
"""

from __future__ import annotations

import functools
import os
import platform
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path

TAIL_BEYOND = 10   # a tail percentile needs this many jobs beyond it


def tail_percentile(values, beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """The highest nearest-rank percentile with `beyond` values above it.

    Returns (percentile, value).  With N values the answer is the value of
    rank N - beyond, which is the 100 (N - beyond) / N percentile.
    """
    ordered = sorted(values)
    rank = len(ordered) - beyond
    if rank < 1:
        raise ValueError(f"need more than {beyond} values for a tail, got {len(ordered)}")
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def run_jobs(workload, cases, seconds: float, min_jobs: int, tracer=None) -> list[dict]:
    """Closed loop: one client runs jobs back to back until `seconds` have
    passed and at least `min_jobs` ran.  Job j runs input set j % len(cases);
    with a tracer every second job is traced.  Only `workload.job` is timed;
    its outputs are checked after the clock stops."""
    records = []
    deadline = time.perf_counter() + seconds
    while len(records) < min_jobs or time.perf_counter() < deadline:
        j = len(records)
        case = cases[j % len(cases)]
        traced = tracer is not None and j % 2 == 1
        out = None
        with tracer.installed(j) if traced else nullcontext():
            start = time.perf_counter()
            try:
                out = workload.job(case)
            except Exception:   # a job that raises is counted as failed
                failures = [traceback.format_exc(limit=3)]
            elapsed = time.perf_counter() - start
        if out is not None:
            try:
                failures = workload.check(case, out)
            except Exception:   # so is output the check cannot read
                failures = [traceback.format_exc(limit=3)]
        for failure in failures:
            print(f"job {j}: {failure}", file=sys.stderr)
        records.append({"job": j, "seconds": elapsed, "traced": traced,
                        "failures": failures,
                        **(workload.counters(out) if out is not None else {})})
    return records


def end_to_end(records: list[dict], samples_per_job: int) -> tuple[dict, float]:
    """Untimed-by-tracing job statistics: ({metric: value}, tail percentile)."""
    times = [r["seconds"] for r in records if not r["traced"]]
    percentile, tail = tail_percentile(times)
    return {"job_s.p50": statistics.median(times), "job_s.tail": tail,
            "samples_per_s": samples_per_job * len(times) / sum(times)}, percentile


def load_program(root: Path):
    """Import bwspinor from the checkout's own `src`, never from site-packages."""
    src = (root / "src").resolve()
    if not (src / "bwspinor" / "__init__.py").is_file():
        raise FileNotFoundError(f"no bwspinor sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import bwspinor
    if Path(bwspinor.__file__).resolve().parent != src / "bwspinor":
        raise ImportError(f"bwspinor was imported from {bwspinor.__file__}, not {src}")
    return bwspinor


def environment(seed: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")
                if blas.get(k) is not None}
    except (AttributeError, KeyError, TypeError, ValueError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "seed": seed,
    }


class Tracer:
    """Spans recorded in memory around the program's public functions.

    A span is a dict with the job it belongs to, its name, start and end
    (perf_counter seconds), the index of its parent span and any attributes
    the wrapper attached.  `patch` swaps a function for a span-recording
    wrapper wherever a caller looks the name up; `installed` applies and
    reverts all patches, so untraced jobs run the program unmodified.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.job = None
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    def wrap(self, name, fn, before=None, after=None):
        """A span-recording wrapper.  `before(args, kwargs)` returns
        (name, attrs) and runs before the span starts; `after(args, kwargs,
        result)` returns attrs and runs after it ends."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label, attrs = before(args, kwargs) if before else (name, {})
            span = {"job": tracer.job, "name": label,
                    "parent": tracer._open[-1] if tracer._open else None, **attrs}
            tracer._open.append(len(tracer.spans))
            tracer.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                tracer._open.pop()
            if after:
                span.update(after(args, kwargs, result))
            return result

        return traced

    def patch(self, target, attr: str, wrapper) -> None:
        """Queue `target.attr = wrapper` (`target[attr]` for a dict)."""
        original = target[attr] if isinstance(target, dict) else getattr(target, attr)
        self._patches.append((target, attr, original, wrapper))

    @staticmethod
    def _set(target, attr, value) -> None:
        if isinstance(target, dict):
            target[attr] = value
        else:
            setattr(target, attr, value)

    @contextmanager
    def installed(self, job):
        self.job = job
        for target, attr, _, wrapper in self._patches:
            self._set(target, attr, wrapper)
        try:
            yield self
        finally:
            for target, attr, original, _ in reversed(self._patches):
                self._set(target, attr, original)
            self.job = None


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the time its direct children cover.

    The program runs single-threaded (the benchmark clears BWSPINOR_THREADS),
    so children of one span never overlap and their durations add.
    """
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def median_or_zero(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0

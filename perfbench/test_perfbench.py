"""Tests of the benchmark's own code, at sizes small enough to run in seconds.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402

PROGRAM = harness.load_program(HERE.parent)

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def small(name: str, workdir: Path):
    return {"grid-norm": lambda: workloads.GridNorm(n=2, points=3),
            "cli-roundtrip": lambda: workloads.CliRoundtrip(workdir, n=2, points=3),
            "verify-sweep": lambda: workloads.VerifySweep(trials=40)}[name]()


def run_small(name: str, workdir: Path, jobs: int = 2, tracer=None) -> list[dict]:
    wl = small(name, workdir)
    try:
        return harness.run_jobs(wl, wl.prepare(wl.inputs(5)), 0.0, jobs, tracer)
    finally:
        wl.close()


def test_tail_is_the_highest_percentile_with_ten_jobs_beyond():
    assert harness.tail_percentile(range(1, 41)) == (75.0, 30)
    assert harness.tail_percentile(range(1, 21)) == (50.0, 10)
    assert harness.tail_percentile(list(range(11, 0, -1))) == (100.0 / 11, 1)
    with pytest.raises(ValueError):
        harness.tail_percentile(range(10))


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_same_seed_gives_identical_inputs(name, tmp_path):
    wl = small(name, tmp_path)
    first, again, other = wl.inputs(3), wl.inputs(3), wl.inputs(4)

    def flat(cases):
        return [np.asarray(v) for case in cases for v in case.values()]

    assert all(np.array_equal(a, b) for a, b in zip(flat(first), flat(again)))
    assert not all(np.array_equal(a, b) for a, b in zip(flat(first), flat(other)))


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_jobs_pass_their_checks(name, tmp_path):
    records = run_small(name, tmp_path)
    assert [r["failures"] for r in records] == [[], []]


@pytest.mark.parametrize("name", ["grid-norm", "cli-roundtrip"])
def test_corrupted_reference_counts_as_failed(name, tmp_path, monkeypatch):
    true_norm = workloads.reference_norm
    monkeypatch.setattr(workloads, "reference_norm",
                        lambda *a: true_norm(*a) * (1 + 1e-6))
    records = run_small(name, tmp_path)
    assert sum(1 for r in records if r["failures"]) / len(records) > 0


def test_nan_residual_counts_as_failed():
    wl = workloads.VerifySweep(trials=40)
    out = {suite: {"identity": 0.0} for suite in workloads.SUITE_NAMES}
    assert wl.check({}, out) == []
    out["pl"]["identity"] = math.nan
    assert wl.check({}, out) == ["pl.identity = nan"]


def test_traced_jobs_record_spans_and_restore_the_program(tmp_path):
    from bwspinor import cli, fileio, verify
    originals = (cli.write_field_file, fileio.write_field_file, dict(verify.SUITES))
    tracer = harness.Tracer()
    layers.instrument(tracer, PROGRAM)
    records = run_small("cli-roundtrip", tmp_path, jobs=4, tracer=tracer)
    assert (cli.write_field_file, fileio.write_field_file, dict(verify.SUITES)) == originals
    assert [r["traced"] for r in records] == [False, True, False, True]
    assert {s["job"] for s in tracer.spans} == {1, 3}
    metrics = layers.per_layer_metrics(tracer.spans, records, "cli-roundtrip")
    assert set(metrics) == {name for name, _ in layers.PER_LAYER}
    assert metrics["fileio.write_field_file.calls"][0] == 1
    assert metrics["fileio.read_field_file.calls"][0] == 2
    assert metrics["bw.norm_integrand.distinct.calls"][0] == 1
    assert metrics["fileio.bytes_written"][0] > 0
    assert 0 < metrics["dominant_layer.share"][0] <= 1


def test_self_time_excludes_children():
    spans = [{"start": 0.0, "end": 10.0, "parent": None},
             {"start": 1.0, "end": 4.0, "parent": 0},
             {"start": 5.0, "end": 6.0, "parent": 0},
             {"start": 2.0, "end": 3.0, "parent": 1}]
    assert harness.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_benchmark_json_names_what_the_run_reports():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {(m["name"], m["unit"]) for m in doc["end_to_end"]} == set(run.END_TO_END.items())
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(layers.PER_LAYER)

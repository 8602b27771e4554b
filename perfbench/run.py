"""bwspinor benchmark: closed-loop workloads with checked outputs.

    python3 perfbench/run.py --workload grid-norm --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

One client in one process runs jobs back to back for --seconds.  With
--trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a run in which
every second job is traced.  `--workload all` runs the three workloads in
turn and ends with one JSON object keyed by workload.

This process only orchestrates; the work runs in worker processes of this
same script.  With --trace 0 it starts SETUPS workers in turn on the same
seed.  Each sets up (imports, input generation, one untimed warm-up job) and
reports when it was ready, which gives SETUPS set-up times; the last one then
runs the timed loop.  Run records go to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORDS = ROOT / ".perfbench"
SETUPS = 3
RUN_BUDGET_S = 175
WORKLOADS = ("grid-norm", "cli-roundtrip", "verify-sweep")
END_TO_END = {"job_s.p50": "s", "job_s.tail": "s", "samples_per_s": "1/s",
              "setup_s": "s", "peak_rss_mb": "MiB"}


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)   # comparable across processes


def worker(args) -> dict:
    """Set up, then (unless --setup-only) run the timed loop; returns the record."""
    import harness
    program = harness.load_program(ROOT)
    import layers
    import workloads

    workload = workloads.make(args.workload, RECORDS / f"tmp-{os.getpid()}")
    try:
        cases = workload.prepare(workload.inputs(args.seed))
        workload.job(cases[0])   # warm-up; its outputs are checked in the timed jobs
        ready_at = _now()
        if args.setup_only:
            return {"ready_at": ready_at}
        tracer = None
        if args.trace:
            tracer = harness.Tracer()
            layers.instrument(tracer, program)
        records = harness.run_jobs(workload, cases, args.seconds,
                                   min_jobs=harness.TAIL_BEYOND + 1, tracer=tracer)
    finally:
        workload.close()
    result = {"ready_at": ready_at, "environment": harness.environment(args.seed),
              "records": records}
    if args.trace:
        result["metrics"] = layers.per_layer_metrics(tracer.spans, records, args.workload)
        RECORDS.mkdir(exist_ok=True)
        spans_file = RECORDS / f"spans-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps(tracer.spans))
    else:
        metrics, result["tail_percentile"] = harness.end_to_end(
            records, workload.samples_per_job)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["metrics"] = {k: (v, END_TO_END[k]) for k, v in metrics.items()}
    return result


def _spawn(args, workload: str, setup_only: bool, deadline: float) -> tuple[dict, float]:
    """Run one worker; returns its record and its set-up time."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--worker",
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        argv.append("--setup-only")
    env = {k: v for k, v in os.environ.items() if k != "BWSPINOR_THREADS"}
    spawned_at = _now()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - _now()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited with code {proc.returncode}")
    record = json.loads(stdout.decode().strip().splitlines()[-1])
    return record, record["ready_at"] - spawned_at


def measure(args, workload: str) -> dict:
    deadline = _now() + RUN_BUDGET_S
    setups = []
    for i in range(1 if args.trace else SETUPS):
        record, setup = _spawn(args, workload, setup_only=i < SETUPS - 1 and not args.trace,
                               deadline=deadline)
        setups.append(setup)
    metrics = record["metrics"]
    if not args.trace:
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics = {k: metrics[k] for k in END_TO_END}
    records = record["records"]
    failed = sum(1 for r in records if r["failures"])
    summary = {"workload": workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "environment": record["environment"],
               "jobs": len(records), "failed": failed, "failed_ratio": failed / len(records),
               "tail_percentile": record.get("tail_percentile"),
               "setup_samples_s": setups, "metrics": metrics, "records": records}
    RECORDS.mkdir(exist_ok=True)
    (RECORDS / f"{workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=1))
    _print_table(summary)
    return {"correct": failed == 0, "attempted": len(records), "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def _print_table(summary: dict) -> None:
    env = summary["environment"]
    jobs = summary["jobs"]
    print(f"== {summary['workload']}  seed {summary['seed']}  {jobs} jobs in "
          f"{summary['seconds']} s  (closed loop, 1 client)  trace {summary['trace']}")
    print(f"   nproc {env['nproc']}  cpu {env['cpu']}  python {env['python']}  "
          f"numpy {env['numpy']}  blas {json.dumps(env['blas'])}")
    idle = [name for name, (value, _) in summary["metrics"].items()
            if value == 0 and summary["trace"]]
    for name, (value, unit) in summary["metrics"].items():
        if name in idle:
            continue
        note = ""
        if name == "job_s.tail":
            note = f"(p{summary['tail_percentile']:.0f} of {jobs} jobs)"
        elif name == "setup_s":
            note = f"(median of {len(summary['setup_samples_s'])})"
        print(f"   {name:38s} {value:14.6g} {unit:6s} {note}")
    if idle:
        print(f"   0 on this workload: {', '.join(idle)}")
    print(f"   {'failed_ratio':38s} {summary['failed'] / jobs:14.6g} {'ratio':6s} "
          f"({summary['failed']}/{jobs})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    if args.worker:
        print(json.dumps(worker(args)))
        return 0
    if not (ROOT / "src" / "bwspinor" / "__init__.py").is_file():
        print(f"error: no bwspinor sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            results = {w: measure(args, w) for w in WORKLOADS}
            correct = all(r["correct"] for r in results.values())
        else:
            results = measure(args, args.workload)
            correct = results["correct"]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

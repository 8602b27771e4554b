"""Where the traced run records spans, and the per-layer metrics built from them.

Spans wrap the public functions of the layers `cli`, `fileio`, `frames`, `bw`,
`quadrature` and `verify` at every place bwspinor looks the name up (the
module globals of each importer, the GaussianPacket class, verify.SUITES), so
no file of the program changes.  `verify`'s suites stand in for `core`,
`pauli_lubanski`, `dirac` and `maxwell`.
"""

from __future__ import annotations

import os
import sys
from collections import defaultdict

import numpy as np

from harness import median_or_zero, self_times

SPAN_NAMES = (
    "fileio.write_amplitude_file", "fileio.read_amplitude_file",
    "fileio.write_field_file", "fileio.read_field_file",
    "cli.packet", "cli.synth", "cli.extract", "cli.norm",
    "bw.synth_massive", "bw.extract_massive",
    "bw.norm_integrand.equal", "bw.norm_integrand.form_p",
    "bw.norm_integrand.distinct", "bw.standard_bw_integrand",
    "frames.frame_massive",
    "quadrature.build_grid", "quadrature.amplitudes",
    "quadrature.evaluate_norm", "quadrature.pairwise_sum",
    "verify.suite_core", "verify.suite_pl", "verify.suite_bw",
    "verify.suite_dirac", "verify.suite_maxwell",
)

# (name, unit) of every metric the traced run reports, in report order
PER_LAYER = (
    [(f"{name}.{kind}", unit) for name in SPAN_NAMES
     for kind, unit in (("s", "s"), ("calls", "count"))]
    + [("fileio.bytes_written", "bytes"), ("fileio.bytes_read", "bytes"),
       ("bw.samples", "count"), ("frames.frame_massive.samples", "count"),
       ("quadrature.evaluate_norm.chunks", "count"),
       ("verify.worst_residual", "1"),
       ("trace.overhead_s", "s"), ("dominant_layer.share", "ratio")]
)

# the layer each workload is built to load; its share of traced job time
DOMINANT = {
    "grid-norm": ("bw.",),
    "cli-roundtrip": ("fileio.",),
    "verify-sweep": ("verify.suite_pl", "verify.suite_bw"),
}


def _arg(args, kwargs, index: int, key: str, default=None):
    return args[index] if len(args) > index else kwargs.get(key, default)


def _batch(p) -> int:
    return int(np.prod(np.shape(p)[:-1]))


def instrument(tracer, program) -> None:
    """Queue a span wrapper for every traced function at each of its lookups."""
    from bwspinor import bw, cli, fileio, frames, quadrature, verify
    modules = [m for name, m in sys.modules.items()
               if name == program.__name__ or name.startswith(program.__name__ + ".")]

    def everywhere(home, attr, name, before=None, after=None):
        fn = getattr(home, attr)
        wrapper = tracer.wrap(name, fn, before, after)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    tracer.patch(module, key, wrapper)

    def sized(name, index, key, momenta=lambda x: x.p):
        return lambda a, k: (name, {"samples": _batch(momenta(_arg(a, k, index, key)))})

    def distinct(spec) -> bool:
        if isinstance(spec, bw.RandomTimelike):
            return True
        if isinstance(spec, bw.FixedList):
            spec = np.asarray(spec.vectors, dtype=float)
        return isinstance(spec, np.ndarray) and not np.all(spec == spec[0])

    def norm_kind(a, k):
        kind = ("form_p" if _arg(a, k, 3, "form", "t") == "p"
                else "distinct" if distinct(_arg(a, k, 1, "spec")) else "equal")
        return sized(f"bw.norm_integrand.{kind}", 0, "psi")(a, k)

    for attr in ("write_amplitude_file", "write_field_file"):
        everywhere(fileio, attr, f"fileio.{attr}",
                   after=lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 0, "path"))})
    for attr in ("read_amplitude_file", "read_field_file"):
        everywhere(fileio, attr, f"fileio.{attr}",
                   before=lambda a, k, name=f"fileio.{attr}":
                   (name, {"bytes": os.path.getsize(_arg(a, k, 0, "path"))}))
    for command in ("packet", "synth", "extract", "norm"):
        everywhere(cli, f"cmd_{command}", f"cli.{command}")
    everywhere(bw, "norm_integrand", None, before=norm_kind)
    everywhere(bw, "synth_massive", None, before=sized("bw.synth_massive", 0, "frame"))
    everywhere(bw, "extract_massive", None, before=sized("bw.extract_massive", 0, "psi"))
    everywhere(bw, "standard_bw_integrand", None,
               before=sized("bw.standard_bw_integrand", 0, "psi"))
    everywhere(frames, "frame_massive", None,
               before=sized("frames.frame_massive", 0, "p", momenta=lambda p: p))
    for attr in ("build_grid", "evaluate_norm", "pairwise_sum"):
        everywhere(quadrature, attr, f"quadrature.{attr}")
    packet = quadrature.GaussianPacket
    tracer.patch(packet, "amplitudes", tracer.wrap("quadrature.amplitudes", packet.amplitudes))
    # one component() call per evaluate_norm chunk; counted, not reported
    tracer.patch(packet, "component", tracer.wrap("quadrature.component", packet.component))
    for suite, fn in list(verify.SUITES.items()):
        tracer.patch(verify.SUITES, suite, tracer.wrap(f"verify.suite_{suite}", fn))


def per_layer_metrics(spans, records, workload: str) -> dict[str, tuple[float, str]]:
    """Median per traced job of each span's self time, calls and counts."""
    traced = {r["job"]: r["seconds"] for r in records if r["traced"]}
    untraced = [r["seconds"] for r in records if not r["traced"]]
    own = self_times(spans)
    per_job = {job: defaultdict(float) for job in traced}
    group = DOMINANT[workload]
    for i, s in enumerate(spans):
        job = per_job[s["job"]]
        name = s["name"]
        job[f"{name}.s"] += own[i]
        job[f"{name}.calls"] += 1
        if name.startswith("bw."):
            job["bw.samples"] += s["samples"]
        if name == "frames.frame_massive":
            job["frames.frame_massive.samples"] += s["samples"]
        if name.startswith("fileio."):
            job["fileio.bytes_written" if ".write_" in name else "fileio.bytes_read"] += s["bytes"]
        parent = spans[s["parent"]] if s["parent"] is not None else None
        if name == "quadrature.component" and parent and parent["name"] == "quadrature.evaluate_norm":
            job["quadrature.evaluate_norm.chunks"] += 1
        if name.startswith(group) and not _has_ancestor_in(spans, s, group):
            job["dominant_layer.share"] += (s["end"] - s["start"]) / traced[s["job"]]
    metrics = {}
    for name, unit in PER_LAYER:
        metrics[name] = (median_or_zero(job[name] for job in per_job.values()), unit)
    worst = [r["verify.worst_residual"] for r in records if "verify.worst_residual" in r]
    metrics["verify.worst_residual"] = (max(worst) if worst else 0.0, "1")
    metrics["trace.overhead_s"] = (median_or_zero(traced.values()) - median_or_zero(untraced), "s")
    return metrics


def _has_ancestor_in(spans, span, group) -> bool:
    while span["parent"] is not None:
        span = spans[span["parent"]]
        if span["name"].startswith(group):
            return True
    return False

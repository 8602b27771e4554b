"""The three benchmark workloads and their output checks.

Each workload turns a seed into a small pool of input sets, runs one job on
an input set, and checks the job's outputs.  The checks are computed here in
plain NumPy from the seeded packet parameters, never by calling bwspinor, so
a defect in the program cannot certify itself.

bwspinor is reached only through module attributes (`quadrature.evaluate_norm`,
`cli.main`, ...) looked up at call time, so the spans that `layers.instrument`
patches in are seen by every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import shutil
from pathlib import Path

import numpy as np
from bwspinor import bw, cli, frames, quadrature, verify

NORM_TOL = 1e-10        # relative, every norm against the reference
SPREAD_TOL = 1e-10      # relative spread across direction families
ROUNDTRIP_TOL = 1e-12   # `extract` output against the packet, as the README states
# The in-memory round trip at n = 8 loses more digits (up to 2e-11 when this
# benchmark was written), so grid-norm holds it to the verify gate's tolerance.
DENSE_ROUNDTRIP_TOL = 1e-10
RESIDUAL_TOL = 1e-10    # every verify residual
POOL = 4                # input sets per seed; job j runs set j % POOL
SUITE_NAMES = ("core", "pl", "bw", "dirac", "maxwell")


def shell_grid(mass: float, half_width: float, points: int):
    """Midpoint rule on [-L, L]^3 for d^3p / (2 p^0): momenta (S, 4), weights (S,)."""
    h = 2.0 * half_width / points
    axis = -half_width + h * (np.arange(points) + 0.5)
    pvec = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    p0 = np.sqrt(mass ** 2 + np.sum(pvec ** 2, axis=-1))
    return np.column_stack([p0, pvec]), h ** 3 / (2.0 * p0)


def packet_amplitudes(p, coeffs, center, sigma: float) -> np.ndarray:
    """Gaussian packet f_k(p) = c_k exp(-|pvec - center|^2 / (4 sigma^2)), shape (S, n+1)."""
    d2 = np.sum((np.asarray(p)[:, 1:] - np.asarray(center)) ** 2, axis=-1)
    return np.asarray(coeffs, dtype=complex)[None, :] * np.exp(-d2 / (4.0 * sigma ** 2))[:, None]


def reference_norm(p, weights, coeffs, center, sigma: float) -> float:
    """sum_samples w * sum_k C(n,k) |f_k|^2, the value every generalized norm must take."""
    n = len(coeffs) - 1
    mult = np.array([math.comb(n, k) for k in range(n + 1)], dtype=float)
    f = packet_amplitudes(p, coeffs, center, sigma)
    return float(np.sum(weights * (np.abs(f) ** 2 @ mult)))


def _relative(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


def norm_failures(norms: dict, standard: float, ref: float, n: int) -> list[str]:
    """Checks shared by grid-norm and cli-roundtrip: each norm against the
    reference, their spread, and the 2^{-n/2} ratio to the standard norm."""
    out = [f"norm[{k}] = {v!r}, reference {ref!r}" for k, v in norms.items()
           if not _relative(v, ref) <= NORM_TOL]
    values = list(norms.values())
    spread = max(abs(v - values[0]) for v in values) / max(1.0, abs(values[0]))
    if not spread <= SPREAD_TOL:
        out.append(f"direction spread {spread:.3e}")
    ratio, want = values[0] / standard, 2.0 ** (-n / 2.0)
    if not _relative(ratio, want) <= NORM_TOL:
        out.append(f"standard-bw ratio {ratio!r}, want {want!r}")
    return out


def roundtrip_failures(extracted, p, coeffs, center, sigma: float,
                       tol: float = ROUNDTRIP_TOL) -> list[str]:
    want = packet_amplitudes(p, coeffs, center, sigma)
    extracted = np.asarray(extracted)
    if extracted.shape != want.shape:
        return [f"extracted amplitudes have shape {extracted.shape}, want {want.shape}"]
    err = float(np.max(np.abs(extracted - want))) / max(1.0, float(np.max(np.abs(want))))
    return [] if err <= tol else [f"extract round trip off by {err:.3e}"]


def _complex(rng, size: int) -> np.ndarray:
    return rng.normal(size=size) + 1j * rng.normal(size=size)


class Workload:
    """One kind of job: `inputs(seed)` makes the input sets, `prepare` hands
    them to the program (set-up, untimed), `job` is the timed call and
    `check` returns the list of failed output checks."""

    samples_per_job: int

    def prepare(self, inputs: list[dict]) -> list[dict]:
        return inputs

    def counters(self, out) -> dict:
        """Per-job numbers for the traced run, taken from the outputs."""
        return {}

    def close(self) -> None:
        pass


class GridNorm(Workload):
    """In-memory norm quadrature of a Gaussian packet at doubled spin n."""

    mass, half_width, sigma = 1.0, 3.0, 0.8

    def __init__(self, n: int = 8, points: int = 8):
        self.n, self.points = n, points
        self.samples_per_job = points ** 3

    def inputs(self, seed: int) -> list[dict]:
        rng = np.random.default_rng(seed)
        return [{"coeffs": _complex(rng, self.n + 1), "nu": _complex(rng, 2)}
                for _ in range(POOL)]

    def prepare(self, inputs: list[dict]) -> list[dict]:
        self.grid = quadrature.build_grid(self.mass, self.half_width, self.points)
        return [dict(case, packet=quadrature.GaussianPacket(
            n=self.n, mass=self.mass, sign=+1, coeffs=tuple(case["coeffs"]),
            sigma=self.sigma, nu=tuple(case["nu"]))) for case in inputs]

    def job(self, case: dict) -> dict:
        packet, grid = case["packet"], self.grid
        norms = {
            "standard": quadrature.evaluate_norm(packet, grid, bw.StandardTime()),
            "null-omega": quadrature.evaluate_norm(packet, grid, bw.NullOmega()),
        }
        standard = quadrature.evaluate_norm(packet, grid, standard=True)
        fr = frames.frame_massive(grid.p, case["nu"])
        amps = bw.Amplitudes(n=self.n, mass=self.mass, sign=+1, f=packet.amplitudes(grid.p))
        psi = bw.synth_massive(fr, amps)
        return {"norms": norms, "standard": standard, "p": grid.p,
                "extracted": bw.extract_massive(psi, fr).f,
                "form_p": bw.norm_integrand(psi, None, fr, form="p")}

    def check(self, case: dict, out: dict) -> list[str]:
        coeffs, center = case["coeffs"], np.zeros(3)
        p_ref, w_ref = shell_grid(self.mass, self.half_width, self.points)
        ref = reference_norm(p_ref, w_ref, coeffs, center, self.sigma)
        p = np.asarray(out["p"])
        # the form="p" integrand is per sample of the program's grid, so it is
        # weighted here with the midpoint weight recomputed from that p^0
        h = 2.0 * self.half_width / self.points
        norms = dict(out["norms"], form_p=float(np.sum(out["form_p"] * h ** 3 / (2.0 * p[:, 0]))))
        return (norm_failures(norms, out["standard"], ref, self.n)
                + roundtrip_failures(out["extracted"], p, coeffs, center, self.sigma,
                                     DENSE_ROUNDTRIP_TOL))


_NORM_LINE = re.compile(r"^norm\[(.+)\] = (\S+)$", re.M)
_STANDARD_LINE = re.compile(r"^standard-bw norm = (\S+)$", re.M)


class CliRoundtrip(Workload):
    """The README pipeline packet -> synth -> extract -> norm through cli.main."""

    mass, half_width, sigma = 1.0, 3.0, 0.8   # the packet command's defaults

    def __init__(self, workdir: Path, n: int = 4, points: int = 10):
        self.workdir, self.n, self.points = Path(workdir), n, points
        self.samples_per_job = points ** 3
        self.paths = {k: str(self.workdir / f"{k}.json") for k in ("amp", "field", "amp2")}

    def inputs(self, seed: int) -> list[dict]:
        rng = np.random.default_rng(seed)
        return [{"coeffs": _complex(rng, self.n + 1),
                 "center": rng.uniform(-0.5, 0.5, size=3),
                 "direction_seed": int(rng.integers(0, 2 ** 31))}
                for _ in range(POOL)]

    def prepare(self, inputs: list[dict]) -> list[dict]:
        self.workdir.mkdir(parents=True, exist_ok=True)
        return inputs

    def commands(self, case: dict) -> list[list[str]]:
        amp, field, amp2 = self.paths["amp"], self.paths["field"], self.paths["amp2"]
        coeffs = ",".join(repr(complex(c)) for c in case["coeffs"])
        center = ",".join(repr(float(x)) for x in case["center"])
        return [
            ["packet", "--n", str(self.n), "--mass", repr(self.mass), "--points",
             str(self.points), f"--coeffs={coeffs}", f"--center={center}", "--out", amp],
            ["synth", "--in", amp, "--out", field],
            ["extract", "--in", field, "--out", amp2],
            ["norm", "--in", field, "--t", "standard", "--t", "null-omega",
             "--t", f"random:{case['direction_seed']}", "--standard-bw"],
        ]

    def job(self, case: dict) -> dict:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            codes = [cli.main(argv) for argv in self.commands(case)]
        return {"codes": codes, "stdout": stdout.getvalue()}

    def check(self, case: dict, out: dict) -> list[str]:
        if out["codes"] != [0, 0, 0, 0]:
            return [f"exit codes {out['codes']}"]
        norms = {k: float(v) for k, v in _NORM_LINE.findall(out["stdout"])}
        standard = _STANDARD_LINE.search(out["stdout"])
        if len(norms) != 3 or standard is None:
            return [f"unexpected norm output {out['stdout']!r}"]
        p_ref, w_ref = shell_grid(self.mass, self.half_width, self.points)
        ref = reference_norm(p_ref, w_ref, case["coeffs"], case["center"], self.sigma)
        with open(self.paths["amp2"]) as fh:
            samples = json.load(fh)["samples"]
        p = np.array([s["p"] for s in samples], dtype=float)
        f = np.array([[complex(*z) for z in s["f"]] for s in samples])
        return (norm_failures(norms, float(standard.group(1)), ref, self.n)
                + roundtrip_failures(f, p, case["coeffs"], case["center"], self.sigma))

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


class VerifySweep(Workload):
    """All five identity suites at the README's trial count."""

    def __init__(self, trials: int = 10_000):
        self.trials = trials
        self.samples_per_job = trials * len(SUITE_NAMES)

    def inputs(self, seed: int) -> list[dict]:
        rng = np.random.default_rng(seed)
        return [{"seed": int(rng.integers(0, 2 ** 31))} for _ in range(POOL)]

    def job(self, case: dict) -> dict:
        return verify.run_suites(list(SUITE_NAMES), self.trials, case["seed"])

    def check(self, case: dict, out: dict) -> list[str]:
        # every residual must be finite: max() and `<` let a NaN through
        if sorted(out) != sorted(SUITE_NAMES) or not all(out.values()):
            return [f"suites reported: {sorted(out)}"]
        return [f"{suite}.{name} = {value!r}" for suite, rep in out.items()
                for name, value in rep.items()
                if not (math.isfinite(value) and value < RESIDUAL_TOL)]

    def counters(self, out: dict) -> dict:
        return {"verify.worst_residual": max(v for rep in out.values() for v in rep.values())}


def make(name: str, workdir: Path) -> Workload:
    """The workload `name` at its benchmark size; cli-roundtrip writes in `workdir`."""
    if name == "grid-norm":
        return GridNorm()
    if name == "cli-roundtrip":
        return CliRoundtrip(workdir)
    if name == "verify-sweep":
        return VerifySweep()
    raise ValueError(f"unknown workload {name!r}")

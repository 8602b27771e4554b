"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one line per criterion.
A criterion that checks an identity of `verify`'s table calls its entry,
with the criterion's own seed, sample count and gate.
"""

import dataclasses
import os
import subprocess
import sys

import numpy as np

from bwspinor import bw, cli, core, maxwell, quadrature, verify
from bwspinor.bw import (Amplitudes, NullOmega, RandomTimelike, StandardTime,
                         contract_T, extract, extract_massive,
                         norm_integrand, standard_bw_integrand, synth_massive,
                         synth_massless, transform_component)
from bwspinor.frames import frame_massive, frame_massless
from bwspinor.pauli_lubanski import default_normalization
from bwspinor.quadrature import GaussianPacket, build_grid, evaluate_norm
from oracles import contract_T_bruteforce, extract_bruteforce, standard_sum_bruteforce

TRIALS = 10_000


def report(num: int, description: str, residual: float, tol: float) -> None:
    status = "PASS" if residual < tol else "FAIL"
    print(f"criterion {num:2d} [{status}] {description}: "
          f"residual {residual:.3e} < {tol:g}")
    assert residual < tol, f"criterion {num} failed: {residual:.3e} >= {tol:g}"


def entry(run, seed: int, size: int, ns=(None,), calls: int = 1,
          until: str | None = None) -> dict[str, float]:
    """Each name's largest residual over `calls` runs of a table entry at
    every n in ns, all drawn from one generator; each run stops after the
    name `until`, if given."""
    rng = np.random.default_rng(seed)
    found: dict[str, list] = {}
    for _ in range(calls):
        for n in ns:
            for name, residual in run(rng, n, size):
                found.setdefault(name, []).append(float(np.max(residual)))
                if name == until:
                    break
    return {name: float(np.max(values)) for name, values in found.items()}


def largest(found: dict[str, float], *prefixes: str) -> float:
    """The largest residual among the names that start with one of prefixes,
    or among all names (NaN propagates)."""
    values = [v for name, v in found.items() if not prefixes or name.startswith(prefixes)]
    assert values, f"no residual named {prefixes}"
    return float(np.max(values))


def test_criterion_01_generator_identities():
    found = entry(verify.spinor_tables, 1, 0)
    report(1, "generator identities and dual relations (exact enumeration)",
           largest(found), 1e-13)


def test_criterion_02_trace_reversal():
    found = entry(verify.momentum_dyads, 2, TRIALS, until="trace_reversal_null")
    report(2, f"trace reversal on {TRIALS} massive and {TRIALS} null momenta",
           largest(found, "trace_reversal_"), 1e-12)


def test_criterion_03_eigenvalues():
    found = entry(verify.pauli_lubanski, 3, TRIALS, until="omega_direction_eigenvalue")
    report(3, "closed-form vs matrix eigenvalues (timelike/null/spacelike t)",
           largest(found, "eigenvalues_"), 1e-11)
    # the entry reads half - t.p/2 and half - m/(2 sqrt2); twice that is
    # 2 half - t.p and 2 half - m/sqrt2 exactly, the gate's residual
    report(3, "null-direction eigenvalue = t.p and omega-direction = m/sqrt2",
           2 * largest(found, "null_direction_eigenvalue", "omega_direction_eigenvalue"),
           1e-12)


def test_criterion_04_projector_algebra():
    found = entry(verify.pauli_lubanski, 4, TRIALS, until="explicit_frame_matrices")
    report(4, f"projector algebra over {TRIALS} trials",
           largest(found, "completeness", "idempotence", "orthogonality",
                   "energy_spin_commutation", "explicit_frame_matrices"), 1e-11)


def test_criterion_05_chi_basis_and_dirac():
    chi = entry(verify.pauli_lubanski, 5, TRIALS, until="chi_eigenvectors")
    sol = entry(verify.dirac_solutions, 5, TRIALS)
    report(5, "chi eigenvectors, Dirac residual, extraction relations",
           max(largest(chi, "chi_eigenvectors"),
               largest(sol, "dirac_equation_", "extraction_")), 1e-12)


def test_criterion_06_field_equations():
    found = entry(verify.massive_family, 6, 10, ns=(1, 2, 3, 4, 6, 8))
    report(6, "field equations of synthesized components, n in {1,2,3,4,6,8}",
           largest(found, "field_equations_"), 1e-11)


def test_criterion_07_direction_independence():
    massive = entry(verify.massive_family, 7, TRIALS, ns=(1, 2))
    massless = entry(verify.massless_family, 7, TRIALS, ns=(1, 2))
    report(7, f"norm integrand direction independence ({TRIALS} samples, "
              f"massive and massless, n = 1, 2)",
           max(largest(massive, "t_independence_"),
               largest(massless, "massless_t_independence_")), 1e-10)


def test_criterion_08_member_amplitude_sum():
    found = entry(verify.massive_family, 8, 2000, ns=(1, 2, 3))
    report(8, "null-direction integrand = sum over the 2^n component fields "
              "|f|^2 (mixed amplitudes, cross terms cancel)",
           largest(found, "member_amplitude_sum_"), 1e-11)


def test_criterion_09_standard_norm_ratio():
    worst = 0.0
    for n in (1, 2, 3):
        packet = GaussianPacket(n=n, mass=1.0, sign=+1,
                                coeffs=tuple(1.0 + 0.2 * k for k in range(n + 1)),
                                center=(0.1, -0.2, 0.3), sigma=0.7)
        grid = build_grid(1.0, 3.0, 12)
        gen = evaluate_norm(packet, grid, StandardTime())
        std = evaluate_norm(packet, grid, standard=True)
        worst = max(worst, abs(gen / std - 2.0 ** (-n / 2)))
    report(9, "generalized vs standard norm ratio 2^{-n/2}, n = 1, 2, 3",
           worst, 1e-9)


def test_criterion_10_lorentz_scalarity():
    # the massive field takes a new field and map on each of the 100 calls;
    # no entry moves a massless field, so that half stays here
    n_maps, batch = 100, 40
    massive = entry(verify.scalarity, 10, batch, ns=(2,), calls=n_maps)
    rng = np.random.default_rng(10)
    p0 = core.random_future_momentum(0.0, rng, size=batch)
    fr0 = frame_massless(p0)
    f0 = rng.normal(size=batch) + 1j * rng.normal(size=batch)
    psi0 = synth_massless(fr0.pi, f0, 2)
    base0 = norm_integrand(psi0, StandardTime())
    worst = largest(massive, "scalarity_pointwise")
    for a in core.random_sl2c(rng, size=n_maps):
        after0 = norm_integrand(transform_component(psi0, a), StandardTime())
        worst = max(worst, float(np.max(np.abs(after0 - base0)
                                        / np.maximum(1.0, base0))))
    report(10, f"pointwise integrand scalarity for {n_maps} SL(2,C) maps",
           worst, 1e-10)


def test_criterion_11_round_trips():
    # round-trip conditioning grows like the boost factor to the n-th power,
    # so n = 8 needs momenta of moderate rapidity to sit at the 1e-12 floor;
    # the table's families draw scale-1 momenta, so this stays here
    rng = np.random.default_rng(11)
    worst = 0.0
    for n in (1, 2, 3, 4, 5, 6, 7, 8):
        p = core.random_future_momentum(1.0, rng, size=8, scale=0.5)
        fr = frame_massive(p, core.random_spinor(rng, size=8))
        f = rng.normal(size=(8, n + 1)) + 1j * rng.normal(size=(8, n + 1))
        psi = synth_massive(fr, Amplitudes(n, 1.0, +1, f))
        worst = max(worst, float(np.max(np.abs(extract_massive(psi, fr).f - f))))
        p0 = core.random_future_momentum(0.0, rng, size=8, scale=0.5)
        fr0 = frame_massless(p0)
        f0 = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi0 = synth_massless(fr0.pi, f0, n)
        worst = max(worst, float(np.max(np.abs(
            extract(psi0, fr0).f[..., 0] - f0))))
    report(11, "extract(synth) identity, massive and massless n <= 8",
           worst, 1e-12)
    found = entry(verify.massless_family, 11, 8, ns=(1, 2, 3, 5))
    report(11, "potential route equals amplitude route (massless)",
           largest(found, "hertz_route_"), 1e-12)
    report(11, "helicity eigenrelation residual", largest(found, "helicity_"), 1e-11)


def test_criterion_12_gamma_algebra_and_current():
    report(12, "full Clifford table, commutator generators, gamma5 forms",
           largest(entry(verify.gamma_tables, 12, 0)), 1e-14)
    found = entry(verify.dirac_solutions, 12, TRIALS)
    report(12, f"current causality on {TRIALS} random solutions",
           largest(found, "current_"), 1e-12)


def test_criterion_13_maxwell():
    # the entry reads T_00 relative to the sample's largest entry; this
    # gate holds it absolute, so that check stays here
    size = 2000
    rng = np.random.default_rng(13)
    phi = rng.normal(size=(size, 2, 2)) + 1j * rng.normal(size=(size, 2, 2))
    phi = 0.5 * (phi + np.swapaxes(phi, -1, -2))
    rep = maxwell.stress_tensor(phi, maxwell.field_strength_from_phi(phi))
    worst = max(largest(entry(verify.field_strength, 13, size), "stress_routes"),
                float(np.max(np.abs(rep["spinor"][..., 0, 0] - rep["t00_eb"]))))
    report(13, "stress-tensor routes and T_00 energy density", worst, 1e-12)
    f = np.zeros((4, 4))
    f[1, 0], f[0, 1] = 1.0, -1.0
    f[1, 2], f[2, 1] = -1.0, 1.0
    unit = maxwell.stress_tensor(maxwell.em_spinor(f), f)
    report(13, "|E| = |B| = 1 plane pair gives T_00 = 1/2",
           float(abs(unit["spinor"][0, 0] - 0.5)), 1e-14)
    report(13, "two-direction Maxwell integrand equals the n = 2 component route",
           largest(entry(verify.null_potential, 13, size), "gk_matches_bw_n2"), 1e-12)


def test_criterion_14_bruteforce_oracle():
    rng = np.random.default_rng(14)
    worst = 0.0
    for n in (1, 2, 3, 4):
        p = core.random_future_momentum(1.0, rng)
        fr = frame_massive(p, core.random_spinor(rng))
        f = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        psi = synth_massive(fr, Amplitudes(n, 1.0, +1, f))
        # the oracles read members in standard coordinates
        std_psi = dataclasses.replace(psi, comps=bw.to_standard(psi))
        ts = [core.random_timelike(rng) for _ in range(n)]
        got = float(contract_T(psi, np.stack(ts)))
        want = contract_T_bruteforce(std_psi, ts)
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
        got_eq = float(contract_T(psi, np.broadcast_to(ts[0], (n, 4))))
        want_eq = contract_T_bruteforce(std_psi, [ts[0]] * n)
        worst = max(worst, abs(got_eq - want_eq) / max(1.0, abs(want_eq)))
        back = extract_bruteforce(std_psi, fr, complex(default_normalization(fr)))
        worst = max(worst, float(np.max(np.abs(back - f))))
        std = standard_sum_bruteforce(std_psi) / p[0] ** n
        worst = max(worst, abs(float(standard_bw_integrand(psi)) - std)
                    / max(1.0, std))
    report(14, "symmetric-storage contractions vs dense brute-force oracle, "
               "n <= 4", worst, 1e-12)


def test_criterion_15_thread_determinism(tmp_path):
    # the BLAS thread count is fixed when numpy loads, so each count runs in
    # its own process
    amp, field = tmp_path / "amp.json", tmp_path / "field.json"
    assert cli.main(["packet", "--n", "3", "--mass", "1.0", "--out", str(amp),
                     "--points", "10", "--half-width", "3.0"]) == 0
    assert cli.main(["synth", "--in", str(amp), "--out", str(field)]) == 0
    outputs = []
    for workers in ("1", "2", "8"):
        env = dict(os.environ, **{name: workers for name in
                                  ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS")})
        result = subprocess.run(
            [sys.executable, "-m", "bwspinor.cli", "norm", "--in", str(field),
             "--t", "null-omega", "--t", "standard", "--standard-bw"],
            check=True, env=env, capture_output=True)
        outputs.append(result.stdout)
    identical = bool(outputs[0]) and outputs[0] == outputs[1] == outputs[2]
    report(15, "norm output bit-identical across 1, 2, 8 BLAS threads",
           0.0 if identical else 1.0, 0.5)


def test_criterion_15_block_determinism(tmp_path, monkeypatch, capsys):
    # a value may not depend on how the samples are split: neither on the
    # blocks of the bw kernels (_STATE_BYTES) nor on the chunks of
    # evaluate_norm (_CHUNK); 4096 bytes is 8 samples a block for the slot
    # action at n = 3 and 2 for the distinct-direction states
    amp, field = tmp_path / "amp.json", tmp_path / "field.json"
    assert cli.main(["packet", "--n", "3", "--mass", "1.0", "--out", str(amp),
                     "--points", "10", "--half-width", "3.0"]) == 0
    assert cli.main(["synth", "--in", str(amp), "--out", str(field)]) == 0
    packet = GaussianPacket(n=3, mass=1.0, sign=+1, coeffs=(1.0, 0.5j, -0.25, 0.1),
                            sigma=0.8, nu=(0.6, 0.3 + 0.2j))
    grid = build_grid(1.0, 3.0, 10)     # 1000 samples

    def run():
        values = [evaluate_norm(packet, grid, spec)
                  for spec in (StandardTime(), NullOmega(), RandomTimelike(7))]
        values.append(evaluate_norm(packet, grid, standard=True))
        capsys.readouterr()
        code = cli.main(["norm", "--in", str(field), "--t", "standard", "--t", "null-omega",
                         "--t", "random:7", "--standard-bw"])
        return code, values, capsys.readouterr().out

    outputs = []
    for budget, chunk in ((bw._STATE_BYTES, quadrature._CHUNK), (4096, 97),
                          (2 ** 40, 10 ** 6)):
        monkeypatch.setattr(bw, "_STATE_BYTES", budget)
        monkeypatch.setattr(quadrature, "_CHUNK", chunk)
        outputs.append(run())
    identical = outputs[0][0] == 0 and all(out == outputs[0] for out in outputs)
    report(15, "norm output bit-identical across sample blocks and chunks",
           0.0 if identical else 1.0, 0.5)

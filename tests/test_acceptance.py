"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one line per criterion.
"""

import os
import subprocess
import sys
from math import comb

import numpy as np
import pytest

from bwspinor import bw, cli, core, dirac, maxwell, quadrature
from bwspinor.bw import (Amplitudes, BWComponent, FixedList, NullOmega,
                         RandomTimelike, StandardTime, contract_T,
                         extract_massive, extract_massless, eta_from_frame,
                         field_equation_residual_massive,
                         helicity_residual_massless, hertz_psi, norm_integrand,
                         resolve_directions, standard_bw_integrand,
                         synth_massive, synth_massless, transform_component)
from bwspinor.frames import frame_massive, frame_massless
from bwspinor.multispinor import SymMultiSpinor
from bwspinor.pauli_lubanski import (chi_basis, combined_projectors,
                                     default_normalization, energy_projectors,
                                     explicit_frame_projectors, pl_eigenvalues,
                                     pl_momentum_rep, pl_project)
from bwspinor.quadrature import GaussianPacket, build_grid, evaluate_norm
from oracles import contract_T_bruteforce, extract_bruteforce, standard_sum_bruteforce

TRIALS = 10_000


def report(num: int, description: str, residual: float, tol: float) -> None:
    status = "PASS" if residual < tol else "FAIL"
    print(f"criterion {num:2d} [{status}] {description}: "
          f"residual {residual:.3e} < {tol:g}")
    assert residual < tol, f"criterion {num} failed: {residual:.3e} >= {tol:g}"


def test_criterion_01_generator_identities():
    sym = np.einsum('aXE,bYE->abXY', core.G_LOW_W, core.G_UP_W)
    symb = np.einsum('aEX,bEY->abXY', core.G_LOW_W, core.G_UP_W)
    target = np.einsum('ab,XY->abXY', np.linalg.inv(core.METRIC), np.eye(2))
    worst = max(
        np.max(np.abs(sym + np.swapaxes(sym, 0, 1) - target)),
        np.max(np.abs(symb + np.swapaxes(symb, 0, 1) - target)),
        np.max(np.abs(sym - 0.5 * target - 1j * core.SIGMA)),
        np.max(np.abs(symb - 0.5 * target - 1j * core.SIGMABAR)),
        np.max(np.abs(core.dual_pair(core.SIGMA) + 1j * core.SIGMA)),
        np.max(np.abs(core.dual_pair(core.SIGMABAR) - 1j * core.SIGMABAR)),
    )
    report(1, "generator identities and dual relations (exact enumeration)",
           float(worst), 1e-13)


def test_criterion_02_trace_reversal():
    rng = np.random.default_rng(2)
    worst = max(
        core.trace_reversal_residual(core.random_future_momentum(1.0, rng,
                                                                 size=TRIALS)),
        core.trace_reversal_residual(core.random_future_momentum(0.0, rng,
                                                                 size=TRIALS)))
    report(2, f"trace reversal on {TRIALS} massive and {TRIALS} null momenta",
           worst, 1e-12)


def test_criterion_03_eigenvalues():
    rng = np.random.default_rng(3)
    p = core.random_future_momentum(1.0, rng, size=TRIALS)
    worst = 0.0
    for t in (core.random_timelike(rng, size=TRIALS),
              core.random_future_momentum(0.0, rng, size=TRIALS),
              np.concatenate([0.2 * rng.normal(size=(TRIALS, 1)),
                              rng.normal(size=(TRIALS, 3))], axis=-1)):
        su, sp = pl_project(t, p)
        half, _ = pl_eigenvalues(t, p)
        want = np.stack([-half, half], axis=-1)
        worst = max(worst,
                    np.max(np.abs(np.sort(np.real(np.linalg.eigvals(su)), axis=-1)
                                  - want)),
                    np.max(np.abs(np.sort(np.real(np.linalg.eigvals(sp)), axis=-1)
                                  - want)))
    t_null = core.random_future_momentum(0.0, rng, size=TRIALS)
    half_null, _ = pl_eigenvalues(t_null, p)
    null_res = float(np.max(np.abs(2 * half_null - core.minkowski(t_null, p))))
    fr = frame_massive(p, core.random_spinor(rng, size=TRIALS))
    half_om, _ = pl_eigenvalues(fr.omega_vec, p)
    omega_res = float(np.max(np.abs(2 * half_om - 1 / np.sqrt(2.0))))
    report(3, "closed-form vs matrix eigenvalues (timelike/null/spacelike t)",
           float(worst), 1e-11)
    report(3, "null-direction eigenvalue = t.p and omega-direction = m/sqrt2",
           max(null_res, omega_res), 1e-12)


def test_criterion_04_projector_algebra():
    rng = np.random.default_rng(4)
    p = core.random_future_momentum(1.0, rng, size=TRIALS)
    fr = frame_massive(p, core.random_spinor(rng, size=TRIALS))
    proj = combined_projectors(fr.omega_vec, p)
    explicit = explicit_frame_projectors(fr)
    en = energy_projectors(p)
    blocks = pl_momentum_rep(p).bispinor()
    worst = np.max(np.abs(sum(proj.values()) - np.eye(4)))
    for key, mat in proj.items():
        worst = max(worst, np.max(np.abs(mat @ mat - mat)),
                    np.max(np.abs(mat - explicit[key])))
        for key2, mat2 in proj.items():
            if key2 != key:
                worst = max(worst, np.max(np.abs(mat @ mat2)))
    for e, pe in en.items():
        worst = max(worst, np.max(np.abs(pe @ pe - pe)),
                    np.max(np.abs(np.einsum('...ab,...wbc->...wac', pe, blocks)
                                  - np.einsum('...wab,...bc->...wac', blocks, pe))))
    report(4, f"projector algebra over {TRIALS} trials", float(worst), 1e-11)


def test_criterion_05_chi_basis_and_dirac():
    rng = np.random.default_rng(5)
    p = core.random_future_momentum(1.0, rng, size=TRIALS)
    fr = frame_massive(p, core.random_spinor(rng, size=TRIALS))
    proj = combined_projectors(fr.omega_vec, p)
    chis = chi_basis(fr)
    worst = 0.0
    for key, vec in chis.items():
        worst = max(worst, np.max(np.abs(
            np.einsum('...ab,...b->...a', proj[key], vec) - vec)))
    f0 = rng.normal(size=TRIALS) + 1j * rng.normal(size=TRIALS)
    f1 = rng.normal(size=TRIALS) + 1j * rng.normal(size=TRIALS)
    psi = dirac.dirac_solution(fr, f0, f1, +1)
    worst = max(worst, dirac.dirac_residual(psi, p, 1.0, +1))
    g0, g1 = dirac.extract_dirac(psi, fr)
    worst = max(worst, np.max(np.abs(g0 - f0)), np.max(np.abs(g1 - f1)))
    report(5, "chi eigenvectors, Dirac residual, extraction relations",
           float(worst), 1e-12)


def test_criterion_06_field_equations():
    rng = np.random.default_rng(6)
    worst = 0.0
    for n in (1, 2, 3, 4, 6, 8):
        p = core.random_future_momentum(1.0, rng, size=10)
        fr = frame_massive(p, core.random_spinor(rng, size=10))
        f = rng.normal(size=(10, n + 1)) + 1j * rng.normal(size=(10, n + 1))
        for sign in (+1, -1):
            psi = synth_massive(fr, Amplitudes(n, 1.0, sign, f))
            worst = max(worst, field_equation_residual_massive(psi))
    report(6, "field equations of synthesized components, n in {1,2,3,4,6,8}",
           worst, 1e-11)


def _direction_spread(psi, fr, specs) -> float:
    vals = [norm_integrand(psi, spec, fr) for spec in specs]
    if psi.mass > 0:    # t = p is null, so orthogonal to p, for a massless field
        vals.append(norm_integrand(psi, None, fr, form="p"))
    base = vals[0]
    scale = np.maximum(1.0, np.abs(base))
    return float(max(np.max(np.abs(v - base) / scale) for v in vals[1:]))


def test_criterion_07_direction_independence():
    rng = np.random.default_rng(7)
    fields, momenta = 1000, 10
    size = fields * momenta
    worst = 0.0
    p = core.random_future_momentum(1.0, rng, size=size)
    fr = frame_massive(p, core.random_spinor(rng, size=size))
    for n in (1, 2):
        f = rng.normal(size=(size, n + 1)) + 1j * rng.normal(size=(size, n + 1))
        psi = synth_massive(fr, Amplitudes(n, 1.0, +1, f))
        worst = max(worst, _direction_spread(
            psi, fr, (StandardTime(), NullOmega(), RandomTimelike(70 + n))))
    p0 = core.random_future_momentum(0.0, rng, size=size)
    fr0 = frame_massless(p0)
    for n in (1, 2):
        f = rng.normal(size=size) + 1j * rng.normal(size=size)
        psi0 = synth_massless(fr0.pi, f, n)
        worst = max(worst, _direction_spread(
            psi0, fr0, (StandardTime(), NullOmega(), RandomTimelike(80 + n))))
    report(7, f"norm integrand direction independence ({fields} fields x "
              f"{momenta} momenta, massive and massless)", worst, 1e-10)


def test_criterion_08_member_amplitude_sum():
    rng = np.random.default_rng(8)
    size = 2000
    worst = 0.0
    for n in (1, 2, 3):
        p = core.random_future_momentum(1.0, rng, size=size)
        fr = frame_massive(p, core.random_spinor(rng, size=size))
        f = rng.normal(size=(size, n + 1)) + 1j * rng.normal(size=(size, n + 1))
        psi = synth_massive(fr, Amplitudes(n, 1.0, +1, f))
        got = norm_integrand(psi, NullOmega(), fr)
        want = sum(comb(n, k) * np.abs(f[:, k]) ** 2 for k in range(n + 1))
        worst = max(worst, float(np.max(np.abs(got - want)
                                        / np.maximum(1.0, want))))
    report(8, "null-direction integrand = sum over the 2^n component fields "
              "|f|^2 (mixed amplitudes, cross terms cancel)", worst, 1e-11)


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
    rng = np.random.default_rng(10)
    n_maps, batch = 100, 40
    worst = 0.0
    p = core.random_future_momentum(1.0, rng, size=batch)
    fr = frame_massive(p, core.random_spinor(rng, size=batch))
    f = rng.normal(size=(batch, 3)) + 1j * rng.normal(size=(batch, 3))
    psi = synth_massive(fr, Amplitudes(2, 1.0, +1, f))
    base = norm_integrand(psi, None, fr, form="p")
    p0 = core.random_future_momentum(0.0, rng, size=batch)
    fr0 = frame_massless(p0)
    f0 = rng.normal(size=batch) + 1j * rng.normal(size=batch)
    psi0 = synth_massless(fr0.pi, f0, 2)
    base0 = norm_integrand(psi0, StandardTime())
    for a in core.random_sl2c(rng, size=n_maps):
        moved = transform_component(psi, a)
        after = norm_integrand(moved, None, None, form="p")
        worst = max(worst, float(np.max(np.abs(after - base)
                                        / np.maximum(1.0, base))))
        moved0 = transform_component(psi0, a)
        after0 = norm_integrand(moved0, StandardTime())
        worst = max(worst, float(np.max(np.abs(after0 - base0)
                                        / np.maximum(1.0, base0))))
    report(10, f"pointwise integrand scalarity for {n_maps} SL(2,C) maps",
           worst, 1e-10)


def test_criterion_11_round_trips():
    # round-trip conditioning grows like the boost factor to the n-th power,
    # so n = 8 needs momenta of moderate rapidity to sit at the 1e-12 floor
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
            extract_massless(psi0, fr0.omega) - f0))))
    report(11, "extract(synth) identity, massive and massless n <= 8",
           worst, 1e-12)
    hertz_worst = helicity_worst = 0.0
    for n in (1, 2, 3, 5):
        p0 = core.random_future_momentum(0.0, rng, size=8)
        fr0 = frame_massless(p0)
        f0 = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi0 = synth_massless(fr0.pi, f0, n)
        eta = eta_from_frame(fr0, n, +1)
        via = hertz_psi(SymMultiSpinor(0, n, eta.comp * f0[..., None, None]),
                        p0, +1)
        hertz_worst = max(hertz_worst, float(np.max(np.abs(
            via.comps[0].comp - psi0.comps[0].comp))))
        helicity_worst = max(helicity_worst, helicity_residual_massless(psi0))
    report(11, "potential route equals amplitude route (massless)",
           hertz_worst, 1e-12)
    report(11, "helicity eigenrelation residual", helicity_worst, 1e-11)


def test_criterion_12_gamma_algebra_and_current():
    gs = dirac.gamma_set()
    worst = 0.0
    low_s = core.lower_world_pair(core.SIGMA)
    low_sb = core.lower_world_pair(core.SIGMABAR)
    for q in range(4):
        for r in range(4):
            acom = gs.gammas[q] @ gs.gammas[r] + gs.gammas[r] @ gs.gammas[q]
            worst = max(worst, np.max(np.abs(
                acom - 2 * core.METRIC[q, r] * np.eye(4))))
            com = gs.gammas[q] @ gs.gammas[r] - gs.gammas[r] @ gs.gammas[q]
            block = np.zeros((4, 4), dtype=complex)
            block[0:2, 0:2] = low_s[q, r]
            block[2:4, 2:4] = low_sb[q, r]
            worst = max(worst, np.max(np.abs(com - 4j * block)))
    worst = max(worst, np.max(np.abs(gs.gamma5 - gs.gamma5_block)))
    report(12, "full Clifford table, commutator generators, gamma5 forms",
           float(worst), 1e-14)
    rng = np.random.default_rng(12)
    p = core.random_future_momentum(1.0, rng, size=TRIALS)
    fr = frame_massive(p, core.random_spinor(rng, size=TRIALS))
    f0 = rng.normal(size=TRIALS) + 1j * rng.normal(size=TRIALS)
    f1 = rng.normal(size=TRIALS) + 1j * rng.normal(size=TRIALS)
    j = dirac.dirac_current(dirac.dirac_solution(fr, f0, f1))
    current_worst = max(
        float(np.max(np.maximum(-j[..., 0], 0.0))),
        float(np.max(np.maximum(-core.mass_squared(j)
                                / np.maximum(j[..., 0] ** 2, 1e-300), 0.0))))
    report(12, f"current causality on {TRIALS} random solutions",
           current_worst, 1e-12)


def test_criterion_13_maxwell():
    rng = np.random.default_rng(13)
    size = 2000
    phi = rng.normal(size=(size, 2, 2)) + 1j * rng.normal(size=(size, 2, 2))
    phi = 0.5 * (phi + np.swapaxes(phi, -1, -2))
    f_real = maxwell.field_strength_from_phi(phi)
    rep = maxwell.stress_tensor(phi, f_real)
    worst = max(rep["route_gap"],
                float(np.max(np.abs(rep["spinor"][..., 0, 0] - rep["t00_eb"]))))
    report(13, "stress-tensor routes and T_00 energy density", worst, 1e-12)
    f = np.zeros((4, 4))
    f[1, 0], f[0, 1] = 1.0, -1.0
    f[1, 2], f[2, 1] = -1.0, 1.0
    unit = maxwell.stress_tensor(maxwell.em_spinor(f), f)
    report(13, "|E| = |B| = 1 plane pair gives T_00 = 1/2",
           float(abs(unit["spinor"][0, 0] - 0.5)), 1e-14)
    p = core.random_future_momentum(0.0, rng, size=size)
    fr = frame_massless(p)
    amp = rng.normal(size=size) + 1j * rng.normal(size=size)
    pil = core.lower_spinor(fr.pi)
    phi_pw = np.einsum('...A,...B->...AB', pil, pil) * amp[..., None, None]
    t1 = np.broadcast_to(np.array([1.0, 0, 0, 0]), p.shape)
    t2 = core.random_timelike(rng, size=size)
    via_gk = maxwell.gk_norm_integrand(phi_pw, p, t1, t2)
    comp = SymMultiSpinor(2, 0, np.stack(
        [phi_pw[..., 0, 0], phi_pw[..., 0, 1], phi_pw[..., 1, 1]],
        axis=-1)[..., None])
    psi = BWComponent(n=2, mass=0.0, sign=+1, p=p, comps=(comp,))
    via_bw = norm_integrand(psi, FixedList((t1, t2)))
    gap = float(np.max(np.abs(via_gk - via_bw) / np.maximum(1.0, np.abs(via_gk))))
    report(13, "two-direction Maxwell integrand equals the n = 2 component route",
           gap, 1e-12)


def test_criterion_14_bruteforce_oracle():
    rng = np.random.default_rng(14)
    worst = 0.0
    for n in (1, 2, 3, 4):
        p = core.random_future_momentum(1.0, rng)
        fr = frame_massive(p, core.random_spinor(rng))
        f = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        psi = synth_massive(fr, Amplitudes(n, 1.0, +1, f))
        ts = [core.random_timelike(rng) for _ in range(n)]
        got = float(contract_T(psi, np.stack(ts)))
        want = contract_T_bruteforce(psi, ts)
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
        got_eq = float(contract_T(psi, np.broadcast_to(ts[0], (n, 4))))
        want_eq = contract_T_bruteforce(psi, [ts[0]] * n)
        worst = max(worst, abs(got_eq - want_eq) / max(1.0, abs(want_eq)))
        back = extract_bruteforce(psi, fr, complex(default_normalization(fr)))
        worst = max(worst, float(np.max(np.abs(back - f))))
        std = standard_sum_bruteforce(psi) / p[0] ** n
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

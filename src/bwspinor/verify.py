"""Batched identity suites behind the verify command.

Each suite returns a mapping from identity name to its max residual over the
requested number of random trials; structural identities that admit exact
enumeration ignore the trial count.
"""

from __future__ import annotations

from math import comb

import numpy as np

from . import bw, core, dirac, maxwell
from .frames import frame_massive, frame_massless, frame_residuals
from .pauli_lubanski import (chi_basis, combined_projectors, energy_projectors,
                             explicit_frame_projectors, pl_eigen_relations_residual,
                             pl_eigenvalues, pl_momentum_rep, pl_project)


def _max(x) -> float:
    return float(np.max(np.abs(x)))


def suite_core(trials: int = 1000, seed: int = 0) -> dict[str, float]:
    rng = np.random.default_rng(seed)
    out: dict[str, float] = {}

    sym = np.einsum('aXE,bYE->abXY', core.G_LOW_W, core.G_UP_W)
    target = np.einsum('ab,XY->abXY', np.linalg.inv(core.METRIC), np.eye(2))
    out["iw1"] = _max(sym + np.swapaxes(sym, 0, 1) - target)
    symb = np.einsum('aEX,bEY->abXY', core.G_LOW_W, core.G_UP_W)
    out["iw2"] = _max(symb + np.swapaxes(symb, 0, 1) - target)
    out["id1"] = _max(sym - 0.5 * target - 1j * core.SIGMA)
    out["id2"] = _max(symb - 0.5 * target - 1j * core.SIGMABAR)

    ref_s, ref_sb = core.generator_spinor_form()
    low_s = core.lower_world_pair(core.SIGMA)
    low_sb = core.lower_world_pair(core.SIGMABAR)
    spin_s = np.einsum('abXZ,ZY,aim,bjn->imjnXY', low_s, core.EPS,
                       core.G_LOW_W, core.G_LOW_W)
    spin_sb = np.einsum('abXZ,ZY,aim,bjn->imjnXY', low_sb, core.EPS,
                        core.G_LOW_W, core.G_LOW_W)
    out["generator_spinor_form"] = max(_max(spin_s - ref_s), _max(spin_sb - ref_sb))
    out["dual_sigma"] = _max(core.dual_pair(core.SIGMA) + 1j * core.SIGMA)
    out["dual_sigmabar"] = _max(core.dual_pair(core.SIGMABAR) - 1j * core.SIGMABAR)

    k = core.random_spinor(rng, size=trials)
    out["raise_lower_roundtrip"] = _max(core.raise_spinor(core.lower_spinor(k)) - k)
    lam = core.random_spinor(rng, size=trials)
    out["contraction_antisymmetry"] = _max(
        core.spinor_contract(core.lower_spinor(k), lam)
        + core.spinor_contract(core.lower_spinor(lam), k))

    p_massive = core.random_future_momentum(1.0, rng, size=trials)
    p_null = core.random_future_momentum(0.0, rng, size=trials)
    out["trace_reversal_massive"] = core.trace_reversal_residual(p_massive)
    out["trace_reversal_null"] = core.trace_reversal_residual(p_null)
    d = core.vector_to_dyad(p_massive, "up")
    out["dyad_hermitian"] = core.hermiticity_residual(d)
    out["dyad_determinant"] = _max(np.linalg.det(d)
                                   - 0.5 * core.mass_squared(p_massive))
    out["dyad_roundtrip"] = _max(core.dyad_to_vector(d, "up") - p_massive)

    a = core.random_sl2c(rng, size=trials)
    lam_m = core.lorentz_from_sl2c(a)
    lam_scale = core.max_abs(lam_m, 2, floor=1.0) ** 2
    out["lorentz_metric"] = _max(
        (np.einsum('...ba,bc,...cd->...ad', lam_m, core.METRIC, lam_m)
         - core.METRIC) / lam_scale[..., None, None])
    out["lorentz_orthochronous"] = _max(np.minimum(lam_m[..., 0, 0] - 1.0, 0.0))
    lp = np.einsum('...ab,...b->...a', lam_m, p_massive)
    out["dyad_covariance"] = _max(
        (core.transform_dyad(a, d) - core.vector_to_dyad(lp, "up"))
        / np.maximum(1.0, lp[..., 0])[..., None, None])
    # relative to the boosted energy scale, which random boosts can make large
    out["invariant_mass"] = _max(
        (core.mass_squared(lp) - core.mass_squared(p_massive))
        / np.maximum(1.0, lp[..., 0] ** 2))
    inv = np.linalg.inv(a)
    inv /= np.sqrt(np.linalg.det(inv))[..., None, None]
    out["inverse_roundtrip"] = _max(
        (core.lorentz_from_sl2c(inv) @ lam_m - np.eye(4))
        / lam_scale[..., None, None])
    return out


def suite_pl(trials: int = 1000, seed: int = 1) -> dict[str, float]:
    rng = np.random.default_rng(seed)
    out: dict[str, float] = {}
    m = 1.0
    p = core.random_future_momentum(m, rng, size=trials)
    t_time = core.random_timelike(rng, size=trials)
    t_null = core.random_future_momentum(0.0, rng, size=trials)
    space = rng.normal(size=(trials, 3))
    t_space = np.concatenate([0.2 * rng.normal(size=(trials, 1)), space], axis=-1)

    s_op = pl_momentum_rep(p)
    tlow = core.lower_vector(t_time)
    route_a = np.einsum('...a,...aXY->...XY', tlow, s_op.unprimed)
    route_b, route_bp = pl_project(t_time, p)
    out["projection_routes"] = _max(route_a - route_b)
    route_ap = np.einsum('...a,...aXY->...XY', tlow, s_op.primed)
    out["projection_routes_primed"] = _max(route_ap - route_bp)
    lowered = np.einsum('...XZ,ZY->...XY', route_b, core.EPS)
    out["symmetry_lowered"] = _max(lowered - np.swapaxes(lowered, -1, -2))
    out["traceless"] = _max(np.trace(route_b, axis1=-2, axis2=-1))

    for name, t in (("timelike", t_time), ("null", t_null), ("spacelike", t_space)):
        su, sp = pl_project(t, p)
        half, _ = pl_eigenvalues(t, p)
        ev = np.sort(np.real(np.linalg.eigvals(su)), axis=-1)
        want = np.stack([-half, half], axis=-1)
        out[f"eigenvalues_{name}"] = _max(ev - want)
        evp = np.sort(np.real(np.linalg.eigvals(sp)), axis=-1)
        out[f"eigenvalues_{name}_primed"] = _max(evp - want)
    tp = core.minkowski(t_null, p)
    half_null, _ = pl_eigenvalues(t_null, p)
    out["null_direction_eigenvalue"] = _max(half_null - 0.5 * tp)

    nu = core.random_spinor(rng, size=trials)
    fr = frame_massive(p, nu)
    half_om, _ = pl_eigenvalues(fr.omega_vec, p)
    out["omega_direction_eigenvalue"] = _max(half_om - 0.5 * m / np.sqrt(2.0))
    out["eigen_relations_massive"] = pl_eigen_relations_residual(fr)
    fr0 = frame_massless(core.random_future_momentum(0.0, rng, size=trials))
    out["eigen_relations_massless"] = pl_eigen_relations_residual(fr0)

    eye2 = np.eye(2)
    eye4 = np.eye(4)
    proj = combined_projectors(fr.omega_vec, p)
    total = sum(proj.values())
    out["completeness"] = _max(total - eye4)
    worst_idem = worst_orth = worst_comm = 0.0
    energy = energy_projectors(p)
    blocks = pl_momentum_rep(p).bispinor()
    for key, mat in proj.items():
        worst_idem = max(worst_idem, _max(mat @ mat - mat))
        for key2, mat2 in proj.items():
            if key2 != key:
                worst_orth = max(worst_orth, _max(mat @ mat2))
    for e, pe in energy.items():
        worst_idem = max(worst_idem, _max(pe @ pe - pe))
        worst_comm = max(worst_comm, _max(
            np.einsum('...ab,...wbc->...wac', pe, blocks)
            - np.einsum('...wab,...bc->...wac', blocks, pe)))
    out["idempotence"] = worst_idem
    out["orthogonality"] = worst_orth
    out["energy_spin_commutation"] = worst_comm
    explicit = explicit_frame_projectors(fr)
    out["explicit_frame_matrices"] = max(
        _max(proj[key] - explicit[key]) for key in proj)

    chis = chi_basis(fr)
    worst_eig = worst_mix = 0.0
    for key, vec in chis.items():
        worst_eig = max(worst_eig, _max(
            np.einsum('...ab,...b->...a', proj[key], vec) - vec))
        for key2, mat in proj.items():
            if key2 != key:
                worst_mix = max(worst_mix, _max(
                    np.einsum('...ab,...b->...a', mat, vec)))
    out["chi_eigenvectors"] = worst_eig
    out["chi_mismatch_annihilation"] = worst_mix
    basis = np.stack([chis[k] for k in sorted(chis)], axis=-1)
    # linear independence: flag any frame whose chi matrix is singular
    out["chi_span"] = 0.0 if np.all(
        np.abs(np.linalg.det(basis)) > 1e-12) else 1.0

    a = core.random_sl2c(rng, size=trials)
    lam_m = core.lorentz_from_sl2c(a)
    lt = np.einsum('...ab,...b->...a', lam_m, t_time)
    lp = np.einsum('...ab,...b->...a', lam_m, p)
    su, sp = pl_project(t_time, p)
    su2, sp2 = pl_project(lt, lp)
    a_low = core.sl2c_lower_rep(a)
    out["covariance"] = max(conjugation_residual(su2, a_low, su),
                            conjugation_residual(sp2, np.conj(a_low), sp))
    return out


def conjugation_residual(x2: np.ndarray, m: np.ndarray, x: np.ndarray) -> float:
    """max over trials of |x2 - m x m^-1|, each relative to max(1, |m|_F^2).

    Both sides grow like |m|^2 under random boosts, so the rounding in x2
    does too; the scale is the one lorentz_metric and dyad_covariance use.
    """
    scale = np.maximum(1.0, np.sum(np.abs(m) ** 2, axis=(-2, -1)))
    return _max((x2 - m @ x @ np.linalg.inv(m)) / scale[..., None, None])


def _random_amplitudes(rng, n: int, mass: float, sign: int, size: int) -> bw.Amplitudes:
    f = rng.normal(size=(size, n + 1)) + 1j * rng.normal(size=(size, n + 1))
    return bw.Amplitudes(n=n, mass=mass, sign=sign, f=f)


def suite_bw(trials: int = 200, seed: int = 2) -> dict[str, float]:
    rng = np.random.default_rng(seed)
    out: dict[str, float] = {}
    m = 1.0
    size = max(4, trials // 4)

    for n in (1, 2, 3):
        p = core.random_future_momentum(m, rng, size=size)
        fr = frame_massive(p, core.random_spinor(rng, size=size))
        for sign in (+1, -1):
            amps = _random_amplitudes(rng, n, m, sign, size)
            psi = bw.synth_massive(fr, amps)
            back = bw.extract_massive(psi, fr)
            out[f"roundtrip_n{n}_sign{sign:+d}"] = _max(back.f - amps.f)
            out[f"field_equations_n{n}_sign{sign:+d}"] = \
                bw.field_equation_residual_massive(psi)
        amps = _random_amplitudes(rng, n, m, +1, size)
        psi = bw.synth_massive(fr, amps)
        vals = [bw.norm_integrand(psi, spec, fr) for spec in
                (bw.StandardTime(), bw.NullOmega(), bw.RandomTimelike(seed + n))]
        vals.append(bw.norm_integrand(psi, None, fr, form="p"))
        scale = np.maximum(1.0, np.abs(vals[0]))
        out[f"t_independence_n{n}"] = max(
            _max((v - vals[0]) / scale) for v in vals[1:])
        member_sum = np.sum([comb(n, k) * np.abs(amps.f[..., k]) ** 2
                             for k in range(n + 1)], axis=0)
        out[f"member_amplitude_sum_n{n}"] = _max(
            (vals[1] - member_sum) / np.maximum(1.0, member_sum))
        out[f"standard_ratio_n{n}"] = _max(
            vals[0] / bw.standard_bw_integrand(psi) - 2.0 ** (-n / 2.0))

    for n in (1, 2, 3):
        p0 = core.random_future_momentum(0.0, rng, size=size)
        fr0 = frame_massless(p0)
        out[f"massless_frame_n{n}"] = max(frame_residuals(fr0).values())
        f = rng.normal(size=size) + 1j * rng.normal(size=size)
        psi0 = bw.synth_massless(fr0.pi, f, n)
        out[f"massless_roundtrip_n{n}"] = _max(
            bw.extract_massless(psi0, fr0.omega) - f)
        out[f"helicity_n{n}"] = bw.helicity_residual_massless(psi0)
        eta = bw.eta_from_frame(fr0, n, +1)
        via_hertz = bw.hertz_psi(
            bw.SymMultiSpinor(0, n, eta.comp * f[..., None, None]), p0, +1)
        out[f"hertz_route_n{n}"] = _max(via_hertz.comps[0].comp
                                        - psi0.comps[0].comp)
        vals0 = [bw.norm_integrand(psi0, spec) for spec in
                 (bw.StandardTime(), bw.NullOmega(), bw.RandomTimelike(seed))]
        out[f"massless_t_independence_n{n}"] = max(
            _max((v - vals0[0]) / np.maximum(1.0, np.abs(vals0[0])))
            for v in vals0[1:])
        out[f"massless_amplitude_norm_n{n}"] = _max(
            vals0[0] - np.abs(f) ** 2)
        # with t = (1, 0, 0, 0) on every slot, the root is (p^0)^(n/2)
        w = bw.wigner_state(psi0, bw.StandardTime())
        root = p0[..., 0] ** (n / 2.0)
        out[f"wigner_roundtrip_n{n}"] = _max(
            w.comp * root[..., None, None] - psi0.comps[0].comp)

    n = 2
    p = core.random_future_momentum(m, rng, size=size)
    fr = frame_massive(p, core.random_spinor(rng, size=size))
    amps = _random_amplitudes(rng, n, m, +1, size)
    psi = bw.synth_massive(fr, amps)
    a = core.random_sl2c(rng)
    moved = bw.transform_component(psi, a)
    base = bw.norm_integrand(psi, None, fr, form="p")
    after = bw.norm_integrand(moved, None, None, form="p")
    out["scalarity_pointwise"] = _max((after - base) / np.maximum(1.0, np.abs(base)))
    inv = np.linalg.inv(a)
    inv /= np.sqrt(np.linalg.det(inv))
    round_trip = bw.transform_component(moved, inv)
    out["transform_inverse"] = max(
        _max(round_trip.p - psi.p),
        max(_max(round_trip.comps[k].comp - psi.comps[k].comp)
            for k in range(n + 1)))
    return out


def suite_dirac(trials: int = 1000, seed: int = 3) -> dict[str, float]:
    rng = np.random.default_rng(seed)
    out: dict[str, float] = {}
    gs = dirac.gamma_set()
    acom = (np.einsum('qab,rbc->qrac', gs.gammas, gs.gammas)
            + np.einsum('rab,qbc->qrac', gs.gammas, gs.gammas))
    out["clifford"] = _max(acom - 2.0 * core.METRIC[..., None, None] * np.eye(4))
    blocks = np.zeros((4, 4, 4, 4), dtype=complex)
    blocks[..., 0:2, 0:2] = core.lower_world_pair(core.SIGMA)
    blocks[..., 2:4, 2:4] = core.lower_world_pair(core.SIGMABAR)
    com = (np.einsum('qab,rbc->qrac', gs.gammas, gs.gammas)
           - np.einsum('rab,qbc->qrac', gs.gammas, gs.gammas))
    out["commutator_generators"] = _max(com - 4j * blocks)
    out["gamma5_forms"] = _max(gs.gamma5 - gs.gamma5_block)
    out["gamma5_anticommute"] = _max(
        np.einsum('ab,qbc->qac', gs.gamma5, gs.gammas)
        + np.einsum('qab,bc->qac', gs.gammas, gs.gamma5))
    out["gamma5_square"] = _max(gs.gamma5 @ gs.gamma5 - np.eye(4))

    m = 1.0
    p = core.random_future_momentum(m, rng, size=trials)
    fr = frame_massive(p, core.random_spinor(rng, size=trials))
    f0 = rng.normal(size=trials) + 1j * rng.normal(size=trials)
    f1 = rng.normal(size=trials) + 1j * rng.normal(size=trials)
    for sign in (+1, -1):
        psi = dirac.dirac_solution(fr, f0, f1, sign)
        out[f"dirac_equation_sign{sign:+d}"] = dirac.dirac_residual(psi, p, m, sign)
        g0, g1 = dirac.extract_dirac(psi, fr)
        out[f"extraction_sign{sign:+d}"] = max(_max(g0 - f0), _max(g1 - f1))
    psi = dirac.dirac_solution(fr, f0, f1, +1)
    j = dirac.dirac_current(psi)
    out["current_future"] = _max(np.minimum(j[..., 0], 0.0))
    out["current_causal"] = _max(np.minimum(
        core.mass_squared(j) / np.maximum(j[..., 0] ** 2, 1e-300), 0.0))
    direct = dirac.dirac_norm_integrand(psi, fr)
    closed = (np.abs(f0) ** 2 + np.abs(f1) ** 2)
    out["norm_closed_form"] = _max((direct - closed) / np.maximum(1.0, closed))
    via_bw = bw.norm_integrand(dirac.dirac_component(fr, f0, f1, +1), bw.NullOmega(), fr)
    out["norm_bw_route"] = _max((via_bw - direct) / np.maximum(1.0, np.abs(direct)))
    return out


def suite_maxwell(trials: int = 1000, seed: int = 4) -> dict[str, float]:
    rng = np.random.default_rng(seed)
    out: dict[str, float] = {}
    size = trials

    phi = rng.normal(size=(size, 2, 2)) + 1j * rng.normal(size=(size, 2, 2))
    phi = 0.5 * (phi + np.swapaxes(phi, -1, -2))
    f_real = maxwell.field_strength_from_phi(phi)
    out["realform_antisymmetric"] = _max(f_real + np.swapaxes(f_real, -1, -2))
    out["em_spinor_roundtrip"] = _max(maxwell.em_spinor(f_real) - phi)
    report = maxwell.stress_tensor(phi, f_real)
    out["stress_routes"] = report["route_gap"]
    out["t00_energy_density"] = _max((report["spinor"][..., 0, 0] - report["t00_eb"])
                                     / core.max_abs(report["spinor"], 2, floor=1.0))

    p = core.random_future_momentum(0.0, rng, size=size)
    pot = rng.normal(size=(size, 4)) + 1j * rng.normal(size=(size, 4))
    pot = pot - (core.minkowski(p, pot) / p[..., 0])[..., None] * np.stack(
        [np.ones(size), np.zeros(size), np.zeros(size), np.zeros(size)], axis=-1)
    out["lorenz_gauge"] = maxwell.lorenz_residual(pot, p)
    first, second = maxwell.phi_from_potential(pot, p)
    out["potential_placements"] = _max(first - second)
    out["potential_symmetric"] = _max(first - np.swapaxes(first, -1, -2))
    f_cplx = maxwell.field_strength_from_potential(pot, p)
    out["potential_vs_field_spinor"] = _max(maxwell.em_spinor(f_cplx) - first)
    gauge_phi, _ = maxwell.phi_from_potential(p.astype(complex), p)
    out["pure_gauge_vanishes"] = _max(gauge_phi)

    fr = frame_massless(p)
    f = rng.normal(size=size) + 1j * rng.normal(size=size)
    pil = core.lower_spinor(fr.pi)
    phi_pw = np.einsum('...A,...B->...AB', pil, pil) * f[..., None, None]
    t1 = np.broadcast_to(np.array([1.0, 0, 0, 0]), p.shape)
    t2 = core.random_timelike(rng, size=size)
    val = maxwell.gk_norm_integrand(phi_pw, p, t1, t2)
    out["gk_amplitude_norm"] = _max(val - np.abs(f) ** 2)
    psi = bw.BWComponent(n=2, mass=0.0, sign=+1, p=p, comps=(
        bw.SymMultiSpinor(2, 0, np.stack(
            [phi_pw[..., 0, 0], phi_pw[..., 0, 1], phi_pw[..., 1, 1]],
            axis=-1)[..., None]),))
    via_bw = bw.norm_integrand(psi, bw.FixedList((t1, t2)))
    out["gk_matches_bw_n2"] = _max((val - via_bw) / np.maximum(1.0, np.abs(val)))
    return out


SUITES = {
    "core": suite_core,
    "pl": suite_pl,
    "bw": suite_bw,
    "dirac": suite_dirac,
    "maxwell": suite_maxwell,
}


def run_suites(names, trials: int, seed: int) -> dict[str, dict[str, float]]:
    return {name: SUITES[name](trials, seed + i)
            for i, name in enumerate(names)}

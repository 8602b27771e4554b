"""The paper's identities as one table, IDENTITIES, behind verify and the tests.

An entry's `run(rng, n, size)` yields (name, residual), residual per sample of
shape (size,) and relative, or over an exact enumeration; it yields every name
one draw serves, so a suite's entries, run in order on one generator, draw
what the suite always drew.  Each docstring names the second route.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import comb
from typing import Callable

import numpy as np

from . import bw, core, dirac, maxwell
from .frames import frame_massive, frame_massless, frame_residuals
from .pauli_lubanski import (chi_basis, combined_projectors, energy_projectors,
                             explicit_frame_projectors, pl_eigen_relations_residual,
                             pl_eigenvalues, pl_momentum_rep, pl_project)

GATE = 1e-10    # tier-1's gate where the table states none: verify's tolerance


def _seed(rng: np.random.Generator) -> int:
    """rng's seed, which seeds the norm families' random directions apart from rng."""
    return rng.bit_generator.seed_seq.entropy


def _largest(residuals) -> np.ndarray:
    return np.maximum.reduce(list(residuals))


def spinor_tables(rng, n, size):
    """The Infeld-van der Waerden tables against the metric, the generators
    and their duals (exact enumeration)."""
    sym = np.einsum('aXE,bYE->abXY', core.G_LOW_W, core.G_UP_W)
    target = np.einsum('ab,XY->abXY', np.linalg.inv(core.METRIC), np.eye(2))
    yield "iw1", np.abs(sym + np.swapaxes(sym, 0, 1) - target)
    symb = np.einsum('aEX,bEY->abXY', core.G_LOW_W, core.G_UP_W)
    yield "iw2", np.abs(symb + np.swapaxes(symb, 0, 1) - target)
    yield "id1", np.abs(sym - 0.5 * target - 1j * core.SIGMA)
    yield "id2", np.abs(symb - 0.5 * target - 1j * core.SIGMABAR)

    ref_s, ref_sb = core.generator_spinor_form()
    low_s = core.lower_world_pair(core.SIGMA)
    low_sb = core.lower_world_pair(core.SIGMABAR)
    spin_s = np.einsum('abXZ,ZY,aim,bjn->imjnXY', low_s, core.EPS,
                       core.G_LOW_W, core.G_LOW_W)
    spin_sb = np.einsum('abXZ,ZY,aim,bjn->imjnXY', low_sb, core.EPS,
                        core.G_LOW_W, core.G_LOW_W)
    yield "generator_spinor_form", np.maximum(np.abs(spin_s - ref_s),
                                              np.abs(spin_sb - ref_sb))
    yield "dual_sigma", np.abs(core.dual_pair(core.SIGMA) + 1j * core.SIGMA)
    yield "dual_sigmabar", np.abs(core.dual_pair(core.SIGMABAR) - 1j * core.SIGMABAR)


def spinor_index_rules(rng, n, size):
    """Raising undoes lowering; the spinor contraction is antisymmetric."""
    k = core.random_spinor(rng, size=size)
    yield "raise_lower_roundtrip", core.max_abs(core.raise_spinor(core.lower_spinor(k)) - k)
    lam = core.random_spinor(rng, size=size)
    yield "contraction_antisymmetry", np.abs(
        core.spinor_contract(core.lower_spinor(k), lam)
        + core.spinor_contract(core.lower_spinor(lam), k))


def momentum_dyads(rng, n, size):
    """Momentum dyads against world-vector algebra, and `lorentz_from_sl2c`
    against the SL(2,C) action on dyads, the metric and the mass."""
    p_massive = core.random_future_momentum(1.0, rng, size=size)
    p_null = core.random_future_momentum(0.0, rng, size=size)
    yield "trace_reversal_massive", core.trace_reversal_residual(p_massive)
    yield "trace_reversal_null", core.trace_reversal_residual(p_null)
    d = core.vector_to_dyad(p_massive, "up")
    yield "dyad_hermitian", core.max_abs(d - np.conj(np.swapaxes(d, -1, -2)), 2)
    yield "dyad_determinant", np.abs(np.linalg.det(d) - 0.5 * core.mass_squared(p_massive))
    yield "dyad_roundtrip", core.max_abs(core.dyad_to_vector(d, "up") - p_massive)

    a = core.random_sl2c(rng, size=size)
    lam_m = core.lorentz_from_sl2c(a)
    lam_scale = core.max_abs(lam_m, 2, floor=1.0) ** 2
    yield "lorentz_metric", core.max_abs(
        (np.einsum('...ba,bc,...cd->...ad', lam_m, core.METRIC, lam_m)
         - core.METRIC) / lam_scale[..., None, None], 2)
    yield "lorentz_orthochronous", np.abs(np.minimum(lam_m[..., 0, 0] - 1.0, 0.0))
    lp = np.einsum('...ab,...b->...a', lam_m, p_massive)
    yield "dyad_covariance", core.max_abs(
        (core.transform_dyad(a, d) - core.vector_to_dyad(lp, "up"))
        / np.maximum(1.0, lp[..., 0])[..., None, None], 2)
    # relative to the boosted energy scale, which random boosts can make large
    yield "invariant_mass", np.abs(
        (core.mass_squared(lp) - core.mass_squared(p_massive))
        / np.maximum(1.0, lp[..., 0] ** 2))
    inv = np.linalg.inv(a)
    inv /= np.sqrt(np.linalg.det(inv))[..., None, None]
    yield "inverse_roundtrip", core.max_abs(
        (core.lorentz_from_sl2c(inv) @ lam_m - np.eye(4))
        / lam_scale[..., None, None], 2)


def conjugation_residual(x2: np.ndarray, m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per sample, max |x2 - m x m^-1| relative to max(1, |m|_F^2): both sides
    grow like |m|^2 under random boosts, and so does the rounding in x2."""
    scale = np.maximum(1.0, np.sum(np.abs(m) ** 2, axis=(-2, -1)))
    return core.max_abs((x2 - m @ x @ np.linalg.inv(m)) / scale[..., None, None], 2)


def pauli_lubanski(rng, n, size):
    """Pauli-Lubanski projections S(t): two routes, `np.linalg.eigvals`
    against the closed-form eigenvalues, the projector algebra against the
    explicit frame matrices and the chi basis, and SL(2,C) covariance."""
    m = 1.0
    p = core.random_future_momentum(m, rng, size=size)
    t_time = core.random_timelike(rng, size=size)
    t_null = core.random_future_momentum(0.0, rng, size=size)
    space = rng.normal(size=(size, 3))
    t_space = np.concatenate([0.2 * rng.normal(size=(size, 1)), space], axis=-1)

    s_op = pl_momentum_rep(p)
    tlow = core.lower_vector(t_time)
    route_a = np.einsum('...a,...aXY->...XY', tlow, s_op.unprimed)
    route_b, route_bp = pl_project(t_time, p)
    yield "projection_routes", core.max_abs(route_a - route_b, 2)
    route_ap = np.einsum('...a,...aXY->...XY', tlow, s_op.primed)
    yield "projection_routes_primed", core.max_abs(route_ap - route_bp, 2)
    lowered = np.einsum('...XZ,ZY->...XY', route_b, core.EPS)
    yield "symmetry_lowered", core.max_abs(lowered - np.swapaxes(lowered, -1, -2), 2)
    yield "traceless", np.abs(np.trace(route_b, axis1=-2, axis2=-1))

    for name, t in (("timelike", t_time), ("null", t_null), ("spacelike", t_space)):
        su, sp = pl_project(t, p)
        half, _ = pl_eigenvalues(t, p)
        ev = np.sort(np.real(np.linalg.eigvals(su)), axis=-1)
        want = np.stack([-half, half], axis=-1)
        yield f"eigenvalues_{name}", core.max_abs(ev - want)
        evp = np.sort(np.real(np.linalg.eigvals(sp)), axis=-1)
        yield f"eigenvalues_{name}_primed", core.max_abs(evp - want)
    tp = core.minkowski(t_null, p)
    half_null, _ = pl_eigenvalues(t_null, p)
    yield "null_direction_eigenvalue", np.abs(half_null - 0.5 * tp)

    nu = core.random_spinor(rng, size=size)
    fr = frame_massive(p, nu)
    half_om, _ = pl_eigenvalues(fr.omega_vec, p)
    yield "omega_direction_eigenvalue", np.abs(half_om - 0.5 * m / np.sqrt(2.0))
    yield "eigen_relations_massive", pl_eigen_relations_residual(fr)
    fr0 = frame_massless(core.random_future_momentum(0.0, rng, size=size))
    yield "eigen_relations_massless", pl_eigen_relations_residual(fr0)

    proj = combined_projectors(fr.omega_vec, p)
    yield "completeness", core.max_abs(sum(proj.values()) - np.eye(4), 2)
    energy = list(energy_projectors(p).values())
    yield "idempotence", _largest(core.max_abs(x @ x - x, 2)
                                  for x in [*proj.values(), *energy])
    yield "orthogonality", _largest(core.max_abs(proj[a] @ proj[b], 2)
                                    for a in proj for b in proj if a != b)
    blocks = pl_momentum_rep(p).bispinor()
    yield "energy_spin_commutation", _largest(core.max_abs(
        np.einsum('...ab,...wbc->...wac', pe, blocks)
        - np.einsum('...wab,...bc->...wac', blocks, pe), 3) for pe in energy)
    explicit = explicit_frame_projectors(fr)
    yield "explicit_frame_matrices", _largest(
        core.max_abs(proj[key] - explicit[key], 2) for key in proj)

    chis = chi_basis(fr)
    yield "chi_eigenvectors", _largest(core.max_abs(
        np.einsum('...ab,...b->...a', proj[k], chis[k]) - chis[k]) for k in chis)
    yield "chi_mismatch_annihilation", _largest(core.max_abs(
        np.einsum('...ab,...b->...a', proj[a], chis[b])) for a in proj for b in chis if a != b)
    basis = np.stack([chis[k] for k in sorted(chis)], axis=-1)
    # linear independence: flag any frame whose chi matrix is singular
    yield "chi_span", np.where(np.abs(np.linalg.det(basis)) > 1e-12, 0.0, 1.0)

    a = core.random_sl2c(rng, size=size)
    lam_m = core.lorentz_from_sl2c(a)
    lt = np.einsum('...ab,...b->...a', lam_m, t_time)
    lp = np.einsum('...ab,...b->...a', lam_m, p)
    su, sp = pl_project(t_time, p)
    su2, sp2 = pl_project(lt, lp)
    a_low = core.sl2c_lower_rep(a)
    yield "covariance", np.maximum(conjugation_residual(su2, a_low, su),
                                   conjugation_residual(sp2, np.conj(a_low), sp))


def _random_amplitudes(rng, n: int, mass: float, sign: int, size: int) -> bw.Amplitudes:
    f = rng.normal(size=(size, n + 1)) + 1j * rng.normal(size=(size, n + 1))
    return bw.Amplitudes(n=n, mass=mass, sign=sign, f=f)


def massive_family(rng, n, size):
    """Massive spin n/2: extraction against synthesis, the field equations,
    and the four pairing routes against each other, the amplitude sum
    sum_k C(n, k) |f_k|^2 and the standard integrand."""
    m = 1.0
    p = core.random_future_momentum(m, rng, size=size)
    fr = frame_massive(p, core.random_spinor(rng, size=size))
    for sign in (+1, -1):
        amps = _random_amplitudes(rng, n, m, sign, size)
        psi = bw.synth_massive(fr, amps)
        back = bw.extract_massive(psi, fr)
        yield f"roundtrip_n{n}_sign{sign:+d}", core.max_abs(back.f - amps.f)
        yield f"field_equations_n{n}_sign{sign:+d}", bw.field_equation_residual_massive(psi)
    amps = _random_amplitudes(rng, n, m, +1, size)
    psi = bw.synth_massive(fr, amps)
    vals = [bw.norm_integrand(psi, spec, fr) for spec in
            (bw.StandardTime(), bw.NullOmega(), bw.RandomTimelike(_seed(rng) + n))]
    vals.append(bw.norm_integrand(psi, None, fr, form="p"))
    scale = np.maximum(1.0, np.abs(vals[0]))
    yield f"t_independence_n{n}", _largest(np.abs((v - vals[0]) / scale) for v in vals[1:])
    member_sum = np.sum([comb(n, k) * np.abs(amps.f[..., k]) ** 2
                         for k in range(n + 1)], axis=0)
    yield f"member_amplitude_sum_n{n}", np.abs(
        (vals[1] - member_sum) / np.maximum(1.0, member_sum))
    yield f"standard_ratio_n{n}", np.abs(
        vals[0] / bw.standard_bw_integrand(psi) - 2.0 ** (-n / 2.0))


def massless_family(rng, n, size):
    """Massless spin n/2: the frame, extraction against synthesis, helicity,
    the Hertz route, the directions against each other and |f|^2, and the
    Wigner state against the field."""
    p0 = core.random_future_momentum(0.0, rng, size=size)
    fr0 = frame_massless(p0)
    yield f"massless_frame_n{n}", _largest(frame_residuals(fr0).values())
    f = rng.normal(size=size) + 1j * rng.normal(size=size)
    psi0 = bw.synth_massless(fr0.pi, f, n)
    yield f"massless_roundtrip_n{n}", np.abs(bw.extract_massless(psi0, fr0.omega) - f)
    yield f"helicity_n{n}", bw.helicity_residual_massless(psi0)
    eta = bw.eta_from_frame(fr0, n, +1)
    via_hertz = bw.hertz_psi(bw.SymMultiSpinor(0, n, eta.comp * f[..., None, None]), p0, +1)
    yield f"hertz_route_n{n}", core.max_abs(via_hertz.comps[0].comp - psi0.comps[0].comp, 2)
    vals0 = [bw.norm_integrand(psi0, spec) for spec in
             (bw.StandardTime(), bw.NullOmega(), bw.RandomTimelike(_seed(rng)))]
    yield f"massless_t_independence_n{n}", _largest(
        np.abs((v - vals0[0]) / np.maximum(1.0, np.abs(vals0[0]))) for v in vals0[1:])
    yield f"massless_amplitude_norm_n{n}", np.abs(vals0[0] - np.abs(f) ** 2)
    # with t = (1, 0, 0, 0) on every slot, the root is (p^0)^(n/2)
    w = bw.wigner_state(psi0, bw.StandardTime())
    root = p0[..., 0] ** (n / 2.0)
    yield f"wigner_roundtrip_n{n}", core.max_abs(
        w.comp * root[..., None, None] - psi0.comps[0].comp, 2)


def scalarity(rng, n, size):
    """The form="p" integrand before and after a random SL(2,C) map, and the
    map followed by its inverse."""
    m = 1.0
    p = core.random_future_momentum(m, rng, size=size)
    fr = frame_massive(p, core.random_spinor(rng, size=size))
    psi = bw.synth_massive(fr, _random_amplitudes(rng, n, m, +1, size))
    a = core.random_sl2c(rng)
    moved = bw.transform_component(psi, a)
    base = bw.norm_integrand(psi, None, fr, form="p")
    after = bw.norm_integrand(moved, None, None, form="p")
    yield "scalarity_pointwise", np.abs((after - base) / np.maximum(1.0, np.abs(base)))
    inv = np.linalg.inv(a)
    inv /= np.sqrt(np.linalg.det(inv))
    round_trip = bw.transform_component(moved, inv)
    yield "transform_inverse", _largest([core.max_abs(round_trip.p - psi.p)] + [
        core.max_abs(round_trip.comps[k].comp - psi.comps[k].comp, 2) for k in range(n + 1)])


def gamma_tables(rng, n, size):
    """The gammas against the Clifford relation and the sigma generators, and
    gamma5 against its block form (exact enumeration)."""
    gs = dirac.gamma_set()
    prod = np.einsum('qab,rbc->qrac', gs.gammas, gs.gammas)    # gamma_q gamma_r
    acom = prod + np.swapaxes(prod, 0, 1)
    yield "clifford", np.abs(acom - 2.0 * core.METRIC[..., None, None] * np.eye(4))
    blocks = np.zeros((4, 4, 4, 4), dtype=complex)
    blocks[..., 0:2, 0:2] = core.lower_world_pair(core.SIGMA)
    blocks[..., 2:4, 2:4] = core.lower_world_pair(core.SIGMABAR)
    yield "commutator_generators", np.abs(prod - np.swapaxes(prod, 0, 1) - 4j * blocks)
    yield "gamma5_forms", np.abs(gs.gamma5 - gs.gamma5_block)
    yield "gamma5_anticommute", np.abs(
        np.einsum('ab,qbc->qac', gs.gamma5, gs.gammas)
        + np.einsum('qab,bc->qac', gs.gammas, gs.gamma5))
    yield "gamma5_square", np.abs(gs.gamma5 @ gs.gamma5 - np.eye(4))


def dirac_solutions(rng, n, size):
    """Dirac solutions from the chi basis: the equation, extraction, the
    current, and the norm against |f0|^2 + |f1|^2 and the n = 1 route."""
    m = 1.0
    p = core.random_future_momentum(m, rng, size=size)
    fr = frame_massive(p, core.random_spinor(rng, size=size))
    f0 = rng.normal(size=size) + 1j * rng.normal(size=size)
    f1 = rng.normal(size=size) + 1j * rng.normal(size=size)
    for sign in (+1, -1):
        psi = dirac.dirac_solution(fr, f0, f1, sign)
        yield f"dirac_equation_sign{sign:+d}", dirac.dirac_residual(psi, p, m, sign)
        g0, g1 = dirac.extract_dirac(psi, fr)
        yield f"extraction_sign{sign:+d}", np.maximum(np.abs(g0 - f0), np.abs(g1 - f1))
    psi = dirac.dirac_solution(fr, f0, f1, +1)
    j = dirac.dirac_current(psi)
    yield "current_future", np.abs(np.minimum(j[..., 0], 0.0))
    yield "current_causal", np.abs(np.minimum(
        core.mass_squared(j) / np.maximum(j[..., 0] ** 2, 1e-300), 0.0))
    direct = dirac.dirac_norm_integrand(psi, fr)
    closed = (np.abs(f0) ** 2 + np.abs(f1) ** 2)
    yield "norm_closed_form", np.abs((direct - closed) / np.maximum(1.0, closed))
    via_bw = bw.norm_integrand(dirac.dirac_component(fr, f0, f1, +1), bw.NullOmega(), fr)
    yield "norm_bw_route", np.abs((via_bw - direct) / np.maximum(1.0, np.abs(direct)))


def field_strength(rng, n, size):
    """phi_AB against its real field strength, and the stress tensor's two
    routes and T_00 against the energy density."""
    phi = rng.normal(size=(size, 2, 2)) + 1j * rng.normal(size=(size, 2, 2))
    phi = 0.5 * (phi + np.swapaxes(phi, -1, -2))
    f_real = maxwell.field_strength_from_phi(phi)
    yield "realform_antisymmetric", core.max_abs(f_real + np.swapaxes(f_real, -1, -2), 2)
    yield "em_spinor_roundtrip", core.max_abs(maxwell.em_spinor(f_real) - phi, 2)
    report = maxwell.stress_tensor(phi, f_real)
    yield "stress_routes", report["route_gap"]
    yield "t00_energy_density", np.abs((report["spinor"][..., 0, 0] - report["t00_eb"])
                                       / core.max_abs(report["spinor"], 2, floor=1.0))


def null_potential(rng, n, size):
    """Lorenz-gauge potentials: both placements of phi against each other and
    the field strength; a plane wave's Maxwell integrand against |f|^2 and
    the n = 2 route."""
    p = core.random_future_momentum(0.0, rng, size=size)
    pot = rng.normal(size=(size, 4)) + 1j * rng.normal(size=(size, 4))
    pot = pot - (core.minkowski(p, pot) / p[..., 0])[..., None] * np.stack(
        [np.ones(size), np.zeros(size), np.zeros(size), np.zeros(size)], axis=-1)
    yield "lorenz_gauge", maxwell.lorenz_residual(pot, p)
    first, second = maxwell.phi_from_potential(pot, p)
    yield "potential_placements", core.max_abs(first - second, 2)
    yield "potential_symmetric", core.max_abs(first - np.swapaxes(first, -1, -2), 2)
    f_cplx = maxwell.field_strength_from_potential(pot, p)
    yield "potential_vs_field_spinor", core.max_abs(maxwell.em_spinor(f_cplx) - first, 2)
    gauge_phi, _ = maxwell.phi_from_potential(p.astype(complex), p)
    yield "pure_gauge_vanishes", core.max_abs(gauge_phi, 2)

    fr = frame_massless(p)
    f = rng.normal(size=size) + 1j * rng.normal(size=size)
    pil = core.lower_spinor(fr.pi)
    phi_pw = np.einsum('...A,...B->...AB', pil, pil) * f[..., None, None]
    t1 = np.broadcast_to(np.array([1.0, 0, 0, 0]), p.shape)
    t2 = core.random_timelike(rng, size=size)
    val = maxwell.gk_norm_integrand(phi_pw, p, t1, t2)
    yield "gk_amplitude_norm", np.abs(val - np.abs(f) ** 2)
    psi = bw.BWComponent(n=2, mass=0.0, sign=+1, p=p, comps=(
        bw.SymMultiSpinor(2, 0, np.stack(
            [phi_pw[..., 0, 0], phi_pw[..., 0, 1], phi_pw[..., 1, 1]],
            axis=-1)[..., None]),))
    via_bw = bw.norm_integrand(psi, bw.FixedList((t1, t2)))
    yield "gk_matches_bw_n2", np.abs((val - via_bw) / np.maximum(1.0, np.abs(val)))


@dataclass(frozen=True)
class Identity:
    """A table entry; `wide` holds tier-1 gates above GATE: (name prefix, from n, gate)."""

    suite: str
    run: Callable
    ns: tuple = (None,)
    wide: tuple = ()

    def gate(self, name: str, n: int | None) -> float:
        for prefix, n_from, gate in self.wide:
            if n >= n_from and name.startswith(prefix):
                return gate
        return GATE


IDENTITIES = (
    Identity("core", spinor_tables),
    Identity("core", spinor_index_rules),
    Identity("core", momentum_dyads),
    Identity("pl", pauli_lubanski),
    # n = 8..10 on 2500 samples read the round trip up to 6.4e-8 and the
    # NullOmega pairing up to 3.15e-10, from conditioning: the bound by a
    # per-sample condition number cond_s (ROADMAP item 2) replaces these
    Identity("bw", massive_family, (1, 2, 3), wide=(
        ("roundtrip", 8, 1e-6), ("t_independence", 8, 1e-8),
        ("member_amplitude_sum", 8, 1e-8))),
    Identity("bw", massless_family, (1, 2, 3)),
    # set after the first every-n run read 3.6e-8: the form="p" pairing of
    # a boosted field loses digits like (p^0 / m)^n, up to 5.6e3 at n = 10
    # over 40 draws, so it holds the tier-1 draw only until cond_s replaces it
    Identity("bw", scalarity, (2,), wide=(
        ("scalarity_pointwise", 6, 1e-6), ("transform_inverse", 6, 1e-6))),
    Identity("dirac", gamma_tables),
    Identity("dirac", dirac_solutions),
    Identity("maxwell", field_strength),
    Identity("maxwell", null_potential),
)


def _run_suite(suite: str, trials: int, seed: int) -> dict[str, float]:
    """Every name of the suite's entries, at their n, with its largest residual."""
    rng = np.random.default_rng(seed)
    # a Bargmann-Wigner sample costs the most, so bw draws a quarter
    size = max(4, trials // 4) if suite == "bw" else trials
    return {name: float(np.max(r)) for entry in IDENTITIES if entry.suite == suite
            for n in entry.ns for name, r in entry.run(rng, n, size)}


SUITES = {name: partial(_run_suite, name) for name in ("core", "pl", "bw", "dirac", "maxwell")}


def run_suites(names, trials: int, seed: int) -> dict[str, dict[str, float]]:
    return {name: SUITES[name](trials, seed + i)
            for i, name in enumerate(names)}

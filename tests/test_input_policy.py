"""Every guarded entry point rejects non-finite input.

Each case puts a NaN (or an inf) into one sample of otherwise valid input
and expects the guard's own error type; a per-sample guard must also name
that sample.  Warnings are errors here, so a guard that computes on the bad
value before it rejects it fails as well.  The mixed-scale cases at the end
put a valid sample 1e8 times larger beside a bad one.
"""

import dataclasses

import numpy as np
import pytest

from bwspinor import bw, core, dirac, frames, maxwell, pauli_lubanski as pl
from bwspinor.errors import (ComplexEigenvalues, DegenerateReference,
                             FrameMismatch, InconsistentPair,
                             MasslessNotSupported, NonUnitDeterminant,
                             NotAntisymmetric, NotNull, NotTimelike,
                             OrthogonalDirection)

pytestmark = pytest.mark.filterwarnings("error")

COUNT, BAD = 5, 2


def spoil(x, value, index=(BAD, 1)):
    """A copy of x with one entry of sample BAD replaced by value (kept if None)."""
    x = np.array(x, dtype=np.result_type(x, float))
    if value is not None:
        x[index] = value
    return x


def rng():
    return np.random.default_rng(2024)


def massive():
    p = core.random_future_momentum(1.0, rng(), size=COUNT)
    return p, frames.frame_massive(p, core.random_spinor(rng(), size=COUNT))


def massless():
    p = core.random_future_momentum(0.0, rng(), size=COUNT)
    return p, frames.frame_massless(p)


def massive_component(n=2):
    p, fr = massive()
    f = np.ones((COUNT, n + 1), dtype=complex)
    return bw.synth_massive(fr, bw.Amplitudes(n, 1.0, +1, f)), fr


def massless_component(n=2):
    p, fr = massless()
    return bw.synth_massless(fr.pi, np.ones(COUNT), n), fr


def sl2c():
    return core.random_sl2c(rng(), size=COUNT)


def phi_and_field():
    r = rng()
    phi = r.normal(size=(COUNT, 2, 2)) + 1j * r.normal(size=(COUNT, 2, 2))
    phi = phi + np.swapaxes(phi, -1, -2)
    return phi, maxwell.field_strength_from_phi(phi)


def potential():
    p, _ = massless()
    return rng().normal(size=(COUNT, 4)) + 0j, p


T1, T2 = np.array([1.0, 0.0, 0.0, 0.0]), np.array([2.0, 0.1, 0.3, -0.2])


def with_momentum(psi, value):
    return dataclasses.replace(psi, p=spoil(psi.p, value))


# name -> (call with the bad value, error, the sample index the error names)
CASES = {
    # core
    "lorentz_from_sl2c": (lambda v: core.lorentz_from_sl2c(
        spoil(sl2c(), v, (BAD, 0, 1))), NonUnitDeterminant, "2"),
    "transform_dyad": (lambda v: core.transform_dyad(
        spoil(sl2c(), v, (BAD, 0, 1)), np.eye(2)), NonUnitDeterminant, "2"),
    "transform_vector": (lambda v: core.transform_vector(
        spoil(sl2c(), v, (BAD, 1, 1)), massive()[0]), NonUnitDeterminant, "2"),
    # frames
    "flag_decompose_massless": (lambda v: frames.flag_decompose_massless(
        spoil(massless()[0], v)), NotNull, "2"),
    "frame_massless": (lambda v: frames.frame_massless(spoil(massless()[0], v)),
                       NotNull, "2"),
    "frame_massive.p": (lambda v: frames.frame_massive(
        spoil(massive()[0], v), (1.0, 0.0)), NotTimelike, "2"),
    "frame_massive.nu": (lambda v: frames.frame_massive(
        massive()[0], spoil(core.random_spinor(rng(), size=COUNT), v)),
        DegenerateReference, "2"),
    # pauli_lubanski
    "pl_eigenvalues": (lambda v: pl.pl_eigenvalues(T2, spoil(massive()[0], v)),
                       ComplexEigenvalues, "2"),
    "pl_spin_projectors": (lambda v: pl.pl_spin_projectors(
        T2, spoil(massive()[0], v)), ComplexEigenvalues, "2"),
    "energy_projectors": (lambda v: pl.energy_projectors(spoil(massive()[0], v)),
                          MasslessNotSupported, "2"),
    "combined_projectors": (lambda v: pl.combined_projectors(
        T2, spoil(massive()[0], v)), ComplexEigenvalues, "2"),
    # maxwell
    "phi_from_potential": (lambda v: maxwell.phi_from_potential(
        potential()[0], spoil(potential()[1], v)), NotNull, "2"),
    "em_spinor": (lambda v: maxwell.em_spinor(
        spoil(phi_and_field()[1], v, (BAD, 0, 1))), NotAntisymmetric, "2"),
    "gk_norm_integrand.p": (lambda v: maxwell.gk_norm_integrand(
        phi_and_field()[0], spoil(massless()[0], v), T1, T2),
        OrthogonalDirection, "2"),
    "gk_norm_integrand.t2": (lambda v: maxwell.gk_norm_integrand(
        phi_and_field()[0], massless()[0], T1,
        spoil(np.broadcast_to(T2, (COUNT, 4)), v)), OrthogonalDirection, "2"),
    "gk_norm_integrand.phi": (lambda v: maxwell.gk_norm_integrand(
        spoil(phi_and_field()[0], v, (BAD, 0, 1)), massless()[0], T1, T2),
        InconsistentPair, "2"),
    "stress_tensor.phi": (lambda v: maxwell.stress_tensor(
        spoil(phi_and_field()[0], v, (BAD, 0, 1)), phi_and_field()[1]),
        InconsistentPair, "2"),
    "stress_tensor.field": (lambda v: maxwell.stress_tensor(
        phi_and_field()[0], spoil(phi_and_field()[1], v, (BAD, 1, 2))),
        NotAntisymmetric, "2"),
    # bw
    "extract_massive.frame": (lambda v: bw.extract_massive(
        massive_component()[0],
        dataclasses.replace(massive_component()[1], p=spoil(massive()[0], v))),
        FrameMismatch, "2"),
    "extract_massless.omega": (lambda v: bw.extract_massless(
        massless_component()[0], spoil(massless_component()[1].omega, v)),
        FrameMismatch, "2"),
    "hertz_psi": (lambda v: bw.hertz_psi(
        bw.eta_from_frame(massless()[1], 2), spoil(massless()[0], v)), NotNull, "2"),
    "transform_component": (lambda v: bw.transform_component(
        massive_component()[0], spoil(sl2c(), v, (BAD, 0, 0))),
        NonUnitDeterminant, "2"),
    "norm_integrand.momentum": (lambda v: bw.norm_integrand(
        with_momentum(massive_component()[0], v), bw.RandomTimelike(3)),
        OrthogonalDirection, "2"),
    "norm_integrand.direction": (lambda v: bw.norm_integrand(
        massive_component()[0], bw.FixedList((T1, spoil(T2, v, 0)))),
        OrthogonalDirection, "0"),
    "wigner_state": (lambda v: bw.wigner_state(
        with_momentum(massless_component()[0], v), bw.StandardTime()),
        OrthogonalDirection, "2"),
}


@pytest.mark.parametrize("name", CASES)
def test_unspoiled_input_passes(name):
    CASES[name][0](None)


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("name", CASES)
def test_nonfinite_sample_rejected(name, value):
    call, error, index = CASES[name]
    with pytest.raises(error, match=rf"at sample index \[{index}\]"):
        call(value)


# Mixed scales: a valid sample 1e8 times larger must not hide a bad one,
# since every tolerance and residual scales by the sample's own entries.

BIG = 1e8


def pick(kinds, big, bad):
    """The samples named by kinds ("big" or "bad"), stacked into one batch."""
    return np.stack([np.asarray(big if k == "big" else bad) for k in kinds])


def pair(mass):
    """Two momenta on the shell of mass, and two reference spinors."""
    r = rng()
    return core.random_future_momentum(mass, r, size=2), core.random_spinor(r, size=2)


def one_field():
    phi, f = phi_and_field()
    return phi[0], f[0]


def skewed(f):
    """f with F^{01} 1e-6 away from -F^{10}."""
    f = f.copy()
    f[0, 1] += 1e-6
    return f


def massive_frame(kinds, scale=1.0):
    (p, nu) = pair(1.0)
    return frames.frame_massive(pick(kinds, scale * p[0], p[1]), pick(kinds, nu[0], nu[1]))


def em_spinor_case(kinds):
    _, f = one_field()
    maxwell.em_spinor(pick(kinds, BIG * f, skewed(f)))


def stress_phi_case(kinds):
    phi, f = one_field()
    maxwell.stress_tensor(pick(kinds, BIG * phi, 1.001 * phi), pick(kinds, BIG * f, f))


def stress_field_case(kinds):
    phi, f = one_field()
    maxwell.stress_tensor(pick(kinds, BIG * phi, phi), pick(kinds, BIG * f, skewed(f)))


def extract_frame_case(kinds):
    psi, fr = massive_component()
    p = pick(kinds, BIG * psi.p[0], psi.p[1])
    bw.extract_massive(dataclasses.replace(psi, p=p),
                       dataclasses.replace(fr, p=p * pick(kinds, 1.0, 1.0 + 1e-6)[:, None]))


# name -> (call on the samples kinds, error); the bad sample alone and after
# a big one must raise the same error, at the bad sample
MIXED_GUARDS = {
    "em_spinor": (em_spinor_case, NotAntisymmetric),
    "stress_tensor.phi": (stress_phi_case, InconsistentPair),
    "stress_tensor.field": (stress_field_case, NotAntisymmetric),
    "extract_massive.frame": (extract_frame_case, FrameMismatch),
}


def field_equation_case(kinds):
    fr = massive_frame(kinds)
    f = pick(kinds, BIG, 1.0)[:, None] * np.ones(3)
    psi = bw.synth_massive(fr, bw.Amplitudes(2, 1.0, +1, f))
    lo, hi, *rest = psi.comps
    spoiled = (lo, hi.scaled(pick(kinds, 1.0, 1.01)), *rest)   # one member 1 % off
    return np.max(bw.field_equation_residual_massive(dataclasses.replace(psi, comps=spoiled)))


def helicity_case(kinds):
    p, _ = pair(0.0)
    fr = frames.frame_massless(pick(kinds, p[0], p[1]))
    psi = bw.synth_massless(fr.pi, pick(kinds, BIG, 1.0), 2)
    (member,) = psi.comps
    comp = member.comp.copy()
    comp[:, 1, 0] *= pick(kinds, 1.0, 1.01)     # one entry 1 % off
    return np.max(bw.helicity_residual_massless(
        dataclasses.replace(psi, comps=(dataclasses.replace(member, comp=comp),))))


def dirac_case(kinds):
    fr = massive_frame(kinds)
    f = pick(kinds, BIG, 1.0)
    psi = dirac.dirac_solution(fr, f, f) * pick(kinds, np.ones(4), [1.01, 1, 1, 1])  # 1 % off
    return np.max(dirac.dirac_residual(psi, fr.p, 1.0))


def frame_case(kinds):
    fr = massive_frame(kinds, scale=BIG)
    spoiled = fr.pi_vec * pick(kinds, 1.0, 1.01)[:, None]
    return np.max(list(frames.frame_residuals(dataclasses.replace(fr, pi_vec=spoiled)).values()))


# name -> residual of the samples kinds; the bad sample's residual must not
# shrink beside a big one
MIXED_RESIDUALS = {
    "field_equation_residual_massive": field_equation_case,
    "helicity_residual_massless": helicity_case,
    "dirac_residual": dirac_case,
    "frame_residuals": frame_case,
}


@pytest.mark.parametrize("name", MIXED_GUARDS)
def test_guard_scale_is_per_sample(name):
    call, error = MIXED_GUARDS[name]
    with pytest.raises(error) as alone:
        call(("bad",))
    with pytest.raises(error) as mixed:
        call(("big", "bad"))
    assert str(alone.value).endswith(" at sample index [0]")
    assert str(mixed.value) == str(alone.value)[:-len("[0]")] + "[1]"


@pytest.mark.parametrize("name", MIXED_RESIDUALS)
def test_residual_scale_is_per_sample(name):
    residual = MIXED_RESIDUALS[name]
    assert residual(("big",)) < 1e-12
    alone = residual(("bad",))
    assert alone > 1e-4
    assert residual(("big", "bad")) >= alone * (1.0 - 1e-12)


@pytest.mark.parametrize("masses", [(1.0, 2.0), (2.0, 1.0)])
def test_dirac_component_declares_the_first_sample_mass(masses):
    # p = m (1.25, 0.75, 0, 0) lies on the shell of m exactly
    p = np.array([[1.25 * m, 0.75 * m, 0.0, 0.0] for m in masses])
    fr = frames.frame_massive(p, np.array([1.0, 0.3j]))
    with pytest.raises(FrameMismatch, match=rf"m = {masses[0]} at sample index \[1\]$"):
        dirac.dirac_component(fr, np.ones(2), np.ones(2))

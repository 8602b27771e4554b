import dataclasses
from math import comb

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bwspinor import bw, core, verify
from bwspinor.bw import (MAX_N, Amplitudes, FixedList, NullOmega, RandomTimelike,
                         StandardTime, contract_T, extract, extract_massive,
                         eta_from_frame, synth, valences,
                         field_equation_residual_massive,
                         helicity_residual_massless, hertz_psi, norm_integrand,
                         resolve_directions, standard_bw_integrand,
                         synth_massive, synth_massless, transform_component,
                         wigner_state, BWComponent)
from bwspinor.errors import (FrameMismatch, NonUnitDeterminant, NotFinite,
                             NotMassive, NotNull, OrthogonalDirection,
                             ValenceMismatch)
from bwspinor.fileio import read_field_file, write_field_file
from bwspinor.frames import axis_rotation, frame_for, frame_massive, frame_massless
from bwspinor.multispinor import SymMultiSpinor
from bwspinor.pauli_lubanski import chi_basis, default_normalization
from oracles import (contract_T_bruteforce, dense, dense_from_graded,
                     extract_bruteforce, field_equation_residual_loop,
                     helicity_residual_loop, hertz_loop,
                     standard_sum_bruteforce, sym_outer)

ROOT2 = np.sqrt(2.0)


def random_massive(rng, n, size=None, sign=+1, mass=1.0):
    p = core.random_future_momentum(mass, rng, size=size)
    fr = frame_massive(p, core.random_spinor(rng, size=size))
    shape = (n + 1,) if size is None else (size, n + 1)
    f = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    amps = Amplitudes(n=n, mass=mass, sign=sign, f=f)
    return frpsi(fr, amps)


def frpsi(fr, amps):
    return fr, amps, synth_massive(fr, amps)


def standard(psi):
    """psi with its members in standard coordinates, as the oracles read them."""
    return dataclasses.replace(psi, comps=bw.to_standard(psi))


def adapted(psi):
    """psi whose members were given in standard coordinates, in the basis
    adapted to its momentum that every BWComponent stores."""
    return bw.from_standard(psi.n, psi.mass, psi.sign, psi.p, psi.comps)


class TestSynthMassive:
    def test_n1_matches_chi_expansion(self):
        rng = np.random.default_rng(0)
        p = core.random_future_momentum(1.0, rng)
        fr = frame_massive(p, core.random_spinor(rng))
        f = rng.normal(size=2) + 1j * rng.normal(size=2)
        for sign in (+1, -1):
            amps = Amplitudes(n=1, mass=1.0, sign=sign, f=f)
            psi = standard(synth_massive(fr, amps))
            chis = chi_basis(fr)
            want = chis[(+1, sign)] * f[1] + chis[(-1, sign)] * f[0]
            assert_allclose(psi.comps[0].comp[:, 0], want[:2], atol=1e-14)
            assert_allclose(psi.comps[1].comp[0, :], want[2:], atol=1e-14)

    def test_n2_single_amplitude_structure(self):
        # f = (1,0,0) puts (-1)^2 N^2 pi pi into the all-unprimed member;
        # f = (0,0,1) puts N^2 omega omega there
        fr = frame_massive(np.array([1.0, 0, 0, 0]), np.array([0.6, 0.3 + 0.4j]))
        nval = default_normalization(fr)
        pil = core.lower_spinor(fr.pi)
        oml = core.lower_spinor(fr.omega)
        psi_lo = synth_massive(fr, Amplitudes(2, 1.0, +1, np.array([1.0, 0, 0])))
        assert_allclose(dense(psi_lo.comps[0]),
                        nval ** 2 * np.einsum('A,B->AB', pil, pil), atol=1e-14)
        psi_hi = synth_massive(fr, Amplitudes(2, 1.0, +1, np.array([0.0, 0, 1.0])))
        assert_allclose(dense(psi_hi.comps[0]),
                        nval ** 2 * np.einsum('A,B->AB', oml, oml), atol=1e-14)
        # and the all-primed members carry the conjugate structure
        assert_allclose(dense(psi_lo.comps[2]),
                        nval ** 2 * np.einsum('A,B->AB', np.conj(oml), np.conj(oml)),
                        atol=1e-14)

    def test_zero_amplitudes(self):
        fr = frame_massive(np.array([1.0, 0, 0, 0]), np.array([1.0, 0.0]))
        psi = synth_massive(fr, Amplitudes(3, 1.0, +1, np.zeros(4)))
        assert all(np.max(np.abs(c.comp)) == 0.0 for c in psi.comps)

    def test_rejects_massless(self):
        fr = frame_massless(np.array([1.0, 0, 0, 1.0]))
        with pytest.raises(NotMassive):
            synth_massive(fr, Amplitudes(1, 0.0, +1, np.zeros(2)))

    @pytest.mark.parametrize("mass", [2.0, 1.0 + 1e-6, np.nan])
    def test_rejects_mass_other_than_frame(self, mass):
        # amplitudes claiming m = 2 on an m = 1 frame gave a form="p"
        # integrand of 0.25 against a standard one of 4, and no error
        p = core.random_future_momentum(1.0, 150, size=4)
        fr = frame_massive(p, np.array([1.0, 0.0]))
        with pytest.raises(FrameMismatch, match="mass"):
            synth_massive(fr, Amplitudes(2, mass, +1, np.ones((4, 3))))


class TestExtractMassive:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_roundtrip(self, n):
        rng = np.random.default_rng(n)
        fr, amps, psi = random_massive(rng, n, size=20)
        back = extract_massive(psi, fr)
        assert np.max(np.abs(back.f - amps.f)) < 1e-12

    def test_roundtrip_negative_energy(self):
        rng = np.random.default_rng(40)
        fr, amps, psi = random_massive(rng, 3, size=10, sign=-1)
        back = extract_massive(psi, fr)
        assert np.max(np.abs(back.f - amps.f)) < 1e-12

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(41)
        fr, amps, psi = random_massive(rng, 3)
        got = extract_bruteforce(standard(psi), fr, complex(default_normalization(fr)))
        assert_allclose(got, amps.f, atol=1e-12)

    def test_omega_built_member_annihilated(self):
        # a pure omega...omega all-unprimed member extracts to zero
        fr = frame_massive(np.array([1.0, 0, 0, 0]), np.array([0.8, 0.1 - 0.7j]))
        oml = core.lower_spinor(fr.omega)
        comp0 = sym_outer([oml, oml], [])
        psi = BWComponent(n=2, mass=1.0, sign=+1, p=fr.p, comps=(
            comp0, SymMultiSpinor(1, 1, np.zeros((2, 2), dtype=complex)),
            SymMultiSpinor(0, 2, np.zeros((1, 3), dtype=complex))))
        back = extract_massive(psi, fr)
        assert abs(back.f[..., 0]) < 1e-13

    def test_n1_extraction_relations(self):
        # omega^A psi^0_A = N f0 and omegabar^{A'} psi^1_{A'} = N f1
        rng = np.random.default_rng(42)
        fr, amps, psi = random_massive(rng, 1, size=30)
        psi = standard(psi)
        nval = default_normalization(fr)
        f0 = np.einsum('...A,...A->...', fr.omega, psi.comps[0].comp[..., 0]) / nval
        f1 = np.einsum('...A,...A->...', np.conj(fr.omega),
                       psi.comps[1].comp[..., 0, :]) / nval
        assert np.max(np.abs(f0 - amps.f[..., 0])) < 1e-12
        assert np.max(np.abs(f1 - amps.f[..., 1])) < 1e-12

    def test_frame_mismatch(self):
        rng = np.random.default_rng(43)
        fr, amps, psi = random_massive(rng, 2)
        other = frame_massive(core.random_future_momentum(1.0, rng),
                              core.random_spinor(rng))
        with pytest.raises(FrameMismatch):
            extract_massive(psi, other)

    def test_frame_mismatch_scaled_per_sample(self):
        # a large momentum elsewhere in the batch must not widen the
        # tolerance of a small one: sample 0 of the frame is 5e-5 off psi.p
        p = np.array([[np.sqrt(1.25), 0.5, 0.0, 0.0],
                      [np.sqrt(1.0 + 1e8), 1e4, 0.0, 0.0]])
        off = p.copy()
        off[0, 1] += 5e-5
        off[0, 0] = np.sqrt(1.0 + off[0, 1] ** 2)
        nu = np.array([1.0, 0.0])
        amps = Amplitudes(n=2, mass=1.0, sign=+1, f=np.ones((2, 3), dtype=complex))
        psi = synth_massive(frame_massive(p, nu), amps)
        with pytest.raises(FrameMismatch, match=r"\[0\]"):
            extract_massive(psi, frame_massive(off, nu))


BOOSTS = (1.0, 10.0, 100.0, 1e3, 1e4)


@pytest.mark.parametrize("n", [1, 4, MAX_N])
@pytest.mark.parametrize("sign", [+1, -1])
def test_roundtrip_across_boosts(n, sign):
    # p^0 / m from 1 to 1e4 in random directions, random nu: in the basis
    # adapted to p the round trip keeps its digits (standard coordinates lost
    # up to 5e1 at n = 10 and p^0 / m = 100)
    rng = np.random.default_rng(300 + n)
    count = 100
    for gamma in BOOSTS:
        u = rng.normal(size=(count, 3))
        pvec = u / np.linalg.norm(u, axis=-1, keepdims=True) * np.sqrt(gamma ** 2 - 1.0)
        p = np.concatenate([core.shell_energy(pvec, 1.0)[:, None], pvec], axis=-1)
        fr = frame_massive(p, core.random_spinor(rng, size=count))
        f = rng.normal(size=(count, n + 1)) + 1j * rng.normal(size=(count, n + 1))
        back = extract(synth_massive(fr, Amplitudes(n, 1.0, sign, f)), fr).f
        assert np.max(np.abs(back - f)) <= 1e-13 * max(1.0, np.max(np.abs(f))), gamma


class TestStandardCoordinates:
    """`bw.from_standard` and `bw.to_standard`, the one move each between the
    standard coordinates of the oracles and files and the basis adapted to p."""

    @pytest.mark.parametrize("mass", [1.0, 0.0], ids=["massive", "massless"])
    def test_to_standard_undoes_from_standard(self, mass):
        rng = np.random.default_rng(310)
        psi = random_members(rng, 5, mass)
        back = bw.to_standard(adapted(psi))
        for got, want in zip(back, psi.comps):
            assert np.max(np.abs(got.comp - want.comp)) <= 1e-14 * np.max(np.abs(want.comp))

    def test_momentum_on_the_z_axis_moves_nothing(self):
        # axis_rotation of a momentum along +z is the identity, exactly
        p = np.array([[np.sqrt(1.0 + 0.49), 0.0, 0.0, 0.7]])
        fr = frame_massive(p, np.array([0.6, 0.3 + 0.4j]))
        psi = synth_massive(fr, Amplitudes(3, 1.0, +1, np.arange(4.0) + 1j))
        for got, want in zip(bw.to_standard(psi), psi.comps):
            assert np.array_equal(got.comp, want.comp)

    def test_massless_members_have_one_entry(self):
        # in the adapted basis p^{AA'} = diag(lam0, 0): synthesis and the
        # Hertz route each fill the entry with all n indices 1
        rng = np.random.default_rng(311)
        p = core.random_future_momentum(0.0, rng, size=20)
        fr = frame_massless(p)
        f = rng.normal(size=20) + 1j * rng.normal(size=20)
        xi = SymMultiSpinor(0, 4, eta_from_frame(fr, 4).comp * f[:, None, None])
        for psi in (synth_massless(fr.pi, f, 4), hertz_psi(xi, p)):
            assert np.all(psi.comps[0].comp[:, :-1] == 0)
            assert np.all(psi.comps[0].comp[:, -1] != 0)


class TestEveryMass:
    """`synth` and `extract`, one entry each for both masses, with the member
    layout of `valences`."""

    @pytest.mark.parametrize("mass", [1.0, 0.0], ids=["massive", "massless"])
    @pytest.mark.parametrize("n", range(1, MAX_N + 1))
    def test_roundtrip_within_the_table_gate(self, n, mass):
        rng = np.random.default_rng(200 + n)
        p = core.random_future_momentum(mass, rng, size=50)
        fr = frame_for(p, mass, core.random_spinor(rng, size=50))
        count = len(valences(n, mass))
        f = rng.normal(size=(50, count)) + 1j * rng.normal(size=(50, count))
        psi = synth(fr, Amplitudes(n, mass, +1, f))
        assert [(c.r, c.s) for c in psi.comps] == valences(n, mass)
        back = extract(psi, fr)
        assert back.f.shape == f.shape
        assert np.max(np.abs(back.f - f)) < verify.GATE

    # a massless synthesis takes the pi of its frame: a massive frame's pi
    # would give a field at another momentum
    @pytest.mark.parametrize("mass, frame_mass", [(0.0, 1.0), (1.0, 0.0)],
                             ids=["massless-amplitudes", "massive-amplitudes"])
    def test_frame_of_the_other_mass_rejected(self, mass, frame_mass):
        p = core.random_future_momentum(frame_mass, 3, size=4)
        f = np.ones((4, len(valences(2, mass))))
        with pytest.raises(FrameMismatch, match="mass shell"):
            synth(frame_for(p, frame_mass), Amplitudes(2, mass, +1, f))

    def test_massless_takes_no_normalization(self):
        fr = frame_massless(core.random_future_momentum(0.0, 4, size=4))
        with pytest.raises(NotMassive):
            synth(fr, Amplitudes(2, 0.0, +1, np.ones((4, 1))), normalization=2.0)

    @pytest.mark.parametrize("mass, columns", [(0.0, 3), (1.0, 2)],
                             ids=["massless-n+1", "massive-n"])
    def test_amplitude_count_other_than_the_valences_rejected(self, mass, columns):
        fr = frame_for(core.random_future_momentum(mass, 5, size=4), mass)
        with pytest.raises(ValenceMismatch, match="amplitudes per sample"):
            synth(fr, Amplitudes(2, mass, +1, np.ones((4, columns))))


@pytest.mark.parametrize("mass", [1.0, 0.0], ids=["massive", "massless"])
def test_empty_batch_gives_empty_arrays(mass):
    # on no samples the frame, synthesis, extraction, every pairing route and
    # the Lorentz action return empty arrays; an empty batch meets the test of
    # every equal-slot route, so each route is also called directly
    n = 3
    p = np.zeros((0, 4))
    fr = frame_for(p, mass, (1.0, 0.0))
    f = np.zeros((0, len(valences(n, mass))), dtype=complex)
    psi = synth(fr, Amplitudes(n, mass, +1, f))
    shapes = [(0, r + 1, s + 1) for r, s in valences(n, mass)]
    assert [c.comp.shape for c in psi.comps] == shapes
    assert extract(psi, fr).f.shape == f.shape
    specs = (StandardTime(), NullOmega(), RandomTimelike(3),
             FixedList(((1.2, 0.3, -0.1, 0.2),)))
    pairings = [norm_integrand(psi, spec, fr) for spec in specs]
    pairings += [bw._diagonal_pairing(psi, np.zeros(0), np.zeros(0)),
                 bw._rank_one_pairing(psi, np.zeros((0, 2), dtype=complex)),
                 bw._monomial_pairing(psi, np.zeros((n, 0, 4))),
                 standard_bw_integrand(psi)]
    if mass > 0:
        pairings.append(norm_integrand(psi, None, fr, form="p"))
    assert all(x.shape == (0,) for x in pairings)
    moved = transform_component(psi, np.zeros((0, 2, 2), dtype=complex))
    assert [c.comp.shape for c in moved.comps] == shapes


class TestFieldEquations:
    @pytest.mark.parametrize("n,sign", [(1, +1), (2, +1), (2, -1), (4, +1)])
    def test_synth_solves(self, n, sign):
        rng = np.random.default_rng(n + 10)
        fr, amps, psi = random_massive(rng, n, size=15, sign=sign)
        assert np.max(field_equation_residual_massive(psi)) < 1e-11

    def test_detector_fires_on_random_tensor(self):
        rng = np.random.default_rng(50)
        p = core.random_future_momentum(1.0, rng)
        comps = tuple(SymMultiSpinor(2 - k, k, rng.normal(size=(3 - k, k + 1))
                                     + 1j * rng.normal(size=(3 - k, k + 1)))
                      for k in range(3))
        psi = BWComponent(n=2, mass=1.0, sign=+1, p=p, comps=comps)
        assert field_equation_residual_massive(psi) > 0.01

    def test_zero_field(self):
        p = np.array([1.0, 0, 0, 0])
        comps = tuple(SymMultiSpinor(1 - k, k, np.zeros((2 - k, k + 1), dtype=complex))
                      for k in range(2))
        psi = BWComponent(n=1, mass=1.0, sign=+1, p=p, comps=comps)
        assert field_equation_residual_massive(psi) == 0.0

    @pytest.mark.parametrize("n", range(1, MAX_N + 1))
    def test_graded_residual_matches_loops(self, n):
        # the graded residual vs index-tuple loops over the dense members
        rng = np.random.default_rng(51 + n)
        fr, amps, psi = random_massive(rng, n, sign=-1)
        assert np.max(field_equation_residual_massive(psi)) < 1e-11
        assert field_equation_residual_loop(standard(psi)) < 1e-11
        comps = tuple(SymMultiSpinor(n - k, k, rng.normal(size=(n - k + 1, k + 1))
                                     + 1j * rng.normal(size=(n - k + 1, k + 1)))
                      for k in range(n + 1))
        wrong = BWComponent(n=n, mass=1.0, sign=+1, p=psi.p, comps=comps)
        got = float(field_equation_residual_massive(wrong))
        # the loops on the same members, at the momentum rotated into their
        # basis, whose largest entry p^0 sets the same scale
        rotated = bw._rotated(psi.p, axis_rotation(psi.p)[0])
        want = field_equation_residual_loop(dataclasses.replace(wrong, p=rotated))
        assert got > 0.01
        assert abs(got - want) <= 1e-12 * want


class TestContractT:
    def test_n1_standard_time(self):
        # t = e0 contracts to the component-square sum over sqrt(2)
        rng = np.random.default_rng(60)
        fr, amps, psi = random_massive(rng, 1)
        ts = resolve_directions(StandardTime(), 1, psi)
        got = contract_T(psi, ts)
        want = standard_sum_bruteforce(psi) / ROOT2
        assert_allclose(got, want, atol=1e-12)

    def test_zero_field(self):
        p = np.array([1.0, 0, 0, 0])
        comps = tuple(SymMultiSpinor(1 - k, k, np.zeros((2 - k, k + 1), dtype=complex))
                      for k in range(2))
        psi = BWComponent(n=1, mass=1.0, sign=+1, p=p, comps=comps)
        assert contract_T(psi, resolve_directions(StandardTime(), 1, psi)) == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_bruteforce(self, n):
        rng = np.random.default_rng(61 + n)
        fr, amps, psi = random_massive(rng, n)
        ts = [core.random_timelike(rng) for _ in range(n)]
        got = contract_T(psi, np.stack(ts))
        want = contract_T_bruteforce(standard(psi), ts)
        assert abs(got - want) / max(1.0, abs(want)) < 1e-12

    def test_positive_for_future_directions(self):
        rng = np.random.default_rng(70)
        fr, amps, psi = random_massive(rng, 3, size=50)
        for spec in (StandardTime(), NullOmega(), RandomTimelike(3)):
            ts = resolve_directions(spec, 3, psi, fr)
            assert np.min(contract_T(psi, ts)) > -1e-12

    def test_orthogonal_direction_rejected(self):
        rng = np.random.default_rng(71)
        p = np.array([np.sqrt(2.0), 0.0, 1.0, 0.0])
        fr = frame_massive(p, core.random_spinor(rng))
        amps = Amplitudes(n=2, mass=1.0, sign=+1,
                          f=rng.normal(size=3) + 0j)
        psi = synth_massive(fr, amps)
        bad = np.array([0.0, 1.0, 0.0, 0.0])   # t.p = 0 for this p
        with pytest.raises(OrthogonalDirection):
            resolve_directions(FixedList((bad, bad)), 2, psi)

    @pytest.mark.parametrize("slots, equal", [(2, True), (2, False), (4, False)],
                             ids=["two-equal", "two-unequal", "four-unequal"])
    def test_slot_count_must_match(self, slots, equal):
        rng = np.random.default_rng(76)
        fr, amps, psi = random_massive(rng, 3, size=5)
        ts = np.stack([core.random_timelike(rng, size=5) for _ in range(slots)])
        if equal:
            ts = np.broadcast_to(ts[0], ts.shape)
        with pytest.raises(ValenceMismatch, match=f"need 3 direction vectors, got {slots}"):
            contract_T(psi, ts)


@pytest.fixture
def no_monomial_route(monkeypatch):
    def fail(psi, ts):
        raise AssertionError("took the monomial route")
    monkeypatch.setattr(bw, "_monomial_pairing", fail)


class TestDirectionResolver:
    @pytest.mark.parametrize("spec", [FixedList(((1.2, 0.3, -0.1, 0.2),) * 3),
                                      FixedList(((1.2, 0.3, -0.1, 0.2),))],
                             ids=["three-equal", "one-vector"])
    def test_equal_fixed_list_pairs(self, no_monomial_route, spec):
        fr, amps, psi = random_massive(np.random.default_rng(72), 3, size=20)
        ts = resolve_directions(spec, 3, psi, fr)
        # the rotation that diagonalizes the dyad, composed with the inverse
        # of the one that moved the members into their basis
        a, lam = axis_rotation(ts[0])
        b = bw._product(a, bw._dagger(axis_rotation(psi.p)[0]))
        moved = dataclasses.replace(psi, comps=bw._move_members(psi.comps, b))
        assert np.array_equal(contract_T(psi, ts), bw._diagonal_pairing(moved, lam[:, 0], lam[:, 1]))

    def test_one_random_direction_pairs(self, no_monomial_route):
        fr, amps, psi = random_massive(np.random.default_rng(73), 1, size=20)
        got = norm_integrand(psi, RandomTimelike(4), fr)
        assert np.max(np.abs(got - np.sum(np.abs(amps.f) ** 2, axis=-1))
                      / np.sum(np.abs(amps.f) ** 2, axis=-1)) < 1e-12

    def test_distinct_directions_take_the_monomial_route(self, no_monomial_route):
        fr, amps, psi = random_massive(np.random.default_rng(74), 2, size=5)
        with pytest.raises(AssertionError, match="monomial route"):
            norm_integrand(psi, RandomTimelike(4), fr)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_one_vector_stands_for_every_slot(self, n):
        rng = np.random.default_rng(75 + n)
        fr, amps, psi = random_massive(rng, n, size=20)
        for v in (core.random_timelike(rng), core.random_timelike(rng, size=20)):
            one = norm_integrand(psi, FixedList((v,)), fr)
            assert np.array_equal(one, norm_integrand(psi, FixedList((v,) * n), fr))
        one = norm_integrand(psi, FixedList(((1.0, 0.0, 0.0, 0.0),)), fr)
        assert np.array_equal(one, norm_integrand(psi, StandardTime(), fr))

    def test_wrong_vector_count(self):
        fr, amps, psi = random_massive(np.random.default_rng(79), 3, size=4)
        t = core.random_timelike(np.random.default_rng(80))
        with pytest.raises(ValenceMismatch, match="need 1 or 3"):
            resolve_directions(FixedList((t, t)), 3, psi, fr)

    def test_massless_form_p_rejected(self):
        p = core.random_future_momentum(0.0, np.random.default_rng(81), size=6)
        psi = synth_massless(frame_massless(p).pi, np.ones(6), 2)
        # the message names the slot, the index only the sample
        with pytest.raises(OrthogonalDirection, match=r"t_1\.p .* at sample index \[0\]$"):
            norm_integrand(psi, None, form="p")

    def test_unknown_form_rejected(self):
        fr, amps, psi = random_massive(np.random.default_rng(83), 2, size=4)
        with pytest.raises(ValueError, match="form must be 't' or 'p', got 'q'"):
            norm_integrand(psi, None, fr, form="q")

    @pytest.mark.parametrize("n", [1, 3])
    def test_null_omega_default_frame(self, n):
        # without a frame, NullOmega takes the one frame_for builds
        rng = np.random.default_rng(82 + n)
        fr, amps, psi = random_massive(rng, n, size=20)
        want = norm_integrand(psi, NullOmega(), frame_for(psi.p, psi.mass))
        assert np.array_equal(norm_integrand(psi, NullOmega()), want)


@pytest.fixture
def no_slot_action(monkeypatch):
    # the rotated route is the one pairing that moves the members
    def fail(comps, a):
        raise AssertionError("took the slot action")
    monkeypatch.setattr(bw, "_move_members", fail)


def random_members(rng, n, mass):
    """A component whose members are random, not synthesized from amplitudes."""
    p = core.random_future_momentum(mass, rng)
    shapes = [(n - k + 1, k + 1) for k in range(n + 1 if mass > 0 else 1)]
    comps = tuple(SymMultiSpinor(r - 1, s - 1, rng.normal(size=(r, s))
                                 + 1j * rng.normal(size=(r, s))) for r, s in shapes)
    return BWComponent(n=n, mass=mass, sign=+1, p=p, comps=comps)


# one vector on every slot whose dyad is diagonal or of rank one in standard
# coordinates; p below is future-pointing timelike, so each has t.p != 0.  In
# the basis of the members the null ones stay of rank one to rounding and
# pair in closed form; a diagonal t off the light cone takes the slot action
FIXED = {"diagonal-null": (1.0, 0.0, 0.0, 1.0),
         "rank-one": (1.0, 0.6, 0.0, 0.8),
         "past-null": (-1.0, 0.6, 0.0, 0.8),
         "spacelike-diagonal": (0.3, 0.0, 0.0, 1.0)}
CLOSED_FORM = {k: t for k, t in FIXED.items() if k != "spacelike-diagonal"}


class TestPairingRoutes:
    """Equal directions whose dyad in the basis of the members is diagonal
    (the standard time direction, and t = p of form "p") or of rank one pair
    in closed form, without the slot action; every other equal direction
    takes it."""

    @pytest.mark.parametrize("spec, mass, form", [
        (StandardTime(), 1.0, "t"), (NullOmega(), 1.0, "t"), (NullOmega(), 0.0, "t"),
        (None, 1.0, "p"), *[(FixedList((t,)), 1.0, "t") for t in CLOSED_FORM.values()]],
        ids=["standard", "null-omega", "null-omega-massless", "form-p", *CLOSED_FORM])
    def test_closed_forms_skip_the_slot_action(self, no_slot_action, spec, mass, form):
        rng = np.random.default_rng(140)
        if mass > 0:
            fr, amps, psi = random_massive(rng, 3, size=20)
            want = sum(comb(3, k) * np.abs(amps.f[..., k]) ** 2 for k in range(4))
        else:
            p = core.random_future_momentum(0.0, rng, size=20)
            fr = frame_massless(p)
            f = rng.normal(size=20) + 1j * rng.normal(size=20)
            psi = synth_massless(fr.pi, f, 3)
            want = np.abs(f) ** 2
        got = norm_integrand(psi, spec, fr, form=form)
        assert np.max(np.abs(got - want) / want) < 1e-12

    # near-null is on the light cone by core.null_shell, but its dyad is
    # about 1.8e4 eps from rank one
    @pytest.mark.parametrize("t", [
        (1.2, 0.3, -0.1, 0.2), (-1.2, 0.3, -0.1, 0.2), (0.3, 0.5, -0.4, 0.7),
        (1.0, 0.6, 0.0, 0.8 + 1e-11), FIXED["spacelike-diagonal"]],
        ids=["timelike", "past-timelike", "spacelike", "near-null", "spacelike-t-z"])
    def test_general_dyads_take_the_slot_action(self, no_slot_action, t):
        fr, amps, psi = random_massive(np.random.default_rng(141), 3, size=20)
        with pytest.raises(AssertionError, match="slot action"):
            norm_integrand(psi, FixedList((t,)), fr)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("mass", [1.0, 0.0], ids=["massive", "massless"])
    @pytest.mark.parametrize("t", [(1.0, 0.0, 0.0, 0.0), *FIXED.values()],
                             ids=["standard", *FIXED])
    def test_closed_forms_match_bruteforce(self, request, n, mass, t):
        rng = np.random.default_rng(150 + n)
        psi = random_members(rng, n, mass)
        t = np.array(t)
        want = contract_T_bruteforce(standard(psi), [t] * n)
        if tuple(t) != FIXED["spacelike-diagonal"]:
            request.getfixturevalue("no_slot_action")
        got = float(contract_T(psi, np.broadcast_to(t, (n, 4))))
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    # the general route on random members; past and spacelike vectors give
    # diag(lam) a negative entry, so the powers of lam change sign
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("mass", [1.0, 0.0], ids=["massive", "massless"])
    @pytest.mark.parametrize("t", [(1.2, 0.3, -0.1, 0.2), (-1.2, 0.3, -0.1, 0.2),
                                   (0.3, 0.5, -0.4, 0.7), (1.0, 0.6, 0.0, 0.8 + 1e-11)],
                             ids=["timelike", "past-timelike", "spacelike", "near-null"])
    def test_general_dyads_match_bruteforce(self, n, mass, t):
        psi = random_members(np.random.default_rng(160 + n), n, mass)
        t = np.array(t)
        got = float(contract_T(psi, np.broadcast_to(t, (n, 4))))
        want = contract_T_bruteforce(standard(psi), [t] * n)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


AXIS_CASES = {"timelike": (1.2, 0.3, -0.1, 0.2), "future-null": (1.0, 0.6, 0.0, 0.8),
              "past-null": (-1.0, 0.6, 0.0, 0.8), "spacelike": (0.3, 0.5, -0.4, 0.7),
              "plus-z": (2.0, 0.0, 0.0, 1.5), "minus-z": (2.0, 0.0, 0.0, -1.5),
              "at-rest": (1.0, 0.0, 0.0, 0.0)}


class TestAxisRotation:
    """`frames.axis_rotation`, the one rotation that diagonalizes a direction
    dyad: a in SU(2) with a t^{AA'} a^dagger = diag(lam),
    lam = (t^0 + |t|, t^0 - |t|) / sqrt2."""

    @pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150], ids=["unit", "1e150", "1e-150"])
    @pytest.mark.parametrize("t", AXIS_CASES.values(), ids=AXIS_CASES)
    def test_diagonalizes_the_dyad(self, t, scale):
        t = scale * np.array(t)
        a, lam = axis_rotation(t)
        eps = np.finfo(float).eps
        assert np.max(np.abs(a @ np.conj(a.T) - np.eye(2))) <= 16 * eps
        assert abs(np.linalg.det(a) - 1.0) <= 16 * eps
        rotated = a @ core.vector_to_dyad(t, "up") @ np.conj(a.T)
        assert np.max(np.abs(rotated - np.diag(lam))) <= 16 * eps * np.max(np.abs(t))


def complex_formula_rotation(t):
    """`axis_rotation`'s a as it was first written, by complex arithmetic on
    the flag spinor xi: the values the part-by-part writes must reproduce."""
    v = t[..., 1:]
    length = np.hypot(np.hypot(v[..., 0], v[..., 1]), v[..., 2])
    x, y, z = np.moveaxis(v, -1, 0) / np.where(length > 0, length, 1.0)
    z = np.where(length > 0, z, 1.0)
    xi = np.where((z >= 0)[..., None], np.stack([1.0 + z, x + 1j * y], axis=-1),
                  np.stack([x - 1j * y, 1.0 - z], axis=-1))
    xi = xi / np.sqrt(2.0 * (1.0 + np.abs(z)))[..., None]
    return np.stack([np.conj(xi), np.stack([-xi[..., 1], xi[..., 0]], axis=-1)], axis=-2)


def test_axis_rotation_is_the_complex_formula():
    # bit for bit (up to the sign of a zero), on random directions, the time
    # axis, both poles, the equator, z = -0 and a zero-length t
    rng = np.random.default_rng(11)
    t = rng.normal(size=(4000, 4))
    t[:500, 3] = 0.0                      # equator
    t[500:1000, 3] = -0.0
    t[1000:1500, 1:3] = 0.0               # the z axis, both poles
    t[1500:2000, 1:] = 0.0                # zero-length spatial part
    t[2000:2500, 1:] *= 1e-200
    a, _ = axis_rotation(t)
    assert np.array_equal(a, complex_formula_rotation(t))
    assert np.array_equal(axis_rotation(t[7])[0], a[7])      # unbatched


def test_basis_is_derived_once_per_component(monkeypatch, tmp_path):
    # the builder of a component derives its basis, and every later reader
    # takes psi.basis: one rotation for each of the three components built
    # (synth_massive, transform_component, and from_standard in the field-file
    # reader) and one for each direction that is rotated (NullOmega and the
    # general FixedList); a Wigner state keeps the basis of its field
    calls = []

    def counted(t):
        calls.append(np.shape(t))
        return axis_rotation(t)

    monkeypatch.setattr(bw, "axis_rotation", counted)
    fr, amps, psi = random_massive(np.random.default_rng(190), 3, size=20)
    extract(psi, fr)
    for spec in (StandardTime(), NullOmega(), RandomTimelike(5), FixedList(((1.2, 0.3, -0.1, 0.2),))):
        norm_integrand(psi, spec, fr)
    norm_integrand(psi, None, fr, form="p")
    bw.to_standard(transform_component(psi, core.random_sl2c(np.random.default_rng(191))))
    write_field_file(tmp_path / "field.json", psi)
    w = wigner_state(read_field_file(tmp_path / "field.json").component, StandardTime(), fr)
    extract(w, fr)
    norm_integrand(w, None, fr, form="p")
    bw.to_standard(w)
    assert len(calls) == 5, calls


class TestNormIntegrand:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_direction_independence(self, n):
        rng = np.random.default_rng(80 + n)
        fr, amps, psi = random_massive(rng, n, size=40)
        base = norm_integrand(psi, StandardTime(), fr)
        for spec in (NullOmega(), RandomTimelike(5),
                     FixedList(tuple(core.random_timelike(rng)
                                     for _ in range(n)))):
            other = norm_integrand(psi, spec, fr)
            assert np.max(np.abs(other - base) / np.maximum(1.0, base)) < 1e-10

    def test_p_form_equals_t_form(self):
        rng = np.random.default_rng(90)
        fr, amps, psi = random_massive(rng, 2, size=40)
        t_form = norm_integrand(psi, RandomTimelike(1), fr)
        p_form = norm_integrand(psi, None, fr, form="p")
        assert np.max(np.abs(t_form - p_form) / np.maximum(1.0, p_form)) < 1e-10

    def test_member_amplitude_sum(self):
        # null-omega integrand = sum over the 2^n labelled members |f|^2
        from math import comb
        rng = np.random.default_rng(91)
        for n in (1, 2, 3):
            fr, amps, psi = random_massive(rng, n, size=30)
            got = norm_integrand(psi, NullOmega(), fr)
            want = sum(comb(n, k) * np.abs(amps.f[..., k]) ** 2
                       for k in range(n + 1))
            assert np.max(np.abs(got - want) / np.maximum(1.0, want)) < 1e-11

    def test_standard_ratio(self):
        rng = np.random.default_rng(92)
        for n in (1, 2, 3):
            fr, amps, psi = random_massive(rng, n, size=30)
            gen = norm_integrand(psi, StandardTime(), fr)
            std = standard_bw_integrand(psi)
            assert np.max(np.abs(gen / std - 2.0 ** (-n / 2))) < 1e-12

    def test_standard_integrand_vs_bruteforce(self):
        rng = np.random.default_rng(93)
        fr, amps, psi = random_massive(rng, 3)
        want = standard_sum_bruteforce(psi) / psi.p[0] ** 3
        assert_allclose(standard_bw_integrand(psi), want, atol=1e-12)


class TestMassless:
    def test_forward_beam_structure(self):
        # psi_{AB} = pi_A pi_B f with pi^A = (2^{1/4}, 0): only the lowered
        # (1,1) entry survives and equals sqrt(2) f
        psi = synth_massless(np.array([2 ** 0.25, 0.0]), 1.0, 2)
        dense = dense_from_graded(psi.comps[0].comp, 2, 0)
        want = np.zeros((2, 2), dtype=complex)
        want[1, 1] = ROOT2
        assert_allclose(dense, want, atol=1e-14)

    def test_zero_amplitude(self):
        psi = synth_massless(np.array([2 ** 0.25, 0.0]), 0.0, 3)
        assert np.max(np.abs(psi.comps[0].comp)) == 0.0

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_roundtrip(self, n):
        rng = np.random.default_rng(100 + n)
        p = core.random_future_momentum(0.0, rng, size=20)
        fr = frame_massless(p)
        f = rng.normal(size=20) + 1j * rng.normal(size=20)
        psi = synth_massless(fr.pi, f, n)
        assert np.max(np.abs(extract(psi, fr).f[..., 0] - f)) < 1e-12

    def test_specific_roundtrip_value(self):
        p = core.random_future_momentum(0.0, 7)
        fr = frame_massless(p)
        psi = synth_massless(fr.pi, 3.0 + 4.0j, 2)
        assert abs(extract(psi, fr).f[..., 0] - (3 + 4j)) < 1e-12

    @pytest.mark.parametrize("n,sign", [(1, +1), (3, +1), (3, -1), (6, +1)])
    def test_hertz_route(self, n, sign):
        rng = np.random.default_rng(110 + n)
        p = core.random_future_momentum(0.0, rng, size=10)
        fr = frame_massless(p)
        f = rng.normal(size=10) + 1j * rng.normal(size=10)
        eta = eta_from_frame(fr, n, sign)
        xi = SymMultiSpinor(0, n, eta.comp * f[..., None, None])
        via_hertz = hertz_psi(xi, p, sign)
        direct = synth_massless(fr.pi, f, n, sign)
        assert np.max(np.abs(via_hertz.comps[0].comp
                             - direct.comps[0].comp)) < 1e-12

    def test_eta_normalization(self):
        # p_{b_1}...p_{b_n} eta^{B'_1...} etabar^{B_1...} = 1
        import itertools
        rng = np.random.default_rng(120)
        p = core.random_future_momentum(0.0, rng)
        fr = frame_massless(p)
        n = 3
        eta = dense(eta_from_frame(fr, n, +1))
        p_low = core.vector_to_dyad(p, "low")
        val = 0.0 + 0.0j
        for idx in itertools.product(range(2), repeat=n):
            for jdx in itertools.product(range(2), repeat=n):
                w = eta[idx] * np.conj(eta[jdx])
                for slot in range(n):
                    w *= p_low[jdx[slot], idx[slot]]
                val += w
        assert abs(val - 1.0) < 1e-12

    def test_transversality(self):
        # the massless momentum equation: p^{AA'} psi_{A...} = 0 slotwise
        rng = np.random.default_rng(121)
        p = core.random_future_momentum(0.0, rng, size=20)
        fr = frame_massless(p)
        f = rng.normal(size=20) + 1j * rng.normal(size=20)
        n = 3
        psi = standard(synth_massless(fr.pi, f, n))
        dense = dense_from_graded(psi.comps[0].comp, n, 0)
        pup = core.vector_to_dyad(p, "up")
        hit = np.einsum('...ABC,...Az->...zBC', dense, pup)
        assert np.max(np.abs(hit)) < 1e-13

    @pytest.mark.parametrize("n", [1, 3])
    def test_helicity_residual(self, n):
        rng = np.random.default_rng(130 + n)
        p = core.random_future_momentum(0.0, rng, size=20)
        fr = frame_massless(p)
        f = rng.normal(size=20) + 1j * rng.normal(size=20)
        psi = synth_massless(fr.pi, f, n)
        assert np.max(helicity_residual_massless(psi)) < 1e-11

    def test_helicity_beam_n1(self):
        psi = synth_massless(np.array([2 ** 0.25, 0.0]), 1.0, 1)
        assert helicity_residual_massless(psi) < 1e-13

    def test_wrong_helicity_detected(self):
        p = core.random_future_momentum(0.0, 8)
        fr = frame_massless(p)
        wrong = adapted(BWComponent(n=2, mass=0.0, sign=+1, p=p, comps=(
            sym_outer([core.lower_spinor(fr.omega)] * 2, []),)))
        assert helicity_residual_massless(wrong) > 0.01

    @pytest.mark.parametrize("n", range(1, MAX_N + 1))
    def test_graded_helicity_residual_matches_loops(self, n):
        rng = np.random.default_rng(170 + n)
        p = core.random_future_momentum(0.0, rng)
        fr = frame_massless(p)
        psi = synth_massless(fr.pi, rng.normal() + 1j * rng.normal(), n)
        assert np.max(helicity_residual_massless(psi)) < 1e-11
        assert helicity_residual_loop(standard(psi)) < 1e-11
        comp = rng.normal(size=(n + 1, 1)) + 1j * rng.normal(size=(n + 1, 1))
        wrong = BWComponent(n=n, mass=0.0, sign=+1, p=p,
                            comps=(SymMultiSpinor(n, 0, comp),))
        got = float(helicity_residual_massless(wrong))
        # the loops on the same member, with the generators moved into its basis
        want = helicity_residual_loop(wrong, core.sl2c_lower_rep(axis_rotation(p)[0]))
        assert got > 0.01
        assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("n", range(1, MAX_N + 1))
    def test_graded_hertz_matches_loops(self, n):
        # a generic all-primed xi, not only the eta-built one
        rng = np.random.default_rng(180 + n)
        p = core.random_future_momentum(0.0, rng)
        xi = SymMultiSpinor(0, n, rng.normal(size=(1, n + 1))
                            + 1j * rng.normal(size=(1, n + 1)))
        for sign in (+1, -1):
            got = dense(bw.to_standard(hertz_psi(xi, p, sign))[0])
            want = hertz_loop(xi, p, sign)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_amplitude_norm_any_direction(self):
        rng = np.random.default_rng(140)
        p = core.random_future_momentum(0.0, rng, size=30)
        fr = frame_massless(p)
        f = rng.normal(size=30) + 1j * rng.normal(size=30)
        psi = synth_massless(fr.pi, f, 2)
        for spec in (StandardTime(), NullOmega(), RandomTimelike(2)):
            got = norm_integrand(psi, spec)
            assert np.max(np.abs(got - np.abs(f) ** 2)) < 1e-10

    def test_wigner_state_roundtrip(self):
        rng = np.random.default_rng(141)
        p = core.random_future_momentum(0.0, rng, size=10)
        fr = frame_massless(p)
        f = rng.normal(size=10) + 1j * rng.normal(size=10)
        psi = synth_massless(fr.pi, f, 2)
        w = wigner_state(psi, StandardTime())
        root = np.sqrt(np.prod(core.minkowski(
            resolve_directions(StandardTime(), 2, psi), p), axis=0))
        assert np.max(np.abs(w.comps[0].comp * root[..., None, None]
                             - psi.comps[0].comp)) < 1e-13

    def test_wigner_state_null_omega_norm(self):
        rng = np.random.default_rng(142)
        p = core.random_future_momentum(0.0, rng)
        fr = frame_massless(p)
        psi = synth_massless(fr.pi, 2.0 - 1.0j, 2)
        w = wigner_state(psi, NullOmega())
        ts = resolve_directions(NullOmega(), 2, psi)
        assert abs(contract_T(w, ts) - abs(2 - 1j) ** 2) < 1e-11

    def test_extract_needs_matching_partner(self):
        p = core.random_future_momentum(0.0, 9)
        other = core.random_future_momentum(0.0, 10)
        psi = synth_massless(frame_massless(p).pi, 1.0, 2)
        with pytest.raises(FrameMismatch):
            extract(psi, frame_massless(other))


def wigner_field(n, mass, size=40):
    """(frame, psi) of random amplitudes at random momenta of the mass."""
    rng = np.random.default_rng(190 + n)
    if mass > 0:
        fr, _, psi = random_massive(rng, n, size=size, mass=mass)
        return fr, psi
    fr = frame_massless(core.random_future_momentum(0.0, rng, size=size))
    return fr, synth_massless(fr.pi, rng.normal(size=size) + 1j * rng.normal(size=size), n)


@pytest.mark.parametrize("spec", [StandardTime(), NullOmega(), RandomTimelike(5)],
                         ids=lambda spec: type(spec).__name__)
@pytest.mark.parametrize("mass", [1.0, 0.0])
@pytest.mark.parametrize("n", range(1, MAX_N + 1))
class TestWignerStateEveryMass:
    """psi / [t_1.p ... t_n.p]^{1/2} at both masses and every n."""

    def test_roundtrip(self, n, mass, spec):
        fr, psi = wigner_field(n, mass)
        ts = resolve_directions(spec, n, psi, fr)
        root = np.sqrt(np.prod(core.minkowski(ts, psi.p), axis=0).astype(complex))
        w = wigner_state(psi, spec, fr)
        assert len(w.comps) == len(psi.comps)
        scale = np.maximum.reduce([core.max_abs(c.comp, 2) for c in psi.comps])
        worst = np.maximum.reduce([core.max_abs(root[:, None, None] * cw.comp - c.comp, 2)
                                   for cw, c in zip(w.comps, psi.comps)])
        assert np.max(worst / scale) < 1e-14

    def test_pairing_is_the_norm_integrand(self, n, mass, spec):
        # the pairing of the Wigner state is the norm integrand; both sides
        # carry the conditioning of the same route, so the gate is the one
        # verify's table sets on the direction independence of massive fields
        fr, psi = wigner_field(n, mass)
        ts = resolve_directions(spec, n, psi, fr)
        want = norm_integrand(psi, spec, fr)
        got = contract_T(wigner_state(psi, spec, fr), ts)
        gate = 1e-8 if n >= 8 else 1e-10
        assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) < gate


class TestTransform:
    def test_identity(self):
        rng = np.random.default_rng(150)
        fr, amps, psi = random_massive(rng, 2, size=5)
        moved = transform_component(psi, np.eye(2))
        assert np.max(np.abs(moved.p - psi.p)) < 1e-14
        for k in range(3):
            assert np.max(np.abs(moved.comps[k].comp - psi.comps[k].comp)) < 1e-14

    def test_p_form_scalar(self):
        rng = np.random.default_rng(151)
        fr, amps, psi = random_massive(rng, 2, size=30)
        a = core.random_sl2c(rng)
        moved = transform_component(psi, a)
        base = norm_integrand(psi, None, fr, form="p")
        after = norm_integrand(moved, None, None, form="p")
        assert np.max(np.abs(after - base) / np.maximum(1.0, base)) < 1e-10

    def test_transformed_field_still_solves(self):
        rng = np.random.default_rng(152)
        fr, amps, psi = random_massive(rng, 3, size=10)
        moved = transform_component(psi, core.random_sl2c(rng))
        assert np.max(field_equation_residual_massive(moved)) < 1e-11

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(153)
        fr, amps, psi = random_massive(rng, 2, size=10)
        a = core.random_sl2c(rng)
        inv = np.linalg.inv(a)
        inv /= np.sqrt(np.linalg.det(inv))
        back = transform_component(transform_component(psi, a), inv)
        assert np.max(np.abs(back.p - psi.p)) < 1e-11
        for k in range(3):
            assert np.max(np.abs(back.comps[k].comp - psi.comps[k].comp)) < 1e-11

    def test_massless_rotation_scalar(self):
        rng = np.random.default_rng(154)
        p = core.random_future_momentum(0.0, rng, size=20)
        fr = frame_massless(p)
        f = rng.normal(size=20) + 1j * rng.normal(size=20)
        psi = synth_massless(fr.pi, f, 2)
        theta = 0.3
        rot = np.array([[np.exp(1j * theta / 2), 0],
                        [0, np.exp(-1j * theta / 2)]])
        moved = transform_component(psi, rot)
        base = norm_integrand(psi, StandardTime())
        after = norm_integrand(moved, StandardTime())
        assert np.max(np.abs(after - base) / np.maximum(1.0, base)) < 1e-10


class TestNonFiniteInput:
    """NaN input is rejected with the first bad sample named, never passed
    through as a NaN result."""

    @pytest.mark.filterwarnings("error")
    def test_hertz_nan_momentum(self):
        rng = np.random.default_rng(160)
        p = core.random_future_momentum(0.0, rng, size=4)
        xi = eta_from_frame(frame_massless(p), 2)
        p[2, 1] = np.nan
        with pytest.raises(NotNull, match=r"sample index \[2\]"):
            hertz_psi(xi, p)

    def test_field_equation_residual_nan_amplitude(self):
        # synthesis rejects a NaN amplitude (test_synth_rejects_nan_amplitude),
        # so the NaN goes into the member that the amplitude would feed; it
        # stays at its own sample
        rng = np.random.default_rng(163)
        fr, amps, psi = random_massive(rng, 2, size=3)
        comp = psi.comps[0].comp.copy()
        comp[1, 0, 0] = np.nan
        psi = dataclasses.replace(psi, comps=(SymMultiSpinor(2, 0, comp),) + psi.comps[1:])
        res = field_equation_residual_massive(psi)
        assert np.isnan(res[1]) and np.all(np.isfinite(res[[0, 2]]))

    @pytest.mark.filterwarnings("error")
    def test_synth_rejects_nan_amplitude(self):
        rng = np.random.default_rng(163)
        fr, amps, psi = random_massive(rng, 2, size=3)
        f = amps.f.copy()
        f[1, 0] = np.nan
        with pytest.raises(NotFinite, match=r"sample index \[1\]$"):
            synth_massive(fr, Amplitudes(n=2, mass=1.0, sign=+1, f=f))
        with pytest.raises(NotFinite, match=r"sample index \[1\]$"):
            synth_massless(frame_massless(core.random_future_momentum(0.0, rng, size=3)).pi,
                           np.array([1.0, np.inf, 1.0]), 2)

    @pytest.mark.filterwarnings("error")
    def test_transform_nan_matrix(self):
        rng = np.random.default_rng(161)
        fr, amps, psi = random_massive(rng, 2, size=3)
        a = core.random_sl2c(rng, size=3)
        a[1, 0, 1] = np.nan
        with pytest.raises(NonUnitDeterminant, match=r"sample index \[1\]"):
            transform_component(psi, a)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_norm_nonfinite_direction(self, bad):
        rng = np.random.default_rng(162)
        fr, amps, psi = random_massive(rng, 2, size=3)
        with pytest.raises(OrthogonalDirection, match=r"t_2\.p .* at sample index \[0\]$"):
            norm_integrand(psi, FixedList(((1, 0, 0, 0), (bad, 0, 0, 0))))

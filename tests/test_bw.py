import numpy as np
import pytest
from numpy.testing import assert_allclose

from bwspinor import core
from bwspinor.bw import (MAX_N, Amplitudes, FixedList, NullOmega, RandomTimelike,
                         StandardTime, contract_T, extract_massive,
                         extract_massless, eta_from_frame,
                         field_equation_residual_massive,
                         helicity_residual_massless, hertz_psi, norm_integrand,
                         resolve_directions, standard_bw_integrand,
                         synth_massive, synth_massless, transform_component,
                         wigner_state, BWComponent)
from bwspinor.errors import (FrameMismatch, NonUnitDeterminant, NotMassive,
                             NotNull, OrthogonalDirection)
from bwspinor.frames import frame_massive, frame_massless
from bwspinor.multispinor import SymMultiSpinor, sym_outer
from bwspinor.pauli_lubanski import chi_basis, default_normalization
from oracles import (contract_T_bruteforce, dense, dense_from_graded,
                     extract_bruteforce, field_equation_residual_loop,
                     helicity_residual_loop, hertz_loop,
                     standard_sum_bruteforce)

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


class TestSynthMassive:
    def test_n1_matches_chi_expansion(self):
        rng = np.random.default_rng(0)
        p = core.random_future_momentum(1.0, rng)
        fr = frame_massive(p, core.random_spinor(rng))
        f = rng.normal(size=2) + 1j * rng.normal(size=2)
        for sign in (+1, -1):
            amps = Amplitudes(n=1, mass=1.0, sign=sign, f=f)
            psi = synth_massive(fr, amps)
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
        got = extract_bruteforce(psi, fr, complex(default_normalization(fr)))
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


class TestFieldEquations:
    @pytest.mark.parametrize("n,sign", [(1, +1), (2, +1), (2, -1), (4, +1)])
    def test_synth_solves(self, n, sign):
        rng = np.random.default_rng(n + 10)
        fr, amps, psi = random_massive(rng, n, size=15, sign=sign)
        assert field_equation_residual_massive(psi) < 1e-11

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
        assert field_equation_residual_massive(psi) < 1e-11
        assert field_equation_residual_loop(psi) < 1e-11
        comps = tuple(SymMultiSpinor(n - k, k, rng.normal(size=(n - k + 1, k + 1))
                                     + 1j * rng.normal(size=(n - k + 1, k + 1)))
                      for k in range(n + 1))
        wrong = BWComponent(n=n, mass=1.0, sign=+1, p=psi.p, comps=comps)
        got = field_equation_residual_massive(wrong)
        want = field_equation_residual_loop(wrong)
        assert got > 0.01
        assert abs(got - want) <= 1e-12 * want


class TestContractT:
    def test_n1_standard_time(self):
        # t = e0 contracts to the component-square sum over sqrt(2)
        rng = np.random.default_rng(60)
        fr, amps, psi = random_massive(rng, 1)
        ts, _ = resolve_directions(StandardTime(), 1, psi)
        got = contract_T(psi, ts)
        want = standard_sum_bruteforce(psi) / ROOT2
        assert_allclose(got, want, atol=1e-12)

    def test_zero_field(self):
        p = np.array([1.0, 0, 0, 0])
        comps = tuple(SymMultiSpinor(1 - k, k, np.zeros((2 - k, k + 1), dtype=complex))
                      for k in range(2))
        psi = BWComponent(n=1, mass=1.0, sign=+1, p=p, comps=comps)
        assert contract_T(psi, resolve_directions(StandardTime(), 1, psi)[0]) == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_bruteforce(self, n):
        rng = np.random.default_rng(61 + n)
        fr, amps, psi = random_massive(rng, n)
        ts = [core.random_timelike(rng) for _ in range(n)]
        got = contract_T(psi, np.stack(ts))
        want = contract_T_bruteforce(psi, ts)
        assert abs(got - want) / max(1.0, abs(want)) < 1e-12

    def test_positive_for_future_directions(self):
        rng = np.random.default_rng(70)
        fr, amps, psi = random_massive(rng, 3, size=50)
        for spec in (StandardTime(), NullOmega(), RandomTimelike(3)):
            ts, eq = resolve_directions(spec, 3, psi, fr)
            assert np.min(contract_T(psi, ts, eq)) > -1e-12

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
        assert np.max(np.abs(extract_massless(psi, fr.omega) - f)) < 1e-12

    def test_specific_roundtrip_value(self):
        p = core.random_future_momentum(0.0, 7)
        fr = frame_massless(p)
        psi = synth_massless(fr.pi, 3.0 + 4.0j, 2)
        assert abs(extract_massless(psi, fr.omega) - (3 + 4j)) < 1e-12

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
        psi = synth_massless(fr.pi, f, n)
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
        assert helicity_residual_massless(psi) < 1e-11

    def test_helicity_beam_n1(self):
        psi = synth_massless(np.array([2 ** 0.25, 0.0]), 1.0, 1)
        assert helicity_residual_massless(psi) < 1e-13

    def test_wrong_helicity_detected(self):
        p = core.random_future_momentum(0.0, 8)
        fr = frame_massless(p)
        wrong = BWComponent(n=2, mass=0.0, sign=+1, p=p, comps=(
            sym_outer([core.lower_spinor(fr.omega)] * 2, []),))
        assert helicity_residual_massless(wrong) > 0.01

    @pytest.mark.parametrize("n", range(1, MAX_N + 1))
    def test_graded_helicity_residual_matches_loops(self, n):
        rng = np.random.default_rng(170 + n)
        p = core.random_future_momentum(0.0, rng)
        fr = frame_massless(p)
        psi = synth_massless(fr.pi, rng.normal() + 1j * rng.normal(), n)
        assert helicity_residual_massless(psi) < 1e-11
        assert helicity_residual_loop(psi) < 1e-11
        comp = rng.normal(size=(n + 1, 1)) + 1j * rng.normal(size=(n + 1, 1))
        wrong = BWComponent(n=n, mass=0.0, sign=+1, p=p,
                            comps=(SymMultiSpinor(n, 0, comp),))
        got = helicity_residual_massless(wrong)
        want = helicity_residual_loop(wrong)
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
            got = dense(hertz_psi(xi, p, sign).comps[0])
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
            resolve_directions(StandardTime(), 2, psi)[0], p), axis=0))
        assert np.max(np.abs(w.comp * root[..., None, None]
                             - psi.comps[0].comp)) < 1e-13

    def test_wigner_state_null_omega_norm(self):
        rng = np.random.default_rng(142)
        p = core.random_future_momentum(0.0, rng)
        fr = frame_massless(p)
        psi = synth_massless(fr.pi, 2.0 - 1.0j, 2)
        w = wigner_state(psi, NullOmega())
        scaled = BWComponent(n=2, mass=0.0, sign=+1, p=p, comps=(w,))
        ts, eq = resolve_directions(NullOmega(), 2, psi)
        assert abs(contract_T(scaled, ts, eq) - abs(2 - 1j) ** 2) < 1e-11

    def test_wigner_state_rejects_massive(self):
        # it used to return the k = 0 member alone, scaled
        _, _, psi = random_massive(np.random.default_rng(143), 2, size=3)
        with pytest.raises(NotNull):
            wigner_state(psi, StandardTime())

    def test_extract_needs_matching_partner(self):
        p = core.random_future_momentum(0.0, 9)
        other = core.random_future_momentum(0.0, 10)
        psi = synth_massless(frame_massless(p).pi, 1.0, 2)
        wrong_partner = frame_massless(other).omega
        with pytest.raises(FrameMismatch):
            extract_massless(psi, wrong_partner)


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
        assert field_equation_residual_massive(moved) < 1e-11

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
        rng = np.random.default_rng(163)
        fr, amps, psi = random_massive(rng, 2, size=3)
        f = amps.f.copy()
        f[1, 0] = np.nan
        psi = synth_massive(fr, Amplitudes(n=2, mass=1.0, sign=+1, f=f))
        assert np.isnan(field_equation_residual_massive(psi))

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
        with pytest.raises(OrthogonalDirection, match=r"sample index \[1, 0\]"):
            norm_integrand(psi, FixedList(((1, 0, 0, 0), (bad, 0, 0, 0))))

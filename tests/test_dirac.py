import numpy as np
import pytest
from numpy.testing import assert_allclose

from bwspinor import core
from bwspinor.bw import NullOmega, norm_integrand
from bwspinor.dirac import (dirac_component, dirac_current, dirac_norm_integrand,
                            dirac_operator, dirac_residual, dirac_solution,
                            extract_dirac, gamma_set)
from bwspinor.errors import NotMassive
from bwspinor.frames import frame_massive
from bwspinor.pauli_lubanski import chi_basis

GS = gamma_set()


class TestGammaAlgebra:
    def test_gamma0_squares_to_identity(self):
        assert_allclose(GS.gammas[0] @ GS.gammas[0], np.eye(4), atol=1e-14)

    def test_spatial_gammas_anticommute(self):
        g1, g2 = GS.gammas[1], GS.gammas[2]
        assert np.max(np.abs(g1 @ g2 + g2 @ g1)) < 1e-14

    def test_full_clifford_table(self):
        for q in range(4):
            for r in range(4):
                acom = GS.gammas[q] @ GS.gammas[r] + GS.gammas[r] @ GS.gammas[q]
                assert np.max(np.abs(acom - 2 * core.METRIC[q, r] * np.eye(4))) < 1e-14

    def test_commutator_matches_generators(self):
        low_s = core.lower_world_pair(core.SIGMA)
        low_sb = core.lower_world_pair(core.SIGMABAR)
        for q in range(4):
            for r in range(4):
                com = GS.gammas[q] @ GS.gammas[r] - GS.gammas[r] @ GS.gammas[q]
                block = np.zeros((4, 4), dtype=complex)
                block[0:2, 0:2] = low_s[q, r]
                block[2:4, 2:4] = low_sb[q, r]
                assert np.max(np.abs(com - 4j * block)) < 1e-14

    def test_gamma5_product_equals_block_form(self):
        assert_allclose(GS.gamma5, GS.gamma5_block, atol=1e-14)
        assert_allclose(GS.gamma5, np.diag([-1, -1, 1, 1]), atol=1e-14)

    def test_gamma5_anticommutes_and_squares(self):
        for q in range(4):
            assert np.max(np.abs(GS.gamma5 @ GS.gammas[q]
                                 + GS.gammas[q] @ GS.gamma5)) < 1e-14
        assert_allclose(GS.gamma5 @ GS.gamma5, np.eye(4), atol=1e-14)


class TestDiracSolutions:
    def test_rest_frame_residual(self):
        fr = frame_massive(np.array([1.0, 0, 0, 0]), np.array([1.0, 0.0]))
        psi = dirac_solution(fr, 1.0, 0.0)
        assert dirac_residual(psi, fr.p, 1.0, +1) < 1e-13

    def test_chi_basis_solves(self):
        rng = np.random.default_rng(0)
        p = core.random_future_momentum(1.0, rng, size=100)
        fr = frame_massive(p, core.random_spinor(rng, size=100))
        chis = chi_basis(fr)
        for (s, e), vec in chis.items():
            op = dirac_operator(p, e)
            res = np.einsum('...ab,...b->...a', op, vec) - vec / np.sqrt(2.0)
            assert np.max(np.abs(res)) < 1e-13

    def test_extraction_roundtrip(self):
        rng = np.random.default_rng(1)
        p = core.random_future_momentum(1.0, rng, size=100)
        fr = frame_massive(p, core.random_spinor(rng, size=100))
        f0 = rng.normal(size=100) + 1j * rng.normal(size=100)
        f1 = rng.normal(size=100) + 1j * rng.normal(size=100)
        for sign in (+1, -1):
            psi = dirac_solution(fr, f0, f1, sign)
            g0, g1 = extract_dirac(psi, fr)
            assert np.max(np.abs(g0 - f0)) < 1e-13
            assert np.max(np.abs(g1 - f1)) < 1e-13

    def test_zero_amplitudes(self):
        fr = frame_massive(np.array([1.0, 0, 0, 0]), np.array([1.0, 0.0]))
        assert np.max(np.abs(dirac_solution(fr, 0.0, 0.0))) == 0.0

    def test_massless_rejected(self):
        from bwspinor.frames import frame_massless
        fr = frame_massless(np.array([1.0, 0, 0, 1.0]))
        with pytest.raises(NotMassive):
            dirac_solution(fr, 1.0, 0.0)


class TestCurrent:
    def test_chi_current_future(self):
        fr = frame_massive(np.array([1.0, 0, 0, 0]), np.array([1.0, 0.0]))
        j = dirac_current(chi_basis(fr)[(+1, +1)])
        assert j[0] > 0

    def test_zero(self):
        assert np.max(np.abs(dirac_current(np.zeros(4, dtype=complex)))) == 0.0

    def test_single_flagpole_null(self):
        rng = np.random.default_rng(2)
        psi = np.concatenate([core.random_spinor(rng), np.zeros(2)])
        j = dirac_current(psi)
        assert abs(core.minkowski(j, j)) < 1e-12 * max(1.0, j[0] ** 2)
        assert j[0] >= 0

    def test_bispinor_chain_route(self):
        # j_a = sqrt2 (psibar^{A'}, xibar^A) . twist . (gamma_a / sqrt2) . Psi,
        # where the twist block swap is the second object textbooks also call
        # "gamma_0"
        rng = np.random.default_rng(20)
        p = core.random_future_momentum(1.0, rng, size=50)
        fr = frame_massive(p, core.random_spinor(rng, size=50))
        f0 = rng.normal(size=50) + 1j * rng.normal(size=50)
        f1 = rng.normal(size=50) + 1j * rng.normal(size=50)
        psi = dirac_solution(fr, f0, f1)
        row = np.concatenate([core.raise_spinor(np.conj(psi[..., 0:2])),
                              core.raise_spinor(np.conj(psi[..., 2:4]))],
                             axis=-1)
        j_low = np.stack([
            np.einsum('...a,ab,bc,...c->...', row, GS.current_metric,
                      GS.gammas[q] / np.sqrt(2.0), psi) * np.sqrt(2.0)
            for q in range(4)], axis=-1)
        assert np.max(np.abs(np.imag(j_low))) < 1e-13
        assert_allclose(np.real(j_low) @ core.METRIC, dirac_current(psi),
                        atol=1e-12)

    def test_random_solutions_causal(self):
        rng = np.random.default_rng(3)
        p = core.random_future_momentum(1.0, rng, size=2000)
        fr = frame_massive(p, core.random_spinor(rng, size=2000))
        f0 = rng.normal(size=2000) + 1j * rng.normal(size=2000)
        f1 = rng.normal(size=2000) + 1j * rng.normal(size=2000)
        j = dirac_current(dirac_solution(fr, f0, f1))
        assert np.all(j[..., 0] >= 0)
        assert np.min(core.mass_squared(j)
                      / np.maximum(j[..., 0] ** 2, 1e-300)) > -1e-12


class TestNormIntegrand:
    def test_unit_amplitude(self):
        fr = frame_massive(np.array([1.0, 0, 0, 0]), np.array([1.0, 0.0]))
        psi = dirac_solution(fr, 1.0, 0.0)
        assert_allclose(dirac_norm_integrand(psi, fr), 1.0, atol=1e-13)

    def test_three_four(self):
        fr = frame_massive(np.array([1.0, 0, 0, 0]), np.array([1.0, 0.0]))
        psi = dirac_solution(fr, 3.0, 4.0)
        assert_allclose(dirac_norm_integrand(psi, fr), 25.0, atol=1e-12)

    def test_matches_bw_route(self):
        rng = np.random.default_rng(4)
        p = core.random_future_momentum(1.0, rng, size=200)
        fr = frame_massive(p, core.random_spinor(rng, size=200))
        f0 = rng.normal(size=200) + 1j * rng.normal(size=200)
        f1 = rng.normal(size=200) + 1j * rng.normal(size=200)
        direct = dirac_norm_integrand(dirac_solution(fr, f0, f1), fr)
        via_bw = norm_integrand(dirac_component(fr, f0, f1), NullOmega(), fr)
        assert np.max(np.abs(direct - via_bw) / np.maximum(1.0, direct)) < 1e-12

    def test_positive_energy_current_projection(self):
        # p.j of a positive-energy solution is positive and scales with the
        # amplitude power
        rng = np.random.default_rng(5)
        p = core.random_future_momentum(1.0, rng, size=100)
        fr = frame_massive(p, core.random_spinor(rng, size=100))
        f0 = rng.normal(size=100) + 1j * rng.normal(size=100)
        f1 = rng.normal(size=100) + 1j * rng.normal(size=100)
        j = dirac_current(dirac_solution(fr, f0, f1))
        pj = core.minkowski(p, j)
        assert np.all(pj > 0)
        j2 = dirac_current(dirac_solution(fr, 2 * f0, 2 * f1))
        assert_allclose(core.minkowski(p, j2), 4 * pj, rtol=1e-12)

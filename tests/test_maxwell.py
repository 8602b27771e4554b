import numpy as np
import pytest
from numpy.testing import assert_allclose

from bwspinor import core
from bwspinor.bw import FixedList, from_standard, norm_integrand
from bwspinor.errors import InconsistentPair, NotAntisymmetric, OrthogonalDirection
from bwspinor.frames import frame_massless
from bwspinor.maxwell import (electric_field, em_spinor,
                              field_strength_from_phi,
                              field_strength_from_potential, gk_norm_integrand,
                              lorenz_residual, magnetic_field,
                              phi_from_potential, stress_tensor,
                              stress_tensor_field, stress_tensor_spinor)
from bwspinor.multispinor import SymMultiSpinor


def random_phi(rng, size=None):
    shape = (2, 2) if size is None else (size, 2, 2)
    phi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return 0.5 * (phi + np.swapaxes(phi, -1, -2))


def lorenz_potential(rng, p, size=None):
    shape = (4,) if size is None else (size, 4)
    pot = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    e0 = np.zeros_like(pot)
    e0[..., 0] = 1.0
    return pot - (core.minkowski(p, pot) / p[..., 0])[..., None] * e0


class TestEmSpinor:
    def test_zero(self):
        assert np.max(np.abs(em_spinor(np.zeros((4, 4))))) == 0.0

    def test_symmetric_for_any_antisymmetric_f(self):
        rng = np.random.default_rng(0)
        f = rng.normal(size=(100, 4, 4)) + 1j * rng.normal(size=(100, 4, 4))
        f = f - np.swapaxes(f, -1, -2)
        phi = em_spinor(f)
        assert np.max(np.abs(phi - np.swapaxes(phi, -1, -2))) < 1e-14

    def test_plane_wave_rank_one(self):
        # the self-dual combination of a beam is proportional to pi pi
        p = np.array([1.0, 0, 0, 1.0])
        fr = frame_massless(p)
        pot = lorenz_potential(np.random.default_rng(1), p)
        phi = em_spinor(field_strength_from_potential(pot, p))
        pil = core.lower_spinor(fr.pi)
        outer = np.einsum('A,B->AB', pil, pil)
        mask = np.abs(outer) > 1e-8
        ratios = phi[mask] / outer[mask]
        assert np.max(np.abs(ratios - ratios.flat[0])) < 1e-12

    def test_rejects_non_antisymmetric(self):
        with pytest.raises(NotAntisymmetric):
            em_spinor(np.eye(4))

    def test_realform_roundtrip(self):
        rng = np.random.default_rng(2)
        phi = random_phi(rng, size=50)
        f = field_strength_from_phi(phi)
        assert np.max(np.abs(f - np.real(f))) == 0.0
        assert_allclose(em_spinor(f), phi, atol=1e-13)


class TestPotentialRoute:
    def test_placements_agree_under_lorenz(self):
        rng = np.random.default_rng(3)
        p = core.random_future_momentum(0.0, rng, size=100)
        pot = lorenz_potential(rng, p, size=100)
        assert np.max(lorenz_residual(pot, p)) < 1e-13
        first, second = phi_from_potential(pot, p)
        assert np.max(np.abs(first - second)) < 1e-13

    def test_pure_gauge_vanishes(self):
        rng = np.random.default_rng(4)
        p = core.random_future_momentum(0.0, rng, size=50)
        phi, _ = phi_from_potential(p.astype(complex), p)
        assert np.max(np.abs(phi)) < 1e-13

    def test_non_lorenz_detected(self):
        rng = np.random.default_rng(5)
        p = core.random_future_momentum(0.0, rng)
        pot = rng.normal(size=4) + 1j * rng.normal(size=4)
        pot = pot + 3.0 * np.array([1.0, 0, 0, 0])    # spoil the gauge
        assert np.max(lorenz_residual(pot, p)) > 0.1
        first, second = phi_from_potential(pot, p)
        assert np.max(np.abs(first - second)) > 0.01

    def test_matches_em_spinor_of_complex_f(self):
        rng = np.random.default_rng(6)
        p = core.random_future_momentum(0.0, rng, size=50)
        pot = lorenz_potential(rng, p, size=50)
        first, _ = phi_from_potential(pot, p)
        f = field_strength_from_potential(pot, p)
        assert np.max(np.abs(em_spinor(f) - first)) < 1e-12


class TestStressTensor:
    def test_unit_plane_wave_energy_density(self):
        # |E| = |B| = 1 orthogonal pair gives T_00 = 1/4 (1 + 1) = 0.5
        f = np.zeros((4, 4))
        f[1, 0], f[0, 1] = 1.0, -1.0       # E = (1, 0, 0)
        f[1, 2], f[2, 1] = -1.0, 1.0       # B = (0, 0, ... )
        e = electric_field(f)
        b = magnetic_field(f)
        assert_allclose(np.linalg.norm(e), 1.0, atol=1e-14)
        assert_allclose(np.linalg.norm(b), 1.0, atol=1e-14)
        assert np.abs(e @ b) < 1e-14
        phi = em_spinor(f)
        report = stress_tensor(phi, f)
        assert_allclose(report["spinor"][0, 0], 0.5, atol=1e-13)
        assert_allclose(report["t00_eb"], 0.5, atol=1e-13)

    def test_zero_field(self):
        report = stress_tensor(np.zeros((2, 2)), np.zeros((4, 4)))
        assert np.max(np.abs(report["spinor"])) == 0.0

    def test_routes_agree_for_consistent_pairs(self):
        rng = np.random.default_rng(7)
        phi = random_phi(rng, size=200)
        f = field_strength_from_phi(phi)
        report = stress_tensor(phi, f)
        assert np.max(report["route_gap"]) < 1e-12
        assert np.max(np.abs(report["spinor"][..., 0, 0]
                             - report["t00_eb"])) < 1e-12

    @pytest.mark.parametrize("scale", [1e4, 1e8])
    def test_routes_agree_per_sample_at_large_amplitude(self, scale):
        # the batch's absolute gap read 9.5e-7 at 1e4 and 96 at 1e8 on
        # consistent pairs; each sample's gap relative to its own largest
        # entry stays at rounding, for the routes and for T_00
        rng = np.random.default_rng(17)
        phi = scale * random_phi(rng, size=100)
        report = stress_tensor(phi, field_strength_from_phi(phi))
        assert np.max(report["route_gap"]) < 1e-12
        t00_gap = ((report["spinor"][..., 0, 0] - report["t00_eb"])
                   / core.max_abs(report["spinor"], 2, floor=1.0))
        assert np.max(np.abs(t00_gap)) < 1e-12

    def test_potential_pairs_through_realform(self):
        rng = np.random.default_rng(8)
        p = core.random_future_momentum(0.0, rng, size=100)
        pot = lorenz_potential(rng, p, size=100)
        phi, _ = phi_from_potential(pot, p)
        f = field_strength_from_phi(phi)
        report = stress_tensor(phi, f)
        assert np.max(report["route_gap"]) < 1e-12

    def test_inconsistent_pair_raises(self):
        rng = np.random.default_rng(9)
        phi = random_phi(rng)
        f = field_strength_from_phi(random_phi(rng) + 1.0)
        with pytest.raises(InconsistentPair):
            stress_tensor(phi, f)

    def test_rank_one_scalar_route(self):
        # potential-built fields give T_{ab} = c p_a p_b with c >= 0
        rng = np.random.default_rng(10)
        p = core.random_future_momentum(0.0, rng, size=50)
        pot = lorenz_potential(rng, p, size=50)
        phi, _ = phi_from_potential(pot, p)
        t = stress_tensor_spinor(phi)
        plow = core.lower_vector(p)
        c = t[..., 0, 0] / plow[..., 0] ** 2
        assert np.min(c) >= 0.0
        want = c[..., None, None] * np.einsum('...a,...b->...ab', plow, plow)
        assert np.max(np.abs(t - want)) < 1e-12


class TestGrossKaiserNorm:
    def test_amplitude_norm(self):
        rng = np.random.default_rng(11)
        p = core.random_future_momentum(0.0, rng, size=100)
        fr = frame_massless(p)
        f = rng.normal(size=100) + 1j * rng.normal(size=100)
        pil = core.lower_spinor(fr.pi)
        phi = np.einsum('...A,...B->...AB', pil, pil) * f[..., None, None]
        t1 = np.broadcast_to(np.array([1.0, 0, 0, 0]), p.shape)
        t2 = core.random_timelike(rng, size=100)
        got = gk_norm_integrand(phi, p, t1, t2)
        assert np.max(np.abs(got - np.abs(f) ** 2)) < 1e-12

    def test_direction_independence(self):
        rng = np.random.default_rng(12)
        p = core.random_future_momentum(0.0, rng, size=100)
        pot = lorenz_potential(rng, p, size=100)
        phi, _ = phi_from_potential(pot, p)
        t1 = np.broadcast_to(np.array([1.0, 0, 0, 0]), p.shape)
        base = gk_norm_integrand(phi, p, t1, t1)
        ta = core.random_timelike(rng, size=100)
        tb = core.random_timelike(rng, size=100)
        other = gk_norm_integrand(phi, p, ta, tb)
        assert np.max(np.abs(other - base) / np.maximum(1.0, np.abs(base))) < 1e-10

    def test_zero(self):
        p = np.array([1.0, 0, 0, 1.0])
        t = np.array([1.0, 0, 0, 0])
        assert gk_norm_integrand(np.zeros((2, 2)), p, t, t) == 0.0

    def test_matches_bw_n2(self):
        rng = np.random.default_rng(13)
        p = core.random_future_momentum(0.0, rng, size=100)
        pot = lorenz_potential(rng, p, size=100)
        phi, _ = phi_from_potential(pot, p)
        comp = SymMultiSpinor(2, 0, np.stack(
            [phi[..., 0, 0], phi[..., 0, 1], phi[..., 1, 1]], axis=-1)[..., None])
        psi = from_standard(2, 0.0, +1, p, (comp,))
        t1 = np.broadcast_to(np.array([1.0, 0, 0, 0]), p.shape)
        t2 = core.random_timelike(rng, size=100)
        via_gk = gk_norm_integrand(phi, p, t1, t2)
        via_bw = norm_integrand(psi, FixedList((t1, t2)))
        assert np.max(np.abs(via_gk - via_bw)
                      / np.maximum(1.0, np.abs(via_gk))) < 1e-12

    def test_orthogonal_direction(self):
        phi = np.zeros((2, 2))
        p = np.array([1.0, 0, 0, 1.0])
        with pytest.raises(OrthogonalDirection):
            gk_norm_integrand(phi, p, np.array([1.0, 0, 0, 1.0]), p)

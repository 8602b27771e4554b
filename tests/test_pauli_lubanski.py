import numpy as np
import pytest
from numpy.testing import assert_allclose

from bwspinor import core, verify
from bwspinor.errors import (ComplexEigenvalues, DegenerateSpinDirection,
                             NotMassive)
from bwspinor.frames import frame_massive, frame_massless
from bwspinor.pauli_lubanski import (chi_basis, combined_projectors,
                                     default_normalization, energy_projectors,
                                     explicit_frame_projectors,
                                     pl_eigen_relations_residual, pl_eigenvalues,
                                     pl_momentum_rep, pl_project,
                                     pl_spin_projectors)

ROOT2 = np.sqrt(2.0)


class TestOperator:
    def test_projection_routes_agree(self):
        rng = np.random.default_rng(0)
        p = core.random_future_momentum(1.0, rng, size=500)
        t = core.random_timelike(rng, size=500)
        s_op = pl_momentum_rep(p)
        tlow = core.lower_vector(t)
        via_op = np.einsum('...a,...aXY->...XY', tlow, s_op.unprimed)
        via_closed, via_closed_p = pl_project(t, p)
        assert np.max(np.abs(via_op - via_closed)) < 1e-13
        via_op_p = np.einsum('...a,...aXY->...XY', tlow, s_op.primed)
        assert np.max(np.abs(via_op_p - via_closed_p)) < 1e-13

    def test_lowered_symmetry_and_trace(self):
        rng = np.random.default_rng(1)
        p = core.random_future_momentum(1.0, rng, size=500)
        t = core.random_timelike(rng, size=500)
        su, sp = pl_project(t, p)
        low = np.einsum('...XZ,ZY->...XY', su, core.EPS)
        assert np.max(np.abs(low - np.swapaxes(low, -1, -2))) < 1e-13
        assert np.max(np.abs(np.trace(su, axis1=-2, axis2=-1))) < 1e-13
        s_op = pl_momentum_rep(p)
        assert np.max(np.abs(np.trace(s_op.unprimed, axis1=-2, axis2=-1))) < 1e-14

    def test_massless_contraction_identity(self):
        # S^a(p) pi_low = -(1/2) p^a pi_low for the flag spinor of a null p
        p = np.array([1.0, 0, 0, 1.0])
        s_op = pl_momentum_rep(p)
        pil = core.lower_spinor(frame_massless(p).pi)
        lhs = np.einsum('aXY,Y->aX', s_op.unprimed, pil)
        rhs = -0.5 * np.einsum('a,X->aX', p, pil)
        assert_allclose(lhs, rhs, atol=1e-13)


class TestEigenvalues:
    def test_rest_frame_spacelike_direction(self):
        m = 1.3
        half, mhalf = pl_eigenvalues(np.array([0.0, 0, 0, 1.0]),
                                     np.array([m, 0, 0, 0]))
        assert_allclose(half, m / 2, atol=1e-14)
        assert_allclose(mhalf, -m / 2, atol=1e-14)

    def test_matrix_eigenvalues_match(self):
        rng = np.random.default_rng(2)
        p = core.random_future_momentum(1.0, rng, size=1000)
        for t in (core.random_timelike(rng, size=1000),
                  core.random_future_momentum(0.0, rng, size=1000),
                  np.concatenate([0.1 * rng.normal(size=(1000, 1)),
                                  rng.normal(size=(1000, 3))], axis=-1)):
            su, sp = pl_project(t, p)
            half, _ = pl_eigenvalues(t, p)
            got = np.sort(np.real(np.linalg.eigvals(su)), axis=-1)
            assert np.max(np.abs(got - np.stack([-half, half], axis=-1))) < 1e-11
            got_p = np.sort(np.real(np.linalg.eigvals(sp)), axis=-1)
            assert np.max(np.abs(got_p - np.stack([-half, half], axis=-1))) < 1e-11

    def test_null_direction_specialization(self):
        rng = np.random.default_rng(3)
        p = core.random_future_momentum(1.0, rng, size=500)
        t = core.random_future_momentum(0.0, rng, size=500)
        half, _ = pl_eigenvalues(t, p)
        assert np.max(np.abs(2 * half - core.minkowski(t, p))) < 1e-12

    def test_massless_momentum_any_direction(self):
        # for p.p = 0 the eigenvalues reduce to +-(1/2) t.p for every t
        rng = np.random.default_rng(30)
        p = core.random_future_momentum(0.0, rng, size=500)
        t = core.random_timelike(rng, size=500)
        half, _ = pl_eigenvalues(t, p)
        assert np.max(np.abs(2 * half - core.minkowski(t, p))) < 1e-12
        su, _ = pl_project(t, p)
        got = np.sort(np.real(np.linalg.eigvals(su)), axis=-1)
        assert np.max(np.abs(got - np.stack([-half, half], axis=-1))) < 1e-11

    def test_omega_direction(self):
        rng = np.random.default_rng(4)
        p = core.random_future_momentum(1.0, rng, size=500)
        fr = frame_massive(p, core.random_spinor(rng, size=500))
        half, _ = pl_eigenvalues(fr.omega_vec, p)
        assert np.max(np.abs(2 * half - 1 / ROOT2)) < 1e-12

    def test_time_direction_on_z_momentum(self):
        # t = e0, p = (p0, 0, 0, p3): full eigenvalues are +-|p3|
        m, p3 = 1.0, 0.8
        p = np.array([np.sqrt(m ** 2 + p3 ** 2), 0, 0, p3])
        half, _ = pl_eigenvalues(np.array([1.0, 0, 0, 0]), p)
        assert_allclose(2 * half, abs(p3), atol=1e-13)
        su, _ = pl_project(np.array([1.0, 0, 0, 0]), p)
        got = np.sort(np.real(np.linalg.eigvals(su)))
        assert_allclose(got, [-abs(p3) / 2, abs(p3) / 2], atol=1e-13)

    def test_degenerate_direction(self):
        p = np.array([1.0, 0, 0, 0])
        half, _ = pl_eigenvalues(p, p)
        assert_allclose(half, 0.0, atol=1e-14)
        with pytest.raises(DegenerateSpinDirection):
            pl_spin_projectors(p, p)

    def test_discriminant_never_negative_on_shell(self):
        # (t.p)^2 - p.p t.t >= 0 for every real t when p is causal
        rng = np.random.default_rng(99)
        p = core.random_future_momentum(1.0, rng, size=2000)
        t = np.concatenate([rng.normal(size=(2000, 1)),
                            rng.normal(size=(2000, 3))], axis=-1)
        disc = core.minkowski(t, p) ** 2 - core.mass_squared(t)
        assert np.min(disc) > -1e-12

    def test_complex_eigenvalue_guard(self):
        # two orthogonal spacelike vectors produce a negative discriminant
        with pytest.raises(ComplexEigenvalues):
            pl_eigenvalues(np.array([0.0, 1.0, 0, 0]), np.array([0.0, 0, 0, 1.0]))


class TestProjectors:
    def test_spin_projector_algebra(self):
        rng = np.random.default_rng(5)
        p = core.random_future_momentum(1.0, rng, size=500)
        t = core.random_timelike(rng, size=500)
        proj = pl_spin_projectors(t, p)
        eye = np.eye(2)
        for s, (su, sp) in proj.items():
            assert np.max(np.abs(su @ su - su)) < 1e-11
            assert np.max(np.abs(sp @ sp - sp)) < 1e-11
            assert np.max(np.abs(np.trace(su, axis1=-2, axis2=-1) - 1.0)) < 1e-11
        assert np.max(np.abs(proj[+1][0] + proj[-1][0] - eye)) < 1e-12
        assert np.max(np.abs(proj[+1][0] @ proj[-1][0])) < 1e-12
        smat, _ = pl_project(t, p)
        half, _ = pl_eigenvalues(t, p)
        recon = np.max(np.abs(
            smat @ proj[+1][0] - half[..., None, None] * proj[+1][0]))
        assert recon < 1e-11

    def test_energy_projectors(self):
        rng = np.random.default_rng(6)
        p = core.random_future_momentum(1.0, rng, size=500)
        en = energy_projectors(p)
        assert np.max(np.abs(en[+1] + en[-1] - np.eye(4))) < 1e-13
        assert np.max(np.abs(en[+1] @ en[-1])) < 1e-12
        assert np.max(np.abs(en[+1] @ en[+1] - en[+1])) < 1e-12
        blocks = pl_momentum_rep(p).bispinor()
        comm = (np.einsum('...ab,...wbc->...wac', en[+1], blocks)
                - np.einsum('...wab,...bc->...wac', blocks, en[+1]))
        assert np.max(np.abs(comm)) < 1e-12

    def test_rest_frame_energy_spectrum(self):
        en = energy_projectors(np.array([1.0, 0, 0, 0]))
        for e in (+1, -1):
            vals = np.sort(np.real(np.linalg.eigvals(en[e])))
            assert_allclose(vals, [0, 0, 1, 1], atol=1e-12)

    def test_massless_rejected(self):
        with pytest.raises(NotMassive):
            energy_projectors(np.array([1.0, 0, 0, 1.0]))

    def test_combined_resolution_of_identity(self):
        rng = np.random.default_rng(7)
        p = core.random_future_momentum(1.0, rng, size=300)
        fr = frame_massive(p, core.random_spinor(rng, size=300))
        proj = combined_projectors(fr.omega_vec, p)
        total = sum(proj.values())
        assert np.max(np.abs(total - np.eye(4))) < 1e-12
        for key, mat in proj.items():
            assert np.max(np.abs(mat @ mat - mat)) < 1e-11
            for key2, mat2 in proj.items():
                if key2 != key:
                    assert np.max(np.abs(mat @ mat2)) < 1e-11

    def test_both_orderings_agree(self):
        rng = np.random.default_rng(8)
        p = core.random_future_momentum(1.0, rng, size=300)
        t = core.random_timelike(rng, size=300)
        spin = pl_spin_projectors(t, p)
        en = energy_projectors(p)
        for s, (su, sp) in spin.items():
            block = np.zeros(su.shape[:-2] + (4, 4), dtype=complex)
            block[..., 0:2, 0:2] = su
            block[..., 2:4, 2:4] = sp
            for e, pe in en.items():
                assert np.max(np.abs(block @ pe - pe @ block)) < 1e-12

    def test_explicit_null_frame_matrices(self):
        rng = np.random.default_rng(9)
        p = core.random_future_momentum(1.0, rng, size=300)
        fr = frame_massive(p, core.random_spinor(rng, size=300))
        proj = combined_projectors(fr.omega_vec, p)
        explicit = explicit_frame_projectors(fr)
        for key in proj:
            assert np.max(np.abs(proj[key] - explicit[key])) < 1e-12

    def test_rest_frame_entrywise(self):
        fr = frame_massive(np.array([1.0, 0, 0, 0]), np.array([1.0, 0.0]))
        proj = combined_projectors(fr.omega_vec, fr.p)
        explicit = explicit_frame_projectors(fr)
        assert_allclose(proj[(+1, +1)], explicit[(+1, +1)], atol=1e-12)

    def test_general_direction_closed_matrix(self):
        # closed 4x4 form of the combined projectors for arbitrary t:
        # (1/4 lam) [[lam eps + 2 S(t,p),
        #             +-(sqrt2/m)((lam - t.p) p_lu + m^2 t_lu)],
        #            [-+(sqrt2/m)((lam + t.p) p_ul - m^2 t_ul)^T,
        #             lam eps' + 2 S'(t,p)]]
        rng = np.random.default_rng(21)
        m = 1.0
        p = core.random_future_momentum(m, rng, size=50)
        t = core.random_timelike(rng, size=50)
        su, sp = pl_project(t, p)
        half, _ = pl_eigenvalues(t, p)
        tp = core.minkowski(t, p)
        plu = core.vector_to_dyad(p, "lu")
        pul = core.vector_to_dyad(p, "ul")
        tlu = core.vector_to_dyad(t, "lu")
        tul = core.vector_to_dyad(t, "ul")
        proj = combined_projectors(t, p)
        root2_m = np.sqrt(2.0) / m
        for s in (+1, -1):
            lam = (2.0 * s * half)[..., None, None]
            tpb = tp[..., None, None]
            for e in (+1, -1):
                mat = np.zeros(p.shape[:-1] + (4, 4), dtype=complex)
                mat[..., 0:2, 0:2] = lam * np.eye(2) + 2 * su
                mat[..., 0:2, 2:4] = e * root2_m * ((lam - tpb) * plu
                                                    + m ** 2 * tlu)
                mat[..., 2:4, 0:2] = -e * root2_m * np.swapaxes(
                    (lam + tpb) * pul - m ** 2 * tul, -1, -2)
                mat[..., 2:4, 2:4] = lam * np.eye(2) + 2 * sp
                mat = mat / (4.0 * lam)
                assert np.max(np.abs(mat - proj[(s, e)])) < 1e-11


class TestChiBasis:
    def test_default_normalization_value(self):
        fr = frame_massive(np.array([1.0, 0, 0, 0]), np.array([1.0, 0.0]))
        assert_allclose(default_normalization(fr), (1 / ROOT2) ** 0.5, atol=1e-7)

    def test_eigenvectors_and_annihilation(self):
        rng = np.random.default_rng(10)
        p = core.random_future_momentum(1.0, rng, size=300)
        fr = frame_massive(p, core.random_spinor(rng, size=300))
        proj = combined_projectors(fr.omega_vec, p)
        chis = chi_basis(fr)
        for key, vec in chis.items():
            res = np.einsum('...ab,...b->...a', proj[key], vec) - vec
            assert np.max(np.abs(res)) < 1e-12
            for key2 in proj:
                if key2 != key:
                    hit = np.einsum('...ab,...b->...a', proj[key2], vec)
                    assert np.max(np.abs(hit)) < 1e-12

    def test_component_layout(self):
        fr = frame_massive(np.array([1.0, 0, 0, 0]), np.array([0.7, 0.4 - 0.1j]))
        n = default_normalization(fr)
        chis = chi_basis(fr)
        oml = core.lower_spinor(fr.omega)
        pil = core.lower_spinor(fr.pi)
        assert_allclose(chis[(+1, +1)][:2], n * oml, atol=1e-14)
        assert_allclose(chis[(+1, +1)][2:], -n * np.conj(pil), atol=1e-14)
        assert_allclose(chis[(-1, +1)][:2], -n * pil, atol=1e-14)
        assert_allclose(chis[(-1, +1)][2:], -n * np.conj(oml), atol=1e-14)

    def test_span(self):
        rng = np.random.default_rng(11)
        p = core.random_future_momentum(1.0, rng, size=200)
        fr = frame_massive(p, core.random_spinor(rng, size=200))
        chis = chi_basis(fr)
        basis = np.stack([chis[k] for k in sorted(chis)], axis=-1)
        assert np.all(np.abs(np.linalg.det(basis)) > 1e-12)


class TestEigenRelations:
    def test_massless_frame(self):
        fr = frame_massless(np.array([1.0, 0, 0, 1.0]))
        assert pl_eigen_relations_residual(fr) < 1e-12

    def test_massive_rest_frame(self):
        fr = frame_massive(np.array([1.0, 0, 0, 0]), np.array([1.0, 0.0]))
        assert pl_eigen_relations_residual(fr) < 1e-12

    @pytest.mark.parametrize("scale", [1.0, 1e4, 1e8])
    def test_residual_is_relative_per_sample(self, scale):
        # valid frames on momenta scaled by 1e4 and 1e8 read 6.4e-12 and
        # 1.0e-7 as an absolute residual; relative to each sample's sizes the
        # relations hold to rounding at every scale, massive and massless
        rng = np.random.default_rng(21)
        p = scale * core.random_future_momentum(1.0, rng, size=100)
        assert np.max(pl_eigen_relations_residual(
            frame_massive(p, core.random_spinor(rng, size=100)))) < 1e-13
        p0 = scale * core.random_future_momentum(0.0, rng, size=100)
        assert np.max(pl_eigen_relations_residual(frame_massless(p0))) < 1e-13

    def test_eigenvalue_readout(self):
        # S(omega, p) omega_low = +(1/2)(m/sqrt2) omega_low at m = 1
        fr = frame_massive(np.array([1.0, 0, 0, 0]), np.array([1.0, 0.0]))
        su, _ = pl_project(fr.omega_vec, fr.p)
        oml = core.lower_spinor(fr.omega)
        ratio = (su @ oml)[np.abs(oml) > 0.5] / oml[np.abs(oml) > 0.5]
        assert_allclose(ratio, 0.35355339, atol=1e-7)

    def test_covariance(self):
        rng = np.random.default_rng(12)
        p = core.random_future_momentum(1.0, rng, size=200)
        t = core.random_timelike(rng, size=200)
        a = core.random_sl2c(rng, size=200)
        lam = core.lorentz_from_sl2c(a)
        lt = np.einsum('...ab,...b->...a', lam, t)
        lp = np.einsum('...ab,...b->...a', lam, p)
        su, sp = pl_project(t, p)
        su2, sp2 = pl_project(lt, lp)
        a_low = core.sl2c_lower_rep(a)
        assert np.max(np.abs(su2 - a_low @ su @ np.linalg.inv(a_low))) < 1e-10
        assert np.max(np.abs(
            sp2 - np.conj(a_low) @ sp @ np.linalg.inv(np.conj(a_low)))) < 1e-10

    def test_covariance_residual_detects_wrong_conjugation(self):
        # the verify residual is relative to |A|_F^2; a wrong map still reads O(1)
        rng = np.random.default_rng(13)
        p = core.random_future_momentum(1.0, rng, size=500)
        t = core.random_timelike(rng, size=500)
        a = core.random_sl2c(rng, size=500)
        lam = core.lorentz_from_sl2c(a)
        su, _ = pl_project(t, p)
        su2, _ = pl_project(np.einsum('...ab,...b->...a', lam, t),
                            np.einsum('...ab,...b->...a', lam, p))
        a_low = core.sl2c_lower_rep(a)
        assert np.max(verify.conjugation_residual(su2, a_low, su)) < 1e-10
        for wrong in (np.conj(a_low), np.linalg.inv(a_low), a):
            assert np.max(verify.conjugation_residual(su2, wrong, su)) > 0.5

    def test_covariance_holds_on_large_boosts(self):
        # suite seed at which the unscaled residual read 1.45e-10
        assert verify.SUITES["pl"](10_000, 168194335)["covariance"] < 1e-10

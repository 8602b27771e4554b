import numpy as np
import pytest
from numpy.testing import assert_allclose

from bwspinor import core
from bwspinor.errors import NegativeMass, NonUnitDeterminant


class TestEpsilon:
    def test_lower_basis(self):
        # kappa_A = kappa^B eps_{BA} with eps_{01} = +1
        assert_allclose(core.lower_spinor(np.array([1.0, 0.0])), [0.0, 1.0])
        assert_allclose(core.lower_spinor(np.array([0.0, 1.0])), [-1.0, 0.0])

    def test_raise_lower_roundtrip(self):
        k = core.random_spinor(42, size=100)
        assert_allclose(core.raise_spinor(core.lower_spinor(k)), k, atol=1e-15)
        assert_allclose(core.lower_spinor(core.raise_spinor(k)), k, atol=1e-15)

    def test_contraction_antisymmetry(self):
        rng = np.random.default_rng(1)
        k = core.random_spinor(rng, size=50)
        lam = core.random_spinor(rng, size=50)
        lhs = core.spinor_contract(core.lower_spinor(k), lam)
        rhs = -core.spinor_contract(core.lower_spinor(lam), k)
        assert_allclose(lhs, rhs, atol=1e-15)


class TestDyads:
    def test_rest_momentum(self):
        d = core.vector_to_dyad(np.array([1.0, 0, 0, 0]), "up")
        assert_allclose(d, np.eye(2) / np.sqrt(2), atol=1e-15)

    def test_null_momentum(self):
        d = core.vector_to_dyad(np.array([1.0, 0, 0, 1.0]), "up")
        assert_allclose(d, np.diag([np.sqrt(2), 0.0]), atol=1e-15)

    def test_determinant_half_mass_squared(self):
        p = core.random_future_momentum(1.0, 3, size=200)
        d = core.vector_to_dyad(p, "up")
        assert_allclose(np.linalg.det(d), 0.5, atol=1e-12)

    def test_hermitian_and_roundtrip(self):
        p = core.random_future_momentum(2.0, 4, size=100)
        d = core.vector_to_dyad(p, "up")
        assert core.hermiticity_residual(d) < 1e-14
        assert_allclose(core.dyad_to_vector(d, "up"), p, atol=1e-13)
        dl = core.vector_to_dyad(p, "low")
        assert_allclose(core.dyad_to_vector(dl, "low"), p, atol=1e-13)

    def test_mixed_forms_match_eps_raising(self):
        p = core.random_future_momentum(1.0, 5)
        low = core.vector_to_dyad(p, "low")
        lu = core.vector_to_dyad(p, "lu")
        ul = core.vector_to_dyad(p, "ul")
        assert_allclose(lu, np.einsum('ac,Ac->Aa', core.EPS, low), atol=1e-15)
        assert_allclose(ul, core.EPS @ low, atol=1e-15)


class TestTraceReversal:
    def test_rest_frame_slot(self):
        # p = (m,0,0,0): the (0,0) entry of p_{AB'}p_{BA'} equals m^2/2
        m = 1.7
        p = np.array([m, 0, 0, 0.0])
        pl = core.vector_to_dyad(p, "low")
        lhs = np.einsum('Ab,Ba->AaBb', pl, pl)
        world = np.einsum('imjn,aim,bjn->ab', lhs, core.G_UP, core.G_UP)
        assert_allclose(world[0, 0], m ** 2 / 2, atol=1e-14)

    def test_null_and_massive(self):
        assert core.trace_reversal_residual(
            core.random_future_momentum(0.0, 6, size=500)) < 1e-12
        assert core.trace_reversal_residual(
            core.random_future_momentum(1.0, 7, size=500)) < 1e-12


class TestGenerators:
    def test_antisymmetry(self):
        assert np.max(np.abs(core.SIGMA + np.swapaxes(core.SIGMA, 0, 1))) < 1e-15
        for a in range(4):
            assert np.max(np.abs(core.SIGMA[a, a])) == 0.0

    def test_iw_identities(self):
        sym = np.einsum('aXE,bYE->abXY', core.G_LOW_W, core.G_UP_W)
        target = np.einsum('ab,XY->abXY', np.linalg.inv(core.METRIC), np.eye(2))
        assert np.max(np.abs(sym + np.swapaxes(sym, 0, 1) - target)) < 1e-14
        assert np.max(np.abs(sym - 0.5 * target - 1j * core.SIGMA)) < 1e-14
        symb = np.einsum('aEX,bEY->abXY', core.G_LOW_W, core.G_UP_W)
        assert np.max(np.abs(symb + np.swapaxes(symb, 0, 1) - target)) < 1e-14
        assert np.max(np.abs(symb - 0.5 * target - 1j * core.SIGMABAR)) < 1e-14

    def test_purely_spinor_form(self):
        ref_s, ref_sb = core.generator_spinor_form()
        low_s = core.lower_world_pair(core.SIGMA)
        spin = np.einsum('abXZ,ZY,aim,bjn->imjnXY', low_s, core.EPS,
                         core.G_LOW_W, core.G_LOW_W)
        assert np.max(np.abs(spin - ref_s)) < 1e-14
        low_sb = core.lower_world_pair(core.SIGMABAR)
        spinb = np.einsum('abXZ,ZY,aim,bjn->imjnXY', low_sb, core.EPS,
                          core.G_LOW_W, core.G_LOW_W)
        assert np.max(np.abs(spinb - ref_sb)) < 1e-14

    def test_duality(self):
        assert np.max(np.abs(core.dual_pair(core.SIGMA) + 1j * core.SIGMA)) < 1e-14
        assert np.max(np.abs(core.dual_pair(core.SIGMABAR)
                             - 1j * core.SIGMABAR)) < 1e-14


class TestLorentz:
    def test_identity(self):
        assert_allclose(core.lorentz_from_sl2c(np.eye(2)), np.eye(4), atol=1e-15)

    def test_z_boost(self):
        # A = diag(e^{eta/2}, e^{-eta/2}) with eta = ln 2 maps
        # (1,0,0,0) -> (1.25, 0, 0, 0.75)
        eta = np.log(2.0)
        a = np.diag([np.exp(eta / 2), np.exp(-eta / 2)]).astype(complex)
        lam = core.lorentz_from_sl2c(a)
        assert_allclose(lam @ np.array([1.0, 0, 0, 0]),
                        [1.25, 0.0, 0.0, 0.75], atol=1e-14)

    def test_invariance_and_group_structure(self):
        rng = np.random.default_rng(8)
        a = core.random_sl2c(rng, size=100)
        p = core.random_future_momentum(1.0, rng, size=100)
        lam = core.lorentz_from_sl2c(a)
        lp = np.einsum('...ab,...b->...a', lam, p)
        assert np.max(np.abs(core.mass_squared(lp) - 1.0)
                      / np.maximum(1.0, lp[..., 0] ** 2)) < 1e-10
        gram = np.einsum('...ba,bc,...cd->...ad', lam, core.METRIC, lam)
        scale = np.maximum(1.0, np.max(np.abs(lam), axis=(-2, -1)) ** 2)
        assert np.max(np.abs(gram - core.METRIC) / scale[..., None, None]) < 1e-12
        assert np.all(lam[..., 0, 0] >= 1.0 - 1e-12)
        assert_allclose(np.linalg.det(lam), 1.0, atol=1e-9)

    def test_covariance(self):
        rng = np.random.default_rng(9)
        a = core.random_sl2c(rng)
        p = core.random_future_momentum(1.0, rng)
        left = core.transform_dyad(a, core.vector_to_dyad(p, "up"))
        right = core.vector_to_dyad(core.transform_vector(a, p), "up")
        assert_allclose(left, right, atol=1e-12)

    def test_rejects_non_unit_determinant(self):
        with pytest.raises(NonUnitDeterminant):
            core.lorentz_from_sl2c(2.0 * np.eye(2))


class TestRandomGenerators:
    def test_on_shell(self):
        p = core.random_future_momentum(1.0, 11, size=1000)
        assert np.max(np.abs(core.mass_squared(p) - 1.0)) < 1e-12
        assert np.all(p[..., 0] > 0)
        p0 = core.random_future_momentum(0.0, 12, size=1000)
        assert np.max(np.abs(core.mass_squared(p0)) / p0[..., 0] ** 2) < 1e-12

    def test_deterministic(self):
        assert_allclose(core.random_future_momentum(1.0, 13, size=8),
                        core.random_future_momentum(1.0, 13, size=8))
        assert_allclose(core.random_sl2c(14, size=8), core.random_sl2c(14, size=8))
        assert_allclose(core.random_spinor(15, size=8), core.random_spinor(15, size=8))

    def test_negative_mass_rejected(self):
        with pytest.raises(NegativeMass):
            core.random_future_momentum(-1.0, 0)

    def test_sl2c_unit_determinant(self):
        a = core.random_sl2c(16, size=200)
        assert np.max(np.abs(np.linalg.det(a) - 1.0)) < 1e-12


class TestFiniteVectors:
    @pytest.mark.parametrize("shape, dtype", [((4,), float), ((50, 4), float),
                                              ((5, 7, 4), float), ((30, 2), complex)])
    def test_mask_matches_all_over_last_axis(self, shape, dtype):
        rng = np.random.default_rng(3)
        x = rng.normal(size=shape).astype(dtype)
        x[rng.random(size=shape) < 0.1] = np.nan
        x[rng.random(size=shape) < 0.1] = np.inf
        if dtype is complex:
            x[rng.random(size=shape) < 0.1] += 1j * np.nan
        ok, (clean,) = core.finite_vectors(x)
        want = np.all(np.isfinite(x), axis=-1)
        assert np.array_equal(ok, want)
        assert np.array_equal(clean, np.where(want[..., None], x, 0.0))

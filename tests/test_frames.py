import numpy as np
import pytest
from numpy.testing import assert_allclose

from bwspinor import core
from bwspinor.errors import (DegenerateReference, NotFuturePointing, NotNull,
                             NotTimelike, ZeroSpinor)
from bwspinor.frames import (flag_decompose_massless, frame_for, frame_massive,
                             frame_massless, frame_residuals, partner_massless)

ROOT2 = np.sqrt(2.0)


class TestMasslessFlag:
    def test_forward_beam(self):
        pi = flag_decompose_massless(np.array([1.0, 0, 0, 1.0]))
        assert_allclose(pi, [2 ** 0.25, 0.0], atol=1e-14)

    def test_backward_beam(self):
        pi = flag_decompose_massless(np.array([1.0, 0, 0, -1.0]))
        assert_allclose(pi, [0.0, 2 ** 0.25], atol=1e-14)

    def test_random_reconstruction(self):
        p = core.random_future_momentum(0.0, 0, size=300)
        pi = flag_decompose_massless(p)
        outer = np.einsum('...A,...B->...AB', pi, np.conj(pi))
        assert np.max(np.abs(outer - core.vector_to_dyad(p, "up"))) < 1e-12

    def test_rejects_bad_momenta(self):
        with pytest.raises(NotNull):
            flag_decompose_massless(np.array([1.0, 0, 0, 0.5]))
        with pytest.raises(NotFuturePointing):
            flag_decompose_massless(np.array([-1.0, 0, 0, 1.0]))


class TestPartner:
    def test_example(self):
        om = partner_massless(np.array([2 ** 0.25, 0.0]))
        assert_allclose(om, [0.0, 2 ** -0.25], atol=1e-14)

    def test_normalization_and_orthogonality(self):
        pi = core.random_spinor(1, size=200)
        om = partner_massless(pi)
        contraction = core.spinor_contract(core.lower_spinor(pi), om)
        assert np.max(np.abs(contraction - 1.0)) < 1e-13
        assert np.max(np.abs(np.einsum('...A,...A->...', np.conj(pi), om))) < 1e-13

    def test_gauge_shift_keeps_normalization(self):
        pi = core.random_spinor(2, size=50)
        om = partner_massless(pi) + 3.0 * pi
        contraction = core.spinor_contract(core.lower_spinor(pi), om)
        assert np.max(np.abs(contraction - 1.0)) < 1e-12

    def test_zero_rejected(self):
        with pytest.raises(ZeroSpinor):
            partner_massless(np.zeros(2))


class TestMassiveFrame:
    def test_rest_frame_omega_dot_p(self):
        fr = frame_massive(np.array([1.0, 0, 0, 0]), np.array([1.0, 0.0]))
        assert_allclose(core.minkowski(fr.omega_vec, fr.p), 1 / ROOT2, atol=1e-14)

    def test_rest_frame_decomposition(self):
        fr = frame_massive(np.array([1.0, 0, 0, 0]), np.array([1.0, 0.0]))
        recon = (1 / ROOT2) * (fr.omega_vec + fr.pi_vec)
        assert_allclose(recon, fr.p, atol=1e-14)

    def test_boosted_momentum_all_invariants(self):
        fr = frame_massive(np.array([2.0, 0, 0, np.sqrt(3.0)]),
                           np.array([1.0, 0.0]))
        assert max(frame_residuals(fr).values()) < 1e-12

    def test_random_invariants(self):
        rng = np.random.default_rng(3)
        p = core.random_future_momentum(1.0, rng, size=2000)
        fr = frame_massive(p, core.random_spinor(rng, size=2000))
        assert max(frame_residuals(fr).values()) < 1e-12

    def test_reference_scaling_covariance(self):
        # nu -> c nu changes omega by a pure phase; flagpoles are unchanged
        rng = np.random.default_rng(4)
        p = core.random_future_momentum(1.0, rng, size=100)
        nu = core.random_spinor(rng, size=100)
        c = 0.3 - 1.9j
        base = frame_massive(p, nu)
        scaled = frame_massive(p, c * nu)
        phase = scaled.omega[..., :1] / base.omega[..., :1]
        assert np.max(np.abs(np.abs(phase) - 1.0)) < 1e-12
        assert_allclose(scaled.omega, phase * base.omega, atol=1e-12)
        assert np.max(np.abs(scaled.omega_vec - base.omega_vec)) < 1e-12
        assert np.max(np.abs(scaled.pi_vec - base.pi_vec)) < 1e-12

    def test_contraction_conventions(self):
        # omega_A pi^A = +1 massive, pi_A omega^A = +1 massless
        fr = frame_massive(np.array([1.0, 0, 0, 0]), np.array([0.4, 0.9 + 0.2j]))
        c_om_pi, c_pi_om = fr.contractions()
        assert_allclose(c_om_pi, 1.0, atol=1e-14)
        assert_allclose(c_pi_om, -1.0, atol=1e-14)
        fr0 = frame_massless(np.array([1.0, 0.6, 0, 0.8]))
        c_om_pi, c_pi_om = fr0.contractions()
        assert_allclose(c_pi_om, 1.0, atol=1e-14)
        assert_allclose(c_om_pi, -1.0, atol=1e-14)

    def test_rejects_null_momentum(self):
        with pytest.raises(NotTimelike):
            frame_massive(np.array([1.0, 0, 0, 1.0]), np.array([1.0, 0.0]))


class TestFrameFor:
    def test_massive_default_reference(self):
        p = core.random_future_momentum(1.3, 4, size=5)
        got, want = frame_for(p, 1.3), frame_massive(p, np.array([1.0, 0.0]))
        assert np.array_equal(got.pi, want.pi) and np.array_equal(got.omega, want.omega)

    def test_massive_given_reference(self):
        p = core.random_future_momentum(1.0, 5, size=5)
        nu = core.random_spinor(6, size=5)
        got, want = frame_for(p, 1.0, nu), frame_massive(p, nu)
        assert np.array_equal(got.pi, want.pi) and np.array_equal(got.omega, want.omega)

    def test_massless_ignores_reference(self):
        p = core.random_future_momentum(0.0, 7, size=5)
        got, want = frame_for(p, 0.0, np.array([0.3, 1.0])), frame_massless(p)
        assert np.array_equal(got.pi, want.pi) and np.array_equal(got.omega, want.omega)


@pytest.mark.filterwarnings("error")       # no RuntimeWarning before the guard fires
class TestNonFiniteGuards:
    """A bad sample in the middle of a batch is rejected and named."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("axis", [0, 2])
    def test_massive_momentum(self, bad, axis):
        p = core.random_future_momentum(1.0, 0, size=9)
        p[4, axis] = bad
        with pytest.raises(NotTimelike, match=r"sample index \[4\]"):
            frame_massive(p, np.array([1.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_massive_reference(self, bad):
        p = core.random_future_momentum(1.0, 1, size=9)
        nu = core.random_spinor(2, size=9)
        nu[6, 1] = bad
        with pytest.raises(DegenerateReference, match=r"sample index \[6\]"):
            frame_massive(p, nu)

    def test_unbatched_reference(self):
        p = core.random_future_momentum(1.0, 1, size=3)
        with pytest.raises(DegenerateReference, match="finite"):
            frame_massive(p, np.array([np.nan, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("axis", [0, 3])
    def test_massless_momentum(self, bad, axis):
        p = core.random_future_momentum(0.0, 3, size=9)
        p[5, axis] = bad
        with pytest.raises(NotNull, match=r"sample index \[5\]"):
            frame_massless(p)

    def test_first_bad_sample_named(self):
        p = core.random_future_momentum(1.0, 4, size=9)
        p[7, 1] = np.nan
        p[2] = [1.0, 0.0, 0.0, 1.0]           # null, also not timelike
        with pytest.raises(NotTimelike, match=r"sample index \[2\]"):
            frame_massive(p, np.array([1.0, 0.0]))

    def test_zero_reference_names_sample(self):
        p = core.random_future_momentum(1.0, 5, size=9)
        nu = core.random_spinor(6, size=9)
        nu[3] = 0.0
        with pytest.raises(DegenerateReference, match=r"sample index \[3\]"):
            frame_massive(p, nu)

    def test_off_shell_massless_names_sample(self):
        p = core.random_future_momentum(0.0, 7, size=9)
        p[8, 0] *= 1.5
        with pytest.raises(NotNull, match=r"sample index \[8\]"):
            frame_massless(p)

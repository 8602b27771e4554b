import numpy as np
import pytest
from numpy.testing import assert_allclose

from bwspinor import core
from bwspinor.errors import (DegenerateReference, NotFuturePointing, NotNull,
                             NotTimelike, ZeroSpinor)
from bwspinor.frames import (axis_rotation, flag_decompose_massless, frame_for,
                             frame_massive, frame_massless, frame_residuals)

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

    # the beams, the equator and random momenta of both hemispheres, at
    # scales where p^0 p^0 overflows or underflows
    @pytest.mark.parametrize("scale", [1.0, 1e300, 1e-300], ids=["unit", "1e300", "1e-300"])
    @pytest.mark.parametrize("case", ["plus-z", "minus-z", "equator", "random"])
    def test_reconstruction_and_phase(self, case, scale):
        p = {"plus-z": np.array([[1.0, 0, 0, 1.0]]), "minus-z": np.array([[1.0, 0, 0, -1.0]]),
             "equator": np.array([[0.5, 0.3, -0.4, 0.0], [1.0, 0.6, 0.8, -0.0],
                                  [1.0, -1.0, 0, 0]]),
             "random": core.random_future_momentum(0.0, 7, size=400)}[case]
        if case == "random":
            assert np.any(p[:, 3] > 0) and np.any(p[:, 3] < 0)
        p = scale * p
        pi = flag_decompose_massless(p)
        outer = np.einsum('...A,...B->...AB', pi, np.conj(pi))
        err = core.max_abs(outer - core.vector_to_dyad(p, "up"), 2) / p[:, 0]
        assert np.max(err) <= 1e-12
        # the entry of larger modulus is exactly real and positive: entry 0
        # where p^3 >= 0, the equator included, else entry 1
        lead = np.where(p[:, 3] >= 0, 0, 1)
        rows = np.arange(len(p))
        assert np.all(pi[rows, lead].imag == 0) and np.all(pi[rows, lead].real > 0)
        # larger up to the rounding of a tie on the equator
        eps = np.finfo(float).eps
        assert np.all(np.abs(pi[rows, lead]) >= (1 - 4 * eps) * np.abs(pi[rows, 1 - lead]))

    def test_equator_takes_entry_zero(self):
        # |pi_0| = |pi_1| on the equator; the tie goes to entry 0
        phi = np.linspace(0.0, 2 * np.pi, 13)
        p = np.stack([np.ones_like(phi), np.cos(phi), np.sin(phi), np.zeros_like(phi)], -1)
        pi = flag_decompose_massless(p)
        assert np.all(pi[:, 0].imag == 0) and np.all(pi[:, 0].real > 0)
        assert_allclose(np.abs(pi), 2 ** -0.25, rtol=1e-15)

    # t^{AA'} = lam_i conj(a_iA) a_iA' with i the larger |lam_i|: the rank-one
    # factor of the equal-slot pairing, for future (i = 0) and past (i = 1) t
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["future", "past"])
    def test_rotation_row_is_the_rank_one_factor(self, sign):
        t = sign * core.random_future_momentum(0.0, 8, size=400)
        a, lam = axis_rotation(t)
        i = 0 if sign > 0 else 1
        assert np.all(np.abs(lam[:, i]) > np.abs(lam[:, 1 - i]))
        factor = lam[:, i, None, None] * np.einsum('...A,...B->...AB', np.conj(a[:, i]), a[:, i])
        err = core.max_abs(factor - core.vector_to_dyad(t, "up"), 2) / core.max_abs(t)
        assert np.max(err) <= 16 * np.finfo(float).eps


def random_null(seed, size):
    return core.random_future_momentum(0.0, seed, size=size)


class TestPartner:
    """omega, the partner of pi in the massless frame: pi_A omega^A = 1."""

    def test_example(self):
        om = frame_massless(np.array([1.0, 0, 0, 1.0])).omega
        assert_allclose(om, [0.0, 2 ** -0.25], atol=1e-14)

    def test_normalization_and_orthogonality(self):
        fr = frame_massless(random_null(1, 200))
        contraction = core.spinor_contract(core.lower_spinor(fr.pi), fr.omega)
        assert np.max(np.abs(contraction - 1.0)) < 1e-13
        assert np.max(np.abs(np.einsum('...A,...A->...', np.conj(fr.pi), fr.omega))) < 1e-13

    def test_gauge_shift_keeps_normalization(self):
        fr = frame_massless(random_null(2, 50))
        om = fr.omega + 3.0 * fr.pi
        contraction = core.spinor_contract(core.lower_spinor(fr.pi), om)
        assert np.max(np.abs(contraction - 1.0)) < 1e-12

    # omega_vec = (1, -u) / (2 p^0) overflows below p^0 ~ 4e-309 and pi
    # above p^0 ~ 9e307: the frame rejects the sample, with no warning
    @pytest.mark.filterwarnings("error")
    def test_zero_rejected(self):
        for p0 in (1e-310, 1e308):
            p = np.array([[1.0, 0, 0, 1.0], [p0, 0, 0, p0], [p0, 0, 0, -p0]])
            with pytest.raises(ZeroSpinor, match=r"finite partner at sample index \[1\]"):
                frame_massless(p)
            with pytest.raises(ZeroSpinor, match=r"sample index \[1\]"):
                flag_decompose_massless(p)

    # the beams (also at p^0 = 1e-308), the equator and random momenta, at
    # scales where |omega|^2 = 1 / (sqrt2 p^0) or |pi|^2 = sqrt2 p^0 would
    # leave the range of a double if formed carelessly
    @pytest.mark.parametrize("case, scale", [
        (case, scale) for case in ["plus-z", "minus-z", "equator", "random"]
        for scale in [1.0, 1e300, 1e-300]] + [("plus-z", 1e-308), ("minus-z", 1e-308)])
    def test_frame_is_one_rotation(self, case, scale):
        p = scale * {"plus-z": np.array([[1.0, 0, 0, 1.0]]),
                     "minus-z": np.array([[1.0, 0, 0, -1.0]]),
                     "equator": np.array([[0.5, 0.3, -0.4, 0.0], [1.0, 0.6, 0.8, -0.0],
                                          [1.0, -1.0, 0, 0]]),
                     "random": random_null(9, 400)}[case]
        fr = frame_massless(p)
        eps = np.finfo(float).eps
        contraction = core.spinor_contract(core.lower_spinor(fr.pi), fr.omega)
        assert np.max(np.abs(contraction - 1.0)) <= 8 * eps
        norm_pi, norm_om = np.linalg.norm(fr.pi, axis=-1), np.linalg.norm(fr.omega, axis=-1)
        orth = np.abs(np.einsum('...A,...A->...', np.conj(fr.pi), fr.omega))
        assert np.max(orth / (norm_pi * norm_om)) <= 8 * eps
        # oracle: the Euclidean perpendicular of pi over |pi|^2
        perp = np.stack([-np.conj(fr.pi[:, 1]), np.conj(fr.pi[:, 0])], axis=-1)
        oracle = perp / (norm_pi ** 2)[:, None]
        err = np.linalg.norm(fr.omega - oracle, axis=-1) / np.linalg.norm(oracle, axis=-1)
        assert np.max(err) <= 8 * eps
        assert np.all(np.isfinite(fr.omega_vec)) and np.all(np.isfinite(fr.pi_vec))


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
        assert np.max(list(frame_residuals(fr).values())) < 1e-12

    def test_random_invariants(self):
        rng = np.random.default_rng(3)
        p = core.random_future_momentum(1.0, rng, size=2000)
        fr = frame_massive(p, core.random_spinor(rng, size=2000))
        assert np.max(list(frame_residuals(fr).values())) < 1e-12

    def test_residuals_of_mixed_masses(self):
        # each sample is scaled by its own mass, not by the batch's largest
        p = np.array([[np.sqrt(1.25), 0.5, 0, 0], [np.sqrt(4.25), 0.5, 0, 0]])
        nu = np.array([1.0, 0.3j])
        fr = frame_massive(p, nu)
        assert np.max(list(frame_residuals(fr).values())) < 1e-12
        for i in range(2):
            assert np.max(list(frame_residuals(frame_massive(p[i], nu)).values())) < 1e-12

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

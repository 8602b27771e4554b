import numpy as np
import pytest

from bwspinor import core, quadrature
from bwspinor.bw import (NullOmega, RandomTimelike, StandardTime, norm_integrand,
                         standard_bw_integrand)
from bwspinor.errors import InvalidResolution
from bwspinor.quadrature import (GaussianPacket, build_grid, evaluate_norm,
                                 invariance_report, pairwise_sum)


class TestPairwiseSum:
    def test_matches_math_fsum(self):
        import math
        rng = np.random.default_rng(0)
        x = rng.normal(size=1001) * 10.0 ** rng.integers(-3, 3, size=1001)
        assert abs(pairwise_sum(x) - math.fsum(x)) < 1e-9 * np.sum(np.abs(x))

    def test_empty_and_single(self):
        assert pairwise_sum(np.array([])) == 0.0
        assert pairwise_sum(np.array([3.5])) == 3.5


class TestGrid:
    def test_box_volume(self):
        grid = build_grid(1.0, 3.0, 24)
        assert abs(pairwise_sum(grid.weights * 2 * grid.p[:, 0]) - 216.0) < 1e-12 * 216

    def test_on_shell(self):
        grid = build_grid(0.7, 2.0, 10)
        assert np.max(np.abs(core.mass_squared(grid.p) - 0.49)) < 1e-12

    def test_massless_origin_guard(self):
        grid = build_grid(0.0, 1.0, 5)   # odd N puts a sample at the origin
        assert np.min(np.linalg.norm(grid.p[:, 1:], axis=-1)) >= 1e-8
        assert np.all(grid.weights > 0)

    def test_invalid_resolution(self):
        with pytest.raises(InvalidResolution):
            build_grid(1.0, 3.0, 1)
        with pytest.raises(InvalidResolution):
            build_grid(1.0, -1.0, 8)
        for mass, half_width in [(np.nan, 3.0), (np.inf, 3.0), (1.0, np.nan),
                                 (1.0, np.inf), (-1.0, 3.0), (0.0, 0.0)]:
            with pytest.raises(InvalidResolution):
                build_grid(mass, half_width, 4)


class TestNorms:
    def test_direction_agreement_massive(self):
        packet = GaussianPacket(n=2, mass=1.0, sign=+1, coeffs=(1.0, 0.5j, -0.25),
                                center=(0.2, 0.0, 0.3), sigma=0.6)
        grid = build_grid(1.0, 3.0, 12)
        values = [evaluate_norm(packet, grid, spec) for spec in
                  (StandardTime(), NullOmega(), RandomTimelike(5))]
        base = values[0]
        assert all(abs(v - base) <= 1e-12 * abs(base) for v in values[1:])

    def test_direction_agreement_massless(self):
        packet = GaussianPacket(n=2, mass=0.0, sign=+1, coeffs=(1.0,),
                                center=(0.0, 0.4, 0.9), sigma=0.5)
        grid = build_grid(0.0, 3.0, 12)
        values = [evaluate_norm(packet, grid, spec) for spec in
                  (StandardTime(), NullOmega(), RandomTimelike(6))]
        base = values[0]
        assert all(abs(v - base) <= 1e-12 * abs(base) for v in values[1:])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_standard_ratio(self, n):
        packet = GaussianPacket(n=n, mass=1.0, sign=+1,
                                coeffs=tuple(1.0 + 0.1 * k for k in range(n + 1)),
                                sigma=0.7)
        grid = build_grid(1.0, 3.0, 10)
        gen = evaluate_norm(packet, grid, StandardTime())
        std = evaluate_norm(packet, grid, standard=True)
        assert abs(gen / std - 2.0 ** (-n / 2)) < 1e-9

    def test_zero_coefficients(self):
        packet = GaussianPacket(n=1, mass=1.0, sign=+1, coeffs=(0.0, 0.0))
        grid = build_grid(1.0, 2.0, 6)
        assert evaluate_norm(packet, grid) == 0.0

    def test_self_convergence_order(self):
        packet = GaussianPacket(n=1, mass=1.0, sign=+1, coeffs=(1.0, 0.5),
                                sigma=0.5)
        vals = {n: evaluate_norm(GaussianPacket(n=1, mass=1.0, sign=+1,
                                                coeffs=(1.0, 0.5), sigma=0.5),
                                 build_grid(1.0, 4.0, n), StandardTime())
                for n in (8, 16, 32)}
        assert abs(vals[16] - vals[32]) < 1e-3 * abs(vals[32])
        order = np.log2(abs(vals[8] - vals[16]) / abs(vals[16] - vals[32]))
        assert order >= 1.9

    def test_thread_count_bit_identical(self, monkeypatch):
        packet = GaussianPacket(n=2, mass=1.0, sign=+1, coeffs=(1.0, 1.0, 1.0),
                                sigma=0.8)
        grid = build_grid(1.0, 3.0, 20)   # 8000 samples spans chunk boundaries
        results = []
        for workers in ("1", "2", "8"):
            monkeypatch.setenv("BWSPINOR_THREADS", workers)
            results.append(evaluate_norm(packet, grid, NullOmega()))
        assert results[0] == results[1] == results[2]


class TestChunks:
    """Chunked serial evaluation equals one pairwise sum over all samples."""

    packet = GaussianPacket(n=2, mass=1.0, sign=+1, coeffs=(1.0, 0.5j, -0.25),
                            center=(0.2, 0.0, 0.3), sigma=0.8, nu=(0.6, 0.3 + 0.2j))

    @pytest.mark.parametrize("spec, standard", [(StandardTime(), False),
                                                (NullOmega(), False),
                                                (None, True)])
    def test_matches_serial_reference(self, spec, standard):
        grid = build_grid(1.0, 3.0, 20)   # 8000 samples: two chunks
        pieces = []
        for start in range(0, grid.p.shape[0], quadrature._CHUNK):
            psi, fr = self.packet.component(grid.p[start:start + quadrature._CHUNK])
            pieces.append(standard_bw_integrand(psi) if standard
                          else norm_integrand(psi, spec, fr))
        reference = pairwise_sum(np.concatenate(pieces) * grid.weights)
        assert evaluate_norm(self.packet, grid, spec, standard=standard) == reference


class TestInvariance:
    def test_identity_map(self):
        packet = GaussianPacket(n=2, mass=1.0, sign=+1, coeffs=(1.0, 0.3, 0.1),
                                sigma=0.7)
        grid = build_grid(1.0, 2.5, 8)
        report = invariance_report(packet, np.eye(2), grid)
        assert report["pointwise_max_residual"] < 1e-14

    def test_boost_massive(self):
        packet = GaussianPacket(n=2, mass=1.0, sign=+1, coeffs=(1.0, 0.3, 0.1),
                                sigma=0.7)
        grid = build_grid(1.0, 2.5, 8)
        eta = 0.5
        a = np.diag([np.exp(eta / 2), np.exp(-eta / 2)]).astype(complex)
        report = invariance_report(packet, a, grid)
        assert report["pointwise_max_residual"] < 1e-10

    def test_rotation_massless(self):
        packet = GaussianPacket(n=2, mass=0.0, sign=+1, coeffs=(1.0,),
                                center=(0.0, 0.0, 0.8), sigma=0.5)
        grid = build_grid(0.0, 2.5, 8)
        theta = 0.7
        rot = np.array([[np.cos(theta / 2), -np.sin(theta / 2)],
                        [np.sin(theta / 2), np.cos(theta / 2)]]).astype(complex)
        report = invariance_report(packet, rot, grid)
        assert report["pointwise_max_residual"] < 1e-10

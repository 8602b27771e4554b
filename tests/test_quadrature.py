import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from bwspinor import core, quadrature
from bwspinor.bw import (FixedList, NullOmega, RandomTimelike, StandardTime,
                         norm_integrand, standard_bw_integrand, transform_component)
from bwspinor.errors import InvalidResolution
from bwspinor.quadrature import GaussianPacket, build_grid, evaluate_norm, pairwise_sum


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

    def test_thread_count_bit_identical(self):
        # every thread works in its own workspace, so the same norm run on
        # 1, 2 or 8 threads at once, switching often, reads the same bits as
        # a lone call, on every route: the rank-one and diagonal closed
        # forms, the slot action and the slot recursion
        packet = GaussianPacket(n=2, mass=1.0, sign=+1, coeffs=(1.0, 1.0, 1.0),
                                sigma=0.8)
        grid = build_grid(1.0, 3.0, 20)   # 8000 samples spans chunk boundaries
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for spec in (NullOmega(), StandardTime(), FixedList(((1.2, 0.3, -0.1, 0.2),)),
                         RandomTimelike(3)):
                serial = evaluate_norm(packet, grid, spec)
                for workers in (1, 2, 8):
                    with ThreadPoolExecutor(max_workers=workers) as pool:
                        results = list(pool.map(lambda _: evaluate_norm(packet, grid, spec),
                                                range(workers), timeout=60))
                    assert len(results) == workers
                    assert all(value == serial for value in results)
        finally:
            sys.setswitchinterval(interval)


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


def pointwise_invariance(packet, a, grid) -> float:
    """Largest relative change of the NullOmega integrand of a packet's field
    under the SL(2,C) map a, sample by sample."""
    psi, fr = packet.component(grid.p)
    base = norm_integrand(psi, NullOmega(), fr)
    moved = transform_component(psi, a)
    mapped = norm_integrand(moved, NullOmega(), packet.frame(moved.p))
    return float(np.max(np.abs(mapped - base) / np.maximum(1.0, np.abs(base))))


class TestInvariance:
    def test_identity_map(self):
        packet = GaussianPacket(n=2, mass=1.0, sign=+1, coeffs=(1.0, 0.3, 0.1),
                                sigma=0.7)
        grid = build_grid(1.0, 2.5, 8)
        assert pointwise_invariance(packet, np.eye(2), grid) < 1e-14

    def test_boost_massive(self):
        packet = GaussianPacket(n=2, mass=1.0, sign=+1, coeffs=(1.0, 0.3, 0.1),
                                sigma=0.7)
        grid = build_grid(1.0, 2.5, 8)
        eta = 0.5
        a = np.diag([np.exp(eta / 2), np.exp(-eta / 2)]).astype(complex)
        assert pointwise_invariance(packet, a, grid) < 1e-10

    def test_rotation_massless(self):
        packet = GaussianPacket(n=2, mass=0.0, sign=+1, coeffs=(1.0,),
                                center=(0.0, 0.0, 0.8), sigma=0.5)
        grid = build_grid(0.0, 2.5, 8)
        theta = 0.7
        rot = np.array([[np.cos(theta / 2), -np.sin(theta / 2)],
                        [np.sin(theta / 2), np.cos(theta / 2)]]).astype(complex)
        assert pointwise_invariance(packet, rot, grid) < 1e-10

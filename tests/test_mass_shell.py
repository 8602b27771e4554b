"""One mass-shell rule: `core.on_shell` decides it for the file reader and
for synthesis alike, and the light-cone rules hold for any finite momentum.

Warnings are errors here, so a rule that overflows on the way to its answer
fails as well.
"""

import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bwspinor import core
from bwspinor.bw import Amplitudes, synth_massive
from bwspinor.cli import main
from bwspinor.errors import FrameMismatch
from bwspinor.fileio import read_amplitude_file, write_amplitude_file
from bwspinor.frames import frame_massive, frame_massless
from bwspinor.pauli_lubanski import energy_projectors, pl_eigenvalues

pytestmark = pytest.mark.filterwarnings("error")

# a unit direction for the spatial momentum: 0.48^2 + 0.6^2 + 0.64^2 = 1
DIRECTION = np.array([0.48, -0.6, 0.64])


def shell_momentum(m, p0, offset):
    """p with the spatial momentum of energy p0 on the shell of m, and p^0
    moved so that p.p = m^2 + offset (p0)^2."""
    v = np.sqrt(p0 ** 2 - m ** 2) * DIRECTION
    return np.concatenate([[np.sqrt(v @ v + m ** 2 + offset * p0 ** 2)], v])


class TestOnShell:
    @pytest.mark.parametrize("p", [[np.nan, 0.0, 0.0, 0.0], [1.0, np.inf, 0.0, 0.0],
                                   [np.inf, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0],
                                   [0.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 1.0],
                                   [1.0, 0.0, 0.0, 1e200], [1e200, 2e200, 0.0, 0.0]])
    @pytest.mark.parametrize("mass", [1.0, 0.0])
    def test_rejected(self, p, mass):
        assert not core.on_shell(np.array(p), mass)

    @pytest.mark.parametrize("p, mass", [([1e200, 0.0, 0.0, 0.0], 1.0),
                                         ([1e200, 0.0, 0.0, 0.0], 0.0),
                                         ([1e200, 0.0, 0.0, 1e200], 1.0),
                                         ([1.0, 0.0, 0.0, 0.0], 1e200)])
    def test_rejected_far_off_scale(self, p, mass):
        assert not core.on_shell(np.array(p), mass)

    @pytest.mark.parametrize("p, mass", [([1e200, 0.0, 0.0, 0.0], 1e200),
                                         ([1e200, 0.0, 0.0, 1e200], 0.0),
                                         ([1e-200, 0.0, 0.0, 0.0], 1e-200),
                                         ([5.0, 3.0, 0.0, 4.0], 0.0),
                                         ([5.0, 3.0, 0.0, 0.0], 4.0)])
    def test_accepted(self, p, mass):
        assert core.on_shell(np.array(p), mass)

    def test_massless_is_null_shell_on_the_future_cone(self):
        rng = np.random.default_rng(7)
        p = core.random_future_momentum(0.0, rng, size=3000)
        offsets = rng.choice([0.0, 1e-12, -1e-12, 9e-11, -9e-11, 2e-10, -2e-10, 1e-6],
                             size=3000)
        p[:, 0] = np.sqrt(p[:, 0] ** 2 * (1.0 + offsets))
        p *= 10.0 ** rng.integers(-150, 150, size=3000)[:, None]
        got = core.on_shell(p, 0.0)
        assert np.array_equal(got, core.null_shell(p))
        assert 0 < np.count_nonzero(got) < p.shape[0]

    def test_massive_needs_timelike(self):
        # |p.p - m^2| is tiny next to (p^0)^2, but p is nearly null
        p = shell_momentum(0.1, 1e6, 0.0)
        assert not core.on_shell(p, 0.1)
        assert core.on_shell(p, 0.0)

    def test_batched_names_each_sample(self):
        p = np.stack([shell_momentum(1.0, 2.0, d) for d in (0.0, 1e-9, -1e-12, -1e-7)])
        assert core.on_shell(p, 1.0).tolist() == [True, False, True, False]


class TestLargeMomenta:
    def test_massless_frame_at_1e200(self):
        p = np.array([1e200, 0.0, 0.0, 1e200])
        fr = frame_massless(p)
        assert_allclose(fr.pi_vec, p, rtol=1e-14, atol=0.0)

    def test_massive_frame_at_1e200(self):
        p = np.array([1e200, 3e199, 0.0, 4e199])
        fr = frame_massive(p, np.array([0.6, 0.8j]))
        m = core.invariant_mass(fr.p)
        assert_allclose(m, np.sqrt(0.75) * 1e200, rtol=1e-14)
        recon = m / np.sqrt(2.0) * (fr.omega_vec + fr.pi_vec)
        assert_allclose(recon, p, rtol=0.0, atol=1e-14 * 1e200)

    def test_energy_projectors_at_1e200(self):
        proj = energy_projectors(np.array([1e200, 0.0, 0.0, 0.0]))
        assert_allclose(proj[+1] + proj[-1], np.eye(4), atol=1e-14)
        assert_allclose(proj[+1] @ proj[+1], proj[+1], atol=1e-14)

    def test_pl_eigenvalues_scale_exactly(self):
        # homogeneous of degree one in p, with no overflow at 1e200
        p = core.random_future_momentum(1.0, 5, size=50)
        t = core.random_timelike(6, size=50)
        scale = 2.0 ** 660
        assert np.array_equal(pl_eigenvalues(t, scale * p)[0], scale * pl_eigenvalues(t, p)[0])

    def test_invariant_mass_matches_sqrt(self):
        p = core.random_future_momentum(1.3, 3, size=500, scale=4.0)
        assert np.array_equal(core.invariant_mass(p), np.sqrt(core.mass_squared(p)))


class TestTinyMasslessMomenta:
    """The flag-spinor partner is scale-free, so a null p far below unit
    scale gets a normalized frame and passes synth and extract."""

    @staticmethod
    def momenta(p0):
        return p0 * np.array([[1.0, 0.0, 0.0, 1.0], np.concatenate([[1.0], DIRECTION])])

    @pytest.mark.parametrize("p0", [1e-30, 1e-200])
    def test_frame_is_normalized(self, p0):
        fr = frame_massless(self.momenta(p0))
        contraction = core.spinor_contract(core.lower_spinor(fr.pi), fr.omega)
        assert np.max(np.abs(contraction - 1.0)) <= 1e-14

    @pytest.mark.parametrize("p0", [1e-30, 1e-200])
    def test_synthesizes_through_the_cli(self, tmp_path, capsys, p0):
        f = np.array([[1.0 + 2.0j], [-0.5j]])
        amp, field, back = (tmp_path / name for name in ("amp.json", "field.json", "back.json"))
        write_amplitude_file(amp, Amplitudes(2, 0.0, +1, f), self.momenta(p0))
        assert main(["synth", "--in", str(amp), "--out", str(field)]) == 0, \
            capsys.readouterr().err
        assert main(["extract", "--in", str(field), "--out", str(back)]) == 0, \
            capsys.readouterr().err
        assert_allclose(read_amplitude_file(back).amplitudes.f, f, rtol=1e-12)


class TestTwoMassBatch:
    @pytest.mark.parametrize("order", [(1.0, 2.0), (2.0, 1.0)])
    def test_synth_names_the_outlier(self, order):
        p = np.stack([shell_momentum(m, 3.0, 0.0) for m in order])
        fr = frame_massive(p, np.array([1.0, 0.0]))
        outlier = order.index(2.0)
        with pytest.raises(FrameMismatch, match=rf"sample index \[{outlier}\]"):
            synth_massive(fr, Amplitudes(2, 1.0, +1, np.ones((2, 3))))


# the reader/synth sweep: 120 files, each with one test sample beside an exact one
SWEEP = [(m, p0, offset, first)
         for m, p0, offset, first in itertools.product(
             [0.0, 0.1, 1.0], [1e-3, 1.0, 1e3, 1e6],
             [0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-7], [True, False])
         if p0 >= m]


def test_sweep_size():
    assert len(SWEEP) == 120


@pytest.mark.parametrize("m, p0, offset, first", SWEEP)
def test_reader_and_synth_agree(tmp_path, capsys, m, p0, offset, first):
    exact = np.array([m, 0.0, 0.0, 0.0]) if m > 0 else np.array([1.0, 0.0, 0.0, 1.0])
    test = shell_momentum(m, p0, offset)
    p = np.stack([test, exact] if first else [exact, test])
    index = 0 if first else 1
    n = 2
    f = np.ones((2, n + 1 if m > 0 else 1), dtype=complex)
    path = tmp_path / "amp.json"
    write_amplitude_file(path, Amplitudes(n, m, +1, f), p)
    code = main(["synth", "--in", str(path), "--out", str(tmp_path / "field.json")])
    err = capsys.readouterr().err
    # the rule of core.on_shell, written out
    expect_ok = abs(offset) < 1e-10 and (m == 0 or m * m > 1e-10 * p0 * p0)
    assert code == (0 if expect_ok else 2), err
    if not expect_ok:
        assert f"schema error at /samples/{index}/p:" in err

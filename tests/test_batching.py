"""Batched evaluation must agree entrywise with per-sample evaluation."""

import numpy as np
from numpy.testing import assert_allclose

from bwspinor import core
from bwspinor.bw import (Amplitudes, NullOmega, extract_massive, norm_integrand,
                         synth_massive)
from bwspinor.frames import frame_massive, frame_massless
from bwspinor.pauli_lubanski import pl_eigenvalues, pl_project


def test_frame_matches_per_sample():
    rng = np.random.default_rng(0)
    p = core.random_future_momentum(1.0, rng, size=5)
    nu = core.random_spinor(rng, size=5)
    batched = frame_massive(p, nu)
    for i in range(5):
        single = frame_massive(p[i], nu[i])
        assert_allclose(batched.pi[i], single.pi, atol=1e-15)
        assert_allclose(batched.omega[i], single.omega, atol=1e-15)
        assert_allclose(batched.omega_vec[i], single.omega_vec, atol=1e-15)


def test_massless_frame_matches_per_sample():
    p = core.random_future_momentum(0.0, 1, size=5)
    batched = frame_massless(p)
    for i in range(5):
        single = frame_massless(p[i])
        assert_allclose(batched.pi[i], single.pi, atol=1e-15)
        assert_allclose(batched.omega[i], single.omega, atol=1e-15)


def test_projection_matches_per_sample():
    rng = np.random.default_rng(2)
    p = core.random_future_momentum(1.0, rng, size=4)
    t = core.random_timelike(rng, size=4)
    bu, bp = pl_project(t, p)
    bh, _ = pl_eigenvalues(t, p)
    for i in range(4):
        su, sp = pl_project(t[i], p[i])
        half, _ = pl_eigenvalues(t[i], p[i])
        assert_allclose(bu[i], su, atol=1e-15)
        assert_allclose(bp[i], sp, atol=1e-15)
        assert_allclose(bh[i], half, atol=1e-15)


def test_synthesis_pipeline_matches_per_sample():
    rng = np.random.default_rng(3)
    n, size = 3, 4
    p = core.random_future_momentum(1.0, rng, size=size)
    nu = core.random_spinor(rng, size=size)
    f = rng.normal(size=(size, n + 1)) + 1j * rng.normal(size=(size, n + 1))
    fr = frame_massive(p, nu)
    psi = synth_massive(fr, Amplitudes(n, 1.0, +1, f))
    integrand = norm_integrand(psi, NullOmega(), fr)
    back = extract_massive(psi, fr)
    for i in range(size):
        fr_i = frame_massive(p[i], nu[i])
        psi_i = synth_massive(fr_i, Amplitudes(n, 1.0, +1, f[i]))
        for k in range(n + 1):
            assert_allclose(psi.comps[k].comp[i], psi_i.comps[k].comp,
                            atol=1e-14)
        assert_allclose(integrand[i],
                        norm_integrand(psi_i, NullOmega(), fr_i),
                        atol=1e-13)
        assert_allclose(back.f[i], extract_massive(psi_i, fr_i).f, atol=1e-13)

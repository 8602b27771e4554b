"""The constant-table maps of core and pauli_lubanski against index-loop oracles.

Each map is a matmul against a table built at import; the oracles in
tests/oracles.py loop over indices with the conventions written out again.
The tables change only the order of the floating-point sums, so each map
must agree to a few ulps of the largest entry.
"""

import numpy as np
import pytest

from bwspinor import core, maxwell
from bwspinor.pauli_lubanski import pl_momentum_rep, pl_project

import oracles

SHAPES = [(), (20,), (2, 3)]
TOL = 1e-14


def assert_close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    scale = max(1.0, float(np.max(np.abs(want))))
    assert float(np.max(np.abs(got - want))) <= TOL * scale


def vectors(seed, lead):
    return np.random.default_rng(seed).normal(size=lead + (4,))


@pytest.mark.parametrize("lead", SHAPES)
@pytest.mark.parametrize("valence", ["up", "low", "lu", "ul"])
def test_vector_to_dyad(lead, valence):
    p = vectors(1, lead)
    assert_close(core.vector_to_dyad(p, valence), oracles.vector_to_dyad_loop(p, valence))


@pytest.mark.parametrize("valence", ["up", "low", "lu", "ul"])
def test_vector_to_dyad_complex(valence):
    rng = np.random.default_rng(2)
    p = rng.normal(size=(20, 4)) + 1j * rng.normal(size=(20, 4))
    assert_close(core.vector_to_dyad(p, valence), oracles.vector_to_dyad_loop(p, valence))


@pytest.mark.parametrize("lead", SHAPES)
@pytest.mark.parametrize("valence", ["up", "low"])
def test_dyad_to_vector(lead, valence):
    rng = np.random.default_rng(3)
    d = rng.normal(size=lead + (2, 2)) + 1j * rng.normal(size=lead + (2, 2))
    assert_close(core.dyad_to_vector(d, valence), oracles.dyad_to_vector_loop(d, valence))


def test_unknown_valence():
    with pytest.raises(ValueError, match="unknown valence"):
        core.vector_to_dyad(np.zeros(4), "down")
    with pytest.raises(ValueError, match="unknown valence"):
        core.dyad_to_vector(np.zeros((2, 2)), "down")


@pytest.mark.parametrize("lead", SHAPES)
def test_lorentz_from_sl2c(lead):
    size = int(np.prod(lead, dtype=int))
    a = core.random_sl2c(4, size=size).reshape(lead + (2, 2))
    assert_close(core.lorentz_from_sl2c(a), oracles.lorentz_from_sl2c_loop(a))


@pytest.mark.parametrize("lead", SHAPES)
def test_pair_to_world(lead):
    rng = np.random.default_rng(5)
    x = rng.normal(size=lead + (2,) * 4) + 1j * rng.normal(size=lead + (2,) * 4)
    assert_close(core.pair_to_world(x), oracles.pair_to_world_loop(x))


def test_stress_tensor_spinor_is_the_pair_contraction():
    rng = np.random.default_rng(6)
    phi = rng.normal(size=(20, 2, 2)) + 1j * rng.normal(size=(20, 2, 2))
    spin = np.einsum('...AB,...mn->...AmBn', phi, np.conj(phi))
    assert_close(maxwell.stress_tensor_spinor(phi),
                 np.real(oracles.pair_to_world_loop(spin)))


@pytest.mark.parametrize("lead", SHAPES)
def test_pl_momentum_rep(lead):
    p = vectors(7, lead)
    rep = pl_momentum_rep(p)
    unprimed, primed = oracles.pl_momentum_rep_loop(p)
    assert_close(rep.unprimed, unprimed)
    assert_close(rep.primed, primed)


@pytest.mark.parametrize("lead", SHAPES)
def test_pl_project(lead):
    t, p = vectors(8, lead), vectors(9, lead)
    for got, want in zip(pl_project(t, p), oracles.pl_project_loop(t, p)):
        assert_close(got, want)


def test_pl_project_broadcasts_single_direction():
    t, p = vectors(10, ()), vectors(11, (20,))
    got = pl_project(t, p)
    assert got[0].shape == got[1].shape == (20, 2, 2)
    for g, want in zip(got, oracles.pl_project_loop(t, p)):
        assert_close(g, want)

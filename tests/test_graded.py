"""Graded kernels against their dense counterparts, at every doubled spin.

`sym_power_matrices` is checked against an explicit sum over index tuples.
For each n in 1..MAX_N the equal-slot `contract_T` is held to the slot
recursion of the distinct-direction route (forced with equal_slots=False on
identical vectors), and that recursion to the dense pattern route of
`oracles.contract_T_dense` for n <= 8.  The `form="p"` and null-omega
integrands, and the integrand for n distinct random timelike or null
directions per sample, are held to sum_k C(n,k) |f_k|^2 per sample;
`standard_bw_integrand` and `transform_component` to dense evaluations.
The distinct-direction route takes its samples in blocks: its peak memory
is bounded, and its values do not depend on where the blocks split.
"""

import itertools
import tracemalloc
from math import comb

import numpy as np
import pytest

from bwspinor import bw, core
from bwspinor.bw import (MAX_N, Amplitudes, BWComponent, NullOmega,
                         StandardTime, contract_T, norm_integrand,
                         resolve_directions, standard_bw_integrand,
                         synth_massive, transform_component)
from bwspinor.frames import frame_massive
from bwspinor.multispinor import SymMultiSpinor, sym_power_matrices
from bwspinor.quadrature import build_grid
from oracles import contract_T_dense, dense, dense_from_graded

SPINS = range(1, MAX_N + 1)


def random_component(n, count, seed):
    rng = np.random.default_rng(seed)
    p = core.random_future_momentum(1.0, rng, size=count)
    fr = frame_massive(p, core.random_spinor(rng, size=count))
    f = rng.normal(size=(count, n + 1)) + 1j * rng.normal(size=(count, n + 1))
    return synth_massive(fr, Amplitudes(n=n, mass=1.0, sign=+1, f=f)), fr, f


def relative(got, want):
    return np.max(np.abs(got - want) / np.abs(want))


@pytest.mark.parametrize("r", range(5))
def test_sym_power_matrices_tuple_sums(r):
    rng = np.random.default_rng(r)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    want = np.zeros((r + 1, r + 1), dtype=complex)
    for a in itertools.product(range(2), repeat=r):
        for b in itertools.product(range(2), repeat=r):
            want[sum(a), sum(b)] += np.prod([m[x, y] for x, y in zip(a, b)])
    np.testing.assert_allclose(sym_power_matrices(m, r)[r], want, atol=1e-13)


def test_sym_power_matrices_multiplicative():
    rng = np.random.default_rng(11)
    m1, m2 = (rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
              for _ in range(2))
    r = 6
    binom = np.array([comb(r, i) for i in range(r + 1)])
    lhs = sym_power_matrices(m1 @ m2, r)[r]
    rhs = (sym_power_matrices(m1, r)[r] / binom) @ sym_power_matrices(m2, r)[r]
    np.testing.assert_allclose(lhs, rhs, atol=1e-12 * np.max(np.abs(lhs)))


@pytest.mark.parametrize("n", SPINS)
@pytest.mark.parametrize("spec", [StandardTime(), NullOmega()],
                         ids=["standard", "null-omega"])
def test_equal_slot_T_matches_dense_route(n, spec):
    psi, fr, _ = random_component(n, 3, seed=100 + n)
    ts, equal = resolve_directions(spec, n, psi, fr)
    assert equal
    graded = contract_T(psi, ts, True)
    dense = contract_T(psi, ts, False)
    assert relative(graded, dense) < 1e-12


@pytest.mark.parametrize("n", SPINS)
def test_direction_free_forms_are_amplitude_sum(n):
    grid = build_grid(1.0, 3.0, 8)
    rng = np.random.default_rng(200 + n)
    count = grid.p.shape[0]
    fr = frame_massive(grid.p, core.random_spinor(rng, size=count))
    f = rng.normal(size=(count, n + 1)) + 1j * rng.normal(size=(count, n + 1))
    psi = synth_massive(fr, Amplitudes(n=n, mass=1.0, sign=+1, f=f))
    want = np.abs(f) ** 2 @ np.array([comb(n, k) for k in range(n + 1)], dtype=float)
    assert relative(norm_integrand(psi, None, fr, form="p"), want) < 1e-9
    # a null direction pairs through a rank-one dyad and keeps fewer digits at high n
    assert relative(norm_integrand(psi, NullOmega(), fr), want) < 1e-8


@pytest.mark.parametrize("n", range(1, 9))
def test_distinct_T_matches_dense_route(n):
    psi, _, _ = random_component(n, 3, seed=600 + n)
    rng = np.random.default_rng(700 + n)
    ts = np.stack([core.random_timelike(rng, size=3) for _ in range(n)])
    assert relative(contract_T(psi, ts, False), contract_T_dense(psi, ts)) < 1e-13


@pytest.mark.parametrize("n", SPINS)
@pytest.mark.parametrize("mass", [1.0, 0.0], ids=["timelike", "null"])
def test_distinct_directions_are_amplitude_sum(n, mass):
    # n independent random directions on every sample, timelike or null
    grid = build_grid(1.0, 3.0, 8)
    rng = np.random.default_rng(800 + n)
    count = grid.p.shape[0]
    fr = frame_massive(grid.p, core.random_spinor(rng, size=count))
    f = rng.normal(size=(count, n + 1)) + 1j * rng.normal(size=(count, n + 1))
    psi = synth_massive(fr, Amplitudes(n=n, mass=1.0, sign=+1, f=f))
    ts = np.stack([core.random_future_momentum(mass, rng, size=count)
                   for _ in range(n)])
    got = contract_T(psi, ts, False) / np.prod(core.minkowski(ts, grid.p), axis=0)
    want = np.abs(f) ** 2 @ np.array([comb(n, k) for k in range(n + 1)], dtype=float)
    assert relative(got, want) < 1e-10


@pytest.mark.parametrize("n", SPINS)
def test_standard_integrand_matches_dense_sum(n):
    psi, _, _ = random_component(n, 3, seed=300 + n)
    want = sum(comb(n, k) * np.sum(np.abs(dense_from_graded(c.comp, n - k, k)) ** 2,
                                   axis=tuple(range(1, n + 1)))
               for k, c in enumerate(psi.comps)) / psi.p[:, 0] ** n
    assert relative(standard_bw_integrand(psi), want) < 1e-12


def dense_slot_action(comp, r, s, m_unprimed, m_primed):
    """Apply the matrices slot by slot to the dense expansion."""
    n = r + s
    letters = "ABCDEFGHIJKLMNOPQRST"[:n]
    dense = dense_from_graded(comp, r, s)
    for axis in range(n):
        m = m_unprimed if axis < r else m_primed
        dst = letters[:axis] + "z" + letters[axis + 1:]
        dense = np.einsum(f"...{letters},...z{letters[axis]}->...{dst}", dense, m)
    return dense


@pytest.mark.parametrize("n", SPINS)
def test_transform_matches_dense_slot_action(n):
    psi, _, _ = random_component(n, 2, seed=400 + n)
    a = core.random_sl2c(np.random.default_rng(500 + n), size=2)
    moved = transform_component(psi, a)
    a_low = core.sl2c_lower_rep(a)
    for k, c in enumerate(psi.comps):
        want = dense_slot_action(c.comp, n - k, k, a_low, np.conj(a_low))
        got = dense(moved.comps[k])
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


def _sample(psi, ts, i):
    """Sample i of psi and of the per-sample directions ts, as batches of one."""
    comps = tuple(SymMultiSpinor(c.r, c.s, c.comp[i:i + 1]) for c in psi.comps)
    return BWComponent(psi.n, psi.mass, psi.sign, psi.p[i:i + 1], comps), ts[:, i:i + 1]


def test_distinct_T_peak_memory_is_bounded():
    # n = 10 on 512 samples holds about 76 MiB of slot states at once
    # without sample blocks; the budget keeps them near 32 MiB
    n = MAX_N
    psi, _, _ = random_component(n, 512, seed=900)
    ts = np.stack([core.random_timelike(np.random.default_rng(901 + k), size=512)
                   for k in range(n)])
    tracemalloc.start()
    try:
        contract_T(psi, ts, False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2 ** 20


def test_distinct_T_block_boundary_matches_per_sample():
    n = MAX_N
    psi, _, _ = random_component(n, 512, seed=902)
    ts = np.stack([core.random_timelike(np.random.default_rng(903 + k), size=512)
                   for k in range(n)])
    block = bw._STATE_BYTES // (16 * sum((a + 1) ** 2 * (n - a + 1) ** 2
                                         for a in range(n + 1)))
    assert 2 < block < 510
    got = contract_T(psi, ts, False)
    for i in (0, block - 2, block - 1, block, block + 1, 2 * block, 511):
        alone = contract_T(*_sample(psi, ts, i), False)
        assert abs(got[i] - alone[0]) <= 1e-15 * abs(alone[0])


@pytest.mark.parametrize("n", [1, 3, 6])
@pytest.mark.parametrize("budget", [1, 5000])
def test_distinct_T_independent_of_block_size(monkeypatch, n, budget):
    psi, _, _ = random_component(n, 37, seed=910 + n)
    ts = np.stack([core.random_timelike(np.random.default_rng(920 + k), size=37)
                   for k in range(n)])
    whole = contract_T(psi, ts, False)
    monkeypatch.setattr(bw, "_STATE_BYTES", budget)
    blocked = contract_T(psi, ts, False)
    assert np.max(np.abs(blocked - whole) / np.abs(whole)) <= 1e-15

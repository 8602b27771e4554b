"""Graded kernels against their dense counterparts, at every doubled spin.

`sym_power_matrices` is checked against an explicit sum over index tuples.
For each n in 1..MAX_N the equal-slot `contract_T` is held to the
distinct-direction route (`bw._monomial_pairing`, called on identical
vectors), and that route to the dense pattern route of
`oracles.contract_T_dense` for n <= 8.  The components L_alpha of T on the
monomials of the dyad entries, which that route reads, are held per sample
to N p_AB^alpha, with N the amplitude sum, for massive and massless
fields.  The `form="p"` and null-omega integrands, and the integrand for n
distinct random timelike or null directions per sample, are held to
sum_k C(n,k) |f_k|^2 per sample;
`form="p"`, the direction t = p on every slot, to the pairing of p scaled
by m^(-2n); the rotated route of a general equal-slot direction to the
diagonal pairing of the members moved to standard coordinates and then by
the rotation that diagonalizes it there;
`standard_bw_integrand` and `transform_component` to dense evaluations.
Synthesis, moved to standard coordinates (`bw.to_standard`), is held to the
index loop over every routing of `oracles.synth_bruteforce` at every n,
extraction to the index loop of `oracles.extract_bruteforce`, and the
signed flip between the primed and unprimed slot factors of the chi
expansion to a direct `sym_power_matrices`; synthesis and the Hertz route
build no table of `sym_power_matrices` and take no slot action.  The
kernels take their samples in blocks: their peak memory is bounded, a warm
call allocates no working array, and the distinct-direction values do not
depend on where the blocks split.
"""

import dataclasses
import itertools
import platform
import tracemalloc
from math import comb
from types import SimpleNamespace

import numpy as np
import pytest

from bwspinor import bw, core, multispinor
from bwspinor.bw import (MAX_N, Amplitudes, BWComponent, FixedList, NullOmega,
                         StandardTime, contract_T, extract_massive,
                         hertz_psi, norm_integrand, resolve_directions,
                         standard_bw_integrand, synth_massive, synth_massless,
                         transform_component)
from bwspinor.frames import axis_rotation, frame_massive, frame_massless
from bwspinor.multispinor import SymMultiSpinor, _blocks, sym_power_matrices
from bwspinor.quadrature import build_grid
from bwspinor.pauli_lubanski import default_normalization
from oracles import (contract_T_dense, dense, dense_from_graded, extract_bruteforce,
                     synth_bruteforce)

SPINS = range(1, MAX_N + 1)


def random_component(n, count, seed):
    rng = np.random.default_rng(seed)
    p = core.random_future_momentum(1.0, rng, size=count)
    fr = frame_massive(p, core.random_spinor(rng, size=count))
    f = rng.normal(size=(count, n + 1)) + 1j * rng.normal(size=(count, n + 1))
    return synth_massive(fr, Amplitudes(n=n, mass=1.0, sign=+1, f=f)), fr, f


def relative(got, want):
    return np.max(np.abs(got - want) / np.abs(want))


def standard(psi):
    """psi with its members in standard coordinates, as the oracles read them."""
    return dataclasses.replace(psi, comps=bw.to_standard(psi))


def rotated(t, psi):
    """The vectors t in the basis of the members of psi."""
    return bw._rotated(t, axis_rotation(psi.p)[0])


def moved_pairing(psi, t):
    """t...t T with t on every slot, in the basis of the members of psi: the
    diagonal pairing through diag(lam) of the members moved by a, with a,
    lam = axis_rotation(t)."""
    a, lam = axis_rotation(t)
    moved = dataclasses.replace(psi, comps=bw._move_members(psi.comps, a))
    return bw._diagonal_pairing(moved, lam[..., 0], lam[..., 1])


@pytest.mark.parametrize("r", range(5))
def test_sym_power_matrices_tuple_sums(r):
    rng = np.random.default_rng(r)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    want = np.zeros((r + 1, r + 1), dtype=complex)
    for a in itertools.product(range(2), repeat=r):
        for b in itertools.product(range(2), repeat=r):
            want[sum(a), sum(b)] += np.prod([m[x, y] for x, y in zip(a, b)])
    # Q_r = D_r^{-1} S_r: the tuple sums over the C(r, i) tuples a with i ones
    want /= np.array([comb(r, i) for i in range(r + 1)])[:, None]
    np.testing.assert_allclose(sym_power_matrices(m, r)[r], want, atol=1e-13)


def test_sym_power_matrices_multiplicative():
    rng = np.random.default_rng(11)
    m1, m2 = (rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
              for _ in range(2))
    r = 6
    lhs = sym_power_matrices(m1 @ m2, r)[r]
    assert lhs.shape == (r + 1, r + 1, 3)    # batch-last
    rhs = np.einsum("ij...,jk...->ik...", sym_power_matrices(m1, r)[r],
                    sym_power_matrices(m2, r)[r])
    np.testing.assert_allclose(lhs, rhs, atol=1e-12 * np.max(np.abs(lhs)))


@pytest.mark.parametrize("n", SPINS)
@pytest.mark.parametrize("sign", [+1, -1])
@pytest.mark.parametrize("normalization", [None, 0.6 - 0.8j], ids=["default", "complex"])
def test_synth_matches_routing_sum(n, sign, normalization):
    # the members, moved to standard coordinates, against every routing of
    # the chi factors of the frame given
    rng = np.random.default_rng(1000 + n)
    p = core.random_future_momentum(1.0, rng, size=3)
    fr = frame_massive(p, core.random_spinor(rng, size=3))
    f = rng.normal(size=(3, n + 1)) + 1j * rng.normal(size=(3, n + 1))
    psi = synth_massive(fr, Amplitudes(n=n, mass=1.0, sign=sign, f=f), normalization)
    want = synth_bruteforce(fr, f, sign, default_normalization(fr)
                            if normalization is None else normalization)
    for got, ref in zip(bw.to_standard(psi), want):
        err = np.max(np.abs(got.comp - ref), axis=(-2, -1))
        assert np.all(err <= 1e-13 * np.max(np.abs(ref), axis=(-2, -1)))


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("sign", [+1, -1])
def test_extract_matches_index_loop(n, sign):
    rng = np.random.default_rng(1200 + n)
    p = core.random_future_momentum(1.0, rng, size=3)
    fr = frame_massive(p, core.random_spinor(rng, size=3))
    f = rng.normal(size=(3, n + 1)) + 1j * rng.normal(size=(3, n + 1))
    psi = synth_massive(fr, Amplitudes(n=n, mass=1.0, sign=sign, f=f))
    got = extract_massive(psi, fr).f
    psi = standard(psi)
    nval = default_normalization(fr)
    for s in range(3):
        one = BWComponent(n, 1.0, sign, p[s], tuple(
            SymMultiSpinor(c.r, c.s, c.comp[s]) for c in psi.comps))
        want = extract_bruteforce(one, SimpleNamespace(omega=fr.omega[s]), complex(nval[s]))
        # the sum of the moduli of the terms of each contraction
        om = np.abs(fr.omega[s])
        scale = np.array([sum(comb(n - k, i) * comb(k, j) * om[0] ** (n - i - j)
                              * om[1] ** (i + j) * abs(c.comp[s, i, j])
                              for i in range(n - k + 1) for j in range(k + 1))
                          for k, c in enumerate(psi.comps)]) / abs(nval[s]) ** n
        assert np.all(np.abs(got[s] - want) <= 1e-13 * scale)


@pytest.mark.parametrize("n", SPINS)
@pytest.mark.parametrize("sign", [+1, -1])
def test_primed_powers_are_signed_flips(n, sign):
    # Mv = [[0, -1], [1, 0]] conj(Mu), so Q_k(Mv)[i, j] = (-1)^(k-i) conj(Q_k(Mu)[k-i, j])
    rng = np.random.default_rng(1100 + n)
    fr = frame_massive(core.random_future_momentum(1.0, rng, size=5),
                       core.random_spinor(rng, size=5))
    oml, pil = core.lower_spinor(fr.omega), core.lower_spinor(fr.pi)
    us = sym_power_matrices(np.stack([-pil, sign * oml], axis=-2), n)
    vs = sym_power_matrices(np.stack([-sign * np.conj(oml), -np.conj(pil)], axis=-2), n)
    for k in range(n + 1):
        flip = (-1.0) ** (k - np.arange(k + 1))[:, None, None]
        assert np.max(np.abs(flip * np.conj(us[k][::-1]) - vs[k])) \
            <= 1e-14 * np.max(np.abs(vs[k]))


@pytest.mark.parametrize("n", SPINS)
@pytest.mark.parametrize("spec", [StandardTime(), NullOmega()],
                         ids=["standard", "null-omega"])
def test_equal_slot_T_matches_dense_route(n, spec):
    psi, fr, _ = random_component(n, 3, seed=100 + n)
    ts = resolve_directions(spec, n, psi, fr)
    graded = contract_T(psi, ts)
    monomials = bw._monomial_pairing(psi, ts)
    assert relative(graded, monomials) < 1e-12


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


@pytest.mark.parametrize("n", SPINS)
@pytest.mark.parametrize("sign", [+1, -1])
@pytest.mark.parametrize("spec", [StandardTime(), NullOmega()], ids=["diagonal", "rank-one"])
def test_closed_form_pairings_keep_the_slot_action_digits(n, sign, spec):
    # each closed-form route against the amplitude sum, held to twice the
    # error of the slot action on the same samples, or 64 eps
    grid = build_grid(1.0, 3.0, 8)
    rng = np.random.default_rng(900 + n)
    count = grid.p.shape[0]
    fr = frame_massive(grid.p, core.random_spinor(rng, size=count))
    f = rng.normal(size=(count, n + 1)) + 1j * rng.normal(size=(count, n + 1))
    psi = synth_massive(fr, Amplitudes(n=n, mass=1.0, sign=sign, f=f))
    want = np.abs(f) ** 2 @ np.array([comb(n, k) for k in range(n + 1)], dtype=float)
    ts = resolve_directions(spec, n, psi, fr)
    tp = np.prod(core.minkowski(ts, psi.p), axis=0)
    route = relative(contract_T(psi, ts) / tp, want)
    square = relative(moved_pairing(psi, rotated(ts[0], psi)) / tp, want)
    assert route <= max(2 * square, 64 * np.finfo(float).eps)


@pytest.mark.parametrize("n", SPINS)
def test_form_p_is_the_momentum_direction(n):
    # form "p" puts t = p on every slot and divides by (p.p)^n per sample: the
    # pairing of the rotated route at t = p, scaled by m^(-2n)
    psi, fr, _ = random_component(n, 200, seed=1200 + n)
    want = moved_pairing(psi, rotated(psi.p, psi)) * psi.mass ** (-2 * n)
    assert relative(norm_integrand(psi, None, fr, form="p"), want) <= 1e-12


@pytest.mark.parametrize("n", SPINS)
@pytest.mark.parametrize("mass", [1.0, 0.0], ids=["massive", "massless"])
def test_rotated_pairing_is_the_diagonal_pairing_of_the_moved_field(n, mass):
    # contract_T at a random timelike t on every slot, which takes the
    # rotated route from the basis of the members, against the members
    # moved to standard coordinates, then by the rotation of t there, and
    # paired through diag(lam)
    rng = np.random.default_rng(1400 + n)
    if mass > 0:
        psi, _, _ = random_component(n, 50, seed=1400 + n)
    else:
        p = core.random_future_momentum(0.0, rng, size=50)
        psi = synth_massless(frame_massless(p).pi, rng.normal(size=50) + 1j * rng.normal(size=50), n)
    t = core.random_timelike(rng, size=50)
    want = moved_pairing(standard(psi), t)
    assert relative(contract_T(psi, np.broadcast_to(t, (n,) + t.shape)), want) <= 5e-14


@pytest.mark.parametrize("n", range(1, 9))
def test_distinct_T_matches_dense_route(n):
    psi, _, _ = random_component(n, 3, seed=600 + n)
    rng = np.random.default_rng(700 + n)
    ts = np.stack([core.random_timelike(rng, size=3) for _ in range(n)])
    assert relative(bw._monomial_pairing(psi, ts), contract_T_dense(standard(psi), ts)) < 1e-13


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
    got = contract_T(psi, ts) / np.prod(core.minkowski(ts, grid.p), axis=0)
    want = np.abs(f) ** 2 @ np.array([comb(n, k) for k in range(n + 1)], dtype=float)
    assert relative(got, want) < 1e-10


@pytest.mark.parametrize("n", SPINS)
@pytest.mark.parametrize("sign", [+1, -1])
@pytest.mark.parametrize("mass", [1.0, 0.0], ids=["massive", "massless"])
def test_tensor_components_are_momentum_powers(n, sign, mass):
    # T = N p...p whatever the directions: per sample, L_alpha = N p_AB^alpha
    # with N = sum_k C(n,k) |f_k|^2 (paper-default normalization) or |f|^2
    count = 300
    rng = np.random.default_rng(1300 + n)
    p = core.random_future_momentum(mass, rng, size=count)
    if mass > 0:
        fr = frame_massive(p, core.random_spinor(rng, size=count))
        f = rng.normal(size=(count, n + 1)) + 1j * rng.normal(size=(count, n + 1))
        psi = synth_massive(fr, Amplitudes(n=n, mass=mass, sign=sign, f=f))
        amplitude_sum = np.abs(f) ** 2 @ np.array([comb(n, k) for k in range(n + 1)], dtype=float)
    else:
        f = rng.normal(size=count) + 1j * rng.normal(size=count)
        psi = synth_massless(frame_massless(p).pi, f, n, sign)
        amplitude_sum = np.abs(f) ** 2
    entries = np.concatenate([c.comp.reshape(count, -1) for c in bw.to_standard(psi)], axis=1).T
    got = bw._tensor_components(entries, n, len(psi.comps) - 1).T
    alphas = np.array(list(bw._monomials(n)))
    p_low = core.vector_to_dyad(psi.p, "low").reshape(count, 4)
    want = amplitude_sum[:, None] * np.prod(p_low[:, None, :] ** alphas, axis=-1)
    assert np.max(core.max_abs(got - want) / core.max_abs(got)) <= 1e-12


@pytest.mark.parametrize("n", SPINS)
def test_standard_integrand_matches_dense_sum(n):
    psi, _, _ = random_component(n, 3, seed=300 + n)
    want = sum(comb(n, k) * np.sum(np.abs(dense_from_graded(c.comp, n - k, k)) ** 2,
                                   axis=tuple(range(1, n + 1)))
               for k, c in enumerate(bw.to_standard(psi))) / psi.p[:, 0] ** n
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
    # in standard coordinates, where A itself acts on every slot
    psi, _, _ = random_component(n, 2, seed=400 + n)
    a = core.random_sl2c(np.random.default_rng(500 + n), size=2)
    moved = bw.to_standard(transform_component(psi, a))
    a_low = core.sl2c_lower_rep(a)
    for k, c in enumerate(bw.to_standard(psi)):
        want = dense_slot_action(c.comp, n - k, k, a_low, np.conj(a_low))
        got = dense(moved[k])
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


def _sample(psi, ts, i):
    """Sample i of psi and of the per-sample directions ts, as batches of one."""
    comps = tuple(SymMultiSpinor(c.r, c.s, c.comp[i:i + 1]) for c in psi.comps)
    return BWComponent(psi.n, psi.mass, psi.sign, psi.p[i:i + 1], comps), ts[:, i:i + 1]


def test_distinct_T_peak_memory_is_bounded():
    # n = 10 on 512 samples would hold 19448 two-factor terms per sample,
    # about 300 MiB, at once without sample blocks; the budget keeps them
    # within _STATE_BYTES
    n = MAX_N
    psi, _, _ = random_component(n, 512, seed=900)
    ts = np.stack([core.random_timelike(np.random.default_rng(901 + k), size=512)
                   for k in range(n)])
    tracemalloc.start()
    try:
        bw._monomial_pairing(psi, ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2 ** 20


def test_distinct_T_block_boundary_matches_per_sample(monkeypatch):
    n = MAX_N
    psi, _, _ = random_component(n, 512, seed=902)
    ts = np.stack([core.random_timelike(np.random.default_rng(903 + k), size=512)
                   for k in range(n)])
    blocks = []

    def recorded(*args):
        blocks.append(_blocks(*args))
        return blocks[-1]

    monkeypatch.setattr(bw, "_blocks", recorded)
    got = bw._monomial_pairing(psi, ts)
    block = blocks[0][0].stop
    assert 2 < block < 510
    for i in (0, block - 2, block - 1, block, block + 1, 2 * block, 511):
        alone = bw._monomial_pairing(*_sample(psi, ts, i))
        assert abs(got[i] - alone[0]) <= 1e-15 * abs(alone[0])


@pytest.mark.parametrize("n", [1, 3, 6])
@pytest.mark.parametrize("budget", [1, 5000])
def test_distinct_T_independent_of_block_size(monkeypatch, n, budget):
    psi, _, _ = random_component(n, 37, seed=910 + n)
    ts = np.stack([core.random_timelike(np.random.default_rng(920 + k), size=37)
                   for k in range(n)])
    whole = bw._monomial_pairing(psi, ts)
    monkeypatch.setattr(bw, "_STATE_BYTES", budget)
    blocked = bw._monomial_pairing(psi, ts)
    assert np.max(np.abs(blocked - whole) / np.abs(whole)) <= 1e-15


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kernel, bound_mib", [("synth", 40), ("null-omega", 20),
                                               ("form-p", 20), ("standard-time", 20),
                                               ("standard-bw", 20), ("transform", 40),
                                               ("rotated", 40), ("extract", 5)])
def test_graded_kernels_peak_memory_is_bounded(kernel, bound_mib):
    # one 4096-sample chunk of evaluate_norm at n = MAX_N; with stacked
    # batch-first products these peaked at 86.6 MiB (synthesis) and 44.8 MiB
    # (each pairing), and the members that synthesis returns take 17.9 MiB;
    # the Lorentz action, unblocked, peaked at 55.3 MiB; extraction holding
    # every row of the powers of omega and of conj(omega) peaked at 10.0 MiB;
    # the rotated route, like the Lorentz action, holds one moved copy of
    # the members
    n, count = MAX_N, 4096
    psi, fr, f = random_component(n, count, seed=930)
    amps = Amplitudes(n=n, mass=1.0, sign=+1, f=f)
    a = core.random_sl2c(np.random.default_rng(931), size=count)
    run = {"synth": lambda: synth_massive(fr, amps),
           "null-omega": lambda: norm_integrand(psi, NullOmega(), fr),
           "form-p": lambda: norm_integrand(psi, None, fr, form="p"),
           "standard-time": lambda: norm_integrand(psi, StandardTime(), fr),
           "standard-bw": lambda: standard_bw_integrand(psi),
           "transform": lambda: transform_component(psi, a),
           "rotated": lambda: norm_integrand(psi, FixedList(((1.2, 0.3, -0.1, 0.2),)), fr),
           "extract": lambda: extract_massive(psi, fr)}[kernel]
    assert _traced_peak(run) < bound_mib * 2 ** 20


@pytest.mark.parametrize("kernel", ["synth", "null-omega", "form-p", "standard-time",
                                    "standard-bw", "transform", "rotated"])
def test_warm_kernels_allocate_no_working_arrays(kernel):
    # n = 8 on 512 samples, the grid-norm size; the second call finds the
    # thread's workspace grown.  Before the workspace, synthesis peaked at
    # 4.72 MiB beside 1.29 MiB of members and each pairing at 3.6 MiB; with
    # a fresh conjugate of every member per block, the Lorentz action and
    # the rotated route, which return or hold one moved copy, peaked at
    # 2.96 and 2.94 MiB
    n, count = 8, 512
    psi, fr, f = random_component(n, count, seed=940)
    amps = Amplitudes(n=n, mass=1.0, sign=+1, f=f)
    a = core.random_sl2c(np.random.default_rng(941), size=count)
    run = {"synth": lambda: synth_massive(fr, amps),
           "null-omega": lambda: norm_integrand(psi, NullOmega(), fr),
           "form-p": lambda: norm_integrand(psi, None, fr, form="p"),
           "standard-time": lambda: norm_integrand(psi, StandardTime(), fr),
           "standard-bw": lambda: standard_bw_integrand(psi),
           "transform": lambda: transform_component(psi, a),
           "rotated": lambda: norm_integrand(psi, FixedList(((1.2, 0.3, -0.1, 0.2),)), fr)}[kernel]
    run()
    members = sum(c.comp.nbytes for c in psi.comps)
    bound = (members + 0.75 * 2 ** 20 if kernel in ("synth", "transform", "rotated")
             else 2 ** 20)
    assert _traced_peak(run) <= bound


def _root(x: np.ndarray) -> np.ndarray:
    while x.base is not None:
        x = x.base
    return x


@pytest.mark.parametrize("kernel", ["synth", "transform"])
def test_moved_members_share_one_buffer(kernel):
    # synthesis and the slot action write every member of a component into
    # one flat batch-last buffer, of their entries and nothing more
    n, count = 4, 7
    psi, fr, f = random_component(n, count, seed=950)
    amps = Amplitudes(n=n, mass=1.0, sign=+1, f=f)
    a = core.random_sl2c(np.random.default_rng(951), size=count)
    got = {"synth": lambda: synth_massive(fr, amps),
           "transform": lambda: transform_component(psi, a)}[kernel]()
    roots = [_root(c.comp) for c in got.comps]
    assert all(root is roots[0] for root in roots)
    assert roots[0].ndim == 1
    assert roots[0].size == sum(c.comp.size for c in got.comps)


def _without_power_table(monkeypatch):
    """Make the table Q_0..Q_n and the slot action raise."""
    def fail(*args, **kwargs):
        raise AssertionError("built the table of the slot action")
    for module, name in [(multispinor, "sym_power_matrices"), (multispinor, "_slot_action"),
                         (bw, "_slot_action")]:
        monkeypatch.setattr(module, name, fail)


@pytest.mark.parametrize("n", SPINS)
@pytest.mark.parametrize("sign", [+1, -1])
@pytest.mark.parametrize("normalization", [None, 0.8 - 0.3j], ids=["default", "custom"])
def test_synthesis_builds_no_power_table(monkeypatch, n, sign, normalization):
    # the all-unprimed member is one product of binary forms: the table
    # Q_0..Q_n of the slot action is not built
    rng = np.random.default_rng(1200 + n)
    fr = frame_massive(core.random_future_momentum(1.0, rng, size=6),
                       core.random_spinor(rng, size=6))
    f = rng.normal(size=(6, n + 1)) + 1j * rng.normal(size=(6, n + 1))
    amps = Amplitudes(n=n, mass=1.0, sign=sign, f=f)
    want = synth_massive(fr, amps, normalization)
    _without_power_table(monkeypatch)
    got = synth_massive(fr, amps, normalization)
    for c, w in zip(got.comps, want.comps):
        assert np.array_equal(c.comp, w.comp)


@pytest.mark.parametrize("n", SPINS)
@pytest.mark.parametrize("sign", [+1, -1])
def test_hertz_route_builds_no_power_table(monkeypatch, n, sign):
    # the momentum is null, so the member has one nonzero entry, one sum
    # along a row of the basis: no table Q_0..Q_n and no move
    rng = np.random.default_rng(1250 + n)
    p = core.random_future_momentum(0.0, rng, size=6)
    xi = SymMultiSpinor(0, n, rng.normal(size=(6, 1, n + 1))
                        + 1j * rng.normal(size=(6, 1, n + 1)))
    want = hertz_psi(xi, p, sign)
    _without_power_table(monkeypatch)
    got = hertz_psi(xi, p, sign)
    assert np.array_equal(got.comps[0].comp, want.comps[0].comp)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="counts the page faults of glibc's allocator")
def test_warm_synthesis_touches_no_fresh_pages():
    # n = 8 on 512 samples, the grid-norm size: with one array per member,
    # a warm synthesis took about 270 minor page faults per call
    import resource     # Unix only
    n, count = 8, 512
    _, fr, f = random_component(n, count, seed=960)
    amps = Amplitudes(n=n, mass=1.0, sign=+1, f=f)
    for _ in range(2):
        synth_massive(fr, amps)
    calls = 10
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(calls):
        synth_massive(fr, amps)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 16 * calls

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bwspinor import core
from bwspinor.errors import ValenceMismatch
from bwspinor.bw import MAX_N
from bwspinor import multispinor
from bwspinor.multispinor import (SymMultiSpinor, _binomials, _slot_action,
                                  contract_same, power_row, same_slot_coeffs)
from oracles import (contract_full, dense, dense_from_graded, graded_from_dense,
                     sym_outer, sym_outer_bruteforce, symmetrize_bruteforce,
                     symmetry_residual)


class TestSymOuter:
    def test_rank_one_contraction(self):
        rng = np.random.default_rng(0)
        om = core.random_spinor(rng)
        pi = core.random_spinor(rng)
        t = sym_outer([core.lower_spinor(om)], [])
        got = contract_full(t, [pi], [])
        want = core.spinor_contract(core.lower_spinor(om), pi)
        assert_allclose(got, want, atol=1e-15)

    def test_factor_order_irrelevant(self):
        rng = np.random.default_rng(1)
        a, b = core.random_spinor(rng), core.random_spinor(rng)
        assert_allclose(sym_outer([a, b], []).comp,
                        sym_outer([b, a], []).comp, atol=1e-15)

    def test_matches_permutation_bruteforce(self):
        rng = np.random.default_rng(2)
        fac_u = [core.random_spinor(rng) for _ in range(3)]
        fac_p = [core.random_spinor(rng) for _ in range(2)]
        got = dense_from_graded(sym_outer(fac_u, fac_p).comp, 3, 2)
        want = sym_outer_bruteforce(fac_u, fac_p)
        assert_allclose(got, want, atol=1e-14)

    def test_batched(self):
        rng = np.random.default_rng(3)
        fac = [core.random_spinor(rng, size=7) for _ in range(3)]
        t = sym_outer(fac, [])
        assert t.comp.shape == (7, 4, 1)


class TestGradedDense:
    def test_roundtrip(self):
        rng = np.random.default_rng(4)
        comp = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
        t = SymMultiSpinor(3, 2, comp)
        assert_allclose(graded_from_dense(dense(t), 3, 2), comp, atol=1e-15)

    def test_symmetry_residual_on_symmetric(self):
        rng = np.random.default_rng(5)
        fac = [core.random_spinor(rng) for _ in range(3)]
        dense = dense_from_graded(sym_outer(fac, []).comp, 3, 0)
        assert symmetry_residual(dense, 3, 0) < 1e-13

    def test_symmetry_residual_detects_asymmetry(self):
        dense = np.zeros((2, 2, 2), dtype=complex)
        dense[0, 0, 1] = 1.0
        assert symmetry_residual(dense, 3, 0) > 0.1

    def test_graded_average_is_permutation_average(self):
        rng = np.random.default_rng(6)
        dense = rng.normal(size=(2,) * 4) + 1j * rng.normal(size=(2,) * 4)
        avg = symmetrize_bruteforce(dense, 2, 2)
        got = dense_from_graded(graded_from_dense(dense, 2, 2), 2, 2)
        assert_allclose(got, avg, atol=1e-14)


class TestContractions:
    def test_contract_full_vs_loops(self):
        rng = np.random.default_rng(7)
        comp = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        t = SymMultiSpinor(2, 2, comp)
        us = [core.random_spinor(rng) for _ in range(2)]
        vs = [core.random_spinor(rng) for _ in range(2)]
        got = contract_full(t, us, vs)
        dense = dense_from_graded(t.comp, 2, 2)
        want = 0.0 + 0.0j
        import itertools
        for idx in itertools.product(range(2), repeat=4):
            w = dense[idx]
            for slot in range(2):
                w *= us[slot][idx[slot]]
            for slot in range(2):
                w *= vs[slot][idx[2 + slot]]
            want += w
        assert_allclose(got, want, atol=1e-13)

    def test_contract_same_matches_full(self):
        # the weights W_r(x) (x) W_s(conj x) of one table of powers, at every
        # valence up to MAX_N, against the symmetrized product
        rng = np.random.default_rng(8)
        x = core.random_spinor(rng, size=3)
        xs = same_slot_coeffs(x, MAX_N)
        assert xs.shape == (3, 2, MAX_N + 1)
        for r in range(MAX_N + 1):
            for s in range(MAX_N + 1):
                shape = (3, r + 1, s + 1)
                comp = rng.normal(size=shape) + 1j * rng.normal(size=shape)
                t = SymMultiSpinor(r, s, comp)
                got = contract_same(t, xs)
                want = contract_full(t, [x] * r, [np.conj(x)] * s)
                scale = np.einsum("...ij,...i,...j->...", np.abs(comp),
                                  _binomials(r) * np.abs(power_row(xs, r)),
                                  _binomials(s) * np.abs(power_row(xs, s)))
                assert np.all(np.abs(got - want) <= 1e-13 * scale), (r, s)

    def test_valence_mismatch(self):
        t = SymMultiSpinor(2, 0, np.zeros((3, 1), dtype=complex))
        with pytest.raises(ValenceMismatch):
            contract_full(t, [np.array([1.0, 0])], [])


class TestSlotMatrices:
    def test_matches_dense_application(self):
        # A on every unprimed slot and conj(A) on every primed one moves
        # sym_outer of the factors to sym_outer of the moved factors
        rng = np.random.default_rng(9)
        count, n = 5, MAX_N
        a = rng.normal(size=(count, 2, 2)) + 1j * rng.normal(size=(count, 2, 2))
        valences = [(n - k, k) for k in range(n + 1)] + [(2, 1), (0, 3), (4, 0), (0, 0)]
        members, wants = [], []
        for r, s in valences:
            fac_u = [core.random_spinor(rng, size=count) for _ in range(r)]
            fac_p = [core.random_spinor(rng, size=count) for _ in range(s)]
            members.append(np.moveaxis(np.broadcast_to(
                sym_outer(fac_u, fac_p).comp, (count, r + 1, s + 1)), 0, -1))
            wants.append(sym_outer([np.einsum('...AB,...B->...A', a, f) for f in fac_u],
                                   [np.einsum('...AB,...B->...A', np.conj(a), f)
                                    for f in fac_p]).comp)
        for budget in (1, 2 ** 22):     # a block per sample, one block
            got = [np.empty(m.shape, dtype=complex) for m in members]
            conj_columns = lambda part: [np.conj(np.swapaxes(m[..., part], 0, 1))
                                         for m in members]
            for part, i, x, _ in _slot_action(a, conj_columns, n, budget):
                r, s = valences[i]
                binom = np.multiply.outer(_binomials(r), _binomials(s))
                got[i][..., part] = x / binom[..., None]
            for (r, s), g, want in zip(valences, got, wants):
                want = np.broadcast_to(want, (count, r + 1, s + 1))
                assert_allclose(np.moveaxis(g, -1, 0), want,
                                atol=1e-12 * np.max(np.abs(want)), rtol=0)


def _action(seed, n, count=9, budget=16 * 55 * 4):
    """A slot action at doubled spin n on random members, four samples a
    block at n = 4."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(count, 2, 2)) + 1j * rng.normal(size=(count, 2, 2))
    members = [rng.normal(size=(n - k + 1, k + 1, count))
               + 1j * rng.normal(size=(n - k + 1, k + 1, count)) for k in range(n + 1)]
    return _slot_action(a, lambda part: [np.conj(np.swapaxes(m[..., part], 0, 1))
                                         for m in members], n, budget)


def _copies(action):
    return [(part, i, x.copy()) for part, i, x, _ in action]


def _assert_same(got, want):
    assert len(got) == len(want)
    for (part, i, x), (part_w, i_w, x_w) in zip(got, want):
        assert (part, i) == (part_w, i_w)
        assert np.array_equal(x, x_w)


class TestWorkspace:
    """The slot action works in one per-thread buffer; a yielded x holds its
    values until the generator is advanced."""

    def test_interleaved_actions_match_sequential(self):
        want = [_copies(_action(seed, 4)) for seed in (1, 2)]
        first, second = _action(1, 4), _action(2, 4)
        got = ([], [])
        for x1, x2 in zip(first, second):
            # x1 is read after the second action has stepped
            got[0].append((x1[0], x1[1], x1[2].copy()))
            got[1].append((x2[0], x2[1], x2[2].copy()))
        assert next(first, None) is None and next(second, None) is None
        _assert_same(got[0], want[0])
        _assert_same(got[1], want[1])

    @pytest.mark.parametrize("n_abandoned", [2, 4, 6])
    def test_abandoned_action_leaves_next_call_correct(self, n_abandoned):
        want = _copies(_action(1, 4))
        abandoned = _action(3, n_abandoned)
        next(abandoned)
        next(abandoned)
        _assert_same(_copies(_action(1, 4)), want)      # while it is suspended
        del abandoned
        assert not multispinor._threads.ws.busy
        _assert_same(_copies(_action(1, 4)), want)

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bwspinor import core
from bwspinor.errors import ValenceMismatch
from bwspinor.multispinor import (SymMultiSpinor, apply_matrix_per_slot,
                                  contract_full, contract_same, sym_outer)
from oracles import (dense, dense_from_graded, graded_from_dense,
                     sym_outer_bruteforce, symmetrize_bruteforce,
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
        rng = np.random.default_rng(8)
        comp = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
        t = SymMultiSpinor(3, 1, comp)
        x, y = core.random_spinor(rng), core.random_spinor(rng)
        assert_allclose(contract_same(t, x, y),
                        contract_full(t, [x] * 3, [y]), atol=1e-13)

    def test_valence_mismatch(self):
        t = SymMultiSpinor(2, 0, np.zeros((3, 1), dtype=complex))
        with pytest.raises(ValenceMismatch):
            contract_full(t, [np.array([1.0, 0])], [])


class TestSlotMatrices:
    def test_matches_dense_application(self):
        rng = np.random.default_rng(9)
        fac_u = [core.random_spinor(rng) for _ in range(2)]
        fac_p = [core.random_spinor(rng) for _ in range(1)]
        t = sym_outer(fac_u, fac_p)
        m1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m2 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        got = apply_matrix_per_slot(t, m1, m2)
        want = sym_outer([np.einsum('AB,B->A', m1, f) for f in fac_u],
                         [np.einsum('AB,B->A', m2, f) for f in fac_p])
        assert_allclose(got.comp, want.comp, atol=1e-13)

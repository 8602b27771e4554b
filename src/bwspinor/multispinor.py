"""Graded storage for totally symmetric multispinors.

A tensor symmetric in r unprimed and s primed two-valued indices has
(r+1)(s+1) independent components, labelled by the number of 1-values in each
group.  The graded array is the canonical storage and every operation here
works on it directly: a 2x2 matrix acting on all r slots of a group is the
(r+1)x(r+1) matrix of `sym_power_matrices`.  Nothing here expands a tensor to
its 2^(r+s) dense entries.  Index height is not tracked here; each operation
states the valence it expects.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .errors import ValenceMismatch


@lru_cache(maxsize=None)
def _binomials(r: int) -> np.ndarray:
    """The row C(r, 0..r); the class sizes of the graded components."""
    return np.array([comb(r, i) for i in range(r + 1)], dtype=float)


@dataclass(frozen=True)
class SymMultiSpinor:
    """Symmetric multispinor with r unprimed and s primed indices."""

    r: int
    s: int
    comp: np.ndarray    # (..., r+1, s+1) complex

    def scaled(self, factor) -> "SymMultiSpinor":
        return SymMultiSpinor(self.r, self.s, self.comp * np.asarray(factor)[..., None, None])


def _sym_power_coeffs(factors: list[np.ndarray]) -> np.ndarray:
    """Graded components of the symmetrized outer product of 2-spinors.

    Multiplying the linear forms (x0 + x1 z) and dividing the coefficients by
    binomials realizes the normalized symmetrization (1/r!) sum over
    permutations.
    """
    r = len(factors)
    if r == 0:
        return np.ones((1,), dtype=complex)
    c = np.zeros(np.broadcast_shapes(*(f.shape[:-1] for f in factors)) + (r + 1,),
                 dtype=complex)
    c[..., 0] = 1.0
    deg = 0
    for f in factors:
        nxt = np.zeros_like(c)
        nxt[..., :deg + 1] += c[..., :deg + 1] * f[..., 0, None]
        nxt[..., 1:deg + 2] += c[..., :deg + 1] * f[..., 1, None]
        c = nxt
        deg += 1
    return c / _binomials(r)


def sym_outer(unprimed: list[np.ndarray], primed: list[np.ndarray]) -> SymMultiSpinor:
    """Normalized symmetrized outer product of individual spinor factors."""
    u = [np.asarray(f, dtype=complex) for f in unprimed]
    v = [np.asarray(f, dtype=complex) for f in primed]
    cu = _sym_power_coeffs(u)
    cv = _sym_power_coeffs(v)
    comp = np.einsum('...i,...j->...ij', cu, cv)
    return SymMultiSpinor(len(u), len(v), comp)


def contract_full(t: SymMultiSpinor, unprimed: list[np.ndarray],
                  primed: list[np.ndarray]) -> np.ndarray:
    """Full contraction with one spinor per slot (contraction is a plain sum,
    so factors must carry the opposite index height).

    The sum over all index tuples with i unprimed and j primed 1-values is
    C(r,i) C(s,j) times the graded components of the factors' symmetrized
    product, so no dense expansion is needed.
    """
    if len(unprimed) != t.r or len(primed) != t.s:
        raise ValenceMismatch(
            f"need {t.r} unprimed and {t.s} primed factors, "
            f"got {len(unprimed)} and {len(primed)}")
    cu = _sym_power_coeffs([np.asarray(f, dtype=complex) for f in unprimed])
    cv = _sym_power_coeffs([np.asarray(f, dtype=complex) for f in primed])
    return np.einsum('...ij,...i,...j->...', t.comp,
                     _binomials(t.r) * cu, _binomials(t.s) * cv)


def _binomial_weights(count: int, x: np.ndarray) -> np.ndarray:
    """Weights C(count, i) x0^{count-i} x1^i used by same-spinor contractions."""
    i = np.arange(count + 1)
    if count == 0:
        return np.ones(x.shape[:-1] + (1,), dtype=complex)
    return _binomials(count) * x[..., 0, None] ** (count - i) * x[..., 1, None] ** i


def contract_same(t: SymMultiSpinor, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Contraction with the same spinor x on every unprimed slot and y on every
    primed slot, evaluated in graded coordinates with binomial weights."""
    wx = _binomial_weights(t.r, np.asarray(x, dtype=complex))
    wy = _binomial_weights(t.s, np.asarray(y, dtype=complex))
    return np.einsum('...ij,...i,...j->...', t.comp, wx, wy)


def sym_power_matrices(m: np.ndarray, n: int) -> list[np.ndarray]:
    """Images S_0..S_n of a batch of 2x2 matrices on the symmetric powers.

    S_r[..., i, j] is the coefficient of x^i y^j in
    (m00 + m01 y + m10 x + m11 x y)^r, i.e. the sum of prod_k m[a_k, b_k]
    over all index tuples a with i ones and b with j ones.  With
    D_r = diag C(r, i), m acting on every slot of a symmetric group maps
    graded components c to D_r^{-1} S_r c, and S_r(m m') =
    S_r(m) D_r^{-1} S_r(m').  Built by the four-term recurrence
    S_r = m00 S_{r-1} + m01 shift_y + m10 shift_x + m11 shift_xy.
    """
    # built batch-last, so every update runs over contiguous samples
    m = np.moveaxis(np.asarray(m, dtype=complex), (-2, -1), (0, 1))
    out = [np.ones((1, 1) + m.shape[2:], dtype=complex)]
    for r in range(1, n + 1):
        s = np.zeros((r + 1, r + 1) + m.shape[2:], dtype=complex)
        _shift_add(s, out[-1], m)
        out.append(s)
    return [np.moveaxis(s, (0, 1), (-2, -1)) for s in out]


def _shift_add(out: np.ndarray, prev: np.ndarray, m: np.ndarray,
               axis: int = 0) -> None:
    """out += (m00 + m01 y + m10 x + m11 x y) prev, one step of the recurrence.

    The powers of x and y index axes `axis` and `axis + 1`, which are one
    longer in out than in prev; m is (2, 2, *batch) and both arrays end in
    the batch axes.
    """
    lead = (slice(None),) * axis
    lo, hi = slice(None, -1), slice(1, None)
    out[lead + (lo, lo)] += m[0, 0] * prev
    out[lead + (lo, hi)] += m[0, 1] * prev
    out[lead + (hi, lo)] += m[1, 0] * prev
    out[lead + (hi, hi)] += m[1, 1] * prev


def apply_matrix_per_slot(t: SymMultiSpinor, m_unprimed: np.ndarray,
                          m_primed: np.ndarray) -> SymMultiSpinor:
    """Apply one matrix to every unprimed slot and another to every primed slot.

    In graded form c -> D_r^{-1} S_r(m_unprimed) c S_s(m_primed)^T D_s^{-1}.
    """
    su = sym_power_matrices(m_unprimed, t.r)[t.r]
    sp = sym_power_matrices(m_primed, t.s)[t.s]
    comp = su @ t.comp @ np.swapaxes(sp, -1, -2)
    return SymMultiSpinor(t.r, t.s, comp / np.multiply.outer(_binomials(t.r),
                                                             _binomials(t.s)))

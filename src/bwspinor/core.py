"""Fixed conventions for two-component spinor algebra.

Everything downstream relies on the constants and conversion rules defined
here:

* metric signature (+, -, -, -), natural units;
* epsilon spinor with eps_{01} = eps^{01} = +1, lowering kappa_A = kappa^B eps_{BA}
  and raising kappa^A = eps^{AB} kappa_B (so raise, then lower, is the identity and
  kappa_A lam^A = -kappa^A lam_A);
* world-vector <-> spinor-matrix translation g_a^{AA'} = sigma_a / sqrt(2) with
  sigma_a = (1, sigma_x, sigma_y, sigma_z), lower form fixed by epsilon lowering;
* Levi-Civita orientation e^{0123} = +1, which makes the self-dual relations
  *sigma = -i sigma, *sigmabar = +i sigmabar and the block form of gamma5 come out
  with the signs used throughout the package.

All operations broadcast over leading batch dimensions: a "vector" is an
array (..., 4), a spinor (..., 2), a dyad (..., 2, 2).
"""

from __future__ import annotations

import functools
import itertools
from math import prod

import numpy as np

from .errors import NegativeMass, NonUnitDeterminant, reject

METRIC = np.diag([1.0, -1.0, -1.0, -1.0])

PAULI = np.stack([
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
])

# eps_{AB} and eps^{AB} share the same component matrix.
EPS = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)

# g_a^{AA'} and the epsilon-lowered g_{aAA'}; world index raised with the metric.
G_UP = PAULI / np.sqrt(2.0)
G_LOW = np.einsum('CA,aCD,DB->aAB', EPS, G_UP, EPS)
G_UP_W = np.einsum('ab,bij->aij', METRIC, G_UP)
G_LOW_W = np.einsum('ab,bij->aij', METRIC, G_LOW)


def _levi_civita_upper() -> np.ndarray:
    e = np.zeros((4, 4, 4, 4))
    for perm in itertools.permutations(range(4)):
        parity = sum(1 for i in range(4) for j in range(i + 1, 4)
                     if perm[i] > perm[j])
        e[perm] = (-1.0) ** parity
    return e


# e^{0123} = +1; the all-lower tensor is the negative of this.
LEVI_UP = _levi_civita_upper()
LEVI_LOW = -LEVI_UP


# ---------------------------------------------------------------------------
# vectors

def minkowski(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Minkowski product p.q with signature (+,-,-,-); broadcasts."""
    p = np.asarray(p)
    q = np.asarray(q)
    return (p[..., 0] * q[..., 0] - p[..., 1] * q[..., 1]
            - p[..., 2] * q[..., 2] - p[..., 3] * q[..., 3])


def lower_vector(p: np.ndarray) -> np.ndarray:
    return np.asarray(p) @ METRIC


def mass_squared(p: np.ndarray) -> np.ndarray:
    return minkowski(p, p)


# input rules: each is the mask of the samples where it holds; NaN and inf
# fail every rule, and are zeroed first so that no floating-point warning arises

def finite_vectors(*xs: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """The mask of the samples where every vector of xs is finite (the xs
    broadcast against each other), and each x with its other vectors zeroed."""
    # elementwise & over the last axis: np.all over an axis of 4 is many times slower
    oks = [functools.reduce(np.logical_and, np.moveaxis(np.isfinite(x), -1, 0)) for x in xs]
    return (functools.reduce(np.logical_and, oks),
            [np.where(ok[..., None], x, 0.0) for ok, x in zip(oks, xs)])


def max_abs(x: np.ndarray, axes: int = 1, floor=0.0) -> np.ndarray:
    """Per sample, the largest of floor and |x| over the last `axes` axes (NaN
    propagates), as elementwise maxima: np.max over small axes is slower."""
    x = np.abs(x)
    x = x.reshape(x.shape[:x.ndim - axes] + (prod(x.shape[x.ndim - axes:]),))
    return functools.reduce(np.maximum, np.moveaxis(x, -1, 0), floor)


def _unit_scaled(p: np.ndarray, mass=0.0):
    """(finite, q, mu, e): p and mass over 2^e, the power of two just above
    the largest of |p^a| and mass, NaN and inf zeroed; exact, so q.q = 4^-e p.p
    and nothing overflows (for a causal p the largest |p^a| is p^0)."""
    finite, (p,) = finite_vectors(p)
    _, e = np.frexp(max_abs(p, floor=mass))
    return finite, np.ldexp(p, -e[..., None]), np.ldexp(mass, -e), e


def shell_energy(pvec: np.ndarray, mass) -> np.ndarray:
    """p^0 = sqrt(m^2 + |pvec|^2) at unit scale, so that it overflows only
    where p^0 does; the plain formula's bits wherever that stays in range."""
    _, q, mu, e = _unit_scaled(pvec, mass)
    return np.ldexp(np.sqrt(mu ** 2 + np.sum(q ** 2, axis=-1)), e)


def null_shell(p: np.ndarray) -> np.ndarray:
    """Finite p with |p.p| <= 1e-10 (p^0)^2: on the light cone."""
    finite, q, _, _ = _unit_scaled(p)
    return finite & (np.abs(mass_squared(q)) <= 1e-10 * q[..., 0] ** 2)


def timelike(p: np.ndarray) -> np.ndarray:
    """Finite p with p.p > 1e-10 (p^0)^2: inside the light cone."""
    finite, q, _, _ = _unit_scaled(p)
    return finite & (mass_squared(q) > 1e-10 * q[..., 0] ** 2)


def on_shell(p: np.ndarray, mass) -> np.ndarray:
    """The one test of p against a declared mass: finite, p^0 > 0 and
    |p.p - m^2| <= 1e-10 (p^0)^2, and timelike if m > 0 (as frame_massive
    needs); so on_shell(p, 0) is null_shell(p) wherever p^0 > 0."""
    finite, q, mu, _ = _unit_scaled(p, mass)
    qq, band = mass_squared(q), 1e-10 * q[..., 0] ** 2
    return (finite & (q[..., 0] > 0) & (np.abs(qq - mu ** 2) <= band)
            & ((mass == 0) | (qq > band)))


def invariant_mass(p: np.ndarray) -> np.ndarray:
    """sqrt(p.p) of a timelike p, equal to np.sqrt(mass_squared(p)) wherever
    that does not overflow or underflow."""
    _, q, _, e = _unit_scaled(p)
    return np.ldexp(np.sqrt(mass_squared(q)), e)


def nonzero_tp(t: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Finite t and p with |t.p| >= 1e-12 |t^0 p^0|, so that the generalized
    product may divide by t.p; t and p broadcast against each other."""
    finite, (t, p) = finite_vectors(t, p)
    scale = np.maximum(np.abs(t[..., 0] * p[..., 0]), 1e-300)
    return finite & (np.abs(minkowski(t, p)) >= 1e-12 * scale)


# ---------------------------------------------------------------------------
# spinors

def lower_spinor(k: np.ndarray) -> np.ndarray:
    """kappa_A = kappa^B eps_{BA}: (k0, k1) -> (-k1, k0)."""
    k = np.asarray(k)
    return np.stack([-k[..., 1], k[..., 0]], axis=-1)


def raise_spinor(k: np.ndarray) -> np.ndarray:
    """kappa^A = eps^{AB} kappa_B: (k0, k1) -> (k1, -k0)."""
    k = np.asarray(k)
    return np.stack([k[..., 1], -k[..., 0]], axis=-1)


def spinor_contract(a_lower: np.ndarray, b_upper: np.ndarray) -> np.ndarray:
    """a_A b^A (plain sum over the index)."""
    a_lower, b_upper = np.asarray(a_lower), np.asarray(b_upper)
    return a_lower[..., 0] * b_upper[..., 0] + a_lower[..., 1] * b_upper[..., 1]


# ---------------------------------------------------------------------------
# dyads (rank-2 spinor matrices attached to world vectors)
#
# vector_to_dyad, dyad_to_vector and pair_to_world are linear with constant
# coefficients, so each is one (S, k) @ (k, m) matmul against a table built
# here, once, from the expression that defines it.

# vector p^a -> dyad entries (..., 4): rows are p^a, columns the flattened AA'
_TO_DYAD = {
    "up": G_UP.reshape(4, 4),
    "low": G_LOW.reshape(4, 4),
    # p_A^{A'} = eps^{A'B'} p_{AB'} and p^A_{A'} = eps^{AB} p_{BA'}
    "lu": np.einsum('ac,bAc->bAa', EPS, G_LOW).reshape(4, 4),
    "ul": np.einsum('AB,bBa->bAa', EPS, G_LOW).reshape(4, 4),
}
# flattened dyad -> contravariant p^a, from the "up" or the "low" valence
_TO_VECTOR = {
    "up": G_LOW_W.reshape(4, 4).T,
    "low": G_UP.reshape(4, 4).T @ METRIC,
}
# x_{AA'BB'} -> x_ab = g_a^{AA'} g_b^{BB'} x_{AA'BB'}, flattened on both sides
_PAIR_TO_WORLD = np.einsum('aim,bjn->imjnab', G_UP, G_UP).reshape(16, 16)


def vector_to_dyad(p: np.ndarray, valence: str = "up") -> np.ndarray:
    """Spinor matrix of a world vector.

    valence "up" gives p^{AA'} = p^a g_a^{AA'}, "low" gives p_{AA'}; the mixed
    forms "lu" (p_A^{A'}) and "ul" (p^A_{A'}) follow by epsilon raising.
    """
    if valence not in _TO_DYAD:
        raise ValueError(f"unknown valence {valence!r}")
    p = np.asarray(p)
    return (p @ _TO_DYAD[valence]).reshape(p.shape[:-1] + (2, 2))


def dyad_to_vector(d: np.ndarray, valence: str = "up") -> np.ndarray:
    """Inverse of vector_to_dyad for the "up" and "low" valences.

    Returns contravariant components p^a in both cases.
    """
    if valence not in _TO_VECTOR:
        raise ValueError(f"unknown valence {valence!r}")
    d = np.asarray(d)
    return d.reshape(d.shape[:-2] + (4,)) @ _TO_VECTOR[valence]


def pair_to_world(x: np.ndarray) -> np.ndarray:
    """World tensor x_ab = g_a^{AA'} g_b^{BB'} x_{AA'BB'} of x, shape (..., 2, 2, 2, 2)."""
    x = np.asarray(x)
    lead = x.shape[:-4]
    return (x.reshape(lead + (16,)) @ _PAIR_TO_WORLD).reshape(lead + (4, 4))


def flagpole(k_upper: np.ndarray) -> np.ndarray:
    """Null future-pointing world vector kappa^A kappabar^{A'} of a spinor."""
    k_upper = np.asarray(k_upper)
    d = k_upper[..., :, None] * np.conj(k_upper)[..., None, :]
    return np.real(dyad_to_vector(d, "up"))


def trace_reversal_residual(p: np.ndarray) -> np.ndarray:
    """Per sample, the largest deviation of p_{AB'} p_{BA'} = p_a p_b -
    (p.p/2) g_{ab} in world components, relative to max(1, |p_a|)^2."""
    p = np.asarray(p, dtype=float)
    pl = vector_to_dyad(p, "low")
    # p_{Ab'} p_{Ba'} with its indices in the order A a' B b'
    lhs_spinor = pl[..., :, None, None, :] * np.swapaxes(pl, -1, -2)[..., None, :, :, None]
    lhs = pair_to_world(lhs_spinor)
    plow = lower_vector(p)
    rhs = (plow[..., :, None] * plow[..., None, :]
           - 0.5 * mass_squared(p)[..., None, None] * METRIC)
    return max_abs(lhs - rhs, 2) / max_abs(plow, floor=1.0) ** 2


# ---------------------------------------------------------------------------
# Infeld-van der Waerden generator tables

def iw_generators() -> tuple[np.ndarray, np.ndarray]:
    """Generators sigma^{ab}_X^Y and sigmabar^{ab}_{X'}^{Y'}, shape (4,4,2,2)."""
    s = (np.einsum('aXE,bYE->abXY', G_LOW_W, G_UP_W)
         - np.einsum('bXE,aYE->abXY', G_LOW_W, G_UP_W)) / 2j
    sb = (np.einsum('aEX,bEY->abXY', G_LOW_W, G_UP_W)
          - np.einsum('bEX,aEY->abXY', G_LOW_W, G_UP_W)) / 2j
    return s, sb


SIGMA, SIGMABAR = iw_generators()


# flattened (ab, cd) tables acting on a pair of world indices
_LOWER_PAIR = np.einsum('ac,bd->abcd', METRIC, METRIC).reshape(16, 16)
_DUAL_PAIR = 0.5 * np.einsum('abcd,ce,df->abef', LEVI_UP, METRIC, METRIC).reshape(16, 16)


def lower_world_pair(t: np.ndarray) -> np.ndarray:
    """T^{ab...} -> T_{ab...} on the two leading world indices."""
    t = np.asarray(t)
    return (_LOWER_PAIR @ t.reshape(16, -1)).reshape(t.shape)


def lower_tensor(f: np.ndarray) -> np.ndarray:
    """F^{ab} -> F_{ab} on the two trailing world indices of (..., 4, 4).

    The metric is its own inverse, so the same map raises F_{ab} to F^{ab}.
    """
    f = np.asarray(f)
    return (f.reshape(f.shape[:-2] + (16,)) @ _LOWER_PAIR.T).reshape(f.shape)


def dual_pair(t: np.ndarray) -> np.ndarray:
    """*T^{ab} = (1/2) e^{abcd} T_{cd} on the two leading world indices."""
    t = np.asarray(t)
    return (_DUAL_PAIR @ t.reshape(16, -1)).reshape(t.shape)


def generator_spinor_form() -> tuple[np.ndarray, np.ndarray]:
    """The all-epsilon expressions the generator tables must reproduce."""
    s = np.zeros((2, 2, 2, 2, 2, 2), dtype=complex)
    sb = np.zeros((2, 2, 2, 2, 2, 2), dtype=complex)
    for idx in itertools.product(range(2), repeat=6):
        a, ap, b, bp, x, y = idx
        s[idx] = (EPS[ap, bp] * (EPS[a, x] * EPS[b, y] + EPS[b, x] * EPS[a, y])) / 2j
        sb[idx] = (EPS[a, b] * (EPS[ap, x] * EPS[bp, y] + EPS[bp, x] * EPS[ap, y])) / 2j
    return s, sb


# ---------------------------------------------------------------------------
# SL(2,C) and Lorentz transformations

def _check_unit_det(a: np.ndarray) -> None:
    finite = np.all(np.isfinite(a), axis=(-2, -1))
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN fail below
        det = a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    reject(~(finite & (np.abs(det - 1.0) <= 1e-9)), NonUnitDeterminant,
           "A must be finite with det A = 1")


# (A_BC) -> eps_{BA} A_BC eps_{CD}, flattened (BC, AD)
_LOWER_REP = np.einsum('BA,CD->BCAD', EPS, EPS).reshape(4, 4)


def sl2c_lower_rep(a: np.ndarray) -> np.ndarray:
    """Matrix acting on lower-index unprimed spinors for A acting on upper ones."""
    a = np.asarray(a)
    return (a.reshape(a.shape[:-2] + (4,)) @ _LOWER_REP).reshape(a.shape)


# Lambda^a_b = [A (e_b)^{AA'} A^dagger]^a is linear in the 16 entries
# A_ij conj(A)_lk; rows are (i, j, l, k), columns the flattened (a, b).
_LORENTZ = np.einsum('bjk,ila->ijlkab', vector_to_dyad(np.eye(4), "up"),
                     dyad_to_vector(np.eye(4).reshape(4, 2, 2), "up")
                     .reshape(2, 2, 4)).reshape(16, 16)


def lorentz_from_sl2c(a: np.ndarray) -> np.ndarray:
    """Lorentz matrix Lambda with (Lambda p)^{AA'} = A p^{AA'} A^dagger."""
    a = np.asarray(a, dtype=complex)
    _check_unit_det(a)
    lead = a.shape[:-2]
    outer = a[..., :, :, None, None] * np.conj(a)[..., None, None, :, :]
    return np.real(outer.reshape(lead + (16,)) @ _LORENTZ).reshape(lead + (4, 4))


def transform_vector(a: np.ndarray, p: np.ndarray) -> np.ndarray:
    lam = lorentz_from_sl2c(a)
    return (lam @ np.asarray(p)[..., None])[..., 0]


def transform_dyad(a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Action on p^{AA'}: D -> A D A^dagger."""
    a = np.asarray(a)
    _check_unit_det(a)
    return a @ np.asarray(d) @ np.conj(np.swapaxes(a, -1, -2))


# ---------------------------------------------------------------------------
# seeded generators

def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_future_momentum(m: float, seed, size=None, scale: float = 1.0) -> np.ndarray:
    """On-shell future-pointing momentum; p.p = m^2 holds by construction."""
    if m < 0:
        raise NegativeMass(f"m = {m}")
    rng = _rng(seed)
    shape = (3,) if size is None else (size, 3)
    pv = rng.normal(size=shape) * scale
    if m == 0.0:
        # keep the null momentum away from the coordinate origin
        norm = np.linalg.norm(pv, axis=-1, keepdims=True)
        pv = np.where(norm < 1e-6, pv + 0.5, pv)
    p0 = np.sqrt(m ** 2 + np.sum(pv ** 2, axis=-1))
    return np.concatenate([p0[..., None], pv], axis=-1)


def random_spinor(seed, size=None) -> np.ndarray:
    rng = _rng(seed)
    shape = (2,) if size is None else (size, 2)
    k = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    norm = np.linalg.norm(k, axis=-1, keepdims=True)
    return np.where(norm < 1e-8, k + 1.0, k)


def random_sl2c(seed, size=None, spread: float = 0.4) -> np.ndarray:
    """Unit-determinant 2x2 complex matrix; spread controls distance from identity."""
    rng = _rng(seed)
    shape = (2, 2) if size is None else (size, 2, 2)
    a = np.eye(2) + spread * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
    det = np.linalg.det(a)
    small = np.abs(det) < 1e-3
    if np.any(small):
        a = np.where(np.broadcast_to(small[..., None, None], a.shape), np.eye(2) + a / 3.0, a)
        det = np.linalg.det(a)
    return a / np.sqrt(det)[..., None, None]


def random_timelike(seed, size=None, scale: float = 0.5) -> np.ndarray:
    """Future-pointing timelike vector, t.t > 0."""
    rng = _rng(seed)
    shape = (3,) if size is None else (size, 3)
    tv = rng.normal(size=shape) * scale
    t0 = np.sqrt(1.0 + np.sum(tv ** 2, axis=-1)) + 0.1
    return np.concatenate([t0[..., None], tv], axis=-1)

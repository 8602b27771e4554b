"""Bargmann-Wigner momentum components of arbitrary spin n/2.

A massive component at one momentum is the family of 2^n symmetric
multispinors labelled by which slots carry primed indices; storage keeps the
n+1 distinct members (k primed indices, k = 0..n) and restores the label
multiplicity C(n,k) wherever the full family enters a sum.  A massless
component is a single all-unprimed symmetric multispinor.

Synthesis expands a field over tensor products of the chi eigenbispinors;
extraction contracts with the frame partner omega, which annihilates every
term but the pure-pi one.  The quadratic tensor T pairs each member with its
conjugate, and the norm integrand [t...t T] / [t_1.p ... t_n.p] is
independent of the chosen directions t_k.

The production kernels work in graded (r+1)(s+1) coordinates: a 2x2 dyad on
every slot of a symmetric group is one (r+1)x(r+1) matrix of
`multispinor.sym_power_matrices`.  Only the distinct-direction T contraction
(the direction-independence check), the field-equation and helicity residuals
and the Hertz route expand members densely to 2^n entries.
"""

from __future__ import annotations

import itertools
import string
from dataclasses import dataclass
from math import comb

import numpy as np

from . import core
from .errors import (FrameMismatch, NonUnitDeterminant, NotMassive, NotNull,
                     OrthogonalDirection, ValenceMismatch)
from .frames import SpinFrame, frame_massless
from .multispinor import (SymMultiSpinor, _binomials, _sym_power_coeffs,
                          apply_matrix_per_slot, contract_same,
                          dense_from_graded, graded_from_dense,
                          sym_power_matrices)
from .pauli_lubanski import default_normalization, pl_momentum_rep

_PSI = string.ascii_uppercase
_BAR = string.ascii_lowercase

# the distinct-direction T check loops over 2^n labelled members of 2^n dense
# entries each; the storage contract caps the doubled spin where it stays cheap
MAX_N = 10


def _check_spin(n: int) -> None:
    if not 1 <= n <= MAX_N:
        raise ValenceMismatch(f"doubled spin n must lie in 1..{MAX_N}, got {n}")


@dataclass(frozen=True)
class Amplitudes:
    """The n+1 distinct scalar amplitudes of a massive component (a single one
    for a massless component), ordered by the number of 1-labels."""

    n: int
    mass: float
    sign: int
    f: np.ndarray    # (..., n+1) massive, (..., 1) massless

    @property
    def batch_shape(self):
        return self.f.shape[:-1]


@dataclass(frozen=True)
class BWComponent:
    """Fourier component of a spin-n/2 field at one (batched) momentum."""

    n: int
    mass: float
    sign: int
    p: np.ndarray                      # (..., 4)
    comps: tuple[SymMultiSpinor, ...]  # k = 0..n massive, single k = 0 massless

    @property
    def batch_shape(self):
        return self.p.shape[:-1]

    def dense(self, k: int) -> np.ndarray:
        return self.comps[k].dense()


# ---------------------------------------------------------------------------
# direction specifications for the generalized norm

@dataclass(frozen=True)
class StandardTime:
    """All direction vectors equal to (1, 0, 0, 0)."""


@dataclass(frozen=True)
class NullOmega:
    """All direction vectors equal to the null flagpole omega_vec(p)."""


@dataclass(frozen=True)
class RandomTimelike:
    """n independent random future-pointing timelike directions (seeded)."""

    seed: int


@dataclass(frozen=True)
class FixedList:
    """Explicit list of n world vectors."""

    vectors: tuple


DirectionSpec = StandardTime | NullOmega | RandomTimelike | FixedList


def resolve_directions(spec, n: int, psi: BWComponent,
                       frame: SpinFrame | None = None) -> tuple[np.ndarray, bool]:
    """Resolve a DirectionSpec to an array (n, ..., 4).

    Returns (ts, equal_slots); equal_slots marks that every slot carries the
    same vector, enabling the multiplicity fast path.  Raises
    OrthogonalDirection if any t_k.p vanishes at a sample.
    """
    if isinstance(spec, np.ndarray):
        ts = spec.astype(float)
        equal = bool(np.all(ts == ts[0]))
    elif isinstance(spec, StandardTime):
        t = np.zeros(psi.p.shape, dtype=float)
        t[..., 0] = 1.0
        ts = np.broadcast_to(t, (n,) + t.shape)
        equal = True
    elif isinstance(spec, NullOmega):
        fr = frame if frame is not None else (
            frame_massless(psi.p) if psi.mass == 0.0 else None)
        if fr is None:
            raise ValueError("NullOmega needs a spin-frame for massive momenta")
        ts = np.broadcast_to(fr.omega_vec, (n,) + fr.omega_vec.shape)
        equal = True
    elif isinstance(spec, RandomTimelike):
        ts = core.random_timelike(spec.seed, size=n)
        ts = ts.reshape((n,) + (1,) * len(psi.batch_shape) + (4,))
        ts = np.broadcast_to(ts, (n,) + psi.batch_shape + (4,))
        equal = False
    elif isinstance(spec, FixedList):
        ts = np.stack([np.broadcast_to(np.asarray(v, dtype=float),
                                       psi.batch_shape + (4,))
                       for v in spec.vectors])
        if ts.shape[0] != n:
            raise ValenceMismatch(f"need {n} direction vectors, got {ts.shape[0]}")
        equal = bool(np.all(ts == ts[0]))
    else:
        raise TypeError(f"not a direction spec: {spec!r}")
    tp = core.minkowski(ts, psi.p)
    scale = np.maximum(np.abs(ts[..., 0] * psi.p[..., 0]), 1e-300)
    bad = np.abs(tp) < 1e-12 * scale
    if np.any(bad):
        raise OrthogonalDirection(
            f"t.p vanishes at sample index {np.argwhere(bad)[0].tolist()}")
    return ts, equal


# ---------------------------------------------------------------------------
# massive synthesis / extraction

def synth_massive(frame: SpinFrame, amps: Amplitudes,
                  normalization=None) -> BWComponent:
    """Assemble the n+1 component multispinors from the amplitudes.

    The chi tensor-product expansion puts, on the member with r = n - k
    unprimed and k primed slots, the amplitude f_{a+b} on every routing of a
    plus factors to unprimed and b to primed slots.  In graded form
    psi_k = N^n U_r^T H_k V_k, where H_k[a, b] = f_{a+b} is the Hankel
    matrix of the amplitudes, U_r = S_r([u-; u+]) / C(r, i) and
    V_k = S_k([v-; v+]) / C(k, j) (S from `sym_power_matrices`); the
    binomial divisions are applied to the product.
    """
    if amps.mass <= 0 or frame.mass <= 0:
        raise NotMassive("synth_massive needs m > 0")
    _check_spin(amps.n)
    n, e = amps.n, amps.sign
    n_scale = (default_normalization(frame) if normalization is None
               else np.asarray(normalization, dtype=complex))
    oml = core.lower_spinor(frame.omega)
    pil = core.lower_spinor(frame.pi)
    us = sym_power_matrices(np.stack([-pil, e * oml], axis=-2), n)
    vs = sym_power_matrices(np.stack([-e * np.conj(oml), -np.conj(pil)], axis=-2), n)
    nk = np.asarray(n_scale ** n)[..., None, None]
    f = np.asarray(amps.f, dtype=complex)
    comps = []
    for k in range(n + 1):
        r = n - k
        hankel = f[..., np.add.outer(np.arange(r + 1), np.arange(k + 1))]
        scale = nk / np.multiply.outer(_binomials(r), _binomials(k))
        comp = np.swapaxes(us[r], -1, -2) @ hankel @ vs[k]
        comps.append(SymMultiSpinor(r, k, scale * comp))
    return BWComponent(n=n, mass=amps.mass, sign=e, p=frame.p, comps=tuple(comps))


def _check_frame(psi: BWComponent, frame: SpinFrame, tol: float = 1e-8) -> None:
    if frame.p.shape != psi.p.shape or np.max(np.abs(frame.p - psi.p)) > tol * (
            1.0 + np.max(np.abs(psi.p))):
        raise FrameMismatch("frame momentum differs from component momentum")


def extract_massive(psi: BWComponent, frame: SpinFrame,
                    normalization=None) -> Amplitudes:
    """Wigner amplitudes via N^n f_k = omega^{A..} omegabar^{A'..} psi_k."""
    if psi.mass <= 0:
        raise NotMassive("extract_massive needs m > 0")
    _check_frame(psi, frame)
    n_scale = (default_normalization(frame) if normalization is None
               else np.asarray(normalization, dtype=complex))
    om, omb = frame.omega, np.conj(frame.omega)
    fs = [contract_same(psi.comps[k], om, omb) / n_scale ** psi.n
          for k in range(psi.n + 1)]
    return Amplitudes(n=psi.n, mass=psi.mass, sign=psi.sign,
                      f=np.stack(fs, axis=-1))


def _contract_one_slot(dense: np.ndarray, n: int, axis: int, matrix: np.ndarray,
                       contract_second: bool) -> np.ndarray:
    """Contract slot `axis` (of the trailing n axes) with a 2x2 dyad.

    contract_second sums over the dyad's second index (free first index takes
    the slot's place); otherwise over the first.
    """
    letters = _PSI[:n]
    src = "..." + letters
    m_sub = "..." + (("z" + letters[axis]) if contract_second
                     else (letters[axis] + "z"))
    dst = "..." + letters[:axis] + "z" + letters[axis + 1:]
    return np.einsum(f"{src},{m_sub}->{dst}", dense, matrix, optimize=True)


def field_equation_residual_massive(psi: BWComponent) -> float:
    """Max residual of both momentum-space equation families over all slots,
    relative to the component and momentum scale."""
    if psi.mass <= 0:
        raise NotMassive("massive field equations need m > 0")
    n, m, e = psi.n, psi.mass, psi.sign
    pul = core.vector_to_dyad(psi.p, "ul")   # p^A_{A'}
    plu = core.vector_to_dyad(psi.p, "lu")   # p_A^{A'}
    scale = max(1.0, max(float(np.max(np.abs(c.comp))) for c in psi.comps)
                * max(float(np.max(np.abs(psi.p))), m))
    worst = 0.0
    for k in range(n):
        r = n - k
        da = dense_from_graded(psi.comps[k].comp, r, k)
        db = dense_from_graded(psi.comps[k + 1].comp, r - 1, k + 1)
        # e p^A_{A'} psi^{..0..}_{..A..} = -(m/sqrt2) psi^{..1..}_{..A'..}
        lhs = e * _contract_one_slot(da, n, r - 1, pul, contract_second=False)
        worst = max(worst, float(np.max(np.abs(lhs + (m / np.sqrt(2.0)) * db))))
        # e p_A^{A'} psi^{..1..}_{..A'..} = +(m/sqrt2) psi^{..0..}_{..A..}
        lhs2 = e * _contract_one_slot(db, n, r - 1, plu, contract_second=True)
        worst = max(worst, float(np.max(np.abs(lhs2 - (m / np.sqrt(2.0)) * da))))
    return worst / scale


# ---------------------------------------------------------------------------
# the quadratic tensor and norm integrands

def _pattern_contraction(dense: np.ndarray, tdy: np.ndarray, n: int,
                         primed_at: tuple[int, ...]) -> np.ndarray:
    """Contract one labelled member with its conjugate and one dyad per slot.

    dense holds the canonical (unprimed..., primed...) axis order; primed_at
    assigns those axes to world slots and fixes the pairing orientation.
    """
    r = n - len(primed_at)
    unprimed_at = tuple(i for i in range(n) if i not in primed_at)
    psi_sub = "..." + _PSI[:n]
    bar_sub = "..." + _BAR[:n]
    subs = [psi_sub, bar_sub]
    ops = [dense, np.conj(dense)]
    for axis in range(n):
        slot = unprimed_at[axis] if axis < r else primed_at[axis - r]
        pair = (_PSI[axis] + _BAR[axis]) if axis < r else (_BAR[axis] + _PSI[axis])
        subs.append("..." + pair)
        ops.append(tdy[slot])
    return np.einsum(",".join(subs) + "->...", *ops, optimize=True)


def _hermitian_factor(dyad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """B and signs J with dyad = B diag(J) B^H for a batch of Hermitian 2x2s.

    A closed-form Jacobi rotation: with dyad_01 = |b| e^{i phi},
    U = diag(1, e^{-i phi}) R(theta), tan 2 theta = 2|b| / (dyad_00 - dyad_11),
    diagonalizes the dyad to eigenvalues mean +- radius; B = U |Lambda|^{1/2}.
    """
    a, d, b = np.real(dyad[..., 0, 0]), np.real(dyad[..., 1, 1]), dyad[..., 0, 1]
    theta = 0.5 * np.arctan2(2.0 * np.abs(b), a - d)
    c, s = np.cos(theta), np.sin(theta)
    phase = np.exp(-1j * np.angle(b))
    u = np.stack([np.stack([c, -s], axis=-1),
                  np.stack([phase * s, phase * c], axis=-1)], axis=-2)
    mean, radius = 0.5 * (a + d), np.hypot(0.5 * (a - d), np.abs(b))
    lam = np.stack([mean + radius, mean - radius], axis=-1)
    return u * np.sqrt(np.abs(lam))[..., None, :], np.where(lam < 0, -1.0, 1.0)


def _square_pairing(psi: BWComponent, dyad: np.ndarray) -> np.ndarray:
    """sum_k C(n,k) sum_ij c_k (K_r conj(c_k) K_k)_ij with K = S(dyad), the
    same Hermitian dyad on every slot, as a signed sum of squares.

    With dyad = B J B^H from `_hermitian_factor` and
    S(M M') = S(M) D^{-1} S(M'), each member gives
    sum_ab w_a w'_b |(S_r(B)^H conj(c) S_k(B))_ab|^2 with
    w_a = J_0^{r-a} J_1^a / C(r, a).  For a causal future-pointing direction
    every weight is positive, so nothing cancels outside the squares;
    multiplying out K_r conj(c) K_k instead loses digits as n grows.
    """
    n = psi.n
    factor, sign = _hermitian_factor(dyad)
    gs = sym_power_matrices(factor, n)
    ws = []
    for r in range(n + 1):
        a = np.arange(r + 1)
        ws.append(sign[..., 0, None] ** (r - a) * sign[..., 1, None] ** a
                  / _binomials(r))
    total = 0.0
    for k, comp in enumerate(psi.comps):
        r = n - k
        x = np.conj(np.swapaxes(gs[r], -1, -2)) @ np.conj(comp.comp) @ gs[k]
        w = ws[r][..., :, None] * ws[k][..., None, :]
        total = total + comb(n, k) * np.sum(w * np.abs(x) ** 2, axis=(-2, -1))
    return total


def contract_T(psi: BWComponent, ts: np.ndarray,
               equal_slots: bool | None = None) -> np.ndarray:
    """t_1...t_n T, summing the quadratic tensor over all 2^n labelled members.

    With identical direction vectors on every slot the pattern sum reduces to
    binomial multiplicities of the canonical members, and each member pairs
    in graded form: sum_k C(n,k) sum_ij c_k (K_r conj(c_k) K_k)_ij with
    K = S(t^{AA'}) from `sym_power_matrices`, evaluated as a sum of squares
    by `_square_pairing`.  Distinct directions take the dense route over
    every labelled member; that route is the direction-independence check,
    not a production path.
    """
    n = psi.n
    if equal_slots is None:
        equal_slots = bool(np.all(ts == ts[0]))
    if equal_slots:
        return _square_pairing(psi, core.vector_to_dyad(ts[0], "up"))
    tdy = core.vector_to_dyad(ts, "up")
    total = None
    for k, comp in enumerate(psi.comps):
        dense = dense_from_graded(comp.comp, n - k, k)
        for primed_at in itertools.combinations(range(n), k):
            term = _pattern_contraction(dense, tdy, n, primed_at)
            total = term if total is None else total + term
    return np.real(total)


def norm_integrand(psi: BWComponent, spec=None, frame: SpinFrame | None = None,
                   form: str = "t") -> np.ndarray:
    """The generalized norm integrand [t...t T] / [(t_1.p)...(t_n.p)].

    form "t" evaluates the direction form for the given spec; form "p" uses
    the direction-free representation m^{-2n} p...p T for massive components,
    which `_square_pairing` evaluates as a sum of positive squares since p is
    timelike (for massless ones every valid direction gives the same value,
    so the standard-time form stands in).
    """
    if form == "p":
        if psi.mass > 0:
            pdy = core.vector_to_dyad(psi.p, "up")
            return _square_pairing(psi, pdy) * psi.mass ** (-2 * psi.n)
        spec = StandardTime()
    if spec is None:
        spec = StandardTime()
    ts, equal = resolve_directions(spec, psi.n, psi, frame)
    num = contract_T(psi, ts, equal)
    den = np.prod(core.minkowski(ts, psi.p), axis=0)
    return num / den


def norm_integrand_massive(psi: BWComponent, spec=None,
                           frame: SpinFrame | None = None,
                           form: str = "t") -> np.ndarray:
    if psi.mass <= 0:
        raise NotMassive("use norm_integrand for massless components")
    return norm_integrand(psi, spec, frame, form)


def standard_bw_integrand(psi: BWComponent) -> np.ndarray:
    """Component-sum integrand of the standard norm, sum |psi|^2 / (p^0)^n,
    counting all 2^n labelled members: each graded entry c_ij of member k
    stands for C(r,i) C(k,j) dense entries of C(n,k) labelled members."""
    n = psi.n
    total = 0.0
    for k, comp in enumerate(psi.comps):
        weights = np.multiply.outer(_binomials(n - k), _binomials(k))
        total = total + comb(n, k) * np.sum(weights * np.abs(comp.comp) ** 2,
                                            axis=(-2, -1))
    return total / psi.p[..., 0] ** n


# ---------------------------------------------------------------------------
# massless fields

def synth_massless(pi: np.ndarray, f, n: int, sign: int = +1) -> BWComponent:
    """All-unprimed component pi_{A_1}...pi_{A_n} f at p = flagpole(pi)."""
    _check_spin(n)
    pi = np.asarray(pi, dtype=complex)
    p = core.flagpole(pi)
    pil = core.lower_spinor(pi)
    coeffs = _sym_power_coeffs([pil] * n) * np.asarray(f, dtype=complex)[..., None]
    comp = SymMultiSpinor(n, 0, coeffs[..., None])
    return BWComponent(n=n, mass=0.0, sign=sign, p=p, comps=(comp,))


def eta_from_frame(frame: SpinFrame, n: int, sign: int = +1) -> SymMultiSpinor:
    """Hertz-type generator (+-i)^n omegabar^{A'_1}...omegabar^{A'_n}."""
    omb = np.conj(frame.omega)
    coeffs = _sym_power_coeffs([omb] * n) * (1j * sign) ** n
    return SymMultiSpinor(0, n, coeffs[..., None, :])


def hertz_psi(xi: SymMultiSpinor, p: np.ndarray, sign: int = +1,
              tol: float = 1e-10) -> BWComponent:
    """Massless component (-+i)^n p_{A_1 A'_1}...p_{A_n A'_n} xi^{A'_1...A'_n}.

    xi carries upper primed indices; each momentum dyad converts one into a
    lower unprimed index.
    """
    p = np.asarray(p, dtype=float)
    if np.any(np.abs(core.mass_squared(p)) > tol * np.maximum(p[..., 0] ** 2, 1e-300)):
        raise NotNull("hertz_psi needs a null momentum")
    if xi.r != 0:
        raise ValenceMismatch("hertz generator must be all-primed")
    n = xi.s
    _check_spin(n)
    pl = core.vector_to_dyad(p, "low")
    dense = dense_from_graded(xi.comp, 0, n)
    subs = ["..." + _BAR[:n]]
    ops: list[np.ndarray] = [dense]
    for i in range(n):
        subs.append("..." + _PSI[i] + _BAR[i])
        ops.append(pl)
    out = np.einsum(",".join(subs) + "->..." + _PSI[:n], *ops, optimize=True)
    comp = SymMultiSpinor(n, 0, graded_from_dense((-1j * sign) ** n * out, n, 0))
    return BWComponent(n=n, mass=0.0, sign=sign, p=p, comps=(comp,))


def helicity_residual_massless(psi: BWComponent) -> float:
    """Max over the world index of |sum_slots S^a psi + (n/2) p^a psi|,
    relative to the component and momentum scale."""
    if psi.mass != 0.0:
        raise NotNull("helicity relation applies to massless components")
    n = psi.n
    s_op = pl_momentum_rep(psi.p).unprimed      # (..., 4, 2, 2)
    dense = dense_from_graded(psi.comps[0].comp, n, 0)
    letters = _PSI[:n]
    acc = None
    for slot in range(n):
        dst = letters[:slot] + "z" + letters[slot + 1:]
        acted = np.einsum(f"...{letters},...wz{letters[slot]}->w...{dst}",
                          dense, s_op, optimize=True)
        acc = acted if acc is None else acc + acted
    pa = np.moveaxis(psi.p, -1, 0)
    pa = pa.reshape(pa.shape + (1,) * n)
    res = acc + 0.5 * n * pa * dense[None]
    scale = max(1.0, float(np.max(np.abs(dense))) * float(np.max(np.abs(psi.p))))
    return float(np.max(np.abs(res))) / scale


def extract_massless(psi: BWComponent, omega: np.ndarray,
                     tol: float = 1e-8) -> np.ndarray:
    """Amplitude f = omega^{A_1}...omega^{A_n} psi_{A_1...A_n}."""
    if psi.mass != 0.0:
        raise NotNull("extract_massless needs a massless component")
    omega = np.asarray(omega, dtype=complex)
    om_vec = core.flagpole(omega)
    if np.max(np.abs(core.minkowski(om_vec, psi.p) - 1.0)) > tol:
        raise FrameMismatch("omega is not a partner of the flag of p")
    return contract_same(psi.comps[0], omega, omega)


def wigner_state(psi: BWComponent, spec,
                 frame: SpinFrame | None = None) -> SymMultiSpinor:
    """psi / [t_1.p ... t_n.p]^{1/2}; round-trips by multiplying the root back."""
    ts, _ = resolve_directions(spec, psi.n, psi, frame)
    root = np.sqrt(np.prod(core.minkowski(ts, psi.p), axis=0).astype(complex))
    return psi.comps[0].scaled(1.0 / root)


# ---------------------------------------------------------------------------
# Lorentz action

def transform_component(psi: BWComponent, a: np.ndarray) -> BWComponent:
    """Slotwise SL(2,C) action and momentum map p -> Lambda p."""
    a = np.asarray(a, dtype=complex)
    if np.max(np.abs(np.linalg.det(a) - 1.0)) > 1e-9:
        raise NonUnitDeterminant("transform needs det A = 1")
    a_low = core.sl2c_lower_rep(a)
    new_p = core.transform_vector(a, psi.p)
    comps = tuple(apply_matrix_per_slot(c, a_low, np.conj(a_low))
                  for c in psi.comps)
    return BWComponent(n=psi.n, mass=psi.mass, sign=psi.sign, p=new_p, comps=comps)

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

Every kernel works in graded (r+1)(s+1) coordinates: a 2x2 dyad on every
slot of a symmetric group is one (r+1)x(r+1) matrix of
`multispinor.sym_power_matrices`, and the T contraction with a distinct
direction on each slot steps the same recurrence slot by slot.  No member is
expanded to its 2^n dense entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from . import core
from .errors import (FrameMismatch, NotMassive, NotNull, OrthogonalDirection,
                     ValenceMismatch, reject)
from .frames import SpinFrame, frame_massless
from .multispinor import (SymMultiSpinor, _binomials, _shift_add,
                          _sym_power_coeffs, apply_matrix_per_slot,
                          contract_same, sym_power_matrices)
from .pauli_lubanski import default_normalization, pl_momentum_rep

# every kernel is polynomial in n; the cap stands for precision, not cost:
# double-precision extraction with a general reference spinor and the
# form="p" pairing lose digits as n grows, and no rule yet sets the limit
MAX_N = 10

# the distinct-direction recursion takes the samples in blocks whose slot
# states hold at most this many bytes: 8097 samples at n = 4, 252 at n = 10
_STATE_BYTES = 32 * 2 ** 20


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
    if isinstance(spec, StandardTime):
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
    reject(~core.nonzero_tp(ts, psi.p), OrthogonalDirection,
           "t.p must be finite and nonzero")
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
    reject(~core.on_shell(frame.p, amps.mass), FrameMismatch,
           f"frame momentum off the mass shell of the amplitudes, m = {amps.mass}")
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


def _check_frame(psi: BWComponent, frame: SpinFrame) -> None:
    if frame.p.shape != psi.p.shape:
        raise FrameMismatch("frame momentum differs from component momentum")
    scale = 1.0 + np.max(np.abs(psi.p), initial=0.0, where=np.isfinite(psi.p))
    reject(~(np.max(np.abs(frame.p - psi.p), axis=-1) <= 1e-8 * scale),
           FrameMismatch, "frame momentum differs from component momentum")


def extract_massive(psi: BWComponent, frame: SpinFrame) -> Amplitudes:
    """Wigner amplitudes via N^n f_k = omega^{A..} omegabar^{A'..} psi_k."""
    if psi.mass <= 0:
        raise NotMassive("extract_massive needs m > 0")
    _check_frame(psi, frame)
    n_scale = default_normalization(frame)
    om, omb = frame.omega, np.conj(frame.omega)
    fs = [contract_same(psi.comps[k], om, omb) / n_scale ** psi.n
          for k in range(psi.n + 1)]
    return Amplitudes(n=psi.n, mass=psi.mass, sign=psi.sign,
                      f=np.stack(fs, axis=-1))


def field_equation_residual_massive(psi: BWComponent) -> float:
    """Max residual of both momentum-space equation families over all slots,
    relative to the component and momentum scale."""
    if psi.mass <= 0:
        raise NotMassive("massive field equations need m > 0")
    n, m, e = psi.n, psi.mass, psi.sign
    pul = core.vector_to_dyad(psi.p, "ul")[..., None, :, :]           # p^A_{A'}
    plu_t = np.swapaxes(core.vector_to_dyad(psi.p, "lu"), -1, -2)[..., None, :, :]
    scale = max(1.0, max(float(np.max(np.abs(c.comp))) for c in psi.comps)
                * max(float(np.max(np.abs(psi.p))), m))
    worst = 0.0
    for k in range(n):
        lo, hi = psi.comps[k].comp, psi.comps[k + 1].comp
        # one contracted slot leaves a free index z beside the two groups:
        # lo_z[i, j, z] = lo[i + z, j] and hi_z[i, j, z] = hi[i, j + z]
        lo_z = np.stack([lo[..., :-1, :], lo[..., 1:, :]], axis=-1)
        hi_z = np.stack([hi[..., :-1], hi[..., 1:]], axis=-1)
        # e p^A_{A'} psi^{..0..}_{..A..} = -(m/sqrt2) psi^{..1..}_{..A'..}
        res = e * lo_z @ pul + (m / np.sqrt(2.0)) * hi_z
        worst = np.maximum(worst, np.max(np.abs(res)))   # a NaN propagates
        # e p_A^{A'} psi^{..1..}_{..A'..} = +(m/sqrt2) psi^{..0..}_{..A..}
        res = e * hi_z @ plu_t - (m / np.sqrt(2.0)) * lo_z
        worst = np.maximum(worst, np.max(np.abs(res)))
    return float(worst / scale)


# ---------------------------------------------------------------------------
# the quadratic tensor and norm integrands

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


def _slot_states(tdy: np.ndarray, kmax: int) -> dict[int, np.ndarray]:
    """Z[a][i, i', j', j] = sum over the splits of the slots into a unprimed
    (U) and u primed (P) of A_U[i, i'] B_P[j', j], batch-last.

    tdy is (n, 2, 2, *batch).  Slot l multiplies A_U or B_P by
    (t00 + t01 y + t10 x + t11 x y); splits with more than kmax primed slots
    are dropped.
    """
    batch = tdy.shape[3:]
    states = {0: np.ones((1, 1, 1, 1) + batch, dtype=complex)}
    for done, m in enumerate(tdy, start=1):
        nxt = {}
        for a in range(max(0, done - kmax), done + 1):
            u = done - a
            z = np.zeros((a + 1, a + 1, u + 1, u + 1) + batch, dtype=complex)
            if a in states:         # slot l primed
                _shift_add(z, states[a], m, axis=2)
            if a - 1 in states:     # slot l unprimed
                _shift_add(z, states.pop(a - 1), m, axis=0)
            nxt[a] = z
        states = nxt
    return states


def _samples_last(x: np.ndarray, lead: tuple, batch: tuple) -> np.ndarray:
    """x of shape lead + batch + (a, b), broadcast to batch, as lead + (a, b, S)."""
    x = np.broadcast_to(x, lead + batch + x.shape[-2:])
    return np.moveaxis(x.reshape(lead + (-1,) + x.shape[-2:]), len(lead), -1)


def contract_T(psi: BWComponent, ts: np.ndarray,
               equal_slots: bool | None = None) -> np.ndarray:
    """t_1...t_n T, summing the quadratic tensor over all 2^n labelled members.

    A member with unprimed slots U and primed slots P pairs with its
    conjugate as sum c[i, j] conj(c[i', j']) A_U[i, i'] B_P[j', j], where A_U
    holds the coefficients of x^i y^i' in prod_{l in U} (t00 + t01 y + t10 x
    + t11 x y) and B_P the same over P with j' on x.  With identical direction vectors on
    every slot the pattern sum reduces to binomial multiplicities of the
    canonical members: sum_k C(n,k) sum_ij c_k (K_r conj(c_k) K_k)_ij with
    K = S(t^{AA'}) from `sym_power_matrices`, evaluated as a sum of squares
    by `_square_pairing`.  Distinct directions sum the splits slot by slot
    (`_slot_states`) over blocks of samples whose states fit _STATE_BYTES;
    member k reads the state with n - k unprimed slots.
    """
    n, kmax = psi.n, len(psi.comps) - 1
    if equal_slots is None:
        equal_slots = bool(np.all(ts == ts[0]))
    if equal_slots:
        return _square_pairing(psi, core.vector_to_dyad(ts[0], "up"))
    tdy = core.vector_to_dyad(ts, "up")
    batch = np.broadcast_shapes(tdy.shape[1:-2], psi.batch_shape)
    tdy = _samples_last(tdy, (n,), batch)
    cs = [_samples_last(c.comp, (), batch) for c in psi.comps]
    # complex entries per sample of the states after the last slot
    size = sum((a + 1) ** 2 * (n - a + 1) ** 2 for a in range(n - kmax, n + 1))
    block = max(1, _STATE_BYTES // (16 * size))
    total = np.empty(tdy.shape[-1])
    for start in range(0, total.size, block):
        part = slice(start, start + block)
        states = _slot_states(tdy[..., part], kmax)
        total[part] = np.real(sum(
            np.einsum("ij...,IJ...,iIJj...->...", c[..., part], np.conj(c[..., part]),
                      states.pop(n - k)) for k, c in enumerate(cs)))
    return total.reshape(batch)


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


def hertz_psi(xi: SymMultiSpinor, p: np.ndarray, sign: int = +1) -> BWComponent:
    """Massless component (-+i)^n p_{A_1 A'_1}...p_{A_n A'_n} xi^{A'_1...A'_n}.

    xi carries upper primed indices; each momentum dyad converts one into a
    lower unprimed index.
    """
    p = np.asarray(p, dtype=float)
    reject(~core.null_shell(p), NotNull, "hertz_psi needs a finite null momentum")
    if xi.r != 0:
        raise ValenceMismatch("hertz generator must be all-primed")
    n = xi.s
    _check_spin(n)
    pl = core.vector_to_dyad(p, "low")
    moved = apply_matrix_per_slot(xi, pl, pl).comp     # (..., 1, n+1)
    comp = SymMultiSpinor(n, 0, (-1j * sign) ** n * np.swapaxes(moved, -1, -2))
    return BWComponent(n=n, mass=0.0, sign=sign, p=p, comps=(comp,))


def helicity_residual_massless(psi: BWComponent) -> float:
    """Max over the world index of |sum_slots S^a psi + (n/2) p^a psi|,
    relative to the component and momentum scale.

    For one 2x2 M acting on each slot in turn, the slot sum maps graded
    components c_i to (n-i)(M00 c_i + M01 c_{i+1}) + i(M11 c_i + M10 c_{i-1}):
    of the slots of an entry with i ones, n - i hold a 0 and i hold a 1.
    """
    if psi.mass != 0.0:
        raise NotNull("helicity relation applies to massless components")
    n = psi.n
    s_op = pl_momentum_rep(psi.p).unprimed[..., None]     # (..., 4, 2, 2, 1)
    cp = psi.comps[0].comp[..., None, :, 0]               # (..., 1, n+1)
    cp = np.pad(cp, [(0, 0)] * (cp.ndim - 1) + [(1, 1)])  # c_{-1} = c_{n+1} = 0
    c, i = cp[..., 1:-1], np.arange(n + 1)
    acc = ((n - i) * (s_op[..., 0, 0, :] * c + s_op[..., 0, 1, :] * cp[..., 2:])
           + i * (s_op[..., 1, 1, :] * c + s_op[..., 1, 0, :] * cp[..., :-2]))
    res = acc + 0.5 * n * psi.p[..., None] * c
    scale = max(1.0, float(np.max(np.abs(c))) * float(np.max(np.abs(psi.p))))
    return float(np.max(np.abs(res))) / scale


def extract_massless(psi: BWComponent, omega: np.ndarray) -> np.ndarray:
    """Amplitude f = omega^{A_1}...omega^{A_n} psi_{A_1...A_n}."""
    if psi.mass != 0.0:
        raise NotNull("extract_massless needs a massless component")
    finite, (omega,) = core.finite_vectors(np.asarray(omega, dtype=complex))
    tp = core.minkowski(core.flagpole(omega), psi.p)
    reject(~(finite & (np.abs(tp - 1.0) <= 1e-8)), FrameMismatch,
           "omega must be finite and a partner of the flag of p")
    return contract_same(psi.comps[0], omega, omega)


def wigner_state(psi: BWComponent, spec,
                 frame: SpinFrame | None = None) -> SymMultiSpinor:
    """psi / [t_1.p ... t_n.p]^{1/2} of a massless component; round-trips by
    multiplying the root back."""
    if psi.mass != 0.0:
        raise NotNull("wigner_state needs a massless component")
    ts, _ = resolve_directions(spec, psi.n, psi, frame)
    root = np.sqrt(np.prod(core.minkowski(ts, psi.p), axis=0).astype(complex))
    return psi.comps[0].scaled(1.0 / root)


# ---------------------------------------------------------------------------
# Lorentz action

def transform_component(psi: BWComponent, a: np.ndarray) -> BWComponent:
    """Slotwise SL(2,C) action and momentum map p -> Lambda p."""
    a = np.asarray(a, dtype=complex)
    new_p = core.transform_vector(a, psi.p)      # checks det A = 1
    a_low = core.sl2c_lower_rep(a)
    comps = tuple(apply_matrix_per_slot(c, a_low, np.conj(a_low))
                  for c in psi.comps)
    return BWComponent(n=psi.n, mass=psi.mass, sign=psi.sign, p=new_p, comps=comps)

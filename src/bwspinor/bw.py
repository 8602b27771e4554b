"""Bargmann-Wigner momentum components of arbitrary spin n/2.

A massive component at one momentum is the family of 2^n symmetric
multispinors labelled by which slots carry primed indices; storage keeps the
n+1 distinct members (k primed indices, k = 0..n) and restores the label
multiplicity C(n,k) wherever the full family enters a sum.  A massless
component is a single all-unprimed symmetric multispinor.

Synthesis expands a field over tensor products of the chi eigenbispinors;
extraction contracts with the frame partner omega, which annihilates every
term but the pure-pi one.  `synth` and `extract` serve both masses, with the
member layout of `valences`.  The quadratic tensor T pairs each member with its
conjugate, and the norm integrand [t...t T] / [t_1.p ... t_n.p] is
independent of the chosen directions t_k.

Every kernel works batch-last in graded (r+1)(s+1) coordinates, in blocks
of samples whose arrays fit _STATE_BYTES, and expands no member to its 2^n
dense entries.  Synthesis, the general equal-slot pairing, the Lorentz
action and the Hertz route are one slot action (`multispinor._slot_action`),
each with its own matrix, and return (..., r+1, s+1) views of one batch-last
buffer per component.  Every closed form is one sum, `contract_rows`, of a
member between two rows of one table of spinor powers: the members
`_along` omega (extraction) or tau (the rank-one pairing), or their squared
moduli, moved or not, along a diagonal dyad; massless synthesis and the
Hertz generator read the same table.  The T contraction with a distinct
direction per slot reads T through its C(n+3, 3) components on the
monomials of the four dyad entries, gathered from the members by one fixed
table.  The working arrays of the slot action and of that route are views
into one reused per-thread buffer (`multispinor.workspace`).

The T contraction takes one of four routes, picked from the directions at
every sample, and one rotation, `frames.axis_rotation`, diagonalizes
every direction dyad among them.  A direction per slot takes the monomial
route, in the frame that rotation makes p diagonal in.  One vector on every
slot takes the form its dyad t^{AA'} allows: a diagonal dyad (t in the t-z
plane, as the standard time direction) weighs |c|^2 by powers of its two
entries; a dyad of rank one to rounding (a null t, as the flagpole of
omega), lam_i tau taubar with tau a row of the rotation, pairs each member
by `_along` tau, as extraction does along omega: "formulas are
simpler if one chooses null directions"; any other dyad is rotated to
diag(lam), and the members, moved by the same rotation, pair as the
diagonal dyad does.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import lru_cache
from math import comb, prod

import numpy as np

from . import core
from .errors import (FrameMismatch, NotFinite, NotMassive, NotNull,
                     OrthogonalDirection, ValenceMismatch, reject)
from .frames import SpinFrame, axis_rotation, frame_for
from .multispinor import (SymMultiSpinor, _blocks, _slot_action, _views,
                          contract_rows, power_row, spinor_powers, workspace)
from .pauli_lubanski import default_normalization, pl_momentum_rep

# every kernel is polynomial in n; the cap stands for precision, not cost:
# double-precision extraction with a general reference spinor and the
# form="p" pairing lose digits as n grows, and no rule yet sets the limit
MAX_N = 10

# the kernels that hold per-sample working arrays take the samples in blocks
# whose arrays hold at most this many bytes, which also bounds the per-thread
# workspace they share: the symmetric powers and products of the slot action
# (426 samples at n = 10), the gathered terms of the distinct-direction route
# (359 samples at n = 4, 6 at n = 10).
# Blocks that stay near the 2 MiB L2 cache of one core ran these kernels
# 1.4 to 1.7 times faster at n = 10 than 32 MiB blocks did (2-vCPU Xeon).
_STATE_BYTES = 4 * 2 ** 20


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
    """Explicit list of n world vectors; a single vector stands for every slot."""

    vectors: tuple


DirectionSpec = StandardTime | NullOmega | RandomTimelike | FixedList


def resolve_directions(spec, n: int, psi: BWComponent,
                       frame: SpinFrame | None = None) -> np.ndarray:
    """Resolve a DirectionSpec to the vectors t_1..t_n, an array (n, ..., 4).

    NullOmega takes the flagpole of omega from `frame`, or from the frame
    `frames.frame_for` attaches to psi.p when none is given.  Raises
    OrthogonalDirection if any t_k.p vanishes, naming the first such sample
    and its first such slot k.
    """
    if isinstance(spec, StandardTime):
        t = np.zeros(psi.p.shape, dtype=float)
        t[..., 0] = 1.0
        ts = np.broadcast_to(t, (n,) + t.shape)
    elif isinstance(spec, NullOmega):
        fr = frame if frame is not None else frame_for(psi.p, psi.mass)
        ts = np.broadcast_to(fr.omega_vec, (n,) + fr.omega_vec.shape)
    elif isinstance(spec, RandomTimelike):
        ts = core.random_timelike(spec.seed, size=n)
        ts = ts.reshape((n,) + (1,) * len(psi.batch_shape) + (4,))
        ts = np.broadcast_to(ts, (n,) + psi.batch_shape + (4,))
    elif isinstance(spec, FixedList):
        ts = np.stack([np.broadcast_to(np.asarray(v, dtype=float),
                                       psi.batch_shape + (4,))
                       for v in spec.vectors])
        if ts.shape[0] == 1:
            ts = np.broadcast_to(ts, (n,) + ts.shape[1:])
        if ts.shape[0] != n:
            raise ValenceMismatch(f"need 1 or {n} direction vectors, got {ts.shape[0]}")
    else:
        raise TypeError(f"not a direction spec: {spec!r}")
    bad = np.moveaxis(~core.nonzero_tp(ts, psi.p), 0, -1)     # (..., n)
    if np.any(bad):
        k = np.argwhere(bad)[0, -1]     # the first bad slot of the first bad sample
        reject(bad[..., k], OrthogonalDirection, f"t_{k + 1}.p must be finite and nonzero")
    return ts


# ---------------------------------------------------------------------------
# synthesis / extraction

def valences(n: int, mass: float) -> list[tuple[int, int]]:
    """The valences (r, s) of the stored members: (n - k, k) for k = 0..n
    massive, the one all-unprimed (n, 0) massless."""
    return [(n - k, k) for k in range(n + 1)] if mass > 0 else [(n, 0)]


def synth(frame: SpinFrame, amps: Amplitudes, normalization=None) -> BWComponent:
    """The component of the amplitudes in the frame, at any mass:
    `synth_massive`, or `synth_massless` from frame.pi.  A frame momentum off
    the shell of amps.mass raises FrameMismatch; a normalization at m = 0,
    where it is fixed, raises NotMassive, and a count of amplitudes other
    than that of `valences` raises ValenceMismatch."""
    count = len(valences(amps.n, amps.mass))
    if np.shape(amps.f)[-1:] != (count,):
        raise ValenceMismatch(f"need {count} amplitudes per sample, got shape {np.shape(amps.f)}")
    if amps.mass > 0:
        return synth_massive(frame, amps, normalization)
    if normalization is not None:
        raise NotMassive("a custom normalization needs m > 0")
    _check_shell(frame, amps.mass)
    return synth_massless(frame.pi, amps.f[..., 0], amps.n, amps.sign)


def _check_shell(frame: SpinFrame, mass: float) -> None:
    reject(~core.on_shell(frame.p, mass), FrameMismatch,
           f"frame momentum off the mass shell of the amplitudes, m = {mass}")


def synth_massive(frame: SpinFrame, amps: Amplitudes,
                  normalization=None) -> BWComponent:
    """Assemble the n+1 component multispinors from the amplitudes.

    The chi tensor-product expansion puts, on the member with r = n - k
    unprimed and k primed slots, the amplitude f_{a+b} on every routing of a
    plus factors to unprimed and b to primed slots.  With the factors
    Mu = [-pi_A; e omega_A] unprimed and [[0, -1], [1, 0]] conj(Mu) primed,
    that is the slot action of a = Mu^T on G_k[i, j] = (-1)^j N^n f_{i+k-j},
    psi_k = Q_r(a) G_k conj(Q_k(a))^T; the columns of G_k are signed slices
    of the amplitudes, so no G_k is built.
    """
    if amps.mass <= 0:
        raise NotMassive("synth_massive needs m > 0")
    _check_shell(frame, amps.mass)
    _check_spin(amps.n)
    n, e = amps.n, amps.sign
    n_scale = (default_normalization(frame) if normalization is None
               else np.asarray(normalization, dtype=complex))
    mu_t = np.stack([-core.lower_spinor(frame.pi), e * core.lower_spinor(frame.omega)],
                    axis=-1)
    with np.errstate(over="ignore", invalid="ignore"):     # checked below
        scale = np.asarray(n_scale ** n)
        fc = np.conj(np.asarray(amps.f, dtype=complex) * scale[..., None])
        batch = np.broadcast_shapes(mu_t.shape[:-2], fc.shape[:-1])
        fc = np.ascontiguousarray(np.broadcast_to(fc, batch + (n + 1,)).reshape(-1, n + 1).T)

        def conj_columns(part):
            signed = (fc[:, part], -fc[:, part])
            # column j of conj(G_k) is (-1)^j conj(N^n f)_{k-j..n-j}
            return [[signed[j % 2][k - j:n + 1 - j] for j in range(k + 1)]
                    for k in range(n + 1)]

        comps = _moved(mu_t, conj_columns, valences(n, amps.mass), batch)
    _check_members(comps, scale)
    return BWComponent(n=n, mass=amps.mass, sign=e, p=frame.p, comps=comps)


def _check_members(comps: tuple[SymMultiSpinor, ...], scale) -> None:
    """Reject a sample whose members (they grow like (p^0)^(n/2)) overflow, or whose
    unit-amplitude scale, N^n or |pi|^n, which extraction divides out, is not normal."""
    ok = np.logical_and.reduce([np.all(np.isfinite(c.comp), axis=(-2, -1)) for c in comps])
    reject(~(ok & (np.abs(scale) >= np.finfo(float).tiny)), NotFinite,
           "synthesized members must be finite, with a normal scale")


def _moved(a: np.ndarray, conj_columns, valences: list[tuple[int, int]],
           batch: tuple) -> tuple[SymMultiSpinor, ...]:
    """Members of valences (r, s) moved by a on every slot, views of one buffer."""
    a = np.broadcast_to(a, batch + (2, 2)).reshape(-1, 2, 2)
    shapes = [(r + 1, s + 1, a.shape[0]) for r, s in valences]
    out = _views(np.empty(sum(map(prod, shapes)), dtype=complex), *shapes)
    for part, i, x in _slot_action(a, conj_columns, sum(valences[0]), _STATE_BYTES):
        out[i][..., part] = x
    return tuple(SymMultiSpinor(r, s, np.moveaxis(o.reshape(o.shape[:2] + batch),
                                                  (0, 1), (-2, -1)))
                 for (r, s), o in zip(valences, out))


def _conj_columns(comps, batch: tuple):
    """The `conj_columns` of `_slot_action` for stored members."""
    cs = [_samples_last(c.comp, (), batch) for c in comps]
    return lambda part: [np.conj(np.swapaxes(c[..., part], 0, 1)) for c in cs]


def _check_frame(psi: BWComponent, frame: SpinFrame) -> None:
    if frame.p.shape != psi.p.shape:
        raise FrameMismatch("frame momentum differs from component momentum")
    finite, (fp, p) = core.finite_vectors(frame.p, psi.p)
    reject(~(finite & (core.max_abs(fp - p) <= 1e-8 * (1.0 + core.max_abs(p)))),
           FrameMismatch, "frame momentum differs from component momentum")


def _along(psi: BWComponent, x: np.ndarray) -> np.ndarray:
    """x^{A..} xbar^{A'..} psi_k of every member k, (..., len(psi.comps)),
    from one table of the powers of x: the one contraction of the members
    along a spinor.  Conjugation is exact, so the column is the conjugate row."""
    powers = spinor_powers(x, psi.n)
    return np.stack([contract_rows(power_row(powers, c.r, 1), np.moveaxis(c.comp, (-2, -1), (0, 1)),
                                   np.conj(power_row(powers, c.s, 1))) for c in psi.comps], axis=-1)


def extract(psi: BWComponent, frame: SpinFrame) -> Amplitudes:
    """Wigner amplitudes at any mass, `_along` omega: N^n f_k = omega^{A..}
    omegabar^{A'..} psi_k massive, f = omega^{A..} psi_{A..} massless."""
    _check_frame(psi, frame)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):    # checked below
        f = _along(psi, frame.omega)
        if psi.mass > 0:
            f = f / np.asarray(default_normalization(frame) ** psi.n)[..., None]
    reject(~np.all(np.isfinite(f), axis=-1), NotFinite, "extracted amplitudes must be finite")
    return Amplitudes(n=psi.n, mass=psi.mass, sign=psi.sign, f=f)


# a second name of the same function: perfbench traces extraction under it
extract_massive = extract


def field_equation_residual_massive(psi: BWComponent) -> np.ndarray:
    """Per sample, the largest residual of both momentum-space equation
    families over all slots, relative to the sample's component and
    momentum scale."""
    if psi.mass <= 0:
        raise NotMassive("massive field equations need m > 0")
    n, m, e = psi.n, psi.mass, psi.sign
    pul = core.vector_to_dyad(psi.p, "ul")[..., None, :, :]           # p^A_{A'}
    plu_t = np.swapaxes(core.vector_to_dyad(psi.p, "lu"), -1, -2)[..., None, :, :]
    scale = np.maximum(1.0, np.maximum.reduce([core.max_abs(c.comp, 2) for c in psi.comps])
                       * core.max_abs(psi.p, floor=m))
    worst = 0.0
    for k in range(n):
        lo, hi = psi.comps[k].comp, psi.comps[k + 1].comp
        # one contracted slot leaves a free index z beside the two groups:
        # lo_z[i, j, z] = lo[i + z, j] and hi_z[i, j, z] = hi[i, j + z]
        lo_z = np.stack([lo[..., :-1, :], lo[..., 1:, :]], axis=-1)
        hi_z = np.stack([hi[..., :-1], hi[..., 1:]], axis=-1)
        # e p^A_{A'} psi^{..0..}_{..A..} = -(m/sqrt2) psi^{..1..}_{..A'..}
        res = e * lo_z @ pul + (m / np.sqrt(2.0)) * hi_z
        worst = np.maximum(worst, core.max_abs(res, 3))   # a NaN propagates
        # e p_A^{A'} psi^{..1..}_{..A'..} = +(m/sqrt2) psi^{..0..}_{..A..}
        res = e * hi_z @ plu_t - (m / np.sqrt(2.0)) * lo_z
        worst = np.maximum(worst, core.max_abs(res, 3))
    return worst / scale


# ---------------------------------------------------------------------------
# the quadratic tensor and norm integrands

def _equal_pairing(psi: BWComponent, t: np.ndarray) -> np.ndarray:
    """t...t T with the same vector t (..., 4) on every slot, by the route
    its dyad t^{AA'} allows, checked at every sample:
    - off-diagonal exactly 0 (the standard time direction, any t in the
      t-z plane): `_diagonal_pairing`, a weighted sum of |c|^2;
    - rank one to rounding, the smaller |lam| of `frames.axis_rotation`
      at most 8 eps times the larger |lam_i| (a null t): lam_i^n
      `_rank_one_pairing` with tau = conj(a_i), t^{AA'} = lam_i tau^A
      taubar^{A'}; a past t has i = 1 and lam_1 < 0; the dropped
      direction moves the value by about 8 n eps relative;
    - any other: `_rotated_pairing`, the diagonal pairing of the members
      moved by the rotation that makes the dyad diag(lam).
    The rank-one route loses digits where t nearly parallels a null p: its
    relative error grows like eps (t^0 p^0 / t.p)^(n/2), which the rounding
    of the stored entries already carries.
    """
    dyad = core.vector_to_dyad(t, "up")
    if np.all(dyad[..., 0, 1] == 0):
        return _diagonal_pairing(psi, np.real(dyad[..., 0, 0]), np.real(dyad[..., 1, 1]))
    a, lam = axis_rotation(t)
    moduli = np.abs(lam)
    if np.all(moduli.min(axis=-1) <= 8 * np.finfo(float).eps * moduli.max(axis=-1)):
        i = np.argmax(moduli, axis=-1)[..., None]
        tau = np.take_along_axis(np.conj(a), i[..., None], axis=-2)[..., 0, :]
        return np.take_along_axis(lam, i, -1)[..., 0] ** psi.n * _rank_one_pairing(psi, tau)
    return _rotated_pairing(psi, a, lam)


def _diagonal_pairing(psi: BWComponent, d0: np.ndarray, d1: np.ndarray) -> np.ndarray:
    """The pairing through the dyad diag(d0, d1) on every slot:
    sum_k C(n,k) sum_ab C(r,a) d0^(r-a) d1^a |c_ab|^2 C(s,b) d0^(s-b) d1^b.

    K = S(dyad) is diagonal, so each entry pairs with its own conjugate; the
    signed d0, d1 of a past-pointing or spacelike t enter as they are.  A
    dyad shared by every sample gives a table without sample axes.
    """
    powers = spinor_powers(np.stack([d0, d1], axis=-1), psi.n)
    total = 0.0
    for c in psi.comps:
        x = np.moveaxis(c.comp, (-2, -1), (0, 1))
        total = total + comb(psi.n, c.s) * contract_rows(
            power_row(powers, c.r, 1), x.real ** 2 + x.imag ** 2, power_row(powers, c.s, 1))
    return total


def _rank_one_pairing(psi: BWComponent, tau: np.ndarray) -> np.ndarray:
    """The pairing through the dyad tau taubar on every slot:
    sum_k C(n,k) |tau^{A..} taubar^{A'..} psi_k|^2, `_along` tau."""
    z = _along(psi, tau)
    return sum(comb(psi.n, k) * (z[..., k].real ** 2 + z[..., k].imag ** 2)
               for k in range(z.shape[-1]))


def _rotated_pairing(psi: BWComponent, a: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """`_diagonal_pairing` through diag(lam) of the members moved by a on
    every slot, as `transform_component` moves them, with the moved members
    streamed from the slot action and never stored.

    With M = sl2c_lower_rep(a), the slot action of M gives the moved member
    x, weighed as `_diagonal_pairing` weighs c, by w_a = C(r, a) lam_0^(r-a)
    lam_1^a; conj(M) on conj(c) gives conj(x), so c enters as it is.  For a
    causal future-pointing direction every weight is positive, so nothing
    cancels outside the squares.
    """
    batch = np.broadcast_shapes(a.shape[:-2], lam.shape[:-1], psi.batch_shape)
    m = np.broadcast_to(np.conj(core.sl2c_lower_rep(a)), batch + (2, 2)).reshape(-1, 2, 2)
    powers = spinor_powers(np.broadcast_to(lam, batch + (2,)).reshape(-1, 2), psi.n)
    cs = [_samples_last(c.comp, (), batch) for c in psi.comps]
    total = np.zeros(m.shape[0])
    for part, k, x in _slot_action(m, lambda part: [np.swapaxes(c[..., part], 0, 1)
                                                    for c in cs], psi.n, _STATE_BYTES):
        r, s = psi.comps[k].r, psi.comps[k].s
        total[part] += comb(psi.n, s) * contract_rows(power_row(powers[..., part], r, 1),
                                                      x.real ** 2 + x.imag ** 2,
                                                      power_row(powers[..., part], s, 1))
    return total.reshape(batch)


def _samples_last(x: np.ndarray, lead: tuple, batch: tuple) -> np.ndarray:
    """x of shape lead + batch + (a, b), broadcast to batch, as lead + (a, b, S)."""
    x = np.broadcast_to(x, lead + batch + x.shape[-2:])
    return np.moveaxis(x.reshape(lead + (-1,) + x.shape[-2:]), len(lead), -1)


def contract_T(psi: BWComponent, ts: np.ndarray) -> np.ndarray:
    """t_1...t_n T, summing the quadratic tensor over all 2^n labelled members.

    ts holds one vector per slot, (n, ..., 4); any other count raises
    ValenceMismatch.  T is symmetric in its world slots, so with different
    vectors on the slots `_monomial_pairing` reads it through its components
    on the monomials of the four dyad entries.  When every slot carries
    the same vector at every sample, the pattern sum reduces to binomial
    multiplicities of the canonical members, and `_equal_pairing` picks
    one of its three routes from the dyad t^{AA'}.
    """
    if ts.shape[0] != psi.n:
        raise ValenceMismatch(f"need {psi.n} direction vectors, got {ts.shape[0]}")
    if np.all(ts == ts[0]):
        return _equal_pairing(psi, ts[0])
    return _monomial_pairing(psi, ts)


def _monomial_pairing(psi: BWComponent, ts: np.ndarray) -> np.ndarray:
    """t_1...t_n T with a direction per slot, Re sum_alpha M_alpha L_alpha:
    L, the components of T on the monomials of the dyad entries, contracted
    one slot at a time to sum_AB t^{AB} L_{beta + e_AB}, as T is symmetric.

    Both run in a frame rotated per sample where p_AB is diagonal
    (`frames.axis_rotation`), so that no term cancels for causal
    directions: on random null directions up to n = 10 the frame given lost
    up to 4e-11 (massive) and 2e-9 (massless) relative.  The samples go in
    blocks whose working arrays fit _STATE_BYTES, in this thread's
    workspace."""
    n, kmax = psi.n, len(psi.comps) - 1
    tdy = core.vector_to_dyad(ts, "up")
    batch = np.broadcast_shapes(tdy.shape[1:-2], psi.batch_shape)
    a, _ = axis_rotation(psi.p)
    # the members as transform_component moves them, without its momentum map
    moved = _moved(core.sl2c_lower_rep(a), _conj_columns(psi.comps, batch),
                   [(c.r, c.s) for c in psi.comps], batch)
    x = np.concatenate([_samples_last(c.comp, (), batch).reshape((c.r + 1) * (c.s + 1), -1)
                        for c in moved])
    # a t^{AA'} a^dagger; einsum ran 4 to 5 times faster on contiguous operands
    a = np.ascontiguousarray(_samples_last(a, (), batch))
    tdy = np.einsum("ijs,ljms,kms->liks", a, np.ascontiguousarray(
        _samples_last(tdy, (n,), batch)), np.conj(a)).reshape(n, 4, -1)
    size = len(_monomials(n)) + len(x) + 2 * len(_gather_table(n, kmax)[0])
    total = np.empty(x.shape[1])
    parts = _blocks(total.size, size, _STATE_BYTES)
    with workspace(size * (parts[0].stop if parts else 0)) as buf:
        for part in parts:
            l = _tensor_components(x[:, part], n, kmax, buf)
            for d, t in zip(range(n - 1, -1, -1), tdy[..., part]):
                l = np.einsum("qab,qb->ab", l[_raised(d)], t)
            total[part] = l[0].real
    return total.reshape(batch)


@lru_cache(maxsize=None)
def _monomials(n: int) -> dict[tuple, int]:
    """The row of each exponent alpha = (a00, a01, a10, a11), |alpha| = n,
    of the monomials w^alpha in the four dyad entries w_AB."""
    return {alpha: row for row, alpha in enumerate(
        a for a in itertools.product(range(n + 1), repeat=4) if sum(a) == n)}


@lru_cache(maxsize=None)
def _raised(d: int) -> np.ndarray:
    """(4, C(d+3, 3)): for each entry q = AB and monomial alpha of degree d,
    the row of alpha + e_q among the monomials of degree d + 1."""
    above = _monomials(d + 1)
    return np.array([[above[a[:q] + (a[q] + 1,) + a[q + 1:]] for a in _monomials(d)]
                     for q in range(4)])


@lru_cache(maxsize=None)
def _gather_table(n: int, kmax: int) -> tuple[np.ndarray, ...]:
    """The terms of `_tensor_components`, sorted by the row of alpha:
    (first, second, weight, starts), the rows of c_k[b10 + b11, g01 + g11]
    and of c_k[b01 + b11, g10 + g11] among the members' entries flattened in
    order (k, i, j), prod_q C(alpha_q, beta_q), and each alpha's first term."""
    terms, offset = [], 0
    for k in range(kmax + 1):
        for beta in _monomials(n - k):
            for gamma in _monomials(k):
                alpha = tuple(b + g for b, g in zip(beta, gamma))
                terms.append((_monomials(n)[alpha],
                              offset + (beta[2] + beta[3]) * (k + 1) + gamma[1] + gamma[3],
                              offset + (beta[1] + beta[3]) * (k + 1) + gamma[2] + gamma[3],
                              prod(comb(a, b) for a, b in zip(alpha, beta))))
        offset += (n - k + 1) * (k + 1)
    row, first, second, weight = np.array(sorted(terms)).T
    return first, second, weight.astype(float), np.searchsorted(row, np.arange(len(_monomials(n))))


def _tensor_components(x: np.ndarray, n: int, kmax: int,
                       buf: np.ndarray | None = None) -> np.ndarray:
    """The components L_alpha, (C(n+3, 3), samples), of T on the monomials of
    the dyad entries, from the members' entries x (entries, samples):
    sum_{k <= kmax} sum_{beta + gamma = alpha, |beta| = n - k} prod_q
    C(alpha_q, beta_q) c_k[b10 + b11, g01 + g11] conj(c_k[b01 + b11, g10 + g11]),
    per sample N p_AB^alpha with N the amplitude sum.  The result, a view, and
    the working arrays live in buf, of at least C(n+3, 3) + entries + 2 terms
    entries per sample, allocated when not given."""
    first, second, weight, starts = _gather_table(n, kmax)
    count = x.shape[1]
    if buf is None:
        buf = np.empty((len(starts) + len(x) + 2 * len(first)) * count, dtype=complex)
    out, xc, g, h = _views(buf, (len(starts), count), x.shape, *2 * [(len(first), count)])
    np.conj(x, out=xc)
    # mode="clip" lets take write to g and h unbuffered; every row is valid
    np.take(x, first, axis=0, out=g, mode="clip")
    np.take(xc, second, axis=0, out=h, mode="clip")
    np.multiply(g, h, out=g)
    np.multiply(g, weight[:, None], out=g)
    return np.add.reduceat(g, starts, axis=0, out=out)


def norm_integrand(psi: BWComponent, spec=None, frame: SpinFrame | None = None,
                   form: str = "t") -> np.ndarray:
    """The generalized norm integrand [t_1...t_n T] / [(t_1.p)...(t_n.p)].

    spec defaults to StandardTime().  form "p" (else "t") takes t_k = p on
    every slot, (p.p)^{-n} p...p T, whatever the spec; a massless field has
    p.p = 0 there and raises OrthogonalDirection.
    """
    if form not in ("t", "p"):
        raise ValueError(f"form must be 't' or 'p', got {form!r}")
    if form == "p":
        spec = FixedList((psi.p,))
    elif spec is None:
        spec = StandardTime()
    ts = resolve_directions(spec, psi.n, psi, frame)
    return contract_T(psi, ts) / np.prod(core.minkowski(ts, psi.p), axis=0)


def standard_bw_integrand(psi: BWComponent) -> np.ndarray:
    """Component-sum integrand of the standard norm, sum |psi|^2 / (p^0)^n
    over all 2^n labelled members: the diagonal pairing at the unit dyad.
    The standard time direction has the dyad I / sqrt2, so the StandardTime
    integrand is 2^{-n/2} times this one."""
    return _diagonal_pairing(psi, 1.0, 1.0) / psi.p[..., 0] ** psi.n


# ---------------------------------------------------------------------------
# massless fields

def synth_massless(pi: np.ndarray, f, n: int, sign: int = +1) -> BWComponent:
    """All-unprimed component pi_{A_1}...pi_{A_n} f at p = flagpole(pi)."""
    _check_spin(n)
    pi = np.asarray(pi, dtype=complex)
    p = core.flagpole(pi)
    pil = core.lower_spinor(pi)
    with np.errstate(over="ignore", invalid="ignore"):     # checked below
        coeffs = (np.moveaxis(power_row(spinor_powers(pil, n), n), 0, -1)
                  * np.asarray(f, dtype=complex)[..., None])
        scale = np.sum(np.abs(pi) ** 2, axis=-1) ** (n / 2)
    comp = SymMultiSpinor(n, 0, coeffs[..., None])
    _check_members((comp,), scale)
    return BWComponent(n=n, mass=0.0, sign=sign, p=p, comps=(comp,))


def eta_from_frame(frame: SpinFrame, n: int, sign: int = +1) -> SymMultiSpinor:
    """Hertz-type generator (+-i)^n omegabar^{A'_1}...omegabar^{A'_n}."""
    omb = np.conj(frame.omega)
    coeffs = np.moveaxis(power_row(spinor_powers(omb, n), n), 0, -1) * (1j * sign) ** n
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
    batch = np.broadcast_shapes(p.shape[:-1], xi.comp.shape[:-2])
    (moved,) = _moved(np.conj(core.vector_to_dyad(p, "low")), _conj_columns([xi], batch),
                      [(0, n)], batch)
    np.multiply(moved.comp, (-1j * sign) ** n, out=moved.comp)
    comp = SymMultiSpinor(n, 0, np.swapaxes(moved.comp, -1, -2))
    return BWComponent(n=n, mass=0.0, sign=sign, p=p, comps=(comp,))


def helicity_residual_massless(psi: BWComponent) -> np.ndarray:
    """Per sample, the largest over the world index of |sum_slots S^a psi +
    (n/2) p^a psi|, relative to the sample's component and momentum scale.

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
    scale = np.maximum(1.0, core.max_abs(c, 2) * core.max_abs(psi.p))
    return core.max_abs(res, 2) / scale


def wigner_state(psi: BWComponent, spec,
                 frame: SpinFrame | None = None) -> BWComponent:
    """psi / [t_1.p ... t_n.p]^{1/2}, every member divided by the same complex
    root, at any mass; multiplying the root back round-trips, and where the
    product is positive its pairing t_1...t_n T is the norm integrand."""
    ts = resolve_directions(spec, psi.n, psi, frame)
    root = np.sqrt(np.prod(core.minkowski(ts, psi.p), axis=0).astype(complex))
    return replace(psi, comps=tuple(c.scaled(1.0 / root) for c in psi.comps))


# ---------------------------------------------------------------------------
# Lorentz action

def transform_component(psi: BWComponent, a: np.ndarray) -> BWComponent:
    """Slotwise SL(2,C) action and momentum map p -> Lambda p."""
    a = np.asarray(a, dtype=complex)
    new_p = core.transform_vector(a, psi.p)      # checks det A = 1
    batch = np.broadcast_shapes(a.shape[:-2], psi.batch_shape)
    comps = _moved(core.sl2c_lower_rep(a), _conj_columns(psi.comps, batch),
                   [(c.r, c.s) for c in psi.comps], batch)
    return BWComponent(n=psi.n, mass=psi.mass, sign=psi.sign, p=new_p, comps=comps)

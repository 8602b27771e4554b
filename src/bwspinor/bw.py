"""Bargmann-Wigner momentum components of arbitrary spin n/2.

A massive component at one momentum is the family of 2^n symmetric
multispinors labelled by which slots carry primed indices; storage keeps the
n+1 distinct members (k primed indices, k = 0..n) and restores the label
multiplicity C(n,k) wherever the full family enters a sum.  A massless
component is a single all-unprimed symmetric multispinor.

Every BWComponent holds its members in the spin basis adapted to its
momentum: per sample, a, lam = `frames.axis_rotation(p)`, the SU(2) rotation
with a p^{AA'} a^dagger = diag(lam0, lam1), acts on every slot, so the two
basis directions are the null flagpoles of p.  In that basis the field
equations map member k to member k+1 by one shift and one scale, and a
massless member has one nonzero entry.  The component owns that basis,
`BWComponent.basis`, which its builder derives once.  Members move by one
slot action, `_move_members`: into and out of the basis (`from_standard`,
`to_standard`; field files and test oracles hold standard coordinates), to
the basis of Lambda p, and to the diagonal of a direction.  Slot generators
move by `slot_generator_sum`.

Synthesis expands a field over tensor products of the chi eigenbispinors:
the all-unprimed member is one product of binary forms in the two frame
spinors (`multispinor.form_product`), and the others are a gather of its
entries along the field equations (`synth_massive`).  Extraction
contracts with the frame partner omega, which annihilates every term but
the pure-pi one.  Both take the frame into the adapted basis
(`_adapted_frame`).  `synth` and `extract` serve both masses, with the
member layout of `valences`.  The quadratic tensor T pairs each member with
its conjugate, and the norm integrand [t...t T] / [t_1.p ... t_n.p] is
independent of the chosen directions t_k.

Every kernel works batch-last in graded (r+1)(s+1) coordinates, in blocks
of samples whose arrays fit _STATE_BYTES, and expands no member to its 2^n
dense entries.  Every move of the members and the Hertz route are one
slot action (`multispinor._slot_action`), each with its own matrix, whose
table Q_0..Q_n serves every member; they and synthesis return
(..., r+1, s+1) views of one batch-last buffer per component.  Every closed
form is one sum, `contract_rows`, of a member between two rows of one
table of spinor powers: the members `_along` omega (extraction) or tau (the
rank-one pairing), or their squared moduli, moved or not, along a diagonal
dyad.  The T contraction with a distinct direction per slot reads T
through its C(n+3, 3) components on the monomials of the four dyad
entries, gathered from the members by one fixed table.  The working arrays
of the slot action, of synthesis and of that route are views into one
reused per-thread buffer (`multispinor.workspace`).

The T contraction takes one of four routes, picked from the directions at
every sample.  A direction per slot takes the monomial route, with the
directions rotated into the basis of the members.  One vector on every
slot takes the form its dyad t^{AA'} allows there: a t with no spatial part
(the standard time direction) has a multiple of the unit dyad, which no
rotation moves, and weighs |c|^2 by powers of its two entries, as
`form="p"` does with diag(lam0, p.p / (2 lam0)); any other t is
diagonalized by b = a_t a_p^dagger, a_t that of `frames.axis_rotation(t)`:
a dyad of rank one to rounding (a null t, as the flagpole of omega),
lam_i tau taubar with tau a row of conj(b), pairs each member by `_along`
tau, as extraction does along omega: "formulas are simpler if one chooses
null directions"; any other pairs the members moved by b diagonally.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache, reduce
from math import comb, prod

import numpy as np

from . import core
from .errors import (FrameMismatch, NotFinite, NotMassive, NotNull,
                     OrthogonalDirection, ValenceMismatch, reject)
from .frames import SpinFrame, axis_rotation, frame_for
from .multispinor import (SymMultiSpinor, _blocks, _slot_action, _views, contract_rows,
                          form_product, matmul_last, power_row, slot_sum, spinor_powers,
                          workspace)
from .pauli_lubanski import pl_momentum_rep

# every kernel is polynomial in n; the cap stands for precision, not cost:
# in the adapted basis extraction, form="p" and the rank-one route keep their
# digits, up to the rounding of t.p for a t near a parallel null p, but
# members that arrive in standard coordinates (field files) lose digits as n
# grows, and no rule yet sets the limit
MAX_N = 10

# the kernels that hold per-sample working arrays take the samples in blocks
# whose arrays hold at most this many bytes, which also bounds the per-thread
# workspace they share: the symmetric powers and products of the slot action
# (426 samples at n = 10), the powers and terms of synthesis' product of
# forms (5698 samples at n = 10), the gathered terms of the distinct-direction
# route (359 samples at n = 4, 6 at n = 10).
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

    @cached_property
    def basis(self) -> tuple[np.ndarray, np.ndarray]:
        """(a, lam) = `frames.axis_rotation(p)`, a p^{AA'} a^dagger = diag(lam):
        the basis of the members, put in by the builder (`_with_basis`)."""
        return axis_rotation(self.p)


def _with_basis(psi: BWComponent, basis) -> BWComponent:
    psi.__dict__["basis"] = basis     # the cache of psi.basis, so no reader derives it
    return psi


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


def _adapted_frame(frame: SpinFrame, p: np.ndarray, basis, mass: float):
    """(lam0, m, omega', pi'): the frame's spinors in the basis adapted to
    p, a omega and a pi with a, lam = basis, `frames.axis_rotation(p)`, in
    which p^{AA'} is diag(lam0, lam1); a massless frame gives a omega alone
    (m = 0, pi' None), all that extraction reads.  A massive frame is
    renormalised against diag(lam0, m^2 / (2 lam0)), m the sample's own
    `core.invariant_mass(p)`:
    omega' = (m/sqrt2)^{1/2} w / (w_A w_A' p^{AA'})^{1/2} with w = a omega, and
    pi' = (sqrt2/m) p^{AA'} omegabar'_{A'}, so that omega'_A pi'^A = 1 and
    omega'.p = m/sqrt2 hold to the rounding of the entries, and the members
    solve the field equations of that diagonal dyad (`synth_massive`)."""
    a, lam = basis
    lam0 = lam[..., 0]
    omega = np.einsum("...ij,...j->...i", a, frame.omega)
    if mass <= 0:
        return lam0, 0.0, omega, None
    m = core.invariant_mass(p)
    lam1 = m * (m / (2.0 * lam0))
    w0, w1 = np.moveaxis(omega, -1, 0)
    root = np.sqrt(np.sqrt(0.5) * m / (lam0 * np.abs(w1) ** 2 + lam1 * np.abs(w0) ** 2))
    omega = omega * root[..., None]
    pi = (np.sqrt(2.0) / m)[..., None] * np.stack(
        [-lam0 * np.conj(omega[..., 1]), lam1 * np.conj(omega[..., 0])], axis=-1)
    return lam0, m, omega, pi


def synth_massive(frame: SpinFrame, amps: Amplitudes,
                  normalization=None) -> BWComponent:
    """Assemble the n+1 component multispinors from the amplitudes, in the
    basis adapted to the momentum (`_adapted_frame`).

    The chi tensor-product expansion puts, on the member with r = n - k
    unprimed and k primed slots, the amplitude f_{a+b} on every routing of a
    plus factors to unprimed and b to primed slots, with the factors
    Mu = [-pi_A; e omega_A] unprimed.  The all-unprimed member is
    psi_0 = Q_n(Mu^T) N^n f, with N = (m/sqrt2)^{1/2} by default: one
    product of binary forms, (psi_0)_j C(n, j) = [y^j] sum_a C(n, a) N^n f_a
    (-pi'_0 - pi'_1 y)^(n-a) (e omega'_0 + e omega'_1 y)^a, of the
    lower-index pi'_A and omega'_A (`multispinor.form_product`).  Where p^{AA'} = diag(lam0, lam1) the field equations map
    member k to member k+1 by one shift and one scale, psi_{k+1}[i, j] =
    alpha psi_k[i, j-1] and psi_{k+1}[i, 0] = -psi_k[i+1, 0] / alpha, with
    alpha = -e sqrt2 lam0 / m; so every member is a gather of psi_0,
    psi_k[i, j] = (-1)^(k-j) alpha^(2j-k) psi_0[i+k-j] (`_gather_members`).
    """
    if amps.mass <= 0:
        raise NotMassive("synth_massive needs m > 0")
    _check_shell(frame, amps.mass)
    _check_spin(amps.n)
    n, e = amps.n, amps.sign
    basis = axis_rotation(frame.p)
    lam0, m, omega, pi = _adapted_frame(frame, frame.p, basis, amps.mass)
    n_scale = (np.sqrt(np.sqrt(0.5) * m) if normalization is None
               else np.asarray(normalization, dtype=complex))
    mu_t = np.stack([-core.lower_spinor(pi), e * core.lower_spinor(omega)], axis=-1)
    with np.errstate(over="ignore", invalid="ignore"):     # checked below
        scale = np.asarray(n_scale ** n)
        c = np.asarray(amps.f, dtype=complex) * scale[..., None]
        batch = np.broadcast_shapes(mu_t.shape[:-2], c.shape[:-1])
        c = np.broadcast_to(c, batch + (n + 1,)).reshape(-1, n + 1).T
        members, out, comps = _member_buffer(valences(n, amps.mass), batch)
        mu_t = np.broadcast_to(mu_t, batch + (2, 2)).reshape(-1, 2, 2)
        form_product(mu_t, c, out[0][:, 0], _STATE_BYTES)
        alpha = -e * np.sqrt(2.0) * lam0 / m
        _gather_members(members, np.broadcast_to(alpha, batch).reshape(-1), n)
    _check_members(comps, scale)
    return _with_basis(BWComponent(n=n, mass=amps.mass, sign=e, p=frame.p, comps=comps), basis)


@lru_cache(maxsize=None)
def _shift_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """For every entry (k, i, j) of the members k = 1..n, flattened in that
    order: the row i+k-j of psi_0 it takes, and the row of (-1)^(k-j)
    alpha^(2j-k) in the signed table of `_gather_members`, (2j-k+n) + (2n+1)
    for a negative sign."""
    rows = [(i + k - j, 2 * j - k + n + (2 * n + 1) * ((k - j) % 2))
            for k in range(1, n + 1) for i in range(n - k + 1) for j in range(k + 1)]
    source, factor = np.array(rows).T
    return source, factor


def _gather_members(members: np.ndarray, alpha: np.ndarray, n: int) -> None:
    """Fill members 1..n of the flat batch-last buffer (entries, S) from its
    first n+1 rows, psi_0: psi_k[i, j] = (-1)^(k-j) alpha^(2j-k) psi_0[i+k-j],
    one take of the rows of psi_0 and, per block of samples, one of the rows
    of the signed powers alpha^(-n..n), built in this thread's workspace."""
    head, rest = members[:n + 1], members[n + 1:]
    source, factor = _shift_table(n)
    # mode="clip" lets take write to its output unbuffered; every row is valid
    np.take(head, source, axis=0, out=rest, mode="clip")
    size = 2 * (2 * n + 1) + len(factor)
    parts = _blocks(alpha.size, size, _STATE_BYTES)
    with workspace(size * (parts[0].stop if parts else 0)) as work:
        for part in parts:
            count = part.stop - part.start
            table, terms = _views(work, (2, 2 * n + 1, count), (len(factor), count))
            table[0, n] = 1.0
            for q in range(1, n + 1):
                np.multiply(table[0, n + q - 1], alpha[part], out=table[0, n + q])
                np.divide(table[0, n - q + 1], alpha[part], out=table[0, n - q])
            np.negative(table[0], out=table[1])
            np.take(table.reshape(2 * (2 * n + 1), count), factor, axis=0, out=terms, mode="clip")
            np.multiply(rest[:, part], terms, out=rest[:, part])


def _check_members(comps: tuple[SymMultiSpinor, ...], scale) -> None:
    """Reject a sample whose members (they grow like (p^0)^(n/2)) overflow, or whose
    unit-amplitude scale, N^n or |pi|^n, which extraction divides out, is not normal."""
    ok = np.logical_and.reduce([np.all(np.isfinite(c.comp), axis=(-2, -1)) for c in comps])
    reject(~(ok & (np.abs(scale) >= np.finfo(float).tiny)), NotFinite,
           "synthesized members must be finite, with a normal scale")


def _member_buffer(valences: list[tuple[int, int]], batch: tuple):
    """One flat batch-last buffer for members of the valences: the buffer as
    (entries, S), its (r+1, s+1, S) views, and the members, (..., r+1, s+1)
    views of the same memory."""
    count = prod(batch)
    shapes = [(r + 1, s + 1, count) for r, s in valences]
    buf = np.empty(sum(map(prod, shapes)), dtype=complex)
    out = _views(buf, *shapes)
    comps = tuple(SymMultiSpinor(r, s, np.moveaxis(o.reshape(o.shape[:2] + batch),
                                                   (0, 1), (-2, -1)))
                  for (r, s), o in zip(valences, out))
    return buf.reshape(sum((r + 1) * (s + 1) for r, s in valences), count), out, comps


def _moved(a: np.ndarray, conj_columns, valences: list[tuple[int, int]],
           batch: tuple) -> tuple[SymMultiSpinor, ...]:
    """Members of valences (r, s) moved by a on every slot, views of one buffer."""
    a = np.broadcast_to(a, batch + (2, 2)).reshape(-1, 2, 2)
    _, out, comps = _member_buffer(valences, batch)
    for part, i, x in _slot_action(a, conj_columns, sum(valences[0]), _STATE_BYTES):
        out[i][..., part] = x
    return comps


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
    """Wigner amplitudes at any mass, `_along` omega' of `_adapted_frame`:
    N^n f_k = omega'^{A..} omegabar'^{A'..} psi_k massive, with N =
    (m/sqrt2)^{1/2}, and f = omega'^{A..} psi_{A..} massless."""
    _check_frame(psi, frame)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):    # checked below
        _, m, omega, _ = _adapted_frame(frame, psi.p, psi.basis, psi.mass)
        f = _along(psi, omega)
        if psi.mass > 0:
            f = f / np.asarray(np.sqrt(np.sqrt(0.5) * m) ** psi.n)[..., None]
    reject(~np.all(np.isfinite(f), axis=-1), NotFinite, "extracted amplitudes must be finite")
    return Amplitudes(n=psi.n, mass=psi.mass, sign=psi.sign, f=f)


# a second name of the same function: perfbench traces extraction under it
extract_massive = extract


def field_equation_residual_massive(psi: BWComponent) -> np.ndarray:
    """Per sample, the largest residual of both momentum-space equation
    families over all slots, relative to the sample's component and
    momentum scale: the general dyad form, on the dyads of p rotated into
    the basis of the members, so it certifies the gather of `synth_massive`
    without restating it.  Per value z of the free index, each family is a
    sum of slices of two neighbouring members, batch-last."""
    if psi.mass <= 0:
        raise NotMassive("massive field equations need m > 0")
    h = psi.mass / np.sqrt(2.0)
    # the momentum in the basis of the members, a p^{AA'} a^dagger, as it
    # rounds; its dyads p^A_{A'} and p_A^{A'}, times e sqrt2 / m
    p = _rotated(psi.p, psi.basis[0])
    pul, plu = (np.moveaxis(core.vector_to_dyad(p, kind), (-2, -1), (0, 1)) * (psi.sign / h)
                for kind in ("ul", "lu"))
    cs = [np.moveaxis(c.comp, (-2, -1), (0, 1)) for c in psi.comps]
    worst = 0.0
    for lo, hi in zip(cs, cs[1:]):
        r, s = len(hi), len(lo[0])
        for z in range(2):
            # e p^A_{A'} psi^{..0..}_{..A..} = -(m/sqrt2) psi^{..1..}_{..A'..}, A' = z
            res = pul[0, z] * lo[:-1] + pul[1, z] * lo[1:] + hi[:, z:z + s]
            worst = np.maximum(worst, np.max(np.abs(res), axis=(0, 1)))   # a NaN propagates
            # e p_A^{A'} psi^{..1..}_{..A'..} = +(m/sqrt2) psi^{..0..}_{..A..}, A = z
            res = plu[z, 0] * hi[:, :-1] + plu[z, 1] * hi[:, 1:] - lo[z:z + r]
            worst = np.maximum(worst, np.max(np.abs(res), axis=(0, 1)))
    scale = np.maximum(1.0, np.maximum.reduce([core.max_abs(c.comp, 2) for c in psi.comps])
                       * core.max_abs(psi.p, floor=psi.mass))
    return h * worst / scale


# ---------------------------------------------------------------------------
# the quadratic tensor and norm integrands

def _equal_pairing(psi: BWComponent, t: np.ndarray) -> np.ndarray:
    """t...t T with the same vector t (..., 4) on every slot, by the route
    its dyad t^{AA'} allows in the basis of the members, checked at every
    sample:
    - spatial part 0 (the standard time direction): the dyad (t^0/sqrt2) 1,
      which every rotation leaves as it is, so `_diagonal_pairing`, a
      weighted sum of |c|^2, with no rotation (a rotated dyad would round
      its off-diagonal);
    - otherwise a, lam = `frames.axis_rotation(t)` diagonalizes the dyad in
      standard coordinates, so b = a a_p^dagger, with a_p that of p,
      diagonalizes it in the basis of the members:
      - rank one to rounding, the smaller |lam| at most 8 eps times the
        larger |lam_i| (a null t): lam_i^n `_rank_one_pairing` with tau =
        conj(b_i), t^{AA'} = lam_i tau^A taubar^{A'} there; a past t has
        i = 1 and lam_1 < 0; the dropped direction moves the value by about
        8 n eps relative;
      - any other: the diagonal pairing through diag(lam) of the members
        moved by b (`_move_members`); for a causal future-pointing t every
        weight is positive, so nothing cancels outside the squares.
    """
    if np.all(t[..., 1:] == 0):
        dyad = core.vector_to_dyad(t, "up")
        return _diagonal_pairing(psi, np.real(dyad[..., 0, 0]), np.real(dyad[..., 1, 1]))
    a, lam = axis_rotation(t)
    a = _product(a, _dagger(psi.basis[0]))
    moduli = np.abs(lam)
    if np.all(moduli.min(axis=-1) <= 8 * np.finfo(float).eps * moduli.max(axis=-1)):
        i = np.argmax(moduli, axis=-1)[..., None]
        tau = np.take_along_axis(np.conj(a), i[..., None], axis=-2)[..., 0, :]
        return np.take_along_axis(lam, i, -1)[..., 0] ** psi.n * _rank_one_pairing(psi, tau)
    moved = replace(psi, comps=_move_members(psi.comps, a))
    return _diagonal_pairing(moved, lam[..., 0], lam[..., 1])


def _rotated(t: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The vectors t (..., 4) in the basis where a acts on the spinors: the
    vector of a t^{AA'} a^dagger."""
    dyad = _product(_product(a, core.vector_to_dyad(t, "up")), _dagger(a))
    return np.real(core.dyad_to_vector(dyad, "up"))


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

    Both run in the basis of the members, where p_AB is diagonal, so that
    no term cancels for causal directions: the directions are rotated into
    it.  In the standard basis, random null directions up to n = 10 lost
    up to 4e-11 (massive) and 2e-9 (massless) relative.  The samples go in
    blocks whose working arrays fit _STATE_BYTES, in this thread's
    workspace."""
    n, kmax = psi.n, len(psi.comps) - 1
    tdy = core.vector_to_dyad(ts, "up")
    batch = np.broadcast_shapes(tdy.shape[1:-2], psi.batch_shape)
    a, _ = psi.basis
    x = np.concatenate([_samples_last(c.comp, (), batch).reshape((c.r + 1) * (c.s + 1), -1)
                        for c in psi.comps])
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
    every slot, (p.p)^{-n} p...p T, whatever the spec: in the basis of the
    members p^{AA'} is diag(lam0, p.p / (2 lam0)), so it is the diagonal
    pairing.  A massless field has p.p = 0 there and raises
    OrthogonalDirection.
    """
    if form not in ("t", "p"):
        raise ValueError(f"form must be 't' or 'p', got {form!r}")
    if form == "p":
        resolve_directions(FixedList((psi.p,)), psi.n, psi)     # checks p.p
        pp, lam0 = core.minkowski(psi.p, psi.p), psi.basis[1][..., 0]
        return _diagonal_pairing(psi, lam0, pp / (2.0 * lam0)) / pp ** psi.n
    ts = resolve_directions(StandardTime() if spec is None else spec, psi.n, psi, frame)
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
    """All-unprimed component pi_{A_1}...pi_{A_n} f at p = flagpole(pi), in
    the basis adapted to p: there a pi is (pi'_0, 0), so the member has one
    nonzero entry, pi'_0^n f with all n indices 1."""
    _check_spin(n)
    pi = np.asarray(pi, dtype=complex)
    p = core.flagpole(pi)
    a, _ = basis = axis_rotation(p)
    with np.errstate(over="ignore", invalid="ignore"):     # checked below
        entry = (np.einsum("...j,...j->...", a[..., 0, :], pi) ** n
                 * np.asarray(f, dtype=complex))
        scale = np.sum(np.abs(pi) ** 2, axis=-1) ** (n / 2)
    coeffs = np.zeros(entry.shape + (n + 1, 1), dtype=complex)
    coeffs[..., n, 0] = entry
    comp = SymMultiSpinor(n, 0, coeffs)
    _check_members((comp,), scale)
    return _with_basis(BWComponent(n=n, mass=0.0, sign=sign, p=p, comps=(comp,)), basis)


def eta_from_frame(frame: SpinFrame, n: int, sign: int = +1) -> SymMultiSpinor:
    """Hertz-type generator (+-i)^n omegabar^{A'_1}...omegabar^{A'_n}."""
    omb = np.conj(frame.omega)
    coeffs = np.moveaxis(power_row(spinor_powers(omb, n), n), 0, -1) * (1j * sign) ** n
    return SymMultiSpinor(0, n, coeffs[..., None, :])


def hertz_psi(xi: SymMultiSpinor, p: np.ndarray, sign: int = +1) -> BWComponent:
    """Massless component (-+i)^n p_{A_1 A'_1}...p_{A_n A'_n} xi^{A'_1...A'_n}.

    xi carries upper primed indices, in standard coordinates; each momentum
    dyad converts one into a lower unprimed index of the basis adapted to p.
    With a, lam = `frames.axis_rotation(p)` that dyad is diag(0, lam0), so
    each slot takes diag(0, lam0) conj(a): the member has one nonzero entry.
    """
    p = np.asarray(p, dtype=float)
    reject(~core.null_shell(p), NotNull, "hertz_psi needs a finite null momentum")
    if xi.r != 0:
        raise ValenceMismatch("hertz generator must be all-primed")
    n = xi.s
    _check_spin(n)
    batch = np.broadcast_shapes(p.shape[:-1], xi.comp.shape[:-2])
    a, lam = basis = axis_rotation(p)
    slot = np.zeros(a.shape, dtype=complex)     # conjugated, as _moved takes a primed slot
    slot[..., 1, :] = lam[..., :1] * a[..., 1, :]
    (moved,) = _moved(slot, _conj_columns([xi], batch), [(0, n)], batch)
    np.multiply(moved.comp, (-1j * sign) ** n, out=moved.comp)
    comp = SymMultiSpinor(n, 0, np.swapaxes(moved.comp, -1, -2))
    return _with_basis(BWComponent(n=n, mass=0.0, sign=sign, p=p, comps=(comp,)), basis)


def helicity_residual_massless(psi: BWComponent) -> np.ndarray:
    """Per sample, the largest over the world index a of |sum_slots S^a psi +
    (n/2) p^a psi|, relative to the sample's component and momentum scale,
    with the four generators S^a(p) summed as one stack by `slot_generator_sum`."""
    if psi.mass != 0.0:
        raise NotNull("helicity relation applies to massless components")
    s_op = pl_momentum_rep(psi.p)
    (moved,) = slot_generator_sum(psi, s_op.unprimed, s_op.primed)    # (..., 4, n+1, 1)
    c = psi.comps[0].comp[..., None, :, :]                            # (..., 1, n+1, 1)
    res = moved + 0.5 * psi.n * psi.p[..., None, None] * c
    return core.max_abs(res, 3) / np.maximum(1.0, core.max_abs(c, 3) * core.max_abs(psi.p))


def slot_generator_sum(psi: BWComponent, unprimed: np.ndarray, primed: np.ndarray) -> tuple:
    """Per member, `multispinor.slot_sum` of the 2x2 lower-index generators
    unprimed and primed (..., 2, 2), given in standard coordinates, over its
    unprimed and primed slots, each first moved into the basis of the
    members: L S L^-1, L the lower-index map of psi.basis, conj(L) primed.
    A stack (..., W, 2, 2) after the batch gives (..., W, r+1, s+1)."""
    a = psi.basis[0]
    lead = (1,) * (np.ndim(unprimed) - a.ndim)          # the stack axes W
    low, back = (core.sl2c_lower_rep(x).reshape(x.shape[:-2] + lead + (2, 2))
                 for x in (a, _dagger(a)))              # L, L^-1
    groups = [(_product(_product(low, unprimed), back), -2)]
    if psi.mass > 0:                                    # a massless field has no primed slots
        groups.append((_product(_product(np.conj(low), primed), np.conj(back)), -1))
    comps = (c.comp.reshape(c.comp.shape[:-2] + lead + c.comp.shape[-2:]) for c in psi.comps)
    return tuple(reduce(np.add, (slot_sum(x, m, axis) for m, axis in groups if x.shape[axis] > 1))
                 for x in comps)


def wigner_state(psi: BWComponent, spec,
                 frame: SpinFrame | None = None) -> BWComponent:
    """psi / [t_1.p ... t_n.p]^{1/2}, every member divided by the same complex
    root, at any mass; multiplying the root back round-trips, and where the
    product is positive its pairing t_1...t_n T is the norm integrand."""
    ts = resolve_directions(spec, psi.n, psi, frame)
    root = np.sqrt(np.prod(core.minkowski(ts, psi.p), axis=0).astype(complex))
    comps = tuple(c.scaled(1.0 / root) for c in psi.comps)
    return _with_basis(replace(psi, comps=comps), psi.basis)


# ---------------------------------------------------------------------------
# Lorentz action

def transform_component(psi: BWComponent, a: np.ndarray) -> BWComponent:
    """Slotwise SL(2,C) action and momentum map p -> Lambda p: from the basis
    adapted to p to the one adapted to Lambda p, the members move by
    a(Lambda p) A a(p)^dagger, with a(.) of `frames.axis_rotation`."""
    a = np.asarray(a, dtype=complex)
    new_p = core.transform_vector(a, psi.p)      # checks det A = 1
    basis = axis_rotation(new_p)
    b = _product(_product(basis[0], a), _dagger(psi.basis[0]))
    return _with_basis(replace(psi, p=new_p, comps=_move_members(psi.comps, b)), basis)


def from_standard(n: int, mass: float, sign: int, p: np.ndarray, comps: tuple) -> BWComponent:
    """The component of members given in standard coordinates at the momenta
    p, moved into the basis adapted to p by a = `frames.axis_rotation(p)`."""
    basis = axis_rotation(np.asarray(p, dtype=float))
    return _with_basis(BWComponent(n, mass, sign, p, _move_members(comps, basis[0])), basis)


def to_standard(psi: BWComponent) -> tuple[SymMultiSpinor, ...]:
    """The members of psi in standard coordinates, moved back by a^dagger."""
    return _move_members(psi.comps, _dagger(psi.basis[0]))


def _dagger(a: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(a, -1, -2))


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b of batches of 2x2 matrices, formed batch-last by `matmul_last`:
    a batched @ on matrices this small ran about 3 times slower."""
    a, b = (np.ascontiguousarray(np.moveaxis(x, (-2, -1), (0, 1)))
            for x in np.broadcast_arrays(a, b))
    out = np.empty(a.shape, dtype=np.result_type(a, b))
    return np.moveaxis(matmul_last(np.swapaxes(a, 0, 1), b, out, np.empty_like(out)),
                       (0, 1), (-2, -1))


def _move_members(comps: tuple[SymMultiSpinor, ...], a: np.ndarray) -> tuple[SymMultiSpinor, ...]:
    """The members moved by a (..., 2, 2) on every slot: sl2c_lower_rep(a) on
    the unprimed and its conjugate on the primed ones."""
    batch = np.broadcast_shapes(a.shape[:-2], comps[0].comp.shape[:-2])
    return _moved(core.sl2c_lower_rep(a), _conj_columns(comps, batch),
                  [(c.r, c.s) for c in comps], batch)

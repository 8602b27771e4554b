"""Momentum representation of the Pauli-Lubanski vector and its projectors.

The operator splits into a 2x2 block acting on lower unprimed spinor indices
and a conjugate block acting on lower primed indices.  Projecting on a world
direction t gives a matrix with eigenvalues +-(1/2) sqrt((t.p)^2 - p.p t.t);
spin projectors, energy projectors, their commuting products and the chi
eigenbasis are assembled from a null spin-frame.

Bispinors are stored as 4-component arrays ordered (psi_A, xi_{A'}) with both
blocks carrying lower indices; 4x4 matrices act on that layout, which
`bispinor_matrix` writes from its four 2x2 blocks, the one place it is written.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .errors import (ComplexEigenvalues, DegenerateSpinDirection,
                     NotMassive, reject)
from .frames import SpinFrame


def bispinor_matrix(uu, up, pu, pp) -> np.ndarray:
    """The 4x4 matrix [[uu, up], [pu, pp]] on (psi_A, xi_{A'}) from 2x2 blocks
    (..., 2, 2) that broadcast against each other; 0 is an empty block."""
    blocks = (uu, up, pu, pp)
    batch = np.broadcast_shapes(*(np.shape(b)[:-2] for b in blocks))
    out = np.empty(batch + (2, 2, 2, 2), dtype=complex)   # (row block, A, column block, B)
    for i, b in enumerate(blocks):
        out[..., i // 2, :, i % 2, :] = b
    return out.reshape(batch + (4, 4))


@dataclass(frozen=True)
class PLOperator:
    """Four 2x2 matrices per chirality block: S^a_X^Y and S^a_{X'}^{Y'}."""

    unprimed: np.ndarray   # (..., 4, 2, 2)
    primed: np.ndarray     # (..., 4, 2, 2)

    def bispinor(self) -> np.ndarray:
        """Block-diagonal 4x4 form, shape (..., 4 world, 4, 4)."""
        return bispinor_matrix(self.unprimed, 0, 0, self.primed)


def _pl_rep_blocks(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """S^a(p) from the dyads of p; evaluated once, on the basis, for _PL_REP."""
    pl = core.vector_to_dyad(p, "low")
    pu = core.vector_to_dyad(p, "up")
    unprimed = -0.5 * (np.einsum('...XE,aYE->...aXY', pl, core.G_UP_W)
                       - np.einsum('aXE,...YE->...aXY', core.G_LOW_W, pu))
    primed = 0.5 * (np.einsum('...EX,aEY->...aXY', pl, core.G_UP_W)
                    - np.einsum('aEX,...EY->...aXY', core.G_LOW_W, pu))
    return unprimed, primed


def _pl_project_blocks(t: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """t_a S^a(p) from the closed dyad forms; evaluated once, on the basis, for _PL_PROJECT."""
    tul = core.vector_to_dyad(t, "ul")
    tlu = core.vector_to_dyad(t, "lu")
    tlow = core.vector_to_dyad(t, "low")
    plu = core.vector_to_dyad(p, "lu")
    pul = core.vector_to_dyad(p, "ul")
    pup = core.vector_to_dyad(p, "up")
    unprimed = 0.5 * (np.einsum('...YE,...XE->...XY', tul, plu)
                      + np.einsum('...XE,...YE->...XY', tlow, pup))
    primed = -0.5 * (np.einsum('...EY,...EX->...XY', tlu, pul)
                     + np.einsum('...EX,...EY->...XY', tlow, pup))
    return unprimed, primed


# S^a(p) is linear in p and t_a S^a(p) bilinear in (t, p), so each is one
# matmul against its formula evaluated on the basis vectors: rows p^b (or
# t^c p^d), columns the flattened unprimed block followed by the primed one.
_EYE4 = np.eye(4)
_PL_REP = np.concatenate([b.reshape(4, 16) for b in _pl_rep_blocks(_EYE4)], axis=1)
_PL_PROJECT = np.concatenate(
    [b.reshape(16, 4) for b in _pl_project_blocks(_EYE4[:, None, :], _EYE4[None, :, :])],
    axis=1)


def pl_momentum_rep(p: np.ndarray) -> PLOperator:
    """S^a(p) for both chirality blocks."""
    p = np.asarray(p, dtype=float)
    blocks = (p @ _PL_REP).reshape(p.shape[:-1] + (2, 4, 2, 2))
    return PLOperator(unprimed=blocks[..., 0, :, :, :], primed=blocks[..., 1, :, :, :])


def pl_project(t: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """S(t,p) = t_a S^a(p) for both blocks; t and p broadcast against each other."""
    t = np.asarray(t, dtype=float)
    p = np.asarray(p, dtype=float)
    tp = t[..., :, None] * p[..., None, :]
    blocks = (tp.reshape(tp.shape[:-2] + (16,)) @ _PL_PROJECT).reshape(
        tp.shape[:-2] + (2, 2, 2))
    return blocks[..., 0, :, :], blocks[..., 1, :, :]


def pl_eigenvalues(t: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Matrix eigenvalues +-(1/2) sqrt((t.p)^2 - p.p t.t) of the projected blocks.

    t and p are first scaled by powers of two (`core._unit_scaled`, exact),
    so that no finite input overflows the test; disc and its threshold
    1e-10 max((t.p)^2, 1) then carry the same factor 4^-e, and the verdict is
    the one of the unscaled formula wherever that stays in range.
    """
    finite_t, t, _, e_t = core._unit_scaled(t)
    finite_p, p, _, e_p = core._unit_scaled(p)
    e = e_t + e_p
    tp = core.minkowski(t, p)
    disc = tp ** 2 - core.mass_squared(p) * core.mass_squared(t)
    # 1 at the scale of disc, clipped to what a double holds: past either end
    # the threshold is 0, or far beyond any disc of unit-scale vectors
    one = np.ldexp(1.0, np.clip(-2 * e, -1074, 1023))
    reject(~(finite_t & finite_p & (disc >= -1e-10 * np.maximum(tp ** 2, one))),
           ComplexEigenvalues,
           "(t.p)^2 - m^2 t.t must be finite and >= 0 (t outside the forbidden cone)")
    half = np.ldexp(0.5 * np.sqrt(np.maximum(disc, 0.0)), e)
    return half, -half


def pl_spin_projectors(t: np.ndarray,
                       p: np.ndarray) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Projectors on the +-lambda/2 eigenspaces; keys +1/-1, values (unprimed, primed)."""
    half, _ = pl_eigenvalues(t, p)
    su, sp = pl_project(t, p)
    scale = np.maximum(np.abs(core.minkowski(t, p)), 1.0)
    reject(~(np.abs(half) >= 1e-10 * scale), DegenerateSpinDirection,
           "projected spin eigenvalue vanishes")
    eye = np.broadcast_to(np.eye(2), su.shape)
    inv = 1.0 / half[..., None, None]
    return {s: (0.5 * (eye + s * inv * su), 0.5 * (eye + s * inv * sp))
            for s in (+1, -1)}


def energy_projectors(p: np.ndarray) -> dict[int, np.ndarray]:
    """P(+p), P(-p) as 4x4 bispinor matrices; massive momenta only."""
    p = np.asarray(p, dtype=float)
    reject(~core.timelike(p), NotMassive,
           "energy projectors need a finite p with p.p > 0")
    m = core.invariant_mass(p)[..., None, None]
    plu = core.vector_to_dyad(p, "lu")
    pul = core.vector_to_dyad(p, "ul")
    return {e: 0.5 * bispinor_matrix(np.eye(2), e * np.sqrt(2.0) / m * plu,
                                     -e * np.sqrt(2.0) / m * np.swapaxes(pul, -1, -2),
                                     np.eye(2))
            for e in (+1, -1)}


def combined_projectors(t: np.ndarray, p: np.ndarray) -> dict[tuple[int, int], np.ndarray]:
    """The four commuting spin/energy projectors, keyed by (spin, energy)."""
    spin = pl_spin_projectors(t, p)
    energy = energy_projectors(p)
    return {(s, e): bispinor_matrix(su, 0, 0, sp) @ pe
            for s, (su, sp) in spin.items() for e, pe in energy.items()}


def explicit_frame_projectors(frame: SpinFrame) -> dict[tuple[int, int], np.ndarray]:
    """The null-frame form of the combined projectors for t = omega_vec.

    Written directly from the frame spinors; used as an independent check of
    combined_projectors.
    """
    oml = core.lower_spinor(frame.omega)
    pil = core.lower_spinor(frame.pi)
    om, pi = frame.omega, frame.pi
    eye = np.eye(2)

    def outer(x, y):
        return x[..., :, None] * y[..., None, :]

    out = {}
    for s in (+1, -1):
        for e in (+1, -1):
            if s == +1:
                mat = bispinor_matrix(eye + outer(pil, om) + outer(oml, pi),
                                      2 * e * outer(oml, np.conj(om)),
                                      -2 * e * outer(np.conj(pil), pi),
                                      eye - outer(np.conj(pil), np.conj(om))
                                      - outer(np.conj(oml), np.conj(pi)))
            else:
                mat = bispinor_matrix(eye - outer(pil, om) - outer(oml, pi),
                                      2 * e * outer(pil, np.conj(pi)),
                                      -2 * e * outer(np.conj(oml), om),
                                      eye + outer(np.conj(pil), np.conj(om))
                                      + outer(np.conj(oml), np.conj(pi)))
            out[(s, e)] = 0.25 * mat
    return out


def default_normalization(frame: SpinFrame) -> np.ndarray:
    """N = [omega.p]^{1/2} = [m/sqrt2]^{1/2}."""
    return np.sqrt(core.minkowski(frame.omega_vec, frame.p).astype(complex))


def chi_basis(frame: SpinFrame) -> dict[tuple[int, int], np.ndarray]:
    """The four bispinor eigenvectors chi^{(spin)}_{energy} of the omega-direction projectors."""
    n = default_normalization(frame)[..., None]
    oml = core.lower_spinor(frame.omega)
    pil = core.lower_spinor(frame.pi)
    out = {}
    for e in (+1, -1):
        out[(+1, e)] = n * np.concatenate([e * oml, -np.conj(pil)], axis=-1)
        out[(-1, e)] = n * np.concatenate([-pil, -e * np.conj(oml)], axis=-1)
    return out


def pl_eigen_relations_residual(frame: SpinFrame) -> np.ndarray:
    """Per sample, the largest relative residual of the four spin-frame
    eigenrelations of S(omega_vec, p).

    With t.p = omega.p, the relations are S omega = +(t.p/2) omega and
    S pi = -(t.p/2) pi on the unprimed block, with flipped signs on the primed
    block; the massless frame obeys the same pattern with t.p = 1.  Each
    relation S v = c v is divided by the sample's (|S| + |t.p|/2) |v|, |.| the
    largest entry, which bounds either side.
    """
    su, sp = pl_project(frame.omega_vec, frame.p)
    tp = core.minkowski(frame.omega_vec, frame.p)
    oml = core.lower_spinor(frame.omega)
    pil = core.lower_spinor(frame.pi)
    worst = 0.0
    for s, v, c in ((su, oml, 0.5), (su, pil, -0.5),
                    (sp, np.conj(oml), -0.5), (sp, np.conj(pil), 0.5)):
        res = (s @ v[..., None])[..., 0] - c * tp[..., None] * v
        scale = (core.max_abs(s, 2) + 0.5 * np.abs(tp)) * core.max_abs(v)
        worst = np.maximum(worst, core.max_abs(res) / np.maximum(scale, np.finfo(float).tiny))
    return worst

"""Null spin-frames (omega, pi) attached to a momentum.

A massive momentum decomposes as p = (m/sqrt2)(omega_vec + pi_vec) into two
null future-pointing flagpoles with omega_A pi^A = 1 and omega.p = m/sqrt2.
A massless momentum is the flagpole of a single spinor pi, with the partner
omega fixed by pi_A omega^A = 1.

The two regimes deliberately use the opposite contraction normalization
(omega_A pi^A = +1 massive, pi_A omega^A = +1 massless); every downstream
formula is used in the normalization of its own regime, and
SpinFrame.contractions() reports both numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .errors import (DegenerateReference, NotFuturePointing, NotNull,
                     NotTimelike, ZeroSpinor, reject)


@dataclass(frozen=True)
class SpinFrame:
    """A momentum p with its attached spin-frame spinors (upper components)."""

    pi: np.ndarray          # (..., 2)
    omega: np.ndarray       # (..., 2)
    p: np.ndarray           # (..., 4)
    mass: float             # the largest sqrt(p.p) of the batch
    pi_vec: np.ndarray      # flagpole of pi, (..., 4)
    omega_vec: np.ndarray   # flagpole of omega, (..., 4)

    def contractions(self) -> tuple[np.ndarray, np.ndarray]:
        """(omega_A pi^A, pi_A omega^A); they differ by sign."""
        c1 = core.spinor_contract(core.lower_spinor(self.omega), self.pi)
        c2 = core.spinor_contract(core.lower_spinor(self.pi), self.omega)
        return c1, c2


def flag_decompose_massless(p: np.ndarray) -> np.ndarray:
    """Spinor pi with pi^A pibar^{A'} = p^{AA'} for null future-pointing p.

    The free overall phase is fixed by making the largest-modulus component
    real and positive.
    """
    p = np.asarray(p, dtype=float)
    reject(np.all(np.isfinite(p), axis=-1) & ~(p[..., 0] > 0), NotFuturePointing,
           "p^0 must be positive")
    reject(~core.null_shell(p), NotNull, "p must be finite and null")
    d = core.vector_to_dyad(p, "up")
    diag = np.stack([np.real(d[..., 0, 0]), np.real(d[..., 1, 1])], axis=-1)
    j = np.argmax(diag, axis=-1)
    col = np.take_along_axis(d, j[..., None, None], axis=-1)[..., 0]
    piv = np.take_along_axis(diag, j[..., None], axis=-1)[..., 0]
    pi = col / np.sqrt(piv)[..., None]
    k = np.argmax(np.abs(pi), axis=-1)
    lead = np.take_along_axis(pi, k[..., None], axis=-1)[..., 0]
    return pi * np.exp(-1j * np.angle(lead))[..., None]


def partner_massless(pi: np.ndarray) -> np.ndarray:
    """Spinor omega with pi_A omega^A = 1, orthogonal to pi in the Euclidean sense."""
    pi = np.asarray(pi, dtype=complex)
    norm2 = np.sum(np.abs(pi) ** 2, axis=-1)
    reject(~(np.isfinite(norm2) & (norm2 >= 1e-24)), ZeroSpinor,
           "flag spinor must be finite and nonzero")
    return np.stack([-np.conj(pi[..., 1]), np.conj(pi[..., 0])], axis=-1) / norm2[..., None]


def frame_massless(p: np.ndarray) -> SpinFrame:
    """Spin-frame for a null momentum: pi from the flag, omega the partner."""
    pi = flag_decompose_massless(p)
    omega = partner_massless(pi)
    return SpinFrame(pi=pi, omega=omega, p=np.asarray(p, dtype=float), mass=0.0,
                     pi_vec=core.flagpole(pi), omega_vec=core.flagpole(omega))


def frame_for(p: np.ndarray, mass: float, nu=None) -> SpinFrame:
    """The spin-frame of the regime of mass: massive from the reference
    spinor nu (default (1, 0)), massless from the flag of p."""
    if mass > 0:
        return frame_massive(p, (1.0, 0.0) if nu is None else nu)
    return frame_massless(p)


def frame_massive(p: np.ndarray, nu: np.ndarray) -> SpinFrame:
    """Spin-frame of a timelike future-pointing momentum from a reference spinor.

    omega^A = [m/sqrt2]^{1/2} nu^A / sqrt(p^{BB'} nu_B nubar_{B'}) and
    pi^A = [sqrt2/m]^{1/2} p^{AA'} nubar_{A'} / sqrt(p^{BB'} nu_B nubar_{B'});
    the normalization denominator is positive for any nu != 0 when p is
    timelike, but is guarded anyway.
    """
    p = np.asarray(p, dtype=float)
    nu = np.asarray(nu, dtype=complex)
    reject(~(core.timelike(p) & (p[..., 0] > 0)), NotTimelike,
           "p must be finite, timelike and future-pointing")
    reject(~np.all(np.isfinite(nu), axis=-1), DegenerateReference,
           "reference spinor nu must be finite")
    m = core.invariant_mass(p)
    d = core.vector_to_dyad(p, "up")
    nul = core.lower_spinor(nu)
    denom = np.real(np.einsum('...AB,...A,...B->...', d, nul, np.conj(nul)))
    reject(~(denom >= 1e-10 * m), DegenerateReference, "flag of nu degenerate with p")
    root = np.sqrt(denom)[..., None]
    omega = np.sqrt(m / np.sqrt(2.0))[..., None] * nu / root
    pi = (np.sqrt(np.sqrt(2.0) / m)[..., None]
          * np.einsum('...AB,...B->...A', d, np.conj(nul)) / root)
    return SpinFrame(pi=pi, omega=omega, p=p, mass=float(np.max(m)),
                     pi_vec=core.flagpole(pi), omega_vec=core.flagpole(omega))


def frame_residuals(frame: SpinFrame) -> dict[str, float]:
    """All frame invariants as named max residuals."""
    out: dict[str, float] = {}
    c_om_pi, c_pi_om = frame.contractions()
    if frame.mass > 0:
        m = frame.mass
        out["omega_pi_contraction"] = float(np.max(np.abs(c_om_pi - 1.0)))
        out["omega_dot_p"] = float(np.max(np.abs(
            core.minkowski(frame.omega_vec, frame.p) - m / np.sqrt(2.0)))) / max(m, 1e-300)
        recon = (m / np.sqrt(2.0)) * (frame.omega_vec + frame.pi_vec)
        scale = np.maximum(1.0, np.max(np.abs(frame.p), axis=-1))
        out["momentum_decomposition"] = float(np.max(
            np.abs(frame.p - recon) / scale[..., None]))
    else:
        out["pi_omega_contraction"] = float(np.max(np.abs(c_pi_om - 1.0)))
        d = core.vector_to_dyad(frame.p, "up")
        outer = np.einsum('...A,...B->...AB', frame.pi, np.conj(frame.pi))
        scale = np.maximum(1.0, np.max(np.abs(frame.p), axis=-1))
        out["flag_reconstruction"] = float(np.max(
            np.abs(outer - d) / scale[..., None, None]))
        out["partner_orthogonality"] = float(np.max(np.abs(
            np.einsum('...A,...A->...', np.conj(frame.pi), frame.omega))))
    for name, v in (("omega_vec", frame.omega_vec), ("pi_vec", frame.pi_vec)):
        scale = np.maximum(1.0, np.max(np.abs(v), axis=-1) ** 2)
        out[f"{name}_null"] = float(np.max(np.abs(core.mass_squared(v)) / scale))
        out[f"{name}_future"] = float(np.max(np.maximum(0.0, -v[..., 0])))
    return out

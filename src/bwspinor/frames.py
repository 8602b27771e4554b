"""Null spin-frames (omega, pi) attached to a momentum.

A massive momentum decomposes as p = (m/sqrt2)(omega_vec + pi_vec) into two
null future-pointing flagpoles with omega_A pi^A = 1 and omega.p = m/sqrt2.
A massless momentum is the flagpole of a single spinor pi, with the partner
omega fixed by pi_A omega^A = 1; pi is read from `axis_rotation`, whose
rows are the spin frame of a null direction.

The two regimes deliberately use the opposite contraction normalization
(omega_A pi^A = +1 massive, pi_A omega^A = +1 massless); every downstream
formula is used in the normalization of its own regime, and
SpinFrame.contractions() reports both numbers.

A frame holds one momentum per sample and no mass: the regime and the mass
of a sample follow from its own p (`core.timelike`, `core.invariant_mass`),
so the samples of one batch may lie on different mass shells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .errors import (DegenerateReference, NotFuturePointing, NotNull,
                     NotTimelike, ZeroSpinor, reject)


@dataclass(frozen=True)
class SpinFrame:
    """Per sample, a momentum p with its attached spin-frame spinors (upper
    components); the mass of a sample is core.invariant_mass(p)."""

    pi: np.ndarray          # (..., 2)
    omega: np.ndarray       # (..., 2)
    p: np.ndarray           # (..., 4)
    pi_vec: np.ndarray      # flagpole of pi, (..., 4)
    omega_vec: np.ndarray   # flagpole of omega, (..., 4)

    def contractions(self) -> tuple[np.ndarray, np.ndarray]:
        """(omega_A pi^A, pi_A omega^A); they differ by sign."""
        c1 = core.spinor_contract(core.lower_spinor(self.omega), self.pi)
        c2 = core.spinor_contract(core.lower_spinor(self.pi), self.omega)
        return c1, c2


def axis_rotation(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per sample, a in SU(2), (..., 2, 2), mapping to (1, 0) the unit flag
    spinor xi of the direction u of the 3-vector of t, and lam, (..., 2),
    with a t^{AA'} a^dagger = diag(lam), lam = (t^0 + |t|, t^0 - |t|) / sqrt2:
    the one rotation that diagonalizes a direction dyad.  xi, the column of
    larger norm of the dyad of (1, u), has its larger entry real and
    positive: entry 0 where u^3 >= 0, the equator included.  On the time
    axis a = 1."""
    t = np.asarray(t, dtype=float)
    v = t[..., 1:]
    length = np.hypot(np.hypot(v[..., 0], v[..., 1]), v[..., 2])
    x, y, z = np.moveaxis(v, -1, 0) / np.where(length > 0, length, 1.0)
    z = np.where(length > 0, z, 1.0)
    xi = np.where((z >= 0)[..., None], np.stack([1.0 + z, x + 1j * y], axis=-1),
                  np.stack([x - 1j * y, 1.0 - z], axis=-1))
    xi = xi / np.sqrt(2.0 * (1.0 + np.abs(z)))[..., None]
    a = np.empty(xi.shape[:-1] + (2, 2), dtype=complex)
    np.conj(xi, out=a[..., 0, :])
    np.negative(xi[..., 1], out=a[..., 1, 0])
    a[..., 1, 1] = xi[..., 0]
    return a, np.stack([t[..., 0] + length, t[..., 0] - length], axis=-1) / np.sqrt(2.0)


def flag_decompose_massless(p: np.ndarray) -> np.ndarray:
    """Spinor pi with pi^A pibar^{A'} = p^{AA'} for null future-pointing p:
    sqrt(lam_0) conj(a_0) for a, lam = axis_rotation(p); its larger-modulus
    component, component 0 where p^3 >= 0, is real and positive."""
    p = np.asarray(p, dtype=float)
    reject(np.all(np.isfinite(p), axis=-1) & ~(p[..., 0] > 0), NotFuturePointing,
           "p^0 must be positive")
    reject(~core.null_shell(p), NotNull, "p must be finite and null")
    a, lam = axis_rotation(p)
    return np.sqrt(lam[..., 0])[..., None] * np.conj(a[..., 0, :])


def partner_massless(pi: np.ndarray) -> np.ndarray:
    """Spinor omega with pi_A omega^A = 1, orthogonal to pi in the Euclidean sense.

    Scale-free: q = pi / 2^e, with 2^e the power of two just above the
    largest real or imaginary part (`core._unit_scaled`, exact), so
    omega = 2^-e q^perp / |q|^2 with 1/2 <= |q| < 2; every finite nonzero
    pi whose partner is finite (largest part at least 2^-1023) is accepted.
    """
    pi = np.ascontiguousarray(pi, dtype=complex)
    finite, q, _, e = core._unit_scaled(pi.view(float))
    q = q.view(complex)
    norm2 = np.sum(q.real ** 2 + q.imag ** 2, axis=-1)
    perp = np.stack([-np.conj(q[..., 1]), np.conj(q[..., 0])], axis=-1)
    # |omega| = 2^-e / |q| <= 2^(1-e): finite for every e >= -1022
    reject(~(finite & (norm2 > 0) & (e >= -1022)), ZeroSpinor,
           "flag spinor must be finite and nonzero, with a finite partner")
    return perp / norm2[..., None] * np.ldexp(1.0, -e)[..., None]


def frame_massless(p: np.ndarray) -> SpinFrame:
    """Spin-frame for a null momentum: pi from the flag, omega the partner."""
    pi = flag_decompose_massless(p)
    omega = partner_massless(pi)
    return SpinFrame(pi=pi, omega=omega, p=np.asarray(p, dtype=float),
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
    return SpinFrame(pi=pi, omega=omega, p=p,
                     pi_vec=core.flagpole(pi), omega_vec=core.flagpole(omega))


def frame_residuals(frame: SpinFrame) -> dict[str, float]:
    """All frame invariants as named max residuals."""
    out: dict[str, float] = {}
    c_om_pi, c_pi_om = frame.contractions()
    scale = core.max_abs(frame.p, floor=1.0)
    if np.all(core.timelike(frame.p)):
        m = core.invariant_mass(frame.p)
        out["omega_pi_contraction"] = float(np.max(np.abs(c_om_pi - 1.0)))
        out["omega_dot_p"] = float(np.max(np.abs(
            core.minkowski(frame.omega_vec, frame.p) - m / np.sqrt(2.0))
            / np.maximum(m, 1e-300)))
        recon = (m / np.sqrt(2.0))[..., None] * (frame.omega_vec + frame.pi_vec)
        out["momentum_decomposition"] = float(np.max(core.max_abs(frame.p - recon) / scale))
    else:
        out["pi_omega_contraction"] = float(np.max(np.abs(c_pi_om - 1.0)))
        d = core.vector_to_dyad(frame.p, "up")
        outer = np.einsum('...A,...B->...AB', frame.pi, np.conj(frame.pi))
        out["flag_reconstruction"] = float(np.max(core.max_abs(outer - d, 2) / scale))
        out["partner_orthogonality"] = float(np.max(np.abs(
            np.einsum('...A,...A->...', np.conj(frame.pi), frame.omega))))
    for name, v in (("omega_vec", frame.omega_vec), ("pi_vec", frame.pi_vec)):
        out[f"{name}_null"] = float(np.max(np.abs(core.mass_squared(v))
                                           / core.max_abs(v, floor=1.0) ** 2))
        out[f"{name}_future"] = float(np.max(np.maximum(0.0, -v[..., 0])))
    return out

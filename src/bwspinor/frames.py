"""Null spin-frames (omega, pi) attached to a momentum.

A massive momentum decomposes as p = (m/sqrt2)(omega_vec + pi_vec) into two
null future-pointing flagpoles with omega_A pi^A = 1 and omega.p = m/sqrt2.
A massless momentum is the flagpole of a single spinor pi, with the partner
omega fixed by pi_A omega^A = 1: two rows of one `axis_rotation`, scaled by
sqrt(lam_0) and its inverse, finite for p^0 from about 4e-309 to 9e307.

The two regimes deliberately use the opposite contraction normalization
(omega_A pi^A = +1 massive, pi_A omega^A = +1 massless); every downstream
formula is used in the normalization of its own regime, and
SpinFrame.contractions() reports both numbers.

A frame holds one momentum per sample and no mass: the regime and the mass
of a sample follow from its own p (`core.timelike`, `core.invariant_mass`),
so the samples of one batch may lie on different mass shells.

`axis_rotation(p)` also fixes, per sample, the spin basis in which
`bw.BWComponent` stores its members: the a with a p^{AA'} a^dagger
diagonal, whose rows are the flag spinors of the two null flagpoles of p.
A frame is given in standard coordinates; `bw` takes its spinors into that
basis where it pairs them with members.
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
    the one rotation that diagonalizes a direction dyad, and, for t = p, the
    basis of the members of a field at p.  xi, the column of larger norm of
    the dyad of (1, u), has its larger entry real and positive: entry 0
    where u^3 >= 0, the equator included.  On the time axis a = 1, and on
    the +z axis too."""
    t = np.asarray(t, dtype=float)
    # hypot ran faster on contiguous rows than on the columns of t
    v = np.ascontiguousarray(np.moveaxis(t[..., 1:], -1, 0))
    length = np.hypot(np.hypot(v[0], v[1]), v[2])
    x, y, z = v / np.where(length > 0, length, 1.0)
    z = np.where(length > 0, z, 1.0)
    upper = z >= 0
    # a = [conj(xi); -xi_1, xi_0], written part by part: xi = (1 + z, x + iy)
    # or (x - iy, 1 - z), times the reciprocal of its norm as complex division
    # by a real takes it
    scale = 1.0 / np.sqrt(2.0 * (1.0 + np.abs(z)))
    a = np.zeros(t.shape[:-1] + (2, 2), dtype=complex)
    re, im = a.real, a.imag
    np.multiply(np.where(upper, 1.0 + z, x), scale, out=re[..., 0, 0])
    np.multiply(np.where(upper, x, 1.0 - z), scale, out=re[..., 0, 1])
    re[..., 1, 1] = re[..., 0, 0]
    np.negative(re[..., 0, 1], out=re[..., 1, 0])
    ys = y * scale
    np.copyto(im[..., 0, 0], ys, where=~upper)
    np.negative(im[..., 0, 0], out=im[..., 1, 1])
    np.negative(ys, out=im[..., 0, 1], where=upper)
    im[..., 1, 0] = im[..., 0, 1]
    return a, np.stack([t[..., 0] + length, t[..., 0] - length], axis=-1) / np.sqrt(2.0)


def _null_spinors(p: np.ndarray):
    """(pi, omega, omega_vec, finite) of a null future-pointing p from a, lam =
    axis_rotation(p): pi = sqrt(lam_0) conj(a_0), omega = conj(a_1) / sqrt(lam_0),
    so pi_A omega^A = 1; not finite where omega_vec (p^0 below ~4e-309) or pi
    (p^0 above ~9e307) overflows."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        a, lam = axis_rotation(p)
        root = np.sqrt(lam[..., 0])[..., None]
        pi, omega = root * np.conj(a[..., 0, :]), np.conj(a[..., 1, :]) / root
        omega_vec = core.flagpole(omega)
    finite = np.all(np.isfinite(pi), axis=-1) & np.all(np.isfinite(omega_vec), axis=-1)
    return pi, omega, omega_vec, finite


def null_frame_finite(p: np.ndarray) -> np.ndarray:
    """Per sample, whether the massless frame of a null future-pointing p is
    finite: the range that `frame_massless` accepts and the readers check."""
    return _null_spinors(np.asarray(p, dtype=float))[3]


def _null_frame(p: np.ndarray):
    """`_null_spinors` of a null future-pointing p; rejects a sample that overflows."""
    p = np.asarray(p, dtype=float)
    reject(np.all(np.isfinite(p), axis=-1) & ~(p[..., 0] > 0), NotFuturePointing,
           "p^0 must be positive")
    reject(~core.null_shell(p), NotNull, "p must be finite and null")
    pi, omega, omega_vec, finite = _null_spinors(p)
    reject(~finite, ZeroSpinor, "flag spinor must be finite and nonzero, with a finite partner")
    return pi, omega, omega_vec


def frame_massless(p: np.ndarray) -> SpinFrame:
    """Spin-frame for a null momentum: pi and omega from one axis_rotation."""
    pi, omega, omega_vec = _null_frame(p)
    return SpinFrame(pi=pi, omega=omega, p=np.asarray(p, dtype=float),
                     pi_vec=core.flagpole(pi), omega_vec=omega_vec)


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


def frame_residuals(frame: SpinFrame) -> dict[str, np.ndarray]:
    """All frame invariants as named per-sample residuals."""
    out: dict[str, np.ndarray] = {}
    c_om_pi, c_pi_om = frame.contractions()
    scale = core.max_abs(frame.p, floor=1.0)
    if np.all(core.timelike(frame.p)):
        m = core.invariant_mass(frame.p)
        out["omega_pi_contraction"] = np.abs(c_om_pi - 1.0)
        out["omega_dot_p"] = np.abs(
            core.minkowski(frame.omega_vec, frame.p) - m / np.sqrt(2.0)) / np.maximum(m, 1e-300)
        recon = (m / np.sqrt(2.0))[..., None] * (frame.omega_vec + frame.pi_vec)
        out["momentum_decomposition"] = core.max_abs(frame.p - recon) / scale
    else:
        out["pi_omega_contraction"] = np.abs(c_pi_om - 1.0)
        d = core.vector_to_dyad(frame.p, "up")
        outer = np.einsum('...A,...B->...AB', frame.pi, np.conj(frame.pi))
        out["flag_reconstruction"] = core.max_abs(outer - d, 2) / scale
        out["partner_orthogonality"] = np.abs(
            np.einsum('...A,...A->...', np.conj(frame.pi), frame.omega))
    for name, v in (("omega_vec", frame.omega_vec), ("pi_vec", frame.pi_vec)):
        out[f"{name}_null"] = np.abs(core.mass_squared(v)) / core.max_abs(v, floor=1.0) ** 2
        out[f"{name}_future"] = np.maximum(0.0, -v[..., 0])
    return out

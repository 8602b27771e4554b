"""Electromagnetic spinor, stress tensor, and the n = 2 massless norm.

Single-frequency-sign fields are complex valued; every quadratic expression
pairs a quantity with its complex conjugate, which reduces to the usual real
bilinears when the field strength is real.  The symmetric spinor phi captures
one chirality part of F; a real field strength is recovered from phi as
F_{ab} = phi_{AB} eps_{A'B'} + conjugate, and for such consistent pairs the
spinor and tensor stress-tensor routes agree entrywise.
"""

from __future__ import annotations

import numpy as np

from . import core
from .errors import (InconsistentPair, NotAntisymmetric, NotNull,
                     OrthogonalDirection, reject)

# sigma_{qr AB}: generators with both world indices and both spinor indices
# lowered, flattened to a (qr, AB) table
_SIG_LL = np.einsum('ac,bd,cdXZ,ZY->abXY', core.METRIC, core.METRIC,
                    core.SIGMA, core.EPS).reshape(16, 4)

_LEVI3 = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _LEVI3[_i, _j, _k] = 1.0
    _LEVI3[_i, _k, _j] = -1.0


def _check_antisymmetric(f: np.ndarray) -> None:
    finite = np.all(np.isfinite(f), axis=(-2, -1))
    f = np.where(finite[..., None, None], f, 0.0)
    scale = core.max_abs(f, 2, floor=1.0)
    gap = core.max_abs(f + np.swapaxes(f, -1, -2), 2)
    reject(~(finite & (gap <= 1e-12 * scale)), NotAntisymmetric,
           "field strength must be finite and satisfy F^{qr} = -F^{rq}")


def em_spinor(f_up: np.ndarray) -> np.ndarray:
    """Symmetric spinor phi_{AB} = (i/2) F^{qr} sigma_{qr AB}."""
    _check_antisymmetric(f_up)
    f_up = np.asarray(f_up)
    lead = f_up.shape[:-2]
    return 0.5j * (f_up.reshape(lead + (16,)) @ _SIG_LL).reshape(lead + (2, 2))


def lorenz_residual(pot: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Per sample |p.pot|, the momentum-space Lorenz gauge condition."""
    return np.abs(core.minkowski(p, pot))


def phi_from_potential(pot: np.ndarray, p: np.ndarray,
                       sign: int = +1) -> tuple[np.ndarray, np.ndarray]:
    """Both index placements of -+i p_{AA'} pot_B^{A'}; they agree exactly when
    the Lorenz residual vanishes, and phi is then symmetric."""
    p = np.asarray(p, dtype=float)
    reject(~core.null_shell(p), NotNull, "potential fields live on the light cone")
    pl = core.vector_to_dyad(p, "low")
    pot_lu = core.vector_to_dyad(np.asarray(pot, dtype=complex), "lu")
    first = -1j * sign * np.einsum('...Aa,...Ba->...AB', pl, pot_lu)
    second = np.swapaxes(first, -1, -2)
    return first, second


def field_strength_from_potential(pot: np.ndarray, p: np.ndarray,
                                  sign: int = +1) -> np.ndarray:
    """Complex F^{qr} = -+i (p^q pot^r - p^r pot^q) of a single-frequency part."""
    pot = np.asarray(pot, dtype=complex)
    p = np.asarray(p, dtype=float)
    return -1j * sign * (np.einsum('...a,...b->...ab', p, pot)
                         - np.einsum('...a,...b->...ab', pot, p))


def field_strength_from_phi(phi: np.ndarray) -> np.ndarray:
    """Real F^{qr} with chirality parts phi and conj(phi):
    F_{AA'BB'} = phi_{AB} eps_{A'B'} + eps_{AB} conj(phi)_{A'B'}."""
    phi = np.asarray(phi, dtype=complex)
    eps = core.EPS
    spin = (phi[..., :, None, :, None] * eps[:, None, :]
            + eps[:, None, :, None] * np.conj(phi)[..., None, :, None, :])
    return np.real(core.lower_tensor(core.pair_to_world(spin)))


def electric_field(f_up: np.ndarray) -> np.ndarray:
    """E_i = F^{i0}."""
    return np.stack([f_up[..., i, 0] for i in (1, 2, 3)], axis=-1)


def magnetic_field(f_up: np.ndarray) -> np.ndarray:
    """B_i = -(1/2) e_{ijk} F^{jk}."""
    return -0.5 * np.einsum('ijk,...jk->...i', _LEVI3, f_up[..., 1:, 1:])


def stress_tensor_spinor(phi: np.ndarray) -> np.ndarray:
    """T_{ab} from the chirality route, phi_{AB} conj(phi)_{A'B'}."""
    phi = np.asarray(phi, dtype=complex)
    spin = phi[..., :, None, :, None] * np.conj(phi)[..., None, :, None, :]
    return np.real(core.pair_to_world(spin))


def stress_tensor_field(f_up: np.ndarray) -> np.ndarray:
    """T_{ab} = (1/2)((1/4) g_{ab} F_{cd} Fbar^{cd} - F_{ac} Fbar_b^c); the
    second factor of each product carries the conjugate."""
    f_up = np.asarray(f_up, dtype=complex)
    f_low = core.lower_tensor(f_up)
    invariant = np.einsum('...ab,...ab->...', f_low, np.conj(f_up))
    mixed = core.METRIC @ np.conj(f_up)
    quad = np.einsum('...ac,...bc->...ab', f_low, mixed)
    t = 0.5 * (0.25 * invariant[..., None, None] * core.METRIC - quad)
    return np.real(t)


def stress_tensor(phi: np.ndarray, f_up: np.ndarray) -> dict[str, np.ndarray]:
    """Both stress-tensor routes plus the energy-density cross-check.

    Raises InconsistentPair where the routes differ by more than 1e-8 of the
    sample's largest entry (at least 1): phi and F then do not describe the
    same field.  `route_gap` holds these per-sample relative gaps.
    """
    _check_antisymmetric(f_up)
    finite = np.all(np.isfinite(phi), axis=(-2, -1))
    t_spin = stress_tensor_spinor(np.where(finite[..., None, None], phi, 0.0))
    t_field = stress_tensor_field(f_up)
    gap = core.max_abs(t_spin - t_field, 2) / core.max_abs(t_spin, 2, floor=1.0)
    reject(~(finite & (gap <= 1e-8)), InconsistentPair,
           "phi must be finite, and the spinor and field-strength routes agree")
    e = electric_field(f_up)
    b = magnetic_field(f_up)
    t00_eb = 0.25 * (np.sum(np.abs(e) ** 2, axis=-1)
                     + np.sum(np.abs(b) ** 2, axis=-1))
    return {"spinor": t_spin, "field": t_field, "t00_eb": t00_eb,
            "route_gap": gap}


def gk_norm_integrand(phi: np.ndarray, p: np.ndarray, t1: np.ndarray,
                      t2: np.ndarray) -> np.ndarray:
    """t1^a t2^b T_{ab} / ((t1.p)(t2.p)), the two-direction Maxwell integrand."""
    reject(~(core.nonzero_tp(t1, p) & core.nonzero_tp(t2, p)), OrthogonalDirection,
           "t.p must be finite and nonzero for both direction vectors")
    reject(~np.all(np.isfinite(phi), axis=(-2, -1)), InconsistentPair,
           "phi must be finite")
    d1 = core.minkowski(t1, p)
    d2 = core.minkowski(t2, p)
    t = stress_tensor_spinor(phi)
    num = np.einsum('...ab,...a,...b->...', t, np.asarray(t1, dtype=float),
                    np.asarray(t2, dtype=float))
    return num / (d1 * d2)

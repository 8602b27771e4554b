"""Gamma matrices in the spinor block convention, the momentum-space Dirac
equation, and the n = 1 specialization of the Bargmann-Wigner machinery.

The gamma matrices are assembled from the world-to-spinor translation
symbols, gamma_q = sqrt2 * offdiag(g_{qA}^{B'}, -g_q^B_{A'}); the textbook
"gamma_0" appearing in the current is a different spinor object (an
epsilon-twisted block swap) and is kept as a separate constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .bw import Amplitudes, BWComponent, synth_massive
from .errors import NotMassive, reject
from .frames import SpinFrame
from .pauli_lubanski import bispinor_matrix, chi_basis, default_normalization


@dataclass(frozen=True)
class GammaSet:
    gammas: np.ndarray        # (4, 4, 4): gamma_q with lower world index
    gamma5: np.ndarray        # (4, 4), from the Levi-Civita product
    gamma5_block: np.ndarray  # (4, 4), blockdiag(-eps, +eps) reference form
    current_metric: np.ndarray  # the epsilon-twisted "gamma_0" of the current


def gamma_set() -> GammaSet:
    """Gamma matrices, gamma5 (product and block forms), and the current metric."""
    # gamma_q = sqrt2 [[0, g_{qA}^{B'}], [-(g_q^B_{A'})^T, 0]], block index (A', B) below
    gam = np.sqrt(2.0) * bispinor_matrix(0, core.G_LOW @ core.EPS.T,
                                         -np.swapaxes(core.EPS @ core.G_LOW, -1, -2), 0)
    g5 = 1j / 24.0 * np.einsum('abcd,aij,bjk,ckl,dlm->im', core.LEVI_UP,
                               gam, gam, gam, gam)
    eye = np.eye(2)
    return GammaSet(gammas=gam, gamma5=g5, gamma5_block=bispinor_matrix(-eye, 0, 0, eye),
                    current_metric=bispinor_matrix(0, eye, -eye, 0))   # eps_{A'}^{B'}, -eps_A^B


def dirac_operator(p: np.ndarray, sign: int = +1) -> np.ndarray:
    """Momentum-space operator whose eigenvalue equation is D Psi = (m/sqrt2) Psi."""
    plu = core.vector_to_dyad(p, "lu")
    pul = core.vector_to_dyad(p, "ul")
    return bispinor_matrix(0, sign * plu, -sign * np.swapaxes(pul, -1, -2), 0)


def dirac_solution(frame: SpinFrame, f0, f1, sign: int = +1) -> np.ndarray:
    """Bispinor chi^{(+)} f1 + chi^{(-)} f0; solves the momentum Dirac equation."""
    reject(~core.timelike(frame.p), NotMassive, "dirac_solution needs m > 0")
    chis = chi_basis(frame)
    f0 = np.asarray(f0, dtype=complex)[..., None]
    f1 = np.asarray(f1, dtype=complex)[..., None]
    return chis[(+1, sign)] * f1 + chis[(-1, sign)] * f0


def dirac_residual(psi: np.ndarray, p: np.ndarray, mass: float,
                   sign: int = +1) -> np.ndarray:
    """Per sample, the momentum Dirac equation's residual relative to max(1, |psi| |p|)."""
    op = dirac_operator(p, sign)
    res = np.einsum('...ab,...b->...a', op, psi) - (mass / np.sqrt(2.0)) * psi
    scale = np.maximum(1.0, core.max_abs(psi) * core.max_abs(p, floor=mass))
    return core.max_abs(res) / scale


def dirac_current(psi: np.ndarray) -> np.ndarray:
    """j_a = sqrt2 g_a^{AA'} (psi_A psibar_{A'} + xi_{A'} xibar_A), returned
    with the index raised; real, future-pointing, causal."""
    psi = np.asarray(psi, dtype=complex)
    upper, lower = psi[..., 0:2], psi[..., 2:4]
    dyad = (np.einsum('...A,...B->...AB', upper, np.conj(upper))
            + np.einsum('...A,...B->...AB', np.conj(lower), lower))
    return np.sqrt(2.0) * np.real(core.dyad_to_vector(dyad, "low"))


def extract_dirac(psi: np.ndarray, frame: SpinFrame) -> tuple[np.ndarray, np.ndarray]:
    """(f0, f1) from omega^A psi^0_A = N f0 and omegabar^{A'} psi^1_{A'} = N f1."""
    n_scale = default_normalization(frame)
    f0 = np.einsum('...A,...A->...', frame.omega, psi[..., 0:2]) / n_scale
    f1 = np.einsum('...A,...A->...', np.conj(frame.omega), psi[..., 2:4]) / n_scale
    return f0, f1


def dirac_norm_integrand(psi: np.ndarray, frame: SpinFrame) -> np.ndarray:
    """omega^a T_a / omega.p computed directly from the bispinor."""
    reject(~core.timelike(frame.p), NotMassive, "dirac_norm_integrand needs m > 0")
    om_dyad = core.vector_to_dyad(frame.omega_vec, "up")
    upper, lower = psi[..., 0:2], psi[..., 2:4]
    t_up = np.einsum('...AB,...A,...B->...', om_dyad, upper, np.conj(upper))
    t_dn = np.einsum('...AB,...A,...B->...', om_dyad, np.conj(lower), lower)
    return np.real(t_up + t_dn) / core.minkowski(frame.omega_vec, frame.p)


def dirac_component(frame: SpinFrame, f0, f1, sign: int = +1) -> BWComponent:
    """The same solution as an n = 1 Bargmann-Wigner component, on sample 0's shell."""
    reject(~core.timelike(frame.p), NotMassive, "dirac_component needs m > 0")
    f = np.stack([np.asarray(f0, dtype=complex),
                  np.asarray(f1, dtype=complex)], axis=-1)
    mass = float(core.invariant_mass(frame.p.reshape(-1, 4)[0]))
    amps = Amplitudes(n=1, mass=mass, sign=sign, f=f)
    return synth_massive(frame, amps)


"""Mass-shell sampling and numerical evaluation of the invariant norms.

The measure d^3p / (2 p^0) is realized by a midpoint product rule over a
coordinate box; every sample evaluation is independent.  The integrand is
evaluated serially in fixed-size chunks, and the final reduction is a
fixed-shape pairwise tree, so a value depends only on the grid and the
integrand.  Everything runs on the calling thread; the traced runs of
perfbench assume that its spans never overlap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import core
from .bw import Amplitudes, BWComponent, norm_integrand, standard_bw_integrand, synth
from .errors import InvalidResolution, NotFinite, reject
from .frames import SpinFrame, frame_for

_CHUNK = 4096   # fixed: bounds the working set; the value does not see it


def pairwise_sum(values: np.ndarray) -> float:
    """Summation over a fixed binary tree determined only by the length."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return 0.0
    work = values.ravel()
    while work.size > 1:
        half = work.size // 2
        head = work[: 2 * half]
        work = np.concatenate([head[0::2] + head[1::2], work[2 * half:]])
    return float(work[0])


@dataclass(frozen=True)
class ShellGrid:
    """Midpoint-rule samples of the mass shell over a momentum box."""

    mass: float
    p: np.ndarray         # (S, 4) on-shell, future-pointing
    weights: np.ndarray   # (S,) quadrature weights for d^3p / (2 p^0)


def build_grid(mass: float, half_width: float, points_per_axis: int) -> ShellGrid:
    """Tensor-product midpoint rule on [-L, L]^3 with weight (2L/N)^3 / (2 p^0).

    For mass 0 the origin sample of odd N (the one within h/4 of 0) is dropped
    so the weight stays finite.  A negative or non-finite mass, a non-positive
    or non-finite half width, N < 2, N^3 samples that numpy cannot allocate,
    a p^0 or weight that overflows, or a sample off `core.on_shell` (the
    reader's rule) raises InvalidResolution.
    """
    if not (np.isfinite(mass) and mass >= 0 and np.isfinite(half_width)
            and half_width > 0 and points_per_axis >= 2):
        raise InvalidResolution(
            f"need finite m >= 0, finite L > 0, N >= 2; got ({mass}, {half_width}, {points_per_axis})")
    n = points_per_axis
    h = 2.0 * half_width / n
    # numpy raises MemoryError for an allocation it cannot make and
    # ValueError for one beyond its index range
    try:
        axis = -half_width + h * (np.arange(n) + 0.5)
        px, py, pz = np.meshgrid(axis, axis, axis, indexing="ij")
        pvec = np.stack([px.ravel(), py.ravel(), pz.ravel()], axis=-1)
        if mass == 0.0:
            pvec = pvec[core.max_abs(pvec) >= h / 4]
        # in numpy, h^3 overflows to inf (a Python float raises); rejected below
        with np.errstate(over="ignore"):
            p0 = core.shell_energy(pvec, mass)
            weights = np.float64(h) ** 3 / (2.0 * p0)
        p = np.concatenate([p0[:, None], pvec], axis=-1)
    except (MemoryError, ValueError) as exc:
        raise InvalidResolution(f"cannot allocate a grid of {n}^3 samples: {exc}") from None
    if not (np.all(np.isfinite(p0)) and np.all(np.isfinite(weights))):
        raise InvalidResolution(f"p^0 or a weight overflows (m = {mass}, L = {half_width})")
    reject(~core.on_shell(p, mass), InvalidResolution,
           f"grid sample off the mass shell (m = {mass}, L = {half_width})")
    return ShellGrid(mass=mass, p=p, weights=weights)


@dataclass(frozen=True)
class GaussianPacket:
    """Square-integrable amplitude family c_k exp(-|pvec - center|^2 / (4 sigma^2)).

    Massive packets carry one coefficient per distinct amplitude and a
    reference spinor nu for the frame construction; massless packets carry a
    single coefficient.
    """

    n: int
    mass: float
    sign: int
    coeffs: tuple
    center: tuple = (0.0, 0.0, 0.0)
    sigma: float = 1.0
    nu: tuple = (1.0, 0.0)

    def amplitudes(self, p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        # |pvec - center| / (2 sigma) is scale-free; where its square
        # overflows, the envelope's limit 0 is its value
        z = (p[..., 1:] - np.asarray(self.center)) / (2.0 * self.sigma)
        with np.errstate(over="ignore"):
            envelope = np.exp(-np.sum(z ** 2, axis=-1))
        return np.asarray(self.coeffs, dtype=complex) * envelope[..., None]

    def component(self, p: np.ndarray) -> tuple[BWComponent, SpinFrame]:
        fr = frame_for(p, self.mass, self.nu)
        amps = Amplitudes(n=self.n, mass=self.mass, sign=self.sign, f=self.amplitudes(p))
        return synth(fr, amps), fr


def _finite_sum(name: str, integrand, weights: np.ndarray) -> float:
    """pairwise_sum(integrand() * weights), where (t.p)^n and T may overflow:
    integrand() runs under np.errstate, a non-finite value raises NotFinite
    naming its sample, and so does a non-finite sum."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        values = integrand()
        reject(~np.isfinite(values), NotFinite, f"{name}: integrand must be finite")
        total = pairwise_sum(values * weights)
        reject(~np.isfinite(total), NotFinite, f"{name}: weighted sum must be finite")
    return total


def _integrand_values(provider, grid: ShellGrid, spec, standard: bool) -> np.ndarray:
    """The integrand at every sample, evaluated serially in chunks of _CHUNK."""
    pieces = []
    for start in range(0, grid.p.shape[0], _CHUNK):
        psi, fr = provider.component(grid.p[start:start + _CHUNK])
        pieces.append(standard_bw_integrand(psi) if standard else norm_integrand(psi, spec, fr))
    return np.concatenate(pieces) if pieces else np.zeros(0)


def evaluate_norm(provider, grid: ShellGrid, spec=None,
                  standard: bool = False) -> float:
    """Quadrature value of the chosen norm over the grid; spec=None takes
    the default of `norm_integrand`.

    The samples are evaluated serially in fixed chunks of _CHUNK and
    reduced with pairwise_sum; a non-finite integrand or sum raises
    NotFinite, as `norm` does.
    """
    return _finite_sum("standard-bw norm" if standard else "norm",
                       partial(_integrand_values, provider, grid, spec, standard),
                       grid.weights)

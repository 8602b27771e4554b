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

import numpy as np

from . import core
from .bw import (Amplitudes, BWComponent, NullOmega, norm_integrand,
                 standard_bw_integrand, synth_massive, synth_massless,
                 transform_component)
from .errors import InvalidResolution
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
    half_width: float
    points_per_axis: int


def build_grid(mass: float, half_width: float, points_per_axis: int) -> ShellGrid:
    """Tensor-product midpoint rule on [-L, L]^3 with weight (2L/N)^3 / (2 p^0).

    For mass 0 any sample with |pvec| < 1e-8 is dropped so the weight stays
    finite.  A negative or non-finite mass, a non-positive or non-finite
    half width, fewer than two points, or a p^0 or weight that overflows
    raises InvalidResolution.
    """
    if not (np.isfinite(mass) and mass >= 0 and np.isfinite(half_width)
            and half_width > 0 and points_per_axis >= 2):
        raise InvalidResolution(
            f"need finite m >= 0, finite L > 0, N >= 2; got ({mass}, {half_width}, {points_per_axis})")
    n = points_per_axis
    h = 2.0 * half_width / n
    axis = -half_width + h * (np.arange(n) + 0.5)
    px, py, pz = np.meshgrid(axis, axis, axis, indexing="ij")
    pvec = np.stack([px.ravel(), py.ravel(), pz.ravel()], axis=-1)
    if mass == 0.0:
        keep = np.linalg.norm(pvec, axis=-1) >= 1e-8
        pvec = pvec[keep]
    # in numpy, h^3 overflows to inf (a Python float raises); rejected below
    with np.errstate(over="ignore"):
        p0 = core.shell_energy(pvec, mass)
        weights = np.float64(h) ** 3 / (2.0 * p0)
    if not (np.all(np.isfinite(p0)) and np.all(np.isfinite(weights))):
        raise InvalidResolution(f"p^0 or a weight overflows (m = {mass}, L = {half_width})")
    p = np.concatenate([p0[:, None], pvec], axis=-1)
    return ShellGrid(mass=mass, p=p, weights=weights,
                     half_width=half_width, points_per_axis=n)


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
        d2 = np.sum((p[..., 1:] - np.asarray(self.center)) ** 2, axis=-1)
        envelope = np.exp(-d2 / (4.0 * self.sigma ** 2))
        return np.asarray(self.coeffs, dtype=complex) * envelope[..., None]

    def frame(self, p: np.ndarray) -> SpinFrame:
        return frame_for(p, self.mass, self.nu)

    def component(self, p: np.ndarray) -> tuple[BWComponent, SpinFrame]:
        fr = self.frame(p)
        f = self.amplitudes(p)
        if self.mass > 0:
            amps = Amplitudes(n=self.n, mass=self.mass, sign=self.sign, f=f)
            return synth_massive(fr, amps), fr
        return synth_massless(fr.pi, f[..., 0], self.n, self.sign), fr


def _integrand_values(provider, p: np.ndarray, spec, standard: bool) -> np.ndarray:
    psi, fr = provider.component(p)
    if standard:
        return standard_bw_integrand(psi)
    return norm_integrand(psi, spec, fr)


def evaluate_norm(provider, grid: ShellGrid, spec=None,
                  standard: bool = False) -> float:
    """Quadrature value of the chosen norm over the grid; spec=None takes
    the default of `norm_integrand`.

    The samples are evaluated serially in fixed chunks of _CHUNK and
    reduced with pairwise_sum.
    """
    pieces = [_integrand_values(provider, grid.p[start:start + _CHUNK], spec, standard)
              for start in range(0, grid.p.shape[0], _CHUNK)]
    values = np.concatenate(pieces) if pieces else np.zeros(0)
    return pairwise_sum(values * grid.weights)


def invariance_report(provider, a: np.ndarray, grid: ShellGrid,
                      spec=None) -> dict[str, float]:
    """Pointwise scalarity check of the norm integrand under an SL(2,C) map.

    For each grid sample p the integrand of the transformed field at Lambda p
    is compared with the integrand of the original at p; the quadrature-level
    norm difference is reported separately since the mapped samples no longer
    sit on this grid.
    """
    if spec is None:
        spec = NullOmega()
    psi, fr = provider.component(grid.p)
    base = norm_integrand(psi, spec, fr)
    moved = transform_component(psi, a)
    mapped = norm_integrand(moved, spec, provider.frame(moved.p))
    scale = np.maximum(1.0, np.abs(base))
    pointwise = float(np.max(np.abs(mapped - base) / scale))
    norm_base = pairwise_sum(base * grid.weights)
    norm_mapped = pairwise_sum(mapped * grid.weights)
    return {
        "pointwise_max_residual": pointwise,
        "norm_original": norm_base,
        "norm_transformed_integrand": norm_mapped,
    }

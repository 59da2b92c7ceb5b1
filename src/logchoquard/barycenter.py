"""Generalized barycenter: local unit-ball mass, half-maximum set, weighted centroid.

beta(u) = beta0/beta1 with uhat(x) = int_{B_1(x)} |u|^p, Omega = {uhat > peak/2},
beta0 = int_Omega x (uhat - peak/2), beta1 = int_Omega (uhat - peak/2) > 0.
Continuous, equivariant under euclidean motions, and invariant under
u -> t u and u -> |u|; the anchor for the recentered metric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BarycenterUndefinedError, GridResolutionError
from .field import Field, Grid
from .logkernel import kernel_fft, offset_lattice, padded_convolve

MAX_H = 0.5  # local_mass resolves its unit ball only with radius >= 2h

_disc_cache: dict = {}


def _disc_hat(grid: Grid) -> np.ndarray:
    """FFT of the unit-disc indicator on the doubled offset lattice (cached per grid)."""
    key = (grid.L, grid.n)
    hat = _disc_cache.get(key)
    if hat is None:
        mask = (offset_lattice(grid) < 1.0).astype(float)
        hat = kernel_fft(mask)
        _disc_cache[key] = hat
    return hat


@dataclass(frozen=True)
class BarycenterWork:
    uhat: Field
    peak: float
    omega_mask: np.ndarray
    beta0: np.ndarray  # 2-vector
    beta1: float


def local_mass(u: Field, p: float = 2.0) -> Field:
    """uhat(x) = h^2 sum_{|x-y|<1} |u(y)|^p, cells counted by their centers."""
    if p < 1:
        raise ValueError("p must be >= 1")
    grid = u.grid
    if grid.h > MAX_H:
        raise GridResolutionError(
            "unit ball needs radius >= 2h to be resolved; h=%.3g too coarse" % grid.h
        )
    density = np.abs(u.values) ** p
    return Field(grid, padded_convolve(grid, density, _disc_hat(grid)))


def barycenter_work(u: Field, p: float = 2.0) -> BarycenterWork:
    grid = u.grid
    if float(grid.h ** 2 * np.sum(u.values * u.values)) <= 1e-28:
        raise BarycenterUndefinedError("barycenter undefined at 0")
    uhat = local_mass(u, p)
    peak = float(np.max(uhat.values))
    omega = uhat.values > 0.5 * peak  # strict superlevel set
    excess = np.where(omega, uhat.values - 0.5 * peak, 0.0)
    h2 = grid.h * grid.h
    beta1 = float(h2 * np.sum(excess))
    beta0 = h2 * np.array([np.sum(grid.x1 * excess), np.sum(grid.x2 * excess)])
    return BarycenterWork(uhat=uhat, peak=peak, omega_mask=omega, beta0=beta0, beta1=beta1)


def beta(u: Field, p: float = 2.0) -> np.ndarray:
    work = barycenter_work(u, p)
    return work.beta0 / work.beta1

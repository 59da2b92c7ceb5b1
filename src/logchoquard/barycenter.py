"""Generalized barycenter: local unit-ball mass, half-maximum set, weighted centroid.

beta(u) = beta0/beta1 with uhat(x) = int_{B_1(x)} u^2, Omega = {uhat > peak/2},
beta0 = int_Omega x (uhat - peak/2), beta1 = int_Omega (uhat - peak/2) > 0.
Continuous, equivariant under euclidean motions, and invariant under
u -> t u and u -> |u|; the anchor for the recentered metric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BarycenterUndefinedError, GridResolutionError
from .field import Field, Grid

MAX_H = 0.5  # local_mass resolves its unit ball only with radius >= 2h


def _disc_half_widths(grid: Grid) -> np.ndarray:
    """w[r] for r = 0..R: the unit disc holds the cell offsets (r, c) with
    |c| <= w[r], counted by their centers (|(r h, c h)| < 1)."""
    r = np.arange(int(1.0 / grid.h) + 1)
    inside = np.hypot(r[:, None] * grid.h, r[None, :] * grid.h) < 1.0
    widths = np.count_nonzero(inside, axis=1) - 1
    return widths[widths >= 0]


@dataclass(frozen=True)
class BarycenterWork:
    uhat: Field
    peak: float
    omega_mask: np.ndarray
    beta0: np.ndarray  # 2-vector
    beta1: float


def local_mass(u: Field) -> Field:
    """uhat(x) = h^2 sum_{|x-y|<1} u(y)^2, cells counted by their centers.

    Summed directly over the disc as row segments: one prefix sum along
    each row gives the segment sums c-w..c+w of every half-width w, and
    each row offset r of the disc adds its segments shifted by +-r rows.
    """
    grid = u.grid
    if grid.h > MAX_H:
        raise GridResolutionError(
            "unit ball needs radius >= 2h to be resolved; h=%.3g too coarse" % grid.h
        )
    n = grid.n
    widths = _disc_half_widths(grid)[:n]
    W = int(widths[0])
    # rows of pitch M hold prefix[i, W + k] = sum_{c < k} u[i, c]^2 for
    # -W <= k <= n + W; flat, a segment is one slice and a row shift r is r*M
    M = n + 2 * W + 1
    prefix = np.zeros((n, M))
    np.cumsum(u.values * u.values, axis=1, out=prefix[:, W + 1 : W + 1 + n])
    prefix[:, W + 1 + n :] = prefix[:, W + n : W + n + 1]
    flat = prefix.ravel()
    size = (n - 1) * M + n  # flat extent of the n x n cells
    out = np.zeros((n, M))
    acc = out.ravel()
    for r, w in enumerate(widths):
        seg = flat[W + w + 1 : W + w + 1 + size] - flat[W - w : W - w + size]
        span = size - r * M
        acc[:span] += seg[r * M :]
        if r:
            acc[r * M : size] += seg[:span]
    return Field(grid, grid.h * grid.h * out[:, :n])


def barycenter_work(u: Field) -> BarycenterWork:
    grid = u.grid
    if float(grid.h ** 2 * np.sum(u.values * u.values)) <= 1e-28:
        raise BarycenterUndefinedError("barycenter undefined at 0")
    uhat = local_mass(u)
    peak = float(np.max(uhat.values))
    omega = uhat.values > 0.5 * peak  # strict superlevel set
    excess = np.where(omega, uhat.values - 0.5 * peak, 0.0)
    h2 = grid.h * grid.h
    beta1 = float(h2 * np.sum(excess))
    beta0 = h2 * np.array([np.sum(grid.x1 * excess), np.sum(grid.x2 * excess)])
    return BarycenterWork(uhat=uhat, peak=peak, omega_mask=omega, beta0=beta0, beta1=beta1)


def beta(u: Field) -> np.ndarray:
    work = barycenter_work(u)
    return work.beta0 / work.beta1

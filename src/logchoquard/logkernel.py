"""Logarithmic convolution kernels and the bilinear forms B0, B1^tau, B2^tau.

The three kernels are log r, log(e^tau + r) and log(1 + e^tau/r), sampled
on the doubled 2n x 2n offset lattice so that zero-padded FFT products
realize exact *linear* (non-circular) convolutions: the log kernel grows
at infinity, so wraparound would corrupt the far field.

The singular origin cell of log r is replaced by its exact cell mean,
computed by adaptive quadrature of the polar form. The origin cell of
log(1 + e^tau/r) is then fixed as k1(0) - k0(0), which makes the
splitting k1 - k2 = k0 hold pointwise at every offset; the difference
from the true cell mean of that kernel is O(h) and only affects the
B2 form, never B0 itself.

A table builds k0 and its FFT; the tau-split kernels k1, k2 are built on
first read, since only the invariant checks and `convolve` use them.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np
from scipy.integrate import quad

from .errors import FieldDataError, GridMismatchError, GridResolutionError
from .field import Field, Grid, same_grid

_KERNEL_NAMES = {"B0": "k0", "B1": "k1", "B2": "k2"}


def origin_cell_log_mean(h: float) -> float:
    """Mean of log|y| over the h x h cell centered at the origin.

    Polar form over the eight congruent triangles of the square:
    (8/h^2) * int_0^{pi/4} R^2/2 (log R - 1/2) dtheta with R = (h/2)/cos(theta).
    """

    def integrand(theta):
        R = (0.5 * h) / np.cos(theta)
        return 0.5 * R * R * (np.log(R) - 0.5)

    val, _ = quad(integrand, 0.0, 0.25 * np.pi, epsabs=1e-13, epsrel=1e-12)
    return 8.0 * val / (h * h)


def offset_lattice(grid: Grid):
    """Wrapped offsets of the doubled lattice: entry m is ((m+n) mod 2n) - n cells."""
    n = grid.n
    off = ((np.arange(2 * n) + n) % (2 * n)) - n
    o1, o2 = np.meshgrid(off * grid.h, off * grid.h, indexing="ij")
    return np.hypot(o1, o2)


def kernel_fft(kvals: np.ndarray) -> np.ndarray:
    return np.fft.rfft2(kvals)


def padded_convolve(grid: Grid, values: np.ndarray, khat: np.ndarray) -> np.ndarray:
    """h^2 * (K * values) as a linear convolution through the doubled lattice."""
    n = grid.n
    padded = np.zeros((2 * n, 2 * n))
    padded[:n, :n] = values
    out = np.fft.irfft2(np.fft.rfft2(padded) * khat, s=(2 * n, 2 * n))
    return grid.h * grid.h * out[:n, :n]


@dataclass(frozen=True)
class KernelTable:
    grid: Grid
    tau: float
    k0: np.ndarray
    k0_hat: np.ndarray = dc_field(repr=False)

    @cached_property
    def k1(self) -> np.ndarray:
        # smooth; sample directly, k1(0) = tau
        return np.log(np.exp(self.tau) + offset_lattice(self.grid))

    @cached_property
    def k2(self) -> np.ndarray:
        ro = offset_lattice(self.grid)
        k2 = np.log1p(np.exp(self.tau) / np.where(ro == 0.0, 1.0, ro))
        k2[0, 0] = self.tau - self.k0[0, 0]  # k1 - k2 = k0 at the origin cell
        return k2

    @cached_property
    def k1_hat(self) -> np.ndarray:
        return kernel_fft(self.k1)

    @cached_property
    def k2_hat(self) -> np.ndarray:
        return kernel_fft(self.k2)


def make_kernel_table(grid: Grid, tau: float = 0.0) -> KernelTable:
    if tau < 0:
        raise ValueError("tau must be >= 0")
    ro = offset_lattice(grid)
    origin = ro == 0.0
    k0 = np.where(origin, origin_cell_log_mean(grid.h), np.log(np.where(origin, 1.0, ro)))
    return KernelTable(grid=grid, tau=float(tau), k0=k0, k0_hat=kernel_fft(k0))


def _check_table(u: Field, table: KernelTable):
    if u.grid != table.grid:
        raise GridMismatchError("field grid %r does not match kernel table %r" % (u.grid, table.grid))


def log_potential(u_sq: Field, table: KernelTable) -> Field:
    """w(x) = h^2 sum_y log|x-y| u_sq(y): the convolution factor of the equation."""
    _check_table(u_sq, table)
    if np.min(u_sq.values) < -1e-14:
        raise FieldDataError(
            "log_potential expects a squared field; found entries below -1e-14"
        )
    return Field(u_sq.grid, padded_convolve(u_sq.grid, u_sq.values, table.k0_hat))


def _kernel(table: KernelTable, which: str, suffix: str = "") -> np.ndarray:
    """The kernel samples (suffix "") or their FFT (suffix "_hat") of form `which`."""
    if which not in _KERNEL_NAMES:
        raise ValueError("which must be one of %s, got %r" % (tuple(_KERNEL_NAMES), which))
    return getattr(table, _KERNEL_NAMES[which] + suffix)


def b_form(f: Field, g: Field, which: str, table: KernelTable) -> float:
    """h^2 sum f . (K * g) with the selected kernel; symmetric in (f, g)."""
    grid = same_grid(f, g)
    _check_table(f, table)
    conv = padded_convolve(grid, g.values, _kernel(table, which, "_hat"))
    return float(grid.h * grid.h * np.sum(f.values * conv))


def direct_oracle(f: Field, g: Field, which: str, table: KernelTable) -> float:
    """Explicit O(n^4) double sum h^4 sum_x sum_y K(x-y) f(x) g(y).

    Independent of the FFT path; uses the same kernel samples (including
    the corrected origin cell) via wrapped index lookups.
    """
    grid = same_grid(f, g)
    _check_table(f, table)
    n = grid.n
    if n > 64:
        raise GridResolutionError("direct_oracle is O(n^4); refusing n=%d > 64" % n)
    ktab = _kernel(table, which)
    idx = np.arange(n)
    total = 0.0
    for ix in range(n):
        di = (ix - idx) % (2 * n)
        for jx in range(n):
            dj = (jx - idx) % (2 * n)
            w = np.sum(ktab[np.ix_(di, dj)] * g.values)
            total += f.values[ix, jx] * w
    return float(grid.h ** 4 * total)

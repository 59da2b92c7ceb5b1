"""Logarithmic convolution kernels and the bilinear forms B0, B1^tau, B2^tau.

The three kernels are log r, log(e^tau + r) and log(1 + e^tau/r), sampled
on the doubled 2n x 2n offset lattice so that zero-padded FFT products
realize exact *linear* (non-circular) convolutions: the log kernel grows
at infinity, so wraparound would corrupt the far field (Hockney's
free-space zero-padding). Three quarters of the padded input are known
zeros and three quarters of the output are discarded, so the transform is
pruned (Markel, IEEE Trans. Audio Electroacoust. 19, 1971): the row
transforms run on the n input rows only and the inverse row transforms on
the n kept rows only; the result is bit-identical to the full 2n x 2n
transform pair. The transforms run in one complex (2n, n+1) workspace per
thread, so a call allocates only its result: the inverse row transforms
write into the spare half of that workspace, whose column transforms are
done by then.

The singular origin cell of log r is replaced by its exact cell mean,
the closed form log h - (1/2) log 2 + pi/4 - 3/2. The origin cell of
log(1 + e^tau/r) is then fixed as k1(0) - k0(0), which makes the
splitting k1 - k2 = k0 hold pointwise at every offset; the difference
from the true cell mean of that kernel is O(h) and only affects the
B2 form, never B0 itself.

A table builds the FFT of k0 only. The samples of k0 and the tau-split
kernels k1, k2 are built on first read, since only the invariant checks,
the direct oracle and `convolve` use them.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from .errors import FieldDataError, GridMismatchError, GridResolutionError
from .field import Field, Grid, same_grid

_KERNEL_NAMES = {"B0": "k0", "B1": "k1", "B2": "k2"}


def origin_cell_log_mean(h: float) -> float:
    """Mean of log|y| over the h x h cell centered at the origin.

    Integrating the polar form over the eight congruent triangles of the
    square, (8/h^2) * int_0^{pi/4} R^2/2 (log R - 1/2) dtheta with
    R = (h/2)/cos(theta), gives log h - (1/2) log 2 + pi/4 - 3/2.
    """
    return np.log(h) - 0.5 * np.log(2.0) + 0.25 * np.pi - 1.5


def offset_lattice(grid: Grid):
    """Wrapped offsets of the doubled lattice: entry m is ((m+n) mod 2n) - n cells."""
    n = grid.n
    off = ((np.arange(2 * n) + n) % (2 * n)) - n
    o1, o2 = np.meshgrid(off * grid.h, off * grid.h, indexing="ij")
    return np.hypot(o1, o2)


def kernel_fft(kvals: np.ndarray) -> np.ndarray:
    return np.fft.rfft2(kvals)


def padded_convolve(grid: Grid, values: np.ndarray, khat: np.ndarray) -> np.ndarray:
    """h^2 * (K * values) as a linear convolution through the doubled lattice.

    values is zero-padded to 2n x 2n by the transform lengths: the last
    axis is transformed on the n input rows, the first axis on all 2n
    frequency rows; the inverse keeps only the first n rows before the last
    axis is transformed back. The transforms run in the calling thread's
    workspace (_workspace): the row transforms fill its first n rows and
    the other n are zeroed, the column transforms and the product with
    khat work in place, and the inverse row transforms write the kept rows
    into the spare second half, viewed as float. The arithmetic is that of
    the freshly allocated transform pair, so the result is bit-identical
    to it; only the returned array is new.
    """
    n = grid.n
    if values.shape != (n, n):
        raise GridMismatchError("values shape %s does not match grid n=%d" % (values.shape, n))
    spec = _workspace(n)
    np.fft.rfft(values, n=2 * n, axis=-1, out=spec[:n])
    spec[n:] = 0.0
    np.fft.fft(spec, axis=-2, out=spec)
    spec *= khat
    np.fft.ifft(spec, axis=-2, out=spec)
    out = spec[n:].view(np.float64)[:, : 2 * n]
    np.fft.irfft(spec[:n], n=2 * n, axis=-1, out=out)
    return grid.h * grid.h * out[:, :n]


_local = threading.local()


def _workspace(n: int) -> np.ndarray:
    """This thread's complex (2n, n+1) transform buffer, rebuilt when n changes.

    One buffer per thread, since the descents of a multistart convolve
    side by side; reusing it spares each call the allocation, and the page
    faults, of its half-megabyte (at n=128) of spectra.
    """
    spec = getattr(_local, "spec", None)
    if spec is None or spec.shape[0] != 2 * n:
        spec = _local.spec = np.empty((2 * n, n + 1), dtype=np.complex128)
    return spec


def _log_samples(grid: Grid) -> np.ndarray:
    """log r on the doubled lattice, the origin cell replaced by its cell mean."""
    ro = offset_lattice(grid)
    origin = ro == 0.0
    return np.where(origin, origin_cell_log_mean(grid.h), np.log(np.where(origin, 1.0, ro)))


@dataclass(frozen=True)
class KernelTable:
    grid: Grid
    tau: float
    k0_hat: np.ndarray = dc_field(repr=False)

    @cached_property
    def k0(self) -> np.ndarray:
        # the samples k0_hat was built from; only the checks, k2's origin
        # cell and direct_oracle read them
        return _log_samples(self.grid)

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
    if not (np.isfinite(tau) and tau >= 0):
        raise ValueError("tau must be finite and >= 0")
    return KernelTable(grid=grid, tau=float(tau), k0_hat=kernel_fft(_log_samples(grid)))


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

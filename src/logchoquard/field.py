"""Discrete fields on a truncated plane and the norms of H^1 and X.

Functions live on a uniform n x n sampling of the box [-L, L)^2 with
spacing h = 2L/n and are extended by zero outside the box. The discrete
gradient uses forward differences at the cell interfaces (second-order
centered there, with zero Dirichlet extension), so that the induced
discrete Laplacian is the standard 5-point stencil and summation by
parts is exact.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FieldDataError, GridMismatchError, GridResolutionError

MAGIC = b"CHQ1"


class Grid:
    """Uniform sampling of [-L, L)^2: points x_ij = (-L + i h, -L + j h)."""

    __slots__ = ("L", "n", "h", "x1", "x2", "r", "_axis")

    def __init__(self, L: float, n: int):
        if n < 16 or n % 2:
            raise GridResolutionError("n must be even and >= 16, got %d" % n)
        if not (L > 0 and np.isfinite(L)):
            raise FieldDataError("box half-width must be positive and finite")
        self.L = float(L)
        self.n = int(n)
        self.h = 2.0 * self.L / self.n
        self._axis = -self.L + self.h * np.arange(self.n)
        self.x1, self.x2 = np.meshgrid(self._axis, self._axis, indexing="ij")
        self.r = np.hypot(self.x1, self.x2)

    @property
    def axis(self) -> np.ndarray:
        return self._axis

    def __eq__(self, other):
        return isinstance(other, Grid) and self.L == other.L and self.n == other.n

    def __hash__(self):
        return hash((self.L, self.n))

    def __repr__(self):
        return "Grid(L=%g, n=%d)" % (self.L, self.n)


@dataclass(frozen=True)
class Field:
    """Samples of a function on a Grid; zero outside the box by convention."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n, self.grid.n):
            raise FieldDataError(
                "values shape %s does not match grid n=%d" % (vals.shape, self.grid.n)
            )
        if not np.all(np.isfinite(vals)):
            raise FieldDataError("field contains non-finite samples")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class NormReport:
    l2_sq: float
    grad_sq: float
    h1_sq: float
    star_sq: float
    x_sq: float


def same_grid(u: Field, v: Field) -> Grid:
    if u.grid != v.grid:
        raise GridMismatchError("fields live on different grids: %r vs %r" % (u.grid, v.grid))
    return u.grid


def _dx(vals: np.ndarray, h: float) -> np.ndarray:
    # forward differences at the n+1 cell interfaces along axis 0, zero outside
    return np.diff(vals, axis=0, prepend=0.0, append=0.0) / h


def _dy(vals: np.ndarray, h: float) -> np.ndarray:
    return np.diff(vals, axis=1, prepend=0.0, append=0.0) / h


def lp_norm(u: Field, p: float) -> float:
    """(h^2 sum |u|^p)^(1/p)."""
    if not (p >= 1 and np.isfinite(p)):
        raise ValueError("p must be finite and >= 1")
    h = u.grid.h
    return float((h * h * np.sum(np.abs(u.values) ** p)) ** (1.0 / p))


def grad_norm_sq(u: Field) -> float:
    """h^2 sum |Du|^2 with interface-staggered differences, zero extension."""
    h = u.grid.h
    d1 = _dx(u.values, h)
    d2 = _dy(u.values, h)
    return float(h * h * (np.sum(d1 * d1) + np.sum(d2 * d2)))


def star_norm_sq(u: Field) -> float:
    """h^2 sum log(1+|x|) u^2 — the translation-sensitive part of the X norm."""
    h = u.grid.h
    return float(h * h * np.sum(np.log1p(u.grid.r) * u.values * u.values))


def norms(u: Field) -> NormReport:
    h = u.grid.h
    l2 = float(h * h * np.sum(u.values * u.values))
    gr = grad_norm_sq(u)
    st = star_norm_sq(u)
    return NormReport(l2_sq=l2, grad_sq=gr, h1_sq=l2 + gr, star_sq=st, x_sq=l2 + gr + st)


def grad_inner(u: Field, v: Field) -> float:
    """h^2 sum Du . Dv at the cell interfaces."""
    h = same_grid(u, v).h
    return float(
        h
        * h
        * (
            np.sum(_dx(u.values, h) * _dx(v.values, h))
            + np.sum(_dy(u.values, h) * _dy(v.values, h))
        )
    )


def l2_inner(u: Field, v: Field) -> float:
    h = same_grid(u, v).h
    return float(h * h * np.sum(u.values * v.values))


def x_inner(u: Field, v: Field) -> float:
    """H^1 inner product plus the log(1+|x|)-weighted L^2 product."""
    g = same_grid(u, v)
    h = g.h
    uv = u.values * v.values
    weighted = float(h * h * np.sum((1.0 + np.log1p(g.r)) * uv))
    return grad_inner(u, v) + weighted


def neighbour_sum(vals: np.ndarray) -> np.ndarray:
    """Sum of the four lattice neighbours with zero extension: the 5-point stencil's off-diagonal.

    Each axis pair is summed with one np.add into its own buffer; slice-wise
    accumulation into one zeroed array takes twice as long.
    """
    vert = np.empty_like(vals)
    np.add(vals[:-2], vals[2:], out=vert[1:-1])
    vert[0], vert[-1] = vals[1], vals[-2]
    horz = np.empty_like(vals)
    np.add(vals[:, :-2], vals[:, 2:], out=horz[:, 1:-1])
    horz[:, 0], horz[:, -1] = vals[:, 1], vals[:, -2]
    vert += horz
    return vert


def neg_laplacian(vals: np.ndarray, h: float) -> np.ndarray:
    """5-point -Delta with zero Dirichlet extension; adjoint-exact for grad_norm_sq."""
    return (4.0 * vals - neighbour_sum(vals)) / (h * h)


def shift_cells(u: Field, di: int, dj: int) -> Field:
    """Translate by (di*h, dj*h): u(. - b) with zero fill at the exposed edge."""
    vals = u.values
    out = np.zeros_like(vals)
    n = u.grid.n
    di, dj = int(di), int(dj)
    if abs(di) >= n or abs(dj) >= n:
        return Field(u.grid, out)
    src_i = slice(max(0, -di), min(n, n - di))
    dst_i = slice(max(0, di), min(n, n + di))
    src_j = slice(max(0, -dj), min(n, n - dj))
    dst_j = slice(max(0, dj), min(n, n + dj))
    out[dst_i, dst_j] = vals[src_i, src_j]
    return Field(u.grid, out)


def gaussian_field(grid: Grid, width: float = 1.0, center=(0.0, 0.0), amplitude: float = 1.0) -> Field:
    """amplitude * exp(-|x - center|^2 / (2 width^2))."""
    d2 = (grid.x1 - center[0]) ** 2 + (grid.x2 - center[1]) ** 2
    return Field(grid, amplitude * np.exp(-d2 / (2.0 * width * width)))


def bump_field(grid: Grid, center=(0.0, 0.0), radius: float = 0.5, amplitude: float = 1.0) -> Field:
    """Smooth compactly supported mollifier bump: amp * e^(1 - 1/(1 - s^2)), s = |x-c|/radius."""
    s2 = ((grid.x1 - center[0]) ** 2 + (grid.x2 - center[1]) ** 2) / (radius * radius)
    vals = np.zeros_like(s2)
    inside = s2 < 1.0
    vals[inside] = amplitude * np.exp(1.0 - 1.0 / (1.0 - s2[inside]))
    return Field(grid, vals)


def save_field(path, u: Field) -> None:
    """Dump: magic 'CHQ1', u32 n, f64 L, then n^2 little-endian f64 row-major."""
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Id", u.grid.n, u.grid.L))
        fh.write(np.ascontiguousarray(u.values, dtype="<f8").tobytes())


def load_field(path) -> Field:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise FieldDataError("bad magic %r in %s (expected %r)" % (magic, path, MAGIC))
        header = fh.read(12)
        if len(header) != 12:
            raise FieldDataError("truncated field dump header in %s" % path)
        n, L = struct.unpack("<Id", header)
        # size the read only after the file is known to hold it: a corrupt n
        # would otherwise ask for up to 8 * (2^32)^2 bytes
        if os.fstat(fh.fileno()).st_size - 16 < 8 * n * n:
            raise FieldDataError("truncated field dump payload in %s" % path)
        raw = fh.read(8 * n * n)
        if len(raw) != 8 * n * n:
            raise FieldDataError("truncated field dump payload in %s" % path)
        vals = np.frombuffer(raw, dtype="<f8").reshape(n, n).astype(float)
    return Field(Grid(L, n), vals)

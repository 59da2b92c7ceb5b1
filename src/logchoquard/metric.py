"""The u-dependent inner product and the Riesz gradient.

<v, w>_u is the X inner product recentered at the barycenter beta(u):
instead of resampling v and w, the log weight is shifted — the forms are
algebraically equal on the continuum and the shifted-weight version is
grid-exact under integer-cell translations.

The Riesz representative of Phi'(u) solves the SPD system
A_u g = r,  A_u = -Delta + 1 + log(1+|x-beta(u)|),  r = residual_field(u),
by Jacobi-preconditioned conjugate gradients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .barycenter import beta as barycenter_beta
from .errors import BarycenterUndefinedError, RieszSolveError
from .field import Field, Grid, grad_inner, lp_norm, neg_laplacian, same_grid
from .functionals import Potential, residual_field
from .logkernel import KernelTable


@dataclass(frozen=True)
class MetricContext:
    grid: Grid
    center: np.ndarray  # beta(u), 2-vector
    weight: Field  # log(1 + |x - center|)


def metric_context_at(grid: Grid, center) -> MetricContext:
    center = np.asarray(center, dtype=float)
    dist = np.hypot(grid.x1 - center[0], grid.x2 - center[1])
    return MetricContext(grid=grid, center=center, weight=Field(grid, np.log1p(dist)))


def metric_context(u: Field) -> MetricContext:
    return metric_context_at(u.grid, barycenter_beta(u))


def inner_u(ctx: MetricContext, v: Field, w: Field) -> float:
    grid = same_grid(v, w)
    vw = v.values * w.values
    weighted = float(grid.h * grid.h * np.sum((1.0 + ctx.weight.values) * vw))
    return grad_inner(v, w) + weighted


def norm_u(ctx: MetricContext, v: Field) -> float:
    return float(np.sqrt(inner_u(ctx, v, v)))


def apply_metric_operator(ctx: MetricContext, vals: np.ndarray) -> np.ndarray:
    """A_u v = -Delta v + v + weight * v on raw samples."""
    return neg_laplacian(vals, ctx.grid.h) + (1.0 + ctx.weight.values) * vals


def solve_metric_system(
    ctx: MetricContext,
    rhs: np.ndarray,
    tol: float,
    x0: np.ndarray | None = None,
    max_iter: int | None = None,
    free: np.ndarray | None = None,
):
    """Jacobi-preconditioned CG for A_u x = rhs; returns (x, achieved_rel_residual).

    The +1 mass term keeps A_u well-conditioned at desk scales; the cap is
    10*n iterations. The returned residual is recomputed from x (not the
    CG recursion, which drifts below the attainable floor near 1e-16).

    free, a boolean mask, restricts the solve to the cells it marks: x is
    held at zero elsewhere and the system solved is the compression of A_u
    to the marked cells (rhs off them is ignored). Passing the cells that a
    symmetry action preserves makes the restricted A_u commute with that
    action, so an invariant rhs gives an invariant x.
    """
    grid = ctx.grid
    if max_iter is None:
        max_iter = 10 * grid.n

    def apply(vals):
        out = apply_metric_operator(ctx, vals)
        return out if free is None else np.where(free, out, 0.0)

    diag = 4.0 / (grid.h * grid.h) + 1.0 + ctx.weight.values
    x = np.zeros_like(rhs) if x0 is None else x0.copy()
    if free is not None:
        rhs = np.where(free, rhs, 0.0)
        x = np.where(free, x, 0.0)
    r = rhs - apply(x)
    z = r / diag
    p = z.copy()
    rz = float(np.sum(r * z))
    rhs_norm = float(np.sqrt(np.sum(rhs * rhs)))
    if rhs_norm == 0.0:
        return np.zeros_like(rhs), 0.0
    rel = float(np.sqrt(np.sum(r * r))) / rhs_norm
    for _ in range(max_iter):
        if rel <= tol:
            break
        Ap = apply(p)
        alpha = rz / float(np.sum(p * Ap))
        x += alpha * p
        r -= alpha * Ap
        rel = float(np.sqrt(np.sum(r * r))) / rhs_norm
        z = r / diag
        rz_new = float(np.sum(r * z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    true_r = rhs - apply(x)
    return x, float(np.sqrt(np.sum(true_r * true_r))) / rhs_norm


def riesz_gradient(u: Field, pot: Potential, table: KernelTable, tol: float = 1e-10):
    """Solve <g, v>_u = Phi'(u) v for all v; returns (g, ||g||_u)."""
    if lp_norm(u, 2) <= 1e-14:
        raise BarycenterUndefinedError("riesz gradient undefined at 0 (no barycenter)")
    ctx = metric_context(u)
    r = residual_field(u, pot, table)
    g_vals, rel = solve_metric_system(ctx, r.values, tol)
    if rel > tol:
        raise RieszSolveError(
            "metric solve stalled at relative residual %.3g (tol %.3g)" % (rel, tol),
            residual=rel,
        )
    g = Field(u.grid, g_vals)
    return g, norm_u(ctx, g)


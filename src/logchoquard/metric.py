"""The u-dependent inner product and the Riesz gradient.

<v, w>_u is the X inner product recentered at the barycenter beta(u):
instead of resampling v and w, the log weight is shifted — the forms are
algebraically equal on the continuum and the shifted-weight version is
grid-exact under integer-cell translations.

The Riesz representative of Phi'(u) solves the SPD system
A_u g = r,  A_u = -Delta + 1 + log(1+|x-beta(u)|),  r = residual_field(u),
by conjugate gradients preconditioned with a fast Poisson solver: the exact
inverse of -Delta + 1 + c, c the mean log weight, which the sine transform
(DST-I) diagonalises (Concus & Golub, SIAM J. Numer. Anal. 10, 1973).
The descent's Newton solve reuses it with the mass shifted to the mean of
its own potential (preconditioner), and both run the one CG loop, pcg.

A_u is the 5-point stencil of field.neg_laplacian with the diagonal
4/h^2 + 1 + weight cached in the context. The inner product is
<v, w>_u = h^2 <v, A_u w>: summation by parts is exact for the zero-extended
staggered gradient, so this equals the gradient form of the X product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .barycenter import beta as barycenter_beta
from .errors import BarycenterUndefinedError, RieszSolveError
from .field import Field, Grid, lp_norm, neighbour_sum, same_grid
from .functionals import Potential, residual_field
from .logkernel import KernelTable


@dataclass(frozen=True)
class MetricContext:
    grid: Grid
    center: np.ndarray  # beta(u), 2-vector
    weight: Field  # log(1 + |x - center|)
    diag: np.ndarray  # 4/h^2 + 1 + weight, the diagonal of A_u


def metric_context_at(grid: Grid, center) -> MetricContext:
    center = np.asarray(center, dtype=float)
    weight = np.log1p(np.hypot(grid.x1 - center[0], grid.x2 - center[1]))
    diag = (4.0 / (grid.h * grid.h) + 1.0) + weight
    return MetricContext(grid=grid, center=center, weight=Field(grid, weight), diag=diag)


def metric_context(u: Field) -> MetricContext:
    return metric_context_at(u.grid, barycenter_beta(u))


def lower_u(ctx: MetricContext, vals: np.ndarray) -> np.ndarray:
    """h^2 A_u vals, the flat covector of vals: <v, w>_u = v . lower_u(ctx, w).

    The stencil of apply_metric_operator written out: the solve counts its
    CG iterations by calls of apply_metric_operator, so the inner product
    does not call it.
    """
    h = ctx.grid.h
    out = ctx.diag * vals
    out *= h * h
    out -= neighbour_sum(vals)
    return out


def inner_u(ctx: MetricContext, v: Field, w: Field) -> float:
    """h^2 <v, A_u w>."""
    same_grid(v, w)
    return float(np.vdot(v.values, lower_u(ctx, w.values)))


def norm_u(ctx: MetricContext, v: Field) -> float:
    return float(np.sqrt(inner_u(ctx, v, v)))


def apply_metric_operator(ctx: MetricContext, vals: np.ndarray) -> np.ndarray:
    """A_u v = -Delta v + v + weight * v on raw samples: diag * v - (neighbour sum) / h^2."""
    h = ctx.grid.h
    return ctx.diag * vals - neighbour_sum(vals) / (h * h)


@lru_cache(maxsize=8)
def _sine_basis(m: int):
    """Orthonormal DST-I matrix S (S = S.T = S^-1) and the eigenvalues of the
    1-D Dirichlet second difference at h = 1, 2 - 2cos(pi k/(m+1))."""
    k = np.arange(1, m + 1)
    s = np.sqrt(2.0 / (m + 1)) * np.sin(np.pi * np.outer(k, k) / (m + 1))
    lam = 2.0 - 2.0 * np.cos(np.pi * k / (m + 1))
    s.flags.writeable = False
    lam.flags.writeable = False
    return s, lam


def preconditioner(ctx: MetricContext, potential: np.ndarray | None = None):
    """r -> z = (-Delta + mu)^-1 r, the fast Poisson solve; mu = 1 + c, c the mean weight.

    The preconditioner of solve_metric_system (no potential). The descent's
    Newton solve passes the potential a + w0 of its Hessian: mu is then its
    mean, floored at 1 + c, the mean-coefficient inverse of
    -Delta + potential (Concus & Golub), positive definite however
    indefinite the potential is, and far above the metric's mass at a
    solution. Exact for the 5-point Laplacian with zero extension, whose
    eigenvectors are products of sines; dense sine matrices beat an FFT DST
    at these sizes (2n+2 = 258 has the factor 43).
    """
    s, lam = _sine_basis(ctx.grid.n)
    h2 = ctx.grid.h * ctx.grid.h
    mass = 1.0 + float(np.mean(ctx.weight.values))
    if potential is not None:
        mass = max(mass, float(np.mean(potential)))
    inv = 1.0 / ((lam[:, None] + lam[None, :]) / h2 + mass)

    def apply(r):
        t = s @ r @ s
        t *= inv
        return s @ t @ s

    return apply


def _norm(vals: np.ndarray) -> float:
    return float(np.sqrt(np.vdot(vals, vals)))


def pcg(apply, precondition, r, x, stop, max_iter, callback=None) -> int:
    """Preconditioned CG from x with residual r = rhs - apply(x); returns the apply calls.

    x and r are updated in place. The loop stops once |r| <= stop (tested
    before the preconditioner, whose z would go unread), after max_iter
    calls of apply, or when r.z or p.Ap is no longer positive: an exactly
    zero residual, rounding, or an operator that is not positive definite
    along p, in which case x keeps the iterate so far (Steihaug, SIAM J.
    Numer. Anal. 20, 1983). callback(x), if given, runs after each update,
    as in scipy.sparse.linalg.cg.
    """
    if _norm(r) <= stop:
        return 0
    z = precondition(r)
    p = z.copy()
    rz = float(np.vdot(r, z))
    calls = 0
    while calls < max_iter and rz > 0.0:
        ap = apply(p)
        calls += 1
        pap = float(np.vdot(p, ap))
        if not pap > 0.0:
            break
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        if callback is not None:
            callback(x)
        if _norm(r) <= stop:
            break
        z = precondition(r)
        rz_new = float(np.vdot(r, z))
        p *= rz_new / rz
        p += z
        rz = rz_new
    return calls


def solve_metric_system(
    ctx: MetricContext,
    rhs: np.ndarray,
    tol: float,
    x0: np.ndarray | None = None,
    max_iter: int | None = None,
    strict: bool = False,
    callback=None,
):
    """pcg for A_u x = rhs; returns (x, achieved_rel_residual).

    The fast Poisson preconditioner makes the
    iteration count depends on the spread of the log weight, not on n; the
    cap is 10*n iterations. The returned residual is recomputed from x (not
    the CG recursion, which drifts below the attainable floor near 1e-16).

    This is the one Riesz path: the descent and riesz_gradient solve with
    strict=True, which raises RieszSolveError (carrying .residual) when the
    residual misses tol; without it the residual reached is returned, for
    deliberately capped solves. callback is pcg's, so a caller can count
    the CG iterations.
    """
    grid = ctx.grid
    if max_iter is None:
        max_iter = 10 * grid.n

    def apply(vals):
        return apply_metric_operator(ctx, vals)

    x = np.zeros_like(rhs) if x0 is None else x0.copy()
    r = rhs - apply(x)
    rhs_norm = _norm(rhs)
    if rhs_norm == 0.0:
        return np.zeros_like(rhs), 0.0
    pcg(apply, preconditioner(ctx), r, x, tol * rhs_norm, max_iter, callback)
    rel = _norm(rhs - apply(x)) / rhs_norm
    if strict and rel > tol:
        raise RieszSolveError(
            "metric solve stalled at relative residual %.3g (tol %.3g)" % (rel, tol),
            residual=rel,
        )
    return x, rel


def riesz_gradient(
    u: Field,
    pot: Potential,
    table: KernelTable,
    tol: float = 1e-10,
):
    """Solve <g, v>_u = Phi'(u) v for all v; returns (g, ||g||_u)."""
    if lp_norm(u, 2) <= 1e-14:
        raise BarycenterUndefinedError("riesz gradient undefined at 0 (no barycenter)")
    ctx = metric_context(u)
    r = residual_field(u, pot, table)
    g_vals, _ = solve_metric_system(ctx, r.values, tol, strict=True)
    g = Field(u.grid, g_vals)
    return g, norm_u(ctx, g)


"""Nehari-constrained descent and the multistart search for symmetric solutions.

The descent minimizes Phi on the constraint {J = q_a + V0 = 0, V0 < 0}
through the reduced energy Psi(x) = Phi(sigma(x)) = -q_a(x)^2 / (4 V0(x)),
sigma the rescaling along the ray onto the manifold (exact by homogeneity:
q_a -> t^2 q_a, V0 -> t^4 V0). On the manifold Psi'(u) = Phi'(u) (Szulkin
& Weth, The method of Nehari manifold, 2010), so the metric (Riesz)
gradient of Phi at an iterate is Psi's. Each iteration solves one metric
system for its Cerami value, loosely: A_u >= I bounds the error by the
solve's own residual, so the value is a certified upper bound, and it
alone can end the descent as converged. It then takes an Armijo step on
Psi, with the exact slope Phi'(u) d = h^2 r.d, onto the manifold again.

Every row, the first included, steps along a truncated Newton-CG solve
of H d = r, H the second variation of Phi corrected along the ray (the
Hessian of Psi at a critical point). Its PCG stops at a relative
residual of the order of the row's Cerami value, so the tail is
quadratic. It is preconditioned by a fast Poisson solve whose mass is the
mean of the Hessian's potential a + w0, which sits far above the metric's
mass at a solution; with that shift a Newton row is cheap enough far
from a critical point too, and its exit at negative curvature leaves it
a descent direction. The u-metric enters the descent in _cerami alone,
for the Cerami value.

Starts come from families of disjoint mollifier bumps placed and
symmetrized according to the group action. Trivial and lattice bumps sit
on the critical points of the sampled a, one per kind (minimum, maximum,
saddle): the three lowest Ljusternik-Schnirelmann orbits of a Z^2-periodic
a sit there, and no two such starts are translates under a period of a.
Every seed dilates into O about the point its symmetry fixes (the origin
under a projecting action, its own site otherwise), so starts keep their
sites.
The descents of the starts are independent: with OpenBLAS pinned to one
thread they run side by side, one thread per free core, and give the
bytes they give one after the other.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field as dc_field, replace
from typing import List, Optional

import numpy as np

from .barycenter import beta as barycenter_beta
from .blas import blas_threads
from .errors import (
    DESCENT_ERRORS,
    AdmissibilityError,
    DegenerateNehariError,
    GroundStateError,
    LineSearchError,
    StartFamilyError,
)
from .field import Field, bump_field, lp_norm, neg_laplacian
from .functionals import (
    EnergyBreakdown,
    NehariClass,
    Potential,
    cerami_weight,
    classify,
    hessian_product,
    in_nzero,
    nehari_scale,
    nehari_terms,
    q_a_bilinear,
)
from .logkernel import KernelTable, log_potential, padded_convolve
from .metric import metric_context_at, norm_u, pcg, preconditioner, solve_metric_system
from .symmetry import (
    GroupAction,
    InvarianceCertificate,
    KIND_GLIDE,
    KIND_LATTICE,
    KIND_ROTATION,
    check_admissible,
    is_invariant,
    orbit_distance,
    project_invariant,
)

DEDUP_REL = 1e-4  # orbit_distance <= DEDUP_REL * |u|_2 collapses two results
NEWTON_CG_TOL = 0.1  # cap on the forcing term (relative residual) of the Newton PCG
LOOSE_RIESZ_TOL = 1e-2  # relative residual of every descent solve; _cerami bounds its error
# Armijo backtracking: the first and largest step, its halving factor and the
# sufficient-decrease constant c1 (Nocedal & Wright, Numerical Optimization, 2006)
STEP_INIT = 1.0
BACKTRACK_FACTOR = 0.5
ARMIJO_C = 1e-4
# a vertex of the grid is stationary when the two halves of its 2x2 block
# of a samples agree, across either axis, within STATIONARY_REL *
# max(1, sup |a|): rounding moves the samples of a block that is symmetric
# about its vertex by a few 1e-16 |a|, while a vertex one cell off a
# critical point moves them by the order of a's own variation
STATIONARY_REL = 1e-12


@dataclass(frozen=True)
class SolveConfig:
    max_iters: int = 1200
    cerami_tol: float = 1e-6
    tau_split: float = 0.0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not (np.isfinite(self.cerami_tol) and self.cerami_tol > 0):
            raise ValueError("cerami_tol must be finite and > 0")
        if not (np.isfinite(self.tau_split) and self.tau_split >= 0):
            raise ValueError("tau_split must be finite and >= 0")


@dataclass
class SolveResult:
    u: Field
    breakdown: EnergyBreakdown
    cerami: float
    nehari: NehariClass
    certificate: InvarianceCertificate
    iters: int
    converged: bool
    trace: List[tuple] = dc_field(default_factory=list)
    start_index: Optional[int] = None


@dataclass(frozen=True)
class StartFamily:
    bumps: List[Field]  # the seeds as placed
    starts: List[Field]  # the T_t image of each seed that starts a descent


# alpha: the accepted step; backtracks: how often it was halved; direction:
# NEWTON on every row that steps. A row that takes no step (the last one of
# a converged descent, or one whose line search fails) records 0, 0, 0 there.
# cg: the CG iterations of the row's one metric solve; hess: the Hessian
# products of its Newton solve.
TRACE_COLUMNS = (
    "iter", "phi", "q_a", "v0", "nehari_j", "cerami_weight", "residual_l2",
    "alpha", "backtracks", "direction", "cg", "hess",
)
NEWTON = 2


class _Iterate:
    """The descent iterate of (u, w0), w0 = log * u^2, rescaled onto {J = 0}.

    q_a (by the stencil), V0 = h^2 sum u^2 w0 and the residual field
    r = -Delta u + (a + w0) u all come from u and w0, so an iterate is a
    function of its state alone. The rescale along the ray is exact
    (q_a ~ t^2, V0 ~ t^4, w0 ~ t^2), and Phi = q_a/2 + V0/4. Only the start
    passes no w0 and pays its convolution; _line_search updates w0 exactly,
    and _finish reads the result's energy off the last iterate.
    """

    def __init__(self, u: np.ndarray, w0: Optional[np.ndarray], pot: Potential, table: KernelTable):
        grid = self.grid = pot.a.grid
        h2 = grid.h * grid.h
        if w0 is None:
            w0 = log_potential(Field(grid, u * u), table).values
        qa = q_a_bilinear(Field(grid, u), Field(grid, u), pot)
        v0 = h2 * float(np.vdot(u * u, w0))
        t = nehari_scale(qa, v0)
        self.u, self.w0 = t * u, t * t * w0
        self.qa, self.v0 = t * t * qa, t ** 4 * v0
        self.phi = 0.5 * self.qa + 0.25 * self.v0
        self.r = neg_laplacian(self.u, grid.h)
        self.r += (pot.a.values + self.w0) * self.u
        if in_nzero(self.v0, h2 * float(np.vdot(self.u, self.u))):
            raise DegenerateNehariError(
                "degenerate Nehari direction: |V0| = %.3g below threshold" % abs(self.v0)
            )


def _newton_direction(st: _Iterate, eta: float, action, pot, table):
    """Truncated PCG on H d = st.r; returns d, its slope Psi'(u) d, the H
    products and log * (u d).

    H = Phi''(u) - b b^T / <u, b> with b = Phi''(u) u = r + 2 w0 u, which
    costs no convolution: H is symmetric, H u = 0, and at a critical point
    it is the Hessian of Psi, so the ray drops out and Newton's quadratic
    tail is Psi's. <u, b> = 2 V0 < 0 on {J = 0}; where rounding leaves it
    >= 0 (a vanishing iterate) DegenerateNehariError is raised. Each
    product is one convolution, log * (u p), and metric.pcg sums those
    images as it sums x = sum alpha_k p_k, so the solve also gives
    log * (u d) for _line_search. metric.pcg (Steihaug's truncated CG) is
    preconditioned by the fast Poisson solve M^-1 whose mass is the box
    mean of H's potential a + w0, floored at 1, the mass of
    M0 = -Delta_h + 1, which A_u dominates (metric.preconditioner). It
    stops at relative residual eta (the row's forcing term, see descend),
    at the first p.Hp <= 0, or after n products, and never steps along
    negative curvature: d is the iterate so far, or p = M^-1 r at the
    first product, whose slope h^2 r.M^-1 r is positive whenever r != 0.
    Under a projecting action H and the preconditioner commute with the
    action, so x is invariant and is projected once, against rounding,
    before its slope is taken. u d is then invariant without the sign
    character, and the index maps commute with the k0 convolution, so the
    summed image is projected by the untwisted group average: left
    unprojected, its rounding enters w0 and grows row by row.
    """
    grid = st.grid
    h2 = grid.h * grid.h
    u, w0 = Field(grid, st.u), Field(grid, st.w0)
    r = st.r
    precondition = preconditioner(grid, max(1.0, float(np.mean(pot.a.values + st.w0))))
    b = r + 2.0 * st.w0 * st.u
    ub = float(np.vdot(st.u, b))
    if not ub < 0.0:
        raise DegenerateNehariError("degenerate Nehari direction: u.b = %.3g is not negative" % ub)

    def hess(vals):
        uv = padded_convolve(grid, st.u * vals, table.k0_hat)
        out = hessian_product(u, Field(grid, vals), pot, table, w0, uv).values
        out -= (float(np.vdot(b, vals)) / ub) * b
        return out, uv

    res = r.copy()
    stop = eta * float(np.sqrt(np.vdot(res, res)))
    x = np.zeros_like(res)
    kcross = np.zeros_like(res)
    products = pcg(hess, precondition, res, x, stop, grid.n, image=kcross)
    d = Field(grid, x)
    if action.has_projection:
        d = project_invariant(d, action)
        untwisted = replace(action, zeta_nontrivial=False)
        kcross = project_invariant(Field(grid, kcross), untwisted).values
    return d, h2 * float(np.vdot(r, d.values)), products, kcross


def _line_search(st: _Iterate, d: Field, slope: float, pot, table, kcross):
    """Armijo backtracking on Psi along u - alpha*d from alpha = STEP_INIT.

    q_a is quadratic and V0 quartic in alpha; evaluating the on-manifold
    decrease from these exact coefficients avoids the large-scale
    cancellation that floors a direct re-evaluation of Phi. The two
    images behind them also update w0 exactly:
    log * (u - alpha d)^2 = w0 - 2 alpha log * (u d) + alpha^2 log * d^2.
    kcross = log * (u d) comes from the Newton solve (_newton_direction),
    so a step pays one convolution, log * d^2. Returns the _Iterate of the
    accepted point, alpha and the number of halvings before it was
    accepted; st is not changed.
    """
    grid = st.grid
    h2 = grid.h * grid.h
    c1 = q_a_bilinear(Field(grid, st.u), d, pot)
    c2 = q_a_bilinear(d, d, pot)
    cross = st.u * d.values
    wsq = d.values * d.values
    kwsq = padded_convolve(grid, wsq, table.k0_hat)
    b0c = h2 * float(np.sum(cross * st.w0))
    b0w = h2 * float(np.sum(wsq * st.w0))
    bcc = h2 * float(np.sum(cross * kcross))
    bcw = h2 * float(np.sum(wsq * kcross))
    bww = h2 * float(np.sum(wsq * kwsq))
    del cross, wsq  # only kcross and kwsq build the next iterate
    qa, v0 = st.qa, st.v0
    alpha = STEP_INIT
    for backtracks in range(60):
        dq = -2.0 * alpha * c1 + alpha * alpha * c2
        dv = (
            -4.0 * alpha * b0c
            + alpha * alpha * (4.0 * bcc + 2.0 * b0w)
            - 4.0 * alpha ** 3 * bcw
            + alpha ** 4 * bww
        )
        qa_t, v0_t = qa + dq, v0 + dv
        if qa_t > 0 and v0_t < 0:
            # Phi(sigma(x)) = -q_a(x)^2 / (4 V0(x)); difference without
            # squaring the large baselines
            dphi = (-2.0 * qa * v0 * dq - v0 * dq * dq + qa * qa * dv) / (4.0 * v0_t * v0)
            if dphi <= -ARMIJO_C * alpha * slope:
                w0 = st.w0 - 2.0 * alpha * kcross + alpha * alpha * kwsq
                return _Iterate(st.u - alpha * d.values, w0, pot, table), alpha, backtracks
        alpha *= BACKTRACK_FACTOR
    raise LineSearchError("Armijo backtracking exhausted after 60 halvings")


def _finish(st: _Iterate, action, cerami, iters, converged, trace) -> SolveResult:
    """The SolveResult at the iterate st: its energy is the iterate's own
    q_a, V0 and Phi, the last trace row's, with no convolution."""
    u = Field(st.grid, st.u.copy())
    breakdown = EnergyBreakdown(q_a=st.qa, v0=st.v0, phi=st.phi, nehari_j=st.qa + st.v0)
    return SolveResult(
        u=u,
        breakdown=breakdown,
        cerami=float(cerami),
        nehari=classify(breakdown, lp_norm(u, 2) ** 2),
        certificate=is_invariant(u, action),
        iters=iters,
        converged=converged,
        trace=trace,
    )


def _cerami(st: _Iterate, action):
    """The certified Cerami value at st.u and the CG iterations behind it.

    The one place the descent reads the u-metric: the context recentered at
    the barycenter beta(u), the metric gradient g solved to relative
    residual LOOSE_RIESZ_TOL, and ||g||_u (metric.norm_u), projected under
    a projecting action. C = (||g||_u + h rel |r|_2)(1 + |u|_2) >= the
    exact value, rel the solve's true relative residual. The bound (an
    a-posteriori CG error bound as in Arioli, Numer. Math. 97, 2004), with
    g* the exact gradient and x the solve: A_u (g* - x) = r - A_u x = res
    and A_u >= I give
    ||g* - x||_u^2 = h^2 res.A_u^-1 res <= h^2 |res|_2^2 = (h rel |r|_2)^2.
    The group average P commutes with A_u and is orthogonal, hence
    A_u-orthogonal, and P g* = g* (r is invariant), so
    ||g* - P x||_u <= ||g* - x||_u and ||g*||_u <= ||g||_u + h rel |r|_2.
    """
    grid, r = st.grid, st.r
    u = Field(grid, st.u)
    ctx = metric_context_at(grid, barycenter_beta(u))
    steps = []
    g_vals, rel = solve_metric_system(ctx, r, LOOSE_RIESZ_TOL, strict=True, callback=steps.append)
    g = Field(grid, g_vals)
    if action.has_projection:
        g = project_invariant(g, action)
    bound = norm_u(ctx, g) + grid.h * rel * np.sqrt(np.vdot(r, r))
    return cerami_weight(u, bound), len(steps)


def descend(
    u0: Field,
    action: GroupAction,
    pot: Potential,
    table: KernelTable,
    cfg: SolveConfig,
) -> SolveResult:
    """Descent of Psi = Phi o sigma from u0; see module docstring for the iteration.

    Each row depends on its own iterate (u, w0) only (_Iterate: q_a, V0,
    Phi and the residual field r on {J = 0}): its Cerami value (_cerami),
    the convergence test, the Newton direction d with the exact slope
    Psi'(u) d = h^2 r.d, and an exact-ray Armijo line search
    (_line_search) that returns the next iterate. An error raised after
    the start carries .result with the last iterate.

    Every row solves one metric system to relative residual
    LOOSE_RIESZ_TOL, whose certified Cerami value C (_cerami) bounds the
    exact one from above; C <= cfg.cerami_tol returns converged, with no
    step. Otherwise the row steps along the truncated PCG solve of
    _newton_direction, stopped at relative residual
    eta = min(NEWTON_CG_TOL, max(C, cerami_tol / (2C))), C the row's
    Cerami value: eta = O(C) makes the tail quadratic (Dembo, Eisenstat &
    Steihaug, SIAM J. Numer. Anal. 19, 1982), and the floor keeps the last
    row from solving past what ends the descent (Kelley, Iterative Methods
    for Linear and Nonlinear Equations, SIAM 1995, 6.3). Its exit at
    negative curvature keeps the slope positive whenever r != 0; a d
    without one raises LineSearchError. A row that converges takes no
    step, so the descent never steps away from a point its bound shows to
    be converged. Every line search starts at STEP_INIT.

    Under a projecting action A_u commutes with the action (every point
    action is an index map of the whole cell-centred box), so the group
    average of the solution is the Riesz gradient of Phi restricted to
    invariant fields, whose Cerami value C certifies. By symmetric
    criticality (Palais) a critical point found this way is critical for
    the full problem, on the grid as on the continuum.
    """
    grid = pot.a.grid
    u = u0.values
    if action.has_projection:
        u = project_invariant(u0, action).values
        if np.sqrt(np.sum(u * u)) * grid.h <= 1e-14:
            raise DegenerateNehariError("invariant projection annihilated the start")
    st = _Iterate(u, None, pot, table)

    trace: List[tuple] = []
    cerami, accepted = np.inf, 0
    try:
        for it in range(cfg.max_iters):
            cerami, cg = _cerami(st, action)
            res_l2 = float(np.sqrt(np.sum(st.r * st.r)) * grid.h)
            row = (it, st.phi, st.qa, st.v0, st.qa + st.v0, cerami, res_l2)
            trace.append(row + (0.0, 0, 0, cg, 0))  # until a step is accepted
            if cerami <= cfg.cerami_tol:
                return _finish(st, action, cerami, accepted, True, trace)

            eta = min(NEWTON_CG_TOL, max(cerami, 0.5 * cfg.cerami_tol / cerami))
            d, slope, hess, kcross = _newton_direction(st, eta, action, pot, table)
            trace[-1] = row + (0.0, 0, 0, cg, hess)
            if not slope > 0.0:
                raise LineSearchError("no descent direction: Phi'(u) d = %.3g" % slope)
            st, alpha, backtracks = _line_search(st, d, slope, pot, table, kcross)
            del kcross  # one summed image alive at a time: the next solve sums its own
            trace[-1] = row + (alpha, backtracks, NEWTON, cg, hess)
            accepted += 1
    except DESCENT_ERRORS as err:
        err.result = _finish(st, action, cerami, accepted, False, trace)
        raise
    return _finish(st, action, cerami, accepted, False, trace)


# ---------------------------------------------------------------------------
# start families


KINDS = ("minimum", "maximum", "saddle")  # the order in which the kinds take starts


def _critical_vertices(a: np.ndarray, h: float):
    """Critical points of the sampled a at the vertices of the grid: their
    positions, their kinds (indices into KINDS) and their stationarity.

    A vertex is the corner shared by a 2x2 block of samples. The winding
    of the centred-difference gradient of a around the block (Sunday's
    crossing rule on the ray g2 = 0, g1 > 0) is +1 at an extremum and -1
    at a saddle; a block with a sample of exactly zero gradient is
    skipped. An extremum is a minimum when the mean of its block lies
    below the mean of the 12 samples around the block. The stationarity
    is the length of the block's difference across each axis, 0 where the
    block is symmetric about its vertex.
    """
    g1 = a[2:, 1:-1] - a[:-2, 1:-1]
    g2 = a[1:-1, 2:] - a[1:-1, :-2]
    up = g2 > 0
    corners = [np.s_[:-1, :-1], np.s_[1:, :-1], np.s_[1:, 1:], np.s_[:-1, 1:]]  # counter-clockwise
    winding = np.zeros((a.shape[0] - 3,) * 2, dtype=np.int8)
    for p, q in zip(corners, corners[1:] + corners[:1]):
        cross = g1[p] * g2[q]
        cross -= g2[p] * g1[q]
        winding += (up[q] > up[p]) & (cross > 0)
        winding -= (up[p] > up[q]) & (cross < 0)
    # vertex (i, j) has the block of samples i+1, i+2 (x1) and j+1, j+2 (x2)
    i, j = np.nonzero(winding)
    flat = (g1 == 0) & (g2 == 0)
    keep = ~(flat[i, j] | flat[i + 1, j] | flat[i, j + 1] | flat[i + 1, j + 1])
    i, j = i[keep], j[keep]
    b00, b10, b01, b11 = (a[i + 1 + di, j + 1 + dj] for di, dj in ((0, 0), (1, 0), (0, 1), (1, 1)))
    rows = a[:-3] + a[1:-2] + a[2:-1] + a[3:]
    box = rows[:, :-3] + rows[:, 1:-2] + rows[:, 2:-1] + rows[:, 3:]  # the 4x4 sums
    minimum = 4.0 * (b00 + b10 + b01 + b11) < box[i, j]
    kind = np.where(winding[i, j] < 0, 2, np.where(minimum, 0, 1))
    stationarity = np.hypot(b10 + b11 - b00 - b01, b01 + b11 - b00 - b10)
    x = h * (np.stack([i, j], axis=1) + 2 - 0.5 * a.shape[0])
    return x, kind, stationarity


def _bump_sites(action: GroupAction, pot: Potential, k: int):
    """Centers and radius (in length units) of the trivial and lattice bumps.

    One bump sits on a critical vertex of a of each of the first k+1 kinds
    found, in the order of KINDS, and one at the origin when a has none.
    Each kind's site is its most nearly stationary vertex, then the one
    nearest the origin, among those at least 2 radius + 2h from the sites
    before it: supports that far apart keep two cells between them.
    """
    h = pot.a.grid.h
    scale = 1.0
    if action.kind == KIND_LATTICE:
        scale = min(h * np.hypot(*action.cells1), h * np.hypot(*action.cells2), 1.0)
    radius = max(0.45 * scale, 3.5 * h)
    x, kind, stationarity = _critical_vertices(pot.a.values, h)
    if not len(x):
        return [np.zeros(2)], radius
    stationarity[stationarity <= STATIONARY_REL * max(1.0, pot.sup_norm)] = 0.0
    order = np.lexsort((np.hypot(x[:, 0], x[:, 1]), stationarity))
    x, kind = x[order], kind[order]
    centers = []
    for c in np.unique(kind)[: k + 1]:
        clear = kind == c
        for site in centers:
            clear &= np.hypot(x[:, 0] - site[0], x[:, 1] - site[1]) >= 2 * radius + 2 * h
        if not np.any(clear):
            raise StartFamilyError(
                "no %s of a lies 2 radius + 2h = %.3g from the %d bump sites before it"
                % (KINDS[c], 2 * radius + 2 * h, len(centers))
            )
        centers.append(x[np.argmax(clear)])
    return centers, radius


def _layout(k: int, action: GroupAction, pot: Potential):
    """The number of seed bumps, their (center, radius) made one at a time
    (a huge k costs nothing past the first misfit), and their noun."""
    h = pot.a.grid.h
    if action.kind == KIND_ROTATION:
        chord = 2.0 * np.sin(np.pi / (2 * action.m))
        ring_cap = 0.45 * (0.9 - 2 * h) if k >= 1 else np.inf  # keep the rings disjoint
        rings = (1.2 + 0.9 * j for j in range(k + 1))
        seeds = (((R, 0.0), min(0.4, 0.45 * (R * chord - 2 * h), ring_cap)) for R in rings)
        return k + 1, seeds, "sector bumps"
    if action.kind == KIND_GLIDE:
        offset = 0.9 if action.zeta_nontrivial else 0.0
        return k + 1, ((((j - 0.5 * k) * 1.6, offset), 0.5) for j in range(k + 1)), "glide bumps"
    centers, radius = _bump_sites(action, pot, k)
    return len(centers), ((tuple(c), radius) for c in centers), "bumps"


def make_bump_family(
    k: int,
    action: GroupAction,
    pot: Potential,
    table: KernelTable,
    cfg: SolveConfig,
) -> StartFamily:
    """Invariant seed bumps with disjoint supports and one descent start per seed.

    _layout places the seed bumps of the action's kind: k+1 rotation or
    glide bumps, and under the trivial and lattice actions one bump per
    kind of critical point of a (_bump_sites), at most k+1. One build loop
    checks each seed against the resolution floor (radius >= 3h, for every
    kind) and the box, builds it and, under a projecting action,
    symmetrizes it; the seeds are disjoint, mirroring the disjoint-support
    start construction of the multiplicity argument. bumps are the seeds
    as placed; starts their T_t images, one per seed, by one rule.

    T_t dilates a seed about the point its symmetry fixes: the origin under
    a projecting action, its own site otherwise. T_t of the bump of radius
    rho about c is the bump of radius e^t rho about p + e^t (c - p), p that
    point, of height e^-t, so it is evaluated exactly; the action's point
    maps are linear, so they commute with T_t about the origin. Steps of
    t = -1/4, each built from the seed, move it into O = {q_a > 0, V0 < 0}
    and onward while its own Psi = Phi(sigma(b)) improves. cfg is not
    read; it stays for callers of the five-argument form.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    grid = pot.a.grid
    # keep each seed's support clear of the box edge, where the zero
    # extension cuts an iterate that spreads: by one length unit, and on
    # boxes with L > 4.5 by L (1 - e^-1/4). Without the second term a
    # glide:1 family at L=8, n=128, k=8 builds, and under const:1 the
    # descents from its two outer starts, 1.1 from the edge, take 386 and
    # 400 (capped) steps where the seven inner ones take 7
    fit_limit = grid.L - max(1.0, grid.L * (1.0 - np.exp(-0.25)))

    def dilated(center, radius, t):
        """T_t of the seed bump (center, radius) about its own site, or, under a
        projecting action, about the origin and projected."""
        s = np.exp(t)
        if not action.has_projection:
            return bump_field(grid, center, s * radius, np.exp(-t))
        bump = bump_field(grid, (s * center[0], s * center[1]), s * radius, np.exp(-t))
        return project_invariant(bump, action)

    count, layout, what = _layout(k, action, pot)
    seeds, bumps = [], []
    for center, radius in layout:
        if radius < 3 * grid.h:
            raise StartFamilyError("grid too coarse for disjoint %s (radius %.3g)" % (what, radius))
        if np.max(np.abs(center)) + radius > fit_limit:
            raise StartFamilyError("%d %s do not fit the box" % (count, what))
        bump = dilated(center, radius, 0.0)
        if action.has_projection and lp_norm(bump, 2) <= 1e-14:
            raise StartFamilyError("invariant projection annihilated one of the %s" % what)
        seeds.append((center, radius))
        bumps.append(bump)

    def sigma_phi(b):
        """Phi(sigma(b)) = -q_a^2 / (4 V0); inf outside O = {q_a > 0, V0 < 0}."""
        qa, v0 = nehari_terms(b, pot, table)[:2]
        return -qa * qa / (4.0 * v0) if qa > 0 and v0 < 0 else np.inf

    starts = []
    for (center, radius), seed in zip(seeds, bumps):
        # T_t steps of -1/4 down to t = -2: into O, then onward while
        # Phi(sigma) still improves. Stopping at the first O-entry leaves V0
        # barely negative, and sigma-projection catapults such starts to
        # enormous energies whose transients dominate the descent.
        bump, phi = seed, sigma_phi(seed)
        for j in range(1, 9):
            deeper = dilated(center, radius, -0.25 * j)
            phi_deeper = sigma_phi(deeper)
            if np.isfinite(phi) and not phi_deeper < phi:
                break
            bump, phi = deeper, phi_deeper
        if not np.isfinite(phi):
            raise StartFamilyError(
                "cannot satisfy q_a > 0 and V0 < 0 along T_t down to t = -2; "
                "refine the grid so the shrinking bumps stay resolved"
            )
        starts.append(bump)
    return StartFamily(bumps=bumps, starts=starts)


def _descend_each(starts, workers, action, pot, table, cfg) -> List[Optional[SolveResult]]:
    """descend from every start on up to `workers` threads, the calling one
    included; per start, its result, the result a descent error carries, or
    None.

    The threads pull start indices from one shared iterator and fill the
    slot of each index, so the list is in start order however the descents
    interleave. numpy releases the GIL in its FFTs, BLAS products and ufunc
    loops, where a descent spends most of its time. Any other error stops
    the pulling of further starts and is raised, once the running descents
    end, for the lowest start index that raised one: the error a loop over
    the starts would raise.
    """
    outcomes: List[Optional[SolveResult]] = [None] * len(starts)
    failed = []
    pending = iter(range(len(starts)))
    lock = threading.Lock()

    def work():
        while not failed:
            with lock:
                i = next(pending, None)
            if i is None:
                return
            try:
                outcomes[i] = descend(starts[i], action, pot, table, cfg)
            except DESCENT_ERRORS as exc:
                outcomes[i] = getattr(exc, "result", None)
            except BaseException as exc:
                failed.append((i, exc))

    helpers = [threading.Thread(target=work) for _ in range(workers - 1)]
    for thread in helpers:
        thread.start()
    try:
        work()
    finally:
        for thread in helpers:
            thread.join()
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    return outcomes


def multistart_search(
    k: int,
    action: GroupAction,
    pot: Potential,
    table: KernelTable,
    cfg: SolveConfig,
) -> List[SolveResult]:
    """Descend from every start of the bump family; dedup by orbit
    distance, converged results first; sort by Phi.

    The starts are descended concurrently, one thread per core this
    process may run on (_descend_each), when there is more than one and
    OpenBLAS is pinned to one thread (blas.blas_threads() == 1), as the
    command line pins it. Each descent is a function of its start alone,
    so the results are the bytes that descending the starts one at a time
    gives, and in the same order. Otherwise, under a multi-threaded or
    unknown BLAS, the starts are descended one at a time."""
    ok, reason = check_admissible(action)
    if not ok and pot.ess_inf <= 0:
        raise AdmissibilityError(
            "action not admissible (%s) and ess inf a = %.3g <= 0" % (reason, pot.ess_inf)
        )
    starts = make_bump_family(k, action, pot, table, cfg).starts
    workers = 1
    if len(starts) > 1 and blas_threads() == 1:
        workers = min(len(starts), len(os.sched_getaffinity(0)))
    outcomes = _descend_each(starts, workers, action, pot, table, cfg)

    results: List[SolveResult] = []
    for idx, res in enumerate(outcomes):
        if res is not None:
            res.start_index = idx
            results.append(res)

    # converged copies first: a capped start that stopped within DEDUP_REL
    # of a converged orbit is a copy of it, even at a lower Phi
    results.sort(key=lambda r: (not r.converged, r.breakdown.phi))
    kept: List[SolveResult] = []
    for res in results:
        if not any(orbit_distance(res.u, o.u) <= DEDUP_REL * lp_norm(o.u, 2) for o in kept):
            kept.append(res)
    kept.sort(key=lambda r: r.breakdown.phi)
    return kept


def ground_state(
    action: GroupAction,
    pot: Potential,
    table: KernelTable,
    cfg: SolveConfig,
) -> SolveResult:
    """Minimum-energy critical point under ess inf a > 0: the lowest-Phi
    converged result of multistart_search with k=2."""
    if pot.ess_inf <= 0:
        raise GroundStateError(
            "indefinite potential: global minimality not certified; use multistart_search"
        )
    converged = [r for r in multistart_search(2, action, pot, table, cfg) if r.converged]
    if not converged:
        raise GroundStateError("no start converged within the iteration budget")
    best = min(converged, key=lambda r: r.breakdown.phi)
    if not (best.breakdown.phi > 0):
        raise GroundStateError("ground state energy is not positive: %.6g" % best.breakdown.phi)
    return best

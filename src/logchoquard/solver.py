"""Nehari-constrained descent and the multistart search for symmetric solutions.

The descent minimizes Phi on the constraint {J = q_a + V0 = 0, V0 < 0}
through the reduced energy Psi(x) = Phi(sigma(x)) = -q_a(x)^2 / (4 V0(x)),
sigma the rescaling along the ray onto the manifold (exact by homogeneity:
q_a -> t^2 q_a, V0 -> t^4 V0). On the manifold Psi'(u) = Phi'(u), so the
metric (Riesz) gradient of Phi at an iterate is already the metric gradient
of Psi (Szulkin & Weth, The method of Nehari manifold, 2010): each
iteration solves one metric system, takes an Armijo-backtracked step on Psi
and lands on the manifold again. The step only needs a descent direction,
so that solve is loose unless its Cerami value nears cerami_tol, when the
same iteration solves it again to riesz_tol; only such a value can end the
descent as converged. The Armijo slope is the exact Phi'(u) d = h^2 r.d
rather than the metric pairing of an inexact gradient.

The first row steps along the metric gradient; every later row steps along
a truncated Newton-CG solve of H d = r, H the second variation of Phi
corrected along the ray (the Hessian of Psi at a critical point), whose
tail is quadratic. Its PCG is preconditioned by a fast Poisson solve
whose mass is the mean of the Hessian's potential a + w0, which sits far
above the metric's mass at a solution; with that shift a Newton row is
cheap enough far from a critical point too.

Starts come from families of k+1 disjoint mollifier bumps placed and
symmetrized according to the group action; the multistart search
descends once from each bump.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import List, Optional

import numpy as np

from .barycenter import beta as barycenter_beta
from .errors import (
    DESCENT_ERRORS,
    AdmissibilityError,
    DegenerateNehariError,
    GroundStateError,
    LineSearchError,
    ScalingClipError,
    StartFamilyError,
)
from .field import Field, bump_field, lp_norm, neg_laplacian
from .functionals import (
    EnergyBreakdown,
    NehariClass,
    Potential,
    cerami_weight,
    classify,
    energy,
    hessian_product,
    in_nzero,
    nehari_scale,
    nehari_terms,
    q_a_bilinear,
    scale_Tt,
)
from .logkernel import KernelTable, padded_convolve
from .metric import (
    MetricContext,
    lower_u,
    metric_context_at,
    pcg,
    preconditioner,
    solve_metric_system,
)
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

CORE_GAP_CELLS = 2  # half-peak cores of distinct start bumps stay this many cells apart
DEDUP_REL = 1e-4  # orbit_distance <= DEDUP_REL * |u|_2 collapses two results
REPROJECT_EVERY = 25  # invariant reprojection cadence (fp drift control)
NEWTON_CG_TOL = 0.1  # relative residual of the truncated Newton PCG
LOOSE_RIESZ_TOL = 1e-2  # relative residual of a descent solve that certifies nothing
TIGHT_CERAMI_FACTOR = 3.0  # solve to riesz_tol once the Cerami value is within this of cerami_tol
# Armijo backtracking: the first and largest step, its halving factor and the
# sufficient-decrease constant c1 (Nocedal & Wright, Numerical Optimization, 2006)
STEP_INIT = 1.0
BACKTRACK_FACTOR = 0.5
ARMIJO_C = 1e-4


@dataclass(frozen=True)
class SolveConfig:
    max_iters: int = 1200
    cerami_tol: float = 1e-6
    riesz_tol: float = 1e-10
    tau_split: float = 0.0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        for name in ("cerami_tol", "riesz_tol"):
            if getattr(self, name) <= 0:
                raise ValueError("%s must be > 0" % name)
        if self.tau_split < 0:
            raise ValueError("tau_split must be >= 0")


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
    bumps: List[Field]
    starts: List[Field]  # the descent start of each bump


# alpha: the accepted step; backtracks: how often it was halved; direction:
# GRADIENT or NEWTON (code 1, an L-BFGS direction in older traces, is not
# written). A row that takes no step (the last one of a converged descent,
# or one whose line search fails) records 0, 0, 0 there.
# cg: the CG iterations of the row's metric solves (a loose solve and its
# re-solve to riesz_tol together); hess: the Hessian products of its Newton
# solve.
TRACE_COLUMNS = (
    "iter", "phi", "q_a", "v0", "nehari_j", "cerami_weight", "residual_l2",
    "alpha", "backtracks", "direction", "cg", "hess",
)
GRADIENT, NEWTON = 0, 2


class _Iterate:
    """A descent iterate u with q_a(u), V0(u), w0 = log * u^2 and Phi(u)."""

    def __init__(self, u: np.ndarray, pot: Potential, table: KernelTable):
        self.grid = pot.a.grid
        self.u = u
        self.refresh(pot, table)

    def refresh(self, pot: Potential, table: KernelTable) -> None:
        """Recompute q_a, V0 and w0 from u, which caps their drift; then onto_nehari."""
        qa, v0, w0 = nehari_terms(Field(self.grid, self.u), pot, table)
        self.qa, self.v0, self.w0 = qa, v0, w0.values
        self.onto_nehari()

    def onto_nehari(self, phi: Optional[float] = None) -> None:
        """Rescale along the ray onto {J = 0}, exactly: q_a ~ t^2, V0 ~ t^4, w0 ~ t^2.

        Phi is recomputed from q_a and V0 unless given; the line search
        computes it without the cancellation of that sum.
        """
        t = nehari_scale(self.qa, self.v0)
        self.u = t * self.u
        self.qa, self.v0, self.w0 = t * t * self.qa, t ** 4 * self.v0, t * t * self.w0
        self.phi = 0.5 * self.qa + 0.25 * self.v0 if phi is None else phi
        h = self.grid.h
        if in_nzero(self.v0, h * h * float(np.sum(self.u * self.u))):
            raise DegenerateNehariError(
                "degenerate Nehari direction: |V0| = %.3g below threshold" % abs(self.v0)
            )


def _newton_direction(
    st: _Iterate, ctx: MetricContext, r: np.ndarray, g: Field, action, pot, table
):
    """Truncated PCG on H d = r; returns d, its slope Psi'(u) d, its kind and the H products.

    H = Phi''(u) - b b^T / <u, b> with b = Phi''(u) u = r + 2 w0 u, which
    costs no convolution: H is symmetric, H u = 0, and at a critical point
    it is the Hessian of Psi, so the ray drops out and Newton's quadratic
    tail is Psi's. Each product is one convolution. metric.pcg
    (Steihaug's truncated CG) is preconditioned by the fast Poisson solve
    whose mass is the box mean of H's potential a + w0
    (metric.preconditioner), and stops at relative residual NEWTON_CG_TOL
    (the inexact Newton forcing term of Dembo, Eisenstat & Steihaug, 1982),
    at the first p.Hp <= 0, or after n products. It never steps along
    negative curvature: it returns the iterate so far, or g if that is
    still zero or no descent direction. Under a projecting action H and
    the preconditioner commute with the action, so x is invariant and is
    projected once, against rounding, before its slope is taken.
    """
    grid = st.grid
    h2 = grid.h * grid.h
    u, w0 = Field(grid, st.u), Field(grid, st.w0)
    precondition = preconditioner(ctx, pot.a.values + st.w0)
    b = r + 2.0 * st.w0 * st.u
    ub = float(np.vdot(st.u, b))

    def hess(vals):
        out = hessian_product(u, Field(grid, vals), pot, table, w0).values
        out -= (float(np.vdot(b, vals)) / ub) * b
        return out

    res = r.copy()
    stop = NEWTON_CG_TOL * float(np.sqrt(np.vdot(res, res)))
    x = np.zeros_like(res)
    products = pcg(hess, precondition, res, x, stop, grid.n)
    d = Field(grid, x)
    if action.has_projection:
        d = project_invariant(d, action)
    slope = h2 * float(np.vdot(r, d.values))
    if slope > 0.0:
        return d, slope, NEWTON, products
    return g, h2 * float(np.vdot(r, g.values)), GRADIENT, products


def _line_search(st: _Iterate, d: Field, slope: float, pot, table):
    """Armijo backtracking on Psi along u - alpha*d from alpha = STEP_INIT; moves st to
    sigma of the accepted point.

    q_a is quadratic and V0 quartic in alpha; evaluating the on-manifold
    decrease from these exact coefficients avoids the large-scale
    cancellation that floors a direct re-evaluation of Phi. Returns alpha
    and the number of halvings before it was accepted.
    """
    grid = st.grid
    h2 = grid.h * grid.h
    c1 = q_a_bilinear(Field(grid, st.u), d, pot)
    c2 = q_a_bilinear(d, d, pot)
    cross = st.u * d.values
    wsq = d.values * d.values
    kcross = padded_convolve(grid, cross, table.k0_hat)
    kwsq = padded_convolve(grid, wsq, table.k0_hat)
    b0c = h2 * float(np.sum(cross * st.w0))
    b0w = h2 * float(np.sum(wsq * st.w0))
    bcc = h2 * float(np.sum(cross * kcross))
    bcw = h2 * float(np.sum(wsq * kcross))
    bww = h2 * float(np.sum(wsq * kwsq))
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
                st.u = st.u - alpha * d.values
                st.w0 = st.w0 - 2.0 * alpha * kcross + alpha * alpha * kwsq
                st.qa, st.v0 = qa_t, v0_t
                st.onto_nehari(st.phi + dphi)
                return alpha, backtracks
        alpha *= BACKTRACK_FACTOR
    raise LineSearchError("Armijo backtracking exhausted after 60 halvings")


def _finish(u_vals, pot, table, action, cerami, iters, converged, trace) -> SolveResult:
    u = Field(pot.a.grid, u_vals.copy())
    breakdown = energy(u, pot, table)
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


def _gradient(st: _Iterate, ctx: MetricContext, r, tol, x0, action, steps):
    """The metric gradient at st.u, solved to relative residual tol from x0 (cold if None).

    Returns the solve's output, g (projected under a projecting action) and
    the Cerami value of g; the CG iterations are appended to steps.
    """
    grid = st.grid
    g_vals, _ = solve_metric_system(ctx, r, tol, x0=x0, strict=True, callback=steps.append)
    g = Field(grid, g_vals)
    if action.has_projection:
        g = project_invariant(g, action)
    lg = lower_u(ctx, g.values)
    return g_vals, g, cerami_weight(Field(grid, st.u), np.sqrt(np.vdot(g.values, lg)))


def descend(
    u0: Field,
    action: GroupAction,
    pot: Potential,
    table: KernelTable,
    cfg: SolveConfig,
) -> SolveResult:
    """Descent of Psi = Phi o sigma from u0; see module docstring for the iteration.

    Each row depends on its own iterate u only: the gradient g and its
    Cerami value (_gradient), the convergence test, a direction d with the
    exact slope Psi'(u) d = h^2 r.d (r the residual field of u), an
    exact-ray Armijo line search with Nehari re-projection (_line_search),
    and every REPROJECT_EVERY steps a refresh of the tracked scalars (and
    invariance). An error raised after the start carries .result with the
    last iterate.

    Row 0 solves for g to cfg.riesz_tol and steps along g. Every later row
    solves loosely (relative residual LOOSE_RIESZ_TOL, or riesz_tol if that
    is larger) and steps along the truncated PCG solve of _newton_direction;
    g serves only the Cerami value and the fallback when that solve meets
    negative curvature at once. A loose Cerami value within
    TIGHT_CERAMI_FACTOR of cfg.cerami_tol is solved again to riesz_tol in
    the same row, from the loose g, and only a value solved to riesz_tol
    can return converged (the forcing terms of Dembo, Eisenstat & Steihaug,
    SIAM J. Numer. Anal. 19, 1982). A row that converges takes no step, so
    the descent never steps away from a point a loose solve shows to be
    converged. A CG solve from zero keeps r.g = g.A_u g > 0 (Galerkin), so
    a direction without a positive slope means g = 0 and raises
    LineSearchError. Every line search starts at STEP_INIT.

    Under a projecting action A_u commutes with the action (every point
    action is an index map of the whole cell-centred box), so the group
    average of the solution is the Riesz gradient of Phi restricted to
    invariant fields, and every direction built from it is invariant. By
    symmetric criticality (Palais) a critical point found this way is
    critical for the full problem, on the grid as on the continuum.
    """
    grid = pot.a.grid
    project = action.has_projection
    u = u0.values
    if project:
        u = project_invariant(u0, action).values
        if np.sqrt(np.sum(u * u)) * grid.h <= 1e-14:
            raise DegenerateNehariError("invariant projection annihilated the start")
    st = _Iterate(u, pot, table)

    trace: List[tuple] = []
    cerami, accepted = np.inf, 0
    loose_tol = max(cfg.riesz_tol, LOOSE_RIESZ_TOL)
    try:
        for it in range(cfg.max_iters):
            ctx = metric_context_at(grid, barycenter_beta(Field(grid, st.u)))
            r = neg_laplacian(st.u, grid.h) + (pot.a.values + st.w0) * st.u
            tol = cfg.riesz_tol if it == 0 else loose_tol
            steps = []
            g_vals, g, cerami = _gradient(st, ctx, r, tol, None, action, steps)
            if tol > cfg.riesz_tol and cerami <= TIGHT_CERAMI_FACTOR * cfg.cerami_tol:
                tol = cfg.riesz_tol
                g_vals, g, cerami = _gradient(st, ctx, r, tol, g_vals, action, steps)
            res_l2 = float(np.sqrt(np.sum(r * r)) * grid.h)
            row = (it, st.phi, st.qa, st.v0, st.qa + st.v0, cerami, res_l2)
            trace.append(row + (0.0, 0, GRADIENT, len(steps), 0))  # until a step is accepted
            if tol == cfg.riesz_tol and cerami <= cfg.cerami_tol:
                return _finish(st.u, pot, table, action, cerami, accepted, True, trace)

            if it == 0:
                d, slope, kind, hess = g, grid.h * grid.h * float(np.vdot(r, g.values)), GRADIENT, 0
            else:
                d, slope, kind, hess = _newton_direction(st, ctx, r, g, action, pot, table)
            trace[-1] = row + (0.0, 0, GRADIENT, len(steps), hess)
            if not slope > 0.0:
                raise LineSearchError("no descent direction: Phi'(u) g = %.3g" % slope)
            alpha, backtracks = _line_search(st, d, slope, pot, table)
            trace[-1] = row + (alpha, backtracks, kind, len(steps), hess)
            accepted += 1

            if (it + 1) % REPROJECT_EVERY == 0:
                if project:
                    st.u = project_invariant(Field(grid, st.u), action).values
                st.refresh(pot, table)
    except DESCENT_ERRORS as err:
        err.result = _finish(st.u, pot, table, action, cerami, accepted, False, trace)
        raise
    return _finish(st.u, pot, table, action, cerami, accepted, False, trace)


# ---------------------------------------------------------------------------
# start families


def _bump_sites(action: GroupAction, grid, k: int):
    """Centers and radius (in length units) for k+1 disjoint bumps."""
    h = grid.h
    if action.kind == KIND_LATTICE:
        b1 = np.array(action.cells1, dtype=float) * h
        b2 = np.array(action.cells2, dtype=float) * h
    else:
        # free placement: widen the pattern on coarse grids so bumps resolve
        s = max(1.0, 8.0 * h)
        b1 = np.array([s, 0.0])
        b2 = np.array([0.0, s])
    # seed fractions visit inequivalent sites of the lattice (half-cell, origin,
    # quarter-diagonal, conjugate half-cell, and a pure lattice translate)
    fractions = [
        (0.5, 0.0),
        (2.0, 0.0),
        (-1.25, 0.25),
        (0.0, -1.5),
        (-2.5, 0.0),
        (1.5, 1.5),
        (-1.5, 1.5),
        (1.5, -1.5),
    ]
    if k + 1 > len(fractions):
        raise StartFamilyError("bump catalog supports at most %d bumps" % len(fractions))
    centers = [f1 * b1 + f2 * b2 for f1, f2 in fractions[: k + 1]]
    sep = min(
        float(np.hypot(*(ci - cj)))
        for i, ci in enumerate(centers)
        for j, cj in enumerate(centers)
        if i < j
    ) if k else np.inf
    scale = min(np.hypot(*b1), np.hypot(*b2), 1.0)
    # prefer 0.45 cell units, but grow on coarse grids up to the disjointness cap
    radius = min(0.48 * (sep - 2 * h), max(0.45 * scale, 3.5 * h))
    return centers, radius


def _dilate(mask: np.ndarray, steps: int) -> np.ndarray:
    """mask grown by steps cross-shaped (4-neighbour) dilations, nothing past the edges."""
    out = mask.copy()
    for _ in range(steps):
        grown = out.copy()
        grown[1:] |= out[:-1]
        grown[:-1] |= out[1:]
        grown[:, 1:] |= out[:, :-1]
        grown[:, :-1] |= out[:, 1:]
        out = grown
    return out


def _cores_disjoint(bumps: List[Field]) -> bool:
    """Half-peak cores pairwise more than CORE_GAP_CELLS cells apart.

    Spline rescaling spreads faint ripple past the true supports, so
    disjointness is judged on the cores, where the mass lives.
    """
    cores = [np.abs(b.values) > 0.5 * np.max(np.abs(b.values)) for b in bumps]
    for i, core in enumerate(cores[:-1]):
        grown = _dilate(core, CORE_GAP_CELLS)
        if any(np.any(grown & other) for other in cores[i + 1:]):
            return False
    return True


def _layout(k: int, action: GroupAction, grid):
    """Seeds [(center, radius)] of k+1 bumps and their noun."""
    h = grid.h
    if action.kind == KIND_ROTATION:
        chord = 2.0 * np.sin(np.pi / (2 * action.m)) if action.m > 1 else 2.0
        ring_cap = 0.45 * (0.9 - 2 * h) if k >= 1 else np.inf  # keep the rings disjoint
        rings = [1.2 + 0.9 * j for j in range(k + 1)]
        seeds = [((R, 0.0), min(0.4, 0.45 * (R * chord - 2 * h), ring_cap)) for R in rings]
        return seeds, "sector bumps"
    if action.kind == KIND_GLIDE:
        offset = 0.9 if action.zeta_nontrivial else 0.0
        return [(((j - 0.5 * k) * 1.6, offset), 0.5) for j in range(k + 1)], "glide bumps"
    centers, radius = _bump_sites(action, grid, k)
    return [(tuple(c), radius) for c in centers], "bumps"


def make_bump_family(
    k: int,
    action: GroupAction,
    pot: Potential,
    table: KernelTable,
    cfg: SolveConfig,
) -> StartFamily:
    """k+1 invariant bumps with disjoint supports and one descent start per bump.

    _layout places the seed bumps of the action's kind. One build loop
    checks each seed against the resolution floor (radius >= 3h, for every
    kind) and the box, builds it and, under a projecting action,
    symmetrizes it. One rescale loop then moves the bumps jointly along
    T_t (t < 0) until every bump satisfies q_a > 0 and V0 < 0, and onward
    while the worst projected energy improves, mirroring the
    disjoint-support start construction of the multiplicity argument.
    Disjointness is re-checked after every rescale: half-peak cores stay
    more than CORE_GAP_CELLS cells apart (StartFamilyError if reaching O
    would merge them).

    Starts stay on their sites: without a projection (the trivial and
    lattice families, bumps on _bump_sites) a bump starts from its unscaled
    on-site self whenever that lies in O, and otherwise from its rescaled
    self. cfg is not read; it stays for callers of the five-argument form.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    grid = pot.a.grid
    # keep supports clear of the T_t clip band so the joint rescale below
    # can always take at least one step
    fit_limit = grid.L - max(1.0, grid.L * (1.0 - np.exp(-0.25)))

    seeds, what = _layout(k, action, grid)
    bumps = []
    for center, radius in seeds:
        if radius < 3 * grid.h:
            raise StartFamilyError("grid too coarse for disjoint %s (radius %.3g)" % (what, radius))
        if np.max(np.abs(center)) + radius > fit_limit:
            raise StartFamilyError("%d %s do not fit the box" % (k + 1, what))
        bump = bump_field(grid, center=center, radius=radius)
        if action.has_projection:
            bump = project_invariant(bump, action)
            if lp_norm(bump, 2) <= 1e-14:
                raise StartFamilyError("invariant projection annihilated one of the %s" % what)
        bumps.append(bump)

    def worst_phi(terms):
        """max Phi(sigma(b)) over the bumps' (q_a, V0); inf if one lies outside O."""
        if not all(qa > 0 and v0 < 0 for qa, v0 in terms):
            return np.inf
        return max(-qa * qa / (4.0 * v0) for qa, v0 in terms)

    def nehari_diagonal(bump_list):
        return [nehari_terms(b, pot, table)[:2] for b in bump_list]

    def rescaled(bump_list):
        try:
            out = [scale_Tt(b, -0.25) for b in bump_list]
        except ScalingClipError as exc:
            raise StartFamilyError(
                "rescaling the start family hit the boundary band (%s); "
                "enlarge the box" % exc
            ) from exc
        if action.has_projection:
            # spline resampling breaks exact invariance; restore it
            out = [project_invariant(b, action) for b in out]
        return out

    # joint T_t rescaling in steps of -1/4 down to t = -2: until every bump
    # lies in O (worst_phi is finite), then onward while the worst projected
    # energy still improves. Stopping at the first O-entry leaves V0 barely
    # negative, and sigma-projection catapults such starts to enormous
    # energies whose transients dominate the descent.
    unscaled, unscaled_terms = bumps, nehari_diagonal(bumps)
    phi_now = worst_phi(unscaled_terms)
    for _ in range(8):
        in_o = np.isfinite(phi_now)
        deeper = rescaled(bumps)
        if not _cores_disjoint(deeper):
            if in_o:
                break
            raise StartFamilyError(
                "rescaling into O merged the bump cores; enlarge the box or reduce k"
            )
        phi_deeper = worst_phi(nehari_diagonal(deeper))
        if in_o and not phi_deeper < phi_now:
            break
        bumps, phi_now = deeper, phi_deeper
    if not np.isfinite(phi_now):
        raise StartFamilyError(
            "cannot satisfy q_a > 0 and V0 < 0 within the scaling guard; "
            "enlarge the box or reduce k"
        )

    # T_t is a dilation about the origin: it pulls the bumps of a site family
    # off their sites and shrinks them, and their descents then fall to the
    # ground orbit. A bump therefore starts unscaled, on its site, whenever
    # it already lies in O.
    on_site = not action.has_projection
    starts = [
        b if on_site and qa > 0 and v0 < 0 else scaled
        for b, scaled, (qa, v0) in zip(unscaled, bumps, unscaled_terms)
    ]
    return StartFamily(bumps=bumps, starts=starts)


def multistart_search(
    k: int,
    action: GroupAction,
    pot: Potential,
    table: KernelTable,
    cfg: SolveConfig,
) -> List[SolveResult]:
    """Descend once from each start of the bump family; dedup by orbit
    distance, converged results first; sort by Phi."""
    ok, reason = check_admissible(action)
    if not ok and pot.ess_inf <= 0:
        raise AdmissibilityError(
            "action not admissible (%s) and ess inf a = %.3g <= 0" % (reason, pot.ess_inf)
        )
    family = make_bump_family(k, action, pot, table, cfg)

    results: List[SolveResult] = []
    for idx, u0 in enumerate(family.starts):
        try:
            res = descend(u0, action, pot, table, cfg)
        except DESCENT_ERRORS as exc:
            res = getattr(exc, "result", None)
            if res is None:
                continue
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

"""Nehari-constrained descent and the multistart search for symmetric solutions.

The descent minimizes Phi on the constraint {J = q_a + V0 = 0, V0 < 0}: at
each iterate it solves for the metric (Riesz) gradient, removes the
component along the constraint gradient, takes an Armijo-backtracked step,
and reprojects onto the manifold along the ray (exact by homogeneity:
q_a -> t^2 q_a, V0 -> t^4 V0). Starts come from families of disjoint
mollifier bumps placed and symmetrized according to the group action,
combined over the unit simplex of signed coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import List, Optional

import numpy as np
from scipy.ndimage import binary_dilation

from .barycenter import beta as barycenter_beta
from .errors import (
    DESCENT_ERRORS,
    AdmissibilityError,
    DegenerateNehariError,
    GroundStateError,
    LineSearchError,
    RieszSolveError,
    ScalingClipError,
    StartFamilyError,
)
from .field import Field, bump_field, gaussian_field, lp_norm, mollifier, neg_laplacian
from .functionals import (
    EnergyBreakdown,
    NehariClass,
    Potential,
    cerami_weight,
    classify,
    energy,
    in_nzero,
    nehari_scale,
    nehari_terms,
    q_a_bilinear,
    scale_Tt,
)
from .logkernel import KernelTable, b_form, padded_convolve
from .metric import (
    MetricContext,
    inner_u,
    metric_context_at,
    norm_u,
    solve_metric_system,
)
from .symmetry import (
    GroupAction,
    InvarianceCertificate,
    KIND_GLIDE,
    KIND_LATTICE,
    KIND_RADIAL,
    KIND_ROTATION,
    check_admissible,
    is_invariant,
    orbit_distance,
    preserved_cells,
    project_invariant,
    trivial_action,
)

CORE_GAP_CELLS = 2  # half-peak cores of distinct start bumps stay this many cells apart
DEDUP_REL = 1e-4  # orbit_distance <= DEDUP_REL * |u|_2 collapses two results
REPROJECT_EVERY = 25  # invariant reprojection cadence (fp drift control)
LBFGS_MEMORY = 8  # curvature pairs kept for the two-loop direction


def _lbfgs_two_loop(w: np.ndarray, pairs) -> np.ndarray:
    """Two-loop recursion over flattened (s, y, 1/s.y) pairs, newest last.

    w is already metric-preconditioned, so flat dot products are the right
    pairing and the newest-pair scaling plays the Barzilai-Borwein role.
    """
    q = w.ravel().copy()
    coeffs = []
    for s, y, rho in reversed(pairs):
        a = rho * float(np.dot(s, q))
        q -= a * y
        coeffs.append(a)
    s, y, _ = pairs[-1]
    q *= float(np.dot(s, y) / np.dot(y, y))
    for (s, y, rho), a in zip(pairs, reversed(coeffs)):
        b = rho * float(np.dot(y, q))
        q += (a - b) * s
    return q.reshape(w.shape)


@dataclass(frozen=True)
class SolveConfig:
    max_iters: int = 1200
    cerami_tol: float = 1e-6
    riesz_tol: float = 1e-10
    step_init: float = 1.0
    backtrack_factor: float = 0.5
    armijo_c: float = 1e-4
    tau_split: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        for name in ("cerami_tol", "riesz_tol", "step_init"):
            if getattr(self, name) <= 0:
                raise ValueError("%s must be > 0" % name)
        if not (0 < self.backtrack_factor < 1):
            raise ValueError("backtrack_factor must lie in (0, 1)")
        if not (0 < self.armijo_c < 1):
            raise ValueError("armijo_c must lie in (0, 1)")
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
    simplex_samples: List[np.ndarray]
    vertex_starts: List[Field]  # start of the single-bump sample of each bump

    def start(self, idx: int) -> Field:
        """Start field of simplex sample idx.

        A sample with a single nonzero coefficient c on bump i starts from
        c * vertex_starts[i]; every other sample from sum_i s_i bumps[i].
        """
        s = self.simplex_samples[idx]
        grid = self.bumps[0].grid
        nonzero = np.flatnonzero(s)
        if len(nonzero) == 1:
            i = int(nonzero[0])
            return Field(grid, s[i] * self.vertex_starts[i].values)
        vals = np.zeros((grid.n, grid.n))
        for coeff, b in zip(s, self.bumps):
            vals += coeff * b.values
        return Field(grid, vals)


TRACE_COLUMNS = ("iter", "phi", "q_a", "v0", "nehari_j", "cerami_weight", "residual_l2")


def tangent_project(ctx: MetricContext, g: Field, eta: Field) -> Field:
    """Remove from g its metric component along eta, the Riesz representative of J'(u)."""
    denom = inner_u(ctx, eta, eta)
    if denom <= 1e-28:
        raise DegenerateNehariError("degenerate constraint gradient: ||J'||_u ~ 0")
    return Field(ctx.grid, g.values - (inner_u(ctx, g, eta) / denom) * eta.values)


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


def _riesz(ctx: MetricContext, rhs, x0, free, action: GroupAction, tol: float, what: str):
    """Solve A_u x = rhs warm from x0 on the free cells: (x, x on the invariant fields)."""
    vals, rel = solve_metric_system(ctx, rhs, tol, x0=x0, free=free)
    if rel > tol:
        raise RieszSolveError("%s solve stalled at %.3g" % (what, rel), residual=rel)
    x = Field(ctx.grid, vals)
    return vals, project_invariant(x, action) if action.has_projection else x


class _Lbfgs:
    """Curvature pairs (s, y, 1/s.y) of the iterates and their tangent gradients w.

    The wells of a structured potential make the on-manifold curvature
    strongly anisotropic and plain preconditioned descent crawls along the
    soft modes, so the step direction comes from an L-BFGS two-loop over
    the newest LBFGS_MEMORY pairs; the Armijo test still guarantees
    monotone decrease, and any non-descent proposal falls back to w.
    """

    def __init__(self):
        self.pairs: List[tuple] = []
        self.last = None

    def push(self, u: np.ndarray, w: np.ndarray) -> None:
        if self.last is not None:
            s_vec = (u - self.last[0]).ravel()
            y_vec = (w - self.last[1]).ravel()
            sy = float(np.dot(s_vec, y_vec))
            if sy > 1e-12 * float(np.linalg.norm(s_vec) * np.linalg.norm(y_vec)):
                self.pairs.append((s_vec, y_vec, 1.0 / sy))
                if len(self.pairs) > LBFGS_MEMORY:
                    self.pairs.pop(0)
        self.last = (u, w)

    def direction(self, ctx: MetricContext, w: Field, eta: Field):
        """Tangent step direction d and <w, d>_u."""
        wn2 = inner_u(ctx, w, w)
        if not self.pairs:
            return w, wn2
        d = tangent_project(ctx, Field(ctx.grid, _lbfgs_two_loop(w.values, self.pairs)), eta)
        dw = inner_u(ctx, w, d)
        if not dw > 1e-10 * np.sqrt(wn2 * inner_u(ctx, d, d)):
            return w, wn2
        return d, dw


def _line_search(st: _Iterate, d: Field, dw: float, alpha: float, pot, table, cfg) -> float:
    """Armijo backtracking along u - alpha*d; moves st to sigma of the accepted point.

    q_a is quadratic and V0 quartic in alpha; evaluating the on-manifold
    decrease from these exact coefficients avoids the large-scale
    cancellation that floors a direct re-evaluation of Phi. Returns alpha.
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
    for _ in range(60):
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
            if dphi <= -cfg.armijo_c * alpha * dw:
                st.u = st.u - alpha * d.values
                st.w0 = st.w0 - 2.0 * alpha * kcross + alpha * alpha * kwsq
                st.qa, st.v0 = qa_t, v0_t
                st.onto_nehari(st.phi + dphi)
                return alpha
        alpha *= cfg.backtrack_factor
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


def descend(
    u0: Field,
    action: GroupAction,
    pot: Potential,
    table: KernelTable,
    cfg: SolveConfig,
) -> SolveResult:
    """Constrained descent from u0; see module docstring for the iteration.

    Each iteration: Riesz solves for the gradient g and the constraint
    gradient eta, tangent projection, L-BFGS direction, exact-ray Armijo
    line search with Nehari re-projection, and every REPROJECT_EVERY steps
    a refresh of the tracked scalars (and invariance). An error raised
    after the start carries .result with the last iterate.

    Under a projecting action the metric systems for g and eta are solved
    on the cells that the action preserves (symmetry.preserved_cells), the
    others held at zero. There A_u commutes with the action, so the group
    average of the solution is the Riesz gradient of Phi restricted to
    invariant fields, and its metric pairing with an invariant direction is
    Phi'(u) of that direction; critical points found this way are critical
    in the full space by symmetric criticality.
    """
    grid = pot.a.grid
    project = action.has_projection
    free = preserved_cells(grid, action) if project else None
    u = u0.values
    if project:
        u = project_invariant(u0, action).values
        if np.sqrt(np.sum(u * u)) * grid.h <= 1e-14:
            raise DegenerateNehariError("invariant projection annihilated the start")
    st = _Iterate(u, pot, table)

    trace: List[tuple] = []
    lbfgs = _Lbfgs()
    g_prev = eta_prev = None
    alpha, cerami, accepted = cfg.step_init, np.inf, 0
    try:
        for it in range(cfg.max_iters):
            ctx = metric_context_at(grid, barycenter_beta(Field(grid, st.u)))
            r = neg_laplacian(st.u, grid.h) + (pot.a.values + st.w0) * st.u
            g_prev, g = _riesz(ctx, r, g_prev, free, action, cfg.riesz_tol, "metric")
            cerami = cerami_weight(Field(grid, st.u), norm_u(ctx, g))
            res_l2 = float(np.sqrt(np.sum(r * r)) * grid.h)
            trace.append((it, st.phi, st.qa, st.v0, st.qa + st.v0, cerami, res_l2))
            if cerami <= cfg.cerami_tol:
                return _finish(st.u, pot, table, action, cerami, accepted, True, trace)

            j_field = 2.0 * r + 2.0 * st.w0 * st.u
            eta_prev, eta = _riesz(
                ctx, j_field, eta_prev, free, action, cfg.riesz_tol, "constraint"
            )
            w = tangent_project(ctx, g, eta)
            lbfgs.push(st.u, w.values)
            d, dw = lbfgs.direction(ctx, w, eta)
            alpha = cfg.step_init if lbfgs.pairs else min(
                cfg.step_init, alpha / cfg.backtrack_factor
            )
            alpha = _line_search(st, d, dw, alpha, pot, table, cfg)
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


def _cores_disjoint(bumps: List[Field]) -> bool:
    """Half-peak cores pairwise more than CORE_GAP_CELLS cells apart.

    Spline rescaling spreads faint ripple past the true supports, so
    disjointness is judged on the cores, where the mass lives.
    """
    cores = [np.abs(b.values) > 0.5 * np.max(np.abs(b.values)) for b in bumps]
    for i, core in enumerate(cores[:-1]):
        grown = binary_dilation(core, iterations=CORE_GAP_CELLS)
        if any(np.any(grown & other) for other in cores[i + 1:]):
            return False
    return True


def make_bump_family(
    k: int,
    action: GroupAction,
    pot: Potential,
    table: KernelTable,
    cfg: SolveConfig,
) -> StartFamily:
    """k+1 invariant bumps with disjoint supports plus signed simplex samples.

    Bumps are jointly rescaled along T_t (t < 0) until every simplex sample
    satisfies q_a > 0 and V0 < 0, mirroring the disjoint-support start
    construction of the multiplicity argument. Disjointness is re-checked
    after every rescale: half-peak cores stay more than CORE_GAP_CELLS
    cells apart (StartFamilyError if reaching O would merge them).

    Vertex starts stay on their sites: for the trivial and lattice families
    (bumps on _bump_sites), a single-bump sample starts from its unscaled
    on-site bump whenever that bump lies in O; StartFamily.start applies
    the rule.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    grid = pot.a.grid
    h = grid.h
    # keep supports clear of the T_t clip band so the joint rescale below
    # can always take at least one step
    fit_limit = grid.L - max(1.0, grid.L * (1.0 - np.exp(-0.25)))

    on_site = None  # unscaled bumps on their _bump_sites sites
    if action.kind == KIND_RADIAL:
        # ring spacing widens on coarse grids so each annulus stays resolved
        spacing = max(0.8, 9.0 * h)
        radii = [0.9 + spacing * j for j in range(k + 1)]
        width = min(0.45 * (spacing - 2 * h), max(0.3, 3.5 * h))
        if width < 3 * h:
            raise StartFamilyError("grid too coarse for disjoint annular bumps")
        if radii[-1] + width > fit_limit:
            raise StartFamilyError("%d annular bumps do not fit the box" % (k + 1))
        bumps = [Field(grid, mollifier(((grid.r - R) / width) ** 2)) for R in radii]
    elif action.kind == KIND_ROTATION:
        m = action.m
        chord = 2.0 * np.sin(np.pi / (2 * m)) if m > 1 else 2.0
        bumps = []
        for j in range(k + 1):
            R = 1.2 + 0.9 * j
            rad = min(0.4, 0.45 * (R * chord - 2 * h))
            if k >= 1:
                rad = min(rad, 0.45 * (0.9 - 2 * h))  # keep annuli disjoint
            if rad < 3 * h:
                raise StartFamilyError("grid too coarse for disjoint sector bumps")
            if R + rad > fit_limit:
                raise StartFamilyError("%d sector bumps do not fit the box" % (k + 1))
            seed_bump = bump_field(grid, center=(R, 0.0), radius=rad)
            sym = project_invariant(seed_bump, action)
            if lp_norm(sym, 2) <= 1e-14:
                raise StartFamilyError("invariant projection annihilated a sector bump")
            bumps.append(sym)
    elif action.kind == KIND_GLIDE:
        offset = 0.9 if action.zeta_nontrivial else 0.0
        rad = 0.5
        bumps = []
        for j in range(k + 1):
            c1 = (j - 0.5 * k) * 1.6
            if abs(c1) + rad > fit_limit or offset + rad > fit_limit:
                raise StartFamilyError("%d glide bumps do not fit the box" % (k + 1))
            seed_bump = bump_field(grid, center=(c1, offset), radius=rad)
            sym = project_invariant(seed_bump, action)
            if lp_norm(sym, 2) <= 1e-14:
                raise StartFamilyError("invariant projection annihilated a glide bump")
            bumps.append(sym)
    else:
        centers, radius = _bump_sites(action, grid, k)
        if radius < 3 * h:
            raise StartFamilyError("grid too coarse for disjoint bumps (radius %.3g)" % radius)
        for c in centers:
            if np.max(np.abs(c)) + radius > fit_limit:
                raise StartFamilyError("%d bumps do not fit the box" % (k + 1))
        bumps = [bump_field(grid, center=tuple(c), radius=radius) for c in centers]
        on_site = bumps

    rng = np.random.default_rng(cfg.seed)
    samples = [np.eye(k + 1)[j] for j in range(k + 1)]
    for i in range(k + 1):
        for j in range(i + 1, k + 1):
            mid = np.zeros(k + 1)
            mid[i] = mid[j] = 0.5
            samples.append(mid)
    for _ in range(max(2, k)):
        s = rng.standard_normal(k + 1)
        while np.sum(np.abs(s)) <= 1e-12:
            s = rng.standard_normal(k + 1)
        samples.append(s / np.sum(np.abs(s)))

    # joint T_t rescaling (t < 0) until every sample lies in O, then onward
    # while the worst projected energy still improves: stopping at the first
    # O-entry leaves V0 barely negative, and sigma-projection catapults such
    # samples to enormous energies whose transients dominate the descent
    def worst_phi(bump_list):
        qa_mat = np.array(
            [[q_a_bilinear(bi, bj, pot) for bj in bump_list] for bi in bump_list]
        )
        sq = [Field(grid, b.values * b.values) for b in bump_list]
        v_mat = np.array([[b_form(si, sj, "B0", table) for sj in sq] for si in sq])
        worst = 0.0
        for s in samples:
            qa_s = float(s @ qa_mat @ s)
            v0_s = float((s * s) @ v_mat @ (s * s))
            if not (qa_s > 0 and v0_s < 0):
                return np.inf
            worst = max(worst, -qa_s * qa_s / (4.0 * v0_s))
        return worst

    def rescaled(bump_list):
        try:
            out = [scale_Tt(b, -0.25) for b in bump_list]
        except ScalingClipError as exc:
            raise StartFamilyError(
                "rescaling the start family hit the boundary band (%s); "
                "enlarge the box" % exc
            ) from exc
        if action.kind in (KIND_RADIAL, KIND_ROTATION, KIND_GLIDE):
            # spline resampling breaks exact invariance; restore it
            out = [project_invariant(b, action) for b in out]
        return out

    t_total = 0.0
    phi_now = worst_phi(bumps)
    while not np.isfinite(phi_now):
        t_total -= 0.25
        if t_total < -2.0:
            raise StartFamilyError(
                "cannot satisfy q_a > 0 and V0 < 0 within the scaling guard; "
                "enlarge the box or reduce k"
            )
        bumps = rescaled(bumps)
        if not _cores_disjoint(bumps):
            raise StartFamilyError(
                "rescaling into O merged the bump cores; enlarge the box or reduce k"
            )
        phi_now = worst_phi(bumps)
    while t_total > -2.0:
        deeper = rescaled(bumps)
        if not _cores_disjoint(deeper):
            break
        phi_deeper = worst_phi(deeper)
        if not phi_deeper < phi_now:
            break
        bumps = deeper
        phi_now = phi_deeper
        t_total -= 0.25

    # T_t is a dilation about the origin: it pulls the bumps of a site family
    # off their sites and shrinks them, and single-bump starts then fall to
    # the ground orbit. A vertex sample therefore starts from its unscaled
    # on-site bump whenever that bump already lies in O.
    vertex_starts = list(bumps)
    for i, b in enumerate(on_site or ()):
        sq = Field(grid, b.values * b.values)
        if q_a_bilinear(b, b, pot) > 0 and b_form(sq, sq, "B0", table) < 0:
            vertex_starts[i] = b
    return StartFamily(bumps=bumps, simplex_samples=samples, vertex_starts=vertex_starts)


def multistart_search(
    k: int,
    action: GroupAction,
    pot: Potential,
    table: KernelTable,
    cfg: SolveConfig,
) -> List[SolveResult]:
    """Descend from every simplex sample; dedup by orbit distance; sort by Phi."""
    ok, reason = check_admissible(action)
    if not ok and pot.ess_inf <= 0:
        raise AdmissibilityError(
            "action not admissible (%s) and ess inf a = %.3g <= 0" % (reason, pot.ess_inf)
        )
    family = make_bump_family(k, action, pot, table, cfg)

    results: List[SolveResult] = []
    for idx in range(len(family.simplex_samples)):
        try:
            res = descend(family.start(idx), action, pot, table, cfg)
        except DESCENT_ERRORS as exc:
            res = getattr(exc, "result", None)
            if res is None:
                continue
        res.start_index = idx
        results.append(res)

    results.sort(key=lambda r: r.breakdown.phi)
    kept: List[SolveResult] = []
    for res in results:
        dup = False
        for other in kept:
            thresh = DEDUP_REL * lp_norm(other.u, 2)
            if orbit_distance(res.u, other.u) <= thresh:
                dup = True
                break
        if not dup:
            kept.append(res)
    return kept


def ground_state(
    action: GroupAction,
    pot: Potential,
    table: KernelTable,
    cfg: SolveConfig,
) -> SolveResult:
    """Minimum-energy critical point under ess inf a > 0: multistart k=2 plus
    a radial Gaussian start; returns the lowest-Phi converged result."""
    if pot.ess_inf <= 0:
        raise GroundStateError(
            "indefinite potential: global minimality not certified; use multistart_search"
        )
    results = multistart_search(2, action, pot, table, cfg)

    grid = pot.a.grid
    gauss_result = None
    for width in (0.7, 0.5, 0.35):
        g0 = gaussian_field(grid, width=width)
        if action.has_projection:
            g0 = project_invariant(g0, action)
            if lp_norm(g0, 2) <= 1e-12:
                break
        bk = energy(g0, pot, table)
        if not (bk.q_a * bk.v0 < 0):
            continue
        try:
            gauss_result = descend(g0, action, pot, table, cfg)
        except DESCENT_ERRORS as exc:
            gauss_result = getattr(exc, "result", None)
        break
    if gauss_result is not None:
        results.append(gauss_result)

    converged = [r for r in results if r.converged]
    if not converged:
        raise GroundStateError("no start converged within the iteration budget")
    best = min(converged, key=lambda r: r.breakdown.phi)
    if not (best.breakdown.phi > 0):
        raise GroundStateError("ground state energy is not positive: %.6g" % best.breakdown.phi)
    return best

"""The identities the construction rests on, measured as defects.

Each function measures one invariant on the tables and fields its caller
passes and returns the numbers; the tolerance is the caller's. `battery`
binds them to small-grid inputs and tolerances as the checks of
`logchoquard check`; the acceptance tests call them at full scale.
"""

from __future__ import annotations

import numpy as np

from .barycenter import beta
from .field import Field, Grid, gaussian_field, lp_norm, norms, shift_cells
from .functionals import (
    Potential,
    const_potential,
    energy,
    fiber,
    nehari_project,
    phi_prime,
)
from .logkernel import KernelTable, b_form, direct_oracle, make_kernel_table
from .metric import inner_u, metric_context, metric_context_at, norm_u, riesz_gradient


def splitting_defect(table: KernelTable, f: Field, g: Field) -> float:
    """|B1 - B2 - B0| / (1 + |B0|) at (f, g): the splitting log = k1 - k2 at table.tau."""
    b0 = b_form(f, g, "B0", table)
    b1 = b_form(f, g, "B1", table)
    b2 = b_form(f, g, "B2", table)
    return abs(b1 - b2 - b0) / (1.0 + abs(b0))


def origin_cell_defect(table: KernelTable) -> float:
    """|k0 at the origin cell - the mean of log|y| over that h x h cell|, the mean
    from its polar form (8/h^2) int_0^{pi/4} R^2/2 (log R - 1/2) dtheta,
    R = (h/2)/cos(theta), by the 12-node Gauss-Legendre rule: a quadrature of
    its own, not the closed form the table is built from."""
    h = table.grid.h
    nodes, weights = np.polynomial.legendre.leggauss(12)
    theta = 0.125 * np.pi * (nodes + 1.0)  # [-1, 1] onto [0, pi/4]
    r = 0.5 * h / np.cos(theta)
    mean = np.pi / (h * h) * float(np.sum(weights * 0.5 * r * r * (np.log(r) - 0.5)))
    return abs(float(table.k0[0, 0]) - mean)


def oracle_defect(table: KernelTable, f: Field, g: Field) -> float:
    """|B0 by FFT - B0 by the direct O(n^4) sum| / |direct sum| at (f, g)."""
    exact = direct_oracle(f, g, "B0", table)
    return abs(b_form(f, g, "B0", table) - exact) / abs(exact)


def v1_bound(table: KernelTable, fields):
    """Arrays of V1(u) = B1(u^2, u^2) and of its lower bound tau |u|_2^4 over the fields u."""
    squares = [Field(u.grid, u.values * u.values) for u in fields]
    v1 = [b_form(usq, usq, "B1", table) for usq in squares]
    return np.array(v1), np.array([table.tau * lp_norm(u, 2) ** 4 for u in fields])


def barycenter_defects(u: Field, shifts, factors):
    """Equivariance defects of the barycenter at u: the max over the cell offsets c of
    |beta(u shifted by c) - beta(u) - h c|, the list of |beta(t u) - beta(u)| over the
    factors t, and |beta(|u|) - beta(u)|."""
    b = beta(u)
    shift = max(
        float(np.max(np.abs(beta(shift_cells(u, *c)) - (b + u.grid.h * np.array(c)))))
        for c in shifts
    )
    scale = [float(np.max(np.abs(beta(Field(u.grid, t * u.values)) - b))) for t in factors]
    return shift, scale, float(np.max(np.abs(beta(Field(u.grid, np.abs(u.values))) - b)))


def metric_shift_defect(u: Field, cells, v: Field) -> float:
    """| |v shifted|_(u shifted) - |v|_u | / |v|_u for a shift by the given cells:
    the u-metric commutes with grid translations.

    u and v are first shifted there and back, which drops what the shift
    pushes out of the box, so the shifted pair is an exact translate.
    """
    back = (-cells[0], -cells[1])
    u = shift_cells(shift_cells(u, *cells), *back)
    v = shift_cells(shift_cells(v, *cells), *back)
    n0 = norm_u(metric_context(u), v)
    n1 = norm_u(metric_context(shift_cells(u, *cells)), shift_cells(v, *cells))
    return abs(n1 - n0) / n0


def metric_continuity(samples):
    """Arrays, over the samples (c1, c2, v, w), of |<v, w>_c1 - <v, w>_c2| between
    the metrics centred at c1 and c2, and of its bound |c1 - c2| h^2 sum |v w|."""
    gap, bound = [], []
    for c1, c2, v, w in samples:
        ctx1, ctx2 = metric_context_at(v.grid, c1), metric_context_at(v.grid, c2)
        gap.append(abs(inner_u(ctx1, v, w) - inner_u(ctx2, v, w)))
        lipschitz = float(np.hypot(*(c1 - c2))) * v.grid.h ** 2
        bound.append(lipschitz * float(np.sum(np.abs(v.values * w.values))))
    return np.array(gap), np.array(bound)


def fd_errors(u: Field, v: Field, pot: Potential, table: KernelTable, steps):
    """|(Phi(u + e v) - Phi(u - e v)) / 2e - Phi'(u) v| for each step e."""
    p = phi_prime(u, v, pot, table)

    def phi(s):
        return energy(Field(u.grid, u.values + s * v.values), pot, table).phi

    return [abs((phi(eps) - phi(-eps)) / (2 * eps) - p) for eps in steps]


def riesz_defect(u: Field, pot: Potential, table: KernelTable, probes, tol: float) -> float:
    """max |<g, v>_u - Phi'(u) v| / (1 + |Phi'(u) v|) over the probes v, for the
    Riesz gradient g solved to relative residual tol."""
    g, _ = riesz_gradient(u, pot, table, tol=tol)
    ctx = metric_context(u)
    rhs = [phi_prime(u, v, pot, table) for v in probes]
    return max(abs(inner_u(ctx, g, v) - r) / (1 + abs(r)) for v, r in zip(probes, rhs))


def scaling_defects(grid: Grid, width: float, t: float, pot: Potential, table: KernelTable):
    """Relative defects (gradient, V0) of |grad T_t u|^2 = e^(-2t) |grad u|^2 and
    V0(T_t u) = V0(u) + t |u|_2^4 for the centred Gaussian u of the given width,
    whose image T_t u(x) = e^-t u(e^-t x) is the Gaussian of width e^t width and
    height e^-t; the defects are those of the grid's quadratures."""
    u = gaussian_field(grid, width=width)
    ut = gaussian_field(grid, width=np.exp(t) * width, amplitude=np.exp(-t))
    pred = np.exp(-2 * t) * norms(u).grad_sq
    v0 = energy(u, pot, table).v0
    l2q = lp_norm(u, 2) ** 4
    return (
        abs(norms(ut).grad_sq - pred) / pred,
        abs(energy(ut, pot, table).v0 - v0 - t * l2q) / max(abs(v0), abs(t) * l2q),
    )


def nehari_defects(u: Field, pot: Potential, table: KernelTable, samples: int):
    """Defects of the projection sigma(u) = t_u u of u in O: |J| / max(|q_a|, |V0|) at
    sigma(u), the larger relative defect of Phi = q_a/4 and Phi = -V0/4 there, and the
    distance in sample cells from t_u to the argmax of t -> Phi(t u) sampled at `samples`
    points of [t_u/2, 3 t_u/2]."""
    bk = energy(u, pot, table)
    bkp = energy(nehari_project(u, bk), pot, table)
    rel_j = abs(bkp.nehari_j) / max(abs(bkp.q_a), abs(bkp.v0))
    ident = max(abs(bkp.phi - bkp.q_a / 4), abs(bkp.phi + bkp.v0 / 4)) / (1 + abs(bkp.phi))
    t_star = float(np.sqrt(-bk.q_a / bk.v0))
    ts = np.linspace(0.5 * t_star, 1.5 * t_star, samples)
    t_hat = ts[int(np.argmax([fiber(t, bk) for t in ts]))]
    return rel_j, ident, abs(t_hat - t_star) / (ts[1] - ts[0])


def battery(grid: Grid, table: KernelTable, rng: np.random.Generator):
    """The checks of `logchoquard check` on one grid, as (names, run) in printed order;
    run() yields one (passed, detail) per name, passed None for a skipped check.

    Every random input is drawn here, so a check that raises leaves the others'
    inputs as they were. B0-splitting at tau = table.tau, the pointwise check
    and the origin-cell check read `table` itself, so a corrupted table fails
    them; the origin cell of k0 is seen by the last alone, since k2's origin
    cell is defined from it.
    """
    n = grid.n

    def sample(nonneg=False):
        vals = rng.standard_normal((n, n))
        if nonneg:
            vals = np.abs(vals)
        vals *= np.exp(-(grid.r ** 2))  # confine support away from the boundary
        return Field(grid, vals)

    split_pairs = {tau: (sample(True), sample(True)) for tau in (0.0, 0.5, 1.0)}
    f, g = sample(True), sample(True)
    v1_fields = [sample(True) for _ in range(3)]
    v, w = sample(), sample()
    m4_samples = [
        (rng.uniform(-1, 1, size=2), rng.uniform(-1, 1, size=2), sample(), sample())
        for _ in range(5)
    ]
    direction = sample()
    probes = [sample() for _ in range(3)]
    pot = const_potential(grid)
    u = gaussian_field(grid, width=0.6, center=(0.4, -0.2))
    base = gaussian_field(grid, width=0.8)

    def splitting():
        worst = max(
            splitting_defect(table if tau == table.tau else make_kernel_table(grid, tau), *pair)
            for tau, pair in split_pairs.items()
        )
        yield worst <= 1e-12, "max rel defect %.3g" % worst

    def pointwise():
        pw = float(np.max(np.abs(table.k1 - table.k2 - table.k0)))
        yield pw <= 1e-12, "max |k1-k2-k0| = %.3g" % pw

    def origin_cell():
        err = origin_cell_defect(table)
        yield err <= 1e-12, "|k0(0) - cell mean| = %.3g" % err

    def symmetry():
        b0 = b_form(f, g, "B0", table)
        sym = abs(b0 - b_form(g, f, "B0", table))
        yield sym <= 1e-12 * (1 + abs(b0)), "defect %.3g" % sym

    def oracle():
        if n > 32:
            yield None, "direct O(n^4) sum runs for n <= 32 only"
            return
        rel = oracle_defect(table, f, g)
        yield rel <= 1e-10, "rel err %.3g" % rel

    def v1_lower_bound():
        v1, bound = v1_bound(make_kernel_table(grid, 1.0), v1_fields)
        worst = float(np.min(v1 - bound * (1 - 1e-12)))
        yield worst >= 0, "min margin %.3g" % worst

    def barycenter():
        # t = -1, 0.5 and |u| rescale every intermediate by an exact power of
        # two (bitwise identical); t = 3 perturbs the input representation itself.
        shift, (neg, half, near), absolute = barycenter_defects(u, [(3, -2)], (-1.0, 0.5, 3.0))
        exact = max(neg, half, absolute)
        yield shift <= 1e-12, "defect %.3g" % shift
        yield exact == 0.0 and near <= 1e-12, "pow2 defect %.3g, t=3 defect %.3g" % (exact, near)

    def metric_m1():
        # norm equivalence ratios stay bounded for offset centers
        x2 = norms(v).x_sq
        ratios = [norm_u(metric_context_at(grid, (k, 0.0)), v) ** 2 / x2 for k in (0.0, 2.0, 5.0)]
        ok = all(0.05 < r < 20.0 for r in ratios)
        yield ok, "ratio range [%.3g, %.3g]" % (min(ratios), max(ratios))

    def metric_m3():
        # 5e-13 on the norm is no looser than 1e-12 on the squared norm
        rel = max(metric_shift_defect(u, (3, -2), x) for x in (v, w))
        yield rel <= 5e-13, "rel defect %.3g" % rel

    def metric_m4():
        gap, bound = metric_continuity(m4_samples)
        excess = max(0.0, float(np.max(gap - bound)))
        yield bool(np.all(gap <= bound * (1 + 1e-12) + 1e-14)), "max excess %.3g" % excess

    def gradient_fd():
        (err,) = fd_errors(base, direction, pot, table, (1e-4,))
        yield err <= 1e-5, "err %.3g at eps 1e-4" % err

    def riesz():
        worst = riesz_defect(base, pot, table, probes, tol=1e-10)
        yield worst <= 1e-8, "max rel defect %.3g" % worst

    def scaling():
        # smoke level; 0.1 e^-0.4 of the predicted gradient is 0.1 of the unscaled one
        rel_g, rel_v = scaling_defects(grid, 0.55, -0.2, pot, table)
        yield rel_g <= 0.1 * np.exp(-0.4), "rel err %.3g" % rel_g
        yield rel_v <= 0.1, "rel err %.3g" % rel_v

    def nehari():
        for width in (0.6, 0.4, 0.3):  # the first Gaussian inside O, else nehari_project raises
            state = gaussian_field(grid, width=width)
            bk = energy(state, pot, table)
            if bk.q_a * bk.v0 < 0:
                break
        rel_j, ident, off = nehari_defects(state, pot, table, 201)
        yield rel_j <= 1e-10, "rel J %.3g" % rel_j
        yield ident <= 1e-10, "defect %.3g" % ident
        yield off <= 1.0001, "argmax off by %.3g cells" % off

    return [
        (("B0-splitting",), splitting),
        (("kernel-table-pointwise",), pointwise),
        (("kernel-origin-cell",), origin_cell),
        (("B0-symmetry",), symmetry),
        (("B0-oracle",), oracle),
        (("V1-lower-bound",), v1_lower_bound),
        (("barycenter-shift", "barycenter-scale"), barycenter),
        (("metric-M1",), metric_m1),
        (("metric-M3",), metric_m3),
        (("metric-M4",), metric_m4),
        (("gradient-fd",), gradient_fd),
        (("riesz-identity",), riesz),
        (("scaling-gradient", "scaling-v0"), scaling),
        (("nehari-projection", "nehari-identity", "fiber-maximum"), nehari),
    ]

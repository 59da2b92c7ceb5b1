"""Constrained descent, start families, multistart search, ground state.

Oracles: an independent radially-parametrized direct minimization of the
projected energy (Powell over profile knots) upper-bounds the ground
energy; structural invariants (trace monotonicity, on-manifold identities,
the descent slope against a difference quotient of the reduced energy) are
asserted along real runs.
"""

import numpy as np
import pytest
from scipy.ndimage import binary_dilation
from scipy.optimize import minimize

from logchoquard import (
    DESCENT_ERRORS,
    Field,
    Grid,
    GroundStateError,
    OutsideScalingRegionError,
    SolveConfig,
    StartFamilyError,
    beta,
    bump_field,
    cerami_weight,
    cos2d_potential,
    const_potential,
    descend,
    energy,
    gaussian_field,
    glide_reflection,
    ground_state,
    inner_u,
    is_invariant,
    lattice_translation,
    lp_norm,
    make_bump_family,
    make_kernel_table,
    metric_context,
    metric_context_at,
    multistart_search,
    nehari_project,
    norm_u,
    project_invariant,
    residual_field,
    riesz_gradient,
    rotation_zeta,
    solve_metric_system,
    trivial_action,
)
from logchoquard.field import neg_laplacian
from logchoquard.functionals import NEHARI_REL_TOL
from logchoquard.solver import (
    BACKTRACK_FACTOR,
    GRADIENT,
    LOOSE_RIESZ_TOL,
    NEWTON,
    STEP_INIT,
    TIGHT_CERAMI_FACTOR,
    TRACE_COLUMNS,
    _bump_sites,
    _dilate,
)


@pytest.fixture(scope="module")
def ground64(grid64, table64, pot64):
    return ground_state(trivial_action(), pot64, table64, SolveConfig())


# ---------------------------------------------------------------- config


def test_solve_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(max_iters=0)
    with pytest.raises(ValueError):
        SolveConfig(cerami_tol=0.0)
    with pytest.raises(ValueError):
        SolveConfig(tau_split=-1.0)
    assert SolveConfig().cerami_tol == 1e-6


def test_trace_columns():
    assert TRACE_COLUMNS == (
        "iter", "phi", "q_a", "v0", "nehari_j", "cerami_weight", "residual_l2",
        "alpha", "backtracks", "direction", "cg", "hess",
    )
    u0, action, pot, table = descent_case("trivial")
    res = descend(u0, action, pot, table, SolveConfig(max_iters=5))
    assert res.trace
    assert all(len(row) == len(TRACE_COLUMNS) for row in res.trace)


# ------------------------------------------------------------ start families


def core_masks(bumps):
    # spline rescaling spreads faint ripple well past the true supports, so
    # disjointness is asserted on the half-peak cores where the mass lives
    return [np.abs(b.values) > 0.5 * np.max(np.abs(b.values)) for b in bumps]


@pytest.mark.parametrize("steps", [1, 2, 3])
def test_shift_dilation_matches_scipy(steps):
    rng = np.random.default_rng(steps)
    for _ in range(50):
        mask = rng.random(tuple(rng.integers(3, 40, 2))) < rng.uniform(0.01, 0.3)
        assert np.array_equal(_dilate(mask, steps), binary_dilation(mask, iterations=steps))


def test_bump_family_trivial(grid64, table64, pot64):
    fam = make_bump_family(2, trivial_action(), pot64, table64, SolveConfig())
    assert len(fam.bumps) == 3
    masks = core_masks(fam.bumps)
    for i in range(3):
        grown = binary_dilation(masks[i], iterations=2)  # 2h separation
        for j in range(i + 1, 3):
            assert not np.any(grown & masks[j])
    assert len(fam.starts) == 3


def test_bump_family_samples_lie_in_O(grid64, table64, pot64):
    fam = make_bump_family(2, trivial_action(), pot64, table64, SolveConfig())
    for start in fam.starts:
        bk = energy(start, pot64, table64)
        assert bk.q_a > 0 > bk.v0


def test_bump_family_deterministic(grid64, table64, pot64):
    f1 = make_bump_family(1, trivial_action(), pot64, table64, SolveConfig())
    f2 = make_bump_family(1, trivial_action(), pot64, table64, SolveConfig())
    for b1, b2 in zip(f1.bumps, f2.bumps):
        assert np.array_equal(b1.values, b2.values)
    for s1, s2 in zip(f1.starts, f2.starts):
        assert np.array_equal(s1.values, s2.values)


def test_bump_family_rotation_invariant():
    g = Grid(L=6.0, n=128)
    pot = const_potential(g)
    tb = make_kernel_table(g)
    fam = make_bump_family(1, rotation_zeta(2), pot, tb, SolveConfig())
    from logchoquard import is_invariant

    for b in fam.bumps:
        assert is_invariant(b, rotation_zeta(2)).defect <= 1e-12
        assert np.min(b.values) < 0 < np.max(b.values)  # zeta forces sign changes


def test_bump_family_glide():
    g = Grid(L=6.0, n=128)
    action = glide_reflection(g, 1.0, zeta_nontrivial=True)
    fam = make_bump_family(1, action, const_potential(g), make_kernel_table(g), SolveConfig())
    for b in fam.bumps:
        # the point part only: the glide's shift part is not compact
        assert np.max(np.abs(project_invariant(b, action).values - b.values)) <= 1e-12
        assert np.min(b.values) < 0 < np.max(b.values)  # zeta forces sign changes
    masks = core_masks(fam.bumps)
    assert not np.any(binary_dilation(masks[0], iterations=2) & masks[1])


def test_bump_family_glide_needs_resolved_bumps(grid32, table32, pot32):
    # glide seeds have radius 0.5, 1.33h at h = 0.375: below the 3h floor
    action = glide_reflection(grid32, 1.0, zeta_nontrivial=True)
    with pytest.raises(StartFamilyError, match="coarse"):
        make_bump_family(1, action, pot32, table32, SolveConfig())


def test_bump_family_vertex_starts_on_site():
    # the joint rescale dilates about the origin; the starts must still sit
    # on the inequivalent lattice sites their bumps were placed on
    g = Grid(L=4.0, n=64)
    pot = cos2d_potential(g, 1.0, 0.5, 1.0, 1.0)
    action = lattice_translation(g, (1.0, 0.0), (0.0, 1.0))
    fam = make_bump_family(4, action, pot, make_kernel_table(g), SolveConfig())
    centers, _ = _bump_sites(action, g, 4)
    for start, site in zip(fam.starts, centers):
        assert np.max(np.abs(beta(start) - site)) <= 1e-9


def test_bump_family_guards(grid64, table64, pot64):
    with pytest.raises(ValueError):
        make_bump_family(-1, trivial_action(), pot64, table64, SolveConfig())
    with pytest.raises(StartFamilyError, match="at most"):
        make_bump_family(8, trivial_action(), pot64, table64, SolveConfig())
    # a one-cell lattice cannot host resolved disjoint bumps
    tiny = lattice_translation(grid64, (grid64.h, 0.0), (0.0, grid64.h))
    with pytest.raises(StartFamilyError, match="coarse"):
        make_bump_family(2, tiny, pot64, table64, SolveConfig())
    # two sector-bump rings overrun the box
    small = Grid(L=3.0, n=64)
    with pytest.raises(StartFamilyError, match="2 sector bumps do not fit the box"):
        make_bump_family(
            1, rotation_zeta(2), const_potential(small, 1.0), make_kernel_table(small), SolveConfig()
        )
    # a deep well: reaching O merges the cores, or no scale reaches it
    with pytest.raises(StartFamilyError, match="merged"):
        make_bump_family(1, trivial_action(), const_potential(grid64, -500.0), table64, SolveConfig())
    with pytest.raises(StartFamilyError, match="cannot satisfy"):
        make_bump_family(0, trivial_action(), const_potential(grid64, -5000.0), table64, SolveConfig())


# --------------------------------------------------------------- descent


def test_descend_rejects_start_outside_O(grid64, table64, pot64):
    tiny = gaussian_field(grid64, width=3.5, amplitude=0.1)
    bk = energy(tiny, pot64, table64)
    assert bk.q_a * bk.v0 >= 0
    with pytest.raises(OutsideScalingRegionError):
        descend(tiny, trivial_action(), pot64, table64, SolveConfig())


def test_descend_budget_exhaustion_is_not_an_error(grid64, table64, pot64):
    res = descend(
        gaussian_field(grid64, width=0.7),
        trivial_action(),
        pot64,
        table64,
        SolveConfig(max_iters=3),
    )
    assert not res.converged
    assert len(res.trace) == 3


@pytest.mark.parametrize("error", DESCENT_ERRORS, ids=lambda e: e.__name__)
def test_descend_errors_after_the_start_carry_the_result(
    monkeypatch, grid64, table64, pot64, error
):
    import logchoquard.solver as solver_mod

    real_step = solver_mod._line_search
    steps = []

    def step_then_fail(*args):
        if len(steps) == 3:
            raise error("forced on a later iteration")
        steps.append(1)
        return real_step(*args)

    monkeypatch.setattr(solver_mod, "_line_search", step_then_fail)
    with pytest.raises(error) as info:
        descend(gaussian_field(grid64, width=0.7), trivial_action(), pot64, table64, SolveConfig())
    res = info.value.result
    assert res.iters == 3
    assert len(res.trace) == 4
    assert not res.converged
    # multistart keeps the result of every descent that fails after its start
    results = multistart_search(0, trivial_action(), pot64, table64, SolveConfig())
    assert results and not any(r.converged for r in results)


def test_solve_path_builds_no_split_kernel(grid32, pot32):
    # only check and convolve read k1/k2; the descent, energy and multistart
    # work with k0 alone, so a fresh table never builds the split kernels
    table = make_kernel_table(grid32)
    cfg = SolveConfig(max_iters=5)
    u0 = make_bump_family(0, trivial_action(), pot32, table, cfg).starts[0]
    res = descend(u0, trivial_action(), pot32, table, cfg)
    energy(res.u, pot32, table)
    multistart_search(0, trivial_action(), pot32, table, cfg)
    split = ("k1", "k2", "k1_hat", "k2_hat")
    assert not any(name in vars(table) for name in split)
    k1 = table.k1
    assert vars(table)["k1"] is k1


def test_descend_ground_state_invariants(ground64, grid64, table64, pot64):
    res = ground64
    assert res.converged
    assert res.cerami <= 1e-6
    assert res.nehari.label == "Nminus"
    bk = res.breakdown
    assert abs(bk.nehari_j) <= NEHARI_REL_TOL * max(abs(bk.q_a), abs(bk.v0), 1.0)
    assert bk.phi == pytest.approx(0.25 * bk.q_a, rel=1e-10)
    assert bk.phi == pytest.approx(-0.25 * bk.v0, rel=1e-10)
    assert bk.phi > 0
    # positive ground state (up to solver tolerance)
    vals = res.u.values if np.max(res.u.values) >= -np.min(res.u.values) else -res.u.values
    assert np.min(vals) >= -1e-8 * np.max(vals)
    assert not res.certificate.sign_changing
    # frozen regression value for a = 1, L = 6, n = 64
    assert bk.phi == pytest.approx(7.43236373, rel=1e-6)


def test_descend_trace_monotone_and_consistent(ground64):
    trace = ground64.trace
    phis = [row[1] for row in trace]
    for a, b in zip(phis, phis[1:]):
        assert b <= a + 1e-9 * (1 + abs(a))  # refresh jitter only
    for row in trace:
        it, phi, qa, v0, nj, cw, res = row[:7]
        assert phi == pytest.approx(0.5 * qa + 0.25 * v0, rel=1e-10)
        assert nj == pytest.approx(qa + v0, abs=1e-8 * max(qa, -v0))
    # every row but the last took a step: the first along the gradient,
    # every later one along a Newton solve (or the gradient where that
    # solve gives no descent), and every line search starts at STEP_INIT
    assert trace[0][9] == GRADIENT and trace[0][11] == 0
    for row in trace[:-1]:
        alpha, backtracks, direction, _, hess = row[7:12]
        assert alpha > 0 and backtracks >= 0 and direction in (GRADIENT, NEWTON)
        assert alpha == STEP_INIT * BACKTRACK_FACTOR ** backtracks
        assert (hess > 0) == (row[0] > 0)
    assert NEWTON in [row[9] for row in trace]
    assert trace[-1][7:10] == (0.0, 0, GRADIENT) and trace[-1][11] == 0


def test_descend_restart_from_solution_returns_immediately(ground64, table64, pot64):
    res = descend(ground64.u, trivial_action(), pot64, table64, SolveConfig())
    assert res.converged
    assert res.iters == 0
    assert len(res.trace) == 1


def test_converged_state_solves_the_equation(ground64, grid64, table64, pot64):
    # the nonlocal coefficient is genuinely present and the strong residual
    # is small relative to the solution scale
    from logchoquard import log_potential

    u = ground64.u
    w0 = log_potential(Field(grid64, u.values ** 2), table64)
    assert lp_norm(Field(grid64, w0.values * u.values), 2) > 1e-2
    final_res = ground64.trace[-1][6]
    assert final_res <= 1e-3


def descent_case(which):
    """(start, action, pot, table) of a short trivial, rot-zeta:2 or glide descent."""
    if which == "trivial":
        g = Grid(L=6.0, n=32)
        action = trivial_action()
        u0 = gaussian_field(g, width=0.7)
    else:
        # h = 0.094 as on the L = 6, n = 128 acceptance grid, on a smaller box
        g = Grid(L=3.0, n=64)
        if which == "glide":
            action = glide_reflection(g, 1.0, zeta_nontrivial=True)
            u0 = project_invariant(bump_field(g, center=(0.0, 0.9), radius=0.4), action)
        else:
            action = rotation_zeta(2)
            u0 = project_invariant(bump_field(g, center=(0.6, 0.0), radius=0.3), action)
    return u0, action, const_potential(g), make_kernel_table(g)


@pytest.mark.parametrize("which", ["trivial", "rot-zeta:2"])
def test_descend_solves_one_metric_system_per_trace_row(monkeypatch, which):
    # each row solves A_u g = r once, and again to riesz_tol from the loose
    # g exactly when the loose Cerami value is within TIGHT_CERAMI_FACTOR of
    # cerami_tol; the row records the last value
    import logchoquard.solver as solver_mod

    real_solve, real_gradient = solver_mod.solve_metric_system, solver_mod._gradient
    tols, values = [], []

    def counted(ctx, rhs, tol, **kwargs):
        tols.append(tol)
        return real_solve(ctx, rhs, tol, **kwargs)

    def gradient(*args):
        out = real_gradient(*args)
        values.append(out[2])
        return out

    monkeypatch.setattr(solver_mod, "solve_metric_system", counted)
    monkeypatch.setattr(solver_mod, "_gradient", gradient)
    u0, action, pot, table = descent_case(which)
    cfg = SolveConfig()
    res = descend(u0, action, pot, table, cfg)
    assert res.converged and len(res.trace) >= 3
    assert len(tols) == len(values) > len(res.trace)
    solves = iter(zip(tols, values))
    for row in res.trace:
        tol, value = next(solves)
        if row[0] == 0:
            assert tol == cfg.riesz_tol
        else:
            assert tol == max(cfg.riesz_tol, LOOSE_RIESZ_TOL)
            if value <= TIGHT_CERAMI_FACTOR * cfg.cerami_tol:
                tol, value = next(solves)
                assert tol == cfg.riesz_tol
        assert row[5] == value
    assert next(solves, None) is None


@pytest.mark.parametrize("which", ["trivial", "rot-zeta:2"])
def test_descent_slope_is_the_reduced_energy_slope(which):
    # on the Nehari manifold Psi = Phi o sigma has Psi'(u) = Phi'(u), so the
    # unprojected Riesz gradient g gives the slope of Psi along any
    # direction, a ray component included
    u0, action, pot, table = descent_case(which)
    grid = pot.a.grid
    u = nehari_project(u0, energy(u0, pot, table))
    ctx = metric_context(u)
    vals, _ = solve_metric_system(ctx, residual_field(u, pot, table).values, 1e-10, strict=True)
    g = project_invariant(Field(grid, vals), action)
    # <g, u>_u = Phi'(u) u = J(u) = 0
    assert abs(inner_u(ctx, g, u)) <= 1e-9 * norm_u(ctx, g) * norm_u(ctx, u)

    side = project_invariant(bump_field(grid, center=(0.4, 0.5), radius=4 * grid.h), action)
    d = side.values * (lp_norm(u, 2) / lp_norm(side, 2)) + 0.5 * u.values

    def psi(x):
        bk = energy(Field(grid, x), pot, table)
        return -bk.q_a ** 2 / (4.0 * bk.v0)

    slope = inner_u(ctx, g, Field(grid, d))
    errs = []
    for eps in (2e-3, 1e-3):
        central = (psi(u.values + eps * d) - psi(u.values - eps * d)) / (2.0 * eps)
        errs.append(abs(central - slope))
    assert errs[1] <= 1e-4 * abs(slope)
    assert 0.24 <= errs[1] / errs[0] <= 0.26  # O(eps^2): halving eps quarters it


@pytest.mark.parametrize("which", ["trivial", "rot-zeta:2", "glide"])
def test_converged_descent_is_certified_by_a_tight_solve(which):
    # descent solves are loose; converged rests on a Cerami value solved to
    # riesz_tol, which a fresh tight solve at the result reproduces. That
    # solve is unrestricted: a critical point of Phi on the invariant fields
    # is critical for the full problem (Palais), at every cell of the grid
    u0, action, pot, table = descent_case(which)
    cfg = SolveConfig()
    res = descend(u0, action, pot, table, cfg)
    assert res.converged
    _, gn = riesz_gradient(res.u, pot, table, tol=cfg.riesz_tol)
    cerami = cerami_weight(res.u, gn)
    assert cerami <= cfg.cerami_tol
    assert res.cerami == pytest.approx(cerami, rel=1e-6)


@pytest.mark.parametrize("which", ["trivial", "rot-zeta:2"])
def test_loose_iterations_step_with_the_exact_slope(monkeypatch, which):
    # a loose g is only used for the Cerami value and the gradient
    # fallback; the Armijo slope of every direction, the Newton ones
    # included, is Phi'(u) d = h^2 r.d with r the residual of the iterate
    # (w0 its tracked log * u^2)
    import logchoquard.solver as solver_mod

    u0, action, pot, table = descent_case(which)
    cfg = SolveConfig()
    grid = pot.a.grid
    if which == "trivial":
        # off centre, so the descent also drifts: from the centred Gaussian
        # Newton converges after 5 loose steps, too few to test
        u0 = bump_field(grid, center=(0.5, 0.0), radius=1.0)
    real_solve, real_step = solver_mod.solve_metric_system, solver_mod._line_search
    real_newton = solver_mod._newton_direction
    tols, errs, newton, kinds = [], [], [], []

    def solve(ctx, rhs, tol, **kwargs):
        tols.append(tol)
        return real_solve(ctx, rhs, tol, **kwargs)

    def newton_direction(*args):
        out = real_newton(*args)
        newton.append(out[0])
        return out

    def step(st, d, slope, *args):
        if tols[-1] > cfg.riesz_tol:
            r = neg_laplacian(st.u, grid.h) + (pot.a.values + st.w0) * st.u
            exact = grid.h ** 2 * float(np.sum(r * d.values))
            errs.append(abs(slope - exact) / abs(exact))
            kinds.append(bool(newton) and d is newton[-1])
        return real_step(st, d, slope, *args)

    monkeypatch.setattr(solver_mod, "solve_metric_system", solve)
    monkeypatch.setattr(solver_mod, "_newton_direction", newton_direction)
    monkeypatch.setattr(solver_mod, "_line_search", step)
    res = descend(u0, action, pot, table, cfg)
    assert res.converged and len(errs) >= 6 and sum(kinds) >= 6
    assert max(errs) <= 1e-12


@pytest.mark.parametrize("which", ["rot-zeta:2", "glide"])
def test_newton_direction_is_invariant(which):
    # H and the shifted fast Poisson solve commute with the action, so the
    # PCG output is projected once, at the end
    import logchoquard.solver as solver_mod

    u0, action, pot, table = descent_case(which)
    g = pot.a.grid
    st = solver_mod._Iterate(u0.values, pot, table)
    ctx = metric_context_at(g, beta(Field(g, st.u)))
    r = neg_laplacian(st.u, g.h) + (pot.a.values + st.w0) * st.u
    vals, _ = solve_metric_system(ctx, r, 1e-10, strict=True)
    grad = project_invariant(Field(g, vals), action)
    d, slope, kind, products = solver_mod._newton_direction(st, ctx, r, grad, action, pot, table)
    assert kind == NEWTON and slope > 0.0 and products > 0
    assert is_invariant(d, action).defect <= 1e-14


@pytest.mark.parametrize(
    "name, rows, products",
    [("signchange", 13, 60), ("ground", 9, 20), ("periodic", 10, 21)],
    ids=["signchange", "ground", "periodic"],
)
def test_benchmark_operation_budget(name, rows, products):
    # the benchmark configs, one descent per start: counts are deterministic,
    # so a regression in the Newton preconditioner shows without timing noise
    # (measured rows and Hessian products per descent: signchange 11 and 39,
    # ground 7 and 13, periodic 8 and 14)
    if name == "signchange":
        g = Grid(L=6.0, n=128)
        pot, action, k, cfg = const_potential(g), rotation_zeta(2), 0, SolveConfig()
    elif name == "ground":
        g = Grid(L=12.0, n=128)
        pot, action, k, cfg = const_potential(g), trivial_action(), 2, SolveConfig()
    else:
        g = Grid(L=8.0, n=128)
        pot = cos2d_potential(g, 1.0, 0.5, 1.0, 1.0)
        action, k = lattice_translation(g, (1.0, 0.0), (0.0, 1.0)), 1
        cfg = SolveConfig(max_iters=400)
    table = make_kernel_table(g)
    starts = make_bump_family(k, action, pot, table, cfg).starts
    assert len(starts) == k + 1
    for u0 in starts:
        res = descend(u0, action, pot, table, cfg)
        assert res.converged
        assert res.certificate.sign_changing == (name == "signchange")
        assert len(res.trace) <= rows
        assert sum(row[11] for row in res.trace) <= products


def test_periodic_drift_tail_converges_in_few_steps():
    # a signed mix of the unit-lattice family's two bumps: its merged bump
    # drifts across the potential, the soft mode the metric pairing resolves
    g = Grid(L=8.0, n=128)
    pot = cos2d_potential(g, 1.0, 0.5, 1.0, 1.0)
    action = lattice_translation(g, (1.0, 0.0), (0.0, 1.0))
    table = make_kernel_table(g)
    fam = make_bump_family(1, action, pot, table, SolveConfig())
    s = np.random.default_rng(0).standard_normal(2)
    s /= np.sum(np.abs(s))
    assert np.allclose(s, [0.488, -0.512], atol=1e-3)
    vals = np.zeros((g.n, g.n))
    for i in range(2):
        vals += s[i] * fam.bumps[i].values
    res = descend(Field(g, vals), action, pot, table, SolveConfig())
    assert res.converged
    assert res.iters <= 100
    assert sum(row[8] for row in res.trace) <= 50


def test_a_loose_converged_value_takes_no_step():
    # the k=2 family's start at (2, 0) on L = 6, n = 128 sits in a sliding
    # valley: a Newton step from a point a loose solve already shows to be
    # converged sets off a slide of about 200 rows. The row that sees it
    # solves again to riesz_tol and ends the descent instead
    g = Grid(L=6.0, n=128)
    pot = const_potential(g)
    table = make_kernel_table(g)
    cfg = SolveConfig()
    u0 = make_bump_family(2, trivial_action(), pot, table, cfg).starts[1]
    res = descend(u0, trivial_action(), pot, table, cfg)
    assert res.converged and len(res.trace) <= 12
    assert all(row[5] > cfg.cerami_tol for row in res.trace[:-1])
    assert res.breakdown.phi == pytest.approx(7.4687757782, rel=1e-9)


def test_periodic_multistart_keeps_both_orbits():
    # the periodic benchmark config: a Newton step taken from a row that a
    # loose solve already shows converged lets the upper start slide off its
    # site and fall to the ground orbit (with the Newton phase from the first
    # row, or from Cerami 1 or 300)
    g = Grid(L=8.0, n=128)
    pot = cos2d_potential(g, 1.0, 0.5, 1.0, 1.0)
    action = lattice_translation(g, (1.0, 0.0), (0.0, 1.0))
    results = multistart_search(1, action, pot, make_kernel_table(g), SolveConfig(max_iters=400))
    assert [r.converged for r in results] == [True, True]
    phis = [r.breakdown.phi for r in results]
    assert phis == pytest.approx([7.4514708689, 7.4593155650], rel=1e-8)
    # a lattice imposes no pointwise invariance, so its results certify 0
    assert [r.certificate.defect for r in results] == [0.0, 0.0]


# ---------------------------------------------------- independent energy oracle


def test_ground_energy_against_radial_knot_minimization():
    # minimize the sigma-projected energy over radial profiles interpolated
    # from 8 knots: an independent upper bound the descent must beat
    g = Grid(L=6.0, n=32)
    pot = const_potential(g)
    tb = make_kernel_table(g)
    res = descend(gaussian_field(g, width=0.7), trivial_action(), pot, tb, SolveConfig())
    assert res.converged

    knots = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 2.75, 3.5, 4.5])

    def projected_energy(params):
        u = Field(g, np.interp(g.r, knots, params, right=0.0))
        bk = energy(u, pot, tb)
        if not (bk.q_a > 0 > bk.v0):
            return 1e6
        return -bk.q_a ** 2 / (4.0 * bk.v0)

    x0 = np.exp(-(knots ** 2) / (2 * 0.7 ** 2))
    out = minimize(
        projected_energy, x0, method="Powell",
        options={"maxiter": 60, "xtol": 1e-10, "ftol": 1e-12},
    )
    assert out.fun < 1e6
    assert res.breakdown.phi <= out.fun * (1 + 1e-9)
    assert res.breakdown.phi >= 0.97 * out.fun


# ------------------------------------------------------------- multistart


def test_multistart_k0_collapses_to_ground_orbit():
    g = Grid(L=6.0, n=32)
    pot = const_potential(g)
    tb = make_kernel_table(g)
    results = multistart_search(0, trivial_action(), pot, tb, SolveConfig())
    assert len(results) == 1  # all starts reach the same orbit
    assert results[0].converged
    assert results[0].start_index is not None
    assert results[0].breakdown.phi == pytest.approx(7.26809407, rel=1e-6)


def test_multistart_results_sorted_by_energy():
    # L = 10 so the two-bump catalog sites clear the rescaling margin
    g = Grid(L=10.0, n=64)
    pot = const_potential(g)
    tb = make_kernel_table(g)
    results = multistart_search(1, trivial_action(), pot, tb, SolveConfig(max_iters=300))
    assert results
    phis = [r.breakdown.phi for r in results]
    assert phis == sorted(phis)


def test_multistart_requires_admissible_or_coercive(grid64, table64):
    from logchoquard import AdmissibilityError

    indefinite = cos2d_potential(grid64, base=0.0, amp=0.5, k1=0.25, k2=0.25)
    assert indefinite.ess_inf <= 0
    with pytest.raises(AdmissibilityError):
        multistart_search(1, trivial_action(), indefinite, table64, SolveConfig())


def test_multistart_survives_failing_starts(monkeypatch, grid64, table64, pot64):
    import logchoquard.solver as solver_mod
    from logchoquard import LineSearchError

    def broken(u0, action, pot, table, cfg):
        raise LineSearchError("forced failure")

    monkeypatch.setattr(solver_mod, "descend", broken)
    results = solver_mod.multistart_search(0, trivial_action(), pot64, table64, SolveConfig())
    assert results == []


def test_multistart_descends_once_per_start(monkeypatch, grid64, table64, pot64):
    import logchoquard.solver as solver_mod
    from logchoquard import LineSearchError

    starts = []

    def counted(u0, action, pot, table, cfg):
        starts.append(u0)
        raise LineSearchError("counted only")

    monkeypatch.setattr(solver_mod, "descend", counted)
    for k in (0, 2):
        starts.clear()
        solver_mod.multistart_search(k, trivial_action(), pot64, table64, SolveConfig())
        assert len(starts) == k + 1
    # the ground state has no start of its own: one descent per bump of k=2
    starts.clear()
    with pytest.raises(GroundStateError, match="no start converged"):
        solver_mod.ground_state(trivial_action(), pot64, table64, SolveConfig())
    assert len(starts) == 3


def test_multistart_dedup_keeps_the_converged_copy(monkeypatch, grid64, table64, pot64):
    # a capped start within DEDUP_REL of a converged orbit is a copy of it,
    # even when it stopped at a lower Phi
    import types

    import logchoquard.solver as solver_mod
    from logchoquard import LineSearchError

    u = bump_field(grid64, center=(0.0, 0.0), radius=1.0)
    copies = [(u.values, 1.0, False), ((1.0 + 1e-6) * u.values, 1.1, True)]

    def fake(u0, action, pot, table, cfg):
        if not copies:
            raise LineSearchError("no result")
        vals, phi, converged = copies.pop(0)
        return solver_mod.SolveResult(
            u=Field(grid64, vals), breakdown=types.SimpleNamespace(phi=phi), cerami=0.0,
            nehari=None, certificate=None, iters=1, converged=converged,
        )

    monkeypatch.setattr(solver_mod, "descend", fake)
    results = solver_mod.multistart_search(1, trivial_action(), pot64, table64, SolveConfig())
    assert [(r.breakdown.phi, r.converged, r.start_index) for r in results] == [(1.1, True, 1)]


# ------------------------------------------------------------- ground state


def test_ground_state_requires_coercive_potential(grid64, table64):
    indefinite = cos2d_potential(grid64, base=0.0, amp=0.5, k1=0.25, k2=0.25)
    with pytest.raises(GroundStateError, match="multistart_search"):
        ground_state(trivial_action(), indefinite, table64, SolveConfig())


def test_ground_state_is_least_among_multistart(ground64):
    assert ground64.breakdown.phi > 0
    assert ground64.converged

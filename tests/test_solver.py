"""Constrained descent, start families, multistart search, ground state.

Oracles: an independent radially-parametrized direct minimization of the
projected energy (Powell over profile knots) upper-bounds the ground
energy; structural invariants (trace monotonicity, on-manifold identities,
the descent slope against a difference quotient of the reduced energy) are
asserted along real runs.
"""

import itertools

import numpy as np
import pytest
from scipy.ndimage import binary_dilation
from scipy.optimize import brentq, minimize

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
    multistart_search,
    nehari_project,
    norm_u,
    project_invariant,
    radial_well_potential,
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
    NEWTON_CG_TOL,
    STEP_INIT,
    TRACE_COLUMNS,
    _bump_sites,
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
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError):
            SolveConfig(cerami_tol=bad)
        with pytest.raises(ValueError):
            SolveConfig(tau_split=bad)
        with pytest.raises(ValueError):
            make_kernel_table(Grid(L=6.0, n=16), bad)
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


def supports(bumps):
    # T_t images are exact, so every bump keeps its compact support
    return [b.values != 0 for b in bumps]


def test_bump_family_trivial(grid64, table64):
    # a minimum, a maximum and a saddle of a: three bumps
    pot = cos2d_potential(grid64, 1.0, 0.5, 1.0, 1.0)
    fam = make_bump_family(2, trivial_action(), pot, table64, SolveConfig())
    assert len(fam.bumps) == 3
    masks = supports(fam.bumps)
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
    # at h = 0.5 the seed already lies in O and T_t still lowers its
    # Psi = -q_a^2 / (4 V0): the start is a T_t image, on the seed's site
    g = Grid(L=8.0, n=32)
    pot, tb = const_potential(g), make_kernel_table(g)
    fam = make_bump_family(0, trivial_action(), pot, tb, SolveConfig())
    seed, start = energy(fam.bumps[0], pot, tb), energy(fam.starts[0], pot, tb)
    assert seed.q_a > 0 > seed.v0
    assert -start.q_a ** 2 / start.v0 < -seed.q_a ** 2 / seed.v0
    assert np.max(np.abs(beta(fam.starts[0]))) <= 1e-9


def test_bump_family_deterministic(grid64, table64, pot64):
    f1 = make_bump_family(1, trivial_action(), pot64, table64, SolveConfig())
    f2 = make_bump_family(1, trivial_action(), pot64, table64, SolveConfig())
    for b1, b2 in zip(f1.bumps, f2.bumps):
        assert np.array_equal(b1.values, b2.values)
    for s1, s2 in zip(f1.starts, f2.starts):
        assert np.array_equal(s1.values, s2.values)


def test_bump_family_rotation_invariant():
    # each sector bump settles into O along T_t on its own
    g = Grid(L=6.0, n=128)
    pot = const_potential(g)
    tb = make_kernel_table(g)
    cases = [(1, True), (2, False), (2, True)]  # rot-zeta:1, rot:2, rot-zeta:2
    for (m, zeta), k in itertools.product(cases, [1, 2]):
        action = rotation_zeta(m, zeta_nontrivial=zeta)
        fam = make_bump_family(k, action, pot, tb, SolveConfig())
        assert len(fam.starts) == k + 1
        for start in fam.starts:
            bk = energy(start, pot, tb)
            assert bk.q_a > 0 > bk.v0
            assert is_invariant(start, action).defect <= 1e-12
            if zeta:
                assert np.min(start.values) < 0 < np.max(start.values)  # zeta forces sign changes


def test_bump_family_deep_lattice_well_lies_in_O():
    # in a deep well each bump needs several T_t steps to reach O, taken on
    # its own; each step is the exact image of its seed. Deeper still, the
    # bumps shrink below the grid before they reach O, and the family is
    # refused rather than built from samples that are no image of T_t
    g = Grid(L=8.0, n=128)
    tb = make_kernel_table(g)
    action = lattice_translation(g, (1.0, 0.0), (0.0, 1.0))
    pot = const_potential(g, -100.0)
    fam = make_bump_family(1, action, pot, tb, SolveConfig())
    centers, radius = _bump_sites(action, pot, 1)
    for start, center in zip(fam.starts, centers):
        bk = energy(start, pot, tb)
        assert bk.q_a > 0 > bk.v0
        images = [
            bump_field(g, np.exp(t) * center, np.exp(t) * radius, np.exp(-t)).values
            for t in -0.25 * np.arange(2, 9)
        ]
        assert any(np.array_equal(start.values, image) for image in images)
    with pytest.raises(StartFamilyError, match="cannot satisfy"):
        make_bump_family(1, action, const_potential(g, -200.0), tb, SolveConfig())


def test_bump_family_glide():
    g = Grid(L=6.0, n=128)
    action = glide_reflection(g, 1.0, zeta_nontrivial=True)
    fam = make_bump_family(1, action, const_potential(g), make_kernel_table(g), SolveConfig())
    for b in fam.bumps:
        # the point part only: the glide's shift part is not compact
        assert np.max(np.abs(project_invariant(b, action).values - b.values)) <= 1e-12
        assert np.min(b.values) < 0 < np.max(b.values)  # zeta forces sign changes
    masks = supports(fam.bumps)
    assert not np.any(binary_dilation(masks[0], iterations=2) & masks[1])


def test_bump_family_glide_needs_resolved_bumps(grid32, table32, pot32):
    # glide seeds have radius 0.5, 1.33h at h = 0.375: below the 3h floor
    action = glide_reflection(grid32, 1.0, zeta_nontrivial=True)
    with pytest.raises(StartFamilyError, match="coarse"):
        make_bump_family(1, action, pot32, table32, SolveConfig())


def test_bump_family_vertex_starts_on_site():
    # each seed dilates about its own site, so every start sits on the
    # inequivalent lattice site its bump was placed on: in a shallow a,
    # and in a deep well where every seed lies outside O and needs T_t
    g = Grid(L=4.0, n=64)
    shallow = cos2d_potential(g, 1.0, 0.5, 1.0, 1.0)
    deep_g = Grid(L=8.0, n=128)
    deep = cos2d_potential(deep_g, -60.0, 10.0, 1.0, 1.0)
    for pot, k in ((shallow, 4), (deep, 2)):
        grid = pot.a.grid
        tb = make_kernel_table(grid)
        action = lattice_translation(grid, (1.0, 0.0), (0.0, 1.0))
        fam = make_bump_family(k, action, pot, tb, SolveConfig())
        centers, _ = _bump_sites(action, pot, k)
        assert len(fam.starts) == len(centers) == 3
        for start, site in zip(fam.starts, centers):
            assert np.max(np.abs(beta(start) - site)) <= 1e-9
        if pot is deep:
            for seed in fam.bumps:
                bk = energy(seed, pot, tb)
                assert not bk.q_a > 0 > bk.v0


def test_bump_family_guards(grid64, table64, pot64):
    with pytest.raises(ValueError):
        make_bump_family(-1, trivial_action(), pot64, table64, SolveConfig())
    # two sector-bump rings overrun the box
    small = Grid(L=3.0, n=64)
    with pytest.raises(StartFamilyError, match="2 sector bumps do not fit the box"):
        make_bump_family(
            1, rotation_zeta(2), const_potential(small, 1.0), make_kernel_table(small), SolveConfig()
        )
    # a deep well: no scale reaches O
    with pytest.raises(StartFamilyError, match="cannot satisfy"):
        make_bump_family(0, trivial_action(), const_potential(grid64, -5000.0), table64, SolveConfig())
    # a of period 4 on a box of half-width 3: its four saddle vertices lie
    # 1.33 from the maximum site at the origin, nearer than 2 radius + 2h
    coarse = Grid(L=3.0, n=32)
    too_near = r"no saddle of a lies 2 radius \+ 2h = 1.69 from the 2 bump sites"
    with pytest.raises(StartFamilyError, match=too_near):
        make_bump_family(
            2, trivial_action(), cos2d_potential(coarse, 1.0, 0.5, 0.25, 0.25),
            make_kernel_table(coarse), SolveConfig(),
        )


def test_bump_sites_are_one_minimum_maximum_and_saddle_of_a():
    # cos(2 pi x1) cos(2 pi x2) is -1 at a minimum of a, +1 at a maximum and
    # 0 at a saddle; the sites keep 2 radius + 2h apart, so the bumps are disjoint
    g = Grid(L=8.0, n=128)
    pot = cos2d_potential(g, 1.0, 0.5, 1.0, 1.0)
    action = lattice_translation(g, (1.0, 0.0), (0.0, 1.0))
    centers, radius = _bump_sites(action, pot, 4)
    wave = [np.cos(2 * np.pi * c[0]) * np.cos(2 * np.pi * c[1]) for c in centers]
    assert wave == pytest.approx([-1.0, 1.0, 0.0], abs=1e-12)
    for c, d in itertools.combinations(centers, 2):
        assert np.hypot(*(c - d)) >= 2 * radius + 2 * g.h
    # k caps the kinds used, in the order minimum, maximum, saddle
    assert [len(_bump_sites(action, pot, k)[0]) for k in (0, 1, 2)] == [1, 2, 3]
    assert np.array_equal(_bump_sites(action, pot, 1)[0], centers[:2])


def test_bump_sites_without_a_critical_vertex_or_with_one_well():
    # a constant a has no critical vertex, whatever k: one bump at the
    # origin. A radial well has one, its centre
    g = Grid(L=8.0, n=64)
    for k in (0, 1, 4):
        centers, _ = _bump_sites(trivial_action(), const_potential(g), k)
        assert np.array_equal(centers, [[0.0, 0.0]])
        centers, _ = _bump_sites(trivial_action(), radial_well_potential(g, 0.5, 1.5), k)
        assert np.array_equal(centers, [[0.0, 0.0]])


# --------------------------------------------------------------- descent


def test_descend_rejects_start_outside_O(grid64, table64, pot64):
    tiny = gaussian_field(grid64, width=3.5, amplitude=0.1)
    bk = energy(tiny, pot64, table64)
    assert bk.q_a * bk.v0 >= 0
    with pytest.raises(OutsideScalingRegionError) as info:
        descend(tiny, trivial_action(), pot64, table64, SolveConfig())
    assert not hasattr(info.value, "result")  # raised before the first row


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
        assert b <= a + 1e-9 * (1 + abs(a))  # each row recomputes Phi: rounding only
    for row in trace:
        it, phi, qa, v0, nj, cw, res = row[:7]
        assert phi == pytest.approx(0.5 * qa + 0.25 * v0, rel=1e-10)
        assert nj == pytest.approx(qa + v0, abs=1e-8 * max(qa, -v0))
    # every row but the last took a step along a Newton solve (or the
    # gradient where that solve gives no descent), the first row included,
    # and every line search starts at STEP_INIT
    for row in trace[:-1]:
        alpha, backtracks, direction, _, hess = row[7:12]
        assert alpha > 0 and backtracks >= 0 and direction in (GRADIENT, NEWTON)
        assert alpha == STEP_INIT * BACKTRACK_FACTOR ** backtracks
        assert hess > 0
    assert NEWTON in [row[9] for row in trace]
    assert trace[-1][7:10] == (0.0, 0, GRADIENT) and trace[-1][11] == 0


def test_descend_stays_on_the_manifold_below_its_resolution():
    # with an unreachable tolerance the Newton rows go on past what the grid
    # resolves, with huge directions and tiny steps along near-null
    # translation modes; every row's Phi comes from its own (u, w0), so it
    # neither falls below the critical level nor jumps back up
    g = Grid(L=6.0, n=128)
    pot, table = const_potential(g), make_kernel_table(g)
    cfg = SolveConfig(cerami_tol=1e-300, max_iters=24)
    u0 = make_bump_family(0, trivial_action(), pot, table, cfg).starts[0]
    try:
        res = descend(u0, trivial_action(), pot, table, cfg)
    except DESCENT_ERRORS as err:
        res = err.result
    phis = [row[1] for row in res.trace]
    for a, b in zip(phis, phis[1:]):
        assert b <= a + 1e-12 * abs(a)
    assert phis[-1] == pytest.approx(7.468775762, rel=1e-9)
    assert res.breakdown.phi == pytest.approx(7.468775762, rel=1e-9)
    assert res.nehari.label == "Nminus"


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
    # each row solves A_u g = r exactly once, loosely, and records the
    # certified Cerami value of that solve
    import logchoquard.solver as solver_mod

    real_solve, real_gradient = solver_mod.solve_metric_system, solver_mod._gradient
    tols, values = [], []

    def counted(ctx, rhs, tol, **kwargs):
        tols.append(tol)
        return real_solve(ctx, rhs, tol, **kwargs)

    def gradient(*args):
        out = real_gradient(*args)
        values.append(out[1])
        return out

    monkeypatch.setattr(solver_mod, "solve_metric_system", counted)
    monkeypatch.setattr(solver_mod, "_gradient", gradient)
    u0, action, pot, table = descent_case(which)
    res = descend(u0, action, pot, table, SolveConfig())
    assert res.converged and len(res.trace) >= 3
    assert len(tols) == len(values) == len(res.trace)
    assert all(tol == LOOSE_RIESZ_TOL for tol in tols)
    assert [row[5] for row in res.trace] == values


@pytest.mark.parametrize("which", ["trivial", "rot-zeta:2", "glide"])
def test_gradient_bounds_the_tight_cerami_value(which):
    # at the start, where the loose solve's error weighs most, the
    # certified value of _gradient still sits above the tight one
    import logchoquard.solver as solver_mod

    u0, action, pot, table = descent_case(which)
    grid = pot.a.grid
    st = solver_mod._Iterate(project_invariant(u0, action).values, None, pot, table)
    u = Field(grid, st.u)
    _, bound = solver_mod._gradient(st, action, [])
    _, gn = riesz_gradient(u, pot, table, tol=1e-10)
    assert cerami_weight(u, gn) <= bound


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
    # descent solves are loose; converged rests on their certified upper
    # bound of the Cerami value, which a fresh tight solve at the result
    # stays below, and closely. That solve is unrestricted: a critical point
    # of Phi on the invariant fields is critical for the full problem
    # (Palais), at every cell of the grid
    u0, action, pot, table = descent_case(which)
    cfg = SolveConfig()
    res = descend(u0, action, pot, table, cfg)
    assert res.converged
    _, gn = riesz_gradient(res.u, pot, table, tol=1e-10)
    cerami = cerami_weight(res.u, gn)
    assert cerami <= res.cerami <= cfg.cerami_tol
    assert res.cerami <= 1.2 * cerami


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
    real_step, real_newton = solver_mod._line_search, solver_mod._newton_direction
    errs, newton, kinds = [], [], []

    def newton_direction(*args):
        out = real_newton(*args)
        newton.append(out[0])
        return out

    def step(st, d, slope, *args):
        r = neg_laplacian(st.u, grid.h) + (pot.a.values + st.w0) * st.u
        exact = grid.h ** 2 * float(np.sum(r * d.values))
        errs.append(abs(slope - exact) / abs(exact))
        kinds.append(bool(newton) and d is newton[-1])
        return real_step(st, d, slope, *args)

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
    st = solver_mod._Iterate(u0.values, None, pot, table)
    d, slope, products, _ = solver_mod._newton_direction(st, NEWTON_CG_TOL, action, pot, table)
    assert slope > 0.0 and products > 0
    assert is_invariant(d, action).defect <= 1e-14


def test_newton_row_below_the_unit_mass_steps(monkeypatch):
    # in a negative-constant well the Hessian's potential a + w0 has a mean
    # below 1, so the fast Poisson mass floors at 1, the mass of
    # M0 = -Delta_h + 1, and the row still steps: along d when its slope is
    # positive, along the gradient fallback otherwise
    import logchoquard.solver as solver_mod

    g = Grid(L=6.0, n=32)
    action, pot, table = trivial_action(), const_potential(g, -5.0), make_kernel_table(g)
    u0 = make_bump_family(0, action, pot, table, SolveConfig()).starts[0]
    st = solver_mod._Iterate(u0.values, None, pot, table)
    assert np.mean(pot.a.values + st.w0) < 1.0
    real, masses = solver_mod.preconditioner, []

    def preconditioner(grid, mass):
        masses.append(mass)
        return real(grid, mass)

    monkeypatch.setattr(solver_mod, "preconditioner", preconditioner)
    _, slope, products, _ = solver_mod._newton_direction(st, NEWTON_CG_TOL, action, pot, table)
    assert masses == [1.0] and products > 0
    row = descend(u0, action, pot, table, SolveConfig(max_iters=1)).trace[0]
    assert masses == [1.0, 1.0]
    assert row[7] > 0 and row[9] == (NEWTON if slope > 0.0 else GRADIENT)


def benchmark_case(name):
    """(starts, action, pot, table, cfg) of a benchmark config, one start per
    bump of its family."""
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
    # ground's constant a has no critical point: one bump, at the origin
    assert len(starts) == {"signchange": 1, "ground": 1, "periodic": 2}[name]
    return starts, action, pot, table, cfg


def benchmark_descents(name):
    """The descents of a benchmark config, one per start of its bump family."""
    starts, action, pot, table, cfg = benchmark_case(name)
    return [descend(u0, action, pot, table, cfg) for u0 in starts]


@pytest.mark.parametrize(
    "name, rows, products, convolutions",
    [("signchange", 10, 35, 34), ("ground", 8, 20, 23), ("periodic", 9, 21, 25)],
    ids=["signchange", "ground", "periodic"],
)
def test_benchmark_operation_budget(monkeypatch, name, rows, products, convolutions):
    # the benchmark configs, one descent per start: counts are deterministic,
    # so a regression in the Newton preconditioner shows without timing noise
    # (measured rows, Hessian products and convolutions per descent:
    # signchange 8, 26 and 34, ground 6, 17 and 23, periodic 7, 18 and 25).
    # A descent convolves once for its start's w0, once per Hessian product
    # and once per step for log * d^2; a gradient-fallback step also pays
    # log * (u d), which a Newton step takes from its solve
    import logchoquard.functionals as functionals_mod
    import logchoquard.logkernel as logkernel_mod
    import logchoquard.solver as solver_mod

    starts, action, pot, table, cfg = benchmark_case(name)
    padded_convolve, calls = logkernel_mod.padded_convolve, []

    def counted(*args):
        calls.append(None)
        return padded_convolve(*args)

    # every module that calls it by name: log_potential, hessian_product, _newton_direction
    for mod in (logkernel_mod, functionals_mod, solver_mod):
        monkeypatch.setattr(mod, "padded_convolve", counted)
    for u0 in starts:
        calls.clear()
        res = descend(u0, action, pot, table, cfg)
        assert res.converged
        assert res.certificate.sign_changing == (name == "signchange")
        assert len(res.trace) <= rows
        hess = sum(row[11] for row in res.trace)
        assert hess <= products
        steps = sum(row[7] > 0 for row in res.trace)
        fallbacks = sum(row[7] > 0 and row[9] == GRADIENT for row in res.trace)
        assert len(calls) == 1 + hess + steps + fallbacks
        assert len(calls) <= convolutions


@pytest.mark.parametrize("name", ["ground", "signchange"])
def test_newton_tail_is_superlinear(name):
    # with a forcing term eta = O(C) the tail is quadratic: from the first
    # row with Cerami value C <= 1e-2 the descent ends within two rows (a
    # constant eta = 0.1 gives a linear tail, one decade per row)
    for res in benchmark_descents(name):
        assert res.converged
        cerami = [row[5] for row in res.trace]
        first = next(i for i, c in enumerate(cerami) if c <= 1e-2)
        assert len(cerami) - 1 - first <= 2


@pytest.mark.parametrize("which", ["trivial", "rot-zeta:2"])
def test_newton_pcg_stops_at_the_forcing_term(monkeypatch, which):
    # each row's Newton PCG runs to eta |r| with eta = min(NEWTON_CG_TOL,
    # max(C, cerami_tol / (2C))), C the row's own Cerami value: capped far
    # from a solution, O(C) in the tail, floored at the last row
    import logchoquard.solver as solver_mod

    real_pcg = solver_mod.pcg
    calls = []

    def pcg(apply, precondition, r, x, stop, max_iter, callback=None, image=None):
        calls.append((stop, float(np.sqrt(np.vdot(r, r)))))
        return real_pcg(apply, precondition, r, x, stop, max_iter, callback, image)

    monkeypatch.setattr(solver_mod, "pcg", pcg)
    u0, action, pot, table = descent_case(which)
    cfg = SolveConfig()
    res = descend(u0, action, pot, table, cfg)
    assert res.converged and len(calls) == len(res.trace) - 1
    regimes = set()
    for row, (stop, rnorm) in zip(res.trace, calls):
        c = row[5]
        eta = min(NEWTON_CG_TOL, max(c, 0.5 * cfg.cerami_tol / c))
        assert stop == pytest.approx(eta * rnorm, rel=1e-12)
        regimes.add("cap" if eta == NEWTON_CG_TOL else ("C" if eta == c else "floor"))
    assert regimes == {"cap", "C", "floor"}


def test_newton_falls_back_to_the_gradient(monkeypatch):
    # a Newton PCG that meets p.Hp <= 0 at its first product leaves x = 0:
    # no descent direction, so every row steps along the metric gradient
    import logchoquard.solver as solver_mod

    def pcg(apply, precondition, r, x, stop, max_iter, callback=None, image=None):
        return 1

    monkeypatch.setattr(solver_mod, "pcg", pcg)
    u0, action, pot, table = descent_case("trivial")
    res = descend(u0, action, pot, table, SolveConfig(max_iters=4))
    assert not res.converged and len(res.trace) == 4
    for row in res.trace:
        assert row[7] > 0 and row[9] == GRADIENT and row[11] == 1
    phis = [row[1] for row in res.trace] + [res.breakdown.phi]
    for a, b in zip(phis, phis[1:]):
        assert b <= a + 1e-9 * (1 + abs(a))


@pytest.mark.parametrize("which", ["trivial", "rot-zeta:2", "glide"])
def test_newton_solve_carries_the_log_image_of_u_d(monkeypatch, which):
    # each Hessian product forms log * (u p_k) and d = sum alpha_k p_k, so
    # the Newton solve sums log * (u d) next to d; on every Newton row it is
    # the direct convolution to rounding, under the sign character too
    import logchoquard.solver as solver_mod
    from logchoquard.logkernel import padded_convolve

    u0, action, pot, table = descent_case(which)
    grid = pot.a.grid
    real_newton = solver_mod._newton_direction
    errs = []

    def newton_direction(st, *args):
        out = real_newton(st, *args)
        d, slope, _, kcross = out
        if slope > 0.0:
            direct = padded_convolve(grid, st.u * d.values, table.k0_hat)
            errs.append(np.max(np.abs(kcross - direct)) / np.max(np.abs(direct)))
        return out

    monkeypatch.setattr(solver_mod, "_newton_direction", newton_direction)
    res = descend(u0, action, pot, table, SolveConfig())
    assert res.converged and len(errs) == len(res.trace) - 1
    assert max(errs) <= 1e-12


@pytest.mark.parametrize("case", ["signchange", "gradient-fallback"])
def test_result_energy_is_the_last_iterate(monkeypatch, case):
    # the result's q_a, V0 and Phi are the last iterate's, with no
    # convolution of their own: Phi is the last row's exactly, and a fresh
    # evaluation at the returned u agrees to rounding
    import logchoquard.solver as solver_mod

    if case == "signchange":
        starts, action, pot, table, cfg = benchmark_case(case)
    else:
        monkeypatch.setattr(solver_mod, "pcg", lambda *args, **kwargs: 1)
        u0, action, pot, table = descent_case("trivial")
        starts, cfg = [u0], SolveConfig()
    for u0 in starts:
        res = descend(u0, action, pot, table, cfg)
        assert res.converged
        if case == "gradient-fallback":
            assert all(row[9] == GRADIENT for row in res.trace)
        assert res.breakdown.phi == res.trace[-1][1]
        fresh = energy(res.u, pot, table)
        assert abs(res.breakdown.phi - fresh.phi) <= 1e-12 * abs(fresh.phi)


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
    # a bump at (2, 0) on L = 6, n = 128 sits in a sliding valley: a Newton
    # step from a point a loose solve already shows to be converged sets off
    # a slide of about 200 rows. The row whose certified Cerami value shows
    # it ends the descent instead
    g = Grid(L=6.0, n=128)
    pot = const_potential(g)
    table = make_kernel_table(g)
    cfg = SolveConfig()
    u0 = bump_field(g, (2.0, 0.0), 0.45)
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


def test_multistart_rotation_bumps_reach_one_orbit():
    # three sector bumps, each rescaled into O on its own, descend to one orbit
    g = Grid(L=6.0, n=128)
    pot = const_potential(g)
    results = multistart_search(2, rotation_zeta(2), pot, make_kernel_table(g), SolveConfig())
    assert len(results) == 1
    assert results[0].converged
    assert results[0].breakdown.phi == pytest.approx(308.052905849, rel=1e-9)


def test_multistart_results_sorted_by_energy():
    # a minimum and a maximum of a: two starts, two orbits
    g = Grid(L=10.0, n=64)
    pot = cos2d_potential(g, 1.0, 0.5, 1.0, 1.0)
    tb = make_kernel_table(g)
    results = multistart_search(1, trivial_action(), pot, tb, SolveConfig(max_iters=300))
    assert len(results) == 2
    phis = [r.breakdown.phi for r in results]
    assert phis == sorted(phis)


def test_multistart_reports_the_saddle_orbit_of_a_coarse_free_grid():
    # trivial action, L=8, n=64: one start each on a minimum, a maximum and a
    # saddle of a gives three orbits, each in a few rows
    g = Grid(L=8.0, n=64)
    pot = cos2d_potential(g, 1.0, 0.5, 1.0, 1.0)
    results = multistart_search(4, trivial_action(), pot, make_kernel_table(g), SolveConfig())
    assert [r.converged for r in results] == [True, True, True]
    assert [r.breakdown.phi for r in results] == pytest.approx(
        [7.38333110, 7.38788068, 7.39243414], rel=1e-8
    )
    assert all(len(r.trace) <= 8 for r in results)


def test_multistart_off_grid_period_starts_on_symmetric_vertices():
    # L=6, n=128: a period is 10.67 cells, so most extrema of a fall between
    # vertices; a start on a vertex about which the grid is symmetric stays
    # on its orbit
    g = Grid(L=6.0, n=128)
    pot = cos2d_potential(g, 1.0, -0.5, 1.0, 1.0)
    results = multistart_search(2, trivial_action(), pot, make_kernel_table(g), SolveConfig())
    assert [r.converged for r in results] == [True, True, True]
    assert [r.breakdown.phi for r in results] == pytest.approx(
        [7.46091939, 7.46476051, 7.468604798], rel=1e-8
    )


def test_constant_potentials_are_one_problem_up_to_dilation():
    # v(x) = s^-2 u(x/s) maps a solution for a = A of mass M = |u|_2^2 to one
    # for a = c(s) = (A - M log s) / s^2, with Phi_c(v) = s^-4 (Phi_A(u) -
    # (M^2/4) log s), since log * v^2 = s^-2 ((log * u^2)(x/s) + M log s).
    # Grid(sL, n) carries the covariance exactly (the stencil scales as
    # h^-2, the sums as h^2, k0 by log s), so no discrete Phi is pinned.
    # The lattice snaps to other cells on a scaled grid: compare Phi and
    # the mass, not samples
    def lowest(L, c, action_of):
        g = Grid(L=L, n=128)
        results = multistart_search(
            0, action_of(g), const_potential(g, c), make_kernel_table(g), SolveConfig()
        )
        best = min((r for r in results if r.converged), key=lambda r: r.breakdown.phi)
        return best.breakdown.phi, lp_norm(best.u, 2) ** 2

    def check(phi1, mass, s, phi, m):
        predicted = s ** -4 * (phi1 - 0.25 * mass * mass * np.log(s))
        assert phi == pytest.approx(predicted, rel=1e-10)
        assert m == pytest.approx(mass / s ** 2, rel=1e-6)

    def unit_lattice(g):
        return lattice_translation(g, (1.0, 0.0), (0.0, 1.0))

    phi1, mass = lowest(8.0, 1.0, unit_lattice)
    # c runs from 0.11 through 0 (s = e^(1/M)) to -1.09 on the ground branch
    for s in (1.1, np.exp(1.0 / mass), 1.3, 1.42):
        check(phi1, mass, s, *lowest(8.0 * s, (1.0 - mass * np.log(s)) / s ** 2, unit_lattice))
    # the sign-changing branch at c = -5, an indefinite a
    phi1, mass = lowest(6.0, 1.0, lambda g: rotation_zeta(2))
    s = brentq(lambda s: (1.0 - mass * np.log(s)) / s ** 2 + 5.0, 1.0, 1.2)
    check(phi1, mass, s, *lowest(6.0 * s, -5.0, lambda g: rotation_zeta(2)))


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


def descended_starts(monkeypatch, k, action, pot, table, cfg=SolveConfig()):
    """Sorted indices of the family's starts that multistart_search hands to
    descend; concurrent descents may be handed them in any order. descend
    is patched to raise, so no descent runs."""
    import logchoquard.solver as solver_mod
    from logchoquard import LineSearchError

    starts = make_bump_family(k, action, pot, table, cfg).starts
    seen = []

    def counted(u0, action, pot, table, cfg):
        seen.append(next(i for i, s in enumerate(starts) if np.array_equal(s.values, u0.values)))
        raise LineSearchError("counted only")

    monkeypatch.setattr(solver_mod, "descend", counted)
    assert solver_mod.multistart_search(k, action, pot, table, cfg) == []
    return sorted(seen)


def test_projecting_actions_descend_every_start(monkeypatch):
    g = Grid(L=6.0, n=128)
    pot = const_potential(g)
    assert descended_starts(monkeypatch, 1, rotation_zeta(2), pot, make_kernel_table(g)) == [0, 1]


def test_multistart_dedup_keeps_the_converged_copy(monkeypatch, grid64, table64):
    # a capped start within DEDUP_REL of a converged orbit is a copy of it,
    # even when it stopped at a lower Phi
    import types

    import logchoquard.solver as solver_mod

    # a minimum and a maximum of a: two starts
    pot = cos2d_potential(grid64, 1.0, 0.5, 1.0, 1.0)
    starts = make_bump_family(1, trivial_action(), pot, table64, SolveConfig()).starts
    u = bump_field(grid64, center=(0.0, 0.0), radius=1.0)
    copies = [(u.values, 1.0, False), ((1.0 + 1e-6) * u.values, 1.1, True)]

    def fake(u0, action, pot, table, cfg):
        # the copy of the start handed, whatever order the starts run in
        i = next(i for i, s in enumerate(starts) if np.array_equal(s.values, u0.values))
        vals, phi, converged = copies[i]
        return solver_mod.SolveResult(
            u=Field(grid64, vals), breakdown=types.SimpleNamespace(phi=phi), cerami=0.0,
            nehari=None, certificate=None, iters=1, converged=converged,
        )

    monkeypatch.setattr(solver_mod, "descend", fake)
    results = solver_mod.multistart_search(1, trivial_action(), pot, table64, SolveConfig())
    assert [(r.breakdown.phi, r.converged, r.start_index) for r in results] == [(1.1, True, 1)]


# ------------------------------------------------- concurrent descents


def threaded_descents(monkeypatch):
    """Patch descend to record the thread of each descent and run the real
    one. Returns the record."""
    import threading

    import logchoquard.solver as solver_mod

    real, threads = solver_mod.descend, []

    def recorded(*args):
        threads.append(threading.get_ident())
        return real(*args)

    monkeypatch.setattr(solver_mod, "descend", recorded)
    return threads


@pytest.mark.parametrize("cores", [None, 1], ids=["free-cores", "one-core"])
def test_concurrent_multistart_equals_a_loop_of_descents(monkeypatch, grid64, table64, cores):
    # a minimum and a maximum of a, capped so that the second stops
    # unconverged: each result has the bytes and rows of a plain descent
    # from its start, however many threads the starts ran on
    import os

    from logchoquard.blas import blas_threads, pin_blas_threads

    pin_blas_threads()
    if blas_threads() != 1:
        pytest.skip("no OpenBLAS thread count to pin")
    if cores is not None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    workers = min(2, len(os.sched_getaffinity(0)))
    pot = cos2d_potential(grid64, 1.0, 0.5, 1.0, 1.0)
    cfg = SolveConfig(max_iters=6)
    starts = make_bump_family(1, trivial_action(), pot, table64, cfg).starts
    loop = [descend(u0, trivial_action(), pot, table64, cfg) for u0 in starts]
    threads = threaded_descents(monkeypatch)
    results = multistart_search(1, trivial_action(), pot, table64, cfg)
    assert len(threads) == 2 and len(set(threads)) == workers
    assert sorted(r.start_index for r in results) == [0, 1]
    assert [r.converged for r in loop] == [True, False]
    for res in results:
        ref = loop[res.start_index]
        assert res.u.values.tobytes() == ref.u.values.tobytes()
        assert res.trace == ref.trace
        assert (res.iters, res.converged, res.cerami) == (ref.iters, ref.converged, ref.cerami)


def gated_descents(monkeypatch, grid, table, finish):
    """Patch multistart_search to descend on two threads, and descend to
    let start 1 end before start 0: start 0 waits until start 1 has ended.
    finish(i, u0) ends the descent of start i. Returns the potential, the
    starts and the order of ends."""
    import os
    import threading

    import logchoquard.solver as solver_mod

    monkeypatch.setattr(solver_mod, "blas_threads", lambda: 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    pot = cos2d_potential(grid, 1.0, 0.5, 1.0, 1.0)
    starts = make_bump_family(1, trivial_action(), pot, table, SolveConfig()).starts
    second_ended, ended = threading.Event(), []

    def gated(u0, action, pot, table, cfg):
        i = next(i for i, s in enumerate(starts) if np.array_equal(s.values, u0.values))
        if i == 0:
            assert second_ended.wait(timeout=30), "the starts did not run side by side"
        try:
            return finish(i, u0)
        finally:
            ended.append(i)
            second_ended.set()

    monkeypatch.setattr(solver_mod, "descend", gated)
    return pot, starts, ended


def test_concurrent_results_keep_start_order(monkeypatch, grid64, table64):
    # start 1 ends first, and each result still stands in its start's slot:
    # result i is (1 + i) times start i, and with equal Phi the stable sort
    # keeps the slot order
    import types

    import logchoquard.solver as solver_mod

    def finish(i, u0):
        return solver_mod.SolveResult(
            u=Field(grid64, (1.0 + i) * u0.values), breakdown=types.SimpleNamespace(phi=1.0),
            cerami=0.0, nehari=None, certificate=None, iters=1, converged=True,
        )

    pot, starts, ended = gated_descents(monkeypatch, grid64, table64, finish)
    results = solver_mod.multistart_search(1, trivial_action(), pot, table64, SolveConfig())
    assert ended == [1, 0]
    assert [r.start_index for r in results] == [0, 1]
    for i, res in enumerate(results):
        assert np.array_equal(res.u.values, (1.0 + i) * starts[i].values)


def test_concurrent_error_of_the_first_start_is_raised(monkeypatch, grid64, table64):
    # both starts raise a non-descent error, start 1 first: the error raised
    # is start 0's, the one a loop over the starts would raise
    import logchoquard.solver as solver_mod

    def finish(i, u0):
        raise RuntimeError("start %d" % i)

    pot, _, ended = gated_descents(monkeypatch, grid64, table64, finish)
    with pytest.raises(RuntimeError, match="start 0"):
        solver_mod.multistart_search(1, trivial_action(), pot, table64, SolveConfig())
    assert ended == [1, 0]


# ------------------------------------------------------------- ground state


def test_ground_state_requires_coercive_potential(grid64, table64):
    indefinite = cos2d_potential(grid64, base=0.0, amp=0.5, k1=0.25, k2=0.25)
    with pytest.raises(GroundStateError, match="multistart_search"):
        ground_state(trivial_action(), indefinite, table64, SolveConfig())


def test_ground_state_is_least_among_multistart(ground64):
    assert ground64.breakdown.phi > 0
    assert ground64.converged

"""Constrained descent, start families, multistart search, ground state.

Oracles: an independent radially-parametrized direct minimization of the
projected energy (Powell over profile knots) upper-bounds the ground
energy; structural invariants (trace monotonicity, on-manifold identities,
tangency of the projected gradient) are asserted along real runs.
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
    b_form,
    beta,
    cos2d_potential,
    const_potential,
    descend,
    energy,
    gaussian_field,
    ground_state,
    lattice_translation,
    log_potential,
    lp_norm,
    make_bump_family,
    make_kernel_table,
    metric_context,
    multistart_search,
    nehari_project,
    q_a_bilinear,
    radial_action,
    radial_average,
    residual_field,
    riesz_gradient,
    rotation_zeta,
    solve_metric_system,
    tangent_project,
    trivial_action,
)
from logchoquard.functionals import NEHARI_REL_TOL
from logchoquard.solver import TRACE_COLUMNS, _bump_sites


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
        SolveConfig(backtrack_factor=1.0)
    with pytest.raises(ValueError):
        SolveConfig(armijo_c=0.0)
    with pytest.raises(ValueError):
        SolveConfig(tau_split=-1.0)
    assert SolveConfig().cerami_tol == 1e-6


def test_trace_columns():
    assert TRACE_COLUMNS == (
        "iter", "phi", "q_a", "v0", "nehari_j", "cerami_weight", "residual_l2",
    )


# ------------------------------------------------------------ start families


def core_masks(bumps):
    # spline rescaling spreads faint ripple well past the true supports, so
    # disjointness is asserted on the half-peak cores where the mass lives
    return [np.abs(b.values) > 0.5 * np.max(np.abs(b.values)) for b in bumps]


def test_bump_family_trivial(grid64, table64, pot64):
    fam = make_bump_family(2, trivial_action(), pot64, table64, SolveConfig())
    assert len(fam.bumps) == 3
    masks = core_masks(fam.bumps)
    for i in range(3):
        grown = binary_dilation(masks[i], iterations=2)  # 2h separation
        for j in range(i + 1, 3):
            assert not np.any(grown & masks[j])
    # 3 vertices + 3 midpoints + 2 random signed samples
    assert len(fam.simplex_samples) == 8
    for j in range(3):
        assert np.array_equal(fam.simplex_samples[j], np.eye(3)[j])
    for s in fam.simplex_samples[6:]:
        assert np.sum(np.abs(s)) == pytest.approx(1.0, rel=1e-12)


def test_bump_family_samples_lie_in_O(grid64, table64, pot64):
    fam = make_bump_family(2, trivial_action(), pot64, table64, SolveConfig())
    for s in fam.simplex_samples:
        vals = sum(c * b.values for c, b in zip(s, fam.bumps))
        bk = energy(Field(grid64, vals), pot64, table64)
        assert bk.q_a > 0 > bk.v0


def test_bump_family_deterministic(grid64, table64, pot64):
    f1 = make_bump_family(1, trivial_action(), pot64, table64, SolveConfig(seed=5))
    f2 = make_bump_family(1, trivial_action(), pot64, table64, SolveConfig(seed=5))
    for b1, b2 in zip(f1.bumps, f2.bumps):
        assert np.array_equal(b1.values, b2.values)
    for s1, s2 in zip(f1.simplex_samples, f2.simplex_samples):
        assert np.array_equal(s1, s2)


def test_bump_family_rotation_invariant():
    g = Grid(L=6.0, n=128)
    pot = const_potential(g)
    tb = make_kernel_table(g)
    fam = make_bump_family(1, rotation_zeta(2), pot, tb, SolveConfig())
    from logchoquard import is_invariant

    for b in fam.bumps:
        assert is_invariant(b, rotation_zeta(2)).defect <= 1e-12
        assert np.min(b.values) < 0 < np.max(b.values)  # zeta forces sign changes


def test_bump_family_radial(grid64, table64, pot64):
    fam = make_bump_family(1, radial_action(), pot64, table64, SolveConfig())
    masks = core_masks(fam.bumps)
    assert not np.any(binary_dilation(masks[0], iterations=2) & masks[1])
    for b in fam.bumps:
        r = radial_average(b)
        assert np.max(np.abs(r.values - b.values)) <= 1e-13


def test_bump_family_vertex_starts_on_site():
    # the joint rescale dilates about the origin; single-bump starts must
    # still sit on the inequivalent lattice sites they were placed on
    g = Grid(L=4.0, n=64)
    pot = cos2d_potential(g, 1.0, 0.5, 1.0, 1.0)
    action = lattice_translation(g, (1.0, 0.0), (0.0, 1.0))
    fam = make_bump_family(4, action, pot, make_kernel_table(g), SolveConfig())
    centers, _ = _bump_sites(action, g, 4)
    for idx, s in enumerate(fam.simplex_samples):
        nonzero = np.flatnonzero(s)
        if len(nonzero) == 1:
            site = centers[int(nonzero[0])]
            assert np.max(np.abs(beta(fam.start(idx)) - site)) <= 1e-9


def test_bump_family_guards(grid64, table64, pot64):
    with pytest.raises(ValueError):
        make_bump_family(-1, trivial_action(), pot64, table64, SolveConfig())
    with pytest.raises(StartFamilyError, match="at most"):
        make_bump_family(8, trivial_action(), pot64, table64, SolveConfig())
    # a one-cell lattice cannot host resolved disjoint bumps
    tiny = lattice_translation(grid64, (grid64.h, 0.0), (0.0, grid64.h))
    with pytest.raises(StartFamilyError, match="coarse"):
        make_bump_family(2, tiny, pot64, table64, SolveConfig())
    # annuli must fit inside the box
    with pytest.raises(StartFamilyError, match="fit"):
        make_bump_family(6, radial_action(), pot64, table64, SolveConfig())


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
    u0 = make_bump_family(0, trivial_action(), pot32, table, cfg).start(0)
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
    # frozen regression value for a = 1, L = 6, n = 64
    assert bk.phi == pytest.approx(7.43236373, rel=1e-6)


def test_descend_trace_monotone_and_consistent(ground64):
    trace = ground64.trace
    phis = [row[1] for row in trace]
    for a, b in zip(phis, phis[1:]):
        assert b <= a + 1e-9 * (1 + abs(a))  # refresh jitter only
    for row in trace:
        it, phi, qa, v0, nj, cw, res = row
        assert phi == pytest.approx(0.5 * qa + 0.25 * v0, rel=1e-10)
        assert nj == pytest.approx(qa + v0, abs=1e-8 * max(qa, -v0))


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


def test_tangent_project_is_metric_orthogonal_to_constraint(grid64, table64, pot64):
    u0 = gaussian_field(grid64, width=0.7)
    u = nehari_project(u0, energy(u0, pot64, table64))
    g, _ = riesz_gradient(u, pot64, table64)
    ctx = metric_context(u)
    # eta, the Riesz representative of J'(u) = 2 r + 2 (log * u^2) u
    w0 = log_potential(Field(grid64, u.values ** 2), table64)
    j_field = 2.0 * residual_field(u, pot64, table64).values + 2.0 * w0.values * u.values
    eta = Field(grid64, solve_metric_system(ctx, j_field, 1e-10)[0])
    tp = tangent_project(ctx, g, eta)
    # J'(u) v = 2 q_a(u,v) + 4 B0(u^2, uv) must vanish along the projection
    usq = Field(grid64, u.values ** 2)
    uv = Field(grid64, u.values * tp.values)
    jprime = 2.0 * q_a_bilinear(u, tp, pot64) + 4.0 * b_form(usq, uv, "B0", table64)
    jprime_g = 2.0 * q_a_bilinear(u, g, pot64) + 4.0 * b_form(
        usq, Field(grid64, u.values * g.values), "B0", table64
    )
    assert abs(jprime) <= 1e-8 * (1 + abs(jprime_g))


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
    assert results[0].breakdown.phi == pytest.approx(7.26746188, rel=1e-6)


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


# ------------------------------------------------------------- ground state


def test_ground_state_requires_coercive_potential(grid64, table64):
    indefinite = cos2d_potential(grid64, base=0.0, amp=0.5, k1=0.25, k2=0.25)
    with pytest.raises(GroundStateError, match="multistart_search"):
        ground_state(trivial_action(), indefinite, table64, SolveConfig())


def test_ground_state_is_least_among_multistart(ground64):
    assert ground64.breakdown.phi > 0
    assert ground64.converged

"""Barycenter-recentered inner products and the Riesz gradient solver.

Oracles: a dense matrix assembly of the metric operator solved by LAPACK,
the analytic norm-equivalence bound 1 + log(1+|x-c1|) between centers, and
the defining identity <g, v>_u = Phi'(u) v checked against random probes.
"""

import numpy as np
import pytest

from logchoquard import (
    BarycenterUndefinedError,
    Field,
    Grid,
    RieszSolveError,
    beta,
    bump_field,
    gaussian_field,
    glide_reflection,
    inner_u,
    lp_norm,
    metric_context,
    metric_context_at,
    norm_u,
    norms,
    phi_prime,
    project_invariant,
    riesz_gradient,
    rotation_zeta,
    shift_cells,
    solve_metric_system,
)
from logchoquard import metric
from logchoquard.field import grad_inner, neg_laplacian, x_inner
from logchoquard.functionals import cos2d_potential, q_a_bilinear
from logchoquard.metric import apply_metric_operator

from conftest import confined_field


# ----------------------------------------------------------- inner product


def test_inner_at_origin_is_x_inner(grid32):
    rng = np.random.default_rng(0)
    v = Field(grid32, confined_field(grid32, rng))
    w = Field(grid32, confined_field(grid32, rng))
    ctx = metric_context_at(grid32, (0.0, 0.0))
    assert inner_u(ctx, v, w) == pytest.approx(x_inner(v, w), rel=1e-14)


def test_norm_chain(grid32):
    # ||v||_u^2 >= ||v||_H1^2 >= |v|_2^2: the log weight only adds mass
    rng = np.random.default_rng(1)
    ctx = metric_context_at(grid32, (1.7, -0.4))
    for trial in range(5):
        v = Field(grid32, confined_field(grid32, rng))
        rep = norms(v)
        nu = norm_u(ctx, v) ** 2
        assert nu >= rep.h1_sq * (1 - 1e-13)
        assert rep.h1_sq >= rep.l2_sq * (1 - 1e-13)


def test_center_equivalence_bound(grid32):
    # moving the center by d inflates the norm by at most 1 + log(1+d)
    rng = np.random.default_rng(2)
    c1 = np.array([0.0, 0.0])
    for kappa in (0.0, 2.0, 5.0):
        c2 = np.array([kappa, 0.0])
        d = float(np.hypot(*(c1 - c2)))
        cap = 1.0 + np.log1p(d)
        ctx1 = metric_context_at(grid32, c1)
        ctx2 = metric_context_at(grid32, c2)
        for trial in range(5):
            v = Field(grid32, confined_field(grid32, rng))
            n1 = inner_u(ctx1, v, v)
            n2 = inner_u(ctx2, v, v)
            assert n1 <= cap * n2 * (1 + 1e-12)
            assert n2 <= cap * n1 * (1 + 1e-12)


def test_translation_exactness(grid32):
    # shifting fields and center by the same whole cells leaves the form
    # unchanged: the recentered weight makes the metric grid-exact.
    # Supports are hard-zeroed inside |x| < 3 so shifts clip nothing.
    rng = np.random.default_rng(3)
    mask = grid32.r < 3.0
    v = Field(grid32, rng.standard_normal((32, 32)) * mask)
    w = Field(grid32, rng.standard_normal((32, 32)) * mask)
    h = grid32.h
    c = np.array([0.3, 0.5])
    base = inner_u(metric_context_at(grid32, c), v, w)
    for di, dj in ((3, -2), (0, 4)):
        ctx = metric_context_at(grid32, c + np.array([di * h, dj * h]))
        moved = inner_u(ctx, shift_cells(v, di, dj), shift_cells(w, di, dj))
        assert moved == pytest.approx(base, rel=1e-12)


def test_center_lipschitz_bound(grid32):
    # |<v,w>_{c1} - <v,w>_{c2}| <= |c1 - c2| h^2 sum |v w| (1-Lipschitz weight)
    rng = np.random.default_rng(4)
    h2 = grid32.h ** 2
    for trial in range(20):
        c1 = rng.uniform(-2, 2, size=2)
        c2 = rng.uniform(-2, 2, size=2)
        v = Field(grid32, confined_field(grid32, rng))
        w = Field(grid32, confined_field(grid32, rng))
        lhs = abs(
            inner_u(metric_context_at(grid32, c1), v, w)
            - inner_u(metric_context_at(grid32, c2), v, w)
        )
        bound = float(np.hypot(*(c1 - c2))) * h2 * float(np.sum(np.abs(v.values * w.values)))
        assert lhs <= bound * (1 + 1e-12) + 1e-14


def test_context_centers_at_barycenter(grid32):
    u = bump_field(grid32, center=(1.5, -0.75), radius=1.0)
    ctx = metric_context(u)
    assert np.array_equal(ctx.center, beta(u))
    x = np.array([grid32.axis[16], grid32.axis[16]])
    assert ctx.weight.values[16, 16] == pytest.approx(np.log1p(float(np.hypot(*(x - ctx.center)))))


# ------------------------------------------------------------- the operator


def test_operator_is_adjoint_of_inner(grid32):
    # h^2 sum (A_u v) w == <v, w>_u exactly: CG solves the right system
    rng = np.random.default_rng(5)
    ctx = metric_context_at(grid32, (0.9, 1.2))
    v = Field(grid32, confined_field(grid32, rng))
    w = Field(grid32, confined_field(grid32, rng))
    pairing = grid32.h ** 2 * np.sum(apply_metric_operator(ctx, v.values) * w.values)
    assert pairing == pytest.approx(inner_u(ctx, v, w), rel=1e-12)


def test_stencil_forms_match_gradient_forms(grid32):
    # the one-stencil operator, inner product and q_a against the old
    # expressions: neg_laplacian + (1 + w) v, and the np.diff gradient forms
    rng = np.random.default_rng(12)
    ctx = metric_context_at(grid32, (1.7, -0.9))
    pot = cos2d_potential(grid32, 1.0, 0.5, 1.0, 1.0)
    h2 = grid32.h ** 2
    # nonzero on the box edge, where the zero extension of the stencil acts
    u, v, w = (Field(grid32, rng.standard_normal((32, 32)) + 0.5) for _ in range(3))
    old_op = neg_laplacian(v.values, grid32.h) + (1.0 + ctx.weight.values) * v.values
    new_op = apply_metric_operator(ctx, v.values)
    assert np.max(np.abs(new_op - old_op)) <= 1e-13 * np.max(np.abs(old_op))
    for a, b in ((v, w), (u, u), (w, u)):
        old_inner = grad_inner(a, b) + h2 * np.sum((1.0 + ctx.weight.values) * a.values * b.values)
        assert inner_u(ctx, a, b) == pytest.approx(old_inner, rel=1e-13)
        assert inner_u(ctx, a, b) == pytest.approx(inner_u(ctx, b, a), rel=1e-13)
        old_qa = grad_inner(a, b) + h2 * np.sum(pot.a.values * a.values * b.values)
        assert q_a_bilinear(a, b, pot) == pytest.approx(old_qa, rel=1e-13)


def test_solve_applies_operator_once_per_iteration(grid32, monkeypatch):
    # the perfbench tracer counts CG iterations as operator calls minus 2
    # (the start residual and the recomputed true residual)
    calls = []

    def counted(ctx, vals):
        calls.append(1)
        return apply_metric_operator(ctx, vals)

    monkeypatch.setattr(metric, "apply_metric_operator", counted)
    ctx = metric_context_at(grid32, (0.4, -0.2))
    rhs = confined_field(grid32, np.random.default_rng(13))
    _, rel = solve_metric_system(ctx, rhs, tol=1e-300, max_iter=3)
    assert rel > 0.0
    assert len(calls) == 3 + 2


def test_pcg_stops_at_the_first_non_positive_curvature():
    # an indefinite diagonal operator: the first direction (all ones) has
    # curvature 6 > 0, the second has p.Dp < 0, so pcg keeps the one-step
    # iterate x = rz/pAp * ones = ones and reports both operator calls
    d = np.array([4.0, 3.0, 2.0, 1.0, -1.0, -3.0])
    rhs = np.ones(6)
    curvatures, iterates = [], []

    def apply(p):
        curvatures.append(float(np.vdot(p, d * p)))
        return d * p

    def keep(v):
        iterates.append(v.copy())

    x, r = np.zeros(6), rhs.copy()
    calls = metric.pcg(apply, np.copy, r, x, 1e-12, 50, callback=keep)
    assert calls == len(curvatures) == 2
    assert curvatures[0] > 0.0 >= curvatures[1]
    assert len(iterates) == 1 and np.array_equal(x, iterates[0])
    assert np.array_equal(x, rhs)
    assert np.array_equal(r, rhs - d * x)
    # a residual already at the stop needs no operator call
    assert metric.pcg(apply, np.copy, rhs.copy(), np.zeros(6), 10.0, 50) == 0
    assert len(curvatures) == 2


def dense_metric_matrix(ctx):
    n = ctx.grid.n
    h = ctx.grid.h
    K = (np.diag(np.full(n, 2.0)) - np.diag(np.ones(n - 1), 1) - np.diag(np.ones(n - 1), -1)) / (h * h)
    eye = np.eye(n)
    A = np.kron(K, eye) + np.kron(eye, K) + np.diag(1.0 + ctx.weight.values.ravel())
    return A


def test_cg_matches_dense_solve():
    g = Grid(L=4.0, n=24)
    ctx = metric_context_at(g, (0.5, -0.3))
    rng = np.random.default_rng(6)
    rhs = confined_field(g, rng)
    A = dense_metric_matrix(ctx)
    exact = np.linalg.solve(A, rhs.ravel()).reshape(24, 24)
    x, rel = solve_metric_system(ctx, rhs, tol=1e-12)
    assert rel <= 1e-12
    assert np.max(np.abs(x - exact)) <= 1e-8 * max(1.0, np.max(np.abs(exact)))


def test_dense_matrix_is_spd():
    g = Grid(L=4.0, n=16)
    ctx = metric_context_at(g, (0.0, 0.0))
    A = dense_metric_matrix(ctx)
    assert np.max(np.abs(A - A.T)) == 0.0
    assert np.min(np.linalg.eigvalsh(A)) > 1.0  # mass term keeps it > identity


def test_zero_rhs_shortcut(grid32):
    ctx = metric_context_at(grid32, (0.0, 0.0))
    x, rel = solve_metric_system(ctx, np.zeros((32, 32)), tol=1e-10)
    assert np.all(x == 0.0) and rel == 0.0


@pytest.mark.parametrize("make_action", [
    lambda g: rotation_zeta(2),
    lambda g: glide_reflection(g, 1.0, zeta_nontrivial=True),
], ids=["rot-zeta:2", "glide"])
def test_restricted_solve_is_equivariant(grid32, make_action):
    # every point action is an index map of the whole box, so A_u commutes
    # with it: an invariant rhs gives an invariant solution on the full grid,
    # and the solution represents the rhs pairing on invariant directions
    action = make_action(grid32)
    rng = np.random.default_rng(9)

    def invariant():
        return project_invariant(Field(grid32, confined_field(grid32, rng)), action)

    u, rhs = invariant(), invariant()
    ctx = metric_context(u)
    x, rel = solve_metric_system(ctx, rhs.values, tol=1e-12)
    assert rel <= 1e-12
    g = Field(grid32, x)
    defect = lp_norm(Field(grid32, project_invariant(g, action).values - x), 2) / lp_norm(g, 2)
    assert defect <= 1e-12
    for trial in range(5):
        v = invariant()
        want = grid32.h ** 2 * float(np.sum(rhs.values * v.values))
        assert abs(inner_u(ctx, g, v) - want) <= 1e-10 * abs(want)


# the ids say "full": the solve and its preconditioner run on the whole grid
@pytest.mark.parametrize("n", [64, 128, 256], ids=lambda n: "full-%d" % n)
def test_cold_solve_iterations_are_mesh_independent(n):
    # the fast Poisson preconditioner removes the h^-2 spread of -Delta, so
    # a cold solve needs about as many iterations at every n
    g = Grid(L=12.0, n=n)
    ctx = metric_context_at(g, (1.3, -2.1))
    rhs = confined_field(g, np.random.default_rng(11))
    _, rel = solve_metric_system(ctx, rhs, tol=1e-10, max_iter=25)
    assert rel <= 1e-10


def laplacian_matrix(n, h):
    """Dense 5-point -Delta_h with zero extension on the n x n grid."""
    second_difference = (2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)) / (h * h)
    return np.kron(second_difference, np.eye(n)) + np.kron(np.eye(n), second_difference)


@pytest.mark.parametrize("n", [24], ids=["full"])
def test_shifted_preconditioner_inverts_the_mean_potential_operator(n):
    # the Newton solve's fast Poisson mass is the mean of its potential,
    # floored at 1: the exact inverse of -Delta_h + mu
    g = Grid(L=4.0, n=n)
    potential = 6.0 + 3.0 * np.cos(g.x1) * np.sin(2.0 * g.x2)
    mu = max(1.0, np.mean(potential))
    assert mu > 1.0
    apply = metric.preconditioner(g, mu)
    rng = np.random.default_rng(12)
    r, s = rng.standard_normal((2, g.n, g.n))
    z = apply(r)
    A = laplacian_matrix(g.n, g.h) + mu * np.eye(g.n * g.n)
    assert np.linalg.norm(A @ z.ravel() - r.ravel()) <= 1e-12 * np.linalg.norm(r)
    assert abs(np.vdot(s, apply(r)) - np.vdot(r, apply(s))) <= 1e-12 * abs(np.vdot(s, apply(r)))


@pytest.mark.parametrize("n", [24], ids=["full"])
def test_a_potential_below_the_metric_mass_leaves_the_preconditioner_unchanged(n):
    # an indefinite a (mean near 0) floors at mass 1: the preconditioner is
    # the exact inverse of M0 = -Delta_h + 1, and A_u >= M0 at every center
    # gives r.M0^-1 r >= r.A_u^-1 r
    g = Grid(L=4.0, n=n)
    potential = cos2d_potential(g, 0.0, 0.5, 1.0, 1.0).a.values
    mu = max(1.0, np.mean(potential))
    assert mu == 1.0
    r = confined_field(g, np.random.default_rng(14))
    z = metric.preconditioner(g, mu)(r)
    m0 = laplacian_matrix(g.n, g.h) + np.eye(g.n * g.n)
    assert np.linalg.norm(m0 @ z.ravel() - r.ravel()) <= 1e-12 * np.linalg.norm(r)
    for center in ((0.5, -0.3), (0.0, 0.0)):
        a_u = m0 + np.diag(metric_context_at(g, center).weight.values.ravel())
        assert np.vdot(r, z) >= np.vdot(r.ravel(), np.linalg.solve(a_u, r.ravel()))


# ------------------------------------------------------------ Riesz gradient


def test_riesz_defining_identity(grid32, table32, pot32):
    u = gaussian_field(grid32, width=0.7)
    g, gn = riesz_gradient(u, pot32, table32, tol=1e-12)
    ctx = metric_context(u)
    assert gn == pytest.approx(norm_u(ctx, g), rel=1e-14)
    rng = np.random.default_rng(8)
    for trial in range(10):
        v = Field(grid32, confined_field(grid32, rng))
        lhs = inner_u(ctx, g, v)
        rhs = phi_prime(u, v, pot32, table32)
        assert abs(lhs - rhs) <= 1e-8 * (1 + abs(rhs))


def test_riesz_unreachable_tolerance_raises(grid32, table32, pot32):
    u = gaussian_field(grid32, width=0.7)
    with pytest.raises(RieszSolveError):
        riesz_gradient(u, pot32, table32, tol=1e-30)


def test_riesz_zero_field_rejected(grid32, table32, pot32):
    with pytest.raises(BarycenterUndefinedError):
        riesz_gradient(Field(grid32, np.zeros((32, 32))), pot32, table32)


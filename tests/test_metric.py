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
    const_potential,
    gaussian_field,
    glide_reflection,
    inner_u,
    lp_norm,
    make_kernel_table,
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
from logchoquard.field import x_inner
from logchoquard.metric import apply_metric_operator
from logchoquard.symmetry import preserved_cells

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
    assert ctx.weight.values[16, 16] == pytest.approx(np.log1p(float(np.hypot(*ctx.center))))


# ------------------------------------------------------------- the operator


def test_operator_is_adjoint_of_inner(grid32):
    # h^2 sum (A_u v) w == <v, w>_u exactly: CG solves the right system
    rng = np.random.default_rng(5)
    ctx = metric_context_at(grid32, (0.9, 1.2))
    v = Field(grid32, confined_field(grid32, rng))
    w = Field(grid32, confined_field(grid32, rng))
    pairing = grid32.h ** 2 * np.sum(apply_metric_operator(ctx, v.values) * w.values)
    assert pairing == pytest.approx(inner_u(ctx, v, w), rel=1e-12)


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


def test_warm_start_converges_faster(grid32):
    rng = np.random.default_rng(7)
    ctx = metric_context_at(grid32, (0.2, 0.1))
    rhs = confined_field(grid32, rng)
    x, rel = solve_metric_system(ctx, rhs, tol=1e-12)
    x2, rel2 = solve_metric_system(ctx, rhs, tol=1e-12, x0=x)
    assert rel2 <= 1e-12


@pytest.mark.parametrize("make_action", [
    lambda g: rotation_zeta(2),
    lambda g: glide_reflection(g, 1.0, zeta_nontrivial=True),
], ids=["rot-zeta:2", "glide"])
def test_restricted_solve_is_equivariant(grid32, make_action):
    # on the cells the index-exact action preserves, A_u commutes with the
    # action: an invariant rhs gives an invariant solution, and the solution
    # represents the rhs pairing on invariant directions
    action = make_action(grid32)
    free = preserved_cells(grid32, action)
    rng = np.random.default_rng(9)

    def invariant():
        vals = np.where(free, confined_field(grid32, rng), 0.0)
        return project_invariant(Field(grid32, vals), action)

    u, rhs = invariant(), invariant()
    ctx = metric_context(u)
    x, rel = solve_metric_system(ctx, rhs.values, tol=1e-12, free=free)
    assert rel <= 1e-12
    g = Field(grid32, x)
    defect = lp_norm(Field(grid32, project_invariant(g, action).values - x), 2) / lp_norm(g, 2)
    assert defect <= 1e-12
    for trial in range(5):
        v = invariant()
        want = grid32.h ** 2 * float(np.sum(rhs.values * v.values))
        assert abs(inner_u(ctx, g, v) - want) <= 1e-10 * abs(want)


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


"""Energy breakdown, fiber maps, Nehari projection, T_t scaling.

Oracles: finite differences for the derivative, fresh energy evaluations
for the fiber map, the analytic Gaussian image of T_t, and exact
floating-point homogeneity under power-of-two scalings.
"""

import numpy as np
import pytest
from scipy.ndimage import map_coordinates

from logchoquard import (
    EnergyBreakdown,
    Field,
    Grid,
    OutsideScalingRegionError,
    ScalingClipError,
    SolveConfig,
    cerami_weight,
    classify,
    const_potential,
    cos2d_potential,
    descend,
    energy,
    fiber,
    gaussian_field,
    grad_norm_sq,
    hessian_product,
    log_potential,
    lp_norm,
    make_potential,
    nehari_project,
    norms,
    phi_prime,
    q_a_bilinear,
    radial_well_potential,
    residual_field,
    scale_Tt,
    trivial_action,
    b_form,
    bump_field,
)
from logchoquard.functionals import NEHARI_REL_TOL

from conftest import confined_field


def nehari_state(grid, table, pot, width=0.6):
    """A Gaussian projected onto the Nehari set (it lies in O for a=1)."""
    u = gaussian_field(grid, width=width)
    bk = energy(u, pot, table)
    assert bk.q_a * bk.v0 < 0
    return nehari_project(u, bk)


# -------------------------------------------------------------- potentials


def test_potential_factories(grid32):
    p = const_potential(grid32, 1.5)
    assert p.sup_norm == 1.5 and p.ess_inf == 1.5
    c = cos2d_potential(grid32, base=1.0, amp=0.25, k1=0.25, k2=0.25)
    # the formula's extrema over the cell centres, inside its range [0.75, 1.25]
    wave = np.cos(0.5 * np.pi * grid32.axis)
    vals = 1.0 + 0.25 * np.outer(wave, wave)
    assert c.sup_norm == pytest.approx(np.max(vals)) and c.sup_norm <= 1.25
    assert c.ess_inf == pytest.approx(np.min(vals)) and c.ess_inf >= 0.75
    w = radial_well_potential(grid32, depth=0.5, radius=2.0)
    i0 = grid32.n // 2  # a cell touching the origin: 1 - depth * e^(1 - 1/(1 - s^2))
    s2 = (grid32.r[i0, i0] / 2.0) ** 2
    assert w.a.values[i0, i0] == pytest.approx(1.0 - 0.5 * np.exp(1.0 - 1.0 / (1.0 - s2)))
    assert w.ess_inf == w.a.values[i0, i0]
    assert np.all(w.a.values[grid32.r >= 2.0] == 1.0)


def test_make_potential_extrema(grid32):
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((32, 32))
    p = make_potential(Field(grid32, vals))
    assert p.sup_norm == np.max(np.abs(vals))
    assert p.ess_inf == np.min(vals)


# ------------------------------------------------------- energy breakdown


def test_energy_composition(grid32, table32, pot32):
    rng = np.random.default_rng(1)
    u = Field(grid32, confined_field(grid32, rng))
    bk = energy(u, pot32, table32)
    assert bk.phi == pytest.approx(0.5 * bk.q_a + 0.25 * bk.v0, rel=1e-15)
    assert bk.nehari_j == pytest.approx(bk.q_a + bk.v0, rel=1e-15)


def test_energy_matches_forms(grid32, table32, pot32):
    rng = np.random.default_rng(2)
    u = Field(grid32, confined_field(grid32, rng))
    bk = energy(u, pot32, table32)
    usq = Field(grid32, u.values ** 2)
    assert bk.q_a == pytest.approx(q_a_bilinear(u, u, pot32), rel=1e-13)
    assert bk.v0 == pytest.approx(b_form(usq, usq, "B0", table32), rel=1e-12)


def test_homogeneity_exact_fp(grid32, table32, pot32):
    # powers of two and sign flips commute exactly with every fp operation
    rng = np.random.default_rng(3)
    u = Field(grid32, confined_field(grid32, rng))
    bk = energy(u, pot32, table32)
    for t in (2.0, -1.0):
        bt = energy(Field(grid32, t * u.values), pot32, table32)
        assert bt.q_a == t * t * bk.q_a
        assert bt.v0 == t ** 4 * bk.v0


def test_q_a_bilinear_symmetry(grid32, pot32):
    rng = np.random.default_rng(4)
    u = Field(grid32, confined_field(grid32, rng))
    v = Field(grid32, confined_field(grid32, rng))
    assert q_a_bilinear(u, v, pot32) == pytest.approx(q_a_bilinear(v, u, pot32), rel=1e-13)


def test_positive_potential_coercivity(grid32):
    pot = cos2d_potential(grid32, base=1.0, amp=0.5, k1=0.25, k2=0.5)
    assert pot.ess_inf > 0
    rng = np.random.default_rng(5)
    for trial in range(5):
        u = Field(grid32, confined_field(grid32, rng))
        rep = norms(u)
        assert q_a_bilinear(u, u, pot) >= min(1.0, pot.ess_inf) * rep.h1_sq * (1 - 1e-12)


# ------------------------------------------------------ derivative oracle


def test_phi_prime_matches_finite_differences(grid32, table32, pot32):
    rng = np.random.default_rng(6)
    u = Field(grid32, confined_field(grid32, rng))
    for trial in range(3):
        v = Field(grid32, confined_field(grid32, rng))
        d = phi_prime(u, v, pot32, table32)
        eps = 1e-5
        fp = energy(Field(grid32, u.values + eps * v.values), pot32, table32).phi
        fm = energy(Field(grid32, u.values - eps * v.values), pot32, table32).phi
        fd = (fp - fm) / (2 * eps)
        assert fd == pytest.approx(d, rel=1e-7, abs=1e-10)


def test_phi_prime_at_u_is_nehari_j(grid32, table32, pot32):
    rng = np.random.default_rng(7)
    u = Field(grid32, confined_field(grid32, rng))
    bk = energy(u, pot32, table32)
    assert phi_prime(u, u, pot32, table32) == pytest.approx(bk.nehari_j, rel=1e-12, abs=1e-13)


def test_residual_adjoint_consistency(grid32, table32, pot32):
    # h^2 sum r v == Phi'(u) v exactly: the strong form is the discrete adjoint
    rng = np.random.default_rng(8)
    u = Field(grid32, confined_field(grid32, rng))
    r = residual_field(u, pot32, table32)
    for trial in range(3):
        v = Field(grid32, confined_field(grid32, rng))
        pairing = grid32.h ** 2 * np.sum(r.values * v.values)
        assert pairing == pytest.approx(phi_prime(u, v, pot32, table32), rel=1e-11, abs=1e-12)


# ------------------------------------------------------- second variation


def test_hessian_product_is_the_derivative_of_the_residual(grid32, table32):
    # r is cubic in u, so the centred difference of r along v is Phi''(u)v
    # plus eps^2 (log * v^2) v exactly: halving eps quarters the error
    pot = cos2d_potential(grid32, base=1.0, amp=0.5, k1=0.25, k2=0.25)
    rng = np.random.default_rng(9)
    u = Field(grid32, confined_field(grid32, rng))
    for trial in range(3):
        v = Field(grid32, confined_field(grid32, rng))
        hv = hessian_product(u, v, pot, table32).values
        errs = []
        for eps in (1e-2, 5e-3):
            rp = residual_field(Field(grid32, u.values + eps * v.values), pot, table32).values
            rm = residual_field(Field(grid32, u.values - eps * v.values), pot, table32).values
            errs.append(np.max(np.abs((rp - rm) / (2 * eps) - hv)))
        assert errs[1] <= 1e-4 * np.max(np.abs(hv))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=1e-3)


def test_hessian_product_is_symmetric(grid32, table32):
    pot = cos2d_potential(grid32, base=1.0, amp=0.5, k1=0.25, k2=0.25)
    rng = np.random.default_rng(10)
    u = Field(grid32, confined_field(grid32, rng))
    w0 = log_potential(Field(grid32, u.values ** 2), table32)
    h2 = grid32.h ** 2
    for trial in range(3):
        v = Field(grid32, confined_field(grid32, rng))
        w = Field(grid32, confined_field(grid32, rng))
        wHv = h2 * np.vdot(w.values, hessian_product(u, v, pot, table32, w0).values)
        vHw = h2 * np.vdot(v.values, hessian_product(u, w, pot, table32, w0).values)
        assert abs(wHv - vHw) <= 1e-12 * max(abs(wHv), 1.0)


def test_ray_corrected_hessian_at_a_ground_state(grid32, table32, pot32):
    # H = Phi'' - b b^T / <u, b>, b = Phi''(u) u = r + 2 w0 u: H u = 0, and at
    # a critical point H is the Hessian of Psi = -q_a^2 / (4 V0)
    u0 = gaussian_field(grid32, width=0.7)
    res = descend(u0, trivial_action(), pot32, table32, SolveConfig())
    assert res.converged
    u = res.u
    h2 = grid32.h ** 2
    w0 = log_potential(Field(grid32, u.values ** 2), table32)
    b = residual_field(u, pot32, table32).values + 2.0 * w0.values * u.values

    def H(v):
        hv = hessian_product(u, v, pot32, table32, w0).values
        return hv - (np.vdot(b, v.values) / np.vdot(u.values, b)) * b

    assert np.max(np.abs(H(u))) <= 1e-12 * np.max(np.abs(b))

    def psi(vals):
        bk = energy(Field(grid32, vals), pot32, table32)
        return -bk.q_a ** 2 / (4.0 * bk.v0)

    rng = np.random.default_rng(11)
    eps = 1e-3
    for trial in range(3):
        v = Field(grid32, confined_field(grid32, rng, radius=0.2))
        curv = h2 * np.vdot(v.values, H(v))
        up, um = u.values + eps * v.values, u.values - eps * v.values
        second = (psi(up) - 2 * psi(u.values) + psi(um)) / eps ** 2
        assert second == pytest.approx(curv, rel=1e-5)


# -------------------------------------------------------------- fiber map


def test_fiber_matches_fresh_energy(grid32, table32, pot32):
    u = gaussian_field(grid32, width=0.6)
    bk = energy(u, pot32, table32)
    assert fiber(1.0, bk) == bk.phi - 0.25 * bk.v0 + 0.25 * bk.v0  # t=1 is phi itself
    for t in (0.3, 1.0, 1.7, 2.4):
        fresh = energy(Field(grid32, t * u.values), pot32, table32).phi
        assert fiber(t, bk) == pytest.approx(fresh, rel=1e-11)


def test_fiber_unique_interior_maximum(grid32, table32, pot32):
    u = gaussian_field(grid32, width=0.6)
    bk = energy(u, pot32, table32)
    assert bk.q_a > 0 > bk.v0
    t_star = np.sqrt(-bk.q_a / bk.v0)
    ts = np.linspace(1e-3, 2.5 * t_star, 801)
    vals = np.array([fiber(t, bk) for t in ts])
    imax = int(np.argmax(vals))
    assert 0 < imax < len(ts) - 1  # interior
    assert ts[imax] == pytest.approx(t_star, abs=ts[1] - ts[0])
    # strictly concave at the top: neighbors are lower
    assert vals[imax - 1] < vals[imax] and vals[imax + 1] < vals[imax]


# ------------------------------------------------------- Nehari projection


def test_nehari_project_formula():
    # q_a = 2, V0 = -8 gives t_u = 1/2
    g = Grid(L=6.0, n=16)
    u = Field(g, np.ones((16, 16)))
    bk = EnergyBreakdown(q_a=2.0, v0=-8.0, phi=0.0, nehari_j=-6.0)
    s = nehari_project(u, bk)
    assert np.all(s.values == 0.5)


def test_nehari_project_identities(grid32, table32, pot32):
    s = nehari_state(grid32, table32, pot32)
    bk = energy(s, pot32, table32)
    assert abs(bk.nehari_j) <= 1e-12 * abs(bk.q_a)
    assert bk.phi == pytest.approx(0.25 * bk.q_a, rel=1e-10)
    assert bk.phi == pytest.approx(-0.25 * bk.v0, rel=1e-10)
    # idempotent: a second projection has t_u = 1 up to rounding
    s2 = nehari_project(s, bk)
    assert np.max(np.abs(s2.values - s.values)) <= 1e-10 * np.max(np.abs(s.values))


def test_nehari_project_outside_O(grid32, table32, pot32):
    # a tiny state has q_a > 0 and V0 > 0 (log kernel positive at range > 1)
    u = gaussian_field(grid32, width=3.5, amplitude=0.1)
    bk = energy(u, pot32, table32)
    assert bk.q_a * bk.v0 >= 0
    with pytest.raises(OutsideScalingRegionError, match="outside O"):
        nehari_project(u, bk)


def test_on_nehari_energy_identity(grid32, table32, pot32):
    # |J| <= eps q_a forces |Phi - q_a/4| <= eps q_a / 2
    s = nehari_state(grid32, table32, pot32, width=0.5)
    bk = energy(s, pot32, table32)
    eps = max(abs(bk.nehari_j) / bk.q_a, NEHARI_REL_TOL)
    assert abs(bk.phi - 0.25 * bk.q_a) <= 0.5 * eps * bk.q_a


# ---------------------------------------------------------- classification


def _bk(q_a, v0):
    return EnergyBreakdown(q_a=q_a, v0=v0, phi=0.5 * q_a + 0.25 * v0, nehari_j=q_a + v0)


def test_classify_labels():
    assert classify(_bk(2.0, -8.0), 1.0).label == "OffNehari"
    assert classify(_bk(4.0, -4.0 + 1e-14), 1.0).label == "Nminus"
    assert classify(_bk(-4.0, 4.0 - 1e-14), 1.0).label == "Nplus"
    assert classify(_bk(1e-20, -1e-20), 1.0).label == "Nzero"
    v = classify(_bk(2.0, -8.0), 1.0).violation
    assert v == pytest.approx(6.0 / 8.0)


# ---------------------------------------------------------------- scaling


def test_scale_identity_at_zero(grid32):
    u = gaussian_field(grid32, width=0.6)
    assert scale_Tt(u, 0.0) is u


def test_scale_guard_range(grid32):
    u = gaussian_field(grid32, width=0.6)
    with pytest.raises(ScalingClipError, match="> 2"):
        scale_Tt(u, 2.5)


def test_scale_clip_guard():
    g = Grid(L=6.0, n=64)
    wide = gaussian_field(g, width=2.0)  # visible mass in the boundary band
    with pytest.raises(ScalingClipError, match="clip"):
        scale_Tt(wide, -0.5)


def test_scale_matches_analytic_gaussian_image():
    # T_t Gaussian(w) = e^-t Gaussian(w e^t): compare against the closed form
    A, w = 1.3, 0.6
    errs = []
    for n in (64, 128):
        g = Grid(L=8.0, n=n)
        u = gaussian_field(g, width=w, amplitude=A)
        v = scale_Tt(u, 0.25)
        exact = gaussian_field(g, width=w * np.exp(0.25), amplitude=A * np.exp(-0.25))
        errs.append(np.max(np.abs(v.values - exact.values)))
    assert errs[0] <= 1e-3
    assert errs[0] / errs[1] > 8.0  # cubic resampling: better than third order


@pytest.mark.parametrize("t", [-0.25, 0.25])
def test_scale_matches_the_scipy_cubic_spline(t):
    # the separable spline samples the same interpolant as scipy's
    # map_coordinates(order=3); compact bumps keep the boundary conventions out
    g = Grid(L=6.0, n=128)
    u = Field(g, bump_field(g, (0.7, -0.4), 1.5).values - bump_field(g, (-1.1, 0.9), 0.8).values)
    ci = (np.exp(-t) * g.axis + g.L) / g.h - 0.5  # sample i sits at -L + (i + 1/2) h
    coords = np.broadcast_arrays(ci[:, None], ci[None, :])
    want = np.exp(-t) * map_coordinates(u.values, coords, order=3, mode="constant", cval=0.0)
    assert np.max(np.abs(scale_Tt(u, t).values - want)) <= 1e-13 * np.max(np.abs(u.values))


def test_scale_preserves_l2_mass():
    g = Grid(L=8.0, n=64)
    u = gaussian_field(g, width=0.6, amplitude=1.3)
    for t in (0.25, -0.25, 0.5):
        v = scale_Tt(u, t)
        assert lp_norm(v, 2) == pytest.approx(lp_norm(u, 2), rel=5e-4)


def test_scale_composition():
    g = Grid(L=8.0, n=64)
    u = gaussian_field(g, width=0.6, amplitude=1.3)
    two = scale_Tt(scale_Tt(u, 0.2), 0.15)
    one = scale_Tt(u, 0.35)
    assert np.max(np.abs(two.values - one.values)) <= 1e-3


def test_scale_gradient_transform_law():
    # |grad T_t u|^2 = e^{-2t} |grad u|^2 within the declared budget; wide
    # Gaussians keep the h^2 quadrature error of each side below the budget,
    # and a tiny amplitude keeps the boundary band under the clip guard
    g = Grid(L=12.0, n=256)
    for t, w in ((0.25, 2.3), (-0.25, 3.0)):
        u = gaussian_field(g, width=w, amplitude=1e-8)
        base = grad_norm_sq(u)
        scaled = grad_norm_sq(scale_Tt(u, t))
        assert scaled == pytest.approx(np.exp(-2 * t) * base, rel=1e-4)


# ------------------------------------------------------------- cerami weight


def test_cerami_weight_values(grid32):
    u = gaussian_field(grid32, width=0.6)
    assert cerami_weight(u, 0.0) == 0.0
    c = 3.0 / lp_norm(u, 2)
    u3 = Field(grid32, c * u.values)
    assert cerami_weight(u3, 1e-8) == pytest.approx(4e-8, rel=1e-12)

"""Group actions, point images, invariant projections, orbit distance, admissibility.

Exactness oracles: quarter turns, the x2-reflection and cell translations
are index permutations, so norms and energies must match to rounding;
analytic image checks use Gaussians whose rotated centers stay on the
lattice.
"""

import numpy as np
import pytest

from logchoquard import (
    BarycenterUndefinedError,
    Field,
    b_form,
    bump_field,
    check_admissible,
    energy,
    gaussian_field,
    glide_reflection,
    is_invariant,
    lattice_translation,
    lp_norm,
    orbit_distance,
    point_images,
    project_invariant,
    radial_average,
    rotation_zeta,
    shift_cells,
    trivial_action,
)


def interior_bump(grid):
    return bump_field(grid, center=(1.5, 0.75), radius=0.9, amplitude=1.3)


# ---------------------------------------------------------------- rotations


def mirror_index(grid):
    """neg[i], the index of the sample at -x_i: every cell centre has a mirror."""
    return np.array([np.flatnonzero(grid.axis == -x)[0] for x in grid.axis])


def quarter_turn(vals):
    """The generator image of the plain quarter-turn group."""
    return point_images(vals, rotation_zeta(2, zeta_nontrivial=False))[1]


def test_quarter_turn_is_exact_index_map(grid32):
    rng = np.random.default_rng(0)
    u = Field(grid32, rng.standard_normal((32, 32)))
    neg = mirror_index(grid32)
    # (g*u)(x) = u(x2, -x1) at every cell, the edges included
    r = quarter_turn(u.values)
    for i in range(grid32.n):
        for j in range(grid32.n):
            assert r[i, j] == u.values[j, neg[i]]
    # u(x1, -x2), the glide's point part
    reflect = point_images(u.values, glide_reflection(grid32, shift=0.0))
    assert np.array_equal(reflect[1], u.values[:, neg])


def test_quarter_turn_gaussian_analytic_image(grid32):
    # the axis is antisymmetric, so a rotated bump lands exactly on the rotated center
    u = interior_bump(grid32)
    expect = bump_field(grid32, center=(-0.75, 1.5), radius=0.9, amplitude=1.3)
    assert np.array_equal(quarter_turn(u.values), expect.values)


def test_four_quarter_turns_identity(grid32):
    u = interior_bump(grid32)
    images = point_images(u.values, rotation_zeta(2, zeta_nontrivial=False))
    r = u.values
    for j in range(4):
        assert np.array_equal(r, images[j])
        r = quarter_turn(r)
    assert np.array_equal(r, u.values)
    # the half turn of m = 1 is two quarter turns
    half = point_images(u.values, rotation_zeta(1, zeta_nontrivial=False))[1]
    assert np.array_equal(half, images[2])


def test_rotation_preserves_l2(grid32):
    u = interior_bump(grid32)
    r = Field(grid32, quarter_turn(u.values))
    assert lp_norm(r, 2) == pytest.approx(lp_norm(u, 2), rel=1e-13)


def test_rotation_zeta_signs(grid32):
    u = interior_bump(grid32)
    for m in (1, 2):
        signed = point_images(u.values, rotation_zeta(m, zeta_nontrivial=True))
        plain = point_images(u.values, rotation_zeta(m, zeta_nontrivial=False))
        for j, (s_img, p_img) in enumerate(zip(signed, plain)):
            assert np.array_equal(s_img, -p_img if j % 2 else p_img)


def test_rotation_zeta_validation():
    # only the turns by pi and pi/2 are index-exact
    for m in (0, 3, 4):
        with pytest.raises(ValueError):
            rotation_zeta(m)


POINT_GROUPS = {
    "rot:1": (lambda g: rotation_zeta(1, zeta_nontrivial=False), 2),
    "rot-zeta:1": (lambda g: rotation_zeta(1), 2),
    "rot:2": (lambda g: rotation_zeta(2, zeta_nontrivial=False), 4),
    "rot-zeta:2": (lambda g: rotation_zeta(2), 4),
    "glide": (lambda g: glide_reflection(g, shift=0.75), 2),
    "glide-zeta": (lambda g: glide_reflection(g, shift=0.75, zeta_nontrivial=True), 2),
    "lattice": (lambda g: lattice_translation(g, (0.75, 0.0), (0.0, 0.75)), 1),
    "trivial": (lambda g: trivial_action(), 1),
}


@pytest.mark.parametrize("name", sorted(POINT_GROUPS))
def test_point_group_order_and_closure(grid32, name):
    make, order = POINT_GROUPS[name]
    action = make(grid32)
    u = Field(grid32, np.random.default_rng(4).standard_normal((32, 32)))
    images = point_images(u.values, action)
    assert len(images) == order
    assert images[0] is u.values  # identity first
    # the generator (image 1; the identity in a one-element group) maps the
    # last image back onto u, sign included
    closed = point_images(images[-1], action)[1 % order]
    assert np.array_equal(closed, u.values)


# ------------------------------------------------------- lattices and glides


def test_lattice_action_is_cell_shift(grid32):
    action = lattice_translation(grid32, (0.75, 0.0), (0.0, 1.125))  # 2 and 3 cells
    assert action.cells1 == (2, 0) and action.cells2 == (0, 3)


def test_lattice_snap_warns_on_large_move(grid32):
    with pytest.warns(UserWarning, match="snapped"):
        lattice_translation(grid32, (0.55, 0.55), (-0.75, 0.75))


def test_glide_zeta_sign(grid32):
    action = glide_reflection(grid32, shift=0.75, zeta_nontrivial=True)
    plain = glide_reflection(grid32, shift=0.75, zeta_nontrivial=False)
    u = interior_bump(grid32)
    assert np.array_equal(point_images(u.values, action)[1], -point_images(u.values, plain)[1])


# ------------------------------------------------------------- projections


@pytest.mark.parametrize("kind", ["rot-zeta:2", "glide"])
def test_rotation_projection_idempotent_and_invariant(grid32, kind):
    if kind == "glide":
        # the certificate checks the reflection that the projection imposes
        action = glide_reflection(grid32, shift=0.75, zeta_nontrivial=True)
    else:
        action = rotation_zeta(2, zeta_nontrivial=True)
    u = interior_bump(grid32)
    p = project_invariant(u, action)
    p2 = project_invariant(p, action)
    scale = np.max(np.abs(p.values))
    assert np.max(np.abs(p2.values - p.values)) <= 1e-13 * scale
    cert = is_invariant(p, action)
    assert cert.defect <= 1e-12
    if kind != "glide":
        assert cert.sign_changing  # alternating-sign lobes


def test_radial_average_idempotent(grid32):
    rng = np.random.default_rng(2)
    u = Field(grid32, rng.standard_normal((32, 32)))
    r1 = radial_average(u)
    r2 = radial_average(r1)
    assert np.max(np.abs(r2.values - r1.values)) <= 1e-13 * np.max(np.abs(r1.values))


def test_radial_average_fixes_centered_gaussian(grid32):
    u = gaussian_field(grid32, width=0.8)
    r = radial_average(u)
    assert np.max(np.abs(r.values - u.values)) <= 1e-14


def test_radial_average_preserves_mean(grid32):
    rng = np.random.default_rng(3)
    u = Field(grid32, rng.standard_normal((32, 32)))
    assert np.sum(radial_average(u).values) == pytest.approx(np.sum(u.values), rel=1e-12)


def test_glide_projection_reflection_part(grid32):
    action = glide_reflection(grid32, shift=0.75, zeta_nontrivial=False)
    u = interior_bump(grid32)
    p = project_invariant(u, action)
    # p is invariant under the point reflection x2 -> -x2
    refl = p.values[:, mirror_index(grid32)]
    assert np.max(np.abs(refl - p.values)) <= 1e-13


def test_lattice_has_no_finite_projection(grid32):
    # the lattice imposes nothing pointwise: its projection is u itself
    action = lattice_translation(grid32, (0.75, 0.0), (0.0, 0.75))
    u = interior_bump(grid32)
    assert project_invariant(u, action) is u


def test_trivial_projection_is_identity(grid32):
    u = interior_bump(grid32)
    assert project_invariant(u, trivial_action()) is u


# --------------------------------------------------------- energy invariance


def test_energy_invariant_under_exact_actions(grid32, table32, pot32):
    u = interior_bump(grid32)
    phi = energy(u, pot32, table32).phi
    glide = glide_reflection(grid32, shift=0.75, zeta_nontrivial=True)
    images = [
        Field(grid32, quarter_turn(u.values)),
        shift_cells(u, 3, -2),
        Field(grid32, point_images(u.values, glide)[1]),
    ]
    for img in images:
        phi_img = energy(img, pot32, table32).phi
        assert abs(phi_img - phi) <= 1e-12 * (1 + abs(phi))


def test_v0_invariant_under_sign_action(grid32, table32):
    # zeta only flips signs; V0 sees u^2 and cannot change
    action = rotation_zeta(2, zeta_nontrivial=True)
    u = interior_bump(grid32)
    img = point_images(u.values, action)[1]
    usq = Field(grid32, u.values ** 2)
    isq = Field(grid32, img ** 2)
    v0u = b_form(usq, usq, "B0", table32)
    v0i = b_form(isq, isq, "B0", table32)
    assert v0i == pytest.approx(v0u, rel=1e-12)


# ------------------------------------------------------------ orbit distance


def test_orbit_distance_quotients_shifts_and_signs(grid32):
    u = interior_bump(grid32)
    assert orbit_distance(u, shift_cells(u, 3, -2)) <= 1e-12
    assert orbit_distance(u, Field(grid32, -u.values)) <= 1e-12
    moved = Field(grid32, -shift_cells(u, -2, 4).values)
    assert orbit_distance(u, moved) <= 1e-12


def test_orbit_distance_separates_distinct_profiles(grid32):
    u = bump_field(grid32, center=(1.5, 0.0), radius=0.9)
    v = bump_field(grid32, center=(1.5, 0.0), radius=1.4)
    assert orbit_distance(u, v) > 0.1


def test_orbit_distance_zero_field_rejected(grid32):
    u = interior_bump(grid32)
    with pytest.raises(BarycenterUndefinedError):
        orbit_distance(u, Field(grid32, np.zeros((32, 32))))


# ------------------------------------------------------------- admissibility


def test_admissibility_classes(grid32):
    ok, reason = check_admissible(rotation_zeta(2))
    assert ok and "order 4" in reason
    ok, _ = check_admissible(lattice_translation(grid32, (0.75, 0.0), (0.0, 0.75)))
    assert ok
    ok, reason = check_admissible(lattice_translation(grid32, (0.75, 0.0), (1.5, 0.0)))
    assert not ok and "dependent" in reason
    ok, reason = check_admissible(glide_reflection(grid32, shift=0.75))
    assert ok
    ok, reason = check_admissible(glide_reflection(grid32, shift=0.0))
    assert not ok
    ok, reason = check_admissible(trivial_action())
    assert not ok and "ess inf" in reason


def test_action_descriptions(grid32):
    assert "m=2" in rotation_zeta(2).describe()
    assert "cells" in lattice_translation(grid32, (0.75, 0.0), (0.0, 0.75)).describe()
    assert "shift" in glide_reflection(grid32, shift=0.75).describe()
    assert trivial_action().describe() == "trivial"

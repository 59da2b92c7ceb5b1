"""Group actions, invariant projections, orbit distance, admissibility.

Exactness oracles: quarter turns and cell translations are index
permutations, so norms and energies must match to rounding; analytic
image checks use Gaussians whose rotated centers stay on the lattice.
"""

import numpy as np
import pytest
from scipy.ndimage import map_coordinates

from logchoquard import (
    BarycenterUndefinedError,
    Field,
    Grid,
    ScalingClipError,
    act,
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
    project_invariant,
    radial_action,
    radial_average,
    rotate,
    rotation_zeta,
    shift_cells,
    trivial_action,
)


def interior_bump(grid):
    return bump_field(grid, center=(1.5, 0.75), radius=0.9, amplitude=1.3)


# ---------------------------------------------------------------- rotations


def test_quarter_turn_is_exact_index_map(grid32):
    rng = np.random.default_rng(0)
    u = Field(grid32, rng.standard_normal((32, 32)))
    r = rotate(u, 0.5 * np.pi)
    n = grid32.n
    assert np.all(r.values[0, :] == 0.0)
    for i, j in ((1, 0), (5, 20), (17, 31), (31, 16)):
        assert r.values[i, j] == u.values[j, n - i]


def test_quarter_turn_gaussian_analytic_image(grid32):
    # rotating a node-centered bump lands exactly on the rotated center
    u = interior_bump(grid32)
    r = rotate(u, 0.5 * np.pi)
    expect = bump_field(grid32, center=(-0.75, 1.5), radius=0.9, amplitude=1.3)
    assert np.array_equal(r.values, expect.values)


def test_four_quarter_turns_identity(grid32):
    u = interior_bump(grid32)
    r = u
    for _ in range(4):
        r = rotate(r, 0.5 * np.pi)
    assert np.array_equal(r.values, u.values)


def test_rotation_preserves_l2(grid32):
    u = interior_bump(grid32)
    assert lp_norm(rotate(u, 0.5 * np.pi), 2) == pytest.approx(lp_norm(u, 2), rel=1e-13)


def test_resampled_rotation_fixes_radial_states():
    # bilinear resampling is second order: the pi/4 defect on a radial
    # state drops 4x per refinement
    defects = []
    for n in (32, 64):
        u = gaussian_field(Grid(L=6.0, n=n), width=0.8)
        r = rotate(u, 0.25 * np.pi)
        defects.append(np.sqrt(np.sum((r.values - u.values) ** 2) / np.sum(u.values ** 2)))
    assert defects[0] <= 3e-2
    assert 3.0 < defects[0] / defects[1] < 5.0


def test_resampled_rotation_matches_scipy_bilinear():
    # a field inside the inscribed disc, with a kink and no symmetry, so
    # every bilinear weight shows
    g = Grid(L=6.0, n=64)
    u = Field(g, np.where(g.r < 5.5, (1.0 + g.x2) * np.cos(g.x1) * np.exp(-g.r ** 2 / 6.0), 0.0))
    c, s = np.cos(0.25 * np.pi), np.sin(0.25 * np.pi)
    coords = [(c * g.x1 + s * g.x2 + g.L) / g.h, (-s * g.x1 + c * g.x2 + g.L) / g.h]
    want = map_coordinates(u.values, coords, order=1, mode="constant", cval=0.0)
    got = rotate(u, 0.25 * np.pi).values
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(u.values))


def test_resampled_rotation_clip_guard(grid32):
    wide = Field(grid32, np.ones((32, 32)))  # mass outside the inscribed disc
    with pytest.raises(ScalingClipError):
        rotate(wide, 0.25 * np.pi)


def test_rotation_zeta_signs(grid32):
    action = rotation_zeta(2, zeta_nontrivial=True)
    u = interior_bump(grid32)
    odd = act(1, action, u)
    assert np.array_equal(odd.values, -rotate(u, 0.5 * np.pi).values)
    even = act(2, action, u)
    assert np.array_equal(even.values, rotate(rotate(u, 0.5 * np.pi), 0.5 * np.pi).values)


def test_rotation_zeta_validation():
    with pytest.raises(ValueError):
        rotation_zeta(0)


# ------------------------------------------------------- lattices and glides


def test_lattice_action_is_cell_shift(grid32):
    action = lattice_translation(grid32, (0.75, 0.0), (0.0, 1.125))  # 2 and 3 cells
    assert action.cells1 == (2, 0) and action.cells2 == (0, 3)
    u = interior_bump(grid32)
    moved = act((2, -1), action, u)
    assert np.array_equal(moved.values, shift_cells(u, 4, -3).values)


def test_lattice_snap_warns_on_large_move(grid32):
    with pytest.warns(UserWarning, match="snapped"):
        lattice_translation(grid32, (0.55, 0.55), (-0.75, 0.75))


def test_glide_square_is_pure_translation(grid32):
    # group law on interior-supported fields (the x2 = -L column has no
    # mirror node, so boundary-supported samples are excluded by design)
    action = glide_reflection(grid32, shift=0.75, zeta_nontrivial=True)
    rng = np.random.default_rng(1)
    u = Field(grid32, rng.standard_normal((32, 32)) * (grid32.r < 3.0))
    twice = act(1, action, act(1, action, u))
    square = act(2, action, u)
    assert np.array_equal(twice.values, square.values)
    # the square carries no sign and no reflection
    assert np.array_equal(square.values, shift_cells(u, 4, 0).values)


def test_glide_zeta_sign(grid32):
    action = glide_reflection(grid32, shift=0.75, zeta_nontrivial=True)
    plain = glide_reflection(grid32, shift=0.75, zeta_nontrivial=False)
    u = interior_bump(grid32)
    assert np.array_equal(act(1, action, u).values, -act(1, plain, u).values)


# ------------------------------------------------------------- projections


def test_rotation_projection_idempotent_and_invariant(grid32):
    action = rotation_zeta(2, zeta_nontrivial=True)
    u = interior_bump(grid32)
    p = project_invariant(u, action)
    p2 = project_invariant(p, action)
    scale = np.max(np.abs(p.values))
    assert np.max(np.abs(p2.values - p.values)) <= 1e-13 * scale
    cert = is_invariant(p, action)
    assert cert.defect <= 1e-12
    assert cert.sign_changing  # alternating-sign lobes
    assert cert.nonradial


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
    refl = np.zeros_like(p.values)
    refl[:, 1:] = p.values[:, :0:-1]
    assert np.max(np.abs(refl - p.values)) <= 1e-13


def test_lattice_has_no_finite_projection(grid32):
    action = lattice_translation(grid32, (0.75, 0.0), (0.0, 0.75))
    with pytest.raises(ValueError):
        project_invariant(interior_bump(grid32), action)


def test_trivial_projection_is_identity(grid32):
    u = interior_bump(grid32)
    assert project_invariant(u, trivial_action()) is u


# --------------------------------------------------------- energy invariance


def test_energy_invariant_under_exact_actions(grid32, table32, pot32):
    u = interior_bump(grid32)
    phi = energy(u, pot32, table32).phi
    images = [
        rotate(u, 0.5 * np.pi),
        shift_cells(u, 3, -2),
        act(1, glide_reflection(grid32, shift=0.75, zeta_nontrivial=True), u),
    ]
    for img in images:
        phi_img = energy(img, pot32, table32).phi
        assert abs(phi_img - phi) <= 1e-12 * (1 + abs(phi))


def test_v0_invariant_under_sign_action(grid32, table32):
    # zeta only flips signs; V0 sees u^2 and cannot change
    action = rotation_zeta(2, zeta_nontrivial=True)
    u = interior_bump(grid32)
    img = act(1, action, u)
    usq = Field(grid32, u.values ** 2)
    isq = Field(grid32, img.values ** 2)
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
    ok, _ = check_admissible(radial_action())
    assert ok
    ok, reason = check_admissible(rotation_zeta(3))
    assert ok and "order 6" in reason
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

"""Generalized barycenter: local mass, half-peak set, invariances.

Oracles: an explicit O(n^4) disc sum and a zero-padded FFT disc
convolution for the local mass, symmetric two-bump configurations
(center must vanish), and a known-center Gaussian. Scale invariance
under powers of two must be bitwise.
"""

import numpy as np
import pytest

from logchoquard import (
    BarycenterUndefinedError,
    Field,
    Grid,
    GridResolutionError,
    beta,
    bump_field,
    gaussian_field,
    shift_cells,
)
from logchoquard.barycenter import barycenter_work, local_mass
from logchoquard.symmetry import rotate

from conftest import confined_field


def two_bumps(grid, amp2=1.0):
    u = bump_field(grid, center=(-1.5, 0.0), radius=0.9)
    v = bump_field(grid, center=(1.5, 0.0), radius=0.9, amplitude=amp2)
    return Field(grid, u.values + v.values)


# ------------------------------------------------------------- local mass


def test_local_mass_matches_direct_disc_sum(grid32):
    rng = np.random.default_rng(0)
    u = Field(grid32, confined_field(grid32, rng))
    fast = local_mass(u, p=2.0).values
    dens = np.abs(u.values) ** 2
    h = grid32.h
    slow = np.zeros_like(dens)
    for i in range(32):
        for j in range(32):
            d = np.hypot(grid32.x1 - grid32.x1[i, j], grid32.x2 - grid32.x2[i, j])
            slow[i, j] = h * h * np.sum(dens[d < 1.0])
    assert np.max(np.abs(fast - slow)) <= 1e-10 * max(1.0, np.max(np.abs(slow)))


def test_local_mass_matches_padded_fft_disc_convolution():
    # n = 128, L = 6: h = 0.09375, so the disc spans 21 rows of cells
    g = Grid(L=6.0, n=128)
    u = Field(g, confined_field(g, np.random.default_rng(3)))
    off = ((np.arange(256) + 128) % 256 - 128) * g.h
    disc = (np.hypot(off[:, None], off[None, :]) < 1.0).astype(float)
    assert np.count_nonzero(disc[:, 0]) == 21
    padded = np.zeros((256, 256))
    padded[:128, :128] = u.values ** 2
    ref = g.h * g.h * np.fft.irfft2(np.fft.rfft2(padded) * np.fft.rfft2(disc), s=(256, 256))[:128, :128]
    fast = local_mass(u, p=2.0).values
    assert np.max(np.abs(fast - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_local_mass_needs_resolved_disc():
    g = Grid(L=6.0, n=16)  # h = 0.75 > 0.5
    with pytest.raises(GridResolutionError):
        local_mass(gaussian_field(g), p=2.0)


def test_local_mass_p_validation(grid32):
    with pytest.raises(ValueError):
        local_mass(gaussian_field(grid32), p=0.5)


# ------------------------------------------------------------- barycenter


def test_symmetric_two_bumps_center_at_origin(grid32):
    b = beta(two_bumps(grid32))
    assert np.max(np.abs(b)) <= 1e-10


def test_half_peak_work_fields(grid32):
    work = barycenter_work(two_bumps(grid32))
    assert work.beta1 > 0
    assert work.peak == np.max(work.uhat.values)
    assert np.any(work.omega_mask)
    # the excess integrand is supported exactly on the strict superlevel set
    assert np.all(work.uhat.values[work.omega_mask] > 0.5 * work.peak)


def test_asymmetric_bumps_lean_toward_heavier_side(grid32):
    b = beta(two_bumps(grid32, amp2=1.6))
    assert b[0] > 0.25
    assert abs(b[1]) <= 1e-10


def test_gaussian_center_recovered():
    g = Grid(L=6.0, n=64)
    c = (0.75, -1.125)  # cell corners (multiples of h = 0.1875)
    u = gaussian_field(g, width=0.5, center=c)
    b = beta(u)
    assert np.hypot(b[0] - c[0], b[1] - c[1]) <= g.h / 2


# ------------------------------------------------------------- invariances


def test_shift_equivariance(grid32):
    u = two_bumps(grid32, amp2=1.3)
    b0 = beta(u)
    h = grid32.h
    for di, dj in ((3, 0), (0, -4), (2, 5)):
        bs = beta(shift_cells(u, di, dj))
        assert np.max(np.abs(bs - (b0 + np.array([di * h, dj * h])))) <= 1e-12


def test_scale_invariance_power_of_two_bitwise(grid32):
    u = two_bumps(grid32, amp2=1.3)
    b0 = beta(u)
    for t in (-1.0, 0.5):
        bt = beta(Field(grid32, t * u.values))
        assert np.array_equal(bt, b0)
    babs = beta(Field(grid32, np.abs(u.values)))
    assert np.array_equal(babs, b0)


def test_scale_invariance_generic_factor(grid32):
    # t = 3 rounds the input samples themselves; invariance holds to rounding
    u = two_bumps(grid32, amp2=1.3)
    b3 = beta(Field(grid32, 3.0 * u.values))
    assert np.max(np.abs(b3 - beta(u))) <= 1e-12


def test_rotation_equivariance(grid32):
    u = two_bumps(grid32, amp2=1.3)
    b0 = beta(u)
    br = beta(rotate(u, 0.5 * np.pi))
    expect = np.array([-b0[1], b0[0]])
    assert np.max(np.abs(br - expect)) <= 1e-10


def test_small_perturbation_moves_barycenter_little(grid32):
    rng = np.random.default_rng(1)
    u = two_bumps(grid32, amp2=1.3)
    pert = 1e-4 * np.max(u.values) * rng.standard_normal((32, 32))
    b1 = beta(Field(grid32, u.values + pert))
    assert np.max(np.abs(b1 - beta(u))) <= 0.05


def test_zero_field_rejected(grid32):
    with pytest.raises(BarycenterUndefinedError):
        beta(Field(grid32, np.zeros((32, 32))))
